//! NDT voxel statistics: the map representation `ndt_matching` scores
//! candidate poses against.

use crate::PointCloud;
use av_geom::{CellScale, Mat3, Vec3};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by integer cell coordinate, hashed with [`CellHasher`]:
/// fixed (no per-process random seed, so iteration order repeats from
/// run to run) and far cheaper than SipHash on three-`i32` keys.
pub type CellMap<V> = HashMap<(i32, i32, i32), V, BuildHasherDefault<CellHasher>>;

/// Multiplicative (Fx-style) hasher for [`CellMap`] keys: each word is
/// folded in as `(h.rotl(5) ^ word) · K`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellHasher(u64);

impl CellHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for CellHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.add(u64::from(v as u32));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Gaussian statistics of one NDT cell.
#[derive(Debug, Clone, PartialEq)]
pub struct NdtCell {
    /// Mean of the points in the cell.
    pub mean: Vec3,
    /// Sample covariance (regularized to stay invertible).
    pub cov: Mat3,
    /// Inverse of the regularized covariance.
    pub inv_cov: Mat3,
    /// Number of points that contributed.
    pub count: usize,
}

/// A Normal Distributions Transform grid over a map point cloud.
///
/// Each occupied voxel with at least `min_points` samples stores the mean
/// and covariance of its points. Scan matching then evaluates, for every
/// scan point transformed by a candidate pose, the Gaussian likelihood of
/// the cell it lands in — the classic P2D-NDT formulation Autoware's
/// `ndt_matching` uses (via `pcl::NormalDistributionsTransform`).
///
/// The cells sit in one dense `Vec`, in the order their keys first appear
/// in the map cloud, behind a key → index table.
///
/// ```
/// use av_geom::Vec3;
/// use av_pointcloud::{NdtGrid, PointCloud};
///
/// let map = PointCloud::from_positions((0..100).map(|i| {
///     Vec3::new((i % 10) as f64 * 0.1, (i / 10) as f64 * 0.1, 0.1 * (i % 3) as f64)
/// }));
/// let grid = NdtGrid::build(&map, 2.0, 5);
/// assert_eq!(grid.len(), 1);
/// assert!(grid.cell_containing(Vec3::new(0.5, 0.5, 0.1)).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct NdtGrid {
    cells_of: CellScale,
    cells: Vec<NdtCell>,
    /// Index into `cells` of each populated cell's key.
    index: CellMap<u32>,
}

/// No cell: a key whose points are too few or whose covariance is
/// singular.
const NONE: u32 = u32::MAX;

impl NdtGrid {
    /// Builds the grid from a map cloud.
    ///
    /// Cells with fewer than `min_points` samples are discarded (their
    /// covariance would be degenerate). Covariances are regularized by
    /// adding `1e-3 × (trace/3 + ε)` to the diagonal, keeping them
    /// positive-definite even for perfectly planar cells — the same role
    /// PCL's eigenvalue inflation plays. Points with a non-finite
    /// coordinate are skipped.
    ///
    /// Two passes over the cloud, holding no copy of it: the first sums
    /// each key's points, the second adds each point's outer product to
    /// its cell's covariance. Per cell these are the sums a per-cell
    /// point list gives, in the same order, so every bit is the same.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive or `min_points < 3`.
    pub fn build(map: &PointCloud, cell_size: f64, min_points: usize) -> NdtGrid {
        assert!(cell_size.is_finite() && cell_size > 0.0, "cell size must be positive");
        assert!(min_points >= 3, "NDT cells need at least 3 points for a covariance");
        let points = || map.positions().filter(|p| p.is_finite());
        let cells_of = CellScale::new(cell_size);

        // Pass 1: each key's sum and count, keys in first-appearance order.
        let mut index: CellMap<u32> = CellMap::default();
        let mut sums: Vec<(Vec3, usize)> = Vec::new();
        for p in points() {
            let slot = *index.entry(cells_of.key(p)).or_insert_with(|| {
                sums.push((Vec3::ZERO, 0));
                (sums.len() - 1) as u32
            });
            let (sum, count) = &mut sums[slot as usize];
            *sum += p;
            *count += 1;
        }

        // A cell per key with enough points; `slot` maps key order to it.
        let kept = sums.iter().filter(|&&(_, count)| count >= min_points).count();
        let mut cells = Vec::with_capacity(kept);
        let mut slot = vec![NONE; sums.len()];
        for (i, &(sum, count)) in sums.iter().enumerate() {
            if count >= min_points {
                slot[i] = cells.len() as u32;
                let mean = sum / count as f64;
                cells.push(NdtCell { mean, cov: Mat3::ZERO, inv_cov: Mat3::ZERO, count });
            }
        }
        drop(sums);

        // Pass 2: the covariance sums.
        for p in points() {
            let c = slot[index[&cells_of.key(p)] as usize];
            if c != NONE {
                let cell = &mut cells[c as usize];
                let d = p - cell.mean;
                cell.cov = cell.cov + Mat3::outer(d, d);
            }
        }

        // Scale, regularize and invert; a singular cell is dropped and the
        // later ones move up.
        let mut len = 0;
        for c in slot.iter_mut().filter(|c| **c != NONE) {
            let cell = &mut cells[*c as usize];
            let n = cell.count as f64;
            cell.cov = cell.cov.scaled(1.0 / (n - 1.0));
            // Regularize: planar/linear cells are common (roads, walls).
            let reg = 1e-3 * (cell.cov.trace() / 3.0 + 1e-6);
            for i in 0..3 {
                cell.cov.m[i][i] += reg;
            }
            match cell.cov.inverse() {
                Some(inv_cov) => {
                    cell.inv_cov = inv_cov;
                    cells.swap(len, *c as usize);
                    *c = len as u32;
                    len += 1;
                }
                None => *c = NONE, // pathological cell; skip
            }
        }
        cells.truncate(len);
        cells.shrink_to_fit();
        index.retain(|_, i| {
            *i = slot[*i as usize];
            *i != NONE
        });
        NdtGrid { cells_of, cells, index }
    }

    /// The configured cell size.
    pub fn cell_size(&self) -> f64 {
        self.cells_of.size()
    }

    /// Number of populated cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the grid has no populated cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell containing `p`, if populated.
    pub fn cell_containing(&self, p: Vec3) -> Option<&NdtCell> {
        self.cell(self.cells_of.key(p))
    }

    fn cell(&self, key: (i32, i32, i32)) -> Option<&NdtCell> {
        self.index.get(&key).map(|&i| &self.cells[i as usize])
    }

    /// Gaussian score of a point against the cell it falls in:
    /// `exp(−d·Σ⁻¹·d / 2)`, or `0` for an unpopulated cell.
    pub fn score_point(&self, p: Vec3) -> f64 {
        match self.cell_containing(p) {
            Some(cell) => {
                let d = p - cell.mean;
                let md = d.dot(cell.inv_cov * d);
                (-0.5 * md).exp()
            }
            None => 0.0,
        }
    }

    /// Iterates over populated cells, in the order their keys first
    /// appear in the map cloud.
    pub fn cells(&self) -> impl Iterator<Item = &NdtCell> {
        self.cells.iter()
    }

    /// The integer cell coordinate containing `p` — the cache key for
    /// [`cells_around_key`](Self::cells_around_key).
    #[inline]
    pub fn key_of(&self, p: Vec3) -> (i32, i32, i32) {
        self.cells_of.key(p)
    }

    /// The populated cells in the DIRECT7 neighbourhood of `p`: the
    /// containing cell plus its six face neighbours. This is the lookup
    /// set PCL's NDT uses by default; scoring against the neighbourhood
    /// removes the quantization bias of a containing-cell-only match.
    pub fn cells_around(&self, p: Vec3) -> impl Iterator<Item = &NdtCell> {
        self.cells_around_key(self.key_of(p))
    }

    /// [`cells_around`](Self::cells_around) by integer cell coordinate,
    /// so callers evaluating many points per cell (NDT's Newton loop)
    /// can memoize the seven hash lookups per key. The iteration order
    /// is the fixed DIRECT7 offset order — cached and uncached callers
    /// accumulate scores in the same order.
    pub fn cells_around_key(
        &self,
        (kx, ky, kz): (i32, i32, i32),
    ) -> impl Iterator<Item = &NdtCell> {
        DIRECT7.iter().filter_map(move |&(dx, dy, dz)| self.cell((kx + dx, ky + dy, kz + dz)))
    }
}

/// The DIRECT7 neighbourhood of a key: itself, then its six face
/// neighbours.
const DIRECT7: [(i32, i32, i32); 7] =
    [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)];

#[cfg(test)]
impl NdtGrid {
    /// The grid's cells by key, built the way the grid was first built:
    /// every key's points copied into a list of their own, then each
    /// list's mean and covariance, keyed by dividing by the cell size.
    /// Retained as the oracle that the two-pass [`build`](Self::build),
    /// which multiplies by an exact reciprocal, is checked against bit
    /// for bit.
    fn build_reference(map: &PointCloud, cell_size: f64, min_points: usize) -> CellMap<NdtCell> {
        struct Acc {
            sum: Vec3,
            points: Vec<Vec3>,
        }
        let mut acc: CellMap<Acc> = CellMap::default();
        let floor = av_geom::floor_i32;
        for p in map.positions() {
            let key = (floor(p.x / cell_size), floor(p.y / cell_size), floor(p.z / cell_size));
            let entry =
                acc.entry(key).or_insert_with(|| Acc { sum: Vec3::ZERO, points: Vec::new() });
            entry.sum += p;
            entry.points.push(p);
        }

        let mut cells = CellMap::default();
        for (key, a) in acc {
            if a.points.len() < min_points {
                continue;
            }
            let n = a.points.len() as f64;
            let mean = a.sum / n;
            let mut cov = Mat3::ZERO;
            for p in &a.points {
                let d = *p - mean;
                cov = cov + Mat3::outer(d, d);
            }
            cov = cov.scaled(1.0 / (n - 1.0));
            let reg = 1e-3 * (cov.trace() / 3.0 + 1e-6);
            for i in 0..3 {
                cov.m[i][i] += reg;
            }
            let inv_cov = match cov.inverse() {
                Some(inv) => inv,
                None => continue,
            };
            cells.insert(key, NdtCell { mean, cov, inv_cov, count: a.points.len() });
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_des::RngStreams;

    fn gaussian_blob(center: Vec3, spread: f64, n: usize, stream: &str) -> PointCloud {
        let mut rng = RngStreams::new(99).stream(stream);
        PointCloud::from_positions((0..n).map(|_| {
            center
                + Vec3::new(
                    rng.normal(0.0, spread),
                    rng.normal(0.0, spread),
                    rng.normal(0.0, spread * 0.2),
                )
        }))
    }

    #[test]
    fn sparse_cells_discarded() {
        let map = PointCloud::from_positions([Vec3::ZERO, Vec3::new(0.1, 0.0, 0.0)]);
        let grid = NdtGrid::build(&map, 1.0, 5);
        assert!(grid.is_empty());
        assert_eq!(grid.score_point(Vec3::ZERO), 0.0);
    }

    #[test]
    fn cell_mean_matches_blob_center() {
        let center = Vec3::new(0.5, 0.5, 1.0);
        let map = gaussian_blob(center, 0.05, 200, "blob");
        let grid = NdtGrid::build(&map, 2.0, 5);
        assert_eq!(grid.len(), 1);
        let cell = grid.cell_containing(center).unwrap();
        assert!((cell.mean - center).norm() < 0.02);
        assert_eq!(cell.count, 200);
    }

    #[test]
    fn score_peaks_at_mean() {
        let center = Vec3::new(1.0, 1.0, 2.0);
        let map = gaussian_blob(center, 0.1, 300, "peak");
        let grid = NdtGrid::build(&map, 4.0, 5);
        let cell_mean = grid.cell_containing(center).unwrap().mean;
        let at_mean = grid.score_point(cell_mean);
        let off = grid.score_point(cell_mean + Vec3::new(0.3, 0.0, 0.0));
        assert!(at_mean > 0.99);
        assert!(off < at_mean);
    }

    #[test]
    fn covariance_is_symmetric_positive_definite() {
        let map = gaussian_blob(Vec3::ZERO, 0.2, 150, "spd");
        let grid = NdtGrid::build(&map, 4.0, 5);
        for cell in grid.cells() {
            assert!(cell.cov.is_symmetric(1e-9));
            assert!(cell.cov.det() > 0.0);
            // inv_cov really is the inverse.
            let prod = cell.cov * cell.inv_cov;
            assert!((prod.trace() - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn planar_cell_stays_invertible() {
        // Perfectly flat ground patch: z variance is exactly zero.
        let map = PointCloud::from_positions(
            (0..100).map(|i| Vec3::new((i % 10) as f64 * 0.1, (i / 10) as f64 * 0.1, 0.0)),
        );
        let grid = NdtGrid::build(&map, 2.0, 5);
        assert_eq!(grid.len(), 1);
        let cell = grid.cells().next().unwrap();
        assert!(cell.cov.det() > 0.0, "regularization must keep planar cells PD");
    }

    /// `cells()` yields the cells in the order their keys first appear in
    /// the map cloud, so the order depends only on the map, never on a
    /// hash table's layout: two builds iterate alike.
    #[test]
    fn cells_iterate_in_a_fixed_order() {
        let mut map = PointCloud::new();
        for i in 0..12 {
            let center = Vec3::new(4.0 * i as f64, -3.0 * i as f64, 1.0);
            map.append(&gaussian_blob(center, 0.3, 60, &format!("order{i}")));
        }
        let order = |g: &NdtGrid| g.cells().map(|c| c.mean).collect::<Vec<_>>();
        let a = NdtGrid::build(&map, 2.0, 5);
        let b = NdtGrid::build(&map, 2.0, 5);
        assert!(a.len() > 8, "{} cells", a.len());
        assert_eq!(order(&a), order(&b));
        assert_eq!(order(&a), first_appearance_means(&a, &map));
    }

    /// The means of `grid`'s cells, looked up key by key in the order the
    /// keys first appear in `map`.
    pub(super) fn first_appearance_means(grid: &NdtGrid, map: &PointCloud) -> Vec<Vec3> {
        let mut seen = CellMap::default();
        map.positions()
            .filter(|p| p.is_finite() && seen.insert(grid.key_of(*p), ()).is_none())
            .filter_map(|p| grid.cell_containing(p).map(|c| c.mean))
            .collect()
    }

    /// A non-finite map point is skipped: it neither lands in key
    /// (0, 0, 0), where `floor_i32` puts a NaN, nor counts anywhere.
    #[test]
    fn non_finite_points_are_skipped() {
        let blob = gaussian_blob(Vec3::new(0.5, 0.5, 0.5), 0.1, 50, "nan");
        let clean = NdtGrid::build(&blob, 2.0, 5);
        let mut dirty = PointCloud::from_positions([Vec3::new(f64::NAN, 0.5, 0.5)]);
        dirty.append(&blob);
        for bad in [Vec3::new(0.5, f64::INFINITY, 0.5), Vec3::new(0.1, 0.2, f64::NEG_INFINITY)] {
            dirty.push(bad.into());
        }
        let grid = NdtGrid::build(&dirty, 2.0, 5);
        assert_eq!(grid.len(), 1);
        let cell = grid.cell_containing(Vec3::new(0.5, 0.5, 0.5)).expect("the blob's cell");
        assert_eq!(cell.count, 50);
        assert_eq!(cell_bits(cell), cell_bits(clean.cells().next().unwrap()));
    }

    pub(super) fn cell_bits(c: &NdtCell) -> Vec<u64> {
        let mut bits = vec![c.mean.x.to_bits(), c.mean.y.to_bits(), c.mean.z.to_bits()];
        for m in [&c.cov, &c.inv_cov] {
            bits.extend(m.m.concat().into_iter().map(f64::to_bits));
        }
        bits.push(c.count as u64);
        bits
    }

    #[test]
    fn multiple_cells_partition_space() {
        let mut map = gaussian_blob(Vec3::new(0.5, 0.5, 1.0), 0.05, 100, "a");
        map.append(&gaussian_blob(Vec3::new(10.5, 0.5, 1.0), 0.05, 100, "b"));
        let grid = NdtGrid::build(&map, 2.0, 5);
        assert_eq!(grid.len(), 2);
        assert!(grid.score_point(Vec3::new(0.5, 0.5, 1.0)) > 0.0);
        assert!(grid.score_point(Vec3::new(5.0, 0.5, 1.0)) == 0.0);
    }
}

#[cfg(test)]
mod proptests {
    //! Seeded randomized property tests (fixed-seed PCG stream, so any
    //! failure reproduces exactly).
    use super::tests::{cell_bits, first_appearance_means};
    use super::*;
    use av_des::{RngStreams, StreamRng};

    /// A cloud of cell-sized clumps around the origin, so coordinates
    /// straddle ±0 (exact zeros of both signs included): scattered
    /// points, blobs, exact duplicates, and collinear and coplanar clumps
    /// thin enough that their regularized covariance is singular.
    fn random_map(rng: &mut StreamRng, cell: f64) -> PointCloud {
        let mut map = PointCloud::new();
        for _ in 0..1 + rng.uniform_usize(24) {
            let center = Vec3::new(
                rng.uniform(-3.0, 3.0) * cell,
                rng.uniform(-3.0, 3.0) * cell,
                rng.uniform(-2.0, 2.0) * cell,
            );
            let n = 1 + rng.uniform_usize(14);
            let spread = cell * [0.3, 0.3, 0.02, 0.003][rng.uniform_usize(4)];
            let kind = rng.uniform_usize(7);
            for _ in 0..n {
                let d = Vec3::new(
                    rng.normal(0.0, spread),
                    rng.normal(0.0, spread),
                    rng.normal(0.0, spread),
                );
                let d = match kind {
                    0 => Vec3::ZERO,               // duplicates
                    1 => Vec3::new(d.x, 0.0, 0.0), // collinear
                    2 => Vec3::new(d.x, d.y, 0.0), // coplanar
                    3 => d * 8.0,                  // scattered
                    _ => d,                        // blobs
                };
                map.push((center + d).into());
            }
        }
        for _ in 0..rng.uniform_usize(6) {
            let zero = if rng.chance(0.5) { 0.0 } else { -0.0 };
            let p = Vec3::new(zero, rng.uniform(-0.1, 0.1) * cell, -zero);
            map.push(p.into());
        }
        map
    }

    /// The two-pass build equals the retained per-cell-list oracle: the
    /// same key set, every cell's bits, every DIRECT7 sequence, and cells
    /// in first-appearance order.
    #[test]
    fn two_pass_build_matches_the_reference_exactly() {
        let mut rng = RngStreams::new(0x0d7).stream("grid");
        let (mut cells, mut singular) = (0, 0);
        for round in 0..300 {
            let cell = [0.5, 1.0, 2.0][round % 3];
            let min_points = 3 + rng.uniform_usize(6);
            let map = random_map(&mut rng, cell);
            let grid = NdtGrid::build(&map, cell, min_points);
            let reference = NdtGrid::build_reference(&map, cell, min_points);
            assert_eq!(grid.len(), reference.len(), "round {round}");
            for (&key, want) in &reference {
                let got = grid.cell(key).unwrap_or_else(|| panic!("round {round}: {key:?}"));
                assert_eq!(cell_bits(got), cell_bits(want), "round {round}: {key:?}");
                for (dx, dy, dz) in DIRECT7 {
                    let k = (key.0 + dx, key.1 + dy, key.2 + dz);
                    let got: Vec<_> = grid.cells_around_key(k).map(cell_bits).collect();
                    let want: Vec<_> = DIRECT7
                        .iter()
                        .filter_map(|&(ex, ey, ez)| reference.get(&(k.0 + ex, k.1 + ey, k.2 + ez)))
                        .map(cell_bits)
                        .collect();
                    assert_eq!(got, want, "round {round}: around {k:?}");
                }
            }
            let order: Vec<_> = grid.cells().map(|c| c.mean).collect();
            assert_eq!(order, first_appearance_means(&grid, &map), "round {round}");

            let mut counts: CellMap<usize> = CellMap::default();
            for p in map.positions() {
                *counts.entry(grid.key_of(p)).or_default() += 1;
            }
            cells += grid.len();
            singular += counts.values().filter(|&&n| n >= min_points).count() - grid.len();
        }
        assert!(cells > 1000 && singular > 50, "{cells} cells, {singular} singular");
    }
}
