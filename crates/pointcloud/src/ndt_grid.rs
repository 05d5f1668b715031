//! NDT voxel statistics: the map representation `ndt_matching` scores
//! candidate poses against.

use crate::PointCloud;
use av_geom::{floor_i32, Mat3, Vec3};
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
    cell_size: f64,
    cells: CellMap<NdtCell>,
}

impl NdtGrid {
    /// Builds the grid from a map cloud.
    ///
    /// Cells with fewer than `min_points` samples are discarded (their
    /// covariance would be degenerate). Covariances are regularized by
    /// adding `1e-3 × (trace/3 + ε)` to the diagonal, keeping them
    /// positive-definite even for perfectly planar cells — the same role
    /// PCL's eigenvalue inflation plays.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive or `min_points < 3`.
    pub fn build(map: &PointCloud, cell_size: f64, min_points: usize) -> NdtGrid {
        assert!(cell_size.is_finite() && cell_size > 0.0, "cell size must be positive");
        assert!(min_points >= 3, "NDT cells need at least 3 points for a covariance");

        struct Acc {
            sum: Vec3,
            points: Vec<Vec3>,
        }
        let mut acc: CellMap<Acc> = CellMap::default();
        for p in map.positions() {
            let key = Self::key_for(p, cell_size);
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
            // Regularize: planar/linear cells are common (roads, walls).
            let reg = 1e-3 * (cov.trace() / 3.0 + 1e-6);
            for i in 0..3 {
                cov.m[i][i] += reg;
            }
            let inv_cov = match cov.inverse() {
                Some(inv) => inv,
                None => continue, // pathological cell; skip
            };
            cells.insert(key, NdtCell { mean, cov, inv_cov, count: a.points.len() });
        }
        NdtGrid { cell_size, cells }
    }

    fn key_for(p: Vec3, cell_size: f64) -> (i32, i32, i32) {
        (floor_i32(p.x / cell_size), floor_i32(p.y / cell_size), floor_i32(p.z / cell_size))
    }

    /// The configured cell size.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
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
        self.cells.get(&Self::key_for(p, self.cell_size))
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

    /// Iterates over populated cells.
    pub fn cells(&self) -> impl Iterator<Item = &NdtCell> {
        self.cells.values()
    }

    /// The integer cell coordinate containing `p` — the cache key for
    /// [`cells_around_key`](Self::cells_around_key).
    pub fn key_of(&self, p: Vec3) -> (i32, i32, i32) {
        Self::key_for(p, self.cell_size)
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
        const OFFSETS: [(i32, i32, i32); 7] =
            [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)];
        OFFSETS.iter().filter_map(move |&(dx, dy, dz)| self.cells.get(&(kx + dx, ky + dy, kz + dz)))
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

    /// `cells()` order depends only on the map: the grid's hasher has no
    /// per-process or per-map random seed, so two builds iterate alike.
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
