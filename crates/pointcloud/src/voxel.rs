//! Voxel-grid down-sampling — the `voxel_grid_filter` node's algorithm.
//!
//! The hot path accumulates per-voxel centroids in an open-addressing
//! hash table keyed on the quantized coordinates — one flat array,
//! linear probing, no per-entry allocation and no SipHash. The original
//! `std::collections::HashMap` formulation is retained as
//! [`VoxelGrid::filter_reference`]; property tests pin the two to
//! identical output. [`VoxelMap`] keeps a down-sampled cloud indexed by
//! voxel, so that re-filtering it with new points filters only those.

use crate::{Point, PointCloud};
use av_des::splitmix64;
use av_geom::{CellScale, Vec3};
use std::collections::HashMap;

/// Centroid-based voxel down-sampler.
///
/// Space is divided into cubes of `leaf_size`; all points falling into one
/// cube are replaced by their centroid (position and intensity averaged).
/// This is exactly what Autoware's `voxel_grid_filter` does to shrink the
/// raw sweep before handing it to `ndt_matching`.
///
/// ```
/// use av_geom::Vec3;
/// use av_pointcloud::{PointCloud, VoxelGrid};
///
/// let cloud = PointCloud::from_positions([
///     Vec3::new(0.1, 0.1, 0.0),
///     Vec3::new(0.2, 0.2, 0.0), // same 1 m voxel
///     Vec3::new(5.0, 5.0, 0.0), // different voxel
/// ]);
/// let filtered = VoxelGrid::new(1.0).filter(&cloud);
/// assert_eq!(filtered.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoxelGrid {
    leaves: CellScale,
}

impl VoxelGrid {
    /// Creates a down-sampler with cubic leaves of `leaf_size` meters.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_size` is not strictly positive and finite.
    pub fn new(leaf_size: f64) -> VoxelGrid {
        assert!(
            leaf_size.is_finite() && leaf_size > 0.0,
            "voxel leaf size must be positive and finite"
        );
        VoxelGrid { leaves: CellScale::new(leaf_size) }
    }

    /// The configured leaf size.
    pub fn leaf_size(&self) -> f64 {
        self.leaves.size()
    }

    /// The integer voxel coordinate containing `p`.
    #[inline]
    pub fn voxel_of(&self, p: Vec3) -> (i32, i32, i32) {
        self.leaves.key(p)
    }

    /// Down-samples `cloud` to one centroid per occupied voxel.
    ///
    /// Points with a non-finite coordinate are dropped, as PCL's
    /// `VoxelGrid` drops them from a non-dense cloud: a NaN would floor
    /// into voxel (0, 0, 0) and turn its centroid to NaN.
    ///
    /// Output order follows the first appearance of each voxel in the
    /// input, so the operation is deterministic. This is
    /// [`VoxelMap::finish`] on an empty map: accumulation runs over its
    /// open-addressing table, per-voxel sums in input order, so the result
    /// is bit-identical to [`filter_reference`](VoxelGrid::filter_reference).
    pub fn filter(&self, cloud: &PointCloud) -> PointCloud {
        VoxelMap::new(*self).finish(cloud)
    }

    /// The original `HashMap`-based formulation of
    /// [`filter`](Self::filter), retained as the independent reference
    /// the open-addressing table (the filter's and [`VoxelMap`]'s) is
    /// pinned against.
    pub fn filter_reference(&self, cloud: &PointCloud) -> PointCloud {
        struct Acc {
            sum: Vec3,
            intensity: f64,
            count: u32,
            order: u32,
            ring: u8,
        }
        let mut cells: HashMap<(i32, i32, i32), Acc> = HashMap::new();
        let mut next_order = 0u32;
        for p in cloud.iter().filter(|p| p.position.is_finite()) {
            let key = self.voxel_of(p.position);
            let acc = cells.entry(key).or_insert_with(|| {
                let order = next_order;
                next_order += 1;
                Acc { sum: Vec3::ZERO, intensity: 0.0, count: 0, order, ring: p.ring }
            });
            acc.sum += p.position;
            acc.intensity += p.intensity as f64;
            acc.count += 1;
        }
        let mut out: Vec<(u32, Point)> = cells
            .into_values()
            .map(|acc| {
                let n = acc.count as f64;
                (
                    acc.order,
                    Point {
                        position: acc.sum / n,
                        intensity: (acc.intensity / n) as f32,
                        ring: acc.ring,
                    },
                )
            })
            .collect();
        out.sort_unstable_by_key(|(order, _)| *order);
        out.into_iter().map(|(_, p)| p).collect()
    }

    /// Mixes a quantized coordinate into a table slot (the splitmix64
    /// finalizer over the packed components; the full key is still
    /// compared on probe, so hash collisions only cost probes).
    fn hash_key((x, y, z): Key) -> u64 {
        splitmix64((x as u32 as u64) ^ ((y as u32 as u64) << 21) ^ ((z as u32 as u64) << 42))
    }
}

/// A voxel-down-sampled cloud kept indexed by voxel, so that new points
/// fold in without re-filtering the points already held — the map an
/// `ndt_mapping` run compacts every few sweeps.
///
/// After [`fold`](Self::fold)`(batch)` the map holds, bit for bit, what
/// [`VoxelGrid::filter`] returns for the held points followed by
/// `batch`. That is cheap to maintain while every held point lies in
/// the voxel it stands for: the filter then meets the held points
/// first, one per voxel, so a voxel `batch` touches starts from its held
/// point (sum `ZERO + old`, count 1, the old ring), an untouched one
/// keeps it, and new voxels follow in first-appearance order. A centroid
/// can round out of its voxel (at leaf 0.3, seven points at
/// x = −29.700000000000003 in voxel −100 average to −29.699999999999996
/// in voxel −99), and a sum can overflow to a non-finite centroid,
/// which the filter drops when it meets it again; either way the next
/// fold re-filters everything held.
///
/// ```
/// use av_geom::Vec3;
/// use av_pointcloud::{PointCloud, VoxelGrid, VoxelMap};
///
/// let grid = VoxelGrid::new(1.0);
/// let a = PointCloud::from_positions([Vec3::new(0.2, 0.0, 0.0), Vec3::new(3.5, 0.0, 0.0)]);
/// let b = PointCloud::from_positions([Vec3::new(0.6, 0.0, 0.0), Vec3::new(7.0, 0.0, 0.0)]);
/// let mut map = VoxelMap::new(grid);
/// map.fold(&a);
/// assert_eq!(map.len(), 2);
/// let mut both = grid.filter(&a);
/// both.append(&b);
/// assert_eq!(map.finish(&b), grid.filter(&both));
/// ```
#[derive(Debug, Clone)]
pub struct VoxelMap {
    grid: VoxelGrid,
    /// Open-addressing table (power-of-two size, load ≤ 0.5) of indices
    /// into `points`, each found under `grid.voxel_of` of its point. An
    /// index is below half the size, so the bits above it are free: they
    /// hold a tag, the top of its voxel's hash (see [`tagged`]), and a
    /// probe reads `points` only when the tag matches. The table is
    /// consulted only while no point has escaped its voxel.
    slots: Vec<u32>,
    points: Vec<Point>,
    /// A held point lies outside the voxel it stands for: the next fold
    /// or [`finish`](Self::finish) re-filters everything.
    escaped: bool,
}

impl VoxelMap {
    /// An empty map down-sampling with `grid`.
    pub fn new(grid: VoxelGrid) -> VoxelMap {
        VoxelMap { grid, slots: Vec::new(), points: Vec::new(), escaped: false }
    }

    /// Number of held points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no point is held.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Down-samples the held points followed by `batch`, keeping the
    /// result: the map becomes `grid.filter(held ++ batch)`.
    pub fn fold(&mut self, batch: &PointCloud) {
        let accs = self.accumulate(batch);
        if self.escaped {
            self.slots.fill(EMPTY);
            self.points.clear();
            self.escaped = false;
        }
        self.points.reserve_exact(new_voxels(&accs));
        for (held, acc) in accs {
            let key = acc.key;
            let point = acc.centroid();
            let at = self.grid.voxel_of(point.position);
            self.escaped |= at != key || !point.position.is_finite();
            match held {
                EMPTY => self.insert(point, at),
                held => self.points[held as usize] = point,
            }
        }
    }

    /// `grid.filter(held ++ batch)`, built in the held points' storage.
    pub fn finish(mut self, batch: &PointCloud) -> PointCloud {
        let accs = self.accumulate(batch);
        let mut points = std::mem::take(&mut self.points);
        if self.escaped {
            points.clear();
        }
        drop(self);
        // Untouched held points go through the filter's arithmetic too:
        // `(0 + v) / 1` turns a held −0 (an underflowed mean intensity)
        // into +0.
        for p in &mut points {
            *p = VoxelAcc::of((0, 0, 0), p).centroid();
        }
        points.reserve_exact(new_voxels(&accs));
        for (held, acc) in accs {
            match held {
                EMPTY => points.push(acc.centroid()),
                held => points[held as usize] = acc.centroid(),
            }
        }
        points.into_iter().collect()
    }

    /// The filter's accumulators over `held ++ batch` for every voxel
    /// `batch` touches, in first-appearance order, each with the index of
    /// the held point it starts from (`EMPTY` for a new voxel). After an
    /// escape there is no such shortcut: every held point is accumulated
    /// afresh, all as new voxels. Non-finite points are dropped, as the
    /// filter drops them.
    fn accumulate(&self, batch: &PointCloud) -> Vec<(u32, VoxelAcc)> {
        let held: &[Point] = if self.escaped { &self.points } else { &[] };
        // The filter (an empty map) and an escaped map look nothing up.
        let lookup = !self.escaped && !self.slots.is_empty();
        // At least twice the worst-case voxel count (one per point), a
        // power of two so probing masks: load stays ≤ 0.5.
        let capacity = ((held.len() + batch.len()) * 2).next_power_of_two();
        let mask = capacity - 1;
        let mut slots: Vec<u32> = vec![EMPTY; capacity];
        let mut accs: Vec<(u32, VoxelAcc)> = Vec::new();
        for p in held.iter().chain(batch).filter(|p| p.position.is_finite()) {
            let key = self.grid.voxel_of(p.position);
            let hash = VoxelGrid::hash_key(key);
            let mut slot = hash as usize & mask;
            let (_, acc) = loop {
                match slots[slot] {
                    EMPTY => {
                        slots[slot] = accs.len() as u32;
                        let held = if lookup { self.find(key, hash) } else { None };
                        accs.push(match held {
                            Some(i) => (i, VoxelAcc::of(key, &self.points[i as usize])),
                            None => (EMPTY, VoxelAcc::new(key, p.ring)),
                        });
                        break accs.last_mut().expect("just pushed");
                    }
                    idx if accs[idx as usize].1.key == key => break &mut accs[idx as usize],
                    _ => slot = (slot + 1) & mask,
                }
            };
            acc.add(p);
        }
        accs
    }

    /// The index of the held point standing for `key`, whose hash is
    /// `hash`. A slot whose tag differs holds another voxel; one whose tag
    /// matches may still, so the key is compared too.
    fn find(&self, key: Key, hash: u64) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let tag = tagged(hash, 0, mask);
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return None,
                s if s & !(mask as u32) == tag => {
                    let i = s & mask as u32;
                    if self.grid.voxel_of(self.points[i as usize].position) == key {
                        return Some(i);
                    }
                }
                _ => {}
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Holds `point`, which lies in voxel `key`, for a voxel the map does
    /// not hold yet.
    fn insert(&mut self, point: Point, key: Key) {
        if (self.points.len() + 1) * 2 > self.slots.len() {
            let capacity = (self.slots.len() * 2).max(16);
            self.slots = vec![EMPTY; capacity];
            for i in 0..self.points.len() {
                let key = self.grid.voxel_of(self.points[i].position);
                self.place(i as u32, VoxelGrid::hash_key(key));
            }
        }
        self.points.push(point);
        self.place(self.points.len() as u32 - 1, VoxelGrid::hash_key(key));
    }

    /// Puts index `i` in the first free slot on the probe sequence of the
    /// voxel hash `hash`.
    fn place(&mut self, i: u32, hash: u64) {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        while self.slots[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = tagged(hash, i, mask);
    }
}

/// The slot word of index `i` under voxel hash `hash` in a table of
/// `mask + 1` slots: the index in the low bits, and above them the bits
/// of `hash`'s upper half, which the slot position (its low bits) does
/// not use. An index is below half the table size, so bit `log2(size)
/// − 1` is always 0 and no word equals `EMPTY`.
fn tagged(hash: u64, i: u32, mask: usize) -> u32 {
    ((hash >> 32) as u32 & !(mask as u32)) | i
}

/// How many of [`VoxelMap::accumulate`]'s voxels are new to the map. The
/// map reserves exactly that room: a doubling `Vec` would leave up to
/// half of the map's size allocated and unused.
fn new_voxels(accs: &[(u32, VoxelAcc)]) -> usize {
    accs.iter().filter(|(held, _)| *held == EMPTY).count()
}

/// An integer voxel coordinate.
type Key = (i32, i32, i32);

/// An empty slot of an open-addressing table.
const EMPTY: u32 = u32::MAX;

/// Open-addressing accumulator for one occupied voxel.
struct VoxelAcc {
    key: Key,
    sum: Vec3,
    intensity: f64,
    count: u32,
    ring: u8,
}

impl VoxelAcc {
    /// An empty voxel; `ring` is its first point's.
    fn new(key: Key, ring: u8) -> VoxelAcc {
        VoxelAcc { key, sum: Vec3::ZERO, intensity: 0.0, count: 0, ring }
    }

    /// A voxel holding just `p`, as when `p` is its first point.
    fn of(key: Key, p: &Point) -> VoxelAcc {
        let mut acc = VoxelAcc::new(key, p.ring);
        acc.add(p);
        acc
    }

    fn add(&mut self, p: &Point) {
        self.sum += p.position;
        self.intensity += p.intensity as f64;
        self.count += 1;
    }

    fn centroid(self) -> Point {
        let n = self.count as f64;
        Point { position: self.sum / n, intensity: (self.intensity / n) as f32, ring: self.ring }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centroid_within_voxel() {
        let cloud =
            PointCloud::from_positions([Vec3::new(0.2, 0.2, 0.2), Vec3::new(0.4, 0.4, 0.4)]);
        let out = VoxelGrid::new(1.0).filter(&cloud);
        assert_eq!(out.len(), 1);
        assert!((out.point(0).position - Vec3::new(0.3, 0.3, 0.3)).norm() < 1e-12);
    }

    #[test]
    fn negative_coordinates_use_floor() {
        let g = VoxelGrid::new(1.0);
        assert_eq!(g.voxel_of(Vec3::new(-0.1, 0.1, 0.0)), (-1, 0, 0));
        assert_eq!(g.voxel_of(Vec3::new(-1.0, 0.0, 0.0)), (-1, 0, 0));
    }

    #[test]
    fn intensity_averaged() {
        let mut cloud = PointCloud::new();
        cloud.push(Point::with_attributes(Vec3::new(0.1, 0.0, 0.0), 0.2, 3));
        cloud.push(Point::with_attributes(Vec3::new(0.2, 0.0, 0.0), 0.6, 4));
        let out = VoxelGrid::new(1.0).filter(&cloud);
        assert_eq!(out.len(), 1);
        assert!((out.point(0).intensity - 0.4).abs() < 1e-6);
    }

    #[test]
    fn empty_cloud_stays_empty() {
        assert!(VoxelGrid::new(0.5).filter(&PointCloud::new()).is_empty());
    }

    #[test]
    fn deterministic_output_order() {
        let cloud = PointCloud::from_positions([
            Vec3::new(5.5, 0.0, 0.0),
            Vec3::new(0.5, 0.0, 0.0),
            Vec3::new(2.5, 0.0, 0.0),
            Vec3::new(5.6, 0.0, 0.0),
        ]);
        let g = VoxelGrid::new(1.0);
        let a = g.filter(&cloud);
        let b = g.filter(&cloud);
        assert_eq!(a, b);
        // First-appearance order: voxel of 5.5 first, then 0.5, then 2.5.
        assert!((a.point(0).position.x - 5.55).abs() < 1e-12);
        assert!((a.point(1).position.x - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_leaf_size_panics() {
        let _ = VoxelGrid::new(0.0);
    }
}

#[cfg(test)]
mod proptests {
    //! Seeded randomized property tests (fixed-seed PCG stream, so any
    //! failure reproduces exactly).
    use super::*;
    use av_des::{RngStreams, StreamRng};

    fn random_cloud(rng: &mut StreamRng, range: f64, max: usize) -> PointCloud {
        let n = 1 + rng.uniform_usize(max - 1);
        PointCloud::from_positions((0..n).map(|_| {
            Vec3::new(
                rng.uniform(-range, range),
                rng.uniform(-range, range),
                rng.uniform(-5.0, 5.0),
            )
        }))
    }

    /// Down-sampling never increases the point count and never moves
    /// points outside the input bounds.
    #[test]
    fn filter_shrinks_and_stays_in_bounds() {
        let mut rng = RngStreams::new(0x0e1).stream("shrink");
        for _ in 0..128 {
            let cloud = random_cloud(&mut rng, 100.0, 200);
            let leaf = rng.uniform(0.1, 5.0);
            let out = VoxelGrid::new(leaf).filter(&cloud);
            assert!(out.len() <= cloud.len());
            assert!(!out.is_empty());
            let b = cloud.bounds();
            for p in out.iter() {
                assert!(b.contains(p.position));
            }
        }
    }

    /// The open-addressing implementation is bit-identical to the
    /// retained `HashMap` reference — same centroids (exact float
    /// equality), same first-appearance order.
    #[test]
    fn open_addressing_matches_reference_exactly() {
        let mut rng = RngStreams::new(0x0e1).stream("pin");
        for round in 0..128 {
            let cloud = random_cloud(&mut rng, 100.0, 300);
            let g = VoxelGrid::new(rng.uniform(0.1, 5.0));
            assert_eq!(g.filter(&cloud), g.filter_reference(&cloud), "round {round}");
        }
    }

    /// Every output centroid stays inside its voxel cell.
    #[test]
    fn centroids_stay_in_their_voxel() {
        let mut rng = RngStreams::new(0x0e1).stream("centroid");
        for _ in 0..128 {
            let cloud = random_cloud(&mut rng, 50.0, 100);
            let leaf = rng.uniform(0.5, 4.0);
            let g = VoxelGrid::new(leaf);
            // Group inputs per voxel and check each centroid maps back.
            let out = g.filter(&cloud);
            for p in out.iter() {
                let v = g.voxel_of(p.position);
                let members: Vec<Vec3> =
                    cloud.positions().filter(|&q| g.voxel_of(q) == v).collect();
                assert!(!members.is_empty(), "centroid escaped its voxel");
            }
        }
    }

    /// Folding batch after batch into a [`VoxelMap`] gives what
    /// re-filtering the whole accumulated cloud gives after each batch.
    /// The map tests compare against `filter_reference`: `filter` is the
    /// map's own `finish`, so it would check the table against itself.
    #[test]
    fn voxel_map_matches_refiltering() {
        let mut rng = RngStreams::new(0x0e1).stream("fold");
        for round in 0..64 {
            let g = VoxelGrid::new(rng.uniform(0.2, 3.0));
            let mut map = VoxelMap::new(g);
            let mut reference = PointCloud::new();
            for batch in 0..6 {
                let cloud = random_cloud(&mut rng, 20.0, 300);
                let mut all = reference.clone();
                all.append(&cloud);
                assert_eq!(
                    map.clone().finish(&cloud),
                    g.filter_reference(&all),
                    "round {round} batch {batch}"
                );
                map.fold(&cloud);
                reference = g.filter_reference(&all);
                assert_eq!(map.len(), reference.len());
            }
        }
    }

    /// A centroid that rounds out of its voxel makes the next fold
    /// re-filter everything, and the map still matches the filter.
    #[test]
    fn escaped_centroid_takes_the_refilter() {
        let g = VoxelGrid::new(0.3);
        let x = -29.700000000000003;
        assert_eq!(g.voxel_of(Vec3::new(x, 0.0, 0.0)).0, -100);
        let first = PointCloud::from_positions((0..7).map(|_| Vec3::new(x, 0.0, 0.0)));
        let second = PointCloud::from_positions([Vec3::new(-29.65, 0.0, 0.0)]);
        assert_eq!(g.voxel_of(second.point(0).position).0, -99);

        let mut map = VoxelMap::new(g);
        map.fold(&first);
        let centroid = map.clone().finish(&PointCloud::new()).point(0).position;
        assert_eq!(centroid.x, -29.699999999999996);
        assert!(map.escaped, "the centroid left voxel -100");

        let mut all = g.filter_reference(&first);
        all.append(&second);
        assert_eq!(map.clone().finish(&second), g.filter_reference(&all));
        map.fold(&second);
        assert!(!map.escaped);
        // Both points now share voxel -99.
        assert_eq!(map.len(), 1);
        assert_eq!(map.finish(&PointCloud::new()), g.filter_reference(&g.filter_reference(&all)));
    }

    /// A mean intensity that underflows to −0 stays −0 while held, as
    /// the filter returns it; re-filtering turns it into +0
    /// (`0.0 + −0`), and so must `finish` for an untouched point.
    #[test]
    fn held_negative_zero_comes_out_as_the_filter_gives_it() {
        let g = VoxelGrid::new(1.0);
        let tiny = -f32::from_bits(1);
        let batch: PointCloud = [tiny, 0.0, 0.0]
            .into_iter()
            .map(|i| Point::with_attributes(Vec3::new(0.5, 0.5, 0.5), i, 0))
            .collect();
        let filtered = g.filter_reference(&batch);
        assert_eq!(filtered.point(0).intensity.to_bits(), (-0.0f32).to_bits());
        let mut map = VoxelMap::new(g);
        map.fold(&batch);
        let other = PointCloud::from_positions([Vec3::new(5.5, 0.5, 0.5)]);
        let mut all = filtered.clone();
        all.append(&other);
        let bits = |c: &PointCloud| c.iter().map(|p| p.intensity.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&map.clone().finish(&other)), bits(&g.filter_reference(&all)));
        assert_eq!(bits(&map.finish(&PointCloud::new())), bits(&g.filter_reference(&filtered)));
    }

    /// Non-finite points are dropped by the filter, its reference and
    /// the map alike; a NaN used to floor into voxel (0, 0, 0) and turn
    /// a real point's centroid to NaN, and ±∞ to saturate into an edge
    /// voxel with an infinite centroid.
    #[test]
    fn non_finite_points_are_dropped() {
        let g = VoxelGrid::new(0.5);
        let (a, b) = (Vec3::new(0.1, 0.1, 0.1), Vec3::new(0.2, 0.2, 0.2));
        let inf = f64::INFINITY;
        let cloud = PointCloud::from_positions([
            a,
            Vec3::new(f64::NAN, 0.2, 0.2),
            Vec3::new(0.2, -inf, 0.2),
            Vec3::new(inf, inf, inf),
            b,
        ]);
        let want = PointCloud::from_positions([(a + b) / 2.0]);
        assert_eq!(g.filter(&cloud), want);
        assert_eq!(g.filter_reference(&cloud), want);
        let mut map = VoxelMap::new(g);
        map.fold(&cloud);
        assert_eq!(map.len(), 1);
        let mut all = want.clone();
        all.append(&cloud);
        assert_eq!(map.clone().finish(&cloud), g.filter_reference(&all));
        assert_eq!(map.finish(&PointCloud::new()), want);
    }

    /// Finite points whose sum overflows leave a non-finite centroid,
    /// which the filter drops when it meets it again: the map takes the
    /// re-filter, so it still equals re-filtering what it holds.
    #[test]
    fn non_finite_centroid_takes_the_refilter() {
        let g = VoxelGrid::new(0.5);
        let huge = PointCloud::from_positions([Vec3::new(f64::MAX, 0.0, 0.0); 2]);
        let held = g.filter_reference(&huge);
        assert_eq!(held.point(0).position.x, f64::INFINITY);
        let mut map = VoxelMap::new(g);
        map.fold(&huge);
        assert!(map.escaped, "an infinite centroid must re-filter");
        let next = PointCloud::from_positions([Vec3::new(1.0, 0.0, 0.0)]);
        let mut all = held.clone();
        all.append(&next);
        assert_eq!(map.clone().finish(&next), g.filter_reference(&all));
        map.fold(&next);
        assert_eq!(map.finish(&PointCloud::new()), g.filter_reference(&g.filter_reference(&all)));
    }

    /// Two voxels whose hashes share the home slot and the tag of a
    /// table of `mask + 1` slots: found by a birthday search over keys
    /// along one axis.
    fn colliding_keys(mask: usize) -> (Key, Key) {
        let mut seen: HashMap<u32, Key> = HashMap::new();
        for x in 0.. {
            let key = (x, 0, 0);
            let hash = VoxelGrid::hash_key(key);
            let signature = tagged(hash, hash as u32 & mask as u32, mask);
            if let Some(&other) = seen.get(&signature) {
                return (other, key);
            }
            seen.insert(signature, key);
        }
        unreachable!()
    }

    /// A probe must compare the key behind a matching tag: in 16- and
    /// 64-slot tables, a voxel whose slot and tag equal a held voxel's
    /// is still a new voxel.
    #[test]
    fn equal_tags_of_different_voxels_stay_apart() {
        let g = VoxelGrid::new(1.0);
        let at = |(x, y, z): Key| Vec3::new(x as f64 + 0.5, y as f64 + 0.5, z as f64 + 0.5);
        for (mask, fillers) in [(15, 0), (63, 20)] {
            let (a, b) = colliding_keys(mask);
            let hash = |k| VoxelGrid::hash_key(k);
            assert_eq!(hash(a) as usize & mask, hash(b) as usize & mask);
            assert_eq!(tagged(hash(a), 0, mask), tagged(hash(b), 0, mask));
            let first: PointCloud = std::iter::once(at(a))
                .chain((0..fillers).map(|k| at((k, 7_000, 0))))
                .map(Point::from)
                .collect();
            let mut map = VoxelMap::new(g);
            map.fold(&first);
            assert_eq!(map.slots.len(), mask + 1);
            let second = PointCloud::from_positions([at(b), at(a)]);
            let mut all = g.filter_reference(&first);
            all.append(&second);
            map.fold(&second);
            assert_eq!(map.len(), fillers as usize + 2, "table of {} slots", mask + 1);
            assert_eq!(
                map.finish(&PointCloud::new()),
                g.filter_reference(&g.filter_reference(&all))
            );
        }
    }
}
