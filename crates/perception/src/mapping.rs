//! Map building — the `ndt_mapping` utility.
//!
//! The paper's sensor data came without an HD map, so the authors ran
//! Autoware's `ndt_mapping` over the recorded LiDAR to produce the
//! point-cloud map that `ndt_matching` then localizes against (§III-A).
//! This builder mirrors that step: accumulate sweeps at known poses,
//! down-sample, and emit both the map cloud and its NDT grid.

use av_geom::Pose;
use av_pointcloud::{NdtGrid, PointCloud, VoxelGrid, VoxelMap};

/// Incremental point-cloud map builder.
///
/// ```
/// use av_geom::{Pose, Vec3};
/// use av_pointcloud::PointCloud;
/// use av_perception::NdtMappingBuilder;
///
/// let mut builder = NdtMappingBuilder::new(0.5);
/// let sweep = PointCloud::from_positions((0..100).map(|i| {
///     Vec3::new((i % 10) as f64 * 0.5, (i / 10) as f64 * 0.5, 0.0)
/// }));
/// builder.add_sweep(&sweep, &Pose::planar(5.0, 0.0, 0.0));
/// let (map, grid) = builder.build(2.0, 5);
/// assert!(!map.is_empty());
/// assert!(!grid.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct NdtMappingBuilder {
    /// The sweeps compacted so far.
    map: VoxelMap,
    /// Sweeps added since the last compaction, in the map frame, each
    /// as it came: the next fold reads them in order, as one batch.
    pending: Vec<PointCloud>,
    sweeps: usize,
}

impl NdtMappingBuilder {
    /// Creates a builder that down-samples accumulated points with the
    /// given voxel leaf size (meters).
    ///
    /// # Panics
    ///
    /// Panics if `leaf_size` is not positive (see
    /// [`VoxelGrid::new`]).
    pub fn new(leaf_size: f64) -> NdtMappingBuilder {
        NdtMappingBuilder {
            map: VoxelMap::new(VoxelGrid::new(leaf_size)),
            pending: Vec::with_capacity(FOLD_EVERY),
            sweeps: 0,
        }
    }

    /// Adds one sweep captured at `pose` (body → map).
    ///
    /// The sweep is transformed into the map frame; every 8 sweeps the
    /// running map is re-down-sampled to bound memory. The map holds
    /// exactly what re-filtering the whole accumulated cloud would give,
    /// but only the newest 8 sweeps are filtered (see [`VoxelMap`]).
    pub fn add_sweep(&mut self, sweep: &PointCloud, pose: &Pose) {
        self.add_map_sweep(sweep.transformed(pose));
    }

    /// Adds one sweep already in the map frame, as
    /// [`add_sweep`](Self::add_sweep) adds it after the transform. The
    /// builder keeps the cloud as it is until the next fold.
    pub fn add_map_sweep(&mut self, sweep: PointCloud) {
        self.pending.push(sweep);
        self.sweeps += 1;
        if self.sweeps.is_multiple_of(FOLD_EVERY) {
            self.map.fold(&self.pending);
            self.pending.clear();
        }
    }

    /// Number of sweeps folded in.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Current (possibly not yet re-down-sampled) map size in points.
    pub fn map_points(&self) -> usize {
        self.map.len() + self.pending.iter().map(PointCloud::len).sum::<usize>()
    }

    /// Finalizes the map: one last down-sample, then builds the NDT grid
    /// with the given cell size and minimum points per cell.
    ///
    /// The final map is written into the compacted map's own storage, and
    /// the rest of the builder is dropped before the grid is built, so
    /// the peak heap holds one copy of the map.
    pub fn build(self, cell_size: f64, min_points: usize) -> (PointCloud, NdtGrid) {
        let NdtMappingBuilder { map, pending, .. } = self;
        let map = map.finish(&pending);
        drop(pending);
        let grid = NdtGrid::build(&map, cell_size, min_points);
        (map, grid)
    }
}

/// Sweeps per compaction.
const FOLD_EVERY: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use av_des::{RngStreams, StreamRng};
    use av_geom::Vec3;
    use av_pointcloud::Point;

    fn ground_sweep() -> PointCloud {
        PointCloud::from_positions(
            (0..400).map(|i| Vec3::new((i % 20) as f64 * 0.5, (i / 20) as f64 * 0.5, 0.0)),
        )
    }

    #[test]
    fn sweeps_are_placed_at_their_pose() {
        let mut b = NdtMappingBuilder::new(0.5);
        b.add_sweep(&ground_sweep(), &Pose::planar(100.0, 0.0, 0.0));
        let (map, _) = b.build(2.0, 5);
        let bounds = map.bounds();
        assert!(bounds.min.x >= 99.0, "sweep not transformed: {:?}", bounds);
    }

    #[test]
    fn overlapping_sweeps_deduplicate() {
        let mut b = NdtMappingBuilder::new(0.5);
        for _ in 0..20 {
            b.add_sweep(&ground_sweep(), &Pose::IDENTITY);
        }
        assert_eq!(b.sweeps(), 20);
        let (map, _) = b.build(2.0, 5);
        // 20 identical sweeps must not grow the map 20×.
        assert!(map.len() <= ground_sweep().len() * 2);
    }

    #[test]
    fn periodic_downsampling_bounds_memory() {
        let mut b = NdtMappingBuilder::new(0.5);
        for _ in 0..9 {
            b.add_sweep(&ground_sweep(), &Pose::IDENTITY);
        }
        // After the 8th sweep a compaction ran.
        assert!(b.map_points() < 9 * ground_sweep().len());
    }

    #[test]
    fn built_grid_covers_map() {
        let mut b = NdtMappingBuilder::new(0.25);
        b.add_sweep(&ground_sweep(), &Pose::IDENTITY);
        let (map, grid) = b.build(2.0, 5);
        assert!(!grid.is_empty());
        // Most map points should land in populated cells.
        let matched = map.positions().filter(|&p| grid.cell_containing(p).is_some()).count();
        assert!(matched as f64 > 0.8 * map.len() as f64);
    }

    /// The procedure the builder replaced: re-filter the whole
    /// accumulated cloud every 8 sweeps, then once more at the end.
    fn refiltered(leaf: f64, sweeps: &[(PointCloud, Pose)]) -> PointCloud {
        let voxel = VoxelGrid::new(leaf);
        let mut map = PointCloud::new();
        for (i, (sweep, pose)) in sweeps.iter().enumerate() {
            map.append(&sweep.transformed(pose));
            if (i + 1).is_multiple_of(8) {
                map = voxel.filter(&map);
            }
        }
        voxel.filter(&map)
    }

    fn built(leaf: f64, sweeps: &[(PointCloud, Pose)]) -> NdtMappingBuilder {
        let mut b = NdtMappingBuilder::new(leaf);
        for (sweep, pose) in sweeps {
            b.add_sweep(sweep, pose);
        }
        b
    }

    /// Every point by its bits: position, intensity, ring, in order.
    fn bits(cloud: &PointCloud) -> Vec<([u64; 3], u32, u8)> {
        cloud
            .iter()
            .map(|p| {
                let v = p.position;
                ([v.x.to_bits(), v.y.to_bits(), v.z.to_bits()], p.intensity.to_bits(), p.ring)
            })
            .collect()
    }

    #[test]
    fn incremental_compaction_matches_refiltering_bit_for_bit() {
        let mut rng = RngStreams::new(0x3a9).stream("mapping");
        for round in 0..24 {
            let leaf = [0.3, 0.5, 1.0][round % 3];
            let count = 1 + rng.uniform_usize(30);
            let mut sweeps: Vec<(PointCloud, Pose)> = Vec::new();
            for _ in 0..count {
                if !sweeps.is_empty() && rng.chance(0.2) {
                    // A repeated sweep, at its own pose or a new one.
                    let (sweep, pose) = sweeps[rng.uniform_usize(sweeps.len())].clone();
                    let pose = if rng.chance(0.5) { pose } else { random_pose(&mut rng) };
                    sweeps.push((sweep, pose));
                    continue;
                }
                let n = rng.uniform_usize(400);
                let sweep: PointCloud = (0..n)
                    .map(|_| {
                        let position = Vec3::new(
                            rng.uniform(-15.0, 15.0),
                            rng.uniform(-15.0, 15.0),
                            rng.uniform(-2.0, 3.0),
                        );
                        Point::with_attributes(
                            position,
                            rng.next_f64() as f32,
                            rng.next_u32() as u8,
                        )
                    })
                    .collect();
                sweeps.push((sweep, random_pose(&mut rng)));
            }
            let b = built(leaf, &sweeps);
            assert_eq!(b.sweeps(), count);
            let (map, _) = b.build(2.0, 5);
            assert_eq!(bits(&map), bits(&refiltered(leaf, &sweeps)), "round {round}");
        }
    }

    fn random_pose(rng: &mut StreamRng) -> Pose {
        let (x, y, yaw) =
            (rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0), rng.uniform(-3.2, 3.2));
        let mut pose = Pose::planar(x, y, yaw);
        pose.translation.z = rng.uniform(0.0, 2.0);
        pose
    }

    /// At leaf 0.3 seven points at x = −29.700000000000003 (voxel −100)
    /// average to −29.699999999999996 (voxel −99). Re-filtering then
    /// merges that centroid with every later point in voxel −99, and with
    /// a point the same batch left there, so the builder must fall back
    /// to re-filtering too.
    #[test]
    fn escaped_centroid_falls_back_to_refiltering() {
        let x = -29.700000000000003;
        let empty = (PointCloud::new(), Pose::IDENTITY);
        let escaping = PointCloud::from_positions((0..7).map(|_| Vec3::new(x, 0.0, 0.0)));
        let in_99 = PointCloud::from_positions([Vec3::new(-29.65, 0.0, 0.0)]);
        for neighbour in [false, true] {
            let mut sweeps = vec![(escaping.clone(), Pose::IDENTITY)];
            if neighbour {
                // A second point held in voxel −99 after the first fold.
                sweeps.push((in_99.clone(), Pose::IDENTITY));
            }
            sweeps.resize(8, empty.clone());
            sweeps.push((in_99.clone(), Pose::IDENTITY));

            // The escape pending at build time.
            let (map, _) = built(0.3, &sweeps).build(2.0, 5);
            assert_eq!(bits(&map), bits(&refiltered(0.3, &sweeps)), "neighbour {neighbour}");
            assert_eq!(map.len(), 1, "the voxel -99 points merged");

            // The escape folded in with the next batch.
            sweeps.resize(16, empty.clone());
            let b = built(0.3, &sweeps);
            assert_eq!(b.map_points(), 1, "the voxel -99 points merged");
            let (map, _) = b.build(2.0, 5);
            assert_eq!(bits(&map), bits(&refiltered(0.3, &sweeps)), "neighbour {neighbour}");
        }
    }
}
