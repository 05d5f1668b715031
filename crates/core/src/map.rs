//! The HD map: [`build_map`] (the paper's offline `ndt_mapping` step,
//! §III-A) and [`MapCache`], which lets every drive of one sweep or
//! search share the maps it needs instead of rebuilding one per session.
//!
//! A map is a pure function of the scenario, the LiDAR model, the NDT
//! cell size and the seed of the `"mapping"` RNG stream (the mapping
//! rig's LiDAR noise), so a cached map is the very map a fresh build
//! would return, and sharing it changes no output byte.

use crate::stack::StackConfig;
use av_des::{RngStreams, StreamRng};
use av_geom::Pose;
use av_perception::NdtMappingBuilder;
use av_pointcloud::NdtGrid;
use av_world::{LidarConfig, LidarModel, ScenarioConfig, Scene, World};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};

/// Builds the HD map the way the authors did: run the mapping utility
/// over the drive's own LiDAR data at known poses (§III-A).
pub fn build_map(
    world: &World,
    lidar: &LidarModel,
    cell_size: f64,
    rng: &mut StreamRng,
) -> NdtGrid {
    let (_, grid) = map_builder(world, lidar, rng).build(cell_size, 6);
    grid
}

/// [`build_map`]'s mapping run with every sweep added, before the final
/// down-sample and the NDT statistics: `build` on it returns the map
/// cloud as well as the grid.
///
/// Two stages on two threads. A scoped helper owns `rng`: it scans the
/// scenes in [`mapping_scenes`] order, moves each sweep into the map
/// frame and sends it through a channel that holds `IN_FLIGHT` sweeps.
/// The calling thread folds the sweeps in as they arrive. The helper
/// draws the mapping noise in the order one thread would, and the fold
/// meets the same points in the same order, so the builder is the one a
/// single thread returns, bit for bit, however the two interleave. A
/// panic on either side ends the other and propagates from the scope.
pub fn map_builder(world: &World, lidar: &LidarModel, rng: &mut StreamRng) -> NdtMappingBuilder {
    let mut builder = NdtMappingBuilder::new(0.5);
    std::thread::scope(|scope| {
        let (sweeps, received) = mpsc::sync_channel(IN_FLIGHT);
        scope.spawn(move || {
            for (scene, pose) in mapping_scenes(world, lidar.config().mount_height) {
                let sweep = lidar.scan(world, &scene, rng).transformed(&pose);
                if sweeps.send(sweep).is_err() {
                    break; // the fold panicked
                }
            }
        });
        for sweep in received {
            builder.add_map_sweep(sweep);
        }
    });
    builder
}

/// How many scanned sweeps [`map_builder`]'s channel holds while the
/// fold is busy. A paper fold takes about as long as scanning the next
/// eight sweeps, so six keep the helper scanning through most of it.
/// Each sweep held adds up to 160 kB to the fold's heap peak: with six,
/// the worst case stays under the one-thread build's peak (see
/// DESIGN.md, "The threaded map build").
const IN_FLIGHT: usize = 6;

/// The mapping run's scan instants, in order: one traffic-free scene per
/// ~8 m of one lap, each with the pose of a sensor head mounted at
/// `mount_height`.
pub fn mapping_scenes(
    world: &World,
    mount_height: f64,
) -> impl Iterator<Item = (Scene, Pose)> + '_ {
    let route_len = world.route().length();
    let lap_time = route_len / world.config().ego_speed;
    // One scan per ~8 m of travel, one full lap (the drive loops).
    let scans = (route_len / 8.0).ceil() as usize;
    (0..scans).map(move |i| {
        let t = i as f64 * lap_time / scans as f64;
        let mut scene = world.snapshot(t);
        // Mapping rigs drive at quiet hours and mapping pipelines scrub
        // dynamic objects; freezing traffic into the map would leave ghost
        // geometry that corrupts every later scan match.
        scene.objects.clear();
        // Mapping uses the ground-truth pose (the calibrated mapping rig).
        let mut pose = scene.ego.pose;
        pose.translation.z = mount_height;
        (scene, pose)
    })
}

/// Everything [`build_map`] reads from a [`StackConfig`]: the world comes
/// from the scenario, the scans from the LiDAR model, and their noise
/// from the `"mapping"` stream of the run seed.
#[derive(Debug, Clone, PartialEq)]
struct MapKey {
    scenario: ScenarioConfig,
    lidar: LidarConfig,
    cell_size_bits: u64,
    seed: u64,
}

impl MapKey {
    fn of(config: &StackConfig) -> MapKey {
        MapKey {
            scenario: config.scenario.clone(),
            lidar: config.lidar.clone(),
            cell_size_bits: config.map_cell_size.to_bits(),
            seed: config.seed,
        }
    }
}

/// One slot per map: filled once, by whichever worker asks first.
type Slot = Arc<OnceLock<Arc<NdtGrid>>>;

/// The HD maps of one sweep or search, each built once and shared by
/// every drive that needs it.
///
/// Shareable across worker threads by reference. The lock is held only
/// to find or insert a key's slot; the build runs outside it, and the
/// slot's `OnceLock` makes concurrent workers asking for one key build
/// it exactly once while workers on other keys proceed. Meant to live
/// for one call: it keeps every map it built until dropped.
#[derive(Debug, Default)]
pub struct MapCache {
    slots: Mutex<Vec<(MapKey, Slot)>>,
    builds: AtomicUsize,
}

impl MapCache {
    /// Creates an empty cache.
    pub fn new() -> MapCache {
        MapCache::default()
    }

    /// The map of `config`, built on the first request for its key.
    /// `world` and `lidar` must be the ones `config` generates.
    fn get(&self, config: &StackConfig, world: &World, lidar: &LidarModel) -> Arc<NdtGrid> {
        let key = MapKey::of(config);
        let slot = {
            let mut slots = self.slots.lock().expect("map cache lock poisoned");
            match slots.iter().find(|(k, _)| *k == key) {
                Some((_, slot)) => Arc::clone(slot),
                None => {
                    let slot = Slot::default();
                    slots.push((key, Arc::clone(&slot)));
                    slot
                }
            }
        };
        Arc::clone(slot.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(fresh_map(config, world, lidar))
        }))
    }

    /// Number of maps this cache actually built.
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }
}

/// The map a session of `config` drives on: from `maps` when the caller
/// shares one, otherwise freshly built.
pub(crate) fn session_map(
    maps: Option<&MapCache>,
    config: &StackConfig,
    world: &World,
    lidar: &LidarModel,
) -> Arc<NdtGrid> {
    match maps {
        Some(cache) => cache.get(config, world, lidar),
        None => Arc::new(fresh_map(config, world, lidar)),
    }
}

fn fresh_map(config: &StackConfig, world: &World, lidar: &LidarModel) -> NdtGrid {
    let mut rng = RngStreams::new(config.seed).stream("mapping");
    build_map(world, lidar, config.map_cell_size, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::determinism::{run_hash, Fnv64};
    use crate::stack::{drive, run_drive, DriveRequest, RunConfig};
    use av_geom::Mat3;
    use av_vision::DetectorKind;

    /// The cell count and an FNV-64 over every cell's bits, cells sorted
    /// by those bits so the digest ignores the grid's bucket order.
    fn map_digest(config: &StackConfig) -> (usize, u64) {
        let world = World::generate(&config.scenario);
        let lidar = LidarModel::new(config.lidar.clone());
        let grid = fresh_map(config, &world, &lidar);
        let mut cells = cell_bits(&grid);
        cells.sort_unstable();
        let mut h = Fnv64::new();
        for bits in cells.iter().flatten() {
            h.write_u64(*bits);
        }
        (grid.len(), h.finish())
    }

    fn match_bits(result: &av_perception::MatchResult) -> [u64; 7] {
        let (t, q) = (result.pose.translation, result.pose.rotation);
        [
            t.x.to_bits(),
            t.y.to_bits(),
            q.z.to_bits(),
            q.w.to_bits(),
            result.fitness.to_bits(),
            result.iterations as u64,
            result.matched_points as u64 | (result.converged as u64) << 63,
        ]
    }

    /// One NDT workspace kept across paper sweeps, as the `ndt_matching`
    /// node keeps it: three far-apart sweeps fill most of its cache, then
    /// 36 consecutive 10 Hz sweeps outgrow it and start it over. Every
    /// alignment equals a fresh matcher's, bit for bit.
    #[test]
    fn kept_ndt_workspace_equals_fresh_alignments_on_paper_scans() {
        use av_geom::{Quat, Vec3};
        use av_perception::{NdtMatcher, NdtParams, NdtWorkspace};
        use av_pointcloud::VoxelGrid;

        let config = StackConfig::paper_default(DetectorKind::YoloV3);
        let world = World::generate(&config.scenario);
        let lidar = LidarModel::new(config.lidar.clone());
        let matcher = NdtMatcher::new(fresh_map(&config, &world, &lidar), NdtParams::default());
        let lift = Pose::new(Vec3::new(0.0, 0.0, lidar.config().mount_height), Quat::IDENTITY);
        let filter = VoxelGrid::new(config.voxel_leaf);
        let mut rng = RngStreams::new(7).stream("ndt-sequence");
        let offset = |truth: Pose| {
            Pose::planar(truth.translation.x + 0.3, truth.translation.y - 0.2, truth.yaw() + 0.01)
        };
        let mut workspace = NdtWorkspace::default();
        let mut clears = 0;
        let instants = [40.0, 60.0, 80.0].into_iter().chain((0..36).map(|k| 5.0 + 0.1 * k as f64));
        let mut guess = None;
        for (k, t) in instants.enumerate() {
            let scene = world.snapshot(t);
            let scan = filter.filter(&lidar.scan(&world, &scene, &mut rng)).transformed(&lift);
            // Consecutive sweeps start from the previous match.
            let from = match guess {
                Some(previous) if k > 3 => previous,
                _ => offset(scene.ego.pose),
            };
            let cached = workspace.cached_cells();
            let kept = matcher.align_with(&scan, &from, &mut workspace);
            let fresh = matcher.align(&scan, &from);
            assert_eq!(match_bits(&kept), match_bits(&fresh), "sweep {k} at {t} s");
            if workspace.cached_cells() < cached {
                clears += 1;
            }
            guess = Some(kept.pose);
        }
        assert_eq!(clears, 1, "the cache must outgrow its cap once");
    }

    /// The one-thread mapping run [`map_builder`] pipelines: scan, move
    /// into the map frame and fold, one sweep after the other.
    fn map_builder_reference(
        world: &World,
        lidar: &LidarModel,
        rng: &mut StreamRng,
    ) -> NdtMappingBuilder {
        let mut builder = NdtMappingBuilder::new(0.5);
        for (scene, pose) in mapping_scenes(world, lidar.config().mount_height) {
            builder.add_sweep(&lidar.scan(world, &scene, rng), &pose);
        }
        builder
    }

    /// Every bit of a grid cell, in the grid's own order.
    fn cell_bits(grid: &NdtGrid) -> Vec<Vec<u64>> {
        let mat_bits = |m: &Mat3| m.m.concat().into_iter().map(f64::to_bits);
        grid.cells()
            .map(|c| {
                let mut bits = vec![c.mean.x.to_bits(), c.mean.y.to_bits(), c.mean.z.to_bits()];
                bits.extend(mat_bits(&c.cov));
                bits.extend(mat_bits(&c.inv_cov));
                bits.push(c.count as u64);
                bits
            })
            .collect()
    }

    /// The threaded build equals the one-thread reference point for point
    /// and cell for cell, and leaves the mapping stream where the
    /// reference leaves it, on the smoke and the paper configuration.
    #[test]
    fn threaded_map_build_equals_one_thread_reference() {
        for config in [
            StackConfig::smoke_test(DetectorKind::YoloV3),
            StackConfig::paper_default(DetectorKind::YoloV3),
        ] {
            let world = World::generate(&config.scenario);
            let lidar = LidarModel::new(config.lidar.clone());
            let mut streams = [0, 1].map(|_| RngStreams::new(config.seed).stream("mapping"));
            let [threaded, reference] = &mut streams;
            let threaded_builder = map_builder(&world, &lidar, threaded);
            let reference_builder = map_builder_reference(&world, &lidar, reference);
            assert_eq!(threaded_builder.sweeps(), reference_builder.sweeps());
            assert_eq!(threaded_builder.map_points(), reference_builder.map_points());
            assert_eq!(threaded.next_u64(), reference.next_u64(), "mapping stream");
            let (map, grid) = threaded_builder.build(config.map_cell_size, 6);
            let (want_map, want_grid) = reference_builder.build(config.map_cell_size, 6);
            assert_eq!(map.len(), want_map.len());
            for (i, (p, q)) in map.iter().zip(want_map.iter()).enumerate() {
                let bits = |p: &av_pointcloud::Point| {
                    let v = p.position;
                    ([v.x.to_bits(), v.y.to_bits(), v.z.to_bits()], p.intensity.to_bits(), p.ring)
                };
                assert_eq!(bits(p), bits(q), "map point {i}");
            }
            assert_eq!(cell_bits(&grid), cell_bits(&want_grid), "grid cells");
        }
    }

    /// `build_map`'s output for the smoke and the paper configuration,
    /// bit for bit: every kernel under the map build (LiDAR scan, voxel
    /// compaction, NDT statistics) must leave these unmoved.
    #[test]
    fn maps_are_pinned() {
        let smoke = map_digest(&StackConfig::smoke_test(DetectorKind::YoloV3));
        let paper = map_digest(&StackConfig::paper_default(DetectorKind::YoloV3));
        assert_eq!(smoke, (1799, 0x21e9_d56d_becc_c748), "smoke map");
        assert_eq!(paper, (15214, 0x7d7a_6c66_e97e_4df6), "paper map");
    }

    #[test]
    fn cold_captures_and_resumes_share_one_map() {
        let maps = MapCache::new();
        let run = RunConfig::seconds(4.0);
        let yolo = StackConfig::smoke_test(DetectorKind::YoloV3);
        let request =
            DriveRequest { capture_at_s: Some(2.0), maps: Some(&maps), ..DriveRequest::default() };
        let (captured, checkpoint) = drive(&yolo, &run, request);
        let checkpoint = checkpoint.expect("captured at 2 s");
        let cold = run_hash(&run_drive(&yolo, &run));
        assert_eq!(run_hash(&captured), cold);

        let request =
            DriveRequest { from: Some(&checkpoint), maps: Some(&maps), ..DriveRequest::default() };
        assert_eq!(run_hash(&drive(&yolo, &run, request).0), cold);

        // A checkpoint resumes only its own configuration; another
        // detector drives cold, on the same map.
        let ssd = StackConfig::smoke_test(DetectorKind::Ssd300);
        let request = DriveRequest { maps: Some(&maps), ..DriveRequest::default() };
        assert_eq!(run_hash(&drive(&ssd, &run, request).0), run_hash(&run_drive(&ssd, &run)));
        assert_eq!(maps.builds(), 1);
    }
}
