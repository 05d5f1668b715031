//! Wall-clock benchmarks of the real algorithm kernels — the substrate's
//! own performance (wall-clock), complementing the modeled latencies.
//! Each run also writes the rows to `results/kernels/BENCH_kernels.json`.

use av_bench::microbench::Bench;
use av_core::map::{map_builder, mapping_scenes};
use av_core::stack::{build_map, StackConfig};
use av_des::RngStreams;
use av_geom::{Pose, Vec3};
use av_perception::costmap::ObjectFootprint;
use av_perception::{
    ClusterParams, CostmapGenerator, CostmapParams, DetectedObject, EuclideanCluster, NdtMatcher,
    NdtParams, NdtWorkspace, RayGroundFilter, RayGroundParams,
};
use av_pointcloud::{KdTree, NdtGrid, PointCloud, VoxelGrid, VoxelMap};
use av_tracking::{ImmUkfPdaTracker, TrackerParams};
use av_vision::{nms, rank_candidates, DetectorKind, ScoredBox};
use av_world::{LidarConfig, LidarModel, ScenarioConfig, World};
use std::hint::black_box;

fn realistic_sweep() -> PointCloud {
    let world = World::generate(&ScenarioConfig::urban_drive());
    let lidar = LidarModel::new(LidarConfig::default());
    let mut rng = RngStreams::new(7).stream("bench-lidar");
    lidar.scan(&world, &world.snapshot(30.0), &mut rng)
}

fn bench_lidar(c: &mut Bench) {
    // The default 16×360 sensor over the paper's urban world, with traffic.
    let world = World::generate(&ScenarioConfig::urban_drive());
    let lidar = LidarModel::new(LidarConfig::default());
    let scene = world.snapshot(30.0);
    let mut rng = RngStreams::new(7).stream("bench-lidar");
    c.bench_function("lidar/scan_urban", |b| {
        b.iter(|| black_box(lidar.scan(&world, black_box(&scene), &mut rng)))
    });
}

fn bench_voxel_filter(c: &mut Bench) {
    let sweep = realistic_sweep();
    let filter = VoxelGrid::new(1.0);
    c.bench_function("voxel_grid_filter/sweep", |b| {
        b.iter(|| black_box(filter.filter(black_box(&sweep))))
    });
    c.bench_function("voxel_grid_filter/sweep_reference", |b| {
        b.iter(|| black_box(filter.filter_reference(black_box(&sweep))))
    });
}

fn bench_kdtree(c: &mut Bench) {
    let sweep = realistic_sweep();
    let positions: Vec<Vec3> = sweep.positions().collect();
    c.bench_function("kdtree/build", |b| {
        b.iter(|| black_box(KdTree::build(black_box(&positions))))
    });
    let tree = KdTree::build(&positions);
    c.bench_function("kdtree/radius_search", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            tree.radius_search_into(black_box(Vec3::new(5.0, 2.0, -1.0)), 0.75, &mut buf);
            black_box(buf.len())
        })
    });
}

fn bench_ground_filter(c: &mut Bench) {
    let sweep = realistic_sweep();
    let filter = RayGroundFilter::new(RayGroundParams::default());
    c.bench_function("ray_ground_filter/sweep", |b| {
        b.iter(|| black_box(filter.split(black_box(&sweep))))
    });
}

fn bench_clustering(c: &mut Bench) {
    let sweep = realistic_sweep();
    let split = RayGroundFilter::new(RayGroundParams::default()).split(&sweep);
    let clusterer = EuclideanCluster::new(ClusterParams::default());
    c.bench_function("euclidean_cluster/sweep", |b| {
        b.iter(|| black_box(clusterer.cluster(black_box(&split.no_ground))))
    });
    c.bench_function("euclidean_cluster/sweep_reference", |b| {
        b.iter(|| black_box(clusterer.cluster_reference(black_box(&split.no_ground))))
    });
}

fn bench_ndt(c: &mut Bench) {
    let world = World::generate(&ScenarioConfig::urban_drive());
    let lidar = LidarModel::new(LidarConfig::default());
    let mut rng = RngStreams::new(7).stream("bench-ndt");
    // Small map patch around the start.
    let mut map = PointCloud::new();
    for i in 0..20 {
        let scene = world.snapshot(i as f64);
        let mut pose = scene.ego.pose;
        pose.translation.z = lidar.config().mount_height;
        map.append(&lidar.scan(&world, &scene, &mut rng).transformed(&pose));
    }
    let map = VoxelGrid::new(0.5).filter(&map);
    let grid = NdtGrid::build(&map, 2.0, 6);
    let matcher = NdtMatcher::new(grid, NdtParams::default());

    let scene = world.snapshot(5.0);
    let sweep = lidar.scan(&world, &scene, &mut rng);
    let filtered = VoxelGrid::new(1.0).filter(&sweep);
    let lifted = filtered.transformed(&Pose::new(
        Vec3::new(0.0, 0.0, lidar.config().mount_height),
        Default::default(),
    ));
    let mut guess = scene.ego.pose;
    guess.translation.z = 0.0;
    c.bench_function("ndt_matching/align", |b| {
        b.iter(|| black_box(matcher.align(black_box(&lifted), black_box(&guess))))
    });
}

fn bench_ndt_paper(c: &mut Bench) {
    // The paper map as a drive builds it, and one traffic-laden paper
    // sweep, voxel-filtered and lifted as `ndt_matching` receives it,
    // aligned from a guess off the ground truth by (0.3 m, −0.2 m, 0.01).
    let config = StackConfig::paper_default(DetectorKind::YoloV3);
    let world = World::generate(&config.scenario);
    let lidar = LidarModel::new(config.lidar.clone());
    let mut rng = RngStreams::new(config.seed).stream("mapping");
    let (map, grid) = map_builder(&world, &lidar, &mut rng).build(config.map_cell_size, 6);
    c.bench_function("ndt_grid/build_paper", |b| {
        b.iter(|| black_box(NdtGrid::build(black_box(&map), config.map_cell_size, 6)))
    });
    drop(map);

    let matcher = NdtMatcher::new(grid, NdtParams::default());
    let scene = world.snapshot(10.0);
    let sweep = lidar.scan(&world, &scene, &mut RngStreams::new(7).stream("bench-ndt-paper"));
    let lifted = VoxelGrid::new(config.voxel_leaf).filter(&sweep).transformed(&Pose::new(
        Vec3::new(0.0, 0.0, lidar.config().mount_height),
        Default::default(),
    ));
    let truth = scene.ego.pose;
    let guess =
        Pose::planar(truth.translation.x + 0.3, truth.translation.y - 0.2, truth.yaw() + 0.01);
    let aligned = matcher.align(&lifted, &guess);
    println!(
        "ndt_matching/align_paper: {} points, {} matched, {} iterations, {:.3} m off the truth",
        lifted.len(),
        aligned.matched_points,
        aligned.iterations,
        aligned.pose.translation.truncate().distance(truth.translation.truncate()),
    );
    c.bench_function("ndt_matching/align_paper", |b| {
        b.iter(|| black_box(matcher.align(black_box(&lifted), black_box(&guess))))
    });

    // 20 consecutive 10 Hz paper sweeps from t = 10 s, each aligned from
    // the previous result through one workspace, as the node does (the
    // first from the offset guess above).
    let mut rng = RngStreams::new(7).stream("bench-ndt-sequence");
    let sequence: Vec<PointCloud> = (0..20)
        .map(|k| {
            let scene = world.snapshot(10.0 + 0.1 * k as f64);
            let sweep = lidar.scan(&world, &scene, &mut rng);
            VoxelGrid::new(config.voxel_leaf).filter(&sweep).transformed(&Pose::new(
                Vec3::new(0.0, 0.0, lidar.config().mount_height),
                Default::default(),
            ))
        })
        .collect();
    c.bench_function("ndt_matching/align_paper_sequence", |b| {
        b.iter(|| {
            let mut workspace = NdtWorkspace::default();
            let mut pose = guess;
            for scan in &sequence {
                pose = matcher.align_with(black_box(scan), &pose, &mut workspace).pose;
            }
            black_box(pose)
        })
    });
}

fn bench_exp_pass(c: &mut Bench) {
    // 1 M NDT-like exponents `-0.5 · d·B·d` in [-1100, 0], half of them
    // above -17, replaced by their `exp` and summed as `score` does.
    let mut rng = RngStreams::new(11).stream("bench-exp");
    let args: Vec<f64> = (0..1_000_000).map(|_| -1100.0 * rng.next_f64().powi(6)).collect();
    println!("ndt/exp_pass: inline exp selected: {}", av_des::inline_exp_selected());
    c.bench_function("ndt/exp_pass", |b| {
        let mut terms = args.clone();
        b.iter(|| {
            terms.copy_from_slice(&args);
            black_box(av_des::exp_sub_each(&mut terms, 0.0))
        })
    });
    c.bench_function("ndt/exp_pass_libm", |b| {
        let mut terms = args.clone();
        b.iter(|| {
            terms.copy_from_slice(&args);
            let mut f = 0.0;
            for t in terms.iter_mut() {
                *t = t.exp();
                f -= *t;
            }
            black_box(f)
        })
    });
}

fn bench_mapping(c: &mut Bench) {
    // The whole ndt_mapping step (scans, compaction, NDT statistics) on
    // the smoke and on the paper world, as every cold session runs it.
    for (name, config) in [
        ("mapping/build_map_smoke", StackConfig::smoke_test(DetectorKind::YoloV3)),
        ("mapping/build_map_paper", StackConfig::paper_default(DetectorKind::YoloV3)),
    ] {
        let world = World::generate(&config.scenario);
        let lidar = LidarModel::new(config.lidar.clone());
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut rng = RngStreams::new(config.seed).stream("mapping");
                black_box(build_map(black_box(&world), &lidar, config.map_cell_size, &mut rng))
            })
        });
    }
}

fn bench_map_phases(c: &mut Bench) {
    // The two phases of the paper map build apart: its 121 traffic-free
    // scans, then folding their map-frame points into the 0.5 m voxel
    // map eight sweeps at a time and finishing it, as `build_map` does.
    let config = StackConfig::paper_default(DetectorKind::YoloV3);
    let world = World::generate(&config.scenario);
    let lidar = LidarModel::new(config.lidar.clone());
    let scenes: Vec<_> = mapping_scenes(&world, lidar.config().mount_height).collect();
    c.bench_function("lidar/scan_paper_map", |b| {
        b.iter(|| {
            let mut rng = RngStreams::new(config.seed).stream("mapping");
            for (scene, _) in &scenes {
                black_box(lidar.scan(&world, black_box(scene), &mut rng));
            }
        })
    });

    let mut rng = RngStreams::new(config.seed).stream("mapping");
    let sweeps: Vec<PointCloud> = scenes
        .iter()
        .map(|(scene, pose)| lidar.scan(&world, scene, &mut rng).transformed(pose))
        .collect();
    let batches: Vec<PointCloud> = sweeps
        .chunks(8)
        .map(|chunk| {
            let mut batch = PointCloud::new();
            chunk.iter().for_each(|sweep| batch.append(sweep));
            batch
        })
        .collect();
    // `build_map` folds every eighth sweep; a partial last batch (or
    // none) goes to `finish`.
    let (folds, last) = match sweeps.len() % 8 {
        0 => (&batches[..], PointCloud::new()),
        _ => (&batches[..batches.len() - 1], batches[batches.len() - 1].clone()),
    };
    c.bench_function("voxel_map/fold_paper", |b| {
        b.iter(|| {
            let mut map = VoxelMap::new(VoxelGrid::new(0.5));
            for batch in folds {
                map.fold(black_box(batch));
            }
            black_box(map.finish(black_box(&last)))
        })
    });
}

fn bench_costmap(c: &mut Bench) {
    // 22 car-sized objects, each with a 3 s path at 0.5 s steps: about
    // one predicted-objects frame of a paper drive.
    let objects: Vec<ObjectFootprint> = (0..22)
        .map(|i| {
            let position = Vec3::new(-30.0 + 3.0 * i as f64, 4.0 * (i % 5) as f64 - 8.0, 0.8);
            let yaw = 0.3 * i as f64;
            let velocity = Vec3::new(8.0 * yaw.cos(), 8.0 * yaw.sin(), 0.0);
            ObjectFootprint {
                position,
                half_extents: Vec3::new(2.25, 0.9, 0.75),
                yaw,
                path: (1..=6).map(|k| position + velocity * (0.5 * k as f64)).collect(),
            }
        })
        .collect();
    let generator = CostmapGenerator::new(CostmapParams::default());
    c.bench_function("costmap/from_objects", |b| {
        b.iter(|| black_box(generator.from_objects(black_box(&objects))))
    });
}

fn bench_tracker(c: &mut Bench) {
    // 22 objects in straight-line motion: about the live track count per
    // fused frame of a paper drive. Each sample steps one new frame.
    let frame = |k: usize| -> Vec<DetectedObject> {
        let t = k as f64 * 0.1;
        (0..22)
            .map(|i| {
                let position =
                    Vec3::new(8.0 * i as f64 + 3.0 * t, 4.0 * (i % 5) as f64 + 0.5 * t, 0.8);
                DetectedObject::from_cluster(position, Vec3::new(2.0, 0.9, 0.8), 40)
            })
            .collect()
    };
    let mut tracker = ImmUkfPdaTracker::new(TrackerParams::default());
    for k in 0..10 {
        tracker.step(&frame(k), 0.1);
    }
    let mut k = 10;
    c.bench_function("tracking/imm_ukf_pda_step", |b| {
        let detections = frame(k);
        k += 1;
        b.iter(|| black_box(tracker.step(black_box(&detections), 0.1)))
    });
}

fn bench_nms(c: &mut Bench) {
    // SSD512-scale candidate ranking: the hot CPU loop of §IV-C.
    let mut rng = RngStreams::new(9).stream("bench-nms");
    let candidates: Vec<ScoredBox> = (0..24_564)
        .map(|_| ScoredBox {
            bbox: (
                rng.uniform(0.0, 1200.0),
                rng.uniform(0.0, 900.0),
                rng.uniform(8.0, 120.0),
                rng.uniform(8.0, 160.0),
            ),
            score: rng.next_f64() as f32,
            class: av_perception::ObjectClass::Car,
        })
        .collect();
    c.bench_function("vision/rank_24564_candidates", |b| {
        b.iter(|| {
            let mut work = candidates.clone();
            rank_candidates(black_box(&mut work));
            black_box(work.len())
        })
    });
    c.bench_function("vision/nms_24564_candidates", |b| {
        b.iter(|| black_box(nms(black_box(&candidates), 0.3, 0.45).len()))
    });
}

fn main() {
    let mut c = Bench::new().sample_size(20);
    bench_lidar(&mut c);
    bench_voxel_filter(&mut c);
    bench_kdtree(&mut c);
    bench_ground_filter(&mut c);
    bench_clustering(&mut c);
    bench_ndt(&mut c);
    bench_ndt_paper(&mut c);
    bench_exp_pass(&mut c);
    bench_mapping(&mut c);
    bench_map_phases(&mut c);
    bench_costmap(&mut c);
    bench_tracker(&mut c);
    bench_nms(&mut c);
    // The committed kernel ledger: one row per kernel, with quartiles.
    let ledger = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/kernels/BENCH_kernels.json");
    av_bench::cli::write(ledger, c.ledger_json("kernels"));
}
