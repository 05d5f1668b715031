//! Wall-clock benchmarks of the real algorithm kernels — the substrate's
//! own performance (wall-clock), complementing the modeled latencies.

use av_bench::microbench::Bench;
use av_des::RngStreams;
use av_geom::{Pose, Vec3};
use av_perception::{
    ClusterParams, DetectedObject, EuclideanCluster, NdtMatcher, NdtParams, RayGroundFilter,
    RayGroundParams,
};
use av_pointcloud::{KdTree, NdtGrid, PointCloud, VoxelGrid};
use av_tracking::{ImmUkfPdaTracker, TrackerParams};
use av_vision::{nms, rank_candidates, ScoredBox};
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
    bench_tracker(&mut c);
    bench_nms(&mut c);
}
