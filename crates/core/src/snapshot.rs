//! Byte-deterministic encoding of stack payloads ([`Msg`]) for the
//! checkpoint/resume seam in [`crate::stack`].
//!
//! Components describe their checkpointed state through
//! [`av_des::Snap`]; payloads, which the bus only reaches through shared
//! references, implement [`Leaf`] on top of the leaf codecs their crates
//! define next to each type (geometry, lineage, objects). Encodings are
//! fixed-width little-endian (floats as IEEE-754 bit patterns), so a
//! checkpoint taken on one run is byte-identical to one taken on any
//! other run that reached the same state.

use av_des::{Leaf, SnapReader, SnapWriter};
use av_geom::{Pose, Twist, Vec3};
use av_perception::fusion::VisionDetection2d;
use av_perception::{DetectedObject, ObjectClass, OccupancyGrid};
use av_pointcloud::{Point, PointCloud};
use av_tracking::{PredictedObject, TrackedObject};
use av_world::{
    AgentKind, GnssFix, ImageFrame, ImuSample, LightState, RadarScan, RadarTarget, VisibleLight,
    VisibleObject,
};

use crate::msg::{LightObservation, Msg, PoseEstimate};

fn kind_code(kind: AgentKind) -> u8 {
    match kind {
        AgentKind::Car => 0,
        AgentKind::Pedestrian => 1,
        AgentKind::Cyclist => 2,
    }
}

fn kind_from_code(code: u8) -> AgentKind {
    match code {
        0 => AgentKind::Car,
        1 => AgentKind::Pedestrian,
        2 => AgentKind::Cyclist,
        other => panic!("checkpoint corrupt: unknown agent kind {other}"),
    }
}

fn light_code(state: LightState) -> u8 {
    match state {
        LightState::Green => 0,
        LightState::Yellow => 1,
        LightState::Red => 2,
    }
}

fn light_from_code(code: u8) -> LightState {
    match code {
        0 => LightState::Green,
        1 => LightState::Yellow,
        2 => LightState::Red,
        other => panic!("checkpoint corrupt: unknown light state {other}"),
    }
}

fn put_bbox(w: &mut SnapWriter, bbox: (f64, f64, f64, f64)) {
    w.put_f64(bbox.0);
    w.put_f64(bbox.1);
    w.put_f64(bbox.2);
    w.put_f64(bbox.3);
}

fn get_bbox(r: &mut SnapReader<'_>) -> (f64, f64, f64, f64) {
    (r.get_f64(), r.get_f64(), r.get_f64(), r.get_f64())
}

fn put_cloud(w: &mut SnapWriter, cloud: &PointCloud) {
    w.put_usize(cloud.points().len());
    for p in cloud.points() {
        p.position.put(w);
        w.put_u32(p.intensity.to_bits());
        w.put_u8(p.ring);
    }
}

fn get_cloud(r: &mut SnapReader<'_>) -> PointCloud {
    let n = r.get_usize();
    let mut cloud = PointCloud::with_capacity(n);
    for _ in 0..n {
        cloud.push(Point {
            position: Vec3::get(r),
            intensity: f32::from_bits(r.get_u32()),
            ring: r.get_u8(),
        });
    }
    cloud
}

/// Checkpoint encoding of one payload: a variant byte (declaration
/// order), then the variant's fields.
impl Leaf for Msg {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            Msg::PointCloud(cloud) => {
                w.put_u8(0);
                put_cloud(w, cloud);
            }
            Msg::Image(frame) => {
                w.put_u8(1);
                w.put_u32(frame.width);
                w.put_u32(frame.height);
                w.put_usize(frame.visible.len());
                for v in &frame.visible {
                    w.put_u32(v.id);
                    w.put_u8(kind_code(v.kind));
                    put_bbox(w, v.bbox);
                    w.put_f64(v.distance);
                    w.put_f64(v.occlusion);
                }
                w.put_usize(frame.lights.len());
                for l in &frame.lights {
                    w.put_u32(l.id);
                    put_bbox(w, l.bbox);
                    w.put_u8(light_code(l.state));
                    w.put_f64(l.distance);
                }
                w.put_f64(frame.clutter);
            }
            Msg::Gnss(fix) => {
                w.put_u8(2);
                fix.position.put(w);
                w.put_f64(fix.accuracy);
            }
            Msg::Imu(sample) => {
                w.put_u8(3);
                sample.linear_accel.put(w);
                w.put_f64(sample.yaw_rate);
                w.put_f64(sample.speed);
            }
            Msg::Pose(est) => {
                w.put_u8(4);
                est.pose.put(w);
                w.put_f64(est.fitness);
                w.put_u32(est.iterations);
            }
            Msg::VisionDetections(dets) => {
                w.put_u8(5);
                w.put_usize(dets.len());
                for d in dets {
                    put_bbox(w, d.bbox);
                    d.class.put(w);
                    w.put_f64(d.confidence);
                }
            }
            Msg::DetectedObjects(objs) => {
                w.put_u8(6);
                objs.put(w);
            }
            Msg::TrackedObjects(objs) => {
                w.put_u8(7);
                objs.put(w);
            }
            Msg::PredictedObjects(objs) => {
                w.put_u8(8);
                w.put_usize(objs.len());
                for obj in objs {
                    obj.object.put(w);
                    obj.path.put(w);
                }
            }
            Msg::Costmap(grid) => {
                w.put_u8(9);
                w.put_f64(grid.resolution());
                w.put_f64(grid.half_size());
                w.put_usize(grid.data().len());
                for &cell in grid.data() {
                    w.put_u8(cell);
                }
            }
            Msg::Twist(twist) => {
                w.put_u8(10);
                twist.put(w);
            }
            Msg::Path(path) => {
                w.put_u8(11);
                path.put(w);
            }
            Msg::LightColors(lights) => {
                w.put_u8(12);
                w.put_usize(lights.len());
                for l in lights {
                    w.put_u32(l.id);
                    w.put_u8(light_code(l.state));
                    w.put_f64(l.confidence);
                    w.put_f64(l.distance);
                }
            }
            Msg::Radar(scan) => {
                w.put_u8(13);
                w.put_usize(scan.targets.len());
                for t in &scan.targets {
                    w.put_f64(t.range);
                    w.put_f64(t.bearing);
                    w.put_f64(t.range_rate);
                    w.put_f64(t.rcs);
                }
            }
        }
    }

    fn get(r: &mut SnapReader<'_>) -> Msg {
        match r.get_u8() {
            0 => Msg::PointCloud(get_cloud(r)),
            1 => {
                let width = r.get_u32();
                let height = r.get_u32();
                let visible = (0..r.get_usize())
                    .map(|_| VisibleObject {
                        id: r.get_u32(),
                        kind: kind_from_code(r.get_u8()),
                        bbox: get_bbox(r),
                        distance: r.get_f64(),
                        occlusion: r.get_f64(),
                    })
                    .collect();
                let lights = (0..r.get_usize())
                    .map(|_| VisibleLight {
                        id: r.get_u32(),
                        bbox: get_bbox(r),
                        state: light_from_code(r.get_u8()),
                        distance: r.get_f64(),
                    })
                    .collect();
                Msg::Image(ImageFrame { width, height, visible, lights, clutter: r.get_f64() })
            }
            2 => Msg::Gnss(GnssFix { position: Vec3::get(r), accuracy: r.get_f64() }),
            3 => Msg::Imu(ImuSample {
                linear_accel: Vec3::get(r),
                yaw_rate: r.get_f64(),
                speed: r.get_f64(),
            }),
            4 => Msg::Pose(PoseEstimate {
                pose: Pose::get(r),
                fitness: r.get_f64(),
                iterations: r.get_u32(),
            }),
            5 => Msg::VisionDetections(
                (0..r.get_usize())
                    .map(|_| VisionDetection2d {
                        bbox: get_bbox(r),
                        class: ObjectClass::get(r),
                        confidence: r.get_f64(),
                    })
                    .collect(),
            ),
            6 => Msg::DetectedObjects(Vec::<DetectedObject>::get(r)),
            7 => Msg::TrackedObjects(Vec::<TrackedObject>::get(r)),
            8 => Msg::PredictedObjects(
                (0..r.get_usize())
                    .map(|_| PredictedObject { object: TrackedObject::get(r), path: Vec::get(r) })
                    .collect(),
            ),
            9 => {
                let resolution = r.get_f64();
                let half_size = r.get_f64();
                let data = (0..r.get_usize()).map(|_| r.get_u8()).collect();
                Msg::Costmap(OccupancyGrid::from_parts(resolution, half_size, data))
            }
            10 => Msg::Twist(Twist::get(r)),
            11 => Msg::Path(Vec::get(r)),
            12 => Msg::LightColors(
                (0..r.get_usize())
                    .map(|_| LightObservation {
                        id: r.get_u32(),
                        state: light_from_code(r.get_u8()),
                        confidence: r.get_f64(),
                        distance: r.get_f64(),
                    })
                    .collect(),
            ),
            13 => Msg::Radar(RadarScan {
                targets: (0..r.get_usize())
                    .map(|_| RadarTarget {
                        range: r.get_f64(),
                        bearing: r.get_f64(),
                        range_rate: r.get_f64(),
                        rcs: r.get_f64(),
                    })
                    .collect(),
            }),
            other => panic!("checkpoint corrupt: unknown message tag {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_des::SimTime;
    use av_ros::{Lineage, Source};

    fn round_trip(msg: &Msg) -> Msg {
        let mut w = SnapWriter::new();
        msg.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let out = Msg::get(&mut r);
        assert!(r.is_exhausted(), "trailing bytes after {}", msg.kind_name());
        out
    }

    #[test]
    fn cloud_round_trips() {
        let mut cloud = PointCloud::with_capacity(2);
        cloud.push(Point { position: Vec3::new(1.0, -2.0, 0.5), intensity: 0.25, ring: 7 });
        cloud.push(Point { position: Vec3::new(-4.0, 8.0, 1.5), intensity: 0.75, ring: 31 });
        match round_trip(&Msg::PointCloud(cloud.clone())) {
            Msg::PointCloud(out) => assert_eq!(out.points(), cloud.points()),
            other => panic!("wrong variant {}", other.kind_name()),
        }
    }

    #[test]
    fn image_round_trips() {
        let frame = ImageFrame {
            width: 640,
            height: 480,
            visible: vec![VisibleObject {
                id: 3,
                kind: AgentKind::Cyclist,
                bbox: (1.0, 2.0, 3.0, 4.0),
                distance: 12.5,
                occlusion: 0.25,
            }],
            lights: vec![VisibleLight {
                id: 9,
                bbox: (5.0, 6.0, 7.0, 8.0),
                state: LightState::Yellow,
                distance: 40.0,
            }],
            clutter: 0.1,
        };
        match round_trip(&Msg::Image(frame.clone())) {
            Msg::Image(out) => assert_eq!(out, frame),
            other => panic!("wrong variant {}", other.kind_name()),
        }
    }

    #[test]
    fn costmap_round_trips() {
        let grid = av_perception::CostmapGenerator::new(Default::default())
            .from_points(&PointCloud::from_positions([Vec3::new(5.0, 2.0, 0.0)]));
        match round_trip(&Msg::Costmap(grid.clone())) {
            Msg::Costmap(out) => assert_eq!(out, grid),
            other => panic!("wrong variant {}", other.kind_name()),
        }
    }

    #[test]
    fn tracked_and_predicted_round_trip() {
        let tracked = TrackedObject {
            id: 42,
            position: Vec3::new(1.0, 2.0, 0.0),
            velocity: Vec3::new(-0.5, 0.25, 0.0),
            yaw: 0.3,
            yaw_rate: -0.05,
            half_extents: Vec3::new(2.25, 0.9, 0.75),
            class: ObjectClass::Car,
            age: 17,
            model_probs: [0.2, 0.5, 0.3],
        };
        let predicted = PredictedObject {
            object: tracked.clone(),
            path: vec![Vec3::new(2.0, 2.0, 0.0), Vec3::new(3.0, 2.1, 0.0)],
        };
        match round_trip(&Msg::PredictedObjects(vec![predicted.clone()])) {
            Msg::PredictedObjects(out) => assert_eq!(out, vec![predicted]),
            other => panic!("wrong variant {}", other.kind_name()),
        }
    }

    #[test]
    fn lineage_round_trips_in_order() {
        let mut lineage = Lineage::origin(Source::Lidar, SimTime::from_millis(100));
        lineage.merge(&Lineage::origin(Source::Camera, SimTime::from_millis(90)));
        let mut w = SnapWriter::new();
        lineage.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let out = Lineage::get(&mut r);
        assert!(r.is_exhausted());
        let a: Vec<_> = lineage.iter().collect();
        let b: Vec<_> = out.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn small_payloads_round_trip() {
        let msgs = vec![
            Msg::Gnss(GnssFix { position: Vec3::new(10.0, 20.0, 0.0), accuracy: 0.8 }),
            Msg::Imu(ImuSample {
                linear_accel: Vec3::new(0.1, -0.2, 9.8),
                yaw_rate: 0.02,
                speed: 8.5,
            }),
            Msg::Twist(Twist::planar(5.0, 0.1)),
            Msg::Path(vec![Vec3::new(1.0, 0.0, 0.0)]),
            Msg::LightColors(vec![LightObservation {
                id: 2,
                state: LightState::Red,
                confidence: 0.9,
                distance: 25.0,
            }]),
            Msg::Radar(RadarScan {
                targets: vec![RadarTarget {
                    range: 30.0,
                    bearing: 0.1,
                    range_rate: -2.0,
                    rcs: 5.0,
                }],
            }),
        ];
        for msg in &msgs {
            let out = round_trip(msg);
            assert_eq!(out.kind_name(), msg.kind_name());
        }
    }
}
