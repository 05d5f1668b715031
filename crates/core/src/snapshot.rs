//! Byte-deterministic encoding of stack payloads ([`Msg`]) for the
//! checkpoint/resume seam in [`crate::stack`].
//!
//! Components describe their checkpointed state through
//! [`av_des::Snap`]; payloads, which the bus only reaches through shared
//! references, implement [`Leaf`] on top of the leaf codecs their crates
//! define next to each type (geometry, lineage, sensor samples,
//! objects), the same codecs the sensor bag records with. Encodings are
//! fixed-width little-endian (floats as IEEE-754 bit patterns), so a
//! checkpoint taken on one run is byte-identical to one taken on any
//! other run that reached the same state.

use av_des::{Leaf, SnapError, SnapReader, SnapWriter};

use crate::msg::Msg;

/// Checkpoint encoding of one payload: a variant byte (declaration
/// order), then the payload's own codec.
impl Leaf for Msg {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            Msg::PointCloud(cloud) => w.put_variant(0, cloud),
            Msg::Image(frame) => w.put_variant(1, frame),
            Msg::Gnss(fix) => w.put_variant(2, fix),
            Msg::Imu(sample) => w.put_variant(3, sample),
            Msg::Pose(est) => w.put_variant(4, est),
            Msg::VisionDetections(dets) => w.put_variant(5, dets),
            Msg::DetectedObjects(objs) => w.put_variant(6, objs),
            Msg::TrackedObjects(objs) => w.put_variant(7, objs),
            Msg::PredictedObjects(objs) => w.put_variant(8, objs),
            Msg::Costmap(grid) => w.put_variant(9, grid),
            Msg::Twist(twist) => w.put_variant(10, twist),
            Msg::Path(path) => w.put_variant(11, path),
            Msg::LightColors(lights) => w.put_variant(12, lights),
            Msg::Radar(scan) => w.put_variant(13, scan),
        }
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Msg, SnapError> {
        Ok(match r.get_u8()? {
            0 => Msg::PointCloud(Leaf::get(r)?),
            1 => Msg::Image(Leaf::get(r)?),
            2 => Msg::Gnss(Leaf::get(r)?),
            3 => Msg::Imu(Leaf::get(r)?),
            4 => Msg::Pose(Leaf::get(r)?),
            5 => Msg::VisionDetections(Leaf::get(r)?),
            6 => Msg::DetectedObjects(Leaf::get(r)?),
            7 => Msg::TrackedObjects(Leaf::get(r)?),
            8 => Msg::PredictedObjects(Leaf::get(r)?),
            9 => Msg::Costmap(Leaf::get(r)?),
            10 => Msg::Twist(Leaf::get(r)?),
            11 => Msg::Path(Leaf::get(r)?),
            12 => Msg::LightColors(Leaf::get(r)?),
            13 => Msg::Radar(Leaf::get(r)?),
            code => return Err(SnapError::UnknownCode { what: "message tag", code: code.into() }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{LightObservation, PoseEstimate};
    use av_des::{RngStreams, SimTime};
    use av_geom::{Pose, Twist, Vec3};
    use av_perception::fusion::VisionDetection2d;
    use av_perception::{DetectedObject, ObjectClass};
    use av_pointcloud::{Point, PointCloud};
    use av_ros::{Lineage, Source};
    use av_tracking::{PredictedObject, TrackedObject};
    use av_world::{
        AgentKind, GnssFix, ImageFrame, ImuSample, LightState, RadarScan, RadarTarget,
        VisibleLight, VisibleObject,
    };

    fn round_trip(msg: &Msg) -> Msg {
        let mut w = SnapWriter::new();
        msg.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let out = Msg::get(&mut r).unwrap();
        assert!(r.is_exhausted(), "trailing bytes after {}", msg.kind_name());
        out
    }

    /// One deterministic payload of every variant, in declaration order.
    fn one_of_each() -> Vec<Msg> {
        let mut cloud = PointCloud::with_capacity(2);
        cloud.push(Point { position: Vec3::new(1.0, -2.0, 0.5), intensity: 0.25, ring: 7 });
        cloud.push(Point { position: Vec3::new(-4.0, 8.0, 1.5), intensity: 0.75, ring: 31 });
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
        vec![
            Msg::PointCloud(cloud),
            Msg::Image(ImageFrame {
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
            }),
            Msg::Gnss(GnssFix { position: Vec3::new(10.0, 20.0, 0.0), accuracy: 0.8 }),
            Msg::Imu(ImuSample {
                linear_accel: Vec3::new(0.1, -0.2, 9.8),
                yaw_rate: 0.02,
                speed: 8.5,
            }),
            Msg::Pose(PoseEstimate {
                pose: Pose::new(Vec3::new(3.0, -1.0, 0.2), av_geom::Quat::from_yaw(0.7)),
                fitness: 0.125,
                iterations: 4,
            }),
            Msg::VisionDetections(vec![VisionDetection2d {
                bbox: (10.0, 20.0, 30.0, 40.0),
                class: ObjectClass::Pedestrian,
                confidence: 0.875,
            }]),
            Msg::DetectedObjects(vec![DetectedObject {
                position: Vec3::new(6.0, 1.0, 0.5),
                half_extents: Vec3::new(0.4, 0.4, 0.9),
                yaw: -0.25,
                class: ObjectClass::Cyclist,
                confidence: 0.5,
                point_count: 33,
            }]),
            Msg::TrackedObjects(vec![tracked.clone()]),
            Msg::PredictedObjects(vec![PredictedObject {
                object: tracked,
                path: vec![Vec3::new(2.0, 2.0, 0.0), Vec3::new(3.0, 2.1, 0.0)],
            }]),
            Msg::Costmap(
                av_perception::CostmapGenerator::new(Default::default())
                    .from_points(&PointCloud::from_positions([Vec3::new(5.0, 2.0, 0.0)])),
            ),
            Msg::Twist(Twist::planar(5.0, 0.1)),
            Msg::Path(vec![Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 0.5, 0.0)]),
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
        ]
    }

    /// The checkpoint encoding of every payload variant, byte for byte:
    /// fnv64 and length of `Leaf::put` for [`one_of_each`]. These
    /// constants are the contract; a codec change that moves one is a
    /// checkpoint format change.
    #[test]
    fn every_variant_encoding_is_pinned() {
        const PINS: [(&str, u64, usize); 14] = [
            ("PointCloud", 0xaddd00e805140d31, 67),
            ("Image", 0x320607ebe429a838, 131),
            ("Gnss", 0xb93244c7ca473544, 33),
            ("Imu", 0x4619f13555f46dfb, 41),
            ("Pose", 0x84bed595b65df6cd, 69),
            ("VisionDetections", 0x4f23aa96f003053b, 50),
            ("DetectedObjects", 0x6511db8370da5a0d, 78),
            ("TrackedObjects", 0x6cc57aef091c85df, 134),
            ("PredictedObjects", 0x739445b6accfbe67, 190),
            ("Costmap", 0x2f6c601871ea50e0, 102425),
            ("Twist", 0x2b84027203893290, 49),
            ("Path", 0x31e0b6ff609fb6f8, 57),
            ("LightColors", 0xa0db8f27d802e0c3, 30),
            ("Radar", 0x29c73065343d74c2, 41),
        ];
        let got: Vec<(&str, u64, usize)> = one_of_each()
            .iter()
            .map(|msg| {
                let mut w = SnapWriter::new();
                msg.put(&mut w);
                let bytes = w.into_bytes();
                (msg.kind_name(), crate::determinism::fnv64(&bytes), bytes.len())
            })
            .collect();
        assert_eq!(got, PINS);
    }

    /// Random bytes, every truncation of every variant's encoding and a
    /// length prefix beyond the bytes left all decode to an error, never
    /// a panic.
    #[test]
    fn decoder_rejects_garbage_and_truncation() {
        let mut rng = RngStreams::new(0x5eed).stream("msg-garbage");
        for _ in 0..512 {
            let soup: Vec<u8> = (0..rng.uniform_usize(200)).map(|_| rng.next_u64() as u8).collect();
            let _ = Msg::get(&mut SnapReader::new(&soup));
        }
        for msg in one_of_each() {
            let mut w = SnapWriter::new();
            msg.put(&mut w);
            let bytes = w.into_bytes();
            for cut in 0..bytes.len() {
                let r = Msg::get(&mut SnapReader::new(&bytes[..cut]));
                assert!(r.is_err(), "{} cut at {cut} must error", msg.kind_name());
            }
        }
        let mut w = SnapWriter::new();
        w.put_u8(11); // a path ...
        w.put_usize(1 << 40); // ... of 2^40 waypoints
        w.put_f64(1.0);
        let err = SnapError::Truncated { need: 1 << 40, offset: 9, have: 8 };
        assert_eq!(Msg::get(&mut SnapReader::new(&w.into_bytes())).unwrap_err(), err);
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
        let out = Lineage::get(&mut r).unwrap();
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
