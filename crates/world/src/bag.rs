//! Sensor-stream record/replay — the ROSBAG stand-in.
//!
//! The paper's methodology hinges on replaying the *same* recorded drive
//! through every experiment. [`Bag`] gives the simulation the same
//! property: generate the sensor streams once, serialize them, and replay
//! byte-identical input under every detector configuration.
//!
//! The `AVBAG03` format is the magic line, then the entries as one
//! [`Leaf`] sequence (a `u64` count, then per entry the time, a sample
//! tag and the sample). Each sample is written by the codec its sensor
//! type shares with checkpoint payloads, so a recorded frame and a
//! checkpointed one are the same bytes, and decoding goes through the
//! same fallible reader.

use crate::{GnssFix, ImageFrame, ImuSample, RadarScan};
use av_des::{Leaf, SimTime, SnapError, SnapReader, SnapWriter};
use av_pointcloud::PointCloud;
use std::error::Error;
use std::fmt;

const MAGIC: &[u8; 8] = b"AVBAG03\n";

/// One recorded sensor sample.
#[derive(Debug, Clone, PartialEq)]
pub enum SensorSample {
    /// A LiDAR sweep (sensor frame).
    Lidar(PointCloud),
    /// A camera frame.
    Camera(ImageFrame),
    /// A GNSS fix.
    Gnss(GnssFix),
    /// An inertial measurement.
    Imu(ImuSample),
    /// A radar scan (extension sensor).
    Radar(RadarScan),
}

/// Bag encoding: a sample tag, then the sample's own codec.
impl Leaf for SensorSample {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            SensorSample::Lidar(cloud) => w.put_variant(0, cloud),
            SensorSample::Camera(frame) => w.put_variant(1, frame),
            SensorSample::Gnss(fix) => w.put_variant(2, fix),
            SensorSample::Imu(imu) => w.put_variant(3, imu),
            SensorSample::Radar(scan) => w.put_variant(4, scan),
        }
    }
    fn get(r: &mut SnapReader<'_>) -> Result<SensorSample, SnapError> {
        Ok(match r.get_u8()? {
            0 => SensorSample::Lidar(PointCloud::get(r)?),
            1 => SensorSample::Camera(ImageFrame::get(r)?),
            2 => SensorSample::Gnss(GnssFix::get(r)?),
            3 => SensorSample::Imu(ImuSample::get(r)?),
            4 => SensorSample::Radar(RadarScan::get(r)?),
            code => return Err(SnapError::UnknownCode { what: "sample tag", code: code.into() }),
        })
    }
}

/// A timestamped bag entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BagEntry {
    /// Acquisition time.
    pub time: SimTime,
    /// The sample.
    pub sample: SensorSample,
}

/// Bag encoding: the time, then the sample.
impl Leaf for BagEntry {
    fn put(&self, w: &mut SnapWriter) {
        self.time.put(w);
        self.sample.put(w);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<BagEntry, SnapError> {
        Ok(BagEntry { time: SimTime::get(r)?, sample: SensorSample::get(r)? })
    }
}

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BagError {
    /// The byte stream does not start with the bag magic.
    BadMagic,
    /// The stream ended mid-record.
    UnexpectedEof,
    /// An unknown sample tag was encountered.
    BadTag(u8),
}

impl fmt::Display for BagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BagError::BadMagic => write!(f, "not a bag: bad magic"),
            BagError::UnexpectedEof => write!(f, "unexpected end of bag data"),
            BagError::BadTag(t) => write!(f, "unknown sample tag {t}"),
        }
    }
}

impl Error for BagError {}

impl From<SnapError> for BagError {
    fn from(e: SnapError) -> BagError {
        match e {
            SnapError::UnknownCode { code, .. } => {
                BagError::BadTag(code.try_into().unwrap_or(u8::MAX))
            }
            // Bag records hold no bools, strings or section tags, so every
            // other failure is the data ending mid-record.
            _ => BagError::UnexpectedEof,
        }
    }
}

/// An ordered recording of sensor samples.
///
/// ```
/// use av_des::SimTime;
/// use av_geom::Vec3;
/// use av_pointcloud::PointCloud;
/// use av_world::{Bag, SensorSample};
///
/// let mut bag = Bag::new();
/// bag.push(SimTime::from_millis(100),
///          SensorSample::Lidar(PointCloud::from_positions([Vec3::X])));
/// let bytes = bag.encode();
/// let back = Bag::decode(&bytes).unwrap();
/// assert_eq!(back.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Bag {
    entries: Vec<BagEntry>,
}

impl Bag {
    /// Creates an empty bag.
    pub fn new() -> Bag {
        Bag::default()
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last entry — recordings are
    /// monotone.
    pub fn push(&mut self, time: SimTime, sample: SensorSample) {
        if let Some(last) = self.entries.last() {
            assert!(time >= last.time, "bag entries must be time-ordered");
        }
        self.entries.push(BagEntry { time, sample });
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the bag holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded entries, in time order.
    pub fn entries(&self) -> &[BagEntry] {
        &self.entries
    }

    /// Iterates over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, BagEntry> {
        self.entries.iter()
    }

    /// Duration from first to last entry.
    pub fn duration(&self) -> av_des::SimDuration {
        match (self.entries.first(), self.entries.last()) {
            (Some(a), Some(b)) => b.time.saturating_since(a.time),
            _ => av_des::SimDuration::ZERO,
        }
    }

    /// Serializes the bag to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        MAGIC.iter().for_each(|&b| w.put_u8(b));
        self.entries.put(&mut w);
        w.into_bytes()
    }

    /// Deserializes a bag.
    ///
    /// # Errors
    ///
    /// Returns a [`BagError`] when the data is truncated, has the wrong
    /// magic, or contains an unknown sample, agent-kind or light-state
    /// tag.
    pub fn decode(data: &[u8]) -> Result<Bag, BagError> {
        let body = data.strip_prefix(MAGIC.as_slice()).ok_or(BagError::BadMagic)?;
        Ok(Bag { entries: Vec::get(&mut SnapReader::new(body))? })
    }

    /// Writes the bag to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the filesystem.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.encode())
    }

    /// Reads a bag from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; decode failures surface as
    /// `InvalidData` I/O errors.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Bag> {
        let data = std::fs::read(path)?;
        Bag::decode(&data).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgentKind, LightState, RadarTarget, VisibleLight, VisibleObject};
    use av_geom::Vec3;
    use av_pointcloud::Point;

    fn sample_bag() -> Bag {
        let mut bag = Bag::new();
        let mut cloud = PointCloud::new();
        cloud.push(Point { position: Vec3::new(1.5, -2.5, 0.25), intensity: 0.8, ring: 7 });
        cloud.push(Point { position: Vec3::new(-4.0, 3.0, 1.0), intensity: 0.3, ring: 0 });
        bag.push(SimTime::from_millis(100), SensorSample::Lidar(cloud));
        bag.push(
            SimTime::from_millis(133),
            SensorSample::Camera(ImageFrame {
                width: 1280,
                height: 960,
                visible: vec![VisibleObject {
                    id: 42,
                    kind: AgentKind::Pedestrian,
                    bbox: (10.0, 20.0, 30.0, 40.0),
                    distance: 12.5,
                    occlusion: 0.25,
                }],
                lights: vec![VisibleLight {
                    id: 2,
                    state: LightState::Red,
                    bbox: (100.0, 50.0, 8.0, 8.0),
                    distance: 40.0,
                }],
                clutter: 7.5,
            }),
        );
        bag.push(
            SimTime::from_millis(200),
            SensorSample::Gnss(GnssFix { position: Vec3::new(5.0, 6.0, 0.0), accuracy: 1.5 }),
        );
        bag.push(
            SimTime::from_millis(210),
            SensorSample::Imu(ImuSample {
                linear_accel: Vec3::new(0.1, -0.2, 0.0),
                yaw_rate: 0.05,
                speed: 8.1,
            }),
        );
        bag.push(
            SimTime::from_millis(250),
            SensorSample::Radar(RadarScan {
                targets: vec![RadarTarget {
                    range: 92.5,
                    bearing: -0.05,
                    range_rate: -11.0,
                    rcs: 9.7,
                }],
            }),
        );
        bag
    }

    #[test]
    fn roundtrip_is_lossless() {
        let bag = sample_bag();
        let decoded = Bag::decode(&bag.encode()).unwrap();
        assert_eq!(bag, decoded);
    }

    #[test]
    fn empty_bag_roundtrips() {
        let bag = Bag::new();
        assert_eq!(Bag::decode(&bag.encode()).unwrap(), bag);
        assert!(bag.is_empty());
        assert_eq!(bag.duration(), av_des::SimDuration::ZERO);
    }

    #[test]
    fn duration_spans_entries() {
        let bag = sample_bag();
        assert_eq!(bag.duration(), av_des::SimDuration::from_millis(150));
        assert_eq!(bag.len(), 5);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(Bag::decode(b"NOTABAG!....."), Err(BagError::BadMagic));
        assert_eq!(Bag::decode(b""), Err(BagError::BadMagic));
    }

    #[test]
    fn truncated_data_rejected() {
        let bytes = sample_bag().encode();
        for cut in [9, 13, 20, bytes.len() - 1] {
            assert_eq!(Bag::decode(&bytes[..cut]), Err(BagError::UnexpectedEof), "cut at {cut}");
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let mut w = SnapWriter::new();
        MAGIC.iter().for_each(|&b| w.put_u8(b));
        w.put_usize(1);
        w.put_u64(0);
        w.put_u8(9); // invalid tag
        assert_eq!(Bag::decode(&w.into_bytes()), Err(BagError::BadTag(9)));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_push_panics() {
        let mut bag = Bag::new();
        bag.push(
            SimTime::from_millis(10),
            SensorSample::Gnss(GnssFix { position: Vec3::ZERO, accuracy: 1.0 }),
        );
        bag.push(
            SimTime::from_millis(5),
            SensorSample::Gnss(GnssFix { position: Vec3::ZERO, accuracy: 1.0 }),
        );
    }

    #[test]
    fn file_save_load() {
        let bag = sample_bag();
        let path = std::env::temp_dir().join("av_world_bag_test.avbag");
        bag.save(&path).unwrap();
        let loaded = Bag::load(&path).unwrap();
        assert_eq!(bag, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display_messages() {
        assert!(BagError::BadMagic.to_string().contains("magic"));
        assert!(BagError::BadTag(3).to_string().contains('3'));
        assert!(BagError::UnexpectedEof.to_string().contains("end"));
    }
}

#[cfg(test)]
mod proptests {
    //! Seeded randomized property tests (in-house harness: a fixed-seed
    //! PCG stream generates the cases, so failures reproduce exactly).
    use super::*;
    use crate::{AgentKind, RadarTarget, VisibleObject};
    use av_des::RngStreams;
    use av_des::StreamRng;
    use av_geom::Vec3;
    use av_pointcloud::Point;

    fn random_sample(rng: &mut StreamRng) -> SensorSample {
        match rng.uniform_usize(5) {
            0 => {
                let n = rng.uniform_usize(40);
                let mut cloud = PointCloud::new();
                for _ in 0..n {
                    cloud.push(Point {
                        position: Vec3::new(
                            rng.uniform(-100.0, 100.0),
                            rng.uniform(-100.0, 100.0),
                            rng.uniform(-5.0, 5.0),
                        ),
                        intensity: rng.next_f64() as f32,
                        ring: rng.uniform_usize(16) as u8,
                    });
                }
                SensorSample::Lidar(cloud)
            }
            1 => {
                let n = rng.uniform_usize(10);
                SensorSample::Camera(ImageFrame {
                    width: 1280,
                    height: 960,
                    visible: (0..n)
                        .map(|_| VisibleObject {
                            id: rng.uniform_usize(100) as u32,
                            kind: match rng.uniform_usize(3) {
                                0 => AgentKind::Car,
                                1 => AgentKind::Pedestrian,
                                _ => AgentKind::Cyclist,
                            },
                            bbox: (rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0), 10.0, 10.0),
                            distance: rng.uniform(1.0, 100.0),
                            occlusion: 0.0,
                        })
                        .collect(),
                    lights: vec![],
                    clutter: n as f64,
                })
            }
            2 => SensorSample::Gnss(GnssFix {
                position: Vec3::new(rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0), 0.0),
                accuracy: rng.uniform(0.5, 5.0),
            }),
            3 => SensorSample::Imu(ImuSample {
                linear_accel: Vec3::new(rng.uniform(-2.0, 2.0), 0.0, 0.0),
                yaw_rate: rng.uniform(-0.5, 0.5),
                speed: rng.uniform(0.0, 30.0),
            }),
            _ => {
                let n = rng.uniform_usize(20);
                SensorSample::Radar(RadarScan {
                    targets: (0..n)
                        .map(|_| RadarTarget {
                            range: rng.uniform(1.0, 150.0),
                            bearing: rng.uniform(-0.5, 0.5),
                            range_rate: rng.uniform(-30.0, 30.0),
                            rcs: rng.uniform(0.0, 12.0),
                        })
                        .collect(),
                })
            }
        }
    }

    /// Any bag of any sample mix round-trips losslessly.
    #[test]
    fn arbitrary_bags_roundtrip() {
        let mut rng = RngStreams::new(0xba6).stream("roundtrip");
        for _ in 0..64 {
            let mut stamped: Vec<(u64, SensorSample)> = (0..rng.uniform_usize(25))
                .map(|_| (rng.uniform_usize(1_000_000) as u64, random_sample(&mut rng)))
                .collect();
            stamped.sort_by_key(|(t, _)| *t);
            let mut bag = Bag::new();
            for (t, sample) in stamped {
                bag.push(SimTime::from_micros(t), sample);
            }
            let decoded = Bag::decode(&bag.encode()).unwrap();
            assert_eq!(bag, decoded);
        }
    }

    /// Arbitrary byte soup never panics the decoder — it errors.
    #[test]
    fn decoder_never_panics_on_garbage() {
        let mut rng = RngStreams::new(0xba6).stream("garbage");
        for _ in 0..256 {
            let n = rng.uniform_usize(300);
            let soup: Vec<u8> = (0..n).map(|_| rng.uniform_usize(256) as u8).collect();
            let _ = Bag::decode(&soup);
        }
    }

    /// Truncating a valid bag anywhere yields an error, not a panic.
    #[test]
    fn decoder_handles_truncation() {
        let mut bag = Bag::new();
        let mut cloud = PointCloud::new();
        for i in 0..20 {
            cloud.push(Point::new(i as f64, 0.0, 0.0));
        }
        bag.push(SimTime::from_millis(1), SensorSample::Lidar(cloud));
        bag.push(
            SimTime::from_millis(2),
            SensorSample::Gnss(GnssFix { position: Vec3::ZERO, accuracy: 1.0 }),
        );
        let bytes = bag.encode();
        for cut in 0..bytes.len() {
            assert!(Bag::decode(&bytes[..cut]).is_err(), "cut at {cut} must error");
        }
    }
}
