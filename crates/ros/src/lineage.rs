//! Message lineage: which sensor acquisitions a message derives from.

use av_des::{Leaf, SimTime, SnapError, SnapReader, SnapWriter};

/// The sensor class a message (transitively) originated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Source {
    /// LiDAR point-cloud sweep (`/points_raw`).
    Lidar,
    /// Camera frame (`/image_raw`).
    Camera,
    /// GNSS fix.
    Gnss,
    /// Inertial measurement.
    Imu,
    /// Radar scan (extension sensor).
    Radar,
}

impl Source {
    /// Every source, in [`Source::code`] order.
    pub const ALL: [Source; 5] =
        [Source::Lidar, Source::Camera, Source::Gnss, Source::Imu, Source::Radar];

    /// Stable lower-case name, used in trace/CSV output.
    pub fn name(self) -> &'static str {
        match self {
            Source::Lidar => "lidar",
            Source::Camera => "camera",
            Source::Gnss => "gnss",
            Source::Imu => "imu",
            Source::Radar => "radar",
        }
    }

    /// Stable small integer code (< 8), used to pack flow-event ids.
    pub fn code(self) -> u64 {
        match self {
            Source::Lidar => 0,
            Source::Camera => 1,
            Source::Gnss => 2,
            Source::Imu => 3,
            Source::Radar => 4,
        }
    }

    /// Inverse of [`Source::code`], used by checkpoint decoding.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::UnknownCode`] on a code no source has.
    pub fn from_code(code: u64) -> Result<Source, SnapError> {
        Source::ALL
            .into_iter()
            .find(|s| s.code() == code)
            .ok_or(SnapError::UnknownCode { what: "source code", code })
    }

    /// The source named `name` ([`Source::name`]), ignoring ASCII case.
    pub fn parse(name: &str) -> Option<Source> {
        Source::ALL.into_iter().find(|s| s.name().eq_ignore_ascii_case(name))
    }
}

/// The set of sensor acquisition timestamps a message derives from.
///
/// Producers of raw sensor data create a lineage with [`Lineage::origin`];
/// fusion nodes [`Lineage::merge`] the lineages of everything they
/// combined. For each source kind the *earliest* stamp is kept — end-to-end
/// latency is measured against the acquisition that entered the system
/// first, the conservative (worst-case) reading the paper uses.
///
/// ```
/// use av_des::SimTime;
/// use av_ros::{Lineage, Source};
///
/// let mut l = Lineage::origin(Source::Lidar, SimTime::from_millis(100));
/// l.merge(&Lineage::origin(Source::Camera, SimTime::from_millis(90)));
/// assert_eq!(l.stamp_of(Source::Camera), Some(SimTime::from_millis(90)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Lineage {
    // Tiny (≤ 4 sources); a sorted Vec beats a map.
    entries: Vec<(Source, SimTime)>,
}

impl Lineage {
    /// An empty lineage (no sensor ancestry), for out-of-band messages such
    /// as map updates.
    pub fn empty() -> Lineage {
        Lineage::default()
    }

    /// Lineage of a raw sensor message acquired at `stamp`.
    pub fn origin(source: Source, stamp: SimTime) -> Lineage {
        Lineage { entries: vec![(source, stamp)] }
    }

    /// The acquisition stamp for `source`, if this message derives from it.
    pub fn stamp_of(&self, source: Source) -> Option<SimTime> {
        self.entries.iter().find(|(s, _)| *s == source).map(|(_, t)| *t)
    }

    /// Merges another lineage in, keeping the earliest stamp per source.
    pub fn merge(&mut self, other: &Lineage) {
        for &(source, stamp) in &other.entries {
            match self.entries.iter_mut().find(|(s, _)| *s == source) {
                Some((_, existing)) => {
                    if stamp < *existing {
                        *existing = stamp;
                    }
                }
                None => self.entries.push((source, stamp)),
            }
        }
    }

    /// Returns a merged copy.
    pub fn merged(&self, other: &Lineage) -> Lineage {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Iterates over `(source, stamp)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Source, SimTime)> + '_ {
        self.entries.iter().copied()
    }

    /// Rebuilds a lineage from `(source, stamp)` pairs in the given order,
    /// as checkpoint restore saved them: entry order is preserved
    /// verbatim, which matters because the exported trace serializes
    /// entries in insertion order. A source appearing twice is corrupt
    /// bytes, since a lineage keeps one stamp per source.
    fn checked(entries: Vec<(Source, SimTime)>) -> Result<Lineage, SnapError> {
        for (i, (s, _)) in entries.iter().enumerate() {
            if entries[..i].iter().any(|(p, _)| p == s) {
                return Err(SnapError::Corrupt(format!("duplicate lineage source {s:?}")));
            }
        }
        Ok(Lineage { entries })
    }

    /// `true` when the message has no sensor ancestry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Checkpoint encoding: the code as one byte.
impl Leaf for Source {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u8(self.code() as u8);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Source, SnapError> {
        Source::from_code(r.get_u8()?.into())
    }
}

/// Checkpoint encoding: the `(source, stamp)` entries in entry order.
impl Leaf for Lineage {
    fn put(&self, w: &mut SnapWriter) {
        self.entries.put(w);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Lineage, SnapError> {
        Lineage::checked(Vec::get(r)?)
    }
}

#[cfg(test)]
mod proptests {
    //! Seeded randomized property tests (fixed-seed PCG stream, so any
    //! failure reproduces exactly).
    use super::*;
    use av_des::{RngStreams, StreamRng};

    fn random_lineage(rng: &mut StreamRng) -> Lineage {
        let mut l = Lineage::empty();
        for _ in 0..rng.uniform_usize(6) {
            let source = match rng.uniform_usize(5) {
                0 => Source::Lidar,
                1 => Source::Camera,
                2 => Source::Gnss,
                3 => Source::Imu,
                _ => Source::Radar,
            };
            let t = rng.uniform_usize(10_000) as u64;
            l.merge(&Lineage::origin(source, SimTime::from_micros(t)));
        }
        l
    }

    /// Merge is commutative, associative and idempotent on stamps.
    #[test]
    fn merge_semilattice() {
        let mut rng = RngStreams::new(0x11a).stream("semilattice");
        for _ in 0..256 {
            let a = random_lineage(&mut rng);
            let b = random_lineage(&mut rng);
            let c = random_lineage(&mut rng);
            let sources = [Source::Lidar, Source::Camera, Source::Gnss, Source::Imu, Source::Radar];
            // Commutativity.
            let ab = a.merged(&b);
            let ba = b.merged(&a);
            for s in sources {
                assert_eq!(ab.stamp_of(s), ba.stamp_of(s));
            }
            // Associativity.
            let left = a.merged(&b).merged(&c);
            let right = a.merged(&b.merged(&c));
            for s in sources {
                assert_eq!(left.stamp_of(s), right.stamp_of(s));
            }
            // Idempotence.
            let aa = a.merged(&a);
            for s in sources {
                assert_eq!(aa.stamp_of(s), a.stamp_of(s));
            }
        }
    }

    /// Merging never loses a source and never increases a stamp.
    #[test]
    fn merge_monotone() {
        let mut rng = RngStreams::new(0x11a).stream("monotone");
        for _ in 0..256 {
            let a = random_lineage(&mut rng);
            let b = random_lineage(&mut rng);
            let m = a.merged(&b);
            for (source, stamp) in a.iter() {
                let merged_stamp = m.stamp_of(source).unwrap();
                assert!(merged_stamp <= stamp);
            }
            for (source, _) in b.iter() {
                assert!(m.stamp_of(source).is_some());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_round_trip_through_code_and_name() {
        for source in Source::ALL {
            assert_eq!(Source::from_code(source.code()), Ok(source));
            assert_eq!(Source::parse(&source.name().to_uppercase()), Some(source));
        }
        let err = Source::from_code(5).unwrap_err();
        assert_eq!(err.to_string(), "checkpoint corrupt: unknown source code 5");
        assert_eq!(Source::parse("sonar"), None);
    }

    #[test]
    fn origin_has_single_entry() {
        let l = Lineage::origin(Source::Lidar, SimTime::from_millis(5));
        assert_eq!(l.stamp_of(Source::Lidar), Some(SimTime::from_millis(5)));
        assert_eq!(l.stamp_of(Source::Camera), None);
        assert!(!l.is_empty());
        assert!(Lineage::empty().is_empty());
    }

    #[test]
    fn merge_keeps_earliest() {
        let mut a = Lineage::origin(Source::Lidar, SimTime::from_millis(10));
        a.merge(&Lineage::origin(Source::Lidar, SimTime::from_millis(5)));
        assert_eq!(a.stamp_of(Source::Lidar), Some(SimTime::from_millis(5)));
        a.merge(&Lineage::origin(Source::Lidar, SimTime::from_millis(20)));
        assert_eq!(a.stamp_of(Source::Lidar), Some(SimTime::from_millis(5)));
    }

    #[test]
    fn merge_unions_sources() {
        let a = Lineage::origin(Source::Lidar, SimTime::from_millis(10));
        let b = Lineage::origin(Source::Camera, SimTime::from_millis(12));
        let m = a.merged(&b);
        assert_eq!(m.stamp_of(Source::Lidar), Some(SimTime::from_millis(10)));
        assert_eq!(m.stamp_of(Source::Camera), Some(SimTime::from_millis(12)));
        assert_eq!(m.iter().count(), 2);
    }

    #[test]
    fn merge_is_commutative_on_stamps() {
        let a = Lineage::origin(Source::Lidar, SimTime::from_millis(3));
        let mut b = Lineage::origin(Source::Camera, SimTime::from_millis(4));
        b.merge(&Lineage::origin(Source::Lidar, SimTime::from_millis(8)));
        let ab = a.merged(&b);
        let ba = b.merged(&a);
        for s in [Source::Lidar, Source::Camera] {
            assert_eq!(ab.stamp_of(s), ba.stamp_of(s));
        }
    }
}
