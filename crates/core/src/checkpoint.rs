//! The checkpoint format and identity: the serialized drive state
//! [`crate::stack::drive`] captures and resumes from, the header every
//! checkpoint opens with, the configuration fingerprints it carries, and
//! the one resume rule ([`CheckpointHeader::admits`]).

use crate::determinism::fnv64;
use crate::stack::StackConfig;
use av_des::{Leaf, SimTime, SnapError, SnapReader, SnapWriter};

/// Checkpoint encoding version this build writes (and the only one it
/// resumes). [`Checkpoint::from_bytes`] rejects other versions with an
/// error; the on-disk store quarantines them.
pub const CHECKPOINT_VERSION: u32 = 2;

/// A serialized mid-drive snapshot of the complete simulation state:
/// event-queue identities, every RNG stream position, bus queues and
/// in-flight executions, per-node internal state, supervision
/// bookkeeping, recorder/tracer contents and sampler phases.
///
/// Captured by [`drive`](crate::stack::drive)'s `capture_at_s` and
/// consumed by its `from`. The encoding is byte-deterministic: identical
/// runs checkpointed at the same barrier produce identical bytes.
/// `Checkpoint` is plain owned data (`Send + Sync`), so sweep workers can
/// share one prefix checkpoint across threads. Every `Checkpoint` holds
/// a parsed header of the current [`CHECKPOINT_VERSION`].
#[derive(Debug, Clone)]
pub struct Checkpoint {
    header: CheckpointHeader,
    bytes: Vec<u8>,
}

impl Checkpoint {
    /// Wraps the bytes a session serialized behind `header`.
    pub(crate) fn captured(header: CheckpointHeader, bytes: Vec<u8>) -> Checkpoint {
        Checkpoint { header, bytes }
    }

    /// The virtual time the checkpoint was captured at, seconds.
    pub fn barrier_s(&self) -> f64 {
        self.header.barrier_s()
    }

    /// The virtual time the checkpoint was captured at, nanoseconds.
    pub fn barrier_ns(&self) -> u64 {
        self.header.barrier_ns
    }

    /// Size of the serialized state, bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The serialized state, ready to persist. The encoding is
    /// self-describing: it starts with the [`CheckpointHeader`] fields,
    /// so [`Checkpoint::from_bytes`] can rebuild the checkpoint from
    /// these bytes alone.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The checkpoint's self-describing header: version, barrier,
    /// configuration fingerprints, tracing mode.
    pub fn header(&self) -> &CheckpointHeader {
        &self.header
    }

    /// Rebuilds a checkpoint from bytes previously produced by
    /// [`Checkpoint::as_bytes`].
    ///
    /// Only the header is validated here (shape, magic tag, version) —
    /// enough to reject foreign or version-skewed payloads with an
    /// error instead of a panic. Integrity of the state sections beyond
    /// the header is the storage layer's job (the on-disk store
    /// checksums whole entries); feeding bytes that pass this check but
    /// are corrupted deeper in will panic at resume time.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Checkpoint, String> {
        let header = CheckpointHeader::parse(&bytes)?;
        if header.version != CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {} (this build writes {})",
                header.version, CHECKPOINT_VERSION
            ));
        }
        Ok(Checkpoint { header, bytes })
    }
}

/// The self-describing prefix every serialized [`Checkpoint`] starts
/// with: enough metadata to key, index and validate a checkpoint
/// without deserializing (or trusting) the state sections behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointHeader {
    /// Checkpoint encoding version the payload was written under.
    pub version: u32,
    /// Virtual time of the capture barrier, nanoseconds.
    pub barrier_ns: u64,
    /// Fingerprint of the full configuration ([`drive_fingerprint`]).
    pub fingerprint: u64,
    /// Blackout-stripped fingerprint ([`drive_fingerprint_stripped`]) —
    /// the prefix-sharing identity.
    pub fingerprint_stripped: u64,
    /// Start of the earliest blackout window in the captured
    /// configuration, seconds; `None` when it has no blackouts.
    pub earliest_blackout_s: Option<f64>,
    /// Whether the captured run was tracing. Resume requires the same
    /// tracing mode, so stores index on this alongside the fingerprint.
    pub traced: bool,
}

/// The tag every checkpoint payload opens with.
const CHECKPOINT_TAG: &str = "av-checkpoint";

impl CheckpointHeader {
    /// The header of a run of `config` paused at `barrier`, in this
    /// build's encoding version.
    pub fn of(config: &StackConfig, barrier: SimTime, traced: bool) -> CheckpointHeader {
        CheckpointHeader {
            version: CHECKPOINT_VERSION,
            barrier_ns: barrier.as_nanos(),
            fingerprint: drive_fingerprint(config),
            fingerprint_stripped: drive_fingerprint_stripped(config),
            earliest_blackout_s: config.earliest_blackout_s(),
            traced,
        }
    }

    /// Virtual time of the capture barrier, seconds.
    pub fn barrier_s(&self) -> f64 {
        self.barrier_ns as f64 / 1e9
    }

    /// The resume rule: whether `run` (the header of the run that wants
    /// to resume, built with [`CheckpointHeader::of`] at this barrier)
    /// may start from the checkpoint this header describes.
    ///
    /// Both must have the same tracing mode, and either the same
    /// configuration, or configurations that differ only in blackout
    /// windows, where every window of both starts strictly after the
    /// barrier (such runs are indistinguishable up to the barrier).
    pub fn admits(&self, run: &CheckpointHeader) -> Result<(), &'static str> {
        if self.fingerprint != run.fingerprint {
            if self.fingerprint_stripped != run.fingerprint_stripped {
                return Err("checkpoint was taken under a different configuration");
            }
            let clean = |first: Option<f64>| first.is_none_or(|s| s > self.barrier_s());
            if !(clean(self.earliest_blackout_s) && clean(run.earliest_blackout_s)) {
                return Err("blackout-divergent resume requires every outage window \
                            (of both configurations) to start strictly after the barrier");
            }
        }
        if self.traced != run.traced {
            return Err("checkpoint tracing mode mismatch");
        }
        Ok(())
    }

    /// Parses the header off the front of serialized checkpoint bytes.
    ///
    /// Unlike a checkpoint load this never panics: it is meant for
    /// *untrusted* bytes (a store entry of unknown provenance), so every
    /// malformation — truncation, wrong magic tag, mangled option byte —
    /// comes back as an error string. Version skew is reported in the
    /// parsed header, not rejected here, so callers can distinguish "not
    /// a checkpoint" from "a checkpoint we no longer read".
    pub fn parse(bytes: &[u8]) -> Result<CheckpointHeader, String> {
        CheckpointHeader::get(&mut SnapReader::new(bytes)).map_err(|e| match e {
            SnapError::SectionMismatch { .. } => "not a checkpoint: magic tag mismatch".to_string(),
            e => e.to_string(),
        })
    }
}

/// Checkpoint encoding: the magic tag, then the fields in declaration
/// order.
impl Leaf for CheckpointHeader {
    fn put(&self, w: &mut SnapWriter) {
        w.put_tag(CHECKPOINT_TAG);
        w.put_u32(self.version);
        w.put_u64(self.barrier_ns);
        w.put_u64(self.fingerprint);
        w.put_u64(self.fingerprint_stripped);
        self.earliest_blackout_s.put(w);
        w.put_bool(self.traced);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<CheckpointHeader, SnapError> {
        r.expect_tag(CHECKPOINT_TAG)?;
        Ok(CheckpointHeader {
            version: r.get_u32()?,
            barrier_ns: r.get_u64()?,
            fingerprint: r.get_u64()?,
            fingerprint_stripped: r.get_u64()?,
            earliest_blackout_s: Leaf::get(r)?,
            traced: r.get_bool()?,
        })
    }
}

/// Public fingerprint of a drive configuration — the identity the
/// on-disk checkpoint store keys entries by. Equal configurations (by
/// the canonical debug rendering; every field is plain data) always
/// fingerprint equal, and a checkpoint captured under `config` carries
/// exactly this value in its [`CheckpointHeader::fingerprint`].
pub fn drive_fingerprint(config: &StackConfig) -> u64 {
    fnv64(format!("{config:?}").as_bytes())
}

/// [`drive_fingerprint`] with blackout windows excluded — the
/// prefix-sharing identity under which runs differing only in
/// post-barrier outages may resume from one another's checkpoints.
pub fn drive_fingerprint_stripped(config: &StackConfig) -> u64 {
    let mut stripped = config.clone();
    stripped.blackouts.clear();
    drive_fingerprint(&stripped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Blackout;
    use av_des::RngStreams;
    use av_ros::Source;
    use av_vision::DetectorKind;

    /// Random bytes, every truncation of a header and a magic-tag length
    /// beyond the bytes left all parse to an error, never a panic.
    #[test]
    fn header_parse_rejects_garbage_and_truncation() {
        let mut rng = RngStreams::new(0x5eed).stream("header-garbage");
        for _ in 0..512 {
            let soup: Vec<u8> = (0..rng.uniform_usize(80)).map(|_| rng.next_u64() as u8).collect();
            let _ = CheckpointHeader::parse(&soup);
        }
        let header = CheckpointHeader {
            version: CHECKPOINT_VERSION,
            barrier_ns: 2_000_000_000,
            fingerprint: 7,
            fingerprint_stripped: 9,
            earliest_blackout_s: Some(3.5),
            traced: true,
        };
        let mut w = SnapWriter::new();
        header.put(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(CheckpointHeader::parse(&bytes), Ok(header));
        for cut in 0..bytes.len() {
            assert!(CheckpointHeader::parse(&bytes[..cut]).is_err(), "cut at {cut} must error");
        }
        let mut mangled = bytes.clone();
        mangled[4] = b'A';
        let err = CheckpointHeader::parse(&mangled).unwrap_err();
        assert_eq!(err, "not a checkpoint: magic tag mismatch");
        let err = CheckpointHeader::parse(&[0xff, 0xff, 0xff, 0xff, b'a']).unwrap_err();
        assert_eq!(err, "checkpoint truncated: need 4294967295 bytes at offset 4, have 1");
    }

    /// The resume rule on smoke configurations at a 2 s barrier: equal
    /// configurations resume; blackout-only differences resume only when
    /// every window of both sides opens strictly after the barrier.
    #[test]
    fn admits_states_the_resume_rule() {
        let clean = StackConfig::smoke_test(DetectorKind::YoloV3);
        let window_at = |from_s: f64| {
            let mut config = clean.clone();
            config.blackouts = vec![Blackout { source: Source::Gnss, from_s, to_s: from_s + 1.0 }];
            config
        };
        let barrier = SimTime::from_nanos(2_000_000_000);
        let header = |config: &StackConfig| CheckpointHeader::of(config, barrier, false);
        let admits = |stored: &StackConfig, run: &StackConfig| header(stored).admits(&header(run));

        assert_eq!(admits(&clean, &clean), Ok(()));
        assert_eq!(admits(&clean, &window_at(3.0)), Ok(()));
        assert_eq!(admits(&window_at(3.0), &clean), Ok(()));
        assert_eq!(admits(&window_at(1.0), &window_at(1.0)), Ok(()), "identical configs");

        for (stored, run) in [
            (clean.clone(), window_at(2.0)),
            (window_at(1.0), clean.clone()),
            (clean.clone(), window_at(1.5)),
        ] {
            let err = admits(&stored, &run).unwrap_err();
            assert!(err.contains("strictly after the barrier"), "{err}");
        }

        let mut reseeded = clean.clone();
        reseeded.seed += 1;
        assert!(admits(&clean, &reseeded).unwrap_err().contains("different configuration"));
        let traced = CheckpointHeader::of(&clean, barrier, true);
        assert!(header(&clean).admits(&traced).unwrap_err().contains("tracing mode"));
    }
}
