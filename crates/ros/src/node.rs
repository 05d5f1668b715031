//! The node trait and its execution description.

use crate::{Lineage, Message};
use av_des::{Leaf, SimDuration, SnapError, SnapReader, SnapWriter};

/// One phase of a node callback's modeled execution.
///
/// Autoware nodes alternate between CPU work and GPU kernels (Fig 8 breaks
/// SSD512's latency ~50/50 between the two); a callback declares its phases
/// and the executor occupies the corresponding device models in order.
#[derive(Debug, Clone)]
pub enum Phase {
    /// A CPU burst.
    Cpu {
        /// Service demand on an unloaded core.
        demand: SimDuration,
        /// Memory-bandwidth intensity (see `av_platform::CpuTask`).
        mem_intensity: f64,
    },
    /// A GPU job (kernels + copies).
    Gpu {
        /// Kernel execution time on an idle device.
        kernel_time: SimDuration,
        /// Host↔device bytes copied.
        copy_bytes: u64,
        /// Dynamic energy dissipated, joules.
        energy_j: f64,
    },
    /// A pure wall-clock wait occupying no device (used by the fault
    /// plane to stall a callback: the node stays busy, its queue backs
    /// up, but neither CPU nor GPU accrues demand).
    Wait {
        /// How long the callback blocks.
        duration: SimDuration,
    },
}

/// The modeled execution of one callback invocation.
#[derive(Debug, Clone, Default)]
pub struct Execution {
    /// Phases, run in order. An empty list completes instantaneously.
    pub phases: Vec<Phase>,
}

impl Execution {
    /// An instantaneous execution (relay-style nodes).
    pub fn instant() -> Execution {
        Execution::default()
    }

    /// A single CPU burst.
    pub fn cpu(demand: SimDuration, mem_intensity: f64) -> Execution {
        Execution { phases: vec![Phase::Cpu { demand, mem_intensity }] }
    }

    /// Appends a CPU phase.
    pub fn then_cpu(mut self, demand: SimDuration, mem_intensity: f64) -> Execution {
        self.phases.push(Phase::Cpu { demand, mem_intensity });
        self
    }

    /// Appends a GPU phase.
    pub fn then_gpu(
        mut self,
        kernel_time: SimDuration,
        copy_bytes: u64,
        energy_j: f64,
    ) -> Execution {
        self.phases.push(Phase::Gpu { kernel_time, copy_bytes, energy_j });
        self
    }

    /// Sum of CPU demand across phases (undilated).
    pub fn cpu_demand(&self) -> SimDuration {
        self.phases.iter().fold(SimDuration::ZERO, |acc, p| match p {
            Phase::Cpu { demand, .. } => acc + *demand,
            Phase::Gpu { .. } | Phase::Wait { .. } => acc,
        })
    }

    /// Sum of GPU kernel time across phases.
    pub fn gpu_demand(&self) -> SimDuration {
        self.phases.iter().fold(SimDuration::ZERO, |acc, p| match p {
            Phase::Cpu { .. } | Phase::Wait { .. } => acc,
            Phase::Gpu { kernel_time, .. } => acc + *kernel_time,
        })
    }
}

/// Buffer of messages a callback wants published when it completes.
///
/// Outputs inherit the input message's lineage by default; fusion nodes
/// that combine cached state from other sensors use
/// [`Outbox::publish_with_lineage`].
#[derive(Debug)]
pub struct Outbox<M> {
    default_lineage: Lineage,
    items: Vec<(String, M, Lineage)>,
}

impl<M> Outbox<M> {
    /// Creates an outbox whose default lineage is the input's.
    pub fn new(default_lineage: Lineage) -> Outbox<M> {
        Outbox { default_lineage, items: Vec::new() }
    }

    /// Queues `payload` for `topic` with the input's lineage.
    pub fn publish(&mut self, topic: impl Into<String>, payload: M) {
        let lineage = self.default_lineage.clone();
        self.items.push((topic.into(), payload, lineage));
    }

    /// Queues `payload` for `topic` with an explicit lineage.
    pub fn publish_with_lineage(&mut self, topic: impl Into<String>, payload: M, lineage: Lineage) {
        self.items.push((topic.into(), payload, lineage));
    }

    /// The lineage outputs inherit by default.
    pub fn default_lineage(&self) -> &Lineage {
        &self.default_lineage
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing has been queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Consumes the outbox, returning `(topic, payload, lineage)` items.
    /// Exposed for node-level tests; the bus calls this internally.
    pub fn into_items(self) -> Vec<(String, M, Lineage)> {
        self.items
    }
}

/// Checkpoint encoding: a variant byte, then the variant's fields.
impl Leaf for Phase {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            Phase::Cpu { demand, mem_intensity } => {
                w.put_u8(0);
                demand.put(w);
                w.put_f64(*mem_intensity);
            }
            Phase::Gpu { kernel_time, copy_bytes, energy_j } => {
                w.put_u8(1);
                kernel_time.put(w);
                w.put_u64(*copy_bytes);
                w.put_f64(*energy_j);
            }
            Phase::Wait { duration } => {
                w.put_u8(2);
                duration.put(w);
            }
        }
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Phase, SnapError> {
        Ok(match r.get_u8()? {
            0 => Phase::Cpu { demand: SimDuration::get(r)?, mem_intensity: r.get_f64()? },
            1 => Phase::Gpu {
                kernel_time: SimDuration::get(r)?,
                copy_bytes: r.get_u64()?,
                energy_j: r.get_f64()?,
            },
            2 => Phase::Wait { duration: SimDuration::get(r)? },
            code => return Err(SnapError::UnknownCode { what: "phase tag", code: code.into() }),
        })
    }
}

/// A processing node in the graph.
///
/// Implementations run their real algorithm inside [`Node::on_message`]
/// (the payloads are real point clouds, detections, tracks, …), queue
/// outputs on the [`Outbox`], and return the [`Execution`] describing how
/// long the work occupies the modeled platform.
pub trait Node<M> {
    /// Handles one message from one of the node's subscribed topics.
    fn on_message(&mut self, topic: &str, msg: &Message<M>, out: &mut Outbox<M>) -> Execution;

    /// Called when the supervisor restarts this node after a crash.
    /// A restarted process loses its in-memory state; implementations
    /// reset whatever a fresh launch would not have (filters, locks,
    /// caches). Default: nothing to reset.
    fn on_restart(&mut self) {}

    /// Saves or restores the node's mutable internal state for a
    /// checkpoint, describing each field once (see [`av_des::Snap`]).
    ///
    /// Stateless nodes (pure per-message transforms whose only state is
    /// an RNG the stack snapshots elsewhere — or nothing at all) keep the
    /// default no-op; stateful nodes snap every field a resumed run needs
    /// to continue byte-identically. Loading runs on a freshly built
    /// node.
    fn snap(&mut self, _s: &mut av_des::Snap<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_builders_accumulate() {
        let e = Execution::cpu(SimDuration::from_millis(5), 0.2)
            .then_gpu(SimDuration::from_millis(10), 1024, 0.5)
            .then_cpu(SimDuration::from_millis(3), 0.1);
        assert_eq!(e.phases.len(), 3);
        assert_eq!(e.cpu_demand(), SimDuration::from_millis(8));
        assert_eq!(e.gpu_demand(), SimDuration::from_millis(10));
        assert!(Execution::instant().phases.is_empty());
    }

    #[test]
    fn outbox_default_and_explicit_lineage() {
        use crate::Source;
        use av_des::SimTime;
        let input = Lineage::origin(Source::Lidar, SimTime::from_millis(7));
        let mut out: Outbox<u32> = Outbox::new(input.clone());
        out.publish("a", 1);
        out.publish_with_lineage("b", 2, Lineage::origin(Source::Camera, SimTime::ZERO));
        assert_eq!(out.len(), 2);
        let items = out.into_items();
        assert_eq!(items[0].2, input);
        assert_eq!(items[1].2.stamp_of(Source::Camera), Some(SimTime::ZERO));
    }
}
