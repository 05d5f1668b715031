//! The topic bus and node executor.

use crate::node::{Execution, Node, Outbox, Phase};
use crate::observer::{BusObserver, FaultKind, ProcessedEvent};
use crate::{Header, Lineage, Message};
use av_des::{Leaf, ReadyItem, SchedPolicyKind, Sim, SimDuration, SimTime, Snap, StreamRng};
use av_platform::{CpuTask, GpuJob, Platform};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

/// Declares one subscription of a node: topic, queue capacity, and the
/// static scheduling hints the non-FIFO policies read.
///
/// Autoware's perception subscribers overwhelmingly use queue size 1 — a
/// stale scene is worthless — which is what makes messages drop when a node
/// falls behind (Table III).
#[derive(Debug, Clone)]
pub struct SubscriptionSpec {
    /// Topic name.
    pub topic: String,
    /// Maximum queued (undelivered) messages; the oldest is dropped on
    /// overflow.
    pub capacity: usize,
    /// Static priority rank of this input for the `priority` policy
    /// (lower = more urgent).
    pub rank: u64,
    /// Estimated remaining chain cost from this node to the path sink,
    /// for the `chain` policy's slack.
    pub downstream: SimDuration,
}

impl SubscriptionSpec {
    /// Creates a spec with no scheduling hints (rank 0, no downstream
    /// cost).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(topic: impl Into<String>, capacity: usize) -> SubscriptionSpec {
        assert!(capacity > 0, "subscription queue capacity must be at least 1");
        SubscriptionSpec { topic: topic.into(), capacity, rank: 0, downstream: SimDuration::ZERO }
    }
}

/// Per-topic publication statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicStats {
    /// Topic name.
    pub topic: String,
    /// Messages published.
    pub published: u64,
}

/// Per-(topic, subscriber) delivery/drop statistics — the raw data of
/// Table III.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropStats {
    /// Topic name.
    pub topic: String,
    /// Subscribing node.
    pub node: String,
    /// Messages delivered to the subscription (queued or processed).
    pub delivered: u64,
    /// Messages discarded because a newer one arrived first.
    pub dropped: u64,
}

impl DropStats {
    /// Fraction of delivered messages that were dropped.
    pub fn drop_rate(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.delivered as f64
        }
    }
}

struct PendingMsg<M> {
    topic: String,
    msg: Message<M>,
    arrival: SimTime,
}

struct Subscription<M> {
    topic: String,
    capacity: usize,
    queue: VecDeque<PendingMsg<M>>,
    delivered: u64,
    dropped: u64,
    /// Scheduling hints, as in [`SubscriptionSpec`].
    rank: u64,
    downstream: SimDuration,
}

struct NodeSlot<M> {
    name: String,
    node: Rc<RefCell<dyn Node<M>>>,
    subs: Vec<Subscription<M>>,
    busy: bool,
    /// When the current busy interval began (valid only while `busy`).
    busy_since: SimTime,
    /// Total completed busy time (excludes any in-flight interval).
    busy_accum: SimDuration,
    /// Fault plane: the node process is crashed (callback never fires).
    down: bool,
    /// Process-instance counter, bumped on crash. A callback that was
    /// in flight when its process died carries the old epoch and its
    /// completion is discarded — even if the node restarted meanwhile.
    epoch: u64,
    /// Fault plane: callbacks starting in `[from, to)` block until `to`.
    stall: Option<(SimTime, SimTime)>,
    /// Fault plane: service demand multiplied by `factor` in `[from, to)`.
    slow: Option<(f64, SimTime, SimTime)>,
}

/// What a message-level edge fault does to a delivery it hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeFaultKind {
    /// The message never reaches the subscription.
    Drop,
    /// The message is delivered twice.
    Duplicate,
}

/// A message-level fault on one (topic → subscriber) bus edge: within
/// `window` each delivery draws from a dedicated RNG stream and is hit
/// with probability `rate`.
struct EdgeFault {
    topic: String,
    node: String,
    kind: EdgeFaultKind,
    rate: f64,
    window: Range<SimTime>,
    rng: StreamRng,
}

#[derive(Default)]
struct TopicState {
    seq: u64,
    published: u64,
}

struct BusInner<M> {
    sim: Sim,
    platform: Platform,
    topics: HashMap<String, TopicState>,
    nodes: Vec<NodeSlot<M>>,
    subs_by_topic: HashMap<String, Vec<(usize, usize)>>,
    observer: Option<Rc<RefCell<dyn BusObserver>>>,
    /// `true` once any fault API has been used; the delivery hot path
    /// skips all fault checks while this is false, so a run with an
    /// empty fault plan is bit-identical to one built before the fault
    /// plane existed.
    faults_armed: bool,
    /// Dispatch-order policy for the next-message pull when a node
    /// finishes a callback with several inputs pending. FIFO (the
    /// default) takes the hard-coded earliest-arrival fast path and is
    /// bit-identical to the pre-policy executor.
    sched: SchedPolicyKind,
    /// Per-path deadline budget the EDF/chain policies add to a
    /// message's earliest lineage acquisition stamp.
    sched_budget: SimDuration,
    edge_faults: Vec<EdgeFault>,
    lost_to_fault: u64,
    duplicated_by_fault: u64,
    /// Callback executions whose current phase is waiting on a scheduled
    /// completion event. Keyed by token so the scheduled closure captures
    /// only the token — the execution state itself stays serializable
    /// data, which is what makes mid-callback checkpoints possible.
    in_flight: BTreeMap<u64, InFlight<M>>,
    next_token: u64,
}

impl<M> BusInner<M> {
    fn node_index(&self, name: &str) -> usize {
        self.nodes
            .iter()
            .position(|slot| slot.name == name)
            .unwrap_or_else(|| panic!("unknown node {name:?}"))
    }

    /// Active slow-down factor for a node at the current instant.
    fn dilation(&self, node_idx: usize) -> f64 {
        match self.nodes[node_idx].slow {
            Some((factor, from, to)) => {
                let now = self.sim.now();
                if now >= from && now < to {
                    factor
                } else {
                    1.0
                }
            }
            None => 1.0,
        }
    }
}

struct ExecState<M> {
    node_idx: usize,
    node_name: String,
    topic: String,
    arrival: SimTime,
    started: SimTime,
    phases: VecDeque<Phase>,
    outbox_items: Vec<(String, M, Lineage)>,
    input_lineage: Lineage,
    /// Process-instance epoch at callback start; a crash bumps the
    /// slot's epoch, orphaning this in-flight execution.
    epoch: u64,
}

/// An execution parked on a scheduled completion event.
struct InFlight<M> {
    state: ExecState<M>,
    /// Absolute virtual time of the scheduled continuation.
    resume_at: SimTime,
    /// DES sequence number of the continuation event — equal-time events
    /// fire in sequence order, so a checkpoint records it to re-insert
    /// pending continuations in the exact original order.
    seq: u64,
}

impl<M: Leaf> InFlight<M> {
    /// An empty record for [`InFlight::snap`] to load into.
    fn blank() -> InFlight<M> {
        let state = ExecState {
            node_idx: 0,
            node_name: String::new(),
            topic: String::new(),
            arrival: SimTime::ZERO,
            started: SimTime::ZERO,
            phases: VecDeque::new(),
            outbox_items: Vec::new(),
            input_lineage: Lineage::empty(),
            epoch: 0,
        };
        InFlight { state, resume_at: SimTime::ZERO, seq: 0 }
    }

    /// Saves or restores everything but `node_name`, which the bus
    /// re-derives from `node_idx`.
    fn snap(&mut self, s: &mut Snap<'_>) {
        s.time(&mut self.resume_at);
        s.u64(&mut self.seq);
        let state = &mut self.state;
        s.usize(&mut state.node_idx);
        s.str(&mut state.topic);
        s.time(&mut state.arrival);
        s.time(&mut state.started);
        s.u64(&mut state.epoch);
        s.leaf(&mut state.phases);
        s.leaf(&mut state.outbox_items);
        s.leaf(&mut state.input_lineage);
    }
}

/// One pending continuation reconstructed by [`Bus::snap`].
///
/// The caller merges these with its own restored events (timer ticks,
/// scheduled faults), sorts the union by `(time, seq)`, and schedules them
/// in that order so equal-time ties replay exactly as in the original run.
#[derive(Debug)]
pub struct RestoredContinuation {
    /// Absolute virtual time the continuation fires at.
    pub time: SimTime,
    /// Sequence number the continuation's event had in the original run.
    pub seq: u64,
    token: u64,
}

/// The publish/subscribe bus. Clonable handle; all clones share state.
///
/// `M` is the payload type — typically an enum covering every message kind
/// in the stack.
///
/// ```
/// use av_des::{Sim, SimDuration};
/// use av_platform::Platform;
/// use av_ros::{Bus, Execution, Lineage, Message, Node, Outbox, Source, SubscriptionSpec};
///
/// struct Doubler;
/// impl Node<i64> for Doubler {
///     fn on_message(&mut self, _t: &str, msg: &Message<i64>, out: &mut Outbox<i64>) -> Execution {
///         out.publish("doubled", *msg.payload * 2);
///         Execution::cpu(SimDuration::from_millis(1), 0.0)
///     }
/// }
///
/// let sim = Sim::new();
/// let platform = Platform::new(&sim, Default::default(), Default::default());
/// let bus = Bus::new(&sim, &platform);
/// bus.add_node("doubler", Doubler, &[SubscriptionSpec::new("input", 1)]);
/// bus.publish("input", 21, Lineage::empty());
/// sim.run();
/// assert_eq!(bus.published_count("doubled"), 1);
/// ```
pub struct Bus<M: 'static> {
    inner: Rc<RefCell<BusInner<M>>>,
}

impl<M: 'static> Clone for Bus<M> {
    fn clone(&self) -> Bus<M> {
        Bus { inner: Rc::clone(&self.inner) }
    }
}

impl<M: 'static> Bus<M> {
    /// Creates a bus executing on the given simulator and platform.
    pub fn new(sim: &Sim, platform: &Platform) -> Bus<M> {
        Bus {
            inner: Rc::new(RefCell::new(BusInner {
                sim: sim.clone(),
                platform: platform.clone(),
                topics: HashMap::new(),
                nodes: Vec::new(),
                subs_by_topic: HashMap::new(),
                observer: None,
                faults_armed: false,
                sched: SchedPolicyKind::Fifo,
                sched_budget: SimDuration::ZERO,
                edge_faults: Vec::new(),
                lost_to_fault: 0,
                duplicated_by_fault: 0,
                in_flight: BTreeMap::new(),
                next_token: 0,
            })),
        }
    }

    /// Installs the (single) observer.
    pub fn set_observer(&self, observer: impl BusObserver + 'static) {
        self.inner.borrow_mut().observer = Some(Rc::new(RefCell::new(observer)));
    }

    /// Installs a shared observer handle (lets the caller keep access to it).
    pub fn set_shared_observer(&self, observer: Rc<RefCell<dyn BusObserver>>) {
        self.inner.borrow_mut().observer = Some(observer);
    }

    /// Selects the dispatch-order policy for next-message pulls, with
    /// the per-path deadline `budget` the EDF/chain policies add to a
    /// message's earliest lineage acquisition stamp. The default
    /// (FIFO) never consults ranks, deadlines or budgets and is
    /// bit-identical to the pre-policy executor.
    pub fn set_sched_policy(&self, policy: SchedPolicyKind, budget: SimDuration) {
        let mut inner = self.inner.borrow_mut();
        inner.sched = policy;
        inner.sched_budget = budget;
    }

    /// The active dispatch-order policy.
    pub fn sched_policy(&self) -> SchedPolicyKind {
        self.inner.borrow().sched
    }

    /// Registers a node with its subscriptions.
    ///
    /// # Panics
    ///
    /// Panics if a node with the same name is already registered.
    pub fn add_node(
        &self,
        name: impl Into<String>,
        node: impl Node<M> + 'static,
        subs: &[SubscriptionSpec],
    ) {
        let name = name.into();
        let mut inner = self.inner.borrow_mut();
        assert!(
            inner.nodes.iter().all(|slot| slot.name != name),
            "node {name:?} already registered"
        );
        let node_idx = inner.nodes.len();
        let subs: Vec<Subscription<M>> = subs
            .iter()
            .map(|s| Subscription {
                topic: s.topic.clone(),
                capacity: s.capacity,
                queue: VecDeque::new(),
                delivered: 0,
                dropped: 0,
                rank: s.rank,
                downstream: s.downstream,
            })
            .collect();
        for (sub_idx, sub) in subs.iter().enumerate() {
            inner.subs_by_topic.entry(sub.topic.clone()).or_default().push((node_idx, sub_idx));
        }
        inner.nodes.push(NodeSlot {
            name,
            node: Rc::new(RefCell::new(node)),
            subs,
            busy: false,
            busy_since: SimTime::ZERO,
            busy_accum: SimDuration::ZERO,
            down: false,
            epoch: 0,
            stall: None,
            slow: None,
        });
    }

    /// Publishes a message from outside the graph (sensor drivers, tests).
    pub fn publish(&self, topic: &str, payload: M, lineage: Lineage) {
        let (msg, targets, observer, now) = {
            let mut inner = self.inner.borrow_mut();
            let now = inner.sim.now();
            let state = inner.topics.entry(topic.to_string()).or_default();
            state.seq += 1;
            state.published += 1;
            let header = Header { seq: state.seq, stamp: now, lineage };
            let msg = Message::new(header, payload);
            let targets = inner.subs_by_topic.get(topic).cloned().unwrap_or_default();
            (msg, targets, inner.observer.clone(), now)
        };
        if let Some(obs) = &observer {
            obs.borrow_mut().message_published(topic, &msg.header, now);
        }
        for (node_idx, sub_idx) in targets {
            self.deliver(node_idx, sub_idx, msg.clone());
        }
    }

    fn deliver(&self, node_idx: usize, sub_idx: usize, msg: Message<M>) {
        // The fault plane intercepts deliveries only once armed; an
        // empty plan takes the single-branch fast path below.
        if self.inner.borrow().faults_armed {
            enum Intercept {
                Pass,
                Lost { node: String, topic: String },
                Duplicate { node: String, topic: String },
            }
            let (intercept, observer, now) = {
                let mut inner = self.inner.borrow_mut();
                let now = inner.sim.now();
                let observer = inner.observer.clone();
                let (node_name, topic, down) = {
                    let slot = &inner.nodes[node_idx];
                    (slot.name.clone(), slot.subs[sub_idx].topic.clone(), slot.down)
                };
                let intercept = if down {
                    inner.lost_to_fault += 1;
                    Intercept::Lost { node: node_name, topic }
                } else {
                    let hit = inner
                        .edge_faults
                        .iter_mut()
                        .find(|f| {
                            f.topic == topic && f.node == node_name && f.window.contains(&now)
                        })
                        .map(|f| (f.rng.next_f64() < f.rate, f.kind));
                    match hit {
                        Some((true, EdgeFaultKind::Drop)) => {
                            inner.lost_to_fault += 1;
                            Intercept::Lost { node: node_name, topic }
                        }
                        Some((true, EdgeFaultKind::Duplicate)) => {
                            inner.duplicated_by_fault += 1;
                            Intercept::Duplicate { node: node_name, topic }
                        }
                        _ => Intercept::Pass,
                    }
                };
                (intercept, observer, now)
            };
            match intercept {
                Intercept::Lost { node, topic } => {
                    if let Some(obs) = &observer {
                        obs.borrow_mut().fault_event(FaultKind::MessageLost, &node, &topic, now);
                    }
                    return;
                }
                Intercept::Duplicate { node, topic } => {
                    if let Some(obs) = &observer {
                        obs.borrow_mut().fault_event(
                            FaultKind::MessageDuplicated,
                            &node,
                            &topic,
                            now,
                        );
                    }
                    self.deliver_to_sub(node_idx, sub_idx, msg.clone());
                    self.deliver_to_sub(node_idx, sub_idx, msg);
                    return;
                }
                Intercept::Pass => {}
            }
        }
        self.deliver_to_sub(node_idx, sub_idx, msg);
    }

    fn deliver_to_sub(&self, node_idx: usize, sub_idx: usize, msg: Message<M>) {
        enum Action<M> {
            Enqueued { topic: String, node: String, depth: usize, dropped_to: Option<usize> },
            Start(PendingMsg<M>),
        }
        let (action, observer, now) = {
            let mut inner = self.inner.borrow_mut();
            let now = inner.sim.now();
            let observer = inner.observer.clone();
            let slot = &mut inner.nodes[node_idx];
            let topic = slot.subs[sub_idx].topic.clone();
            slot.subs[sub_idx].delivered += 1;
            let action = if slot.busy {
                let node_name = slot.name.clone();
                let sub = &mut slot.subs[sub_idx];
                sub.queue.push_back(PendingMsg { topic: topic.clone(), msg, arrival: now });
                let depth = sub.queue.len();
                let dropped_to = if depth > sub.capacity {
                    sub.queue.pop_front();
                    sub.dropped += 1;
                    Some(sub.queue.len())
                } else {
                    None
                };
                Action::Enqueued { topic, node: node_name, depth, dropped_to }
            } else {
                slot.busy = true;
                slot.busy_since = now;
                Action::Start(PendingMsg { topic, msg, arrival: now })
            };
            (action, observer, now)
        };
        match action {
            Action::Enqueued { topic, node, depth, dropped_to } => {
                if let Some(obs) = &observer {
                    obs.borrow_mut().message_enqueued(&topic, &node, depth, now);
                    if let Some(drop_depth) = dropped_to {
                        obs.borrow_mut().message_dropped(&topic, &node, drop_depth, now);
                    }
                }
            }
            Action::Start(pending) => self.start_processing(node_idx, pending),
        }
    }

    fn start_processing(&self, node_idx: usize, pending: PendingMsg<M>) {
        let (node_rc, node_name, started, stall, epoch) = {
            let inner = self.inner.borrow();
            let slot = &inner.nodes[node_idx];
            debug_assert!(slot.busy, "node must be marked busy before processing");
            (Rc::clone(&slot.node), slot.name.clone(), inner.sim.now(), slot.stall, slot.epoch)
        };
        let input_lineage = pending.msg.header.lineage.clone();
        let mut outbox = Outbox::new(input_lineage.clone());
        let execution: Execution =
            node_rc.borrow_mut().on_message(&pending.topic, &pending.msg, &mut outbox);
        let mut phases = VecDeque::from(execution.phases);
        // Stall fault: a callback starting inside the window blocks
        // until the window closes before doing its real work.
        if let Some((from, to)) = stall {
            if started >= from && started < to {
                phases.push_front(Phase::Wait { duration: to.saturating_since(started) });
            }
        }
        let state = ExecState {
            node_idx,
            node_name,
            topic: pending.topic,
            arrival: pending.arrival,
            started,
            phases,
            outbox_items: outbox.into_items(),
            input_lineage,
            epoch,
        };
        self.advance(state);
    }

    fn advance(&self, mut state: ExecState<M>) {
        // Every device/wait phase parks the execution state in the
        // in-flight slab and schedules a continuation that captures only
        // the slab token. `submit`/`schedule_in` each create exactly one
        // DES event, so peeking `next_seq` just before the call records
        // that event's identity for checkpointing.
        match state.phases.pop_front() {
            Some(Phase::Cpu { demand, mem_intensity }) => {
                let bus = self.clone();
                let (cpu, demand, sim, token) = {
                    let mut inner = self.inner.borrow_mut();
                    let factor = inner.dilation(state.node_idx);
                    let demand = if factor == 1.0 { demand } else { demand.mul_f64(factor) };
                    let token = inner.next_token;
                    inner.next_token += 1;
                    (inner.platform.cpu().clone(), demand, inner.sim.clone(), token)
                };
                let task = CpuTask::new(state.node_name.clone(), demand, mem_intensity);
                let seq = sim.next_seq();
                let resume_at = cpu.submit(task, move || bus.resume_token(token));
                self.inner.borrow_mut().in_flight.insert(token, InFlight { state, resume_at, seq });
            }
            Some(Phase::Gpu { kernel_time, copy_bytes, energy_j }) => {
                let bus = self.clone();
                let (gpu, kernel_time, sim, token) = {
                    let mut inner = self.inner.borrow_mut();
                    let factor = inner.dilation(state.node_idx);
                    let kernel_time =
                        if factor == 1.0 { kernel_time } else { kernel_time.mul_f64(factor) };
                    let token = inner.next_token;
                    inner.next_token += 1;
                    (inner.platform.gpu().clone(), kernel_time, inner.sim.clone(), token)
                };
                let job = GpuJob::new(state.node_name.clone(), kernel_time, copy_bytes, energy_j);
                let seq = sim.next_seq();
                let resume_at = gpu.submit(job, move || bus.resume_token(token));
                self.inner.borrow_mut().in_flight.insert(token, InFlight { state, resume_at, seq });
            }
            Some(Phase::Wait { duration }) => {
                let bus = self.clone();
                let (sim, token) = {
                    let mut inner = self.inner.borrow_mut();
                    let token = inner.next_token;
                    inner.next_token += 1;
                    (inner.sim.clone(), token)
                };
                let seq = sim.next_seq();
                let resume_at = sim.now() + duration;
                sim.schedule_in(duration, move || bus.resume_token(token));
                self.inner.borrow_mut().in_flight.insert(token, InFlight { state, resume_at, seq });
            }
            None => self.complete(state),
        }
    }

    /// Continues an execution parked in the in-flight slab.
    fn resume_token(&self, token: u64) {
        let entry = self
            .inner
            .borrow_mut()
            .in_flight
            .remove(&token)
            .unwrap_or_else(|| panic!("in-flight token {token} fired twice"));
        self.advance(entry.state);
    }

    fn complete(&self, state: ExecState<M>) {
        // A callback whose process crashed mid-flight (epoch bumped)
        // belongs to a dead instance: its outputs are never published
        // and its completion is not observed. The crash already
        // finalized the slot's busy accounting and cleared its queues.
        if self.inner.borrow().nodes[state.node_idx].epoch != state.epoch {
            return;
        }
        let (observer, now) = {
            let inner = self.inner.borrow();
            (inner.observer.clone(), inner.sim.now())
        };

        // Output lineage: the input's, merged with anything the node fused
        // in explicitly.
        let mut lineage = state.input_lineage.clone();
        for (_, _, item_lineage) in &state.outbox_items {
            lineage.merge(item_lineage);
        }

        if let Some(obs) = &observer {
            let event = ProcessedEvent {
                node: state.node_name.clone(),
                topic: state.topic.clone(),
                arrival: state.arrival,
                started: state.started,
                completed: now,
                lineage,
                published: state.outbox_items.iter().map(|(t, _, _)| t.clone()).collect(),
            };
            obs.borrow_mut().node_processed(&event);
        }

        // Publish outputs while the node is still marked busy, so a
        // self-loop message queues rather than recursing.
        for (topic, payload, item_lineage) in state.outbox_items {
            self.publish(&topic, payload, item_lineage);
        }

        // Pull the next pending message or go idle. Under FIFO the
        // earliest arrival wins (ties by subscription order) — the
        // pre-policy order, bit for bit. Non-FIFO policies rank the
        // head of every queue by urgency key (lower first), with the
        // FIFO order as the deterministic tie-break, and report the
        // decision to the observer whenever there was a real choice.
        let (next, dequeued, decision) = {
            let mut inner = self.inner.borrow_mut();
            let policy = inner.sched;
            let budget = inner.sched_budget;
            let slot = &mut inner.nodes[state.node_idx];
            let mut considered = 0u64;
            let best = slot
                .subs
                .iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    s.queue.front().map(|p| {
                        considered += 1;
                        let key = match policy {
                            SchedPolicyKind::Fifo => 0,
                            _ => policy.key(&ready_item(s, p, budget)),
                        };
                        (i, key, p.arrival)
                    })
                })
                .min_by_key(|&(_, key, arrival)| (key, arrival))
                .map(|(i, key, _)| (i, key));
            match best {
                Some((sub_idx, key)) => {
                    let pending = slot.subs[sub_idx].queue.pop_front();
                    let depth = slot.subs[sub_idx].queue.len();
                    let topic = slot.subs[sub_idx].topic.clone();
                    let decision = (policy != SchedPolicyKind::Fifo && considered >= 2)
                        .then(|| (topic.clone(), considered, key as i64));
                    (pending, Some((topic, slot.name.clone(), depth)), decision)
                }
                None => {
                    slot.busy = false;
                    slot.busy_accum += now.saturating_since(slot.busy_since);
                    (None, None, None)
                }
            }
        };
        if let Some((topic, considered, key)) = decision {
            if let Some(obs) = &observer {
                obs.borrow_mut().sched_decision(&state.node_name, &topic, considered, key, now);
            }
        }
        if let Some((topic, node, depth)) = dequeued {
            if let Some(obs) = &observer {
                obs.borrow_mut().message_dequeued(&topic, &node, depth, now);
            }
        }
        if let Some(pending) = next {
            self.start_processing(state.node_idx, pending);
        }
    }

    /// Number of messages published on `topic`.
    pub fn published_count(&self, topic: &str) -> u64 {
        self.inner.borrow().topics.get(topic).map(|t| t.published).unwrap_or(0)
    }

    /// Publication statistics for every topic seen, sorted by name.
    pub fn topic_stats(&self) -> Vec<TopicStats> {
        let inner = self.inner.borrow();
        let mut stats: Vec<TopicStats> = inner
            .topics
            .iter()
            .map(|(topic, s)| TopicStats { topic: topic.clone(), published: s.published })
            .collect();
        stats.sort_by(|a, b| a.topic.cmp(&b.topic));
        stats
    }

    /// Delivery/drop statistics for every subscription, sorted by
    /// `(topic, node)`.
    pub fn drop_stats(&self) -> Vec<DropStats> {
        let inner = self.inner.borrow();
        let mut stats: Vec<DropStats> = inner
            .nodes
            .iter()
            .flat_map(|slot| {
                slot.subs.iter().map(|sub| DropStats {
                    topic: sub.topic.clone(),
                    node: slot.name.clone(),
                    delivered: sub.delivered,
                    dropped: sub.dropped,
                })
            })
            .collect();
        stats.sort_by(|a, b| (&a.topic, &a.node).cmp(&(&b.topic, &b.node)));
        stats
    }

    /// Names of registered nodes, in registration order.
    pub fn node_names(&self) -> Vec<String> {
        self.inner.borrow().nodes.iter().map(|s| s.name.clone()).collect()
    }

    /// Current queue depth of every subscription as `(topic, node, depth)`,
    /// in node-registration order (stable across runs — used by the trace
    /// sampler).
    pub fn queue_depths(&self) -> Vec<(String, String, usize)> {
        let inner = self.inner.borrow();
        inner
            .nodes
            .iter()
            .flat_map(|slot| {
                slot.subs
                    .iter()
                    .map(move |sub| (sub.topic.clone(), slot.name.clone(), sub.queue.len()))
            })
            .collect()
    }

    // --- Fault plane ----------------------------------------------------

    /// Crashes `name`: its callback stops firing, any in-flight callback
    /// is orphaned (outputs suppressed), queued input is discarded, and
    /// every message delivered while down is lost. Reversed by
    /// [`Bus::restart_node`].
    ///
    /// # Panics
    ///
    /// Panics if no node called `name` is registered.
    pub fn crash_node(&self, name: &str) {
        let (observer, now, lost) = {
            let mut inner = self.inner.borrow_mut();
            let now = inner.sim.now();
            inner.faults_armed = true;
            let idx = inner.node_index(name);
            let slot = &mut inner.nodes[idx];
            slot.down = true;
            slot.epoch += 1;
            if slot.busy {
                slot.busy = false;
                slot.busy_accum += now.saturating_since(slot.busy_since);
            }
            let mut lost = 0u64;
            for sub in &mut slot.subs {
                lost += sub.queue.len() as u64;
                sub.queue.clear();
            }
            inner.lost_to_fault += lost;
            (inner.observer.clone(), now, lost)
        };
        if let Some(obs) = &observer {
            obs.borrow_mut().fault_event(FaultKind::Crash, name, &format!("lost={lost}"), now);
        }
    }

    /// Restarts a crashed node: deliveries resume and the node's
    /// [`Node::on_restart`] hook runs so it can shed the in-memory
    /// state a fresh process would not have.
    ///
    /// # Panics
    ///
    /// Panics if no node called `name` is registered.
    pub fn restart_node(&self, name: &str) {
        let (observer, now, node_rc) = {
            let mut inner = self.inner.borrow_mut();
            let now = inner.sim.now();
            let idx = inner.node_index(name);
            let slot = &mut inner.nodes[idx];
            slot.down = false;
            let node_rc = Rc::clone(&slot.node);
            (inner.observer.clone(), now, node_rc)
        };
        node_rc.borrow_mut().on_restart();
        if let Some(obs) = &observer {
            obs.borrow_mut().fault_event(FaultKind::Restart, name, "", now);
        }
    }

    /// `true` while `name` is crashed.
    ///
    /// # Panics
    ///
    /// Panics if no node called `name` is registered.
    pub fn is_down(&self, name: &str) -> bool {
        let inner = self.inner.borrow();
        inner.nodes[inner.node_index(name)].down
    }

    /// Stalls `name`: callbacks starting in `[from, to)` block until
    /// `to` before doing their work (the node stays busy, queues back
    /// up, no CPU/GPU demand accrues).
    pub fn set_stall(&self, name: &str, from: SimTime, to: SimTime) {
        let mut inner = self.inner.borrow_mut();
        inner.faults_armed = true;
        let idx = inner.node_index(name);
        inner.nodes[idx].stall = Some((from, to));
    }

    /// Inflates `name`'s service time by `factor` for phases dispatched
    /// in `[from, to)`.
    pub fn set_slow(&self, name: &str, factor: f64, from: SimTime, to: SimTime) {
        assert!(factor.is_finite() && factor > 0.0, "slow factor must be finite and positive");
        let mut inner = self.inner.borrow_mut();
        inner.faults_armed = true;
        let idx = inner.node_index(name);
        inner.nodes[idx].slow = Some((factor, from, to));
    }

    /// Drops or duplicates (`kind`) each message delivered on `topic` to
    /// `node` inside `window` with probability `rate`, drawing from `rng`
    /// (a dedicated stream, so other consumers stay phase-aligned).
    pub fn set_edge_fault(
        &self,
        topic: &str,
        node: &str,
        kind: EdgeFaultKind,
        rate: f64,
        window: Range<SimTime>,
        rng: StreamRng,
    ) {
        assert!((0.0..=1.0).contains(&rate), "edge fault rate must be in [0, 1]");
        let mut inner = self.inner.borrow_mut();
        inner.faults_armed = true;
        let (topic, node) = (topic.to_string(), node.to_string());
        inner.edge_faults.push(EdgeFault { topic, node, kind, rate, window, rng });
    }

    /// Forwards a fault/supervision event to the observer at the current
    /// instant — the seam the supervision layer announces heartbeat
    /// misses, fallback transitions and plan activations through.
    pub fn emit_fault(&self, kind: FaultKind, node: &str, info: &str) {
        let (observer, now) = {
            let inner = self.inner.borrow();
            (inner.observer.clone(), inner.sim.now())
        };
        if let Some(obs) = &observer {
            obs.borrow_mut().fault_event(kind, node, info, now);
        }
    }

    /// Messages lost to faults (down-node deliveries, edge drops, and
    /// queue contents discarded by crashes).
    pub fn fault_lost_count(&self) -> u64 {
        self.inner.borrow().lost_to_fault
    }

    /// Messages duplicated by edge faults.
    pub fn fault_duplicated_count(&self) -> u64 {
        self.inner.borrow().duplicated_by_fault
    }

    // --- Checkpointing --------------------------------------------------

    /// Saves or restores all dynamic bus state: topic counters,
    /// subscription queues and stats, node-slot dynamics plus each node's
    /// internal state (via [`Node::snap`]), fault counters and edge-fault
    /// RNG positions, and every in-flight callback execution.
    ///
    /// Static structure — registered nodes, subscriptions, observer,
    /// stall/slow windows — is *not* saved; resume rebuilds it from the
    /// same configuration, then overlays this dynamic state.
    ///
    /// Loading returns the reconstructed in-flight continuations (saving
    /// returns none). The caller must merge them with its other restored
    /// events, sort everything by `(time, seq)`, and hand each
    /// continuation back to [`Bus::schedule_restored`] in that order.
    ///
    /// # Panics
    ///
    /// Loading panics if the bus structure (node names, subscription
    /// counts, edge-fault count) does not match the checkpoint.
    pub fn snap(&self, s: &mut Snap<'_>) -> Vec<RestoredContinuation>
    where
        M: Leaf,
    {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;

        s.tag("bus.topics");
        s.map(&mut inner.topics, |s, topic| {
            s.u64(&mut topic.seq);
            s.u64(&mut topic.published);
        });

        s.tag("bus.nodes");
        s.check_len(inner.nodes.len(), "checkpoint node count mismatch");
        for slot in &mut inner.nodes {
            s.check_str(&slot.name, "checkpoint node order mismatch");
            s.bool(&mut slot.busy);
            s.time(&mut slot.busy_since);
            s.dur(&mut slot.busy_accum);
            s.bool(&mut slot.down);
            s.u64(&mut slot.epoch);
            s.check_len(slot.subs.len(), "checkpoint subscription count mismatch");
            for sub in &mut slot.subs {
                s.u64(&mut sub.delivered);
                s.u64(&mut sub.dropped);
                let mut queue: Vec<(SimTime, Message<M>)> =
                    sub.queue.iter().map(|p| (p.arrival, p.msg.clone())).collect();
                s.leaf(&mut queue);
                if s.is_load() {
                    let topic = &sub.topic;
                    sub.queue = queue
                        .into_iter()
                        .map(|(arrival, msg)| PendingMsg { topic: topic.clone(), msg, arrival })
                        .collect();
                }
            }
            slot.node.borrow_mut().snap(s);
        }

        s.tag("bus.faults");
        s.bool(&mut inner.faults_armed);
        s.check_len(inner.edge_faults.len(), "checkpoint edge-fault count mismatch");
        for fault in &mut inner.edge_faults {
            fault.rng.snap(s);
        }
        s.u64(&mut inner.lost_to_fault);
        s.u64(&mut inner.duplicated_by_fault);

        s.tag("bus.inflight");
        let mut n_inflight = inner.in_flight.len();
        s.usize(&mut n_inflight);
        if !s.is_load() {
            inner.in_flight.values_mut().for_each(|entry| entry.snap(s));
            return Vec::new();
        }
        (0..n_inflight)
            .map(|_| {
                let mut entry = InFlight::blank();
                entry.snap(s);
                entry.state.node_name = inner.nodes[entry.state.node_idx].name.clone();
                let token = inner.next_token;
                inner.next_token += 1;
                let time = entry.resume_at;
                let seq = entry.seq;
                inner.in_flight.insert(token, entry);
                RestoredContinuation { time, seq, token }
            })
            .collect()
    }

    /// Schedules one continuation returned by [`Bus::snap`]. Must be
    /// called in globally sorted `(time, seq)` order relative to every
    /// other restored event so equal-time ties replay in original order.
    pub fn schedule_restored(&self, c: RestoredContinuation) {
        let (sim, new_seq) = {
            let inner = self.inner.borrow();
            (inner.sim.clone(), inner.sim.next_seq())
        };
        // Re-stamp the slab entry with the event identity it has in the
        // resumed run, so a later checkpoint of this session saves the
        // ordering that is actually live.
        if let Some(entry) = self.inner.borrow_mut().in_flight.get_mut(&c.token) {
            entry.seq = new_seq;
        }
        let bus = self.clone();
        sim.schedule_at(c.time, move || bus.resume_token(c.token));
    }

    /// Cumulative busy (callback-executing) time per node as of the current
    /// simulated instant, including any in-flight callback, in
    /// node-registration order.
    pub fn node_busy_times(&self) -> Vec<(String, SimDuration)> {
        let inner = self.inner.borrow();
        let now = inner.sim.now();
        inner
            .nodes
            .iter()
            .map(|slot| {
                let mut busy = slot.busy_accum;
                if slot.busy {
                    busy += now.saturating_since(slot.busy_since);
                }
                (slot.name.clone(), busy)
            })
            .collect()
    }
}

/// The scheduling-relevant view of one pending message: its priority
/// rank and downstream chain cost come from the subscription's static
/// metadata; its deadline is the earliest lineage acquisition stamp
/// (the moment the oldest contributing sensor sample left its device —
/// the path's release time) plus the configured budget, falling back
/// to the local arrival time for lineage-free messages.
fn ready_item<M>(sub: &Subscription<M>, pending: &PendingMsg<M>, budget: SimDuration) -> ReadyItem {
    let release =
        pending.msg.header.lineage.iter().map(|(_, stamp)| stamp).min().unwrap_or(pending.arrival);
    ReadyItem {
        rank: sub.rank,
        arrival: pending.arrival,
        deadline: release + budget,
        downstream_cost: sub.downstream,
    }
}

impl<M: 'static> fmt::Debug for Bus<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Bus")
            .field("nodes", &inner.nodes.len())
            .field("topics", &inner.topics.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Source;
    use av_des::SimDuration;
    use av_platform::{CpuConfig, GpuConfig};

    fn test_platform(sim: &Sim, cores: usize) -> Platform {
        Platform::new(
            sim,
            CpuConfig {
                cores,
                dispatch_overhead: SimDuration::ZERO,
                mem_bandwidth: 1.0,
                contention_exponent: 1.0,
            },
            GpuConfig { copy_bandwidth: 1e12, launch_overhead: SimDuration::ZERO },
        )
    }

    /// A node that forwards its input after a fixed CPU burst.
    struct Relay {
        out_topic: &'static str,
        cost: SimDuration,
    }

    impl Node<u64> for Relay {
        fn on_message(&mut self, _t: &str, msg: &Message<u64>, out: &mut Outbox<u64>) -> Execution {
            out.publish(self.out_topic, *msg.payload);
            Execution::cpu(self.cost, 0.0)
        }
    }

    #[derive(Default)]
    struct Recorder {
        events: Vec<ProcessedEvent>,
        drops: Vec<(String, String, usize)>,
        enqueues: Vec<(String, String, usize)>,
        dequeues: Vec<(String, String, usize)>,
        published: Vec<(String, u64)>,
        faults: Vec<(FaultKind, String, String)>,
        scheds: Vec<(String, String, u64, i64)>,
    }

    impl BusObserver for Rc<RefCell<Recorder>> {
        fn node_processed(&mut self, event: &ProcessedEvent) {
            self.borrow_mut().events.push(event.clone());
        }
        fn message_dropped(&mut self, topic: &str, node: &str, depth: usize, _time: SimTime) {
            self.borrow_mut().drops.push((topic.to_string(), node.to_string(), depth));
        }
        fn message_enqueued(&mut self, topic: &str, node: &str, depth: usize, _time: SimTime) {
            self.borrow_mut().enqueues.push((topic.to_string(), node.to_string(), depth));
        }
        fn message_dequeued(&mut self, topic: &str, node: &str, depth: usize, _time: SimTime) {
            self.borrow_mut().dequeues.push((topic.to_string(), node.to_string(), depth));
        }
        fn message_published(&mut self, topic: &str, header: &Header, _time: SimTime) {
            self.borrow_mut().published.push((topic.to_string(), header.seq));
        }
        fn fault_event(&mut self, kind: FaultKind, node: &str, info: &str, _time: SimTime) {
            self.borrow_mut().faults.push((kind, node.to_string(), info.to_string()));
        }
        fn sched_decision(
            &mut self,
            node: &str,
            topic: &str,
            considered: u64,
            key: i64,
            _time: SimTime,
        ) {
            self.borrow_mut().scheds.push((node.to_string(), topic.to_string(), considered, key));
        }
    }

    #[test]
    fn pipeline_propagates_with_modeled_latency() {
        let sim = Sim::new();
        let platform = test_platform(&sim, 4);
        let bus: Bus<u64> = Bus::new(&sim, &platform);
        let rec = Rc::new(RefCell::new(Recorder::default()));
        bus.set_observer(Rc::clone(&rec));

        bus.add_node(
            "a",
            Relay { out_topic: "mid", cost: SimDuration::from_millis(10) },
            &[SubscriptionSpec::new("in", 1)],
        );
        bus.add_node(
            "b",
            Relay { out_topic: "out", cost: SimDuration::from_millis(5) },
            &[SubscriptionSpec::new("mid", 1)],
        );

        bus.publish("in", 7, Lineage::origin(Source::Lidar, SimTime::ZERO));
        sim.run();

        assert_eq!(bus.published_count("mid"), 1);
        assert_eq!(bus.published_count("out"), 1);
        let rec = rec.borrow();
        assert_eq!(rec.events.len(), 2);
        let a = &rec.events[0];
        assert_eq!(a.node, "a");
        assert_eq!(a.latency(), SimDuration::from_millis(10));
        let b = &rec.events[1];
        assert_eq!(b.node, "b");
        assert_eq!(b.completed, SimTime::from_millis(15));
        // Lineage survived the chain.
        assert_eq!(b.lineage.stamp_of(Source::Lidar), Some(SimTime::ZERO));
    }

    #[test]
    fn busy_node_queues_and_drops_oldest() {
        let sim = Sim::new();
        let platform = test_platform(&sim, 4);
        let bus: Bus<u64> = Bus::new(&sim, &platform);
        let rec = Rc::new(RefCell::new(Recorder::default()));
        bus.set_observer(Rc::clone(&rec));

        bus.add_node(
            "slow",
            Relay { out_topic: "out", cost: SimDuration::from_millis(30) },
            &[SubscriptionSpec::new("in", 1)],
        );

        // Publish 4 messages at 10 ms intervals; the node takes 30 ms.
        for i in 0..4u64 {
            let bus = bus.clone();
            sim.schedule_at(SimTime::from_millis(i * 10), move || {
                bus.publish("in", i, Lineage::empty());
            });
        }
        sim.run();

        // msg0 processes 0..30; msg1 queued at 10, dropped when msg2
        // arrives at 20; msg2 dropped when msg3 arrives at 30... msg3
        // processes. Exactly 2 processed, 2 dropped.
        let stats = bus.drop_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].delivered, 4);
        assert_eq!(stats[0].dropped, 2);
        assert!((stats[0].drop_rate() - 0.5).abs() < 1e-12);
        let rec = rec.borrow();
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.drops.len(), 2);
        // msg1..msg3 queued behind the busy node; msg1 and msg2 were
        // displaced, msg3 was pulled when msg0 completed.
        assert_eq!(rec.enqueues.len(), 3);
        assert_eq!(rec.dequeues.len(), 1);
        // Conservation: every enqueue is resolved by a dequeue or a drop.
        assert_eq!(rec.enqueues.len(), rec.dequeues.len() + rec.drops.len());
        // Depths: enqueue reports depth after push, drop after displacement.
        assert_eq!(rec.enqueues.iter().map(|e| e.2).collect::<Vec<_>>(), vec![1, 2, 2]);
        assert_eq!(rec.drops.iter().map(|d| d.2).collect::<Vec<_>>(), vec![1, 1]);
        assert_eq!(rec.dequeues[0].2, 0);
        // Queues drained; the node was busy 0..30 and 30..60.
        assert!(bus.queue_depths().iter().all(|&(_, _, depth)| depth == 0));
        let busy = bus.node_busy_times();
        assert_eq!(busy, vec![("slow".to_string(), SimDuration::from_millis(60))]);
    }

    #[test]
    fn queued_message_latency_includes_wait() {
        let sim = Sim::new();
        let platform = test_platform(&sim, 4);
        let bus: Bus<u64> = Bus::new(&sim, &platform);
        let rec = Rc::new(RefCell::new(Recorder::default()));
        bus.set_observer(Rc::clone(&rec));

        bus.add_node(
            "n",
            Relay { out_topic: "out", cost: SimDuration::from_millis(20) },
            &[SubscriptionSpec::new("in", 1)],
        );
        bus.publish("in", 0, Lineage::empty());
        let b2 = bus.clone();
        sim.schedule_at(SimTime::from_millis(5), move || b2.publish("in", 1, Lineage::empty()));
        sim.run();

        let rec = rec.borrow();
        assert_eq!(rec.events.len(), 2);
        // Second message arrived at 5, started at 20, completed at 40.
        let e = &rec.events[1];
        assert_eq!(e.arrival, SimTime::from_millis(5));
        assert_eq!(e.started, SimTime::from_millis(20));
        assert_eq!(e.latency(), SimDuration::from_millis(35));
        assert_eq!(e.processing(), SimDuration::from_millis(20));
    }

    #[test]
    fn fanout_reaches_all_subscribers() {
        let sim = Sim::new();
        let platform = test_platform(&sim, 4);
        let bus: Bus<u64> = Bus::new(&sim, &platform);
        bus.add_node(
            "x",
            Relay { out_topic: "out_x", cost: SimDuration::from_millis(1) },
            &[SubscriptionSpec::new("in", 1)],
        );
        bus.add_node(
            "y",
            Relay { out_topic: "out_y", cost: SimDuration::from_millis(1) },
            &[SubscriptionSpec::new("in", 1)],
        );
        bus.publish("in", 42, Lineage::empty());
        sim.run();
        assert_eq!(bus.published_count("out_x"), 1);
        assert_eq!(bus.published_count("out_y"), 1);
    }

    /// Builds a two-input node with one message processing (arrived at
    /// t=0 on `a`) and one message queued on each input: `a`'s queued
    /// head arrives at 1 ms carrying a *young* lineage stamp (5 ms),
    /// `b`'s head arrives at 2 ms carrying an *old* stamp (0 ms). The
    /// pull at 10 ms is where the policies disagree.
    fn contended_bus(policy: SchedPolicyKind) -> (Sim, Bus<u64>, Rc<RefCell<Recorder>>) {
        let sim = Sim::new();
        let platform = test_platform(&sim, 4);
        let bus: Bus<u64> = Bus::new(&sim, &platform);
        let rec = Rc::new(RefCell::new(Recorder::default()));
        bus.set_observer(Rc::clone(&rec));
        let sub = |topic, rank, downstream_ms| SubscriptionSpec {
            rank,
            downstream: SimDuration::from_millis(downstream_ms),
            ..SubscriptionSpec::new(topic, 4)
        };
        bus.add_node(
            "sink",
            Relay { out_topic: "out", cost: SimDuration::from_millis(10) },
            &[sub("a", 5, 10), sub("b", 1, 70)],
        );
        bus.set_sched_policy(policy, SimDuration::from_millis(100));
        bus.publish("a", 0, Lineage::origin(Source::Lidar, SimTime::ZERO));
        for (at_ms, topic, stamp_ms) in [(1u64, "a", 5u64), (2, "b", 0)] {
            let bus = bus.clone();
            sim.schedule_at(SimTime::from_millis(at_ms), move || {
                bus.publish(
                    topic,
                    1,
                    Lineage::origin(Source::Lidar, SimTime::from_millis(stamp_ms)),
                );
            });
        }
        (sim, bus, rec)
    }

    fn first_pull(rec: &Rc<RefCell<Recorder>>) -> (String, String) {
        let rec = rec.borrow();
        let (topic, node, _) = rec.dequeues.first().expect("a message was pulled").clone();
        (topic, node)
    }

    #[test]
    fn fifo_pull_is_earliest_arrival_and_reports_no_decisions() {
        let (sim, _bus, rec) = contended_bus(SchedPolicyKind::Fifo);
        sim.run();
        assert_eq!(first_pull(&rec), ("a".to_string(), "sink".to_string()));
        assert!(rec.borrow().scheds.is_empty(), "FIFO must never emit sched decisions");
    }

    #[test]
    fn edf_pull_prefers_the_older_lineage_release() {
        let (sim, _bus, rec) = contended_bus(SchedPolicyKind::Edf);
        sim.run();
        // b's head left its sensor at 0 ms => deadline 100 ms, vs a's
        // 5 ms => 105 ms: EDF overrides b's later arrival.
        assert_eq!(first_pull(&rec), ("b".to_string(), "sink".to_string()));
        let scheds = rec.borrow().scheds.clone();
        assert_eq!(scheds[0].0, "sink");
        assert_eq!(scheds[0].1, "b");
        assert_eq!(scheds[0].2, 2, "both heads were candidates");
        assert_eq!(scheds[0].3, SimDuration::from_millis(100).as_nanos() as i64);
    }

    #[test]
    fn priority_pull_prefers_the_lower_rank() {
        let (sim, _bus, rec) = contended_bus(SchedPolicyKind::Priority);
        sim.run();
        assert_eq!(first_pull(&rec), ("b".to_string(), "sink".to_string()));
        assert_eq!(rec.borrow().scheds[0].3, 1);
    }

    #[test]
    fn chain_aware_pull_prefers_the_longer_remaining_chain() {
        let (sim, _bus, rec) = contended_bus(SchedPolicyKind::ChainAware);
        sim.run();
        // slack(b) = 100 − 70 = 30 ms < slack(a) = 105 − 10 = 95 ms.
        assert_eq!(first_pull(&rec), ("b".to_string(), "sink".to_string()));
        assert_eq!(rec.borrow().scheds[0].3, SimDuration::from_millis(30).as_nanos() as i64);
    }

    /// A node that merges a cached lineage into its output (fusion-style).
    struct Fuser {
        cached: Option<Lineage>,
    }

    impl Node<u64> for Fuser {
        fn on_message(
            &mut self,
            topic: &str,
            msg: &Message<u64>,
            out: &mut Outbox<u64>,
        ) -> Execution {
            match topic {
                "lidar_objs" => {
                    self.cached = Some(msg.header.lineage.clone());
                    Execution::instant()
                }
                _ => {
                    let mut lineage = msg.header.lineage.clone();
                    if let Some(cached) = &self.cached {
                        lineage.merge(cached);
                    }
                    out.publish_with_lineage("fused", *msg.payload, lineage);
                    Execution::cpu(SimDuration::from_millis(2), 0.0)
                }
            }
        }
    }

    #[test]
    fn fusion_merges_lineages() {
        let sim = Sim::new();
        let platform = test_platform(&sim, 4);
        let bus: Bus<u64> = Bus::new(&sim, &platform);
        let rec = Rc::new(RefCell::new(Recorder::default()));
        bus.set_observer(Rc::clone(&rec));

        bus.add_node(
            "fusion",
            Fuser { cached: None },
            &[SubscriptionSpec::new("lidar_objs", 1), SubscriptionSpec::new("vision_objs", 1)],
        );
        bus.publish("lidar_objs", 1, Lineage::origin(Source::Lidar, SimTime::from_millis(1)));
        let b = bus.clone();
        sim.schedule_at(SimTime::from_millis(10), move || {
            b.publish("vision_objs", 2, Lineage::origin(Source::Camera, SimTime::from_millis(10)));
        });
        sim.run();

        let rec = rec.borrow();
        let fused = rec.events.iter().find(|e| e.published.contains(&"fused".to_string())).unwrap();
        assert_eq!(fused.lineage.stamp_of(Source::Lidar), Some(SimTime::from_millis(1)));
        assert_eq!(fused.lineage.stamp_of(Source::Camera), Some(SimTime::from_millis(10)));
    }

    /// A node with a CPU→GPU→CPU execution (vision-detector shape).
    struct GpuUser;

    impl Node<u64> for GpuUser {
        fn on_message(&mut self, _t: &str, msg: &Message<u64>, out: &mut Outbox<u64>) -> Execution {
            out.publish("out", *msg.payload);
            Execution::cpu(SimDuration::from_millis(2), 0.0)
                .then_gpu(SimDuration::from_millis(10), 0, 0.1)
                .then_cpu(SimDuration::from_millis(3), 0.0)
        }
    }

    #[test]
    fn gpu_phases_serialize_between_nodes() {
        let sim = Sim::new();
        let platform = test_platform(&sim, 8);
        let bus: Bus<u64> = Bus::new(&sim, &platform);
        let rec = Rc::new(RefCell::new(Recorder::default()));
        bus.set_observer(Rc::clone(&rec));

        bus.add_node("g1", GpuUser, &[SubscriptionSpec::new("in1", 1)]);
        bus.add_node("g2", GpuUser, &[SubscriptionSpec::new("in2", 1)]);
        bus.publish("in1", 1, Lineage::empty());
        bus.publish("in2", 2, Lineage::empty());
        sim.run();

        let rec = rec.borrow();
        // Both start CPU at 0 (8 cores), reach the GPU at 2 ms; kernels
        // serialize: g1 finishes GPU at 12, g2 at 22. Final CPU bursts:
        // g1 completes at 15, g2 at 25.
        let done: Vec<SimTime> = rec.events.iter().map(|e| e.completed).collect();
        assert!(done.contains(&SimTime::from_millis(15)));
        assert!(done.contains(&SimTime::from_millis(25)));
        let gpu_stats = platform.gpu().stats();
        assert_eq!(gpu_stats.jobs_completed, 2);
        assert_eq!(gpu_stats.total_wait, SimDuration::from_millis(10));
    }

    #[test]
    fn self_loop_queues_instead_of_recursing() {
        struct SelfLoop {
            remaining: u32,
        }
        impl Node<u64> for SelfLoop {
            fn on_message(
                &mut self,
                _t: &str,
                msg: &Message<u64>,
                out: &mut Outbox<u64>,
            ) -> Execution {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    out.publish("loop", *msg.payload + 1);
                }
                Execution::cpu(SimDuration::from_millis(1), 0.0)
            }
        }
        let sim = Sim::new();
        let platform = test_platform(&sim, 1);
        let bus: Bus<u64> = Bus::new(&sim, &platform);
        bus.add_node("looper", SelfLoop { remaining: 5 }, &[SubscriptionSpec::new("loop", 1)]);
        bus.publish("loop", 0, Lineage::empty());
        sim.run();
        assert_eq!(bus.published_count("loop"), 6);
        assert_eq!(sim.now(), SimTime::from_millis(6));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_node_name_panics() {
        let sim = Sim::new();
        let platform = test_platform(&sim, 1);
        let bus: Bus<u64> = Bus::new(&sim, &platform);
        bus.add_node("n", Relay { out_topic: "o", cost: SimDuration::ZERO }, &[]);
        bus.add_node("n", Relay { out_topic: "o", cost: SimDuration::ZERO }, &[]);
    }

    /// A relay that counts restarts (stateful-node shape).
    struct RestartProbe {
        out_topic: &'static str,
        cost: SimDuration,
        restarts: Rc<RefCell<u32>>,
    }

    impl Node<u64> for RestartProbe {
        fn on_message(&mut self, _t: &str, msg: &Message<u64>, out: &mut Outbox<u64>) -> Execution {
            out.publish(self.out_topic, *msg.payload);
            Execution::cpu(self.cost, 0.0)
        }
        fn on_restart(&mut self) {
            *self.restarts.borrow_mut() += 1;
        }
    }

    #[test]
    fn crash_orphans_in_flight_work_and_restart_recovers() {
        let sim = Sim::new();
        let platform = test_platform(&sim, 4);
        let bus: Bus<u64> = Bus::new(&sim, &platform);
        let rec = Rc::new(RefCell::new(Recorder::default()));
        bus.set_observer(Rc::clone(&rec));
        let restarts = Rc::new(RefCell::new(0u32));
        bus.add_node(
            "victim",
            RestartProbe {
                out_topic: "out",
                cost: SimDuration::from_millis(30),
                restarts: Rc::clone(&restarts),
            },
            &[SubscriptionSpec::new("in", 4)],
        );

        // t=0: starts a 30 ms callback. t=5: queued behind it. t=10:
        // crash — the in-flight callback is orphaned and the queued
        // message discarded. t=15: delivery to a down node is lost.
        // t=20: restart. t=25: processed normally.
        for (t, v) in [(0u64, 0u64), (5, 1), (15, 2), (25, 3)] {
            let bus = bus.clone();
            sim.schedule_at(SimTime::from_millis(t), move || {
                bus.publish("in", v, Lineage::empty());
            });
        }
        {
            let bus = bus.clone();
            sim.schedule_at(SimTime::from_millis(10), move || bus.crash_node("victim"));
        }
        {
            let bus = bus.clone();
            sim.schedule_at(SimTime::from_millis(20), move || bus.restart_node("victim"));
        }
        sim.run();

        // Only the post-restart callback published.
        assert_eq!(bus.published_count("out"), 1);
        assert_eq!(bus.fault_lost_count(), 2);
        assert_eq!(*restarts.borrow(), 1);
        assert!(!bus.is_down("victim"));
        let rec = rec.borrow();
        assert_eq!(rec.events.len(), 1);
        assert_eq!(rec.events[0].completed, SimTime::from_millis(55));
        let kinds: Vec<FaultKind> = rec.faults.iter().map(|(k, _, _)| *k).collect();
        assert_eq!(kinds, vec![FaultKind::Crash, FaultKind::MessageLost, FaultKind::Restart]);
        assert_eq!(rec.faults[0].2, "lost=1");
        // Busy accounting: 0..10 (finalized at crash) + 25..55.
        assert_eq!(
            bus.node_busy_times(),
            vec![("victim".to_string(), SimDuration::from_millis(40))]
        );
    }

    #[test]
    fn stall_window_blocks_callbacks_until_it_closes() {
        let sim = Sim::new();
        let platform = test_platform(&sim, 4);
        let bus: Bus<u64> = Bus::new(&sim, &platform);
        let rec = Rc::new(RefCell::new(Recorder::default()));
        bus.set_observer(Rc::clone(&rec));
        bus.add_node(
            "n",
            Relay { out_topic: "out", cost: SimDuration::from_millis(5) },
            &[SubscriptionSpec::new("in", 1)],
        );
        bus.set_stall("n", SimTime::ZERO, SimTime::from_millis(20));

        bus.publish("in", 0, Lineage::empty());
        let b = bus.clone();
        sim.schedule_at(SimTime::from_millis(40), move || b.publish("in", 1, Lineage::empty()));
        sim.run();

        let rec = rec.borrow();
        assert_eq!(rec.events.len(), 2);
        // In-window callback waits out the stall, then does its 5 ms.
        assert_eq!(rec.events[0].completed, SimTime::from_millis(25));
        // Post-window callback is unaffected.
        assert_eq!(rec.events[1].completed, SimTime::from_millis(45));
        // The stall occupied no CPU: only 2 × 5 ms of real demand ran.
        assert_eq!(platform.cpu().stats().total_busy, SimDuration::from_millis(10));
    }

    #[test]
    fn slow_fault_inflates_service_time_inside_its_window() {
        let sim = Sim::new();
        let platform = test_platform(&sim, 4);
        let bus: Bus<u64> = Bus::new(&sim, &platform);
        let rec = Rc::new(RefCell::new(Recorder::default()));
        bus.set_observer(Rc::clone(&rec));
        bus.add_node(
            "n",
            Relay { out_topic: "out", cost: SimDuration::from_millis(10) },
            &[SubscriptionSpec::new("in", 1)],
        );
        bus.set_slow("n", 3.0, SimTime::ZERO, SimTime::from_millis(15));

        bus.publish("in", 0, Lineage::empty());
        let b = bus.clone();
        sim.schedule_at(SimTime::from_millis(50), move || b.publish("in", 1, Lineage::empty()));
        sim.run();

        let rec = rec.borrow();
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.events[0].completed, SimTime::from_millis(30));
        assert_eq!(rec.events[1].completed, SimTime::from_millis(60));
    }

    #[test]
    fn edge_faults_drop_and_duplicate_deterministically() {
        use av_des::RngStreams;
        let sim = Sim::new();
        let platform = test_platform(&sim, 4);
        let bus: Bus<u64> = Bus::new(&sim, &platform);
        let rec = Rc::new(RefCell::new(Recorder::default()));
        bus.set_observer(Rc::clone(&rec));
        let streams = RngStreams::new(1);
        bus.add_node(
            "a",
            Relay { out_topic: "outa", cost: SimDuration::from_millis(1) },
            &[SubscriptionSpec::new("ina", 4)],
        );
        bus.add_node(
            "b",
            Relay { out_topic: "outb", cost: SimDuration::from_millis(1) },
            &[SubscriptionSpec::new("inb", 4)],
        );
        let window = SimTime::ZERO..SimTime::from_millis(10);
        let drop = streams.stream("fault-drop");
        bus.set_edge_fault("ina", "a", EdgeFaultKind::Drop, 1.0, window.clone(), drop);
        let dup = streams.stream("fault-dup");
        bus.set_edge_fault("inb", "b", EdgeFaultKind::Duplicate, 1.0, window, dup);

        bus.publish("ina", 0, Lineage::empty());
        bus.publish("inb", 0, Lineage::empty());
        let b = bus.clone();
        sim.schedule_at(SimTime::from_millis(15), move || {
            // Outside the windows: no interception.
            b.publish("ina", 1, Lineage::empty());
            b.publish("inb", 1, Lineage::empty());
        });
        sim.run();

        assert_eq!(bus.published_count("outa"), 1);
        assert_eq!(bus.published_count("outb"), 3);
        assert_eq!(bus.fault_lost_count(), 1);
        assert_eq!(bus.fault_duplicated_count(), 1);
        let rec = rec.borrow();
        let kinds: Vec<FaultKind> = rec.faults.iter().map(|(k, _, _)| *k).collect();
        assert_eq!(kinds, vec![FaultKind::MessageLost, FaultKind::MessageDuplicated]);
        // Drop stats are untouched by fault losses: the lost message
        // never reached the subscription.
        let ina = bus.drop_stats().into_iter().find(|s| s.topic == "ina").unwrap();
        assert_eq!(ina.delivered, 1);
        assert_eq!(ina.dropped, 0);
    }

    #[test]
    fn instant_nodes_relay_synchronously() {
        struct Instant0;
        impl Node<u64> for Instant0 {
            fn on_message(
                &mut self,
                _t: &str,
                msg: &Message<u64>,
                out: &mut Outbox<u64>,
            ) -> Execution {
                out.publish("relayed", *msg.payload);
                Execution::instant()
            }
        }
        let sim = Sim::new();
        let platform = test_platform(&sim, 1);
        let bus: Bus<u64> = Bus::new(&sim, &platform);
        bus.add_node("relay", Instant0, &[SubscriptionSpec::new("in", 1)]);
        bus.publish("in", 9, Lineage::empty());
        // Relay happens during publish — before running the sim at all.
        assert_eq!(bus.published_count("relayed"), 1);
    }
}
