//! Scheduler-policy oracles: the dispatch order each policy produces is
//! checked against an independent reference model, not just against a
//! recorded golden order. The keyed event heap is compared to a stable
//! sort over `(time, key, seq)`; the bus-level policies are driven on a
//! contended single-node graph where the expected pull order can be
//! derived by hand from the policy definition (EDF never dispatches a
//! later-deadline queue head before an earlier one; Priority rejects the
//! priority-inversion witness FIFO accepts; ties resolve by arrival then
//! subscription order, deterministically).

use av_core::stack::SchedPolicyKind;
use av_des::{Sim, SimDuration, SimTime};
use av_platform::Platform;
use av_ros::{
    Bus, BusObserver, Execution, Lineage, Message, Node, Outbox, Source, SubscriptionSpec,
};
use std::cell::RefCell;
use std::rc::Rc;

// --- Keyed heap vs reference model ------------------------------------

/// The des-layer property behind every policy: among equal-time events,
/// lower keys fire first, equal keys fall back to scheduling order, and
/// keys never reorder across distinct times. The reference model is a
/// stable sort of the schedule by `(time, key)` — stability supplies the
/// seq tie-break.
#[test]
fn keyed_heap_matches_stable_sort_reference() {
    let sim = Sim::new();
    let fired: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
    // Deterministic pseudo-random schedule: a handful of distinct times,
    // many key collisions (an LCG, not `rand` — no new dependencies).
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let schedule: Vec<(u64, u64)> = (0..200).map(|_| (next() % 5, next() % 4)).collect(); // (time ms, key)
    for (i, &(t_ms, key)) in schedule.iter().enumerate() {
        let fired = Rc::clone(&fired);
        sim.schedule_at_keyed(SimTime::from_millis(t_ms), key, move || {
            fired.borrow_mut().push(i);
        });
    }
    sim.run();

    let mut expected: Vec<usize> = (0..schedule.len()).collect();
    expected.sort_by_key(|&i| schedule[i]); // stable: seq order inside ties
    assert_eq!(*fired.borrow(), expected, "heap order must match the (time, key, seq) model");
}

// --- Bus-level policy oracles -----------------------------------------

/// A relay that records the payloads it processes, in dispatch order.
struct Sink {
    cost: SimDuration,
    seen: Rc<RefCell<Vec<u64>>>,
}

impl Node<u64> for Sink {
    fn on_message(&mut self, _t: &str, msg: &Message<u64>, out: &mut Outbox<u64>) -> Execution {
        self.seen.borrow_mut().push(*msg.payload);
        out.publish("done", *msg.payload);
        Execution::cpu(self.cost, 0.0)
    }
}

/// Observer counting scheduling decisions (and nothing else).
#[derive(Default)]
struct SchedCounter {
    decisions: Vec<(String, u64, i64)>,
}

impl BusObserver for SchedCounter {
    fn sched_decision(&mut self, _node: &str, topic: &str, considered: u64, key: i64, _t: SimTime) {
        self.decisions.push((topic.to_string(), considered, key));
    }
}

/// One contended sink with two subscriptions. Returns the payloads in
/// dispatch order plus the recorded scheduling decisions. `plan` is a
/// list of `(publish_at_ms, topic, payload, stamp_ms)` publications; the
/// sink is busy 10 ms per message, so everything published in the first
/// 10 ms queues behind the t=0 message and drains one pull at a time.
fn drain_order(
    policy: SchedPolicyKind,
    meta: [(u64, u64); 2], // (rank, downstream_ms) for topics "a", "b"
    plan: &[(u64, &'static str, u64, u64)],
) -> (Vec<u64>, Vec<(String, u64, i64)>) {
    let sim = Sim::new();
    let platform = Platform::new(&sim, Default::default(), Default::default());
    let bus: Bus<u64> = Bus::new(&sim, &platform);
    let seen = Rc::new(RefCell::new(Vec::new()));
    let [(rank_a, down_a), (rank_b, down_b)] = meta;
    let sub = |topic, rank, downstream_ms| SubscriptionSpec {
        rank,
        downstream: SimDuration::from_millis(downstream_ms),
        ..SubscriptionSpec::new(topic, 8)
    };
    bus.add_node(
        "sink",
        Sink { cost: SimDuration::from_millis(10), seen: Rc::clone(&seen) },
        &[sub("a", rank_a, down_a), sub("b", rank_b, down_b)],
    );
    let counter = Rc::new(RefCell::new(SchedCounter::default()));
    bus.set_shared_observer(counter.clone());
    bus.set_sched_policy(policy, SimDuration::from_millis(100));

    for &(at_ms, topic, payload, stamp_ms) in plan {
        let bus = bus.clone();
        sim.schedule_at(SimTime::from_millis(at_ms), move || {
            bus.publish(
                topic,
                payload,
                Lineage::origin(Source::Lidar, SimTime::from_millis(stamp_ms)),
            );
        });
    }
    sim.run();
    let order = seen.borrow().clone();
    let decisions = counter.borrow().decisions.clone();
    (order, decisions)
}

/// The witness plan used across policies: payload encodes identity.
/// Queue contents at the first pull (t=10 ms): a = [1 (stamp 8), 3
/// (stamp 5)], b = [2 (stamp 2), 4 (stamp 1)] — subscription queues stay
/// FIFO internally, so policies choose among queue *heads*.
const PLAN: [(u64, &str, u64, u64); 5] = [
    (0, "a", 0, 0), // starts immediately; the node is busy until 10 ms
    (1, "a", 1, 8),
    (2, "b", 2, 2),
    (3, "a", 3, 5),
    (4, "b", 4, 1),
];

#[test]
fn fifo_dispatches_in_arrival_order_and_reports_no_decisions() {
    let (order, decisions) = drain_order(SchedPolicyKind::Fifo, [(5, 10), (1, 70)], &PLAN);
    assert_eq!(order, vec![0, 1, 2, 3, 4], "FIFO pulls the earliest arrival across queues");
    assert!(decisions.is_empty(), "the FIFO policy must never report decisions");
}

#[test]
fn edf_never_dispatches_a_later_deadline_before_an_earlier_queue_head() {
    // Deadlines (stamp + 100 ms): head of a is 108 vs head of b 102 → b
    // first; then b's next head (101) still beats a (108); only then the
    // a queue drains in its own FIFO order.
    let (order, decisions) = drain_order(SchedPolicyKind::Edf, [(5, 10), (1, 70)], &PLAN);
    assert_eq!(order, vec![0, 2, 4, 1, 3]);
    // Reference property, independent of the hand-derived order: at each
    // decision the reported key is the winner's deadline, and every
    // decision considered both queue heads.
    for (_, considered, key) in &decisions {
        assert_eq!(*considered, 2);
        assert!(*key > 0);
    }
    assert_eq!(
        decisions.iter().map(|(t, _, _)| t.as_str()).collect::<Vec<_>>(),
        vec!["b", "b"],
        "decisions fire only while at least two queues are non-empty"
    );
    let keys: Vec<i64> = decisions.iter().map(|(_, _, k)| *k).collect();
    assert_eq!(
        keys,
        vec![
            SimTime::from_millis(102).as_nanos() as i64,
            SimTime::from_millis(101).as_nanos() as i64,
        ],
        "EDF keys are absolute deadlines in nanoseconds"
    );
}

#[test]
fn priority_rejects_the_inversion_witness_fifo_accepts() {
    // Witness: the low-urgency topic's message arrives first. FIFO
    // dispatches it first (the inversion); Priority must not.
    let plan = [(0, "a", 0, 0), (1, "b", 1, 0), (2, "a", 2, 0)];
    // rank: a = 9 (background), b = 1 (urgent).
    let (fifo, _) = drain_order(SchedPolicyKind::Fifo, [(9, 10), (1, 10)], &plan);
    assert_eq!(fifo, vec![0, 1, 2], "FIFO exhibits the inversion");
    let (prio, decisions) = drain_order(SchedPolicyKind::Priority, [(9, 10), (1, 10)], &plan);
    // Same surface order here (b's head already beats a's at the first
    // pull) — the witness is the reported key: rank 1, not arrival.
    assert_eq!(prio, vec![0, 1, 2]);
    assert_eq!(decisions[0].2, 1, "priority key is the static rank");

    // A sharper witness: two background messages queue before the
    // urgent one; Priority overtakes both, FIFO drains them first.
    let plan2 = [(0, "a", 0, 0), (1, "a", 1, 0), (2, "a", 2, 0), (3, "b", 3, 0)];
    let (fifo2, _) = drain_order(SchedPolicyKind::Fifo, [(9, 10), (1, 10)], &plan2);
    assert_eq!(fifo2, vec![0, 1, 2, 3]);
    let (prio2, _) = drain_order(SchedPolicyKind::Priority, [(9, 10), (1, 10)], &plan2);
    assert_eq!(prio2, vec![0, 3, 1, 2], "the urgent message overtakes the queued background work");
}

#[test]
fn chain_aware_subtracts_downstream_cost_from_the_deadline() {
    // Equal stamps and arrivals differing only in queue: chain-aware
    // urgency is deadline − downstream, so the topic with 70 ms of
    // remaining chain work (b) beats the one with 10 ms (a).
    let plan = [(0, "a", 0, 0), (1, "a", 1, 3), (2, "b", 2, 3)];
    let (order, decisions) = drain_order(SchedPolicyKind::ChainAware, [(5, 10), (1, 70)], &plan);
    assert_eq!(order, vec![0, 2, 1]);
    assert_eq!(
        decisions[0].2,
        (SimTime::from_millis(103).as_nanos() as i64)
            - (SimDuration::from_millis(70).as_nanos() as i64),
        "chain key is deadline minus downstream cost"
    );
    // Under EDF (no downstream term) the same plan dispatches by queue
    // order at equal deadlines: a's head arrived earlier.
    let (edf, _) = drain_order(SchedPolicyKind::Edf, [(5, 10), (1, 70)], &plan);
    assert_eq!(edf, vec![0, 1, 2]);
}

#[test]
fn equal_keys_tie_break_by_arrival_then_subscription_order_deterministically() {
    // Same stamp, same publish instant on both topics: keys and arrivals
    // tie, so the winner is the lower subscription index ("a") — and the
    // whole dispatch is identical across reruns.
    let plan = [(0, "a", 0, 0), (5, "b", 1, 2), (5, "a", 2, 2), (6, "b", 3, 2)];
    let (first, d1) = drain_order(SchedPolicyKind::Edf, [(5, 10), (5, 10)], &plan);
    assert_eq!(first, vec![0, 2, 1, 3], "equal (key, arrival) resolves to subscription order");
    for _ in 0..5 {
        let (again, d2) = drain_order(SchedPolicyKind::Edf, [(5, 10), (5, 10)], &plan);
        assert_eq!(first, again, "tie-breaks must be deterministic");
        assert_eq!(d1, d2);
    }
}
