//! `serve-mixed`: the scenario service under a closed loop of two
//! clients, each sending its next request only after the previous one
//! answered.
//!
//! Each client's mix is a quarter cold smoke drives (half of them traced
//! and streaming their trace), half repeats of its own earlier requests
//! (answered from the result store, and required to be byte-identical to
//! the first answer), and a quarter `extend`s that resume one of its
//! stored drives two virtual seconds further (up to six) from the
//! checkpoint store.

use crate::metrics::live_heap_mb;
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::workloads::{attribute_into, Digest, Outcome, Plan, Rng, DETECTORS, SETUP_REPEATS};
use av_core::ckptstore::CkptStore;
use av_serve::{Client, Outcome as Answer, ServeConfig, Server};
use av_sweep::{SweepPoint, WorldKind};
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Closed-loop clients, one connection each.
const CLIENTS: usize = 2;
/// Drives an earlier daemon leaves in the spool and checkpoint store.
const PREFILL: usize = 64;
/// Virtual seconds of a cold drive, and of each extension.
const STEP_S: f64 = 2.0;
/// Longest horizon an extension may reach.
const MAX_S: f64 = 6.0;

/// One drive a client asked for.
#[derive(Clone, Copy)]
struct Ask {
    seed: u64,
    detector: usize,
    traced: bool,
    duration_s: f64,
}

impl Ask {
    fn line(&self, id: &str, kind: &str) -> String {
        format!(
            "{{\"id\":\"{id}\",\"kind\":\"{kind}\",\"world\":\"smoke\",\"duration_s\":{:?},\
             \"trace\":{t},\"stream_trace\":{t},\"point\":{{\"seed\":{},\"detector\":\"{}\"}}}}",
            self.duration_s,
            self.seed,
            DETECTORS[self.detector].name(),
            t = self.traced,
        )
    }

    fn key(&self) -> (u64, usize, bool, u64) {
        (self.seed, self.detector, self.traced, self.duration_s.to_bits())
    }
}

/// A client's request generator: a pure function of its stream. Every
/// group of four requests is one cold drive, two repeats and one
/// extend, in a seeded order; cold drives alternate traced and untraced
/// and cycle the detectors, and an extend takes the oldest drive that
/// can still grow. So every run has the same mix and the same horizons;
/// the seed picks the order, the drive seeds and the repeats.
struct Mix {
    rng: Rng,
    history: Vec<Ask>,
    /// Drives not yet extended, oldest first.
    growable: VecDeque<Ask>,
    colds: usize,
    cold_only: bool,
    group: Vec<Kind>,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Cold,
    Repeat,
    Extend,
}

impl Mix {
    fn new(rng: Rng, cold_only: bool) -> Mix {
        Mix {
            rng,
            history: Vec::new(),
            growable: VecDeque::new(),
            colds: 0,
            cold_only,
            group: Vec::new(),
        }
    }

    fn cold(&mut self) -> Ask {
        let ask = Ask {
            seed: self.rng.seed53(),
            detector: self.colds % DETECTORS.len(),
            traced: self.colds.is_multiple_of(2),
            duration_s: STEP_S,
        };
        self.colds += 1;
        self.history.push(ask);
        self.growable.push_back(ask);
        ask
    }

    /// The next request: `(ask, kind, is_repeat)`.
    fn next(&mut self) -> (Ask, &'static str, bool) {
        if self.group.is_empty() {
            self.group = vec![Kind::Cold, Kind::Repeat, Kind::Repeat, Kind::Extend];
            for i in (1..self.group.len()).rev() {
                let j = self.rng.below(i + 1);
                self.group.swap(i, j);
            }
        }
        let kind = self.group.pop().expect("group refilled above");
        if self.cold_only || self.history.is_empty() || kind == Kind::Cold {
            return (self.cold(), "drive", false);
        }
        if kind == Kind::Repeat {
            return (self.history[self.rng.below(self.history.len())], "drive", true);
        }
        let earlier = self.growable.pop_front().expect("every cold drive can grow");
        let longer = Ask { duration_s: earlier.duration_s + STEP_S, ..earlier };
        self.history.push(longer);
        if longer.duration_s + STEP_S <= MAX_S {
            self.growable.push_back(longer);
        }
        (longer, "extend", false)
    }
}

/// What one client saw.
#[derive(Default)]
struct Log {
    latency_s: Vec<f64>,
    queue_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    framing_ms: Vec<f64>,
    bytes_out: u64,
    failed: u64,
    errors: Vec<String>,
    rejects: u64,
    hits_first: u64,
    misses_first: u64,
    digest: Digest,
    sim_s: f64,
}

fn answer_digest(body: &str, events: &[String]) -> u64 {
    let mut d = Digest::default();
    d.bytes(body.as_bytes());
    for e in events {
        d.bytes(e.as_bytes());
        d.bytes(b"\n");
    }
    d.0
}

/// Drives one closed-loop client until `stop` says so.
fn client_loop(
    addr: SocketAddr,
    index: usize,
    mut mix: Mix,
    first_cycle: usize,
    stop: &dyn Fn(usize) -> bool,
    first_cycle_done: &dyn Fn(),
    sp: &mut Spans,
) -> Log {
    let mut log = Log::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.failed += 1;
            log.errors.push(format!("client {index}: connect: {e}"));
            // Still meet the other client, which would otherwise wait.
            first_cycle_done();
            return log;
        }
    };
    let mut seen: BTreeMap<(u64, usize, bool, u64), u64> = BTreeMap::new();
    let mut sent = 0usize;
    while !stop(sent) {
        let (ask, kind, repeat) = mix.next();
        let line = ask.line(&format!("c{index}-{sent}"), kind);
        sp.set_op(((index as u64) << 32) | sent as u64);
        sp.enter("op");
        let started = Instant::now();
        let response = sp.time("serve.request", || client.run(&line));
        let latency = started.elapsed().as_secs_f64();
        let mut problem = None;
        match response {
            Err(e) => problem = Some(format!("request {kind}: {e}")),
            Ok(r) => {
                log.bytes_out += r.frames.iter().map(|f| f.len() as u64 + 1).sum::<u64>();
                match &r.outcome {
                    Answer::Completed { body } => {
                        let digest = answer_digest(body, &r.events);
                        let cached = r.cached == Some(true);
                        match seen.get(&ask.key()) {
                            Some(&first) if first != digest => {
                                problem = Some("repeat differs from its first answer".to_string())
                            }
                            None if repeat => problem = Some("repeat of an unseen request".into()),
                            _ => {}
                        }
                        if repeat && !cached {
                            problem = Some("repeat was not answered from the store".to_string());
                        }
                        if !body.contains("\"run_hash\":\"0x") {
                            problem = Some(format!("body without a run hash: {body}"));
                        }
                        seen.entry(ask.key()).or_insert(digest);
                        if sent < first_cycle {
                            log.digest.word(digest);
                            if cached {
                                log.hits_first += 1;
                            } else {
                                log.misses_first += 1;
                            }
                        }
                        let (queue, exec) =
                            (r.queue_wait_ms.unwrap_or(0.0), r.exec_ms.unwrap_or(0.0));
                        log.queue_ms.push(queue);
                        log.exec_ms.push(exec);
                        log.framing_ms.push(latency * 1e3 - queue - exec);
                        log.sim_s += ask.duration_s;
                    }
                    Answer::Rejected { verdict, reason } => {
                        log.rejects += 1;
                        problem = Some(format!("rejected {verdict}: {reason}"));
                    }
                    Answer::Failed { reason } => problem = Some(format!("failed: {reason}")),
                }
            }
        }
        sp.exit();
        log.latency_s.push(latency);
        if let Some(p) = problem {
            log.failed += 1;
            log.errors.push(format!("client {index} request {sent} ({kind}): {p}"));
        }
        sent += 1;
        if sent == first_cycle {
            first_cycle_done();
        }
    }
    log
}

fn start(plan: &Plan, sp: &mut Spans) -> Result<Server, String> {
    sp.time("serve.start", || {
        Server::start(ServeConfig {
            workers: 2,
            spool: Some(plan.work.join("spool")),
            ckpt_dir: Some(plan.work.join("ckpt")),
            ..ServeConfig::default()
        })
    })
    .map_err(|e| format!("server start: {e}"))
}

fn stop_server(server: Server) -> Result<(), String> {
    server.shutdown(true);
    server.wait().map_err(|e| format!("server wait: {e}"))
}

/// Runs the `serve-mixed` workload.
pub fn serve_mixed(plan: &Plan, sp: &mut Spans) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let _ = std::fs::remove_dir_all(&plan.work);
    let first_cycle = if plan.check { 8 } else { 24 };

    // An earlier daemon's life: fill the spool and the checkpoint store.
    let prefill = if plan.check { 8 } else { PREFILL };
    let server = start(plan, sp)?;
    let addr = server.addr();
    let logs: Vec<Log> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mix = Mix::new(Rng::new(plan.seed, &format!("prefill-{c}")), true);
                s.spawn(move || {
                    let mut quiet = Spans::new(false, Instant::now(), 0);
                    let stop = |sent: usize| sent >= prefill / CLIENTS;
                    client_loop(addr, c, mix, 0, &stop, &|| {}, &mut quiet)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("prefill client panicked")).collect()
    });
    stop_server(server)?;
    for log in logs {
        if log.failed > 0 {
            return Err(format!("prefill failed: {:?}", log.errors));
        }
    }

    if plan.trace {
        // The durable store the daemon reloads at start, opened alone.
        let opened = sp.time("ckpt.open", || CkptStore::open(&plan.work.join("ckpt")));
        let (store, recovery) = opened.map_err(|e| format!("open checkpoint store: {e}"))?;
        o.add("ckpt.entries_scanned", recovery.loaded as f64);
        o.add("ckpt.bytes_written", store.total_bytes() as f64);
    }

    // Set-up: start on the prefilled spool and store (reload + recovery
    // scan), connect the clients and see them answered.
    let mut server = None;
    for i in 0..SETUP_REPEATS {
        let started = Instant::now();
        let s = start(plan, sp)?;
        for c in 0..CLIENTS {
            Client::connect(s.addr())
                .and_then(|mut client| client.ping(&format!("setup-{c}")))
                .map_err(|e| format!("setup ping: {e}"))?;
        }
        o.setup_s.push(started.elapsed().as_secs_f64());
        if i + 1 < SETUP_REPEATS {
            stop_server(s)?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("set-up kept the last server");
    let addr = server.addr();

    // Both clients meet once after their first cycle, so the store holds
    // exactly those answers when the retained heap is read. (The peak
    // would depend on how the two workers' transient allocations
    // happened to overlap.)
    let meet = Barrier::new(CLIENTS);
    let retained = AtomicU64::new(0);
    let first_cycle_done = || {
        if meet.wait().is_leader() {
            retained.store(live_heap_mb().to_bits(), Ordering::SeqCst);
        }
        meet.wait();
    };
    let origin = Instant::now();
    let seconds = plan.seconds;
    let check = plan.check;
    let mut spans_out = Vec::new();
    let logs: Vec<Log> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mix = Mix::new(Rng::new(plan.seed, &format!("client-{c}")), false);
                let enabled = plan.trace;
                let first_cycle_done = &first_cycle_done;
                s.spawn(move || {
                    let mut local = Spans::new(enabled, origin, c as u32 + 1);
                    let stop = |sent: usize| {
                        if check {
                            sent >= first_cycle
                        } else {
                            sent >= first_cycle && origin.elapsed().as_secs_f64() >= seconds
                        }
                    };
                    let log =
                        client_loop(addr, c, mix, first_cycle, &stop, first_cycle_done, &mut local);
                    (log, local.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (log, spans) = h.join().expect("client panicked");
                spans_out.push(spans);
                log
            })
            .collect()
    });
    let measured_s = origin.elapsed().as_secs_f64();
    stop_server(server)?;
    for spans in spans_out {
        sp.absorb(spans);
    }

    let mut queue = Vec::new();
    let mut exec = Vec::new();
    let mut framing = Vec::new();
    let mut bytes_out = 0u64;
    for log in logs {
        for &l in &log.latency_s {
            o.record(l, 1, 0.0, Vec::new());
        }
        o.failed += log.failed;
        o.errors.extend(log.errors);
        o.sim_s += log.sim_s;
        o.digest.word(log.digest.0);
        o.add("serve.hits", log.hits_first as f64);
        o.add("serve.misses", log.misses_first as f64);
        o.add("mapping.calls", log.misses_first as f64);
        o.add("serve.rejects", log.rejects as f64);
        queue.extend(log.queue_ms);
        exec.extend(log.exec_ms);
        framing.extend(log.framing_ms);
        bytes_out += log.bytes_out;
    }
    o.measured_s = measured_s;
    o.heap_mb = f64::from_bits(retained.load(Ordering::SeqCst));
    o.add("serve.queue_wait_p50_ms", median(&queue));
    o.add("serve.queue_wait_p99_ms", percentile(&queue, 99.0));
    o.add("serve.exec_p50_ms", median(&exec));
    o.add("serve.framing_p50_ms", median(&framing));
    o.add("serve.bytes_out_per_req", bytes_out as f64 / o.attempted.max(1) as f64);

    if plan.trace {
        let mut mix = Mix::new(Rng::new(plan.seed, "client-0"), false);
        let (ask, _, _) = mix.next();
        let point = SweepPoint {
            seed: Some(ask.seed),
            detector: Some(DETECTORS[ask.detector]),
            ..SweepPoint::default()
        };
        attribute_into(&mut o, &point.apply(&WorldKind::Smoke.base_config()), STEP_S);
    }
    Ok(o)
}
