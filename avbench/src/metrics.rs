//! The metric dictionary: names, units, directions and bounds, and how
//! each value is computed from a run's outcome and spans.

use crate::spans::{self_times, span_cost_ns, total_times, Span};
use crate::stats::{median, Better};
use crate::workloads::Outcome;
use av_core::topics;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An end-to-end metric and its regression bound.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Share of the base median the metric may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every untraced run. Host timings
/// get the widest bound: the shared vCPUs drift by 10-15 % over minutes,
/// which no run length averages away.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "items_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "sim_s_per_host_s", unit: "s/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "op_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "heap_mb", unit: "MB", better: Better::Lower, bound: 0.20 },
];

/// Units of per-layer metrics that are exact, deterministic counts (the
/// ledger diff requires them to match).
pub const EXACT_UNITS: [&str; 3] = ["count", "bytes", "sim_s"];

/// Every per-layer metric, in report order, with its unit.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("world.generate_s", "s"),
        ("world.snapshot_s", "s"),
        ("world.scan_s", "s"),
        ("world.capture_s", "s"),
        ("world.nav_s", "s"),
        ("world.calls", "count"),
        ("world.points", "count"),
        ("mapping.build_map_s", "s"),
        ("mapping.calls", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for node in topics::nodes::PERCEPTION {
        out.push((format!("nodes.{node}.self_s"), "s"));
        out.push((format!("nodes.{node}.calls"), "count"));
        out.push((format!("nodes.{node}.ns_per_call"), "ns"));
    }
    out.extend(
        [
            ("engine.drive_wall_s", "s"),
            ("engine.residual_s", "s"),
            ("engine.residual_ns_per_msg", "ns"),
            ("engine.msgs_delivered", "count"),
            ("engine.msgs_dropped", "count"),
            ("engine.callbacks", "count"),
            ("engine.replay_mismatches", "count"),
            ("engine.call_s", "s/item"),
            ("determinism.run_hash_s", "s"),
            ("trace.events", "count"),
            ("trace.render_chrome_s", "s"),
            ("trace.chrome_bytes", "bytes"),
            ("trace.blame_s", "s"),
            ("ckpt.capture_bytes", "bytes"),
            ("ckpt.decode_s", "s"),
            ("ckpt.store_open_s", "s"),
            ("ckpt.puts", "count"),
            ("ckpt.bytes_written", "bytes"),
            ("ckpt.entries_scanned", "count"),
            ("ckpt.resumes", "count"),
            ("ckpt.resumed_prefix_s", "sim_s"),
            ("sweep.unique_points", "count"),
            ("sweep.deduped", "count"),
            ("sweep.resumed_points", "count"),
            ("sweep.shared_prefix_s", "sim_s"),
            ("sweep.simulated_s", "sim_s"),
            ("search.evaluations", "count"),
            ("search.warm_resumes", "count"),
            ("search.store_resumes", "count"),
            ("search.cache_hits", "count"),
            ("search.store_hits", "count"),
            ("search.simulated_s", "sim_s"),
            ("serve.queue_wait_p50_ms", "ms"),
            ("serve.queue_wait_p99_ms", "ms"),
            ("serve.exec_p50_ms", "ms"),
            ("serve.framing_p50_ms", "ms"),
            ("serve.hits", "count"),
            ("serve.misses", "count"),
            ("serve.rejects", "count"),
            ("serve.bytes_out_per_req", "bytes/req"),
            ("bench.self_s", "s/item"),
            ("bench.span_overhead_frac", "frac"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    out
}

/// One printed metric.
pub struct Reported {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The system allocator, counting live heap bytes and their high-water
/// mark. Unlike the resident set, which depends on how the allocator's
/// arenas happen to fragment, the live-byte peak repeats from run to run.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl CountingAlloc {
    fn grew(by: usize) {
        let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        if now > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters are statistics only and never affect
// what is allocated.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            CountingAlloc::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            CountingAlloc::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                CountingAlloc::grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Peak live heap of this process so far, MB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Live heap of this process now, MB.
pub fn live_heap_mb() -> f64 {
    LIVE.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(o: &Outcome) -> Vec<Reported> {
    let values = [
        o.items as f64 / o.measured_s,
        o.sim_s / o.measured_s,
        median(&o.op_s) * 1e3,
        median(&o.setup_s),
        o.heap_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Reported { name: m.name.to_string(), value, unit: m.unit })
        .collect()
}

/// The per-layer metrics of a traced run. Layers a workload does not
/// exercise read 0.
pub fn per_layer(o: &Outcome, spans: &[Span]) -> Vec<Reported> {
    let mut v: BTreeMap<String, f64> = o.layers.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    let mut set = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    if let Some(a) = &o.attribution {
        set("world.generate_s", a.generate_s);
        set("world.snapshot_s", a.snapshot_s);
        set("world.scan_s", a.scan_s);
        set("world.capture_s", a.capture_s);
        set("world.nav_s", a.nav_s);
        set("world.calls", a.sensor_calls as f64);
        set("world.points", a.lidar_points as f64);
        set("mapping.build_map_s", a.build_map_s);
        for n in &a.nodes {
            set(&format!("nodes.{}.self_s", n.name), n.self_s);
            set(&format!("nodes.{}.calls", n.name), n.calls as f64);
            set(&format!("nodes.{}.ns_per_call", n.name), n.ns_per_call());
        }
        set("engine.drive_wall_s", a.drive_wall_s);
        set("engine.residual_s", a.residual_s());
        set("engine.residual_ns_per_msg", a.residual_s() * 1e9 / a.msgs_delivered.max(1) as f64);
        set("engine.msgs_delivered", a.msgs_delivered as f64);
        set("engine.msgs_dropped", a.msgs_dropped as f64);
        set("engine.callbacks", a.callbacks as f64);
        set("engine.replay_mismatches", a.replay_mismatches as f64);
        set("determinism.run_hash_s", a.run_hash_s);
        set("trace.events", a.trace_events as f64);
        set("trace.render_chrome_s", a.render_chrome_s);
        set("trace.chrome_bytes", a.chrome_bytes as f64);
        set("trace.blame_s", a.blame_s);
        set("ckpt.capture_bytes", a.capture_bytes as f64);
        set("ckpt.decode_s", a.decode_s);
    }
    let total = total_times(spans);
    let own = self_times(spans);
    let items = o.items.max(1) as f64;
    let engine: f64 = ["engine.run_drive", "engine.run_sweep", "engine.search", "serve.request"]
        .iter()
        .filter_map(|n| total.get(n))
        .sum();
    set("engine.call_s", engine / items);
    let opens = spans.iter().filter(|s| s.name == "ckpt.open").count();
    if opens > 0 {
        set("ckpt.store_open_s", total["ckpt.open"] / opens as f64);
    }
    set("bench.self_s", own.get("op").copied().unwrap_or(0.0) / items);
    set("bench.span_overhead_frac", spans.len() as f64 * span_cost_ns() / 1e9 / o.measured_s);
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = v.get(&name).copied().filter(|x| x.is_finite()).unwrap_or(0.0);
            Reported { name, value, unit }
        })
        .collect()
}

/// The result line the benchmark ends its output with.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_trace::json::{self, JsonValue};

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
        match doc.get(key) {
            Some(JsonValue::Arr(items)) => items,
            other => panic!("{key} is not a list: {other:?}"),
        }
    }

    fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
        v.get(key).and_then(JsonValue::as_str).unwrap_or_else(|| panic!("missing {key}"))
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = benchmark_json();
        let e2e = entries(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(entry, "name"), m.name);
            assert_eq!(text(entry, "unit"), m.unit);
            assert_eq!(text(entry, "better"), m.better.name());
            assert_eq!(entry.get("bound").and_then(JsonValue::as_f64), Some(m.bound));
        }
        let layers = entries(&doc, "per_layer");
        let names = per_layer_names();
        assert_eq!(layers.len(), names.len());
        assert!(names.len() <= 128);
        for (entry, (name, unit)) in layers.iter().zip(&names) {
            assert_eq!(text(entry, "name"), name);
            assert_eq!(text(entry, "unit"), *unit);
        }
        let workloads: Vec<&str> =
            entries(&doc, "workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
    }

    #[test]
    fn result_line_is_valid_json_with_every_digit() {
        let m = [Reported { name: "setup_s".into(), value: 0.123456789012, unit: "s" }];
        let line = result_json(true, 3, 0, &m);
        let doc = json::parse(&line).expect("valid JSON");
        let v = doc.get("metrics").and_then(|m| m.get("setup_s")).and_then(|s| s.get("value"));
        assert_eq!(v.and_then(JsonValue::as_f64), Some(0.123456789012));
    }
}
