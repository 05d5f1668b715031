//! Rendering a [`TraceData`] into Chrome trace-event JSON and a metrics
//! CSV.
//!
//! The JSON follows the Trace Event Format's JSON-array flavour and loads
//! in Perfetto or `chrome://tracing`: each node is a named thread; every
//! callback renders as a `wait:` slice (arrival → start) followed by a
//! processing slice (start → complete); lineage renders as flow arrows;
//! drops as instants; queue depth, busy fraction, utilization and power as
//! counter tracks. All numbers are formatted with integer arithmetic (µs
//! with fixed nanosecond fraction) or Rust's shortest-roundtrip `f64`
//! display, so the bytes are a pure function of the [`TraceData`].
//!
//! [`trace_from_chrome`] is the one reader of that format and its exact
//! inverse: both trace analyses and every tool that loads an exported
//! trace go through it, so the format is defined in this file alone.

use crate::json::JsonValue;
use crate::{MetricSample, TraceData, TraceEvent};
use av_des::{SimDuration, SimTime};
use av_ros::{FaultKind, Source};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Microseconds with a fixed 3-digit nanosecond fraction, via integer math
/// (no float formatting in timestamps).
pub(crate) fn ts_us(t: SimTime) -> String {
    let ns = t.as_nanos();
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

pub(crate) fn dur_us(d: SimDuration) -> String {
    let ns = d.as_nanos();
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Escapes a string for a JSON literal (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders one [`TraceEvent`] as a single JSON object line (no trailing
/// newline) — the incremental-streaming sibling of
/// [`render_chrome_trace`], used by the scenario service to ship events
/// while a run is still executing. All timestamps are integer
/// nanoseconds, so the bytes are a pure function of the event.
pub fn render_event_jsonl(event: &TraceEvent) -> String {
    match event {
        TraceEvent::Callback { node, topic, arrival, started, completed, lineage, published } => {
            let lineage: Vec<String> = lineage
                .iter()
                .map(|&(source, stamp)| format!("[\"{}\",{}]", source.name(), stamp.as_nanos()))
                .collect();
            let published: Vec<String> =
                published.iter().map(|t| format!("\"{}\"", escape(t))).collect();
            format!(
                "{{\"ev\":\"callback\",\"node\":\"{}\",\"topic\":\"{}\",\"arrival_ns\":{},\
                 \"started_ns\":{},\"completed_ns\":{},\"lineage\":[{}],\"published\":[{}]}}",
                escape(node),
                escape(topic),
                arrival.as_nanos(),
                started.as_nanos(),
                completed.as_nanos(),
                lineage.join(","),
                published.join(",")
            )
        }
        TraceEvent::Enqueued { topic, node, depth, time } => {
            queue_jsonl("enqueued", topic, node, *depth, *time)
        }
        TraceEvent::Dequeued { topic, node, depth, time } => {
            queue_jsonl("dequeued", topic, node, *depth, *time)
        }
        TraceEvent::Dropped { topic, node, depth, time } => {
            queue_jsonl("dropped", topic, node, *depth, *time)
        }
        TraceEvent::Fault { kind, node, info, time } => format!(
            "{{\"ev\":\"fault\",\"kind\":\"{}\",\"node\":\"{}\",\"info\":\"{}\",\"time_ns\":{}}}",
            kind.name(),
            escape(node),
            escape(info),
            time.as_nanos()
        ),
        TraceEvent::SchedDecision { node, topic, considered, key, time } => format!(
            "{{\"ev\":\"sched\",\"node\":\"{}\",\"topic\":\"{}\",\"considered\":{considered},\
             \"key\":{key},\"time_ns\":{}}}",
            escape(node),
            escape(topic),
            time.as_nanos()
        ),
    }
}

fn queue_jsonl(ev: &str, topic: &str, node: &str, depth: usize, time: SimTime) -> String {
    format!(
        "{{\"ev\":\"{ev}\",\"topic\":\"{}\",\"node\":\"{}\",\"depth\":{depth},\"time_ns\":{}}}",
        escape(topic),
        escape(node),
        time.as_nanos()
    )
}

/// Flow-event id: the acquisition stamp is unique per sensor firing, so
/// `stamp × 8 + source_code` is collision-free and deterministic.
fn flow_id(source: av_ros::Source, stamp: SimTime) -> u64 {
    stamp.as_nanos() * 8 + source.code()
}

struct FlowEvent {
    id: u64,
    source_name: &'static str,
    ts: String,
    tid: usize,
}

/// Renders the Chrome trace-event JSON for one run.
pub fn render_chrome_trace(run: &str, data: &TraceData) -> String {
    let tid_of: HashMap<&str, usize> =
        data.nodes.iter().enumerate().map(|(i, n)| (n.as_str(), i + 1)).collect();
    let tid = |node: &str| tid_of.get(node).copied().unwrap_or(0);

    let mut events: Vec<String> = Vec::new();

    // Thread-name metadata: one named track per node, in registration
    // order.
    for (i, node) in data.nodes.iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            i + 1,
            escape(node)
        ));
    }

    // Flow arrows are collected first, then the terminal step of each flow
    // is re-labelled "f" (an arrow needs both ends); single-occurrence
    // flows are omitted.
    let mut flows: Vec<FlowEvent> = Vec::new();
    let mut flow_counts: HashMap<u64, usize> = HashMap::new();

    for event in &data.events {
        match event {
            TraceEvent::Callback {
                node,
                topic,
                arrival,
                started,
                completed,
                lineage,
                published,
            } => {
                let t = tid(node);
                let wait = started.saturating_since(*arrival);
                if !wait.is_zero() {
                    events.push(format!(
                        "{{\"name\":\"wait:{}\",\"cat\":\"queue\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
                        escape(topic),
                        ts_us(*arrival),
                        dur_us(wait),
                        t
                    ));
                }
                let mut args = format!(
                    "\"node\":\"{}\",\"topic\":\"{}\",\"arrival_ns\":{},\"started_ns\":{},\"completed_ns\":{}",
                    escape(node),
                    escape(topic),
                    arrival.as_nanos(),
                    started.as_nanos(),
                    completed.as_nanos()
                );
                let _ = write!(
                    args,
                    ",\"published\":[{}]",
                    published
                        .iter()
                        .map(|p| format!("\"{}\"", escape(p)))
                        .collect::<Vec<_>>()
                        .join(",")
                );
                for &(source, stamp) in lineage {
                    let _ = write!(args, ",\"lineage_{}_ns\":{}", source.name(), stamp.as_nanos());
                }
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"callback\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{{}}}}}",
                    escape(topic),
                    ts_us(*started),
                    dur_us(completed.saturating_since(*started)),
                    t,
                    args
                ));
                for &(source, stamp) in lineage {
                    let id = flow_id(source, stamp);
                    *flow_counts.entry(id).or_insert(0) += 1;
                    flows.push(FlowEvent {
                        id,
                        source_name: source.name(),
                        ts: ts_us(*started),
                        tid: t,
                    });
                }
            }
            TraceEvent::Enqueued { topic, node, depth, time }
            | TraceEvent::Dequeued { topic, node, depth, time } => {
                events.push(format!(
                    "{{\"name\":\"q {}\\u2192{}\",\"cat\":\"queue\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"args\":{{\"depth\":{}}}}}",
                    escape(topic),
                    escape(node),
                    ts_us(*time),
                    depth
                ));
            }
            TraceEvent::Dropped { topic, node, depth, time } => {
                events.push(format!(
                    "{{\"name\":\"drop:{}\",\"cat\":\"drop\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{},\"s\":\"t\",\"args\":{{\"node\":\"{}\",\"topic\":\"{}\",\"depth\":{}}}}}",
                    escape(topic),
                    ts_us(*time),
                    tid(node),
                    escape(node),
                    escape(topic),
                    depth
                ));
                events.push(format!(
                    "{{\"name\":\"q {}\\u2192{}\",\"cat\":\"queue\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"args\":{{\"depth\":{}}}}}",
                    escape(topic),
                    escape(node),
                    ts_us(*time),
                    depth
                ));
            }
            TraceEvent::Fault { kind, node, info, time } => {
                events.push(format!(
                    "{{\"name\":\"fault:{}\",\"cat\":\"fault\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{},\"s\":\"t\",\"args\":{{\"kind\":\"{}\",\"node\":\"{}\",\"info\":\"{}\"}}}}",
                    kind.name(),
                    ts_us(*time),
                    tid(node),
                    kind.name(),
                    escape(node),
                    escape(info)
                ));
            }
            TraceEvent::SchedDecision { node, topic, considered, key, time } => {
                events.push(format!(
                    "{{\"name\":\"sched:{}\",\"cat\":\"sched\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{},\"s\":\"t\",\"args\":{{\"node\":\"{}\",\"topic\":\"{}\",\"considered\":{},\"key\":{}}}}}",
                    escape(topic),
                    ts_us(*time),
                    tid(node),
                    escape(node),
                    escape(topic),
                    considered,
                    key
                ));
            }
        }
    }

    // Flow events: first occurrence starts the flow, the last finishes it,
    // anything in between is a step.
    let mut seen: HashMap<u64, usize> = HashMap::new();
    for flow in &flows {
        let total = flow_counts[&flow.id];
        if total < 2 {
            continue;
        }
        let ordinal = {
            let slot = seen.entry(flow.id).or_insert(0);
            *slot += 1;
            *slot
        };
        let (ph, bind) = if ordinal == 1 {
            ("s", "")
        } else if ordinal == total {
            ("f", ",\"bp\":\"e\"")
        } else {
            ("t", "")
        };
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"lineage\",\"ph\":\"{}\",\"id\":{},\"ts\":{},\"pid\":1,\"tid\":{}{}}}",
            flow.source_name, ph, flow.id, flow.ts, flow.tid, bind
        ));
    }

    // Metrics counters.
    for sample in &data.samples {
        let ts = ts_us(sample.time);
        for (i, (topic, node)) in data.subscriptions.iter().enumerate() {
            events.push(format!(
                "{{\"name\":\"qdepth {}\\u2192{}\",\"cat\":\"metrics\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"args\":{{\"depth\":{}}}}}",
                escape(topic),
                escape(node),
                ts,
                sample.queue_depths[i]
            ));
        }
        for (i, node) in data.nodes.iter().enumerate() {
            events.push(format!(
                "{{\"name\":\"busy {}\",\"cat\":\"metrics\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"args\":{{\"frac\":{}}}}}",
                escape(node),
                ts,
                sample.node_busy_frac[i]
            ));
        }
        events.push(format!(
            "{{\"name\":\"cpu_util\",\"cat\":\"metrics\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"args\":{{\"util\":{}}}}}",
            ts, sample.cpu_util
        ));
        events.push(format!(
            "{{\"name\":\"gpu_util\",\"cat\":\"metrics\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"args\":{{\"util\":{}}}}}",
            ts, sample.gpu_util
        ));
        events.push(format!(
            "{{\"name\":\"power_w\",\"cat\":\"metrics\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"args\":{{\"cpu\":{},\"gpu\":{}}}}}",
            ts, sample.cpu_w, sample.gpu_w
        ));
    }

    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run\":\"");
    out.push_str(&escape(run));
    let _ = write!(
        out,
        "\",\"sample_interval_ns\":{},\"nodes\":{}",
        data.sample_interval.as_nanos(),
        data.nodes.len()
    );
    // Run-header policy field: present exactly when the run executed
    // under a non-FIFO scheduling policy, so FIFO exports keep their
    // pre-policy bytes. `trace_report --verify` fails loudly on traces
    // with sched events but no policy header.
    if let Some(policy) = &data.policy {
        let _ = write!(out, ",\"sched_policy\":\"{}\"", escape(policy));
    }
    out.push_str("},\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// `args.<key>` of a trace event.
fn arg<'v>(event: &'v JsonValue, key: &str) -> Result<&'v JsonValue, String> {
    event.get("args").and_then(|args| args.get(key)).ok_or_else(|| {
        let name = event.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        format!("event {name:?} without args.{key}")
    })
}

fn arg_str(event: &JsonValue, key: &str) -> Result<String, String> {
    arg(event, key)?.as_str().map(str::to_string).ok_or_else(|| format!("args.{key} not a string"))
}

fn arg_u64(event: &JsonValue, key: &str) -> Result<u64, String> {
    arg(event, key)?.as_u64().ok_or_else(|| format!("args.{key} not an unsigned integer"))
}

fn arg_f64(event: &JsonValue, key: &str) -> Result<f64, String> {
    arg(event, key)?.as_f64().ok_or_else(|| format!("args.{key} not a number"))
}

/// The event's `ts` (µs with a 3-digit ns fraction) back in nanoseconds.
fn ts_of(event: &JsonValue) -> Result<SimTime, String> {
    let ts = event.get("ts").and_then(JsonValue::as_f64).ok_or("event without ts")?;
    Ok(SimTime::from_nanos((ts * 1000.0).round() as u64))
}

/// `(topic, node)` of a `q <topic>→<node>` queue counter (the arrow never
/// occurs in topic or node names).
fn queue_of(counter: &JsonValue) -> Result<(String, String), String> {
    counter
        .get("name")
        .and_then(JsonValue::as_str)
        .and_then(|name| name.strip_prefix("q "))
        .and_then(|rest| rest.split_once('→'))
        .map(|(topic, node)| (topic.to_string(), node.to_string()))
        .ok_or_else(|| "malformed queue counter name".to_string())
}

/// Rebuilds the [`TraceData`] a document written by
/// [`render_chrome_trace`] was rendered from. It is the exact inverse:
/// `trace_from_chrome(&json::parse(&render_chrome_trace(run, t))?)? == *t`
/// for every trace with at least one metrics sample (subscriptions are
/// named only by the sample counters).
///
/// Queue counters carry a depth but not the operation, so each is an
/// enqueue when the depth rose above that queue's previous depth and a
/// dequeue otherwise. A `crash` instant empties all of its node's queues,
/// as the bus does without emitting queue events, and the counter after
/// each `drop` instant is that drop's own.
///
/// Returns an error when the document is not a trace this crate exported.
pub fn trace_from_chrome(doc: &JsonValue) -> Result<TraceData, String> {
    let events =
        doc.get("traceEvents").and_then(JsonValue::as_array).ok_or("missing traceEvents array")?;
    let header = doc.get("otherData").ok_or("missing otherData")?;
    let interval = header
        .get("sample_interval_ns")
        .and_then(JsonValue::as_u64)
        .ok_or("missing otherData.sample_interval_ns")?;
    let mut data = TraceData {
        sample_interval: SimDuration::from_nanos(interval),
        policy: header.get("sched_policy").and_then(JsonValue::as_str).map(str::to_string),
        ..TraceData::default()
    };
    let mut depths: HashMap<(String, String), usize> = HashMap::new();
    // The metrics sample being read: the exporter writes qdepth*, busy*,
    // cpu_util and gpu_util counters, then power_w closes the sample.
    let mut sample = MetricSample::default();

    let mut events = events.iter();
    while let Some(event) = events.next() {
        let ph = event.get("ph").and_then(JsonValue::as_str).ok_or("event without ph")?;
        let cat = event.get("cat").and_then(JsonValue::as_str).unwrap_or("");
        let name = event.get("name").and_then(JsonValue::as_str).unwrap_or("");
        match (ph, cat) {
            ("M", "") if name == "thread_name" => data.nodes.push(arg_str(event, "name")?),
            ("X", "callback") => {
                let Some(JsonValue::Obj(args)) = event.get("args") else {
                    return Err("callback without args".to_string());
                };
                let mut lineage = Vec::new();
                for (key, stamp) in args {
                    let Some(source) = key.strip_prefix("lineage_") else { continue };
                    let source = source.strip_suffix("_ns").and_then(Source::parse);
                    let source = source.ok_or_else(|| format!("unknown lineage key {key:?}"))?;
                    let stamp = stamp.as_u64().ok_or_else(|| format!("{key} not an integer"))?;
                    lineage.push((source, SimTime::from_nanos(stamp)));
                }
                let published =
                    arg(event, "published")?.as_array().ok_or("published not a list")?;
                data.events.push(TraceEvent::Callback {
                    node: arg_str(event, "node")?,
                    topic: arg_str(event, "topic")?,
                    arrival: SimTime::from_nanos(arg_u64(event, "arrival_ns")?),
                    started: SimTime::from_nanos(arg_u64(event, "started_ns")?),
                    completed: SimTime::from_nanos(arg_u64(event, "completed_ns")?),
                    lineage,
                    published: published
                        .iter()
                        .map(|t| {
                            t.as_str().map(str::to_string).ok_or("published topic not a string")
                        })
                        .collect::<Result<_, _>>()?,
                });
            }
            ("C", "queue") => {
                let (topic, node) = queue_of(event)?;
                let (depth, time) = (arg_u64(event, "depth")? as usize, ts_of(event)?);
                let previous = depths.insert((topic.clone(), node.clone()), depth).unwrap_or(0);
                data.events.push(if depth > previous {
                    TraceEvent::Enqueued { topic, node, depth, time }
                } else {
                    TraceEvent::Dequeued { topic, node, depth, time }
                });
            }
            ("i", "drop") => {
                let (topic, node) = (arg_str(event, "topic")?, arg_str(event, "node")?);
                let depth = arg_u64(event, "depth")? as usize;
                let companion = events.next().filter(|c| {
                    c.get("cat").and_then(JsonValue::as_str) == Some("queue")
                        && matches!(queue_of(c), Ok((t, n)) if t == topic && n == node)
                });
                if companion.is_none() {
                    return Err(format!("drop on {topic}→{node} without its queue counter"));
                }
                depths.insert((topic.clone(), node.clone()), depth);
                data.events.push(TraceEvent::Dropped { topic, node, depth, time: ts_of(event)? });
            }
            ("i", "fault") => {
                let kind = arg_str(event, "kind")?;
                let kind = FaultKind::parse(&kind)
                    .ok_or_else(|| format!("unknown fault kind {kind:?}"))?;
                let node = arg_str(event, "node")?;
                if kind == FaultKind::Crash {
                    for ((_, queue_node), depth) in depths.iter_mut() {
                        if *queue_node == node {
                            *depth = 0;
                        }
                    }
                }
                data.events.push(TraceEvent::Fault {
                    kind,
                    node,
                    info: arg_str(event, "info")?,
                    time: ts_of(event)?,
                });
            }
            ("i", "sched") => data.events.push(TraceEvent::SchedDecision {
                node: arg_str(event, "node")?,
                topic: arg_str(event, "topic")?,
                considered: arg_u64(event, "considered")?,
                key: arg(event, "key")?.as_i64().ok_or("args.key not an integer")?,
                time: ts_of(event)?,
            }),
            ("C", "metrics") => {
                if let Some(queue) = name.strip_prefix("qdepth ") {
                    if data.samples.is_empty() {
                        let (topic, node) =
                            queue.split_once('→').ok_or("malformed qdepth counter name")?;
                        data.subscriptions.push((topic.to_string(), node.to_string()));
                    }
                    sample.queue_depths.push(arg_u64(event, "depth")?);
                } else if name.starts_with("busy ") {
                    sample.node_busy_frac.push(arg_f64(event, "frac")?);
                } else if name == "cpu_util" {
                    sample.cpu_util = arg_f64(event, "util")?;
                } else if name == "gpu_util" {
                    sample.gpu_util = arg_f64(event, "util")?;
                } else if name == "power_w" {
                    sample.time = ts_of(event)?;
                    sample.cpu_w = arg_f64(event, "cpu")?;
                    sample.gpu_w = arg_f64(event, "gpu")?;
                    data.samples.push(std::mem::take(&mut sample));
                }
            }
            _ => {}
        }
    }
    Ok(data)
}

/// Renders the metrics time series as CSV: one row per sample, columns for
/// utilization, power, per-node busy fraction and per-subscription queue
/// depth.
pub fn render_metrics_csv(data: &TraceData) -> String {
    let mut out = String::from("time_s,cpu_util,gpu_util,cpu_w,gpu_w");
    for node in &data.nodes {
        let _ = write!(out, ",busy:{node}");
    }
    for (topic, node) in &data.subscriptions {
        let _ = write!(out, ",qdepth:{topic}:{node}");
    }
    out.push('\n');
    for sample in &data.samples {
        render_csv_row(&mut out, sample);
    }
    out
}

fn render_csv_row(out: &mut String, sample: &MetricSample) {
    let ns = sample.time.as_nanos();
    let _ = write!(
        out,
        "{}.{:09},{},{},{},{}",
        ns / 1_000_000_000,
        ns % 1_000_000_000,
        sample.cpu_util,
        sample.gpu_util,
        sample.cpu_w,
        sample.gpu_w
    );
    for frac in &sample.node_busy_frac {
        let _ = write!(out, ",{frac}");
    }
    for depth in &sample.queue_depths {
        let _ = write!(out, ",{depth}");
    }
    out.push('\n');
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::json;

    /// `data` rendered to Chrome JSON and read back.
    pub(crate) fn round_trip(data: &TraceData) -> TraceData {
        let doc = json::parse(&render_chrome_trace("t", data)).expect("export parses");
        trace_from_chrome(&doc).expect("export reads back")
    }

    fn sample_data() -> TraceData {
        TraceData {
            sample_interval: SimDuration::from_millis(100),
            nodes: vec!["ndt".to_string(), "vision".to_string()],
            subscriptions: vec![("/points_raw".to_string(), "ndt".to_string())],
            events: vec![
                TraceEvent::Callback {
                    node: "ndt".to_string(),
                    topic: "/points_raw".to_string(),
                    arrival: SimTime::from_millis(100),
                    started: SimTime::from_millis(110),
                    completed: SimTime::from_millis(150),
                    lineage: vec![(Source::Lidar, SimTime::from_millis(100))],
                    published: vec!["/pose".to_string()],
                },
                TraceEvent::Dropped {
                    topic: "/points_raw".to_string(),
                    node: "ndt".to_string(),
                    depth: 1,
                    time: SimTime::from_millis(200),
                },
                TraceEvent::Callback {
                    node: "vision".to_string(),
                    topic: "/pose".to_string(),
                    arrival: SimTime::from_millis(150),
                    started: SimTime::from_millis(150),
                    completed: SimTime::from_millis(180),
                    lineage: vec![(Source::Lidar, SimTime::from_millis(100))],
                    published: vec![],
                },
            ],
            samples: vec![MetricSample {
                time: SimTime::from_millis(100),
                queue_depths: vec![0],
                node_busy_frac: vec![0.25, 0.5],
                cpu_util: 0.4,
                gpu_util: 0.1,
                cpu_w: 50.0,
                gpu_w: 20.5,
            }],
            policy: None,
        }
    }

    #[test]
    fn chrome_trace_structure() {
        let json = render_chrome_trace("smoke", &sample_data());
        // Parses with our own reader.
        let value = crate::json::parse(&json).expect("valid JSON");
        let events = value.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        // Wait slice visible (10 ms of queue wait on the first callback).
        assert!(json.contains("\"wait:/points_raw\""));
        // Flow pair: Lidar stamp appears on two callbacks → s + f.
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        // Drop instant.
        assert!(json.contains("\"cat\":\"drop\""));
        // Timestamps are µs with ns fraction: 100 ms → 100000.000.
        assert!(json.contains("\"ts\":100000.000"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let data = sample_data();
        assert_eq!(render_chrome_trace("smoke", &data), render_chrome_trace("smoke", &data));
        assert_eq!(render_metrics_csv(&data), render_metrics_csv(&data));
    }

    #[test]
    fn csv_rows_match_samples() {
        let csv = render_metrics_csv(&sample_data());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "time_s,cpu_util,gpu_util,cpu_w,gpu_w,busy:ndt,busy:vision,qdepth:/points_raw:ndt"
        );
        assert_eq!(lines[1], "0.100000000,0.4,0.1,50,20.5,0.25,0.5,0");
    }

    fn queue(enqueue: bool, topic: &str, node: &str, depth: usize, ms: u64) -> TraceEvent {
        let (topic, node, time) = (topic.to_string(), node.to_string(), SimTime::from_millis(ms));
        if enqueue {
            TraceEvent::Enqueued { topic, node, depth, time }
        } else {
            TraceEvent::Dequeued { topic, node, depth, time }
        }
    }

    fn fault(kind: FaultKind, node: &str, info: &str, ms: u64) -> TraceEvent {
        let (node, info) = (node.to_string(), info.to_string());
        TraceEvent::Fault { kind, node, info, time: SimTime::from_millis(ms) }
    }

    /// Every event kind and every queue-counter case the reader has to
    /// tell apart.
    fn every_case() -> TraceData {
        let sample = |ms, depths: Vec<u64>, busy| MetricSample {
            time: SimTime::from_millis(ms),
            queue_depths: depths,
            node_busy_frac: busy,
            cpu_util: 0.1 + 0.2,
            gpu_util: 1.0 / 3.0,
            cpu_w: 1e-7,
            gpu_w: 20.5,
        };
        TraceData {
            sample_interval: SimDuration::from_millis(100),
            policy: Some("edf".to_string()),
            nodes: vec!["ndt".to_string(), "vision".to_string()],
            subscriptions: vec![
                ("/points_raw".to_string(), "ndt".to_string()),
                ("/image_raw".to_string(), "vision".to_string()),
            ],
            events: vec![
                queue(true, "/image_raw", "vision", 1, 1),
                // A full queue: the enqueue overshoots, the drop trims.
                queue(true, "/image_raw", "vision", 2, 2),
                TraceEvent::Dropped {
                    topic: "/image_raw".to_string(),
                    node: "vision".to_string(),
                    depth: 1,
                    time: SimTime::from_nanos(2_000_001),
                },
                queue(true, "/points_raw", "ndt", 1, 3),
                queue(true, "/points_raw", "ndt", 2, 4),
                // The crash empties ndt's queue without queue events, so
                // the next enqueue is at depth 1, below the last counter.
                fault(FaultKind::Crash, "ndt", "lost=2", 5),
                queue(true, "/points_raw", "ndt", 1, 6),
                fault(FaultKind::Restart, "ndt", "", 7),
                TraceEvent::SchedDecision {
                    node: "vision".to_string(),
                    topic: "/image_raw".to_string(),
                    considered: 2,
                    key: -42,
                    time: SimTime::from_millis(8),
                },
                queue(false, "/image_raw", "vision", 0, 8),
                TraceEvent::Callback {
                    node: "vision".to_string(),
                    topic: "/image_raw".to_string(),
                    arrival: SimTime::from_millis(2),
                    started: SimTime::from_millis(8),
                    completed: SimTime::from_nanos(20_000_007),
                    // Not in `Source::ALL` order: read back as listed.
                    lineage: vec![
                        (Source::Camera, SimTime::from_millis(1)),
                        (Source::Lidar, SimTime::ZERO),
                    ],
                    published: vec!["/image_obj".to_string(), "/vision \"q\"".to_string()],
                },
                queue(false, "/points_raw", "ndt", 0, 9),
                TraceEvent::Callback {
                    node: "ndt".to_string(),
                    topic: "/points_raw".to_string(),
                    arrival: SimTime::from_millis(6),
                    started: SimTime::from_millis(9),
                    completed: SimTime::from_millis(30),
                    lineage: vec![(Source::Lidar, SimTime::from_millis(6))],
                    published: vec![],
                },
            ],
            samples: vec![
                sample(100, vec![0, 1], vec![0.25, 0.5]),
                sample(200, vec![0, 0], vec![0.0, 1.0]),
            ],
        }
    }

    #[test]
    fn reader_inverts_the_exporter_exactly() {
        let data = every_case();
        let json = render_chrome_trace("t", &data);
        assert!(json.contains("\"fault:crash\""));
        assert!(json.contains("\"sched_policy\":\"edf\""));
        assert!(json.contains("\"key\":-42"));
        assert_eq!(round_trip(&data), data);
        // A FIFO trace keeps its policy absent.
        let fifo = TraceData { policy: None, ..every_case() };
        assert!(!render_chrome_trace("t", &fifo).contains("sched_policy"));
        assert_eq!(round_trip(&fifo), fifo);
    }

    #[test]
    fn a_drop_without_its_queue_counter_is_an_error() {
        let json = render_chrome_trace("t", &every_case());
        let lines: Vec<&str> = json.lines().collect();
        let drop = lines.iter().position(|l| l.contains("\"cat\":\"drop\"")).unwrap();
        assert!(lines[drop + 1].contains("\"cat\":\"queue\""));
        let mut cut = lines.clone();
        cut.remove(drop + 1);
        let doc = json::parse(&cut.join("\n")).unwrap();
        let err = trace_from_chrome(&doc).unwrap_err();
        assert!(err.contains("without its queue counter"), "{err}");
    }

    #[test]
    fn rejects_non_trace_documents() {
        assert!(trace_from_chrome(&json::parse("{\"a\":1}").unwrap()).is_err());
        let no_header = "{\"traceEvents\":[]}";
        assert!(trace_from_chrome(&json::parse(no_header).unwrap()).is_err());
        let header = "{\"otherData\":{\"sample_interval_ns\":1},\"traceEvents\":[]}";
        assert_eq!(trace_from_chrome(&json::parse(header).unwrap()).unwrap().events, vec![]);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape("plain"), "plain");
    }
}
