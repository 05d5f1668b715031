//! Deterministic request execution.
//!
//! A session turns one [`WorkRequest`] into a stream of event payloads
//! on its [`EventBus`] plus a response body string. Everything emitted
//! here is a pure function of the request: progress pulses are pinned
//! to virtual-time slice boundaries (not wall clock), trace events come
//! from the deterministic runners in emission order, and bodies render
//! floats with the shortest round-trip form. That purity is what lets
//! the result store answer repeats byte-for-byte and what the
//! determinism suite pins.

use crate::bus::EventBus;
use crate::protocol::{hex64, json_num, Work, WorkRequest};
use crate::store::ResultEntry;
use av_core::ckptstore::CkptStore;
use av_core::determinism::run_hash;
use av_core::metrics::{blame_scalars, run_metrics};
use av_core::stack::{drive, drive_fingerprint, DriveProgress, DriveRequest, RunConfig, RunReport};
use av_sweep::{aggregate, run_search_instrumented, run_sweep_streamed, SweepPoint, WorldKind};
use av_trace::export::{escape, render_event_jsonl};

/// Virtual seconds between streamed progress pulses.
pub const DRIVE_SLICE_S: f64 = 1.0;

/// Runs one request, emitting event payloads on `bus` while it
/// executes, and returns the deterministic response body.
///
/// With a durable checkpoint store (`ckpt`), drive and blame sessions
/// warm-start from the newest stored barrier of their exact
/// configuration and persist a snapshot at their horizon — the
/// machinery behind the `extend` request kind. The store never changes
/// a response byte: resumed sessions stream the same pulses, bodies and
/// hashes as cold ones, which is what keeps the result store's
/// byte-identity contract intact.
///
/// Errors are session-level failures (e.g. blame on a run that produced
/// no trace); they are reported to the client as `error` frames and are
/// never stored.
pub fn execute(
    request: &WorkRequest,
    bus: &mut EventBus,
    ckpt: Option<&CkptStore>,
) -> Result<String, String> {
    match &request.work {
        Work::Drive { world, point, duration_s, trace } => {
            let mut run = RunConfig::seconds(*duration_s);
            if *trace {
                run = run.with_trace();
            }
            let report = streamed_drive(*world, point, &run, request.stream_trace, bus, ckpt);
            let events = report.trace.as_ref().map_or(0, |t| t.events.len());
            Ok(format!(
                "{{\"kind\":\"drive\",\"world\":\"{}\",\"duration_s\":{},\
                 \"run_hash\":\"{}\",\"trace_events\":{events},\"metrics\":{}}}",
                world.name(),
                json_num(*duration_s),
                hex64(run_hash(&report)),
                metrics_json(&report)
            ))
        }
        Work::Blame { world, point, duration_s } => {
            let run = RunConfig::seconds(*duration_s).with_trace();
            let report = streamed_drive(*world, point, &run, request.stream_trace, bus, ckpt);
            let scalars = blame_scalars(&report)?;
            let inner: Vec<String> = scalars
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", escape(k), json_num(*v)))
                .collect();
            Ok(format!(
                "{{\"kind\":\"blame\",\"world\":\"{}\",\"duration_s\":{},\
                 \"run_hash\":\"{}\",\"scalars\":{{{}}}}}",
                world.name(),
                json_num(*duration_s),
                hex64(run_hash(&report)),
                inner.join(",")
            ))
        }
        Work::Sweep { spec } => {
            let points = spec.points().len();
            bus.emit(&format!(
                "{{\"phase\":\"started\",\"kind\":\"sweep\",\"name\":\"{}\",\"points\":{points}}}",
                escape(&spec.name)
            ));
            let run = RunConfig::default();
            let (results, stats) = run_sweep_streamed(spec, &run, request.jobs, None, |r| {
                bus.emit(&format!(
                    "{{\"phase\":\"point\",\"ordinal\":{},\"id\":\"{}\",\"label\":\"{}\",\
                     \"run_hash\":\"{}\"}}",
                    r.point.ordinal,
                    r.point.id(),
                    escape(&r.point.label()),
                    hex64(r.run_hash)
                ));
            });
            let artifacts = aggregate(spec, &results);
            bus.emit(&format!(
                "{{\"phase\":\"done\",\"points\":{},\"sweep_hash\":\"{}\"}}",
                results.len(),
                hex64(artifacts.sweep_hash)
            ));
            let detail: Vec<String> = results
                .iter()
                .map(|r| {
                    format!(
                        "{{\"id\":\"{}\",\"label\":\"{}\",\"run_hash\":\"{}\"}}",
                        r.point.id(),
                        escape(&r.point.label()),
                        hex64(r.run_hash)
                    )
                })
                .collect();
            Ok(format!(
                "{{\"kind\":\"sweep\",\"name\":\"{}\",\"points\":{},\"unique_points\":{},\
                 \"deduped\":{},\"sweep_hash\":\"{}\",\"results\":[{}]}}",
                escape(&spec.name),
                stats.points,
                stats.unique_points,
                stats.deduped,
                hex64(artifacts.sweep_hash),
                detail.join(",")
            ))
        }
        Work::Search { spec } => {
            bus.emit(&format!(
                "{{\"phase\":\"started\",\"kind\":\"search\",\"name\":\"{}\"}}",
                escape(&spec.name)
            ));
            let outcome = run_search_instrumented(spec, request.jobs, &[], true).0;
            for batch in &outcome.batches {
                bus.emit(&format!(
                    "{{\"phase\":\"batch\",\"index\":{},\"stage\":\"{}\",\"evals\":{}}}",
                    batch.index,
                    escape(&batch.stage),
                    batch.evals.len()
                ));
            }
            bus.emit(&format!(
                "{{\"phase\":\"done\",\"evaluations\":{},\"search_hash\":\"{}\"}}",
                outcome.evaluations(),
                hex64(outcome.search_hash)
            ));
            Ok(format!(
                "{{\"kind\":\"search\",\"name\":\"{}\",\"batches\":{},\"evaluations\":{},\
                 \"search_hash\":\"{}\",\"answer\":\"{}\"}}",
                escape(&spec.name),
                outcome.batches.len(),
                outcome.evaluations(),
                hex64(outcome.search_hash),
                escape(&format!("{:?}", outcome.answer))
            ))
        }
    }
}

/// Re-emits a stored session's event payloads on a fresh bus. Because
/// the bus stamps sequence numbers from zero, the streamed frames are
/// byte-identical to the live run's.
pub fn replay(entry: &ResultEntry, bus: &mut EventBus) {
    for payload in &entry.events {
        bus.emit(payload);
    }
}

fn streamed_drive(
    world: WorldKind,
    point: &SweepPoint,
    run: &RunConfig,
    stream_trace: bool,
    bus: &mut EventBus,
    ckpt: Option<&CkptStore>,
) -> RunReport {
    let config = point.apply(&world.base_config());
    bus.emit(&format!(
        "{{\"phase\":\"started\",\"kind\":\"drive\",\"world\":\"{}\",\"point\":\"{}\"}}",
        world.name(),
        escape(&point.label())
    ));
    let mut on_progress = |p: DriveProgress<'_>| {
        if stream_trace {
            for event in p.new_events {
                bus.emit(&render_event_jsonl(event));
            }
        }
        bus.emit(&format!(
            "{{\"phase\":\"progress\",\"t_s\":{},\"events_total\":{},\"done\":{}}}",
            json_num(p.time_s),
            p.events_total,
            p.done
        ));
    };

    // Durable warm start: resume from the newest stored barrier of this
    // exact configuration (inclusive of the horizon itself — a finished
    // drive replays as a pure drain, with nothing new to snap) and
    // persist a fresh snapshot at the horizon so the next, longer
    // `extend` picks up here.
    let horizon_s = run.duration_s.expect("served drives have a bounded horizon");
    let horizon_ns = (horizon_s * 1e9).round() as u64;
    let from = ckpt.and_then(|store| {
        store.best_resume(drive_fingerprint(&config), run.trace.is_some(), horizon_ns)
    });
    let request = DriveRequest {
        from: from.as_ref(),
        capture_at_s: ckpt.is_some().then_some(horizon_s),
        stream: Some((DRIVE_SLICE_S, &mut on_progress)),
        maps: None,
    };
    let (report, snapshot) = drive(&config, run, request);
    if let (Some(store), Some(snapshot)) = (ckpt, &snapshot) {
        store.put_or_warn(snapshot);
    }
    report
}

fn metrics_json(report: &RunReport) -> String {
    let m = run_metrics(report);
    format!(
        "{{\"worst_path\":\"{}\",\"e2e_mean_ms\":{},\"e2e_p99_ms\":{},\"e2e_max_ms\":{},\
         \"deadline_factor\":{},\"deadline_miss_fraction\":{},\"drop_pct\":{},\
         \"cpu_w\":{},\"gpu_w\":{}}}",
        escape(&m.worst_path),
        json_num(m.e2e_mean_ms),
        json_num(m.e2e_p99_ms),
        json_num(m.e2e_max_ms),
        json_num(m.deadline_factor),
        json_num(m.deadline_miss_fraction),
        json_num(m.drop_pct),
        json_num(m.cpu_w),
        json_num(m.gpu_w)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::ChannelSink;
    use crate::protocol::{parse_request, Request};
    use av_trace::json;
    use std::sync::mpsc;

    fn work(line: &str) -> WorkRequest {
        match parse_request(line) {
            Ok(Request::Work(wr)) => *wr,
            other => panic!("expected work request, got {other:?}"),
        }
    }

    fn run_collecting_with(
        request: &WorkRequest,
        ckpt: Option<&CkptStore>,
    ) -> (Vec<String>, String) {
        let (tx, rx) = mpsc::channel();
        let mut bus = EventBus::new(&request.id);
        bus.add_sink(Box::new(ChannelSink::new(tx)));
        let body = execute(request, &mut bus, ckpt).expect("session succeeds");
        (rx.try_iter().map(|(_, payload)| payload).collect(), body)
    }

    fn run_collecting(request: &WorkRequest) -> (Vec<String>, String) {
        run_collecting_with(request, None)
    }

    #[test]
    fn streamed_drive_sessions_are_byte_reproducible() {
        let request = work(
            r#"{"id":"d","kind":"drive","world":"smoke","duration_s":2.0,
                "trace":true,"stream_trace":true}"#,
        );
        let (events_a, body_a) = run_collecting(&request);
        let (events_b, body_b) = run_collecting(&request);
        assert_eq!(events_a, events_b, "event payloads must be deterministic");
        assert_eq!(body_a, body_b, "bodies must be deterministic");
        assert!(events_a.iter().any(|p| p.contains("\"ev\":\"callback\"")), "trace streamed");
        assert!(events_a.last().unwrap().contains("\"done\":true"));
        assert!(json::parse(&body_a).is_ok(), "body is valid JSON: {body_a}");
    }

    #[test]
    fn replay_reproduces_the_live_event_stream() {
        let request = work(r#"{"id":"d","kind":"drive","world":"smoke","duration_s":2.0}"#);
        let (live, body) = run_collecting(&request);

        let entry = ResultEntry { fingerprint: request.fingerprint(), body, events: live.clone() };
        let (tx, rx) = mpsc::channel();
        let mut bus = EventBus::new(&request.id);
        bus.add_sink(Box::new(ChannelSink::new(tx)));
        replay(&entry, &mut bus);
        let replayed: Vec<String> = rx.try_iter().map(|(_, p)| p).collect();
        assert_eq!(live, replayed);
    }

    #[test]
    fn store_backed_extend_streams_byte_identically_to_a_cold_drive() {
        let dir =
            std::env::temp_dir().join(format!("av-serve-session-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, recovery) = CkptStore::open(&dir).expect("open store");
        assert!(recovery.is_clean());

        let short = work(
            r#"{"id":"e","kind":"drive","world":"smoke","duration_s":2.0,
                "trace":true,"stream_trace":true}"#,
        );
        let long = work(
            r#"{"id":"e","kind":"extend","world":"smoke","duration_s":4.0,
                "trace":true,"stream_trace":true}"#,
        );

        // Straight-through reference, no store anywhere near it.
        let (cold_events, cold_body) = run_collecting(&long);

        // A store-backed short drive persists its horizon; extending to
        // the longer horizon then warm-starts from that barrier, and
        // every streamed byte must still match the cold run.
        let _ = run_collecting_with(&short, Some(&store));
        assert!(!store.is_empty(), "short drive persisted its horizon checkpoint");
        let (warm_events, warm_body) = run_collecting_with(&long, Some(&store));
        assert_eq!(warm_body, cold_body, "extend body must match a cold drive");
        assert_eq!(warm_events, cold_events, "extend event stream must match a cold drive");

        // Re-asking at the stored horizon is a pure drain — still
        // byte-identical, and it must not fail on "nothing to capture".
        let (drain_events, drain_body) = run_collecting_with(&long, Some(&store));
        assert_eq!(drain_body, cold_body);
        assert_eq!(drain_events, cold_events);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_sessions_stream_points_in_ordinal_order() {
        let request = work(
            r#"{"id":"s","kind":"sweep","jobs":2,"spec":{"name":"svc","world":"smoke",
                "duration_s":2.0,"grid":{"camera_rate_hz":[20.0,40.0]}}}"#,
        );
        let (events, body) = run_collecting(&request);
        let ordinals: Vec<&str> = events
            .iter()
            .filter(|p| p.contains("\"phase\":\"point\""))
            .map(|p| p.as_str())
            .collect();
        assert_eq!(ordinals.len(), 2);
        assert!(ordinals[0].contains("\"ordinal\":0"));
        assert!(ordinals[1].contains("\"ordinal\":1"));
        assert!(body.contains("\"sweep_hash\":\"0x"));
        assert!(json::parse(&body).is_ok(), "body is valid JSON: {body}");
    }
}
