//! `drive` — runs one simulated drive, durably checkpointed.
//!
//! ```text
//! usage: drive [--world <smoke|paper>] [--point <json>] [--duration <s>]
//!              [--trace] [--ckpt-dir <dir>] [--ckpt-every <s>]
//!              [--trace-out <file>] [--metrics-out <file>] [--summary-out <file>]
//! ```
//!
//! The single-drive consumer of the durable checkpoint store
//! ([`av_core::ckptstore`]). With `--ckpt-dir`, the run warm-starts
//! from the newest stored barrier of this exact configuration — a
//! barrier some *earlier process* captured — and simulates only the
//! remainder; with `--ckpt-every <s>` it also captures (and persists,
//! crash-safely) a checkpoint at every such interval plus one at the
//! horizon, so a killed process loses at most one interval of work.
//! Because every capture is byte-faithful, the resumed run's outputs —
//! golden hash, Chrome trace, metrics CSV — are identical to a straight
//! cold run; the cross-process store tests pin exactly that.
//!
//! `--summary-out` writes a small JSON whose bytes are a pure function
//! of the configuration (never of how much was resumed), so two
//! processes arriving at the same horizon can be `cmp`-ed directly.

use av_bench::cli::{self, Args};
use av_core::determinism::run_hash;
use av_core::stack::{drive, drive_fingerprint, Checkpoint, DriveRequest, RunConfig, StackConfig};
use av_sweep::{SweepPoint, WorldKind};
use av_trace::export::{render_chrome_trace, render_metrics_csv};
use av_trace::json;
use std::path::PathBuf;

const USAGE: &str = "\
usage: drive [--world <smoke|paper>] [--point <json>] [--duration <s>]
             [--trace] [--ckpt-dir <dir>] [--ckpt-every <s>]
             [--trace-out <file>] [--metrics-out <file>] [--summary-out <file>]";

struct Options {
    world: WorldKind,
    point: SweepPoint,
    duration_s: f64,
    trace: bool,
    ckpt_dir: Option<PathBuf>,
    ckpt_every_s: Option<f64>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    summary_out: Option<PathBuf>,
}

fn parse_args() -> Options {
    let mut options = Options {
        world: WorldKind::Smoke,
        point: SweepPoint::default(),
        duration_s: 8.0,
        trace: false,
        ckpt_dir: None,
        ckpt_every_s: None,
        trace_out: None,
        metrics_out: None,
        summary_out: None,
    };
    let mut args = Args::from_env(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--world" => options.world = args.parse_with(WorldKind::parse),
            "--point" => {
                options.point = args.parse_with(|text| {
                    let value = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
                    SweepPoint::from_json_value(&value)
                });
            }
            "--duration" => options.duration_s = args.parse(),
            "--trace" => options.trace = true,
            "--ckpt-dir" => options.ckpt_dir = Some(PathBuf::from(args.value())),
            "--ckpt-every" => options.ckpt_every_s = Some(args.parse()),
            "--trace-out" => options.trace_out = Some(PathBuf::from(args.value())),
            "--metrics-out" => options.metrics_out = Some(PathBuf::from(args.value())),
            "--summary-out" => options.summary_out = Some(PathBuf::from(args.value())),
            other => args.unknown(other),
        }
    }
    let positive = |s: f64| s.is_finite() && s > 0.0;
    if !positive(options.duration_s) {
        args.fail("--duration must be positive");
    }
    if options.ckpt_every_s.is_some_and(|every| !positive(every)) {
        args.fail("--ckpt-every must be positive");
    }
    if options.ckpt_every_s.is_some() && options.ckpt_dir.is_none() {
        args.fail("--ckpt-every needs --ckpt-dir");
    }
    if (options.trace_out.is_some() || options.metrics_out.is_some()) && !options.trace {
        args.fail("--trace-out and --metrics-out need --trace");
    }
    options
}

fn main() {
    let options = parse_args();
    let config: StackConfig = options.point.apply(&options.world.base_config());
    let run = if options.trace {
        RunConfig::seconds(options.duration_s).with_trace()
    } else {
        RunConfig::seconds(options.duration_s)
    };
    let fingerprint = drive_fingerprint(&config);
    let horizon_ns = (options.duration_s * 1e9).round() as u64;

    let store = options.ckpt_dir.as_deref().map(cli::open_store);

    // Warm start: the newest stored barrier of this exact configuration
    // (and tracing mode) at or before the horizon.
    let mut cursor: Option<Checkpoint> =
        store.as_ref().and_then(|st| st.best_resume(fingerprint, options.trace, horizon_ns));
    if let Some(cp) = &cursor {
        eprintln!(
            "warm start: resuming fingerprint {fingerprint:#018x} from stored barrier {:.1} s",
            cp.barrier_s()
        );
    }
    let resumed_from_s = cursor.as_ref().map(Checkpoint::barrier_s);

    // Periodic captures: run barrier to barrier, persisting each
    // snapshot through the store's crash-safe path. Capture is
    // horizon-independent, so a snapshot taken at the end of a short
    // leg is byte-identical to one taken mid-flight of the full drive.
    if let (Some(st), Some(every)) = (store.as_ref(), options.ckpt_every_s) {
        let mut barrier_s = every;
        while barrier_s < options.duration_s - 1e-9 {
            let already = cursor.as_ref().is_some_and(|cp| cp.barrier_s() >= barrier_s - 1e-9);
            if !already {
                let leg = if options.trace {
                    RunConfig::seconds(barrier_s).with_trace()
                } else {
                    RunConfig::seconds(barrier_s)
                };
                let request = DriveRequest {
                    from: cursor.as_ref(),
                    capture_at_s: Some(barrier_s),
                    ..DriveRequest::default()
                };
                let cp = drive(&config, &leg, request).1.expect("captured at the barrier");
                st.put_or_warn(&cp);
                cursor = Some(cp);
            }
            barrier_s += every;
        }
    }

    // The final leg produces the run's actual report; with a store, it
    // also captures the horizon so a later process can reuse or extend
    // this drive without re-simulating anything. A store that already
    // holds the horizon leaves a pure end-of-run drain, with nothing new
    // to capture.
    let request = DriveRequest {
        from: cursor.as_ref(),
        capture_at_s: store.is_some().then_some(options.duration_s),
        ..DriveRequest::default()
    };
    let (report, captured) = drive(&config, &run, request);
    if let (Some(st), Some(cp)) = (&store, &captured) {
        st.put_or_warn(cp);
    }
    let hash = run_hash(&report);

    if let Some(path) = &options.trace_out {
        let trace = report.trace.as_ref().expect("--trace-out is checked to come with --trace");
        cli::write(path, render_chrome_trace("drive", trace));
    }
    if let Some(path) = &options.metrics_out {
        let trace = report.trace.as_ref().expect("--metrics-out is checked to come with --trace");
        cli::write(path, render_metrics_csv(trace));
    }
    if let Some(path) = &options.summary_out {
        // Deterministic bytes only: no resume provenance, no store
        // state — two processes reaching the same horizon must agree.
        let summary = format!(
            "{{\n  \"world\": \"{}\",\n  \"point\": \"{}\",\n  \"duration_s\": {:?},\n  \
             \"fingerprint\": \"{fingerprint:#018x}\",\n  \"run_hash\": \"{hash:#018x}\"\n}}\n",
            options.world.name(),
            options.point.label(),
            options.duration_s
        );
        cli::write(path, summary);
    }

    match resumed_from_s {
        Some(s) => println!(
            "drive {}: {:.1} s horizon, resumed at {s:.1} s, run hash {hash:#018x}",
            options.point.label(),
            options.duration_s
        ),
        None => println!(
            "drive {}: {:.1} s horizon, cold, run hash {hash:#018x}",
            options.point.label(),
            options.duration_s
        ),
    }
    if let (Some(st), Some(dir)) = (&store, &options.ckpt_dir) {
        println!(
            "checkpoint store {}: {} entr{} ({} B)",
            dir.display(),
            st.len(),
            if st.len() == 1 { "y" } else { "ies" },
            st.total_bytes()
        );
    }
}
