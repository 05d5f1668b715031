//! `serve` — the long-lived scenario service.
//!
//! ```text
//! usage: serve [--port N] [--port-file FILE] [--workers N] [--queue N]
//!              [--spool DIR] [--event-log FILE] [--ckpt-dir DIR]
//!        serve --check
//!        serve --bench [--out DIR] [--levels N,M,...] [--duration <s>]
//! ```
//!
//! The default mode binds localhost (`--port 0` picks an ephemeral
//! port), prints `host:port` on stdout (and to `--port-file` for
//! scripts), and serves until a `shutdown` request arrives. `--spool`
//! makes the content-addressed result store durable across restarts;
//! `--event-log` appends every streamed event frame to a file;
//! `--ckpt-dir` opens a durable checkpoint store so drive sessions
//! warm-start from stored barriers and `extend` requests resume prior
//! drives to longer horizons byte-identically to cold runs.
//!
//! `--check` runs the built-in protocol self-test (ping, malformed
//! frame, cold drive, byte-identical store-served repeat, oversized
//! frame, graceful drain) against a private in-process service and
//! exits nonzero on any failure — the tier-1 gate.
//!
//! `--bench` runs the E-serve load harness: a fresh service per worker
//! level under concurrent synthetic tenants, reporting throughput,
//! queue wait, cache hit-rate, and repeat byte-identity. On a
//! single-core host it *warns* rather than pretending worker scaling is
//! measurable.

use av_bench::cli::{self, Args};
use av_serve::bench::{render_csv, render_json, run_load, BenchOptions};
use av_serve::server::run_check;
use av_serve::{ServeConfig, Server};
use std::path::PathBuf;

const USAGE: &str = "\
usage: serve [--port N] [--port-file FILE] [--workers N] [--queue N]
             [--spool DIR] [--event-log FILE] [--ckpt-dir DIR]
       serve --check
       serve --bench [--out DIR] [--levels N,M,...] [--duration <s>]";

enum Mode {
    Serve,
    Check,
    Bench,
}

struct Options {
    mode: Mode,
    config: ServeConfig,
    port_file: Option<PathBuf>,
    out_dir: PathBuf,
    bench: BenchOptions,
}

fn parse_args() -> Options {
    let mut options = Options {
        mode: Mode::Serve,
        config: ServeConfig::default(),
        port_file: None,
        out_dir: PathBuf::from("results/serve"),
        bench: BenchOptions::default(),
    };
    let mut args = Args::from_env(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => options.mode = Mode::Check,
            "--bench" => options.mode = Mode::Bench,
            "--port" => options.config.port = args.parse(),
            "--port-file" => options.port_file = Some(PathBuf::from(args.value())),
            "--workers" => options.config.workers = args.parse(),
            "--queue" => options.config.queue_capacity = args.parse(),
            "--spool" => options.config.spool = Some(PathBuf::from(args.value())),
            "--event-log" => options.config.event_log = Some(PathBuf::from(args.value())),
            "--ckpt-dir" => options.config.ckpt_dir = Some(PathBuf::from(args.value())),
            "--out" => options.out_dir = PathBuf::from(args.value()),
            "--levels" => options.bench.worker_levels = args.list(),
            "--duration" => options.bench.duration_s = args.parse(),
            other => args.unknown(other),
        }
    }
    if options.config.workers == 0 {
        args.fail("--workers must be at least 1");
    }
    options
}

fn main() {
    let options = parse_args();
    match options.mode {
        Mode::Check => match run_check() {
            Ok(summary) => println!("{summary}"),
            Err(reason) => {
                eprintln!("{reason}");
                std::process::exit(1);
            }
        },
        Mode::Bench => {
            let (levels, cores) = run_load(&options.bench).expect("load harness");
            if cores <= 1 {
                eprintln!(
                    "WARNING: single-core host ({cores} core) — worker-pool levels measure \
                     queueing behaviour, not parallel speedup; do not read throughput \
                     deltas as scaling."
                );
            }
            let json_path = options.out_dir.join("BENCH_serve.json");
            let csv_path = options.out_dir.join("BENCH_serve.csv");
            cli::write(&json_path, render_json(&options.bench, &levels, cores));
            cli::write(&csv_path, render_csv(&levels));
            for level in &levels {
                println!(
                    "workers {}: {} requests in {:.0} ms ({:.2} req/s), cache hit rate \
                     {:.2}, queue wait mean {:.1} ms, byte_identical {}",
                    level.workers,
                    level.requests,
                    level.wall_ms,
                    level.throughput_rps,
                    level.cache_hit_rate,
                    level.queue_wait_ms_mean,
                    level.byte_identical
                );
                assert!(level.byte_identical, "store-served repeats must be byte-identical");
            }
            println!("wrote {} and {}", json_path.display(), csv_path.display());
        }
        Mode::Serve => {
            let server = Server::start(options.config)
                .unwrap_or_else(|e| cli::die(format_args!("cannot start the service: {e}")));
            let addr = server.addr();
            println!("{addr}");
            if let Some(path) = &options.port_file {
                cli::write(path, format!("{addr}\n"));
            }
            eprintln!("av-serve listening on {addr} (send a shutdown request to stop)");
            server.wait().expect("service threads");
        }
    }
}
