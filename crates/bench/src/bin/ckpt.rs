//! `ckpt` — operator tooling for the durable checkpoint store.
//!
//! ```text
//! usage: ckpt ls     --dir <store>
//!        ckpt verify --dir <store>
//!        ckpt gc     --dir <store> --max-bytes <N>
//!        ckpt rm     --dir <store> --fingerprint <hex> [--barrier-ns <N>]
//! ```
//!
//! Every subcommand opens the store, which runs the full recovery scan:
//! entries that fail verification are renamed into `quarantine/` (with a
//! `.reason` sidecar) and reported loudly — never deleted silently.
//!
//! * `ls` — one line per verified entry (fingerprint, barrier, traced,
//!   bytes), plus anything sitting in quarantine.
//! * `verify` — like `ls`, but **exits nonzero** if this scan
//!   quarantined anything *or* quarantine already holds entries: a red
//!   gate until an operator inspects and clears them.
//! * `gc` — deterministic eviction down to `--max-bytes`: newest
//!   barrier per fingerprint survives first; eviction order is
//!   (barrier, fingerprint) ascending. Prints every evicted entry.
//! * `rm` — deletes all entries of a fingerprint, or one exact
//!   `(fingerprint, barrier)` entry.

use av_bench::cli::{self, Args};
use std::path::PathBuf;

const USAGE: &str = "\
usage: ckpt ls     --dir <store>
       ckpt verify --dir <store>
       ckpt gc     --dir <store> --max-bytes <N>
       ckpt rm     --dir <store> --fingerprint <hex> [--barrier-ns <N>]";

struct Options {
    command: String,
    dir: PathBuf,
    max_bytes: Option<u64>,
    fingerprint: Option<u64>,
    barrier_ns: Option<u64>,
}

fn parse_args() -> Options {
    let mut args = Args::from_env(USAGE);
    let command = match args.next() {
        Some(c) if ["ls", "verify", "gc", "rm"].contains(&c.as_str()) => c,
        Some(c) => args.fail(format_args!("unknown command {c:?}")),
        None => args.fail("a command is required"),
    };
    let mut dir = None;
    let mut max_bytes = None;
    let mut fingerprint = None;
    let mut barrier_ns = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => dir = Some(PathBuf::from(args.value())),
            "--max-bytes" => max_bytes = Some(args.parse()),
            "--fingerprint" => {
                fingerprint = Some(args.parse_with(|value| {
                    u64::from_str_radix(value.strip_prefix("0x").unwrap_or(value), 16)
                }));
            }
            "--barrier-ns" => barrier_ns = Some(args.parse()),
            other => args.unknown(other),
        }
    }
    let dir = dir.unwrap_or_else(|| args.fail(format_args!("ckpt {command}: --dir is required")));
    match command.as_str() {
        "gc" if max_bytes.is_none() => args.fail("ckpt gc: --max-bytes is required"),
        "rm" if fingerprint.is_none() => args.fail("ckpt rm: --fingerprint is required"),
        _ => Options { command, dir, max_bytes, fingerprint, barrier_ns },
    }
}

fn main() {
    let options = parse_args();
    let store = cli::open_store(&options.dir);

    match options.command.as_str() {
        "ls" | "verify" => {
            let entries = store.entries();
            println!(
                "store {}: {} entr{}, {} B",
                options.dir.display(),
                entries.len(),
                if entries.len() == 1 { "y" } else { "ies" },
                store.total_bytes()
            );
            for e in &entries {
                println!(
                    "  {}  barrier {:>8.1} s  {}  {:>8} B",
                    e.file_name(),
                    e.barrier_s(),
                    if e.header.traced { "traced  " } else { "untraced" },
                    e.file_bytes
                );
            }
            let quarantined = store.quarantined().expect("list quarantine");
            for name in &quarantined {
                let reason =
                    std::fs::read_to_string(store.quarantine_dir().join(format!("{name}.reason")))
                        .unwrap_or_else(|_| "(no reason sidecar)".to_string());
                println!("  quarantine/{name}: {}", reason.trim());
            }
            if options.command == "verify" {
                // Whatever this open's recovery scan set aside is in
                // quarantine too, so the listing covers it.
                if !quarantined.is_empty() {
                    eprintln!(
                        "verify FAILED: {} entr{} in quarantine (inspect and clear {})",
                        quarantined.len(),
                        if quarantined.len() == 1 { "y" } else { "ies" },
                        store.quarantine_dir().display()
                    );
                    std::process::exit(1);
                }
                println!("verify passed: every entry checksums clean");
            }
        }
        "gc" => {
            let max_bytes = options.max_bytes.expect("checked by parse_args");
            let report = store.gc(max_bytes).expect("gc");
            for e in &report.evicted {
                println!(
                    "evicted {}  barrier {:>8.1} s  {:>8} B",
                    e.file_name(),
                    e.barrier_s(),
                    e.file_bytes
                );
            }
            println!(
                "gc: {} B -> {} B ({} kept, {} evicted, budget {} B)",
                report.bytes_before,
                report.bytes_after,
                report.kept,
                report.evicted.len(),
                max_bytes
            );
        }
        "rm" => {
            let fingerprint = options.fingerprint.expect("checked by parse_args");
            let removed = store.remove(fingerprint, options.barrier_ns).expect("rm");
            for e in &removed {
                println!("removed {}", e.file_name());
            }
            if removed.is_empty() {
                eprintln!("ckpt rm: no matching entry");
                std::process::exit(1);
            }
        }
        _ => unreachable!(),
    }
}
