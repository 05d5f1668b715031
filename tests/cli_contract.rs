//! The command-line contract every harness binary keeps: `--help` exits
//! 0 and prints the usage (the same text as the binary's `//!` usage
//! block), while an unknown flag, a missing or malformed flag value, or
//! an unusable input exits 2 with a message — never a panic. No case
//! here gets far enough to start a simulation or a server.

use std::path::Path;
use std::process::{Command, Output};

const BINARIES: [(&str, &str); 10] = [
    ("repro", env!("CARGO_BIN_EXE_repro")),
    ("sweep", env!("CARGO_BIN_EXE_sweep")),
    ("search", env!("CARGO_BIN_EXE_search")),
    ("drive", env!("CARGO_BIN_EXE_drive")),
    ("ckpt", env!("CARGO_BIN_EXE_ckpt")),
    ("serve", env!("CARGO_BIN_EXE_serve")),
    ("av_client", env!("CARGO_BIN_EXE_av_client")),
    ("trace_report", env!("CARGO_BIN_EXE_trace_report")),
    ("blame_report", env!("CARGO_BIN_EXE_blame_report")),
    ("trace_diff", env!("CARGO_BIN_EXE_trace_diff")),
];

fn bin(name: &str) -> &'static str {
    BINARIES.iter().find(|(n, _)| *n == name).map(|(_, path)| *path).expect("known binary")
}

fn run(name: &str, args: &[&str]) -> (Output, String) {
    let out = Command::new(bin(name)).args(args).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out, stderr)
}

/// The ```` ```text ```` block of a binary's `//!` docs.
fn doc_usage(name: &str) -> String {
    let source = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("src/bin/{name}.rs"));
    let source = std::fs::read_to_string(source).expect("read binary source");
    let lines: Vec<&str> = source
        .lines()
        .skip_while(|l| *l != "//! ```text")
        .skip(1)
        .take_while(|l| *l != "//! ```")
        .map(|l| l.strip_prefix("//! ").unwrap_or(l.trim_start_matches("//!")))
        .collect();
    assert!(!lines.is_empty(), "{name}: no usage block in the module docs");
    lines.join("\n")
}

#[test]
fn help_exits_zero_with_the_documented_usage() {
    for (name, _) in BINARIES {
        let (out, stderr) = run(name, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{name} --help: {stderr}");
        assert!(stderr.starts_with("usage:"), "{name} --help: {stderr}");
        assert_eq!(stderr.trim_end(), doc_usage(name), "{name}: --help differs from its docs");
    }
}

#[test]
fn unknown_flags_exit_two_with_the_usage() {
    for (name, _) in BINARIES {
        let (out, stderr) = run(name, &["--no-such-flag"]);
        assert_eq!(out.status.code(), Some(2), "{name} --no-such-flag: {stderr}");
        assert!(stderr.contains("usage:"), "{name} --no-such-flag: {stderr}");
        assert!(!stderr.contains("panicked"), "{name} --no-such-flag: {stderr}");
    }
}

#[test]
fn bad_values_and_unusable_inputs_exit_two_without_a_panic() {
    let scratch = std::env::temp_dir().join(format!("av-cli-contract-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let regular_file = scratch.join("not-a-dir");
    std::fs::write(&regular_file, "x").expect("write scratch file");
    let regular_file = regular_file.to_str().expect("utf-8 temp path");

    let cases: &[(&str, &[&str])] = &[
        ("sweep", &["--jobs"]),
        ("sweep", &["--jobs", "x"]),
        ("search", &["--check-jobs", "1,x"]),
        ("repro", &["--check-jobs", ""]),
        ("repro", &["--duration", "soon"]),
        ("serve", &["--port", "x"]),
        ("serve", &["--workers", "0"]),
        ("ckpt", &["ls", "--max-bytes"]),
        ("ckpt", &["rm", "--dir", regular_file, "--fingerprint", "0xzz"]),
        ("ckpt", &["gc", "--dir", regular_file]),
        ("ckpt", &["ls", "--dir", regular_file]),
        ("ckpt", &[]),
        ("sweep", &["--spec", "/nonexistent.json"]),
        ("search", &["--resume", "/nonexistent.json"]),
        ("drive", &["--ckpt-dir", "/proc/nope"]),
        ("drive", &["--ckpt-dir", regular_file]),
        ("drive", &["--world", "moon"]),
        ("drive", &["--duration", "0"]),
        ("drive", &["--trace-out", "/nonexistent/t.json"]),
        ("av_client", &["--addr", "127.0.0.1:1", "--request", "/nonexistent.json"]),
        ("av_client", &["--addr", "no-port", "--ping"]),
        ("trace_report", &["/nonexistent.json"]),
        ("trace_report", &["--verify", "--detector", "yolov2"]),
        ("blame_report", &["--verify", "--duration"]),
        ("trace_diff", &["/nonexistent", "x"]),
        ("trace_diff", &["only-one.json"]),
    ];
    for (name, args) in cases {
        let (out, stderr) = run(name, args);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
        assert!(!stderr.trim().is_empty(), "{name} {args:?}: no message");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
