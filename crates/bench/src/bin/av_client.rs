//! `av_client` — command-line client for the scenario service.
//!
//! ```text
//! usage: av_client --addr HOST:PORT --ping
//!        av_client --addr HOST:PORT --shutdown [--no-drain]
//!        av_client --addr HOST:PORT (--line JSON | --request FILE)
//!                  [--out FILE] [--events FILE] [--quiet]
//! ```
//!
//! Work requests stream: each `event` frame's payload is printed as it
//! arrives (suppress with `--quiet`), and the terminal `result` body is
//! printed last. `--out` writes the raw body bytes to a file and
//! `--events` the raw event payloads (one per line) — exactly as sent,
//! so two invocations can be byte-compared with `cmp`. The serving
//! stats (queue wait, execution time, whether the content-addressed
//! store answered) go to stderr. Exits nonzero on reject or error.

use av_bench::cli::{self, Args};
use av_serve::client::Outcome;
use av_serve::Client;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;

const USAGE: &str = "\
usage: av_client --addr HOST:PORT --ping
       av_client --addr HOST:PORT --shutdown [--no-drain]
       av_client --addr HOST:PORT (--line JSON | --request FILE)
                 [--out FILE] [--events FILE] [--quiet]";

struct Options {
    addr: SocketAddr,
    action: Action,
    out: Option<PathBuf>,
    events: Option<PathBuf>,
    quiet: bool,
}

enum Action {
    Ping,
    Shutdown { drain: bool },
    Run { line: String },
}

fn parse_args() -> Options {
    let mut addr = None;
    let mut action = None;
    let mut out = None;
    let mut events = None;
    let mut quiet = false;
    let mut drain = true;
    let mut args = Args::from_env(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                addr = Some(args.parse_with(|spec| {
                    spec.to_socket_addrs()?
                        .next()
                        .ok_or_else(|| std::io::Error::other("resolved to no address"))
                }));
            }
            "--ping" => action = Some(Action::Ping),
            "--shutdown" => action = Some(Action::Shutdown { drain: true }),
            "--no-drain" => drain = false,
            "--line" => action = Some(Action::Run { line: args.value() }),
            "--request" => {
                let text = cli::read(args.value());
                let line = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("").to_string();
                action = Some(Action::Run { line });
            }
            "--out" => out = Some(PathBuf::from(args.value())),
            "--events" => events = Some(PathBuf::from(args.value())),
            "--quiet" => quiet = true,
            other => args.unknown(other),
        }
    }
    let mut action = action.unwrap_or_else(|| {
        args.fail("one of --ping / --shutdown / --line / --request is required")
    });
    if let Action::Shutdown { drain: d } = &mut action {
        *d = drain;
    }
    let addr = addr.unwrap_or_else(|| args.fail("--addr HOST:PORT is required"));
    Options { addr, action, out, events, quiet }
}

fn main() {
    let options = parse_args();
    let mut client = Client::connect(options.addr).unwrap_or_else(|e| {
        cli::die(format_args!("cannot connect to the service at {}: {e}", options.addr))
    });
    match options.action {
        Action::Ping => {
            let pong = client.ping("cli-ping").expect("ping");
            println!("{pong}");
        }
        Action::Shutdown { drain } => {
            let bye = client.shutdown("cli-shutdown", drain).expect("shutdown");
            println!("{bye}");
        }
        Action::Run { line } => {
            let response = client.run(&line).expect("request round-trip");
            if !options.quiet {
                for payload in &response.events {
                    println!("{payload}");
                }
            }
            if let Some(path) = &options.events {
                let mut text = response.events.join("\n");
                if !text.is_empty() {
                    text.push('\n');
                }
                cli::write(path, text);
            }
            match (&response.cached, &response.queue_wait_ms, &response.exec_ms) {
                (Some(cached), Some(wait), Some(exec)) => eprintln!(
                    "stats: cached={cached} queue_wait_ms={wait:.2} exec_ms={exec:.2} \
                     events={}",
                    response.events.len()
                ),
                _ => eprintln!("stats: none reported ({} events)", response.events.len()),
            }
            match &response.outcome {
                Outcome::Completed { body } => {
                    println!("{body}");
                    if let Some(path) = &options.out {
                        cli::write(path, body);
                    }
                }
                Outcome::Rejected { verdict, reason } => {
                    eprintln!("rejected ({verdict}): {reason}");
                    std::process::exit(3);
                }
                Outcome::Failed { reason } => {
                    eprintln!("error: {reason}");
                    std::process::exit(1);
                }
            }
        }
    }
}
