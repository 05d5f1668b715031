//! `av-serve` — a long-lived, multi-tenant scenario service over the
//! deterministic runners.
//!
//! The ROADMAP's north star is a production-scale system serving heavy
//! traffic; this crate is the serving seam. A hermetic TCP server
//! (`std::net` only, line-delimited JSON reusing [`av_trace::json`])
//! accepts `drive` / `sweep` / `search` / `blame` requests, runs
//! sessions concurrently on a bounded worker pool with per-request
//! isolation, and streams progress and trace events to the requesting
//! client *while the simulation executes*:
//!
//! * [`protocol`] — the wire format: one JSON object per line, bounded
//!   frame size, explicit `reject`/`error` verdicts, and the request
//!   fingerprint (FNV-1a-64 over the parsed request's canonical
//!   rendering) that content-addresses every response.
//! * [`bus`] — the per-session `EventBus` with composable
//!   [`bus::EventSink`]s (connection / channel / file / spool / null),
//!   modeled on a runner-owned event bus: the session emits payloads,
//!   the bus stamps monotonic sequence numbers and fans out.
//! * [`session`] — deterministic request execution over streamed
//!   [`av_core::stack::drive`]s / [`av_sweep::run_sweep_streamed`] /
//!   [`av_sweep::run_search`], plus
//!   the replay path that re-partitions a finished run's trace into
//!   the *identical* event stream a live run produced.
//! * [`store`] — the content-addressed result store (fingerprint →
//!   response body + event payloads), with an optional crash-safe
//!   spool directory using the outbox pattern (write to `pending/`,
//!   fsync, atomic rename): identical requests are answered from the
//!   store byte-for-byte without re-simulation, across restarts.
//! * [`pool`] — the bounded work queue: backpressure is an explicit
//!   `429`-style reject, shutdown drains queued sessions gracefully.
//! * [`server`] — the TCP front-end tying it together, plus the
//!   `serve --check` self-test.
//! * [`client`] — a blocking client (used by the `av_client` CLI, the
//!   tier-1 gates, and the E-serve load harness in [`bench`]).
//!
//! Determinism is the design center: every response body and every
//! `event` frame payload is a pure function of the request, so a cold
//! run, an `EvalCache` replay, and a store-served repeat are all
//! byte-identical — the property the tier-1 gate and
//! `tests/serve_determinism.rs` pin. Only the `stats` frame
//! (queue-wait, wall-clock, cached flag) is allowed to vary.

#![warn(missing_docs)]

pub mod bench;
pub mod bus;
pub mod client;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod session;
pub mod store;

pub use bus::{EventBus, EventSink};
pub use client::{Client, Outcome, Response};
pub use pool::{SubmitError, WorkQueue};
pub use protocol::{parse_request, Request, Work, WorkRequest, MAX_FRAME_BYTES};
pub use server::{ServeConfig, Server};
pub use store::{ResultEntry, ResultStore};
