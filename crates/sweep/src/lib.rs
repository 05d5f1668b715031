//! Batched scenario sweeps over the AV stack.
//!
//! The paper's findings come from one 8-minute drive; its own method
//! section stresses exercising the system on *varied* situations. This
//! crate turns the single-run engine ([`av_core::stack::run_drive`])
//! into a parameter-study harness:
//!
//! * [`spec`] — a declarative sweep specification: a grid over scenario
//!   knobs (traffic density, sensor rates), stack knobs (detector, queue
//!   capacity, blackout schedules) and seeds, plus explicit extra
//!   points, loadable from dependency-free JSON.
//! * [`runner`] — expands the grid and schedules it over
//!   [`av_core::parallel::parallel_map`], stamping every run with its
//!   golden determinism hash.
//! * [`aggregate`] — folds the results into cross-point artifacts
//!   (summary table + CSV, per-point paper tables, a knob-effect report,
//!   a hash manifest) in a way that is provably independent of
//!   completion order.
//! * [`objective`] — the scalar a search extracts from each run,
//!   shared with the sweep aggregator through [`av_core::metrics`].
//! * [`search`] — the optimizer layer: deterministic boundary finding
//!   (where does the 100 ms deadline first break 2×?) and seeded
//!   worst-case successive halving, both batch-iterative over the same
//!   runner and replayable from their own trajectory artifacts.
//! * [`cache`] — a content-addressed (spec-hash → result) evaluation
//!   cache; together with the checkpoint seam of
//!   [`av_core::stack::drive`] it lets the runner share one simulated
//!   prefix across blackout-only grid variants and lets halving
//!   warm-start each rung's survivors from the previous rung's
//!   checkpoints — byte-identical results, strictly fewer simulated
//!   virtual seconds.
//!
//! Everything downstream of the spec is a pure function of it, so a
//! sweep — or a whole search trajectory — is as reproducible as a
//! single run: same spec, same bytes, at any `--jobs` level.

#![warn(missing_docs)]

pub mod aggregate;
pub mod cache;
pub mod objective;
pub mod runner;
pub mod search;
pub mod spec;

pub use aggregate::{aggregate, SweepArtifacts};
pub use cache::{CachedRun, EvalCache};
pub use objective::Objective;
pub use runner::{run_sweep, run_sweep_instrumented, run_sweep_streamed, PointResult, SweepStats};
pub use search::{
    run_search, run_search_instrumented, run_search_with, run_search_with_store, search_artifacts,
    BatchRecord, BisectSpec, EvalRecord, HalvingSpec, Knob, KnobRange, PlannedEval, SearchAnswer,
    SearchArtifacts, SearchOutcome, SearchSpec, SearchStats, Strategy,
};
pub use spec::{BlackoutSpec, FaultPlanSpec, SweepPoint, SweepSpec, WorldKind};
