//! Benchmark support: shared configuration helpers for the bench
//! targets and the `repro` binary, the command-line plumbing every
//! harness binary shares in [`cli`], plus the in-house micro-benchmark
//! harness in [`microbench`].

#![warn(missing_docs)]

pub mod cli;
pub mod microbench;

use av_core::stack::{RunConfig, StackConfig};
use av_vision::DetectorKind;

/// The paper-scale configuration (8-minute drive, full sensors).
pub fn paper_config(detector: DetectorKind) -> StackConfig {
    StackConfig::paper_default(detector)
}

/// A reduced configuration for quick runs (`repro --quick`): the same
/// world and sensors, shorter drive.
pub fn quick_run() -> RunConfig {
    RunConfig::seconds(60.0)
}

/// The full paper-scale run config.
pub fn paper_run() -> RunConfig {
    RunConfig::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_consistent() {
        let c = paper_config(DetectorKind::Ssd512);
        assert_eq!(c.scenario.duration_s, 480.0);
        assert_eq!(quick_run().duration_s, Some(60.0));
        assert_eq!(paper_run().duration_s, None);
    }
}
