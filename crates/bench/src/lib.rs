//! # era-bench — experiment harness for the ERA theorem reproduction
//!
//! Shared machinery for the experiment binaries (`figure1`, `figure2`,
//! `era_matrix`, `robustness`, `throughput`, `chaos_bench`,
//! `net_bench`). See `EXPERIMENTS.md` at the workspace root for the
//! experiment index (which paper artifact each binary regenerates).
//!
//! * [`workload`] — seeded per-thread operation streams over
//!   [`era_kv::KvMix`] (the read-heavy and update-heavy mixes) and
//!   [`era_kv::KeyDist`];
//! * [`runner`] — one throughput driver, generic over
//!   [`era_ds::ConcurrentSet`], with a one-line entry point per
//!   structure, plus the stalled-thread robustness harness of
//!   Definition 5.1 measurements;
//! * [`report`] — JSON-lines run reports (throughput, footprint curve,
//!   reclamation-latency histogram) built on [`era_obs`];
//! * [`table`] — plain-text table rendering for the binaries;
//! * [`parse_arg`] — the binaries' one command-line value parser.

#![warn(missing_docs)]

use std::str::FromStr;

pub mod report;
pub mod runner;
pub mod table;
pub mod workload;

pub use report::RunRecord;
pub use runner::{run_harris, run_michael, run_skiplist, run_vbr, RunStats, StallReport};
pub use workload::WorkloadSpec;

/// `value` parsed as `T`. A missing or malformed value prints a line
/// naming `what` (the flag or the position it was given for) and exits
/// 2, the status for a bad command line — never a silent default.
pub fn parse_arg<T: FromStr>(what: &str, value: Option<String>) -> T {
    let Some(v) = value else {
        bad_args(&format!("{what} requires a value"))
    };
    v.parse()
        .unwrap_or_else(|_| bad_args(&format!("{what} {v} is not a valid value")))
}

fn bad_args(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}
