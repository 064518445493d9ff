//! # era-bench — experiment harness for the ERA theorem reproduction
//!
//! Shared machinery for the experiment binaries (`figure1`, `figure2`,
//! `era_matrix`, `robustness`, `throughput`) and the Criterion benches.
//! See `EXPERIMENTS.md` at the workspace root for the experiment index
//! (which paper artifact each binary regenerates).
//!
//! * [`workload`] — operation-mix generators (read-heavy, update-heavy)
//!   with seeded RNGs for reproducibility;
//! * [`runner`] — one throughput driver, generic over
//!   [`era_ds::ConcurrentSet`], with a one-line entry point per
//!   structure, plus the stalled-thread robustness harness of
//!   Definition 5.1 measurements;
//! * [`report`] — JSON-lines run reports (throughput, footprint curve,
//!   reclamation-latency histogram) built on [`era_obs`];
//! * [`table`] — plain-text table rendering for the binaries.

#![warn(missing_docs)]

pub mod report;
pub mod runner;
pub mod table;
pub mod workload;

pub use report::{write_jsonl, RunRecord};
pub use runner::{run_harris, run_michael, run_skiplist, run_vbr, RunStats, StallReport};
pub use workload::{Mix, WorkloadSpec};
