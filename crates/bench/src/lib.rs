//! # era-bench — experiment harness for the ERA theorem reproduction
//!
//! Shared machinery for the experiment binaries (`figure1`, `figure2`,
//! `era_matrix`, `throughput`, `chaos_bench`, `net_bench`). See
//! `EXPERIMENTS.md` at the workspace root for the experiment index
//! (which paper artifact each binary regenerates).
//!
//! * [`workload`] — seeded per-thread operation streams over
//!   [`era_kv::KvMix`] (the read-heavy and update-heavy mixes) and
//!   [`era_kv::KeyDist`];
//! * [`runner`] — one throughput driver, generic over
//!   [`era_ds::ConcurrentSet`], with a one-line entry point per
//!   structure, plus the parked-reader robustness harness that
//!   measures each scheme's Definition 5.1/5.2 class;
//! * [`table`] — plain-text table rendering for the binaries;
//! * [`parse_arg`] — the binaries' one command-line value parser, and
//!   [`DistArgs`] their one `--dist`/`--theta` pair.

#![warn(missing_docs)]

use std::str::FromStr;

use era_kv::KeyDist;

pub mod runner;
pub mod table;
pub mod workload;

pub use runner::{run_harris, run_michael, run_skiplist, run_vbr, RunStats};
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

/// The key distribution named by `--dist uniform|zipf` and `--theta F`
/// (the zipfian skew, default 0.99), given in either order.
#[derive(Debug, Clone, Copy)]
pub struct DistArgs {
    zipf: bool,
    theta: f64,
}

impl Default for DistArgs {
    fn default() -> Self {
        DistArgs {
            zipf: false,
            theta: 0.99,
        }
    }
}

impl DistArgs {
    /// Takes `flag`'s value from `args` when `flag` is `--dist` or
    /// `--theta`, and says whether it was one of them. A distribution
    /// other than `uniform|zipf`, or a skew outside `(0, 1)`, exits 2
    /// naming the flag.
    pub fn take(&mut self, flag: &str, args: &mut impl Iterator<Item = String>) -> bool {
        match flag {
            "--dist" => {
                self.zipf = match parse_arg::<String>(flag, args.next()).as_str() {
                    "uniform" => false,
                    "zipf" => true,
                    other => bad_args(&format!("--dist {other} is not uniform|zipf")),
                }
            }
            "--theta" => {
                let theta: f64 = parse_arg(flag, args.next());
                if !(theta > 0.0 && theta < 1.0) {
                    bad_args(&format!("--theta {theta} is not in (0, 1)"));
                }
                self.theta = theta;
            }
            _ => return false,
        }
        true
    }

    /// The distribution the flags named.
    pub fn dist(self) -> KeyDist {
        if self.zipf {
            KeyDist::Zipfian { theta: self.theta }
        } else {
            KeyDist::Uniform
        }
    }
}

/// Prints `msg` and exits 2, the status for a bad command line.
pub fn bad_args(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}
