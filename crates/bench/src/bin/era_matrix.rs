//! Experiment T1 — the §6 **ERA trade-off matrix**, measured.
//!
//! Builds the matrix three ways and checks Theorem 6.1 over each:
//!
//! 1. the paper's reference classification (`era-core`);
//! 2. the matrix *measured* by replaying the Figure 1 construction with
//!    every simulated scheme (robustness classified from scaling runs,
//!    applicability from the safety oracle, easy integration from the
//!    static Definition 5.3 interface plus observed roll-backs);
//! 3. robustness of the **real** `era-smr` schemes from stalled-thread
//!    churn at increasing scales.
//!
//! Usage: `era_matrix [rounds]` (default 256).

use era_bench::parse_arg;
use era_bench::runner::stall_churn_michael;
use era_core::era::reference_matrix;
use era_core::robustness::{classify, RobustnessObservation};
use era_sim::theorem::measured_matrix;
use era_smr::{ebr::Ebr, he::He, hp::Hp, ibr::Ibr};

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .map_or(256, |s| parse_arg("rounds", Some(s)));

    println!("== T1: the ERA trade-off matrix (§6) ==\n");

    println!("--- Paper reference classification ---");
    let reference = reference_matrix();
    println!("{reference}");
    reference
        .check_theorem()
        .expect("reference matrix contradicts the theorem");

    println!("--- Measured from the simulator (Figure 1 replays, {rounds} rounds) ---");
    let measured = measured_matrix(rounds);
    println!("{measured}");
    match measured.check_theorem() {
        Ok(()) => println!("Theorem 6.1 holds over the measured matrix.\n"),
        Err(v) => panic!("measurement pipeline broken: {v}"),
    }

    println!("--- Real-scheme robustness (stalled reader, churn at 4 scales) ---");
    let scales = [2_000usize, 8_000, 32_000, 128_000];
    let mut table = era_bench::table::Table::new(["scheme", "peaks (per scale)", "classification"]);
    macro_rules! classify_real {
        ($name:literal, $make:expr) => {{
            let mut obs = Vec::new();
            let mut peaks = Vec::new();
            for &scale in &scales {
                let smr = $make;
                let report = stall_churn_michael(&smr, $name, 64, scale, false);
                peaks.push(report.peak_retired.to_string());
                obs.push(RobustnessObservation {
                    scale: scale as u64,
                    threads: 2,
                    peak_retired: report.peak_retired,
                    peak_max_active: 64 + 64, // structure + churn window
                });
            }
            let verdict = classify(&obs);
            table.row([$name.to_string(), peaks.join(" "), verdict.to_string()]);
        }};
    }
    classify_real!("EBR", Ebr::with_threshold(4, 16));
    classify_real!("HP", Hp::with_threshold(4, 3, 16));
    classify_real!("HE", He::with_params(4, 3, 16, 8));
    classify_real!("IBR", Ibr::with_params(4, 16, 8));
    println!("{table}");
    println!(
        "EBR's peak grows with the churn (not even weakly robust); the \
         protect-based schemes stay bounded — and pay for it with Harris-list \
         applicability (see F2)."
    );
}
