//! Experiment T1 — the §6 **ERA trade-off matrix**, measured.
//!
//! Builds the matrix three ways and checks Theorem 6.1 over each:
//!
//! 1. the paper's reference classification (`era-core`);
//! 2. the matrix *measured* by replaying the Figure 1 construction with
//!    every simulated scheme (robustness classified from scaling runs,
//!    applicability from the safety oracle, easy integration from the
//!    static Definition 5.3 interface plus observed roll-backs);
//! 3. robustness of every **real** `era-smr` scheme under a parked
//!    reader, measured over two sweeps next to its registry class.
//!
//! Usage: `era_matrix [rounds]` (default 256).

use era_bench::parse_arg;
use era_bench::runner::{measured_class, FIXED_SIZE_SWEEP};
use era_bench::table::Table;
use era_core::era::reference_matrix;
use era_sim::theorem::measured_matrix;
use era_smr::SchemeKind;

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

    println!("--- Real-scheme robustness (parked reader, `runner::measured_class`) ---");
    let mut table = Table::new([
        "scheme",
        "peaks (size 64, churn 500 1000 2000)",
        "peaks (size = churn 128 512 2048)",
        "measured",
        "registry",
    ]);
    for kind in SchemeKind::RECLAIMING.into_iter().chain([SchemeKind::Leak]) {
        let (class, runs) = measured_class(kind);
        let peaks: Vec<_> = runs
            .iter()
            .map(|run| run.0.peak_retired.to_string())
            .collect();
        let (fixed, growing) = peaks.split_at(FIXED_SIZE_SWEEP.len());
        table.row([
            kind.name().to_string(),
            fixed.join(" "),
            growing.join(" "),
            class.to_string(),
            kind.class().to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "A footprint that follows the churn is not robust; one that follows \
         the structure is weakly robust. HE and NBR measure weaker than the \
         paper (ROADMAP 5b, 21)."
    );
}
