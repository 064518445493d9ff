//! Experiment E4 — **robustness footprint** of the real schemes
//! (Definitions 5.1/5.2, quantitative).
//!
//! Two stalled-reader experiments on Michael's list:
//!
//! * *disjoint churn*: the worker churns keys outside the structure —
//!   EBR accumulates everything, HP/HE/IBR stay (near-)constant;
//! * *overlapping churn*: the worker deletes and re-inserts the
//!   structure's own keys — the pre-stall cohort is pinned by HE/IBR
//!   (footprint ≈ structure size: **weak** robustness, linear in
//!   `max_active`), while HP stays constant and EBR keeps growing.
//!
//! Plus the VBR/NBR rows, which run live update-heavy churn on Harris's
//! list with **no** stalled reader: VBR's retired population is
//! identically zero (retire *is* reclaim); NBR's row is its footprint
//! under that churn alone. It measures no bound: against the stalled
//! reader above, NBR traps every retire until it neutralizes without
//! waiting (ROADMAP items 9a and 21).
//!
//! Usage: `robustness [churn_ops] [structure_size]` (defaults 40000, 512).

use era_bench::parse_arg;
use era_bench::runner::{run_harris, run_vbr, stall_churn_michael};
use era_bench::table::Table;
use era_bench::workload::{KeyDist, WorkloadSpec, UPDATE_HEAVY};
use era_smr::{ebr::Ebr, he::He, hp::Hp, ibr::Ibr, nbr::Nbr, qsbr::Qsbr};

fn main() {
    let churn: usize = std::env::args()
        .nth(1)
        .map_or(40_000, |s| parse_arg("churn_ops", Some(s)));
    let size: usize = std::env::args()
        .nth(2)
        .map_or(512, |s| parse_arg("structure_size", Some(s)));

    println!("== E4: robustness footprint under a stalled reader ==");
    println!("structure size = {size}, churn ops = {churn}\n");

    for overlap in [false, true] {
        let label = if overlap {
            "overlapping churn (retires the pre-stall cohort)"
        } else {
            "disjoint churn (retires only post-stall nodes)"
        };
        println!("--- {label} ---");
        let mut table = Table::new([
            "scheme",
            "peak_retired",
            "final_retired",
            "series (every ~25%)",
        ]);
        macro_rules! run {
            ($name:literal, $make:expr) => {{
                let smr = $make;
                let r = stall_churn_michael(&smr, $name, size, churn, overlap);
                let n = r.retired_series.len();
                let picks: Vec<String> = (1..=4)
                    .map(|i| r.retired_series[(i * (n - 1)) / 4].to_string())
                    .collect();
                table.row([
                    $name.to_string(),
                    r.peak_retired.to_string(),
                    r.final_retired.to_string(),
                    picks.join(" → "),
                ]);
            }};
        }
        run!("EBR", Ebr::with_threshold(4, 16));
        run!("HP", Hp::with_threshold(4, 3, 16));
        run!("HE", He::with_params(4, 3, 16, 8));
        run!("IBR", Ibr::with_params(4, 16, 8));
        run!("QSBR", Qsbr::with_threshold(4, 16));
        println!("{table}");
        println!(
            "(QSBR note: the generic harness never calls quiescent(), so \
             nothing drains even after the unstall — exactly the \
             integration burden that keeps QSBR out of Definition 5.3.)\n"
        );
    }

    println!("--- schemes without the protect/epoch dichotomy ---");
    let mut table = Table::new(["scheme", "peak_retired", "final_retired", "note"]);
    let spec = WorkloadSpec {
        mix: UPDATE_HEAVY,
        dist: KeyDist::Uniform,
        key_range: size as i64,
        ops_per_thread: churn / 4,
        threads: 4,
        prefill: size / 2,
        seed: 42,
    };
    let nbr = Nbr::with_threshold(8, 2, 64);
    let r = run_harris(&nbr, &spec);
    table.row([
        "NBR".to_string(),
        r.peak_retired.to_string(),
        r.final_retired.to_string(),
        "live churn, no stalled reader (stalled: ROADMAP 21)".to_string(),
    ]);
    let r = run_vbr(&spec);
    table.row([
        "VBR".to_string(),
        r.peak_retired.to_string(),
        r.final_retired.to_string(),
        "retire is reclaim: identically zero".to_string(),
    ]);
    println!("{table}");
}
