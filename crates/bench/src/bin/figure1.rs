//! Experiment F1 — reproduce **Figure 1** (the Theorem 6.1 lower-bound
//! execution).
//!
//! Replays the paper's adversarial execution with every simulated
//! scheme and prints (a) the retired-population trajectory — the
//! figure's stages generalized to `n` rounds — and (b) the per-scheme
//! outcome: which ERA property the scheme sacrificed.
//!
//! Usage: `figure1 [rounds]` (default 200).

use era_bench::parse_arg;
use era_bench::table::Table;
use era_sim::schemes::all_schemes;
use era_sim::theorem::run_figure1;

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .map_or(200, |s| parse_arg("rounds", Some(s)));

    println!("== F1: Figure 1 / Theorem 6.1 lower-bound execution ==");
    println!("rounds (T2 insert/delete pairs) = {rounds}\n");

    let outcomes: Vec<_> = all_schemes(2)
        .into_iter()
        .map(|scheme| run_figure1(scheme, rounds))
        .collect();

    // Trajectory: retired population after ten evenly spaced rounds
    // (fewer when there are fewer than ten).
    let mut traj = Table::new(
        std::iter::once("round".to_string()).chain(outcomes.iter().map(|o| o.scheme.clone())),
    );
    let mut checkpoints: Vec<usize> = (1..=10).map(|i| i * rounds / 10).collect();
    checkpoints.dedup();
    for cp in checkpoints.into_iter().filter(|&cp| cp > 0) {
        traj.row(
            std::iter::once(cp.to_string()).chain(
                outcomes
                    .iter()
                    .map(|o| o.retired_series[cp - 1].to_string()),
            ),
        );
    }
    println!("Retired population during T2's churn (T1 stalled mid-traversal):");
    println!("{traj}");

    let mut table = Table::new([
        "scheme",
        "peak_retired",
        "max_active",
        "violations",
        "rollbacks",
        "solo_done",
        "sacrificed",
    ]);
    for o in &outcomes {
        table.row([
            o.scheme.clone(),
            o.peak_retired.to_string(),
            o.peak_max_active.to_string(),
            o.violations.to_string(),
            o.rollbacks.to_string(),
            o.solo_completed.to_string(),
            o.sacrificed.to_string(),
        ]);
    }
    println!("Outcome of the full construction (churn + T1 solo run):");
    println!("{table}");
    for o in &outcomes {
        if let Some(v) = &o.first_violation {
            println!("  {}: first violation: {v}", o.scheme);
        }
    }
    println!(
        "\nEvery scheme sacrificed one property — no scheme achieved all \
         three, as Theorem 6.1 asserts."
    );
}
