//! `perf check`: the A/A tool. Two interleaved sets of runs of the *same*
//! build must agree within the benchmark's own bounds, or the benchmark is
//! too noisy to judge a change with.

use std::io;
use std::process::{Command, Stdio};

use crate::record::{metric_value, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workload::Workload;

/// One child run of this executable; returns its end-to-end metric values
/// in `END_TO_END` order.
fn child_run(w: &Workload, seed: u64, seconds: f64, smoke: bool) -> io::Result<Vec<f64>> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args([
        "run",
        "--workload",
        w.name,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    eprintln!("{line}");
    if !out.status.success() || !line.starts_with("{\"correct\": true") {
        return Err(io::Error::other(format!(
            "{} seed {seed}: run failed ({}): {line}",
            w.name, out.status
        )));
    }
    END_TO_END
        .iter()
        .map(|d| {
            metric_value(line, d.name).ok_or_else(|| {
                io::Error::other(format!("{} seed {seed}: no {} in {line}", w.name, d.name))
            })
        })
        .collect()
}

/// Median, quartiles, and spread (IQR as a share of the median) of a set.
fn summary(values: &[f64]) -> (f64, f64, f64, f64) {
    let med = median(values);
    let (q1, q3) = quartiles(values);
    (med, q1, q3, (q3 - q1) / med)
}

/// Runs set A (seeds `1..=runs`) and set B (the next `runs` seeds) of every
/// workload in `workloads`, alternating A and B, and prints one row per
/// metric. Returns whether every pair of set medians agrees within the
/// metric's bound and every spread (except `setup_s`'s, as for the driver)
/// stays within it too.
pub fn run(workloads: &[&Workload], runs: usize, seconds: f64, smoke: bool) -> io::Result<bool> {
    assert!(runs >= 2, "a set needs at least two runs to have quartiles");
    let mut sets = vec![[Vec::new(), Vec::new()]; workloads.len()];
    for i in 0..runs {
        for (wi, w) in workloads.iter().enumerate() {
            for (set, seed) in [(0, 1 + i), (1, 1 + runs + i)] {
                eprintln!(
                    "check: {} set {} run {}/{runs} (seed {seed})",
                    w.name,
                    ["A", "B"][set],
                    i + 1
                );
                sets[wi][set].push(child_run(w, seed as u64, seconds, smoke)?);
            }
        }
    }

    let mut ok = true;
    println!(
        "{:<14} {:<17} {:<6} {:>13} {:>13} {:>13} {:>7} | {:>13} {:>7} | {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "better",
        "A median",
        "A q1",
        "A q3",
        "A iqr%",
        "B median",
        "B iqr%",
        "|A-B|%",
        "bound%"
    );
    for (wi, w) in workloads.iter().enumerate() {
        for (mi, d) in END_TO_END.iter().enumerate() {
            let column =
                |set: usize| -> Vec<f64> { sets[wi][set].iter().map(|run| run[mi]).collect() };
            let (a_med, a_q1, a_q3, a_spread) = summary(&column(0));
            let (b_med, _, _, b_spread) = summary(&column(1));
            let bound = d.bound.expect("end-to-end metrics are bounded");
            let diff = (a_med - b_med).abs() / a_med;
            let spread_gated = d.name != "setup_s";
            let spread = a_spread.max(b_spread);
            let verdict = if diff > bound {
                "FAIL medians differ"
            } else if spread_gated && spread > bound {
                "FAIL spread"
            } else if spread_gated && spread > bound / 3.0 {
                "ok (spread > bound/3)"
            } else {
                "ok"
            };
            ok &= !verdict.starts_with("FAIL");
            println!(
                "{:<14} {:<17} {:<6} {:>13.4} {:>13.4} {:>13.4} {:>7.2} | {:>13.4} {:>7.2} | {:>7.2} {:>6.1}  {verdict}",
                w.name,
                d.name,
                d.better,
                a_med,
                a_q1,
                a_q3,
                a_spread * 100.0,
                b_med,
                b_spread * 100.0,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_is_median_quartiles_and_relative_iqr() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (med, q1, q3, spread) = summary(&v);
        assert_eq!((med, q1, q3), (5.5, 2.75, 8.25));
        assert!((spread - 1.0).abs() < 1e-12);
        assert_eq!(
            summary(&[512.0; 5]).3,
            0.0,
            "a count that repeats has no spread"
        );
    }
}
