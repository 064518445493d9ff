//! Experiment E5 — **throughput scalability** of every (structure ×
//! scheme) pair, the standard SMR evaluation shape of the works the
//! paper surveys (IBR \[45\], NBR \[39\], VBR \[37\]).
//!
//! Prints Mops/s for Michael's list (all pointer-based schemes),
//! Harris's list (EBR/NBR/Leak — the type system excludes the rest) and
//! the VBR list, across thread counts and operation mixes.
//!
//! Usage: `throughput [ops_per_thread] [key_range] [--dist uniform|zipf]
//! [--theta 0.99]` (defaults 200000, 1024, uniform keys). `--dist zipf`
//! draws keys from a YCSB-style zipfian distribution instead of
//! uniformly, concentrating contention on a hot set. Any other flag, or
//! a third positional, exits 2 naming it.

use era_bench::runner::{run_harris, run_michael, run_skiplist, run_vbr};
use era_bench::table::Table;
use era_bench::workload::{mix_label, KeyDist, WorkloadSpec, READ_HEAVY, UPDATE_HEAVY};
use era_bench::{bad_args, parse_arg, DistArgs};
use era_smr::{ebr::Ebr, he::He, hp::Hp, ibr::Ibr, leak::Leak, nbr::Nbr};

fn main() {
    let mut dist = DistArgs::default();
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if dist.take(&arg, &mut args) {
            continue;
        }
        if arg.starts_with("--") {
            bad_args(&format!("unknown argument {arg}"));
        }
        positional.push(arg);
    }
    let dist = dist.dist();
    let mut positional = positional.into_iter();
    let ops: usize = positional
        .next()
        .map_or(200_000, |s| parse_arg("ops_per_thread", Some(s)));
    let key_range: i64 = positional
        .next()
        .map_or(1_024, |s| parse_arg("key_range", Some(s)));
    if let Some(extra) = positional.next() {
        bad_args(&format!("unexpected argument {extra}"));
    }
    let threads = [1usize, 2, 4, 8];
    let mixes = [READ_HEAVY, UPDATE_HEAVY];

    println!(
        "== E5: throughput (Mops/s), ops/thread = {ops}, keys = {key_range} ({}) ==\n",
        match dist {
            KeyDist::Uniform => "uniform".to_string(),
            KeyDist::Zipfian { theta } => format!("zipfian theta={theta}"),
        }
    );

    for mix in mixes {
        println!("--- mix {} ---", mix_label(mix));
        let mut table = Table::new(
            std::iter::once("structure+scheme".to_string())
                .chain(threads.iter().map(|t| format!("{t}T"))),
        );
        macro_rules! spec {
            ($t:expr) => {
                WorkloadSpec {
                    mix,
                    dist,
                    key_range,
                    ops_per_thread: ops,
                    threads: $t,
                    prefill: (key_range / 2) as usize,
                    seed: 7,
                }
            };
        }
        // One row: `$run` is a `runner` entry point over an `Smr`.
        macro_rules! row {
            ($label:literal, $run:ident, $make:expr) => {{
                let mut cells = vec![$label.to_string()];
                for &t in &threads {
                    let st = $run(&$make, &spec!(t));
                    cells.push(format!("{:.2}", st.mops()));
                }
                table.row(cells);
            }};
        }
        row!("michael+Leak", run_michael, Leak::new(16));
        row!("michael+EBR", run_michael, Ebr::new(16));
        row!("michael+HP", run_michael, Hp::new(16, 3));
        row!("michael+HE", run_michael, He::new(16, 3));
        row!("michael+IBR", run_michael, Ibr::new(16));
        row!("harris+Leak", run_harris, Leak::new(16));
        row!("harris+EBR", run_harris, Ebr::new(16));
        row!("harris+NBR", run_harris, Nbr::new(16, 2));
        row!("skiplist+EBR", run_skiplist, Ebr::new(16));
        {
            let mut cells = vec!["vbr-list".to_string()];
            for &t in &threads {
                let st = run_vbr(&spec!(t));
                cells.push(format!("{:.2}", st.mops()));
            }
            table.row(cells);
        }
        println!("{table}");
    }
    println!(
        "Shape expectations: Leak is the ceiling; EBR tracks it closely; \
         HP/HE pay per-read validation; Harris beats Michael under churn \
         (experiment E6)."
    );
}
