//! Experiment E5 — **throughput scalability** of every (structure ×
//! scheme) pair, the standard SMR evaluation shape of the works the
//! paper surveys (IBR [45], NBR [39], VBR [37]).
//!
//! Prints Mops/s for Michael's list (all pointer-based schemes),
//! Harris's list (EBR/NBR/Leak — the type system excludes the rest) and
//! the VBR list, across thread counts and operation mixes.
//!
//! Usage: `throughput [ops_per_thread] [key_range] [--report out.jsonl]
//! [--zipf [--theta 0.99]]` (defaults 200000, 1024, uniform keys).
//! With `--report`, every run over an `Smr` (all rows but `vbr-list`)
//! is traced through an [`era_obs::Recorder`] and the JSON-lines
//! report (throughput, retired high-water, footprint curve,
//! reclaim-latency histogram; see `era_bench::report` for the format)
//! is written to the given path — since the workloads are seeded, the
//! output is deterministic up to timing.
//! `--zipf` draws keys from a YCSB-style zipfian distribution instead
//! of uniformly, concentrating contention on a hot set.

use std::path::PathBuf;

use era_bench::parse_arg;
use era_bench::report::RunRecord;
use era_bench::runner::{run_harris, run_michael, run_skiplist, run_vbr};
use era_bench::table::Table;
use era_bench::workload::{mix_label, KeyDist, WorkloadSpec, READ_HEAVY, UPDATE_HEAVY};
use era_obs::report::write_jsonl;
use era_obs::Recorder;
use era_smr::common::Smr as _;
use era_smr::{ebr::Ebr, he::He, hp::Hp, ibr::Ibr, leak::Leak, nbr::Nbr};

fn main() {
    let mut report_path: Option<PathBuf> = None;
    let mut zipf = false;
    let mut theta = 0.99f64;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--report" {
            report_path = Some(parse_arg("--report", args.next()));
        } else if arg == "--zipf" {
            zipf = true;
        } else if arg == "--theta" {
            match args.next().and_then(|s| s.parse().ok()) {
                Some(t) if (0.0..1.0).contains(&t) && t > 0.0 => theta = t,
                _ => {
                    eprintln!("--theta requires a value in (0, 1)");
                    std::process::exit(2);
                }
            }
        } else {
            positional.push(arg);
        }
    }
    let dist = if zipf {
        KeyDist::Zipfian { theta }
    } else {
        KeyDist::Uniform
    };
    let mut positional = positional.into_iter();
    let ops: usize = positional
        .next()
        .map_or(200_000, |s| parse_arg("ops_per_thread", Some(s)));
    let key_range: i64 = positional
        .next()
        .map_or(1_024, |s| parse_arg("key_range", Some(s)));
    let mut records: Vec<RunRecord> = Vec::new();
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
        // One row: `$run` is a `runner` entry point over an `Smr`; with
        // `--report` each cell's run is traced and becomes a record.
        macro_rules! row {
            ($label:literal, $structure:literal, $run:ident, $make:expr) => {{
                let mut cells = vec![$label.to_string()];
                for &t in &threads {
                    let smr = $make;
                    let spec = spec!(t);
                    let rec = report_path.as_ref().map(|_| Recorder::new(t + 2));
                    let st = $run(&smr, &spec, rec.as_ref());
                    if let Some(rec) = &rec {
                        let scheme = smr.kind().name();
                        records.push(RunRecord::collect($structure, scheme, &spec, st, rec));
                    }
                    cells.push(format!("{:.2}", st.mops()));
                }
                table.row(cells);
            }};
        }
        row!("michael+Leak", "michael", run_michael, Leak::new(16));
        row!("michael+EBR", "michael", run_michael, Ebr::new(16));
        row!("michael+HP", "michael", run_michael, Hp::new(16, 3));
        row!("michael+HE", "michael", run_michael, He::new(16, 3));
        row!("michael+IBR", "michael", run_michael, Ibr::new(16));
        row!("harris+Leak", "harris", run_harris, Leak::new(16));
        row!("harris+EBR", "harris", run_harris, Ebr::new(16));
        row!("harris+NBR", "harris", run_harris, Nbr::new(16, 2));
        row!("skiplist+EBR", "skiplist", run_skiplist, Ebr::new(16));
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
    if let Some(path) = report_path {
        match write_jsonl(&path, records.iter().map(RunRecord::to_json_line)) {
            Ok(()) => println!("wrote {} run records to {}", records.len(), path.display()),
            Err(e) => {
                eprintln!("failed to write report {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
