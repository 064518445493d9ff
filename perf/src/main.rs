//! `perf` — the repo's benchmark. One binary, one process; see README.md.
//!
//! ```text
//! perf [run]  --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! perf trace  W            [--seed N] [--seconds S] [--smoke]
//! perf check  [W]          [--runs N] [--seconds S] [--smoke]
//! ```
//!
//! `run` prints the run record and, as its last line, the result object of
//! the benchmark contract; `--trace 1` (or `trace`) prints the per-layer
//! metrics instead of the end-to-end ones and writes the spans to
//! `$CARGO_TARGET_DIR/perf/trace-<workload>.json` (`target/` when unset).

#![warn(missing_docs)]

mod check;
mod kv;
mod layers;
mod measure;
mod net;
mod record;
mod stats;
mod target;
mod workload;

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use era_smr::ebr::Ebr;
use era_smr::hp::Hp;

use measure::{Measured, Plan};
use record::RunInfo;
use workload::{Entry, Scheme, Workload, SCHEME_THREADS, WORKLOADS};

/// Binds `$make` to the constructor of `$scheme`'s instances (HP gets the
/// three hazard slots the map's traversal needs) and evaluates `$body`.
macro_rules! with_scheme {
    ($scheme:expr, $make:ident => $body:expr) => {
        match $scheme {
            Scheme::Ebr => {
                let $make = &|| Ebr::new(SCHEME_THREADS);
                $body
            }
            Scheme::Hp => {
                let $make = &|| Hp::new(SCHEME_THREADS, 3);
                $body
            }
        }
    };
}

#[derive(Debug)]
struct Args {
    command: String,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        runs: 5,
    };
    let mut argv = argv.peekable();
    if let Some(first) = argv.next_if(|a| !a.starts_with("--")) {
        args.command = first;
    }
    let workload = |name: &str| Workload::by_name(name).ok_or(format!("unknown workload `{name}`"));
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(workload(&value("a workload name")?)?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--runs" => {
                args.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            name if !name.starts_with("--") && args.workload.is_none() => {
                args.workload = Some(workload(name)?)
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    match args.command.as_str() {
        "trace" => args.trace = true,
        "run" | "check" => {}
        other => return Err(format!("unknown command `{other}` (run, trace, check)")),
    }
    if args.command != "check" && args.workload.is_none() {
        let list: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("  {:<14} {}", w.name, w.why))
            .collect();
        return Err(format!(
            "--workload is required, one of:\n{}",
            list.join("\n")
        ));
    }
    if args.command == "check" && args.runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    Ok(args)
}

/// One set-up of `w` and the measured windows that fit `budget_s`.
fn measure(w: &Workload, seed: u64, plan: &Plan, budget_s: f64) -> io::Result<Measured> {
    with_scheme!(w.scheme, make => match w.entry {
        Entry::Net => net::run(w, seed, plan, budget_s, make),
        Entry::Kv => Ok(kv::run(w, seed, plan, budget_s, make)),
    })
}

fn trace_path(w: &Workload) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("perf").join(format!("trace-{}.json", w.name))
}

/// Runs one workload and prints its record; returns whether every output
/// was correct.
fn run(args: &Args) -> io::Result<bool> {
    let w = args.workload.expect("checked by parse_args");
    let plan = if args.smoke { Plan::SMOKE } else { Plan::FULL };
    let host = stats::Host::read();
    let mut info = RunInfo {
        mode: "run",
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        plan: &plan,
    };

    if args.trace {
        info.mode = "trace";
        let traced =
            with_scheme!(w.scheme, make => layers::run(w, args.seed, &plan, args.seconds, make))?;
        let path = trace_path(w);
        traced.log.write_json(&path, w.name, args.seed)?;
        let (attempted, failed) = (traced.attempted, traced.failed);
        let values = record::per_layer(&traced);
        let ops = (plan.replay_ops / workload::SLICE * workload::SLICE) as f64;
        eprintln!(
            "{:<8} {:>12} {:>12} {:>7}   ({} spans in {})",
            "layer",
            "ns/op",
            "self ns/op",
            "share",
            traced.log.spans.len(),
            path.display()
        );
        let by_layer = traced.log.by_layer();
        let top = by_layer.first().map_or(1.0, |l| l.1 as f64);
        for (layer, total, own) in by_layer {
            eprintln!(
                "{layer:<8} {:>12.1} {:>12.1} {:>6.1}%",
                total as f64 / ops,
                own as f64 / ops,
                own as f64 / top * 100.0
            );
        }
        let (brackets, loads, retires) = traced.smr_calls_per_op;
        eprintln!("era-smr calls per op at L1: {brackets:.2} begin/end_op, {loads:.2} load/protect_alias, {retires:.2} retire");
        println!(
            "{}",
            record::envelope(
                &info,
                std::slice::from_ref(&traced.measured),
                attempted,
                failed,
                &values,
                &host
            )
        );
        println!("{}", record::result_line(attempted, failed, &values));
        return Ok(failed == 0);
    }

    // Set-up is seconds of warm-up on a shared VM, so a run sets up
    // `plan.setups` times and reports the median. Each set-up is followed by
    // its share of the measured windows: what a run reports is pooled over
    // stores, threads and heap layouts built independently.
    let passes = (0..plan.setups)
        .map(|_| measure(w, args.seed, &plan, args.seconds / plan.setups as f64))
        .collect::<io::Result<Vec<Measured>>>()?;
    let attempted = passes.iter().map(|m| m.attempted).sum();
    let failed = passes.iter().map(|m| m.failed).sum();
    let values = record::end_to_end(&passes);
    println!(
        "{}",
        record::envelope(&info, &passes, attempted, failed, &values, &host)
    );
    println!("{}", record::result_line(attempted, failed, &values));
    Ok(failed == 0)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perf: refusing to measure a debug build; run with `cargo run --release`");
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.command == "check" {
        let workloads: Vec<&Workload> = args
            .workload
            .map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w]);
        check::run(&workloads, args.runs, args.seconds, args.smoke)
    } else {
        run(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perf: FAILED (wrong output, or sets that disagree)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_form_and_subcommands_parse() {
        let a = parse("--workload kv-read-hp --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(
            (
                a.command.as_str(),
                a.workload.unwrap().name,
                a.seed,
                a.seconds,
                a.trace
            ),
            ("run", "kv-read-hp", 7, 10.0, false)
        );
        assert!(parse("--workload kv-read-hp --trace 1").unwrap().trace);
        let t = parse("trace net-get-ebr --smoke").unwrap();
        assert!(t.trace && t.smoke && t.workload.unwrap().name == "net-get-ebr");
        let c = parse("check --runs 10").unwrap();
        assert!(c.workload.is_none() && c.runs == 10);
    }

    #[test]
    fn bad_input_is_refused() {
        for bad in [
            "",
            "run",
            "--workload nope",
            "--workload kv-read-hp --trace 2",
            "--workload kv-read-hp --seconds 0",
            "--workload kv-read-hp --seed x",
            "--workload kv-read-hp --frobnicate",
            "bench --workload kv-read-hp",
            "check --runs 1",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must be refused");
        }
    }
}
