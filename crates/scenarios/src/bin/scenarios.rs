//! Campaign CLI: run one named scenario, a spec file, or the whole
//! built-in campaign over one scheme or all five.
//!
//! Usage:
//!   scenarios [--scenario NAME]... [--scheme ebr|hp|he|ibr|nbr|all]...
//!             [--spec FILE] [--list] [--smoke]
//!             [--report out.jsonl] [--flight-dir DIR]
//!             [--ring-capacity N]
//!
//! Defaults: the whole campaign over all five reclaiming schemes
//! (repeat `--scheme` to pick several) and the workspace's default
//! ring capacity. `--ring-capacity` sizes each shard's trace rings. No
//! flight recorder holds them during a run, so each keeps its newest N
//! events, and those are what a failure dump (`--flight-dir`) holds of
//! it: the default drops events on multi-second runs. (The rings
//! `era-net serve` holds from bind drop nothing at any capacity.)
//! A malformed value exits 2 naming its flag.
//! Exit status is non-zero when any run's verdict is `fail` — a
//! robust scheme past its bound, a non-robust scheme that *failed* to
//! blow the bound under a stall, residue after drain, an unhealthy
//! shard, or a squeeze that never shed. `era-view --verdicts` renders
//! the report (CI's scenario-smoke gate).

use std::path::PathBuf;

use era_chaos::ChaosSmr;
use era_kv::KvStore;
use era_obs::report::write_jsonl;
use era_scenarios::report::ScenarioRunRecord;
use era_scenarios::run::{kv_config, run_scenario, scheme_capacity, RunOptions};
use era_scenarios::{campaign, ScenarioSpec};
use era_smr::{with_scheme, SchemeKind, Smr};

/// Hazard/era slots per thread the kv maps need (one per traversal
/// hand, as everywhere else in the workspace).
const SLOTS: usize = 3;

struct Options {
    scenarios: Vec<String>,
    schemes: Vec<SchemeKind>,
    spec_file: Option<PathBuf>,
    list: bool,
    smoke: bool,
    report: Option<PathBuf>,
    flight_dir: Option<PathBuf>,
    ring_capacity: usize,
}

fn parse_options() -> Options {
    let mut opts = Options {
        scenarios: Vec::new(),
        schemes: Vec::new(),
        spec_file: None,
        list: false,
        smoke: false,
        report: None,
        flight_dir: None,
        ring_capacity: era_obs::DEFAULT_RING_CAPACITY,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => opts.scenarios.push(value(&mut args, "--scenario")),
            "--scheme" => {
                let s = value(&mut args, "--scheme");
                if s == "all" {
                    opts.schemes = SchemeKind::RECLAIMING.to_vec();
                } else if let Some(kind) = SchemeKind::parse(&s) {
                    if !opts.schemes.contains(&kind) {
                        opts.schemes.push(kind);
                    }
                } else {
                    eprintln!("unknown --scheme {s} (use {}|all)", SchemeKind::cli_names());
                    std::process::exit(2);
                }
            }
            "--spec" => opts.spec_file = Some(PathBuf::from(value(&mut args, "--spec"))),
            "--list" => opts.list = true,
            "--smoke" => opts.smoke = true,
            "--report" => opts.report = Some(PathBuf::from(value(&mut args, "--report"))),
            "--flight-dir" => {
                opts.flight_dir = Some(PathBuf::from(value(&mut args, "--flight-dir")))
            }
            "--ring-capacity" => {
                let v = value(&mut args, "--ring-capacity");
                opts.ring_capacity = v.parse().unwrap_or_else(|_| {
                    eprintln!("--ring-capacity {v} is not a number");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    if opts.schemes.is_empty() {
        opts.schemes = SchemeKind::RECLAIMING.to_vec();
    }
    opts
}

/// Builds the store over `schemes` (wrapping the chaos target when the
/// spec carries a plan), runs the scenario, and renders the record.
fn run_store<S: Smr>(schemes: Vec<S>, spec: &ScenarioSpec, opts: &Options) -> ScenarioRunRecord {
    let ropts = RunOptions {
        flight_dump: opts.flight_dir.as_ref().map(|d| {
            d.join(format!(
                "{}-{}.eraflt",
                spec.name,
                schemes[0].kind().id().name()
            ))
        }),
    };
    let cfg = kv_config(spec, opts.ring_capacity);
    if let Some((target, plan)) = spec.chaos_plan() {
        let wrapped: Vec<ChaosSmr<S>> = schemes
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                if i == target {
                    ChaosSmr::new(s, plan.clone())
                } else {
                    ChaosSmr::transparent(s)
                }
            })
            .collect();
        let store = KvStore::new(&wrapped, cfg);
        ScenarioRunRecord::collect(&run_scenario(&store, spec, &ropts))
    } else {
        let store = KvStore::new(&schemes, cfg);
        ScenarioRunRecord::collect(&run_scenario(&store, spec, &ropts))
    }
}

fn selected_specs(opts: &Options) -> Vec<ScenarioSpec> {
    if let Some(path) = &opts.spec_file {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read spec {}: {e}", path.display());
            std::process::exit(2);
        });
        let spec = ScenarioSpec::from_json(text.trim()).unwrap_or_else(|e| {
            eprintln!("cannot parse spec {}: {e}", path.display());
            std::process::exit(2);
        });
        return vec![spec];
    }
    let names: Vec<String> = if !opts.scenarios.is_empty() {
        opts.scenarios.clone()
    } else if opts.smoke {
        campaign::SMOKE.iter().map(|s| s.to_string()).collect()
    } else {
        return campaign::all();
    };
    names
        .iter()
        .map(|name| {
            campaign::by_name(name).unwrap_or_else(|| {
                eprintln!("unknown scenario {name} (try --list)");
                std::process::exit(2);
            })
        })
        .collect()
}

fn main() {
    let opts = parse_options();
    if opts.list {
        for spec in campaign::all() {
            println!(
                "{:24} seed 0x{:X}  {} shard(s), {} phase(s), bound {}",
                spec.name,
                spec.seed,
                spec.shards,
                spec.phases.len(),
                spec.bound
            );
        }
        return;
    }
    if let Some(dir) = &opts.flight_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --flight-dir {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let specs = selected_specs(&opts);
    let mut records = Vec::new();
    let mut failures = 0usize;
    for spec in &specs {
        let cap = scheme_capacity(spec);
        for &kind in &opts.schemes {
            let rec = with_scheme!(kind, make => {
                run_store((0..spec.shards).map(|_| make(cap, SLOTS)).collect(), spec, &opts)
            });
            println!(
                "{:4} {:24} {:5}  {}",
                if rec.pass { "ok" } else { "FAIL" },
                rec.scenario,
                rec.scheme.name(),
                if rec.failed.is_empty() {
                    "all invariants held".to_string()
                } else {
                    format!("failed: {}", rec.failed.join(", "))
                }
            );
            if !rec.pass {
                failures += 1;
            }
            records.push(rec);
        }
    }
    println!(
        "\n{} run(s), {} failure(s) across {} scenario(s) × {} scheme(s)",
        records.len(),
        failures,
        specs.len(),
        opts.schemes.len()
    );
    if let Some(path) = &opts.report {
        match write_jsonl(path, records.iter().map(|r| &r.line)) {
            Ok(()) => println!("wrote {} record(s) to {}", records.len(), path.display()),
            Err(e) => {
                eprintln!("failed to write report {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
