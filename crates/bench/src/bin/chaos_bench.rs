//! Experiment E10 — the **chaos** experiment: drive every scheme
//! through a seeded, replayable [`FaultPlan`] and measure what recovery
//! costs.
//!
//! Each scheme runs the same single-threaded churn workload while the
//! plan injects die-pinned context drops, frozen announcements, delayed
//! flushes, registration failures, slot exhaustion, and spurious
//! restart storms. The run record counts faults planned vs. fired,
//! orphan adoptions (the `adopt` hook), the footprint peak, and the
//! recovery latency — flush rounds needed to drain `retired_now` to 0
//! after the run. One JSON line per scheme embeds the full plan, so any
//! row of a checked-in baseline can be replayed bit-for-bit.
//!
//! Usage:
//!   chaos_bench [--seed N] [--ops N] [--faults N]
//!               [--scheme all|ebr|hp|he|ibr|nbr|vbr|leak]
//!               [--report out.jsonl] [--flight-dump out.eraflt]
//!
//! Defaults: seed 0xC4A05, 20000 ops, 24 faults, all schemes. A flight
//! recorder is always armed: a panic mid-run writes a crash `.eraflt`
//! next to the FaultPlan JSON, and a clean run writes the same dump at
//! exit so `era-view` can replay the injected faults and adoptions.

use std::path::PathBuf;
use std::sync::Arc;

use era_bench::parse_arg;
use era_bench::table::Table;
use era_chaos::{ChaosArena, ChaosSmr, FaultPlan};
use era_obs::report::{write_jsonl, JsonObject};
use era_obs::{DumpStats, FlightRecorder, Hook, Recorder};
use era_smr::common::{Smr, SmrHeader, SmrStats};
use era_smr::{ebr::Ebr, he::He, hp::Hp, ibr::Ibr, leak::Leak, nbr::Nbr};

struct Options {
    seed: u64,
    ops: u64,
    faults: usize,
    scheme: String,
    report: Option<PathBuf>,
    flight_dump: Option<PathBuf>,
}

fn parse_options() -> Options {
    let mut opts = Options {
        seed: 0xC4A05,
        ops: 20_000,
        faults: 24,
        scheme: "all".to_string(),
        report: None,
        flight_dump: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--seed" => opts.seed = parse_arg(flag, args.next()),
            "--ops" => opts.ops = parse_arg(flag, args.next()),
            "--faults" => opts.faults = parse_arg(flag, args.next()),
            "--scheme" => opts.scheme = parse_arg(flag, args.next()),
            "--report" => opts.report = Some(parse_arg(flag, args.next())),
            "--flight-dump" => opts.flight_dump = Some(parse_arg(flag, args.next())),
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// One scheme's chaos run, reduced to the numbers E10 compares.
struct ChaosRunRecord {
    scheme: String,
    seed: u64,
    ops: u64,
    faults_planned: u64,
    faults_injected: u64,
    adoptions: u64,
    retired_peak: u64,
    total_reclaimed: u64,
    recovery_rounds: u64,
    recovered: bool,
    trace_dropped: u64,
    plan_json: String,
}

impl ChaosRunRecord {
    fn to_json(&self) -> String {
        JsonObject::new()
            .str("record", "chaos_run")
            .str("scheme", &self.scheme)
            .u64("seed", self.seed)
            .u64("ops", self.ops)
            .u64("faults_planned", self.faults_planned)
            .u64("faults_injected", self.faults_injected)
            .u64("adoptions", self.adoptions)
            .u64("retired_peak", self.retired_peak)
            .u64("total_reclaimed", self.total_reclaimed)
            .u64("recovery_rounds", self.recovery_rounds)
            .bool("recovered", self.recovered)
            .u64("trace_dropped", self.trace_dropped)
            .raw("plan", &self.plan_json)
            .finish()
    }
}

/// Converts live scheme counters into the dependency-free mirror the
/// dump format carries.
fn dump_stats(st: &SmrStats) -> DumpStats {
    DumpStats {
        retired_now: st.retired_now as u64,
        retired_peak: st.retired_peak as u64,
        total_retired: st.total_retired,
        total_reclaimed: st.total_reclaimed,
        era: st.era,
    }
}

#[repr(C)]
struct Node {
    header: SmrHeader,
    payload: u64,
}

/// # Safety
///
/// `p` must be the `Box::into_raw` pointer of a live `Node`; the SMR
/// scheme passes it here exactly once.
unsafe fn free_node(p: *mut u8) {
    // SAFETY: the contract above: `p` is a live `Node`'s box, freed once.
    unsafe { drop(Box::from_raw(p as *mut Node)) }
}

/// Drain cap: a scheme that cannot empty its retired population within
/// this many rounds (with every chaos pin released) has wedged.
const MAX_RECOVERY_ROUNDS: u64 = 256;

fn run_scheme<S: Smr>(
    name: &str,
    inner: S,
    opts: &Options,
    reclaims: bool,
    flight: &FlightRecorder,
) -> ChaosRunRecord {
    let plan = FaultPlan::generate(opts.seed, opts.ops, opts.faults);
    let plan_json = plan.to_json();
    let faults_planned = plan.ops.len() as u64;
    let recorder = Recorder::new(16);
    let source = flight.add_source(name, &recorder);
    let smr = ChaosSmr::new(inner, plan);
    smr.attach_recorder(&recorder);
    let mut ctx = smr.register().expect("root context");
    for i in 0..opts.ops {
        smr.begin_op(&mut ctx);
        if i % 3 == 0 {
            let node = Box::into_raw(Box::new(Node {
                header: SmrHeader::new(),
                payload: i,
            }));
            // SAFETY: `node` is freshly allocated and never published —
            // retiring it immediately is well-formed and happens once.
            unsafe {
                smr.init_header(&mut ctx, &(*node).header);
                smr.retire(&mut ctx, node as *mut u8, &(*node).header, free_node);
            }
        }
        let _ = smr.needs_restart(&mut ctx);
        smr.end_op(&mut ctx);
        if i % 16 == 0 {
            smr.flush(&mut ctx);
        }
        // Periodic incremental drain into the flight buffer, so ring
        // overwrite (not the flight layer) is the only loss channel
        // and a crash loses at most one stride of events.
        if i % 512 == 0 {
            flight.poll();
        }
    }
    // Recovery: release every chaos-held pin, then count the flush
    // rounds needed to drain the retired population.
    smr.quiesce(&mut ctx);
    let mut recovery_rounds = 0;
    while reclaims && smr.stats().retired_now > 0 && recovery_rounds < MAX_RECOVERY_ROUNDS {
        smr.begin_op(&mut ctx);
        smr.end_op(&mut ctx);
        smr.flush(&mut ctx);
        recovery_rounds += 1;
    }
    let st = smr.stats();
    flight.set_stats(source, dump_stats(&st));
    flight.poll();
    ChaosRunRecord {
        scheme: name.to_string(),
        seed: opts.seed,
        ops: opts.ops,
        faults_planned,
        faults_injected: smr.faults_injected(),
        adoptions: recorder.metrics().hook_count(Hook::Adopt),
        retired_peak: st.retired_peak as u64,
        total_reclaimed: st.total_reclaimed,
        recovery_rounds,
        recovered: !reclaims || st.retired_now == 0,
        trace_dropped: recorder.dropped(),
        plan_json,
    }
}

fn run_vbr(opts: &Options, flight: &FlightRecorder) -> ChaosRunRecord {
    let plan = FaultPlan::generate(opts.seed, opts.ops, opts.faults);
    let plan_json = plan.to_json();
    let faults_planned = plan.ops.len() as u64;
    let recorder = Recorder::new(16);
    let source = flight.add_source("VBR", &recorder);
    let arena: ChaosArena<2> = ChaosArena::new(64, plan);
    arena.attach_recorder(&recorder);
    let mut live = Vec::new();
    for i in 0..opts.ops {
        if let Ok(h) = arena.alloc() {
            let _ = arena.write(h, 0, i);
            live.push(h);
        }
        if live.len() > 32 {
            let h = live.remove(0);
            let _ = arena.retire(h);
        }
        if i % 512 == 0 {
            flight.poll();
        }
    }
    for h in live.drain(..) {
        let _ = arena.retire(h);
    }
    let st = arena.stats();
    flight.set_stats(source, dump_stats(&st));
    flight.poll();
    ChaosRunRecord {
        scheme: "VBR".to_string(),
        seed: opts.seed,
        ops: opts.ops,
        faults_planned,
        faults_injected: arena.faults_injected(),
        adoptions: 0, // retire-is-reclaim: nothing to adopt
        retired_peak: st.retired_peak as u64,
        total_reclaimed: st.total_reclaimed,
        recovery_rounds: 0,
        recovered: arena.live() == 0,
        trace_dropped: recorder.dropped(),
        plan_json,
    }
}

fn main() {
    let opts = parse_options();
    // Crash-safe by default: the dump lands next to the FaultPlan JSON
    // (the --report path with an .eraflt extension) unless overridden.
    let flight_path = opts.flight_dump.clone().unwrap_or_else(|| {
        opts.report
            .as_ref()
            .map(|p| p.with_extension("eraflt"))
            .unwrap_or_else(|| PathBuf::from("chaos_bench.eraflt"))
    });
    let flight = Arc::new(FlightRecorder::new());
    flight.install_panic_hook(flight_path.clone());
    let cap = 16; // root ctx + chaos victims (stalls overlap at most a few)
    let all = opts.scheme == "all";
    let want = |n: &str| all || opts.scheme == n;
    let mut records = Vec::new();
    println!(
        "== E10: chaos recovery — seed {:#x}, {} ops, {} planned faults ==\n",
        opts.seed, opts.ops, opts.faults
    );
    if want("ebr") {
        records.push(run_scheme(
            "EBR",
            Ebr::with_threshold(cap, 64),
            &opts,
            true,
            &flight,
        ));
    }
    if want("hp") {
        records.push(run_scheme(
            "HP",
            Hp::with_threshold(cap, 3, 64),
            &opts,
            true,
            &flight,
        ));
    }
    if want("he") {
        records.push(run_scheme(
            "HE",
            He::with_params(cap, 3, 64, 8),
            &opts,
            true,
            &flight,
        ));
    }
    if want("ibr") {
        records.push(run_scheme(
            "IBR",
            Ibr::with_params(cap, 64, 8),
            &opts,
            true,
            &flight,
        ));
    }
    if want("nbr") {
        records.push(run_scheme(
            "NBR",
            Nbr::with_threshold(cap, 2, 64),
            &opts,
            true,
            &flight,
        ));
    }
    if want("leak") {
        records.push(run_scheme("Leak", Leak::new(cap), &opts, false, &flight));
    }
    if want("vbr") {
        records.push(run_vbr(&opts, &flight));
    }
    if records.is_empty() {
        eprintln!(
            "unknown --scheme {} (use all|ebr|hp|he|ibr|nbr|vbr|leak)",
            opts.scheme
        );
        std::process::exit(2);
    }

    let mut table = Table::new(
        [
            "scheme",
            "planned",
            "injected",
            "adoptions",
            "peak",
            "reclaimed",
            "recovery",
            "recovered",
            "dropped",
        ]
        .into_iter()
        .map(String::from),
    );
    for r in &records {
        table.row(vec![
            r.scheme.clone(),
            r.faults_planned.to_string(),
            r.faults_injected.to_string(),
            r.adoptions.to_string(),
            r.retired_peak.to_string(),
            r.total_reclaimed.to_string(),
            format!("{} rounds", r.recovery_rounds),
            if r.recovered { "yes" } else { "NO" }.to_string(),
            r.trace_dropped.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "Interpretation: every planned fault fires (injected == planned up to \
         window clipping); reclaiming schemes drain to 0 within the recovery \
         cap, and adoptions > 0 shows survivors absorbing dead contexts' \
         garbage rather than leaking it."
    );
    match flight.snapshot_to_file(&flight_path) {
        Ok(()) => println!(
            "wrote flight dump to {} (replay with `era-view {0}`)",
            flight_path.display()
        ),
        Err(e) => eprintln!("failed to write flight dump {}: {e}", flight_path.display()),
    }
    if records.iter().any(|r| !r.recovered) {
        eprintln!("FAILED: a scheme did not recover");
        std::process::exit(1);
    }
    if let Some(path) = &opts.report {
        match write_jsonl(path, records.iter().map(ChaosRunRecord::to_json)) {
            Ok(()) => println!(
                "wrote {} run record(s) to {}",
                records.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("failed to write report {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
