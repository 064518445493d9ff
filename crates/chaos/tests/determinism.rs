//! Replay determinism: the acceptance gate of the chaos harness.
//!
//! The same `FaultPlan { seed, ops }` driven through the same
//! single-threaded workload must reproduce the **identical** fault
//! sequence (`fault_log`) and the identical final
//! [`SmrStats`](era_smr::SmrStats) — twice over, for every scheme.
//! The second run parses the plan back from its JSON record, so the
//! test also proves a checked-in plan line is a complete replay recipe.

use era_chaos::{ChaosArena, ChaosSmr, FaultPlan};
use era_smr::common::{Smr, SmrHeader, SmrStats};
use era_smr::ebr::Ebr;
use era_smr::he::He;
use era_smr::hp::Hp;
use era_smr::ibr::Ibr;
use era_smr::leak::Leak;
use era_smr::nbr::Nbr;

const SEED: u64 = 0xE6A_CA05;
const HORIZON: u64 = 256;
const FAULTS: usize = 16;

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

/// The reference workload: a fixed single-threaded churn loop. All
/// nondeterminism must come from the plan — which has none.
fn run<S: Smr>(inner: S, plan: FaultPlan) -> (Vec<era_chaos::FaultRecord>, SmrStats) {
    let smr = ChaosSmr::new(inner, plan);
    let mut ctx = smr.register().expect("root context");
    for i in 0..HORIZON {
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
        if i % 7 == 0 {
            smr.flush(&mut ctx);
        }
    }
    smr.quiesce(&mut ctx);
    for _ in 0..8 {
        smr.begin_op(&mut ctx);
        smr.end_op(&mut ctx);
        smr.flush(&mut ctx);
    }
    (smr.fault_log(), smr.stats())
}

/// Runs the workload twice — the replay reconstructing the plan from
/// its JSON record — and asserts bit-identical outcomes.
fn assert_deterministic<S: Smr>(make: impl Fn() -> S) {
    let plan = FaultPlan::generate(SEED, HORIZON, FAULTS);
    assert_eq!(plan.ops.len(), FAULTS, "generator must fill the plan");
    let json = plan.to_json();
    let replay = FaultPlan::from_json(&json).expect("own JSON must parse");
    assert_eq!(plan, replay, "JSON record must be a complete recipe");

    let (log_a, stats_a) = run(make(), plan);
    let (log_b, stats_b) = run(make(), replay);
    assert!(!log_a.is_empty(), "the plan must actually fire");
    assert_eq!(log_a, log_b, "fault sequences must replay identically");
    assert_eq!(stats_a, stats_b, "final footprints must match");
}

#[test]
fn ebr_replays_identically() {
    assert_deterministic(|| Ebr::with_threshold(8, 4));
}

#[test]
fn hp_replays_identically() {
    assert_deterministic(|| Hp::with_threshold(8, 3, 4));
}

#[test]
fn he_replays_identically() {
    assert_deterministic(|| He::with_params(8, 3, 4, 4));
}

#[test]
fn ibr_replays_identically() {
    assert_deterministic(|| Ibr::with_params(8, 4, 4));
}

#[test]
fn nbr_replays_identically() {
    assert_deterministic(|| Nbr::with_threshold(8, 2, 4));
}

#[test]
fn leak_replays_identically() {
    assert_deterministic(|| Leak::new(8));
}

#[test]
fn vbr_arena_replays_identically() {
    // VBR's chaos surface is allocation failure; the workload is an
    // alloc/retire churn with version validation sprinkled in.
    fn run_arena(plan: FaultPlan) -> (Vec<era_chaos::FaultRecord>, SmrStats) {
        let arena: ChaosArena<2> = ChaosArena::new(32, plan);
        let mut live = Vec::new();
        for i in 0..HORIZON {
            // Err means injected (or genuine) exhaustion; skip the write.
            if let Ok(h) = arena.alloc() {
                let _ = arena.write(h, 0, i);
                live.push(h);
            }
            if live.len() > 8 {
                let h = live.remove(0);
                let _ = arena.validate(h);
                let _ = arena.retire(h);
            }
        }
        for h in live.drain(..) {
            let _ = arena.retire(h);
        }
        (arena.fault_log(), arena.stats())
    }

    let plan = FaultPlan::generate(SEED, HORIZON, FAULTS);
    let replay = FaultPlan::from_json(&plan.to_json()).expect("parse");
    let (log_a, stats_a) = run_arena(plan);
    let (log_b, stats_b) = run_arena(replay);
    assert!(!log_a.is_empty());
    assert_eq!(log_a, log_b);
    assert_eq!(stats_a, stats_b);
}
