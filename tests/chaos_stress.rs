//! Chaos stress: the ordering-stress hammer re-run under an armed
//! [`ChaosSmr`] — at least eight die-pinned context drops per scheme,
//! plus frozen announcements, a delayed flush, and a spurious-restart
//! storm, all firing while writers retire and readers hold protected
//! loads.
//!
//! Safety is checked the same way as `ordering_stress.rs`: reclaimed
//! canary nodes are **poisoned, not freed**, so a use-after-free
//! (garbage adopted and reclaimed while a survivor still held it
//! protected) trips a deterministic assertion instead of a segfault.
//! Robustness is checked on the schemes the paper classes as robust
//! under live threads (EBR/QSBR/IBR with everyone advancing, NBR via
//! its restart protocol): `retired_peak` must stay inside a
//! navigator-style hard budget even with dead contexts orphaning
//! garbage mid-run.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use era::chaos::{ChaosSmr, FaultAction, FaultPlan};
use era::obs::{FlightDump, FlightRecorder, Hook, Recorder};
use era::smr::common::{Smr, SmrHeader};
use era::smr::{ebr::Ebr, he::He, hp::Hp, ibr::Ibr, leak::Leak, nbr::Nbr, qsbr::Qsbr};

const CANARY: u64 = 0xA11A_C0DE_CAFE_F00D;
const POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;

const SLOTS: usize = 4;
const WRITERS: usize = 2;
const READERS: usize = 2;
const ITERS: usize = 2_000;
const THRESHOLD: usize = 64;
const DEATHS: u64 = 8;
const STALL_WINDOW: u64 = 400;

/// Scheme capacity: the four workers, the draining main context, two
/// concurrently-stalled victims, and headroom for a die-pinned victim
/// registered while both stalls are live.
const CAPACITY: usize = WRITERS + READERS + 5;

/// The navigator-style hard budget (cf. `KvConfig::retired_hard`): the
/// live-thread bound of `ordering_stress.rs` widened by what the plan
/// legitimately pins — each stall window holds up to its length in
/// retires, and each death orphans a fixed clutch of canaries.
const HARD_BUDGET: usize = (CAPACITY + 1) * (CAPACITY + 1) * THRESHOLD * 2
    + 2 * STALL_WINDOW as usize
    + 8 * DEATHS as usize;

#[repr(C)]
struct Node {
    header: SmrHeader,
    canary: AtomicU64,
}

fn alloc_node() -> *mut Node {
    Box::into_raw(Box::new(Node {
        header: SmrHeader::new(),
        canary: AtomicU64::new(CANARY),
    }))
}

/// # Safety
///
/// `p` must point at a live `Node` from `alloc_node`. The allocation is
/// never unmapped (leaked by design), so the canary store is always to
/// mapped memory — "reclamation" here is the poison mark itself.
unsafe fn poison_node(p: *mut u8) {
    let node = p as *const Node;
    // SAFETY: the contract above; a node is never unmapped.
    unsafe { (*node).canary.store(POISON, Ordering::SeqCst) };
}

/// Eight deaths spread across the run, two long stalls, one delayed
/// flush, one spurious-restart storm. No injected registration faults:
/// worker threads must be able to register, so those families are
/// covered by `failure_injection.rs` and the era-chaos unit tests.
fn armed_plan() -> FaultPlan {
    let horizon = ((WRITERS + READERS) * ITERS) as u64;
    let step = horizon / (DEATHS + 1);
    let mut ops: Vec<FaultAction> = (1..=DEATHS)
        .map(|i| FaultAction::DiePinned { at_op: i * step })
        .collect();
    ops.push(FaultAction::StallThread {
        at_op: step / 2,
        for_ops: STALL_WINDOW,
    });
    ops.push(FaultAction::StallThread {
        at_op: 5 * step + step / 2,
        for_ops: STALL_WINDOW,
    });
    ops.push(FaultAction::DelayFlush {
        at_op: 3 * step + step / 2,
        for_ops: STALL_WINDOW / 2,
    });
    ops.push(FaultAction::RestartStorm {
        at_op: 6 * step + step / 2,
        count: 50,
    });
    FaultPlan::new(0xC4A05, ops)
}

fn hammer<S>(label: &str, inner: S) -> era::smr::SmrStats
where
    S: Smr + Sync,
    S::ThreadCtx: Send,
{
    let smr = ChaosSmr::new(inner, armed_plan());
    // Flight recorder armed by default: a failing canary assertion
    // (a panic) leaves a replayable `.eraflt` post-mortem in the temp
    // dir, and a clean run verifies the dump end to end below.
    let recorder = Recorder::new(CAPACITY + 4);
    smr.attach_recorder(&recorder);
    let flight = Arc::new(FlightRecorder::single(label, &recorder));
    let dump_path = std::env::temp_dir().join(format!("era_chaos_stress_{label}.eraflt"));
    flight.install_panic_hook(dump_path.clone());
    let shared: Vec<AtomicUsize> = (0..SLOTS).map(|_| AtomicUsize::new(0)).collect();
    let mut main_ctx = smr.register().unwrap();
    for s in &shared {
        let node = alloc_node();
        // SAFETY: `node` is fresh from `alloc_node`, and leaked.
        smr.init_header(&mut main_ctx, unsafe { &(*node).header });
        s.store(node as usize, Ordering::SeqCst);
    }
    std::thread::scope(|sc| {
        let smr = &smr;
        for w in 0..WRITERS {
            let shared = &shared;
            sc.spawn(move || {
                let mut ctx = smr.register().unwrap();
                for i in 0..ITERS {
                    smr.begin_op(&mut ctx);
                    let fresh = alloc_node();
                    // SAFETY: `fresh` is fresh from `alloc_node`, and leaked.
                    smr.init_header(&mut ctx, unsafe { &(*fresh).header });
                    let old = shared[(w + i) % SLOTS].swap(fresh as usize, Ordering::SeqCst);
                    let old_node = old as *const Node;
                    assert_ne!(
                        // SAFETY: nodes are leaked, never unmapped: the read hits mapped
                        // memory, and the canary checks the protocol.
                        unsafe { (*old_node).canary.load(Ordering::SeqCst) },
                        POISON,
                        "double reclamation: unlinked a node already poisoned"
                    );
                    // SAFETY: the swap above unlinked `old`, so this thread retires it
                    // exactly once; its header lies inside the node.
                    unsafe {
                        smr.retire(&mut ctx, old as *mut u8, &(*old_node).header, poison_node);
                    }
                    smr.end_op(&mut ctx);
                    smr.quiescent_point(&mut ctx);
                }
                for _ in 0..4 {
                    smr.flush(&mut ctx);
                }
            });
        }
        for r in 0..READERS {
            let shared = &shared;
            sc.spawn(move || {
                let mut ctx = smr.register().unwrap();
                for i in 0..ITERS {
                    smr.begin_op(&mut ctx);
                    smr.enter_read_phase(&mut ctx);
                    let word = smr.load(&mut ctx, 0, &shared[(r + i) % SLOTS]);
                    let node = word as *const Node;
                    // A pending (possibly chaos-injected, spurious)
                    // restart means the protected region must not be
                    // trusted — exactly the NBR contract. Otherwise the
                    // canary must still be live.
                    if !smr.needs_restart(&mut ctx) {
                        // SAFETY: nodes are leaked, never unmapped; the canary checks the
                        // protocol, not memory validity.
                        let seen = unsafe { (*node).canary.load(Ordering::SeqCst) };
                        assert_eq!(
                            seen, CANARY,
                            "use-after-free: protected node reclaimed under a reader"
                        );
                    }
                    smr.end_op(&mut ctx);
                    smr.quiescent_point(&mut ctx);
                }
            });
        }
    });
    // Every planned fault fired, eight of them deaths.
    let deaths = smr.fault_log().iter().filter(|f| f.kind == 0).count() as u64;
    assert_eq!(deaths, DEATHS, "all die-pinned injections must fire");
    assert!(smr.faults_injected() >= DEATHS + 2);
    // Release surviving chaos pins, then drain with the main context.
    smr.quiesce(&mut main_ctx);
    for _ in 0..64 {
        smr.begin_op(&mut main_ctx);
        smr.end_op(&mut main_ctx);
        smr.quiescent_point(&mut main_ctx);
        smr.flush(&mut main_ctx);
    }
    // The clean-exit dump must replay: every injected death shows up
    // as a Fault event, and the dump survives its own byte roundtrip.
    flight
        .snapshot_to_file(&dump_path)
        .expect("flight dump must be writable");
    let dump = FlightDump::decode(&std::fs::read(&dump_path).expect("dump file readable"))
        .expect("flight dump must decode");
    let src = &dump.sources[0];
    assert_eq!(src.label, label);
    let recorded_deaths = src
        .events
        .iter()
        .filter(|e| Hook::from_u8(e.hook) == Some(Hook::Fault) && e.a == 0)
        .count() as u64;
    if src.dropped == 0 {
        assert_eq!(
            recorded_deaths, DEATHS,
            "{label}: every die-pinned fault must be in a lossless dump"
        );
    } else {
        assert!(
            recorded_deaths <= DEATHS,
            "{label}: dump cannot contain more deaths than were injected"
        );
    }
    let _ = std::fs::remove_file(&dump_path);
    smr.stats()
}

fn assert_recovered(st: &era::smr::SmrStats, scheme: &str) {
    assert!(
        st.retired_peak <= HARD_BUDGET,
        "{scheme}: retired_peak {} exceeds hard budget {HARD_BUDGET}",
        st.retired_peak
    );
    assert_eq!(
        st.retired_now, 0,
        "{scheme}: orphaned garbage failed to drain: {st}"
    );
}

#[test]
#[cfg_attr(
    miri,
    ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
)]
fn ebr_survives_chaos_with_bounded_footprint() {
    let st = hammer("ebr", Ebr::with_threshold(CAPACITY, THRESHOLD));
    assert_recovered(&st, "EBR");
}

#[test]
#[cfg_attr(
    miri,
    ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
)]
fn qsbr_survives_chaos_with_bounded_footprint() {
    let st = hammer("qsbr", Qsbr::with_threshold(CAPACITY, THRESHOLD));
    assert_recovered(&st, "QSBR");
}

#[test]
#[cfg_attr(
    miri,
    ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
)]
fn ibr_survives_chaos_with_bounded_footprint() {
    let st = hammer("ibr", Ibr::with_params(CAPACITY, THRESHOLD, 4));
    assert_recovered(&st, "IBR");
}

#[test]
#[cfg_attr(
    miri,
    ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
)]
fn nbr_survives_chaos_with_bounded_footprint() {
    let st = hammer("nbr", Nbr::with_threshold(CAPACITY, 2, THRESHOLD));
    assert_recovered(&st, "NBR");
}

#[test]
#[cfg_attr(
    miri,
    ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
)]
fn hp_survives_chaos() {
    // HP's per-pointer protection bounds the peak tighter than the
    // navigator budget; the chaos question is purely safety + drain.
    let st = hammer("hp", Hp::with_threshold(CAPACITY, 1, THRESHOLD));
    assert_eq!(st.retired_now, 0, "HP: orphans failed to drain: {st}");
}

#[test]
#[cfg_attr(
    miri,
    ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
)]
fn he_survives_chaos() {
    let st = hammer("he", He::with_params(CAPACITY, 1, THRESHOLD, 4));
    assert_eq!(st.retired_now, 0, "HE: orphans failed to drain: {st}");
}

#[test]
#[cfg_attr(
    miri,
    ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
)]
fn leak_survives_chaos() {
    // The leaking baseline reclaims nothing, so the only chaos claims
    // are safety (canaries, asserted inline) and that every injection
    // fired without wedging the workload.
    let st = hammer("leak", Leak::new(CAPACITY));
    assert_eq!(st.total_reclaimed, 0);
    assert!(st.total_retired > 0);
}
