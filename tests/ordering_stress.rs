//! Ordering-downgrade regression net: multi-thread protect / retire /
//! reclaim hammering for every scheme whose memory orderings were
//! relaxed from blanket `SeqCst` to `Acquire`/`Release`/`Relaxed` +
//! explicit fences (EBR, HP, HE, IBR).
//!
//! The harness publishes nodes through a small array of shared slots.
//! Writers swap fresh nodes in and retire the displaced ones; readers
//! take protected loads and check the node's canary word. A reclaimed
//! node is **poisoned, not freed**: its drop function overwrites the
//! canary and leaks the allocation, so a protection bug (a reader
//! holding a node whose reclamation the fences should have forbidden)
//! shows up as a deterministic canary assertion instead of an
//! undiagnosable segfault. The leak is bounded by the iteration count
//! and reclaimed at process exit.
//!
//! For the epoch/interval schemes the test also bounds `retired_peak`:
//! with every thread live and threshold T, garbage must keep draining,
//! so a peak anywhere near `total_retired` means a fence bug silently
//! stopped epoch/era advancement even though nothing crashed.
//!
//! NBR is exercised through `era-ds`'s linearizability table
//! (`HarrisList` and the maps under NBR's neutralization hooks); its
//! orderings were not touched.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use era::obs::{FlightDump, FlightRecorder, Hook, Recorder};
use era::smr::common::{Smr, SmrHeader};
use era::smr::{ebr::Ebr, he::He, hp::Hp, ibr::Ibr};

/// Value a live node's canary holds from allocation to reclamation.
const CANARY: u64 = 0xA11A_C0DE_CAFE_F00D;
/// Value the drop function writes over the canary.
const POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;

const SLOTS: usize = 4;
const WRITERS: usize = 2;
const READERS: usize = 2;
const ITERS: usize = 3_000;
const THRESHOLD: usize = 64;

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

/// "Reclaims" a node by poisoning its canary. The allocation is
/// deliberately leaked (see module docs): memory stays mapped so a
/// racing reader observes POISON instead of faulting.
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

fn hammer<S: Smr + Sync>(label: &str, smr: &S) -> era::smr::SmrStats {
    // Flight recorder armed by default (attached before any register,
    // per the Smr contract): a canary assertion leaves a replayable
    // `.eraflt` post-mortem in the temp dir; a clean run checks the
    // dump below and removes it.
    let recorder = Recorder::new(WRITERS + READERS + 4);
    smr.attach_recorder(&recorder);
    let flight = Arc::new(FlightRecorder::single(label, &recorder));
    let dump_path = std::env::temp_dir().join(format!("era_ordering_stress_{label}.eraflt"));
    flight.install_panic_hook(dump_path.clone());
    let shared: Vec<AtomicUsize> = (0..SLOTS).map(|_| AtomicUsize::new(0)).collect();
    {
        let mut ctx = smr.register().unwrap();
        for s in &shared {
            let node = alloc_node();
            // SAFETY: `node` is fresh from `alloc_node`, and leaked.
            smr.init_header(&mut ctx, unsafe { &(*node).header });
            s.store(node as usize, Ordering::SeqCst);
        }
    }
    std::thread::scope(|sc| {
        for w in 0..WRITERS {
            let shared = &shared;
            sc.spawn(move || {
                let mut ctx = smr.register().unwrap();
                for i in 0..ITERS {
                    smr.begin_op(&mut ctx);
                    let fresh = alloc_node();
                    // SAFETY: `fresh` is fresh from `alloc_node`, and leaked.
                    smr.init_header(&mut ctx, unsafe { &(*fresh).header });
                    // SC swap = the unlink step: after it, no reader can
                    // newly reach `old`, so retiring it is well-formed.
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
                    let word = smr.load(&mut ctx, 0, &shared[(r + i) % SLOTS]);
                    let node = word as *const Node;
                    // The protected load must keep the node unreclaimed
                    // until end_op — a POISON canary here means the
                    // relaxed orderings let a scan miss the protection.
                    // SAFETY: nodes are leaked, never unmapped; the canary checks the
                    // protocol, not memory validity.
                    let seen = unsafe { (*node).canary.load(Ordering::SeqCst) };
                    assert_eq!(
                        seen, CANARY,
                        "use-after-free: protected node was reclaimed under a reader"
                    );
                    smr.end_op(&mut ctx);
                }
            });
        }
    });
    // Clean-exit dump: every retire the scheme counted must either be
    // in the trace or accounted as a ring drop — the flight layer
    // itself never loses events.
    flight
        .snapshot_to_file(&dump_path)
        .expect("flight dump must be writable");
    let dump = FlightDump::decode(&std::fs::read(&dump_path).expect("dump file readable"))
        .expect("flight dump must decode");
    let src = &dump.sources[0];
    assert_eq!(src.label, label);
    let traced_retires = src
        .events
        .iter()
        .filter(|e| Hook::from_u8(e.hook) == Some(Hook::Retire))
        .count() as u64;
    let st = smr.stats();
    assert!(
        traced_retires + src.dropped + src.trimmed >= st.total_retired,
        "{label}: {traced_retires} traced retires + {} dropped + {} trimmed \
         cannot cover {} retire calls",
        src.dropped,
        src.trimmed,
        st.total_retired
    );
    let _ = std::fs::remove_file(&dump_path);
    st
}

/// All threads stayed live, so reclamation must have kept up: the
/// retired population may burst past the threshold while a grace period
/// completes, but a peak anywhere near `total_retired` means nothing
/// was ever freed.
fn assert_bounded_peak(st: &era::smr::SmrStats, scheme: &str) {
    let total = WRITERS * ITERS;
    let bound = (WRITERS + READERS + 1) * (WRITERS + READERS + 1) * THRESHOLD * 2;
    assert!(
        st.retired_peak <= bound,
        "{scheme}: retired_peak {} exceeds live-thread bound {bound}",
        st.retired_peak
    );
    assert!(
        st.total_reclaimed >= (total as u64) / 2,
        "{scheme}: reclamation stalled: {st}"
    );
}

/// The peak bound for the non-robust epoch schemes is probabilistic,
/// not guaranteed: these are exactly the schemes where one reader
/// descheduled for the whole (sub-second) run pins the epoch and lets
/// the peak climb toward `total_retired` — the ERA trade-off they
/// declared, not a fence bug. One retry separates the two: a real
/// ordering regression stops advancement deterministically and fails
/// both runs; a scheduler burst (seen only under a fully parallel,
/// oversubscribed test suite) does not repeat.
fn assert_bounded_peak_with_retry(
    scheme: &str,
    run: impl Fn() -> era::smr::SmrStats,
) -> era::smr::SmrStats {
    let st = run();
    let bound = (WRITERS + READERS + 1) * (WRITERS + READERS + 1) * THRESHOLD * 2;
    if st.retired_peak > bound {
        eprintln!(
            "{scheme}: retired_peak {} exceeded bound {bound} once — \
             retrying to rule out a scheduler burst",
            st.retired_peak
        );
        let st = run();
        assert_bounded_peak(&st, scheme);
        return st;
    }
    assert_bounded_peak(&st, scheme);
    st
}

#[test]
#[cfg_attr(
    miri,
    ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
)]
fn ebr_protect_retire_reclaim() {
    assert_bounded_peak_with_retry("EBR", || {
        hammer(
            "ebr",
            &Ebr::with_threshold(WRITERS + READERS + 1, THRESHOLD),
        )
    });
}

#[test]
#[cfg_attr(
    miri,
    ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
)]
fn ibr_protect_retire_reclaim() {
    assert_bounded_peak_with_retry("IBR", || {
        hammer(
            "ibr",
            &Ibr::with_params(WRITERS + READERS + 1, THRESHOLD, 4),
        )
    });
}

#[test]
#[cfg_attr(
    miri,
    ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
)]
fn hp_protect_retire_reclaim() {
    let smr = Hp::with_threshold(WRITERS + READERS + 1, 1, THRESHOLD);
    let st = hammer("hp", &smr);
    // HP is robust: the peak respects the scheme's own bound.
    assert!(
        st.retired_peak <= smr.robustness_bound(),
        "HP: retired_peak {} exceeds robustness bound {}",
        st.retired_peak,
        smr.robustness_bound()
    );
    assert!(st.total_reclaimed >= (WRITERS * ITERS) as u64 / 2, "{st}");
}

#[test]
#[cfg_attr(
    miri,
    ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
)]
fn he_protect_retire_reclaim() {
    let smr = He::with_params(WRITERS + READERS + 1, 1, THRESHOLD, 4);
    let st = hammer("he", &smr);
    assert!(st.total_reclaimed >= (WRITERS * ITERS) as u64 / 2, "{st}");
}

/// The same hammer through a transparent (empty-plan)
/// [`era::chaos::ChaosSmr`]: the decorator must preserve the fence
/// discipline and the footprint bounds exactly — its fast path is a
/// single relaxed clock increment and one load. (Armed-plan
/// multi-thread runs live in `chaos_stress.rs`.)
mod chaos_wrapped {
    use super::*;
    use era::chaos::ChaosSmr;

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn ebr_hammer_is_oblivious_to_a_transparent_wrapper() {
        assert_bounded_peak_with_retry("EBR/chaos", || {
            let smr = ChaosSmr::transparent(Ebr::with_threshold(WRITERS + READERS + 1, THRESHOLD));
            let st = hammer("ebr_chaos", &smr);
            // The transparency half is deterministic — no retry needed.
            assert_eq!(smr.faults_injected(), 0);
            assert_eq!(smr.op_clock(), ((WRITERS + READERS) * ITERS) as u64);
            st
        });
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn hp_hammer_is_oblivious_to_a_transparent_wrapper() {
        let smr = ChaosSmr::transparent(Hp::with_threshold(WRITERS + READERS + 1, 1, THRESHOLD));
        let st = hammer("hp_chaos", &smr);
        assert!(
            st.retired_peak <= smr.inner().robustness_bound(),
            "HP/chaos: retired_peak {} exceeds robustness bound {}",
            st.retired_peak,
            smr.inner().robustness_bound()
        );
    }
}
