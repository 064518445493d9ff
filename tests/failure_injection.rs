//! Failure injection: threads that die at the worst moments.
//!
//! Nikolaev & Ravindran's *transparency* (§2 related work) asks that
//! threads may come and go without compromising the scheme. We inject
//! the nastier version: a thread's context is dropped **mid-operation**
//! (the thread panicked or was torn down while pinned). The schemes
//! must (a) not free anything the departed thread could still have
//! referenced *before* the drop, (b) release the slot for reuse, and
//! (c) let reclamation resume afterwards — including adopting the
//! departed thread's orphaned garbage.

use std::sync::atomic::{AtomicUsize, Ordering};

use era::ds::MichaelMap;
use era::smr::common::{Smr, SmrHeader};
use era::smr::{ebr::Ebr, he::He, hp::Hp, ibr::Ibr, leak::Leak, nbr::Nbr, vbr};
use era::smr::{with_scheme, SchemeKind};

/// Begin an op, load through a protected slot, then drop the context
/// without ever calling `end_op` — the "thread died pinned" injection.
fn die_pinned<S: Smr>(smr: &S) {
    let mut ctx = smr.register().expect("slot");
    smr.begin_op(&mut ctx);
    let word = std::sync::atomic::AtomicUsize::new(0);
    let _ = smr.load(&mut ctx, 0, &word);
    drop(ctx); // no end_op
}

fn churn_and_drain<S: Smr>(smr: &S, rounds: i64) -> (u64, usize) {
    let list = MichaelMap::new(smr);
    let mut ctx = smr.register().expect("slot");
    for k in 0..rounds {
        assert_eq!(list.insert_if_absent(&mut ctx, k % 97, 0), None);
        assert_eq!(list.remove(&mut ctx, k % 97), Some(0));
    }
    for _ in 0..8 {
        smr.flush(&mut ctx);
    }
    let st = smr.stats();
    (st.total_retired, st.retired_now)
}

#[test]
fn ebr_recovers_after_a_thread_dies_pinned() {
    let smr = Ebr::with_threshold(4, 8);
    die_pinned(&smr);
    // The dead thread's announcement was cleared on drop: the epoch can
    // advance and reclamation proceeds as if it had never existed.
    let (retired, now) = churn_and_drain(&smr, 2_000);
    assert_eq!(retired, 2_000);
    assert_eq!(now, 0, "dead pinned thread must not block EBR forever");
}

#[test]
fn hp_recovers_after_a_thread_dies_pinned() {
    let smr = Hp::with_threshold(4, 3, 8);
    die_pinned(&smr);
    let (retired, now) = churn_and_drain(&smr, 2_000);
    assert_eq!(retired, 2_000);
    assert_eq!(now, 0, "dead thread's hazards must be cleared on drop");
}

#[test]
fn he_and_ibr_recover_after_a_thread_dies_pinned() {
    let he = He::with_params(4, 3, 8, 4);
    die_pinned(&he);
    let (_, now) = churn_and_drain(&he, 2_000);
    assert_eq!(now, 0);

    let ibr = Ibr::with_params(4, 8, 4);
    die_pinned(&ibr);
    let (_, now) = churn_and_drain(&ibr, 2_000);
    assert_eq!(now, 0);
}

#[test]
fn nbr_recovers_after_a_thread_dies_pinned() {
    let smr = Nbr::with_threshold(4, 2, 8);
    die_pinned(&smr);
    let (_, now) = churn_and_drain(&smr, 2_000);
    assert_eq!(now, 0, "dead thread counts as quiescent for neutralization");
}

#[test]
fn slots_are_reusable_after_many_deaths() {
    // Capacity 2: if dead threads leaked their slots, the 17th
    // registration would fail.
    let smr = Ebr::new(2);
    for _ in 0..16 {
        die_pinned(&smr);
    }
    let mut ctx = smr.register().expect("slots recycled after deaths");
    smr.begin_op(&mut ctx);
    smr.end_op(&mut ctx);
}

/// A node with a real header (HE/IBR read the birth era from it) whose
/// free counts itself.
#[repr(C)]
struct Canary {
    header: SmrHeader,
    freed: &'static AtomicUsize,
}

/// # Safety
///
/// `p` must be the `Box::into_raw` pointer of a live `Canary`, passed
/// here exactly once.
unsafe fn free_canary(p: *mut u8) {
    // SAFETY: contract above.
    let canary = unsafe { Box::from_raw(p as *mut Canary) };
    // SAFETY(ordering): Relaxed — a count the test reads on the thread
    // that ran the frees; nothing is published through it.
    canary.freed.fetch_add(1, Ordering::Relaxed);
}

/// Retires `n` never-published canaries through `ctx`, one per
/// operation.
fn retire_canaries<S: Smr>(smr: &S, ctx: &mut S::ThreadCtx, n: usize, freed: &'static AtomicUsize) {
    for _ in 0..n {
        let node = Box::into_raw(Box::new(Canary {
            header: SmrHeader::new(),
            freed,
        }));
        smr.begin_op(ctx);
        // SAFETY: `node` is fresh and never published, so it is
        // unreachable; it is retired exactly once, with its own header
        // and the free that matches its allocation.
        unsafe {
            smr.init_header(ctx, &(*node).header);
            smr.retire(ctx, node as *mut u8, &(*node).header, free_canary);
        }
        smr.end_op(ctx);
    }
}

/// Fewer retires than any scheme's default threshold: they stay in the
/// worker's context until it drops.
const BELOW_THRESHOLD: usize = 32;

#[test]
fn orphaned_garbage_is_adopted_not_leaked() {
    static FREED: AtomicUsize = AtomicUsize::new(0);
    for kind in SchemeKind::RECLAIMING {
        with_scheme!(kind, make => {
            let smr = make(4, 3);
            let before = FREED.load(Ordering::Relaxed);
            // A worker retires a pile and dies without flushing.
            let mut worker = smr.register().unwrap();
            retire_canaries(&smr, &mut worker, BELOW_THRESHOLD, &FREED);
            drop(worker); // garbage goes to the orphan pool
            assert_eq!(smr.stats().retired_now, BELOW_THRESHOLD, "{}", kind.name());
            // A survivor adopts and frees it.
            let mut survivor = smr.register().unwrap();
            for _ in 0..8 {
                if smr.stats().retired_now == 0 {
                    break;
                }
                smr.begin_op(&mut survivor);
                smr.end_op(&mut survivor);
                smr.flush(&mut survivor);
            }
            let st = smr.stats();
            assert_eq!(st.retired_now, 0, "{}: {st}", kind.name());
            assert_eq!(
                FREED.load(Ordering::Relaxed) - before,
                BELOW_THRESHOLD,
                "{}",
                kind.name()
            );
        });
    }
}

#[test]
fn remaining_garbage_is_freed_when_the_scheme_drops() {
    static FREED: AtomicUsize = AtomicUsize::new(0);
    for kind in SchemeKind::RECLAIMING.into_iter().chain([SchemeKind::Leak]) {
        with_scheme!(kind, make => {
            let smr = make(4, 3);
            let before = FREED.load(Ordering::Relaxed);
            let mut worker = smr.register().unwrap();
            retire_canaries(&smr, &mut worker, BELOW_THRESHOLD, &FREED);
            drop(worker);
            assert_eq!(FREED.load(Ordering::Relaxed), before, "{}", kind.name());
            drop(smr); // no survivor: the scheme's drop frees the orphans
            assert_eq!(
                FREED.load(Ordering::Relaxed) - before,
                BELOW_THRESHOLD,
                "{}",
                kind.name()
            );
        });
    }
}

/// A thread panics while pinned; the context is dropped during stack
/// unwinding. The Drop path must release the registry slot exactly
/// once — no leak (the slot stays claimed forever) and no double
/// release (two later registrations sharing one slot).
fn die_by_panic<S: Smr>(smr: &S) {
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut ctx = smr.register().expect("slot");
        smr.begin_op(&mut ctx);
        panic!("injected panic while pinned");
    }));
    assert!(unwound.is_err(), "the injected panic must propagate");
}

#[test]
fn panicking_thread_releases_its_slot_exactly_once() {
    // Capacity 2 exposes both failure modes: a leaked slot makes the
    // second post-panic registration fail; a double-released slot
    // would let a third one succeed.
    let smr = Ebr::new(2);
    for _ in 0..4 {
        die_by_panic(&smr);
    }
    let a = smr.register().expect("slot released by unwinding drop");
    let b = smr.register().expect("second slot untouched by panics");
    assert!(
        smr.register().is_err(),
        "exactly-once release: capacity must not grow past 2"
    );
    drop((a, b));
}

/// Satellite: K = 16 *sequential* deaths on a capacity-2 scheme. Each
/// death must fully return its slot before the next, and the orphaned
/// garbage of all sixteen must drain once a live thread churns.
fn sixteen_sequential_deaths<S: Smr>(smr: &S, expect_drain: bool) {
    for _ in 0..16 {
        die_pinned(smr);
    }
    // Slot count must not erode: both slots claimable, a third is not.
    let a = smr.register().expect("slot after 16 deaths");
    let b = smr.register().expect("second slot after 16 deaths");
    assert!(smr.register().is_err(), "capacity grew past 2");
    drop((a, b));
    let (retired, now) = churn_and_drain(smr, 1_000);
    assert!(retired >= 1_000);
    if expect_drain {
        assert_eq!(now, 0, "orphans of 16 deaths failed to drain: {now}");
    }
}

#[test]
fn repeated_deaths_do_not_erode_capacity() {
    sixteen_sequential_deaths(&Ebr::with_threshold(2, 8), true);
    sixteen_sequential_deaths(&Hp::with_threshold(2, 3, 8), true);
    sixteen_sequential_deaths(&He::with_params(2, 3, 8, 4), true);
    sixteen_sequential_deaths(&Ibr::with_params(2, 8, 4), true);
    sixteen_sequential_deaths(&Nbr::with_threshold(2, 2, 8), true);
}

#[test]
fn leak_repeated_deaths_do_not_erode_capacity() {
    // The leaking baseline never drains, but deaths must still recycle
    // slots and never wedge the workload.
    let smr = Leak::new(2);
    sixteen_sequential_deaths(&smr, false);
    assert_eq!(smr.stats().total_reclaimed, 0);
    assert!(smr.stats().retired_now >= 1_000);
}

#[test]
fn vbr_departed_readers_cannot_wedge_the_arena() {
    // VBR has no per-thread contexts: a departed reader leaves only
    // stale (handle, version) pairs behind. The arena must keep
    // recycling through them, and the versions must keep the stale
    // handles detectably dead.
    let arena: vbr::Arena<2> = vbr::Arena::new(8);
    let mut abandoned = Vec::new();
    for round in 0..16u64 {
        // A "reader" grabs handles mid-operation and disappears.
        let h = arena.alloc().expect("capacity cycles");
        arena.write(h, 0, round).unwrap();
        abandoned.push(h);
        arena.retire(h).unwrap(); // unlinked after the reader vanished
    }
    // Slots recycled: the arena can still fill to capacity...
    let live: Vec<_> = (0..arena.capacity() - arena.live())
        .map(|_| arena.alloc().expect("slot recycled"))
        .collect();
    // ...and every abandoned handle is detectably stale, not readable.
    let stale = abandoned
        .iter()
        .filter(|&&h| arena.validate(h).is_err())
        .count();
    assert!(
        stale >= abandoned.len() - arena.capacity(),
        "recycled slots must bump versions: only {stale} stale"
    );
    for h in live {
        arena.retire(h).unwrap();
    }
}

#[test]
#[cfg_attr(
    miri,
    ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
)]
fn death_during_concurrent_churn() {
    // Threads keep dying pinned while others churn: the system must
    // neither crash nor wedge, and must drain at the end.
    let smr = Ebr::with_threshold(8, 16);
    let list = MichaelMap::new(&smr);
    std::thread::scope(|s| {
        for t in 0..2i64 {
            let (list, smr) = (&list, &smr);
            s.spawn(move || {
                let mut ctx = smr.register().unwrap();
                for k in 0..2_000i64 {
                    let key = t * 10_000 + k % 101;
                    let _ = list.insert_if_absent(&mut ctx, key, 0);
                    let _ = list.remove(&mut ctx, key);
                }
                for _ in 0..4 {
                    smr.flush(&mut ctx);
                }
            });
        }
        s.spawn(|| {
            for _ in 0..50 {
                die_pinned(&smr);
            }
        });
    });
    let mut ctx = smr.register().unwrap();
    for _ in 0..8 {
        smr.begin_op(&mut ctx);
        smr.end_op(&mut ctx);
        smr.flush(&mut ctx);
    }
    assert_eq!(smr.stats().retired_now, 0, "{}", smr.stats());
}

/// The same injections with every scheme wrapped in
/// [`era::chaos::ChaosSmr`]: a transparent wrapper must change nothing,
/// and an armed wrapper must stack *its* deaths on top of the manual
/// ones without the recovery story regressing.
mod chaos_wrapped {
    use super::*;
    use era::chaos::{ChaosSmr, FaultAction, FaultPlan};

    #[test]
    fn transparent_wrapper_changes_nothing() {
        let smr = ChaosSmr::transparent(Ebr::with_threshold(4, 8));
        die_pinned(&smr);
        let (retired, now) = churn_and_drain(&smr, 2_000);
        assert_eq!(retired, 2_000);
        assert_eq!(now, 0);
        assert_eq!(smr.faults_injected(), 0);

        let smr = ChaosSmr::transparent(Hp::with_threshold(4, 3, 8));
        die_pinned(&smr);
        let (_, now) = churn_and_drain(&smr, 2_000);
        assert_eq!(now, 0);

        let smr = ChaosSmr::transparent(Nbr::with_threshold(4, 2, 8));
        die_pinned(&smr);
        let (_, now) = churn_and_drain(&smr, 2_000);
        assert_eq!(now, 0);
    }

    #[test]
    fn injected_deaths_stack_on_manual_ones() {
        let plan = FaultPlan::new(
            7,
            (1..=8u64)
                .map(|i| FaultAction::DiePinned { at_op: i * 64 })
                .collect(),
        );
        let smr = ChaosSmr::new(Ebr::with_threshold(8, 8), plan);
        die_pinned(&smr); // manual death before the plan starts firing
        let list = MichaelMap::new(&smr);
        let mut ctx = smr.register().unwrap();
        for k in 0..2_000i64 {
            assert_eq!(list.insert_if_absent(&mut ctx, k % 97, 0), None);
            assert_eq!(list.remove(&mut ctx, k % 97), Some(0));
            // Reads keep answering while the plan's victims die pinned.
            assert_eq!(list.get(&mut ctx, k % 97), None);
        }
        assert_eq!(smr.faults_injected(), 8, "all planned deaths fired");
        smr.quiesce(&mut ctx);
        for _ in 0..8 {
            smr.begin_op(&mut ctx);
            smr.end_op(&mut ctx);
            smr.flush(&mut ctx);
        }
        assert_eq!(smr.stats().retired_now, 0, "{}", smr.stats());
    }
}
