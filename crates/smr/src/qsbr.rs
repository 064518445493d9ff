//! Quiescent-state-based reclamation (QSBR) — the RCU-style ancestor of
//! EBR (Fraser [16] credits it as the starting point).
//!
//! There are no per-operation brackets at all: each thread occasionally
//! announces a *quiescent state* — a moment at which it holds no
//! references into any shared structure — by calling [`Qsbr::quiescent`].
//! A node retired in grace period `g` is reclaimed once every registered
//! thread has announced a quiescent state in `g + 1` or later.
//!
//! QSBR is instructive for the ERA classification because it holds only
//! **one** of the three properties (the theorem bounds from above, not
//! below):
//!
//! * **not easily integrated** — `quiescent()` must be placed at
//!   application points where the thread provably holds no references,
//!   which is an *arbitrary code location* requiring understanding of
//!   the whole program (Definition 5.3, Condition 2 fails);
//! * **not robust** — a thread that stops announcing quiescence blocks
//!   all reclamation, like EBR's stalled announcement;
//! * **widely applicable** — like EBR, traversals through retired nodes
//!   are protected until the trailing grace period, so it composes with
//!   Harris-style structures.

// ERA-CLASS: QSBR non-robust — a thread that never reaches a quiescent
// point blocks every grace period; trapped memory is unbounded.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use era_obs::{Hook, Recorder, SchemeId, ThreadTracer};

use crate::common::{
    CachePadded, DropFn, RegisterError, Retired, SlotRegistry, Smr, SmrHeader, SmrStats, StatCells,
    SupportsUnlinkedTraversal,
};
use crate::registry::SchemeKind;

#[derive(Debug)]
struct QsbrInner {
    grace: CachePadded<AtomicU64>,
    /// Latest grace period each slot has announced quiescence in.
    /// Line-padded: written once per operation per thread.
    announced: Box<[CachePadded<AtomicU64>]>,
    registry: SlotRegistry,
    stats: StatCells,
    retire_threshold: usize,
    /// Slot `i` had quiescence announced *on its behalf* by
    /// [`Smr::neutralize`] and must restart before trusting pointers.
    neutralized: Box<[CachePadded<AtomicBool>]>,
}

impl QsbrInner {
    /// Advances the grace period if every registered thread has
    /// announced the current one.
    fn try_advance(&self) -> u64 {
        // SAFETY(ordering) PAIRS(qsbr-grace-dekker): SeqCst fence pairs
        // with the fence in
        // `begin_op`'s slow path (Dekker): either this scan observes a
        // thread's fresh not-quiescent announcement, or that thread's
        // post-fence grace re-read observes any advance we publish.
        // The loads stay SeqCst (plain loads on TSO) so they sit in the
        // same total order as the announcement stores.
        fence(Ordering::SeqCst);
        let g = self.grace.load(Ordering::SeqCst);
        for i in 0..self.registry.capacity() {
            if self.registry.is_in_use(i) && self.announced[i].load(Ordering::SeqCst) < g {
                // Thread `i` has not announced quiescence this grace
                // period: it blocks everyone (QSBR is not robust).
                self.stats
                    .blocked(i, self.stats.retired_now.load(Ordering::Relaxed));
                return g;
            }
        }
        // SAFETY(ordering): SeqCst CAS keeps the advance in the total
        // order the announce fences reason about; advancing is amortized
        // off the per-operation path, so strength here is free.
        if self
            .grace
            .compare_exchange(g, g + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.stats.event(Hook::Advance, g + 1, 0);
        }
        self.grace.load(Ordering::SeqCst)
    }
}

/// Quiescent-state-based reclamation.
///
/// # Example
///
/// ```
/// use era_smr::{qsbr::Qsbr, Smr};
///
/// let smr = Qsbr::new(4);
/// let mut ctx = smr.register().unwrap();
/// /* …operations; no begin_op/end_op needed… */
/// smr.quiescent(&mut ctx); // "I hold no shared references right now"
/// ```
#[derive(Debug, Clone)]
pub struct Qsbr {
    inner: Arc<QsbrInner>,
}

/// Per-thread context for [`Qsbr`].
#[derive(Debug)]
#[must_use = "dropping a context releases its slot; a forgotten one never announces quiescence and stalls every grace period"]
pub struct QsbrCtx {
    inner: Arc<QsbrInner>,
    idx: usize,
    tracer: ThreadTracer,
    garbage: Vec<Retired>,
    retired_since_scan: usize,
}

impl Drop for QsbrCtx {
    fn drop(&mut self) {
        self.inner.stats.orphan(&mut self.garbage);
        // A departing thread counts as permanently quiescent.
        // SAFETY(ordering): Release orders the thread's last accesses
        // before its permanent-quiescence mark.
        self.inner.announced[self.idx].store(u64::MAX, Ordering::Release);
        self.inner.registry.release(self.idx);
    }
}

impl Qsbr {
    /// Default retired-list length that triggers a collection attempt.
    pub const DEFAULT_RETIRE_THRESHOLD: usize = 64;

    /// Creates a QSBR instance for up to `max_threads` threads.
    pub fn new(max_threads: usize) -> Self {
        Self::with_threshold(max_threads, Self::DEFAULT_RETIRE_THRESHOLD)
    }

    /// Creates a QSBR instance with a custom retire threshold.
    pub fn with_threshold(max_threads: usize, retire_threshold: usize) -> Self {
        let announced: Vec<CachePadded<AtomicU64>> = (0..max_threads)
            .map(|_| CachePadded::new(AtomicU64::new(u64::MAX)))
            .collect();
        let neutralized: Vec<CachePadded<AtomicBool>> = (0..max_threads)
            .map(|_| CachePadded::new(AtomicBool::new(false)))
            .collect();
        Qsbr {
            inner: Arc::new(QsbrInner {
                grace: CachePadded::new(AtomicU64::new(2)),
                announced: announced.into_boxed_slice(),
                registry: SlotRegistry::new(max_threads),
                stats: StatCells::default(),
                retire_threshold: retire_threshold.max(1),
                neutralized: neutralized.into_boxed_slice(),
            }),
        }
    }

    /// Announces that the calling thread holds **no** references into
    /// any structure managed by this instance, and attempts collection.
    ///
    /// This is the integration burden: the *application* must find the
    /// points where this is true (Definition 5.3 calls such insertions
    /// arbitrary code locations — QSBR is not easily integrated).
    pub fn quiescent(&self, ctx: &mut QsbrCtx) {
        let g = self.inner.grace.load(Ordering::SeqCst);
        let slot = &self.inner.announced[ctx.idx];
        if slot.load(Ordering::SeqCst) != g {
            // SAFETY(ordering): Release suffices for a quiescence
            // announcement — it is a claim about the *past* ("every
            // access I made is before this store"), so it only needs to
            // order prior accesses, not gate future ones. A delayed
            // propagation merely delays reclamation, never unsafety.
            slot.store(g, Ordering::Release);
        }
        ctx.tracer.emit(Hook::Reserve, g, 0);
        // Amortization: with no local garbage there is nothing a grace
        // advance could free for us — skip the O(threads) scan entirely.
        // Read-dominated workloads hit this path almost every time,
        // making the quiescent point O(1). Threads with garbage still
        // scan (retire() additionally scans on its own threshold).
        if !ctx.garbage.is_empty() {
            let g = self.inner.try_advance();
            self.collect(ctx, g);
        }
    }

    fn collect(&self, ctx: &mut QsbrCtx, grace: u64) {
        // SAFETY: every registered thread passed a quiescent point after
        // the nodes two grace periods old were retired — the QSBR
        // grace-period guarantee.
        unsafe {
            self.inner
                .stats
                .reclaim_unless(&mut ctx.garbage, |r| r.retire_era + 2 > grace)
        };
    }
}

impl Smr for Qsbr {
    type ThreadCtx = QsbrCtx;

    fn register(&self) -> Result<QsbrCtx, RegisterError> {
        let idx = self.inner.registry.acquire()?;
        // A fresh thread is quiescent until it touches anything.
        // SAFETY(ordering): registration is cold; SeqCst keeps the slot
        // reset visible before any advance scan can consider this slot.
        self.inner.announced[idx].store(u64::MAX, Ordering::SeqCst);
        self.inner.neutralized[idx].store(false, Ordering::SeqCst);
        Ok(QsbrCtx {
            inner: Arc::clone(&self.inner),
            idx,
            tracer: self.inner.stats.tracer(idx),
            garbage: Vec::new(),
            retired_since_scan: 0,
        })
    }

    fn kind(&self) -> SchemeKind {
        SchemeKind::Qsbr
    }

    fn attach_recorder(&self, recorder: &Recorder) {
        self.inner.stats.attach(recorder, SchemeId::QSBR);
    }

    /// No per-operation work — but entering an operation ends the
    /// thread's standing quiescence (it is about to hold references).
    fn begin_op(&self, ctx: &mut QsbrCtx) {
        let g = self.inner.grace.load(Ordering::SeqCst);
        let target = g.saturating_sub(1); // quiescent up to the previous period, not the current
        let slot = &self.inner.announced[ctx.idx];
        // Fast path: our announcement already claims no quiescence in
        // the current period (a previous `begin_op` in the same grace
        // period published it, with a fence). Re-storing the same or a
        // lower value would change nothing a scanner can observe.
        // SAFETY(ordering): the standing value was fenced when first
        // published and only this thread (or `neutralize`, which writes
        // the *current* grace and therefore fails this check) writes the
        // slot — consecutive operations in one grace period form one
        // continuous not-quiescent region.
        if slot.load(Ordering::SeqCst) <= target {
            ctx.tracer.emit(Hook::BeginOp, g, 0);
            return;
        }
        // SAFETY(ordering) PAIRS(qsbr-grace-dekker): Relaxed store +
        // SeqCst fence (StoreLoad)
        // replaces the old SeqCst store: the not-quiescent announcement
        // must be visible before any of the operation's shared loads,
        // or an advancing thread could treat us as quiescent for two
        // consecutive periods and free nodes we are about to reach.
        slot.store(target, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        ctx.tracer.emit(Hook::BeginOp, g, 0);
    }

    fn end_op(&self, _ctx: &mut QsbrCtx) {
        // Deliberately empty: QSBR does not know when references die —
        // only the application's quiescent() calls say so.
    }

    /// # Safety
    /// See [`Smr::retire`]: `ptr` must be unlinked, retired at most once,
    /// and `drop_fn` must be valid for it.
    unsafe fn retire(
        &self,
        ctx: &mut QsbrCtx,
        ptr: *mut u8,
        _header: *const SmrHeader,
        drop_fn: DropFn,
    ) {
        // SAFETY(ordering): SeqCst stamp load (plain load on TSO) — it
        // anchors the reader-load ≺ unlink ≺ stamp-load chain in the
        // SeqCst total order, bounding the stamp at ≥ any concurrent
        // reader's announced period so `stamp + 2` is a safe horizon.
        let g = self.inner.grace.load(Ordering::SeqCst);
        self.inner
            .stats
            .retire_into(&mut ctx.tracer, &mut ctx.garbage, ptr, 0, g, drop_fn);
        ctx.retired_since_scan += 1;
        if ctx.retired_since_scan >= self.inner.retire_threshold {
            ctx.retired_since_scan = 0;
            let g = self.inner.try_advance();
            self.collect(ctx, g);
        }
    }

    /// Announces quiescence *on the victim's behalf*: its announced
    /// grace period jumps to the current one, so `try_advance` stops
    /// waiting on it. The victim learns about it on its next
    /// [`Smr::needs_restart`] poll.
    /// # Safety
    /// The caller (watchdog) must ensure the victim polls
    /// [`Smr::needs_restart`] before trusting pointers read in the
    /// current interval — forcing quiescence voids them.
    unsafe fn neutralize(&self, slot: usize) -> bool {
        if slot >= self.inner.registry.capacity() || !self.inner.registry.is_in_use(slot) {
            return false;
        }
        // SAFETY(ordering): watchdog path, cold by construction; SeqCst
        // keeps the flag/announcement pair totally ordered against the
        // victim's `needs_restart` RMW and any advance scan.
        self.inner.neutralized[slot].store(true, Ordering::SeqCst);
        let g = self.inner.grace.load(Ordering::SeqCst);
        self.inner.announced[slot].store(g, Ordering::SeqCst);
        self.inner.stats.event(Hook::Restart, slot as u64, 0);
        true
    }

    fn needs_restart(&self, ctx: &mut QsbrCtx) -> bool {
        // SAFETY(ordering): same shape as EBR — Relaxed fast path for
        // the common not-neutralized poll (no RMW per hop); a missed
        // flag only delays restart detection, it does not extend any
        // protection. The confirming swap stays SeqCst.
        if !self.inner.neutralized[ctx.idx].load(Ordering::Relaxed) {
            return false;
        }
        self.inner.neutralized[ctx.idx].swap(false, Ordering::SeqCst)
    }

    /// QSBR's whole integration contract *is* the quiescent point, so
    /// the generic hook maps straight onto [`Qsbr::quiescent`].
    fn quiescent_point(&self, ctx: &mut QsbrCtx) {
        self.quiescent(ctx);
    }

    fn stats(&self) -> SmrStats {
        self.inner
            .stats
            .snapshot(self.inner.grace.load(Ordering::SeqCst))
    }

    fn flush(&self, ctx: &mut QsbrCtx) {
        let g = self.inner.try_advance();
        self.collect(ctx, g);
        // Adopt orphaned garbage from departed threads.
        // SAFETY: same grace-period argument as `collect` — every thread
        // was quiescent since these retires.
        unsafe { self.inner.stats.reclaim_aged_orphans(g) };
    }
}

// Safe under QSBR's contract: nothing retired after a thread's last
// quiescent announcement is reclaimed before its next one, so pointers
// SAFETY: reclamation only happens after every thread passes a quiescent
// point, so pointers held between quiescent points — including into
// retired chains — remain dereferenceable.
unsafe impl SupportsUnlinkedTraversal for Qsbr {}

#[cfg(test)]
mod tests {
    use super::*;

    /// # Safety
    /// `p` must be a leaked `Box<u64>` that nothing else can reach.
    unsafe fn free_u64(p: *mut u8) {
        // SAFETY: contract above.
        unsafe { drop(Box::from_raw(p as *mut u64)) }
    }

    fn retire_one(smr: &Qsbr, ctx: &mut QsbrCtx, v: u64) {
        let p = Box::into_raw(Box::new(v)) as *mut u8;
        // SAFETY: p was just leaked, is unlinked and retired exactly once.
        unsafe { smr.retire(ctx, p, std::ptr::null(), free_u64) };
    }

    #[test]
    fn reclaims_after_all_threads_quiesce() {
        let smr = Qsbr::with_threshold(2, 4);
        let mut a = smr.register().unwrap();
        let mut b = smr.register().unwrap();
        smr.begin_op(&mut a);
        smr.begin_op(&mut b);
        for i in 0..10 {
            retire_one(&smr, &mut a, i);
        }
        assert_eq!(smr.stats().retired_now, 10);
        for _ in 0..4 {
            smr.quiescent(&mut a);
            smr.quiescent(&mut b);
        }
        assert_eq!(smr.stats().retired_now, 0, "{}", smr.stats());
    }

    #[test]
    fn non_quiescing_thread_blocks_everything() {
        // The not-robust witness.
        let smr = Qsbr::with_threshold(2, 1);
        let mut busy = smr.register().unwrap();
        let mut worker = smr.register().unwrap();
        smr.begin_op(&mut busy); // never announces quiescence again
        smr.begin_op(&mut worker);
        for i in 0..200 {
            retire_one(&smr, &mut worker, i);
            smr.quiescent(&mut worker);
        }
        assert_eq!(
            smr.stats().retired_now,
            200,
            "busy thread blocks reclamation"
        );
        // One quiescent announcement from the busy thread drains it.
        for _ in 0..4 {
            smr.quiescent(&mut busy);
            smr.quiescent(&mut worker);
        }
        assert_eq!(smr.stats().retired_now, 0);
    }

    #[test]
    fn neutralize_announces_on_victims_behalf() {
        let smr = Qsbr::with_threshold(2, 1);
        let mut busy = smr.register().unwrap();
        let mut worker = smr.register().unwrap();
        smr.begin_op(&mut busy); // never announces quiescence again
        smr.begin_op(&mut worker);
        for i in 0..50 {
            retire_one(&smr, &mut worker, i);
            smr.quiescent(&mut worker);
        }
        assert_eq!(smr.stats().retired_now, 50, "busy thread blocks");

        // The watchdog path: a forced announcement per grace period
        // lets the backlog drain without the victim's cooperation.
        for _ in 0..4 {
            // SAFETY: the victim polls needs_restart below (neutralize contract).
            assert!(unsafe { smr.neutralize(0) });
            smr.quiescent(&mut worker);
        }
        assert_eq!(smr.stats().retired_now, 0, "{}", smr.stats());
        assert!(smr.needs_restart(&mut busy));
        assert!(!smr.needs_restart(&mut busy), "restart reported once");
        // SAFETY: out-of-range neutralize must be a no-op returning false.
        assert!(!unsafe { smr.neutralize(7) }, "out-of-range slot");
    }

    #[test]
    fn quiescent_point_maps_to_quiescent() {
        let smr = Qsbr::with_threshold(1, 1);
        let mut ctx = smr.register().unwrap();
        smr.begin_op(&mut ctx);
        for i in 0..10 {
            retire_one(&smr, &mut ctx, i);
        }
        for _ in 0..4 {
            smr.quiescent_point(&mut ctx);
        }
        assert_eq!(smr.stats().retired_now, 0);
    }

    #[test]
    fn departed_threads_do_not_block() {
        let smr = Qsbr::with_threshold(2, 1);
        let a = smr.register().unwrap();
        drop(a); // departing thread is permanently quiescent
        let mut worker = smr.register().unwrap();
        smr.begin_op(&mut worker);
        for i in 0..10 {
            retire_one(&smr, &mut worker, i);
        }
        for _ in 0..4 {
            smr.quiescent(&mut worker);
        }
        assert_eq!(smr.stats().retired_now, 0);
    }

    #[test]
    fn fresh_threads_are_quiescent() {
        let smr = Qsbr::with_threshold(2, 1);
        let mut worker = smr.register().unwrap();
        let _idle = smr.register().unwrap(); // registered, never operates
        smr.begin_op(&mut worker);
        for i in 0..10 {
            retire_one(&smr, &mut worker, i);
        }
        for _ in 0..4 {
            smr.quiescent(&mut worker);
        }
        assert_eq!(smr.stats().retired_now, 0, "idle threads must not block");
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn works_with_harris_style_usage() {
        // QSBR + a grace-period discipline around a raw shared cell.
        let smr = Qsbr::with_threshold(2, 2);
        let cell = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (smr, cell) = (&smr, &cell);
                s.spawn(move || {
                    let mut ctx = smr.register().unwrap();
                    for i in 0..1_000u64 {
                        smr.begin_op(&mut ctx);
                        let newp = Box::into_raw(Box::new(i)) as usize;
                        // SAFETY(ordering): SeqCst swap = unlink point, making
                        // this thread old's unique retirer.
                        let old = cell.swap(newp, Ordering::SeqCst);
                        if old != 0 {
                            // SAFETY: old came out of the winning swap.
                            unsafe {
                                smr.retire(&mut ctx, old as *mut u8, std::ptr::null(), free_u64)
                            };
                        }
                        // Quiescent point: we hold no references now.
                        smr.quiescent(&mut ctx);
                    }
                });
            }
        });
        let last = cell.load(Ordering::SeqCst);
        // SAFETY: workers joined; last is exclusively ours.
        unsafe { drop(Box::from_raw(last as *mut u64)) };
        let mut ctx = smr.register().unwrap();
        for _ in 0..4 {
            smr.quiescent(&mut ctx);
            smr.flush(&mut ctx); // adopts departed threads' garbage
        }
        assert_eq!(smr.stats().retired_now, 0);
    }
}
