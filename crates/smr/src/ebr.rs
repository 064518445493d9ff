//! Epoch-based reclamation (EBR) — Fraser \[16\], Harris \[19\], Brown \[8\].
//!
//! The scheme the paper proves *strongly applicable* (Appendix A) and
//! uses as the canonical easily-integrated scheme (§5.2): the execution
//! is divided into epochs; threads announce the global epoch on
//! `begin_op` and a quiescent state on `end_op`; the epoch advances only
//! when every in-operation thread has announced the current epoch; a
//! node retired in epoch `e` is reclaimed once the global epoch reaches
//! `e + 2`, at which point no thread can still hold a reference.
//!
//! The price is robustness: a single stalled thread pins its announced
//! epoch forever, the epoch never advances, and every subsequently
//! retired node accumulates — the engine of the paper's Theorem 6.1
//! construction (Figure 1).
//!
//! # Hot-path engineering
//!
//! The announce path is amortized DEBRA-style (Brown \[8\]): `end_op`
//! leaves the announcement *standing* while it still matches the global
//! epoch, and `begin_op` takes a fence-free fast path when it finds its
//! own standing announcement current. This is sound because the
//! standing value was published with a `SeqCst` fence the last time the
//! slow path ran and nobody has overwritten it since — back-to-back
//! operations in the same epoch are indistinguishable from one long
//! protected region. The announcement is force-cleared every
//! [`Ebr::CLEAR_EVERY`] operations, on [`Smr::flush`], and on context
//! drop, which bounds how long an idle thread can pin the epoch at
//! `announced + 1`. Announcement slots are cache-line padded: they are
//! the most written shared words in the scheme.

// ERA-CLASS: EBR non-robust — one stalled reader pins its announced
// epoch forever and trapped memory grows without limit (Theorem 6.1).

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use era_obs::{Hook, Recorder, SchemeId, ThreadTracer};

use crate::common::{
    CachePadded, DropFn, RegisterError, Retired, SlotRegistry, Smr, SmrHeader, SmrStats, StatCells,
    SupportsUnlinkedTraversal,
};
use crate::registry::SchemeKind;

/// Announcement value meaning "not inside any operation".
const QUIESCENT: u64 = u64::MAX;

#[derive(Debug)]
struct EbrInner {
    epoch: CachePadded<AtomicU64>,
    /// Per-thread epoch announcements, each on its own cache line: the
    /// single most written-per-op shared word in the scheme, and the
    /// classic false-sharing victim when packed.
    announcements: Box<[CachePadded<AtomicU64>]>,
    registry: SlotRegistry,
    stats: StatCells,
    retire_threshold: usize,
    /// Slot `i` was force-unpinned by [`Smr::neutralize`] and must
    /// restart its protected region before trusting any pointer.
    neutralized: Box<[CachePadded<AtomicBool>]>,
}

impl EbrInner {
    /// Advances the epoch if every registered, in-operation thread has
    /// announced the current value. Returns the (possibly new) epoch.
    fn try_advance(&self) -> u64 {
        // SAFETY(ordering) PAIRS(ebr-epoch-dekker): the SeqCst fence
        // pairs with the fence in
        // `begin_op`'s announce path (Dekker): either this scan sees a
        // concurrent announcement, or that thread's post-fence epoch
        // re-read sees our subsequent advance and re-announces. Loads
        // of epoch/announcements stay SeqCst (free on TSO: plain loads)
        // so they participate in the same single total order as the
        // announce/advance stores the argument is about.
        fence(Ordering::SeqCst);
        let e = self.epoch.load(Ordering::SeqCst);
        for i in 0..self.registry.capacity() {
            if !self.registry.is_in_use(i) {
                continue;
            }
            let a = self.announcements[i].load(Ordering::SeqCst);
            if a != QUIESCENT && a != e {
                // Someone lags: cannot advance. Blame them — this is
                // exactly EBR's non-robustness (a stalled announcement
                // blocks every other thread's reclamation).
                self.stats
                    .blocked(i, self.stats.retired_now.load(Ordering::Relaxed));
                return e;
            }
        }
        // CAS failure means someone else advanced; either way progress.
        // SAFETY(ordering): SeqCst on the epoch bump keeps the advance
        // in the total order the announce-path fences reason about; the
        // advance is amortized (once per threshold batch), so strength
        // here costs nothing on the per-op path.
        if self
            .epoch
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.stats.event(Hook::Advance, e + 1, 0);
        }
        self.epoch.load(Ordering::SeqCst)
    }
}

/// Epoch-based reclamation.
///
/// # Example
///
/// ```
/// use era_smr::{ebr::Ebr, SchemeKind, Smr};
///
/// let smr = Ebr::new(4);
/// let mut ctx = smr.register().unwrap();
/// smr.begin_op(&mut ctx);
/// /* …data-structure operation… */
/// smr.end_op(&mut ctx);
/// assert_eq!(smr.kind(), SchemeKind::Ebr);
/// ```
#[derive(Debug, Clone)]
pub struct Ebr {
    inner: Arc<EbrInner>,
}

/// Per-thread context for [`Ebr`]: the slot index and the three
/// epoch-tagged local retire lists of Appendix A.
#[derive(Debug)]
#[must_use = "dropping a context releases its slot and orphans its unflushed garbage"]
pub struct EbrCtx {
    inner: Arc<EbrInner>,
    idx: usize,
    tracer: ThreadTracer,
    lists: [Vec<Retired>; 3],
    list_epochs: [u64; 3],
    retired_since_scan: usize,
    /// Inside a `begin_op`/`end_op` window right now. Guards the
    /// announcement self-clear in [`Smr::flush`].
    active: bool,
    /// Operations since the standing announcement was last cleared.
    ops_since_clear: u32,
}

impl EbrCtx {
    /// Frees every local list whose epoch is ≤ `epoch - 2`.
    fn collect(&mut self, epoch: u64) {
        for i in 0..3 {
            if self.list_epochs[i] + 2 <= epoch {
                // SAFETY: the epoch advanced two steps past this bucket —
                // every reader that could see its nodes has since announced
                // a newer epoch or gone quiescent.
                unsafe { self.inner.stats.reclaim(self.lists[i].drain(..)) };
            }
        }
    }
}

impl Drop for EbrCtx {
    fn drop(&mut self) {
        // This may run during unwinding (the owning thread panicked
        // mid-operation): the orphan handoff is panic-free and the slot
        // is released unconditionally afterwards.
        for list in &mut self.lists {
            self.inner.stats.orphan(list);
        }
        // SAFETY(ordering): Release orders every access this thread made
        // under its announcement before the quiescent mark becomes
        // visible to an advancing scanner (which reads post-fence).
        self.inner.announcements[self.idx].store(QUIESCENT, Ordering::Release);
        self.inner.registry.release(self.idx);
    }
}

impl Ebr {
    /// Default local-retire-list length that triggers a reclamation
    /// attempt.
    pub const DEFAULT_RETIRE_THRESHOLD: usize = 64;

    /// A standing announcement is force-cleared every this many
    /// operations, bounding how long an idle thread's stale (but
    /// epoch-current at the time) announcement can pin advancement.
    pub const CLEAR_EVERY: u32 = 64;

    /// Creates an EBR instance for up to `max_threads` threads.
    pub fn new(max_threads: usize) -> Self {
        Self::with_threshold(max_threads, Self::DEFAULT_RETIRE_THRESHOLD)
    }

    /// Creates an EBR instance with a custom retire threshold.
    pub fn with_threshold(max_threads: usize, retire_threshold: usize) -> Self {
        let announcements: Vec<CachePadded<AtomicU64>> = (0..max_threads)
            .map(|_| CachePadded::new(AtomicU64::new(QUIESCENT)))
            .collect();
        let neutralized: Vec<CachePadded<AtomicBool>> = (0..max_threads)
            .map(|_| CachePadded::new(AtomicBool::new(false)))
            .collect();
        Ebr {
            inner: Arc::new(EbrInner {
                epoch: CachePadded::new(AtomicU64::new(2)), // start >1 so `e-2` never underflows
                announcements: announcements.into_boxed_slice(),
                registry: SlotRegistry::new(max_threads),
                stats: StatCells::default(),
                retire_threshold: retire_threshold.max(1),
                neutralized: neutralized.into_boxed_slice(),
            }),
        }
    }

    /// The current global epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }
}

impl Smr for Ebr {
    type ThreadCtx = EbrCtx;

    fn register(&self) -> Result<EbrCtx, RegisterError> {
        let idx = self.inner.registry.acquire()?;
        // SAFETY(ordering): registration is cold; SeqCst keeps the slot
        // reset visible before any advance scan can consider this slot.
        self.inner.announcements[idx].store(QUIESCENT, Ordering::SeqCst);
        self.inner.neutralized[idx].store(false, Ordering::SeqCst);
        Ok(EbrCtx {
            inner: Arc::clone(&self.inner),
            idx,
            tracer: self.inner.stats.tracer(idx),
            lists: [Vec::new(), Vec::new(), Vec::new()],
            list_epochs: [0; 3],
            retired_since_scan: 0,
            active: false,
            ops_since_clear: 0,
        })
    }

    fn kind(&self) -> SchemeKind {
        SchemeKind::Ebr
    }

    fn attach_recorder(&self, recorder: &Recorder) {
        self.inner.stats.attach(recorder, SchemeId::EBR);
    }

    fn begin_op(&self, ctx: &mut EbrCtx) {
        ctx.active = true;
        let slot = &self.inner.announcements[ctx.idx];
        // Fast path (DEBRA-style): `end_op` left our announcement
        // standing and the epoch has not moved since. No store, no
        // fence.
        // SAFETY(ordering): the standing value was published with the
        // slow path's SeqCst fence and nobody overwrote it (only this
        // thread and `neutralize` write the slot; a neutralize write
        // fails this equality check and falls through to the slow
        // path). Since protection was never dropped in between,
        // back-to-back operations under the same announcement are one
        // long protected region — no new ordering is required. Both
        // loads are SeqCst so they sit in the same total order as the
        // advance CAS, but SeqCst loads compile to plain loads on TSO.
        let e = self.inner.epoch.load(Ordering::SeqCst);
        if slot.load(Ordering::SeqCst) == e {
            ctx.tracer.emit(Hook::BeginOp, e, 0);
            return;
        }
        // Slow path: (re-)announce; re-read to narrow the window in
        // which we announce a stale value (a stale announcement is safe
        // but blocks advancement).
        loop {
            let e = self.inner.epoch.load(Ordering::SeqCst);
            // SAFETY(ordering) PAIRS(ebr-epoch-dekker): Relaxed store +
            // SeqCst fence replaces
            // the old SeqCst store (XCHG on x86). The fence is the
            // StoreLoad barrier the Dekker argument with
            // `try_advance`'s fence needs: either the scanner sees this
            // announcement, or our post-fence epoch re-read sees the
            // scanner's advance and we retry.
            slot.store(e, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            if self.inner.epoch.load(Ordering::SeqCst) == e {
                ctx.tracer.emit(Hook::BeginOp, e, 0);
                break;
            }
        }
    }

    fn end_op(&self, ctx: &mut EbrCtx) {
        ctx.active = false;
        ctx.ops_since_clear += 1;
        let slot = &self.inner.announcements[ctx.idx];
        // Leave a still-current announcement standing so the next
        // `begin_op` can take the fence-free fast path; clear it when it
        // went stale (so the epoch can keep advancing) or periodically
        // (so an idle thread cannot pin the epoch indefinitely).
        let e = self.inner.epoch.load(Ordering::SeqCst);
        if slot.load(Ordering::SeqCst) != e || ctx.ops_since_clear >= Ebr::CLEAR_EVERY {
            ctx.ops_since_clear = 0;
            // SAFETY(ordering): Release orders every traversal access
            // of the finished operation before the quiescent mark; an
            // advancer's fence + SeqCst announcement load observes
            // either the protection or the completed quiescence, never
            // a torn middle.
            slot.store(QUIESCENT, Ordering::Release);
        }
        ctx.tracer.emit(Hook::EndOp, 0, 0);
    }

    /// # Safety
    /// See [`Smr::retire`]: `ptr` must be unlinked, retired at most once,
    /// and `drop_fn` must be valid for it.
    unsafe fn retire(
        &self,
        ctx: &mut EbrCtx,
        ptr: *mut u8,
        _header: *const SmrHeader,
        drop_fn: DropFn,
    ) {
        // SAFETY(ordering): the retire stamp must be a SeqCst load (a
        // plain load on TSO — no cost). It anchors the chain
        // reader-link-load ≺ unlink-CAS ≺ this-load in the SeqCst total
        // order, which bounds the stamp at ≥ any concurrent reader's
        // announced epoch and makes `stamp + 2` a safe free horizon.
        let e = self.inner.epoch.load(Ordering::SeqCst);
        let slot = (e % 3) as usize;
        if ctx.list_epochs[slot] != e {
            // SAFETY: the list holds epoch e-3 (≤ e-2) garbage, past its
            // two-epoch grace period: free it first.
            unsafe { self.inner.stats.reclaim(ctx.lists[slot].drain(..)) };
            ctx.list_epochs[slot] = e;
        }
        self.inner
            .stats
            .retire_into(&mut ctx.tracer, &mut ctx.lists[slot], ptr, 0, e, drop_fn);
        ctx.retired_since_scan += 1;
        if ctx.retired_since_scan >= self.inner.retire_threshold {
            ctx.retired_since_scan = 0;
            let epoch = self.inner.try_advance();
            ctx.collect(epoch);
        }
    }

    /// Force-unpins slot `slot`: its announcement is overwritten with
    /// `QUIESCENT`, and the epoch is advanced once past it, so a victim
    /// that restarts at once announces the newer epoch rather than the
    /// one its stall left current, and the garbage retired in that
    /// epoch can age out. The victim learns about it on its next
    /// [`Smr::needs_restart`] poll.
    /// # Safety
    /// The caller (watchdog) must ensure the victim thread observes its
    /// neutralized flag before trusting any pointer read in the current
    /// operation — i.e. the structure polls [`Smr::needs_restart`].
    unsafe fn neutralize(&self, slot: usize) -> bool {
        if slot >= self.inner.registry.capacity() || !self.inner.registry.is_in_use(slot) {
            return false;
        }
        // SAFETY(ordering): watchdog path, cold by construction; SeqCst
        // keeps the flag/announcement pair totally ordered against the
        // victim's `needs_restart` RMW and any advance scan.
        self.inner.neutralized[slot].store(true, Ordering::SeqCst);
        self.inner.announcements[slot].store(QUIESCENT, Ordering::SeqCst);
        self.inner.stats.event(Hook::Restart, slot as u64, 0);
        self.inner.try_advance();
        true
    }

    fn needs_restart(&self, ctx: &mut EbrCtx) -> bool {
        // SAFETY(ordering): polled every traversal hop, so the common
        // not-neutralized case must not pay an RMW. A Relaxed miss of a
        // concurrent neutralize only delays the restart by one poll —
        // the victim's protection is already gone the moment the
        // watchdog overwrote its announcement, so detection timing is a
        // liveness matter, not a safety one. The confirming swap stays
        // SeqCst, totally ordered against `neutralize`'s stores.
        if !self.inner.neutralized[ctx.idx].load(Ordering::Relaxed) {
            return false;
        }
        // SAFETY(ordering): SeqCst — pairs with the watchdog's SeqCst flag set
        // in `neutralize`: consuming the flag must be totally ordered against
        // the forced QUIESCENT announcement so a restart is never lost.
        self.inner.neutralized[ctx.idx].swap(false, Ordering::SeqCst)
    }

    fn stats(&self) -> SmrStats {
        self.inner
            .stats
            .snapshot(self.inner.epoch.load(Ordering::SeqCst))
    }

    fn flush(&self, ctx: &mut EbrCtx) {
        // Drop our own standing announcement first (unless we are mid-
        // operation): otherwise the single-threaded flush would block on
        // its own DEBRA-standing value.
        if !ctx.active {
            ctx.ops_since_clear = 0;
            // SAFETY(ordering): Release — un-announcing pairs with the
            // collector's Acquire scan; all our reads of shared nodes happen
            // before the QUIESCENT store becomes visible. (See the fence note
            // in begin_op for why the announce side is stronger.)
            self.inner.announcements[ctx.idx].store(QUIESCENT, Ordering::Release);
        }
        let e = self.inner.try_advance();
        let e = if e == self.inner.epoch.load(Ordering::SeqCst) {
            // A second attempt helps the common single-threaded case:
            // advancing twice makes the previous epoch's garbage eligible.
            self.inner.try_advance()
        } else {
            e
        };
        ctx.collect(e);
        // Adopt orphaned garbage from departed threads: anything retired
        // two or more epochs ago is reclaimable by whoever finds it.
        // SAFETY: eligibility = retired two epochs before the oldest live
        // announcement; no reader can still reach these nodes.
        unsafe { self.inner.stats.reclaim_aged_orphans(e) };
    }
}

// SAFETY: between begin_op and end_op the announced epoch pins every node
// that was reachable since the announcement: nothing retired during the
// operation can be reclaimed before it ends.
unsafe impl crate::common::EpochProtected for Ebr {}

// SAFETY: EBR's epoch discipline makes traversal of retired nodes safe: a
// node is only reclaimed two epochs after retirement, and every traversal
// running in an operation pins its announced epoch.
unsafe impl SupportsUnlinkedTraversal for Ebr {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// # Safety
    /// `p` must be a leaked `Box<u64>` that nothing else can reach.
    unsafe fn free_u64(p: *mut u8) {
        // SAFETY: contract above.
        unsafe { drop(Box::from_raw(p as *mut u64)) }
    }

    fn retire_one(smr: &Ebr, ctx: &mut EbrCtx, v: u64) {
        let p = Box::into_raw(Box::new(v)) as *mut u8;
        // SAFETY: p was just leaked, is unlinked and retired exactly once.
        unsafe { smr.retire(ctx, p, std::ptr::null(), free_u64) };
    }

    #[test]
    fn epoch_advances_when_all_quiescent() {
        let smr = Ebr::new(2);
        let e0 = smr.epoch();
        let mut ctx = smr.register().unwrap();
        smr.begin_op(&mut ctx);
        smr.end_op(&mut ctx);
        smr.flush(&mut ctx);
        assert!(smr.epoch() > e0);
    }

    #[test]
    fn garbage_reclaimed_after_two_epochs() {
        let smr = Ebr::with_threshold(2, 1);
        let mut ctx = smr.register().unwrap();
        smr.begin_op(&mut ctx);
        for i in 0..10 {
            retire_one(&smr, &mut ctx, i);
        }
        smr.end_op(&mut ctx);
        // A few flushes advance the epoch enough to free everything.
        for _ in 0..4 {
            smr.flush(&mut ctx);
        }
        let st = smr.stats();
        assert_eq!(st.retired_now, 0, "{st}");
        assert_eq!(st.total_reclaimed, 10);
    }

    #[test]
    fn stalled_thread_blocks_reclamation() {
        // The non-robustness witness (Definition 5.1 failure).
        let smr = Ebr::with_threshold(2, 1);
        let mut stalled = smr.register().unwrap();
        smr.begin_op(&mut stalled); // announces the epoch and never ends
        let e_before = smr.epoch();

        let mut worker = smr.register().unwrap();
        for i in 0..100 {
            smr.begin_op(&mut worker);
            retire_one(&smr, &mut worker, i);
            smr.end_op(&mut worker);
        }
        for _ in 0..4 {
            smr.flush(&mut worker);
        }
        // The epoch can advance at most once past the stalled thread's
        // announcement (it announced the then-current epoch), then pins.
        assert!(
            smr.epoch() <= e_before + 1,
            "stalled announcement must pin the epoch: {} vs {}",
            smr.epoch(),
            e_before
        );
        let st = smr.stats();
        assert_eq!(st.total_reclaimed, 0, "{st}");
        assert_eq!(st.retired_now, 100);

        // Un-stall: everything drains.
        smr.end_op(&mut stalled);
        for _ in 0..6 {
            smr.flush(&mut worker);
        }
        assert_eq!(smr.stats().retired_now, 0);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn concurrent_churn_reclaims_most_garbage() {
        let smr = Ebr::with_threshold(8, 8);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let smr = &smr;
                s.spawn(move || {
                    let mut ctx = smr.register().unwrap();
                    for i in 0..1_000u64 {
                        smr.begin_op(&mut ctx);
                        retire_one(smr, &mut ctx, i);
                        smr.end_op(&mut ctx);
                    }
                    for _ in 0..8 {
                        smr.flush(&mut ctx);
                    }
                });
            }
        });
        let st = smr.stats();
        assert_eq!(st.total_retired, 4_000);
        assert!(
            st.total_reclaimed >= 3_000,
            "most garbage should be reclaimed under churn: {st}"
        );
    }

    #[test]
    fn neutralize_unpins_stalled_thread() {
        // Same setup as `stalled_thread_blocks_reclamation`, but the
        // watchdog path: neutralizing the stalled slot lets the epoch
        // advance and the backlog drain without the victim cooperating
        // first. The victim observes exactly one restart request.
        let smr = Ebr::with_threshold(2, 1);
        let mut stalled = smr.register().unwrap();
        smr.begin_op(&mut stalled);

        let mut worker = smr.register().unwrap();
        for i in 0..100 {
            smr.begin_op(&mut worker);
            retire_one(&smr, &mut worker, i);
            smr.end_op(&mut worker);
        }
        for _ in 0..4 {
            smr.flush(&mut worker);
        }
        assert_eq!(smr.stats().total_reclaimed, 0, "stall must hold garbage");

        // SAFETY: the test's own loop polls needs_restart before reusing
        // pointers (neutralize contract).
        assert!(unsafe { smr.neutralize(0) }, "slot 0 is registered");
        for _ in 0..6 {
            smr.flush(&mut worker);
        }
        assert_eq!(smr.stats().retired_now, 0, "{}", smr.stats());

        assert!(smr.needs_restart(&mut stalled), "victim must see restart");
        assert!(!smr.needs_restart(&mut stalled), "restart reported once");

        // Unregistered slots cannot be neutralized.
        // SAFETY: both calls must return false — nothing to restart.
        assert!(!unsafe { smr.neutralize(5) });
        drop(stalled);
        // SAFETY: slot 0 is released now; there is nothing to restart.
        assert!(!unsafe { smr.neutralize(0) });
    }

    #[test]
    fn a_neutralized_reader_that_restarts_at_once_holds_nothing_back() {
        // The reader is pinned, and the worker's retires pile up one
        // epoch past its announcement. The reader is neutralized, and
        // restarts before the worker takes another step, so it
        // announces the epoch its stall left current. Once `neutralize`
        // has returned, that earlier announcement must no longer hold
        // the pile back while the worker churns on.
        let smr = Ebr::with_threshold(2, 1);
        let mut reader = smr.register().unwrap();
        smr.begin_op(&mut reader);
        let mut worker = smr.register().unwrap();
        let churn = |worker: &mut EbrCtx, from: u64| {
            for i in from..from + 100 {
                smr.begin_op(worker);
                retire_one(&smr, worker, i);
                smr.end_op(worker);
            }
        };
        churn(&mut worker, 0);
        let pinned = smr.stats().retired_now;
        assert!(pinned >= 99, "the stall holds the pile: {}", smr.stats());

        // SAFETY: the reader polls needs_restart and restarts before
        // it reads anything (neutralize contract).
        assert!(unsafe { smr.neutralize(0) }, "slot 0 is registered");
        assert!(smr.needs_restart(&mut reader), "victim must see restart");
        smr.begin_op(&mut reader);
        churn(&mut worker, 100);
        let st = smr.stats();
        assert!(
            st.total_reclaimed >= pinned as u64,
            "the pile outlived the neutralization: {st}"
        );
        smr.end_op(&mut reader);
    }

    #[test]
    fn drop_frees_leftovers() {
        static FREED: AtomicUsize = AtomicUsize::new(0);
        /// # Safety
        /// `p` must be a leaked `Box<u64>` nothing else reaches.
        unsafe fn counting(p: *mut u8) {
            // SAFETY(ordering): SeqCst — test counter, strongest for clarity.
            FREED.fetch_add(1, Ordering::SeqCst);
            // SAFETY: contract above.
            unsafe { drop(Box::from_raw(p as *mut u64)) }
        }
        // SAFETY(ordering): SeqCst — test counter reset before use.
        FREED.store(0, Ordering::SeqCst);
        let smr = Ebr::new(2);
        let mut ctx = smr.register().unwrap();
        smr.begin_op(&mut ctx);
        let p = Box::into_raw(Box::new(1u64)) as *mut u8;
        // SAFETY: p was just leaked, unlinked, retired exactly once.
        unsafe { smr.retire(&mut ctx, p, std::ptr::null(), counting) };
        smr.end_op(&mut ctx);
        drop(ctx);
        drop(smr);
        assert_eq!(FREED.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stale_announcement_blocks_but_never_breaks() {
        // Two threads ping-pong; epoch keeps advancing.
        let smr = Ebr::with_threshold(2, 1);
        let mut a = smr.register().unwrap();
        let mut b = smr.register().unwrap();
        let start = smr.epoch();
        for i in 0..50 {
            smr.begin_op(&mut a);
            smr.begin_op(&mut b);
            retire_one(&smr, &mut a, i);
            smr.end_op(&mut a);
            smr.end_op(&mut b);
            smr.flush(&mut a);
        }
        assert!(smr.epoch() > start);
        assert!(smr.stats().total_reclaimed > 0);
    }
}
