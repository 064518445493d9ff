//! Interval-based reclamation (IBR) — Wen et al. \[45\], the 2GE
//! (two-global-epoch, tagged) variant.
//!
//! Each thread reserves an *interval* of eras `[lower, upper]` instead
//! of one era per pointer: `begin_op` sets both bounds to the current
//! era; every protected load extends `upper` to the current era and
//! validates. A retired node is freed when its `[birth, retire]`
//! lifetime intersects no reserved interval.
//!
//! IBR is easy to integrate (one reservation per thread, no per-pointer
//! bookkeeping) and **weakly robust**: a stalled thread pins every node
//! whose lifetime intersects its reserved interval, which is bounded by
//! the number of nodes live during those eras (linear in
//! `max_active · N`) plus the bounded allocations per era — Definition
//! 5.2 but not 5.1 in adversarial executions. Like HP/HE it cannot
//! traverse retired chains, so no
//! [`SupportsUnlinkedTraversal`](crate::common::SupportsUnlinkedTraversal).

// ERA-CLASS: IBR weakly-robust — interval reservations keep trapped
// memory proportional to the nodes whose lifetimes overlap in-flight
// intervals, however long a reader stalls: linear in live nodes, so
// Def. 5.2 but not 5.1.

use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use era_obs::{Hook, Recorder, SchemeId, ThreadTracer};

use crate::common::{
    CachePadded, DropFn, RegisterError, Retired, SlotRegistry, Smr, SmrHeader, SmrStats, StatCells,
};
use crate::registry::SchemeKind;

/// Interval bound meaning "no reservation".
const NONE: u64 = u64::MAX;

/// One thread's reserved era interval. Both bounds share a padded line:
/// they are always written together by the single owning thread.
#[derive(Debug)]
struct Interval {
    lower: AtomicU64,
    upper: AtomicU64,
}

#[derive(Debug)]
struct IbrInner {
    era: CachePadded<AtomicU64>,
    /// Per-thread interval reservations, one padded line per thread.
    intervals: Box<[CachePadded<Interval>]>,
    registry: SlotRegistry,
    stats: StatCells,
    scan_threshold: usize,
    era_frequency: u64,
}

impl IbrInner {
    /// Frees every retired node whose lifetime meets no reserved
    /// interval. The intersection test applies to adopted orphans
    /// unchanged.
    fn scan(&self, garbage: &mut Vec<Retired>) {
        self.stats.adopt(garbage);
        // SAFETY(ordering) PAIRS(ibr-interval-dekker): the SeqCst fence
        // pairs with the fences in
        // `begin_op`/`load` (publish-validate Dekker): a reader whose
        // reservation this snapshot misses must see, after its own
        // fence, the era advance that made its node retirable, and
        // retries. A torn (lower, upper) pair is benign: `upper = NONE`
        // reads as an unbounded interval (conservative keep), and
        // `lower = NONE` only appears when the owner is outside any
        // operation.
        fence(Ordering::SeqCst);
        let intervals: Vec<(u64, u64)> = self
            .intervals
            .iter()
            .map(|iv| {
                (
                    iv.lower.load(Ordering::SeqCst),
                    iv.upper.load(Ordering::SeqCst),
                )
            })
            .collect();
        // SAFETY: a node whose lifetime meets no reserved interval is one
        // no in-flight operation can reach.
        unsafe {
            self.stats.reclaim_unless(garbage, |g| {
                // Lifetimes/intervals intersect iff birth ≤ hi ∧ lo ≤ retire.
                let blocker = intervals
                    .iter()
                    .position(|&(lo, hi)| lo != NONE && g.birth_era <= hi && lo <= g.retire_era);
                if let Some(i) = blocker {
                    self.stats.blocked(i, 1);
                }
                blocker.is_some()
            })
        };
    }
}

/// Interval-based reclamation (2GE variant).
///
/// # Example
///
/// ```
/// use era_smr::{ibr::Ibr, Smr};
///
/// let smr = Ibr::new(4);
/// let mut ctx = smr.register().unwrap();
/// smr.begin_op(&mut ctx); // reserves [era, era]
/// smr.end_op(&mut ctx);   // clears the reservation
/// ```
#[derive(Debug, Clone)]
pub struct Ibr {
    inner: Arc<IbrInner>,
}

/// Per-thread context for [`Ibr`].
#[derive(Debug)]
#[must_use = "dropping a context releases its slot and orphans its unflushed garbage"]
pub struct IbrCtx {
    inner: Arc<IbrInner>,
    idx: usize,
    tracer: ThreadTracer,
    garbage: Vec<Retired>,
    allocs: u64,
    /// Private mirror of this thread's published upper bound (the
    /// interval is single-writer, so the mirror is exact). Lets `load`
    /// skip the publish + fence when the standing interval already
    /// covers the current era.
    upper_mirror: u64,
}

impl Drop for IbrCtx {
    fn drop(&mut self) {
        // SAFETY(ordering): Release — orders the thread's last accesses
        // before the reservation clear.
        self.inner.intervals[self.idx]
            .lower
            .store(NONE, Ordering::Release);
        self.inner.intervals[self.idx]
            .upper
            .store(NONE, Ordering::Release);
        self.inner.stats.orphan(&mut self.garbage);
        self.inner.registry.release(self.idx);
    }
}

impl Ibr {
    /// Default retired-list length triggering a scan.
    pub const DEFAULT_SCAN_THRESHOLD: usize = 64;
    /// Default allocations per era.
    pub const DEFAULT_ERA_FREQUENCY: u64 = 32;

    /// Creates an IBR instance for up to `max_threads` threads.
    pub fn new(max_threads: usize) -> Self {
        Self::with_params(
            max_threads,
            Self::DEFAULT_SCAN_THRESHOLD,
            Self::DEFAULT_ERA_FREQUENCY,
        )
    }

    /// Creates an IBR instance with custom scan threshold and era
    /// frequency (allocations per era advance).
    pub fn with_params(max_threads: usize, scan_threshold: usize, era_frequency: u64) -> Self {
        let intervals: Vec<CachePadded<Interval>> = (0..max_threads)
            .map(|_| {
                CachePadded::new(Interval {
                    lower: AtomicU64::new(NONE),
                    upper: AtomicU64::new(NONE),
                })
            })
            .collect();
        Ibr {
            inner: Arc::new(IbrInner {
                era: CachePadded::new(AtomicU64::new(1)),
                intervals: intervals.into_boxed_slice(),
                registry: SlotRegistry::new(max_threads),
                stats: StatCells::default(),
                scan_threshold: scan_threshold.max(1),
                era_frequency: era_frequency.max(1),
            }),
        }
    }

    /// Current global era.
    pub fn era(&self) -> u64 {
        self.inner.era.load(Ordering::SeqCst)
    }
}

impl Smr for Ibr {
    type ThreadCtx = IbrCtx;

    fn register(&self) -> Result<IbrCtx, RegisterError> {
        let idx = self.inner.registry.acquire()?;
        // SAFETY(ordering): registration is cold; SeqCst keeps the slot
        // reset visible before any scan considers this thread.
        self.inner.intervals[idx]
            .lower
            .store(NONE, Ordering::SeqCst);
        self.inner.intervals[idx]
            .upper
            .store(NONE, Ordering::SeqCst);
        Ok(IbrCtx {
            inner: Arc::clone(&self.inner),
            idx,
            tracer: self.inner.stats.tracer(idx),
            garbage: Vec::new(),
            allocs: 0,
            upper_mirror: NONE,
        })
    }

    fn kind(&self) -> SchemeKind {
        SchemeKind::Ibr
    }

    fn attach_recorder(&self, recorder: &Recorder) {
        self.inner.stats.attach(recorder, SchemeId::IBR);
    }

    fn begin_op(&self, ctx: &mut IbrCtx) {
        let e = self.inner.era.load(Ordering::SeqCst);
        let iv = &self.inner.intervals[ctx.idx];
        // SAFETY(ordering) PAIRS(ibr-interval-dekker): two Relaxed stores +
        // one SeqCst fence
        // replace the two SeqCst stores (two XCHG on x86) the old code
        // issued. The fence is the StoreLoad barrier of the
        // publish-validate Dekker (pairs with the fence in `scan`): the
        // reservation is globally visible before any of the operation's
        // protected reads.
        iv.lower.store(e, Ordering::Relaxed);
        iv.upper.store(e, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        ctx.upper_mirror = e;
        ctx.tracer.emit(Hook::BeginOp, e, 0);
    }

    fn end_op(&self, ctx: &mut IbrCtx) {
        let iv = &self.inner.intervals[ctx.idx];
        // SAFETY(ordering): Release (plain stores on x86) orders the
        // operation's dereferences before the clear. Clearing `lower`
        // first is deliberate: a scanner that reads the pair torn sees
        // (NONE, old) and skips us — correct, the operation is over.
        iv.lower.store(NONE, Ordering::Release);
        iv.upper.store(NONE, Ordering::Release);
        ctx.upper_mirror = NONE;
        ctx.tracer.emit(Hook::EndOp, 0, 0);
    }

    fn load(&self, ctx: &mut IbrCtx, _slot: usize, src: &AtomicUsize) -> usize {
        let iv = &self.inner.intervals[ctx.idx];
        let mut e = self.inner.era.load(Ordering::SeqCst);
        // Fast path: the standing interval (published with a fence by
        // `begin_op` or an earlier slow-path load; the mirror is exact
        // because the interval is single-writer) already covers the
        // current era — no store, no fence.
        // SAFETY(ordering): the two SeqCst loads cannot reorder: if a
        // node born in era `e + 1` was published before our `src` read,
        // the inserter's era read precedes its publish in the SeqCst
        // order, so the era re-read observes the advance and we fall
        // through to the slow path (our interval does not cover the new
        // node's birth era).
        if ctx.upper_mirror != NONE && ctx.upper_mirror >= e {
            let p = src.load(Ordering::SeqCst);
            if self.inner.era.load(Ordering::SeqCst) == e {
                ctx.tracer.emit(Hook::Load, 0, p as u64);
                return p;
            }
            e = self.inner.era.load(Ordering::SeqCst);
        }
        loop {
            // Extend the reservation to cover era `e` *before* using
            // the pointer, then validate the clock did not move.
            // SAFETY(ordering) PAIRS(ibr-interval-dekker): Release store +
            // SeqCst fence (pairs
            // with the fence in `scan`) replaces the old SeqCst store;
            // the validating loads are SeqCst (plain loads on TSO).
            iv.upper.store(e, Ordering::Release);
            fence(Ordering::SeqCst);
            let p = src.load(Ordering::SeqCst);
            let now = self.inner.era.load(Ordering::SeqCst);
            if now == e {
                ctx.upper_mirror = e;
                ctx.tracer.emit(Hook::Load, 0, p as u64);
                return p;
            }
            e = now;
        }
    }

    fn init_header(&self, ctx: &mut IbrCtx, header: &SmrHeader) {
        let e = self.inner.era.load(Ordering::SeqCst);
        // SAFETY(ordering): SeqCst — the birth stamp and the era bump below
        // pair with readers' SeqCst era reservations and retire's SeqCst
        // retire stamp: IBR's interval overlap test assumes one total order
        // over era movement and stamps.
        header.birth_era.store(e, Ordering::SeqCst);
        ctx.allocs += 1;
        if ctx.allocs.is_multiple_of(self.inner.era_frequency) {
            let new = self.inner.era.fetch_add(1, Ordering::SeqCst) + 1;
            ctx.tracer.emit(Hook::Advance, new, 0);
        }
    }

    /// # Safety
    /// See [`Smr::retire`]: `ptr` must be unlinked, retired at most once,
    /// and `drop_fn` must be valid for it.
    unsafe fn retire(
        &self,
        ctx: &mut IbrCtx,
        ptr: *mut u8,
        header: *const SmrHeader,
        drop_fn: DropFn,
    ) {
        let birth = if header.is_null() {
            0
        } else {
            // SAFETY: caller contract (`# Safety` above) — header outlives retire.
            unsafe { (*header).birth_era.load(Ordering::SeqCst) }
        };
        // SAFETY(ordering): SeqCst retire stamp (plain load on TSO) —
        // must not be satisfied early, or a reader's validated era
        // could fall outside the recorded `[birth, retire]` lifetime.
        let retire_era = self.inner.era.load(Ordering::SeqCst);
        self.inner.stats.retire_into(
            &mut ctx.tracer,
            &mut ctx.garbage,
            ptr,
            birth,
            retire_era,
            drop_fn,
        );
        if ctx.garbage.len() >= self.inner.scan_threshold {
            self.inner.scan(&mut ctx.garbage);
        }
    }

    fn stats(&self) -> SmrStats {
        self.inner
            .stats
            .snapshot(self.inner.era.load(Ordering::SeqCst))
    }

    fn flush(&self, ctx: &mut IbrCtx) {
        self.inner.scan(&mut ctx.garbage);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// # Safety
    /// `p` must be a leaked `Box<(SmrHeader, u64)>` nothing else reaches.
    unsafe fn free_node(p: *mut u8) {
        // SAFETY: contract above.
        unsafe { drop(Box::from_raw(p as *mut (SmrHeader, u64))) }
    }

    fn alloc_node(smr: &Ibr, ctx: &mut IbrCtx, v: u64) -> *mut (SmrHeader, u64) {
        let node = Box::into_raw(Box::new((SmrHeader::new(), v)));
        // SAFETY: node was just leaked and is still exclusively ours.
        smr.init_header(ctx, unsafe { &(*node).0 });
        node
    }

    fn retire_node(smr: &Ibr, ctx: &mut IbrCtx, node: *mut (SmrHeader, u64)) {
        // SAFETY: callers pass a node they just unlinked (or never published);
        // each node is retired exactly once.
        unsafe { smr.retire(ctx, node as *mut u8, &(*node).0, free_node) };
    }

    #[test]
    fn interval_reservation_protects_overlap() {
        let smr = Ibr::with_params(2, 1, 1);
        let mut reader = smr.register().unwrap();
        let mut writer = smr.register().unwrap();

        let node = alloc_node(&smr, &mut writer, 7);
        let shared = AtomicUsize::new(node as usize);

        smr.begin_op(&mut reader);
        let p = smr.load(&mut reader, 0, &shared);
        assert_eq!(p, node as usize);

        // SAFETY(ordering): SeqCst unlink, same order as the scheme's stamps.
        shared.store(0, Ordering::SeqCst);
        retire_node(&smr, &mut writer, node);
        smr.flush(&mut writer);
        assert_eq!(
            smr.stats().retired_now,
            1,
            "lifetime intersects the interval"
        );

        smr.end_op(&mut reader);
        smr.flush(&mut writer);
        assert_eq!(smr.stats().retired_now, 0);
    }

    #[test]
    fn stalled_interval_pins_only_its_cohort() {
        let smr = Ibr::with_params(2, 1, 1);
        let mut stalled = smr.register().unwrap();
        let mut worker = smr.register().unwrap();

        let pinned = alloc_node(&smr, &mut worker, 0);
        let shared = AtomicUsize::new(pinned as usize);
        smr.begin_op(&mut stalled);
        let _ = smr.load(&mut stalled, 0, &shared);
        // stalled never ends its op: interval [E, E'] frozen.

        // SAFETY(ordering): SeqCst unlink, same order as the scheme's stamps.
        shared.store(0, Ordering::SeqCst);
        retire_node(&smr, &mut worker, pinned);
        // Churn nodes born strictly later (era_frequency=1 advances fast).
        for i in 1..=200u64 {
            let n = alloc_node(&smr, &mut worker, i);
            retire_node(&smr, &mut worker, n);
        }
        smr.flush(&mut worker);
        let st = smr.stats();
        assert!(
            st.retired_now <= 3,
            "stalled interval must pin only the old cohort: {st}"
        );
        smr.end_op(&mut stalled);
        smr.flush(&mut worker);
        assert_eq!(smr.stats().retired_now, 0);
    }

    #[test]
    fn growing_cohort_in_one_interval_accumulates() {
        // The weak-robustness witness: nodes born & retired *inside* the
        // stalled interval all stay (bounded by live-in-interval, which
        // is what Definition 5.2 allows).
        let smr = Ibr::with_params(2, 1, u64::MAX); // era never advances via allocs
        let mut stalled = smr.register().unwrap();
        let mut worker = smr.register().unwrap();

        let n0 = alloc_node(&smr, &mut worker, 0);
        let shared = AtomicUsize::new(n0 as usize);
        smr.begin_op(&mut stalled);
        let _ = smr.load(&mut stalled, 0, &shared);

        // SAFETY(ordering): SeqCst unlink, same order as the scheme's stamps.
        shared.store(0, Ordering::SeqCst);
        retire_node(&smr, &mut worker, n0);
        for i in 1..=100u64 {
            let n = alloc_node(&smr, &mut worker, i);
            retire_node(&smr, &mut worker, n);
        }
        smr.flush(&mut worker);
        // Era frozen: every node's lifetime is [E, E] = the interval.
        assert_eq!(smr.stats().retired_now, 101);
        smr.end_op(&mut stalled);
        smr.flush(&mut worker);
        assert_eq!(smr.stats().retired_now, 0);
    }

    #[test]
    fn begin_op_resets_interval() {
        let smr = Ibr::with_params(1, 64, 1);
        let mut ctx = smr.register().unwrap();
        smr.begin_op(&mut ctx);
        let e1 = smr.inner.intervals[0].lower.load(Ordering::SeqCst);
        smr.end_op(&mut ctx);
        assert_eq!(smr.inner.intervals[0].lower.load(Ordering::SeqCst), NONE);
        // Advance the era, begin again: fresh interval.
        let mut tmp = Vec::new();
        for i in 0..8 {
            tmp.push(alloc_node(&smr, &mut ctx, i));
        }
        smr.begin_op(&mut ctx);
        let e2 = smr.inner.intervals[0].lower.load(Ordering::SeqCst);
        assert!(e2 > e1);
        smr.end_op(&mut ctx);
        for n in tmp {
            // SAFETY: nodes were never retired or shared; plain cleanup.
            unsafe { drop(Box::from_raw(n)) };
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn concurrent_stress() {
        let smr = Ibr::new(8);
        let shared = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (smr, shared) = (&smr, &shared);
                s.spawn(move || {
                    let mut ctx = smr.register().unwrap();
                    for i in 0..1_000u64 {
                        smr.begin_op(&mut ctx);
                        let n = alloc_node(smr, &mut ctx, i);
                        // SAFETY(ordering): SeqCst swap = unlink point, making
                        // this thread old's unique retirer.
                        let old = shared.swap(n as usize, Ordering::SeqCst);
                        if old != 0 {
                            let node = old as *mut (SmrHeader, u64);
                            retire_node(smr, &mut ctx, node);
                        }
                        smr.end_op(&mut ctx);
                    }
                    smr.flush(&mut ctx);
                });
            }
            for _ in 0..2 {
                let (smr, shared) = (&smr, &shared);
                s.spawn(move || {
                    let mut ctx = smr.register().unwrap();
                    for _ in 0..1_000 {
                        smr.begin_op(&mut ctx);
                        let p = smr.load(&mut ctx, 0, shared);
                        if p != 0 {
                            // SAFETY: the op's era reservation covers p.
                            let v = unsafe { (*(p as *const (SmrHeader, u64))).1 };
                            assert!(v < 1_000);
                        }
                        smr.end_op(&mut ctx);
                    }
                });
            }
        });
        let last = shared.load(Ordering::SeqCst);
        if last != 0 {
            // SAFETY: workers joined; the final node is exclusively ours.
            unsafe { drop(Box::from_raw(last as *mut (SmrHeader, u64))) };
        }
    }
}
