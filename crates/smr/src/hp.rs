//! Hazard pointers (HP) — Michael \[32\].
//!
//! Each thread owns `k` single-writer *hazard* slots. A protected load
//! publishes the target address in a slot and re-reads the source word;
//! if it changed, the protection may have raced a concurrent unlink and
//! the load retries. Retired nodes pile up in a small per-thread list;
//! when it exceeds a threshold the thread *scans* all hazard slots and
//! frees exactly the retired nodes no slot names.
//!
//! HP is the canonical **easy + robust** scheme: the retired population
//! is bounded by `threshold + capacity·k` regardless of stalls, but the
//! protect-validate discipline cannot follow a chain of *marked,
//! unlinked* nodes (a validated source pointer does not imply the
//! referenced node is reachable), so HP is **not applicable to Harris's
//! linked list** (Appendix E) — accordingly, `Hp` does *not* implement
//! [`SupportsUnlinkedTraversal`](crate::common::SupportsUnlinkedTraversal).

// ERA-CLASS: HP robust — per-slot hazards cap trapped memory at
// R + T·k no matter how long any reader stalls (Def. 4.2).

use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::Arc;

use era_obs::{Hook, Recorder, SchemeId, ThreadTracer};

use crate::common::{
    untagged, CachePadded, DropFn, RegisterError, Retired, SlotRegistry, Smr, SmrHeader, SmrStats,
    StatCells,
};
use crate::registry::SchemeKind;

#[derive(Debug)]
struct HpInner {
    /// `capacity × k` hazard slots; 0 = empty. Each slot is line-padded:
    /// a slot is written on every protected load by its single owner and
    /// read by every scanner — adjacent packed slots would false-share.
    hazards: Box<[CachePadded<AtomicUsize>]>,
    k: usize,
    registry: SlotRegistry,
    stats: StatCells,
    scan_threshold: usize,
}

impl HpInner {
    /// Snapshot of the published hazards as a sorted `(address, owner)`
    /// list. Sorting once turns the per-retired-node membership test
    /// into a binary search: a scan costs `O((R + T·k)·log(T·k))`
    /// instead of the hash-map build + per-node probes it replaces.
    fn hazard_snapshot(&self) -> Vec<(usize, usize)> {
        // SAFETY(ordering) PAIRS(hp-hazard-dekker): the SeqCst fence
        // pairs with the fence in
        // `load` (protect-validate Dekker): the caller's unlinks are
        // ordered before this scan's hazard reads, so for any retired
        // node either its reader's validation already failed (it will
        // retry and re-publish) or the hazard is visible to this scan.
        // The slot loads are performed in ascending index order — the
        // `protect_alias` transfer argument relies on it (the source
        // slot's overwrite is a Release store sequenced after the
        // higher-indexed destination's store, so a scanner that sees
        // the source overwritten synchronizes-with it and must see the
        // destination).
        fence(Ordering::SeqCst);
        let mut snap = Vec::with_capacity(self.hazards.len());
        for (i, h) in self.hazards.iter().enumerate() {
            let v = h.load(Ordering::SeqCst);
            if v != 0 {
                snap.push((v, i / self.k));
            }
        }
        snap.sort_unstable();
        snap
    }

    /// Frees every retired node not named by a hazard slot, orphans of
    /// dead contexts included.
    fn scan(&self, garbage: &mut Vec<Retired>) {
        self.stats.adopt(garbage);
        let hazards = self.hazard_snapshot();
        // SAFETY: a node no hazard slot holds is unreachable — after the
        // SeqCst scan, no reader can reach it (Michael's HP invariant).
        unsafe {
            self.stats.reclaim_unless(garbage, |g| {
                let held = hazards.binary_search_by(|&(a, _)| a.cmp(&(g.ptr as usize)));
                if let Ok(i) = held {
                    // Reclamation of this node is blocked by the owner's
                    // published hazard — HP's robustness means the blame
                    // list is also the bound on what survives.
                    self.stats.blocked(hazards[i].1, 1);
                }
                held.is_ok()
            })
        };
    }
}

/// Hazard-pointer reclamation.
///
/// # Example
///
/// ```
/// use era_smr::{hp::Hp, Smr};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let smr = Hp::new(4, 3); // 4 threads × 3 hazard slots
/// let mut ctx = smr.register().unwrap();
/// let node = Box::into_raw(Box::new(5u64)) as usize;
/// let shared = AtomicUsize::new(node);
/// smr.begin_op(&mut ctx);
/// let p = smr.load(&mut ctx, 0, &shared); // protected
/// assert_eq!(p, node);
/// smr.end_op(&mut ctx);
/// # unsafe { drop(Box::from_raw(node as *mut u64)) };
/// ```
#[derive(Debug, Clone)]
pub struct Hp {
    inner: Arc<HpInner>,
}

/// Per-thread context for [`Hp`].
#[derive(Debug)]
#[must_use = "dropping a context releases its slot and orphans its unflushed garbage"]
pub struct HpCtx {
    inner: Arc<HpInner>,
    idx: usize,
    tracer: ThreadTracer,
    garbage: Vec<Retired>,
}

impl Drop for HpCtx {
    fn drop(&mut self) {
        for s in 0..self.inner.k {
            // SAFETY(ordering): Release — same argument as `end_op`.
            self.inner.hazards[self.idx * self.inner.k + s].store(0, Ordering::Release);
        }
        self.inner.stats.orphan(&mut self.garbage);
        self.inner.registry.release(self.idx);
    }
}

impl Hp {
    /// Default retired-list length triggering a scan.
    pub const DEFAULT_SCAN_THRESHOLD: usize = 64;

    /// Creates an HP instance: `max_threads` threads, `k` hazard slots
    /// each.
    pub fn new(max_threads: usize, k: usize) -> Self {
        Self::with_threshold(max_threads, k, Self::DEFAULT_SCAN_THRESHOLD)
    }

    /// Creates an HP instance with a custom scan threshold.
    pub fn with_threshold(max_threads: usize, k: usize, scan_threshold: usize) -> Self {
        assert!(k >= 1, "at least one hazard slot per thread");
        let hazards: Vec<CachePadded<AtomicUsize>> = (0..max_threads * k)
            .map(|_| CachePadded::new(AtomicUsize::new(0)))
            .collect();
        Hp {
            inner: Arc::new(HpInner {
                hazards: hazards.into_boxed_slice(),
                k,
                registry: SlotRegistry::new(max_threads),
                stats: StatCells::default(),
                scan_threshold: scan_threshold.max(1),
            }),
        }
    }

    /// The worst-case retired-population bound: `threshold` per thread
    /// plus one node per hazard slot.
    pub fn robustness_bound(&self) -> usize {
        self.inner.scan_threshold * self.inner.registry.capacity() + self.inner.hazards.len()
    }
}

impl Smr for Hp {
    type ThreadCtx = HpCtx;

    fn register(&self) -> Result<HpCtx, RegisterError> {
        let idx = self.inner.registry.acquire()?;
        for s in 0..self.inner.k {
            // SAFETY(ordering): registration is cold; SeqCst keeps the
            // slot reset visible before any scan considers this thread.
            self.inner.hazards[idx * self.inner.k + s].store(0, Ordering::SeqCst);
        }
        Ok(HpCtx {
            inner: Arc::clone(&self.inner),
            idx,
            tracer: self.inner.stats.tracer(idx),
            garbage: Vec::new(),
        })
    }

    fn kind(&self) -> SchemeKind {
        SchemeKind::Hp
    }

    fn attach_recorder(&self, recorder: &Recorder) {
        self.inner.stats.attach(recorder, SchemeId::HP);
    }

    fn begin_op(&self, ctx: &mut HpCtx) {
        ctx.tracer.emit(Hook::BeginOp, 0, 0);
    }

    fn end_op(&self, ctx: &mut HpCtx) {
        for s in 0..self.inner.k {
            // SAFETY(ordering): Release (a plain store on x86, vs the
            // XCHG the old SeqCst store compiled to) orders every
            // dereference the operation made before the clear becomes
            // visible; a scanner's fence + slot load then observes
            // either the standing protection or the completed op.
            self.inner.hazards[ctx.idx * self.inner.k + s].store(0, Ordering::Release);
        }
        ctx.tracer.emit(Hook::EndOp, 0, 0);
    }

    fn load(&self, ctx: &mut HpCtx, slot: usize, src: &AtomicUsize) -> usize {
        assert!(slot < self.inner.k, "hazard slot out of range");
        let cell = &self.inner.hazards[ctx.idx * self.inner.k + slot];
        let mut cur = src.load(Ordering::SeqCst);
        loop {
            // SAFETY(ordering) PAIRS(hp-hazard-dekker): Release store +
            // SeqCst fence, the StoreLoad barrier of the protect-validate
            // Dekker (pairs with the fence in `hazard_snapshot`): the
            // publish is globally visible before the validating re-read,
            // so a scan either sees the hazard or the re-read sees the
            // unlink it raced and we retry. Release (not Relaxed) also
            // keeps this store ordered after any earlier `protect_alias`
            // transfer out of this slot — scanners rely on that ordering.
            cell.store(untagged(cur), Ordering::Release);
            fence(Ordering::SeqCst);
            // SAFETY(ordering): SeqCst validating load (plain load on
            // TSO) — also anchors readers in the SeqCst total order the
            // retire-side reasoning uses.
            let again = src.load(Ordering::SeqCst);
            if again == cur {
                ctx.tracer.emit(Hook::Load, slot as u64, cur as u64);
                return cur;
            }
            cur = again;
        }
    }

    /// HP transfers protection between a thread's own slots without a
    /// validate cycle: the destination inherits the *established*
    /// protection of the source, so no fence and no re-read are needed.
    /// See [`Smr::protect_alias`] for the contract (in particular
    /// `dst_slot > src_slot`, which the ascending-index scan order in
    /// `HpInner::hazard_snapshot` turns into a visibility guarantee).
    fn protect_alias(&self, ctx: &mut HpCtx, dst_slot: usize, src_slot: usize, word: usize) {
        assert!(dst_slot < self.inner.k, "hazard slot out of range");
        debug_assert!(
            dst_slot > src_slot,
            "alias transfer must target a higher-indexed slot"
        );
        // SAFETY(ordering): Release store, no fence. Protection is
        // continuous: the source slot keeps naming `word` until its
        // next (Release) publish, which is sequenced after this store —
        // an ascending-order scanner that finds the source overwritten
        // synchronizes-with that overwrite and therefore sees `word`
        // already parked in the higher-indexed destination.
        self.inner.hazards[ctx.idx * self.inner.k + dst_slot]
            .store(untagged(word), Ordering::Release);
        ctx.tracer.emit(Hook::Load, dst_slot as u64, word as u64);
    }

    /// # Safety
    /// See [`Smr::retire`]: `ptr` must be unlinked, retired at most once,
    /// and `drop_fn` must be valid for it.
    unsafe fn retire(
        &self,
        ctx: &mut HpCtx,
        ptr: *mut u8,
        _header: *const SmrHeader,
        drop_fn: DropFn,
    ) {
        self.inner
            .stats
            .retire_into(&mut ctx.tracer, &mut ctx.garbage, ptr, 0, 0, drop_fn);
        if ctx.garbage.len() >= self.inner.scan_threshold {
            self.inner.scan(&mut ctx.garbage);
        }
    }

    fn stats(&self) -> SmrStats {
        self.inner.stats.snapshot(0)
    }

    fn flush(&self, ctx: &mut HpCtx) {
        self.inner.scan(&mut ctx.garbage);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Barrier;

    /// # Safety
    /// `p` must be a leaked `Box<u64>` that nothing else can reach.
    unsafe fn free_u64(p: *mut u8) {
        // SAFETY: contract above.
        unsafe { drop(Box::from_raw(p as *mut u64)) }
    }

    fn new_node(v: u64) -> usize {
        Box::into_raw(Box::new(v)) as usize
    }

    #[test]
    fn protected_node_survives_scan() {
        let smr = Hp::with_threshold(2, 2, 1);
        let mut reader = smr.register().unwrap();
        let mut writer = smr.register().unwrap();

        let node = new_node(42);
        let shared = AtomicUsize::new(node);

        smr.begin_op(&mut reader);
        let p = smr.load(&mut reader, 0, &shared);
        assert_eq!(p, node);

        // Writer unlinks and retires; scans cannot free it (protected).
        // SAFETY(ordering): SeqCst unlink — same order the scheme's scan uses.
        shared.store(0, Ordering::SeqCst);
        // SAFETY: the store unlinked node; this is its unique retire.
        unsafe { smr.retire(&mut writer, node as *mut u8, std::ptr::null(), free_u64) };
        smr.flush(&mut writer);
        assert_eq!(smr.stats().retired_now, 1, "still protected");

        // Reader drops protection: now it goes.
        smr.end_op(&mut reader);
        smr.flush(&mut writer);
        assert_eq!(smr.stats().retired_now, 0);
        assert_eq!(smr.stats().total_reclaimed, 1);
    }

    #[test]
    fn bounded_footprint_under_stall() {
        // A stalled reader protects at most k nodes; everything else is
        // reclaimed — HP's robustness (contrast with EBR's test).
        let smr = Hp::with_threshold(2, 3, 4);
        let mut stalled = smr.register().unwrap();
        let shared = AtomicUsize::new(new_node(0));
        smr.begin_op(&mut stalled);
        let pinned = smr.load(&mut stalled, 0, &shared);
        // stalled never calls end_op

        let mut worker = smr.register().unwrap();
        // Unlink the pinned node and retire it.
        // SAFETY(ordering): SeqCst unlink; churn nodes below are unpublished,
        // each leaked Box retired exactly once.
        shared.store(0, Ordering::SeqCst);
        // SAFETY: `pinned` is unlinked above; a leaked Box retired once.
        unsafe { smr.retire(&mut worker, pinned as *mut u8, std::ptr::null(), free_u64) };
        // Churn 1000 more nodes through.
        for i in 1..=1000u64 {
            let n = new_node(i);
            // SAFETY: `n` was never published; a leaked Box retired once.
            unsafe { smr.retire(&mut worker, n as *mut u8, std::ptr::null(), free_u64) };
        }
        smr.flush(&mut worker);
        let st = smr.stats();
        assert!(
            st.retired_now <= smr.robustness_bound(),
            "retired {} exceeds bound {}",
            st.retired_now,
            smr.robustness_bound()
        );
        assert_eq!(st.retired_now, 1, "only the pinned node survives");
        smr.end_op(&mut stalled);
        smr.flush(&mut worker);
        assert_eq!(smr.stats().retired_now, 0);
    }

    #[test]
    fn a_scan_reclaims_its_batch_as_one_run_of_ticks() {
        const N: usize = 48;
        let recorder = Recorder::new(2);
        let smr = Hp::with_threshold(2, 1, N);
        smr.attach_recorder(&recorder);
        let mut reader = smr.register().unwrap();
        let mut writer = smr.register().unwrap();
        // One node stays protected, so the scan also keeps (and blames).
        let pinned = new_node(0);
        let shared = AtomicUsize::new(pinned);
        assert_eq!(smr.load(&mut reader, 0, &shared), pinned);
        // SAFETY(ordering): SeqCst unlink, as the scheme's scans expect.
        shared.store(0, Ordering::SeqCst);
        // SAFETY: pinned is now unlinked, every other node never was
        // linked; each is a leaked Box<u64> retired exactly once. The
        // N-th retire reaches the threshold and scans.
        unsafe { smr.retire(&mut writer, pinned as *mut u8, std::ptr::null(), free_u64) };
        for v in 1..N as u64 {
            // SAFETY: never published; a leaked Box retired once.
            unsafe {
                smr.retire(
                    &mut writer,
                    new_node(v) as *mut u8,
                    std::ptr::null(),
                    free_u64,
                )
            };
        }
        let st = smr.stats();
        assert_eq!(
            (st.total_retired, st.total_reclaimed),
            (N as u64, N as u64 - 1)
        );

        let log = recorder.drain();
        assert_eq!(log.trimmed, 0);
        let retired_at = |addr: u64| {
            log.events
                .iter()
                .position(|e| e.hook == Hook::Retire as u8 && e.a == addr)
                .expect("every reclaimed node was retired")
        };
        let reclaims: Vec<(usize, &era_obs::Event)> = log
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.hook == Hook::Reclaim as u8)
            .collect();
        assert_eq!(reclaims.len(), N - 1, "one Reclaim per freed node");
        for (k, &(at, e)) in reclaims.iter().enumerate() {
            assert!(
                retired_at(e.a) < at,
                "Reclaim of {:#x} before its Retire",
                e.a
            );
            assert_ne!(e.a, pinned as u64, "the protected node is not freed");
            assert_eq!(e.ts, reclaims[0].1.ts + k as u64, "one run of ticks");
        }
        let histogram = recorder.metrics().reclaim_latency.snapshot();
        assert_eq!(histogram.total(), N as u64 - 1);
        assert_eq!(log.with_hook(Hook::Blocked).count(), 1);

        smr.end_op(&mut reader);
        smr.flush(&mut writer);
        assert_eq!(smr.stats().total_reclaimed, N as u64);
    }

    #[test]
    fn load_retries_on_concurrent_change() {
        // Single-threaded simulation of the validation path: the loop in
        // load() re-reads until stable, so a load from a stable word
        // returns it unchanged even with a tag.
        let smr = Hp::new(1, 1);
        let mut ctx = smr.register().unwrap();
        let node = new_node(1);
        let tagged = node | 1;
        let shared = AtomicUsize::new(tagged);
        let p = smr.load(&mut ctx, 0, &shared);
        assert_eq!(p, tagged, "tag preserved");
        // The hazard slot holds the *untagged* address.
        assert_eq!(
            smr.inner.hazards[0].load(Ordering::SeqCst),
            node,
            "hazard must strip tags"
        );
        // SAFETY: node was never retired; test owns it exclusively.
        unsafe { drop(Box::from_raw(node as *mut u64)) };
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn concurrent_stress_no_double_free() {
        // 4 threads hammer one shared slot: replace the node, retire the
        // old one, while readers keep protected loads on it.
        let smr = Hp::with_threshold(8, 1, 8);
        let shared = AtomicUsize::new(new_node(0));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let smr = &smr;
                let shared = &shared;
                s.spawn(move || {
                    let mut ctx = smr.register().unwrap();
                    for i in 0..2_000u64 {
                        smr.begin_op(&mut ctx);
                        // SAFETY(ordering): SeqCst swap = unlink point, making
                        // this thread old's unique retirer.
                        let old = shared.swap(new_node(i), Ordering::SeqCst);
                        // SAFETY: old came out of the winning swap.
                        unsafe { smr.retire(&mut ctx, old as *mut u8, std::ptr::null(), free_u64) };
                        smr.end_op(&mut ctx);
                    }
                    smr.flush(&mut ctx);
                });
            }
            for _ in 0..2 {
                let smr = &smr;
                let shared = &shared;
                s.spawn(move || {
                    let mut ctx = smr.register().unwrap();
                    for _ in 0..2_000 {
                        smr.begin_op(&mut ctx);
                        let p = smr.load(&mut ctx, 0, shared);
                        // Dereference under protection: must not crash.
                        // SAFETY: smr.load validated the hazard for p.
                        let v = unsafe { *(p as *const u64) };
                        assert!(v < 2_000);
                        smr.end_op(&mut ctx);
                    }
                });
            }
        });
        // Free the final node.
        let last = shared.load(Ordering::SeqCst);
        // SAFETY: workers joined; last is exclusively ours.
        unsafe { drop(Box::from_raw(last as *mut u64)) };
        let st = smr.stats();
        assert_eq!(st.total_retired, 4_000);
    }

    #[test]
    fn published_hazard_is_never_scanned_past() {
        // Publish/scan litmus for `load`'s publish-fence-validate. Nodes are
        // cells of a test-owned arena and "freeing" one poisons its
        // payload, so a scan that misses a validated hazard shows up as
        // a poison read here, not as a use-after-free. The writer scans
        // on every retire and recycles poisoned cells in ring order.
        // With the fence taken out of `load` (a bare Release store)
        // this host reads poison about once per 3·10^7 reads — 4 of 5
        // runs at 10^8 (EXPERIMENTS E18) — hence the release size.
        const POISON: u64 = u64::MAX;
        const READS: usize = if cfg!(miri) {
            300
        } else if cfg!(debug_assertions) {
            1_000_000
        } else {
            10_000_000
        };

        /// # Safety
        /// `p` must point at a live `AtomicU64`.
        unsafe fn poison(p: *mut u8) {
            // SAFETY: contract above — the arena outlives the scheme.
            // SAFETY(ordering): every arena access is SeqCst, so a poison
            // read is the scheme's miss, never this test's own reordering.
            unsafe { (*(p as *const AtomicU64)).store(POISON, Ordering::SeqCst) }
        }

        let arena: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(POISON)).collect();
        let addr = |i: usize| &arena[i] as *const AtomicU64 as usize;
        arena[0].store(0, Ordering::SeqCst);
        let shared = AtomicUsize::new(addr(0));
        let done = AtomicBool::new(false);
        let start = Barrier::new(2);
        let smr = Hp::with_threshold(2, 1, 1);

        let (poisoned, swaps) = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let mut ctx = smr.register().unwrap();
                let (mut next, mut swaps) = (1usize, 0u64);
                start.wait();
                while !done.load(Ordering::Relaxed) {
                    // One cell is linked and at most one is held back by
                    // the reader's hazard, so a poisoned cell is near.
                    while arena[next].load(Ordering::SeqCst) != POISON {
                        next = (next + 1) % arena.len();
                    }
                    swaps += 1;
                    // SAFETY(ordering): SeqCst, as `poison`; initialised
                    // before the swap below publishes the cell.
                    arena[next].store(swaps, Ordering::SeqCst);
                    smr.begin_op(&mut ctx);
                    // SAFETY(ordering): SeqCst swap = unlink point, making
                    // this thread old's unique retirer.
                    let old = shared.swap(addr(next), Ordering::SeqCst);
                    // SAFETY: old came out of the swap; `poison` fits it.
                    unsafe { smr.retire(&mut ctx, old as *mut u8, std::ptr::null(), poison) };
                    smr.end_op(&mut ctx);
                }
                swaps
            });
            let mut ctx = smr.register().unwrap();
            start.wait();
            // No panic in here: the writer spins until `done` is set.
            let poisoned = (0..READS).find(|_| {
                smr.begin_op(&mut ctx);
                let p = smr.load(&mut ctx, 0, &shared);
                // SAFETY: p is an arena cell; the arena outlives this scope.
                let seen = unsafe { (*(p as *const AtomicU64)).load(Ordering::SeqCst) };
                smr.end_op(&mut ctx);
                seen == POISON
            });
            // SAFETY(ordering): a stop flag; publishes nothing.
            done.store(true, Ordering::Relaxed);
            (poisoned, writer.join().expect("writer"))
        });
        assert_eq!(poisoned, None, "a scan reclaimed a validated hazard");
        let mut ctx = smr.register().unwrap();
        smr.flush(&mut ctx); // adopts what the writer's context left
        let st = smr.stats();
        assert_eq!(st.total_retired, swaps);
        assert_eq!(st.total_reclaimed, swaps, "nothing is protected any more");
        let live = arena.iter().filter(|c| c.load(Ordering::SeqCst) != POISON);
        assert_eq!(live.count(), 1, "exactly the linked cell survives");
    }

    #[test]
    fn registration_reuses_slots_and_clears_hazards() {
        let smr = Hp::new(1, 2);
        let mut c1 = smr.register().unwrap();
        let node = new_node(9);
        let shared = AtomicUsize::new(node);
        let _ = smr.load(&mut c1, 1, &shared);
        drop(c1); // must clear hazards
        let c2 = smr.register().unwrap();
        assert_eq!(smr.inner.hazards[1].load(Ordering::SeqCst), 0);
        drop(c2);
        // SAFETY: node was never retired; test owns it exclusively.
        unsafe { drop(Box::from_raw(node as *mut u64)) };
    }

    #[test]
    #[should_panic(expected = "hazard slot out of range")]
    fn out_of_range_slot_panics() {
        let smr = Hp::new(1, 1);
        let mut ctx = smr.register().unwrap();
        let shared = AtomicUsize::new(0);
        let _ = smr.load(&mut ctx, 1, &shared);
    }
}
