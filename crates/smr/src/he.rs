//! Hazard eras (HE) — Ramalhete & Correia [36].
//!
//! HE replaces HP's per-pointer addresses with per-pointer *eras*: a
//! global era clock advances as nodes are allocated and retired; every
//! node records its birth era; retirement records its retire era. A
//! protected load publishes the current era in a reservation slot and
//! validates the clock did not move. A retired node may be freed only
//! when no reservation era `e` falls inside its `[birth, retire]`
//! lifetime.
//!
//! Like HP, HE is easy to integrate and robust (bounded footprint), and
//! like HP it is **not** applicable to Harris's list: a validated era
//! does not protect nodes whose lifetime ended before the era was
//! published — exactly the Figure 2 scenario — so `He` does not
//! implement [`SupportsUnlinkedTraversal`](crate::common::SupportsUnlinkedTraversal).

// ERA-CLASS: HE robust — era reservations bound what a stalled reader
// can trap to the nodes live in its reserved eras (Def. 4.2).

use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use era_obs::{Hook, Recorder, SchemeId, ThreadTracer};

use crate::common::{
    CachePadded, DropFn, RegisterError, Retired, SlotRegistry, Smr, SmrHeader, SmrStats, StatCells,
};
use crate::registry::SchemeKind;

/// Reservation slot value meaning "nothing reserved".
const NONE: u64 = u64::MAX;

#[derive(Debug)]
struct HeInner {
    era: CachePadded<AtomicU64>,
    /// `capacity × k` era reservations, each line-padded: written on
    /// every slow-path protected load by their single owner and read by
    /// every scanner.
    reservations: Box<[CachePadded<AtomicU64>]>,
    k: usize,
    registry: SlotRegistry,
    stats: StatCells,
    scan_threshold: usize,
    /// Advance the era every this many allocations (and retirements).
    era_frequency: u64,
}

impl HeInner {
    /// Snapshot of the published reservations as a sorted
    /// `(era, owner)` list. Sorting once turns the per-retired-node
    /// lifetime-overlap test into a binary search (`partition_point`),
    /// `O((R + T·k)·log(T·k))` per scan instead of a linear probe per
    /// node.
    fn reservation_snapshot(&self) -> Vec<(u64, usize)> {
        // SAFETY(ordering) PAIRS(he-era-dekker): the SeqCst fence
        // pairs with the fence in
        // `load`'s publish path (protect-validate Dekker): either a
        // reader's era reservation is visible to this scan, or the
        // reader's post-fence era validation observes the advance that
        // made its target node retirable and retries. Slot loads are in
        // ascending index order — `protect_alias` relies on it (its
        // destination slot store is sequenced before the source slot's
        // next Release publish).
        fence(Ordering::SeqCst);
        let mut snap = Vec::with_capacity(self.reservations.len());
        for (i, r) in self.reservations.iter().enumerate() {
            let e = r.load(Ordering::SeqCst);
            if e != NONE {
                snap.push((e, i / self.k));
            }
        }
        snap.sort_unstable();
        snap
    }

    /// Frees every retired node no reservation era covers. The
    /// era-overlap test applies to adopted orphans unchanged.
    fn scan(&self, garbage: &mut Vec<Retired>) {
        self.stats.adopt(garbage);
        let snapshot = self.reservation_snapshot();
        // SAFETY: a node no hazard era covers ([birth, retire]) is one no
        // reader can still hold a protected reference to.
        unsafe {
            self.stats.reclaim_unless(garbage, |g| {
                // Smallest reserved era ≥ birth; the node is pinned iff it
                // also falls at or before the retire era.
                let i = snapshot.partition_point(|&(e, _)| e < g.birth_era);
                let held = i < snapshot.len() && snapshot[i].0 <= g.retire_era;
                if held {
                    self.stats.blocked(snapshot[i].1, 1);
                }
                held
            })
        };
    }
}

/// Hazard-era reclamation.
///
/// # Example
///
/// ```
/// use era_smr::{he::He, Smr, SmrHeader};
/// use std::sync::atomic::AtomicUsize;
///
/// let smr = He::new(4, 3);
/// let mut ctx = smr.register().unwrap();
/// let header = SmrHeader::new();
/// smr.init_header(&mut ctx, &header); // stamps the birth era
/// assert!(header.birth_era.load(std::sync::atomic::Ordering::SeqCst) >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct He {
    inner: Arc<HeInner>,
}

/// Per-thread context for [`He`].
#[derive(Debug)]
#[must_use = "dropping a context releases its slot and orphans its unflushed garbage"]
pub struct HeCtx {
    inner: Arc<HeInner>,
    idx: usize,
    tracer: ThreadTracer,
    garbage: Vec<Retired>,
    allocs: u64,
    retires: u64,
    /// Private mirror of this thread's published reservation eras
    /// (single-writer slots, so the mirror is always exact). Lets the
    /// `load` fast path skip the publish + fence when the standing
    /// reservation already covers the current era.
    slot_eras: Vec<u64>,
}

impl Drop for HeCtx {
    fn drop(&mut self) {
        for s in 0..self.inner.k {
            // SAFETY(ordering): Release — orders the thread's last
            // dereferences before the reservations clear.
            self.inner.reservations[self.idx * self.inner.k + s].store(NONE, Ordering::Release);
        }
        self.inner.stats.orphan(&mut self.garbage);
        self.inner.registry.release(self.idx);
    }
}

impl He {
    /// Default retired-list length triggering a scan.
    pub const DEFAULT_SCAN_THRESHOLD: usize = 64;
    /// Default era advance frequency (allocations per era).
    pub const DEFAULT_ERA_FREQUENCY: u64 = 32;

    /// Creates an HE instance: `max_threads` threads, `k` reservation
    /// slots each.
    pub fn new(max_threads: usize, k: usize) -> Self {
        Self::with_params(
            max_threads,
            k,
            Self::DEFAULT_SCAN_THRESHOLD,
            Self::DEFAULT_ERA_FREQUENCY,
        )
    }

    /// Creates an HE instance with custom scan threshold and era
    /// frequency.
    pub fn with_params(
        max_threads: usize,
        k: usize,
        scan_threshold: usize,
        era_frequency: u64,
    ) -> Self {
        assert!(k >= 1);
        let reservations: Vec<CachePadded<AtomicU64>> = (0..max_threads * k)
            .map(|_| CachePadded::new(AtomicU64::new(NONE)))
            .collect();
        He {
            inner: Arc::new(HeInner {
                era: CachePadded::new(AtomicU64::new(1)),
                reservations: reservations.into_boxed_slice(),
                k,
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

impl Smr for He {
    type ThreadCtx = HeCtx;

    fn register(&self) -> Result<HeCtx, RegisterError> {
        let idx = self.inner.registry.acquire()?;
        for s in 0..self.inner.k {
            // SAFETY(ordering): registration is cold; SeqCst keeps the
            // slot reset visible before any scan considers this thread.
            self.inner.reservations[idx * self.inner.k + s].store(NONE, Ordering::SeqCst);
        }
        Ok(HeCtx {
            inner: Arc::clone(&self.inner),
            idx,
            tracer: self.inner.stats.tracer(idx),
            garbage: Vec::new(),
            allocs: 0,
            retires: 0,
            slot_eras: vec![NONE; self.inner.k],
        })
    }

    fn kind(&self) -> SchemeKind {
        SchemeKind::He
    }

    fn attach_recorder(&self, recorder: &Recorder) {
        self.inner.stats.attach(recorder, SchemeId::HE);
    }

    fn begin_op(&self, ctx: &mut HeCtx) {
        // HE reserves nothing until its first load; the hook is only
        // counted, so it carries no era.
        ctx.tracer.emit(Hook::BeginOp, 0, 0);
    }

    fn end_op(&self, ctx: &mut HeCtx) {
        for s in 0..self.inner.k {
            // SAFETY(ordering): Release (plain store on x86, vs the old
            // SeqCst XCHG) orders the operation's dereferences before
            // the reservation clear becomes visible to a scanner.
            self.inner.reservations[ctx.idx * self.inner.k + s].store(NONE, Ordering::Release);
            ctx.slot_eras[s] = NONE;
        }
        ctx.tracer.emit(Hook::EndOp, 0, 0);
    }

    fn load(&self, ctx: &mut HeCtx, slot: usize, src: &AtomicUsize) -> usize {
        assert!(slot < self.inner.k, "reservation slot out of range");
        let cell = &self.inner.reservations[ctx.idx * self.inner.k + slot];
        let mut era = self.inner.era.load(Ordering::SeqCst);
        // Fast path: our standing reservation (published with a fence by
        // an earlier slow-path load, never cleared since — the mirror is
        // exact because the slot is single-writer) already covers the
        // current era: no store, no fence.
        // SAFETY(ordering): both validation loads are SeqCst (plain
        // loads on TSO), so they cannot reorder: if a node born in era
        // `era + 1` was published before our `src` read, the inserter's
        // era read precedes its publish in the SeqCst order, so our
        // second era load observes the advance and we fall through to
        // the slow path instead of trusting a reservation that does not
        // cover the new node's lifetime.
        if ctx.slot_eras[slot] == era {
            let p = src.load(Ordering::SeqCst);
            if self.inner.era.load(Ordering::SeqCst) == era {
                ctx.tracer.emit(Hook::Load, slot as u64, p as u64);
                return p;
            }
            era = self.inner.era.load(Ordering::SeqCst);
        }
        loop {
            // SAFETY(ordering) PAIRS(he-era-dekker): Release store +
            // SeqCst fence replaces
            // the old SeqCst store: the fence makes the reservation
            // globally visible before the validating reads (pairs with
            // the fence in `reservation_snapshot`); Release keeps the
            // store ordered after any earlier `protect_alias` transfer
            // out of this slot.
            cell.store(era, Ordering::Release);
            fence(Ordering::SeqCst);
            let p = src.load(Ordering::SeqCst);
            let now = self.inner.era.load(Ordering::SeqCst);
            if now == era {
                ctx.slot_eras[slot] = era;
                ctx.tracer.emit(Hook::Load, slot as u64, p as u64);
                return p;
            }
            era = now;
        }
    }

    /// HE aliases protection by copying the *source slot's reservation
    /// era* (which already covers the target node's lifetime up to now)
    /// into the destination slot — often a no-op when both slots already
    /// reserve the same era, and never a fence.
    fn protect_alias(&self, ctx: &mut HeCtx, dst_slot: usize, src_slot: usize, word: usize) {
        assert!(dst_slot < self.inner.k, "reservation slot out of range");
        debug_assert!(
            dst_slot > src_slot,
            "alias transfer must target a higher-indexed slot"
        );
        let era = ctx.slot_eras[src_slot];
        if ctx.slot_eras[dst_slot] == era {
            return;
        }
        ctx.slot_eras[dst_slot] = era;
        // SAFETY(ordering): Release store, no fence — the source slot
        // keeps the era reserved until its next Release publish, which
        // is sequenced after this store; an ascending-order scanner that
        // observes the source re-published synchronizes-with it and
        // sees this destination reservation.
        self.inner.reservations[ctx.idx * self.inner.k + dst_slot].store(era, Ordering::Release);
        ctx.tracer.emit(Hook::Load, dst_slot as u64, word as u64);
    }

    fn init_header(&self, ctx: &mut HeCtx, header: &SmrHeader) {
        // SAFETY(ordering): SeqCst loads/RMWs here are off the
        // traversal hot path (one per allocation, advance once per
        // `era_frequency`); keeping them SeqCst anchors birth stamps in
        // the same total order the load validation reasons about.
        let e = self.inner.era.load(Ordering::SeqCst);
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
        ctx: &mut HeCtx,
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
        // it must not be satisfied early: a reader whose validated era
        // equals the true retire era must have its era covered by the
        // recorded `[birth, retire]` interval.
        let retire_era = self.inner.era.load(Ordering::SeqCst);
        let held = self
            .inner
            .stats
            .retire_into(&mut ctx.garbage, ptr, birth, retire_era, drop_fn);
        ctx.tracer.emit(Hook::Retire, ptr as u64, held as u64);
        ctx.retires += 1;
        if ctx.retires.is_multiple_of(self.inner.era_frequency) {
            // SAFETY(ordering): SeqCst — the era bump pairs with the SeqCst
            // birth/retire-era stamps and readers' era publications: HE's
            // interval math needs one total order over era movement.
            let new = self.inner.era.fetch_add(1, Ordering::SeqCst) + 1;
            ctx.tracer.emit(Hook::Advance, new, 0);
        }
        if ctx.garbage.len() >= self.inner.scan_threshold {
            self.inner.scan(&mut ctx.garbage);
        }
    }

    fn stats(&self) -> SmrStats {
        self.inner
            .stats
            .snapshot(self.inner.era.load(Ordering::SeqCst))
    }

    fn flush(&self, ctx: &mut HeCtx) {
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

    fn alloc_node(smr: &He, ctx: &mut HeCtx, v: u64) -> *mut (SmrHeader, u64) {
        let node = Box::into_raw(Box::new((SmrHeader::new(), v)));
        // SAFETY: node was just leaked and is still exclusively ours.
        smr.init_header(ctx, unsafe { &(*node).0 });
        node
    }

    #[test]
    fn era_advances_with_allocations() {
        let smr = He::with_params(1, 1, 64, 4);
        let mut ctx = smr.register().unwrap();
        let e0 = smr.era();
        let mut nodes = Vec::new();
        for i in 0..16 {
            nodes.push(alloc_node(&smr, &mut ctx, i));
        }
        assert!(smr.era() >= e0 + 4);
        for n in nodes {
            // SAFETY: nodes were never retired or shared; plain cleanup.
            unsafe { drop(Box::from_raw(n)) };
        }
    }

    #[test]
    fn reservation_protects_lifetime_overlap() {
        let smr = He::with_params(2, 1, 1, 1);
        let mut reader = smr.register().unwrap();
        let mut writer = smr.register().unwrap();

        let node = alloc_node(&smr, &mut writer, 7);
        let shared = AtomicUsize::new(node as usize);

        // Reader protects: publishes the current era.
        smr.begin_op(&mut reader);
        let p = smr.load(&mut reader, 0, &shared);
        assert_eq!(p, node as usize);

        // Writer unlinks + retires; node's lifetime covers the
        // reader's published era, so it must survive scans.
        // SAFETY(ordering): SeqCst unlink, matching the scheme's era order.
        shared.store(0, Ordering::SeqCst);
        // SAFETY: the store above unlinked node; retired exactly once.
        unsafe {
            smr.retire(&mut writer, node as *mut u8, &(*node).0, free_node);
        }
        smr.flush(&mut writer);
        assert_eq!(smr.stats().retired_now, 1);

        smr.end_op(&mut reader);
        smr.flush(&mut writer);
        assert_eq!(smr.stats().retired_now, 0);
    }

    #[test]
    fn nodes_born_after_reservation_are_reclaimable() {
        // The robustness property: a stalled reader pins only the
        // lifetimes overlapping its published era.
        let smr = He::with_params(2, 1, 1, 1);
        let mut stalled = smr.register().unwrap();
        let mut worker = smr.register().unwrap();

        let first = alloc_node(&smr, &mut worker, 0);
        let shared = AtomicUsize::new(first as usize);
        smr.begin_op(&mut stalled);
        let _ = smr.load(&mut stalled, 0, &shared); // publishes era E

        // Retire the first node (its lifetime covers E: pinned)…
        // SAFETY(ordering): SeqCst unlink, then a unique retire; churn nodes
        // below are unpublished and theirs alone.
        shared.store(0, Ordering::SeqCst);
        unsafe { smr.retire(&mut worker, first as *mut u8, &(*first).0, free_node) };
        // …then churn 100 nodes born strictly after E.
        for i in 1..=100u64 {
            let n = alloc_node(&smr, &mut worker, i);
            unsafe { smr.retire(&mut worker, n as *mut u8, &(*n).0, free_node) };
        }
        smr.flush(&mut worker);
        let st = smr.stats();
        assert_eq!(st.retired_now, 1, "only the era-E node is pinned: {st}");
        smr.end_op(&mut stalled);
        smr.flush(&mut worker);
        assert_eq!(smr.stats().retired_now, 0);
    }

    #[test]
    fn null_header_defaults_to_birth_zero() {
        let smr = He::with_params(1, 1, 1, 1);
        let mut ctx = smr.register().unwrap();
        let p = Box::into_raw(Box::new(1u64)) as *mut u8;
        /// # Safety
        /// `p` must be a leaked `Box<u64>` nothing else reaches.
        unsafe fn free_u64(p: *mut u8) {
            // SAFETY: contract above.
            unsafe { drop(Box::from_raw(p as *mut u64)) }
        }
        // SAFETY: p was just leaked; headerless retire is the case under test.
        unsafe { smr.retire(&mut ctx, p, std::ptr::null(), free_u64) };
        smr.flush(&mut ctx);
        assert_eq!(smr.stats().retired_now, 0);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn concurrent_stress() {
        let smr = He::new(8, 2);
        let shared = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (smr, shared) = (&smr, &shared);
                s.spawn(move || {
                    let mut ctx = smr.register().unwrap();
                    for i in 0..1_000u64 {
                        smr.begin_op(&mut ctx);
                        let n = alloc_node(smr, &mut ctx, i);
                        // SAFETY(ordering): SeqCst swap is the unlink point and
                        // makes this thread old's unique retirer.
                        let old = shared.swap(n as usize, Ordering::SeqCst);
                        if old != 0 {
                            // SAFETY: we own `old` via the winning swap; the op
                            // is pinned so the header read is covered.
                            let hdr = unsafe { &(*(old as *mut (SmrHeader, u64))).0 };
                            unsafe { smr.retire(&mut ctx, old as *mut u8, hdr, free_node) };
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
                            // SAFETY: smr.load published our hazard era for p.
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
