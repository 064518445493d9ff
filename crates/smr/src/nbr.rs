//! Neutralization-based reclamation (NBR) — Singh, Brown & Mashtizadeh
//! \[39\], **cooperative variant**.
//!
//! Real NBR divides every operation into read-only and write phases
//! (the access-aware discipline of Appendix C), lets read phases run
//! completely unprotected, and publishes HP-style *reservations* only
//! for the handful of pointers the write phase needs. A reclaiming
//! thread *neutralizes* all readers with a POSIX signal: the signal
//! handler longjmps the reader back to the start of its read phase, so
//! after the signal round no reader holds an unreserved pointer, and
//! everything unreserved can be freed.
//!
//! ## Substitution (no OS signals)
//!
//! This crate has no `libc` dependency, so neutralization is
//! **cooperative**: readers poll [`Smr::needs_restart`] at every
//! traversal step; the reclaimer bumps a global round counter and waits
//! until every in-read-phase thread has acknowledged the new round (or
//! is quiescent / inside a reservation-protected write phase). Because a
//! reader acknowledges only at a poll point, every dereference it makes
//! is ordered *before* its acknowledgement and therefore before any
//! free — the same safety argument as the signal version, with the
//! delivery guarantee replaced by polling. The cost: a thread stalled
//! *inside* a read phase delays reclamation until it polls (real NBR
//! tolerates such stalls via the kernel). The reclaimer gives up after a
//! bounded wait, so progress is preserved and the footprint degrades
//! gracefully. DESIGN.md documents this substitution.
//!
//! NBR's ERA profile: **robust + widely applicable, not easy** — the
//! phase hooks (`enter_read_phase`, `needs_restart`, `reserve`,
//! `commit_reservations`) are insertions at arbitrary code locations and
//! restarts are roll-backs, both outlawed by Definition 5.3.

// ERA-CLASS: NBR robust — neutralization restarts stalled readers, so a
// reader cannot pin retired nodes past the next signalled round and the
// trapped set stays bounded (Def. 4.2).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use era_obs::{Hook, Recorder, SchemeId, ThreadTracer};

use crate::common::{
    untagged, CachePadded, DropFn, RegisterError, Retired, SlotRegistry, Smr, SmrHeader, SmrStats,
    StatCells, SupportsUnlinkedTraversal,
};
use crate::registry::SchemeKind;

/// Thread state: not inside any operation.
const QUIESCENT: u64 = u64::MAX;
/// Thread state: inside a write phase, protected by its reservations.
const IN_WRITE: u64 = u64::MAX - 1;

/// Spin budget while waiting for acknowledgements before giving up the
/// current reclamation attempt.
const WAIT_SPINS: usize = 100_000;

#[derive(Debug)]
struct NbrInner {
    round: AtomicU64,
    /// Per-thread acknowledgement: QUIESCENT, IN_WRITE, or the latest
    /// acknowledged round. Cache-padded: each slot is written by exactly
    /// one thread on its hot path, so sharing a line would cause false
    /// sharing between neighbouring thread indices.
    acked: Box<[CachePadded<AtomicU64>]>,
    /// `capacity × k` reservation slots (untagged node addresses),
    /// padded per *thread* group: the k slots of one thread stay close
    /// together (they are written together in the write phase) while
    /// different threads land on different cache lines.
    reservations: Box<[CachePadded<AtomicUsize>]>,
    k: usize,
    registry: SlotRegistry,
    stats: StatCells,
    retire_threshold: usize,
}

impl NbrInner {
    /// Neutralize all readers, wait for acknowledgements, and free every
    /// unreserved retired node of `garbage`. `self_idx` is never waited
    /// on. Returns whether the round completed (false = gave up).
    /// Orphans of dead contexts are adopted first: they obey the same
    /// reservation test as locally retired nodes.
    fn neutralize_and_reclaim(&self, self_idx: usize, garbage: &mut Vec<Retired>) -> bool {
        self.stats.adopt(garbage);
        // SAFETY(ordering) PAIRS(nbr-round-handshake): SeqCst — the round
        // bump must be totally ordered
        // against every reader's SeqCst `acked` store (begin_op/poll below):
        // a reader that acknowledged < new_round can still hold pre-bump
        // pointers, and the wait loop below relies on that total order.
        let new_round = self.round.fetch_add(1, Ordering::SeqCst) + 1;
        for j in 0..self.registry.capacity() {
            if j == self_idx || !self.registry.is_in_use(j) {
                continue;
            }
            let mut spins = 0usize;
            loop {
                let a = self.acked[j].load(Ordering::SeqCst);
                if a == QUIESCENT || a == IN_WRITE || a >= new_round {
                    break;
                }
                spins += 1;
                if spins >= WAIT_SPINS {
                    // Reader stalled mid-read-phase: give up this round.
                    self.stats.blocked(j, garbage.len());
                    return false;
                }
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                }
                std::hint::spin_loop();
            }
        }
        let reserved: std::collections::HashSet<usize> = self
            .reservations
            .iter()
            .map(|r| r.load(Ordering::SeqCst))
            .filter(|&w| w != 0)
            .collect();
        // SAFETY: every in-flight reader either acknowledged a round newer
        // than this retire or published a reservation; unreserved garbage
        // is unreachable from any read phase.
        unsafe {
            self.stats
                .reclaim_unless(garbage, |g| reserved.contains(&(g.ptr as usize)))
        };
        true
    }
}

/// Cooperative neutralization-based reclamation.
///
/// # Example
///
/// The write-phase protocol: reserve, commit, write, clear.
///
/// ```
/// use era_smr::{nbr::Nbr, Smr};
///
/// let smr = Nbr::new(4, 3);
/// let mut ctx = smr.register().unwrap();
/// smr.begin_op(&mut ctx);                 // enters a read phase
/// // …unprotected traversal, polling smr.needs_restart(&mut ctx)…
/// smr.reserve(&mut ctx, 0, 0x1000);       // publish write-set
/// if smr.commit_reservations(&mut ctx) {
///     // …write phase: CASes on reserved nodes…
///     smr.clear_reservations(&mut ctx);
/// } // else: restart the read phase
/// smr.end_op(&mut ctx);
/// ```
#[derive(Debug, Clone)]
pub struct Nbr {
    inner: Arc<NbrInner>,
}

/// Per-thread context for [`Nbr`].
#[derive(Debug)]
#[must_use = "dropping a context releases its slot, voids its reservations and orphans its garbage"]
pub struct NbrCtx {
    inner: Arc<NbrInner>,
    idx: usize,
    tracer: ThreadTracer,
    garbage: Vec<Retired>,
    /// Round observed at the start of the current read phase.
    round: u64,
}

impl Drop for NbrCtx {
    fn drop(&mut self) {
        // SAFETY(ordering): SeqCst — slot teardown pairs with the reclaimer's
        // SeqCst reservation/acked scan in neutralize_and_reclaim: the scan
        // must not observe QUIESCENT while a stale reservation is still
        // visible, or it would free a node this (dying) reader reserved.
        for s in 0..self.inner.k {
            self.inner.reservations[self.idx * self.inner.k + s].store(0, Ordering::SeqCst);
        }
        self.inner.acked[self.idx].store(QUIESCENT, Ordering::SeqCst);
        self.inner.stats.orphan(&mut self.garbage);
        self.inner.registry.release(self.idx);
    }
}

impl Nbr {
    /// Default retired-list length triggering neutralization.
    pub const DEFAULT_RETIRE_THRESHOLD: usize = 64;

    /// Creates an NBR instance: `max_threads` threads, `k` reservation
    /// slots each.
    pub fn new(max_threads: usize, k: usize) -> Self {
        Self::with_threshold(max_threads, k, Self::DEFAULT_RETIRE_THRESHOLD)
    }

    /// Creates an NBR instance with a custom retire threshold.
    pub fn with_threshold(max_threads: usize, k: usize, retire_threshold: usize) -> Self {
        assert!(k >= 1);
        let acked: Vec<CachePadded<AtomicU64>> = (0..max_threads)
            .map(|_| CachePadded::new(AtomicU64::new(QUIESCENT)))
            .collect();
        let reservations: Vec<CachePadded<AtomicUsize>> = (0..max_threads * k)
            .map(|_| CachePadded::new(AtomicUsize::new(0)))
            .collect();
        Nbr {
            inner: Arc::new(NbrInner {
                round: AtomicU64::new(1),
                acked: acked.into_boxed_slice(),
                reservations: reservations.into_boxed_slice(),
                k,
                registry: SlotRegistry::new(max_threads),
                stats: StatCells::default(),
                retire_threshold: retire_threshold.max(1),
            }),
        }
    }

    /// Current neutralization round.
    pub fn round(&self) -> u64 {
        self.inner.round.load(Ordering::SeqCst)
    }
}

impl Smr for Nbr {
    type ThreadCtx = NbrCtx;

    fn register(&self) -> Result<NbrCtx, RegisterError> {
        let idx = self.inner.registry.acquire()?;
        // SAFETY(ordering): SeqCst — slot re-initialization pairs with the
        // reclaimer's SeqCst scan: stale state from a previous owner of this
        // slot must be gone before any op of ours can be observed.
        self.inner.acked[idx].store(QUIESCENT, Ordering::SeqCst);
        for s in 0..self.inner.k {
            self.inner.reservations[idx * self.inner.k + s].store(0, Ordering::SeqCst);
        }
        Ok(NbrCtx {
            inner: Arc::clone(&self.inner),
            idx,
            tracer: self.inner.stats.tracer(idx),
            garbage: Vec::new(),
            round: 0,
        })
    }

    fn kind(&self) -> SchemeKind {
        SchemeKind::Nbr
    }

    fn attach_recorder(&self, recorder: &Recorder) {
        self.inner.stats.attach(recorder, SchemeId::NBR);
    }

    fn begin_op(&self, ctx: &mut NbrCtx) {
        self.enter_read_phase(ctx);
        ctx.tracer.emit(Hook::BeginOp, ctx.round, 0);
    }

    fn end_op(&self, ctx: &mut NbrCtx) {
        self.clear_reservations(ctx);
        // SAFETY(ordering): SeqCst — pairs with the reclaimer's SeqCst acked
        // scan: QUIESCENT must not become visible before the reservation
        // clears above, or reserved nodes could be freed mid-op.
        self.inner.acked[ctx.idx].store(QUIESCENT, Ordering::SeqCst);
        ctx.tracer.emit(Hook::EndOp, 0, 0);
    }

    /// # Safety
    /// See [`Smr::retire`]: `ptr` must be unlinked, retired at most once,
    /// and `drop_fn` must be valid for it.
    unsafe fn retire(
        &self,
        ctx: &mut NbrCtx,
        ptr: *mut u8,
        _header: *const SmrHeader,
        drop_fn: DropFn,
    ) {
        self.inner
            .stats
            .retire_into(&mut ctx.tracer, &mut ctx.garbage, ptr, 0, 0, drop_fn);
        if ctx.garbage.len() >= self.inner.retire_threshold {
            self.inner.neutralize_and_reclaim(ctx.idx, &mut ctx.garbage);
        }
    }

    fn enter_read_phase(&self, ctx: &mut NbrCtx) {
        let r = self.inner.round.load(Ordering::SeqCst);
        ctx.round = r;
        // SAFETY(ordering) PAIRS(nbr-round-handshake): SeqCst — the round
        // acknowledgement pairs with the
        // reclaimer's SeqCst round bump: acking r promises this phase holds no
        // pointer retired before round r.
        self.inner.acked[ctx.idx].store(r, Ordering::SeqCst);
    }

    fn needs_restart(&self, ctx: &mut NbrCtx) -> bool {
        let r = self.inner.round.load(Ordering::SeqCst);
        if r != ctx.round {
            // Acknowledge the neutralization; the caller must drop every
            // pointer collected in this read phase and restart it.
            ctx.round = r;
            // SAFETY(ordering): SeqCst — same acked/round pairing as begin_op:
            // the restart ack is the reader's promise to drop pre-round pointers.
            self.inner.acked[ctx.idx].store(r, Ordering::SeqCst);
            ctx.tracer.emit(Hook::Restart, r, 0);
            true
        } else {
            false
        }
    }

    fn reserve(&self, ctx: &mut NbrCtx, slot: usize, word: usize) {
        assert!(slot < self.inner.k, "reservation slot out of range");
        // SAFETY(ordering): SeqCst — the reservation publish pairs with the
        // reclaimer's SeqCst reservation scan; commit_reservations then
        // validates the round, closing the publish/scan race.
        self.inner.reservations[ctx.idx * self.inner.k + slot]
            .store(untagged(word), Ordering::SeqCst);
        ctx.tracer
            .emit(Hook::Reserve, slot as u64, untagged(word) as u64);
    }

    fn commit_reservations(&self, ctx: &mut NbrCtx) -> bool {
        // Reservations are published; if no neutralization intervened
        // since the read phase began they are guaranteed valid.
        let r = self.inner.round.load(Ordering::SeqCst);
        if r != ctx.round {
            self.clear_reservations(ctx);
            ctx.round = r;
            // SAFETY(ordering): SeqCst — both acked transitions pair with the
            // reclaimer's SeqCst acked scan: the failed branch re-acks the new
            // round, the success branch parks in IN_WRITE so neutralization
            // passes over a committed writer.
            self.inner.acked[ctx.idx].store(r, Ordering::SeqCst);
            false
        } else {
            self.inner.acked[ctx.idx].store(IN_WRITE, Ordering::SeqCst);
            true
        }
    }

    fn clear_reservations(&self, ctx: &mut NbrCtx) {
        // SAFETY(ordering): SeqCst — pairs with the reclaimer's SeqCst
        // reservation scan; a cleared slot must not appear reserved after the
        // owner moved on, and vice versa.
        for s in 0..self.inner.k {
            self.inner.reservations[ctx.idx * self.inner.k + s].store(0, Ordering::SeqCst);
        }
    }

    fn stats(&self) -> SmrStats {
        self.inner
            .stats
            .snapshot(self.inner.round.load(Ordering::SeqCst))
    }

    fn flush(&self, ctx: &mut NbrCtx) {
        self.inner.neutralize_and_reclaim(ctx.idx, &mut ctx.garbage);
    }
}

// SAFETY: read phases may traverse retired chains: a retired node is freed only
// after every concurrent read phase has acknowledged a neutralization
// round that began after the retire, and acknowledging happens only at
// poll points — after the reader's last dereference of the node.
unsafe impl SupportsUnlinkedTraversal for Nbr {}

#[cfg(test)]
mod tests {
    use super::*;

    /// # Safety
    /// `p` must be a leaked `Box<u64>` that nothing else can reach.
    unsafe fn free_u64(p: *mut u8) {
        // SAFETY: contract above.
        unsafe { drop(Box::from_raw(p as *mut u64)) }
    }

    fn retire_one(smr: &Nbr, ctx: &mut NbrCtx, v: u64) -> usize {
        let p = Box::into_raw(Box::new(v)) as usize;
        // SAFETY: p was just leaked, is unlinked and retired exactly once.
        unsafe { smr.retire(ctx, p as *mut u8, std::ptr::null(), free_u64) };
        p
    }

    #[test]
    fn reclaims_when_everyone_cooperates() {
        let smr = Nbr::with_threshold(2, 2, 4);
        let mut ctx = smr.register().unwrap();
        for i in 0..20 {
            let _ = retire_one(&smr, &mut ctx, i);
        }
        smr.flush(&mut ctx);
        let st = smr.stats();
        assert_eq!(st.retired_now, 0, "{st}");
        assert_eq!(st.total_reclaimed, 20);
    }

    #[test]
    fn reservation_protects_node_across_rounds() {
        let smr = Nbr::with_threshold(2, 1, 1);
        let mut writer = smr.register().unwrap();
        let mut other = smr.register().unwrap();

        smr.begin_op(&mut writer);
        let node = Box::into_raw(Box::new(5u64)) as usize;
        smr.reserve(&mut writer, 0, node);
        assert!(smr.commit_reservations(&mut writer));

        // Another thread retires the reserved node and neutralizes.
        // SAFETY: node is a leaked Box retired once; the writer's reservation
        // (the thing under test) keeps the later read valid.
        unsafe { smr.retire(&mut other, node as *mut u8, std::ptr::null(), free_u64) };
        smr.flush(&mut other);
        assert_eq!(smr.stats().retired_now, 1, "reserved node must survive");

        // Writer can still safely read it.
        // SAFETY: the writer's reservation keeps `node` unreclaimed, as
        // the footprint assertion above shows.
        let v = unsafe { *(node as *const u64) };
        assert_eq!(v, 5);

        smr.clear_reservations(&mut writer);
        smr.end_op(&mut writer);
        smr.flush(&mut other);
        assert_eq!(smr.stats().retired_now, 0);
    }

    #[test]
    fn neutralization_forces_reader_restart() {
        let smr = Nbr::with_threshold(2, 1, 1);
        let mut reader = smr.register().unwrap();
        let mut reclaimer = smr.register().unwrap();

        smr.begin_op(&mut reader);
        assert!(!smr.needs_restart(&mut reader));

        // Reclaimer bumps the round (flush with empty garbage still
        // neutralizes — use retire to trigger).
        let _ = retire_one(&smr, &mut reclaimer, 1);
        // Retire threshold 1 ⇒ neutralization ran; it waited for the
        // reader? No: reader has not polled. The reclaimer's spin budget
        // is generous but the test is single-threaded here, so neutralize
        // must NOT deadlock: it gives up after the budget. To keep the
        // test fast, poll from this thread interleaved:
        assert!(smr.needs_restart(&mut reader), "round changed: restart");
        assert!(!smr.needs_restart(&mut reader), "acked: no further restart");
        smr.end_op(&mut reader);
        smr.flush(&mut reclaimer);
        assert_eq!(smr.stats().retired_now, 0);
    }

    #[test]
    fn commit_fails_if_neutralized_mid_phase() {
        let smr = Nbr::with_threshold(2, 1, 1);
        let mut writer = smr.register().unwrap();
        let mut other = smr.register().unwrap();

        smr.begin_op(&mut writer);
        let node = Box::into_raw(Box::new(9u64)) as usize;
        smr.reserve(&mut writer, 0, node);

        // A neutralization intervenes before the commit: the round moves.
        // SAFETY(ordering): SeqCst — test mimics the reclaimer's round bump.
        smr.inner.round.fetch_add(1, Ordering::SeqCst);
        assert!(!smr.commit_reservations(&mut writer), "must restart");

        smr.end_op(&mut writer);
        // SAFETY: node is a leaked Box, unlinked, retired exactly once.
        unsafe { smr.retire(&mut other, node as *mut u8, std::ptr::null(), free_u64) };
        smr.flush(&mut other);
        assert_eq!(smr.stats().retired_now, 0);
    }

    #[test]
    fn quiescent_and_write_phase_threads_do_not_block_reclamation() {
        let smr = Nbr::with_threshold(3, 1, 1);
        let _quiescent = smr.register().unwrap();
        let mut in_write = smr.register().unwrap();
        smr.begin_op(&mut in_write);
        assert!(smr.commit_reservations(&mut in_write)); // IN_WRITE, no reservations

        let mut worker = smr.register().unwrap();
        for i in 0..10 {
            let _ = retire_one(&smr, &mut worker, i);
        }
        smr.flush(&mut worker);
        assert_eq!(smr.stats().retired_now, 0);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn concurrent_readers_and_reclaimers() {
        let smr = Nbr::with_threshold(8, 2, 16);
        let shared = AtomicUsize::new(Box::into_raw(Box::new(0u64)) as usize);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (smr, shared) = (&smr, &shared);
                s.spawn(move || {
                    let mut ctx = smr.register().unwrap();
                    for i in 1..=1_000u64 {
                        smr.begin_op(&mut ctx);
                        let newp = Box::into_raw(Box::new(i)) as usize;
                        // Writer protocol: reserve the old node before
                        // detaching it (write phase).
                        let old = shared.load(Ordering::SeqCst);
                        smr.reserve(&mut ctx, 0, old);
                        if !smr.commit_reservations(&mut ctx) {
                            // Restart: drop the reservation and retry via
                            // a fresh op. (Simplified: skip this round.)
                            // SAFETY: newp is this thread's own unpublished Box.
                            unsafe { drop(Box::from_raw(newp as *mut u64)) };
                            smr.end_op(&mut ctx);
                            continue;
                        }
                        // SAFETY(ordering): SeqCst — test swap; keeps the
                        // publish in the same SC order the scheme assumes.
                        match shared.compare_exchange(old, newp, Ordering::SeqCst, Ordering::SeqCst)
                        {
                            Ok(_) => {
                                smr.clear_reservations(&mut ctx);
                                // SAFETY: the CAS unlinked `old`; this thread is
                                // its unique retirer.
                                unsafe {
                                    smr.retire(&mut ctx, old as *mut u8, std::ptr::null(), free_u64)
                                };
                            }
                            Err(_) => {
                                smr.clear_reservations(&mut ctx);
                                // SAFETY: lost the CAS — newp never published.
                                unsafe { drop(Box::from_raw(newp as *mut u64)) };
                            }
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
                        'phase: loop {
                            if smr.needs_restart(&mut ctx) {
                                continue 'phase;
                            }
                            let p = shared.load(Ordering::SeqCst);
                            // Poll BEFORE dereferencing: if no round
                            // intervened since the read phase began, p is
                            // still protected by the cooperative wait.
                            if smr.needs_restart(&mut ctx) {
                                continue 'phase;
                            }
                            // SAFETY: p is reserved and the commit validated
                            // the round — NBR's read-phase guarantee.
                            let v = unsafe { *(p as *const u64) };
                            assert!(v <= 2_000);
                            break 'phase;
                        }
                        smr.end_op(&mut ctx);
                    }
                });
            }
        });
        let last = shared.load(Ordering::SeqCst);
        // SAFETY: workers joined; the final published Box is exclusively ours.
        unsafe { drop(Box::from_raw(last as *mut u64)) };
    }
}
