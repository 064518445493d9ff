//! The common surface of pointer-based reclamation schemes.
//!
//! [`Smr`]'s methods map one-to-one onto the insertion points allowed by
//! Definition 5.3 (easy integration) plus the extra hooks that the
//! *non-easy* schemes (NBR) require:
//!
//! | Method | Def. 5.3 call site |
//! |---|---|
//! | [`Smr::begin_op`] / [`Smr::end_op`] | operation boundaries |
//! | [`Smr::load`] | primitive (read) replacement |
//! | [`Smr::init_header`] | alloc replacement |
//! | [`Smr::retire`] | retire replacement |
//! | [`Smr::enter_read_phase`], [`Smr::needs_restart`], [`Smr::reserve`], [`Smr::commit_reservations`] | **arbitrary** code locations — using them is what makes an integration non-easy |
//!
//! A per-scheme *fact* is not a method: name, trace id, robustness class
//! and whether `load` is publish-and-validate are columns of the
//! [`registry`](crate::registry), reached through [`Smr::kind`]. And what
//! every scheme needs but none differs in lives here once, in the
//! crate-private `StatCells`: the footprint counters, the trace hook, the
//! retire record, and the custody of a departed context's garbage (the
//! orphan pool, its two adoption shapes, and the free when the scheme
//! drops).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::vec::Drain;

use era_obs::{Hook, Recorder, SchemeId, ThreadTracer};

use crate::registry::SchemeKind;

/// Locks `m`, recovering the guard if a previous holder panicked.
///
/// The mutexes this guards (orphan queues, service tracers) protect
/// plain `Vec` / tracer state that is consistent between calls, so a
/// poisoned lock carries no torn invariant worth propagating. More
/// importantly, the scheme `Drop` paths run during *unwinding* when the
/// owning thread panicked mid-operation — an `unwrap()` there would
/// double-panic and abort, and would leak the context's registry slot.
pub(crate) fn lock_unpoisoned<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Non-blocking variant of [`lock_unpoisoned`]: `None` only when the
/// lock is genuinely held by another thread right now. Used on scan
/// paths that opportunistically adopt orphaned garbage — if a peer is
/// already adopting, skipping this round costs nothing.
fn try_lock_unpoisoned<T: ?Sized>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(g) => Some(g),
        Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(std::sync::TryLockError::WouldBlock) => None,
    }
}

/// Pads and aligns `T` to 128 bytes so that per-thread slots land on
/// their own cache line(s) — the cure for false sharing on announcement
/// arrays, hazard slots, and shared counters, where one thread's store
/// would otherwise invalidate the line every *other* thread spins on.
///
/// 128 (not 64) covers the adjacent-line prefetcher on modern x86,
/// which pulls cache lines in pairs; the cost is memory, which is
/// negligible at per-thread-slot scale.
///
/// `Deref`/`DerefMut` make the wrapper transparent at use sites:
/// `padded_slot.load(…)` resolves through to the inner atomic.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache line(s).
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwraps the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

/// Reclamation-scheme-owned header embedded in every node.
///
/// Condition 5 of Definition 5.3 allows a scheme to *add* fields to the
/// node layout. This is that field: data structures embed one
/// `SmrHeader` per node and hand it to [`Smr::init_header`] right after
/// allocation and to [`Smr::retire`] on retirement. Epoch-free schemes
/// (EBR, HP, leak) ignore it; HE/IBR store the node's birth era in it.
#[derive(Debug, Default)]
#[repr(C)]
pub struct SmrHeader {
    /// Era/epoch at allocation (HE/IBR); unused otherwise.
    pub birth_era: AtomicU64,
}

impl SmrHeader {
    /// A fresh header (birth era 0).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Destructor for a retired node: must free exactly the allocation that
/// produced the pointer.
///
/// # Safety
/// Called at most once per retired pointer, only after the scheme has
/// proven no thread can still reach it.
pub type DropFn = unsafe fn(*mut u8);

/// A node awaiting reclamation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Retired {
    pub ptr: *mut u8,
    pub birth_era: u64,
    pub retire_era: u64,
    pub drop_fn: DropFn,
    /// Logical trace time of the retire call ([`StatCells::stamp`]);
    /// 0 when no recorder is attached. Basis of the retire→reclaim
    /// latency: the node's `Reclaim` tick minus this, where a batch of
    /// `n` reclaims takes `n` consecutive ticks ([`StatCells::reclaim`]).
    /// The trace clock is advanced by the ticking protocol events only
    /// (reclaim, advance, … — not `begin_op`, `load`, `end_op` or
    /// `retire`), so the latency counts those, the batch's earlier
    /// reclaims included.
    pub retire_tick: u64,
}

// SAFETY: retired nodes are plain data (ptr + metadata); the schemes
// guarantee exclusive access to the pointee by the eventual reclaimer.
unsafe impl Send for Retired {}

impl Retired {
    /// # Safety
    ///
    /// Caller promises `ptr` is exclusively owned garbage.
    pub unsafe fn free(self) {
        // SAFETY: `drop_fn` frees exactly the allocation behind `ptr` (the
        // retire contract), and the caller owns that garbage exclusively.
        unsafe { (self.drop_fn)(self.ptr) }
    }
}

/// Trace attachment of one scheme instance: the shared recorder plus a
/// *service* tracer (thread slot `u16::MAX`) for events produced on
/// scheme-internal paths that have no thread context at hand
/// (epoch-advance, blame, batched reclaim).
#[derive(Debug)]
struct TraceState {
    recorder: Recorder,
    scheme: SchemeId,
    service: Mutex<ThreadTracer>,
}

/// Shared footprint counters every scheme maintains — and, since they
/// sit on every retire/reclaim path already, the single choke point
/// where trace instrumentation hooks in. With no recorder attached
/// (the default) every trace branch is one `OnceLock` load that sees
/// `None`.
/// Invariant: `total_retired ≡ retired_now + total_reclaimed` (every
/// retire increments `retired_now`; every reclaim moves one unit from
/// `retired_now` to `total_reclaimed`), so the total is *derived* in
/// [`StatCells::snapshot`] rather than paid for with a third atomic RMW
/// on the retire hot path. The counters are cache-padded: they are the
/// only cross-thread-shared words on the retire/reclaim paths.
///
/// What a retire writes that other threads read: only the
/// `retired_now` increment (the peaks are a load each, an RMW only
/// while they climb); traced, its stamp and its `Retire` event read
/// the clock. Everything else is per batch: [`StatCells::reclaim`]
/// takes the service lock once, the clock once, and tallies once,
/// however many nodes it frees.
///
/// It also keeps the custody every scheme shares: the one orphan pool
/// that a dying context hands its garbage to ([`StatCells::orphan`]),
/// that survivors take from ([`StatCells::adopt`],
/// [`StatCells::reclaim_aged_orphans`]), and that is freed when the
/// scheme drops.
#[derive(Debug, Default)]
pub(crate) struct StatCells {
    pub retired_now: CachePadded<AtomicUsize>,
    pub retired_peak: CachePadded<AtomicUsize>,
    pub total_reclaimed: CachePadded<AtomicU64>,
    /// Garbage of departed contexts, awaiting a survivor or the drop.
    pub orphans: Mutex<Vec<Retired>>,
    trace: OnceLock<TraceState>,
}

impl StatCells {
    /// Attaches a trace recorder (first caller wins; later calls are
    /// ignored). Threads registered *after* this point get live
    /// tracers.
    pub fn attach(&self, recorder: &Recorder, scheme: SchemeId) {
        let _ = self.trace.set(TraceState {
            recorder: recorder.clone(),
            scheme,
            service: Mutex::new(recorder.tracer(u16::MAX, scheme)),
        });
    }

    /// A tracer for thread slot `thread` (disabled when no recorder is
    /// attached). Cold path: call at registration.
    pub fn tracer(&self, thread: usize) -> ThreadTracer {
        match self.trace.get() {
            Some(t) => t.recorder.tracer(thread as u16, t.scheme),
            None => ThreadTracer::disabled(),
        }
    }

    /// Current logical trace time for stamping retires (0 unattached —
    /// the attached clock never issues 0). A read of the clock, in
    /// ticks of the ticking protocol events; it does not advance it.
    #[inline]
    pub fn stamp(&self) -> u64 {
        match self.trace.get() {
            Some(t) => t.recorder.now(),
            None => 0,
        }
    }

    /// Emits a scheme-internal event through the service tracer.
    pub fn event(&self, hook: Hook, a: u64, b: u64) {
        if let Some(t) = self.trace.get() {
            lock_unpoisoned(&t.service).emit(hook, a, b);
        }
    }

    /// Records that reclamation is blocked on thread slot `blamed`
    /// (stalled-thread attribution), with `held` nodes waiting.
    pub fn blocked(&self, blamed: usize, held: usize) {
        if let Some(t) = self.trace.get() {
            t.recorder.metrics().blame(blamed);
            lock_unpoisoned(&t.service).emit(Hook::Blocked, blamed as u64, held as u64);
        }
    }

    /// Records that a live thread adopted `n` orphaned nodes from a
    /// dead context (population unchanged — the nodes were already
    /// retired; only their custody moved).
    pub fn adopted(&self, n: usize) {
        if n > 0 {
            if let Some(t) = self.trace.get() {
                let now = self.retired_now.load(Ordering::Relaxed);
                lock_unpoisoned(&t.service).emit(Hook::Adopt, n as u64, now as u64);
            }
        }
    }

    /// Counts a retire; returns the new retired population (handy as
    /// an event payload).
    pub fn on_retire(&self) -> usize {
        // SAFETY(ordering): Relaxed — monotonic telemetry counters; nothing
        // synchronizes through them and snapshots tolerate slight skew.
        let now = self.retired_now.fetch_add(1, Ordering::Relaxed) + 1;
        // Conditional peak update: in steady state (population cycling
        // below a past high-water mark) this is one relaxed load, not an
        // RMW. `fetch_max` settles races when the peak is moving.
        if now > self.retired_peak.load(Ordering::Relaxed) {
            // SAFETY(ordering): Relaxed — fetch_max settles racing peaks; the
            // peak is telemetry, not a synchronization point.
            self.retired_peak.fetch_max(now, Ordering::Relaxed);
        }
        if let Some(t) = self.trace.get() {
            t.recorder.metrics().footprint_peak.record(now as u64);
        }
        now
    }

    /// The retire every scheme records: pushes `ptr`'s [`Retired`]
    /// record, stamped with the trace clock, onto `list`, counts it,
    /// and emits `Hook::Retire` on the retiring thread's `tracer` with
    /// the address and the retired population
    /// ([`StatCells::on_retire`]).
    #[inline]
    pub fn retire_into(
        &self,
        tracer: &mut ThreadTracer,
        list: &mut Vec<Retired>,
        ptr: *mut u8,
        birth_era: u64,
        retire_era: u64,
        drop_fn: DropFn,
    ) {
        list.push(Retired {
            ptr,
            birth_era,
            retire_era,
            drop_fn,
            retire_tick: self.stamp(),
        });
        let held = self.on_retire();
        tracer.emit(Hook::Retire, ptr as u64, held as u64);
    }

    /// Hands a dying context's `garbage` to the orphan pool. It runs
    /// during unwinding too, so it tolerates a poisoned lock: a context
    /// death leaks neither its garbage nor, since each drop releases its
    /// registry slot right after, the slot.
    pub fn orphan(&self, garbage: &mut Vec<Retired>) {
        lock_unpoisoned(&self.orphans).append(garbage);
    }

    /// A scan's adoption: moves the whole orphan pool into the scanning
    /// thread's `garbage`, so the scan that follows tests orphans like
    /// the thread's own retires and frees whatever is unprotected.
    /// `try_lock`: if a peer is adopting concurrently the pool is in
    /// good hands and this round skips — adoption is a cold-path
    /// recovery duty, not a hot-path obligation.
    pub fn adopt(&self, garbage: &mut Vec<Retired>) {
        if let Some(mut orphans) = try_lock_unpoisoned(&self.orphans) {
            let n = orphans.len();
            if n > 0 {
                garbage.append(&mut orphans);
                drop(orphans);
                self.adopted(n);
            }
        }
    }

    /// The epoch schemes' adoption: frees in place, as one batch, every
    /// orphan retired at least two epochs before `epoch`
    /// (`retire_era + 2 ≤ epoch`) and leaves the younger ones in the
    /// pool, in their order.
    ///
    /// # Safety
    ///
    /// Every orphan with `retire_era + 2 ≤ epoch` must satisfy
    /// [`Retired::free`]'s contract: `epoch` is a grace-period horizon
    /// the caller has established.
    pub unsafe fn reclaim_aged_orphans(&self, epoch: u64) {
        let n = {
            let mut orphans = lock_unpoisoned(&self.orphans);
            let before = orphans.len();
            // SAFETY: the caller's contract covers every aged orphan.
            unsafe { self.reclaim_unless(&mut orphans, |g| g.retire_era + 2 > epoch) };
            before - orphans.len()
        };
        self.adopted(n);
    }

    /// Tallies `n` reclaimed nodes: one RMW per counter per batch.
    /// [`StatCells::reclaim`] calls it for every freed batch; VBR, whose
    /// retire *is* its reclaim and frees nothing, calls it directly.
    pub fn on_reclaim(&self, n: usize) {
        if n > 0 {
            // SAFETY(ordering): Relaxed — telemetry counters, as in on_retire.
            self.retired_now.fetch_sub(n, Ordering::Relaxed);
            self.total_reclaimed.fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Frees a batch of retired nodes — the one place any scheme frees
    /// one — and traces and tallies it on the way.
    ///
    /// With a recorder attached, the batch takes the service lock
    /// once and emits one `Hook::Reclaim` per node as a single run
    /// ([`ThreadTracer::emit_run`]): `n` consecutive clock ticks from
    /// one `fetch_add(n)`, node *k* stamped `t0 + k` and carrying
    /// `a` = its address (what `era-view` pairs with the node's
    /// `Retire` to rebuild its retire→(orphan→adopt→)reclaim chain) and
    /// `b` = its retire→reclaim latency `t0 + k − retire_tick`, which
    /// the latency histogram also records. The nodes are freed after
    /// the lock is released, then tallied through
    /// [`StatCells::on_reclaim`].
    ///
    /// # Safety
    ///
    /// Every node in `batch` must satisfy [`Retired::free`]'s contract.
    pub unsafe fn reclaim(&self, batch: Drain<'_, Retired>) {
        let n = batch.len();
        if n == 0 {
            return;
        }
        if let Some(t) = self.trace.get() {
            let nodes = batch.as_slice();
            let latencies = &t.recorder.metrics().reclaim_latency;
            lock_unpoisoned(&t.service).emit_run(Hook::Reclaim, n, |k, ts| {
                let node = &nodes[k];
                let mut latency = 0;
                if node.retire_tick != 0 {
                    latency = ts.saturating_sub(node.retire_tick);
                    latencies.record(latency);
                }
                (node.ptr as u64, latency)
            });
        }
        for node in batch {
            // SAFETY: the caller's contract covers every node of the batch.
            unsafe { node.free() }
        }
        self.on_reclaim(n);
    }

    /// A scan's shape over [`StatCells::reclaim`]: frees, as one batch,
    /// every node of `garbage` that `held` does not hold back, and
    /// leaves the held ones in `garbage`, in their order (the vector
    /// keeps its capacity).
    ///
    /// # Safety
    ///
    /// Every node of `garbage` for which `held` returns `false` must
    /// satisfy [`Retired::free`]'s contract.
    pub unsafe fn reclaim_unless(
        &self,
        garbage: &mut Vec<Retired>,
        mut held: impl FnMut(&Retired) -> bool,
    ) {
        let mut kept = Vec::new();
        garbage.retain(|g| {
            let hold = held(g);
            if hold {
                kept.push(*g);
            }
            !hold
        });
        // SAFETY: what is left in `garbage` is what `held` did not hold
        // back, which the caller's contract covers.
        unsafe { self.reclaim(garbage.drain(..)) };
        garbage.append(&mut kept);
    }

    #[must_use = "a stats snapshot is pure observation; discarding it loses the measurement"]
    pub fn snapshot(&self, era: u64) -> SmrStats {
        let retired_now = self.retired_now.load(Ordering::Relaxed);
        let total_reclaimed = self.total_reclaimed.load(Ordering::Relaxed);
        SmrStats {
            retired_now,
            retired_peak: self.retired_peak.load(Ordering::Relaxed),
            // Derived (see the struct invariant): exact when quiescent,
            // transiently off by in-flight retires otherwise — same as
            // any multi-word counter snapshot.
            total_retired: retired_now as u64 + total_reclaimed,
            total_reclaimed,
            era,
        }
    }
}

impl Drop for StatCells {
    fn drop(&mut self) {
        let mut orphans = std::mem::take(
            self.orphans
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner),
        );
        // SAFETY: the cells live in a scheme's shared state, of which
        // every context holds an `Arc`: when it drops, no context — and
        // so no operation, protection or scan — remains, and each
        // orphan was unlinked before its retire. This is the trait's
        // "the scheme frees all remaining garbage when it is dropped".
        unsafe { self.reclaim(orphans.drain(..)) };
    }
}

/// A snapshot of a scheme's footprint counters — the raw material of
/// the §5.1 robustness measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SmrStats {
    /// Nodes retired and not yet reclaimed, right now.
    pub retired_now: usize,
    /// High-water mark of `retired_now` over the scheme's lifetime —
    /// the footprint figure the §5.1 robustness bounds are stated
    /// about.
    pub retired_peak: usize,
    /// Total retire calls so far.
    pub total_retired: u64,
    /// Total nodes reclaimed so far.
    pub total_reclaimed: u64,
    /// Current global era/epoch (0 for schemes without one).
    pub era: u64,
}

impl SmrStats {
    /// Accumulates another domain's snapshot into this one — the
    /// aggregation used when a service shards work across several
    /// independent reclaimer domains (era-kv).
    ///
    /// Counts (`retired_now`, `total_retired`, `total_reclaimed`) sum
    /// exactly. `retired_peak` is the subtle one: the true service-level
    /// peak is the peak of the *sum* over time, which per-domain
    /// snapshots cannot reconstruct (each domain peaked at its own
    /// moment). We take the **sum of peaks**, which is always ≥ the
    /// peak of sums — a conservative upper bound, never an
    /// understatement of footprint. Summing would otherwise silently
    /// double-count nothing, but *reporting max-of-peaks* (the naive
    /// alternative) would undercount by up to a factor of the shard
    /// count. `era` takes the max, since domains advance independently.
    pub fn merge(&mut self, other: &SmrStats) {
        self.retired_now += other.retired_now;
        self.retired_peak += other.retired_peak;
        self.total_retired += other.total_retired;
        self.total_reclaimed += other.total_reclaimed;
        self.era = self.era.max(other.era);
    }
}

impl fmt::Display for SmrStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retired_now={} retired_peak={} total_retired={} total_reclaimed={} era={}",
            self.retired_now, self.retired_peak, self.total_retired, self.total_reclaimed, self.era
        )
    }
}

/// Registration failed: every thread slot is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterError {
    /// The scheme's configured capacity.
    pub capacity: usize,
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "all {} thread slots are in use", self.capacity)
    }
}

impl std::error::Error for RegisterError {}

/// A pointer-based safe memory reclamation scheme.
///
/// The per-thread state lives in [`Smr::ThreadCtx`]; every method takes
/// the scheme (`&self`, shared between threads) and the calling thread's
/// context (`&mut`). Contexts release their slot and hand leftover
/// garbage back to the scheme when dropped; the scheme frees all
/// remaining garbage when *it* is dropped (at that point no thread can
/// hold references).
///
/// # Safety contract of `retire`
///
/// `retire` is `unsafe`: the caller promises the node is unreachable
/// from every entry point, will not be retired again, and that `drop_fn`
/// frees exactly the allocation behind `ptr`. This mirrors the paper's
/// §4.1 assumption that the plain implementation issues correct
/// `retire()` calls.
pub trait Smr: Send + Sync {
    /// Per-thread state.
    type ThreadCtx: Send;

    /// Registers the calling thread.
    ///
    /// # Errors
    ///
    /// [`RegisterError`] when the configured thread capacity is
    /// exhausted (the schemes are *transparent* up to their capacity:
    /// threads may come and go, slots are recycled).
    fn register(&self) -> Result<Self::ThreadCtx, RegisterError>;

    /// Which scheme this is: its name, trace id and robustness class
    /// come from the [`registry`](crate::registry).
    fn kind(&self) -> SchemeKind;

    /// Attaches a trace [`Recorder`]: subsequent hook calls emit
    /// events and feed the recorder's metrics. Must be called *before*
    /// [`Smr::register`] for registering threads to receive tracers.
    /// The default is a no-op (tracing stays off).
    fn attach_recorder(&self, recorder: &Recorder) {
        let _ = recorder;
    }

    /// Called on entry to every data-structure operation.
    fn begin_op(&self, ctx: &mut Self::ThreadCtx);

    /// Called before every data-structure operation returns.
    fn end_op(&self, ctx: &mut Self::ThreadCtx);

    /// Protected load of the link word `src`, using protection slot
    /// `slot` where the scheme protects (HP/HE publish-and-validate;
    /// epoch schemes are plain loads).
    ///
    /// Link words may carry low-bit tags (Harris marks); protection
    /// applies to the untagged address.
    fn load(&self, ctx: &mut Self::ThreadCtx, slot: usize, src: &AtomicUsize) -> usize {
        let _ = (ctx, slot);
        // SAFETY(ordering): SeqCst — and it must stay SeqCst even though
        // Acquire would suffice for *initialization* visibility. The
        // epoch/era soundness argument for retire stamps is an SC chain:
        //   reader link load ≺_S unlink CAS ≺_S retire-stamp load,
        // which forces the stamp to be ≥ the epoch any concurrent reader
        // announced before loading this link. Downgrading this load to
        // Acquire removes the first ≺_S edge and lets a stamp land one
        // epoch early, shrinking the grace period below two epochs. On
        // x86-TSO a SeqCst load compiles to a plain MOV, so this costs
        // nothing over Acquire.
        src.load(Ordering::SeqCst)
    }

    /// Re-publishes, into `dst_slot`, the protection already
    /// established for `word` in `src_slot` — without a new
    /// validate/fence round trip. The canonical use is a traversal
    /// rotating `curr` into its `prev` slot: the node is already
    /// protected, so the transfer is a plain release store (HP/HE) or a
    /// no-op (interval/epoch schemes).
    ///
    /// Contract (callers): `word` was returned by [`Smr::load`] into
    /// `src_slot` during the current operation and that protection has
    /// not since been released or overwritten; and `dst_slot >
    /// src_slot`. The slot-order requirement is what makes the plain
    /// release store sound: reclamation scans read slots in ascending
    /// index order, so a scan that misses the (about-to-be-overwritten)
    /// source slot reads the destination slot *later* and — because the
    /// overwriting store is itself a release store, ordered after this
    /// transfer — must observe the transferred protection.
    fn protect_alias(
        &self,
        ctx: &mut Self::ThreadCtx,
        dst_slot: usize,
        src_slot: usize,
        word: usize,
    ) {
        let _ = (ctx, dst_slot, src_slot, word);
    }

    /// Initializes the scheme header of a freshly allocated node.
    fn init_header(&self, ctx: &mut Self::ThreadCtx, header: &SmrHeader) {
        let _ = (ctx, header);
    }

    /// Hands an unreachable node to the scheme.
    ///
    /// `header` may be null for schemes that ignore it (EBR/HP/leak);
    /// HE/IBR read the birth era from it.
    ///
    /// # Safety
    ///
    /// The trait-level contract: `ptr` must be unlinked from every
    /// shared location, retired at most once, and `drop_fn` must free
    /// exactly the allocation behind it.
    unsafe fn retire(
        &self,
        ctx: &mut Self::ThreadCtx,
        ptr: *mut u8,
        header: *const SmrHeader,
        drop_fn: DropFn,
    );

    /// NBR hook: the thread enters (or restarts) a read-only phase.
    fn enter_read_phase(&self, ctx: &mut Self::ThreadCtx) {
        let _ = ctx;
    }

    /// NBR hook: poll for neutralization. `true` means the thread must
    /// drop every pointer it collected in the current read phase and
    /// restart it. Easy-integrated schemes never request a restart.
    fn needs_restart(&self, ctx: &mut Self::ThreadCtx) -> bool {
        let _ = ctx;
        false
    }

    /// NBR hook: publish a reservation for the (untagged) node address
    /// `word` in reservation slot `slot` ahead of a write phase.
    fn reserve(&self, ctx: &mut Self::ThreadCtx, slot: usize, word: usize) {
        let _ = (ctx, slot, word);
    }

    /// NBR hook: after publishing reservations, verify no neutralization
    /// intervened; `false` means restart the read phase (reservations
    /// are void). Easy schemes return `true`.
    fn commit_reservations(&self, ctx: &mut Self::ThreadCtx) -> bool {
        let _ = ctx;
        true
    }

    /// NBR hook: drop all reservations (end of write phase).
    fn clear_reservations(&self, ctx: &mut Self::ThreadCtx) {
        let _ = ctx;
    }

    /// Robustness-recovery hook: forcibly release whatever protection
    /// thread slot `slot` currently holds, so reclamation blocked on
    /// that slot can proceed (cooperative neutralization, NBR-style —
    /// but driven *externally* by a watchdog rather than by a signal).
    ///
    /// Returns `true` when the scheme supports neutralization and the
    /// slot was registered; schemes without the capability (HP-family,
    /// leak) return `false` and the watchdog must degrade some other
    /// way. After a successful call, the victim's next
    /// [`Smr::needs_restart`] poll returns `true` exactly once.
    ///
    /// # Safety
    ///
    /// The caller promises the victim thread follows the restart
    /// protocol: between operations it polls [`Smr::needs_restart`]
    /// and, on `true`, discards every pointer collected in the current
    /// protected region before touching shared memory again. Pointers
    /// held across a neutralization are dangling — dereferencing one
    /// is the exact use-after-free the scheme normally prevents.
    unsafe fn neutralize(&self, slot: usize) -> bool {
        let _ = slot;
        false
    }

    /// Announces that the calling thread holds **no** references into
    /// any protected structure right now. A no-op for every scheme
    /// except QSBR, whose grace periods cannot end without it.
    ///
    /// This is deliberately *not* part of the Def. 5.3 easy-integration
    /// surface: only the application can know its threads are quiescent
    /// (a data structure calling this on its own would be unsound for
    /// callers that hold iterators). Service layers such as era-kv call
    /// it at their operation boundaries, where the facade guarantees
    /// values are copied out — that call-site knowledge is precisely
    /// the integration burden QSBR trades for its low overhead.
    fn quiescent_point(&self, ctx: &mut Self::ThreadCtx) {
        let _ = ctx;
    }

    /// Footprint counters.
    #[must_use = "stats() is pure observation; discarding the snapshot loses the measurement"]
    fn stats(&self) -> SmrStats;

    /// Eagerly attempt reclamation on this thread's garbage (useful in
    /// tests and shutdown paths; never required for correctness).
    fn flush(&self, ctx: &mut Self::ThreadCtx) {
        let _ = ctx;
    }
}

/// Marker: the scheme's `load` is safe even when traversing *retired*
/// (marked, unlinked) nodes — the capability Harris's linked list
/// requires and HP/HE/IBR famously lack (Appendix E).
///
/// # Safety
///
/// Implementors promise that any pointer obtained through `load` between
/// `begin_op`/`enter_read_phase` and the corresponding
/// `end_op`/restart remains dereferenceable even if the node it names
/// was retired before or during the traversal; a scheme that frees a
/// retired node while any op can still hold a pointer to it must not
/// implement this trait.
pub unsafe trait SupportsUnlinkedTraversal: Smr {}

/// Marker: `begin_op`/`end_op` alone protect *every* access in between —
/// no per-pointer reservations, no restart polling (epoch-style
/// schemes: EBR and the leaking baseline).
///
/// Structures with many simultaneously-held pointers (the skip list,
/// whose hazard-pointer count would grow with the tower height — the
/// §5.1 discussion) demand this; integrating a reservation-based scheme
/// there is exactly the "non-trivial integration" the paper describes.
///
/// # Safety
///
/// Implementors promise that between `begin_op` and `end_op`, no node
/// that was reachable at any point since `begin_op` is reclaimed. The
/// promise is load-bearing: structures deref unprotected raw pointers
/// anywhere inside an op on the strength of this bound.
pub unsafe trait EpochProtected: SupportsUnlinkedTraversal {}

/// Lock-free slot registry: fixed capacity, acquire/release by CAS.
/// Flags are cache-padded: `is_in_use` sits on every epoch-advance and
/// scan path, and must not false-share with neighbouring slots'
/// registration churn.
#[derive(Debug)]
pub(crate) struct SlotRegistry {
    in_use: Box<[CachePadded<std::sync::atomic::AtomicBool>]>,
}

impl SlotRegistry {
    pub fn new(capacity: usize) -> Self {
        let v: Vec<CachePadded<std::sync::atomic::AtomicBool>> = (0..capacity)
            .map(|_| CachePadded::new(std::sync::atomic::AtomicBool::new(false)))
            .collect();
        SlotRegistry {
            in_use: v.into_boxed_slice(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.in_use.len()
    }

    pub fn acquire(&self) -> Result<usize, RegisterError> {
        for (i, slot) in self.in_use.iter().enumerate() {
            // SAFETY(ordering): SeqCst — slot acquisition is the hand-off point
            // for the previous owner's teardown stores (cleared hazards,
            // QUIESCENT announcements): it must be ordered after them in the
            // same total order reclaimers scan in, and acquire/release alone
            // would not order it against scans of *other* slots.
            if slot
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Ok(i);
            }
        }
        Err(RegisterError {
            capacity: self.in_use.len(),
        })
    }

    pub fn release(&self, idx: usize) {
        // SAFETY(ordering): SeqCst — pairs with the SeqCst acquire CAS above:
        // the release must come after this thread's teardown stores in the
        // scan order, or a re-acquirer could inherit live-looking state.
        self.in_use[idx].store(false, Ordering::SeqCst);
    }

    pub fn is_in_use(&self, idx: usize) -> bool {
        self.in_use[idx].load(Ordering::SeqCst)
    }
}

/// Strips low-bit tags (Harris marks) off a link word.
#[inline]
pub fn untagged(word: usize) -> usize {
    word & !0b11
}

/// Whether the link word carries the deletion mark.
#[inline]
pub fn is_marked(word: usize) -> bool {
    word & 0b1 == 0b1
}

/// Sets the deletion mark on a link word.
#[inline]
pub fn with_mark(word: usize) -> usize {
    word | 0b1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_helpers() {
        let p = 0x1000usize;
        assert!(!is_marked(p));
        let m = with_mark(p);
        assert!(is_marked(m));
        assert_eq!(untagged(m), p);
        assert_eq!(untagged(p), p);
    }

    #[test]
    fn cache_padded_is_transparent_and_padded() {
        assert!(std::mem::align_of::<CachePadded<AtomicU64>>() >= 128);
        assert!(std::mem::size_of::<CachePadded<AtomicU64>>() >= 128);
        let c = CachePadded::new(AtomicU64::new(7));
        assert_eq!(c.load(Ordering::Relaxed), 7); // Deref into the atomic
                                                  // SAFETY(ordering): Relaxed — single-threaded Deref smoke test.
        c.store(9, Ordering::Relaxed);
        assert_eq!(c.into_inner().into_inner(), 9);
        let mut m = CachePadded::new(5u32);
        *m = 6;
        assert_eq!(*m, 6);
        assert_eq!(CachePadded::from(3u8).into_inner(), 3);
    }

    #[test]
    fn stat_cells_total_is_derived_from_the_invariant() {
        // total_retired ≡ retired_now + total_reclaimed at every
        // quiescent observation point.
        let s = StatCells::default();
        for _ in 0..5 {
            s.on_retire();
        }
        s.on_reclaim(3);
        let snap = s.snapshot(0);
        assert_eq!(snap.retired_now, 2);
        assert_eq!(snap.total_reclaimed, 3);
        assert_eq!(snap.total_retired, 5);
        assert_eq!(snap.retired_peak, 5);
    }

    #[test]
    fn slot_registry_acquire_release() {
        let r = SlotRegistry::new(2);
        assert_eq!(r.capacity(), 2);
        let a = r.acquire().unwrap();
        let b = r.acquire().unwrap();
        assert_ne!(a, b);
        assert!(r.acquire().is_err());
        assert!(r.is_in_use(a));
        r.release(a);
        assert!(!r.is_in_use(a));
        let c = r.acquire().unwrap();
        assert_eq!(c, a);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn slot_registry_concurrent_uniqueness() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let r = SlotRegistry::new(64);
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        let idx = r.acquire().unwrap();
                        assert!(
                            seen.lock().unwrap().insert(idx),
                            "slot {idx} double-acquired"
                        );
                        seen.lock().unwrap().remove(&idx);
                        r.release(idx);
                    }
                });
            }
        });
    }

    #[test]
    fn stat_cells_roundtrip() {
        let s = StatCells::default();
        s.on_retire();
        s.on_retire();
        s.on_reclaim(1);
        s.on_reclaim(0);
        let snap = s.snapshot(7);
        assert_eq!(snap.retired_now, 1);
        assert_eq!(snap.retired_peak, 2, "peak must survive reclamation");
        assert_eq!(snap.total_retired, 2);
        assert_eq!(snap.total_reclaimed, 1);
        assert_eq!(snap.era, 7);
        assert!(snap.to_string().contains("retired_now=1"));
        assert!(snap.to_string().contains("retired_peak=2"));
    }

    #[test]
    fn reclaim_unless_frees_the_rest_and_keeps_the_held_in_order() {
        /// # Safety
        /// `p` must be a leaked `Box<u64>` that nothing else can reach.
        unsafe fn free_u64(p: *mut u8) {
            // SAFETY: contract above.
            unsafe { drop(Box::from_raw(p as *mut u64)) }
        }
        let s = StatCells::default();
        let mut garbage: Vec<Retired> = (0..10u64)
            .map(|v| {
                s.on_retire();
                Retired {
                    ptr: Box::into_raw(Box::new(v)) as *mut u8,
                    birth_era: v,
                    retire_era: 0,
                    drop_fn: free_u64,
                    retire_tick: 0,
                }
            })
            .collect();
        let capacity = garbage.capacity();
        // SAFETY: every node is a leaked Box<u64> only this test holds.
        unsafe { s.reclaim_unless(&mut garbage, |g| g.birth_era % 3 == 0) };
        let held: Vec<u64> = garbage.iter().map(|g| g.birth_era).collect();
        assert_eq!(held, [0, 3, 6, 9], "held nodes stay, in order");
        assert_eq!(garbage.capacity(), capacity, "no reallocation");
        let snap = s.snapshot(0);
        assert_eq!((snap.retired_now, snap.total_reclaimed), (4, 6));
        // SAFETY: as above; an empty batch is a no-op.
        unsafe { s.reclaim(garbage.drain(..)) };
        // SAFETY: the same empty batch again.
        unsafe { s.reclaim(garbage.drain(..)) };
        let snap = s.snapshot(0);
        assert_eq!((snap.retired_now, snap.total_reclaimed), (0, 10));
    }

    #[test]
    fn stat_cells_trace_attachment() {
        let s = StatCells::default();
        assert_eq!(s.stamp(), 0, "unattached stamp is the sentinel 0");
        assert!(!s.tracer(0).is_enabled());
        let recorder = Recorder::new(4);
        s.attach(&recorder, SchemeId::HP);
        assert!(s.tracer(0).is_enabled());
        assert!(s.stamp() > 0);
        s.on_retire();
        s.blocked(2, 1);
        // Reclaim through the batch path: the event carries the node
        // address (era-view chain reconstruction relies on it).
        /// # Safety
        ///
        /// Takes any pointer and ignores it; nothing to uphold.
        unsafe fn no_free(_p: *mut u8) {}
        let target = Box::into_raw(Box::new(0u8));
        let mut batch = vec![Retired {
            ptr: target,
            birth_era: 0,
            retire_era: 0,
            drop_fn: no_free,
            retire_tick: s.stamp(),
        }];
        // SAFETY: `target` is exclusively owned garbage; `no_free`
        // ignores it, and we re-box it below to avoid the leak.
        unsafe { s.reclaim(batch.drain(..)) };
        // SAFETY: `no_free` did not touch the allocation.
        drop(unsafe { Box::from_raw(target) });
        assert_eq!(s.snapshot(0).total_reclaimed, 1, "the batch tallies itself");
        assert_eq!(recorder.metrics().footprint_peak.get(), 1);
        assert_eq!(recorder.metrics().blame_counts()[2], 1);
        let log = recorder.drain();
        assert!(log.with_hook(Hook::Blocked).count() == 1);
        let reclaims: Vec<_> = log.with_hook(Hook::Reclaim).collect();
        assert_eq!(reclaims.len(), 1, "one per-node reclaim event");
        assert_eq!(reclaims[0].a, target as u64, "event names the address");

        // Second attach is ignored, not an error: retires still feed the
        // first recorder (population is back to 1 after the reclaim).
        s.attach(&Recorder::new(1), SchemeId::EBR);
        s.on_retire();
        assert_eq!(s.snapshot(0).total_retired, 2);
        assert_eq!(recorder.metrics().footprint_peak.get(), 1);
    }

    #[test]
    fn stats_merge_sums_counts_and_peaks() {
        let mut a = SmrStats {
            retired_now: 3,
            retired_peak: 10,
            total_retired: 100,
            total_reclaimed: 97,
            era: 5,
        };
        let b = SmrStats {
            retired_now: 1,
            retired_peak: 7,
            total_retired: 40,
            total_reclaimed: 39,
            era: 9,
        };
        a.merge(&b);
        assert_eq!(a.retired_now, 4);
        // Sum-of-peaks: the conservative (never-understating) bound for
        // independently-peaking domains.
        assert_eq!(a.retired_peak, 17);
        assert_eq!(a.total_retired, 140);
        assert_eq!(a.total_reclaimed, 136);
        assert_eq!(a.era, 9, "domains advance independently; report max");

        // Identity: merging a default changes nothing.
        let before = a;
        a.merge(&SmrStats::default());
        assert_eq!(a, before);
    }

    #[test]
    fn register_error_display() {
        let e = RegisterError { capacity: 4 };
        assert_eq!(e.to_string(), "all 4 thread slots are in use");
    }
}
