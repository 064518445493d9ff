//! [`ChaosArena`]: fault injection for the VBR arena.
//!
//! VBR is the odd scheme out: no thread contexts, no registry slots,
//! no deferred garbage — retire *is* reclaim under version stamps, so
//! "die pinned" and "stall" faults are vacuous by construction (type
//! stability is what the scheme trades applicability for). What *can*
//! break at runtime is allocation: the fixed arena fills, or the free
//! list churns under contention. The wrapper therefore drives the same
//! [`FaultPlan`] format with its clock bumped per `alloc`, and maps
//! allocation-flavoured actions (`fail_alloc`, `fail_register`) to
//! injected [`ArenaFull`] results; every other action fires as a
//! recorded no-op so a plan replayed across all eight schemes keeps an
//! identical fault *sequence* even where an action has no VBR effect.

use era_obs::Recorder;
use era_obs::{Hook, SchemeId, ThreadTracer};
use era_smr::vbr::{Arena, ArenaFull, Handle, Stale};
use era_smr::CachePadded;
use era_smr::SmrStats;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::decorator::FaultRecord;
use crate::CHAOS_THREAD;
use crate::{FaultAction, FaultPlan};

fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct ArenaRt {
    pending: Vec<FaultAction>,
    cursor: usize,
    log: Vec<FaultRecord>,
}

struct ArenaState {
    clock: CachePadded<AtomicU64>,
    next_wake: CachePadded<AtomicU64>,
    /// Remaining injected allocation failures.
    alloc_fail: AtomicU64,
    faults: AtomicU64,
    rt: Mutex<ArenaRt>,
    tracer: OnceLock<Mutex<ThreadTracer>>,
}

/// A fault-injecting wrapper around [`era_smr::vbr::Arena`].
///
/// Delegates the full arena surface; `alloc` additionally ticks the
/// chaos clock, fires due plan actions, and consumes any injected
/// failure budget (returning [`ArenaFull`] with capacity to spare).
///
/// ```
/// use era_chaos::{ChaosArena, FaultAction, FaultPlan};
///
/// let plan = FaultPlan::new(0, vec![FaultAction::FailAlloc { at_op: 2, count: 1 }]);
/// let arena: ChaosArena<2> = ChaosArena::new(8, plan);
/// assert!(arena.alloc().is_ok());
/// assert!(arena.alloc().is_err(), "injected ArenaFull");
/// assert!(arena.alloc().is_ok());
/// ```
pub struct ChaosArena<const C: usize> {
    inner: Arena<C>,
    plan: FaultPlan,
    st: ArenaState,
}

impl<const C: usize> std::fmt::Debug for ChaosArena<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosArena")
            .field("capacity", &self.inner.capacity())
            .field("planned", &self.plan.ops.len())
            .finish()
    }
}

impl<const C: usize> ChaosArena<C> {
    /// An arena of `capacity` nodes with `plan` armed.
    pub fn new(capacity: usize, plan: FaultPlan) -> ChaosArena<C> {
        let plan = FaultPlan::new(plan.seed, plan.ops);
        let st = ArenaState {
            clock: CachePadded::new(AtomicU64::new(0)),
            next_wake: CachePadded::new(AtomicU64::new(
                plan.ops.first().map_or(u64::MAX, |a| a.at_op()),
            )),
            alloc_fail: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            rt: Mutex::new(ArenaRt {
                pending: plan.ops.clone(),
                cursor: 0,
                log: Vec::new(),
            }),
            tracer: OnceLock::new(),
        };
        ChaosArena {
            inner: Arena::new(capacity),
            plan,
            st,
        }
    }

    /// A transparent wrapper (empty plan).
    pub fn transparent(capacity: usize) -> ChaosArena<C> {
        ChaosArena::new(capacity, FaultPlan::empty())
    }

    /// The wrapped arena.
    pub fn inner(&self) -> &Arena<C> {
        &self.inner
    }

    /// The armed plan (sorted).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Faults fired so far.
    pub fn faults_injected(&self) -> u64 {
        self.st.faults.load(Ordering::Relaxed)
    }

    /// The faults fired so far, in firing order.
    pub fn fault_log(&self) -> Vec<FaultRecord> {
        lock(&self.st.rt).log.clone()
    }

    fn poll(&self, op: u64) {
        let mut rt = lock(&self.st.rt);
        while rt.cursor < rt.pending.len() && rt.pending[rt.cursor].at_op() <= op {
            let action = rt.pending[rt.cursor];
            rt.cursor += 1;
            if let FaultAction::FailAlloc { count, .. } | FaultAction::FailRegister { count, .. } =
                action
            {
                // SAFETY(ordering): Relaxed — a monotone failure budget
                // consumed by CAS in alloc(); only a count, no payload.
                self.st
                    .alloc_fail
                    .fetch_add(count.max(1), Ordering::Relaxed);
            }
            rt.log.push(FaultRecord {
                kind: action.kind(),
                planned_at: action.at_op(),
                fired_at: op,
            });
            // SAFETY(ordering): Relaxed — run-level fault tally, read
            // by assertions after the run.
            self.st.faults.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = self.st.tracer.get() {
                lock(t).emit(Hook::Fault, action.kind() as u64, op);
            }
        }
        let wake = rt.pending.get(rt.cursor).map_or(u64::MAX, |a| a.at_op());
        // SAFETY(ordering): Relaxed — advisory fast-path gate; a stale
        // read costs one extra poll() under the rt lock.
        self.st.next_wake.store(wake, Ordering::Relaxed);
    }

    /// Allocates a node, chaos permitting.
    ///
    /// # Errors
    ///
    /// [`ArenaFull`] when the arena is genuinely full *or* an injected
    /// allocation-failure budget is armed.
    pub fn alloc(&self) -> Result<Handle, ArenaFull> {
        // SAFETY(ordering): Relaxed — the alloc clock orders faults
        // against this thread's own allocs; cross-thread slack is
        // part of the chaos model.
        let op = self.st.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if op >= self.st.next_wake.load(Ordering::Relaxed) {
            self.poll(op);
        }
        let mut n = self.st.alloc_fail.load(Ordering::Relaxed);
        while n > 0 {
            // SAFETY(ordering): Relaxed/Relaxed — budget decrement;
            // atomicity alone bounds failures to the planned count.
            match self.st.alloc_fail.compare_exchange_weak(
                n,
                n - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Err(ArenaFull),
                Err(cur) => n = cur,
            }
        }
        self.inner.alloc()
    }

    /// See [`Arena::retire`].
    ///
    /// # Errors
    ///
    /// [`Stale`] when the handle's version lost.
    pub fn retire(&self, h: Handle) -> Result<(), Stale> {
        self.inner.retire(h)
    }

    /// See [`Arena::read`].
    ///
    /// # Errors
    ///
    /// [`Stale`] when the handle's version lost.
    pub fn read(&self, h: Handle, cell: usize) -> Result<u64, Stale> {
        self.inner.read(h, cell)
    }

    /// See [`Arena::write`].
    ///
    /// # Errors
    ///
    /// [`Stale`] when the handle's version lost.
    pub fn write(&self, h: Handle, cell: usize, value: u64) -> Result<(), Stale> {
        self.inner.write(h, cell, value)
    }

    /// See [`Arena::cas`].
    ///
    /// # Errors
    ///
    /// [`Stale`] when the handle's version lost.
    pub fn cas(&self, h: Handle, cell: usize, expected: u64, new: u64) -> Result<bool, Stale> {
        self.inner.cas(h, cell, expected, new)
    }

    /// See [`Arena::validate`].
    ///
    /// # Errors
    ///
    /// [`Stale`] when the handle's version lost.
    pub fn validate(&self, h: Handle) -> Result<(), Stale> {
        self.inner.validate(h)
    }

    /// See [`Arena::upgrade`].
    ///
    /// # Errors
    ///
    /// [`Stale`] when the packed payload no longer names a live node.
    pub fn upgrade(&self, payload: u64) -> Result<(Handle, bool), Stale> {
        self.inner.upgrade(payload)
    }

    /// See [`Arena::capacity`].
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// See [`Arena::live`].
    pub fn live(&self) -> usize {
        self.inner.live()
    }

    /// See [`Arena::stats`].
    pub fn stats(&self) -> SmrStats {
        self.inner.stats()
    }

    /// Attaches a recorder to the arena and to the chaos tracer
    /// (injected faults emit as `Hook::Fault` under
    /// [`crate::CHAOS_THREAD`]).
    pub fn attach_recorder(&self, recorder: &Recorder) {
        self.inner.attach_recorder(recorder);
        let _ = self
            .st
            .tracer
            .set(Mutex::new(recorder.tracer(CHAOS_THREAD, SchemeId::VBR)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transparent_arena_delegates() {
        let arena: ChaosArena<2> = ChaosArena::transparent(4);
        let h = arena.alloc().unwrap();
        arena.write(h, 0, 42).unwrap();
        assert_eq!(arena.read(h, 0).unwrap(), 42);
        assert!(arena.cas(h, 0, 42, 43).unwrap());
        arena.validate(h).unwrap();
        let (h2, mark) = arena.upgrade(h.pack(false)).unwrap();
        assert_eq!((h2, mark), (h, false));
        arena.retire(h).unwrap();
        assert!(arena.read(h, 0).is_err(), "retired handle is stale");
        assert_eq!(arena.live(), 0);
        assert_eq!(arena.faults_injected(), 0);
    }

    #[test]
    fn injected_alloc_failures_then_recovery() {
        let plan = FaultPlan::new(0, vec![FaultAction::FailAlloc { at_op: 2, count: 2 }]);
        let arena: ChaosArena<1> = ChaosArena::new(8, plan);
        let a = arena.alloc().unwrap();
        assert!(arena.alloc().is_err(), "first injected failure");
        assert!(arena.alloc().is_err(), "second injected failure");
        let b = arena.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(arena.faults_injected(), 1);
        assert_eq!(arena.fault_log()[0].kind, 6);
        // The injected failures consumed no capacity: fill the rest.
        let mut held = vec![a, b];
        while let Ok(h) = arena.alloc() {
            held.push(h);
        }
        assert_eq!(held.len(), 8, "injected ArenaFull must not eat slots");
        for h in held {
            arena.retire(h).unwrap();
        }
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn non_alloc_actions_fire_as_recorded_noops() {
        let plan = FaultPlan::new(
            0,
            vec![
                FaultAction::DiePinned { at_op: 1 },
                FaultAction::StallThread {
                    at_op: 1,
                    for_ops: 4,
                },
            ],
        );
        let arena: ChaosArena<1> = ChaosArena::new(2, plan);
        let h = arena.alloc().unwrap();
        arena.retire(h).unwrap();
        assert_eq!(arena.faults_injected(), 2, "sequence preserved");
        assert!(arena.alloc().is_ok(), "no VBR effect");
    }
}
