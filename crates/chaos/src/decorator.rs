//! [`ChaosSmr`]: an [`Smr`] that delegates to any scheme while firing
//! a [`FaultPlan`] against it.
//!
//! The decorator keeps a global **op clock** (bumped once per
//! `begin_op`) and fires each planned action the first time the clock
//! reaches its `at_op`. All injected state lives behind one fast-path
//! gate: `begin_op` pays one relaxed `fetch_add` plus one relaxed load
//! (`next_wake`) until the next interesting op; an empty plan never
//! wakes, so the decorator is delegation plus that gate. Faults are
//! *scheme-level* events — dead pinned contexts, frozen announcements,
//! suppressed flushes, refused registrations — injected through the
//! public `Smr` surface only, so whatever safety property the inner
//! scheme claims is exactly what the chaos run is testing.
//!
//! Every fired action is appended to an in-memory fault log and, with
//! a recorder attached, emitted as [`Hook::Fault`] (`a` = action kind,
//! `b` = the clock reading it fired at). Identical plans against
//! identical single-threaded workloads produce identical logs and
//! final [`SmrStats`] — the determinism the replay tests pin down.

use era_obs::Recorder;
use era_obs::{Hook, ThreadTracer};
use era_smr::common::DropFn;
use era_smr::CachePadded;
use era_smr::{
    EpochProtected, RegisterError, SchemeKind, Smr, SmrHeader, SmrStats, SupportsUnlinkedTraversal,
};

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::plan::{FaultAction, FaultPlan};

/// Thread slot the decorator's service tracer emits `Hook::Fault`
/// under. Stays clear of real worker slots and the other service slots
/// (`u16::MAX` smr-internal, `u16::MAX - 2` kv navigator).
pub const CHAOS_THREAD: u16 = u16::MAX - 3;

/// Canary nodes a die-pinned victim retires before dying, so every
/// death leaves orphaned garbage for the survivors to adopt.
const DIE_PINNED_GARBAGE: usize = 4;

/// Hard cap on contexts a single `ExhaustSlots` action will hold.
const EXHAUST_CAP: usize = 4096;

/// One fired fault, in firing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// [`FaultAction::kind`] of the fired action.
    pub kind: u8,
    /// The op index the plan scheduled it for.
    pub planned_at: u64,
    /// The op-clock reading it actually fired at (≥ `planned_at`).
    pub fired_at: u64,
}

/// The node type die-pinned victims retire: a real header (HE/IBR read
/// the birth era from it) plus a payload word.
#[repr(C)]
struct ChaosNode {
    header: SmrHeader,
    payload: u64,
}

/// Reclaims a [`ChaosNode`] retired by a `DiePinned` fault.
///
/// # Safety
///
/// `p` must be the `Box::into_raw` pointer of a live `ChaosNode`; the
/// SMR scheme guarantees it is passed here exactly once.
unsafe fn free_chaos_node(p: *mut u8) {
    // SAFETY: the contract above: `p` is a live `ChaosNode`'s box, freed once.
    unsafe { drop(Box::from_raw(p as *mut ChaosNode)) }
}

fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Mutable runtime of an injecting decorator (cold path: only touched
/// when the op clock crosses `next_wake`).
struct Rt<C> {
    /// The plan's actions, sorted by fire index; `cursor` marks the
    /// first not-yet-fired one.
    pending: Vec<FaultAction>,
    cursor: usize,
    /// Pinned victims frozen until the clock passes their release op.
    stalled: Vec<(u64, C)>,
    /// Hostage contexts from `ExhaustSlots`, released in bulk.
    hostages: Vec<(u64, Vec<C>)>,
    /// Flushes swallowed during a `DelayFlush` window, replayed (once)
    /// when it closes.
    deferred_flushes: u64,
    log: Vec<FaultRecord>,
}

struct State<C> {
    clock: CachePadded<AtomicU64>,
    /// Earliest op index at which anything must happen; `u64::MAX`
    /// once the plan is exhausted and nothing is held. This is the
    /// entire hot-path cost of an idle or empty plan.
    next_wake: CachePadded<AtomicU64>,
    /// Remaining spurious `needs_restart` answers.
    restart_budget: AtomicU64,
    /// Remaining injected registration failures.
    register_fail: AtomicU64,
    /// Op index until which flushes are suppressed.
    flush_until: AtomicU64,
    faults: AtomicU64,
    /// Peak number of simultaneously held victim contexts (stalled +
    /// hostages), for run records.
    held_peak: AtomicUsize,
    rt: Mutex<Rt<C>>,
    tracer: OnceLock<Mutex<ThreadTracer>>,
}

/// A fault-injecting decorator around any [`Smr`] scheme.
///
/// `ChaosSmr<S>` implements `Smr` itself (same `ThreadCtx`), so it
/// drops into every consumer generic over schemes — data structures,
/// the kv store, the benches — unchanged:
///
/// ```
/// use era_chaos::{ChaosSmr, FaultAction, FaultPlan};
/// use era_smr::{ebr::Ebr, Smr};
///
/// let plan = FaultPlan::new(0, vec![FaultAction::DiePinned { at_op: 2 }]);
/// let smr = ChaosSmr::new(Ebr::with_threshold(8, 4), plan);
/// let mut ctx = smr.register().unwrap();
/// for _ in 0..4 {
///     smr.begin_op(&mut ctx);
///     smr.end_op(&mut ctx);
/// }
/// assert_eq!(smr.faults_injected(), 1);
/// ```
pub struct ChaosSmr<S: Smr> {
    inner: S,
    plan: FaultPlan,
    st: State<S::ThreadCtx>,
}

impl<S: Smr> std::fmt::Debug for ChaosSmr<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosSmr")
            .field("inner", &self.inner.kind().name())
            .field("planned", &self.plan.ops.len())
            .finish()
    }
}

impl<S: Smr> ChaosSmr<S> {
    /// Wraps `inner`, arming `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> ChaosSmr<S> {
        let plan = FaultPlan::new(plan.seed, plan.ops);
        let st = State {
            clock: CachePadded::new(AtomicU64::new(0)),
            next_wake: CachePadded::new(AtomicU64::new(
                plan.ops.first().map_or(u64::MAX, |a| a.at_op()),
            )),
            restart_budget: AtomicU64::new(0),
            register_fail: AtomicU64::new(0),
            flush_until: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            held_peak: AtomicUsize::new(0),
            rt: Mutex::new(Rt {
                pending: plan.ops.clone(),
                cursor: 0,
                stalled: Vec::new(),
                hostages: Vec::new(),
                deferred_flushes: 0,
                log: Vec::new(),
            }),
            tracer: OnceLock::new(),
        };
        ChaosSmr { inner, plan, st }
    }

    /// Wraps `inner` with an empty plan: a transparent pass-through.
    pub fn transparent(inner: S) -> ChaosSmr<S> {
        ChaosSmr::new(inner, FaultPlan::empty())
    }

    /// The wrapped scheme.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The armed plan (sorted).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Current op-clock reading.
    pub fn op_clock(&self) -> u64 {
        self.st.clock.load(Ordering::Relaxed)
    }

    /// Faults fired so far.
    pub fn faults_injected(&self) -> u64 {
        self.st.faults.load(Ordering::Relaxed)
    }

    /// Peak number of victim contexts held at once (stalls + hostages).
    pub fn held_peak(&self) -> usize {
        self.st.held_peak.load(Ordering::Relaxed)
    }

    /// The faults fired so far, in firing order — the replay witness
    /// the determinism tests compare.
    pub fn fault_log(&self) -> Vec<FaultRecord> {
        lock(&self.st.rt).log.clone()
    }

    /// Ends the chaos: releases every held victim gracefully, replays
    /// any deferred flush through `ctx`, and cancels standing budgets
    /// (restart storms, injected registration failures, flush
    /// suppression). Pending *future* actions stay armed. Call before
    /// drain/shutdown so recovery is measured against a quiet plan.
    pub fn quiesce(&self, ctx: &mut S::ThreadCtx) {
        let mut rt = lock(&self.st.rt);
        for (_, mut v) in rt.stalled.drain(..) {
            self.inner.end_op(&mut v);
        }
        rt.hostages.clear();
        let deferred = std::mem::take(&mut rt.deferred_flushes);
        // SAFETY(ordering): Relaxed — budget and wake words are
        // advisory gates re-checked on the cold path under the rt
        // lock; releasing that lock below publishes this reset.
        self.st.restart_budget.store(0, Ordering::Relaxed);
        self.st.register_fail.store(0, Ordering::Relaxed);
        self.st.flush_until.store(0, Ordering::Relaxed);
        let wake = rt.pending.get(rt.cursor).map_or(u64::MAX, |a| a.at_op());
        self.st.next_wake.store(wake, Ordering::Relaxed);
        drop(rt);
        if deferred > 0 {
            self.inner.flush(ctx);
        }
    }

    /// Fires `action` at clock reading `op`. Called under the runtime
    /// lock; touches the inner scheme only through its public surface.
    fn fire(&self, rt: &mut Rt<S::ThreadCtx>, op: u64, action: FaultAction) {
        match action {
            FaultAction::DiePinned { .. } => {
                // A fresh context pins, retires canary garbage, and
                // dies without end_op: the orphan-adoption path plus
                // the slot-release-on-death path in one fault. When
                // registration fails (slots exhausted by an earlier
                // fault) the death degenerates to a no-op — still
                // recorded, since the *plan* fired.
                if let Ok(mut v) = self.inner.register() {
                    self.inner.begin_op(&mut v);
                    for _ in 0..DIE_PINNED_GARBAGE {
                        let node = Box::into_raw(Box::new(ChaosNode {
                            header: SmrHeader::new(),
                            payload: op,
                        }));
                        // SAFETY: `node` is freshly allocated, private
                        // to this call, and never published — retiring
                        // it is trivially well-formed; the header is
                        // the node's own, initialized by the scheme.
                        unsafe {
                            self.inner.init_header(&mut v, &(*node).header);
                            self.inner.retire(
                                &mut v,
                                node as *mut u8,
                                &(*node).header,
                                free_chaos_node,
                            );
                        }
                    }
                    drop(v);
                }
            }
            FaultAction::StallThread { for_ops, .. } => {
                if let Ok(mut v) = self.inner.register() {
                    self.inner.begin_op(&mut v);
                    rt.stalled.push((op.saturating_add(for_ops.max(1)), v));
                }
            }
            FaultAction::DelayFlush { for_ops, .. } => {
                // SAFETY(ordering): Relaxed — an advisory window bound;
                // a racing flush that misses it by one op only shifts
                // when the fault lands, which the chaos model allows.
                self.st
                    .flush_until
                    .store(op.saturating_add(for_ops.max(1)), Ordering::Relaxed);
            }
            FaultAction::FailRegister { count, .. } | FaultAction::FailAlloc { count, .. } => {
                // SAFETY(ordering): Relaxed — a monotone failure budget
                // later consumed by CAS in register(); it never carries
                // dependent data, only a count.
                self.st
                    .register_fail
                    .fetch_add(count.max(1), Ordering::Relaxed);
            }
            FaultAction::ExhaustSlots { for_ops, .. } => {
                let mut grabbed = Vec::new();
                while grabbed.len() < EXHAUST_CAP {
                    match self.inner.register() {
                        Ok(c) => grabbed.push(c),
                        Err(_) => break,
                    }
                }
                rt.hostages
                    .push((op.saturating_add(for_ops.max(1)), grabbed));
            }
            FaultAction::RestartStorm { count, .. } => {
                // SAFETY(ordering): Relaxed — same monotone-budget shape
                // as register_fail: consumed by CAS in needs_restart,
                // no payload rides on it.
                self.st
                    .restart_budget
                    .fetch_add(count.max(1), Ordering::Relaxed);
            }
        }
        let held = rt.stalled.len() + rt.hostages.iter().map(|(_, h)| h.len()).sum::<usize>();
        // SAFETY(ordering): Relaxed — held_peak and faults are
        // telemetry, read by assertions after the run (or behind the
        // rt lock); no ordering is required.
        self.st.held_peak.fetch_max(held, Ordering::Relaxed);
        rt.log.push(FaultRecord {
            kind: action.kind(),
            planned_at: action.at_op(),
            fired_at: op,
        });
        // SAFETY(ordering): Relaxed — run-level fault tally, see above.
        self.st.faults.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.st.tracer.get() {
            lock(t).emit(Hook::Fault, action.kind() as u64, op);
        }
    }

    /// Cold path behind the `next_wake` gate: fire due actions,
    /// release expired victims, replay deferred flushes, re-arm.
    fn poll(&self, op: u64, ctx: Option<&mut S::ThreadCtx>) {
        let mut rt = lock(&self.st.rt);
        while rt.cursor < rt.pending.len() && rt.pending[rt.cursor].at_op() <= op {
            let action = rt.pending[rt.cursor];
            rt.cursor += 1;
            self.fire(&mut rt, op, action);
        }
        let mut i = 0;
        while i < rt.stalled.len() {
            if rt.stalled[i].0 <= op {
                let (_, mut v) = rt.stalled.swap_remove(i);
                // Graceful release: the stall *ends*, it is not a
                // death — unfreeze the announcement, then retire the
                // victim context normally.
                self.inner.end_op(&mut v);
                drop(v);
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < rt.hostages.len() {
            if rt.hostages[i].0 <= op {
                rt.hostages.swap_remove(i);
            } else {
                i += 1;
            }
        }
        if rt.deferred_flushes > 0 && self.st.flush_until.load(Ordering::Relaxed) <= op {
            rt.deferred_flushes = 0;
            if let Some(c) = ctx {
                // The delayed flush replays here, on whichever thread
                // crossed the window's end — a reordered flush.
                self.inner.flush(c);
            }
        }
        let mut wake = rt.pending.get(rt.cursor).map_or(u64::MAX, |a| a.at_op());
        for (release, _) in &rt.stalled {
            wake = wake.min(*release);
        }
        for (release, _) in &rt.hostages {
            wake = wake.min(*release);
        }
        if rt.deferred_flushes > 0 {
            wake = wake.min(self.st.flush_until.load(Ordering::Relaxed));
        }
        // SAFETY(ordering): Relaxed — next_wake is an advisory fast-path
        // gate; a stale read costs one extra poll() under the rt lock,
        // never a missed fault (poll re-checks the real schedule).
        self.st.next_wake.store(wake, Ordering::Relaxed);
    }
}

impl<S: Smr> Smr for ChaosSmr<S> {
    type ThreadCtx = S::ThreadCtx;

    fn register(&self) -> Result<S::ThreadCtx, RegisterError> {
        let mut n = self.st.register_fail.load(Ordering::Relaxed);
        while n > 0 {
            // SAFETY(ordering): Relaxed/Relaxed — the budget word
            // carries no dependent data; the CAS only needs the
            // decrement itself to be atomic.
            match self.st.register_fail.compare_exchange_weak(
                n,
                n - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                // Injected failure: capacity 0 marks it as chaos,
                // not a genuinely full registry.
                Ok(_) => return Err(RegisterError { capacity: 0 }),
                Err(cur) => n = cur,
            }
        }
        self.inner.register()
    }

    fn kind(&self) -> SchemeKind {
        // Transparent on purpose: records and trace ids key off the
        // scheme under test, not the harness around it.
        self.inner.kind()
    }

    fn attach_recorder(&self, recorder: &Recorder) {
        self.inner.attach_recorder(recorder);
        let _ = self.st.tracer.set(Mutex::new(
            recorder.tracer(CHAOS_THREAD, self.inner.kind().id()),
        ));
    }

    fn begin_op(&self, ctx: &mut S::ThreadCtx) {
        // SAFETY(ordering): Relaxed — the op clock only orders
        // faults against this thread's own ops; cross-thread slack
        // is part of the chaos model (fired_at >= planned_at).
        let op = self.st.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if op >= self.st.next_wake.load(Ordering::Relaxed) {
            self.poll(op, Some(&mut *ctx));
        }
        self.inner.begin_op(ctx);
    }

    fn end_op(&self, ctx: &mut S::ThreadCtx) {
        self.inner.end_op(ctx);
    }

    fn load(
        &self,
        ctx: &mut S::ThreadCtx,
        slot: usize,
        src: &std::sync::atomic::AtomicUsize,
    ) -> usize {
        self.inner.load(ctx, slot, src)
    }

    fn protect_alias(&self, ctx: &mut S::ThreadCtx, dst_slot: usize, src_slot: usize, word: usize) {
        self.inner.protect_alias(ctx, dst_slot, src_slot, word);
    }

    fn init_header(&self, ctx: &mut S::ThreadCtx, header: &SmrHeader) {
        self.inner.init_header(ctx, header);
    }

    /// # Safety
    ///
    /// Same contract as the inner scheme's `retire` — delegated
    /// verbatim; the decorator adds nothing between caller and scheme.
    unsafe fn retire(
        &self,
        ctx: &mut S::ThreadCtx,
        ptr: *mut u8,
        header: *const SmrHeader,
        drop_fn: DropFn,
    ) {
        // SAFETY: same contract, delegated verbatim.
        unsafe { self.inner.retire(ctx, ptr, header, drop_fn) }
    }

    fn enter_read_phase(&self, ctx: &mut S::ThreadCtx) {
        self.inner.enter_read_phase(ctx);
    }

    fn needs_restart(&self, ctx: &mut S::ThreadCtx) -> bool {
        let mut n = self.st.restart_budget.load(Ordering::Relaxed);
        while n > 0 {
            // SAFETY(ordering): Relaxed/Relaxed — monotone budget
            // decrement, same shape as register(); atomicity alone
            // bounds the storm to the planned count.
            match self.st.restart_budget.compare_exchange_weak(
                n,
                n - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true, // spurious, bounded by the budget
                Err(cur) => n = cur,
            }
        }
        self.inner.needs_restart(ctx)
    }

    fn reserve(&self, ctx: &mut S::ThreadCtx, slot: usize, word: usize) {
        self.inner.reserve(ctx, slot, word);
    }

    fn commit_reservations(&self, ctx: &mut S::ThreadCtx) -> bool {
        self.inner.commit_reservations(ctx)
    }

    fn clear_reservations(&self, ctx: &mut S::ThreadCtx) {
        self.inner.clear_reservations(ctx);
    }

    /// # Safety
    ///
    /// Same contract as the inner scheme's `neutralize` — delegated
    /// verbatim.
    unsafe fn neutralize(&self, slot: usize) -> bool {
        // SAFETY: same contract, delegated verbatim.
        unsafe { self.inner.neutralize(slot) }
    }

    fn stats(&self) -> SmrStats {
        self.inner.stats()
    }

    fn flush(&self, ctx: &mut S::ThreadCtx) {
        let now = self.st.clock.load(Ordering::Relaxed);
        if now < self.st.flush_until.load(Ordering::Relaxed) {
            lock(&self.st.rt).deferred_flushes += 1;
            return;
        }
        self.inner.flush(ctx);
    }
}

// SAFETY: pure delegation — every protection-relevant call forwards to
// `S` unchanged, and injections only create additional scheme-owned
// contexts and garbage through the same public surface, which cannot
// weaken the inner scheme's traversal guarantee.
unsafe impl<S: SupportsUnlinkedTraversal> SupportsUnlinkedTraversal for ChaosSmr<S> {}

// SAFETY: as above — `begin_op`/`end_op` bracket protection is the
// inner scheme's, forwarded verbatim.
unsafe impl<S: EpochProtected> EpochProtected for ChaosSmr<S> {}

#[cfg(test)]
mod tests {
    use super::*;
    use era_smr::ebr::Ebr;
    use era_smr::leak::Leak;

    /// # Safety
    ///
    /// `p` must be a leaked `Box<u64>`, passed here exactly once.
    unsafe fn free_u64(p: *mut u8) {
        // SAFETY: the contract above.
        unsafe { drop(Box::from_raw(p as *mut u64)) }
    }

    fn spin<S: Smr>(smr: &S, ctx: &mut S::ThreadCtx, ops: usize) {
        for _ in 0..ops {
            smr.begin_op(ctx);
            smr.end_op(ctx);
        }
    }

    #[test]
    fn empty_plan_is_transparent() {
        let smr = ChaosSmr::transparent(Leak::new(4));
        let mut ctx = smr.register().unwrap();
        spin(&smr, &mut ctx, 100);
        assert_eq!(smr.faults_injected(), 0);
        assert!(smr.fault_log().is_empty());
        assert_eq!(smr.stats().total_retired, 0);
        assert_eq!(smr.kind(), SchemeKind::Leak);
        assert_eq!(smr.op_clock(), 100);
    }

    #[test]
    fn die_pinned_orphans_are_adopted_and_drained() {
        let plan = FaultPlan::new(0, vec![FaultAction::DiePinned { at_op: 3 }]);
        let smr = ChaosSmr::new(Ebr::with_threshold(8, 2), plan);
        let mut ctx = smr.register().unwrap();
        spin(&smr, &mut ctx, 16);
        assert_eq!(smr.faults_injected(), 1);
        assert_eq!(
            smr.fault_log(),
            vec![FaultRecord {
                kind: 0,
                planned_at: 3,
                fired_at: 3
            }]
        );
        // The victim's canary garbage exists and is orphaned…
        assert_eq!(smr.stats().total_retired, 4);
        // …and survivors adopt and free it.
        for _ in 0..6 {
            spin(&smr, &mut ctx, 1);
            smr.flush(&mut ctx);
        }
        assert_eq!(smr.stats().retired_now, 0, "{}", smr.stats());
    }

    #[test]
    fn stall_holds_a_pin_then_releases() {
        let plan = FaultPlan::new(
            0,
            vec![FaultAction::StallThread {
                at_op: 2,
                for_ops: 10,
            }],
        );
        let smr = ChaosSmr::new(Ebr::with_threshold(8, 1), plan);
        let mut ctx = smr.register().unwrap();
        // Retire churn while the victim pins the epoch: footprint grows.
        let retire_one = |ctx: &mut _| {
            let p = Box::into_raw(Box::new(0u64)) as *mut u8;
            // SAFETY: p is the Box::into_raw of the u64 above; retire
            // passes it to free_u64 exactly once.
            unsafe { smr.retire(ctx, p, std::ptr::null(), free_u64) };
        };
        for _ in 0..8 {
            smr.begin_op(&mut ctx);
            retire_one(&mut ctx);
            smr.end_op(&mut ctx);
            smr.flush(&mut ctx);
        }
        assert!(smr.held_peak() >= 1);
        assert!(
            smr.stats().retired_now > 0,
            "stalled pin must hold garbage: {}",
            smr.stats()
        );
        // Pass the window: the victim is released and churn drains.
        for _ in 0..12 {
            smr.begin_op(&mut ctx);
            smr.end_op(&mut ctx);
            smr.flush(&mut ctx);
        }
        assert_eq!(smr.stats().retired_now, 0, "{}", smr.stats());
    }

    #[test]
    fn fail_register_and_exhaust_slots() {
        let plan = FaultPlan::new(
            0,
            vec![
                FaultAction::FailRegister { at_op: 1, count: 2 },
                FaultAction::ExhaustSlots {
                    at_op: 4,
                    for_ops: 6,
                },
            ],
        );
        let smr = ChaosSmr::new(Leak::new(4), plan);
        let mut ctx = smr.register().unwrap();
        spin(&smr, &mut ctx, 1);
        assert_eq!(
            smr.register().unwrap_err(),
            RegisterError { capacity: 0 },
            "injected failure reports capacity 0"
        );
        assert!(smr.register().is_err());
        let real = smr.register().expect("budget spent: registry has room");
        drop(real);
        spin(&smr, &mut ctx, 3); // fires ExhaustSlots at op 4
        assert!(
            smr.register().is_err(),
            "hostages hold every remaining slot"
        );
        spin(&smr, &mut ctx, 7); // window closes, hostages released
        assert!(smr.register().is_ok());
        assert_eq!(smr.faults_injected(), 2);
    }

    #[test]
    fn restart_storm_is_spurious_and_bounded() {
        let plan = FaultPlan::new(0, vec![FaultAction::RestartStorm { at_op: 1, count: 3 }]);
        let smr = ChaosSmr::new(Leak::new(2), plan);
        let mut ctx = smr.register().unwrap();
        spin(&smr, &mut ctx, 1);
        let hits = (0..10).filter(|_| smr.needs_restart(&mut ctx)).count();
        assert_eq!(hits, 3, "exactly the budgeted spurious restarts");
    }

    #[test]
    fn delayed_flush_replays_after_the_window() {
        let plan = FaultPlan::new(
            0,
            vec![FaultAction::DelayFlush {
                at_op: 1,
                for_ops: 5,
            }],
        );
        // Threshold 1: a flush would normally drain immediately.
        let smr = ChaosSmr::new(Ebr::with_threshold(4, 1), plan);
        let mut ctx = smr.register().unwrap();
        smr.begin_op(&mut ctx);
        let p = Box::into_raw(Box::new(7u64)) as *mut u8;
        // SAFETY: p is the Box::into_raw of the u64 above; retire
        // passes it to free_u64 exactly once.
        unsafe { smr.retire(&mut ctx, p, std::ptr::null(), free_u64) };
        smr.end_op(&mut ctx);
        smr.flush(&mut ctx); // swallowed by the window
        assert_eq!(smr.stats().retired_now, 1, "flush was suppressed");
        spin(&smr, &mut ctx, 8); // window closes; deferred flush replays
        smr.flush(&mut ctx);
        assert_eq!(smr.stats().retired_now, 0, "{}", smr.stats());
    }

    #[test]
    fn quiesce_releases_everything() {
        let plan = FaultPlan::new(
            0,
            vec![
                FaultAction::StallThread {
                    at_op: 1,
                    for_ops: 1_000_000,
                },
                FaultAction::FailRegister {
                    at_op: 1,
                    count: 1_000,
                },
            ],
        );
        let smr = ChaosSmr::new(Ebr::with_threshold(8, 1), plan);
        let mut ctx = smr.register().unwrap();
        spin(&smr, &mut ctx, 2);
        assert!(smr.register().is_err(), "failure budget armed");
        smr.quiesce(&mut ctx);
        assert!(smr.register().is_ok(), "quiesce cancels budgets");
        spin(&smr, &mut ctx, 2);
        smr.flush(&mut ctx);
        assert_eq!(smr.stats().retired_now, 0);
    }
}
