//! Applicability (§5.3, Definitions 5.4–5.6) and access-aware
//! implementations (Appendix C).
//!
//! A reclamation scheme is **applicable** to a plain implementation when
//! the integrated implementation (1) is memory-safe per Definition 4.2,
//! (2) remains linearizable, and (3) preserves the plain
//! implementation's progress guarantee. It is **strongly applicable**
//! when applicable to *every* plain implementation (EBR, Appendix A) and
//! **widely applicable** when applicable to every *access-aware*
//! implementation — the class of Singh et al. \[39\]: implementations
//! divisible into alternating read-only and write phases obeying the
//! permitted-pointer discipline formalized in Appendix C and implemented
//! here by [`AccessAwareChecker`].

use std::collections::HashMap;
use std::fmt;

use crate::ids::ThreadId;
use crate::validity::VarId;

/// Progress guarantees, ordered weakest-to-strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProgressGuarantee {
    /// Some thread may block all others (locking).
    Blocking,
    /// A thread running alone makes progress.
    ObstructionFree,
    /// Some effective pending operation always completes (minimal
    /// progress for every history, maximal for some — §3).
    LockFree,
    /// Every effective pending operation completes.
    WaitFree,
}

impl fmt::Display for ProgressGuarantee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProgressGuarantee::Blocking => "blocking",
            ProgressGuarantee::ObstructionFree => "obstruction-free",
            ProgressGuarantee::LockFree => "lock-free",
            ProgressGuarantee::WaitFree => "wait-free",
        };
        f.write_str(s)
    }
}

/// Definition 5.4 evidence for one (scheme, plain implementation) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplicabilityVerdict {
    /// Condition 1: the scheme is an SMR w.r.t. the implementation.
    pub memory_safe: bool,
    /// Condition 2: the integrated implementation is linearizable.
    pub linearizable: bool,
    /// Condition 3: the plain implementation's progress guarantee is
    /// preserved.
    pub progress_preserved: bool,
}

impl ApplicabilityVerdict {
    /// Whether all three conditions hold.
    pub fn is_applicable(self) -> bool {
        self.memory_safe && self.linearizable && self.progress_preserved
    }

    /// The fully-applicable verdict.
    pub fn applicable() -> Self {
        ApplicabilityVerdict {
            memory_safe: true,
            linearizable: true,
            progress_preserved: true,
        }
    }
}

impl fmt::Display for ApplicabilityVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_applicable() {
            write!(f, "applicable")
        } else {
            write!(
                f,
                "not applicable (safety={}, linearizability={}, progress={})",
                self.memory_safe, self.linearizable, self.progress_preserved
            )
        }
    }
}

/// How broadly a scheme applies (Definitions 5.5/5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplicabilityClass {
    /// Applicable to every plain implementation (EBR only, App. A).
    Strong,
    /// Applicable to all access-aware implementations — in particular
    /// to Harris's linked list, the §6 litmus test.
    Wide,
    /// Fails on some access-aware implementation (HP/HE/IBR fail on
    /// Harris's list, App. E).
    Limited,
}

impl ApplicabilityClass {
    /// Whether this class satisfies Definition 5.6.
    pub fn is_wide(self) -> bool {
        matches!(self, ApplicabilityClass::Strong | ApplicabilityClass::Wide)
    }
}

impl fmt::Display for ApplicabilityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ApplicabilityClass::Strong => "strongly applicable",
            ApplicabilityClass::Wide => "widely applicable",
            ApplicabilityClass::Limited => "limited applicability",
        };
        f.write_str(s)
    }
}

/// Phase kinds of the Appendix C discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Read-only phase: shared nodes may be read only through pointers
    /// obtained during the current phase.
    ReadOnly,
    /// Write phase: shared accesses only through pointers obtained in
    /// the *preceding* read-only phase (or still-local allocations).
    Write,
}

impl fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhaseKind::ReadOnly => write!(f, "read-only"),
            PhaseKind::Write => write!(f, "write"),
        }
    }
}

/// An event in the access-aware discipline stream (per thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseEvent {
    /// The thread enters a new phase.
    PhaseStart(PhaseKind),
    /// `var` received a fresh allocation (still local to the thread).
    LocalAlloc {
        /// Destination variable.
        var: VarId,
    },
    /// The node referenced by `var` became shared; allocation-based
    /// permission expires.
    Shared {
        /// Variable referencing the now-shared node.
        var: VarId,
    },
    /// `var` was assigned from a global variable (a data-structure
    /// entry point).
    ReadGlobalInto {
        /// Destination variable.
        var: VarId,
    },
    /// `dst` was read from a pointer field of the node referenced by
    /// `src` (a shared-memory read that dereferences `src`).
    DerefReadInto {
        /// Dereferenced pointer.
        src: VarId,
        /// Destination variable.
        dst: VarId,
    },
    /// Local pointer assignment `dst := src` (no shared-memory access;
    /// `dst` inherits `src`'s permission).
    LocalCopy {
        /// Source variable.
        src: VarId,
        /// Destination variable.
        dst: VarId,
    },
    /// A shared-memory write dereferencing `via`.
    SharedWrite {
        /// Dereferenced pointer.
        via: VarId,
    },
}

/// A violation of the Appendix C conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseViolation {
    /// Shared write outside a write phase (condition 3).
    WriteInReadOnlyPhase {
        /// Thread at fault.
        thread: ThreadId,
    },
    /// Dereferenced a pointer that is not permitted in the current
    /// phase (conditions 1–3).
    UnpermittedDeref {
        /// Thread at fault.
        thread: ThreadId,
        /// The pointer.
        var: VarId,
    },
    /// Two consecutive phases of the same kind (the division must
    /// alternate).
    NonAlternatingPhases {
        /// Thread at fault.
        thread: ThreadId,
    },
    /// A shared access before any phase was started.
    AccessOutsidePhases {
        /// Thread at fault.
        thread: ThreadId,
    },
}

impl fmt::Display for PhaseViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhaseViolation::WriteInReadOnlyPhase { thread } => {
                write!(f, "{thread}: shared write during a read-only phase")
            }
            PhaseViolation::UnpermittedDeref { thread, var } => {
                write!(f, "{thread}: dereference of unpermitted pointer {var}")
            }
            PhaseViolation::NonAlternatingPhases { thread } => {
                write!(f, "{thread}: consecutive phases of the same kind")
            }
            PhaseViolation::AccessOutsidePhases { thread } => {
                write!(f, "{thread}: shared access before any phase started")
            }
        }
    }
}

/// How a pointer variable acquired its current value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Acquisition {
    /// Obtained during phase number `n` (global read or deref chain).
    InPhase(u64),
    /// A fresh allocation, node still local.
    LocalAlloc,
}

#[derive(Debug, Default)]
struct ThreadPhaseState {
    /// Phase counter; 0 = no phase yet.
    phase: u64,
    kind: Option<PhaseKind>,
    acquired: HashMap<VarId, Acquisition>,
}

/// Checks the Appendix C access-aware discipline over a stream of
/// per-thread [`PhaseEvent`]s.
///
/// A plain implementation is *access-aware* when it admits a phase
/// division under which no execution produces a violation. The
/// simulator's Harris-list interpreter emits the phase division of
/// Appendix D; running it through this checker reproduces the paper's
/// claim that Harris's list is access-aware.
///
/// # Example
///
/// ```
/// use era_core::applicability::{AccessAwareChecker, PhaseEvent, PhaseKind};
/// use era_core::ids::ThreadId;
/// use era_core::validity::VarId;
///
/// let mut chk = AccessAwareChecker::new();
/// let t = ThreadId(0);
/// let (pred, curr) = (VarId(0), VarId(1));
/// chk.record(t, PhaseEvent::PhaseStart(PhaseKind::ReadOnly));
/// chk.record(t, PhaseEvent::ReadGlobalInto { var: pred });      // pred = head
/// chk.record(t, PhaseEvent::DerefReadInto { src: pred, dst: curr }); // curr = pred.next
/// chk.record(t, PhaseEvent::PhaseStart(PhaseKind::Write));
/// chk.record(t, PhaseEvent::SharedWrite { via: pred });          // CAS(pred.next, …)
/// assert!(chk.violations().is_empty());
/// ```
#[derive(Debug, Default)]
pub struct AccessAwareChecker {
    threads: HashMap<ThreadId, ThreadPhaseState>,
    violations: Vec<PhaseViolation>,
}

impl AccessAwareChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `var` may be dereferenced by `state` in its current phase.
    fn permitted(state: &ThreadPhaseState, var: VarId) -> bool {
        match (state.kind, state.acquired.get(&var)) {
            (_, Some(Acquisition::LocalAlloc)) => true,
            (Some(PhaseKind::ReadOnly), Some(Acquisition::InPhase(p))) => *p == state.phase,
            (Some(PhaseKind::Write), Some(Acquisition::InPhase(p))) => {
                // Obtained during the preceding read-only phase.
                *p + 1 == state.phase
            }
            _ => false,
        }
    }

    /// Records one event for `thread`.
    pub fn record(&mut self, thread: ThreadId, event: PhaseEvent) {
        let state = self.threads.entry(thread).or_default();
        match event {
            PhaseEvent::PhaseStart(kind) => {
                if state.kind == Some(kind) {
                    self.violations
                        .push(PhaseViolation::NonAlternatingPhases { thread });
                }
                state.phase += 1;
                state.kind = Some(kind);
            }
            PhaseEvent::LocalAlloc { var } => {
                state.acquired.insert(var, Acquisition::LocalAlloc);
            }
            PhaseEvent::Shared { var } => {
                // The allocation-based permission expires; treat as
                // acquired in the current phase (the thread obviously
                // still holds a fresh pointer to it).
                if state.acquired.get(&var) == Some(&Acquisition::LocalAlloc) {
                    state
                        .acquired
                        .insert(var, Acquisition::InPhase(state.phase));
                }
            }
            PhaseEvent::ReadGlobalInto { var } => {
                if state.kind.is_none() {
                    self.violations
                        .push(PhaseViolation::AccessOutsidePhases { thread });
                    return;
                }
                state
                    .acquired
                    .insert(var, Acquisition::InPhase(state.phase));
            }
            PhaseEvent::DerefReadInto { src, dst } => {
                if state.kind.is_none() {
                    self.violations
                        .push(PhaseViolation::AccessOutsidePhases { thread });
                    return;
                }
                if !Self::permitted(state, src) {
                    self.violations
                        .push(PhaseViolation::UnpermittedDeref { thread, var: src });
                }
                // In a read-only phase the result is permitted for the
                // current phase; in a write phase the result is obtained
                // *during* the write phase and therefore not
                // dereferenceable until a later acquisition.
                match state.kind {
                    Some(PhaseKind::ReadOnly) => {
                        state
                            .acquired
                            .insert(dst, Acquisition::InPhase(state.phase));
                    }
                    Some(PhaseKind::Write) => {
                        // Mark as acquired in the *write* phase: never
                        // permitted for deref (neither now nor after the
                        // next read-only phase begins).
                        state
                            .acquired
                            .insert(dst, Acquisition::InPhase(state.phase));
                    }
                    None => {}
                }
            }
            PhaseEvent::LocalCopy { src, dst } => {
                let acq = state.acquired.get(&src).copied();
                match acq {
                    Some(a) => {
                        state.acquired.insert(dst, a);
                    }
                    None => {
                        state.acquired.remove(&dst);
                    }
                }
            }
            PhaseEvent::SharedWrite { via } => {
                match state.kind {
                    None => {
                        self.violations
                            .push(PhaseViolation::AccessOutsidePhases { thread });
                        return;
                    }
                    Some(PhaseKind::ReadOnly) => {
                        self.violations
                            .push(PhaseViolation::WriteInReadOnlyPhase { thread });
                        return;
                    }
                    Some(PhaseKind::Write) => {}
                }
                if !Self::permitted(state, via) {
                    self.violations
                        .push(PhaseViolation::UnpermittedDeref { thread, var: via });
                }
            }
        }
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[PhaseViolation] {
        &self.violations
    }

    /// Whether the execution respected the discipline.
    pub fn is_access_aware(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: ThreadId = ThreadId(0);
    const P: VarId = VarId(0);
    const Q: VarId = VarId(1);
    const R: VarId = VarId(2);

    #[test]
    fn harris_search_shape_is_clean() {
        // read-only: traverse from head; write: unlink + return window.
        let mut c = AccessAwareChecker::new();
        c.record(T, PhaseEvent::PhaseStart(PhaseKind::ReadOnly));
        c.record(T, PhaseEvent::ReadGlobalInto { var: P });
        c.record(T, PhaseEvent::DerefReadInto { src: P, dst: Q });
        c.record(T, PhaseEvent::DerefReadInto { src: Q, dst: R });
        c.record(T, PhaseEvent::PhaseStart(PhaseKind::Write));
        c.record(T, PhaseEvent::SharedWrite { via: P });
        c.record(T, PhaseEvent::SharedWrite { via: Q });
        assert!(c.is_access_aware());
    }

    #[test]
    fn write_in_read_only_phase_flagged() {
        let mut c = AccessAwareChecker::new();
        c.record(T, PhaseEvent::PhaseStart(PhaseKind::ReadOnly));
        c.record(T, PhaseEvent::ReadGlobalInto { var: P });
        c.record(T, PhaseEvent::SharedWrite { via: P });
        assert_eq!(
            c.violations(),
            &[PhaseViolation::WriteInReadOnlyPhase { thread: T }]
        );
    }

    #[test]
    fn stale_pointer_from_older_phase_flagged() {
        let mut c = AccessAwareChecker::new();
        c.record(T, PhaseEvent::PhaseStart(PhaseKind::ReadOnly));
        c.record(T, PhaseEvent::ReadGlobalInto { var: P });
        c.record(T, PhaseEvent::PhaseStart(PhaseKind::Write));
        c.record(T, PhaseEvent::PhaseStart(PhaseKind::ReadOnly));
        // P was acquired two phases ago: not permitted in this phase.
        c.record(T, PhaseEvent::DerefReadInto { src: P, dst: Q });
        assert_eq!(
            c.violations(),
            &[PhaseViolation::UnpermittedDeref { thread: T, var: P }]
        );
    }

    #[test]
    fn pointer_read_during_write_phase_not_dereferenceable() {
        let mut c = AccessAwareChecker::new();
        c.record(T, PhaseEvent::PhaseStart(PhaseKind::ReadOnly));
        c.record(T, PhaseEvent::ReadGlobalInto { var: P });
        c.record(T, PhaseEvent::PhaseStart(PhaseKind::Write));
        c.record(T, PhaseEvent::DerefReadInto { src: P, dst: Q }); // ok: reads P
        c.record(T, PhaseEvent::DerefReadInto { src: Q, dst: R }); // Q obtained in write phase
        assert_eq!(
            c.violations(),
            &[PhaseViolation::UnpermittedDeref { thread: T, var: Q }]
        );
    }

    #[test]
    fn local_allocation_always_permitted_until_shared() {
        let mut c = AccessAwareChecker::new();
        c.record(T, PhaseEvent::PhaseStart(PhaseKind::ReadOnly));
        c.record(T, PhaseEvent::LocalAlloc { var: P });
        c.record(T, PhaseEvent::PhaseStart(PhaseKind::Write));
        c.record(T, PhaseEvent::SharedWrite { via: P }); // linking the new node
        c.record(T, PhaseEvent::Shared { var: P });
        assert!(c.is_access_aware());
        // After sharing + a new phase, the old pointer is stale.
        c.record(T, PhaseEvent::PhaseStart(PhaseKind::ReadOnly));
        c.record(T, PhaseEvent::PhaseStart(PhaseKind::Write));
        c.record(T, PhaseEvent::SharedWrite { via: P });
        assert!(!c.is_access_aware());
    }

    #[test]
    fn non_alternating_phases_flagged() {
        let mut c = AccessAwareChecker::new();
        c.record(T, PhaseEvent::PhaseStart(PhaseKind::ReadOnly));
        c.record(T, PhaseEvent::PhaseStart(PhaseKind::ReadOnly));
        assert_eq!(
            c.violations(),
            &[PhaseViolation::NonAlternatingPhases { thread: T }]
        );
    }

    #[test]
    fn access_outside_phases_flagged() {
        let mut c = AccessAwareChecker::new();
        c.record(T, PhaseEvent::ReadGlobalInto { var: P });
        assert_eq!(
            c.violations(),
            &[PhaseViolation::AccessOutsidePhases { thread: T }]
        );
    }

    #[test]
    fn threads_tracked_independently() {
        let t1 = ThreadId(1);
        let mut c = AccessAwareChecker::new();
        c.record(T, PhaseEvent::PhaseStart(PhaseKind::ReadOnly));
        c.record(T, PhaseEvent::ReadGlobalInto { var: P });
        c.record(t1, PhaseEvent::PhaseStart(PhaseKind::ReadOnly));
        // t1 never acquired P.
        c.record(t1, PhaseEvent::DerefReadInto { src: P, dst: Q });
        assert_eq!(
            c.violations(),
            &[PhaseViolation::UnpermittedDeref { thread: t1, var: P }]
        );
    }

    #[test]
    fn local_copy_inherits_permission() {
        let mut c = AccessAwareChecker::new();
        c.record(T, PhaseEvent::PhaseStart(PhaseKind::ReadOnly));
        c.record(T, PhaseEvent::ReadGlobalInto { var: P });
        c.record(T, PhaseEvent::LocalCopy { src: P, dst: Q });
        c.record(T, PhaseEvent::DerefReadInto { src: Q, dst: R });
        assert!(c.is_access_aware());
        // Copying from an unpermitted var removes permission.
        c.record(T, PhaseEvent::PhaseStart(PhaseKind::Write));
        c.record(T, PhaseEvent::PhaseStart(PhaseKind::ReadOnly));
        c.record(T, PhaseEvent::LocalCopy { src: Q, dst: R }); // Q is stale now
        c.record(T, PhaseEvent::DerefReadInto { src: R, dst: P });
        assert!(!c.is_access_aware());
    }

    #[test]
    fn verdict_helpers() {
        let ok = ApplicabilityVerdict::applicable();
        assert!(ok.is_applicable());
        assert_eq!(ok.to_string(), "applicable");
        let bad = ApplicabilityVerdict {
            memory_safe: false,
            ..ok
        };
        assert!(!bad.is_applicable());
        assert!(bad.to_string().contains("safety=false"));
        assert!(ApplicabilityClass::Strong.is_wide());
        assert!(ApplicabilityClass::Wide.is_wide());
        assert!(!ApplicabilityClass::Limited.is_wide());
    }

    #[test]
    fn progress_ordering() {
        assert!(ProgressGuarantee::WaitFree > ProgressGuarantee::LockFree);
        assert!(ProgressGuarantee::LockFree > ProgressGuarantee::ObstructionFree);
        assert!(ProgressGuarantee::ObstructionFree > ProgressGuarantee::Blocking);
        assert_eq!(ProgressGuarantee::LockFree.to_string(), "lock-free");
    }
}
