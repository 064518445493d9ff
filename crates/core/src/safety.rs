//! Safe memory reclamation (§4.3, Definition 4.2).
//!
//! A reclamation scheme is an **SMR** with respect to a plain
//! implementation if every memory access in every integrated execution
//! is safe, *or* every unsafe access `s_i` (a dereference of an invalid
//! pointer, Definition 4.1) satisfies:
//!
//! 1. the accessed node's memory still belongs to **program space** in
//!    `C_{i-1}` (it was not handed back to the system);
//! 2. `s_i` does **not update** the node's content; and
//! 3. any value read by `s_i` into a variable `v` is **never used** —
//!    every later read of `v` is preceded by an overwrite of `v`.
//!
//! The [`SafetyChecker`] consumes a stream of [`MemEvent`]s emitted by
//! the simulator and produces a [`SafetyVerdict`]: the list of unsafe
//! accesses it observed and the list of Definition 4.2 **violations**
//! (an unsafe access by itself is *not* a violation — optimistic schemes
//! such as AOA and VBR rely on that).

use std::collections::HashSet;
use std::fmt;

use crate::ids::{NodeId, StepIndex, ThreadId};
use crate::validity::{Validity, ValidityTracker, VarId};

/// How a pointer variable was updated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtrSource {
    /// A fresh allocation of `node`.
    Alloc(NodeId),
    /// Assignment from another pointer variable.
    Copy(VarId),
    /// Set to null.
    Null,
}

/// What a dereference does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DerefKind {
    /// Read a pointer field of the node into variable `dst`.
    ReadPtrInto {
        /// Destination variable.
        dst: VarId,
    },
    /// Read a non-pointer value of the node into variable `dst`.
    ReadValInto {
        /// Destination variable.
        dst: VarId,
    },
    /// Update the node's content (store, or a *successful* CAS).
    Write,
    /// An attempted update that did not change the node's content
    /// (a failed CAS) — permitted by Condition 2, which VBR exploits.
    FailedWrite,
}

/// One event in the memory-access stream fed to the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEvent {
    /// A pointer variable was updated.
    PtrUpdate {
        /// The variable.
        var: VarId,
        /// Where the new value came from.
        source: PtrSource,
    },
    /// A dereference of pointer `ptr`, i.e. an access to the node whose
    /// address is stored in it.
    Deref {
        /// Executing thread.
        thread: ThreadId,
        /// The pointer variable being dereferenced.
        ptr: VarId,
        /// What the access does.
        kind: DerefKind,
        /// Whether the memory accessed still belongs to program space.
        in_program_space: bool,
    },
    /// A node was reclaimed and became unallocated; `to_system` says the
    /// scheme returned the memory to the system rather than keeping it
    /// for re-allocation.
    Unallocate {
        /// The logical node.
        node: NodeId,
        /// Whether the memory left program space.
        to_system: bool,
    },
    /// The value of `var` was used for anything *other than* being
    /// overwritten (branching on it, arithmetic, returning it, …).
    /// Dereferences are reported as [`MemEvent::Deref`], which counts
    /// as a use of `ptr` internally.
    UseVar {
        /// Executing thread.
        thread: ThreadId,
        /// The variable read.
        var: VarId,
    },
    /// `var` was overwritten with data unrelated to any unsafe read
    /// (clears taint). Pointer overwrites via `PtrUpdate` also clear.
    OverwriteVar {
        /// The variable.
        var: VarId,
    },
}

/// Record of one unsafe memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsafeAccess {
    /// Step at which it happened.
    pub at: StepIndex,
    /// Executing thread.
    pub thread: ThreadId,
    /// The invalid pointer that was dereferenced.
    pub ptr: VarId,
    /// The node the pointer (formerly) referenced, if known.
    pub node: Option<NodeId>,
}

/// A violation of Definition 4.2 — the scheme is **not** an SMR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// Condition 1: the unsafe access touched system space.
    SystemSpaceAccess {
        /// The offending unsafe access.
        access: UnsafeAccess,
    },
    /// Condition 2: the unsafe access updated the node's content.
    MutatedReclaimed {
        /// The offending unsafe access.
        access: UnsafeAccess,
    },
    /// Condition 3: a value read by an unsafe access was later used.
    TaintedValueUsed {
        /// The unsafe access that produced the value.
        origin: UnsafeAccess,
        /// The variable through which it leaked.
        var: VarId,
        /// Step of the use.
        used_at: StepIndex,
        /// Thread that used it.
        used_by: ThreadId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::SystemSpaceAccess { access } => write!(
                f,
                "{} dereferenced invalid {} into system space at {}",
                access.thread, access.ptr, access.at
            ),
            Violation::MutatedReclaimed { access } => write!(
                f,
                "{} mutated reclaimed memory via invalid {} at {}",
                access.thread, access.ptr, access.at
            ),
            Violation::TaintedValueUsed {
                origin,
                var,
                used_at,
                used_by,
            } => write!(
                f,
                "{used_by} used {var} at {used_at}, tainted by unsafe read at {} via {}",
                origin.at, origin.ptr
            ),
        }
    }
}

/// Outcome of checking an execution's access stream.
#[derive(Debug, Clone, Default)]
pub struct SafetyVerdict {
    /// Every unsafe access observed (not necessarily violations).
    pub unsafe_accesses: Vec<UnsafeAccess>,
    /// Definition 4.2 violations. Empty ⇒ the scheme behaved as an SMR
    /// on this execution.
    pub violations: Vec<Violation>,
}

impl SafetyVerdict {
    /// Whether the execution satisfied Definition 4.2.
    pub fn is_smr(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether every access was safe outright (no unsafe accesses at
    /// all) — the stronger, non-optimistic discipline of e.g. HP on
    /// Michael's list or EBR anywhere.
    pub fn all_accesses_safe(&self) -> bool {
        self.unsafe_accesses.is_empty()
    }
}

impl fmt::Display for SafetyVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} unsafe access(es), {} violation(s)",
            self.unsafe_accesses.len(),
            self.violations.len()
        )
    }
}

/// Streaming checker for Definitions 4.1 and 4.2.
///
/// Feed it every memory-relevant step via [`SafetyChecker::record`];
/// read the verdict with [`SafetyChecker::verdict`]. The checker owns a
/// [`ValidityTracker`] which callers may inspect via
/// [`SafetyChecker::validity`].
///
/// # Example
///
/// ```
/// use era_core::ids::{NodeId, ThreadId};
/// use era_core::safety::{DerefKind, MemEvent, PtrSource, SafetyChecker};
/// use era_core::validity::VarId;
///
/// let mut chk = SafetyChecker::new();
/// let (p, v) = (VarId(0), VarId(1));
/// let n = NodeId::first(0);
/// let t = ThreadId(0);
/// chk.record(MemEvent::PtrUpdate { var: p, source: PtrSource::Alloc(n) });
/// chk.record(MemEvent::Unallocate { node: n, to_system: false });
/// // An optimistic read through the now-invalid pointer: unsafe but OK
/// chk.record(MemEvent::Deref {
///     thread: t, ptr: p, kind: DerefKind::ReadValInto { dst: v }, in_program_space: true,
/// });
/// assert!(chk.verdict().is_smr());
/// // Using the tainted value breaks Condition 3:
/// chk.record(MemEvent::UseVar { thread: t, var: v });
/// assert!(!chk.verdict().is_smr());
/// ```
#[derive(Debug, Default)]
pub struct SafetyChecker {
    validity: ValidityTracker,
    verdict: SafetyVerdict,
    /// Variables currently holding a value read by an unsafe access,
    /// mapped to the access that produced it.
    tainted: std::collections::HashMap<VarId, UnsafeAccess>,
    /// Nodes whose memory left program space.
    system_space: HashSet<NodeId>,
    step: usize,
}

impl SafetyChecker {
    /// Creates a checker with an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// The embedded validity tracker (read-only).
    pub fn validity(&self) -> &ValidityTracker {
        &self.validity
    }

    /// Records one event, advancing the step counter.
    pub fn record(&mut self, event: MemEvent) {
        self.step += 1;
        let at = StepIndex(self.step);
        match event {
            MemEvent::PtrUpdate { var, source } => {
                self.tainted.remove(&var); // any overwrite clears taint
                match source {
                    PtrSource::Alloc(node) => self.validity.on_alloc(var, node),
                    PtrSource::Copy(src) => {
                        // Copying a tainted pointer value is a *use* of it.
                        if let Some(origin) = self.tainted.get(&src).copied() {
                            self.verdict.violations.push(Violation::TaintedValueUsed {
                                origin,
                                var: src,
                                used_at: at,
                                used_by: origin.thread,
                            });
                        }
                        self.validity.on_copy(var, src);
                    }
                    PtrSource::Null => self.validity.on_null(var),
                }
            }
            MemEvent::Deref {
                thread,
                ptr,
                kind,
                in_program_space,
            } => {
                // Dereferencing is a use of `ptr`'s value.
                if let Some(origin) = self.tainted.get(&ptr).copied() {
                    self.verdict.violations.push(Violation::TaintedValueUsed {
                        origin,
                        var: ptr,
                        used_at: at,
                        used_by: thread,
                    });
                }
                let is_unsafe = self.validity.validity(ptr) == Validity::Invalid;
                if is_unsafe {
                    let access = UnsafeAccess {
                        at,
                        thread,
                        ptr,
                        node: self.validity.target(ptr),
                    };
                    self.verdict.unsafe_accesses.push(access);
                    // Condition 1.
                    if !in_program_space {
                        self.verdict
                            .violations
                            .push(Violation::SystemSpaceAccess { access });
                    }
                    // Condition 2.
                    if kind == DerefKind::Write {
                        self.verdict
                            .violations
                            .push(Violation::MutatedReclaimed { access });
                    }
                    // Condition 3 arming: the read value is tainted.
                    match kind {
                        DerefKind::ReadPtrInto { dst } | DerefKind::ReadValInto { dst } => {
                            // The destination now holds an unusable value;
                            // also reflect it in validity as an invalid ref.
                            self.tainted.insert(dst, access);
                            if let DerefKind::ReadPtrInto { dst } = kind {
                                self.validity.on_invalid_ref(dst, None);
                                let _ = dst;
                            }
                        }
                        DerefKind::Write | DerefKind::FailedWrite => {}
                    }
                } else {
                    // A safe read into dst clears any stale taint on dst.
                    match kind {
                        DerefKind::ReadPtrInto { dst } | DerefKind::ReadValInto { dst } => {
                            self.tainted.remove(&dst);
                        }
                        _ => {}
                    }
                }
            }
            MemEvent::Unallocate { node, to_system } => {
                self.validity.on_unallocate(node);
                if to_system {
                    self.system_space.insert(node);
                }
            }
            MemEvent::UseVar { thread, var } => {
                if let Some(origin) = self.tainted.get(&var).copied() {
                    self.verdict.violations.push(Violation::TaintedValueUsed {
                        origin,
                        var,
                        used_at: at,
                        used_by: thread,
                    });
                }
            }
            MemEvent::OverwriteVar { var } => {
                self.tainted.remove(&var);
            }
        }
    }

    /// The verdict so far.
    pub fn verdict(&self) -> &SafetyVerdict {
        &self.verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: ThreadId = ThreadId(0);
    const P: VarId = VarId(0);
    const Q: VarId = VarId(1);
    const V: VarId = VarId(2);

    fn alloc(chk: &mut SafetyChecker, var: VarId, addr: usize) -> NodeId {
        let n = NodeId::first(addr);
        chk.record(MemEvent::PtrUpdate {
            var,
            source: PtrSource::Alloc(n),
        });
        n
    }

    #[test]
    fn all_safe_execution() {
        let mut chk = SafetyChecker::new();
        let _n = alloc(&mut chk, P, 0);
        chk.record(MemEvent::Deref {
            thread: T,
            ptr: P,
            kind: DerefKind::ReadValInto { dst: V },
            in_program_space: true,
        });
        chk.record(MemEvent::UseVar { thread: T, var: V });
        let v = chk.verdict();
        assert!(v.is_smr());
        assert!(v.all_accesses_safe());
    }

    #[test]
    fn unsafe_read_alone_is_not_a_violation() {
        let mut chk = SafetyChecker::new();
        let n = alloc(&mut chk, P, 0);
        chk.record(MemEvent::Unallocate {
            node: n,
            to_system: false,
        });
        chk.record(MemEvent::Deref {
            thread: T,
            ptr: P,
            kind: DerefKind::ReadValInto { dst: V },
            in_program_space: true,
        });
        let v = chk.verdict();
        assert_eq!(v.unsafe_accesses.len(), 1);
        assert!(v.is_smr(), "optimistic read without use is fine");
        assert!(!v.all_accesses_safe());
    }

    #[test]
    fn condition1_system_space() {
        let mut chk = SafetyChecker::new();
        let n = alloc(&mut chk, P, 0);
        chk.record(MemEvent::Unallocate {
            node: n,
            to_system: true,
        });
        chk.record(MemEvent::Deref {
            thread: T,
            ptr: P,
            kind: DerefKind::ReadValInto { dst: V },
            in_program_space: false,
        });
        let v = chk.verdict();
        assert!(matches!(
            v.violations[0],
            Violation::SystemSpaceAccess { .. }
        ));
    }

    #[test]
    fn condition2_mutation() {
        let mut chk = SafetyChecker::new();
        let n = alloc(&mut chk, P, 0);
        chk.record(MemEvent::Unallocate {
            node: n,
            to_system: false,
        });
        chk.record(MemEvent::Deref {
            thread: T,
            ptr: P,
            kind: DerefKind::Write,
            in_program_space: true,
        });
        assert!(matches!(
            chk.verdict().violations[0],
            Violation::MutatedReclaimed { .. }
        ));
    }

    #[test]
    fn failed_cas_on_reclaimed_is_allowed() {
        // VBR's trick: attempting an update that is guaranteed to fail.
        let mut chk = SafetyChecker::new();
        let n = alloc(&mut chk, P, 0);
        chk.record(MemEvent::Unallocate {
            node: n,
            to_system: false,
        });
        chk.record(MemEvent::Deref {
            thread: T,
            ptr: P,
            kind: DerefKind::FailedWrite,
            in_program_space: true,
        });
        assert!(chk.verdict().is_smr());
        assert_eq!(chk.verdict().unsafe_accesses.len(), 1);
    }

    #[test]
    fn condition3_use_of_tainted_value() {
        let mut chk = SafetyChecker::new();
        let n = alloc(&mut chk, P, 0);
        chk.record(MemEvent::Unallocate {
            node: n,
            to_system: false,
        });
        chk.record(MemEvent::Deref {
            thread: T,
            ptr: P,
            kind: DerefKind::ReadValInto { dst: V },
            in_program_space: true,
        });
        chk.record(MemEvent::UseVar { thread: T, var: V });
        assert!(matches!(
            chk.verdict().violations[0],
            Violation::TaintedValueUsed { .. }
        ));
    }

    #[test]
    fn condition3_overwrite_clears_taint() {
        let mut chk = SafetyChecker::new();
        let n = alloc(&mut chk, P, 0);
        chk.record(MemEvent::Unallocate {
            node: n,
            to_system: false,
        });
        chk.record(MemEvent::Deref {
            thread: T,
            ptr: P,
            kind: DerefKind::ReadValInto { dst: V },
            in_program_space: true,
        });
        chk.record(MemEvent::OverwriteVar { var: V });
        chk.record(MemEvent::UseVar { thread: T, var: V });
        assert!(chk.verdict().is_smr());
    }

    #[test]
    fn dereferencing_tainted_pointer_is_a_use() {
        // The exact shape of the Theorem 6.1 contradiction: read a next
        // pointer from reclaimed memory, then traverse through it.
        let mut chk = SafetyChecker::new();
        let n = alloc(&mut chk, P, 0);
        chk.record(MemEvent::Unallocate {
            node: n,
            to_system: false,
        });
        chk.record(MemEvent::Deref {
            thread: T,
            ptr: P,
            kind: DerefKind::ReadPtrInto { dst: Q },
            in_program_space: true,
        });
        assert!(chk.verdict().is_smr(), "not yet used");
        chk.record(MemEvent::Deref {
            thread: T,
            ptr: Q,
            kind: DerefKind::ReadValInto { dst: V },
            in_program_space: true,
        });
        assert!(!chk.verdict().is_smr());
        assert!(matches!(
            chk.verdict().violations[0],
            Violation::TaintedValueUsed { var, .. } if var == Q
        ));
    }

    #[test]
    fn copying_tainted_pointer_is_a_use() {
        let mut chk = SafetyChecker::new();
        let n = alloc(&mut chk, P, 0);
        chk.record(MemEvent::Unallocate {
            node: n,
            to_system: false,
        });
        chk.record(MemEvent::Deref {
            thread: T,
            ptr: P,
            kind: DerefKind::ReadPtrInto { dst: Q },
            in_program_space: true,
        });
        chk.record(MemEvent::PtrUpdate {
            var: V,
            source: PtrSource::Copy(Q),
        });
        assert!(!chk.verdict().is_smr());
    }

    #[test]
    fn safe_read_clears_previous_taint_on_destination() {
        let mut chk = SafetyChecker::new();
        let n = alloc(&mut chk, P, 0);
        let _m = alloc(&mut chk, Q, 1);
        chk.record(MemEvent::Unallocate {
            node: n,
            to_system: false,
        });
        // taint V via unsafe read
        chk.record(MemEvent::Deref {
            thread: T,
            ptr: P,
            kind: DerefKind::ReadValInto { dst: V },
            in_program_space: true,
        });
        // overwrite V via safe read of another node
        chk.record(MemEvent::Deref {
            thread: T,
            ptr: Q,
            kind: DerefKind::ReadValInto { dst: V },
            in_program_space: true,
        });
        chk.record(MemEvent::UseVar { thread: T, var: V });
        assert!(chk.verdict().is_smr());
    }

    #[test]
    fn verdict_display() {
        let chk = SafetyChecker::new();
        assert_eq!(
            chk.verdict().to_string(),
            "0 unsafe access(es), 0 violation(s)"
        );
    }
}
