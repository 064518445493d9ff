//! Extended well-formedness of histories (§3, following Attiya et al. \[4\]).
//!
//! The classical definition of well-formed histories assumes each thread
//! alternates invocations and *immediately* matching responses. That is
//! too strong once a reclamation scheme's operations (`retire()`,
//! `alloc()`, `beginOp()`, …) are *nested* inside data-structure
//! operations. The paper therefore adopts the extended definition:
//!
//! 1. for every object `O`, `H|O` is well-formed: for every thread `T`,
//!    `H|⟨T,O⟩` starts with an invocation and alternates invocations and
//!    their immediate matching responses; and
//! 2. nesting is proper (LIFO): for two invocations `s_inv1 ≺ s_inv2` of
//!    the same thread with `s_inv2 ≺ s_res1`, the inner response
//!    `s_res2` precedes the outer one: `s_res2 ≺ s_res1`.
//!
//! Condition 4 of Definition 5.3 uses exactly this notion to outlaw
//! roll-backs: a roll-back jumps from inside a reclamation operation back
//! into data-structure code, leaving the inner invocation unreturned
//! while the outer operation continues — which shows up here as a
//! nesting violation.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::history::{EventKind, History};
use crate::ids::{ObjectId, ThreadId};

/// A violation of the extended well-formedness conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WellFormedError {
    /// Thread invoked on an object while it already has a pending
    /// invocation on that same object (breaks per-`⟨T,O⟩` alternation).
    OverlappingSameObject {
        /// Event index of the offending invocation.
        at: usize,
        /// Thread involved.
        thread: ThreadId,
        /// Object involved.
        object: ObjectId,
    },
    /// A response with no pending invocation by that thread.
    UnmatchedResponse {
        /// Event index of the offending response.
        at: usize,
        /// Thread involved.
        thread: ThreadId,
        /// Object involved.
        object: ObjectId,
    },
    /// A response that is not for the innermost open invocation —
    /// improper (non-LIFO) nesting, i.e. a control-flow roll-back.
    NonLifoNesting {
        /// Event index of the offending response.
        at: usize,
        /// Thread involved.
        thread: ThreadId,
        /// The object the response names.
        responded: ObjectId,
        /// The innermost open invocation's object (which should have
        /// responded first).
        expected: ObjectId,
    },
}

impl fmt::Display for WellFormedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WellFormedError::OverlappingSameObject { at, thread, object } => write!(
                f,
                "event {at}: {thread} invoked on {object} with a pending invocation on it"
            ),
            WellFormedError::UnmatchedResponse { at, thread, object } => {
                write!(f, "event {at}: {thread} responded on {object} with nothing pending")
            }
            WellFormedError::NonLifoNesting { at, thread, responded, expected } => write!(
                f,
                "event {at}: {thread} responded on {responded} while inner {expected} is open (roll-back)"
            ),
        }
    }
}

impl Error for WellFormedError {}

/// Checks the extended well-formedness of a history.
///
/// Returns the first violation in event order, or `Ok(())`.
///
/// # Example
///
/// ```
/// use era_core::history::{History, Op, Ret};
/// use era_core::ids::{ObjectId, ThreadId};
/// use era_core::wellformed::check;
///
/// let (t, set, smr) = (ThreadId(0), ObjectId(1), ObjectId(2));
/// let mut h = History::new();
/// h.invoke(t, set, Op::Insert(1)); // outer data-structure op
/// h.invoke(t, smr, Op::BeginOp);   // nested SMR op
/// h.respond(t, smr, Ret::Unit);    // inner returns first: proper nesting
/// h.respond(t, set, Ret::Bool(true));
/// assert!(check(&h).is_ok());
/// ```
pub fn check(history: &History) -> Result<(), WellFormedError> {
    // Per-thread stack of open invocations (object ids, innermost last).
    let mut open: HashMap<ThreadId, Vec<ObjectId>> = HashMap::new();
    for (at, e) in history.events().iter().enumerate() {
        let stack = open.entry(e.thread).or_default();
        match e.kind {
            EventKind::Invoke(_) => {
                if stack.contains(&e.object) {
                    return Err(WellFormedError::OverlappingSameObject {
                        at,
                        thread: e.thread,
                        object: e.object,
                    });
                }
                stack.push(e.object);
            }
            EventKind::Response(_) => match stack.last().copied() {
                None => {
                    return Err(WellFormedError::UnmatchedResponse {
                        at,
                        thread: e.thread,
                        object: e.object,
                    })
                }
                Some(top) if top == e.object => {
                    stack.pop();
                }
                Some(top) => {
                    return Err(WellFormedError::NonLifoNesting {
                        at,
                        thread: e.thread,
                        responded: e.object,
                        expected: top,
                    })
                }
            },
        }
    }
    Ok(())
}

/// Whether `history` is well-formed under the extended definition.
pub fn is_well_formed(history: &History) -> bool {
    check(history).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{Op, Ret};

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const SET: ObjectId = ObjectId(1);
    const SMR: ObjectId = ObjectId(2);
    const WORD: ObjectId = ObjectId(3);

    #[test]
    fn flat_history_is_well_formed() {
        let mut h = History::new();
        h.invoke(T0, SET, Op::Insert(1));
        h.respond(T0, SET, Ret::Bool(true));
        h.invoke(T0, SET, Op::Delete(1));
        h.respond(T0, SET, Ret::Bool(true));
        assert!(is_well_formed(&h));
    }

    #[test]
    fn interleaved_threads_are_fine() {
        let mut h = History::new();
        h.invoke(T0, SET, Op::Insert(1));
        h.invoke(T1, SET, Op::Insert(2));
        h.respond(T1, SET, Ret::Bool(true));
        h.respond(T0, SET, Ret::Bool(true));
        assert!(is_well_formed(&h));
    }

    #[test]
    fn proper_nesting_accepted() {
        let mut h = History::new();
        h.invoke(T0, SET, Op::Insert(1));
        h.invoke(T0, SMR, Op::BeginOp);
        h.respond(T0, SMR, Ret::Unit);
        h.invoke(T0, WORD, Op::Cas(0, 1));
        h.respond(T0, WORD, Ret::Bool(true));
        h.invoke(T0, SMR, Op::EndOp);
        h.respond(T0, SMR, Ret::Unit);
        h.respond(T0, SET, Ret::Bool(true));
        assert!(is_well_formed(&h));
    }

    #[test]
    fn rollback_is_a_nesting_violation() {
        // The outer set operation "returns" while the nested SMR read is
        // still open — the shape of a roll-back out of scheme code.
        let mut h = History::new();
        h.invoke(T0, SET, Op::Insert(1));
        h.invoke(T0, SMR, Op::BeginOp);
        h.respond(T0, SET, Ret::Bool(true));
        let err = check(&h).unwrap_err();
        assert_eq!(
            err,
            WellFormedError::NonLifoNesting {
                at: 2,
                thread: T0,
                responded: SET,
                expected: SMR
            }
        );
    }

    #[test]
    fn overlapping_same_object_rejected() {
        let mut h = History::new();
        h.invoke(T0, SET, Op::Insert(1));
        h.invoke(T0, SET, Op::Delete(1));
        assert!(matches!(
            check(&h),
            Err(WellFormedError::OverlappingSameObject { at: 1, .. })
        ));
    }

    #[test]
    fn unmatched_response_rejected() {
        let mut h = History::new();
        h.respond(T0, SET, Ret::Bool(true));
        assert!(matches!(
            check(&h),
            Err(WellFormedError::UnmatchedResponse { at: 0, .. })
        ));
    }

    #[test]
    fn pending_inner_ops_are_allowed() {
        // A history may end with pending operations and still be
        // well-formed (well-formedness != completeness).
        let mut h = History::new();
        h.invoke(T0, SET, Op::Insert(1));
        h.invoke(T0, SMR, Op::BeginOp);
        assert!(is_well_formed(&h));
        assert!(!h.is_complete());
    }

    #[test]
    fn error_display() {
        let e = WellFormedError::NonLifoNesting {
            at: 5,
            thread: T0,
            responded: SET,
            expected: SMR,
        };
        assert!(e.to_string().contains("roll-back"));
    }
}
