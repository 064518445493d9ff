//! Histories of executions (§3).
//!
//! An execution is modelled by its *history*: the sub-sequence of
//! operation invocation and response steps. This module provides the
//! event vocabulary ([`Op`], [`Ret`]), the [`History`] container, and the
//! paper's projections `H|T`, `H|O` and `H|⟨T,O⟩`.

use std::fmt;

use crate::ids::{ObjectId, ThreadId};

/// An operation invocation payload.
///
/// Covers the data-type operations used throughout the paper (§3 defines
/// the set type; stacks/queues/registers are routine extensions) plus the
/// reclamation-scheme API operations that are *nested* inside them
/// (§5.2: `beginOp`, `endOp`, `alloc`, `retire`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `insert(key)` on a set.
    Insert(i64),
    /// `delete(key)` on a set.
    Delete(i64),
    /// `contains(key)` on a set.
    Contains(i64),
    /// `push(v)` on a stack.
    Push(i64),
    /// `pop()` on a stack.
    Pop,
    /// `enqueue(v)` on a queue.
    Enqueue(i64),
    /// `dequeue()` on a queue.
    Dequeue,
    /// Atomic read of a memory word (treated as an object per Def. 5.3).
    Read,
    /// Atomic write of a memory word.
    Write(i64),
    /// Atomic compare-and-swap of a memory word.
    Cas(i64, i64),
    /// SMR `beginOp()` — start of a data-structure operation.
    BeginOp,
    /// SMR `endOp()` — end of a data-structure operation.
    EndOp,
    /// SMR `retire(node)` — the argument is an abstract node tag.
    Retire(u64),
    /// SMR `alloc()`.
    Alloc,
    /// SMR `protect(slot)` — pointer protection (HP/HE/IBR style).
    Protect(u64),
}

impl Op {
    /// Whether this is a reclamation-scheme API operation (as opposed to
    /// a data-structure operation).
    pub fn is_smr_op(self) -> bool {
        matches!(
            self,
            Op::BeginOp | Op::EndOp | Op::Retire(_) | Op::Alloc | Op::Protect(_)
        )
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Insert(k) => write!(f, "insert({k})"),
            Op::Delete(k) => write!(f, "delete({k})"),
            Op::Contains(k) => write!(f, "contains({k})"),
            Op::Push(v) => write!(f, "push({v})"),
            Op::Pop => write!(f, "pop()"),
            Op::Enqueue(v) => write!(f, "enqueue({v})"),
            Op::Dequeue => write!(f, "dequeue()"),
            Op::Read => write!(f, "read()"),
            Op::Write(v) => write!(f, "write({v})"),
            Op::Cas(e, n) => write!(f, "cas({e},{n})"),
            Op::BeginOp => write!(f, "beginOp()"),
            Op::EndOp => write!(f, "endOp()"),
            Op::Retire(n) => write!(f, "retire(n{n})"),
            Op::Alloc => write!(f, "alloc()"),
            Op::Protect(s) => write!(f, "protect({s})"),
        }
    }
}

/// An operation response payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ret {
    /// Boolean result (set operations, CAS success).
    Bool(bool),
    /// Optional value (pop/dequeue — `None` when empty; reads).
    Val(Option<i64>),
    /// No information (beginOp/endOp/retire/…).
    Unit,
}

impl fmt::Display for Ret {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ret::Bool(b) => write!(f, "{b}"),
            Ret::Val(Some(v)) => write!(f, "{v}"),
            Ret::Val(None) => write!(f, "empty"),
            Ret::Unit => write!(f, "ok"),
        }
    }
}

/// Invocation or response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An operation invocation step.
    Invoke(Op),
    /// An operation response step.
    Response(Ret),
}

/// One history event: who, on what object, invoke or response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Executing thread.
    pub thread: ThreadId,
    /// Accessed object.
    pub object: ObjectId,
    /// Invocation or response payload.
    pub kind: EventKind,
}

/// A history: a finite sequence of invocation/response events.
///
/// # Example
///
/// ```
/// use era_core::history::{History, Op, Ret};
/// use era_core::ids::{ObjectId, ThreadId};
///
/// let mut h = History::new();
/// h.invoke(ThreadId(0), ObjectId(1), Op::Insert(3));
/// h.respond(ThreadId(0), ObjectId(1), Ret::Bool(true));
/// assert!(h.is_complete());
/// assert_eq!(h.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    events: Vec<Event>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an invocation event.
    pub fn invoke(&mut self, thread: ThreadId, object: ObjectId, op: Op) {
        self.events.push(Event {
            thread,
            object,
            kind: EventKind::Invoke(op),
        });
    }

    /// Appends a response event.
    pub fn respond(&mut self, thread: ThreadId, object: ObjectId, ret: Ret) {
        self.events.push(Event {
            thread,
            object,
            kind: EventKind::Response(ret),
        });
    }

    /// Appends an arbitrary event.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// The events in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the history has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// `H|T` — the sub-history of events executed by `thread`.
    pub fn per_thread(&self, thread: ThreadId) -> History {
        History {
            events: self
                .events
                .iter()
                .copied()
                .filter(|e| e.thread == thread)
                .collect(),
        }
    }

    /// `H|O` — the sub-history of events executed on `object`.
    pub fn per_object(&self, object: ObjectId) -> History {
        History {
            events: self
                .events
                .iter()
                .copied()
                .filter(|e| e.object == object)
                .collect(),
        }
    }

    /// `H|⟨T,O⟩` — events executed by `thread` on `object`.
    pub fn per_thread_object(&self, thread: ThreadId, object: ObjectId) -> History {
        History {
            events: self
                .events
                .iter()
                .copied()
                .filter(|e| e.thread == thread && e.object == object)
                .collect(),
        }
    }

    /// Thread ids appearing in the history, ascending, de-duplicated.
    pub fn threads(&self) -> Vec<ThreadId> {
        let mut v: Vec<ThreadId> = self.events.iter().map(|e| e.thread).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Object ids appearing in the history, ascending, de-duplicated.
    pub fn objects(&self) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = self.events.iter().map(|e| e.object).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Two histories are *equivalent* if every per-thread projection
    /// agrees (§3).
    pub fn is_equivalent_to(&self, other: &History) -> bool {
        let mut threads = self.threads();
        for t in other.threads() {
            if !threads.contains(&t) {
                threads.push(t);
            }
        }
        threads
            .iter()
            .all(|&t| self.per_thread(t) == other.per_thread(t))
    }

    /// An operation is *complete* when its matching response is present;
    /// a history is complete when all operations are (§3).
    ///
    /// With nesting (§3, well-formed histories after \[4\]) matching is
    /// per `⟨T,O⟩`: within each such projection events must alternate
    /// invoke/response, so completeness is simply "no projection ends on
    /// an un-responded invocation".
    pub fn is_complete(&self) -> bool {
        self.pending().is_empty()
    }

    /// The pending operations: `(thread, object, op)` of every
    /// invocation with no matching response.
    pub fn pending(&self) -> Vec<(ThreadId, ObjectId, Op)> {
        use std::collections::HashMap;
        let mut open: HashMap<(ThreadId, ObjectId), Vec<Op>> = HashMap::new();
        for e in &self.events {
            match e.kind {
                EventKind::Invoke(op) => open.entry((e.thread, e.object)).or_default().push(op),
                EventKind::Response(_) => {
                    if let Some(stack) = open.get_mut(&(e.thread, e.object)) {
                        stack.pop();
                    }
                }
            }
        }
        let mut out: Vec<(ThreadId, ObjectId, Op)> = open
            .into_iter()
            .flat_map(|((t, o), ops)| ops.into_iter().map(move |op| (t, o, op)))
            .collect();
        out.sort_by_key(|&(t, o, _)| (t, o));
        out
    }
}

impl FromIterator<Event> for History {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        History {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<Event> for History {
    fn extend<I: IntoIterator<Item = Event>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.events.iter().enumerate() {
            match e.kind {
                EventKind::Invoke(op) => {
                    writeln!(f, "{i:4}: {} {}.{} invoked", e.thread, e.object, op)?
                }
                EventKind::Response(r) => {
                    writeln!(f, "{i:4}: {} {} responded {}", e.thread, e.object, r)?
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const SET: ObjectId = ObjectId(1);
    const SMR: ObjectId = ObjectId(2);

    fn sample() -> History {
        let mut h = History::new();
        h.invoke(T0, SET, Op::Insert(1));
        h.invoke(T1, SET, Op::Contains(1));
        h.respond(T0, SET, Ret::Bool(true));
        h.respond(T1, SET, Ret::Bool(false));
        h
    }

    #[test]
    fn projections() {
        let h = sample();
        assert_eq!(h.per_thread(T0).len(), 2);
        assert_eq!(h.per_thread(T1).len(), 2);
        assert_eq!(h.per_object(SET).len(), 4);
        assert_eq!(h.per_object(SMR).len(), 0);
        assert_eq!(h.per_thread_object(T0, SET).len(), 2);
    }

    #[test]
    fn completeness_and_pending() {
        let mut h = sample();
        assert!(h.is_complete());
        h.invoke(T0, SET, Op::Delete(1));
        assert!(!h.is_complete());
        assert_eq!(h.pending(), vec![(T0, SET, Op::Delete(1))]);
    }

    #[test]
    fn nested_smr_ops_pending() {
        // insert(1) { beginOp(); ... } with both pending
        let mut h = History::new();
        h.invoke(T0, SET, Op::Insert(1));
        h.invoke(T0, SMR, Op::BeginOp);
        assert_eq!(h.pending().len(), 2);
        h.respond(T0, SMR, Ret::Unit);
        assert_eq!(h.pending(), vec![(T0, SET, Op::Insert(1))]);
    }

    #[test]
    fn equivalence_is_per_thread() {
        let h1 = sample();
        // Reorder events of different threads: still equivalent.
        let mut h2 = History::new();
        h2.invoke(T1, SET, Op::Contains(1));
        h2.invoke(T0, SET, Op::Insert(1));
        h2.respond(T1, SET, Ret::Bool(false));
        h2.respond(T0, SET, Ret::Bool(true));
        assert!(h1.is_equivalent_to(&h2));
        // Changing a response breaks equivalence.
        let mut h3 = sample();
        h3.events.pop();
        h3.respond(T1, SET, Ret::Bool(true));
        assert!(!h1.is_equivalent_to(&h3));
    }

    #[test]
    fn equivalence_detects_extra_thread_in_other() {
        let h1 = sample();
        let mut h2 = sample();
        h2.invoke(ThreadId(7), SET, Op::Pop);
        assert!(!h1.is_equivalent_to(&h2));
        assert!(!h2.is_equivalent_to(&h1));
    }

    #[test]
    fn threads_and_objects_listing() {
        let mut h = sample();
        h.invoke(T0, SMR, Op::BeginOp);
        assert_eq!(h.threads(), vec![T0, T1]);
        assert_eq!(h.objects(), vec![SET, SMR]);
    }

    #[test]
    fn smr_op_classification() {
        assert!(Op::BeginOp.is_smr_op());
        assert!(Op::Retire(3).is_smr_op());
        assert!(!Op::Insert(1).is_smr_op());
        assert!(!Op::Read.is_smr_op());
    }

    #[test]
    fn display_renders_each_event() {
        let h = sample();
        let s = h.to_string();
        assert!(s.contains("insert(1)"));
        assert!(s.contains("responded"));
    }

    #[test]
    fn from_iterator_roundtrip() {
        let h = sample();
        let h2: History = h.events().iter().copied().collect();
        assert_eq!(h, h2);
    }
}
