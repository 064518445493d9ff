//! Linearizability checking (§3, Herlihy & Wing \[25\]).
//!
//! A complete history `H` is linearizable if it is well-formed and, for
//! every object `O`, the object's sequential specification contains a
//! sequential history `S` such that (1) `H|O` and `S` are equivalent and
//! (2) the real-time order of `H|O` is respected. A history with pending
//! operations is linearizable if it can be *completed* — adding matching
//! responses to a subset of pending operations and discarding the rest —
//! into a linearizable complete history.
//!
//! Once each invocation is paired with its recorded return, the checker
//! reads `H|O` once, in order, keeping a *frontier*: every
//! configuration the history read so far can have left the object in. A
//! configuration is a spec state plus the set of currently open
//! operations that have already taken effect. At a response the frontier
//! is closed under letting open operations take effect (a completed one
//! with its recorded return, a pending one with any legal outcome), and
//! only the configurations in which the responding operation took effect
//! survive. `H|O` is linearizable iff the frontier never empties. The
//! cost is bounded by the spec states times the subsets of operations
//! open at once, not by the length of the history.

use std::collections::HashSet;

use crate::history::{EventKind, History, Op, Ret};
use crate::ids::ObjectId;
use crate::spec::SequentialSpec;
use crate::wellformed;

/// An open operation: its invocation and its recorded return (`None`
/// when the history leaves it pending).
type OpenOp = (Op, Option<Ret>);

/// A spec state plus the bitmask of open ops (by slot) that have taken
/// effect.
type Config<S> = (<S as SequentialSpec>::State, u64);

/// Exact linearizability checker for a [`SequentialSpec`].
///
/// # Example
///
/// ```
/// use era_core::history::{History, Op, Ret};
/// use era_core::ids::{ObjectId, ThreadId};
/// use era_core::linearizability::Checker;
/// use era_core::spec::SetSpec;
///
/// let (t0, t1, set) = (ThreadId(0), ThreadId(1), ObjectId(1));
/// let mut h = History::new();
/// h.invoke(t0, set, Op::Insert(1));
/// h.respond(t0, set, Ret::Bool(true));
/// h.invoke(t1, set, Op::Contains(1));
/// h.respond(t1, set, Ret::Bool(false)); // insert already returned: illegal
/// assert!(!Checker::new(&SetSpec).is_linearizable(&h));
/// ```
#[derive(Debug)]
pub struct Checker<'a, S: SequentialSpec> {
    spec: &'a S,
}

impl<'a, S: SequentialSpec> Checker<'a, S> {
    /// Creates a checker for `spec`.
    pub fn new(spec: &'a S) -> Self {
        Checker { spec }
    }

    /// Checks the projection `H|object` for linearizability.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 threads operate on `object`.
    pub fn is_linearizable_object(&self, history: &History, object: ObjectId) -> bool {
        let proj = history.per_object(object);
        if !wellformed::is_well_formed(&proj) {
            return false;
        }
        // A thread has at most one open op, so its index is its op's slot.
        let threads = proj.threads();
        assert!(threads.len() <= 64, "more than 64 threads on {object}");
        let slot_of = |t| threads.binary_search(&t).expect("listed");
        let mut open: Vec<Option<OpenOp>> = vec![None; threads.len()];
        // Each op's recorded return, by its invocation's index.
        let mut ret_of = vec![None; proj.len()];
        let mut invoked = vec![0; threads.len()];
        for (i, e) in proj.events().iter().enumerate() {
            match e.kind {
                EventKind::Invoke(_) => invoked[slot_of(e.thread)] = i,
                EventKind::Response(ret) => ret_of[invoked[slot_of(e.thread)]] = Some(ret),
            }
        }
        let mut frontier = HashSet::from([(self.spec.initial(), 0)]);
        for (i, e) in proj.events().iter().enumerate() {
            let slot = slot_of(e.thread);
            match e.kind {
                EventKind::Invoke(op) => open[slot] = Some((op, ret_of[i])),
                EventKind::Response(_) => {
                    frontier = self.take_effect(&frontier, &open, slot);
                    open[slot] = None;
                    if frontier.is_empty() {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// The configurations reachable from `frontier` by letting open ops
    /// take effect, kept once `slot`'s op has, with its bit cleared: the
    /// response frees the slot.
    fn take_effect(
        &self,
        frontier: &HashSet<Config<S>>,
        open: &[Option<OpenOp>],
        slot: usize,
    ) -> HashSet<Config<S>> {
        let mut seen = frontier.clone();
        let mut work: Vec<Config<S>> = frontier.iter().cloned().collect();
        let mut kept = HashSet::new();
        while let Some((state, done)) = work.pop() {
            if done & (1 << slot) != 0 {
                kept.insert((state, done & !(1 << slot)));
                continue;
            }
            for (j, &o) in open.iter().enumerate() {
                let Some((op, ret)) = o.filter(|_| done & (1 << j) == 0) else {
                    continue;
                };
                let next: Vec<S::State> = match ret {
                    Some(ret) => self.spec.step(&state, &op, &ret).into_iter().collect(),
                    None => self
                        .spec
                        .outcomes(&state, &op)
                        .into_iter()
                        .map(|(_, s)| s)
                        .collect(),
                };
                for s in next {
                    if seen.insert((s.clone(), done | 1 << j)) {
                        work.push((s, done | 1 << j));
                    }
                }
            }
        }
        kept
    }

    /// Checks every object appearing in `history` against the spec.
    ///
    /// Callers with heterogeneous objects (e.g. a set plus the SMR API
    /// object) should project first and use
    /// [`is_linearizable_object`](Self::is_linearizable_object) with the
    /// appropriate spec per object.
    pub fn is_linearizable(&self, history: &History) -> bool {
        if !wellformed::is_well_formed(history) {
            return false;
        }
        history
            .objects()
            .into_iter()
            .all(|o| self.is_linearizable_object(history, o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{Op, Ret};
    use crate::ids::ThreadId;
    use crate::spec::{QueueSpec, RegisterSpec, SetSpec, StackSpec};

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);
    const SET: ObjectId = ObjectId(1);

    #[test]
    fn empty_history_linearizable() {
        assert!(Checker::new(&SetSpec).is_linearizable(&History::new()));
    }

    #[test]
    fn sequential_history() {
        let mut h = History::new();
        h.invoke(T0, SET, Op::Insert(1));
        h.respond(T0, SET, Ret::Bool(true));
        h.invoke(T0, SET, Op::Insert(1));
        h.respond(T0, SET, Ret::Bool(false));
        h.invoke(T0, SET, Op::Delete(1));
        h.respond(T0, SET, Ret::Bool(true));
        assert!(Checker::new(&SetSpec).is_linearizable(&h));
    }

    #[test]
    fn wrong_sequential_return_rejected() {
        let mut h = History::new();
        h.invoke(T0, SET, Op::Insert(1));
        h.respond(T0, SET, Ret::Bool(true));
        h.invoke(T0, SET, Op::Contains(1));
        h.respond(T0, SET, Ret::Bool(false));
        assert!(!Checker::new(&SetSpec).is_linearizable(&h));
    }

    #[test]
    fn concurrent_ops_may_linearize_either_way() {
        // contains(1) overlaps insert(1): both true and false are fine.
        for observed in [true, false] {
            let mut h = History::new();
            h.invoke(T0, SET, Op::Insert(1));
            h.invoke(T1, SET, Op::Contains(1));
            h.respond(T1, SET, Ret::Bool(observed));
            h.respond(T0, SET, Ret::Bool(true));
            assert!(
                Checker::new(&SetSpec).is_linearizable(&h),
                "observed={observed}"
            );
        }
    }

    #[test]
    fn real_time_order_enforced() {
        // insert(1) completes before contains(1) starts; contains must
        // see it.
        let mut h = History::new();
        h.invoke(T0, SET, Op::Insert(1));
        h.respond(T0, SET, Ret::Bool(true));
        h.invoke(T1, SET, Op::Contains(1));
        h.respond(T1, SET, Ret::Bool(false));
        assert!(!Checker::new(&SetSpec).is_linearizable(&h));
    }

    #[test]
    fn pending_op_may_take_effect() {
        // insert(1) is pending, but a later contains already saw the key:
        // the pending op must be completed (it took effect).
        let mut h = History::new();
        h.invoke(T0, SET, Op::Insert(1));
        h.invoke(T1, SET, Op::Contains(1));
        h.respond(T1, SET, Ret::Bool(true));
        assert!(Checker::new(&SetSpec).is_linearizable(&h));
    }

    #[test]
    fn pending_op_may_be_dropped() {
        let mut h = History::new();
        h.invoke(T0, SET, Op::Insert(1));
        h.invoke(T1, SET, Op::Contains(1));
        h.respond(T1, SET, Ret::Bool(false));
        assert!(Checker::new(&SetSpec).is_linearizable(&h));
    }

    #[test]
    fn contradictory_observations_of_pending_rejected() {
        // Two sequential contains() by T1 observing 1 then not-1, with
        // only one pending insert(1) and no delete: impossible.
        let mut h = History::new();
        h.invoke(T0, SET, Op::Insert(1));
        h.invoke(T1, SET, Op::Contains(1));
        h.respond(T1, SET, Ret::Bool(true));
        h.invoke(T1, SET, Op::Contains(1));
        h.respond(T1, SET, Ret::Bool(false));
        assert!(!Checker::new(&SetSpec).is_linearizable(&h));
    }

    #[test]
    fn three_thread_queue_history() {
        let q = ObjectId(9);
        let spec = QueueSpec;
        let mut h = History::new();
        h.invoke(T0, q, Op::Enqueue(1));
        h.invoke(T1, q, Op::Enqueue(2));
        h.respond(T0, q, Ret::Unit);
        h.respond(T1, q, Ret::Unit);
        h.invoke(T2, q, Op::Dequeue);
        h.respond(T2, q, Ret::Val(Some(2)));
        h.invoke(T2, q, Op::Dequeue);
        h.respond(T2, q, Ret::Val(Some(1)));
        assert!(Checker::new(&spec).is_linearizable(&h));
        // FIFO violation: deq 2 then 2 again
        let mut bad = History::new();
        bad.invoke(T0, q, Op::Enqueue(1));
        bad.respond(T0, q, Ret::Unit);
        bad.invoke(T2, q, Op::Dequeue);
        bad.respond(T2, q, Ret::Val(Some(2)));
        assert!(!Checker::new(&spec).is_linearizable(&bad));
    }

    #[test]
    fn stack_lifo_checked() {
        let st = ObjectId(4);
        let spec = StackSpec;
        let mut h = History::new();
        h.invoke(T0, st, Op::Push(1));
        h.respond(T0, st, Ret::Unit);
        h.invoke(T0, st, Op::Push(2));
        h.respond(T0, st, Ret::Unit);
        h.invoke(T1, st, Op::Pop);
        h.respond(T1, st, Ret::Val(Some(2)));
        assert!(Checker::new(&spec).is_linearizable(&h));
        let mut bad = h.clone();
        bad.invoke(T1, st, Op::Pop);
        bad.respond(T1, st, Ret::Val(Some(2)));
        assert!(!Checker::new(&spec).is_linearizable(&bad));
    }

    #[test]
    fn register_cas_history() {
        let r = ObjectId(7);
        let spec = RegisterSpec { initial_value: 0 };
        let mut h = History::new();
        h.invoke(T0, r, Op::Cas(0, 1));
        h.invoke(T1, r, Op::Cas(0, 2));
        h.respond(T0, r, Ret::Bool(true));
        h.respond(T1, r, Ret::Bool(false));
        h.invoke(T2, r, Op::Read);
        h.respond(T2, r, Ret::Val(Some(1)));
        assert!(Checker::new(&spec).is_linearizable(&h));
        // Both CAS succeeding from 0 is impossible.
        let mut bad = History::new();
        bad.invoke(T0, r, Op::Cas(0, 1));
        bad.invoke(T1, r, Op::Cas(0, 2));
        bad.respond(T0, r, Ret::Bool(true));
        bad.respond(T1, r, Ret::Bool(true));
        assert!(!Checker::new(&spec).is_linearizable(&bad));
    }

    #[test]
    fn non_well_formed_rejected() {
        let mut h = History::new();
        h.respond(T0, SET, Ret::Bool(true));
        assert!(!Checker::new(&SetSpec).is_linearizable(&h));
    }

    #[test]
    fn per_object_independence() {
        // Two independent sets; each linearizable on its own.
        let s1 = ObjectId(1);
        let s2 = ObjectId(2);
        let mut h = History::new();
        h.invoke(T0, s1, Op::Insert(1));
        h.respond(T0, s1, Ret::Bool(true));
        h.invoke(T0, s2, Op::Contains(1));
        h.respond(T0, s2, Ret::Bool(false));
        assert!(Checker::new(&SetSpec).is_linearizable(&h));
    }

    /// A 10 000-op history of three threads on one set over keys 0..4,
    /// each op linearized at its response; halfway through, the threads
    /// drain and a solo `contains` runs. Returns the history and the
    /// event index of that `contains`'s response.
    fn long_history() -> (History, usize) {
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let (mut h, mut solo) = (History::new(), 0);
        let mut state = std::collections::BTreeSet::new();
        let mut open: [Option<Op>; 3] = [None; 3];
        let mut ops = 0;
        while ops < 10_000 || open.iter().any(Option::is_some) {
            let t = next(3) as usize;
            if let Some(op) = open[t].take() {
                let ret = match op {
                    Op::Insert(k) => state.insert(k),
                    Op::Delete(k) => state.remove(&k),
                    Op::Contains(k) => state.contains(&k),
                    _ => unreachable!(),
                };
                h.respond(ThreadId(t), SET, Ret::Bool(ret));
            } else if ops == 5_000 && open.iter().all(Option::is_none) {
                h.invoke(T0, SET, Op::Contains(1));
                h.respond(T0, SET, Ret::Bool(state.contains(&1)));
                (solo, ops) = (h.len() - 1, ops + 1);
            } else if ops < 10_000 && ops != 5_000 {
                let k = next(4) as i64;
                let op = [Op::Insert(k), Op::Delete(k), Op::Contains(k)][next(3) as usize];
                h.invoke(ThreadId(t), SET, op);
                (open[t], ops) = (Some(op), ops + 1);
            }
        }
        (h, solo)
    }

    #[test]
    fn long_histories_are_judged_in_one_pass() {
        let (h, solo) = long_history();
        assert!(Checker::new(&SetSpec).is_linearizable(&h));
        let mut flipped = History::new();
        for (i, &e) in h.events().iter().enumerate() {
            match e.kind {
                EventKind::Response(Ret::Bool(b)) if i == solo => {
                    flipped.respond(e.thread, e.object, Ret::Bool(!b))
                }
                _ => flipped.push(e),
            }
        }
        assert!(!Checker::new(&SetSpec).is_linearizable(&flipped));
    }
}
