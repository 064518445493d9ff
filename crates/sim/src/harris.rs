//! Small-step interpreter for Harris's linked list (Algorithm 1).
//!
//! Every [`HarrisSim::step`] performs **at most one shared-memory
//! access**, which is the granularity the Theorem 6.1 construction
//! needs: the adversarial scheduler pauses thread `T1` *between* the
//! read of `head.next` and its next traversal step, runs `T2` for
//! arbitrarily long, then solo-runs `T1`.
//!
//! All primitive accesses go through the integrated scheme's hooks
//! ([`crate::schemes::SimScheme`]); scheme-forced roll-backs are counted
//! in the [`era_core::integration::IntegrationMonitor`] (the dynamic
//! half of the Definition 5.3 verdict), while algorithm-level retries
//! (Harris's `goto retry`) are not.

use era_core::applicability::{PhaseEvent, PhaseKind};
use era_core::history::{Op, Ret};
use era_core::ids::{NodeId, ThreadId};
use era_core::validity::VarId;

use crate::heap::Local;
use crate::schemes::{Outcome, SimScheme};
use crate::world::Sim;

/// Which set operation a [`HarrisOp`] executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `insert(key)`.
    Insert(i64),
    /// `delete(key)`.
    Delete(i64),
    /// `contains(key)`.
    Contains(i64),
}

impl OpKind {
    fn key(self) -> i64 {
        match self {
            OpKind::Insert(k) | OpKind::Delete(k) | OpKind::Contains(k) => k,
        }
    }

    fn as_history_op(self) -> Op {
        match self {
            OpKind::Insert(k) => Op::Insert(k),
            OpKind::Delete(k) => Op::Delete(k),
            OpKind::Contains(k) => Op::Contains(k),
        }
    }
}

/// Interpreter state (one variant ≈ one pending shared access).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Begin,
    ReadHead,
    ReadPredNext,
    ReadCurrNext,
    ReadCurrKey,
    WindowRecheck,
    UnlinkChain,
    InsertWriteNext,
    InsertCas,
    DeleteReadSucc,
    DeleteMarkCas,
    DeleteUnlinkCas,
    RetireVictim,
    Done,
}

/// What to do once a (re-)search completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PostSearch {
    /// Normal dispatch by operation kind.
    Dispatch,
    /// Delete line 51: the victim is marked; retire it and finish.
    RetireVictim,
}

/// One in-flight operation of a simulated thread.
#[derive(Debug)]
pub struct HarrisOp {
    /// Executing thread.
    pub tid: ThreadId,
    kind: OpKind,
    state: State,
    post_search: PostSearch,
    pred: Local,
    pred_next: Local,
    curr: Local,
    curr_next: Local,
    succ: Local,
    new_node: Local,
    new_node_id: Option<NodeId>,
    victim: Local,
    victim_node: Option<NodeId>,
    key_scratch: VarId,
    curr_key: i64,
    result: Option<bool>,
    /// Shared-memory steps executed so far.
    pub steps: usize,
    /// Scheme-forced roll-backs experienced by this operation.
    pub rollbacks: usize,
    /// Appendix D phase the operation is currently in.
    phase: PhaseKind,
}

impl HarrisOp {
    /// The operation's result once complete.
    pub fn result(&self) -> Option<bool> {
        self.result
    }

    /// Whether the operation has responded.
    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// Whether the thread is mid-traversal (useful for scheduling).
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// Whether the delete has already marked its victim (Algorithm 1,
    /// line 48 executed) — the pause point Figure 2 needs.
    pub fn has_marked_victim(&self) -> bool {
        self.victim_node.is_some()
    }
}

/// A Harris list living inside a [`Sim`] world.
#[derive(Debug)]
pub struct HarrisSim {
    /// The simulation world.
    pub sim: Sim,
    head: Local,
    tail: Local,
    head_node: NodeId,
    tail_node: NodeId,
}

impl HarrisSim {
    /// Builds the two-sentinel empty list inside a fresh world.
    pub fn new(scheme: Box<dyn SimScheme>) -> Self {
        let mut sim = Sim::new(scheme);
        let setup_tid = ThreadId(0);
        let mut tail = sim.heap.new_local();
        let tail_node = sim.heap.alloc(setup_tid, i64::MAX, &mut tail);
        sim.scheme.on_alloc(&mut sim.heap, tail_node);
        let mut head = sim.heap.new_local();
        let head_node = sim.heap.alloc(setup_tid, i64::MIN, &mut head);
        sim.scheme.on_alloc(&mut sim.heap, head_node);
        sim.heap.write_next(setup_tid, &head, &tail, false);
        sim.heap.share(&tail);
        sim.heap.share(&head);
        HarrisSim {
            sim,
            head,
            tail,
            head_node,
            tail_node,
        }
    }

    /// The sentinels' logical identities (for assertions).
    pub fn sentinels(&self) -> (NodeId, NodeId) {
        (self.head_node, self.tail_node)
    }

    /// Starts an operation for `tid` (the invocation step).
    pub fn start_op(&mut self, tid: ThreadId, kind: OpKind) -> HarrisOp {
        let heap = &mut self.sim.heap;
        let mk = |heap: &mut crate::heap::SimHeap| heap.new_local();
        HarrisOp {
            tid,
            kind,
            state: State::Begin,
            post_search: PostSearch::Dispatch,
            pred: mk(heap),
            pred_next: mk(heap),
            curr: mk(heap),
            curr_next: mk(heap),
            succ: mk(heap),
            new_node: mk(heap),
            new_node_id: None,
            victim: mk(heap),
            victim_node: None,
            key_scratch: heap.new_var(),
            curr_key: 0,
            result: None,
            steps: 0,
            rollbacks: 0,
            phase: PhaseKind::ReadOnly,
        }
    }

    fn restart(&mut self, op: &mut HarrisOp, scheme_forced: bool) {
        if scheme_forced {
            op.rollbacks += 1;
            self.sim.monitor.record_rollback();
            self.sim.tracer.emit_for(
                op.tid.0 as u16,
                era_obs::Hook::Rollback,
                op.steps as u64,
                op.rollbacks as u64,
            );
        }
        {
            let Sim { heap, scheme, .. } = &mut self.sim;
            scheme.on_retry(heap, op.tid);
        }
        // A retry re-enters the traversal: a new read-only phase when we
        // were writing, a continuation of the current one otherwise.
        if op.phase == PhaseKind::Write {
            self.sim
                .phase_event(op.tid, PhaseEvent::PhaseStart(PhaseKind::ReadOnly));
            op.phase = PhaseKind::ReadOnly;
        }
        op.state = State::ReadHead;
    }

    /// The node `local` currently (logically) references.
    fn target_of(&self, local: &Local) -> Option<NodeId> {
        self.sim.heap.target(local)
    }

    /// Executes one step of `op`. Returns `true` when the operation has
    /// completed (its response step executed).
    pub fn step(&mut self, op: &mut HarrisOp) -> bool {
        if op.state == State::Done {
            return true;
        }
        op.steps += 1;
        let tid = op.tid;
        let key = op.kind.key();
        match op.state {
            State::Done => unreachable!(),
            State::Begin => {
                self.sim.record_invoke(tid, op.kind.as_history_op());
                let Sim { heap, scheme, .. } = &mut self.sim;
                scheme.begin_op(heap, tid);
                if let OpKind::Insert(k) = op.kind {
                    // Algorithm 1, line 28: allocate up front.
                    let node = heap.alloc(tid, k, &mut op.new_node);
                    scheme.on_alloc(heap, node);
                    op.new_node_id = Some(node);
                }
                op.phase = PhaseKind::ReadOnly;
                self.sim
                    .phase_event(tid, PhaseEvent::PhaseStart(PhaseKind::ReadOnly));
                if op.kind.key() != i64::MIN && op.new_node_id.is_some() {
                    self.sim.phase_event(
                        tid,
                        PhaseEvent::LocalAlloc {
                            var: op.new_node.var,
                        },
                    );
                }
                op.state = State::ReadHead;
            }
            State::ReadHead => {
                // Read the entry point (a global variable, always valid).
                let head = self.head;
                self.sim.heap.read_global(&mut op.pred, &head);
                self.sim
                    .phase_event(tid, PhaseEvent::ReadGlobalInto { var: op.pred.var });
                op.state = State::ReadPredNext;
            }
            State::ReadPredNext => {
                let Sim { heap, scheme, .. } = &mut self.sim;
                match scheme.read_next(heap, tid, &op.pred, &mut op.pred_next) {
                    Outcome::Rollback => self.restart(op, true),
                    Outcome::Ok => {
                        self.sim.phase_event(
                            tid,
                            PhaseEvent::DerefReadInto {
                                src: op.pred.var,
                                dst: op.pred_next.var,
                            },
                        );
                        let pn = op.pred_next;
                        self.sim.heap.assign_with_mark(&mut op.curr, &pn, false);
                        self.sim.phase_event(
                            tid,
                            PhaseEvent::LocalCopy {
                                src: op.pred_next.var,
                                dst: op.curr.var,
                            },
                        );
                        op.state = State::ReadCurrNext;
                    }
                }
            }
            State::ReadCurrNext => {
                let Sim { heap, scheme, .. } = &mut self.sim;
                match scheme.read_next(heap, tid, &op.curr, &mut op.curr_next) {
                    Outcome::Rollback => self.restart(op, true),
                    Outcome::Ok => {
                        self.sim.phase_event(
                            tid,
                            PhaseEvent::DerefReadInto {
                                src: op.curr.var,
                                dst: op.curr_next.var,
                            },
                        );
                        // Branch on the mark bit: a *use* of the value.
                        self.sim.heap.use_var(tid, op.curr_next.var);
                        let marked = op.curr_next.word.is_some_and(|w| w.mark);
                        if marked {
                            // Traverse straight through (line 7/11) —
                            // Harris's defining move.
                            let cn = op.curr_next;
                            self.sim.heap.assign_with_mark(&mut op.curr, &cn, false);
                            self.sim.phase_event(
                                tid,
                                PhaseEvent::LocalCopy {
                                    src: op.curr_next.var,
                                    dst: op.curr.var,
                                },
                            );
                            op.state = State::ReadCurrNext;
                        } else {
                            op.state = State::ReadCurrKey;
                        }
                    }
                }
            }
            State::ReadCurrKey => {
                let Sim { heap, scheme, .. } = &mut self.sim;
                match scheme.read_key(heap, tid, &op.curr, op.key_scratch) {
                    Err(Outcome::Rollback) => self.restart(op, true),
                    Err(Outcome::Ok) => unreachable!(),
                    Ok(bits) => {
                        self.sim.phase_event(
                            tid,
                            PhaseEvent::DerefReadInto {
                                src: op.curr.var,
                                dst: op.key_scratch,
                            },
                        );
                        self.sim.heap.use_var(tid, op.key_scratch);
                        op.curr_key = bits;
                        if bits < key {
                            // Advance (lines 8–11).
                            let (c, cn) = (op.curr, op.curr_next);
                            self.sim.heap.assign(&mut op.pred, &c);
                            self.sim.heap.assign(&mut op.pred_next, &cn);
                            self.sim.heap.assign_with_mark(&mut op.curr, &cn, false);
                            self.sim.phase_event(
                                tid,
                                PhaseEvent::LocalCopy {
                                    src: op.curr.var,
                                    dst: op.pred.var,
                                },
                            );
                            self.sim.phase_event(
                                tid,
                                PhaseEvent::LocalCopy {
                                    src: op.curr_next.var,
                                    dst: op.pred_next.var,
                                },
                            );
                            self.sim.phase_event(
                                tid,
                                PhaseEvent::LocalCopy {
                                    src: op.curr_next.var,
                                    dst: op.curr.var,
                                },
                            );
                            op.state = State::ReadCurrNext;
                        } else {
                            // Window formed; compare the words (line 14).
                            self.sim.heap.use_var(tid, op.pred_next.var);
                            self.sim.heap.use_var(tid, op.curr.var);
                            // The traversal is over: the write phase
                            // begins (Appendix D).
                            op.phase = PhaseKind::Write;
                            self.sim
                                .phase_event(tid, PhaseEvent::PhaseStart(PhaseKind::Write));
                            if op.pred_next.word == op.curr.word {
                                op.state = State::WindowRecheck;
                            } else {
                                op.state = State::UnlinkChain;
                            }
                        }
                    }
                }
            }
            State::WindowRecheck => {
                // Lines 15/20: the window's curr must not be marked.
                let Sim { heap, scheme, .. } = &mut self.sim;
                match scheme.read_next(heap, tid, &op.curr, &mut op.succ) {
                    Outcome::Rollback => self.restart(op, true),
                    Outcome::Ok => {
                        self.sim.phase_event(
                            tid,
                            PhaseEvent::DerefReadInto {
                                src: op.curr.var,
                                dst: op.succ.var,
                            },
                        );
                        self.sim.heap.use_var(tid, op.succ.var);
                        let marked = op.succ.word.is_some_and(|w| w.mark);
                        if marked {
                            self.restart(op, false); // goto retry
                        } else {
                            self.dispatch_after_search(op);
                        }
                    }
                }
            }
            State::UnlinkChain => {
                // Line 18: one CAS removes the whole marked chain.
                let Sim { heap, scheme, .. } = &mut self.sim;
                match scheme.pre_write(heap, tid, &[&op.pred, &op.curr]) {
                    Outcome::Rollback => self.restart(op, true),
                    Outcome::Ok => {
                        self.sim
                            .phase_event(tid, PhaseEvent::SharedWrite { via: op.pred.var });
                        let ok = self.sim.heap.cas_next(
                            tid,
                            &op.pred,
                            op.pred_next.word,
                            &op.curr,
                            false,
                        );
                        if ok {
                            let c = op.curr;
                            self.sim.heap.assign(&mut op.pred_next, &c);
                            self.sim.phase_event(
                                tid,
                                PhaseEvent::LocalCopy {
                                    src: op.curr.var,
                                    dst: op.pred_next.var,
                                },
                            );
                            op.state = State::WindowRecheck;
                        } else {
                            self.restart(op, false);
                        }
                    }
                }
            }
            State::InsertWriteNext => {
                // Line 36: new_node.next = curr (the node is still local).
                let (nn, c) = (op.new_node, op.curr);
                self.sim.heap.write_next(tid, &nn, &c, false);
                self.sim.phase_event(
                    tid,
                    PhaseEvent::SharedWrite {
                        via: op.new_node.var,
                    },
                );
                op.state = State::InsertCas;
            }
            State::InsertCas => {
                let Sim { heap, scheme, .. } = &mut self.sim;
                match scheme.pre_write(heap, tid, &[&op.pred]) {
                    Outcome::Rollback => self.restart(op, true),
                    Outcome::Ok => {
                        self.sim
                            .phase_event(tid, PhaseEvent::SharedWrite { via: op.pred.var });
                        let ok = self.sim.heap.cas_next(
                            tid,
                            &op.pred,
                            op.curr.word,
                            &op.new_node,
                            false,
                        );
                        if ok {
                            self.sim.heap.share(&op.new_node);
                            self.sim.phase_event(
                                tid,
                                PhaseEvent::Shared {
                                    var: op.new_node.var,
                                },
                            );
                            self.finish(op, true);
                        } else {
                            self.restart(op, false);
                        }
                    }
                }
            }
            State::DeleteReadSucc => {
                let Sim { heap, scheme, .. } = &mut self.sim;
                match scheme.read_next(heap, tid, &op.curr, &mut op.succ) {
                    Outcome::Rollback => self.restart(op, true),
                    Outcome::Ok => {
                        self.sim.phase_event(
                            tid,
                            PhaseEvent::DerefReadInto {
                                src: op.curr.var,
                                dst: op.succ.var,
                            },
                        );
                        self.sim.heap.use_var(tid, op.succ.var);
                        let marked = op.succ.word.is_some_and(|w| w.mark);
                        if marked {
                            self.restart(op, false); // line 46
                        } else {
                            op.state = State::DeleteMarkCas;
                        }
                    }
                }
            }
            State::DeleteMarkCas => {
                // Line 48: logical deletion.
                let Sim { heap, scheme, .. } = &mut self.sim;
                match scheme.pre_write(heap, tid, &[&op.pred, &op.curr]) {
                    Outcome::Rollback => self.restart(op, true),
                    Outcome::Ok => {
                        self.sim
                            .phase_event(tid, PhaseEvent::SharedWrite { via: op.curr.var });
                        let ok =
                            self.sim
                                .heap
                                .cas_next(tid, &op.curr, op.succ.word, &op.succ, true);
                        if ok {
                            op.victim_node = self.target_of(&op.curr);
                            let c = op.curr;
                            self.sim.heap.assign(&mut op.victim, &c);
                            op.state = State::DeleteUnlinkCas;
                        } else {
                            op.state = State::DeleteReadSucc; // line 49
                        }
                    }
                }
            }
            State::DeleteUnlinkCas => {
                // Line 50: try to unlink the victim ourselves.
                self.sim
                    .phase_event(tid, PhaseEvent::SharedWrite { via: op.pred.var });
                let ok = self
                    .sim
                    .heap
                    .cas_next(tid, &op.pred, op.curr.word, &op.succ, false);
                if ok {
                    op.state = State::RetireVictim;
                } else {
                    // Line 51: a full search will unlink it.
                    op.post_search = PostSearch::RetireVictim;
                    self.restart(op, false);
                }
            }
            State::RetireVictim => {
                // Line 52: the marking thread retires, exactly once.
                let node = op.victim_node.expect("victim recorded at mark");
                let Sim { heap, scheme, .. } = &mut self.sim;
                scheme.retire(heap, tid, node);
                self.finish(op, true);
            }
        }
        op.state == State::Done
    }

    fn dispatch_after_search(&mut self, op: &mut HarrisOp) {
        if op.post_search == PostSearch::RetireVictim {
            op.state = State::RetireVictim;
            return;
        }
        let key = op.kind.key();
        match op.kind {
            OpKind::Contains(_) => {
                let found = op.curr_key == key;
                self.finish(op, found);
            }
            OpKind::Insert(_) => {
                if op.curr_key == key {
                    // Lines 33–35: duplicate — retire the local node.
                    let node = op.new_node_id.take().expect("insert allocated");
                    let Sim { heap, scheme, .. } = &mut self.sim;
                    scheme.retire(heap, tid_of(op), node);
                    self.finish(op, false);
                } else {
                    op.state = State::InsertWriteNext;
                }
            }
            OpKind::Delete(_) => {
                if op.curr_key == key {
                    op.state = State::DeleteReadSucc;
                } else {
                    self.finish(op, false);
                }
            }
        }
    }

    fn finish(&mut self, op: &mut HarrisOp, result: bool) {
        let Sim { heap, scheme, .. } = &mut self.sim;
        scheme.end_op(heap, op.tid);
        self.sim.record_response(op.tid, Ret::Bool(result));
        op.result = Some(result);
        op.state = State::Done;
    }

    /// Runs `op` to completion (or until `max_steps`); returns the
    /// result, or `None` if the budget ran out.
    pub fn run_to_completion(&mut self, op: &mut HarrisOp, max_steps: usize) -> Option<bool> {
        for _ in 0..max_steps {
            if self.step(op) {
                return op.result;
            }
        }
        None
    }

    /// Convenience: run a whole operation for `tid`.
    pub fn run_op(&mut self, tid: ThreadId, kind: OpKind) -> bool {
        let mut op = self.start_op(tid, kind);
        self.run_to_completion(&mut op, 1_000_000)
            .expect("operation completes")
    }

    /// Quiescent snapshot of the set's keys.
    pub fn collect_keys(&mut self) -> Vec<i64> {
        let mut out = Vec::new();
        let mut addr = self.head.word().addr;
        loop {
            let node = self.sim.heap.live_node_at(addr);
            let next = {
                // Peek without oracle events: use a scratch read through
                // a fresh traversal is overkill for a debug helper; go
                // through the heap API with a throwaway thread id.
                let mut tmp = self.sim.heap.new_local();
                let holder = Local {
                    var: self.head.var,
                    word: Some(crate::heap::Word { addr, mark: false }),
                };
                self.sim.heap.read_next(ThreadId(99), &holder, &mut tmp)
            };
            match next {
                None => break,
                Some(w) => {
                    if w.addr == self.tail.word().addr {
                        break;
                    }
                    let mut tmp = self.sim.heap.new_local();
                    let holder = Local {
                        var: self.head.var,
                        word: Some(crate::heap::Word {
                            addr: w.addr,
                            mark: false,
                        }),
                    };
                    let nn = self.sim.heap.read_next(ThreadId(99), &holder, &mut tmp);
                    if !nn.is_some_and(|x| x.mark) {
                        let scratch = self.sim.heap.new_var();
                        let k = self.sim.heap.read_key(ThreadId(99), &holder, scratch);
                        out.push(k);
                    }
                    addr = w.addr;
                    let _ = node;
                    continue;
                }
            }
        }
        out
    }
}

fn tid_of(op: &HarrisOp) -> ThreadId {
    op.tid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{SimEbr, SimLeak, SimNbr, SimVbr};

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    fn fresh(scheme: Box<dyn crate::schemes::SimScheme>) -> HarrisSim {
        HarrisSim::new(scheme)
    }

    #[test]
    fn sequential_set_semantics_under_leak() {
        let mut sim = fresh(Box::new(SimLeak));
        assert!(sim.run_op(T0, OpKind::Insert(3)));
        assert!(sim.run_op(T0, OpKind::Insert(1)));
        assert!(!sim.run_op(T0, OpKind::Insert(1)));
        assert!(sim.run_op(T0, OpKind::Contains(3)));
        assert!(!sim.run_op(T0, OpKind::Contains(2)));
        assert!(sim.run_op(T0, OpKind::Delete(1)));
        assert!(!sim.run_op(T0, OpKind::Delete(1)));
        assert_eq!(sim.collect_keys(), vec![3]);
        assert!(sim.sim.heap.verdict().is_smr());
        assert!(sim.sim.heap.verdict().all_accesses_safe());
    }

    #[test]
    fn sequential_set_semantics_under_every_scheme() {
        for scheme in crate::schemes::all_schemes(2) {
            let name = scheme.name();
            let mut sim = fresh(scheme);
            for k in [5, 3, 8, 1] {
                assert!(sim.run_op(T0, OpKind::Insert(k)), "{name} insert {k}");
            }
            assert!(!sim.run_op(T0, OpKind::Insert(5)), "{name}");
            for k in [1, 3] {
                assert!(sim.run_op(T0, OpKind::Delete(k)), "{name} delete {k}");
            }
            assert!(sim.run_op(T0, OpKind::Contains(8)), "{name}");
            assert!(!sim.run_op(T0, OpKind::Contains(3)), "{name}");
            assert_eq!(sim.collect_keys(), vec![5, 8], "{name}");
            assert!(
                sim.sim.heap.verdict().is_smr(),
                "{name}: sequential runs cannot violate Def 4.2"
            );
        }
    }

    #[test]
    fn interleaved_ops_stay_linearizable() {
        use era_core::linearizability::Checker;
        use era_core::spec::SetSpec;
        let mut sim = fresh(Box::new(SimEbr::new(2)));
        // Interleave two threads' operations step by step.
        let mut a = sim.start_op(T0, OpKind::Insert(1));
        let mut b = sim.start_op(T1, OpKind::Insert(1));
        loop {
            let da = sim.step(&mut a);
            let db = sim.step(&mut b);
            if da && db {
                break;
            }
        }
        // Exactly one insert(1) succeeds.
        assert_ne!(a.result(), b.result());
        let mut c = sim.start_op(T0, OpKind::Delete(1));
        let mut d = sim.start_op(T1, OpKind::Contains(1));
        loop {
            let dc = sim.step(&mut c);
            let dd = sim.step(&mut d);
            if dc && dd {
                break;
            }
        }
        assert_eq!(c.result(), Some(true));
        assert!(Checker::new(&SetSpec).is_linearizable(&sim.sim.history));
        assert!(sim.sim.heap.verdict().is_smr());
    }

    #[test]
    fn ebr_retired_nodes_grow_under_a_stalled_reader() {
        // The seed of Figure 1: T1 pauses mid-traversal, T2 churns.
        let mut sim = fresh(Box::new(SimEbr::new(2)));
        sim.run_op(T1, OpKind::Insert(1));
        sim.run_op(T1, OpKind::Insert(2));
        let mut t0 = sim.start_op(T0, OpKind::Delete(3));
        for _ in 0..4 {
            sim.step(&mut t0); // through Begin/ReadHead/ReadPredNext…
        }
        // T2 churns; nothing can be reclaimed while T0 is in-op.
        for round in 0..50 {
            assert!(sim.run_op(T1, OpKind::Insert(100 + round)));
            assert!(sim.run_op(T1, OpKind::Delete(100 + round)));
        }
        assert!(
            sim.sim.heap.sample().retired >= 50,
            "stalled EBR reader pins every retirement"
        );
        assert!(sim.sim.heap.verdict().is_smr());
    }

    #[test]
    fn vbr_rollbacks_are_counted() {
        let mut sim = fresh(Box::new(SimVbr::new()));
        sim.run_op(T0, OpKind::Insert(1));
        sim.run_op(T0, OpKind::Insert(2));
        // T1 pauses mid-traversal standing on node 1; T0 deletes nodes 1
        // and 2 (immediately reclaimed under VBR); T1 resumes and must
        // roll back rather than touch reclaimed memory.
        let mut t1 = sim.start_op(T1, OpKind::Contains(2));
        for _ in 0..5 {
            sim.step(&mut t1);
        }
        assert!(sim.run_op(T0, OpKind::Delete(1)));
        assert!(sim.run_op(T0, OpKind::Delete(2)));
        let done = sim.run_to_completion(&mut t1, 10_000);
        assert_eq!(done, Some(false));
        assert!(sim.sim.heap.verdict().is_smr(), "VBR rolled back safely");
        assert!(
            sim.sim.monitor.rollbacks() > 0,
            "the safe outcome required roll-backs: not easily integrated"
        );
    }

    #[test]
    fn nbr_neutralization_keeps_footprint_bounded_and_safe() {
        let mut sim = fresh(Box::new(SimNbr::new(2, 1)));
        sim.run_op(T0, OpKind::Insert(1));
        sim.run_op(T0, OpKind::Insert(2));
        let mut t1 = sim.start_op(T1, OpKind::Contains(2));
        for _ in 0..5 {
            sim.step(&mut t1);
        }
        for round in 0..50 {
            assert!(sim.run_op(T0, OpKind::Insert(100 + round)));
            assert!(sim.run_op(T0, OpKind::Delete(100 + round)));
        }
        assert!(
            sim.sim.heap.sample().retired <= 2,
            "neutralization reclaims despite the paused reader"
        );
        let done = sim.run_to_completion(&mut t1, 10_000);
        assert_eq!(done, Some(true));
        assert!(sim.sim.heap.verdict().is_smr());
        assert!(
            sim.sim.monitor.rollbacks() > 0,
            "neutralized restarts happened"
        );
    }

    #[test]
    fn step_budget_reports_incomplete() {
        let mut sim = fresh(Box::new(SimLeak));
        let mut op = sim.start_op(T0, OpKind::Insert(1));
        assert_eq!(sim.run_to_completion(&mut op, 2), None);
        assert!(!op.is_done());
        assert_eq!(sim.run_to_completion(&mut op, 1_000), Some(true));
    }
}
