//! Small-step interpreter for Michael's lock-free linked list \[30\] —
//! the modification of Harris's list "originally designated to fit HP"
//! (§6).
//!
//! The difference from [`crate::harris`] is the one the whole paper
//! turns on: traversals never move past a marked node. On encountering
//! one they unlink it first and retry on failure, so every node a
//! traversal stands on was *reachable at protection-validation time*.
//! That closes the Figure 1/Figure 2 hole: HP/HE/IBR are **safe** here
//! (§4.3: "the HP scheme is safe with respect to Michael's linked-list,
//! but is not safe with respect to Harris's linked-list").
//!
//! Running random schedules of this interpreter under the simulated
//! HP/HE/IBR with the Definition 4.2 oracle silent is the positive
//! counterpart to the Figure 1/2 violations — evidence that the oracle
//! flags real unsafety, not noise.

use era_core::history::{Op, Ret};
use era_core::ids::{NodeId, ThreadId};
use era_core::validity::VarId;

use crate::harris::OpKind;
use crate::heap::Local;
use crate::schemes::{Outcome, SimScheme};
use crate::world::Sim;

/// Interpreter state (one variant ≈ one pending shared access).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Begin,
    ReadHead,
    ReadCurrFromPred,
    ReadCurrNext,
    ValidatePred,
    UnlinkCas,
    ReadKey,
    InsertWriteNext,
    InsertCas,
    DeleteReadSucc,
    DeleteMarkCas,
    DeleteUnlinkCas,
    Done,
}

/// One in-flight operation on the simulated Michael list.
#[derive(Debug)]
pub struct MichaelOp {
    /// Executing thread.
    pub tid: ThreadId,
    kind: OpKind,
    state: State,
    pred: Local,
    curr: Local,
    next: Local,
    succ: Local,
    scratch: Local,
    new_node: Local,
    new_node_id: Option<NodeId>,
    victim_node: Option<NodeId>,
    key_scratch: VarId,
    curr_key: i64,
    /// After the cleanup find completes, finish with this result.
    finish_after_cleanup: Option<bool>,
    result: Option<bool>,
    /// Shared-memory steps executed so far.
    pub steps: usize,
    /// Scheme-forced roll-backs experienced.
    pub rollbacks: usize,
}

impl MichaelOp {
    /// The operation's result once complete.
    pub fn result(&self) -> Option<bool> {
        self.result
    }

    /// Whether the operation has responded.
    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }
}

/// A Michael list living inside a [`Sim`] world.
#[derive(Debug)]
pub struct MichaelSim {
    /// The simulation world.
    pub sim: Sim,
    head: Local,
    tail: Local,
}

impl MichaelSim {
    /// Builds the two-sentinel empty list inside a fresh world.
    pub fn new(scheme: Box<dyn SimScheme>) -> Self {
        let mut sim = Sim::new(scheme);
        let setup = ThreadId(0);
        let mut tail = sim.heap.new_local();
        let tail_node = sim.heap.alloc(setup, i64::MAX, &mut tail);
        sim.scheme.on_alloc(&mut sim.heap, tail_node);
        let mut head = sim.heap.new_local();
        let head_node = sim.heap.alloc(setup, i64::MIN, &mut head);
        sim.scheme.on_alloc(&mut sim.heap, head_node);
        sim.heap.write_next(setup, &head, &tail, false);
        sim.heap.share(&tail);
        sim.heap.share(&head);
        MichaelSim { sim, head, tail }
    }

    /// Starts an operation for `tid`.
    pub fn start_op(&mut self, tid: ThreadId, kind: OpKind) -> MichaelOp {
        let heap = &mut self.sim.heap;
        MichaelOp {
            tid,
            kind,
            state: State::Begin,
            pred: heap.new_local(),
            curr: heap.new_local(),
            next: heap.new_local(),
            succ: heap.new_local(),
            scratch: heap.new_local(),
            new_node: heap.new_local(),
            new_node_id: None,
            victim_node: None,
            key_scratch: heap.new_var(),
            curr_key: 0,
            finish_after_cleanup: None,
            result: None,
            steps: 0,
            rollbacks: 0,
        }
    }

    fn restart(&mut self, op: &mut MichaelOp, scheme_forced: bool) {
        if scheme_forced {
            op.rollbacks += 1;
            self.sim.monitor.record_rollback();
        }
        let Sim { heap, scheme, .. } = &mut self.sim;
        scheme.on_retry(heap, op.tid);
        op.state = State::ReadHead;
    }

    fn op_key(op: &MichaelOp) -> i64 {
        match op.kind {
            OpKind::Insert(k) | OpKind::Delete(k) | OpKind::Contains(k) => k,
        }
    }

    /// Executes one step; returns `true` when the operation completed.
    pub fn step(&mut self, op: &mut MichaelOp) -> bool {
        if op.state == State::Done {
            return true;
        }
        op.steps += 1;
        let tid = op.tid;
        let key = Self::op_key(op);
        match op.state {
            State::Done => unreachable!(),
            State::Begin => {
                let history_op = match op.kind {
                    OpKind::Insert(k) => Op::Insert(k),
                    OpKind::Delete(k) => Op::Delete(k),
                    OpKind::Contains(k) => Op::Contains(k),
                };
                self.sim.record_invoke(tid, history_op);
                let Sim { heap, scheme, .. } = &mut self.sim;
                scheme.begin_op(heap, tid);
                if let OpKind::Insert(k) = op.kind {
                    let node = heap.alloc(tid, k, &mut op.new_node);
                    scheme.on_alloc(heap, node);
                    op.new_node_id = Some(node);
                }
                op.state = State::ReadHead;
            }
            State::ReadHead => {
                let head = self.head;
                self.sim.heap.read_global(&mut op.pred, &head);
                op.state = State::ReadCurrFromPred;
            }
            State::ReadCurrFromPred => {
                let Sim { heap, scheme, .. } = &mut self.sim;
                match scheme.read_next(heap, tid, &op.pred, &mut op.curr) {
                    Outcome::Rollback => self.restart(op, true),
                    Outcome::Ok => {
                        self.sim.heap.use_var(tid, op.curr.var);
                        let marked = op.curr.word.is_some_and(|w| w.mark);
                        if marked {
                            // pred itself is logically deleted: retry.
                            self.restart(op, false);
                        } else {
                            op.state = State::ReadCurrNext;
                        }
                    }
                }
            }
            State::ReadCurrNext => {
                let Sim { heap, scheme, .. } = &mut self.sim;
                match scheme.read_next(heap, tid, &op.curr, &mut op.next) {
                    Outcome::Rollback => self.restart(op, true),
                    Outcome::Ok => op.state = State::ValidatePred,
                }
            }
            State::ValidatePred => {
                // Michael's re-validation: curr must still be linked at
                // pred (re-read pred.next and compare words).
                let Sim { heap, scheme, .. } = &mut self.sim;
                match scheme.read_next(heap, tid, &op.pred, &mut op.scratch) {
                    Outcome::Rollback => self.restart(op, true),
                    Outcome::Ok => {
                        self.sim.heap.use_var(tid, op.scratch.var);
                        self.sim.heap.use_var(tid, op.curr.var);
                        if op.scratch.word != op.curr.word {
                            self.restart(op, false);
                            return false;
                        }
                        self.sim.heap.use_var(tid, op.next.var);
                        if op.next.word.is_some_and(|w| w.mark) {
                            op.state = State::UnlinkCas;
                        } else {
                            op.state = State::ReadKey;
                        }
                    }
                }
            }
            State::UnlinkCas => {
                // Unlink the marked curr before advancing — the move
                // that makes the list HP-compatible.
                let Sim { heap, scheme, .. } = &mut self.sim;
                match scheme.pre_write(heap, tid, &[&op.pred, &op.curr]) {
                    Outcome::Rollback => self.restart(op, true),
                    Outcome::Ok => {
                        let mut succ_unmarked = op.next;
                        succ_unmarked.word = op.next.word.map(|w| w.unmarked());
                        let ok = self.sim.heap.cas_next(
                            tid,
                            &op.pred,
                            op.curr.word,
                            &succ_unmarked,
                            false,
                        );
                        if ok {
                            // The unlinker retires, exactly once.
                            let node = self
                                .sim
                                .heap
                                .target(&op.curr)
                                .expect("curr references a node");
                            let Sim { heap, scheme, .. } = &mut self.sim;
                            scheme.retire(heap, tid, node);
                            op.state = State::ReadCurrFromPred;
                        } else {
                            self.restart(op, false);
                        }
                    }
                }
            }
            State::ReadKey => {
                let Sim { heap, scheme, .. } = &mut self.sim;
                match scheme.read_key(heap, tid, &op.curr, op.key_scratch) {
                    Err(Outcome::Rollback) => self.restart(op, true),
                    Err(Outcome::Ok) => unreachable!(),
                    Ok(bits) => {
                        self.sim.heap.use_var(tid, op.key_scratch);
                        op.curr_key = bits;
                        if bits < key {
                            let c = op.curr;
                            self.sim.heap.assign(&mut op.pred, &c);
                            op.state = State::ReadCurrFromPred;
                        } else {
                            self.dispatch(op);
                        }
                    }
                }
            }
            State::InsertWriteNext => {
                let (nn, c) = (op.new_node, op.curr);
                self.sim.heap.write_next(tid, &nn, &c, false);
                op.state = State::InsertCas;
            }
            State::InsertCas => {
                let Sim { heap, scheme, .. } = &mut self.sim;
                match scheme.pre_write(heap, tid, &[&op.pred]) {
                    Outcome::Rollback => self.restart(op, true),
                    Outcome::Ok => {
                        let ok = self.sim.heap.cas_next(
                            tid,
                            &op.pred,
                            op.curr.word,
                            &op.new_node,
                            false,
                        );
                        if ok {
                            self.sim.heap.share(&op.new_node);
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
                        self.sim.heap.use_var(tid, op.succ.var);
                        if op.succ.word.is_some_and(|w| w.mark) {
                            self.restart(op, false); // concurrent delete
                        } else {
                            op.state = State::DeleteMarkCas;
                        }
                    }
                }
            }
            State::DeleteMarkCas => {
                let Sim { heap, scheme, .. } = &mut self.sim;
                match scheme.pre_write(heap, tid, &[&op.pred, &op.curr]) {
                    Outcome::Rollback => self.restart(op, true),
                    Outcome::Ok => {
                        let ok =
                            self.sim
                                .heap
                                .cas_next(tid, &op.curr, op.succ.word, &op.succ, true);
                        if ok {
                            op.victim_node = self.sim.heap.target(&op.curr);
                            op.state = State::DeleteUnlinkCas;
                        } else {
                            op.state = State::DeleteReadSucc;
                        }
                    }
                }
            }
            State::DeleteUnlinkCas => {
                let ok = self
                    .sim
                    .heap
                    .cas_next(tid, &op.pred, op.curr.word, &op.succ, false);
                if ok {
                    let node = op.victim_node.expect("victim recorded");
                    let Sim { heap, scheme, .. } = &mut self.sim;
                    scheme.retire(heap, tid, node);
                    self.finish(op, true);
                } else {
                    // The victim is marked but someone moved pred.next:
                    // run a cleanup find (it, or a concurrent one,
                    // unlinks-and-retires the victim), then finish —
                    // the logical deletion already succeeded at the mark.
                    op.finish_after_cleanup = Some(true);
                    self.restart(op, false);
                }
            }
        }
        op.state == State::Done
    }

    fn dispatch(&mut self, op: &mut MichaelOp) {
        if let Some(result) = op.finish_after_cleanup.take() {
            // The cleanup find positioned itself past the (now unlinked)
            // victim; the delete already logically succeeded.
            self.finish(op, result);
            return;
        }
        let key = Self::op_key(op);
        let found = op.curr_key == key;
        match op.kind {
            OpKind::Contains(_) => self.finish(op, found),
            OpKind::Insert(_) => {
                if found {
                    let node = op.new_node_id.take().expect("insert allocated");
                    let tid = op.tid;
                    let Sim { heap, scheme, .. } = &mut self.sim;
                    scheme.retire(heap, tid, node);
                    self.finish(op, false);
                } else {
                    op.state = State::InsertWriteNext;
                }
            }
            OpKind::Delete(_) => {
                if found {
                    op.state = State::DeleteReadSucc;
                } else {
                    self.finish(op, false);
                }
            }
        }
    }

    fn finish(&mut self, op: &mut MichaelOp, result: bool) {
        let Sim { heap, scheme, .. } = &mut self.sim;
        scheme.end_op(heap, op.tid);
        self.sim.record_response(op.tid, Ret::Bool(result));
        op.result = Some(result);
        op.state = State::Done;
    }

    /// Runs `op` to completion within `max_steps`.
    pub fn run_to_completion(&mut self, op: &mut MichaelOp, max_steps: usize) -> Option<bool> {
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

    /// Quiescent snapshot of the set's keys (debug helper).
    pub fn collect_keys(&mut self) -> Vec<i64> {
        let mut out = Vec::new();
        let mut addr = self.head.word().addr;
        let tail_addr = self.tail.word().addr;
        loop {
            let holder = Local {
                var: self.head.var,
                word: Some(crate::heap::Word { addr, mark: false }),
            };
            let mut tmp = self.sim.heap.new_local();
            match self.sim.heap.read_next(ThreadId(99), &holder, &mut tmp) {
                None => break,
                Some(w) => {
                    if w.addr == tail_addr {
                        break;
                    }
                    let node_holder = Local {
                        var: self.head.var,
                        word: Some(crate::heap::Word {
                            addr: w.addr,
                            mark: false,
                        }),
                    };
                    let mut tmp2 = self.sim.heap.new_local();
                    let nn = self
                        .sim
                        .heap
                        .read_next(ThreadId(99), &node_holder, &mut tmp2);
                    if !nn.is_some_and(|x| x.mark) {
                        let scratch = self.sim.heap.new_var();
                        out.push(self.sim.heap.read_key(ThreadId(99), &node_holder, scratch));
                    }
                    addr = w.addr;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{all_schemes, SimHe, SimHp, SimIbr};

    const T0: ThreadId = ThreadId(0);

    #[test]
    fn sequential_semantics_under_every_scheme() {
        for scheme in all_schemes(2) {
            let name = scheme.name();
            let mut sim = MichaelSim::new(scheme);
            for k in [5, 3, 8, 1] {
                assert!(sim.run_op(T0, OpKind::Insert(k)), "{name} insert {k}");
            }
            assert!(!sim.run_op(T0, OpKind::Insert(5)), "{name}");
            assert!(sim.run_op(T0, OpKind::Delete(3)), "{name}");
            assert!(!sim.run_op(T0, OpKind::Delete(3)), "{name}");
            assert!(sim.run_op(T0, OpKind::Contains(8)), "{name}");
            assert!(!sim.run_op(T0, OpKind::Contains(3)), "{name}");
            assert_eq!(sim.collect_keys(), vec![1, 5, 8], "{name}");
            assert!(sim.sim.heap.verdict().is_smr(), "{name}");
        }
    }

    #[test]
    fn hp_is_safe_on_michaels_list_under_the_figure1_schedule() {
        // The same adversarial schedule that breaks HP on Harris's list
        // (stalled reader + churn + solo run) is harmless here: the
        // reader's protected node is never bypassed.
        let mut sim = MichaelSim::new(Box::new(SimHp::new(2, 3)));
        let t1 = ThreadId(0);
        let t2 = ThreadId(1);
        assert!(sim.run_op(t2, OpKind::Insert(1)));
        assert!(sim.run_op(t2, OpKind::Insert(2)));
        let mut op1 = sim.start_op(t1, OpKind::Delete(3));
        for _ in 0..3 {
            sim.step(&mut op1);
        }
        assert!(sim.run_op(t2, OpKind::Delete(1)));
        for n in 2..152i64 {
            assert!(sim.run_op(t2, OpKind::Insert(n + 1)));
            assert!(sim.run_op(t2, OpKind::Delete(n)));
        }
        // Bounded footprint during the churn (HP is robust)…
        assert!(sim.sim.heap.sample().retired <= 8);
        // …and the solo run is SAFE (the §4.3 claim).
        let done = sim.run_to_completion(&mut op1, 1_000_000);
        assert_eq!(done, Some(false), "delete(3): 3 is not in the list");
        let verdict = sim.sim.heap.verdict();
        assert!(
            verdict.is_smr(),
            "HP must be safe on Michael's list: {:?}",
            verdict.violations
        );
    }

    #[test]
    fn he_and_ibr_are_safe_on_michaels_list() {
        for scheme in [
            Box::new(SimHe::new(2, 3)) as Box<dyn SimScheme>,
            Box::new(SimIbr::new(2)) as Box<dyn SimScheme>,
        ] {
            let name = scheme.name();
            let mut sim = MichaelSim::new(scheme);
            let t1 = ThreadId(0);
            let t2 = ThreadId(1);
            assert!(sim.run_op(t2, OpKind::Insert(1)));
            assert!(sim.run_op(t2, OpKind::Insert(2)));
            let mut op1 = sim.start_op(t1, OpKind::Contains(2));
            for _ in 0..3 {
                sim.step(&mut op1);
            }
            assert!(sim.run_op(t2, OpKind::Delete(1)));
            for n in 2..102i64 {
                assert!(sim.run_op(t2, OpKind::Insert(n + 1)));
                assert!(sim.run_op(t2, OpKind::Delete(n)));
            }
            let _ = sim.run_to_completion(&mut op1, 1_000_000);
            assert!(
                sim.sim.heap.verdict().is_smr(),
                "{name} must be safe on Michael's list: {:?}",
                sim.sim.heap.verdict().violations
            );
        }
    }

    #[test]
    fn traversals_unlink_marked_nodes_before_advancing() {
        use crate::heap::Word;
        let mut sim = MichaelSim::new(Box::new(SimHp::new(1, 3)));
        for k in [1, 2, 3] {
            assert!(sim.run_op(T0, OpKind::Insert(k)));
        }
        // Hand-mark node 1 (what a paused delete would leave behind).
        let head_addr = sim.head.word().addr;
        let holder = Local {
            var: sim.head.var,
            word: Some(Word {
                addr: head_addr,
                mark: false,
            }),
        };
        let mut n1 = sim.sim.heap.new_local();
        sim.sim.heap.read_next(ThreadId(9), &holder, &mut n1);
        let mut n1_next = sim.sim.heap.new_local();
        sim.sim.heap.read_next(ThreadId(9), &n1, &mut n1_next);
        assert!(sim
            .sim
            .heap
            .cas_next(ThreadId(9), &n1, n1_next.word, &n1_next, true));
        // A contains(3) traversal must unlink node 1 on its way.
        assert!(sim.run_op(T0, OpKind::Contains(3)));
        assert_eq!(sim.collect_keys(), vec![2, 3]);
        assert_eq!(
            sim.sim.heap.lifecycle().total_retires(),
            1,
            "the unlinker retired node 1"
        );
        // …and HP's end-of-op scan already reclaimed it (nothing
        // protects it once the traversal finished).
        assert_eq!(sim.sim.heap.sample().retired, 0);
        assert!(sim.sim.heap.verdict().is_smr());
    }

    #[test]
    fn contended_interleavings_stay_correct() {
        use era_core::linearizability::Checker;
        use era_core::spec::SetSpec;
        let mut sim = MichaelSim::new(Box::new(SimHp::new(2, 3)));
        let (a, b) = (ThreadId(0), ThreadId(1));
        let mut op_a = sim.start_op(a, OpKind::Insert(7));
        let mut op_b = sim.start_op(b, OpKind::Insert(7));
        loop {
            let da = sim.step(&mut op_a);
            let db = sim.step(&mut op_b);
            if da && db {
                break;
            }
        }
        assert_ne!(op_a.result(), op_b.result(), "exactly one winner");
        let mut op_c = sim.start_op(a, OpKind::Delete(7));
        let mut op_d = sim.start_op(b, OpKind::Delete(7));
        loop {
            let dc = sim.step(&mut op_c);
            let dd = sim.step(&mut op_d);
            if dc && dd {
                break;
            }
        }
        assert_ne!(op_c.result(), op_d.result(), "exactly one delete wins");
        assert!(Checker::new(&SetSpec).is_linearizable(&sim.sim.history));
        assert!(sim.sim.heap.verdict().is_smr());
    }
}
