//! Simulated reclamation schemes.
//!
//! Each scheme implements [`SimScheme`]: the hooks correspond to the
//! Definition 5.3 insertion points (`begin_op`/`end_op`, primitive
//! replacement via [`SimScheme::read_next`]/[`SimScheme::read_key`],
//! alloc/retire replacement) plus [`SimScheme::pre_write`], the
//! arbitrary-location hook the non-easy schemes need. A hook may return
//! [`Outcome::Rollback`], forcing the integrated operation back to its
//! checkpoint — the simulator counts those roll-backs, because a scheme
//! that triggers any is, by Definition 5.3, not easily integrated.
//!
//! The simulated schemes mirror `era-smr`'s real ones but run under the
//! deterministic heap with the safety oracle, so the paper's
//! constructions (Figures 1 and 2) can be replayed step by step and the
//! exact violation surfaced.

use std::collections::{HashMap, HashSet, VecDeque};

use era_core::ids::{NodeId, ThreadId};
use era_core::integration::{CallSite, CodeShape, SchemeInterface};
use era_core::validity::{Validity, VarId};

use crate::heap::{Local, SimHeap};

/// Result of a scheme-mediated primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Proceed.
    Ok,
    /// The scheme demands a roll-back to the operation's checkpoint
    /// (VBR version mismatch, NBR neutralization).
    Rollback,
}

/// A simulated reclamation scheme.
pub trait SimScheme: std::fmt::Debug {
    /// Scheme name.
    fn name(&self) -> &'static str;

    /// The static Definition 5.3 interface description.
    fn interface(&self) -> SchemeInterface;

    /// Operation entry hook.
    fn begin_op(&mut self, heap: &mut SimHeap, tid: ThreadId);

    /// Operation exit hook.
    fn end_op(&mut self, heap: &mut SimHeap, tid: ThreadId);

    /// Allocation hook (birth eras).
    fn on_alloc(&mut self, _heap: &mut SimHeap, _node: NodeId) {}

    /// Replacement of the `next`-pointer read primitive.
    fn read_next(
        &mut self,
        heap: &mut SimHeap,
        tid: ThreadId,
        src: &Local,
        dst: &mut Local,
    ) -> Outcome {
        heap.read_next(tid, src, dst);
        Outcome::Ok
    }

    /// Replacement of the key read primitive. On `Ok(bits)` the bits
    /// are the raw memory content.
    fn read_key(
        &mut self,
        heap: &mut SimHeap,
        tid: ThreadId,
        src: &Local,
        scratch: VarId,
    ) -> Result<i64, Outcome> {
        Ok(heap.read_key(tid, src, scratch))
    }

    /// Hook before a write phase touching the nodes behind `protects`
    /// (NBR reservations). Returning [`Outcome::Rollback`] sends the
    /// operation back to its checkpoint.
    fn pre_write(&mut self, _heap: &mut SimHeap, _tid: ThreadId, _protects: &[&Local]) -> Outcome {
        Outcome::Ok
    }

    /// Retire replacement: bookkeeping plus (possibly) reclamation.
    fn retire(&mut self, heap: &mut SimHeap, tid: ThreadId, node: NodeId);

    /// Called when the integrated operation re-enters its traversal
    /// (Harris's `goto retry` or a scheme-forced roll-back): the thread
    /// is back in a read-only phase.
    fn on_retry(&mut self, _heap: &mut SimHeap, _tid: ThreadId) {}

    /// Whether the scheme forces roll-backs as part of its protocol
    /// (drives the measured easy-integration verdict together with the
    /// static interface).
    fn uses_rollbacks(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------
// Leak
// ---------------------------------------------------------------------

/// Never reclaims.
#[derive(Debug, Default)]
pub struct SimLeak;

impl SimScheme for SimLeak {
    fn name(&self) -> &'static str {
        "Leak"
    }

    fn interface(&self) -> SchemeInterface {
        SchemeInterface::new("Leak").call_site(CallSite::RetireReplacement)
    }

    fn begin_op(&mut self, _heap: &mut SimHeap, _tid: ThreadId) {}

    fn end_op(&mut self, _heap: &mut SimHeap, _tid: ThreadId) {}

    fn retire(&mut self, heap: &mut SimHeap, _tid: ThreadId, node: NodeId) {
        heap.retire(node)
            .expect("plain implementation retires correctly");
    }
}

// ---------------------------------------------------------------------
// EBR
// ---------------------------------------------------------------------

/// Simulated epoch-based reclamation (Appendix A protocol, aggressive
/// reclamation so any footprint growth is attributable to a stalled
/// announcement, not laziness).
#[derive(Debug)]
pub struct SimEbr {
    epoch: u64,
    announcements: Vec<Option<u64>>,
    retired: Vec<(NodeId, u64)>,
}

impl SimEbr {
    /// Creates the scheme for `threads` threads.
    pub fn new(threads: usize) -> Self {
        SimEbr {
            epoch: 2,
            announcements: vec![None; threads],
            retired: Vec::new(),
        }
    }

    fn try_advance(&mut self) {
        if self
            .announcements
            .iter()
            .flatten()
            .all(|&a| a == self.epoch)
        {
            self.epoch += 1;
        }
    }

    fn collect(&mut self, heap: &mut SimHeap) {
        let epoch = self.epoch;
        let (free, keep): (Vec<_>, Vec<_>) =
            self.retired.drain(..).partition(|&(_, e)| e + 2 <= epoch);
        for (node, _) in free {
            heap.reclaim(node, false).expect("retired node reclaimable");
        }
        self.retired = keep;
    }
}

impl SimScheme for SimEbr {
    fn name(&self) -> &'static str {
        "EBR"
    }

    fn interface(&self) -> SchemeInterface {
        SchemeInterface::new("EBR")
            .call_site(CallSite::OperationBoundary)
            .call_site(CallSite::RetireReplacement)
    }

    fn begin_op(&mut self, _heap: &mut SimHeap, tid: ThreadId) {
        self.announcements[tid.0] = Some(self.epoch);
    }

    fn end_op(&mut self, _heap: &mut SimHeap, tid: ThreadId) {
        self.announcements[tid.0] = None;
        self.try_advance();
    }

    fn retire(&mut self, heap: &mut SimHeap, _tid: ThreadId, node: NodeId) {
        heap.retire(node)
            .expect("plain implementation retires correctly");
        self.retired.push((node, self.epoch));
        self.try_advance();
        self.collect(heap);
    }
}

// ---------------------------------------------------------------------
// HP
// ---------------------------------------------------------------------

/// Simulated hazard pointers: `k` rotating hazard slots per thread; a
/// protected read publishes the target and re-validates the source.
#[derive(Debug)]
pub struct SimHp {
    hazards: Vec<VecDeque<usize>>,
    k: usize,
    retired: Vec<NodeId>,
    scratch: Option<Local>,
}

impl SimHp {
    /// Creates the scheme for `threads` threads × `k` hazard slots.
    pub fn new(threads: usize, k: usize) -> Self {
        SimHp {
            hazards: vec![VecDeque::new(); threads],
            k: k.max(1),
            retired: Vec::new(),
            scratch: None,
        }
    }

    fn protect(&mut self, tid: ThreadId, addr: usize) {
        let h = &mut self.hazards[tid.0];
        h.push_back(addr);
        while h.len() > self.k {
            h.pop_front();
        }
    }

    fn scan(&mut self, heap: &mut SimHeap) {
        let protected: HashSet<usize> = self.hazards.iter().flatten().copied().collect();
        let (free, keep): (Vec<_>, Vec<_>) = self
            .retired
            .drain(..)
            .partition(|n| !protected.contains(&n.addr));
        for node in free {
            heap.reclaim(node, false).expect("retired node reclaimable");
        }
        self.retired = keep;
    }
}

impl SimScheme for SimHp {
    fn name(&self) -> &'static str {
        "HP"
    }

    fn interface(&self) -> SchemeInterface {
        SchemeInterface::new("HP")
            .call_site(CallSite::PrimitiveReplacement)
            .call_site(CallSite::AllocReplacement)
            .call_site(CallSite::RetireReplacement)
    }

    fn begin_op(&mut self, _heap: &mut SimHeap, _tid: ThreadId) {}

    fn end_op(&mut self, heap: &mut SimHeap, tid: ThreadId) {
        self.hazards[tid.0].clear();
        // Dropping protections is a scan opportunity (the real scheme
        // scans on the next retire; the simulator has no background
        // activity, so scan eagerly).
        self.scan(heap);
    }

    fn read_next(
        &mut self,
        heap: &mut SimHeap,
        tid: ThreadId,
        src: &Local,
        dst: &mut Local,
    ) -> Outcome {
        // Read, publish the hazard, re-read the source to validate (the
        // scheduler cannot intervene inside one hook, so a single
        // re-read suffices — the point of Figures 1/2 is that even a
        // *stable* validation does not imply safety here).
        let first = heap.read_next(tid, src, dst);
        if let Some(w) = first {
            self.protect(tid, w.addr);
        }
        let mut scratch = self.scratch.take().unwrap_or_else(|| heap.new_local());
        let again = heap.read_next(tid, src, &mut scratch);
        heap.overwrite_var(scratch.var);
        self.scratch = Some(scratch);
        debug_assert_eq!(first, again, "single-step validation is stable");
        Outcome::Ok
    }

    fn retire(&mut self, heap: &mut SimHeap, _tid: ThreadId, node: NodeId) {
        heap.retire(node)
            .expect("plain implementation retires correctly");
        self.retired.push(node);
        self.scan(heap);
    }
}

// ---------------------------------------------------------------------
// HE
// ---------------------------------------------------------------------

/// Simulated hazard eras: per-read era reservations validated against
/// the global era clock; nodes freed when no reservation intersects
/// their lifetime.
#[derive(Debug)]
pub struct SimHe {
    era: u64,
    reservations: Vec<VecDeque<u64>>,
    k: usize,
    birth: HashMap<NodeId, u64>,
    retired: Vec<(NodeId, u64, u64)>,
}

impl SimHe {
    /// Creates the scheme for `threads` threads × `k` reservation slots.
    pub fn new(threads: usize, k: usize) -> Self {
        SimHe {
            era: 1,
            reservations: vec![VecDeque::new(); threads],
            k: k.max(1),
            birth: HashMap::new(),
            retired: Vec::new(),
        }
    }

    fn scan(&mut self, heap: &mut SimHeap) {
        let eras: Vec<u64> = self.reservations.iter().flatten().copied().collect();
        let (free, keep): (Vec<_>, Vec<_>) = self
            .retired
            .drain(..)
            .partition(|&(_, b, r)| !eras.iter().any(|&e| b <= e && e <= r));
        for (node, _, _) in free {
            heap.reclaim(node, false).expect("retired node reclaimable");
        }
        self.retired = keep;
    }
}

impl SimScheme for SimHe {
    fn name(&self) -> &'static str {
        "HE"
    }

    fn interface(&self) -> SchemeInterface {
        SchemeInterface::new("HE")
            .call_site(CallSite::PrimitiveReplacement)
            .call_site(CallSite::AllocReplacement)
            .call_site(CallSite::RetireReplacement)
    }

    fn begin_op(&mut self, _heap: &mut SimHeap, _tid: ThreadId) {}

    fn end_op(&mut self, heap: &mut SimHeap, tid: ThreadId) {
        self.reservations[tid.0].clear();
        self.scan(heap);
    }

    fn on_alloc(&mut self, _heap: &mut SimHeap, node: NodeId) {
        self.birth.insert(node, self.era);
        self.era += 1;
    }

    fn read_next(
        &mut self,
        heap: &mut SimHeap,
        tid: ThreadId,
        src: &Local,
        dst: &mut Local,
    ) -> Outcome {
        let r = &mut self.reservations[tid.0];
        r.push_back(self.era);
        while r.len() > self.k {
            r.pop_front();
        }
        heap.read_next(tid, src, dst);
        Outcome::Ok
    }

    fn retire(&mut self, heap: &mut SimHeap, _tid: ThreadId, node: NodeId) {
        heap.retire(node)
            .expect("plain implementation retires correctly");
        let birth = self.birth.remove(&node).unwrap_or(0);
        self.retired.push((node, birth, self.era));
        self.era += 1;
        self.scan(heap);
    }
}

// ---------------------------------------------------------------------
// IBR (2GE)
// ---------------------------------------------------------------------

/// Simulated interval-based reclamation: one `[lower, upper]` era
/// reservation per thread, extended on every read.
#[derive(Debug)]
pub struct SimIbr {
    era: u64,
    intervals: Vec<Option<(u64, u64)>>,
    birth: HashMap<NodeId, u64>,
    retired: Vec<(NodeId, u64, u64)>,
}

impl SimIbr {
    /// Creates the scheme for `threads` threads.
    pub fn new(threads: usize) -> Self {
        SimIbr {
            era: 1,
            intervals: vec![None; threads],
            birth: HashMap::new(),
            retired: Vec::new(),
        }
    }

    fn scan(&mut self, heap: &mut SimHeap) {
        let intervals: Vec<(u64, u64)> = self.intervals.iter().flatten().copied().collect();
        let (free, keep): (Vec<_>, Vec<_>) = self
            .retired
            .drain(..)
            .partition(|&(_, b, r)| !intervals.iter().any(|&(lo, hi)| b <= hi && lo <= r));
        for (node, _, _) in free {
            heap.reclaim(node, false).expect("retired node reclaimable");
        }
        self.retired = keep;
    }
}

impl SimScheme for SimIbr {
    fn name(&self) -> &'static str {
        "IBR"
    }

    fn interface(&self) -> SchemeInterface {
        SchemeInterface::new("IBR")
            .call_site(CallSite::OperationBoundary)
            .call_site(CallSite::PrimitiveReplacement)
            .call_site(CallSite::AllocReplacement)
            .call_site(CallSite::RetireReplacement)
    }

    fn begin_op(&mut self, _heap: &mut SimHeap, tid: ThreadId) {
        self.intervals[tid.0] = Some((self.era, self.era));
    }

    fn end_op(&mut self, heap: &mut SimHeap, tid: ThreadId) {
        self.intervals[tid.0] = None;
        self.scan(heap);
    }

    fn on_alloc(&mut self, _heap: &mut SimHeap, node: NodeId) {
        self.birth.insert(node, self.era);
        self.era += 1;
    }

    fn read_next(
        &mut self,
        heap: &mut SimHeap,
        tid: ThreadId,
        src: &Local,
        dst: &mut Local,
    ) -> Outcome {
        if let Some((lo, hi)) = self.intervals[tid.0] {
            self.intervals[tid.0] = Some((lo, hi.max(self.era)));
        }
        heap.read_next(tid, src, dst);
        Outcome::Ok
    }

    fn retire(&mut self, heap: &mut SimHeap, _tid: ThreadId, node: NodeId) {
        heap.retire(node)
            .expect("plain implementation retires correctly");
        let birth = self.birth.remove(&node).unwrap_or(0);
        self.retired.push((node, birth, self.era));
        self.era += 1;
        self.scan(heap);
    }
}

// ---------------------------------------------------------------------
// VBR
// ---------------------------------------------------------------------

/// Simulated version-based reclamation: retire *is* reclaim; every read
/// validates the source's incarnation and rolls back on a mismatch.
#[derive(Debug, Default)]
pub struct SimVbr;

impl SimVbr {
    /// Creates the scheme.
    pub fn new() -> Self {
        SimVbr
    }
}

impl SimScheme for SimVbr {
    fn name(&self) -> &'static str {
        "VBR"
    }

    fn interface(&self) -> SchemeInterface {
        SchemeInterface::new("VBR")
            .call_site(CallSite::OperationBoundary)
            .call_site(CallSite::PrimitiveReplacement)
            .call_site(CallSite::Arbitrary) // checkpoints
            .with_rollback()
            .with_code_shape(CodeShape::Checkpoints)
    }

    fn begin_op(&mut self, _heap: &mut SimHeap, _tid: ThreadId) {}

    fn end_op(&mut self, _heap: &mut SimHeap, _tid: ThreadId) {}

    fn read_next(
        &mut self,
        heap: &mut SimHeap,
        tid: ThreadId,
        src: &Local,
        dst: &mut Local,
    ) -> Outcome {
        // The version check: a read through a stale reference is
        // detected (the real scheme compares per-node version numbers;
        // incarnation mismatch is the same information).
        if heap.validity(src) != Validity::Valid {
            return Outcome::Rollback;
        }
        heap.read_next(tid, src, dst);
        Outcome::Ok
    }

    fn read_key(
        &mut self,
        heap: &mut SimHeap,
        tid: ThreadId,
        src: &Local,
        scratch: VarId,
    ) -> Result<i64, Outcome> {
        if heap.validity(src) != Validity::Valid {
            return Err(Outcome::Rollback);
        }
        Ok(heap.read_key(tid, src, scratch))
    }

    fn pre_write(&mut self, heap: &mut SimHeap, _tid: ThreadId, protects: &[&Local]) -> Outcome {
        // Writing through a stale reference must fail; VBR re-validates
        // at the checkpoint before the write phase.
        if protects.iter().any(|l| heap.validity(l) != Validity::Valid) {
            Outcome::Rollback
        } else {
            Outcome::Ok
        }
    }

    fn retire(&mut self, heap: &mut SimHeap, _tid: ThreadId, node: NodeId) {
        heap.retire(node)
            .expect("plain implementation retires correctly");
        heap.reclaim(node, false)
            .expect("retire is reclaim under VBR");
    }

    fn uses_rollbacks(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// NBR
// ---------------------------------------------------------------------

/// Simulated neutralization-based reclamation with *signal* semantics:
/// a reclaiming thread neutralizes every thread currently in a read
/// phase **immediately** (the kernel guarantee the real scheme gets from
/// POSIX signals), reclaims everything unreserved, and the neutralized
/// threads roll back at their next step.
#[derive(Debug)]
pub struct SimNbr {
    neutralized: Vec<bool>,
    in_read_phase: Vec<bool>,
    reservations: Vec<Vec<usize>>,
    retired: Vec<NodeId>,
    threshold: usize,
}

impl SimNbr {
    /// Creates the scheme for `threads` threads; reclamation triggers
    /// every `threshold` retirements.
    pub fn new(threads: usize, threshold: usize) -> Self {
        SimNbr {
            neutralized: vec![false; threads],
            in_read_phase: vec![false; threads],
            reservations: vec![Vec::new(); threads],
            retired: Vec::new(),
            threshold: threshold.max(1),
        }
    }

    fn neutralize_and_reclaim(&mut self, heap: &mut SimHeap, self_tid: ThreadId) {
        for (i, in_read) in self.in_read_phase.iter().enumerate() {
            if i != self_tid.0 && *in_read {
                self.neutralized[i] = true;
            }
        }
        let reserved: HashSet<usize> = self.reservations.iter().flatten().copied().collect();
        let (free, keep): (Vec<_>, Vec<_>) = self
            .retired
            .drain(..)
            .partition(|n| !reserved.contains(&n.addr));
        for node in free {
            heap.reclaim(node, false).expect("retired node reclaimable");
        }
        self.retired = keep;
    }
}

impl SimScheme for SimNbr {
    fn name(&self) -> &'static str {
        "NBR"
    }

    fn interface(&self) -> SchemeInterface {
        SchemeInterface::new("NBR")
            .call_site(CallSite::OperationBoundary)
            .call_site(CallSite::RetireReplacement)
            .call_site(CallSite::Arbitrary) // reservations at phase edges
            .with_rollback()
            .with_code_shape(CodeShape::ReadWritePhases)
    }

    fn begin_op(&mut self, _heap: &mut SimHeap, tid: ThreadId) {
        self.in_read_phase[tid.0] = true;
        self.neutralized[tid.0] = false;
        self.reservations[tid.0].clear();
    }

    fn end_op(&mut self, _heap: &mut SimHeap, tid: ThreadId) {
        self.in_read_phase[tid.0] = false;
        self.neutralized[tid.0] = false;
        self.reservations[tid.0].clear();
    }

    fn read_next(
        &mut self,
        heap: &mut SimHeap,
        tid: ThreadId,
        src: &Local,
        dst: &mut Local,
    ) -> Outcome {
        if self.neutralized[tid.0] {
            // The signal handler long-jumped us back to the phase start
            // *before* this access could touch freed memory.
            self.neutralized[tid.0] = false;
            self.in_read_phase[tid.0] = true;
            self.reservations[tid.0].clear();
            return Outcome::Rollback;
        }
        heap.read_next(tid, src, dst);
        Outcome::Ok
    }

    fn read_key(
        &mut self,
        heap: &mut SimHeap,
        tid: ThreadId,
        src: &Local,
        scratch: VarId,
    ) -> Result<i64, Outcome> {
        if self.neutralized[tid.0] {
            self.neutralized[tid.0] = false;
            self.in_read_phase[tid.0] = true;
            self.reservations[tid.0].clear();
            return Err(Outcome::Rollback);
        }
        Ok(heap.read_key(tid, src, scratch))
    }

    fn pre_write(&mut self, _heap: &mut SimHeap, tid: ThreadId, protects: &[&Local]) -> Outcome {
        if self.neutralized[tid.0] {
            self.neutralized[tid.0] = false;
            self.reservations[tid.0].clear();
            return Outcome::Rollback;
        }
        self.reservations[tid.0] = protects
            .iter()
            .filter_map(|l| l.word.map(|w| w.addr))
            .collect();
        self.in_read_phase[tid.0] = false;
        Outcome::Ok
    }

    fn retire(&mut self, heap: &mut SimHeap, tid: ThreadId, node: NodeId) {
        heap.retire(node)
            .expect("plain implementation retires correctly");
        self.retired.push(node);
        if self.retired.len() >= self.threshold {
            self.neutralize_and_reclaim(heap, tid);
        }
    }

    fn on_retry(&mut self, _heap: &mut SimHeap, tid: ThreadId) {
        // Re-entering the traversal = a fresh read-only phase: drop the
        // write-phase reservations and become neutralizable again. Any
        // neutralization that happened while we were in the write phase
        // is moot — the retry drops every pointer anyway.
        self.in_read_phase[tid.0] = true;
        self.neutralized[tid.0] = false;
        self.reservations[tid.0].clear();
    }

    fn uses_rollbacks(&self) -> bool {
        true
    }
}

/// Constructs every simulated scheme, for experiment sweeps.
pub fn all_schemes(threads: usize) -> Vec<Box<dyn SimScheme>> {
    vec![
        Box::new(SimEbr::new(threads)),
        Box::new(SimHp::new(threads, 3)),
        Box::new(SimHe::new(threads, 3)),
        Box::new(SimIbr::new(threads)),
        Box::new(SimVbr::new()),
        Box::new(SimNbr::new(threads, 1)),
        Box::new(SimLeak),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use era_core::integration::check_easy_integration;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    fn alloc_shared(heap: &mut SimHeap, key: i64) -> (Local, NodeId) {
        let mut l = heap.new_local();
        let n = heap.alloc(T0, key, &mut l);
        heap.share(&l);
        (l, n)
    }

    #[test]
    fn static_interfaces_match_paper_classification() {
        let easy = ["EBR", "HP", "HE", "IBR", "Leak"];
        for scheme in all_schemes(2) {
            let verdict = check_easy_integration(&scheme.interface());
            if easy.contains(&scheme.name()) {
                assert!(verdict.is_easy(), "{} should be easy", scheme.name());
                assert!(!scheme.uses_rollbacks());
            } else {
                assert!(!verdict.is_easy(), "{} should not be easy", scheme.name());
                assert!(scheme.uses_rollbacks());
            }
        }
    }

    #[test]
    fn ebr_reclaims_only_after_two_epochs_and_stalls_block() {
        let mut heap = SimHeap::new();
        let mut ebr = SimEbr::new(2);
        let (_l, n) = alloc_shared(&mut heap, 1);
        // A stalled thread pins the epoch.
        ebr.begin_op(&mut heap, T1);
        ebr.begin_op(&mut heap, T0);
        ebr.retire(&mut heap, T0, n);
        ebr.end_op(&mut heap, T0);
        for _ in 0..10 {
            ebr.begin_op(&mut heap, T0);
            ebr.end_op(&mut heap, T0);
        }
        assert_eq!(heap.sample().retired, 1, "stalled T1 blocks reclamation");
        // Unstall: reclamation proceeds.
        ebr.end_op(&mut heap, T1);
        let (_l2, n2) = alloc_shared(&mut heap, 2);
        ebr.begin_op(&mut heap, T0);
        ebr.retire(&mut heap, T0, n2);
        ebr.end_op(&mut heap, T0);
        for _ in 0..10 {
            ebr.begin_op(&mut heap, T0);
            ebr.end_op(&mut heap, T0);
        }
        ebr.begin_op(&mut heap, T0);
        let (_l3, n3) = alloc_shared(&mut heap, 3);
        ebr.retire(&mut heap, T0, n3);
        assert!(
            heap.sample().retired < 3,
            "epoch advanced, old garbage freed"
        );
    }

    #[test]
    fn hp_protected_node_survives() {
        let mut heap = SimHeap::new();
        let mut hp = SimHp::new(2, 3);
        let (holder, _hn) = alloc_shared(&mut heap, 0);
        let (next_l, next_n) = alloc_shared(&mut heap, 1);
        heap.write_next(T0, &holder, &next_l, false);
        // T1 protects `next` by reading holder.next.
        hp.begin_op(&mut heap, T1);
        let mut dst = heap.new_local();
        assert_eq!(hp.read_next(&mut heap, T1, &holder, &mut dst), Outcome::Ok);
        // T0 unlinks and retires it: protected, must survive the scan.
        let null = heap.new_local();
        heap.write_next(T0, &holder, &null, false);
        hp.begin_op(&mut heap, T0);
        hp.retire(&mut heap, T0, next_n);
        assert_eq!(heap.sample().retired, 1);
        // T1 releases: next retire triggers a scan that frees it.
        hp.end_op(&mut heap, T1);
        let (_l, extra) = alloc_shared(&mut heap, 2);
        hp.retire(&mut heap, T0, extra);
        assert_eq!(heap.sample().retired, 0);
    }

    #[test]
    fn hp_rotation_drops_old_protections() {
        let mut heap = SimHeap::new();
        let mut hp = SimHp::new(1, 2); // only 2 slots
        let (a, _na) = alloc_shared(&mut heap, 0);
        let (b, _nb) = alloc_shared(&mut heap, 1);
        let (c, _nc) = alloc_shared(&mut heap, 2);
        // a → b → c → a, so each read protects a real target.
        heap.write_next(T0, &a, &b, false);
        heap.write_next(T0, &b, &c, false);
        heap.write_next(T0, &c, &a, false);
        hp.begin_op(&mut heap, T0);
        let mut d = heap.new_local();
        let _ = hp.read_next(&mut heap, T0, &a, &mut d);
        let _ = hp.read_next(&mut heap, T0, &b, &mut d);
        let _ = hp.read_next(&mut heap, T0, &c, &mut d);
        assert_eq!(hp.hazards[0].len(), 2, "oldest protection evicted");
        assert_eq!(
            hp.hazards[0].iter().copied().collect::<Vec<_>>(),
            vec![c.word().addr, a.word().addr]
        );
    }

    #[test]
    fn vbr_rolls_back_on_stale_read_and_reclaims_immediately() {
        let mut heap = SimHeap::new();
        let mut vbr = SimVbr::new();
        let (l, n) = alloc_shared(&mut heap, 1);
        vbr.begin_op(&mut heap, T0);
        vbr.retire(&mut heap, T0, n);
        assert_eq!(heap.sample().retired, 0, "retire is reclaim");
        let mut dst = heap.new_local();
        assert_eq!(
            vbr.read_next(&mut heap, T0, &l, &mut dst),
            Outcome::Rollback
        );
        assert!(heap.verdict().is_smr(), "the rollback prevented the access");
    }

    #[test]
    fn nbr_neutralizes_readers_and_respects_reservations() {
        let mut heap = SimHeap::new();
        let mut nbr = SimNbr::new(2, 1);
        let (reader_held, n) = alloc_shared(&mut heap, 1);
        let (other, n2) = alloc_shared(&mut heap, 2);

        // T1 is mid-read-phase; T0 reserves `other` in its write phase.
        nbr.begin_op(&mut heap, T1);
        nbr.begin_op(&mut heap, T0);
        assert_eq!(nbr.pre_write(&mut heap, T0, &[&other]), Outcome::Ok);

        // T0 retires both nodes: threshold 1 ⇒ neutralize + reclaim.
        nbr.retire(&mut heap, T0, n);
        assert_eq!(
            heap.sample().retired,
            0,
            "unreserved node reclaimed at once"
        );
        nbr.retire(&mut heap, T0, n2);
        assert_eq!(heap.sample().retired, 1, "reserved node survives");

        // T1 is neutralized: its next read rolls back instead of
        // touching the freed node.
        let mut dst = heap.new_local();
        assert_eq!(
            nbr.read_next(&mut heap, T1, &reader_held, &mut dst),
            Outcome::Rollback
        );
        assert!(heap.verdict().is_smr());
    }

    #[test]
    fn he_and_ibr_protect_overlapping_lifetimes_only() {
        {
            let protected_expected = true;
            let mut heap = SimHeap::new();
            let mut he = SimHe::new(2, 3);
            let mut holder = heap.new_local();
            let hn = heap.alloc(T0, 0, &mut holder);
            he.on_alloc(&mut heap, hn);
            heap.share(&holder);
            let mut tgt = heap.new_local();
            let tn = heap.alloc(T0, 1, &mut tgt);
            he.on_alloc(&mut heap, tn);
            heap.share(&tgt);
            heap.write_next(T0, &holder, &tgt, false);
            // T1 reserves the current era by reading.
            he.begin_op(&mut heap, T1);
            let mut dst = heap.new_local();
            let _ = he.read_next(&mut heap, T1, &holder, &mut dst);
            // T0 retires the target: lifetime overlaps T1's reservation.
            he.retire(&mut heap, T0, tn);
            assert_eq!(heap.sample().retired == 1, protected_expected);
            // Nodes born after the reservation are reclaimable though.
            let mut l3 = heap.new_local();
            let n3 = heap.alloc(T0, 3, &mut l3);
            he.on_alloc(&mut heap, n3);
            heap.share(&l3);
            he.retire(&mut heap, T0, n3);
            assert_eq!(heap.sample().retired, 1, "young node freed, old pinned");
        }
        // IBR interval variant.
        let mut heap = SimHeap::new();
        let mut ibr = SimIbr::new(2);
        let mut holder = heap.new_local();
        let hn = heap.alloc(T0, 0, &mut holder);
        ibr.on_alloc(&mut heap, hn);
        heap.share(&holder);
        ibr.begin_op(&mut heap, T1);
        let mut dst = heap.new_local();
        let _ = ibr.read_next(&mut heap, T1, &holder, &mut dst);
        // Advance the era past T1's frozen interval with a dummy alloc…
        let mut dummy = heap.new_local();
        let nd = heap.alloc(T0, 9, &mut dummy);
        ibr.on_alloc(&mut heap, nd);
        heap.share(&dummy);
        // …then a node born strictly later is not pinned by T1.
        let mut l2 = heap.new_local();
        let n2 = heap.alloc(T0, 2, &mut l2);
        ibr.on_alloc(&mut heap, n2);
        heap.share(&l2);
        ibr.retire(&mut heap, T0, n2);
        assert_eq!(heap.sample().retired, 0, "young cohort reclaimed under IBR");
    }

    #[test]
    fn all_schemes_constructor_covers_the_matrix() {
        let names: Vec<&str> = all_schemes(2).iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["EBR", "HP", "HE", "IBR", "VBR", "NBR", "Leak"]);
    }
}
