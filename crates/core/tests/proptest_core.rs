//! Property-based tests for the formal-model crate.
//!
//! * the linearizability checker agrees with a brute-force reference on
//!   arbitrary small concurrent histories, pending ops included;
//! * histories generated by actually running a correct set are always
//!   accepted; corrupting one response makes rejection possible and
//!   never breaks the checker;
//! * the validity tracker never resurrects a pointer;
//! * the life-cycle tracker's counters are consistent under arbitrary
//!   legal operation sequences;
//! * the robustness classifier is stable under observation scaling.

use std::collections::BTreeSet;

use era_core::history::{EventKind, History, Op, Ret};
use era_core::ids::{NodeId, ObjectId, ThreadId};
use era_core::lifecycle::LifecycleTracker;
use era_core::linearizability::Checker;
use era_core::robustness::{classify, RobustnessObservation};
use era_core::spec::{SequentialSpec, SetSpec};
use era_core::validity::{Validity, ValidityTracker, VarId};
use proptest::prelude::*;

const SET: ObjectId = ObjectId(1);

/// Strategy: a small concurrent set history over 3 threads × keys {0,1},
/// with responses that are sometimes wrong and ops left pending.
fn history_strategy() -> impl Strategy<Value = History> {
    // Each step: (thread, op-weight, key, truthful)
    prop::collection::vec(
        (0..3usize, 0..3u8, 0..2i64, prop::bool::weighted(0.8)),
        0..12,
    )
    .prop_map(|steps| {
        let mut h = History::new();
        let mut pending: [Option<Op>; 3] = [None; 3];
        let mut state = BTreeSet::new();
        for (t, w, k, truthful) in steps {
            let tid = ThreadId(t);
            match pending[t] {
                None => {
                    let op = match w {
                        0 => Op::Insert(k),
                        1 => Op::Delete(k),
                        _ => Op::Contains(k),
                    };
                    h.invoke(tid, SET, op);
                    pending[t] = Some(op);
                }
                Some(op) => {
                    let honest = match op {
                        Op::Insert(k) => state.insert(k),
                        Op::Delete(k) => state.remove(&k),
                        Op::Contains(k) => state.contains(&k),
                        _ => unreachable!(),
                    };
                    h.respond(tid, SET, Ret::Bool(if truthful { honest } else { !honest }));
                    pending[t] = None;
                }
            }
        }
        h
    })
}

/// Brute force: try every real-time-respecting order of the complete
/// ops, each pending op either dropped or taking effect, with any
/// outcome, after its invocation.
fn brute_force(h: &History) -> bool {
    #[derive(Clone, Copy)]
    struct R {
        op: Op,
        /// `None` when pending.
        ret: Option<Ret>,
        inv: usize,
        /// `usize::MAX` when pending.
        res: usize,
    }
    let mut recs: Vec<R> = Vec::new();
    let mut open: std::collections::HashMap<ThreadId, usize> = Default::default();
    for (i, e) in h.events().iter().enumerate() {
        match e.kind {
            EventKind::Invoke(op) => {
                open.insert(e.thread, recs.len());
                recs.push(R {
                    op,
                    ret: None,
                    inv: i,
                    res: usize::MAX,
                });
            }
            EventKind::Response(ret) => {
                let r = &mut recs[open.remove(&e.thread).unwrap()];
                (r.ret, r.res) = (Some(ret), i);
            }
        }
    }
    fn search(recs: &[R], used: &mut Vec<usize>, state: &BTreeSet<i64>) -> bool {
        if (0..recs.len()).all(|i| used.contains(&i) || recs[i].ret.is_none()) {
            return true;
        }
        for i in 0..recs.len() {
            if used.contains(&i) {
                continue;
            }
            if recs
                .iter()
                .enumerate()
                .any(|(j, rj)| j != i && !used.contains(&j) && rj.res < recs[i].inv)
            {
                continue;
            }
            let next: Vec<BTreeSet<i64>> = match recs[i].ret {
                Some(ret) => SetSpec.step(state, &recs[i].op, &ret).into_iter().collect(),
                None => SetSpec
                    .outcomes(state, &recs[i].op)
                    .into_iter()
                    .map(|(_, s)| s)
                    .collect(),
            };
            for next in next {
                used.push(i);
                if search(recs, used, &next) {
                    return true;
                }
                used.pop();
            }
        }
        false
    }
    search(&recs, &mut Vec::new(), &BTreeSet::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn checker_agrees_with_brute_force(h in history_strategy()) {
        let fast = Checker::new(&SetSpec).is_linearizable(&h);
        let slow = brute_force(&h);
        prop_assert_eq!(fast, slow, "history:\n{}", h);
    }

    #[test]
    fn honestly_generated_histories_are_always_linearizable(
        steps in prop::collection::vec((0..3u8, 0..4i64), 0..30)
    ) {
        let mut h = History::new();
        let mut state = BTreeSet::new();
        for (w, k) in steps {
            let (op, ret) = match w {
                0 => (Op::Insert(k), Ret::Bool(state.insert(k))),
                1 => (Op::Delete(k), Ret::Bool(state.remove(&k))),
                _ => (Op::Contains(k), Ret::Bool(state.contains(&k))),
            };
            h.invoke(ThreadId(0), SET, op);
            h.respond(ThreadId(0), SET, ret);
        }
        prop_assert!(Checker::new(&SetSpec).is_linearizable(&h));
    }

    #[test]
    fn validity_never_resurrects(ops in prop::collection::vec((0..4u8, 0..4usize, 0..4usize), 0..60)) {
        // Random streams of alloc/copy/unallocate/overwrite over 4 vars
        // and 4 addresses; once a var is invalid it can only become valid
        // again via a fresh update (alloc or copy-from-valid).
        let mut v = ValidityTracker::new();
        let mut incarnation = [0u64; 4];
        let mut live: [Option<NodeId>; 4] = [None; 4];
        for (w, a, b) in ops {
            let (va, _vb) = (VarId(a as u64), VarId(b as u64));
            match w {
                0 => {
                    // allocate at address b into var a
                    if live[b].is_none() {
                        incarnation[b] += 1;
                        let n = NodeId { addr: b, incarnation: incarnation[b] };
                        live[b] = Some(n);
                        v.on_alloc(va, n);
                        prop_assert_eq!(v.validity(va), Validity::Valid);
                    }
                }
                1 => {
                    // copy var b into var a: validity transfers
                    let before = v.validity(VarId(b as u64));
                    v.on_copy(va, VarId(b as u64));
                    prop_assert_eq!(v.validity(va), before);
                }
                2 => {
                    // unallocate the node at address b
                    if let Some(n) = live[b].take() {
                        v.on_unallocate(n);
                        // every var pointing at n is now invalid
                        for var in 0..4u64 {
                            if v.target(VarId(var)) == Some(n) {
                                prop_assert_eq!(v.validity(VarId(var)), Validity::Invalid);
                            }
                        }
                    }
                }
                _ => {
                    v.on_null(va);
                    prop_assert_eq!(v.validity(va), Validity::Null);
                }
            }
        }
    }

    #[test]
    fn lifecycle_counters_are_consistent(ops in prop::collection::vec((0..3u8, 0..6usize), 0..100)) {
        let mut lc = LifecycleTracker::new();
        let mut live: Vec<NodeId> = Vec::new();
        let mut retired: Vec<NodeId> = Vec::new();
        for (w, i) in ops {
            match w {
                0 => {
                    // alloc at a fresh-ish address
                    if let Ok(n) = lc.alloc(i, ThreadId(0)) {
                        lc.share(n).unwrap();
                        live.push(n);
                    }
                }
                1 => {
                    if !live.is_empty() {
                        let n = live.swap_remove(i % live.len());
                        lc.retire(n).unwrap();
                        retired.push(n);
                    }
                }
                _ => {
                    if !retired.is_empty() {
                        let n = retired.swap_remove(i % retired.len());
                        lc.reclaim(n).unwrap();
                    }
                }
            }
            prop_assert_eq!(lc.active(), live.len());
            prop_assert_eq!(lc.retired(), retired.len());
            prop_assert!(lc.max_active() >= lc.active());
            prop_assert_eq!(
                lc.total_allocs(),
                lc.total_retires() + lc.active() as u64
            );
            prop_assert_eq!(
                lc.total_retires(),
                lc.total_reclaims() + lc.retired() as u64
            );
        }
    }

    #[test]
    fn robustness_classifier_invariant_under_scale_units(
        base in 1u64..1_000, threads in 1usize..16
    ) {
        // Multiplying every scale by a constant must not change the
        // verdict (the classifier works on log–log slopes).
        let mk = |unit: u64| -> Vec<RobustnessObservation> {
            [1u64, 4, 16, 64]
                .iter()
                .map(|&s| RobustnessObservation {
                    scale: s * unit,
                    threads,
                    peak_retired: (s * base) as usize, // linear growth
                    peak_max_active: 4,
                })
                .collect()
        };
        let v1 = classify(&mk(1_000)).verdict;
        let v2 = classify(&mk(10_000)).verdict;
        prop_assert_eq!(v1, v2);
    }
}
