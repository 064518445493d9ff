//! Property-based integration tests: every structure against the
//! `BTreeSet`/`BTreeMap` reference model under random sequential
//! op sequences, plus invariants of the VBR arena and the
//! linearizability checker.

use std::collections::BTreeSet;

use era::ds::{ConcurrentSet, HarrisList, HashMap, MichaelMap, SkipList, VbrList};
use era::smr::common::Smr;
use era::smr::{ebr::Ebr, hp::Hp, leak::Leak, nbr::Nbr};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum SetOp {
    Insert(i64),
    Delete(i64),
    Contains(i64),
}

fn set_ops(max_key: i64) -> impl Strategy<Value = Vec<SetOp>> {
    prop::collection::vec(
        (0..3u8, 0..max_key).prop_map(|(w, k)| match w {
            0 => SetOp::Insert(k),
            1 => SetOp::Delete(k),
            _ => SetOp::Contains(k),
        }),
        0..120,
    )
}

/// Runs `ops` against `set` and a `BTreeSet`; every answer must agree.
fn check<L: ConcurrentSet>(set: &L, ops: &[SetOp]) {
    let mut ctx = set.ctx();
    let mut model = BTreeSet::new();
    for &op in ops {
        let (got, expected) = match op {
            SetOp::Insert(k) => (set.insert(&mut ctx, k), model.insert(k)),
            SetOp::Delete(k) => (set.delete(&mut ctx, k), model.remove(&k)),
            SetOp::Contains(k) => (set.contains(&mut ctx, k), model.contains(&k)),
        };
        assert_eq!(got, expected, "{op:?} diverged from the model");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn michael_list_matches_model(ops in set_ops(16)) {
        check(&MichaelMap::new(&Hp::new(2, 3)), &ops);
    }

    #[test]
    fn harris_list_matches_model(ops in set_ops(16)) {
        check(&HarrisList::new(&Ebr::with_threshold(2, 4)), &ops);
    }

    #[test]
    fn harris_list_with_nbr_matches_model(ops in set_ops(16)) {
        check(&HarrisList::new(&Nbr::with_threshold(2, 2, 8)), &ops);
    }

    #[test]
    fn hash_set_matches_model(ops in set_ops(64)) {
        check(&HashMap::new(&Leak::new(2), 8), &ops);
    }

    #[test]
    fn vbr_list_matches_model(ops in set_ops(16)) {
        let list = VbrList::new(64);
        check(&list, &ops);
        // VBR invariant: nothing is ever in the retired state.
        prop_assert_eq!(list.arena().stats().retired_now, 0);
    }

    #[test]
    fn skip_list_matches_model(ops in set_ops(16)) {
        let smr = Ebr::with_threshold(2, 8);
        let list = SkipList::new(&smr);
        check(&list, &ops);
        list.check_invariants().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn michael_map_matches_model(
        ops in prop::collection::vec((0..5u8, 0..12i64, 0..100i64), 0..120)
    ) {
        let smr = Hp::new(2, 3);
        let map = MichaelMap::new(&smr);
        let mut ctx = smr.register().unwrap();
        let mut model: std::collections::BTreeMap<i64, i64> = Default::default();
        for (w, k, v) in ops {
            match w {
                0 => prop_assert_eq!(map.insert(&mut ctx, k, v), model.insert(k, v)),
                1 => prop_assert_eq!(map.remove(&mut ctx, k), model.remove(&k)),
                2 => prop_assert_eq!(map.get(&mut ctx, k), model.get(&k).copied()),
                3 => {
                    let expected = model.get(&k).copied();
                    model.entry(k).or_insert(v);
                    prop_assert_eq!(map.insert_if_absent(&mut ctx, k, v), expected);
                }
                _ => {
                    let expected = model.get_mut(&k).map(|x| {
                        *x += v;
                        *x
                    });
                    prop_assert_eq!(map.fetch_add(&mut ctx, k, v), expected);
                }
            }
        }
        let entries: Vec<(i64, i64)> = model.into_iter().collect();
        prop_assert_eq!(map.collect_entries(), entries);
    }

    #[test]
    fn vbr_arena_handles_never_resurrect(rounds in 1usize..200) {
        use era::smr::vbr::Arena;
        let arena: Arena<1> = Arena::new(4);
        let mut dead = Vec::new();
        for i in 0..rounds {
            let h = arena.alloc().unwrap();
            arena.write(h, 0, i as u64).unwrap();
            // All previously retired handles stay dead forever.
            for &d in &dead {
                prop_assert_eq!(arena.read(d, 0), Err(era::smr::vbr::Stale));
            }
            arena.retire(h).unwrap();
            dead.push(h);
            if dead.len() > 8 {
                dead.drain(..4);
            }
        }
    }

    #[test]
    fn sequential_histories_always_linearizable(ops in set_ops(8)) {
        // A history generated by *actually running* a correct set
        // sequentially must always pass the checker (checker soundness
        // on the positive side).
        use era::core::history::{History, Op, Ret};
        use era::core::ids::{ObjectId, ThreadId};
        use era::core::linearizability::Checker;
        use era::core::spec::SetSpec;
        let mut h = History::new();
        let mut model = BTreeSet::new();
        for op in ops.iter().take(40) {
            let (o, r) = match *op {
                SetOp::Insert(k) => (Op::Insert(k), Ret::Bool(model.insert(k))),
                SetOp::Delete(k) => (Op::Delete(k), Ret::Bool(model.remove(&k))),
                SetOp::Contains(k) => (Op::Contains(k), Ret::Bool(model.contains(&k))),
            };
            h.invoke(ThreadId(0), ObjectId(1), o);
            h.respond(ThreadId(0), ObjectId(1), r);
        }
        prop_assert!(Checker::new(&SetSpec).is_linearizable(&h));
    }

    #[test]
    fn robustness_classifier_is_monotone_in_growth(base in 1usize..50, threads in 1usize..8) {
        use era::core::robustness::{classify, RobustnessObservation};
        // Constant-footprint observations must classify Robust whatever
        // the constants are.
        let obs: Vec<_> = [1_000u64, 4_000, 16_000, 64_000]
            .iter()
            .map(|&s| RobustnessObservation {
                scale: s,
                threads,
                peak_retired: base * threads,
                peak_max_active: 4,
            })
            .collect();
        prop_assert!(classify(&obs).verdict.is_robust());
    }
}
