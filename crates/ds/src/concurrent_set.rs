//! [`ConcurrentSet`] — the one interface every integer-key set in this
//! crate answers to, so a harness (the `era-bench` driver, the model
//! tests) is written once and takes the structure as an input.

/// A concurrent set of `i64` keys whose operations run against
/// per-thread state obtained from the set itself.
///
/// # Example
///
/// ```
/// use era_ds::{ConcurrentSet, HarrisList, HashMap, MichaelMap, VbrList};
/// use era_smr::{ebr::Ebr, hp::Hp};
///
/// fn roundtrip<L: ConcurrentSet>(set: &L) {
///     let mut ctx = set.ctx();
///     assert!(set.insert(&mut ctx, 7));
///     assert!(!set.insert(&mut ctx, 7));
///     assert!(set.contains(&mut ctx, 7));
///     assert!(set.delete(&mut ctx, 7));
///     assert!(!set.contains(&mut ctx, 7));
/// }
/// roundtrip(&HarrisList::new(&Ebr::new(2)));
/// roundtrip(&MichaelMap::new(&Hp::new(2, 3))); // a map is the set of its keys
/// roundtrip(&HashMap::new(&Hp::new(2, 3), 64));
/// roundtrip(&VbrList::new(16));
/// ```
pub trait ConcurrentSet {
    /// What a thread holds while it operates on the set: the scheme's
    /// registration for `Smr`-backed structures, nothing for VBR.
    type Ctx;

    /// Per-thread state for the calling thread.
    ///
    /// # Panics
    ///
    /// Panics when the reclamation scheme has no free thread slot.
    fn ctx(&self) -> Self::Ctx;

    /// Inserts `key`; returns `true` iff it was absent.
    fn insert(&self, ctx: &mut Self::Ctx, key: i64) -> bool;

    /// Deletes `key`; returns `true` iff it was present.
    fn delete(&self, ctx: &mut Self::Ctx, key: i64) -> bool;

    /// Whether `key` is in the set.
    fn contains(&self, ctx: &mut Self::Ctx, key: i64) -> bool;
}

/// The sequential set contract, for a structure's unit tests: every
/// answer `set` gives, and its sorted contents (`entries`, keys first)
/// after each step — negative and extreme keys included.
#[cfg(test)]
pub(crate) fn check_set_semantics<L: ConcurrentSet>(
    set: &L,
    entries: impl Fn() -> Vec<(i64, i64)>,
) {
    let keys = || entries().into_iter().map(|(k, _)| k).collect::<Vec<_>>();
    let mut ctx = set.ctx();
    assert!(keys().is_empty());
    assert!(set.insert(&mut ctx, 3));
    assert!(set.insert(&mut ctx, 1));
    assert!(set.insert(&mut ctx, 2));
    assert!(!set.insert(&mut ctx, 2));
    assert_eq!(keys(), [1, 2, 3]);
    assert!(set.contains(&mut ctx, 1));
    assert!(!set.contains(&mut ctx, 9));
    assert!(set.delete(&mut ctx, 2));
    assert!(!set.delete(&mut ctx, 2));
    assert_eq!(keys(), [1, 3]);
    assert!(set.insert(&mut ctx, 2));
    for k in [1, 2, 3] {
        assert!(set.delete(&mut ctx, k));
    }
    assert!(keys().is_empty());
    let extreme = [
        i64::MIN,
        i64::MIN + 1,
        -1000,
        -5,
        -1,
        0,
        1,
        5,
        1000,
        i64::MAX - 1,
        i64::MAX,
    ];
    for k in extreme {
        assert!(set.insert(&mut ctx, k), "{k}");
    }
    assert_eq!(keys(), extreme);
    for k in extreme {
        assert!(set.contains(&mut ctx, k), "{k}");
        assert!(set.delete(&mut ctx, k), "{k}");
    }
    assert!(keys().is_empty());
}

/// The concurrent set contract, judged: `threads` threads run a seeded
/// insert/delete/contains mix of `ops_per_thread` ops through `set`
/// over 16 keys they all share, then one context deletes every key.
/// Each op is bracketed by two tickets from one counter, which only
/// widen its real interval, so a linearizable run cannot fail. The
/// merged history, one object per key, must be linearizable under
/// `SetSpec` (linearizability is local), with every op judged.
#[cfg(test)]
pub(crate) fn check_linearizable<L: ConcurrentSet + Sync>(
    set: &L,
    threads: usize,
    ops_per_thread: usize,
) {
    use era_core::history::{Event, EventKind, History, Op, Ret};
    use era_core::ids::{ObjectId, ThreadId};
    use era_core::linearizability::Checker;
    use era_core::spec::SetSpec;
    use std::sync::atomic::{AtomicU64, Ordering};

    const KEYS: u64 = 16;
    let tickets = AtomicU64::new(0);
    let timed = |ctx: &mut L::Ctx, op: Op| {
        // SAFETY(ordering): SeqCst — the tickets order every op's
        // invocation and response in one total order.
        let inv = tickets.fetch_add(1, Ordering::SeqCst);
        let ret = match op {
            Op::Insert(k) => set.insert(ctx, k),
            Op::Delete(k) => set.delete(ctx, k),
            Op::Contains(k) => set.contains(ctx, k),
            _ => unreachable!("a set op"),
        };
        (inv, op, ret, tickets.fetch_add(1, Ordering::SeqCst))
    };
    let mut runs: Vec<Vec<_>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut ctx = set.ctx();
                    let mut seed = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1);
                    (0..ops_per_thread)
                        .map(|_| {
                            seed ^= seed << 13;
                            seed ^= seed >> 7;
                            seed ^= seed << 17;
                            let k = (seed % KEYS) as i64;
                            let ops = [Op::Insert(k), Op::Delete(k), Op::Contains(k)];
                            timed(&mut ctx, ops[(seed / KEYS % 3) as usize])
                        })
                        .collect()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let mut ctx = set.ctx();
    runs.push(
        (0..KEYS as i64)
            .map(|k| timed(&mut ctx, Op::Delete(k)))
            .collect(),
    );
    // Tickets are dense, so each one indexes exactly one event.
    let mut at = vec![None; tickets.into_inner() as usize];
    for (t, run) in runs.into_iter().enumerate() {
        for (inv, op, ret, res) in run {
            let (Op::Insert(k) | Op::Delete(k) | Op::Contains(k)) = op else {
                unreachable!("a set op")
            };
            let (thread, object) = (ThreadId(t), ObjectId(k as u64));
            let event = |kind| {
                Some(Event {
                    thread,
                    object,
                    kind,
                })
            };
            at[inv as usize] = event(EventKind::Invoke(op));
            at[res as usize] = event(EventKind::Response(Ret::Bool(ret)));
        }
    }
    let mut history = History::new();
    for e in at {
        history.push(e.expect("one event per ticket"));
    }
    let checker = Checker::new(&SetSpec);
    let judged: usize = history
        .objects()
        .into_iter()
        .map(|key| {
            assert!(
                checker.is_linearizable_object(&history, key),
                "{}: key {} is not linearizable at {threads} threads",
                std::any::type_name::<L>(),
                key.0
            );
            history.per_object(key).len() / 2
        })
        .sum();
    assert_eq!(judged, threads * ops_per_thread + KEYS as usize);
}

/// Implements [`ConcurrentSet`] for an `Smr`-backed structure
/// `$ty<'_, S>` with a `smr: &S` field; invoked in the structure's own
/// module, where the field is visible. A set (`$ty: bounds`) answers
/// through its inherent `insert`/`delete`/`contains(&self, &mut
/// S::ThreadCtx, i64) -> bool`. A map (`map $ty: bounds`) is the set
/// of its keys: `insert` is `insert_if_absent` with value 0, `delete`
/// is `remove`, and `contains` is `get`, so a lookup keeps the map's
/// read-only fast path.
macro_rules! impl_concurrent_set {
    ($ty:ident: $($bound:tt)+) => {
        impl<S: $($bound)+> $crate::ConcurrentSet for $ty<'_, S> {
            type Ctx = S::ThreadCtx;

            fn ctx(&self) -> Self::Ctx {
                self.smr.register().expect("thread capacity")
            }
            fn insert(&self, ctx: &mut Self::Ctx, key: i64) -> bool {
                $ty::insert(self, ctx, key)
            }
            fn delete(&self, ctx: &mut Self::Ctx, key: i64) -> bool {
                $ty::delete(self, ctx, key)
            }
            fn contains(&self, ctx: &mut Self::Ctx, key: i64) -> bool {
                $ty::contains(self, ctx, key)
            }
        }
    };
    (map $ty:ident: $($bound:tt)+) => {
        impl<S: $($bound)+> $crate::ConcurrentSet for $ty<'_, S> {
            type Ctx = S::ThreadCtx;

            fn ctx(&self) -> Self::Ctx {
                self.smr.register().expect("thread capacity")
            }
            fn insert(&self, ctx: &mut Self::Ctx, key: i64) -> bool {
                self.insert_if_absent(ctx, key, 0).is_none()
            }
            fn delete(&self, ctx: &mut Self::Ctx, key: i64) -> bool {
                self.remove(ctx, key).is_some()
            }
            fn contains(&self, ctx: &mut Self::Ctx, key: i64) -> bool {
                self.get(ctx, key).is_some()
            }
        }
    };
}
pub(crate) use impl_concurrent_set;

#[cfg(test)]
mod tests {
    use super::check_linearizable;
    use crate::{HarrisList, HashMap, MichaelMap, SkipList};
    use era_smr::common::{EpochProtected, SupportsUnlinkedTraversal};
    use era_smr::{ebr::Ebr, leak::Leak, nbr::Nbr, with_scheme, SchemeKind, Smr};

    /// Ops per thread: enough churn for every reclaiming scheme to free
    /// nodes, few enough for debug builds and Miri.
    const OPS: usize = if cfg!(miri) { 10 } else { 1_000 };

    /// Judges `run` at 2 and 4 threads, each over a fresh scheme from
    /// `make`, which must have freed nodes unless it is Leak.
    fn judge<S: Smr>(make: impl Fn(usize) -> S, run: impl Fn(&S, usize)) {
        for threads in [2, 4] {
            let smr = make(threads + 1);
            run(&smr, threads);
            let (kind, st) = (smr.kind(), smr.stats());
            if !cfg!(miri) && kind != SchemeKind::Leak {
                assert!(st.total_reclaimed > 0, "{}: {st}", kind.name());
            }
        }
    }

    fn harris<S: Smr + SupportsUnlinkedTraversal + Sync>(make: impl Fn(usize) -> S) {
        judge(make, |smr, threads| {
            let list = HarrisList::new(smr);
            check_linearizable(&list, threads, OPS);
            assert!(list.is_empty());
        });
    }

    fn skip<S: Smr + EpochProtected + Sync>(make: impl Fn(usize) -> S) {
        judge(make, |smr, threads| {
            let list = SkipList::new(smr);
            check_linearizable(&list, threads, OPS);
            assert!(list.is_empty());
            list.check_invariants().unwrap();
        });
    }

    /// Every (set × scheme) pair the trait bounds allow, under contention
    /// on shared keys: 17 pairs, each at 2 and 4 threads.
    #[test]
    fn every_set_under_every_scheme_is_linearizable() {
        for kind in SchemeKind::RECLAIMING.into_iter().chain([SchemeKind::Leak]) {
            with_scheme!(kind, make => {
                judge(|n| make(n, 3), |smr, threads| {
                    let map = MichaelMap::new(smr);
                    check_linearizable(&map, threads, OPS);
                    assert!(map.is_empty());
                });
                judge(|n| make(n, 3), |smr, threads| {
                    let map = HashMap::new(smr, 4);
                    check_linearizable(&map, threads, OPS);
                    assert!(map.is_empty());
                });
            });
        }
        harris(Ebr::new);
        harris(|n| Nbr::new(n, 2));
        harris(Leak::new);
        skip(Ebr::new);
        skip(Leak::new);
    }
}
