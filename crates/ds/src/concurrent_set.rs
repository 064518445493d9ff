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
