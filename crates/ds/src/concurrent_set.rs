//! [`ConcurrentSet`] — the one interface every integer-key set in this
//! crate answers to, so a harness (the `era-bench` driver, the model
//! tests) is written once and takes the structure as an input.

/// A concurrent set of `i64` keys whose operations run against
/// per-thread state obtained from the set itself.
///
/// # Example
///
/// ```
/// use era_ds::{ConcurrentSet, HarrisList, VbrList};
/// use era_smr::ebr::Ebr;
///
/// fn roundtrip<L: ConcurrentSet>(set: &L) {
///     let mut ctx = set.ctx();
///     assert!(set.insert(&mut ctx, 7));
///     assert!(set.contains(&mut ctx, 7));
///     assert!(set.delete(&mut ctx, 7));
/// }
/// roundtrip(&HarrisList::new(&Ebr::new(2)));
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

/// Implements [`ConcurrentSet`] for an `Smr`-backed structure
/// `$ty<'_, S>` with a `smr: &S` field and inherent
/// `insert`/`delete`/`contains(&self, &mut S::ThreadCtx, i64) -> bool`;
/// invoked in the structure's own module, where the field is visible.
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
}
pub(crate) use impl_concurrent_set;
