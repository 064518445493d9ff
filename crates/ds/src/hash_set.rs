//! Michael's lock-free hash set \[30\]: [`HashMap`] without a value.
//!
//! Bucketing (Fibonacci hashing over independent sorted Michael lists)
//! lives in [`crate::hash_map`]; the set inherits lock-freedom and
//! scheme-compatibility (every pointer-based scheme, HP included) from
//! it.

use std::fmt;

use era_smr::common::Smr;

use crate::concurrent_set::impl_concurrent_set;
use crate::hash_map::HashMap;

/// A lock-free hash set of `i64` keys.
///
/// # Example
///
/// ```
/// use era_ds::HashSet;
/// use era_smr::{hp::Hp, Smr};
///
/// let smr = Hp::new(2, 3);
/// let set = HashSet::new(&smr, 64);
/// let mut ctx = smr.register().unwrap();
/// assert!(set.insert(&mut ctx, 10));
/// assert!(set.contains(&mut ctx, 10));
/// assert!(set.delete(&mut ctx, 10));
/// assert!(!set.contains(&mut ctx, 10));
/// ```
pub struct HashSet<'s, S: Smr> {
    smr: &'s S,
    map: HashMap<'s, S>,
}

impl<S: Smr> fmt::Debug for HashSet<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HashSet")
            .field("buckets", &self.map.bucket_count())
            .finish()
    }
}

impl<'s, S: Smr> HashSet<'s, S> {
    /// Creates a hash set with `buckets` buckets, rounded up to a
    /// power of two (0 gives 1).
    pub fn new(smr: &'s S, buckets: usize) -> Self {
        HashSet {
            smr,
            map: HashMap::new(smr, buckets),
        }
    }

    /// Inserts `key`; returns `true` iff it was absent.
    pub fn insert(&self, ctx: &mut S::ThreadCtx, key: i64) -> bool {
        self.map.insert_if_absent(ctx, key, 0).is_none()
    }

    /// Deletes `key`; returns `true` iff it was present.
    pub fn delete(&self, ctx: &mut S::ThreadCtx, key: i64) -> bool {
        self.map.remove(ctx, key).is_some()
    }

    /// Whether `key` is in the set.
    pub fn contains(&self, ctx: &mut S::ThreadCtx, key: i64) -> bool {
        self.map.get(ctx, key).is_some()
    }

    /// Number of buckets (the count asked for, rounded up to a power
    /// of two).
    pub fn bucket_count(&self) -> usize {
        self.map.bucket_count()
    }

    /// Snapshot of all keys, sorted (quiescent use only).
    pub fn collect_keys(&self) -> Vec<i64> {
        let entries = self.map.collect_entries();
        entries.into_iter().map(|(key, _)| key).collect()
    }

    /// Number of keys (quiescent use only).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set is empty (quiescent use only).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl_concurrent_set!(HashSet: Smr);

#[cfg(test)]
mod tests {
    use super::*;
    use era_smr::ebr::Ebr;
    use era_smr::hp::Hp;

    #[test]
    fn basic_semantics() {
        let smr = Hp::new(2, 3);
        let set = HashSet::new(&smr, 16);
        let mut ctx = smr.register().unwrap();
        for k in 0..100 {
            assert!(set.insert(&mut ctx, k));
        }
        for k in 0..100 {
            assert!(!set.insert(&mut ctx, k));
            assert!(set.contains(&mut ctx, k));
        }
        assert_eq!(set.len(), 100);
        assert_eq!(set.collect_keys(), (0..100).collect::<Vec<_>>());
        for k in (0..100).step_by(2) {
            assert!(set.delete(&mut ctx, k));
        }
        assert_eq!(set.len(), 50);
        assert!(!set.contains(&mut ctx, 0));
        assert!(set.contains(&mut ctx, 1));
    }

    #[test]
    fn single_bucket_degenerates_to_list() {
        let smr = Ebr::new(2);
        let set = HashSet::new(&smr, 0); // rounded up to 1
        assert_eq!(set.bucket_count(), 1);
        let mut ctx = smr.register().unwrap();
        assert!(set.insert(&mut ctx, -5));
        assert!(set.insert(&mut ctx, 5));
        assert_eq!(set.collect_keys(), vec![-5, 5]);
    }

    #[test]
    fn negative_keys_hash_fine() {
        let smr = Ebr::new(2);
        let set = HashSet::new(&smr, 8);
        let mut ctx = smr.register().unwrap();
        for k in [-1000, -1, 0, 1, 1000, i64::MIN + 1, i64::MAX - 1] {
            assert!(set.insert(&mut ctx, k), "{k}");
            assert!(set.contains(&mut ctx, k), "{k}");
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn concurrent_disjoint_and_contended() {
        let smr = Hp::new(8, 3);
        let set = HashSet::new(&smr, 32);
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let (set, smr) = (&set, &smr);
                s.spawn(move || {
                    let mut ctx = smr.register().unwrap();
                    let base = t * 500;
                    for k in base..base + 500 {
                        assert!(set.insert(&mut ctx, k));
                    }
                    for k in base..base + 500 {
                        assert!(set.delete(&mut ctx, k));
                    }
                    for _ in 0..4 {
                        smr.flush(&mut ctx);
                    }
                });
            }
        });
        assert!(set.is_empty());
    }
}
