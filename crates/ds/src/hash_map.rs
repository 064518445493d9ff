//! A lock-free hash map: a fixed array of [`MichaelMap`] buckets.
//!
//! The shard-friendly building block of the era-kv serving layer
//! (and, through [`crate::ConcurrentSet`], Michael's hash set): a shard
//! is one `HashMap` owning nothing but borrowed scheme state, so a
//! service can stand up N shards over N *independent* reclaimer
//! domains (`HashMap::new(&schemes[i], buckets)`) and a stalled reader
//! in one domain cannot block reclamation in the others.
//!
//! Keys hash with Fibonacci multiplicative hashing to a bucket — the
//! bucket count is a power of two, so the index is a mask of the hash's
//! low bits, never a division; each
//! bucket is an independent sorted [`MichaelMap`] list, so the map
//! inherits lock-freedom and scheme-compatibility (every pointer-based
//! scheme, HP included — three protection slots) from the list.

use std::fmt;

use era_smr::common::Smr;

use crate::michael_map::MichaelMap;

/// Bucket of `key` among `len` buckets; `len` must be a power of two.
///
/// Fibonacci hashing on the two's-complement bits, keeping the *low*
/// bits: `h & (len - 1)` is `h % len` without the `div`. High-bit
/// placement costs `kv-churn-hp` 20 % (EXPERIMENTS E18: its
/// parity-disjoint threads start sharing chains) — a `perf/` decision,
/// not a hash fix.
fn bucket_index(key: i64, len: usize) -> usize {
    debug_assert!(len.is_power_of_two());
    let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h & (len as u64 - 1)) as usize
}

/// A lock-free hash map from `i64` keys to `i64` values.
///
/// # Example
///
/// ```
/// use era_ds::HashMap;
/// use era_smr::{hp::Hp, Smr};
///
/// let smr = Hp::new(2, 3); // protect-based schemes need 3 slots
/// let map = HashMap::new(&smr, 64);
/// let mut ctx = smr.register().unwrap();
/// assert_eq!(map.insert(&mut ctx, 10, 1), None);
/// assert_eq!(map.insert(&mut ctx, 10, 2), Some(1)); // upsert
/// assert_eq!(map.get(&mut ctx, 10), Some(2));
/// assert_eq!(map.remove(&mut ctx, 10), Some(2));
/// ```
pub struct HashMap<'s, S: Smr> {
    smr: &'s S,
    buckets: Vec<MichaelMap<'s, S>>,
}

impl<S: Smr> fmt::Debug for HashMap<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HashMap")
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

impl<'s, S: Smr> HashMap<'s, S> {
    /// Creates a hash map with `buckets` buckets, rounded up to a
    /// power of two (0 gives 1), all sharing the reclaimer domain `smr`.
    pub fn new(smr: &'s S, buckets: usize) -> Self {
        let buckets = buckets.next_power_of_two();
        HashMap {
            smr,
            buckets: (0..buckets).map(|_| MichaelMap::new(smr)).collect(),
        }
    }

    fn bucket(&self, key: i64) -> &MichaelMap<'s, S> {
        &self.buckets[bucket_index(key, self.buckets.len())]
    }

    /// Inserts or updates `key`; returns the previous value if any.
    pub fn insert(&self, ctx: &mut S::ThreadCtx, key: i64, value: i64) -> Option<i64> {
        self.bucket(key).insert(ctx, key, value)
    }

    /// Inserts `key` only if absent; returns the current value, left
    /// untouched, if it was present.
    pub fn insert_if_absent(&self, ctx: &mut S::ThreadCtx, key: i64, value: i64) -> Option<i64> {
        self.bucket(key).insert_if_absent(ctx, key, value)
    }

    /// Current value of `key`.
    pub fn get(&self, ctx: &mut S::ThreadCtx, key: i64) -> Option<i64> {
        self.bucket(key).get(ctx, key)
    }

    /// Removes `key`; returns the removed value if it was present.
    pub fn remove(&self, ctx: &mut S::ThreadCtx, key: i64) -> Option<i64> {
        self.bucket(key).remove(ctx, key)
    }

    /// Atomically adds `delta` to the value of `key`; returns the new
    /// value, or `None` if the key is absent.
    pub fn fetch_add(&self, ctx: &mut S::ThreadCtx, key: i64, delta: i64) -> Option<i64> {
        self.bucket(key).fetch_add(ctx, key, delta)
    }

    /// Number of buckets: the count asked of [`HashMap::new`], rounded
    /// up to a power of two.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Snapshot of all entries, sorted by key (quiescent use only).
    pub fn collect_entries(&self) -> Vec<(i64, i64)> {
        let mut out: Vec<(i64, i64)> = self
            .buckets
            .iter()
            .flat_map(|b| b.collect_entries())
            .collect();
        out.sort_unstable();
        out
    }

    /// Number of entries (quiescent use only).
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).sum()
    }

    /// Whether the map is empty (quiescent use only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

crate::concurrent_set::impl_concurrent_set!(map HashMap: Smr);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent_set::check_set_semantics;
    use era_smr::ebr::Ebr;
    use era_smr::hp::Hp;
    use era_smr::Smr;

    #[test]
    fn set_semantics_across_buckets() {
        let smr = Ebr::new(2);
        let map = HashMap::new(&smr, 8);
        check_set_semantics(&map, || map.collect_entries());
    }

    #[test]
    fn basic_semantics() {
        let smr = Hp::new(2, 3);
        let map = HashMap::new(&smr, 16);
        let mut ctx = smr.register().unwrap();
        for k in 0..100 {
            assert_eq!(map.insert(&mut ctx, k, k * 10), None);
        }
        for k in 0..100 {
            assert_eq!(map.get(&mut ctx, k), Some(k * 10));
            assert_eq!(map.insert(&mut ctx, k, k), Some(k * 10), "upsert");
        }
        assert_eq!(map.len(), 100);
        assert_eq!(map.collect_entries()[3], (3, 3));
        for k in (0..100).step_by(2) {
            assert_eq!(map.remove(&mut ctx, k), Some(k));
        }
        assert_eq!(map.len(), 50);
        assert_eq!(map.get(&mut ctx, 0), None);
        assert_eq!(map.fetch_add(&mut ctx, 1, 5), Some(6));
        assert_eq!(map.fetch_add(&mut ctx, 0, 5), None);
    }

    #[test]
    fn single_bucket_degenerates_to_list() {
        let smr = Ebr::new(2);
        let map = HashMap::new(&smr, 0); // rounded up to 1
        assert_eq!(map.bucket_count(), 1);
        let mut ctx = smr.register().unwrap();
        assert_eq!(map.insert(&mut ctx, -5, 1), None);
        assert_eq!(map.insert(&mut ctx, 5, 2), None);
        assert_eq!(map.collect_entries(), vec![(-5, 1), (5, 2)]);
    }

    #[test]
    fn bucket_count_rounds_up_to_a_power_of_two() {
        let smr = Ebr::new(2);
        assert_eq!(HashMap::new(&smr, 48).bucket_count(), 64);
        assert_eq!(HashMap::new(&smr, 64).bucket_count(), 64);
        assert_eq!(HashMap::new(&smr, 0).bucket_count(), 1);
    }

    #[test]
    fn masked_index_is_the_remainder() {
        // Placement pin: for every power-of-two bucket count the mask
        // picks the bucket `h % len` picked, so no chain layout (and no
        // workload's bucket parity or `retired_peak`) moved with it.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let n = if cfg!(miri) { 200 } else { 10_000 };
        let keys: Vec<i64> = (0..n)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Small and huge magnitudes, both signs.
                let k = (state >> (i % 48)) as i64;
                if i % 2 == 0 {
                    k
                } else {
                    k.wrapping_neg()
                }
            })
            .chain([0, 1, -1, i64::MIN, i64::MAX])
            .collect();
        assert!(keys.iter().any(|&k| k < 0) && keys.iter().any(|&k| k > 0));
        for shift in 0..=12 {
            let len = 1usize << shift;
            for &key in &keys {
                let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                assert_eq!(
                    bucket_index(key, len),
                    (h % len as u64) as usize,
                    "key {key}, {len} buckets"
                );
            }
        }
    }

    #[test]
    fn independent_domains_reclaim_independently() {
        // The shard property era-kv relies on: two maps over two EBR
        // instances; a stalled reader in domain A blocks A's garbage
        // only — domain B keeps reclaiming.
        let a = Ebr::with_threshold(2, 1);
        let b = Ebr::with_threshold(2, 1);
        let map_a = HashMap::new(&a, 4);
        let map_b = HashMap::new(&b, 4);

        let mut stalled = a.register().unwrap();
        a.begin_op(&mut stalled); // pins domain A, never ends

        let mut ctx_a = a.register().unwrap();
        let mut ctx_b = b.register().unwrap();
        for k in 0..100 {
            map_a.insert(&mut ctx_a, k, k);
            map_a.remove(&mut ctx_a, k);
            map_b.insert(&mut ctx_b, k, k);
            map_b.remove(&mut ctx_b, k);
        }
        for _ in 0..4 {
            a.flush(&mut ctx_a);
            b.flush(&mut ctx_b);
        }
        assert_eq!(b.stats().retired_now, 0, "B must drain: {}", b.stats());
        assert!(
            a.stats().retired_now >= 100,
            "A must be pinned: {}",
            a.stats()
        );
        a.end_op(&mut stalled);
    }
}
