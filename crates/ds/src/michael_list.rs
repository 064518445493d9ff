//! Michael's lock-free linked list \[30\] — the HP-compatible set.
//!
//! The set is [`MichaelMap`] without a value: one node layout, one
//! `find`, one read-only fast path, all in [`crate::michael_map`]
//! (where the traversal discipline is argued). Every method here is a
//! one-line delegation, so whatever exercises this set — the E4/E5/E6
//! rows, the scheme stress tests — exercises the list era-kv serves
//! from.

use std::fmt;

use era_smr::common::Smr;

use crate::concurrent_set::impl_concurrent_set;
use crate::michael_map::MichaelMap;

/// Michael's lock-free sorted set.
///
/// # Example
///
/// ```
/// use era_ds::MichaelList;
/// use era_smr::{hp::Hp, Smr};
///
/// let smr = Hp::new(4, 3); // Michael's list needs 3 hazard slots
/// let list = MichaelList::new(&smr);
/// let mut ctx = smr.register().unwrap();
/// assert!(list.insert(&mut ctx, 5));
/// assert!(!list.insert(&mut ctx, 5));
/// assert!(list.contains(&mut ctx, 5));
/// assert!(list.delete(&mut ctx, 5));
/// assert!(!list.contains(&mut ctx, 5));
/// ```
pub struct MichaelList<'s, S: Smr> {
    smr: &'s S,
    map: MichaelMap<'s, S>,
}

impl<S: Smr> fmt::Debug for MichaelList<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MichaelList")
            .field("smr", &self.smr.kind().name())
            .finish_non_exhaustive()
    }
}

impl<'s, S: Smr> MichaelList<'s, S> {
    /// Creates an empty set using `smr` for reclamation.
    ///
    /// Protect-based schemes must provide at least 3 slots per thread.
    pub fn new(smr: &'s S) -> Self {
        MichaelList {
            smr,
            map: MichaelMap::new(smr),
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

    /// Whether `key` is in the set. Searches under op-scoped schemes
    /// (EBR/QSBR/NBR/leak) are read-only — no slot writes, no helping
    /// CASes; see [`MichaelMap::get`].
    pub fn contains(&self, ctx: &mut S::ThreadCtx, key: i64) -> bool {
        self.map.get(ctx, key).is_some()
    }

    /// Snapshot of the keys (quiescent use only: tests/debugging).
    pub fn collect_keys(&self) -> Vec<i64> {
        let entries = self.map.collect_entries();
        entries.into_iter().map(|(key, _)| key).collect()
    }

    /// Number of unmarked nodes (quiescent use only).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set is empty (quiescent use only).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl_concurrent_set!(MichaelList: Smr);

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    use era_smr::ebr::Ebr;
    use era_smr::he::He;
    use era_smr::hp::Hp;
    use era_smr::ibr::Ibr;
    use era_smr::leak::Leak;

    fn exercise_sequential<S: Smr>(smr: &S) {
        let list = MichaelList::new(smr);
        let mut ctx = smr.register().unwrap();
        assert!(list.is_empty());
        assert!(list.insert(&mut ctx, 3));
        assert!(list.insert(&mut ctx, 1));
        assert!(list.insert(&mut ctx, 2));
        assert!(!list.insert(&mut ctx, 2));
        assert_eq!(list.collect_keys(), vec![1, 2, 3]);
        assert!(list.contains(&mut ctx, 1));
        assert!(!list.contains(&mut ctx, 9));
        assert!(list.delete(&mut ctx, 2));
        assert!(!list.delete(&mut ctx, 2));
        assert_eq!(list.collect_keys(), vec![1, 3]);
        assert!(list.insert(&mut ctx, 2));
        assert_eq!(list.len(), 3);
        for k in [1, 2, 3] {
            assert!(list.delete(&mut ctx, k));
        }
        assert!(list.is_empty());
    }

    #[test]
    fn sequential_semantics_all_schemes() {
        exercise_sequential(&Ebr::new(2));
        exercise_sequential(&Hp::new(2, 3));
        exercise_sequential(&He::new(2, 3));
        exercise_sequential(&Ibr::new(2));
        exercise_sequential(&Leak::new(2));
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn negative_and_extreme_keys() {
        let smr = Hp::new(1, 3);
        let list = MichaelList::new(&smr);
        let mut ctx = smr.register().unwrap();
        for k in [i64::MIN, -5, 0, 5, i64::MAX] {
            assert!(list.insert(&mut ctx, k));
        }
        assert_eq!(list.collect_keys(), vec![i64::MIN, -5, 0, 5, i64::MAX]);
        for k in [i64::MIN, -5, 0, 5, i64::MAX] {
            assert!(list.contains(&mut ctx, k));
            assert!(list.delete(&mut ctx, k));
        }
    }

    fn stress<S: Smr + Sync>(smr: &S, threads: usize, per_thread: i64) {
        let list = MichaelList::new(smr);
        // Phase 1: each thread inserts a disjoint key range, then
        // verifies and deletes it. Success counts must be exact.
        std::thread::scope(|s| {
            for t in 0..threads {
                let list = &list;
                s.spawn(move || {
                    let mut ctx = smr.register().unwrap();
                    let base = t as i64 * per_thread;
                    for k in base..base + per_thread {
                        assert!(list.insert(&mut ctx, k));
                    }
                    for k in base..base + per_thread {
                        assert!(list.contains(&mut ctx, k));
                    }
                    for k in base..base + per_thread {
                        assert!(list.delete(&mut ctx, k));
                    }
                    self::flushed(smr, &mut ctx);
                });
            }
        });
        assert!(list.is_empty(), "all inserted keys deleted");
        // Phase 2: contended same-key churn — exactly one winner per round.
        let winners = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let (list, winners) = (&list, &winners);
                s.spawn(move || {
                    let mut ctx = smr.register().unwrap();
                    for _ in 0..200 {
                        if list.insert(&mut ctx, 42) {
                            assert!(list.delete(&mut ctx, 42));
                            // SAFETY(ordering): Relaxed — test tally, read after join.
                            winners.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    self::flushed(smr, &mut ctx);
                });
            }
        });
        assert!(!list.contains_quiescent(42));
    }

    fn flushed<S: Smr>(smr: &S, ctx: &mut S::ThreadCtx) {
        for _ in 0..4 {
            smr.flush(ctx);
        }
    }

    impl<S: Smr> MichaelList<'_, S> {
        fn contains_quiescent(&self, key: i64) -> bool {
            self.collect_keys().contains(&key)
        }
    }

    #[test]
    fn stress_hp() {
        stress(&Hp::new(8, 3), 4, 250);
    }

    #[test]
    fn stress_ebr() {
        stress(&Ebr::new(8), 4, 250);
    }

    #[test]
    fn stress_he() {
        stress(&He::new(8, 3), 4, 250);
    }

    #[test]
    fn stress_ibr() {
        stress(&Ibr::new(8), 4, 250);
    }

    #[test]
    fn hp_footprint_stays_bounded_during_churn() {
        let smr = Hp::with_threshold(2, 3, 16);
        let list = MichaelList::new(&smr);
        let mut ctx = smr.register().unwrap();
        for round in 0..2_000i64 {
            assert!(list.insert(&mut ctx, round % 7));
            assert!(list.delete(&mut ctx, round % 7));
            let retired = smr.stats().retired_now;
            assert!(retired <= smr.robustness_bound(), "retired={retired}");
        }
    }

    #[test]
    fn reclamation_actually_happens() {
        let smr = Ebr::with_threshold(2, 8);
        let list = MichaelList::new(&smr);
        let mut ctx = smr.register().unwrap();
        for k in 0..500 {
            assert!(list.insert(&mut ctx, k));
        }
        for k in 0..500 {
            assert!(list.delete(&mut ctx, k));
        }
        for _ in 0..6 {
            smr.flush(&mut ctx);
        }
        let st = smr.stats();
        assert_eq!(st.total_retired, 500);
        assert!(st.total_reclaimed >= 400, "{st}");
    }

    #[test]
    fn duplicate_insert_allocates_and_retires_nothing() {
        // A no-op insert must not cost a node: no retire tick towards the
        // scan threshold, and under HE no allocation advancing the era.
        let hp = Hp::new(2, 3);
        let he = He::with_params(2, 3, 64, 1);
        let (on_hp, on_he) = (MichaelList::new(&hp), MichaelList::new(&he));
        let (mut hp_ctx, mut he_ctx) = (hp.register().unwrap(), he.register().unwrap());
        assert!(on_hp.insert(&mut hp_ctx, 7));
        assert!(on_he.insert(&mut he_ctx, 7));
        let era = he.era();
        for _ in 0..1_000 {
            assert!(!on_hp.insert(&mut hp_ctx, 7));
            assert!(!on_he.insert(&mut he_ctx, 7));
        }
        assert_eq!(hp.stats().total_retired, 0);
        assert_eq!(he.stats().total_retired, 0);
        assert_eq!(he.era(), era);
    }
}
