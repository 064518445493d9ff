//! Workload specifications and operation generators.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

pub use era_kv::workload::{KeyDist, KeySampler, KvMix, KvOpKind};

/// 90% reads, 5% inserts, 5% deletes — the classic read-heavy mix.
pub const READ_HEAVY: KvMix = KvMix {
    reads: 90,
    writes: 5,
    removes: 5,
};

/// 0% reads, 50% inserts, 50% deletes — maximum churn.
pub const UPDATE_HEAVY: KvMix = KvMix {
    reads: 0,
    writes: 50,
    removes: 50,
};

/// A mix as the tables and run records print it, e.g. `"90r/5i/5d"`
/// (a set's insert is the mix's put, its delete the remove).
pub fn mix_label(mix: KvMix) -> String {
    format!("{}r/{}i/{}d", mix.reads, mix.writes, mix.removes)
}

/// A complete workload description.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Operation mix: a get is `contains`, a put `insert`, a remove
    /// `delete`.
    pub mix: KvMix,
    /// Key popularity distribution (uniform or zipfian).
    pub dist: KeyDist,
    /// Keys are drawn from `0..key_range` according to `dist`.
    pub key_range: i64,
    /// Operations per thread.
    pub ops_per_thread: usize,
    /// Number of worker threads.
    pub threads: usize,
    /// Keys inserted before the measured phase (typically
    /// `key_range / 2`).
    pub prefill: usize,
    /// RNG seed (per-thread streams derive from it).
    pub seed: u64,
}

impl WorkloadSpec {
    /// A small default suitable for tests: a balanced 50/25/25 mix.
    pub fn small() -> Self {
        WorkloadSpec {
            mix: KvMix {
                reads: 50,
                writes: 25,
                removes: 25,
            },
            dist: KeyDist::Uniform,
            key_range: 256,
            ops_per_thread: 2_000,
            threads: 2,
            prefill: 128,
            seed: 0xE5A_1234,
        }
    }

    /// The per-thread operation stream.
    pub fn ops_for_thread(&self, thread: usize) -> OpStream {
        OpStream {
            rng: StdRng::seed_from_u64(self.seed ^ (thread as u64).wrapping_mul(0x9E37_79B9)),
            mix: self.mix,
            sampler: self.dist.sampler(self.key_range.max(1)),
            remaining: self.ops_per_thread,
        }
    }

    /// The prefill keys (deterministic, spread over the range).
    pub fn prefill_keys(&self) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xFEED);
        let mut keys = std::collections::BTreeSet::new();
        while keys.len() < self.prefill.min(self.key_range as usize) {
            keys.insert(rng.random_range(0..self.key_range.max(1)));
        }
        keys.into_iter().collect()
    }
}

/// Iterator of `(key, kind)` operations for one thread.
#[derive(Debug)]
pub struct OpStream {
    rng: StdRng,
    mix: KvMix,
    sampler: KeySampler,
    remaining: usize,
}

impl Iterator for OpStream {
    type Item = (i64, KvOpKind);

    fn next(&mut self) -> Option<(i64, KvOpKind)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let key = self.sampler.sample(&mut self.rng);
        Some((key, self.mix.kind(self.rng.random_range(0..100u32))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_100_and_keep_their_labels() {
        for (mix, label) in [(READ_HEAVY, "90r/5i/5d"), (UPDATE_HEAVY, "0r/50i/50d")] {
            assert_eq!(mix.reads + mix.writes + mix.removes, 100);
            assert_eq!(mix_label(mix), label);
        }
    }

    #[test]
    fn streams_are_deterministic_and_sized() {
        let spec = WorkloadSpec::small();
        let a: Vec<_> = spec.ops_for_thread(0).collect();
        let b: Vec<_> = spec.ops_for_thread(0).collect();
        let c: Vec<_> = spec.ops_for_thread(1).collect();
        assert_eq!(a.len(), spec.ops_per_thread);
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(a, c, "different threads, different streams");
    }

    /// The first ops of both `small()` streams, as the generator drew
    /// them before it shared `KvMix::kind` (key first, then the roll).
    #[test]
    fn streams_are_pinned() {
        let uniform = WorkloadSpec::small();
        let zipf = WorkloadSpec {
            dist: KeyDist::Zipfian { theta: 0.99 },
            ..uniform
        };
        let head = |spec: &WorkloadSpec| -> (Vec<i64>, String) {
            let letter = |op| match op {
                KvOpKind::Get => 'G',
                KvOpKind::Put => 'P',
                KvOpKind::Remove => 'R',
            };
            spec.ops_for_thread(0)
                .take(32)
                .map(|(k, op)| (k, letter(op)))
                .unzip()
        };
        let kinds = "GGRGPGRGGGGRGGGPRGPGRPGGGPGRRPGG";
        let keys = [
            62, 251, 19, 43, 42, 33, 13, 199, 121, 238, 142, 164, 30, 214, 234, 241, 171, 99, 154,
            122, 17, 71, 96, 95, 150, 150, 201, 116, 152, 164, 185, 228,
        ];
        assert_eq!(head(&uniform), (keys.to_vec(), kinds.to_string()));
        let keys = [
            2, 130, 6, 12, 243, 184, 9, 11, 231, 1, 27, 46, 3, 0, 183, 0, 23, 66, 11, 1, 0, 4, 80,
            72, 0, 2, 22, 47, 4, 195, 50, 124,
        ];
        assert_eq!(head(&zipf), (keys.to_vec(), kinds.to_string()));
    }

    #[test]
    fn mix_shares_are_respected_roughly() {
        let spec = WorkloadSpec {
            mix: READ_HEAVY,
            ops_per_thread: 10_000,
            ..WorkloadSpec::small()
        };
        let reads = spec
            .ops_for_thread(0)
            .filter(|&(_, op)| op == KvOpKind::Get)
            .count();
        assert!((8_500..=9_500).contains(&reads), "reads={reads}");
    }

    #[test]
    fn zipfian_streams_skew_toward_hot_keys() {
        let uniform = WorkloadSpec {
            ops_per_thread: 10_000,
            ..WorkloadSpec::small()
        };
        let zipf = WorkloadSpec {
            dist: KeyDist::Zipfian { theta: 0.99 },
            ..uniform
        };
        let hot = |spec: &WorkloadSpec| spec.ops_for_thread(0).filter(|&(k, _)| k < 8).count();
        let (u, z) = (hot(&uniform), hot(&zipf));
        assert!(
            z > u * 5,
            "zipfian must concentrate on low keys: uniform={u} zipf={z}"
        );
        let a: Vec<_> = zipf.ops_for_thread(0).collect();
        let b: Vec<_> = zipf.ops_for_thread(0).collect();
        assert_eq!(a, b, "zipfian streams stay deterministic");
    }

    #[test]
    fn prefill_is_unique_and_in_range() {
        let spec = WorkloadSpec::small();
        let keys = spec.prefill_keys();
        assert_eq!(keys.len(), spec.prefill);
        let mut dedup = keys.clone();
        dedup.dedup();
        assert_eq!(keys, dedup);
        assert!(keys.iter().all(|&k| (0..spec.key_range).contains(&k)));
    }
}
