//! YCSB-style workload vocabulary for [`KvStore`](crate::KvStore)
//! drivers: operation mixes and key popularity distributions.
//!
//! The driver itself lives in `era-scenarios` (`run_scenario`): a
//! workload is a `ScenarioSpec` phase, and these are the types its mix
//! and key window resolve to.

use rand::{RngCore, RngExt, Zipf};

/// Key popularity distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipf-distributed popularity with skew `theta` in `(0, 1)`;
    /// YCSB's default skew is 0.99. Key 0 is the hottest.
    Zipfian {
        /// Skew parameter.
        theta: f64,
    },
}

impl KeyDist {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            KeyDist::Uniform => "uniform",
            KeyDist::Zipfian { .. } => "zipfian",
        }
    }

    /// A sampler over keys `0..key_range`.
    pub fn sampler(&self, key_range: i64) -> KeySampler {
        let n = key_range.max(1) as u64;
        match *self {
            KeyDist::Uniform => KeySampler::Uniform(n),
            KeyDist::Zipfian { theta } => KeySampler::Zipf(Zipf::new(n, theta)),
        }
    }
}

/// Instantiated sampler for a [`KeyDist`] (Zipf precomputes its
/// harmonic normaliser once).
#[derive(Debug, Clone)]
pub enum KeySampler {
    /// Uniform over `0..n`.
    Uniform(u64),
    /// Zipf ranks map directly onto keys (key 0 hottest).
    Zipf(Zipf),
}

impl KeySampler {
    /// Draws one key.
    pub fn sample<R: RngCore>(&self, rng: &mut R) -> i64 {
        match self {
            KeySampler::Uniform(n) => rng.random_range(0..*n) as i64,
            KeySampler::Zipf(z) => z.sample(rng) as i64,
        }
    }
}

/// An operation mix in percent (must sum to 100). Reads are `get`,
/// writes are `put` (YCSB "update"/"insert"), removes delete the key —
/// the retire-generating half of churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvMix {
    /// Percent `get`.
    pub reads: u32,
    /// Percent `put`.
    pub writes: u32,
    /// Percent `remove`.
    pub removes: u32,
}

impl KvMix {
    /// YCSB workload A: 50% reads / 50% updates.
    pub const YCSB_A: KvMix = KvMix {
        reads: 50,
        writes: 50,
        removes: 0,
    };
    /// YCSB workload B: 95% reads / 5% updates.
    pub const YCSB_B: KvMix = KvMix {
        reads: 95,
        writes: 5,
        removes: 0,
    };
    /// YCSB workload C: read-only.
    pub const YCSB_C: KvMix = KvMix {
        reads: 100,
        writes: 0,
        removes: 0,
    };
    /// Delete-heavy churn: the mix that actually exercises reclamation
    /// (updates swap values in place; only removes retire nodes).
    pub const CHURN: KvMix = KvMix {
        reads: 40,
        writes: 30,
        removes: 30,
    };

    /// Stable name for reports ("custom" for hand-rolled mixes).
    pub fn name(&self) -> &'static str {
        match *self {
            KvMix::YCSB_A => "ycsb-a",
            KvMix::YCSB_B => "ycsb-b",
            KvMix::YCSB_C => "ycsb-c",
            KvMix::CHURN => "churn",
            _ => "custom",
        }
    }

    /// The operation a uniform `roll` in `0..100` picks: below `reads`
    /// a get, then below `reads + writes` a put, else a remove. The
    /// caller draws the roll, so each stream keeps its own draw order.
    pub fn kind(&self, roll: u32) -> KvOpKind {
        if roll < self.reads {
            KvOpKind::Get
        } else if roll < self.reads + self.writes {
            KvOpKind::Put
        } else {
            KvOpKind::Remove
        }
    }
}

/// The kind of operation [`KvMix::kind`] picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOpKind {
    /// Read the key.
    Get,
    /// Write the key.
    Put,
    /// Delete the key.
    Remove,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mixes_have_names() {
        assert_eq!(KvMix::YCSB_C.name(), "ycsb-c");
        assert_eq!(KvMix::CHURN.name(), "churn");
        assert_eq!(
            KvMix {
                reads: 10,
                writes: 80,
                removes: 10
            }
            .name(),
            "custom"
        );
    }

    #[test]
    fn kind_splits_the_roll_at_the_mix_boundaries() {
        let mix = KvMix::CHURN;
        let (r, w) = (mix.reads, mix.writes);
        assert_eq!(mix.kind(0), KvOpKind::Get);
        assert_eq!(mix.kind(r - 1), KvOpKind::Get);
        assert_eq!(mix.kind(r), KvOpKind::Put);
        assert_eq!(mix.kind(r + w - 1), KvOpKind::Put);
        assert_eq!(mix.kind(r + w), KvOpKind::Remove);
        assert_eq!(mix.kind(99), KvOpKind::Remove);
        // Read-only: every roll is a get.
        assert_eq!(KvMix::YCSB_C.kind(99), KvOpKind::Get);
    }

    #[test]
    fn key_dist_samplers_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(5);
        for dist in [KeyDist::Uniform, KeyDist::Zipfian { theta: 0.99 }] {
            let sampler = dist.sampler(100);
            for _ in 0..1_000 {
                let k = sampler.sample(&mut rng);
                assert!((0..100).contains(&k), "{dist:?} produced {k}");
            }
        }
        assert_eq!(KeyDist::Uniform.name(), "uniform");
        assert_eq!(KeyDist::Zipfian { theta: 0.5 }.name(), "zipfian");
    }
}
