//! The four workloads, their seeded op streams, and the sequential model
//! every reply is checked against.
//!
//! Streams are generated before timing, from `--seed` alone: 2^18 compact ops
//! per client, replayed cyclically, so the program under test sees only
//! generated inputs and the harness's own footprint stays small and constant.

use era_kv::{KeyDist, KvConfig, KvMix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Ops per client stream (replayed cyclically).
pub const STREAM_OPS: usize = 1 << 18;
/// Requests per pipelined burst; also the chunk size the layer replays use,
/// so every layer sees the same PUT runs the server would batch.
pub const BURST: usize = 64;
/// Bursts a net client keeps outstanding (4 × 64 = 256 requests).
pub const DEPTH: usize = 4;
/// Ops per traced slice: one full pipeline of bursts.
pub const SLICE: usize = BURST * DEPTH;
/// Shards per store, each an independent reclaimer domain.
pub const SHARDS: usize = 4;
/// Hash buckets per shard.
pub const BUCKETS_PER_SHARD: usize = 1024;
/// Preloaded keys removed and re-inserted at the end of preload (see
/// `measure::preload`): about 32 per shard, below the schemes' reclaim
/// thresholds (64).
pub const PRELOAD_CHURN: usize = 128;
/// Thread capacity of every scheme instance: the workers, the preload
/// context, and one spare.
pub const SCHEME_THREADS: usize = 4;

/// Which public entry point the load goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// Loopback TCP into an in-process `NetServer` (L3).
    Net,
    /// Direct `KvStore` calls, the embedder's entry point (L2).
    Kv,
}

/// Reclamation scheme behind the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Epoch-based reclamation.
    Ebr,
    /// Hazard pointers.
    Hp,
}

/// Which keys exist before the first op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preload {
    /// Every key of the range.
    All,
    /// Even keys.
    Even,
    /// Half of each thread's keys when thread `t` owns keys ≡ `t` (mod 2).
    HalfPerOwner,
}

/// One benchmark workload. Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Entry point under load.
    pub entry: Entry,
    /// Scheme of every shard.
    pub scheme: Scheme,
    /// Keys are drawn from `0..key_range`.
    pub key_range: i64,
    /// Keys present before the first op.
    pub preload: Preload,
    /// Operation mix in percent.
    pub mix: KvMix,
    /// Key popularity.
    pub dist: KeyDist,
    /// Closed-loop clients: connections for `Net`, threads for `Kv`.
    pub clients: usize,
    /// Client `c` touches only keys ≡ `c` (mod `clients`): every return
    /// value stays exactly checkable while buckets, shards and the scheme
    /// stay shared.
    pub disjoint_keys: bool,
}

const READ_ONLY: KvMix = KvMix::YCSB_C;
const KV_CHURN: KvMix = KvMix {
    reads: 20,
    writes: 40,
    removes: 40,
};
const ZIPF: KeyDist = KeyDist::Zipfian { theta: 0.99 };

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "net-get-ebr",
        why: "era-net does >90% of the work (framing, allocs, syscalls, wake-ups): 256 pipelined zipf GETs over loopback; control for write-path changes",
        entry: Entry::Net,
        scheme: Scheme::Ebr,
        key_range: 16_384,
        preload: Preload::All,
        mix: READ_ONLY,
        dist: ZIPF,
        clients: 1,
        disjoint_keys: false,
    },
    Workload {
        name: "net-churn-ebr",
        why: "same server, writes beside reads: PUT-run batching, admission, REMOVE->retire->EBR reclaim and retired_peak on the serving path",
        entry: Entry::Net,
        scheme: Scheme::Ebr,
        key_range: 16_384,
        preload: Preload::Even,
        mix: KvMix::CHURN,
        dist: KeyDist::Uniform,
        clients: 1,
        disjoint_keys: false,
    },
    Workload {
        name: "kv-read-hp",
        why: "era-smr protected loads and era-ds traversal dominate: 2 threads of zipf gets on HP shards, chain ~8, no era-net; where the HP/HE gap lives",
        entry: Entry::Kv,
        scheme: Scheme::Hp,
        key_range: 32_768,
        preload: Preload::All,
        mix: READ_ONLY,
        dist: ZIPF,
        clients: 2,
        disjoint_keys: false,
    },
    Workload {
        name: "kv-churn-hp",
        why: "allocation, retire, HP scan and reclaim dominate: 2 threads of 20/40/40 get/put/remove on disjoint keys, so retired_peak is exactly checkable",
        entry: Entry::Kv,
        scheme: Scheme::Hp,
        key_range: 16_384,
        preload: Preload::HalfPerOwner,
        mix: KV_CHURN,
        dist: KeyDist::Uniform,
        clients: 2,
        disjoint_keys: true,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Store shape shared by every layer of this workload.
    pub fn kv_config(&self) -> KvConfig {
        KvConfig {
            buckets_per_shard: BUCKETS_PER_SHARD,
            max_threads: SCHEME_THREADS,
            ..KvConfig::default()
        }
    }

    /// Whether `key` exists before the first op.
    pub fn preloaded(&self, key: i64) -> bool {
        match self.preload {
            Preload::All => true,
            Preload::Even => key % 2 == 0,
            Preload::HalfPerOwner => (key / 2) % 2 == 0,
        }
    }

    /// The preloaded `(key, value)` pairs in key order.
    pub fn preload_entries(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        (0..self.key_range)
            .filter(|&k| self.preloaded(k))
            .map(|k| (k, preload_value(k)))
    }

    /// The preloaded entries the preload removes and re-inserts: evenly
    /// spaced, [`PRELOAD_CHURN`] of them.
    pub fn preload_churn(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        let stride = self.preload_entries().count() / PRELOAD_CHURN;
        self.preload_entries().step_by(stride).take(PRELOAD_CHURN)
    }

    /// Store ops the preload executes: one put per entry, plus a remove and
    /// a put per churned entry.
    pub fn preload_ops(&self) -> u64 {
        (self.preload_entries().count() + 2 * PRELOAD_CHURN) as u64
    }

    /// The model of the store right after preload (its churn included).
    pub fn preload_model(&self) -> Model {
        let mut model = Model::empty(self.key_range);
        for (k, v) in self.preload_entries() {
            model.set(k, Some(v));
        }
        model.removed = PRELOAD_CHURN as u64;
        model
    }

    /// Client `client`'s op stream for `seed`: same arguments, same bytes.
    pub fn stream(&self, seed: u64, client: usize) -> Vec<Op> {
        // Decorrelate clients of one seed and neighbouring seeds alike.
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (client as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let stride = if self.disjoint_keys {
            self.clients as i64
        } else {
            1
        };
        let sampler = self.dist.sampler(self.key_range / stride);
        (0..STREAM_OPS)
            .map(|_| {
                let roll = rng.random_range(0..100u32);
                let kind = if roll < self.mix.reads {
                    OpKind::Get
                } else if roll < self.mix.reads + self.mix.writes {
                    OpKind::Put
                } else {
                    OpKind::Remove
                };
                let key = sampler.sample(&mut rng) * stride
                    + if self.disjoint_keys { client as i64 } else { 0 };
                Op::new(kind, key)
            })
            .collect()
    }
}

/// Operation kinds of the streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read one key.
    Get = 0,
    /// Insert or update one key.
    Put = 1,
    /// Remove one key.
    Remove = 2,
}

/// One compact stream op: kind in the top two bits, key below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op(u32);

impl Op {
    /// Packs `kind` and `key` (keys are below 2^30 by construction).
    pub fn new(kind: OpKind, key: i64) -> Op {
        assert!((0..1 << 30).contains(&key), "key {key} does not fit an Op");
        Op((kind as u32) << 30 | key as u32)
    }

    /// The op's kind.
    pub fn kind(self) -> OpKind {
        match self.0 >> 30 {
            0 => OpKind::Get,
            1 => OpKind::Put,
            _ => OpKind::Remove,
        }
    }

    /// The op's key.
    pub fn key(self) -> i64 {
        i64::from(self.0 & ((1 << 30) - 1))
    }
}

/// Value every preloaded key starts with.
pub fn preload_value(key: i64) -> i64 {
    key * 7 + 1
}

/// Value the PUT at stream position `pos` writes: a function of the inputs
/// only, so frames can be encoded before timing and every later read of the
/// key has exactly one right answer.
pub fn put_value(key: i64, pos: usize) -> i64 {
    ((pos as i64 + 1) << 20) | key
}

/// Sequential model of the store: the last value of every key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    values: Vec<i64>,
    live: usize,
    /// REMOVEs that found their key: each retires exactly one node, so this
    /// is what the store's `total_retired` must read at the end.
    pub removed: u64,
}

/// No value ever written is negative, so one word per key suffices.
const ABSENT: i64 = i64::MIN;

impl Model {
    /// A model with no key present.
    pub fn empty(key_range: i64) -> Model {
        Model {
            values: vec![ABSENT; key_range as usize],
            live: 0,
            removed: 0,
        }
    }

    /// Current value of `key`.
    pub fn get(&self, key: i64) -> Option<i64> {
        let v = self.values[key as usize];
        (v != ABSENT).then_some(v)
    }

    /// Overwrites `key`.
    pub fn set(&mut self, key: i64, value: Option<i64>) {
        let slot = &mut self.values[key as usize];
        self.live = self.live + usize::from(value.is_some()) - usize::from(*slot != ABSENT);
        *slot = value.unwrap_or(ABSENT);
    }

    /// Keys present.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Applies `op` (the one at stream position `pos`) and returns the reply
    /// a correct store gives: the read, previous, or removed value.
    #[inline]
    pub fn step(&mut self, op: Op, pos: usize) -> Option<i64> {
        let key = op.key();
        let prev = self.get(key);
        match op.kind() {
            OpKind::Get => {}
            OpKind::Put => self.set(key, Some(put_value(key, pos))),
            OpKind::Remove => {
                self.removed += u64::from(prev.is_some());
                self.set(key, None);
            }
        }
        prev
    }

    /// Present `(key, value)` pairs in key order — what a full scan of a
    /// correct store returns.
    pub fn entries(&self) -> Vec<(i64, i64)> {
        (0..self.values.len() as i64)
            .filter_map(|k| self.get(k).map(|v| (k, v)))
            .collect()
    }

    /// Takes every key `client` owns (keys ≡ `client` mod `clients`) and the
    /// remove count from `other`: merges the per-thread models of a run.
    pub fn adopt_owned(&mut self, other: &Model, client: usize, clients: usize) {
        for k in (client..self.values.len()).step_by(clients) {
            self.set(k as i64, other.get(k as i64));
        }
        self.removed += other.removed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in &WORKLOADS {
            let a = w.stream(7, 0);
            assert_eq!(a.len(), STREAM_OPS);
            assert_eq!(a, w.stream(7, 0), "{}: stream must repeat", w.name);
            assert_ne!(a, w.stream(8, 0), "{}: seeds must differ", w.name);
            if w.clients > 1 {
                assert_ne!(a, w.stream(7, 1), "{}: clients must differ", w.name);
            }
        }
    }

    #[test]
    fn streams_respect_range_mix_and_ownership() {
        for w in &WORKLOADS {
            for client in 0..w.clients {
                let s = w.stream(1, client);
                assert!(s.iter().all(|op| (0..w.key_range).contains(&op.key())));
                if w.disjoint_keys {
                    assert!(s.iter().all(|op| op.key() as usize % w.clients == client));
                }
                let gets = s.iter().filter(|op| op.kind() == OpKind::Get).count();
                let share = gets as f64 / s.len() as f64 * 100.0;
                assert!(
                    (share - f64::from(w.mix.reads)).abs() < 1.0,
                    "{}: {share}% gets",
                    w.name
                );
            }
        }
    }

    #[test]
    fn op_packing_round_trips() {
        for kind in [OpKind::Get, OpKind::Put, OpKind::Remove] {
            for key in [0, 1, 16_383, (1 << 30) - 1] {
                let op = Op::new(kind, key);
                assert_eq!((op.kind(), op.key()), (kind, key));
            }
        }
    }

    #[test]
    fn model_steps_like_a_map() {
        let mut m = Model::empty(8);
        assert_eq!(m.step(Op::new(OpKind::Get, 3), 0), None);
        assert_eq!(m.step(Op::new(OpKind::Put, 3), 5), None);
        assert_eq!(m.step(Op::new(OpKind::Get, 3), 6), Some(put_value(3, 5)));
        assert_eq!(m.step(Op::new(OpKind::Put, 3), 7), Some(put_value(3, 5)));
        assert_eq!(m.step(Op::new(OpKind::Remove, 3), 8), Some(put_value(3, 7)));
        assert_eq!(m.step(Op::new(OpKind::Remove, 3), 9), None);
        assert_eq!(
            m.removed, 1,
            "only the remove that found its key retires a node"
        );
        m.set(1, Some(11));
        assert_eq!(m.entries(), vec![(1, 11)]);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn half_per_owner_preloads_half_of_each_threads_keys() {
        let w = Workload::by_name("kv-churn-hp").unwrap();
        for owner in 0..2 {
            let owned = (0..w.key_range).filter(|k| k % 2 == owner);
            let loaded = owned.clone().filter(|&k| w.preloaded(k)).count();
            assert_eq!(loaded * 2, owned.count());
        }
    }
}
