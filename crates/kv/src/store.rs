//! The sharded store: N independent reclaimer domains behind one
//! facade.
//!
//! Each shard owns an [`era_ds::HashMap`] bound to its *own* scheme
//! instance and its own [`Recorder`], so reclamation, blame
//! attribution, and footprint accounting are all per-shard: a stalled
//! reader pins exactly one shard's garbage, and the navigator can see
//! — and act on — that shard alone.
//!
//! The store borrows the schemes (`KvStore::new(&schemes, cfg)`)
//! rather than owning them, matching the `era-ds` idiom
//! (`HashMap::new(&smr, …)`) and keeping the struct free of
//! self-references; callers keep the `Vec<S>` alive for the store's
//! lifetime, which `'s` enforces.

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;

use era_ds::HashMap;
use era_obs::{Hook, Recorder, ThreadTracer};
use era_smr::{CachePadded, RegisterError, Smr, SmrStats};

use crate::navigator::ShardHealth;

/// Thread slot the navigator's service tracer emits under (stays clear
/// of real worker slots and the smr-internal service slot `u16::MAX`).
pub const NAVIGATOR_THREAD: u16 = u16::MAX - 2;

/// Tuning knobs for a [`KvStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvConfig {
    /// Hash buckets per shard map (rounded up to a power of two).
    pub buckets_per_shard: usize,
    /// Retired-node budget at which a shard is classified
    /// [`ShardHealth::Degrading`] and admission control engages.
    pub retired_soft: usize,
    /// Retired-node budget at which a shard is classified
    /// [`ShardHealth::Violating`] and the navigator neutralizes the
    /// blamed pin.
    pub retired_hard: usize,
    /// Writes admitted concurrently to a degraded shard before callers
    /// see [`KvError::Overloaded`]. Only writes admitted while the
    /// shard is degraded are counted — a `Robust` shard admits without
    /// touching a shared word — so the writes in flight on a degraded
    /// shard are at most `admission_depth` counted ones plus at most
    /// one per context admitted before the transition (a context has
    /// one write, or one `put_batch` group, in flight per shard at a
    /// time).
    pub admission_depth: usize,
    /// Blame slots per shard recorder; must be ≥ the schemes' thread
    /// capacity for neutralization to target the right slot.
    pub max_threads: usize,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            buckets_per_shard: 64,
            retired_soft: 512,
            retired_hard: 2048,
            admission_depth: 4,
            max_threads: 16,
        }
    }
}

/// Errors surfaced to store callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// Admission control rejected the write: the shard is degraded and
    /// its bounded queue is full. Backpressure is the navigator's first
    /// degradation mode — the service sheds load instead of growing
    /// footprint (sacrificing applicability to heavy traffic, not
    /// robustness).
    Overloaded {
        /// The shard that refused the write.
        shard: usize,
    },
    /// A retrying writer ran out of budget: every attempt inside its
    /// deadline was shed. This is the *typed* failure the self-healing
    /// path guarantees — a caller either succeeds within its deadline
    /// or gets this error; it never hangs.
    DeadlineExceeded {
        /// The shard that kept refusing the write.
        shard: usize,
    },
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::Overloaded { shard } => {
                write!(f, "shard {shard} is overloaded (admission control)")
            }
            KvError::DeadlineExceeded { shard } => {
                write!(f, "shard {shard} stayed overloaded past the op deadline")
            }
        }
    }
}

impl std::error::Error for KvError {}

pub(crate) struct Shard<'s, S: Smr> {
    pub(crate) smr: &'s S,
    pub(crate) map: HashMap<'s, S>,
    pub(crate) recorder: Recorder,
    pub(crate) health: AtomicU8,
    inflight: AtomicUsize,
    pub(crate) transitions: AtomicU64,
    pub(crate) neutralizations: AtomicU64,
    sheds: AtomicU64,
    pub(crate) violating_ticks: AtomicU32,
    /// Blame counters at the previous navigator tick, for delta-based
    /// victim selection (cumulative counters would keep pointing at a
    /// long-resolved stall).
    pub(crate) last_blame: Mutex<Vec<u64>>,
    pub(crate) nav_tracer: Mutex<ThreadTracer>,
}

/// Per-thread handle for [`KvStore`]: one scheme context per shard.
#[must_use = "a KvCtx owns per-shard SMR registrations: dropping it releases every shard slot and orphans in-flight garbage"]
pub struct KvCtx<S: Smr> {
    pub(crate) ctxs: Vec<S::ThreadCtx>,
    /// Writes this context has asked of the store, applied or refused:
    /// one per `put`, `remove` and `incr` call, one per `put_batch`
    /// item. Thread-private, like the context.
    pub(crate) writes: u64,
    /// `writes` at this context's last [`KvStore::navigate`].
    pub(crate) navigated: u64,
    /// Each shard's standing in the running [`KvStore::put_batch`]
    /// call, sized at [`KvStore::register`] so a batch allocates
    /// nothing for it. Thread-private: only this context's batches
    /// read or write it.
    groups: Vec<Group>,
}

/// Where one shard's share of a [`KvStore::put_batch`] call stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    /// No item of the batch has routed here yet.
    Unseen,
    /// Admitted at its first item; `counted` goes back to
    /// [`Shard::finish_write`] when the batch ends.
    Admitted { counted: bool },
    /// Refused at its first item: every item routed here gets this.
    Refused(KvError),
}

impl<S: Smr> fmt::Debug for KvCtx<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KvCtx")
            .field("shards", &self.ctxs.len())
            .finish()
    }
}

/// A sharded concurrent key-value store over independent SMR domains.
///
/// # Example
///
/// ```
/// use era_kv::{KvConfig, KvStore};
/// use era_smr::ebr::Ebr;
///
/// let schemes: Vec<Ebr> = (0..4).map(|_| Ebr::new(8)).collect();
/// let store = KvStore::new(&schemes, KvConfig::default());
/// let mut ctx = store.register().unwrap();
/// assert_eq!(store.put(&mut ctx, 7, 70), Ok(None));
/// assert_eq!(store.get(&mut ctx, 7), Some(70));
/// assert_eq!(store.remove(&mut ctx, 7), Ok(Some(70)));
/// ```
pub struct KvStore<'s, S: Smr> {
    /// One shard per scheme, each cache-padded. A routed op on a
    /// `Robust` shard only *reads* shard words (`health`); the
    /// admission counters (`inflight`, `sheds`) are written only while
    /// the shard is degraded or quarantined, and the padding keeps those
    /// writes off a neighbouring shard's line.
    pub(crate) shards: Vec<CachePadded<Shard<'s, S>>>,
    pub(crate) cfg: KvConfig,
    /// `ceil(2^64 / n)` for `n` shards (0 for one shard: the wrapped
    /// 2^64), the constant [`KvStore::shard_of`] reduces by.
    shard_mul: u64,
    /// Live navigator budgets. They start at the config values but are
    /// runtime-mutable ([`KvStore::set_budgets`]) so a scenario can
    /// tighten or relax the robustness envelope mid-run without
    /// rebuilding the store.
    pub(crate) soft_budget: AtomicUsize,
    pub(crate) hard_budget: AtomicUsize,
    /// Held for one [`KvStore::navigator_tick`]: the one-ticker rule
    /// the per-shard navigator state (`violating_ticks`, `last_blame`,
    /// the health word's read-classify-store) relies on.
    pub(crate) tick_lock: Mutex<()>,
}

impl<S: Smr> fmt::Debug for KvStore<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KvStore")
            .field("shards", &self.shards.len())
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl<'s, S: Smr> KvStore<'s, S> {
    /// Builds a store with one shard per scheme in `schemes`. Each
    /// scheme becomes an independent reclaimer domain with its own
    /// recorder (attached here, so blame and footprint metrics are live
    /// from the first operation). The config's budgets go through
    /// [`KvStore::set_budgets`], so `retired_hard` is clamped to at
    /// least `retired_soft`.
    ///
    /// # Panics
    ///
    /// Panics when `schemes` is empty or holds more than `u32::MAX`
    /// schemes.
    pub fn new(schemes: &'s [S], cfg: KvConfig) -> Self {
        assert!(!schemes.is_empty(), "a KvStore needs at least one shard");
        let n = u32::try_from(schemes.len()).expect("a KvStore has at most u32::MAX shards");
        let shards = schemes
            .iter()
            .map(|smr| {
                // Nothing reads a shard's trace until a flight recorder
                // adds it as a source, which sets its cap.
                let recorder = Recorder::with_max_retained(cfg.max_threads, 0);
                smr.attach_recorder(&recorder);
                let nav_tracer = Mutex::new(recorder.tracer(NAVIGATOR_THREAD, smr.kind().id()));
                CachePadded::new(Shard {
                    smr,
                    map: HashMap::new(smr, cfg.buckets_per_shard),
                    recorder,
                    health: AtomicU8::new(ShardHealth::Robust as u8),
                    inflight: AtomicUsize::new(0),
                    transitions: AtomicU64::new(0),
                    neutralizations: AtomicU64::new(0),
                    sheds: AtomicU64::new(0),
                    violating_ticks: AtomicU32::new(0),
                    last_blame: Mutex::new(Vec::new()),
                    nav_tracer,
                })
            })
            .collect();
        let store = KvStore {
            shards,
            cfg,
            shard_mul: (u64::MAX / u64::from(n)).wrapping_add(1),
            soft_budget: AtomicUsize::new(0),
            hard_budget: AtomicUsize::new(0),
            tick_lock: Mutex::new(()),
        };
        store.set_budgets(cfg.retired_soft, cfg.retired_hard);
        store
    }

    /// Replaces the navigator's soft/hard retired-node budgets for all
    /// shards, effective from the next [`KvStore::navigator_tick`].
    /// Zero-cost to call mid-run: classification reads the budgets
    /// fresh each tick, and hysteresis handles a shard that the new,
    /// tighter envelope instantly reclassifies. `hard` is clamped to at
    /// least `soft` so the escalation ladder stays ordered.
    pub fn set_budgets(&self, soft: usize, hard: usize) {
        self.soft_budget.store(soft, Ordering::SeqCst);
        self.hard_budget.store(hard.max(soft), Ordering::SeqCst);
    }

    /// The live `(soft, hard)` navigator budgets.
    pub fn budgets(&self) -> (usize, usize) {
        (
            self.soft_budget.load(Ordering::SeqCst),
            self.hard_budget.load(Ordering::SeqCst),
        )
    }

    /// Registers the calling thread with every shard domain.
    ///
    /// # Errors
    ///
    /// [`RegisterError`] when any shard's scheme is out of thread
    /// slots (contexts acquired so far are released again).
    pub fn register(&self) -> Result<KvCtx<S>, RegisterError> {
        let mut ctxs = Vec::with_capacity(self.shards.len());
        for sh in &self.shards {
            match sh.smr.register() {
                Ok(c) => ctxs.push(c),
                Err(e) => {
                    // Roll back the partial registration explicitly, in
                    // LIFO order, so a failed register leaves every
                    // earlier shard's registry slot free again. Dropping
                    // the Vec would do the same, but the rollback is a
                    // correctness requirement (a leaked slot shrinks the
                    // shard's thread capacity forever), not an accident
                    // of drop order — keep it visible.
                    while let Some(c) = ctxs.pop() {
                        drop(c);
                    }
                    return Err(e);
                }
            }
        }
        Ok(KvCtx {
            ctxs,
            writes: 0,
            navigated: 0,
            groups: vec![Group::Unseen; self.shards.len()],
        })
    }

    /// The shard `key` routes to: `(h >> 32) % n` for the routing hash
    /// `h = key × 0xD1B5_4A32_D192_ED03` and `n` shards. The hash uses
    /// a different multiplier than the in-shard bucket hash so shard
    /// routing and bucket placement stay uncorrelated (otherwise each
    /// shard would populate only a subset of its buckets).
    ///
    /// The reduction is the exact 32-bit fastmod of Lemire, Kaser &
    /// Kurz (2019): two multiplies by the store's `ceil(2^64 / n)`
    /// instead of a division. It equals `% n` for every 32-bit
    /// dividend and every `n` up to `u32::MAX`, so every key lands on
    /// the same shard as under the plain remainder.
    pub fn shard_of(&self, key: i64) -> usize {
        let h = (key as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
        let frac = self.shard_mul.wrapping_mul(h >> 32);
        ((u128::from(frac) * self.shards.len() as u128) >> 64) as usize
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configuration the store was built with.
    pub fn config(&self) -> &KvConfig {
        &self.cfg
    }

    /// Reads `key`. Reads are never shed: they add no footprint, and
    /// refusing them would buy nothing.
    pub fn get(&self, ctx: &mut KvCtx<S>, key: i64) -> Option<i64> {
        let si = self.shard_of(key);
        let sh = &self.shards[si];
        let tctx = &mut ctx.ctxs[si];
        let _ = sh.smr.needs_restart(tctx); // op boundary: ack any pending neutralization
        sh.map.get(tctx, key)
    }

    /// Inserts or updates `key`; returns the previous value.
    ///
    /// # Errors
    ///
    /// [`KvError::Overloaded`] when the target shard is degraded and
    /// its admission queue is full.
    pub fn put(&self, ctx: &mut KvCtx<S>, key: i64, value: i64) -> Result<Option<i64>, KvError> {
        ctx.writes += 1;
        let si = self.shard_of(key);
        let counted = self.admit_write(si)?;
        let sh = &self.shards[si];
        let tctx = &mut ctx.ctxs[si];
        let _ = sh.smr.needs_restart(tctx);
        let prev = sh.map.insert(tctx, key, value);
        sh.finish_write(counted);
        Ok(prev)
    }

    /// Removes `key`; returns the removed value.
    ///
    /// # Errors
    ///
    /// [`KvError::Overloaded`] under the same conditions as
    /// [`KvStore::put`].
    pub fn remove(&self, ctx: &mut KvCtx<S>, key: i64) -> Result<Option<i64>, KvError> {
        ctx.writes += 1;
        let si = self.shard_of(key);
        let counted = self.admit_write(si)?;
        let sh = &self.shards[si];
        let tctx = &mut ctx.ctxs[si];
        let _ = sh.smr.needs_restart(tctx);
        let prev = sh.map.remove(tctx, key);
        sh.finish_write(counted);
        Ok(prev)
    }

    /// Atomically adds `delta` to `key`'s value; returns the new value
    /// or `None` if absent. Counts as a write for admission control.
    ///
    /// # Errors
    ///
    /// [`KvError::Overloaded`] under the same conditions as
    /// [`KvStore::put`].
    pub fn incr(&self, ctx: &mut KvCtx<S>, key: i64, delta: i64) -> Result<Option<i64>, KvError> {
        ctx.writes += 1;
        let si = self.shard_of(key);
        let counted = self.admit_write(si)?;
        let sh = &self.shards[si];
        let tctx = &mut ctx.ctxs[si];
        let _ = sh.smr.needs_restart(tctx);
        let v = sh.map.fetch_add(tctx, key, delta);
        sh.finish_write(counted);
        Ok(v)
    }

    /// Inserts or updates a batch of `(key, value)` pairs, amortizing
    /// the per-write admission handshake across each shard's share of
    /// the batch — the serving-path fast lane for pipelined writes.
    ///
    /// One pass in item order routes each item once. A shard's share
    /// (its *group*) pays **one** admission decision and one
    /// `needs_restart` poll, both at its first routed item, and one
    /// `finish_write` at the end of the batch, instead of one of each
    /// per item. Items apply in batch order, so two writes to the same
    /// key keep their order and the last one wins. Results come back
    /// in item order: the previous value per item, or
    /// [`KvError::Overloaded`] for every item of a shard group the
    /// navigator refused.
    pub fn put_batch(
        &self,
        ctx: &mut KvCtx<S>,
        items: &[(i64, i64)],
    ) -> Vec<Result<Option<i64>, KvError>> {
        let KvCtx {
            ctxs,
            writes,
            groups,
            ..
        } = ctx;
        *writes += items.len() as u64;
        // Reset on entry as well as on exit: a batch that unwound
        // mid-way leaves no admission standing for the next one.
        groups.fill(Group::Unseen);
        let mut out = Vec::with_capacity(items.len());
        for &(key, value) in items {
            let si = self.shard_of(key);
            let sh = &self.shards[si];
            let tctx = &mut ctxs[si];
            if groups[si] == Group::Unseen {
                groups[si] = match self.admit_write(si) {
                    Ok(counted) => {
                        let _ = sh.smr.needs_restart(tctx);
                        Group::Admitted { counted }
                    }
                    Err(e) => Group::Refused(e),
                };
            }
            out.push(match groups[si] {
                Group::Refused(e) => Err(e),
                _ => Ok(sh.map.insert(tctx, key, value)),
            });
        }
        for (sh, group) in self.shards.iter().zip(groups.iter_mut()) {
            if let Group::Admitted { counted } = *group {
                sh.finish_write(counted);
            }
            *group = Group::Unseen;
        }
        out
    }

    /// Marks `shard` [`ShardHealth::Quarantined`]: writes are refused
    /// outright (reads still served) until its footprint drains below
    /// half the soft budget, at which point [`KvStore::navigator_tick`]
    /// returns it to `Robust`. Call after a context death on the shard
    /// — the quarantine gives survivors room to adopt the orphaned
    /// garbage without new writes piling on.
    pub fn quarantine(&self, shard: usize) {
        let sh = &self.shards[shard];
        let prev = sh
            .health
            .swap(ShardHealth::Quarantined as u8, Ordering::SeqCst);
        if prev != ShardHealth::Quarantined as u8 {
            // SAFETY(ordering): Relaxed — transition tally is telemetry;
            // the SeqCst health swap above is the real edge.
            sh.transitions.fetch_add(1, Ordering::Relaxed);
            if let Ok(mut t) = sh.nav_tracer.try_lock() {
                t.emit(
                    Hook::Navigate,
                    shard as u64,
                    ((prev as u64) << 8) | ShardHealth::Quarantined as u64,
                );
            }
        }
    }

    /// Re-registers this thread's context on `shard` after a death or
    /// neutralization incident: a fresh context is acquired, the old
    /// one is dropped (its garbage moves to the scheme's orphan pool
    /// and its registry slot is released), and the fresh context
    /// immediately flushes so the orphans are adopted.
    ///
    /// # Errors
    ///
    /// [`RegisterError`] when the shard's scheme has no spare slot —
    /// the old context is then kept untouched (healing needs one free
    /// slot because the fresh context is acquired before the old one
    /// is released, so the swap can never leave the thread without a
    /// context).
    pub fn heal(&self, ctx: &mut KvCtx<S>, shard: usize) -> Result<(), RegisterError> {
        let sh = &self.shards[shard];
        let mut fresh = sh.smr.register()?;
        // Ack any restart flag already raised against the fresh slot:
        // registry slots are recycled, and a neutralization aimed at the
        // slot's previous occupant (a navigator tick can fire between
        // that context's release and this register) must not leak into
        // the healed context's first real operation.
        let _ = sh.smr.needs_restart(&mut fresh);
        let mut old = std::mem::replace(&mut ctx.ctxs[shard], fresh);
        // Flush through the dying context first: whatever it can still
        // reclaim is freed directly instead of round-tripping through
        // the orphan pool, shrinking the adoption window a concurrent
        // `maintain` pass on another thread races against.
        sh.smr.flush(&mut old);
        drop(old);
        sh.smr.flush(&mut ctx.ctxs[shard]);
        Ok(())
    }

    /// One idle-maintenance pass for this context: a flush on every
    /// shard, so garbage retired through `ctx` does not sit in its
    /// local lists while the thread has no traffic. Long-lived serving
    /// threads (the `era-net` worker pool) call this whenever they idle
    /// out of a read — without it, a quiet server pins its own backlog
    /// forever: reclamation only runs inside write operations, and an
    /// overloaded shard that has started shedding writes would never
    /// see another one.
    pub fn maintain(&self, ctx: &mut KvCtx<S>) {
        for (si, sh) in self.shards.iter().enumerate() {
            let tctx = &mut ctx.ctxs[si];
            let _ = sh.smr.needs_restart(tctx);
            sh.smr.flush(tctx);
        }
    }

    /// Graceful shutdown: repeatedly cycles every shard through an
    /// (empty) operation and a flush — with a navigator tick per round
    /// so quarantined shards can recover — until the whole store's
    /// `retired_now` drains to 0 or `max_rounds` passes. Returns
    /// whether the drain completed; the only way it cannot is garbage
    /// pinned by a context outside this caller's control (a live
    /// stalled reader).
    pub fn drain(&self, ctx: &mut KvCtx<S>, max_rounds: usize) -> bool {
        for _ in 0..max_rounds.max(1) {
            for (si, sh) in self.shards.iter().enumerate() {
                let tctx = &mut ctx.ctxs[si];
                let _ = sh.smr.needs_restart(tctx);
                sh.smr.begin_op(tctx);
                sh.smr.end_op(tctx);
                sh.smr.flush(tctx);
            }
            self.navigator_tick();
            if self.stats().retired_now == 0 {
                return true;
            }
        }
        self.stats().retired_now == 0
    }

    /// All entries with `lo <= key < hi`, sorted (quiescent use only,
    /// like the underlying maps' snapshots).
    pub fn scan(&self, lo: i64, hi: i64) -> Vec<(i64, i64)> {
        let mut out: Vec<(i64, i64)> = self
            .shards
            .iter()
            .flat_map(|sh| sh.map.collect_entries())
            .filter(|&(k, _)| lo <= k && k < hi)
            .collect();
        out.sort_unstable();
        out
    }

    /// Total entries across shards (quiescent use only).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|sh| sh.map.len()).sum()
    }

    /// Whether the store is empty (quiescent use only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Service-level footprint counters: per-shard snapshots folded
    /// with [`SmrStats::merge`] (sum-of-peaks, the conservative bound).
    pub fn stats(&self) -> SmrStats {
        let mut acc = SmrStats::default();
        for sh in &self.shards {
            acc.merge(&sh.smr.stats());
        }
        acc
    }

    /// Footprint counters of each shard domain, in shard order.
    pub fn shard_stats(&self) -> Vec<SmrStats> {
        self.shards.iter().map(|sh| sh.smr.stats()).collect()
    }

    /// Current health class of `shard`.
    pub fn health(&self, shard: usize) -> ShardHealth {
        ShardHealth::from_u8(self.shards[shard].health.load(Ordering::SeqCst))
    }

    /// The scheme instance backing `shard` — the hook the stall
    /// harness uses to pin a single shard's domain.
    pub fn scheme(&self, shard: usize) -> &'s S {
        self.shards[shard].smr
    }

    /// The recorder observing `shard`: its metrics and event rings. It
    /// retains no events — each thread's 512-slot ring only stages them,
    /// and counts each half it fills trimmed — until a
    /// [`era_obs::FlightRecorder`] adds it as a source and so sets its
    /// cap on retained events.
    pub fn recorder(&self, shard: usize) -> &Recorder {
        &self.shards[shard].recorder
    }

    /// Navigator counters summed over shards:
    /// `(transitions, neutralizations, sheds)`.
    pub fn nav_counters(&self) -> (u64, u64, u64) {
        let mut t = 0;
        let mut n = 0;
        let mut s = 0;
        for sh in &self.shards {
            t += sh.transitions.load(Ordering::Relaxed);
            n += sh.neutralizations.load(Ordering::Relaxed);
            s += sh.sheds.load(Ordering::Relaxed);
        }
        (t, n, s)
    }

    /// Eagerly attempts reclamation on every shard with this thread's
    /// contexts (shutdown/test convenience).
    pub fn flush(&self, ctx: &mut KvCtx<S>) {
        for (sh, tctx) in self.shards.iter().zip(ctx.ctxs.iter_mut()) {
            sh.smr.flush(tctx);
        }
    }

    /// Decides one write (or one `put_batch` group) on shard `si`:
    /// `Ok(counted)` admits it, and the caller hands `counted` back to
    /// [`Shard::finish_write`] when the write is done. A `Robust` shard
    /// admits with no shared write at all (`Ok(false)`): `inflight` is
    /// the degraded shard's queue, and a healthy shard has none. Only a
    /// write admitted under `Degrading`/`Violating` is counted, and
    /// only a counted write is uncounted, so a write that straddles a
    /// transition leaves `inflight` exact in both directions.
    fn admit_write(&self, si: usize) -> Result<bool, KvError> {
        let sh = &self.shards[si];
        let health = sh.health.load(Ordering::Relaxed);
        if health == ShardHealth::Robust as u8 {
            return Ok(false);
        }
        if health == ShardHealth::Quarantined as u8 {
            // Quarantine refuses writes outright (no bounded queue):
            // the shard is recovering from a death, not from load.
            // SAFETY(ordering): Relaxed — shed tally is telemetry for
            // reports; admission is decided by the health word alone.
            let sheds = sh.sheds.fetch_add(1, Ordering::Relaxed) + 1;
            if let Ok(mut t) = sh.nav_tracer.try_lock() {
                t.emit(Hook::Shed, si as u64, sheds);
            }
            return Err(KvError::Overloaded { shard: si });
        }
        // Degraded: bounded admission over the counted writes. Writes
        // admitted uncounted while the shard was still `Robust` (a
        // stale health load included) may still be in flight — at most
        // one per context — which the budget's slack absorbs.
        let prev = sh.inflight.fetch_add(1, Ordering::SeqCst);
        if prev >= self.cfg.admission_depth {
            sh.inflight.fetch_sub(1, Ordering::SeqCst);
            // SAFETY(ordering): Relaxed — shed tally, as above.
            let sheds = sh.sheds.fetch_add(1, Ordering::Relaxed) + 1;
            if let Ok(mut t) = sh.nav_tracer.try_lock() {
                t.emit(Hook::Shed, si as u64, sheds);
            }
            return Err(KvError::Overloaded { shard: si });
        }
        Ok(true)
    }
}

impl<S: Smr> Shard<'_, S> {
    /// Ends a write [`KvStore::admit_write`] admitted: a counted one
    /// leaves the degraded shard's queue.
    fn finish_write(&self, counted: bool) {
        if counted {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use era_smr::ebr::Ebr;
    use era_smr::hp::Hp;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn ebr_store(shards: usize) -> (Vec<Ebr>, KvConfig) {
        let schemes: Vec<Ebr> = (0..shards).map(|_| Ebr::new(8)).collect();
        (schemes, KvConfig::default())
    }

    #[test]
    fn basic_semantics_across_shards() {
        let (schemes, cfg) = ebr_store(4);
        let store = KvStore::new(&schemes, cfg);
        let mut ctx = store.register().unwrap();
        for k in -50..50 {
            assert_eq!(store.put(&mut ctx, k, k * 2), Ok(None));
        }
        for k in -50..50 {
            assert_eq!(store.get(&mut ctx, k), Some(k * 2));
        }
        assert_eq!(store.len(), 100);
        assert_eq!(store.put(&mut ctx, 0, 42), Ok(Some(0)));
        assert_eq!(store.incr(&mut ctx, 0, 8), Ok(Some(50)));
        assert_eq!(store.incr(&mut ctx, 9999, 1), Ok(None));
        let window = store.scan(-5, 5);
        assert_eq!(window.len(), 10);
        assert!(window.windows(2).all(|w| w[0].0 < w[1].0), "scan sorted");
        assert_eq!(window[5], (0, 50));
        for k in -50..50 {
            assert_eq!(
                store.remove(&mut ctx, k),
                Ok(Some(if k == 0 { 50 } else { k * 2 }))
            );
        }
        assert!(store.is_empty());
    }

    #[test]
    fn routing_is_stable_and_total() {
        let (schemes, cfg) = ebr_store(5);
        let store = KvStore::new(&schemes, cfg);
        let mut seen = vec![0usize; 5];
        for k in -1000..1000 {
            let s = store.shard_of(k);
            assert_eq!(s, store.shard_of(k), "routing must be deterministic");
            seen[s] += 1;
        }
        for (i, &n) in seen.iter().enumerate() {
            assert!(n > 100, "shard {i} starved: {seen:?}");
        }
    }

    /// The plain remainder routing is pinned to: every checked-in
    /// key → shard fact (the `BENCH_*_baseline.json` rows, the "first
    /// key on shard 0" tests) rests on `shard_of` computing exactly
    /// this.
    fn reference_shard(key: i64, n: usize) -> usize {
        (((key as u64).wrapping_mul(0xD1B5_4A32_D192_ED03) >> 32) % n as u64) as usize
    }

    /// One store per shard count in `1..=64`, built once.
    fn stores_by_count() -> &'static [KvStore<'static, Ebr>] {
        static SCHEMES: OnceLock<Vec<Vec<Ebr>>> = OnceLock::new();
        static STORES: OnceLock<Vec<KvStore<'static, Ebr>>> = OnceLock::new();
        STORES.get_or_init(|| {
            let max = if cfg!(miri) { 8 } else { 64 };
            let cfg = KvConfig {
                buckets_per_shard: 1,
                ..KvConfig::default()
            };
            SCHEMES
                .get_or_init(|| {
                    (1..=max)
                        .map(|n| (0..n).map(|_| Ebr::new(1)).collect())
                        .collect()
                })
                .iter()
                .map(|schemes| KvStore::new(schemes, cfg))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 512 }))]

        #[test]
        fn shard_of_is_the_plain_remainder(key in i64::MIN..i64::MAX) {
            for store in stores_by_count() {
                let n = store.shard_count();
                for k in [key, 0, -1, i64::MIN, i64::MAX] {
                    prop_assert_eq!(store.shard_of(k), reference_shard(k, n), "key {} over {} shards", k, n);
                }
            }
        }
    }

    #[test]
    fn works_generically_over_schemes() {
        let schemes: Vec<Hp> = (0..2).map(|_| Hp::new(4, 3)).collect();
        let store = KvStore::new(&schemes, KvConfig::default());
        let mut ctx = store.register().unwrap();
        assert_eq!(store.put(&mut ctx, 1, 10), Ok(None));
        assert_eq!(store.get(&mut ctx, 1), Some(10));
    }

    #[test]
    fn admission_control_rejects_when_degraded() {
        let schemes: Vec<Ebr> = vec![Ebr::new(4)];
        let cfg = KvConfig {
            retired_soft: 0, // every tick classifies the shard Degrading
            admission_depth: 0,
            ..KvConfig::default()
        };
        let store = KvStore::new(&schemes, cfg);
        let mut ctx = store.register().unwrap();
        assert_eq!(store.put(&mut ctx, 1, 1), Ok(None), "robust: admitted");
        store.navigator_tick();
        assert_eq!(store.health(0), ShardHealth::Degrading);
        assert_eq!(
            store.put(&mut ctx, 1, 2),
            Err(KvError::Overloaded { shard: 0 })
        );
        assert_eq!(
            store.remove(&mut ctx, 1),
            Err(KvError::Overloaded { shard: 0 })
        );
        assert_eq!(store.get(&mut ctx, 1), Some(1), "reads are never shed");
        let (_, _, sheds) = store.nav_counters();
        assert_eq!(sheds, 2);
        assert_eq!(
            KvError::Overloaded { shard: 0 }.to_string(),
            "shard 0 is overloaded (admission control)"
        );
        assert_eq!(
            KvError::DeadlineExceeded { shard: 0 }.to_string(),
            "shard 0 stayed overloaded past the op deadline"
        );
    }

    #[test]
    fn admission_counts_only_degraded_writes_and_cannot_wrap() {
        let schemes: Vec<Ebr> = vec![Ebr::new(4)];
        let cfg = KvConfig {
            retired_soft: 0, // every tick classifies the shard Degrading
            admission_depth: 3,
            ..KvConfig::default()
        };
        let store = KvStore::new(&schemes, cfg);
        let sh = &store.shards[0];
        let inflight = || sh.inflight.load(Ordering::SeqCst);

        // Admitted while Robust: no shared write, nothing to undo…
        let straddler = store.admit_write(0);
        assert_eq!((straddler, inflight()), (Ok(false), 0));
        // …even when the shard degrades before the write finishes.
        store.navigator_tick();
        assert_eq!(store.health(0), ShardHealth::Degrading);
        sh.finish_write(straddler.unwrap());
        assert_eq!(inflight(), 0, "an uncounted write must not be uncounted");

        // Degrading sheds at exactly `admission_depth` counted writes.
        for depth in 1..=3 {
            assert_eq!(store.admit_write(0), Ok(true));
            assert_eq!(inflight(), depth);
        }
        assert_eq!(store.admit_write(0), Err(KvError::Overloaded { shard: 0 }));
        assert_eq!((inflight(), store.nav_counters().2), (3, 1));

        // Counted writes that finish after recovery still leave the queue.
        store.set_budgets(1 << 20, 1 << 21);
        store.navigator_tick();
        assert_eq!(store.health(0), ShardHealth::Robust);
        assert_eq!(store.admit_write(0), Ok(false));
        for _ in 0..3 {
            sh.finish_write(true);
        }
        assert_eq!(inflight(), 0);
    }

    #[test]
    fn put_batch_matches_put_semantics_and_order() {
        let (schemes, cfg) = ebr_store(4);
        let store = KvStore::new(&schemes, cfg);
        let mut ctx = store.register().unwrap();
        // Duplicate keys in one batch must apply in batch order.
        let items: Vec<(i64, i64)> = (0..64)
            .map(|i| (i % 16, i * 10))
            .chain(std::iter::once((3, 777)))
            .collect();
        let results = store.put_batch(&mut ctx, &items);
        // The batch interleaves all four shards; each item's result is
        // what a sequential replay in item order gives.
        let mut model = std::collections::HashMap::new();
        let expect: Vec<Result<Option<i64>, KvError>> =
            items.iter().map(|&(k, v)| Ok(model.insert(k, v))).collect();
        assert_eq!(results, expect);
        assert_eq!(results[16], Ok(Some(0)), "second round sees first value");
        assert_eq!(store.get(&mut ctx, 3), Some(777), "last write wins");
        for k in 0..16 {
            assert!(store.get(&mut ctx, k).is_some());
        }
        assert!(store.put_batch(&mut ctx, &[]).is_empty());
    }

    /// The first key at or above 0 that routes to shard `si`.
    fn key_on(store: &KvStore<'_, Ebr>, si: usize) -> i64 {
        (0..).find(|&k| store.shard_of(k) == si).unwrap()
    }

    #[test]
    fn put_batch_refuses_exactly_the_quarantined_shards_items() {
        let schemes: Vec<Ebr> = (0..3).map(|_| Ebr::new(4)).collect();
        let store = KvStore::new(&schemes, KvConfig::default());
        let mut ctx = store.register().unwrap();
        let keys: Vec<i64> = (0..3).map(|si| key_on(&store, si)).collect();
        store.quarantine(1);
        let items: Vec<(i64, i64)> = [0, 1, 2, 1, 0].iter().map(|&si| (keys[si], 9)).collect();
        let results = store.put_batch(&mut ctx, &items);
        let refused = Err(KvError::Overloaded { shard: 1 });
        assert_eq!(
            results,
            vec![Ok(None), refused, Ok(None), refused, Ok(Some(9))]
        );
        assert_eq!(store.nav_counters().2, 1, "one decision per shard group");
        assert_eq!(store.get(&mut ctx, keys[1]), None);
        assert_eq!(store.get(&mut ctx, keys[2]), Some(9));
    }

    #[test]
    fn put_batch_leaves_no_counted_admission_behind() {
        let schemes: Vec<Ebr> = (0..2).map(|_| Ebr::new(4)).collect();
        let cfg = KvConfig {
            retired_soft: 0, // every tick classifies each shard Degrading
            admission_depth: 1,
            ..KvConfig::default()
        };
        let store = KvStore::new(&schemes, cfg);
        let mut ctx = store.register().unwrap();
        store.navigator_tick();
        assert_eq!(store.health(0), ShardHealth::Degrading);
        assert_eq!(store.health(1), ShardHealth::Degrading);
        let (a, b) = (key_on(&store, 0), key_on(&store, 1));
        for round in 0..3 {
            // Depth 1 admits each shard's group only because a group
            // is counted once, not per item.
            let results = store.put_batch(&mut ctx, &[(a, round), (b, round), (a, round)]);
            assert!(
                results.iter().all(Result::is_ok),
                "round {round}: {results:?}"
            );
            for sh in &store.shards {
                assert_eq!(sh.inflight.load(Ordering::SeqCst), 0, "round {round}");
            }
        }
        assert_eq!(store.nav_counters().2, 0);
        // The groups were counted: with shard 1's one slot held, its
        // group is refused while shard 0's lands.
        let held = store.admit_write(1);
        assert_eq!(held, Ok(true));
        assert_eq!(
            store.put_batch(&mut ctx, &[(a, 7), (b, 7)]),
            vec![Ok(Some(2)), Err(KvError::Overloaded { shard: 1 })]
        );
        store.shards[1].finish_write(held.unwrap());
        assert!(store
            .shards
            .iter()
            .all(|sh| sh.inflight.load(Ordering::SeqCst) == 0));
    }

    #[test]
    fn put_batch_starts_each_call_with_clean_shard_state() {
        let schemes: Vec<Ebr> = (0..2).map(|_| Ebr::new(4)).collect();
        let store = KvStore::new(&schemes, KvConfig::default());
        let mut ctx = store.register().unwrap();
        let (a, b) = (key_on(&store, 0), key_on(&store, 1));
        assert!(store.put_batch(&mut ctx, &[]).is_empty());
        store.quarantine(0);
        assert_eq!(
            store.put_batch(&mut ctx, &[(a, 1), (b, 1)]),
            vec![Err(KvError::Overloaded { shard: 0 }), Ok(None)]
        );
        store.navigator_tick();
        assert_eq!(store.health(0), ShardHealth::Robust);
        // The refusal above does not outlive its call…
        assert_eq!(
            store.put_batch(&mut ctx, &[(a, 2), (b, 2)]),
            vec![Ok(None), Ok(Some(1))]
        );
        // …and neither does state a call that unwound left behind:
        // the next call resets it on entry.
        ctx.groups[0] = Group::Refused(KvError::Overloaded { shard: 0 });
        ctx.groups[1] = Group::Admitted { counted: true };
        assert_eq!(
            store.put_batch(&mut ctx, &[(a, 3), (b, 3)]),
            vec![Ok(Some(2)), Ok(Some(2))]
        );
        assert_eq!(store.shards[1].inflight.load(Ordering::SeqCst), 0);
        assert!(store.put_batch(&mut ctx, &[]).is_empty());
        assert!(ctx.groups.iter().all(|&g| g == Group::Unseen));
    }

    #[test]
    fn register_releases_slots_on_failure() {
        // Shard 1 has capacity 1: the second register must fail and
        // release the slot it took on shard 0.
        let schemes = vec![Ebr::new(4), Ebr::new(1)];
        let store = KvStore::new(&schemes, KvConfig::default());
        let first = store.register().unwrap();
        assert!(store.register().is_err());
        drop(first);
        assert!(store.register().is_ok());
    }

    #[test]
    fn failed_registers_never_erode_shard_capacity() {
        // Each failed register acquires a shard-0 slot before failing at
        // shard 1; if any attempt leaked it, shard 0 would not have all
        // three of its slots free afterwards. (The single-failure test
        // above cannot see a leak of fewer slots than shard 0's spare
        // capacity — this one drains shard 0 to exactly its capacity.)
        let schemes = vec![Ebr::new(3), Ebr::new(1)];
        let store = KvStore::new(&schemes, KvConfig::default());
        let first = store.register().unwrap();
        for _ in 0..5 {
            assert!(store.register().is_err(), "shard 1 is full");
        }
        drop(first);
        // All shard-0 slots must be free again: claim every one of them
        // directly from the scheme.
        let direct: Vec<_> = (0..3).map(|_| schemes[0].register().unwrap()).collect();
        drop(direct);
        assert!(store.register().is_ok());
    }

    #[test]
    fn quarantine_blocks_writes_serves_reads_and_recovers() {
        let schemes: Vec<Ebr> = vec![Ebr::new(4)];
        let store = KvStore::new(&schemes, KvConfig::default());
        let mut ctx = store.register().unwrap();
        assert_eq!(store.put(&mut ctx, 1, 10), Ok(None));

        store.quarantine(0);
        assert_eq!(store.health(0), ShardHealth::Quarantined);
        assert_eq!(
            store.put(&mut ctx, 1, 11),
            Err(KvError::Overloaded { shard: 0 })
        );
        assert_eq!(store.get(&mut ctx, 1), Some(10), "reads still served");
        // Quarantining an already-quarantined shard is idempotent (no
        // double transition).
        let (transitions, _, _) = store.nav_counters();
        store.quarantine(0);
        assert_eq!(store.nav_counters().0, transitions);

        // Footprint is already below soft/2: the next tick re-opens.
        store.navigator_tick();
        assert_eq!(store.health(0), ShardHealth::Robust);
        assert_eq!(store.put(&mut ctx, 1, 11), Ok(Some(10)));
    }

    #[test]
    fn heal_swaps_context_and_adopts_orphans() {
        // Capacity 3: the store context, the doomed direct context, and
        // the spare slot heal() needs for its acquire-before-release.
        let schemes: Vec<Ebr> = vec![Ebr::with_threshold(3, 1)];
        let store = KvStore::new(&schemes, KvConfig::default());
        let mut ctx = store.register().unwrap();

        // A directly-registered context dies pinned with garbage.
        let smr = store.scheme(0);
        let mut doomed = smr.register().unwrap();
        era_smr::Smr::begin_op(smr, &mut doomed);
        for k in 0..8 {
            store.put(&mut ctx, k, k).unwrap();
            store.remove(&mut ctx, k).unwrap();
        }
        drop(doomed); // dies pinned: garbage orphaned, slot released

        store.quarantine(0);
        store.heal(&mut ctx, 0).expect("spare slot available");
        assert!(
            store.drain(&mut ctx, 32),
            "orphans must drain after heal: {}",
            store.stats()
        );
        assert_eq!(store.health(0), ShardHealth::Robust);
        assert_eq!(store.put(&mut ctx, 1, 1), Ok(None));
    }

    #[test]
    fn heal_without_spare_slot_fails_but_keeps_old_context() {
        let schemes: Vec<Ebr> = vec![Ebr::new(1)]; // no spare slot
        let store = KvStore::new(&schemes, KvConfig::default());
        let mut ctx = store.register().unwrap();
        assert!(store.heal(&mut ctx, 0).is_err());
        // The old context survived the failed heal and still works.
        assert_eq!(store.put(&mut ctx, 1, 1), Ok(None));
        assert_eq!(store.get(&mut ctx, 1), Some(1));
    }

    #[test]
    fn dropped_contexts_release_their_rings() {
        // The shard recorders retain nothing: each cycle's removes fill
        // rings whose halves are only counted trimmed. A remove's
        // `Retire` is recorded, while a put's and a get's hooks are only
        // counted.
        let schemes: Vec<Hp> = (0..4).map(|_| Hp::new(4, 3)).collect();
        let store = KvStore::new(&schemes, KvConfig::default());
        let rings = |s: usize| store.recorder(s).ring_count();
        // The service and navigator tracers' rings.
        let idle: Vec<usize> = (0..4).map(rings).collect();
        let cycles = if cfg!(miri) { 20 } else { 1_000 };
        for cycle in 0..cycles {
            let mut ctx = store.register().unwrap();
            for (s, &idle) in idle.iter().enumerate() {
                // Creating this context's ring let go of the last one's.
                assert!(
                    rings(s) <= idle + 1,
                    "cycle {cycle}: shard {s} kept a dead ring"
                );
            }
            for k in 0..64 {
                store.put(&mut ctx, k, cycle).unwrap();
                assert_eq!(store.get(&mut ctx, k), Some(cycle));
                assert_eq!(store.remove(&mut ctx, k), Ok(Some(cycle)));
            }
        }
        let recorded = |s: usize| -> u64 {
            let metrics = store.recorder(s).metrics();
            let hooks = Hook::ALL.iter().filter(|h| h.is_recorded());
            hooks.map(|&h| metrics.hook_count(h)).sum()
        };
        for (s, &idle) in idle.iter().enumerate() {
            let log = store.recorder(s).drain();
            assert!(log.events.is_empty(), "shard {s} retained events");
            // The halves the owners counted, and the rests the drain
            // trimmed: every event once.
            assert_eq!(log.trimmed, recorded(s), "shard {s}");
            assert_eq!(rings(s), idle, "shard {s} kept a dead ring");
            assert_eq!(store.recorder(s).dropped(), 0);
        }
        assert!((0..4).all(|s| recorded(s) > 512), "the rings wrapped");
    }

    #[test]
    fn set_budgets_redirects_the_navigator_live() {
        let schemes: Vec<Ebr> = vec![Ebr::with_threshold(4, 1)];
        let store = KvStore::new(&schemes, KvConfig::default());
        assert_eq!(store.budgets(), (512, 2048));
        let mut ctx = store.register().unwrap();
        // Churn with a pinned reader: ~16 retired nodes held up.
        let smr = store.scheme(0);
        let mut pin = smr.register().unwrap();
        era_smr::Smr::begin_op(smr, &mut pin);
        for k in 0..16 {
            store.put(&mut ctx, k, k).unwrap();
            store.remove(&mut ctx, k).unwrap();
        }
        store.navigator_tick();
        assert_eq!(
            store.health(0),
            ShardHealth::Robust,
            "default budgets absorb it"
        );
        // Tighten mid-run: the very next tick reclassifies.
        store.set_budgets(4, 8);
        store.navigator_tick();
        assert_eq!(store.health(0), ShardHealth::Violating);
        // Relax again: footprint is now far below the new soft/2.
        era_smr::Smr::end_op(smr, &mut pin);
        store.set_budgets(1 << 20, 1 << 21);
        store.navigator_tick();
        assert_eq!(store.health(0), ShardHealth::Robust);
        // hard is clamped to stay ≥ soft.
        store.set_budgets(100, 10);
        assert_eq!(store.budgets(), (100, 100));
    }

    #[test]
    fn new_clamps_an_inverted_budget_pair_like_set_budgets() {
        let schemes: Vec<Ebr> = vec![Ebr::with_threshold(4, 1)];
        let cfg = KvConfig {
            retired_soft: 2048,
            retired_hard: 512,
            ..KvConfig::default()
        };
        let store = KvStore::new(&schemes, cfg);
        let built = store.budgets();
        store.set_budgets(2048, 512);
        assert_eq!(built, store.budgets());
        assert_eq!(built, (2048, 2048));
    }

    #[test]
    fn drain_reports_failure_while_pinned_then_success() {
        let schemes: Vec<Ebr> = vec![Ebr::with_threshold(4, 1)];
        let store = KvStore::new(&schemes, KvConfig::default());
        let mut ctx = store.register().unwrap();
        let smr = store.scheme(0);
        let mut pin = smr.register().unwrap();
        era_smr::Smr::begin_op(smr, &mut pin);
        for k in 0..8 {
            store.put(&mut ctx, k, k).unwrap();
            store.remove(&mut ctx, k).unwrap();
        }
        assert!(
            !store.drain(&mut ctx, 4),
            "a live pin must keep drain from completing"
        );
        era_smr::Smr::end_op(smr, &mut pin);
        assert!(store.drain(&mut ctx, 32), "unpinned store must drain");
        assert_eq!(store.stats().retired_now, 0);
    }
}
