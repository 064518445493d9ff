//! Always-on aggregate metrics: counters, high-water marks, log₂
//! histograms, and per-thread blame.
//!
//! Unlike the event rings these never drop data — they are single
//! atomic words (or small arrays of them), cheap enough to leave on
//! even when full event tracing is not. The protocol-path metrics
//! (latency, footprint, blame) are shared words updated with relaxed
//! RMWs; the per-hook call counters sit on the emit hot path, so each
//! tracer owns a private [`HookCounts`] block and a read sums them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::event::Hook;

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A [`Counter`] alone on its cache line (mirrors `era_smr`'s
/// `CachePadded`, re-declared here because `era-obs` sits *below*
/// `era-smr` in the dependency graph). Used for the per-thread blame
/// slots: a blamed thread's watchdog increments must not bounce the
/// line under a neighbouring slot's updates.
#[derive(Debug, Default)]
#[repr(align(128))]
struct PaddedCounter(Counter);

/// A maximum-so-far gauge (e.g. footprint high-water mark).
#[derive(Debug, Default)]
pub struct HighWater(AtomicU64);

impl HighWater {
    /// Raises the mark to `value` if higher. A value at or below the
    /// mark costs one load: the RMW, which takes the line exclusive
    /// even when it changes nothing, runs only while the mark climbs.
    #[inline]
    pub fn record(&self, value: u64) {
        if value > self.0.load(Ordering::Relaxed) {
            // SAFETY(ordering): Relaxed — fetch_max settles racing
            // climbers; the mark is telemetry, not a synchronization
            // point, and a stale load only sends us here needlessly.
            self.0.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Highest value recorded.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Log2Histogram`]: one per possible
/// bit-length of a `u64`, plus one for zero.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A lock-free histogram with power-of-two bucket boundaries.
///
/// Bucket 0 holds exact zeros; bucket `k ≥ 1` holds values `v` with
/// `2^(k-1) <= v < 2^k`. Recording is one relaxed `fetch_add`.
pub struct Log2Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }
}

impl Log2Histogram {
    /// Bucket index for `value`.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        // SAFETY(ordering): Relaxed — histogram buckets are telemetry;
        // snapshot() tolerates mid-flight increments by design.
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        for (out, bucket) in counts.iter_mut().zip(&self.buckets) {
            *out = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot { counts }
    }
}

impl std::fmt::Debug for Log2Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Log2Histogram({} samples)", self.snapshot().total())
    }
}

/// An owned copy of a [`Log2Histogram`]'s bucket counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The raw per-bucket counts (index = [`Log2Histogram::bucket_of`]
    /// value). Exposed so serializers (the `.eraflt` dump) can
    /// round-trip a snapshot losslessly.
    pub fn counts(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// Rebuilds a snapshot from raw bucket counts (the inverse of
    /// [`counts`](Self::counts), used by the dump decoder).
    pub fn from_counts(counts: [u64; HISTOGRAM_BUCKETS]) -> HistogramSnapshot {
        HistogramSnapshot { counts }
    }

    /// Accumulates another snapshot into this one (bucket-wise sum).
    /// Used by era-kv to merge per-shard latency histograms into one
    /// service-level distribution; log₂ buckets make this lossless.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (into, from) in self.counts.iter_mut().zip(&other.counts) {
            *into += from;
        }
    }

    /// An all-zero snapshot, the identity for [`merge`](Self::merge).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            counts: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// Upper bound (exclusive) of the bucket containing the `q`-th
    /// quantile (`0.0..=1.0`), or 0 if empty. A coarse but monotone
    /// summary — exact within a factor of two.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if k >= 64 { u64::MAX } else { 1u64 << k };
            }
        }
        u64::MAX
    }
}

/// One tracer's per-hook call counters: a cache-line-aligned block
/// with exactly one writer (the owning [`crate::ThreadTracer`]), so a
/// bump is a relaxed load and a relaxed store — no RMW, and no line
/// another emitting thread writes. [`Metrics`] keeps every block it
/// issued, so the counts outlive the tracer.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct HookCounts([AtomicU64; Hook::COUNT]);

impl HookCounts {
    /// Counts `n` calls of `hook`. Single-writer: only the tracer that
    /// owns this block may call it (a second writer would lose counts,
    /// nothing worse — the cells are atomics).
    #[inline]
    pub(crate) fn bump(&self, hook: Hook, n: u64) {
        let cell = &self.0[hook as u8 as usize];
        // SAFETY(ordering): Relaxed load + Relaxed store instead of a
        // fetch_add — this block has one writer, so the load sees that
        // writer's own last store; readers (`Metrics::hook_count`) only
        // sum telemetry and synchronize through whatever made them
        // wait for the writer (a join, a tracer drop), not through this
        // word.
        cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }
}

/// The aggregate metric block owned by a [`crate::Recorder`].
#[derive(Debug)]
pub struct Metrics {
    /// Every per-tracer hook-counter block ever issued (cold: pushed
    /// at tracer creation, walked by [`Metrics::hook_count`]).
    hook_blocks: Mutex<Vec<Arc<HookCounts>>>,
    /// Retire→reclaim latency in trace ticks. The trace clock is
    /// advanced by the ticking protocol events only
    /// ([`Hook::advances_clock`]), so a latency of `n` means `n`
    /// reclaims, epoch advances, … happened on this recorder in
    /// between — not `n` operations, and not `n` retires.
    pub reclaim_latency: Log2Histogram,
    /// Highest retired-but-unreclaimed population ever observed.
    pub footprint_peak: HighWater,
    /// Times thread slot `i` was blamed for blocking reclamation
    /// (stalled-thread attribution; ERA robustness axis). One padded
    /// counter per slot — see [`PaddedCounter`].
    blame: Box<[PaddedCounter]>,
}

impl Metrics {
    /// Metrics sized for `max_threads` blame slots.
    pub fn new(max_threads: usize) -> Metrics {
        Metrics {
            hook_blocks: Mutex::new(Vec::new()),
            reclaim_latency: Log2Histogram::default(),
            footprint_peak: HighWater::default(),
            blame: (0..max_threads.max(1))
                .map(|_| PaddedCounter::default())
                .collect(),
        }
    }

    /// Issues (and keeps) a fresh hook-counter block for one tracer.
    /// Allocates and locks — tracer creation, never the emit path.
    pub(crate) fn hook_block(&self) -> Arc<HookCounts> {
        let block = Arc::new(HookCounts(std::array::from_fn(|_| AtomicU64::new(0))));
        self.lock_hook_blocks().push(Arc::clone(&block));
        block
    }

    /// Calls observed for `hook`, across all threads and schemes: the
    /// sum over every tracer's block, live or dropped. Exact once the
    /// emitting threads are quiescent; a lower bound while they run.
    pub fn hook_count(&self, hook: Hook) -> u64 {
        self.lock_hook_blocks()
            .iter()
            .map(|block| block.0[hook as u8 as usize].load(Ordering::Relaxed))
            .sum()
    }

    fn lock_hook_blocks(&self) -> MutexGuard<'_, Vec<Arc<HookCounts>>> {
        // The crash dump reads hook counts from a panic hook: inherit
        // the (plain-data) list rather than propagate a poison.
        self.hook_blocks
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Blames thread slot `thread` for blocking reclamation once.
    /// Out-of-range slots land on the last counter rather than
    /// panicking on the hot path.
    #[inline]
    pub fn blame(&self, thread: usize) {
        let idx = thread.min(self.blame.len() - 1);
        self.blame[idx].0.add(1);
    }

    /// Blame count per thread slot.
    pub fn blame_counts(&self) -> Vec<u64> {
        self.blame.iter().map(|c| c.0.get()).collect()
    }

    /// The thread slot with the highest blame count, if any blame was
    /// recorded at all.
    pub fn most_blamed(&self) -> Option<(usize, u64)> {
        self.blame
            .iter()
            .map(|c| c.0.get())
            .enumerate()
            .max_by_key(|&(_, c)| c)
            .filter(|&(_, c)| c > 0)
    }

    // ----- watchdog read-side API -------------------------------------
    //
    // The era-kv navigator polls these from a thread that does not own
    // any tracer; everything below is read-only over relaxed atomics,
    // safe to call concurrently with the hot path.

    /// Total blame across all thread slots — a cheap "is anything
    /// blocking reclamation" signal for watchdogs.
    pub fn total_blame(&self) -> u64 {
        self.blame.iter().map(|c| c.0.get()).sum()
    }

    /// p99 retire→reclaim latency upper bound in trace ticks — i.e.
    /// ticking protocol events, see [`Metrics::reclaim_latency`] (0 when
    /// nothing has been reclaimed yet). Coarse (within 2×) but
    /// monotone under load, which is all a degradation classifier
    /// needs.
    pub fn reclaim_p99(&self) -> u64 {
        self.reclaim_latency.snapshot().quantile_upper_bound(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(bucket index, count)` for each non-empty bucket; bucket `k`
    /// holds values below `2^k`.
    fn nonzero(snap: &HistogramSnapshot) -> Vec<(usize, u64)> {
        let counts = snap.counts().iter().copied();
        counts.enumerate().filter(|&(_, c)| c > 0).collect()
    }

    #[test]
    fn log2_bucketing() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(1023), 10);
        assert_eq!(Log2Histogram::bucket_of(1024), 11);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_snapshot_and_quantiles() {
        let h = Log2Histogram::default();
        for v in [0, 1, 1, 3, 7, 7, 7, 100] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.total(), 8);
        assert_eq!(nonzero(&snap), [(0, 1), (1, 2), (2, 1), (3, 3), (7, 1)]);
        assert_eq!(snap.quantile_upper_bound(0.0), 1);
        assert_eq!(snap.quantile_upper_bound(0.5), 4);
        assert_eq!(snap.quantile_upper_bound(1.0), 128);
        assert_eq!(
            HistogramSnapshot {
                counts: [0; HISTOGRAM_BUCKETS]
            }
            .quantile_upper_bound(0.5),
            0
        );
    }

    #[test]
    fn snapshot_merge_is_bucketwise_sum() {
        let a = Log2Histogram::default();
        let b = Log2Histogram::default();
        for v in [1, 3, 7] {
            a.record(v);
        }
        for v in [3, 100] {
            b.record(v);
        }
        let mut merged = HistogramSnapshot::empty();
        merged.merge(&a.snapshot());
        merged.merge(&b.snapshot());
        assert_eq!(merged.total(), 5);
        assert_eq!(nonzero(&merged), [(1, 1), (2, 2), (3, 1), (7, 1)]);
    }

    #[test]
    fn watchdog_read_side() {
        let m = Metrics::new(3);
        assert_eq!(m.total_blame(), 0);
        assert_eq!(m.reclaim_p99(), 0);
        m.blame(0);
        m.blame(2);
        m.blame(2);
        assert_eq!(m.total_blame(), 3);
        for _ in 0..99 {
            m.reclaim_latency.record(1);
        }
        m.reclaim_latency.record(1000);
        assert_eq!(m.reclaim_p99(), 2);
        m.reclaim_latency.record(1000);
        m.reclaim_latency.record(1000);
        assert!(m.reclaim_p99() > 2);
    }

    #[test]
    fn high_water_and_blame() {
        let m = Metrics::new(4);
        m.footprint_peak.record(10);
        m.footprint_peak.record(3);
        m.footprint_peak.record(10);
        assert_eq!(m.footprint_peak.get(), 10);
        m.footprint_peak.record(11);
        assert_eq!(m.footprint_peak.get(), 11);
        m.blame(1);
        m.blame(1);
        m.blame(9); // clamps to last slot
        assert_eq!(m.blame_counts(), vec![0, 2, 0, 1]);
        assert_eq!(m.most_blamed(), Some((1, 2)));
    }

    #[test]
    fn hook_count_sums_every_block_issued() {
        let m = Metrics::new(1);
        let (a, b) = (m.hook_block(), m.hook_block());
        a.bump(Hook::Retire, 1);
        b.bump(Hook::Retire, 1);
        b.bump(Hook::Load, 1);
        b.bump(Hook::Load, 3);
        drop(a); // the metrics keep the block: counts outlive writers
        assert_eq!(m.hook_count(Hook::Retire), 2);
        assert_eq!(m.hook_count(Hook::Load), 4);
        assert_eq!(m.hook_count(Hook::Reclaim), 0);
    }
}
