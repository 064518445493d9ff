//! What a measured run is made of: the plan (how much work), the usage
//! probe (CPU, context switches) and the result every entry point fills in.

use std::time::Instant;

use era_kv::KvStore;
use era_net::ServeStats;
use era_obs::Hook;
use era_smr::{Smr, SmrStats};

use crate::stats;
use crate::workload::{Model, Workload};

/// How much work a run does. Work is fixed by count, never by time: the
/// time budget only picks how many whole windows are measured.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Ops per window, summed over a workload's clients.
    pub window_ops: usize,
    /// Windows run (and thrown away) before the first measured one.
    pub warm_windows: usize,
    /// Fewest and most windows measured after one set-up, whatever the
    /// budget.
    pub windows: (usize, usize),
    /// Complete set-ups per run, each followed by its share of the measured
    /// windows: `setup_s` is their median, and every other metric pools
    /// windows from stores (and threads, and heaps) built independently.
    pub setups: usize,
    /// Ops the traced replay pushes through each layer.
    pub replay_ops: usize,
}

impl Plan {
    /// The plan every reported number comes from.
    pub const FULL: Plan = Plan {
        window_ops: 1 << 21,
        warm_windows: 3,
        windows: (2, 12),
        setups: 3,
        replay_ops: 1 << 21,
    };
    /// `--smoke`: seconds in total, for CI wiring; never a baseline.
    pub const SMOKE: Plan = Plan {
        window_ops: 1 << 17,
        warm_windows: 1,
        windows: (2, 2),
        setups: 1,
        replay_ops: 1 << 17,
    };

    /// Whole windows that fit `budget_s`, given what the last warm-up
    /// window took.
    pub fn windows_for(&self, budget_s: f64, window_s: f64) -> usize {
        ((budget_s / window_s).round() as usize).clamp(self.windows.0, self.windows.1)
    }

    /// Most latency samples one set-up's windows yield: one per burst on the
    /// net path, every 64th op on the kv path — the same count. Buffers are
    /// sized for this whatever the budget, so that peak RSS does not depend
    /// on how many windows happened to fit.
    pub fn max_samples(&self) -> usize {
        self.windows.1 * self.window_ops / crate::workload::BURST
    }
}

/// Process-wide usage counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    at: Instant,
    cpu_s: f64,
    ctx_switches: u64,
}

impl Usage {
    /// Reads the counters now.
    pub fn now() -> Usage {
        Usage {
            at: Instant::now(),
            cpu_s: stats::process_cpu_s(),
            ctx_switches: stats::voluntary_ctx_switches(),
        }
    }
}

/// Everything one set-up + measurement yields. Timings are raw; the
/// record module turns them into named metrics.
#[derive(Debug, Default)]
pub struct Measured {
    /// Start of the run to the first measured window.
    pub setup_s: f64,
    /// Of which: inserting the preloaded keys.
    pub preload_s: f64,
    /// Throughput of each measured window, ops/s.
    pub window_ops_s: Vec<f64>,
    /// Latency samples in nanoseconds, unsorted.
    pub lat_ns: Vec<u32>,
    /// Ops whose reply was checked (warm-up included).
    pub attempted: u64,
    /// Ops refused, errored or answered wrongly, plus end-state mismatches.
    pub failed: u64,
    /// Ops inside the measured windows.
    pub measured_ops: u64,
    /// Process CPU seconds (user + system) over the measured windows.
    pub cpu_s: f64,
    /// Wall seconds over the measured windows.
    pub wall_s: f64,
    /// Voluntary context switches of all tasks over the measured windows.
    pub ctx_switches: u64,
    /// CPU seconds the (first) client thread used over the measured windows.
    pub client_cpu_s: f64,
    /// Peak resident set size of the process (`VmHWM`) when this pass ended.
    pub rss_peak_mb: f64,
    /// Store-wide footprint counters at the end of the run.
    pub smr: SmrStats,
    /// Largest per-shard `retired_peak`.
    pub shard_peak_max: usize,
    /// Largest per-shard p99 retire→reclaim lag, in trace ticks.
    pub reclaim_p99_ticks: u64,
    /// Navigator `(transitions, neutralizations, sheds)`.
    pub nav: (u64, u64, u64),
    /// Trace events emitted into the shard recorders, all hooks.
    pub trace_events: u64,
    /// Trace events lost to ring overwrites.
    pub trace_dropped: u64,
    /// Ops executed against the store since it was built (preload included):
    /// the denominator of `trace_events`.
    pub store_ops: u64,
    /// The server's own counters (net workloads).
    pub serve: Option<ServeStats>,
    /// PUT frames sent (net workloads).
    pub put_frames: u64,
}

impl Measured {
    /// Files the usage between two probes.
    pub fn set_usage(&mut self, before: Usage, after: Usage) {
        self.cpu_s = after.cpu_s - before.cpu_s;
        self.wall_s = after.at.duration_since(before.at).as_secs_f64();
        self.ctx_switches = after.ctx_switches.saturating_sub(before.ctx_switches);
    }

    /// Reads the store's counters and checks its end state against `model`:
    /// `len`, a full `scan`, and `total_retired` (one per successful remove)
    /// must all be what the model says. Quiescent use only.
    pub fn finish_store<S: Smr>(&mut self, w: &Workload, store: &KvStore<'_, S>, model: &Model) {
        let expected = model.entries();
        let scan_ok = store.len() == expected.len() && store.scan(0, w.key_range) == expected;
        self.smr = store.stats();
        self.failed += u64::from(!scan_ok) + u64::from(self.smr.total_retired != model.removed);
        self.shard_peak_max = store
            .shard_stats()
            .iter()
            .map(|s| s.retired_peak)
            .max()
            .unwrap_or(0);
        self.nav = store.nav_counters();
        self.rss_peak_mb = stats::rss_peak_mb();
        for shard in 0..store.shard_count() {
            let recorder = store.recorder(shard);
            self.reclaim_p99_ticks = self.reclaim_p99_ticks.max(recorder.metrics().reclaim_p99());
            self.trace_events += Hook::ALL
                .iter()
                .map(|&h| recorder.metrics().hook_count(h))
                .sum::<u64>();
            self.trace_dropped += recorder.dropped();
        }
    }
}

/// Inserts the workload's preloaded keys through a short-lived context,
/// removes and re-inserts [`PRELOAD_CHURN`] of them, and flushes; returns
/// the seconds it took. The churn stays below every scheme's reclaim
/// threshold and the flush frees it all, so each workload — the read-only
/// ones too — starts with nothing retired and a `retired_peak` that is
/// non-zero and repeats exactly (a metric that reads 0 has no bound).
pub fn preload<S: Smr>(w: &Workload, store: &KvStore<'_, S>) -> f64 {
    let start = Instant::now();
    let mut ctx = store
        .register()
        .expect("scheme capacity covers the preload context");
    for (k, v) in w.preload_entries() {
        assert_eq!(store.put(&mut ctx, k, v), Ok(None), "preload of key {k}");
    }
    for (k, v) in w.preload_churn() {
        assert_eq!(
            store.remove(&mut ctx, k),
            Ok(Some(v)),
            "preload churn of key {k}"
        );
        assert_eq!(
            store.put(&mut ctx, k, v),
            Ok(None),
            "preload churn of key {k}"
        );
    }
    store.flush(&mut ctx);
    start.elapsed().as_secs_f64()
}

/// A latency buffer for `samples` pushes whose pages are already resident,
/// so neither page faults nor growth land inside a measured window.
pub fn resident_samples(samples: usize) -> Vec<u32> {
    let mut v = vec![1u32; samples];
    v.clear();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_picks_whole_windows_within_limits() {
        let p = Plan::FULL;
        assert_eq!(p.windows_for(6.0, 0.5), 12);
        assert_eq!(p.windows_for(6.0, 0.9), 7);
        assert_eq!(p.windows_for(6.0, 5.0), 2, "never fewer than the floor");
        assert_eq!(p.windows_for(60.0, 0.5), 12, "never more than the cap");
        assert_eq!(Plan::SMOKE.windows_for(10.0, 0.01), 2);
    }
}
