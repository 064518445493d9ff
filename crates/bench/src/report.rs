//! Structured JSON-lines run reports.
//!
//! Each [`RunRecord`] captures one benchmark run — identity (structure,
//! scheme, mix, thread count), throughput, the footprint curve sampled
//! by the runner, the retire→reclaim latency histogram, and per-hook
//! call counts — and renders as one line of JSON via the hand-rolled
//! writer in [`era_obs::report`] (the workspace builds offline, with no
//! serialization dependency). A `*.jsonl` file of such lines is the
//! machine-readable counterpart of the plain-text tables.
//!
//! # Record format
//!
//! One JSON object per line, keys always present, in this order:
//!
//! | key | type | meaning |
//! |---|---|---|
//! | `structure` | string | Data structure driven (`michael`, `harris`, `skiplist`; a `vbr-list` run has no `Smr` to attach a recorder to and writes no record). |
//! | `scheme` | string | Reclamation scheme display name, [`SchemeKind::name`](era_smr::SchemeKind::name). |
//! | `mix` | string | Operation mix, e.g. `"90r/5i/5d"`. |
//! | `threads` | int | Worker threads. |
//! | `ops` | int | Total completed operations (all threads). |
//! | `elapsed_s` | float | Wall-clock seconds for the measured phase. |
//! | `mops` | float | Throughput in million ops per second. |
//! | `peak_retired` | int | Highest retired population the *sampler* observed. |
//! | `retired_peak` | int | Scheme-reported retired high-water mark (the §5.1 robustness figure; ≥ `peak_retired`). |
//! | `final_retired` | int | Retired-but-unreclaimed population at run end. |
//! | `total_retired` | int | Total retire calls. |
//! | `total_reclaimed` | int | Total nodes reclaimed. |
//! | `reclaim_latency` | object | Log₂ histogram of retire→reclaim latency in logical ticks — protocol events, not operations. |
//! | `hook_counts` | object | Per-hook event counts. |
//! | `footprint_curve` | array | `[logical_ts, retired_now]` pairs from the sampler. |
//! | `trace_dropped` | int | Trace events lost to ring overwrite (0 = complete). |
//!
//! Records come from [`RunRecord::collect`] (a [`Recorder`] was
//! attached, so timings carry per-op tracing overhead; perf claims are
//! measured by `perf/`, not from these records). Workloads are seeded
//! (the shim-rand `StdRng`), so the op streams are identical across
//! runs and machines; only the timing varies.

use era_obs::report::{histogram_json, hook_counts_json, JsonObject};
use era_obs::{HistogramSnapshot, Hook, Recorder};

use crate::runner::RunStats;
use crate::workload::{mix_label, WorkloadSpec};

/// One benchmark run, ready to serialize.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Data structure driven ("michael", "harris", …).
    pub structure: String,
    /// Reclamation scheme name.
    pub scheme: String,
    /// Operation mix, rendered (e.g. "90r/5i/5d").
    pub mix: String,
    /// Worker threads.
    pub threads: usize,
    /// Aggregate run statistics.
    pub stats: RunStats,
    /// Footprint curve: `(logical_ts, retired_now)` per sampler tick.
    pub curve: Vec<(u64, u64)>,
    /// Retire→reclaim latency in logical-clock ticks.
    pub latency: HistogramSnapshot,
    /// Per-hook call counts, rendered as JSON (only hooks that fired).
    pub hook_counts: String,
    /// Trace events lost to ring overwrite (0 = complete trace).
    pub trace_dropped: u64,
}

impl RunRecord {
    /// Assembles a record from a traced run: drains `recorder` (taking
    /// the footprint curve from its [`Hook::Sample`] events) and
    /// snapshots its metrics. Call once per run, after the runner
    /// returns.
    pub fn collect(
        structure: &str,
        scheme: &str,
        spec: &WorkloadSpec,
        stats: RunStats,
        recorder: &Recorder,
    ) -> RunRecord {
        let log = recorder.drain();
        let curve = log.with_hook(Hook::Sample).map(|e| (e.ts, e.a)).collect();
        RunRecord {
            structure: structure.to_string(),
            scheme: scheme.to_string(),
            mix: mix_label(spec.mix),
            threads: spec.threads,
            stats,
            curve,
            latency: recorder.metrics().reclaim_latency.snapshot(),
            hook_counts: hook_counts_json(recorder.metrics()),
            trace_dropped: log.dropped,
        }
    }

    /// Renders the record as one line of JSON.
    pub fn to_json_line(&self) -> String {
        JsonObject::new()
            .str("structure", &self.structure)
            .str("scheme", &self.scheme)
            .str("mix", &self.mix)
            .u64("threads", self.threads as u64)
            .u64("ops", self.stats.ops as u64)
            .f64("elapsed_s", self.stats.elapsed.as_secs_f64())
            .f64("mops", self.stats.mops())
            .u64("peak_retired", self.stats.peak_retired as u64)
            .u64("retired_peak", self.stats.retired_peak as u64)
            .u64("final_retired", self.stats.final_retired as u64)
            .u64("total_retired", self.stats.total_retired)
            .u64("total_reclaimed", self.stats.total_reclaimed)
            .raw("reclaim_latency", &histogram_json(&self.latency))
            .raw("hook_counts", &self.hook_counts)
            .pairs("footprint_curve", &self.curve)
            .u64("trace_dropped", self.trace_dropped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_michael;
    use era_smr::ebr::Ebr;

    #[test]
    fn traced_run_yields_a_complete_record() {
        let spec = WorkloadSpec::small();
        let rec = Recorder::new(spec.threads + 2);
        let smr = Ebr::new(spec.threads + 2);
        let stats = run_michael(&smr, &spec, Some(&rec));
        let record = RunRecord::collect("michael", "EBR", &spec, stats, &rec);
        assert!(!record.curve.is_empty(), "sampler must emit the curve");
        assert!(
            record.curve.windows(2).all(|w| w[0].0 < w[1].0),
            "curve is in logical-time order"
        );
        // Every timed reclamation corresponds to a real one.
        assert!(record.latency.total() <= stats.total_reclaimed);
        let line = record.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'), "one record = one line");
        for key in [
            "\"structure\":\"michael\"",
            "\"scheme\":\"EBR\"",
            "\"mops\":",
            "\"retired_peak\":",
            "\"reclaim_latency\":{",
            "\"hook_counts\":{",
            "\"footprint_curve\":[[",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
}
