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
//! | `label` | string | Free-form run tag (`""` when untagged). The checked-in `BENCH_smr_baseline.json` uses `"before"`/`"after"` to pair the two sides of a perf comparison. |
//! | `structure` | string | Data structure driven (`michael`, `harris`, `skiplist`, `vbr-list`). |
//! | `scheme` | string | Reclamation scheme name as reported by [`Smr::name`](era_smr::common::Smr::name). |
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
//! | `reclaim_latency` | object | Log₂ histogram of retire→reclaim latency in logical ticks — protocol events, not operations (empty for untraced runs). |
//! | `hook_counts` | object | Per-hook event counts (empty `{}` for untraced runs). |
//! | `footprint_curve` | array | `[logical_ts, retired_now]` pairs from the sampler (empty for untraced runs). |
//! | `trace_dropped` | int | Trace events lost to ring overwrite (0 = complete or untraced). |
//!
//! Traced records come from [`RunRecord::collect`] (a [`Recorder`] was
//! attached — richer but with per-op tracing overhead); untraced records
//! come from [`RunRecord::from_stats`] (throughput + scheme counters
//! only — what `throughput --json-out` writes, and what perf
//! comparisons should be based on). Workloads are seeded (the shim-rand
//! `StdRng`), so the op streams are identical across runs and machines;
//! only the timing varies.

use std::io::Write;
use std::path::Path;

use era_obs::report::{histogram_json, hook_counts_json, JsonObject};
use era_obs::{HistogramSnapshot, Hook, Recorder};

use crate::runner::RunStats;
use crate::workload::WorkloadSpec;

/// One benchmark run, ready to serialize.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Free-form run tag (e.g. "before"/"after"); empty when untagged.
    pub label: String,
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
            label: String::new(),
            structure: structure.to_string(),
            scheme: scheme.to_string(),
            mix: spec.mix.to_string(),
            threads: spec.threads,
            stats,
            curve,
            latency: recorder.metrics().reclaim_latency.snapshot(),
            hook_counts: hook_counts_json(recorder.metrics()),
            trace_dropped: log.dropped,
        }
    }

    /// Assembles a record from an *untraced* run: throughput and the
    /// scheme's own counters only — no footprint curve, latency
    /// histogram, or hook counts. This is the record shape perf
    /// comparisons use (no tracing overhead perturbing the timings).
    pub fn from_stats(structure: &str, scheme: &str, spec: &WorkloadSpec, stats: RunStats) -> Self {
        RunRecord {
            label: String::new(),
            structure: structure.to_string(),
            scheme: scheme.to_string(),
            mix: spec.mix.to_string(),
            threads: spec.threads,
            stats,
            curve: Vec::new(),
            latency: HistogramSnapshot::empty(),
            hook_counts: "{}".to_string(),
            trace_dropped: 0,
        }
    }

    /// Sets the free-form run tag (builder style).
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// Renders the record as one line of JSON.
    pub fn to_json_line(&self) -> String {
        JsonObject::new()
            .str("label", &self.label)
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

/// Writes `records` as a JSON-lines file (one record per line).
///
/// # Errors
///
/// Propagates I/O errors from creating or writing `path`.
pub fn write_jsonl(path: &Path, records: &[RunRecord]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    for r in records {
        writeln!(file, "{}", r.to_json_line())?;
    }
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_michael_traced;
    use era_smr::ebr::Ebr;

    #[test]
    fn traced_run_yields_a_complete_record() {
        let spec = WorkloadSpec::small();
        let rec = Recorder::new(spec.threads + 2);
        let smr = Ebr::new(spec.threads + 2);
        let stats = run_michael_traced(&smr, &spec, &rec);
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

    #[test]
    fn untraced_record_is_stats_only() {
        let spec = WorkloadSpec::small();
        let smr = Ebr::new(spec.threads + 2);
        let stats = crate::runner::run_michael(&smr, &spec);
        let record = RunRecord::from_stats("michael", "EBR", &spec, stats).with_label("before");
        assert!(record.curve.is_empty());
        assert_eq!(record.latency.total(), 0);
        let line = record.to_json_line();
        assert!(line.contains("\"label\":\"before\""));
        assert!(line.contains("\"hook_counts\":{}"));
        assert!(line.contains("\"footprint_curve\":[]"));
        assert!(line.contains("\"trace_dropped\":0"));
    }

    #[test]
    fn jsonl_file_roundtrip() {
        let spec = WorkloadSpec::small();
        let rec = Recorder::new(spec.threads + 2);
        let smr = Ebr::new(spec.threads + 2);
        let stats = run_michael_traced(&smr, &spec, &rec);
        let record = RunRecord::collect("michael", "EBR", &spec, stats, &rec);
        let dir = std::env::temp_dir().join("era-bench-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.jsonl");
        write_jsonl(&path, &[record.clone(), record]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        std::fs::remove_file(&path).unwrap();
    }
}
