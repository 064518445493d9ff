//! Metric names, units, directions and bounds — the contract `BENCHMARK.json`
//! repeats — and the JSON every run prints.

use crate::layers::Traced;
use crate::measure::{Measured, Plan};
use crate::stats::{self, Host};
use crate::workload::Workload;

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change is rejected; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. Every workload reports all six.
pub const END_TO_END: [MetricDef; 6] = [
    // Set-up is repeated inside a run and the median reported; it still gets
    // the largest bound, as seconds of warm-up vary more than steady state.
    gated("setup_s", "s", "lower", 0.25),
    gated("throughput_ops_s", "1/s", "higher", 0.25),
    gated("lat_p50_us", "us", "lower", 0.25),
    gated("cpu_us_per_op", "us", "lower", 0.25),
    // A count that repeats exactly on unchanged code: 1 % of 512 is 5 nodes,
    // so any real rise is a regression.
    gated("retired_peak", "count", "lower", 0.01),
    gated("rss_peak_mb", "MB", "lower", 0.10),
];

/// Single layers, from the traced run. Names start with the layer's crate.
pub const PER_LAYER: [MetricDef; 43] = [
    layer("smr.op_bracket_ns", "ns", "lower"),
    layer("smr.protect_ns", "ns", "lower"),
    layer("smr.retire_ns", "ns", "lower"),
    layer("smr.l0_ns_per_op", "ns", "lower"),
    layer("smr.total_retired", "count", "lower"),
    layer("smr.total_reclaimed", "count", "higher"),
    layer("smr.unreclaimed_at_end", "count", "lower"),
    layer("smr.retired_peak_per_shard_max", "count", "lower"),
    layer("smr.reclaim_lag_p99_ticks", "ticks", "lower"),
    layer("ds.get_ns", "ns", "lower"),
    layer("ds.insert_ns", "ns", "lower"),
    layer("ds.remove_ns", "ns", "lower"),
    layer("ds.self_ns_per_op", "ns", "lower"),
    layer("ds.mean_chain_len", "count", "lower"),
    layer("kv.get_ns", "ns", "lower"),
    layer("kv.put_ns", "ns", "lower"),
    layer("kv.remove_ns", "ns", "lower"),
    layer("kv.put_batch_ns_per_item", "ns", "lower"),
    layer("kv.self_ns_per_op", "ns", "lower"),
    layer("kv.preload_s", "s", "lower"),
    layer("kv.sheds", "count", "lower"),
    layer("kv.transitions", "count", "lower"),
    layer("kv.neutralizations", "count", "lower"),
    layer("net.codec_ns_per_op", "ns", "lower"),
    layer("net.frame_io_ns_per_op", "ns", "lower"),
    layer("net.l3_ns_per_op", "ns", "lower"),
    layer("net.wire_self_ns_per_op", "ns", "lower"),
    layer("net.batched_write_frac", "ratio", "higher"),
    layer("net.frames", "count", "higher"),
    layer("net.shed_writes", "count", "lower"),
    layer("net.queue_shed", "count", "lower"),
    layer("net.malformed", "count", "lower"),
    layer("obs.events_per_op", "count", "lower"),
    layer("obs.emit_ns", "ns", "lower"),
    layer("obs.tax_ns_per_op", "ns", "lower"),
    layer("obs.trace_dropped", "count", "lower"),
    layer("client.blocked_frac", "ratio", "lower"),
    layer("client.ctx_switches_per_kop", "count", "lower"),
    layer("client.window_cv", "ratio", "lower"),
    layer("client.lat_p99_us", "us", "lower"),
    layer("client.lat_p999_us", "us", "lower"),
    layer("client.lat_max_us", "us", "lower"),
    layer("client.trace_overhead_frac", "ratio", "lower"),
];

/// Named values, in table order.
pub type Values = Vec<(&'static str, f64)>;

/// Latency percentiles over the pooled samples of `passes`, in
/// microseconds: `(p50, p99, p99.9, max)`.
fn latencies_us(passes: &[Measured]) -> (f64, f64, f64, f64) {
    let mut sorted: Vec<u32> = passes.iter().flat_map(|m| &m.lat_ns).copied().collect();
    sorted.sort_unstable();
    let us = |p| f64::from(stats::percentile_sorted(&sorted, p)) / 1e3;
    (us(50.0), us(99.0), us(99.9), us(100.0))
}

/// Window throughputs of every pass, pooled.
fn pooled_windows(passes: &[Measured]) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|m| &m.window_ops_s)
        .copied()
        .collect()
}

/// The end-to-end metrics of a run: `setup_s` is the median over its
/// set-ups, everything else pools the windows measured after each.
pub fn end_to_end(passes: &[Measured]) -> Values {
    let setups: Vec<f64> = passes.iter().map(|m| m.setup_s).collect();
    let cpu_s: f64 = passes.iter().map(|m| m.cpu_s).sum();
    let measured_ops: u64 = passes.iter().map(|m| m.measured_ops).sum();
    let retired_peak = passes.iter().map(|m| m.smr.retired_peak).max();
    vec![
        ("setup_s", stats::median(&setups)),
        ("throughput_ops_s", stats::median(&pooled_windows(passes))),
        ("lat_p50_us", latencies_us(passes).0),
        ("cpu_us_per_op", cpu_s * 1e6 / measured_ops as f64),
        (
            "retired_peak",
            retired_peak.expect("a run has a set-up") as f64,
        ),
        // The process peak after the *first* set-up and its windows: later
        // set-ups reuse freed heap in ways that differ from run to run.
        ("rss_peak_mb", passes[0].rss_peak_mb),
    ]
}

/// The per-layer metrics of a traced run. Metrics of a layer the workload
/// never enters (era-net on `kv-*`, PUTs on a read-only stream) read 0.
pub fn per_layer(t: &Traced) -> Values {
    let m = &t.measured;
    let ns = |i: usize| t.ns_per_op[i].unwrap_or(0.0);
    let (l3, l2, l1, l0) = (ns(0), ns(1), ns(2), ns(3));
    let top = if t.ns_per_op[0].is_some() { l3 } else { l2 };
    let serve = m.serve.unwrap_or_default();
    let (_, p99, p999, max) = latencies_us(std::slice::from_ref(m));
    let events_per_op = m.trace_events as f64 / m.store_ops as f64;
    let (transitions, neutralizations, sheds) = m.nav;
    let on_net = |v: f64| if t.ns_per_op[0].is_some() { v } else { 0.0 };
    vec![
        ("smr.op_bracket_ns", t.smr.op_bracket_ns),
        ("smr.protect_ns", t.smr.protect_ns),
        ("smr.retire_ns", t.smr.retire_ns),
        ("smr.l0_ns_per_op", l0),
        ("smr.total_retired", m.smr.total_retired as f64),
        ("smr.total_reclaimed", m.smr.total_reclaimed as f64),
        ("smr.unreclaimed_at_end", m.smr.retired_now as f64),
        ("smr.retired_peak_per_shard_max", m.shard_peak_max as f64),
        ("smr.reclaim_lag_p99_ticks", m.reclaim_p99_ticks as f64),
        ("ds.get_ns", t.ds_kinds.get),
        ("ds.insert_ns", t.ds_kinds.put),
        ("ds.remove_ns", t.ds_kinds.remove),
        ("ds.self_ns_per_op", l1 - l0),
        ("ds.mean_chain_len", t.mean_chain_len),
        ("kv.get_ns", t.kv_kinds.get),
        ("kv.put_ns", t.kv_kinds.put),
        ("kv.remove_ns", t.kv_kinds.remove),
        ("kv.put_batch_ns_per_item", t.kv_kinds.batched_put),
        ("kv.self_ns_per_op", l2 - l1),
        ("kv.preload_s", m.preload_s),
        ("kv.sheds", sheds as f64),
        ("kv.transitions", transitions as f64),
        ("kv.neutralizations", neutralizations as f64),
        ("net.codec_ns_per_op", t.codec_ns_per_op),
        ("net.frame_io_ns_per_op", t.frame_io_ns_per_op),
        ("net.l3_ns_per_op", l3),
        (
            "net.wire_self_ns_per_op",
            on_net(l3 - l2 - t.codec_ns_per_op - t.frame_io_ns_per_op),
        ),
        (
            "net.batched_write_frac",
            if m.put_frames == 0 {
                0.0
            } else {
                serve.batched_writes as f64 / m.put_frames as f64
            },
        ),
        ("net.frames", serve.frames as f64),
        ("net.shed_writes", serve.shed_writes as f64),
        ("net.queue_shed", serve.queue_shed as f64),
        ("net.malformed", serve.malformed as f64),
        ("obs.events_per_op", events_per_op),
        ("obs.emit_ns", t.emit_ns),
        ("obs.tax_ns_per_op", events_per_op * t.emit_ns),
        ("obs.trace_dropped", m.trace_dropped as f64),
        (
            "client.blocked_frac",
            (1.0 - m.client_cpu_s / m.wall_s).max(0.0),
        ),
        (
            "client.ctx_switches_per_kop",
            m.ctx_switches as f64 * 1e3 / m.measured_ops as f64,
        ),
        ("client.window_cv", stats::cv(&m.window_ops_s)),
        ("client.lat_p99_us", p99),
        ("client.lat_p999_us", p999),
        ("client.lat_max_us", max),
        (
            "client.trace_overhead_frac",
            1.0 - t.untraced_top_ns_per_op / top,
        ),
    ]
}

fn def_of(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is in no table"))
}

fn metrics_json(values: &Values) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|&(name, value)| {
            assert!(value.is_finite(), "metric {name} is {value}");
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def_of(name).unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The line the benchmark contract asks for: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, values: &Values) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(values)
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What a run was: enough to tell whether two records are comparable.
#[derive(Debug, Clone, Copy)]
pub struct RunInfo<'a> {
    /// `run` or `trace`.
    pub mode: &'a str,
    /// The workload.
    pub workload: &'a Workload,
    /// The stream seed.
    pub seed: u64,
    /// The time budget asked for.
    pub seconds: f64,
    /// Whether this was a `--smoke` run (never a baseline).
    pub smoke: bool,
    /// The plan the run followed.
    pub plan: &'a Plan,
}

/// The run record envelope: every metric by name and unit, plus seed, op
/// and sample counts, and the host fingerprint. Two ledgers are comparable
/// only when their fingerprints match. This issue claims no gain.
pub fn envelope(
    info: &RunInfo<'_>,
    passes: &[Measured],
    attempted: u64,
    failed: u64,
    values: &Values,
    host: &Host,
) -> String {
    let windows = pooled_windows(passes);
    format!(
        concat!(
            "{{\"record\": \"era-perf/1\", \"mode\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"smoke\": {}, ",
            "\"ops\": {{\"attempted\": {}, \"failed\": {}, \"measured\": {}, \"window_ops\": {}, \"windows\": {}, \"warm_windows\": {}, \"setups\": {}}}, ",
            "\"samples\": {{\"latency\": {}}}, \"window_ops_s\": [{}], ",
            "\"host\": {{\"git_commit\": {}, \"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}}}, ",
            "\"claim\": null, \"metrics\": {}}}"
        ),
        json_string(info.mode),
        json_string(info.workload.name),
        info.seed,
        info.seconds,
        info.smoke,
        attempted,
        failed,
        passes.iter().map(|m| m.measured_ops).sum::<u64>(),
        info.plan.window_ops,
        windows.len(),
        info.plan.warm_windows,
        passes.len(),
        passes.iter().map(|m| m.lat_ns.len()).sum::<usize>(),
        windows
            .iter()
            .map(|w| format!("{w:.0}"))
            .collect::<Vec<_>>()
            .join(", "),
        json_string(&host.git_commit),
        host.nproc,
        json_string(&host.cpu_model),
        json_string(&host.kernel),
        metrics_json(values),
    )
}

/// Reads `"name": {"value": <number>` back out of a result line.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        for w in &WORKLOADS {
            names.push(w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars().all(ok)
                    && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                d.unit.len() <= 16 && matches!(d.better, "lower" | "higher"),
                "{}",
                d.name
            );
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        let largest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            def_of("setup_s").bound,
            Some(largest),
            "setup_s gets the largest bound"
        );
    }

    #[test]
    fn every_table_metric_is_reported_in_table_order() {
        let measured = || Measured {
            window_ops_s: vec![1.0, 2.0],
            lat_ns: vec![1, 2, 3],
            measured_ops: 1,
            store_ops: 1,
            wall_s: 1.0,
            rss_peak_mb: 1.0,
            ..Measured::default()
        };
        let names = |v: Values| v.into_iter().map(|(n, _)| n).collect::<Vec<_>>();
        let table = |t: &[MetricDef]| t.iter().map(|d| d.name).collect::<Vec<_>>();
        assert_eq!(
            names(end_to_end(&[measured(), measured()])),
            table(&END_TO_END)
        );
        let traced = Traced {
            measured: measured(),
            ns_per_op: [None, Some(3.0), Some(2.0), Some(1.0)],
            untraced_top_ns_per_op: 3.0,
            kv_kinds: Default::default(),
            ds_kinds: Default::default(),
            smr: Default::default(),
            smr_calls_per_op: (1.0, 0.0, 0.0),
            mean_chain_len: 8.0,
            codec_ns_per_op: 0.0,
            frame_io_ns_per_op: 0.0,
            emit_ns: 1.0,
            attempted: 1,
            failed: 0,
            log: crate::layers::SpanLog::new(),
        };
        let values = per_layer(&traced);
        assert!(values.iter().all(|(_, v)| v.is_finite()));
        assert_eq!(names(values), table(&PER_LAYER));
    }

    #[test]
    fn benchmark_json_repeats_these_tables() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        for d in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better,
                d.bound.unwrap()
            );
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for d in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            );
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in &WORKLOADS {
            let entry = format!(
                "{{\"name\": \"{}\", \"why\": {}}}",
                w.name,
                json_string(w.why)
            );
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            manifest.matches("\"name\"").count(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }

    #[test]
    fn result_line_round_trips_through_the_reader() {
        let values: Values = vec![
            ("setup_s", 1.25),
            ("retired_peak", 512.0),
            ("lat_p50_us", 0.000_012_5),
        ];
        let line = result_line(10, 0, &values);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert_eq!(metric_value(&line, "setup_s"), Some(1.25));
        assert_eq!(metric_value(&line, "retired_peak"), Some(512.0));
        assert_eq!(metric_value(&line, "lat_p50_us"), Some(0.000_012_5));
        assert_eq!(metric_value(&line, "cpu_us_per_op"), None);
        assert!(result_line(10, 3, &values).starts_with("{\"correct\": false"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c d\"");
    }
}
