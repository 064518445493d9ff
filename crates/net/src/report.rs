//! JSON-lines run records for `net_bench`.
//!
//! A [`NetRunRecord`] is one load-generator run against one `era-net`
//! server: offered vs. achieved throughput, exact latency percentiles
//! (measured from the *intended* open-loop send time, so coordinated
//! omission is charged to the server, not hidden by the client), the
//! typed-error tallies that admission control produced, and the
//! server's own `trace_dropped` pulled over the wire from a final
//! `STATS` request.

use std::time::Duration;

use era_obs::report::JsonObject;

/// One `net_bench` run, ready to serialize as a JSON line.
#[derive(Debug, Clone)]
pub struct NetRunRecord {
    /// Server address the run targeted.
    pub addr: String,
    /// Client connections (each its own thread).
    pub connections: usize,
    /// Key-distribution name ("uniform"/"zipfian").
    pub dist: String,
    /// Mix name ("ycsb-a", …).
    pub mix: String,
    /// Key range sampled.
    pub key_range: u64,
    /// Frames pipelined per batch.
    pub pipeline: usize,
    /// Offered load in ops/s (0 = closed loop, as fast as possible).
    pub target_rate: u64,
    /// Requests sent.
    pub ops: u64,
    /// Responses carrying `Overloaded`.
    pub overloaded: u64,
    /// Responses carrying `DeadlineExceeded`.
    pub deadline_exceeded: u64,
    /// Wall time of the measured window.
    pub elapsed: Duration,
    /// p50 response latency, µs (from intended send time).
    pub p50_us: u64,
    /// p99 response latency, µs.
    pub p99_us: u64,
    /// p99.9 response latency, µs.
    pub p999_us: u64,
    /// Worst observed latency, µs.
    pub max_us: u64,
    /// Trace events the *server* lost to ring overwrite (shard
    /// recorders + net recorder), from the closing `STATS` frame.
    pub trace_dropped: u64,
    /// Admission sheds the server counted (store + net layer).
    pub server_sheds: u64,
    /// Final per-shard health bytes from the closing `STATS` frame.
    pub health: Vec<u8>,
}

impl NetRunRecord {
    /// Achieved throughput in million operations per second.
    pub fn mops(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.ops as f64 / 1e6 / self.elapsed.as_secs_f64()
    }

    /// Renders the record as one line of JSON.
    pub fn to_json_line(&self) -> String {
        JsonObject::new()
            .str("bench", "net")
            .str("addr", &self.addr)
            .u64("connections", self.connections as u64)
            .str("dist", &self.dist)
            .str("mix", &self.mix)
            .u64("key_range", self.key_range)
            .u64("pipeline", self.pipeline as u64)
            .u64("target_rate", self.target_rate)
            .u64("ops", self.ops)
            .u64("overloaded", self.overloaded)
            .u64("deadline_exceeded", self.deadline_exceeded)
            .f64("elapsed_s", self.elapsed.as_secs_f64())
            .f64("mops", self.mops())
            .u64("p50_us", self.p50_us)
            .u64("p99_us", self.p99_us)
            .u64("p999_us", self.p999_us)
            .u64("max_us", self.max_us)
            .u64("trace_dropped", self.trace_dropped)
            .u64("server_sheds", self.server_sheds)
            .u64_array(
                "health",
                &self.health.iter().map(|&h| h as u64).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// Exact nearest-rank percentiles over recorded latencies. Sorts in
/// place; returns `(p50, p99, p999, max)` in the samples' unit.
pub fn percentiles(samples: &mut [u64]) -> (u64, u64, u64, u64) {
    if samples.is_empty() {
        return (0, 0, 0, 0);
    }
    samples.sort_unstable();
    let rank = |p: f64| {
        let idx = ((p * samples.len() as f64).ceil() as usize).max(1) - 1;
        samples[idx.min(samples.len() - 1)]
    };
    (
        rank(0.50),
        rank(0.99),
        rank(0.999),
        samples[samples.len() - 1],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> NetRunRecord {
        NetRunRecord {
            addr: "127.0.0.1:7000".into(),
            connections: 4,
            dist: "zipfian".into(),
            mix: "ycsb-a".into(),
            key_range: 1 << 16,
            pipeline: 16,
            target_rate: 100_000,
            ops: 123_456,
            overloaded: 7,
            deadline_exceeded: 2,
            elapsed: Duration::from_millis(1500),
            p50_us: 80,
            p99_us: 900,
            p999_us: 4200,
            max_us: 9000,
            trace_dropped: 0,
            server_sheds: 9,
            health: vec![0, 2],
        }
    }

    #[test]
    fn json_line_is_complete_and_single_line() {
        let line = record().to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        for key in [
            "\"bench\":\"net\"",
            "\"dist\":\"zipfian\"",
            "\"mix\":\"ycsb-a\"",
            "\"pipeline\":16",
            "\"p50_us\":80",
            "\"p99_us\":900",
            "\"p999_us\":4200",
            "\"trace_dropped\":0",
            "\"server_sheds\":9",
            "\"health\":[0,2]",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }

    #[test]
    fn mops_and_percentiles() {
        let r = record();
        let mops = r.mops();
        assert!((mops - 123_456.0 / 1e6 / 1.5).abs() < 1e-9);

        let mut empty: Vec<u64> = vec![];
        assert_eq!(percentiles(&mut empty), (0, 0, 0, 0));

        // 1..=1000: nearest-rank p50 = 500, p99 = 990, p99.9 = 999.
        let mut v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentiles(&mut v), (500, 990, 999, 1000));

        let mut one = vec![42];
        assert_eq!(percentiles(&mut one), (42, 42, 42, 42));
    }
}
