//! Order statistics, `/proc` readers and the host fingerprint.

use std::fs;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// element with at least `p` percent of the samples at or below it.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) does — the
/// benchmark driver measures spread with it.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Coefficient of variation: population standard deviation over the mean.
pub fn cv(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Clock ticks per second of `/proc/*/stat` times (`USER_HZ`, 100 on every
/// Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from the text of a `/proc/<pid>/stat` file.
/// The command name (field 2) may itself hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// A `key:\t<number> [kB]` line of a `/proc/<pid>/status` file.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

fn read_proc(path: &str) -> String {
    fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (the benchmark needs Linux /proc)"))
}

/// CPU seconds (user + system) the whole process has used.
pub fn process_cpu_s() -> f64 {
    parse_stat_cpu_s(&read_proc("/proc/self/stat")).expect("utime/stime in /proc/self/stat")
}

/// CPU seconds (user + system) the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    parse_stat_cpu_s(&read_proc("/proc/thread-self/stat"))
        .expect("utime/stime in /proc/thread-self/stat")
}

/// Peak resident set size of the process in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    parse_status_field(&read_proc("/proc/self/status"), "VmHWM")
        .expect("VmHWM in /proc/self/status") as f64
        / 1024.0
}

/// Voluntary context switches of every task of the process so far (tasks
/// that already exited are not counted).
pub fn voluntary_ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| parse_status_field(&s, "voluntary_ctxt_switches"))
        .sum()
}

/// What two ledgers must share before their numbers may be compared.
#[derive(Debug, Clone)]
pub struct Host {
    /// Commit of the checkout (`unknown` outside a git repository).
    pub git_commit: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `model name` of the first CPU.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
}

impl Host {
    /// Reads the fingerprint of the machine and checkout the process runs in.
    pub fn read() -> Host {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines().find_map(|l| {
                    l.strip_prefix("model name")?
                        .split_once(':')
                        .map(|(_, v)| v.trim().to_string())
                })
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Host {
            git_commit: git_head().unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            kernel,
        }
    }
}

/// The commit `HEAD` names, read from `.git` directly (no subprocess).
fn git_head() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)
            .map(|hash| hash.trim().to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 99.9), 100);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[7u32], 50.0), 7);
        // Nearest rank never interpolates: 5 samples, p50 is the 3rd.
        assert_eq!(percentile_sorted(&[1u32, 2, 30, 40, 50], 50.0), 30);
        assert_eq!(percentile_sorted(&[1u32, 2, 30, 40], 50.0), 2);
    }

    #[test]
    fn window_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow window out of five does not move the metric.
        assert_eq!(median(&[10.0, 10.0, 10.0, 10.0, 1.0]), 10.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }

    #[test]
    fn cv_of_constant_is_zero() {
        assert_eq!(cv(&[5.0, 5.0, 5.0]), 0.0);
        assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stat_parser_survives_hostile_comm() {
        let stat = "4242 (perf) x) y) S 1 4242 4242 0 -1 4194304 100 0 0 0 1234 66 0 0 20 0 3 0 100 1000 200";
        assert_eq!(parse_stat_cpu_s(stat), Some(13.0));
        assert_eq!(parse_stat_cpu_s("garbage"), None);
        assert_eq!(parse_stat_cpu_s("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_parser_reads_fields() {
        let status = "Name:\tperf\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\nvoluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20_480));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(17)
        );
        assert_eq!(parse_status_field(status, "VmPeak"), None);
    }

    #[test]
    fn live_proc_readers_work_here() {
        assert!(process_cpu_s() >= 0.0);
        assert!(thread_cpu_s() >= 0.0);
        assert!(rss_peak_mb() > 0.0);
        assert!(Host::read().nproc >= 1);
    }
}
