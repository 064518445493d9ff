//! Experiment E13 — the **wire-level** experiment: drive an `era-net`
//! server with an open-loop, zipfian-skewed load and measure what
//! navigator-driven admission control looks like from the client side:
//! tail latency, throughput, and typed `Overloaded`/`DeadlineExceeded`
//! frames instead of silent stalls.
//!
//! The server is always a separate process: start `era-net serve
//! --addr-file FILE` and point `--addr` at the address it wrote —
//! several `net_bench` instances can gang up on one server.
//!
//! Latency is measured from each request's **intended** send time
//! under open-loop pacing (`--rate`), so coordinated omission is
//! charged to the server rather than hidden by a stalling client.
//!
//! Usage:
//!   net_bench --addr HOST:PORT [--connections N] [--duration SECS]
//!             [--pipeline N] [--rate OPS_PER_SEC] [--keys N]
//!             [--mix a|b|c|churn] [--dist uniform|zipf] [--theta F]
//!             [--seed N]
//!
//! It prints one table row (throughput, latency percentiles, the typed
//! refusals it received, the server's dropped trace events) and, from
//! a closing `STATS` request, the server's sheds and final per-shard
//! health. A flag it does not know, or a value out of range, exits 2
//! naming the flag.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use era_bench::table::Table;
use era_bench::{bad_args, parse_arg, DistArgs};
use era_kv::{KeyDist, KvMix, KvOpKind, ShardHealth};
use era_net::proto::{read_frame, write_request, Request, Response};
use era_net::{ErrorCode, StatsReply};
use rand::{rngs::StdRng, RngExt, SeedableRng};

const USAGE: &str = "usage: net_bench --addr HOST:PORT [options] \
                     (start a server with `era-net serve --addr-file FILE` \
                     and pass the address it writes)";

struct Options {
    addr: String,
    connections: usize,
    duration: Duration,
    pipeline: usize,
    rate: u64,
    keys: i64,
    mix: KvMix,
    dist: KeyDist,
    seed: u64,
}

fn parse_options() -> Options {
    let mut opts = Options {
        addr: String::new(),
        connections: 4,
        duration: Duration::from_secs(3),
        pipeline: 16,
        rate: 0,
        keys: 1 << 16,
        mix: KvMix::YCSB_A,
        dist: KeyDist::Uniform,
        seed: 0x0E8A_BE9C,
    };
    let mut dist = DistArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        if dist.take(flag, &mut args) {
            continue;
        }
        match flag {
            "--addr" => opts.addr = parse_arg(flag, args.next()),
            "--connections" => opts.connections = parse_arg::<usize>(flag, args.next()).max(1),
            "--duration" => {
                let secs: f64 = parse_arg(flag, args.next());
                opts.duration = Duration::try_from_secs_f64(secs.max(0.1))
                    .unwrap_or_else(|_| bad_args(&format!("--duration {secs} is out of range")));
            }
            "--pipeline" => opts.pipeline = parse_arg::<usize>(flag, args.next()).max(1),
            "--rate" => opts.rate = parse_arg(flag, args.next()),
            "--keys" => {
                opts.keys = parse_arg(flag, args.next());
                if opts.keys < 1 {
                    bad_args(&format!("--keys {} is not a positive count", opts.keys));
                }
            }
            "--seed" => opts.seed = parse_arg(flag, args.next()),
            "--mix" => {
                opts.mix = match parse_arg::<String>(flag, args.next()).as_str() {
                    "a" => KvMix::YCSB_A,
                    "b" => KvMix::YCSB_B,
                    "c" => KvMix::YCSB_C,
                    "churn" => KvMix::CHURN,
                    other => bad_args(&format!("unknown --mix {other} (use a|b|c|churn)")),
                }
            }
            other => bad_args(&format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if opts.addr.is_empty() {
        bad_args(&format!("--addr is required\n{USAGE}"));
    }
    opts.dist = dist.dist();
    opts
}

/// What one client connection measured.
#[derive(Default)]
struct ConnResult {
    ops: u64,
    overloaded: u64,
    deadline_exceeded: u64,
    latencies_us: Vec<u64>,
}

fn read_response(stream: &mut TcpStream, scratch: &mut Vec<u8>) -> Response {
    let frame = read_frame(stream, scratch)
        .expect("transport error mid-response")
        .expect("server closed mid-response");
    Response::decode(frame).expect("server sent an undecodable frame")
}

/// When the burst after `sent` requests is due, as an offset from the
/// run's start, under a pacing `interval` per request (zero: closed
/// loop, due at once). `None` when that offset is at or past
/// `duration`: a burst due once the run is over is not sent.
fn burst_due(sent: u64, interval: Duration, duration: Duration) -> Option<Duration> {
    let due = interval.mul_f64(sent as f64);
    (due < duration).then_some(due)
}

/// One client connection: open-loop paced, pipelined bursts, latency
/// from intended send times.
fn drive_connection(opts: &Options, conn_id: u64) -> ConnResult {
    let mut stream = TcpStream::connect(&opts.addr).expect("connect to server");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut scratch = Vec::new();
    let mut rng = StdRng::seed_from_u64(opts.seed ^ conn_id.wrapping_mul(0x9E37_79B9));
    let sampler = opts.dist.sampler(opts.keys);
    let mut res = ConnResult::default();
    // Per-connection share of the offered load; 0 = closed loop.
    let interval = if opts.rate > 0 {
        Duration::from_secs_f64(opts.connections as f64 / opts.rate as f64)
    } else {
        Duration::ZERO
    };
    let start = Instant::now();
    let mut burst = Vec::with_capacity(opts.pipeline * 24);
    let mut intended: Vec<Instant> = Vec::with_capacity(opts.pipeline);
    let mut sent_total = 0u64;
    while start.elapsed() < opts.duration {
        burst.clear();
        intended.clear();
        // Pace the burst head; the burst's requests inherit evenly
        // spaced intended timestamps so a late batch charges every
        // request it delayed.
        let Some(due) = burst_due(sent_total, interval, opts.duration) else {
            // Idle out the run instead of ending it early, so the
            // measured elapsed time is the run's.
            std::thread::sleep(opts.duration.saturating_sub(start.elapsed()));
            break;
        };
        std::thread::sleep((start + due).saturating_duration_since(Instant::now()));
        for j in 0..opts.pipeline {
            let key = sampler.sample(&mut rng);
            let req = match opts.mix.kind(rng.random_range(0..100u32)) {
                KvOpKind::Get => Request::Get { key },
                KvOpKind::Put => Request::Put {
                    key,
                    value: sent_total as i64,
                },
                KvOpKind::Remove => Request::Remove { key },
            };
            req.encode(&mut burst);
            intended.push(if opts.rate > 0 {
                start + interval.mul_f64((sent_total + j as u64) as f64)
            } else {
                Instant::now()
            });
        }
        stream.write_all(&burst).expect("send burst");
        stream.flush().expect("flush burst");
        sent_total += opts.pipeline as u64;
        for due in &intended {
            match read_response(&mut stream, &mut scratch) {
                Response::Value(_) | Response::Entries(_) | Response::Pong => {}
                Response::Error(e) => match e.code {
                    ErrorCode::Overloaded => res.overloaded += 1,
                    ErrorCode::DeadlineExceeded => res.deadline_exceeded += 1,
                    ErrorCode::Malformed => panic!("server called us malformed: {e:?}"),
                },
                other => panic!("unexpected response {other:?}"),
            }
            res.ops += 1;
            let lat = Instant::now().saturating_duration_since(*due);
            res.latencies_us.push(lat.as_micros() as u64);
        }
    }
    res
}

/// Runs the measured load against `opts.addr`: every connection's
/// tallies summed, the measured window, and the server's reply to one
/// closing `STATS` request.
fn run_load(opts: &Options) -> (ConnResult, Duration, StatsReply) {
    let addr = opts.addr.as_str();
    // Prefill half the keyspace through one pipelined connection so
    // reads hit real entries.
    {
        let mut stream = TcpStream::connect(addr).expect("connect for prefill");
        stream.set_nodelay(true).expect("nodelay");
        let mut scratch = Vec::new();
        let prefill = opts.keys / 2;
        let mut k = 0i64;
        while k < prefill {
            let mut burst = Vec::new();
            let end = (k + 256).min(prefill);
            for key in k..end {
                Request::Put { key, value: key }.encode(&mut burst);
            }
            stream.write_all(&burst).expect("send prefill");
            for _ in k..end {
                let _ = read_response(&mut stream, &mut scratch);
            }
            k = end;
        }
    }

    let started = Instant::now();
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..opts.connections)
            .map(|c| s.spawn(move || drive_connection(opts, c as u64)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();

    let stats = {
        let mut stream = TcpStream::connect(addr).expect("connect for stats");
        let mut scratch = Vec::new();
        write_request(&mut stream, &Request::Stats).expect("send stats");
        match read_response(&mut stream, &mut scratch) {
            Response::Stats(st) => st,
            other => panic!("STATS answered {other:?}"),
        }
    };

    let mut total = ConnResult::default();
    for mut r in results {
        total.ops += r.ops;
        total.overloaded += r.overloaded;
        total.deadline_exceeded += r.deadline_exceeded;
        total.latencies_us.append(&mut r.latencies_us);
    }
    (total, elapsed, stats)
}

/// Exact nearest-rank percentiles over recorded latencies. Sorts in
/// place; returns `(p50, p99, p999, max)` in the samples' unit.
fn percentiles(samples: &mut [u64]) -> (u64, u64, u64, u64) {
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

fn main() {
    let opts = parse_options();
    println!(
        "== E13: era-net wire level — {} connection(s) × pipeline {}, mix {}, {} keys ({}), {} ==\n",
        opts.connections,
        opts.pipeline,
        opts.mix.name(),
        opts.keys,
        opts.dist.name(),
        if opts.rate > 0 {
            format!("open loop @ {} ops/s", opts.rate)
        } else {
            "closed loop".to_string()
        },
    );
    println!("driving server at {}", opts.addr);
    let (mut run, elapsed, server) = run_load(&opts);
    let (p50, p99, p999, max) = percentiles(&mut run.latencies_us);
    let mut table = Table::new(
        [
            "Mops/s",
            "p50 µs",
            "p99 µs",
            "p99.9 µs",
            "max µs",
            "shed",
            "deadline",
            "dropped",
        ]
        .into_iter()
        .map(String::from),
    );
    table.row(vec![
        format!("{:.3}", run.ops as f64 / 1e6 / elapsed.as_secs_f64()),
        p50.to_string(),
        p99.to_string(),
        p999.to_string(),
        max.to_string(),
        run.overloaded.to_string(),
        run.deadline_exceeded.to_string(),
        server.trace_dropped.to_string(),
    ]);
    println!("{table}");
    let health: Vec<&str> = server
        .health
        .iter()
        .map(|&h| ShardHealth::from_u8(h).name())
        .collect();
    println!(
        "server: {} write(s) shed, shard health [{}]",
        server.sheds,
        health.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The due offsets of the bursts one connection sends, up to `max`.
    fn schedule(
        interval: Duration,
        duration: Duration,
        pipeline: u64,
        max: usize,
    ) -> Vec<Duration> {
        (0..)
            .map_while(|burst| burst_due(burst * pipeline, interval, duration))
            .take(max)
            .collect()
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        assert_eq!(percentiles(&mut []), (0, 0, 0, 0));
        // 1..=1000: nearest-rank p50 = 500, p99 = 990, p99.9 = 999.
        let mut v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentiles(&mut v), (500, 990, 999, 1000));
        assert_eq!(percentiles(&mut [42]), (42, 42, 42, 42));
    }

    #[test]
    fn a_burst_due_at_or_after_the_deadline_is_not_sent() {
        // --duration 1 --rate 2 --connections 1 --pipeline 8: the second
        // burst is due at 8 × 0.5 s, well past the run.
        let s = schedule(Duration::from_millis(500), Duration::from_secs(1), 8, 10);
        assert_eq!(s, [Duration::ZERO]);
        // Due exactly at the deadline: not sent either.
        let s = schedule(Duration::from_millis(125), Duration::from_secs(1), 8, 10);
        assert_eq!(s, [Duration::ZERO]);
    }

    #[test]
    fn closed_loop_and_e13_schedules_are_unchanged() {
        // Closed loop: every burst is due at once, for as long as the
        // run lasts (the caller's elapsed-time check ends it).
        let s = schedule(Duration::ZERO, Duration::from_secs(3), 16, 1000);
        assert_eq!(s, vec![Duration::ZERO; 1000]);
        // E13's shape (4 connections, pipeline 16, 3 s) at 100k ops/s:
        // each burst is due at `interval × sent`, and every burst due
        // inside the run is sent.
        let (interval, duration) = (
            Duration::from_secs_f64(4.0 / 100_000.0),
            Duration::from_secs(3),
        );
        let s = schedule(interval, duration, 16, 10_000);
        assert_eq!(s.len(), 4_688, "ceil(3 s / 640 µs) bursts");
        for (burst, due) in s.iter().enumerate() {
            assert_eq!(*due, interval.mul_f64((burst * 16) as f64));
        }
        assert!(*s.last().unwrap() < duration);
    }
}
