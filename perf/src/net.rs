//! The `net-*` workloads: one client connection keeping 256 requests
//! outstanding against an in-process `NetServer` over loopback TCP (L3).
//!
//! Deep pipelining is the point: with one request in flight both threads
//! sleep between requests and the number measured is the hypervisor's
//! cross-vCPU wake-up, not the program (see README, "No depth-1 workload").

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use era_kv::KvStore;
use era_net::{read_frame, NetConfig, NetServer, Request, Response, ServeStats};
use era_smr::Smr;

use crate::measure::{preload, resident_samples, Measured, Plan, Usage};
use crate::stats;
use crate::workload::{put_value, Model, Op, OpKind, Workload, BURST, DEPTH, SHARDS};

/// A client stuck this long has lost its server: fail the run, never hang.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// The wire request for the op at stream position `pos`.
pub fn request_of(op: Op, pos: usize) -> Request {
    let key = op.key();
    match op.kind() {
        OpKind::Get => Request::Get { key },
        OpKind::Put => Request::Put {
            key,
            value: put_value(key, pos),
        },
        OpKind::Remove => Request::Remove { key },
    }
}

/// A whole stream encoded before timing, addressable by burst.
pub struct Frames {
    /// Every frame back to back, length prefixes included.
    pub bytes: Vec<u8>,
    /// Burst `b` is `bytes[starts[b]..starts[b + 1]]`.
    starts: Vec<usize>,
}

impl Frames {
    /// Encodes `stream` (a whole number of bursts).
    pub fn encode(stream: &[Op]) -> Frames {
        let mut bytes = Vec::with_capacity(stream.len() * 16);
        let mut starts = Vec::with_capacity(stream.len() / BURST + 1);
        for (pos, &op) in stream.iter().enumerate() {
            if pos % BURST == 0 {
                starts.push(bytes.len());
            }
            request_of(op, pos).encode(&mut bytes);
        }
        starts.push(bytes.len());
        Frames { bytes, starts }
    }

    /// Number of bursts.
    pub fn bursts(&self) -> usize {
        self.starts.len() - 1
    }

    fn burst(&self, b: usize) -> &[u8] {
        &self.bytes[self.starts[b]..self.starts[b + 1]]
    }
}

/// One pipelined client connection. A single connection is answered in
/// order, so every reply has exactly one right value: the model's.
pub struct Pipe<'a> {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    frames: &'a Frames,
    stream: &'a [Op],
    scratch: Vec<u8>,
    sent: usize,
    received: usize,
    sent_at: [Instant; DEPTH],
    /// The store as the replies so far say it must be.
    pub model: Model,
    /// Replies that were errors, undecodable, or not the model's value.
    pub failed: u64,
    /// PUT frames whose reply has been read.
    pub put_frames: u64,
}

impl<'a> Pipe<'a> {
    /// Connects to `addr`; `model` is the store's state before the first op.
    pub fn connect(
        addr: SocketAddr,
        frames: &'a Frames,
        stream: &'a [Op],
        model: Model,
    ) -> io::Result<Pipe<'a>> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        writer.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        Ok(Pipe {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            frames,
            stream,
            scratch: Vec::new(),
            sent: 0,
            received: 0,
            sent_at: [Instant::now(); DEPTH],
            model,
            failed: 0,
            put_frames: 0,
        })
    }

    /// Bursts written whose replies are still unread.
    pub fn outstanding(&self) -> usize {
        self.sent - self.received
    }

    /// Makes burst `burst` of the (cyclic) stream the next one sent. Only
    /// with nothing outstanding: replies are matched to ops by position.
    pub fn seek_burst(&mut self, burst: usize) {
        assert_eq!(self.outstanding(), 0, "seek with replies outstanding");
        self.sent = burst % self.frames.bursts();
        self.received = self.sent;
    }

    /// Writes the next burst of the (cyclic) stream in one `write_all`.
    pub fn send_burst(&mut self) -> io::Result<()> {
        assert!(
            self.outstanding() < DEPTH,
            "pipeline deeper than its send-time ring"
        );
        self.sent_at[self.sent % DEPTH] = Instant::now();
        self.writer
            .write_all(self.frames.burst(self.sent % self.frames.bursts()))?;
        self.sent += 1;
        Ok(())
    }

    /// Reads and checks the 64 replies of the oldest outstanding burst;
    /// returns the burst's latency, its write to its last reply read.
    pub fn recv_burst(&mut self) -> io::Result<Duration> {
        let base = self.received % self.frames.bursts() * BURST;
        for pos in base..base + BURST {
            let frame = read_frame(&mut self.reader, &mut self.scratch)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
            })?;
            let op = self.stream[pos];
            let expected = self.model.step(op, pos);
            let ok = matches!(Response::decode(frame), Ok(Response::Value(v)) if v == expected);
            self.failed += u64::from(!ok);
            self.put_frames += u64::from(op.kind() == OpKind::Put);
        }
        let latency = self.sent_at[self.received % DEPTH].elapsed();
        self.received += 1;
        Ok(latency)
    }
}

/// Serves `store` on an ephemeral loopback port with one worker (other
/// `NetConfig` defaults) while `client` runs; then shuts the server down and
/// returns the client's result with the server's counters.
pub fn serve<S: Smr, R>(
    store: &KvStore<'_, S>,
    client: impl FnOnce(SocketAddr) -> io::Result<R>,
) -> io::Result<(R, ServeStats)> {
    let cfg = NetConfig {
        workers: 1,
        ..NetConfig::default()
    };
    let server = NetServer::bind(store, cfg, "127.0.0.1:0")?;
    let handle = server.handle();
    std::thread::scope(|s| {
        let running = s.spawn(|| server.run());
        let result = client(server.local_addr());
        handle.shutdown();
        let stats = running.join().expect("server thread panicked")?;
        Ok((result?, stats))
    })
}

/// One set-up of a `net-*` workload and the windows that fit `budget_s`.
pub fn run<S: Smr>(
    w: &Workload,
    seed: u64,
    plan: &Plan,
    budget_s: f64,
    make: &impl Fn() -> S,
) -> io::Result<Measured> {
    let t0 = Instant::now();
    let stream = w.stream(seed, 0);
    let frames = Frames::encode(&stream);
    let schemes: Vec<S> = (0..SHARDS).map(|_| make()).collect();
    let store = KvStore::new(&schemes, w.kv_config());
    let mut out = Measured {
        preload_s: preload(w, &store),
        ..Measured::default()
    };
    let bursts_per_window = plan.window_ops / BURST;

    let (model, serve_stats) = serve(&store, |addr| {
        let mut pipe = Pipe::connect(addr, &frames, &stream, w.preload_model())?;
        for _ in 0..DEPTH {
            pipe.send_burst()?;
        }
        let mut window_s = 0.0;
        for _ in 0..plan.warm_windows {
            let start = Instant::now();
            for _ in 0..bursts_per_window {
                pipe.recv_burst()?;
                pipe.send_burst()?;
            }
            window_s = start.elapsed().as_secs_f64();
        }
        let n = plan.windows_for(budget_s, window_s);
        out.lat_ns = resident_samples(plan.max_samples());

        out.setup_s = t0.elapsed().as_secs_f64();
        let before = Usage::now();
        let cpu_before = stats::thread_cpu_s();
        for _ in 0..n {
            let start = Instant::now();
            for _ in 0..bursts_per_window {
                let latency = pipe.recv_burst()?;
                out.lat_ns.push(latency.as_nanos() as u32);
                pipe.send_burst()?;
            }
            out.window_ops_s
                .push(plan.window_ops as f64 / start.elapsed().as_secs_f64());
        }
        out.set_usage(before, Usage::now());
        out.client_cpu_s = stats::thread_cpu_s() - cpu_before;

        while pipe.outstanding() > 0 {
            pipe.recv_burst()?;
        }
        out.measured_ops = (n * plan.window_ops) as u64;
        out.attempted = (pipe.received * BURST) as u64;
        out.failed = pipe.failed;
        out.put_frames = pipe.put_frames;
        Ok(pipe.model)
    })?;

    out.store_ops = out.attempted + w.preload_ops();
    out.serve = Some(serve_stats);
    out.finish_store(w, &store, &model);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use era_smr::ebr::Ebr;

    #[test]
    fn frames_split_into_whole_bursts() {
        let w = Workload::by_name("net-churn-ebr").unwrap();
        let stream = w.stream(1, 0);
        let frames = Frames::encode(&stream);
        assert_eq!(frames.bursts() * BURST, stream.len());
        let total: usize = (0..frames.bursts()).map(|b| frames.burst(b).len()).sum();
        assert_eq!(total, frames.bytes.len());
        // Burst 1 starts with the frame of op 64.
        let mut first = Vec::new();
        request_of(stream[BURST], BURST).encode(&mut first);
        assert!(frames.burst(1).starts_with(&first));
    }

    #[test]
    fn pipelined_replies_match_the_model_and_a_wrong_model_is_caught() {
        let w = Workload::by_name("net-churn-ebr").unwrap();
        let stream = w.stream(5, 0);
        let frames = Frames::encode(&stream);
        for sabotage in [false, true] {
            let schemes: Vec<Ebr> = (0..2).map(|_| Ebr::new(4)).collect();
            let store = KvStore::new(&schemes, w.kv_config());
            preload(w, &store);
            let mut model = w.preload_model();
            if sabotage {
                let key = stream[0].key();
                model.set(key, model.get(key).map_or(Some(1), |_| None));
            }
            let ((failed, model), served) = serve(&store, |addr| {
                let mut pipe = Pipe::connect(addr, &frames, &stream, model)?;
                for _ in 0..DEPTH {
                    pipe.send_burst()?;
                }
                for _ in 0..32 {
                    pipe.recv_burst()?;
                    pipe.send_burst()?;
                }
                while pipe.outstanding() > 0 {
                    pipe.recv_burst()?;
                }
                Ok((pipe.failed, pipe.model))
            })
            .unwrap();
            assert_eq!(served.frames, ((32 + DEPTH) * BURST) as u64);
            if sabotage {
                assert!(
                    failed >= 1,
                    "the first op on the sabotaged key must be flagged"
                );
            } else {
                assert_eq!(failed, 0);
                assert_eq!(store.scan(0, w.key_range), model.entries());
                assert_eq!(store.stats().total_retired, model.removed);
            }
        }
    }
}
