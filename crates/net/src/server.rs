//! The TCP server: one acceptor, a fixed worker pool, pipelined
//! connections, and the ERA navigator as a live admission signal.
//!
//! ## Thread shape
//!
//! [`NetServer::run`] blocks the calling thread on `accept()` and
//! spawns (scoped) `workers` worker threads, and no other. Accepted
//! connections go into a bounded queue; each worker pops a connection
//! and serves it to completion, so a connection's requests are
//! answered **in order** by construction (and connection `workers + 1`
//! waits for a worker while the first `workers` stay open).
//!
//! The workers also run the navigator, on the store's own count of
//! their writes: after each turn's replies have left, a worker calls
//! [`KvStore::navigate`], which ticks once for every
//! [`era_kv::NAV_EVERY`] store write calls its context has made —
//! applied, batched or refused, a Degrading retry once per attempt. A
//! write the server sheds without calling the store (a `Violating` or
//! `Quarantined` shard) counts nothing; it adds no footprint either. A
//! worker that idles out of a queue wait or a read ticks once, beside
//! its idle maintenance, so a quiet or shedding server still
//! de-escalates. Reads add no footprint and step nothing: a GET-only
//! stream leaves the navigator untouched. The flight recorder needs no
//! step: each shard's tracers trim what they publish to its cap. The
//! sawtooth bound between two neutralization attempts is stated in
//! store write calls (`navigator.rs`' `NEUTRALIZE_RETRY_TICKS`).
//!
//! ## A connection: one socket, two buffers
//!
//! A served connection is a private `Conn { stream, rbuf, wbuf }`.
//! One `read` moves whatever the client has pipelined from the kernel
//! into the fixed-size `rbuf`; [`split_frame`] finds the whole frames
//! in it and [`Request::decode`] reads them where they lie. Replies
//! are [`Response::encode`]d straight into `wbuf`, which leaves in one
//! write per read. A request's bytes are therefore copied once
//! (kernel → `rbuf`) and its reply's once (`wbuf` → kernel), and
//! `GET`/`PUT`/`REMOVE`/`INCR`/`PING` allocate nothing here once the
//! connection's buffers exist. No request frame is longer than
//! [`MAX_REQUEST_FRAME`], and a prefix that claims otherwise is
//! answered `Malformed` when it is read, so `rbuf` never grows:
//! per-connection memory is a constant.
//!
//! The socket carries [`NetConfig::read_timeout`] in both directions.
//! A timed-out read leaves any partial frame in `rbuf` and returns to
//! the serving loop (stop poll, idle maintenance); a timed-out write —
//! a client that pipelines but never reads — polls the stop flag and
//! resumes where the partial write ended. Nothing a client sends or
//! withholds parks a worker for longer than that timeout, which makes
//! a `Conn` resumable at every refill.
//!
//! ## Pipelining and batching
//!
//! The batching unit is one read. Each turn of the serving loop
//! answers every whole frame in `rbuf`, in order, then writes `wbuf`
//! once, then reads once — a client that pipelines N requests gets N
//! in-order responses with one syscall round-trip instead of N. The
//! only earlier write is at the reply high-water mark (32 KiB), so the
//! first reply leaves after all the frames one read brought in: at
//! most 16 KiB of requests, or 32 KiB of replies, whichever comes
//! first. Consecutive `PUT`s among them are applied through
//! [`KvStore::put_batch`], which routes each item once, in one pass,
//! and pays one admission decision and one quiescent point per *shard
//! group* instead of per write. Every other write pays only for
//! itself: on a `Robust` shard admission is one load of the health
//! word, and the clock is read only once a write has been refused.
//!
//! ## Admission control (the theorem, on the wire)
//!
//! Per write, the target shard's [`ShardHealth`] decides:
//!
//! * `Robust` — the write goes straight through.
//! * `Degrading` — the write is queued with a bounded deadline
//!   ([`NetConfig::degraded_deadline`], from its first refusal); if it
//!   cannot land in time the client gets a typed `DeadlineExceeded`
//!   frame.
//! * `Violating` / `Quarantined` — the write is shed immediately with
//!   an `Overloaded` frame carrying a `retry_after_ms` hint. This is
//!   the ERA theorem's applicability sacrifice made visible to remote
//!   clients: the shard keeps its robustness bound by refusing their
//!   traffic.
//!
//! Reads are never shed (they add no footprint), so a Violating shard
//! still serves `GET`s — exactly the split the chaos socket test
//! asserts end-to-end.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use era_kv::{KvCtx, KvError, KvStore, ShardHealth};
use era_obs::{DumpStats, FlightRecorder, Hook, Recorder, SchemeId, ThreadTracer};
use era_smr::Smr;

use crate::proto::{
    split_frame, ErrorCode, ErrorReply, ProtoError, Request, Response, StatsReply,
    MAX_REQUEST_FRAME,
};

/// Size of a connection's read buffer. Fixed: a request frame is at
/// most `4 + MAX_REQUEST_FRAME` bytes, so the buffer only decides how
/// many pipelined frames one `read` can bring in, never whether a
/// frame fits.
const RBUF_LEN: usize = 16 * 1024;
const _: () = assert!(RBUF_LEN > 4 + MAX_REQUEST_FRAME);

/// Reply bytes one read's frames may accumulate before they are
/// written out early, so a read full of `SCAN`s cannot grow the reply
/// buffer without bound.
const WBUF_HIGH_WATER: usize = 32 * 1024;

/// Bytes of a `PUT` frame: length prefix, opcode, key, value.
const PUT_FRAME_LEN: usize = 4 + 1 + 8 + 8;

/// Accepted connections allowed to wait for a worker before the
/// acceptor sheds new ones by closing them.
const QUEUE_DEPTH: usize = 64;

/// `retry_after_ms` hint attached to `Overloaded` and
/// `DeadlineExceeded` frames (doubled for a `Quarantined` shard).
const RETRY_AFTER_MS: u32 = 50;

/// Server-side clamp on `SCAN` limits.
const SCAN_LIMIT: u32 = 1024;

/// Tuning knobs for a [`NetServer`].
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Socket read timeout — the granularity at which idle workers
    /// notice a shutdown request.
    pub read_timeout: Duration,
    /// Bounded queueing deadline for writes to a `Degrading` shard,
    /// measured from the write's first refusal (a write that lands at
    /// once never reads the clock); past it the client gets
    /// `DeadlineExceeded`.
    pub degraded_deadline: Duration,
    /// Backoff schedule for writes queued against a `Degrading` shard.
    pub write_backoff: Backoff,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 4,
            read_timeout: Duration::from_millis(50),
            degraded_deadline: Duration::from_millis(20),
            write_backoff: Backoff {
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_millis(2),
            },
        }
    }
}

/// The waits of a write refused by a `Degrading` shard: exponential
/// from `base_backoff`, capped at `max_backoff`, equal-jittered. How
/// many of them a write gets is [`NetConfig::degraded_deadline`]'s
/// call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// First wait; doubles per retry.
    pub base_backoff: Duration,
    /// Ceiling of one wait.
    pub max_backoff: Duration,
}

impl Backoff {
    /// The wait before retry `attempt` (0-based): the exponential step
    /// `base_backoff × 2^attempt` clamped to `max_backoff`, then
    /// scattered over `[nominal/2, nominal]` by a splitmix64 hash of
    /// `(salt, attempt)`. Equal jitter desynchronizes retriers (who
    /// otherwise re-collide on the shard every `base × 2^k`) without
    /// raising any step above its nominal, so every deadline bound that
    /// holds for the fixed schedule still holds. Pure and deterministic
    /// for a given `(schedule, attempt, salt)`, so retry schedules are
    /// replayable from a seed like everything else in the campaign
    /// harness.
    pub fn backoff_for(&self, attempt: u32, salt: u64) -> Duration {
        let base = self.base_backoff.max(Duration::from_nanos(1));
        let cap = self.max_backoff.max(self.base_backoff);
        let nominal_ns = (base.as_nanos() << attempt.min(63)).min(cap.as_nanos());
        let nominal_ns = u64::try_from(nominal_ns).unwrap_or(u64::MAX);
        if nominal_ns < 2 {
            return Duration::from_nanos(nominal_ns);
        }
        // splitmix64 over (salt, attempt): cheap, stateless, and good
        // enough to decorrelate retriers — this is scheduling jitter,
        // not cryptography.
        let mut z = salt ^ (u64::from(attempt) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let half = nominal_ns / 2;
        Duration::from_nanos(half + z % (nominal_ns - half + 1))
    }
}

/// Counters aggregated over a server's lifetime, returned by
/// [`NetServer::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections shed because the pending queue was full.
    pub queue_shed: u64,
    /// Connections served to completion.
    pub served: u64,
    /// Request frames processed.
    pub frames: u64,
    /// Socket reads that brought in request bytes.
    pub reads: u64,
    /// Socket `write` calls made for replies.
    pub writes: u64,
    /// Writes answered with `Overloaded`/`DeadlineExceeded` (the net
    /// layer's sheds, on top of the store's own counter).
    pub shed_writes: u64,
    /// Writes applied through the per-shard batch path.
    pub batched_writes: u64,
    /// Connections dropped over malformed frames.
    pub malformed: u64,
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "accepted={} served={} frames={} reads={} writes={} batched_writes={} shed_writes={} queue_shed={} malformed={}",
            self.accepted,
            self.served,
            self.frames,
            self.reads,
            self.writes,
            self.batched_writes,
            self.shed_writes,
            self.queue_shed,
            self.malformed
        )
    }
}

/// Shared stop signal between a [`NetServer`] and its [`NetHandle`]s.
struct Ctl {
    stop: AtomicBool,
    addr: SocketAddr,
}

/// Remote control for a running [`NetServer`] — the only way to stop
/// [`NetServer::run`] from another thread.
#[must_use = "a NetHandle is the only way to stop a running server; dropping it leaks the run loop"]
pub struct NetHandle {
    ctl: Arc<Ctl>,
}

impl NetHandle {
    /// Signals the server to stop and unblocks its acceptor. Safe to
    /// call more than once and from any thread.
    pub fn shutdown(&self) {
        self.ctl.stop.store(true, Ordering::SeqCst);
        // accept() only returns when a connection arrives; poke it.
        let _ = TcpStream::connect(self.ctl.addr);
    }

    /// The address the server is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.ctl.addr
    }
}

struct Counters {
    accepted: AtomicU64,
    queue_shed: AtomicU64,
    served: AtomicU64,
    frames: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    shed_writes: AtomicU64,
    batched_writes: AtomicU64,
    malformed: AtomicU64,
}

impl Counters {
    fn new() -> Counters {
        Counters {
            accepted: AtomicU64::new(0),
            queue_shed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            shed_writes: AtomicU64::new(0),
            batched_writes: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> ServeStats {
        ServeStats {
            accepted: self.accepted.load(Ordering::SeqCst),
            queue_shed: self.queue_shed.load(Ordering::SeqCst),
            served: self.served.load(Ordering::SeqCst),
            frames: self.frames.load(Ordering::SeqCst),
            reads: self.reads.load(Ordering::SeqCst),
            writes: self.writes.load(Ordering::SeqCst),
            shed_writes: self.shed_writes.load(Ordering::SeqCst),
            batched_writes: self.batched_writes.load(Ordering::SeqCst),
            malformed: self.malformed.load(Ordering::SeqCst),
        }
    }
}

/// A TCP front-end over a borrowed [`KvStore`].
///
/// The server borrows the store (and, transitively, the schemes) the
/// same way the store borrows its schemes — callers keep both alive
/// for the server's lifetime and typically run everything under one
/// `std::thread::scope`.
pub struct NetServer<'a, 's, S: Smr> {
    store: &'a KvStore<'s, S>,
    cfg: NetConfig,
    listener: TcpListener,
    recorder: Recorder,
    flight: Arc<FlightRecorder>,
    ctl: Arc<Ctl>,
    counters: Counters,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cond: Condvar,
}

impl<'a, 's, S: Smr> NetServer<'a, 's, S> {
    /// Binds to `addr` (use port 0 for an ephemeral port) and arms the
    /// flight recorder: one source per shard plus a `net` source for
    /// accept/shed events.
    ///
    /// # Errors
    ///
    /// Any socket error from binding.
    pub fn bind(
        store: &'a KvStore<'s, S>,
        cfg: NetConfig,
        addr: impl ToSocketAddrs,
    ) -> io::Result<Self> {
        // Zero workers would serve nothing; it means one.
        let cfg = NetConfig {
            workers: cfg.workers.max(1),
            ..cfg
        };
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // The `net` recorder (accept/shed events) gets the store's ring
        // size, like every shard recorder.
        let recorder = Recorder::with_ring_capacity(cfg.workers + 2, store.config().ring_capacity);
        let flight = Arc::new(FlightRecorder::new());
        for i in 0..store.shard_count() {
            flight.add_source(&format!("shard{i}"), store.recorder(i));
        }
        flight.add_source("net", &recorder);
        Ok(NetServer {
            store,
            cfg,
            listener,
            recorder,
            flight,
            ctl: Arc::new(Ctl {
                stop: AtomicBool::new(false),
                addr: local,
            }),
            counters: Counters::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_cond: Condvar::new(),
        })
    }

    /// The bound address (resolves an ephemeral port request).
    pub fn local_addr(&self) -> SocketAddr {
        self.ctl.addr
    }

    /// A handle that can stop this server from another thread.
    pub fn handle(&self) -> NetHandle {
        NetHandle {
            ctl: Arc::clone(&self.ctl),
        }
    }

    /// The armed flight recorder (e.g. to install a panic hook).
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// The net-layer recorder (accept/shed events). The flight
    /// recorder holds it, so its events are read through
    /// [`NetServer::flight`].
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Freshens per-shard footprint stats and writes the flight dump.
    ///
    /// # Errors
    ///
    /// Any filesystem error from writing `path`.
    pub fn write_flight(&self, path: &Path) -> io::Result<()> {
        for i in 0..self.store.shard_count() {
            let st = self.store.scheme(i).stats();
            self.flight.set_stats(
                i,
                DumpStats {
                    retired_now: st.retired_now as u64,
                    retired_peak: st.retired_peak as u64,
                    total_retired: st.total_retired,
                    total_reclaimed: st.total_reclaimed,
                    era: st.era,
                },
            );
        }
        self.flight.snapshot_to_file(path)
    }

    /// Serves until [`NetHandle::shutdown`] is called. Blocks the
    /// calling thread (the acceptor) and scopes the worker threads
    /// under it; the workers also step the navigator (module docs,
    /// "Thread shape").
    ///
    /// # Errors
    ///
    /// [`era_smr::RegisterError`] (as `io::Error`) when the store's
    /// schemes cannot seat one context per worker — size scheme
    /// capacity at `workers + slack`.
    pub fn run(&self) -> io::Result<ServeStats> {
        let mut worker_ctxs: Vec<KvCtx<S>> = Vec::with_capacity(self.cfg.workers);
        for _ in 0..self.cfg.workers {
            worker_ctxs.push(self.store.register().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::ResourceBusy,
                    format!("scheme capacity too small for worker pool: {e}"),
                )
            })?);
        }
        std::thread::scope(|s| {
            for (w, mut ctx) in worker_ctxs.into_iter().enumerate() {
                s.spawn(move || self.worker_loop(w as u16, &mut ctx));
            }
            self.accept_loop();
        });
        Ok(self.counters.snapshot())
    }

    /// What a worker does when it idles out of a queue wait or a read:
    /// flush its retire lists (see [`KvStore::maintain`]) and tick the
    /// navigator, so a server whose writes stopped or are all shed
    /// still de-escalates.
    fn idle(&self, ctx: &mut KvCtx<S>) {
        self.store.maintain(ctx);
        self.store.navigator_tick();
    }

    fn accept_loop(&self) {
        // The acceptor gets the slot just past the workers' in the net
        // recorder (sized workers + 2 at bind time).
        let mut tracer = self
            .recorder
            .tracer(self.cfg.workers as u16, SchemeId::NONE);
        let mut conn_id = 0u64;
        for stream in self.listener.incoming() {
            if self.ctl.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            conn_id += 1;
            // SAFETY(ordering): Relaxed — serving-path tallies are
            // telemetry read by the final snapshot (SeqCst loads);
            // no decision is taken on their momentary values.
            self.counters.accepted.fetch_add(1, Ordering::Relaxed);
            let queued = {
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                if q.len() >= QUEUE_DEPTH {
                    drop(stream); // shed at the door: no worker in sight
                                  // SAFETY(ordering): Relaxed — telemetry, as above.
                    self.counters.queue_shed.fetch_add(1, Ordering::Relaxed);
                    tracer.emit(Hook::Shed, u64::MAX, conn_id);
                    continue;
                }
                q.push_back(stream);
                q.len() as u64
            };
            tracer.emit(Hook::Accept, conn_id, queued);
            self.queue_cond.notify_one();
        }
        // Shutdown: wake every parked worker so they observe the flag.
        // Taking the queue lock first means a worker that read the flag
        // clear under it is already waiting, so it cannot miss the
        // wake-up and sleep out a whole read timeout.
        drop(self.queue.lock().unwrap_or_else(|e| e.into_inner()));
        self.queue_cond.notify_all();
    }

    fn worker_loop(&self, worker: u16, ctx: &mut KvCtx<S>) {
        let mut tracer = self.recorder.tracer(worker, SchemeId::NONE);
        loop {
            let conn = {
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(c) = q.pop_front() {
                        break Some(c);
                    }
                    if self.ctl.stop.load(Ordering::SeqCst) {
                        break None;
                    }
                    let (guard, timed_out) = self
                        .queue_cond
                        .wait_timeout(q, self.cfg.read_timeout)
                        .unwrap_or_else(|e| e.into_inner());
                    q = guard;
                    if timed_out.timed_out() {
                        // The queue lock is released around the idle
                        // step.
                        drop(q);
                        self.idle(ctx);
                        q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                    }
                }
            };
            match conn {
                Some(stream) => {
                    let _ = self.serve_conn(stream, ctx, &mut tracer);
                    // SAFETY(ordering): Relaxed — telemetry tally.
                    self.counters.served.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    /// Serves one connection to completion. Each turn answers every
    /// whole frame one read brought in, writes the replies once (not at
    /// all if the read brought only part of a frame), steps the
    /// navigator on the turn's writes ([`KvStore::navigate`]), and
    /// reads again.
    fn serve_conn(
        &self,
        stream: TcpStream,
        ctx: &mut KvCtx<S>,
        tracer: &mut ThreadTracer,
    ) -> io::Result<()> {
        let mut conn = Conn::new(stream, self.cfg.read_timeout)?;
        // A `PUT` run never holds more frames than `rbuf` does.
        let mut items: Vec<(i64, i64)> = Vec::with_capacity(RBUF_LEN / PUT_FRAME_LEN);
        loop {
            let turn = self
                .answer_buffered(ctx, &mut conn, &mut items, tracer)
                .and_then(|open| {
                    conn.flush(&self.ctl.stop, &self.counters.writes)?;
                    Ok(open)
                });
            self.store.navigate(ctx);
            if !turn? {
                return Ok(());
            }
            match conn.fill()? {
                // SAFETY(ordering): Relaxed — telemetry tally.
                Fill::Data => _ = self.counters.reads.fetch_add(1, Ordering::Relaxed),
                Fill::Closed => return Ok(()),
                Fill::Idle => {
                    if self.ctl.stop.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    // The connection is open but quiet — the same
                    // idle step as a worker parked on the queue.
                    self.idle(ctx);
                }
            }
        }
    }

    /// Answers every whole frame in `rbuf`, in order, into `wbuf`,
    /// writing early only past [`WBUF_HIGH_WATER`]. Consecutive `PUT`s
    /// collect in `items` and are answered as one run; two or more go
    /// through the store's per-shard batch path. Returns `false` once
    /// an undecodable frame has been answered `Malformed`, behind the
    /// replies to every frame before it: the connection closes.
    fn answer_buffered(
        &self,
        ctx: &mut KvCtx<S>,
        conn: &mut Conn,
        items: &mut Vec<(i64, i64)>,
        tracer: &mut ThreadTracer,
    ) -> io::Result<bool> {
        let mut frames = 0u64;
        let turn = loop {
            let next = conn.next_request();
            if let Ok(Some(Request::Put { key, value })) = next {
                items.push((key, value));
                frames += 1;
                continue;
            }
            if let [(key, value)] = items[..] {
                let reply = self.respond(ctx, &Request::Put { key, value }, tracer);
                reply.encode(&mut conn.wbuf);
            } else if !items.is_empty() {
                // SAFETY(ordering): Relaxed — telemetry tally.
                self.counters
                    .batched_writes
                    .fetch_add(items.len() as u64, Ordering::Relaxed);
                for (&(key, value), res) in items.iter().zip(self.store.put_batch(ctx, items)) {
                    match res {
                        Ok(prev) => Response::Value(prev),
                        // A shed group falls back to the single-write
                        // policy so Degrading still means "queue with
                        // a deadline", not "batch missed, bad luck".
                        Err(_) => self.respond(ctx, &Request::Put { key, value }, tracer),
                    }
                    .encode(&mut conn.wbuf);
                }
            }
            items.clear();
            match next {
                Ok(Some(req)) => {
                    self.respond(ctx, &req, tracer).encode(&mut conn.wbuf);
                    frames += 1;
                }
                Ok(None) => break Ok(true),
                Err(_) => {
                    // SAFETY(ordering): Relaxed — telemetry tally.
                    self.counters.malformed.fetch_add(1, Ordering::Relaxed);
                    Response::Error(ErrorReply {
                        code: ErrorCode::Malformed,
                        shard: u32::MAX,
                        retry_after_ms: 0,
                    })
                    .encode(&mut conn.wbuf);
                    break Ok(false);
                }
            }
            if conn.wbuf.len() >= WBUF_HIGH_WATER {
                // A failed flush (shutdown under a client that never
                // reads) still counts the frames answered before it.
                if let Err(e) = conn.flush(&self.ctl.stop, &self.counters.writes) {
                    break Err(e);
                }
            }
        };
        // SAFETY(ordering): Relaxed — telemetry tally.
        self.counters.frames.fetch_add(frames, Ordering::Relaxed);
        turn
    }

    fn respond(&self, ctx: &mut KvCtx<S>, req: &Request, tracer: &mut ThreadTracer) -> Response {
        match *req {
            Request::Get { key } => Response::Value(self.store.get(ctx, key)),
            Request::Put { key, value } => {
                self.write_op(ctx, key, tracer, |store, ctx| store.put(ctx, key, value))
            }
            Request::Remove { key } => {
                self.write_op(ctx, key, tracer, |store, ctx| store.remove(ctx, key))
            }
            Request::Incr { key, delta } => {
                self.write_op(ctx, key, tracer, |store, ctx| store.incr(ctx, key, delta))
            }
            Request::Scan { lo, hi, limit } => {
                // A live server cannot take the store's quiescent-only
                // snapshot; SCAN is a bounded sweep of protected point
                // reads over at most `limit` consecutive keys instead.
                let limit = limit.min(SCAN_LIMIT) as i64;
                let hi = hi.min(lo.saturating_add(limit.max(0)));
                let mut entries = Vec::new();
                let mut k = lo;
                while k < hi {
                    if let Some(v) = self.store.get(ctx, k) {
                        entries.push((k, v));
                    }
                    k += 1;
                }
                Response::Entries(entries)
            }
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(self.stats_reply()),
        }
    }

    /// The navigator-driven write policy shared by PUT/REMOVE/INCR and
    /// the batch fallback. A write that lands at once pays for nothing
    /// else: the clock is first read at the first refusal, which is
    /// where the `Degrading` deadline starts.
    fn write_op<F>(
        &self,
        ctx: &mut KvCtx<S>,
        key: i64,
        tracer: &mut ThreadTracer,
        mut op: F,
    ) -> Response
    where
        F: FnMut(&KvStore<'s, S>, &mut KvCtx<S>) -> Result<Option<i64>, KvError>,
    {
        let shard = self.store.shard_of(key);
        match self.store.health(shard) {
            ShardHealth::Violating | ShardHealth::Quarantined => self.shed(shard, tracer),
            ShardHealth::Robust | ShardHealth::Degrading => {
                // Robust: the first attempt succeeds immediately.
                // Degrading: bounded queueing — retry with backoff
                // until the write lands or the deadline, taken at the
                // first refusal, passes.
                let mut deadline = None;
                let mut attempt = 0u32;
                loop {
                    match op(self.store, ctx) {
                        Ok(prev) => return Response::Value(prev),
                        Err(KvError::Overloaded { shard }) => {
                            if self.store.health(shard) > ShardHealth::Degrading {
                                return self.shed(shard, tracer);
                            }
                            let backoff = self.cfg.write_backoff.backoff_for(attempt, key as u64);
                            attempt = attempt.saturating_add(1);
                            let now = Instant::now();
                            let deadline =
                                *deadline.get_or_insert(now + self.cfg.degraded_deadline);
                            if now + backoff > deadline {
                                // SAFETY(ordering): Relaxed — telemetry.
                                self.counters.shed_writes.fetch_add(1, Ordering::Relaxed);
                                return Response::Error(ErrorReply {
                                    code: ErrorCode::DeadlineExceeded,
                                    shard: shard as u32,
                                    retry_after_ms: RETRY_AFTER_MS,
                                });
                            }
                            std::thread::sleep(backoff);
                        }
                        Err(KvError::DeadlineExceeded { shard }) => {
                            // SAFETY(ordering): Relaxed — telemetry.
                            self.counters.shed_writes.fetch_add(1, Ordering::Relaxed);
                            return Response::Error(ErrorReply {
                                code: ErrorCode::DeadlineExceeded,
                                shard: shard as u32,
                                retry_after_ms: RETRY_AFTER_MS,
                            });
                        }
                    }
                }
            }
        }
    }

    /// The typed `Overloaded` + `Retry-After` frame.
    fn shed(&self, shard: usize, tracer: &mut ThreadTracer) -> Response {
        // SAFETY(ordering): Relaxed — telemetry tally.
        let shed = self.counters.shed_writes.fetch_add(1, Ordering::Relaxed) + 1;
        tracer.emit(Hook::Shed, shard as u64, shed);
        Response::Error(ErrorReply {
            code: ErrorCode::Overloaded,
            shard: shard as u32,
            // Quarantined shards drain a death's backlog, not a load
            // spike — hint clients to stay away twice as long.
            retry_after_ms: if self.store.health(shard) == ShardHealth::Quarantined {
                RETRY_AFTER_MS * 2
            } else {
                RETRY_AFTER_MS
            },
        })
    }

    fn stats_reply(&self) -> StatsReply {
        let st = self.store.stats();
        let (transitions, neutralizations, store_sheds) = self.store.nav_counters();
        let trace_dropped: u64 = (0..self.store.shard_count())
            .map(|i| self.store.recorder(i).dropped())
            .sum::<u64>()
            + self.recorder.dropped();
        StatsReply {
            retired_now: st.retired_now as u64,
            retired_peak: st.retired_peak as u64,
            total_retired: st.total_retired,
            total_reclaimed: st.total_reclaimed,
            sheds: store_sheds + self.counters.shed_writes.load(Ordering::SeqCst),
            transitions,
            neutralizations,
            trace_dropped,
            health: (0..self.store.shard_count())
                .map(|i| self.store.health(i) as u8)
                .collect(),
        }
    }
}

/// One client connection: the socket and the only two buffers its
/// bytes sit in on this side of the kernel. Requests are decoded in
/// place from `rbuf`; replies are encoded into `wbuf` and leave in one
/// write per read. Nothing here blocks longer than the socket
/// timeout, and a partial frame simply stays in `rbuf` across one, so
/// a `Conn` can be left and resumed at any refill.
struct Conn {
    stream: TcpStream,
    /// Fixed-size; `rbuf[head..tail]` is received and not yet decoded.
    rbuf: Box<[u8]>,
    head: usize,
    tail: usize,
    /// Encoded replies not yet written.
    wbuf: Vec<u8>,
}

/// What one refill of the read buffer produced.
enum Fill {
    /// At least one more byte is buffered.
    Data,
    /// The socket timeout passed with nothing to read.
    Idle,
    /// The peer closed the stream.
    Closed,
}

fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

impl Conn {
    /// Takes over an accepted stream; `timeout` bounds every blocking
    /// read and write, which is what lets both poll the stop flag.
    fn new(stream: TcpStream, timeout: Duration) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Conn {
            stream,
            rbuf: vec![0; RBUF_LEN].into_boxed_slice(),
            head: 0,
            tail: 0,
            wbuf: Vec::with_capacity(WBUF_HIGH_WATER),
        })
    }

    /// Decodes the next whole request frame in place, or `Ok(None)`
    /// when the buffer holds less than one.
    fn next_request(&mut self) -> Result<Option<Request>, ProtoError> {
        let pending = &self.rbuf[self.head..self.tail];
        match split_frame(pending)? {
            Some((payload, rest)) => {
                self.head = self.tail - rest.len();
                Request::decode(payload).map(Some)
            }
            // The body is still in flight — unless the prefix promises
            // more than any request carries: waiting for that would
            // only buffer bytes that cannot decode.
            None => match pending
                .first_chunk()
                .map(|&p| u32::from_be_bytes(p) as usize)
            {
                Some(len) if len > MAX_REQUEST_FRAME => Err(ProtoError::Oversized(len)),
                _ => Ok(None),
            },
        }
    }

    /// One `read` into the free tail of `rbuf`. Called only once
    /// [`Conn::next_request`] has nothing whole left, so what is moved
    /// to the front first is less than one request frame.
    fn fill(&mut self) -> io::Result<Fill> {
        self.rbuf.copy_within(self.head..self.tail, 0);
        self.tail -= self.head;
        self.head = 0;
        loop {
            return match self.stream.read(&mut self.rbuf[self.tail..]) {
                Ok(0) => Ok(Fill::Closed),
                Ok(n) => {
                    self.tail += n;
                    Ok(Fill::Data)
                }
                Err(e) if timed_out(&e) => Ok(Fill::Idle),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => Err(e),
            };
        }
    }

    /// Writes out every buffered reply, counting each `write` call in
    /// `writes`; an empty `wbuf` makes none. A peer that has stopped
    /// reading stalls this for one socket timeout at a time, resuming
    /// where the partial write ended, until `stop` aborts the wait.
    fn flush(&mut self, stop: &AtomicBool, writes: &AtomicU64) -> io::Result<()> {
        let mut sent = 0;
        while sent < self.wbuf.len() {
            // SAFETY(ordering): Relaxed — telemetry tally.
            writes.fetch_add(1, Ordering::Relaxed);
            match self.stream.write(&self.wbuf[sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if timed_out(&e) => {
                    if stop.load(Ordering::SeqCst) {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            "server shutting down mid-reply",
                        ));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        Ok(())
    }
}

// Re-exported so integration tests and docs can name the error type
// without importing era-kv.
pub use era_kv::KvConfig;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ProtoError;
    use era_smr::ebr::Ebr;

    #[test]
    fn config_defaults_are_sane() {
        let cfg = NetConfig::default();
        assert!(cfg.workers >= 1);
        assert!(QUEUE_DEPTH >= cfg.workers);
        assert!(cfg.degraded_deadline < Duration::from_secs(1));
        // The serving constants every caller runs with.
        assert_eq!(
            (QUEUE_DEPTH, RETRY_AFTER_MS, era_kv::NAV_EVERY, SCAN_LIMIT),
            (64, 50, 512, 1024)
        );
        // The Degrading-path schedule is jittered but still bounded:
        // no single wait exceeds the ceiling, so the number of sleeps
        // inside degraded_deadline stays finite.
        for attempt in 0..64 {
            assert!(
                cfg.write_backoff.backoff_for(attempt, 42) <= cfg.write_backoff.max_backoff,
                "attempt {attempt} exceeded the backoff ceiling"
            );
        }
        assert_eq!(
            ServeStats::default().to_string(),
            "accepted=0 served=0 frames=0 reads=0 writes=0 batched_writes=0 shed_writes=0 queue_shed=0 malformed=0"
        );
    }

    #[test]
    fn jittered_backoff_is_bounded_and_deterministic() {
        let schedule = Backoff {
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(5),
        };
        // The un-jittered step, computed here rather than asked of the
        // schedule: base × 2^attempt, clamped to the ceiling.
        let nominal =
            |attempt: u32| (schedule.base_backoff * (1 << attempt)).min(schedule.max_backoff);
        const ATTEMPTS: u32 = 16;
        let mut total = Duration::ZERO;
        let mut fixed_total = Duration::ZERO;
        for attempt in 0..ATTEMPTS {
            let nominal = nominal(attempt);
            let jittered = schedule.backoff_for(attempt, 0xDEAD_BEEF);
            // Equal-jitter: every step lives in [nominal/2, nominal], so
            // jitter can only shorten a schedule, never lengthen it.
            assert!(
                jittered <= nominal,
                "attempt {attempt}: {jittered:?} > {nominal:?}"
            );
            assert!(
                jittered >= nominal / 2,
                "attempt {attempt}: {jittered:?} < half of {nominal:?}"
            );
            assert_eq!(
                jittered,
                schedule.backoff_for(attempt, 0xDEAD_BEEF),
                "same (attempt, salt) must give the same wait"
            );
            total += jittered;
            fixed_total += nominal;
        }
        // The total-deadline bound: the whole jittered schedule is no
        // longer than the fixed one, which is itself capped per step.
        assert!(total <= fixed_total);
        assert!(fixed_total <= schedule.max_backoff * ATTEMPTS);
        // Different salts actually decorrelate (not a constant offset).
        let spread: std::collections::HashSet<Duration> =
            (0..64).map(|salt| schedule.backoff_for(6, salt)).collect();
        assert!(
            spread.len() > 8,
            "jitter degenerated: {} values",
            spread.len()
        );
        // The exponential curve saturates at the ceiling: past the
        // shift limit a step still lands in [ceiling/2, ceiling].
        for attempt in [63, u32::MAX] {
            for salt in 0..64 {
                let wait = schedule.backoff_for(attempt, salt);
                assert!(
                    wait <= schedule.max_backoff && wait >= schedule.max_backoff / 2,
                    "attempt {attempt}: {wait:?}"
                );
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "binds a socket and reads the wall clock")]
    fn refused_write_is_answered_deadline_exceeded_after_its_deadline() {
        // No navigator tick runs, so shard 0 stays `Robust` and
        // `write_op` takes its retry loop, not the shed.
        let schemes = vec![Ebr::new(4)];
        let store = KvStore::new(&schemes, KvConfig::default());
        let mut ctx = store.register().unwrap();
        let base = NetConfig {
            degraded_deadline: Duration::from_millis(5),
            ..NetConfig::default()
        };
        let no_backoff = Backoff {
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        // The loop answers once its next backoff would overrun the
        // deadline, so with a backoff the answer may come up to one
        // step early; without one the bound is exact.
        for (policy, slack) in [
            (no_backoff, Duration::ZERO),
            (base.write_backoff, base.write_backoff.max_backoff),
        ] {
            let cfg = NetConfig {
                write_backoff: policy,
                ..base
            };
            let server = NetServer::bind(&store, cfg, "127.0.0.1:0").unwrap();
            let mut tracer = server.recorder().tracer(0, SchemeId::NONE);
            let mut attempts = 0u32;
            let t0 = Instant::now();
            let reply = server.write_op(&mut ctx, 7, &mut tracer, |_, _| {
                attempts += 1;
                Err(KvError::Overloaded { shard: 0 })
            });
            let elapsed = t0.elapsed();
            assert_eq!(store.health(0), ShardHealth::Robust);
            assert_eq!(
                reply,
                Response::Error(ErrorReply {
                    code: ErrorCode::DeadlineExceeded,
                    shard: 0,
                    retry_after_ms: RETRY_AFTER_MS,
                })
            );
            assert!(
                elapsed + slack >= cfg.degraded_deadline,
                "answered after {elapsed:?}, before the {:?} deadline",
                cfg.degraded_deadline
            );
            assert!(
                attempts > 1,
                "a refused write is retried until its deadline"
            );
            assert_eq!(server.counters.shed_writes.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "binds a socket and reads the wall clock")]
    fn write_that_lands_at_once_returns_its_value_and_never_sleeps() {
        let schemes = vec![Ebr::new(4)];
        let store = KvStore::new(&schemes, KvConfig::default());
        let mut ctx = store.register().unwrap();
        assert_eq!(store.put(&mut ctx, 7, 1), Ok(None));
        // Every backoff step is a minute, jittered to at least half of
        // one: a single sleep would stall the test past 30 s.
        let minute = Duration::from_secs(60);
        let cfg = NetConfig {
            degraded_deadline: minute * 2,
            write_backoff: Backoff {
                base_backoff: minute,
                max_backoff: minute,
            },
            ..NetConfig::default()
        };
        let server = NetServer::bind(&store, cfg, "127.0.0.1:0").unwrap();
        let mut tracer = server.recorder().tracer(0, SchemeId::NONE);
        let mut attempts = 0u32;
        let t0 = Instant::now();
        let reply = server.write_op(&mut ctx, 7, &mut tracer, |store, ctx| {
            attempts += 1;
            store.put(ctx, 7, 70)
        });
        assert!(t0.elapsed() < minute / 2, "a write that lands slept");
        assert_eq!((reply, attempts), (Response::Value(Some(1)), 1));
        assert_eq!(store.get(&mut ctx, 7), Some(70));
        assert_eq!(server.counters.shed_writes.load(Ordering::SeqCst), 0);
    }

    /// Wall-clock ceiling per write in the property below: a refused
    /// write is answered within its 3 ms deadline plus one backoff
    /// step, so 500 ms of slack makes a miss a hang, not scheduling
    /// noise, on any machine.
    const NEVER_HANGS: Duration = Duration::from_millis(500);

    // Binds a socket: not under Miri.
    #[cfg(not(miri))]
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// `write_op`, the serving path's one bounded retry, answers
        /// every write in time whichever shard the key routes to: on a
        /// 3-shard store whose shard 0 is stalled `Degrading` (a pin
        /// that is never released, admission depth 0) and whose shard 2
        /// is `Quarantined`, shard 0 answers `DeadlineExceeded`, shard
        /// 2 `Overloaded`, and shard 1 the write's `Value` — each
        /// within NEVER_HANGS.
        #[test]
        fn write_op_answers_in_time_on_stalled_and_quarantined_shards(
            keys in proptest::prop::collection::vec(-256i64..256, 1..48),
        ) {
            let schemes: Vec<Ebr> = (0..3).map(|_| Ebr::with_threshold(4, 1)).collect();
            let kv = KvConfig {
                retired_soft: 4,
                retired_hard: 1 << 20, // stay out of Violating
                admission_depth: 0,    // a Degrading shard refuses every write
                ..KvConfig::default()
            };
            let store = KvStore::new(&schemes, kv);
            let mut ctx = store.register().unwrap();
            // A pinned reader freezes shard 0's epoch while churn piles
            // up garbage; one tick classifies the shard Degrading. The
            // pin outlives every write, so no retry can drain it.
            let smr = store.scheme(0);
            let mut pin = smr.register().unwrap();
            smr.begin_op(&mut pin);
            for k in (0..).filter(|&k| store.shard_of(k) == 0).take(16) {
                store.put(&mut ctx, k, k).unwrap();
                store.remove(&mut ctx, k).unwrap();
            }
            store.navigator_tick();
            proptest::prop_assert_eq!(store.health(0), ShardHealth::Degrading);
            store.quarantine(2);
            let cfg = NetConfig {
                degraded_deadline: Duration::from_millis(3),
                ..NetConfig::default()
            };
            let server = NetServer::bind(&store, cfg, "127.0.0.1:0").unwrap();
            let mut tracer = server.recorder().tracer(0, SchemeId::NONE);
            for key in keys {
                let before = store.get(&mut ctx, key);
                let t0 = Instant::now();
                let reply = server.write_op(&mut ctx, key, &mut tracer, |store, ctx| {
                    // A loop that outlives its deadline fails here
                    // instead of hanging the test.
                    assert!(t0.elapsed() < NEVER_HANGS, "write {key} still retrying");
                    store.put(ctx, key, 1)
                });
                let took = t0.elapsed();
                proptest::prop_assert!(took < NEVER_HANGS, "write {key} took {took:?}");
                let shard = store.shard_of(key);
                // A Quarantined shard's hint is twice the Degrading one.
                let retry_after_ms = RETRY_AFTER_MS * if shard == 2 { 2 } else { 1 };
                let refused = |code| {
                    Response::Error(ErrorReply {
                        code,
                        shard: shard as u32,
                        retry_after_ms,
                    })
                };
                let expected = match shard {
                    0 => refused(ErrorCode::DeadlineExceeded),
                    2 => refused(ErrorCode::Overloaded),
                    _ => Response::Value(before),
                };
                proptest::prop_assert_eq!(reply, expected, "write {key} on shard {shard}");
            }
            smr.end_op(&mut pin);
        }
    }

    #[test]
    fn proto_error_kind_is_invalid_data() {
        // Pin the mapping `read_frame` promises its callers: a framing
        // violation surfaces as InvalidData.
        let err = io::Error::new(io::ErrorKind::InvalidData, ProtoError::Oversized(0));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
