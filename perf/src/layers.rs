//! The traced run: the same op stream replayed at every layer, one span per
//! (layer, 256-op slice), so a layer's self time is a subtraction.
//!
//! ```text
//! L3 era-net   loopback TCP into NetServer      (net workloads only)
//! L2 era-kv    KvStore calls, one thread
//! L1 era-ds    one era_ds::HashMap, one scheme instance
//! L0 era-smr   the Smr-trait calls L1 made, and nothing else
//! ```
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions, each on its own store. The layers take turns, a block of
//! slices at a time, so that the seconds-long speed phases of a shared VM hit
//! all of them alike and cancel in the subtraction. A child span is
//! therefore tied to its parent by `slice`, not by wall-clock nesting: the
//! parent of the L2 span of slice 17 is the L3 span of slice 17.

use std::cell::Cell;
use std::fmt::Write as _;
use std::io::{self, Cursor};
use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::time::Instant;

use era_ds::HashMap;
use era_kv::KvStore;
use era_net::{read_frame, write_response, Request, Response};
use era_obs::{Hook, Recorder, SchemeId};
use era_smr::{Smr, SmrHeader};

use crate::measure::{preload, Measured, Plan};
use crate::net::{serve, Frames, Pipe};
use crate::target::{exec_burst, timer_overhead_ns, DsTarget, KindTimer, KvTarget, Target, Timed};
use crate::workload::{
    put_value, Entry, Model, Op, Workload, BUCKETS_PER_SHARD, BURST, DEPTH, SHARDS, SLICE,
};
use crate::{kv, net};

/// Layer names are the crates', top (L3) to bottom (L0).
pub const LAYERS: [&str; 4] = ["era-net", "era-kv", "era-ds", "era-smr"];

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in its log.
    pub id: u32,
    /// The enclosing layer's span for the same slice.
    pub parent: Option<u32>,
    /// Crate name of the layer.
    pub layer: &'static str,
    /// Which 256-op slice of the stream; shared by the spans of one slice.
    pub slice: u32,
    /// Start, nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the log's origin.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> i64 {
        self.end_ns as i64 - self.start_ns as i64
    }
}

/// Self time of every span: its duration minus its children's. Layers are
/// replayed separately, so a child may outlast its parent on a noisy slice
/// and a single self time may be negative; sums over a layer are what the
/// report uses.
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent as usize] -= span.duration_ns();
        }
    }
    own
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    /// Every span, in recording order (`spans[i].id == i`).
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub(crate) fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// `(layer, total ns, self ns)` for every layer that has spans.
    pub fn by_layer(&self) -> Vec<(&'static str, i64, i64)> {
        let own = self_times_ns(&self.spans);
        LAYERS
            .iter()
            .filter_map(|&layer| {
                let mut of_layer = self
                    .spans
                    .iter()
                    .zip(&own)
                    .filter(|(s, _)| s.layer == layer)
                    .peekable();
                of_layer.peek()?;
                let (total, own) =
                    of_layer.fold((0, 0), |(t, o), (s, own)| (t + s.duration_ns(), o + own));
                Some((layer, total, own))
            })
            .collect()
    }

    /// Writes the spans as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"slice_ops\": {SLICE}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"slice_id\": {}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.id, s.layer, s.slice, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// One layer of the replay: its name and how it executes one 256-op slice
/// of the stream (returning the replies that were refused or wrong).
struct Layer<'a> {
    name: &'static str,
    /// Whether slices execute stream ops whose replies are checked (the L0
    /// primitives have no replies).
    checked: bool,
    run_slice: Box<dyn FnMut(usize) -> io::Result<u64> + 'a>,
}

/// Slices a layer runs before the next layer takes its turn: long enough
/// (≈ 15–100 ms) that re-warming its caches is noise, short enough that every
/// layer sees the same machine.
const BLOCK_SLICES: usize = 512;

/// What [`interleave`] measured.
struct Replay {
    /// Nanoseconds per op of each layer's traced pass, in `layers` order.
    ns_per_op: Vec<f64>,
    /// The same for the top layer's slices run with span recording off,
    /// alternating with its traced ones.
    untraced_top_ns_per_op: f64,
    /// Ops whose reply was checked, warm-up included.
    attempted: u64,
    /// Of which refused or wrong.
    failed: u64,
}

/// Replays `slices` stream slices at every layer, top layer first, taking
/// turns block by block:
///
/// 1. warm-up — half as many slices, nothing recorded (a fresh store's first
///    pass runs up to 20 % slower than its second);
/// 2. the traced pass — per block, the top layer once more with recording
///    off (other slices of the stream, for `client.trace_overhead_frac`),
///    then every layer with one span per slice, whose parent is the span of
///    the layer above for the same slice.
fn interleave(mut layers: Vec<Layer<'_>>, slices: usize, log: &mut SpanLog) -> io::Result<Replay> {
    let blocks = |n: usize| {
        (0..n)
            .step_by(BLOCK_SLICES)
            .map(move |b| b..(b + BLOCK_SLICES).min(n))
    };
    let mut failed = 0;
    for block in blocks(slices / 2) {
        for layer in &mut layers {
            for slice in block.clone() {
                failed += (layer.run_slice)(slice)?;
            }
        }
    }
    let mut ns = vec![0u128; layers.len()];
    let mut untraced_ns = 0u128;
    for block in blocks(slices) {
        let started = Instant::now();
        for slice in block.clone() {
            failed += (layers[0].run_slice)((slice + slices / 2) % slices)?;
        }
        untraced_ns += started.elapsed().as_nanos();
        let mut above: Option<usize> = None;
        for (li, layer) in layers.iter_mut().enumerate() {
            let first_id = log.spans.len();
            for slice in block.clone() {
                let start = Instant::now();
                failed += (layer.run_slice)(slice)?;
                let end = Instant::now();
                ns[li] += end.duration_since(start).as_nanos();
                log.spans.push(Span {
                    id: log.spans.len() as u32,
                    parent: above.map(|first| (first + slice - block.start) as u32),
                    layer: layer.name,
                    slice: slice as u32,
                    start_ns: start.duration_since(log.origin).as_nanos() as u64,
                    end_ns: end.duration_since(log.origin).as_nanos() as u64,
                });
            }
            above = Some(first_id);
        }
    }
    let ops = (slices * SLICE) as f64;
    // Every checked layer ran the warm-up and the traced pass; the top layer
    // its untraced slices on top.
    let checked = layers.iter().filter(|l| l.checked).count();
    let slices_checked = checked * (slices / 2 + slices) + usize::from(layers[0].checked) * slices;
    Ok(Replay {
        ns_per_op: ns.iter().map(|&ns| ns as f64 / ops).collect(),
        untraced_top_ns_per_op: untraced_ns as f64 / ops,
        attempted: (slices_checked * SLICE) as u64,
        failed,
    })
}

/// Mean nanoseconds of single calls, by kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct KindNs {
    /// One GET.
    pub get: f64,
    /// One PUT / insert.
    pub put: f64,
    /// One REMOVE.
    pub remove: f64,
    /// One item of a batched PUT run.
    pub batched_put: f64,
}

/// Cost of the scheme's primitives through the `Smr` trait.
#[derive(Debug, Default, Clone, Copy)]
pub struct SmrProbe {
    /// `begin_op` + `end_op`.
    pub op_bracket_ns: f64,
    /// One protected `load`.
    pub protect_ns: f64,
    /// Allocate a node, `init_header`, `retire`; reclamation amortised.
    pub retire_ns: f64,
}

/// Everything the traced run yields.
#[derive(Debug)]
pub struct Traced {
    /// A (shorter) untraced measurement: the `client.*` and counter metrics.
    pub measured: Measured,
    /// Nanoseconds per op of the traced pass by layer, `LAYERS` order; `None`
    /// where the workload has no such layer (L3 on `kv-*`).
    pub ns_per_op: [Option<f64>; 4],
    /// The same for the top layer replayed with span recording off.
    pub untraced_top_ns_per_op: f64,
    /// Single-call times at L2.
    pub kv_kinds: KindNs,
    /// Single-call times at L1.
    pub ds_kinds: KindNs,
    /// Scheme primitives.
    pub smr: SmrProbe,
    /// `Smr` calls per op that L1 made: `(brackets, loads, retires)`.
    pub smr_calls_per_op: (f64, f64, f64),
    /// Mean live keys per bucket over the L1 replay.
    pub mean_chain_len: f64,
    /// In-memory `Request::decode` + `Response::encode` + `Response::decode`.
    pub codec_ns_per_op: f64,
    /// `read_frame` ×2 + `write_response` on in-memory buffers, less the codec.
    pub frame_io_ns_per_op: f64,
    /// One `ThreadTracer::emit`.
    pub emit_ns: f64,
    /// Ops whose reply was checked, over the measurement and every pass.
    pub attempted: u64,
    /// Of which refused, errored or wrong (end-state mismatches included).
    pub failed: u64,
    /// The spans.
    pub log: SpanLog,
}

/// Continues the stream past the replay for a quarter as many slices with
/// every call timed on its own; returns the mean per kind and the failures.
fn time_kinds<T: Target>(
    target: &mut T,
    stream: &[Op],
    slices: usize,
    model: &mut Model,
    timer_ns: f64,
) -> (KindNs, u64) {
    let mut timer = KindTimer::default();
    let failed = (0..slices / 4)
        .map(|slice| run_slice(target, stream, slice, model, Some(&mut timer)))
        .sum();
    let kinds = KindNs {
        get: timer.mean_ns(Timed::Get, timer_ns),
        put: timer.mean_ns(Timed::Put, timer_ns),
        remove: timer.mean_ns(Timed::Remove, timer_ns),
        batched_put: timer.mean_ns(Timed::BatchedPut, timer_ns),
    };
    (kinds, failed)
}

/// Runs the traced replay of `w`.
pub fn run<S: Smr>(
    w: &Workload,
    seed: u64,
    plan: &Plan,
    budget_s: f64,
    make: &(impl Fn() -> S + Sync),
) -> io::Result<Traced> {
    // Half the budget goes to the untraced measurement, the rest is spent
    // by count in the replays.
    let measured = match w.entry {
        Entry::Net => net::run(w, seed, plan, budget_s / 2.0, make)?,
        Entry::Kv => kv::run(w, seed, plan, budget_s / 2.0, make),
    };
    let stream = w.stream(seed, 0);
    let slices = plan.replay_ops / SLICE;
    let mut log = SpanLog::new();

    // L2: a fresh store, one context.
    let kv_schemes: Vec<S> = (0..SHARDS).map(|_| make()).collect();
    let kv_store = KvStore::new(&kv_schemes, w.kv_config());
    preload(w, &kv_store);
    let mut kv_target = KvTarget {
        store: &kv_store,
        ctx: kv_store
            .register()
            .expect("scheme capacity covers the replay context"),
        batch: w.entry == Entry::Net,
    };
    let mut kv_model = w.preload_model();

    // L1: one map over one scheme instance. The recorder counts the `Smr`
    // calls it makes, which is what L0 then replays.
    let (ds_smr, ds_recorder) = traced_scheme(make);
    let map = HashMap::new(&ds_smr, SHARDS * BUCKETS_PER_SHARD);
    let mut ds_ctx = ds_smr.register().expect("fresh scheme has a free slot");
    for (k, v) in w.preload_entries() {
        map.insert(&mut ds_ctx, k, v);
    }
    let calls_before = smr_calls_so_far(&ds_recorder);
    let smr_calls = || {
        let now = smr_calls_so_far(&ds_recorder);
        [0, 1, 2].map(|i| now[i] - calls_before[i])
    };
    let mut ds_target = DsTarget {
        map: &map,
        ctx: ds_ctx,
    };
    let mut ds_model = w.preload_model();
    let (ds_slices, live_keys) = (Cell::new(0u64), Cell::new(0u64));

    // L0: the scheme alone.
    let (l0_smr, _l0_recorder) = traced_scheme(make);
    let mut l0_ctx = l0_smr.register().expect("fresh scheme has a free slot");
    let cell = AtomicUsize::new(PROBE_WORD);

    let lower = vec![
        Layer {
            name: LAYERS[1],
            checked: true,
            run_slice: Box::new(|s| Ok(run_slice(&mut kv_target, &stream, s, &mut kv_model, None))),
        },
        Layer {
            name: LAYERS[2],
            checked: true,
            run_slice: Box::new(|s| {
                ds_slices.set(ds_slices.get() + 1);
                live_keys.set(live_keys.get() + ds_model.len() as u64);
                Ok(run_slice(&mut ds_target, &stream, s, &mut ds_model, None))
            }),
        },
        Layer {
            name: LAYERS[3],
            checked: false,
            run_slice: Box::new(|_| {
                // The calls L1 has made per slice so far (L1 runs its block
                // before L0 does).
                let per_slice = smr_calls().map(|n| n.div_ceil(ds_slices.get()) as usize);
                primitive_slice(&l0_smr, &mut l0_ctx, &cell, per_slice);
                Ok(0)
            }),
        },
    ];

    let replay = if w.entry == Entry::Net {
        let frames = Frames::encode(&stream);
        let schemes: Vec<S> = (0..SHARDS).map(|_| make()).collect();
        let store = KvStore::new(&schemes, w.kv_config());
        preload(w, &store);
        let (replay, _) = serve(&store, |addr| {
            let mut pipe = Pipe::connect(addr, &frames, &stream, w.preload_model())?;
            let mut layers = vec![Layer {
                name: LAYERS[0],
                checked: true,
                run_slice: Box::new(move |s| {
                    pipe.seek_burst(s * DEPTH);
                    for _ in 0..DEPTH {
                        pipe.send_burst()?;
                    }
                    let before = pipe.failed;
                    for _ in 0..DEPTH {
                        pipe.recv_burst()?;
                    }
                    Ok(pipe.failed - before)
                }),
            }];
            layers.extend(lower);
            interleave(layers, slices, &mut log)
        })?;
        replay
    } else {
        interleave(lower, slices, &mut log)?
    };

    let calls = smr_calls();
    let ds_ops = (ds_slices.get() * SLICE as u64) as f64;
    let mean_chain_len =
        live_keys.get() as f64 / ds_slices.get() as f64 / map.bucket_count() as f64;
    let timer_ns = timer_overhead_ns();
    let (kv_kinds, kv_failed) =
        time_kinds(&mut kv_target, &stream, slices, &mut kv_model, timer_ns);
    let (ds_kinds, ds_failed) =
        time_kinds(&mut ds_target, &stream, slices, &mut ds_model, timer_ns);
    let timed_ops = 2 * (slices / 4 * SLICE) as u64;

    let mut ns_per_op = [None; 4];
    let first = LAYERS.len() - replay.ns_per_op.len();
    for (i, &ns) in replay.ns_per_op.iter().enumerate() {
        ns_per_op[first + i] = Some(ns);
    }
    let (codec_ns_per_op, frame_io_ns_per_op) = if w.entry == Entry::Net {
        wire_format_ns(&stream)
    } else {
        (0.0, 0.0)
    };
    Ok(Traced {
        attempted: measured.attempted + replay.attempted + timed_ops,
        failed: measured.failed + replay.failed + kv_failed + ds_failed,
        measured,
        ns_per_op,
        untraced_top_ns_per_op: replay.untraced_top_ns_per_op,
        kv_kinds,
        ds_kinds,
        smr: probe_smr(make),
        smr_calls_per_op: (
            calls[0] as f64 / ds_ops,
            calls[1] as f64 / ds_ops,
            calls[2] as f64 / ds_ops,
        ),
        mean_chain_len,
        codec_ns_per_op,
        frame_io_ns_per_op,
        emit_ns: probe_emit_ns(),
        log,
    })
}

/// Runs slice `slice` of the (cyclic) stream as four 64-op bursts.
fn run_slice<T: Target>(
    target: &mut T,
    stream: &[Op],
    slice: usize,
    model: &mut Model,
    mut timer: Option<&mut KindTimer>,
) -> u64 {
    let base = slice * SLICE % stream.len();
    (0..DEPTH)
        .map(|b| {
            let at = base + b * BURST;
            exec_burst(
                target,
                &stream[at..at + BURST],
                at,
                model,
                timer.as_deref_mut(),
            )
        })
        .sum()
}

/// A scheme instance with a recorder attached the way `KvStore::new`
/// attaches one to every shard, so L1 and L0 pay the same tracing as L2.
fn traced_scheme<S: Smr>(make: &impl Fn() -> S) -> (S, Recorder) {
    let smr = make();
    let recorder = Recorder::new(crate::workload::SCHEME_THREADS);
    smr.attach_recorder(&recorder);
    (smr, recorder)
}

/// `[BeginOp, Load, Retire]` hook counts: the `Smr` calls made so far.
/// Schemes whose `load` is a plain atomic load (EBR) count no loads, and
/// rightly so: there is no scheme code to time.
fn smr_calls_so_far(recorder: &Recorder) -> [u64; 3] {
    [Hook::BeginOp, Hook::Load, Hook::Retire].map(|h| recorder.metrics().hook_count(h))
}

/// A non-null, aligned, never-dereferenced link word for `load` probes.
const PROBE_WORD: usize = 0x1000;

/// Same size as an `era-ds` map node, so the allocator sees the same class.
#[repr(C)]
struct ProbeNode {
    header: SmrHeader,
    key: i64,
    value: i64,
    next: usize,
}

/// # Safety
/// `p` must come from `Box::into_raw(Box<ProbeNode>)` and be unreachable.
unsafe fn drop_probe_node(p: *mut u8) {
    // SAFETY: the contract above — `p` is a leaked, unshared `Box<ProbeNode>`.
    unsafe { drop(Box::from_raw(p.cast::<ProbeNode>())) }
}

/// What an insert-then-remove costs the scheme: allocate, `init_header`,
/// `retire`. Must be called inside an operation bracket.
fn alloc_and_retire<S: Smr>(smr: &S, ctx: &mut S::ThreadCtx, key: i64) {
    let node = Box::into_raw(Box::new(ProbeNode {
        header: SmrHeader::new(),
        key,
        value: 0,
        next: 0,
    }));
    // SAFETY: `node` was allocated just above and never published, so it is
    // unreachable from every shared location and retired exactly once;
    // `drop_probe_node` frees exactly this `Box<ProbeNode>`.
    unsafe {
        smr.init_header(ctx, &(*node).header);
        smr.retire(ctx, node.cast::<u8>(), &(*node).header, drop_probe_node);
    }
}

/// One L0 slice: 256 operation brackets with `[_, loads, retires]` calls
/// spread evenly inside them. Half of the `Load` events of a traversal are
/// `protect_alias` transfers (one per hop, beside the `load`), so they are
/// replayed as such.
fn primitive_slice<S: Smr>(
    smr: &S,
    ctx: &mut S::ThreadCtx,
    cell: &AtomicUsize,
    per_slice: [usize; 3],
) {
    let [_, mut loads, mut retires] = per_slice;
    for op in 0..SLICE {
        smr.begin_op(ctx);
        let ops_left = SLICE - op;
        let n = loads.div_ceil(ops_left);
        for i in 0..n {
            if i % 2 == 0 {
                std::hint::black_box(smr.load(ctx, 0, cell));
            } else {
                smr.protect_alias(ctx, 2, 0, PROBE_WORD);
            }
        }
        loads -= n;
        let n = retires.div_ceil(ops_left);
        for _ in 0..n {
            alloc_and_retire(smr, ctx, op as i64);
        }
        retires -= n;
        smr.end_op(ctx);
    }
}

/// Best of five repetitions of `reps` calls, in nanoseconds per call:
/// scheduler noise only ever adds time (the E9 method).
fn min_ns_per_call(reps: usize, mut body: impl FnMut(usize)) -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            for i in 0..reps {
                body(i);
            }
            start.elapsed().as_nanos() as f64 / reps as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn probe_smr<S: Smr>(make: &impl Fn() -> S) -> SmrProbe {
    let (smr, _recorder) = traced_scheme(make);
    let mut ctx = smr.register().expect("fresh scheme has a free slot");
    let cell = AtomicUsize::new(PROBE_WORD);
    let op_bracket_ns = min_ns_per_call(1 << 20, |_| {
        smr.begin_op(&mut ctx);
        smr.end_op(&mut ctx);
    });
    smr.begin_op(&mut ctx);
    let protect_ns = min_ns_per_call(1 << 20, |_| {
        std::hint::black_box(smr.load(&mut ctx, 0, &cell));
    });
    smr.end_op(&mut ctx);
    let bracketed_retire_ns = min_ns_per_call(1 << 18, |i| {
        smr.begin_op(&mut ctx);
        alloc_and_retire(&smr, &mut ctx, i as i64);
        smr.end_op(&mut ctx);
    });
    SmrProbe {
        op_bracket_ns,
        protect_ns,
        retire_ns: (bracketed_retire_ns - op_bracket_ns).max(0.0),
    }
}

fn probe_emit_ns() -> f64 {
    let recorder = Recorder::new(1);
    let mut tracer = recorder.tracer(0, SchemeId::NONE);
    min_ns_per_call(1 << 20, |i| tracer.emit(Hook::BeginOp, i as u64, 0))
}

/// `(codec, frame_io)` nanoseconds per op of the wire format, in memory.
/// The codec is what a request pays on the serving path — `Request::decode`,
/// `Response::encode`, `Response::decode`; requests are encoded before
/// timing — and frame I/O is the rest of `read_frame` (both directions) and
/// `write_response`.
fn wire_format_ns(stream: &[Op]) -> (f64, f64) {
    let frames = Frames::encode(stream);
    let replies: Vec<Response> = stream
        .iter()
        .enumerate()
        .map(|(pos, op)| Response::Value(Some(put_value(op.key(), pos))))
        .collect();
    let (mut scratch, mut reply_scratch, mut wire) =
        (Vec::new(), Vec::new(), Vec::with_capacity(64));

    let start = Instant::now();
    let mut requests = Cursor::new(&frames.bytes[..]);
    for reply in &replies {
        let frame = read_frame(&mut requests, &mut scratch)
            .expect("in-memory read")
            .expect("one frame per op");
        std::hint::black_box(Request::decode(frame).expect("own encoding decodes"));
        wire.clear();
        write_response(&mut wire, reply).expect("in-memory write");
        let frame = read_frame(&mut &wire[..], &mut reply_scratch)
            .expect("in-memory read")
            .expect("one reply");
        std::hint::black_box(Response::decode(frame).expect("own encoding decodes"));
    }
    let with_io = start.elapsed().as_nanos() as f64 / stream.len() as f64;

    let start = Instant::now();
    let mut at = 0;
    for reply in &replies {
        let len = u32::from_be_bytes(frames.bytes[at..at + 4].try_into().expect("4-byte prefix"))
            as usize;
        std::hint::black_box(
            Request::decode(&frames.bytes[at + 4..at + 4 + len]).expect("own encoding decodes"),
        );
        at += 4 + len;
        wire.clear();
        reply.encode(&mut wire);
        std::hint::black_box(Response::decode(&wire[4..]).expect("own encoding decodes"));
    }
    let codec = start.elapsed().as_nanos() as f64 / stream.len() as f64;
    (codec, (with_io - codec).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: Option<u32>,
        layer: &'static str,
        slice: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            layer,
            slice,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(0, None, "era-net", 0, 0, 100),
            span(1, None, "era-net", 1, 100, 260),
            span(2, Some(0), "era-kv", 0, 300, 340),
            span(3, Some(1), "era-kv", 1, 340, 400),
            span(4, Some(2), "era-ds", 0, 500, 530),
            span(5, Some(3), "era-ds", 1, 530, 540),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 100, 10, 50, 30, 10]);
        let log = SpanLog {
            origin: Instant::now(),
            spans,
        };
        assert_eq!(
            log.by_layer(),
            vec![
                ("era-net", 260, 160),
                ("era-kv", 100, 60),
                ("era-ds", 40, 40)
            ]
        );
        // Self times telescope: they add up to the top layer's total.
        let (top_total, self_sum) = log
            .by_layer()
            .iter()
            .fold((0, 0), |(t, s), l| (t.max(l.1), s + l.2));
        assert_eq!(top_total, self_sum);
    }

    #[test]
    fn interleaved_layers_link_each_slice_to_the_layer_above() {
        let slices = BLOCK_SLICES + 6; // one full block and a short one
        let ran = [Cell::new(0usize), Cell::new(0usize)];
        let layers = vec![
            Layer {
                name: LAYERS[1],
                checked: true,
                run_slice: Box::new(|_| {
                    ran[0].set(ran[0].get() + 1);
                    Ok(0)
                }),
            },
            Layer {
                name: LAYERS[2],
                checked: false,
                run_slice: Box::new(|s| {
                    ran[1].set(ran[1].get() + 1);
                    Ok(u64::from(s == 3))
                }),
            },
        ];
        let mut log = SpanLog::new();
        let replay = interleave(layers, slices, &mut log).unwrap();
        // Warm-up (half), then the top layer twice (untraced + traced).
        assert_eq!(ran[0].get(), slices / 2 + 2 * slices);
        assert_eq!(ran[1].get(), slices / 2 + slices);
        assert_eq!(replay.attempted, ((slices / 2 + 2 * slices) * SLICE) as u64);
        assert_eq!(
            replay.failed, 2,
            "slice 3 fails in warm-up and in the traced pass"
        );
        assert_eq!(log.spans.len(), 2 * slices);
        for (i, s) in log.spans.iter().enumerate() {
            assert_eq!(s.id as usize, i);
            match s.layer {
                "era-kv" => assert!(s.parent.is_none()),
                _ => {
                    let parent = &log.spans[s.parent.unwrap() as usize];
                    assert_eq!((parent.layer, parent.slice), ("era-kv", s.slice));
                }
            }
        }
        for layer in ["era-kv", "era-ds"] {
            let mut seen: Vec<u32> = log
                .spans
                .iter()
                .filter(|s| s.layer == layer)
                .map(|s| s.slice)
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..slices as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn primitive_slice_makes_exactly_the_calls_asked_for() {
        let (smr, recorder) = traced_scheme(&|| era_smr::hp::Hp::new(2, 3));
        let mut ctx = smr.register().unwrap();
        let cell = AtomicUsize::new(PROBE_WORD);
        primitive_slice(&smr, &mut ctx, &cell, [SLICE, 1000, 77]);
        assert_eq!(smr_calls_so_far(&recorder), [SLICE as u64, 1000, 77]);
        assert_eq!(smr.stats().total_retired, 77);
    }

    #[test]
    fn wire_format_probe_reports_positive_costs() {
        let w = Workload::by_name("net-churn-ebr").unwrap();
        let (codec, frame_io) = wire_format_ns(&w.stream(1, 0)[..4096]);
        assert!(codec > 0.0 && frame_io >= 0.0);
    }
}
