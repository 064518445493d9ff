//! Min-of-reps single-thread traversal microbenchmark (E9 companion).
//!
//! Measures ns/op for read-heavy searches under EBR/HP/leak across
//! key ranges, with a min-of-many-repetitions estimator: on a shared
//! 1-vCPU host, wall-clock medians swing by ±50% between consecutive
//! runs, but the *minimum* over 31 repetitions tracks the true cost —
//! scheduler noise only ever adds time. EXPERIMENTS.md E9 uses this
//! probe (built identically on both sides, run interleaved A/B) to
//! attribute throughput deltas to the scheme hot paths.
//!
//! The first two rows time the tracing substrate itself: one recorded
//! `ThreadTracer::emit(Hook::Retire)` with one tracer running alone,
//! and with two tracers of the *same* recorder emitting concurrently.
//! A reading hook's emit writes only thread-private lines (DESIGN
//! §3.6), so the second row must stay within 2× of the first; a shared
//! word on that path shows up here as a 4–10× gap that a one-thread
//! probe can never see. The third times the same emits on a recorder a
//! `FlightRecorder` holds, so the tracer also packs each half-ring it
//! completes into a chunk: its gap to the first row is the owner's
//! packing, amortised per event. The fourth times a counted hook
//! (`Hook::Load`): a bump of the tracer's own counter, no clock read
//! and no ring write. The row after them times what the emits are for:
//! one HP operation (begin, two protected loads, end) on a stable
//! word, recorder attached — four counted hooks and the work they
//! count.
//!
//! The `kv write` rows do the same for the write path a service runs:
//! put/remove churn on a 4-shard HP `KvStore`, one thread alone and two
//! threads on disjoint keys. The keys share nothing, so a 2-thread row
//! well above the 1-thread one is a shard-wide word written per write
//! (an admission counter, a per-node lock or clock tick on reclaim).
//!
//! The `flight poll` row times the flight recorder's watchdog poll in
//! its steady state on a busy server: one source already at its
//! retained-event cap, its owners having packed one full ring's worth
//! of an EBR shard's put/remove churn, so the poll takes a ring's worth
//! of chunks and trims as many. It also prints what a retained event
//! costs packed. (An EBR shard's GETs record nothing: their hooks are
//! counted.)
//!
//! The `smr load` rows time one protected [`Smr::load`] of a
//! word nobody changes, recorder attached as `KvStore::new` attaches
//! one: what a scheme charges per node a traversal steps onto, before
//! any structure is involved (HP: publish, full barrier, re-validate).
//!
//! Run with: `cargo run --release --example hotpath_min`

use std::hint::black_box;
use std::io::{ErrorKind, Write};
use std::sync::atomic::AtomicUsize;
use std::sync::Barrier;
use std::time::Instant;

use era::chaos::ChaosSmr;
use era::ds::{HarrisList, MichaelMap};
use era::kv::{KvConfig, KvCtx, KvStore};
use era::obs::flight::DEFAULT_MAX_RETAINED;
use era::obs::{FlightRecorder, Hook, Recorder, SchemeId, ThreadTracer, DEFAULT_RING_CAPACITY};
use era::smr::common::{Smr, SupportsUnlinkedTraversal};
use era::smr::ebr::Ebr;
use era::smr::he::He;
use era::smr::hp::Hp;
use era::smr::ibr::Ibr;
use era::smr::leak::Leak;
use era::smr::nbr::Nbr;

const OPS_PER_REP: usize = 100_000;
const REPS: usize = 31;
const EMITS_PER_REP: usize = 1 << 20;
const WRITES_PER_REP: usize = 1 << 16;

/// `println!` that takes a closed stdout (`hotpath_min | head`) as the
/// end of the output: the run stops there and exits 0.
macro_rules! out {
    ($($arg:tt)*) => {
        print_row(format_args!($($arg)*))
    };
}

fn print_row(row: std::fmt::Arguments<'_>) {
    match writeln!(std::io::stdout(), "{row}") {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        written => written.expect("failed printing to stdout"),
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Times `REPS` repetitions of `OPS_PER_REP` calls to `op` (fed seeded
/// pseudo-random keys in `[lo, lo + span)`) and prints min/p25/median.
fn measure(name: &str, lo: i64, span: i64, mut op: impl FnMut(i64) -> bool) {
    let mut times: Vec<f64> = Vec::with_capacity(REPS);
    let mut sink = 0usize;
    for rep in 0..REPS {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (rep as u64);
        let start = Instant::now();
        for _ in 0..OPS_PER_REP {
            let k = lo + (lcg(&mut rng) % span as u64) as i64;
            sink += op(k) as usize;
        }
        times.push(start.elapsed().as_secs_f64() * 1e9 / OPS_PER_REP as f64);
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    out!(
        "{name}: min {:.1} ns/op  p25 {:.1}  median {:.1}  (sink {sink})",
        times[0],
        times[REPS / 4],
        times[REPS / 2]
    );
}

/// ns per emit of one burst of `EMITS_PER_REP` calls of `emit(i)`.
fn emit_burst(mut emit: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..EMITS_PER_REP {
        emit(i as u64);
    }
    start.elapsed().as_secs_f64() * 1e9 / EMITS_PER_REP as f64
}

/// Min-of-reps ns/emit of a recorded `Retire` for one tracer alone and
/// for two tracers of one recorder emitting at the same time, then for
/// one tracer whose recorder a flight recorder holds (polled between
/// repetitions, as a watchdog would), then of a counted `Load` alone.
/// A two-thread repetition costs what its slower thread took, so a
/// descheduled peer only ever adds time and the minimum still tracks
/// the contended cost.
fn bench_emit() {
    let recorder = Recorder::new(2);
    let mut first = recorder.tracer(0, SchemeId::NONE);
    let mut second = recorder.tracer(1, SchemeId::NONE);
    let min_of_reps =
        |rep: &mut dyn FnMut() -> f64| (0..REPS).map(|_| rep()).fold(f64::INFINITY, f64::min);
    let alone = min_of_reps(&mut || emit_burst(|i| first.emit(Hook::Retire, i, 0)));
    let together = min_of_reps(&mut || {
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            let peer = s.spawn(|| {
                start.wait();
                emit_burst(|i| second.emit(Hook::Retire, i, 0))
            });
            start.wait();
            emit_burst(|i| first.emit(Hook::Retire, i, 0)).max(peer.join().expect("emit thread"))
        })
    });
    let counted = min_of_reps(&mut || emit_burst(|i| first.emit(Hook::Load, i, 0)));
    let held = Recorder::new(1);
    let flight = FlightRecorder::single("held", &held);
    let mut owner = held.tracer(0, SchemeId::NONE);
    let packing = min_of_reps(&mut || {
        flight.poll();
        emit_burst(|i| owner.emit(Hook::Retire, i, 0))
    });
    out!("emit 1 thread : min {alone:.1} ns/emit");
    out!(
        "emit 2 threads: min {together:.1} ns/emit  ({:.2}x the 1-thread row)",
        together / alone
    );
    out!(
        "emit + owner pack, amortised (Hook::Retire, flight-held recorder): \
         min {packing:.1} ns/emit  (+{:.1} ns over the 1-thread row)",
        packing - alone
    );
    out!("emit counted (Hook::Load), 1 thread: min {counted:.1} ns/emit");
}

/// Min-of-reps ns per HP operation on a stable word: `begin_op`, two
/// protected loads, `end_op`, recorder attached — four counted hooks
/// and the scheme work they count.
fn bench_hp_op() {
    let hp = Hp::new(2, 3);
    let recorder = Recorder::new(2);
    hp.attach_recorder(&recorder);
    let mut ctx = hp.register().expect("capacity");
    let node = 0u64;
    let word = AtomicUsize::new(&node as *const u64 as usize);
    let best = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..EMITS_PER_REP {
                hp.begin_op(&mut ctx);
                black_box(hp.load(&mut ctx, 0, black_box(&word)));
                black_box(hp.load(&mut ctx, 1, black_box(&word)));
                hp.end_op(&mut ctx);
            }
            start.elapsed().as_secs_f64() * 1e9 / EMITS_PER_REP as f64
        })
        .fold(f64::INFINITY, f64::min);
    out!("hp op (begin, two loads, end), recorder attached: min {best:.1} ns/op");
}

/// Fills two rings with a ring's worth of what an EBR shard under
/// put/remove churn emits: a worker retires 64 nodes at heap-like
/// addresses, then the service tracer (thread `u16::MAX`, as
/// `StatCells::reclaim` uses) reclaims them as one run carrying each
/// node's retire→reclaim latency. A retire only reads the clock, so
/// the 64 are all stamped `retired_at`.
fn fill_churn(
    recorder: &Recorder,
    worker: &mut ThreadTracer,
    service: &mut ThreadTracer,
    rng: &mut u64,
) {
    let mut nodes = [0u64; 64];
    for _ in 0..DEFAULT_RING_CAPACITY / (2 * nodes.len()) {
        let retired_at = recorder.now();
        for (held, node) in nodes.iter_mut().enumerate() {
            *node = 0x7f3a_0000_0000 + lcg(rng) % (1 << 14) * 64;
            worker.emit(Hook::Retire, *node, held as u64 + 1);
        }
        service.emit_run(Hook::Reclaim, nodes.len(), |k, ts| {
            (nodes[k], ts - retired_at)
        });
    }
}

/// Min-of-reps ns per `FlightRecorder::poll` of one source holding
/// `DEFAULT_MAX_RETAINED` events, `fill` having its owners pack one
/// full ring's worth before each, and the bytes a retained event takes.
fn bench_flight_poll(name: &str, recorder: &Recorder, mut fill: impl FnMut()) {
    let flight = FlightRecorder::single("shard0", recorder);
    for _ in 0..DEFAULT_MAX_RETAINED / DEFAULT_RING_CAPACITY {
        fill();
        flight.poll();
    }
    let best = (0..REPS)
        .map(|_| {
            fill();
            let start = Instant::now();
            flight.poll();
            start.elapsed().as_secs_f64() * 1e9
        })
        .fold(f64::INFINITY, f64::min);
    out!(
        "flight poll, {name}: min {best:.0} ns/poll ({:.2} ns per taken event, \
         {:.2} B per retained event)",
        best / DEFAULT_RING_CAPACITY as f64,
        flight.packed_bytes() as f64 / DEFAULT_MAX_RETAINED as f64
    );
}

/// ns per write of one burst of `WRITES_PER_REP` writes: put then
/// remove of keys `owner`, `owner + 2`, … (so two owners never share a
/// key), every remove retiring a node.
fn write_burst(store: &KvStore<'_, Hp>, ctx: &mut KvCtx<Hp>, owner: i64) -> f64 {
    let start = Instant::now();
    for i in 0..(WRITES_PER_REP / 2) as i64 {
        let key = 2 * (i % 1024) + owner;
        store.put(ctx, key, i).expect("robust shard admits");
        store.remove(ctx, key).expect("robust shard admits");
    }
    start.elapsed().as_secs_f64() * 1e9 / WRITES_PER_REP as f64
}

/// Min-of-reps ns/write on a 4-shard HP store, for one writer alone
/// and for two writers on disjoint keys, timed as `bench_emit` does.
fn bench_kv_write() {
    let schemes: Vec<Hp> = (0..4).map(|_| Hp::new(4, 3)).collect();
    let store = KvStore::new(&schemes, KvConfig::default());
    let mut first = store.register().expect("capacity");
    let mut second = store.register().expect("capacity");
    let alone = (0..REPS)
        .map(|_| write_burst(&store, &mut first, 0))
        .fold(f64::INFINITY, f64::min);
    let together = (0..REPS)
        .map(|_| {
            let start = Barrier::new(2);
            std::thread::scope(|s| {
                let peer = s.spawn(|| {
                    start.wait();
                    write_burst(&store, &mut second, 1)
                });
                start.wait();
                write_burst(&store, &mut first, 0).max(peer.join().expect("write thread"))
            })
        })
        .fold(f64::INFINITY, f64::min);
    out!("kv write 1 thread : min {alone:.1} ns/op");
    out!(
        "kv write 2 threads: min {together:.1} ns/op  ({:.2}x the 1-thread row)",
        together / alone
    );
}

/// Min-of-reps ns per protected load of a stable word, inside one
/// operation, tracer armed.
fn bench_load<S: Smr>(name: &str, smr: &S) {
    let recorder = Recorder::new(2);
    smr.attach_recorder(&recorder);
    let mut ctx = smr.register().expect("capacity");
    let node = 0u64;
    let word = AtomicUsize::new(&node as *const u64 as usize);
    smr.begin_op(&mut ctx);
    let best = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..EMITS_PER_REP {
                black_box(smr.load(&mut ctx, 0, black_box(&word)));
            }
            start.elapsed().as_secs_f64() * 1e9 / EMITS_PER_REP as f64
        })
        .fold(f64::INFINITY, f64::min);
    smr.end_op(&mut ctx);
    out!("{name} load: min {best:.1} ns/load");
}

fn bench_michael<S: Smr>(name: &str, smr: &S, key_range: i64) {
    let list = MichaelMap::new(smr);
    let mut ctx = smr.register().expect("capacity");
    for k in (0..key_range).step_by(2) {
        list.insert_if_absent(&mut ctx, k, 0);
    }
    measure(name, 0, key_range, |k| list.get(&mut ctx, k).is_some());
}

fn bench_harris<S: Smr + SupportsUnlinkedTraversal>(name: &str, smr: &S, key_range: i64) {
    let list = HarrisList::new(smr);
    let mut ctx = smr.register().expect("capacity");
    for k in (2..key_range).step_by(2) {
        list.insert(&mut ctx, k);
    }
    // Keys start at 1: the Harris sentinels reserve i64::MIN/MAX.
    measure(name, 1, key_range - 1, |k| list.contains(&mut ctx, k));
}

fn main() {
    out!("-- era-obs emit (Hook::Retire recorded, Hook::Load counted; one recorder)");
    bench_emit();
    bench_hp_op();
    out!(
        "-- flight poll (one source at its {DEFAULT_MAX_RETAINED}-event cap, \
         one {DEFAULT_RING_CAPACITY}-event ring's worth of chunks to take)"
    );
    let recorder = Recorder::new(1);
    let mut worker = recorder.tracer(0, SchemeId::EBR);
    let mut service = recorder.tracer(u16::MAX, SchemeId::EBR);
    let mut rng = 1;
    bench_flight_poll("ebr churn", &recorder, || {
        fill_churn(&recorder, &mut worker, &mut service, &mut rng)
    });
    out!("-- kv write, 1 vs 2 threads (put/remove churn, 4 HP shards, disjoint keys)");
    bench_kv_write();
    out!("-- smr load (one protected load of a stable word, recorder attached)");
    bench_load("hp ", &Hp::new(2, 3));
    bench_load("he ", &He::new(2, 3));
    bench_load("ibr", &Ibr::new(2));
    bench_load("ebr", &Ebr::new(2));
    for kr in [16i64, 32, 64, 128, 1024] {
        out!("-- key_range {kr}");
        bench_michael("michael+ebr ", &Ebr::new(2), kr);
        // Acceptance probe for era-chaos: an empty-plan ChaosSmr is one
        // relaxed increment + one load per begin_op, so this row must
        // sit on top of the bare-EBR row (min-estimator noise aside).
        bench_michael("michael+ebrX", &ChaosSmr::transparent(Ebr::new(2)), kr);
        bench_michael("michael+hp  ", &Hp::new(2, 3), kr);
        bench_michael("michael+leak", &Leak::new(2), kr);
        bench_harris("harris+ebr  ", &Ebr::new(2), kr);
        bench_harris("harris+leak ", &Leak::new(2), kr);
        bench_harris("harris+nbr  ", &Nbr::new(2, 2), kr);
    }
}
