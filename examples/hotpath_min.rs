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
//! The first row is what the tracing substrate costs in memory before
//! it records anything: the resident set a freshly created ring adds
//! (`VmRSS`, Linux only), averaged over 64 tracers that never emit. Its
//! 512 slots are allocated uninitialised, so it commits a page or two,
//! not the 12 KiB of a zero-filled ring (target <= 5.3 KB). The second
//! is what a ring commits once it has wrapped: 64 tracers of a recorder
//! that retains 4 096 events, each emitting 8 192 `Retire`s. Every
//! ring is a 512-slot buffer its owner packs every half ring, so the
//! target is at most 16 KB a ring (its 12 KiB and the pages around it).
//!
//! The next two rows time the tracing substrate itself: one recorded
//! `ThreadTracer::emit(Hook::Retire)` with one tracer running alone,
//! and with two tracers of the *same* recorder emitting concurrently,
//! on a recorder that retains nothing, as a `KvStore` shard's does: a
//! ring write, and once per half ring a trim count under the log's
//! lock. A reading hook's emit writes only thread-private lines (DESIGN
//! §3.6), so the second row must stay within 2× of the first; a shared
//! word on that path shows up here as a 4–10× gap that a one-thread
//! probe can never see. The third is the price of a recorded event on
//! a recorder that retains — `Recorder::new`'s 2^16, already at its
//! cap, as `era-net`'s and the flight recorder's sources are — where
//! the tracer also packs each half ring (256 events) it completes into
//! a chunk, publishes it and trims the oldest chunk off the log: its
//! gap to the first row is the owner's packing and trimming, amortised
//! per event. The fourth times a counted hook (`Hook::Load`): a bump of
//! the tracer's own counter, no clock read and no ring write. The row
//! after them times what the emits are for: one HP operation (begin,
//! two protected loads, end) on a stable word, recorder attached —
//! four counted hooks and the work they count.
//!
//! The `kv write` rows do the same for the write path a service runs:
//! put/remove churn on a 4-shard HP `KvStore`, one thread alone and two
//! threads on disjoint keys. The keys share nothing, so a 2-thread row
//! well above the 1-thread one is a shard-wide word written per write
//! (an admission counter, a per-node lock or clock tick on reclaim).
//!
//! The `navigator tick` row prices what a write pays for the
//! navigator: `KvStore::navigate` steps `KvStore::navigator_tick` once
//! per `NAV_EVERY` writes of the context that calls it, as `era-net`'s
//! workers and the scenario workers do. It times ticks on a 4-shard EBR
//! store whose recorders a `FlightRecorder` holds, as the server arms
//! them, and prints ns per tick and ns per write (÷ `NAV_EVERY`). The
//! target is under 1 ns per write.
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
use era::kv::{KvConfig, KvCtx, KvStore, NAV_EVERY};
use era::obs::{FlightRecorder, Hook, Recorder, SchemeId};
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

/// This process's resident set in KB, if `/proc/self/status` says.
fn vm_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The resident KB each of 64 freshly created tracers' rings adds
/// before it records anything. Run first, while the heap has no freed
/// (already committed) memory for the rings to reuse.
fn bench_ring_commit() {
    const TRACERS: u16 = 64;
    let Some(before) = vm_rss_kb() else {
        return;
    };
    let recorder = Recorder::new(usize::from(TRACERS));
    let tracers: Vec<_> = (0..TRACERS)
        .map(|thread| recorder.tracer(thread, SchemeId::NONE))
        .collect();
    let after = vm_rss_kb().unwrap_or(before);
    out!(
        "ring commit: {:.1} KB VmRSS per fresh, never-written ring \
         ({TRACERS} tracers, 512 slots each; target <= 5.3)",
        after.saturating_sub(before) as f64 / f64::from(TRACERS)
    );
    drop(tracers);
}

/// The resident KB each of 64 rings adds once it has taken 16 laps'
/// worth of `Retire`s. The recorder keeps 4 096 events, trimmed as each
/// owner publishes, so the chunks it frees are reused and what grows is
/// the rings.
fn bench_wrapped_ring_commit() {
    const TRACERS: u16 = 64;
    const RETAINED: usize = 4_096;
    let Some(before) = vm_rss_kb() else {
        return;
    };
    let recorder = Recorder::with_max_retained(usize::from(TRACERS), RETAINED);
    let mut tracers: Vec<_> = (0..TRACERS)
        .map(|thread| recorder.tracer(thread, SchemeId::NONE))
        .collect();
    for tracer in &mut tracers {
        for i in 0..2 * RETAINED as u64 {
            tracer.emit(Hook::Retire, i, 0);
        }
    }
    let after = vm_rss_kb().unwrap_or(before);
    out!(
        "ring commit after a wrap: {:.1} KB VmRSS per ring \
         ({TRACERS} tracers, {} emitted each, {RETAINED} retained; target <= 16)",
        after.saturating_sub(before) as f64 / f64::from(TRACERS),
        2 * RETAINED
    );
    drop(tracers);
}

/// Min-of-reps ns/emit of a recorded `Retire` for one tracer alone and
/// for two tracers of one recorder emitting at the same time, on a
/// recorder that retains nothing, then for one tracer of a recorder at
/// its cap, then of a counted `Load` alone.
/// A two-thread repetition costs what its slower thread took, so a
/// descheduled peer only ever adds time and the minimum still tracks
/// the contended cost.
fn bench_emit() {
    let recorder = Recorder::with_max_retained(2, 0);
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
    let retaining = Recorder::new(1);
    let mut owner = retaining.tracer(0, SchemeId::NONE);
    // A burst is 16 caps' worth: after the first, every publish timed
    // trims a chunk.
    emit_burst(|i| owner.emit(Hook::Retire, i, 0));
    let packing = min_of_reps(&mut || emit_burst(|i| owner.emit(Hook::Retire, i, 0)));
    out!("emit 1 thread : min {alone:.1} ns/emit  (target <= 2.9)");
    out!(
        "emit 2 threads: min {together:.1} ns/emit  ({:.2}x the 1-thread row)",
        together / alone
    );
    out!(
        "emit + owner pack, amortised (Hook::Retire, recorder at its cap): \
         min {packing:.1} ns/emit  (+{:.1} ns over the 1-thread row; target <= 14.7)",
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

/// Min-of-reps ns per `KvStore::navigator_tick` of a robust 4-shard EBR
/// store with some footprint, its recorders held by a `FlightRecorder`,
/// as `era-net` arms them.
fn bench_navigator_tick() {
    const TICKS: usize = 1 << 14;
    let schemes: Vec<Ebr> = (0..4).map(|_| Ebr::new(4)).collect();
    let store = KvStore::new(&schemes, KvConfig::default());
    let flight = FlightRecorder::new();
    for i in 0..store.shard_count() {
        flight.add_source(&format!("shard{i}"), store.recorder(i));
    }
    let mut ctx = store.register().expect("capacity");
    for k in 0..1024 {
        store.put(&mut ctx, k, k).expect("robust shard admits");
        store.remove(&mut ctx, k).expect("robust shard admits");
    }
    let best = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..TICKS {
                store.navigator_tick();
            }
            start.elapsed().as_secs_f64() * 1e9 / TICKS as f64
        })
        .fold(f64::INFINITY, f64::min);
    out!(
        "navigator tick (4 EBR shards): min {best:.0} ns/tick, {:.3} ns per write \
         (one tick per {NAV_EVERY} writes)",
        best / NAV_EVERY as f64
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
    bench_ring_commit();
    bench_wrapped_ring_commit();
    bench_emit();
    bench_hp_op();
    out!("-- kv write, 1 vs 2 threads (put/remove churn, 4 HP shards, disjoint keys)");
    bench_kv_write();
    out!("-- navigator tick (a served write's share: one tick per {NAV_EVERY} writes)");
    bench_navigator_tick();
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
