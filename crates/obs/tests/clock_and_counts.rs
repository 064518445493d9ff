//! The two contracts of the thread-private emit path (DESIGN §3.6):
//! hook counts are exact although no thread shares a counter, and the
//! merged log is causally ordered although `Reserve` and `Retire` only
//! *read* the logical clock (and `BeginOp`, `EndOp` and `Load`, counted
//! and never recorded, do not touch it).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use era_obs::{Event, FlightDump, Hook, Recorder, SchemeId, SourceDump};

const THREADS: usize = 4;
const ROUNDS: u64 = if cfg!(miri) { 50 } else { 5_000 };
const HANDOFFS: usize = if cfg!(miri) { 20 } else { 1_000 };
/// The noise pairs emitted back to back from each hand-off turn on: a
/// whole ring of events, packed and published while the turn is in
/// flight.
const NOISE_PER_TURN: usize = if cfg!(miri) { 8 } else { 256 };

/// Spins until `turn` holds `value`; the Acquire load pairs with the
/// hand-off's Release store.
fn wait_for(turn: &AtomicUsize, value: usize) {
    while turn.load(Ordering::Acquire) != value {
        std::thread::yield_now();
    }
}

/// Where in `events` each thread first emitted each hook with each
/// payload (its `a`, or a `Reserve`'s `b`): one pass, so a log with
/// millions of noise events is as cheap to search as one without.
fn positions(events: &[Event]) -> HashMap<(u16, u8, u64), usize> {
    let mut index = HashMap::new();
    for (k, e) in events.iter().enumerate() {
        let payload = if e.hook == Hook::Reserve as u8 {
            e.b
        } else {
            e.a
        };
        index.entry((e.thread, e.hook, payload)).or_insert(k);
    }
    index
}

/// Where in the log `index` was built from thread `thread` emitted
/// `hook` #`i` (its payload is `i`).
fn position(index: &HashMap<(u16, u8, u64), usize>, thread: u16, hook: Hook, i: usize) -> usize {
    *index
        .get(&(thread, hook as u8, i as u64))
        .unwrap_or_else(|| panic!("{hook} #{i} of t{thread} missing"))
}

#[test]
fn hook_counts_are_exact_after_the_tracers_are_gone() {
    let recorder = Recorder::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let recorder = &recorder;
            s.spawn(move || {
                let mut tracer = recorder.tracer(t as u16, SchemeId::HP);
                for i in 0..ROUNDS {
                    // Every hook, so the expected count is one formula.
                    let hook = Hook::ALL[(i as usize + t) % Hook::COUNT];
                    tracer.emit(hook, i, 0);
                }
                // The tracer — the counters' only writer — dies here.
            });
        }
    });
    for (k, &hook) in Hook::ALL.iter().enumerate() {
        let expected: u64 = (0..THREADS)
            .map(|t| {
                (0..ROUNDS)
                    .filter(|i| (*i as usize + t) % Hook::COUNT == k)
                    .count() as u64
            })
            .sum();
        assert_eq!(recorder.metrics().hook_count(hook), expected, "{hook}");
    }
}

#[test]
fn reading_hooks_do_not_advance_the_clock() {
    let recorder = Recorder::with_max_retained(1, 1 << 16);
    let mut tracer = recorder.tracer(0, SchemeId::HP);
    tracer.emit(Hook::Advance, 1, 0);
    let before = recorder.now();
    for i in 0..10_000 {
        tracer.emit(Hook::BeginOp, i, 0);
        tracer.emit(Hook::Load, i, 0);
        tracer.emit(Hook::Reserve, i, 0);
        tracer.emit(Hook::Retire, i, 1);
        tracer.emit(Hook::EndOp, i, 0);
    }
    assert_eq!(recorder.now(), before, "a reading hook wrote the clock");
    for hook in [
        Hook::BeginOp,
        Hook::Load,
        Hook::Reserve,
        Hook::Retire,
        Hook::EndOp,
    ] {
        assert_eq!(recorder.metrics().hook_count(hook), 10_000, "{hook}");
    }
    // ...and every recorded one is in the log, stamped `before`; the
    // counted ones are in no ring.
    let log = recorder.drain();
    assert_eq!((log.events.len(), log.trimmed), (20_001, 0));
    assert!(log.events[1..].iter().all(|e| e.ts == before));
    assert!(log.events[1..]
        .chunks(2)
        .all(|op| op[0].hook == Hook::Reserve as u8 && op[1].hook == Hook::Retire as u8));
    tracer.emit(Hook::Reclaim, 1, 0);
    assert_eq!(recorder.now(), before + 1, "a protocol hook ticks");
}

/// Thread A retires and ticks, hands off through a Release/Acquire
/// flag, thread B reserves and then reclaims: the merged log must show
/// A.Retire < A.Advance < B.Reserve < B.Reclaim every time, while a
/// third thread keeps both the clock and the tie-breaking busy. The
/// edge A → B leaves from a ticker, so B's `Reserve` reads a later
/// value and the order holds whatever the threads' slots.
#[test]
fn merged_log_respects_happens_before_across_threads() {
    // The cap, which all three threads' rings share, trims none of the
    // noise.
    let recorder = Recorder::with_max_retained(3, usize::MAX);
    let turn = AtomicUsize::new(0);
    let wait_for = |value: usize| wait_for(&turn, value);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut a = recorder.tracer(0, SchemeId::HP);
            for i in 0..HANDOFFS {
                wait_for(2 * i);
                a.emit(Hook::Retire, i as u64, 0);
                a.emit(Hook::Advance, i as u64, 0);
                // SAFETY(ordering): Release — the hand-off under test:
                // pairs with `wait_for`'s Acquire load, making this
                // thread's emit happen-before the peer's next ones.
                turn.store(2 * i + 1, Ordering::Release);
            }
        });
        s.spawn(|| {
            let mut b = recorder.tracer(1, SchemeId::HP);
            for i in 0..HANDOFFS {
                wait_for(2 * i + 1);
                b.emit(Hook::Reserve, 0, i as u64);
                b.emit(Hook::Reclaim, i as u64, 0);
                // SAFETY(ordering): Release — hands the turn back, as above.
                turn.store(2 * i + 2, Ordering::Release);
            }
        });
        s.spawn(|| {
            // Unpaced within a turn: a burst starts as each turn is
            // handed over and races the peer's wake-up. It is bounded
            // per turn only so that the log, which keeps all of it,
            // stays bounded too: at most a ring of noise per hand-off.
            let mut noise = recorder.tracer(2, SchemeId::HP);
            let (mut seen, mut left) = (usize::MAX, 0);
            loop {
                let now = turn.load(Ordering::Relaxed);
                if now == 2 * HANDOFFS {
                    break;
                }
                if now != seen {
                    (seen, left) = (now, NOISE_PER_TURN);
                }
                if left == 0 {
                    std::hint::spin_loop();
                    continue;
                }
                noise.emit(Hook::Reserve, 0, u64::MAX);
                noise.emit(Hook::Advance, 0, 0);
                left -= 1;
            }
        });
    });
    let log = recorder.drain();
    let index = positions(&log.events);
    let position = |thread: u16, hook: Hook, i: usize| position(&index, thread, hook, i);
    for i in 0..HANDOFFS {
        let retire = position(0, Hook::Retire, i);
        let advance = position(0, Hook::Advance, i);
        let reserve = position(1, Hook::Reserve, i);
        let reclaim = position(1, Hook::Reclaim, i);
        assert!(
            retire < advance && advance < reserve && reserve < reclaim,
            "handoff {i}: {retire} {advance} {reserve} {reclaim}"
        );
    }
    assert!(log.is_time_ordered());
}

/// The order `era-view` rebuilds a node's life from, where the thread
/// tie-break cannot fake it: the `Retire` (a reading event) comes from
/// the *higher* slot, the node's `Reclaim` — first or last of a run, as
/// a scan frees it — from the lower one after a Release/Acquire hand-off,
/// and then the retiring thread loads again, which is recorded as the
/// `Reserve` its publish emits. A third thread keeps the clock moving,
/// so the reclaim's run only sometimes starts at the value the retire
/// read. Every merged log must show Retire < Reclaim (a reader sorts
/// before the ticker it ties with) and Reclaim < Reserve (the run's RMW
/// left the clock past its stamps).
#[test]
fn a_retire_precedes_its_reclaim_and_a_later_load_follows_it() {
    const NOISE: u64 = u64::MAX;
    let recorder = Recorder::with_max_retained(3, usize::MAX);
    let turn = AtomicUsize::new(0);
    let wait_for = |value: usize| wait_for(&turn, value);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut retirer = recorder.tracer(2, SchemeId::HP);
            for i in 0..HANDOFFS {
                wait_for(3 * i);
                retirer.emit(Hook::Retire, i as u64, 1);
                // SAFETY(ordering): Release — the hand-off under test:
                // pairs with `wait_for`'s Acquire load, making the
                // retire happen-before the peer's reclaim.
                turn.store(3 * i + 1, Ordering::Release);
                wait_for(3 * i + 2);
                retirer.emit(Hook::Reserve, 0, i as u64);
                // SAFETY(ordering): Release — hands the turn back, as above.
                turn.store(3 * i + 3, Ordering::Release);
            }
        });
        s.spawn(|| {
            let mut reclaimer = recorder.tracer(0, SchemeId::HP);
            for i in 0..HANDOFFS {
                wait_for(3 * i + 1);
                let n = 1 + i % 4;
                let at = if i % 2 == 0 { 0 } else { n - 1 };
                reclaimer.emit_run(Hook::Reclaim, n, |k, _| {
                    (if k == at { i as u64 } else { NOISE }, 0)
                });
                // SAFETY(ordering): Release — the reclaim happens-before
                // the retirer's next load.
                turn.store(3 * i + 2, Ordering::Release);
            }
        });
        s.spawn(|| {
            let mut ticker = recorder.tracer(1, SchemeId::HP);
            while turn.load(Ordering::Relaxed) != 3 * HANDOFFS {
                ticker.emit(Hook::Advance, NOISE, 0);
                ticker.emit(Hook::Reserve, 0, NOISE);
                std::thread::yield_now();
            }
        });
    });
    // The ticker emits until the hand-offs end; the cap trims none of it.
    let log = recorder.drain();
    assert!(log.is_time_ordered());
    let index = positions(&log.events);
    let position = |thread: u16, hook: Hook, i: usize| position(&index, thread, hook, i);
    for i in 0..HANDOFFS {
        let retire = position(2, Hook::Retire, i);
        let reclaim = position(0, Hook::Reclaim, i);
        let reserve = position(2, Hook::Reserve, i);
        assert!(
            retire < reclaim && reclaim < reserve,
            "handoff {i}: {retire} {reclaim} {reserve}"
        );
        assert!(log.events[retire].ts <= log.events[reclaim].ts);
    }
}

/// A run of `n` protocol events (one clock RMW, `ThreadTracer::emit_run`)
/// is stamped as `n` single emits with nothing in between would be:
/// `n` unique consecutive ticks, exact hook counts, a reader tied with
/// the first tick sorting before it — and a ticker racing on another
/// thread is never issued a tick inside the run.
#[test]
fn a_run_takes_consecutive_ticks_no_concurrent_ticker_splits() {
    const RUN: usize = 64;
    const RUNS: u64 = if cfg!(miri) { 4 } else { 200 };
    const TICKS: u64 = if cfg!(miri) { 100 } else { 20_000 };

    // Alone: the reader reads `t0`, the run starts at it and sorts after.
    let recorder = Recorder::new(3);
    let mut runner = recorder.tracer(0, SchemeId::HP);
    let mut reader = recorder.tracer(2, SchemeId::HP);
    let t0 = recorder.now();
    reader.emit(Hook::Reserve, 0, 0);
    runner.emit_run(Hook::Reclaim, RUN, |k, ts| (k as u64, ts));
    runner.emit_run(Hook::Reclaim, 0, |_, _| {
        unreachable!("an empty run reads no payload")
    });
    assert_eq!(recorder.now(), t0 + RUN as u64, "one tick per event");
    let log = recorder.drain();
    assert_eq!(log.events.len(), RUN + 1);
    assert_eq!(
        (log.events[0].hook, log.events[0].ts),
        (Hook::Reserve as u8, t0)
    );
    for (k, e) in log.events[1..].iter().enumerate() {
        assert_eq!((e.hook, e.a), (Hook::Reclaim as u8, k as u64), "run order");
        assert_eq!((e.ts, e.b), (t0 + k as u64, e.ts), "payload sees its stamp");
    }
    assert_eq!(recorder.metrics().hook_count(Hook::Reclaim), RUN as u64);

    // Raced: every run is gapless, and no `Advance` lands inside one.
    let recorder = Recorder::with_max_retained(2, 1 << 16);
    let runs_done = AtomicUsize::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut ticker = recorder.tracer(1, SchemeId::HP);
            let mut ticks = 0;
            while ticks < TICKS && runs_done.load(Ordering::Relaxed) < RUNS as usize {
                ticker.emit(Hook::Advance, ticks, 0);
                ticks += 1;
            }
        });
        let mut runner = recorder.tracer(0, SchemeId::HP);
        for r in 0..RUNS {
            runner.emit_run(Hook::Reclaim, RUN, |_, _| (r, 0));
            // SAFETY(ordering): Relaxed — a progress count that stops the
            // ticker early; it orders nothing.
            runs_done.fetch_add(1, Ordering::Relaxed);
        }
    });
    let log = recorder.drain();
    assert_eq!(log.trimmed, 0);
    let mut ticks: Vec<u64> = log.events.iter().map(|e| e.ts).collect();
    let total = ticks.len();
    ticks.dedup();
    assert_eq!(ticks.len(), total, "every protocol event has its own tick");
    let advances: Vec<u64> = log.with_hook(Hook::Advance).map(|e| e.ts).collect();
    for r in 0..RUNS {
        let run: Vec<u64> = log
            .with_hook(Hook::Reclaim)
            .filter(|e| e.a == r)
            .map(|e| e.ts)
            .collect();
        assert_eq!(run.len(), RUN, "run {r}");
        let (first, last) = (run[0], run[RUN - 1]);
        assert_eq!(last - first, RUN as u64 - 1, "run {r} is gapless");
        assert!(
            advances.iter().all(|&t| t < first || t > last),
            "a ticker landed inside run {r}"
        );
    }
    assert_eq!(
        recorder.metrics().hook_count(Hook::Reclaim),
        RUNS * RUN as u64
    );
}

/// The same emit sequence — full of tied timestamps — fed to two
/// recorders whose rings were registered in opposite orders.
fn tied_logs() -> [Vec<Event>; 2] {
    [[0u16, 1, 2], [2, 1, 0]].map(|registration| {
        let recorder = Recorder::new(3);
        let mut tracers: Vec<_> = registration
            .iter()
            .map(|&t| (t, recorder.tracer(t, SchemeId::IBR)))
            .collect();
        tracers.sort_by_key(|(t, _)| *t);
        for round in 0..40u64 {
            for (t, tracer) in tracers.iter_mut() {
                tracer.emit(Hook::BeginOp, round, 0);
                tracer.emit(Hook::Reserve, round, 1);
                tracer.emit(Hook::Reserve, round, 2);
                if (round + *t as u64).is_multiple_of(5) {
                    tracer.emit(Hook::Retire, round, 0);
                    tracer.emit(Hook::Reclaim, round, 0);
                }
                tracer.emit(Hook::EndOp, round, 0);
            }
        }
        recorder.drain().events
    })
}

#[test]
fn equal_ring_contents_merge_to_the_same_log_and_survive_a_dump() {
    let [log, mirrored] = tied_logs();
    assert!(
        log.windows(2).any(|w| w[0].ts == w[1].ts),
        "no ties: vacuous"
    );
    assert!(log.windows(2).all(|w| w[0].merge_key() <= w[1].merge_key()));
    assert_eq!(log, mirrored, "merge order depends on ring registration");

    let mut source = SourceDump::new("ties");
    source.events = log.clone();
    let dump = FlightDump {
        sources: vec![source],
        ..FlightDump::new()
    };
    let decoded = FlightDump::decode(&dump.encode()).expect("own encoding decodes");
    assert_eq!(decoded.sources[0].events, log);
}
