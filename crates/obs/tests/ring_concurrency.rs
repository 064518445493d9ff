//! Concurrency and property tests for the trace rings and recorder.
//!
//! These cover the two behaviors a drain must never get wrong:
//! torn-read freedom while owners write and pack their rings, and the
//! drained stream being exactly the emitted stream, each event once,
//! across every lap of every ring.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use era_obs::{Hook, Recorder, SchemeId};

use proptest::prelude::*;

/// Writers on their own rings, one drainer polling concurrently: every
/// event is either drained exactly once or counted trimmed, each
/// thread's events arrive in emit order, and no event is ever torn
/// (payload words are written as `(n, !n)` and must still match).
#[test]
#[cfg_attr(
    miri,
    ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
)]
fn concurrent_writers_single_drainer_no_torn_events() {
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 20_000;

    let recorder = Recorder::new(WRITERS);
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let mut tracer = recorder.tracer(w as u16, SchemeId::NONE);
                scope.spawn(move || {
                    for n in 0..PER_WRITER {
                        tracer.emit(Hook::Sample, n, !n);
                    }
                })
            })
            .collect();

        let drain_recorder = recorder.clone();
        let drain_done = Arc::clone(&done);
        let drainer = scope.spawn(move || {
            let mut all = Vec::new();
            loop {
                let finished = drain_done.load(Ordering::Acquire);
                all.extend(drain_recorder.drain().events);
                if finished {
                    break;
                }
                std::thread::yield_now();
            }
            all
        });

        // Join the writers first so the drainer's final pass (after it
        // observes `done`) is guaranteed to see every push.
        for handle in writers {
            handle.join().unwrap();
        }
        // SAFETY(ordering): Release — pairs with the drainer's Acquire
        // load of `done`: joins above happened-before this store, so the
        // drainer's final drain sees every push.
        done.store(true, Ordering::Release);

        let drained = drainer.join().unwrap();

        // No torn events: payload invariant holds for every record.
        for e in &drained {
            assert_eq!(e.b, !e.a, "torn event: a={} b={}", e.a, e.b);
        }
        // Per-thread streams arrive in emit order (subsequence of 0..N).
        for w in 0..WRITERS as u16 {
            let seq: Vec<u64> = drained
                .iter()
                .filter(|e| e.thread == w)
                .map(|e| e.a)
                .collect();
            assert!(
                seq.windows(2).all(|p| p[0] < p[1]),
                "writer {w} out of order"
            );
        }
        // Conservation: drained + trimmed accounts for every emit.
        let log_tail = recorder.drain();
        let total_drained = drained.len() + log_tail.events.len();
        assert_eq!(
            total_drained as u64 + log_tail.trimmed,
            (WRITERS as u64) * PER_WRITER,
            "events must be drained or counted trimmed, never silently lost"
        );
        assert_eq!(recorder.dropped(), 0);
    });
}

/// The ring protocol at a size Miri runs (the CI `miri` job does): two
/// writers, each twice around its 512-slot ring, one drainer polling
/// them while they write and pack, no wall clock. No event is torn,
/// each writer's events arrive in order, and every emit is drained
/// exactly once — after the writers' tracers are gone and their rings
/// let go of, too.
#[test]
fn two_writers_one_drainer_across_two_laps() {
    const PER_WRITER: u64 = 1_100;
    let recorder = Recorder::new(2);
    let writing = AtomicUsize::new(2);
    let mut drained = Vec::new();
    std::thread::scope(|scope| {
        for w in 0..2 {
            let mut tracer = recorder.tracer(w, SchemeId::NONE);
            let writing = &writing;
            scope.spawn(move || {
                for n in 0..PER_WRITER {
                    tracer.emit(Hook::Sample, n, !n);
                }
                drop(tracer);
                // SAFETY(ordering): Release — pairs with the drainer's
                // Acquire load: every push happened before its last drain.
                writing.fetch_sub(1, Ordering::Release);
            });
        }
        loop {
            let finished = writing.load(Ordering::Acquire) == 0;
            drained.extend(recorder.drain().events);
            if finished {
                break;
            }
            std::thread::yield_now();
        }
    });
    for e in &drained {
        assert_eq!(e.b, !e.a, "torn event: a={} b={}", e.a, e.b);
    }
    for w in 0..2 {
        let seq: Vec<u64> = drained
            .iter()
            .filter(|e| e.thread == w)
            .map(|e| e.a)
            .collect();
        assert_eq!(seq, (0..PER_WRITER).collect::<Vec<_>>(), "writer {w}");
    }
    assert_eq!(recorder.ring_count(), 0);
    assert_eq!(drained.len() as u64, 2 * PER_WRITER);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

    /// For any interleaving of emits and drains of one tracer, the
    /// drained stream is the emitted stream: each event once, in order,
    /// across its ring's laps.
    #[test]
    fn drained_is_the_emitted_stream(
        script in prop::collection::vec((0..24u64, prop::bool::weighted(0.25)), 0..200),
    ) {
        let recorder = Recorder::new(1);
        let mut tracer = recorder.tracer(0, SchemeId::NONE);
        let mut drained = Vec::new();
        let mut next = 0u64;
        for (burst, drain_now) in script {
            for _ in 0..burst {
                tracer.emit(Hook::Sample, next, !next);
                next += 1;
            }
            if drain_now {
                drained.extend(recorder.drain().events.iter().map(|e| e.a));
            }
        }
        let log = recorder.drain();
        drained.extend(log.events.iter().map(|e| e.a));
        prop_assert_eq!(drained, (0..next).collect::<Vec<_>>());
        prop_assert_eq!(log.trimmed, 0);
    }
}
