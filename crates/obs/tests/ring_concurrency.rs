//! Concurrency and property tests for the trace ring and recorder.
//!
//! These cover the three behaviors the ring must never get wrong:
//! drop-oldest on wrap (newest events survive, loss is counted),
//! torn-read freedom under concurrent write/drain, and the drained
//! stream being a subsequence of the emitted stream.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use era_obs::{Event, Hook, Recorder, Ring, SchemeId};

use proptest::prelude::*;

fn ev(thread: u16, n: u64) -> Event {
    let mut e = Event::new(thread, SchemeId::NONE, Hook::Sample, n, 0);
    e.ts = n;
    e
}

#[test]
fn wrap_around_drops_oldest_and_counts_loss() {
    let ring = Ring::new(64);
    let total = 1000u64;
    for n in 0..total {
        ring.push(ev(0, n));
    }
    let mut out = Vec::new();
    ring.drain_into(&mut out);
    let survivors: Vec<u64> = out.iter().map(|e| e.a).collect();
    assert_eq!(
        survivors,
        (total - 64..total).collect::<Vec<_>>(),
        "newest must survive"
    );
    assert_eq!(ring.dropped(), total - 64);
    assert_eq!(ring.pushed(), total);
}

/// Writers on their own rings, one drainer polling concurrently: every
/// event is either drained exactly once or counted dropped, each
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

    let recorder = Recorder::with_ring_capacity(WRITERS, 256);
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
        // Conservation: drained + dropped accounts for every emit.
        let log_tail = recorder.drain();
        let final_dropped = log_tail.dropped;
        let total_drained = drained.len() + log_tail.events.len();
        assert_eq!(
            total_drained as u64 + final_dropped,
            (WRITERS as u64) * PER_WRITER,
            "events must be drained or counted dropped, never silently lost"
        );
    });
}

/// The ring protocol at a size Miri runs (the CI `miri` job does): two
/// writers on rings of 8, one drainer polling them while they write, no
/// wall clock. No event is torn, each writer's events arrive in order,
/// and every emit is drained or counted dropped — after the writers'
/// tracers are gone and their rings let go of, too.
#[test]
fn two_writers_one_drainer_on_rings_of_eight() {
    const PER_WRITER: u64 = 300;
    let recorder = Recorder::with_ring_capacity(2, 8);
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
        assert!(
            seq.windows(2).all(|p| p[0] < p[1]),
            "writer {w} out of order"
        );
    }
    assert_eq!(recorder.ring_count(), 0);
    assert_eq!(drained.len() as u64 + recorder.dropped(), 2 * PER_WRITER);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any interleaving of pushes and drains on a small ring, the
    /// drained stream is a subsequence of the emitted stream.
    #[test]
    fn drained_is_subsequence_of_emitted(
        capacity in 3..40usize,
        script in prop::collection::vec((0..8u64, prop::bool::weighted(0.25)), 0..200),
    ) {
        let ring = Ring::new(capacity);
        let mut emitted = Vec::new();
        let mut drained = Vec::new();
        let mut next = 0u64;
        for (burst, drain_now) in script {
            for _ in 0..burst {
                ring.push(ev(0, next));
                emitted.push(next);
                next += 1;
            }
            if drain_now {
                ring.drain_into(&mut drained);
            }
        }
        ring.drain_into(&mut drained);

        // Subsequence check: consume `emitted` left-to-right.
        let mut it = emitted.iter();
        for got in &drained {
            prop_assert!(
                it.any(|&e| e == got.a),
                "drained {} not a subsequence element", got.a
            );
        }
        // Nothing silently vanishes: drained + dropped == emitted.
        prop_assert_eq!(drained.len() as u64 + ring.dropped(), emitted.len() as u64);
    }
}
