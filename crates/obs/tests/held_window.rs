//! Writers emit across a hold while another thread snapshots: a held
//! ring of the default capacity moves into its `HELD_WINDOW`-slot
//! window at its owner's first pack after the hold, and every snapshot
//! taken across that switch, and across the window's wraps, is a clean
//! suffix of each owner's stream. (The single-threaded exactness check
//! across the switch, sized for Miri, is `flight.rs`'s
//! `every_event_comes_back_once_across_the_switch_and_the_release`.)

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use era_obs::{FlightRecorder, Hook, Recorder, SchemeId, SourceDump};

const OWNERS: u16 = 2;
const PER_OWNER: u64 = 40_000;
const BEFORE_HOLD: u64 = 5_000;
const SNAPSHOTS: u64 = 50;
const RUN: usize = 16;

/// What a snapshot must hold of its owners' events: merge order, each
/// `(thread, a)` once, and per thread a contiguous stretch — the events
/// overwritten before the hold are counted dropped and precede it.
fn check_suffix(src: &SourceDump) {
    assert!(
        src.events
            .windows(2)
            .all(|w| w[0].merge_key() <= w[1].merge_key()),
        "out of merge order"
    );
    let ids: HashSet<(u16, u64)> = src.events.iter().map(|e| (e.thread, e.a)).collect();
    assert_eq!(ids.len(), src.events.len(), "an event appears twice");
    for owner in 0..OWNERS {
        let a: Vec<u64> = src
            .events
            .iter()
            .filter(|e| e.thread == owner)
            .map(|e| e.a)
            .collect();
        assert!(
            a.windows(2).all(|p| p[0] + 1 == p[1]),
            "owner {owner}'s events have a gap"
        );
    }
}

/// Two owners emit into rings of the default capacity, unheld, then
/// across a hold the main thread starts while they write, then on while
/// it snapshots: every snapshot is a clean suffix of each owner's
/// stream, and at the end every event is retained, trimmed, or dropped
/// before the hold — exactly one of the three.
#[test]
#[cfg_attr(miri, ignore = "threads and wall clock")]
fn writers_cross_a_hold_while_another_thread_snapshots() {
    let recorder = Recorder::new(usize::from(OWNERS));
    let progress: [AtomicU64; OWNERS as usize] = Default::default();
    let snapshots = AtomicU64::new(0);
    let (flight, emitted) = std::thread::scope(|s| {
        let owners: Vec<_> = (0..OWNERS)
            .map(|w| {
                let mut tracer = recorder.tracer(w, SchemeId::EBR);
                let (progress, snapshots) = (&progress[usize::from(w)], &snapshots);
                s.spawn(move || {
                    let mut next = 0u64;
                    while next < PER_OWNER || snapshots.load(Ordering::Relaxed) < SNAPSHOTS {
                        tracer.emit(Hook::Retire, next, u64::from(w));
                        tracer.emit_run(Hook::Reclaim, RUN, |k, _| (next + 1 + k as u64, 0));
                        next += 1 + RUN as u64;
                        // SAFETY(ordering): Relaxed — a progress count the
                        // main thread only reads to know when to hold.
                        progress.store(next, Ordering::Relaxed);
                        if next % 512 <= RUN as u64 {
                            std::thread::yield_now();
                        }
                    }
                    next
                })
            })
            .collect();
        while progress
            .iter()
            .any(|p| p.load(Ordering::Relaxed) < BEFORE_HOLD)
        {
            std::thread::yield_now();
        }
        let flight = FlightRecorder::single("cross", &recorder).with_max_retained(6_000);
        while owners.iter().any(|o| !o.is_finished()) {
            check_suffix(&flight.snapshot().sources[0]);
            // SAFETY(ordering): Relaxed — a count the owners only read to
            // know when to stop.
            snapshots.fetch_add(1, Ordering::Relaxed);
        }
        let emitted: Vec<u64> = owners
            .into_iter()
            .map(|o| o.join().expect("owner thread"))
            .collect();
        (flight, emitted)
    });
    let dump = flight.snapshot();
    let src = &dump.sources[0];
    check_suffix(src);
    assert!(src.events.len() <= 6_000);
    assert_eq!(
        src.events.len() as u64 + src.trimmed + src.dropped,
        emitted.iter().sum::<u64>(),
        "every event is retained, trimmed or dropped"
    );
    // A suffix by merge key: an owner with any event kept has its
    // newest kept, and the newest of all is kept.
    let last = src.events.last().expect("events retained");
    assert_eq!(last.a + 1, emitted[usize::from(last.thread)], "the newest");
    for (owner, &n) in emitted.iter().enumerate() {
        if let Some(e) = src.events.iter().rfind(|e| usize::from(e.thread) == owner) {
            assert_eq!(e.a + 1, n, "owner {owner}'s newest");
        }
    }
}
