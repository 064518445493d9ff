//! A held recorder's owners pack their own rings, publish the chunks
//! and trim the outbox to its cap while another thread snapshots: every
//! event a tracer emits is retained or trimmed exactly once, none is
//! dropped, and each snapshot is the newest suffix of the merged log. A recorder held after its rings
//! wrapped shows the last ring's worth and counts the rest dropped.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use era_obs::{Event, FlightRecorder, Hook, Recorder, SchemeId, SourceDump};

const OWNERS: u16 = 2;
const PER_OWNER: u64 = 60_000;
const SNAPSHOTS: u64 = 100;
const RUN: usize = 16;

/// What `snapshot` must hold of the events its owners emitted: merge
/// order, each `(thread, a)` once, and per thread a contiguous stretch
/// of its payloads — a snapshot cuts the merged log by merge key, and
/// one thread's keys never go down.
fn check_suffix(src: &SourceDump) {
    assert_eq!(src.dropped, 0, "a held ring dropped events");
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

#[test]
#[cfg_attr(miri, ignore = "threads and wall clock")]
fn owners_publish_and_trim_while_a_third_thread_snapshots() {
    // Rings of 64 pack every 32 events; each publish trims whole
    // chunks to the cap, under the lock a snapshot copies them under.
    let recorder = Recorder::with_ring_capacity(OWNERS as usize, 64);
    let flight = FlightRecorder::single("owners", &recorder).with_max_retained(2_000);
    let snapshots = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let emitted: Vec<u64> = std::thread::scope(|s| {
        let owners: Vec<_> = (0..OWNERS)
            .map(|w| {
                let mut tracer = recorder.tracer(w, SchemeId::EBR);
                let snapshots = &snapshots;
                s.spawn(move || {
                    // Until both the quota and enough snapshots are in.
                    let mut next = 0u64;
                    while next < PER_OWNER || snapshots.load(Ordering::Relaxed) < SNAPSHOTS {
                        // A retire (reads the clock), then a run of
                        // reclaims (ticks it), payload `a` numbering
                        // the owner's events.
                        tracer.emit(Hook::Retire, next, u64::from(w));
                        tracer.emit_run(Hook::Reclaim, RUN, |k, _| (next + 1 + k as u64, 0));
                        next += 1 + RUN as u64;
                        if next % 512 <= RUN as u64 {
                            std::thread::yield_now();
                        }
                    }
                    next
                })
            })
            .collect();
        let observer = s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                check_suffix(&flight.snapshot().sources[0]);
                // SAFETY(ordering): Relaxed — a progress count the
                // owners only read to know when to stop.
                snapshots.fetch_add(1, Ordering::Relaxed);
            }
        });
        let emitted = owners.into_iter().map(|o| o.join().expect("owner thread"));
        let emitted = emitted.collect();
        // SAFETY(ordering): Release, paired with the observer's Acquire
        // load; it only stops the loop — the counts are read from the
        // snapshot below, taken after both joins.
        done.store(true, Ordering::Release);
        observer.join().expect("observer thread");
        emitted
    });
    let dump = flight.snapshot();
    let src = &dump.sources[0];
    println!(
        "{} retained, {} trimmed, {} dropped of {emitted:?} emitted; {} concurrent snapshots",
        src.events.len(),
        src.trimmed,
        src.dropped,
        snapshots.load(Ordering::Relaxed)
    );
    check_suffix(src);
    assert_eq!(
        src.events.len() as u64 + src.trimmed,
        emitted.iter().sum::<u64>(),
        "every event is retained or trimmed"
    );
    assert!(src.events.len() <= 2_000);
    let last = src.events.last().expect("events retained");
    assert_eq!(
        last.a + 1,
        emitted[last.thread as usize],
        "the newest is kept"
    );
}

#[test]
#[cfg_attr(miri, ignore = "reads wall clock (SystemTime)")]
fn a_late_hold_keeps_the_last_rings_worth_and_counts_the_rest_dropped() {
    let payloads = |events: &[Event]| events.iter().map(|e| e.a).collect::<Vec<_>>();
    // Never drained: 200 events in a ring of 64 before the hold.
    let recorder = Recorder::with_ring_capacity(1, 64);
    let mut t = recorder.tracer(0, SchemeId::HP);
    for i in 0..200 {
        t.emit(Hook::Retire, i, 0);
    }
    let flight = FlightRecorder::single("late", &recorder);
    let src = &flight.snapshot().sources[0];
    assert_eq!(payloads(&src.events), (136..200).collect::<Vec<_>>());
    assert_eq!((src.dropped, src.trimmed), (136, 0));
    // The owner's first pack, at position 224, starts a ring's worth
    // back; from then on nothing is lost.
    for i in 200..300 {
        t.emit(Hook::Retire, i, 0);
    }
    let src = &flight.snapshot().sources[0];
    assert_eq!(payloads(&src.events), (160..300).collect::<Vec<_>>());
    assert_eq!((src.dropped, src.trimmed), (160, 0));

    // Drained up to 10 first: the hold starts there.
    let recorder = Recorder::with_ring_capacity(1, 64);
    let mut t = recorder.tracer(0, SchemeId::HP);
    for i in 0..10 {
        t.emit(Hook::Retire, i, 0);
    }
    assert_eq!(recorder.drain().events.len(), 10);
    for i in 10..110 {
        t.emit(Hook::Retire, i, 0);
    }
    let flight = FlightRecorder::single("drained", &recorder);
    let src = &flight.snapshot().sources[0];
    assert_eq!(payloads(&src.events), (46..110).collect::<Vec<_>>());
    assert_eq!(src.dropped, 36);
}
