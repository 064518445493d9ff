//! A recorder's owners pack their own rings, publish the chunks and
//! trim the log to its cap while another thread snapshots — copying
//! each ring's unpacked rest as its owner writes and packs it: every
//! event a tracer emits is retained or trimmed exactly once, none is
//! dropped, and each snapshot is the newest suffix of the merged log.
//! A source added after its recorder recorded shows everything the
//! recorder's log retained, less what a drain took.

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
    assert_eq!(src.dropped, 0, "a ring dropped events");
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
    // Owners pack every 256 events; each publish trims whole chunks to
    // the cap, under the lock a snapshot copies them under.
    let recorder = Recorder::new(OWNERS as usize);
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
fn a_late_source_shows_what_its_recorders_log_retained() {
    let payloads = |events: &[Event]| events.iter().map(|e| e.a).collect::<Vec<_>>();
    // Never drained: 1 000 events, four times around a ring, before
    // the source is added.
    let recorder = Recorder::new(1);
    let mut t = recorder.tracer(0, SchemeId::HP);
    for i in 0..1_000 {
        t.emit(Hook::Retire, i, 0);
    }
    let flight = FlightRecorder::single("late", &recorder);
    let src = &flight.snapshot().sources[0];
    assert_eq!(payloads(&src.events), (0..1_000).collect::<Vec<_>>());
    assert_eq!((src.dropped, src.trimmed), (0, 0));

    // Drained up to 10 first: the source starts there.
    let recorder = Recorder::new(1);
    let mut t = recorder.tracer(0, SchemeId::HP);
    for i in 0..10 {
        t.emit(Hook::Retire, i, 0);
    }
    assert_eq!(recorder.drain().events.len(), 10);
    for i in 10..1_000 {
        t.emit(Hook::Retire, i, 0);
    }
    let flight = FlightRecorder::single("drained", &recorder);
    let src = &flight.snapshot().sources[0];
    assert_eq!(payloads(&src.events), (10..1_000).collect::<Vec<_>>());
    assert_eq!((src.dropped, src.trimmed), (0, 0));
}
