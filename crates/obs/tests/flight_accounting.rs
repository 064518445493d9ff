//! The flight recorder's accounting while writers run and another
//! thread snapshots: every event a tracer emits ends up retained,
//! trimmed by the cap as its owner publishes, or counted as dropped by
//! its ring — exactly one of the three — and every snapshot keeps each
//! thread's events in the order it emitted them.

use std::sync::atomic::{AtomicBool, Ordering};

use era_obs::{FlightRecorder, Hook, Recorder, SchemeId, SourceDump};

const WRITERS: u16 = 3;
const PER_WRITER: u64 = if cfg!(miri) { 200 } else { 50_000 };

/// Each writer's payloads in `src` come in the order it emitted them.
fn check_order(src: &SourceDump) {
    for w in 0..WRITERS {
        let payloads: Vec<u64> = src
            .events
            .iter()
            .filter(|e| e.thread == w)
            .map(|e| e.a)
            .collect();
        assert!(
            payloads.windows(2).all(|p| p[0] < p[1]),
            "thread {w}'s payloads out of order"
        );
    }
}

#[test]
#[cfg_attr(miri, ignore = "threads and wall clock")]
fn retained_trimmed_and_dropped_add_up_to_every_event_emitted() {
    // Small rings and a small cap, so all three outcomes happen.
    let recorder = Recorder::with_ring_capacity(WRITERS as usize, 64);
    let flight = FlightRecorder::single("acct", &recorder).with_max_retained(500);
    let done = AtomicBool::new(false);
    let snapshots = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let mut tracer = recorder.tracer(w, SchemeId::EBR);
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        // Readers and tickers, so the merge key's
                        // clock flag is exercised within a thread.
                        let hook = if i % 3 == 0 {
                            Hook::Reclaim
                        } else {
                            Hook::Retire
                        };
                        tracer.emit(hook, i, u64::from(w));
                        if i % 256 == 0 {
                            // Let the snapshots in, so some land mid-run.
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let observer = s.spawn(|| {
            let mut snapshots = 0u64;
            while !done.load(Ordering::Acquire) {
                let dump = flight.snapshot();
                assert!(dump.sources[0].events.len() <= 500);
                check_order(&dump.sources[0]);
                snapshots += 1;
                std::thread::yield_now();
            }
            snapshots
        });
        for writer in writers {
            writer.join().expect("writer thread");
        }
        // SAFETY(ordering): Release, paired with the observer's Acquire
        // load; it only stops the loop — the counts are read from the
        // snapshot below, taken after both joins.
        done.store(true, Ordering::Release);
        observer.join().expect("observer thread")
    });
    let dump = flight.snapshot();
    let src = &dump.sources[0];
    println!(
        "{} retained, {} trimmed, {} dropped; {snapshots} concurrent snapshots",
        src.events.len(),
        src.trimmed,
        src.dropped
    );
    assert_eq!(
        src.events.len() as u64 + src.trimmed + src.dropped,
        u64::from(WRITERS) * PER_WRITER,
        "every event is retained, trimmed or dropped"
    );
    assert!(src.events.len() <= 500);
    check_order(src);
}
