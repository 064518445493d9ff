//! The flight recorder's accounting while writers run: every event a
//! tracer emits ends up retained, trimmed by the cap, or counted as
//! dropped by its ring — exactly one of the three — and the packed
//! buffer keeps each thread's events in the order it emitted them.

use std::sync::atomic::{AtomicBool, Ordering};

use era_obs::{FlightRecorder, Hook, Recorder, SchemeId};

const WRITERS: u16 = 3;
const PER_WRITER: u64 = if cfg!(miri) { 200 } else { 50_000 };

#[test]
#[cfg_attr(miri, ignore = "threads and wall clock")]
fn retained_trimmed_and_dropped_add_up_to_every_event_emitted() {
    // Small rings and a small cap, so all three outcomes happen.
    let recorder = Recorder::with_ring_capacity(WRITERS as usize, 64);
    let flight = FlightRecorder::single("acct", &recorder).with_max_retained(500);
    let done = AtomicBool::new(false);
    let polls = std::thread::scope(|s| {
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
                            // Let the poller in, so some polls land
                            // mid-run and the cap trims.
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let poller = s.spawn(|| {
            let mut polls = 0u64;
            while !done.load(Ordering::Acquire) {
                flight.poll();
                polls += 1;
                std::thread::yield_now();
            }
            polls
        });
        for writer in writers {
            writer.join().expect("writer thread");
        }
        // SAFETY(ordering): Release, paired with the poller's Acquire
        // load; it only stops the loop — the counts are read from the
        // snapshot below, which drains after both joins.
        done.store(true, Ordering::Release);
        poller.join().expect("poller thread")
    });
    let dump = flight.snapshot();
    let src = &dump.sources[0];
    println!(
        "{} retained, {} trimmed, {} dropped over {polls} polls",
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
