//! What a trace ring commits once it has wrapped.
//!
//! A ring keeps no history — its recorder's log does — so every ring
//! is a 512-slot staging buffer in one uninitialised allocation, and
//! its owner packs each half before it overwrites it. 64 tracers of a
//! recorder a flight recorder holds each emit 2^14 `Retire`s, 32 times
//! around a ring, and the process's resident set must rise by less
//! than 2 MiB: 64 rings of 12 KiB, the pages around them and the chunks
//! the flight recorder retains. Rings that keep 4 096 events each would
//! take 64 × 96 KiB = 6 MiB.
//!
//! The measurement is the process's `VmRSS`, so the binary runs without
//! the test harness (`harness = false` in `Cargo.toml`): no libtest
//! thread allocates beside it, and no other test shares its heap.

use era_obs::{FlightRecorder, Hook, Recorder, SchemeId};

const TRACERS: u16 = 64;
const EVENTS: u64 = 1 << 14;
const LIMIT_KB: u64 = 2 * 1024;

/// This process's resident set in KB, if `/proc/self/status` says.
fn vm_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() {
    if cfg!(miri) {
        // Miri has no `/proc` and no resident set to read.
        return;
    }
    let Some(before) = vm_rss_kb() else {
        println!("held_ring_memory: no VmRSS on this platform, nothing measured");
        return;
    };
    let recorder = Recorder::new(usize::from(TRACERS));
    // Half the rings exist, empty, when the source is added; half are
    // created after.
    let mut tracers: Vec<_> = (0..TRACERS / 2)
        .map(|thread| recorder.tracer(thread, SchemeId::EBR))
        .collect();
    let flight = FlightRecorder::single("held", &recorder);
    tracers.extend((TRACERS / 2..TRACERS).map(|thread| recorder.tracer(thread, SchemeId::EBR)));
    for tracer in &mut tracers {
        // Each publish trims the log to the cap, so the retained chunks
        // stay a few hundred KB.
        for i in 0..EVENTS {
            tracer.emit(Hook::Retire, i, 0);
        }
    }
    let rise = vm_rss_kb().unwrap_or(before).saturating_sub(before);
    let dump = flight.snapshot();
    let src = &dump.sources[0];
    println!(
        "held_ring_memory: VmRSS +{rise} KB for {TRACERS} rings of 512 \
         slots after {EVENTS} emits each \
         ({:.1} KB per ring, {} B packed retained)",
        rise as f64 / f64::from(TRACERS),
        flight.packed_bytes()
    );
    assert_eq!(src.dropped, 0, "a ring dropped events");
    assert_eq!(
        src.events.len() as u64 + src.trimmed,
        u64::from(TRACERS) * EVENTS,
        "every event is retained or trimmed"
    );
    assert!(
        rise < LIMIT_KB,
        "{TRACERS} rings committed {rise} KB, {LIMIT_KB} KB allowed"
    );
    drop(tracers);
}
