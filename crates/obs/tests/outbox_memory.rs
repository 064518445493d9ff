//! What a held source costs when nothing reads it.
//!
//! A held recorder's owners publish their chunks to its outbox and trim
//! it to the flight recorder's cap as they do, so a source held for a
//! whole run and never snapshotted keeps the cap's worth of events, not
//! the run's. One held tracer emits 2^20 `Retire`s at heap-like
//! addresses, an epoch `Advance` after every 64, and nothing reads the
//! source until the end: the process's
//! resident set must rise by less than 1 MiB — the cap's 2^16 events at
//! a few bytes each, the ring's window and the pages around them. An
//! outbox that kept every chunk until someone took them would hold the
//! whole run, a few MB.
//!
//! The measurement is the process's `VmRSS`, so the binary runs without
//! the test harness (`harness = false` in `Cargo.toml`): no libtest
//! thread allocates beside it, and no other test shares its heap.

use era_obs::flight::DEFAULT_MAX_RETAINED;
use era_obs::{FlightRecorder, Hook, Recorder, SchemeId};

const EVENTS: u64 = 1 << 20;
const LIMIT_KB: u64 = 1024;

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
        println!("outbox_memory: no VmRSS on this platform, nothing measured");
        return;
    };
    let recorder = Recorder::new(1);
    let flight = FlightRecorder::single("unread", &recorder);
    let mut tracer = recorder.tracer(0, SchemeId::EBR);
    let mut rng = 1u64;
    for i in 0..EVENTS {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        tracer.emit(Hook::Retire, 0x7f3a_0000_0000 + (rng >> 44) * 64, i);
        if i % 64 == 63 {
            // An epoch advance ticks the clock, as EBR's do: retires
            // only read it, and events tied with the trim's cut would
            // all be left out of the snapshot.
            tracer.emit(Hook::Advance, i / 64, 0);
        }
    }
    let rise = vm_rss_kb().unwrap_or(before).saturating_sub(before);
    let packed = flight.packed_bytes();
    let dump = flight.snapshot();
    let src = &dump.sources[0];
    println!(
        "outbox_memory: VmRSS +{rise} KB after {EVENTS} emits on one held, unread \
         source ({packed} B packed retained, {:.1} B/event)",
        packed as f64 / src.events.len().max(1) as f64
    );
    assert_eq!(src.dropped, 0, "a held ring dropped events");
    assert_eq!(
        src.events.len() as u64 + src.trimmed,
        EVENTS + EVENTS / 64,
        "every event is retained or trimmed"
    );
    assert!(src.events.len() <= DEFAULT_MAX_RETAINED);
    assert!(
        rise < LIMIT_KB,
        "an unread source committed {rise} KB, {LIMIT_KB} KB allowed"
    );
}
