//! What a trace ring costs before it records, and what it returns once
//! it has.
//!
//! A ring's slots are allocated uninitialised, so the allocator has
//! nothing to zero-fill and a ring commits only the pages its writer
//! touches. The count of zeroed bytes requested while tracers are
//! created pins that: a counting `#[global_allocator]` tallies what
//! `alloc_zeroed` is asked for, per thread, so tests running beside
//! this one add nothing to it. Zero-filled slots would request
//! 24 × 512 = 12 288 bytes per ring.
//!
//! The drain test is single-threaded and small, so Miri runs it and
//! reports any read of a slot the writer has not written.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use era_obs::{Hook, Recorder, SchemeId, ThreadTracer};

struct Counting;

thread_local! {
    /// Bytes this thread has requested zero-filled.
    static ZEROED: Cell<u64> = const { Cell::new(0) };
}

fn zeroed_bytes() -> u64 {
    ZEROED.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally is a side effect
// that touches no allocator state and allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc` contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no tally left to add to.
        let _ = ZEROED.try_with(|bytes| bytes.set(bytes.get() + layout.size() as u64));
        // SAFETY: the caller's `alloc_zeroed` contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods here.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn creating_tracers_requests_no_zeroed_bytes() {
    const TRACERS: u16 = 64;
    let before = zeroed_bytes();
    let recorder = Recorder::new(usize::from(TRACERS));
    let tracers: Vec<_> = (0..TRACERS)
        .map(|thread| recorder.tracer(thread, SchemeId::EBR))
        .collect();
    assert_eq!(
        zeroed_bytes() - before,
        0,
        "{TRACERS} tracers' rings were allocated zero-filled"
    );
    drop(tracers);
}

/// Emits `range` through `tracer` and drains `recorder`, returning the
/// payloads that came out.
fn emit_then_drain(
    recorder: &Recorder,
    tracer: &mut ThreadTracer,
    range: std::ops::Range<u64>,
) -> Vec<(u64, u64)> {
    for n in range {
        tracer.emit(Hook::Sample, n, !n);
    }
    let log = recorder.drain();
    assert_eq!(log.trimmed, 0);
    log.events.iter().map(|e| (e.a, e.b)).collect()
}

#[test]
fn a_ring_drains_exactly_what_was_pushed_on_every_lap() {
    let recorder = Recorder::new(1);
    let mut tracer = recorder.tracer(0, SchemeId::NONE);
    let expected = |range: std::ops::Range<u64>| range.map(|n| (n, !n)).collect::<Vec<_>>();
    let mut drain = |range| emit_then_drain(&recorder, &mut tracer, range);
    // Right after creation: no slot written, none read.
    assert_eq!(drain(0..0), []);
    // Part of the first lap: the unwritten slots stay unread.
    assert_eq!(drain(0..5), expected(0..5));
    // Past the first pack boundary, still on the first lap.
    assert_eq!(drain(5..300), expected(5..300));
    // Round the 512-slot ring and into its second lap: the owner packed
    // every half before it overwrote it, so nothing is lost.
    assert_eq!(drain(300..700), expected(300..700));
    assert_eq!(drain(700..1_300), expected(700..1_300));
}
