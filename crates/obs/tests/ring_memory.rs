//! What a trace ring costs before it records, and what it returns once
//! it has.
//!
//! A ring's slots are allocated uninitialised, so the allocator has
//! nothing to zero-fill and a ring commits only the pages its writer
//! touches. The count of zeroed bytes requested while tracers are
//! created pins that: a counting `#[global_allocator]` tallies what
//! `alloc_zeroed` is asked for, per thread, so tests running beside
//! this one add nothing to it. Zero-filled slots would request
//! `24 × capacity` bytes per ring (98 304 at the default capacity).
//!
//! The drain tests are single-threaded and small, so Miri runs them
//! and reports any read of a slot the writer has not written.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use era_obs::{Event, Hook, Recorder, Ring, SchemeId};

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

fn ev(n: u64) -> Event {
    let mut e = Event::new(0, SchemeId::NONE, Hook::Sample, n, !n);
    e.ts = n;
    e
}

/// Pushes `range` into `ring` and drains it, returning what came out.
fn push_then_drain(ring: &Ring, range: std::ops::Range<u64>) -> Vec<Event> {
    for n in range {
        ring.push(ev(n));
    }
    let mut out = Vec::new();
    ring.drain_into(&mut out);
    out
}

#[test]
fn a_ring_of_eight_drains_exactly_what_was_pushed_on_every_lap() {
    let ring = Ring::new(8);
    assert_eq!(ring.capacity(), 8);
    // Right after creation: no slot written, none read.
    assert_eq!(push_then_drain(&ring, 0..0), []);
    // Part of the first lap: the unwritten slots stay unread.
    assert_eq!(
        push_then_drain(&ring, 0..5),
        (0..5).map(ev).collect::<Vec<_>>()
    );
    // The rest of the first lap and on round twice more: only the
    // newest eight survive, the rest counted dropped.
    assert_eq!(
        push_then_drain(&ring, 5..23),
        (15..23).map(ev).collect::<Vec<_>>()
    );
    assert_eq!(ring.dropped(), 10);
    assert_eq!(ring.pushed(), 23);
}
