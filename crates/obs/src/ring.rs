//! A single-writer, single-drainer, drop-oldest trace ring.
//!
//! Each instrumented thread owns exactly one [`Ring`] (enforced by
//! construction: [`crate::Recorder::tracer`] allocates a fresh ring
//! per tracer). The writer never blocks and never allocates: a push is
//! two atomic stores bracketing a plain 32-byte copy into a
//! preallocated slot. When the ring is full the oldest events are
//! overwritten — tracing sheds load instead of applying backpressure
//! to the algorithm under observation.
//!
//! The drainer may run concurrently with the writer. Each slot carries
//! a seqlock-style sequence word so the drainer can detect (and skip)
//! slots that were mid-overwrite while it was copying them; skipped
//! slots are accounted as dropped, never returned torn.
//!
//! Sequence protocol, for write position `pos` landing in slot
//! `pos & mask`:
//!
//! - writer: store `2*pos + 1` (relaxed), write the event, store
//!   `2*pos + 2` (release), advance `head` to `pos + 1` (release);
//! - drainer: for each `pos` in `[head - len, head)`: load seq
//!   (acquire), require exactly `2*pos + 2`, copy the event, fence,
//!   re-load seq and require it unchanged.
//!
//! Odd seq ⇒ a write is in flight; a different even value ⇒ the slot
//! now belongs to a newer generation (`pos + k·capacity`). Either way
//! the drainer skips.

use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::event::Event;

struct Slot {
    seq: AtomicU64,
    data: UnsafeCell<Event>,
}

/// Fixed-capacity drop-oldest event buffer. See the module docs for
/// the single-writer / single-drainer contract.
///
/// Aligned to its own cache-line pair: `head` is stored on every push,
/// and rings are small heap objects allocated back to back (one per
/// registering thread), so without the alignment two writers' `head`s
/// — or a `head` and a neighbouring `Arc` refcount — can land on one
/// line and every event would bounce it between cores.
#[repr(align(128))]
pub struct Ring {
    mask: u64,
    /// Next write position (monotone; wraps the slot array via `mask`).
    head: AtomicU64,
    /// First position the drainer has not yet consumed.
    tail: AtomicU64,
    /// Events overwritten or torn before the drainer could copy them.
    dropped: AtomicU64,
    slots: Box<[Slot]>,
}

// SAFETY: `data` cells are only written by the single writer and only
// read by the single drainer under the seqlock protocol above; a
// failed validation discards the (possibly torn) copy.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    /// Creates a ring holding `capacity` events (rounded up to a power
    /// of two, minimum 8).
    pub fn new(capacity: usize) -> Ring {
        let cap = capacity.max(8).next_power_of_two();
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                data: UnsafeCell::new(Event::EMPTY),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots,
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// Total events ever pushed.
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events lost to overwrite (or torn reads), as counted at drain
    /// time; grows only when a drain observes loss.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends one event, overwriting the oldest if full. Writer-side
    /// only — at most one thread may call this, ever (the owning
    /// tracer has `&mut self`, making misuse impossible through the
    /// public API).
    #[inline]
    pub fn push(&self, event: Event) {
        let pos = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(pos & self.mask) as usize];
        // Mark the slot as mid-write so a concurrent drainer discards
        // its copy; the release on the commit store publishes the data.
        //
        // SAFETY(ordering): Relaxed on the odd (mid-write) store — the
        // Release fence below orders it before the data write; the even
        // commit store and the head bump are Release so the drainer's
        // Acquire seq load / Acquire head load observe fully-written
        // data or a seq mismatch, never a silently torn event. SAFETY of
        // the volatile write: this is the single writer's own slot.
        slot.seq.store(2 * pos + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        unsafe { self.slot_write(slot, event) };
        // SAFETY(ordering): Release on commit + head bump, per above.
        slot.seq.store(2 * pos + 2, Ordering::Release);
        self.head.store(pos + 1, Ordering::Release);
    }

    /// # Safety
    ///
    /// Caller must be the ring's single writer and have marked `slot`'s
    /// seq odd, so a concurrent drainer discards any overlapping copy.
    #[inline]
    unsafe fn slot_write(&self, slot: &Slot, event: Event) {
        // SAFETY: caller upholds the single-writer seqlock contract.
        unsafe { std::ptr::write_volatile(slot.data.get(), event) };
    }

    /// Copies every event the drainer has not yet seen into `out`, in
    /// push order, skipping any lost to overwrite. Drainer-side only —
    /// at most one thread may drain (the recorder serializes this).
    /// Returns the number of events appended.
    pub fn drain_into(&self, out: &mut Vec<Event>) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let cursor = self.tail.load(Ordering::Relaxed);
        // Anything older than one capacity behind head is already
        // overwritten (or about to be): start from the oldest slot
        // that can still validate.
        let lo = cursor.max(head.saturating_sub(self.capacity() as u64));
        let mut lost = lo - cursor;
        let before = out.len();
        for pos in lo..head {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq != 2 * pos + 2 {
                // Mid-write or already a newer generation.
                lost += 1;
                continue;
            }
            // SAFETY: a possibly-torn copy out of the seqlock cell; the
            // seq re-check below discards it unless the slot was stable
            // across the whole read. Event is Copy + plain-old-data, so
            // even a torn value is not UB to materialize.
            let copy = unsafe { std::ptr::read_volatile(slot.data.get()) };
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq {
                lost += 1;
                continue;
            }
            out.push(copy);
        }
        // SAFETY(ordering): Relaxed — tail and dropped are only written
        // by the single drainer (the recorder serializes drains) and
        // only advisory to readers; no data is published through them.
        self.tail.store(head, Ordering::Relaxed);
        if lost > 0 {
            self.dropped.fetch_add(lost, Ordering::Relaxed);
        }
        out.len() - before
    }
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity())
            .field("pushed", &self.pushed())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Hook, SchemeId};

    fn ev(n: u64) -> Event {
        let mut e = Event::new(0, SchemeId::NONE, Hook::Sample, n, 0);
        e.ts = n;
        e
    }

    #[test]
    fn capacity_rounds_up() {
        assert_eq!(Ring::new(0).capacity(), 8);
        assert_eq!(Ring::new(9).capacity(), 16);
        assert_eq!(Ring::new(64).capacity(), 64);
    }

    #[test]
    fn drains_in_push_order() {
        let ring = Ring::new(16);
        for n in 0..10 {
            ring.push(ev(n));
        }
        let mut out = Vec::new();
        assert_eq!(ring.drain_into(&mut out), 10);
        assert_eq!(
            out.iter().map(|e| e.a).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        // Second drain starts where the first stopped.
        ring.push(ev(10));
        out.clear();
        assert_eq!(ring.drain_into(&mut out), 1);
        assert_eq!(out[0].a, 10);
    }

    #[test]
    fn wrap_drops_oldest_keeps_newest() {
        let ring = Ring::new(8);
        for n in 0..20 {
            ring.push(ev(n));
        }
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        // Only the last `capacity` events can survive.
        assert_eq!(
            out.iter().map(|e| e.a).collect::<Vec<_>>(),
            (12..20).collect::<Vec<_>>()
        );
        assert_eq!(ring.dropped(), 12);
    }

    #[test]
    fn interleaved_drains_lose_nothing_without_wrap() {
        let ring = Ring::new(32);
        let mut out = Vec::new();
        for round in 0..10u64 {
            for n in 0..3 {
                ring.push(ev(round * 3 + n));
            }
            ring.drain_into(&mut out);
        }
        assert_eq!(out.len(), 30);
        assert!(out.windows(2).all(|w| w[0].a + 1 == w[1].a));
        assert_eq!(ring.dropped(), 0);
    }
}
