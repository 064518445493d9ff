//! A single-writer, single-drainer, drop-oldest trace ring.
//!
//! Each ring belongs to one thread slot and one scheme (its *owner*):
//! [`crate::Recorder::tracer`] allocates a fresh ring per tracer, and
//! [`crate::ThreadTracer::emit_for`] one per further thread slot it
//! writes for. The owner is stored once, in the ring, so a slot is
//! three `AtomicU64` words — `ts << 8 | hook`, `a`, `b`, 24 bytes —
//! and a drain restores `thread` and `scheme` from the ring. The
//! writer never blocks and never allocates: a push is five stores to
//! words it alone writes. When the ring is full the oldest events are
//! overwritten — tracing sheds load instead of applying backpressure
//! to the algorithm under observation.
//!
//! The drainer may run concurrently with the writer. The head is the
//! seqlock: it holds twice the number of pushes and is odd while one
//! is in flight.
//!
//! - writer, pushing position `n` into slot `n & mask`: store `2n + 1`
//!   to `head`, `fence(Release)`, store the three words, store
//!   `2n + 2` to `head`;
//! - drainer: load `head` (Acquire), copy every position it has not
//!   seen that one capacity can still hold, `fence(Acquire)`, re-load
//!   `head`, and discard — counting it dropped — every copied position
//!   whose slot a push begun by then has started to overwrite.
//!
//! A copy that read any word of a later push sees that push's odd head
//! on the re-load, so a torn event is never returned. A quiescent ring
//! keeps exactly its newest `capacity` events. The 64-bit head never
//! wraps, so there is no ABA window.
//!
//! # Owner packing
//!
//! While a [`crate::FlightRecorder`] holds the ring's recorder, the
//! ring has no drainer: each time a push completes a half of the ring,
//! its owner packs every event it has not packed yet — the half it just
//! wrote — from its own slots into one [`Chunk`] and publishes it, and
//! the flight recorder takes chunks, never slots. That one push in a
//! half-ring allocates the chunk and takes the outbox's lock for one
//! `Vec::push`; every other push is the five stores above. The owner packs a
//! half before it starts overwriting the other, so such a ring loses
//! nothing to overwrite; only a recorder held after its rings wrapped
//! loses what they overwrote before their owner's first pack. A
//! snapshot copies the unpacked rest with the drainer's torn check, and
//! consumes nothing.
//!
//! Slots are allocated zeroed at an alignment of 8, which the system
//! allocator serves with `calloc`: a ring commits its pages as the
//! writer first touches them, so a ring that records a few events
//! costs a page, not `24 × capacity` bytes.

use std::cell::RefCell;
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::dump::{pack_event, Bases};
use crate::event::{Event, SchemeId};
use crate::flight::Chunk;

/// One event: `ts << 8 | hook`, `a`, `b`.
type Slot = [AtomicU64; 3];

thread_local! {
    /// The buffer this thread packs into before a chunk is copied out
    /// at its exact size: one per thread, whatever the number of rings
    /// it owns, reused while it lives.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// The largest timestamp a slot holds: `ts` shares its word with the
/// hook byte. That is 7·10^16 protocol ticks, which no run reaches.
pub(crate) const MAX_TS: u64 = (1 << 56) - 1;

/// Fixed-capacity drop-oldest event buffer of one owner. See the
/// module docs for the single-writer / single-drainer contract. While a
/// [`crate::FlightRecorder`] holds its recorder it has no drainer: its
/// owner packs it every half ring ("Owner packing"), and it drops
/// nothing.
///
/// Aligned to its own cache-line pair: `head` is stored on every push,
/// and rings are small heap objects allocated back to back (one per
/// registering thread), so without the alignment two writers' `head`s
/// — or a `head` and a neighbouring `Arc` refcount — can land on one
/// line and every event would bounce it between cores.
#[repr(align(128))]
pub struct Ring {
    /// Twice the pushes so far; odd while a push is in flight.
    head: AtomicU64,
    mask: u64,
    thread: u16,
    scheme: SchemeId,
    /// The ring's place in its recorder's creation order.
    order: u64,
    /// First position the drainer has not yet consumed; once the
    /// recorder is held, the first one the owner has not yet packed.
    tail: AtomicU64,
    /// Events overwritten or torn before the drainer could copy them.
    dropped: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    /// Creates a ring of thread slot 0 with no scheme, holding
    /// `capacity` events (rounded up to a power of two, minimum 8).
    pub fn new(capacity: usize) -> Ring {
        Ring::with_owner(capacity, 0, SchemeId::NONE, 0)
    }

    /// Creates the `order`-th ring of a recorder, for the events of
    /// thread slot `thread` under `scheme`, holding `capacity` events
    /// (rounded up to a power of two, minimum 8).
    pub(crate) fn with_owner(capacity: usize, thread: u16, scheme: SchemeId, order: u64) -> Ring {
        let cap = capacity.max(8).next_power_of_two();
        // SAFETY: an all-zero `AtomicU64` is a valid 0 (it has the
        // in-memory representation of a `u64`).
        let slots = unsafe { Box::<[Slot]>::new_zeroed_slice(cap).assume_init() };
        Ring {
            head: AtomicU64::new(0),
            mask: (cap - 1) as u64,
            thread,
            scheme,
            order,
            tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots,
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// The thread slot every event of this ring carries.
    pub(crate) fn thread(&self) -> u16 {
        self.thread
    }

    /// The scheme every event of this ring carries.
    pub(crate) fn scheme(&self) -> SchemeId {
        self.scheme
    }

    /// The ring's place in its recorder's creation order.
    pub(crate) fn order(&self) -> u64 {
        self.order
    }

    /// The first position not yet drained (or, held, not yet packed).
    pub(crate) fn tail(&self) -> u64 {
        self.tail.load(Ordering::Relaxed)
    }

    /// Total events ever pushed (completed pushes).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire) >> 1
    }

    /// Events lost to overwrite (or torn reads), as counted at drain
    /// time; grows only when a drain observes loss.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends one event, overwriting the oldest if full. `event`'s
    /// `thread` and `scheme` must be the ring's owner's (the ring
    /// stores them once; checked in debug builds) and its `ts` at most
    /// 2^56 − 1. Writer-side only — at most one thread may call this,
    /// ever (the owning tracer has `&mut self`, making misuse
    /// impossible through the public API).
    #[inline]
    pub fn push(&self, event: Event) {
        debug_assert_eq!(
            (event.thread, event.scheme),
            (self.thread, self.scheme.0),
            "an event pushed into another owner's ring"
        );
        self.write(event.ts, event.hook, event.a, event.b);
    }

    /// [`Ring::push`] of the ring owner's event `(ts, hook, a, b)`.
    /// Returns whether it completed a half of the ring.
    #[inline]
    pub(crate) fn write(&self, ts: u64, hook: u8, a: u64, b: u64) -> bool {
        debug_assert!(ts <= MAX_TS, "trace timestamp {ts} past 2^56 - 1");
        let head = self.head.load(Ordering::Relaxed);
        // SAFETY(ordering) PAIRS(ring-publish): Release on the odd head,
        // so a drainer whose Acquire load reads it sees every earlier
        // push's words; the Release fence then orders this store before
        // the word stores below, so a drainer that copied any of them
        // and then runs its Acquire fence re-reads a head at least this
        // odd one, and discards the slot.
        self.head.store(head + 1, Ordering::Release);
        fence(Ordering::Release);
        let slot = &self.slots[((head >> 1) & self.mask) as usize];
        // SAFETY(ordering): Relaxed — the words publish through the head
        // stores around them (ring-publish), never on their own.
        slot[0].store(ts << 8 | u64::from(hook), Ordering::Relaxed);
        // SAFETY(ordering): Relaxed, as above.
        slot[1].store(a, Ordering::Relaxed);
        // SAFETY(ordering): Relaxed, as above.
        slot[2].store(b, Ordering::Relaxed);
        // SAFETY(ordering): Release — the even head publishes the three
        // words to a drainer's Acquire head load.
        self.head.store(head + 2, Ordering::Release);
        // Twice the pushes is a multiple of the capacity exactly when
        // the pushes are a multiple of half of it.
        (head + 2) & self.mask == 0
    }

    /// The event at position `pos`, as its slot holds it now.
    fn event(&self, pos: u64) -> Event {
        let [word, a, b] = &self.slots[(pos & self.mask) as usize];
        // SAFETY(ordering): Relaxed — the head loads around a copy
        // order it (ring-publish), and the owner reads its own stores.
        let word = word.load(Ordering::Relaxed);
        Event {
            ts: word >> 8,
            a: a.load(Ordering::Relaxed),
            b: b.load(Ordering::Relaxed),
            thread: self.thread,
            scheme: self.scheme.0,
            hook: word as u8,
            _pad: 0,
        }
    }

    /// Copies positions from `cursor` on — at most the newest capacity
    /// — into `out`, in push order, skipping any a push overwrote while
    /// they were copied. Returns the position of the first event
    /// appended and the position past the last: `out` gained exactly
    /// the events between them. Any thread may call this, and it
    /// consumes nothing: a snapshot reads a held ring's unpacked events
    /// so.
    pub(crate) fn copy_since(&self, cursor: u64, out: &mut Vec<Event>) -> (u64, u64) {
        // SAFETY(ordering) PAIRS(ring-publish): Acquire on the head load
        // makes every completed push's words visible; the Acquire fence
        // after the copy makes a push whose words it read visible in the
        // head re-load, which then discards the slot.
        let done = self.head.load(Ordering::Acquire) >> 1;
        let cap = self.capacity() as u64;
        // Anything older than one capacity behind head is already
        // overwritten (or about to be).
        let lo = cursor.max(done.saturating_sub(cap)).min(done);
        let before = out.len();
        out.extend((lo..done).map(|pos| self.event(pos)));
        fence(Ordering::Acquire);
        // Push `p` overwrites position `p - cap`: every position below
        // `started - cap` may have been copied torn.
        let started = (self.head.load(Ordering::Relaxed) + 1) >> 1;
        let torn = started.saturating_sub(cap).clamp(lo, done) - lo;
        out.drain(before..before + torn as usize);
        (lo + torn, done)
    }

    /// Packs the events not yet packed — at most the newest capacity —
    /// into one [`Chunk`] sized exactly to what they take, hands it to
    /// `publish`, and only then marks them packed. Owner-side: only the
    /// thread that pushes may call this, or any thread once that one is
    /// gone for good.
    pub(crate) fn pack(&self, publish: impl FnOnce(Chunk)) {
        // Relaxed on both: the owner reads its own stores; a thread
        // packing for a gone owner is ordered after it by the `Arc`.
        let done = self.head.load(Ordering::Relaxed) >> 1;
        let lo = self.tail().max(done.saturating_sub(self.capacity() as u64));
        if lo == done {
            return;
        }
        let pack_into = |scratch: &mut Vec<u8>| -> Box<[u8]> {
            scratch.clear();
            let mut bases = Bases::default();
            for pos in lo..done {
                pack_event(scratch, &mut bases, &self.event(pos));
            }
            scratch.as_slice().into()
        };
        let bytes = SCRATCH
            .try_with(|scratch| pack_into(&mut scratch.borrow_mut()))
            .unwrap_or_else(|_| pack_into(&mut Vec::new()));
        publish(Chunk {
            bytes,
            events: (done - lo) as usize,
            ring: self.order,
            start: lo,
            // One writer's events never go down in merge key.
            last: self.event(done - 1).merge_key(),
        });
        // SAFETY(ordering): Relaxed — once held, the tail is the owner's
        // own cursor; nothing is published through it.
        self.tail.store(done, Ordering::Relaxed);
    }

    /// Copies every event the drainer has not yet seen into `out`, in
    /// push order, skipping any lost to overwrite. Drainer-side only —
    /// at most one thread may drain (the recorder serializes this).
    /// Returns the number of events appended.
    pub fn drain_into(&self, out: &mut Vec<Event>) -> usize {
        let cursor = self.tail();
        let (first, done) = self.copy_since(cursor, out);
        // SAFETY(ordering): Relaxed — tail and dropped are only written
        // by the single drainer (the recorder serializes drains) and
        // only advisory to readers; no data is published through them.
        self.tail.store(done, Ordering::Relaxed);
        if first > cursor {
            // SAFETY(ordering): Relaxed, as above.
            self.dropped.fetch_add(first - cursor, Ordering::Relaxed);
        }
        (done - first) as usize
    }
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity())
            .field("thread", &self.thread)
            .field("scheme", &self.scheme)
            .field("pushed", &self.pushed())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Hook;

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

    #[test]
    fn extreme_fields_drain_bit_identical() {
        // The service slot, an unknown hook byte (it sorts as a ticker),
        // every payload bit and the largest timestamp a slot holds.
        let ring = Ring::with_owner(8, u16::MAX, SchemeId(u8::MAX), 0);
        let mut extreme = Event::new(
            u16::MAX,
            SchemeId(u8::MAX),
            Hook::Sample,
            u64::MAX,
            u64::MAX,
        );
        extreme.hook = u8::MAX;
        extreme.ts = MAX_TS;
        let mut zero = Event::new(u16::MAX, SchemeId(u8::MAX), Hook::BeginOp, 0, 0);
        zero.ts = 0;
        ring.push(extreme);
        ring.push(zero);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out, [extreme, zero]);
        assert_eq!(out[0].merge_key(), (MAX_TS, true, u16::MAX));
    }
}
