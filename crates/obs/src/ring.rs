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
//!   seen that the ring still holds (one capacity back, or one window
//!   back once it moved into its window, below), `fence(Acquire)`,
//!   re-load `head`, and discard — counting it dropped — every copied
//!   position whose slot a push begun by then has started to overwrite.
//!
//! A copy that read any word of a later push sees that push's odd head
//! on the re-load, so a torn event is never returned. A quiescent ring
//! keeps exactly its newest `capacity` events (one in its held window,
//! below, its newest [`HELD_WINDOW`]). The 64-bit head never
//! wraps, so there is no ABA window.
//!
//! # Owner packing
//!
//! While a [`crate::FlightRecorder`] holds the ring's recorder, the
//! ring has no drainer: at each pack boundary its owner packs every
//! event it has not packed yet into one [`Chunk`] and publishes it, and
//! the flight recorder keeps chunks, never slots. A pack boundary is
//! the ring's first push and every push that completes half of the
//! ring — half of its window (below), for a ring that has one; that one
//! push allocates the chunk and takes the outbox's lock to append it
//! and trim the oldest to the cap, and every other push is the five
//! stores above. The owner packs a half before it starts overwriting
//! the other, so such a ring loses nothing to overwrite; only a
//! recorder held after its rings wrapped loses what they overwrote
//! before their owner's first pack. A snapshot copies the unpacked rest with the drainer's torn
//! check, and consumes nothing.
//!
//! # The held window
//!
//! A held ring keeps no history — the flight recorder does — so its
//! slots only stage events until their owner packs them. A ring of
//! more than [`HELD_WINDOW`] slots therefore has a *window* of
//! [`HELD_WINDOW`] slots past its own, in the same allocation. The
//! first time its owner finds the recorder held at a pack boundary, it
//! packs everything not yet packed — up to a ring's worth: the
//! late-hold pack above — and stores the *switch*, the next position,
//! before it writes that position. Every position from the switch on
//! lives in window slot `pos & (HELD_WINDOW - 1)`, so from then on the
//! owner packs every [`HELD_WINDOW`]` / 2` events and never writes the
//! ring's own slots again. A ring held from its creation, or held while
//! still empty, switches before its first write and commits only the
//! window's pages; one that recorded before the hold switches within
//! half a window of it. The switch is one word the owner stores once;
//! the head's Release publishes it with the next push, and every
//! reader maps a position through it: below it, the ring's own slot,
//! whose torn check is the ring's capacity; from it on, the window's,
//! whose torn check is the window's size. The positions before the
//! switch are never overwritten after it.
//!
//! A ring stays in its window when its recorder is released: an
//! unheld drain after that sees at most [`HELD_WINDOW`] of its newest
//! events. A ring never held, and a ring of at most [`HELD_WINDOW`]
//! slots, never switches and keeps its newest `capacity` events.
//!
//! Slots are allocated uninitialised, so the allocator zero-fills
//! nothing: a ring commits the pages its writer has touched, at most
//! `24 × capacity` bytes before its switch and the window's `24 ×`
//! [`HELD_WINDOW`] after, and a ring that never records costs a page
//! or two. The writer initialises a slot on the first lap of the
//! ring's own slots or of its window, and stores into it on every
//! later one; nothing reads a position at or past `head`, so no slot
//! is read before it is written.

use std::cell::RefCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use crate::dump::{pack_event, Bases};
use crate::event::{Event, SchemeId};
use crate::flight::Chunk;

/// One event: `ts << 8 | hook`, `a`, `b`.
type Slot = [AtomicU64; 3];

/// The slots a held ring of a larger capacity stages its events in
/// (module docs, "The held window"); it packs every half of them.
pub const HELD_WINDOW: usize = 512;

const WINDOW_MASK: u64 = HELD_WINDOW as u64 - 1;

/// The switch of a ring that has not moved into its window.
const NO_SWITCH: u64 = u64::MAX;

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
/// owner packs it every half ring ("Owner packing"), or every half
/// window once it stages in its window ("The held window"), and it
/// drops nothing.
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
    /// The first position staged in the window, or `NO_SWITCH`. Only
    /// the owner stores it, once, before it writes that position.
    switch: AtomicU64,
    /// A position `p` below the switch lives in slot `p & mask`, one at
    /// or past it in window slot `capacity + (p & WINDOW_MASK)`: the
    /// window is the last [`HELD_WINDOW`] slots of a ring of more than
    /// that capacity, and absent from a smaller one. A slot is
    /// initialised once the first position it holds has been pushed.
    slots: Box<[MaybeUninit<Slot>]>,
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
        let window = if cap > HELD_WINDOW { HELD_WINDOW } else { 0 };
        let slots = Box::new_uninit_slice(cap + window);
        Ring {
            head: AtomicU64::new(0),
            mask: (cap - 1) as u64,
            thread,
            scheme,
            order,
            tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            switch: AtomicU64::new(NO_SWITCH),
            slots,
        }
    }

    /// Slot count of the ring's own slots, the window not included.
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
        self.write(event.ts, event.hook, event.a, event.b, |_| ());
    }

    /// [`Ring::push`] of the ring owner's event `(ts, hook, a, b)`,
    /// calling `boundary` at each pack boundary: before the ring's first
    /// push, and after a push that completes a half of the ring — of the
    /// window, for a ring that has one.
    #[inline]
    pub(crate) fn write(&self, ts: u64, hook: u8, a: u64, b: u64, boundary: impl Fn(&Ring)) {
        debug_assert!(ts <= MAX_TS, "trace timestamp {ts} past 2^56 - 1");
        let head = self.head.load(Ordering::Relaxed);
        if head == 0 {
            boundary(self);
        }
        // Relaxed: the owner reads its own store.
        let switch = self.switch.load(Ordering::Relaxed);
        // SAFETY(ordering) PAIRS(ring-publish): Release on the odd head,
        // so a drainer whose Acquire load reads it sees every earlier
        // push's words and the switch; the Release fence then orders
        // this store before the word stores below, so a drainer that
        // copied any of them and then runs its Acquire fence re-reads a
        // head at least this odd one, and discards the slot.
        self.head.store(head + 1, Ordering::Release);
        fence(Ordering::Release);
        let pos = head >> 1;
        let (index, first_lap) = if pos < switch {
            (pos & self.mask, pos <= self.mask)
        } else {
            (
                self.mask + 1 + (pos & WINDOW_MASK),
                pos - switch <= WINDOW_MASK,
            )
        };
        let slot = &self.slots[index as usize];
        let word = ts << 8 | u64::from(hook);
        if first_lap {
            let words = [AtomicU64::new(word), AtomicU64::new(a), AtomicU64::new(b)];
            // SAFETY: the first lap of the ring's own slots or of its
            // window, so this slot has never been written and no thread
            // reads it: a reader reads positions below the head it
            // loaded, and this is the only position mapped to the slot
            // that is at most `pos`. The slot's atomics make it
            // interior-mutable, so writing through `&self` is allowed,
            // and the even head store below publishes the write.
            unsafe { slot.as_ptr().cast_mut().write(words) };
        } else {
            // SAFETY: the first lap initialised every slot.
            let slot = unsafe { slot.assume_init_ref() };
            // SAFETY(ordering): Relaxed — the words publish through the
            // head stores around them (ring-publish), never on their own.
            slot[0].store(word, Ordering::Relaxed);
            // SAFETY(ordering): Relaxed, as above.
            slot[1].store(a, Ordering::Relaxed);
            // SAFETY(ordering): Relaxed, as above.
            slot[2].store(b, Ordering::Relaxed);
        }
        // SAFETY(ordering): Release — the even head publishes the three
        // words to a drainer's Acquire head load.
        self.head.store(head + 2, Ordering::Release);
        // Twice the pushes is a multiple of the ring's (or the window's)
        // size exactly when the pushes are a multiple of half of it.
        if (head + 2) & self.mask.min(WINDOW_MASK) == 0 {
            boundary(self);
        }
    }

    /// Owner-side, at a pack boundary of a held ring with nothing left
    /// unpacked: a ring with a window stages every later push there
    /// (module docs, "The held window"). Idempotent.
    pub(crate) fn stage_in_window(&self) {
        // Relaxed loads: the owner reads its own stores.
        if self.slots.len() > self.capacity() && self.switch.load(Ordering::Relaxed) == NO_SWITCH {
            let next = self.head.load(Ordering::Relaxed) >> 1;
            // SAFETY(ordering): Relaxed — the next push's Release head
            // store publishes the switch (ring-publish).
            self.switch.store(next, Ordering::Relaxed);
        }
    }

    /// The oldest position the ring still holds once `begun` pushes
    /// have begun, given its `switch`: a ring's worth back before the
    /// switch; after it, the ring's last lap before the switch while
    /// the window holds every later position, and a window's worth
    /// back once the window wrapped.
    fn oldest(&self, begun: u64, switch: u64) -> u64 {
        let window = HELD_WINDOW as u64;
        if begun <= switch {
            begun.saturating_sub(self.capacity() as u64)
        } else if begun - switch <= window {
            switch.saturating_sub(self.capacity() as u64)
        } else {
            begun - window
        }
    }

    /// The event at position `pos`, as its slot holds it now, mapped
    /// through `switch`. `pos` must be below a head the caller has
    /// loaded, and `switch` loaded after it.
    fn event(&self, pos: u64, switch: u64) -> Event {
        let index = if pos < switch {
            pos & self.mask
        } else {
            self.mask + 1 + (pos & WINDOW_MASK)
        };
        // SAFETY: `pos` has been pushed, so its slot was initialised.
        let [word, a, b] = unsafe { self.slots[index as usize].assume_init_ref() };
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

    /// Copies positions from `cursor` on — at most what the ring still
    /// holds — into `out`, in push order, skipping any a push overwrote
    /// while they were copied. Returns the position of the first event
    /// appended and the position past the last: `out` gained exactly
    /// the events between them. Any thread may call this, and it
    /// consumes nothing: a snapshot reads a held ring's unpacked events
    /// so.
    pub(crate) fn copy_since(&self, cursor: u64, out: &mut Vec<Event>) -> (u64, u64) {
        // SAFETY(ordering) PAIRS(ring-publish): Acquire on the head load
        // makes every completed push's words visible, and the switch of
        // any position below it; the Acquire fence after the copy makes
        // a push whose words it read visible in the head re-load, and
        // its switch in the switch re-load, which then discard the slot.
        let done = self.head.load(Ordering::Acquire) >> 1;
        let switch = self.switch.load(Ordering::Relaxed);
        // Anything older is already overwritten (or about to be).
        let lo = cursor.max(self.oldest(done, switch)).min(done);
        let before = out.len();
        out.extend((lo..done).map(|pos| self.event(pos, switch)));
        fence(Ordering::Acquire);
        // Every position below what the pushes begun by now leave held
        // may have been copied torn.
        let started = (self.head.load(Ordering::Relaxed) + 1) >> 1;
        let switch = self.switch.load(Ordering::Relaxed);
        let torn = self.oldest(started, switch).clamp(lo, done) - lo;
        out.drain(before..before + torn as usize);
        (lo + torn, done)
    }

    /// Packs the events not yet packed — at most what the ring still
    /// holds — into one [`Chunk`] sized exactly to what they take, hands it to
    /// `publish`, and only then marks them packed. Owner-side: only the
    /// thread that pushes may call this, or any thread once that one is
    /// gone for good.
    pub(crate) fn pack(&self, publish: impl FnOnce(Chunk)) {
        // Relaxed on both: the owner reads its own stores; a thread
        // packing for a gone owner is ordered after it by the `Arc`.
        let done = self.head.load(Ordering::Relaxed) >> 1;
        let switch = self.switch.load(Ordering::Relaxed);
        let lo = self.tail().max(self.oldest(done, switch));
        if lo == done {
            return;
        }
        let pack_into = |scratch: &mut Vec<u8>| -> Arc<[u8]> {
            scratch.clear();
            let mut bases = Bases::default();
            for pos in lo..done {
                pack_event(scratch, &mut bases, &self.event(pos, switch));
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
            last: self.event(done - 1, switch).merge_key(),
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
