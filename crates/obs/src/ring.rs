//! A single-writer trace ring: [`SLOTS`] slots its owner packs as it
//! fills them.
//!
//! Each ring belongs to one thread slot and one scheme (its *owner*):
//! [`crate::Recorder::tracer`] allocates a fresh ring per tracer, and
//! [`crate::ThreadTracer::emit_for`] one per further thread slot it
//! writes for. The owner is stored once, in the ring, so a slot is
//! three `AtomicU64` words — `ts << 8 | hook`, `a`, `b`, 24 bytes —
//! and a read restores `thread` and `scheme` from the ring.
//!
//! A ring keeps no history — its recorder's log does — so its slots
//! only stage events. The push that completes half of the ring (256
//! events) is a *pack boundary*: there the owner publishes that half to
//! the log ([`crate::flight`]) before it starts overwriting it, so no
//! event is ever lost to overwrite. Every other push is five stores to
//! words the owner alone writes.
//!
//! Any thread may copy the ring's last lap while the owner writes; a
//! read keeps of it the events past the last boundary, the *unpacked
//! rest*. The head is the seqlock:
//! it holds twice the number of pushes and is odd while one is in
//! flight.
//!
//! - writer, pushing position `n` into slot `n % SLOTS`: store
//!   `2n + 1` to `head`, `fence(Release)`, store the three words,
//!   store `2n + 2` to `head`;
//! - reader: load `head` (Acquire), copy the positions it wants that
//!   the ring still holds, `fence(Acquire)`, re-load `head`, and
//!   discard every copied position a push begun by then overwrites.
//!
//! A copy that read any word of a later push sees that push's odd head
//! on the re-load, so a torn event is never returned; what it discards
//! was packed before it was overwritten, so the reader finds it in the
//! log. The 64-bit head never wraps, so there is no ABA window.
//!
//! Slots are allocated uninitialised: a ring commits the pages its
//! writer has touched, at most `24 ×` [`SLOTS`] bytes. The writer
//! initialises a slot on the ring's first lap and stores into it on
//! every later one; nothing reads a position at or past `head`, so no
//! slot is read before it is written.

use std::cell::RefCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use crate::dump::{pack_event, Bases};
use crate::event::{Event, SchemeId};

/// One event: `ts << 8 | hook`, `a`, `b`.
type Slot = [AtomicU64; 3];

/// The slots of every ring.
pub(crate) const SLOTS: usize = 512;

/// The events between two pack boundaries: half a ring.
pub(crate) const HALF: u64 = SLOTS as u64 / 2;

const MASK: u64 = SLOTS as u64 - 1;

thread_local! {
    /// The buffer this thread packs into before a chunk is copied out
    /// at its exact size: one per thread, whatever the number of rings
    /// it owns, reused while it lives.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// The largest timestamp a slot holds: `ts` shares its word with the
/// hook byte. That is 7·10^16 protocol ticks, which no run reaches.
pub(crate) const MAX_TS: u64 = (1 << 56) - 1;

/// The [`SLOTS`]-slot staging buffer of one owner. See the module docs
/// for the single-writer contract and the pack boundaries.
///
/// Aligned to its own cache-line pair: `head` is stored on every push,
/// and rings are small heap objects allocated back to back (one per
/// registering thread), so without the alignment two writers' `head`s
/// — or a `head` and a neighbouring `Arc` refcount — can land on one
/// line and every event would bounce it between cores.
#[repr(align(128))]
pub(crate) struct Ring {
    /// Twice the pushes so far; odd while a push is in flight.
    head: AtomicU64,
    /// The thread slot every event of this ring carries.
    pub(crate) thread: u16,
    /// The scheme every event of this ring carries.
    pub(crate) scheme: SchemeId,
    /// The ring's place in its recorder's creation order.
    pub(crate) order: u64,
    /// Position `p` lives in slot `p % SLOTS`. A slot is initialised
    /// once the first position it holds has been pushed.
    slots: Box<[MaybeUninit<Slot>; SLOTS]>,
}

impl Ring {
    /// Creates the `order`-th ring of a recorder, for the events of
    /// thread slot `thread` under `scheme`.
    pub(crate) fn new(thread: u16, scheme: SchemeId, order: u64) -> Ring {
        Ring {
            head: AtomicU64::new(0),
            thread,
            scheme,
            order,
            slots: Box::new_uninit_slice(SLOTS)
                .try_into()
                .expect("a slice of SLOTS slots"),
        }
    }

    /// Total events ever pushed (completed pushes).
    pub(crate) fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire) >> 1
    }

    /// Appends the ring owner's event `(ts, hook, a, b)`, with `ts` at
    /// most 2^56 − 1, and calls `boundary` after a push that completes
    /// half of the ring. Writer-side only — at most one thread may call
    /// this, ever (the owning tracer has `&mut self`, making misuse
    /// impossible through the public API).
    #[inline]
    pub(crate) fn write(&self, ts: u64, hook: u8, a: u64, b: u64, boundary: impl Fn(&Ring)) {
        debug_assert!(ts <= MAX_TS, "trace timestamp {ts} past 2^56 - 1");
        let head = self.head.load(Ordering::Relaxed);
        // SAFETY(ordering) PAIRS(ring-publish): Release on the odd head,
        // so a reader whose Acquire load reads it sees every earlier
        // push's words; the Release fence then orders this store before
        // the word stores below, so a reader that copied any of them
        // and then runs its Acquire fence re-reads a head at least this
        // odd one, and discards the slot.
        self.head.store(head + 1, Ordering::Release);
        fence(Ordering::Release);
        let pos = head >> 1;
        let slot = &self.slots[(pos & MASK) as usize];
        let word = ts << 8 | u64::from(hook);
        if pos <= MASK {
            let words = [AtomicU64::new(word), AtomicU64::new(a), AtomicU64::new(b)];
            // SAFETY: the first lap, so this slot has never been written
            // and no thread reads it: a reader reads positions below the
            // head it loaded, and this is the only position mapped to
            // the slot that is at most `pos`. The slot's atomics make it
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
        // words to a reader's Acquire head load.
        self.head.store(head + 2, Ordering::Release);
        // Twice the pushes is a multiple of the ring's size exactly
        // when the pushes are a multiple of half of it.
        if (head + 2) & MASK == 0 {
            boundary(self);
        }
    }

    /// The event at position `pos`, as its slot holds it now. `pos`
    /// must be below a head the caller has loaded.
    pub(crate) fn event(&self, pos: u64) -> Event {
        // SAFETY: `pos` has been pushed, so its slot was initialised.
        let [word, a, b] = unsafe { self.slots[(pos & MASK) as usize].assume_init_ref() };
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

    /// Copies what the ring still holds, its last lap at most, into
    /// `out`, in push order, skipping any position a push overwrote
    /// while it was copied. Returns the position of the first event
    /// appended: `out` gained exactly the events from it to the head.
    /// Any thread may call this, and it consumes nothing.
    pub(crate) fn copy_lap(&self, out: &mut Vec<Event>) -> u64 {
        // SAFETY(ordering) PAIRS(ring-publish): Acquire on the head load
        // makes every completed push's words visible; the Acquire fence
        // after the copy makes a push whose words it read visible in the
        // head re-load, which then discards the slot.
        let done = self.head.load(Ordering::Acquire) >> 1;
        let lo = done.saturating_sub(SLOTS as u64);
        let before = out.len();
        out.extend((lo..done).map(|pos| self.event(pos)));
        fence(Ordering::Acquire);
        // Every position a push begun by now overwrites may have been
        // copied torn.
        let started = (self.head.load(Ordering::Relaxed) + 1) >> 1;
        let torn = started.saturating_sub(SLOTS as u64).clamp(lo, done) - lo;
        out.drain(before..before + torn as usize);
        lo + torn
    }

    /// Packs positions `lo..done` into bytes sized exactly to what they
    /// take, in [`crate::dump`]'s segment encoding from zeroed bases.
    /// Owner-side: only the thread that pushes may call this, or any
    /// thread once that one is gone for good, and `lo` must be at most
    /// a ring back from `done`.
    pub(crate) fn pack(&self, lo: u64, done: u64) -> Arc<[u8]> {
        let pack_into = |scratch: &mut Vec<u8>| -> Arc<[u8]> {
            scratch.clear();
            let mut bases = Bases::default();
            for pos in lo..done {
                pack_event(scratch, &mut bases, &self.event(pos));
            }
            scratch.as_slice().into()
        };
        SCRATCH
            .try_with(|scratch| pack_into(&mut scratch.borrow_mut()))
            .unwrap_or_else(|_| pack_into(&mut Vec::new()))
    }
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("thread", &self.thread)
            .field("scheme", &self.scheme)
            .field("pushed", &self.pushed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Hook;

    #[test]
    fn extreme_fields_copy_bit_identical() {
        // The service slot, an unknown hook byte (it sorts as a ticker),
        // every payload bit and the largest timestamp a slot holds.
        let ring = Ring::new(u16::MAX, SchemeId(u8::MAX), 0);
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
        for e in [extreme, zero] {
            ring.write(e.ts, e.hook, e.a, e.b, |_| ());
        }
        let mut out = Vec::new();
        assert_eq!(ring.copy_lap(&mut out), 0);
        assert_eq!(out, [extreme, zero]);
        assert_eq!(out[0].merge_key(), (MAX_TS, true, u16::MAX));
    }

    #[test]
    fn a_copy_holds_at_most_the_last_lap() {
        let ring = Ring::new(0, SchemeId::NONE, 0);
        for n in 0..SLOTS as u64 + 100 {
            ring.write(n, Hook::Sample as u8, n, !n, |_| ());
        }
        let mut out = Vec::new();
        assert_eq!(ring.copy_lap(&mut out), 100);
        assert_eq!(out.len(), SLOTS);
        assert!(out.iter().zip(100..).all(|(e, n)| (e.a, e.b) == (n, !n)));
    }
}
