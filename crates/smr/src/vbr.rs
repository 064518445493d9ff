//! Version-based reclamation (VBR) — Sheffi, Herlihy & Petrank [37],
//! arena variant.
//!
//! VBR is fully optimistic: nodes are reclaimed (returned to a
//! *type-preserving* allocator) the moment they are retired, and readers
//! cope by validating per-node **version numbers** — a read that raced a
//! reclamation observes a version change, discards the value (exactly
//! Condition 3 of Definition 4.2), and rolls back to a checkpoint. The
//! paper's VBR relies on a hardware wide-CAS to pair every mutable field
//! with a version tag.
//!
//! ## Substitution (no 128-bit CAS on stable Rust)
//!
//! Instead of `(pointer, version)` double-words, this arena hands out
//! 64-bit **handles** `(slot index, version)` and stores, in every
//! mutable cell, a 16-bit tag derived from the owning slot's version
//! next to a 48-bit payload. A stale CAS cannot take effect on a reused
//! slot because reuse bumps the version and therefore the tag, so the
//! expected value can no longer match (tags wrap at 2¹⁶ slot reuses —
//! astronomically unlikely to collide in one pinned handle's window, and
//! the exact analogue of VBR's bounded version counters). DESIGN.md
//! documents this substitution.
//!
//! VBR's ERA profile: **robust** (the retired population is identically
//! zero — reclamation is immediate) and **widely applicable** (reads of
//! reclaimed memory are validated, never trusted), but **not easy**: the
//! rollback on [`Stale`] is a control-flow change (Definition 5.3,
//! Condition 4) and handles/checkpoints must be threaded through the
//! data-structure code by hand.
//!
//! # Example
//!
//! ```
//! use era_smr::vbr::{Arena, Stale};
//!
//! let arena: Arena<2> = Arena::new(16); // 16 slots × 2 cells
//! let h = arena.alloc().expect("arena has room");
//! arena.write(h, 0, 42).unwrap();
//! assert_eq!(arena.read(h, 0), Ok(42));
//! arena.retire(h).unwrap();             // immediate reclamation
//! assert_eq!(arena.read(h, 0), Err(Stale)); // stale handle detected
//! ```

// ERA-CLASS: VBR robust — version validation lets reclamation proceed
// immediately, so stalled readers trap nothing; informational only, as
// VBR is arena-based and does not implement the `Smr` trait.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use era_obs::{Hook, Recorder, SchemeId};

use crate::common::{SmrStats, StatCells};

/// Number of payload bits per cell (the rest is the version tag).
pub const PAYLOAD_BITS: u32 = 48;
/// Maximum storable payload value.
pub const MAX_PAYLOAD: u64 = (1 << PAYLOAD_BITS) - 1;

const TAG_SHIFT: u32 = PAYLOAD_BITS;
const TAG_MASK: u64 = 0xFFFF;

/// Free-list sentinel index.
const NIL: u32 = u32::MAX;

/// A versioned reference to an arena slot.
///
/// Handles are plain data: copying one never extends a node's lifetime.
/// A handle whose slot has since been retired (or reused) is *stale*;
/// every arena operation detects staleness and returns [`Stale`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[must_use = "a Handle is the only proof of the checkout version; dropping it unchecked loses the ABA guard"]
pub struct Handle {
    /// Slot index.
    pub idx: u32,
    /// Version the slot had when this handle was created (odd = live).
    pub ver: u64,
}

impl Handle {
    /// Packs the handle into a cell payload: `idx` (20 bits) ·
    /// low 27 bits of `ver` · `mark` bit.
    ///
    /// # Panics
    ///
    /// Panics if `idx` needs more than 20 bits.
    pub fn pack(self, mark: bool) -> u64 {
        assert!(self.idx < (1 << 20), "arena too large for packed handles");
        ((self.idx as u64) << 28) | ((self.ver & 0x7FF_FFFF) << 1) | u64::from(mark)
    }

    /// Unpacks a payload produced by [`Handle::pack`]; returns the
    /// handle (with truncated version) and the mark bit.
    pub fn unpack(payload: u64) -> (Handle, bool) {
        let idx = (payload >> 28) as u32;
        let ver = (payload >> 1) & 0x7FF_FFFF;
        let mark = payload & 1 == 1;
        (Handle { idx, ver }, mark)
    }

    /// Whether `self.ver` matches a (possibly truncated) packed version.
    fn ver_matches(self, truncated: u64) -> bool {
        (self.ver & 0x7FF_FFFF) == (truncated & 0x7FF_FFFF)
    }
}

impl fmt::Display for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}v{}", self.idx, self.ver)
    }
}

/// The handle's slot was retired (and possibly reused) since the handle
/// was created: the caller must discard everything derived from it and
/// roll back to its checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stale;

impl fmt::Display for Stale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stale versioned handle")
    }
}

impl std::error::Error for Stale {}

/// The arena has no free slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaFull;

impl fmt::Display for ArenaFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "arena out of slots")
    }
}

impl std::error::Error for ArenaFull {}

#[derive(Debug)]
struct Slot<const C: usize> {
    /// Even = free, odd = live. Bumped on every alloc and retire.
    ver: AtomicU64,
    cells: [AtomicU64; C],
    next_free: AtomicU64,
}

/// A type-preserving versioned arena with `C` mutable cells per slot.
///
/// All memory is allocated up front and only ever recycled within the
/// arena, so reads of *reclaimed* slots stay inside program space
/// (Condition 1 of Definition 4.2) — they are unsafe accesses the
/// version validation renders harmless.
#[derive(Debug)]
pub struct Arena<const C: usize> {
    slots: Box<[Slot<C>]>,
    /// Free list head: `idx(32) | aba_counter(32)`.
    free_head: AtomicU64,
    stats: StatCells,
    live: std::sync::atomic::AtomicUsize,
}

impl<const C: usize> Arena<C> {
    /// Creates an arena with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds the 20-bit packed-handle limit.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity < (1 << 20), "arena too large for packed handles");
        let slots: Vec<Slot<C>> = (0..capacity)
            .map(|i| Slot {
                ver: AtomicU64::new(0),
                cells: std::array::from_fn(|_| AtomicU64::new(0)),
                next_free: AtomicU64::new(if i + 1 < capacity {
                    (i + 1) as u64
                } else {
                    NIL as u64
                }),
            })
            .collect();
        Arena {
            slots: slots.into_boxed_slice(),
            free_head: AtomicU64::new(if capacity == 0 { pack_head(NIL, 0) } else { 0 }),
            stats: StatCells::default(),
            live: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Attaches an [`era_obs::Recorder`]: from now on allocations and
    /// retire-is-reclaim events are traced (on the arena's service
    /// tracer — VBR has no per-thread contexts) and footprint counters
    /// feed the recorder's metrics. First attachment wins.
    pub fn attach_recorder(&self, recorder: &Recorder) {
        self.stats.attach(recorder, SchemeId::VBR);
    }

    /// Number of live (allocated, unretired) slots.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    fn tag_of(ver: u64) -> u64 {
        ver & TAG_MASK
    }

    /// Allocates a slot; all cells are zeroed (with the new version's
    /// tag).
    ///
    /// # Errors
    ///
    /// [`ArenaFull`] when no free slot remains.
    pub fn alloc(&self) -> Result<Handle, ArenaFull> {
        loop {
            let head = self.free_head.load(Ordering::SeqCst);
            let (idx, counter) = unpack_head(head);
            if idx == NIL {
                return Err(ArenaFull);
            }
            let next = self.slots[idx as usize].next_free.load(Ordering::SeqCst) as u32;
            // SAFETY(ordering): SeqCst — the free-list pop CAS pairs with the
            // SeqCst push CAS in `retire`: the counter-packed head is VBR's
            // ABA guard and needs one total order over pops and pushes.
            if self
                .free_head
                .compare_exchange(
                    head,
                    pack_head(next, counter.wrapping_add(1)),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_err()
            {
                continue;
            }
            let slot = &self.slots[idx as usize];
            // Exclusive ownership of the popped slot: bump even → odd.
            // SAFETY(ordering): SeqCst — the version bump pairs with readers'
            // SeqCst version checks in read/write/cas: a stale handle must
            // observe the bump no later than any re-tagged cell value.
            let ver = slot.ver.fetch_add(1, Ordering::SeqCst) + 1;
            debug_assert!(ver % 2 == 1, "allocated slot version must be odd");
            let tag = Self::tag_of(ver) << TAG_SHIFT;
            for cell in &slot.cells {
                // SAFETY(ordering): SeqCst — re-tagging pairs with readers'
                // SeqCst cell loads: a reader holding a stale handle must see
                // either the old tag (and fail validation) or the new one.
                cell.store(tag, Ordering::SeqCst);
            }
            // SAFETY(ordering): Relaxed — live is a telemetry gauge only.
            self.live.fetch_add(1, Ordering::Relaxed);
            self.stats.event(Hook::Alloc, idx as u64, ver);
            return Ok(Handle { idx, ver });
        }
    }

    /// Retires the slot and immediately recycles it.
    ///
    /// This is VBR's defining move: retire *is* reclaim, so the retired
    /// population is identically zero. Concurrent holders of the handle
    /// observe [`Stale`] from then on.
    ///
    /// # Errors
    ///
    /// [`Stale`] if the handle is not the slot's current live version
    /// (double retire, or retire of a reused slot).
    pub fn retire(&self, h: Handle) -> Result<(), Stale> {
        let slot = &self.slots[h.idx as usize];
        // Odd (live, ours) → even (free): only one retirer can win.
        // SAFETY(ordering): SeqCst — pairs with the allocation-side version
        // bump and readers' version checks (same total order as alloc).
        slot.ver
            .compare_exchange(h.ver, h.ver + 1, Ordering::SeqCst, Ordering::SeqCst)
            .map_err(|_| Stale)?;
        let held = self.stats.on_retire();
        self.stats.event(Hook::Retire, h.idx as u64, held as u64);
        // SAFETY(ordering): Relaxed — live is a telemetry gauge only.
        self.live.fetch_sub(1, Ordering::Relaxed);
        // Push back on the free list.
        loop {
            let head = self.free_head.load(Ordering::SeqCst);
            let (old_idx, counter) = unpack_head(head);
            // SAFETY(ordering): SeqCst — link-then-publish pairs with the pop
            // CAS in `alloc`; the counter bump in the head CAS is the ABA
            // guard, so both sides stay in one total order.
            slot.next_free.store(old_idx as u64, Ordering::SeqCst);
            if self
                .free_head
                .compare_exchange(
                    head,
                    pack_head(h.idx, counter.wrapping_add(1)),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                break;
            }
        }
        self.stats.on_reclaim(1);
        // Retire *is* reclaim for VBR: the per-node Reclaim event (`a`
        // = slot index, `b` = latency 0) mirrors what `StatCells::reclaim`
        // emits for the deferred schemes, keeping `era-view` chains
        // uniform across the matrix.
        self.stats.event(Hook::Reclaim, h.idx as u64, 0);
        Ok(())
    }

    /// Validated read of cell `cell`.
    ///
    /// # Errors
    ///
    /// [`Stale`] when the slot's version no longer matches the handle
    /// (before or after the read — the racing value is discarded, per
    /// Condition 3 of Definition 4.2).
    pub fn read(&self, h: Handle, cell: usize) -> Result<u64, Stale> {
        let slot = &self.slots[h.idx as usize];
        if slot.ver.load(Ordering::SeqCst) != h.ver {
            return Err(Stale);
        }
        let raw = slot.cells[cell].load(Ordering::SeqCst);
        if slot.ver.load(Ordering::SeqCst) != h.ver {
            return Err(Stale);
        }
        debug_assert_eq!(raw >> TAG_SHIFT, Self::tag_of(h.ver));
        Ok(raw & MAX_PAYLOAD)
    }

    /// Unconditional store to cell `cell` (intended for initializing a
    /// node before it is shared).
    ///
    /// # Errors
    ///
    /// [`Stale`] when the handle is stale.
    ///
    /// # Panics
    ///
    /// Panics if `value` exceeds [`MAX_PAYLOAD`].
    pub fn write(&self, h: Handle, cell: usize, value: u64) -> Result<(), Stale> {
        assert!(value <= MAX_PAYLOAD, "payload exceeds 48 bits");
        let slot = &self.slots[h.idx as usize];
        if slot.ver.load(Ordering::SeqCst) != h.ver {
            return Err(Stale);
        }
        let tagged = (Self::tag_of(h.ver) << TAG_SHIFT) | value;
        // SAFETY(ordering): SeqCst — the tagged write must be ordered against
        // the version re-check below and a concurrent retirer's version bump:
        // writing into a recycled slot must be detectable (VBR's rollback).
        slot.cells[cell].store(tagged, Ordering::SeqCst);
        if slot.ver.load(Ordering::SeqCst) != h.ver {
            // The slot was retired concurrently; the store may have
            // landed in a reused slot only if the version (hence tag)
            // matched, which the retire bump prevents. Report staleness.
            return Err(Stale);
        }
        Ok(())
    }

    /// Compare-and-swap on cell `cell`.
    ///
    /// Returns `Ok(true)` on success, `Ok(false)` on value mismatch.
    /// The expected value is tagged with the handle's version, so a CAS
    /// through a stale handle can never mutate a reused slot: the tag no
    /// longer matches — the paper's "update via an invalid pointer is
    /// guaranteed to fail" (§4.3).
    ///
    /// # Errors
    ///
    /// [`Stale`] when the slot's version no longer matches the handle.
    ///
    /// # Panics
    ///
    /// Panics if `expected` or `new` exceed [`MAX_PAYLOAD`].
    pub fn cas(&self, h: Handle, cell: usize, expected: u64, new: u64) -> Result<bool, Stale> {
        assert!(
            expected <= MAX_PAYLOAD && new <= MAX_PAYLOAD,
            "payload exceeds 48 bits"
        );
        let slot = &self.slots[h.idx as usize];
        if slot.ver.load(Ordering::SeqCst) != h.ver {
            return Err(Stale);
        }
        let tag = Self::tag_of(h.ver) << TAG_SHIFT;
        // SAFETY(ordering): SeqCst — tag-validating CAS pairs with alloc's
        // re-tagging stores and the retirer's version bump, as in `write`.
        match slot.cells[cell].compare_exchange(
            tag | expected,
            tag | new,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => Ok(true),
            Err(_) => {
                if slot.ver.load(Ordering::SeqCst) != h.ver {
                    Err(Stale)
                } else {
                    Ok(false)
                }
            }
        }
    }

    /// Re-validates a handle (a VBR checkpoint primitive).
    pub fn validate(&self, h: Handle) -> Result<(), Stale> {
        if self.slots[h.idx as usize].ver.load(Ordering::SeqCst) == h.ver {
            Ok(())
        } else {
            Err(Stale)
        }
    }

    /// Rebuilds a full handle from a packed payload reference.
    ///
    /// # Errors
    ///
    /// [`Stale`] when the referenced slot's current version does not
    /// match the packed (truncated) version or the slot is not live.
    pub fn upgrade(&self, payload: u64) -> Result<(Handle, bool), Stale> {
        let (h, mark) = Handle::unpack(payload);
        let ver = self.slots[h.idx as usize].ver.load(Ordering::SeqCst);
        if ver % 2 == 1 && h.ver_matches(ver) {
            Ok((Handle { idx: h.idx, ver }, mark))
        } else {
            Err(Stale)
        }
    }

    /// Footprint counters. `retired_now` is always 0: retire is reclaim.
    pub fn stats(&self) -> SmrStats {
        self.stats.snapshot(0)
    }
}

fn pack_head(idx: u32, counter: u32) -> u64 {
    ((idx as u64) << 32) | counter as u64
}

fn unpack_head(head: u64) -> (u32, u32) {
    ((head >> 32) as u32, head as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_write_read_retire_cycle() {
        let arena: Arena<2> = Arena::new(4);
        let h = arena.alloc().unwrap();
        arena.write(h, 0, 7).unwrap();
        arena.write(h, 1, 9).unwrap();
        assert_eq!(arena.read(h, 0), Ok(7));
        assert_eq!(arena.read(h, 1), Ok(9));
        assert_eq!(arena.live(), 1);
        arena.retire(h).unwrap();
        assert_eq!(arena.live(), 0);
        assert_eq!(arena.read(h, 0), Err(Stale));
        assert_eq!(arena.stats().retired_now, 0, "retire is reclaim");
        assert_eq!(arena.stats().total_reclaimed, 1);
    }

    #[test]
    fn double_retire_detected() {
        let arena: Arena<1> = Arena::new(2);
        let h = arena.alloc().unwrap();
        arena.retire(h).unwrap();
        assert_eq!(arena.retire(h), Err(Stale));
    }

    #[test]
    fn reuse_gives_fresh_version_and_clean_cells() {
        let arena: Arena<1> = Arena::new(1);
        let h1 = arena.alloc().unwrap();
        arena.write(h1, 0, 123).unwrap();
        arena.retire(h1).unwrap();
        let h2 = arena.alloc().unwrap();
        assert_eq!(h1.idx, h2.idx, "single slot must be reused");
        assert!(h2.ver > h1.ver);
        assert_eq!(arena.read(h2, 0), Ok(0), "cells are re-initialized");
        assert_eq!(arena.read(h1, 0), Err(Stale), "old handle is dead");
    }

    #[test]
    fn stale_cas_cannot_mutate_reused_slot() {
        // The ABA scenario VBR must defeat.
        let arena: Arena<1> = Arena::new(1);
        let h1 = arena.alloc().unwrap();
        arena.write(h1, 0, 5).unwrap();
        arena.retire(h1).unwrap();
        let h2 = arena.alloc().unwrap();
        arena.write(h2, 0, 5).unwrap(); // same *payload* as before
                                        // A thread still holding h1 attempts CAS(5 → 6):
        assert_eq!(arena.cas(h1, 0, 5, 6), Err(Stale));
        // The live node is untouched:
        assert_eq!(arena.read(h2, 0), Ok(5));
    }

    #[test]
    fn cas_success_and_value_mismatch() {
        let arena: Arena<1> = Arena::new(1);
        let h = arena.alloc().unwrap();
        arena.write(h, 0, 1).unwrap();
        assert_eq!(arena.cas(h, 0, 1, 2), Ok(true));
        assert_eq!(arena.cas(h, 0, 1, 3), Ok(false));
        assert_eq!(arena.read(h, 0), Ok(2));
    }

    #[test]
    fn arena_full() {
        let arena: Arena<1> = Arena::new(2);
        let a = arena.alloc().unwrap();
        let _b = arena.alloc().unwrap();
        assert_eq!(arena.alloc(), Err(ArenaFull));
        arena.retire(a).unwrap();
        assert!(arena.alloc().is_ok());
    }

    #[test]
    fn handle_pack_unpack_roundtrip() {
        let h = Handle {
            idx: 1023,
            ver: 0x0123_4567 & 0x7FF_FFFF,
        };
        for mark in [false, true] {
            let p = h.pack(mark);
            assert!(p <= MAX_PAYLOAD);
            let (h2, m2) = Handle::unpack(p);
            assert_eq!(h2.idx, h.idx);
            assert_eq!(h2.ver, h.ver & 0x7FF_FFFF);
            assert_eq!(m2, mark);
        }
    }

    #[test]
    fn upgrade_validates_liveness_and_version() {
        let arena: Arena<2> = Arena::new(4);
        let target = arena.alloc().unwrap();
        let payload = target.pack(false);
        let (up, mark) = arena.upgrade(payload).unwrap();
        assert_eq!(up, target);
        assert!(!mark);
        arena.retire(target).unwrap();
        assert_eq!(arena.upgrade(payload), Err(Stale));
    }

    #[test]
    fn validate_checkpoint() {
        let arena: Arena<1> = Arena::new(1);
        let h = arena.alloc().unwrap();
        assert!(arena.validate(h).is_ok());
        arena.retire(h).unwrap();
        assert_eq!(arena.validate(h), Err(Stale));
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn concurrent_alloc_retire_churn() {
        let arena: Arena<2> = Arena::new(64);
        std::thread::scope(|s| {
            for t in 0..4 {
                let arena = &arena;
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        match arena.alloc() {
                            Ok(h) => {
                                arena.write(h, 0, (t * 10_000 + i) & MAX_PAYLOAD).unwrap();
                                // Reads through our own live handle succeed.
                                assert!(arena.read(h, 0).is_ok());
                                arena.retire(h).unwrap();
                            }
                            Err(ArenaFull) => std::thread::yield_now(),
                        }
                    }
                });
            }
        });
        assert_eq!(arena.live(), 0);
        let st = arena.stats();
        assert_eq!(st.total_retired, st.total_reclaimed);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn concurrent_readers_see_stale_not_garbage() {
        // Readers hammer a handle while the owner retires/reallocs: every
        // read either returns a value written under that version or Stale.
        let arena: Arena<1> = Arena::new(1);
        let h0 = arena.alloc().unwrap();
        arena.write(h0, 0, 11).unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let (arena_ref, stop_ref) = (&arena, &stop);
            s.spawn(move || {
                while !stop_ref.load(Ordering::SeqCst) {
                    if let Ok(v) = arena_ref.read(h0, 0) {
                        assert_eq!(v, 11, "only version-h0 values are visible")
                    }
                }
            });
            let mut h = h0;
            for round in 0..2_000u64 {
                arena.retire(h).unwrap();
                h = arena.alloc().unwrap();
                arena.write(h, 0, round & MAX_PAYLOAD).unwrap();
            }
            // SAFETY(ordering): SeqCst — test shutdown flag, strongest for clarity.
            stop.store(true, Ordering::SeqCst);
        });
    }
}
