//! A Harris-style sorted set on the VBR arena ([`era_smr::vbr`]).
//!
//! This is the paper's "robust + widely applicable, **not** easy" corner
//! made concrete. The algorithm is Harris's list (marked-chain
//! traversal, lazy unlink), but every node access goes through a
//! versioned handle: when a traversal steps onto a node that has been
//! retired — and, under VBR, *immediately reclaimed and possibly
//! reused* — the arena returns [`Stale`] and the operation **rolls back
//! to its checkpoint** (the operation entry) and re-executes. Those
//! roll-backs are precisely the control-flow changes Definition 5.3
//! outlaws: integrating this list required rewriting the traversal
//! around `Result<_, Stale>` plumbing, not just inserting API calls.
//!
//! What VBR buys for that price: the retired population is identically
//! zero (retire *is* reclaim — the strongest robustness in the paper,
//! §5.1), and traversal through marked chains is safe, so the scheme is
//! applicable to Harris-shaped implementations that defeat HP/HE/IBR.
//!
//! Keys are restricted to `[KEY_MIN, KEY_MAX]` (they live in 48-bit
//! arena payloads next to the sentinels).

use std::fmt;

use era_smr::vbr::{Arena, ArenaFull, Handle, Stale, MAX_PAYLOAD};

/// Cell index of the key.
const KEY: usize = 0;
/// Cell index of the packed (handle, mark) successor reference.
const NEXT: usize = 1;

/// Payload offset so negative keys order correctly.
const KEY_OFFSET: i64 = 1 << 46;

/// Smallest storable user key.
pub const KEY_MIN: i64 = -(1 << 46) + 1;
/// Largest storable user key.
pub const KEY_MAX: i64 = (1 << 46) - 1;

/// Sentinel key payloads (reserved).
const NEG_INF: u64 = 0;
const POS_INF: u64 = MAX_PAYLOAD;

fn encode_key(key: i64) -> u64 {
    assert!(
        (KEY_MIN..=KEY_MAX).contains(&key),
        "key {key} outside [{KEY_MIN}, {KEY_MAX}]"
    );
    (key + KEY_OFFSET) as u64 + 1
}

/// A lock-free sorted set over a version-based-reclamation arena.
///
/// # Example
///
/// ```
/// use era_ds::VbrList;
///
/// let list = VbrList::new(1024);
/// assert!(list.insert(7));
/// assert!(!list.insert(7));
/// assert!(list.contains(7));
/// assert!(list.delete(7));
/// assert!(!list.contains(7));
/// assert_eq!(list.arena().stats().retired_now, 0); // retire == reclaim
/// ```
pub struct VbrList {
    arena: Arena<2>,
    head: Handle,
    tail: Handle,
}

impl fmt::Debug for VbrList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VbrList")
            .field("capacity", &self.arena.capacity())
            .field("live", &self.arena.live())
            .finish()
    }
}

struct Window {
    pred: Handle,
    /// Packed reference stored at `pred.NEXT` (equals `curr` packed when
    /// the window is clean).
    curr_packed: u64,
    curr: Handle,
    curr_key: u64,
}

impl VbrList {
    /// Creates a list backed by a fresh arena with room for `capacity`
    /// nodes (plus the two sentinels).
    ///
    /// # Panics
    ///
    /// Panics if the arena rejects the capacity (20-bit slot indices).
    pub fn new(capacity: usize) -> Self {
        let arena: Arena<2> = Arena::new(capacity + 2);
        let tail = arena.alloc().expect("room for sentinels");
        arena.write(tail, KEY, POS_INF).expect("fresh handle");
        arena.write(tail, NEXT, 0).expect("fresh handle");
        let head = arena.alloc().expect("room for sentinels");
        arena.write(head, KEY, NEG_INF).expect("fresh handle");
        arena
            .write(head, NEXT, tail.pack(false))
            .expect("fresh handle");
        VbrList { arena, head, tail }
    }

    /// The underlying arena (stats, capacity).
    pub fn arena(&self) -> &Arena<2> {
        &self.arena
    }

    /// Harris search with `Stale` roll-back: finds the window for
    /// `key_payload`, unlinking marked chains on the way.
    fn search(&self, key_payload: u64) -> Result<Window, Stale> {
        let mut pred = self.head;
        let mut pred_next = self.arena.read(pred, NEXT)?;
        let (mut curr, mut curr_packed) = {
            let (h, mark) = self.arena.upgrade(pred_next)?;
            debug_assert!(!mark, "head.next is never marked");
            (h, pred_next)
        };
        let mut curr_key = self.arena.read(curr, KEY)?;
        let mut curr_next = self.arena.read(curr, NEXT)?;
        // Traverse while curr is marked or its key is too small.
        loop {
            let (next_h_packed, next_marked) = {
                let (_, m) = Handle::unpack(curr_next);
                (curr_next, m)
            };
            if !next_marked && curr_key >= key_payload {
                break;
            }
            if !next_marked {
                pred = curr;
                pred_next = next_h_packed;
            }
            // Step to the successor (through marks).
            let succ_packed = {
                let (h, _) = Handle::unpack(curr_next);
                h.pack(false)
            };
            let (succ, _) = self.arena.upgrade(succ_packed)?;
            curr = succ;
            curr_packed = succ_packed;
            curr_key = self.arena.read(curr, KEY)?;
            if curr == self.tail {
                break;
            }
            curr_next = self.arena.read(curr, NEXT)?;
        }
        if pred_next == curr_packed {
            // Clean window; re-check curr is not marked (unless tail).
            if curr != self.tail {
                let n = self.arena.read(curr, NEXT)?;
                let (_, m) = Handle::unpack(n);
                if m {
                    return Err(Stale); // roll back and retry
                }
            }
            return Ok(Window {
                pred,
                curr_packed,
                curr,
                curr_key,
            });
        }
        // Unlink the marked chain [pred_next .. curr) in one CAS.
        match self.arena.cas(pred, NEXT, pred_next, curr_packed)? {
            true => {
                if curr != self.tail {
                    let n = self.arena.read(curr, NEXT)?;
                    let (_, m) = Handle::unpack(n);
                    if m {
                        return Err(Stale);
                    }
                }
                Ok(Window {
                    pred,
                    curr_packed,
                    curr,
                    curr_key,
                })
            }
            false => Err(Stale), // contention: roll back
        }
    }

    /// Inserts `key`; returns `true` iff it was absent.
    ///
    /// # Errors
    ///
    /// [`ArenaFull`] when the arena has no free slot.
    ///
    /// # Panics
    ///
    /// Panics if `key` is outside `[KEY_MIN, KEY_MAX]`.
    pub fn try_insert(&self, key: i64) -> Result<bool, ArenaFull> {
        let payload = encode_key(key);
        // Checkpoint: the whole operation re-executes on Stale.
        loop {
            let w = match self.search(payload) {
                Ok(w) => w,
                Err(Stale) => continue,
            };
            if w.curr_key == payload {
                return Ok(false);
            }
            let node = self.arena.alloc()?;
            let init = self
                .arena
                .write(node, KEY, payload)
                .and_then(|()| self.arena.write(node, NEXT, w.curr_packed));
            if init.is_err() {
                // Impossible for a fresh local node, but keep the
                // rollback discipline uniform.
                continue;
            }
            match self
                .arena
                .cas(w.pred, NEXT, w.curr_packed, node.pack(false))
            {
                Ok(true) => return Ok(true),
                Ok(false) | Err(Stale) => {
                    // Roll back: recycle the local node (local → retired,
                    // §4.1) and restart from the checkpoint.
                    let _ = self.arena.retire(node);
                }
            }
        }
    }

    /// Inserts `key`; returns `true` iff it was absent.
    ///
    /// # Panics
    ///
    /// Panics when the arena is full (use [`VbrList::try_insert`] to
    /// handle that case) or on out-of-range keys.
    pub fn insert(&self, key: i64) -> bool {
        self.try_insert(key).expect("arena full")
    }

    /// Deletes `key`; returns `true` iff it was present.
    ///
    /// # Panics
    ///
    /// Panics if `key` is outside `[KEY_MIN, KEY_MAX]`.
    pub fn delete(&self, key: i64) -> bool {
        let payload = encode_key(key);
        loop {
            let w = match self.search(payload) {
                Ok(w) => w,
                Err(Stale) => continue,
            };
            if w.curr_key != payload {
                return false;
            }
            // Logical deletion: mark curr's next.
            let succ_packed = match self.arena.read(w.curr, NEXT) {
                Ok(p) => p,
                Err(Stale) => continue,
            };
            let (succ_h, succ_marked) = Handle::unpack(succ_packed);
            if succ_marked {
                continue; // another delete is in flight
            }
            match self.arena.cas(w.curr, NEXT, succ_packed, succ_h.pack(true)) {
                Ok(true) => {}
                Ok(false) | Err(Stale) => continue,
            }
            // Physical unlink; on failure let a search() do it.
            let unlinked = matches!(
                self.arena
                    .cas(w.pred, NEXT, w.curr_packed, succ_h.pack(false)),
                Ok(true)
            );
            if !unlinked {
                // Ensure curr is unreachable before retiring it —
                // Definition 4.1's life-cycle demands retire-after-unlink,
                // and VBR reuses the slot immediately.
                loop {
                    match self.search(payload) {
                        Ok(_) => break,
                        Err(Stale) => continue,
                    }
                }
            }
            let _ = self.arena.retire(w.curr);
            return true;
        }
    }

    /// Whether `key` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `key` is outside `[KEY_MIN, KEY_MAX]`.
    pub fn contains(&self, key: i64) -> bool {
        let payload = encode_key(key);
        loop {
            match self.search(payload) {
                Ok(w) => return w.curr_key == payload,
                Err(Stale) => continue,
            }
        }
    }

    /// Snapshot of the keys (quiescent use only).
    pub fn collect_keys(&self) -> Vec<i64> {
        let mut out = Vec::new();
        let mut h = self.head;
        loop {
            let next = self.arena.read(h, NEXT).expect("quiescent traversal");
            let (nh, _) = Handle::unpack(next);
            if nh.pack(false) == 0 {
                break;
            }
            let (node, _) = self
                .arena
                .upgrade(nh.pack(false))
                .expect("quiescent traversal");
            if node == self.tail {
                break;
            }
            let key = self.arena.read(node, KEY).expect("quiescent traversal");
            let node_next = self.arena.read(node, NEXT).expect("quiescent traversal");
            let (_, marked) = Handle::unpack(node_next);
            if !marked {
                out.push(key as i64 - KEY_OFFSET - 1);
            }
            h = node;
        }
        out
    }

    /// Number of unmarked keys (quiescent use only).
    pub fn len(&self) -> usize {
        self.collect_keys().len()
    }

    /// Whether the set is empty (quiescent use only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// VBR needs no per-thread state: handles carry their own versions.
impl crate::ConcurrentSet for VbrList {
    type Ctx = ();

    fn ctx(&self) {}
    fn insert(&self, _: &mut (), key: i64) -> bool {
        VbrList::insert(self, key)
    }
    fn delete(&self, _: &mut (), key: i64) -> bool {
        VbrList::delete(self, key)
    }
    fn contains(&self, _: &mut (), key: i64) -> bool {
        VbrList::contains(self, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_semantics() {
        let list = VbrList::new(64);
        assert!(list.is_empty());
        assert!(list.insert(3));
        assert!(list.insert(1));
        assert!(list.insert(2));
        assert!(!list.insert(2));
        assert_eq!(list.collect_keys(), vec![1, 2, 3]);
        assert!(list.contains(2));
        assert!(!list.contains(9));
        assert!(list.delete(2));
        assert!(!list.delete(2));
        assert_eq!(list.collect_keys(), vec![1, 3]);
        assert!(list.insert(2));
        for k in [1, 2, 3] {
            assert!(list.delete(k));
        }
        assert!(list.is_empty());
    }

    #[test]
    fn negative_keys_order_correctly() {
        let list = VbrList::new(16);
        for k in [5, -5, 0, KEY_MIN, KEY_MAX] {
            assert!(list.insert(k));
        }
        assert_eq!(list.collect_keys(), vec![KEY_MIN, -5, 0, 5, KEY_MAX]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_key_panics() {
        let list = VbrList::new(4);
        let _ = list.insert(i64::MAX);
    }

    #[test]
    fn retired_population_is_always_zero() {
        let list = VbrList::new(8);
        for round in 0..1_000 {
            assert!(list.insert(round % 5));
            assert!(list.delete(round % 5));
            assert_eq!(list.arena().stats().retired_now, 0);
        }
        let st = list.arena().stats();
        assert_eq!(st.total_retired, st.total_reclaimed);
        assert_eq!(st.total_retired, 1_000);
    }

    #[test]
    fn arena_full_reported() {
        let list = VbrList::new(2);
        assert_eq!(list.try_insert(1), Ok(true));
        assert_eq!(list.try_insert(2), Ok(true));
        assert_eq!(list.try_insert(3), Err(ArenaFull));
        assert!(list.delete(1));
        assert_eq!(list.try_insert(3), Ok(true));
    }

    #[test]
    fn slot_reuse_does_not_corrupt_the_list() {
        // With a tiny arena, every delete's slot is immediately reused by
        // the next insert: stale handles abound; the list must stay
        // correct.
        let list = VbrList::new(4);
        for round in 0..2_000i64 {
            let k = round % 3;
            assert!(list.insert(k), "round {round}");
            assert!(list.contains(k));
            assert!(list.delete(k));
            assert!(!list.contains(k));
        }
        assert!(list.is_empty());
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn concurrent_disjoint_ranges() {
        let list = VbrList::new(4_096);
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let list = &list;
                s.spawn(move || {
                    let base = t * 500;
                    for k in base..base + 500 {
                        assert!(list.insert(k));
                    }
                    for k in base..base + 500 {
                        assert!(list.contains(k));
                    }
                    for k in base..base + 500 {
                        assert!(list.delete(k));
                    }
                });
            }
        });
        assert!(list.is_empty());
        assert_eq!(list.arena().live(), 2, "only the sentinels remain");
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn concurrent_contended_churn() {
        let list = VbrList::new(64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let list = &list;
                s.spawn(move || {
                    for round in 0..500i64 {
                        let k = round % 8;
                        if list.insert(k) {
                            let _ = list.delete(k);
                        }
                        let _ = list.contains(k);
                    }
                });
            }
        });
        // Quiescent invariants: sorted unique keys, stats balanced.
        let keys = list.collect_keys();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted);
        let st = list.arena().stats();
        assert_eq!(st.retired_now, 0);
    }
}
