//! Harris's lock-free linked list [19] — Algorithm 1 of the paper.
//!
//! The defining behaviour (and the crux of the ERA theorem): the
//! `search` traversal does **not** stop at marked nodes — it walks
//! straight through chains of logically deleted (and possibly already
//! *retired*) nodes, unlinking a whole chain with one CAS only when the
//! traversal needs a window. This makes searches fast and lock-free, but
//! it means a traversal can stand on a retired node, which is exactly
//! what protect-validate schemes (HP/HE/IBR) cannot allow (Appendix E).
//!
//! Accordingly the list is generic over schemes carrying the
//! [`SupportsUnlinkedTraversal`] marker — EBR, NBR and Leak. The type
//! system enforces Appendix E: `HarrisList<Hp>` does not compile.
//!
//! The integration follows the paper end-to-end:
//!
//! * sentinels `head` (−∞) and `tail` (+∞) that are never removed;
//! * logical deletion by marking `next` (line 48), physical unlink by
//!   the marker or any later `search` (lines 18, 50);
//! * `retire()` at line 34 (a duplicate insert retires its local node,
//!   if it has one — `insert` looks before it allocates) and
//!   line 52 (delete retires its victim after it is surely unlinked);
//! * the Appendix D phase division, surfaced to the scheme through the
//!   NBR hooks: `enter_read_phase` when a traversal (re)starts,
//!   `needs_restart` polls at every hop, `reserve`/`commit_reservations`
//!   before the write phase. For EBR/Leak these hooks are no-ops and the
//!   integration degenerates to plain `begin_op`/`end_op` — easy
//!   integration, as the paper says.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use era_smr::common::{
    is_marked, untagged, with_mark, DropFn, Smr, SmrHeader, SupportsUnlinkedTraversal,
};

/// Reservation slots for the write phase (NBR).
const SLOT_PRED: usize = 0;
const SLOT_CURR: usize = 1;

#[repr(C)]
struct Node {
    header: SmrHeader,
    key: i64,
    next: AtomicUsize,
}

impl Node {
    fn alloc(key: i64, next: usize) -> *mut Node {
        Box::into_raw(Box::new(Node {
            header: SmrHeader::new(),
            key,
            next: AtomicUsize::new(next),
        }))
    }
}

/// # Safety
/// `p` must be a pointer previously produced by `Node::alloc` that no other
/// thread can still reach (retired and past its grace period, or owned
/// exclusively by `Drop`).
unsafe fn drop_node(p: *mut u8) {
    // SAFETY: contract above — p originated in Node::alloc and is unreachable.
    unsafe { drop(Box::from_raw(p as *mut Node)) }
}

const DROP_NODE: DropFn = drop_node;

/// Harris's lock-free sorted set (sentinel keys −∞/+∞ are internal;
/// user keys span all of `i64`).
///
/// # Example
///
/// ```
/// use era_ds::HarrisList;
/// use era_smr::{ebr::Ebr, Smr};
///
/// let smr = Ebr::new(4);
/// let list = HarrisList::new(&smr);
/// let mut ctx = smr.register().unwrap();
/// assert!(list.insert(&mut ctx, 1));
/// assert!(list.insert(&mut ctx, 2));
/// assert!(list.delete(&mut ctx, 1));
/// assert!(!list.contains(&mut ctx, 1));
/// assert!(list.contains(&mut ctx, 2));
/// ```
///
/// Appendix E as a type error: hazard pointers do not implement
/// [`SupportsUnlinkedTraversal`], so this does not compile —
///
/// ```compile_fail,E0277
/// use era_ds::HarrisList;
/// use era_smr::hp::Hp;
///
/// let smr = Hp::new(4, 3);
/// let list = HarrisList::new(&smr); // HP cannot traverse marked chains
/// ```
pub struct HarrisList<'s, S: Smr + SupportsUnlinkedTraversal> {
    smr: &'s S,
    /// The −∞ sentinel. Never marked, never retired.
    head: *mut Node,
    /// The +∞ sentinel.
    tail: *mut Node,
}

// The raw sentinel pointers are immutable after construction and the
// nodes they reference are shared the same way the scheme's own nodes
// are.
// SAFETY: shared mutable state is atomics plus SMR-managed nodes; raw Node
// pointers are dereferenced only inside begin_op/end_op (or exclusively in
// Drop), and the scheme itself carries the Sync/Send bounds.
unsafe impl<S: Smr + SupportsUnlinkedTraversal + Sync> Sync for HarrisList<'_, S> {}
// SAFETY: as for `Sync` above.
unsafe impl<S: Smr + SupportsUnlinkedTraversal + Send> Send for HarrisList<'_, S> {}

impl<S: Smr + SupportsUnlinkedTraversal> fmt::Debug for HarrisList<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HarrisList")
            .field("smr", &self.smr.kind().name())
            .finish_non_exhaustive()
    }
}

struct Window {
    pred: *const Node,
    curr: *const Node,
}

impl<'s, S: Smr + SupportsUnlinkedTraversal> HarrisList<'s, S> {
    /// Creates an empty set using `smr` for reclamation.
    ///
    /// Schemes with reservation slots (NBR) must provide at least 2.
    pub fn new(smr: &'s S) -> Self {
        let tail = Node::alloc(i64::MAX, 0);
        let head = Node::alloc(i64::MIN, tail as usize);
        HarrisList { smr, head, tail }
    }

    /// Whether `key` is a user key (the sentinel keys are reserved).
    fn check_key(key: i64) {
        assert!(
            key != i64::MIN && key != i64::MAX,
            "i64::MIN/MAX are reserved sentinel keys"
        );
    }

    /// Algorithm 1, lines 1–22: locate the window for `key`, walking
    /// through marked chains and unlinking them lazily.
    ///
    /// Returns with the write phase entered: `pred`/`curr` are reserved
    /// and committed (NBR), so the caller may CAS on them; the caller
    /// must not traverse further without a new read phase.
    fn search(&self, ctx: &mut S::ThreadCtx, key: i64) -> Window {
        'retry: loop {
            self.smr.enter_read_phase(ctx);
            let mut pred: *const Node = self.head;
            // SAFETY: the whole walk runs inside the caller's begin_op on a scheme
            // with SupportsUnlinkedTraversal — marked/unlinked nodes remain
            // dereferenceable until a grace period passes (Def. 4.2 Condition 1),
            // and needs_restart is polled before trusting any read after a
            // potential neutralization.
            let mut pred_next = unsafe { (*pred).next.load(Ordering::SeqCst) }; // line 4
            let mut curr: *const Node = untagged(pred_next) as *const Node;
            // SAFETY: `curr` was read from a node of the walk: see above.
            let mut curr_next = unsafe { (*curr).next.load(Ordering::SeqCst) }; // line 6

            // line 7: traverse while curr is marked or key too small.
            // SAFETY: `curr` was read from a node of the walk: see above.
            while is_marked(curr_next) || unsafe { (*curr).key } < key {
                if self.smr.needs_restart(ctx) {
                    continue 'retry; // neutralized: drop everything
                }
                if !is_marked(curr_next) {
                    pred = curr; // lines 8–10
                    pred_next = curr_next;
                }
                curr = untagged(curr_next) as *const Node; // line 11
                if curr == self.tail {
                    break; // line 12
                }
                // SAFETY: the walk's argument above: `curr` stays dereferenceable
                // even when marked or unlinked.
                curr_next = unsafe { (*curr).next.load(Ordering::SeqCst) }; // line 13
            }
            // Write phase: reserve the window before any CAS.
            self.smr.reserve(ctx, SLOT_PRED, pred as usize);
            self.smr.reserve(ctx, SLOT_CURR, curr as usize);
            if !self.smr.commit_reservations(ctx) {
                continue 'retry;
            }
            if pred_next == curr as usize {
                // line 14: no marked chain between pred and curr
                // SAFETY: `curr` is reserved and committed for this write phase.
                if curr != self.tail && is_marked(unsafe { (*curr).next.load(Ordering::SeqCst) }) {
                    self.smr.clear_reservations(ctx);
                    continue 'retry; // lines 15–16
                }
                return Window { pred, curr }; // line 17
            }
            // line 18: unlink the whole marked chain [pred_next, curr)
            // SAFETY: `pred` is reserved and committed for this write phase.
            if unsafe { &(*pred).next }
                .compare_exchange(pred_next, curr as usize, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                // SAFETY: `curr` is reserved and committed for this write phase.
                if curr != self.tail && is_marked(unsafe { (*curr).next.load(Ordering::SeqCst) }) {
                    self.smr.clear_reservations(ctx);
                    continue 'retry; // line 20
                }
                return Window { pred, curr }; // line 22
            }
            self.smr.clear_reservations(ctx);
        }
    }

    /// `insert(key)` — Algorithm 1, lines 27–38, with one deviation:
    /// the paper allocates at line 28, before the search, and retires
    /// the unused node on a duplicate (line 34); here the node is
    /// allocated only once `search` has missed, so an insert that finds
    /// its key allocates, stamps and retires nothing. Line 34's retire
    /// remains for the node a lost linking race leaves behind.
    pub fn insert(&self, ctx: &mut S::ThreadCtx, key: i64) -> bool {
        Self::check_key(key);
        self.smr.begin_op(ctx);
        // SAFETY: `node` is fresh and unshared until the linking CAS publishes
        // it; w.pred/w.curr come from `search` under this op's protection.
        let mut node: *mut Node = std::ptr::null_mut();
        let result = loop {
            let w = self.search(ctx, key); // line 30

            // SAFETY: `w.curr` comes from `search`, under this op's protection.
            if w.curr != self.tail && unsafe { (*w.curr).key } == key {
                // lines 33–35: duplicate — retire the local node, if a
                // failed CAS on an earlier round left one
                self.smr.clear_reservations(ctx);
                if !node.is_null() {
                    // SAFETY: a failed CAS left `node` unshared, so it goes local →
                    // retired (§4.1), exactly once.
                    unsafe {
                        self.smr
                            .retire(ctx, node as *mut u8, &(*node).header, DROP_NODE);
                    }
                }
                break false;
            }
            if node.is_null() {
                node = Node::alloc(key, 0); // line 28, deferred

                // SAFETY: `node` was just allocated and is not shared yet.
                self.smr.init_header(ctx, unsafe { &(*node).header });
            }
            // SAFETY: `node` stays unshared until the CAS below publishes it.
            unsafe { (*node).next.store(w.curr as usize, Ordering::SeqCst) }; // line 36

            // SAFETY: `w.pred` is reserved and committed by `search`.
            let linked = unsafe { &(*w.pred).next }
                .compare_exchange(
                    w.curr as usize,
                    node as usize,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok(); // line 37
            self.smr.clear_reservations(ctx);
            if linked {
                break true; // line 38
            }
        };
        self.smr.end_op(ctx);
        result
    }

    /// `delete(key)` — Algorithm 1, lines 39–53.
    pub fn delete(&self, ctx: &mut S::ThreadCtx, key: i64) -> bool {
        Self::check_key(key);
        self.smr.begin_op(ctx);
        let result = 'outer: loop {
            let w = self.search(ctx, key); // line 41

            // SAFETY: w.pred/w.curr are protected by this op (search returned them
            // under our begin_op); the mark CAS wins at most once, so the retire
            // below happens exactly once per node.
            if w.curr == self.tail || unsafe { (*w.curr).key } != key {
                self.smr.clear_reservations(ctx);
                break false; // lines 44–45
            }
            loop {
                // SAFETY: `w.curr` is protected by this op: see above.
                let succ_word = unsafe { (*w.curr).next.load(Ordering::SeqCst) };
                if is_marked(succ_word) {
                    // line 46: concurrently deleted — retry the search
                    self.smr.clear_reservations(ctx);
                    continue 'outer;
                }
                // line 48: logical deletion (mark curr's next)
                // SAFETY: `w.curr` is protected by this op.
                if unsafe { &(*w.curr).next }
                    .compare_exchange(
                        succ_word,
                        with_mark(succ_word),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_err()
                {
                    continue; // line 49
                }
                // line 50: try to unlink; otherwise a search() will
                // SAFETY: `w.pred` is protected by this op.
                let unlinked = unsafe { &(*w.pred).next }
                    .compare_exchange(
                        w.curr as usize,
                        untagged(succ_word),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok();
                self.smr.clear_reservations(ctx);
                if !unlinked {
                    let _ = self.search(ctx, key); // line 51
                    self.smr.clear_reservations(ctx);
                }
                // line 52: the marker retires — exactly once per node
                // SAFETY: the winning mark CAS above makes this op `w.curr`'s unique
                // retirer; `w.curr` is still protected, so its header is readable.
                unsafe {
                    self.smr
                        .retire(ctx, w.curr as *mut u8, &(*w.curr).header, DROP_NODE);
                }
                break 'outer true; // line 53
            }
        };
        self.smr.end_op(ctx);
        result
    }

    /// `contains(key)` — Algorithm 1 restricts searches to lines 23–26
    /// (a `search` call), but Harris's model never *requires* a search
    /// to help unlink, and every scheme this list's type bound admits
    /// is op-scoped (EBR/NBR/leak — no per-node protection), so
    /// the read path here is the wait-free raw-link walk Herlihy &
    /// Shavit prove linearizable for this list family: follow `next`
    /// words — through marked chains — and decide from the first node
    /// with `key ≥ target`. No unlink CASes, no reservations (nothing
    /// is dereferenced after the read phase ends), no window tracking.
    ///
    /// Restart-based schemes void the op-scoped protection when they
    /// neutralize a thread, so the walk polls [`Smr::needs_restart`]
    /// every hop (a relaxed self-flag load) and rewalks from the head.
    pub fn contains(&self, ctx: &mut S::ThreadCtx, key: i64) -> bool {
        Self::check_key(key);
        self.smr.begin_op(ctx);
        let found = 'retry: loop {
            self.smr.enter_read_phase(ctx);
            // SAFETY(ordering): SeqCst link loads keep the walk in the
            // retire-stamp SC chain (see `Smr::load`) — free on x86-TSO.
            let mut curr =
                // SAFETY: the head sentinel is never retired.
                untagged(unsafe { (*self.head).next.load(Ordering::SeqCst) }) as *const Node;
            loop {
                if self.smr.needs_restart(ctx) {
                    continue 'retry;
                }
                // The tail sentinel (key = i64::MAX, never retired)
                // stops the walk without an explicit pointer compare:
                // check_key rejects i64::MAX as a user key.
                // SAFETY: op-scoped protection: the caller's `begin_op` keeps every
                // node on the walk unreclaimed, marked or not.
                let next = unsafe { (*curr).next.load(Ordering::SeqCst) };
                // SAFETY: as above: `curr` is protected for the whole operation.
                let ckey = unsafe { (*curr).key };
                if ckey < key {
                    curr = untagged(next) as *const Node;
                    continue;
                }
                break 'retry ckey == key && !is_marked(next);
            }
        };
        self.smr.end_op(ctx);
        found
    }

    /// Snapshot of the keys (quiescent use only).
    // LINT: quiescent — snapshot API, documented callers-must-be-quiescent contract.
    pub fn collect_keys(&self) -> Vec<i64> {
        let mut out = Vec::new();
        // SAFETY: quiescent snapshot contract (doc above): no concurrent writers,
        // so every reachable node is live.
        let mut node = untagged(unsafe { (*self.head).next.load(Ordering::SeqCst) }) as *const Node;
        while node != self.tail {
            // SAFETY: as above: every reachable node is live.
            let next = unsafe { (*node).next.load(Ordering::SeqCst) };
            if !is_marked(next) {
                // SAFETY: as above: every reachable node is live.
                out.push(unsafe { (*node).key });
            }
            node = untagged(next) as *const Node;
        }
        out
    }

    /// Number of unmarked nodes (quiescent use only).
    pub fn len(&self) -> usize {
        self.collect_keys().len()
    }

    /// Whether the set is empty (quiescent use only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<S: Smr + SupportsUnlinkedTraversal> Drop for HarrisList<'_, S> {
    // LINT: exclusive — &mut self in Drop: no concurrent readers can exist.
    fn drop(&mut self) {
        let mut node = self.head;
        while !node.is_null() {
            // SAFETY: &mut self — exclusive access; marked nodes included, each
            // reachable node is freed exactly once, stopping at the tail sentinel.
            let next = untagged(unsafe { (*node).next.load(Ordering::SeqCst) }) as *mut Node;
            // SAFETY: `node` is reachable only through this list, which `Drop`
            // owns exclusively; each node is freed once.
            unsafe { drop_node(node as *mut u8) };
            if node == self.tail {
                break;
            }
            node = next;
        }
    }
}

crate::concurrent_set::impl_concurrent_set!(HarrisList: Smr + SupportsUnlinkedTraversal);

#[cfg(test)]
mod tests {
    use super::*;
    use era_smr::ebr::Ebr;
    use era_smr::leak::Leak;
    use era_smr::nbr::Nbr;

    fn exercise_sequential<S: Smr + SupportsUnlinkedTraversal>(smr: &S) {
        let list = HarrisList::new(smr);
        let mut ctx = smr.register().unwrap();
        assert!(list.is_empty());
        assert!(list.insert(&mut ctx, 3));
        assert!(list.insert(&mut ctx, 1));
        assert!(list.insert(&mut ctx, 2));
        assert!(!list.insert(&mut ctx, 2));
        assert_eq!(list.collect_keys(), vec![1, 2, 3]);
        assert!(list.contains(&mut ctx, 2));
        assert!(!list.contains(&mut ctx, 7));
        assert!(list.delete(&mut ctx, 2));
        assert!(!list.delete(&mut ctx, 2));
        assert!(list.insert(&mut ctx, 2));
        for k in [1, 2, 3] {
            assert!(list.delete(&mut ctx, k));
        }
        assert!(list.is_empty());
    }

    #[test]
    fn sequential_semantics_all_compatible_schemes() {
        exercise_sequential(&Ebr::new(2));
        exercise_sequential(&Nbr::new(2, 2));
        exercise_sequential(&Leak::new(2));
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    #[should_panic(expected = "reserved sentinel keys")]
    fn sentinel_keys_rejected() {
        let smr = Leak::new(1);
        let list = HarrisList::new(&smr);
        let mut ctx = smr.register().unwrap();
        let _ = list.insert(&mut ctx, i64::MAX);
    }

    #[test]
    fn marked_chain_unlinked_in_one_cas() {
        // Build 1→2→3, mark 1 and 2 without unlinking (simulating two
        // deletes paused after line 48), then let a search unlink the
        // whole chain at once.
        let smr = Leak::new(1);
        let list = HarrisList::new(&smr);
        let mut ctx = smr.register().unwrap();
        for k in [1, 2, 3] {
            assert!(list.insert(&mut ctx, k));
        }
        // LINT: quiescent — single-threaded test poking at a private list.
        // SAFETY: single-threaded test; no node has been retired, so every link
        // target is live. Marking by hand mimics delete's line 48.
        // Mark nodes 1 and 2 by hand (what delete's line 48 does).
        unsafe {
            let n1 = untagged((*list.head).next.load(Ordering::SeqCst)) as *const Node;
            assert_eq!((*n1).key, 1);
            let n1_next = (*n1).next.load(Ordering::SeqCst);
            let n2 = untagged(n1_next) as *const Node;
            assert_eq!((*n2).key, 2);
            let n2_next = (*n2).next.load(Ordering::SeqCst);
            (*n2).next.store(with_mark(n2_next), Ordering::SeqCst);
            (*n1).next.store(with_mark(n1_next), Ordering::SeqCst);
        }
        assert_eq!(list.collect_keys(), vec![3]);
        // contains is read-only: it sees through the marked chain
        // without unlinking anything.
        assert!(list.contains(&mut ctx, 3));
        assert!(!list.contains(&mut ctx, 1));
        // SAFETY: this thread alone uses the list, so every reachable node
        // is live.
        unsafe {
            let first = untagged((*list.head).next.load(Ordering::SeqCst)) as *const Node;
            assert_eq!((*first).key, 1, "read-only contains must not unlink");
        }
        // A mutation's search() unlinks the whole chain in one CAS.
        assert!(!list.delete(&mut ctx, 0));
        // SAFETY: this thread alone uses the list, so every reachable node
        // is live.
        unsafe {
            let first = untagged((*list.head).next.load(Ordering::SeqCst)) as *const Node;
            assert_eq!((*first).key, 3, "marked chain must be physically unlinked");
        }
    }

    #[test]
    fn duplicate_insert_allocates_and_retires_nothing() {
        fn check<S: Smr + SupportsUnlinkedTraversal>(smr: &S) {
            let list = HarrisList::new(smr);
            let mut ctx = smr.register().unwrap();
            assert!(list.insert(&mut ctx, 7));
            for _ in 0..1_000 {
                assert!(!list.insert(&mut ctx, 7));
            }
            assert_eq!(smr.stats().total_retired, 0, "{}", smr.kind().name());
            assert_eq!(list.collect_keys(), vec![7]);
        }
        check(&Ebr::new(2));
        check(&Nbr::new(2, 2));
    }

    #[test]
    fn ebr_reclaims_under_churn() {
        let smr = Ebr::with_threshold(2, 8);
        let list = HarrisList::new(&smr);
        let mut ctx = smr.register().unwrap();
        for k in 0..300 {
            assert!(list.insert(&mut ctx, k));
            assert!(list.delete(&mut ctx, k));
        }
        for _ in 0..6 {
            smr.flush(&mut ctx);
        }
        let st = smr.stats();
        assert_eq!(st.total_retired, 300);
        assert!(st.total_reclaimed >= 200, "{st}");
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn nbr_reclaims_with_cooperative_readers() {
        let smr = Nbr::with_threshold(4, 2, 16);
        let list = HarrisList::new(&smr);
        std::thread::scope(|s| {
            let list = &list;
            let smr_ref = &smr;
            // Churner retires nodes and neutralizes.
            s.spawn(move || {
                let mut ctx = smr_ref.register().unwrap();
                for k in 0..500i64 {
                    assert!(list.insert(&mut ctx, k % 50 + 1000));
                    assert!(list.delete(&mut ctx, k % 50 + 1000));
                }
                smr_ref.flush(&mut ctx);
            });
            // Cooperative readers poll inside search().
            for _ in 0..2 {
                s.spawn(move || {
                    let mut ctx = smr_ref.register().unwrap();
                    for k in 0..500i64 {
                        let _ = list.contains(&mut ctx, k % 50 + 1000);
                    }
                });
            }
        });
        let st = smr.stats();
        assert_eq!(st.total_retired, 500);
        assert!(
            st.total_reclaimed >= 400,
            "cooperative neutralization must reclaim: {st}"
        );
    }
}
