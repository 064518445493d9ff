//! A lock-free skip list (Fraser / Herlihy–Shavit style) — the §5.1
//! case study for why protection-slot counts matter.
//!
//! Towers are Harris lists per level: logical deletion marks the `next`
//! pointer of every level (level 0 last — the linearization point),
//! traversals walk through marked nodes and unlink lazily. Protecting a
//! traversal with hazard pointers would need a slot per level — "the
//! number of hazard pointers … may also depend on the number of active
//! nodes (e.g., for skip lists with a dynamic number of levels)" (§5.1)
//! — so this implementation requires an [`EpochProtected`] scheme
//! (EBR or the leaking baseline), where `begin_op`/`end_op` protect
//! everything in between. Integrating a reservation-based scheme here
//! is exactly the non-trivial manual work Definition 5.3 rules out.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use era_smr::common::{is_marked, untagged, with_mark, DropFn, EpochProtected, Smr, SmrHeader};

/// Maximum tower height.
pub const MAX_HEIGHT: usize = 12;

#[repr(C)]
struct Node {
    header: SmrHeader,
    key: i64,
    height: usize,
    next: [AtomicUsize; MAX_HEIGHT],
}

impl Node {
    fn alloc(key: i64, height: usize) -> *mut Node {
        Box::into_raw(Box::new(Node {
            header: SmrHeader::new(),
            key,
            height,
            next: std::array::from_fn(|_| AtomicUsize::new(0)),
        }))
    }
}

/// # Safety
/// `p` must be a pointer previously produced by [`Node::alloc`] that no
/// other thread can still reach (retired and past its grace period, or
/// owned exclusively by `Drop`).
unsafe fn drop_node(p: *mut u8) {
    // SAFETY: contract above — p originated in Node::alloc and is unreachable.
    unsafe { drop(Box::from_raw(p as *mut Node)) }
}

const DROP_NODE: DropFn = drop_node;

/// A lock-free sorted set with expected O(log n) operations.
///
/// # Example
///
/// ```
/// use era_ds::SkipList;
/// use era_smr::{ebr::Ebr, Smr};
///
/// let smr = Ebr::new(4);
/// let list = SkipList::new(&smr);
/// let mut ctx = smr.register().unwrap();
/// for k in [5, 1, 9, 3] {
///     assert!(list.insert(&mut ctx, k));
/// }
/// assert!(list.contains(&mut ctx, 3));
/// assert!(list.delete(&mut ctx, 3));
/// assert_eq!(list.collect_keys(), vec![1, 5, 9]);
/// ```
pub struct SkipList<'s, S: Smr + EpochProtected> {
    smr: &'s S,
    head: *mut Node,
    tail: *mut Node,
    /// xorshift state for tower-height selection.
    rng: AtomicU64,
}

// SAFETY: all shared mutable state is atomics (tower links, rng) or owned by
// the SMR scheme, which carries its own Sync/Send bounds; raw Node pointers
// are only dereferenced under the epoch pin or exclusive access.
unsafe impl<S: Smr + EpochProtected + Sync> Sync for SkipList<'_, S> {}
// SAFETY: as for `Sync` above.
unsafe impl<S: Smr + EpochProtected + Send> Send for SkipList<'_, S> {}

impl<S: Smr + EpochProtected> fmt::Debug for SkipList<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipList")
            .field("smr", &self.smr.kind().name())
            .finish_non_exhaustive()
    }
}

struct FindResult {
    preds: [*const Node; MAX_HEIGHT],
    succs: [*const Node; MAX_HEIGHT],
    found: Option<*const Node>,
}

impl<'s, S: Smr + EpochProtected> SkipList<'s, S> {
    /// Creates an empty skip list using `smr` for reclamation.
    // LINT: exclusive — sentinel towers are freshly allocated and still unshared.
    pub fn new(smr: &'s S) -> Self {
        let tail = Node::alloc(i64::MAX, MAX_HEIGHT);
        let head = Node::alloc(i64::MIN, MAX_HEIGHT);
        for level in 0..MAX_HEIGHT {
            // SAFETY: head/tail were just allocated and are not yet shared.
            unsafe { (*head).next[level].store(tail as usize, Ordering::SeqCst) };
        }
        SkipList {
            smr,
            head,
            tail,
            rng: AtomicU64::new(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn check_key(key: i64) {
        assert!(
            key != i64::MIN && key != i64::MAX,
            "i64::MIN/MAX are reserved sentinel keys"
        );
    }

    /// Geometric tower height in `1..=MAX_HEIGHT` (p = 1/2).
    fn random_height(&self) -> usize {
        let mut x = self.rng.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // SAFETY(ordering): Relaxed — rng is a per-structure xorshift seed; racy
        // interleavings only perturb tower heights, never correctness.
        self.rng.store(x, Ordering::Relaxed);
        ((x.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    }

    /// Positions `preds`/`succs` around `key` at every level, unlinking
    /// marked nodes encountered on the way (Harris-per-level). Returns
    /// the node with the key when one is linked and unmarked at level 0.
    // LINT: op-scoped — callers hold begin_op (insert/remove/contains); the skip
    // list is EpochProtected-only, so the pin covers every node on the walk.
    fn find(&self, key: i64) -> FindResult {
        'retry: loop {
            let mut preds = [std::ptr::null::<Node>(); MAX_HEIGHT];
            let mut succs = [std::ptr::null::<Node>(); MAX_HEIGHT];
            let mut pred: *const Node = self.head;
            // SAFETY: every node on this walk (head sentinel included) is pinned by
            // the caller's begin_op — the skip list is EpochProtected-only, so a
            // retired tower cannot be reclaimed while this op is pinned (Def. 4.2
            // Condition 1); marked nodes stay dereferenceable until unlinked + grace.
            for level in (0..MAX_HEIGHT).rev() {
                // SAFETY: `pred` is the head or a node of this pinned walk.
                let mut curr_word = unsafe { (*pred).next[level].load(Ordering::SeqCst) };
                if is_marked(curr_word) {
                    // pred got deleted under us: start over.
                    continue 'retry;
                }
                loop {
                    let curr = untagged(curr_word) as *const Node;
                    // SAFETY: `curr` was read from a node of this pinned walk.
                    let succ_word = unsafe { (*curr).next[level].load(Ordering::SeqCst) };
                    if is_marked(succ_word) {
                        // curr is logically deleted at this level:
                        // unlink it here and re-examine.
                        // SAFETY: `pred` is a node of this pinned walk.
                        if unsafe { &(*pred).next[level] }
                            .compare_exchange(
                                curr_word,
                                untagged(succ_word),
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            )
                            .is_err()
                        {
                            continue 'retry;
                        }
                        curr_word = untagged(succ_word);
                        continue;
                    }
                    // SAFETY: `curr` is a node of this pinned walk.
                    if unsafe { (*curr).key } < key {
                        // succ_word is unmarked here (checked above), so
                        // it is a plain pointer to curr's successor.
                        pred = curr;
                        curr_word = succ_word;
                        continue;
                    }
                    preds[level] = pred;
                    succs[level] = curr;
                    break;
                }
            }
            let candidate = succs[0];
            // SAFETY: `candidate` is a node of this pinned walk, or the tail.
            let found = (candidate != self.tail
                && unsafe { (*candidate).key } == key
                && !is_marked(unsafe { (*candidate).next[0].load(Ordering::SeqCst) }))
            .then_some(candidate);
            return FindResult {
                preds,
                succs,
                found,
            };
        }
    }

    /// Inserts `key`; returns `true` iff it was absent.
    pub fn insert(&self, ctx: &mut S::ThreadCtx, key: i64) -> bool {
        Self::check_key(key);
        self.smr.begin_op(ctx);
        let height = self.random_height();
        let node = Node::alloc(key, height);
        // SAFETY: `node` is freshly allocated (unshared until the linking CAS
        // publishes it); preds/succs from `find` are pinned by begin_op above.
        self.smr.init_header(ctx, unsafe { &(*node).header });
        let result = 'retry: loop {
            let w = self.find(key);
            if w.found.is_some() {
                // SAFETY: the node was never linked, so it goes local → retired
                // (§4.1), exactly once.
                unsafe {
                    self.smr
                        .retire(ctx, node as *mut u8, &(*node).header, DROP_NODE);
                }
                break false;
            }
            // Prepare the tower, then link level 0 (the linearization).
            for level in 0..height {
                // SAFETY: `node` stays unshared until the CAS below publishes it.
                unsafe { (*node).next[level].store(w.succs[level] as usize, Ordering::SeqCst) };
            }
            // SAFETY: `w.preds[0]` comes from `find` under this op's pin.
            if unsafe { &(*w.preds[0]).next[0] }
                .compare_exchange(
                    w.succs[0] as usize,
                    node as usize,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_err()
            {
                continue 'retry;
            }
            // Link the upper levels best-effort.
            for level in 1..height {
                loop {
                    // SAFETY: `node` is linked now, and pinned by this op.
                    let expected = unsafe { (*node).next[level].load(Ordering::SeqCst) };
                    if is_marked(expected) {
                        // Concurrently deleted before fully linked: the
                        // deleter owns retirement; we are done.
                        break 'retry true;
                    }
                    let w2 = self.find(key);
                    match w2.found {
                        Some(n) if std::ptr::eq(n, node) => {
                            // Point our level-`level` next at the fresh
                            // successor if it moved.
                            if expected != w2.succs[level] as usize
                                // SAFETY: `node` is pinned by this op.
                                && unsafe { &(*node).next[level] }
                                    .compare_exchange(
                                        expected,
                                        w2.succs[level] as usize,
                                        Ordering::SeqCst,
                                        Ordering::SeqCst,
                                    )
                                    .is_err()
                            {
                                continue; // marked or changed: re-examine
                            }
                            // SAFETY: `w2.preds` come from `find` under this op's pin.
                            if unsafe { &(*w2.preds[level]).next[level] }
                                .compare_exchange(
                                    w2.succs[level] as usize,
                                    node as usize,
                                    Ordering::SeqCst,
                                    Ordering::SeqCst,
                                )
                                .is_ok()
                            {
                                break; // this level is linked
                            }
                            // else: contention at this level — retry it.
                        }
                        _ => break 'retry true, // deleted concurrently
                    }
                }
            }
            break true;
        };
        self.smr.end_op(ctx);
        result
    }

    /// Deletes `key`; returns `true` iff it was present.
    pub fn delete(&self, ctx: &mut S::ThreadCtx, key: i64) -> bool {
        Self::check_key(key);
        self.smr.begin_op(ctx);
        let result = 'done: {
            let w = self.find(key);
            let Some(node) = w.found else {
                break 'done false;
            };
            // SAFETY: `node` came out of `find` under this op's begin_op pin, so
            // its tower stays dereferenceable for the whole mark-and-unlink dance.
            let height = unsafe { (*node).height };
            // Mark the upper levels top-down (idempotent, cooperative).
            for level in (1..height).rev() {
                loop {
                    // SAFETY: as above: `node`'s tower stays dereferenceable.
                    let succ = unsafe { (*node).next[level].load(Ordering::SeqCst) };
                    if is_marked(succ) {
                        break;
                    }
                    // SAFETY: as above: `node`'s tower stays dereferenceable.
                    let _ = unsafe { &(*node).next[level] }.compare_exchange(
                        succ,
                        with_mark(succ),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                }
            }
            // Level 0 decides the winner.
            loop {
                // SAFETY: as above: `node`'s tower stays dereferenceable.
                let succ = unsafe { (*node).next[0].load(Ordering::SeqCst) };
                if is_marked(succ) {
                    // Someone else won the logical deletion.
                    break;
                }
                // SAFETY: as above: `node`'s tower stays dereferenceable.
                if unsafe { &(*node).next[0] }
                    .compare_exchange(succ, with_mark(succ), Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    // We won: physically unlink via find, then retire.
                    let _ = self.find(key);
                    // SAFETY: the winning level-0 mark makes this op `node`'s unique
                    // retirer; `node` is still pinned, so its header is readable.
                    unsafe {
                        self.smr
                            .retire(ctx, node as *mut u8, &(*node).header, DROP_NODE);
                    }
                    self.smr.end_op(ctx);
                    return true;
                }
            }
            // Lost the race: the key was deleted by someone else.
            false
        };
        self.smr.end_op(ctx);
        result
    }

    /// Whether `key` is in the set.
    pub fn contains(&self, ctx: &mut S::ThreadCtx, key: i64) -> bool {
        Self::check_key(key);
        self.smr.begin_op(ctx);
        // Wait-free-ish lookup: pure traversal, no unlinking.
        let mut pred: *const Node = self.head;
        let mut found = false;
        // SAFETY: traversal is pinned by begin_op above (EpochProtected-only
        // structure), so every link leads to not-yet-reclaimed memory.
        for level in (0..MAX_HEIGHT).rev() {
            // SAFETY: `pred` is the head or a node of this pinned traversal.
            let mut curr =
                untagged(unsafe { (*pred).next[level].load(Ordering::SeqCst) }) as *const Node;
            loop {
                // SAFETY: `curr` is a node of this pinned traversal.
                let succ_word = unsafe { (*curr).next[level].load(Ordering::SeqCst) };
                if is_marked(succ_word) {
                    curr = untagged(succ_word) as *const Node;
                    continue;
                }
                // SAFETY: `curr` is a node of this pinned traversal.
                let ckey = unsafe { (*curr).key };
                if ckey < key {
                    pred = curr;
                    curr = untagged(succ_word) as *const Node;
                    continue;
                }
                if level == 0 {
                    found = ckey == key;
                }
                break;
            }
        }
        self.smr.end_op(ctx);
        found
    }

    /// Snapshot of the keys (quiescent use only).
    // LINT: quiescent — snapshot API, documented callers-must-be-quiescent contract.
    pub fn collect_keys(&self) -> Vec<i64> {
        let mut out = Vec::new();
        // SAFETY: quiescent snapshot contract (doc above): no concurrent writers,
        // so every reachable node is live.
        let mut node =
            untagged(unsafe { (*self.head).next[0].load(Ordering::SeqCst) }) as *const Node;
        while node != self.tail {
            // SAFETY: as above: every reachable node is live.
            let next = unsafe { (*node).next[0].load(Ordering::SeqCst) };
            if !is_marked(next) {
                // SAFETY: as above: every reachable node is live.
                out.push(unsafe { (*node).key });
            }
            node = untagged(next) as *const Node;
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

    /// Structural invariant check (quiescent use only): keys strictly
    /// ascending at level 0, and every upper-level link lands on a node
    /// whose key is ≥ its level-0 successor chain position.
    // LINT: quiescent — structural audit, documented callers-must-be-quiescent contract.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Level 0: strictly sorted.
        let keys = self.collect_keys();
        for w in keys.windows(2) {
            if w[0] >= w[1] {
                return Err(format!("level-0 order violated: {} ≥ {}", w[0], w[1]));
            }
        }
        // Upper levels: sorted sub-chains of live nodes.
        for level in 1..MAX_HEIGHT {
            // SAFETY: same quiescent contract as collect_keys.
            let mut node =
                untagged(unsafe { (*self.head).next[level].load(Ordering::SeqCst) }) as *const Node;
            let mut last = i64::MIN;
            while node != self.tail {
                // SAFETY: as above: every reachable node is live.
                let key = unsafe { (*node).key };
                if key <= last {
                    return Err(format!("level-{level} order violated at key {key}"));
                }
                last = key;
                // SAFETY: as above: every reachable node is live.
                node =
                    untagged(unsafe { (*node).next[level].load(Ordering::SeqCst) }) as *const Node;
            }
        }
        Ok(())
    }
}

impl<S: Smr + EpochProtected> Drop for SkipList<'_, S> {
    // LINT: exclusive — &mut self in Drop: no concurrent readers can exist.
    fn drop(&mut self) {
        let mut node = self.head;
        loop {
            // SAFETY: &mut self — exclusive access; every level-0-reachable node
            // (marked or not) is freed exactly once, sentinels included.
            let next = untagged(unsafe { (*node).next[0].load(Ordering::SeqCst) }) as *mut Node;
            let is_tail = node == self.tail;
            // SAFETY: `node` is reachable only through this list, which `Drop`
            // owns exclusively; each node is freed once.
            unsafe { drop_node(node as *mut u8) };
            if is_tail {
                break;
            }
            node = next;
        }
    }
}

crate::concurrent_set::impl_concurrent_set!(SkipList: Smr + EpochProtected);

#[cfg(test)]
mod tests {
    use super::*;
    use era_smr::ebr::Ebr;
    use era_smr::leak::Leak;

    #[test]
    fn sequential_semantics() {
        let smr = Ebr::new(2);
        let list = SkipList::new(&smr);
        let mut ctx = smr.register().unwrap();
        assert!(list.is_empty());
        for k in [5, 1, 9, 3, 7] {
            assert!(list.insert(&mut ctx, k));
        }
        assert!(!list.insert(&mut ctx, 5));
        assert_eq!(list.collect_keys(), vec![1, 3, 5, 7, 9]);
        for k in [1, 3, 5, 7, 9] {
            assert!(list.contains(&mut ctx, k));
        }
        assert!(!list.contains(&mut ctx, 4));
        assert!(list.delete(&mut ctx, 5));
        assert!(!list.delete(&mut ctx, 5));
        assert!(!list.contains(&mut ctx, 5));
        assert_eq!(list.len(), 4);
        list.check_invariants().unwrap();
    }

    #[test]
    fn larger_sequential_workload() {
        let smr = Ebr::with_threshold(2, 32);
        let list = SkipList::new(&smr);
        let mut ctx = smr.register().unwrap();
        // Insert shuffled-ish, delete half, verify.
        for i in 0..1_000i64 {
            let k = (i * 7919) % 1_000;
            let _ = list.insert(&mut ctx, k);
        }
        assert_eq!(list.len(), 1_000);
        list.check_invariants().unwrap();
        for k in (0..1_000).step_by(2) {
            assert!(list.delete(&mut ctx, k));
        }
        assert_eq!(list.len(), 500);
        list.check_invariants().unwrap();
        for _ in 0..6 {
            smr.flush(&mut ctx);
        }
        assert!(smr.stats().total_reclaimed > 0);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn random_heights_are_geometricish() {
        let smr = Leak::new(1);
        let list = SkipList::new(&smr);
        let mut ones = 0;
        for _ in 0..1_000 {
            let h = list.random_height();
            assert!((1..=MAX_HEIGHT).contains(&h));
            if h == 1 {
                ones += 1;
            }
        }
        assert!((300..=700).contains(&ones), "h=1 should be ~50%: {ones}");
    }

    #[test]
    #[should_panic(expected = "reserved sentinel keys")]
    fn sentinel_keys_rejected() {
        let smr = Leak::new(1);
        let list = SkipList::new(&smr);
        let mut ctx = smr.register().unwrap();
        let _ = list.insert(&mut ctx, i64::MIN);
    }
}
