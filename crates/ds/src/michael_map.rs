//! Michael's lock-free linked list \[30\] — *the* HP-compatible list of
//! this crate, as an ordered **map** (`i64 → i64`) with in-place value
//! updates. Through [`crate::ConcurrentSet`] it is also the set of its
//! keys, which is how the set benchmarks and model tests drive it.
//!
//! Michael modified Harris's list so that traversals never move past a
//! *marked* node: on encountering one, the traversal unlinks it first
//! (retrying from the head if the unlink CAS fails). As a result every
//! node a traversal stands on is reachable-and-protected, which is
//! exactly what the protect-validate schemes (HP, HE, IBR) need — and
//! why the paper calls this the implementation that was "originally
//! designated to fit HP" (§6). The cost relative to Harris's list is
//! restart-on-contention during traversals. A node is published when
//! the walk steps onto it and at no other time — one protected load
//! per node visited, Michael's own count (2004, Fig. 9) — so three
//! hazard slots suffice: two alternate on `curr`, one holds the node
//! owning `prev`. Under op-scoped schemes
//! (EBR/NBR/leak) lookups take a read-only fast path that skips
//! the hazard discipline entirely — see [`MichaelMap::get`].
//!
//! Nodes carry a mutable value word next to the immutable key. `get`
//! reads the value of a protected node; `insert` either links a new
//! node or swaps the value of the existing one (upsert);
//! `insert_if_absent` links or leaves it; `remove` unlinks
//! Michael-style. The value word belongs to the *data structure* — the
//! reclamation scheme never touches it (Definition 5.3, Condition 5,
//! from the structure's side of the fence).

use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

use era_smr::common::{is_marked, untagged, with_mark, DropFn, Smr, SmrHeader};

/// A list node. The scheme-owned [`SmrHeader`] comes first (Condition 5
/// of Definition 5.3: the scheme gets its own added field and never
/// touches `key`/`value`/`next`).
#[repr(C)]
struct Node {
    header: SmrHeader,
    key: i64,
    value: AtomicI64,
    next: AtomicUsize,
}

impl Node {
    fn alloc(key: i64, value: i64, next: usize) -> *mut Node {
        Box::into_raw(Box::new(Node {
            header: SmrHeader::new(),
            key,
            value: AtomicI64::new(value),
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

/// Protection slot of the node owning `prev`; slots 0/1 alternate on `curr`.
const SLOT_PREV: usize = 2;

/// A lock-free sorted map from `i64` keys to `i64` values.
///
/// # Example
///
/// ```
/// use era_ds::MichaelMap;
/// use era_smr::{hp::Hp, Smr};
///
/// let smr = Hp::new(2, 3);
/// let map = MichaelMap::new(&smr);
/// let mut ctx = smr.register().unwrap();
/// assert_eq!(map.insert(&mut ctx, 1, 10), None);
/// assert_eq!(map.insert(&mut ctx, 1, 11), Some(10)); // upsert
/// assert_eq!(map.get(&mut ctx, 1), Some(11));
/// assert_eq!(map.remove(&mut ctx, 1), Some(11));
/// assert_eq!(map.get(&mut ctx, 1), None);
/// ```
pub struct MichaelMap<'s, S: Smr> {
    smr: &'s S,
    head: AtomicUsize,
}

impl<S: Smr> fmt::Debug for MichaelMap<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MichaelMap")
            .field("smr", &self.smr.kind().name())
            .finish_non_exhaustive()
    }
}

struct Window {
    /// Location holding the link to `curr` (the head or a node's `next`).
    prev: *const AtomicUsize,
    /// Unmarked link word found at `prev` (0 = end of list).
    curr_word: usize,
    found: bool,
}

impl<'s, S: Smr> MichaelMap<'s, S> {
    /// Creates an empty map using `smr` for reclamation.
    ///
    /// Protect-based schemes must provide at least 3 slots per thread.
    pub fn new(smr: &'s S) -> Self {
        MichaelMap {
            smr,
            head: AtomicUsize::new(0),
        }
    }

    /// Michael's `find`: positions a window `(prev, curr)` such that
    /// `curr` is the first node with `key ≥ target`, unlinking every
    /// marked node encountered on the way.
    ///
    /// A node is published only when the walk steps onto it (Michael
    /// 2004, Fig. 9): one protected load per node visited, none for the
    /// successor of the node the walk stops on. At every step `curr`
    /// sits in slot `cs` (0 or 1, alternating), the node owning `prev`
    /// in [`SLOT_PREV`], and slot `1 - cs` holds a node the walk has
    /// left behind. On return, `curr` (if any) and the owner of `prev`
    /// are protected in those slots — valid until `end_op`.
    fn find(&self, ctx: &mut S::ThreadCtx, key: i64) -> Window {
        'retry: loop {
            let mut prev: *const AtomicUsize = &self.head;
            let mut cs = 0usize;
            // SAFETY: Michael-style hand-over-hand protection — `prev` always
            // points into a node protected by SLOT_PREV (or the head, which is
            // never freed), and `curr` was read from `prev` by a protected,
            // validated load into slot `cs` while the owner of `prev` was
            // protected and its link unmarked: an unmarked node is linked, so
            // `curr` was reachable at validation time and its hazard precedes
            // any retire. Every deref below is of `curr` or `prev`; the
            // successor is only ever a CAS operand until the walk steps onto
            // it. Validation failures restart the walk.
            let mut curr_word = self.smr.load(ctx, cs, unsafe { &*prev });
            loop {
                debug_assert!(!is_marked(curr_word));
                if curr_word == 0 {
                    return Window {
                        prev,
                        curr_word: 0,
                        found: false,
                    };
                }
                let node = curr_word as *const Node;
                // SAFETY(ordering): plain SeqCst read of a protected node's
                // link — enough for the mark check and the unlink CAS operand
                // (the successor is not dereferenced here), and SeqCst keeps
                // op-scoped schemes in the retire-stamp chain of `Smr::load`.
                // SAFETY: `curr` is protected in slot `cs` (the walk's argument above).
                let next_word = unsafe { (*node).next.load(Ordering::SeqCst) };
                // Michael's re-validation (Fig. 9, line 13): curr must still
                // be linked at prev once its link has been read, so a walk
                // under publish-and-validate schemes (HP/HE/IBR) never
                // decides from a node that left the list before the read.
                // Epoch schemes protect every reachable-or-retired node
                // globally, so the check is elided — a traversal through
                // a just-unlinked node stays linearizable and every
                // mutation CAS below self-validates against `prev`.
                if self.smr.kind().requires_validation()
                    // SAFETY: `prev` is the head or lies in the node protected in SLOT_PREV.
                    && unsafe { &*prev }.load(Ordering::SeqCst) != curr_word
                {
                    continue 'retry;
                }
                if is_marked(next_word) {
                    let succ = untagged(next_word);
                    // SAFETY: `prev` is the head or lies in the node protected in SLOT_PREV.
                    if unsafe { &*prev }
                        .compare_exchange(curr_word, succ, Ordering::SeqCst, Ordering::SeqCst)
                        .is_err()
                    {
                        continue 'retry;
                    }
                    // SAFETY: the unlink CAS above succeeded, so this walk is `curr`'s
                    // unique retirer; `curr` is still protected, so its header is readable.
                    unsafe {
                        self.smr
                            .retire(ctx, curr_word as *mut u8, &(*node).header, DROP_NODE);
                    }
                    // SAFETY: `prev`'s owner is still protected in SLOT_PREV (or is the head).
                    curr_word = self.smr.load(ctx, cs, unsafe { &*prev });
                    if is_marked(curr_word) {
                        continue 'retry;
                    }
                    continue;
                }
                // SAFETY: `curr` is protected in slot `cs`.
                let ckey = unsafe { (*node).key };
                if ckey >= key {
                    return Window {
                        prev,
                        curr_word,
                        found: ckey == key,
                    };
                }
                // Advance: curr becomes prev. Transfer curr's already
                // established protection from slot `cs` into the prev
                // slot — a single release store under HP/HE, with no
                // fence or re-validation: the slot-`cs` protection was
                // validated when the walk stepped onto curr and is held
                // until overwritten, and SLOT_PREV > cs keeps
                // ascending-index scans sound.
                self.smr.protect_alias(ctx, SLOT_PREV, cs, curr_word);
                // SAFETY: `curr` is protected in slot `cs`, and now in SLOT_PREV too.
                prev = unsafe { &(*node).next };
                // Step onto the successor: the one protected load of this
                // node. A mark here means curr was deleted after the plain
                // read above — its link no longer proves the successor
                // reachable, so the protection is void and the walk
                // restarts (Michael never stands past a marked node).
                // SAFETY: `prev` lies in the node just protected in SLOT_PREV.
                curr_word = self.smr.load(ctx, 1 - cs, unsafe { &*prev });
                if is_marked(curr_word) {
                    continue 'retry;
                }
                cs = 1 - cs;
            }
        }
    }

    /// Upsert: maps `key` to `value`; returns the previous value if the
    /// key was present (whose mapping was atomically replaced), `None`
    /// if a new entry was created.
    pub fn insert(&self, ctx: &mut S::ThreadCtx, key: i64, value: i64) -> Option<i64> {
        self.link(ctx, key, value, true)
    }

    /// Maps `key` to `value` only if `key` is absent; returns the
    /// current value, left untouched, if it was present, `None` if a
    /// new entry was created. With value 0 this is the
    /// [`crate::ConcurrentSet`] insert.
    pub fn insert_if_absent(&self, ctx: &mut S::ThreadCtx, key: i64, value: i64) -> Option<i64> {
        self.link(ctx, key, value, false)
    }

    /// The link loop of both inserts. `overwrite` is a constant at each
    /// call site, so inlining leaves `insert` its swap and nothing else.
    /// The node is allocated only once `find` has missed: an insert
    /// that finds its key allocates, stamps and retires nothing.
    #[inline(always)]
    fn link(&self, ctx: &mut S::ThreadCtx, key: i64, value: i64, overwrite: bool) -> Option<i64> {
        self.smr.begin_op(ctx);
        let mut node: *mut Node = std::ptr::null_mut();
        let result = loop {
            let w = self.find(ctx, key);
            if w.found {
                let existing = w.curr_word as *const Node;
                // SAFETY: w.curr_word/w.prev are protected by the slots `find` left
                // armed; the local `node` stays unshared until the CAS publishes it.
                let old = unsafe {
                    if overwrite {
                        (*existing).value.swap(value, Ordering::SeqCst)
                    } else {
                        (*existing).value.load(Ordering::SeqCst)
                    }
                };
                if !node.is_null() {
                    // Lost a race after allocating: retire the
                    // never-shared local node (§4.1 allows local → retired).
                    // SAFETY: `node` was never shared, so it goes local → retired
                    // (§4.1), exactly once.
                    unsafe {
                        self.smr
                            .retire(ctx, node as *mut u8, &(*node).header, DROP_NODE);
                    }
                }
                break Some(old);
            }
            if node.is_null() {
                node = Node::alloc(key, value, 0);
                // SAFETY: `node` was just allocated and is not shared yet.
                self.smr.init_header(ctx, unsafe { &(*node).header });
            }
            // SAFETY: `node` stays unshared until the CAS below publishes it.
            unsafe { (*node).next.store(w.curr_word, Ordering::SeqCst) };
            // SAFETY: `w.prev` is the head or lies in the node `find` left
            // protected in SLOT_PREV.
            if unsafe { &*w.prev }
                .compare_exchange(
                    w.curr_word,
                    node as usize,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                break None;
            }
        };
        self.smr.end_op(ctx);
        result
    }

    /// Returns the value mapped to `key`, if any.
    pub fn get(&self, ctx: &mut S::ThreadCtx, key: i64) -> Option<i64> {
        self.smr.begin_op(ctx);
        let result = if self.smr.kind().requires_validation() {
            // Protect-validate schemes (HP/HE/IBR): only find()'s
            // hand-over-hand hazard discipline makes standing on a
            // node safe, so lookups share the mutation path.
            let w = self.find(ctx, key);
            w.found.then(|| {
                let node = w.curr_word as *const Node;
                // SAFETY: protected by the slot `find` left armed for curr.
                unsafe { (*node).value.load(Ordering::SeqCst) }
            })
        } else {
            self.get_read_only(ctx, key)
        };
        self.smr.end_op(ctx);
        result
    }

    /// Read-only lookup for op-scoped protection schemes
    /// (`kind().requires_validation() == false`: EBR/NBR/leak).
    ///
    /// Michael notes searches need not help unlink (and Herlihy &
    /// Shavit prove the wait-free variant linearizable for exactly this
    /// mark-bit list family): the traversal follows raw `next` links —
    /// through marked nodes — and decides from the first node with
    /// `key ≥ target`. Every node on the walk is protected *globally*
    /// by the op-scoped scheme (reachable or retired-but-unreclaimed),
    /// so no per-hop slot writes, helping CASes, or prev tracking are
    /// needed. Sortedness along frozen chains plus Michael's
    /// unlink-in-traversal-order discipline give the linearization
    /// points: an unmarked match was reachable when its link word was
    /// read (marks never clear), and a miss linearizes at the last
    /// link read from a then-reachable node. The value is read after
    /// the mark check; as with `remove`, a racing in-place update may
    /// land in between, and either value is a linearizable answer.
    ///
    /// Restart-based schemes (NBR, or a watchdog-neutralized
    /// EBR) void the global protection when they neutralize a
    /// thread, so the loop polls [`Smr::needs_restart`] every hop —
    /// a relaxed self-flag load — and rewalks from the head.
    // LINT: op-scoped — callers hold begin_op (see `get`); the whole point of
    // this path is that op-scoped schemes protect the walk globally.
    fn get_read_only(&self, ctx: &mut S::ThreadCtx, key: i64) -> Option<i64> {
        'retry: loop {
            // SAFETY(ordering): SeqCst link loads keep this traversal in
            // the retire-stamp SC chain (see `Smr::load`) — free MOVs on
            // x86-TSO, and required so a concurrent retirer's stamp
            // covers this reader's announced epoch.
            let mut word = untagged(self.head.load(Ordering::SeqCst));
            loop {
                if self.smr.needs_restart(ctx) {
                    continue 'retry;
                }
                if word == 0 {
                    return None;
                }
                let node = word as *const Node;
                // SAFETY: op-scoped protection: the caller's `begin_op` keeps every
                // node on the walk unreclaimed (doc above).
                let next = unsafe { (*node).next.load(Ordering::SeqCst) };
                // SAFETY: as above: `node` is protected for the whole operation.
                let ckey = unsafe { (*node).key };
                if ckey < key {
                    word = untagged(next);
                    continue;
                }
                if ckey != key || is_marked(next) {
                    return None;
                }
                // SAFETY: as above: `node` is protected for the whole operation.
                return Some(unsafe { (*node).value.load(Ordering::SeqCst) });
            }
        }
    }

    /// Removes `key`; returns the value it mapped to, if any.
    ///
    /// The returned value is the one read under protection just before
    /// the logical deletion; concurrent `insert` updates may interleave,
    /// in which case either value is a linearizable answer.
    pub fn remove(&self, ctx: &mut S::ThreadCtx, key: i64) -> Option<i64> {
        self.smr.begin_op(ctx);
        let result = loop {
            let w = self.find(ctx, key);
            if !w.found {
                break None;
            }
            let node = w.curr_word as *const Node;
            // Plain load: `node` is protected by find(), and the value is
            // only used as CAS operands, never dereferenced. (A protected
            // load here would evict the prev-node protection from its
            // slot and leave `w.prev` dangling under HP.)
            // SAFETY: node and w.prev are protected by the slots `find` left armed;
            // the winning mark CAS makes this op the unique retirer.
            let next_word = unsafe { (*node).next.load(Ordering::SeqCst) };
            if is_marked(next_word) {
                continue;
            }
            // SAFETY: `node` is protected by the slot `find` left armed for curr.
            let value = unsafe { (*node).value.load(Ordering::SeqCst) };
            // SAFETY: as above: `node` is protected.
            if unsafe { &(*node).next }
                .compare_exchange(
                    next_word,
                    with_mark(next_word),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_err()
            {
                continue;
            }
            // SAFETY: `w.prev` is the head or lies in the node `find` left
            // protected in SLOT_PREV.
            if unsafe { &*w.prev }
                .compare_exchange(w.curr_word, next_word, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                // SAFETY: the winning unlink CAS makes this op `node`'s unique
                // retirer; `node` is still protected, so its header is readable.
                unsafe {
                    self.smr
                        .retire(ctx, w.curr_word as *mut u8, &(*node).header, DROP_NODE);
                }
            } else {
                // Let a find() unlink (and retire) it.
                let _ = self.find(ctx, key);
            }
            break Some(value);
        };
        self.smr.end_op(ctx);
        result
    }

    /// Atomically bumps the value of `key` by `delta` via CAS; returns
    /// the new value, or `None` when absent.
    pub fn fetch_add(&self, ctx: &mut S::ThreadCtx, key: i64, delta: i64) -> Option<i64> {
        self.smr.begin_op(ctx);
        let w = self.find(ctx, key);
        let result = w.found.then(|| {
            let node = w.curr_word as *const Node;
            // SAFETY: protected by the slot `find` left armed for curr.
            unsafe { (*node).value.fetch_add(delta, Ordering::SeqCst) + delta }
        });
        self.smr.end_op(ctx);
        result
    }

    /// Snapshot of the entries, sorted by key (quiescent use only).
    // LINT: quiescent — snapshot API, documented callers-must-be-quiescent contract.
    pub fn collect_entries(&self) -> Vec<(i64, i64)> {
        let mut out = Vec::new();
        let mut word = self.head.load(Ordering::SeqCst);
        while word != 0 {
            let node = untagged(word) as *const Node;
            // SAFETY: quiescent snapshot contract (doc above): no concurrent
            // writers, so every reachable node is live.
            let next = unsafe { (*node).next.load(Ordering::SeqCst) };
            if !is_marked(next) {
                // SAFETY: as above: every reachable node is live.
                out.push(unsafe { ((*node).key, (*node).value.load(Ordering::SeqCst)) });
            }
            word = untagged(next);
        }
        out
    }

    /// Number of entries (quiescent use only).
    pub fn len(&self) -> usize {
        self.collect_entries().len()
    }

    /// Whether the map is empty (quiescent use only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

crate::concurrent_set::impl_concurrent_set!(map MichaelMap: Smr);

impl<S: Smr> Drop for MichaelMap<'_, S> {
    // LINT: exclusive — &mut self in Drop: no concurrent readers can exist.
    fn drop(&mut self) {
        let mut word = untagged(self.head.load(Ordering::SeqCst));
        while word != 0 {
            let node = word as *mut Node;
            // SAFETY: &mut self — exclusive access; each reachable node is freed
            // exactly once.
            let next = unsafe { (*node).next.load(Ordering::SeqCst) };
            // SAFETY: `node` is reachable only through this list, which `Drop`
            // owns exclusively; each node is freed once.
            unsafe { drop_node(node as *mut u8) };
            word = untagged(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent_set::check_set_semantics;
    use era_smr::ebr::Ebr;
    use era_smr::he::He;
    use era_smr::hp::Hp;
    use era_smr::ibr::Ibr;
    use era_smr::leak::Leak;

    #[test]
    fn set_semantics_all_schemes() {
        fn check<S: Smr>(smr: &S) {
            let map = MichaelMap::new(smr);
            check_set_semantics(&map, || map.collect_entries());
        }
        check(&Ebr::new(2));
        check(&Hp::new(2, 3));
        check(&He::new(2, 3));
        check(&Ibr::new(2));
        check(&Leak::new(2));
    }

    #[test]
    fn hp_footprint_stays_bounded_during_churn() {
        let smr = Hp::with_threshold(2, 3, 16);
        let map = MichaelMap::new(&smr);
        let mut ctx = smr.register().unwrap();
        for round in 0..2_000i64 {
            assert_eq!(map.insert_if_absent(&mut ctx, round % 7, 0), None);
            assert_eq!(map.remove(&mut ctx, round % 7), Some(0));
            let retired = smr.stats().retired_now;
            assert!(retired <= smr.robustness_bound(), "retired={retired}");
        }
    }

    #[test]
    fn duplicate_insert_allocates_and_retires_nothing() {
        // A no-op insert must not cost a node: no retire tick towards the
        // scan threshold, and under HE no allocation advancing the era.
        let hp = Hp::new(2, 3);
        let he = He::with_params(2, 3, 64, 1);
        let (on_hp, on_he) = (MichaelMap::new(&hp), MichaelMap::new(&he));
        let (mut hp_ctx, mut he_ctx) = (hp.register().unwrap(), he.register().unwrap());
        assert_eq!(on_hp.insert_if_absent(&mut hp_ctx, 7, 0), None);
        assert_eq!(on_he.insert_if_absent(&mut he_ctx, 7, 0), None);
        let era = he.era();
        for _ in 0..1_000 {
            assert_eq!(on_hp.insert_if_absent(&mut hp_ctx, 7, 0), Some(0));
            assert_eq!(on_he.insert_if_absent(&mut he_ctx, 7, 0), Some(0));
        }
        assert_eq!(hp.stats().total_retired, 0);
        assert_eq!(he.stats().total_retired, 0);
        assert_eq!(he.era(), era);
    }

    #[test]
    fn map_semantics() {
        let smr = Hp::new(2, 3);
        let map = MichaelMap::new(&smr);
        let mut ctx = smr.register().unwrap();
        assert_eq!(map.get(&mut ctx, 1), None);
        assert_eq!(map.insert(&mut ctx, 1, 100), None);
        assert_eq!(map.insert(&mut ctx, 2, 200), None);
        assert_eq!(map.get(&mut ctx, 1), Some(100));
        assert_eq!(map.insert(&mut ctx, 1, 101), Some(100));
        assert_eq!(map.get(&mut ctx, 1), Some(101));
        assert_eq!(map.fetch_add(&mut ctx, 2, 5), Some(205));
        assert_eq!(map.fetch_add(&mut ctx, 9, 5), None);
        assert_eq!(map.remove(&mut ctx, 1), Some(101));
        assert_eq!(map.remove(&mut ctx, 1), None);
        assert_eq!(map.collect_entries(), vec![(2, 205)]);
    }

    #[test]
    fn insert_if_absent_leaves_a_present_value() {
        let smr = Hp::new(2, 3);
        let map = MichaelMap::new(&smr);
        let mut ctx = smr.register().unwrap();
        assert_eq!(map.insert_if_absent(&mut ctx, 1, 100), None);
        assert_eq!(map.insert_if_absent(&mut ctx, 1, 999), Some(100));
        assert_eq!(map.get(&mut ctx, 1), Some(100));
        assert_eq!(map.collect_entries(), vec![(1, 100)]);
    }

    /// The find order as a count: with keys 1..=8 in one list, an
    /// operation that stops on the h-th node emits `stop(h)` `Load`
    /// events (protected loads plus slot aliases) and a `get` past the
    /// tail emits `miss`.
    fn assert_find_emits<S: Smr>(smr: &S, stop: fn(u64) -> u64, miss: u64) {
        use era_obs::{Hook, Recorder};

        let recorder = Recorder::new(2);
        smr.attach_recorder(&recorder);
        let map = MichaelMap::new(smr);
        let mut ctx = smr.register().unwrap();
        for k in 1..=8 {
            assert_eq!(map.insert(&mut ctx, k, k), None);
        }
        let loads = || recorder.metrics().hook_count(Hook::Load);
        let name = smr.kind().name();
        for h in 1..=8u64 {
            let k = h as i64;
            let before = loads();
            assert_eq!(map.get(&mut ctx, k), Some(k));
            assert_eq!(loads() - before, stop(h), "{name}: get, node {h}");
            let before = loads();
            assert_eq!(map.insert(&mut ctx, k, k), Some(k));
            assert_eq!(loads() - before, stop(h), "{name}: found insert, node {h}");
            let before = loads();
            assert_eq!(map.fetch_add(&mut ctx, k, 0), Some(k));
            assert_eq!(loads() - before, stop(h), "{name}: fetch_add, node {h}");
        }
        let before = loads();
        assert_eq!(map.get(&mut ctx, 9), None);
        assert_eq!(loads() - before, miss, "{name}: miss past 8 nodes");
        // Tail first, so key h is still the h-th node when it goes. The
        // plain `next` re-read in `remove` adds no event.
        for h in (1..=8u64).rev() {
            let before = loads();
            assert_eq!(map.remove(&mut ctx, h as i64), Some(h as i64));
            assert_eq!(loads() - before, stop(h), "{name}: remove, node {h}");
        }
    }

    #[test]
    fn find_publishes_a_node_only_when_stepping_onto_it() {
        // HP: h publishes (the head's link, then one per advance) and
        // h − 1 aliases into SLOT_PREV; a miss walks all 8 nodes and
        // ends on the publish of the null link.
        assert_find_emits(&Hp::new(2, 3), |h| 2 * h - 1, 2 * 8 + 1);
        // HE: the same h publishes, but an alias is an event only when
        // it changes SLOT_PREV's reserved era — once per operation.
        let he = era_smr::he::He::with_params(2, 3, 64, 1);
        assert_find_emits(&he, |h| h + (h - 1).min(1), 8 + 1 + 1);
    }

    #[test]
    fn upsert_does_not_leak_the_speculative_node() {
        let smr = Hp::with_threshold(2, 3, 4);
        let map = MichaelMap::new(&smr);
        let mut ctx = smr.register().unwrap();
        assert_eq!(map.insert(&mut ctx, 7, 1), None);
        for i in 0..100 {
            assert_eq!(
                map.insert(&mut ctx, 7, i),
                Some(if i == 0 { 1 } else { i - 1 })
            );
        }
        smr.flush(&mut ctx);
        // At most the one live node remains unaccounted; upsert paths
        // must have retired nothing (no speculative nodes allocated when
        // the key exists on the first look).
        assert_eq!(map.len(), 1);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn concurrent_counters_are_exact() {
        // fetch_add is atomic: concurrent bumps never lose updates — nor
        // does a set insert of the same key between them, which must
        // leave the value word alone (a swap here would drop bumps).
        let smr = Ebr::new(8);
        let map = MichaelMap::new(&smr);
        {
            let mut ctx = smr.register().unwrap();
            assert_eq!(map.insert(&mut ctx, 0, 0), None);
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (map, smr) = (&map, &smr);
                s.spawn(move || {
                    let mut ctx = smr.register().unwrap();
                    for _ in 0..1_000 {
                        map.fetch_add(&mut ctx, 0, 1).expect("key 0 exists");
                        assert!(map.insert_if_absent(&mut ctx, 0, -1).is_some());
                    }
                });
            }
        });
        assert_eq!(map.collect_entries(), vec![(0, 4_000)]);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn concurrent_upserts_and_removes() {
        let smr = Hp::new(8, 3);
        let map = MichaelMap::new(&smr);
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let (map, smr) = (&map, &smr);
                s.spawn(move || {
                    let mut ctx = smr.register().unwrap();
                    for i in 0..500i64 {
                        let k = (t * 31 + i) % 64;
                        map.insert(&mut ctx, k, t * 10_000 + i);
                        let _ = map.get(&mut ctx, k);
                        if i % 3 == 0 {
                            let _ = map.remove(&mut ctx, k);
                        }
                    }
                    smr.flush(&mut ctx);
                });
            }
        });
        // Quiescent: keys sorted and unique.
        let entries = map.collect_entries();
        let keys: Vec<i64> = entries.iter().map(|&(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn reclamation_flows_through() {
        let smr = Ebr::with_threshold(2, 8);
        let map = MichaelMap::new(&smr);
        let mut ctx = smr.register().unwrap();
        for k in 0..300 {
            assert_eq!(map.insert(&mut ctx, k, k), None);
            assert_eq!(map.remove(&mut ctx, k), Some(k));
        }
        for _ in 0..6 {
            smr.flush(&mut ctx);
        }
        let st = smr.stats();
        assert_eq!(st.total_retired, 300);
        assert!(st.total_reclaimed >= 200, "{st}");
    }
}
