//! Treiber's lock-free stack, generic over any [`Smr`] scheme.
//!
//! The simplest reclamation client: `pop` detaches the head with one
//! CAS, so a single protected load suffices and every scheme —
//! protect-based or epoch-based — integrates in the easy,
//! Definition 5.3 style. Used by the benchmarks as the
//! minimal-contention workload.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use era_smr::common::{DropFn, Smr, SmrHeader};

#[repr(C)]
struct Node {
    header: SmrHeader,
    value: i64,
    next: AtomicUsize,
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

/// A lock-free LIFO stack of `i64` values.
///
/// # Example
///
/// ```
/// use era_ds::TreiberStack;
/// use era_smr::{hp::Hp, Smr};
///
/// let smr = Hp::new(2, 1);
/// let stack = TreiberStack::new(&smr);
/// let mut ctx = smr.register().unwrap();
/// stack.push(&mut ctx, 1);
/// stack.push(&mut ctx, 2);
/// assert_eq!(stack.pop(&mut ctx), Some(2));
/// assert_eq!(stack.pop(&mut ctx), Some(1));
/// assert_eq!(stack.pop(&mut ctx), None);
/// ```
pub struct TreiberStack<'s, S: Smr> {
    smr: &'s S,
    head: AtomicUsize,
}

impl<S: Smr> fmt::Debug for TreiberStack<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TreiberStack")
            .field("smr", &self.smr.kind().name())
            .finish_non_exhaustive()
    }
}

impl<'s, S: Smr> TreiberStack<'s, S> {
    /// Creates an empty stack using `smr` for reclamation.
    pub fn new(smr: &'s S) -> Self {
        TreiberStack {
            smr,
            head: AtomicUsize::new(0),
        }
    }

    /// Pushes `value`.
    pub fn push(&self, ctx: &mut S::ThreadCtx, value: i64) {
        self.smr.begin_op(ctx);
        let node = Box::into_raw(Box::new(Node {
            header: SmrHeader::new(),
            value,
            next: AtomicUsize::new(0),
        }));
        // SAFETY: `node` is fresh and unshared until the push CAS publishes it.
        self.smr.init_header(ctx, unsafe { &(*node).header });
        loop {
            let head = self.head.load(Ordering::SeqCst);
            unsafe { (*node).next.store(head, Ordering::SeqCst) };
            if self
                .head
                .compare_exchange(head, node as usize, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break;
            }
        }
        self.smr.end_op(ctx);
    }

    /// Pops the most recently pushed value, or `None` when empty.
    pub fn pop(&self, ctx: &mut S::ThreadCtx) -> Option<i64> {
        self.smr.begin_op(ctx);
        let result = loop {
            let head = self.smr.load(ctx, 0, &self.head); // protected
            if head == 0 {
                break None;
            }
            let node = head as *const Node;
            // SAFETY: `head` was returned by smr.load, which armed the slot (or
            // pinned the epoch) protecting it; the winning CAS then makes this op
            // the unique retirer.
            let next = unsafe { (*node).next.load(Ordering::SeqCst) };
            if self
                .head
                .compare_exchange(head, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                let value = unsafe { (*node).value };
                unsafe {
                    self.smr
                        .retire(ctx, head as *mut u8, &(*node).header, DROP_NODE);
                }
                break Some(value);
            }
        };
        self.smr.end_op(ctx);
        result
    }

    /// Whether the stack is empty right now (racy outside quiescence).
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::SeqCst) == 0
    }

    /// Number of nodes (quiescent use only).
    pub fn len(&self) -> usize {
        let mut n = 0;
        let mut word = self.head.load(Ordering::SeqCst);
        while word != 0 {
            n += 1;
            // SAFETY: quiescent contract (doc above) — no concurrent pops.
            word = unsafe { (*(word as *const Node)).next.load(Ordering::SeqCst) };
        }
        n
    }
}

impl<S: Smr> Drop for TreiberStack<'_, S> {
    // LINT: exclusive — &mut self in Drop: no concurrent readers can exist.
    fn drop(&mut self) {
        let mut word = self.head.load(Ordering::SeqCst);
        while word != 0 {
            let node = word as *mut Node;
            // SAFETY: &mut self — exclusive access; each node freed exactly once.
            word = unsafe { (*node).next.load(Ordering::SeqCst) };
            unsafe { drop_node(node as *mut u8) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use era_smr::ebr::Ebr;
    use era_smr::he::He;
    use era_smr::hp::Hp;
    use era_smr::ibr::Ibr;
    use era_smr::leak::Leak;

    fn exercise<S: Smr>(smr: &S) {
        let stack = TreiberStack::new(smr);
        let mut ctx = smr.register().unwrap();
        assert!(stack.is_empty());
        assert_eq!(stack.pop(&mut ctx), None);
        for i in 0..10 {
            stack.push(&mut ctx, i);
        }
        assert_eq!(stack.len(), 10);
        for i in (0..10).rev() {
            assert_eq!(stack.pop(&mut ctx), Some(i));
        }
        assert!(stack.is_empty());
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn lifo_semantics_all_schemes() {
        exercise(&Ebr::new(2));
        exercise(&Hp::new(2, 1));
        exercise(&He::new(2, 1));
        exercise(&Ibr::new(2));
        exercise(&Leak::new(2));
    }

    fn stress<S: Smr + Sync>(smr: &S, threads: usize, per_thread: i64) {
        let stack = TreiberStack::new(smr);
        let popped_sum = std::sync::atomic::AtomicI64::new(0);
        let popped_count = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (stack, popped_sum, popped_count) = (&stack, &popped_sum, &popped_count);
                s.spawn(move || {
                    let mut ctx = smr.register().unwrap();
                    let base = t as i64 * per_thread;
                    for i in 0..per_thread {
                        stack.push(&mut ctx, base + i);
                        if let Some(v) = stack.pop(&mut ctx) {
                            // SAFETY(ordering): Relaxed — test tallies, read
                            // only after the worker threads are joined.
                            popped_sum.fetch_add(v, Ordering::Relaxed);
                            popped_count.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    for _ in 0..4 {
                        smr.flush(&mut ctx);
                    }
                });
            }
        });
        // Every push is matched by exactly one pop across all threads
        // (each iteration pushes one and pops at most one; a pop can only
        // fail if the stack momentarily empties, in which case the value
        // stays for someone else).
        // LINT: quiescent — all worker threads joined above; exclusive walk.
        let remaining: i64 = {
            let mut sum = 0;
            let mut word = stack.head.load(Ordering::SeqCst);
            while word != 0 {
                let node = word as *const Node;
                // SAFETY: workers joined — exclusive walk over live nodes.
                sum += unsafe { (*node).value };
                word = unsafe { (*node).next.load(Ordering::SeqCst) };
            }
            sum
        };
        let total: i64 = (0..threads as i64 * per_thread).sum();
        assert_eq!(popped_sum.load(Ordering::Relaxed) + remaining, total);
        assert_eq!(
            popped_count.load(Ordering::Relaxed) + stack.len(),
            (threads as i64 * per_thread) as usize
        );
    }

    #[test]
    fn stress_hp() {
        stress(&Hp::new(8, 1), 4, 2_000);
    }

    #[test]
    fn stress_ebr() {
        stress(&Ebr::new(8), 4, 2_000);
    }

    #[test]
    fn stress_ibr() {
        stress(&Ibr::new(8), 4, 2_000);
    }

    #[test]
    fn memory_is_reclaimed() {
        let smr = Hp::with_threshold(2, 1, 8);
        let stack = TreiberStack::new(&smr);
        let mut ctx = smr.register().unwrap();
        for i in 0..1_000 {
            stack.push(&mut ctx, i);
            let _ = stack.pop(&mut ctx);
        }
        smr.flush(&mut ctx);
        let st = smr.stats();
        assert_eq!(st.total_retired, 1_000);
        assert!(st.retired_now <= 8 + 2, "{st}");
    }
}
