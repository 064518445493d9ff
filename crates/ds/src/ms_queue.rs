//! The Michael–Scott lock-free FIFO queue, generic over any [`Smr`]
//! scheme.
//!
//! The classic two-pointer queue with a dummy node: `enqueue` links at
//! the tail (helping lagging tails forward), `dequeue` advances the head
//! and retires the old dummy. Needs two protection slots (`head`/`tail`
//! and the successor).

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use era_smr::common::{DropFn, Smr, SmrHeader};

#[repr(C)]
struct Node {
    header: SmrHeader,
    value: i64,
    next: AtomicUsize,
}

impl Node {
    fn alloc(value: i64) -> *mut Node {
        Box::into_raw(Box::new(Node {
            header: SmrHeader::new(),
            value,
            next: AtomicUsize::new(0),
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

/// A lock-free FIFO queue of `i64` values.
///
/// # Example
///
/// ```
/// use era_ds::MsQueue;
/// use era_smr::{ebr::Ebr, Smr};
///
/// let smr = Ebr::new(2);
/// let queue = MsQueue::new(&smr);
/// let mut ctx = smr.register().unwrap();
/// queue.enqueue(&mut ctx, 1);
/// queue.enqueue(&mut ctx, 2);
/// assert_eq!(queue.dequeue(&mut ctx), Some(1));
/// assert_eq!(queue.dequeue(&mut ctx), Some(2));
/// assert_eq!(queue.dequeue(&mut ctx), None);
/// ```
pub struct MsQueue<'s, S: Smr> {
    smr: &'s S,
    head: AtomicUsize,
    tail: AtomicUsize,
}

impl<S: Smr> fmt::Debug for MsQueue<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MsQueue")
            .field("smr", &self.smr.kind().name())
            .finish_non_exhaustive()
    }
}

impl<'s, S: Smr> MsQueue<'s, S> {
    /// Creates an empty queue using `smr` for reclamation.
    ///
    /// Protect-based schemes must provide at least 2 slots per thread.
    pub fn new(smr: &'s S) -> Self {
        let dummy = Node::alloc(0) as usize;
        MsQueue {
            smr,
            head: AtomicUsize::new(dummy),
            tail: AtomicUsize::new(dummy),
        }
    }

    /// Appends `value` at the tail.
    pub fn enqueue(&self, ctx: &mut S::ThreadCtx, value: i64) {
        self.smr.begin_op(ctx);
        let node = Node::alloc(value);
        // SAFETY: `node` is fresh and unshared until the link CAS publishes it;
        // `tail_node` is protected by the slot armed by `smr.load` each round
        // before any deref, and a stale tail is detected by the re-check.
        self.smr.init_header(ctx, unsafe { &(*node).header });
        loop {
            let tail = self.smr.load(ctx, 0, &self.tail); // protected
            let tail_node = tail as *const Node;
            let next = unsafe { (*tail_node).next.load(Ordering::SeqCst) };
            if self.tail.load(Ordering::SeqCst) != tail {
                continue;
            }
            if next != 0 {
                // Tail lags: help it forward.
                let _ = self
                    .tail
                    .compare_exchange(tail, next, Ordering::SeqCst, Ordering::SeqCst);
                continue;
            }
            if unsafe { &(*tail_node).next }
                .compare_exchange(0, node as usize, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                let _ = self.tail.compare_exchange(
                    tail,
                    node as usize,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                break;
            }
        }
        self.smr.end_op(ctx);
    }

    /// Removes the oldest value, or `None` when empty.
    pub fn dequeue(&self, ctx: &mut S::ThreadCtx) -> Option<i64> {
        self.smr.begin_op(ctx);
        let result = loop {
            let head = self.smr.load(ctx, 0, &self.head); // protected dummy
            let tail = self.tail.load(Ordering::SeqCst);
            // SAFETY: `head_node` is protected by slot 0 (armed by the smr.load
            // that produced `head`), `next` by slot 1 before its deref; the
            // head re-check catches a swing between load and protect.
            let head_node = head as *const Node;
            let next = self.smr.load(ctx, 1, unsafe { &(*head_node).next }); // protected successor
            if self.head.load(Ordering::SeqCst) != head {
                continue;
            }
            if next == 0 {
                break None; // empty
            }
            if head == tail {
                // Tail lags behind a non-empty queue: help.
                let _ = self
                    .tail
                    .compare_exchange(tail, next, Ordering::SeqCst, Ordering::SeqCst);
                continue;
            }
            // Read the value *before* the CAS: after it, another thread
            // may dequeue-and-retire `next` (it becomes the new dummy).
            let value = unsafe { (*(next as *const Node)).value };
            if self
                .head
                .compare_exchange(head, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                unsafe {
                    self.smr
                        .retire(ctx, head as *mut u8, &(*head_node).header, DROP_NODE);
                }
                break Some(value);
            }
        };
        self.smr.end_op(ctx);
        result
    }

    /// Whether the queue is empty right now (racy outside quiescence).
    // LINT: quiescent — racy-by-contract probe; the sentinel head is never freed
    // while the queue is alive, so the single deref cannot touch reclaimed memory
    // only a stale answer.
    pub fn is_empty(&self) -> bool {
        let head = self.head.load(Ordering::SeqCst) as *const Node;
        // SAFETY: the dummy head is never freed while the queue is alive (see
        // LINT waiver above) — worst case this reads a stale emptiness answer.
        unsafe { (*head).next.load(Ordering::SeqCst) == 0 }
    }

    /// Number of values (quiescent use only).
    pub fn len(&self) -> usize {
        let mut n = 0;
        // SAFETY: quiescent contract (doc above): no concurrent producers or
        // consumers, so every reachable node is live.
        let mut word = unsafe {
            (*(self.head.load(Ordering::SeqCst) as *const Node))
                .next
                .load(Ordering::SeqCst)
        };
        while word != 0 {
            n += 1;
            word = unsafe { (*(word as *const Node)).next.load(Ordering::SeqCst) };
        }
        n
    }
}

impl<S: Smr> Drop for MsQueue<'_, S> {
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
        let q = MsQueue::new(smr);
        let mut ctx = smr.register().unwrap();
        assert!(q.is_empty());
        assert_eq!(q.dequeue(&mut ctx), None);
        for i in 0..10 {
            q.enqueue(&mut ctx, i);
        }
        assert_eq!(q.len(), 10);
        for i in 0..10 {
            assert_eq!(q.dequeue(&mut ctx), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn fifo_semantics_all_schemes() {
        exercise(&Ebr::new(2));
        exercise(&Hp::new(2, 2));
        exercise(&He::new(2, 2));
        exercise(&Ibr::new(2));
        exercise(&Leak::new(2));
    }

    fn stress<S: Smr + Sync>(smr: &S, producers: usize, consumers: usize, per_thread: i64) {
        let q = MsQueue::new(smr);
        let consumed = std::sync::atomic::AtomicI64::new(0);
        let consumed_count = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..producers {
                let q = &q;
                s.spawn(move || {
                    let mut ctx = smr.register().unwrap();
                    let base = t as i64 * per_thread;
                    for i in 0..per_thread {
                        q.enqueue(&mut ctx, base + i);
                    }
                });
            }
            for _ in 0..consumers {
                let (q, consumed, consumed_count) = (&q, &consumed, &consumed_count);
                s.spawn(move || {
                    let mut ctx = smr.register().unwrap();
                    let target = (producers as i64 * per_thread) as usize;
                    loop {
                        match q.dequeue(&mut ctx) {
                            Some(v) => {
                                // SAFETY(ordering): Relaxed — test tallies, read
                                // only after the worker threads are joined.
                                consumed.fetch_add(v, Ordering::Relaxed);
                                consumed_count.fetch_add(1, Ordering::Relaxed);
                            }
                            None => {
                                if consumed_count.load(Ordering::Relaxed) >= target {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    for _ in 0..4 {
                        smr.flush(&mut ctx);
                    }
                });
            }
        });
        let total: i64 = (0..producers as i64 * per_thread).sum();
        assert_eq!(consumed.load(Ordering::Relaxed), total);
        assert!(q.is_empty());
    }

    #[test]
    fn stress_hp() {
        stress(&Hp::new(8, 2), 2, 2, 2_000);
    }

    #[test]
    fn stress_ebr() {
        stress(&Ebr::new(8), 2, 2, 2_000);
    }

    #[test]
    fn stress_he() {
        stress(&He::new(8, 2), 2, 2, 2_000);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn per_thread_fifo_order_preserved() {
        // With one producer and one consumer, exact FIFO must hold.
        let smr = Ebr::new(2);
        let q = MsQueue::new(&smr);
        std::thread::scope(|s| {
            let q = &q;
            let smr = &smr;
            s.spawn(move || {
                let mut ctx = smr.register().unwrap();
                for i in 0..5_000 {
                    q.enqueue(&mut ctx, i);
                }
            });
            s.spawn(move || {
                let mut ctx = smr.register().unwrap();
                let mut expected = 0i64;
                while expected < 5_000 {
                    if let Some(v) = q.dequeue(&mut ctx) {
                        assert_eq!(v, expected);
                        expected += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        });
    }

    #[test]
    fn memory_reclaimed_under_churn() {
        let smr = Hp::with_threshold(2, 2, 8);
        let q = MsQueue::new(&smr);
        let mut ctx = smr.register().unwrap();
        for i in 0..1_000 {
            q.enqueue(&mut ctx, i);
            let _ = q.dequeue(&mut ctx);
        }
        smr.flush(&mut ctx);
        let st = smr.stats();
        assert_eq!(st.total_retired, 1_000);
        assert!(st.retired_now <= 12, "{st}");
    }
}
