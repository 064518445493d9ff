//! The no-reclamation baseline.
//!
//! `Leak` never frees retired nodes during the execution (they are all
//! released when the scheme itself is dropped, so tests do not leak
//! process memory). It is the paper's implicit baseline: trivially easy
//! to integrate and strongly applicable — every access is safe because
//! nothing is ever reclaimed — but with an unbounded retired footprint,
//! the extreme of non-robustness.

// ERA-CLASS: Leak non-robust — nothing is ever reclaimed, so trapped
// memory grows without bound by construction; the baseline the ERA
// matrix measures every real scheme against.

use std::sync::Arc;

use era_obs::{Hook, Recorder, SchemeId, ThreadTracer};

use crate::common::{
    lock_unpoisoned, DropFn, RegisterError, Retired, SlotRegistry, Smr, SmrHeader, SmrStats,
    StatCells, SupportsUnlinkedTraversal,
};
use crate::registry::SchemeKind;

#[derive(Debug)]
struct LeakInner {
    registry: SlotRegistry,
    stats: StatCells,
}

impl Drop for LeakInner {
    fn drop(&mut self) {
        // No thread contexts remain (they hold an Arc): safe to free.
        let mut orphans = std::mem::take(&mut *lock_unpoisoned(&self.stats.orphans));
        // SAFETY: called from Drop with exclusive access — the run is over
        // and no thread can reach the leaked garbage.
        unsafe { self.stats.reclaim(orphans.drain(..)) };
    }
}

/// The leaking baseline scheme.
///
/// # Example
///
/// ```
/// use era_smr::{leak::Leak, Smr};
///
/// let smr = Leak::new(4);
/// let mut ctx = smr.register().unwrap();
/// let p = Box::into_raw(Box::new(7i64)) as *mut u8;
/// unsafe fn free_i64(p: *mut u8) {
///     unsafe { drop(Box::from_raw(p as *mut i64)) }
/// }
/// unsafe { smr.retire(&mut ctx, p, std::ptr::null(), free_i64) };
/// assert_eq!(smr.stats().retired_now, 1);
/// drop(ctx);
/// drop(smr); // everything is released here
/// ```
#[derive(Debug, Clone)]
pub struct Leak {
    inner: Arc<LeakInner>,
}

/// Per-thread context for [`Leak`].
#[derive(Debug)]
#[must_use = "dropping a context releases its slot (leaked garbage stays leaked)"]
pub struct LeakCtx {
    inner: Arc<LeakInner>,
    idx: usize,
    tracer: ThreadTracer,
    garbage: Vec<Retired>,
}

impl Drop for LeakCtx {
    fn drop(&mut self) {
        // Runs during unwinding too: poison-tolerant handoff, then an
        // unconditional slot release. A dead Leak context's garbage is
        // adopted into the shared pool (custody, not reclamation — the
        // baseline still never frees mid-run).
        self.inner.stats.orphan(&mut self.garbage);
        self.inner.registry.release(self.idx);
    }
}

impl Leak {
    /// Creates a leaking scheme for up to `max_threads` threads.
    pub fn new(max_threads: usize) -> Self {
        Leak {
            inner: Arc::new(LeakInner {
                registry: SlotRegistry::new(max_threads),
                stats: StatCells::default(),
            }),
        }
    }
}

impl Smr for Leak {
    type ThreadCtx = LeakCtx;

    fn register(&self) -> Result<LeakCtx, RegisterError> {
        let idx = self.inner.registry.acquire()?;
        Ok(LeakCtx {
            inner: Arc::clone(&self.inner),
            idx,
            tracer: self.inner.stats.tracer(idx),
            garbage: Vec::new(),
        })
    }

    fn kind(&self) -> SchemeKind {
        SchemeKind::Leak
    }

    fn attach_recorder(&self, recorder: &Recorder) {
        self.inner.stats.attach(recorder, SchemeId::LEAK);
    }

    fn begin_op(&self, ctx: &mut LeakCtx) {
        ctx.tracer.emit(Hook::BeginOp, 0, 0);
    }

    fn end_op(&self, ctx: &mut LeakCtx) {
        ctx.tracer.emit(Hook::EndOp, 0, 0);
    }

    /// # Safety
    /// See [`Smr::retire`]: `ptr` must be unlinked, retired at most once,
    /// and `drop_fn` must be valid for it.
    unsafe fn retire(
        &self,
        ctx: &mut LeakCtx,
        ptr: *mut u8,
        _header: *const SmrHeader,
        drop_fn: DropFn,
    ) {
        self.inner
            .stats
            .retire_into(&mut ctx.tracer, &mut ctx.garbage, ptr, 0, 0, drop_fn);
    }

    fn stats(&self) -> SmrStats {
        self.inner.stats.snapshot(0)
    }
}

// SAFETY: trivially epoch-protected — nothing is ever reclaimed mid-run.
unsafe impl crate::common::EpochProtected for Leak {}

// SAFETY: nothing is ever reclaimed during the run, so traversing retired
// nodes is trivially safe.
unsafe impl SupportsUnlinkedTraversal for Leak {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static FREED: AtomicUsize = AtomicUsize::new(0);

    /// # Safety
    /// `p` must be a leaked `Box<u64>` that nothing else can reach.
    unsafe fn counting_free(p: *mut u8) {
        // SAFETY(ordering): SeqCst — test counter, strongest for clarity.
        FREED.fetch_add(1, Ordering::SeqCst);
        // SAFETY: contract above.
        unsafe { drop(Box::from_raw(p as *mut u64)) }
    }

    #[test]
    fn never_frees_during_run_frees_on_drop() {
        // SAFETY(ordering): SeqCst — test counter reset before use.
        FREED.store(0, Ordering::SeqCst);
        let smr = Leak::new(2);
        let mut ctx = smr.register().unwrap();
        for i in 0..10u64 {
            let p = Box::into_raw(Box::new(i)) as *mut u8;
            // SAFETY: p was just leaked, is unlinked and retired exactly once.
            unsafe { smr.retire(&mut ctx, p, std::ptr::null(), counting_free) };
        }
        assert_eq!(smr.stats().retired_now, 10);
        assert_eq!(FREED.load(Ordering::SeqCst), 0);
        smr.flush(&mut ctx);
        assert_eq!(FREED.load(Ordering::SeqCst), 0, "flush must not free");
        drop(ctx);
        drop(smr);
        assert_eq!(FREED.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn registration_capacity() {
        let smr = Leak::new(1);
        let c1 = smr.register().unwrap();
        assert!(smr.register().is_err());
        drop(c1);
        let _c2 = smr.register().unwrap();
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn concurrent_retires_count() {
        let smr = Leak::new(8);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let smr = &smr;
                s.spawn(move || {
                    let mut ctx = smr.register().unwrap();
                    for i in 0..100u64 {
                        let p = Box::into_raw(Box::new(i)) as *mut u8;
                        /// # Safety
                        /// `p` must be a leaked `Box<u64>` nothing else reaches.
                        unsafe fn free_u64(p: *mut u8) {
                            // SAFETY: contract above.
                            unsafe { drop(Box::from_raw(p as *mut u64)) }
                        }
                        // SAFETY: p was just leaked; retired exactly once.
                        unsafe { smr.retire(&mut ctx, p, std::ptr::null(), free_u64) };
                    }
                });
            }
        });
        let st = smr.stats();
        assert_eq!(st.retired_now, 400);
        assert_eq!(st.total_retired, 400);
        assert_eq!(st.total_reclaimed, 0);
    }
}
