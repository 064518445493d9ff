//@ expect-clean
//! Every rule's compliant shape in one file: the patterns `era-lint
//! check` expects to see across the workspace.
// ERA-CLASS: Fixture non-robust — a demonstration scheme with no
// reclamation bound to claim (R9's header obligation, satisfied).
use std::sync::atomic::{AtomicUsize, Ordering};

/// A pinned per-thread context (R5: guards are `#[must_use]`).
#[must_use = "dropping a context releases its slot and orphans its garbage"]
pub struct GoodCtx {
    slot: usize,
}

/// R2: every justified atomic write names its ordering argument.
pub fn publish(flag: &AtomicUsize) {
    // SAFETY(ordering): Relaxed is enough — this flag is a monotonic
    // hint, re-read under the scan's SeqCst load; pairs with the
    // begin_op fence.
    flag.store(1, Ordering::Relaxed);
}

/// R3: the deref is dominated by `begin_op`.
fn traverse(list: &List, ctx: &mut GoodCtx) -> i64 {
    list.smr.begin_op(ctx);
    let node = list.head;
    // SAFETY: protected by begin_op above; the node stays live until
    // end_op per the scheme's epoch guarantee.
    unsafe { (*node).key }
}

/// R9: the file's one `impl Smr` sits under its `ERA-CLASS` header.
impl Smr for Good {
    fn begin_op(&self, ctx: &mut GoodCtx) {
        self.tracer.emit(Hook::BeginOp, 0, 0);
    }

    /// Hands a node to the scheme.
    ///
    /// # Safety
    ///
    /// Caller promises `ptr` is unreachable and not yet retired.
    unsafe fn retire(&self, ptr: *mut u8) {
        self.tracer.emit(Hook::Retire, ptr as u64, 0);
    }
}
