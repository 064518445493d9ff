//! Def. 5.3's hooks are traced by construction. Every scheme
//! [`with_scheme!`] builds, and `ChaosSmr` around one of them, counts
//! each `begin_op`, `end_op` and `retire` it is called for and traces
//! every node it frees as one `Reclaim`: a retire is recorded (and its
//! event emitted) only in `StatCells::retire_into`, a free only in
//! `StatCells::reclaim`, and this test holds each scheme to both.

use std::sync::atomic::{AtomicUsize, Ordering};

use era_chaos::ChaosSmr;
use era_obs::{Hook, Recorder};
use era_smr::hp::Hp;
use era_smr::{with_scheme, SchemeKind, Smr, SmrHeader};

/// Nodes `free_node` has freed, over the whole (one-test) binary.
static FREED: AtomicUsize = AtomicUsize::new(0);

type Node = (SmrHeader, u64);

/// # Safety
///
/// `p` must be a leaked `Box<Node>`, passed here exactly once.
unsafe fn free_node(p: *mut u8) {
    // SAFETY(ordering): Relaxed — a tally one thread writes and reads.
    FREED.fetch_add(1, Ordering::Relaxed);
    // SAFETY: the contract above.
    unsafe { drop(Box::from_raw(p as *mut Node)) }
}

/// Attaches a recorder, then drives register → begin_op → load →
/// end_op → retire → flush on one thread. Returns the traced
/// `[BeginOp, EndOp, Retire, Reclaim]` counts, the scheme's
/// `total_reclaimed` and the nodes freed meanwhile.
fn drive<S: Smr>(smr: &S) -> ([u64; 4], u64, usize) {
    let freed_before = FREED.load(Ordering::Relaxed);
    let recorder = Recorder::new(2);
    smr.attach_recorder(&recorder);
    let mut ctx = smr.register().unwrap();
    let node = Box::into_raw(Box::new((SmrHeader::default(), 7u64)));
    // SAFETY: `node` was just allocated and is not shared yet.
    smr.init_header(&mut ctx, unsafe { &(*node).0 });
    let link = AtomicUsize::new(node as usize);
    smr.begin_op(&mut ctx);
    assert_eq!(smr.load(&mut ctx, 0, &link), node as usize);
    smr.end_op(&mut ctx);
    // SAFETY(ordering): SeqCst unlink, as the schemes' scans expect.
    link.store(0, Ordering::SeqCst);
    // SAFETY: `node` is unlinked above and retired once; its header
    // lies inside it.
    unsafe { smr.retire(&mut ctx, node as *mut u8, &(*node).0, free_node) };
    smr.flush(&mut ctx);
    let counts = [Hook::BeginOp, Hook::EndOp, Hook::Retire, Hook::Reclaim]
        .map(|h| recorder.metrics().hook_count(h));
    let freed = FREED.load(Ordering::Relaxed) - freed_before;
    (counts, smr.stats().total_reclaimed, freed)
}

/// Holds one [`drive`] run to `end_ops` traced `EndOp`s and `frees`
/// nodes freed, each traced as one `Reclaim` and tallied once.
fn assert_traced(name: &str, run: ([u64; 4], u64, usize), end_ops: u64, frees: u64) {
    let (counts, reclaimed, freed) = run;
    assert_eq!(
        counts,
        [1, end_ops, 1, frees],
        "{name}: [BeginOp, EndOp, Retire, Reclaim] traced"
    );
    assert_eq!(reclaimed, frees, "{name}: total_reclaimed");
    assert_eq!(freed as u64, frees, "{name}: nodes freed");
}

#[test]
fn every_scheme_traces_each_hook_once_per_call() {
    // (scheme, EndOps traced, nodes the flush frees). Leak frees
    // nothing until it drops.
    let rows = [
        (SchemeKind::Ebr, 1, 1),
        (SchemeKind::Hp, 1, 1),
        (SchemeKind::He, 1, 1),
        (SchemeKind::Ibr, 1, 1),
        (SchemeKind::Nbr, 1, 1),
        (SchemeKind::Leak, 1, 0),
    ];
    assert_eq!(
        rows.len(),
        SchemeKind::RECLAIMING.len() + 1,
        "every kind but VBR"
    );
    for (kind, end_ops, frees) in rows {
        let run = with_scheme!(kind, make => drive(&make(2, 3)));
        assert_traced(kind.name(), run, end_ops, frees);
    }
    let chaos = ChaosSmr::transparent(Hp::new(2, 3));
    assert_traced("HP under ChaosSmr::transparent", drive(&chaos), 1, 1);
}
