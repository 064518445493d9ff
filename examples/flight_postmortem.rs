//! Post-mortem of a panic inside a pinned region, end to end:
//!
//! 1. an EBR-protected worker retires a batch of nodes, then panics
//!    while still inside `begin_op`/`end_op` (a protected region) —
//!    the classic "operation died mid-flight" failure;
//! 2. the armed [`FlightRecorder`] panic hook writes a `.eraflt` crash
//!    dump as the thread unwinds;
//! 3. the surviving main thread reads the dump back — the same replay
//!    `era-view` does — and narrates what the trace proves: which
//!    nodes were left retired-but-unreclaimed, and which thread the
//!    blame counters point at.
//!
//! Run with: `cargo run --example flight_postmortem`

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use era::obs::{FlightDump, FlightRecorder, Hook, Recorder, SchemeId};
use era::smr::common::{Smr, SmrHeader};
use era::smr::ebr::Ebr;
use era_view::{Filter, NodeChain};

#[repr(C)]
struct Node {
    header: SmrHeader,
    payload: u64,
}

/// # Safety
///
/// `p` is the `Box::into_raw` pointer of a live `Node`, passed here
/// exactly once by the scheme.
unsafe fn free_node(p: *mut u8) {
    // SAFETY: the contract above: `p` is a live `Node`'s box, freed once.
    unsafe { drop(Box::from_raw(p as *mut Node)) }
}

fn main() {
    let dump_path = std::env::temp_dir().join("flight_postmortem.eraflt");
    let _ = std::fs::remove_file(&dump_path);

    // --- 1. Arm the flight recorder before any thread registers. ---
    let recorder = Recorder::new(8);
    let ebr = Ebr::with_threshold(8, 16);
    ebr.attach_recorder(&recorder);
    let flight = Arc::new(FlightRecorder::single("ebr", &recorder));
    flight.install_panic_hook(dump_path.clone());
    println!("armed: crash dumps will land at {}\n", dump_path.display());

    // --- 2. A worker panics inside a pinned region. ---
    let shared = AtomicUsize::new(0);
    {
        let node = Box::into_raw(Box::new(Node {
            header: SmrHeader::new(),
            payload: 0,
        }));
        let mut ctx = ebr.register().expect("main context");
        // SAFETY: `node` was just boxed and is still exclusively ours.
        ebr.init_header(&mut ctx, unsafe { &(*node).header });
        shared.store(node as usize, Ordering::SeqCst);
    }
    let died = std::thread::scope(|sc| {
        let worker = sc.spawn(|| {
            let mut ctx = ebr.register().expect("worker context");
            for i in 1..=6u64 {
                ebr.begin_op(&mut ctx);
                let fresh = Box::into_raw(Box::new(Node {
                    header: SmrHeader::new(),
                    payload: i,
                }));
                // SAFETY: `fresh` is live; the displaced node was
                // published by us/main and is unlinked by the swap, so
                // it is retired exactly once.
                unsafe {
                    ebr.init_header(&mut ctx, &(*fresh).header);
                    let old = shared.swap(fresh as usize, Ordering::SeqCst);
                    ebr.retire(
                        &mut ctx,
                        old as *mut u8,
                        &(*(old as *mut Node)).header,
                        free_node,
                    );
                }
                if i == 6 {
                    // Still inside the protected region: the epoch this
                    // context pinned can never be retired-past now.
                    panic!("simulated bug: worker died while pinned (op {i})");
                }
                ebr.end_op(&mut ctx);
            }
        });
        // Joining here consumes the worker's panic, so the scope exits
        // cleanly and the process gets to do its own post-mortem.
        worker.join()
    });
    assert!(died.is_err(), "the worker must have panicked");
    println!("\nworker died inside its protected region; the process survives.\n");

    // --- 3. Replay the crash dump the panic hook just wrote. ---
    let bytes = std::fs::read(&dump_path).expect("panic hook must have written the dump");
    let dump = FlightDump::decode(&bytes).expect("crash dump must decode");
    let src = &dump.sources[0];
    println!(
        "replayed {}: {} events from source `{}` ({} dropped)",
        dump_path.display(),
        src.events.len(),
        src.label,
        src.dropped
    );

    // The last few timeline lines — what era-view --timeline prints.
    println!("\ntimeline tail:");
    for e in src.events.iter().rev().take(6).rev() {
        println!("  {}", era_view::render_event(e));
    }

    // Every retired-but-unreclaimed node is evidence: the dead pin
    // blocks the grace period, so EBR cannot free them.
    let retires = Filter {
        hook: Some("retire".into()),
        ..Filter::default()
    };
    let mut outstanding = 0;
    for e in retires.apply(src) {
        let chain = NodeChain::for_addr(src, e.a);
        if chain.is_outstanding() {
            outstanding += 1;
            if outstanding <= 2 {
                println!("\n{}", chain.render());
            }
        }
    }
    println!(
        "{outstanding} node(s) retired but never reclaimed — orphaned by the \
         panic inside the pinned region."
    );
    assert!(
        outstanding > 0,
        "the dead pin must strand at least one node"
    );
    assert_eq!(SchemeId(src.events[0].scheme), SchemeId::EBR);
    assert!(
        src.events
            .iter()
            .any(|e| Hook::from_u8(e.hook) == Some(Hook::Retire)),
        "trace must contain the retires"
    );

    let _ = std::fs::remove_file(&dump_path);
    println!(
        "\nMoral: with era-flight armed, a crash in a pinned region leaves a \
         replayable record of exactly which garbage it stranded — run \
         `era-view <dump> --chain auto` on any .eraflt to do this from the CLI."
    );
}
