//! End-to-end: a synthetic fault run encoded to `.eraflt` bytes,
//! decoded back, and replayed through the era-view reconstruction —
//! the same pipeline the CLI runs on a real chaos_bench dump.

use era_obs::dump::{DumpStats, FlightDump, SourceDump};
use era_obs::{Event, Hook, SchemeId};
use era_view::{find_violations, orphan_chain_addrs, render_event, Filter, NodeChain, Violation};

fn ev(thread: u16, ts: u64, scheme: SchemeId, hook: Hook, a: u64, b: u64) -> Event {
    let mut e = Event::new(thread, scheme, hook, a, b);
    e.ts = ts;
    e
}

/// A miniature chaos run: thread 0 retires two nodes then dies pinned;
/// thread 1 adopts the orphans and reclaims them; one node stays
/// outstanding.
fn chaos_dump() -> FlightDump {
    let s = SchemeId::HE;
    let mut src = SourceDump::new("he-chaos");
    src.events = vec![
        ev(0, 10, s, Hook::BeginOp, 0, 0),
        ev(0, 11, s, Hook::Retire, 0xa000, 1),
        ev(0, 12, s, Hook::Retire, 0xb000, 2),
        ev(1, 13, s, Hook::Load, 3, 0xa000),
        // die-pinned fault kills thread 0 mid-region (a = kind 0).
        ev(0, 14, s, Hook::Fault, 0, 42),
        // thread 1 adopts the two orphans…
        ev(1, 15, s, Hook::Adopt, 2, 3),
        // …and reclaims one of them; 0xb000 stays outstanding.
        ev(1, 16, s, Hook::Reclaim, 0xa000, 5),
        ev(1, 17, s, Hook::Retire, 0xc000, 2),
    ];
    src.dropped = 0;
    src.stats = Some(DumpStats {
        retired_now: 2,
        retired_peak: 3,
        total_retired: 3,
        total_reclaimed: 1,
        era: 4,
    });
    let mut dump = FlightDump::new();
    dump.sources.push(src);
    dump
}

#[test]
fn encoded_dump_replays_into_an_orphan_chain() {
    let dump = chaos_dump();
    let bytes = dump.encode();
    let decoded = FlightDump::decode(&bytes).expect("own bytes decode");
    let src = &decoded.sources[0];
    assert_eq!(src.label, "he-chaos");
    assert_eq!(src.events.len(), 8);

    // The adopted-and-reclaimed node shows the complete story.
    let chain = NodeChain::for_addr(src, 0xa000);
    assert!(chain.is_orphan_chain(), "chain: {}", chain.render());
    let rendered = chain.render();
    assert!(rendered.contains("retired by t0"));
    assert!(rendered.contains("ORPHANED"));
    assert!(rendered.contains("adopted by t1"));
    assert!(rendered.contains("reclaimed by t1"));

    // `--chain auto` discovery finds exactly that node: 0xb000 was
    // orphaned but never reclaimed, 0xc000 was never orphaned.
    assert_eq!(orphan_chain_addrs(src), vec![0xa000]);
    assert!(NodeChain::for_addr(src, 0xb000).is_outstanding());

    // Scheme counters survived the byte roundtrip.
    let stats = src.stats.as_ref().expect("stats present");
    assert_eq!(stats.retired_peak, 3);
    assert_eq!(stats.era, 4);
}

#[test]
fn timeline_filters_and_rendering_cover_the_fault_vocabulary() {
    let dump = chaos_dump();
    let src = &dump.sources[0];

    let t1 = Filter {
        thread: Some(1),
        ..Filter::default()
    };
    assert_eq!(t1.apply(src).count(), 4);

    let retires = Filter {
        hook: Some("retire".into()),
        ..Filter::default()
    };
    assert_eq!(retires.apply(src).count(), 3);

    let node = Filter {
        addr: Some(0xa000),
        ..Filter::default()
    };
    // retire(a) + load(b) + reclaim(a)
    assert_eq!(node.apply(src).count(), 3);

    let fault_line = render_event(&src.events[4]);
    assert!(fault_line.contains("die-pinned"), "{fault_line}");
    let reclaim_line = render_event(&src.events[6]);
    assert!(reclaim_line.contains("0xa000"), "{reclaim_line}");
    assert!(reclaim_line.contains("latency=5"), "{reclaim_line}");
}

#[test]
fn footprint_bound_applies_only_to_robust_schemes() {
    let dump = chaos_dump();
    let src = &dump.sources[0];
    // HE is robust; retired_peak 3 is fine under bound 8…
    assert!(find_violations(src, Some(8)).is_empty());
    // …but violates bound 2.
    let v = find_violations(src, Some(2));
    assert!(v.iter().any(|v| matches!(
        v,
        Violation::FootprintBoundExceeded {
            observed: 3,
            bound: 2,
            ..
        }
    )));
    // With no bound supplied there is no footprint check at all.
    assert!(find_violations(src, None).is_empty());
}
