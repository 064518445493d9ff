//! Property and golden-fixture tests for the `.eraflt` dump format.
//!
//! Two guarantees are pinned here, beyond the unit tests in
//! `dump.rs`: **losslessness** (any dump a writer can legally build
//! survives encode→decode bit-for-bit, with and without compression)
//! and **byte stability** (version 1 of the format is frozen by a
//! checked-in golden fixture — an encoder change that alters the bytes
//! fails the test and must bump [`DUMP_VERSION`]).

#![cfg(feature = "rt")]

use era_obs::dump::{DumpStats, FlightDump, MetricsDump, SourceDump};
use era_obs::{Event, HistogramSnapshot, Hook, SchemeId, HISTOGRAM_BUCKETS};

use proptest::prelude::*;

/// Builds a well-formed event stream from raw tuples: timestamps are
/// non-decreasing with frequent ties (per-operation events read the
/// logical clock without advancing it, so a drained log is full of
/// them), and the log is in [`Event::merge_key`] order — the order a
/// drain produces and the decoder must reproduce.
fn events_from(raw: Vec<(u64, u64, u64, u16, u8, u8)>) -> Vec<Event> {
    let mut ts = 0u64;
    let mut events: Vec<Event> = raw
        .into_iter()
        .map(|(dt, a, b, thread, scheme, hook)| {
            ts += if dt % 3 == 0 { 0 } else { dt % 1000 };
            let mut e = Event::new(thread, SchemeId(scheme % 9), Hook::BeginOp, a, b);
            e.ts = ts;
            e.hook = hook % Hook::COUNT as u8;
            e
        })
        .collect();
    events.sort_by_key(Event::merge_key);
    events
}

fn metrics_from(seed: u64) -> MetricsDump {
    let mut latency = [0u64; HISTOGRAM_BUCKETS];
    for (i, bucket) in latency.iter_mut().enumerate() {
        if i as u64 % 7 == seed % 7 {
            *bucket = seed.rotate_left(i as u32);
        }
    }
    MetricsDump {
        hook_counts: (0..Hook::COUNT as u64)
            .map(|i| i.wrapping_mul(seed))
            .collect(),
        footprint_peak: seed.wrapping_mul(3),
        blame: vec![seed, 0, seed / 2, 0],
        latency: HistogramSnapshot::from_counts(latency),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_is_lossless(
        raw in prop::collection::vec(
            (0u64..5000, 0u64..u64::MAX, 0u64..u64::MAX, 0u16..12, 0u8..12, 0u8..32),
            0..300,
        ),
        dropped in 0u64..10_000,
        trimmed in 0u64..10_000,
        wall in 0u64..u64::MAX / 2,
        window in 0u64..100_000,
        seed in 1u64..u64::MAX,
        compress in 0u8..2,
    ) {
        let mut source = SourceDump::new("prop-source");
        source.events = events_from(raw);
        source.dropped = dropped;
        source.trimmed = trimmed;
        if seed % 3 != 0 {
            source.metrics = Some(metrics_from(seed));
        }
        if seed % 2 == 0 {
            source.stats = Some(DumpStats {
                retired_now: seed % 97,
                retired_peak: seed % 1009,
                total_retired: seed,
                total_reclaimed: seed / 2,
                era: seed % 31,
            });
        }
        let mut empty = SourceDump::new("");
        empty.stats = Some(DumpStats::default());
        let dump = FlightDump {
            version: era_obs::DUMP_VERSION,
            wall_unix_ms: wall,
            window_ms: window,
            sources: vec![source, empty],
        };
        let bytes = dump.encode(compress == 1);
        let back = FlightDump::decode(&bytes).expect("own encoding must decode");
        prop_assert_eq!(back, dump);
    }

    #[test]
    fn decode_never_panics_on_corrupted_bytes(
        raw in prop::collection::vec(
            (0u64..500, 0u64..1000, 0u64..1000, 0u16..4, 0u8..9, 0u8..19),
            1..50,
        ),
        flip_at in 0usize..4096,
        flip_to in 0u16..256,
    ) {
        let mut source = SourceDump::new("fuzz");
        source.events = events_from(raw);
        let dump = FlightDump {
            version: era_obs::DUMP_VERSION,
            wall_unix_ms: 7,
            window_ms: 0,
            sources: vec![source],
        };
        let mut bytes = dump.encode(true);
        let idx = flip_at % bytes.len();
        bytes[idx] = flip_to as u8;
        // Either a clean decode (the flip hit a don't-care byte or
        // stayed in vocabulary) or a structured error — never a panic
        // or a runaway allocation.
        let _ = FlightDump::decode(&bytes);
    }
}

/// The deterministic dump frozen as `tests/fixtures/golden_v1.eraflt`.
fn golden_dump() -> FlightDump {
    let scheme = SchemeId::HE;
    let mk = |ts: u64, thread: u16, hook: Hook, a: u64, b: u64| {
        let mut e = Event::new(thread, scheme, hook, a, b);
        e.ts = ts;
        e
    };
    let mut source = SourceDump::new("he-golden");
    source.events = vec![
        mk(1, 0, Hook::BeginOp, 0, 0),
        mk(2, 0, Hook::Retire, 0xdead_b000, 1),
        mk(3, 1, Hook::Load, 2, 0xdead_b000),
        mk(4, 0, Hook::Fault, 0, 17),
        mk(5, 1, Hook::Adopt, 1, 2),
        mk(6, 1, Hook::Reclaim, 0xdead_b000, 4),
        mk(7, 1, Hook::EndOp, 0, 0),
    ];
    source.dropped = 3;
    source.trimmed = 1;
    // The fixture was frozen when the hook vocabulary had 19 entries.
    // `hook_counts` is length-prefixed on the wire, so dumps written
    // before a hook was appended must keep decoding unchanged — that
    // compatibility is exactly what this pin asserts.
    let mut metrics = metrics_from(0xE8A);
    metrics.hook_counts.truncate(19);
    source.metrics = Some(metrics);
    source.stats = Some(DumpStats {
        retired_now: 0,
        retired_peak: 2,
        total_retired: 1,
        total_reclaimed: 1,
        era: 5,
    });
    FlightDump {
        version: era_obs::DUMP_VERSION,
        wall_unix_ms: 1_700_000_000_000,
        window_ms: 30_000,
        sources: vec![source],
    }
}

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Backward compatibility: `golden_v1.eraflt` was written when the hook
/// vocabulary had 19 entries. The embedded name tables make the format
/// self-describing, so appending hooks must never invalidate old dumps
/// — this fixture is frozen forever and only ever *decoded*.
#[test]
#[cfg_attr(miri, ignore = "reads the fixture file from disk")]
fn golden_fixture_decodes_across_vocabulary_growth() {
    let bytes = std::fs::read(fixture_path("golden_v1.eraflt"))
        .expect("golden fixture missing — run the ignored regenerate_golden_fixture test");
    // Versioned header, byte for byte.
    assert_eq!(&bytes[..6], b"ERAFLT");
    assert_eq!(
        u16::from_be_bytes([bytes[6], bytes[7]]),
        era_obs::DUMP_VERSION
    );
    let decoded = FlightDump::decode(&bytes).expect("golden fixture must decode");
    assert_eq!(decoded, golden_dump(), "decoder drifted from v1 fixture");
}

/// Byte stability under the *current* vocabulary: an encoder change
/// that alters these bytes is either an unintentional drift (fix it)
/// or a format revision (bump [`era_obs::DUMP_VERSION`], freeze a new
/// fixture). Appending a hook grows the self-describing name table, so
/// this fixture is regenerated on vocabulary growth — unlike
/// `golden_v1.eraflt`, which pins decoding of the old bytes.
#[test]
#[cfg_attr(miri, ignore = "reads the fixture file from disk")]
fn encoder_is_byte_stable_for_current_vocabulary() {
    let bytes = std::fs::read(fixture_path("golden_v1_hooks20.eraflt"))
        .expect("fixture missing — run the ignored regenerate_golden_fixture test");
    assert_eq!(
        golden_dump().encode(true),
        bytes,
        "encoder no longer byte-stable — if the format (not just the \
         hook vocabulary) changed, bump DUMP_VERSION and freeze a new \
         fixture; if only a hook was appended, regenerate this one"
    );
    let decoded = FlightDump::decode(&bytes).expect("fixture must decode");
    assert_eq!(decoded, golden_dump());
}

/// Rewrites the byte-stability fixture. Run after appending a hook or
/// for intentional format revisions:
/// `cargo test -p era-obs --test dump_roundtrip -- --ignored`.
/// `golden_v1.eraflt` itself is never rewritten.
#[test]
#[ignore = "regenerates tests/fixtures/golden_v1_hooks20.eraflt"]
fn regenerate_golden_fixture() {
    let path = fixture_path("golden_v1_hooks20.eraflt");
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, golden_dump().encode(true)).unwrap();
}
