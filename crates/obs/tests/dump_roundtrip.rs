//! Property and golden-fixture tests for the `.eraflt` dump format.
//!
//! Three guarantees are pinned here, beyond the unit tests in
//! `dump.rs`: **losslessness** (any dump a writer can legally build
//! survives encode→decode bit-for-bit, across segment boundaries),
//! **byte stability** (version 2 of the format is frozen by a
//! checked-in golden fixture — an encoder change that alters the bytes
//! fails the test and must bump [`DUMP_VERSION`]) and **refusal** of
//! version 1, whose fixture must never be misparsed.

use era_obs::dump::{DumpError, DumpStats, FlightDump, MetricsDump, SourceDump};
use era_obs::{
    Event, FlightRecorder, HistogramSnapshot, Hook, Recorder, SchemeId, DUMP_VERSION,
    HISTOGRAM_BUCKETS,
};

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

/// `n` raw tuples drawn from `seed` with words over the whole range:
/// about 24 packed bytes an event, so 8 000 of them take three 64 KiB
/// segments.
fn bulk_raw(seed: u64, n: usize) -> Vec<(u64, u64, u64, u16, u8, u8)> {
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    (0..n)
        .map(|_| {
            let r = next();
            (
                r % 5000,
                next(),
                next(),
                (r >> 16) as u16 % 12,
                (r >> 32) as u8,
                (r >> 40) as u8,
            )
        })
        .collect()
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
        bulk in 0usize..3,
        dropped in 0u64..10_000,
        trimmed in 0u64..10_000,
        wall in 0u64..u64::MAX / 2,
        seed in 1u64..u64::MAX,
    ) {
        let mut raw = raw;
        raw.extend(bulk_raw(seed, bulk * 4000));
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
            wall_unix_ms: wall,
            sources: vec![source, empty],
        };
        let bytes = dump.encode();
        if bulk == 2 {
            prop_assert!(bytes.len() > 2 * 64 * 1024, "{} bytes: one segment", bytes.len());
        }
        let back = FlightDump::decode(&bytes).expect("own encoding must decode");
        prop_assert_eq!(back, dump);
    }

    #[test]
    fn decode_never_panics_on_corrupted_bytes(
        raw in prop::collection::vec(
            (0u64..500, 0u64..1000, 0u64..1000, 0u16..4, 0u8..9, 0u8..19),
            1..50,
        ),
        bulk in 0usize..3,
        seed in 1u64..u64::MAX,
        flip_at in 0usize..usize::MAX,
        flip_to in 0u16..256,
    ) {
        let mut raw = raw;
        raw.extend(bulk_raw(seed, bulk * 4000));
        let mut source = SourceDump::new("fuzz");
        source.events = events_from(raw);
        source.metrics = Some(metrics_from(seed));
        let dump = FlightDump {
            wall_unix_ms: 7,
            sources: vec![source],
        };
        let mut bytes = dump.encode();
        let idx = flip_at % bytes.len();
        bytes[idx] = flip_to as u8;
        // Either a clean decode (the flip hit a don't-care byte or
        // stayed in vocabulary) or a structured error — never a panic
        // or a runaway allocation.
        let _ = FlightDump::decode(&bytes);
    }
}

/// A later chunk, or a ring's unpacked rest, can hold an event that
/// sorts before the last one an earlier chunk holds: here two reading
/// events of one clock value, the higher thread's published first (a
/// ring of 8 publishes every 4 events) and the lower's still in its
/// ring. A snapshot merges chunks and rests in [`Event::merge_key`]
/// order, as one drain of both would have; and a dump that lists them
/// in publish order, as one written before owners packed their rings
/// did, decodes in that order too.
#[test]
#[cfg_attr(miri, ignore = "reads wall clock (SystemTime)")]
fn a_later_chunk_of_an_earlier_stamp_decodes_in_merge_key_order() {
    let recorder = Recorder::with_ring_capacity(8, 8);
    let flight = FlightRecorder::single("published", &recorder);
    let mut late_thread = recorder.tracer(5, SchemeId::EBR);
    let mut early_thread = recorder.tracer(2, SchemeId::EBR);
    late_thread.emit(Hook::Advance, 1, 0);
    late_thread.emit(Hook::Reserve, 0, 1);
    late_thread.emit(Hook::Reserve, 0, 2);
    late_thread.emit(Hook::Reserve, 0, 3);
    early_thread.emit(Hook::Reserve, 0, 1);
    early_thread.emit(Hook::Reserve, 1, 0xa0);
    let snapshot = flight.snapshot();
    let merged = &snapshot.sources[0].events;
    let threads: Vec<u16> = merged.iter().map(|e| e.thread).collect();
    assert_eq!(threads, [5, 2, 2, 5, 5, 5]);
    assert!(merged
        .windows(2)
        .all(|w| w[0].merge_key() <= w[1].merge_key()));

    let mut published = snapshot.clone();
    published.sources[0].events = [0, 3, 4, 5, 1, 2].map(|k| merged[k]).to_vec();
    let decoded = FlightDump::decode(&published.encode()).expect("own encoding decodes");
    assert_eq!(&decoded.sources[0].events, merged);
}

/// The deterministic dump frozen as `tests/fixtures/golden_v2.eraflt`.
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
    // As if written when the hook vocabulary had 19 entries.
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
        wall_unix_ms: 1_700_000_000_000,
        sources: vec![source],
    }
}

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Byte stability: an encoder change that alters these bytes is either
/// an unintentional drift (fix it) or a format revision (bump
/// [`DUMP_VERSION`], freeze a new fixture). The fixture's 19 hook
/// counts decode under a longer vocabulary, the hooks appended since
/// reading 0.
#[test]
#[cfg_attr(miri, ignore = "reads the fixture file from disk")]
fn golden_v2_is_byte_stable_and_decodes_across_vocabulary_growth() {
    let bytes = std::fs::read(fixture_path("golden_v2.eraflt"))
        .expect("fixture missing — run the ignored regenerate_golden_fixture test");
    assert_eq!(&bytes[..6], b"ERAFLT");
    assert_eq!(u16::from_be_bytes([bytes[6], bytes[7]]), DUMP_VERSION);
    assert_eq!(
        golden_dump().encode(),
        bytes,
        "encoder no longer byte-stable — if the format changed, bump \
         DUMP_VERSION and freeze a new fixture"
    );
    let decoded = FlightDump::decode(&bytes).expect("fixture must decode");
    assert_eq!(decoded, golden_dump());
    let metrics = decoded.sources[0].metrics.as_ref().expect("metrics");
    assert!(metrics.hook_counts.len() < Hook::COUNT);
    assert_eq!(metrics.hook_count(Hook::ALL[Hook::COUNT - 1]), 0);
}

/// `golden_v1.eraflt` is a dump in the format before packed segments.
/// It is refused by its version, never misparsed as version 2.
#[test]
#[cfg_attr(miri, ignore = "reads the fixture file from disk")]
fn golden_v1_is_refused_by_its_version() {
    let bytes = std::fs::read(fixture_path("golden_v1.eraflt")).expect("golden_v1 fixture");
    assert_eq!(
        FlightDump::decode(&bytes),
        Err(DumpError::UnsupportedVersion(1))
    );
}

/// Rewrites the byte-stability fixture, for intentional format
/// revisions: `cargo test -p era-obs --test dump_roundtrip -- --ignored`.
/// `golden_v1.eraflt` is never rewritten.
#[test]
#[ignore = "regenerates tests/fixtures/golden_v2.eraflt"]
fn regenerate_golden_fixture() {
    let path = fixture_path("golden_v2.eraflt");
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, golden_dump().encode()).unwrap();
}
