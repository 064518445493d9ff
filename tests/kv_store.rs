//! Integration tests for the `era-kv` serving layer: map semantics
//! against a `BTreeMap` reference model under random op sequences,
//! shard-routing invariants, and the headline scenario — a stalled
//! reader whose shard's footprint the navigator bounds where bare EBR
//! does not.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use era::kv::{KvConfig, KvError, KvStore};
use era::smr::common::Smr;
use era::smr::ebr::Ebr;
use era_scenarios::run::{kv_config, run_scenario, scheme_capacity, RunOptions};
use era_scenarios::{PhaseSpec, ScenarioSpec};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum MapOp {
    Put(i64, i64),
    Remove(i64),
    Get(i64),
    Incr(i64, i64),
}

fn map_ops(max_key: i64) -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        (0..4u8, 0..max_key, -8i64..8).prop_map(|(w, k, v)| match w {
            0 => MapOp::Put(k, v),
            1 => MapOp::Remove(k),
            2 => MapOp::Get(k),
            _ => MapOp::Incr(k, v),
        }),
        0..160,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The sharded store is a map: random op sequences agree with a
    // BTreeMap model op by op, and a final scan agrees wholesale. High
    // budgets keep the navigator out of the way (no shedding), so every
    // write is admitted and Ok(..) can be unwrapped.
    #[test]
    fn kv_store_matches_btreemap_model(ops in map_ops(24)) {
        let schemes: Vec<Ebr> = (0..4).map(|_| Ebr::new(2)).collect();
        let store = KvStore::new(&schemes, KvConfig::default());
        let mut ctx = store.register().unwrap();
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Put(k, v) => {
                    prop_assert_eq!(store.put(&mut ctx, k, v).unwrap(), model.insert(k, v));
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(store.remove(&mut ctx, k).unwrap(), model.remove(&k));
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(store.get(&mut ctx, k), model.get(&k).copied());
                }
                MapOp::Incr(k, d) => {
                    let expected = model.get_mut(&k).map(|v| { *v += d; *v });
                    prop_assert_eq!(store.incr(&mut ctx, k, d).unwrap(), expected);
                }
            }
        }
        let snapshot: Vec<(i64, i64)> = model.into_iter().collect();
        prop_assert_eq!(store.scan(i64::MIN, i64::MAX), snapshot);
    }

    // Routing is a pure function of the key, and every key's data really
    // lives on (only) the shard it routes to.
    #[test]
    fn keys_land_on_their_routed_shard(raw in prop::collection::vec(-500i64..500, 1..40)) {
        let keys: std::collections::BTreeSet<i64> = raw.into_iter().collect();
        let schemes: Vec<Ebr> = (0..3).map(|_| Ebr::new(2)).collect();
        let store = KvStore::new(&schemes, KvConfig::default());
        let mut ctx = store.register().unwrap();
        for &k in &keys {
            store.put(&mut ctx, k, k).unwrap();
        }
        let mut expected = vec![0usize; store.shard_count()];
        for &k in &keys {
            expected[store.shard_of(k)] += 1;
        }
        let counts: Vec<usize> = (0..store.shard_count())
            .map(|i| {
                store
                    .scan(i64::MIN, i64::MAX)
                    .iter()
                    .filter(|&&(k, _)| store.shard_of(k) == i)
                    .count()
            })
            .collect();
        prop_assert_eq!(counts, expected);
        prop_assert_eq!(store.len(), keys.len());
    }
}

/// The stalled-reader workload as a one-phase scenario: 2 shards, 2
/// workers churning 512 uniform-or-zipfian keys, one reader pinned
/// inside shard 0 for the whole phase, budgets 128/512.
fn stall_spec(seed: u64, theta_bp: u64, ops_per_thread: usize, navigator: bool) -> ScenarioSpec {
    ScenarioSpec {
        name: "kv-store-stall".into(),
        seed,
        shards: 2,
        soft: 128,
        hard: 512,
        bound: 512,
        prefill: 256,
        chaos: None,
        phases: vec![PhaseSpec {
            theta_bp,
            key_hi: 512,
            threads: 2,
            ops_per_thread,
            stall_shard: Some(0),
            navigator,
            ..PhaseSpec::churn("stall")
        }],
    }
}

/// The acceptance scenario, as a test: one reader stalls inside shard
/// 0's protected region while workers churn. Without the navigator the
/// stalled shard's retired population grows with the run length
/// (EBR's non-robustness); with it, footprint stays bounded near the
/// hard budget because the navigator neutralizes the stalled pin.
///
/// Both peaks are functions of the op stream. Each worker steps the
/// navigator on its own writes (`KvStore::navigate`, one tick per
/// `NAV_EVERY` of them), so the bounded peak is a sawtooth whose
/// amplitude is a count of writes between ticks and neutralizations,
/// while the unbounded baseline grows with the whole run's op count.
/// What still depends on timing is how the two workers interleave and
/// how soon the stall reader, an OS thread, sees its restart signal.
/// The release build runs longer, so its baseline grows further past
/// the asserted 4× margin.
#[test]
fn navigator_bounds_footprint_under_stalled_reader() {
    let ops_per_thread = if cfg!(debug_assertions) {
        60_000
    } else {
        300_000
    };
    let run = |navigator_on: bool| {
        let spec = stall_spec(7, 0, ops_per_thread, navigator_on);
        let schemes: Vec<Ebr> = (0..2).map(|_| Ebr::new(scheme_capacity(&spec))).collect();
        let store = KvStore::new(&schemes, kv_config(&spec));
        let outcome = run_scenario(&store, &spec, &RunOptions::default());
        let peaks: Vec<usize> = store
            .shard_stats()
            .iter()
            .map(|st| st.retired_peak)
            .collect();
        (outcome, peaks)
    };

    let (off, off_peaks) = run(false);
    let (on, on_peaks) = run(true);
    let (off_peak, on_peak) = (off_peaks[0], on_peaks[0]);
    let hard = off.spec.hard;
    println!("on={on_peak} off={off_peak}");

    assert!(
        off_peak > hard * 4,
        "without the navigator the stalled shard must blow far past the \
         hard budget: peak {off_peak} vs budget {hard}"
    );
    assert_eq!(
        off.neutralizations, 0,
        "with the navigator off nothing may neutralize: {off:?}"
    );
    // Sharding confines the incident: the reader pins shard 0's domain
    // only, so shard 1 keeps reclaiming while shard 0 blows up (E8).
    assert!(
        off_peaks[1] * 2 < off_peak,
        "the non-stalled shard must stay far below the stalled one: {off_peaks:?}"
    );
    assert!(
        on.neutralizations >= 1,
        "the navigator must neutralize the stalled pin: {on:?}"
    );
    assert!(
        on.transitions >= 1,
        "health transitions must be recorded: {on:?}"
    );
    assert!(
        on_peak * 4 < off_peak,
        "navigator must bound the stalled shard's footprint: \
         on={on_peak} off={off_peak}"
    );
}

/// A neutralized direct client observes exactly one restart signal, at
/// the op boundary — the protocol the navigator contract demands.
#[test]
#[cfg_attr(
    miri,
    ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
)]
fn neutralized_reader_restarts_once() {
    let schemes: Vec<Ebr> = vec![Ebr::with_threshold(4, 1)];
    let cfg = KvConfig {
        retired_soft: 8,
        retired_hard: 32,
        max_threads: 8,
        ..KvConfig::default()
    };
    let store = KvStore::new(&schemes, cfg);
    let mut ctx = store.register().unwrap();

    let pinned = AtomicBool::new(false);
    let release = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (pinned, release) = (&pinned, &release);
        let smr = store.scheme(0);
        s.spawn(move || {
            let mut pin = smr.register().unwrap();
            smr.begin_op(&mut pin);
            // SAFETY(ordering): Release — publishes the begin_op above
            // to the main thread's Acquire poll of `pinned`.
            pinned.store(true, Ordering::Release);
            while !release.load(Ordering::Acquire) && !smr.needs_restart(&mut pin) {
                std::hint::spin_loop();
            }
            smr.end_op(&mut pin);
            let restart_still_pending = smr.needs_restart(&mut pin);
            // SAFETY(ordering): Release — hands the release token back;
            // pairs with the main thread's Acquire re-load. Stored
            // before the assert: the main thread ticks until it sees
            // this, so a panic ahead of it would be a hang.
            release.store(true, Ordering::Release);
            // Exactly one pending restart was consumed by the loop.
            assert!(!restart_still_pending);
        });
        while !pinned.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        for k in 0..64 {
            store.put(&mut ctx, k, k).unwrap();
            store.remove(&mut ctx, k).unwrap();
        }
        // Tick only until the first neutralization lands. The shard
        // stays Violating (nothing reclaims before the victim's
        // end_op), and every NEUTRALIZE_RETRY_TICKS a further tick
        // falls back to the all-time most-blamed slot — the victim
        // again — which could land between its two polls.
        for _ in 0..100_000 {
            if store.nav_counters().1 > 0 {
                break;
            }
            store.navigator_tick();
            std::thread::yield_now();
        }
        if store.nav_counters().1 == 0 {
            // SAFETY(ordering): Release — frees the victim so the scope
            // joins and the assert below reports instead of hanging.
            release.store(true, Ordering::Release);
        }
        while !release.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    });
    let (_, neutralizations, _) = store.nav_counters();
    assert_eq!(neutralizations, 1);
}

/// `put_batch` edge cases: an empty batch is a no-op with an empty
/// result vector, and duplicate keys inside one batch apply in batch
/// order (stable per-shard grouping), so each item's "previous value"
/// sees the item before it.
#[test]
fn put_batch_empty_and_duplicate_keys() {
    let schemes: Vec<Ebr> = (0..2).map(|_| Ebr::new(4)).collect();
    let store = KvStore::new(&schemes, KvConfig::default());
    let mut ctx = store.register().unwrap();

    assert!(store.put_batch(&mut ctx, &[]).is_empty());
    assert_eq!(store.len(), 0);

    // Two writes to key 7 in one batch, with an unrelated key between
    // them: the second write's previous value must be the first's.
    let results = store.put_batch(&mut ctx, &[(7, 1), (3, 9), (7, 2)]);
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].as_ref().unwrap(), &None);
    assert_eq!(results[1].as_ref().unwrap(), &None);
    assert_eq!(results[2].as_ref().unwrap(), &Some(1));
    assert_eq!(store.get(&mut ctx, 7), Some(2), "last write wins");
    assert_eq!(store.get(&mut ctx, 3), Some(9));
}

/// A batch spanning a refused shard and a healthy one: the refused
/// shard's items all come back `Overloaded` naming that shard, the
/// healthy shard's items all land, results stay in item order — and
/// the whole refused group costs exactly one shed (the amortized
/// admission contract).
#[test]
fn put_batch_sheds_the_refused_shard_group_wholesale() {
    let schemes: Vec<Ebr> = (0..2).map(|_| Ebr::new(4)).collect();
    let store = KvStore::new(&schemes, KvConfig::default());
    let mut ctx = store.register().unwrap();

    // Interleave keys of both shards so grouping, not batch position,
    // decides each item's fate.
    let mut items = Vec::new();
    let (mut on0, mut on1) = (0, 0);
    let mut k = 0i64;
    while on0 < 3 || on1 < 3 {
        if store.shard_of(k) == 0 && on0 < 3 {
            items.push((k, k));
            on0 += 1;
        } else if store.shard_of(k) == 1 && on1 < 3 {
            items.push((k, k));
            on1 += 1;
        }
        k += 1;
    }

    store.quarantine(0);
    let (_, _, sheds_before) = store.nav_counters();
    let results = store.put_batch(&mut ctx, &items);
    for (&(key, _), res) in items.iter().zip(&results) {
        match store.shard_of(key) {
            0 => assert_eq!(res, &Err(KvError::Overloaded { shard: 0 }), "key {key}"),
            _ => assert_eq!(res, &Ok(None), "key {key}"),
        }
    }
    let (_, _, sheds_after) = store.nav_counters();
    assert_eq!(
        sheds_after - sheds_before,
        1,
        "one admission decision (and one shed) per refused shard group"
    );
    let landed: Vec<i64> = store.scan(i64::MIN, i64::MAX).iter().map(|e| e.0).collect();
    let expect: Vec<i64> = items
        .iter()
        .map(|&(k, _)| k)
        .filter(|&k| store.shard_of(k) == 1)
        .collect();
    assert_eq!(landed, expect);
}

/// Shard health flips under a stream of batches (quarantine imposed
/// and lifted from another thread): within any single batch, items of
/// one shard are admitted or refused **as a group** — the one
/// admission decision per shard group can never split a group's
/// results — and every refusal names the item's own shard.
#[test]
fn put_batch_group_admission_is_atomic_under_health_flips() {
    let schemes: Vec<Ebr> = (0..2).map(|_| Ebr::new(4)).collect();
    let store = KvStore::new(&schemes, KvConfig::default());
    let mut ctx = store.register().unwrap();

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (store_ref, stop_ref) = (&store, &stop);
        s.spawn(move || {
            while !stop_ref.load(Ordering::Acquire) {
                store_ref.quarantine(0);
                std::thread::yield_now();
                // With tiny footprints the tick immediately recovers
                // the quarantined shard, so batches see both states.
                store_ref.navigator_tick();
                std::thread::yield_now();
            }
        });

        for round in 0..512i64 {
            let base = round * 8;
            let items: Vec<(i64, i64)> = (base..base + 8).map(|k| (k, k)).collect();
            let results = store.put_batch(&mut ctx, &items);
            let mut verdict_per_shard: [Option<bool>; 2] = [None, None];
            for (&(key, _), res) in items.iter().zip(&results) {
                let si = store.shard_of(key);
                let admitted = match res {
                    Ok(_) => true,
                    Err(KvError::Overloaded { shard }) => {
                        assert_eq!(*shard, si, "refusal must name the item's shard");
                        false
                    }
                    Err(other) => panic!("unexpected error {other:?}"),
                };
                match verdict_per_shard[si] {
                    None => verdict_per_shard[si] = Some(admitted),
                    Some(prev) => assert_eq!(
                        prev, admitted,
                        "a shard group's admission split mid-batch (round {round})"
                    ),
                }
            }
        }
        // SAFETY(ordering): Release — publishes the finished batches
        // to the flipper thread's Acquire poll of `stop`.
        stop.store(true, Ordering::Release);
    });
}
