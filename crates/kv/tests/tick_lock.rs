//! Two threads tick one store's navigator while a third churns a
//! shard whose epoch is pinned.
//!
//! `KvStore::navigator_tick` admits one ticker at a time through a
//! try-lock, so concurrent tickers must leave exactly what one would:
//! every transition emitted once, as a chain (each `Navigate` event's
//! `from` is the previous one's `to`), counted once, and the last
//! health a fixed point of one more tick. Without the lock two tickers
//! that read the same health both store, count and emit the same
//! transition, and the chain repeats a link.
//!
//! The churner moves in steps, and both tickers start one tick together
//! per step, so every transition is raced for. Each incident pins the
//! epoch, churns until the navigator has gone `Violating` and
//! neutralized the pin, then releases it and flushes until the shard
//! is `Robust` again.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use era_kv::{KvConfig, KvStore, ShardHealth};
use era_obs::Hook;
use era_smr::ebr::Ebr;
use era_smr::Smr;

/// Pin → `Violating` → neutralized → drained → `Robust` incidents: a
/// double count needs the second ticker to load the health inside the
/// first one's few-instruction window, so it takes a few thousand
/// raced transitions to show reliably.
const INCIDENTS: u64 = 2048;
const TICKERS: u64 = 2;
/// How long an incident may take before the test calls it a hang.
const STUCK: Duration = Duration::from_secs(30);

#[test]
#[cfg_attr(miri, ignore = "threads spinning on a step counter")]
fn two_tickers_count_each_transition_once() {
    let schemes = vec![Ebr::with_threshold(4, 1)];
    let cfg = KvConfig {
        retired_soft: 4,
        retired_hard: 16,
        // Holds every Sample and Navigate the incidents emit.
        ring_capacity: 1 << 17,
        ..KvConfig::default()
    };
    let store = KvStore::new(&schemes, cfg);
    let smr = store.scheme(0);
    // The step the churner has opened, and the ticks taken for it; a
    // step of `u64::MAX` ends the tickers.
    let step = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    let ticked = std::thread::scope(|s| {
        let tickers: Vec<_> = (0..TICKERS)
            .map(|_| {
                s.spawn(|| {
                    let (mut seen, mut ticked, mut idle) = (0, 0u64, 0u32);
                    loop {
                        let now = step.load(Ordering::SeqCst);
                        if now == seen {
                            // Spin so both tickers leave together, but
                            // yield often enough that the churner runs.
                            idle += 1;
                            if idle % 256 == 0 {
                                std::thread::yield_now();
                            } else {
                                std::hint::spin_loop();
                            }
                            continue;
                        }
                        if now == u64::MAX {
                            return ticked;
                        }
                        seen = now;
                        ticked += u64::from(store.navigator_tick());
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        // One step: `work`, then both tickers tick once, together.
        let mut opened = 0;
        let mut next_step = |work: &mut dyn FnMut()| {
            work();
            opened += 1;
            step.store(opened, Ordering::SeqCst);
            while done.load(Ordering::SeqCst) < opened * TICKERS {
                std::thread::yield_now();
            }
        };
        let mut ctx = store.register().unwrap();
        let mut pin = smr.register().unwrap();
        let mut key = 0;
        for incident in 0..INCIDENTS {
            let started = Instant::now();
            smr.begin_op(&mut pin);
            while !smr.needs_restart(&mut pin) {
                assert!(
                    started.elapsed() < STUCK,
                    "incident {incident}: never neutralized"
                );
                next_step(&mut || {
                    // A refused write is fine: the footprint it would
                    // add is what the navigator is there to refuse.
                    let _ = store.put(&mut ctx, key, key);
                    let _ = store.remove(&mut ctx, key);
                    key += 1;
                });
            }
            smr.end_op(&mut pin);
            while store.health(0) != ShardHealth::Robust {
                assert!(
                    started.elapsed() < STUCK,
                    "incident {incident}: never drained"
                );
                next_step(&mut || store.flush(&mut ctx));
            }
        }
        step.store(u64::MAX, Ordering::SeqCst);
        tickers.into_iter().map(|t| t.join().unwrap()).sum::<u64>()
    });

    let recorder = store.recorder(0);
    assert_eq!(recorder.dropped(), 0, "the ring overflowed");
    // One Sample per tick that got in, and none for one that skipped.
    assert_eq!(recorder.metrics().hook_count(Hook::Sample), ticked);
    let log = recorder.drain();
    let chain: Vec<(u64, u64)> = log
        .with_hook(Hook::Navigate)
        .map(|e| (e.b >> 8, e.b & 0xFF))
        .collect();
    let mut health = ShardHealth::Robust as u64;
    for (i, &(from, to)) in chain.iter().enumerate() {
        assert_eq!(from, health, "transition {i} emitted twice: {chain:?}");
        health = to;
    }
    let violations = chain
        .iter()
        .filter(|&&(_, to)| to == ShardHealth::Violating as u64)
        .count();
    assert_eq!(violations as u64, INCIDENTS, "{chain:?}");
    let (transitions, neutralizations, _) = store.nav_counters();
    assert_eq!(transitions, chain.len() as u64, "{chain:?}");
    assert!(
        neutralizations >= INCIDENTS,
        "{neutralizations} neutralizations"
    );
    // Every incident ends drained: one more tick, a single ticker's,
    // leaves the health where the two left it.
    assert_eq!(health, ShardHealth::Robust as u64);
    assert!(store.navigator_tick());
    assert_eq!(store.health(0), ShardHealth::Robust);
    assert_eq!(store.nav_counters().0, transitions);
}
