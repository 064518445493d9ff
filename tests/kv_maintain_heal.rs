//! Seeded interleaving stress for the store's maintenance surfaces:
//! `maintain` (idle-thread flush pass), `heal` (context
//! swap-and-adopt after a death or neutralization), and `drain`
//! (shutdown) all racing against live churn on one shard.
//!
//! The hazard under test is the swap window inside `heal`: a fresh
//! context is registered, the old one is flushed and dropped (its
//! garbage moves to the orphan pool), and the fresh context flushes to
//! adopt — while another thread's `maintain` pass races the adoption
//! and a writer keeps retiring. The invariants are scheme-independent:
//! no deadlock, no double reclaim (every retire is reclaimed at most
//! once), and a final drain leaves zero retired garbage with the
//! ledger balanced (`total_reclaimed == total_retired`).

use era::kv::{KvConfig, KvStore};
use era::smr::common::{Smr, SmrStats};
use era::smr::ebr::Ebr;
use era::smr::hp::Hp;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};

/// Slots per thread for HP (get/put/remove traverse with ≤3 hands).
const SLOTS: usize = 3;

fn stress<S: Smr>(schemes: &[S], seed: u64) {
    let cfg = KvConfig {
        retired_soft: 64,
        retired_hard: 256,
        max_threads: 8,
        ..KvConfig::default()
    };
    let store = KvStore::new(schemes, cfg);
    let rounds = if cfg!(debug_assertions) { 400 } else { 2_000 };

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (store_ref, done_ref) = (&store, &done);

        // Writer: seeded churn — retires continuously so heal always
        // has garbage in flight to orphan and adopt.
        let writer = s.spawn(move || {
            let mut ctx = store_ref.register().unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..rounds {
                let k = (rng.next_u64() % 128) as i64;
                if rng.next_u64() % 3 == 0 {
                    let _ = store_ref.remove(&mut ctx, k);
                } else {
                    let _ = store_ref.put(&mut ctx, k, k);
                }
            }
            store_ref.flush(&mut ctx);
        });

        // Maintainer: idle-pass loop racing the healer's adoption
        // window (quiescent point + flush on every shard).
        let maintainer = s.spawn(move || {
            let mut ctx = store_ref.register().unwrap();
            while !done_ref.load(Ordering::Acquire) {
                store_ref.maintain(&mut ctx);
                std::thread::yield_now();
            }
            store_ref.maintain(&mut ctx);
        });

        // Healer: repeatedly swaps its shard-0 context. `Err` (no
        // spare slot right now) is legal — the old context must then
        // be untouched, which the next iteration's ops exercise.
        let healer = s.spawn(move || {
            let mut ctx = store_ref.register().unwrap();
            let mut healed = 0usize;
            let mut iters = 0usize;
            // On one core the writer can finish before this loop gets
            // scheduled at all — a minimum iteration count keeps the
            // swap path exercised even when the race window is gone.
            while !done_ref.load(Ordering::Acquire) || iters < 64 {
                iters += 1;
                if store_ref.heal(&mut ctx, 0).is_ok() {
                    healed += 1;
                }
                // Drive an op through the (possibly fresh) context so
                // a broken swap would surface as a crash or a stuck
                // restart flag, not silence.
                let _ = store_ref.get(&mut ctx, 1);
                std::thread::yield_now();
            }
            healed
        });

        let writer_ok = writer.join().is_ok();
        // SAFETY(ordering): Release — publishes the writer's completed
        // churn to the maintainer/healer Acquire polls of `done`.
        done.store(true, Ordering::Release);
        let maintainer_ok = maintainer.join().is_ok();
        let healed = healer.join().expect("healer panicked");
        assert!(writer_ok, "writer panicked");
        assert!(maintainer_ok, "maintainer panicked");
        assert!(healed > 0, "heal never succeeded — the race never ran");
    });

    // Shutdown: drain must terminate (no garbage is pinned — every
    // context above is gone) and the ledger must balance.
    let mut ctx = store.register().unwrap();
    assert!(store.drain(&mut ctx, 512), "drain did not complete");
    let stats: SmrStats = store.stats();
    assert_eq!(stats.retired_now, 0, "{stats:?}");
    assert_eq!(
        stats.total_reclaimed, stats.total_retired,
        "reclamation ledger out of balance: {stats:?}"
    );
}

#[test]
fn maintain_heal_drain_race_ebr() {
    let schemes: Vec<Ebr> = (0..2).map(|_| Ebr::new(8)).collect();
    stress(&schemes, 0xAB5E_0001);
}

#[test]
fn maintain_heal_drain_race_hp() {
    let schemes: Vec<Hp> = (0..2).map(|_| Hp::new(8, SLOTS)).collect();
    stress(&schemes, 0xAB5E_0003);
}
