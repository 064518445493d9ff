//! A realistic scenario: a concurrent membership cache.
//!
//! The motivating workload from the paper's introduction — a service
//! keeps a hot set of keys (sessions, rate-limit buckets, …) that many
//! threads probe while a few mutate. The cache must not exhaust memory
//! even if a reader thread gets descheduled for a long time, so the
//! reclamation scheme's robustness is a *production* requirement, not a
//! theoretical nicety.
//!
//! We build the cache on Michael's hash map with hazard pointers (the
//! easy + robust corner of the ERA triangle: we gave up Harris-style
//! traversal, i.e. wide applicability) and demonstrate both the
//! workload and the bounded footprint under a stalled reader.
//!
//! Run with: `cargo run --release --example kv_cache`

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use era::ds::HashMap;
use era::smr::common::Smr;
use era::smr::hp::Hp;

const READERS: usize = 4;
const WRITERS: usize = 2;
const OPS: usize = 50_000;
const KEYS: i64 = 4_096;

fn main() {
    let smr = Hp::with_threshold(READERS + WRITERS + 2, 3, 64);
    let cache = HashMap::new(&smr, 256);

    // Warm the cache.
    {
        let mut ctx = smr.register().unwrap();
        for k in (0..KEYS).step_by(2) {
            cache.insert_if_absent(&mut ctx, k, 0);
        }
    }

    let hits = AtomicUsize::new(0);
    let misses = AtomicUsize::new(0);
    let stalled = AtomicBool::new(true);

    std::thread::scope(|s| {
        // A "stuck" reader: begins an operation, protects a node, and
        // sleeps — the situation that makes EBR-based caches balloon.
        {
            let (smr, stalled) = (&smr, &stalled);
            s.spawn(move || {
                let mut ctx = smr.register().unwrap();
                smr.begin_op(&mut ctx);
                let dummy = AtomicUsize::new(0);
                let _ = smr.load(&mut ctx, 0, &dummy);
                while stalled.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                smr.end_op(&mut ctx);
            });
        }
        for r in 0..READERS {
            let (cache, smr, hits, misses) = (&cache, &smr, &hits, &misses);
            s.spawn(move || {
                let mut ctx = smr.register().unwrap();
                let mut key = r as i64;
                for _ in 0..OPS {
                    key = (key
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407)
                        >> 33)
                        .rem_euclid(KEYS);
                    if cache.get(&mut ctx, key).is_some() {
                        // SAFETY(ordering): Relaxed — hit/miss tallies,
                        // read after the scope joins every worker.
                        hits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        misses.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        for w in 0..WRITERS {
            let (cache, smr) = (&cache, &smr);
            s.spawn(move || {
                let mut ctx = smr.register().unwrap();
                let mut key = 7_777 + w as i64;
                for i in 0..OPS {
                    key = (key.wrapping_mul(6364136223846793005).wrapping_add(99)).rem_euclid(KEYS);
                    if i % 2 == 0 {
                        let _ = cache.insert_if_absent(&mut ctx, key, 0);
                    } else {
                        let _ = cache.remove(&mut ctx, key);
                    }
                }
                smr.flush(&mut ctx);
            });
        }
        // Let the workload finish before releasing the stalled reader.
        // (Scope joins the workers; the stalled reader needs the flag.)
        stalled.store(false, Ordering::SeqCst);
    });

    let st = smr.stats();
    println!("cache size      : {}", cache.len());
    println!("reader hits     : {}", hits.load(Ordering::Relaxed));
    println!("reader misses   : {}", misses.load(Ordering::Relaxed));
    println!(
        "retired in-flight: {} (bound: {})",
        st.retired_now,
        smr.robustness_bound()
    );
    println!("total retired   : {}", st.total_retired);
    println!("total reclaimed : {}", st.total_reclaimed);
    assert!(
        st.retired_now <= smr.robustness_bound(),
        "HP's footprint must stay bounded even with a stalled reader"
    );
    println!("kv_cache OK — bounded memory despite the stalled reader");
}
