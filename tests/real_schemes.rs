//! Cross-crate integration tests of the *real* schemes: the
//! paper-level properties one can check on real hardware — footprint
//! bounds, transparency (thread churn), and the drain-on-quiescence
//! behaviour. Every (set × scheme) pair is judged linearizable under
//! contention by `era-ds`'s own table test.

use era::ds::MichaelMap;
use era::smr::common::Smr;
use era::smr::{ebr::Ebr, hp::Hp};

const THREADS: usize = 4;

#[test]
#[cfg_attr(
    miri,
    ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
)]
fn transparency_threads_come_and_go() {
    // Nikolaev & Ravindran's transparency property (§2 related work):
    // thread slots are recycled; repeated register/unregister cycles
    // never exhaust capacity or corrupt reclamation.
    let smr = Ebr::new(4);
    let list = MichaelMap::new(&smr);
    for wave in 0..16 {
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let (list, smr) = (&list, &smr);
                s.spawn(move || {
                    let mut ctx = smr.register().expect("slots are recycled");
                    let k = wave * 100 + t;
                    assert_eq!(list.insert_if_absent(&mut ctx, k, 0), None);
                    assert_eq!(list.remove(&mut ctx, k), Some(0));
                    smr.flush(&mut ctx);
                });
            }
        });
    }
    assert!(list.is_empty());
    let st = smr.stats();
    assert_eq!(st.total_retired, 64);
}

#[test]
#[cfg_attr(
    miri,
    ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
)]
fn hp_footprint_bound_holds_under_parallel_churn() {
    let smr = Hp::with_threshold(THREADS + 1, 3, 32);
    let list = MichaelMap::new(&smr);
    let bound = smr.robustness_bound();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (list, smr) = (&list, &smr);
            s.spawn(move || {
                let mut ctx = smr.register().unwrap();
                for i in 0..2_000i64 {
                    let k = (t as i64 * 7 + i) % 64;
                    let _ = list.insert_if_absent(&mut ctx, k, 0);
                    let _ = list.remove(&mut ctx, k);
                    assert!(
                        smr.stats().retired_now <= bound,
                        "HP bound {bound} violated"
                    );
                }
            });
        }
    });
    // The high-water mark is the robustness statement in one number:
    // even the worst instant of the run stayed within the bound.
    let st = smr.stats();
    assert!(st.retired_peak > 0, "churn must have retired something");
    assert!(
        st.retired_peak <= bound,
        "peak {} exceeds bound {bound}",
        st.retired_peak
    );
}

#[test]
#[cfg_attr(
    miri,
    ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
)]
fn ebr_drains_fully_at_quiescence() {
    let smr = Ebr::with_threshold(THREADS + 1, 8);
    let list = MichaelMap::new(&smr);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (list, smr) = (&list, &smr);
            s.spawn(move || {
                let mut ctx = smr.register().unwrap();
                for i in 0..1_000i64 {
                    let k = t as i64 * 1_000 + i;
                    let _ = list.insert_if_absent(&mut ctx, k, 0);
                    let _ = list.remove(&mut ctx, k);
                }
                for _ in 0..8 {
                    smr.flush(&mut ctx);
                }
            });
        }
    });
    // One more drain from a fresh context: everything must go.
    let mut ctx = smr.register().unwrap();
    for _ in 0..8 {
        smr.flush(&mut ctx);
    }
    let st = smr.stats();
    assert_eq!(st.retired_now, 0, "{st}");
    // The peak survives the drain and brackets what the run held.
    assert!(st.retired_peak > 0, "retires happened, peak must be set");
    assert!(st.retired_peak as u64 <= st.total_retired, "{st}");
}
