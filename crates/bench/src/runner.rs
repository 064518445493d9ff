//! Throughput runners and the stalled-thread robustness harness.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use era_ds::{ConcurrentSet, HarrisList, MichaelMap, SkipList, VbrList};
use era_smr::common::{EpochProtected, Smr, SmrStats, SupportsUnlinkedTraversal};

use crate::workload::{KvOpKind, WorkloadSpec};

/// Result of one throughput run.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Total operations executed.
    pub ops: usize,
    /// Wall-clock duration of the measured phase.
    pub elapsed: Duration,
    /// Peak retired population observed by the sampler.
    pub peak_retired: usize,
    /// The scheme's own retired-population high-water mark (exact,
    /// updated on every retire — the sampler's `peak_retired` can only
    /// undershoot it).
    pub retired_peak: usize,
    /// Retired population after the final flush.
    pub final_retired: usize,
    /// Total nodes retired.
    pub total_retired: u64,
    /// Total nodes reclaimed.
    pub total_reclaimed: u64,
}

impl RunStats {
    /// Million operations per second.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }
}

/// The one driver body: prefills `set`, runs `spec`'s seeded op
/// streams on `spec.threads` threads, and samples `stats().retired_now`
/// every 1024 ops of every thread into `RunStats::peak_retired`.
fn drive<L: ConcurrentSet + Sync>(
    set: &L,
    spec: &WorkloadSpec,
    stats: impl Fn() -> SmrStats + Sync,
    flush: impl Fn(&mut L::Ctx) + Sync,
) -> RunStats {
    {
        let mut ctx = set.ctx();
        for k in spec.prefill_keys() {
            set.insert(&mut ctx, k);
        }
    }
    let peak = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..spec.threads {
            let (peak, stats, flush) = (&peak, &stats, &flush);
            s.spawn(move || {
                let mut ctx = set.ctx();
                for (i, (k, op)) in spec.ops_for_thread(t).enumerate() {
                    let _ = match op {
                        KvOpKind::Get => set.contains(&mut ctx, k),
                        KvOpKind::Put => set.insert(&mut ctx, k),
                        KvOpKind::Remove => set.delete(&mut ctx, k),
                    };
                    if i % 1024 == 0 {
                        // SAFETY(ordering): Relaxed — footprint
                        // high-water telemetry, read after joins.
                        peak.fetch_max(stats().retired_now, Ordering::Relaxed);
                    }
                }
                for _ in 0..4 {
                    flush(&mut ctx);
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let st = stats();
    RunStats {
        ops: spec.ops_per_thread * spec.threads,
        elapsed,
        peak_retired: peak.load(Ordering::Relaxed).max(st.retired_now),
        retired_peak: st.retired_peak,
        final_retired: st.retired_now,
        total_retired: st.total_retired,
        total_reclaimed: st.total_reclaimed,
    }
}

/// [`drive`] for a set reclaimed by `smr`.
fn run_set<S: Smr + Sync, L: ConcurrentSet<Ctx = S::ThreadCtx> + Sync>(
    smr: &S,
    set: &L,
    spec: &WorkloadSpec,
) -> RunStats {
    drive(set, spec, || smr.stats(), |ctx| smr.flush(ctx))
}

/// Drives `spec` against a [`MichaelMap`] as the set of its keys
/// (works with every pointer-based scheme, HP included).
pub fn run_michael<S: Smr + Sync>(smr: &S, spec: &WorkloadSpec) -> RunStats {
    run_set(smr, &MichaelMap::new(smr), spec)
}

/// Drives `spec` against a [`HarrisList`] (schemes supporting
/// marked-chain traversal only: EBR, NBR, Leak).
pub fn run_harris<S: Smr + SupportsUnlinkedTraversal + Sync>(
    smr: &S,
    spec: &WorkloadSpec,
) -> RunStats {
    run_set(smr, &HarrisList::new(smr), spec)
}

/// Drives `spec` against a [`SkipList`] (epoch-protected schemes only:
/// EBR and Leak).
pub fn run_skiplist<S: Smr + EpochProtected + Sync>(smr: &S, spec: &WorkloadSpec) -> RunStats {
    run_set(smr, &SkipList::new(smr), spec)
}

/// Drives `spec` against a [`VbrList`] (the arena must be large enough
/// for `prefill + threads` concurrent nodes; retired population is
/// identically zero under VBR).
pub fn run_vbr(spec: &WorkloadSpec) -> RunStats {
    let list = VbrList::new(spec.key_range as usize + spec.threads * 2 + 16);
    drive(&list, spec, || list.arena().stats(), |_| {})
}

/// Outcome of one stalled-thread churn experiment (the Definition 5.1
/// measurement behind Figure 1's engine).
#[derive(Debug, Clone)]
pub struct StallReport {
    /// Scheme name.
    pub scheme: &'static str,
    /// Structure size at the moment of the stall.
    pub structure_size: usize,
    /// Churn operations executed while the thread was stalled.
    pub churn_ops: usize,
    /// Samples of the retired population, one per ~1k churn ops.
    pub retired_series: Vec<usize>,
    /// Peak retired population during the stall.
    pub peak_retired: usize,
    /// Retired population after un-stalling and flushing.
    pub final_retired: usize,
}

/// Runs the stalled-reader churn experiment on a [`MichaelMap`]:
///
/// 1. prefill `structure_size` keys;
/// 2. a reader thread begins an operation, performs one protected load
///    (pinning whatever the scheme pins: the epoch, an era, a hazard)
///    and stalls;
/// 3. a worker churns `churn_ops` insert/delete pairs, sampling the
///    retired population — with `overlap = false` over keys disjoint
///    from the structure, with `overlap = true` over the prefilled keys
///    themselves (retiring the pre-stall cohort, which HE/IBR pin:
///    their footprint then scales with the structure size — the weak
///    robustness of Definition 5.2 — while EBR scales with the churn
///    and HP stays constant);
/// 4. the reader un-stalls; a final flush shows what was recoverable.
pub fn stall_churn_michael<S: Smr + Sync>(
    smr: &S,
    scheme: &'static str,
    structure_size: usize,
    churn_ops: usize,
    overlap: bool,
) -> StallReport {
    let list = MichaelMap::new(smr);
    {
        let mut ctx = smr.register().expect("prefill registration");
        for k in 0..structure_size as i64 {
            list.insert_if_absent(&mut ctx, k, 0);
        }
    }
    let stalled = AtomicBool::new(true);
    let pinned = AtomicBool::new(false);
    let reader_done = AtomicBool::new(false);
    let dummy = AtomicUsize::new(0);
    let mut series = Vec::new();
    std::thread::scope(|s| {
        let (stalled, pinned, reader_done, dummy) = (&stalled, &pinned, &reader_done, &dummy);
        s.spawn(move || {
            let mut ctx = smr.register().expect("reader registration");
            smr.begin_op(&mut ctx);
            // One protected load inside the operation pins the scheme's
            // protection unit: EBR's announced epoch, HE/IBR's published
            // era, an HP hazard slot. The target word is empty — the pin
            // itself is what matters.
            let _ = smr.load(&mut ctx, 0, dummy);
            pinned.store(true, Ordering::SeqCst);
            while stalled.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            smr.end_op(&mut ctx);
            reader_done.store(true, Ordering::SeqCst);
        });
        while !pinned.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        let mut ctx = smr.register().expect("worker registration");
        let base = structure_size as i64 + 10;
        for i in 0..churn_ops {
            let k = if overlap {
                (i % structure_size.max(1)) as i64
            } else {
                base + (i % 64) as i64
            };
            if overlap {
                let _ = list.remove(&mut ctx, k);
                let _ = list.insert_if_absent(&mut ctx, k, 0);
            } else {
                let _ = list.insert_if_absent(&mut ctx, k, 0);
                let _ = list.remove(&mut ctx, k);
            }
            if i % 1_000 == 0 {
                series.push(smr.stats().retired_now);
            }
        }
        series.push(smr.stats().retired_now);
        stalled.store(false, Ordering::SeqCst);
        // Wait until the reader's operation has actually ended, then
        // drain what is now reclaimable.
        while !reader_done.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        for _ in 0..8 {
            smr.flush(&mut ctx);
        }
    });
    let peak = series.iter().copied().max().unwrap_or(0);
    StallReport {
        scheme,
        structure_size,
        churn_ops,
        retired_series: series,
        peak_retired: peak,
        final_retired: smr.stats().retired_now,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{WorkloadSpec, UPDATE_HEAVY};
    use era_smr::ebr::Ebr;
    use era_smr::hp::Hp;
    use era_smr::leak::Leak;
    use era_smr::nbr::Nbr;

    #[test]
    fn michael_runner_produces_stats() {
        let smr = Hp::new(8, 3);
        let stats = run_michael(&smr, &WorkloadSpec::small());
        assert_eq!(stats.ops, 4_000);
        assert!(stats.mops() > 0.0);
        assert!(stats.total_reclaimed <= stats.total_retired);
    }

    #[test]
    fn harris_runner_produces_stats() {
        let smr = Ebr::new(8);
        let stats = run_harris(&smr, &WorkloadSpec::small());
        assert_eq!(stats.ops, 4_000);
        assert!(stats.total_retired > 0, "mixed workload must retire nodes");
    }

    #[test]
    fn harris_runner_with_nbr() {
        let smr = Nbr::new(8, 2);
        let stats = run_harris(&smr, &WorkloadSpec::small());
        assert!(
            stats.final_retired <= 64 * 8,
            "NBR keeps the footprint bounded"
        );
    }

    #[test]
    fn skiplist_runner_samples_its_peak() {
        // The footprint column is a mid-run sample, not the value read
        // after the final flush.
        let smr = Ebr::new(8);
        let spec = WorkloadSpec {
            mix: UPDATE_HEAVY,
            ..WorkloadSpec::small()
        };
        let stats = run_skiplist(&smr, &spec);
        assert!(stats.total_retired > 0, "updates must retire nodes");
        assert!(stats.peak_retired >= stats.final_retired);
        assert!(stats.peak_retired <= stats.retired_peak);
    }

    #[test]
    fn vbr_runner_produces_stats() {
        let stats = run_vbr(&WorkloadSpec::small());
        assert_eq!(stats.peak_retired, 0, "VBR: retire is reclaim");
        assert_eq!(stats.total_retired, stats.total_reclaimed);
    }

    #[test]
    fn update_heavy_workload_reclaims_under_leak_never() {
        let smr = Leak::new(8);
        let spec = WorkloadSpec {
            mix: UPDATE_HEAVY,
            ..WorkloadSpec::small()
        };
        let stats = run_michael(&smr, &spec);
        assert_eq!(stats.total_reclaimed, 0);
        assert_eq!(stats.final_retired as u64, stats.total_retired);
    }

    #[test]
    fn stall_churn_shows_ebr_unbounded_hp_bounded() {
        let ebr = Ebr::with_threshold(4, 16);
        let r1 = stall_churn_michael(&ebr, "EBR", 64, 5_000, false);
        assert!(
            r1.peak_retired >= 4_000,
            "EBR under stall must accumulate: {}",
            r1.peak_retired
        );
        assert!(
            r1.final_retired < 200,
            "unstalling drains: {}",
            r1.final_retired
        );

        let hp = Hp::with_threshold(4, 3, 16);
        let r2 = stall_churn_michael(&hp, "HP", 64, 5_000, false);
        assert!(
            r2.peak_retired <= hp.robustness_bound(),
            "HP stays bounded: {} vs {}",
            r2.peak_retired,
            hp.robustness_bound()
        );
    }

    #[test]
    fn overlapping_churn_pins_the_cohort_under_he() {
        use era_smr::he::He;
        // HE pins the pre-stall cohort (≈ structure size) but not the
        // churn — between HP's constant and EBR's unbounded footprint.
        let he = He::with_params(4, 3, 16, 1);
        let r = stall_churn_michael(&he, "HE", 256, 5_000, true);
        assert!(
            r.peak_retired >= 200,
            "the pre-stall cohort is pinned: {}",
            r.peak_retired
        );
        assert!(
            r.peak_retired <= 256 + 64,
            "but only the cohort: {}",
            r.peak_retired
        );
        assert!(
            r.final_retired < 64,
            "unstalling drains: {}",
            r.final_retired
        );
    }
}
