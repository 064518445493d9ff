//! Throughput runners and the parked-reader robustness harness.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use era_core::robustness::{classify, RobustnessObservation, RobustnessVerdict};
use era_ds::{ConcurrentSet, HarrisList, MichaelMap, SkipList, VbrList};
use era_smr::common::{EpochProtected, Smr, SmrStats, SupportsUnlinkedTraversal};
use era_smr::{with_scheme, SchemeKind};

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

/// Definition 5.1's stalled thread as a parked context: a reader that
/// takes no steps is a `ThreadCtx` nobody calls, so the experiment runs
/// on the calling thread alone.
///
/// Prefills `size` keys into a [`MichaelMap`], registers a reader
/// that begins an operation and makes one protected load (pinning what
/// the scheme pins: the epoch, an era, a hazard), then churns
/// `remove(k); insert_if_absent(k)` over the prefilled keys `churn`
/// times on a second context, reading `retired_now` after every op.
/// Retiring the pre-stall cohort separates the three classes: EBR's
/// footprint follows the churn, HE's and IBR's the structure, HP's
/// neither. Returns the observation at scale `churn` over the two
/// contexts, with `peak_max_active` counted from the ops' results, and
/// the retired count left once the reader's operation ends and the
/// worker flushes.
pub fn parked_churn<S: Smr>(smr: &S, size: usize, churn: usize) -> (RobustnessObservation, usize) {
    let map = MichaelMap::new(smr);
    let mut worker = smr.register().expect("worker registration");
    let mut active = (0..size as i64)
        .filter(|&k| map.insert_if_absent(&mut worker, k, 0).is_none())
        .count();
    let mut peak_active = active;
    let mut reader = smr.register().expect("reader registration");
    smr.begin_op(&mut reader);
    // The target word is empty: the pin itself is what matters.
    let _ = smr.load(&mut reader, 0, &AtomicUsize::new(0));
    let mut peak_retired = 0;
    for i in 0..churn {
        let k = (i % size.max(1)) as i64;
        if map.remove(&mut worker, k).is_some() {
            active -= 1;
        }
        peak_retired = peak_retired.max(smr.stats().retired_now);
        if map.insert_if_absent(&mut worker, k, 0).is_none() {
            active += 1;
            peak_active = peak_active.max(active);
        }
        peak_retired = peak_retired.max(smr.stats().retired_now);
    }
    smr.end_op(&mut reader);
    for _ in 0..8 {
        smr.flush(&mut worker);
    }
    let observation = RobustnessObservation {
        scale: churn as u64,
        threads: 2,
        peak_retired,
        peak_max_active: peak_active,
    };
    (observation, smr.stats().retired_now)
}

/// `(size, churn)` of each [`parked_churn`] run behind
/// [`measured_class`]. [`classify`] fits the footprint against the
/// scale only, so each sweep is a witness against a stronger class
/// than the other can see: at a fixed size a footprint that follows
/// the churn is not robust, and growing the structure with the churn
/// shows weak robustness only once the structure dominates the
/// schemes' ≈ 64-node scan threshold (below that HE and IBR read
/// robust).
pub const FIXED_SIZE_SWEEP: [(usize, usize); 3] = [(64, 500), (64, 1_000), (64, 2_000)];
/// See [`FIXED_SIZE_SWEEP`].
pub const GROWING_SIZE_SWEEP: [(usize, usize); 3] = [(128, 128), (512, 512), (2_048, 2_048)];

/// `kind`'s robustness measured on shipped code, at its registry
/// defaults over two contexts: the weaker of [`classify`]'s verdicts
/// on the two sweeps, and every run's [`parked_churn`] result,
/// [`FIXED_SIZE_SWEEP`]'s first.
///
/// # Panics
///
/// On [`SchemeKind::Vbr`], which [`with_scheme!`] cannot build.
pub fn measured_class(
    kind: SchemeKind,
) -> (RobustnessVerdict, Vec<(RobustnessObservation, usize)>) {
    let runs: Vec<_> = FIXED_SIZE_SWEEP
        .iter()
        .chain(&GROWING_SIZE_SWEEP)
        .map(|&(size, churn)| with_scheme!(kind, make => parked_churn(&make(2, 3), size, churn)))
        .collect();
    let weaker = runs
        .chunks(FIXED_SIZE_SWEEP.len())
        .map(|sweep| classify(&sweep.iter().map(|run| run.0).collect::<Vec<_>>()).verdict)
        .max()
        .expect("two sweeps");
    (weaker, runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{WorkloadSpec, UPDATE_HEAVY};
    use era_core::robustness::RobustnessVerdict::{NotRobust, WeaklyRobust};
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

    /// The kinds whose measured class is not `kind.class()`, with that
    /// class and the ROADMAP item that closes the gap. A row leaves
    /// this list when its item lands, and fails until it does.
    const DISAGREES: [(SchemeKind, RobustnessVerdict, &str); 2] = [
        (
            SchemeKind::He,
            WeaklyRobust,
            "5b: the reader's era pins the cohort",
        ),
        (
            SchemeKind::Nbr,
            NotRobust,
            "21: a parked reader traps every retire",
        ),
    ];

    /// `(kind, peaks over FIXED_SIZE_SWEEP, peaks over GROWING_SIZE_SWEEP)`,
    /// for every kind `with_scheme!` builds.
    const PEAKS: [(SchemeKind, [usize; 3], [usize; 3]); 6] = [
        (SchemeKind::Ebr, [500, 1_000, 2_000], [128, 512, 2_048]),
        (SchemeKind::Hp, [63, 63, 63], [63, 63, 63]),
        (SchemeKind::He, [127, 127, 127], [128, 512, 2_048]),
        (SchemeKind::Ibr, [128, 128, 128], [128, 512, 2_048]),
        (SchemeKind::Nbr, [500, 1_000, 2_000], [128, 512, 2_048]),
        (SchemeKind::Leak, [500, 1_000, 2_000], [128, 512, 2_048]),
    ];

    /// Measures `kind` and holds it to its `PEAKS` row and its class:
    /// its `DISAGREES` entry if it has one, else the registry's.
    fn assert_measured(kind: SchemeKind) {
        let (_, fixed, growing) = *PEAKS.iter().find(|row| row.0 == kind).unwrap();
        let (class, runs) = measured_class(kind);
        let name = kind.name();
        let peaks: Vec<_> = runs.iter().map(|run| run.0.peak_retired).collect();
        assert_eq!(peaks, [fixed, growing].concat(), "{name}: peaks");
        let sweeps = FIXED_SIZE_SWEEP.iter().chain(&GROWING_SIZE_SWEEP);
        for (&(size, churn), &(obs, left)) in sweeps.zip(&runs) {
            assert_eq!(
                obs.peak_max_active, size,
                "{name}: the structure stays whole"
            );
            // Leak frees nothing; every other kind drains once the
            // reader's operation ends.
            let kept = if kind == SchemeKind::Leak { churn } else { 0 };
            assert_eq!(
                left, kept,
                "{name}: retired after release at {size}/{churn}"
            );
        }
        match DISAGREES.iter().find(|row| row.0 == kind) {
            Some(&(_, listed, item)) => {
                assert_eq!(class, listed, "{name}: measured class ({item})");
                assert_ne!(
                    class,
                    kind.class(),
                    "{name}: agrees now; take it off DISAGREES"
                );
            }
            None => assert_eq!(class, kind.class(), "{name}: measured class"),
        }
    }

    #[test]
    fn parked_reader_measures_each_registry_class() {
        assert_eq!(
            PEAKS.len(),
            SchemeKind::RECLAIMING.len() + 1,
            "every kind but VBR"
        );
        for (kind, _, _) in PEAKS {
            if kind != SchemeKind::Nbr {
                assert_measured(kind);
            }
        }
        let (_, fixed, growing) = *PEAKS.iter().find(|row| row.0 == SchemeKind::Hp).unwrap();
        let bound = Hp::new(2, 3).robustness_bound();
        assert!(
            fixed.iter().chain(&growing).all(|&peak| peak <= bound),
            "HP: peaks within {bound}"
        );
    }

    #[test]
    #[ignore = "ROADMAP 21: ≈3 ms give-up per reclaim; CI runs it in release"]
    fn parked_reader_measures_nbr() {
        assert_measured(SchemeKind::Nbr);
    }
}
