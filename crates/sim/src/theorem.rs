//! The Theorem 6.1 construction (§6, Figure 1), executable.
//!
//! The adversarial execution: two reachable nodes `{1, 2}`; thread `T1`
//! begins `delete(3)` and is paused right after reading `head.next`
//! (stage *a*); thread `T2` runs `delete(1)` (stages *b*–*c*) and then
//! an alternating sequence `insert(n+1); delete(n)` (stages *d*–*f* and
//! onward), keeping `max_active` pinned at 4 while the retired
//! population is whatever the scheme allows; finally `T1` solo-runs.
//!
//! Exactly one of three things happens, and which one tells you the ERA
//! property the scheme sacrificed:
//!
//! * the retired population grew linearly with the churn (nothing was
//!   reclaimed under the stalled reader): **robustness** was sacrificed
//!   (EBR, Leak);
//! * the solo-running `T1` dereferenced memory of a reclaimed node and
//!   a Definition 4.2 violation fired: **wide applicability** was
//!   sacrificed (HP, HE, IBR — Appendix E);
//! * `T1` was forced to roll back to a checkpoint and re-traverse:
//!   **easy integration** was sacrificed (VBR, NBR — Definition 5.3,
//!   Condition 4).
//!
//! [`measured_matrix`] assembles the full §6 trade-off matrix from
//! these runs plus robustness scaling observations, and
//! [`era_core::EraMatrix::check_theorem`] asserts no scheme beat the
//! theorem.

use std::fmt;

use era_core::applicability::ApplicabilityClass;
use era_core::era::{EraMatrix, EraProfile};
use era_core::ids::ThreadId;
use era_core::integration::check_easy_integration;
use era_core::robustness::{classify, RobustnessObservation};
use era_obs::{Hook, Recorder};

use crate::harris::{HarrisSim, OpKind};
use crate::schemes::SimScheme;

/// Which ERA property the scheme gave up in the construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sacrificed {
    /// Retired nodes accumulated without bound (Definition 5.1/5.2
    /// failure).
    Robustness,
    /// The scheme forced roll-backs (Definition 5.3 failure).
    EasyIntegration,
    /// A Definition 4.2 violation fired — the scheme is unsafe for
    /// Harris's list, hence not widely applicable (Definition 5.6).
    Applicability,
}

impl fmt::Display for Sacrificed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sacrificed::Robustness => write!(f, "robustness"),
            Sacrificed::EasyIntegration => write!(f, "easy integration"),
            Sacrificed::Applicability => write!(f, "wide applicability"),
        }
    }
}

/// Result of one Figure 1 run.
#[derive(Debug, Clone)]
pub struct TheoremOutcome {
    /// Scheme name.
    pub scheme: String,
    /// Churn rounds executed by `T2`.
    pub rounds: usize,
    /// Peak retired population during the churn.
    pub peak_retired: usize,
    /// Retired population after each churn round: round *r* is at index
    /// *r* − 1.
    pub retired_series: Vec<usize>,
    /// Peak `max_active` (the paper proves this is 4).
    pub peak_max_active: usize,
    /// Definition 4.2 violations detected.
    pub violations: usize,
    /// Description of the first violation, if any.
    pub first_violation: Option<String>,
    /// Scheme-forced roll-backs observed.
    pub rollbacks: usize,
    /// Whether `T1`'s solo run completed its operation.
    pub solo_completed: bool,
    /// The ERA property the scheme sacrificed.
    pub sacrificed: Sacrificed,
}

impl fmt::Display for TheoremOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<6} rounds={:<6} peak_retired={:<6} max_active={} violations={} \
             rollbacks={:<5} solo_done={:<5} sacrificed={}",
            self.scheme,
            self.rounds,
            self.peak_retired,
            self.peak_max_active,
            self.violations,
            self.rollbacks,
            self.solo_completed,
            self.sacrificed
        )
    }
}

const T1: ThreadId = ThreadId(0);
const T2: ThreadId = ThreadId(1);

/// Replays the Figure 1 execution with `rounds` churn rounds.
///
/// # Panics
///
/// Panics if the world deviates from the construction's invariants
/// (e.g. an operation of `T2` fails to complete).
pub fn run_figure1(scheme: Box<dyn SimScheme>, rounds: usize) -> TheoremOutcome {
    run_figure1_inner(scheme, rounds, None)
}

/// [`run_figure1`] with an attached [`era_obs::Recorder`]: the run
/// additionally emits [`Hook::Phase`] transitions (indices decoded by
/// [`era_obs::phase_name`]), oracle checks/violations, roll-backs, and
/// footprint samples into the recorder.
pub fn run_figure1_traced(
    scheme: Box<dyn SimScheme>,
    rounds: usize,
    recorder: &Recorder,
) -> TheoremOutcome {
    run_figure1_inner(scheme, rounds, Some(recorder))
}

fn run_figure1_inner(
    scheme: Box<dyn SimScheme>,
    rounds: usize,
    recorder: Option<&Recorder>,
) -> TheoremOutcome {
    let name = scheme.name().to_string();
    let mut sim = HarrisSim::new(scheme);
    if let Some(rec) = recorder {
        sim.sim.attach_recorder(rec);
    }
    let phase = |sim: &mut HarrisSim, index: u64| {
        sim.sim.tracer.emit(Hook::Phase, index, rounds as u64);
    };

    // Stage (a): two reachable nodes besides the sentinels.
    phase(&mut sim, 0); // setup
    assert!(sim.run_op(T2, OpKind::Insert(1)));
    assert!(sim.run_op(T2, OpKind::Insert(2)));

    // T1 invokes delete(3) and executes exactly up to (and including)
    // its read of head.next — then the scheduler takes it away.
    phase(&mut sim, 1); // t1_blocks_mid_delete
    let mut t1 = sim.start_op(T1, OpKind::Delete(3));
    for _ in 0..3 {
        assert!(!sim.step(&mut t1), "T1 must still be traversing");
    }

    // Stages (b)–(c): T2 deletes node 1.
    phase(&mut sim, 2); // t2_deletes_node1
    assert!(sim.run_op(T2, OpKind::Delete(1)));
    sim.sim.sample();

    // Stages (d)+ : alternating insert(n+1); delete(n), n = 2, 3, …
    phase(&mut sim, 3); // churn
    for n in 2..2 + rounds as i64 {
        assert!(sim.run_op(T2, OpKind::Insert(n + 1)));
        assert!(sim.run_op(T2, OpKind::Delete(n)));
        sim.sim.sample();
    }
    let peak_retired = sim.sim.samples.iter().map(|s| s.retired).max().unwrap_or(0);
    // Sample 0 is stage (c); one sample per churn round follows.
    let retired_series = sim.sim.samples[1..].iter().map(|s| s.retired).collect();
    let peak_max_active = sim
        .sim
        .samples
        .iter()
        .map(|s| s.max_active)
        .max()
        .unwrap_or(0);

    // Solo run of T1 (it is now the only effective thread).
    phase(&mut sim, 4); // solo_run
    let budget = rounds * 64 + 10_000;
    let mut solo_completed = false;
    for _ in 0..budget {
        if sim.step(&mut t1) {
            solo_completed = true;
            break;
        }
        if !sim.sim.heap.verdict().is_smr() {
            break; // the oracle caught a Definition 4.2 violation
        }
    }

    phase(&mut sim, 5); // verdict
    let verdict = sim.sim.heap.verdict();
    let violations = verdict.violations.len();
    let first_violation = verdict.violations.first().map(|v| v.to_string());
    let rollbacks = sim.sim.monitor.rollbacks();

    let sacrificed = if violations > 0 {
        Sacrificed::Applicability
    } else if rollbacks > 0 {
        Sacrificed::EasyIntegration
    } else {
        Sacrificed::Robustness
    };

    TheoremOutcome {
        scheme: name,
        rounds,
        peak_retired,
        retired_series,
        peak_max_active,
        violations,
        first_violation,
        rollbacks,
        solo_completed,
        sacrificed,
    }
}

/// Runs Figure 1 at several scales and returns robustness observations
/// for [`era_core::robustness::classify`].
pub fn figure1_observations(
    factory: impl Fn() -> Box<dyn SimScheme>,
    scales: &[usize],
) -> Vec<RobustnessObservation> {
    scales
        .iter()
        .map(|&rounds| {
            let out = run_figure1(factory(), rounds);
            RobustnessObservation {
                scale: rounds as u64,
                threads: 2,
                peak_retired: out.peak_retired,
                peak_max_active: out.peak_max_active,
            }
        })
        .collect()
}

/// One measured row of the §6 matrix.
fn profile(
    name: &'static str,
    factory: impl Fn() -> Box<dyn SimScheme>,
    rounds: usize,
) -> EraProfile {
    let outcome = run_figure1(factory(), rounds);
    let static_easy = check_easy_integration(&factory().interface()).is_easy();
    let easy = static_easy && outcome.rollbacks == 0;
    // Robustness is judged from the churn phase across scales (for the
    // unsafe schemes the churn still runs fully; only T1's solo run is
    // cut short by the violation).
    let obs = figure1_observations(&factory, &[rounds / 4, rounds / 2, rounds]);
    let robustness = classify(&obs).verdict;
    let applicability = if outcome.violations == 0 {
        ApplicabilityClass::Wide
    } else {
        ApplicabilityClass::Limited
    };
    let notes = match outcome.sacrificed {
        Sacrificed::Robustness => format!(
            "retired grew to {} with max_active {}",
            outcome.peak_retired, outcome.peak_max_active
        ),
        Sacrificed::EasyIntegration => {
            format!("{} roll-backs kept it safe and bounded", outcome.rollbacks)
        }
        Sacrificed::Applicability => outcome
            .first_violation
            .clone()
            .unwrap_or_else(|| "unsafe access".to_string()),
    };
    EraProfile::new(name, easy, robustness, applicability, notes)
}

/// Builds the measured §6 trade-off matrix by replaying Figure 1 with
/// every simulated scheme at `rounds` churn rounds (use ≥ 64 so the
/// robustness classifier has a spread of scales).
pub fn measured_matrix(rounds: usize) -> EraMatrix {
    let threads = 2;
    [
        profile(
            "EBR",
            move || Box::new(crate::schemes::SimEbr::new(threads)) as _,
            rounds,
        ),
        profile(
            "HP",
            move || Box::new(crate::schemes::SimHp::new(threads, 3)) as _,
            rounds,
        ),
        profile(
            "HE",
            move || Box::new(crate::schemes::SimHe::new(threads, 3)) as _,
            rounds,
        ),
        profile(
            "IBR",
            move || Box::new(crate::schemes::SimIbr::new(threads)) as _,
            rounds,
        ),
        profile(
            "VBR",
            move || Box::new(crate::schemes::SimVbr::new()) as _,
            rounds,
        ),
        profile(
            "NBR",
            move || Box::new(crate::schemes::SimNbr::new(threads, 1)) as _,
            rounds,
        ),
        profile(
            "Leak",
            move || Box::new(crate::schemes::SimLeak) as _,
            rounds,
        ),
    ]
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{SimEbr, SimHe, SimHp, SimIbr, SimLeak, SimNbr, SimVbr};
    use era_core::robustness::RobustnessVerdict;

    #[test]
    fn max_active_is_four_as_the_paper_claims() {
        let out = run_figure1(Box::new(SimLeak), 100);
        assert_eq!(out.peak_max_active, 4, "head, n, n+1, tail");
    }

    #[test]
    fn ebr_sacrifices_robustness() {
        let out = run_figure1(Box::new(SimEbr::new(2)), 100);
        assert_eq!(out.sacrificed, Sacrificed::Robustness);
        assert!(out.peak_retired >= 100, "everything piles up: {out}");
        assert_eq!(out.retired_series.len(), 100, "one sample per round");
        assert!(out.retired_series.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(out.retired_series.last(), Some(&out.peak_retired));
        assert!(out.solo_completed, "EBR stays safe: T1 finishes");
        assert_eq!(out.violations, 0);
    }

    #[test]
    fn leak_sacrifices_robustness() {
        let out = run_figure1(Box::new(SimLeak), 100);
        assert_eq!(out.sacrificed, Sacrificed::Robustness);
        assert!(out.peak_retired >= 100);
    }

    #[test]
    fn hp_sacrifices_applicability() {
        let out = run_figure1(Box::new(SimHp::new(2, 3)), 100);
        assert_eq!(out.sacrificed, Sacrificed::Applicability, "{out}");
        assert!(out.violations > 0);
        assert!(
            out.peak_retired <= 16,
            "HP keeps the footprint bounded: {}",
            out.peak_retired
        );
        assert!(!out.solo_completed, "stopped at the unsafe access");
    }

    #[test]
    fn he_and_ibr_sacrifice_applicability() {
        for (name, out) in [
            ("HE", run_figure1(Box::new(SimHe::new(2, 3)), 100)),
            ("IBR", run_figure1(Box::new(SimIbr::new(2)), 100)),
        ] {
            assert_eq!(out.sacrificed, Sacrificed::Applicability, "{name}: {out}");
            assert!(out.violations > 0, "{name}");
        }
    }

    #[test]
    fn vbr_sacrifices_easy_integration() {
        let out = run_figure1(Box::new(SimVbr::new()), 100);
        assert_eq!(out.sacrificed, Sacrificed::EasyIntegration, "{out}");
        assert!(out.rollbacks > 0);
        assert_eq!(out.violations, 0, "VBR never violates Def 4.2");
        assert_eq!(out.peak_retired, 0, "retire is reclaim");
        assert!(out.solo_completed, "T1 finishes after rolling back");
    }

    #[test]
    fn nbr_sacrifices_easy_integration() {
        let out = run_figure1(Box::new(SimNbr::new(2, 1)), 100);
        assert_eq!(out.sacrificed, Sacrificed::EasyIntegration, "{out}");
        assert!(out.rollbacks > 0);
        assert_eq!(out.violations, 0);
        assert!(out.peak_retired <= 4, "neutralization keeps it bounded");
        assert!(out.solo_completed);
    }

    #[test]
    fn robustness_observations_classify_ebr_not_robust() {
        let obs = figure1_observations(|| Box::new(SimEbr::new(2)), &[64, 256, 1024]);
        let report = classify(&obs);
        assert_eq!(report.verdict, RobustnessVerdict::NotRobust, "{report}");
    }

    #[test]
    fn robustness_observations_classify_nbr_robust() {
        let obs = figure1_observations(|| Box::new(SimNbr::new(2, 1)), &[64, 256, 1024]);
        let report = classify(&obs);
        assert_eq!(report.verdict, RobustnessVerdict::Robust, "{report}");
    }

    #[test]
    fn measured_matrix_respects_the_theorem() {
        let m = measured_matrix(256);
        println!("{m}");
        m.check_theorem().expect("no scheme may beat Theorem 6.1");
        assert_eq!(m.len(), 7);
        // Every scheme achieved at least... its two expected properties:
        for row in m.rows() {
            assert!(
                row.property_count() <= 2,
                "{}: {} properties",
                row.scheme,
                row.property_count()
            );
        }
    }

    #[test]
    fn traced_figure1_logs_every_scheme() {
        for scheme in crate::schemes::all_schemes(2) {
            let name = scheme.name();
            // A cap big enough that nothing is trimmed: the counts
            // below are exact.
            let rec = era_obs::Recorder::with_max_retained(4, 1 << 16);
            let out = run_figure1_traced(scheme, 32, &rec);
            let log = rec.drain();
            assert!(!log.events.is_empty(), "{name}: traced run must log");
            assert!(log.is_time_ordered(), "{name}");
            assert_eq!(log.trimmed, 0, "{name}: cap sized for the run");
            // Every phase transition of the construction is on record.
            let phases: Vec<u64> = log.with_hook(Hook::Phase).map(|e| e.a).collect();
            assert_eq!(phases, vec![0, 1, 2, 3, 4, 5], "{name}");
            // Footprint samples flowed through (churn samples once per
            // round plus the stage-(c) sample).
            assert_eq!(log.with_hook(Hook::Sample).count(), 33, "{name}");
            // Oracle checks ran; violations in the trace match the
            // outcome's count (the ring is large enough not to drop).
            assert!(log.with_hook(Hook::OracleCheck).count() > 0, "{name}");
            assert_eq!(
                log.with_hook(Hook::OracleViolation).count(),
                out.violations,
                "{name}"
            );
            // Schemes that sacrifice easy integration logged roll-backs.
            assert_eq!(
                log.with_hook(Hook::Rollback).count() > 0,
                out.rollbacks > 0,
                "{name}"
            );
        }
    }

    #[test]
    fn outcome_display_is_informative() {
        let out = run_figure1(Box::new(SimEbr::new(2)), 16);
        let s = out.to_string();
        assert!(s.contains("EBR"));
        assert!(s.contains("sacrificed=robustness"));
    }
}
