//! The built-in campaign: named, seeded scenarios covering the
//! adversities the ERA stack claims to survive (EXPERIMENTS E14).
//!
//! Every spec here is plain data — `scenarios --list` prints the
//! names, `scenarios --scenario NAME` runs one, and the same spec can
//! be exported with [`ScenarioSpec::to_json`], edited, and replayed
//! via `--spec FILE`. Bounds are calibrated against the workspace's
//! default scheme thresholds with generous margins, so verdicts are
//! stable across machines: the invariants compare exact scheme
//! counters, not timing-dependent samples.

use crate::spec::{ChaosSpec, PhaseSpec, ScenarioSpec};

/// Base spec shared by the campaign: two reclaimer domains, the
/// navigator's default budgets, and a Def-4.2 bound sized so robust
/// schemes clear it ~5× under while a stalled EBR blows through it
/// ~5× over.
fn base(name: &str, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        seed,
        shards: 2,
        soft: 512,
        hard: 2048,
        bound: 2000,
        prefill: 256,
        chaos: None,
        phases: Vec::new(),
    }
}

/// Read-mostly traffic shifts into a write storm and back — the
/// retire rate jumps an order of magnitude mid-run and the store must
/// ride it without residue.
fn phase_shift() -> ScenarioSpec {
    let mut s = base("phase-shift", 0xE5A_0001);
    let read_mostly = PhaseSpec {
        reads: 95,
        writes: 5,
        removes: 0,
        ..PhaseSpec::churn("read-mostly")
    };
    s.phases = vec![
        read_mostly.clone(),
        PhaseSpec {
            ops_per_thread: 10_000,
            ..PhaseSpec::churn("write-storm")
        },
        PhaseSpec {
            label: "read-mostly-again".into(),
            ..read_mostly
        },
    ];
    s
}

/// A zipfian hot set (θ 0.99) that keeps moving: rank 0 maps onto
/// `key_lo`, so sliding the window between phases relocates the
/// contended keys under concurrent churn.
fn hot_key_storm() -> ScenarioSpec {
    let mut s = base("hot-key-storm", 0xE5A_0002);
    s.phases = (0..3)
        .map(|i| PhaseSpec {
            label: format!("hotset-{i}"),
            theta_bp: 9900,
            key_lo: i * 2048,
            key_hi: i * 2048 + 4096,
            ops_per_thread: 6_000,
            ..PhaseSpec::churn("")
        })
        .collect();
    s
}

/// The live key range grows 32× and then collapses below where it
/// started — mass inserts followed by mass removals, the
/// retire-heaviest shape churn can take.
fn range_breathing() -> ScenarioSpec {
    let mut s = base("range-breathing", 0xE5A_0003);
    s.phases = [256u64, 4096, 8192, 512]
        .iter()
        .enumerate()
        .map(|(i, &hi)| PhaseSpec {
            label: format!("range-{hi}"),
            key_hi: hi,
            ops_per_thread: if i == 3 { 10_000 } else { 5_000 },
            ..PhaseSpec::churn("")
        })
        .collect();
    s
}

/// 16 worker threads on a machine with fewer cores: every protected
/// region gets preempted mid-flight, the adversarial schedule Def 4.2
/// quantifies over arising naturally.
fn oversubscribed() -> ScenarioSpec {
    let mut s = base("oversubscribed", 0xE5A_0004);
    s.phases = vec![PhaseSpec {
        threads: 16,
        ops_per_thread: 2_000,
        key_hi: 2048,
        ..PhaseSpec::churn("oversubscribed-churn")
    }];
    s
}

/// The headline: a reader stalls inside a protected region with the
/// navigator **off** while churn hammers its shard. Robust schemes
/// keep `retired_peak` under the bound regardless; EBR must blow
/// through it (the `blowout-visible` invariant asserts the theorem's
/// negative direction) and recover only after the epilogue heal +
/// drain.
fn stalled_reader_blowout() -> ScenarioSpec {
    let mut s = base("stalled-reader-blowout", 0xE5A_0005);
    s.prefill = 512;
    s.phases = vec![
        PhaseSpec {
            navigator: false,
            key_hi: 2048,
            ..PhaseSpec::churn("warm")
        },
        PhaseSpec {
            label: "stall-storm".into(),
            navigator: false,
            stall_shard: Some(0),
            key_hi: 2048,
            ops_per_thread: 20_000,
            ..PhaseSpec::churn("")
        },
    ];
    s
}

/// A seeded chaos plan (thread deaths while pinned, stalls, delayed
/// flushes, refused registrations, slot exhaustion…) fires inside
/// phase 2 on shard 0 while both shards keep serving.
fn chaos_storm() -> ScenarioSpec {
    let mut s = base("chaos-storm", 0xE5A_0006);
    s.chaos = Some(ChaosSpec {
        shard: 0,
        seed: 0xC4A05,
        faults: 10,
        at_phase: 1,
    });
    s.phases = vec![
        PhaseSpec::churn("calm"),
        PhaseSpec {
            ops_per_thread: 10_000,
            ..PhaseSpec::churn("faulted")
        },
        PhaseSpec::churn("aftermath"),
    ];
    s
}

/// The navigator's budgets are slashed mid-run under a write-heavy
/// mix: admission control must visibly shed
/// (`sheds-under-pressure`), then the restored budgets must let the
/// store return to normal service.
fn budget_squeeze() -> ScenarioSpec {
    let mut s = base("budget-squeeze", 0xE5A_0007);
    s.phases = vec![
        PhaseSpec::churn("normal"),
        // Quarantining shard 0 sheds every write to it from the first
        // operation — deterministic on any core count, where
        // Degrading-path sheds depend on navigator tick timing. The
        // slashed budgets keep the shard quarantined longer (recovery
        // needs the footprint below half the soft budget) and squeeze
        // shard 1 the tick-dependent way on top.
        PhaseSpec {
            label: "squeezed".into(),
            reads: 10,
            writes: 60,
            removes: 30,
            budgets: Some((8, 64)),
            quarantine_shard: Some(0),
            threads: 8,
            key_hi: 512,
            ops_per_thread: 6_000,
            ..PhaseSpec::churn("")
        },
        PhaseSpec::churn("restored"),
    ];
    s
}

/// The store serves real TCP traffic mid-scenario: an in-process
/// `era-net` server (its workers stepping the navigator) with
/// pipelined client connections, framed by local warm-up and
/// cool-down phases.
fn net_storm() -> ScenarioSpec {
    let mut s = base("net-storm", 0xE5A_0008);
    s.phases = vec![
        PhaseSpec::churn("warm"),
        PhaseSpec {
            label: "serve".into(),
            serve_net: true,
            ops_per_thread: 4_000,
            ..PhaseSpec::churn("")
        },
        PhaseSpec::churn("cooldown"),
    ];
    s
}

/// Everything at once: oversubscribed zipfian churn, a stalled reader,
/// and the navigator **on** — non-robust schemes sawtooth past the
/// bound between neutralizations, robust schemes never approach it.
fn mixed_adversary() -> ScenarioSpec {
    let mut s = base("mixed-adversary", 0xE5A_0009);
    s.bound = 1500;
    s.phases = vec![
        PhaseSpec::churn("warm"),
        PhaseSpec {
            label: "adversary".into(),
            theta_bp: 9900,
            threads: 8,
            ops_per_thread: 10_000,
            key_hi: 4096,
            stall_shard: Some(0),
            ..PhaseSpec::churn("")
        },
    ];
    s
}

/// The whole campaign, in run order.
pub fn all() -> Vec<ScenarioSpec> {
    vec![
        phase_shift(),
        hot_key_storm(),
        range_breathing(),
        oversubscribed(),
        stalled_reader_blowout(),
        chaos_storm(),
        budget_squeeze(),
        net_storm(),
        mixed_adversary(),
    ]
}

/// The CI smoke subset: the headline blowout, a workload shift, and
/// the admission-control squeeze — one scenario per invariant family.
pub const SMOKE: [&str; 3] = ["phase-shift", "stalled-reader-blowout", "budget-squeeze"];

/// Looks a campaign scenario up by name.
pub fn by_name(name: &str) -> Option<ScenarioSpec> {
    all().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_campaign_spec_validates_and_round_trips() {
        let specs = all();
        assert!(specs.len() >= 8, "campaign must stay ≥ 8 scenarios");
        for spec in &specs {
            assert_eq!(spec.validate(), Ok(()), "{}", spec.name);
            let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(&back, spec, "{} must round-trip", spec.name);
        }
    }

    #[test]
    fn names_are_unique_and_smoke_subset_resolves() {
        let specs = all();
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate scenario name");
        for name in SMOKE {
            assert!(by_name(name).is_some(), "smoke scenario {name} missing");
        }
        assert!(by_name("no-such-scenario").is_none());
    }

    #[test]
    fn headline_scenario_shapes_the_theorem_experiment() {
        let s = by_name("stalled-reader-blowout").unwrap();
        assert!(
            s.phases
                .iter()
                .any(|p| p.stall_shard.is_some() && !p.navigator),
            "the blowout needs an un-policed stall"
        );
        let squeeze = by_name("budget-squeeze").unwrap();
        assert!(squeeze
            .phases
            .iter()
            .any(|p| p.budgets.is_some_and(|(soft, _)| soft < squeeze.soft)));
        let net = by_name("net-storm").unwrap();
        assert!(net.phases.iter().any(|p| p.serve_net));
        let chaos = by_name("chaos-storm").unwrap();
        assert!(chaos.chaos_plan().is_some());
    }
}
