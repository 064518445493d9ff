//! `run_scenario` end to end on a tiny spec, and the checked-in E8
//! spec files against the parser.

use era_chaos::{ChaosSmr, FaultAction, FaultPlan};
use era_kv::KvStore;
use era_scenarios::run::{kv_config, run_scenario, scheme_capacity, RunOptions};
use era_scenarios::{PhaseSpec, ScenarioOutcome, ScenarioSpec};
use era_smr::{ebr::Ebr, hp::Hp, Smr};

fn tiny() -> ScenarioSpec {
    ScenarioSpec {
        name: "tiny".into(),
        seed: 42,
        shards: 2,
        soft: 512,
        hard: 2048,
        bound: 2048,
        prefill: 128,
        chaos: None,
        phases: vec![PhaseSpec {
            key_hi: 256,
            threads: 2,
            ops_per_thread: 500,
            ..PhaseSpec::churn("churn")
        }],
    }
}

fn run<S: Smr>(make: impl Fn(usize) -> S) -> ScenarioOutcome {
    let spec = tiny();
    let schemes: Vec<S> = (0..spec.shards)
        .map(|_| make(scheme_capacity(&spec)))
        .collect();
    let store = KvStore::new(&schemes, kv_config(&spec));
    run_scenario(&store, &spec, &RunOptions::default())
}

/// Every op is accounted for, the epilogue drains, the invariants hold
/// — and a second run of the same spec agrees on all of it.
fn check(run: impl Fn() -> ScenarioOutcome) {
    let (a, b) = (run(), run());
    assert_eq!(a.phases.len(), 1);
    assert_eq!(a.phases[0].ops, 2 * 500);
    assert!(a.drained, "{a:?}");
    assert!(a.pass, "{a:?}");
    assert_eq!(a.phases[0].ops, b.phases[0].ops);
    let verdicts = |o: &ScenarioOutcome| -> Vec<(&'static str, bool)> {
        o.invariants.iter().map(|i| (i.name, i.ok)).collect()
    };
    assert_eq!(verdicts(&a), verdicts(&b));
}

#[test]
fn tiny_spec_on_ebr_completes_drains_and_repeats() {
    check(|| run(Ebr::new));
}

#[test]
fn tiny_spec_on_hp_completes_drains_and_repeats() {
    check(|| run(|cap| Hp::new(cap, 3)));
}

/// The phase's load waits for its stall reader to pin, so a reader
/// that is refused a slot must release the load, not hold it back: a
/// registration refusal armed during prefill lands on the reader,
/// which is the phase's first registration, and the phase still runs
/// every op and drains.
#[test]
fn a_refused_stall_reader_does_not_hold_the_phase_back() {
    let mut spec = tiny();
    spec.shards = 1;
    spec.phases[0].threads = 1;
    spec.phases[0].stall_shard = Some(0);
    let plan = FaultPlan::new(1, vec![FaultAction::FailRegister { at_op: 1, count: 1 }]);
    let schemes = vec![ChaosSmr::new(Ebr::new(scheme_capacity(&spec)), plan)];
    let store = KvStore::new(&schemes, kv_config(&spec));
    let outcome = run_scenario(&store, &spec, &RunOptions::default());
    assert_eq!(schemes[0].faults_injected(), 1, "the refusal was armed");
    assert_eq!(outcome.phases[0].ops, 500);
    assert!(outcome.drained, "{outcome:?}");
}

#[test]
fn checked_in_e8_specs_parse_and_round_trip() {
    for text in [
        include_str!("../specs/e8-navigator-on.json"),
        include_str!("../specs/e8-navigator-off.json"),
    ] {
        let spec = ScenarioSpec::from_json(text).expect("checked-in spec parses");
        assert_eq!(spec.validate(), Ok(()));
        assert_eq!(ScenarioSpec::from_json(&spec.to_json()), Ok(spec));
    }
}
