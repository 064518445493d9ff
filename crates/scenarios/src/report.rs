//! JSON-lines records of scenario runs.
//!
//! One line per `(scenario, scheme)` run, emitted with the
//! workspace's one writer. The line carries a top-level
//! `"verdict":"pass"|"fail"` (the key `era-view --verdicts` gates CI
//! on), the evaluated invariants, per-phase summaries, the focus
//! shard's footprint curve, and the embedded spec — a record is
//! enough to replay the run that produced it.

use era_obs::report::JsonObject;
use era_smr::SchemeKind;

use crate::run::ScenarioOutcome;

/// A rendered record: the JSON line plus the handful of fields the
/// CLI's summary table wants without re-parsing.
#[derive(Debug, Clone)]
pub struct ScenarioRunRecord {
    /// The scenario's name.
    pub scenario: String,
    /// The scheme under test.
    pub scheme: SchemeKind,
    /// Whether every invariant held.
    pub pass: bool,
    /// Names of the invariants that failed (empty on pass).
    pub failed: Vec<&'static str>,
    /// The JSON line.
    pub line: String,
}

impl ScenarioRunRecord {
    /// Renders `outcome` into its record.
    pub fn collect(outcome: &ScenarioOutcome) -> ScenarioRunRecord {
        let mut phases = String::from("[");
        for (i, p) in outcome.phases.iter().enumerate() {
            if i > 0 {
                phases.push(',');
            }
            let healths: Vec<u64> = p.healths.iter().map(|h| *h as u64).collect();
            phases.push_str(
                &JsonObject::new()
                    .str("label", &p.label)
                    .u64("ops", p.ops)
                    .u64("shed", p.shed)
                    .u64("elapsed_ms", p.elapsed_ms)
                    .u64("peak", p.peak)
                    .u64("retired_end", p.retired_end)
                    .u64("restarts", p.restarts)
                    .u64_array("healths", &healths)
                    .finish(),
            );
        }
        phases.push(']');

        let mut invariants = String::from("[");
        for (i, inv) in outcome.invariants.iter().enumerate() {
            if i > 0 {
                invariants.push(',');
            }
            invariants.push_str(&inv.to_json());
        }
        invariants.push(']');

        let mut obj = JsonObject::new()
            .str("record", "scenario")
            .str("scenario", &outcome.spec.name)
            .str("scheme", outcome.scheme.name())
            .str("verdict", if outcome.pass { "pass" } else { "fail" })
            .bool("robust", outcome.robust)
            .u64("seed", outcome.spec.seed)
            .u64("bound", outcome.spec.bound as u64)
            .u64("elapsed_ms", outcome.elapsed_ms)
            .bool("drained", outcome.drained)
            .u64("final_retired", outcome.final_retired)
            .u64("transitions", outcome.transitions)
            .u64("neutralizations", outcome.neutralizations)
            .u64("sheds", outcome.sheds)
            .u64("adoptions", outcome.adoptions)
            .u64("trace_dropped", outcome.trace_dropped)
            .raw("phases", &phases)
            .raw("invariants", &invariants)
            .pairs("curve", &outcome.footprint_curve);
        if let Some(path) = &outcome.flight_dump {
            obj = obj.str("flight_dump", &path.display().to_string());
        }
        let line = obj.raw("spec", &outcome.spec.to_json()).finish();

        ScenarioRunRecord {
            scenario: outcome.spec.name.clone(),
            scheme: outcome.scheme,
            pass: outcome.pass,
            failed: outcome
                .invariants
                .iter()
                .filter(|o| !o.ok)
                .map(|o| o.name)
                .collect(),
            line,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::InvariantOutcome;
    use crate::run::PhaseOutcome;
    use crate::spec::{PhaseSpec, ScenarioSpec};
    use era_chaos::FaultPlan;
    use era_kv::ShardHealth;
    use era_obs::Json;

    fn outcome(pass: bool) -> ScenarioOutcome {
        ScenarioOutcome {
            spec: ScenarioSpec {
                name: "demo".into(),
                seed: 9,
                shards: 1,
                soft: 512,
                hard: 2048,
                bound: 2048,
                prefill: 0,
                chaos: None,
                phases: vec![PhaseSpec::churn("only")],
            },
            scheme: SchemeKind::Ebr,
            robust: false,
            phases: vec![PhaseOutcome {
                label: "only".into(),
                ops: 100,
                shed: 3,
                elapsed_ms: 12,
                peak: 40,
                retired_end: 5,
                healths: vec![ShardHealth::Robust],
                restarts: 0,
            }],
            invariants: vec![InvariantOutcome {
                name: "recovers-after-drain",
                ok: pass,
                observed: 0,
                limit: 256,
            }],
            pass,
            footprint_curve: vec![(1, 2), (3, 4)],
            transitions: 1,
            neutralizations: 0,
            sheds: 3,
            adoptions: 0,
            trace_dropped: 0,
            drained: true,
            final_retired: 0,
            elapsed_ms: 12,
            flight_dump: None,
        }
    }

    #[test]
    fn record_carries_verdict_invariants_and_embedded_spec() {
        let rec = ScenarioRunRecord::collect(&outcome(true));
        assert!(rec.pass);
        assert!(rec.failed.is_empty());
        assert!(rec.line.contains("\"verdict\":\"pass\""), "{}", rec.line);
        assert!(rec.line.contains("\"scenario\":\"demo\""));
        assert!(rec.line.contains("\"curve\":[[1,2],[3,4]]"));
        // The embedded spec must itself round-trip.
        let line = Json::parse(&rec.line).unwrap();
        let spec = ScenarioSpec::from_value(line.get("spec").unwrap()).unwrap();
        assert_eq!(spec, outcome(true).spec);
    }

    /// The shipped artifacts through the one reader: every line
    /// parses, and each embedded spec / plan maps back to exactly the
    /// text it was embedded as (both writers put it last on the line).
    #[test]
    fn baseline_artifacts_parse_and_their_embedded_records_round_trip() {
        let scenarios = include_str!("../../../BENCH_scenarios_baseline.json");
        for line in scenarios.lines() {
            let rec = Json::parse(line).unwrap();
            let spec = ScenarioSpec::from_value(rec.get("spec").unwrap()).unwrap();
            let embedded = format!(",\"spec\":{}}}", spec.to_json());
            assert!(line.ends_with(&embedded), "{}", spec.name);
        }
        let chaos = include_str!("../../../BENCH_chaos_baseline.json");
        for line in chaos.lines() {
            let rec = Json::parse(line).unwrap();
            let plan = FaultPlan::from_value(rec.get("plan").unwrap()).unwrap();
            let embedded = format!(",\"plan\":{}}}", plan.to_json());
            assert!(line.ends_with(&embedded), "{line}");
        }
        assert!(scenarios.lines().count() > 0 && chaos.lines().count() > 0);
    }

    #[test]
    fn failing_record_names_the_failed_invariants() {
        let rec = ScenarioRunRecord::collect(&outcome(false));
        assert!(!rec.pass);
        assert_eq!(rec.failed, vec!["recovers-after-drain"]);
        assert!(rec.line.contains("\"verdict\":\"fail\""));
        assert!(rec.line.contains("\"ok\":false"));
    }
}
