//! Per-scheme robustness invariants, evaluated at end-of-run.
//!
//! The ERA theorem's robustness axis (paper Def. 4.2) says a robust
//! scheme bounds the memory an adversarial schedule can trap: stalled
//! or dead readers may hold *some* retired nodes hostage, but the
//! total stays within a bound independent of how long the stall lasts.
//! A non-robust scheme (EBR) has no such bound — one stalled
//! reader freezes the epoch and the footprint grows with every retire.
//!
//! A scenario run turns that statement into executable checks over the
//! schemes' exact counters (`retired_peak` is a cumulative high-water
//! mark maintained by every scheme, so the checks are deterministic —
//! no sampling races):
//!
//! | invariant              | applies to           | passes when |
//! |------------------------|----------------------|-------------|
//! | `bounded-footprint`    | weakly robust schemes | every shard's `retired_peak` ≤ spec `bound` |
//! | `blowout-visible`      | the rest + a stalled phase | some shard's `retired_peak` > spec `bound` |
//! | `recovers-after-drain` | all                  | final `retired_now` ≤ soft budget ÷ 2 after heal + drain |
//! | `healthy-at-end`       | all                  | every shard classified `Robust` at end-of-run |
//! | `sheds-under-pressure` | runs with a tightened-budget write phase | at least one shed observed |
//!
//! Which row applies is the scheme's class in the one registry,
//! [`SchemeKind::class`]: HP, HE and NBR are robust (Def. 5.1) and IBR
//! weakly robust (Def. 5.2), so all four are held to the bound; EBR
//! bounds nothing. VBR is robust per the paper but arena-based — it
//! does not implement the node-granularity `Smr` trait, so campaigns
//! cover the five reclaiming schemes ([`SchemeKind::RECLAIMING`]) and
//! DESIGN §3.13 records the exclusion.

use era_kv::ShardHealth;
use era_obs::report::JsonObject;
use era_smr::SchemeKind;

/// One evaluated invariant: what was measured against what limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantOutcome {
    /// Stable invariant name (table in the module docs).
    pub name: &'static str,
    /// Whether the invariant held.
    pub ok: bool,
    /// The measured value (peak, residue, worst health, or shed
    /// count — see the invariant's definition).
    pub observed: u64,
    /// The limit it was compared against.
    pub limit: u64,
}

impl InvariantOutcome {
    /// Serializes the outcome as a JSON object fragment.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .str("name", self.name)
            .bool("ok", self.ok)
            .u64("observed", self.observed)
            .u64("limit", self.limit)
            .finish()
    }
}

/// Everything the end-of-run evaluation needs, already folded down
/// from per-shard scheme stats by the executor.
#[derive(Debug, Clone)]
pub struct EvalInput {
    /// The scheme under test.
    pub scheme: SchemeKind,
    /// The spec's Def-4.2-style footprint bound.
    pub bound: u64,
    /// The spec's base soft budget (recovery residue limit is half).
    pub soft: u64,
    /// Max over shards of `retired_peak` at end-of-run.
    pub max_peak: u64,
    /// Max over shards of `retired_now` after heal + drain.
    pub final_retired: u64,
    /// End-of-run navigator classification of every shard.
    pub healths: Vec<ShardHealth>,
    /// Total writes shed across the whole run.
    pub sheds: u64,
    /// Whether any phase pinned a stalled reader.
    pub had_stall: bool,
    /// Whether any write-carrying phase tightened budgets below the
    /// scenario's base budgets.
    pub had_squeeze: bool,
}

/// Evaluates every applicable invariant. The returned list is what the
/// record serializes; the run verdict is the conjunction of `ok`s.
pub fn evaluate(input: &EvalInput) -> Vec<InvariantOutcome> {
    let mut out = Vec::new();
    if input.scheme.class().is_weakly_robust() {
        out.push(InvariantOutcome {
            name: "bounded-footprint",
            ok: input.max_peak <= input.bound,
            observed: input.max_peak,
            limit: input.bound,
        });
    } else if input.had_stall {
        // The theorem's negative direction, asserted: a non-robust
        // scheme that *failed* to blow the bound under a stalled
        // reader means the adversary (or the bound) is miscalibrated
        // and the headline experiment proves nothing.
        out.push(InvariantOutcome {
            name: "blowout-visible",
            ok: input.max_peak > input.bound,
            observed: input.max_peak,
            limit: input.bound,
        });
    }
    let residue_limit = (input.soft / 2).max(1);
    out.push(InvariantOutcome {
        name: "recovers-after-drain",
        ok: input.final_retired <= residue_limit,
        observed: input.final_retired,
        limit: residue_limit,
    });
    let worst = input
        .healths
        .iter()
        .map(|h| *h as u64)
        .max()
        .unwrap_or(ShardHealth::Quarantined as u64);
    out.push(InvariantOutcome {
        name: "healthy-at-end",
        ok: worst == ShardHealth::Robust as u64,
        observed: worst,
        limit: ShardHealth::Robust as u64,
    });
    if input.had_squeeze {
        out.push(InvariantOutcome {
            name: "sheds-under-pressure",
            ok: input.sheds > 0,
            observed: input.sheds,
            limit: 1,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(scheme: SchemeKind) -> EvalInput {
        EvalInput {
            scheme,
            bound: 2048,
            soft: 512,
            max_peak: 300,
            final_retired: 0,
            healths: vec![ShardHealth::Robust, ShardHealth::Robust],
            sheds: 0,
            had_stall: true,
            had_squeeze: false,
        }
    }

    #[test]
    fn robust_scheme_passes_within_bound_and_fails_past_it() {
        let input = base(SchemeKind::Hp);
        let out = evaluate(&input);
        let bf = out.iter().find(|o| o.name == "bounded-footprint").unwrap();
        assert!(bf.ok);
        assert!(!out.iter().any(|o| o.name == "blowout-visible"));
        let mut blown = base(SchemeKind::Ibr);
        blown.max_peak = 5_000;
        let out = evaluate(&blown);
        assert!(
            !out.iter()
                .find(|o| o.name == "bounded-footprint")
                .unwrap()
                .ok
        );
    }

    #[test]
    fn non_robust_scheme_must_visibly_blow_the_bound_when_stalled() {
        let mut input = base(SchemeKind::Ebr);
        input.max_peak = 9_000;
        let out = evaluate(&input);
        let bv = out.iter().find(|o| o.name == "blowout-visible").unwrap();
        assert!(bv.ok, "a big peak under stall is the *expected* outcome");
        input.max_peak = 100;
        let out = evaluate(&input);
        assert!(
            !out.iter().find(|o| o.name == "blowout-visible").unwrap().ok,
            "staying under the bound means the adversary is miscalibrated"
        );
        // Without a stall the negative invariant is inapplicable.
        input.had_stall = false;
        assert!(!evaluate(&input).iter().any(|o| o.name == "blowout-visible"));
    }

    #[test]
    fn recovery_health_and_shed_invariants() {
        let mut input = base(SchemeKind::Hp);
        input.final_retired = 10_000;
        input.healths = vec![ShardHealth::Robust, ShardHealth::Quarantined];
        input.had_squeeze = true;
        let out = evaluate(&input);
        assert!(
            !out.iter()
                .find(|o| o.name == "recovers-after-drain")
                .unwrap()
                .ok
        );
        assert!(!out.iter().find(|o| o.name == "healthy-at-end").unwrap().ok);
        assert!(
            !out.iter()
                .find(|o| o.name == "sheds-under-pressure")
                .unwrap()
                .ok
        );
        input.final_retired = 5;
        input.healths = vec![ShardHealth::Robust];
        input.sheds = 12;
        let out = evaluate(&input);
        assert!(out.iter().all(|o| o.ok));
        let json = out[0].to_json();
        assert!(json.contains("\"ok\":true"), "{json}");
    }
}
