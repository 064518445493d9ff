//! Serializable scenario specifications: what to throw at the store,
//! phase by phase, and when.
//!
//! A [`ScenarioSpec`] follows the same replayability discipline as the
//! chaos [`FaultPlan`]: plain data, generated or hand-written, emitted
//! as one JSON line by [`era_obs::report::JsonObject`] and read back
//! through [`era_obs::Json`], the workspace's one writer and one
//! reader. A campaign record embeds the spec verbatim, so every verdict
//! can be regenerated from the record alone.
//!
//! Floats are deliberately absent from the wire format: the zipfian
//! skew travels as basis points (`theta_bp`, 9900 = θ 0.99) so every
//! field is an exact integer and round-trips are byte-exact.

use era_chaos::FaultPlan;
use era_kv::{KeyDist, KvMix};
use era_obs::report::JsonObject;
use era_obs::{Json, JsonError};

/// One timeline segment of a scenario: a workload shape plus the
/// adversities active while it runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpec {
    /// Phase label for records and rendered verdicts.
    pub label: String,
    /// Percent `get` (reads + writes + removes must sum to 100).
    pub reads: u32,
    /// Percent `put`.
    pub writes: u32,
    /// Percent `remove` — the retire-generating share of the mix.
    pub removes: u32,
    /// Zipfian skew in basis points; 0 selects the uniform
    /// distribution (9900 = YCSB's default θ = 0.99). Rank 0 — the
    /// hottest key — maps onto `key_lo`, so sliding the key window
    /// between phases moves the hot set.
    pub theta_bp: u64,
    /// Keys are drawn from `[key_lo, key_hi)`; consecutive phases
    /// grow, shrink, or slide the window.
    pub key_lo: u64,
    /// Exclusive upper key bound (must exceed `key_lo`).
    pub key_hi: u64,
    /// Worker threads (or TCP client connections when
    /// [`PhaseSpec::serve_net`] is set) for this phase.
    pub threads: usize,
    /// Operations per worker in this phase.
    pub ops_per_thread: usize,
    /// Pin one adversarial stalled reader inside this shard's domain
    /// for the whole phase (the Theorem 6.1 adversary: it restarts
    /// when neutralized and promptly stalls again).
    pub stall_shard: Option<usize>,
    /// Quarantine this shard when the phase starts (the post-death
    /// protocol, triggered administratively): every write to it sheds
    /// until the navigator observes the footprint drained below half
    /// the soft budget and returns it to `Robust` — a deterministic
    /// admission-control event, unlike tick-timing-dependent
    /// `Degrading` sheds.
    pub quarantine_shard: Option<usize>,
    /// Run a navigator watchdog thread during this phase. Off, the
    /// store never degrades — the baseline that lets a non-robust
    /// scheme's footprint grow without interference.
    pub navigator: bool,
    /// Serve this phase through an in-process `era-net` TCP server
    /// (workers registered against the same store) with
    /// [`PhaseSpec::threads`] pipelining client connections; the
    /// server's own watchdog replaces the phase navigator thread.
    pub serve_net: bool,
    /// Navigator budget override `(soft, hard)` applied when the phase
    /// starts; `None` re-applies the scenario's base budgets.
    pub budgets: Option<(usize, usize)>,
}

impl PhaseSpec {
    /// A neutral template phase: uniform churn, navigator on, no
    /// adversary. Scenario builders tweak the fields they care about.
    pub fn churn(label: &str) -> PhaseSpec {
        PhaseSpec {
            label: label.to_string(),
            reads: 40,
            writes: 30,
            removes: 30,
            theta_bp: 0,
            key_lo: 0,
            key_hi: 1024,
            threads: 4,
            ops_per_thread: 5_000,
            stall_shard: None,
            quarantine_shard: None,
            navigator: true,
            serve_net: false,
            budgets: None,
        }
    }

    /// The operation mix as `era-kv`'s workload type.
    pub fn mix(&self) -> KvMix {
        KvMix {
            reads: self.reads,
            writes: self.writes,
            removes: self.removes,
        }
    }

    /// The key distribution as `era-kv`'s workload type.
    pub fn dist(&self) -> KeyDist {
        if self.theta_bp == 0 {
            KeyDist::Uniform
        } else {
            KeyDist::Zipfian {
                theta: self.theta_bp as f64 / 10_000.0,
            }
        }
    }

    /// Total operations this phase issues across its workers.
    pub fn total_ops(&self) -> u64 {
        self.threads as u64 * self.ops_per_thread as u64
    }
}

/// Mid-run fault injection: wrap one shard's scheme in
/// [`era_chaos::ChaosSmr`] with a seed-generated plan re-anchored
/// ([`FaultPlan::offset`]) to fire inside the chosen phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    /// The shard whose scheme is wrapped.
    pub shard: usize,
    /// Plan generation seed ([`FaultPlan::generate`]).
    pub seed: u64,
    /// Number of injections to generate.
    pub faults: usize,
    /// Phase index the plan is aimed at (its horizon is that phase's
    /// per-shard op share; earlier phases' ops become the offset).
    pub at_phase: usize,
}

/// A named, seeded, fully replayable adversarial campaign scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Stable scenario name (`--scenario` selector, record key).
    pub name: String,
    /// Base RNG seed; phase workers derive their streams from it.
    pub seed: u64,
    /// Independent reclaimer domains (shards).
    pub shards: usize,
    /// Base soft navigator budget (per shard).
    pub soft: usize,
    /// Base hard navigator budget (per shard).
    pub hard: usize,
    /// The Def-4.2-style footprint bound the per-scheme invariants are
    /// stated about: robust schemes must keep every shard's
    /// `retired_peak` at or below it; non-robust schemes must visibly
    /// exceed it in a stalled-reader phase.
    pub bound: usize,
    /// Keys pre-inserted (from key 0 upward) before phase 1.
    pub prefill: usize,
    /// Optional mid-run fault injection.
    pub chaos: Option<ChaosSpec>,
    /// The timeline (at least one phase).
    pub phases: Vec<PhaseSpec>,
}

impl ScenarioSpec {
    /// Checks internal consistency; returns a description of the first
    /// problem found.
    ///
    /// # Errors
    ///
    /// A static message naming the offending field.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.name.is_empty() {
            return Err("scenario name is empty");
        }
        if self.shards == 0 {
            return Err("a scenario needs at least one shard");
        }
        if self.phases.is_empty() {
            return Err("a scenario needs at least one phase");
        }
        if self.hard < self.soft {
            return Err("hard budget below soft budget");
        }
        for p in &self.phases {
            if u64::from(p.reads) + u64::from(p.writes) + u64::from(p.removes) != 100 {
                return Err("phase mix must sum to 100 percent");
            }
            if p.key_hi <= p.key_lo {
                return Err("phase key window is empty");
            }
            if p.threads == 0 || p.ops_per_thread == 0 {
                return Err("phase has no work");
            }
            if p.stall_shard.is_some_and(|s| s >= self.shards) {
                return Err("stall_shard out of range");
            }
            if p.quarantine_shard.is_some_and(|s| s >= self.shards) {
                return Err("quarantine_shard out of range");
            }
            if p.budgets.is_some_and(|(s, h)| h < s) {
                return Err("phase hard budget below soft budget");
            }
        }
        if let Some(c) = self.chaos {
            if c.shard >= self.shards {
                return Err("chaos shard out of range");
            }
            if c.at_phase >= self.phases.len() {
                return Err("chaos at_phase out of range");
            }
            // The in-process net server's worker pool registers once at
            // phase start and cannot absorb chaos registration refusals
            // mid-serve; the combination is rejected rather than flaky.
            if self.phases.iter().any(|p| p.serve_net) {
                return Err("serve_net phases cannot combine with chaos injection");
            }
        }
        Ok(())
    }

    /// Thread capacity each shard's scheme must seat: the widest
    /// phase's workers, plus the stall reader, the prefill context,
    /// the heal spare, and chaos's scratch contexts.
    pub fn capacity_needed(&self) -> usize {
        let widest = self.phases.iter().map(|p| p.threads).max().unwrap_or(1);
        widest + 4
    }

    /// The shard whose footprint curve the record samples: the first
    /// stalled shard, else the chaos target, else shard 0.
    pub fn focus_shard(&self) -> usize {
        self.phases
            .iter()
            .find_map(|p| p.stall_shard)
            .or(self.chaos.map(|c| c.shard))
            .unwrap_or(0)
    }

    /// The generated-and-offset fault plan for [`ScenarioSpec::chaos`],
    /// or `None`. The plan's horizon is the target phase's fair
    /// per-shard op share and its offset is the share of every earlier
    /// phase (plus prefill), so the injections land inside that phase
    /// of the wrapped shard's own op clock.
    pub fn chaos_plan(&self) -> Option<(usize, FaultPlan)> {
        let c = self.chaos?;
        let per_shard = |ops: u64| ops / self.shards as u64;
        let before: u64 = self
            .phases
            .iter()
            .take(c.at_phase)
            .map(|p| per_shard(p.total_ops()))
            .sum::<u64>()
            + per_shard(self.prefill as u64);
        let horizon = per_shard(self.phases[c.at_phase].total_ops()).max(16);
        Some((
            c.shard,
            FaultPlan::generate(c.seed, horizon, c.faults).offset(before),
        ))
    }

    /// Serializes the scenario as one JSON line.
    pub fn to_json(&self) -> String {
        let mut phases = String::from("[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                phases.push(',');
            }
            let mut obj = JsonObject::new()
                .str("label", &p.label)
                .u64("reads", u64::from(p.reads))
                .u64("writes", u64::from(p.writes))
                .u64("removes", u64::from(p.removes))
                .u64("theta_bp", p.theta_bp)
                .u64("key_lo", p.key_lo)
                .u64("key_hi", p.key_hi)
                .u64("threads", p.threads as u64)
                .u64("ops_per_thread", p.ops_per_thread as u64)
                .bool("navigator", p.navigator)
                .bool("serve_net", p.serve_net);
            if let Some(s) = p.stall_shard {
                obj = obj.u64("stall_shard", s as u64);
            }
            if let Some(s) = p.quarantine_shard {
                obj = obj.u64("quarantine_shard", s as u64);
            }
            if let Some((soft, hard)) = p.budgets {
                obj = obj.u64("soft", soft as u64).u64("hard", hard as u64);
            }
            phases.push_str(&obj.finish());
        }
        phases.push(']');
        let mut obj = JsonObject::new()
            .str("name", &self.name)
            .u64("seed", self.seed)
            .u64("shards", self.shards as u64)
            .u64("soft", self.soft as u64)
            .u64("hard", self.hard as u64)
            .u64("bound", self.bound as u64)
            .u64("prefill", self.prefill as u64);
        if let Some(c) = self.chaos {
            obj = obj.raw(
                "chaos",
                &JsonObject::new()
                    .u64("shard", c.shard as u64)
                    .u64("seed", c.seed)
                    .u64("faults", c.faults as u64)
                    .u64("at_phase", c.at_phase as u64)
                    .finish(),
            );
        }
        obj.raw("phases", &phases).finish()
    }

    /// Parses a scenario from its [`ScenarioSpec::to_json`] record
    /// (whitespace and member order are free; unknown fields are
    /// rejected). The parsed spec is re-validated.
    ///
    /// # Errors
    ///
    /// [`JsonError`]: a syntax error with its byte offset, or a shape
    /// error naming the key — an unknown field, a value of the wrong
    /// type or too large for its field, an inconsistent spec.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, JsonError> {
        ScenarioSpec::from_value(&Json::parse(text)?)
    }

    /// [`ScenarioSpec::from_json`] for a spec already parsed as part of
    /// a larger record (the `spec` member of a campaign report line).
    ///
    /// # Errors
    ///
    /// The shape errors of [`ScenarioSpec::from_json`].
    pub fn from_value(value: &Json) -> Result<ScenarioSpec, JsonError> {
        let mut spec = ScenarioSpec {
            name: String::new(),
            seed: 0,
            shards: 1,
            soft: 512,
            hard: 2048,
            bound: 2048,
            prefill: 0,
            chaos: None,
            phases: Vec::new(),
        };
        for (key, v) in value.try_members("scenario")? {
            match key.as_str() {
                "name" => spec.name = v.try_str(key)?.to_string(),
                "seed" => spec.seed = v.try_u64(key)?,
                "shards" => spec.shards = size(v, key)?,
                "soft" => spec.soft = size(v, key)?,
                "hard" => spec.hard = size(v, key)?,
                "bound" => spec.bound = size(v, key)?,
                "prefill" => spec.prefill = size(v, key)?,
                "chaos" => spec.chaos = Some(chaos(v)?),
                "phases" => {
                    let phases = v.try_array(key)?.iter().map(phase);
                    spec.phases = phases.collect::<Result<_, _>>()?;
                }
                _ => return Err(JsonError::shape(format!("unknown scenario field `{key}`"))),
            }
        }
        spec.validate().map_err(JsonError::shape)?;
        Ok(spec)
    }
}

/// A count or index from outside the program, narrowed with a check: a
/// value the field cannot hold is an error naming its key, never a
/// silent truncation.
fn size(v: &Json, key: &str) -> Result<usize, JsonError> {
    usize::try_from(v.try_u64(key)?)
        .map_err(|_| JsonError::shape(format!("`{key}` does not fit in usize")))
}

/// A mix share, narrowed like [`size`].
fn percent(v: &Json, key: &str) -> Result<u32, JsonError> {
    u32::try_from(v.try_u64(key)?)
        .map_err(|_| JsonError::shape(format!("`{key}` does not fit in u32")))
}

fn chaos(value: &Json) -> Result<ChaosSpec, JsonError> {
    let mut c = ChaosSpec {
        shard: 0,
        seed: 0,
        faults: 0,
        at_phase: 0,
    };
    for (key, v) in value.try_members("chaos")? {
        match key.as_str() {
            "shard" => c.shard = size(v, key)?,
            "seed" => c.seed = v.try_u64(key)?,
            "faults" => c.faults = size(v, key)?,
            "at_phase" => c.at_phase = size(v, key)?,
            _ => return Err(JsonError::shape(format!("unknown chaos field `{key}`"))),
        }
    }
    Ok(c)
}

fn phase(value: &Json) -> Result<PhaseSpec, JsonError> {
    let mut ph = PhaseSpec {
        label: String::new(),
        reads: 0,
        writes: 0,
        removes: 0,
        theta_bp: 0,
        key_lo: 0,
        key_hi: 0,
        threads: 1,
        ops_per_thread: 1,
        stall_shard: None,
        quarantine_shard: None,
        navigator: true,
        serve_net: false,
        budgets: None,
    };
    let (mut soft, mut hard) = (None, None);
    for (key, v) in value.try_members("phases[]")? {
        match key.as_str() {
            "label" => ph.label = v.try_str(key)?.to_string(),
            "reads" => ph.reads = percent(v, key)?,
            "writes" => ph.writes = percent(v, key)?,
            "removes" => ph.removes = percent(v, key)?,
            "theta_bp" => ph.theta_bp = v.try_u64(key)?,
            "key_lo" => ph.key_lo = v.try_u64(key)?,
            "key_hi" => ph.key_hi = v.try_u64(key)?,
            "threads" => ph.threads = size(v, key)?,
            "ops_per_thread" => ph.ops_per_thread = size(v, key)?,
            "stall_shard" => ph.stall_shard = Some(size(v, key)?),
            "quarantine_shard" => ph.quarantine_shard = Some(size(v, key)?),
            "navigator" => ph.navigator = v.try_bool(key)?,
            "serve_net" => ph.serve_net = v.try_bool(key)?,
            "soft" => soft = Some(size(v, key)?),
            "hard" => hard = Some(size(v, key)?),
            _ => return Err(JsonError::shape(format!("unknown phase field `{key}`"))),
        }
    }
    match (soft, hard) {
        (Some(s), Some(h)) => ph.budgets = Some((s, h)),
        (None, None) => {}
        _ => return Err(JsonError::shape("phase needs both `soft` and `hard`")),
    }
    Ok(ph)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioSpec {
        ScenarioSpec {
            name: "sample".into(),
            seed: 42,
            shards: 2,
            soft: 512,
            hard: 2048,
            bound: 2048,
            prefill: 128,
            chaos: Some(ChaosSpec {
                shard: 1,
                seed: 7,
                faults: 5,
                at_phase: 1,
            }),
            phases: vec![
                PhaseSpec {
                    label: "warm".into(),
                    reads: 95,
                    writes: 5,
                    removes: 0,
                    ..PhaseSpec::churn("warm")
                },
                PhaseSpec {
                    stall_shard: Some(0),
                    quarantine_shard: Some(1),
                    navigator: false,
                    budgets: Some((64, 256)),
                    theta_bp: 9900,
                    ..PhaseSpec::churn("storm")
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip_is_identity() {
        // `validate` puts no restriction on a name or a label, so the
        // second spec carries everything the writer has to escape.
        let mut escaped = sample();
        escaped.name = "q\" b\\ n\n é".into();
        escaped.phases[1].label = "☃ \"storm\"\\\n\u{1}".into();
        for spec in [sample(), escaped] {
            let json = spec.to_json();
            let back = ScenarioSpec::from_json(&json).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.to_json(), json, "replay record must be stable");
        }
    }

    #[test]
    fn json_accepts_whitespace_and_field_order() {
        let text = r#" { "phases" : [ { "label" : "p" , "reads" : 100 , "writes" : 0 ,
            "removes" : 0 , "key_lo" : 0 , "key_hi" : 8 , "threads" : 1 ,
            "ops_per_thread" : 10 , "navigator" : false , "serve_net" : false ,
            "theta_bp" : 0 } ] , "name" : "ws" , "shards" : 1 , "seed" : 3 } "#;
        let spec = ScenarioSpec::from_json(text).unwrap();
        assert_eq!(spec.name, "ws");
        assert_eq!(spec.seed, 3);
        assert_eq!(spec.phases.len(), 1);
        assert!(!spec.phases[0].navigator);
        assert_eq!(spec.phases[0].dist(), KeyDist::Uniform);
    }

    #[test]
    fn json_rejects_malformed_and_inconsistent_input() {
        for bad in [
            "",
            "{",
            "{\"name\":\"x\"}",                                     // no phases
            "{\"bogus\":1}",                                        // unknown field
            "{\"name\":\"x\",\"phases\":[{\"label\":\"p\"}]}",      // mix sums to 0
            "{\"name\":\"x\",\"phases\":[{\"soft\":1}]}",           // half a budget override
            "{\"name\":\"x\",\"shards\":1,\"phases\":[]} trailing", // trailing input
        ] {
            assert!(ScenarioSpec::from_json(bad).is_err(), "{bad:?} must fail");
        }
        // Outside integers are narrowed with a check: 2^32 + 95 is not
        // 95 percent, and three shares that wrap to 100 are not a mix.
        let with_mix = |mix: &str| {
            let text = r#"{"name":"x","phases":[{"label":"p",MIX,"key_hi":8}]}"#;
            ScenarioSpec::from_json(&text.replace("MIX", mix))
        };
        assert!(with_mix(r#""reads":95,"writes":5"#).is_ok());
        let err = with_mix(r#""reads":4294967391,"writes":5"#).unwrap_err();
        assert!(err.msg.contains("`reads`"), "{err}");
        let err = with_mix(r#""reads":4294967295,"writes":101"#).unwrap_err();
        assert!(err.msg.contains("sum to 100"), "{err}");
        let err = with_mix(r#""reads":100,"threads":18446744073709551616"#).unwrap_err();
        assert!(err.at.is_some(), "past u64::MAX is a syntax error: {err}");
    }

    #[test]
    fn validate_catches_field_inconsistencies() {
        let mut spec = sample();
        assert_eq!(spec.validate(), Ok(()));
        spec.phases[0].reads = 90;
        assert!(spec.validate().is_err());
        let mut spec = sample();
        spec.phases[1].stall_shard = Some(9);
        assert!(spec.validate().is_err());
        let mut spec = sample();
        spec.chaos = Some(ChaosSpec {
            shard: 0,
            seed: 1,
            faults: 1,
            at_phase: 99,
        });
        assert!(spec.validate().is_err());
        let mut spec = sample();
        spec.phases[0].key_hi = spec.phases[0].key_lo;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn helpers_derive_driver_types_and_capacity() {
        let spec = sample();
        assert_eq!(spec.phases[0].mix().name(), "ycsb-b");
        assert_eq!(spec.phases[1].dist(), KeyDist::Zipfian { theta: 0.99 });
        assert_eq!(spec.capacity_needed(), 8, "4 workers + 4 slack");
        assert_eq!(spec.focus_shard(), 0, "stall wins over chaos target");
        let (shard, plan) = spec.chaos_plan().unwrap();
        assert_eq!(shard, 1);
        assert_eq!(plan.ops.len(), 5);
        // Aimed past phase 0's per-shard share (10_064 ops / 2 shards).
        let first_fire = plan.ops.iter().map(|a| a.at_op()).min().unwrap();
        assert!(
            first_fire > 10_000 / 2,
            "plan anchored at phase 1: {first_fire}"
        );
        // Same spec, same plan — replayable like everything else.
        assert_eq!(spec.chaos_plan().unwrap().1, plan);
    }
}
