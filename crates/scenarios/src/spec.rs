//! Serializable scenario specifications: what to throw at the store,
//! phase by phase, and when.
//!
//! A [`ScenarioSpec`] follows the same replayability discipline as the
//! chaos [`FaultPlan`]: plain data, generated or hand-written, emitted
//! as one JSON line by the workspace's hand-rolled emitter
//! ([`era_obs::report::JsonObject`]), and parsed back by a minimal
//! byte parser — no serialization dependency. A campaign record embeds
//! the spec verbatim, so every verdict can be regenerated from the
//! record alone.
//!
//! Floats are deliberately absent from the wire format: the zipfian
//! skew travels as basis points (`theta_bp`, 9900 = θ 0.99) so the
//! parser stays integer-only and round-trips are byte-exact.

use std::fmt;

use era_chaos::FaultPlan;
use era_kv::{KeyDist, KvMix};
use era_obs::report::JsonObject;

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
            if p.reads + p.writes + p.removes != 100 {
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
    /// [`SpecParseError`] with a byte offset on malformed input or an
    /// inconsistent spec.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, SpecParseError> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let spec = p.scenario()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(p.err("trailing input after scenario"));
        }
        spec.validate()
            .map_err(|msg| SpecParseError { at: 0, msg })?;
        Ok(spec)
    }
}

/// A scenario failed to parse or validate: byte offset plus a static
/// description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecParseError {
    /// Byte offset into the JSON text (0 for validation failures).
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for SpecParseError {}

/// Minimal parser for exactly the shape [`ScenarioSpec::to_json`]
/// emits (the chaos `FaultPlan` parser's sibling).
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> SpecParseError {
        SpecParseError { at: self.i, msg }
    }

    fn ws(&mut self) {
        while self
            .peek()
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), SpecParseError> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    /// Consumes either a comma (`true`) or `close` (`false`).
    fn comma_or(&mut self, close: u8) -> Result<bool, SpecParseError> {
        match self.peek() {
            Some(b',') => {
                self.i += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.i += 1;
                Ok(false)
            }
            _ => Err(self.err("expected ',' or a closing bracket")),
        }
    }

    fn u64(&mut self) -> Result<u64, SpecParseError> {
        let start = self.i;
        let mut v: u64 = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(b - b'0')))
                .ok_or(SpecParseError {
                    at: self.i,
                    msg: "integer overflow",
                })?;
            self.i += 1;
        }
        if self.i == start {
            return Err(self.err("expected an unsigned integer"));
        }
        Ok(v)
    }

    fn bool(&mut self) -> Result<bool, SpecParseError> {
        if self.s[self.i..].starts_with(b"true") {
            self.i += 4;
            Ok(true)
        } else if self.s[self.i..].starts_with(b"false") {
            self.i += 5;
            Ok(false)
        } else {
            Err(self.err("expected a boolean"))
        }
    }

    /// A plain string (spec strings never need escapes; reject them).
    fn string(&mut self) -> Result<String, SpecParseError> {
        self.eat(b'"')?;
        let start = self.i;
        loop {
            match self.peek() {
                Some(b'"') => break,
                Some(b'\\') => return Err(self.err("escapes are not used in spec strings")),
                Some(_) => self.i += 1,
                None => return Err(self.err("unterminated string")),
            }
        }
        let out = std::str::from_utf8(&self.s[start..self.i])
            .map_err(|_| self.err("invalid utf-8"))?
            .to_string();
        self.i += 1;
        Ok(out)
    }

    fn scenario(&mut self) -> Result<ScenarioSpec, SpecParseError> {
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
        self.ws();
        self.eat(b'{')?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(spec);
        }
        loop {
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            match key.as_str() {
                "name" => spec.name = self.string()?,
                "seed" => spec.seed = self.u64()?,
                "shards" => spec.shards = self.u64()? as usize,
                "soft" => spec.soft = self.u64()? as usize,
                "hard" => spec.hard = self.u64()? as usize,
                "bound" => spec.bound = self.u64()? as usize,
                "prefill" => spec.prefill = self.u64()? as usize,
                "chaos" => spec.chaos = Some(self.chaos()?),
                "phases" => {
                    self.eat(b'[')?;
                    self.ws();
                    if self.peek() == Some(b']') {
                        self.i += 1;
                    } else {
                        loop {
                            spec.phases.push(self.phase()?);
                            self.ws();
                            if !self.comma_or(b']')? {
                                break;
                            }
                            self.ws();
                        }
                    }
                }
                _ => return Err(self.err("unknown scenario field")),
            }
            self.ws();
            if !self.comma_or(b'}')? {
                break;
            }
            self.ws();
        }
        Ok(spec)
    }

    fn chaos(&mut self) -> Result<ChaosSpec, SpecParseError> {
        let mut c = ChaosSpec {
            shard: 0,
            seed: 0,
            faults: 0,
            at_phase: 0,
        };
        self.eat(b'{')?;
        self.ws();
        loop {
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            match key.as_str() {
                "shard" => c.shard = self.u64()? as usize,
                "seed" => c.seed = self.u64()?,
                "faults" => c.faults = self.u64()? as usize,
                "at_phase" => c.at_phase = self.u64()? as usize,
                _ => return Err(self.err("unknown chaos field")),
            }
            self.ws();
            if !self.comma_or(b'}')? {
                break;
            }
            self.ws();
        }
        Ok(c)
    }

    fn phase(&mut self) -> Result<PhaseSpec, SpecParseError> {
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
        self.eat(b'{')?;
        self.ws();
        loop {
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            match key.as_str() {
                "label" => ph.label = self.string()?,
                "reads" => ph.reads = self.u64()? as u32,
                "writes" => ph.writes = self.u64()? as u32,
                "removes" => ph.removes = self.u64()? as u32,
                "theta_bp" => ph.theta_bp = self.u64()?,
                "key_lo" => ph.key_lo = self.u64()?,
                "key_hi" => ph.key_hi = self.u64()?,
                "threads" => ph.threads = self.u64()? as usize,
                "ops_per_thread" => ph.ops_per_thread = self.u64()? as usize,
                "stall_shard" => ph.stall_shard = Some(self.u64()? as usize),
                "quarantine_shard" => ph.quarantine_shard = Some(self.u64()? as usize),
                "navigator" => ph.navigator = self.bool()?,
                "serve_net" => ph.serve_net = self.bool()?,
                "soft" => soft = Some(self.u64()? as usize),
                "hard" => hard = Some(self.u64()? as usize),
                _ => return Err(self.err("unknown phase field")),
            }
            self.ws();
            if !self.comma_or(b'}')? {
                break;
            }
            self.ws();
        }
        match (soft, hard) {
            (Some(s), Some(h)) => ph.budgets = Some((s, h)),
            (None, None) => {}
            _ => return Err(self.err("phase budget override needs both soft and hard")),
        }
        Ok(ph)
    }
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
        let spec = sample();
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), json, "replay record must be stable");
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
