//! Serializable fault plans: what to break, and when.
//!
//! A [`FaultPlan`] is a seed plus a list of [`FaultAction`]s, each
//! anchored to a global operation index (the decorator's op clock).
//! Plans are plain data: generated from a seed, serialized to a single
//! JSON line, parsed back, and replayed — the same plan against the
//! same single-threaded workload fires the same faults at the same
//! clock readings and produces the same final statistics, which is what
//! makes a chaos failure a *bug report* instead of an anecdote.
//!
//! The JSON wire format is written with [`era_obs::report::JsonObject`]
//! and read back with [`era_obs::Json`], the workspace's one of each:
//!
//! ```json
//! {"seed":42,"ops":[{"kind":"die_pinned","at_op":100},
//!                   {"kind":"stall","at_op":250,"for_ops":64}]}
//! ```

use era_obs::report::JsonObject;
use era_obs::{Json, JsonError};

/// One injected fault, anchored to the decorator's global op clock.
///
/// Window-style actions (`for_ops`) stay in force until the clock
/// passes `at_op + for_ops`; budget-style actions (`count`) apply to
/// the next `count` matching calls. Both interpretations are bounded,
/// so no plan can livelock a workload that keeps issuing operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Register a fresh context, pin it, retire a few chaos-owned
    /// canary nodes through it, and drop it **without** `end_op` — the
    /// "thread died while pinned" injection, orphaned garbage included.
    DiePinned {
        /// Global op index the fault fires at.
        at_op: u64,
    },
    /// Pin a victim context and freeze its announcement for `for_ops`
    /// global ops — the robustness adversary of the paper's lower
    /// bounds. The victim is released gracefully when the window ends.
    StallThread {
        /// Global op index the fault fires at.
        at_op: u64,
        /// How many global ops the victim stays pinned.
        for_ops: u64,
    },
    /// Suppress `flush` calls for `for_ops` ops; the suppressed flush
    /// replays — possibly from a *different* thread's context — once
    /// the window closes (a delayed, reordered reclamation flush).
    DelayFlush {
        /// Global op index the fault fires at.
        at_op: u64,
        /// How many global ops flushes stay suppressed.
        for_ops: u64,
    },
    /// Fail the next `count` `register` calls with a capacity error
    /// even though slots are free.
    FailRegister {
        /// Global op index the fault fires at.
        at_op: u64,
        /// How many registrations to refuse.
        count: u64,
    },
    /// Grab every free registry slot and hold the contexts hostage for
    /// `for_ops` ops — registry-slot exhaustion.
    ExhaustSlots {
        /// Global op index the fault fires at.
        at_op: u64,
        /// How many global ops the slots stay held.
        for_ops: u64,
    },
    /// Answer `true` to the next `count` `needs_restart` polls — a
    /// spurious neutralization storm. Always safe: restart-protocol
    /// followers simply redo their read phase.
    RestartStorm {
        /// Global op index the fault fires at.
        at_op: u64,
        /// How many polls to answer spuriously.
        count: u64,
    },
    /// Fail the next `count` allocations. On [`crate::ChaosArena`]
    /// (VBR) the arena reports full; on [`crate::ChaosSmr`] the
    /// scheme's only allocation-like fallible call is `register`, so
    /// it behaves as [`FaultAction::FailRegister`].
    FailAlloc {
        /// Global op index the fault fires at.
        at_op: u64,
        /// How many allocations to refuse.
        count: u64,
    },
}

impl FaultAction {
    /// Number of distinct action kinds.
    pub const KINDS: u8 = 7;

    /// Stable discriminant — the `a` payload of `Hook::Fault` events.
    pub fn kind(self) -> u8 {
        match self {
            FaultAction::DiePinned { .. } => 0,
            FaultAction::StallThread { .. } => 1,
            FaultAction::DelayFlush { .. } => 2,
            FaultAction::FailRegister { .. } => 3,
            FaultAction::ExhaustSlots { .. } => 4,
            FaultAction::RestartStorm { .. } => 5,
            FaultAction::FailAlloc { .. } => 6,
        }
    }

    /// Stable lower-case name — the JSON `kind` field.
    pub fn kind_name(self) -> &'static str {
        match self {
            FaultAction::DiePinned { .. } => "die_pinned",
            FaultAction::StallThread { .. } => "stall",
            FaultAction::DelayFlush { .. } => "delay_flush",
            FaultAction::FailRegister { .. } => "fail_register",
            FaultAction::ExhaustSlots { .. } => "exhaust_slots",
            FaultAction::RestartStorm { .. } => "restart_storm",
            FaultAction::FailAlloc { .. } => "fail_alloc",
        }
    }

    /// The global op index this action fires at.
    pub fn at_op(self) -> u64 {
        match self {
            FaultAction::DiePinned { at_op }
            | FaultAction::StallThread { at_op, .. }
            | FaultAction::DelayFlush { at_op, .. }
            | FaultAction::FailRegister { at_op, .. }
            | FaultAction::ExhaustSlots { at_op, .. }
            | FaultAction::RestartStorm { at_op, .. }
            | FaultAction::FailAlloc { at_op, .. } => at_op,
        }
    }
}

/// A seeded, serializable, replayable schedule of fault injections.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The seed the plan was generated from (0 for hand-built plans);
    /// carried in records so a run can be regenerated, not just
    /// replayed.
    pub seed: u64,
    /// The injections, sorted by [`FaultAction::at_op`].
    pub ops: Vec<FaultAction>,
}

impl FaultPlan {
    /// An empty plan: the decorator is transparent.
    #[must_use = "a plan does nothing until handed to ChaosSmr/ChaosArena"]
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan from explicit actions (sorted by fire index; the sort is
    /// stable, so same-index actions keep their given order).
    #[must_use = "a plan does nothing until handed to ChaosSmr/ChaosArena"]
    pub fn new(seed: u64, mut ops: Vec<FaultAction>) -> FaultPlan {
        ops.sort_by_key(|a| a.at_op());
        FaultPlan { seed, ops }
    }

    /// Generates `count` pseudo-random injections over `[1, horizon]`
    /// ops. Deterministic in `seed` (SplitMix64), so a record carrying
    /// `(seed, horizon, count)` pins the plan exactly. Windows and
    /// budgets are kept small relative to the horizon so no single
    /// fault can dominate a run.
    #[must_use = "a plan does nothing until handed to ChaosSmr/ChaosArena"]
    pub fn generate(seed: u64, horizon: u64, count: usize) -> FaultPlan {
        let horizon = horizon.max(1);
        let window_cap = (horizon / 8).clamp(4, 256);
        let mut state = seed;
        let mut ops = Vec::with_capacity(count);
        for _ in 0..count {
            let at_op = 1 + splitmix64(&mut state) % horizon;
            let for_ops = 4 + splitmix64(&mut state) % window_cap;
            let count = 1 + splitmix64(&mut state) % 4;
            ops.push(match splitmix64(&mut state) % FaultAction::KINDS as u64 {
                0 => FaultAction::DiePinned { at_op },
                1 => FaultAction::StallThread { at_op, for_ops },
                2 => FaultAction::DelayFlush { at_op, for_ops },
                3 => FaultAction::FailRegister { at_op, count },
                4 => FaultAction::ExhaustSlots { at_op, for_ops },
                5 => FaultAction::RestartStorm { at_op, count },
                _ => FaultAction::FailAlloc { at_op, count },
            });
        }
        FaultPlan::new(seed, ops)
    }

    /// The same plan re-anchored `delta` ops later on the decorator's
    /// clock — the scheduling hook campaign harnesses use to aim a
    /// seed-generated plan at a *phase* of a longer run: generate over
    /// the phase's own horizon, then offset by the ops already spent
    /// before the phase starts. Fire indices saturate instead of
    /// wrapping, so an absurd delta pushes faults past the run's end
    /// (they never fire) rather than to its beginning.
    #[must_use = "offset returns the shifted plan; the original is unchanged"]
    pub fn offset(&self, delta: u64) -> FaultPlan {
        let shift = |at_op: u64| at_op.saturating_add(delta);
        let ops = self
            .ops
            .iter()
            .map(|a| match *a {
                FaultAction::DiePinned { at_op } => FaultAction::DiePinned {
                    at_op: shift(at_op),
                },
                FaultAction::StallThread { at_op, for_ops } => FaultAction::StallThread {
                    at_op: shift(at_op),
                    for_ops,
                },
                FaultAction::DelayFlush { at_op, for_ops } => FaultAction::DelayFlush {
                    at_op: shift(at_op),
                    for_ops,
                },
                FaultAction::FailRegister { at_op, count } => FaultAction::FailRegister {
                    at_op: shift(at_op),
                    count,
                },
                FaultAction::ExhaustSlots { at_op, for_ops } => FaultAction::ExhaustSlots {
                    at_op: shift(at_op),
                    for_ops,
                },
                FaultAction::RestartStorm { at_op, count } => FaultAction::RestartStorm {
                    at_op: shift(at_op),
                    count,
                },
                FaultAction::FailAlloc { at_op, count } => FaultAction::FailAlloc {
                    at_op: shift(at_op),
                    count,
                },
            })
            .collect();
        FaultPlan {
            seed: self.seed,
            ops,
        }
    }

    /// Serializes the plan as one JSON line (the `ChaosRunRecord`
    /// embeds this verbatim so every record is replayable).
    pub fn to_json(&self) -> String {
        let mut ops = String::from("[");
        for (i, a) in self.ops.iter().enumerate() {
            if i > 0 {
                ops.push(',');
            }
            let obj = JsonObject::new()
                .str("kind", a.kind_name())
                .u64("at_op", a.at_op());
            let obj = match *a {
                FaultAction::StallThread { for_ops, .. }
                | FaultAction::DelayFlush { for_ops, .. }
                | FaultAction::ExhaustSlots { for_ops, .. } => obj.u64("for_ops", for_ops),
                FaultAction::FailRegister { count, .. }
                | FaultAction::RestartStorm { count, .. }
                | FaultAction::FailAlloc { count, .. } => obj.u64("count", count),
                FaultAction::DiePinned { .. } => obj,
            };
            ops.push_str(&obj.finish());
        }
        ops.push(']');
        JsonObject::new()
            .u64("seed", self.seed)
            .raw("ops", &ops)
            .finish()
    }

    /// Parses a plan from its [`FaultPlan::to_json`] record (any
    /// whitespace and member order).
    ///
    /// # Errors
    ///
    /// [`JsonError`]: a syntax error with its byte offset, or a shape
    /// error naming the key — an unknown field, a value of the wrong
    /// type, an unknown or missing action `kind`.
    pub fn from_json(text: &str) -> Result<FaultPlan, JsonError> {
        FaultPlan::from_value(&Json::parse(text)?)
    }

    /// [`FaultPlan::from_json`] for a plan already parsed as part of a
    /// larger record (the `plan` member of a chaos run record).
    ///
    /// # Errors
    ///
    /// The shape errors of [`FaultPlan::from_json`].
    pub fn from_value(value: &Json) -> Result<FaultPlan, JsonError> {
        let (mut seed, mut ops) = (0, Vec::new());
        for (key, v) in value.try_members("plan")? {
            match key.as_str() {
                "seed" => seed = v.try_u64(key)?,
                "ops" => {
                    let actions = v.try_array(key)?.iter().map(action);
                    ops = actions.collect::<Result<_, _>>()?;
                }
                _ => return Err(JsonError::shape(format!("unknown plan field `{key}`"))),
            }
        }
        Ok(FaultPlan::new(seed, ops))
    }
}

fn action(value: &Json) -> Result<FaultAction, JsonError> {
    let (mut kind, mut at_op, mut for_ops, mut count) = (None, 0, 1, 1);
    for (key, v) in value.try_members("ops[]")? {
        match key.as_str() {
            "kind" => kind = Some(v.try_str(key)?),
            "at_op" => at_op = v.try_u64(key)?,
            "for_ops" => for_ops = v.try_u64(key)?,
            "count" => count = v.try_u64(key)?,
            _ => return Err(JsonError::shape(format!("unknown action field `{key}`"))),
        }
    }
    match kind {
        Some("die_pinned") => Ok(FaultAction::DiePinned { at_op }),
        Some("stall") => Ok(FaultAction::StallThread { at_op, for_ops }),
        Some("delay_flush") => Ok(FaultAction::DelayFlush { at_op, for_ops }),
        Some("fail_register") => Ok(FaultAction::FailRegister { at_op, count }),
        Some("exhaust_slots") => Ok(FaultAction::ExhaustSlots { at_op, for_ops }),
        Some("restart_storm") => Ok(FaultAction::RestartStorm { at_op, count }),
        Some("fail_alloc") => Ok(FaultAction::FailAlloc { at_op, count }),
        Some(other) => Err(JsonError::shape(format!("unknown action `kind` `{other}`"))),
        None => Err(JsonError::shape("action is missing its `kind`")),
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultPlan {
        FaultPlan::new(
            9,
            vec![
                FaultAction::StallThread {
                    at_op: 40,
                    for_ops: 16,
                },
                FaultAction::DiePinned { at_op: 10 },
                FaultAction::RestartStorm {
                    at_op: 40,
                    count: 3,
                },
                FaultAction::FailAlloc {
                    at_op: 77,
                    count: 2,
                },
                FaultAction::DelayFlush {
                    at_op: 90,
                    for_ops: 8,
                },
                FaultAction::ExhaustSlots {
                    at_op: 91,
                    for_ops: 5,
                },
                FaultAction::FailRegister {
                    at_op: 95,
                    count: 1,
                },
            ],
        )
    }

    #[test]
    fn new_sorts_by_fire_index() {
        let plan = sample();
        assert!(plan.ops.windows(2).all(|w| w[0].at_op() <= w[1].at_op()));
        assert_eq!(plan.ops[0], FaultAction::DiePinned { at_op: 10 });
        // Stable: the two at_op=40 actions keep their given order.
        assert_eq!(plan.ops[1].kind_name(), "stall");
        assert_eq!(plan.ops[2].kind_name(), "restart_storm");
    }

    #[test]
    fn json_roundtrip_is_identity() {
        let plan = sample();
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.to_json(), json, "replay record must be stable");
    }

    #[test]
    fn json_accepts_whitespace_and_field_order() {
        let text =
            r#" { "ops" : [ { "at_op" : 5 , "kind" : "stall" , "for_ops" : 2 } ] , "seed" : 3 } "#;
        let plan = FaultPlan::from_json(text).unwrap();
        assert_eq!(plan.seed, 3);
        assert_eq!(
            plan.ops,
            vec![FaultAction::StallThread {
                at_op: 5,
                for_ops: 2
            }]
        );
    }

    #[test]
    fn json_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"seed\":}",
            "{\"seed\":1,\"ops\":[{\"kind\":\"nope\",\"at_op\":1}]}",
            "{\"seed\":1,\"ops\":[{\"at_op\":1}]}",
            "{\"bogus\":1}",
            "{\"seed\":1} trailing",
            "{\"seed\":99999999999999999999999}",
        ] {
            let err = FaultPlan::from_json(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad:?} must fail");
        }
        // A syntax error says where, a shape error names the key.
        assert_eq!(FaultPlan::from_json("{\"seed\":}").unwrap_err().at, Some(8));
        let err = FaultPlan::from_json("{\"seed\":1,\"ops\":[{\"at_op\":\"x\"}]}").unwrap_err();
        assert!(err.at.is_none() && err.msg.contains("`at_op`"), "{err}");
        // Empty object and empty ops array are both fine.
        assert_eq!(FaultPlan::from_json("{}").unwrap(), FaultPlan::empty());
        assert_eq!(
            FaultPlan::from_json("{\"seed\":7,\"ops\":[]}")
                .unwrap()
                .seed,
            7
        );
    }

    #[test]
    fn offset_shifts_every_fire_index_and_nothing_else() {
        let plan = sample();
        let shifted = plan.offset(1_000);
        assert_eq!(shifted.seed, plan.seed);
        assert_eq!(shifted.ops.len(), plan.ops.len());
        for (a, b) in plan.ops.iter().zip(shifted.ops.iter()) {
            assert_eq!(b.at_op(), a.at_op() + 1_000);
            assert_eq!(b.kind(), a.kind(), "offset must not change the action");
        }
        // Order is preserved (a uniform shift cannot reorder), the
        // original is untouched, and offset(0) is the identity.
        assert!(shifted.ops.windows(2).all(|w| w[0].at_op() <= w[1].at_op()));
        assert_eq!(plan, sample());
        assert_eq!(plan.offset(0), plan);
        // Saturation: never wraps around to fire at the run's start.
        let far = plan.offset(u64::MAX);
        assert!(far.ops.iter().all(|op| op.at_op() == u64::MAX));
        // The shifted plans are still valid wire records: integers are
        // exact right up to `u64::MAX`.
        assert_eq!(FaultPlan::from_json(&shifted.to_json()).unwrap(), shifted);
        assert_eq!(FaultPlan::from_json(&far.to_json()).unwrap(), far);
    }

    #[test]
    fn generate_is_deterministic_and_bounded() {
        let a = FaultPlan::generate(1234, 10_000, 40);
        let b = FaultPlan::generate(1234, 10_000, 40);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, FaultPlan::generate(1235, 10_000, 40));
        assert_eq!(a.ops.len(), 40);
        assert!(a.ops.iter().all(|op| (1..=10_000).contains(&op.at_op())));
        assert!(a.ops.windows(2).all(|w| w[0].at_op() <= w[1].at_op()));
        // The generator reaches every action kind over a modest plan.
        let kinds: std::collections::HashSet<u8> = a.ops.iter().map(|o| o.kind()).collect();
        assert_eq!(kinds.len(), FaultAction::KINDS as usize);
        // Roundtrip through JSON survives generation too.
        assert_eq!(FaultPlan::from_json(&a.to_json()).unwrap(), a);
    }
}
