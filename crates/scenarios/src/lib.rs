//! era-scenarios: seeded adversarial workload campaigns with
//! per-scheme robustness invariants.
//!
//! This crate composes the rest of the workspace — the `era-kv` store
//! with its navigator, the `era-chaos` fault injector, the `era-net`
//! TCP front-end, and the `era-obs` flight recorder — into named,
//! replayable **scenarios**: multi-phase adversarial campaigns whose
//! pass/fail verdicts restate the ERA theorem's robustness axis as
//! executable invariants (DESIGN §3.13, EXPERIMENTS E14).
//!
//! A [`ScenarioSpec`] is plain data with a JSON round-trip, like the
//! chaos `FaultPlan`: the same spec and seed reproduce the same
//! verdicts. The executor ([`run::run_scenario`]) drives any
//! [`era_smr::common::Smr`] scheme through the spec's phases —
//! read-mostly ↔ write-storm shifts, moving zipfian hot sets,
//! breathing key ranges, oversubscription, stalled readers, chaos
//! plans, budget squeezes, and in-process TCP serving — with the
//! flight recorder armed, then evaluates per-scheme invariants
//! ([`invariant`]): robust schemes must keep `retired_peak` within a
//! Def-4.2-style bound through it all; non-robust schemes must
//! *visibly blow* the bound under a stalled reader and recover after
//! heal/drain. The built-in campaign lives in [`campaign`]; records in
//! [`report`].

pub mod campaign;
pub mod invariant;
pub mod report;
pub mod run;
pub mod spec;

pub use invariant::InvariantOutcome;
pub use report::ScenarioRunRecord;
pub use run::{run_scenario, RunOptions, ScenarioOutcome};
pub use spec::{ChaosSpec, PhaseSpec, ScenarioSpec};
