//! # era-kv — a sharded SMR-backed key-value service with a runtime ERA navigator
//!
//! The ERA theorem (Sheffi & Petrank, PODC 2023) says no safe memory
//! reclamation scheme is simultaneously **E**asy to integrate,
//! **R**obust, and widely **A**pplicable. That is a statement about
//! schemes fixed at design time. This crate asks the systems question
//! that follows: if a *service* is free to change which property it
//! pays for **at runtime**, how close to all three can it get?
//!
//! ## Architecture
//!
//! * [`KvStore`] — N shards, each an [`era_ds::HashMap`] bound to its
//!   **own** reclamation-scheme instance ([`era_smr::Smr`]) and its own
//!   [`era_obs::Recorder`]. Sharding is not (only) a throughput trick:
//!   independent reclaimer domains mean a stalled reader pins exactly
//!   one shard's garbage, turning the theorem's worst case from a
//!   whole-service outage into a per-shard incident.
//! * [`ShardHealth`] + [`KvStore::navigator_tick`] — the navigator.
//!   Each tick (one ticker at a time; a thread that writes steps it
//!   through [`KvStore::navigate`] once every [`NAV_EVERY`] of its own
//!   writes, so nothing ticks on a timer) reads each shard's always-on
//!   footprint metrics against configured budgets
//!   ([`KvConfig::retired_soft`] / [`KvConfig::retired_hard`]) and
//!   walks a three-state machine:
//!   `Robust` (native behaviour) → `Degrading` (admission control
//!   sheds writes with [`KvError::Overloaded`]: robustness bought by
//!   narrowing applicability) → `Violating` (the blamed pin is
//!   cooperatively neutralized, NBR-style: robustness bought by giving
//!   up easy integration). Every transition is a
//!   [`Hook::Navigate`](era_obs::Hook) event.
//! * [`workload`] — the YCSB-style workload vocabulary (A/B/C and
//!   churn mixes, uniform and zipfian keys). The one driver over a
//!   store — phases, stall injection, run records — is
//!   `era-scenarios`' `run_scenario`.
//!
//! ## The navigator contract
//!
//! Neutralization force-unpins a thread's protected region, so **every
//! thread operating on a store must poll
//! [`Smr::needs_restart`](era_smr::Smr::needs_restart) at operation
//! boundaries** before trusting pointers across them. [`KvStore`]'s own
//! operations do this internally — callers that stay behind the facade
//! inherit the protocol for free, which is exactly the integration
//! burden the navigator shifts from every data-structure author to one
//! service author. Threads that access a shard's scheme directly (like
//! the scenario executor's stall reader) must follow the protocol
//! themselves.
//!
//! Navigator transitions, admission sheds and footprint samples land in
//! each shard's event rings (flight dumps, `era-view`); classification
//! itself reads the shard recorder's exact metrics, not the lossy rings.

#![warn(missing_docs)]

pub mod navigator;
pub mod store;
pub mod workload;

pub use navigator::{ShardHealth, NAV_EVERY};
pub use store::{KvConfig, KvCtx, KvError, KvStore, NAVIGATOR_THREAD};
pub use workload::{KeyDist, KvMix, KvOpKind};
