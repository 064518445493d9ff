//! # era-chaos — deterministic fault injection for the era schemes
//!
//! The robustness story of the ERA theorem is adversarial: a scheme's
//! footprint bound only matters under the *worst* scheduling — threads
//! dying while pinned, announcements frozen, flushes delayed, slots
//! exhausted. This crate turns those adversaries into a reusable,
//! **replayable** harness:
//!
//! * [`FaultPlan`] / [`FaultAction`] — a seeded, serializable schedule
//!   of injections (one JSON line, written and read through
//!   `era-obs`). Same plan + same single-threaded
//!   workload ⇒ same fault log and same final
//!   [`SmrStats`](era_smr::SmrStats), twice over.
//! * [`ChaosSmr`] — an [`Smr`](era_smr::Smr) decorator for the six
//!   pointer-based schemes (EBR, HP, HE, IBR, NBR, leak). It
//!   delegates every call and fires plan actions off a global op
//!   clock: die-pinned context drops (with orphaned canary garbage),
//!   stalled announcements, delayed/reordered flushes, injected
//!   registration failures, registry-slot exhaustion, spurious
//!   `needs_restart` storms.
//! * [`ChaosArena`] — the VBR counterpart: allocation-failure
//!   injection against [`era_smr::vbr::Arena`] (VBR's contextless,
//!   retire-is-reclaim design makes the other faults vacuous — they
//!   fire as recorded no-ops to keep replay sequences aligned).
//!
//! Injections go through the schemes' **public surface only**, so a
//! chaos run exercises exactly the guarantees production code relies
//! on: slot release on death, orphan adoption
//! ([`Hook::Adopt`](era_obs::Hook)), bounded footprint under stalls. Fired faults are
//! logged ([`ChaosSmr::fault_log`]) and emitted as
//! [`Hook::Fault`](era_obs::Hook) events under [`CHAOS_THREAD`].

#![warn(missing_docs)]

pub mod arena;
pub mod decorator;
pub mod plan;

pub use arena::ChaosArena;
pub use decorator::{ChaosSmr, FaultRecord, CHAOS_THREAD};
pub use plan::{FaultAction, FaultPlan};
