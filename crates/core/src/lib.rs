//! # era-core — executable formal model for the ERA theorem
//!
//! This crate turns the formal machinery of *"The ERA Theorem for Safe
//! Memory Reclamation"* (Sheffi & Petrank, PODC 2023) into executable,
//! testable Rust:
//!
//! * [`lifecycle`] — the node life-cycle of §4.1 (`unallocated → local →
//!   shared → retired → unallocated`), with logical node identities
//!   (address + incarnation) and transition validation.
//! * [`history`] — executions modelled by their histories (§3):
//!   invocation/response events, projections `H|T`, `H|O`, `H|⟨T,O⟩`.
//! * [`wellformed`] — the extended (nesting-aware) well-formedness of §3.
//! * [`spec`] — sequential specifications for sets, stacks, queues and
//!   registers.
//! * [`linearizability`] — an exact linearizability checker that reads
//!   each object's history once, in order, including completion of
//!   pending operations.
//! * [`validity`] — pointer validity per Definition 4.1 (§4.2).
//! * [`safety`] — the three conditions of Definition 4.2 that an SMR
//!   scheme must satisfy when it permits unsafe accesses, including taint
//!   tracking for the "value never used" condition.
//! * [`robustness`] — Definitions 5.1/5.2 as an empirical classifier over
//!   retired-node footprint observations.
//! * [`integration`] — Definition 5.3 (easy integration) as a
//!   machine-checkable contract.
//! * [`applicability`] — Definitions 5.4–5.6 and the access-aware phase
//!   discipline of Appendix C.
//! * [`era`] — ERA profiles, the §6 trade-off matrix, and the theorem
//!   assertion itself.
//!
//! The crate is `#![forbid(unsafe_code)]` and dependency-free: it is pure
//! model. The sibling crates `era-sim` (deterministic simulator) and
//! `era-smr` (real reclamation schemes) feed it evidence.
//!
//! ## Example
//!
//! ```
//! use era_core::history::{History, Op, Ret};
//! use era_core::ids::{ObjectId, ThreadId};
//! use era_core::linearizability::Checker;
//! use era_core::spec::SetSpec;
//!
//! let set = ObjectId(1);
//! let mut h = History::new();
//! let t0 = ThreadId(0);
//! let t1 = ThreadId(1);
//! h.invoke(t0, set, Op::Insert(5));
//! h.invoke(t1, set, Op::Contains(5));
//! h.respond(t0, set, Ret::Bool(true));
//! h.respond(t1, set, Ret::Bool(true)); // observed the concurrent insert: fine
//! assert!(Checker::new(&SetSpec).is_linearizable(&h));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod applicability;
pub mod era;
pub mod history;
pub mod ids;
pub mod integration;
pub mod lifecycle;
pub mod linearizability;
pub mod robustness;
pub mod safety;
pub mod spec;
pub mod validity;
pub mod wellformed;

pub use era::{EraMatrix, EraProfile, TheoremViolation};
pub use history::{History, Op, Ret};
pub use ids::{NodeId, ObjectId, ThreadId};
pub use lifecycle::{LifecycleError, LifecycleTracker, NodeState};
pub use robustness::{RobustnessObservation, RobustnessVerdict};
pub use safety::{SafetyChecker, SafetyVerdict};
