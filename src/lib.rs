//! # era — reproduction of "The ERA Theorem for Safe Memory Reclamation"
//!
//! Facade crate re-exporting the workspace members:
//!
//! * [`core`] (`era-core`) — the executable formal model: histories,
//!   linearizability, pointer validity, SMR safety, robustness,
//!   integration and applicability, and the ERA matrix.
//! * [`sim`] (`era-sim`) — the deterministic shared-memory simulator and
//!   the paper's Figure 1 / Figure 2 constructions.
//! * [`smr`] (`era-smr`) — real, concurrent reclamation schemes: EBR,
//!   HP, HE, IBR, VBR, NBR and a leaking baseline.
//! * [`ds`] (`era-ds`) — lock-free data structures integrated with the
//!   schemes: Harris/Michael lists, hash map, skip list, VBR list.
//! * [`obs`] (`era-obs`) — lock-free event tracing, footprint metrics,
//!   and JSON-lines run reports shared by the layers above.
//! * [`kv`] (`era-kv`) — the serving layer: a sharded SMR-backed
//!   key-value store whose runtime ERA navigator trades the theorem's
//!   three properties dynamically (admission control, cooperative
//!   neutralization) instead of fixing one trade-off at design time.
//! * [`chaos`] (`era-chaos`) — deterministic fault injection: a
//!   `ChaosSmr` decorator (and a VBR `ChaosArena`) replaying seeded
//!   `FaultPlan`s — die-pinned contexts, stalled announcements,
//!   delayed flushes, slot exhaustion — against any scheme.
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for the reproduction
//! of every figure in the paper.

pub use era_chaos as chaos;
pub use era_core as core;
pub use era_ds as ds;
pub use era_kv as kv;
pub use era_obs as obs;
pub use era_sim as sim;
pub use era_smr as smr;
