//! # era-smr — safe memory reclamation schemes, from scratch
//!
//! Concurrent implementations of the reclamation schemes discussed in
//! *"The ERA Theorem for Safe Memory Reclamation"* (PODC 2023), built on
//! `std::sync::atomic` with no external dependencies:
//!
//! | Module | Scheme | ERA profile |
//! |---|---|---|
//! | [`ebr`] | Epoch-based reclamation (Fraser/Harris) | easy + widely applicable, **not** robust |
//! | [`hp`] | Hazard pointers (Michael) | easy + robust, **not** widely applicable |
//! | [`he`] | Hazard eras (Ramalhete & Correia) | easy + robust, **not** widely applicable |
//! | [`ibr`] | Interval-based reclamation (Wen et al., 2GE) | easy + weakly robust, **not** widely applicable |
//! | [`nbr`] | Neutralization-based reclamation (Singh et al.), cooperative variant | robust + widely applicable, **not** easy |
//! | [`vbr`] | Version-based reclamation (Sheffi et al.), arena variant | robust + widely applicable, **not** easy |
//! | [`leak`] | No reclamation (baseline) | easy + strongly applicable, unbounded footprint |
//!
//! The [`registry`] holds this table's robustness column in code, one
//! row per scheme: [`SchemeKind`] names, identifies and classifies every
//! scheme, and [`with_scheme!`](crate::with_scheme!) builds one chosen
//! at run time.
//!
//! All pointer-based schemes implement the [`Smr`] trait, whose surface
//! mirrors Definition 5.3's insertion points: `begin_op`/`end_op`
//! (operation boundaries), `load` (primitive replacement),
//! `init_header`/`retire` (alloc/retire replacements), plus the
//! *non-easy* hooks NBR needs (`enter_read_phase`, `needs_restart`,
//! `reserve`) — data structures that use the latter are, by
//! construction, doing a non-trivial integration.
//!
//! The marker trait [`SupportsUnlinkedTraversal`] statically encodes the
//! paper's applicability result: Harris's linked list (which traverses
//! marked, possibly retired chains) only accepts schemes carrying the
//! marker — EBR, NBR and the leaking baseline. HP/HE/IBR do not get it;
//! trying to use them with `era_ds::HarrisList` is a compile error,
//! which is Appendix E as a type error.
//!
//! VBR does not fit the pointer-based trait at all (it hands out
//! versioned arena handles instead of pointers); see [`vbr`].
//!
//! ## Example
//!
//! ```
//! use era_smr::{Smr, ebr::Ebr};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let smr = Ebr::new(8); // up to 8 threads
//! let mut ctx = smr.register().unwrap();
//! let shared = AtomicUsize::new(0);
//!
//! smr.begin_op(&mut ctx);
//! let boxed = Box::into_raw(Box::new(42u64)) as usize;
//! shared.store(boxed, Ordering::SeqCst);
//! let observed = smr.load(&mut ctx, 0, &shared);
//! assert_eq!(observed, boxed);
//! // Unlink, then hand the node to the scheme:
//! shared.store(0, Ordering::SeqCst);
//! unsafe fn free_u64(p: *mut u8) {
//!     unsafe { drop(Box::from_raw(p as *mut u64)) }
//! }
//! unsafe {
//!     smr.retire(&mut ctx, boxed as *mut u8, std::ptr::null(), free_u64);
//! }
//! smr.end_op(&mut ctx);
//! assert_eq!(smr.stats().total_retired, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod common;
pub mod ebr;
pub mod he;
pub mod hp;
pub mod ibr;
pub mod leak;
pub mod nbr;
pub mod registry;
pub mod vbr;

pub use common::{
    CachePadded, EpochProtected, RegisterError, Smr, SmrHeader, SmrStats, SupportsUnlinkedTraversal,
};
pub use registry::SchemeKind;
