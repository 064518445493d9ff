//! # era-ds — lock-free data structures integrated with era-smr
//!
//! The data-structure side of the ERA theorem reproduction. Two list
//! traversals, each written once:
//!
//! * [`michael_map`] — **Michael's** list (unlink-before-advance),
//!   compatible with every pointer-based scheme including HP/HE/IBR;
//!   the price is extra CAS work on traversals, which the `throughput`
//!   binary's `michael+*` vs `harris+*` rows measure (experiment E6, the
//!   paper's §6 "practical importance" discussion). It is a map (`i64 → i64`)
//!   and, through [`ConcurrentSet`], the set of its keys.
//! * [`harris_list`] — **Harris's** list (Algorithm 1 of the paper):
//!   traversals walk through *marked, possibly retired* chains, so the
//!   list only accepts reclamation schemes implementing
//!   [`era_smr::SupportsUnlinkedTraversal`] (EBR, NBR, Leak). Trying to
//!   instantiate it with HP/HE/IBR is a compile error — Appendix E as a
//!   type error.
//!
//! Built on them:
//!
//! * [`hash_map`] — an array of `michael_map` buckets; the
//!   shard-friendly building block of the era-kv serving layer (one
//!   map per independent reclaimer domain). Through [`ConcurrentSet`]
//!   it is Michael's hash set.
//! * [`skip_list`] — a lock-free skip list whose towers are Harris
//!   lists per level; it requires an [`era_smr::common::EpochProtected`]
//!   scheme because per-pointer protection would need a slot per level
//!   (the §5.1 discussion about hazard-pointer counts).
//! * [`vbr_list`] — a Harris-style list on the [`era_smr::vbr`] arena,
//!   with explicit `Stale`-rollback integration (the non-easy
//!   integration VBR demands).
//!
//! All five implement [`ConcurrentSet`], the seam the `era-bench`
//! driver and the model tests are generic over, with integer-key *set*
//! semantics matching `era_core::spec::SetSpec`, so the test suite
//! checks them against the same sequential specification the formal
//! model uses.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod concurrent_set;
pub mod harris_list;
pub mod hash_map;
pub mod michael_map;
pub mod skip_list;
pub mod vbr_list;

pub use concurrent_set::ConcurrentSet;
pub use harris_list::HarrisList;
pub use hash_map::HashMap;
pub use michael_map::MichaelMap;
pub use skip_list::SkipList;
pub use vbr_list::VbrList;
