//! # era-obs: observability for the ERA workspace
//!
//! Lock-free event tracing, aggregate metrics, and structured report
//! emission shared by `era-smr` (the real reclamation schemes),
//! `era-sim` (the safety-oracle simulator), and `era-bench`.
//!
//! ## Design
//!
//! - **Per-thread rings** ([`Ring`]): each instrumented thread writes
//!   its events into its own drop-oldest ring, three atomic words a
//!   slot (the ring holds the thread and scheme once; a drain restores
//!   the 32-byte [`Event`]). A push is five stores to words only that
//!   thread writes — no allocation, no locks, no cross-thread
//!   contention — and a ring commits only the pages its writer has touched.
//! - **Global logical clock**: protocol events (reclaim, advance, … —
//!   [`Hook::advances_clock`]) draw a timestamp with one `fetch_add(1)`;
//!   `Reserve` and `Retire` only *read* it, so operations and retires
//!   write no shared word. A drained trace is still one coherent
//!   timeline across threads and schemes, ordered by
//!   [`Event::merge_key`], without OS-clock skew.
//! - **Counted, not recorded**: an operation's own hooks (`BeginOp`,
//!   `EndOp`, `Load` — [`Hook::is_recorded`]) reach no ring and read
//!   no clock; an emit of one bumps its tracer's hook counter.
//! - **Aggregate metrics** ([`Metrics`]): always-exact counters beside
//!   the lossy rings — per-hook call counts (summed over per-tracer,
//!   single-writer blocks), a retire→reclaim latency
//!   [`Log2Histogram`], a footprint [`HighWater`] mark, and per-thread
//!   *blame* counters attributing blocked reclamation to the stalled
//!   thread (the robustness axis of the ERA trade-off).
//! - **Runtime off switch**: tracing is always compiled in; a scheme
//!   with no recorder attached hands its threads
//!   [`ThreadTracer::disabled`], whose every emit is one branch on a
//!   local `Option`.
//! - **Reports** ([`report`], [`json`]): a dependency-free JSON-lines
//!   writer for the records something reads back (scenario verdicts,
//!   chaos runs) and the one reader ([`Json`]) every crate that takes
//!   such a record back in goes through.
//! - **Flight recorder** ([`flight`], [`dump`]): a crash-safe layer
//!   over the rings. While it holds a recorder, each ring's owner packs
//!   its own events into packed chunks, half a [`HELD_WINDOW`]-slot
//!   window at a time — a held ring stages its events there, so it
//!   commits the window, not its whole ring; the
//!   owners trim what they publish to the newest per source, up to a
//!   count cap, so nothing polls; the flight recorder snapshots them (plus metrics and scheme counters) into a compact
//!   binary `.eraflt` dump — on demand or from a chained panic hook —
//!   and reads such dumps back for the `era-view` timeline CLI. One
//!   codec, `dump`'s packed segment, is the encoding both in memory and
//!   on disk.
//!
//! ## Usage sketch
//!
//! ```ignore
//! let recorder = Recorder::new(threads);
//! let mut tracer = recorder.tracer(0, SchemeId::EBR); // one per thread
//! tracer.emit(Hook::Retire, addr, retired_now);       // hot path
//! let log = recorder.drain();                         // merged, ts-ordered
//! ```

#![warn(missing_docs)]

pub mod dump;
mod event;
pub mod flight;
pub mod json;
mod metrics;
pub mod report;
mod ring;

mod recorder;

pub use dump::{DumpError, DumpStats, FlightDump, MetricsDump, SourceDump, DUMP_VERSION};
pub use event::{phase_name, Event, Hook, SchemeId};
pub use flight::FlightRecorder;
pub use json::{Json, JsonError};
pub use metrics::{
    Counter, HighWater, HistogramSnapshot, Log2Histogram, Metrics, HISTOGRAM_BUCKETS,
};
pub use recorder::{Recorder, ThreadTracer, TraceLog, DEFAULT_RING_CAPACITY};
pub use ring::{Ring, HELD_WINDOW};
