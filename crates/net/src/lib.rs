//! # era-net — a TCP serving front-end for era-kv
//!
//! This crate puts the ERA navigator's admission decisions on the
//! wire. It serves a sharded [`era_kv::KvStore`] over TCP with a
//! length-prefixed binary protocol ([`proto`]), an acceptor feeding a
//! fixed worker pool with per-connection request pipelining and
//! per-shard write batching ([`server`]). A connection is
//! one socket and two fixed-role buffers: requests are decoded in
//! place from the read buffer, replies are encoded into the reply
//! buffer and written once per read, and the common opcodes allocate
//! nothing per request.
//!
//! The point is not the socket plumbing — it is that the ERA theorem's
//! applicability/robustness trade-off becomes **visible to remote
//! clients** as typed protocol frames:
//!
//! | shard health | remote write | remote read |
//! |---|---|---|
//! | `Robust` | applied | served |
//! | `Degrading` | queued with a bounded deadline | served |
//! | `Violating` | shed: `Overloaded` + `Retry-After` | served |
//! | `Quarantined` | shed (longer `Retry-After`) | served |
//!
//! Reads are never refused because a read adds no reclamation
//! footprint; writes are the traffic a navigator must sacrifice to
//! keep the shard's memory bound — the paper's "ERA sacrifice",
//! answered as a frame instead of a silent stall.
//!
//! The serving path is always flight-recorded: [`server::NetServer`]
//! arms an [`era_obs::FlightRecorder`] over every shard recorder plus
//! its own accept/shed event stream, so a crashed server leaves an
//! `.eraflt` dump that `era-view` can replay — including the shard
//! health state machine (`era-view --timeline` renders `navigate`
//! transitions).

pub mod proto;
pub mod server;

pub use proto::{
    read_frame, split_frame, write_request, write_response, ErrorCode, ErrorReply, ProtoError,
    Request, Response, StatsReply, MAX_FRAME, MAX_REQUEST_FRAME,
};
pub use server::{NetConfig, NetHandle, NetServer, ServeStats};
