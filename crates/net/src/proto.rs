//! The era-net wire protocol: length-prefixed binary frames.
//!
//! Every frame is `[u32 length (big-endian)][u8 opcode][body]`, where
//! `length` counts the opcode byte plus the body. Integers inside the
//! body are big-endian; keys and values are `i64` (the `era-kv` key
//! space). Request opcodes live below `0x80`, response opcodes at or
//! above it, so a stream captured mid-flight is self-orienting.
//!
//! Decoding is strict: unknown opcodes, truncated bodies, trailing
//! bytes, and oversized or empty frames are all typed
//! [`ProtoError`]s, never panics — the framing tests flip bytes at
//! every position to pin that down.

use std::fmt;
use std::io::{self, Read, Write};

/// Hard ceiling on a frame's `length` field (opcode + body). Large
/// enough for a maximal `Entries` response, small enough that a
/// corrupted length prefix cannot make the reader allocate gigabytes.
pub const MAX_FRAME: usize = 1 << 20;

/// The largest `length` a *request* frame can carry: `SCAN`'s opcode,
/// two `i64` bounds and a `u32` limit. The server refuses a longer
/// prefix as soon as it has read it instead of buffering a body that
/// cannot decode, so its per-connection read buffer never grows;
/// [`MAX_FRAME`] keeps bounding responses.
pub const MAX_REQUEST_FRAME: usize = 1 + 8 + 8 + 4;

/// Most entries an [`Response::Entries`] frame may carry (16 bytes
/// per entry keeps the frame inside [`MAX_FRAME`] with headroom).
pub const MAX_SCAN_ENTRIES: usize = 32_768;

/// A client→server request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read one key.
    Get {
        /// Key to read.
        key: i64,
    },
    /// Insert or update one key.
    Put {
        /// Key to write.
        key: i64,
        /// Value to store.
        value: i64,
    },
    /// Remove one key.
    Remove {
        /// Key to remove.
        key: i64,
    },
    /// Atomically add `delta` to a key's value.
    Incr {
        /// Key to update.
        key: i64,
        /// Amount to add.
        delta: i64,
    },
    /// Read up to `limit` consecutive keys starting at `lo` (the
    /// server additionally clamps `limit` to its configured maximum).
    Scan {
        /// First key of the window (inclusive).
        lo: i64,
        /// End of the window (exclusive).
        hi: i64,
        /// Maximum entries to return.
        limit: u32,
    },
    /// Liveness probe.
    Ping,
    /// Server-side counters (footprint, navigator, trace loss).
    Stats,
}

/// A server→client response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Result of Get/Put/Remove/Incr: the read, previous, or updated
    /// value (`None` when the key was absent).
    Value(Option<i64>),
    /// Result of Scan: `(key, value)` pairs in key order.
    Entries(Vec<(i64, i64)>),
    /// Reply to Ping.
    Pong,
    /// Reply to Stats.
    Stats(StatsReply),
    /// A typed failure — the wire-visible face of the ERA navigator's
    /// admission control.
    Error(ErrorReply),
}

/// Server counters carried by [`Response::Stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Retired-but-unreclaimed nodes right now, summed over shards.
    pub retired_now: u64,
    /// Peak retired population (sum of per-shard peaks).
    pub retired_peak: u64,
    /// Nodes ever retired.
    pub total_retired: u64,
    /// Nodes ever reclaimed.
    pub total_reclaimed: u64,
    /// Writes shed by admission control (store + net layer).
    pub sheds: u64,
    /// Navigator health transitions.
    pub transitions: u64,
    /// Navigator neutralizations.
    pub neutralizations: u64,
    /// Trace events lost to ring overwrites (server-side, all
    /// recorders) — `net_bench` prints it, so ring truncation is never
    /// silent on the serving path.
    pub trace_dropped: u64,
    /// Per-shard health class (`era_kv::ShardHealth` as `u8`), in
    /// shard order; doubles as the shard count.
    pub health: Vec<u8>,
}

/// Error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The target shard is Violating/Quarantined (or its bounded
    /// admission queue is full): the write was shed. Retry after the
    /// frame's `retry_after_ms`.
    Overloaded = 1,
    /// The write was queued while the shard was Degrading but did not
    /// land within the server's bounded deadline.
    DeadlineExceeded = 2,
    /// The request frame did not decode; the server closes the
    /// connection after sending this (framing is unrecoverable).
    Malformed = 3,
}

impl ErrorCode {
    /// Decodes the wire byte.
    pub fn from_u8(raw: u8) -> Option<ErrorCode> {
        match raw {
            1 => Some(ErrorCode::Overloaded),
            2 => Some(ErrorCode::DeadlineExceeded),
            3 => Some(ErrorCode::Malformed),
            _ => None,
        }
    }

    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Malformed => "malformed",
        }
    }
}

/// Body of [`Response::Error`]: a typed failure with a backoff hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrorReply {
    /// What failed.
    pub code: ErrorCode,
    /// The shard admission control acted on (`u32::MAX` when the
    /// error is not shard-scoped, e.g. `Malformed`).
    pub shard: u32,
    /// Suggested client backoff before retrying, in milliseconds —
    /// the protocol's `Retry-After`.
    pub retry_after_ms: u32,
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// The opcode byte names no known request/response.
    UnknownOpcode(u8),
    /// The body ended before the named field.
    Truncated(&'static str),
    /// The body had bytes left over after the last field.
    TrailingBytes(usize),
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// The frame has no opcode byte.
    EmptyFrame,
    /// An entry count that cannot fit the remaining body.
    BadCount(&'static str),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtoError::Truncated(field) => write!(f, "frame truncated at {field}"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after last field"),
            ProtoError::Oversized(len) => {
                write!(f, "length {len} exceeds MAX_FRAME ({MAX_FRAME})")
            }
            ProtoError::EmptyFrame => write!(f, "frame carries no opcode"),
            ProtoError::BadCount(what) => write!(f, "{what} count does not fit the frame"),
        }
    }
}

impl std::error::Error for ProtoError {}

// Request opcodes (< 0x80).
const OP_GET: u8 = 0x01;
const OP_PUT: u8 = 0x02;
const OP_REMOVE: u8 = 0x03;
const OP_INCR: u8 = 0x04;
const OP_SCAN: u8 = 0x05;
const OP_PING: u8 = 0x06;
const OP_STATS: u8 = 0x07;

// Response opcodes (>= 0x80).
const OP_VALUE: u8 = 0x81;
const OP_ENTRIES: u8 = 0x82;
const OP_PONG: u8 = 0x83;
const OP_STATS_REPLY: u8 = 0x84;
const OP_ERROR: u8 = 0x85;

/// Strict little parser over a frame body.
struct Body<'a> {
    bytes: &'a [u8],
}

impl<'a> Body<'a> {
    fn new(bytes: &'a [u8]) -> Body<'a> {
        Body { bytes }
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, ProtoError> {
        let (&b, rest) = self
            .bytes
            .split_first()
            .ok_or(ProtoError::Truncated(field))?;
        self.bytes = rest;
        Ok(b)
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, ProtoError> {
        if self.bytes.len() < 4 {
            return Err(ProtoError::Truncated(field));
        }
        let (head, rest) = self.bytes.split_at(4);
        self.bytes = rest;
        Ok(u32::from_be_bytes(head.try_into().expect("4-byte split")))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, ProtoError> {
        if self.bytes.len() < 8 {
            return Err(ProtoError::Truncated(field));
        }
        let (head, rest) = self.bytes.split_at(8);
        self.bytes = rest;
        Ok(u64::from_be_bytes(head.try_into().expect("8-byte split")))
    }

    fn i64(&mut self, field: &'static str) -> Result<i64, ProtoError> {
        Ok(self.u64(field)? as i64)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes(self.bytes.len()))
        }
    }
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&(v as u64).to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Patches the 4-byte length prefix reserved at `frame_start`.
fn seal_frame(out: &mut [u8], frame_start: usize) {
    let len = (out.len() - frame_start - 4) as u32;
    out[frame_start..frame_start + 4].copy_from_slice(&len.to_be_bytes());
}

impl Request {
    /// Appends this request as one complete frame (length prefix
    /// included) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        match *self {
            Request::Get { key } => {
                out.push(OP_GET);
                put_i64(out, key);
            }
            Request::Put { key, value } => {
                out.push(OP_PUT);
                put_i64(out, key);
                put_i64(out, value);
            }
            Request::Remove { key } => {
                out.push(OP_REMOVE);
                put_i64(out, key);
            }
            Request::Incr { key, delta } => {
                out.push(OP_INCR);
                put_i64(out, key);
                put_i64(out, delta);
            }
            Request::Scan { lo, hi, limit } => {
                out.push(OP_SCAN);
                put_i64(out, lo);
                put_i64(out, hi);
                put_u32(out, limit);
            }
            Request::Ping => out.push(OP_PING),
            Request::Stats => out.push(OP_STATS),
        }
        seal_frame(out, start);
    }

    /// Decodes one frame payload (opcode + body, no length prefix).
    ///
    /// # Errors
    ///
    /// Any [`ProtoError`]: unknown opcode, truncation, trailing bytes.
    pub fn decode(frame: &[u8]) -> Result<Request, ProtoError> {
        let (&op, body) = frame.split_first().ok_or(ProtoError::EmptyFrame)?;
        let mut b = Body::new(body);
        let req = match op {
            OP_GET => Request::Get {
                key: b.i64("get.key")?,
            },
            OP_PUT => Request::Put {
                key: b.i64("put.key")?,
                value: b.i64("put.value")?,
            },
            OP_REMOVE => Request::Remove {
                key: b.i64("remove.key")?,
            },
            OP_INCR => Request::Incr {
                key: b.i64("incr.key")?,
                delta: b.i64("incr.delta")?,
            },
            OP_SCAN => Request::Scan {
                lo: b.i64("scan.lo")?,
                hi: b.i64("scan.hi")?,
                limit: b.u32("scan.limit")?,
            },
            OP_PING => Request::Ping,
            OP_STATS => Request::Stats,
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        b.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Appends this response as one complete frame (length prefix
    /// included) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        match self {
            Response::Value(v) => {
                out.push(OP_VALUE);
                match v {
                    Some(v) => {
                        out.push(1);
                        put_i64(out, *v);
                    }
                    None => out.push(0),
                }
            }
            Response::Entries(entries) => {
                out.push(OP_ENTRIES);
                put_u32(out, entries.len() as u32);
                for &(k, v) in entries {
                    put_i64(out, k);
                    put_i64(out, v);
                }
            }
            Response::Pong => out.push(OP_PONG),
            Response::Stats(s) => {
                out.push(OP_STATS_REPLY);
                put_u64(out, s.retired_now);
                put_u64(out, s.retired_peak);
                put_u64(out, s.total_retired);
                put_u64(out, s.total_reclaimed);
                put_u64(out, s.sheds);
                put_u64(out, s.transitions);
                put_u64(out, s.neutralizations);
                put_u64(out, s.trace_dropped);
                put_u32(out, s.health.len() as u32);
                out.extend_from_slice(&s.health);
            }
            Response::Error(e) => {
                out.push(OP_ERROR);
                out.push(e.code as u8);
                put_u32(out, e.shard);
                put_u32(out, e.retry_after_ms);
            }
        }
        seal_frame(out, start);
    }

    /// Decodes one frame payload (opcode + body, no length prefix).
    ///
    /// # Errors
    ///
    /// Any [`ProtoError`]: unknown opcode, truncation, trailing
    /// bytes, or an entry/health count that cannot fit the body.
    pub fn decode(frame: &[u8]) -> Result<Response, ProtoError> {
        let (&op, body) = frame.split_first().ok_or(ProtoError::EmptyFrame)?;
        let mut b = Body::new(body);
        let resp = match op {
            OP_VALUE => match b.u8("value.flag")? {
                0 => Response::Value(None),
                _ => Response::Value(Some(b.i64("value.value")?)),
            },
            OP_ENTRIES => {
                let n = b.u32("entries.count")? as usize;
                // The count must exactly fit the remaining body: a
                // corrupted count can neither over-allocate nor leave
                // unread bytes behind.
                if n > MAX_SCAN_ENTRIES || b.bytes.len() != n * 16 {
                    return Err(ProtoError::BadCount("entries"));
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = b.i64("entries.key")?;
                    let v = b.i64("entries.value")?;
                    entries.push((k, v));
                }
                Response::Entries(entries)
            }
            OP_PONG => Response::Pong,
            OP_STATS_REPLY => {
                let retired_now = b.u64("stats.retired_now")?;
                let retired_peak = b.u64("stats.retired_peak")?;
                let total_retired = b.u64("stats.total_retired")?;
                let total_reclaimed = b.u64("stats.total_reclaimed")?;
                let sheds = b.u64("stats.sheds")?;
                let transitions = b.u64("stats.transitions")?;
                let neutralizations = b.u64("stats.neutralizations")?;
                let trace_dropped = b.u64("stats.trace_dropped")?;
                let n = b.u32("stats.shards")? as usize;
                if b.bytes.len() != n {
                    return Err(ProtoError::BadCount("stats.health"));
                }
                let health = b.bytes.to_vec();
                b.bytes = &[];
                Response::Stats(StatsReply {
                    retired_now,
                    retired_peak,
                    total_retired,
                    total_reclaimed,
                    sheds,
                    transitions,
                    neutralizations,
                    trace_dropped,
                    health,
                })
            }
            OP_ERROR => {
                let code = b.u8("error.code")?;
                let code = ErrorCode::from_u8(code).ok_or(ProtoError::UnknownOpcode(code))?;
                Response::Error(ErrorReply {
                    code,
                    shard: b.u32("error.shard")?,
                    retry_after_ms: b.u32("error.retry_after_ms")?,
                })
            }
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        b.finish()?;
        Ok(resp)
    }
}

/// Validates a length prefix: the payload length it announces, or
/// [`ProtoError::Oversized`] for zero and for anything past
/// [`MAX_FRAME`]. The one prefix rule, shared by [`split_frame`] and
/// [`read_frame`].
fn frame_len(prefix: [u8; 4]) -> Result<usize, ProtoError> {
    let len = u32::from_be_bytes(prefix) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(ProtoError::Oversized(len));
    }
    Ok(len)
}

/// What [`split_frame`] hands out: a frame's payload and the bytes
/// after it, both borrowed from the buffer that was split.
pub type Split<'a> = (&'a [u8], &'a [u8]);

/// Splits the first complete frame off the front of `buf` without
/// copying: `Ok(Some((payload, rest)))` borrows the payload (opcode +
/// body, prefix stripped) and everything after it. `Ok(None)` means
/// `buf` does not hold a whole frame yet — fewer than four prefix
/// bytes, or a body still in flight — and the caller should read more.
///
/// # Errors
///
/// [`ProtoError::Oversized`] for a zero prefix or one beyond
/// [`MAX_FRAME`], as soon as the four prefix bytes are present.
pub fn split_frame(buf: &[u8]) -> Result<Option<Split<'_>>, ProtoError> {
    let Some((prefix, rest)) = buf.split_first_chunk::<4>() else {
        return Ok(None);
    };
    let len = frame_len(*prefix)?;
    Ok(rest.split_at_checked(len))
}

/// Reads one length-prefixed frame payload from `r` into `scratch`
/// and returns it (opcode + body, prefix stripped). `Ok(None)` means
/// the peer closed the stream cleanly at a frame boundary.
///
/// # Errors
///
/// `UnexpectedEof` on a mid-frame close, `InvalidData` on a length
/// prefix beyond [`MAX_FRAME`] or below 1, and any transport error
/// (including `WouldBlock`/`TimedOut` from a read timeout, which
/// callers that poll a stop flag handle themselves).
pub fn read_frame<'b, R: Read>(
    r: &mut R,
    scratch: &'b mut Vec<u8>,
) -> io::Result<Option<&'b [u8]>> {
    // One `read` for the whole prefix: on a socket it almost always
    // arrives together, and every call here is a syscall for the
    // clients that read a bare `TcpStream`.
    let mut prefix = [0u8; 4];
    match r.read(&mut prefix)? {
        0 => return Ok(None),
        n => r.read_exact(&mut prefix[n..])?,
    }
    let len = frame_len(prefix).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    scratch.clear();
    scratch.resize(len, 0);
    r.read_exact(scratch)?;
    Ok(Some(scratch.as_slice()))
}

/// Encodes `req` and writes it as one frame.
///
/// # Errors
///
/// Any transport error from `w`.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> io::Result<()> {
    let mut buf = Vec::with_capacity(32);
    req.encode(&mut buf);
    w.write_all(&buf)
}

/// Encodes `resp` and writes it as one frame.
///
/// # Errors
///
/// Any transport error from `w`.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> io::Result<()> {
    let mut buf = Vec::with_capacity(64);
    resp.encode(&mut buf);
    w.write_all(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip(frame: &[u8]) -> &[u8] {
        assert!(frame.len() >= 5, "frame has prefix + opcode");
        let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4, "length prefix counts the payload");
        &frame[4..]
    }

    #[test]
    fn request_roundtrip_all_variants() {
        let reqs = [
            Request::Get { key: -3 },
            Request::Put {
                key: i64::MIN,
                value: i64::MAX,
            },
            Request::Remove { key: 0 },
            Request::Incr { key: 7, delta: -9 },
            Request::Scan {
                lo: -10,
                hi: 10,
                limit: 128,
            },
            Request::Ping,
            Request::Stats,
        ];
        for req in reqs {
            let mut buf = Vec::new();
            req.encode(&mut buf);
            assert_eq!(Request::decode(strip(&buf)), Ok(req.clone()), "{req:?}");
        }
    }

    #[test]
    fn response_roundtrip_all_variants() {
        let resps = [
            Response::Value(None),
            Response::Value(Some(-1)),
            Response::Entries(vec![]),
            Response::Entries(vec![(1, 10), (2, -20)]),
            Response::Pong,
            Response::Stats(StatsReply {
                retired_now: 1,
                retired_peak: 2,
                total_retired: 3,
                total_reclaimed: 4,
                sheds: 5,
                transitions: 6,
                neutralizations: 7,
                trace_dropped: 8,
                health: vec![0, 1, 2, 3],
            }),
            Response::Error(ErrorReply {
                code: ErrorCode::Overloaded,
                shard: 3,
                retry_after_ms: 50,
            }),
        ];
        for resp in resps {
            let mut buf = Vec::new();
            resp.encode(&mut buf);
            assert_eq!(Response::decode(strip(&buf)), Ok(resp.clone()), "{resp:?}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Request::decode(&[]), Err(ProtoError::EmptyFrame));
        assert_eq!(
            Request::decode(&[0xff]),
            Err(ProtoError::UnknownOpcode(0xff))
        );
        assert_eq!(
            Request::decode(&[OP_GET, 1, 2]),
            Err(ProtoError::Truncated("get.key"))
        );
        let mut buf = Vec::new();
        Request::Ping.encode(&mut buf);
        buf.push(0xAB); // trailing garbage inside the (re-sealed) frame
        assert_eq!(
            Request::decode(&buf[4..]),
            Err(ProtoError::TrailingBytes(1))
        );
        // Entries count that does not match the body length.
        let mut bad = vec![OP_ENTRIES];
        bad.extend_from_slice(&100u32.to_be_bytes());
        assert_eq!(Response::decode(&bad), Err(ProtoError::BadCount("entries")));
    }

    #[test]
    fn frame_reader_roundtrip_and_limits() {
        let mut wire = Vec::new();
        Request::Put { key: 1, value: 2 }.encode(&mut wire);
        Request::Ping.encode(&mut wire);
        let mut cursor = io::Cursor::new(wire);
        let mut scratch = Vec::new();
        let f1 = read_frame(&mut cursor, &mut scratch).unwrap().unwrap();
        assert_eq!(Request::decode(f1), Ok(Request::Put { key: 1, value: 2 }));
        let f2 = read_frame(&mut cursor, &mut scratch).unwrap().unwrap();
        assert_eq!(Request::decode(f2), Ok(Request::Ping));
        assert!(read_frame(&mut cursor, &mut scratch).unwrap().is_none());

        // Oversized and zero-length prefixes are refused before any
        // allocation happens.
        for bad_len in [0u32, (MAX_FRAME as u32) + 1, u32::MAX] {
            let mut bytes = bad_len.to_be_bytes().to_vec();
            bytes.push(OP_PING);
            let mut cursor = io::Cursor::new(bytes);
            let err = read_frame(&mut cursor, &mut scratch).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad_len}");
        }

        // A mid-frame close is an UnexpectedEof, not a clean None.
        let mut wire = Vec::new();
        Request::Put { key: 1, value: 2 }.encode(&mut wire);
        wire.truncate(wire.len() - 3);
        let mut cursor = io::Cursor::new(wire);
        let err = read_frame(&mut cursor, &mut scratch).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frame_reader_reads_the_prefix_in_one_call() {
        /// Counts the `read` calls that reach the transport.
        struct Counting<R>(R, usize);
        impl<R: Read> Read for Counting<R> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1 += 1;
                self.0.read(buf)
            }
        }
        let mut wire = Vec::new();
        Request::Put { key: 1, value: 2 }.encode(&mut wire);
        let mut r = Counting(io::Cursor::new(wire), 0);
        let mut scratch = Vec::new();
        assert!(read_frame(&mut r, &mut scratch).unwrap().is_some());
        assert_eq!(r.1, 2, "one read for the prefix, one for the body");

        // A prefix that trickles in is still assembled correctly.
        struct OneByte<R>(R);
        impl<R: Read> Read for OneByte<R> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = buf.len().min(1);
                self.0.read(&mut buf[..n])
            }
        }
        let mut wire = Vec::new();
        Request::Get { key: -9 }.encode(&mut wire);
        let mut r = OneByte(io::Cursor::new(wire));
        let frame = read_frame(&mut r, &mut scratch).unwrap().unwrap();
        assert_eq!(Request::decode(frame), Ok(Request::Get { key: -9 }));
    }

    #[test]
    fn max_request_frame_is_the_longest_encoding() {
        let reqs = [
            Request::Get { key: i64::MIN },
            Request::Put {
                key: i64::MIN,
                value: i64::MAX,
            },
            Request::Remove { key: i64::MAX },
            Request::Incr {
                key: i64::MAX,
                delta: i64::MIN,
            },
            Request::Scan {
                lo: i64::MIN,
                hi: i64::MAX,
                limit: u32::MAX,
            },
            Request::Ping,
            Request::Stats,
        ];
        let longest = reqs
            .iter()
            .map(|req| {
                let mut buf = Vec::new();
                req.encode(&mut buf);
                strip(&buf).len()
            })
            .max();
        assert_eq!(longest, Some(MAX_REQUEST_FRAME));
    }

    #[test]
    fn split_frame_borrows_whole_frames_and_waits_for_partial_ones() {
        let mut wire = Vec::new();
        Request::Put { key: 1, value: 2 }.encode(&mut wire);
        let first = wire.len();
        Request::Ping.encode(&mut wire);

        let (payload, rest) = split_frame(&wire).unwrap().unwrap();
        assert_eq!(payload, &wire[4..first]);
        assert_eq!(rest, &wire[first..]);
        let (payload, rest) = split_frame(rest).unwrap().unwrap();
        assert_eq!(Request::decode(payload), Ok(Request::Ping));
        assert!(rest.is_empty());

        // Every strict prefix of one frame is "not yet", never an error.
        for cut in 0..first {
            assert_eq!(split_frame(&wire[..cut]), Ok(None), "cut at {cut}");
        }

        // The prefix rule is read_frame's: refused as soon as it is
        // readable, body or no body.
        for bad_len in [0u32, (MAX_FRAME as u32) + 1, u32::MAX] {
            assert_eq!(
                split_frame(&bad_len.to_be_bytes()),
                Err(ProtoError::Oversized(bad_len as usize))
            );
        }
        assert_eq!(split_frame(&(MAX_FRAME as u32).to_be_bytes()), Ok(None));
    }
}
