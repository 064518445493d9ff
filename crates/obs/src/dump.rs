//! How an [`Event`] becomes bytes, in memory and on disk: the packed
//! segment codec, and the `.eraflt` flight-dump format built on it.
//!
//! A **segment** is a buffer of packed events. An event is a tag byte
//! plus only the fields that changed since the last event with its
//! hook — one or two bytes for most, where an [`Event`] is 32 — and
//! every segment decodes from zeroed delta bases, so each decodes on
//! its own. A recorder's log retains its events as a queue of
//! segments ([`crate::flight`]); a dump stores a source's events as
//! segments packed by the same code.
//!
//! A **dump** is what the flight recorder writes on panic or on an
//! explicit snapshot, and what the `era-view` CLI reads back. The
//! format is designed for post-mortems, not IPC:
//!
//! - **Versioned header** — the 6-byte magic `ERAFLT` and a big-endian
//!   `u16` version, so a reader refuses another format instead of
//!   misparsing it. The golden-fixture test pins the byte layout.
//! - **Per source** — the label (a length-prefixed UTF-8 string), the
//!   drop and trim counts, the event segments, then a metrics block and
//!   a stats block, each behind a presence byte. A segment is
//!   `varint(events) varint(byte_len)` and its packed bytes. Hook bytes
//!   are stored raw, so a hook a reader does not know survives (and
//!   `era-view` renders it escaped); `hook_counts` is length-prefixed,
//!   so appending a hook keeps older dumps decodable.
//! - **Merged on decode** — the decoder sorts each source's events by
//!   [`Event::merge_key`], the key a recorder's drain and a flight
//!   snapshot sort by. The sort is stable and events with equal keys
//!   come from one thread, so a merged log comes back in exactly the
//!   order it went in.
//! - **Honest truncation** — every source carries its cumulative
//!   ring-overwrite drop count and its cap-trim count, so a truncated
//!   trace can never silently read as complete.
//!
//! The file is outside input: the decoder bounds every count by the
//! bytes left before it allocates, and a corrupt field is a
//! [`DumpError`] naming it, never a panic. Encoding and decoding
//! round-trip losslessly (property-tested in `tests/dump_roundtrip.rs`).

use std::collections::VecDeque;
use std::fmt;

use crate::event::{Event, Hook, SchemeId};
use crate::metrics::{HistogramSnapshot, Metrics, HISTOGRAM_BUCKETS};

/// The 6-byte magic prefix of every `.eraflt` file.
pub const DUMP_MAGIC: &[u8; 6] = b"ERAFLT";

/// Current format version (big-endian `u16` following the magic).
pub const DUMP_VERSION: u16 = 2;

/// Decoding failure: why a byte stream is not a readable dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DumpError {
    /// The file does not start with [`DUMP_MAGIC`].
    BadMagic,
    /// The version field names a format this reader does not know.
    UnsupportedVersion(u16),
    /// The payload ended before a field it promised.
    Truncated(&'static str),
    /// A varint ran past 10 bytes (not produced by any writer).
    Overlong,
    /// A source label is not valid UTF-8.
    BadUtf8,
    /// A structural count is implausibly large for the input size, or
    /// disagrees with the bytes it covers (corrupt length field;
    /// refused before allocating).
    BadCount(&'static str),
    /// A field holds a value outside the range of what it names.
    OutOfRange(&'static str),
}

impl fmt::Display for DumpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DumpError::BadMagic => write!(f, "not an .eraflt file (bad magic)"),
            DumpError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported dump version {v} (reader knows {DUMP_VERSION})"
                )
            }
            DumpError::Truncated(what) => write!(f, "dump truncated while reading {what}"),
            DumpError::Overlong => write!(f, "overlong varint"),
            DumpError::BadUtf8 => write!(f, "source label is not valid UTF-8"),
            DumpError::BadCount(what) => write!(f, "implausible count for {what}"),
            DumpError::OutOfRange(what) => write!(f, "{what} out of range"),
        }
    }
}

impl std::error::Error for DumpError {}

/// Scheme footprint counters carried in a dump — a dependency-free
/// mirror of `era_smr::SmrStats` (era-obs sits *below* era-smr in the
/// workspace graph, so the flight layer re-declares the shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DumpStats {
    /// Nodes retired and not yet reclaimed at snapshot time.
    pub retired_now: u64,
    /// High-water mark of the retired population.
    pub retired_peak: u64,
    /// Total retire calls.
    pub total_retired: u64,
    /// Total nodes reclaimed.
    pub total_reclaimed: u64,
    /// Global era/epoch at snapshot time (0 for schemes without one).
    pub era: u64,
}

/// An owned snapshot of a [`Metrics`] block, as serialized per source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsDump {
    /// Per-hook call counts, indexed by [`Hook`] discriminant.
    pub hook_counts: Vec<u64>,
    /// Footprint high-water mark.
    pub footprint_peak: u64,
    /// Per-thread-slot blame counters.
    pub blame: Vec<u64>,
    /// Retire→reclaim latency histogram.
    pub latency: HistogramSnapshot,
}

impl MetricsDump {
    /// Snapshots a live metrics block.
    pub fn capture(metrics: &Metrics) -> MetricsDump {
        MetricsDump {
            hook_counts: Hook::ALL.iter().map(|&h| metrics.hook_count(h)).collect(),
            footprint_peak: metrics.footprint_peak.get(),
            blame: metrics.blame_counts(),
            latency: metrics.reclaim_latency.snapshot(),
        }
    }

    /// Call count for `hook` (0 when the dump predates the hook).
    pub fn hook_count(&self, hook: Hook) -> u64 {
        self.hook_counts
            .get(hook as u8 as usize)
            .copied()
            .unwrap_or(0)
    }
}

/// One trace source inside a dump: a label (scheme or shard name), its
/// drained events, and the metrics/stats that were attached to it.
///
/// Sources have independent logical clocks — timestamps are comparable
/// *within* a source, not across sources — so the viewer merges
/// per-source, never globally.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceDump {
    /// Human-readable source label ("EBR", "shard3", …).
    pub label: String,
    /// Cumulative events lost to ring overwrite before this snapshot
    /// (0 since rings are packed before they are overwritten, E33).
    pub dropped: u64,
    /// Events trimmed off the front by the flight recorder's retention
    /// cap (they happened, were kept, and were then let go to keep
    /// the newest — distinct from `dropped`, which the recorder never
    /// saw at all).
    pub trimmed: u64,
    /// Recorded events in ascending [`Event::merge_key`] order.
    pub events: Vec<Event>,
    /// Aggregate metrics of the source's recorder, when captured.
    pub metrics: Option<MetricsDump>,
    /// Scheme counters (`SmrStats` mirror), when the caller supplied
    /// them via `FlightRecorder::set_stats`.
    pub stats: Option<DumpStats>,
}

impl SourceDump {
    /// An empty source with just a label.
    pub fn new(label: &str) -> SourceDump {
        SourceDump {
            label: label.to_string(),
            dropped: 0,
            trimmed: 0,
            events: Vec::new(),
            metrics: None,
            stats: None,
        }
    }
}

/// A decoded (or about-to-be-encoded) flight dump.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightDump {
    /// Wall-clock milliseconds since the Unix epoch at snapshot time
    /// (0 when the writer had no clock).
    pub wall_unix_ms: u64,
    /// The trace sources.
    pub sources: Vec<SourceDump>,
}

impl FlightDump {
    /// An empty dump.
    pub fn new() -> FlightDump {
        FlightDump::default()
    }

    /// Total events across all sources.
    pub fn event_count(&self) -> usize {
        self.sources.iter().map(|s| s.events.len()).sum()
    }

    /// Total ring-overwrite drops across all sources. Non-zero means
    /// the dump is *known incomplete* — surface it.
    pub fn total_dropped(&self) -> u64 {
        self.sources.iter().map(|s| s.dropped).sum()
    }

    /// Total cap-trimmed events across all sources.
    pub fn total_trimmed(&self) -> u64 {
        self.sources.iter().map(|s| s.trimmed).sum()
    }

    /// Serializes the dump at [`DUMP_VERSION`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(DUMP_MAGIC);
        out.extend_from_slice(&DUMP_VERSION.to_be_bytes());
        put_varint(&mut out, self.wall_unix_ms);
        put_varint(&mut out, self.sources.len() as u64);
        for source in &self.sources {
            encode_source(&mut out, source);
        }
        out
    }

    /// Parses a dump from bytes.
    ///
    /// # Errors
    ///
    /// Any [`DumpError`]: wrong magic, another version, or a payload
    /// that is truncated or internally inconsistent.
    pub fn decode(bytes: &[u8]) -> Result<FlightDump, DumpError> {
        if bytes.len() < 8 {
            return Err(DumpError::Truncated("header"));
        }
        if &bytes[..6] != DUMP_MAGIC {
            return Err(DumpError::BadMagic);
        }
        let version = u16::from_be_bytes([bytes[6], bytes[7]]);
        if version != DUMP_VERSION {
            return Err(DumpError::UnsupportedVersion(version));
        }
        let mut r = Reader::new(&bytes[8..]);
        let wall_unix_ms = r.varint("wall_unix_ms")?;
        let source_count = r.varint("source count")?;
        if source_count > r.remaining() as u64 {
            return Err(DumpError::BadCount("sources"));
        }
        let mut sources = Vec::with_capacity(source_count as usize);
        for _ in 0..source_count {
            sources.push(decode_source(&mut r)?);
        }
        Ok(FlightDump {
            wall_unix_ms,
            sources,
        })
    }
}

fn encode_source(buf: &mut Vec<u8>, source: &SourceDump) {
    put_varint(buf, source.label.len() as u64);
    buf.extend_from_slice(source.label.as_bytes());
    put_varint(buf, source.dropped);
    put_varint(buf, source.trimmed);

    let (mut segments, mut bases) = (VecDeque::new(), Bases::default());
    for e in &source.events {
        pack(&mut segments, &mut bases, e, || {
            Vec::with_capacity(SEGMENT_BYTES)
        });
    }
    put_varint(buf, segments.len() as u64);
    for segment in &segments {
        put_varint(buf, segment.events as u64);
        put_varint(buf, segment.bytes.len() as u64);
        buf.extend_from_slice(&segment.bytes);
    }

    match &source.metrics {
        None => buf.push(0),
        Some(m) => {
            buf.push(1);
            put_varint(buf, m.hook_counts.len() as u64);
            for c in &m.hook_counts {
                put_varint(buf, *c);
            }
            put_varint(buf, m.footprint_peak);
            put_varint(buf, m.blame.len() as u64);
            for c in &m.blame {
                put_varint(buf, *c);
            }
            // Sparse histogram: (bucket_index, count) pairs.
            let nonzero: Vec<(usize, u64)> = m
                .latency
                .counts()
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(k, &c)| (k, c))
                .collect();
            put_varint(buf, nonzero.len() as u64);
            for (k, c) in nonzero {
                put_varint(buf, k as u64);
                put_varint(buf, c);
            }
        }
    }

    match &source.stats {
        None => buf.push(0),
        Some(s) => {
            buf.push(1);
            put_varint(buf, s.retired_now);
            put_varint(buf, s.retired_peak);
            put_varint(buf, s.total_retired);
            put_varint(buf, s.total_reclaimed);
            put_varint(buf, s.era);
        }
    }
}

fn decode_source(r: &mut Reader<'_>) -> Result<SourceDump, DumpError> {
    let len = r.varint("source label")?;
    let label =
        String::from_utf8(r.take(len, "source label")?.to_vec()).map_err(|_| DumpError::BadUtf8)?;
    let dropped = r.varint("source dropped")?;
    let trimmed = r.varint("source trimmed")?;

    let segments = r.varint("segment count")?;
    if segments > r.remaining() as u64 {
        return Err(DumpError::BadCount("segments"));
    }
    let mut events: Vec<Event> = Vec::new();
    for _ in 0..segments {
        let count = r.varint("segment events")?;
        let len = r.varint("segment bytes")?;
        let mut packed = Reader::new(r.take(len, "segment bytes")?);
        // Every packed event takes at least its tag byte.
        if count > len {
            return Err(DumpError::BadCount("segment events"));
        }
        let mut bases = Bases::default();
        for _ in 0..count {
            events.push(unpack(&mut packed, &mut bases)?);
        }
        if packed.remaining() != 0 {
            return Err(DumpError::BadCount("segment bytes"));
        }
    }
    // Restore the merged per-source timeline: the mirror of the sort
    // in `Recorder::drain`. Stable, and events with equal keys come
    // from one thread, so they keep their log order.
    events.sort_by_key(Event::merge_key);

    let metrics = match r.byte("metrics flag")? {
        0 => None,
        _ => {
            let n = r.varint("hook count len")?;
            if n > r.remaining() as u64 {
                return Err(DumpError::BadCount("hook counts"));
            }
            let mut hook_counts = Vec::with_capacity(n as usize);
            for _ in 0..n {
                hook_counts.push(r.varint("hook count")?);
            }
            let footprint_peak = r.varint("footprint peak")?;
            let n = r.varint("blame len")?;
            if n > r.remaining() as u64 {
                return Err(DumpError::BadCount("blame counters"));
            }
            let mut blame = Vec::with_capacity(n as usize);
            for _ in 0..n {
                blame.push(r.varint("blame counter")?);
            }
            let pairs = r.varint("latency bucket pairs")?;
            let mut counts = [0u64; HISTOGRAM_BUCKETS];
            for _ in 0..pairs {
                let k = r.varint("latency bucket index")?;
                let c = r.varint("latency bucket count")?;
                *usize::try_from(k)
                    .ok()
                    .and_then(|k| counts.get_mut(k))
                    .ok_or(DumpError::OutOfRange("latency bucket index"))? = c;
            }
            Some(MetricsDump {
                hook_counts,
                footprint_peak,
                blame,
                latency: HistogramSnapshot::from_counts(counts),
            })
        }
    };

    let stats = match r.byte("stats flag")? {
        0 => None,
        _ => Some(DumpStats {
            retired_now: r.varint("retired_now")?,
            retired_peak: r.varint("retired_peak")?,
            total_retired: r.varint("total_retired")?,
            total_reclaimed: r.varint("total_reclaimed")?,
            era: r.varint("era")?,
        }),
    };

    Ok(SourceDump {
        label,
        dropped,
        trimmed,
        events,
        metrics,
        stats,
    })
}

// ----- packed segments --------------------------------------------------

/// Bytes in one segment of packed events.
const SEGMENT_BYTES: usize = 64 * 1024;

/// The most bytes one packed event takes: the tag, an escaped hook
/// byte, a 10-byte ts delta, a 3-byte thread, the scheme byte and two
/// 10-byte word deltas.
pub(crate) const MAX_PACKED_EVENT: usize = 1 + 1 + 10 + 3 + 1 + 10 + 10;

/// A tag's low nibble is the hook, or this: the raw hook byte follows
/// (hooks from 15 on, and any hook a newer writer added).
const ESCAPE: u8 = 15;
/// A tag's presence bits: which fields follow it, in this order.
const HAS_TS: u8 = 1 << 4;
const HAS_WHO: u8 = 1 << 5;
const HAS_A: u8 = 1 << 6;
const HAS_B: u8 = 1 << 7;

/// The last event with a given hook: what the next one is packed
/// against.
#[derive(Debug, Clone, Copy, Default)]
struct Base {
    thread: u16,
    scheme: u8,
    a: u64,
    b: u64,
}

/// The delta bases within one segment: the last event's `ts`, and a
/// [`Base`] per hook slot (`hook & 31`: a raw hook past 31 shares a
/// slot, which costs bytes, never an event). Every segment starts from
/// the zeroed default, so each decodes without its predecessor.
#[derive(Debug, Default)]
pub(crate) struct Bases {
    ts: u64,
    hooks: [Base; 32],
}

/// Packs `value` as its zigzagged delta off `base` unless that is 0,
/// makes `value` the new base, and says whether it packed anything.
/// Zigzag, because `ts` may step back a few ticks between polls (an
/// event stamped before one poll but pushed after it is drained by the
/// next), and such a step should cost a byte, not ten.
#[inline]
fn put_delta(
    out: &mut [u8; MAX_PACKED_EVENT],
    len: &mut usize,
    value: u64,
    base: &mut u64,
) -> bool {
    let delta = value.wrapping_sub(*base) as i64;
    *base = value;
    if delta != 0 {
        put_varint_at(out, len, ((delta << 1) ^ (delta >> 63)) as u64);
    }
    delta != 0
}

/// Reads back onto `base` a delta [`put_delta`] packed.
fn take_delta(r: &mut Reader<'_>, what: &'static str, base: &mut u64) -> Result<(), DumpError> {
    let zigzag = r.varint(what)?;
    *base = base.wrapping_add(((zigzag >> 1) as i64 ^ -((zigzag & 1) as i64)) as u64);
    Ok(())
}

/// One fixed-size buffer of packed events. An event is a tag byte — the
/// hook in its low nibble (or [`ESCAPE`] and the raw hook byte after
/// it) and four presence bits — then only the fields that changed: the
/// `ts` delta off the previous event's when it is not 0; thread and
/// scheme when they differ from the last event with the same hook's;
/// `a` and `b` as deltas off that event's ([`put_delta`]). Integers are
/// [`put_varint`] LEB128. An event that repeats the last one of its
/// hook at the same `ts` is the tag alone.
#[derive(Debug)]
struct Segment {
    /// Never past [`SEGMENT_BYTES`], so it never reallocates.
    bytes: Vec<u8>,
    /// Events packed into `bytes`.
    events: usize,
}

impl Segment {
    fn has_room(&self) -> bool {
        self.bytes.len() + MAX_PACKED_EVENT <= SEGMENT_BYTES
    }
}

/// Packs `e` into the newest of `segments` against `bases`, which that
/// segment's events so far left behind, and moves them past it. When
/// that segment is full, or there is none, it first opens one on
/// `fresh`'s buffer and zeroes `bases`.
fn pack(
    segments: &mut VecDeque<Segment>,
    bases: &mut Bases,
    e: &Event,
    fresh: impl FnOnce() -> Vec<u8>,
) {
    if !segments.back().is_some_and(Segment::has_room) {
        segments.push_back(Segment {
            bytes: fresh(),
            events: 0,
        });
        *bases = Bases::default();
    }
    let segment = segments.back_mut().expect("just ensured");
    pack_event(&mut segment.bytes, bases, e);
    segment.events += 1;
}

/// Appends `e` to `bytes`, packed against `bases` (see [`Segment`] for
/// the encoding), and moves `bases` past it. The event is written into
/// room for the longest one and the rest cut off after: owners pack on
/// their emit path, and a push per byte costs them more.
#[inline]
pub(crate) fn pack_event(bytes: &mut Vec<u8>, bases: &mut Bases, e: &Event) {
    let at = bytes.len();
    bytes.resize(at + MAX_PACKED_EVENT, 0);
    let out: &mut [u8; MAX_PACKED_EVENT] = (&mut bytes[at..]).try_into().expect("just resized");
    let mut len = 1;
    let mut tag = e.hook.min(ESCAPE);
    if tag == ESCAPE {
        out[1] = e.hook;
        len = 2;
    }
    if put_delta(out, &mut len, e.ts, &mut bases.ts) {
        tag |= HAS_TS;
    }
    let base = &mut bases.hooks[(e.hook & 31) as usize];
    if (e.thread, e.scheme) != (base.thread, base.scheme) {
        tag |= HAS_WHO;
        put_varint_at(out, &mut len, e.thread as u64);
        out[len] = e.scheme;
        len += 1;
        (base.thread, base.scheme) = (e.thread, e.scheme);
    }
    if put_delta(out, &mut len, e.a, &mut base.a) {
        tag |= HAS_A;
    }
    if put_delta(out, &mut len, e.b, &mut base.b) {
        tag |= HAS_B;
    }
    out[0] = tag;
    bytes.truncate(at + len);
}

/// Appends to `out` the `count` events [`pack_event`] packed into
/// `bytes` from zeroed bases.
pub(crate) fn unpack_into(bytes: &[u8], count: usize, out: &mut Vec<Event>) {
    let mut r = Reader::new(bytes);
    let mut bases = Bases::default();
    out.extend(
        (0..count).map(|_| unpack(&mut r, &mut bases).expect("packed bytes hold whole events")),
    );
}

fn unpack(r: &mut Reader<'_>, bases: &mut Bases) -> Result<Event, DumpError> {
    let tag = r.byte("tag")?;
    let hook = match tag & 0x0f {
        ESCAPE => r.byte("hook")?,
        hook => hook,
    };
    if tag & HAS_TS != 0 {
        take_delta(r, "ts delta", &mut bases.ts)?;
    }
    let base = &mut bases.hooks[(hook & 31) as usize];
    if tag & HAS_WHO != 0 {
        base.thread =
            u16::try_from(r.varint("thread")?).map_err(|_| DumpError::OutOfRange("thread"))?;
        base.scheme = r.byte("scheme")?;
    }
    if tag & HAS_A != 0 {
        take_delta(r, "a", &mut base.a)?;
    }
    if tag & HAS_B != 0 {
        take_delta(r, "b", &mut base.b)?;
    }
    let mut event = Event::new(
        base.thread,
        SchemeId(base.scheme),
        Hook::Sample,
        base.a,
        base.b,
    );
    event.hook = hook;
    event.ts = bases.ts;
    Ok(event)
}

// ----- primitives -------------------------------------------------------

/// Writes `value` as a LEB128 varint at `out[*len..]` and moves `len`
/// past it.
#[inline]
fn put_varint_at(out: &mut [u8; MAX_PACKED_EVENT], len: &mut usize, mut value: u64) {
    while value >= 0x80 {
        out[*len] = value as u8 | 0x80;
        value >>= 7;
        *len += 1;
    }
    out[*len] = value as u8;
    *len += 1;
}

/// Appends `value` as a LEB128 varint (1–10 bytes).
pub fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// A cursor over a decode buffer with named-field error reporting.
#[derive(Debug)]
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn byte(&mut self, what: &'static str) -> Result<u8, DumpError> {
        let b = *self.bytes.get(self.pos).ok_or(DumpError::Truncated(what))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: u64, what: &'static str) -> Result<&'a [u8], DumpError> {
        if (self.remaining() as u64) < n {
            return Err(DumpError::Truncated(what));
        }
        let out = &self.bytes[self.pos..self.pos + n as usize];
        self.pos += n as usize;
        Ok(out)
    }

    fn varint(&mut self, what: &'static str) -> Result<u64, DumpError> {
        let mut value = 0u64;
        for shift in 0..10 {
            let byte = self.byte(what)?;
            value |= ((byte & 0x7f) as u64) << (7 * shift);
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(DumpError::Overlong)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(thread: u16, ts: u64, hook: Hook, a: u64, b: u64) -> Event {
        let mut e = Event::new(thread, SchemeId::EBR, hook, a, b);
        e.ts = ts;
        e
    }

    fn sample_dump() -> FlightDump {
        let mut src = SourceDump::new("EBR");
        src.dropped = 7;
        src.trimmed = 2;
        src.events = vec![
            ev(0, 10, Hook::Retire, 0xdead_beef, 3),
            ev(1, 11, Hook::Fault, 0, 5),
            ev(0, 12, Hook::Adopt, 4, 9),
            ev(1, 20, Hook::Reclaim, 0xdead_beef, 10),
        ];
        src.stats = Some(DumpStats {
            retired_now: 1,
            retired_peak: 12,
            total_retired: 40,
            total_reclaimed: 39,
            era: 6,
        });
        let metrics = Metrics::new(4);
        metrics.hook_block().bump(Hook::Retire, 1);
        metrics.blame(2);
        metrics.footprint_peak.record(12);
        metrics.reclaim_latency.record(5);
        src.metrics = Some(MetricsDump::capture(&metrics));
        FlightDump {
            wall_unix_ms: 1_700_000_000_123,
            sources: vec![src],
        }
    }

    /// A dump of one source whose bytes after `dropped` and `trimmed`
    /// are `rest`.
    fn one_source(rest: &[u8]) -> Vec<u8> {
        let mut bytes = DUMP_MAGIC.to_vec();
        bytes.extend_from_slice(&DUMP_VERSION.to_be_bytes());
        bytes.extend_from_slice(&[0, 1, 1, b'x', 0, 0]);
        bytes.extend_from_slice(rest);
        bytes
    }

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint("v").unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let dump = sample_dump();
        assert_eq!(FlightDump::decode(&dump.encode()).unwrap(), dump);
    }

    #[test]
    fn header_is_checked() {
        let good = sample_dump().encode();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(FlightDump::decode(&bad_magic), Err(DumpError::BadMagic));

        let mut bad_version = good.clone();
        bad_version[7] = 99;
        assert_eq!(
            FlightDump::decode(&bad_version),
            Err(DumpError::UnsupportedVersion(99))
        );

        assert_eq!(
            FlightDump::decode(&good[..5]),
            Err(DumpError::Truncated("header"))
        );
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let bytes = sample_dump().encode();
        for cut in 0..bytes.len() {
            // Every field up to the last stats varint is required, so
            // every prefix must fail cleanly.
            let _ = FlightDump::decode(&bytes[..cut]).unwrap_err();
        }
    }

    #[test]
    fn out_of_range_fields_are_errors_naming_the_field() {
        // One segment of one `Sample` that names thread 65 536.
        let mut segment = vec![Hook::Sample as u8 | HAS_WHO];
        put_varint(&mut segment, 1 << 16);
        segment.push(SchemeId::EBR.0);
        let mut rest = vec![1, 1, segment.len() as u8];
        rest.extend_from_slice(&segment);
        rest.extend_from_slice(&[0, 0]);
        assert_eq!(
            FlightDump::decode(&one_source(&rest)),
            Err(DumpError::OutOfRange("thread"))
        );
        // The same bytes naming thread 65 535 decode.
        rest[4..7].copy_from_slice(&[0xff, 0xff, 0x03]);
        let dump = FlightDump::decode(&one_source(&rest)).unwrap();
        assert_eq!(dump.sources[0].events[0].thread, u16::MAX);

        // No segments; metrics whose one latency pair names the bucket
        // one past the last.
        let rest = [0, 1, 0, 0, 0, 1, HISTOGRAM_BUCKETS as u8, 1, 0];
        assert_eq!(
            FlightDump::decode(&one_source(&rest)),
            Err(DumpError::OutOfRange("latency bucket index"))
        );
    }

    #[test]
    fn a_segment_must_end_exactly_at_its_byte_length() {
        // Two events (tag bytes alone) in one byte.
        let rest = [1, 2, 1, Hook::Sample as u8, 0, 0];
        assert_eq!(
            FlightDump::decode(&one_source(&rest)),
            Err(DumpError::BadCount("segment events"))
        );
        // One event in two bytes.
        let rest = [1, 1, 2, Hook::Sample as u8, Hook::Sample as u8, 0, 0];
        assert_eq!(
            FlightDump::decode(&one_source(&rest)),
            Err(DumpError::BadCount("segment bytes"))
        );
        // Two events in two bytes.
        let rest = [1, 2, 2, Hook::Sample as u8, Hook::Sample as u8, 0, 0];
        assert_eq!(
            FlightDump::decode(&one_source(&rest))
                .unwrap()
                .event_count(),
            2
        );
    }

    #[test]
    fn interleaved_threads_keep_their_merged_order() {
        let mut src = SourceDump::new("m");
        // Interleaved threads with gaps; merged order must survive.
        src.events = vec![
            ev(3, 5, Hook::BeginOp, 0, 0),
            ev(0, 6, Hook::Retire, 1, 1),
            ev(3, 7, Hook::Load, 2, 2),
            ev(0, 9, Hook::Reclaim, 1, 3),
            ev(7, 100, Hook::Advance, 3, 0),
        ];
        let dump = FlightDump {
            sources: vec![src.clone()],
            ..FlightDump::new()
        };
        let back = FlightDump::decode(&dump.encode()).unwrap();
        assert_eq!(back.sources[0].events, src.events);
    }

    #[test]
    fn tied_timestamps_decode_in_merge_key_order() {
        let mut src = SourceDump::new("ties");
        // What a drain produced while per-operation events were still
        // recorded (an older dump): readers of the clock between two
        // ticks at ts 5 (by thread, each thread in emit order) before
        // the event that ticked 5 → 6.
        src.events = vec![
            ev(1, 5, Hook::BeginOp, 0, 0),
            ev(1, 5, Hook::Load, 1, 0),
            ev(1, 5, Hook::Load, 2, 0),
            ev(4, 5, Hook::Load, 9, 0),
            ev(0, 5, Hook::Reclaim, 7, 1),
            ev(0, 6, Hook::Load, 3, 0),
            ev(1, 6, Hook::EndOp, 0, 0),
            ev(4, 6, Hook::Advance, 2, 0),
        ];
        let dump = FlightDump {
            sources: vec![src.clone()],
            ..FlightDump::new()
        };
        let back = FlightDump::decode(&dump.encode()).unwrap();
        assert_eq!(back.sources[0].events, src.events);
    }

    #[test]
    fn unknown_hook_bytes_survive_a_roundtrip() {
        // A dump written by a future vocabulary must not be destroyed
        // by re-encoding: the raw hook byte is preserved.
        let mut e = ev(0, 1, Hook::Sample, 0, 0);
        e.hook = 200;
        let mut src = SourceDump::new("future");
        src.events = vec![e];
        let dump = FlightDump {
            sources: vec![src],
            ..FlightDump::new()
        };
        let back = FlightDump::decode(&dump.encode()).unwrap();
        assert_eq!(back.sources[0].events[0].hook, 200);
    }
}
