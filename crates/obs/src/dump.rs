//! The `.eraflt` binary flight-dump format: a compact, versioned,
//! self-describing serialization of drained trace rings plus the
//! aggregate metrics and scheme counters that accompany them.
//!
//! A dump is what the [`crate::flight::FlightRecorder`] writes on
//! panic or on an explicit snapshot, and what the `era-view` CLI reads
//! back. The format is designed for post-mortems, not IPC:
//!
//! - **Versioned header** — 8-byte magic (`ERAFLT` + big-endian
//!   version) and a flags byte, so a reader can refuse a future format
//!   instead of misparsing it. The golden-fixture test pins the byte
//!   layout.
//! - **Self-describing name tables** — hook and scheme names are
//!   string-interned once per dump and events refer to them by index,
//!   so a reader built against a *newer* hook vocabulary still renders
//!   an old dump's names correctly (and vice versa).
//! - **Per-thread sections with delta timestamps** — events are grouped
//!   by producing thread and their logical timestamps stored as varint
//!   deltas; within one thread the clock is monotone, so deltas are
//!   small and most timestamps cost one byte instead of eight (zero
//!   for a run of per-operation events, which read the clock without
//!   advancing it). The decoder re-merges the sections by
//!   [`Event::merge_key`], the same key the recorder's drain sorts by,
//!   so a drained log comes back in exactly the order it went in.
//! - **Honest truncation** — every source section carries the
//!   cumulative ring-overwrite drop count, and the header carries the
//!   total, so a truncated trace can never silently read as complete.
//! - **Optional RLE compression** — the varint payload is byte-wise
//!   run-length encoded when that actually shrinks it (flag bit 0);
//!   zero-heavy sections (blame arrays, histogram gaps) collapse well.
//!
//! Everything here is pure safe Rust with no dependencies; encoding
//! and decoding round-trip losslessly (property-tested in
//! `tests/dump_roundtrip.rs`).

use std::fmt;

use crate::event::{Event, Hook, SchemeId};
use crate::metrics::{HistogramSnapshot, Metrics, HISTOGRAM_BUCKETS};
use crate::recorder::TraceLog;

/// The 6-byte magic prefix of every `.eraflt` file.
pub const DUMP_MAGIC: &[u8; 6] = b"ERAFLT";

/// Current format version (big-endian `u16` following the magic).
pub const DUMP_VERSION: u16 = 1;

/// Header flag bit: the payload after the header is RLE-compressed.
pub const FLAG_RLE: u8 = 0b0000_0001;

/// Decoding failure: why a byte stream is not a readable dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DumpError {
    /// The file does not start with [`DUMP_MAGIC`].
    BadMagic,
    /// The version field names a format this reader does not know.
    UnsupportedVersion(u16),
    /// The header flags contain bits this reader does not know.
    UnsupportedFlags(u8),
    /// The payload ended before a field it promised.
    Truncated(&'static str),
    /// A varint ran past 10 bytes (not produced by any writer).
    Overlong,
    /// An interned-string index points outside the string table.
    BadStringIndex(u64),
    /// A string table entry is not valid UTF-8.
    BadUtf8,
    /// A structural count is implausibly large for the input size
    /// (corrupt length field; refused before allocating).
    BadCount(&'static str),
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
            DumpError::UnsupportedFlags(b) => write!(f, "unsupported header flags {b:#010b}"),
            DumpError::Truncated(what) => write!(f, "dump truncated while reading {what}"),
            DumpError::Overlong => write!(f, "overlong varint"),
            DumpError::BadStringIndex(i) => write!(f, "string index {i} outside table"),
            DumpError::BadUtf8 => write!(f, "string table entry is not valid UTF-8"),
            DumpError::BadCount(what) => write!(f, "implausible count for {what}"),
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
    /// Cumulative events lost to ring overwrite before this snapshot.
    pub dropped: u64,
    /// Events trimmed off the front by the flight recorder's retention
    /// cap (they happened, were drained, and were then let go to keep
    /// the newest — distinct from `dropped`, which the recorder never
    /// saw at all).
    pub trimmed: u64,
    /// Drained events in ascending [`Event::merge_key`] order.
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

    /// The events as a [`TraceLog`] (cloned), for code written against
    /// the drain API.
    pub fn to_trace_log(&self) -> TraceLog {
        TraceLog {
            events: self.events.clone(),
            dropped: self.dropped,
        }
    }
}

/// A decoded (or about-to-be-encoded) flight dump.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Format version the bytes carried (always [`DUMP_VERSION`] for
    /// dumps this library wrote).
    pub version: u16,
    /// Wall-clock milliseconds since the Unix epoch at snapshot time
    /// (0 when the writer had no clock).
    pub wall_unix_ms: u64,
    /// Snapshot window in milliseconds (0 = unwindowed). The flight
    /// recorder always writes 0; v1 keeps the field.
    pub window_ms: u64,
    /// The trace sources.
    pub sources: Vec<SourceDump>,
}

impl FlightDump {
    /// An empty dump at the current version.
    pub fn new() -> FlightDump {
        FlightDump {
            version: DUMP_VERSION,
            wall_unix_ms: 0,
            window_ms: 0,
            sources: Vec::new(),
        }
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

    /// Serializes the dump. With `compress`, the payload is RLE-coded
    /// when that shrinks it (the flag byte records which happened).
    pub fn encode(&self, compress: bool) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(payload.len() + 16);
        out.extend_from_slice(DUMP_MAGIC);
        out.extend_from_slice(&DUMP_VERSION.to_be_bytes());
        if compress {
            let packed = rle_compress(&payload);
            if packed.len() < payload.len() {
                out.push(FLAG_RLE);
                out.extend_from_slice(&packed);
                return out;
            }
        }
        out.push(0);
        out.extend_from_slice(&payload);
        out
    }

    fn encode_payload(&self) -> Vec<u8> {
        // Intern every string the dump references: source labels plus
        // the full hook and scheme name vocabularies (self-description
        // costs a few hundred bytes once per dump).
        let mut strings = StringTable::default();
        let hook_names: Vec<u32> = Hook::ALL.iter().map(|h| strings.intern(h.name())).collect();
        let scheme_names: Vec<u32> = (0..=SchemeId::LEAK.0)
            .map(|raw| strings.intern(SchemeId(raw).name()))
            .collect();
        let labels: Vec<u32> = self
            .sources
            .iter()
            .map(|s| strings.intern(&s.label))
            .collect();

        let mut buf = Vec::new();
        strings.encode(&mut buf);
        put_varint(&mut buf, hook_names.len() as u64);
        for idx in &hook_names {
            put_varint(&mut buf, *idx as u64);
        }
        put_varint(&mut buf, scheme_names.len() as u64);
        for idx in &scheme_names {
            put_varint(&mut buf, *idx as u64);
        }
        put_varint(&mut buf, self.wall_unix_ms);
        put_varint(&mut buf, self.window_ms);
        put_varint(&mut buf, self.total_dropped());
        put_varint(&mut buf, self.sources.len() as u64);
        for (source, label) in self.sources.iter().zip(&labels) {
            encode_source(&mut buf, source, *label);
        }
        buf
    }

    /// Parses a dump from bytes.
    ///
    /// # Errors
    ///
    /// Any [`DumpError`]: wrong magic, unknown version or flags, or a
    /// payload that is truncated or internally inconsistent.
    pub fn decode(bytes: &[u8]) -> Result<FlightDump, DumpError> {
        if bytes.len() < 9 {
            return Err(DumpError::Truncated("header"));
        }
        if &bytes[..6] != DUMP_MAGIC {
            return Err(DumpError::BadMagic);
        }
        let version = u16::from_be_bytes([bytes[6], bytes[7]]);
        if version != DUMP_VERSION {
            return Err(DumpError::UnsupportedVersion(version));
        }
        let flags = bytes[8];
        if flags & !FLAG_RLE != 0 {
            return Err(DumpError::UnsupportedFlags(flags));
        }
        let payload;
        let decoded;
        if flags & FLAG_RLE != 0 {
            decoded = rle_decompress(&bytes[9..])?;
            payload = decoded.as_slice();
        } else {
            payload = &bytes[9..];
        }
        let mut r = Reader::new(payload);
        let strings = StringTable::decode(&mut r)?;
        let hook_names = read_index_table(&mut r, &strings, "hook table")?;
        let scheme_names = read_index_table(&mut r, &strings, "scheme table")?;
        let wall_unix_ms = r.varint("wall_unix_ms")?;
        let window_ms = r.varint("window_ms")?;
        let _total_dropped = r.varint("total_dropped")?;
        let source_count = r.varint("source_count")?;
        if source_count > r.remaining() as u64 {
            return Err(DumpError::BadCount("sources"));
        }
        let mut sources = Vec::with_capacity(source_count as usize);
        for _ in 0..source_count {
            sources.push(decode_source(&mut r, &strings)?);
        }
        // The name tables exist for forward-compat rendering; v1
        // readers share the writer's vocabulary, so they are checked
        // for well-formedness above and otherwise unused here.
        let _ = (hook_names, scheme_names);
        Ok(FlightDump {
            version,
            wall_unix_ms,
            window_ms,
            sources,
        })
    }
}

impl Default for FlightDump {
    fn default() -> Self {
        FlightDump::new()
    }
}

fn encode_source(buf: &mut Vec<u8>, source: &SourceDump, label_idx: u32) {
    put_varint(buf, label_idx as u64);
    put_varint(buf, source.dropped);
    put_varint(buf, source.trimmed);

    // Group events into per-thread sections, preserving log order
    // within each thread (the input is merge-key-ordered, so a stable
    // partition keeps each section ordered too).
    let mut threads: Vec<u16> = source.events.iter().map(|e| e.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    put_varint(buf, threads.len() as u64);
    for &thread in &threads {
        let section: Vec<&Event> = source
            .events
            .iter()
            .filter(|e| e.thread == thread)
            .collect();
        put_varint(buf, thread as u64);
        put_varint(buf, section.len() as u64);
        let mut prev_ts = 0u64;
        for e in section {
            // Delta off the previous event of the *same thread*: the
            // clock is monotone per producer, so this never underflows
            // for recorder-produced logs; a hand-built out-of-order
            // log still round-trips via the zigzag-free fallback of
            // storing the wrapped difference.
            put_varint(buf, e.ts.wrapping_sub(prev_ts));
            prev_ts = e.ts;
            buf.push(e.hook);
            buf.push(e.scheme);
            put_varint(buf, e.a);
            put_varint(buf, e.b);
        }
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

fn decode_source(r: &mut Reader<'_>, strings: &StringTable) -> Result<SourceDump, DumpError> {
    let label_idx = r.varint("source label")?;
    let label = strings.get(label_idx)?.to_string();
    let dropped = r.varint("source dropped")?;
    let trimmed = r.varint("source trimmed")?;

    let thread_count = r.varint("thread section count")?;
    if thread_count > r.remaining() as u64 {
        return Err(DumpError::BadCount("thread sections"));
    }
    let mut events: Vec<Event> = Vec::new();
    for _ in 0..thread_count {
        let thread = r.varint("thread id")? as u16;
        let count = r.varint("thread event count")?;
        if count > r.remaining() as u64 {
            return Err(DumpError::BadCount("thread events"));
        }
        let mut prev_ts = 0u64;
        for _ in 0..count {
            let ts = prev_ts.wrapping_add(r.varint("event ts delta")?);
            prev_ts = ts;
            let hook = r.byte("event hook")?;
            let scheme = r.byte("event scheme")?;
            let a = r.varint("event a")?;
            let b = r.varint("event b")?;
            let mut event = Event::new(thread, SchemeId(scheme), Hook::Sample, a, b);
            // Preserve the raw hook byte even if this reader's
            // vocabulary is older than the writer's: the name tables
            // exist precisely so unknown hooks stay renderable.
            event.hook = hook;
            event.ts = ts;
            events.push(event);
        }
    }
    // Restore the merged per-source timeline: the mirror of the sort
    // in `Recorder::drain`. Stable, over sections that each kept
    // their log order, so position within a thread breaks the last tie.
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
                if let Some(slot) = counts.get_mut(k as usize) {
                    *slot = c;
                }
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

fn read_index_table(
    r: &mut Reader<'_>,
    strings: &StringTable,
    what: &'static str,
) -> Result<Vec<String>, DumpError> {
    let n = r.varint(what)?;
    if n > r.remaining() as u64 + 1 {
        return Err(DumpError::BadCount(what));
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let idx = r.varint(what)?;
        out.push(strings.get(idx)?.to_string());
    }
    Ok(out)
}

// ----- string interning -------------------------------------------------

#[derive(Debug, Default)]
struct StringTable {
    entries: Vec<String>,
}

impl StringTable {
    /// Interns `s`, returning its table index (deduplicated).
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(i) = self.entries.iter().position(|e| e == s) {
            return i as u32;
        }
        self.entries.push(s.to_string());
        (self.entries.len() - 1) as u32
    }

    fn get(&self, idx: u64) -> Result<&str, DumpError> {
        self.entries
            .get(idx as usize)
            .map(|s| s.as_str())
            .ok_or(DumpError::BadStringIndex(idx))
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.entries.len() as u64);
        for s in &self.entries {
            put_varint(buf, s.len() as u64);
            buf.extend_from_slice(s.as_bytes());
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<StringTable, DumpError> {
        let n = r.varint("string table len")?;
        if n > r.remaining() as u64 {
            return Err(DumpError::BadCount("string table"));
        }
        let mut entries = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let len = r.varint("string len")?;
            let bytes = r.take(len as usize, "string bytes")?;
            entries.push(String::from_utf8(bytes.to_vec()).map_err(|_| DumpError::BadUtf8)?);
        }
        Ok(StringTable { entries })
    }
}

// ----- primitives -------------------------------------------------------

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
/// Also reads the flight recorder's packed segments back.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn byte(&mut self, what: &'static str) -> Result<u8, DumpError> {
        let b = *self.bytes.get(self.pos).ok_or(DumpError::Truncated(what))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DumpError> {
        if self.remaining() < n {
            return Err(DumpError::Truncated(what));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn varint(&mut self, what: &'static str) -> Result<u64, DumpError> {
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

// ----- RLE --------------------------------------------------------------
//
// Byte-wise run-length coding with a literal escape: control byte
// `c < 0x80` copies the next `c + 1` bytes verbatim; `c >= 0x80`
// repeats the next byte `c - 0x80 + 3` times (runs shorter than 3 are
// cheaper as literals). Worst case inflation is 1/128.

/// RLE-encodes `input` (see the module source for the scheme).
pub fn rle_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 8);
    let mut i = 0;
    let mut literal_start = 0;
    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, input: &[u8]| {
        let mut start = from;
        while start < to {
            let chunk = (to - start).min(128);
            out.push((chunk - 1) as u8);
            out.extend_from_slice(&input[start..start + chunk]);
            start += chunk;
        }
    };
    while i < input.len() {
        let byte = input[i];
        let mut run = 1;
        while i + run < input.len() && input[i + run] == byte && run < 130 {
            run += 1;
        }
        if run >= 3 {
            flush_literals(&mut out, literal_start, i, input);
            out.push(0x80 + (run - 3) as u8);
            out.push(byte);
            i += run;
            literal_start = i;
        } else {
            i += run;
        }
    }
    flush_literals(&mut out, literal_start, input.len(), input);
    out
}

/// Inverts [`rle_compress`].
///
/// # Errors
///
/// [`DumpError::Truncated`] when a control byte promises more input
/// than remains.
pub fn rle_decompress(input: &[u8]) -> Result<Vec<u8>, DumpError> {
    let mut out = Vec::with_capacity(input.len() * 2);
    let mut i = 0;
    while i < input.len() {
        let control = input[i];
        i += 1;
        if control < 0x80 {
            let n = control as usize + 1;
            if i + n > input.len() {
                return Err(DumpError::Truncated("rle literal run"));
            }
            out.extend_from_slice(&input[i..i + n]);
            i += n;
        } else {
            let n = (control - 0x80) as usize + 3;
            let byte = *input
                .get(i)
                .ok_or(DumpError::Truncated("rle repeat byte"))?;
            i += 1;
            out.resize(out.len() + n, byte);
        }
    }
    Ok(out)
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
            version: DUMP_VERSION,
            wall_unix_ms: 1_700_000_000_123,
            window_ms: 30_000,
            sources: vec![src],
        }
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
    fn rle_roundtrips_and_compresses_runs() {
        let zeros = vec![0u8; 1000];
        let packed = rle_compress(&zeros);
        assert!(
            packed.len() < 20,
            "1000 zeros must collapse, got {}",
            packed.len()
        );
        assert_eq!(rle_decompress(&packed).unwrap(), zeros);

        let mixed: Vec<u8> = (0..=255u8).chain(std::iter::repeat_n(9, 40)).collect();
        assert_eq!(rle_decompress(&rle_compress(&mixed)).unwrap(), mixed);

        let empty: &[u8] = &[];
        assert_eq!(rle_decompress(&rle_compress(empty)).unwrap(), empty);
    }

    #[test]
    fn encode_decode_roundtrip_uncompressed_and_compressed() {
        let dump = sample_dump();
        for compress in [false, true] {
            let bytes = dump.encode(compress);
            let back = FlightDump::decode(&bytes).unwrap();
            assert_eq!(back, dump, "compress={compress}");
        }
    }

    #[test]
    fn compression_only_claimed_when_it_helps() {
        // A dump with long zero runs (blame array) must actually pick
        // the RLE branch.
        let mut src = SourceDump::new("x");
        let metrics = Metrics::new(64);
        src.metrics = Some(MetricsDump::capture(&metrics));
        let dump = FlightDump {
            sources: vec![src],
            ..FlightDump::new()
        };
        let packed = dump.encode(true);
        let plain = dump.encode(false);
        assert!(packed.len() <= plain.len());
        assert_eq!(
            FlightDump::decode(&packed).unwrap(),
            FlightDump::decode(&plain).unwrap()
        );
    }

    #[test]
    fn header_is_checked() {
        let dump = sample_dump();
        let good = dump.encode(false);

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(FlightDump::decode(&bad_magic), Err(DumpError::BadMagic));

        let mut bad_version = good.clone();
        bad_version[7] = 99;
        assert_eq!(
            FlightDump::decode(&bad_version),
            Err(DumpError::UnsupportedVersion(99))
        );

        let mut bad_flags = good.clone();
        bad_flags[8] = 0x40;
        assert_eq!(
            FlightDump::decode(&bad_flags),
            Err(DumpError::UnsupportedFlags(0x40))
        );

        assert_eq!(
            FlightDump::decode(&good[..5]),
            Err(DumpError::Truncated("header"))
        );
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let bytes = sample_dump().encode(false);
        for cut in 9..bytes.len() {
            // Every prefix must fail cleanly (or, at exact field
            // boundaries near the end, decode a shorter-but-valid
            // dump is impossible here since counts are pinned).
            let _ = FlightDump::decode(&bytes[..cut]).unwrap_err();
        }
    }

    #[test]
    fn per_thread_delta_encoding_preserves_merged_order() {
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
        let back = FlightDump::decode(&dump.encode(true)).unwrap();
        assert_eq!(back.sources[0].events, src.events);
    }

    #[test]
    fn tied_timestamps_decode_in_merge_key_order() {
        let mut src = SourceDump::new("ties");
        // What a drain produces when per-operation events read the
        // clock between two ticks: at ts 5, readers (by thread, each
        // thread in emit order) before the event that ticked 5 → 6.
        src.events = vec![
            ev(1, 5, Hook::BeginOp, 0, 0),
            ev(1, 5, Hook::Load, 1, 0),
            ev(1, 5, Hook::Load, 2, 0),
            ev(4, 5, Hook::Load, 9, 0),
            ev(0, 5, Hook::Retire, 7, 1),
            ev(0, 6, Hook::Load, 3, 0),
            ev(1, 6, Hook::EndOp, 0, 0),
            ev(4, 6, Hook::Reclaim, 7, 1),
        ];
        let dump = FlightDump {
            sources: vec![src.clone()],
            ..FlightDump::new()
        };
        for compress in [false, true] {
            let back = FlightDump::decode(&dump.encode(compress)).unwrap();
            assert_eq!(back.sources[0].events, src.events);
        }
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
        let back = FlightDump::decode(&dump.encode(false)).unwrap();
        assert_eq!(back.sources[0].events[0].hook, 200);
    }
}
