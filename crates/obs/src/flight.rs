//! The crash-safe flight recorder: a persistence layer over
//! [`Recorder`] that turns volatile trace rings into replayable
//! `.eraflt` dump files ([`crate::dump`]).
//!
//! A [`FlightRecorder`] owns a set of *sources* — labelled recorders
//! (one per scheme in `chaos_bench`, one per shard in `era-net serve`) —
//! and keeps, per source, the most recent drained events up to a count
//! cap ([`DEFAULT_MAX_RETAINED`]). Those are the recorded events: an
//! operation's own hooks are only counted ([`crate::Hook::is_recorded`]),
//! so a shard's window is its retires, reclaims and protocol events.
//! They are stored packed, in the encoding a dump file stores them
//! in: a source's retained events are a queue of [`crate::dump`]'s
//! fixed-size segments, in which an event is a tag byte plus only the
//! fields that changed since the last event with its hook — one or two
//! bytes for most, where an [`Event`] is 32. Each segment decodes on its
//! own. A poll appends to the newest segment and drops whole segments
//! off the front — it never moves retained bytes. This module holds only
//! the retention policy: the segment queue, the count of trimmed events
//! still at its front, the cap and the spare buffer.
//!
//! Three ways events reach a dump:
//!
//! - [`poll`](FlightRecorder::poll) — periodic incremental drain
//!   ([`Recorder::drain`]) into the retained buffer; call it from a
//!   watchdog/sampler loop so a crash loses at most one ring of
//!   un-drained events per thread.
//! - [`snapshot`](FlightRecorder::snapshot) — explicit: drain whatever
//!   is pending and assemble a [`FlightDump`] with each source's
//!   retained events, metrics, stats, and honest drop/trim counts.
//! - [`install_panic_hook`](FlightRecorder::install_panic_hook) — a
//!   chained `std::panic` hook that writes the snapshot to a file as
//!   the process dies, so a chaos-injected fault or a plain bug leaves
//!   a post-mortem artifact next to its `FaultPlan` JSON.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::SystemTime;

use crate::dump::{
    pack, Bases, DumpStats, FlightDump, MetricsDump, Segment, SourceDump, SEGMENT_BYTES,
};
use crate::event::Event;
use crate::recorder::Recorder;

/// Default cap on retained events per source. The oldest are trimmed —
/// and counted — beyond this. Operations are counted, not recorded, so
/// a shard's retained events are its retires, reclaim runs and
/// protocol events: packed, one of an EBR shard under churn takes about
/// 5.4 bytes (at most 36), so a full source holds about 0.35 MB and
/// covers about 214 k served operations of `net-churn-ebr` (E27).
pub const DEFAULT_MAX_RETAINED: usize = 1 << 16;

/// A source's retained events: packed segments, oldest first, of which
/// the first `skip` events are trimmed and the rest are retained.
#[derive(Debug, Default)]
struct Retained {
    segments: VecDeque<Segment>,
    /// What the newest segment packs its next event against. Closed
    /// segments need none: they decode from zeroed bases.
    bases: Bases,
    /// Trimmed events still packed at the front of the oldest segment.
    skip: usize,
    /// Retained events: everything packed, less `skip`.
    len: usize,
    /// The buffer of the last segment dropped, for the next one opened.
    spare: Option<Vec<u8>>,
}

impl Retained {
    /// Appends `events` (a drained log) and trims the oldest retained
    /// events beyond `max`, as `extend` then `drain(..excess)` on a
    /// `Vec` would. Returns how many were trimmed.
    fn append(&mut self, events: &[Event], max: usize) -> u64 {
        let excess = (self.len + events.len()).saturating_sub(max);
        // The oldest `excess` go: packed ones first, then incoming ones
        // that are never packed at all.
        let old = excess.min(self.len);
        self.skip += old;
        while self.segments.front().is_some_and(|s| s.events <= self.skip) {
            let front = self.segments.pop_front().expect("checked non-empty");
            self.skip -= front.events;
            let mut bytes = front.bytes;
            bytes.clear();
            self.spare = Some(bytes);
        }
        let kept = &events[excess - old..];
        for e in kept {
            pack(&mut self.segments, &mut self.bases, e, || {
                self.spare
                    .take()
                    .unwrap_or_else(|| Vec::with_capacity(SEGMENT_BYTES))
            });
        }
        self.len = self.len + events.len() - excess;
        excess as u64
    }

    fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.len);
        let mut skip = self.skip;
        for segment in &self.segments {
            segment.unpack_into(skip, &mut out);
            skip = 0;
        }
        out
    }

    /// Bytes packed, trimmed events included until their segment goes.
    fn bytes(&self) -> usize {
        self.segments.iter().map(|s| s.bytes.len()).sum()
    }
}

#[derive(Debug)]
struct FlightSource {
    label: String,
    recorder: Recorder,
    /// Drained-but-not-yet-dumped events, in drain order.
    retained: Retained,
    /// Events trimmed off `retained` by the count cap.
    trimmed: u64,
    stats: Option<DumpStats>,
}

impl FlightSource {
    /// Drains pending ring events into the retained buffer, trimming
    /// the oldest past `max_retained`.
    fn poll(&mut self, max_retained: usize) {
        let log = self.recorder.drain();
        self.trimmed += self.retained.append(&log.events, max_retained);
    }

    fn to_source_dump(&self) -> SourceDump {
        SourceDump {
            label: self.label.clone(),
            dropped: self.recorder.dropped(),
            trimmed: self.trimmed,
            events: self.retained.events(),
            metrics: Some(MetricsDump::capture(self.recorder.metrics())),
            stats: self.stats,
        }
    }
}

/// Crash-safe flight recorder over one or more [`Recorder`]s. See the
/// module docs for the lifecycle; all methods are callable from any
/// thread (internally serialized — this is the cold observation path,
/// never the emit hot path).
#[derive(Debug)]
pub struct FlightRecorder {
    max_retained: usize,
    sources: Mutex<Vec<FlightSource>>,
}

impl FlightRecorder {
    /// A recorder with no sources that retains up to
    /// [`DEFAULT_MAX_RETAINED`] events per source.
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            max_retained: DEFAULT_MAX_RETAINED,
            sources: Mutex::new(Vec::new()),
        }
    }

    /// Overrides the per-source retained-event cap (builder style).
    pub fn with_max_retained(mut self, max_retained: usize) -> Self {
        self.max_retained = max_retained.max(1);
        self
    }

    /// Convenience: a new flight recorder already tracking `recorder`
    /// under `label`.
    pub fn single(label: &str, recorder: &Recorder) -> FlightRecorder {
        let flight = FlightRecorder::new();
        flight.add_source(label, recorder);
        flight
    }

    /// Registers a recorder as a dump source; returns its index (for
    /// [`set_stats`](Self::set_stats)). Labels identify schemes or
    /// shards in `era-view`; they need not be unique but should be.
    pub fn add_source(&self, label: &str, recorder: &Recorder) -> usize {
        let mut sources = self.lock();
        sources.push(FlightSource {
            label: label.to_string(),
            recorder: recorder.clone(),
            retained: Retained::default(),
            trimmed: 0,
            stats: None,
        });
        sources.len() - 1
    }

    /// Attaches the latest scheme counters to source `idx` (they ride
    /// along in every subsequent snapshot). Out-of-range indices are
    /// ignored — the flight recorder never panics on its caller.
    pub fn set_stats(&self, idx: usize, stats: DumpStats) {
        if let Some(source) = self.lock().get_mut(idx) {
            source.stats = Some(stats);
        }
    }

    /// Drains every source's pending ring events into the retained
    /// buffers. Call periodically (a sampler loop, an op-count stride)
    /// so ring overwrite — not the flight layer — is the only place
    /// history can be lost before the cap.
    pub fn poll(&self) {
        for source in self.lock().iter_mut() {
            source.poll(self.max_retained);
        }
    }

    /// Bytes the retained events of every source take packed.
    pub fn packed_bytes(&self) -> usize {
        self.lock().iter().map(|s| s.retained.bytes()).sum()
    }

    /// Drains pending events and assembles the dump: per source, the
    /// retained events, a metrics capture, the latest stats, and the
    /// drop/trim accounting.
    pub fn snapshot(&self) -> FlightDump {
        self.poll();
        let sources = self.lock();
        FlightDump {
            wall_unix_ms: unix_ms(),
            sources: sources.iter().map(|s| s.to_source_dump()).collect(),
        }
    }

    /// Snapshots and writes an `.eraflt` file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn snapshot_to_file(&self, path: &Path) -> std::io::Result<()> {
        let bytes = self.snapshot().encode();
        let mut file = std::fs::File::create(path)?;
        file.write_all(&bytes)?;
        file.flush()
    }

    /// Installs a chained panic hook that writes a crash dump to
    /// `path` as the process unwinds (the previous hook — usually the
    /// default backtrace printer — still runs first). Re-entrant and
    /// concurrent panics write at most one dump.
    ///
    /// The hook holds an `Arc` to this recorder, so the flight state
    /// stays alive for as long as the hook is installed.
    pub fn install_panic_hook(self: &Arc<Self>, path: impl Into<PathBuf>) {
        let flight = Arc::clone(self);
        let path = path.into();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            static WRITING: AtomicBool = AtomicBool::new(false);
            if WRITING.swap(true, Ordering::SeqCst) {
                return;
            }
            match flight.snapshot_to_file(&path) {
                Ok(()) => eprintln!(
                    "era-flight: wrote crash dump to {} (replay with `era-view`)",
                    path.display()
                ),
                Err(e) => eprintln!("era-flight: failed to write crash dump: {e}"),
            }
            WRITING.store(false, Ordering::SeqCst);
        }));
    }

    fn lock(&self) -> MutexGuard<'_, Vec<FlightSource>> {
        // A panicking peer must not block the crash dump: inherit the
        // (plain-data) state rather than propagating the poison.
        match self.sources.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::MAX_PACKED_EVENT;
    use crate::event::{Hook, SchemeId};
    use proptest::prelude::*;

    #[test]
    #[cfg_attr(miri, ignore = "reads wall clock (SystemTime)")]
    fn snapshot_carries_events_metrics_and_stats() {
        let recorder = Recorder::new(4);
        let flight = FlightRecorder::single("EBR", &recorder);
        let mut t = recorder.tracer(0, SchemeId::EBR);
        t.emit(Hook::Retire, 0xabc, 1);
        t.emit(Hook::Reclaim, 0xabc, 2);
        flight.set_stats(
            0,
            DumpStats {
                retired_now: 0,
                retired_peak: 1,
                total_retired: 1,
                total_reclaimed: 1,
                era: 0,
            },
        );
        let dump = flight.snapshot();
        assert_eq!(dump.sources.len(), 1);
        let src = &dump.sources[0];
        assert_eq!(src.label, "EBR");
        assert_eq!(src.events.len(), 2);
        assert_eq!(src.dropped, 0);
        assert_eq!(src.stats.unwrap().retired_peak, 1);
        let m = src.metrics.as_ref().unwrap();
        assert_eq!(m.hook_count(Hook::Retire), 1);
        // Round-trip through bytes for good measure.
        let back = FlightDump::decode(&dump.encode()).unwrap();
        assert_eq!(back, dump);
    }

    #[test]
    #[cfg_attr(miri, ignore = "reads wall clock (SystemTime)")]
    fn poll_then_snapshot_does_not_duplicate_events() {
        let recorder = Recorder::new(2);
        let flight = FlightRecorder::single("s", &recorder);
        let mut t = recorder.tracer(0, SchemeId::HP);
        for i in 0..10 {
            t.emit(Hook::Retire, i, 0);
        }
        flight.poll();
        for i in 10..25 {
            t.emit(Hook::Retire, i, 0);
        }
        let dump = flight.snapshot();
        assert_eq!(dump.sources[0].events.len(), 25);
        let mut payloads: Vec<u64> = dump.sources[0].events.iter().map(|e| e.a).collect();
        payloads.dedup();
        assert_eq!(payloads, (0..25).collect::<Vec<_>>());
    }

    #[test]
    #[cfg_attr(miri, ignore = "reads wall clock (SystemTime)")]
    fn memory_cap_trims_oldest_and_counts_them() {
        let recorder = Recorder::new(2);
        let flight = FlightRecorder::single("s", &recorder).with_max_retained(16);
        let mut t = recorder.tracer(0, SchemeId::NONE);
        for i in 0..64 {
            t.emit(Hook::Sample, i, 0);
        }
        flight.poll();
        let dump = flight.snapshot();
        let src = &dump.sources[0];
        assert_eq!(src.events.len(), 16);
        assert_eq!(src.trimmed, 48);
        assert_eq!(src.events.first().unwrap().a, 48, "newest survive");
    }

    #[test]
    #[cfg_attr(miri, ignore = "file I/O and wall clock")]
    fn snapshot_to_file_writes_a_decodable_dump() {
        let recorder = Recorder::new(2);
        let flight = FlightRecorder::single("f", &recorder);
        let mut t = recorder.tracer(0, SchemeId::EBR);
        t.emit(Hook::Retire, 7, 1);
        let dir = std::env::temp_dir().join("era-flight-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.eraflt");
        flight.snapshot_to_file(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let dump = FlightDump::decode(&bytes).unwrap();
        assert_eq!(dump.sources[0].events.len(), 1);
        assert!(dump.wall_unix_ms > 0);
        std::fs::remove_file(&path).unwrap();
    }

    fn event(ts: u64, thread: u16, hook: u8, a: u64, b: u64) -> Event {
        let mut e = Event::new(thread, SchemeId::EBR, Hook::Sample, a, b);
        e.hook = hook;
        e.ts = ts;
        e
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state
    }

    /// Draws 0, `u64::MAX`, a small value or any value.
    fn word() -> impl Strategy<Value = u64> {
        (0..4u8, 0..u64::MAX).prop_map(|(pick, w)| match pick {
            0 => 0,
            1 => u64::MAX,
            2 => w % 300,
            _ => w,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        /// The packed buffer retains, trims and counts exactly what the
        /// `Vec` it replaced did: the model below is that `Vec`'s poll,
        /// fed by a second recorder that sees the same emits.
        #[test]
        fn packed_buffer_matches_the_vec_it_replaced(
            ops in prop::collection::vec(
                (
                    0..6u8,
                    (0..4u8, 0..u16::MAX).prop_map(|(pick, t)| match pick {
                        0 => u16::MAX,
                        1 => t,
                        _ => t % 4,
                    }),
                    0..Hook::COUNT,
                    word(),
                    word(),
                ),
                0..400,
            ),
            max in 1..65usize,
            ring in 8..33usize,
            scheme in 0..9u8,
        ) {
            let recorder = Recorder::with_ring_capacity(4, ring);
            let flight = FlightRecorder::single("p", &recorder).with_max_retained(max);
            let mut tracer = recorder.tracer(0, SchemeId(scheme));
            let model_recorder = Recorder::with_ring_capacity(4, ring);
            let mut model_tracer = model_recorder.tracer(0, SchemeId(scheme));
            let mut model: Vec<Event> = Vec::new();
            let mut model_trimmed = 0u64;
            let mut model_poll = |model: &mut Vec<Event>| {
                model.extend(model_recorder.drain().events);
                if model.len() > max {
                    let excess = model.len() - max;
                    model_trimmed += excess as u64;
                    model.drain(..excess);
                }
            };
            for (op, thread, hook, a, b) in ops {
                if op == 0 {
                    flight.poll();
                    model_poll(&mut model);
                } else {
                    tracer.emit_for(thread, Hook::ALL[hook], a, b);
                    model_tracer.emit_for(thread, Hook::ALL[hook], a, b);
                }
            }
            // What `snapshot` does, without its wall-clock read.
            flight.poll();
            model_poll(&mut model);
            let src = flight.lock()[0].to_source_dump();
            prop_assert_eq!(src.events, model);
            prop_assert_eq!(src.trimmed, model_trimmed);
            prop_assert_eq!(src.dropped, model_recorder.dropped());
        }
    }

    /// Large events — every hook, the escaped ones and a raw byte past
    /// `Hook::ALL` included, threads up to `u16::MAX`, words up to
    /// `u64::MAX`, `ts` stepping back — so that the retained events span
    /// several segments, under a cap whose trims land mid-segment and
    /// drop whole front segments. Nothing may carry over a boundary:
    /// each segment decodes on its own.
    #[test]
    fn segment_boundaries_and_front_drops_match_the_vec_model() {
        let hooks: Vec<u8> = (0..Hook::COUNT as u8).chain([200]).collect();
        let mut rng = 7u64;
        let mut ts = 0u64;
        let events: Vec<Event> = (0..24_000usize)
            .map(|k| {
                let r = lcg(&mut rng);
                ts = match k % 4 {
                    0 => ts.wrapping_sub(3),
                    1 => ts ^ 1 << 63,
                    _ => ts.wrapping_add(r >> 61),
                };
                let word = |w: u64| if w.is_multiple_of(7) { u64::MAX } else { w };
                let thread = if r & 1 == 0 {
                    u16::MAX
                } else {
                    (r >> 16) as u16
                };
                let a = word(r.rotate_left(17));
                let b = word(r.rotate_left(41));
                let mut e = event(ts, thread, hooks[k % hooks.len()], a, b);
                e.scheme = (r >> 8) as u8;
                e
            })
            .collect();
        let cap = 12_500;
        let mut retained = Retained::default();
        let mut model: Vec<Event> = Vec::new();
        let (mut trimmed, mut model_trimmed) = (0u64, 0u64);
        let (mut mid_segment, mut most_segments) = (false, 0);
        for batch in events.chunks(3_001) {
            trimmed += retained.append(batch, cap);
            model.extend_from_slice(batch);
            let excess = model.len().saturating_sub(cap);
            model.drain(..excess);
            model_trimmed += excess as u64;
            assert_eq!(retained.events(), model);
            assert_eq!(trimmed, model_trimmed);
            mid_segment |= retained.skip > 0;
            most_segments = most_segments.max(retained.segments.len());
        }
        assert!(most_segments >= 5, "only {most_segments} segments");
        assert!(mid_segment, "no trim landed mid-segment");
        // Every event was packed (each batch is under the cap), so fewer
        // packed now means front segments went.
        let packed: usize = retained.segments.iter().map(|s| s.events).sum();
        assert!(packed < events.len(), "no front segment was dropped");
    }

    #[test]
    fn backward_steps_and_extreme_values_round_trip() {
        let events = [
            event(100, 0, Hook::BeginOp as u8, 1, 0),
            event(97, 0, Hook::Load as u8, 2, 0),
            event(0, u16::MAX, 200, u64::MAX, 0),
            event(u64::MAX, 1, Hook::Retire as u8, 0, u64::MAX),
            event(1 << 63, 2, Hook::Reclaim as u8, 3, 4),
            event(5, 3, Hook::EndOp as u8, 0, 0),
        ];
        let mut retained = Retained::default();
        retained.append(&events, 64);
        assert_eq!(retained.events(), events);
        // The same `Load`, stamped 3 ticks before the `BeginOp` or with it.
        let bytes_with_load_at = |ts| {
            let mut retained = Retained::default();
            retained.append(&[events[0], event(ts, 0, Hook::Load as u8, 2, 0)], 64);
            retained.bytes()
        };
        assert_eq!(
            bytes_with_load_at(97),
            bytes_with_load_at(100) + 1,
            "a 3-tick step back costs one byte of ts delta"
        );
    }

    #[test]
    fn worst_case_ebr_and_churn_streams_stay_within_their_byte_bounds() {
        let cap = if cfg!(miri) { 256 } else { 1 << 12 };
        // Every field at its longest: an escaped hook, `ts` and both words
        // half the range off the last, the thread alternating between two
        // 3-byte values. After the first, each is `MAX_PACKED_EVENT` bytes.
        let worst = |k: u64| {
            let flip = (k & 1) << 63;
            event(flip, u16::MAX - (k & 1) as u16, 200, flip, flip)
        };
        let mut retained = Retained::default();
        retained.append(&[worst(0)], cap);
        let first = retained.bytes();
        retained.append(&[worst(1)], cap);
        assert_eq!(retained.bytes() - first, MAX_PACKED_EVENT);
        for poll in 0..3 * cap / 100 {
            let batch: Vec<Event> = (0..100).map(|k| worst((poll * 100 + k) as u64)).collect();
            retained.append(&batch, cap);
            assert!(retained.bytes() <= MAX_PACKED_EVENT * retained.len + SEGMENT_BYTES);
        }
        assert_eq!(retained.len, cap);
        // An EBR shard under churn: a worker's `Retire`s at heap-like
        // addresses, each 64 reclaimed as one run by the service tracer
        // (thread `u16::MAX`, as `StatCells::reclaim` emits them).
        let recorder = Recorder::new(1);
        let flight = FlightRecorder::single("churn", &recorder).with_max_retained(cap);
        let mut worker = recorder.tracer(0, SchemeId::EBR);
        let mut service = recorder.tracer(u16::MAX, SchemeId::EBR);
        let mut rng = 1u64;
        let mut nodes = [0u64; 64];
        for round in 0..2 * cap / 128 {
            let retired_at = recorder.now();
            for (held, node) in nodes.iter_mut().enumerate() {
                *node = 0x7f3a_0000_0000 + (lcg(&mut rng) >> 50) * 64;
                worker.emit(Hook::Retire, *node, held as u64 + 1);
            }
            service.emit_run(Hook::Reclaim, nodes.len(), |k, ts| {
                (nodes[k], ts - (retired_at + k as u64))
            });
            if round % 16 == 0 {
                flight.poll();
            }
        }
        flight.poll();
        assert_eq!(flight.lock()[0].retained.len, cap);
        assert!(flight.packed_bytes() <= 6 * cap + SEGMENT_BYTES);
    }

    #[test]
    fn small_polls_share_segments() {
        let polls = if cfg!(miri) { 1_000 } else { 100_000 };
        let recorder = Recorder::new(1);
        let flight = FlightRecorder::single("idle", &recorder).with_max_retained(polls as usize);
        let mut t = recorder.tracer(0, SchemeId::EBR);
        for i in 0..polls {
            t.emit(Hook::Sample, i, 0);
            flight.poll();
        }
        let sources = flight.lock();
        let retained = &sources[0].retained;
        assert_eq!(retained.len, polls as usize);
        let bytes = retained.bytes();
        assert!(
            retained.segments.len() <= bytes.div_ceil(SEGMENT_BYTES) + 1,
            "{} segments for {bytes} bytes",
            retained.segments.len()
        );
    }
}
