//! The crash-safe flight recorder: a persistence layer over
//! [`Recorder`] that turns volatile trace rings into replayable
//! `.eraflt` dump files ([`crate::dump`]).
//!
//! A [`FlightRecorder`] owns a set of *sources* — labelled recorders
//! (one per scheme in `chaos_bench`, one per shard in `era-net serve`) —
//! and keeps, per source, the most recent events up to a count cap
//! ([`DEFAULT_MAX_RETAINED`]). Those are the recorded events: an
//! operation's own hooks are only counted ([`crate::Hook::is_recorded`]),
//! so a shard's window is its retires, reclaims and protocol events.
//!
//! Holding a recorder makes each of its tracers pack its own rings
//! ([`crate::Ring`]): a push that completes half a
//! ring packs that half, from slots the writing thread just wrote, into
//! an exactly-sized chunk in [`crate::dump`]'s segment encoding — a
//! tag byte plus only the fields that changed since the last event with
//! its hook, one or two bytes for most where an [`Event`] is 32 — and
//! publishes it to the recorder's outbox. Each chunk decodes on its
//! own. No reader touches a slot the writer is still writing, and a
//! held ring is never overwritten before it is packed, so it drops
//! nothing.
//!
//! Three ways events reach a dump:
//!
//! - [`poll`](FlightRecorder::poll) — takes the published chunks, by
//!   pointer, and trims whole chunks, oldest first, to the cap; call it
//!   from a watchdog loop so chunks do not pile up between snapshots.
//! - [`snapshot`](FlightRecorder::snapshot) — polls, adds each ring's
//!   not-yet-packed rest (for a recorder held after the fact, its last
//!   ring's worth), merges by [`Event::merge_key`] with ties in ring
//!   creation order, as [`Recorder::drain`] does, and assembles a
//!   [`FlightDump`] with each source's events after the trim, metrics,
//!   stats, and honest drop/trim counts. It consumes nothing.
//! - [`install_panic_hook`](FlightRecorder::install_panic_hook) — a
//!   chained `std::panic` hook that writes the snapshot to a file as
//!   the process dies, so a chaos-injected fault or a plain bug leaves
//!   a post-mortem artifact next to its `FaultPlan` JSON.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::SystemTime;

use crate::dump::{unpack_into, DumpStats, FlightDump, MetricsDump, SourceDump};
use crate::event::Event;
use crate::recorder::Recorder;

/// Default cap on retained events per source. The oldest are trimmed —
/// whole chunks at a time, and counted — beyond this. Operations are
/// counted, not recorded, so a shard's retained events are its retires,
/// reclaim runs and protocol events: packed by their own ring's owner,
/// one of an EBR shard under churn takes about 5.5 bytes (6.1 when the
/// watchdog packed the merged log), so a full source holds about
/// 0.36 MB and covers about 214 k served operations of `net-churn-ebr`
/// (E27, E28).
pub const DEFAULT_MAX_RETAINED: usize = 1 << 16;

/// One ring's events, packed at once by its owner: half a ring, unless
/// it is the first pack after a late hold or the rest of a ring whose
/// tracer is gone.
#[derive(Debug)]
pub(crate) struct Chunk {
    /// The events, packed from zeroed bases; sized to what they take.
    pub(crate) bytes: Box<[u8]>,
    pub(crate) events: usize,
    /// The ring's [`crate::Ring`] creation order in its recorder.
    pub(crate) ring: u64,
    /// The ring position of the first event.
    pub(crate) start: u64,
    /// The merge key of the last event, the largest: one writer's keys
    /// never go down.
    pub(crate) last: (u64, bool, u16),
}

impl Chunk {
    fn end(&self) -> u64 {
        self.start + self.events as u64
    }
}

/// A recorder's published chunks, oldest first. The lock is held only
/// to push one chunk or to move them all out, once per half-ring on the
/// owner's side and once per poll on the flight recorder's.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct Outbox {
    /// Whether a flight recorder holds the recorder.
    held: AtomicBool,
    chunks: Mutex<Vec<Chunk>>,
}

impl Outbox {
    /// Whether the owners pack.
    pub(crate) fn is_held(&self) -> bool {
        // SAFETY(ordering): Acquire, paired with `set_held`'s Release:
        // an owner that sees the hold sees the drainer's last cursor.
        self.held.load(Ordering::Acquire)
    }

    /// Starts or ends a hold (under the recorder's ring lock, so no
    /// drain runs across the change).
    pub(crate) fn set_held(&self, held: bool) {
        // SAFETY(ordering): Release, paired with `is_held`'s Acquire.
        self.held.store(held, Ordering::Release);
    }

    /// Publishes `chunk` after every chunk published before it.
    pub(crate) fn publish(&self, chunk: Chunk) {
        self.lock().push(chunk);
    }

    /// Moves every published chunk to the end of `out`, oldest first.
    pub(crate) fn take(&self, out: &mut Vec<Chunk>) {
        out.append(&mut self.lock());
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Chunk>> {
        // A push or a move leaves the list whole even if it panics, and
        // the crash dump takes chunks from a panic hook.
        self.chunks.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[derive(Debug)]
struct FlightSource {
    label: String,
    recorder: Recorder,
    /// Chunks taken and not trimmed, oldest taken first.
    chunks: VecDeque<Chunk>,
    /// Events in `chunks`.
    len: usize,
    /// Per ring, by creation order: the position past the last event
    /// taken (where the ring's packing started, before any).
    cursors: Vec<u64>,
    /// Events trimmed off `chunks` by the count cap.
    trimmed: u64,
    /// The largest merge key among them: a snapshot leaves out every
    /// event at or below it, so a dump is the merged log's suffix.
    cut: Option<(u64, bool, u16)>,
    /// Events the rings overwrote before their owners first packed (a
    /// recorder held after its rings wrapped).
    lost: u64,
    stats: Option<DumpStats>,
}

impl FlightSource {
    fn new(label: &str, recorder: &Recorder) -> FlightSource {
        let mut source = FlightSource {
            label: label.to_string(),
            recorder: recorder.clone(),
            chunks: VecDeque::new(),
            len: 0,
            cursors: Vec::new(),
            trimmed: 0,
            cut: None,
            lost: 0,
            stats: None,
        };
        for (ring, tail) in recorder.hold() {
            *source.cursor(ring) = tail;
        }
        source
    }

    fn cursor(&mut self, ring: u64) -> &mut u64 {
        let k = ring as usize;
        if k >= self.cursors.len() {
            self.cursors.resize(k + 1, 0);
        }
        &mut self.cursors[k]
    }

    /// Takes the published chunks and trims whole chunks, oldest first,
    /// to `max_retained` events.
    fn poll(&mut self, max_retained: usize) {
        let mut taken = Vec::new();
        self.recorder.take_chunks(&mut taken);
        for chunk in taken {
            let cursor = self.cursor(chunk.ring);
            // A chunk an owner packed just before this hold began.
            if chunk.end() <= *cursor {
                continue;
            }
            let lost = chunk.start.saturating_sub(*cursor);
            *cursor = chunk.end();
            self.lost += lost;
            self.len += chunk.events;
            self.chunks.push_back(chunk);
        }
        while self.len > max_retained {
            let front = self.chunks.pop_front().expect("len > 0");
            self.len -= front.events;
            self.trimmed += front.events as u64;
            self.cut = self.cut.max(Some(front.last));
        }
    }

    fn snapshot(&mut self, max_retained: usize) -> SourceDump {
        self.poll(max_retained);
        // Each ring's events past its cursor. A push that overwrote one
        // of them while it was copied was preceded by the pack that
        // holds it, so a second poll takes that chunk, and what the
        // chunks now hold comes off the copy.
        let mut rests = Vec::new();
        self.recorder.for_each_ring(|ring| {
            let cursor = self
                .cursors
                .get(ring.order() as usize)
                .copied()
                .unwrap_or(0);
            let mut events = Vec::new();
            let (first, _) = ring.copy_since(cursor, &mut events);
            rests.push((ring.order(), first, events));
        });
        self.poll(max_retained);
        let mut pending_lost = 0;
        for (ring, first, events) in &mut rests {
            let cursor = *self.cursor(*ring);
            let covered = cursor.saturating_sub(*first).min(events.len() as u64);
            events.drain(..covered as usize);
            *first += covered;
            pending_lost += *first - cursor.min(*first);
        }
        // Ring creation order, then push order; a stable sort by merge
        // key keeps it among equal keys, as `Recorder::drain` does.
        let mut runs: Vec<(u64, u64, Vec<Event>)> = self
            .chunks
            .iter()
            .map(|c| {
                let mut events = Vec::with_capacity(c.events);
                unpack_into(&c.bytes, c.events, &mut events);
                (c.ring, c.start, events)
            })
            .collect();
        runs.extend(rests);
        runs.sort_by_key(|&(ring, start, _)| (ring, start));
        let mut events: Vec<Event> = runs.into_iter().flat_map(|(_, _, e)| e).collect();
        events.sort_by_key(Event::merge_key);
        let cut = self.cut;
        let below_cut = events.partition_point(|e| cut.is_some_and(|c| e.merge_key() <= c));
        let excess = (events.len() - below_cut).saturating_sub(max_retained);
        events.drain(..below_cut + excess);
        SourceDump {
            label: self.label.clone(),
            dropped: self.recorder.dropped() + self.lost + pending_lost,
            trimmed: self.trimmed + (below_cut + excess) as u64,
            events,
            metrics: Some(MetricsDump::capture(self.recorder.metrics())),
            stats: self.stats,
        }
    }
}

impl Drop for FlightSource {
    fn drop(&mut self) {
        self.recorder.release();
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
    ///
    /// From here on the recorder's tracers pack their own rings and
    /// [`Recorder::drain`] returns none of its events; events it holds
    /// already reach the first snapshot, up to a ring's worth per ring.
    /// A recorder feeds one flight recorder at a time, until that one
    /// drops.
    pub fn add_source(&self, label: &str, recorder: &Recorder) -> usize {
        let mut sources = self.lock();
        sources.push(FlightSource::new(label, recorder));
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

    /// Takes every source's published chunks and trims whole chunks,
    /// oldest first, to the cap. Call periodically (a watchdog loop, an
    /// op-count stride) so published chunks do not pile up unbounded
    /// between snapshots.
    pub fn poll(&self) {
        for source in self.lock().iter_mut() {
            source.poll(self.max_retained);
        }
    }

    /// Bytes the retained events of every source take packed.
    pub fn packed_bytes(&self) -> usize {
        let sources = self.lock();
        let chunks = sources.iter().flat_map(|s| &s.chunks);
        chunks.map(|c| c.bytes.len()).sum()
    }

    /// Polls and assembles the dump: per source, the newest events up
    /// to the cap — retained chunks and the rings' unpacked rest,
    /// merged — a metrics capture, the latest stats, and the drop/trim
    /// accounting.
    pub fn snapshot(&self) -> FlightDump {
        let mut sources = self.lock();
        let sources = sources.iter_mut();
        FlightDump {
            wall_unix_ms: unix_ms(),
            sources: sources.map(|s| s.snapshot(self.max_retained)).collect(),
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
    use crate::dump::{pack_event, Bases, MAX_PACKED_EVENT};
    use crate::event::{Hook, SchemeId};
    use crate::ring::{Ring, MAX_TS};
    use crate::DEFAULT_RING_CAPACITY;
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
        // Rings of 8 pack chunks of 4, which the poll trims; a ring of
        // 4096 packs none, and the snapshot trims its unpacked rest.
        for capacity in [8, DEFAULT_RING_CAPACITY] {
            let recorder = Recorder::with_ring_capacity(2, capacity);
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

    /// What `pack` hands over of the events `ring` holds unpacked.
    fn pack_all(ring: &Ring) -> Vec<Chunk> {
        let mut chunks = Vec::new();
        ring.pack(|c| chunks.push(c));
        chunks
    }

    fn unpack(chunks: &[Chunk]) -> Vec<Event> {
        let mut out = Vec::new();
        for c in chunks {
            unpack_into(&c.bytes, c.events, &mut out);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        /// Whatever the rings, the polls and the cap, a snapshot is the
        /// newest events of the log one drain of the same emits merges,
        /// at most the cap of them and all of them under it, and every
        /// other event is counted trimmed: held rings drop nothing. The
        /// model is a recorder no flight recorder holds, with rings
        /// that never wrap.
        #[test]
        fn a_snapshot_is_the_newest_suffix_of_the_merged_log(
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
            let model_recorder = Recorder::with_ring_capacity(4, 512);
            let mut model_tracer = model_recorder.tracer(0, SchemeId(scheme));
            for (op, thread, hook, a, b) in ops {
                if op == 0 {
                    flight.poll();
                } else {
                    tracer.emit_for(thread, Hook::ALL[hook], a, b);
                    model_tracer.emit_for(thread, Hook::ALL[hook], a, b);
                }
            }
            // What `snapshot` does, without its wall-clock read.
            let src = flight.lock()[0].snapshot(max);
            let model = model_recorder.drain().events;
            let kept = src.events.len();
            prop_assert!(kept <= max);
            if model.len() <= max {
                prop_assert_eq!(kept, model.len());
            }
            prop_assert_eq!(&src.events[..], &model[model.len() - kept..]);
            prop_assert_eq!(src.trimmed, (model.len() - kept) as u64);
            prop_assert_eq!(src.dropped, 0);
        }
    }

    /// Large events — every hook, the escaped ones and a raw byte past
    /// `Hook::ALL` included, the service thread slot, words up to
    /// `u64::MAX`, `ts` stepping back and jumping half the range — come
    /// back from an owner's chunks bit for bit: each chunk decodes on
    /// its own, from zeroed bases.
    #[test]
    fn owner_chunks_round_trip_extreme_events() {
        let hooks: Vec<u8> = (0..Hook::COUNT as u8).chain([200]).collect();
        let ring = Ring::with_owner(64, u16::MAX, SchemeId(u8::MAX), 0);
        let mut rng = 7u64;
        let mut ts = 0u64;
        let mut pushed = Vec::new();
        let mut chunks = Vec::new();
        let n = if cfg!(miri) { 600 } else { 6_000usize };
        for k in 0..n {
            let r = lcg(&mut rng);
            ts = match k % 4 {
                0 => ts.wrapping_sub(3),
                1 => ts ^ 1 << 55,
                _ => ts.wrapping_add(r >> 61),
            } & MAX_TS;
            let word = |w: u64| if w.is_multiple_of(7) { u64::MAX } else { w };
            let mut e = event(
                ts,
                u16::MAX,
                hooks[k % hooks.len()],
                word(r.rotate_left(17)),
                word(r),
            );
            e.scheme = u8::MAX;
            ring.push(e);
            pushed.push(e);
            if k % 32 == 31 {
                chunks.extend(pack_all(&ring));
            }
        }
        chunks.extend(pack_all(&ring));
        assert_eq!(chunks.len(), n.div_ceil(32));
        assert!(chunks
            .iter()
            .all(|c| c.bytes.len() <= MAX_PACKED_EVENT * c.events));
        assert_eq!(unpack(&chunks), pushed);
    }

    #[test]
    fn backward_steps_and_extreme_values_round_trip() {
        let events = [
            event(100, 0, Hook::BeginOp as u8, 1, 0),
            event(97, 0, Hook::Load as u8, 2, 0),
            event(0, 0, 200, u64::MAX, 0),
            event(MAX_TS, 0, Hook::Retire as u8, 0, u64::MAX),
            event(1 << 55, 0, Hook::Reclaim as u8, 3, 4),
            event(5, 0, Hook::EndOp as u8, 0, 0),
        ];
        let ring = Ring::with_owner(8, 0, SchemeId::EBR, 0);
        events.iter().for_each(|&e| ring.push(e));
        assert_eq!(unpack(&pack_all(&ring)), events);
        // The same `Load`, stamped 3 ticks before the `BeginOp` or with it.
        let bytes_with_load_at = |ts| {
            let mut bytes = Vec::new();
            let mut bases = Bases::default();
            pack_event(&mut bytes, &mut bases, &events[0]);
            pack_event(
                &mut bytes,
                &mut bases,
                &event(ts, 0, Hook::Load as u8, 2, 0),
            );
            bytes.len()
        };
        assert_eq!(
            bytes_with_load_at(97),
            bytes_with_load_at(100) + 1,
            "a 3-tick step back costs one byte of ts delta"
        );
    }

    #[test]
    fn worst_case_and_churn_streams_stay_within_their_byte_bounds() {
        let cap = if cfg!(miri) { 256 } else { 1 << 12 };
        // Every field at its longest: an escaped hook, `ts` and both words
        // half the range off the last. After the first, each takes
        // `MAX_PACKED_EVENT` bytes less the 3-byte thread its ring omits.
        let ring = Ring::with_owner(cap, u16::MAX, SchemeId::EBR, 0);
        for k in 0..cap as u64 {
            let flip = (k & 1) << 55;
            ring.push(event(flip, u16::MAX, 200, flip << 8, flip << 8));
        }
        let chunks = pack_all(&ring);
        let bytes = chunks[0].bytes.len();
        assert!(bytes <= MAX_PACKED_EVENT * cap, "{bytes} bytes");
        assert_eq!(unpack(&chunks).len(), cap);
        // An EBR shard under churn: a worker's `Retire`s at heap-like
        // addresses, each 64 reclaimed as one run by the service tracer
        // (thread `u16::MAX`, as `StatCells::reclaim` emits them).
        let recorder = Recorder::new(1);
        let flight = FlightRecorder::single("churn", &recorder).with_max_retained(cap);
        let mut worker = recorder.tracer(0, SchemeId::EBR);
        let mut service = recorder.tracer(u16::MAX, SchemeId::EBR);
        let mut rng = 1u64;
        let mut nodes = [0u64; 64];
        for round in 0..4 * cap / 128 {
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
        let retained = flight.lock()[0].len;
        assert!(retained <= cap && retained > cap - DEFAULT_RING_CAPACITY / 2);
        assert!(flight.packed_bytes() <= 6 * retained);
    }

    #[test]
    fn a_chunk_is_half_a_ring_whatever_the_polls() {
        let polls = if cfg!(miri) { 1_000 } else { 100_000 };
        let recorder = Recorder::new(1);
        let flight = FlightRecorder::single("idle", &recorder).with_max_retained(polls as usize);
        let mut t = recorder.tracer(0, SchemeId::EBR);
        for i in 0..polls {
            t.emit(Hook::Sample, i, 0);
            flight.poll();
        }
        let sources = flight.lock();
        let half = DEFAULT_RING_CAPACITY / 2;
        assert_eq!(sources[0].len, polls as usize / half * half);
        assert!(sources[0].chunks.iter().all(|c| c.events == half));
    }

    #[test]
    #[cfg_attr(miri, ignore = "reads wall clock (SystemTime)")]
    fn a_held_recorder_drains_nothing_until_its_flight_recorder_drops() {
        let recorder = Recorder::with_ring_capacity(1, 8);
        let mut t = recorder.tracer(0, SchemeId::HP);
        let flight = FlightRecorder::single("held", &recorder);
        for i in 0..100 {
            t.emit(Hook::Retire, i, 0);
        }
        assert!(recorder.drain().events.is_empty());
        let src = &flight.snapshot().sources[0];
        assert_eq!((src.events.len(), src.dropped), (100, 0), "no overwrite");
        drop(flight);
        // Packing stopped: the ring drains from where its owner packed.
        for i in 100..103 {
            t.emit(Hook::Retire, i, 0);
        }
        let a: Vec<u64> = recorder.drain().events.iter().map(|e| e.a).collect();
        assert_eq!(a, [100, 101, 102]);
        assert_eq!(recorder.dropped(), 0);
    }
}
