//! The crash-safe flight recorder: a persistence layer over
//! [`Recorder`] that turns its retained trace into replayable `.eraflt`
//! dump files ([`crate::dump`]), and the log it reads.
//!
//! Every recorder keeps a *log*: the chunks its rings' owners publish,
//! each the half ring (256 events) an owner just filled, packed from
//! its own slots in [`crate::dump`]'s segment encoding — a tag byte plus
//! only the fields that changed since the last event with its hook, one
//! or two bytes for most where an [`Event`] is 32 — sized exactly and
//! decodable on its own. Under the lock it takes to publish, the owner
//! trims whole chunks, oldest first, to the recorder's cap on retained
//! events and counts them, so nothing polls the log and a recorder
//! nobody reads costs the cap, not the run. At cap 0 the owner packs
//! nothing and only counts the half trimmed.
//!
//! A read — [`Recorder::drain`], or a source's part of a snapshot —
//! merges the retained chunks, shared by pointer, with each ring's
//! unpacked rest by [`Event::merge_key`], ties in ring creation order,
//! and returns the newest up to the cap above the largest key trimmed:
//! a suffix of the merged log. A drain then takes what it returned out
//! of the log; a snapshot consumes nothing. Every event is returned,
//! retained or counted trimmed: no ring drops any.
//!
//! A [`FlightRecorder`] owns a set of *sources* — labelled recorders
//! (one per scheme in `chaos_bench`, one per shard in `era-net serve`) —
//! and sets each one's cap to its own ([`DEFAULT_MAX_RETAINED`] by
//! default). Events reach a dump by
//! [`snapshot`](FlightRecorder::snapshot), which reads every source as
//! above, and by [`install_panic_hook`](FlightRecorder::install_panic_hook),
//! a chained `std::panic` hook that writes the snapshot to a file as
//! the process dies, so a chaos-injected fault or a plain bug leaves a
//! post-mortem artifact next to its `FaultPlan` JSON.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::SystemTime;

use crate::dump::{unpack_into, DumpStats, FlightDump, MetricsDump, SourceDump};
use crate::event::Event;
use crate::recorder::{Recorder, TraceLog};
use crate::ring::{Ring, HALF};

/// Default cap on retained events per recorder; the oldest are trimmed
/// — whole chunks at a time, and counted — beyond it. A shard's
/// retained events are its retires, reclaim runs and protocol events
/// (operations are counted, not recorded), about 5.5 bytes each on an
/// EBR shard under churn, so a full log holds about 0.36 MB and covers
/// about 214 k served operations of `net-churn-ebr` (E27, E28, E31).
pub const DEFAULT_MAX_RETAINED: usize = 1 << 16;

/// A merge key: [`Event::merge_key`].
type Key = (u64, bool, u16);

/// One ring's events, packed at once by its owner: half a ring, or the
/// rest of a ring whose tracer is gone. A clone shares the bytes.
#[derive(Debug, Clone)]
struct Chunk {
    /// The events, packed from zeroed bases; sized to what they take.
    bytes: Arc<[u8]>,
    events: usize,
    /// The ring's creation order in its recorder.
    ring: u64,
    /// The ring position of the first event.
    start: u64,
    /// The first events a drain took before the chunk was published.
    skip: usize,
    /// The merge key of the last event, the largest: one writer's keys
    /// never go down.
    last: Key,
}

/// A recorder's log. The lock is held to add one chunk and trim — once
/// per half ring, on the owner's side — or to copy the list, once per
/// read.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct Outbox {
    /// The cap on retained events; 0 packs nothing. An owner reads it
    /// without the lock.
    max: AtomicUsize,
    retained: Mutex<Retained>,
}

/// What a recorder's owners have published, trimmed to the cap.
#[derive(Debug, Default, Clone)]
struct Retained {
    /// Published and not trimmed, oldest published first.
    chunks: VecDeque<Chunk>,
    /// Events in `chunks`, skips left out.
    len: usize,
    /// Per ring, by creation order, from its first publish or take
    /// until it is let go of: only live rings have an entry.
    marks: BTreeMap<u64, Marks>,
    /// Events trimmed by the cap.
    trimmed: u64,
    /// The largest merge key among them: a read leaves out every event
    /// at or below it, so it returns a suffix of the merged log.
    cut: Option<Key>,
}

/// Where one ring stands in its recorder's log.
#[derive(Debug, Default, Clone, Copy)]
struct Marks {
    /// The position past the last event published.
    published: u64,
    /// The position past the last event a drain took.
    taken: u64,
}

impl Retained {
    /// Counts `events` ending at merge key `last` trimmed.
    fn count_trimmed(&mut self, events: usize, last: Key) {
        self.trimmed += events as u64;
        self.cut = self.cut.max(Some(last));
    }

    /// Trims whole chunks, oldest first, to `max` events.
    fn trim(&mut self, max: usize) {
        while self.len > max {
            let front = self.chunks.pop_front().expect("len > 0");
            self.len -= front.events - front.skip;
            self.count_trimmed(front.events - front.skip, front.last);
        }
    }
}

impl Outbox {
    /// An empty log retaining at most `max` events.
    pub(crate) fn new(max: usize) -> Outbox {
        Outbox {
            max: AtomicUsize::new(max),
            retained: Mutex::default(),
        }
    }

    /// Publishes `ring`'s events from position `lo` to its head: packed
    /// into one chunk, trimming the log to the cap, or, while the cap
    /// is 0, counted trimmed. Owner-side (or for a ring whose owner is
    /// gone), with every position below `lo` already published.
    pub(crate) fn publish(&self, ring: &Ring, lo: u64) {
        let done = ring.pushed();
        if lo == done {
            return;
        }
        // SAFETY(ordering): Relaxed — a cap changed meanwhile only
        // decides whether this half is packed or counted; both keep the
        // accounting exact.
        let bytes = (self.max.load(Ordering::Relaxed) > 0).then(|| ring.pack(lo, done));
        let last = ring.event(done - 1).merge_key();
        let mut retained = self.lock();
        let marks = retained.marks.entry(ring.order).or_default();
        marks.published = done;
        let skip = marks.taken.clamp(lo, done) - lo;
        let fresh = (done - lo - skip) as usize;
        match bytes {
            _ if fresh == 0 => {}
            Some(bytes) => {
                retained.len += fresh;
                retained.chunks.push_back(Chunk {
                    bytes,
                    events: (done - lo) as usize,
                    ring: ring.order,
                    start: lo,
                    skip: skip as usize,
                    last,
                });
                retained.trim(self.max.load(Ordering::Relaxed));
            }
            None => retained.count_trimmed(fresh, last),
        }
    }

    /// Sets the cap, and trims to it.
    pub(crate) fn set_max(&self, max: usize) {
        let mut retained = self.lock();
        // SAFETY(ordering): Relaxed — the lock orders it against the
        // trims; an owner that reads the old cap still counts exactly.
        self.max.store(max, Ordering::Relaxed);
        retained.trim(max);
    }

    /// Publishes the rest of `ring`, whose tracer is gone, and forgets
    /// it: no one writes or reads it any more.
    pub(crate) fn let_go(&self, ring: &Ring) {
        // Every half the owner completed, it published.
        self.publish(ring, ring.pushed() & !(HALF - 1));
        self.lock().marks.remove(&ring.order);
    }

    /// Merges the retained chunks with `rests` — per ring, `(creation
    /// order, position of the first event, the events copied from its
    /// last lap)`, of which it keeps the unpacked rest — by merge key, ties in ring creation order,
    /// and returns the newest up to the cap above the cut; every other
    /// event is counted trimmed. With `take`, what it read leaves the
    /// log: the chunks go, and each ring's rest is marked taken.
    pub(crate) fn read(&self, rests: Vec<(u64, u64, Vec<Event>)>, take: bool) -> TraceLog {
        let mut retained = self.lock();
        let mut runs = Vec::with_capacity(rests.len() + retained.chunks.len());
        for (ring, first, mut events) in rests {
            // The log holds what the ring published, before the copy
            // or since, and an earlier drain took its front: keep what
            // is past both.
            let done = first + events.len() as u64;
            let marks = retained.marks.get(&ring).copied().unwrap_or_default();
            let covered = marks.published.max(marks.taken).clamp(first, done) - first;
            events.drain(..covered as usize);
            if take {
                let marks = retained.marks.entry(ring).or_default();
                marks.taken = done.max(marks.taken);
            }
            runs.push((ring, first + covered, events));
        }
        let chunks = if take {
            retained.len = 0;
            std::mem::take(&mut retained.chunks)
        } else {
            retained.chunks.clone()
        };
        let (mut trimmed, cut) = (retained.trimmed, retained.cut);
        drop(retained);
        runs.extend(chunks.iter().map(|c| {
            let mut events = Vec::with_capacity(c.events);
            unpack_into(&c.bytes, c.events, &mut events);
            events.drain(..c.skip);
            (c.ring, c.start + c.skip as u64, events)
        }));
        // Ring creation order, then push order; a stable sort by merge
        // key keeps it among equal keys.
        runs.sort_by_key(|&(ring, start, _)| (ring, start));
        let mut events: Vec<Event> = runs.into_iter().flat_map(|(_, _, e)| e).collect();
        events.sort_by_key(Event::merge_key);
        let below_cut = events.partition_point(|e| cut.is_some_and(|c| e.merge_key() <= c));
        let max = self.max.load(Ordering::Relaxed);
        let gone = below_cut + (events.len() - below_cut).saturating_sub(max);
        if take && gone > 0 {
            let mut retained = self.lock();
            retained.count_trimmed(gone, events[gone - 1].merge_key());
            trimmed = retained.trimmed;
        } else {
            trimmed += gone as u64;
        }
        events.drain(..gone);
        TraceLog { events, trimmed }
    }

    fn packed_bytes(&self) -> usize {
        self.lock().chunks.iter().map(|c| c.bytes.len()).sum()
    }

    fn lock(&self) -> MutexGuard<'_, Retained> {
        // A push or a trim leaves the list whole even if it panics, and
        // the crash dump copies it from a panic hook.
        self.retained.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[derive(Debug)]
struct FlightSource {
    label: String,
    recorder: Recorder,
    stats: Option<DumpStats>,
}

impl FlightSource {
    fn snapshot(&self) -> SourceDump {
        let log = self.recorder.read(false);
        SourceDump {
            label: self.label.clone(),
            dropped: self.recorder.dropped(),
            trimmed: log.trimmed,
            events: log.events,
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

    /// Overrides the per-source retained-event cap (builder style), for
    /// the sources already added too.
    pub fn with_max_retained(mut self, max_retained: usize) -> Self {
        self.max_retained = max_retained.max(1);
        for source in self.lock().iter() {
            source.recorder.outbox().set_max(self.max_retained);
        }
        self
    }

    /// Convenience: a new flight recorder already tracking `recorder`
    /// under `label`.
    pub fn single(label: &str, recorder: &Recorder) -> FlightRecorder {
        let flight = FlightRecorder::new();
        flight.add_source(label, recorder);
        flight
    }

    /// Registers a recorder as a dump source and sets its cap on
    /// retained events to this flight recorder's; returns its index
    /// (for [`set_stats`](Self::set_stats)). Labels identify schemes or
    /// shards in `era-view`; they need not be unique but should be.
    /// What the recorder's log holds already reaches the first
    /// snapshot; a recorder whose cap was 0 holds only its rings'
    /// unpacked rests. The cap belongs to the recorder and outlives
    /// this flight recorder: once it drops, the recorder's owners keep
    /// packing and retaining up to the cap for as long as the recorder
    /// lives, so add a recorder whose life ends with the reads.
    pub fn add_source(&self, label: &str, recorder: &Recorder) -> usize {
        recorder.outbox().set_max(self.max_retained);
        let mut sources = self.lock();
        sources.push(FlightSource {
            label: label.to_string(),
            recorder: recorder.clone(),
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

    /// Bytes the retained chunks of every source take packed.
    pub fn packed_bytes(&self) -> usize {
        let sources = self.lock();
        sources
            .iter()
            .map(|s| s.recorder.outbox().packed_bytes())
            .sum()
    }

    /// Assembles the dump: per source, the newest events up to the cap
    /// — retained chunks and the rings' unpacked rests, merged — a
    /// metrics capture, the latest stats, and the trim count.
    pub fn snapshot(&self) -> FlightDump {
        let sources = self.lock();
        FlightDump {
            wall_unix_ms: unix_ms(),
            sources: sources.iter().map(FlightSource::snapshot).collect(),
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
    use crate::ring::{Ring, HALF, MAX_TS, SLOTS};
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
    fn published_chunks_and_unpacked_rests_do_not_overlap() {
        // The owner publishes every 256 events: each snapshot reads
        // chunks and the ring's unpacked rest, and consumes neither.
        let recorder = Recorder::new(2);
        let flight = FlightRecorder::single("s", &recorder);
        let mut t = recorder.tracer(0, SchemeId::HP);
        for i in 0..300 {
            t.emit(Hook::Retire, i, 0);
        }
        assert_eq!(flight.snapshot().sources[0].events.len(), 300);
        for i in 300..1_000 {
            t.emit(Hook::Retire, i, 0);
        }
        let dump = flight.snapshot();
        assert_eq!(dump.sources[0].events.len(), 1_000);
        let mut payloads: Vec<u64> = dump.sources[0].events.iter().map(|e| e.a).collect();
        payloads.dedup();
        assert_eq!(payloads, (0..1_000).collect::<Vec<_>>());
    }

    #[test]
    #[cfg_attr(miri, ignore = "reads wall clock (SystemTime)")]
    fn memory_cap_trims_oldest_and_counts_them() {
        // 64 events stay in the ring, and the snapshot trims its
        // unpacked rest; of 1 000, the owner trims each chunk of 256 as
        // it publishes it, and the snapshot trims the rest.
        for emitted in [64, 1_000] {
            let recorder = Recorder::new(2);
            let flight = FlightRecorder::single("s", &recorder).with_max_retained(16);
            let mut t = recorder.tracer(0, SchemeId::NONE);
            for i in 0..emitted {
                t.emit(Hook::Sample, i, 0);
            }
            let dump = flight.snapshot();
            let src = &dump.sources[0];
            assert_eq!(src.events.len(), 16);
            assert_eq!(src.trimmed, emitted - 16);
            assert_eq!(
                src.events.first().unwrap().a,
                emitted - 16,
                "newest survive"
            );
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

    /// Pushes `e` into `ring` with no pack boundary.
    fn push(ring: &Ring, e: Event) {
        ring.write(e.ts, e.hook, e.a, e.b, |_| ());
    }

    /// `ring`'s events from `lo` to its head, packed, and `lo` moved
    /// past them.
    fn pack_from(ring: &Ring, lo: &mut u64) -> (Arc<[u8]>, usize) {
        let done = ring.pushed();
        let packed = (ring.pack(*lo, done), (done - *lo) as usize);
        *lo = done;
        packed
    }

    fn unpack(chunks: &[(Arc<[u8]>, usize)]) -> Vec<Event> {
        let mut out = Vec::new();
        for (bytes, events) in chunks {
            unpack_into(bytes, *events, &mut out);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        /// Whatever the rings, the snapshots between emits and the cap, a
        /// snapshot is the newest events of the log one drain of the
        /// same emits merges, at most the cap of them and all of them
        /// under it, and every other event is counted trimmed: rings
        /// drop nothing. The model is a recorder that trims nothing.
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
                0..if cfg!(miri) { 300 } else { 1_500 },
            ),
            max in 1..600usize,
            scheme in 0..9u8,
        ) {
            let recorder = Recorder::new(4);
            let flight = FlightRecorder::single("p", &recorder).with_max_retained(max);
            let mut tracer = recorder.tracer(0, SchemeId(scheme));
            let model_recorder = Recorder::with_max_retained(4, usize::MAX);
            let mut model_tracer = model_recorder.tracer(0, SchemeId(scheme));
            let mut recorded = 0u64;
            for (op, thread, hook, a, b) in ops {
                if op == 0 {
                    // What `snapshot` does, without its wall-clock read.
                    let src = flight.lock()[0].snapshot();
                    prop_assert!(src.events.len() <= max);
                    prop_assert_eq!(src.events.len() as u64 + src.trimmed, recorded);
                    prop_assert_eq!(src.dropped, 0);
                } else {
                    recorded += u64::from(Hook::ALL[hook].is_recorded());
                    tracer.emit_for(thread, Hook::ALL[hook], a, b);
                    model_tracer.emit_for(thread, Hook::ALL[hook], a, b);
                }
            }
            let src = flight.lock()[0].snapshot();
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
        let ring = Ring::new(u16::MAX, SchemeId(u8::MAX), 0);
        let mut rng = 7u64;
        let mut ts = 0u64;
        let mut pushed = Vec::new();
        let mut chunks = Vec::new();
        let mut lo = 0;
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
            push(&ring, e);
            pushed.push(e);
            if k % 32 == 31 {
                chunks.push(pack_from(&ring, &mut lo));
            }
        }
        chunks.push(pack_from(&ring, &mut lo));
        assert_eq!(chunks.len(), n.div_ceil(32));
        assert!(chunks
            .iter()
            .all(|(bytes, events)| bytes.len() <= MAX_PACKED_EVENT * events));
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
        let ring = Ring::new(0, SchemeId::EBR, 0);
        events.iter().for_each(|&e| push(&ring, e));
        assert_eq!(unpack(&[pack_from(&ring, &mut 0)]), events);
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
        // Every field at its longest: an escaped hook, `ts` and both words
        // half the range off the last. After the first, each takes
        // `MAX_PACKED_EVENT` bytes less the 3-byte thread its ring omits.
        let ring = Ring::new(u16::MAX, SchemeId::EBR, 0);
        for k in 0..SLOTS as u64 {
            let flip = (k & 1) << 55;
            push(&ring, event(flip, u16::MAX, 200, flip << 8, flip << 8));
        }
        let chunk = pack_from(&ring, &mut 0);
        assert!(
            chunk.0.len() <= MAX_PACKED_EVENT * SLOTS,
            "{} bytes",
            chunk.0.len()
        );
        assert_eq!(unpack(&[chunk]).len(), SLOTS);
        // An EBR shard under churn: a worker's `Retire`s at heap-like
        // addresses, each 64 reclaimed as one run by the service tracer
        // (thread `u16::MAX`, as `StatCells::reclaim` emits them).
        let cap = if cfg!(miri) { 256 } else { 1 << 12 };
        let recorder = Recorder::new(1);
        let flight = FlightRecorder::single("churn", &recorder).with_max_retained(cap);
        let mut worker = recorder.tracer(0, SchemeId::EBR);
        let mut service = recorder.tracer(u16::MAX, SchemeId::EBR);
        let mut rng = 1u64;
        let mut nodes = [0u64; 64];
        for _ in 0..4 * cap / 128 {
            let retired_at = recorder.now();
            for (held, node) in nodes.iter_mut().enumerate() {
                *node = 0x7f3a_0000_0000 + (lcg(&mut rng) >> 50) * 64;
                worker.emit(Hook::Retire, *node, held as u64 + 1);
            }
            service.emit_run(Hook::Reclaim, nodes.len(), |k, ts| {
                (nodes[k], ts - (retired_at + k as u64))
            });
        }
        let retained = recorder.outbox().lock().len;
        assert!(retained <= cap && retained > cap - HALF as usize);
        assert!(flight.packed_bytes() <= 6 * retained);
    }

    /// The chunks a snapshot reads are its owner's, half a ring each:
    /// a snapshot packs nothing, whatever the number of them.
    #[test]
    fn a_chunk_is_half_a_ring_whatever_the_snapshots() {
        let events = if cfg!(miri) { 600 } else { 4_096 };
        let recorder = Recorder::new(1);
        let flight = FlightRecorder::single("idle", &recorder).with_max_retained(events as usize);
        let mut t = recorder.tracer(0, SchemeId::EBR);
        for i in 0..events {
            t.emit(Hook::Sample, i, 0);
            if i % 7 == 0 {
                let src = flight.lock()[0].snapshot();
                assert_eq!(src.events.len() as u64, i + 1);
            }
        }
        let retained = recorder.outbox().lock().clone();
        assert_eq!(retained.len as u64, events / HALF * HALF);
        assert!(retained.chunks.iter().all(|c| c.events as u64 == HALF));
    }

    /// A held recorder whose tracers come and go — 1 000 of them, each
    /// emitting and dropping, and no snapshot in between — holds the
    /// rings of the live tracers only, and the next snapshot accounts
    /// for every event: retained, trimmed or dropped.
    #[test]
    fn a_held_recorders_gone_tracers_are_released_without_a_snapshot() {
        let (tracers, per) = if cfg!(miri) { (50, 40) } else { (1_000, 300) };
        let recorder = Recorder::new(2);
        let flight = FlightRecorder::single("churn", &recorder).with_max_retained(4_096);
        let mut kept = recorder.tracer(0, SchemeId::EBR);
        for k in 0..tracers {
            let mut t = recorder.tracer(1, SchemeId::EBR);
            for i in 0..per {
                t.emit(Hook::Retire, i, k);
            }
            kept.emit(Hook::Reclaim, k, 0);
            drop(t);
            assert!(
                recorder.ring_count() <= 2,
                "{} rings",
                recorder.ring_count()
            );
        }
        let src = flight.lock()[0].snapshot();
        assert_eq!(recorder.ring_count(), 1, "only the live tracer's ring");
        assert_eq!(
            src.events.len() as u64 + src.trimmed + src.dropped,
            tracers * (per + 1)
        );
        assert_eq!(src.dropped, 0);
        assert!(src.events.len() <= 4_096);
    }

    #[test]
    fn a_recorder_that_retains_nothing_counts_every_event_trimmed() {
        let recorder = Recorder::with_max_retained(1, 0);
        let mut t = recorder.tracer(0, SchemeId::EBR);
        for i in 0..1_000 {
            t.emit(Hook::Retire, i, 0);
        }
        let retained = recorder.outbox().lock().clone();
        assert_eq!(
            (retained.trimmed, retained.len),
            (768, 0),
            "three halves counted"
        );
        let log = recorder.drain();
        assert!(log.events.is_empty());
        assert_eq!(log.trimmed, 1_000);
    }

    /// A recorder whose tracers come and go keeps log marks for its
    /// live rings only — at cap 0, as a store shard's, and at a cap
    /// that packs, with or without drains and snapshots between — so
    /// 1 000 rings created and let go of leave nothing behind, and the
    /// accounting stays exact.
    #[test]
    fn a_churning_recorder_marks_only_its_live_rings() {
        let (tracers, per) = if cfg!(miri) { (40, 40) } else { (1_000, 300) };
        for (max, read_every) in [(0, 0), (0, 7), (4_096, 0), (4_096, 7)] {
            let recorder = Recorder::with_max_retained(2, max);
            let mut kept = recorder.tracer(0, SchemeId::EBR);
            let mut returned = 0;
            for k in 0..tracers {
                let mut t = recorder.tracer(1, SchemeId::EBR);
                for i in 0..per {
                    t.emit(Hook::Retire, i, k);
                }
                kept.emit(Hook::Reclaim, k, 0);
                drop(t);
                if read_every > 0 && k % read_every == 0 {
                    let take = k % 2 == 0;
                    let log = recorder.read(take);
                    returned += if take { log.events.len() as u64 } else { 0 };
                }
                let marks = recorder.outbox().lock().marks.len();
                let rings = recorder.ring_count();
                assert!(marks <= rings, "cap {max}: {marks} marks, {rings} rings");
            }
            let log = recorder.drain();
            assert_eq!(recorder.ring_count(), 1, "only the live tracer's ring");
            assert!(recorder.outbox().lock().marks.len() <= 1);
            returned += log.events.len() as u64;
            assert_eq!(returned + log.trimmed, tracers * (per + 1), "cap {max}");
        }
    }

    /// Single-threaded, no wall clock, sized for Miri: a drain takes
    /// what it returns — the chunks and the ring's unpacked rest — out
    /// of the log, and a snapshot only reads it. The chunk the owner
    /// publishes next starts inside what the drain took, and only its
    /// untaken events come back.
    #[test]
    fn a_drain_takes_what_a_snapshot_only_reads() {
        let payloads = |events: &[Event]| events.iter().map(|e| e.a).collect::<Vec<_>>();
        let recorder = Recorder::new(1);
        let flight = FlightRecorder::single("s", &recorder);
        let mut t = recorder.tracer(0, SchemeId::HP);
        for i in 0..300 {
            t.emit(Hook::Retire, i, 0);
        }
        let src = flight.lock()[0].snapshot();
        assert_eq!(payloads(&src.events), (0..300).collect::<Vec<_>>());
        let log = recorder.drain();
        assert_eq!(payloads(&log.events), (0..300).collect::<Vec<_>>());
        assert!(flight.lock()[0].snapshot().events.is_empty());
        for i in 300..600 {
            t.emit(Hook::Retire, i, 0);
        }
        let src = flight.lock()[0].snapshot();
        assert_eq!(payloads(&src.events), (300..600).collect::<Vec<_>>());
        let log = recorder.drain();
        assert_eq!(payloads(&log.events), (300..600).collect::<Vec<_>>());
        assert_eq!((log.trimmed, src.trimmed, src.dropped), (0, 0, 0));
        assert!(recorder.drain().events.is_empty());
    }
}
