//! The crash-safe flight recorder: a persistence layer over
//! [`Recorder`] that turns volatile trace rings into replayable
//! `.eraflt` dump files ([`crate::dump`]).
//!
//! A [`FlightRecorder`] owns a set of *sources* — labelled recorders
//! (one per scheme in `chaos_bench`, one per shard in `era-net serve`) —
//! and maintains, per source, a retained event buffer plus a series of
//! *(wall instant, logical tick)* checkpoints. Because the trace clock
//! is logical, the checkpoints are what let "the last N seconds" be
//! translated into a clock cutoff: the newest checkpoint older than
//! the window gives the tick before which events are aged out.
//!
//! Three ways events reach a dump:
//!
//! - [`poll`](FlightRecorder::poll) — periodic incremental drain
//!   ([`Recorder::drain_since`]) into the retained buffer; call it
//!   from a watchdog/sampler loop so a crash loses at most one ring
//!   of un-drained events per thread.
//! - [`snapshot`](FlightRecorder::snapshot) — explicit: drain whatever
//!   is pending, apply the window, and assemble a [`FlightDump`] with
//!   each source's metrics, stats, and honest drop/trim counts.
//! - [`install_panic_hook`](FlightRecorder::install_panic_hook) — a
//!   chained `std::panic` hook that writes the snapshot to a file as
//!   the process dies, so a chaos-injected fault or a plain bug leaves
//!   a post-mortem artifact next to its `FaultPlan` JSON.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant, SystemTime};

use crate::dump::{DumpStats, FlightDump, MetricsDump, SourceDump};
use crate::event::Event;
use crate::recorder::{Recorder, TraceLog};

/// Default cap on retained events per source (~8 MiB of 32-byte
/// events). The oldest are trimmed — and counted — beyond this.
pub const DEFAULT_MAX_RETAINED: usize = 1 << 18;

#[derive(Debug)]
struct FlightSource {
    label: String,
    recorder: Recorder,
    /// Drained-but-not-yet-dumped events, ascending `ts`.
    retained: Vec<Event>,
    /// Events aged out of `retained` by the window or the memory cap.
    trimmed: u64,
    /// (wall instant, logical tick) pairs, oldest first.
    checkpoints: VecDeque<(Instant, u64)>,
    stats: Option<DumpStats>,
}

impl FlightSource {
    /// Drains pending ring events into the retained buffer and stamps
    /// a checkpoint, then ages out events past `window`/`max_retained`.
    fn poll(&mut self, now: Instant, window: Option<Duration>, max_retained: usize) {
        let log = self.recorder.drain_since(0);
        self.retained.extend(log.events);
        self.checkpoints.push_back((now, self.recorder.now()));
        if let Some(window) = window {
            // The newest checkpoint already older than the window maps
            // the window edge to a logical tick; everything before that
            // tick is out of the last N seconds.
            let mut cutoff = None;
            while let Some(&(t, ts)) = self.checkpoints.front() {
                if now.duration_since(t) <= window || self.checkpoints.len() == 1 {
                    break;
                }
                cutoff = Some(ts);
                self.checkpoints.pop_front();
            }
            if let Some(cutoff) = cutoff {
                // `cutoff` is the clock as read at that checkpoint. An
                // event stamped exactly `cutoff` is a per-operation
                // event that read the same value — possibly after the
                // checkpoint — or the protocol event that ticked it:
                // neither is provably outside the window, so both stay.
                let keep_from = self.retained.partition_point(|e| e.ts < cutoff);
                self.trimmed += keep_from as u64;
                self.retained.drain(..keep_from);
            }
        }
        if self.retained.len() > max_retained {
            let excess = self.retained.len() - max_retained;
            self.trimmed += excess as u64;
            self.retained.drain(..excess);
        }
    }

    fn to_source_dump(&self) -> SourceDump {
        SourceDump {
            label: self.label.clone(),
            dropped: self.recorder.dropped(),
            trimmed: self.trimmed,
            events: self.retained.clone(),
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
    window: Option<Duration>,
    max_retained: usize,
    sources: Mutex<Vec<FlightSource>>,
}

impl FlightRecorder {
    /// An unwindowed recorder: snapshots carry everything retained
    /// (up to the per-source memory cap).
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            window: None,
            max_retained: DEFAULT_MAX_RETAINED,
            sources: Mutex::new(Vec::new()),
        }
    }

    /// A recorder whose snapshots keep only the last `window` of
    /// events (as mapped through poll-time checkpoints).
    pub fn with_window(window: Duration) -> FlightRecorder {
        FlightRecorder {
            window: Some(window),
            ..FlightRecorder::new()
        }
    }

    /// Overrides the per-source retained-event cap (builder style).
    pub fn with_max_retained(mut self, max_retained: usize) -> Self {
        self.max_retained = max_retained.max(1);
        self
    }

    /// Convenience: a new unwindowed flight recorder already tracking
    /// `recorder` under `label`.
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
            retained: Vec::new(),
            trimmed: 0,
            checkpoints: VecDeque::new(),
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

    /// Number of registered sources.
    pub fn source_count(&self) -> usize {
        self.lock().len()
    }

    /// Drains every source's pending ring events into the retained
    /// buffers and advances the window. Call periodically (a sampler
    /// loop, an op-count stride) so ring overwrite — not the flight
    /// layer — is the only place history can be lost.
    pub fn poll(&self) {
        let now = Instant::now();
        for source in self.lock().iter_mut() {
            source.poll(now, self.window, self.max_retained);
        }
    }

    /// A clone of source `idx`'s retained events as a [`TraceLog`]
    /// (empty when out of range). Lets report collectors reuse the
    /// flight drain instead of racing it for ring events.
    pub fn retained_log(&self, idx: usize) -> TraceLog {
        let sources = self.lock();
        match sources.get(idx) {
            Some(s) => TraceLog {
                events: s.retained.clone(),
                dropped: s.recorder.dropped(),
            },
            None => TraceLog::default(),
        }
    }

    /// Drains pending events and assembles the dump: per source, the
    /// windowed retained events, a metrics capture, the latest stats,
    /// and the drop/trim accounting.
    pub fn snapshot(&self) -> FlightDump {
        self.poll();
        let sources = self.lock();
        FlightDump {
            version: crate::dump::DUMP_VERSION,
            wall_unix_ms: unix_ms(),
            window_ms: self.window.map(|w| w.as_millis() as u64).unwrap_or(0),
            sources: sources.iter().map(|s| s.to_source_dump()).collect(),
        }
    }

    /// Snapshots and writes a compressed `.eraflt` file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn snapshot_to_file(&self, path: &Path) -> std::io::Result<()> {
        let bytes = self.snapshot().encode(true);
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

#[cfg(all(test, feature = "rt"))]
mod tests {
    use super::*;
    use crate::event::{Hook, SchemeId};

    #[test]
    #[cfg_attr(miri, ignore = "reads wall clock (Instant/SystemTime)")]
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
        let back = FlightDump::decode(&dump.encode(true)).unwrap();
        assert_eq!(back, dump);
    }

    #[test]
    #[cfg_attr(miri, ignore = "reads wall clock (Instant/SystemTime)")]
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
    #[cfg_attr(miri, ignore = "reads wall clock (Instant/SystemTime)")]
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
    #[cfg_attr(miri, ignore = "reads wall clock (Instant/SystemTime)")]
    fn window_ages_out_old_checkpoints() {
        let recorder = Recorder::new(2);
        let flight = FlightRecorder::with_window(Duration::from_millis(5));
        flight.add_source("w", &recorder);
        let mut t = recorder.tracer(0, SchemeId::NONE);
        t.emit(Hook::Sample, 1, 0);
        flight.poll();
        std::thread::sleep(Duration::from_millis(30));
        t.emit(Hook::Sample, 2, 0);
        // Two polls after the sleep: the first establishes a checkpoint
        // beyond the window; the second applies the cutoff.
        flight.poll();
        std::thread::sleep(Duration::from_millis(30));
        let dump = flight.snapshot();
        let src = &dump.sources[0];
        assert!(
            src.events.iter().all(|e| e.a != 1),
            "pre-window event must be aged out, got {:?}",
            src.events
        );
        assert!(src.trimmed >= 1);
        assert_eq!(dump.window_ms, 5);
    }

    #[test]
    #[cfg_attr(miri, ignore = "reads wall clock (Instant/SystemTime)")]
    fn window_cut_keeps_the_events_tied_with_the_cutoff() {
        let recorder = Recorder::new(2);
        let flight = FlightRecorder::with_window(Duration::from_secs(1));
        flight.add_source("w", &recorder);
        let mut t = recorder.tracer(0, SchemeId::HP);
        let poll_at = |now: Instant| {
            for source in flight.lock().iter_mut() {
                source.poll(now, flight.window, flight.max_retained);
            }
        };
        let start = Instant::now();
        t.emit(Hook::Retire, 1, 0); // ts 1, clock → 2
        poll_at(start); // checkpoint (start, 2)
        t.emit(Hook::Load, 2, 0); // ts 2: reads what the checkpoint read
        t.emit(Hook::Retire, 3, 0); // ts 2, clock → 3
        t.emit(Hook::Load, 4, 0); // ts 3
        poll_at(start + Duration::from_secs(10)); // cutoff = 2
        let log = flight.retained_log(0);
        let kept: Vec<(u64, u64)> = log.events.iter().map(|e| (e.ts, e.a)).collect();
        assert_eq!(kept, [(2, 2), (2, 3), (3, 4)], "only ts < cutoff ages out");
        assert_eq!(flight.snapshot().sources[0].trimmed, 1);
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
}
