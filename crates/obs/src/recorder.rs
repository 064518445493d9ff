//! The [`Recorder`] facade and per-thread [`ThreadTracer`] handles.
//!
//! A `Recorder` owns the global logical clock, the aggregate
//! [`Metrics`], one ring per thread slot each issued tracer writes for,
//! and the log its rings publish to. Tracers are the only write path:
//! each holds an exclusive `Arc` to its own rings and its own
//! hook-counter block, so the single-writer contract is enforced by
//! construction. Each ring is a 512-slot staging buffer its owner packs
//! every half ring (256 events) into a chunk of the log, which keeps
//! the newest of them up to the recorder's cap on retained events,
//! trimmed as they are published ([`crate::flight`]). [`Recorder::drain`]
//! merges the log and every ring's unpacked rest into one log ordered
//! by [`Event::merge_key`], and takes what it returns out of the log.
//!
//! # The clock
//!
//! The clock is one shared word, and the emit path is written so that
//! nothing on the operation path writes it. Protocol events — every
//! hook for which [`Hook::advances_clock`] holds: reclaim, epoch
//! advance, restart, blame, adoption, faults, the navigator, the
//! serving front-end, the simulator's oracle and driver — draw a fresh
//! timestamp with a `fetch_add`; a run of `n` of them
//! ([`ThreadTracer::emit_run`], a reclaim batch) draws `n` consecutive
//! ones with a single `fetch_add(n)`. `Reserve` and `Retire` stamp
//! themselves with a plain *load* of it, so between two ticks the
//! clock's cache line sits Shared in every core and neither an
//! operation nor its retire writes anything another thread reads: the
//! clock is written only on the amortised reclamation path.
//!
//! `BeginOp`, `EndOp` and `Load` neither read the clock nor reach a
//! ring: they are counted, never recorded ([`Hook::is_recorded`]). An
//! emit of one bumps the tracer's own hook counter and returns, so an
//! HP read stores nothing but its hazards, and an EBR read nothing but
//! its pin.
//!
//! Ordering stays sound by the coherence of that single word: an event
//! that happens-after a ticking event reads a strictly larger value,
//! and a reading event stamped `v` read the clock before the tick that
//! issued `v`. Hence the merge key `(ts, advances_clock, thread)` plus
//! ring order: readers sort before the ticker they tie with, one
//! thread's events keep their program order, and a tie between reading
//! events of two threads means "concurrent": no ticking event — no
//! reclaim, no epoch advance — separates them. A node's `Retire`
//! happens before its `Reclaim`, so the reclaim's tick is at least the
//! value the retire read and, tied or not, sorts after it.
//!
//! Tracing is always compiled in; a tracer is off only at run time,
//! when no recorder issued it ([`ThreadTracer::disabled`]), and then
//! every emit is one branch on a local `Option`.

use crate::event::{Event, Hook, SchemeId};
use crate::flight::{Outbox, DEFAULT_MAX_RETAINED};
use crate::metrics::{HookCounts, Metrics};
use crate::ring::{Ring, HALF};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The logical clock, alone on its cache-line pair: reservations and
/// retires only read it, so nothing else a recorder writes (metrics, the
/// ring registry, the `Arc` counts) may share — and so invalidate —
/// its line.
#[derive(Debug)]
#[repr(align(128))]
struct Clock(AtomicU64);

#[derive(Debug)]
struct RecorderCore {
    clock: Clock,
    metrics: Metrics,
    rings: Mutex<Rings>,
    /// Where the owners of the rings publish their chunks, and where
    /// they are retained.
    outbox: Outbox,
}

/// The rings a recorder reads.
#[derive(Debug, Default)]
struct Rings {
    /// Every ring a live tracer may still write, and any whose tracer
    /// dropped since it was last published, in creation order.
    live: Vec<Arc<Ring>>,
    /// Rings created so far: the next one's [`Ring::order`].
    created: u64,
}

impl Rings {
    /// Publishes the rest of each ring whose tracer is gone — no one
    /// writes it any more — to `outbox`, and lets go of it.
    fn release_gone(&mut self, outbox: &Outbox) {
        self.live.retain_mut(|ring| {
            // Unique (an Acquire check): its tracer is gone, so every
            // push, and every chunk its tracer published, happened
            // before this publish.
            if Arc::get_mut(ring).is_none() {
                return true;
            }
            outbox.let_go(ring);
            false
        });
    }
}

impl RecorderCore {
    /// Allocates and registers a ring for `thread`'s events under
    /// `scheme`, first letting go of the rings whose tracer is gone, so
    /// a recorder that issues tracers for a whole run holds only the
    /// live ones.
    fn ring(&self, thread: u16, scheme: SchemeId) -> Arc<Ring> {
        let mut rings = self.lock_rings();
        rings.release_gone(&self.outbox);
        let order = rings.created;
        rings.created += 1;
        let ring = Arc::new(Ring::new(thread, scheme, order));
        rings.live.push(Arc::clone(&ring));
        ring
    }

    fn lock_rings(&self) -> MutexGuard<'_, Rings> {
        // The crash dump reads from a panic hook: inherit the list
        // rather than propagate a poison.
        self.rings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Shared handle to a trace session. Cloning is cheap; all clones feed
/// the same clock, metrics, and drain pool.
#[derive(Debug, Clone)]
pub struct Recorder {
    core: Arc<RecorderCore>,
}

impl Recorder {
    /// A recorder with blame slots for `max_threads` that retains its
    /// newest [`DEFAULT_MAX_RETAINED`] events.
    pub fn new(max_threads: usize) -> Recorder {
        Recorder::with_max_retained(max_threads, DEFAULT_MAX_RETAINED)
    }

    /// A recorder that retains its newest `max_retained` events, in
    /// the chunks its owners pack every half ring, trimmed whole as
    /// they are published. At 0 it packs nothing: each half ring is
    /// counted trimmed, and only the rings' unpacked rests are ever
    /// read. A [`crate::FlightRecorder`] sets the cap to its own when
    /// it adds the recorder.
    pub fn with_max_retained(max_threads: usize, max_retained: usize) -> Recorder {
        Recorder {
            core: Arc::new(RecorderCore {
                clock: Clock(AtomicU64::new(1)),
                metrics: Metrics::new(max_threads),
                rings: Mutex::default(),
                outbox: Outbox::new(max_retained),
            }),
        }
    }

    /// The aggregate metrics block.
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// Current logical time: the timestamp the next protocol event
    /// will be issued, and the one a reservation or retire emitted now
    /// would carry. Never 0 on a live recorder; a read, never a tick.
    pub fn now(&self) -> u64 {
        self.core.clock.0.load(Ordering::Relaxed)
    }

    /// Issues a tracer for thread slot `thread` attributed to
    /// `scheme`. Allocates (and registers) a private ring and a
    /// private hook-counter block — call at registration time, not on
    /// the hot path.
    pub fn tracer(&self, thread: u16, scheme: SchemeId) -> ThreadTracer {
        ThreadTracer {
            inner: Some(TracerInner {
                recorder: Arc::clone(&self.core),
                ring: self.core.ring(thread, scheme),
                others: Vec::new(),
                hooks: self.core.metrics.hook_block(),
            }),
        }
    }

    /// Returns the merged log — the retained chunks and every ring's
    /// unpacked rest, the newest up to the cap — ordered by
    /// [`Event::merge_key`] (ascending `ts`; see the module docs for
    /// what a tie means), and takes it out of the log. Safe to call
    /// while writers are active (in-flight events appear in a later
    /// drain) and repeatedly: each event is returned once or counted in
    /// [`TraceLog::trimmed`] — nothing is lost silently. A ring whose
    /// tracer has dropped is published one last time and let go of.
    pub fn drain(&self) -> TraceLog {
        self.read(true)
    }

    /// Events lost to ring overwrite: 0, since every ring is packed
    /// before it is overwritten. Kept for the run reports that print
    /// it.
    pub fn dropped(&self) -> u64 {
        0
    }

    /// Rings the recorder holds: one per thread slot a live tracer
    /// writes for, plus any whose tracer dropped since the last ring it
    /// created or the last read.
    pub fn ring_count(&self) -> usize {
        self.core.lock_rings().live.len()
    }

    /// The recorder's log.
    pub(crate) fn outbox(&self) -> &Outbox {
        &self.core.outbox
    }

    /// Lets go of each ring whose tracer is gone once it is published,
    /// copies every other ring's last lap, and merges its unpacked rest
    /// with the log ([`Outbox::read`]); `take` takes what it returns
    /// out of the log.
    pub(crate) fn read(&self, take: bool) -> TraceLog {
        // Held throughout: one read at a time, and no ring created or
        // let go of across one.
        let mut rings = self.core.lock_rings();
        let outbox = &self.core.outbox;
        rings.release_gone(outbox);
        let rests = rings.live.iter().map(|ring| {
            let mut events = Vec::new();
            let first = ring.copy_lap(&mut events);
            (ring.order, first, events)
        });
        outbox.read(rests.collect(), take)
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(64)
    }
}

/// A drained, merged, timestamp-ordered batch of events.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// Events in ascending [`Event::merge_key`] order (so ascending,
    /// not strictly ascending, `ts`).
    pub events: Vec<Event>,
    /// Cumulative events the recorder's cap trimmed across the session.
    pub trimmed: u64,
}

impl TraceLog {
    /// Events matching `hook`.
    pub fn with_hook(&self, hook: Hook) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.hook == hook as u8)
    }

    /// True when `events` is non-decreasing in `ts` (drained logs
    /// always are; exposed for tests and sanity checks).
    pub fn is_time_ordered(&self) -> bool {
        self.events.windows(2).all(|w| w[0].ts <= w[1].ts)
    }
}

#[derive(Debug)]
struct TracerInner {
    recorder: Arc<RecorderCore>,
    /// The ring of the tracer's own thread slot.
    ring: Arc<Ring>,
    /// The rings of the other thread slots [`ThreadTracer::emit_for`]
    /// wrote for, each created on first use.
    others: Vec<Arc<Ring>>,
    hooks: Arc<HookCounts>,
}

impl TracerInner {
    /// `ring` completed half of itself: publish that half to the log.
    /// Once per 256 events, so out of line.
    #[cold]
    #[inline(never)]
    fn half_done(&self, ring: &Ring) {
        self.recorder.outbox.publish(ring, ring.pushed() - HALF);
    }

    /// The single-event emit path into `ring`. `hook` is a constant at
    /// every call site, so after inlining both the record branch and
    /// the clock branch are decided at compile time.
    #[inline]
    fn record(&self, ring: &Ring, hook: Hook, a: u64, b: u64) {
        self.hooks.bump(hook, 1);
        if !hook.is_recorded() {
            return;
        }
        let clock = &self.recorder.clock.0;
        // SAFETY(ordering): Relaxed on both arms — the clock orders the
        // merged log by the coherence of this one word (module docs),
        // it publishes nothing; the ring's head publishes the event
        // itself. Only ticking protocol hooks pay the RMW: a
        // reservation or a retire must not write a recorder-shared
        // word.
        let ts = if hook.advances_clock() {
            clock.fetch_add(1, Ordering::Relaxed)
        } else {
            clock.load(Ordering::Relaxed)
        };
        ring.write(ts, hook as u8, a, b, |ring| self.half_done(ring));
    }

    /// [`TracerInner::record`] into `thread`'s ring.
    fn record_for(&mut self, thread: u16, hook: Hook, a: u64, b: u64) {
        // A counted hook reaches no ring, so it allocates none.
        if thread == self.ring.thread || !hook.is_recorded() {
            return self.record(&self.ring, hook, a, b);
        }
        let k = match self.others.iter().position(|r| r.thread == thread) {
            Some(k) => k,
            None => {
                let ring = self.recorder.ring(thread, self.ring.scheme);
                self.others.push(ring);
                self.others.len() - 1
            }
        };
        self.record(&self.others[k], hook, a, b);
    }

    /// The run path: `n ≥ 1` events of `hook`, event `k` carrying
    /// `payload(k, ts)`, stamped as [`TracerInner::record`] would stamp
    /// them one by one with nothing in between.
    fn record_run(&self, hook: Hook, n: usize, mut payload: impl FnMut(usize, u64) -> (u64, u64)) {
        self.hooks.bump(hook, n as u64);
        if !hook.is_recorded() {
            return;
        }
        let clock = &self.recorder.clock.0;
        let ticks = hook.advances_clock();
        // SAFETY(ordering): Relaxed, as in `record`. A run of protocol
        // events pays the RMW once: `fetch_add(n)` reserves
        // `t0..t0 + n` whole, so no other ticker is issued a value
        // inside the run and its stamps stay unique.
        let t0 = if ticks {
            clock.fetch_add(n as u64, Ordering::Relaxed)
        } else {
            clock.load(Ordering::Relaxed)
        };
        for k in 0..n {
            let ts = if ticks { t0 + k as u64 } else { t0 };
            let (a, b) = payload(k, ts);
            self.ring
                .write(ts, hook as u8, a, b, |ring| self.half_done(ring));
        }
    }
}

/// A per-thread emit handle. One tracer = one writer = one ring per
/// thread slot it writes for; hand each instrumented thread its own
/// (via [`Recorder::tracer`]).
///
/// The disabled (default) state — from [`ThreadTracer::disabled`], a
/// tracer no recorder issued — makes every emit a no-op without
/// branching on anything but a local `Option`.
#[derive(Debug, Default)]
pub struct ThreadTracer {
    inner: Option<TracerInner>,
}

impl ThreadTracer {
    /// A tracer that ignores everything (zero cost, no recorder).
    pub const fn disabled() -> ThreadTracer {
        ThreadTracer { inner: None }
    }

    /// Whether emits actually record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits one event under this tracer's thread and scheme. Hot
    /// path: a bump of this tracer's own hook counter — all a counted
    /// hook (`BeginOp`, `EndOp`, `Load`; see [`Hook::is_recorded`])
    /// costs — then, for a recorded one, a clock read (a clock
    /// `fetch_add` only for the ticking protocol hooks, see
    /// [`Hook::advances_clock`]) and a push into this tracer's own
    /// ring. For a reading hook, no store to anything another thread
    /// reads. Never allocates, never blocks.
    #[inline]
    pub fn emit(&mut self, hook: Hook, a: u64, b: u64) {
        if let Some(inner) = &self.inner {
            inner.record(&inner.ring, hook, a, b);
        }
    }

    /// Emits `n` events of `hook` as one run, event `k` carrying the
    /// `(a, b)` that `payload(k, ts)` returns for its timestamp `ts`.
    /// For a protocol hook the run takes `n` consecutive ticks
    /// `t0..t0 + n` with one clock RMW, so event `k` is stamped
    /// `t0 + k`: the stamps are unique, no concurrent ticker lands
    /// inside the run, and a reading event tied with `t0` sorts before
    /// it — exactly as if the `n` events had been emitted one by one
    /// with nothing in between. `payload` runs only for a recorded
    /// hook on a live tracer: a disabled one never calls it.
    #[inline]
    pub fn emit_run(
        &mut self,
        hook: Hook,
        n: usize,
        payload: impl FnMut(usize, u64) -> (u64, u64),
    ) {
        if let Some(inner) = &self.inner {
            if n > 0 {
                inner.record_run(hook, n, payload);
            }
        }
    }

    /// Emits with an explicit thread slot (for single-tracer producers
    /// that multiplex several logical threads, like the simulator). A
    /// recorded event of another thread than the tracer's own goes into
    /// a ring of that thread's, which the first such emit allocates and
    /// registers with the recorder; a counted hook is counted in this
    /// tracer's block, whatever its thread.
    #[inline]
    pub fn emit_for(&mut self, thread: u16, hook: Hook, a: u64, b: u64) {
        if let Some(inner) = &mut self.inner {
            inner.record_for(thread, hook, a, b);
        }
    }

    /// The metrics block of the recorder backing this tracer, when
    /// enabled. Lets instrumented code record latencies or blame
    /// without a second handle.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.inner.as_ref().map(|inner| &inner.recorder.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let mut t = ThreadTracer::disabled();
        assert!(!t.is_enabled());
        t.emit(Hook::Retire, 1, 2);
        t.emit_run(Hook::Reclaim, 3, |_, _| {
            unreachable!("a disabled run reads no payload")
        });
        assert!(t.metrics().is_none());
    }

    #[test]
    fn merged_drain_is_time_ordered_across_tracers() {
        let rec = Recorder::new(4);
        let mut t0 = rec.tracer(0, SchemeId::EBR);
        let mut t1 = rec.tracer(1, SchemeId::EBR);
        for i in 0..50 {
            t0.emit(Hook::Retire, i, 0);
            t1.emit(Hook::Reclaim, i, 0);
        }
        let log = rec.drain();
        assert_eq!(log.events.len(), 100);
        assert!(log.is_time_ordered());
        assert_eq!(log.with_hook(Hook::Reclaim).count(), 50);
        assert_eq!(rec.metrics().hook_count(Hook::Retire), 50);
        // The merge key is a strict order here (distinct threads), and
        // the clock-advancing events alone have unique timestamps.
        assert!(log
            .events
            .windows(2)
            .all(|w| w[0].merge_key() < w[1].merge_key()));
        let reclaims: Vec<u64> = log.with_hook(Hook::Reclaim).map(|e| e.ts).collect();
        assert!(reclaims.windows(2).all(|w| w[0] < w[1]));
        // Re-draining returns nothing new.
        assert!(rec.drain().events.is_empty());
    }

    #[test]
    fn consecutive_drains_partition_without_loss_or_duplication() {
        let rec = Recorder::new(2);
        let mut t = rec.tracer(0, SchemeId::HP);
        for i in 0..40 {
            t.emit(Hook::Retire, i, 0);
        }
        let first = rec.drain();
        assert_eq!(first.events.len(), 40);
        assert!(first.events.iter().all(|e| e.a < 40));
        for i in 40..100 {
            t.emit(Hook::Retire, i, 0);
        }
        // The log marked what the first drain took: the second returns
        // only what came after it.
        let next = rec.drain();
        assert_eq!(next.events.len(), 60, "no duplicates, no losses");
        let payloads: Vec<u64> = next.events.iter().map(|e| e.a).collect();
        assert_eq!(payloads, (40..100).collect::<Vec<_>>());
        assert_eq!(rec.dropped(), 0);
        assert!(rec.drain().events.is_empty());
    }

    #[test]
    fn emit_for_attributes_threads() {
        let rec = Recorder::new(8);
        let mut t = rec.tracer(0, SchemeId::NONE);
        t.emit_for(5, Hook::Phase, 1, 0);
        let log = rec.drain();
        assert_eq!(log.events[0].thread, 5);
    }

    #[test]
    fn emit_for_three_threads_merges_like_three_tracers() {
        let hooks = [
            Hook::BeginOp,
            Hook::Load,
            Hook::Retire,
            Hook::EndOp,
            Hook::Reclaim,
        ];
        let threads = [0u16, 2, 2, 1, 0, 1, 1, 2];
        let one = Recorder::new(4);
        let mut shared = one.tracer(0, SchemeId::HP);
        let three = Recorder::new(4);
        let mut own: Vec<ThreadTracer> = (0..3).map(|t| three.tracer(t, SchemeId::HP)).collect();
        for i in 0..200u64 {
            let (thread, hook) = (threads[i as usize % 8], hooks[i as usize % 5]);
            shared.emit_for(thread, hook, i, !i);
            own[thread as usize].emit(hook, i, !i);
        }
        assert_eq!(one.drain().events, three.drain().events);
        assert_eq!(one.ring_count(), 3);
        for hook in hooks {
            let count = |rec: &Recorder| rec.metrics().hook_count(hook);
            assert_eq!(count(&one), count(&three), "{hook}");
        }
    }

    #[test]
    fn a_counted_hook_is_counted_and_reaches_no_ring() {
        let rec = Recorder::new(4);
        let mut t = rec.tracer(0, SchemeId::HP);
        for hook in [Hook::BeginOp, Hook::Load, Hook::EndOp] {
            t.emit(hook, 1, 2);
            t.emit_for(3, hook, 1, 2);
            t.emit_run(hook, 4, |_, _| {
                unreachable!("a counted run reads no payload")
            });
            assert_eq!(rec.metrics().hook_count(hook), 6);
        }
        assert_eq!(rec.ring_count(), 1, "emit_for allocated no ring");
        assert!(rec.drain().events.is_empty());
    }

    #[test]
    fn a_dropped_tracers_rings_go_after_their_last_drain() {
        // Each gone ring is published as one chunk of 20, and the cap
        // of 32 trims the first whole.
        let rec = Recorder::with_max_retained(2, 32);
        let _kept = rec.tracer(0, SchemeId::HP);
        let mut gone = rec.tracer(1, SchemeId::HP);
        for i in 0..20 {
            gone.emit(Hook::Retire, i, 0);
            gone.emit_for(2, Hook::Retire, i, 0);
        }
        drop(gone);
        assert_eq!(rec.ring_count(), 3, "unread rings stay");
        let log = rec.drain();
        assert_eq!((log.events.len(), log.trimmed), (20, 20));
        assert_eq!(rec.ring_count(), 1);
        let log = rec.drain();
        assert!(log.events.is_empty());
        assert_eq!(log.trimmed, 20, "the trims stay counted");
    }

    #[test]
    fn a_drain_returns_every_event_of_many_laps() {
        // 24 laps of one 512-slot ring: its owner packed every half
        // before it overwrote it, so the drain loses none.
        let rec = Recorder::new(1);
        let mut t = rec.tracer(0, SchemeId::EBR);
        for i in 0..3 * 4_096 {
            t.emit(Hook::Retire, i, 0);
        }
        let log = rec.drain();
        let payloads: Vec<u64> = log.events.iter().map(|e| e.a).collect();
        assert_eq!(payloads, (0..3 * 4_096).collect::<Vec<_>>());
        assert_eq!((log.trimmed, rec.dropped()), (0, 0));
    }
}
