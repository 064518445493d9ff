//! The runtime ERA navigator: per-shard health classification and
//! graceful degradation.
//!
//! The ERA theorem is a static impossibility — no scheme is at once
//! robust, easy to integrate, and widely applicable. A *running*
//! system, though, can watch which property it is currently losing and
//! pay a different cost instead. The navigator does exactly that, per
//! shard:
//!
//! * **Robust** — footprint inside the soft budget. The shard runs the
//!   scheme's native trade-off; nothing is sacrificed at runtime.
//! * **Degrading** — footprint past the soft budget. Admission control
//!   bounds concurrent writes ([`crate::KvError::Overloaded`]):
//!   robustness is bought by *refusing work*, i.e. by sacrificing wide
//!   applicability (the heavy-traffic workload class is turned away).
//! * **Violating** — footprint past the hard budget: the robustness
//!   bound is gone, almost always because one pin is stalled. The
//!   navigator identifies the blamed thread slot from the shard's
//!   recorder (blame-count *deltas*, so an old, resolved stall cannot
//!   mislead it) and cooperatively neutralizes it
//!   ([`era_smr::Smr::neutralize`], NBR-style force-unpin + restart).
//!   Robustness is restored by sacrificing easy integration: every
//!   client must now follow the restart protocol.
//!
//! Classification applies hysteresis (escalate at the budget, recover
//! at half of it) so the state machine cannot flap on a footprint
//! hovering at a threshold. Every transition is emitted as a
//! [`Hook::Navigate`] event and counted, so traces and reports show
//! *when* the service moved between trade-offs, mirroring how
//! [`era_core::robustness`] classifies measured footprints after the
//! fact.

use std::sync::atomic::Ordering;
use std::sync::TryLockError;

use era_obs::Hook;
use era_smr::Smr;

use crate::store::{KvCtx, KvStore};

/// Live health class of one shard, the runtime analogue of
/// [`era_core::robustness::RobustnessVerdict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ShardHealth {
    /// Footprint within the soft budget; native scheme behaviour.
    Robust = 0,
    /// Soft budget exceeded; admission control is shedding writes.
    Degrading = 1,
    /// Hard budget exceeded; the navigator neutralizes blamed pins.
    Violating = 2,
    /// A context died on this shard ([`crate::KvStore::quarantine`]):
    /// writes are refused outright while survivors adopt the orphaned
    /// garbage; the shard re-opens (`Robust`) once footprint drains
    /// below half the soft budget.
    Quarantined = 3,
}

impl ShardHealth {
    /// Decodes the `repr(u8)` value (saturating: unknown bytes read as
    /// `Violating`, the conservative class).
    pub fn from_u8(raw: u8) -> ShardHealth {
        match raw {
            0 => ShardHealth::Robust,
            1 => ShardHealth::Degrading,
            3 => ShardHealth::Quarantined,
            _ => ShardHealth::Violating,
        }
    }

    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ShardHealth::Robust => "robust",
            ShardHealth::Degrading => "degrading",
            ShardHealth::Violating => "violating",
            ShardHealth::Quarantined => "quarantined",
        }
    }

    /// The offline verdict this live class corresponds to.
    pub fn verdict(self) -> era_core::robustness::RobustnessVerdict {
        use era_core::robustness::RobustnessVerdict as V;
        match self {
            ShardHealth::Robust => V::Robust,
            ShardHealth::Degrading => V::WeaklyRobust,
            ShardHealth::Violating | ShardHealth::Quarantined => V::NotRobust,
        }
    }
}

impl std::fmt::Display for ShardHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Writes per navigator step: [`KvStore::navigate`] ticks once for
/// every multiple of it that a context's write count crosses.
pub const NAV_EVERY: u64 = 512;

/// Ticks spent `Violating` between repeated neutralization attempts
/// (the first attempt fires on entry). Retrying matters because a
/// neutralized-and-restarted reader that stalls again re-pins the
/// shard; the budget is re-enforced each time it is re-crossed. The
/// interval bounds the sawtooth amplitude: garbage accrued between
/// attempts rides on top of the hard budget. A store stepped by
/// [`KvStore::navigate`] takes at most `NEUTRALIZE_RETRY_TICKS ×
/// NAV_EVERY` write calls per context that wins the tick between two
/// attempts, and `contexts ×` that in all. A write call counts whether
/// it lands or is refused, so a Degrading write retried, or a shed
/// `put_batch` item put again on its own, counts once per call. It is
/// kept short; its only job is to give the victim a few ticks to act on
/// the restart signal first.
const NEUTRALIZE_RETRY_TICKS: u32 = 8;

/// Pure classification step with hysteresis: escalate when `retired`
/// crosses a budget, de-escalate only once it falls below *half* the
/// budget.
pub(crate) fn classify(cur: ShardHealth, retired: usize, soft: usize, hard: usize) -> ShardHealth {
    match cur {
        ShardHealth::Robust => {
            if retired >= hard {
                ShardHealth::Violating
            } else if retired >= soft {
                ShardHealth::Degrading
            } else {
                ShardHealth::Robust
            }
        }
        ShardHealth::Degrading => {
            if retired >= hard {
                ShardHealth::Violating
            } else if retired < soft / 2 {
                ShardHealth::Robust
            } else {
                ShardHealth::Degrading
            }
        }
        ShardHealth::Violating => {
            if retired >= hard / 2 {
                ShardHealth::Violating
            } else if retired < soft / 2 {
                ShardHealth::Robust
            } else {
                ShardHealth::Degrading
            }
        }
        // Quarantine is sticky until the orphaned backlog has really
        // drained (same recovery threshold as full de-escalation); it
        // never steps down through Degrading — the shard was closed
        // because of a death, not load, so half-open admission would
        // only confuse the signal.
        ShardHealth::Quarantined => {
            if retired < soft / 2 {
                ShardHealth::Robust
            } else {
                ShardHealth::Quarantined
            }
        }
    }
}

impl<'s, S: Smr> KvStore<'s, S> {
    /// One navigator pass over every shard: sample footprint, classify,
    /// emit transitions, and neutralize the blamed pin on shards whose
    /// hard budget is blown. It is cheap — a stats snapshot and a
    /// blame-counter scan per shard — and entirely read-side except for
    /// the reaction itself.
    ///
    /// Any thread may call it at any pace: [`KvStore::navigate`] steps
    /// it on a context's own writes, `era-net`'s workers also call it
    /// when they idle, and [`KvStore::drain`] once per round. One
    /// store-level try-lock admits one ticker at a time;
    /// a call that finds another tick running skips it and returns
    /// `false` (that tick classifies the same footprint), and `true`
    /// once it has ticked.
    pub fn navigator_tick(&self) -> bool {
        let _ticker = match self.tick_lock.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => return false,
            // A ticker that panicked left only per-shard atomics behind,
            // each consistent on its own: tick on.
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
        };
        // Budgets are read once per tick (not per shard) so one tick
        // applies a consistent envelope even while a scenario is
        // swapping budgets concurrently.
        let (soft, hard) = self.budgets();
        for (i, sh) in self.shards.iter().enumerate() {
            let st = sh.smr.stats();
            let cur = ShardHealth::from_u8(sh.health.load(Ordering::SeqCst));
            let next = classify(cur, st.retired_now, soft, hard);
            {
                let mut tracer = sh.nav_tracer.lock().unwrap();
                tracer.emit(Hook::Sample, st.retired_now as u64, i as u64);
                if next != cur {
                    sh.health.store(next as u8, Ordering::SeqCst);
                    // SAFETY(ordering): Relaxed — transition/violation
                    // tallies are navigator telemetry, read only by
                    // nav_counters() reporting.
                    sh.transitions.fetch_add(1, Ordering::Relaxed);
                    tracer.emit(Hook::Navigate, i as u64, ((cur as u64) << 8) | next as u64);
                }
            }
            if next == ShardHealth::Violating {
                // SAFETY(ordering): Relaxed — tick counter private to
                // the one ticker `tick_lock` admits; the lock orders
                // successive tickers.
                let ticks = sh.violating_ticks.fetch_add(1, Ordering::Relaxed);
                if ticks % NEUTRALIZE_RETRY_TICKS == 0 {
                    if let Some(slot) = self.blamed_slot(i) {
                        // SAFETY: the navigator contract (crate docs):
                        // every thread operating on this store polls
                        // `needs_restart` at operation boundaries before
                        // trusting pointers — KvStore's own ops do, and
                        // the stall harness's read loop does — so a
                        // force-unpin is always recoverable.
                        if unsafe { sh.smr.neutralize(slot) } {
                            // SAFETY(ordering): Relaxed — telemetry.
                            sh.neutralizations.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            } else {
                // SAFETY(ordering): Relaxed — ticker-private reset, as
                // above.
                sh.violating_ticks.store(0, Ordering::Relaxed);
            }
        }
        true
    }

    /// Steps the navigator once for every multiple of [`NAV_EVERY`] that
    /// `ctx`'s write count — its `put`, `remove` and `incr` calls and
    /// its `put_batch` items, applied or refused — has crossed since
    /// this context's last call. Reads count nothing, so a read-only
    /// stream never ticks. The thread that writes pays for the
    /// navigator, amortised over its own writes: nothing runs on a
    /// timer. A tick that finds another one running is skipped
    /// ([`KvStore::navigator_tick`]).
    pub fn navigate(&self, ctx: &mut KvCtx<S>) {
        let (from, to) = (ctx.navigated / NAV_EVERY, ctx.writes / NAV_EVERY);
        ctx.navigated = ctx.writes;
        for _ in from..to {
            self.navigator_tick();
        }
    }

    /// The thread slot to neutralize on shard `i`: the slot whose blame
    /// count grew the most since the last call (falling back to the
    /// all-time maximum when no new blame accrued between ticks).
    fn blamed_slot(&self, i: usize) -> Option<usize> {
        let sh = &self.shards[i];
        let now = sh.recorder.metrics().blame_counts();
        let mut last = sh.last_blame.lock().unwrap();
        if last.len() != now.len() {
            last.resize(now.len(), 0);
        }
        let delta_best = now
            .iter()
            .zip(last.iter())
            .enumerate()
            .map(|(slot, (&n, &p))| (slot, n.saturating_sub(p)))
            .max_by_key(|&(_, d)| d)
            .filter(|&(_, d)| d > 0)
            .map(|(slot, _)| slot);
        last.copy_from_slice(&now);
        delta_best.or_else(|| sh.recorder.metrics().most_blamed().map(|(slot, _)| slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{KvConfig, KvStore};
    use era_smr::ebr::Ebr;

    #[test]
    fn classify_escalates_and_recovers_with_hysteresis() {
        use ShardHealth::*;
        let (soft, hard) = (100, 400);
        assert_eq!(classify(Robust, 0, soft, hard), Robust);
        assert_eq!(classify(Robust, 99, soft, hard), Robust);
        assert_eq!(classify(Robust, 100, soft, hard), Degrading);
        assert_eq!(classify(Robust, 400, soft, hard), Violating);
        // Degrading holds until footprint halves below the soft budget.
        assert_eq!(classify(Degrading, 99, soft, hard), Degrading);
        assert_eq!(classify(Degrading, 50, soft, hard), Degrading);
        assert_eq!(classify(Degrading, 49, soft, hard), Robust);
        assert_eq!(classify(Degrading, 400, soft, hard), Violating);
        // Violating holds until footprint halves below the hard budget.
        assert_eq!(classify(Violating, 399, soft, hard), Violating);
        assert_eq!(classify(Violating, 200, soft, hard), Violating);
        assert_eq!(classify(Violating, 199, soft, hard), Degrading);
        assert_eq!(classify(Violating, 49, soft, hard), Robust);
        // Quarantine is sticky and never steps down through Degrading.
        assert_eq!(classify(Quarantined, 400, soft, hard), Quarantined);
        assert_eq!(classify(Quarantined, 50, soft, hard), Quarantined);
        assert_eq!(classify(Quarantined, 49, soft, hard), Robust);
    }

    #[test]
    fn health_maps_onto_offline_verdicts() {
        use era_core::robustness::RobustnessVerdict as V;
        assert_eq!(ShardHealth::Robust.verdict(), V::Robust);
        assert_eq!(ShardHealth::Degrading.verdict(), V::WeaklyRobust);
        assert_eq!(ShardHealth::Violating.verdict(), V::NotRobust);
        assert_eq!(ShardHealth::Quarantined.verdict(), V::NotRobust);
        assert_eq!(ShardHealth::from_u8(3), ShardHealth::Quarantined);
        assert_eq!(ShardHealth::from_u8(7), ShardHealth::Violating);
        assert_eq!(ShardHealth::Degrading.to_string(), "degrading");
    }

    #[test]
    fn tick_transitions_and_counts() {
        let schemes: Vec<Ebr> = vec![Ebr::with_threshold(4, 1)];
        let cfg = KvConfig {
            retired_soft: 4,
            retired_hard: 16,
            ..KvConfig::default()
        };
        let store = KvStore::new(&schemes, cfg);
        let mut ctx = store.register().unwrap();
        store.navigator_tick();
        assert_eq!(store.health(0), ShardHealth::Robust);

        // Pin the domain so churn accumulates garbage.
        let smr = store.scheme(0);
        let mut pin = smr.register().unwrap();
        era_smr::Smr::begin_op(smr, &mut pin);
        for k in 0..32 {
            store.put(&mut ctx, k, k).unwrap();
            store.remove(&mut ctx, k).unwrap();
        }
        store.navigator_tick();
        assert_eq!(store.health(0), ShardHealth::Violating);
        let (transitions, neutralizations, _) = store.nav_counters();
        assert!(transitions >= 1);
        assert!(
            neutralizations >= 1,
            "violating shard must trigger neutralization"
        );
        assert!(era_smr::Smr::needs_restart(smr, &mut pin));

        // Drain and recover: the victim restarted, flushes reclaim.
        era_smr::Smr::end_op(smr, &mut pin);
        for _ in 0..6 {
            store.flush(&mut ctx);
        }
        store.navigator_tick();
        assert_eq!(store.health(0), ShardHealth::Robust);
    }

    /// `k × NAV_EVERY` write calls — `put`, `remove`, `incr` and
    /// `put_batch` items, some refused by a quarantined shard — step
    /// the navigator exactly `k` times: one `Sample` per shard each. A
    /// `get` counts nothing, however many there are.
    #[test]
    fn navigate_ticks_once_per_nav_every_writes_and_never_on_reads() {
        let schemes: Vec<Ebr> = (0..2).map(|_| Ebr::new(4)).collect();
        let store = KvStore::new(&schemes, KvConfig::default());
        let mut ctx = store.register().unwrap();
        let samples = || -> Vec<u64> {
            (0..2)
                .map(|i| store.recorder(i).metrics().hook_count(Hook::Sample))
                .collect()
        };
        for i in 0..10_000 {
            let _ = store.get(&mut ctx, i);
            store.navigate(&mut ctx);
        }
        assert_eq!(samples(), [0, 0], "reads stepped the navigator");
        let mut writes = 0u64;
        for k in 1..=3u64 {
            // Each tick re-opens the quiet shard; close it again, so
            // every round has writes it refuses.
            store.quarantine(1);
            let sheds = store.nav_counters().2;
            while writes < k * NAV_EVERY {
                let key = writes as i64;
                match writes % 4 {
                    0 => _ = store.put(&mut ctx, key, 1),
                    1 => _ = store.remove(&mut ctx, key - 1),
                    2 => _ = store.incr(&mut ctx, key, 1),
                    _ => {
                        let n = (k * NAV_EVERY - writes).min(3);
                        let items: Vec<(i64, i64)> = (0..n as i64).map(|j| (key + j, j)).collect();
                        store.put_batch(&mut ctx, &items);
                        writes += n - 1;
                    }
                }
                writes += 1;
                if writes < k * NAV_EVERY {
                    store.navigate(&mut ctx);
                    assert_eq!(samples(), [k - 1; 2], "a step before write {writes}");
                }
            }
            assert!(store.nav_counters().2 > sheds, "no write was refused");
            store.navigate(&mut ctx);
            assert_eq!(samples(), [k; 2], "{k} × {NAV_EVERY} writes");
        }
        // One call that crosses two multiples steps twice.
        let items: Vec<(i64, i64)> = (0..2 * NAV_EVERY as i64).map(|j| (j, j)).collect();
        store.put_batch(&mut ctx, &items);
        store.navigate(&mut ctx);
        assert_eq!(samples(), [5, 5]);
    }

    #[test]
    fn a_tick_skips_while_another_holds_the_lock() {
        let schemes: Vec<Ebr> = vec![Ebr::with_threshold(4, 1)];
        let cfg = KvConfig {
            retired_soft: 4,
            retired_hard: 16,
            ..KvConfig::default()
        };
        let store = KvStore::new(&schemes, cfg);
        let mut ctx = store.register().unwrap();
        let smr = store.scheme(0);
        let mut pin = smr.register().unwrap();
        era_smr::Smr::begin_op(smr, &mut pin);
        for k in 0..32 {
            store.put(&mut ctx, k, k).unwrap();
            store.remove(&mut ctx, k).unwrap();
        }
        let samples = || store.recorder(0).metrics().hook_count(Hook::Sample);
        {
            let _ticker = store.tick_lock.lock().unwrap();
            assert!(!store.navigator_tick(), "a second ticker got in");
            assert_eq!(store.health(0), ShardHealth::Robust);
            assert_eq!((samples(), store.nav_counters().0), (0, 0));
        }
        assert!(store.navigator_tick());
        assert_eq!(store.health(0), ShardHealth::Violating);
        assert_eq!((samples(), store.nav_counters().0), (1, 1));
        era_smr::Smr::end_op(smr, &mut pin);
    }
}
