//! The scenario executor — the workspace's one workload driver over a
//! [`KvStore`]: drives one [`ScenarioSpec`] over any [`Smr`] scheme,
//! phase by phase, with the adversities each phase declares, then
//! evaluates the per-scheme robustness invariants.
//!
//! Each phase runs under one `std::thread::scope`: a footprint sampler,
//! an optional Theorem-6.1 adversarial stalled reader, and seeded
//! workers — or, for a phase that serves TCP, an in-process server and
//! its clients. Nothing ticks the navigator on a timer: in a phase that
//! runs it, each worker steps it on its own writes
//! ([`KvStore::navigate`], once per [`era_kv::NAV_EVERY`] of them), as
//! the server's workers do on the writes they answer. Worker RNG streams
//! derive from `spec.seed` and the `(phase, worker)` pair, so the same
//! spec reproduces the same schedule of operations — and, because the
//! invariants are stated over the schemes' exact counters rather than
//! sampled values, the same verdicts.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use era_kv::{KvConfig, KvCtx, KvOpKind, KvStore, ShardHealth};
use era_net::{read_frame, write_request, NetConfig, NetServer, Request, Response};
use era_obs::{DumpStats, FlightRecorder, Hook};
use era_smr::{SchemeKind, Smr};
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::invariant::{evaluate, EvalInput, InvariantOutcome};
use crate::spec::{PhaseSpec, ScenarioSpec};

/// How often the footprint sampler samples.
const POLL_INTERVAL: Duration = Duration::from_micros(200);

/// Worker threads a serve-net phase's in-process server registers.
pub const NET_WORKERS: usize = 2;

/// Raw samples kept before the sampler stops appending (the record
/// downsamples further).
const CURVE_CAP: usize = 8_192;

/// Drain rounds in the epilogue. Each round advances every shard's op
/// clock by one, so 512 rounds also closes any chaos window (plans cap
/// windows at 256 ops) that was still open when the last phase ended.
const DRAIN_ROUNDS: usize = 512;

/// Knobs that belong to the invocation, not the scenario.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Where to write a `.eraflt` flight dump when the run fails
    /// (`None` disables dumping). When set, a flight recorder holds
    /// every shard's recorder from the start of the run, so the dump
    /// holds each shard's newest events. The shards keep the flight
    /// recorder's cap after the run: build one store per run, as the
    /// `scenarios` binary does.
    pub flight_dump: Option<PathBuf>,
}

/// The store configuration a scenario implies: one scheme per shard,
/// budgets from the spec.
pub fn kv_config(spec: &ScenarioSpec) -> KvConfig {
    KvConfig {
        retired_soft: spec.soft,
        retired_hard: spec.hard,
        max_threads: scheme_capacity(spec),
        ..KvConfig::default()
    }
}

/// Thread capacity each shard's scheme needs: the spec's own estimate
/// plus the in-process net server's worker pool when any phase serves
/// TCP.
pub fn scheme_capacity(spec: &ScenarioSpec) -> usize {
    spec.capacity_needed()
        + if spec.phases.iter().any(|p| p.serve_net) {
            NET_WORKERS + 1
        } else {
            0
        }
}

/// What one phase did and left behind.
#[derive(Debug, Clone)]
pub struct PhaseOutcome {
    /// Phase label from the spec.
    pub label: String,
    /// Operations completed (client requests answered, for a serve-net
    /// phase).
    pub ops: u64,
    /// Writes shed by admission control during the phase.
    pub shed: u64,
    /// Wall-clock phase duration in milliseconds.
    pub elapsed_ms: u64,
    /// Max over shards of `retired_peak` at phase end (cumulative
    /// high-water — monotone across phases).
    pub peak: u64,
    /// Max over shards of `retired_now` at phase end.
    pub retired_end: u64,
    /// Health of every shard at the phase boundary.
    pub healths: Vec<ShardHealth>,
    /// Times the phase's stalled reader was neutralized and restarted.
    pub restarts: u64,
}

/// Everything one scenario run produced; [`crate::ScenarioRunRecord`]
/// serializes it.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The spec that was run (embedded in the record for replay).
    pub spec: ScenarioSpec,
    /// The scheme under test.
    pub scheme: SchemeKind,
    /// Whether the scheme is held to the robust bound.
    pub robust: bool,
    /// Per-phase results in timeline order.
    pub phases: Vec<PhaseOutcome>,
    /// The evaluated invariants.
    pub invariants: Vec<InvariantOutcome>,
    /// Conjunction of the invariants' `ok` flags.
    pub pass: bool,
    /// `(elapsed_ms, retired_now)` samples of the focus shard across
    /// the whole run — the footprint curve.
    pub footprint_curve: Vec<(u64, u64)>,
    /// Navigator counters over the whole run:
    /// health transitions observed.
    pub transitions: u64,
    /// Successful pin neutralizations.
    pub neutralizations: u64,
    /// Writes shed by admission control.
    pub sheds: u64,
    /// Orphan adoptions (`Hook::Adopt`) summed over shards.
    pub adoptions: u64,
    /// Trace events lost to ring overwrite by the shard recorders: 0,
    /// since every ring is packed before it is overwritten.
    pub trace_dropped: u64,
    /// Whether the epilogue drain reached `retired_now == 0`.
    pub drained: bool,
    /// Max over shards of `retired_now` after heal + drain.
    pub final_retired: u64,
    /// Whole-run wall-clock in milliseconds.
    pub elapsed_ms: u64,
    /// Where the failure flight dump was written, if the run failed
    /// and dumping was enabled.
    pub flight_dump: Option<PathBuf>,
}

/// Registers a store-wide context, absorbing chaos `FailRegister` /
/// `FailAlloc` refusals (plans budget 1–4 refusals per injection, and
/// a refusal armed late in one phase survives into the next phase's
/// registration point — registrations are rare events on the op
/// clock). Bounded: a store that still refuses after 64 attempts has
/// a real capacity bug and should panic loudly.
fn register_retry<S: Smr>(store: &KvStore<'_, S>, who: &str) -> KvCtx<S> {
    for _ in 0..64 {
        match store.register() {
            Ok(ctx) => return ctx,
            Err(_) => std::thread::sleep(Duration::from_micros(200)),
        }
    }
    store
        .register()
        .unwrap_or_else(|e| panic!("{who} registration exhausted retries: {e}"))
}

/// Runs `spec` against `store` and evaluates the invariants.
///
/// The store must have been built with [`kv_config`] (or equivalent
/// budgets/capacity) over one scheme per shard; when the spec carries
/// a chaos plan, the caller wraps the target shard's scheme in
/// `era_chaos::ChaosSmr` before constructing the store — the executor
/// itself is scheme-agnostic.
///
/// # Panics
///
/// Panics when thread registration fails (undersized scheme capacity
/// — see [`scheme_capacity`]) or a worker thread panics.
pub fn run_scenario<S: Smr>(
    store: &KvStore<'_, S>,
    spec: &ScenarioSpec,
    opts: &RunOptions,
) -> ScenarioOutcome {
    spec.validate().expect("run_scenario needs a valid spec");
    let started = Instant::now();
    let focus = spec.focus_shard();
    let curve: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
    let flight = opts.flight_dump.as_ref().map(|_| {
        let flight = FlightRecorder::new();
        for i in 0..store.shard_count() {
            flight.add_source(&format!("shard{i}"), store.recorder(i));
        }
        flight
    });

    // Prefill from a short-lived context (slot returns before phase 1).
    {
        let mut ctx = register_retry(store, "prefill");
        for k in 0..spec.prefill {
            let _ = store.put(&mut ctx, k as i64, k as i64);
        }
        store.flush(&mut ctx);
    }

    let mut phases = Vec::with_capacity(spec.phases.len());
    for (pi, phase) in spec.phases.iter().enumerate() {
        match phase.budgets {
            Some((soft, hard)) => store.set_budgets(soft, hard),
            None => store.set_budgets(spec.soft, spec.hard),
        }
        phases.push(run_phase(store, spec, pi, phase, started, focus, &curve));
    }

    // Epilogue: base budgets back, release nothing is pinned (every
    // phase's stall reader died with its scope), heal what degraded,
    // and drain. `heal` may fail while a chaos FailRegister window is
    // still open — the drain's op-clock advancement closes it, so try
    // again after.
    store.set_budgets(spec.soft, spec.hard);
    let mut ctx = register_retry(store, "epilogue");
    for si in 0..store.shard_count() {
        let _ = store.heal(&mut ctx, si);
    }
    let mut drained = store.drain(&mut ctx, DRAIN_ROUNDS);
    if !drained {
        for si in 0..store.shard_count() {
            let _ = store.heal(&mut ctx, si);
        }
        drained = store.drain(&mut ctx, DRAIN_ROUNDS);
    }
    drop(ctx);

    let stats = store.shard_stats();
    let healths: Vec<ShardHealth> = (0..store.shard_count()).map(|i| store.health(i)).collect();
    let (transitions, neutralizations, sheds) = store.nav_counters();
    let (mut adoptions, mut trace_dropped) = (0u64, 0u64);
    for i in 0..store.shard_count() {
        adoptions += store.recorder(i).metrics().hook_count(Hook::Adopt);
        trace_dropped += store.recorder(i).dropped();
    }

    let input = EvalInput {
        scheme: store.scheme(0).kind(),
        bound: spec.bound as u64,
        soft: spec.soft as u64,
        max_peak: stats
            .iter()
            .map(|s| s.retired_peak as u64)
            .max()
            .unwrap_or(0),
        final_retired: stats
            .iter()
            .map(|s| s.retired_now as u64)
            .max()
            .unwrap_or(0),
        healths: healths.clone(),
        sheds,
        had_stall: spec.phases.iter().any(|p| p.stall_shard.is_some()),
        had_squeeze: spec.phases.iter().any(|p| {
            p.writes > 0
                && (p.quarantine_shard.is_some()
                    || p.budgets
                        .is_some_and(|(s, h)| s < spec.soft || h < spec.hard))
        }),
    };
    let invariants = evaluate(&input);
    let pass = invariants.iter().all(|o| o.ok);

    let mut flight_dump = None;
    if let (false, Some(path), Some(flight)) = (pass, &opts.flight_dump, &flight) {
        if write_failure_dump(store, flight, path) {
            flight_dump = Some(path.clone());
        }
    }

    ScenarioOutcome {
        spec: spec.clone(),
        scheme: input.scheme,
        robust: input.scheme.class().is_weakly_robust(),
        phases,
        invariants,
        pass,
        footprint_curve: downsample(curve.into_inner().expect("sampler poisoned"), 128),
        transitions,
        neutralizations,
        sheds,
        adoptions,
        trace_dropped,
        drained,
        final_retired: input.final_retired,
        elapsed_ms: started.elapsed().as_millis() as u64,
        flight_dump,
    }
}

/// One phase under `std::thread::scope`: sampler + optional stall
/// reader + workers that step the navigator on their writes when the
/// phase runs it (or an in-process TCP server with client load).
fn run_phase<S: Smr>(
    store: &KvStore<'_, S>,
    spec: &ScenarioSpec,
    pi: usize,
    phase: &PhaseSpec,
    started: Instant,
    focus: usize,
    curve: &Mutex<Vec<(u64, u64)>>,
) -> PhaseOutcome {
    let phase_started = Instant::now();
    if let Some(si) = phase.quarantine_shard {
        store.quarantine(si);
        // Deterministic admission probe: the probe does not step the
        // navigator and no worker runs yet, so the shard cannot recover
        // between the quarantine and these writes — each one must be
        // refused by the store's own admission control (counted as a
        // shed). The phase's workers then pile their own sheds on top
        // until their writes step a tick that re-opens the shard.
        let mut probe = register_retry(store, "quarantine probe");
        let mut probed = 0;
        let mut key = phase.key_lo as i64;
        while probed < 4 && key < phase.key_hi as i64 {
            if store.shard_of(key) == si {
                let _ = store.put(&mut probe, key, key);
                probed += 1;
            }
            key += 1;
        }
        store.flush(&mut probe);
    }
    let done = AtomicBool::new(false);
    // Raised once the stall reader holds its pin (or was refused a
    // slot): the phase's load starts only then, so a short phase
    // cannot finish before its adversary is in place.
    let pinned = AtomicBool::new(phase.stall_shard.is_none());
    let restarts = AtomicU64::new(0);
    let total_ops = AtomicU64::new(0);
    let total_shed = AtomicU64::new(0);

    std::thread::scope(|s| {
        // Footprint sampler: the focus shard's live retired count,
        // stamped with wall-clock since scenario start.
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                let now = store.scheme(focus).stats().retired_now as u64;
                let at = started.elapsed().as_millis() as u64;
                let mut c = curve.lock().expect("sampler lock");
                if c.len() < CURVE_CAP {
                    c.push((at, now));
                }
                drop(c);
                std::thread::sleep(POLL_INTERVAL);
            }
        });

        // The Theorem 6.1 adversary: pinned inside the shard's domain,
        // restarting (and promptly re-stalling) whenever neutralized.
        if let Some(si) = phase.stall_shard {
            let (done, pinned, restarts) = (&done, &pinned, &restarts);
            s.spawn(move || {
                let smr = store.scheme(si);
                let mut ctx = loop {
                    // Same chaos tolerance as `register_retry`, at the
                    // single-scheme level; gives up when the phase ends
                    // before a slot frees. A refused reader lets the
                    // load start without it rather than hold it back.
                    match smr.register() {
                        Ok(ctx) => break ctx,
                        Err(_) => {
                            // SAFETY(ordering): Release — pairs with
                            // the load's Acquire wait; nothing is
                            // pinned, so nothing else rides on it.
                            pinned.store(true, Ordering::Release);
                            if done.load(Ordering::Acquire) {
                                return;
                            }
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    }
                };
                while !done.load(Ordering::Acquire) {
                    smr.begin_op(&mut ctx);
                    // SAFETY(ordering): Release — the pin above
                    // happens-before every op the load waits to issue.
                    pinned.store(true, Ordering::Release);
                    // `needs_restart` is polled once more after the
                    // phase ends, so a neutralization that landed
                    // while this thread was descheduled still counts.
                    let neutralized = loop {
                        let finished = done.load(Ordering::Acquire);
                        if smr.needs_restart(&mut ctx) {
                            break true;
                        }
                        if finished {
                            break false;
                        }
                        std::hint::spin_loop();
                    };
                    smr.end_op(&mut ctx);
                    if neutralized {
                        // SAFETY(ordering): Relaxed — tally read after
                        // the scope joins this thread.
                        restarts.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        if phase.serve_net {
            wait_for(&pinned);
            serve_phase(store, spec, pi, phase, &total_ops, &total_shed);
        } else {
            let workers: Vec<_> = (0..phase.threads)
                .map(|t| {
                    let (pinned, total_ops, total_shed) = (&pinned, &total_ops, &total_shed);
                    s.spawn(move || {
                        wait_for(pinned);
                        let mut ctx: KvCtx<S> = register_retry(store, "worker");
                        let mut ops = 0u64;
                        let mut shed = 0u64;
                        // Navigator-off phases are the baseline where a
                        // non-robust scheme's footprint grows untouched.
                        let navigate = phase.navigator;
                        for (key, kind) in worker_ops(spec, pi, t, phase) {
                            let refused = match kind {
                                KvOpKind::Get => {
                                    let _ = store.get(&mut ctx, key);
                                    false // reads are never refused
                                }
                                KvOpKind::Put => store.put(&mut ctx, key, key).is_err(),
                                KvOpKind::Remove => store.remove(&mut ctx, key).is_err(),
                            };
                            if navigate {
                                store.navigate(&mut ctx);
                            }
                            if refused {
                                shed += 1;
                                std::thread::yield_now();
                            }
                            ops += 1;
                        }
                        store.flush(&mut ctx);
                        // SAFETY(ordering): Relaxed — phase totals,
                        // read only after the joins below.
                        total_ops.fetch_add(ops, Ordering::Relaxed);
                        total_shed.fetch_add(shed, Ordering::Relaxed);
                    })
                })
                .collect();
            let mut worker_panic = false;
            for w in workers {
                worker_panic |= w.join().is_err();
            }
            // Publish `done` BEFORE propagating a worker panic, or the
            // sampler and stall threads never exit their polling loops
            // and the scope deadlocks instead of failing.
            // SAFETY(ordering): Release — pairs with the stall
            // reader's Acquire poll, after which it reads
            // `needs_restart` one last time.
            done.store(true, Ordering::Release);
            assert!(!worker_panic, "scenario worker panicked");
        }
        done.store(true, Ordering::Release);
    });

    let stats = store.shard_stats();
    PhaseOutcome {
        label: phase.label.clone(),
        ops: total_ops.load(Ordering::Relaxed),
        shed: total_shed.load(Ordering::Relaxed),
        elapsed_ms: phase_started.elapsed().as_millis() as u64,
        peak: stats
            .iter()
            .map(|s| s.retired_peak as u64)
            .max()
            .unwrap_or(0),
        retired_end: stats
            .iter()
            .map(|s| s.retired_now as u64)
            .max()
            .unwrap_or(0),
        healths: (0..store.shard_count()).map(|i| store.health(i)).collect(),
        restarts: restarts.load(Ordering::Relaxed),
    }
}

/// Yields until `flag` is raised.
fn wait_for(flag: &AtomicBool) {
    while !flag.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
}

/// A serve-net phase: bind an in-process `era-net` server on loopback,
/// run it in its own scope, and load it with `phase.threads` pipelined
/// client connections issuing the phase's mix.
fn serve_phase<S: Smr>(
    store: &KvStore<'_, S>,
    spec: &ScenarioSpec,
    pi: usize,
    phase: &PhaseSpec,
    total_ops: &AtomicU64,
    total_shed: &AtomicU64,
) {
    let cfg = NetConfig {
        workers: NET_WORKERS,
        ..NetConfig::default()
    };
    let server = NetServer::bind(store, cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|s| {
        let srv = s.spawn(|| server.run().expect("server run"));
        let clients: Vec<_> = (0..phase.threads)
            .map(|t| {
                s.spawn(move || {
                    let mut conn = TcpStream::connect(addr).expect("connect loopback");
                    conn.set_nodelay(true).ok();
                    let mut draws = worker_ops(spec, pi, t, phase);
                    let mut scratch = Vec::new();
                    let (mut ops, mut shed) = (0u64, 0u64);
                    loop {
                        // Pipeline a small burst, then read it back.
                        let mut sent = 0usize;
                        for (key, kind) in draws.by_ref().take(8) {
                            let req = match kind {
                                KvOpKind::Get => Request::Get { key },
                                KvOpKind::Put => Request::Put { key, value: key },
                                KvOpKind::Remove => Request::Remove { key },
                            };
                            write_request(&mut conn, &req).expect("client write");
                            sent += 1;
                        }
                        if sent == 0 {
                            break;
                        }
                        while sent > 0 {
                            let frame = read_frame(&mut conn, &mut scratch)
                                .expect("client read")
                                .expect("server closed mid-burst");
                            if let Response::Error(_) =
                                Response::decode(frame).expect("client decode")
                            {
                                shed += 1;
                            }
                            ops += 1;
                            sent -= 1;
                        }
                    }
                    drop(conn);
                    (ops, shed)
                })
            })
            .collect();
        let mut client_panic = false;
        for c in clients {
            match c.join() {
                Ok((ops, shed)) => {
                    // SAFETY(ordering): Relaxed — phase totals, read
                    // after the scope exits.
                    total_ops.fetch_add(ops, Ordering::Relaxed);
                    total_shed.fetch_add(shed, Ordering::Relaxed);
                }
                Err(_) => client_panic = true,
            }
        }
        // Shut the server down BEFORE propagating a client panic, or
        // the acceptor thread outlives the scope and it deadlocks.
        handle.shutdown();
        let server_panic = srv.join().is_err();
        assert!(!client_panic, "net client panicked");
        assert!(!server_panic, "net server panicked");
    });
}

/// The `(key, kind)` operations worker `t` issues in phase `pi`: a
/// seeded stream salted with the phase index, so phases draw
/// independent streams. Each op samples its key, then rolls its kind.
fn worker_ops(
    spec: &ScenarioSpec,
    pi: usize,
    t: usize,
    phase: &PhaseSpec,
) -> impl Iterator<Item = (i64, KvOpKind)> {
    let salt = (((pi as u64) << 32) | t as u64).wrapping_add(1);
    let mut rng = StdRng::seed_from_u64(spec.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let sampler = phase.dist().sampler((phase.key_hi - phase.key_lo) as i64);
    let (key_lo, mix) = (phase.key_lo as i64, phase.mix());
    std::iter::repeat_with(move || {
        let key = key_lo + sampler.sample(&mut rng);
        (key, mix.kind(rng.random_range(0..100u32)))
    })
    .take(phase.ops_per_thread)
}

/// Writes a `.eraflt` dump of every shard's retained trace (`flight`
/// holds the shards' recorders, in shard order) + exact stats; returns
/// whether the write succeeded (failure to dump must not mask the
/// scenario verdict).
fn write_failure_dump<S: Smr>(
    store: &KvStore<'_, S>,
    flight: &FlightRecorder,
    path: &std::path::Path,
) -> bool {
    for i in 0..store.shard_count() {
        let st = store.scheme(i).stats();
        flight.set_stats(
            i,
            DumpStats {
                retired_now: st.retired_now as u64,
                retired_peak: st.retired_peak as u64,
                total_retired: st.total_retired,
                total_reclaimed: st.total_reclaimed,
                era: st.era,
            },
        );
    }
    flight.snapshot_to_file(path).is_ok()
}

/// Keeps at most `max` evenly spaced samples (always including the
/// last — the recovery tail is the interesting part).
fn downsample(curve: Vec<(u64, u64)>, max: usize) -> Vec<(u64, u64)> {
    if curve.len() <= max || max < 2 {
        return curve;
    }
    let last = curve.len() - 1;
    let mut out: Vec<(u64, u64)> = (0..max - 1).map(|i| curve[i * last / (max - 1)]).collect();
    out.push(curve[last]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsample_keeps_ends_and_spacing() {
        let curve: Vec<(u64, u64)> = (0..1000).map(|i| (i, i * 2)).collect();
        let out = downsample(curve.clone(), 128);
        assert_eq!(out.len(), 128);
        assert_eq!(out[0], (0, 0));
        assert_eq!(*out.last().unwrap(), (999, 1998));
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "monotone");
        assert_eq!(downsample(curve[..50].to_vec(), 128).len(), 50);
    }

    #[test]
    fn worker_streams_differ_by_phase_and_thread_and_are_pinned() {
        let spec = ScenarioSpec {
            name: "t".into(),
            seed: 7,
            shards: 1,
            soft: 512,
            hard: 2048,
            bound: 2048,
            prefill: 0,
            chaos: None,
            phases: vec![PhaseSpec::churn("a"), PhaseSpec::churn("b")],
        };
        let draw = |pi: usize, t: usize| {
            worker_ops(&spec, pi, t, &spec.phases[pi])
                .take(32)
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(0, 0), draw(0, 0), "deterministic");
        assert_ne!(draw(0, 0), draw(0, 1), "per-thread stream");
        assert_ne!(draw(0, 0), draw(1, 0), "per-phase stream");
        assert_eq!(
            worker_ops(&spec, 0, 0, &spec.phases[0]).count(),
            spec.phases[0].ops_per_thread
        );
        // The head of phase 0, worker 0, as the worker drew it before it
        // shared `KvMix::kind` (key first, then the roll).
        let keys = [
            229, 257, 23, 916, 515, 165, 635, 702, 905, 59, 5, 808, 144, 708, 208, 564, 570, 349,
            557, 813, 194, 204, 826, 528, 120, 885, 309, 985, 789, 320, 358, 257,
        ];
        let kinds = "RPGGRPGPPGPPPRGGRRGRPRGGGGRPPGGG".chars().map(|c| match c {
            'G' => KvOpKind::Get,
            'P' => KvOpKind::Put,
            _ => KvOpKind::Remove,
        });
        assert_eq!(draw(0, 0), keys.into_iter().zip(kinds).collect::<Vec<_>>());
    }
}
