//! The `kv-*` workloads: closed-loop threads calling `KvStore` directly,
//! the embedder's entry point (L2). No `era-net` code runs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use era_kv::KvStore;
use era_smr::Smr;

use crate::measure::{preload, resident_samples, Measured, Plan, Usage};
use crate::stats;
use crate::target::{exec_burst, KvTarget, Target};
use crate::workload::{Model, Op, Workload, BURST, SHARDS};

/// Runs `ops` stream ops from `*pos` on (cyclically), every reply checked.
/// The first op of each 64 is timed on its own — the latency sample — and
/// pushed to `lat` when measuring; returns the failures.
fn run_window<T: Target>(
    target: &mut T,
    stream: &[Op],
    pos: &mut usize,
    ops: usize,
    model: &mut Model,
    mut lat: Option<&mut Vec<u32>>,
) -> u64 {
    let mut failed = 0;
    for _ in 0..ops / BURST {
        let burst = &stream[*pos..*pos + BURST];
        let start = Instant::now();
        failed += exec_burst(target, &burst[..1], *pos, model, None);
        let sample = start.elapsed().as_nanos() as u32;
        if let Some(lat) = lat.as_deref_mut() {
            lat.push(sample);
        }
        failed += exec_burst(target, &burst[1..], *pos + 1, model, None);
        *pos = (*pos + BURST) % stream.len();
    }
    failed
}

struct Worker {
    windows: Vec<(Instant, Instant)>,
    lat_ns: Vec<u32>,
    model: Model,
    failed: u64,
    /// Set by the leader only: when set-up ended, and usage around the
    /// measured windows.
    lead: Option<(Instant, Usage, Usage, f64)>,
}

/// One set-up of a `kv-*` workload and the windows that fit `budget_s`.
pub fn run<S: Smr>(
    w: &Workload,
    seed: u64,
    plan: &Plan,
    budget_s: f64,
    make: &(impl Fn() -> S + Sync),
) -> Measured {
    let t0 = Instant::now();
    let streams: Vec<Vec<Op>> = (0..w.clients).map(|c| w.stream(seed, c)).collect();
    let schemes: Vec<S> = (0..SHARDS).map(|_| make()).collect();
    let store = KvStore::new(&schemes, w.kv_config());
    let mut out = Measured {
        preload_s: preload(w, &store),
        ..Measured::default()
    };
    let base_model = w.preload_model();
    let per_thread = plan.window_ops / w.clients;
    let barrier = Barrier::new(w.clients);
    let windows = AtomicUsize::new(0);

    let worker = |client: usize| -> Worker {
        let leader = client == 0;
        let stream = &streams[client];
        let ctx = store
            .register()
            .expect("scheme capacity covers the workers");
        let mut target = KvTarget {
            store: &store,
            ctx,
            batch: false,
        };
        let mut model = base_model.clone();
        if !leader {
            // The preload's removes are counted once, in the leader's model.
            model.removed = 0;
        }
        let (mut pos, mut failed) = (0, 0);

        let mut window_s = 0.0;
        for _ in 0..plan.warm_windows {
            barrier.wait();
            let start = Instant::now();
            failed += run_window(&mut target, stream, &mut pos, per_thread, &mut model, None);
            window_s = start.elapsed().as_secs_f64();
        }
        if leader {
            let n = plan.windows_for(budget_s, window_s);
            windows.store(n, Ordering::SeqCst);
        }
        barrier.wait();
        let n = windows.load(Ordering::SeqCst);
        let mut lat_ns = resident_samples(plan.max_samples() / w.clients);
        barrier.wait();

        let setup_done = Instant::now();
        let before = Usage::now();
        let cpu_before = stats::thread_cpu_s();
        let mut spans = Vec::with_capacity(n);
        for _ in 0..n {
            barrier.wait();
            let start = Instant::now();
            failed += run_window(
                &mut target,
                stream,
                &mut pos,
                per_thread,
                &mut model,
                Some(&mut lat_ns),
            );
            spans.push((start, Instant::now()));
        }
        barrier.wait();
        let lead = leader.then(|| {
            (
                setup_done,
                before,
                Usage::now(),
                stats::thread_cpu_s() - cpu_before,
            )
        });
        Worker {
            windows: spans,
            lat_ns,
            model,
            failed,
            lead,
        }
    };

    let mut workers: Vec<Worker> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w.clients).map(|c| s.spawn(move || worker(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    let (setup_done, before, after, client_cpu_s) = workers[0].lead.take().expect("client 0 leads");
    out.setup_s = setup_done.duration_since(t0).as_secs_f64();
    out.set_usage(before, after);
    out.client_cpu_s = client_cpu_s;
    let n = workers[0].windows.len();
    for i in 0..n {
        // A window runs from the first thread's start to the last one's end.
        let start = workers
            .iter()
            .map(|t| t.windows[i].0)
            .min()
            .expect("at least one client");
        let end = workers
            .iter()
            .map(|t| t.windows[i].1)
            .max()
            .expect("at least one client");
        out.window_ops_s
            .push(plan.window_ops as f64 / end.duration_since(start).as_secs_f64());
    }
    out.measured_ops = (n * plan.window_ops) as u64;
    out.attempted = ((plan.warm_windows + n) * plan.window_ops) as u64;
    out.store_ops = out.attempted + w.preload_ops();

    let mut model = workers[0].model.clone();
    for (client, t) in workers.iter_mut().enumerate() {
        out.failed += t.failed;
        out.lat_ns.append(&mut t.lat_ns);
        if client > 0 {
            model.adopt_owned(&t.model, client, w.clients);
        }
    }
    out.finish_store(w, &store, &model);
    out
}
