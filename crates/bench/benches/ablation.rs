//! Ablation benches for the tunables each scheme exposes — the design
//! choices DESIGN.md calls out:
//!
//! * **EBR retire threshold** — how often a thread attempts epoch
//!   advancement + collection. Small = tight footprint, frequent
//!   all-thread scans; large = cheap retires, fat retire lists.
//! * **HP scan threshold** — the classic R-factor trade-off: scans cost
//!   O(hazards + garbage), amortized over the threshold.
//! * **HE/IBR era frequency** — allocations per era tick. Fast clocks
//!   shrink the pinned cohort (better robustness bound) but cost a
//!   shared counter increment per k allocations.
//!
//! The throughput side is measured here; the footprint side of the same
//! knobs is visible in the `robustness` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use era_bench::runner::run_michael;
use era_bench::workload::{KeyDist, Mix, WorkloadSpec};
use era_smr::{ebr::Ebr, he::He, hp::Hp};

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        mix: Mix::UPDATE_HEAVY, // retire-heavy: the knobs under test fire
        dist: KeyDist::Uniform,
        key_range: 256,
        ops_per_thread: 8_000,
        threads: 2,
        prefill: 128,
        seed: 13,
    }
}

fn benches(c: &mut Criterion) {
    let s = spec();
    let ops = (s.ops_per_thread * s.threads) as u64;

    let mut g = c.benchmark_group("ablation/ebr_retire_threshold");
    g.throughput(Throughput::Elements(ops));
    for threshold in [1usize, 8, 64, 512] {
        g.bench_with_input(
            BenchmarkId::from_parameter(threshold),
            &threshold,
            |b, &t| b.iter(|| run_michael(&Ebr::with_threshold(8, t), &s, None)),
        );
    }
    g.finish();

    let mut g = c.benchmark_group("ablation/hp_scan_threshold");
    g.throughput(Throughput::Elements(ops));
    for threshold in [1usize, 8, 64, 512] {
        g.bench_with_input(
            BenchmarkId::from_parameter(threshold),
            &threshold,
            |b, &t| b.iter(|| run_michael(&Hp::with_threshold(8, 3, t), &s, None)),
        );
    }
    g.finish();

    let mut g = c.benchmark_group("ablation/he_era_frequency");
    g.throughput(Throughput::Elements(ops));
    for freq in [1u64, 8, 64, 512] {
        g.bench_with_input(BenchmarkId::from_parameter(freq), &freq, |b, &f| {
            b.iter(|| run_michael(&He::with_params(8, 3, 64, f), &s, None))
        });
    }
    g.finish();
}

criterion_group! {
    name = group;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(group);
