//! Criterion bench behind experiment E5: throughput of every
//! (structure × scheme) pair on read-heavy and update-heavy mixes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use era_bench::runner::{run_harris, run_michael, run_vbr};
use era_bench::workload::{KeyDist, Mix, WorkloadSpec};
use era_smr::{ebr::Ebr, he::He, hp::Hp, ibr::Ibr, leak::Leak, nbr::Nbr};

fn spec(mix: Mix, threads: usize) -> WorkloadSpec {
    WorkloadSpec {
        mix,
        dist: KeyDist::Uniform,
        key_range: 512,
        ops_per_thread: 10_000,
        threads,
        prefill: 256,
        seed: 7,
    }
}

fn bench_mix(c: &mut Criterion, label: &str, mix: Mix) {
    let mut g = c.benchmark_group(format!("throughput/{label}"));
    for threads in [1usize, 4] {
        let s = spec(mix, threads);
        g.throughput(Throughput::Elements((s.ops_per_thread * s.threads) as u64));
        g.bench_with_input(BenchmarkId::new("michael+EBR", threads), &s, |b, s| {
            b.iter(|| run_michael(&Ebr::new(16), s, None))
        });
        g.bench_with_input(BenchmarkId::new("michael+HP", threads), &s, |b, s| {
            b.iter(|| run_michael(&Hp::new(16, 3), s, None))
        });
        g.bench_with_input(BenchmarkId::new("michael+HE", threads), &s, |b, s| {
            b.iter(|| run_michael(&He::new(16, 3), s, None))
        });
        g.bench_with_input(BenchmarkId::new("michael+IBR", threads), &s, |b, s| {
            b.iter(|| run_michael(&Ibr::new(16), s, None))
        });
        g.bench_with_input(BenchmarkId::new("michael+Leak", threads), &s, |b, s| {
            b.iter(|| run_michael(&Leak::new(16), s, None))
        });
        g.bench_with_input(BenchmarkId::new("harris+EBR", threads), &s, |b, s| {
            b.iter(|| run_harris(&Ebr::new(16), s, None))
        });
        g.bench_with_input(BenchmarkId::new("harris+NBR", threads), &s, |b, s| {
            b.iter(|| run_harris(&Nbr::new(16, 2), s, None))
        });
        g.bench_with_input(BenchmarkId::new("vbr-list", threads), &s, |b, s| {
            b.iter(|| run_vbr(s))
        });
    }
    g.finish();
}

fn benches(c: &mut Criterion) {
    bench_mix(c, "read-heavy", Mix::READ_HEAVY);
    bench_mix(c, "update-heavy", Mix::UPDATE_HEAVY);
}

criterion_group! {
    name = group;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(group);
