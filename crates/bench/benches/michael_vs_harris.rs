//! Criterion bench behind experiment E6 — the paper's §6 "practical
//! importance" claim: Michael's HP-compatible modification of the list
//! is slower than Harris's original, because traversals must unlink
//! marked nodes before advancing (restarting on contention) instead of
//! walking straight through.
//!
//! We compare under update-heavy contention (which produces marked
//! nodes) and on read-heavy traversals of a larger list:
//!
//! * `harris+EBR` — the original algorithm with the strongly applicable
//!   scheme;
//! * `michael+EBR` — the modified algorithm, same scheme (isolates the
//!   algorithmic cost);
//! * `michael+HP` — the modified algorithm with the scheme it was
//!   designed for (adds the per-read protect/validate cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use era_bench::runner::{run_harris, run_michael};
use era_bench::workload::{KeyDist, Mix, WorkloadSpec};
use era_smr::{ebr::Ebr, hp::Hp};

fn benches(c: &mut Criterion) {
    let cases = [
        ("update-heavy", Mix::UPDATE_HEAVY, 256i64),
        ("read-heavy-long-list", Mix::READ_HEAVY, 2_048i64),
    ];
    for (label, mix, key_range) in cases {
        let mut g = c.benchmark_group(format!("michael_vs_harris/{label}"));
        let spec = WorkloadSpec {
            mix,
            dist: KeyDist::Uniform,
            key_range,
            ops_per_thread: 5_000,
            threads: 4,
            prefill: (key_range / 2) as usize,
            seed: 11,
        };
        g.throughput(Throughput::Elements(
            (spec.ops_per_thread * spec.threads) as u64,
        ));
        g.bench_with_input(BenchmarkId::new("harris+EBR", key_range), &spec, |b, s| {
            b.iter(|| run_harris(&Ebr::new(16), s, None))
        });
        g.bench_with_input(BenchmarkId::new("michael+EBR", key_range), &spec, |b, s| {
            b.iter(|| run_michael(&Ebr::new(16), s, None))
        });
        g.bench_with_input(BenchmarkId::new("michael+HP", key_range), &spec, |b, s| {
            b.iter(|| run_michael(&Hp::new(16, 3), s, None))
        });
        g.finish();
    }
}

criterion_group! {
    name = group;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(group);
