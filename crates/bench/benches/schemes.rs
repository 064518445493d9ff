//! Criterion micro-bench: raw per-primitive overhead of each
//! reclamation scheme — `begin_op`/`end_op`, one protected load, and a
//! retire+reclaim cycle. Supports the E5 analysis (where does HP/HE's
//! slowdown come from).

use std::sync::atomic::AtomicUsize;

use criterion::{criterion_group, criterion_main, Criterion};
use era_smr::common::Smr;
use era_smr::{ebr::Ebr, he::He, hp::Hp, ibr::Ibr, leak::Leak, nbr::Nbr};

fn bench_scheme<S: Smr>(c: &mut Criterion, smr: S) {
    let name = smr.kind().name();
    let mut ctx = smr.register().expect("one slot");
    let word = AtomicUsize::new(0x1000);

    c.bench_function(&format!("schemes/{name}/begin_end_op"), |b| {
        b.iter(|| {
            smr.begin_op(&mut ctx);
            smr.end_op(&mut ctx);
        })
    });

    c.bench_function(&format!("schemes/{name}/protected_load"), |b| {
        smr.begin_op(&mut ctx);
        b.iter(|| std::hint::black_box(smr.load(&mut ctx, 0, &word)));
        smr.end_op(&mut ctx);
    });

    // SAFETY: every pointer this bench retires is the Box::into_raw of
    // the u64 allocated in the same iteration; retire hands it to
    // free_u64 exactly once.
    unsafe fn free_u64(p: *mut u8) {
        unsafe { drop(Box::from_raw(p as *mut u64)) }
    }
    c.bench_function(&format!("schemes/{name}/retire_reclaim"), |b| {
        b.iter(|| {
            let p = Box::into_raw(Box::new(1u64)) as *mut u8;
            unsafe { smr.retire(&mut ctx, p, std::ptr::null(), free_u64) };
        });
        smr.flush(&mut ctx);
    });
}

fn benches(c: &mut Criterion) {
    bench_scheme(c, Leak::new(4));
    bench_scheme(c, Ebr::new(4));
    bench_scheme(c, Hp::new(4, 3));
    bench_scheme(c, He::new(4, 3));
    bench_scheme(c, Ibr::new(4));
    bench_scheme(c, Nbr::new(4, 2));
}

criterion_group! {
    name = group;
    config = Criterion::default().sample_size(20);
    targets = benches
}
criterion_main!(group);
