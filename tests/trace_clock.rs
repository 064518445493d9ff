//! The trace-clock contract (DESIGN §3.6) seen through real schemes and
//! a real structure: an operation's own hooks are counted and never
//! recorded, retires read the logical clock, only the amortised
//! reclamation path advances it — and the merged log is still causally
//! ordered, every node's `Retire` ahead of its `Reclaim`.

use std::collections::HashMap as StdHashMap;

use era::ds::HashMap;
use era::obs::{Hook, Recorder};
use era::smr::common::Smr;
use era::smr::ebr::Ebr;
use era::smr::hp::Hp;

const THREADS: usize = 2;
const KEYS: i64 = 256;
const READS_PER_THREAD: i64 = if cfg!(miri) { 200 } else { 5_000 };

fn clock_is_read_by_operations_and_advanced_by_reclamation<S: Smr + Sync>(smr: &S) {
    let name = smr.kind().name();
    let recorder = Recorder::with_max_retained(THREADS + 2, 1 << 16);
    smr.attach_recorder(&recorder);
    let map = HashMap::new(smr, 64);
    {
        let mut ctx = smr.register().expect("slot");
        for k in 0..KEYS {
            map.insert(&mut ctx, k, k);
        }
    }
    let count = |hook| recorder.metrics().hook_count(hook);
    let ticked = || -> u64 {
        Hook::ALL
            .into_iter()
            .filter(|h| h.advances_clock())
            .map(count)
            .sum()
    };
    // What one `get` of each key counts: nothing writes the map while
    // it is read, so a key's protected loads are the same every time.
    let loads_of: Vec<u64> = {
        let mut ctx = smr.register().expect("slot");
        (0..KEYS)
            .map(|k| {
                let before = count(Hook::Load);
                assert_eq!(map.get(&mut ctx, k), Some(k));
                count(Hook::Load) - before
            })
            .collect()
    };
    let per_op = [Hook::BeginOp, Hook::Load, Hook::EndOp];
    let counted = per_op.map(count);
    recorder.drain();

    // Read-only phase, two threads: the clock must not move at all, and
    // nothing is recorded — an operation's hooks are only counted.
    let quiet = recorder.now();
    let ticked_at_quiet = ticked();
    std::thread::scope(|s| {
        for t in 0..THREADS as i64 {
            let map = &map;
            s.spawn(move || {
                let mut ctx = smr.register().expect("slot");
                for i in 0..READS_PER_THREAD {
                    assert_eq!(map.get(&mut ctx, (i + t) % KEYS), Some((i + t) % KEYS));
                }
            });
        }
    });
    assert_eq!(recorder.now(), quiet, "{name}: a read advanced the clock");
    let log = recorder.drain();
    assert!(
        log.events.is_empty(),
        "{name}: a read recorded {:?}",
        log.events[0]
    );
    let ops = THREADS as u64 * READS_PER_THREAD as u64;
    let loads: u64 = (0..THREADS as i64)
        .flat_map(|t| (0..READS_PER_THREAD).map(move |i| (i + t) % KEYS))
        .map(|k| loads_of[k as usize])
        .sum();
    let counted_since: Vec<u64> = per_op
        .iter()
        .zip(counted)
        .map(|(&hook, was)| count(hook) - was)
        .collect();
    assert_eq!(
        counted_since,
        [ops, loads, ops],
        "{name}: hook counts are exact without a shared counter"
    );

    // Churn phase, two threads on disjoint keys: retires read the
    // clock, reclaims (and whatever else the protocol emits) tick.
    std::thread::scope(|s| {
        for t in 0..THREADS as i64 {
            let map = &map;
            s.spawn(move || {
                let mut ctx = smr.register().expect("slot");
                for k in (t..KEYS).step_by(THREADS) {
                    assert_eq!(map.remove(&mut ctx, k), Some(k));
                    // The peer's key: there or not, a read between retires.
                    let _ = map.get(&mut ctx, (k + 1) % KEYS);
                }
                for _ in 0..4 {
                    smr.flush(&mut ctx);
                }
            });
        }
    });
    let stats = smr.stats();
    assert_eq!(stats.total_retired, KEYS as u64, "{name}");
    assert_eq!(
        recorder.now() - quiet,
        ticked() - ticked_at_quiet,
        "{name}: the clock advances by exactly one per ticking event"
    );
    assert!(
        recorder.now() >= quiet + stats.total_reclaimed,
        "{name}: every reclaim ticks"
    );

    let log = recorder.drain();
    assert_eq!(log.trimmed, 0, "{name}: cap sized to keep the whole run");
    assert!(log
        .events
        .windows(2)
        .all(|w| w[0].merge_key() <= w[1].merge_key()));
    let retired_at: StdHashMap<u64, usize> = log
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.hook == Hook::Retire as u8)
        .map(|(at, e)| (e.a, at))
        .collect();
    assert_eq!(retired_at.len(), KEYS as usize, "{name}");
    let mut reclaims = 0;
    for (at, e) in log.events.iter().enumerate() {
        if e.hook == Hook::Reclaim as u8 {
            reclaims += 1;
            assert!(
                retired_at[&e.a] < at,
                "{name}: reclaim of {:#x} before its retire",
                e.a
            );
        }
    }
    assert_eq!(reclaims, stats.total_reclaimed, "{name}");
}

#[test]
fn hp_operations_read_the_clock_reclamation_advances_it() {
    clock_is_read_by_operations_and_advanced_by_reclamation(&Hp::new(THREADS + 2, 3));
}

#[test]
fn ebr_operations_read_the_clock_reclamation_advances_it() {
    clock_is_read_by_operations_and_advanced_by_reclamation(&Ebr::new(THREADS + 2));
}
