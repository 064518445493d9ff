//! One op stream, three synchronous layers: a [`Target`] is the public
//! surface of `era-kv` (L2) or `era-ds` (L1) seen as "execute this op,
//! return the reply", so the same checked executor drives both.

use std::time::Instant;

use era_ds::HashMap;
use era_kv::{KvCtx, KvStore};
use era_smr::Smr;

use crate::workload::{put_value, Model, Op, OpKind};

/// A layer's reply: the read/previous/removed value, or `Err` when the
/// layer refused or failed the op.
pub type Reply = Result<Option<i64>, ()>;

/// A layer that executes stream ops synchronously.
pub trait Target {
    /// Executes the op at stream position `pos`.
    fn exec(&mut self, op: Op, pos: usize) -> Reply;

    /// Whether runs of two or more consecutive PUTs inside a burst go
    /// through [`Target::put_batch`], as the server's `process_burst` does.
    fn batches_put_runs(&self) -> bool {
        false
    }

    /// Applies a PUT run in one call; replies in item order.
    fn put_batch(&mut self, items: &[(i64, i64)]) -> Vec<Reply> {
        let _ = items;
        unreachable!("only targets that batch PUT runs implement put_batch")
    }
}

/// L2: `KvStore` through one thread's context.
pub struct KvTarget<'a, 's, S: Smr> {
    /// The store under test.
    pub store: &'a KvStore<'s, S>,
    /// This thread's registration.
    pub ctx: KvCtx<S>,
    /// Form the PUT runs the server would form (net workloads' L2).
    pub batch: bool,
}

impl<S: Smr> Target for KvTarget<'_, '_, S> {
    #[inline]
    fn exec(&mut self, op: Op, pos: usize) -> Reply {
        let key = op.key();
        match op.kind() {
            OpKind::Get => Ok(self.store.get(&mut self.ctx, key)),
            OpKind::Put => self
                .store
                .put(&mut self.ctx, key, put_value(key, pos))
                .map_err(drop),
            OpKind::Remove => self.store.remove(&mut self.ctx, key).map_err(drop),
        }
    }

    fn batches_put_runs(&self) -> bool {
        self.batch
    }

    fn put_batch(&mut self, items: &[(i64, i64)]) -> Vec<Reply> {
        self.store
            .put_batch(&mut self.ctx, items)
            .into_iter()
            .map(|r| r.map_err(drop))
            .collect()
    }
}

/// L1: one `era_ds::HashMap` over one scheme instance.
pub struct DsTarget<'a, 's, S: Smr> {
    /// The map under test.
    pub map: &'a HashMap<'s, S>,
    /// This thread's registration with the map's scheme.
    pub ctx: S::ThreadCtx,
}

impl<S: Smr> Target for DsTarget<'_, '_, S> {
    #[inline]
    fn exec(&mut self, op: Op, pos: usize) -> Reply {
        let key = op.key();
        Ok(match op.kind() {
            OpKind::Get => self.map.get(&mut self.ctx, key),
            OpKind::Put => self.map.insert(&mut self.ctx, key, put_value(key, pos)),
            OpKind::Remove => self.map.remove(&mut self.ctx, key),
        })
    }
}

/// What a [`KindTimer`] tells apart.
#[derive(Debug, Clone, Copy)]
pub enum Timed {
    /// A single GET.
    Get = 0,
    /// A single PUT.
    Put = 1,
    /// A single REMOVE.
    Remove = 2,
    /// One item of a batched PUT run.
    BatchedPut = 3,
}

/// Wall time and call count per op kind, each call timed on its own.
#[derive(Debug, Default)]
pub struct KindTimer {
    ns: [u64; 4],
    calls: [u64; 4],
}

impl KindTimer {
    fn add(&mut self, kind: Timed, since: Instant, items: u64) {
        self.ns[kind as usize] += since.elapsed().as_nanos() as u64;
        self.calls[kind as usize] += items;
    }

    /// Mean nanoseconds per call of `kind`, less `timer_ns` (what one
    /// start/stop pair costs on its own); 0 when the stream has none.
    pub fn mean_ns(&self, kind: Timed, timer_ns: f64) -> f64 {
        let (ns, calls) = (self.ns[kind as usize], self.calls[kind as usize]);
        if calls == 0 {
            return 0.0;
        }
        // A batch pays the timer once per call, not per item; the residue
        // is below the timer's own resolution.
        (ns as f64 / calls as f64 - timer_ns).max(0.0)
    }
}

/// What an `Instant::now()` … `elapsed()` pair costs with nothing between.
pub fn timer_overhead_ns() -> f64 {
    const REPS: u32 = 1 << 16;
    let start = Instant::now();
    let mut sink = 0u128;
    for _ in 0..REPS {
        sink += std::hint::black_box(Instant::now()).elapsed().as_nanos();
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / f64::from(REPS)
}

/// Executes `ops` (stream positions `base..`) against `target`, checking
/// every reply against `model`; returns how many were refused or wrong.
/// With a `timer`, every call is timed on its own and filed by kind.
pub fn exec_burst<T: Target>(
    target: &mut T,
    ops: &[Op],
    base: usize,
    model: &mut Model,
    mut timer: Option<&mut KindTimer>,
) -> u64 {
    let mut failed = 0;
    let mut i = 0;
    while i < ops.len() {
        let run = if target.batches_put_runs() {
            ops[i..]
                .iter()
                .take_while(|op| op.kind() == OpKind::Put)
                .count()
        } else {
            0
        };
        if run >= 2 {
            let items: Vec<(i64, i64)> = (i..i + run)
                .map(|j| (ops[j].key(), put_value(ops[j].key(), base + j)))
                .collect();
            let start = Instant::now();
            let replies = target.put_batch(&items);
            if let Some(t) = timer.as_deref_mut() {
                t.add(Timed::BatchedPut, start, run as u64);
            }
            for (j, reply) in (i..i + run).zip(replies) {
                failed += u64::from(reply != Ok(model.step(ops[j], base + j)));
            }
            i += run;
            continue;
        }
        let op = ops[i];
        let reply = match timer.as_deref_mut() {
            Some(t) => {
                let start = Instant::now();
                let reply = target.exec(op, base + i);
                let kind = match op.kind() {
                    OpKind::Get => Timed::Get,
                    OpKind::Put => Timed::Put,
                    OpKind::Remove => Timed::Remove,
                };
                t.add(kind, start, 1);
                reply
            }
            None => target.exec(op, base + i),
        };
        failed += u64::from(reply != Ok(model.step(op, base + i)));
        i += 1;
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use era_kv::KvStore;
    use era_smr::ebr::Ebr;

    fn churn_store_run(batch: bool, sabotage: bool) -> u64 {
        let w = Workload::by_name("net-churn-ebr").unwrap();
        let schemes: Vec<Ebr> = (0..2).map(|_| Ebr::new(2)).collect();
        let store = KvStore::new(&schemes, w.kv_config());
        let ctx = store.register().unwrap();
        let mut target = KvTarget {
            store: &store,
            ctx,
            batch,
        };
        let mut model = Model::empty(w.key_range);
        if sabotage {
            // A deliberately wrong model: it believes in a key the store
            // never saw, so the first op on that key must be flagged.
            model.set(w.stream(3, 0)[0].key(), Some(-1));
        }
        let stream = w.stream(3, 0);
        let mut failed = 0;
        for (b, burst) in stream[..4096].chunks(64).enumerate() {
            failed += exec_burst(&mut target, burst, b * 64, &mut model, None);
        }
        if !sabotage {
            assert_eq!(store.scan(0, w.key_range), model.entries());
        }
        failed
    }

    #[test]
    fn checked_replay_agrees_with_the_store() {
        assert_eq!(churn_store_run(false, false), 0);
        assert_eq!(
            churn_store_run(true, false),
            0,
            "batched PUT runs reply the same"
        );
    }

    #[test]
    fn a_wrong_model_is_caught() {
        assert!(churn_store_run(false, true) >= 1);
    }

    #[test]
    fn kind_timer_files_by_kind() {
        let w = Workload::by_name("net-churn-ebr").unwrap();
        let schemes = vec![Ebr::new(2)];
        let store = KvStore::new(&schemes, w.kv_config());
        let ctx = store.register().unwrap();
        let mut target = KvTarget {
            store: &store,
            ctx,
            batch: true,
        };
        let mut model = Model::empty(w.key_range);
        let mut timer = KindTimer::default();
        let stream = w.stream(1, 0);
        assert_eq!(
            exec_burst(&mut target, &stream[..64], 0, &mut model, Some(&mut timer)),
            0
        );
        assert_eq!(timer.calls.iter().sum::<u64>(), 64);
        assert!(
            timer.calls[Timed::BatchedPut as usize] >= 2,
            "30% PUTs form runs in 64 ops"
        );
        assert_eq!(KindTimer::default().mean_ns(Timed::Get, 20.0), 0.0);
    }
}
