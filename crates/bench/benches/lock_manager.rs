//! Lock manager throughput under varying contention: the executable
//! 2PL block's cost profile, and the cost of the conflict-serializability
//! check that judges the histories 2PL produces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcv_txn::{History, LockManager, LockMode, OpKind, TxnId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn workload(items: usize, ops: usize, seed: u64) -> Vec<(TxnId, String, LockMode)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| {
            (
                TxnId(rng.gen_range(1..=8)),
                format!("X{}", rng.gen_range(0..items)),
                if rng.gen_bool(0.3) { LockMode::Exclusive } else { LockMode::Shared },
            )
        })
        .collect()
}

fn bench_acquire_release(c: &mut Criterion) {
    let mut group = c.benchmark_group("locks");
    for items in [1usize, 4, 64] {
        let ops = workload(items, 500, 42);
        group.bench_with_input(
            BenchmarkId::new("contention", format!("{items}-items")),
            &ops,
            |b, ops| {
                b.iter(|| {
                    let mut lm = LockManager::new();
                    for (txn, item, mode) in ops {
                        if let Ok(mcv_txn::LockOutcome::WouldDeadlock { .. }) =
                            lm.acquire(*txn, item.clone(), *mode)
                        {
                            lm.release_all(*txn);
                        }
                    }
                    for t in 1..=8u64 {
                        lm.release_all(TxnId(t));
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_deadlock_detection(c: &mut Criterion) {
    // A maximal waits-for cycle: each txn holds one item and wants the
    // next; the final request must traverse the full cycle.
    let mut group = c.benchmark_group("locks/deadlock-cycle");
    for n in [4u64, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut lm = LockManager::new();
                for t in 0..n {
                    assert_eq!(
                        lm.acquire(TxnId(t), format!("X{t}"), LockMode::Exclusive).expect("fresh"),
                        mcv_txn::LockOutcome::Granted
                    );
                }
                for t in 0..n - 1 {
                    let _ = lm.acquire(TxnId(t), format!("X{}", t + 1), LockMode::Exclusive);
                }
                // The closing edge must detect the cycle.
                let out = lm.acquire(TxnId(n - 1), "X0", LockMode::Exclusive).expect("fresh");
                assert!(matches!(out, mcv_txn::LockOutcome::WouldDeadlock { .. }));
            })
        });
    }
    group.finish();
}

/// A serial history shaped like the engine's sample under the uniform
/// OLTP load: `txns` transactions of 8 ops over `items` keys, every
/// other one read-only and the rest writing 4 of their 8 ops.
fn oltp_history(txns: u64, items: u64, seed: u64) -> History {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = History::new();
    for t in 1..=txns {
        for i in 0..8 {
            let kind = if t % 2 == 0 && i % 2 == 0 { OpKind::Write } else { OpKind::Read };
            h.push(TxnId(t), format!("item{:06}", rng.gen_range(0..items)), kind);
        }
    }
    h
}

/// `ops` randomly interleaved ops of 8 transactions over `items` hot
/// keys, 30% writes: every item holds `ops / items` ops, so the
/// per-item pair scan dominates while the edge set stays at most 56.
fn hot_history(ops: usize, items: u64, seed: u64) -> History {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = History::new();
    for _ in 0..ops {
        let kind = if rng.gen_bool(0.3) { OpKind::Write } else { OpKind::Read };
        h.push(TxnId(rng.gen_range(1..=8)), format!("X{}", rng.gen_range(0..items)), kind);
    }
    h
}

fn bench_serializability(c: &mut Criterion) {
    let mut group = c.benchmark_group("serializability");
    group.sample_size(10);
    let oltp = oltp_history(2_500, 100_000, 7);
    assert!(oltp.is_conflict_serializable(), "a serial history is serializable");
    group.bench_with_input(BenchmarkId::new("oltp", "2500x8-over-100k"), &oltp, |b, h| {
        b.iter(|| h.is_conflict_serializable())
    });
    let hot = hot_history(20_000, 16, 7);
    group.bench_with_input(BenchmarkId::new("hot", "20000-over-16"), &hot, |b, h| {
        b.iter(|| h.is_conflict_serializable())
    });
    group.finish();
}

criterion_group!(benches, bench_acquire_release, bench_deadlock_detection, bench_serializability);
criterion_main!(benches);
