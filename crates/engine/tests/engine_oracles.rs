//! End-to-end oracle tests of the concurrent engine.
//!
//! Three families, mirroring the thesis' global properties:
//! - **serializability** — every sampled concurrent history the engine
//!   produces must be conflict-serializable (property tested across
//!   random workload shapes);
//! - **recovery** — a crash at a random instant mid-run must recover
//!   to exactly a committed prefix: every acknowledged commit survives,
//!   no uncommitted write does, and the bank-sum invariant holds on the
//!   recovered state;
//! - **group commit** — batching must actually amortize: device
//!   operations stay strictly below commit count under concurrency.

use mcv_engine::{
    run_driver, DriverConfig, Engine, EngineConfig, EngineError, Mix, WorkloadKind,
    BANK_INITIAL_BALANCE,
};
use mcv_txn::{TxnId, Wal};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the workload shape, the engine's sampled committed
    /// history has an acyclic conflict graph and the durable log
    /// replays to the quiesced state.
    #[test]
    fn every_sampled_history_is_conflict_serializable(
        clients in 1usize..=4,
        txns in 40u64..=120,
        items in 4usize..=48,
        shards in 1usize..=16,
        write_pct in 0u8..=100,
        ops_per_txn in 1usize..=8,
        zipf in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mix = if zipf { Mix::Zipfian { theta: 0.9 } } else { Mix::Uniform };
        let cfg = DriverConfig {
            engine: EngineConfig { shards, ..Default::default() },
            clients,
            txns,
            items,
            workload: WorkloadKind::ReadWrite { mix, write_pct, ops_per_txn },
            seed,
        };
        let report = run_driver(&cfg);
        prop_assert_eq!(report.committed, txns);
        prop_assert!(report.serializable,
            "non-serializable sampled history ({} txns / {} ops)",
            report.sampled_txns, report.sampled_ops);
        prop_assert!(report.recovered_matches,
            "durable log did not replay to the quiesced state");
    }

    /// Same property under the invariant-bearing bank workload.
    #[test]
    fn bank_runs_keep_invariant_and_serializability(
        clients in 2usize..=4,
        txns in 40u64..=100,
        items in 2usize..=24,
        seed in any::<u64>(),
    ) {
        let cfg = DriverConfig {
            engine: EngineConfig::default(),
            clients,
            txns,
            items,
            workload: WorkloadKind::BankTransfer,
            seed,
        };
        let report = run_driver(&cfg);
        prop_assert_eq!(report.bank_invariant_ok, Some(true));
        prop_assert!(report.serializable);
        prop_assert!(report.recovered_matches);
    }
}

/// A crash at a random instant recovers exactly the committed prefix.
///
/// Worker threads run bank transfers and record each commit in an
/// acknowledgement set *after* `commit()` returns. The main thread
/// "pulls the plug" at a random point by snapshotting the durable log
/// image. Reading the ack set strictly before taking the image gives
/// the one-way inclusion a real crash guarantees: every transaction
/// acknowledged before the crash instant has a durable commit record.
/// The recovered state must then satisfy the bank-sum invariant (it is
/// a committed prefix — transfers preserve the sum) and recovery must
/// be idempotent.
#[test]
fn kill_at_random_point_recovers_committed_prefix() {
    const ACCOUNTS: usize = 12;
    const WORKERS: usize = 4;
    for round in 0..5u64 {
        let engine =
            Engine::new(EngineConfig { shards: 8, force_latency_us: 100, ..Default::default() });
        // Fund the accounts.
        let mut setup = engine.begin();
        for i in 0..ACCOUNTS {
            setup.write(&format!("acct{i:02}"), BANK_INITIAL_BALANCE).expect("fund");
        }
        setup.commit().expect("setup commit");

        let acked: Arc<Mutex<BTreeSet<TxnId>>> = Arc::new(Mutex::new(BTreeSet::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let engine = engine.clone();
                let acked = Arc::clone(&acked);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(round * 100 + w as u64);
                    while !stop.load(Ordering::Relaxed) {
                        let a = rng.gen_range(0..ACCOUNTS);
                        let b = (a + 1 + rng.gen_range(0..ACCOUNTS - 1)) % ACCOUNTS;
                        let amt = rng.gen_range(1..=5i64);
                        let mut t = engine.begin();
                        let id = t.id();
                        let r = (|| {
                            let va = t.read(&format!("acct{a:02}"))?;
                            let vb = t.read(&format!("acct{b:02}"))?;
                            t.write(&format!("acct{a:02}"), va - amt)?;
                            t.write(&format!("acct{b:02}"), vb + amt)?;
                            Ok::<(), EngineError>(())
                        })();
                        match r {
                            Ok(()) => {
                                t.commit().expect("commit");
                                // The ack happens only after commit()
                                // returned, i.e. after durability.
                                acked.lock().expect("ack mutex").insert(id);
                            }
                            Err(_) => t.abort(),
                        }
                    }
                })
            })
            .collect();

        // Let the run make progress, then crash at an arbitrary point.
        let mut pause = StdRng::seed_from_u64(round);
        std::thread::sleep(std::time::Duration::from_millis(pause.gen_range(3..25)));
        let acked_at_crash: BTreeSet<TxnId> = acked.lock().expect("ack mutex").clone();
        let image = engine.durable_image();
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().expect("worker");
        }

        let crash_wal = Wal::from_bytes_lossy(&image);
        let durable_committed = crash_wal.committed();
        // 1. Every acknowledged commit survived the crash.
        assert!(
            acked_at_crash.is_subset(&durable_committed),
            "round {round}: acked commit lost: acked={} durable={}",
            acked_at_crash.len(),
            durable_committed.len()
        );
        // 2. No transaction is both committed and aborted.
        assert!(durable_committed.is_disjoint(&crash_wal.aborted()), "round {round}");
        // 3. The recovered state is a committed prefix: the transfer
        //    invariant holds exactly.
        let recovered = crash_wal.recover();
        let total: i64 = (0..ACCOUNTS)
            .map(|i| recovered.get(&format!("acct{i:02}")).copied().unwrap_or(0))
            .sum();
        assert_eq!(
            total,
            BANK_INITIAL_BALANCE * ACCOUNTS as i64,
            "round {round}: bank sum broken after crash-recovery"
        );
        // 4. Recovery is idempotent (second crash during recovery).
        assert_eq!(recovered, Wal::from_bytes_lossy(&image).recover(), "round {round}");
    }
}

/// Group commit must amortize: with concurrent committers, followers
/// ride the leader's force, so strictly fewer device operations than
/// commits. A lone committer always leads and never has followers, so
/// it forces exactly once per commit.
#[test]
fn concurrent_commits_share_forces_and_a_lone_committer_does_not() {
    let base = DriverConfig {
        engine: EngineConfig { force_latency_us: 300, ..Default::default() },
        txns: 120,
        items: 256,
        workload: WorkloadKind::ReadWrite { mix: Mix::Uniform, write_pct: 50, ops_per_txn: 4 },
        seed: 9,
        ..Default::default()
    };

    let grouped = run_driver(&DriverConfig { clients: 4, ..base.clone() });
    assert!(grouped.oracles_ok());
    assert!(
        grouped.forces < grouped.commits,
        "group commit did not batch: {} forces for {} commits",
        grouped.forces,
        grouped.commits
    );

    let lone = run_driver(&DriverConfig { clients: 1, ..base });
    assert!(lone.oracles_ok());
    assert_eq!(lone.forces, lone.commits, "a lone committer forces exactly once per commit");
}

/// Deadlock victims are retried by the driver and never surface as
/// lost transactions, even under heavy symmetric contention.
#[test]
fn contended_bank_run_commits_every_admission() {
    let report = run_driver(&DriverConfig {
        engine: EngineConfig { shards: 2, ..Default::default() },
        clients: 4,
        txns: 200,
        items: 4,
        workload: WorkloadKind::BankTransfer,
        seed: 17,
    });
    assert_eq!(report.committed, 200);
    assert_eq!(report.bank_invariant_ok, Some(true));
    assert!(report.serializable);
    // With 4 accounts and random two-account transfers, deadlocks are
    // all but guaranteed; the driver must have absorbed them. The
    // engine's own counter additionally includes the funding setup.
    assert!(
        report.metrics.counter("engine.txn.committed") > report.committed,
        "engine counter should include setup commits on top of admissions"
    );
}
