//! The multi-shot pipelined commit runtime: many cross-shard
//! transactions in flight per shard-link at once.
//!
//! [`run_dist`](crate::run_dist) starts every transaction at tick 0
//! and waits out a fixed fault horizon — fine for oracle campaigns,
//! hopeless as a throughput measurement (the serial path settles near
//! 210 tps against ~8,900 tps single-shard). [`run_pipeline`] keeps
//! the same topology, protocol code, fault vocabulary, and oracles,
//! and changes only the *scheduling*:
//!
//! - a **submission pump** streams [`TxnPlan`]s to the coordinator
//!   through [`NodeEvent::Submit`](crate::NodeEvent::Submit), holding
//!   at most `max_inflight` undecided transactions open — the
//!   coordinator's commit log ([`CommitLogEntry`]) totally orders
//!   their decisions;
//! - the transport runs with a per-link **batching window**: messages
//!   submitted while a link's batch head is still in flight ride along
//!   at the head's delivery instant, so concurrent transactions share
//!   hop delays instead of queuing behind FIFO clamps;
//! - as in the serial runtime, shard stores ([`EngineStore`]) stage
//!   commit records and each delivery batch pays one WAL force for all
//!   of them — here a batch carries many transactions, so
//!   `engine.wal.forces` collapses below `engine.wal.commits` — with
//!   acknowledgements still held until the force completes;
//! - the run ends on **quiescence** (every submitted transaction
//!   decided everywhere, plus a quiet tail), not on a horizon — a
//!   fault-free pipelined run never waits out phantom fault windows.

use crate::node::{run_node, NodeSeat};
use crate::runtime::{fault_horizon, DistConfig, DistStats, Ledger};
use crate::store::{CoordStore, EngineStore};
use crate::transport::{NetMsg, Network, NodeEvent};
use mcv_chaos::OracleResult;
use mcv_commit::{Protocol, Site, SiteConfig};
use mcv_engine::{Engine, EngineConfig};
use mcv_sim::ProcId;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one pipelined run: a [`DistConfig`] (topology,
/// workload, faults, protocol knobs) plus the multi-shot scheduling
/// parameters.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PipelineConfig {
    /// The underlying distributed configuration. Its `n_txns` plans
    /// are streamed by the pump instead of all starting at once; its
    /// `horizon` only matters when faults are scheduled.
    pub dist: DistConfig,
    /// Maximum undecided transactions in flight at once.
    pub max_inflight: usize,
    /// Per-link transport batching window in microseconds; 0 degrades
    /// to the serial per-message schedule.
    pub batch_window_us: u64,
    /// Open-loop arrival offsets in microseconds since run start, one
    /// per transaction (`None` = submit as fast as the window allows).
    /// Shorter vectors leave the tail unconstrained.
    pub arrival_us: Option<Vec<u64>>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            dist: DistConfig::default(),
            max_inflight: 16,
            batch_window_us: 1_000,
            arrival_us: None,
        }
    }
}

/// One entry of the coordinator's commit log: the `index`-th decision
/// node 0 reached, at ledger tick `tick`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CommitLogEntry {
    /// Position in the coordinator's total decision order.
    pub index: usize,
    /// Tick at which the coordinator recorded the decision.
    pub tick: u64,
    /// Global transaction id.
    pub txn: u64,
    /// `true` = commit.
    pub commit: bool,
}

/// Everything one pipelined run produced.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// Aggregate statistics. `wall_ms` is the settle time (submission
    /// of the first plan to quiescence), excluding thread teardown —
    /// the denominator of throughput measurements.
    pub stats: DistStats,
    /// Every oracle's verdict — the same eight oracles the serial
    /// runtime checks.
    pub oracles: Vec<OracleResult>,
    /// First decision per `(node, txn)`; `true` = commit.
    pub decisions: BTreeMap<(u64, u64), bool>,
    /// The coordinator's totally-ordered commit log.
    pub commit_log: Vec<CommitLogEntry>,
    /// The run's causal trace.
    pub trace: mcv_trace::CausalTrace,
    /// Plans actually handed to the coordinator (fewer than `n_txns`
    /// if the in-flight window jammed against a blocked protocol).
    pub submitted: u64,
    /// Commit records appended across all shard WALs.
    pub wal_commits: u64,
    /// Device forces paid across all shard WALs; batching shows as
    /// `wal_forces` well below `wal_commits`.
    pub wal_forces: u64,
}

impl PipelineOutcome {
    /// The first violated oracle, if any.
    pub fn violated(&self) -> Option<&OracleResult> {
        self.oracles.iter().find(|o| !o.pass)
    }

    /// Whether the named oracle failed.
    pub fn violates(&self, name: &str) -> bool {
        self.oracles.iter().any(|o| o.name == name && !o.pass)
    }
}

/// Runs one pipelined multi-shot execution to completion and evaluates
/// every oracle over it.
///
/// The assembly mirrors [`run_dist`](crate::run_dist) — node 0
/// coordinates, nodes `1..=n_shards` each own a live [`Engine`] —
/// with two differences: the network runs with the configured batching
/// window, and plans arrive through the submission pump rather than the
/// coordinator's start-time plan list.
pub fn run_pipeline(cfg: &PipelineConfig) -> PipelineOutcome {
    let _span = mcv_obs::Span::enter("dist.pipeline");
    let d = &cfg.dist;
    let n = d.n_nodes();
    let rec = mcv_trace::Recorder::unbounded();
    rec.reserve_lanes(n);
    let start = Instant::now();
    let ledger = Ledger::new(n);
    let engines: Vec<Engine> = mcv_trace::with_recorder(Arc::clone(&rec), || {
        (0..d.n_shards)
            .map(|_| {
                Engine::new(EngineConfig {
                    shards: 4,
                    force_latency_us: d.force_latency_us,
                    sample_every: 1,
                    ..Default::default()
                })
            })
            .collect()
    });

    let (net_tx, net_rx) = mpsc::channel::<NetMsg>();
    let mut node_txs: Vec<mpsc::Sender<NodeEvent>> = Vec::with_capacity(n);
    let mut node_rxs: Vec<mpsc::Receiver<NodeEvent>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = mpsc::channel::<NodeEvent>();
        node_txs.push(tx);
        node_rxs.push(rx);
    }

    let network = Network {
        rx: net_rx,
        nodes: node_txs.clone(),
        start,
        tick_us: d.tick_us,
        delay_ticks: d.delay_ticks,
        batch_window_us: cfg.batch_window_us,
        seed: d.seed,
        rec: Some(Arc::clone(&rec)),
        prof: mcv_prof::installed(),
    };
    let schedule = d.schedule.clone();
    let net_handle = std::thread::Builder::new()
        .name("dist-net".into())
        .spawn(move || network.run(&schedule))
        .expect("spawn network thread");

    let site_cfg = |node: usize| SiteConfig {
        protocol: Protocol::ThreePhase,
        coordinator: ProcId(0),
        timeout: d.timeout,
        crash_at: d.crash_at.and_then(|(who, p)| (who == node).then_some(p)),
        vote_no: d.vote_no == Some(node),
        // Pumped, not planned: the coordinator starts idle.
        plans: Vec::new(),
        naive_timeouts: d.naive_timeouts,
        quorum_termination: d.quorum_termination,
    };

    let mut handles = Vec::with_capacity(n);
    for (node, rx) in node_rxs.into_iter().enumerate() {
        let seat = NodeSeat {
            id: node,
            n,
            tick_us: d.tick_us,
            start,
            rx,
            net: net_tx.clone(),
            ledger: Arc::clone(&ledger),
        };
        let scfg = site_cfg(node);
        let rec = Arc::clone(&rec);
        let engine = (node > 0).then(|| engines[node - 1].clone());
        let h = std::thread::Builder::new()
            .name(format!("dist-node-{node}"))
            .spawn(move || {
                mcv_trace::with_recorder(rec, || match engine {
                    Some(e) => run_node(seat, Site::with_store(scfg, EngineStore::new(e))),
                    None => run_node(seat, Site::with_store(scfg, CoordStore)),
                })
            })
            .expect("spawn node thread");
        handles.push(h);
    }

    // Submission pump + stop monitor. Fault-free runs owe no horizon
    // wait — quiescence alone ends them; faulted runs still wait out
    // the schedule so late fault windows get their chance to bite.
    let plans = d.plans();
    let txns = d.global_txns();
    let fault_free = d.schedule.events.is_empty() && d.crash_at.is_none();
    let horizon = if fault_free { 0 } else { d.horizon.max(fault_horizon(&d.schedule)) };
    let deadline = Duration::from_millis(d.deadline_ms);
    let mut submitted = 0usize;
    let mut timed_out = false;
    let mut quiet = 0u32;
    let mut last_notes = usize::MAX;
    let settle_ms = loop {
        std::thread::sleep(Duration::from_millis(1));
        let elapsed = start.elapsed();
        let now_us = elapsed.as_micros() as u64;
        // Pump: respect the in-flight window and the arrival schedule.
        let mut awaiting_arrival = false;
        while submitted < plans.len() {
            if submitted.saturating_sub(ledger.decided_txn_count()) >= cfg.max_inflight {
                break;
            }
            if let Some(at) = cfg.arrival_us.as_ref().and_then(|a| a.get(submitted)) {
                if now_us < *at {
                    awaiting_arrival = true;
                    break;
                }
            }
            let _ = node_txs[0].send(NodeEvent::Submit(plans[submitted].clone()));
            submitted += 1;
        }
        let ticks = now_us / d.tick_us.max(1);
        let notes = ledger.notes_len();
        let all_out = submitted == plans.len();
        if !awaiting_arrival
            && ticks > horizon
            && notes == last_notes
            && ledger.settled(&txns[..submitted])
        {
            quiet += 1;
        } else {
            quiet = 0;
        }
        last_notes = notes;
        // Success: everything streamed and the system went quiet. A
        // long quiet spell with plans still jammed behind the window
        // means the protocol blocked — stop early, the deadline is
        // only the failsafe against live churn.
        if quiet >= 4 && all_out {
            break elapsed.as_millis() as u64;
        }
        if quiet >= 250 {
            timed_out = true;
            break elapsed.as_millis() as u64;
        }
        if elapsed >= deadline {
            timed_out = !all_out || !ledger.settled(&txns[..submitted]);
            break elapsed.as_millis() as u64;
        }
    };
    for tx in &node_txs {
        let _ = tx.send(NodeEvent::Shutdown);
    }
    let _ = net_tx.send(NetMsg::Shutdown);
    for h in handles {
        let _ = h.join();
    }
    let _ = net_handle.join();

    let led = ledger.snapshot();
    let trace = rec.snapshot();
    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut undecided = 0u64;
    for t in &txns {
        let all_committed = engines.iter().all(|e| e.committed_ids().contains(t));
        let any_decided = led.decided.iter().any(|((_, txn), _)| *txn == t.0);
        if all_committed {
            committed += 1;
        } else if any_decided {
            aborted += 1;
        } else {
            undecided += 1;
        }
    }
    let stats = DistStats {
        txns: txns.len() as u64,
        committed,
        aborted,
        undecided,
        wall_ms: settle_ms,
        timed_out,
    };
    mcv_obs::counter("dist.pipeline.committed", committed);
    mcv_obs::counter("dist.pipeline.aborted", aborted);
    let (wal_commits, wal_forces) = engines
        .iter()
        .map(|e| {
            let m = e.metrics_snapshot();
            (m.counter("engine.wal.commits"), m.counter("engine.wal.forces"))
        })
        .fold((0, 0), |(c, f), (dc, df)| (c + dc, f + df));
    let oracles = crate::oracle::evaluate(d, &stats, &led, &engines, &trace);
    let commit_log = led
        .decision_log
        .iter()
        .enumerate()
        .map(|(index, &(tick, txn, commit))| CommitLogEntry { index, tick, txn, commit })
        .collect();
    let decisions =
        led.decided.into_iter().map(|((node, txn), c)| ((node as u64, txn), c)).collect();
    PipelineOutcome {
        stats,
        oracles,
        decisions,
        commit_log,
        trace,
        submitted: submitted as u64,
        wal_commits,
        wal_forces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_fault_free_commits_everything() {
        let cfg = PipelineConfig {
            dist: DistConfig { n_shards: 2, n_txns: 8, seed: 7, ..DistConfig::default() },
            max_inflight: 4,
            batch_window_us: 600,
            arrival_us: None,
        };
        let out = run_pipeline(&cfg);
        assert!(out.violated().is_none(), "{:?}", out.violated());
        assert_eq!(out.stats.committed, 8);
        assert_eq!(out.submitted, 8);
        assert_eq!(out.commit_log.len(), 8, "coordinator logs one decision per txn");
        assert!(
            out.commit_log.windows(2).all(|w| w[0].index + 1 == w[1].index),
            "commit log indices are dense"
        );
    }

    #[test]
    fn pipeline_batches_wal_forces() {
        let cfg = PipelineConfig {
            dist: DistConfig {
                n_shards: 2,
                n_txns: 12,
                seed: 3,
                force_latency_us: 50,
                ..DistConfig::default()
            },
            max_inflight: 12,
            batch_window_us: 1_000,
            arrival_us: None,
        };
        let out = run_pipeline(&cfg);
        assert!(out.violated().is_none(), "{:?}", out.violated());
        assert_eq!(out.wal_commits, 24, "12 txns x 2 shards");
        assert!(
            out.wal_forces < out.wal_commits,
            "batched forces ({}) must undercut commits ({})",
            out.wal_forces,
            out.wal_commits
        );
    }

    #[test]
    fn pipeline_vote_no_aborts_everywhere() {
        let cfg = PipelineConfig {
            dist: DistConfig {
                n_shards: 2,
                n_txns: 4,
                seed: 11,
                vote_no: Some(1),
                ..DistConfig::default()
            },
            max_inflight: 4,
            batch_window_us: 600,
            arrival_us: None,
        };
        let out = run_pipeline(&cfg);
        assert!(out.violated().is_none(), "{:?}", out.violated());
        assert_eq!(out.stats.committed, 0);
        assert_eq!(out.stats.aborted, 4);
    }
}
