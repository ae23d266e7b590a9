//! `dist-3pc`: an open loop of fault-free cross-shard 3PC transactions
//! through one `run_pipeline` call.
//!
//! Arrivals follow a seeded Poisson schedule at 500 txn/s over the
//! run's window; each transaction writes 2 items on each of 3 shards.
//! The coordinator pump, ledger, transport fabric and the `mcv-commit`
//! FSM carry the work; the engines are reached only through the staged
//! commit path, one WAL force per delivery batch.

use crate::report::Leg;
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats;
use mcv_dist::{run_pipeline, DistConfig, PipelineConfig, GLOBAL_TXN_BASE};
use mcv_prof::{AttributionTable, ProfSamples};
use mcv_trace::{CausalTrace, EventKind};
use std::collections::BTreeMap;
use std::time::Instant;

const RATE_PER_S: f64 = 500.0;
const SHARDS: usize = 3;
const WRITES_PER_SHARD: usize = 2;
const MAX_INFLIGHT: usize = 32;
const BATCH_WINDOW_US: u64 = 100;
/// 10 µs ticks with 1..=3-tick hops: 10–30 µs per hop.
const TICK_US: u64 = 10;
const DELAY_TICKS: u64 = 3;
/// 800 ticks × 10 µs keeps the default 8 ms protocol timeout.
const TIMEOUT_TICKS: u64 = 800;
/// Decisions later than this after arrival do not count as goodput.
const GOODPUT_BUDGET_US: f64 = 500_000.0;
/// The runtime's hard stop, past the last arrival; only reached if the
/// protocol wedges.
const DEADLINE_SLACK_MS: u64 = 60_000;
/// Arrival-schedule generations timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Oracles whose failure invalidates the run. `ac2_validity` (an abort
/// although every participant voted yes) is a failed transaction, not
/// an invalid run: it is counted in the failure ratio instead.
const SAFETY_ORACLES: [&str; 7] = [
    "atomicity",
    "ac1_agreement",
    "ac3_stability",
    "serializability",
    "recovery",
    "causal_order",
    "termination",
];

/// Commits whose critical paths are attributed. `attribute_commits`
/// rebuilds an event index per commit, so over the whole trace its cost
/// grows with commits × events (16 s for 1.5k transactions, over three
/// minutes for a 10 s run, on a 2-vCPU Xeon host); the same analysis
/// runs on the first 500 commits instead.
const PATH_COMMITS: usize = 500;

/// Critical-path attribution (`mcv_prof::attribute_commits`, restricted
/// to the first `commits` committed transactions): each path is taken
/// over the shortest recording-order prefix of the trace that holds all
/// of those transactions' Commit events, which keeps every cause of
/// every event on their paths.
fn attribute_first(trace: &CausalTrace, commits: usize) -> (AttributionTable, usize) {
    let mut last: BTreeMap<u64, usize> = BTreeMap::new();
    let mut order = Vec::new();
    for (i, e) in trace.events.iter().enumerate() {
        if let EventKind::Commit { txn } = e.kind {
            if last.insert(txn, i).is_none() {
                order.push(txn);
            }
        }
    }
    order.truncate(commits);
    let end = order.iter().map(|t| last[t] + 1).max().unwrap_or(0);
    let prefix = CausalTrace { events: trace.events[..end].to_vec(), dropped: trace.dropped };
    let timelines = order
        .iter()
        .filter_map(|&t| mcv_prof::commit_path(&prefix, t))
        .map(|p| p.timeline())
        .collect();
    (AttributionTable::from_samples(&ProfSamples { timelines, dropped: 0 }), end)
}

/// Poisson arrival offsets (µs) over `seconds`.
fn arrivals(seed: u64, seconds: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let end_us = seconds as f64 * 1e6;
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -rng.unit().ln() * 1e6 / RATE_PER_S;
        if t >= end_us {
            return out;
        }
        out.push(t as u64);
    }
}

fn config(seed: u64, seconds: u64, arrival_us: Vec<u64>) -> PipelineConfig {
    PipelineConfig {
        dist: DistConfig {
            n_shards: SHARDS,
            n_txns: arrival_us.len(),
            writes_per_shard: WRITES_PER_SHARD,
            seed,
            timeout: TIMEOUT_TICKS,
            tick_us: TICK_US,
            delay_ticks: DELAY_TICKS,
            force_latency_us: 0,
            deadline_ms: seconds * 1_000 + DEADLINE_SLACK_MS,
            ..DistConfig::default()
        },
        max_inflight: MAX_INFLIGHT,
        batch_window_us: BATCH_WINDOW_US,
        arrival_us: Some(arrival_us),
    }
}

/// One leg: one `run_pipeline` call over the seeded schedule, then the
/// checks.
pub fn run(seed: u64, seconds: u64, spans: Option<&mut Spans>) -> Leg {
    let mut leg = Leg::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut cfg = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let c = config(seed, seconds, arrivals(seed, seconds));
        setups.push(t0.elapsed().as_secs_f64());
        cfg = Some(c);
    }
    let cfg = cfg.expect("at least one set-up");
    let setup_s = stats::median(&setups).expect("set-up samples");
    leg.put_note(
        "setup_s",
        setup_s,
        "s",
        format!("median of {SETUP_REPS} arrival-schedule builds"),
    );
    let arrival_us = cfg.arrival_us.clone().expect("open loop");
    let n = arrival_us.len() as u64;

    let call0 = Instant::now();
    let out = run_pipeline(&cfg);
    let call_s = call0.elapsed().as_secs_f64();
    let settle_s = out.stats.wall_ms as f64 / 1e3;
    let check_s = call_s - settle_s;

    // Latency: scheduled arrival to the coordinator's commit-log tick.
    let mut lat = Vec::with_capacity(out.commit_log.len());
    let mut by_arrival = Vec::with_capacity(out.commit_log.len());
    for e in out.commit_log.iter().filter(|e| e.commit) {
        let i = (e.txn - GLOBAL_TXN_BASE) as usize;
        let us = (e.tick * TICK_US) as f64 - arrival_us[i] as f64;
        lat.push(us);
        by_arrival.push((i, us));
    }
    let good = lat.iter().filter(|&&us| us <= GOODPUT_BUDGET_US).count();
    leg.attempted = n;
    leg.failed = out.stats.aborted + out.stats.undecided;
    leg.put_note(
        "bench.tput_tps",
        good as f64 / settle_s,
        "1/s",
        format!("{good} commits within 500 ms over {settle_s:.3} s settle"),
    );
    leg.put_latency("p50_us", "bench.p99_us", &lat);
    leg.put_note(
        "check_s",
        check_s,
        "s",
        format!("run_pipeline {call_s:.3} s - settle {settle_s:.3} s"),
    );
    leg.put("bench.samples", lat.len() as f64, "count");
    leg.put("bench.fail_ratio", stats::fail_ratio(leg.failed, leg.attempted), "ratio");
    leg.put("dist.settle_s", settle_s, "s");
    leg.put("dist.check_s", check_s, "s");
    // In a fault-free all-yes run every abort is an `ac2_validity` miss.
    leg.put_note(
        "dist.aborted",
        out.stats.aborted as f64,
        "count",
        "ac2_validity misses".to_owned(),
    );
    leg.put("dist.undecided", out.stats.undecided as f64, "count");
    leg.put(
        "dist.forces_per_commit",
        out.wal_forces as f64 / out.wal_commits.max(1) as f64,
        "ratio",
    );

    for name in SAFETY_ORACLES {
        let (pass, detail) = match out.oracles.iter().find(|o| o.name == name) {
            Some(o) => (o.pass, o.detail.clone()),
            None => (false, "oracle not evaluated".to_owned()),
        };
        leg.check(name, pass, detail);
    }
    leg.check(
        "every arrival was submitted",
        out.submitted == n,
        format!("{} of {n} submitted", out.submitted),
    );

    if let Some(spans) = spans {
        let root = spans.push(
            0,
            None,
            "dist.run_pipeline",
            spans.ns(call0),
            spans.ns(call0) + (call_s * 1e9) as u64,
        );
        spans.push(
            0,
            Some(root),
            "dist.settle",
            spans.ns(call0),
            spans.ns(call0) + out.stats.wall_ms * 1_000_000,
        );
        let t0 = Instant::now();
        let (sends, fires) = out.trace.events.iter().fold((0u64, 0u64), |(s, f), e| match e.kind {
            EventKind::Send { .. } => (s + 1, f),
            EventKind::TimerFire { .. } => (s, f + 1),
            _ => (s, f),
        });
        let committed = out.stats.committed.max(1) as f64;
        leg.put_note(
            "dist.msgs_per_commit",
            sends as f64 / committed,
            "ratio",
            format!("{sends} sends"),
        );
        leg.put_note(
            "dist.timer_fires_per_txn",
            fires as f64 / n.max(1) as f64,
            "ratio",
            format!("{fires} fires"),
        );
        leg.put("dist.trace_events_per_txn", out.trace.len() as f64 / n.max(1) as f64, "ratio");
        spans.close(0, None, "bench.trace_counts", t0);

        by_arrival.sort_unstable_by_key(|&(i, _)| i);
        let decile = (by_arrival.len() / 10).max(1);
        let p50 = |s: &[(usize, f64)]| stats::median(&s.iter().map(|p| p.1).collect::<Vec<_>>());
        if let (Some(first), Some(last)) = (
            p50(&by_arrival[..decile.min(by_arrival.len())]),
            p50(&by_arrival[by_arrival.len().saturating_sub(decile)..]),
        ) {
            leg.put_note(
                "dist.latency_drift",
                last / first,
                "ratio",
                format!("last-decile p50 {last:.1} us / first-decile p50 {first:.1} us"),
            );
        }

        let t0 = Instant::now();
        let (table, events) = attribute_first(&out.trace, PATH_COMMITS);
        spans.close(0, None, "prof.commit_paths", t0);
        let frac =
            |phase: &str| table.rows.iter().find(|r| r.phase == phase).map_or(0.0, |r| r.frac_mean);
        let note = format!(
            "first {} commit paths, over {events} of {} trace events",
            table.anchored_txns,
            out.trace.len()
        );
        leg.put_note("dist.path.transport_rtt_frac", frac("transport_rtt"), "ratio", note.clone());
        leg.put_note("dist.path.wal_force_frac", frac("wal_force"), "ratio", note.clone());
        leg.put_note("dist.path.commit_ack_frac", frac("commit_ack"), "ratio", note.clone());
        leg.put_note("dist.path.unattributed_frac", table.unattributed_frac, "ratio", note);
    }
    leg
}
