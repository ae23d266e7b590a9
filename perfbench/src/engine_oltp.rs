//! `engine-oltp`: a closed loop from the main thread through `Pool`
//! into one 2PL `Engine` with group commit and no device sleep.
//!
//! Half the transactions read 8 items; half do 8 operations of which
//! exactly 4 write. Keys are uniform over 100k items, far more than
//! clients, so lock conflicts are rare and the pool hand-off, lock
//! table and group-commit WAL carry the work.

use crate::report::Leg;
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats;
use mcv_engine::{Engine, EngineConfig, EngineError, Pool};
use mcv_txn::{History, TxnId, Wal};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const ITEMS: u64 = 100_000;
const WORKERS: usize = 2;
const QUEUE_CAP: usize = 4;
const OPS: usize = 8;
/// Deadlock victims retry with a fresh transaction; after this many
/// attempts the client gives up and the transaction counts as failed.
const MAX_ATTEMPTS: u32 = 32;
/// Engine + pool constructions timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 51;
/// Passes of the program's oracles timed per run; `check_s` is their
/// median.
const CHECK_REPS: usize = 5;
/// Requests whose spans are written out (the per-layer samples cover
/// every request).
const SPAN_REQS: u64 = 1_000;

#[derive(Clone, Copy)]
struct Spec {
    keys: [u32; OPS],
    /// Bit `i` set: operation `i` writes `values[i]`; 0 for a read-only
    /// transaction.
    writes: u8,
    values: [i64; OPS],
}

impl Spec {
    fn generate(rng: &mut Rng) -> Spec {
        let rw = rng.below(2) == 1;
        let mut keys = [0u32; OPS];
        let mut values = [0i64; OPS];
        for i in 0..OPS {
            keys[i] = rng.below(ITEMS) as u32;
            values[i] = rng.below(1_000_000) as i64;
        }
        let mut writes = 0u8;
        while rw && writes.count_ones() < (OPS / 2) as u32 {
            writes |= 1 << rng.below(OPS as u64);
        }
        Spec { keys, writes, values }
    }
}

/// `(start_ns, end_ns)` from the leg epoch, per timed call of the
/// final attempt.
#[derive(Default)]
struct Timing {
    job_start: u64,
    begin: (u64, u64),
    ops: [(u64, u64); OPS],
    commit: (u64, u64),
}

struct Rec {
    req: u64,
    writes: u8,
    /// `Pool::submit` call to commit return.
    latency_ns: u64,
    acked: Option<TxnId>,
    attempts: u32,
    timing: Option<Box<Timing>>,
}

/// Runs one transaction to commit; returns its id.
fn attempt(
    engine: &Engine,
    items: &[String],
    spec: &Spec,
    epoch: Instant,
    mut timing: Option<&mut Timing>,
) -> Result<TxnId, EngineError> {
    let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let t0 = timing.is_some().then(Instant::now);
    let mut t = engine.begin();
    if let (Some(tm), Some(t0)) = (timing.as_deref_mut(), t0) {
        tm.begin = (ns(t0), ns(Instant::now()));
    }
    for i in 0..OPS {
        let item = &items[spec.keys[i] as usize];
        let t0 = timing.is_some().then(Instant::now);
        let r = if spec.writes & (1 << i) != 0 {
            t.write(item, spec.values[i])
        } else {
            t.read(item).map(|v| {
                black_box(v);
            })
        };
        if let Err(e) = r {
            t.abort();
            return Err(e);
        }
        if let (Some(tm), Some(t0)) = (timing.as_deref_mut(), t0) {
            tm.ops[i] = (ns(t0), ns(Instant::now()));
        }
    }
    let id = t.id();
    let t0 = timing.is_some().then(Instant::now);
    t.commit()?;
    if let (Some(tm), Some(t0)) = (timing, t0) {
        tm.commit = (ns(t0), ns(Instant::now()));
    }
    Ok(id)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// One leg: set-up, `seconds` of closed-loop serving, then the checks.
pub fn run(seed: u64, seconds: u64, spans: Option<&mut Spans>) -> Leg {
    let traced = spans.is_some();
    let mut leg = Leg::default();
    let items: Arc<Vec<String>> = Arc::new((0..ITEMS).map(|i| format!("item{i:06}")).collect());

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let fresh = (Engine::new(EngineConfig::default()), Pool::new(WORKERS, QUEUE_CAP));
        setups.push(t0.elapsed().as_secs_f64());
        if let Some((_, pool)) = built.replace(fresh) {
            pool.join();
        }
    }
    let (engine, pool) = built.expect("at least one set-up");
    let setup_s = stats::median(&setups).expect("set-up samples");
    leg.put_note(
        "setup_s",
        setup_s,
        "s",
        format!("median of {SETUP_REPS} Engine::new + Pool::new"),
    );

    let recs: Arc<Mutex<Vec<Rec>>> = Arc::new(Mutex::new(Vec::new()));
    let mut submits: Vec<(u64, u64)> = Vec::new();
    let mut rng = Rng::new(seed);
    let epoch = Instant::now();
    let window = Duration::from_secs(seconds);
    let mut req = 0u64;
    while epoch.elapsed() < window {
        let spec = Spec::generate(&mut rng);
        let (engine, items, recs) = (engine.clone(), Arc::clone(&items), Arc::clone(&recs));
        let submitted = Instant::now();
        pool.submit(move || {
            let job_start = Instant::now();
            let mut timing = traced.then(|| {
                Box::new(Timing {
                    job_start: job_start.saturating_duration_since(epoch).as_nanos() as u64,
                    ..Timing::default()
                })
            });
            let mut acked = None;
            let mut attempts = 0;
            while acked.is_none() && attempts < MAX_ATTEMPTS {
                attempts += 1;
                match attempt(&engine, &items, &spec, epoch, timing.as_deref_mut()) {
                    Ok(id) => acked = Some(id),
                    Err(EngineError::Deadlock { .. }) => {}
                    Err(e) => panic!("2PL transaction failed with a non-retryable error: {e}"),
                }
            }
            let latency_ns = submitted.elapsed().as_nanos() as u64;
            let rec = Rec { req, writes: spec.writes, latency_ns, acked, attempts, timing };
            recs.lock().expect("record mutex poisoned by a panicking worker").push(rec);
        });
        if traced {
            let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
            submits.push((ns(submitted), ns(Instant::now())));
        }
        req += 1;
    }
    pool.join();
    let serve_s = epoch.elapsed().as_secs_f64();
    let recs = std::mem::take(&mut *recs.lock().expect("record mutex"));

    let committed = recs.iter().filter(|r| r.acked.is_some()).count() as u64;
    leg.attempted = recs.len() as u64;
    leg.failed = leg.attempted - committed;
    leg.check(
        "every submitted transaction finished",
        leg.attempted == req,
        format!("{} of {req} records", leg.attempted),
    );
    leg.put_note(
        "bench.tput_tps",
        committed as f64 / serve_s,
        "1/s",
        format!("{committed} commits in {serve_s:.3} s"),
    );
    let lat = |rw: bool| -> Vec<f64> {
        recs.iter()
            .filter(|r| (r.writes != 0) == rw && r.acked.is_some())
            .map(|r| us(r.latency_ns))
            .collect()
    };
    let rw_lat = lat(true);
    leg.put_latency("p50_us", "bench.p99_us", &rw_lat);
    leg.put_latency("bench.ro_p50_us", "bench.ro_p99_us", &lat(false));
    leg.put("bench.samples", rw_lat.len() as f64, "count");
    leg.put("bench.fail_ratio", stats::fail_ratio(leg.failed, leg.attempted), "ratio");
    let attempts: u64 = recs.iter().map(|r| u64::from(r.attempts)).sum();
    leg.put(
        "engine.retry_ratio",
        (attempts - leg.attempted) as f64 / attempts.max(1) as f64,
        "ratio",
    );

    // Restart: what a crash now would leave, replayed.
    let t0 = Instant::now();
    let image = engine.durable_image();
    let wal = Wal::from_bytes_lossy(&image);
    let recovered = wal.recover();
    leg.put("bench.recover_s", t0.elapsed().as_secs_f64(), "s");
    let durable: BTreeSet<TxnId> = wal.committed();
    let missing = recs.iter().filter_map(|r| r.acked).filter(|id| !durable.contains(id)).count();
    leg.check(
        "every acknowledged transaction has a durable commit record",
        missing == 0,
        format!("{missing} of {committed} acknowledged ids missing from durable_image()"),
    );

    // The program's oracles: conflict-serializability of the sampled
    // history, and recovered state == quiesced state. Each is timed over
    // several repetitions on the quiesced engine and reported as the
    // median: one pass takes about a second, short enough for the
    // host's drifting speed to swing it.
    let (mut ser, mut cmp) = (Vec::new(), Vec::new());
    let (mut serializable, mut diverged, mut history) = (true, 0, History::new());
    for _ in 0..CHECK_REPS {
        let t0 = Instant::now();
        history = engine.sampled_history();
        serializable &= history.is_conflict_serializable();
        ser.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let volatile = engine.state();
        let keys: BTreeSet<&String> = recovered.keys().chain(volatile.keys()).collect();
        diverged = keys
            .into_iter()
            .filter(|k| {
                recovered.get(*k).copied().unwrap_or(0) != volatile.get(*k).copied().unwrap_or(0)
            })
            .count();
        cmp.push(t1.elapsed().as_secs_f64());
    }
    let total: Vec<f64> = ser.iter().zip(&cmp).map(|(s, c)| s + c).collect();
    leg.put_note(
        "check_s",
        stats::median(&total).expect("check samples"),
        "s",
        format!("median of {CHECK_REPS} serializability + state comparison passes"),
    );
    leg.put("txn.serializable_check_s", stats::median(&ser).expect("check samples"), "s");
    leg.put("txn.sampled_ops", history.len() as f64, "count");
    leg.check(
        "sampled history is conflict-serializable",
        serializable,
        format!("{} ops over {} txns", history.len(), history.transactions().len()),
    );
    leg.check(
        "recovered state equals quiesced state",
        diverged == 0,
        format!("{diverged} items differ"),
    );

    let m = engine.metrics_snapshot();
    let (commits, forces) = (m.counter("engine.wal.commits"), m.counter("engine.wal.forces"));
    leg.put("engine.wal.forces_per_commit", forces as f64 / commits.max(1) as f64, "ratio");
    leg.put_note(
        "engine.wal.bytes_per_commit",
        image.len() as f64 / commits.max(1) as f64,
        "B",
        format!("{} B over {commits} commit records", image.len()),
    );

    if let Some(spans) = spans {
        layer_metrics(&mut leg, &recs, &submits);
        for r in recs.iter().filter(|r| r.req < SPAN_REQS) {
            let Some(tm) = &r.timing else { continue };
            let (s, e) = submits[r.req as usize];
            let root = spans.push(r.req, None, "pool.submit", s, e);
            let job = spans.push(r.req, Some(root), "pool.job", tm.job_start, tm.commit.1);
            spans.push(r.req, Some(root), "pool.queue_wait", e, tm.job_start.max(e));
            spans.push(r.req, Some(job), "engine.begin", tm.begin.0, tm.begin.1);
            for (i, op) in tm.ops.iter().enumerate() {
                let name = if r.writes & (1 << i) != 0 { "engine.write" } else { "engine.read" };
                spans.push(r.req, Some(job), name, op.0, op.1);
            }
            spans.push(r.req, Some(job), "engine.commit", tm.commit.0, tm.commit.1);
        }
    }
    leg
}

/// Per-call latencies from the traced leg.
fn layer_metrics(leg: &mut Leg, recs: &[Rec], submits: &[(u64, u64)]) {
    let mut submit = Vec::with_capacity(submits.len());
    let mut queue = Vec::with_capacity(recs.len());
    let (mut begin, mut read, mut write, mut commit_ro, mut commit_rw) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &(s, e) in submits {
        submit.push(us(e - s));
    }
    for r in recs {
        let Some(tm) = &r.timing else { continue };
        queue.push(us(tm.job_start.saturating_sub(submits[r.req as usize].1)));
        if r.acked.is_none() {
            continue;
        }
        begin.push(us(tm.begin.1 - tm.begin.0));
        for (i, op) in tm.ops.iter().enumerate() {
            let d = us(op.1 - op.0);
            if r.writes & (1 << i) != 0 {
                write.push(d);
            } else {
                read.push(d);
            }
        }
        let c = us(tm.commit.1 - tm.commit.0);
        if r.writes != 0 {
            commit_rw.push(c);
        } else {
            commit_ro.push(c);
        }
    }
    leg.put_latency("pool.submit_p50_us", "pool.submit_p99_us", &submit);
    leg.put_latency("pool.queue_wait_p50_us", "pool.queue_wait_p99_us", &queue);
    leg.put_latency("engine.begin_p50_us", "engine.begin_p99_us", &begin);
    leg.put_latency("engine.read_p50_us", "engine.read_p99_us", &read);
    leg.put_latency("engine.write_p50_us", "engine.write_p99_us", &write);
    leg.put_latency("engine.commit_ro_p50_us", "engine.commit_ro_p99_us", &commit_ro);
    leg.put_latency("engine.commit_rw_p50_us", "engine.commit_rw_p99_us", &commit_rw);
}
