//! Stress the concurrent transaction engine and judge the run with the
//! thesis' own oracles.
//!
//! ```text
//! cargo run --release --example engine_stress                # defaults
//! cargo run --release --example engine_stress -- \
//!     --threads 8 --shards 32 --txns 5000 --workload zipf    # tuned run
//! cargo run --release --example engine_stress -- --smoke     # CI gate
//! cargo run --release --example engine_stress -- \
//!     --mvcc-smoke                                           # isolation matrix gate
//! cargo run --release --example engine_stress -- \
//!     --anomalies 300 --seed-base 0                          # anomaly campaign
//! ```
//!
//! Flags: `--threads N` (workers), `--shards N`, `--txns N`,
//! `--items N`, `--force-us N` (modeled log-device latency),
//! `--workload uniform|zipf|readheavy|bank|writeskew`,
//! `--isolation 2pl|rc|si|ssi`, `--zipf THETA` (skew of the zipfian
//! workloads), `--seed N`, `--seed-base N`
//! (campaign seed origin, defaults to `--seed`).
//!
//! `--smoke` is the `./ci` gate: a short fixed-seed 4-thread run of
//! each workload; exits non-zero unless every oracle passes
//! (conflict-serializability of the sampled history, recovery
//! equivalence of the durable log, bank-sum invariant) and group
//! commit demonstrably batches (`forces < commits`).
//!
//! `--mvcc-smoke` runs the isolation matrix: one read-heavy run per
//! level, asserting recovery equivalence everywhere and — for the MVCC
//! levels — that reads were served from version chains with **zero**
//! shared-lock acquisitions (`engine.mvcc.snapshot_reads > 0`,
//! `engine.locks.read_acquisitions == 0`).
//!
//! `--anomalies N` is the anomaly-hunting campaign: N seeded
//! write-skew runs under SnapshotIsolation, SSI, and 2PL (plus a
//! read-committed long-fork leg), each trace fed to the `mcv-chaos`
//! write-skew and long-fork detectors. The campaign passes when SI
//! produces at least one write-skew counterexample (shrunk and written
//! to `target/chaos/` as JSON) and SSI/2PL produce none.

use mcv::engine::{
    run_driver, DriverConfig, DriverReport, EngineConfig, IsolationLevel, Mix, WorkloadKind,
};
use std::process::ExitCode;
use std::sync::Arc;

/// Writes the flight-recorder window to `target/chaos/<id>.trace.jsonl`
/// and prints where the happens-before audit localizes the problem.
fn dump_flight(rec: &Arc<mcv::trace::Recorder>, id: &str) {
    let trace = rec.snapshot();
    let _ = std::fs::create_dir_all("target/chaos");
    let path = std::path::Path::new("target/chaos").join(format!("{id}.trace.jsonl"));
    match trace.write_jsonl(&path) {
        Ok(()) => eprintln!("flight recorder: {} ({} events)", path.display(), trace.len()),
        Err(e) => eprintln!("could not write flight-recorder dump: {e}"),
    }
    let hb = mcv::trace::check(&trace);
    if !hb.ok() {
        eprint!("{}", hb.summary());
    }
}

#[derive(Clone)]
struct Args {
    threads: usize,
    shards: usize,
    txns: u64,
    items: usize,
    force_us: u64,
    workload: &'static str,
    isolation: IsolationLevel,
    zipf_theta: f64,
    seed: u64,
    seed_base: Option<u64>,
    smoke: bool,
    mvcc_smoke: bool,
    anomalies: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            threads: 4,
            shards: 16,
            txns: 2_000,
            items: 2_048,
            force_us: 300,
            workload: "uniform",
            isolation: IsolationLevel::Serializable2pl,
            zipf_theta: 0.9,
            seed: 42,
            seed_base: None,
            smoke: false,
            mvcc_smoke: false,
            anomalies: None,
        }
    }
}

impl Args {
    fn workload_kind(&self) -> WorkloadKind {
        match self.workload {
            "uniform" => {
                WorkloadKind::ReadWrite { mix: Mix::Uniform, write_pct: 50, ops_per_txn: 8 }
            }
            "zipf" => WorkloadKind::ReadWrite {
                mix: Mix::Zipfian { theta: self.zipf_theta },
                write_pct: 50,
                ops_per_txn: 8,
            },
            "readheavy" => WorkloadKind::ReadWrite {
                mix: Mix::Zipfian { theta: self.zipf_theta },
                write_pct: 10,
                ops_per_txn: 8,
            },
            "bank" => WorkloadKind::BankTransfer,
            "writeskew" => WorkloadKind::WriteSkew { pairs: (self.items / 2).max(1) },
            other => unreachable!("workload {other} rejected at parse time"),
        }
    }

    /// Campaign seed origin: `--seed-base` when given, else `--seed` —
    /// so `./ci flake` can shift whole campaigns to disjoint bases.
    fn base(&self) -> u64 {
        self.seed_base.unwrap_or(self.seed)
    }
}

fn parse() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    let next_num = |it: &mut dyn Iterator<Item = String>, flag: &str| -> Result<u64, String> {
        it.next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => args.threads = next_num(&mut it, "--threads")? as usize,
            "--shards" => args.shards = next_num(&mut it, "--shards")? as usize,
            "--txns" => args.txns = next_num(&mut it, "--txns")?,
            "--items" => args.items = next_num(&mut it, "--items")? as usize,
            "--force-us" => args.force_us = next_num(&mut it, "--force-us")?,
            "--seed" => args.seed = next_num(&mut it, "--seed")?,
            "--seed-base" => args.seed_base = Some(next_num(&mut it, "--seed-base")?),
            "--anomalies" => args.anomalies = Some(next_num(&mut it, "--anomalies")?),
            "--smoke" => args.smoke = true,
            "--mvcc-smoke" => args.mvcc_smoke = true,
            "--isolation" => {
                let v = it.next().ok_or("--isolation needs 2pl|rc|si|ssi")?;
                args.isolation = v.parse()?;
            }
            "--zipf" => {
                let v = it.next().ok_or("--zipf needs a theta in [0, 1)")?;
                args.zipf_theta = v.parse::<f64>().map_err(|e| format!("--zipf: {e}"))?;
                if !(0.0..1.0).contains(&args.zipf_theta) {
                    return Err(format!("--zipf: theta {v} not in [0, 1)"));
                }
            }
            "--workload" => {
                let w =
                    it.next().ok_or("--workload needs uniform|zipf|readheavy|bank|writeskew")?;
                args.workload = match w.as_str() {
                    "uniform" => "uniform",
                    "zipf" => "zipf",
                    "readheavy" => "readheavy",
                    "bank" => "bank",
                    "writeskew" => "writeskew",
                    other => return Err(format!("unknown workload {other:?}")),
                };
            }
            "--help" | "-h" => {
                return Err("usage: engine_stress [--threads N] [--shards N] [--txns N] \
                            [--items N] [--force-us N] \
                            [--workload uniform|zipf|readheavy|bank|writeskew] \
                            [--isolation 2pl|rc|si|ssi] [--zipf THETA] \
                            [--seed N] [--seed-base N] [--smoke] [--mvcc-smoke] [--anomalies N]"
                    .to_owned())
            }
            other => return Err(format!("unknown flag {other:?}; try --help")),
        }
    }
    Ok(args)
}

fn config(args: &Args) -> DriverConfig {
    DriverConfig {
        engine: EngineConfig {
            shards: args.shards,
            force_latency_us: args.force_us,
            group_window_us: 50,
            isolation: args.isolation,
            ..Default::default()
        },
        clients: args.threads,
        txns: args.txns,
        items: args.items,
        workload: args.workload_kind(),
        seed: args.seed,
    }
}

fn run_once(args: &Args) -> ExitCode {
    let cfg = config(args);
    println!(
        "engine_stress: {} threads, {} shards, {} txns, {} items, {} us force, \
         isolation {}",
        args.threads, args.shards, args.txns, args.items, args.force_us, args.isolation,
    );
    // Flight recorder: the run records causal events into a bounded
    // ring; on oracle failure the last-N window is dumped for triage.
    let rec = mcv::trace::Recorder::ring(mcv::chaos::FLIGHT_RECORDER_CAP);
    let flight = Arc::clone(&rec);
    let (report, data) = mcv::trace::with_recorder(rec, || {
        mcv::obs::collect(|| {
            let report = run_driver(&cfg);
            mcv::obs::absorb(&report.metrics);
            report
        })
    });
    println!("\n{}\n", report.summary());
    if args.isolation.is_mvcc() {
        for (name, v) in report.metrics.family("engine.mvcc.") {
            println!("{name:<32} {v}");
        }
        println!(
            "{:<32} {}",
            "engine.locks.read_acquisitions",
            report.metrics.counter("engine.locks.read_acquisitions")
        );
    }
    let obs_report = data.into_report("engine_stress").fact("seed", args.seed);
    println!("{}", obs_report.summary());
    if report.oracles_ok() {
        ExitCode::SUCCESS
    } else {
        eprintln!("ORACLE VIOLATION — see report above");
        dump_flight(&flight, "engine_stress");
        ExitCode::FAILURE
    }
}

fn smoke(seed: u64) -> ExitCode {
    // Short fixed-seed runs of each workload shape on 4 threads; all
    // oracles must pass and group commit must actually batch. The
    // flake detector overrides `--seed` to vary the workloads between
    // rounds; each shape offsets it so no two shapes share a seed.
    let shapes: &[(&str, WorkloadKind)] = &[
        ("uniform", WorkloadKind::ReadWrite { mix: Mix::Uniform, write_pct: 50, ops_per_txn: 8 }),
        (
            "zipf",
            WorkloadKind::ReadWrite {
                mix: Mix::Zipfian { theta: 0.9 },
                write_pct: 50,
                ops_per_txn: 8,
            },
        ),
        ("bank", WorkloadKind::BankTransfer),
    ];
    for (i, (name, workload)) in shapes.iter().enumerate() {
        let args = Args {
            txns: 400,
            items: if matches!(workload, WorkloadKind::BankTransfer) { 32 } else { 512 },
            force_us: 200,
            seed: seed + i as u64,
            ..Args::default()
        };
        let mut cfg = config(&args);
        cfg.workload = *workload;
        let rec = mcv::trace::Recorder::ring(mcv::chaos::FLIGHT_RECORDER_CAP);
        let flight = Arc::clone(&rec);
        let report = mcv::trace::with_recorder(rec, || run_driver(&cfg));
        let batched = report.forces < report.commits;
        println!(
            "smoke {name:<8} committed={} serializable={} recovery={} bank={:?} \
             forces/commits={}/{}",
            report.committed,
            report.serializable,
            report.recovered_matches,
            report.bank_invariant_ok,
            report.forces,
            report.commits,
        );
        if !report.oracles_ok() {
            eprintln!("smoke {name}: ORACLE VIOLATION");
            dump_flight(&flight, &format!("engine_smoke_{name}"));
            return ExitCode::FAILURE;
        }
        if !batched {
            eprintln!("smoke {name}: group commit did not batch");
            return ExitCode::FAILURE;
        }
    }
    println!("engine smoke: all oracles green");
    ExitCode::SUCCESS
}

/// The isolation-matrix gate: a read-heavy run per level. Every level
/// must commit everything and replay from the WAL; MVCC levels must
/// serve all reads from version chains (zero shared-lock traffic).
fn mvcc_smoke(base: u64) -> ExitCode {
    let levels = [
        IsolationLevel::Serializable2pl,
        IsolationLevel::ReadCommitted,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::SerializableSsi,
    ];
    for (i, isolation) in levels.into_iter().enumerate() {
        let args = Args {
            txns: 400,
            items: 512,
            force_us: 200,
            workload: "readheavy",
            isolation,
            seed: base + i as u64,
            ..Args::default()
        };
        let report = run_driver(&config(&args));
        let reads = report.metrics.counter("engine.mvcc.snapshot_reads");
        let read_locks = report.metrics.counter("engine.locks.read_acquisitions");
        println!(
            "mvcc smoke {:<4} committed={} recovery={} snapshot_reads={} read_locks={} \
             cert_aborts={}",
            isolation.name(),
            report.committed,
            report.recovered_matches,
            reads,
            read_locks,
            report.metrics.counter("engine.mvcc.cert_aborts"),
        );
        if report.committed != args.txns || !report.recovered_matches {
            eprintln!("mvcc smoke {isolation}: driver oracles failed");
            return ExitCode::FAILURE;
        }
        if isolation.is_mvcc() {
            if reads == 0 {
                eprintln!("mvcc smoke {isolation}: no reads served from version chains");
                return ExitCode::FAILURE;
            }
            if read_locks != 0 {
                eprintln!("mvcc smoke {isolation}: snapshot reads acquired {read_locks} locks");
                return ExitCode::FAILURE;
            }
        } else if !report.serializable {
            eprintln!("mvcc smoke {isolation}: 2PL history not serializable");
            return ExitCode::FAILURE;
        }
    }
    println!("mvcc smoke: isolation matrix green (zero read locks on every MVCC level)");
    ExitCode::SUCCESS
}

/// One traced anomaly-campaign run: tiny write-skew workload, detector
/// verdict over the causal trace.
fn anomaly_run(
    isolation: IsolationLevel,
    seed: u64,
    txns: u64,
    pairs: usize,
) -> (DriverReport, mcv::chaos::AnomalyReport) {
    let cfg = DriverConfig {
        engine: EngineConfig {
            shards: 4,
            // A modeled force latency stretches every commit, widening
            // the window in which concurrent transactions snapshot
            // before this one's versions install — which is exactly
            // the overlap write skew needs.
            force_latency_us: 100,
            group_window_us: 0,
            isolation,
            ..Default::default()
        },
        clients: 3,
        txns,
        items: 2 * pairs,
        workload: WorkloadKind::WriteSkew { pairs },
        seed,
    };
    let rec = mcv::trace::Recorder::unbounded();
    let flight = Arc::clone(&rec);
    let report = mcv::trace::with_recorder(rec, || run_driver(&cfg));
    let anomalies = mcv::chaos::detect_anomalies(&flight.snapshot());
    (report, anomalies)
}

/// Shrinks a write-skew repro at `seed`: smallest (txns, pairs) on a
/// fixed ladder that still witnesses the anomaly.
fn shrink_skew(seed: u64, txns: u64, pairs: usize) -> (u64, usize, mcv::chaos::AnomalyReport) {
    let (_, mut best_report) = anomaly_run(IsolationLevel::SnapshotIsolation, seed, txns, pairs);
    let (mut best_txns, mut best_pairs) = (txns, pairs);
    for (t, p) in [(12, 2), (8, 2), (8, 1), (4, 1)] {
        if t >= best_txns && p >= best_pairs {
            continue;
        }
        let (_, rep) = anomaly_run(IsolationLevel::SnapshotIsolation, seed, t, p);
        if !rep.write_skews.is_empty() {
            (best_txns, best_pairs) = (t, p);
            best_report = rep;
        }
    }
    (best_txns, best_pairs, best_report)
}

/// The anomaly campaign over `n` seeds starting at `base`.
fn anomalies(n: u64, base: u64) -> ExitCode {
    const TXNS: u64 = 16;
    const PAIRS: usize = 2;
    let mut si_skews = 0u64;
    let mut si_first: Option<u64> = None;
    let mut failures = 0u64;
    for i in 0..n {
        let seed = base + i;
        // SI may exhibit write skew (that's the finding); it must never
        // long-fork. SSI and 2PL must be clean outright. RC exercises
        // the long-fork detector; any verdict is legal there.
        let (_, si) = anomaly_run(IsolationLevel::SnapshotIsolation, seed, TXNS, PAIRS);
        if !si.write_skews.is_empty() {
            si_skews += si.write_skews.len() as u64;
            si_first.get_or_insert(seed);
        }
        if !si.long_forks.is_empty() {
            eprintln!("seed {seed}: long fork under SI — snapshots must be totally ordered");
            failures += 1;
        }
        let (_, ssi) = anomaly_run(IsolationLevel::SerializableSsi, seed, TXNS, PAIRS);
        if !ssi.clean() {
            eprintln!("seed {seed}: anomaly under SSI: {ssi:?}");
            failures += 1;
        }
        let (_, tpl) = anomaly_run(IsolationLevel::Serializable2pl, seed, TXNS, PAIRS);
        if !tpl.clean() {
            eprintln!("seed {seed}: anomaly under 2PL: {tpl:?}");
            failures += 1;
        }
        let (_, rc) = anomaly_run(IsolationLevel::ReadCommitted, seed, TXNS, PAIRS);
        let _ = rc; // legal either way; runs purely to exercise the detector
    }
    println!(
        "anomaly campaign: {n} seeds from {base}: SI write skews={si_skews}, \
         SSI/2PL violations={failures}"
    );
    if let Some(seed) = si_first {
        let (txns, pairs, witnesses) = shrink_skew(seed, TXNS, PAIRS);
        let artifact = mcv::chaos::AnomalyArtifact::new(
            "write_skew",
            IsolationLevel::SnapshotIsolation.name(),
            seed,
            3,
            txns,
            pairs,
            witnesses,
        );
        match artifact.write("target/chaos") {
            Ok(path) => println!(
                "shrunk SI counterexample ({txns} txns, {pairs} pairs): {}",
                path.display()
            ),
            Err(e) => eprintln!("could not write anomaly artifact: {e}"),
        }
    }
    if si_skews == 0 {
        eprintln!("anomaly campaign: SI produced no write skew over {n} seeds — detector dead?");
        return ExitCode::FAILURE;
    }
    if failures > 0 {
        return ExitCode::FAILURE;
    }
    println!("anomaly campaign: SI skews found, SSI and 2PL clean");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    match parse() {
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
        Ok(args) if args.smoke => smoke(args.base()),
        Ok(args) if args.mvcc_smoke => mvcc_smoke(args.base()),
        Ok(args) => match args.anomalies {
            Some(n) => anomalies(n, args.base()),
            None => run_once(&args),
        },
    }
}
