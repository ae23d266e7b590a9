//! Profiler stress: exercises the three `mcv-prof` surfaces — the
//! thread-local ring profiler on an engine run, the critical-path
//! analyzer on a cross-shard trace, and the windowed telemetry stream
//! on an open-loop load run — and judges each with its own invariant.
//!
//! ```text
//! cargo run --release --example prof_stress                 # one verbose run
//! cargo run --release --example prof_stress -- --smoke      # CI gate
//! cargo run --release --example prof_stress -- --smoke --seed-base 2000
//! ```
//!
//! Flags: `--seed N`, `--seed-base N` (campaign seed origin, defaults
//! to `--seed` — `./ci flake` shifts whole campaigns to disjoint
//! bases), `--seeds N` (dist campaign size), `--smoke`.
//!
//! `--smoke` is the `./ci` gate, three legs:
//!
//! 1. **Harvest exactness** — an instrumented engine run yields one
//!    timeline per committed transaction, none dropped, and the
//!    attribution fractions partition the anchored time.
//! 2. **Critical-path campaign** — N seeded fault-free cross-shard
//!    runs; every commit's path segments tile its span exactly and at
//!    least 90% of mean commit latency is attributed to typed phases
//!    per seed, while `transport_rtt` + `wal_force` must be the top
//!    two phases of the merged campaign table (the claim `exp.prof`
//!    gates once at seed 7 must hold for every seed population, or it
//!    is a seed accident, not a property; merging first keeps a
//!    single descheduled worker from drowning one 8-txn run in
//!    inflated `execute` time).
//! 3. **Telemetry determinism** — two same-seed open-loop runs window
//!    every scheduled arrival and produce byte-identical wall-stripped
//!    JSONL streams.

use mcv::prof::{
    attribute_commits, strip_wall_all, telemetry_jsonl, with_profiler, AttributionTable, Profiler,
};
use std::process::ExitCode;

#[derive(Clone)]
struct Args {
    seed: u64,
    seed_base: Option<u64>,
    seeds: u64,
    smoke: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args { seed: 7, seed_base: None, seeds: 5, smoke: false }
    }
}

impl Args {
    /// Campaign seed origin: `--seed-base` when given, else `--seed`.
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
            "--seed" => args.seed = next_num(&mut it, "--seed")?,
            "--seed-base" => args.seed_base = Some(next_num(&mut it, "--seed-base")?),
            "--seeds" => args.seeds = next_num(&mut it, "--seeds")?.max(1),
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                return Err("usage: prof_stress [--seed N] [--seed-base N] [--seeds N] [--smoke]"
                    .to_owned())
            }
            other => return Err(format!("unknown flag {other:?}; try --help")),
        }
    }
    Ok(args)
}

/// The cross-shard attribution config: a fault-free 3-shard run with
/// a realistic (800 us) commit-point force, same shape `exp.prof`
/// gates at seed 7.
fn dist_cfg(seed: u64) -> mcv::dist::DistConfig {
    mcv::dist::DistConfig {
        n_shards: 3,
        n_txns: 8,
        writes_per_shard: 2,
        seed,
        force_latency_us: 800,
        ..Default::default()
    }
}

/// Runs one instrumented cross-shard round and judges the per-seed
/// structural invariants (oracles, path count, exact tiling, >= 90%
/// attribution); returns the commit-path timelines for the merged
/// campaign table.
fn judge_dist(seed: u64) -> (bool, AttributionTable, Vec<mcv::prof::Timeline>) {
    let o = mcv::dist::run_dist(&dist_cfg(seed));
    let (table, paths) = attribute_commits(&o.trace);
    let mut ok = o.violated().is_none();
    if !ok {
        eprintln!("seed {seed}: oracle violated: {:?}", o.violated());
    }
    if paths.len() != 8 {
        eprintln!("seed {seed}: {} commit paths for 8 fault-free txns", paths.len());
        ok = false;
    }
    for p in &paths {
        let sum: u64 = p.segments.iter().map(|s| s.ns).sum();
        if sum != p.total_ns {
            eprintln!(
                "seed {seed}: txn {} segments sum {} != span {} — decomposition gapped",
                p.txn, sum, p.total_ns
            );
            ok = false;
        }
    }
    if table.attributed_frac < 0.9 {
        eprintln!(
            "seed {seed}: only {:.0}% of mean commit latency attributed (>= 90% required)",
            100.0 * table.attributed_frac
        );
        ok = false;
    }
    (ok, table, paths.iter().map(|p| p.timeline()).collect())
}

/// One open-loop load run with telemetry windows, returning the
/// scheduled arrivals, the windowed arrivals, and the wall-stripped
/// JSONL stream.
fn telemetry_run(seed: u64) -> (u64, u64, String) {
    let report = mcv::load::run_load(&mcv::load::LoadConfig {
        profile: mcv::load::LoadProfile {
            process: mcv::load::ArrivalProcess::Poisson { rate_tps: 1_500.0 },
            duration_us: 200_000,
            sessions: 50_000,
            session_theta: 0.8,
            seed,
        },
        engines: 1,
        items_per_engine: 128,
        telemetry_window_us: 50_000,
        ..Default::default()
    });
    let windowed: u64 = report.telemetry.iter().map(|w| w.arrivals).sum();
    let mut stripped = report.telemetry.clone();
    strip_wall_all(&mut stripped);
    (report.arrivals, windowed, telemetry_jsonl(&stripped))
}

/// The `./ci` gate.
fn smoke(args: &Args) -> ExitCode {
    let base = args.base();
    let mut failed = false;

    // Leg 1 — harvest exactness on an instrumented engine run.
    println!("--- smoke leg 1: harvest exactness (seed {base}) ---");
    let profiler = Profiler::new();
    let result = with_profiler(&profiler, || {
        mcv::engine::run_driver(&mcv::engine::DriverConfig {
            engine: mcv::engine::EngineConfig {
                shards: 8,
                force_latency_us: 300,
                group_window_us: 50,
                ..Default::default()
            },
            clients: 4,
            txns: 800,
            items: 1_024,
            workload: mcv::engine::WorkloadKind::ReadWrite {
                mix: mcv::engine::Mix::Uniform,
                write_pct: 50,
                ops_per_txn: 8,
            },
            seed: base,
        })
    });
    let samples = profiler.harvest();
    let table = AttributionTable::from_samples(&samples);
    println!(
        "  {} commits, {} timelines, {} dropped; attributed {:.0}%",
        result.committed,
        samples.timelines.len(),
        samples.dropped,
        100.0 * table.attributed_frac
    );
    let partition = (table.attributed_frac + table.unattributed_frac - 1.0).abs() < 1e-9;
    if samples.timelines.len() as u64 != result.committed || samples.dropped != 0 || !partition {
        eprintln!("harvest leg FAILED: one timeline per commit, none dropped, fractions sum to 1");
        failed = true;
    }

    // Leg 2 — critical-path campaign over disjoint seeds. Dominance
    // is judged on the merged table: per-seed tables have only 8
    // transactions, so one descheduled worker can inflate a single
    // run's execute share past the 800 us forces.
    println!("\n--- smoke leg 2: critical paths, {} seeds from {base} ---", args.seeds);
    let mut campaign = Vec::new();
    for seed in base..base + args.seeds {
        let (ok, table, timelines) = judge_dist(seed);
        println!(
            "  seed {seed}: {} paths, attributed {:.0}%, top {:?}{}",
            timelines.len(),
            100.0 * table.attributed_frac,
            table.top_phases(2),
            if ok { "" } else { "  <-- FAILED" }
        );
        if !ok {
            eprintln!("{}", table.render());
            failed = true;
        }
        campaign.extend(timelines);
    }
    // Re-anchor each commit under a campaign-unique id; duplicate txn
    // ids across seeds would otherwise merge into one oversized entry.
    for (i, t) in campaign.iter_mut().enumerate() {
        t.txn = i as u64 + 1;
    }
    let merged =
        AttributionTable::from_samples(&mcv::prof::ProfSamples { timelines: campaign, dropped: 0 });
    let top2 = merged.top_phases(2);
    println!(
        "  campaign: {} commits merged, attributed {:.0}%, top {top2:?}",
        merged.anchored_txns,
        100.0 * merged.attributed_frac
    );
    if !(top2.contains(&"transport_rtt") && top2.contains(&"wal_force")) {
        eprintln!("campaign top phases {top2:?}, expected transport_rtt + wal_force");
        eprintln!("{}", merged.render());
        failed = true;
    }

    // Leg 3 — telemetry covers every arrival, deterministically.
    println!("\n--- smoke leg 3: telemetry determinism (seed {base}) ---");
    let (scheduled_a, windowed_a, jsonl_a) = telemetry_run(base);
    let (scheduled_b, windowed_b, jsonl_b) = telemetry_run(base);
    println!(
        "  run A: {windowed_a}/{scheduled_a} arrivals windowed; run B: \
         {windowed_b}/{scheduled_b}; stripped streams identical: {}",
        jsonl_a == jsonl_b
    );
    if windowed_a != scheduled_a || windowed_b != scheduled_b {
        eprintln!("telemetry leg FAILED: windows must account for every scheduled arrival");
        failed = true;
    }
    if jsonl_a != jsonl_b {
        eprintln!("telemetry leg FAILED: same-seed stripped JSONL diverged");
        eprintln!("--- run A ---\n{jsonl_a}--- run B ---\n{jsonl_b}");
        failed = true;
    }

    if failed {
        eprintln!("\nprof smoke FAILED");
        ExitCode::FAILURE
    } else {
        println!("\nprof smoke OK: harvest exact, paths tile and attribute, telemetry replays");
        ExitCode::SUCCESS
    }
}

/// Default mode: one verbose cross-shard attribution with the slowest
/// commit's critical path rendered in full.
fn verbose(args: &Args) -> ExitCode {
    let o = mcv::dist::run_dist(&dist_cfg(args.seed));
    let (table, paths) = attribute_commits(&o.trace);
    println!(
        "prof_stress: cross-shard attribution, seed {}, {} commit paths, oracles {}\n",
        args.seed,
        paths.len(),
        o.violated().is_none()
    );
    println!("{}", table.render());
    if let Some(slowest) = paths.iter().max_by_key(|p| p.total_ns) {
        println!("slowest commit:\n{}", slowest.render());
    }
    if o.violated().is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        smoke(&args)
    } else {
        verbose(&args)
    }
}
