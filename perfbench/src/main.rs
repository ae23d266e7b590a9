//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine-oltp|dist-3pc|verify-ch5 --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints host facts, the workload's rationale, every metric by name
//! with its unit, and every correctness check; the last line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, measured with the
//! benchmark's spans off; with `--trace 1` the run makes an untraced
//! leg and then a traced leg, each serving half of `--seconds`, and
//! reports the per-layer set. Exits 1 when a correctness check fails,
//! 2 on bad arguments.
//!
//! `BENCHMARK.json` names the workloads in [`IN_BENCHMARK`].
//! `dist-3pc` runs by hand only: the runtime it drives can break
//! atomicity when the host starves its threads (README.md).

mod dist_3pc;
mod engine_oltp;
mod report;
mod rng;
mod spans;
mod stats;
mod verify_ch5;

use report::{Leg, END_TO_END, PER_LAYER};
use spans::Spans;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Workload {
    EngineOltp,
    Dist3pc,
    VerifyCh5,
}

/// The workloads `BENCHMARK.json` declares.
const IN_BENCHMARK: [Workload; 2] = [Workload::EngineOltp, Workload::VerifyCh5];

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "engine-oltp" => Some(Workload::EngineOltp),
            "dist-3pc" => Some(Workload::Dist3pc),
            "verify-ch5" => Some(Workload::VerifyCh5),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::EngineOltp => "engine-oltp",
            Workload::Dist3pc => "dist-3pc",
            Workload::VerifyCh5 => "verify-ch5",
        }
    }

    /// Why the workload is in the benchmark, as `BENCHMARK.json` says.
    fn why(self) -> &'static str {
        match self {
            Workload::EngineOltp => {
                "Closed loop via Pool (2 workers, cap 4) into one 2PL Engine, 100k uniform keys, half read-only: pool hand-off, lock table and group-commit WAL do the work; dist idle"
            }
            Workload::Dist3pc => {
                "Open loop, Poisson 500 txn/s, 3 shards x 2 writes, fault-free run_pipeline: pump, ledger, fabric and 3PC FSM do the work, one WAL force per delivery batch; Pool idle"
            }
            Workload::VerifyCh5 => {
                "The paper's proofs in logic/core/blocks. ~5 s of logic.audit_s is one pair, VOTING FailureTriggersElection/LowestOperationalWins, hitting the prover's 5 s wall-clock budget"
            }
        }
    }

    fn run(self, seed: u64, seconds: u64, spans: Option<&mut Spans>) -> Leg {
        match self {
            Workload::EngineOltp => engine_oltp::run(seed, seconds, spans),
            Workload::Dist3pc => dist_3pc::run(seed, seconds, spans),
            Workload::VerifyCh5 => verify_ch5::run(spans),
        }
    }

    /// The end-to-end figure the trace overhead is read from, and
    /// whether higher is better.
    fn headline(self) -> (&'static str, bool) {
        match self {
            Workload::EngineOltp => ("bench.tput_tps", true),
            Workload::Dist3pc => ("p50_us", false),
            Workload::VerifyCh5 => ("bench.verify_s", false),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value}: {e}"))?)
            }
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The checkout's revision. Only a `.git` in the working directory is
/// consulted, so the benchmark reads nothing outside its checkout.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_owned();
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned())
}

/// A JSON number; a non-finite value, which fails the run, prints as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload engine-oltp|dist-3pc|verify-ch5 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host nproc={nproc} rustc={:?} profile={profile} git_rev={:?}",
        env!("PERFBENCH_RUSTC"),
        git_rev()
    );
    println!("# why: {}", w.why());

    if !IN_BENCHMARK.contains(&w) {
        println!("# note: {} is not a BENCHMARK.json workload; see perfbench/README.md", w.name());
    }

    // A traced run serves two legs, so each gets half the window and
    // the run takes as long as an untraced one.
    let leg_seconds = if args.trace { (args.seconds / 2).max(1) } else { args.seconds };
    let base = w.run(args.seed, leg_seconds, None);
    let reported: Vec<(&str, &str)> =
        if args.trace { PER_LAYER.to_vec() } else { END_TO_END.to_vec() };
    let traced_leg = args.trace.then(|| {
        let mut spans = Spans::new(Instant::now());
        let leg = w.run(args.seed, leg_seconds, Some(&mut spans));
        let file = format!("spans-{}-seed{}.jsonl", w.name(), args.seed);
        let path = Path::new(".bench_out").join(file);
        match spans.write_jsonl(&path) {
            Ok(()) => println!("# spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        leg
    });

    let mut out: Vec<(&str, f64, &str, String)> = Vec::new();
    for (name, unit) in reported {
        let source = match &traced_leg {
            Some(t) if !name.starts_with("bench.") => t,
            _ => &base,
        };
        let (value, note) = match (name, &traced_leg) {
            ("bench.trace_overhead", Some(t)) => {
                let (h, higher_better) = w.headline();
                let (b, tv) = (base.value(h).unwrap_or(0.0), t.value(h).unwrap_or(0.0));
                let ratio = if higher_better { b / tv - 1.0 } else { tv / b - 1.0 };
                (ratio, format!("{h}: untraced {b:.6} vs traced {tv:.6}"))
            }
            _ => match source.metrics.get(name) {
                Some(m) => {
                    assert_eq!(
                        m.unit, unit,
                        "{name} measured in {} but declared in {unit}",
                        m.unit
                    );
                    (m.value, m.note.clone())
                }
                None if args.trace => (0.0, "layer idle in this workload".to_owned()),
                None => panic!("workload {} does not measure end-to-end metric {name}", w.name()),
            },
        };
        out.push((name, value, unit, note));
    }

    // Every figure measured, by name and unit; the JSON carries the
    // declared set.
    let last = traced_leg.as_ref().unwrap_or(&base);
    for (name, m) in &last.metrics {
        if !out.iter().any(|o| o.0 == *name) {
            println!("extra  {name:<32} {:>16.6} {:<6} {}", m.value, m.unit, m.note);
        }
    }
    for (name, value, unit, note) in &out {
        println!("metric {name:<32} {value:>16.6} {unit:<6} {note}");
    }
    let legs: Vec<(&str, &Leg)> = std::iter::once(("untraced", &base))
        .chain(traced_leg.as_ref().map(|t| ("traced", t)))
        .collect();
    for (label, leg) in &legs {
        for c in &leg.checks {
            let verdict = if c.pass { "ok" } else { "FAIL" };
            println!("check  {verdict:<4} [{label}] {} {}", c.name, c.detail);
        }
    }
    let finite = out.iter().all(|o| o.1.is_finite());
    if !finite {
        println!("check  FAIL every reported metric is a finite number");
    }
    let correct = finite && legs.iter().all(|(_, l)| l.checks.iter().all(|c| c.pass));
    let metrics: Vec<String> = out
        .iter()
        .map(|(name, value, unit, _)| {
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_num(*value))
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        legs.iter().map(|(_, l)| l.attempted).sum::<u64>().max(1),
        legs.iter().map(|(_, l)| l.failed).sum::<u64>(),
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::{Workload, IN_BENCHMARK};

    #[test]
    fn rationale_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for w in IN_BENCHMARK {
            let entry = format!("\"name\": \"{}\",\n      \"why\": \"{}\"", w.name(), w.why());
            assert!(text.contains(&entry), "{} rationale differs from BENCHMARK.json", w.name());
        }
        let dist = format!("\"name\": \"{}\"", Workload::Dist3pc.name());
        assert!(!text.contains(&dist), "dist-3pc is a by-hand workload, not a declared one");
    }
}
