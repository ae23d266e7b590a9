//! `verify-ch5`: the paper's own work on one thread — load the
//! Chapter 5 spec chain, replay the three proofs, run the three
//! Specware scripts, and audit every spec for contradictory axiom
//! pairs.
//!
//! The job is the workload's one request: its wall time is the latency
//! a user of the verifier waits for. In a traced leg the audit is then
//! probed pair by pair from outside: each `Prover::prove` over the same
//! pairs, with the same limits, timed on its own.

use crate::report::Leg;
use crate::spans::Spans;
use crate::stats;
use mcv_blocks::properties::{self, ContradictoryPair};
use mcv_blocks::{script_runner, SpecLibrary};
use mcv_logic::{Formula, NamedFormula, ProofResult, Prover, ProverConfig};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Library loads timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// The limits `properties::consistency_audit` gives its prover.
const AUDIT_TIMEOUT: Duration = Duration::from_secs(5);

fn audit_prover() -> Prover {
    Prover::with_config(ProverConfig {
        max_clauses: 20_000,
        max_weight: 60,
        timeout: AUDIT_TIMEOUT,
        ..ProverConfig::default()
    })
}

/// One obligation of the audit: refute axioms `a` and `b` of `spec`.
struct Pair {
    spec: String,
    axioms: [NamedFormula; 2],
}

/// Every pair `consistency_audit` visits, in its order.
fn audit_pairs(lib: &SpecLibrary) -> Vec<Pair> {
    let mut out = Vec::new();
    for spec in lib.all() {
        let own: Vec<_> = spec.axioms().collect();
        for (i, a) in own.iter().enumerate() {
            for b in own.iter().skip(i + 1) {
                out.push(Pair {
                    spec: spec.name.to_string(),
                    axioms: [
                        NamedFormula::new(a.name.to_string(), a.formula.clone()),
                        NamedFormula::new(b.name.to_string(), b.formula.clone()),
                    ],
                });
            }
        }
    }
    out
}

/// Times `prove(pair, false)` for every pair.
fn time_pairs(pairs: &[Pair], spans: &mut Option<&mut Spans>) -> Vec<(Duration, ProofResult)> {
    let prover = audit_prover();
    let start = Instant::now();
    let out: Vec<_> = pairs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let t0 = Instant::now();
            let result = prover.prove(&p.axioms, &Formula::False);
            let took = t0.elapsed();
            if let Some(s) = spans.as_deref_mut() {
                s.close(i as u64, None, "logic.prove", t0);
            }
            (took, result)
        })
        .collect();
    if let Some(s) = spans.as_deref_mut() {
        s.close(0, None, "bench.audit_probe", start);
    }
    out
}

/// One leg: the timed four-call verification and its checks, then (traced
/// legs only) the pair-by-pair probe.
pub fn run(mut spans: Option<&mut Spans>) -> Leg {
    let mut leg = Leg::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        std::hint::black_box(SpecLibrary::load());
        setups.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = stats::median(&setups).expect("set-up samples");
    leg.put_note("setup_s", setup_s, "s", format!("median of {SETUP_REPS} SpecLibrary::load"));

    let stage = |spans: &mut Option<&mut Spans>, name: &'static str, t0: Instant| {
        if let Some(s) = spans.as_deref_mut() {
            s.close(0, None, name, t0);
        }
        t0.elapsed().as_secs_f64()
    };
    let t0 = Instant::now();
    let lib = SpecLibrary::load();
    let load_s = stage(&mut spans, "core.load", t0);
    let t1 = Instant::now();
    let replays = properties::replay_all(&lib);
    let replay_s = stage(&mut spans, "logic.replay_all", t1);
    let t2 = Instant::now();
    let scripts = script_runner::run_chapter5_scripts();
    let scripts_s = stage(&mut spans, "blocks.run_chapter5_scripts", t2);
    let t3 = Instant::now();
    let contradictions = properties::consistency_audit(&lib);
    let audit_s = stage(&mut spans, "logic.consistency_audit", t3);
    let verify_s = t0.elapsed().as_secs_f64();

    leg.put("core.load_s", load_s, "s");
    leg.put("logic.replay_s", replay_s, "s");
    leg.put("blocks.scripts_s", scripts_s, "s");
    leg.put("logic.audit_s", audit_s, "s");
    leg.put("bench.verify_s", verify_s, "s");
    leg.put_note("check_s", audit_s, "s", "consistency_audit".to_owned());

    // The paper's results, as the repository's own tests state them:
    // p1 and p3 proved outright, p2 proved only vacuously.
    let expect = [("p1", false), ("p2", true), ("p3", false)];
    for (o, (label, vacuous)) in replays.iter().zip(expect) {
        leg.check(
            "replay_all proves p1..p3 as the paper states",
            o.command.label == label && o.proved() && o.vacuous == vacuous,
            format!("{}: proved={} vacuous={}", o.command.label, o.proved(), o.vacuous),
        );
        let generated = match &o.result {
            ProofResult::Proved(p) => p.generated(),
            ProofResult::Saturated { generated } | ProofResult::ResourceOut { generated } => {
                *generated
            }
        };
        let name = match label {
            "p1" => "logic.clauses_generated.p1",
            "p2" => "logic.clauses_generated.p2",
            _ => "logic.clauses_generated.p3",
        };
        leg.put(name, generated as f64, "count");
    }
    let script_verdicts: Vec<_> = match &scripts {
        Ok(runs) => runs.iter().map(|r| r.proof.clone()).collect(),
        Err(e) => vec![Some((format!("error: {e}"), false, false))],
    };
    let want: Vec<_> = expect.iter().map(|&(l, v)| Some((l.to_owned(), true, v))).collect();
    leg.check(
        "chapter 5 scripts prove p1..p3 as the paper states",
        script_verdicts == want,
        format!("{script_verdicts:?}"),
    );
    leg.check(
        "audit finds the Broadcast/Deliver contradiction",
        contradictions.iter().any(|p| {
            (p.a == "Broadcast" && p.b == "Deliver") || (p.a == "Deliver" && p.b == "Broadcast")
        }),
        format!("{} contradictory pairs", contradictions.len()),
    );

    let pairs = audit_pairs(&lib);
    let distinct: BTreeSet<(&str, &str)> =
        pairs.iter().map(|p| (p.axioms[0].name.as_str(), p.axioms[1].name.as_str())).collect();
    let obligations = replays.len() + script_verdicts.len() + pairs.len();
    leg.attempted = obligations as u64;
    leg.put_note(
        "bench.tput_tps",
        obligations as f64 / verify_s,
        "1/s",
        format!("{obligations} proof obligations in {verify_s:.3} s"),
    );
    leg.put_latency("p50_us", "bench.p99_us", &[verify_s * 1e6]);
    leg.put("bench.samples", 1.0, "count");
    leg.put("bench.fail_ratio", 0.0, "ratio");
    leg.put("logic.audit_calls", pairs.len() as f64, "count");
    leg.put("logic.audit_distinct", distinct.len() as f64, "count");
    leg.put("logic.audit_contradictions", contradictions.len() as f64, "count");
    if spans.is_some() {
        probe(&mut leg, &pairs, &contradictions, &mut spans);
    }
    leg
}

/// Times every audit obligation on its own and checks that the probe's
/// verdict, deduplicated the way the audit does, is the audit's.
fn probe(
    leg: &mut Leg,
    pairs: &[Pair],
    contradictions: &[ContradictoryPair],
    spans: &mut Option<&mut Spans>,
) {
    let mut found: Vec<ContradictoryPair> = Vec::new();
    let (mut timeouts, mut slowest) = (0u32, (Duration::ZERO, String::new()));
    let mut us = Vec::with_capacity(pairs.len());
    for (p, (took, result)) in pairs.iter().zip(time_pairs(pairs, spans)) {
        let [x, y] = &p.axioms;
        if result.is_proved() && !found.iter().any(|c| c.a == x.name && c.b == y.name) {
            found.push(ContradictoryPair {
                spec: p.spec.clone(),
                a: x.name.clone(),
                b: y.name.clone(),
            });
        }
        if matches!(result, ProofResult::ResourceOut { .. }) && took >= AUDIT_TIMEOUT {
            timeouts += 1;
        }
        if took > slowest.0 {
            slowest = (took, format!("{} {}/{}", p.spec, x.name, y.name));
        }
        us.push(took.as_secs_f64() * 1e6);
    }
    leg.check(
        "pair-by-pair probe reproduces the audit verdict",
        found == contradictions,
        format!("probe {} pairs, audit {} pairs", found.len(), contradictions.len()),
    );
    leg.put_latency("logic.prove_p50_us", "logic.prove_p99_us", &us);
    leg.put_note("logic.prove_max_s", slowest.0.as_secs_f64(), "s", slowest.1);
    leg.put("logic.timeouts", f64::from(timeouts), "count");
}
