//! Prover cost on the Chapter 5 goals and on calibrated synthetic
//! problems (implication chains of growing depth).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcv_blocks::{properties, SpecLibrary};
use mcv_logic::{formula, Formula, NamedFormula, Prover};
use std::collections::HashSet;

fn bench_chapter5_proofs(c: &mut Criterion) {
    let lib = SpecLibrary::load();
    let commands = properties::chapter5_commands();
    let mut group = c.benchmark_group("chapter5");
    group.sample_size(10);
    for cmd in &commands {
        group.bench_with_input(BenchmarkId::new("prove", cmd.label), cmd, |b, cmd| {
            b.iter(|| {
                let out = properties::replay(&lib, cmd);
                assert!(out.proved());
            })
        });
    }
    group.finish();
}

fn bench_audit(c: &mut Criterion) {
    // The consistency audit's prover work, less the one pair
    // (VOTING FailureTriggersElection/LowestOperationalWins) whose
    // search only ends at the 5 s budget: timing it measures the clock.
    let lib = SpecLibrary::load();
    let prover = properties::audit_prover();
    let mut seen = HashSet::new();
    let mut distinct = Vec::new();
    let mut heaviest = Vec::new();
    for spec in lib.all() {
        let own: Vec<_> = spec.axioms().collect();
        for (i, a) in own.iter().enumerate() {
            for b in own.iter().skip(i + 1) {
                let names = (spec.name.as_str(), a.name.as_str(), b.name.as_str());
                let axioms = vec![
                    NamedFormula::new(a.name.to_string(), a.formula.clone()),
                    NamedFormula::new(b.name.to_string(), b.formula.clone()),
                ];
                if names == ("CHECKPOINTING", "Valibroad", "Checkpoint") {
                    heaviest = axioms.clone();
                }
                let budget_bound =
                    (names.1, names.2) == ("FailureTriggersElection", "LowestOperationalWins");
                if !budget_bound && seen.insert((&a.formula, &b.formula)) {
                    distinct.push(axioms);
                }
            }
        }
    }
    let mut group = c.benchmark_group("audit");
    group.sample_size(10);
    // The heaviest pair the budget does not bound (weight-bounded).
    group.bench_function("pair/CHECKPOINTING-Valibroad-Checkpoint", |b| {
        b.iter(|| prover.prove(&heaviest, &Formula::False))
    });
    group.bench_function(BenchmarkId::new("distinct_pairs", distinct.len()), |b| {
        b.iter(|| distinct.iter().filter(|p| prover.prove(p, &Formula::False).is_proved()).count())
    });
    group.finish();
}

fn bench_implication_chains(c: &mut Criterion) {
    let mut group = c.benchmark_group("resolution");
    for depth in [4usize, 8, 16, 32] {
        let mut axioms = vec![NamedFormula::new("base", formula("P0(c())"))];
        for i in 0..depth {
            axioms.push(NamedFormula::new(
                format!("step{i}"),
                formula(&format!("fa(x) (P{i}(x) => P{}(x))", i + 1)),
            ));
        }
        let goal = formula(&format!("P{depth}(c())"));
        group.bench_with_input(BenchmarkId::new("chain", depth), &depth, |b, _| {
            b.iter(|| {
                let r = Prover::new().prove(&axioms, &goal);
                assert!(r.is_proved());
            })
        });
    }
    group.finish();
}

fn bench_ablations(c: &mut Criterion) {
    use mcv_logic::{ProverConfig, Selection};
    // Strategy ablations on an implication chain that every variant can
    // prove. (On the Chapter 5 goals both ablations hit the resource
    // limits — see `ablations_are_essential_for_chapter5` in mcv-blocks —
    // so timing them there would only measure the timeout.)
    let depth = 12usize;
    let mut axioms = vec![NamedFormula::new("base", formula("P0(c())"))];
    for i in 0..depth {
        axioms.push(NamedFormula::new(
            format!("step{i}"),
            formula(&format!("fa(x) (P{i}(x) => P{}(x))", i + 1)),
        ));
    }
    // Redundant specializations that subsumption can absorb.
    for i in 0..depth {
        axioms.push(NamedFormula::new(
            format!("ground{i}"),
            formula(&format!("P{i}(c()) => P{}(c())", i + 1)),
        ));
    }
    let goal = formula(&format!("P{depth}(c())"));
    let mut group = c.benchmark_group("ablation");
    group.sample_size(20);
    for (label, cfg) in [
        ("default", ProverConfig::default()),
        ("no-subsumption", ProverConfig { use_subsumption: false, ..ProverConfig::default() }),
        ("fifo-selection", ProverConfig { selection: Selection::Fifo, ..ProverConfig::default() }),
    ] {
        let axioms = axioms.clone();
        let goal = goal.clone();
        group.bench_function(BenchmarkId::new("chain12", label), move |b| {
            b.iter(|| {
                let r = Prover::with_config(cfg.clone()).prove(&axioms, &goal);
                assert!(r.is_proved());
            })
        });
    }
    group.finish();
}

fn bench_clausification(c: &mut Criterion) {
    let lib = SpecLibrary::load();
    let thm =
        lib.rollback_recovery.property(&"RBR".into()).expect("theorem present").formula.clone();
    c.bench_function("clausify/RBR", |b| {
        b.iter(|| {
            let mut gen = mcv_logic::FreshVars::new();
            mcv_logic::clausify(&thm, &mut gen)
        })
    });
}

criterion_group!(
    benches,
    bench_chapter5_proofs,
    bench_audit,
    bench_implication_chains,
    bench_ablations,
    bench_clausification
);
criterion_main!(benches);
