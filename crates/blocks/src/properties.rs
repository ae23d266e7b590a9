//! The three global properties of the 3PC protocol and their proofs,
//! replaying Chapter 5's `prove <thm> in <spec> using <axioms…>`
//! commands with the resolution prover, plus the consistency audit the
//! thesis never ran.

use crate::specs::SpecLibrary;
use mcv_core::SpecRef;
use mcv_logic::{Formula, NamedFormula, ProofResult, Prover, ProverConfig, Sym};
use std::collections::HashMap;
use std::time::Duration;

/// One `prove … using …` command from Chapter 5.
#[derive(Debug, Clone)]
pub struct ProveCommand {
    /// Command label (`p1`, `p2`, `p3` in the thesis).
    pub label: &'static str,
    /// Theorem name.
    pub theorem: &'static str,
    /// Spec the theorem lives in.
    pub spec: &'static str,
    /// The support set (`using` clause).
    pub using: Vec<&'static str>,
}

/// The three proof commands of Chapter 5, verbatim.
pub fn chapter5_commands() -> Vec<ProveCommand> {
    vec![
        ProveCommand {
            label: "p1",
            theorem: "Serialize",
            spec: "TWOPHASELOCK",
            using: vec!["Agreebroad", "Agreeconsensus", "Storevalues", "Readlock", "Writelock"],
        },
        ProveCommand {
            label: "p2",
            theorem: "CSM",
            spec: "DECISIONMAKING",
            using: vec![
                "Agreebroad",
                "Agreeconsensus",
                "Globprocstateinfo",
                "Constateinfo",
                "inconsistent",
            ],
        },
        ProveCommand {
            label: "p3",
            theorem: "RBR",
            spec: "ROLLBACKRECOVERY",
            using: vec![
                "Agreebroad",
                "Agreeconsensus",
                "Storevalues",
                "Readlock",
                "Writelock",
                "Checkpoint",
                "Recover",
                "recover",
            ],
        },
    ]
}

/// Outcome of replaying one proof command.
#[derive(Debug)]
pub struct ProveOutcome {
    /// The command.
    pub command: ProveCommand,
    /// Prover result.
    pub result: ProofResult,
    /// Whether the *support set alone* is contradictory (proving `false`
    /// from just the `using` axioms succeeds) — a soundness audit the
    /// thesis did not perform.
    pub support_set_inconsistent: bool,
    /// The theorem holds only because the support set is contradictory
    /// (anything follows from ⊥). Under a strict set-of-support
    /// strategy the direct proof does not exist.
    pub vacuous: bool,
}

impl ProveOutcome {
    /// Whether the theorem was proved (possibly vacuously).
    pub fn proved(&self) -> bool {
        self.result.is_proved()
    }
}

fn spec_by_name<'a>(lib: &'a SpecLibrary, name: &str) -> &'a SpecRef {
    lib.all()
        .into_iter()
        .find(|s| s.name.as_str() == name)
        .unwrap_or_else(|| panic!("unknown spec {name}"))
}

/// The support axioms of a command, pulled from the spec.
pub fn support_axioms(lib: &SpecLibrary, cmd: &ProveCommand) -> Vec<NamedFormula> {
    let spec = spec_by_name(lib, cmd.spec);
    cmd.using
        .iter()
        .map(|name| {
            let p = spec
                .property(&Sym::new(*name))
                .unwrap_or_else(|| panic!("axiom {name} not found in {}", cmd.spec));
            NamedFormula::new(p.name.to_string(), p.formula.clone())
        })
        .collect()
}

/// A prover tuned for the Chapter 5 goals (large clause sets from the
/// `if/then/else` distribution).
pub fn chapter5_prover() -> Prover {
    Prover::with_config(ProverConfig {
        max_clauses: 400_000,
        max_weight: 120,
        timeout: Duration::from_secs(60),
        ..ProverConfig::default()
    })
}

/// Replays one proof command.
///
/// A consistency pre-check runs first: if the support set alone proves
/// `false`, the theorem follows vacuously and that refutation is
/// returned (with [`ProveOutcome::vacuous`] set). SNARK behind Specware
/// accepts such "proofs" silently; we surface them.
pub fn replay(lib: &SpecLibrary, cmd: &ProveCommand) -> ProveOutcome {
    let _span = mcv_obs::Span::enter("properties.replay");
    mcv_obs::counter("properties.replays", 1);
    let spec = spec_by_name(lib, cmd.spec);
    let theorem = spec
        .property(&Sym::new(cmd.theorem))
        .unwrap_or_else(|| panic!("theorem {} not found in {}", cmd.theorem, cmd.spec));
    let axioms = support_axioms(lib, cmd);
    let prover = chapter5_prover();
    let consistency = prover.prove(&axioms, &Formula::False);
    let support_set_inconsistent = consistency.is_proved();
    if support_set_inconsistent {
        mcv_obs::counter("properties.vacuous", 1);
        return ProveOutcome {
            command: cmd.clone(),
            result: consistency,
            support_set_inconsistent,
            vacuous: true,
        };
    }
    let result = prover.prove(&axioms, &theorem.formula);
    if result.is_proved() {
        mcv_obs::counter("properties.proved", 1);
    }
    ProveOutcome { command: cmd.clone(), result, support_set_inconsistent, vacuous: false }
}

/// Replays all three Chapter 5 proofs.
pub fn replay_all(lib: &SpecLibrary) -> Vec<ProveOutcome> {
    chapter5_commands().iter().map(|c| replay(lib, c)).collect()
}

/// Positive consistency certificate: a finite model of a proof
/// command's support set (the thesis never produced one; together with
/// the refutation-based audit this decides vacuity both ways).
pub fn satisfiability_certificate(
    lib: &SpecLibrary,
    cmd: &ProveCommand,
) -> Option<mcv_logic::Model> {
    let axioms = support_axioms(lib, cmd);
    mcv_logic::find_model(&axioms, &mcv_logic::ModelConfig::default())
}

/// The prover [`consistency_audit`] refutes each axiom pair with: small
/// limits, since most pairs saturate within a few clauses.
pub fn audit_prover() -> Prover {
    Prover::with_config(ProverConfig {
        max_clauses: 20_000,
        max_weight: 60,
        timeout: Duration::from_secs(5),
        ..ProverConfig::default()
    })
}

/// A pair of axioms found to be jointly contradictory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContradictoryPair {
    /// The spec both axioms live in.
    pub spec: String,
    /// First axiom.
    pub a: String,
    /// Second axiom.
    pub b: String,
}

/// Audits every spec for pairwise-contradictory axioms (e.g. the
/// `Broadcast`/`Deliver` pair, which assert `~Deliver ∧ Broadcast` and
/// `~Broadcast ∧ Deliver` for all arguments). The thesis' axioms pass
/// SNARK's per-proof use because each `using` clause selects a subset;
/// the audit makes the latent inconsistencies visible.
pub fn consistency_audit(lib: &SpecLibrary) -> Vec<ContradictoryPair> {
    let prover = audit_prover();
    let mut out = Vec::new();
    // Imported axioms recur in every downstream spec, and the search
    // depends on the formulas alone: prove each distinct pair once.
    let mut verdicts: HashMap<(&Formula, &Formula), bool> = HashMap::new();
    for spec in lib.all() {
        let own: Vec<_> = spec.axioms().collect();
        for (i, a) in own.iter().enumerate() {
            for b in own.iter().skip(i + 1) {
                let contradictory =
                    *verdicts.entry((&a.formula, &b.formula)).or_insert_with(|| {
                        let axioms = vec![
                            NamedFormula::new(a.name.to_string(), a.formula.clone()),
                            NamedFormula::new(b.name.to_string(), b.formula.clone()),
                        ];
                        prover.prove(&axioms, &Formula::False).is_proved()
                    });
                if contradictory {
                    let pair = ContradictoryPair {
                        spec: spec.name.to_string(),
                        a: a.name.to_string(),
                        b: b.name.to_string(),
                    };
                    // Imported axiom pairs recur in downstream specs;
                    // keep the first sighting only.
                    if !out.iter().any(|p: &ContradictoryPair| p.a == pair.a && p.b == pair.b) {
                        out.push(pair);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p1_serializability_is_proved() {
        let lib = SpecLibrary::load();
        let out = replay(&lib, &chapter5_commands()[0]);
        assert!(out.proved(), "{:?}", out.result);
    }

    #[test]
    fn p2_consistent_state_is_proved_but_only_vacuously() {
        let lib = SpecLibrary::load();
        let out = replay(&lib, &chapter5_commands()[1]);
        assert!(out.proved(), "{:?}", out.result);
        // The reproduction finding: the proof exists only because the
        // support set is contradictory.
        assert!(out.vacuous);
    }

    #[test]
    fn p3_rollback_recovery_is_proved() {
        let lib = SpecLibrary::load();
        let out = replay(&lib, &chapter5_commands()[2]);
        assert!(out.proved(), "{:?}", out.result);
    }

    #[test]
    fn p2_support_set_is_contradictory() {
        // The reproduction finding: CSM's support set contains both
        // Constateinfo (asserting ~next(c,a)) and inconsistent
        // (asserting next(c,a)); the proof goes through vacuously.
        let lib = SpecLibrary::load();
        let out = replay(&lib, &chapter5_commands()[1]);
        assert!(out.support_set_inconsistent);
    }

    #[test]
    fn p1_support_set_consistency() {
        let lib = SpecLibrary::load();
        let out = replay(&lib, &chapter5_commands()[0]);
        // Serializability's support set has no contradiction within the
        // prover's budget.
        assert!(!out.support_set_inconsistent);
    }

    #[test]
    fn audit_finds_the_broadcast_deliver_contradiction() {
        let lib = SpecLibrary::load();
        let pairs = consistency_audit(&lib);
        assert!(
            pairs.iter().any(|p| (p.a == "Broadcast" && p.b == "Deliver")
                || (p.a == "Deliver" && p.b == "Broadcast")),
            "{pairs:?}"
        );
        // next/adjacent is another contradictory pair.
        assert!(
            pairs.iter().any(|p| (p.a == "next" && p.b == "adjacent")
                || (p.a == "adjacent" && p.b == "next")
                || (p.a == "adjacent" && p.b == "inconsistent")
                || (p.a == "Constateinfo" && p.b == "inconsistent")),
            "{pairs:?}"
        );
    }

    /// Search counters of a result: (generated, kept, subsumed, iterations).
    fn search(result: &ProofResult) -> [u64; 4] {
        let stats = &result.proof().expect("proved").stats;
        ["generated", "kept", "subsumed", "iterations"]
            .map(|c| stats.counter(&format!("prover.{c}")))
    }

    #[test]
    fn chapter5_search_is_pinned() {
        // The given-clause loop is deterministic: these figures change
        // only if the search itself does. A speed-up must leave them be.
        let lib = SpecLibrary::load();
        let replays = replay_all(&lib);
        let got: Vec<_> = replays.iter().map(|o| search(&o.result)).collect();
        assert_eq!(got, [[195, 24, 19, 24], [13, 0, 0, 3], [1046, 100, 61, 55]]);

        // Two of the heaviest audit pairs the clock does not bound: one
        // cut off by clause weight, one that saturates.
        let pair = |spec: &str, a: &str, b: &str| {
            let spec = spec_by_name(&lib, spec);
            let axioms: Vec<_> = [a, b]
                .iter()
                .map(|n| {
                    let p = spec.property(&Sym::new(*n)).expect("axiom present");
                    NamedFormula::new(*n, p.formula.clone())
                })
                .collect();
            audit_prover().prove(&axioms, &Formula::False)
        };
        let valibroad = pair("CHECKPOINTING", "Valibroad", "Checkpoint");
        assert!(matches!(valibroad, ProofResult::ResourceOut { generated: 641 }), "{valibroad:?}");
        let checkpoint = pair("ROLLBACKRECOVERY", "Checkpoint", "Recover");
        assert!(matches!(checkpoint, ProofResult::Saturated { generated: 482 }), "{checkpoint:?}");

        let audit: Vec<_> =
            consistency_audit(&lib).into_iter().map(|p| (p.spec, p.a, p.b)).collect();
        let want = [
            ("RELIABLEBROADCAST", "Broadcast", "Deliver"),
            ("CONSENSUS", "Proposal", "Decision"),
            ("UNDOREDO", "Undo", "Redo"),
            ("TWOPHASELOCK", "Read", "Write"),
            ("TWOPHASELOCK", "Locking", "Unlock"),
            ("SNAPSHOT", "sending", "reception"),
            ("MVCCSNAPSHOT", "Broadcast", "Firstcommitterwins"),
            ("MVCCSNAPSHOT", "Deliver", "Firstcommitterwins"),
            ("MVCCSNAPSHOT", "Termbroad", "Firstcommitterwins"),
            ("MVCCSNAPSHOT", "Valibroad", "Firstcommitterwins"),
            ("MVCCSNAPSHOT", "Agreebroad", "Firstcommitterwins"),
            ("MVCCSNAPSHOT", "Proposal", "Firstcommitterwins"),
            ("MVCCSNAPSHOT", "Decision", "Firstcommitterwins"),
            ("MVCCSNAPSHOT", "Valiconsensus", "Firstcommitterwins"),
            ("MVCCSNAPSHOT", "Agreeconsensus", "Firstcommitterwins"),
            ("MVCCSNAPSHOT", "sending", "Firstcommitterwins"),
            ("MVCCSNAPSHOT", "reception", "Firstcommitterwins"),
            ("MVCCSNAPSHOT", "record", "Firstcommitterwins"),
            ("MVCCSNAPSHOT", "Globprocstateinfo", "Firstcommitterwins"),
            ("MVCCSNAPSHOT", "Installrecords", "Firstcommitterwins"),
            ("MVCCSNAPSHOT", "Snapshotvisibility", "Firstcommitterwins"),
            ("MVCCSNAPSHOT", "Firstcommitterwins", "Gcwatermark"),
            ("DECISIONMAKING", "next", "adjacent"),
            ("DECISIONMAKING", "next", "Constateinfo"),
            ("DECISIONMAKING", "adjacent", "inconsistent"),
            ("DECISIONMAKING", "inconsistent", "Constateinfo"),
            ("CHECKPOINTING", "receive", "send"),
            ("CHECKPOINTING", "send", "log"),
            ("CHECKPOINTING", "Ckpt", "ckpt"),
            ("CHECKPOINTING", "Store", "store"),
            ("CHECKPOINTING", "Pi", "PI"),
            ("ROLLBACKRECOVERY", "Rollback", "Restore"),
            ("ROLLBACKRECOVERY", "rollback", "restore"),
        ]
        .map(|(s, a, b)| (s.to_owned(), a.to_owned(), b.to_owned()));
        assert_eq!(audit, want);
    }

    #[test]
    fn p1_and_p3_support_sets_have_finite_models() {
        // Positive certificates: p1 and p3 are non-vacuous because their
        // support sets have models; p2's has none within the bounds.
        let lib = SpecLibrary::load();
        let cmds = chapter5_commands();
        assert!(satisfiability_certificate(&lib, &cmds[0]).is_some(), "p1 support unsat?");
        assert!(satisfiability_certificate(&lib, &cmds[2]).is_some(), "p3 support unsat?");
        assert!(satisfiability_certificate(&lib, &cmds[1]).is_none(), "p2 support sat?");
    }

    #[test]
    fn herbrand_cross_validates_where_tractable() {
        // The second proof method (Herbrand instantiation + DPLL) agrees
        // with resolution on a single-axiom consequence; on the full
        // multi-axiom support set its grounding blows past the budget
        // (9-variable axioms), which is exactly why resolution - whose
        // unification instantiates lazily - is the primary method.
        use mcv_logic::{parse_formula, prove_by_herbrand, HerbrandConfig, Prover};
        let lib = SpecLibrary::load();
        let all = support_axioms(&lib, &chapter5_commands()[0]);
        let storevalues: Vec<_> = all.iter().filter(|a| a.name == "Storevalues").cloned().collect();
        assert_eq!(storevalues.len(), 1);
        let goal = parse_formula(
            "Agreeconsensus(p0(), c0(), t0()) & Undo(t0(), a0(), t0(), t0()) & Redo(t0(), c0(), t0(), t0()) => Log(t0(), t0(), t0())",
        )
        .expect("well-formed");
        let res = Prover::new().prove(&storevalues, &goal).is_proved();
        let her = prove_by_herbrand(
            &storevalues,
            &goal,
            &HerbrandConfig { max_level: 0, max_instances: 2_000_000 },
        )
        .is_proved();
        assert!(res, "resolution failed");
        assert!(her, "herbrand failed");
        // On the full support set the grounding is out of budget:
        // resolution still proves, Herbrand honestly reports Unknown.
        assert!(Prover::new().prove(&all, &goal).is_proved());
        assert!(!prove_by_herbrand(&all, &goal, &HerbrandConfig::default()).is_proved());
    }

    #[test]
    fn ablations_are_essential_for_chapter5() {
        // DESIGN.md's ablation targets, measured: without forward
        // subsumption OR with FIFO (breadth-first) given-clause
        // selection, the Serialize proof no longer fits a 2-second
        // budget that the full strategy clears in milliseconds.
        use mcv_logic::{Prover, ProverConfig, Selection};
        use std::time::Duration;
        let lib = SpecLibrary::load();
        let cmd = &chapter5_commands()[0];
        let axioms = support_axioms(&lib, cmd);
        let thm = lib
            .two_phase_lock
            .property(&"Serialize".into())
            .expect("theorem present")
            .formula
            .clone();
        let budget = Duration::from_secs(2);
        let fast = Prover::with_config(ProverConfig { timeout: budget, ..ProverConfig::default() })
            .prove(&axioms, &thm);
        assert!(fast.is_proved(), "full strategy should prove within 2s");
        let no_sub = Prover::with_config(ProverConfig {
            use_subsumption: false,
            timeout: budget,
            ..ProverConfig::default()
        })
        .prove(&axioms, &thm);
        assert!(!no_sub.is_proved(), "subsumption should be essential");
        let fifo = Prover::with_config(ProverConfig {
            selection: Selection::Fifo,
            timeout: budget,
            ..ProverConfig::default()
        })
        .prove(&axioms, &thm);
        assert!(!fifo.is_proved(), "lightest-first selection should be essential");
    }

    #[test]
    fn wrong_support_set_fails_to_prove() {
        // Dropping Readlock/Writelock from p1's support must leave the
        // Serialize theorem unproved (no vacuous success).
        let lib = SpecLibrary::load();
        let cmd = ProveCommand {
            label: "p1-ablate",
            theorem: "Serialize",
            spec: "TWOPHASELOCK",
            using: vec!["Agreebroad", "Agreeconsensus", "Storevalues"],
        };
        let out = replay(&lib, &cmd);
        assert!(!out.proved(), "{:?}", out.result);
    }
}
