//! A given-clause resolution prover in the style of SNARK/Otter.
//!
//! The thesis discharges its three global-property theorems with SNARK
//! behind Specware's `prove <thm> in <spec> using <axioms…>` form. The
//! `using` list is a *support set*: only the listed axioms participate.
//! [`Prover::prove`] mirrors that interface: the negated conjecture seeds
//! the set of support, axioms are usable side premises, and binary
//! resolution + factoring search for the empty clause.

use crate::clause::{Clause, Literal};
use crate::cnf::clausify;
use crate::formula::Formula;
use crate::subst::{FreshVars, Subst};
use crate::unify::unify;
use mcv_obs::{MetricsRegistry, MetricsSnapshot, Span};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::time::{Duration, Instant};

/// Given-clause selection strategy (ablation target).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selection {
    /// Pick the lightest clause first (best-first on symbol weight).
    #[default]
    LightestFirst,
    /// First in, first out (breadth-first).
    Fifo,
}

/// Resource limits and strategy for a proof attempt.
#[derive(Debug, Clone)]
pub struct ProverConfig {
    /// Maximum number of clauses generated before giving up.
    pub max_clauses: usize,
    /// Maximum symbol weight of a retained clause.
    pub max_weight: usize,
    /// Wall-clock budget.
    pub timeout: Duration,
    /// Forward subsumption on/off (ablation target).
    pub use_subsumption: bool,
    /// Given-clause selection strategy (ablation target).
    pub selection: Selection,
}

impl Default for ProverConfig {
    fn default() -> Self {
        ProverConfig {
            max_clauses: 200_000,
            max_weight: 80,
            timeout: Duration::from_secs(20),
            use_subsumption: true,
            selection: Selection::LightestFirst,
        }
    }
}

/// How a derived clause came to be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rule {
    /// Input axiom (with its name if known).
    Axiom(String),
    /// Clause of the negated conjecture.
    NegatedConjecture,
    /// Binary resolvent of the two parent indices.
    Resolve(usize, usize),
    /// Factor of the parent index.
    Factor(usize),
}

/// One step in a derivation.
#[derive(Debug, Clone)]
pub struct Step {
    /// The derived clause.
    pub clause: Clause,
    /// How it was derived.
    pub rule: Rule,
}

/// A successful refutation.
#[derive(Debug, Clone)]
pub struct Proof {
    /// All retained steps; the last is the empty clause.
    pub steps: Vec<Step>,
    /// Indices (into `steps`) of the steps actually used, in order.
    pub used: Vec<usize>,
    /// Search statistics: deterministic counters under `prover.*`
    /// (`generated`, `iterations`, `kept`, `subsumed`,
    /// `unify_attempts`) and wall-clock under the `wall.prover_ns`
    /// gauge. The same snapshot is emitted to the ambient
    /// [`mcv_obs::collect`] collector, if one is installed.
    pub stats: MetricsSnapshot,
}

impl Proof {
    /// Number of clauses generated during search.
    pub fn generated(&self) -> usize {
        self.stats.counter("prover.generated") as usize
    }

    /// Search time.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.stats.gauge("wall.prover_ns").unwrap_or(0.0) as u64)
    }

    /// The axiom names that contributed to the refutation.
    pub fn axioms_used(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .used
            .iter()
            .filter_map(|&i| match &self.steps[i].rule {
                Rule::Axiom(n) => Some(n.clone()),
                _ => None,
            })
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Length of the used derivation (number of inference steps).
    pub fn length(&self) -> usize {
        self.used.len()
    }
}

impl fmt::Display for Proof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "refutation in {} steps ({} clauses generated, {:?}):",
            self.used.len(),
            self.generated(),
            self.elapsed()
        )?;
        for &i in &self.used {
            let s = &self.steps[i];
            let rule = match &s.rule {
                Rule::Axiom(n) => format!("axiom {n}"),
                Rule::NegatedConjecture => "negated conjecture".to_owned(),
                Rule::Resolve(a, b) => format!("resolve({a}, {b})"),
                Rule::Factor(a) => format!("factor({a})"),
            };
            writeln!(f, "  [{i}] {}   <- {rule}", s.clause)?;
        }
        Ok(())
    }
}

/// Outcome of a proof attempt.
#[derive(Debug, Clone)]
pub enum ProofResult {
    /// A refutation of axioms ∧ ¬goal was found: the goal is a theorem.
    Proved(Proof),
    /// The search space was exhausted without refutation: the goal is
    /// *not* entailed (for a complete strategy on this fragment).
    Saturated {
        /// Number of clauses generated.
        generated: usize,
    },
    /// A resource limit was hit first.
    ResourceOut {
        /// Number of clauses generated before giving up.
        generated: usize,
    },
}

impl ProofResult {
    /// Whether the goal was proved.
    pub fn is_proved(&self) -> bool {
        matches!(self, ProofResult::Proved(_))
    }

    /// The proof, if any.
    pub fn proof(&self) -> Option<&Proof> {
        match self {
            ProofResult::Proved(p) => Some(p),
            _ => None,
        }
    }
}

/// A named axiom for proof attempts.
#[derive(Debug, Clone)]
pub struct NamedFormula {
    /// Axiom name (as in the spec text).
    pub name: String,
    /// The formula.
    pub formula: Formula,
}

impl NamedFormula {
    /// A named formula.
    pub fn new(name: impl Into<String>, formula: Formula) -> Self {
        NamedFormula { name: name.into(), formula }
    }
}

/// The resolution prover.
///
/// # Examples
///
/// ```
/// use mcv_logic::{Prover, NamedFormula, parse_formula};
/// let axioms = vec![
///     NamedFormula::new("mortal", parse_formula("fa(x) (Man(x) => Mortal(x))").unwrap()),
///     NamedFormula::new("socrates", parse_formula("Man(socrates())").unwrap()),
/// ];
/// let goal = parse_formula("Mortal(socrates())").unwrap();
/// let result = Prover::new().prove(&axioms, &goal);
/// assert!(result.is_proved());
/// ```
#[derive(Debug, Default)]
pub struct Prover {
    config: ProverConfig,
}

impl Prover {
    /// A prover with default limits.
    pub fn new() -> Self {
        Prover { config: ProverConfig::default() }
    }

    /// A prover with explicit limits.
    pub fn with_config(config: ProverConfig) -> Self {
        Prover { config }
    }

    /// Attempts to prove `goal` from `axioms` by refutation.
    pub fn prove(&self, axioms: &[NamedFormula], goal: &Formula) -> ProofResult {
        let _span = Span::enter("prover.prove");
        let start = Instant::now();
        let mut stats = SearchStats::default();
        let mut fresh = FreshVars::new();
        let mut steps: Vec<Step> = Vec::new();
        // Usable set: axiom clauses.
        for ax in axioms {
            for c in clausify(&ax.formula, &mut fresh) {
                steps.push(Step { clause: c, rule: Rule::Axiom(ax.name.clone()) });
            }
        }
        let usable_end = steps.len();
        // Set of support: negated conjecture.
        let negated = Formula::not(goal.clone().close_universally());
        let mut sos_idx = Vec::new();
        for c in clausify(&negated, &mut fresh) {
            sos_idx.push(steps.len());
            steps.push(Step { clause: c, rule: Rule::NegatedConjecture });
        }
        // A trivially-true negated goal (e.g. goal = false) contributes no
        // support clauses; fall back to whole-set saturation so the prover
        // doubles as a consistency checker.
        let mut consistency_mode = false;
        if sos_idx.is_empty() {
            sos_idx = (0..usable_end).collect();
            consistency_mode = true;
        }
        stats.generated = steps.len() as u64;
        // Trivial cases.
        for (i, s) in steps.iter().enumerate() {
            if s.clause.is_empty() {
                return ProofResult::Proved(finish(steps.clone(), i, stats.flush(start)));
            }
        }

        // Priority queue of unprocessed clause indices, lightest first;
        // ties broken by index for determinism.
        let key = |c: &Clause, cfg: &ProverConfig| -> usize {
            match cfg.selection {
                Selection::LightestFirst => c.weight(),
                Selection::Fifo => 0,
            }
        };
        let mut queue: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
        for &i in &sos_idx {
            queue.push(Reverse((key(&steps[i].clause, &self.config), i)));
        }
        // Processed set: indices resolved so far (axioms are always usable).
        let mut processed: Vec<usize> =
            if consistency_mode { Vec::new() } else { (0..usable_end).collect() };
        // If any clause is discarded for weight, saturation no longer
        // implies non-entailment; report ResourceOut instead.
        let mut lossy = false;

        while let Some(Reverse((_, given_idx))) = queue.pop() {
            if start.elapsed() > self.config.timeout
                || stats.generated as usize > self.config.max_clauses
            {
                let generated = stats.flush(start).counter("prover.generated") as usize;
                return ProofResult::ResourceOut { generated };
            }
            stats.iterations += 1;
            let given = steps[given_idx].clause.clone();
            // If something already processed subsumes the given clause, skip.
            if self.config.use_subsumption
                && processed.iter().any(|&i| steps[i].clause.subsumes(&given))
            {
                stats.subsumed += 1;
                continue;
            }

            let mut new_clauses: Vec<(Clause, Rule)> = Vec::new();
            // Factoring.
            for c in factors(&given, &mut fresh, &mut stats.unify_attempts) {
                new_clauses.push((c, Rule::Factor(given_idx)));
            }
            // Binary resolution against all processed clauses.
            for &other_idx in &processed {
                let other = &steps[other_idx].clause;
                for c in resolvents(&given, other, &mut fresh, &mut stats.unify_attempts) {
                    new_clauses.push((c, Rule::Resolve(given_idx, other_idx)));
                }
            }
            processed.push(given_idx);

            for (c, rule) in new_clauses {
                // One given clause can yield hundreds of resolvents, each
                // checked against every kept clause: honour the budget
                // per clause, not only per given clause.
                if start.elapsed() > self.config.timeout {
                    let generated = stats.flush(start).counter("prover.generated") as usize;
                    return ProofResult::ResourceOut { generated };
                }
                stats.generated += 1;
                if c.is_empty() {
                    let idx = steps.len();
                    steps.push(Step { clause: c, rule });
                    return ProofResult::Proved(finish(steps, idx, stats.flush(start)));
                }
                if c.is_tautology() {
                    continue;
                }
                if c.weight() > self.config.max_weight {
                    lossy = true;
                    continue;
                }
                // Forward subsumption against processed + queued.
                if self.config.use_subsumption {
                    if processed.iter().any(|&i| steps[i].clause.subsumes(&c)) {
                        stats.subsumed += 1;
                        continue;
                    }
                    if queue.iter().any(|Reverse((_, i))| steps[*i].clause.subsumes(&c)) {
                        stats.subsumed += 1;
                        continue;
                    }
                } else {
                    // Cheap duplicate check only.
                    if processed.iter().any(|&i| steps[i].clause == c)
                        || queue.iter().any(|Reverse((_, i))| steps[*i].clause == c)
                    {
                        continue;
                    }
                }
                stats.kept += 1;
                let idx = steps.len();
                steps.push(Step { clause: c.clone(), rule });
                queue.push(Reverse((key(&c, &self.config), idx)));
            }
        }
        let generated = stats.flush(start).counter("prover.generated") as usize;
        if lossy {
            ProofResult::ResourceOut { generated }
        } else {
            ProofResult::Saturated { generated }
        }
    }
}

/// Plain local counters for the given-clause loop: the hot path pays a
/// register increment, and the totals flush to the ambient collector
/// (and the returned snapshot) once, at the end of the search.
#[derive(Debug, Default)]
struct SearchStats {
    iterations: u64,
    generated: u64,
    kept: u64,
    subsumed: u64,
    unify_attempts: u64,
}

impl SearchStats {
    /// Freezes the counters (plus wall-clock under `wall.prover_ns`)
    /// and emits them to the installed collector, if any.
    fn flush(&self, start: Instant) -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.add("prover.iterations", self.iterations);
        reg.add("prover.generated", self.generated);
        reg.add("prover.kept", self.kept);
        reg.add("prover.subsumed", self.subsumed);
        reg.add("prover.unify_attempts", self.unify_attempts);
        reg.set_gauge("wall.prover_ns", start.elapsed().as_nanos() as f64);
        let snap = reg.snapshot();
        mcv_obs::absorb(&snap);
        snap
    }
}

fn finish(steps: Vec<Step>, empty_idx: usize, stats: MetricsSnapshot) -> Proof {
    // Walk parents back from the empty clause.
    let mut used = Vec::new();
    let mut stack = vec![empty_idx];
    let mut seen = vec![false; steps.len()];
    while let Some(i) = stack.pop() {
        if seen[i] {
            continue;
        }
        seen[i] = true;
        used.push(i);
        match &steps[i].rule {
            Rule::Resolve(a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            Rule::Factor(a) => stack.push(*a),
            _ => {}
        }
    }
    used.sort_unstable();
    Proof { steps, used, stats }
}

/// All binary resolvents of two clauses (variables renamed apart).
///
/// When no literal pair can clash there is nothing to resolve: both
/// renamings are skipped and `fresh` only advances past the names they
/// would have drawn, so every later name is unchanged.
fn resolvents(a: &Clause, b: &Clause, fresh: &mut FreshVars, attempts: &mut u64) -> Vec<Clause> {
    if !a.literals.iter().any(|la| b.literals.iter().any(|lb| la.may_clash(lb))) {
        fresh.skip(a.distinct_vars().len() + b.distinct_vars().len());
        return Vec::new();
    }
    let a = a.rename_apart(fresh);
    let b = b.rename_apart(fresh);
    let mut out = Vec::new();
    for (i, la) in a.literals.iter().enumerate() {
        for (j, lb) in b.literals.iter().enumerate() {
            if !la.may_clash(lb) {
                continue;
            }
            *attempts += 1;
            let mut s = Subst::new();
            let ok = la.args.iter().zip(&lb.args).all(|(x, y)| unify(x, y, &mut s));
            if !ok {
                continue;
            }
            let mut lits: Vec<Literal> = Vec::new();
            for (k, l) in a.literals.iter().enumerate() {
                if k != i {
                    lits.push(l.apply(&s));
                }
            }
            for (k, l) in b.literals.iter().enumerate() {
                if k != j {
                    lits.push(l.apply(&s));
                }
            }
            out.push(Clause::new(lits));
        }
    }
    out
}

/// All binary factors of a clause.
fn factors(c: &Clause, fresh: &mut FreshVars, attempts: &mut u64) -> Vec<Clause> {
    let c = c.rename_apart(fresh);
    let mut out = Vec::new();
    for i in 0..c.literals.len() {
        for j in (i + 1)..c.literals.len() {
            let (li, lj) = (&c.literals[i], &c.literals[j]);
            if li.positive != lj.positive || li.pred != lj.pred || li.args.len() != lj.args.len() {
                continue;
            }
            *attempts += 1;
            let mut s = Subst::new();
            let ok = li.args.iter().zip(&lj.args).all(|(x, y)| unify(x, y, &mut s));
            if !ok {
                continue;
            }
            let lits: Vec<Literal> = c
                .literals
                .iter()
                .enumerate()
                .filter(|(k, _)| *k != j)
                .map(|(_, l)| l.apply(&s))
                .collect();
            out.push(Clause::new(lits));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::formula;

    fn ax(name: &str, src: &str) -> NamedFormula {
        NamedFormula::new(name, formula(src))
    }

    #[test]
    fn modus_ponens_chain() {
        let axioms = vec![
            ax("a1", "fa(x) (P(x) => Q(x))"),
            ax("a2", "fa(x) (Q(x) => R(x))"),
            ax("a3", "P(c())"),
        ];
        let res = Prover::new().prove(&axioms, &formula("R(c())"));
        assert!(res.is_proved());
        let proof = res.proof().unwrap();
        assert!(proof.axioms_used().contains(&"a1".to_owned()));
    }

    #[test]
    fn unprovable_goal_saturates() {
        let axioms = vec![ax("a1", "fa(x) (P(x) => Q(x))")];
        let res = Prover::new().prove(&axioms, &formula("Q(c())"));
        assert!(matches!(res, ProofResult::Saturated { .. }), "{res:?}");
    }

    #[test]
    fn proof_by_case_split() {
        // (A or B), (A => C), (B => C) |- C
        let axioms = vec![ax("cases", "A or B"), ax("l", "A => C"), ax("r", "B => C")];
        assert!(Prover::new().prove(&axioms, &formula("C")).is_proved());
    }

    #[test]
    fn quantifier_instantiation_via_unification() {
        let axioms = vec![
            ax("agree", "fa(p, q, m, T) (Deliver(p, m, T) => Deliver(q, m, T))"),
            ax("fact", "Deliver(a(), msg(), t0())"),
        ];
        assert!(Prover::new().prove(&axioms, &formula("Deliver(b(), msg(), t0())")).is_proved());
    }

    #[test]
    fn needs_factoring() {
        // P(x) | P(y) and ~P(u) | ~P(v) require factoring to refute.
        let axioms = vec![ax("a", "fa(x, y) P(x) or P(y)")];
        let res = Prover::new().prove(&axioms, &formula("ex(u) P(u)"));
        assert!(res.is_proved());
    }

    #[test]
    fn existential_goal() {
        let axioms = vec![ax("f", "Q(d())")];
        assert!(Prover::new().prove(&axioms, &formula("ex(x) Q(x)")).is_proved());
    }

    #[test]
    fn inconsistent_axioms_prove_false() {
        // The thesis' axiom pairs like `Broadcast`/`Deliver` are jointly
        // inconsistent; the prover can certify that by proving `false`.
        let axioms = vec![
            ax("broadcast", "fa(p, m, T) ~(Deliver(p, m, T)) & Broadcast(p, m, T)"),
            ax("deliver", "fa(p, m, T) ~(Broadcast(p, m, T)) & Deliver(p, m, T)"),
        ];
        let res = Prover::new().prove(&axioms, &Formula::False);
        assert!(res.is_proved());
    }

    #[test]
    fn resource_limits_are_respected() {
        let cfg = ProverConfig {
            max_clauses: 10,
            timeout: Duration::from_secs(5),
            ..ProverConfig::default()
        };
        // A goal needing more than 10 clauses of search on growing terms.
        let axioms = vec![ax("succ", "fa(x) (N(x) => N(s(x)))"), ax("zero", "N(z())")];
        let res = Prover::with_config(cfg).prove(&axioms, &formula("M(z())"));
        assert!(matches!(res, ProofResult::ResourceOut { .. } | ProofResult::Saturated { .. }));
    }

    /// Runs `goal` under a 500 ms budget: the search must give up, and
    /// within 650 ms.
    fn assert_budget_honoured(axioms: &[NamedFormula], goal: &Formula) {
        let cfg = ProverConfig { timeout: Duration::from_millis(500), ..ProverConfig::default() };
        let start = Instant::now();
        let res = Prover::with_config(cfg).prove(axioms, goal);
        let took = start.elapsed();
        assert!(matches!(res, ProofResult::ResourceOut { .. }), "{res:?}");
        assert!(took < Duration::from_millis(650), "500 ms budget took {took:?}");
    }

    #[test]
    fn timeout_is_honoured_on_the_voting_election_pair() {
        // VOTING's FailureTriggersElection (Skolemised) and
        // LowestOperationalWins: the audit's one infinite search, whose
        // later given clauses each run for hundreds of milliseconds.
        let axioms = [
            "fa(c, T) (IsCoordinator(c, T) & FailedSite(c, T) => Operational(sk_b(c, T), T))",
            "fa(c, T) (IsCoordinator(c, T) & FailedSite(c, T) => ElectBackup(sk_b(c, T), T))",
            "fa(a, b, T) (ElectBackup(a, T) & ElectBackup(b, T) & LowerId(a, b) => IsCoordinator(a, T))",
        ]
        .iter()
        .enumerate()
        .map(|(i, src)| ax(&format!("voting{i}"), src))
        .collect::<Vec<_>>();
        assert_budget_honoured(&axioms, &Formula::False);
    }

    #[test]
    fn timeout_is_honoured_within_one_wide_iteration() {
        // The first given clause ~P(x) | R(x) resolves with every fact
        // P(ci), and each of its thousands of resolvents R(ci) is checked
        // for subsumption against thousands of kept clauses: a single
        // iteration far longer than the budget.
        let axioms: Vec<_> =
            (0..5000).map(|i| ax(&format!("f{i}"), &format!("P(c{i}())"))).collect();
        assert_budget_honoured(&axioms, &formula("ex(x) (P(x) & ~R(x))"));
    }

    #[test]
    fn ablations_still_prove_but_search_differently() {
        let axioms = vec![
            ax("a1", "fa(x) (P(x) => Q(x))"),
            ax("a2", "fa(x) (Q(x) => R(x))"),
            ax("a3", "fa(x) (R(x) => S(x))"),
            ax("base", "P(c())"),
        ];
        let goal = formula("S(c())");
        let default = Prover::new().prove(&axioms, &goal);
        let no_subsumption =
            Prover::with_config(ProverConfig { use_subsumption: false, ..ProverConfig::default() })
                .prove(&axioms, &goal);
        let fifo = Prover::with_config(ProverConfig {
            selection: Selection::Fifo,
            ..ProverConfig::default()
        })
        .prove(&axioms, &goal);
        for r in [&default, &no_subsumption, &fifo] {
            assert!(r.is_proved(), "{r:?}");
        }
    }

    #[test]
    fn subsumption_prunes_the_search() {
        // A redundant, more specific axiom inflates the no-subsumption
        // search but is absorbed when subsumption is on.
        let axioms = vec![
            ax("gen", "fa(x, y) P(x, y)"),
            ax("spec1", "fa(x) P(x, c())"),
            ax("spec2", "fa(y) P(c(), y)"),
            ax("imp", "fa(x, y) (P(x, y) => Q(x, y))"),
        ];
        let goal = formula("Q(c(), c())");
        let with = Prover::new().prove(&axioms, &goal);
        let without =
            Prover::with_config(ProverConfig { use_subsumption: false, ..ProverConfig::default() })
                .prove(&axioms, &goal);
        let gw = with.proof().expect("proved").generated();
        let gwo = without.proof().expect("proved").generated();
        assert!(gw <= gwo, "subsumption generated {gw} vs {gwo} without");
    }

    #[test]
    fn proof_stats_are_populated_and_reach_the_collector() {
        let axioms = vec![ax("a1", "fa(x) (P(x) => Q(x))"), ax("a2", "P(c())")];
        let (res, data) = mcv_obs::collect(|| Prover::new().prove(&axioms, &formula("Q(c())")));
        let proof = res.proof().expect("proved");
        assert!(proof.generated() > 0);
        assert!(proof.stats.counter("prover.iterations") > 0);
        assert!(proof.stats.counter("prover.unify_attempts") > 0);
        // The same totals were emitted to the ambient collector.
        assert_eq!(
            data.metrics.counter("prover.generated"),
            proof.stats.counter("prover.generated")
        );
        assert_eq!(data.spans[0].name, "prover.prove");
        assert_eq!(data.spans[0].calls, 1);
    }

    #[test]
    fn proof_display_is_nonempty() {
        let axioms = vec![ax("a3", "P(c())")];
        let res = Prover::new().prove(&axioms, &formula("P(c())"));
        let text = res.proof().unwrap().to_string();
        assert!(text.contains("refutation"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn resolvents_draw_the_same_fresh_names_as_renaming_both(
            a in crate::clause::arb::clause(),
            b in crate::clause::arb::clause(),
        ) {
            let mut resolved = FreshVars::new();
            resolvents(&a, &b, &mut resolved, &mut 0);
            let mut renamed = FreshVars::new();
            a.rename_apart(&mut renamed);
            b.rename_apart(&mut renamed);
            let v = crate::term::Var::unsorted("v");
            assert_eq!(resolved.fresh(&v), renamed.fresh(&v));
        }
    }
}
