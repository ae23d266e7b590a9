//! Clausal form: literals and clauses for the resolution prover.

use crate::subst::{FreshVars, Subst};
use crate::sym::Sym;
use crate::term::{Term, Var};
use crate::unify::match_terms;
use std::collections::BTreeSet;
use std::fmt;

/// A literal: a possibly negated predicate atom.
///
/// Equality atoms are encoded with the reserved predicate symbol `=`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Literal {
    /// `true` for a positive literal, `false` for a negated one.
    pub positive: bool,
    /// Predicate symbol.
    pub pred: Sym,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl Literal {
    /// A new literal.
    pub fn new(positive: bool, pred: impl Into<Sym>, args: Vec<Term>) -> Self {
        Literal { positive, pred: pred.into(), args }
    }

    /// Whether `self` and `other` could resolve: opposite polarity, same
    /// predicate and arity. Renaming never changes any of the three.
    pub(crate) fn may_clash(&self, other: &Literal) -> bool {
        self.positive != other.positive && self.same_atom_shape(other)
    }

    fn same_atom_shape(&self, other: &Literal) -> bool {
        self.pred == other.pred && self.args.len() == other.args.len()
    }

    /// Extends `s` so that `self`θ = `target` (one-way matching: same
    /// polarity, predicate and arity, and every argument matches).
    fn matches(&self, target: &Literal, s: &mut Subst) -> bool {
        self.positive == target.positive
            && self.same_atom_shape(target)
            && self.args.iter().zip(&target.args).all(|(p, t)| match_terms(p, t, s))
    }

    /// The complementary literal.
    pub fn negated(&self) -> Literal {
        Literal { positive: !self.positive, ..self.clone() }
    }

    /// Applies a substitution to all argument terms.
    pub fn apply(&self, s: &Subst) -> Literal {
        Literal {
            positive: self.positive,
            pred: self.pred.clone(),
            args: self.args.iter().map(|t| s.apply(t)).collect(),
        }
    }

    /// Symbol-count weight.
    pub fn weight(&self) -> usize {
        1 + self.args.iter().map(Term::size).sum::<usize>()
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.positive {
            write!(f, "~")?;
        }
        write!(f, "{}", self.pred)?;
        if !self.args.is_empty() {
            write!(f, "(")?;
            for (i, a) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A disjunction of literals. The empty clause is the contradiction ⊥.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Clause {
    /// The disjuncts. Kept sorted and de-duplicated.
    pub literals: Vec<Literal>,
}

impl Clause {
    /// Builds a clause, sorting and de-duplicating literals.
    pub fn new(mut literals: Vec<Literal>) -> Self {
        literals.sort();
        literals.dedup();
        Clause { literals }
    }

    /// The empty clause ⊥.
    pub fn empty() -> Self {
        Clause { literals: Vec::new() }
    }

    /// Whether this is the empty clause (a refutation).
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// Whether the clause contains complementary literals `P` and `~P`
    /// on syntactically identical atoms (and is thus a tautology).
    pub fn is_tautology(&self) -> bool {
        self.literals.iter().any(|l| {
            l.positive
                && self.literals.iter().any(|m| !m.positive && m.pred == l.pred && m.args == l.args)
        })
    }

    /// Total symbol-count weight (the given-clause selection heuristic).
    pub fn weight(&self) -> usize {
        self.literals.iter().map(Literal::weight).sum()
    }

    /// Applies a substitution to every literal and renormalizes.
    pub fn apply(&self, s: &Subst) -> Clause {
        Clause::new(self.literals.iter().map(|l| l.apply(s)).collect())
    }

    /// The clause's distinct variables (by name), in first-occurrence
    /// order: the ones [`Clause::rename_apart`] draws a fresh name for.
    pub(crate) fn distinct_vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        for t in self.literals.iter().flat_map(|l| &l.args) {
            t.collect_vars(&mut out, &mut seen);
        }
        out
    }

    /// Renames all variables apart using `gen`, so two clauses never share
    /// variables during resolution.
    pub fn rename_apart(&self, gen: &mut FreshVars) -> Clause {
        let mut s = Subst::new();
        for v in self.distinct_vars() {
            let renamed = Term::var(gen.fresh(&v));
            s.bind(v, renamed);
        }
        self.apply(&s)
    }

    /// θ-subsumption: does `self` subsume `other`? I.e. is there a
    /// substitution θ with `self`θ ⊆ `other`? Implemented by backtracking
    /// over literal matches; sound and complete for the small clauses the
    /// spec proofs produce.
    ///
    /// Before backtracking, a pattern literal that matches no target
    /// literal on its own rejects at once: it cannot match one under a
    /// larger substitution either, so the answer is the same.
    pub fn subsumes(&self, other: &Clause) -> bool {
        if self.literals.len() > other.literals.len() {
            return false;
        }
        let hopeless = self
            .literals
            .iter()
            .any(|p| !other.literals.iter().any(|t| p.matches(t, &mut Subst::new())));
        !hopeless && backtrack(&self.literals, other, &Subst::new())
    }
}

/// Whether some θ extending `s` maps every literal of `pat` into
/// `target`, trying each candidate literal in turn.
fn backtrack(pat: &[Literal], target: &Clause, s: &Subst) -> bool {
    let Some((first, rest)) = pat.split_first() else {
        return true;
    };
    let same_shape = |c: &&Literal| c.positive == first.positive && c.same_atom_shape(first);
    target.literals.iter().filter(same_shape).any(|cand| {
        let mut s2 = s.clone();
        first.matches(cand, &mut s2) && backtrack(rest, target, &s2)
    })
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.literals.is_empty() {
            return write!(f, "⊥");
        }
        for (i, l) in self.literals.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Random small clauses over a tiny vocabulary, so that clashes,
/// matches and shared variables are common.
#[cfg(test)]
pub(crate) mod arb {
    use super::*;
    use proptest::prelude::*;

    /// Terms over the variables named by the one-letter `vars` pattern.
    fn term_over(vars: &'static str) -> impl Strategy<Value = Term> {
        let leaf = prop_oneof![
            vars.prop_map(|n| Term::var(Var::unsorted(n))),
            "[ab]".prop_map(Term::constant),
        ];
        leaf.boxed().prop_recursive(2, 6, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(|t| Term::app("f", vec![t])),
                (inner.clone(), inner).prop_map(|(t, u)| Term::app("g", vec![t, u])),
            ]
        })
    }

    fn term() -> impl Strategy<Value = Term> {
        term_over("[xyz]")
    }

    fn literal() -> impl Strategy<Value = Literal> {
        (any::<bool>(), 0usize..3, term(), term()).prop_map(|(pos, p, t, u)| match p {
            0 => Literal::new(pos, "P", vec![t]),
            1 => Literal::new(pos, "Q", vec![t, u]),
            _ => Literal::new(pos, "R", vec![t]),
        })
    }

    /// A clause of one to four literals.
    pub(crate) fn clause() -> impl Strategy<Value = Clause> {
        prop::collection::vec(literal(), 1..5).prop_map(Clause::new)
    }

    /// A substitution binding each of `x`, `y`, `z` to a random term over
    /// other variables (so bindings never chain into a cycle).
    pub(crate) fn subst() -> impl Strategy<Value = Subst> {
        (term_over("[uv]"), term_over("[uv]"), term_over("[uv]")).prop_map(|(x, y, z)| {
            let mut s = Subst::new();
            for (n, t) in [("x", x), ("y", y), ("z", z)] {
                s.bind(Var::unsorted(n), t);
            }
            s
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lit(pos: bool, p: &str, vars: &[&str]) -> Literal {
        Literal::new(pos, p, vars.iter().map(|v| Term::var(Var::unsorted(*v))).collect())
    }

    #[test]
    fn tautology_detection() {
        let c = Clause::new(vec![lit(true, "P", &["x"]), lit(false, "P", &["x"])]);
        assert!(c.is_tautology());
        let d = Clause::new(vec![lit(true, "P", &["x"]), lit(false, "P", &["y"])]);
        assert!(!d.is_tautology());
    }

    #[test]
    fn duplicate_literals_collapse() {
        let c = Clause::new(vec![lit(true, "P", &["x"]), lit(true, "P", &["x"])]);
        assert_eq!(c.literals.len(), 1);
    }

    #[test]
    fn subsumption_by_more_general_clause() {
        // P(x) subsumes P(a) | Q(b).
        let gen = Clause::new(vec![lit(true, "P", &["x"])]);
        let spec = Clause::new(vec![
            Literal::new(true, "P", vec![Term::constant("a")]),
            Literal::new(true, "Q", vec![Term::constant("b")]),
        ]);
        assert!(gen.subsumes(&spec));
        assert!(!spec.subsumes(&gen));
    }

    #[test]
    fn subsumption_requires_consistent_bindings() {
        // P(x, x) does not subsume P(a, b).
        let pat = Clause::new(vec![lit(true, "P", &["x", "x"])]);
        let tgt = Clause::new(vec![Literal::new(
            true,
            "P",
            vec![Term::constant("a"), Term::constant("b")],
        )]);
        assert!(!pat.subsumes(&tgt));
    }

    #[test]
    fn rename_apart_leaves_no_shared_names() {
        let mut g = FreshVars::new();
        let c = Clause::new(vec![lit(true, "P", &["x", "y"])]);
        let r = c.rename_apart(&mut g);
        for l in &r.literals {
            for t in &l.args {
                for v in t.vars() {
                    assert_ne!(v.name().as_str(), "x");
                    assert_ne!(v.name().as_str(), "y");
                }
            }
        }
    }

    /// The matcher without the early reject, under the same length guard.
    fn plain_subsumes(a: &Clause, b: &Clause) -> bool {
        a.literals.len() <= b.literals.len() && backtrack(&a.literals, b, &Subst::new())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn early_reject_agrees_with_plain_backtracking(
            a in arb::clause(),
            b in arb::clause(),
            s in arb::subst(),
            extra in arb::clause(),
        ) {
            prop_assert_eq!(a.subsumes(&b), plain_subsumes(&a, &b));
            // An instance of `a` padded with more literals: often subsumed.
            let mut lits = a.apply(&s).literals;
            lits.extend(extra.literals);
            let inst = Clause::new(lits);
            prop_assert_eq!(a.subsumes(&inst), plain_subsumes(&a, &inst));
        }
    }
}
