//! Terms: variables and applications of operation symbols.

use crate::sort::Sort;
use crate::sym::Sym;
use std::collections::BTreeSet;
use std::fmt;

/// A sorted logical variable.
///
/// # Examples
///
/// ```
/// use mcv_logic::{Var, Sort};
/// let p = Var::new("p", Sort::new("Processors"));
/// assert_eq!(p.to_string(), "p:Processors");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub struct Var {
    name: Sym,
    sort: Sort,
}

impl Var {
    /// A variable `name` of the given sort.
    pub fn new(name: impl Into<Sym>, sort: Sort) -> Self {
        Var { name: name.into(), sort }
    }

    /// A variable whose sort is not annotated.
    pub fn unsorted(name: impl Into<Sym>) -> Self {
        Var::new(name, Sort::unknown())
    }

    /// The variable's name.
    pub fn name(&self) -> &Sym {
        &self.name
    }

    /// The variable's sort (possibly [`Sort::unknown`]).
    pub fn sort(&self) -> &Sort {
        &self.sort
    }

    /// The same variable with a different sort annotation.
    pub fn with_sort(&self, sort: Sort) -> Var {
        Var { name: self.name.clone(), sort }
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sort.is_unknown() {
            write!(f, "{}", self.name)
        } else {
            write!(f, "{}:{}", self.name, self.sort)
        }
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A first-order term.
///
/// Constants are nullary applications. The parser maps infix arithmetic
/// (`T + i`) to applications of `plus`/`minus`.
///
/// # Examples
///
/// ```
/// use mcv_logic::{Term, Var, Sort};
/// let t = Term::app("Clockdelay", vec![
///     Term::var(Var::new("T", Sort::new("Clockvalues"))),
///     Term::var(Var::new("i", Sort::new("BroadcastDelay"))),
/// ]);
/// assert_eq!(t.to_string(), "Clockdelay(T, i)");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub enum Term {
    /// A variable occurrence.
    Var(Var),
    /// Application `f(t1, …, tn)`; a constant when `n = 0`.
    App(Sym, Vec<Term>),
}

impl Term {
    /// A variable term.
    pub fn var(v: Var) -> Term {
        Term::Var(v)
    }

    /// An application term.
    pub fn app(f: impl Into<Sym>, args: Vec<Term>) -> Term {
        Term::App(f.into(), args)
    }

    /// A constant (nullary application).
    pub fn constant(c: impl Into<Sym>) -> Term {
        Term::App(c.into(), Vec::new())
    }

    /// All variables occurring in the term, in first-occurrence order
    /// de-duplicated by name.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        self.collect_vars(&mut out, &mut seen);
        out
    }

    /// Appends the term's variables not yet in `seen` to `out`, in
    /// first-occurrence order.
    pub(crate) fn collect_vars(&self, out: &mut Vec<Var>, seen: &mut BTreeSet<Sym>) {
        match self {
            Term::Var(v) => {
                if seen.insert(v.name().clone()) {
                    out.push(v.clone());
                }
            }
            Term::App(_, args) => {
                for a in args {
                    a.collect_vars(out, seen);
                }
            }
        }
    }

    /// Whether the variable named `name` occurs in the term.
    pub fn contains_var(&self, name: &Sym) -> bool {
        match self {
            Term::Var(v) => v.name() == name,
            Term::App(_, args) => args.iter().any(|a| a.contains_var(name)),
        }
    }

    /// Number of symbol occurrences; used as the clause weight heuristic.
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_) => 1,
            Term::App(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
        }
    }

    /// Rename every function symbol via `f`; used by spec translation.
    pub fn map_syms(&self, f: &impl Fn(&Sym) -> Sym) -> Term {
        match self {
            Term::Var(v) => Term::Var(v.clone()),
            Term::App(op, args) => Term::App(f(op), args.iter().map(|a| a.map_syms(f)).collect()),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{}", v.name()),
            Term::App(op, args) if args.is_empty() => write!(f, "{op}"),
            Term::App(op, args) => {
                write!(f, "{op}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt() -> Term {
        Term::app(
            "Deliver",
            vec![
                Term::var(Var::new("p", Sort::new("Processors"))),
                Term::app(
                    "Clockdelay",
                    vec![Term::var(Var::unsorted("T")), Term::constant("zero")],
                ),
            ],
        )
    }

    #[test]
    fn display_renders_nested_applications() {
        assert_eq!(pt().to_string(), "Deliver(p, Clockdelay(T, zero))");
    }

    #[test]
    fn vars_are_collected_once_in_order() {
        let t = Term::app(
            "f",
            vec![
                Term::var(Var::unsorted("x")),
                Term::var(Var::unsorted("y")),
                Term::var(Var::unsorted("x")),
            ],
        );
        let names: Vec<String> = t.vars().iter().map(|v| v.name().to_string()).collect();
        assert_eq!(names, ["x", "y"]);
    }

    #[test]
    fn contains_var_checks_nesting() {
        let t = pt();
        assert!(t.contains_var(&Sym::new("T")));
        assert!(!t.contains_var(&Sym::new("q")));
    }

    #[test]
    fn size_counts_symbols() {
        assert_eq!(pt().size(), 5);
    }

    #[test]
    fn map_syms_renames_only_ops() {
        let t = pt();
        let renamed = t.map_syms(&|s| {
            if s.as_str() == "Deliver" {
                Sym::new("ADeliver")
            } else {
                s.clone()
            }
        });
        assert_eq!(renamed.to_string(), "ADeliver(p, Clockdelay(T, zero))");
    }
}
