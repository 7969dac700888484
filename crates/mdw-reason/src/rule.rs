//! Datalog-style rules over triple patterns.
//!
//! A rule has a body of [`RuleAtom`]s and a single head atom. Variables are
//! small integers scoped to the rule; constants are dictionary-encoded term
//! ids, so a rulebase is always built against a specific
//! [`Dictionary`](mdw_rdf::Dictionary).

use mdw_rdf::dict::TermId;
use mdw_rdf::triple::TriplePattern;

/// A position in a rule atom: either a rule-scoped variable or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleTerm {
    /// A variable, identified by a small rule-local index.
    Var(u8),
    /// A constant term id.
    Const(TermId),
}

impl RuleTerm {
    /// Resolves this rule term under a binding environment.
    /// `None` means the variable is still free.
    pub fn resolve(self, bindings: &[Option<TermId>]) -> Option<TermId> {
        match self {
            RuleTerm::Const(id) => Some(id),
            RuleTerm::Var(v) => bindings.get(v as usize).copied().flatten(),
        }
    }
}

/// One triple pattern in a rule body or head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RuleAtom {
    /// Subject position.
    pub s: RuleTerm,
    /// Predicate position.
    pub p: RuleTerm,
    /// Object position.
    pub o: RuleTerm,
}

impl RuleAtom {
    /// Creates an atom.
    pub fn new(s: RuleTerm, p: RuleTerm, o: RuleTerm) -> Self {
        RuleAtom { s, p, o }
    }

    /// The scan pattern of this atom under a binding environment: its
    /// constants and bound variables, free variables left open.
    pub fn pattern(&self, bindings: &[Option<TermId>]) -> TriplePattern {
        TriplePattern {
            s: self.s.resolve(bindings),
            p: self.p.resolve(bindings),
            o: self.o.resolve(bindings),
        }
    }

    /// The highest variable index used in this atom, if any.
    pub fn max_var(&self) -> Option<u8> {
        [self.s, self.p, self.o]
            .into_iter()
            .filter_map(|t| match t {
                RuleTerm::Var(v) => Some(v),
                RuleTerm::Const(_) => None,
            })
            .max()
    }
}

/// An inference rule: `body ⟹ head`.
///
/// All head variables must occur in the body (range restriction), which
/// [`Rule::new`] enforces — an unrestricted head would derive unbound
/// triples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Rule name, for tracing and statistics (e.g. `"rdfs9-type-inheritance"`).
    pub name: &'static str,
    /// The body atoms, joined conjunctively.
    pub body: Vec<RuleAtom>,
    /// The derived atom.
    pub head: RuleAtom,
}

impl Rule {
    /// Creates a rule, checking range restriction.
    ///
    /// # Panics
    /// Panics if a head variable does not appear in the body — that is a
    /// programming error in rulebase construction, not a runtime condition.
    pub fn new(name: &'static str, body: Vec<RuleAtom>, head: RuleAtom) -> Self {
        let mut body_vars = [false; 256];
        for atom in &body {
            for t in [atom.s, atom.p, atom.o] {
                if let RuleTerm::Var(v) = t {
                    body_vars[v as usize] = true;
                }
            }
        }
        for t in [head.s, head.p, head.o] {
            if let RuleTerm::Var(v) = t {
                assert!(
                    body_vars[v as usize],
                    "rule {name}: head variable ?{v} not bound in body"
                );
            }
        }
        assert!(!body.is_empty(), "rule {name}: empty body");
        Rule { name, body, head }
    }

    /// Number of variables this rule needs in its binding environment.
    pub fn var_count(&self) -> usize {
        self.body
            .iter()
            .chain(std::iter::once(&self.head))
            .filter_map(RuleAtom::max_var)
            .max()
            .map(|v| v as usize + 1)
            .unwrap_or(0)
    }
}

/// Shorthand constructors used by the rulebase builder.
pub mod dsl {
    use super::*;

    /// A variable rule term.
    pub fn v(i: u8) -> RuleTerm {
        RuleTerm::Var(i)
    }

    /// A constant rule term.
    pub fn c(id: TermId) -> RuleTerm {
        RuleTerm::Const(id)
    }

    /// An atom.
    pub fn atom(s: RuleTerm, p: RuleTerm, o: RuleTerm) -> RuleAtom {
        RuleAtom::new(s, p, o)
    }
}

#[cfg(test)]
mod tests {
    use super::dsl::*;
    use super::*;

    #[test]
    fn resolve_const_and_var() {
        let bindings = vec![Some(TermId(7)), None];
        assert_eq!(c(TermId(3)).resolve(&bindings), Some(TermId(3)));
        assert_eq!(v(0).resolve(&bindings), Some(TermId(7)));
        assert_eq!(v(1).resolve(&bindings), None);
        assert_eq!(v(5).resolve(&bindings), None);
    }

    #[test]
    fn var_count() {
        let r = Rule::new(
            "t",
            vec![atom(v(0), c(TermId(1)), v(2))],
            atom(v(2), c(TermId(1)), v(0)),
        );
        assert_eq!(r.var_count(), 3);
    }

    #[test]
    #[should_panic(expected = "head variable")]
    fn unbound_head_var_panics() {
        Rule::new(
            "bad",
            vec![atom(v(0), c(TermId(1)), v(1))],
            atom(v(0), c(TermId(1)), v(9)),
        );
    }

    #[test]
    #[should_panic(expected = "empty body")]
    fn empty_body_panics() {
        Rule::new("bad", vec![], atom(c(TermId(0)), c(TermId(1)), c(TermId(2))));
    }

    #[test]
    fn max_var() {
        assert_eq!(atom(v(1), c(TermId(0)), v(4)).max_var(), Some(4));
        assert_eq!(atom(c(TermId(0)), c(TermId(1)), c(TermId(2))).max_var(), None);
    }
}
