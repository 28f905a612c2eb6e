//! Conjunctive queries over flat relations.
//!
//! Standard notation as in the paper (and Ullman \[41\]):
//!
//! ```text
//! Q(x̄) :- R1(t̄1), …, Rm(t̄m)
//! ```
//!
//! where each term is a variable or a constant. Equality conditions
//! `x = y` / `x = c` are eliminated up front by substitution
//! ([`ConjunctiveQuery::new`] takes an optional equality list); equating two
//! distinct constants makes the query *unsatisfiable*, which we represent
//! explicitly (such a query returns the empty relation on every database —
//! the paper's empty-set analysis needs this case to be first-class).

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use co_object::Atom;

use crate::schema::{RelName, Schema, Var};

/// A term: variable or constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A query variable.
    Var(Var),
    /// An atomic constant.
    Const(Atom),
}

impl Term {
    /// Convenience: a named variable.
    pub fn var(name: &str) -> Term {
        Term::Var(Var::new(name))
    }

    /// Convenience: an integer constant.
    pub fn int(i: i64) -> Term {
        Term::Const(Atom::int(i))
    }

    /// The variable inside, if any.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }

    /// The constant inside, if any.
    pub fn as_const(&self) -> Option<Atom> {
        match self {
            Term::Const(a) => Some(*a),
            Term::Var(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(a) => write!(f, "{a}"),
        }
    }
}

/// One body atom `R(t1, …, tk)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryAtom {
    /// Relation name.
    pub rel: RelName,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl QueryAtom {
    /// Builds an atom.
    pub fn new(rel: &str, args: Vec<Term>) -> QueryAtom {
        QueryAtom { rel: RelName::new(rel), args }
    }

    /// Applies a variable substitution to the arguments.
    pub fn substitute(&self, subst: &HashMap<Var, Term>) -> QueryAtom {
        QueryAtom {
            rel: self.rel,
            args: self
                .args
                .iter()
                .map(|t| match t {
                    Term::Var(v) => *subst.get(v).unwrap_or(t),
                    Term::Const(_) => *t,
                })
                .collect(),
        }
    }

    /// The variables occurring in the atom.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.args.iter().filter_map(Term::as_var)
    }
}

impl fmt::Display for QueryAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.rel)?;
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// An equality condition between two terms, eliminated at construction.
pub type Equality = (Term, Term);

/// Errors from constructing or validating a conjunctive query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// A head variable does not occur in the body (unsafe query).
    UnsafeHeadVar(Var),
    /// An atom's arity disagrees with the schema.
    ArityMismatch {
        /// Relation with the bad atom.
        rel: RelName,
        /// Arity found in the atom.
        found: usize,
        /// Arity declared in the schema.
        declared: usize,
    },
    /// An atom references a relation the schema does not declare.
    UnknownRelation(RelName),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnsafeHeadVar(v) => {
                write!(f, "head variable `{v}` does not occur in the body")
            }
            QueryError::ArityMismatch { rel, found, declared } => {
                write!(f, "atom over `{rel}` has arity {found}, schema declares {declared}")
            }
            QueryError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A conjunctive query `Q(head) :- body`, with equalities pre-substituted.
///
/// `unsatisfiable` marks queries whose equality conditions equated distinct
/// constants: they evaluate to the empty relation on every database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    /// Head (output) terms. Constants are allowed in heads.
    pub head: Vec<Term>,
    /// Body atoms.
    pub body: Vec<QueryAtom>,
    /// True when the equality conditions were contradictory.
    pub unsatisfiable: bool,
}

impl ConjunctiveQuery {
    /// Builds a query, eliminating `equalities` by substitution.
    ///
    /// The substitution uses a union–find over variables; each class maps to
    /// its constant if one is present (two distinct constants mark the query
    /// unsatisfiable) or to its least variable otherwise.
    pub fn new(head: Vec<Term>, body: Vec<QueryAtom>, equalities: &[Equality]) -> ConjunctiveQuery {
        let (subst, unsatisfiable) = resolve_equalities(equalities);
        let head = head
            .iter()
            .map(|t| match t {
                Term::Var(v) => *subst.get(v).unwrap_or(t),
                Term::Const(_) => *t,
            })
            .collect();
        let body = body.iter().map(|a| a.substitute(&subst)).collect();
        ConjunctiveQuery { head, body, unsatisfiable }
    }

    /// A query with no equality conditions.
    pub fn plain(head: Vec<Term>, body: Vec<QueryAtom>) -> ConjunctiveQuery {
        ConjunctiveQuery { head, body, unsatisfiable: false }
    }

    /// Checks safety and schema conformance.
    pub fn validate(&self, schema: &Schema) -> Result<(), QueryError> {
        let body_vars = self.body_vars();
        for t in &self.head {
            if let Term::Var(v) = t {
                if !body_vars.contains(v) {
                    return Err(QueryError::UnsafeHeadVar(*v));
                }
            }
        }
        for atom in &self.body {
            match schema.arity(atom.rel) {
                None => return Err(QueryError::UnknownRelation(atom.rel)),
                Some(a) if a != atom.args.len() => {
                    return Err(QueryError::ArityMismatch {
                        rel: atom.rel,
                        found: atom.args.len(),
                        declared: a,
                    })
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// All variables occurring in the body, sorted.
    pub fn body_vars(&self) -> BTreeSet<Var> {
        self.body.iter().flat_map(|a| a.vars()).collect()
    }

    /// All variables occurring in the head, sorted.
    pub fn head_vars(&self) -> BTreeSet<Var> {
        self.head.iter().filter_map(Term::as_var).collect()
    }

    /// Head arity.
    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// Renames every body variable to a fresh one (head terms renamed
    /// consistently). Used to build the *witness copies* of the simulation
    /// procedure and for capture-free combination of queries.
    pub fn rename_apart(&self) -> (ConjunctiveQuery, HashMap<Var, Var>) {
        let mut map: HashMap<Var, Var> = HashMap::new();
        for v in self.body_vars() {
            map.insert(v, Var::fresh());
        }
        let subst: HashMap<Var, Term> = map.iter().map(|(&v, &w)| (v, Term::Var(w))).collect();
        let q = ConjunctiveQuery {
            head: self
                .head
                .iter()
                .map(|t| match t {
                    Term::Var(v) => *subst.get(v).unwrap_or(t),
                    Term::Const(_) => *t,
                })
                .collect(),
            body: self.body.iter().map(|a| a.substitute(&subst)).collect(),
            unsatisfiable: self.unsatisfiable,
        };
        (q, map)
    }

    /// Applies a substitution to head and body.
    pub fn substitute(&self, subst: &HashMap<Var, Term>) -> ConjunctiveQuery {
        ConjunctiveQuery {
            head: self
                .head
                .iter()
                .map(|t| match t {
                    Term::Var(v) => *subst.get(v).unwrap_or(t),
                    Term::Const(_) => *t,
                })
                .collect(),
            body: self.body.iter().map(|a| a.substitute(subst)).collect(),
            unsatisfiable: self.unsatisfiable,
        }
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q(")?;
        for (i, t) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ") :- ")?;
        if self.unsatisfiable {
            write!(f, "false")?;
            if !self.body.is_empty() {
                write!(f, ", ")?;
            }
        }
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        if self.body.is_empty() && !self.unsatisfiable {
            write!(f, "true")?;
        }
        Ok(())
    }
}

/// Union–find resolution of equality conditions into a substitution.
///
/// Returns the substitution and whether a contradiction (two distinct
/// constants equated) was found.
fn resolve_equalities(equalities: &[Equality]) -> (HashMap<Var, Term>, bool) {
    // Union-find over variables, with an optional constant per class.
    let mut parent: HashMap<Var, Var> = HashMap::new();
    let mut constant: HashMap<Var, Atom> = HashMap::new();
    let mut unsat = false;

    fn find(parent: &mut HashMap<Var, Var>, v: Var) -> Var {
        let p = *parent.entry(v).or_insert(v);
        if p == v {
            return v;
        }
        let root = find(parent, p);
        parent.insert(v, root);
        root
    }

    for (a, b) in equalities {
        match (a, b) {
            (Term::Const(x), Term::Const(y)) => {
                if x != y {
                    unsat = true;
                }
            }
            (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v)) => {
                let r = find(&mut parent, *v);
                match constant.get(&r) {
                    Some(&existing) if existing != *c => unsat = true,
                    _ => {
                        constant.insert(r, *c);
                    }
                }
            }
            (Term::Var(v), Term::Var(w)) => {
                let rv = find(&mut parent, *v);
                let rw = find(&mut parent, *w);
                if rv != rw {
                    // Keep the smaller variable as root for determinism.
                    let (root, child) = if rv <= rw { (rv, rw) } else { (rw, rv) };
                    parent.insert(child, root);
                    match (constant.get(&root).copied(), constant.get(&child).copied()) {
                        (Some(x), Some(y)) if x != y => unsat = true,
                        (None, Some(y)) => {
                            constant.insert(root, y);
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    let vars: Vec<Var> = parent.keys().copied().collect();
    let mut subst = HashMap::new();
    for v in vars {
        let r = find(&mut parent, v);
        let target = match constant.get(&r) {
            Some(&c) => Term::Const(c),
            None => Term::Var(r),
        };
        if target != Term::Var(v) {
            subst.insert(v, target);
        }
    }
    (subst, unsat)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> Term {
        Term::var(name)
    }

    #[test]
    fn equalities_substitute_vars() {
        // q(x) :- R(x, y), y = z, S(z)  ⟹  q(x) :- R(x, y), S(y)
        let q = ConjunctiveQuery::new(
            vec![v("x")],
            vec![QueryAtom::new("R", vec![v("x"), v("y")]), QueryAtom::new("S", vec![v("z")])],
            &[(v("y"), v("z"))],
        );
        assert!(!q.unsatisfiable);
        assert_eq!(q.body[0].args[1], q.body[1].args[0]);
    }

    #[test]
    fn equalities_propagate_constants() {
        let q = ConjunctiveQuery::new(
            vec![v("x")],
            vec![QueryAtom::new("R", vec![v("x"), v("y")])],
            &[(v("y"), Term::int(5))],
        );
        assert_eq!(q.body[0].args[1], Term::int(5));
    }

    #[test]
    fn contradictory_constants_mark_unsat() {
        let q = ConjunctiveQuery::new(
            vec![],
            vec![QueryAtom::new("R", vec![v("x")])],
            &[(v("x"), Term::int(1)), (v("x"), Term::int(2))],
        );
        assert!(q.unsatisfiable);
        let q2 = ConjunctiveQuery::new(vec![], vec![], &[(Term::int(1), Term::int(2))]);
        assert!(q2.unsatisfiable);
    }

    #[test]
    fn chained_equalities_resolve_transitively() {
        let q = ConjunctiveQuery::new(
            vec![v("a")],
            vec![QueryAtom::new("R", vec![v("a"), v("b"), v("c")])],
            &[(v("a"), v("b")), (v("b"), v("c")), (v("c"), Term::int(3))],
        );
        assert_eq!(q.head[0], Term::int(3));
        assert!(q.body[0].args.iter().all(|&t| t == Term::int(3)));
    }

    #[test]
    fn validation_checks_safety_and_schema() {
        let schema = Schema::with_relations(&[("R", &["A", "B"])]);
        let good =
            ConjunctiveQuery::plain(vec![v("x")], vec![QueryAtom::new("R", vec![v("x"), v("y")])]);
        good.validate(&schema).unwrap();

        let unsafe_q =
            ConjunctiveQuery::plain(vec![v("z")], vec![QueryAtom::new("R", vec![v("x"), v("y")])]);
        assert!(matches!(unsafe_q.validate(&schema), Err(QueryError::UnsafeHeadVar(_))));

        let bad_arity = ConjunctiveQuery::plain(vec![], vec![QueryAtom::new("R", vec![v("x")])]);
        assert!(matches!(bad_arity.validate(&schema), Err(QueryError::ArityMismatch { .. })));

        let unknown = ConjunctiveQuery::plain(vec![], vec![QueryAtom::new("T", vec![v("x")])]);
        assert!(matches!(unknown.validate(&schema), Err(QueryError::UnknownRelation(_))));
    }

    #[test]
    fn rename_apart_is_capture_free() {
        let q =
            ConjunctiveQuery::plain(vec![v("x")], vec![QueryAtom::new("R", vec![v("x"), v("y")])]);
        let (r, map) = q.rename_apart();
        assert_eq!(map.len(), 2);
        assert!(r.body_vars().is_disjoint(&q.body_vars()));
        assert_eq!(r.body.len(), 1);
        // Head renamed consistently with body.
        assert_eq!(r.head[0], r.body[0].args[0]);
    }

    #[test]
    fn display_is_datalog_like() {
        let q = ConjunctiveQuery::plain(
            vec![v("x"), Term::int(1)],
            vec![QueryAtom::new("R", vec![v("x"), Term::int(1)])],
        );
        assert_eq!(q.to_string(), "q(x, 1) :- R(x, 1)");
    }
}
