//! # co-agg — queries with grouping and aggregation (§7 of the paper)
//!
//! "Complex objects and aggregates are related in a natural way \[33\]. We
//! show how to derive from our results for complex objects new containment
//! and equivalence results for queries with grouping and aggregation over
//! flat relations. … checking the equivalence of conjunctive queries with
//! grouping and aggregates is **NP-complete**."
//!
//! An [`AggQuery`] is `Q(ḡ, f1(a1), …, fk(ak)) :- body`: group the body's
//! answers by the group-by terms `ḡ` and apply each aggregate function to
//! its argument column of the group. Aggregate functions are treated as
//! **uninterpreted** (§7): two queries are equivalent iff they agree for
//! *every* interpretation of the function symbols, which holds iff their
//! *group structures* coincide — for visible group keys,
//!
//! ```text
//! Q ≡ Q'  ⟺  ∀D: keys(Q,D) = keys(Q',D) ∧ ∀ḡ: G_Q(ḡ) = G_Q'(ḡ)
//! ```
//!
//! and both directions reduce to *classical* containment of composite
//! conjunctive queries ([`agg_contained_in`]) — hence NP-completeness,
//! hardness inherited from containment \[11\]. When the group keys are
//! *hidden* (only aggregate values are output), the target group is
//! existentially quantified and equivalence becomes mutual **strong
//! simulation** (Equation 4) — [`hidden_key_equivalent`] — which is where
//! the paper's §6 machinery earns its keep.
//!
//! Concrete (interpreted) evaluation with set-based `count/sum/min/max`
//! ([`AggFn`]) is provided as the semantic cross-check: the uninterpreted
//! decider is *sound* for any concrete interpretation (equal group
//! structures force equal aggregate values), and the property tests verify
//! exactly that. Note the semantics is set-based (`COUNT DISTINCT` style),
//! matching COQL's set world; bag aggregates are outside the paper's model
//! (bags are ref \[15\]'s territory).

#![warn(missing_docs)]

pub mod hierarchical;

use std::collections::BTreeMap;
use std::fmt;

use co_cq::{contained_in, ConjunctiveQuery, Database, QueryAtom, Relation, Term, Tuple, Var};
use co_object::Atom;
use co_sim::{is_strongly_simulated_by, IndexedQuery};

pub use hierarchical::{
    hierarchical_contained_in, hierarchical_equivalent, HierOutput, HierarchicalAgg,
};

/// An aggregate function symbol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AggFn {
    /// Number of distinct values (set-based count).
    Count,
    /// Sum of distinct integer values.
    Sum,
    /// Minimum integer value.
    Min,
    /// Maximum integer value.
    Max,
    /// An uninterpreted function symbol.
    Uninterpreted(String),
}

impl AggFn {
    /// Applies an interpreted function to a set of atoms. Uninterpreted
    /// symbols cannot be evaluated (returns `None`).
    pub fn apply(&self, values: &[Atom]) -> Option<Atom> {
        let ints = || values.iter().map(|a| a.as_int()).collect::<Option<Vec<i64>>>();
        match self {
            AggFn::Count => Some(Atom::int(values.len() as i64)),
            AggFn::Sum => Some(Atom::int(ints()?.iter().sum())),
            AggFn::Min => Some(Atom::int(ints()?.into_iter().min()?)),
            AggFn::Max => Some(Atom::int(ints()?.into_iter().max()?)),
            AggFn::Uninterpreted(_) => None,
        }
    }
}

impl fmt::Display for AggFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggFn::Count => write!(f, "count"),
            AggFn::Sum => write!(f, "sum"),
            AggFn::Min => write!(f, "min"),
            AggFn::Max => write!(f, "max"),
            AggFn::Uninterpreted(name) => write!(f, "{name}"),
        }
    }
}

/// One aggregate term `f(x)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggTerm {
    /// The function symbol.
    pub func: AggFn,
    /// The aggregated body variable.
    pub arg: Var,
}

/// A conjunctive query with grouping and aggregation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggQuery {
    /// Group-by terms (visible in the output).
    pub group_by: Vec<Term>,
    /// Aggregate terms, in output order.
    pub aggregates: Vec<AggTerm>,
    /// Body atoms.
    pub body: Vec<QueryAtom>,
    /// Whether equality elimination found a contradiction.
    pub unsatisfiable: bool,
}

impl AggQuery {
    /// Builds an aggregate query from a datalog-style body.
    ///
    /// `parse("q(X) :- R(X, Y).", &[("count", "Y")])` groups `R` by its
    /// first column and counts distinct second columns.
    pub fn parse(body: &str, aggs: &[(&str, &str)]) -> Result<AggQuery, co_cq::parse::ParseError> {
        let cq = co_cq::parse_query(body)?;
        let aggregates = aggs
            .iter()
            .map(|(f, v)| AggTerm {
                func: match *f {
                    "count" => AggFn::Count,
                    "sum" => AggFn::Sum,
                    "min" => AggFn::Min,
                    "max" => AggFn::Max,
                    other => AggFn::Uninterpreted(other.to_string()),
                },
                arg: Var::new(v),
            })
            .collect();
        Ok(AggQuery {
            group_by: cq.head,
            aggregates,
            body: cq.body,
            unsatisfiable: cq.unsatisfiable,
        })
    }

    /// The indexed-query view: index = group-by terms, value = aggregate
    /// argument variables. Its grouped semantics *is* the group structure
    /// the uninterpreted equivalence compares.
    pub fn as_indexed(&self) -> IndexedQuery {
        IndexedQuery {
            index: self.group_by.clone(),
            value: self.aggregates.iter().map(|a| Term::Var(a.arg)).collect(),
            body: self.body.clone(),
            unsatisfiable: self.unsatisfiable,
        }
    }

    /// The flat view `Q(ḡ, ā) :- body`.
    pub fn as_cq(&self) -> ConjunctiveQuery {
        self.as_indexed().as_cq()
    }

    /// Evaluates with interpreted aggregate functions; `None` if any
    /// function is uninterpreted or applied to non-integers.
    pub fn evaluate(&self, db: &Database) -> Option<Relation> {
        let groups = self.as_indexed().groups(db);
        let mut out = Relation::new();
        for (key, members) in groups {
            let mut row: Tuple = key.clone();
            for (i, agg) in self.aggregates.iter().enumerate() {
                let column: Vec<Atom> = {
                    let mut c: Vec<Atom> = members.iter().map(|t| t[i]).collect();
                    c.sort();
                    c.dedup();
                    c
                };
                row.push(agg.func.apply(&column)?);
            }
            out.insert(row);
        }
        Some(out)
    }

    /// The group structure on a database: group key → set of aggregate-
    /// argument tuples. Two queries agree under *every* interpretation of
    /// the aggregate functions iff these structures are equal.
    pub fn group_structure(&self, db: &Database) -> BTreeMap<Tuple, Relation> {
        self.as_indexed().groups(db)
    }
}

impl fmt::Display for AggQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q(")?;
        for (i, t) in self.group_by.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        for a in &self.aggregates {
            if !self.group_by.is_empty() {
                write!(f, ", ")?;
            }
            write!(f, "{}({})", a.func, a.arg)?;
        }
        write!(f, ") :- ")?;
        for (i, atom) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{atom}")?;
        }
        Ok(())
    }
}

/// Compatibility of the aggregate signatures: same width and the same
/// function symbols positionwise (a `count` can never equal a `sum` under
/// *every* interpretation — we compare symbols, treating even the built-ins
/// as uninterpreted, per §7).
fn signatures_match(q1: &AggQuery, q2: &AggQuery) -> bool {
    q1.group_by.len() == q2.group_by.len()
        && q1.aggregates.len() == q2.aggregates.len()
        && q1.aggregates.iter().zip(q2.aggregates.iter()).all(|(a, b)| a.func == b.func)
}

/// Decides uninterpreted containment `Q ⊑ Q'`: on every database, every
/// output tuple of `Q` is an output tuple of `Q'` under every
/// interpretation of the aggregate functions.
///
/// Both directions of the group-structure condition are classical
/// containment checks:
///
/// 1. `(ḡ, v̄) ∈ Q ⟹ (ḡ, v̄) ∈ Q'` — containment of the flat views, which
///    gives `G_Q(ḡ) ⊆ G_Q'(ḡ)` and `keys(Q) ⊆ keys(Q')`;
/// 2. `G_Q'(ḡ) ⊆ G_Q(ḡ)` for `ḡ ∈ keys(Q)` — containment of the composite
///    `Q_rev(ḡ, v̄) :- Q.body[witness] ∧ Q'.body` (joined on the group-by
///    terms) in the flat view of `Q`.
pub fn agg_contained_in(q1: &AggQuery, q2: &AggQuery) -> bool {
    if q1.unsatisfiable {
        return true;
    }
    if q2.unsatisfiable || !signatures_match(q1, q2) {
        return false;
    }
    let flat1 = q1.as_cq();
    let flat2 = q2.as_cq();
    if contained_in(&flat1, &flat2).is_none() {
        return false;
    }
    // Reverse inclusion on Q1-realized keys.
    let reverse = reverse_query(q1, q2);
    contained_in(&reverse, &flat1).is_some()
}

/// `Q_rev(ḡ, v̄) :- Q1.body[fresh witness] ∧ Q2.body[group-by unified]`.
fn reverse_query(q1: &AggQuery, q2: &AggQuery) -> ConjunctiveQuery {
    // A fresh witness copy of q1's body realizing the group key.
    let (witness, _) = q1.as_cq().rename_apart();
    let wit_keys: Vec<Term> = witness.head[..q1.group_by.len()].to_vec();

    // A fresh copy of q2's body whose group-by terms are unified with the
    // witness's key terms.
    let (copy2, _) = q2.as_cq().rename_apart();
    let keys2: Vec<Term> = copy2.head[..q2.group_by.len()].to_vec();
    let vals2: Vec<Term> = copy2.head[q2.group_by.len()..].to_vec();

    let mut body = witness.body.clone();
    body.extend(copy2.body.iter().cloned());
    let equalities: Vec<(Term, Term)> =
        wit_keys.iter().copied().zip(keys2.iter().copied()).collect();
    let mut head = wit_keys;
    head.extend(vals2);
    ConjunctiveQuery::new(head, body, &equalities)
}

/// Decides uninterpreted equivalence: `Q ≡ Q'` for every interpretation of
/// the aggregate functions (§7's NP-complete problem).
pub fn agg_equivalent(q1: &AggQuery, q2: &AggQuery) -> bool {
    agg_contained_in(q1, q2) && agg_contained_in(q2, q1)
}

/// Equivalence when the group keys are **hidden** (only aggregate columns
/// are output): the output is `{ f̄(G(ḡ)) : ḡ }`, so for uninterpreted `f̄`
/// equivalence means the two *sets of groups* coincide — mutual **strong
/// simulation** (§6, Equation 4).
pub fn hidden_key_equivalent(q1: &AggQuery, q2: &AggQuery) -> bool {
    if !signatures_match(q1, q2) {
        return q1.unsatisfiable && q2.unsatisfiable;
    }
    let i1 = q1.as_indexed();
    let i2 = q2.as_indexed();
    is_strongly_simulated_by(&i1, &i2) && is_strongly_simulated_by(&i2, &i1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpreted_evaluation_counts_distinct() {
        let q = AggQuery::parse("q(X) :- R(X, Y).", &[("count", "Y")]).unwrap();
        let db = Database::from_ints(&[("R", &[&[1, 10], &[1, 11], &[1, 10], &[2, 20]])]);
        let r = q.evaluate(&db).unwrap();
        assert!(r.contains(&[Atom::int(1), Atom::int(2)]));
        assert!(r.contains(&[Atom::int(2), Atom::int(1)]));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn sum_min_max() {
        let q = AggQuery::parse("q(X) :- R(X, Y).", &[("sum", "Y"), ("min", "Y"), ("max", "Y")])
            .unwrap();
        let db = Database::from_ints(&[("R", &[&[1, 10], &[1, 11]])]);
        let r = q.evaluate(&db).unwrap();
        assert!(r.contains(&[Atom::int(1), Atom::int(21), Atom::int(10), Atom::int(11)]));
    }

    #[test]
    fn renamed_queries_are_equivalent() {
        let q1 = AggQuery::parse("q(X) :- R(X, Y), S(X).", &[("count", "Y")]).unwrap();
        let q2 = AggQuery::parse("q(A) :- R(A, B), S(A).", &[("count", "B")]).unwrap();
        assert!(agg_equivalent(&q1, &q2));
    }

    #[test]
    fn redundant_atom_preserves_equivalence() {
        let q1 = AggQuery::parse("q(X) :- R(X, Y).", &[("count", "Y")]).unwrap();
        let q2 = AggQuery::parse("q(X) :- R(X, Y), R(X, Z).", &[("count", "Y")]).unwrap();
        assert!(agg_equivalent(&q1, &q2));
    }

    #[test]
    fn extra_filters_break_equivalence_but_not_containment_direction() {
        let filtered = AggQuery::parse("q(X) :- R(X, Y), S(Y).", &[("count", "Y")]).unwrap();
        let plain = AggQuery::parse("q(X) :- R(X, Y).", &[("count", "Y")]).unwrap();
        // Not equivalent: the filter changes group contents (and even keys).
        assert!(!agg_equivalent(&filtered, &plain));
        // And containment fails in both directions: counts of subgroups are
        // not output tuples of the unfiltered query (different counts), and
        // vice versa.
        assert!(!agg_contained_in(&filtered, &plain));
        assert!(!agg_contained_in(&plain, &filtered));
    }

    #[test]
    fn different_function_symbols_never_equivalent() {
        let q1 = AggQuery::parse("q(X) :- R(X, Y).", &[("count", "Y")]).unwrap();
        let q2 = AggQuery::parse("q(X) :- R(X, Y).", &[("sum", "Y")]).unwrap();
        assert!(!agg_equivalent(&q1, &q2));
    }

    #[test]
    fn uninterpreted_symbols_compare_by_name() {
        let q1 = AggQuery::parse("q(X) :- R(X, Y).", &[("median", "Y")]).unwrap();
        let q2 = AggQuery::parse("q(A) :- R(A, B).", &[("median", "B")]).unwrap();
        assert!(agg_equivalent(&q1, &q2));
        let db = Database::from_ints(&[("R", &[&[1, 2]])]);
        assert!(q1.evaluate(&db).is_none(), "uninterpreted functions don't evaluate");
    }

    #[test]
    fn grouping_column_matters() {
        let by_first = AggQuery::parse("q(X) :- R(X, Y).", &[("count", "Y")]).unwrap();
        let by_second = AggQuery::parse("q(Y) :- R(X, Y).", &[("count", "X")]).unwrap();
        assert!(!agg_equivalent(&by_first, &by_second));
    }

    #[test]
    fn equivalence_implies_equal_interpreted_results() {
        let q1 = AggQuery::parse("q(X) :- R(X, Y).", &[("count", "Y")]).unwrap();
        let q2 = AggQuery::parse("q(A) :- R(A, B), R(A, C).", &[("count", "B")]).unwrap();
        assert!(agg_equivalent(&q1, &q2));
        for seed in 0..20u64 {
            let db = random_db(seed);
            assert_eq!(q1.evaluate(&db), q2.evaluate(&db), "seed {seed}");
        }
    }

    #[test]
    fn hidden_keys_use_strong_simulation() {
        // With hidden keys, grouping by X vs by a renamed X is equivalent…
        let q1 = AggQuery::parse("q(X) :- R(X, Y).", &[("count", "Y")]).unwrap();
        let q2 = AggQuery::parse("q(A) :- R(A, B).", &[("count", "B")]).unwrap();
        assert!(hidden_key_equivalent(&q1, &q2));
        // …but grouping by X vs the global group is not.
        let q3 = AggQuery::parse("q() :- R(X, Y).", &[("count", "Y")]).unwrap();
        assert!(!hidden_key_equivalent(&q1, &q3));
    }

    #[test]
    fn hidden_vs_visible_keys_differ() {
        // Visible keys distinguish which group carries which key; q1 groups
        // by X, q4 groups by a *different* variable with the same group
        // contents pattern — visible-key equivalence fails, hidden-key
        // holds when the group families coincide.
        let q1 = AggQuery::parse("q(X) :- R(X, X).", &[("count", "X")]).unwrap();
        let q4 = AggQuery::parse("q(Y) :- R(Y, Y).", &[("count", "Y")]).unwrap();
        assert!(agg_equivalent(&q1, &q4));
        assert!(hidden_key_equivalent(&q1, &q4));
    }

    fn random_db(seed: u64) -> Database {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new();
        for _ in 0..rng.gen_range(1..8) {
            let t = vec![Atom::int(rng.gen_range(0..4)), Atom::int(rng.gen_range(0..4))];
            db.insert(co_cq::RelName::new("R"), t);
        }
        db
    }
}
