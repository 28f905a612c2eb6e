//! Deciding **strong simulation** (§6, Equation 4).
//!
//! `Q ⊴ₛ Q'` iff for every database, every group of `Q` *equals* some group
//! of `Q'`:
//!
//! ```text
//! ∀D. ∀ī ∈ idx(Q,D). ∃ī' ∈ idx(Q',D). G_Q(ī) = G_Q'(ī')        (Eq. 4, d=1)
//! ```
//!
//! The two-sided matrix (`↔` instead of `→`) pushes the negation outside
//! every decidable prefix class of Dreben–Goldfarb \[19\] — the paper's
//! decidability of strong simulation is a *new* result there. It is what
//! query equivalence needs: for uninterpreted aggregate functions, two
//! groups produce the same aggregate value for every interpretation iff
//! they are equal (§7), so aggregate-query equivalence reduces to strong
//! simulation (see `co-agg`).
//!
//! # Decision procedure
//!
//! A certificate is a pair:
//!
//! 1. a simulation mapping `φ` as in [`crate::simulation`] (giving
//!    `G_Q(ī) ⊆ G_Q'(ī')` with `ī' = φ(Ī')`), and
//! 2. a classical containment mapping witnessing the *reverse* inclusion
//!    **for that `φ`**: the composite query
//!
//!    ```text
//!    Q_rev(Ī, V̄'') :- Q.body ∧ W1 ∧ … ∧ Wk ∧ Q'.body[Ī'-vars ↦ φ(·), rest fresh; V̄' ↦ V̄'']
//!    ```
//!
//!    must be classically contained in `Q_flat(Ī, V̄) :- Q.body`: every
//!    tuple the `φ`-chosen target group can ever acquire is already in the
//!    source group.
//!
//! Soundness of (1)+(2) is immediate from the two soundness arguments
//! composed. For completeness, [`strongly_simulated_by`] enumerates *all*
//! candidate `φ` homomorphisms (not just the first) and accepts if any
//! passes the reverse check. The extended abstract does not spell out the
//! full-version procedure; we additionally ship a bounded semantic
//! counterexample search ([`refute_strong_simulation`]) justified by the
//! finite-model property the paper notes for Equation 4, and the property
//! tests check the decider and the refuter never disagree on the tested
//! families.

use std::collections::HashMap;
use std::ops::ControlFlow;

use co_cq::{
    is_contained_in, Assignment, ConjunctiveQuery, Database, HomProblem, QueryAtom, Term, Var,
};
use co_object::Atom;

use crate::indexed::IndexedQuery;
use crate::simulation::Counterexample;

/// Result of a strong-simulation check.
#[derive(Clone, Debug)]
pub enum StrongAnswer {
    /// Strong simulation holds with a two-part certificate.
    Holds(StrongCertificate),
    /// No certificate exists (sound "no"; see module docs on completeness).
    Fails(Option<Counterexample>),
}

impl StrongAnswer {
    /// Whether strong simulation was established.
    pub fn holds(&self) -> bool {
        matches!(self, StrongAnswer::Holds(_))
    }
}

/// Certificate for strong simulation.
#[derive(Clone, Debug)]
pub struct StrongCertificate {
    /// The forward simulation mapping (group inclusion `⊆`).
    pub forward: HashMap<Var, Term>,
    /// The reverse composite query that was proven contained in `Q`.
    pub reverse_query: ConjunctiveQuery,
    /// Trivial case: `Q` unsatisfiable.
    pub trivial: bool,
}

/// Decides `q ⊴ₛ q2`.
pub fn strongly_simulated_by(q: &IndexedQuery, q2: &IndexedQuery) -> StrongAnswer {
    if q.unsatisfiable {
        return StrongAnswer::Holds(StrongCertificate {
            forward: HashMap::new(),
            reverse_query: q.as_cq(),
            trivial: true,
        });
    }
    if q2.unsatisfiable || q.value.len() != q2.value.len() {
        let cex = crate::simulation::simulated_by(q, q2);
        return StrongAnswer::Fails(match cex {
            crate::simulation::SimulationAnswer::Fails(c) => Some(c),
            _ => None,
        });
    }

    // Enumerate forward simulation mappings; try the reverse check on each.
    let k = q2.index_vars().len();
    let enumeration = enumerate_simulation_homs(q, q2, k);
    for hom in &enumeration.homs {
        let phi = enumeration.unfreeze(q2, hom);
        let reverse_query = build_reverse_query(q, q2, &enumeration.combined_body, &phi);
        if is_contained_in(&reverse_query, &flat_query(q)) {
            return StrongAnswer::Holds(StrongCertificate {
                forward: phi,
                reverse_query,
                trivial: false,
            });
        }
    }
    StrongAnswer::Fails(refute_strong_simulation(q, q2, 2))
}

/// Boolean convenience for [`strongly_simulated_by`].
pub fn is_strongly_simulated_by(q: &IndexedQuery, q2: &IndexedQuery) -> bool {
    strongly_simulated_by(q, q2).holds()
}

/// `Q` as a flat CQ with head `Ī ++ V̄`.
fn flat_query(q: &IndexedQuery) -> ConjunctiveQuery {
    q.as_cq()
}

struct Enumeration {
    /// All candidate forward homs (into the frozen expansion).
    homs: Vec<Assignment>,
    /// Frozen-atom → variable inverse of the expansion.
    inverse: HashMap<Atom, Var>,
    /// The syntactic combined body (distinguished + witnesses).
    combined_body: Vec<QueryAtom>,
}

impl Enumeration {
    fn unfreeze(&self, q2: &IndexedQuery, hom: &Assignment) -> HashMap<Var, Term> {
        let mut phi = HashMap::new();
        for v in q2.as_cq().body_vars() {
            if let Some(&a) = hom.get(&v) {
                let t = match self.inverse.get(&a) {
                    Some(&w) => Term::Var(w),
                    None => Term::Const(a),
                };
                phi.insert(v, t);
            }
        }
        phi
    }
}

/// Enumerates every valid forward simulation hom (value-fixed, index
/// avoiding the distinguished copy's private variables).
fn enumerate_simulation_homs(q: &IndexedQuery, q2: &IndexedQuery, k: usize) -> Enumeration {
    use co_cq::freeze::freeze_atoms_with;
    use std::collections::HashSet;

    let index_vars: HashSet<Var> = q.index_vars().into_iter().collect();
    let mut assignment: HashMap<Var, Atom> = HashMap::new();
    let mut db = Database::new();
    freeze_atoms_with(&q.body, &mut assignment, &mut db);
    let private_atoms: HashSet<Atom> = q
        .as_cq()
        .body_vars()
        .into_iter()
        .filter(|v| !index_vars.contains(v))
        .map(|v| assignment[&v])
        .collect();

    let mut combined_body = q.body.clone();
    for _ in 0..k {
        let mut subst: HashMap<Var, Term> = HashMap::new();
        for v in q.as_cq().body_vars() {
            if !index_vars.contains(&v) {
                subst.insert(v, Term::Var(Var::fresh()));
            }
        }
        let copy: Vec<QueryAtom> = q.body.iter().map(|a| a.substitute(&subst)).collect();
        freeze_atoms_with(&copy, &mut assignment, &mut db);
        combined_body.extend(copy);
    }

    // Value fixing.
    let mut fixed = Assignment::new();
    let mut consistent = true;
    for (t2, t1) in q2.value.iter().zip(q.value.iter()) {
        let target = match t1 {
            Term::Const(c) => *c,
            Term::Var(v) => assignment[v],
        };
        match t2 {
            Term::Const(c) => {
                if *c != target {
                    consistent = false;
                }
            }
            Term::Var(v) => match fixed.insert(*v, target) {
                Some(prev) if prev != target => consistent = false,
                _ => {}
            },
        }
    }

    let mut homs = Vec::new();
    if consistent {
        let forbidden: HashMap<Var, HashSet<Atom>> =
            q2.index_vars().into_iter().map(|v| (v, private_atoms.clone())).collect();
        HomProblem::new(&q2.body, &db).with_fixed(fixed).with_forbidden(forbidden).for_each(|a| {
            homs.push(a.clone());
            ControlFlow::Continue(())
        });
    }

    let inverse: HashMap<Atom, Var> = assignment.iter().map(|(&v, &a)| (a, v)).collect();
    Enumeration { homs, inverse, combined_body }
}

/// Builds the composite reverse query for a candidate `φ`:
/// head `(Ī, V̄'')`, body = combined expansion ∧ `Q'.body` with index
/// variables substituted by `φ` and the remaining variables fresh.
fn build_reverse_query(
    q: &IndexedQuery,
    q2: &IndexedQuery,
    combined_body: &[QueryAtom],
    phi: &HashMap<Var, Term>,
) -> ConjunctiveQuery {
    // Substitution on the q2 copy: index vars ↦ φ(v); every other variable
    // fresh (capture-free w.r.t. the combined body).
    let index_vars2: std::collections::HashSet<Var> = q2.index_vars().into_iter().collect();
    let mut subst: HashMap<Var, Term> = HashMap::new();
    for v in q2.as_cq().body_vars() {
        if index_vars2.contains(&v) {
            subst.insert(v, *phi.get(&v).unwrap_or(&Term::Var(v)));
        } else {
            subst.insert(v, Term::Var(Var::fresh()));
        }
    }
    let mut body = combined_body.to_vec();
    body.extend(q2.body.iter().map(|a| a.substitute(&subst)));

    let mut head: Vec<Term> = q.index.clone();
    head.extend(q2.value.iter().map(|t| match t {
        Term::Var(v) => subst[v],
        Term::Const(c) => Term::Const(*c),
    }));
    ConjunctiveQuery::plain(head, body)
}

/// Bounded semantic refutation: searches small canonical-style databases
/// for one where some group of `q` equals no group of `q2`.
///
/// The candidate family freezes `1..=max_copies` copies of `q.body`
/// (sharing index variables) optionally unioned with a frozen copy of
/// `q2.body`, which empirically covers the refutations arising from the
/// tested families; the finite-model property of Equation 4's negation
/// (noted by the paper via \[19, 20\]) guarantees *some* finite refutation
/// exists whenever strong simulation fails.
pub fn refute_strong_simulation(
    q: &IndexedQuery,
    q2: &IndexedQuery,
    max_copies: usize,
) -> Option<Counterexample> {
    use co_cq::freeze::freeze_atoms_with;
    use std::collections::HashSet;

    if q.unsatisfiable {
        return None;
    }
    let index_vars: HashSet<Var> = q.index_vars().into_iter().collect();

    /// How to add a copy of `q2`'s body to a candidate database.
    #[derive(Clone, Copy)]
    enum Q2Copy {
        None,
        /// Renamed fully apart from `q`'s frozen body.
        Disjoint,
        /// Index variables unified positionwise with `q`'s index variables
        /// (this is the family that separates `G_Q(ī) ⊊ G_Q'(ī)` cases).
        SharedIndex,
    }

    for copies in 1..=max_copies {
        for q2_copy in [Q2Copy::None, Q2Copy::SharedIndex, Q2Copy::Disjoint] {
            let mut assignment: HashMap<Var, Atom> = HashMap::new();
            let mut db = Database::new();
            freeze_atoms_with(&q.body, &mut assignment, &mut db);
            for _ in 1..copies {
                let mut subst: HashMap<Var, Term> = HashMap::new();
                for v in q.as_cq().body_vars() {
                    if !index_vars.contains(&v) {
                        subst.insert(v, Term::Var(Var::fresh()));
                    }
                }
                let copy: Vec<QueryAtom> = q.body.iter().map(|a| a.substitute(&subst)).collect();
                freeze_atoms_with(&copy, &mut assignment, &mut db);
            }
            if !q2.unsatisfiable {
                match q2_copy {
                    Q2Copy::None => {}
                    Q2Copy::Disjoint => {
                        let (renamed, _) = q2.as_cq().rename_apart();
                        freeze_atoms_with(&renamed.body, &mut assignment, &mut db);
                    }
                    Q2Copy::SharedIndex => {
                        let mut subst: HashMap<Var, Term> = HashMap::new();
                        // Unify q2's index variables with q's, positionwise.
                        for (t2, t1) in q2.index.iter().zip(q.index.iter()) {
                            if let (Term::Var(v2), Term::Var(_)) = (t2, t1) {
                                subst.entry(*v2).or_insert(*t1);
                            }
                        }
                        for v in q2.as_cq().body_vars() {
                            subst.entry(v).or_insert_with(|| Term::Var(Var::fresh()));
                        }
                        let copy: Vec<QueryAtom> =
                            q2.body.iter().map(|a| a.substitute(&subst)).collect();
                        freeze_atoms_with(&copy, &mut assignment, &mut db);
                    }
                }
            }
            if let Some(violating_group) = crate::indexed::strong_simulation_violation(q, q2, &db) {
                return Some(Counterexample { db, violating_group });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_cq::parse_query;

    fn iq(text: &str, index_arity: usize) -> IndexedQuery {
        IndexedQuery::from_cq(&parse_query(text).unwrap(), index_arity)
    }

    #[test]
    fn reflexive() {
        let q = iq("q(X, Y) :- R(X, Y).", 1);
        assert!(is_strongly_simulated_by(&q, &q));
    }

    #[test]
    fn strict_subset_groups_are_not_strong() {
        // Simulation holds (restriction) but strong simulation must fail:
        // the S-filtered group is a strict subset on some databases.
        let q1 = iq("q(X, Y) :- R(X, Y), S(Y).", 1);
        let q2 = iq("q(X, Y) :- R(X, Y).", 1);
        assert!(crate::simulation::is_simulated_by(&q1, &q2));
        let ans = strongly_simulated_by(&q1, &q2);
        assert!(!ans.holds());
        if let StrongAnswer::Fails(Some(cex)) = &ans {
            assert!(!crate::indexed::strong_simulation_holds_on(&q1, &q2, &cex.db));
        } else {
            panic!("expected a concrete counterexample");
        }
    }

    #[test]
    fn renamed_queries_are_strongly_equivalent() {
        let q1 = iq("q(X, Y) :- R(X, Y), T(X).", 1);
        let q2 = iq("q(A, B) :- R(A, B), T(A).", 1);
        assert!(is_strongly_simulated_by(&q1, &q2));
        assert!(is_strongly_simulated_by(&q2, &q1));
    }

    #[test]
    fn redundant_atoms_keep_strong_simulation() {
        let q1 = iq("q(X, Y) :- R(X, Y).", 1);
        let q2 = iq("q(X, Y) :- R(X, Y), R(X, Z).", 1);
        // Identical group structure: the extra atom is implied.
        assert!(is_strongly_simulated_by(&q1, &q2));
        assert!(is_strongly_simulated_by(&q2, &q1));
    }

    #[test]
    fn coarser_grouping_is_not_strongly_simulated() {
        // q1: global group; q2: per-X groups. Simulation fails already;
        // strong simulation must too.
        let q1 = iq("q(Y) :- R(X, Y).", 0);
        let q2 = iq("q(X, Y) :- R(X, Y).", 1);
        assert!(!is_strongly_simulated_by(&q1, &q2));
        // And per-X groups vs the global group: simulation holds but
        // equality fails when two X's have different Y-sets.
        assert!(crate::simulation::is_simulated_by(&q2, &q1));
        assert!(!is_strongly_simulated_by(&q2, &q1));
    }

    #[test]
    fn unsatisfiable_source_is_strongly_simulated() {
        let q1 = iq("q(X, Y) :- R(X, Y), false.", 1);
        let q2 = iq("q(X, Y) :- R(X, Y).", 1);
        assert!(is_strongly_simulated_by(&q1, &q2));
        assert!(!is_strongly_simulated_by(&q2, &q1));
    }

    #[test]
    fn different_filters_fail_strongly() {
        let q1 = iq("q(X, Y) :- R(X, Y), S(Y).", 1);
        let q2 = iq("q(X, Y) :- R(X, Y), T(Y).", 1);
        assert!(!is_strongly_simulated_by(&q1, &q2));
    }

    #[test]
    fn refuter_agrees_with_decider_on_positive_cases() {
        let q1 = iq("q(X, Y) :- R(X, Y), T(X).", 1);
        let q2 = iq("q(A, B) :- R(A, B), T(A).", 1);
        assert!(refute_strong_simulation(&q1, &q2, 3).is_none());
    }
}
