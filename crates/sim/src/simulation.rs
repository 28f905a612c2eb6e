//! Deciding **simulation** of indexed conjunctive queries (§5, Equation 2).
//!
//! `Q ⊴ Q'` (*Q is simulated by Q'*) iff for every database `D`, every
//! group of `Q` is contained in some group of `Q'`:
//!
//! ```text
//! ∀D. ∀ī ∈ idx(Q,D). ∃ī' ∈ idx(Q',D). G_Q(ī) ⊆ G_Q'(ī')        (Eq. 2, d=1)
//! ```
//!
//! The `∀∃∀` alternation makes this strictly harder than classical
//! containment (whose negation is Bernays–Schönfinkel); the paper shows it
//! is nonetheless decidable — the negation falls in Class 1.2 of
//! Dreben–Goldfarb — and NP-complete, via an extension of containment
//! mappings into the query body conjoined with **witness copies** that
//! share the index variables ("φ is a containment mapping from Q'(Ī';V̄')
//! to Q(Ī;V̄) ∧ Q_w(Ī;V̄_w)").
//!
//! # The decision procedure (reconstructed; the PODS paper is an extended
//! # abstract and defers the proof to its full version)
//!
//! **Theorem.** Let `k` be the number of distinct variables in `Q'`'s index
//! terms. `Q ⊴ Q'` iff there is a homomorphism `φ` from `Q'`'s body into
//!
//! ```text
//! B  =  Q.body  ∧  W1 ∧ … ∧ Wk
//! ```
//!
//! where each `Wi` is a copy of `Q.body` with all variables *except the
//! index variables* renamed fresh (the witness copies), such that
//!
//! 1. `φ(V̄') = V̄` positionwise (value terms carried to the distinguished
//!    copy's value terms), and
//! 2. no variable of `Ī'` is mapped to a *private* variable of the
//!    distinguished copy (a non-index variable of `Q.body`).
//!
//! *Soundness.* Fix `D`, a group `ī` of `Q`, and any witness assignment
//! `h₀` realizing the group. Valuate all witness copies by `h₀` (legal:
//! copies share only index variables, on which all members of the group
//! agree). For each member `v̄ ∈ G_Q(ī)` with realizing assignment `h`,
//! the combined valuation `μ = h on Q.body, h₀ on W̄` satisfies `B`, and
//! `μ∘φ` realizes `Q'(ī', v̄)` where `ī' = μ(φ(Ī'))` — constant across
//! members because `φ(Ī')` avoids the distinguished copy's private
//! variables. Hence `G_Q(ī) ⊆ G_Q'(ī')` with `ī'` a realized group of `Q'`.
//!
//! *Completeness.* Consider the canonical database `D_N` freezing `N = k+1`
//! copies of `Q.body` sharing the index variables (frozen to `ī₀`). If
//! `Q ⊴ Q'`, some group `ī'` of `Q'` on `D_N` contains all `N` "pure" value
//! tuples. `ī'` has at most `k` components that are variables' images, so
//! it touches at most `k` of the `N` copies; pick an untouched copy `j` and
//! the homomorphism `ψⱼ` realizing `(ī', v̄ⱼ)`. Reading copy `j` as the
//! distinguished copy and the rest as witnesses, `ψⱼ` is exactly the
//! required `φ`: it carries `V̄'` to copy `j`'s values and its `Ī'`-image
//! avoids copy `j`.
//!
//! The same argument shows that when no `φ` exists, `D_N` (which is what
//! [`simulated_by`] freezes for its search) **is** a concrete
//! counterexample with violated group `ī₀` — so negative answers come with
//! a database that the definitional check refutes, and the property tests
//! verify exactly that.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::ControlFlow;

use co_cq::freeze::freeze_atoms_with;
use co_cq::{Assignment, Database, HomProblem, QueryAtom, Term, Tuple, Var};
use co_object::Atom;

use crate::indexed::{simulation_holds_on, IndexedQuery};

/// Result of a simulation check.
#[derive(Clone, Debug)]
pub enum SimulationAnswer {
    /// Simulation holds, with a syntactic certificate.
    Holds(SimulationCertificate),
    /// Simulation fails, with a concrete counterexample database.
    Fails(Counterexample),
}

impl SimulationAnswer {
    /// Whether simulation holds.
    pub fn holds(&self) -> bool {
        matches!(self, SimulationAnswer::Holds(_))
    }
}

/// A syntactic certificate: the extended containment mapping of §5.
#[derive(Clone, Debug)]
pub struct SimulationCertificate {
    /// The distinguished copy (Q.body, original variables).
    pub distinguished: Vec<QueryAtom>,
    /// The witness copies `W1 ∧ … ∧ Wk` (index variables shared).
    pub witnesses: Vec<Vec<QueryAtom>>,
    /// `φ`: Q'-variables → terms over the combined body.
    pub mapping: HashMap<Var, Term>,
    /// Private (non-index) variables of the distinguished copy, which
    /// `φ(Ī')` must avoid.
    pub private_vars: HashSet<Var>,
    /// Trivial case: `Q` is unsatisfiable (has no groups on any database).
    pub trivial: bool,
}

impl SimulationCertificate {
    /// Re-checks the certificate against the two queries: φ must carry
    /// values to values, every body atom into the combined body, and index
    /// images must avoid the distinguished copy's private variables.
    pub fn verify(&self, q: &IndexedQuery, q2: &IndexedQuery) -> bool {
        if self.trivial {
            return q.unsatisfiable;
        }
        let apply = |t: &Term| match t {
            Term::Var(v) => *self.mapping.get(v).unwrap_or(t),
            Term::Const(_) => *t,
        };
        // (1) value correspondence
        if q2.value.len() != q.value.len() {
            return false;
        }
        if !q2.value.iter().zip(q.value.iter()).all(|(t2, t1)| apply(t2) == *t1) {
            return false;
        }
        // (2) index avoidance
        for t in &q2.index {
            if let Term::Var(_) = t {
                if let Term::Var(w) = apply(t) {
                    if self.private_vars.contains(&w) {
                        return false;
                    }
                }
            }
        }
        // (3) body atoms map into the combined body
        let mut combined: Vec<&QueryAtom> = self.distinguished.iter().collect();
        for w in &self.witnesses {
            combined.extend(w.iter());
        }
        q2.body.iter().all(|atom| {
            let mapped = QueryAtom { rel: atom.rel, args: atom.args.iter().map(&apply).collect() };
            combined.iter().any(|a| **a == mapped)
        })
    }
}

/// A concrete refutation of simulation.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The database on which simulation fails.
    pub db: Database,
    /// A group key of `Q` not contained in any group of `Q'`.
    pub violating_group: Tuple,
}

impl Counterexample {
    /// Confirms the refutation by running the definitional check.
    pub fn verify(&self, q: &IndexedQuery, q2: &IndexedQuery) -> bool {
        !simulation_holds_on(q, q2, &self.db)
    }
}

/// Decides `q ⊴ q2` with the default number of witness copies
/// (`k = |vars(Ī')|`, the provably sufficient bound).
pub fn simulated_by(q: &IndexedQuery, q2: &IndexedQuery) -> SimulationAnswer {
    simulated_by_with_witnesses(q, q2, q2.index_vars().len())
}

/// Boolean convenience for [`simulated_by`].
pub fn is_simulated_by(q: &IndexedQuery, q2: &IndexedQuery) -> bool {
    simulated_by(q, q2).holds()
}

/// Decides simulation using exactly `k` witness copies. Exposed for the
/// ablation experiment (E3): `k` below `|vars(Ī')|` loses completeness,
/// larger `k` only costs time.
pub fn simulated_by_with_witnesses(
    q: &IndexedQuery,
    q2: &IndexedQuery,
    k: usize,
) -> SimulationAnswer {
    // Trivial and degenerate cases first.
    if q.unsatisfiable {
        return SimulationAnswer::Holds(SimulationCertificate {
            distinguished: Vec::new(),
            witnesses: Vec::new(),
            mapping: HashMap::new(),
            private_vars: HashSet::new(),
            trivial: true,
        });
    }
    let expansion = expand_with_witnesses(q, k);
    if q2.unsatisfiable || q.value.len() != q2.value.len() {
        return SimulationAnswer::Fails(expansion.counterexample(q));
    }

    // Fix the value correspondence φ(V̄') = V̄ (frozen images).
    let mut fixed = Assignment::new();
    let mut consistent = true;
    for (t2, t1) in q2.value.iter().zip(q.value.iter()) {
        let target = expansion.frozen_image(t1);
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
    if !consistent {
        return SimulationAnswer::Fails(expansion.counterexample(q));
    }

    // Search homs of q2.body into the frozen expansion. The index-
    // avoidance condition (no index variable of q2 may land on a private
    // atom of the distinguished copy) is enforced *during* the search via
    // forbidden sets, so rejected bindings prune whole subtrees.
    let forbidden: HashMap<Var, HashSet<Atom>> =
        q2.index_vars().into_iter().map(|v| (v, expansion.private_atoms.clone())).collect();
    let mut found: Option<Assignment> = None;
    HomProblem::new(&q2.body, &expansion.db).with_fixed(fixed).with_forbidden(forbidden).for_each(
        |assignment| {
            found = Some(assignment.clone());
            ControlFlow::Break(())
        },
    );

    match found {
        Some(hom) => SimulationAnswer::Holds(expansion.certificate(q2, &hom)),
        None => SimulationAnswer::Fails(expansion.counterexample(q)),
    }
}

/// The frozen expansion `Q.body ∧ W1 ∧ … ∧ Wk` with bookkeeping.
struct Expansion {
    db: Database,
    assignment: HashMap<Var, Atom>,
    distinguished: Vec<QueryAtom>,
    witnesses: Vec<Vec<QueryAtom>>,
    private_vars: HashSet<Var>,
    /// Frozen atoms of the private variables.
    private_atoms: HashSet<Atom>,
}

impl Expansion {
    fn frozen_image(&self, t: &Term) -> Atom {
        match t {
            Term::Const(c) => *c,
            Term::Var(v) => self.assignment[v],
        }
    }

    fn counterexample(&self, q: &IndexedQuery) -> Counterexample {
        Counterexample {
            db: self.db.clone(),
            violating_group: q.index.iter().map(|t| self.frozen_image(t)).collect(),
        }
    }

    fn certificate(&self, q2: &IndexedQuery, hom: &Assignment) -> SimulationCertificate {
        // Unfreeze: frozen atoms back to the variables they froze.
        let inverse: HashMap<Atom, Var> = self.assignment.iter().map(|(&v, &a)| (a, v)).collect();
        let mut mapping = HashMap::new();
        for v in q2.as_cq().body_vars() {
            if let Some(&a) = hom.get(&v) {
                let term = match inverse.get(&a) {
                    Some(&w) => Term::Var(w),
                    None => Term::Const(a),
                };
                mapping.insert(v, term);
            }
        }
        SimulationCertificate {
            distinguished: self.distinguished.clone(),
            witnesses: self.witnesses.clone(),
            mapping,
            private_vars: self.private_vars.clone(),
            trivial: false,
        }
    }
}

/// Builds the frozen expansion of `q` with `k` witness copies sharing the
/// index variables.
fn expand_with_witnesses(q: &IndexedQuery, k: usize) -> Expansion {
    let index_vars: HashSet<Var> = q.index_vars().into_iter().collect();
    let mut assignment: HashMap<Var, Atom> = HashMap::new();
    let mut db = Database::new();

    // Distinguished copy: original variables.
    freeze_atoms_with(&q.body, &mut assignment, &mut db);
    let private_vars: HashSet<Var> =
        q.as_cq().body_vars().into_iter().filter(|v| !index_vars.contains(v)).collect();
    let private_atoms: HashSet<Atom> = private_vars.iter().map(|v| assignment[v]).collect();

    // Witness copies: rename everything except the index variables.
    let mut witnesses = Vec::with_capacity(k);
    for _ in 0..k {
        let mut subst: HashMap<Var, Term> = HashMap::new();
        for v in q.as_cq().body_vars() {
            if !index_vars.contains(&v) {
                subst.insert(v, Term::Var(Var::fresh()));
            }
        }
        let copy: Vec<QueryAtom> = q.body.iter().map(|a| a.substitute(&subst)).collect();
        freeze_atoms_with(&copy, &mut assignment, &mut db);
        witnesses.push(copy);
    }

    Expansion {
        db,
        assignment,
        distinguished: q.body.clone(),
        witnesses,
        private_vars,
        private_atoms,
    }
}

impl fmt::Display for SimulationAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulationAnswer::Holds(_) => write!(f, "simulation holds"),
            SimulationAnswer::Fails(c) => {
                write!(f, "simulation fails on a {}-fact database", c.db.fact_count())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_cq::parse_query;

    fn iq(text: &str, index_arity: usize) -> IndexedQuery {
        IndexedQuery::from_cq(&parse_query(text).unwrap(), index_arity)
    }

    fn check(q: &IndexedQuery, q2: &IndexedQuery) -> bool {
        match simulated_by(q, q2) {
            SimulationAnswer::Holds(cert) => {
                assert!(cert.verify(q, q2), "certificate failed for {q} ⊴ {q2}");
                true
            }
            SimulationAnswer::Fails(cex) => {
                assert!(cex.verify(q, q2), "counterexample failed for {q} ⊴ {q2}");
                false
            }
        }
    }

    #[test]
    fn reflexive() {
        let q = iq("q(X, Y) :- R(X, Y).", 1);
        assert!(check(&q, &q));
    }

    #[test]
    fn restricting_the_group_simulates() {
        // Groups of q1 (only S-supported Ys) ⊆ groups of q2 (all Ys of X).
        let q1 = iq("q(X, Y) :- R(X, Y), S(Y).", 1);
        let q2 = iq("q(X, Y) :- R(X, Y).", 1);
        assert!(check(&q1, &q2));
        assert!(!check(&q2, &q1));
    }

    #[test]
    fn coarser_grouping_simulates_finer() {
        // q1 groups by (X) pairs (Y,Z) of two hops; q2 groups trivially.
        let q1 = iq("q(X, Y) :- R(X, Y).", 1);
        // q2: single global group containing all R-pairs projected to Y:
        let q2 = iq("q(Y) :- R(X, Y).", 0);
        // Every per-X group {Y : R(X,Y)} ⊆ the global group {Y : ∃X R(X,Y)}.
        assert!(check(&q1, &q2));
    }

    #[test]
    fn finer_grouping_does_not_simulate_coarser() {
        // Global group of all Y's vs per-X groups: the global group is not
        // inside any single per-X group once two X's have different Ys.
        let q1 = iq("q(Y) :- R(X, Y).", 0);
        let q2 = iq("q(X, Y) :- R(X, Y).", 1);
        assert!(!check(&q1, &q2));
    }

    #[test]
    fn index_variable_in_target_needs_witnesses() {
        // The classic case where the containment-mapping-without-witnesses
        // test is incomplete: q2's group key is a *value-correlated*
        // variable of q1's body. q1: per-X group of Y with R(X,Y);
        // q2: per-Z group of Y with R(Z,Y). Same queries, so simulation
        // holds (identity), but make the target's index reach through a
        // different relation:
        //   q1(X; Y) :- R(X, Y)
        //   q2(U; Y) :- S(U), R(U, Y)   -- needs S-support
        let q1 = iq("q(X, Y) :- R(X, Y).", 1);
        let q2 = iq("q(U, Y) :- S(U), R(U, Y).", 1);
        // Fails: on a database without S facts q2 has no groups at all.
        assert!(!check(&q1, &q2));
        // And conversely q2 ⊴ q1 holds (its groups are q1's groups).
        assert!(check(&q2, &q1));
    }

    #[test]
    fn witness_copies_are_necessary_for_completeness() {
        // A pair where φ(Ī') must land in a witness copy:
        //   q1(X; Y) :- R(X, Y)
        //   q2(Y0; Y) :- R(X, Y), R(X, Y0)
        // q2's groups: for each (value Y0 reachable from some X), the set of
        // Ys sharing an X with Y0. Claim: q1 ⊴ q2: given q1's group
        // G = {Y : R(X,Y)} pick ī' = any member y0 of G; then
        // G ⊆ {Y : ∃X' R(X',Y) ∧ R(X',y0)}? — not for all members…
        // Actually: with X fixed, G_{q2}(y0) ⊇ {Y : R(X,Y)} = G. ✓
        // The mapping needs φ(Y0) ↦ witness-copy value, exactly condition 2.
        let q1 = iq("q(X, Y) :- R(X, Y).", 1);
        let q2 = iq("q(Y0, Y) :- R(X, Y), R(X, Y0).", 1);
        assert!(check(&q1, &q2));
        // With zero witness copies the (incomplete) test must say no:
        assert!(!simulated_by_with_witnesses(&q1, &q2, 0).holds());
    }

    #[test]
    fn unsatisfiable_source_is_simulated_by_everything() {
        let q1 = iq("q(X, Y) :- R(X, Y), false.", 1);
        let q2 = iq("q(X, Y) :- R(X, Y), S(X, X).", 1);
        assert!(check(&q1, &q2));
        assert!(!check(&q2, &q1));
    }

    #[test]
    fn value_arity_mismatch_fails() {
        let q1 = iq("q(X, Y, Z) :- R(X, Y), R(Y, Z).", 1);
        let q2 = iq("q(X, Y) :- R(X, Y).", 1);
        assert!(!check(&q1, &q2));
    }

    #[test]
    fn constants_in_values_must_match() {
        let q1 = iq("q(X, 1) :- R(X, Y).", 1);
        let q2 = iq("q(X, 1) :- R(X, Y).", 1);
        let q3 = iq("q(X, 2) :- R(X, Y).", 1);
        assert!(check(&q1, &q2));
        assert!(!check(&q1, &q3));
    }

    #[test]
    fn simulation_generalizes_containment() {
        // With empty index, simulation is exactly classical containment
        // (single global group = the full answer set).
        let q1 = iq("q(X, Z) :- E(X, Y), E(Y, Z), E(Z, X).", 0);
        let q2 = iq("q(X, Z) :- E(X, Y), E(Y, Z).", 0);
        assert!(check(&q1, &q2));
        assert!(!check(&q2, &q1));
        let c1 = co_cq::is_contained_in(&q1.as_cq(), &q2.as_cq());
        let c2 = co_cq::is_contained_in(&q2.as_cq(), &q1.as_cq());
        assert!(c1 && !c2);
    }
}
