//! Answering queries using views (ref \[27\] of the paper; §1 motivation).
//!
//! "More recently, query containment has been used to determine when
//! queries are independent of updates to the database \[31\], rewriting
//! queries using views \[12, 27\] …" — this module implements the
//! containment-based core of the views application for conjunctive
//! queries: *unfolding* a rewriting written over view predicates into a
//! query over base relations, and checking that the rewriting is
//! equivalent to (or contained in) the original query.
//!
//! A [`View`] is a named conjunctive query; a rewriting is any conjunctive
//! query whose body may use view names as relations. [`unfold`] replaces
//! each view atom by a fresh copy of the view's body with head variables
//! unified to the atom's arguments — the standard expansion — after which
//! classical containment decides soundness (`expansion ⊑ query`) and
//! completeness (`query ⊑ expansion`) of the rewriting.

use std::collections::HashMap;
use std::fmt;

use crate::containment::is_contained_in;
use crate::query::ConjunctiveQuery;
use crate::schema::RelName;

/// A named view definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct View {
    /// The view's name (used as a relation in rewritings).
    pub name: RelName,
    /// Its definition over base relations.
    pub definition: ConjunctiveQuery,
}

impl View {
    /// Defines a view from datalog syntax; the head predicate is the name.
    pub fn new(name: &str, definition: ConjunctiveQuery) -> View {
        View { name: RelName::new(name), definition }
    }
}

/// Errors from unfolding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViewError {
    /// A view atom's arity differs from its definition's head width.
    ArityMismatch {
        /// The offending view.
        view: RelName,
        /// Arity used in the rewriting.
        used: usize,
        /// Head width of the definition.
        declared: usize,
    },
}

impl fmt::Display for ViewError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewError::ArityMismatch { view, used, declared } => write!(
                f,
                "view `{view}` used with arity {used}, defined with head width {declared}"
            ),
        }
    }
}

impl std::error::Error for ViewError {}

/// Unfolds every view atom in `rewriting` into the view's body (fresh
/// variables per occurrence, head unified with the atom's arguments).
/// Non-view atoms pass through.
pub fn unfold(rewriting: &ConjunctiveQuery, views: &[View]) -> Result<ConjunctiveQuery, ViewError> {
    let by_name: HashMap<RelName, &View> = views.iter().map(|v| (v.name, v)).collect();
    let mut body = Vec::new();
    let mut equalities = Vec::new();
    for atom in &rewriting.body {
        match by_name.get(&atom.rel) {
            None => body.push(atom.clone()),
            Some(view) => {
                if view.definition.head.len() != atom.args.len() {
                    return Err(ViewError::ArityMismatch {
                        view: view.name,
                        used: atom.args.len(),
                        declared: view.definition.head.len(),
                    });
                }
                let (copy, _) = view.definition.rename_apart();
                // Unify the copy's head with the atom's arguments.
                for (head_term, arg) in copy.head.iter().zip(atom.args.iter()) {
                    equalities.push((*head_term, *arg));
                }
                body.extend(copy.body.iter().cloned());
            }
        }
    }
    let out = ConjunctiveQuery::new(rewriting.head.clone(), body, &equalities);
    Ok(ConjunctiveQuery { unsatisfiable: out.unsatisfiable || rewriting.unsatisfiable, ..out })
}

/// Whether `rewriting` (over views) is a **sound** rewriting of `query`
/// (over base relations): its expansion is contained in the query.
pub fn rewriting_sound(
    rewriting: &ConjunctiveQuery,
    views: &[View],
    query: &ConjunctiveQuery,
) -> Result<bool, ViewError> {
    Ok(is_contained_in(&unfold(rewriting, views)?, query))
}

/// Whether `rewriting` is an **equivalent** rewriting of `query`.
pub fn rewriting_equivalent(
    rewriting: &ConjunctiveQuery,
    views: &[View],
    query: &ConjunctiveQuery,
) -> Result<bool, ViewError> {
    let expansion = unfold(rewriting, views)?;
    Ok(is_contained_in(&expansion, query) && is_contained_in(query, &expansion))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;

    fn view(name: &str, def: &str) -> View {
        View::new(name, parse_query(def).unwrap())
    }

    #[test]
    fn unfolding_expands_view_atoms() {
        // V(x, z) := E(x, y), E(y, z); rewriting uses V twice.
        let views = vec![view("V", "v(X, Z) :- E(X, Y), E(Y, Z).")];
        let rewriting = parse_query("q(A, C) :- V(A, B), V(B, C).").unwrap();
        let expansion = unfold(&rewriting, &views).unwrap();
        // Two copies of the 2-atom body.
        assert_eq!(expansion.body.len(), 4);
        assert!(expansion.body.iter().all(|a| a.rel == RelName::new("E")));
        // The expansion is the 4-path query.
        let four_path = parse_query("q(A, E) :- E(A, B), E(B, C), E(C, D), E(D, E).").unwrap();
        assert!(crate::containment::equivalent(&expansion, &four_path));
    }

    #[test]
    fn equivalent_rewriting_is_recognized() {
        let views = vec![view("V", "v(X, Z) :- E(X, Y), E(Y, Z).")];
        let query = parse_query("q(A, C) :- E(A, B1), E(B1, B2), E(B2, B3), E(B3, C).").unwrap();
        let rewriting = parse_query("q(A, C) :- V(A, B), V(B, C).").unwrap();
        assert!(rewriting_equivalent(&rewriting, &views, &query).unwrap());
    }

    #[test]
    fn sound_but_incomplete_rewriting() {
        // The view loses the middle vertex; a rewriting that re-joins on it
        // is sound but stricter than the 2-path query… here: V ∘ filter.
        let views = vec![view("V", "v(X, Z) :- E(X, Y), E(Y, Z).")];
        let query = parse_query("q(A, C) :- E(A, B), E(B, C).").unwrap();
        // Rewriting demands an extra loop: sound, not equivalent.
        let strict = parse_query("q(A, C) :- V(A, C), V(C, C).").unwrap();
        assert!(rewriting_sound(&strict, &views, &query).unwrap());
        assert!(!rewriting_equivalent(&strict, &views, &query).unwrap());
    }

    #[test]
    fn unsound_rewriting_is_rejected() {
        let views = vec![view("V", "v(X) :- E(X, Y).")];
        let query = parse_query("q(X) :- E(X, X).").unwrap();
        // "Has an outgoing edge" does not imply "has a self-loop".
        let rewriting = parse_query("q(X) :- V(X).").unwrap();
        assert!(!rewriting_sound(&rewriting, &views, &query).unwrap());
    }

    #[test]
    fn view_constants_and_repeats_unify() {
        let views = vec![view("V", "v(X, X, 1) :- E(X, X).")];
        let rewriting = parse_query("q(A) :- V(A, A, 1).").unwrap();
        let expansion = unfold(&rewriting, &views).unwrap();
        assert!(!expansion.unsatisfiable);
        let direct = parse_query("q(A) :- E(A, A).").unwrap();
        assert!(crate::containment::equivalent(&expansion, &direct));
        // Mismatched constant makes the expansion unsatisfiable.
        let bad = parse_query("q(A) :- V(A, A, 2).").unwrap();
        assert!(unfold(&bad, &views).unwrap().unsatisfiable);
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let views = vec![view("V", "v(X, Z) :- E(X, Z).")];
        let rewriting = parse_query("q(A) :- V(A).").unwrap();
        assert!(matches!(unfold(&rewriting, &views), Err(ViewError::ArityMismatch { .. })));
    }
}
