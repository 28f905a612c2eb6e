//! Freezing queries into canonical databases.
//!
//! The canonical-database technique of Chandra & Merlin \[11\]: replace every
//! variable of a query body with a distinct fresh constant; the body atoms
//! become the facts of the *canonical database*. A query `Q1` is contained
//! in `Q2` iff `Q2` "recovers" `Q1`'s frozen head on `Q1`'s canonical
//! database. The simulation procedures of §5 freeze *multiple* renamed-apart
//! copies of a body that share their index variables (Equation 2's witness
//! copies), which [`freeze_atoms_with`] supports by letting the caller seed
//! the variable→constant map.

use std::collections::HashMap;

use co_object::Atom;

use crate::db::Database;
use crate::query::{ConjunctiveQuery, QueryAtom, Term};
use crate::schema::Var;

/// Result of freezing: the canonical database plus the variable assignment.
#[derive(Clone, Debug)]
pub struct Frozen {
    /// The canonical database (one fact per body atom).
    pub db: Database,
    /// Frozen constant chosen for each body variable.
    pub assignment: HashMap<Var, Atom>,
}

impl Frozen {
    /// The frozen image of a term.
    pub fn image(&self, t: &Term) -> Atom {
        match t {
            Term::Const(c) => *c,
            Term::Var(v) => *self
                .assignment
                .get(v)
                .unwrap_or_else(|| panic!("term variable `{v}` was not frozen")),
        }
    }

    /// The frozen image of the query head.
    pub fn head_image(&self, q: &ConjunctiveQuery) -> Vec<Atom> {
        q.head.iter().map(|t| self.image(t)).collect()
    }
}

/// Freezes a query body into its canonical database.
pub fn freeze(q: &ConjunctiveQuery) -> Frozen {
    let mut assignment = HashMap::new();
    let mut db = Database::new();
    freeze_atoms_with(&q.body, &mut assignment, &mut db);
    Frozen { db, assignment }
}

/// Freezes additional atoms into an existing canonical database, reusing
/// constants for variables already present in `assignment` (this is how
/// witness copies share their index variables).
pub fn freeze_atoms_with(
    atoms: &[QueryAtom],
    assignment: &mut HashMap<Var, Atom>,
    db: &mut Database,
) {
    for atom in atoms {
        let tuple: Vec<Atom> = atom
            .args
            .iter()
            .map(|t| match t {
                Term::Const(c) => *c,
                Term::Var(v) => *assignment.entry(*v).or_insert_with(Atom::fresh),
            })
            .collect();
        db.insert(atom.rel, tuple);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::query::Term;

    fn v(name: &str) -> Term {
        Term::var(name)
    }

    #[test]
    fn canonical_db_has_one_fact_per_atom() {
        let q = ConjunctiveQuery::plain(
            vec![v("x")],
            vec![
                QueryAtom::new("R", vec![v("x"), v("y")]),
                QueryAtom::new("R", vec![v("y"), v("x")]),
            ],
        );
        let frozen = freeze(&q);
        assert_eq!(frozen.db.fact_count(), 2);
        assert_eq!(frozen.assignment.len(), 2);
    }

    #[test]
    fn query_recovers_its_own_frozen_head() {
        let q = ConjunctiveQuery::plain(
            vec![v("x"), Term::int(3)],
            vec![QueryAtom::new("R", vec![v("x"), v("y")])],
        );
        let frozen = freeze(&q);
        let result = evaluate(&q, &frozen.db);
        assert!(result.contains(&frozen.head_image(&q)));
    }

    #[test]
    fn shared_assignment_reuses_constants() {
        let a1 = vec![QueryAtom::new("R", vec![v("i"), v("a")])];
        let a2 = vec![QueryAtom::new("R", vec![v("i"), v("b")])];
        let mut assignment = HashMap::new();
        let mut db = Database::new();
        freeze_atoms_with(&a1, &mut assignment, &mut db);
        freeze_atoms_with(&a2, &mut assignment, &mut db);
        // `i` frozen once: both facts share the same first column.
        let rel = db.relation(crate::schema::RelName::new("R"));
        let firsts: std::collections::HashSet<Atom> = rel.iter().map(|t| t[0]).collect();
        assert_eq!(firsts.len(), 1);
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn constants_freeze_to_themselves() {
        let q =
            ConjunctiveQuery::plain(vec![], vec![QueryAtom::new("R", vec![Term::int(5), v("y")])]);
        let frozen = freeze(&q);
        let rel = frozen.db.relation(crate::schema::RelName::new("R"));
        assert!(rel.iter().all(|t| t[0] == Atom::int(5)));
    }
}
