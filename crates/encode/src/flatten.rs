//! Flattening COQL queries into query trees (§5.2).
//!
//! After normalization (`co_lang::normalize`) a COQL query is a tree of
//! comprehensions whose generators range over input relations. This module
//! turns that tree into a [`QueryTree`] — "each COQL query Q can be encoded
//! as m conjunctive queries Q1,…,Qm" — with one conjunctive query per set
//! node:
//!
//! * the node's **body** contains the relation atoms of *all ancestor
//!   generators plus its own*, with one column variable per (generator,
//!   attribute) pair, and all ancestor + own equality conditions applied by
//!   unification;
//! * the node's **index formals** are the ancestor generators' column
//!   variables (the paper's index variables: they identify the parent
//!   element this inner set belongs to); the parent's matching
//!   [`ChildLink`] carries the same terms under the parent's unifier;
//! * the node's **value columns** and [`Template`] come from the
//!   comprehension head's atomic leaves and nested sets.
//!
//! Conditions touching only ancestor columns correctly specialize the index
//! formals (a constant condition turns a formal into a constant, an
//! equality merges two formals), which is how statically-empty inner sets
//! at *some* parent rows — the `outernest` behaviour — are represented.
//!
//! The lynchpin correctness property, checked by tests and properties:
//! `flatten(normalize(Q)).evaluate(D) == evaluate(Q, D)` for every flat
//! database `D`.

use std::collections::BTreeMap;
use std::fmt;

use std::collections::BTreeSet;

use co_cq::{ConjunctiveQuery, QueryAtom, RelName, Schema, Term, Var};
use co_lang::{AtomTerm, Comprehension, NormalValue};

use co_sim::tree::{ChildLink, QueryTree, Template, TreeNode};
use co_sim::IndexedQuery;

/// A flattening error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlattenError {
    /// Description.
    pub message: String,
}

impl FlattenError {
    fn new(message: impl Into<String>) -> FlattenError {
        FlattenError { message: message.into() }
    }
}

impl fmt::Display for FlattenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flattening error: {}", self.message)
    }
}

impl std::error::Error for FlattenError {}

/// Flattens a normalized COQL query into a query tree over the flat schema.
pub fn flatten_query(c: &Comprehension, schema: &Schema) -> Result<QueryTree, FlattenError> {
    let mut state = State { schema, col_vars: BTreeMap::new() };
    let root = state.node_of(c, &[], &[], false)?;
    let tree = QueryTree { root };
    tree.validate().map_err(|e| FlattenError::new(e.to_string()))?;
    Ok(tree)
}

struct State<'a> {
    schema: &'a Schema,
    /// One column variable per (generator variable, attribute position).
    col_vars: BTreeMap<(Var, usize), Var>,
}

/// An ancestor generator with its relation.
type Gen = (Var, RelName);

/// A column reference `(generator, attribute)` in normal-form terms.
type ColRef = (Var, Option<co_object::Field>);

/// The column references a comprehension (transitively) depends on: its
/// conditions, atomic head leaves, and everything nested comprehensions
/// need. Used to narrow a child node's index to the ancestor columns it
/// actually reads — the paper's index variables are exactly the variables
/// shared between the inner and outer queries, not the whole context.
fn needed_cols(c: &Comprehension, out: &mut BTreeSet<ColRef>) {
    for (a, b) in &c.conds {
        collect_term(a, out);
        collect_term(b, out);
    }
    needed_cols_nv(&c.head, out);
}

fn needed_cols_nv(nv: &NormalValue, out: &mut BTreeSet<ColRef>) {
    match nv {
        NormalValue::Atom(t) => collect_term(t, out),
        NormalValue::Record(fields) => {
            for (_, sub) in fields {
                needed_cols_nv(sub, out);
            }
        }
        NormalValue::Set(c) => needed_cols(c, out),
    }
}

fn collect_term(t: &AtomTerm, out: &mut BTreeSet<ColRef>) {
    if let AtomTerm::Col { var, field } = t {
        out.insert((*var, *field));
    }
}

impl State<'_> {
    /// The column variable for a generator's attribute position.
    fn col(&mut self, gvar: Var, pos: usize) -> Var {
        *self.col_vars.entry((gvar, pos)).or_insert_with(Var::fresh)
    }

    /// The relation atom of a generator.
    fn atom_of(&mut self, gvar: Var, rel: RelName) -> Result<QueryAtom, FlattenError> {
        let arity = self
            .schema
            .arity(rel)
            .ok_or_else(|| FlattenError::new(format!("unknown relation `{rel}`")))?;
        let args = (0..arity).map(|i| Term::Var(self.col(gvar, i))).collect();
        Ok(QueryAtom { rel, args })
    }

    /// Resolves a normal-form atomic term to a query term.
    fn term_of(&mut self, t: &AtomTerm, gens: &[Gen]) -> Result<Term, FlattenError> {
        match t {
            AtomTerm::Const(a) => Ok(Term::Const(*a)),
            AtomTerm::Col { var, field } => {
                let (_, rel) = gens
                    .iter()
                    .find(|(g, _)| g == var)
                    .ok_or_else(|| FlattenError::new(format!("unbound generator `{var}`")))?;
                let pos = match field {
                    None => 0,
                    Some(f) => {
                        self.schema.relation(*rel).and_then(|rs| rs.position(*f)).ok_or_else(
                            || FlattenError::new(format!("no column `{f}` in `{rel}`")),
                        )?
                    }
                };
                Ok(Term::Var(self.col(*var, pos)))
            }
        }
    }

    /// The (ordered, deduplicated) index columns: for each ancestor
    /// generator in order, the columns of it that appear in `needed`.
    fn index_columns(
        &mut self,
        anc_gens: &[Gen],
        needed: &BTreeSet<ColRef>,
    ) -> Result<Vec<Term>, FlattenError> {
        let mut out = Vec::new();
        for &(gvar, rel) in anc_gens {
            let rs = self
                .schema
                .relation(rel)
                .ok_or_else(|| FlattenError::new(format!("unknown relation `{rel}`")))?
                .clone();
            for (pos, attr) in rs.attrs.iter().enumerate() {
                let hit = needed.contains(&(gvar, Some(*attr)))
                    || (pos == 0 && needed.contains(&(gvar, None)));
                if hit {
                    out.push(Term::Var(self.col(gvar, pos)));
                }
            }
        }
        Ok(out)
    }

    /// Builds the tree node for comprehension `c` under the given ancestor
    /// generators and conditions.
    fn node_of(
        &mut self,
        c: &Comprehension,
        anc_gens: &[Gen],
        anc_conds: &[(AtomTerm, AtomTerm)],
        anc_unsat: bool,
    ) -> Result<TreeNode, FlattenError> {
        // All generators visible in this node's scope.
        let mut gens: Vec<Gen> = anc_gens.to_vec();
        gens.extend(c.gens.iter().copied());

        // Raw body atoms and equality conditions.
        let mut body = Vec::with_capacity(gens.len());
        for &(gvar, rel) in &gens {
            body.push(self.atom_of(gvar, rel)?);
        }
        let mut equalities = Vec::new();
        for (a, b) in anc_conds.iter().chain(c.conds.iter()) {
            equalities.push((self.term_of(a, &gens)?, self.term_of(b, &gens)?));
        }

        // Index formals: the ancestor columns this comprehension actually
        // reads (conditions, head leaves, nested needs) — narrowing keeps
        // redundant ancestor generators out of the index, which both
        // shrinks the witness copies of the simulation procedures and lets
        // tree minimization remove them.
        let mut needed = BTreeSet::new();
        needed_cols(c, &mut needed);
        let index_raw = self.index_columns(anc_gens, &needed)?;

        // Template and value columns from the head.
        let mut value_raw = Vec::new();
        let mut children = Vec::new();
        let all_conds: Vec<(AtomTerm, AtomTerm)> =
            anc_conds.iter().chain(c.conds.iter()).cloned().collect();
        let template = self.template_of(
            &c.head,
            &gens,
            &all_conds,
            c.unsat || anc_unsat,
            &mut value_raw,
            &mut children,
        )?;

        // Apply equality unification through ConjunctiveQuery::new, with a
        // combined head so index and value terms are rewritten consistently.
        let mut head = index_raw.clone();
        head.extend(value_raw.iter().copied());
        let cq = ConjunctiveQuery::new(head, body, &equalities);
        let unsatisfiable = cq.unsatisfiable || c.unsat || anc_unsat;
        let (index, value) = cq.head.split_at(index_raw.len());

        // Child links must be rewritten by the *same* unifier; rebuild them
        // from the raw links through an auxiliary query with the link as
        // head. (Same equalities ⟹ same union-find representatives.)
        let children = children
            .into_iter()
            .map(|(raw_link, node)| {
                let link_cq = ConjunctiveQuery::new(raw_link, Vec::new(), &equalities);
                ChildLink { link: link_cq.head, node }
            })
            .collect();

        Ok(TreeNode {
            query: IndexedQuery {
                index: index.to_vec(),
                value: value.to_vec(),
                body: cq.body,
                unsatisfiable,
            },
            template,
            children,
        })
    }

    /// Walks a head normal value, collecting value columns and child nodes.
    #[allow(clippy::too_many_arguments)]
    fn template_of(
        &mut self,
        nv: &NormalValue,
        gens: &[Gen],
        conds: &[(AtomTerm, AtomTerm)],
        unsat: bool,
        value_raw: &mut Vec<Term>,
        children: &mut Vec<(Vec<Term>, TreeNode)>,
    ) -> Result<Template, FlattenError> {
        match nv {
            NormalValue::Atom(t) => {
                let term = self.term_of(t, gens)?;
                value_raw.push(term);
                Ok(Template::AtomCol(value_raw.len() - 1))
            }
            NormalValue::Record(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (f, sub) in fields {
                    out.push((*f, self.template_of(sub, gens, conds, unsat, value_raw, children)?));
                }
                Ok(Template::record(out))
            }
            NormalValue::Set(inner) => {
                let node = self.node_of(inner, gens, conds, unsat)?;
                // Raw link mirrors the child's narrowed index formals: the
                // ancestor columns the child reads (same computation as in
                // node_of, over the same generator list).
                let mut needed = BTreeSet::new();
                needed_cols(inner, &mut needed);
                let raw_link = self.index_columns(gens, &needed)?;
                children.push((raw_link, node));
                Ok(Template::Child(children.len() - 1))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_cq::Database;
    use co_lang::{evaluate, normalize, parse_coql, CoDatabase, CoqlSchema};

    fn setup() -> (CoqlSchema, Schema, Database) {
        let flat = Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]);
        let coql = CoqlSchema::from_flat(&flat);
        let db =
            Database::from_ints(&[("R", &[&[1, 10], &[1, 11], &[2, 20]]), ("S", &[&[10], &[20]])]);
        (coql, flat, db)
    }

    fn check(src: &str) {
        let (coql_schema, flat_schema, db) = setup();
        let e = parse_coql(src).unwrap();
        let c = normalize(&e, &coql_schema).unwrap();
        let tree = flatten_query(&c, &flat_schema).unwrap();
        let direct = evaluate(&e, &CoDatabase::from_flat(&db, &flat_schema)).unwrap();
        let via_tree = tree.evaluate(&db);
        assert_eq!(direct, via_tree, "{src}:\n direct {direct}\n tree   {via_tree}");
    }

    #[test]
    fn flat_select_flattens() {
        check("select x.B from x in R where x.A = 1");
        check("select [a: x.A, b: x.B] from x in R");
    }

    #[test]
    fn nested_group_flattens() {
        check("select [a: x.A, g: (select y.B from y in R where y.A = x.A)] from x in R");
    }

    #[test]
    fn possibly_empty_inner_sets() {
        // outernest-style: inner set joins S and can be empty.
        check("select [a: x.A, g: (select y.C from y in S where y.C = x.B)] from x in R");
    }

    #[test]
    fn doubly_nested() {
        check(
            "select [a: x.A, gg: (select [b: y.B, h: (select z.C from z in S where z.C = y.B)] \
             from y in R where y.A = x.A)] from x in R",
        );
    }

    #[test]
    fn singleton_and_empty() {
        check("{7}");
        check("select {x.A} from x in R");
        check("select [g: {}] from x in R");
        check("flatten({})");
    }

    #[test]
    fn products_and_constants() {
        check("select [l: x.A, r: y.C] from x in R, y in S");
        check("select [k: 5, v: x.B] from x in R where x.A = 2");
        check("select x.A from x in R where 1 = 2");
    }

    #[test]
    fn flatten_of_nested_select() {
        check("flatten(select (select y.C from y in S where y.C = x.B) from x in R)");
    }

    #[test]
    fn node_count_matches_set_nodes() {
        let (coql_schema, flat_schema, _) = setup();
        let e =
            parse_coql("select [a: x.A, g: (select y.B from y in R where y.A = x.A)] from x in R")
                .unwrap();
        let c = normalize(&e, &coql_schema).unwrap();
        let tree = flatten_query(&c, &flat_schema).unwrap();
        assert_eq!(tree.depth(), c.depth());
        assert_eq!(tree.root.children.len(), 1);
    }
}
