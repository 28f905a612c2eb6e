//! Normalization of COQL into comprehension normal form.
//!
//! The paper's flattening (§5.2) — "each COQL query Q can be encoded as m
//! conjunctive queries Q1,…,Qm" — first rewrites the query so that every
//! generator ranges *directly over an input relation*. This is the standard
//! normalization underlying conservativity (Wong \[43\], Paredaens & Van
//! Gucht \[34\]); the rewrite rules are the set-monad laws:
//!
//! ```text
//! select H from …, x in (select H' from ḡ where C'), … where C
//!   ⟶ select H[x↦H'] from …, ḡ, … where C' ∧ C[x↦H']
//! select H from …, x in {E}, … where C        ⟶ inline x := E
//! select H from …, x in {}, …  where C        ⟶ statically empty
//! x in flatten(E)                              ⟶ two generator layers
//! [A1:E1,…].Ai                                 ⟶ Ei
//! ```
//!
//! The result ([`NormalValue`]) is a tree of [`Comprehension`]s: each set
//! level is a comprehension whose generators are input relations and whose
//! conditions are atomic equalities — precisely one conjunctive query per
//! set node of the output type, ready for `co-encode` to turn into a
//! `co_sim::QueryTree`.
//!
//! Normalization requires **flat input relations**, matching the paper's
//! §5 assumption ("we will assume from now on that all input relations are
//! flat"); nested inputs are first encoded by `co-encode`.

use std::collections::BTreeMap;
use std::fmt;

use co_cq::{Database, RelName, Var};
use co_object::{Atom, Field, Type, Value};

use crate::ast::Expr;
use crate::types::CoqlSchema;

/// An atomic-valued term in normal form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AtomTerm {
    /// A constant.
    Const(Atom),
    /// Column `field` of generator `var`; `field = None` when the
    /// generator's relation is a set of bare atoms.
    Col {
        /// The generator variable.
        var: Var,
        /// The projected attribute, if the elements are records.
        field: Option<Field>,
    },
}

impl fmt::Display for AtomTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtomTerm::Const(a) => write!(f, "{a}"),
            AtomTerm::Col { var, field: Some(fl) } => write!(f, "{var}.{fl}"),
            AtomTerm::Col { var, field: None } => write!(f, "{var}"),
        }
    }
}

/// A normal-form value: how one element of the result is assembled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NormalValue {
    /// An atomic component.
    Atom(AtomTerm),
    /// A record of normal values (fields sorted by label).
    Record(Vec<(Field, NormalValue)>),
    /// A nested set, produced by a comprehension over the ambient bindings.
    Set(Comprehension),
}

/// One set level: generators over input relations, atomic equalities, and
/// a head normal value (which may reference ambient generators).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comprehension {
    /// Generators `(x, R)`: `x` ranges over the tuples of relation `R`.
    pub gens: Vec<(Var, RelName)>,
    /// Atomic equality conditions.
    pub conds: Vec<(AtomTerm, AtomTerm)>,
    /// Statically empty (a `{}` generator was inlined).
    pub unsat: bool,
    /// How each element is assembled.
    pub head: Box<NormalValue>,
}

/// A normalization error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NormError {
    /// Description.
    pub message: String,
}

impl NormError {
    fn new(message: impl Into<String>) -> NormError {
        NormError { message: message.into() }
    }
}

impl fmt::Display for NormError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "normalization error: {}", self.message)
    }
}

impl std::error::Error for NormError {}

/// Normalizes a closed, set-typed COQL expression over a **flat** schema.
pub fn normalize(expr: &Expr, schema: &CoqlSchema) -> Result<Comprehension, NormError> {
    if !schema.is_flat() {
        return Err(NormError::new(
            "normalization requires flat input relations (encode nested inputs first, §5.1)",
        ));
    }
    match norm(expr, schema, &BTreeMap::new())? {
        NormalValue::Set(c) => Ok(c),
        other => Err(NormError::new(format!("query must be set-typed, normal form was {other:?}"))),
    }
}

fn norm(
    expr: &Expr,
    schema: &CoqlSchema,
    env: &BTreeMap<Var, NormalValue>,
) -> Result<NormalValue, NormError> {
    match expr {
        Expr::Const(a) => Ok(NormalValue::Atom(AtomTerm::Const(*a))),
        Expr::Var(v) => {
            env.get(v).cloned().ok_or_else(|| NormError::new(format!("unbound variable `{v}`")))
        }
        Expr::Rel(r) => {
            let ty = schema
                .relation(*r)
                .ok_or_else(|| NormError::new(format!("unknown relation `{r}`")))?;
            let fresh = Var::fresh();
            let head = element_value(fresh, ty)?;
            Ok(NormalValue::Set(Comprehension {
                gens: vec![(fresh, *r)],
                conds: vec![],
                unsat: false,
                head: Box::new(head),
            }))
        }
        Expr::Record(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (name, e) in fields {
                out.push((*name, norm(e, schema, env)?));
            }
            out.sort_by_key(|(f, _)| *f);
            Ok(NormalValue::Record(out))
        }
        Expr::Proj(e, field) => match norm(e, schema, env)? {
            NormalValue::Record(fields) => fields
                .iter()
                .find(|(f, _)| f == field)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| NormError::new(format!("no field `{field}`"))),
            other => Err(NormError::new(format!(
                "projection `.{field}` of non-record normal form {other:?}"
            ))),
        },
        Expr::Singleton(e) => Ok(NormalValue::Set(Comprehension {
            gens: vec![],
            conds: vec![],
            unsat: false,
            head: Box::new(norm(e, schema, env)?),
        })),
        Expr::EmptySet(elem_ty) => Ok(NormalValue::Set(Comprehension {
            gens: vec![],
            conds: vec![],
            unsat: true,
            head: Box::new(skeleton(elem_ty)),
        })),
        Expr::Flatten(e) => {
            let c1 = norm_set(e, schema, env)?;
            match *c1.head {
                NormalValue::Set(c2) => Ok(NormalValue::Set(Comprehension {
                    gens: c1.gens.into_iter().chain(c2.gens).collect(),
                    conds: c1.conds.into_iter().chain(c2.conds).collect(),
                    unsat: c1.unsat || c2.unsat,
                    head: c2.head,
                })),
                // flatten({}) and friends: statically empty of unknown shape.
                ref other if c1.unsat => Ok(NormalValue::Set(Comprehension {
                    gens: vec![],
                    conds: vec![],
                    unsat: true,
                    head: Box::new(other.clone()),
                })),
                other => Err(NormError::new(format!("flatten of a set of non-sets: {other:?}"))),
            }
        }
        Expr::Select { head, bindings, conds } => {
            let mut env = env.clone();
            let mut gens = Vec::new();
            let mut out_conds = Vec::new();
            let mut unsat = false;
            for (v, gen_expr) in bindings {
                let c = norm_set(gen_expr, schema, &env)?;
                gens.extend(c.gens);
                out_conds.extend(c.conds);
                unsat |= c.unsat;
                env.insert(*v, *c.head);
            }
            for (a, b) in conds {
                let na = norm(a, schema, &env)?;
                let nb = norm(b, schema, &env)?;
                match (na, nb) {
                    (NormalValue::Atom(ta), NormalValue::Atom(tb)) => {
                        out_conds.push((ta, tb));
                    }
                    (na, nb) => {
                        return Err(NormError::new(format!("non-atomic equality {na:?} = {nb:?}")))
                    }
                }
            }
            let head_nv = norm(head, schema, &env)?;
            Ok(NormalValue::Set(Comprehension {
                gens,
                conds: out_conds,
                unsat,
                head: Box::new(head_nv),
            }))
        }
    }
}

fn norm_set(
    expr: &Expr,
    schema: &CoqlSchema,
    env: &BTreeMap<Var, NormalValue>,
) -> Result<Comprehension, NormError> {
    match norm(expr, schema, env)? {
        NormalValue::Set(c) => Ok(c),
        other => Err(NormError::new(format!("expected a set, normal form was {other:?}"))),
    }
}

/// The normal value describing one element of a flat relation bound to a
/// fresh generator variable.
fn element_value(var: Var, rel_ty: &Type) -> Result<NormalValue, NormError> {
    match rel_ty {
        Type::Set(elem) => match elem.as_ref() {
            Type::Atom => Ok(NormalValue::Atom(AtomTerm::Col { var, field: None })),
            Type::Record(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (f, t) in fields {
                    if !matches!(t, Type::Atom) {
                        return Err(NormError::new(format!(
                            "relation element field `{f}` is not atomic (input not flat)"
                        )));
                    }
                    out.push((*f, NormalValue::Atom(AtomTerm::Col { var, field: Some(*f) })));
                }
                Ok(NormalValue::Record(out))
            }
            other => Err(NormError::new(format!("non-flat relation element type {other}"))),
        },
        other => Err(NormError::new(format!("relation type is not a set: {other}"))),
    }
}

/// A placeholder normal value of a given type, used as the head of
/// statically-empty comprehensions (never evaluated).
fn skeleton(ty: &Type) -> NormalValue {
    match ty {
        Type::Atom | Type::Bottom => NormalValue::Atom(AtomTerm::Const(Atom::str("\u{22a5}"))),
        Type::Record(fields) => {
            NormalValue::Record(fields.iter().map(|(f, t)| (*f, skeleton(t))).collect())
        }
        Type::Set(elem) => NormalValue::Set(Comprehension {
            gens: vec![],
            conds: vec![],
            unsat: true,
            head: Box::new(skeleton(elem)),
        }),
    }
}

/// Direct evaluation of a comprehension over a flat relational database —
/// the reference for "normalization preserves semantics" (property-tested
/// against [`crate::eval::evaluate`]).
///
/// Columns are resolved *positionally* through the flat [`co_cq::Schema`], since
/// relation tuples are positional while normal-form terms name attributes.
pub fn eval_comprehension(
    c: &Comprehension,
    db: &Database,
    schema: &co_cq::Schema,
) -> Result<Value, NormError> {
    eval_comp_in(c, db, schema, &BTreeMap::new())
}

/// Ambient bindings: generator variable → (its relation, its tuple).
type CompEnv = BTreeMap<Var, (RelName, Vec<Atom>)>;

fn eval_comp_in(
    c: &Comprehension,
    db: &Database,
    schema: &co_cq::Schema,
    env: &CompEnv,
) -> Result<Value, NormError> {
    if c.unsat {
        return Ok(Value::empty_set());
    }
    let mut elems = Vec::new();
    eval_gens(c, &c.gens, db, schema, env.clone(), &mut elems)?;
    Ok(Value::set(elems))
}

fn eval_gens(
    c: &Comprehension,
    remaining: &[(Var, RelName)],
    db: &Database,
    schema: &co_cq::Schema,
    env: CompEnv,
    out: &mut Vec<Value>,
) -> Result<(), NormError> {
    match remaining.split_first() {
        None => {
            for (a, b) in &c.conds {
                if atom_of(a, schema, &env)? != atom_of(b, schema, &env)? {
                    return Ok(());
                }
            }
            out.push(eval_head(&c.head, db, schema, &env)?);
            Ok(())
        }
        Some((&(gvar, rel), rest)) => {
            let relation = db.relation(rel);
            for tuple in relation.iter_sorted() {
                let mut env2 = env.clone();
                env2.insert(gvar, (rel, tuple.clone()));
                eval_gens(c, rest, db, schema, env2, out)?;
            }
            Ok(())
        }
    }
}

fn atom_of(t: &AtomTerm, schema: &co_cq::Schema, env: &CompEnv) -> Result<Atom, NormError> {
    match t {
        AtomTerm::Const(a) => Ok(*a),
        AtomTerm::Col { var, field } => {
            let (rel, tuple) =
                env.get(var).ok_or_else(|| NormError::new(format!("unbound generator `{var}`")))?;
            let pos = match field {
                None => 0,
                Some(f) => schema
                    .relation(*rel)
                    .and_then(|rs| rs.position(*f))
                    .ok_or_else(|| NormError::new(format!("no column `{f}` in `{rel}`")))?,
            };
            tuple
                .get(pos)
                .copied()
                .ok_or_else(|| NormError::new(format!("column {pos} out of range in `{rel}`")))
        }
    }
}

fn eval_head(
    head: &NormalValue,
    db: &Database,
    schema: &co_cq::Schema,
    env: &CompEnv,
) -> Result<Value, NormError> {
    match head {
        NormalValue::Atom(t) => Ok(Value::Atom(atom_of(t, schema, env)?)),
        NormalValue::Record(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (f, v) in fields {
                out.push((*f, eval_head(v, db, schema, env)?));
            }
            Value::record(out).map_err(|e| NormError::new(e.to_string()))
        }
        NormalValue::Set(c) => eval_comp_in(c, db, schema, env),
    }
}

impl Comprehension {
    /// Total number of set nodes (comprehensions) in this normal form —
    /// the paper's `m` in "encoded as m conjunctive queries".
    pub fn set_node_count(&self) -> usize {
        fn count_nv(nv: &NormalValue) -> usize {
            match nv {
                NormalValue::Atom(_) => 0,
                NormalValue::Record(fields) => fields.iter().map(|(_, v)| count_nv(v)).sum(),
                NormalValue::Set(c) => c.set_node_count(),
            }
        }
        1 + count_nv(&self.head)
    }

    /// Set-nesting depth of the normal form.
    pub fn depth(&self) -> usize {
        fn depth_nv(nv: &NormalValue) -> usize {
            match nv {
                NormalValue::Atom(_) => 0,
                NormalValue::Record(fields) => {
                    fields.iter().map(|(_, v)| depth_nv(v)).max().unwrap_or(0)
                }
                NormalValue::Set(c) => c.depth(),
            }
        }
        1 + depth_nv(&self.head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, CoDatabase};
    use crate::parse::parse_coql;
    use co_cq::Schema;

    fn setup() -> (CoqlSchema, co_cq::Schema, Database) {
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
        let direct = evaluate(&e, &CoDatabase::from_flat(&db, &flat_schema)).unwrap();
        let via_nf = eval_comprehension(&c, &db, &flat_schema).unwrap();
        assert_eq!(direct, via_nf, "{src}:\n direct {direct}\n normal {via_nf}");
    }

    #[test]
    fn flat_select_normalizes() {
        check("select x.B from x in R where x.A = 1");
    }

    #[test]
    fn nested_generator_unfolds() {
        check("select y from y in (select x.B from x in R)");
    }

    #[test]
    fn nested_set_in_head_stays_nested() {
        check("select [a: x.A, g: (select y.B from y in R where y.A = x.A)] from x in R");
    }

    #[test]
    fn flatten_merges_layers() {
        check("flatten(select (select y.C from y in S where y.C = x.B) from x in R)");
    }

    #[test]
    fn singleton_and_empty_normalize() {
        check("{3}");
        check("select {x.A} from x in R");
        check("select z from z in {}");
        check("flatten({})");
    }

    #[test]
    fn empty_generator_makes_unsat() {
        let (coql_schema, _, _) = setup();
        let e = parse_coql("select z from z in {}").unwrap();
        let c = normalize(&e, &coql_schema).unwrap();
        assert!(c.unsat);
    }

    #[test]
    fn depth_and_node_count() {
        let (coql_schema, _, _) = setup();
        let e =
            parse_coql("select [a: x.A, g: (select y.B from y in R where y.A = x.A)] from x in R")
                .unwrap();
        let c = normalize(&e, &coql_schema).unwrap();
        assert_eq!(c.depth(), 2);
        assert_eq!(c.set_node_count(), 2);
    }

    #[test]
    fn product_of_relations() {
        check("select [l: x.A, r: y.C] from x in R, y in S");
        check("select [l: x.A, r: y.C] from x in R, y in S where x.B = y.C");
    }

    #[test]
    fn constants_in_heads_and_conds() {
        check("select [k: 7, v: x.A] from x in R where x.A = 1");
        check("select x.A from x in R where 1 = 1");
        check("select x.A from x in R where 1 = 2");
    }
}
