//! Algebra expressions, evaluation, and translation to COQL.
//!
//! [`AlgExpr`] covers the union of the two fragments §3.1 proves equivalent
//! to COQL, plus classical `nest` (expressible when its grouping attributes
//! are atomic — footnote 3 of the paper — via the self-join translation
//! below, which is what makes the `nest;unnest` decision procedure of
//! [`crate::nestseq`] go through).
//!
//! [`to_coql`] compiles every operator to COQL; the compilation is
//! type-directed (record merges need attribute lists) and property-tested
//! against direct evaluation: `⟦to_coql(e)⟧ = ⟦e⟧` on every database.
//!
//! The `nest` translation is the paper's crucial observation in miniature:
//!
//! ```text
//! nest_{X→g}(E)  =  select [ z̄: x.z̄…,
//!                            g: (select [X: y.X…] from y in E
//!                                where y.z1 = x.z1 and … ) ]
//!                   from x in E
//! ```
//!
//! The outer row `x` itself witnesses membership of its group, so the
//! result never contains an empty set — which is exactly why `nest;unnest`
//! sequences fall in the paper's no-empty-sets regime where equivalence is
//! NP-complete (§4).

use std::collections::BTreeMap;
use std::fmt;

use co_cq::{RelName, Var};
use co_lang::{type_check_with_env, CoDatabase, CoqlSchema, Expr};
use co_object::{Atom, Field, Type, Value};

use crate::ops::{self, AlgError};

/// A nested-relational-algebra expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlgExpr {
    /// An input relation.
    Rel(RelName),
    /// Cartesian product with record merge (attributes must be disjoint).
    Product(Box<AlgExpr>, Box<AlgExpr>),
    /// `σ_{A=B}`.
    SelectEq(Box<AlgExpr>, Field, Field),
    /// `σ_{A=c}`.
    SelectConst(Box<AlgExpr>, Field, Atom),
    /// `π_{attrs}`.
    Project(Box<AlgExpr>, Vec<Field>),
    /// `flatten`.
    Flatten(Box<AlgExpr>),
    /// Singleton `{E}`.
    Singleton(Box<AlgExpr>),
    /// `map(λ var. body)` with a COQL body (the Abiteboul–Beeri map).
    Map {
        /// The mapped relation.
        source: Box<AlgExpr>,
        /// The element variable bound in `body`.
        var: Var,
        /// The COQL body applied to each element.
        body: Box<Expr>,
    },
    /// Thomas–Fischer `nest_{X→g}` (never produces empty groups).
    Nest(Box<AlgExpr>, Vec<Field>, Field),
    /// `outernest_{X→g}` against an explicit spine (groups may be empty) —
    /// the reconstruction of the paper's Example A.1.
    Outernest {
        /// The grouped relation.
        rel: Box<AlgExpr>,
        /// The spine supplying the group keys.
        spine: Box<AlgExpr>,
        /// Attributes collected into the new set field.
        set_attrs: Vec<Field>,
        /// Name of the new set-valued attribute.
        new_field: Field,
    },
    /// `unnest_g`.
    Unnest(Box<AlgExpr>, Field),
}

impl AlgExpr {
    /// Convenience: an input relation.
    pub fn rel(name: &str) -> AlgExpr {
        AlgExpr::Rel(RelName::new(name))
    }

    /// Convenience: nest.
    pub fn nest(self, set_attrs: &[&str], new_field: &str) -> AlgExpr {
        AlgExpr::Nest(
            Box::new(self),
            set_attrs.iter().map(|a| Field::new(a)).collect(),
            Field::new(new_field),
        )
    }

    /// Convenience: unnest.
    pub fn unnest(self, field: &str) -> AlgExpr {
        AlgExpr::Unnest(Box::new(self), Field::new(field))
    }

    /// Evaluates directly over a complex-object database.
    pub fn evaluate(&self, db: &CoDatabase) -> Result<Value, AlgError> {
        match self {
            AlgExpr::Rel(r) => Ok(db.relation(*r)),
            AlgExpr::Product(a, b) => ops::product(&a.evaluate(db)?, &b.evaluate(db)?),
            AlgExpr::SelectEq(e, x, y) => ops::select_eq(&e.evaluate(db)?, *x, *y),
            AlgExpr::SelectConst(e, x, c) => ops::select_const(&e.evaluate(db)?, *x, *c),
            AlgExpr::Project(e, attrs) => ops::project(&e.evaluate(db)?, attrs),
            AlgExpr::Flatten(e) => ops::flatten(&e.evaluate(db)?),
            AlgExpr::Singleton(e) => Ok(ops::singleton(&e.evaluate(db)?)),
            AlgExpr::Map { source, var, body } => {
                let src = source.evaluate(db)?;
                ops::map(&src, |elem| {
                    let mut env = BTreeMap::new();
                    env.insert(*var, elem.clone());
                    co_lang::evaluate_with_env(body, db, &env)
                        .map_err(|e| AlgError::new(e.to_string()))
                })
            }
            AlgExpr::Nest(e, attrs, g) => ops::nest(&e.evaluate(db)?, attrs, *g),
            AlgExpr::Outernest { rel, spine, set_attrs, new_field } => {
                ops::outernest(&rel.evaluate(db)?, &spine.evaluate(db)?, set_attrs, *new_field)
            }
            AlgExpr::Unnest(e, g) => ops::unnest(&e.evaluate(db)?, *g),
        }
    }
}

/// A translation error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TranslateError {
    /// Description.
    pub message: String,
}

impl TranslateError {
    fn new(message: impl Into<String>) -> TranslateError {
        TranslateError { message: message.into() }
    }
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "translation error: {}", self.message)
    }
}

impl std::error::Error for TranslateError {}

/// Record attributes of a relation-typed expression.
fn record_attrs(ty: &Type, what: &str) -> Result<Vec<(Field, Type)>, TranslateError> {
    match ty {
        Type::Set(elem) => match elem.as_ref() {
            Type::Record(fields) => Ok(fields.clone()),
            other => Err(TranslateError::new(format!(
                "{what}: expected a set of records, found {{{other}}}"
            ))),
        },
        other => Err(TranslateError::new(format!("{what}: expected a set, found {other}"))),
    }
}

/// Translates an algebra expression into COQL, returning the expression and
/// its type. The translation witnesses §3.1's equivalence claims.
pub fn to_coql(alg: &AlgExpr, schema: &CoqlSchema) -> Result<(Expr, Type), TranslateError> {
    match alg {
        AlgExpr::Rel(r) => {
            let ty = schema
                .relation(*r)
                .cloned()
                .ok_or_else(|| TranslateError::new(format!("unknown relation `{r}`")))?;
            Ok((Expr::Rel(*r), ty))
        }
        AlgExpr::Product(a, b) => {
            let (ea, ta) = to_coql(a, schema)?;
            let (eb, tb) = to_coql(b, schema)?;
            let fa = record_attrs(&ta, "product")?;
            let fb = record_attrs(&tb, "product")?;
            let x = Var::fresh();
            let y = Var::fresh();
            let mut fields = Vec::new();
            let mut out_ty = Vec::new();
            for (f, t) in &fa {
                fields.push((*f, Expr::Proj(Box::new(Expr::Var(x)), *f)));
                out_ty.push((*f, t.clone()));
            }
            for (f, t) in &fb {
                if fa.iter().any(|(g, _)| g == f) {
                    return Err(TranslateError::new(format!(
                        "product: attribute `{f}` occurs on both sides"
                    )));
                }
                fields.push((*f, Expr::Proj(Box::new(Expr::Var(y)), *f)));
                out_ty.push((*f, t.clone()));
            }
            let e = Expr::Select {
                head: Box::new(Expr::Record(fields)),
                bindings: vec![(x, ea), (y, eb)],
                conds: vec![],
            };
            Ok((e, Type::set(Type::record(out_ty))))
        }
        AlgExpr::SelectEq(inner, a, b) => {
            let (ei, ti) = to_coql(inner, schema)?;
            let x = Var::fresh();
            let e = Expr::Select {
                head: Box::new(Expr::Var(x)),
                bindings: vec![(x, ei)],
                conds: vec![(
                    Expr::Proj(Box::new(Expr::Var(x)), *a),
                    Expr::Proj(Box::new(Expr::Var(x)), *b),
                )],
            };
            Ok((e, ti))
        }
        AlgExpr::SelectConst(inner, a, c) => {
            let (ei, ti) = to_coql(inner, schema)?;
            let x = Var::fresh();
            let e = Expr::Select {
                head: Box::new(Expr::Var(x)),
                bindings: vec![(x, ei)],
                conds: vec![(Expr::Proj(Box::new(Expr::Var(x)), *a), Expr::Const(*c))],
            };
            Ok((e, ti))
        }
        AlgExpr::Project(inner, attrs) => {
            let (ei, ti) = to_coql(inner, schema)?;
            let fields_ty = record_attrs(&ti, "project")?;
            let x = Var::fresh();
            let mut fields = Vec::new();
            let mut out_ty = Vec::new();
            for &a in attrs {
                let t =
                    fields_ty.iter().find(|(f, _)| *f == a).map(|(_, t)| t.clone()).ok_or_else(
                        || TranslateError::new(format!("project: no attribute `{a}`")),
                    )?;
                fields.push((a, Expr::Proj(Box::new(Expr::Var(x)), a)));
                out_ty.push((a, t));
            }
            let e = Expr::Select {
                head: Box::new(Expr::Record(fields)),
                bindings: vec![(x, ei)],
                conds: vec![],
            };
            Ok((e, Type::set(Type::record(out_ty))))
        }
        AlgExpr::Flatten(inner) => {
            let (ei, ti) = to_coql(inner, schema)?;
            let elem = ti
                .elem()
                .ok_or_else(|| TranslateError::new("flatten of non-set".to_string()))?
                .clone();
            match elem {
                Type::Set(_) | Type::Bottom => Ok((
                    ei.flatten(),
                    if let Type::Set(t) = elem { Type::Set(t) } else { Type::set(Type::Bottom) },
                )),
                other => Err(TranslateError::new(format!("flatten of set of {other}"))),
            }
        }
        AlgExpr::Singleton(inner) => {
            let (ei, ti) = to_coql(inner, schema)?;
            Ok((ei.singleton(), Type::set(ti)))
        }
        AlgExpr::Map { source, var, body } => {
            let (es, ts) = to_coql(source, schema)?;
            let elem = ts
                .elem()
                .ok_or_else(|| TranslateError::new("map over non-set".to_string()))?
                .clone();
            let mut env = BTreeMap::new();
            env.insert(*var, elem);
            let body_ty = type_check_with_env(body, schema, &env)
                .map_err(|e| TranslateError::new(e.to_string()))?;
            let e = Expr::Select { head: body.clone(), bindings: vec![(*var, es)], conds: vec![] };
            Ok((e, Type::set(body_ty)))
        }
        AlgExpr::Nest(inner, set_attrs, g) => {
            let (ei, ti) = to_coql(inner, schema)?;
            let fields_ty = record_attrs(&ti, "nest")?;
            let key_attrs: Vec<(Field, Type)> =
                fields_ty.iter().filter(|(f, _)| !set_attrs.contains(f)).cloned().collect();
            for (f, t) in &key_attrs {
                if !matches!(t, Type::Atom) {
                    return Err(TranslateError::new(format!(
                        "nest: grouping attribute `{f}` is not atomic (the paper's \
                         footnote-3 restriction)"
                    )));
                }
            }
            let x = Var::fresh();
            let y = Var::fresh();
            // Inner select: the group members, keyed by the outer row.
            let mut member_fields = Vec::new();
            let mut member_ty = Vec::new();
            for &a in set_attrs {
                let t = fields_ty
                    .iter()
                    .find(|(f, _)| *f == a)
                    .map(|(_, t)| t.clone())
                    .ok_or_else(|| TranslateError::new(format!("nest: no attribute `{a}`")))?;
                member_fields.push((a, Expr::Proj(Box::new(Expr::Var(y)), a)));
                member_ty.push((a, t));
            }
            let conds = key_attrs
                .iter()
                .map(|(f, _)| {
                    (Expr::Proj(Box::new(Expr::Var(y)), *f), Expr::Proj(Box::new(Expr::Var(x)), *f))
                })
                .collect();
            let group = Expr::Select {
                head: Box::new(Expr::Record(member_fields)),
                bindings: vec![(y, ei.clone())],
                conds,
            };
            let mut out_fields = Vec::new();
            let mut out_ty = Vec::new();
            for (f, t) in &key_attrs {
                out_fields.push((*f, Expr::Proj(Box::new(Expr::Var(x)), *f)));
                out_ty.push((*f, t.clone()));
            }
            out_fields.push((*g, group));
            out_ty.push((*g, Type::set(Type::record(member_ty))));
            let e = Expr::Select {
                head: Box::new(Expr::Record(out_fields)),
                bindings: vec![(x, ei)],
                conds: vec![],
            };
            Ok((e, Type::set(Type::record(out_ty))))
        }
        AlgExpr::Outernest { rel, spine, set_attrs, new_field } => {
            let (er, tr) = to_coql(rel, schema)?;
            let (es, ts) = to_coql(spine, schema)?;
            let rel_fields = record_attrs(&tr, "outernest")?;
            let spine_fields = record_attrs(&ts, "outernest")?;
            for (f, t) in &spine_fields {
                if !matches!(t, Type::Atom) {
                    return Err(TranslateError::new(format!(
                        "outernest: spine attribute `{f}` is not atomic"
                    )));
                }
            }
            let s = Var::fresh();
            let y = Var::fresh();
            let mut member_fields = Vec::new();
            let mut member_ty = Vec::new();
            for &a in set_attrs {
                let t =
                    rel_fields.iter().find(|(f, _)| *f == a).map(|(_, t)| t.clone()).ok_or_else(
                        || TranslateError::new(format!("outernest: no attribute `{a}`")),
                    )?;
                member_fields.push((a, Expr::Proj(Box::new(Expr::Var(y)), a)));
                member_ty.push((a, t));
            }
            let conds = spine_fields
                .iter()
                .map(|(f, _)| {
                    (Expr::Proj(Box::new(Expr::Var(y)), *f), Expr::Proj(Box::new(Expr::Var(s)), *f))
                })
                .collect();
            let group = Expr::Select {
                head: Box::new(Expr::Record(member_fields)),
                bindings: vec![(y, er)],
                conds,
            };
            let mut out_fields = Vec::new();
            let mut out_ty = Vec::new();
            for (f, t) in &spine_fields {
                out_fields.push((*f, Expr::Proj(Box::new(Expr::Var(s)), *f)));
                out_ty.push((*f, t.clone()));
            }
            out_fields.push((*new_field, group));
            out_ty.push((*new_field, Type::set(Type::record(member_ty))));
            let e = Expr::Select {
                head: Box::new(Expr::Record(out_fields)),
                bindings: vec![(s, es)],
                conds: vec![],
            };
            Ok((e, Type::set(Type::record(out_ty))))
        }
        AlgExpr::Unnest(inner, g) => {
            let (ei, ti) = to_coql(inner, schema)?;
            let fields_ty = record_attrs(&ti, "unnest")?;
            let set_ty = fields_ty
                .iter()
                .find(|(f, _)| f == g)
                .map(|(_, t)| t.clone())
                .ok_or_else(|| TranslateError::new(format!("unnest: no attribute `{g}`")))?;
            let inner_fields = record_attrs(&set_ty, "unnest")?;
            let x = Var::fresh();
            let y = Var::fresh();
            let mut out_fields = Vec::new();
            let mut out_ty = Vec::new();
            for (f, t) in &fields_ty {
                if f == g {
                    continue;
                }
                out_fields.push((*f, Expr::Proj(Box::new(Expr::Var(x)), *f)));
                out_ty.push((*f, t.clone()));
            }
            for (f, t) in &inner_fields {
                if out_ty.iter().any(|(h, _)| h == f) {
                    return Err(TranslateError::new(format!("unnest: attribute `{f}` collides")));
                }
                out_fields.push((*f, Expr::Proj(Box::new(Expr::Var(y)), *f)));
                out_ty.push((*f, t.clone()));
            }
            let e = Expr::Select {
                head: Box::new(Expr::Record(out_fields)),
                bindings: vec![(x, ei), (y, Expr::Proj(Box::new(Expr::Var(x)), *g))],
                conds: vec![],
            };
            Ok((e, Type::set(Type::record(out_ty))))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_object::parse_value;

    fn setup() -> (CoqlSchema, CoDatabase) {
        let schema = CoqlSchema::new()
            .with("R", Type::flat_relation(&[Field::new("A"), Field::new("B")]))
            .with("T", Type::flat_relation(&[Field::new("C")]));
        let db = CoDatabase::new()
            .with("R", parse_value("{[A: 1, B: 10], [A: 1, B: 11], [A: 2, B: 20]}").unwrap())
            .with("T", parse_value("{[C: 10], [C: 99]}").unwrap());
        (schema, db)
    }

    fn check(alg: &AlgExpr) {
        let (schema, db) = setup();
        let direct = alg.evaluate(&db).unwrap();
        let (coql, ty) = to_coql(alg, &schema).unwrap();
        let via_coql = co_lang::evaluate(&coql, &db).unwrap();
        assert_eq!(direct, via_coql, "alg {alg:?}\n direct {direct}\n coql {via_coql}");
        co_object::check_type(&via_coql, &ty).unwrap();
    }

    #[test]
    fn products_and_selections_translate() {
        check(&AlgExpr::Product(Box::new(AlgExpr::rel("R")), Box::new(AlgExpr::rel("T"))));
        check(&AlgExpr::SelectConst(Box::new(AlgExpr::rel("R")), Field::new("A"), Atom::int(1)));
        check(&AlgExpr::SelectEq(
            Box::new(AlgExpr::Product(Box::new(AlgExpr::rel("R")), Box::new(AlgExpr::rel("T")))),
            Field::new("B"),
            Field::new("C"),
        ));
    }

    #[test]
    fn project_and_flatten_translate() {
        check(&AlgExpr::Project(Box::new(AlgExpr::rel("R")), vec![Field::new("A")]));
        check(&AlgExpr::Flatten(Box::new(AlgExpr::Singleton(Box::new(AlgExpr::rel("R"))))));
    }

    #[test]
    fn nest_translates_and_never_has_empty_sets() {
        let alg = AlgExpr::rel("R").nest(&["B"], "g");
        check(&alg);
        let (_, db) = setup();
        let v = alg.evaluate(&db).unwrap();
        assert!(!v.contains_empty_set());
    }

    #[test]
    fn unnest_translates() {
        check(&AlgExpr::rel("R").nest(&["B"], "g").unnest("g"));
    }

    #[test]
    fn outernest_translates_with_empty_groups() {
        // Spine over A includes a key (3) absent from R: empty group.
        let alg = AlgExpr::Outernest {
            rel: Box::new(AlgExpr::rel("SP")),
            spine: Box::new(AlgExpr::Project(Box::new(AlgExpr::rel("SPK")), vec![Field::new("A")])),
            set_attrs: vec![Field::new("B")],
            new_field: Field::new("g"),
        };
        let schema = CoqlSchema::new()
            .with("SP", Type::flat_relation(&[Field::new("A"), Field::new("B")]))
            .with("SPK", Type::flat_relation(&[Field::new("A")]));
        let db = CoDatabase::new()
            .with("SP", parse_value("{[A: 1, B: 10]}").unwrap())
            .with("SPK", parse_value("{[A: 1], [A: 3]}").unwrap());
        let direct = alg.evaluate(&db).unwrap();
        assert!(direct.contains_empty_set());
        let (coql, _) = to_coql(&alg, &schema).unwrap();
        let via = co_lang::evaluate(&coql, &db).unwrap();
        assert_eq!(direct, via);
    }

    #[test]
    fn map_translates() {
        let alg = AlgExpr::Map {
            source: Box::new(AlgExpr::rel("R")),
            var: Var::new("m"),
            body: Box::new(Expr::var("m").proj("A")),
        };
        check(&alg);
    }

    #[test]
    fn nest_on_set_valued_key_is_rejected() {
        let (schema, _) = setup();
        let alg = AlgExpr::rel("R").nest(&["B"], "g").nest(&["A"], "h");
        // Second nest's key includes the set-valued g: footnote-3 violation.
        let err = to_coql(&alg, &schema).unwrap_err();
        assert!(err.message.contains("not atomic"), "{err}");
    }
}
