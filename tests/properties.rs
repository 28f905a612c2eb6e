//! The property wall for the building blocks, one section per crate:
//!
//! * **sim** (§5–6): the flat simulation decider against the definitional
//!   per-database check (soundness, and every counterexample verifies),
//!   strong simulation against its bounded refuter in both directions,
//!   and tree containment on grouped trees against flat simulation and
//!   evaluation. DESIGN §1 calls the completeness of strong simulation a
//!   reconstruction; this is the randomized check of it.
//! * **encode** (§5.1): the index encoding round-trips, shares equal
//!   inner sets, and mints indexes that never collide with data atoms.
//! * **cq**: classical containment against evaluation (soundness, the
//!   canonical database witnesses every negative), preorder,
//!   minimization, mapping certificates, and monotone evaluation.
//! * **object** (§3.2): the Hoare order is a preorder with the empty set
//!   least, is preserved by the set constructor, restricts to `⊆` on flat
//!   sets; `grow`, `hoare_reduce`, printing and value graphs behave.
//! * **lang** (§3): COQL type soundness, normalization, printing,
//!   monotonicity, the empty-set analysis and environments. The seed
//!   `938547047159284602` runs as a fixed case.
//!
//! Flattening against evaluation is `differential.rs`'s and
//! `deep_differential.rs`'s, and the recursive-vs-graph Hoare order is
//! `conformance.rs`'s, so they are not repeated here.
//!
//! `PROPERTY_CASES` (env, read by the `support` harness) sets the number
//! of seeds per property; `scripts/verify.sh` widens it.

use std::collections::{BTreeMap, HashSet};

use co_cq::generate::{CqGen, CqGenConfig};
use co_cq::{ConjunctiveQuery, Database, QueryAtom, RelName, Schema, Term, Var};
use co_encode::{decode_database, encode_database};
use co_lang::{
    empty_set_status, eval_comprehension, evaluate, normalize, parse_coql, type_check, CoDatabase,
    CoqlSchema, EmptySetStatus, Expr,
};
use co_object::generate::{GenConfig, ValueGen};
use co_object::{
    check_type, hoare_equiv, hoare_leq, hoare_reduce, parse_value, type_of, Atom, Field, Type,
    Value, ValueGraph,
};
use co_sim::tree::{grouped_tree, tree_contained_in};
use co_sim::{
    is_strongly_simulated_by, refute_strong_simulation, simulated_by, simulation_holds_on,
    strong_simulation_holds_on, IndexedQuery, SimulationAnswer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod support;

const CASES_VAR: &str = "PROPERTY_CASES";
const CASES: u64 = 120;

/// A second, decorrelated seed for the database side of a property.
fn db_seed(seed: u64) -> u64 {
    seed ^ 0xD8_5EED
}

// ---------------------------------------------------------------------------
// sim: simulation and strong simulation (§5–6)
// ---------------------------------------------------------------------------

/// `q` with every variable renamed and its body reversed.
fn renamed(q: &IndexedQuery) -> IndexedQuery {
    let term = |t: &Term| match t {
        Term::Var(v) => Term::var(&format!("w{}", v.name())),
        Term::Const(_) => *t,
    };
    let terms = |ts: &[Term]| ts.iter().map(term).collect::<Vec<_>>();
    IndexedQuery {
        index: terms(&q.index),
        value: terms(&q.value),
        body: q.body.iter().rev().map(|a| QueryAtom { rel: a.rel, args: terms(&a.args) }).collect(),
        unsatisfiable: q.unsatisfiable,
    }
}

/// `q` with an extra atom over its index and a fresh variable: it keeps a
/// subset of `q`'s groups, each with the same members.
fn restricted(q: &IndexedQuery) -> IndexedQuery {
    let key = q.index.first().copied().unwrap_or_else(|| Term::var("key"));
    let mut r = q.clone();
    r.body.push(QueryAtom::new("R1", vec![key, Term::var("fresh")]));
    r
}

/// A seeded indexed-query pair with index arity 0 or 1: independent
/// random queries, or a query against its renamed or restricted copy, so
/// that (strong) simulation holds at a useful rate.
fn sim_pair(seed: u64) -> (IndexedQuery, IndexedQuery) {
    let index_arity = (seed % 2) as usize;
    let config = CqGenConfig { head_width: index_arity + 1, ..CqGenConfig::default() };
    let mut g = CqGen::new(seed, config);
    let (q1, q2) = (
        IndexedQuery::from_cq(&g.query(), index_arity),
        IndexedQuery::from_cq(&g.query(), index_arity),
    );
    match (seed / 2) % 4 {
        0 => (q1, q2),
        1 => (q1.clone(), renamed(&q1)),
        2 => (restricted(&q1), renamed(&q1)),
        _ => (q1.clone(), restricted(&q1)),
    }
}

fn random_flat_dbs(seed: u64, sizes: &[usize]) -> Vec<Database> {
    let mut g = CqGen::new(db_seed(seed), CqGenConfig::default());
    sizes.iter().map(|&size| g.database(size, 4)).collect()
}

/// A positive verdict's certificate verifies and no random database
/// violates it; a negative verdict's counterexample database verifies.
#[test]
fn sim_decider_is_sound_and_counterexamples_verify() {
    support::check(CASES_VAR, CASES, |seed| {
        let (q1, q2) = sim_pair(seed);
        match simulated_by(&q1, &q2) {
            SimulationAnswer::Holds(cert) => {
                assert!(cert.verify(&q1, &q2), "certificate: {q1} vs {q2}");
                for db in random_flat_dbs(seed, &[3, 6]) {
                    assert!(simulation_holds_on(&q1, &q2, &db), "UNSOUND: {q1} ⊴ {q2} on\n{db}");
                }
            }
            SimulationAnswer::Fails(cex) => {
                assert!(cex.verify(&q1, &q2), "counterexample: {q1} vs {q2} on\n{}", cex.db);
            }
        }
    });
}

#[test]
fn sim_is_reflexive_and_transitive() {
    support::check(CASES_VAR, CASES, |seed| {
        let (q1, q2) = sim_pair(seed);
        let (_, q3) = sim_pair(seed.wrapping_add(8)); // same index arity and mix
        assert!(simulated_by(&q1, &q1).holds(), "{q1}");
        if simulated_by(&q1, &q2).holds() && simulated_by(&q2, &q3).holds() {
            assert!(simulated_by(&q1, &q3).holds(), "{q1} / {q2} / {q3}");
        }
    });
}

/// Strong simulation is sound on random databases, implies simulation,
/// and the bounded refuter never contradicts it: a positive verdict has
/// no refutation, and every refutation verifies and forces a negative.
/// (The refuter's family is bounded, so a negative need not have one.)
#[test]
fn sim_strong_simulation_agrees_with_its_refuter() {
    let (mut strong, mut refuted) = (0u64, 0u64);
    support::check(CASES_VAR, CASES, |seed| {
        let (q1, q2) = sim_pair(seed);
        let holds = is_strongly_simulated_by(&q1, &q2);
        if holds {
            strong += 1;
            assert!(simulated_by(&q1, &q2).holds(), "strong but not simple: {q1} vs {q2}");
            for db in random_flat_dbs(seed, &[3, 6]) {
                let sound = strong_simulation_holds_on(&q1, &q2, &db);
                assert!(sound, "UNSOUND strong: {q1} ⊴s {q2} on\n{db}");
            }
        }
        if let Some(cex) = refute_strong_simulation(&q1, &q2, 2) {
            refuted += 1;
            let refutes = !strong_simulation_holds_on(&q1, &q2, &cex.db);
            assert!(refutes, "refuter returned a non-counterexample for {q1} vs {q2}");
            assert!(!holds, "decider holds but the refuter refutes: {q1} vs {q2}");
        }
    });
    assert!(strong > 0 && refuted > 0, "{strong} strong / {refuted} refuted");
}

/// Any random database that refutes simulation or strong simulation
/// semantically forces the matching decider to say no.
#[test]
fn sim_semantic_refutation_forces_a_negative_answer() {
    support::check(CASES_VAR, CASES, |seed| {
        let (q1, q2) = sim_pair(seed);
        let db = CqGen::new(db_seed(seed), CqGenConfig::default()).database(4, 3);
        if !simulation_holds_on(&q1, &q2, &db) {
            assert!(!simulated_by(&q1, &q2).holds(), "{q1} vs {q2} on\n{db}");
        }
        if !strong_simulation_holds_on(&q1, &q2, &db) {
            assert!(!is_strongly_simulated_by(&q1, &q2), "{q1} vs {q2} on\n{db}");
        }
    });
}

/// Tree containment of grouped trees is flat simulation, and a positive
/// tree verdict survives evaluation under the Hoare order.
#[test]
fn sim_tree_containment_agrees_with_flat_simulation() {
    support::check(CASES_VAR, CASES, |seed| {
        let (q1, q2) = sim_pair(seed);
        let (t1, t2) = (grouped_tree(&q1), grouped_tree(&q2));
        let tree = tree_contained_in(&t1, &t2);
        assert_eq!(simulated_by(&q1, &q2).holds(), tree, "{q1} vs {q2}");
        if tree {
            for db in random_flat_dbs(seed, &[3, 5]) {
                let (v1, v2) = (t1.evaluate(&db), t2.evaluate(&db));
                assert!(hoare_leq(&v1, &v2), "UNSOUND tree: {q1} vs {q2}: {v1} vs {v2}");
            }
        }
    });
}

// ---------------------------------------------------------------------------
// encode: the §5.1 index encoding
// ---------------------------------------------------------------------------

/// A random nested relation type of depth `seed % 4` and an instance.
fn random_typed_db(seed: u64, depth: usize) -> (CoDatabase, CoqlSchema) {
    let mut g = ValueGen::new(seed, GenConfig { max_set_len: 3, ..GenConfig::default() });
    let elem = g.type_of_depth(depth);
    let elems = (0..3).map(|_| g.value_of_type(&elem)).collect();
    let schema = CoqlSchema::new().with("N", Type::set(elem));
    (CoDatabase::new().with("N", Value::set(elems)), schema)
}

fn atoms_of(v: &Value, out: &mut HashSet<Atom>) {
    match v {
        Value::Atom(a) => {
            out.insert(*a);
        }
        Value::Record(r) => r.iter().for_each(|(_, x)| atoms_of(x, out)),
        Value::Set(s) => s.iter().for_each(|x| atoms_of(x, out)),
    }
}

/// The encoding is exactly invertible at any depth, and its index atoms
/// (column 0 of every auxiliary relation) never collide with data atoms.
#[test]
fn encode_round_trips_with_fresh_indexes() {
    support::check(CASES_VAR, CASES, |seed| {
        let (db, schema) = random_typed_db(seed, (seed % 4) as usize);
        // Empty record types cannot be encoded; the generator can make them.
        let Ok(enc) = encode_database(&db, &schema) else { return };
        assert_eq!(decode_database(&enc, &schema).unwrap(), db);
        let mut data = HashSet::new();
        atoms_of(&db.relation(RelName::new("N")), &mut data);
        for (name, rel) in enc.db.iter() {
            if name.name().contains('@') {
                for row in rel.iter() {
                    assert!(!data.contains(&row[0]), "index {} is a data atom", row[0]);
                }
            }
        }
    });
}

/// Equal inner sets share one index: three elements holding the same set
/// add that set's rows to the auxiliary relation once.
#[test]
fn encode_shares_equal_inner_sets() {
    support::check(CASES_VAR, CASES, |seed| {
        let mut g = ValueGen::new(seed, GenConfig::default());
        let inner = Value::set(vec![Value::Atom(g.atom()), Value::Atom(g.atom())]);
        let elem_ty = Type::record(vec![
            (Field::new("k"), Type::Atom),
            (Field::new("s"), Type::set(Type::Atom)),
        ]);
        let schema = CoqlSchema::new().with("N", Type::set(elem_ty));
        let mk = |k: i64| {
            Value::record(vec![(Field::new("k"), Value::int(k)), (Field::new("s"), inner.clone())])
                .unwrap()
        };
        let db = CoDatabase::new().with("N", Value::set(vec![mk(1), mk(2), mk(3)]));
        let enc = encode_database(&db, &schema).unwrap();
        let aux = enc.db.relation(RelName::new("N@s"));
        assert_eq!(aux.len(), inner.as_set().unwrap().len(), "{inner}");
    });
}

// ---------------------------------------------------------------------------
// cq: classical containment
// ---------------------------------------------------------------------------

fn cq_pair(seed: u64) -> (ConjunctiveQuery, ConjunctiveQuery) {
    let mut g = CqGen::new(seed, CqGenConfig::default());
    (g.query(), g.query())
}

/// A decided containment is never violated on random databases, and a
/// rejected one is refuted by `q1`'s own canonical database.
#[test]
fn cq_containment_agrees_with_evaluation() {
    support::check(CASES_VAR, CASES, |seed| {
        let (q1, q2) = cq_pair(seed);
        if co_cq::is_contained_in(&q1, &q2) {
            for db in random_flat_dbs(seed, &[3, 6]) {
                let (r1, r2) = (co_cq::evaluate(&q1, &db), co_cq::evaluate(&q2, &db));
                assert!(r1.is_subset(&r2), "q1={q1} q2={q2} on\n{db}");
            }
        } else if !q1.unsatisfiable && q1.arity() == q2.arity() {
            let frozen = co_cq::freeze(&q1);
            let head = frozen.head_image(&q1);
            assert!(co_cq::evaluate(&q1, &frozen.db).contains(&head), "frozen head of {q1}");
            assert!(!co_cq::evaluate(&q2, &frozen.db).contains(&head), "q1={q1} q2={q2}");
        }
    });
}

/// Containment is a preorder, mapping certificates verify, and
/// minimization keeps equivalence, never grows and is idempotent.
#[test]
fn cq_preorder_certificates_and_minimization() {
    support::check(CASES_VAR, CASES, |seed| {
        let (q1, q2) = cq_pair(seed);
        let (_, q3) = cq_pair(seed.wrapping_add(1));
        assert!(co_cq::is_contained_in(&q1, &q1), "{q1}");
        if co_cq::is_contained_in(&q1, &q2) && co_cq::is_contained_in(&q2, &q3) {
            assert!(co_cq::is_contained_in(&q1, &q3), "q1={q1} q2={q2} q3={q3}");
        }
        if let Some(co_cq::Certificate::Mapping(m)) = co_cq::contained_in(&q1, &q2) {
            assert!(m.verify(&q1, &q2), "q1={q1} q2={q2}");
        }
        let m = co_cq::minimize(&q1);
        assert!(m.body.len() <= q1.body.len());
        assert!(co_cq::is_contained_in(&q1, &m) && co_cq::is_contained_in(&m, &q1), "{q1} / {m}");
        assert_eq!(co_cq::minimize(&m).body.len(), m.body.len(), "{m}");
    });
}

/// Conjunctive queries are monotone: adding facts never removes answers.
#[test]
fn cq_evaluation_is_monotone() {
    support::check(CASES_VAR, CASES, |seed| {
        let (q, _) = cq_pair(seed);
        let dbs = random_flat_dbs(seed, &[3, 3]);
        let big = dbs[0].union(&dbs[1]);
        assert!(co_cq::evaluate(&q, &dbs[0]).is_subset(&co_cq::evaluate(&q, &big)), "{q}");
    });
}

// ---------------------------------------------------------------------------
// object: complex values and the Hoare order (§3.2)
// ---------------------------------------------------------------------------

/// Three random values of one random type of depth below 4.
fn typed_triple(seed: u64) -> (Value, Value, Value) {
    let mut g = ValueGen::new(seed, GenConfig::default());
    let ty = g.type_of_depth((seed % 4) as usize);
    (g.value_of_type(&ty), g.value_of_type(&ty), g.value_of_type(&ty))
}

/// `⊑` is a preorder with `{}` least, preserved by the set constructor,
/// and `S ⊑ S ∪ T`.
#[test]
fn object_hoare_order_is_a_preorder_preserved_by_sets() {
    support::check(CASES_VAR, CASES, |seed| {
        let (a, b, c) = typed_triple(seed);
        assert!(hoare_leq(&a, &a), "{a}");
        if hoare_leq(&a, &b) && hoare_leq(&b, &c) {
            assert!(hoare_leq(&a, &c), "a={a} b={b} c={c}");
        }
        if hoare_leq(&a, &b) {
            assert!(hoare_leq(&Value::singleton(a.clone()), &Value::singleton(b.clone())));
        }
        assert!(hoare_leq(&Value::empty_set(), &Value::singleton(a.clone())), "{a}");
        assert!(hoare_leq(&Value::set(vec![a.clone()]), &Value::set(vec![a, b])));
    });
}

/// On flat sets of atoms the Hoare order is `⊆`.
#[test]
fn object_flat_set_order_is_subset() {
    support::check(CASES_VAR, CASES, |seed| {
        let mut g = ValueGen::new(seed, GenConfig::default());
        let mut flat_set = || {
            let n = (g.atom().as_int().unwrap_or(0) % 4).unsigned_abs() as usize;
            Value::set((0..=n).map(|_| Value::Atom(g.atom())).collect())
        };
        let (s1, s2) = (flat_set(), flat_set());
        let subset = s1.as_set().unwrap().is_subset(s2.as_set().unwrap());
        assert_eq!(hoare_leq(&s1, &s2), subset, "s1={s1} s2={s2}");
    });
}

/// `grow` only moves up, `hoare_reduce` keeps the class and is
/// idempotent, printing parses back, value graphs round-trip with no more
/// nodes than the tree, and typed values infer a subtype of their type.
#[test]
fn object_value_operations_round_trip() {
    support::check(CASES_VAR, CASES, |seed| {
        let mut g = ValueGen::new(seed, GenConfig::default());
        let ty = g.type_of_depth((seed % 4) as usize);
        let v = g.value_of_type(&ty);
        let w = g.grow(&v);
        assert!(hoare_leq(&v, &w), "v={v} w={w}");
        let r = hoare_reduce(&v);
        assert!(hoare_equiv(&v, &r), "v={v} r={r}");
        assert_eq!(hoare_reduce(&r), r);
        let text = v.to_string();
        assert_eq!(parse_value(&text).unwrap_or_else(|e| panic!("{text}: {e}")), v);
        let graph = ValueGraph::from_value(&v);
        assert_eq!(graph.to_value(), v);
        assert!(graph.len() <= v.size(), "{v}");
        let inferred = type_of(&v).unwrap();
        assert!(inferred.subtype_of(&ty), "v={v} inferred={inferred} ty={ty}");
    });
}

// ---------------------------------------------------------------------------
// lang: COQL (§3)
// ---------------------------------------------------------------------------

const LANG_FIXED_SEED: u64 = 938547047159284602;

fn lang_schema() -> Schema {
    Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])])
}

/// The seeds a COQL property runs: the seeded range plus the fixed case.
fn lang_seeds(property: impl FnMut(u64)) {
    support::check_with_fixed(CASES_VAR, CASES, &[LANG_FIXED_SEED], property);
}

/// A random well-typed COQL query over `R(A, B); S(C)`: one or two
/// generators, equality conditions, and a head that may hold a nested
/// select, a singleton or an empty set.
fn random_expr(seed: u64) -> Expr {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bindings = vec![(Var::new("x"), Expr::rel("R"))];
    let mut conds = Vec::new();
    if rng.gen_bool(0.4) {
        bindings.push((Var::new("y"), Expr::rel("S")));
        if rng.gen_bool(0.6) {
            conds.push((Expr::var("y").proj("C"), Expr::var("x").proj("B")));
        }
    }
    if rng.gen_bool(0.3) {
        conds.push((Expr::var("x").proj("A"), Expr::int(rng.gen_range(0..3))));
    }
    let atom_head =
        if rng.gen_bool(0.5) { Expr::var("x").proj("A") } else { Expr::var("x").proj("B") };
    let head = match rng.gen_range(0..5) {
        0 => atom_head,
        1 => Expr::record(vec![("a", atom_head), ("b", Expr::var("x").proj("B"))]),
        2 => Expr::record(vec![("a", atom_head.clone()), ("s", atom_head.singleton())]),
        3 => {
            let inner = Expr::Select {
                head: Box::new(Expr::var("z").proj("C")),
                bindings: vec![(Var::new("z"), Expr::rel("S"))],
                conds: if rng.gen_bool(0.7) {
                    vec![(Expr::var("z").proj("C"), Expr::var("x").proj("B"))]
                } else {
                    vec![]
                },
            };
            Expr::record(vec![("a", atom_head), ("g", inner)])
        }
        _ => Expr::record(vec![("a", atom_head), ("e", Expr::EmptySet(Type::Bottom))]),
    };
    Expr::Select { head: Box::new(head), bindings, conds }
}

fn random_lang_db(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    let mut db = Database::new();
    for _ in 0..rng.gen_range(0..6) {
        let row = vec![Atom::int(rng.gen_range(0..3)), Atom::int(rng.gen_range(0..3))];
        db.insert(RelName::new("R"), row);
    }
    for _ in 0..rng.gen_range(0..4) {
        db.insert(RelName::new("S"), vec![Atom::int(rng.gen_range(0..3))]);
    }
    db
}

/// Evaluation produces a value of the inferred type, normalization
/// preserves semantics, and printing parses back to the same AST.
#[test]
fn lang_types_normal_forms_and_printing_agree_with_evaluation() {
    let schema = lang_schema();
    let coql_schema = CoqlSchema::from_flat(&schema);
    lang_seeds(|seed| {
        let e = random_expr(seed);
        let text = e.to_string();
        assert_eq!(parse_coql(&text).unwrap_or_else(|err| panic!("{text}: {err}")), e);
        let ty = type_check(&e, &coql_schema).unwrap_or_else(|err| panic!("{e}: {err}"));
        let nf = normalize(&e, &coql_schema).unwrap_or_else(|err| panic!("{e}: {err}"));
        let flat_db = random_lang_db(db_seed(seed));
        let v = evaluate(&e, &CoDatabase::from_flat(&flat_db, &schema)).unwrap();
        assert!(check_type(&v, &ty).is_ok(), "{e} : {ty} but value {v}");
        assert_eq!(v, eval_comprehension(&nf, &flat_db, &schema).unwrap(), "{e}");
    });
}

/// COQL is monotone in the Hoare order, and a query the empty-set
/// analysis judges `Free` never yields an empty inner set.
#[test]
fn lang_evaluation_is_monotone_and_the_emptiness_analysis_sound() {
    let schema = lang_schema();
    let coql_schema = CoqlSchema::from_flat(&schema);
    lang_seeds(|seed| {
        let e = random_expr(seed);
        let small = random_lang_db(db_seed(seed));
        let big = small.union(&random_lang_db(db_seed(seed).wrapping_add(1)));
        let v_small = evaluate(&e, &CoDatabase::from_flat(&small, &schema)).unwrap();
        let v_big = evaluate(&e, &CoDatabase::from_flat(&big, &schema)).unwrap();
        assert!(hoare_leq(&v_small, &v_big), "{e}\n small: {v_small}\n big:   {v_big}");
        let nf = normalize(&e, &coql_schema).unwrap();
        if empty_set_status(&nf) == EmptySetStatus::Free {
            let inner_ok = v_big
                .as_set()
                .map(|s| s.iter().all(|elem| !elem.contains_empty_set()))
                .unwrap_or(true);
            assert!(inner_ok, "{e} judged Free but produced {v_big}");
        }
    });
}

/// Evaluating under an explicit environment matches binding the variable
/// with a singleton generator.
#[test]
fn lang_environments_match_generator_bindings() {
    let schema = lang_schema();
    support::check(CASES_VAR, 5, |a| {
        let db = CoDatabase::from_flat(&random_lang_db(a), &schema);
        let body = Expr::var("w").singleton();
        let env = BTreeMap::from([(Var::new("w"), Value::int(a as i64))]);
        let via_env = co_lang::evaluate_with_env(&body, &db, &env).unwrap();
        let wrapped = Expr::Select {
            head: Box::new(body),
            bindings: vec![(Var::new("w"), Expr::int(a as i64).singleton())],
            conds: vec![],
        };
        let via_select = evaluate(&wrapped, &db).unwrap();
        assert_eq!(Some(&via_env), via_select.as_set().unwrap().iter().next());
    });
}
