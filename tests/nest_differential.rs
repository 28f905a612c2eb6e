//! The §3.1 algebra wall: the algebra→COQL translations against direct
//! algebra evaluation, `nest;unnest` on values, and the sequence
//! equivalence decider against values and against the `NEST` verdicts a
//! live `coqld` and a one-shard router serve for the same pairs.
//!
//! `PROPERTY_CASES` (env, read by the `support` harness) sets the number
//! of seeds per property; `scripts/verify.sh` widens it. The database
//! seed `17175475527241745170` runs as a fixed case.

use co_algebra::{equivalent_sequences, to_coql, AlgExpr, NuOp, NuSeq};
use co_cq::{RelName, Schema};
use co_lang::{CoDatabase, CoqlSchema};
use co_object::{Atom, Field, Type, Value};
use co_service::wire::Conn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod support;

const CASES_VAR: &str = "PROPERTY_CASES";
const CASES: u64 = 150;
const FIXED_DB_SEED: u64 = 17175475527241745170;

fn schema() -> CoqlSchema {
    CoqlSchema::new()
        .with("R", Type::flat_relation(&[Field::new("A"), Field::new("B")]))
        .with("T", Type::flat_relation(&[Field::new("C")]))
}

fn random_db(seed: u64) -> CoDatabase {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r = Vec::new();
    for _ in 0..rng.gen_range(0..5) {
        r.push(
            Value::record(vec![
                (Field::new("A"), Value::int(rng.gen_range(0..3))),
                (Field::new("B"), Value::int(rng.gen_range(0..3))),
            ])
            .unwrap(),
        );
    }
    let mut t = Vec::new();
    for _ in 0..rng.gen_range(0..4) {
        t.push(Value::record(vec![(Field::new("C"), Value::int(rng.gen_range(0..3)))]).unwrap());
    }
    CoDatabase::new().with("R", Value::set(r)).with("T", Value::set(t))
}

/// The database seeds a property over databases runs: the seeded range
/// plus the fixed case.
fn db_seeds(property: impl FnMut(u64)) {
    support::check_with_fixed(CASES_VAR, CASES, &[FIXED_DB_SEED], property);
}

/// A random algebra expression over the fixed schema, flat-typed so that
/// every operator applies.
fn random_alg(seed: u64) -> AlgExpr {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e = AlgExpr::rel("R");
    for _ in 0..rng.gen_range(0..3) {
        e = match rng.gen_range(0..6) {
            0 => AlgExpr::SelectEq(Box::new(e), Field::new("A"), Field::new("B")),
            1 => AlgExpr::SelectConst(Box::new(e), Field::new("A"), Atom::int(rng.gen_range(0..3))),
            2 => AlgExpr::Project(Box::new(e), vec![Field::new("A"), Field::new("B")]),
            3 => AlgExpr::Flatten(Box::new(AlgExpr::Singleton(Box::new(e)))),
            4 => AlgExpr::Nest(Box::new(e), vec![Field::new("B")], Field::new("g")).unnest("g"),
            _ => e,
        };
    }
    if rng.gen_bool(0.3) {
        e = AlgExpr::Product(Box::new(e), Box::new(AlgExpr::rel("T")));
    }
    e
}

/// A random valid `nest;unnest` sequence over `R(A, B)`: up to three
/// steps, each nesting one attribute into `g` or `h`, or unnesting the
/// set a previous step made.
fn random_seq(rng: &mut StdRng) -> NuSeq {
    let mut ops = Vec::new();
    let mut nested: Option<&str> = None;
    for _ in 0..rng.gen_range(0..=3) {
        ops.push(match nested.take() {
            Some(field) => NuOp::unnest(field),
            None => {
                let field = if rng.gen_bool(0.5) { "g" } else { "h" };
                nested = Some(field);
                NuOp::nest(&[if rng.gen_bool(0.5) { "A" } else { "B" }], field)
            }
        });
    }
    NuSeq::new("R", ops)
}

/// The three sequence pairs every seed checks, then one generated pair.
fn seq_pairs(seed: u64) -> Vec<(NuSeq, NuSeq)> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        (
            NuSeq::new("R", vec![NuOp::nest(&["B"], "g"), NuOp::unnest("g")]),
            NuSeq::new("R", vec![]),
        ),
        (
            NuSeq::new("R", vec![NuOp::nest(&["B"], "g")]),
            NuSeq::new("R", vec![NuOp::nest(&["B"], "g")]),
        ),
        (
            NuSeq::new("R", vec![NuOp::nest(&["B"], "g")]),
            NuSeq::new("R", vec![NuOp::nest(&["A"], "g")]),
        ),
        (random_seq(&mut rng), random_seq(&mut rng)),
    ]
}

/// The `NEST` wire form of a sequence: `R ; nest B as g ; unnest g`.
fn wire_side(seq: &NuSeq) -> String {
    let mut out = seq.base.clone();
    for op in &seq.ops {
        match op {
            NuOp::Nest { set_attrs, as_field } => {
                let attrs: Vec<String> = set_attrs.iter().map(Field::to_string).collect();
                out += &format!(" ; nest {} as {as_field}", attrs.join(","));
            }
            NuOp::Unnest { field } => out += &format!(" ; unnest {field}"),
        }
    }
    out
}

/// §3.1 executable: translated algebra expressions evaluate identically
/// to their direct algebra semantics, at the translation's type.
#[test]
fn translation_preserves_semantics() {
    let schema = schema();
    support::check(CASES_VAR, CASES, |seed| {
        let alg = random_alg(seed);
        let db = random_db(seed ^ 0xDB);
        let Ok(direct) = alg.evaluate(&db) else { return }; // attribute collisions etc.
        let Ok((coql, ty)) = to_coql(&alg, &schema) else { return };
        let via = co_lang::evaluate(&coql, &db).unwrap_or_else(|e| panic!("{coql}: {e}"));
        assert_eq!(direct, via, "{alg:?} as {coql}");
        assert!(co_object::check_type(&via, &ty).is_ok(), "{coql}: {via} is not a {ty}");
    });
}

/// `nest;unnest` is the identity on any relation value: nest never drops
/// rows, and unnest never drops non-empty groups.
#[test]
fn nest_unnest_is_the_identity_on_values() {
    let seq = NuSeq::new("R", vec![NuOp::nest(&["B"], "g"), NuOp::unnest("g")]);
    db_seeds(|db_seed| {
        let base = random_db(db_seed).relation(RelName::new("R"));
        assert_eq!(seq.apply(&base).unwrap(), base);
    });
}

/// Nest results never hold empty inner sets (the §4 hypothesis of the
/// GPvG result), and the nest translation evaluates to the same value.
#[test]
fn nest_results_are_empty_set_free() {
    let alg = AlgExpr::rel("R").nest(&["B"], "g");
    let (coql, _) = to_coql(&alg, &schema()).unwrap();
    db_seeds(|db_seed| {
        let db = random_db(db_seed);
        let v = alg.evaluate(&db).unwrap();
        // The root set may be empty (empty input); §4 is about inner sets.
        let inner_ok = v.as_set().is_some_and(|s| s.iter().all(|e| !e.contains_empty_set()));
        assert!(inner_ok, "{v}");
        assert_eq!(v, co_lang::evaluate(&coql, &db).unwrap());
    });
}

/// Sequence equivalence decisions agree with values: decided-equivalent
/// sequences agree on every random base, and sequences some base
/// separates are decided inequivalent.
#[test]
fn sequence_decisions_match_values() {
    let flat = Schema::with_relations(&[("R", &["A", "B"])]);
    let (mut equivalent, mut separated) = (0u64, 0u64);
    db_seeds(|seed| {
        let base = random_db(seed).relation(RelName::new("R"));
        for (s1, s2) in seq_pairs(seed) {
            let decided = equivalent_sequences(&s1, &s2, &flat).unwrap();
            let (v1, v2) = (s1.apply(&base).unwrap(), s2.apply(&base).unwrap());
            if decided {
                equivalent += 1;
                assert_eq!(v1, v2, "decided equivalent: {s1} vs {s2}");
            }
            if v1 != v2 {
                separated += 1;
                assert!(!decided, "separated by {base} but decided equivalent: {s1} vs {s2}");
            }
        }
    });
    assert!(equivalent > 0 && separated > 0, "{equivalent} equivalent / {separated} separated");
}

/// `NEST` on a shard and through a one-shard router answers exactly the
/// reference decider's verdict, for every pair.
#[test]
fn served_verdicts_match_the_reference_decider() {
    let flat = Schema::with_relations(&[("R", &["A", "B"])]);
    let shard = support::serve_shard(1);
    let mut conns = [
        ("shard", Conn::dial(shard).expect("dial shard")),
        ("router", Conn::dial(support::serve_router(shard)).expect("dial router")),
    ];
    for (side, conn) in &mut conns {
        let reply = conn.request("SCHEMA app R(A, B)").unwrap();
        assert!(reply.starts_with("OK"), "{side}: {reply}");
    }
    support::check(CASES_VAR, CASES, |seed| {
        for (s1, s2) in seq_pairs(seed) {
            let verdict = equivalent_sequences(&s1, &s2, &flat).unwrap();
            let expected =
                format!("OK equivalent={verdict} ops1={} ops2={}", s1.ops.len(), s2.ops.len());
            let line = format!("NEST app {} ;; {}", wire_side(&s1), wire_side(&s2));
            for (side, conn) in &mut conns {
                assert_eq!(conn.request(&line).expect("NEST reply"), expected, "{side}: {line}");
            }
        }
    });
}
