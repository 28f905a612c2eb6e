//! The §7 aggregate wall: the uninterpreted containment and equivalence
//! deciders of `co-agg` against group structures and interpreted
//! evaluation on seeded random databases, and against the `AGG` verdicts
//! a live `coqld` and a one-shard router serve for the same pairs.
//!
//! Pairs come from one seeded generator: an independent random query, an
//! α-renamed and permuted copy (equivalent), or a copy restricted by an
//! extra atom over its group key (contained, one way), so both verdict
//! polarities occur at useful rates.
//!
//! `PROPERTY_CASES` (env, read by the `support` harness) sets the number
//! of seeds per property; `scripts/verify.sh` widens it.

use std::collections::BTreeMap;

use co_agg::{agg_contained_in, agg_equivalent, hidden_key_equivalent, AggFn, AggQuery, AggTerm};
use co_cq::generate::{CqGen, CqGenConfig};
use co_cq::{Database, QueryAtom, Term, Var};
use co_service::wire::Conn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod support;

const CASES_VAR: &str = "PROPERTY_CASES";
const CASES: u64 = 150;

/// A random aggregate query: a random CQ body grouped by its one head
/// term, counting a body variable.
fn random_agg(seed: u64) -> AggQuery {
    let mut g = CqGen::new(seed, CqGenConfig { head_width: 1, atoms: 3, ..CqGenConfig::default() });
    let cq = g.query();
    let arg = cq.body_vars().into_iter().next().unwrap_or_else(|| Var::new("v0"));
    AggQuery {
        group_by: cq.head.clone(),
        aggregates: vec![AggTerm { func: AggFn::Count, arg }],
        body: if cq.body_vars().is_empty() {
            vec![QueryAtom::new("R0", vec![Term::Var(arg), Term::Var(arg)])]
        } else {
            cq.body.clone()
        },
        unsatisfiable: cq.unsatisfiable,
    }
}

/// `q` with every variable renamed and the body in reverse order.
fn renamed(q: &AggQuery) -> AggQuery {
    let rename = |t: &Term| match t {
        Term::Var(v) => Term::var(&format!("w{}", v.name())),
        Term::Const(_) => *t,
    };
    let var = |v: Var| Var::new(&format!("w{}", v.name()));
    AggQuery {
        group_by: q.group_by.iter().map(rename).collect(),
        aggregates: q
            .aggregates
            .iter()
            .map(|a| AggTerm { func: a.func.clone(), arg: var(a.arg) })
            .collect(),
        body: q
            .body
            .iter()
            .rev()
            .map(|a| QueryAtom { rel: a.rel, args: a.args.iter().map(rename).collect() })
            .collect(),
        unsatisfiable: q.unsatisfiable,
    }
}

/// `q` with an extra atom over its group key and a fresh variable: it
/// keeps a subset of `q`'s groups, each with the same members.
fn restricted(q: &AggQuery) -> AggQuery {
    let mut r = q.clone();
    r.body.push(QueryAtom::new("R1", vec![q.group_by[0], Term::var("fresh")]));
    r
}

/// One seeded pair; see the module docs for the mix.
fn agg_pair(seed: u64) -> (AggQuery, AggQuery) {
    let mut rng = StdRng::seed_from_u64(seed);
    let q = random_agg(seed);
    match rng.gen_range(0..4) {
        0 => (q.clone(), renamed(&q)),
        1 => (restricted(&q), renamed(&q)),
        2 => (q.clone(), restricted(&renamed(&q))),
        _ => (q, random_agg(seed.wrapping_add(7919))),
    }
}

fn random_db(seed: u64) -> Database {
    CqGen::new(seed, CqGenConfig::default()).database(5, 4)
}

/// The `AGG` wire form of `q`: datalog body plus `| count(V)`. Variables
/// are upper-cased, as the datalog grammar requires.
fn wire_side(q: &AggQuery) -> String {
    let term = |t: &Term| match t {
        Term::Var(v) => v.name().to_uppercase(),
        Term::Const(c) => c.to_string(),
    };
    let terms = |ts: &[Term]| ts.iter().map(term).collect::<Vec<_>>().join(", ");
    let atoms: Vec<String> =
        q.body.iter().map(|a| format!("{}({})", a.rel, terms(&a.args))).collect();
    let aggs: Vec<String> =
        q.aggregates.iter().map(|a| format!("{}({})", a.func, term(&Term::Var(a.arg)))).collect();
    format!("q({}) :- {}. | {}", terms(&q.group_by), atoms.join(", "), aggs.join(", "))
}

/// Decided-equivalent queries have equal group structures, hence equal
/// answers under every interpretation, on random databases.
#[test]
fn equivalence_is_sound() {
    let mut equivalent = 0u64;
    support::check(CASES_VAR, CASES, |seed| {
        let (q1, q2) = agg_pair(seed);
        if agg_equivalent(&q1, &q2) {
            equivalent += 1;
            for s in 0..4 {
                let db = random_db(seed.wrapping_mul(4).wrapping_add(s) ^ 0xDB);
                assert_eq!(q1.group_structure(&db), q2.group_structure(&db), "{q1} vs {q2}");
                assert_eq!(q1.evaluate(&db), q2.evaluate(&db), "{q1} vs {q2}");
            }
        }
    });
    assert!(equivalent > 0, "no equivalent pair generated");
}

/// Group structures that differ on some random database force the
/// decider to reject equivalence.
#[test]
fn semantic_difference_forces_rejection() {
    support::check(CASES_VAR, CASES, |seed| {
        let (q1, q2) = agg_pair(seed);
        let db = random_db(seed ^ 0xDB);
        if q1.group_structure(&db) != q2.group_structure(&db) {
            assert!(!agg_equivalent(&q1, &q2), "{q1} vs {q2} differ on\n{db}");
        }
    });
}

/// Containment is reflexive and transitive, and equivalence is mutual
/// containment.
#[test]
fn containment_is_a_preorder() {
    support::check(CASES_VAR, CASES, |seed| {
        let (q1, q2) = agg_pair(seed);
        let (_, q3) = agg_pair(seed.wrapping_add(1));
        assert!(agg_contained_in(&q1, &q1), "{q1}");
        assert_eq!(
            agg_equivalent(&q1, &q2),
            agg_contained_in(&q1, &q2) && agg_contained_in(&q2, &q1),
            "{q1} vs {q2}"
        );
        if agg_contained_in(&q1, &q2) && agg_contained_in(&q2, &q3) {
            assert!(agg_contained_in(&q1, &q3), "{q1} / {q2} / {q3}");
        }
    });
}

/// Decided containment means every group of `q1` appears in `q2` with
/// identical members.
#[test]
fn containment_is_sound() {
    let mut strict = 0u64;
    support::check(CASES_VAR, CASES, |seed| {
        let (q1, q2) = agg_pair(seed);
        if agg_contained_in(&q1, &q2) {
            strict += u64::from(!agg_contained_in(&q2, &q1));
            let db = random_db(seed ^ 0xDB);
            let (g1, g2): (BTreeMap<_, _>, BTreeMap<_, _>) =
                (q1.group_structure(&db), q2.group_structure(&db));
            for (key, members) in &g1 {
                assert_eq!(Some(members), g2.get(key), "{q1} ⊑ {q2} violated at {key:?}");
            }
        }
    });
    assert!(strict > 0, "no strictly contained pair generated");
}

/// Visible-key equivalence implies hidden-key equivalence: forgetting the
/// key only makes matching easier.
#[test]
fn visible_key_equivalence_implies_hidden() {
    support::check(CASES_VAR, CASES, |seed| {
        let (q1, q2) = agg_pair(seed);
        if agg_equivalent(&q1, &q2) {
            assert!(hidden_key_equivalent(&q1, &q2), "{q1} vs {q2}");
        }
    });
}

/// `AGG` on a shard and through a one-shard router answers exactly the
/// reference deciders' verdicts, for every generated pair.
#[test]
fn served_verdicts_match_the_reference_deciders() {
    let shard = support::serve_shard(1);
    let mut conns = [
        ("shard", Conn::dial(shard).expect("dial shard")),
        ("router", Conn::dial(support::serve_router(shard)).expect("dial router")),
    ];
    let (mut contained, mut not_contained) = (0u64, 0u64);
    support::check(CASES_VAR, CASES, |seed| {
        let (q1, q2) = agg_pair(seed);
        let (forward, backward) = (agg_contained_in(&q1, &q2), agg_contained_in(&q2, &q1));
        let expected =
            format!("OK forward={forward} backward={backward} equivalent={}", forward && backward);
        let line = format!("AGG {} ;; {}", wire_side(&q1), wire_side(&q2));
        for (side, conn) in &mut conns {
            assert_eq!(conn.request(&line).expect("AGG reply"), expected, "{side}: {line}");
        }
        if forward {
            contained += 1;
        } else {
            not_contained += 1;
        }
    });
    assert!(
        contained > 0 && not_contained > 0,
        "degenerate workload: {contained} contained / {not_contained} not"
    );
}
