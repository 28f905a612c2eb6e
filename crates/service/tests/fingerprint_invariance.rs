//! Fingerprint invariance: the cache key must be stable under every
//! presentation-only rewrite (α-renaming, conjunct order, independent
//! generator order, equality orientation) and must *differ* whenever the
//! normalized semantics differ.

use co_cq::Schema;
use co_service::{fingerprint_schema, Engine, EngineConfig, Fingerprint};

fn engine() -> Engine {
    let e = Engine::new(EngineConfig {
        cache_shards: 4,
        cache_per_shard: 64,
        ..EngineConfig::default()
    });
    e.register_schema("s", Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]));
    e
}

fn fp(e: &Engine, q: &str) -> Fingerprint {
    e.fingerprint("s", q).unwrap_or_else(|err| panic!("fingerprint `{q}`: {err}"))
}

#[test]
fn alpha_renaming_is_invisible() {
    let e = engine();
    let a = fp(&e, "select [a: x.A, g: (select y.C from y in S where y.C = x.A)] from x in R");
    let b = fp(&e, "select [a: u.A, g: (select v.C from v in S where v.C = u.A)] from u in R");
    assert_eq!(a, b);
}

#[test]
fn where_conjunct_order_and_equality_orientation_are_invisible() {
    let e = engine();
    let a = fp(&e, "select x.B from x in R where x.A = 1 and x.B = 2");
    let b = fp(&e, "select x.B from x in R where x.B = 2 and x.A = 1");
    let c = fp(&e, "select x.B from x in R where 2 = x.B and 1 = x.A");
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn independent_generator_order_is_invisible() {
    let e = engine();
    // x and y range over different relations and are not correlated, so
    // listing them in either order normalizes to the same comprehension.
    let a = fp(&e, "select [a: x.A, c: y.C] from x in R, y in S");
    let b = fp(&e, "select [a: y.A, c: x.C] from s in R, x in S, y in R where y.A = s.A");
    let c = fp(&e, "select [a: x.A, c: y.C] from y in S, x in R");
    assert_eq!(a, c);
    assert_ne!(a, b);
}

#[test]
fn semantic_differences_stay_distinct() {
    let e = engine();
    // The grouped/ungrouped pair from the crate-root docs: containment
    // holds one way only, so the fingerprints must differ.
    let grouped =
        fp(&e, "select [a: x.A, g: (select y.B from y in R where y.A = x.A)] from x in R");
    let looser = fp(&e, "select [a: x.A, g: (select y.B from y in R)] from x in R");
    assert_ne!(grouped, looser);

    // Different constants are different queries.
    assert_ne!(
        fp(&e, "select x.B from x in R where x.A = 1"),
        fp(&e, "select x.B from x in R where x.A = 2")
    );

    // A correlated inner generator is not the same as an uncorrelated one.
    assert_ne!(
        fp(&e, "select [g: (select y.C from y in S where y.C = x.A)] from x in R"),
        fp(&e, "select [g: (select y.C from y in S)] from x in R")
    );
}

#[test]
fn schema_fingerprint_separates_cache_keyspaces() {
    let s1 = Schema::with_relations(&[("R", &["A", "B"])]);
    let s2 = Schema::with_relations(&[("R", &["A", "C"])]);
    let s3 = Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]);
    assert_ne!(fingerprint_schema(&s1), fingerprint_schema(&s2));
    assert_ne!(fingerprint_schema(&s1), fingerprint_schema(&s3));
    assert_eq!(fingerprint_schema(&s1), fingerprint_schema(&s1.clone()));
}

/// Fingerprints are persisted (snapshots, `HANDOFF`) and routed on, so
/// their values are pinned: a change to the canonical text or the hash
/// must fail here and bump `FINGERPRINT_VERSION`.
#[test]
fn fingerprint_values_are_pinned() {
    let flat = Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]);
    let schema = co_lang::CoqlSchema::from_flat(&flat);
    let pinned = [
        ("select x.B from x in R where x.A = 1", "968b1e5ef9103193c3dcbf02c4e138be"),
        (
            "select [a: x.A, g: (select [c: y.C, h: (select z.B from z in R \
             where z.A = y.C and z.B = x.B)] from y in S where y.C = x.A)] from x in R",
            "df03bd09cc1aaae0e574bd96a37b3061",
        ),
        (
            "select [a: x.A, g: (select x.B from x in R where x.A = 2)] from x in R",
            "5c1d4a906c9c7657534e23bb97fb4668",
        ),
        (
            "select [a: x.A, g: (select y.C from y in S)] from x in R, z in {}",
            "d9fd0423392a7d4b0407a1bcaeed8fc2",
        ),
        (
            "select x.B from x in R where x.A = 'a b' and x.B = 'plain'",
            "4a2d959a4a2e5046e28b0666b4dd6e50",
        ),
    ];
    for (q, want) in pinned {
        let got = co_service::canonical_fingerprint(&schema, q, 128).unwrap();
        assert_eq!(got.to_string(), want, "fingerprint of `{q}`");
    }
    let union = "select x.B from x in R where x.A = 1 or select y.B from y in R";
    assert_eq!(
        co_service::canonical_union_fingerprint(&schema, union, 128).unwrap().to_string(),
        "455e195b6c9d0563707cb3e05a7fffa6"
    );
    assert_eq!(fingerprint_schema(&flat).to_string(), "9d2ab87dce827eb0608ee8b7beba5be0");
}
