//! Fresh atoms and names allocate nothing: minting them, and deciding the
//! same request over and over, leaves the interner tables as they were.
//! One test in its own binary, so no other test interns concurrently.

use co_cq::{RelName, Schema, Var};
use co_object::Atom;
use co_service::{Decision, Engine, EngineConfig, Op, Request};

fn table_lengths() -> [usize; 3] {
    [Atom::interned_count(), Var::interned_count(), RelName::interned_count()]
}

#[test]
fn fresh_handles_and_repeated_requests_intern_nothing() {
    let before = table_lengths();
    let minted: Vec<(Atom, Var, RelName)> =
        (0..100_000).map(|_| (Atom::fresh(), Var::fresh(), RelName::fresh())).collect();
    assert!(minted.iter().all(|(a, v, r)| a.is_fresh() && v.is_fresh() && r.is_fresh()));
    assert_eq!(table_lengths(), before, "minting fresh handles grew an interner table");

    // Every request normalizes, which mints a fresh variable per relation
    // occurrence; the first request interns its own names, the rest nothing.
    let engine = Engine::new(EngineConfig::default());
    engine.register_schema("s", Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]));
    let request = Request::new(
        Op::Check,
        "s",
        "select [b: x.B, c: y.C] from x in R, y in S where x.A = 1",
        "select [b: x.B, c: y.C] from x in R, y in S",
    );
    let decide = || match engine.decide(&request).unwrap() {
        Decision::Containment { analysis, .. } => assert!(analysis.holds),
        other => panic!("expected a containment decision, got {other:?}"),
    };
    decide();
    let warm = table_lengths();
    for _ in 0..1000 {
        decide();
    }
    assert_eq!(table_lengths(), warm, "repeated requests grew an interner table");
}
