//! The duplicate-heavy acceptance workload: ≥1000 requests drawn from ≤50
//! distinct normalized pairs, sent by eight concurrent clients, must hit
//! the cache ≥90% of the time and return `holds` verdicts bit-identical to
//! the uncached [`co_core::contained_in`].

use std::collections::HashSet;
use std::thread;

use co_bench::workloads::{coql_schema, service_workload};
use co_service::{Decision, Engine, EngineConfig, Op, Request};

#[test]
fn thousand_requests_fifty_pairs_hit_rate_and_verdicts() {
    const TOTAL: usize = 1200;
    const DISTINCT: usize = 50;

    let schema = coql_schema();
    let pairs = service_workload(TOTAL, DISTINCT, 11);
    assert_eq!(pairs.len(), TOTAL);

    let engine = Engine::new(EngineConfig {
        cache_shards: 8,
        cache_per_shard: 512,
        ..EngineConfig::default()
    });
    engine.register_schema("s", schema.clone());
    let requests: Vec<Request> =
        pairs.iter().map(|(q1, q2)| Request::new(Op::Check, "s", q1, q2)).collect();

    // Each client takes every WORKERS-th request, so identical pairs are
    // in flight on several threads at once and coalesce.
    const WORKERS: usize = 8;
    let decisions: Vec<(usize, Result<Decision, String>)> = thread::scope(|scope| {
        let clients: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (engine, requests) = (&engine, &requests);
                scope.spawn(move || {
                    let mine = (w..TOTAL).step_by(WORKERS);
                    mine.map(|i| (i, engine.decide(&requests[i]))).collect::<Vec<_>>()
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().unwrap()).collect()
    });
    assert_eq!(decisions.len(), TOTAL);

    let mut canonical_pairs = HashSet::new();
    for &(i, ref decision) in &decisions {
        let Ok(Decision::Containment { analysis, fp1, fp2, .. }) = decision else {
            panic!("request {i} ({:?}) failed: {decision:?}", pairs[i]);
        };
        canonical_pairs.insert((*fp1, *fp2));
        // Bit-identical to the uncached decision procedure.
        let (q1, q2) = &pairs[i];
        let reference = co_core::contained_in(
            &co_lang::parse_coql(q1).unwrap(),
            &co_lang::parse_coql(q2).unwrap(),
            &schema,
        )
        .unwrap();
        assert_eq!(analysis.holds, reference.holds, "request {i}: {q1} ;; {q2}");
        assert_eq!(*analysis, reference, "request {i}: {q1} ;; {q2}");
    }

    // The randomized renderings must all collapse to ≤ DISTINCT keys...
    assert!(
        canonical_pairs.len() <= DISTINCT,
        "expected ≤ {DISTINCT} canonical pairs, fingerprinting produced {}",
        canonical_pairs.len()
    );

    // ...so at most one miss per distinct pair actually computes, and the
    // effective hit rate (cache hits + coalesced waits) clears 90%.
    let stats = engine.cache_stats();
    let computed = engine.stats().computed.load(std::sync::atomic::Ordering::Relaxed);
    // Coalescing is best-effort: a client that misses the cache just before
    // the computing thread publishes can recompute. Allow that slack; the
    // hit-rate bound below is the real acceptance criterion.
    assert!(computed <= 2 * DISTINCT as u64, "computed {computed} > 2×{DISTINCT}");
    let coalesced = engine.stats().coalesced.load(std::sync::atomic::Ordering::Relaxed);
    let effective = (stats.hits + coalesced) as f64 / (stats.hits + stats.misses) as f64;
    assert!(
        effective >= 0.90,
        "effective hit rate {effective:.3} < 0.90 ({stats:?}, coalesced {coalesced})"
    );
}
