//! Seeded soak test of the full serving path (feature `slow-tests`).
//!
//! Several client threads fire a mixed stream of plain, `EXPLAIN`,
//! `TIMEOUT`-prefixed, and `METRICS` requests at a live server. The test
//! asserts three things: no request hangs (every read is under a socket
//! timeout), every verdict agrees with a cold single-threaded engine, and
//! the exposed metric counters are monotone non-decreasing across scrapes.
//!
//! Run with `cargo test -p co-service --features slow-tests --test soak`.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use co_cq::Schema;
use co_service::wire::Conn;
use co_service::{serve_with_shutdown, Engine, EngineConfig, Op, Request, ServerConfig, Shutdown};
use rand::{rngs::StdRng, Rng, SeedableRng};

const CLIENTS: usize = 6;
const REQUESTS_PER_CLIENT: usize = 120;
const SEED: u64 = 0xC0DE_50AC;

/// The seeded query corpus: a pool of COQL texts over `R(A,B); S(C)` with
/// enough overlap that the cache, coalescing, and both verdicts all get
/// exercised.
fn corpus() -> Vec<String> {
    let mut pool = vec![
        "select x.B from x in R".to_string(),
        "select x.A from x in R".to_string(),
        "select [a: x.A, b: x.B] from x in R".to_string(),
        "select y.C from y in S".to_string(),
    ];
    for k in 0..6 {
        pool.push(format!("select x.B from x in R where x.A = {k}"));
        pool.push(format!("select [a: x.A] from x in R where x.B = {k}"));
    }
    pool
}

fn start_server() -> (SocketAddr, Shutdown, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let engine = Arc::new(Engine::new(EngineConfig {
        cache_shards: 4,
        cache_per_shard: 256,
        workers: 4,
        ..EngineConfig::default()
    }));
    let shutdown = Shutdown::new();
    let handle = {
        let shutdown = shutdown.clone();
        thread::spawn(move || {
            let config = ServerConfig {
                max_connections: CLIENTS + 2,
                slow_log: Some(Duration::from_secs(5)),
                ..ServerConfig::default()
            };
            serve_with_shutdown(listener, engine, config, shutdown).expect("serve");
        })
    };
    (addr, shutdown, handle)
}

/// Counter samples (`name{labels}` → value) of one `METRICS` scrape,
/// restricted to families declared `# TYPE … counter` (gauges may move
/// either way and are excluded from the monotonicity check).
fn counter_samples(scrape: &str) -> HashMap<String, f64> {
    let mut counters = Vec::new();
    for l in scrape.lines() {
        if let Some(rest) = l.strip_prefix("# TYPE ") {
            if let Some((name, kind)) = rest.split_once(' ') {
                if kind == "counter" {
                    counters.push(name.to_string());
                }
            }
        }
    }
    let mut out = HashMap::new();
    for l in scrape.lines() {
        if l.starts_with('#') || l.is_empty() {
            continue;
        }
        let Some((series, value)) = l.rsplit_once(' ') else { continue };
        let name = series.split('{').next().unwrap();
        if counters.iter().any(|c| c == name) {
            out.insert(series.to_string(), value.parse::<f64>().expect("numeric sample"));
        }
    }
    out
}

#[test]
fn soak_mixed_load_agrees_with_cold_engine_and_metrics_stay_monotone() {
    let (addr, shutdown, handle) = start_server();

    let mut setup = Conn::dial(addr).expect("connect");
    assert!(setup.request("SCHEMA app R(A, B); S(C)").unwrap().starts_with("OK"));

    // Ground truth from a cold, single-threaded engine.
    let cold = Engine::new(EngineConfig::default());
    cold.register_schema("app", Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]));
    let pool = corpus();
    let mut expected: HashMap<(usize, usize), bool> = HashMap::new();
    for i in 0..pool.len() {
        for j in 0..pool.len() {
            let request = Request::new(Op::Check, "app", &pool[i], &pool[j]);
            if let Ok(co_service::Decision::Containment { analysis, .. }) = cold.decide(&request) {
                expected.insert((i, j), analysis.holds);
            }
        }
    }
    let expected = Arc::new(expected);
    let pool = Arc::new(pool);

    let first_scrape = setup.request("METRICS").unwrap();
    let before = counter_samples(&first_scrape);
    assert!(!before.is_empty(), "no counters in scrape: {first_scrape:?}");

    // Not every (i, j) pair has a ground-truth entry (incomparable head
    // types error out of the cold engine), so count what actually ships.
    let sent = AtomicU64::new(0);
    thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            let pool = Arc::clone(&pool);
            let expected = Arc::clone(&expected);
            let sent = &sent;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(SEED ^ client_id as u64);
                let mut client = Conn::dial(addr).expect("connect");
                for step in 0..REQUESTS_PER_CLIENT {
                    if step % 24 == 23 {
                        let scrape = client.request("METRICS").unwrap();
                        assert!(scrape.ends_with("\n# EOF"), "{scrape}");
                        continue;
                    }
                    let i = rng.gen_range(0..pool.len());
                    let j = rng.gen_range(0..pool.len());
                    let Some(&holds) = expected.get(&(i, j)) else { continue };
                    let prefix = match step % 3 {
                        0 => "",
                        1 => "EXPLAIN ",
                        // Generous: asserts the budget plumbing, not expiry.
                        _ => "TIMEOUT 30000 ",
                    };
                    let line = format!("{prefix}CHECK app {} ;; {}", pool[i], pool[j]);
                    sent.fetch_add(1, Ordering::Relaxed);
                    let verdict = if prefix.starts_with("EXPLAIN") {
                        let reply = client.request(&line).unwrap();
                        assert!(
                            reply.lines().any(|l| l.starts_with("explain.kernel.")),
                            "EXPLAIN reply without kernel counters: {reply:?}"
                        );
                        reply.lines().next().unwrap_or_default().to_string()
                    } else {
                        client.request(&line).unwrap()
                    };
                    assert!(
                        verdict.starts_with(&format!("OK holds={holds}")),
                        "client {client_id} step {step}: `{line}` → `{verdict}`, want holds={holds}"
                    );
                }
            });
        }
    });

    let second_scrape = setup.request("METRICS").unwrap();
    let after = counter_samples(&second_scrape);
    for (series, &v0) in &before {
        let v1 = after.get(series).copied().unwrap_or_else(|| panic!("{series} disappeared"));
        assert!(v1 >= v0, "counter {series} went backwards: {v0} → {v1}");
    }
    let decided = after.get("coqld_decisions_total").copied().unwrap_or(0.0);
    let sent = sent.load(Ordering::Relaxed);
    assert!(sent > 0, "seeded load produced no requests");
    assert!(decided >= sent as f64, "decided {decided} < sent {sent}");

    // The load above ran real kernels; their steps must be visible.
    assert!(
        after.iter().any(|(series, &v)| series.starts_with("coqld_kernel_") && v > 0.0),
        "no kernel counter moved: {second_scrape:?}"
    );

    shutdown.trigger();
    handle.join().expect("server thread");
}
