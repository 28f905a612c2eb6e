//! End-to-end fleet tests: a real router in front of real coqld shards,
//! all in-process over loopback TCP.
//!
//! Pins down the tentpole behaviors: cache affinity (α-renamed repeats
//! of one semantic pair land on exactly one shard's cache), verdict
//! correctness through the proxy, `EXPLAIN` augmentation, shed-to-sibling
//! failover past a killed shard, fleet `METRICS` aggregation, and warm
//! `HANDOFF` of a new shard.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use co_router::{serve_router_with_shutdown, Router, RouterConfig};
use co_service::wire::Conn;
use co_service::{serve_with_shutdown, Engine, EngineConfig, ServerConfig, Shutdown};

fn start_shard(allow_handoff: bool) -> (SocketAddr, Shutdown, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind shard");
    let addr = listener.local_addr().unwrap();
    let engine = Arc::new(Engine::new(EngineConfig {
        cache_shards: 2,
        cache_per_shard: 256,
        workers: 2,
        ..EngineConfig::default()
    }));
    let shutdown = Shutdown::new();
    let handle = {
        let shutdown = shutdown.clone();
        thread::spawn(move || {
            let config = ServerConfig { allow_handoff, ..ServerConfig::default() };
            serve_with_shutdown(listener, engine, config, shutdown).expect("serve shard");
        })
    };
    (addr, shutdown, handle)
}

fn test_config() -> RouterConfig {
    RouterConfig {
        probe_interval: Duration::from_millis(100),
        down_after: 2,
        connect_timeout: Duration::from_millis(500),
        forward_timeout: Duration::from_secs(30),
        ..RouterConfig::default()
    }
}

fn start_router(
    shards: &[SocketAddr],
    config: RouterConfig,
) -> (SocketAddr, Arc<Router>, Shutdown, thread::JoinHandle<()>) {
    let labels: Vec<String> = shards.iter().map(|a| a.to_string()).collect();
    let router = Router::new(&labels, config);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let addr = listener.local_addr().unwrap();
    let shutdown = router.shutdown_handle();
    let handle = {
        let router = Arc::clone(&router);
        let shutdown = shutdown.clone();
        thread::spawn(move || {
            serve_router_with_shutdown(listener, router, shutdown).expect("serve router");
        })
    };
    (addr, router, shutdown, handle)
}

const SCHEMA: &str = "SCHEMA app R(A,B); S(C)";
const VARS: [&str; 6] = ["x", "y", "z", "u", "v", "w"];

/// One α-renamed rendering of the semantic pair `filtered-by-k ⊑ all`.
fn pair(k: usize, var: &str) -> String {
    format!("select {var}.B from {var} in R where {var}.A = {k} ;; select {var}.B from {var} in R")
}

/// The lines of one whole reply, terminator included.
fn reply_lines(conn: &mut Conn, request: &str) -> Vec<String> {
    conn.request(request).unwrap().lines().map(String::from).collect()
}

/// One numeric `STATS` value.
fn stat(conn: &mut Conn, key: &str) -> u64 {
    let stats = conn.request("STATS").unwrap();
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|v| v.strip_prefix(' ')))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("STATS has no numeric `{key}`: {stats}"))
}

#[test]
fn affinity_verdicts_and_explain() {
    let shards: Vec<_> = (0..3).map(|_| start_shard(false)).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.0).collect();
    let (router_addr, router, stop, handle) = start_router(&addrs, test_config());
    let mut c = Conn::dial(router_addr).expect("connect");

    let reply = c.request(SCHEMA).unwrap();
    assert!(reply.starts_with("OK schema=app fp="), "{reply}");
    assert!(reply.ends_with("relations=2 shards=3/3"), "{reply}");

    // 6 α-renamed renderings of each of 4 semantic pairs: every rendering
    // canonicalizes to the same fingerprints, so each pair must land on
    // ONE shard and hit its cache 5 times.
    for k in 0..4 {
        for var in VARS {
            let reply = c.request(&format!("CHECK app {}", pair(k, var))).unwrap();
            assert!(reply.starts_with("OK holds=true"), "{reply}");
        }
        // The reverse direction routes to the same shard too (the route
        // key is direction-invariant) and is its own cache entry.
        let reverse =
            format!("CHECK app select x.B from x in R ;; select x.B from x in R where x.A = {k}");
        let reply = c.request(&reverse).unwrap();
        assert!(reply.starts_with("OK holds=false"), "{reply}");
    }

    // Per-shard cache hits: 4 pairs × 5 duplicate renderings. Affinity
    // means the fleet-wide hit total is exactly 20 — a misrouted repeat
    // would recompute (miss) somewhere else instead.
    let mut total_hits = 0;
    let mut shards_with_hits = 0;
    for addr in &addrs {
        let hits = stat(&mut Conn::dial(*addr).expect("connect"), "cache.hits");
        total_hits += hits;
        shards_with_hits += u64::from(hits > 0);
    }
    assert_eq!(total_hits, 20, "every duplicate must be a same-shard cache hit");
    assert!(shards_with_hits >= 1, "at least one shard saw the repeats");

    // EXPLAIN through the router: shard phases plus router phases.
    let lines = reply_lines(
        &mut c,
        "EXPLAIN CHECK app select q.B from q in R where q.A = 0 ;; select q.B from q in R",
    );
    assert!(lines[0].starts_with("OK holds=true"), "{lines:?}");
    for key in [
        "explain.parse_us",
        "explain.router.route_us",
        "explain.router.forward_us",
        "explain.router.attempts",
        "explain.router.shard",
    ] {
        assert!(lines.iter().any(|l| l.starts_with(key)), "missing {key}: {lines:?}");
    }

    drop(c); // hang up first, so the drains end at once
    stop.trigger();
    handle.join().unwrap();
    drop(router); // closes its pooled connections
    for (_, s, h) in shards {
        s.trigger();
        h.join().unwrap();
    }
}

/// Regression: each hop wrote a line's text and its `\n` in two writes, so
/// under Nagle's algorithm every reply waited out a delayed ACK, about
/// 44 ms per request (4.4 s for this loop).
#[test]
fn sequential_cached_checks_through_the_router_do_not_stall() {
    let (shard, shard_stop, shard_handle) = start_shard(false);
    let (router_addr, router, stop, handle) = start_router(&[shard], test_config());
    let mut conn = Conn::dial(router_addr).expect("connect");
    let mut exchange = |line: &str| conn.request(line).unwrap();
    assert!(exchange(SCHEMA).starts_with("OK"));
    let check = format!("CHECK app {}", pair(1, "x"));
    assert!(exchange(&check).starts_with("OK holds=true"));

    let start = Instant::now();
    for _ in 0..100 {
        let reply = exchange(&check);
        assert!(reply.starts_with("OK holds=true") && reply.contains("cached=true"), "{reply}");
    }
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(1), "100 cached CHECKs took {elapsed:?}");
    // Hang up so the router's drain does not wait for this connection.
    exchange("QUIT");

    stop.trigger();
    handle.join().unwrap();
    drop(router); // closes its pooled connection, so the shard drains at once
    shard_stop.trigger();
    shard_handle.join().unwrap();
}

/// A peer at a shard's address that answers every decision with one line
/// of 2 MiB, twice the router's reply-line cap.
fn oversized_reply_shard() -> SocketAddr {
    use std::io::{BufRead, BufReader, Write};
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().unwrap();
    thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                    let reply = match line.split_whitespace().next().unwrap_or("") {
                        "STATS" => format!(
                            "uptime_seconds 1\nbuild.format_version {}\n\
                             build.fingerprint_version {}\nEND\n",
                            co_service::FORMAT_VERSION,
                            co_service::FINGERPRINT_VERSION
                        ),
                        "SCHEMA" => "OK schema=app fp=0 relations=2\n".to_string(),
                        "QUIT" => return,
                        _ => format!("OK holds=true {}\n", "x".repeat(2 << 20)),
                    };
                    // The router hangs up after the cap; later writes fail.
                    if writer.write_all(reply.as_bytes()).is_err() {
                        return;
                    }
                    line.clear();
                }
            });
        }
    });
    addr
}

#[test]
fn oversized_shard_replies_fail_the_attempt() {
    let fake = oversized_reply_shard();
    let (router_addr, _router, stop, handle) = start_router(&[fake], test_config());
    let mut c = Conn::dial(router_addr).expect("connect");
    assert!(c.request(SCHEMA).unwrap().starts_with("OK"));
    let reply = c.request(&format!("CHECK app {}", pair(1, "x"))).unwrap();
    assert!(reply.starts_with("ERR UNAVAILABLE"), "{}", &reply[..reply.len().min(80)]);
    // Every attempt failed and was charged to the shard's breaker.
    assert!(stat(&mut c, "router.shed") >= 1);
    assert_eq!(stat(&mut c, "router.routed"), 0);
    let shards = c.request("SHARDS").unwrap();
    assert!(!shards.contains("failures=0 ") || shards.contains("state=open"), "{shards}");

    // With a healthy sibling the same request fails over and is answered.
    let (shard, shard_stop, shard_handle) = start_shard(false);
    let (router2_addr, router2, stop2, handle2) = start_router(&[fake, shard], test_config());
    let mut c2 = Conn::dial(router2_addr).expect("connect");
    assert!(c2.request(SCHEMA).unwrap().starts_with("OK"));
    for k in 0..8 {
        let reply = c2.request(&format!("CHECK app {}", pair(k, "y"))).unwrap();
        assert!(reply.starts_with("OK holds=true"), "{}", &reply[..reply.len().min(80)]);
    }

    drop((c, c2));
    for (stop, handle) in [(stop, handle), (stop2, handle2)] {
        stop.trigger();
        handle.join().unwrap();
    }
    drop(router2); // closes its pooled connections, so the shard drains at once
    shard_stop.trigger();
    shard_handle.join().unwrap();
}

#[test]
fn ucheck_duplicates_stay_cache_affine() {
    let shards: Vec<_> = (0..3).map(|_| start_shard(false)).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.0).collect();
    let (router_addr, router, stop, handle) = start_router(&addrs, test_config());
    let mut c = Conn::dial(router_addr).expect("connect");
    assert!(c.request(SCHEMA).unwrap().starts_with("OK"));

    // One semantic union pair, rendered six ways: permuted disjuncts,
    // α-renamed variables, and a duplicated disjunct. The order-invariant
    // union fingerprint routes every rendering to ONE shard, so all five
    // repeats answer from the pair verdicts memoized there.
    let renderings = [
        "select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2 \
         ;; select y.B from y in R",
        "select x.B from x in R where x.A = 2 or select x.B from x in R where x.A = 1 \
         ;; select y.B from y in R",
        "select u.B from u in R where u.A = 1 or select v.B from v in R where v.A = 2 \
         ;; select w.B from w in R",
        "select p.B from p in R where 2 = p.A or select q.B from q in R where 1 = q.A \
         ;; select r.B from r in R",
        "select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2 \
         or select z.B from z in R where z.A = 1 ;; select y.B from y in R",
        "select a.B from a in R where a.A = 2 or select b.B from b in R where b.A = 1 \
         ;; select y1.B from y1 in R",
    ];
    for (i, rendering) in renderings.iter().enumerate() {
        let reply = c.request(&format!("UCHECK app {rendering}")).unwrap();
        assert!(reply.starts_with("OK holds=true"), "{reply}");
        let expect = if i == 0 { "cached=false" } else { "cached=true" };
        assert!(reply.contains(expect), "rendering {i} answered `{reply}`");
    }

    // Exactly one shard holds the pair verdicts; the fleet-wide hit total is
    // exactly the repeat count — a misrouted duplicate would recompute
    // (cached=false) on some other shard instead.
    let mut total_hits = 0;
    let mut shards_with_entries = 0;
    for addr in &addrs {
        let mut shard = Conn::dial(*addr).expect("connect");
        total_hits += stat(&mut shard, "unions.hits");
        shards_with_entries += u64::from(stat(&mut shard, "cache.entries") > 0);
    }
    assert_eq!(total_hits, renderings.len() as u64 - 1, "every repeat must hit the same memo");
    assert_eq!(shards_with_entries, 1, "pair verdicts memoized on exactly one shard");

    // CERT UCHECK passes through the router multi-line, certificate
    // block intact and checkable.
    let lines = reply_lines(&mut c, &format!("CERT UCHECK app {}", renderings[0]));
    assert!(lines[0].starts_with("OK holds=true"), "{lines:?}");
    let body = lines[1..lines.len() - 1].join("\n");
    let cert = co_cert::UnionCert::parse(&body).expect("parse COUNION1 through router");
    assert!(cert.holds);
    assert_eq!(cert.left, 2);

    // UEQUIV routes by the same unordered key: both directions of the
    // pair stay on the memoized shard (the backward direction is new, the
    // forward one is already hot).
    let reply = c
        .request(
            "UEQUIV app select x.B from x in R where x.A = 1 or select x.B from x in R \
         ;; select y.B from y in R",
        )
        .unwrap();
    assert!(reply.starts_with("OK equivalent=true"), "{reply}");

    // Union parse errors are answered by the router locally.
    let before = {
        let lines = reply_lines(&mut c, "STATS");
        lines
            .iter()
            .find_map(|l| l.strip_prefix("router.local_errors "))
            .and_then(|v| v.parse::<u64>().ok())
            .expect("router.local_errors present")
    };
    let reply =
        c.request("UCHECK app select x.B from x in R or ;; select y.B from y in R").unwrap();
    assert!(reply.starts_with("ERR"), "{reply}");
    let after = {
        let lines = reply_lines(&mut c, "STATS");
        lines
            .iter()
            .find_map(|l| l.strip_prefix("router.local_errors "))
            .and_then(|v| v.parse::<u64>().ok())
            .expect("router.local_errors present")
    };
    assert_eq!(after, before + 1, "malformed union answered locally, no shard round-trip");

    drop(c); // hang up first, so the drains end at once
    stop.trigger();
    handle.join().unwrap();
    drop(router); // closes its pooled connections
    for (_, s, h) in shards {
        s.trigger();
        h.join().unwrap();
    }
}

/// `AGG` and `NEST` are forwarded like any other decision: through a
/// one-shard router they answer exactly what the shard answers directly.
#[test]
fn agg_and_nest_answer_exactly_as_the_shard() {
    let (shard, shard_stop, shard_handle) = start_shard(false);
    let (router_addr, router, stop, handle) = start_router(&[shard], test_config());
    let mut via_router = Conn::dial(router_addr).expect("connect");
    assert!(via_router.request(SCHEMA).unwrap().starts_with("OK"));
    let mut direct = Conn::dial(shard).expect("connect");
    for line in [
        "AGG q(X) :- R(X,Y). | count(Y) ;; q(X) :- R(X,Z). | count(Z)",
        "NEST app R ; nest B as G ; unnest G ;; R",
    ] {
        let want = direct.request(line).unwrap();
        assert!(want.starts_with("OK "), "shard: {want}");
        assert_eq!(via_router.request(line).unwrap(), want, "{line}");
    }
    assert!(via_router.request("FROB").unwrap().contains("AGG, NEST"));
    drop((via_router, direct));

    stop.trigger();
    handle.join().unwrap();
    drop(router);
    shard_stop.trigger();
    shard_handle.join().unwrap();
}

#[test]
fn multi_line_schemas_reach_the_shards_whole() {
    let shards: Vec<_> = (0..2).map(|_| start_shard(false)).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.0).collect();
    let (router_addr, router, stop, handle) = start_router(&addrs, test_config());

    // A `--schema` file declares one relation per line.
    let (_, relations, acked, total) = router.register_schema("app", "R(A, B)\nS(C)").unwrap();
    assert_eq!((relations, acked, total), (2, 2, 2));
    let mut c = Conn::dial(router_addr).expect("connect");
    let reply = c
        .request("CHECK app select y.C from y in S where y.C = 1 ;; select z.C from z in S")
        .unwrap();
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    for addr in &addrs {
        let reply = Conn::dial(*addr)
            .expect("connect")
            .request("CHECK app select y.C from y in S ;; select z.C from z in S")
            .unwrap();
        assert!(reply.starts_with("OK holds=true"), "shard {addr}: {reply}");
    }

    drop(c); // hang up first, so the drains end at once
    stop.trigger();
    handle.join().unwrap();
    drop(router); // closes its pooled connections
    for (_, s, h) in shards {
        s.trigger();
        h.join().unwrap();
    }
}

#[test]
fn killed_shard_sheds_to_siblings_with_zero_wrong_verdicts() {
    let shards: Vec<_> = (0..3).map(|_| start_shard(false)).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.0).collect();
    let (router_addr, router, stop, handle) = start_router(&addrs, test_config());
    let mut c = Conn::dial(router_addr).expect("connect");
    assert!(c.request(SCHEMA).unwrap().starts_with("OK"));

    // Kill one shard outright, then keep serving. Every request must be
    // answered correctly — sheds and retries are allowed, wrong verdicts
    // and router crashes are not.
    let (dead_addr, dead_stop, _) = &shards[1];
    dead_stop.trigger();
    for k in 0..8 {
        for var in &VARS[..3] {
            let reply = c.request(&format!("CHECK app {}", pair(k, var))).unwrap();
            assert!(
                reply.starts_with("OK holds=true"),
                "request after shard kill answered `{reply}`"
            );
        }
    }

    // Within a couple of probe intervals the prober drains the corpse:
    // SHARDS reports it down.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let lines = reply_lines(&mut c, "SHARDS");
        let dead_line = lines
            .iter()
            .find(|l| l.starts_with(&dead_addr.to_string()))
            .unwrap_or_else(|| panic!("SHARDS lost {dead_addr}: {lines:?}"))
            .clone();
        if dead_line.contains("up=false") {
            break;
        }
        assert!(Instant::now() < deadline, "shard never marked down: {dead_line}");
        thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(router.shard_addrs().len(), 3, "membership is static; only liveness changed");

    drop(c); // hang up first, so the drains end at once
    stop.trigger();
    handle.join().unwrap();
    drop(router); // closes its pooled connections
    for (_, s, h) in shards {
        s.trigger();
        let _ = h.join();
    }
}

#[test]
fn open_breaker_cuts_traffic_then_recloses_after_restart() {
    let shards: Vec<_> = (0..3).map(|_| start_shard(false)).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.0).collect();
    let config = RouterConfig {
        breaker_open_for: Duration::from_millis(400),
        breaker_max_open: Duration::from_millis(1600),
        ..test_config()
    };
    let (router_addr, router, stop, handle) = start_router(&addrs, config);
    let mut c = Conn::dial(router_addr).expect("connect");
    assert!(c.request(SCHEMA).unwrap().starts_with("OK"));

    // Warm six semantic pairs so the later hammer is all cache hits (the
    // breaker-window arithmetic below needs the hammer to be fast).
    for k in 0..6 {
        assert!(c
            .request(&format!("CHECK app {}", pair(k, "x")))
            .unwrap()
            .starts_with("OK holds=true"));
    }

    // Kill one shard; one failover round re-computes its pairs on
    // siblings (correct verdicts, now cached there too).
    let (dead_addr, dead_stop, _) = &shards[1];
    dead_stop.trigger();
    for k in 0..6 {
        assert!(c
            .request(&format!("CHECK app {}", pair(k, "x")))
            .unwrap()
            .starts_with("OK holds=true"));
    }

    // Failed probes/dials trip the breaker: SHARDS soon shows it Open.
    let shard_line = |c: &mut Conn, addr: &SocketAddr| -> String {
        let lines = reply_lines(c, "SHARDS");
        lines
            .iter()
            .find(|l| l.starts_with(&addr.to_string()))
            .unwrap_or_else(|| panic!("SHARDS lost {addr}: {lines:?}"))
            .clone()
    };
    let field = |line: &str, key: &str| -> String {
        line.split_whitespace()
            .find_map(|t| t.strip_prefix(&format!("{key}=")).map(str::to_string))
            .unwrap_or_else(|| panic!("no `{key}=` in `{line}`"))
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let line = shard_line(&mut c, dead_addr);
        if field(&line, "state") == "open" {
            assert_eq!(field(&line, "up"), "false", "{line}");
            break;
        }
        assert!(Instant::now() < deadline, "breaker never opened: {line}");
        thread::sleep(Duration::from_millis(50));
    }

    // While Open the shard receives no request traffic: hammer 18 cached
    // requests and watch its attempt counter stay (nearly) frozen — only
    // an occasional half-open trial may touch it. Without the breaker the
    // dead owner would eat a dial per request for its ~third of the keys.
    let before: u64 = field(&shard_line(&mut c, dead_addr), "attempts").parse().unwrap();
    for _ in 0..3 {
        for k in 0..6 {
            assert!(c
                .request(&format!("CHECK app {}", pair(k, "x")))
                .unwrap()
                .starts_with("OK holds=true"));
        }
    }
    let after: u64 = field(&shard_line(&mut c, dead_addr), "attempts").parse().unwrap();
    assert!(after - before <= 3, "Open breaker leaked traffic: {before} -> {after}");

    // Restart a shard on the same port (fresh engine, no schema — the
    // router re-pushes it on demand). The next half-open probe trial
    // succeeds and the breaker recloses.
    let revived = {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match TcpListener::bind(dead_addr) {
                Ok(l) => break l,
                Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(50)),
                Err(e) => panic!("port {dead_addr} never freed: {e}"),
            }
        }
    };
    let engine = Arc::new(Engine::new(EngineConfig {
        cache_shards: 2,
        cache_per_shard: 256,
        workers: 2,
        ..EngineConfig::default()
    }));
    let revived_stop = Shutdown::new();
    let revived_handle = {
        let shutdown = revived_stop.clone();
        thread::spawn(move || {
            serve_with_shutdown(revived, engine, ServerConfig::default(), shutdown)
                .expect("serve revived shard");
        })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let line = shard_line(&mut c, dead_addr);
        if field(&line, "state") == "closed" {
            assert_eq!(field(&line, "up"), "true", "{line}");
            break;
        }
        assert!(Instant::now() < deadline, "breaker never reclosed: {line}");
        thread::sleep(Duration::from_millis(50));
    }

    // Serving resumes through the revived shard (schema healed on the fly).
    for k in 0..6 {
        assert!(c
            .request(&format!("CHECK app {}", pair(k, "y")))
            .unwrap()
            .starts_with("OK holds=true"));
    }

    // The full breaker cycle is visible in METRICS.
    let lines = reply_lines(&mut c, "METRICS");
    for transition in ["open", "half_open", "close"] {
        let series = format!(
            "router_breaker_transitions_total{{shard=\"{dead_addr}\",transition=\"{transition}\"}}"
        );
        let count = lines
            .iter()
            .find_map(|l| l.strip_prefix(&format!("{series} ")))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("missing series {series}"));
        assert!(count >= 1, "{series} never incremented");
    }

    drop(c); // hang up first, so the drains end at once
    stop.trigger();
    handle.join().unwrap();
    drop(router); // closes its pooled connections
    revived_stop.trigger();
    revived_handle.join().unwrap();
    for (_, s, h) in shards {
        s.trigger();
        let _ = h.join();
    }
}

#[test]
fn fleet_metrics_aggregate_and_stay_parseable() {
    let shards: Vec<_> = (0..2).map(|_| start_shard(false)).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.0).collect();
    let (router_addr, router, stop, handle) = start_router(&addrs, test_config());
    let mut c = Conn::dial(router_addr).expect("connect");
    assert!(c.request(SCHEMA).unwrap().starts_with("OK"));
    for var in VARS {
        assert!(c.request(&format!("CHECK app {}", pair(0, var))).unwrap().starts_with("OK"));
    }

    let lines = reply_lines(&mut c, "METRICS");

    // Shard families survive with both a fleet sum and per-shard labels.
    assert!(
        lines.iter().any(|l| l.starts_with("coqld_decisions_total ")),
        "fleet-summed counter missing: {lines:?}"
    );
    for addr in &addrs {
        let label = format!("{{shard=\"{addr}\"}}");
        assert!(
            lines.iter().any(|l| l.starts_with("coqld_decisions_total{") && l.contains(&label)),
            "per-shard sample for {addr} missing"
        );
    }
    // Router families are appended.
    let routed = lines
        .iter()
        .find_map(|l| l.strip_prefix("router_routed_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("router_routed_total present");
    assert_eq!(routed, VARS.len() as u64);
    assert!(lines.iter().any(|l| l.starts_with("router_shard_up{")), "{lines:?}");

    // The whole exposition still parses: every sample line is
    // `name{labels} value` with a valid metric name and numeric value.
    for l in lines.iter().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let (series, value) = l.rsplit_once(' ').unwrap_or_else(|| panic!("bad sample `{l}`"));
        let name = series.split('{').next().unwrap();
        assert!(co_trace::is_valid_metric_name(name), "bad name in `{l}`");
        assert!(value.parse::<f64>().is_ok(), "bad value in `{l}`");
    }

    drop(c); // hang up first, so the drains end at once
    stop.trigger();
    handle.join().unwrap();
    drop(router); // closes its pooled connections
    for (_, s, h) in shards {
        s.trigger();
        h.join().unwrap();
    }
}

#[test]
fn handoff_ships_the_warm_cache_to_a_joining_shard() {
    let (seed_addr, seed_stop, seed_handle) = start_shard(true);
    let (router_addr, router, stop, handle) = start_router(&[seed_addr], test_config());
    let mut c = Conn::dial(router_addr).expect("connect");
    assert!(c.request(SCHEMA).unwrap().starts_with("OK"));
    for k in 0..5 {
        assert!(c
            .request(&format!("CHECK app {}", pair(k, "x")))
            .unwrap()
            .starts_with("OK holds=true"));
    }

    let (joiner_addr, joiner_stop, joiner_handle) = start_shard(true);
    let reply = c.request(&format!("HANDOFF {joiner_addr}")).unwrap();
    assert!(reply.starts_with("OK handoff "), "{reply}");
    assert!(reply.contains(&format!("shard={joiner_addr}")), "{reply}");
    assert!(reply.contains(&format!("donor={seed_addr}")), "{reply}");
    assert!(reply.contains("imported=5"), "{reply}");
    assert_eq!(router.shard_addrs().len(), 2, "the ring grew");

    // The joiner really holds the verdicts (and the schema).
    let mut j = Conn::dial(joiner_addr).expect("connect");
    assert_eq!(stat(&mut j, "persist.recovered_entries"), 5);
    assert_eq!(stat(&mut j, "cache.entries"), 5);
    assert_eq!(stat(&mut j, "schemas"), 1);

    // Joining twice is refused.
    let reply = c.request(&format!("HANDOFF {joiner_addr}")).unwrap();
    assert!(reply.starts_with("ERR"), "{reply}");
    assert!(reply.contains("already"), "{reply}");

    drop((c, j)); // hang up first, so the drains end at once
    stop.trigger();
    handle.join().unwrap();
    drop(router); // closes its pooled connections
    for (s, h) in [(seed_stop, seed_handle), (joiner_stop, joiner_handle)] {
        s.trigger();
        h.join().unwrap();
    }
}
