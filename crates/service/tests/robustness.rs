//! Robustness of the serving path against hostile or unlucky clients:
//! protocol garbage, oversized lines, overload, mid-request disconnects,
//! slow-loris dribbling, expired deadlines, and drain shutdown — all
//! against a real TCP server on an ephemeral port.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use co_service::wire::Conn;
use co_service::{
    serve_with_shutdown, Decision, Engine, EngineConfig, Op, Request, RequestBudget, ServerConfig,
    Shutdown,
};

struct TestServer {
    addr: SocketAddr,
    shutdown: Shutdown,
    handle: JoinHandle<std::io::Result<()>>,
}

impl TestServer {
    fn start(config: ServerConfig) -> TestServer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().unwrap();
        let engine = Arc::new(Engine::new(EngineConfig {
            cache_shards: 4,
            cache_per_shard: 64,
            ..EngineConfig::default()
        }));
        let shutdown = Shutdown::new();
        let handle = {
            let shutdown = shutdown.clone();
            thread::spawn(move || serve_with_shutdown(listener, engine, config, shutdown))
        };
        TestServer { addr, shutdown, handle }
    }

    /// Triggers shutdown and asserts the serve loop drains and exits Ok.
    fn stop(self) {
        self.shutdown.trigger();
        let result = self.handle.join().expect("serve thread must not panic");
        assert!(result.is_ok(), "serve must exit cleanly on drain: {result:?}");
    }
}

const EASY: &str = "CHECK s select x.B from x in R where x.A = 1 ;; select x.B from x in R";

/// Default test config with a short drain so `stop()` never waits long
/// for a connection the test forgot to close.
fn test_config() -> ServerConfig {
    ServerConfig { drain_timeout: Duration::from_millis(500), ..ServerConfig::default() }
}

/// A query whose self-containment forces the Full decision path through
/// 2^k possibly-empty-set patterns — far beyond any test deadline, yet
/// cancellable within a millisecond by the cooperative kernel budget.
fn hard_query(k: usize) -> String {
    let subs: Vec<String> = (0..k)
        .map(|i| format!("g{i}: (select y{i}.C from y{i} in S where y{i}.C = x.A)"))
        .collect();
    format!("select [{}] from x in R", subs.join(", "))
}

#[test]
fn protocol_garbage_leaves_server_healthy() {
    let server = TestServer::start(test_config());
    let mut client = Conn::dial(server.addr).expect("connect");
    assert!(client.request("SCHEMA s R(A,B); S(C)").unwrap().starts_with("OK"));
    for bad in [
        "SCHEMA s2 R(",
        "SCHEMA s2 R(A, A)",
        "SCHEMA s2",
        "CHECK s onlyhalf",
        "CHECK s ;; ",
        "CHECK nosuchschema {1} ;; {1}",
        "EQUIV s select from where ;; select from where",
        "FROBNICATE all the things",
        "TIMEOUT banana CHECK s {1} ;; {1}",
    ] {
        let reply = client.request(bad).unwrap();
        assert!(reply.starts_with("ERR "), "`{bad}` → {reply}");
    }
    // The same connection still serves real work afterwards.
    let reply = client.request(EASY).unwrap();
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    drop(client);
    server.stop();
}

#[test]
fn oversized_line_is_rejected_and_connection_survives() {
    let config = ServerConfig { max_line_bytes: 256, ..test_config() };
    let server = TestServer::start(config);
    let mut client = Conn::dial(server.addr).expect("connect");
    assert!(client.request("SCHEMA s R(A,B); S(C)").unwrap().starts_with("OK"));
    let huge = format!("CHECK s {} ;; {}", "x".repeat(4096), "y".repeat(4096));
    let reply = client.request(&huge).unwrap();
    assert!(reply.starts_with("ERR TOOLARGE"), "{reply}");
    // The oversized line was discarded up to its newline; the next
    // request on the same connection parses cleanly.
    let reply = client.request(EASY).unwrap();
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    drop(client);
    server.stop();
}

#[test]
fn excess_connections_are_shed_with_overloaded() {
    let config = ServerConfig { max_connections: 1, ..test_config() };
    let server = TestServer::start(config);
    let mut first = Conn::dial(server.addr).expect("connect");
    // A served request proves the first connection holds the only slot.
    assert!(first.request("SCHEMA s R(A,B); S(C)").unwrap().starts_with("OK"));
    let mut second = Conn::dial(server.addr).expect("connect");
    let reply = second.read_line().unwrap();
    assert!(reply.starts_with("ERR OVERLOADED"), "{reply}");
    // The shed socket is closed after the reply.
    assert_eq!(second.read_line().unwrap_err().kind(), ErrorKind::UnexpectedEof);
    // Releasing the slot lets the next client in.
    assert_eq!(first.request("QUIT").unwrap(), "OK bye");
    drop(first);
    let give_up = Instant::now() + Duration::from_secs(5);
    let reply = loop {
        // The slot frees when the handler thread exits; retry briefly.
        // A shed socket may already be closed when we write (broken
        // pipe) — that counts as "still overloaded", not a failure.
        assert!(Instant::now() < give_up, "connection slot never freed");
        match Conn::dial(server.addr).and_then(|mut conn| conn.request(EASY)) {
            Ok(line) if !line.starts_with("ERR OVERLOADED") => break line,
            _ => thread::sleep(Duration::from_millis(10)),
        }
    };
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    server.stop();
}

#[test]
fn mid_request_disconnect_is_harmless() {
    let server = TestServer::start(test_config());
    {
        let mut stream = TcpStream::connect(server.addr).unwrap();
        // Half a request line, no newline, then a hard disconnect.
        stream.write_all(b"CHECK s select x.B from x in").unwrap();
    }
    let mut client = Conn::dial(server.addr).expect("connect");
    assert!(client.request("SCHEMA s R(A,B); S(C)").unwrap().starts_with("OK"));
    assert!(client.request(EASY).unwrap().starts_with("OK holds=true"));
    drop(client);
    server.stop();
}

#[test]
fn slow_loris_is_cut_off_by_the_line_deadline() {
    let config = ServerConfig { read_timeout: Some(Duration::from_millis(300)), ..test_config() };
    let server = TestServer::start(config);
    let mut loris = TcpStream::connect(server.addr).unwrap();
    loris.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let start = Instant::now();
    // Dribble bytes often enough that each read() succeeds: only the
    // absolute per-line deadline can cut this client off.
    let mut dropped = false;
    for _ in 0..40 {
        if loris.write_all(b"x").is_err() {
            dropped = true;
            break;
        }
        thread::sleep(Duration::from_millis(50));
    }
    if !dropped {
        // Writes can buffer in the kernel; the definitive signal is EOF.
        let mut buf = [0u8; 16];
        loop {
            match loris.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("expected EOF from dropped loris, got {e}"),
            }
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "loris survived {:?}, expected a cutoff near 300ms",
        start.elapsed()
    );
    // A well-behaved client is unaffected.
    let mut client = Conn::dial(server.addr).expect("connect");
    assert!(client.request("SCHEMA s R(A,B); S(C)").unwrap().starts_with("OK"));
    assert!(client.request(EASY).unwrap().starts_with("OK holds=true"));
    drop(client);
    drop(loris);
    server.stop();
}

#[test]
fn step_budget_exhaustion_times_out_without_caching() {
    let engine = Engine::new(EngineConfig {
        cache_shards: 2,
        cache_per_shard: 32,
        ..EngineConfig::default()
    });
    engine
        .register_schema("s", co_cq::Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]));
    let q1 = "select x.B from x in R where x.A = 1";
    let q2 = "select x.B from x in R";
    let starved = Request::new(Op::Check, "s", q1, q2).with_budget(RequestBudget::with_steps(1));
    let start = Instant::now();
    let Decision::TimedOut { elapsed, .. } = engine.decide(&starved).unwrap() else {
        panic!("1-step budget must exhaust before a verdict");
    };
    assert!(start.elapsed() < Duration::from_secs(1), "starved decide took {elapsed:?}");
    assert_eq!(engine.stats().timeouts.load(Ordering::Relaxed), 1);
    assert_eq!(engine.cache_stats().entries, 0, "timeouts must never be memoized");
    // An unlimited retry computes the true verdict from scratch.
    let retry = Request::new(Op::Check, "s", q1, q2);
    let Decision::Containment { analysis, cached, .. } = engine.decide(&retry).unwrap() else {
        panic!("expected containment decision");
    };
    assert!(analysis.holds);
    assert!(!cached, "nothing may have been cached by the starved attempt");
}

/// A `CERT` request whose step budget expires while the certificate is
/// being minted answers a timeout, `CERTUNAVAILABLE`, or a certificate
/// `co-cert` accepts — never one whose database does not refute. One
/// engine per pair, so later budgets re-certify a cached verdict on the
/// hit path. The deep pair (`deep_differential` seed 27) has no canonical
/// counterexample; the nested pair mints one once the budget suffices.
#[test]
fn cert_under_step_budgets_is_a_timeout_unavailable_or_valid() {
    let schema = co_cq::Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]);
    let pairs = [
        (
            "select [a: x.A, g: (select [b: y.B, h: (select z.B from z in R where z.B = x.A \
             and z.B = 0)] from y in R where y.A = x.A)] from x in R",
            "select [a: x.A, g: (select [b: y.B, h: (select z.C from z in S)] from y in R)] \
             from x in R",
            false,
        ),
        (
            "select [a: x.A, g: (select y.C from y in S)] from x in R",
            "select [a: x.A, g: (select y.C from y in S where y.C = x.A)] from x in R",
            true,
        ),
    ];
    for (q1, q2, mints) in pairs {
        let engine = Engine::new(EngineConfig {
            cache_shards: 1,
            cache_per_shard: 8,
            ..EngineConfig::default()
        });
        engine.register_schema("s", schema.clone());
        let prepare =
            |q: &str| co_core::prepare(&co_lang::parse_coql(q).unwrap(), &schema).unwrap();
        let (p1, p2) = (prepare(q1), prepare(q2));
        let expect_path = co_core::cert_path(co_core::expected_path(&p1, &p2));
        let mut minted = false;
        for steps in (0..800).step_by(20).map(Some).chain([None]) {
            let budget = steps.map_or_else(RequestBudget::default, RequestBudget::with_steps);
            let request = Request::new(Op::Check, "s", q1, q2).with_cert(true).with_budget(budget);
            match engine.decide(&request) {
                Ok(Decision::TimedOut { .. }) => assert!(steps.is_some(), "{q1}: timed out"),
                Ok(Decision::Containment { analysis, cert: Some(wire), .. }) => {
                    co_cert::Cert::parse(&wire)
                        .and_then(|cert| {
                            cert.check_against(&p1.tree, &p2.tree, analysis.holds, expect_path)
                        })
                        .unwrap_or_else(|e| panic!("{q1} at {steps:?} steps: {e}\n{wire}"));
                    minted = true;
                }
                Err(e) if e.starts_with("CERTUNAVAILABLE") && !mints => {}
                other => panic!("{q1} at {steps:?} steps: {other:?}"),
            }
        }
        assert_eq!(minted, mints, "{q1} ;; {q2}");
    }
}

#[test]
fn hard_instance_deadline_is_not_memoized() {
    let server = TestServer::start(test_config());
    let mut client = Conn::dial(server.addr).expect("connect");
    assert!(client.request("SCHEMA s R(A,B); S(C)").unwrap().starts_with("OK"));
    let hard = hard_query(18);
    let line = format!("TIMEOUT 60 CHECK s {hard} ;; {hard}");
    let start = Instant::now();
    let reply = client.request(&line).unwrap();
    assert!(reply.starts_with("ERR DEADLINE"), "{reply}");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "deadline reply took {:?}, cancellation is not cooperative enough",
        start.elapsed()
    );
    // Asking again must recompute (and time out again), not serve a
    // poisoned cache entry — a cached timeout would answer instantly
    // with OK or a stale ERR.
    let reply = client.request(&line).unwrap();
    assert!(reply.starts_with("ERR DEADLINE"), "second attempt: {reply}");
    // The engine is unharmed for everyone else.
    assert!(client.request(EASY).unwrap().starts_with("OK holds=true"));
    drop(client);
    server.stop();
}

#[test]
fn hostile_nesting_answers_toodeep_and_server_survives() {
    // A 100k-deep query is ~100 KB of `{`, past the default line cap, so
    // raise the cap: this test must reach the parser, not TOOLARGE.
    let config = ServerConfig { max_line_bytes: 1 << 20, ..test_config() };
    let server = TestServer::start(config);
    let mut client = Conn::dial(server.addr).expect("connect");
    assert!(client.request("SCHEMA s R(A,B); S(C)").unwrap().starts_with("OK"));
    let bomb = "{".repeat(100_000);
    let reply = client.request(&format!("CHECK s {bomb} ;; select x.B from x in R")).unwrap();
    assert!(reply.starts_with("ERR TOODEEP"), "{reply}");
    // The cap must also guard the container side and FINGERPRINT.
    let reply = client.request(&format!("CHECK s select x.B from x in R ;; {bomb}")).unwrap();
    assert!(reply.starts_with("ERR TOODEEP"), "{reply}");
    let reply = client.request(&format!("FINGERPRINT s {bomb}")).unwrap();
    assert!(reply.starts_with("ERR TOODEEP"), "{reply}");
    // Same connection, same server: real work still flows.
    let reply = client.request(EASY).unwrap();
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    drop(client);
    server.stop();
}

#[test]
fn shutdown_verb_drains_and_exits_cleanly() {
    let config = ServerConfig { allow_shutdown: true, ..test_config() };
    let server = TestServer::start(config);
    let mut client = Conn::dial(server.addr).expect("connect");
    assert!(client.request("SCHEMA s R(A,B); S(C)").unwrap().starts_with("OK"));
    assert!(client.request(EASY).unwrap().starts_with("OK holds=true"));
    assert_eq!(client.request("SHUTDOWN").unwrap(), "OK draining");
    // stop() would also trigger; here the verb already did, so joining
    // directly proves the verb alone drains the server.
    let result = server.handle.join().expect("serve thread must not panic");
    assert!(result.is_ok(), "{result:?}");
}

#[test]
fn parallel_kernels_respect_budgets_and_join_workers() {
    // Multi-threaded kernels must still honor deadlines and step budgets:
    // the budget is sliced across workers through a shared pool, expiry
    // cancels the whole request, and the scoped pool joins every worker
    // before the kernel returns — no detached threads can outlive the
    // decision.
    let engine = Engine::new(EngineConfig {
        cache_shards: 2,
        cache_per_shard: 32,
        kernel_threads: 4,
        ..EngineConfig::default()
    });
    engine
        .register_schema("s", co_cq::Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]));
    let hard = hard_query(18);

    // Wall-clock deadline on a 2^18-pattern instance.
    let timed = Request::new(Op::Check, "s", &hard, &hard)
        .with_budget(RequestBudget::with_timeout(Duration::from_millis(60)));
    let start = Instant::now();
    let Decision::TimedOut { .. } = engine.decide(&timed).unwrap() else {
        panic!("hard instance under a 60ms deadline must time out");
    };
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "deadline took {:?} to propagate across kernel workers",
        start.elapsed()
    );

    // Step budget: the shared pool drains and every worker stops.
    let starved =
        Request::new(Op::Check, "s", &hard, &hard).with_budget(RequestBudget::with_steps(5_000));
    let Decision::TimedOut { .. } = engine.decide(&starved).unwrap() else {
        panic!("5000-step budget must exhaust on a 2^18-pattern instance");
    };
    assert_eq!(engine.stats().timeouts.load(Ordering::Relaxed), 2);
    assert_eq!(engine.cache_stats().entries, 0, "timeouts must never be memoized");

    // The engine is healthy afterwards: an easy request decides normally
    // and the interrupted state did not leak into this thread.
    let easy = Request::new(
        Op::Check,
        "s",
        "select x.B from x in R where x.A = 1",
        "select x.B from x in R",
    );
    let Decision::Containment { analysis, .. } = engine.decide(&easy).unwrap() else {
        panic!("expected containment decision");
    };
    assert!(analysis.holds);
}
