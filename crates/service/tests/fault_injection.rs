//! Fault-injection hardening suite (requires `--features fault-inject`):
//! drives a real TCP server through kernel panics, injected slowness, and
//! corrupted (padded) replies, and asserts the acceptance bar — zero
//! hangs, zero wrong verdicts on healthy requests, clean drain.
#![cfg(feature = "fault-inject")]

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use co_service::wire::Conn;
use co_service::{
    faults, serve_with_shutdown, Decision, Engine, EngineConfig, Op, Request, RequestBudget,
    ServerConfig, Shutdown,
};

/// The fault triggers are process-global; serialize the tests that arm
/// them and always disarm afterwards, even on panic.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

struct FaultSession(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultSession {
    fn begin() -> FaultSession {
        let guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        faults::reset();
        FaultSession(guard)
    }
}

impl Drop for FaultSession {
    fn drop(&mut self) {
        faults::reset();
    }
}

struct TestServer {
    addr: SocketAddr,
    shutdown: Shutdown,
    handle: JoinHandle<std::io::Result<()>>,
}

fn start_server(config: ServerConfig) -> TestServer {
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
        thread::spawn(move || serve_with_shutdown(listener, engine, config, shutdown))
    };
    TestServer { addr, shutdown, handle }
}

fn hard_query(k: usize) -> String {
    let subs: Vec<String> = (0..k)
        .map(|i| format!("g{i}: (select y{i}.C from y{i} in S where y{i}.C = x.A)"))
        .collect();
    format!("select [{}] from x in R", subs.join(", "))
}

/// The acceptance workload: 200 mixed requests from 4 clients with a
/// kernel panicking every 10th entry and a slow-loris connection attached
/// the whole time. Every reply must arrive (no hangs), every OK verdict
/// must be correct, panics must surface as structured ERRs, a hard
/// instance under a 50ms deadline must answer ERR DEADLINE, and the
/// server must drain and exit cleanly at the end.
#[test]
fn mixed_workload_survives_kernel_panics_and_slow_loris() {
    let _session = FaultSession::begin();
    faults::set_kernel_panic_every(10);

    let config = ServerConfig {
        read_timeout: Some(Duration::from_millis(800)),
        drain_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let server = start_server(config);
    let addr = server.addr;

    let mut setup = Conn::dial(addr).expect("connect");
    let schema_reply = setup.request("SCHEMA s R(A,B); S(C)").unwrap();
    assert!(schema_reply.starts_with("OK"), "{schema_reply}");
    drop(setup);

    // A slow-loris client dribbles bytes for the whole workload; the
    // per-line deadline must shed it without disturbing anyone.
    let loris = thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("loris connect");
        for _ in 0..100 {
            if stream.write_all(b"z").is_err() {
                break; // Cut off by the server, as designed.
            }
            thread::sleep(Duration::from_millis(25));
        }
    });

    // 200 requests over 50 distinct pairs: even pairs are containments
    // that hold, odd pairs are the (failing) reverse direction.
    let workload_start = Instant::now();
    let results: Vec<(usize, String)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = Conn::dial(addr).expect("connect");
                    let mut replies = Vec::new();
                    for round in 0..50 {
                        let i = (t * 50 + round) % 50;
                        let filtered = format!("select x.B from x in R where x.A = {}", i / 2);
                        let all = "select x.B from x in R";
                        let line = if i % 2 == 0 {
                            format!("CHECK s {filtered} ;; {all}")
                        } else {
                            format!("CHECK s {all} ;; {filtered}")
                        };
                        replies.push((i, client.request(&line).unwrap()));
                    }
                    replies
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });

    assert_eq!(results.len(), 200, "every request must be answered — zero hangs");
    let mut errs = 0;
    for (i, reply) in &results {
        if reply.starts_with("OK ") {
            let expect = format!("holds={}", i % 2 == 0);
            assert!(reply.contains(&expect), "request {i}: wrong verdict in `{reply}`");
        } else {
            assert!(
                reply.starts_with("ERR ") && reply.contains("panicked"),
                "request {i}: unexpected failure `{reply}`"
            );
            errs += 1;
        }
    }
    // 50 distinct keys force ≥50 kernel entries, so the 1-in-10 panic
    // fault must have fired — and been contained — several times.
    assert!(errs > 0, "panic fault armed but no ERR reply observed");
    assert!(
        workload_start.elapsed() < Duration::from_secs(30),
        "workload took {:?}, something stalled",
        workload_start.elapsed()
    );

    // Disarm panics, then prove hard instances still honor deadlines on
    // the post-chaos server.
    faults::reset();
    let mut client = Conn::dial(addr).expect("connect");
    let hard = hard_query(18);
    let reply = client.request(&format!("TIMEOUT 50 CHECK s {hard} ;; {hard}")).unwrap();
    assert!(reply.starts_with("ERR DEADLINE"), "{reply}");
    let reply = client.request("CHECK s select x.B from x in R ;; select x.B from x in R").unwrap();
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    drop(client);

    loris.join().expect("loris thread");
    server.shutdown.trigger();
    let result = server.handle.join().expect("serve thread must not panic");
    assert!(result.is_ok(), "server must drain and exit cleanly: {result:?}");
}

/// An injected slowdown in the leader must not hold a short-deadline
/// coalesced waiter hostage: the waiter times out on its own clock while
/// the leader keeps computing.
#[test]
fn slow_leader_does_not_hold_short_deadline_waiter_hostage() {
    let _session = FaultSession::begin();
    faults::set_kernel_slow(1, 400);

    let engine = Arc::new(Engine::new(EngineConfig {
        cache_shards: 2,
        cache_per_shard: 32,
        workers: 2,
        ..EngineConfig::default()
    }));
    engine.register_schema("s", co_cq::Schema::with_relations(&[("R", &["A", "B"])]));
    let q1 = "select x.B from x in R where x.A = 1";
    let q2 = "select x.B from x in R";

    let leader = {
        let engine = Arc::clone(&engine);
        thread::spawn(move || engine.decide(&Request::new(Op::Check, "s", q1, q2)))
    };
    // Give the leader time to claim the in-flight slot and enter the
    // (artificially slow) kernel.
    thread::sleep(Duration::from_millis(100));

    let waiter_req = Request::new(Op::Check, "s", q1, q2)
        .with_budget(RequestBudget::with_timeout(Duration::from_millis(50)));
    let start = Instant::now();
    let waited = engine.decide(&waiter_req).expect("waiter decide");
    let elapsed = start.elapsed();
    assert!(
        matches!(waited, Decision::TimedOut { .. }),
        "waiter should time out on its own deadline, got {waited:?}"
    );
    assert!(elapsed < Duration::from_millis(300), "waiter waited {elapsed:?} for a slow leader");

    // The unbudgeted leader still lands the true verdict.
    let led = leader.join().expect("leader thread").expect("leader decide");
    let Decision::Containment { analysis, .. } = led else {
        panic!("leader should finish with a verdict, got {led:?}");
    };
    assert!(analysis.holds);
}

/// Oversized (padded) replies exercise client-side framing: the padded
/// line is still one line, and subsequent replies are undamaged.
#[test]
fn reply_padding_does_not_desync_the_connection() {
    let _session = FaultSession::begin();

    let server = start_server(ServerConfig {
        drain_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    });
    let mut client = Conn::dial(server.addr).expect("connect");
    assert!(client.request("SCHEMA s R(A,B)").unwrap().starts_with("OK"));

    // Arm after setup so the pad counter targets the CHECK replies.
    faults::set_reply_padding(2, 64);
    let first = client.request("CHECK s select x.B from x in R ;; select x.B from x in R").unwrap();
    let second = client
        .request("CHECK s select x.B from x in R where x.A = 1 ;; select x.B from x in R")
        .unwrap();
    faults::reset();

    // Every 2nd reply is padded: exactly one of the two carries garbage.
    let padded: Vec<bool> = [&first, &second].iter().map(|r| r.contains("####")).collect();
    assert_eq!(padded.iter().filter(|&&p| p).count(), 1, "{first:?} / {second:?}");
    for reply in [&first, &second] {
        assert!(reply.starts_with("OK holds=true"), "{reply}");
        assert!(!reply.contains('\n'), "padding must not break line framing");
    }

    drop(client);
    server.shutdown.trigger();
    assert!(server.handle.join().expect("serve thread").is_ok());
}
