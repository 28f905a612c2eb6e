//! End-to-end smoke test: a real `coqld` serving loop on an ephemeral TCP
//! port, exercised over a socket exactly as `nc` would.

use std::net::TcpListener;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use co_service::wire::Conn;
use co_service::{serve, Engine, EngineConfig, ServerConfig};

fn start_server() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let engine = Arc::new(Engine::new(EngineConfig {
        cache_shards: 4,
        cache_per_shard: 64,
        workers: 2,
        ..EngineConfig::default()
    }));
    thread::spawn(move || {
        let _ =
            serve(listener, engine, ServerConfig { max_connections: 8, ..ServerConfig::default() });
    });
    addr
}

#[test]
fn serves_check_equiv_stats_over_tcp() {
    let addr = start_server();
    let mut client = Conn::dial(addr).expect("connect");

    let reply = client.request("SCHEMA app R(A, B); S(C)").unwrap();
    assert!(reply.starts_with("OK"), "SCHEMA reply: {reply}");

    let reply = client
        .request("CHECK app select x.B from x in R where x.A = 1 ;; select y.B from y in R")
        .unwrap();
    assert!(reply.starts_with("OK holds=true"), "CHECK reply: {reply}");
    assert!(reply.contains("cached=false"), "CHECK reply: {reply}");

    // The α-renamed duplicate is answered from cache.
    let reply = client
        .request("CHECK app select u.B from u in R where 1 = u.A ;; select v.B from v in R")
        .unwrap();
    assert!(reply.starts_with("OK holds=true"), "CHECK reply: {reply}");
    assert!(reply.contains("cached=true"), "CHECK reply: {reply}");

    let reply =
        client.request("EQUIV app select [a: x.A] from x in R ;; select y.C from y in S").unwrap();
    assert!(reply.starts_with("ERR"), "type-mismatched EQUIV reply: {reply}");

    let stats = client.request("STATS").unwrap();
    let stats: Vec<&str> = stats.lines().collect();
    assert_eq!(stats.last(), Some(&"END"));
    assert!(stats.iter().any(|l| l.starts_with("decisions ")), "{stats:?}");
    assert!(stats.contains(&"cache.hits 1"), "{stats:?}");

    let reply = client.request("NOPE what").unwrap();
    assert!(reply.starts_with("ERR"), "unknown command reply: {reply}");
}

#[test]
fn concurrent_clients_share_the_cache() {
    let addr = start_server();
    let mut setup = Conn::dial(addr).expect("connect");
    assert!(setup.request("SCHEMA app R(A, B)").unwrap().starts_with("OK"));

    let replies: Vec<String> = thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = Conn::dial(addr).expect("connect");
                    let vars = ["x", "y", "z", "w"];
                    let v = vars[i];
                    client
                        .request(&format!(
                            "CHECK app select {v}.B from {v} in R where {v}.A = 7 ;; \
                         select {v}.B from {v} in R"
                        ))
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for reply in &replies {
        assert!(reply.starts_with("OK holds=true"), "concurrent CHECK reply: {reply}");
    }
    let stats = setup.request("STATS").unwrap();
    let computed = stats
        .lines()
        .find_map(|l| l.strip_prefix("computed "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("computed in STATS");
    assert_eq!(computed, 1, "all four α-variants share one cache key: {stats:?}");
}

/// Sends `line` `n` times on one connection and returns the replies.
fn exchange_repeatedly(addr: std::net::SocketAddr, line: &str, n: usize) -> Vec<String> {
    let mut conn = Conn::dial(addr).expect("connect to coqld");
    (0..n).map(|_| conn.request(line).expect("reply")).collect()
}

/// Regression: a reply written as its text and then its `\n` waited out the
/// client's delayed ACK under Nagle's algorithm, about 44 ms per request
/// (4.4 s for this loop).
#[test]
fn sequential_cached_checks_do_not_stall() {
    let addr = start_server();
    let check = "CHECK app select x.B from x in R where x.A = 1 ;; select y.B from y in R";
    assert!(exchange_repeatedly(addr, "SCHEMA app R(A, B)", 1)[0].starts_with("OK"));
    assert!(exchange_repeatedly(addr, check, 1)[0].starts_with("OK holds=true"));

    let start = std::time::Instant::now();
    let replies = exchange_repeatedly(addr, check, 100);
    let elapsed = start.elapsed();
    for reply in &replies {
        assert!(reply.starts_with("OK holds=true") && reply.contains("cached=true"), "{reply}");
    }
    assert!(elapsed < Duration::from_secs(1), "100 cached CHECKs took {elapsed:?}");
}
