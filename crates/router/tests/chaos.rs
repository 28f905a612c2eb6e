//! Chaos suite (feature `fault-inject`): a real router in front of real
//! in-process shards whose reply paths are sabotaged deterministically —
//! replies dropped mid-write, garbled, or stalled — plus hedging and the
//! hedge rate cap under fleet-wide slowness.
//!
//! The invariant under every fault: **zero wrong verdicts**. A fault may
//! cost a retry, a hedge, or (past every budget) an `ERR UNAVAILABLE`,
//! but a truncated or corrupted reply must never be forwarded as an
//! answer.
//!
//! The fault triggers are process-global counters shared by every
//! in-process shard (and consumed by probe replies too), so the tests
//! serialize on a mutex and disarm everything on entry and exit.

use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use co_router::{serve_router_with_shutdown, Router, RouterConfig};
use co_service::wire::Conn;
use co_service::{faults, serve_with_shutdown, Engine, EngineConfig, ServerConfig, Shutdown};

/// Serializes the chaos tests: the fault counters are process statics.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock_faults() -> MutexGuard<'static, ()> {
    let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faults::reset();
    guard
}

struct Fleet {
    router_addr: SocketAddr,
    stops: Vec<Shutdown>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl Fleet {
    /// `n` clean in-process shards behind one router.
    fn start(n: usize, config: RouterConfig) -> Fleet {
        let mut stops = Vec::new();
        let mut handles = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind shard");
            addrs.push(listener.local_addr().unwrap().to_string());
            let engine = Arc::new(Engine::new(EngineConfig {
                cache_shards: 2,
                cache_per_shard: 256,
                ..EngineConfig::default()
            }));
            let shutdown = Shutdown::new();
            stops.push(shutdown.clone());
            handles.push(thread::spawn(move || {
                let _ = serve_with_shutdown(listener, engine, ServerConfig::default(), shutdown);
            }));
        }
        let router = Router::new(&addrs, config);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
        let router_addr = listener.local_addr().unwrap();
        let shutdown = router.shutdown_handle();
        stops.push(shutdown.clone());
        handles.push(thread::spawn(move || {
            serve_router_with_shutdown(listener, router, shutdown).expect("serve router");
        }));
        Fleet { router_addr, stops, handles }
    }

    fn stop(self) {
        for s in &self.stops {
            s.trigger();
        }
        for h in self.handles {
            let _ = h.join();
        }
    }
}

fn chaos_config() -> RouterConfig {
    RouterConfig {
        probe_interval: Duration::from_millis(100),
        // The fault tests target failover, not breakers: a huge threshold
        // keeps every shard routable no matter how often its replies are
        // sabotaged.
        down_after: 10_000,
        retry_budget: 3,
        replication: 2,
        connect_timeout: Duration::from_millis(500),
        forward_timeout: Duration::from_secs(10),
        ..RouterConfig::default()
    }
}

const SCHEMA: &str = "SCHEMA app R(A,B); S(C)";

/// The k-th semantic pair: `filtered-by-k ⊑ all` — holds. Reversed, it
/// does not. Distinct `k` routes to distinct ring positions.
fn holds_pair(k: usize) -> String {
    format!("CHECK app select x.B from x in R where x.A = {k} ;; select x.B from x in R")
}

fn fails_pair(k: usize) -> String {
    format!("CHECK app select x.B from x in R ;; select x.B from x in R where x.A = {k}")
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

/// Registers the schema and runs a couple of clean warmup decisions
/// BEFORE any fault is armed, so schema broadcast cannot be sabotaged.
fn warm(c: &mut Conn) {
    assert!(c.request(SCHEMA).unwrap().starts_with("OK"), "schema registration");
    assert!(c.request(&holds_pair(9_999)).unwrap().starts_with("OK holds=true"));
}

#[test]
fn drop_mid_reply_never_yields_a_wrong_verdict() {
    let _guard = lock_faults();
    let fleet = Fleet::start(3, chaos_config());
    let mut c = Conn::dial(fleet.router_addr).expect("connect");
    warm(&mut c);

    // Every 3rd reply (fleet-wide, probes included) is truncated halfway
    // and the connection severed. The router must detect the short read,
    // charge the attempt as a failure, and fail over — the fragment is
    // never an answer.
    faults::set_reply_drop_every(3);
    for k in 0..15 {
        let reply = c.request(&holds_pair(k)).unwrap();
        assert!(reply.starts_with("OK holds=true"), "k={k}: `{reply}`");
        let reply = c.request(&fails_pair(k)).unwrap();
        assert!(reply.starts_with("OK holds=false"), "k={k} reversed: `{reply}`");
    }
    faults::reset();

    // The sabotage was real: a truncated reply is healed either by a
    // fresh dial on the same shard (redial) or by failing over (shed) —
    // never by parsing the fragment.
    assert!(
        stat(&mut c, "router.shed") + stat(&mut c, "router.redials") >= 1,
        "drops should have forced redials or failovers"
    );
    assert_eq!(stat(&mut c, "router.routed"), 31, "every request was answered");
    drop(c); // hang up first, so the router's drain ends at once
    fleet.stop();
}

#[test]
fn garbled_replies_are_rejected_and_failed_over() {
    let _guard = lock_faults();
    let fleet = Fleet::start(3, chaos_config());
    let mut c = Conn::dial(fleet.router_addr).expect("connect");
    warm(&mut c);

    // Every 4th reply has its payload bytes XOR-corrupted (framing
    // intact): the router reads a complete line of garbage. Reply
    // validation must reject it — `holds=` flipped bits would otherwise
    // reach the client as a confident wrong answer.
    faults::set_reply_garble_every(3);
    for k in 0..15 {
        let reply = c.request(&holds_pair(k)).unwrap();
        assert!(reply.starts_with("OK holds=true"), "k={k}: `{reply}`");
        let reply = c.request(&fails_pair(k)).unwrap();
        assert!(reply.starts_with("OK holds=false"), "k={k} reversed: `{reply}`");
    }
    faults::reset();
    assert!(
        stat(&mut c, "router.shed") + stat(&mut c, "router.redials") >= 1,
        "garbles should have forced redials or failovers"
    );
    assert_eq!(stat(&mut c, "router.routed"), 31);
    drop(c); // hang up first, so the router's drain ends at once
    fleet.stop();
}

#[test]
fn stalled_primaries_are_hedged_within_the_rate_cap() {
    let _guard = lock_faults();
    let config = RouterConfig {
        hedge_after: Some(Duration::from_millis(80)),
        hedge_cap_permille: 800,
        ..chaos_config()
    };
    let fleet = Fleet::start(3, config);
    let mut c = Conn::dial(fleet.router_addr).expect("connect");
    warm(&mut c);

    // Every 2nd reply is delayed 600ms — far past the 80ms hedge
    // trigger. The hedge races the stalled primary; whoever answers
    // first wins, and the loser's (correct, late) reply is discarded.
    faults::set_reply_stall(2, 600);
    for k in 0..12 {
        let reply = c.request(&holds_pair(k)).unwrap();
        assert!(reply.starts_with("OK holds=true"), "k={k}: `{reply}`");
    }
    faults::reset();

    let decisions = stat(&mut c, "router.decision_requests");
    let hedges = stat(&mut c, "router.hedges");
    let wins = stat(&mut c, "router.hedge_wins");
    assert!(hedges >= 1, "stalls past hedge_after must fire hedges");
    assert!(wins >= 1, "with ~half the fleet stalled, some hedge must win");
    assert!(wins <= hedges, "a win presupposes a hedge");
    assert!(
        hedges * 1000 <= decisions * 800 + 4_000,
        "hedges ({hedges}) exceeded the cap for {decisions} decisions"
    );
    assert_eq!(stat(&mut c, "router.routed"), decisions, "every decision was answered");
    drop(c); // hang up first, so the router's drain ends at once
    fleet.stop();
}

#[test]
fn hedge_rate_cap_holds_under_fleet_wide_slowness() {
    let _guard = lock_faults();
    let config = RouterConfig {
        hedge_after: Some(Duration::from_millis(50)),
        // Zero steady-state budget: only the fixed burst may hedge. A
        // fleet where EVERY reply is slow would otherwise double its own
        // load exactly when it can least afford it.
        hedge_cap_permille: 0,
        ..chaos_config()
    };
    let fleet = Fleet::start(3, config);
    let mut c = Conn::dial(fleet.router_addr).expect("connect");
    warm(&mut c);

    faults::set_reply_stall(1, 300);
    for k in 0..12 {
        let reply = c.request(&holds_pair(k)).unwrap();
        assert!(reply.starts_with("OK holds=true"), "k={k}: `{reply}`");
    }
    faults::reset();

    let hedges = stat(&mut c, "router.hedges");
    let capped = stat(&mut c, "router.hedges_capped");
    assert!(hedges <= 4, "cap 0‰ allows only the burst of 4, saw {hedges}");
    assert!(capped >= 1, "later hedge attempts must have been refused");
    assert_eq!(stat(&mut c, "router.routed"), stat(&mut c, "router.decision_requests"));
    drop(c); // hang up first, so the router's drain ends at once
    fleet.stop();
}
