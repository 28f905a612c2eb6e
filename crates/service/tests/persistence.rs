//! Crash-recovery acceptance for the durable memo cache: snapshot
//! round-trips through a real engine, quarantine of corrupt/stale files,
//! the timeouts-are-never-snapshotted invariant, fault-injected snapshot
//! failures, and a full TCP restart drill — populate a server, drain it,
//! boot a second one from the same snapshot, and require warm hits plus
//! verdict-for-verdict agreement with a cold engine.

use std::fs;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use co_service::wire::Conn;
use co_service::{
    serve_with_shutdown, snapshot, Decision, Engine, EngineConfig, LoadOutcome, Op, Request,
    RequestBudget, ServerConfig, Shutdown, WarmStart,
};

/// Snapshot writes consult the process-global fault triggers that the
/// `faulted` tests arm, so every test that uses a scratch directory holds
/// this lock for its whole run.
static SNAPSHOT_LOCK: Mutex<()> = Mutex::new(());

fn snapshot_lock() -> MutexGuard<'static, ()> {
    SNAPSHOT_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A scratch directory unique to one test (fresh on every run).
fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coql-persist-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn small_engine() -> Engine {
    Engine::new(EngineConfig { cache_shards: 2, cache_per_shard: 64, ..EngineConfig::default() })
}

fn schema() -> co_cq::Schema {
    co_cq::Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])])
}

/// (q1, q2) pairs with a mix of verdicts, all cheap to decide.
const PAIRS: &[(&str, &str)] = &[
    ("select x.B from x in R where x.A = 1", "select x.B from x in R"),
    ("select x.B from x in R", "select x.B from x in R where x.A = 1"),
    ("select [a: x.A] from x in R", "select [a: y.A] from y in R"),
    ("select x.A from x in R, y in S where x.B = y.C", "select x.A from x in R"),
];

fn decide(engine: &Engine, q1: &str, q2: &str) -> (bool, bool) {
    let request = Request::new(Op::Check, "s", q1, q2);
    match engine.decide(&request).expect("decide") {
        Decision::Containment { analysis, cached, .. } => (analysis.holds, cached),
        other => panic!("expected containment decision, got {other:?}"),
    }
}

#[test]
fn snapshot_roundtrip_restores_verdicts_and_counts_recovery() {
    let _lock = snapshot_lock();
    let dir = tempdir("roundtrip");
    let path = dir.join("cache.snap");

    let engine = small_engine();
    engine.register_schema("s", schema());
    for (q1, q2) in PAIRS {
        decide(&engine, q1, q2);
    }
    let written = engine.snapshot_to(&path).expect("snapshot");
    assert_eq!(written, PAIRS.len());
    assert_eq!(engine.stats().snapshots_written.load(Ordering::Relaxed), 1);
    assert!(engine.snapshot_age_ms().is_some());

    let warm = small_engine();
    assert!(warm.snapshot_age_ms().is_none());
    warm.register_schema("s", schema());
    assert_eq!(warm.warm_start(&path), WarmStart::Recovered(PAIRS.len()));
    assert_eq!(warm.stats().recovered_entries.load(Ordering::Relaxed), PAIRS.len() as u64);
    // Every recovered verdict is served from cache and agrees with a
    // cold recomputation.
    let cold = small_engine();
    cold.register_schema("s", schema());
    for (q1, q2) in PAIRS {
        let (warm_holds, cached) = decide(&warm, q1, q2);
        let (cold_holds, _) = decide(&cold, q1, q2);
        assert!(cached, "`{q1}` ⊑ `{q2}` must be a warm hit");
        assert_eq!(warm_holds, cold_holds, "`{q1}` ⊑ `{q2}` verdict drifted");
    }
    assert_eq!(warm.stats().computed.load(Ordering::Relaxed), 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_snapshot_is_a_cold_start() {
    let _lock = snapshot_lock();
    let dir = tempdir("cold");
    let engine = small_engine();
    assert_eq!(engine.warm_start(&dir.join("never-written.snap")), WarmStart::Cold);
    assert_eq!(engine.stats().recovered_entries.load(Ordering::Relaxed), 0);
    assert_eq!(engine.stats().quarantined.load(Ordering::Relaxed), 0);
    let _ = fs::remove_dir_all(&dir);
}

/// Re-seals the header CRC after a deliberate header patch, so the test
/// reaches the *semantic* version check rather than the CRC check.
fn reseal_header(bytes: &mut [u8]) {
    let crc = snapshot::crc32(&bytes[..24]);
    bytes[24..28].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn stale_fingerprint_version_is_quarantined_not_served() {
    let _lock = snapshot_lock();
    let dir = tempdir("stale");
    let path = dir.join("cache.snap");
    let engine = small_engine();
    engine.register_schema("s", schema());
    decide(&engine, PAIRS[0].0, PAIRS[0].1);
    engine.snapshot_to(&path).expect("snapshot");

    // Pretend the snapshot was written by a different fingerprint
    // pipeline: its keys would be mis-keyed garbage if preloaded.
    let mut bytes = fs::read(&path).unwrap();
    bytes[12..16].copy_from_slice(&999u32.to_le_bytes());
    reseal_header(&mut bytes);
    fs::write(&path, bytes).unwrap();

    let warm = small_engine();
    match warm.warm_start(&path) {
        WarmStart::Quarantined { reason } => {
            assert!(reason.contains("version"), "reason: {reason}");
        }
        other => panic!("stale snapshot must quarantine, got {other:?}"),
    }
    assert_eq!(warm.stats().quarantined.load(Ordering::Relaxed), 1);
    assert_eq!(warm.cache_stats().entries, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_is_moved_aside_and_next_boot_is_cold() {
    let _lock = snapshot_lock();
    let dir = tempdir("corrupt");
    let path = dir.join("cache.snap");
    let engine = small_engine();
    engine.register_schema("s", schema());
    for (q1, q2) in PAIRS {
        decide(&engine, q1, q2);
    }
    engine.snapshot_to(&path).expect("snapshot");

    // Flip one bit inside a record: the file must be rejected wholesale.
    let mut bytes = fs::read(&path).unwrap();
    let target = 28 + 40; // somewhere inside the first record
    bytes[target] ^= 0x01;
    fs::write(&path, &bytes).unwrap();

    let warm = small_engine();
    assert!(matches!(warm.warm_start(&path), WarmStart::Quarantined { .. }));
    assert_eq!(warm.stats().quarantined.load(Ordering::Relaxed), 1);
    assert!(!path.exists(), "rejected snapshot must be moved aside");
    let quarantined: PathBuf = dir.join("cache.snap.corrupt");
    assert!(quarantined.exists(), "rejected snapshot must be kept for postmortems");

    // The quarantine self-heals: a restart on the same path starts cold
    // instead of tripping on the same bad file again.
    let next = small_engine();
    assert_eq!(next.warm_start(&path), WarmStart::Cold);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_snapshot_is_quarantined() {
    let _lock = snapshot_lock();
    let dir = tempdir("truncated");
    let path = dir.join("cache.snap");
    let engine = small_engine();
    engine.register_schema("s", schema());
    for (q1, q2) in PAIRS {
        decide(&engine, q1, q2);
    }
    engine.snapshot_to(&path).expect("snapshot");
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() - 17]).unwrap();

    let warm = small_engine();
    assert!(matches!(warm.warm_start(&path), WarmStart::Quarantined { .. }));
    assert_eq!(warm.cache_stats().entries, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn timed_out_decisions_are_never_snapshotted() {
    let _lock = snapshot_lock();
    let dir = tempdir("timeouts");
    let path = dir.join("cache.snap");
    let engine = small_engine();
    engine.register_schema("s", schema());

    // One definite verdict, then a starved request that times out.
    decide(&engine, PAIRS[0].0, PAIRS[0].1);
    let starved = Request::new(
        Op::Check,
        "s",
        "select x.A from x in R where x.B = 2",
        "select x.A from x in R",
    )
    .with_budget(RequestBudget::with_steps(1));
    assert!(matches!(engine.decide(&starved).unwrap(), Decision::TimedOut { .. }));
    assert_eq!(engine.stats().timeouts.load(Ordering::Relaxed), 1);

    // The snapshot carries exactly the definite verdict — the timeout
    // left nothing behind to persist.
    assert_eq!(engine.snapshot_to(&path).expect("snapshot"), 1);
    match snapshot::load_snapshot(&path) {
        LoadOutcome::Loaded(entries) => assert_eq!(entries.len(), 1),
        other => panic!("expected a clean load, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A union whose walk decides a failing pair before its second witness,
/// so pair verdicts of both polarities persist.
const UNION_LEFT: &str =
    "select x.B from x in R where x.A = 1 or select x.B from x in R where x.B = 2";
const UNION_RIGHT: &str = "select y.B from y in R where y.A = 1 or select y.B from y in R";

fn decide_union(engine: &Engine, cert: bool) -> (bool, bool, Option<String>) {
    let request = Request::new(Op::UCheck, "s", UNION_LEFT, UNION_RIGHT).with_cert(cert);
    match engine.decide(&request).expect("decide union") {
        Decision::Union { analysis, cached, cert, .. } => (analysis.holds, cached, cert),
        other => panic!("expected union decision, got {other:?}"),
    }
}

#[test]
fn union_verdicts_survive_restart() {
    let _lock = snapshot_lock();
    let dir = tempdir("unions");
    let path = dir.join("cache.snap");
    let engine = small_engine();
    engine.register_schema("s", schema());
    let (holds, cached, _) = decide_union(&engine, false);
    assert!(holds && !cached);
    engine.snapshot_to(&path).expect("snapshot");

    let warm = small_engine();
    warm.register_schema("s", schema());
    assert!(matches!(warm.warm_start(&path), WarmStart::Recovered(n) if n > 0));
    assert_eq!(decide_union(&warm, false), (holds, true, None), "a warm union is a hit");
    // A certified repeat builds certificates for the recovered pairs and
    // rejects none of them.
    let (warm_holds, cached, cert) = decide_union(&warm, true);
    assert_eq!((warm_holds, cached), (holds, true));
    assert!(cert.is_some_and(|c| c.starts_with("COUNION1 verdict=holds")));
    assert_eq!(warm.stats().computed.load(Ordering::Relaxed), 0);
    assert_eq!(warm.stats().cert_rejected.load(Ordering::Relaxed), 0);

    // Certificates memoized under CERT survive too, and re-check clean.
    warm.snapshot_to(&path).expect("snapshot with certificates");
    let again = small_engine();
    again.register_schema("s", schema());
    again.warm_start(&path);
    let (again_holds, cached, cert) = decide_union(&again, true);
    assert_eq!((again_holds, cached), (holds, true));
    assert!(cert.is_some());
    assert_eq!(again.stats().cert_rejected.load(Ordering::Relaxed), 0);
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// TCP restart drill: a real server, drained and rebooted on the same path.
// ---------------------------------------------------------------------------

struct TestServer {
    addr: SocketAddr,
    shutdown: Shutdown,
    handle: JoinHandle<std::io::Result<()>>,
    engine: Arc<Engine>,
}

impl TestServer {
    /// Boots a server the way `coqld` does: warm-start from the cache
    /// path (when set), then serve.
    fn start(config: ServerConfig) -> TestServer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().unwrap();
        let engine = Arc::new(small_engine());
        if let Some(path) = &config.cache_path {
            engine.warm_start(path);
        }
        let shutdown = Shutdown::new();
        let handle = {
            let shutdown = shutdown.clone();
            let engine = Arc::clone(&engine);
            thread::spawn(move || serve_with_shutdown(listener, engine, config, shutdown))
        };
        TestServer { addr, shutdown, handle, engine }
    }

    fn stop(self) {
        self.shutdown.trigger();
        let result = self.handle.join().expect("serve thread must not panic");
        assert!(result.is_ok(), "serve must exit cleanly on drain: {result:?}");
    }
}

fn stat(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|v| v.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("STATS missing key {key}"))
        .parse()
        .unwrap_or_else(|_| panic!("STATS {key} is not a number"))
}

#[test]
fn tcp_restart_drill_warm_starts_with_identical_verdicts() {
    let _lock = snapshot_lock();
    let dir = tempdir("tcp-drill");
    let path = dir.join("cache.snap");
    let config = ServerConfig {
        cache_path: Some(path.clone()),
        // Long interval: the drill exercises the drain-time final flush,
        // not the periodic timer.
        snapshot_interval: Duration::from_secs(3600),
        drain_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };

    // Round 1: populate over TCP, remember every verdict, drain.
    let server = TestServer::start(config.clone());
    let mut client = Conn::dial(server.addr).expect("connect");
    assert!(client.request("SCHEMA s R(A,B); S(C)").unwrap().starts_with("OK"));
    let mut verdicts = Vec::new();
    for (q1, q2) in PAIRS {
        let reply = client.request(&format!("CHECK s {q1} ;; {q2}")).unwrap();
        assert!(reply.starts_with("OK holds="), "{reply}");
        verdicts.push(reply.contains("holds=true"));
    }
    let stats = client.request("STATS").unwrap();
    assert_eq!(stat(&stats, "persist.recovered_entries"), 0);
    drop(client);
    server.stop();
    assert!(path.exists(), "drain must leave a final snapshot behind");

    // Round 2: a fresh server on the same path answers from the warm
    // cache, verdict for verdict.
    let server = TestServer::start(config);
    let mut client = Conn::dial(server.addr).expect("connect");
    assert!(client.request("SCHEMA s R(A,B); S(C)").unwrap().starts_with("OK"));
    for ((q1, q2), &expected) in PAIRS.iter().zip(&verdicts) {
        let reply = client.request(&format!("CHECK s {q1} ;; {q2}")).unwrap();
        assert!(reply.contains("cached=true"), "`{q1}` ⊑ `{q2}` must be a warm hit: {reply}");
        assert_eq!(
            reply.contains("holds=true"),
            expected,
            "`{q1}` ⊑ `{q2}` verdict changed across restart: {reply}"
        );
    }
    let stats = client.request("STATS").unwrap();
    assert_eq!(stat(&stats, "persist.recovered_entries"), PAIRS.len() as u64);
    assert_eq!(stat(&stats, "persist.quarantined"), 0);
    assert_eq!(server.engine.stats().computed.load(Ordering::Relaxed), 0);
    drop(client);
    server.stop();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn periodic_snapshotter_publishes_without_shutdown() {
    let _lock = snapshot_lock();
    let dir = tempdir("periodic");
    let path = dir.join("cache.snap");
    let config = ServerConfig {
        cache_path: Some(path.clone()),
        snapshot_interval: Duration::from_millis(50),
        drain_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let server = TestServer::start(config);
    let mut client = Conn::dial(server.addr).expect("connect");
    assert!(client.request("SCHEMA s R(A,B); S(C)").unwrap().starts_with("OK"));
    let (q1, q2) = PAIRS[0];
    assert!(client.request(&format!("CHECK s {q1} ;; {q2}")).unwrap().starts_with("OK"));
    // The background snapshotter must publish within a few intervals,
    // with the server still up.
    let give_up = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if matches!(snapshot::load_snapshot(&path), LoadOutcome::Loaded(e) if !e.is_empty()) {
            break;
        }
        assert!(std::time::Instant::now() < give_up, "snapshotter never published");
        thread::sleep(Duration::from_millis(20));
    }
    let stats = client.request("STATS").unwrap();
    assert!(stat(&stats, "persist.snapshots_written") >= 1);
    assert!(stat(&stats, "persist.snapshot_age_ms") < 10_000);
    drop(client);
    server.stop();
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Fault-injected snapshot writes (requires `--features fault-inject`).
// ---------------------------------------------------------------------------

#[cfg(feature = "fault-inject")]
mod faulted {
    use super::*;
    use co_service::faults;
    use std::path::Path;

    struct FaultSession(#[allow(dead_code)] MutexGuard<'static, ()>);

    impl FaultSession {
        fn begin() -> FaultSession {
            let guard = snapshot_lock();
            faults::reset();
            FaultSession(guard)
        }
    }

    impl Drop for FaultSession {
        fn drop(&mut self) {
            faults::reset();
        }
    }

    fn seeded_engine_with_snapshot(path: &Path) -> Engine {
        let engine = small_engine();
        engine.register_schema("s", schema());
        decide(&engine, PAIRS[0].0, PAIRS[0].1);
        engine.snapshot_to(path).expect("seed snapshot");
        engine
    }

    #[test]
    fn fsync_failure_ticks_counter_and_previous_snapshot_survives() {
        let _session = FaultSession::begin();
        let dir = tempdir("snap-fail");
        let path = dir.join("cache.snap");
        let engine = seeded_engine_with_snapshot(&path);

        decide(&engine, PAIRS[2].0, PAIRS[2].1);
        faults::set_snapshot_fail_every(1);
        assert!(engine.snapshot_to(&path).is_err());
        assert_eq!(engine.stats().snapshot_failures.load(Ordering::Relaxed), 1);
        faults::reset();

        // The failed write never touched the published file: it still
        // holds exactly the seed entry.
        match snapshot::load_snapshot(&path) {
            LoadOutcome::Loaded(entries) => assert_eq!(entries.len(), 1),
            other => panic!("previous snapshot must survive, got {other:?}"),
        }
        // With the fault gone the next snapshot publishes both entries.
        assert_eq!(engine.snapshot_to(&path).expect("retry"), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_temp_and_rename_recovers_previous_snapshot() {
        let _session = FaultSession::begin();
        let dir = tempdir("snap-crash");
        let path = dir.join("cache.snap");
        let engine = seeded_engine_with_snapshot(&path);

        decide(&engine, PAIRS[2].0, PAIRS[2].1);
        faults::set_snapshot_crash_every(1);
        assert!(engine.snapshot_to(&path).is_err(), "crash window must abort the write");
        faults::reset();

        // Exactly the window the rename protocol protects: the temp file
        // may linger, but a warm start sees only the previous snapshot.
        let warm = small_engine();
        warm.register_schema("s", schema());
        assert_eq!(warm.warm_start(&path), WarmStart::Recovered(1));
        let (_, cached) = decide(&warm, PAIRS[0].0, PAIRS[0].1);
        assert!(cached, "seed verdict must survive the crashed rewrite");
        let _ = fs::remove_dir_all(&dir);
    }
}
