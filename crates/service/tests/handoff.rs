//! Warm-handoff compatibility gating over the wire.
//!
//! The SNAP verbs ship `COQLSNP1` snapshots between processes. These
//! tests drive two live servers over TCP and pin down the trust model:
//! a clean export/import roundtrip preloads every verdict; any version
//! skew or corruption is refused atomically (the cache is never
//! half-loaded) and counted as a quarantine; the verbs are disabled
//! without `--allow-handoff`; and a commit that doesn't match its
//! `SNAPBEGIN` declaration is rejected.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;

use co_service::wire::Conn;
use co_service::{
    crc32, from_hex, serve_with_shutdown, to_hex, Decision, Engine, EngineConfig, Op, Request,
    ServerConfig, Shutdown, FINGERPRINT_VERSION, FORMAT_VERSION,
};

fn start_server(allow_handoff: bool) -> (SocketAddr, Shutdown, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let engine = Arc::new(Engine::new(EngineConfig {
        cache_shards: 2,
        cache_per_shard: 256,
        ..EngineConfig::default()
    }));
    let shutdown = Shutdown::new();
    let handle = {
        let shutdown = shutdown.clone();
        thread::spawn(move || {
            let config = ServerConfig { allow_handoff, ..ServerConfig::default() };
            serve_with_shutdown(listener, engine, config, shutdown).expect("serve");
        })
    };
    (addr, shutdown, handle)
}

/// Registers the standard schema and warms the cache with `n` distinct
/// decided pairs.
fn warm(client: &mut Conn, n: usize) {
    let reply = client.request("SCHEMA app R(A,B); S(C)").unwrap();
    assert!(reply.starts_with("OK"), "{reply}");
    for k in 0..n {
        let reply = client
            .request(&format!(
                "CHECK app select x.B from x in R where x.A = {k} ;; select x.B from x in R"
            ))
            .unwrap();
        assert!(reply.starts_with("OK holds=true"), "{reply}");
    }
}

/// Pulls a `SNAPEXPORT` payload, returning `(bytes, declared entries)`.
fn export(client: &mut Conn) -> (Vec<u8>, u64) {
    let reply = client.request("SNAPEXPORT").unwrap();
    let mut lines = reply.lines();
    let head = lines.next().unwrap_or_default();
    assert!(head.starts_with("OK "), "{head}");
    let field = |key: &str| {
        head.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no `{key}` in `{head}`"))
    };
    assert_eq!(field("format="), FORMAT_VERSION as u64, "{head}");
    assert_eq!(field("fpver="), FINGERPRINT_VERSION as u64, "{head}");
    let hex: String = lines.take_while(|l| *l != "END").collect();
    let bytes = from_hex(&hex).expect("exported hex decodes");
    assert_eq!(bytes.len() as u64, field("bytes="), "declared length matches payload");
    (bytes, field("entries="))
}

/// The value of one `STATS` key.
fn stat(client: &mut Conn, key: &str) -> String {
    let stats = client.request("STATS").unwrap();
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|v| v.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("STATS has no `{key}`: {stats}"))
        .to_string()
}

/// Pushes snapshot bytes through SNAPBEGIN/SNAPDATA/SNAPCOMMIT and
/// returns the commit reply (OK or ERR — the caller asserts).
fn push(client: &mut Conn, bytes: &[u8]) -> String {
    push_declaring(client, bytes, bytes.len())
}

fn push_declaring(client: &mut Conn, bytes: &[u8], declared: usize) -> String {
    let reply = client.request(&format!("SNAPBEGIN {declared}")).unwrap();
    assert!(reply.starts_with("OK staging="), "{reply}");
    let hex = to_hex(bytes);
    for chunk in hex.as_bytes().chunks(4096) {
        let chunk = std::str::from_utf8(chunk).unwrap();
        let reply = client.request(&format!("SNAPDATA {chunk}")).unwrap();
        assert!(reply.starts_with("OK received="), "{reply}");
    }
    client.request("SNAPCOMMIT").unwrap()
}

/// Reseals the header CRC after a deliberate header edit, so the test
/// exercises the *version* gate rather than the checksum gate.
fn reseal_header(bytes: &mut [u8]) {
    let crc = crc32(&bytes[..24]);
    bytes[24..28].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn export_import_roundtrip_preloads_every_verdict() {
    let (addr_a, stop_a, h_a) = start_server(true);
    let (addr_b, stop_b, h_b) = start_server(true);
    let mut a = Conn::dial(addr_a).expect("connect");
    warm(&mut a, 5);
    let (bytes, entries) = export(&mut a);
    assert_eq!(entries, 5);

    let mut b = Conn::dial(addr_b).expect("connect");
    // The importer needs the schema too — handoff pushes schemas first.
    assert!(b.request("SCHEMA app R(A,B); S(C)").unwrap().starts_with("OK"));
    let commit = push(&mut b, &bytes);
    assert_eq!(commit, format!("OK imported={entries} entries={entries}"), "{commit}");
    assert_eq!(stat(&mut b, "cache.entries"), "5");
    assert_eq!(stat(&mut b, "persist.recovered_entries"), "5");

    // A preloaded verdict is served from cache: hits goes 0 → 1.
    let hits_before: u64 = stat(&mut b, "cache.hits").parse().unwrap();
    let reply = b
        .request("CHECK app select x.B from x in R where x.A = 0 ;; select x.B from x in R")
        .unwrap();
    assert!(reply.starts_with("OK holds=true"), "{reply}");
    let hits_after: u64 = stat(&mut b, "cache.hits").parse().unwrap();
    assert_eq!(hits_after, hits_before + 1, "imported verdict must be a cache hit");

    // Hang up first, so each drain ends at once.
    drop((a, b));
    stop_a.trigger();
    stop_b.trigger();
    h_a.join().unwrap();
    h_b.join().unwrap();
}

#[test]
fn union_verdicts_ride_the_handoff_payload() {
    let schema = co_cq::Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]);
    let engine = || {
        let e = Engine::new(EngineConfig {
            cache_shards: 2,
            cache_per_shard: 64,
            ..Default::default()
        });
        e.register_schema("app", schema.clone());
        e
    };
    let union = |e: &Engine, cert: bool| {
        let request = Request::new(
            Op::UCheck,
            "app",
            "select x.B from x in R where x.A = 1 or select x.B from x in R where x.B = 2",
            "select y.B from y in R where y.A = 1 or select y.B from y in R",
        )
        .with_cert(cert);
        match e.decide(&request).expect("decide union") {
            Decision::Union { analysis, cached, cert, .. } => (analysis.holds, cached, cert),
            other => panic!("expected union decision, got {other:?}"),
        }
    };
    let donor = engine();
    let (holds, cached, _) = union(&donor, true);
    assert!(holds && !cached);
    let (bytes, count) = donor.export_snapshot_bytes();
    assert!(count > 0, "the union's pair verdicts are in the payload");

    let joiner = engine();
    assert_eq!(joiner.import_snapshot_bytes(&bytes), Ok((count, count)));
    assert_eq!(union(&joiner, false), (holds, true, None), "a handed-off union is a hit");
    let (joined_holds, cached, cert) = union(&joiner, true);
    assert_eq!((joined_holds, cached), (holds, true));
    assert!(cert.is_some());
    assert_eq!(joiner.stats().computed.load(Ordering::Relaxed), 0);
    assert_eq!(joiner.stats().cert_rejected.load(Ordering::Relaxed), 0);
}

#[test]
fn version_skew_is_refused_and_quarantined_never_half_loaded() {
    let (addr_a, stop_a, h_a) = start_server(true);
    let mut a = Conn::dial(addr_a).expect("connect");
    warm(&mut a, 3);
    let (good, _) = export(&mut a);

    // Byte 8 is the low byte of FORMAT_VERSION, byte 12 of
    // FINGERPRINT_VERSION (both little-endian u32).
    for (offset, what) in [(8usize, "format"), (12usize, "fingerprint")] {
        let (addr_b, stop_b, h_b) = start_server(true);
        let mut b = Conn::dial(addr_b).expect("connect");
        let mut skewed = good.clone();
        skewed[offset] = skewed[offset].wrapping_add(1);
        reseal_header(&mut skewed);
        let commit = push(&mut b, &skewed);
        assert!(commit.starts_with("ERR SNAPREJECTED"), "{what}: {commit}");
        assert!(commit.contains("version"), "{what} refusal names the version: {commit}");
        assert_eq!(stat(&mut b, "cache.entries"), "0", "{what}: nothing may be half-loaded");
        assert_eq!(stat(&mut b, "persist.quarantined"), "1", "{what}: refusal is counted");
        drop(b);
        stop_b.trigger();
        h_b.join().unwrap();
    }
    drop(a);
    stop_a.trigger();
    h_a.join().unwrap();
}

#[test]
fn corruption_is_refused_atomically() {
    let (addr_a, stop_a, h_a) = start_server(true);
    let mut a = Conn::dial(addr_a).expect("connect");
    warm(&mut a, 4);
    let (good, _) = export(&mut a);

    let (addr_b, stop_b, h_b) = start_server(true);
    let mut b = Conn::dial(addr_b).expect("connect");
    // Flip one byte in the LAST record: the earlier records verify fine,
    // but all-or-nothing loading must still import nothing.
    let mut corrupt = good.clone();
    let last = corrupt.len() - 40;
    corrupt[last] ^= 0xff;
    let commit = push(&mut b, &corrupt);
    assert!(commit.starts_with("ERR SNAPREJECTED"), "{commit}");
    assert_eq!(stat(&mut b, "cache.entries"), "0", "no partial preload past valid records");
    assert_eq!(stat(&mut b, "persist.quarantined"), "1");

    // Bad hex in SNAPDATA clears the staging area and rejects too.
    assert!(b.request("SNAPBEGIN 10").unwrap().starts_with("OK"));
    let reply = b.request("SNAPDATA zz-not-hex").unwrap();
    assert!(reply.starts_with("ERR SNAPREJECTED"), "{reply}");
    let reply = b.request("SNAPCOMMIT").unwrap();
    assert!(reply.starts_with("ERR"), "staging must have been cleared: {reply}");

    // Hang up first, so each drain ends at once.
    drop((a, b));
    stop_a.trigger();
    stop_b.trigger();
    h_a.join().unwrap();
    h_b.join().unwrap();
}

#[test]
fn snap_verbs_require_allow_handoff() {
    let (addr, stop, handle) = start_server(false);
    let mut c = Conn::dial(addr).expect("connect");
    for verb in ["SNAPEXPORT", "SNAPBEGIN 10", "SNAPDATA 00", "SNAPCOMMIT", "SNAPABORT"] {
        let reply = c.request(verb).unwrap();
        assert!(reply.starts_with("ERR"), "{verb}: {reply}");
        assert!(reply.contains("--allow-handoff"), "{verb} names the flag: {reply}");
    }
    drop(c);
    stop.trigger();
    handle.join().unwrap();
}

#[test]
fn commit_must_match_declared_length() {
    let (addr_a, stop_a, h_a) = start_server(true);
    let mut a = Conn::dial(addr_a).expect("connect");
    warm(&mut a, 2);
    let (good, _) = export(&mut a);

    let (addr_b, stop_b, h_b) = start_server(true);
    let mut b = Conn::dial(addr_b).expect("connect");
    // Declare more than we send: the commit is refused, not padded.
    let commit = push_declaring(&mut b, &good, good.len() + 8);
    assert!(commit.starts_with("ERR SNAPREJECTED"), "{commit}");
    assert_eq!(stat(&mut b, "cache.entries"), "0");
    // SNAPABORT then a clean push works on the same connection.
    assert_eq!(b.request("SNAPABORT").unwrap(), "OK aborted");
    let commit = push(&mut b, &good);
    assert!(commit.starts_with("OK imported=2"), "{commit}");

    // Hang up first, so each drain ends at once.
    drop((a, b));
    stop_a.trigger();
    stop_b.trigger();
    h_a.join().unwrap();
    h_b.join().unwrap();
}
