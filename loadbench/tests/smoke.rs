//! Smoke runs of the load generator, about a second each, untraced and
//! traced, against an in-process coqld: no failures, every verdict agrees
//! with the oracle, and traced requests split into non-negative self times
//! that add up to the client's round trip.

mod common;

use std::collections::HashMap;
use std::time::Duration;

use common::Server;

use co_load::deploy::{Deployment, PROBE};
use co_load::gen::{workload, SCHEMA_DECL};
use co_load::run::{run, RunOutput, RunSpec, Target};
use co_load::trace::{self_times, Span};
use co_load::wire::Conn;

fn quick(name: &str, trace: bool) -> RunOutput {
    let server = Server::start(SCHEMA_DECL);
    let spec = RunSpec {
        workload: workload(name).unwrap(),
        seed: 5,
        seconds: 1.0,
        trace,
        warmup: Duration::from_millis(200),
    };
    run(&spec, &Target::External(server.addr)).unwrap()
}

fn assert_clean(out: &RunOutput) {
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "notes: {:?}", out.notes);
    assert!(out.correct);
    let oracle_pairs = out.extra.iter().find(|m| m.name == "oracle.pairs").unwrap().value;
    assert!(oracle_pairs > 0.0, "the oracle decided nothing");
}

#[test]
fn closed_loop_answers_every_request_correctly() {
    let out = quick("dup_hot", false);
    assert_clean(&out);
    let value = |n: &str| out.metrics.iter().find(|m| m.name == n).unwrap().value;
    assert!(value("throughput_rps") > 0.0);
    assert!(value("latency_p99_ms") >= value("latency_p50_ms"));
}

fn by_request(spans: &[Span], pass: &str) -> HashMap<u64, Vec<Span>> {
    let mut out: HashMap<u64, Vec<Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.pass == pass) {
        out.entry(s.req).or_default().push(s.clone());
    }
    out
}

#[test]
fn traced_run_attributes_time_without_overlap() {
    let out = quick("cold_evict", true);
    assert_clean(&out);
    let wire = by_request(&out.spans, "wire");
    assert!(!wire.is_empty(), "no traced wire requests");
    for spans in wire.values() {
        let rtt = spans.iter().find(|s| s.name == "client").unwrap().dur_us;
        let selfs = self_times(spans);
        // The server rounds each phase to whole µs, so its children can
        // exceed its own total by a few µs.
        for (name, t) in &selfs {
            assert!(*t >= -8.0, "{name} has self time {t} µs: {spans:?}");
        }
        let sum: f64 = selfs.iter().map(|(_, t)| t).sum();
        assert!(sum <= rtt + 1e-6, "self times {sum} µs exceed the round trip {rtt} µs");
    }
    for spans in by_request(&out.spans, "replay").values() {
        for (name, t) in self_times(spans) {
            assert!(t >= 0.0, "replay span {name} has self time {t} µs");
        }
    }
}

#[test]
fn probe_catches_a_server_missing_a_relation() {
    let server = Server::start("R(A, B)");
    let reply = Conn::connect(server.addr).unwrap().call(PROBE, false).unwrap();
    assert!(reply[0].starts_with("ERR"), "{reply:?}");
}

#[test]
fn fleet_sets_up_from_the_built_binaries() {
    let bin = std::path::Path::new(env!("CARGO_BIN_EXE_coqld")).parent().unwrap();
    let fleet = Deployment::start(bin, true, &[]).unwrap();
    assert_eq!(fleet.shards.len(), 3);
    let reply = Conn::connect(fleet.entry).unwrap().call(PROBE, false).unwrap();
    assert!(reply[0].starts_with("OK holds=true"), "{reply:?}");
    assert!(fleet.peak_rss_mb() > 0.0);
}
