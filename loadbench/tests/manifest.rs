//! `BENCHMARK.json` is well-formed, agrees with the workloads this package
//! defines, and lists exactly the metrics a quick run prints.

mod common;

use std::collections::BTreeSet;
use std::time::Duration;

use co_bench::json::Json;
use co_load::gen::{workload, SCHEMA_DECL, WORKLOADS};
use co_load::run::{run, RunSpec, Target};
use common::Server;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("no `{key}` list"))
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("entry without `{key}`"))
}

fn keys(entry: &Json) -> Vec<&str> {
    match entry {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object: {entry}"),
    }
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `(name, unit)` of every entry in a metric list.
fn metrics(doc: &Json, key: &str) -> BTreeSet<(String, String)> {
    list(doc, key)
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

#[test]
fn manifest_has_the_contract_shape() {
    let doc = manifest();
    assert_eq!(
        keys(&doc),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    let run_seconds = doc.get("run_seconds").and_then(Json::as_num).unwrap();
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));

    let workloads = list(&doc, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(text(entry, "name"), w.name, "workload order and names match the package");
        let why = text(entry, "why");
        assert_eq!(why, w.why);
        assert!(
            why.len() <= 200 && why.ends_with('.') && !why.trim_end_matches('.').contains(". "),
            "{why}"
        );
    }

    let e2e = list(&doc, "end_to_end");
    let layers = list(&doc, "per_layer");
    assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));
    let mut names = BTreeSet::new();
    for m in e2e {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Json::as_num).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m}");
    }
    for m in layers {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    for m in e2e.iter().chain(layers).chain(workloads) {
        let name = text(m, "name");
        assert!(valid_name(name), "bad name `{name}`");
        assert!(names.insert(name), "`{name}` used twice");
        if let Some(unit) = m.get("unit").and_then(Json::as_str) {
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(["lower", "higher"].contains(&text(m, "better")));
        }
    }
    let setup = e2e.iter().find(|m| text(m, "name") == "setup_s").expect("setup_s is listed");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let largest =
        e2e.iter().filter_map(|m| m.get("bound").and_then(Json::as_num)).fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").and_then(Json::as_num),
        Some(largest),
        "setup_s has the largest bound"
    );
}

#[test]
fn quick_runs_print_exactly_the_listed_metrics() {
    let doc = manifest();
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let server = Server::start(SCHEMA_DECL);
        let spec = RunSpec {
            workload: workload("dup_hot").unwrap(),
            seed: 2,
            seconds: 1.0,
            trace,
            warmup: Duration::from_millis(100),
        };
        let out = run(&spec, &Target::External(server.addr)).unwrap();
        let printed: BTreeSet<(String, String)> =
            out.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
        assert_eq!(printed, metrics(&doc, key), "{key}");
        for m in &out.metrics {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            // End-to-end metrics are never 0, so a relative bound means
            // something; only spawned servers have a peak RSS to read.
            let spawned_only = m.name == "peak_rss_mb";
            assert!(trace || spawned_only || m.value > 0.0, "{} = {}", m.name, m.value);
        }
    }
}
