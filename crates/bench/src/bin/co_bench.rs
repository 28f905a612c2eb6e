//! `co-bench` — the machine-readable perf harness for the decision kernels.
//!
//! ```text
//! cargo run -p co-bench --release --bin co-bench -- perf --threads 8   # full run → BENCH_PR10.json
//! cargo run -p co-bench --release --bin co-bench -- perf --quick \
//!     --threads 2 --out target/bench-smoke.json                       # CI smoke run
//! cargo run -p co-bench --release --bin co-bench -- check BENCH_PR10.json --strict
//! cargo run -p co-bench --release --bin co-bench -- workload --union-k 4  # UCHECK pairs
//! ```
//!
//! `perf` measures the old kernels (linear-scan homomorphism search, sweep
//! simulation, single-threaded pattern loops) against the new ones
//! (adaptive linear-scan/indexed MRV search, worklist simulation, parallel
//! kernels) on E1/E2/E3-style workloads and writes a `co-bench/perf-v2`
//! JSON report with per-case p50/p95/p99. `check` re-parses a report
//! (v1 or v2) and validates it: schema shape, positive timings, and 100%
//! verdict agreement always; with `--strict`, also the speedup floors
//! (≥5× on `join_heavy`/`witness_copy`, ≥5× on the `union_heavy`
//! short-circuit; on v2 additionally the adaptive parity small-instance
//! floor, ≥3× on `hard_emptiness` at ≥8 threads, and a strictly-lower
//! `mixed_p99` tail, both gated on the report's thread count) — used on
//! the committed `BENCH_PR2.json`, `BENCH_PR7.json`, and `BENCH_PR10.json`
//! baselines.

use std::process::ExitCode;

use co_bench::json::Json;
use co_bench::perf::{check_report, run_report, PerfOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("perf") => perf(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("workload") => workload(&args[1..]),
        _ => {
            eprintln!("usage: co-bench perf [--quick] [--threads N] [--out PATH]");
            eprintln!("       co-bench check PATH [--strict]");
            eprintln!(
                "       co-bench workload [--total N] [--distinct N] [--seed N] [--union-k K]"
            );
            ExitCode::from(2)
        }
    }
}

/// Prints the E13 duplicate-heavy service workload as protocol request
/// bodies, one `<q1> ;; <q2>` pair per line — piping material for driving
/// coqld or coqld-router from scripts (the fleet drill in `verify.sh`).
/// The pairs are over the standard `R(A, B); S(C)` schema; `--distinct`
/// semantic pairs are spread over `--total` α-renamed presentations, so
/// duplicate fingerprints dominate and cache affinity is measurable.
/// With `--union-k K` (K ≥ 2) the E14 union variant is emitted instead:
/// `UCHECK`-shaped pairs whose right side carries K `or`-joined
/// disjuncts, re-randomizing the disjunct order per presentation so only
/// the order-invariant union fingerprint collapses the duplicates.
fn workload(args: &[String]) -> ExitCode {
    let mut total = 200usize;
    let mut distinct = 12usize;
    let mut seed = 13u64;
    let mut union_k = 0usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let value = match it.next() {
            Some(v) => v,
            None => {
                eprintln!("{a} needs a value");
                return ExitCode::from(2);
            }
        };
        let parsed: Result<u64, _> = value.parse();
        let Ok(n) = parsed else {
            eprintln!("{a} expects a number, got `{value}`");
            return ExitCode::from(2);
        };
        match a.as_str() {
            "--total" => total = n as usize,
            "--distinct" => distinct = n as usize,
            "--seed" => seed = n,
            "--union-k" => union_k = n as usize,
            other => {
                eprintln!("unknown workload flag: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let pairs = if union_k >= 2 {
        co_bench::workloads::union_service_workload(total, distinct, union_k, seed)
    } else {
        co_bench::workloads::service_workload(total, distinct, seed)
    };
    for (q1, q2) in pairs {
        println!("{q1} ;; {q2}");
    }
    ExitCode::SUCCESS
}

fn perf(args: &[String]) -> ExitCode {
    let mut opts = PerfOptions::full();
    let mut out = String::from("BENCH_PR10.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts = PerfOptions { quick: true, runs: 3, ..opts },
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => opts.threads = n,
                None => {
                    eprintln!("--threads needs a number");
                    return ExitCode::from(2);
                }
            },
            "--out" => match it.next() {
                Some(path) => out = path.clone(),
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown perf flag: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let report = run_report(&opts);
    let text = format!("{report}\n");
    if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    match check_report(&report, false) {
        Ok(summary) => {
            println!("wrote {out}");
            for line in summary {
                println!("  {line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("report failed self-validation: {e}");
            ExitCode::FAILURE
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    let strict = args.iter().any(|a| a == "--strict");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [path] = paths.as_slice() else {
        eprintln!("usage: co-bench check PATH [--strict]");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check_report(&doc, strict) {
        Ok(summary) => {
            println!("{path}: ok{}", if strict { " (strict)" } else { "" });
            for line in summary {
                println!("  {line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}
