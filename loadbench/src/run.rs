//! One benchmark run: deploy, warm up, drive the timed window, verify,
//! and turn the records into end-to-end or per-layer metrics.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use co_trace::kernel::Metric as K;

use crate::check::verify;
use crate::deploy::{Deployment, PROBE};
use crate::drive::{closed_loop, phases, Record, Tag};
use crate::gen::Workload;
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::{mean_of, per_kernel_call, replay, self_times, traced_spans, Span};
use crate::wire::{Conn, Explain, PHASES};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 41;

/// Untimed load before the window: long enough for caches to fill and for
/// the fleet's pooled connections to settle into their steady behaviour.
pub const WARMUP: Duration = Duration::from_secs(5);

/// Requests whose wire spans are written to the trace file.
const TRACE_FILE_REQUESTS: usize = 10_000;

/// Requests the in-process traced replay decides.
const REPLAY_REQUESTS: usize = 2000;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, all digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

/// What to run.
pub struct RunSpec {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of the request stream.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of an end-to-end one.
    pub trace: bool,
    /// Untimed warm-up before the window.
    pub warmup: Duration,
}

/// Where the servers come from.
pub enum Target<'a> {
    /// Spawn `coqld` (and `coqld-router`) from this directory.
    Spawn(&'a Path),
    /// A `coqld` already listening here with the schema registered.
    External(SocketAddr),
}

/// What a run produced.
pub struct RunOutput {
    /// Requests sent, warm-up included.
    pub attempted: u64,
    /// Requests without a correct answer: `ERR` replies, connection
    /// errors, wrong verdicts and invalid certificates.
    pub failed: u64,
    /// No wrong verdict and no invalid certificate.
    pub correct: bool,
    /// The metrics `BENCHMARK.json` lists for this kind of run.
    pub metrics: Vec<Metric>,
    /// Further measurements for the report only.
    pub extra: Vec<Metric>,
    /// Caveats worth printing (thin tails, failed requests).
    pub notes: Vec<String>,
    /// Every span recorded (traced runs only).
    pub spans: Vec<Span>,
}

fn deploy(w: &Workload, target: &Target, times: usize) -> Result<(Deployment, Vec<f64>), String> {
    match target {
        Target::Spawn(dir) => {
            let mut setups = Vec::new();
            let mut last = None;
            for _ in 0..times.max(1) {
                drop(last.take());
                let start = Instant::now();
                last = Some(Deployment::start(dir, w.fleet, w.server_args)?);
                setups.push(start.elapsed().as_secs_f64());
            }
            Ok((last.expect("at least one set-up"), setups))
        }
        Target::External(addr) => {
            let start = Instant::now();
            let reply = Conn::connect(*addr).and_then(|mut c| c.call(PROBE, false));
            match reply {
                Ok(lines) if lines[0].starts_with("OK") => {}
                other => return Err(format!("set-up probe failed: {other:?}")),
            }
            Ok((Deployment::external(*addr), vec![start.elapsed().as_secs_f64()]))
        }
    }
}

/// Performs one run.
pub fn run(spec: &RunSpec, target: &Target) -> Result<RunOutput, String> {
    let w = spec.workload;
    let window = Duration::from_secs_f64(spec.seconds);
    let (deployment, setups) = deploy(w, target, if spec.trace { 1 } else { SETUPS })?;
    let epoch = Instant::now();
    let warm = (Tag::Warmup, spec.warmup);
    let mut out = RunOutput {
        attempted: 0,
        failed: 0,
        correct: true,
        metrics: Vec::new(),
        extra: Vec::new(),
        notes: Vec::new(),
        spans: Vec::new(),
    };
    let records = if spec.trace {
        // Untraced half first, as the reference for the tracing overhead;
        // counters are read around the traced half only.
        let entry = deployment.entry;
        let mut records =
            closed_loop(entry, w, spec.seed, 0, &phases(&[warm, (Tag::Timed, window / 2)]));
        let before = deployment.stats()?;
        let first = records.iter().map(|r| r.index + 1).max().unwrap_or(0);
        let traced = phases(&[(Tag::Traced, window / 2)]);
        records.extend(closed_loop(entry, w, spec.seed, first, &traced));
        let after = deployment.stats()?;
        drop(deployment);
        let delta = |k: &str| after.get(k).unwrap_or(&0.0) - before.get(k).unwrap_or(&0.0);
        layer_metrics(w, spec.seed, &records, &delta, epoch, &mut out)?;
        records
    } else {
        let timed = phases(&[warm, (Tag::Timed, window)]);
        let records = closed_loop(deployment.entry, w, spec.seed, 0, &timed);
        let rss = deployment.peak_rss_mb();
        drop(deployment);
        end_to_end_metrics(&records, median(&setups), rss, &mut out);
        records
    };
    // The servers are gone by now, so the oracle may use every core.
    co_object::par::set_kernel_threads(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let v = verify(&records, w, spec.seed)?;
    let errors = records.iter().filter(|r| r.outcome.is_err()).count() as u64;
    out.attempted = records.len() as u64;
    out.failed = errors + v.wrong + v.invalid_certs;
    out.correct = v.wrong == 0 && v.invalid_certs == 0;
    out.extra.push(m("failed_frac", out.failed as f64 / out.attempted.max(1) as f64, "ratio"));
    out.extra.push(m("oracle.pairs", v.oracle_pairs as f64, "count"));
    if v.certs_checked > 0 {
        out.extra.push(m("cert.checked", v.certs_checked as f64, "count"));
        out.extra.push(m("cert.check_us_mean", mean(v.cert_check_us.iter().copied()), "us"));
    }
    for e in records.iter().filter_map(|r| r.outcome.as_ref().err()).take(3) {
        out.notes.push(format!("a request failed: {e}"));
    }
    Ok(out)
}

fn ok_latencies(records: &[Record], tag: Tag) -> Vec<f64> {
    sorted(
        records
            .iter()
            .filter(|r| r.tag == tag && r.outcome.is_ok())
            .map(|r| r.latency_us / 1000.0)
            .collect(),
    )
}

/// Seconds from the first timed request's send to the last timed reply:
/// the time the window's replies took, which the throughput divides by.
fn timed_span_s(records: &[Record]) -> f64 {
    let timed = || records.iter().filter(|r| r.tag == Tag::Timed);
    let first = timed().map(|r| r.start).min();
    let last = timed().map(|r| r.start + Duration::from_secs_f64(r.latency_us / 1e6)).max();
    match (first, last) {
        (Some(first), Some(last)) => (last - first).as_secs_f64(),
        _ => 0.0,
    }
}

fn end_to_end_metrics(records: &[Record], setup_s: f64, rss_mb: f64, out: &mut RunOutput) {
    let lat = ok_latencies(records, Tag::Timed);
    let span = timed_span_s(records);
    let throughput = if span > 0.0 { lat.len() as f64 / span } else { 0.0 };
    out.metrics.push(m("throughput_rps", throughput, "1/s"));
    out.metrics.push(m("latency_p50_ms", percentile(&lat, 50.0), "ms"));
    out.metrics.push(m("latency_p99_ms", percentile(&lat, 99.0), "ms"));
    out.metrics.push(m("setup_s", setup_s, "s"));
    out.metrics.push(m("peak_rss_mb", rss_mb, "MB"));
    let rank = (0.99 * lat.len() as f64).ceil() as usize;
    let beyond = lat.len().saturating_sub(rank);
    out.extra.push(m("latency_samples", lat.len() as f64, "count"));
    out.extra.push(m("latency_p99_beyond", beyond as f64, "count"));
    if beyond < 10 {
        out.notes.push(format!(
            "latency_p99_ms rests on {} samples with only {beyond} beyond it (fewer than 10)",
            lat.len()
        ));
    }
}

fn layer_metrics(
    w: &Workload,
    seed: u64,
    records: &[Record],
    delta: &dyn Fn(&str) -> f64,
    epoch: Instant,
    out: &mut RunOutput,
) -> Result<(), String> {
    // (round trip, EXPLAIN) of every answered traced request.
    let ex: Vec<(f64, &Explain)> = records
        .iter()
        .filter(|r| r.tag == Tag::Traced)
        .filter_map(|r| Some((r.latency_us, r.outcome.as_ref().ok()?.explain.as_deref()?)))
        .collect();

    let (spans, counts) = replay(w, seed, REPLAY_REQUESTS, epoch)?;
    let mut layer_sum: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent == Some("request")) {
        *layer_sum.entry(s.req).or_default() += s.dur_us;
    }
    let children_mean = mean(layer_sum.values().copied());
    let decide_mean = mean(counts.decide_us.iter().copied());
    let kernel_spans =
        sorted(spans.iter().filter(|s| s.name == "kernel").map(|s| s.dur_us).collect());
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let untraced = ok_latencies(records, Tag::Timed);
    let traced_lat = ok_latencies(records, Tag::Traced);
    let p50_untraced = percentile(&untraced, 50.0);
    let threads: Vec<f64> =
        ex.iter().filter(|(_, e)| e.threads_used > 0).map(|(_, e)| e.threads_used as f64).collect();
    let cert_unavailable = records
        .iter()
        .filter(|r| matches!(&r.outcome, Err(e) if e.contains("CERTUNAVAILABLE")))
        .count();

    let metrics = &mut out.metrics;
    metrics.push(m("wire.rtt_us_mean", mean(ex.iter().map(|(rtt, _)| *rtt)), "us"));
    metrics.push(m(
        "server.unattributed_us_mean",
        mean(ex.iter().map(|(rtt, e)| rtt - e.total_us as f64)),
        "us",
    ));
    metrics.push(m("server.shed", delta("server.shed") + delta("router.client_shed"), "count"));
    metrics.push(m("engine.decide_us_mean", decide_mean, "us"));
    metrics.push(m("engine.overhead_us_mean", decide_mean - children_mean, "us"));
    metrics.push(m("engine.coalesced", delta("coalesced"), "count"));
    metrics.push(m("lang.parse_us_mean", mean_of(&spans, "lang.parse"), "us"));
    metrics.push(m("lang.normalize_us_mean", mean_of(&spans, "lang.normalize"), "us"));
    metrics.push(m("fingerprint.us_mean", mean_of(&spans, "fingerprint"), "us"));
    metrics.push(m(
        "cache.hit_ratio",
        ratio(delta("cache.hits"), delta("cache.hits") + delta("cache.misses")),
        "ratio",
    ));
    metrics.push(m(
        "cache.union_hit_ratio",
        ratio(delta("unions.hits"), delta("unions.decisions")),
        "ratio",
    ));
    metrics.push(m("cache.evictions", delta("cache.evictions"), "count"));
    metrics.push(m("cache.get_us_mean", mean_of(&spans, "cache.get"), "us"));
    metrics.push(m("prepare.us_mean", mean_of(&spans, "prepare"), "us"));
    metrics.push(m("prepare.calls", counts.prepare_calls as f64, "count"));
    metrics.push(m("kernel.us_mean", mean(kernel_spans.iter().copied()), "us"));
    metrics.push(m("kernel.us_p99", percentile(&kernel_spans, 99.0), "us"));
    metrics.push(m(
        "kernel.hom_probes_per_decision",
        per_kernel_call(&counts, K::HomProbes),
        "count",
    ));
    metrics.push(m(
        "kernel.emptiness_patterns_per_decision",
        per_kernel_call(&counts, K::TreeEmptinessPatterns),
        "count",
    ));
    metrics.push(m(
        "kernel.union_pairs_per_decision",
        mean(counts.union_pair_shares.iter().copied()),
        "ratio",
    ));
    metrics.push(m("kernel.threads_used_mean", mean(threads.iter().copied()), "count"));
    metrics.push(m("kernel.steals", counts.kernel.get(K::KernelSteals) as f64, "count"));
    metrics.push(m("cert.unavailable", cert_unavailable as f64, "count"));
    metrics.push(m("router.route_us_mean", mean_of(&spans, "router.route"), "us"));
    metrics.push(m(
        "router.attempts_per_request",
        mean(ex.iter().map(|(_, e)| e.attempts.unwrap_or(0) as f64)),
        "count",
    ));
    metrics.push(m("router.redials", delta("router.redials"), "count"));
    metrics.push(m(
        "trace.overhead_pct",
        ratio(percentile(&traced_lat, 50.0) - p50_untraced, p50_untraced) * 100.0,
        "%",
    ));

    let extra = &mut out.extra;
    for (i, phase) in PHASES.iter().enumerate() {
        extra.push(m(
            &format!("explain.{phase}_us_mean"),
            mean(ex.iter().map(|(_, e)| e.phases[i] as f64)),
            "us",
        ));
    }
    extra.push(m("explain.total_us_mean", mean(ex.iter().map(|(_, e)| e.total_us as f64)), "us"));
    extra.push(m("cert.mint_us_mean", mean_of(&spans, "cert.mint"), "us"));
    extra.push(m("cache.insert_us_mean", mean_of(&spans, "cache.insert"), "us"));
    extra.push(m("replay.requests", layer_sum.len() as f64, "count"));
    extra.push(m("traced.requests", ex.len() as f64, "count"));
    if w.fleet {
        let fwd = |e: &Explain| e.forward_us.unwrap_or(0) as f64;
        let route = |e: &Explain| e.route_us.unwrap_or(0) as f64;
        extra.push(m("router.wire_route_us_mean", mean(ex.iter().map(|(_, e)| route(e))), "us"));
        extra.push(m("router.forward_us_mean", mean(ex.iter().map(|(_, e)| fwd(e))), "us"));
        extra.push(m(
            "router.hop_us_mean",
            mean(ex.iter().map(|(_, e)| fwd(e) - e.total_us as f64)),
            "us",
        ));
        extra.push(m(
            "router.unattributed_us_mean",
            mean(ex.iter().map(|(rtt, e)| rtt - route(e) - fwd(e))),
            "us",
        ));
    }

    let mut wire = traced_spans(records, epoch);
    let kept = wire.iter().filter(|s| s.parent.is_none()).nth(TRACE_FILE_REQUESTS).map(|s| s.req);
    if let Some(cut) = kept {
        wire.retain(|s| s.req < cut);
    }
    let negative = negative_self_times(&wire);
    if negative > 0 {
        out.notes.push(format!("{negative} wire spans have negative self time"));
    }
    out.spans = wire;
    out.spans.extend(spans);
    Ok(())
}

/// Spans whose children claim more time than they cover, beyond the
/// rounding of the server's whole-µs phase timings.
pub fn negative_self_times(spans: &[Span]) -> usize {
    let mut by_req: HashMap<u64, Vec<Span>> = HashMap::new();
    for s in spans {
        by_req.entry(s.req).or_default().push(s.clone());
    }
    by_req.values().map(|group| self_times(group).iter().filter(|(_, t)| *t < -8.0).count()).sum()
}
