//! Layer attribution: spans recorded from the benchmark's own code.
//!
//! Two sources feed the spans. The traced wire pass turns each `EXPLAIN`
//! reply into a client span with the server's phases as duration-only
//! children. The in-process replay re-runs the first requests of the same
//! stream through the public calls `Engine::decide` makes, in its order,
//! and times each call. A layer's self time is its span minus the time its
//! children cover.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use co_core::{ContainmentAnalysis, Prepared, PreparedUnion, UnionAnalysis};
use co_lang::parse::DEFAULT_MAX_DEPTH;
use co_lang::CoqlSchema;
use co_router::ring::{hash64, Ring};
use co_service::{
    canonical_fingerprint, canonical_union_fingerprint, fingerprint_query, fingerprint_schema,
    fingerprint_union, CacheEntry, CacheKey, Engine, EngineConfig, Fingerprint, MemoCache, Op,
    Request as EngineRequest,
};
use co_trace::kernel::{self, Metric};

use crate::drive::{Record, Tag};
use crate::gen::{Family, Request, Workload, SCHEMA_DECL, SCHEMA_NAME};
use crate::wire::PHASES;

/// One timed interval of one request.
#[derive(Clone, Debug)]
pub struct Span {
    /// `wire` for the traced wire pass, `replay` for the in-process one.
    pub pass: &'static str,
    /// Request id (stream index) within the pass.
    pub req: u64,
    /// Layer-qualified name.
    pub name: &'static str,
    /// Name of the enclosing span within the same request.
    pub parent: Option<&'static str>,
    /// Start, µs since the trace epoch; `None` for a duration reported by
    /// the server, which has no clock in common with the client.
    pub start_us: Option<f64>,
    /// Length, µs.
    pub dur_us: f64,
}

/// Self time of every span of one request: its duration minus the
/// durations of the spans naming it as parent.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64)> {
    spans
        .iter()
        .map(|s| {
            let children: f64 =
                spans.iter().filter(|c| c.parent == Some(s.name)).map(|c| c.dur_us).sum();
            (s.name, s.dur_us - children)
        })
        .collect()
}

/// Spans for one traced wire request: the client's round trip, the
/// router's phases when there is a router, the shard engine's total and
/// its phases.
pub fn wire_spans(r: &Record, epoch: Instant) -> Vec<Span> {
    let Ok(answer) = &r.outcome else { return Vec::new() };
    let Some(ex) = answer.explain.as_deref() else { return Vec::new() };
    let span = |name, parent, start_us, dur_us: u64| Span {
        pass: "wire",
        req: r.index,
        name,
        parent,
        start_us,
        dur_us: dur_us as f64,
    };
    let start = r.start.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    let mut out = vec![Span {
        pass: "wire",
        req: r.index,
        name: "client",
        parent: None,
        start_us: Some(start),
        dur_us: r.latency_us,
    }];
    let engine_parent = match (ex.route_us, ex.forward_us) {
        (Some(route), Some(forward)) => {
            out.push(span("router.route", Some("client"), None, route));
            out.push(span("router.forward", Some("client"), None, forward));
            "router.forward"
        }
        _ => "client",
    };
    out.push(span("engine", Some(engine_parent), None, ex.total_us));
    const NAMES: [&str; 6] = [
        "engine.parse",
        "engine.canonicalize",
        "engine.fingerprint",
        "engine.prepare",
        "engine.cache",
        "engine.kernel",
    ];
    for (name, &us) in NAMES.iter().zip(&ex.phases) {
        out.push(span(name, Some("engine"), None, us));
    }
    debug_assert_eq!(PHASES.len(), NAMES.len());
    out
}

/// Appends spans as JSON lines.
pub fn write_jsonl(out: &mut String, spans: &[Span]) {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        let start = s.start_us.map_or("null".to_string(), |t| format!("{t:.3}"));
        let _ = writeln!(
            out,
            "{{\"pass\": \"{}\", \"req\": {}, \"name\": \"{}\", \"parent\": {parent}, \
             \"start_us\": {start}, \"dur_us\": {:.3}}}",
            s.pass, s.req, s.name, s.dur_us
        );
    }
}

/// Counts the replay gathers next to its spans.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    /// Real `co_core::prepare` calls (prepared-map misses).
    pub prepare_calls: u64,
    /// Kernel invocations (cache misses).
    pub kernel_calls: u64,
    /// Kernel counter deltas summed over those invocations.
    pub kernel: kernel::Counters,
    /// `pairs_decided / (left × right)` per union kernel call.
    pub union_pair_shares: Vec<f64>,
    /// `Engine::decide` wall time per request on a fresh engine, µs.
    pub decide_us: Vec<f64>,
}

/// The replay's stand-in for the engine state `Engine::decide` consults.
struct Pipeline {
    coql: CoqlSchema,
    flat: co_cq::Schema,
    schema_fp: Fingerprint,
    prepared: HashMap<Fingerprint, Arc<Prepared>>,
    prepared_unions: HashMap<Fingerprint, Arc<PreparedUnion>>,
    cache: MemoCache,
    unions: HashMap<CacheKey, UnionAnalysis>,
    ring: Ring,
    epoch: Instant,
    spans: Vec<Span>,
    counts: ReplayCounts,
}

impl Pipeline {
    /// Records a span from `start` until now.
    fn record(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
    ) {
        self.spans.push(Span {
            pass: "replay",
            req,
            name,
            parent,
            start_us: Some(start.duration_since(self.epoch).as_secs_f64() * 1e6),
            dur_us: start.elapsed().as_secs_f64() * 1e6,
        });
    }

    /// Times `f` as a child of the request's root span.
    fn span<T>(&mut self, req: u64, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = Instant::now();
        let out = f(self);
        self.record(req, name, Some("request"), start);
        out
    }

    fn prepare_one(
        &mut self,
        fp: Fingerprint,
        expr: &co_lang::Expr,
    ) -> Result<Arc<Prepared>, String> {
        if let Some(p) = self.prepared.get(&fp) {
            return Ok(Arc::clone(p));
        }
        self.counts.prepare_calls += 1;
        let p = Arc::new(co_core::prepare(expr, &self.flat).map_err(|e| e.to_string())?);
        self.prepared.insert(fp, Arc::clone(&p));
        Ok(p)
    }

    /// Parse + type check, normalize, fingerprint, prepared lookup.
    fn analyze(&mut self, req: u64, text: &str) -> Result<(Fingerprint, Arc<Prepared>), String> {
        let expr = self.span(req, "lang.parse", |p| {
            let e = co_lang::parse_coql_with_depth(text, DEFAULT_MAX_DEPTH)
                .map_err(|e| e.to_string())?;
            co_lang::type_check(&e, &p.coql).map_err(|e| e.to_string())?;
            Ok::<_, String>(e)
        })?;
        let nf = self
            .span(req, "lang.normalize", |p| co_lang::normalize(&expr, &p.coql))
            .map_err(|e| e.to_string())?;
        let fp = self.span(req, "fingerprint", |_| fingerprint_query(&nf));
        let prepared = self.span(req, "prepare", |p| p.prepare_one(fp, &expr))?;
        Ok((fp, prepared))
    }

    /// The union analogue of [`Pipeline::analyze`].
    fn analyze_union(
        &mut self,
        req: u64,
        text: &str,
    ) -> Result<(Fingerprint, Arc<PreparedUnion>), String> {
        let exprs = self.span(req, "lang.parse", |p| {
            let es = co_lang::parse_union_coql_with_depth(text, DEFAULT_MAX_DEPTH)
                .map_err(|e| e.to_string())?;
            for e in &es {
                co_lang::type_check(e, &p.coql).map_err(|e| e.to_string())?;
            }
            Ok::<_, String>(es)
        })?;
        let nfs = self
            .span(req, "lang.normalize", |p| {
                exprs.iter().map(|e| co_lang::normalize(e, &p.coql)).collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
        let (dfps, ufp) = self.span(req, "fingerprint", |_| {
            let dfps: Vec<Fingerprint> = nfs.iter().map(fingerprint_query).collect();
            let ufp = fingerprint_union(&dfps);
            (dfps, ufp)
        });
        let union = self.span(req, "prepare", |p| {
            if let Some(u) = p.prepared_unions.get(&ufp) {
                return Ok(Arc::clone(u));
            }
            let mut disjuncts = Vec::with_capacity(exprs.len());
            for (e, &fp) in exprs.iter().zip(&dfps) {
                disjuncts.push((*p.prepare_one(fp, e)?).clone());
            }
            let u = Arc::new(PreparedUnion::from_disjuncts(disjuncts).map_err(|e| e.to_string())?);
            p.prepared_unions.insert(ufp, Arc::clone(&u));
            Ok::<_, String>(u)
        })?;
        Ok((ufp, union))
    }

    /// Runs a kernel call with counter deltas folded into the totals.
    fn kernel<T>(&mut self, req: u64, f: impl FnOnce() -> T) -> T {
        let before = kernel::snapshot();
        let out = self.span(req, "kernel", |_| f());
        self.counts.kernel.merge(&kernel::snapshot().delta(&before));
        self.counts.kernel_calls += 1;
        out
    }

    /// One containment direction: cache lookup, then on a miss the kernel,
    /// the certificate when asked, and the insert.
    fn contained(
        &mut self,
        req: u64,
        p1: &Prepared,
        p2: &Prepared,
        key: CacheKey,
        cert: bool,
    ) -> Result<bool, String> {
        if let Some(hit) = self.span(req, "cache.get", |p| p.cache.get(&key)) {
            return Ok(hit.analysis.holds);
        }
        let analysis: ContainmentAnalysis =
            self.kernel(req, || co_core::contained_prepared(p1, p2)).map_err(|e| e.to_string())?;
        let cert = if cert {
            let c = self.span(req, "cert.mint", |_| co_core::certify_prepared(p1, p2, &analysis));
            Some(c.map_err(|e| e.to_string())?.to_wire())
        } else {
            None
        };
        let holds = analysis.holds;
        self.span(req, "cache.insert", |p| p.cache.insert(key, CacheEntry { analysis, cert }));
        Ok(holds)
    }

    /// Decides one request the way `Engine::decide` does, recording a
    /// `request` root span around the whole pipeline.
    fn decide(&mut self, req: u64, r: &Request) -> Result<(), String> {
        let start = Instant::now();
        let key = |q1, q2, schema| CacheKey { q1, q2, schema };
        if r.family == Family::UCheck {
            let (f1, u1) = self.analyze_union(req, &r.q1)?;
            let (f2, u2) = self.analyze_union(req, &r.q2)?;
            let k = key(f1, f2, self.schema_fp);
            if self.span(req, "cache.get", |p| p.unions.get(&k).cloned()).is_none() {
                let analysis = self
                    .kernel(req, || co_core::union_contained_prepared(&u1, &u2))
                    .map_err(|e| e.to_string())?;
                let cells = (u1.disjuncts.len() * u2.disjuncts.len()).max(1);
                self.counts.union_pair_shares.push(analysis.pairs_decided as f64 / cells as f64);
                self.span(req, "cache.insert", |p| p.unions.insert(k, analysis));
            }
        } else {
            let (f1, p1) = self.analyze(req, &r.q1)?;
            let (f2, p2) = self.analyze(req, &r.q2)?;
            let cert = r.family == Family::CertCheck;
            self.contained(req, &p1, &p2, key(f1, f2, self.schema_fp), cert)?;
            if r.family == Family::Equiv {
                self.contained(req, &p2, &p1, key(f2, f1, self.schema_fp), false)?;
            }
        }
        self.record(req, "request", None, start);
        Ok(())
    }

    /// What the router does before forwarding: canonicalize and
    /// fingerprint both sides, then look the pair up on the ring.
    fn route(&mut self, req: u64, r: &Request) -> Result<(), String> {
        let start = Instant::now();
        let fp = |text: &str| {
            if r.family == Family::UCheck {
                canonical_union_fingerprint(&self.coql, text, DEFAULT_MAX_DEPTH)
            } else {
                canonical_fingerprint(&self.coql, text, DEFAULT_MAX_DEPTH)
            }
        };
        let (a, b) = (fp(&r.q1)?, fp(&r.q2)?);
        let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        let mut bytes = [0u8; 48];
        bytes[..16].copy_from_slice(&self.schema_fp.0.to_be_bytes());
        bytes[16..32].copy_from_slice(&lo.0.to_be_bytes());
        bytes[32..].copy_from_slice(&hi.0.to_be_bytes());
        std::hint::black_box(self.ring.candidates(hash64(&bytes)));
        self.record(req, "router.route", None, start);
        Ok(())
    }
}

/// The engine configuration a workload's `coqld` runs with.
pub fn engine_config(w: &Workload) -> EngineConfig {
    let mut config = EngineConfig::default();
    for pair in w.server_args.chunks(2) {
        let value = pair.get(1).and_then(|v| v.parse().ok());
        match (pair[0], value) {
            ("--shards", Some(n)) => config.cache_shards = n,
            ("--capacity", Some(n)) => config.cache_per_shard = n,
            ("--kernel-threads", Some(n)) => config.kernel_threads = n,
            _ => {}
        }
    }
    config
}

/// Replays requests `0..n` of the stream in process, each through the
/// bench-side pipeline (spans per layer call, plus the router's route
/// step) and through `Engine::decide` on a fresh engine configured like
/// the workload's server.
pub fn replay(
    w: &Workload,
    seed: u64,
    n: usize,
    epoch: Instant,
) -> Result<(Vec<Span>, ReplayCounts), String> {
    let config = engine_config(w);
    // Building the engine also applies its kernel thread count, which the
    // bench-side kernel calls then share.
    let engine = Engine::new(config);
    let flat = co_service::parse_schema_decl(SCHEMA_DECL)?;
    engine.register_schema(SCHEMA_NAME, flat.clone());
    let labels: Vec<String> = (0..3).map(|i| format!("shard-{i}")).collect();
    let mut pipe = Pipeline {
        coql: CoqlSchema::from_flat(&flat),
        schema_fp: fingerprint_schema(&flat),
        flat,
        prepared: HashMap::new(),
        prepared_unions: HashMap::new(),
        cache: MemoCache::new(config.cache_shards, config.cache_per_shard),
        unions: HashMap::new(),
        ring: Ring::build(&labels, 64),
        epoch,
        spans: Vec::new(),
        counts: ReplayCounts::default(),
    };
    for i in 0..n as u64 {
        let r = w.request(seed, i);
        let op = match r.family {
            Family::Check | Family::CertCheck => Op::Check,
            Family::Equiv => Op::Equiv,
            Family::UCheck => Op::UCheck,
        };
        let request = EngineRequest::new(op, SCHEMA_NAME, &r.q1, &r.q2)
            .with_cert(r.family == Family::CertCheck);
        // Alternate which side sees the request first, so neither always
        // inherits the other's warm processor caches.
        let decide = |pipe: &mut Pipeline| {
            let start = Instant::now();
            engine.decide(&request)?;
            pipe.counts.decide_us.push(start.elapsed().as_secs_f64() * 1e6);
            Ok::<_, String>(())
        };
        if i % 2 == 1 {
            decide(&mut pipe)?;
        }
        pipe.decide(i, &r)?;
        if i % 2 == 0 {
            decide(&mut pipe)?;
        }
        pipe.route(i, &r)?;
    }
    Ok((pipe.spans, pipe.counts))
}

/// Mean duration of the spans called `name`, µs (0 when there are none).
pub fn mean_of(spans: &[Span], name: &str) -> f64 {
    crate::stats::mean(spans.iter().filter(|s| s.name == name).map(|s| s.dur_us))
}

/// The traced records' wire spans.
pub fn traced_spans(records: &[Record], epoch: Instant) -> Vec<Span> {
    records.iter().filter(|r| r.tag == Tag::Traced).flat_map(|r| wire_spans(r, epoch)).collect()
}

/// A kernel counter's total per kernel call.
pub fn per_kernel_call(counts: &ReplayCounts, metric: Metric) -> f64 {
    counts.kernel.get(metric) as f64 / counts.kernel_calls.max(1) as f64
}
