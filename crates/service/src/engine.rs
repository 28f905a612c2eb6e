//! The decision engine: fingerprint → memo cache → decide.
//!
//! One [`Engine`] owns the registered schemas, the shared [`MemoCache`],
//! a bounded LRU of [`Prepared`] queries (one per *distinct canonical query*,
//! shared across every pair it appears in), and an in-flight table that
//! coalesces concurrent identical requests so a verdict is computed at
//! most once no matter how many clients ask simultaneously.
//!
//! Every decision is one Sagiv–Yannakakis walk over disjunct pairs
//! ([`co_core::sagiv_yannakakis`]); a scalar `CHECK` is the 1×1 walk. The
//! memo unit is the pair verdict, so union verdicts share the scalar memo,
//! coalescer, snapshots and certificate re-check.
//!
//! The per-request cost is parse + normalize + fingerprint (linear in the
//! query text); the exponential decision procedures run only on cache
//! misses, which a duplicate-heavy workload makes rare.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use co_core::{ContainmentAnalysis, CoreError, Equivalence, Prepared};
use co_cq::Schema;
use co_lang::CoqlSchema;
use co_object::{interrupt, par, Type};
use co_trace::{kernel, Span};

use crate::cache::{CacheEntry, CacheKey, CacheStats, MemoCache, ShardedLru};
use crate::deadline::{Deadline, RequestBudget};
use crate::faults;
use crate::fingerprint::{
    canonical_fingerprint, fingerprint_query, fingerprint_schema, fingerprint_union,
    parse_error_message, Fingerprint,
};
use crate::snapshot::{self, LoadOutcome};
use crate::stats::{path_index, EngineStats};
use crate::sync;

/// Engine sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of memo-cache shards (rounded up to a power of two).
    pub cache_shards: usize,
    /// LRU capacity per shard.
    pub cache_per_shard: usize,
    /// Nesting cap applied when parsing query text (untrusted socket/CLI
    /// input). Deeper input is rejected with a `TOODEEP`-prefixed error
    /// instead of risking a stack overflow in the parser.
    pub max_parse_depth: usize,
    /// Intra-request kernel threads (`0` = auto: half the machine, capped
    /// at 8, so kernel fan-out never starves the connection workers; the
    /// auto count is resolved once per process, not per kernel call).
    /// Applied process-globally when the engine is built.
    pub kernel_threads: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            cache_shards: 16,
            cache_per_shard: 4096,
            max_parse_depth: co_lang::parse::DEFAULT_MAX_DEPTH,
            kernel_threads: 0,
        }
    }
}

/// What a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Decide `q1 ⊑ q2`.
    Check,
    /// Decide equivalence (mutual containment plus the §4 collapse).
    Equiv,
    /// Decide union containment `∪q1ⱼ ⊑ ∪q2ᵢ` (the query texts are
    /// `or`-of-conjuncts union queries; a plain query is the degenerate
    /// one-disjunct union).
    UCheck,
    /// Decide union equivalence (mutual union containment).
    UEquiv,
}

/// One decision request, as received from a client.
#[derive(Clone, Debug)]
pub struct Request {
    /// Which question to answer.
    pub op: Op,
    /// Registered schema id.
    pub schema: String,
    /// COQL source of the left query.
    pub q1: String,
    /// COQL source of the right query.
    pub q2: String,
    /// Deadline/step limits for this request (none by default).
    pub budget: RequestBudget,
    /// Demand a proof-carrying verdict (the `CERT` protocol prefix): the
    /// decision must come with a certificate, and a cached certificate is
    /// re-checked by `co-cert` before being served.
    pub cert: bool,
}

impl Request {
    /// A request with no budget limits.
    pub fn new(op: Op, schema: &str, q1: &str, q2: &str) -> Request {
        Request {
            op,
            schema: schema.to_string(),
            q1: q1.to_string(),
            q2: q2.to_string(),
            budget: RequestBudget::default(),
            cert: false,
        }
    }

    /// Sets the request budget.
    pub fn with_budget(mut self, budget: RequestBudget) -> Request {
        self.budget = budget;
        self
    }

    /// Demands a certified verdict.
    pub fn with_cert(mut self, cert: bool) -> Request {
        self.cert = cert;
        self
    }
}

/// A successful decision.
#[derive(Clone, Debug, PartialEq)]
pub enum Decision {
    /// Answer to an [`Op::Check`] request.
    Containment {
        /// The verdict with provenance, bit-identical to the uncached
        /// [`co_core::contained_in`] result.
        analysis: ContainmentAnalysis,
        /// Served from the memo cache (or coalesced onto an in-flight
        /// computation) rather than computed for this request.
        cached: bool,
        /// Canonical fingerprint of `q1`.
        fp1: Fingerprint,
        /// Canonical fingerprint of `q2`.
        fp2: Fingerprint,
        /// The verdict's certificate in `co-cert` wire form. Present
        /// exactly when the request asked for one ([`Request::cert`]);
        /// cached certificates have been re-checked before landing here.
        cert: Option<String>,
    },
    /// Answer to an [`Op::Equiv`] request.
    Equivalence {
        /// `q1 ⊑ q2`.
        forward: bool,
        /// `q2 ⊑ q1`.
        backward: bool,
        /// The combined verdict (definite when the §4 collapse applies).
        verdict: Equivalence,
        /// Both directions were served from cache.
        cached: bool,
        /// Canonical fingerprint of `q1`.
        fp1: Fingerprint,
        /// Canonical fingerprint of `q2`.
        fp2: Fingerprint,
        /// Certificate for the forward direction (`q1 ⊑ q2`), present
        /// exactly when the request asked for one.
        cert_forward: Option<String>,
        /// Certificate for the backward direction (`q2 ⊑ q1`).
        cert_backward: Option<String>,
    },
    /// Answer to an [`Op::UCheck`] request.
    Union {
        /// The union verdict with witness provenance.
        analysis: co_core::UnionAnalysis,
        /// Every examined disjunct pair was served from the memo cache (or
        /// coalesced onto an in-flight computation) rather than computed.
        cached: bool,
        /// Order-invariant union fingerprint of `q1`.
        fp1: Fingerprint,
        /// Order-invariant union fingerprint of `q2`.
        fp2: Fingerprint,
        /// Disjunct counts `(left, right)` after parsing.
        disjuncts: (usize, usize),
        /// The union certificate in `co-cert` wire form (`COUNION1`),
        /// present exactly when the request asked for one; cached
        /// certificates have been re-checked before landing here.
        cert: Option<String>,
    },
    /// Answer to an [`Op::UEquiv`] request.
    UnionEquivalence {
        /// `∪q1ⱼ ⊑ ∪q2ᵢ`.
        forward: bool,
        /// `∪q2ᵢ ⊑ ∪q1ⱼ`.
        backward: bool,
        /// Every examined pair of both directions was served from the memo.
        cached: bool,
        /// Order-invariant union fingerprint of `q1`.
        fp1: Fingerprint,
        /// Order-invariant union fingerprint of `q2`.
        fp2: Fingerprint,
        /// Union certificate for the forward direction, when asked for.
        cert_forward: Option<String>,
        /// Union certificate for the backward direction.
        cert_backward: Option<String>,
    },
    /// The request's deadline or step budget expired before a verdict was
    /// reached. Nothing was memoized; retrying with a larger budget
    /// computes the true verdict.
    TimedOut {
        /// Canonical fingerprint of `q1`.
        fp1: Fingerprint,
        /// Canonical fingerprint of `q2`.
        fp2: Fingerprint,
        /// Time spent before giving up.
        elapsed: Duration,
    },
}

/// Per-request phase breakdown and kernel step counts, produced by
/// [`Engine::decide_explained`] (the `EXPLAIN` protocol prefix).
///
/// Phase timings are microseconds of wall clock spent in each stage of
/// the decision pipeline; for `EQUIV` requests both directions
/// accumulate into the same fields. `cache_us` includes time spent
/// waiting on another request's in-flight computation of the same key,
/// so the phases sum to approximately the end-to-end latency
/// ([`Explain::total_us`]) whatever path the request takes.
#[derive(Clone, Debug, Default)]
pub struct Explain {
    /// Parsing + type checking the query text.
    pub parse_us: u64,
    /// Normalizing the parsed queries ([`co_lang::normalize()`]); the phase
    /// keeps its wire name `canonicalize`.
    pub canonicalize_us: u64,
    /// The canonical walk over the normal forms
    /// ([`co_lang::canonical_query`]) plus the hash of its text.
    pub fingerprint_us: u64,
    /// Building (or looking up) the shared [`Prepared`] forms.
    pub prepare_us: u64,
    /// Memo-cache lookups plus any time spent coalesced behind an
    /// identical in-flight computation.
    pub cache_us: u64,
    /// Time inside the decision kernels proper.
    pub kernel_us: u64,
    /// End-to-end time inside [`Engine::decide_explained`].
    pub total_us: u64,
    /// Kernel step counters attributable to this request (zero when the
    /// verdict came from cache or a coalesced computation).
    pub kernel_steps: kernel::Counters,
    /// High-water mark of kernel threads engaged while deciding this
    /// request (`1` for a purely sequential decision, `0` when no kernel
    /// ran because the verdict came from cache).
    pub threads_used: usize,
}

impl Explain {
    /// Sum of the per-phase timings (compare against [`Explain::total_us`]
    /// to see how much latency the breakdown attributes).
    pub fn phase_sum_us(&self) -> u64 {
        self.parse_us
            + self.canonicalize_us
            + self.fingerprint_us
            + self.prepare_us
            + self.cache_us
            + self.kernel_us
    }

    /// The phase timings as stable `(name, µs)` pairs, in pipeline order.
    pub fn phases(&self) -> [(&'static str, u64); 6] {
        [
            ("parse", self.parse_us),
            ("canonicalize", self.canonicalize_us),
            ("fingerprint", self.fingerprint_us),
            ("prepare", self.prepare_us),
            ("cache", self.cache_us),
            ("kernel", self.kernel_us),
        ]
    }
}

struct SchemaEntry {
    flat: Schema,
    coql: CoqlSchema,
    fp: Fingerprint,
}

/// One side of a request after analysis: the fingerprint the reply and
/// the routing tier speak about (the query's own for `CHECK`/`EQUIV`, the
/// order-invariant union fingerprint for `UCHECK`/`UEQUIV`), the side's
/// answer type, and every disjunct's fingerprint and shared [`Prepared`]
/// form in the request's own order. A scalar query is one disjunct.
struct Side {
    fp: Fingerprint,
    ty: Type,
    disjuncts: Vec<(Fingerprint, Arc<Prepared>)>,
}

/// One direction's Sagiv–Yannakakis walk ([`Engine::walk`]).
struct Walk {
    analysis: co_core::UnionAnalysis,
    /// The verdict of every pair the walk examined, at `j * width + i`.
    pairs: Vec<Option<CacheEntry>>,
    /// Number of right disjuncts.
    width: usize,
    /// Every examined pair was served without computing.
    cached: bool,
}

impl Walk {
    /// The one pair verdict of a scalar (1×1) walk.
    fn scalar(&mut self) -> CacheEntry {
        self.pairs[0].take().expect("a 1×1 walk decides its only pair")
    }

    /// The walk's `COUNION1` certificate, assembled from the `COCERT1`
    /// certificates of the pairs that carry the verdict — one witness per
    /// left disjunct, or every branch of the refuted one — indexed by the
    /// request's own disjunct order.
    fn union_cert(&self) -> Result<String, String> {
        let cert = |j: usize, i: u32| {
            let wire = self.pairs[j * self.width + i as usize]
                .as_ref()
                .and_then(|pair| pair.cert.as_deref())
                .ok_or_else(|| format!("CERTUNAVAILABLE pair ({j}, {i}) carried no certificate"))?;
            co_cert::Cert::parse(wire)
                .map(|cert| (i, cert))
                .map_err(|e| format!("CERTUNAVAILABLE pair ({j}, {i}): {e}"))
        };
        let a = &self.analysis;
        let (witnesses, branches) = match a.refuted {
            None => {
                let witnesses = a.witnesses.iter().enumerate().map(|(j, &i)| cert(j, i));
                (witnesses.collect::<Result<_, String>>()?, Vec::new())
            }
            Some(x) => {
                let branches = (0..self.width as u32).map(|i| cert(x as usize, i));
                (Vec::new(), branches.collect::<Result<_, String>>()?)
            }
        };
        let left = self.pairs.len() / self.width;
        let union = co_cert::UnionCert {
            holds: a.holds,
            left,
            right: self.width,
            witnesses,
            refuted: a.refuted,
            branches,
        };
        Ok(union.to_wire())
    }
}

/// What one pair decision produced: a real cache entry (analysis
/// plus any certificate) or a timeout. (Timeouts propagate to coalesced
/// waiters but are never cached.)
#[derive(Clone)]
enum Computed {
    Done(CacheEntry),
    TimedOut,
}

/// What one certificate-construction attempt produced.
enum CertAttempt {
    /// No certificate was asked for.
    Skipped,
    /// A certificate, already in wire form.
    Made(String),
    /// The budget/deadline expired inside the certifier.
    Interrupted,
    /// The verdict stands but no certificate could be constructed
    /// (surfaced to the client as `ERR CERTUNAVAILABLE`).
    Unavailable(String),
}

type SlotResult = Result<Computed, String>;

/// Slot a computing thread publishes its result into; concurrent
/// requesters of the same key block on the condvar instead of recomputing.
struct InFlightSlot {
    result: Mutex<Option<SlotResult>>,
    ready: Condvar,
}

/// RAII custody of an in-flight slot by its computing leader. If the
/// leader unwinds before publishing (a panic that escapes even
/// `catch_unwind`'s result handling), the drop publishes an error so
/// coalesced waiters are released instead of blocking forever, and removes
/// the slot from the in-flight map so later requests recompute.
struct SlotGuard<'a> {
    engine: &'a Engine,
    key: CacheKey,
    slot: &'a Arc<InFlightSlot>,
    published: bool,
}

impl SlotGuard<'_> {
    fn publish(&mut self, result: SlotResult) {
        *sync::lock(&self.slot.result) = Some(result);
        self.slot.ready.notify_all();
        sync::lock(&self.engine.inflight).remove(&self.key);
        self.published = true;
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.publish(Err("internal error: decision worker died before publishing".into()));
        }
    }
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// The containment-decision engine. Cheap to share: wrap it in an [`Arc`]
/// and hand clones to every connection/worker.
pub struct Engine {
    schemas: RwLock<HashMap<String, Arc<SchemaEntry>>>,
    cache: MemoCache,
    /// Prepared queries keyed by `(fp(schema), fp(query))`, bounded like
    /// the memo: an evicted query is prepared again on its next request.
    prepared: ShardedLru<(Fingerprint, Fingerprint), Arc<Prepared>>,
    inflight: Mutex<HashMap<CacheKey, Arc<InFlightSlot>>>,
    stats: EngineStats,
    max_parse_depth: usize,
    last_snapshot: Mutex<Option<Instant>>,
    started: Instant,
}

/// What [`Engine::warm_start`] found on disk.
#[derive(Debug, PartialEq, Eq)]
pub enum WarmStart {
    /// No snapshot file: a normal first boot.
    Cold,
    /// This many verdicts were verified and preloaded into the cache.
    Recovered(usize),
    /// The snapshot failed verification and was moved aside; the cache
    /// starts empty (and [`EngineStats::quarantined`] ticked).
    Quarantined {
        /// What failed verification.
        reason: String,
    },
}

impl Engine {
    /// An engine with the given sizing.
    pub fn new(config: EngineConfig) -> Engine {
        par::set_kernel_threads(config.kernel_threads);
        Engine {
            schemas: RwLock::new(HashMap::new()),
            cache: MemoCache::new(config.cache_shards, config.cache_per_shard),
            prepared: ShardedLru::new(config.cache_shards, config.cache_per_shard),
            inflight: Mutex::new(HashMap::new()),
            stats: EngineStats::default(),
            max_parse_depth: config.max_parse_depth.max(1),
            last_snapshot: Mutex::new(None),
            started: Instant::now(),
        }
    }

    /// Whole seconds this engine has been alive. Exposed through
    /// `STATS`/`METRICS` so a fleet prober can detect restarts: an uptime
    /// that goes *down* between scrapes means the process was replaced
    /// (and its warm cache possibly lost).
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Writes the cache's current verdicts to `path` (atomic
    /// publication: temp file + fsync + rename). Returns the number of
    /// entries written. On failure the previous snapshot at `path`
    /// survives untouched and [`EngineStats::snapshot_failures`] ticks.
    ///
    /// Timed-out decisions are never inserted into the cache, so no
    /// snapshot can ever contain one.
    pub fn snapshot_to(&self, path: &std::path::Path) -> Result<usize, String> {
        let entries = self.cache.export();
        match snapshot::write_snapshot(path, &entries) {
            Ok(()) => {
                self.stats.snapshots_written.fetch_add(1, Ordering::Relaxed);
                *sync::lock(&self.last_snapshot) = Some(Instant::now());
                Ok(entries.len())
            }
            Err(e) => {
                self.stats.snapshot_failures.fetch_add(1, Ordering::Relaxed);
                Err(format!("snapshot to `{}` failed: {e}", path.display()))
            }
        }
    }

    /// Recovers the cache from the snapshot at `path`, if one exists and
    /// verifies. Never fails the boot: a missing file is a cold start, a
    /// corrupt/stale file is quarantined (renamed aside, counter ticked)
    /// and the engine starts cold — wrong verdicts can never be
    /// recovered because every record is checksummed and version-gated.
    pub fn warm_start(&self, path: &std::path::Path) -> WarmStart {
        match snapshot::load_snapshot(path) {
            LoadOutcome::Missing => WarmStart::Cold,
            LoadOutcome::Loaded(entries) => {
                let kept = self.cache.preload(self.screen_recovered(entries));
                self.stats.recovered_entries.fetch_add(kept as u64, Ordering::Relaxed);
                WarmStart::Recovered(kept)
            }
            LoadOutcome::Quarantined { reason, .. } => {
                self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                WarmStart::Quarantined { reason }
            }
        }
    }

    /// Milliseconds since the last successful snapshot, `None` before
    /// the first one.
    pub fn snapshot_age_ms(&self) -> Option<u64> {
        sync::lock(&self.last_snapshot).map(|t| t.elapsed().as_millis() as u64)
    }

    /// Serializes the cache's current verdicts into the on-disk
    /// `COQLSNP1` format, in memory — the wire payload for warm shard
    /// handoff. Returns the bytes and how many entries they carry.
    pub fn export_snapshot_bytes(&self) -> (Vec<u8>, usize) {
        let entries = self.cache.export();
        let count = entries.len();
        (snapshot::encode_snapshot(&entries), count)
    }

    /// Verifies and preloads a `COQLSNP1` payload pushed over the wire
    /// (warm shard handoff). All-or-nothing, exactly like
    /// [`Engine::warm_start`]: any header/version/CRC mismatch rejects
    /// the whole payload (ticking [`EngineStats::quarantined`]) and the
    /// cache is left untouched — a half-loaded cache can never exist.
    /// Returns `(kept, total)` on success: entries actually inserted
    /// (already-present keys keep the resident verdict) out of entries
    /// carried.
    pub fn import_snapshot_bytes(&self, bytes: &[u8]) -> Result<(usize, usize), String> {
        match snapshot::decode_snapshot(bytes) {
            Ok(entries) => {
                let total = entries.len();
                let kept = self.cache.preload(self.screen_recovered(entries));
                self.stats.recovered_entries.fetch_add(kept as u64, Ordering::Relaxed);
                Ok((kept, total))
            }
            Err(reason) => {
                self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                Err(reason)
            }
        }
    }

    /// Structurally screens recovered entries before they enter the cache:
    /// every certificate must parse and agree with its own record's cached
    /// verdict and decision path. A disagreeing entry is dropped whole
    /// (and [`EngineStats::cert_rejected`] ticks) — a certificate that
    /// contradicts the record it travels with means the writer was buggy
    /// or hostile, so the bare verdict is not to be trusted either. The
    /// full semantic re-check against the live queries happens on the
    /// first `CERT` hit, when the prepared trees exist.
    fn screen_recovered(
        &self,
        entries: Vec<(CacheKey, CacheEntry)>,
    ) -> Vec<(CacheKey, CacheEntry)> {
        entries
            .into_iter()
            .filter(|(_, entry)| {
                let Some(wire) = &entry.cert else { return true };
                let consistent = co_cert::Cert::parse(wire).is_ok_and(|cert| {
                    cert.holds == entry.analysis.holds
                        && cert.path == co_core::cert_path(entry.analysis.path)
                });
                if !consistent {
                    self.stats.cert_rejected.fetch_add(1, Ordering::Relaxed);
                }
                consistent
            })
            .collect()
    }

    /// Registers (or replaces) a schema under `name`; returns its
    /// fingerprint, which becomes part of every cache key that uses it.
    pub fn register_schema(&self, name: &str, schema: Schema) -> Fingerprint {
        let fp = fingerprint_schema(&schema);
        let entry =
            Arc::new(SchemaEntry { coql: CoqlSchema::from_flat(&schema), flat: schema, fp });
        sync::write(&self.schemas).insert(name.to_string(), entry);
        fp
    }

    /// Number of registered schemas.
    pub fn schema_count(&self) -> usize {
        sync::read(&self.schemas).len()
    }

    /// The flat relational schema registered under `name` (the `NEST`
    /// verb decides sequence equivalence against it).
    pub fn flat_schema(&self, name: &str) -> Result<Schema, String> {
        Ok(self.resolve_schema(name)?.flat.clone())
    }

    fn resolve_schema(&self, name: &str) -> Result<Arc<SchemaEntry>, String> {
        sync::read(&self.schemas)
            .get(name)
            .cloned()
            .ok_or_else(|| format!("unknown schema `{name}` (register it with SCHEMA first)"))
    }

    /// Parses, normalizes, and fingerprints one side of a request — one
    /// query, or with `union` an `or`-union of them — and looks up (or
    /// builds) each disjunct's shared [`Prepared`] form, reused across
    /// every pair it appears in. With an [`Explain`] attached, each stage's
    /// wall time is accumulated into the matching phase field.
    fn analyze(
        &self,
        entry: &SchemaEntry,
        text: &str,
        union: bool,
        ex: Option<&mut Explain>,
    ) -> Result<Side, String> {
        let span = Span::start();
        let exprs = if union {
            co_lang::parse_union_coql_with_depth(text, self.max_parse_depth)
        } else {
            co_lang::parse_coql_with_depth(text, self.max_parse_depth).map(|expr| vec![expr])
        }
        .map_err(|e| parse_error_message(&e))?;
        let mut tys = Vec::with_capacity(exprs.len());
        for expr in &exprs {
            tys.push(co_lang::type_check(expr, &entry.coql).map_err(|e| e.to_string())?);
        }
        let parse_us = span.elapsed_us();

        let span = Span::start();
        let mut nfs = Vec::with_capacity(exprs.len());
        for expr in &exprs {
            nfs.push(co_lang::normalize(expr, &entry.coql).map_err(|e| e.to_string())?);
        }
        let canonicalize_us = span.elapsed_us();

        let span = Span::start();
        let fps: Vec<Fingerprint> = nfs.iter().map(fingerprint_query).collect();
        let fp = if union { fingerprint_union(&fps) } else { fps[0] };
        let fingerprint_us = span.elapsed_us();

        let span = Span::start();
        let mut disjuncts = Vec::with_capacity(nfs.len());
        for ((ty, nf), dfp) in tys.into_iter().zip(&nfs).zip(fps) {
            let pkey = (entry.fp, dfp);
            let shared = match self.prepared.get(&pkey) {
                Some(p) => p,
                None => {
                    let prepared = co_core::prepare_normalized(ty, nf, &entry.flat)
                        .map(Arc::new)
                        .map_err(|e| e.to_string())?;
                    // A racing thread may have inserted an equivalent
                    // Prepared; keep the first so every holder shares one
                    // allocation.
                    self.prepared.get_or_insert(pkey, prepared)
                }
            };
            disjuncts.push((dfp, shared));
        }
        let ty =
            co_core::union_type(disjuncts.iter().map(|(_, p)| &p.ty)).map_err(|e| e.to_string())?;
        if let Some(ex) = ex {
            ex.parse_us += parse_us;
            ex.canonicalize_us += canonicalize_us;
            ex.fingerprint_us += fingerprint_us;
            ex.prepare_us += span.elapsed_us();
        }
        Ok(Side { fp, ty, disjuncts })
    }

    /// Fingerprint of one query under a registered schema (the `coqlc
    /// fingerprint` / `FINGERPRINT` debugging path).
    pub fn fingerprint(&self, schema: &str, text: &str) -> Result<Fingerprint, String> {
        let entry = self.resolve_schema(schema)?;
        canonical_fingerprint(&entry.coql, text, self.max_parse_depth)
    }

    /// Runs the certifier under the request budget inside the same
    /// panic-isolation boundary as the decision kernels.
    fn certify_guarded(
        &self,
        p1: &Prepared,
        p2: &Prepared,
        analysis: &ContainmentAnalysis,
        budget: &RequestBudget,
        deadline: Option<Deadline>,
    ) -> CertAttempt {
        let outcome = {
            let _budget_guard = interrupt::install(budget.kernel_budget(deadline));
            catch_unwind(AssertUnwindSafe(|| co_core::certify_prepared(p1, p2, analysis)))
        };
        match outcome {
            Ok(Ok(cert)) => CertAttempt::Made(cert.to_wire()),
            Ok(Err(co_core::CertifyError::Interrupted)) => CertAttempt::Interrupted,
            Ok(Err(co_core::CertifyError::Unavailable(m))) => CertAttempt::Unavailable(m),
            Err(payload) => {
                self.stats.panics.fetch_add(1, Ordering::Relaxed);
                CertAttempt::Unavailable(format!(
                    "certificate construction panicked: {}",
                    panic_message(&*payload)
                ))
            }
        }
    }

    /// Serves a cache hit to a request that demands a certificate.
    ///
    /// An entry that carries a certificate is re-checked with `co-cert`
    /// against the *live* prepared queries before being served — the
    /// trust boundary for entries that arrived via snapshot or handoff.
    /// A failed re-check drops nothing silently: the `cert_rejected`
    /// counter ticks and `None` is returned so the caller recomputes. An
    /// entry without a certificate gets one built now (under this
    /// request's budget) and written back.
    fn certified_hit(
        &self,
        key: CacheKey,
        p1: &Prepared,
        p2: &Prepared,
        hit: CacheEntry,
        budget: &RequestBudget,
        deadline: Option<Deadline>,
    ) -> Option<Result<(Computed, bool), String>> {
        match &hit.cert {
            Some(wire) => {
                let expected = co_core::cert_path(co_core::expected_path(p1, p2));
                let verified = co_cert::Cert::parse(wire).and_then(|cert| {
                    cert.check_against(&p1.tree, &p2.tree, hit.analysis.holds, expected)
                });
                match verified {
                    Ok(()) => Some(Ok((Computed::Done(hit), true))),
                    Err(_) => {
                        self.stats.cert_rejected.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                }
            }
            None => match self.certify_guarded(p1, p2, &hit.analysis, budget, deadline) {
                CertAttempt::Made(wire) => {
                    let entry = CacheEntry { analysis: hit.analysis, cert: Some(wire) };
                    self.cache.insert(key, entry.clone());
                    Some(Ok((Computed::Done(entry), true)))
                }
                CertAttempt::Interrupted => {
                    self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    Some(Ok((Computed::TimedOut, true)))
                }
                CertAttempt::Unavailable(m) => Some(Err(format!("CERTUNAVAILABLE {m}"))),
                CertAttempt::Skipped => Some(Ok((Computed::Done(hit), true))),
            },
        }
    }

    /// One disjunct pair `p1 ⊑ p2` through cache + in-flight coalescing.
    /// Returns what was produced and whether it was served without
    /// computing.
    ///
    /// The kernel runs under the request's interrupt budget and inside a
    /// panic-isolation boundary: an expired budget yields
    /// `Computed::TimedOut` (counted, never cached), a panic yields a
    /// structured error (counted, slot completed) — neither can strand
    /// coalesced waiters or poison shared state.
    ///
    /// With `want_cert`, the verdict must come back proof-carrying: a
    /// cached certificate is independently re-checked before being served
    /// (reject-and-recompute on mismatch), a certificate-less hit gets one
    /// built under this request's budget, and a fresh computation certifies
    /// inside the same budget window as the decision itself.
    #[allow(clippy::too_many_arguments)]
    fn contained(
        &self,
        key: CacheKey,
        p1: &Prepared,
        p2: &Prepared,
        budget: &RequestBudget,
        deadline: Option<Deadline>,
        want_cert: bool,
        mut ex: Option<&mut Explain>,
    ) -> Result<(Computed, bool), String> {
        let cache_span = Span::start();
        if let Some(hit) = self.cache.get(&key) {
            let served = if want_cert {
                self.certified_hit(key, p1, p2, hit, budget, deadline)
            } else {
                Some(Ok((Computed::Done(hit), true)))
            };
            if let Some(result) = served {
                if let Some(ex) = ex {
                    ex.cache_us += cache_span.elapsed_us();
                }
                return result;
            }
            // A poisoned certificate was rejected: fall through and
            // recompute as if the entry never existed.
        }
        let slot = {
            let mut inflight = sync::lock(&self.inflight);
            if let Some(slot) = inflight.get(&key) {
                let slot = Arc::clone(slot);
                drop(inflight);
                let result = self.wait_for_leader(&slot, deadline);
                // Coalesced waits count as cache time: the verdict arrives
                // without this request running a kernel.
                if let Some(ex) = ex.as_deref_mut() {
                    ex.cache_us += cache_span.elapsed_us();
                }
                // A waiter that wants a certificate may have coalesced
                // behind a leader that wasn't asked for one; build it
                // here under this request's own budget.
                return match result {
                    Ok((Computed::Done(entry), cached)) if want_cert && entry.cert.is_none() => {
                        match self.certify_guarded(p1, p2, &entry.analysis, budget, deadline) {
                            CertAttempt::Made(wire) => {
                                let entry =
                                    CacheEntry { analysis: entry.analysis, cert: Some(wire) };
                                self.cache.insert(key, entry.clone());
                                Ok((Computed::Done(entry), cached))
                            }
                            CertAttempt::Interrupted => {
                                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                                Ok((Computed::TimedOut, cached))
                            }
                            CertAttempt::Unavailable(m) => Err(format!("CERTUNAVAILABLE {m}")),
                            CertAttempt::Skipped => Ok((Computed::Done(entry), cached)),
                        }
                    }
                    other => other,
                };
            }
            let slot = Arc::new(InFlightSlot { result: Mutex::new(None), ready: Condvar::new() });
            inflight.insert(key, Arc::clone(&slot));
            slot
        };
        if let Some(ex) = ex.as_deref_mut() {
            ex.cache_us += cache_span.elapsed_us();
        }
        let mut slot_guard = SlotGuard { engine: self, key, slot: &slot, published: false };

        self.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        let steps_before = kernel::snapshot();
        let _ = par::take_engaged();
        let kernel_span = Span::start();
        // Decide and (when asked) certify inside one budget installation,
        // so the step/deadline budget covers the whole proof-carrying
        // answer, and inside one panic boundary.
        let outcome = {
            let _budget_guard = interrupt::install(budget.kernel_budget(deadline));
            catch_unwind(AssertUnwindSafe(|| {
                faults::kernel_entry();
                let analysis = co_core::contained_prepared(p1, p2)?;
                let cert = if want_cert {
                    match co_core::certify_prepared(p1, p2, &analysis) {
                        Ok(cert) => CertAttempt::Made(cert.to_wire()),
                        Err(co_core::CertifyError::Interrupted) => CertAttempt::Interrupted,
                        Err(co_core::CertifyError::Unavailable(m)) => CertAttempt::Unavailable(m),
                    }
                } else {
                    CertAttempt::Skipped
                };
                Ok::<_, CoreError>((analysis, cert))
            }))
        };
        let elapsed = kernel_span.elapsed();
        let engaged = par::take_engaged().max(1);
        // Fold this request's kernel work into the process-wide totals
        // (METRICS) regardless of outcome — timeouts and panics did the
        // steps too — and attribute it to the request when explaining.
        let steps = kernel::snapshot().delta(&steps_before);
        kernel::publish(&steps);
        if let Some(ex) = ex.as_deref_mut() {
            // Round like `Span::elapsed_us` so the phases sum cleanly.
            ex.kernel_us +=
                (elapsed.as_nanos().saturating_add(500) / 1_000).min(u64::MAX as u128) as u64;
            ex.kernel_steps.merge(&steps);
            ex.threads_used = ex.threads_used.max(engaged);
        }
        self.stats.in_flight.fetch_sub(1, Ordering::Relaxed);

        // Memoization + waiter release are cache work too; without this
        // the leader path leaves the insert/publish tail unattributed.
        let memo_span = Span::start();
        let (result, my_result): (SlotResult, Result<(Computed, bool), String>) = match outcome {
            Ok(Ok((analysis, cert_attempt))) => {
                let cert = match &cert_attempt {
                    CertAttempt::Made(wire) => Some(wire.clone()),
                    _ => None,
                };
                let entry = CacheEntry { analysis: analysis.clone(), cert };
                self.cache.insert(key, entry.clone());
                self.stats.computed.fetch_add(1, Ordering::Relaxed);
                self.stats.path_latency[path_index(analysis.path)].observe_duration(elapsed);
                // The analysis is valid whatever became of the certificate,
                // so waiters always get the verdict; only *this* request
                // carries the certificate failure.
                let mine = match cert_attempt {
                    CertAttempt::Interrupted => {
                        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                        Ok((Computed::TimedOut, false))
                    }
                    CertAttempt::Unavailable(m) => Err(format!("CERTUNAVAILABLE {m}")),
                    CertAttempt::Made(_) | CertAttempt::Skipped => {
                        Ok((Computed::Done(entry.clone()), false))
                    }
                };
                (Ok(Computed::Done(entry)), mine)
            }
            Ok(Err(CoreError::Interrupted)) => {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                (Ok(Computed::TimedOut), Ok((Computed::TimedOut, false)))
            }
            Ok(Err(e)) => (Err(e.to_string()), Err(e.to_string())),
            Err(payload) => {
                self.stats.panics.fetch_add(1, Ordering::Relaxed);
                let msg =
                    format!("internal error: decision panicked: {}", panic_message(&*payload));
                (Err(msg.clone()), Err(msg))
            }
        };
        slot_guard.publish(result);
        if let Some(ex) = ex {
            ex.cache_us += memo_span.elapsed_us();
        }
        my_result
    }

    /// Blocks on another request's in-flight computation of the same key.
    /// A waiter with its own deadline stops waiting when it expires — a
    /// short-budget request is never held hostage by a long-running leader.
    fn wait_for_leader(
        &self,
        slot: &InFlightSlot,
        deadline: Option<Deadline>,
    ) -> Result<(Computed, bool), String> {
        let mut result = sync::lock(&slot.result);
        loop {
            if let Some(published) = result.as_ref() {
                self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                return published.clone().map(|computed| (computed, true));
            }
            match deadline {
                None => result = sync::wait(&slot.ready, result),
                Some(d) => {
                    let remaining = d.remaining();
                    if remaining.is_zero() {
                        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                        return Ok((Computed::TimedOut, true));
                    }
                    result = sync::wait_timeout(&slot.ready, result, remaining);
                }
            }
        }
    }

    /// One direction `∪left ⊑ ∪right` as a Sagiv–Yannakakis walk over
    /// disjunct pairs, each decided in sequence through [`Engine::contained`]
    /// — so every pair verdict is memoized, coalesced, budgeted, certified
    /// (under `CERT`) and snapshotted exactly like a `CHECK`. A scalar
    /// request is the 1×1 walk. Returns `None` when a pair ran out of
    /// budget; pairs decided before that stay memoized.
    fn walk(
        &self,
        schema: Fingerprint,
        left: &Side,
        right: &Side,
        request: &Request,
        deadline: Option<Deadline>,
        mut ex: Option<&mut Explain>,
    ) -> Result<Option<Walk>, String> {
        co_core::union_type([&left.ty, &right.ty]).map_err(|e| e.to_string())?;
        let width = right.disjuncts.len();
        let mut pairs = vec![None; left.disjuncts.len() * width];
        let mut cached = true;
        // The error side is `None` for a timeout, `Some` for a failure.
        let walked = co_core::sagiv_yannakakis(left.disjuncts.len(), |j, decided| {
            let (fp1, p1) = &left.disjuncts[j];
            co_core::first_witness(width, decided, |i| {
                let (fp2, p2) = &right.disjuncts[i];
                let key = CacheKey { q1: *fp1, q2: *fp2, schema };
                let budget = &request.budget;
                match self.contained(key, p1, p2, budget, deadline, request.cert, ex.as_deref_mut())
                {
                    Ok((Computed::Done(entry), hit)) => {
                        cached &= hit;
                        let holds = entry.analysis.holds;
                        pairs[j * width + i] = Some(entry);
                        Ok(holds)
                    }
                    Ok((Computed::TimedOut, _)) => Err(None),
                    Err(e) => Err(Some(e)),
                }
            })
        });
        match walked {
            Ok(analysis) => Ok(Some(Walk { analysis, pairs, width, cached })),
            Err(None) => Ok(None),
            Err(Some(e)) => Err(e),
        }
    }

    /// Answers one request. The request's budget clock starts here, so the
    /// deadline covers preparation and every pair decision of every
    /// direction; the step budget applies per pair decision.
    pub fn decide(&self, request: &Request) -> Result<Decision, String> {
        self.decide_inner(request, None)
    }

    /// Answers one request and reports where the time went: the per-phase
    /// breakdown and kernel step counts of the `EXPLAIN` protocol prefix.
    /// The decision itself is identical to [`Engine::decide`] — explaining
    /// still hits the cache, coalesces, and memoizes like any request.
    pub fn decide_explained(&self, request: &Request) -> Result<(Decision, Explain), String> {
        let mut ex = Explain::default();
        let span = Span::start();
        let decision = self.decide_inner(request, Some(&mut ex))?;
        ex.total_us = span.elapsed_us();
        Ok((decision, ex))
    }

    fn decide_inner(
        &self,
        request: &Request,
        mut ex: Option<&mut Explain>,
    ) -> Result<Decision, String> {
        self.stats.decisions.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let deadline = request.budget.start();
        let schema_span = Span::start();
        let entry = self.resolve_schema(&request.schema)?;
        if let Some(ex) = ex.as_deref_mut() {
            ex.prepare_us += schema_span.elapsed_us();
        }
        let union = matches!(request.op, Op::UCheck | Op::UEquiv);
        let left = self.analyze(&entry, &request.q1, union, ex.as_deref_mut())?;
        let right = self.analyze(&entry, &request.q2, union, ex.as_deref_mut())?;
        if union {
            self.stats.union_decisions.fetch_add(1, Ordering::Relaxed);
        }
        let (fp1, fp2) = (left.fp, right.fp);
        let timed_out = || Ok(Decision::TimedOut { fp1, fp2, elapsed: start.elapsed() });
        let want_cert = request.cert;
        let Some(mut fwd) =
            self.walk(entry.fp, &left, &right, request, deadline, ex.as_deref_mut())?
        else {
            return timed_out();
        };
        let mut bwd = match request.op {
            Op::Check => {
                let pair = fwd.scalar();
                return Ok(Decision::Containment {
                    analysis: pair.analysis,
                    cached: fwd.cached,
                    fp1,
                    fp2,
                    cert: pair.cert.filter(|_| want_cert),
                });
            }
            Op::UCheck => {
                if fwd.cached {
                    self.stats.union_hits.fetch_add(1, Ordering::Relaxed);
                }
                let cert = if want_cert { Some(fwd.union_cert()?) } else { None };
                return Ok(Decision::Union {
                    disjuncts: (left.disjuncts.len(), right.disjuncts.len()),
                    analysis: fwd.analysis,
                    cached: fwd.cached,
                    fp1,
                    fp2,
                    cert,
                });
            }
            Op::Equiv | Op::UEquiv => {
                match self.walk(entry.fp, &right, &left, request, deadline, ex)? {
                    Some(bwd) => bwd,
                    None => return timed_out(),
                }
            }
        };
        let cached = fwd.cached && bwd.cached;
        if union {
            if cached {
                self.stats.union_hits.fetch_add(1, Ordering::Relaxed);
            }
            let (cert_forward, cert_backward) = if want_cert {
                (Some(fwd.union_cert()?), Some(bwd.union_cert()?))
            } else {
                (None, None)
            };
            return Ok(Decision::UnionEquivalence {
                forward: fwd.analysis.holds,
                backward: bwd.analysis.holds,
                cached,
                fp1,
                fp2,
                cert_forward,
                cert_backward,
            });
        }
        let (fwd, bwd) = (fwd.scalar(), bwd.scalar());
        let verdict = co_core::equivalence_verdict(
            &left.disjuncts[0].1,
            &right.disjuncts[0].1,
            fwd.analysis.holds,
            bwd.analysis.holds,
        );
        Ok(Decision::Equivalence {
            forward: fwd.analysis.holds,
            backward: bwd.analysis.holds,
            verdict,
            cached,
            fp1,
            fp2,
            cert_forward: fwd.cert.filter(|_| want_cert),
            cert_backward: bwd.cert.filter(|_| want_cert),
        })
    }

    /// Memo-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Live entry count per cache shard.
    pub fn cache_shard_sizes(&self) -> Vec<usize> {
        self.cache.shard_sizes()
    }

    /// Engine counters (decisions, coalescing, in-flight, latency).
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Number of distinct prepared queries currently shared (at most the
    /// memo capacity).
    pub fn prepared_count(&self) -> usize {
        self.prepared.stats().entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        let e = Engine::new(EngineConfig {
            cache_shards: 4,
            cache_per_shard: 64,
            ..EngineConfig::default()
        });
        e.register_schema("s", Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]));
        e
    }

    fn check(schema: &str, q1: &str, q2: &str) -> Request {
        Request::new(Op::Check, schema, q1, q2)
    }

    #[test]
    fn decisions_match_core_and_cache_by_canonical_form() {
        let e = engine();
        let r = check("s", "select x.B from x in R where x.A = 1", "select x.B from x in R");
        let Decision::Containment { analysis, cached, .. } = e.decide(&r).unwrap() else {
            panic!("expected containment decision");
        };
        assert!(analysis.holds);
        assert!(!cached);
        // α-renamed + reordered variant hits the same cache entry.
        let r2 = check("s", "select y.B from y in R where 1 = y.A", "select z.B from z in R");
        let Decision::Containment { analysis: a2, cached: c2, .. } = e.decide(&r2).unwrap() else {
            panic!("expected containment decision");
        };
        assert!(c2, "canonically-identical request must be a cache hit");
        assert_eq!(analysis, a2);
        assert_eq!(e.cache_stats().hits, 1);
    }

    #[test]
    fn equivalence_combines_directions() {
        let e = engine();
        let req = Request::new(
            Op::Equiv,
            "s",
            "select [a: x.A] from x in R",
            "select [a: y.A] from y in R",
        );
        let Decision::Equivalence { forward, backward, verdict, .. } = e.decide(&req).unwrap()
        else {
            panic!("expected equivalence decision");
        };
        assert!(forward && backward);
        assert_eq!(verdict, Equivalence::Equivalent);
    }

    #[test]
    fn unknown_schema_and_parse_errors_are_reported() {
        let e = engine();
        assert!(e.decide(&check("nope", "{1}", "{1}")).is_err());
        assert!(e.decide(&check("s", "select from", "{1}")).is_err());
        // Ill-typed: comparing a record to an atom.
        assert!(e
            .decide(&check("s", "select x from x in R where x = 1", "select x from x in R"))
            .is_err());
    }

    #[test]
    fn hostile_nesting_is_a_structured_toodeep_error() {
        let e = engine();
        let hostile = "{".repeat(100_000);
        let err = e.decide(&check("s", &hostile, "select x from x in R")).unwrap_err();
        assert!(err.starts_with("TOODEEP"), "{err}");
        let err = e.fingerprint("s", &hostile).unwrap_err();
        assert!(err.starts_with("TOODEEP"), "{err}");
        // A syntax error must not carry the TOODEEP marker.
        let err = e.decide(&check("s", "select from", "{1}")).unwrap_err();
        assert!(!err.starts_with("TOODEEP"), "{err}");
        // The engine still serves ordinary requests afterwards.
        assert!(e.decide(&check("s", "select x.B from x in R", "select x.B from x in R")).is_ok());
    }

    #[test]
    fn explain_reports_phases_and_kernel_steps() {
        let e = engine();
        let r = check("s", "select x.B from x in R where x.A = 1", "select x.B from x in R");
        let (decision, ex) = e.decide_explained(&r).unwrap();
        let Decision::Containment { cached, .. } = decision else {
            panic!("expected containment decision");
        };
        assert!(!cached);
        assert!(ex.total_us >= ex.kernel_us);
        assert!(ex.kernel_steps.total() > 0, "a computed decision runs kernels");
        assert!(ex.threads_used >= 1, "a computed decision engages at least one thread");
        let names: Vec<&str> = ex.phases().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["parse", "canonicalize", "fingerprint", "prepare", "cache", "kernel"]);
        // The same request again is a cache hit: no kernel work attributed.
        let (decision, ex2) = e.decide_explained(&r).unwrap();
        let Decision::Containment { cached, .. } = decision else {
            panic!("expected containment decision");
        };
        assert!(cached);
        assert_eq!(ex2.kernel_steps.total(), 0);
        assert_eq!(ex2.kernel_us, 0);
        // Explained decisions flow into the process-wide kernel totals.
        assert!(kernel::global_totals().total() > 0);
    }

    /// A prepared tree's text with its fresh variables (`ₑ<mint count>`)
    /// renamed `v0, v1, …` in order of first appearance: two
    /// normalizations of one query mint different counts but the same tree.
    fn alpha(p: &Prepared) -> String {
        let text = p.tree.to_string();
        let mut names: Vec<&str> = Vec::new();
        let mut out = String::new();
        let mut rest = text.as_str();
        while let Some(at) = rest.find('ₑ') {
            out.push_str(&rest[..at]);
            let tail = &rest[at + 'ₑ'.len_utf8()..];
            let digits = tail.find(|c: char| !c.is_ascii_digit()).unwrap_or(tail.len());
            let name = &rest[at..at + 'ₑ'.len_utf8() + digits];
            let index = names.iter().position(|n| *n == name).unwrap_or_else(|| {
                names.push(name);
                names.len() - 1
            });
            out.push_str(&format!("v{index}"));
            rest = &tail[digits..];
        }
        out.push_str(rest);
        out
    }

    #[test]
    fn prepared_from_the_normal_form_matches_core_prepare() {
        let e = engine();
        let entry = e.resolve_schema("s").unwrap();
        let sides = [
            // E13's flat and nested shapes, narrow and wide.
            "select o.B from o in R where o.A = 7 and o.B = o.B",
            "select o.B from o in R",
            "select [a: o.A, g: (select i.C from i in S where i.C = o.A and i.C = 7)] from o in R",
            "select [a: o.A, g: (select i.C from i in S where o.A = i.C)] from o in R",
            // E14: a union of filtered disjuncts.
            "select x.B from x in R where x.A = 3 or select y.B from y in R where 5 = y.A",
            // co-core's nested, possibly-empty and redundant-generator queries.
            "select [a: x.A, g: (select y.B from y in R where y.A = x.A and y.B = 10)] from x in R",
            "select [g: (select y.C from y in S where y.C = x.B)] from x in R",
            "select [a: x.A, g: (select y.B from y in R where y.A = x.A)] \
             from x in R, z in R where z.A = x.A",
            "flatten({R})",
            // The empty set and an unsatisfiable body.
            "{}",
            "select x.B from x in R where x.A = 1 and x.A = 2",
        ];
        for text in sides {
            let side = e.analyze(&entry, text, true, None).unwrap();
            let exprs = co_lang::parse_union_coql(text).unwrap();
            assert_eq!(side.disjuncts.len(), exprs.len(), "{text}");
            for ((_, engine), expr) in side.disjuncts.iter().zip(&exprs) {
                let core = co_core::prepare(expr, &entry.flat).unwrap();
                assert_eq!(alpha(engine), alpha(&core), "{text}");
                assert_eq!(engine.ty, core.ty, "{text}");
                assert_eq!(engine.empty_status, core.empty_status, "{text}");
                assert_eq!(engine.set_nodes, core.set_nodes, "{text}");
            }
        }
    }

    #[test]
    fn union_requests_memoize_their_pair_verdicts() {
        let e = engine();
        let u1 = "select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2";
        let u2 = "select y.B from y in R";
        let r = Request::new(Op::UCheck, "s", u1, u2);
        let Decision::Union { analysis, cached, disjuncts, .. } = e.decide(&r).unwrap() else {
            panic!("expected union decision");
        };
        assert!(analysis.holds);
        assert_eq!(disjuncts, (2, 1));
        assert!(!cached);
        assert_eq!(analysis.witnesses, vec![0, 0]);
        // Two pair verdicts, in the one scalar memo.
        assert_eq!(analysis.pairs_decided, 2);
        assert_eq!(e.cache_stats().entries, 2);
        // Permuted + α-renamed disjuncts decide the same pairs, all
        // memoized; the union fingerprint is order-invariant too.
        let flipped =
            "select z.B from z in R where z.A = 2 or select w.B from w in R where 1 = w.A";
        let r2 = Request::new(Op::UCheck, "s", flipped, u2);
        let Decision::Union { analysis: a2, cached: c2, .. } = e.decide(&r2).unwrap() else {
            panic!("expected union decision");
        };
        assert!(c2, "a union whose pairs are all memoized is a cache hit");
        assert_eq!(analysis.holds, a2.holds);
        assert_eq!(e.cache_stats().entries, 2);
        assert_eq!(e.stats().computed.load(Ordering::Relaxed), 2);
        assert_eq!(e.stats().union_hits.load(Ordering::Relaxed), 1);
        assert_eq!(e.stats().union_decisions.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn union_refutations_name_the_uncovered_disjunct() {
        let e = engine();
        let r = Request::new(
            Op::UCheck,
            "s",
            "select x.B from x in R where x.A = 1 or select x.B from x in R",
            "select y.B from y in R where y.A = 1 or select y.B from y in R where y.A = 2",
        );
        let Decision::Union { analysis, .. } = e.decide(&r).unwrap() else {
            panic!("expected union decision");
        };
        assert!(!analysis.holds);
        assert_eq!(analysis.refuted, Some(1), "the unrestricted disjunct is uncovered");
    }

    #[test]
    fn singleton_unions_share_the_scalar_pair_verdict() {
        let e = engine();
        let q = "select x.B from x in R where x.A = 1";
        let Decision::Containment { cached, .. } =
            e.decide(&check("s", q, "select y.B from y in R")).unwrap()
        else {
            panic!("expected containment decision");
        };
        assert!(!cached);
        // The same pair as a 1-disjunct union is the 1×1 walk over the
        // memoized pair: a hit with the same verdict. Only the reply's
        // union fingerprint differs from the scalar one.
        let r = Request::new(Op::UCheck, "s", q, "select y.B from y in R");
        let Decision::Union { analysis, cached, fp1, .. } = e.decide(&r).unwrap() else {
            panic!("expected union decision");
        };
        assert!(analysis.holds);
        assert!(cached, "a 1-disjunct union reuses the scalar pair verdict");
        assert_eq!(analysis.witnesses, vec![0]);
        assert_ne!(fp1, e.fingerprint("s", q).unwrap());
        assert_eq!(e.stats().computed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn uequiv_combines_both_union_directions() {
        let e = engine();
        let u1 = "select x.B from x in R where x.A = 1 or select x.B from x in R";
        let u2 = "select y.B from y in R";
        let r = Request::new(Op::UEquiv, "s", u1, u2);
        let Decision::UnionEquivalence { forward, backward, cached, .. } = e.decide(&r).unwrap()
        else {
            panic!("expected union equivalence decision");
        };
        // `(σ R) ∪ R ≡ R`: each side's disjuncts are covered by the other.
        assert!(forward && backward);
        assert!(!cached);
        // Both directions are now memoized: a repeat is fully cached.
        let Decision::UnionEquivalence { cached, .. } = e.decide(&r).unwrap() else {
            panic!("expected union equivalence decision");
        };
        assert!(cached);
    }

    #[test]
    fn union_cert_requests_attach_checkable_union_certificates() {
        let e = engine();
        let u1 = "select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2";
        let u2 = "select y.B from y in R";
        let r = Request::new(Op::UCheck, "s", u1, u2).with_cert(true);
        let Decision::Union { analysis, cert, .. } = e.decide(&r).unwrap() else {
            panic!("expected union decision");
        };
        assert!(analysis.holds);
        let wire = cert.expect("CERT UCHECK must attach a certificate");
        let parsed = co_cert::UnionCert::parse(&wire).unwrap();
        assert!(parsed.holds);
        assert_eq!(parsed.witnesses.len(), 2);
        // The cached certificate is re-checked server-side and served again.
        let Decision::Union { cached, cert, .. } = e.decide(&r).unwrap() else {
            panic!("expected union decision");
        };
        assert!(cached);
        assert!(cert.is_some());
        assert_eq!(e.stats().cert_rejected.load(Ordering::Relaxed), 0);
    }

    /// Trees of a union's disjuncts in the given source order, prepared
    /// independently of the engine.
    fn trees(union: &str) -> co_core::PreparedUnion {
        let schema = Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]);
        let exprs = co_lang::parse_union_coql(union).unwrap();
        co_core::prepare_union(&exprs, &schema).unwrap()
    }

    /// Checks a `COUNION1` block against unions prepared in the request's
    /// own disjunct order.
    fn check_union_cert(wire: &str, left: &str, right: &str, holds: bool) {
        let (l, r) = (trees(left), trees(right));
        let ltrees: Vec<_> = l.disjuncts.iter().map(|p| &p.tree).collect();
        let rtrees: Vec<_> = r.disjuncts.iter().map(|p| &p.tree).collect();
        let expect =
            |j: usize, i: usize| co_core::cert_path(co_core::expected_union_path(&l, &r, j, i));
        co_cert::UnionCert::parse(wire)
            .and_then(|cert| cert.check_against(&ltrees, &rtrees, holds, &expect))
            .unwrap_or_else(|e| panic!("{left} ⊑ {right}: {e}"));
    }

    #[test]
    fn permuted_union_certificates_follow_the_request_order() {
        let e = engine();
        let a = "select x.B from x in R where x.A = 1";
        let b = "select x.B from x in R where x.B = 2";
        let wide = "select y.B from y in R where y.A = 1 or select y.B from y in R where y.B = 2 \
                    or select y.B from y in R where y.A = 3";
        let mut expect_cached = false;
        for (left, witnesses) in [(format!("{a} or {b}"), [0, 1]), (format!("{b} or {a}"), [1, 0])]
        {
            let r = Request::new(Op::UCheck, "s", &left, wide).with_cert(true);
            let Decision::Union { analysis, cached, cert, .. } = e.decide(&r).unwrap() else {
                panic!("expected union decision");
            };
            assert_eq!(cached, expect_cached, "{left}");
            assert_eq!(analysis.witnesses, witnesses, "witnesses index this request's disjuncts");
            check_union_cert(&cert.unwrap(), &left, wide, true);
            expect_cached = true;
        }
        // A fresh right side: computed, refuted, and still in order.
        let narrow = "select y.B from y in R where y.A = 1";
        for left in [format!("{b} or {a}"), format!("{a} or {b}")] {
            let r = Request::new(Op::UCheck, "s", &left, narrow).with_cert(true);
            let Decision::Union { analysis, cert, .. } = e.decide(&r).unwrap() else {
                panic!("expected union decision");
            };
            assert!(!analysis.holds);
            let expected = if left.starts_with(b) { 0 } else { 1 };
            assert_eq!(analysis.refuted, Some(expected), "{left}");
            check_union_cert(&cert.unwrap(), &left, narrow, false);
        }
        assert_eq!(e.stats().cert_rejected.load(Ordering::Relaxed), 0);
    }
}
