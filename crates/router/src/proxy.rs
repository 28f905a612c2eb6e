//! The router proper: protocol front end, fingerprint routing, shedding,
//! health-driven failover, fleet `METRICS`, and warm handoff.
//!
//! The router speaks the same line protocol as coqld. `CHECK`/`EQUIV`
//! requests are fingerprinted locally with the exact canonicalization
//! pipeline the shards use for cache keys, routed by consistent hash of
//! `(schema fp, unordered query-fp pair)` — direction-invariant, so both
//! directions of an `EQUIV` and the mirrored `CHECK` colocate on one
//! shard's cache — and forwarded verbatim (budget prefixes intact).
//! `UCHECK`/`UEQUIV` route the same way over the *union* fingerprints
//! (order-invariant per side), so permuted, duplicated, or α-renamed
//! unions land on the shard that already memoized the verdict. `AGG` and
//! `NEST` have no router-side parser; they route on a hash of their
//! request text and take the same forward path.
//! Parse/type errors are answered locally without burning a shard
//! round-trip; `ERR OVERLOADED` and connect failures shed to the next
//! ring sibling under a bounded retry budget.

use std::collections::HashMap;
use std::io::{self, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use co_lang::CoqlSchema;
use co_service::wire::{self, Cmd, Conn, Framing, Side, Verb};
use co_service::{
    canonical_fingerprint, canonical_union_fingerprint, fingerprint_schema, from_hex,
    parse_schema_decl, peek_header, read_bounded_line, write_line, Fingerprint, LineRead, Shutdown,
    FINGERPRINT_VERSION, FORMAT_VERSION,
};
use co_trace::Span;

use crate::backoff::JitteredBackoff;
use crate::health::{apply_probe, probe, Admission, BreakerConfig, ShardState, Transition};
use crate::metrics::{aggregate, inject_shard_label};
use crate::pool::{Checkout, PoolConfig, PooledConn};
use crate::ring::{hash64, Ring};

/// Hedges allowed above the steady-state rate cap: a small burst so the
/// very first slow requests of a session can still hedge before enough
/// decisions have accumulated to fund the permille budget.
const HEDGE_BURST: u64 = 4;

/// Router knobs.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Virtual nodes per shard on the consistent-hash ring.
    pub replicas: usize,
    /// How often each shard is health-probed.
    pub probe_interval: Duration,
    /// Hard failures inside [`RouterConfig::breaker_window`] before a
    /// shard's circuit breaker opens (probe and forward failures both
    /// count).
    pub down_after: usize,
    /// Extra forward attempts after the first (shed-to-sibling budget).
    pub retry_budget: usize,
    /// Replica-set size: the ring owner plus its next `replication - 1`
    /// siblings may all answer a key (verdicts are deterministic, so
    /// replication needs no coordination). 1 = owner-only routing.
    pub replication: usize,
    /// Fire a hedge at the next healthy replica when the primary has not
    /// answered within this long. `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Steady-state hedge budget in hedges-per-1000-decisions (plus a
    /// small fixed burst), so fleet-wide slowness cannot make hedges
    /// double every request.
    pub hedge_cap_permille: u64,
    /// Sliding window over which breaker failures are counted.
    pub breaker_window: Duration,
    /// How long an opened breaker rejects before admitting one trial.
    pub breaker_open_for: Duration,
    /// Cap on the open interval as failed trials double it.
    pub breaker_max_open: Duration,
    /// Bound on each shard dial.
    pub connect_timeout: Duration,
    /// Reply wait for a forwarded request that carries no `TIMEOUT`
    /// prefix (requests with one wait `TIMEOUT + slack` instead).
    pub forward_timeout: Duration,
    /// Client-side read timeout (idle clients are closed).
    pub read_timeout: Option<Duration>,
    /// Client-side write timeout.
    pub write_timeout: Option<Duration>,
    /// Longest accepted client request line.
    pub max_line_bytes: usize,
    /// Concurrent client connections; excess is shed `ERR OVERLOADED`.
    pub max_connections: usize,
    /// Connections allowed to exist per shard pool.
    pub pool_max_live: usize,
    /// Warm connections kept per shard pool.
    pub pool_max_idle: usize,
    /// Parser nesting cap for local fingerprinting (mirrors the shards').
    pub max_parse_depth: usize,
    /// How long a drain waits for in-flight client connections.
    pub drain_timeout: Duration,
    /// Whether `SHUTDOWN` is honored.
    pub allow_shutdown: bool,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            replicas: 64,
            probe_interval: Duration::from_secs(1),
            down_after: 3,
            retry_budget: 2,
            replication: 1,
            hedge_after: None,
            hedge_cap_permille: 100,
            breaker_window: Duration::from_secs(10),
            breaker_open_for: Duration::from_secs(1),
            breaker_max_open: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(1),
            forward_timeout: Duration::from_secs(30),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            max_line_bytes: 64 * 1024,
            max_connections: 256,
            pool_max_live: 16,
            pool_max_idle: 8,
            max_parse_depth: co_lang::parse::DEFAULT_MAX_DEPTH,
            drain_timeout: Duration::from_secs(5),
            allow_shutdown: false,
        }
    }
}

impl RouterConfig {
    /// The per-shard breaker parameters this config implies.
    pub fn breaker_config(&self) -> BreakerConfig {
        BreakerConfig {
            failure_threshold: self.down_after.max(1),
            window: self.breaker_window,
            open_for: self.breaker_open_for,
            max_open_for: self.breaker_max_open.max(self.breaker_open_for),
        }
    }
}

/// Router-side counters, exposed through `STATS` and `METRICS`.
#[derive(Default)]
struct RouterStats {
    routed: AtomicU64,
    shed: AtomicU64,
    retries: AtomicU64,
    /// Poisoned reused connections replaced by a fresh dial mid-attempt
    /// (stale socket from before a shard restart, or a corrupted reply).
    redials: AtomicU64,
    shard_down: AtomicU64,
    handoffs: AtomicU64,
    probe_failures: AtomicU64,
    accepted: AtomicU64,
    client_shed: AtomicU64,
    conn_panics: AtomicU64,
    local_errors: AtomicU64,
    /// Decision requests (`CHECK`/`EQUIV`/`UCHECK`/`UEQUIV`/`AGG`/`NEST`)
    /// that reached the forward path (the denominator of the hedge rate
    /// cap).
    decision_requests: AtomicU64,
    /// Hedge attempts fired (reserved against the rate cap).
    hedges: AtomicU64,
    /// Decisions where the hedge's answer arrived before the primary's.
    hedge_wins: AtomicU64,
    /// Hedges suppressed by the rate cap.
    hedges_capped: AtomicU64,
}

/// A schema as the router knows it: the registration text (re-pushed to
/// recovering shards) plus the canonicalization inputs.
struct SchemaEntry {
    decl: String,
    coql: CoqlSchema,
    fp: Fingerprint,
}

/// The shard set and its ring, swapped atomically on membership change
/// (handoff). Down shards stay in the ring — candidates just skip them —
/// so a recovering shard reclaims exactly its old keys.
struct Fleet {
    shards: Vec<Arc<ShardState>>,
    ring: Ring,
}

/// The routing proxy. Cheap to share across connection threads.
pub struct Router {
    config: RouterConfig,
    fleet: RwLock<Fleet>,
    schemas: RwLock<HashMap<String, Arc<SchemaEntry>>>,
    stats: RouterStats,
    shutdown: Shutdown,
    started: Instant,
}

enum Reply {
    None,
    Line(String),
    Quit,
    Shutdown,
}

impl Router {
    /// A router over a static shard membership (extend it at runtime with
    /// the `HANDOFF` verb).
    pub fn new(shard_addrs: &[String], config: RouterConfig) -> Arc<Router> {
        let pool_config = PoolConfig {
            max_live: config.pool_max_live,
            max_idle: config.pool_max_idle,
            connect_timeout: config.connect_timeout,
            io_timeout: Some(config.forward_timeout),
        };
        let breaker = config.breaker_config();
        let shards: Vec<Arc<ShardState>> =
            shard_addrs.iter().map(|a| ShardState::new(a, pool_config, breaker)).collect();
        let ring = Ring::build(shard_addrs, config.replicas);
        Arc::new(Router {
            config,
            fleet: RwLock::new(Fleet { shards, ring }),
            schemas: RwLock::new(HashMap::new()),
            stats: RouterStats::default(),
            shutdown: Shutdown::new(),
            started: Instant::now(),
        })
    }

    /// Handle for stopping [`serve_router_with_shutdown`] externally.
    pub fn shutdown_handle(&self) -> Shutdown {
        self.shutdown.clone()
    }

    /// Current shard addresses (ring order is irrelevant; this is
    /// membership order).
    pub fn shard_addrs(&self) -> Vec<String> {
        read(&self.fleet).shards.iter().map(|s| s.addr.clone()).collect()
    }

    fn pool_config(&self) -> PoolConfig {
        PoolConfig {
            max_live: self.config.pool_max_live,
            max_idle: self.config.pool_max_idle,
            connect_timeout: self.config.connect_timeout,
            io_timeout: Some(self.config.forward_timeout),
        }
    }

    /// Registers a schema locally and broadcasts it to every up shard.
    /// Shards receive a one-line rendering of the parsed schema, so a
    /// multi-line declaration (a `--schema` file) reaches them whole.
    /// Returns `(fp, relations, acked, shard count)`.
    pub fn register_schema(
        &self,
        name: &str,
        decl: &str,
    ) -> Result<(Fingerprint, usize, usize, usize), String> {
        let flat = parse_schema_decl(decl)?;
        let relations = flat.len();
        let fp = fingerprint_schema(&flat);
        let one_line: Vec<String> = flat
            .iter()
            .map(|rel| {
                let attrs: Vec<String> = rel.attrs.iter().map(|a| a.name()).collect();
                format!("{}({})", rel.name.name(), attrs.join(", "))
            })
            .collect();
        let entry = Arc::new(SchemaEntry {
            decl: one_line.join("; "),
            coql: CoqlSchema::from_flat(&flat),
            fp,
        });
        write(&self.schemas).insert(name.to_string(), entry);
        let shards = read(&self.fleet).shards.clone();
        let total = shards.len();
        let mut acked = 0;
        for shard in &shards {
            if shard.is_up() && self.push_schemas(shard).is_ok() {
                acked += 1;
            }
        }
        Ok((fp, relations, acked, total))
    }

    /// Pushes every registered schema to one shard over a one-shot
    /// control connection (boot, recovery, restart, handoff join).
    fn push_schemas(&self, shard: &ShardState) -> Result<(), String> {
        let entries: Vec<(String, String)> =
            read(&self.schemas).iter().map(|(name, e)| (name.clone(), e.decl.clone())).collect();
        if entries.is_empty() {
            return Ok(());
        }
        let mut conn = shard.pool.dial_oneshot().map_err(|e| e.to_string())?;
        for (name, decl) in entries {
            let reply =
                conn.request(&format!("SCHEMA {name} {decl}")).map_err(|e| e.to_string())?;
            if !reply.starts_with("OK") {
                return Err(format!("shard {} rejected schema {name}: {reply}", shard.addr));
            }
        }
        let _ = conn.send_line("QUIT");
        Ok(())
    }

    /// The direction-invariant route key: hash of the schema fingerprint
    /// and the *unordered* query-fingerprint pair, so `CHECK a ;; b`,
    /// `CHECK b ;; a`, and both directions of `EQUIV` land on the same
    /// shard and share its memo cache.
    fn route_key(schema_fp: Fingerprint, fp1: Fingerprint, fp2: Fingerprint) -> u64 {
        let (lo, hi) = if fp1.0 <= fp2.0 { (fp1, fp2) } else { (fp2, fp1) };
        let mut bytes = [0u8; 48];
        bytes[..16].copy_from_slice(&schema_fp.0.to_be_bytes());
        bytes[16..32].copy_from_slice(&lo.0.to_be_bytes());
        bytes[32..].copy_from_slice(&hi.0.to_be_bytes());
        hash64(&bytes)
    }

    /// Every shard in ring preference order for a key. The first
    /// [`RouterConfig::replication`] entries are the key's replica set
    /// (hedge targets); entries past it are failover-only. Breakers are
    /// consulted per attempt, not here — a shard can reclose between
    /// routing and launching.
    fn candidates(&self, key: u64) -> Vec<Arc<ShardState>> {
        let fleet = read(&self.fleet);
        fleet.ring.candidates(key).into_iter().map(|i| Arc::clone(&fleet.shards[i])).collect()
    }

    /// Forwards one `CHECK`/`EQUIV`/`UCHECK`/`UEQUIV` line. `original` is
    /// the full request line (budget prefixes intact) and `request` its
    /// parse; `union` selects the union-fingerprint pipeline for the
    /// route key.
    ///
    /// The first [`RouterConfig::replication`] ring candidates form the
    /// key's replica set — determinism means any member's answer is THE
    /// answer, so replication costs no coordination, only cache heat.
    /// With hedging enabled the primary gets
    /// [`RouterConfig::hedge_after`] to answer before a rate-capped
    /// hedge fires at the next admitted replica; without it, candidates
    /// are tried sequentially under the retry budget. Per-shard circuit
    /// breakers gate every launch.
    fn forward_decision(
        self: &Arc<Router>,
        original: &str,
        request: &wire::Parsed<'_>,
        union: bool,
    ) -> Result<String, String> {
        let route_span = Span::start();
        let (schema_name, q1, q2) = request.verb.split_pair(request.rest)?;
        let entry = read(&self.schemas).get(schema_name).cloned().ok_or_else(|| {
            format!("unknown schema `{schema_name}` (register it with SCHEMA first)")
        })?;
        // Local canonicalization: parse/type errors are answered here,
        // identically to a shard, without spending a forward. Union
        // requests fingerprint each side order-invariantly so every
        // rendering of one union pair routes to the shard whose memo holds
        // its disjunct-pair verdicts.
        let fingerprint = |q: &str| {
            if union {
                canonical_union_fingerprint(&entry.coql, q, self.config.max_parse_depth)
            } else {
                canonical_fingerprint(&entry.coql, q, self.config.max_parse_depth)
            }
        };
        let fp1 = fingerprint(q1).map_err(|e| self.local_error(e))?;
        let fp2 = fingerprint(q2).map_err(|e| self.local_error(e))?;
        let key = Router::route_key(entry.fp, fp1, fp2);
        let route_us = route_span.elapsed_us();
        let (win, shard, forward_us) = self.forward_keyed(key, original, request)?;
        let mut reply = win.reply;
        if request.prefixes.explain && reply.ends_with("END") {
            // Splice the router's own phases in before END.
            reply.truncate(reply.len() - "END".len());
            reply.push_str(&format!(
                "explain.router.route_us {route_us}\n\
                 explain.router.forward_us {forward_us}\n\
                 explain.router.attempts {}\n\
                 explain.router.hedged {}\n\
                 explain.router.shard {}\nEND",
                win.launched, win.hedged as u8, shard.addr
            ));
        }
        Ok(reply)
    }

    /// Forwards `original` (parsed as `request`) to the ring candidates of
    /// `key` — sequentially or hedged, per [`RouterConfig::hedge_after`] —
    /// and returns the winning reply with the shard that gave it and the
    /// forward time.
    fn forward_keyed(
        self: &Arc<Router>,
        key: u64,
        original: &str,
        request: &wire::Parsed<'_>,
    ) -> Result<(ForwardWin, Arc<ShardState>, u64), String> {
        let candidates = self.candidates(key);
        let total = candidates.len();
        if total == 0 {
            return Err("UNAVAILABLE the fleet is empty".to_string());
        }
        if !candidates.iter().any(|s| s.is_up()) {
            return Err(format!("UNAVAILABLE no shard is up (0/{total})"));
        }
        self.stats.decision_requests.fetch_add(1, Ordering::Relaxed);

        let reply_wait = match request.prefixes.timeout(None) {
            // The shard should answer ERR DEADLINE itself; the slack only
            // covers transit so a hung shard cannot hold the client.
            Some(timeout) => timeout + Duration::from_millis(500),
            None => self.config.forward_timeout,
        };
        let framing = request.framing();
        let forward_span = Span::start();
        let won = match self.config.hedge_after {
            None => self.forward_sequential(&candidates, original, framing, reply_wait, key),
            Some(after) => self.forward_hedged(&candidates, original, framing, reply_wait, after),
        };
        match won {
            Ok(win) => {
                self.stats.routed.fetch_add(1, Ordering::Relaxed);
                let shard = Arc::clone(&candidates[win.idx]);
                shard.forwarded.fetch_add(1, Ordering::Relaxed);
                let forward_us = forward_span.elapsed_us();
                shard.forward_latency.observe(forward_us);
                Ok((win, shard, forward_us))
            }
            Err(launched) => Err(format!(
                "UNAVAILABLE {launched} forward attempt(s) failed across {total} shard(s), \
                 retry later"
            )),
        }
    }

    /// Sequential forwarding (hedging disabled): scan candidates in ring
    /// order, launch each shard whose breaker admits, stop at the first
    /// answer. Between full passes a seeded jittered backoff breathes so
    /// half-open trials can resolve — and so a thundering herd of
    /// synchronized clients decorrelates instead of re-colliding.
    fn forward_sequential(
        &self,
        candidates: &[Arc<ShardState>],
        line: &str,
        framing: Framing,
        reply_wait: Duration,
        key: u64,
    ) -> Result<ForwardWin, usize> {
        let max_launches = 1 + self.config.retry_budget;
        let mut backoff =
            JitteredBackoff::new(key, Duration::from_millis(10), Duration::from_millis(200));
        let mut launched = 0;
        for pass in 0..max_launches {
            if pass > 0 {
                thread::sleep(backoff.next_delay());
            }
            for (idx, shard) in candidates.iter().enumerate() {
                if launched >= max_launches {
                    return Err(launched);
                }
                if shard.breaker.admit() == Admission::No {
                    continue;
                }
                launched += 1;
                if launched > 1 {
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                }
                match self.attempt_one(shard, line, framing, reply_wait) {
                    ForwardOutcome::Answered(reply) => {
                        return Ok(ForwardWin { reply, idx, launched, hedged: false });
                    }
                    ForwardOutcome::Shed | ForwardOutcome::Failed => {
                        self.stats.shed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            if launched >= max_launches {
                break;
            }
        }
        Err(launched)
    }

    /// Hedged forwarding: launch the primary (first admitted candidate),
    /// and if it has not answered within `hedge_after`, fire one
    /// rate-capped hedge at the next admitted *replica-set* member; the
    /// first valid answer wins and the loser's reply is discarded when
    /// its thread finds the channel gone. Failures (as opposed to
    /// slowness) fail over immediately to the next candidate — past the
    /// replica set if need be — as retries, not hedges.
    fn forward_hedged(
        self: &Arc<Router>,
        candidates: &[Arc<ShardState>],
        line: &str,
        framing: Framing,
        reply_wait: Duration,
        hedge_after: Duration,
    ) -> Result<ForwardWin, usize> {
        let replica_n = self.config.replication.clamp(1, candidates.len());
        let max_launches = (1 + self.config.retry_budget).max(replica_n);
        let (tx, rx) = mpsc::channel::<(bool, usize, ForwardOutcome)>();
        let deadline = Instant::now() + reply_wait;

        // Launches the next admitted candidate at or past `*next`;
        // hedges stay inside the replica set (they chase tail latency on
        // a warm cache — leaving the set is the failover path's job).
        let launch = |next: &mut usize, hedge: bool| -> bool {
            let limit = if hedge { replica_n } else { candidates.len() };
            while *next < limit {
                let idx = *next;
                *next += 1;
                if candidates[idx].breaker.admit() == Admission::No {
                    continue;
                }
                let router = Arc::clone(self);
                let shard = Arc::clone(&candidates[idx]);
                let line = line.to_string();
                let tx = tx.clone();
                thread::spawn(move || {
                    let outcome = router.attempt_one(&shard, &line, framing, reply_wait);
                    let _ = tx.send((hedge, idx, outcome));
                });
                return true;
            }
            false
        };

        let mut next = 0usize;
        if !launch(&mut next, false) {
            return Err(0); // every candidate's breaker is open
        }
        let mut launched = 1usize;
        let mut in_flight = 1usize;
        let mut hedged = false;
        let mut hedge_at = Some(Instant::now() + hedge_after);
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(launched);
            }
            let wake = match hedge_at {
                Some(h) if h < deadline => h,
                _ => deadline,
            };
            let wait = wake.saturating_duration_since(now).max(Duration::from_millis(1));
            match rx.recv_timeout(wait) {
                Ok((was_hedge, idx, ForwardOutcome::Answered(reply))) => {
                    if was_hedge {
                        self.stats.hedge_wins.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(ForwardWin { reply, idx, launched, hedged });
                }
                Ok((_, _, ForwardOutcome::Shed | ForwardOutcome::Failed)) => {
                    self.stats.shed.fetch_add(1, Ordering::Relaxed);
                    in_flight -= 1;
                    if in_flight == 0 {
                        // Everything launched so far failed outright:
                        // fail over to the next candidate immediately.
                        if launched >= max_launches || !launch(&mut next, false) {
                            return Err(launched);
                        }
                        launched += 1;
                        in_flight += 1;
                        self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if hedge_at.is_some_and(|h| Instant::now() >= h) {
                        hedge_at = None; // at most one hedge per request
                        if launched < max_launches && self.try_reserve_hedge() {
                            if launch(&mut next, true) {
                                hedged = true;
                                launched += 1;
                                in_flight += 1;
                            } else {
                                // No admissible replica to hedge at:
                                // release the reserved budget.
                                self.stats.hedges.fetch_sub(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return Err(launched),
            }
        }
    }

    /// Reserves one hedge against the rate cap, or refuses. The budget is
    /// `decisions · cap‰ + HEDGE_BURST`; the compare-exchange loop keeps
    /// concurrent reservations from overshooting it.
    fn try_reserve_hedge(&self) -> bool {
        let decisions = self.stats.decision_requests.load(Ordering::Relaxed);
        let budget = decisions
            .saturating_mul(self.config.hedge_cap_permille)
            .saturating_add(HEDGE_BURST * 1000);
        loop {
            let hedges = self.stats.hedges.load(Ordering::Relaxed);
            if (hedges + 1).saturating_mul(1000) > budget {
                self.stats.hedges_capped.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            if self
                .stats
                .hedges
                .compare_exchange(hedges, hedges + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// One forward attempt against one shard, including the
    /// reused-connection redial and the unknown-schema heal, reporting
    /// the outcome to the shard's breaker. `framing` is the request's
    /// resolved reply framing.
    fn attempt_one(
        &self,
        shard: &Arc<ShardState>,
        line: &str,
        framing: Framing,
        reply_wait: Duration,
    ) -> ForwardOutcome {
        shard.attempts.fetch_add(1, Ordering::Relaxed);
        let (mut redialed, mut healed) = (false, false);
        loop {
            let mut pooled = match shard.pool.checkout() {
                Checkout::Conn(conn) => conn,
                // A full pool is this router's own limit, not evidence
                // about the shard: shed without charging the breaker.
                Checkout::Exhausted => return ForwardOutcome::Shed,
                Checkout::ConnectFailed(_) => {
                    self.note_shard_failure(shard);
                    return ForwardOutcome::Failed;
                }
            };
            let reused = pooled.reused();
            match self.exchange(&mut pooled, line, framing, reply_wait) {
                Ok(Exchange::Reply(reply)) => {
                    pooled.put_back();
                    shard.breaker.record_success();
                    return ForwardOutcome::Answered(reply);
                }
                Ok(Exchange::Overloaded) => {
                    // The shard is healthy enough to answer; keep the
                    // connection warm and shed to a sibling. Overload is
                    // proof of life, not failure — opening on it would
                    // amplify the overload.
                    pooled.put_back();
                    shard.breaker.record_success();
                    return ForwardOutcome::Shed;
                }
                Ok(Exchange::UnknownSchema(reply)) => {
                    shard.breaker.record_success();
                    if healed {
                        // The shard holds every schema this router knows,
                        // so the router does not know this one either: the
                        // shard's answer is the answer.
                        pooled.put_back();
                        return ForwardOutcome::Answered(reply);
                    }
                    // The shard missed a broadcast (it was down or just
                    // joined); heal it and retry once on the same shard —
                    // affinity is worth one extra round-trip.
                    drop(pooled);
                    if self.push_schemas(shard).is_ok() {
                        healed = true;
                        continue;
                    }
                    return ForwardOutcome::Shed;
                }
                Err(_) => {
                    // I/O failure, oversized line or garbled reply: the
                    // connection is poisoned, drop it. A *reused*
                    // connection may just have been a stale socket from
                    // before a shard restart — one fresh dial decides.
                    drop(pooled);
                    if reused && !redialed {
                        redialed = true;
                        self.stats.redials.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    self.note_shard_failure(shard);
                    return ForwardOutcome::Failed;
                }
            }
        }
    }

    /// Feeds one hard failure into a shard's breaker; if that opens it,
    /// drain the shard exactly as a probe-detected death would.
    fn note_shard_failure(&self, shard: &ShardState) {
        if shard.breaker.record_failure() {
            shard.pool.drain_idle();
            shard.last_uptime.store(u64::MAX, Ordering::Relaxed);
            self.stats.shard_down.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sends the line and reads the complete reply (multi-line under
    /// `EXPLAIN`/`CERT`-on-OK, rejoined with `\n` and `END` kept).
    /// Certificate blocks pass through byte-for-byte — the router never
    /// parses or re-signs them, so a client's `co-cert` check covers the
    /// whole path back to the shard that computed the verdict.
    fn exchange(
        &self,
        pooled: &mut PooledConn,
        line: &str,
        framing: Framing,
        reply_wait: Duration,
    ) -> io::Result<Exchange> {
        let conn = pooled.conn();
        conn.set_read_timeout(Some(reply_wait))?;
        conn.send_line(line)?;
        let reply = conn.read_reply(framing)?;
        // Every coqld reply starts `OK` or `ERR`; anything else means the
        // bytes were corrupted in flight (or the peer is not a coqld).
        // Treat it as a poisoned connection, never as an answer —
        // forwarding it could hand the client a wrong verdict.
        if !(reply.starts_with("OK") || reply.starts_with("ERR")) {
            let head: String = reply.chars().take(40).collect();
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("garbled reply from shard: `{head}`"),
            ));
        }
        if reply.starts_with("ERR OVERLOADED") {
            return Ok(Exchange::Overloaded);
        }
        if reply.starts_with("ERR unknown schema") {
            return Ok(Exchange::UnknownSchema(reply));
        }
        Ok(Exchange::Reply(reply))
    }

    fn local_error(&self, message: String) -> String {
        self.stats.local_errors.fetch_add(1, Ordering::Relaxed);
        message
    }

    /// `FINGERPRINT <schema> <query>`, computed locally — byte-identical
    /// to what any shard would answer, since both run the same pipeline.
    fn fingerprint_local(&self, verb: &Verb, rest: &str) -> Result<String, String> {
        let (schema_name, query) = verb.split_head(rest)?;
        let entry = read(&self.schemas).get(schema_name).cloned().ok_or_else(|| {
            format!("unknown schema `{schema_name}` (register it with SCHEMA first)")
        })?;
        let fp = canonical_fingerprint(&entry.coql, query, self.config.max_parse_depth)
            .map_err(|e| self.local_error(e))?;
        Ok(format!("OK fp={fp}"))
    }

    /// The router's `STATS` payload.
    fn render_stats(&self) -> String {
        let fleet = read(&self.fleet);
        let up = fleet.shards.iter().filter(|s| s.is_up()).count();
        let mut out = String::new();
        let mut put = |k: &str, v: String| {
            out.push_str(k);
            out.push(' ');
            out.push_str(&v);
            out.push('\n');
        };
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed).to_string();
        put("uptime_seconds", self.started.elapsed().as_secs().to_string());
        put("build.format_version", FORMAT_VERSION.to_string());
        put("build.fingerprint_version", FINGERPRINT_VERSION.to_string());
        put("router.routed", load(&self.stats.routed));
        put("router.shed", load(&self.stats.shed));
        put("router.retries", load(&self.stats.retries));
        put("router.redials", load(&self.stats.redials));
        put("router.decision_requests", load(&self.stats.decision_requests));
        put("router.hedges", load(&self.stats.hedges));
        put("router.hedge_wins", load(&self.stats.hedge_wins));
        put("router.hedges_capped", load(&self.stats.hedges_capped));
        put("router.replication", self.config.replication.to_string());
        put("router.shard_down_events", load(&self.stats.shard_down));
        put("router.handoffs", load(&self.stats.handoffs));
        put("router.probe_failures", load(&self.stats.probe_failures));
        put("router.local_errors", load(&self.stats.local_errors));
        put("router.accepted", load(&self.stats.accepted));
        put("router.client_shed", load(&self.stats.client_shed));
        put("router.conn_panics", load(&self.stats.conn_panics));
        put("router.shards", fleet.shards.len().to_string());
        put("router.shards_up", up.to_string());
        put("router.schemas", read(&self.schemas).len().to_string());
        out.push_str("END");
        out
    }

    /// The `SHARDS` payload: one line of `key=value` pairs per shard.
    fn render_shards(&self) -> String {
        let fleet = read(&self.fleet);
        let mut out = String::new();
        for s in &fleet.shards {
            let uptime = match s.last_uptime.load(Ordering::Relaxed) {
                u64::MAX => -1i64,
                v => v as i64,
            };
            out.push_str(&format!(
                "{} up={} state={} failures={} uptime_seconds={uptime} restarts={} skew={} \
                 attempts={} forwarded={} pool_live={}\n",
                s.addr,
                s.is_up(),
                s.breaker.state().name(),
                s.breaker.window_failures(),
                s.restarts.load(Ordering::Relaxed),
                s.version_skew.load(Ordering::Relaxed),
                s.attempts.load(Ordering::Relaxed),
                s.forwarded.load(Ordering::Relaxed),
                s.pool.live(),
            ));
        }
        out.push_str("END");
        out
    }

    /// The fleet `METRICS` payload: every up shard's exposition merged
    /// (summed counters + per-shard `shard=` labels) plus the router's
    /// own families, ending `# EOF`.
    fn render_metrics(&self) -> String {
        let shards = read(&self.fleet).shards.clone();
        let mut scrapes: Vec<(String, String)> = Vec::new();
        for shard in shards.iter().filter(|s| s.is_up()) {
            if let Ok(text) = scrape_shard(shard) {
                scrapes.push((shard.addr.clone(), text));
            }
        }
        let mut out = aggregate(&scrapes);
        // Splice the router families in before the trailer.
        out.truncate(out.len() - "# EOF".len());
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"));
        };
        counter("router_routed_total", "Requests forwarded and answered", load(&self.stats.routed));
        counter(
            "router_shed_total",
            "Forward attempts shed to a sibling (overload, exhausted pool, connect failure)",
            load(&self.stats.shed),
        );
        counter(
            "router_retries_total",
            "Forward attempts after the first",
            load(&self.stats.retries),
        );
        counter(
            "router_redials_total",
            "Poisoned reused connections replaced by a fresh dial mid-attempt",
            load(&self.stats.redials),
        );
        counter(
            "router_shard_down_total",
            "Times a shard crossed the failure threshold and was drained",
            load(&self.stats.shard_down),
        );
        counter("router_handoffs_total", "Warm shard joins completed", load(&self.stats.handoffs));
        counter(
            "router_probe_failures_total",
            "Health probes that failed",
            load(&self.stats.probe_failures),
        );
        counter(
            "router_decision_requests_total",
            "Decision requests (CHECK/EQUIV/UCHECK/UEQUIV/AGG/NEST) that reached the forward path",
            load(&self.stats.decision_requests),
        );
        counter(
            "router_hedges_total",
            "Hedge attempts fired after the primary stayed silent past the hedge delay",
            load(&self.stats.hedges),
        );
        counter(
            "router_hedge_wins_total",
            "Decisions where the hedge answered before the primary",
            load(&self.stats.hedge_wins),
        );
        counter(
            "router_hedges_capped_total",
            "Hedges suppressed by the rate cap",
            load(&self.stats.hedges_capped),
        );
        counter(
            "router_local_errors_total",
            "Requests answered locally with an error (parse/type/unknown schema)",
            load(&self.stats.local_errors),
        );
        out.push_str("# HELP router_shard_up Shard routable right now (1) or drained (0)\n");
        out.push_str("# TYPE router_shard_up gauge\n");
        for s in &shards {
            out.push_str(&format!(
                "{} {}\n",
                inject_shard_label("router_shard_up", &s.addr),
                s.is_up() as u8
            ));
        }
        out.push_str(
            "# HELP router_shard_state Circuit-breaker state per shard \
             (0=closed, 1=half-open, 2=open)\n",
        );
        out.push_str("# TYPE router_shard_state gauge\n");
        for s in &shards {
            out.push_str(&format!(
                "{} {}\n",
                inject_shard_label("router_shard_state", &s.addr),
                s.breaker.state().as_gauge()
            ));
        }
        out.push_str(
            "# HELP router_breaker_transitions_total Breaker transitions per shard by kind\n",
        );
        out.push_str("# TYPE router_breaker_transitions_total counter\n");
        for s in &shards {
            for (kind, count) in [
                ("open", &s.breaker.opened),
                ("half_open", &s.breaker.half_opened),
                ("close", &s.breaker.closed),
            ] {
                out.push_str(&format!(
                    "router_breaker_transitions_total{{shard=\"{}\",transition=\"{kind}\"}} {}\n",
                    s.addr,
                    count.load(Ordering::Relaxed)
                ));
            }
        }
        out.push_str("# HELP router_forwarded_total Requests answered by each shard\n");
        out.push_str("# TYPE router_forwarded_total counter\n");
        for s in &shards {
            out.push_str(&format!(
                "{} {}\n",
                inject_shard_label("router_forwarded_total", &s.addr),
                s.forwarded.load(Ordering::Relaxed)
            ));
        }
        out.push_str("# HELP router_forward_latency_us Forward latency by shard\n");
        out.push_str("# TYPE router_forward_latency_us summary\n");
        for s in &shards {
            let h = &s.forward_latency;
            for (q, tag) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "router_forward_latency_us{{shard=\"{}\",quantile=\"{tag}\"}} {}\n",
                    s.addr,
                    h.quantile(q)
                ));
            }
            out.push_str(&format!(
                "router_forward_latency_us_sum{{shard=\"{}\"}} {}\n",
                s.addr,
                h.sum()
            ));
            out.push_str(&format!(
                "router_forward_latency_us_count{{shard=\"{}\"}} {}\n",
                s.addr,
                h.count()
            ));
        }
        out.push_str("# EOF");
        out
    }

    /// `HANDOFF <addr>`: verify the joining shard's build, push schemas,
    /// ship it the warmest donor's `COQLSNP1` snapshot (version-gated at
    /// both ends), then add it to the ring.
    fn handoff(&self, verb: &Verb, addr: &str) -> Result<String, String> {
        if addr.is_empty() {
            return Err(verb.usage_error());
        }
        if read(&self.fleet).shards.iter().any(|s| s.addr == addr) {
            return Err(format!("shard {addr} is already a fleet member"));
        }
        // 1. The joiner must be reachable and format-compatible: a skewed
        // build would quarantine the pushed snapshot (wasted work) or,
        // worse, serve differently-keyed verdicts.
        let joiner = ShardState::new(addr, self.pool_config(), self.config.breaker_config());
        let report =
            probe(&joiner).map_err(|e| format!("cannot probe joining shard {addr}: {e}"))?;
        if !report.versions_match() {
            return Err(format!(
                "SNAPSKEW joining shard {addr} runs snapshot format {}/fp {} but this router \
                 is built for {FORMAT_VERSION}/fp {FINGERPRINT_VERSION}",
                report.format_version, report.fingerprint_version
            ));
        }
        self.push_schemas(&joiner).map_err(|e| format!("schema push to {addr} failed: {e}"))?;

        // 2. Warm it from the fullest up donor, if any shard has heat.
        let donors = read(&self.fleet).shards.clone();
        let donor = donors
            .iter()
            .filter(|s| s.is_up() && !s.version_skew.load(Ordering::Relaxed))
            .filter_map(|s| probe(s).ok().map(|r| (Arc::clone(s), r)))
            .filter(|(_, r)| r.cache_entries > 0)
            .max_by_key(|(_, r)| r.cache_entries);
        let (donor_label, entries, imported) = match donor {
            None => ("-".to_string(), 0, 0),
            Some((donor, _)) => {
                let (bytes, entries) = export_from(&donor)?;
                let header = peek_header(&bytes).map_err(|e| {
                    format!("SNAPSKEW donor {} exported an unreadable snapshot: {e}", donor.addr)
                })?;
                if header.format_version != FORMAT_VERSION
                    || header.fingerprint_version != FINGERPRINT_VERSION
                {
                    return Err(format!(
                        "SNAPSKEW donor {} snapshot is format {}/fp {}, router expects \
                         {FORMAT_VERSION}/fp {FINGERPRINT_VERSION}",
                        donor.addr, header.format_version, header.fingerprint_version
                    ));
                }
                let imported = push_snapshot(&joiner, &bytes)?;
                (donor.addr.clone(), entries, imported)
            }
        };

        // 3. Membership: rebuild the ring over the extended shard set.
        {
            let mut fleet = write(&self.fleet);
            if fleet.shards.iter().any(|s| s.addr == addr) {
                return Err(format!("shard {addr} is already a fleet member"));
            }
            fleet.shards.push(joiner);
            let labels: Vec<String> = fleet.shards.iter().map(|s| s.addr.clone()).collect();
            fleet.ring = Ring::build(&labels, self.config.replicas);
        }
        self.stats.handoffs.fetch_add(1, Ordering::Relaxed);
        Ok(format!(
            "OK handoff shard={addr} donor={donor_label} entries={entries} imported={imported}"
        ))
    }

    fn handle_line(self: &Arc<Router>, raw: &str) -> Reply {
        let raw = raw.trim();
        let request = match wire::parse(Side::Router, raw) {
            Ok(Some(request)) => request,
            Ok(None) => return Reply::None,
            Err(message) => return Reply::Line(format!("ERR {message}")),
        };
        let (verb, rest) = (request.verb, request.rest);
        let result = match verb.cmd {
            Cmd::Check | Cmd::Equiv => self.forward_decision(raw, &request, false),
            Cmd::UCheck | Cmd::UEquiv => self.forward_decision(raw, &request, true),
            // No router-side parser for these: route on a hash of the
            // request text after its prefixes, so a repeat reaches the same
            // shard (any shard's answer is the answer).
            Cmd::Agg | Cmd::Nest => self
                .forward_keyed(hash64(request.command.as_bytes()), raw, &request)
                .map(|(win, ..)| win.reply),
            Cmd::Fingerprint => self.fingerprint_local(verb, rest),
            Cmd::Schema => verb.split_head(rest).and_then(|(name, decl)| {
                self.register_schema(name, decl).map(|(fp, relations, acked, total)| {
                    format!("OK schema={name} fp={fp} relations={relations} shards={acked}/{total}")
                })
            }),
            Cmd::Stats => Ok(self.render_stats()),
            Cmd::Metrics => Ok(self.render_metrics()),
            Cmd::Shards => Ok(self.render_shards()),
            Cmd::Handoff => self.handoff(verb, rest),
            Cmd::Shutdown => {
                if self.config.allow_shutdown {
                    return Reply::Shutdown;
                }
                Err(wire::disabled(Side::Router, verb))
            }
            Cmd::Quit => return Reply::Quit,
            Cmd::SnapExport | Cmd::SnapBegin | Cmd::SnapData | Cmd::SnapCommit | Cmd::SnapAbort => {
                unreachable!("wire::parse admits only router verbs")
            }
        };
        match result {
            Ok(text) => Reply::Line(text),
            Err(message) => Reply::Line(format!("ERR {}", message.replace('\n', " "))),
        }
    }

    /// One probe round over the whole fleet (also run once at boot so a
    /// dead shard is drained before the first real request). The probe
    /// respects each shard's breaker: an Open shard is left alone until
    /// its backoff expires, and then the probe itself serves as the
    /// half-open trial — so a dead shard costs one connect attempt per
    /// backoff interval, not one per round.
    fn probe_round(self: &Arc<Router>) {
        let shards = read(&self.fleet).shards.clone();
        for shard in &shards {
            if shard.breaker.admit() == Admission::No {
                continue;
            }
            let outcome = probe(shard);
            if outcome.is_err() {
                self.stats.probe_failures.fetch_add(1, Ordering::Relaxed);
            }
            match apply_probe(shard, &outcome) {
                Transition::WentDown => {
                    self.stats.shard_down.fetch_add(1, Ordering::Relaxed);
                }
                Transition::CameUp | Transition::Restarted => {
                    // It may have lost its schemas with its process.
                    let _ = self.push_schemas(shard);
                }
                Transition::Steady => {}
            }
        }
    }
}

/// How one forward attempt ended.
enum ForwardOutcome {
    /// The shard answered (any reply except overload/unreachable).
    Answered(String),
    /// The shard is alive but cannot take this request (overloaded,
    /// schema heal failed, pool exhausted) — move on without charging
    /// its breaker.
    Shed,
    /// Hard failure (unreachable, I/O error, garbled reply) — charged to
    /// the shard's breaker; move on.
    Failed,
}

/// A won forward: the reply plus what it took to get it.
struct ForwardWin {
    reply: String,
    /// Index of the answering shard in the candidate list.
    idx: usize,
    /// Attempts launched (primary + retries + hedge).
    launched: usize,
    /// Whether a hedge fired for this request (win or not).
    hedged: bool,
}

/// What one request/reply exchange produced.
enum Exchange {
    Reply(String),
    Overloaded,
    /// `ERR unknown schema …`, with the reply.
    UnknownSchema(String),
}

/// Scrapes one shard's `METRICS` over a one-shot control connection.
fn scrape_shard(shard: &ShardState) -> io::Result<String> {
    let mut conn = shard.pool.dial_oneshot()?;
    let reply = conn.request("METRICS")?;
    let _ = conn.send_line("QUIT");
    let body = reply.strip_suffix("# EOF").unwrap_or(&reply);
    Ok(body.strip_suffix('\n').unwrap_or(body).to_string())
}

/// Pulls a `SNAPEXPORT` payload off a donor shard; returns the verified
/// raw bytes and the entry count the donor declared.
fn export_from(donor: &ShardState) -> Result<(Vec<u8>, u64), String> {
    let mut conn = donor.pool.dial_oneshot().map_err(|e| e.to_string())?;
    let reply = conn.request("SNAPEXPORT").map_err(|e| e.to_string())?;
    let _ = conn.send_line("QUIT");
    let mut lines = reply.lines();
    let head = lines.next().unwrap_or("");
    if !head.starts_with("OK ") {
        return Err(format!("donor {} refused SNAPEXPORT: {head}", donor.addr));
    }
    let field = |key: &str| {
        head.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key))
            .and_then(|v| v.parse::<u64>().ok())
    };
    let declared = field("bytes=")
        .ok_or_else(|| format!("donor {} export header malformed: {head}", donor.addr))?;
    let entries = field("entries=").unwrap_or(0);
    let hex: String = lines.take_while(|l| *l != "END").collect();
    let bytes = from_hex(&hex).map_err(|e| format!("donor {} payload: {e}", donor.addr))?;
    if bytes.len() as u64 != declared {
        return Err(format!(
            "donor {} declared {declared} bytes but sent {}",
            donor.addr,
            bytes.len()
        ));
    }
    Ok((bytes, entries))
}

/// Ships snapshot bytes to a joining shard through the staged
/// `SNAPBEGIN`/`SNAPDATA`/`SNAPCOMMIT` sequence; returns the imported
/// entry count the joiner reported.
fn push_snapshot(joiner: &ShardState, bytes: &[u8]) -> Result<u64, String> {
    let mut conn = joiner.pool.dial_oneshot().map_err(|e| e.to_string())?;
    let expect_ok = |conn: &mut Conn, line: String| -> Result<String, String> {
        let reply = conn.request(&line).map_err(|e| e.to_string())?;
        if reply.starts_with("OK") {
            Ok(reply)
        } else {
            Err(format!("joiner {} answered: {reply}", joiner.addr))
        }
    };
    expect_ok(&mut conn, format!("SNAPBEGIN {}", bytes.len()))?;
    let hex = co_service::to_hex(bytes);
    // 32768 hex chars = 16 KiB of payload per line, safely under the
    // shard's 64 KiB line cap.
    for chunk in hex.as_bytes().chunks(32 * 1024) {
        let chunk = std::str::from_utf8(chunk).expect("hex is ASCII");
        expect_ok(&mut conn, format!("SNAPDATA {chunk}"))?;
    }
    let commit = expect_ok(&mut conn, "SNAPCOMMIT".to_string())?;
    let _ = conn.send_line("QUIT");
    let imported = commit
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("imported="))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    Ok(imported)
}

fn read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Runs the router's accept loop until the listener errors. Equivalent to
/// [`serve_router_with_shutdown`] with the router's own (untriggered)
/// handle.
pub fn serve_router(listener: TcpListener, router: Arc<Router>) -> io::Result<()> {
    let shutdown = router.shutdown_handle();
    serve_router_with_shutdown(listener, router, shutdown)
}

/// Runs the accept loop plus the background health prober until
/// `shutdown` triggers, then drains in-flight client connections (up to
/// [`RouterConfig::drain_timeout`]) and returns.
pub fn serve_router_with_shutdown(
    listener: TcpListener,
    router: Arc<Router>,
    shutdown: Shutdown,
) -> io::Result<()> {
    shutdown.set_wake_addr(listener.local_addr().ok());
    let live = Arc::new(AtomicUsize::new(0));
    // One immediate round so a dead shard is drained before traffic.
    router.probe_round();
    let prober = {
        let router = Arc::clone(&router);
        let shutdown = shutdown.clone();
        thread::spawn(move || {
            let interval = router.config.probe_interval.max(Duration::from_millis(10));
            let tick = interval.min(Duration::from_millis(50));
            let mut next = Instant::now() + interval;
            while !shutdown.is_triggered() {
                thread::sleep(tick);
                if Instant::now() >= next && !shutdown.is_triggered() {
                    router.probe_round();
                    next = Instant::now() + interval;
                }
            }
        })
    };
    loop {
        if shutdown.is_triggered() {
            break;
        }
        let (stream, _peer) = listener.accept()?;
        router.stats.accepted.fetch_add(1, Ordering::Relaxed);
        if shutdown.is_triggered() {
            break;
        }
        if live.load(Ordering::Relaxed) >= router.config.max_connections {
            router.stats.client_shed.fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
            let _ = stream.write_all(b"ERR OVERLOADED connection limit reached, retry later\n");
            continue;
        }
        live.fetch_add(1, Ordering::Relaxed);
        let router = Arc::clone(&router);
        let live = Arc::clone(&live);
        thread::spawn(move || {
            if catch_unwind(AssertUnwindSafe(|| handle_client(stream, &router))).is_err() {
                router.stats.conn_panics.fetch_add(1, Ordering::Relaxed);
            }
            live.fetch_sub(1, Ordering::Relaxed);
        });
    }
    drop(listener);
    let deadline = Instant::now() + router.config.drain_timeout;
    while live.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(20));
    }
    let _ = prober.join();
    Ok(())
}

fn handle_client(stream: TcpStream, router: &Arc<Router>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(router.config.read_timeout)?;
    stream.set_write_timeout(router.config.write_timeout)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        if router.shutdown.is_triggered() {
            break;
        }
        let line = match read_bounded_line(&mut reader, router.config.max_line_bytes, None)? {
            LineRead::Eof | LineRead::IdleTimeout => break,
            LineRead::TooLarge => {
                let reply =
                    format!("ERR TOOLARGE line exceeds {} bytes", router.config.max_line_bytes);
                if write_line(&mut writer, &reply).is_err() {
                    break;
                }
                continue;
            }
            LineRead::Line(line) => line,
        };
        let reply =
            catch_unwind(AssertUnwindSafe(|| router.handle_line(&line))).unwrap_or_else(|_| {
                router.stats.conn_panics.fetch_add(1, Ordering::Relaxed);
                Reply::Line("ERR INTERNAL request handler panicked".to_string())
            });
        match reply {
            Reply::None => {}
            Reply::Line(text) => {
                if write_line(&mut writer, &text).is_err() {
                    break;
                }
            }
            Reply::Quit => {
                let _ = write_line(&mut writer, "OK bye");
                break;
            }
            Reply::Shutdown => {
                let _ = write_line(&mut writer, "OK draining");
                router.shutdown.trigger();
                break;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_key_is_direction_invariant() {
        let s = Fingerprint(7);
        let a = Fingerprint(100);
        let b = Fingerprint(2_000);
        assert_eq!(Router::route_key(s, a, b), Router::route_key(s, b, a));
        assert_ne!(Router::route_key(s, a, b), Router::route_key(Fingerprint(8), a, b));
        assert_ne!(Router::route_key(s, a, b), Router::route_key(s, a, Fingerprint(2_001)));
    }
}
