//! `co-router`: a fingerprint-routed sharding proxy for coqld fleets.
//!
//! One router in front of N coqld shards turns them into a single
//! logical containment service with cache affinity. The router speaks
//! the coqld line protocol to clients; per request it:
//!
//! 1. canonicalizes both queries locally (the same parse → type-check →
//!    normalize → fingerprint pipeline the shards use for cache keys),
//! 2. consistent-hash routes the `(schema, unordered query pair)` key
//!    to a shard, so repeated and mirrored requests always land on the
//!    same warm memo cache,
//! 3. forwards the line verbatim (`TIMEOUT`/`BUDGET`/`EXPLAIN` prefixes
//!    intact) over a bounded connection pool,
//! 4. masks shard failure: the ring owner plus its next `replication−1`
//!    siblings form a replica set (verdicts are deterministic, so any
//!    member's answer is correct without coordination); a silent primary
//!    is hedged at the next replica after `hedge_after` (rate-capped),
//!    and hard failures fail over immediately under a bounded retry
//!    budget with seeded jittered backoff between passes.
//!
//! Every shard carries a Closed → Open → Half-Open circuit breaker fed
//! by both forward-path and probe outcomes: a shard that keeps failing
//! is cut off entirely, poked with a single trial per (exponentially
//! growing) backoff interval, and reclosed the moment a trial succeeds.
//! The background prober doubles as the trial source, detects restarts
//! via uptime regression and re-pushes schemas, and flags
//! snapshot-format skew. Fleet-level verbs: `METRICS` (merged Prometheus
//! exposition: summed counters plus per-shard `shard=` labels,
//! router-side families, breaker state and transition series), `SHARDS`
//! (health table with breaker state), and `HANDOFF <addr>` (warm join:
//! version-gated `COQLSNP1` snapshot shipped from the fullest donor
//! before the ring is rebuilt).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backoff;
pub mod health;
pub mod metrics;
pub mod pool;
pub mod proxy;
pub mod ring;

pub use backoff::JitteredBackoff;
pub use health::{Admission, Breaker, BreakerConfig, BreakerState};
pub use proxy::{serve_router, serve_router_with_shutdown, Router, RouterConfig};
pub use ring::Ring;
