//! # co-service — serving Theorem 4.1 at scale
//!
//! The decision procedures in `co-core` are pure functions of the
//! *normalized* query pair, which makes their verdicts ideal to memoize:
//! production query workloads are duplicate-heavy, with many
//! syntactically-distinct but semantically-identical requests. This crate
//! is the serving subsystem built on that observation, in five layers:
//!
//! 1. [`fingerprint`] — stable 128-bit hashes of
//!    [`co_lang::canonical_query`]'s canonical form, so requests differing
//!    only in variable names, generator order, or conjunct order share a
//!    cache key;
//! 2. [`cache`] — a sharded, bounded, `std`-only LRU memo cache of
//!    [`co_core::ContainmentAnalysis`] keyed by
//!    `(fp(q1), fp(q2), fp(schema))`, with hit/miss/eviction counters;
//! 3. [`engine`] — the decision engine: schema registry, shared
//!    [`co_core::Prepared`] reuse (one per distinct canonical query), and
//!    in-flight coalescing of concurrent identical requests, so callers on
//!    many threads (one per `coqld` connection) share each verdict through
//!    [`Engine::decide`];
//! 4. [`server`] — the `coqld` TCP front end: a line-oriented
//!    `CHECK`/`EQUIV`/`FINGERPRINT`/`SCHEMA`/`STATS` protocol. `STATS` and
//!    `METRICS` are two renderings of one row list
//!    ([`co_trace::Exposition`]) over the counters in [`stats`],
//!    per-decision-path latency histograms included. The protocol itself
//!    — request grammar, verb table, reply framing and the one client
//!    connection — is [`wire`], shared with the router, `coqlc` and the
//!    tests;
//! 5. [`snapshot`] — a versioned, checksummed on-disk format for the memo
//!    cache, published atomically (temp + fsync + rename) by a background
//!    snapshotter so restarts warm-start instead of recomputing
//!    (see `DESIGN.md` §11). Anything short of a byte-perfect snapshot is
//!    quarantined and the server starts cold — never with wrong verdicts.
//!
//! The serving path is hardened end-to-end (see `DESIGN.md` §10):
//! [`deadline`] attaches wall-clock/step budgets that the kernels poll
//! cooperatively (expiry → [`Decision::TimedOut`], never memoized), every
//! kernel call and connection handler runs inside a panic-isolation
//! boundary, overload is shed rather than queued, and [`faults`] provides
//! deterministic fault injection (feature `fault-inject`) to test all of
//! it against a real server.
//!
//! ```
//! use std::sync::Arc;
//! use co_cq::Schema;
//! use co_service::{Engine, EngineConfig, Op, Request, Decision};
//!
//! let engine = Arc::new(Engine::new(EngineConfig::default()));
//! engine.register_schema("s", Schema::with_relations(&[("R", &["A", "B"])]));
//! let request = Request::new(
//!     Op::Check,
//!     "s",
//!     "select x.B from x in R where x.A = 1",
//!     "select y.B from y in R",
//! );
//! let Decision::Containment { analysis, .. } = engine.decide(&request).unwrap() else {
//!     unreachable!()
//! };
//! assert!(analysis.holds);
//! // The α-renamed twin is now a cache hit:
//! let twin = Request::new(
//!     Op::Check,
//!     "s",
//!     "select z.B from z in R where 1 = z.A",
//!     "select y.B from y in R",
//! );
//! let Decision::Containment { cached, .. } = engine.decide(&twin).unwrap() else {
//!     unreachable!()
//! };
//! assert!(cached);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod deadline;
pub mod engine;
pub mod faults;
pub mod fingerprint;
pub mod server;
pub mod snapshot;
pub mod stats;
mod sync;
pub mod wire;

pub use cache::{CacheEntry, CacheKey, CacheStats, MemoCache};
pub use deadline::{Deadline, RequestBudget};
pub use engine::{Decision, Engine, EngineConfig, Explain, Op, Request, WarmStart};
pub use fingerprint::{
    canonical_fingerprint, canonical_union_fingerprint, fingerprint_bytes, fingerprint_query,
    fingerprint_schema, fingerprint_union, parse_error_message, Fingerprint, FINGERPRINT_VERSION,
};
pub use server::{parse_schema_decl, serve, serve_with_shutdown, ServerConfig, Shutdown};
pub use snapshot::{
    crc32, decode_snapshot, encode_snapshot, from_hex, load_snapshot, peek_header, to_hex,
    write_snapshot, LoadOutcome, SnapshotHeader, FORMAT_VERSION,
};
pub use stats::{EngineStats, ServerStats};
pub use wire::{read_bounded_line, write_line, LineRead};
