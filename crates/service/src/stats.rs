//! Lock-free service counters.

use std::sync::atomic::AtomicU64;

use co_core::DecisionPath;
use co_trace::Histogram;

/// Counters for the decision engine, all monotone except `in_flight`.
#[derive(Default)]
pub struct EngineStats {
    /// Containment decisions answered (cached or computed).
    pub decisions: AtomicU64,
    /// Full decision-pipeline executions (cache misses actually computed).
    pub computed: AtomicU64,
    /// Requests that waited on an identical in-flight computation instead
    /// of recomputing.
    pub coalesced: AtomicU64,
    /// Decisions currently being computed (gauge).
    pub in_flight: AtomicU64,
    /// Requests abandoned because their deadline or step budget expired
    /// (leaders and coalesced waiters alike). Never memoized.
    pub timeouts: AtomicU64,
    /// Decision computations that panicked and were contained by the
    /// engine's isolation boundary.
    pub panics: AtomicU64,
    /// Verdicts recovered from a snapshot at warm start.
    pub recovered_entries: AtomicU64,
    /// Snapshots successfully published (temp + fsync + rename).
    pub snapshots_written: AtomicU64,
    /// Snapshot writes that failed; the previous snapshot stays current.
    pub snapshot_failures: AtomicU64,
    /// Snapshot files rejected at load (corrupt, truncated, or written
    /// by an incompatible version) and moved aside.
    pub quarantined: AtomicU64,
    /// Cached certificates rejected by the `co-cert` re-check — at warm
    /// start / `HANDOFF` import (entry dropped) or on a cache hit under
    /// `CERT` (entry recomputed). Any nonzero value means a poisoned or
    /// stale certificate was caught before being served.
    pub cert_rejected: AtomicU64,
    /// Union (`UCHECK`/`UEQUIV`) requests decided (each also counts once
    /// toward `decisions`).
    pub union_decisions: AtomicU64,
    /// Union requests answered `cached=true`: every disjunct pair they
    /// examined was already memoized.
    pub union_hits: AtomicU64,
    /// Latency of computed decisions, by decision path
    /// (indexed [`path_index`]).
    pub path_latency: [Histogram; 3],
}

/// Counters for the TCP serving layer, all monotone.
#[derive(Default)]
pub struct ServerStats {
    /// Connections accepted (including ones immediately shed).
    pub accepted: AtomicU64,
    /// Connections shed with `ERR OVERLOADED` (connection cap reached).
    pub shed: AtomicU64,
    /// Requests rejected with `ERR TOOLARGE` (line length cap).
    pub oversized: AtomicU64,
    /// Connections closed for idling or dribbling past the read timeout
    /// (slow-loris defense).
    pub idle_closed: AtomicU64,
    /// Connection handlers that panicked and were contained.
    pub conn_panics: AtomicU64,
    /// Requests whose end-to-end handling exceeded the slow-log
    /// threshold ([`crate::ServerConfig::slow_log`]).
    pub slow_requests: AtomicU64,
}

/// Stable index of a [`DecisionPath`] into [`EngineStats::path_latency`].
pub fn path_index(path: DecisionPath) -> usize {
    match path {
        DecisionPath::FlatClassical => 0,
        DecisionPath::NoEmptySets => 1,
        DecisionPath::Full => 2,
    }
}

/// Short stable label for a histogram slot, used by `STATS`.
pub fn path_label(index: usize) -> &'static str {
    match index {
        0 => "flat",
        1 => "no-empty-sets",
        _ => "full",
    }
}
