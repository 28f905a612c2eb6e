//! # co-load — an end-to-end, layer-attributed load benchmark
//!
//! Drives live `coqld` and `coqld-router` processes over loopback with
//! seeded request streams, checks every verdict against an in-process
//! `co_core` oracle and every certificate with `co_cert`, reports
//! throughput, latency percentiles, set-up time and memory, and splits
//! request time by layer in a separate traced run. See `README.md` for the
//! workloads, the metrics and how to read them.

#![warn(missing_docs)]

pub mod check;
pub mod compare;
pub mod deploy;
pub mod drive;
pub mod gen;
pub mod run;
pub mod stats;
pub mod trace;
pub mod wire;
