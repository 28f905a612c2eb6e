//! The seeded property loop shared by the root test walls.
//!
//! A property is a closure over a `u64` seed that panics when the
//! property fails. [`check`] runs it once per seed in `0..n`, where `n` is
//! the named environment variable's value when it is set and parses, and
//! the wall's default otherwise. A failure is re-raised with the failing
//! seed and the variable setting that replays it, so every failure is a
//! reproducible fixed case: the seeds are deterministic and every
//! generator draws from the in-tree `rand` with explicit seeds.
//!
//! Every wall runs its default counts on each `cargo test`;
//! `scripts/verify.sh` widens them through the same variables.
//!
//! The walls that compare served verdicts with a reference also start
//! their servers here: [`serve_shard`] and [`serve_router`].

#![allow(dead_code)] // each test binary uses its own subset

use std::net::{SocketAddr, TcpListener};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

use co_router::{serve_router as run_router, Router, RouterConfig};
use co_service::{serve, Engine, EngineConfig, ServerConfig};

/// The case count: `var`'s value when it is set and parses, else
/// `default`.
pub fn cases(var: &str, default: u64) -> u64 {
    std::env::var(var).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Runs `property` once per seed in `seeds`. A panic is re-raised naming
/// the seed and the `var` setting that replays it.
pub fn for_seeds(var: &str, seeds: impl IntoIterator<Item = u64>, mut property: impl FnMut(u64)) {
    for seed in seeds {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| property(seed))) {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!(
                "property failed at seed {seed}: {message}\n\
                 seeds are fixed, so a rerun replays it ({var}=N runs seeds 0..N)"
            );
        }
    }
}

/// [`for_seeds`] over `0..cases(var, default)`.
pub fn check(var: &str, default: u64, property: impl FnMut(u64)) {
    for_seeds(var, 0..cases(var, default), property)
}

/// [`check`], then the `fixed` seeds: past failures kept as fixed cases.
pub fn check_with_fixed(var: &str, default: u64, fixed: &[u64], property: impl FnMut(u64)) {
    for_seeds(var, (0..cases(var, default)).chain(fixed.iter().copied()), property)
}

/// An in-process `coqld` on an ephemeral port, serving until the test
/// process exits. `kernel_threads` as in [`EngineConfig`] (`0` = auto).
pub fn serve_shard(kernel_threads: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind shard");
    let addr = listener.local_addr().unwrap();
    let engine = Arc::new(Engine::new(EngineConfig {
        cache_shards: 4,
        cache_per_shard: 256,
        kernel_threads,
        ..EngineConfig::default()
    }));
    thread::spawn(move || {
        let _ =
            serve(listener, engine, ServerConfig { max_connections: 8, ..ServerConfig::default() });
    });
    addr
}

/// A one-shard `coqld-router` in front of `shard`, on an ephemeral port.
pub fn serve_router(shard: SocketAddr) -> SocketAddr {
    let router = Router::new(&[shard.to_string()], RouterConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let addr = listener.local_addr().unwrap();
    thread::spawn(move || {
        let _ = run_router(listener, router);
    });
    addr
}
