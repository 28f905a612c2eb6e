//! Intra-request parallelism: a small std-only work-stealing pool for the
//! decision kernels (DESIGN.md §14).
//!
//! The kernels are worst-case exponential, so one hard instance can pin a
//! core while the rest of the machine idles. This module lets a kernel
//! split its *top-level* branch points — the MRV root atom's candidate
//! list in the homomorphism search, the 2^m emptiness patterns in tree
//! containment — across a scoped pool of workers:
//!
//! * work is dealt round-robin into per-worker chunked deques; an idle
//!   worker pops its own queue from the front and steals from a sibling's
//!   back, so chunks stay contiguous per worker and steals are rare;
//! * [`Feeder::stop`] drains every queue at once (first-success or
//!   first-refutation cancellation);
//! * workers run inside [`std::thread::scope`], so they are structurally
//!   joined before the kernel returns — no detached threads, ever;
//! * nested parallelism is suppressed: code running on a pool worker sees
//!   [`in_worker`] and must keep its own sub-searches sequential.
//!
//! The pool size is process-global ([`set_kernel_threads`]; `0` = auto)
//! and auto mode is capped at half the machine so intra-request
//! parallelism never starves a serving layer's connection worker pool.

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Hard cap on kernel threads, even when configured explicitly.
pub const MAX_KERNEL_THREADS: usize = 64;

/// Process-global kernel thread count; `0` means auto.
static KERNEL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while the current thread is a pool worker (suppresses nesting).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// High-water mark of threads engaged by kernels on this thread since
    /// the last [`take_engaged`] (feeds `explain.kernel.threads_used`).
    static ENGAGED: Cell<usize> = const { Cell::new(0) };
}

/// Sets the process-global kernel thread count (`0` = auto).
pub fn set_kernel_threads(n: usize) {
    KERNEL_THREADS.store(n.min(MAX_KERNEL_THREADS), Ordering::Relaxed);
}

/// The configured kernel thread count (`0` = auto).
pub fn kernel_threads() -> usize {
    KERNEL_THREADS.load(Ordering::Relaxed)
}

/// The number of threads a kernel should actually use right now.
///
/// Returns `1` on a pool worker (no nested fan-out). In auto mode, uses
/// half the available parallelism, clamped to `1..=8`, so the serving
/// layer's connection workers keep cores of their own.
///
/// The kernels call this once per tree node, hom search and union walk,
/// so it must be cheap: the auto count is resolved once per process (see
/// [`auto_threads`]).
pub fn effective_threads() -> usize {
    if in_worker() {
        return 1;
    }
    let configured = kernel_threads();
    if configured != 0 {
        return configured.clamp(1, MAX_KERNEL_THREADS);
    }
    auto_threads()
}

/// The auto-mode thread count, resolved on first use and cached for the
/// life of the process. `available_parallelism` reads the affinity mask
/// and the cgroup CPU quota (several syscalls and file reads on Linux,
/// about 12 µs on a 2-core VM), which would otherwise be paid on every
/// kernel call.
fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        auto_threads_for(std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The auto-mode formula: half of `cores`, clamped to `1..=8`.
fn auto_threads_for(cores: usize) -> usize {
    (cores / 2).clamp(1, 8)
}

/// Whether the current thread is a pool worker.
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Records that a kernel on this thread engaged `n` threads (high-water).
pub fn note_engaged(n: usize) {
    ENGAGED.with(|e| e.set(e.get().max(n)));
}

/// Reads and resets this thread's engaged-threads high-water mark.
pub fn take_engaged() -> usize {
    ENGAGED.with(|e| e.replace(0))
}

/// Aggregate statistics of one [`run_workers`] invocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParStats {
    /// Chunks of the item space dispatched to workers.
    pub branches: u64,
    /// Chunks obtained by stealing from a sibling's deque.
    pub steals: u64,
    /// Number of workers that ran.
    pub threads: usize,
}

/// The shared work source of one parallel region: per-worker chunked
/// deques over an item index space, plus a cooperative stop flag.
pub struct Feeder {
    queues: Vec<Mutex<VecDeque<Range<usize>>>>,
    stop: AtomicBool,
    steals: AtomicU64,
    branches: AtomicU64,
}

impl Feeder {
    fn new(threads: usize, items: usize, chunk: usize) -> Feeder {
        let chunk = chunk.max(1);
        let mut queues: Vec<VecDeque<Range<usize>>> =
            (0..threads).map(|_| VecDeque::new()).collect();
        let mut start = 0;
        let mut turn = 0;
        while start < items {
            let end = (start + chunk).min(items);
            queues[turn % threads].push_back(start..end);
            start = end;
            turn += 1;
        }
        Feeder {
            queues: queues.into_iter().map(Mutex::new).collect(),
            stop: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            branches: AtomicU64::new(0),
        }
    }

    /// The next chunk for worker `me`: its own deque front first, then a
    /// steal from a sibling's back. `None` once the space is drained or
    /// [`Feeder::stop`] was called.
    pub fn next(&self, me: usize) -> Option<Range<usize>> {
        if self.stopped() {
            return None;
        }
        let own = self.queues[me].lock().expect("feeder queue poisoned").pop_front();
        if let Some(r) = own {
            self.branches.fetch_add(1, Ordering::Relaxed);
            return Some(r);
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (me + offset) % n;
            let stolen = self.queues[victim].lock().expect("feeder queue poisoned").pop_back();
            if let Some(r) = stolen {
                self.steals.fetch_add(1, Ordering::Relaxed);
                self.branches.fetch_add(1, Ordering::Relaxed);
                return Some(r);
            }
        }
        None
    }

    /// Drains all remaining work (cooperative cancellation of siblings).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Whether [`Feeder::stop`] has been called.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// Runs `threads` scoped workers over the item space `0..items`, dealt in
/// chunks of `chunk`. Each worker repeatedly calls [`Feeder::next`] with
/// its own index and processes the ranges it receives; its return value is
/// collected in worker order.
///
/// The calling thread only coordinates (it spawns and joins; it does not
/// take work), so kernel counters and budget state on the caller are
/// untouched while the region runs. Workers are flagged with
/// [`in_worker`], and the scope guarantees every worker has joined before
/// this returns — a panicking worker is resumed on the caller.
pub fn run_workers<R, F>(
    threads: usize,
    items: usize,
    chunk: usize,
    worker: F,
) -> (Vec<R>, ParStats)
where
    R: Send,
    F: Fn(usize, &Feeder) -> R + Sync,
{
    let threads = threads.max(1);
    let feeder = Feeder::new(threads, items, chunk);
    let mut results = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let feeder = &feeder;
        let worker = &worker;
        let handles: Vec<_> = (0..threads)
            .map(|me| {
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    worker(me, feeder)
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(r) => results.push(r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let stats = ParStats {
        branches: feeder.branches.load(Ordering::Relaxed),
        steals: feeder.steals.load(Ordering::Relaxed),
        threads,
    };
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Serializes the tests that change the process-global thread count.
    static GLOBAL_THREADS: Mutex<()> = Mutex::new(());

    #[test]
    fn all_items_are_processed_exactly_once() {
        let seen = AtomicUsize::new(0);
        let (results, stats) = run_workers(4, 1000, 7, |me, feeder| {
            let mut mine = 0usize;
            while let Some(range) = feeder.next(me) {
                mine += range.len();
            }
            seen.fetch_add(mine, Ordering::Relaxed);
            mine
        });
        assert_eq!(seen.load(Ordering::Relaxed), 1000);
        assert_eq!(results.iter().sum::<usize>(), 1000);
        assert_eq!(stats.threads, 4);
        assert!(stats.branches >= 1000 / 7);
    }

    #[test]
    fn stop_drains_remaining_work() {
        let (results, _) = run_workers(2, 100_000, 1, |me, feeder| {
            let mut mine = 0usize;
            while let Some(range) = feeder.next(me) {
                mine += range.len();
                feeder.stop();
            }
            mine
        });
        let total: usize = results.iter().sum();
        assert!(total < 100_000, "stop did not cancel remaining chunks");
        assert!(total >= 1);
    }

    #[test]
    fn workers_see_in_worker_and_parent_does_not() {
        assert!(!in_worker());
        let (results, stats) = run_workers(3, 3, 1, |me, feeder| {
            while feeder.next(me).is_some() {}
            in_worker()
        });
        assert!(results.iter().all(|&w| w));
        assert!(!in_worker());
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.branches, 3);
    }

    #[test]
    fn engaged_high_water_round_trips() {
        let _ = take_engaged();
        note_engaged(3);
        note_engaged(2);
        assert_eq!(take_engaged(), 3);
        assert_eq!(take_engaged(), 0);
    }

    #[test]
    fn configured_threads_round_trip() {
        let _serial = GLOBAL_THREADS.lock().unwrap_or_else(|e| e.into_inner());
        let prev = kernel_threads();
        set_kernel_threads(5);
        assert_eq!(kernel_threads(), 5);
        assert_eq!(effective_threads(), 5);
        set_kernel_threads(0);
        assert!(effective_threads() >= 1);
        set_kernel_threads(prev);
    }

    #[test]
    fn auto_threads_follow_the_documented_formula() {
        for (cores, want) in [(1, 1), (2, 1), (3, 1), (4, 2), (8, 4), (16, 8), (64, 8)] {
            assert_eq!(auto_threads_for(cores), want, "{cores} cores");
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(auto_threads(), auto_threads_for(cores));
    }

    #[test]
    fn auto_effective_threads_is_cheap() {
        // Resolving the auto count costs an `available_parallelism` call
        // (about 12 µs each on a 2-core VM, 1.2 s for this loop); cached,
        // the loop is a few atomic loads per call.
        let _serial = GLOBAL_THREADS.lock().unwrap_or_else(|e| e.into_inner());
        let prev = kernel_threads();
        set_kernel_threads(0);
        let start = std::time::Instant::now();
        let mut sum = 0usize;
        for _ in 0..100_000 {
            sum += std::hint::black_box(effective_threads());
        }
        let elapsed = start.elapsed();
        set_kernel_threads(prev);
        assert!(sum >= 100_000);
        assert!(elapsed.as_millis() < 50, "100k auto-mode calls took {elapsed:?}");
    }
}
