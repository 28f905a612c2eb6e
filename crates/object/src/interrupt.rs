//! Cooperative interruption: thread-local wall-clock deadlines and step
//! budgets for the decision kernels.
//!
//! Containment is worst-case exponential (PAPER §4, Thm 4.1), so a serving
//! layer needs a way to abandon a decision that has outlived its request.
//! Threads are not cancellable in safe Rust; instead the kernels poll a
//! thread-local [`Budget`] at their inner-loop sites (homomorphism probes,
//! simulation worklist pops, emptiness-pattern enumeration) via [`probe`],
//! and unwind a structured [`Interrupted`] error when the budget is spent.
//!
//! The fast path is deliberately cheap: with no budget installed, [`probe`]
//! is a single thread-local `Cell` load. With one installed, a step counter
//! is decremented per call and the wall clock is consulted only every
//! `RECHECK_EVERY` (64) probes, so `Instant::now` stays off the hot path.
//!
//! Expiry is *sticky*: once a budget trips, every subsequent [`probe`] on
//! the thread fails until the [`BudgetGuard`] is dropped, so a kernel that
//! swallows one `Interrupted` cannot accidentally keep running.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The installed budget (deadline or step count) was exhausted.
///
/// Kernels propagate this out of their recursions; callers map it onto a
/// domain error (`CoreError::Interrupted`, `Decision::TimedOut`, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interrupted;

impl fmt::Display for Interrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("decision interrupted: deadline or step budget exhausted")
    }
}

impl std::error::Error for Interrupted {}

/// Limits to impose on kernel work run on the current thread.
///
/// Both limits are optional and combine: the budget trips on whichever is
/// exhausted first. A default `Budget` imposes nothing (but still pays the
/// per-probe step accounting while installed).
#[derive(Clone, Copy, Debug, Default)]
pub struct Budget {
    /// Absolute wall-clock instant after which [`probe`] fails.
    pub deadline: Option<Instant>,
    /// Number of [`probe`] calls allowed before failure. One probe
    /// corresponds to one unit of kernel work (a candidate homomorphism
    /// probe, a worklist pop, an emptiness pattern).
    pub steps: Option<u64>,
}

/// How many probes may pass between wall-clock re-checks.
const RECHECK_EVERY: u32 = 64;

/// Sentinel for "no step limit" in the thread-local counter.
const UNLIMITED: u64 = u64::MAX;

/// Steps a worker takes from a [`SharedBudget`] pool per refill, so the
/// shared atomic is touched once per slice rather than once per probe.
const SLICE: u64 = 256;

/// [`SharedBudget`] flag values: the region is live.
const FLAG_LIVE: u8 = 0;
/// The region was cancelled benignly (first success / first refutation):
/// workers must stop, but the parent budget has *not* expired.
const FLAG_CANCELLED: u8 = 1;
/// The shared budget really expired (deadline or pool exhausted).
const FLAG_EXPIRED: u8 = 2;

struct State {
    active: Cell<bool>,
    expired: Cell<bool>,
    steps_left: Cell<u64>,
    deadline: Cell<Option<Instant>>,
    countdown: Cell<u32>,
    shared: RefCell<Option<Arc<SharedBudget>>>,
}

thread_local! {
    static STATE: State = const {
        State {
            active: Cell::new(false),
            expired: Cell::new(false),
            steps_left: Cell::new(UNLIMITED),
            deadline: Cell::new(None),
            countdown: Cell::new(RECHECK_EVERY),
            shared: RefCell::new(None),
        }
    };
}

/// One budget shared by the workers of a parallel kernel region.
///
/// Created with [`SharedBudget::fork_current`] from the parent thread's
/// installed budget: the parent's remaining steps become a central atomic
/// pool that workers draw `SLICE`-sized (256-step) refills from, and the parent's
/// deadline is checked by every worker. A three-state flag distinguishes
/// *benign* cancellation (a worker found the answer; siblings stop but the
/// request has not timed out) from *real* expiry (deadline passed or pool
/// drained on any worker — the whole request is interrupted).
///
/// After joining the workers, the parent calls [`SharedBudget::rejoin`] to
/// pull the surviving pool balance (and any expiry) back into its own
/// thread-local budget, preserving the sticky-expiry invariant.
#[derive(Debug)]
pub struct SharedBudget {
    deadline: Option<Instant>,
    pool: AtomicU64,
    flag: AtomicU8,
}

impl SharedBudget {
    /// Snapshots the current thread's installed budget as a shared pool.
    ///
    /// With no budget installed the result is inert (unlimited steps, no
    /// deadline) — workers still honor the cancellation flag. If the
    /// current budget has already expired, the fork starts expired.
    pub fn fork_current() -> Arc<SharedBudget> {
        STATE.with(|s| {
            if !s.active.get() {
                return Arc::new(SharedBudget {
                    deadline: None,
                    pool: AtomicU64::new(UNLIMITED),
                    flag: AtomicU8::new(FLAG_LIVE),
                });
            }
            let flag = if s.expired.get() { FLAG_EXPIRED } else { FLAG_LIVE };
            Arc::new(SharedBudget {
                deadline: s.deadline.get(),
                pool: AtomicU64::new(s.steps_left.get()),
                flag: AtomicU8::new(flag),
            })
        })
    }

    /// Benign cancellation: siblings stop at their next probe, but the
    /// parent budget does not expire. A no-op if already expired.
    pub fn cancel(&self) {
        let _ = self.flag.compare_exchange(
            FLAG_LIVE,
            FLAG_CANCELLED,
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
    }

    /// Marks the shared budget as really expired (sticky, wins over a
    /// benign cancel for accounting purposes).
    fn expire(&self) {
        self.flag.store(FLAG_EXPIRED, Ordering::Release);
    }

    /// Whether the budget really expired (deadline or steps), as opposed
    /// to a benign cancellation.
    pub fn is_expired(&self) -> bool {
        self.flag.load(Ordering::Acquire) == FLAG_EXPIRED
    }

    /// Whether workers should stop for any reason (cancel or expiry).
    pub fn is_stopped(&self) -> bool {
        self.flag.load(Ordering::Acquire) != FLAG_LIVE
    }

    /// Takes up to [`SLICE`] steps from the pool; `None` when drained.
    fn take_slice(&self) -> Option<u64> {
        let mut current = self.pool.load(Ordering::Relaxed);
        loop {
            if current == UNLIMITED {
                return Some(UNLIMITED);
            }
            if current == 0 {
                return None;
            }
            let take = current.min(SLICE);
            match self.pool.compare_exchange_weak(
                current,
                current - take,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(take),
                Err(seen) => current = seen,
            }
        }
    }

    /// Returns `steps` to the pool (a worker's unspent slice remainder).
    fn refund(&self, steps: u64) {
        if steps == 0 || self.pool.load(Ordering::Relaxed) == UNLIMITED {
            return;
        }
        self.pool.fetch_add(steps, Ordering::AcqRel);
    }

    /// Folds the shared budget back into the parent thread's installed
    /// budget after all workers have joined: the pool balance becomes the
    /// parent's remaining steps, and a real expiry (never a benign cancel)
    /// expires the parent — preserving sticky semantics.
    pub fn rejoin(&self) {
        STATE.with(|s| {
            if !s.active.get() {
                return;
            }
            let pool = self.pool.load(Ordering::Acquire);
            if pool != UNLIMITED {
                s.steps_left.set(pool);
            }
            if self.is_expired() {
                s.expired.set(true);
            }
        });
    }
}

/// RAII installation of a [`Budget`] on the current thread.
///
/// Dropping the guard restores whatever budget (or absence of one) was
/// installed before, so guards nest correctly. The guard is `!Send`: it
/// must be dropped on the thread that created it.
#[must_use = "the budget is uninstalled when the guard drops"]
pub struct BudgetGuard {
    prev_active: bool,
    prev_expired: bool,
    prev_steps_left: u64,
    prev_deadline: Option<Instant>,
    prev_countdown: u32,
    prev_shared: Option<Arc<SharedBudget>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        STATE.with(|s| {
            // A worker guard returns its unspent slice to the shared pool
            // so the parent's rejoin sees an accurate balance.
            if let Some(shared) = s.shared.borrow().as_ref() {
                let left = s.steps_left.get();
                if left != UNLIMITED && !s.expired.get() {
                    shared.refund(left);
                }
            }
            s.active.set(self.prev_active);
            s.expired.set(self.prev_expired);
            s.steps_left.set(self.prev_steps_left);
            s.deadline.set(self.prev_deadline);
            s.countdown.set(self.prev_countdown);
            *s.shared.borrow_mut() = self.prev_shared.take();
        });
    }
}

fn save_state(s: &State) -> BudgetGuard {
    BudgetGuard {
        prev_active: s.active.get(),
        prev_expired: s.expired.get(),
        prev_steps_left: s.steps_left.get(),
        prev_deadline: s.deadline.get(),
        prev_countdown: s.countdown.get(),
        prev_shared: s.shared.borrow_mut().take(),
        _not_send: PhantomData,
    }
}

/// Installs `budget` on the current thread until the returned guard drops.
pub fn install(budget: Budget) -> BudgetGuard {
    STATE.with(|s| {
        let guard = save_state(s);
        s.active.set(true);
        s.expired.set(false);
        s.steps_left.set(budget.steps.unwrap_or(UNLIMITED));
        s.deadline.set(budget.deadline);
        s.countdown.set(RECHECK_EVERY);
        guard
    })
}

/// Installs a worker-side view of `shared` on the current thread.
///
/// The worker starts with one step slice drawn from the pool (starting
/// expired if the pool is already drained or the region already stopped);
/// [`probe`] refills from the pool as slices run out and re-checks the
/// shared flag alongside the wall clock. Dropping the guard refunds the
/// unspent slice remainder and restores the previous thread state.
pub fn install_shared(shared: &Arc<SharedBudget>) -> BudgetGuard {
    STATE.with(|s| {
        let guard = save_state(s);
        s.active.set(true);
        s.deadline.set(shared.deadline);
        s.countdown.set(RECHECK_EVERY);
        match shared.take_slice() {
            Some(slice) if !shared.is_stopped() => {
                s.expired.set(false);
                s.steps_left.set(slice);
            }
            Some(slice) => {
                // Region already cancelled/expired: refund and start dead.
                shared.refund(if slice == UNLIMITED { 0 } else { slice });
                s.expired.set(true);
                s.steps_left.set(0);
            }
            None => {
                shared.expire();
                s.expired.set(true);
                s.steps_left.set(0);
            }
        }
        *s.shared.borrow_mut() = Some(Arc::clone(shared));
        guard
    })
}

/// Whether a budget is currently installed on this thread.
pub fn active() -> bool {
    STATE.with(|s| s.active.get())
}

/// Accounts one unit of kernel work against the installed budget.
///
/// Returns `Err(Interrupted)` once the step budget is spent or the deadline
/// has passed (checked every `RECHECK_EVERY` = 64 probes). With no budget
/// installed this is a cheap no-op that always succeeds.
#[inline]
pub fn probe() -> Result<(), Interrupted> {
    STATE.with(|s| {
        if !s.active.get() {
            return Ok(());
        }
        if s.expired.get() {
            return Err(Interrupted);
        }
        let mut steps = s.steps_left.get();
        if steps == 0 {
            // A worker slice ran out: refill from the shared pool if this
            // thread has one; otherwise (or on a drained pool) expire.
            let refill = s.shared.borrow().as_ref().map(|sh| sh.take_slice());
            match refill {
                Some(Some(slice)) => {
                    s.steps_left.set(slice);
                    steps = slice;
                }
                Some(None) => {
                    if let Some(sh) = s.shared.borrow().as_ref() {
                        sh.expire();
                    }
                    s.expired.set(true);
                    return Err(Interrupted);
                }
                None => {
                    s.expired.set(true);
                    return Err(Interrupted);
                }
            }
        }
        if steps != UNLIMITED {
            s.steps_left.set(steps - 1);
        }
        let countdown = s.countdown.get();
        if countdown > 1 {
            s.countdown.set(countdown - 1);
            return Ok(());
        }
        s.countdown.set(RECHECK_EVERY);
        if let Some(sh) = s.shared.borrow().as_ref() {
            if sh.is_stopped() {
                s.expired.set(true);
                return Err(Interrupted);
            }
        }
        if let Some(deadline) = s.deadline.get() {
            if Instant::now() >= deadline {
                if let Some(sh) = s.shared.borrow().as_ref() {
                    sh.expire();
                }
                s.expired.set(true);
                return Err(Interrupted);
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn probe_is_a_no_op_without_a_budget() {
        assert!(!active());
        for _ in 0..1000 {
            assert_eq!(probe(), Ok(()));
        }
    }

    #[test]
    fn step_budget_trips_after_exactly_n_probes() {
        let guard = install(Budget { deadline: None, steps: Some(3) });
        assert!(active());
        assert_eq!(probe(), Ok(()));
        assert_eq!(probe(), Ok(()));
        assert_eq!(probe(), Ok(()));
        assert_eq!(probe(), Err(Interrupted));
        // Sticky: stays expired.
        assert_eq!(probe(), Err(Interrupted));
        drop(guard);
        assert!(!active());
        assert_eq!(probe(), Ok(()));
    }

    #[test]
    fn deadline_trips_within_the_recheck_window() {
        let _guard = install(Budget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            steps: None,
        });
        // The deadline is already past; it must be noticed within one
        // re-check window of probes.
        let tripped = (0..2 * RECHECK_EVERY).any(|_| probe().is_err());
        assert!(tripped);
    }

    #[test]
    fn guards_nest_and_restore() {
        let outer = install(Budget { deadline: None, steps: Some(1_000) });
        assert_eq!(probe(), Ok(()));
        {
            let _inner = install(Budget { deadline: None, steps: Some(1) });
            assert_eq!(probe(), Ok(()));
            assert_eq!(probe(), Err(Interrupted));
        }
        // Outer budget is live again and unexpired.
        assert_eq!(probe(), Ok(()));
        drop(outer);
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let _guard = install(Budget {
            deadline: Some(Instant::now() + Duration::from_secs(60)),
            steps: None,
        });
        for _ in 0..1000 {
            assert_eq!(probe(), Ok(()));
        }
    }

    #[test]
    fn shared_budget_slices_refill_and_exhaust() {
        let parent = install(Budget { deadline: None, steps: Some(2 * SLICE + 10) });
        let shared = SharedBudget::fork_current();
        {
            let _worker = install_shared(&shared);
            // More probes than one slice: refills must kick in, and the
            // pool must drain to expiry after exactly the parent's steps.
            let mut ok = 0u64;
            while probe().is_ok() {
                ok += 1;
                assert!(ok < 10 * SLICE, "budget never tripped");
            }
            assert_eq!(ok, 2 * SLICE + 10);
            assert!(shared.is_expired());
        }
        shared.rejoin();
        // Real expiry propagates to the parent (sticky).
        assert_eq!(probe(), Err(Interrupted));
        drop(parent);
    }

    #[test]
    fn benign_cancel_stops_workers_without_expiring_parent() {
        let parent = install(Budget { deadline: None, steps: Some(100_000) });
        let shared = SharedBudget::fork_current();
        shared.cancel();
        {
            let _worker = install_shared(&shared);
            // Cancelled region: the worker must stop promptly.
            let tripped = (0..2 * RECHECK_EVERY as usize + 1).any(|_| probe().is_err());
            assert!(tripped);
        }
        assert!(!shared.is_expired());
        shared.rejoin();
        // Benign cancel does not expire the parent budget.
        assert_eq!(probe(), Ok(()));
        drop(parent);
    }

    #[test]
    fn unspent_slices_are_refunded_on_rejoin() {
        let parent = install(Budget { deadline: None, steps: Some(10 * SLICE) });
        let shared = SharedBudget::fork_current();
        {
            let _worker = install_shared(&shared);
            for _ in 0..10 {
                assert_eq!(probe(), Ok(()));
            }
        }
        shared.rejoin();
        // Parent keeps everything except the 10 probes actually spent.
        let mut ok = 0u64;
        while probe().is_ok() {
            ok += 1;
            assert!(ok <= 10 * SLICE);
        }
        assert_eq!(ok, 10 * SLICE - 10);
        drop(parent);
    }

    #[test]
    fn fork_without_a_budget_is_inert_but_cancellable() {
        assert!(!active());
        let shared = SharedBudget::fork_current();
        {
            let _worker = install_shared(&shared);
            for _ in 0..1000 {
                assert_eq!(probe(), Ok(()));
            }
        }
        shared.cancel();
        {
            let _worker = install_shared(&shared);
            assert_eq!(probe(), Err(Interrupted));
        }
        shared.rejoin();
        assert!(!active());
        assert_eq!(probe(), Ok(()));
    }

    #[test]
    fn shared_budget_works_across_real_threads() {
        let parent = install(Budget { deadline: None, steps: Some(4 * SLICE) });
        let shared = SharedBudget::fork_current();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let shared = &shared;
                scope.spawn(move || {
                    let _worker = install_shared(shared);
                    while probe().is_ok() {}
                });
            }
        });
        assert!(shared.is_expired());
        shared.rejoin();
        assert_eq!(probe(), Err(Interrupted));
        drop(parent);
        assert_eq!(probe(), Ok(()));
    }
}
