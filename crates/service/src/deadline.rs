//! Per-request wall-clock deadlines and work budgets.
//!
//! The serving layer attaches a [`RequestBudget`] to every request (a
//! configurable server default, overridable per request with the
//! `TIMEOUT <ms>` / `BUDGET <steps>` protocol prefixes). The engine turns
//! it into a thread-local [`co_object::interrupt::Budget`] around the
//! decision kernels, which poll it cooperatively (see
//! `co_object::interrupt`), and maps an expiry onto
//! [`crate::Decision::TimedOut`] / the `ERR DEADLINE` reply. Timed-out
//! verdicts are never memoized.

use std::time::{Duration, Instant};

use co_object::interrupt;

/// An absolute wall-clock deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline(Instant);

impl Deadline {
    /// The deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Deadline {
        Deadline(Instant::now() + timeout)
    }

    /// A deadline at an explicit instant.
    pub fn at(instant: Instant) -> Deadline {
        Deadline(instant)
    }

    /// The underlying instant.
    pub fn instant(self) -> Instant {
        self.0
    }

    /// Whether the deadline has passed.
    pub fn expired(self) -> bool {
        Instant::now() >= self.0
    }

    /// Time left until the deadline (zero once expired).
    pub fn remaining(self) -> Duration {
        self.0.saturating_duration_since(Instant::now())
    }
}

/// Limits attached to one request. Both are optional; the default imposes
/// none.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestBudget {
    /// Wall-clock limit for the whole request (parse, prepare, decide).
    pub timeout: Option<Duration>,
    /// Kernel step limit per disjunct-pair decision — one per direction
    /// of a `CHECK`/`EQUIV`, one per pair a union walk examines (one step
    /// ≈ one homomorphism probe / worklist pop / emptiness pattern).
    /// Mostly a deterministic testing hook; production callers want
    /// `timeout`.
    pub steps: Option<u64>,
}

impl RequestBudget {
    /// A budget with no limits.
    pub fn unlimited() -> RequestBudget {
        RequestBudget::default()
    }

    /// A wall-clock-only budget.
    pub fn with_timeout(timeout: Duration) -> RequestBudget {
        RequestBudget { timeout: Some(timeout), steps: None }
    }

    /// A step-count-only budget.
    pub fn with_steps(steps: u64) -> RequestBudget {
        RequestBudget { timeout: None, steps: Some(steps) }
    }

    /// Whether this budget imposes nothing.
    pub fn is_unlimited(&self) -> bool {
        self.timeout.is_none() && self.steps.is_none()
    }

    /// Starts the clock: fixes the absolute deadline for this request.
    pub fn start(&self) -> Option<Deadline> {
        self.timeout.map(Deadline::after)
    }

    /// The kernel-facing budget for one decision under `deadline`.
    pub fn kernel_budget(&self, deadline: Option<Deadline>) -> interrupt::Budget {
        interrupt::Budget { deadline: deadline.map(Deadline::instant), steps: self.steps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_expiry_and_remaining() {
        let d = Deadline::after(Duration::from_secs(60));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(50));
        let past = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(past.expired());
        assert_eq!(past.remaining(), Duration::ZERO);
    }

    #[test]
    fn budget_constructors() {
        assert!(RequestBudget::unlimited().is_unlimited());
        assert!(RequestBudget::unlimited().start().is_none());
        let b = RequestBudget::with_timeout(Duration::from_millis(50));
        assert!(!b.is_unlimited());
        let deadline = b.start();
        assert!(deadline.is_some());
        let kb = b.kernel_budget(deadline);
        assert!(kb.deadline.is_some());
        assert_eq!(kb.steps, None);
        let s = RequestBudget::with_steps(7);
        assert_eq!(s.kernel_budget(None).steps, Some(7));
    }
}
