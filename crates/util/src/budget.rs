//! A shared, exact solution budget for cooperative early termination.
//!
//! Parallel schedulers must report *exactly* `min(limit, total)` solutions
//! when a match limit is set, even while many workers discover solutions
//! concurrently.  [`MatchBudget`] implements the claim protocol once so every
//! scheduler shares identical semantics: a worker calls [`MatchBudget::claim`]
//! *before* counting a solution; `true` means "count it", `false` means the
//! budget was already exhausted and the solution must be discarded.  The
//! moment the last slot is claimed the budget reports
//! [`MatchBudget::is_exhausted`], which callers use to stop their workers.
//!
//! [`CancelToken`] is the budget's external sibling: a shared flag an
//! *observer* of the run (a streaming consumer whose client disconnected, a
//! supervisor) flips to make every scheduler stop as if its budget had been
//! exhausted — cooperative, checked at the same points as the match budget.
//!
//! [`RunControl`] is the run contract every scheduler shares: one budget, one
//! deadline and one optional token, polled at one cadence
//! ([`POLL_INTERVAL`]), with the reason the run stopped latched once.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a worker polls the deadline and the cancellation token: every
/// this many visited states (sequential driver) or scheduler ticks (the
/// work-stealing runtime).  `Instant::now` is cheap but not free.
pub const POLL_INTERVAL: u64 = 1024;

/// A shared cooperative cancellation flag.
///
/// Cancellation is one-way (there is no reset) and idempotent.  Schedulers
/// poll [`CancelToken::is_cancelled`] at the same cadence as their match
/// budget / deadline checks and stop early when it fires; the run then
/// reports `cancelled = true` and its counts are lower bounds, exactly like
/// a timed-out run.
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
}

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation (idempotent, safe from any thread).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// `true` once [`CancelToken::cancel`] has been called.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// Shared solution budget (see module docs).  `limit = None` never exhausts.
#[derive(Debug)]
pub struct MatchBudget {
    limit: Option<u64>,
    claimed: AtomicU64,
    exhausted: AtomicBool,
}

impl MatchBudget {
    /// A budget of `limit` solutions (`None` = unlimited).
    pub fn new(limit: Option<u64>) -> Self {
        MatchBudget {
            limit,
            claimed: AtomicU64::new(0),
            exhausted: AtomicBool::new(limit == Some(0)),
        }
    }

    /// Claims one slot.  Returns `true` when the solution should be counted;
    /// over-claims past the limit return `false` and are discarded by the
    /// caller, so the counted total is exactly `min(limit, total)`.
    #[inline]
    pub fn claim(&self) -> bool {
        let Some(limit) = self.limit else {
            return true;
        };
        let prev = self.claimed.fetch_add(1, Ordering::SeqCst);
        if prev + 1 >= limit {
            self.exhausted.store(true, Ordering::SeqCst);
        }
        prev < limit
    }

    /// `true` once every slot has been claimed (workers should stop).  Also
    /// the `limit_hit` flag reported by results.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.exhausted.load(Ordering::SeqCst)
    }
}

/// The stop protocol of one run, shared by all of its workers: the match
/// budget, the deadline and the optional cancellation token, plus the
/// latched reason the run stopped.
///
/// Workers call [`RunControl::is_stopped`] before every unit of work,
/// [`RunControl::poll`] before their first one and every [`POLL_INTERVAL`]
/// after, and [`RunControl::claim`] before counting a match.  A fired token
/// makes every later claim fail, so cancellation behaves like a budget that
/// ran out the moment the token fired; a stopped run's counts are lower
/// bounds.
#[derive(Debug)]
pub struct RunControl {
    budget: MatchBudget,
    deadline: Option<Instant>,
    cancel: Option<Arc<CancelToken>>,
    stopped: AtomicBool,
    timed_out: AtomicBool,
    cancelled: AtomicBool,
}

impl RunControl {
    /// A run that stops after `max_matches` matches, `time_limit` after this
    /// call, or when `cancel` fires — whichever comes first (`None` = never).
    pub fn new(
        max_matches: Option<u64>,
        time_limit: Option<Duration>,
        cancel: Option<Arc<CancelToken>>,
    ) -> Self {
        RunControl {
            budget: MatchBudget::new(max_matches),
            deadline: time_limit.map(|limit| Instant::now() + limit),
            cancel,
            stopped: AtomicBool::new(max_matches == Some(0)),
            timed_out: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
        }
    }

    /// `true` when nothing can interrupt the run: no match limit, no
    /// deadline, no token.  Only then may a worker count matches in bulk
    /// without claiming them one by one.
    pub fn is_unbounded(&self) -> bool {
        self.budget.limit.is_none() && self.deadline.is_none() && self.cancel.is_none()
    }

    /// `true` once the run must stop, for whatever reason.
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Relaxed)
    }

    /// Consults the token and the clock, latching `cancelled` or `timed_out`
    /// on the first that fired; returns [`RunControl::is_stopped`].
    pub fn poll(&self) -> bool {
        if self.is_stopped() || self.token_fired() {
            return true;
        }
        if self
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            self.timed_out.store(true, Ordering::SeqCst);
            self.stopped.store(true, Ordering::SeqCst);
        }
        self.is_stopped()
    }

    /// Claims one slot of the match budget: `true` means "count this match".
    /// Claims after the token fired or past the limit fail, so the counted
    /// total is exactly `min(max_matches, total)`.
    #[inline]
    pub fn claim(&self) -> bool {
        if self.token_fired() {
            return false;
        }
        if self.budget.limit.is_none() {
            // Nothing to count against: skip the exhaustion check.
            return true;
        }
        let counted = self.budget.claim();
        if self.budget.is_exhausted() {
            self.stopped.store(true, Ordering::SeqCst);
        }
        counted
    }

    /// `true` once the token fired; latches `cancelled` and stops the run.
    #[inline]
    fn token_fired(&self) -> bool {
        let fired = self
            .cancel
            .as_ref()
            .is_some_and(|token| token.is_cancelled());
        if fired {
            self.cancelled.store(true, Ordering::SeqCst);
            self.stopped.store(true, Ordering::SeqCst);
        }
        fired
    }

    /// Whether the deadline stopped the run.
    pub fn timed_out(&self) -> bool {
        self.timed_out.load(Ordering::SeqCst)
    }

    /// Whether the match budget ran out.
    pub fn limit_hit(&self) -> bool {
        self.budget.is_exhausted()
    }

    /// Whether the cancellation token stopped the run.
    pub fn cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_one_way_and_idempotent() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn unlimited_budget_never_exhausts() {
        let budget = MatchBudget::new(None);
        for _ in 0..1000 {
            assert!(budget.claim());
        }
        assert!(!budget.is_exhausted());
    }

    #[test]
    fn exact_count_under_contention() {
        let budget = MatchBudget::new(Some(100));
        let counted: u64 = std::thread::scope(|scope| {
            (0..8)
                .map(|_| scope.spawn(|| (0..1000).filter(|_| budget.claim()).count() as u64))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(counted, 100);
        assert!(budget.is_exhausted());
    }

    #[test]
    fn zero_budget_is_exhausted_from_the_start() {
        let budget = MatchBudget::new(Some(0));
        assert!(budget.is_exhausted());
        assert!(!budget.claim());
    }

    #[test]
    fn exhaustion_fires_exactly_at_the_limit() {
        let budget = MatchBudget::new(Some(2));
        assert!(budget.claim());
        assert!(!budget.is_exhausted());
        assert!(budget.claim());
        assert!(budget.is_exhausted());
        assert!(!budget.claim());
    }

    #[test]
    fn run_control_zero_budget_is_exhausted_at_construction() {
        let control = RunControl::new(Some(0), None, None);
        assert!(control.is_stopped());
        assert!(control.limit_hit());
        assert!(!control.claim());
        assert!(!control.timed_out() && !control.cancelled());
    }

    #[test]
    fn run_control_counts_exactly_under_concurrent_claims() {
        for limit in [0u64, 1, 37, 400, 10_000] {
            let control = RunControl::new(Some(limit), None, None);
            let barrier = std::sync::Barrier::new(4);
            let counted: u64 = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            (0..500).filter(|_| control.claim()).count() as u64
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("claiming thread panicked"))
                    .sum()
            });
            assert_eq!(counted, limit.min(2000), "limit={limit}");
            assert_eq!(control.is_stopped(), limit <= 2000, "limit={limit}");
            assert_eq!(control.limit_hit(), limit <= 2000, "limit={limit}");
        }
    }

    #[test]
    fn run_control_expired_deadline_latches_before_any_work() {
        let control = RunControl::new(None, Some(Duration::ZERO), None);
        assert!(!control.is_unbounded());
        assert!(control.poll(), "the first poll sees the expired deadline");
        assert!(control.timed_out());
        assert!(control.is_stopped());
        assert!(!control.limit_hit() && !control.cancelled());
        // Claims are still counted: the deadline stops work, not accounting.
        assert!(control.claim());
        let open = RunControl::new(None, Some(Duration::from_secs(3600)), None);
        assert!(!open.poll());
        assert!(!open.timed_out());
    }

    #[test]
    fn run_control_fired_token_latches_cancelled_and_refuses_claims() {
        let token = Arc::new(CancelToken::new());
        let control = RunControl::new(Some(10), None, Some(Arc::clone(&token)));
        assert!(control.claim());
        assert!(!control.poll());
        token.cancel();
        assert!(
            !control.claim(),
            "claims after the token fired are discarded"
        );
        assert!(control.cancelled());
        assert!(control.is_stopped());
        assert!(control.poll());
        assert!(!control.limit_hit() && !control.timed_out());
        let unbounded = RunControl::new(None, None, None);
        assert!(unbounded.is_unbounded());
        assert!(!unbounded.poll() && unbounded.claim());
    }
}
