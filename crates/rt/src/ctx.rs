//! [`RtContext`]: a budget and a cancellation token bound to one solve.

use crate::{Budget, CancelToken, RtError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// How many charged ops may pass between wall-clock deadline reads.
/// Token polls and op accounting are relaxed atomics (a few ns); an
/// `Instant::now()` is the expensive part of a check, so the hot
/// kernel-chunk path amortizes it.
const DEADLINE_CHECK_MASK: u64 = 63;

/// Default wall-clock spacing between `rt.*` headroom samples
/// ([`RtContext::with_sample_interval`] overrides). Pacing on wall-clock
/// time keeps the series readable in `chrome_trace` however fast the
/// kernels charge ops.
const SAMPLE_INTERVAL_MS_DEFAULT: u64 = 100;

/// The runtime context threaded through every budgeted pass. Cheap to
/// consult: the unlimited, uncancelled fast path is a handful of relaxed
/// atomic operations per kernel chunk.
#[derive(Debug)]
pub struct RtContext {
    budget: Budget,
    token: CancelToken,
    start: Instant,
    ops: AtomicU64,
    cancel_reported: AtomicBool,
    sample_interval_ms: u64,
    last_sample_ms: AtomicU64,
}

impl Default for RtContext {
    fn default() -> Self {
        RtContext::unlimited()
    }
}

impl RtContext {
    /// Binds a budget and a token; the deadline clock starts now.
    pub fn new(budget: Budget, token: CancelToken) -> Self {
        RtContext {
            budget,
            token,
            start: Instant::now(),
            ops: AtomicU64::new(0),
            cancel_reported: AtomicBool::new(false),
            sample_interval_ms: SAMPLE_INTERVAL_MS_DEFAULT,
            last_sample_ms: AtomicU64::new(0),
        }
    }

    /// Overrides the wall-clock spacing between event-stream headroom
    /// samples (default 100 ms). Zero emits a sample on every check —
    /// useful in tests.
    pub fn with_sample_interval(mut self, interval: std::time::Duration) -> Self {
        self.sample_interval_ms = interval.as_millis() as u64;
        self
    }

    /// No limits, never cancelled (other than via an external clone of a
    /// token passed to [`RtContext::new`]). The context legacy entry
    /// points delegate to.
    pub fn unlimited() -> Self {
        RtContext::new(Budget::unlimited(), CancelToken::new())
    }

    /// A context with the given budget and a fresh token.
    pub fn with_budget(budget: Budget) -> Self {
        RtContext::new(budget, CancelToken::new())
    }

    /// The budget this context enforces.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The cancellation token this context polls.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Kernel ops charged so far.
    pub fn ops_used(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Time elapsed since the context was created.
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }

    /// Polls cancellation and the wall-clock deadline. Called at
    /// iteration/sweep granularity by the drivers.
    pub fn check(&self) -> Result<(), RtError> {
        if self.token.is_cancelled() {
            return Err(self.cancelled());
        }
        self.maybe_sample_headroom();
        self.check_deadline()
    }

    /// Charges `n` kernel ops and polls every limit; the deadline is read
    /// whenever the running count crosses a multiple of
    /// `DEADLINE_CHECK_MASK + 1`, however many ops one charge carries.
    /// Called once per op by the simulator's executor.
    pub fn charge_ops(&self, n: u64) -> Result<(), RtError> {
        let before = self.ops.fetch_add(n, Ordering::Relaxed);
        let used = before + n;
        if let Some(limit) = self.budget.max_ops {
            if used > limit {
                return Err(RtError::OpBudget { used, limit });
            }
        }
        if self.token.is_cancelled() {
            return Err(self.cancelled());
        }
        if before & !DEADLINE_CHECK_MASK != used & !DEADLINE_CHECK_MASK {
            self.maybe_sample_headroom();
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Emits the `rt.deadline_headroom_ms` and `rt.ops_headroom` gauges
    /// as a periodic wall-clock series (at most one sample per
    /// `sample_interval_ms`), so deadline/op-budget pressure during long
    /// annealing runs is visible as a counter track in `chrome_trace`
    /// and as the last value in the run's metrics.
    fn maybe_sample_headroom(&self) {
        if self.budget.deadline.is_none() && self.budget.max_ops.is_none() {
            return;
        }
        if !qmkp_obs::enabled() {
            return;
        }
        let now_ms = self.start.elapsed().as_millis() as u64;
        let last = self.last_sample_ms.load(Ordering::Relaxed);
        let due = last == 0 || now_ms.saturating_sub(last) >= self.sample_interval_ms;
        if !due {
            return;
        }
        // One thread wins the sample window; losers skip quietly.
        if self
            .last_sample_ms
            .compare_exchange(last, now_ms.max(1), Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        if let Some(deadline) = self.budget.deadline {
            let headroom = deadline.saturating_sub(self.start.elapsed());
            qmkp_obs::gauge("rt.deadline_headroom_ms", &[], headroom.as_secs_f64() * 1e3);
        }
        if let Some(limit) = self.budget.max_ops {
            let used = self.ops.load(Ordering::Relaxed);
            qmkp_obs::gauge("rt.ops_headroom", &[], limit.saturating_sub(used) as f64);
        }
    }

    /// Preflight-admits an allocation (or a state of) `bytes` bytes
    /// against the byte ceiling. Rejections count as
    /// `rt.budget_rejections`.
    pub fn admit_bytes(&self, bytes: usize) -> Result<(), RtError> {
        if let Some(limit) = self.budget.max_bytes {
            if bytes > limit {
                qmkp_obs::counter("rt.budget_rejections", &[], 1);
                return Err(RtError::MemoryBudget {
                    required: bytes,
                    limit,
                });
            }
        }
        Ok(())
    }

    fn check_deadline(&self) -> Result<(), RtError> {
        if let Some(deadline) = self.budget.deadline {
            let elapsed = self.start.elapsed();
            if elapsed > deadline {
                return Err(RtError::DeadlineExceeded {
                    elapsed_ms: elapsed.as_millis() as u64,
                    deadline_ms: deadline.as_millis() as u64,
                });
            }
        }
        Ok(())
    }

    /// Builds the `Cancelled` error, reporting the `rt.cancellations`
    /// counter exactly once per context however many polls observe it.
    fn cancelled(&self) -> RtError {
        if !self.cancel_reported.swap(true, Ordering::Relaxed) {
            qmkp_obs::counter("rt.cancellations", &[], 1);
        }
        RtError::Cancelled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_context_admits_everything() {
        let ctx = RtContext::unlimited();
        assert_eq!(ctx.check(), Ok(()));
        assert_eq!(ctx.charge_ops(1 << 40), Ok(()));
        assert_eq!(ctx.admit_bytes(usize::MAX), Ok(()));
    }

    #[test]
    fn op_budget_trips_at_the_limit() {
        let ctx = RtContext::with_budget(Budget::unlimited().with_max_ops(10));
        assert_eq!(ctx.charge_ops(10), Ok(()));
        assert_eq!(
            ctx.charge_ops(1),
            Err(RtError::OpBudget {
                used: 11,
                limit: 10
            })
        );
        assert_eq!(ctx.ops_used(), 11);
    }

    #[test]
    fn byte_budget_rejects_oversized_states() {
        let ctx = RtContext::with_budget(Budget::unlimited().with_max_bytes(100));
        assert_eq!(ctx.admit_bytes(100), Ok(()));
        assert_eq!(
            ctx.admit_bytes(101),
            Err(RtError::MemoryBudget {
                required: 101,
                limit: 100
            })
        );
    }

    #[test]
    fn elapsed_deadline_surfaces_once_hit() {
        let ctx = RtContext::with_budget(Budget::unlimited().with_deadline(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(ctx.check(), Err(RtError::DeadlineExceeded { .. })));
        // charge_ops amortizes the deadline read; by 64 charged ops it
        // must have been read at least once.
        let ctx = RtContext::with_budget(Budget::unlimited().with_deadline(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        let mut tripped = false;
        for _ in 0..64 {
            if ctx.charge_ops(1).is_err() {
                tripped = true;
                break;
            }
        }
        assert!(
            tripped,
            "deadline must surface within one amortization window"
        );
    }

    #[test]
    fn multi_op_charges_read_the_deadline_when_they_cross_the_cadence() {
        // After one unit charge the running count is odd, so charges of
        // two step over every multiple of 64 without landing on one.
        let ctx = RtContext::with_budget(Budget::unlimited().with_deadline(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        let mut result = ctx.charge_ops(1);
        let mut charged = 1;
        while result.is_ok() && charged < 1 + 64 {
            result = ctx.charge_ops(2);
            charged += 2;
        }
        assert!(
            matches!(result, Err(RtError::DeadlineExceeded { .. })),
            "deadline unread after {charged} ops: {result:?}"
        );
    }

    #[test]
    fn headroom_samples_reach_the_event_stream() {
        let collector = std::sync::Arc::new(qmkp_obs::Collector::for_current_thread());
        let _guard = qmkp_obs::attach(collector.clone());
        let ctx = RtContext::with_budget(
            Budget::unlimited()
                .with_deadline(Duration::from_secs(3600))
                .with_max_ops(1_000_000),
        )
        .with_sample_interval(Duration::ZERO);
        for _ in 0..3 {
            ctx.check().unwrap();
        }
        ctx.charge_ops(64).unwrap();
        let deadline_headroom = collector
            .last_gauge("rt.deadline_headroom_ms")
            .expect("deadline headroom sampled");
        assert!(deadline_headroom > 0.0 && deadline_headroom <= 3_600_000.0);
        let ops_headroom = collector
            .last_gauge("rt.ops_headroom")
            .expect("ops headroom sampled");
        assert!(ops_headroom <= 1_000_000.0);
    }

    #[test]
    fn unlimited_budget_emits_no_headroom_samples() {
        let collector = std::sync::Arc::new(qmkp_obs::Collector::for_current_thread());
        let _guard = qmkp_obs::attach(collector.clone());
        let ctx = RtContext::unlimited().with_sample_interval(Duration::ZERO);
        for _ in 0..3 {
            ctx.check().unwrap();
        }
        assert_eq!(collector.last_gauge("rt.deadline_headroom_ms"), None);
        assert_eq!(collector.last_gauge("rt.ops_headroom"), None);
    }

    #[test]
    fn cancellation_surfaces_via_check_and_charge() {
        let token = CancelToken::new();
        let ctx = RtContext::new(Budget::unlimited(), token.clone());
        assert_eq!(ctx.check(), Ok(()));
        token.cancel();
        assert_eq!(ctx.check(), Err(RtError::Cancelled));
        assert_eq!(ctx.charge_ops(1), Err(RtError::Cancelled));
    }
}
