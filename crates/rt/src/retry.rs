//! Retry with exponential backoff and deterministic jitter for the
//! stochastic solvers.

use crate::{splitmix64, RtContext, RtError};
use std::time::Duration;

/// Backoff policy for [`retry`]. Delays grow geometrically from
/// [`RetryPolicy::base_delay`], capped at [`RetryPolicy::max_delay`], and
/// each is jittered by a deterministic factor in `[0.5, 1.5)` derived
/// from [`RetryPolicy::seed`] and the attempt index — reproducible runs,
/// no thundering herd.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum attempts (including the first); must be ≥ 1.
    pub attempts: usize,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Ceiling on any single delay.
    pub max_delay: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(100),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff delay before retry number `retry_index`
    /// (0-based: the delay between attempt 0 failing and attempt 1).
    pub fn delay(&self, retry_index: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(2u32.saturating_pow(retry_index))
            .min(self.max_delay);
        // Deterministic jitter factor in [0.5, 1.5).
        let r = splitmix64(self.seed ^ (retry_index as u64).wrapping_mul(0x9E37)) as f64
            / (u64::MAX as f64);
        exp.mul_f64(0.5 + r)
    }
}

/// Runs `op` until it succeeds, fails terminally, or the policy is
/// exhausted. Only *transient* errors ([`RtError::is_transient`], i.e.
/// injected faults modelling flaky hardware) are retried; budget
/// exhaustion, cancellation and config errors propagate immediately.
/// Each retry counts as `rt.retries`, sleeps the jittered backoff
/// (truncated so it cannot overshoot a live deadline), and re-checks the
/// context before re-attempting.
///
/// # Errors
/// The last error returned by `op`, or the context's own error if the
/// budget ran out between attempts.
pub fn retry<T>(
    policy: &RetryPolicy,
    ctx: &RtContext,
    mut op: impl FnMut(usize) -> Result<T, RtError>,
) -> Result<T, RtError> {
    let attempts = policy.attempts.max(1);
    let metered = qmkp_obs::enabled_for("rt.retry.attempt");
    let mut last = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            qmkp_obs::counter("rt.retries", &[], 1);
            let mut delay = policy.delay(attempt as u32 - 1);
            if let Some(deadline) = ctx.budget().deadline {
                let remaining = deadline.saturating_sub(ctx.elapsed());
                delay = delay.min(remaining);
            }
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            qmkp_obs::observe("rt.retry.backoff", &[], delay);
            ctx.check()?;
        }
        let attempt_start = metered.then(std::time::Instant::now);
        let result = op(attempt);
        if let Some(t0) = attempt_start {
            let outcome = if result.is_ok() { "ok" } else { "err" };
            qmkp_obs::observe("rt.retry.attempt", &[("outcome", outcome)], t0.elapsed());
        }
        match result {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt + 1 < attempts => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    // attempts ≥ 1, so the loop ran and `last` is set on this path.
    Err(last.unwrap_or(RtError::InvalidConfig(
        "retry: zero attempts configured".into(),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Budget;

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(50),
            seed: 7,
        }
    }

    #[test]
    fn first_success_needs_no_retry() {
        let ctx = RtContext::unlimited();
        let out = retry(&fast_policy(), &ctx, |_| Ok::<_, RtError>(42));
        assert_eq!(out, Ok(42));
    }

    #[test]
    fn transient_faults_are_retried_until_success() {
        let ctx = RtContext::unlimited();
        let out = retry(&fast_policy(), &ctx, |attempt| {
            if attempt < 2 {
                Err(RtError::Faulted { site: "t".into() })
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out, Ok(2));
    }

    #[test]
    fn exhausted_policy_returns_the_last_fault() {
        let ctx = RtContext::unlimited();
        let out: Result<(), _> = retry(&fast_policy(), &ctx, |_| {
            Err(RtError::Faulted { site: "t".into() })
        });
        assert_eq!(out, Err(RtError::Faulted { site: "t".into() }));
    }

    #[test]
    fn terminal_errors_propagate_without_retry() {
        let ctx = RtContext::unlimited();
        let mut calls = 0;
        let out: Result<(), _> = retry(&fast_policy(), &ctx, |_| {
            calls += 1;
            Err(RtError::Cancelled)
        });
        assert_eq!(out, Err(RtError::Cancelled));
        assert_eq!(calls, 1);
    }

    #[test]
    fn backoff_grows_and_jitter_is_deterministic() {
        let p = RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_secs(1),
            seed: 3,
        };
        assert_eq!(p.delay(0), p.delay(0), "same seed, same delay");
        // Jitter is bounded by [0.5, 1.5), so consecutive exponents
        // cannot shrink by more than 3x; delay(2) uses a 4x exponent over
        // delay(0) and must exceed it.
        assert!(p.delay(2) > p.delay(0));
        let q = RetryPolicy { seed: 4, ..p };
        assert_ne!(q.delay(0), p.delay(0), "different seeds jitter apart");
    }

    #[test]
    fn deadline_expiry_between_attempts_stops_retrying() {
        let ctx =
            RtContext::with_budget(Budget::unlimited().with_deadline(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(3));
        let out: Result<(), _> = retry(&fast_policy(), &ctx, |_| {
            Err(RtError::Faulted { site: "t".into() })
        });
        assert!(matches!(out, Err(RtError::DeadlineExceeded { .. })));
    }
}
