//! Deadline-aware schedule pacing.
//!
//! Under a `Budget` deadline, a configured sweep schedule either finishes
//! well inside the deadline (wasting the time the caller granted) or runs
//! straight into a [`qmkp_rt::RtError::DeadlineExceeded`] interrupt
//! mid-schedule. [`crate::sqa_qubo_ctx`] therefore *paces* its run: one
//! probe sweep on clones of the generator and the first shot's replicas
//! measures the per-sweep wall cost, and the schedule shrinks to what fits
//! in the remaining time (times [`PACING_SAFETY`] headroom), clamped to
//! `[1, configured]`.
//!
//! Pacing never *extends* a schedule past its configuration, only
//! shortens it, so an un-deadlined run is untouched and results stay
//! deterministic for a fixed effective sweep count.

use qmkp_rt::RtContext;
use std::time::Duration;

/// Fraction of the remaining deadline a paced schedule may consume. The
/// rest is headroom for the probe itself, readout, swap rounds, and the
/// probe under- measuring a warmed-up sweep.
pub const PACING_SAFETY: f64 = 0.8;

/// Remaining wall-clock before the context's deadline, when one is set.
/// Returns `None` for un-deadlined budgets — the caller should then run
/// the configured schedule untouched.
pub fn remaining_deadline(ctx: &RtContext) -> Option<Duration> {
    ctx.budget()
        .deadline
        .map(|d| d.saturating_sub(ctx.elapsed()))
}

/// Sweeps per unit of work that fit the remaining deadline.
///
/// `units` is how many times the sweep schedule will run back-to-back
/// (SQA's shots). The result is `⌊PACING_SAFETY · remaining / (per_sweep · units)⌋` clamped
/// to `[1, configured]`; degenerate measurements (zero-cost probe, zero
/// units) disable pacing and return `configured` unchanged.
pub fn paced_sweeps(
    remaining: Duration,
    per_sweep: Duration,
    units: usize,
    configured: usize,
) -> usize {
    if per_sweep.is_zero() || units == 0 || configured == 0 {
        return configured;
    }
    let budget = remaining.as_secs_f64() * PACING_SAFETY;
    let affordable = budget / (per_sweep.as_secs_f64() * units as f64);
    if !affordable.is_finite() {
        return configured;
    }
    (affordable as usize).clamp(1, configured)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_sweeps_divides_the_budget() {
        // 0.8 × 1s / (1ms × 10 shots) = 80 sweeps.
        let got = paced_sweeps(
            Duration::from_secs(1),
            Duration::from_millis(1),
            10,
            1_000_000,
        );
        assert_eq!(got, 80);
    }

    #[test]
    fn generous_deadlines_keep_the_configured_schedule() {
        let got = paced_sweeps(Duration::from_secs(3600), Duration::from_micros(1), 2, 50);
        assert_eq!(got, 50);
    }

    #[test]
    fn impossible_deadlines_still_run_one_sweep() {
        let got = paced_sweeps(Duration::ZERO, Duration::from_millis(5), 4, 100);
        assert_eq!(got, 1);
        let got = paced_sweeps(Duration::from_nanos(1), Duration::from_secs(1), 1, 100);
        assert_eq!(got, 1);
    }

    #[test]
    fn degenerate_probes_disable_pacing() {
        assert_eq!(
            paced_sweeps(Duration::from_secs(1), Duration::ZERO, 10, 42),
            42
        );
        assert_eq!(
            paced_sweeps(Duration::from_secs(1), Duration::from_millis(1), 0, 42),
            42
        );
    }
}
