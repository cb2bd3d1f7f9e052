//! # qmkp-rt — execution-control runtime for the qMKP workspace
//!
//! Nothing in the solve path should be able to run away with the machine:
//! a dense simulation allocates `2^w` amplitudes, a Grover schedule runs
//! `O(2^{n/2})` oracle calls, and branch & bound can visit exponentially
//! many nodes. This crate is the supervisor layer the paper's classical
//! post-processing assumes: every long-running pass in `qmkp-qsim`,
//! `qmkp-core` and `qmkp-classical` periodically consults an
//! [`RtContext`] and returns a structured [`RtError`] instead of
//! panicking or running past its budget.
//!
//! * [`Budget`] — wall-clock deadline, byte ceiling, op ceiling
//!   (env-configurable via `QMKP_RT_DEADLINE_MS`, `QMKP_RT_MAX_BYTES`,
//!   `QMKP_RT_MAX_OPS`).
//! * [`CancelToken`] — cooperative cancellation; cloneable, checkable
//!   from any layer, with a deterministic check-count fuse for tests.
//! * [`RtContext`] — binds a budget and a token to a running solve;
//!   checked at kernel-chunk granularity in the simulator, iteration
//!   granularity in the Grover/counting drivers, every restart in GRASP
//!   and every few search nodes in branch & bound.
//! * [`retry()`] — exponential backoff with deterministic jitter for the
//!   stochastic solvers.
//! * [`Checkpoint`] — JSON (de)serialization contract for resumable
//!   solver state (qMKP's binary search), plus [`Interrupted`] — the
//!   "error + resume state" pair a resumable `*_ctx` entry point returns.
//! * [`race()`] — first-verified-wins portfolio racing: fault-contained
//!   racers on scoped threads under one shared token, hedged starts
//!   ([`Racer::start_after`]), panics mapped to structured
//!   [`RtError::Faulted`], aggregate [`RtError::AllRacersFailed`] when
//!   nobody wins.
//! * [`failpoint`] — deterministic fault injection at named sites,
//!   compiled in only under the `failpoints` feature.
//!
//! Counters are reported through `qmkp-obs` under the `rt.*` prefix:
//! `rt.cancellations`, `rt.budget_rejections`, `rt.retries` (and
//! `rt.degradations`, emitted by the degradation ladder in the facade
//! crate).

#![deny(unsafe_code)]
#![warn(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
pub mod budget;
pub mod checkpoint;
pub mod ctx;
pub mod error;
pub mod failpoint;
pub mod race;
pub mod retry;
pub mod token;

pub use budget::Budget;
pub use checkpoint::{load_checkpoint, Checkpoint, Interrupted};
pub use ctx::RtContext;
pub use error::RtError;
pub use race::{race, RaceWin, Racer, RacerOutcome, RacerReport};
pub use retry::{retry, RetryPolicy};
pub use token::CancelToken;

/// SplitMix64 — the deterministic mixer behind [`retry()`]'s jitter.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
