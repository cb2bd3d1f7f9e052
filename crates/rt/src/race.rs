//! First-verified-wins racing: run fault-contained racers concurrently
//! under one shared [`CancelToken`].
//!
//! The primitive the raced solve plan (`qmkp::solve`) is built on.
//! Each [`Racer`] runs on its own scoped thread with a private
//! [`RtContext`] over its own [`Budget`] slice; every context polls one
//! shared token, so the first racer to return `Ok` cancels the rest
//! cooperatively. Robustness contract:
//!
//! * a panicking racer is caught with `catch_unwind` and recorded as a
//!   structured [`RtError::Faulted`] — one bad kernel never kills the
//!   process or the race;
//! * a racer failing with `Faulted`/`OpBudget`/`MemoryBudget`/
//!   `DeadlineExceeded` is recorded and the race continues;
//! * if *every* racer fails the caller gets
//!   [`RtError::AllRacersFailed`] naming each racer's individual error —
//!   never a panic, never silence;
//! * the caller's own token is honoured: cancellation observed on it is
//!   propagated to the shared race token and surfaces as
//!   [`RtError::Cancelled`].

use crate::{Budget, CancelToken, RtContext, RtError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How often the supervisor thread re-polls the caller's token while
/// waiting for racer results. Cancellation latency for the whole race is
/// bounded by this plus the racers' own check granularity.
const SUPERVISOR_POLL: Duration = Duration::from_millis(5);

/// The boxed body of a racer: runs under the racer's private
/// [`RtContext`] and returns a verified result or a structured error.
type RacerFn<'f, T> = Box<dyn FnOnce(&RtContext) -> Result<T, RtError> + Send + 'f>;

/// One entrant in a race: a name (used in reports, metrics labels and
/// aggregate errors), a private [`Budget`] slice, and the closure to run.
pub struct Racer<'f, T> {
    name: String,
    budget: Budget,
    run: RacerFn<'f, T>,
}

impl<'f, T> Racer<'f, T> {
    /// Builds a racer. The closure receives the racer's private
    /// [`RtContext`] (its budget slice bound to the shared race token)
    /// and must return a *verified* result — the race declares the first
    /// `Ok` the winner without re-checking it.
    pub fn new<F>(name: impl Into<String>, budget: Budget, run: F) -> Self
    where
        F: FnOnce(&RtContext) -> Result<T, RtError> + Send + 'f,
    {
        Racer {
            name: name.into(),
            budget,
            run: Box::new(run),
        }
    }

    /// The racer's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The budget slice this racer will run under.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }
}

impl<T> std::fmt::Debug for Racer<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Racer")
            .field("name", &self.name)
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

/// How one racer ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RacerOutcome {
    /// First verified result — this racer's value was returned.
    Won,
    /// Stopped because the race was decided (or the caller cancelled);
    /// includes racers that finished correctly but after the winner.
    Cancelled,
    /// Failed on its own: fault, exhausted budget slice, or a panic
    /// mapped to [`RtError::Faulted`].
    Failed(RtError),
}

/// Per-racer account of a finished race, in staking order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RacerReport {
    /// The racer's name.
    pub name: String,
    /// How it ended.
    pub outcome: RacerOutcome,
    /// Wall-clock time from the race's start (one instant, taken before
    /// any racer is spawned) to the racer's return, so every report reads
    /// the same clock and a late thread start is not hidden.
    pub elapsed: Duration,
}

/// A decided race: the winning value plus the full per-racer account.
#[derive(Debug)]
pub struct RaceWin<T> {
    /// The first verified result.
    pub value: T,
    /// Name of the racer that produced it.
    pub winner: String,
    /// How much longer the slowest losing racer kept running past the
    /// winner's finish: its [`RacerReport::elapsed`] minus the winner's,
    /// both from the race's start. `None` for a single-racer field.
    pub win_margin: Option<Duration>,
    /// One report per racer, in staking order.
    pub reports: Vec<RacerReport>,
}

/// Runs every racer concurrently; the first `Ok` wins and cancels the
/// rest through the shared race token.
///
/// `caller` is the *outer* cancellation token (e.g. the solve context's):
/// it is only peeked, never burned, and a cancellation observed on it is
/// propagated to the racers and returned as [`RtError::Cancelled`]. When
/// no racer produces a verified result the error is
/// [`RtError::AllRacersFailed`] naming every racer's failure.
pub fn race<'f, T: Send>(
    racers: Vec<Racer<'f, T>>,
    caller: &CancelToken,
) -> Result<RaceWin<T>, RtError> {
    if racers.is_empty() {
        return Err(RtError::InvalidConfig(
            "race requires at least one racer".into(),
        ));
    }
    if caller.peek() {
        return Err(RtError::Cancelled);
    }
    let names: Vec<String> = racers.iter().map(|r| r.name.clone()).collect();
    let total = racers.len();
    let shared = CancelToken::new();
    let (tx, rx) = mpsc::channel::<(usize, Result<T, RtError>, Duration)>();
    let mut slots: Vec<Option<(Result<T, RtError>, Duration)>> = Vec::new();
    slots.resize_with(total, || None);
    let mut winner: Option<usize> = None;

    let race_start = Instant::now();
    std::thread::scope(|scope| {
        for (idx, racer) in racers.into_iter().enumerate() {
            let tx = tx.clone();
            let token = shared.clone();
            scope.spawn(move || {
                let Racer { name, budget, run } = racer;
                let ctx = RtContext::new(budget, token);
                let result = match catch_unwind(AssertUnwindSafe(|| run(&ctx))) {
                    Ok(r) => r,
                    Err(_) => Err(RtError::Faulted {
                        site: format!("race.{name}.panic"),
                    }),
                };
                // A send can only fail if the supervisor already gave up
                // (disconnected receiver); the racer's work is moot then.
                let _ = tx.send((idx, result, race_start.elapsed()));
            });
        }
        drop(tx);
        let mut received = 0;
        while received < total {
            match rx.recv_timeout(SUPERVISOR_POLL) {
                Ok((idx, result, elapsed)) => {
                    received += 1;
                    if winner.is_none() && result.is_ok() {
                        winner = Some(idx);
                        shared.cancel();
                    }
                    slots[idx] = Some((result, elapsed));
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if caller.peek() {
                        shared.cancel();
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
    });

    let mut value: Option<T> = None;
    let mut winner_elapsed = Duration::ZERO;
    if let Some(idx) = winner {
        if let Some((Ok(v), elapsed)) = slots[idx].take() {
            winner_elapsed = elapsed;
            value = Some(v);
        }
    }

    let mut reports: Vec<RacerReport> = Vec::with_capacity(total);
    let mut errors: Vec<(String, RtError)> = Vec::new();
    let mut slowest_loser: Option<Duration> = None;
    for (idx, slot) in slots.into_iter().enumerate() {
        let name = names[idx].clone();
        match slot {
            None if Some(idx) == winner => reports.push(RacerReport {
                name,
                outcome: RacerOutcome::Won,
                elapsed: winner_elapsed,
            }),
            None => {
                // Unreachable in practice (every spawned racer sends),
                // but account for it structurally rather than trusting
                // the channel.
                let err = RtError::Faulted {
                    site: format!("race.{name}.no-result"),
                };
                errors.push((name.clone(), err.clone()));
                reports.push(RacerReport {
                    name,
                    outcome: RacerOutcome::Failed(err),
                    elapsed: Duration::ZERO,
                });
            }
            Some((result, elapsed)) => {
                if winner.is_some() {
                    slowest_loser = Some(slowest_loser.map_or(elapsed, |s| s.max(elapsed)));
                }
                let outcome = match result {
                    // Finished correctly but after the winner: a loss,
                    // not a failure.
                    Ok(_) | Err(RtError::Cancelled) => RacerOutcome::Cancelled,
                    Err(e) => {
                        errors.push((name.clone(), e.clone()));
                        RacerOutcome::Failed(e)
                    }
                };
                reports.push(RacerReport {
                    name,
                    outcome,
                    elapsed,
                });
            }
        }
    }

    match (winner, value) {
        (Some(idx), Some(v)) => Ok(RaceWin {
            value: v,
            winner: names[idx].clone(),
            win_margin: slowest_loser.map(|s| s.saturating_sub(winner_elapsed)),
            reports,
        }),
        _ => {
            if caller.peek() {
                return Err(RtError::Cancelled);
            }
            Err(RtError::AllRacersFailed { failures: errors })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin_until_cancelled(ctx: &RtContext) -> Result<usize, RtError> {
        loop {
            ctx.check()?;
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn first_ok_wins_and_cancels_the_rest() {
        let caller = CancelToken::new();
        let racers = vec![
            Racer::new("spinner", Budget::unlimited(), spin_until_cancelled),
            Racer::new("fast", Budget::unlimited(), |_ctx: &RtContext| Ok(7usize)),
        ];
        let win = race(racers, &caller).expect("fast racer wins");
        assert_eq!(win.value, 7);
        assert_eq!(win.winner, "fast");
        assert_eq!(win.reports.len(), 2);
        assert_eq!(win.reports[0].name, "spinner");
        assert_eq!(win.reports[0].outcome, RacerOutcome::Cancelled);
        assert_eq!(win.reports[1].outcome, RacerOutcome::Won);
        assert!(win.win_margin.is_some());
        assert!(!caller.peek(), "race must not cancel the caller's token");
    }

    #[test]
    fn racers_are_timed_from_one_race_start() {
        // The loser returns only after the cancel, which the supervisor
        // sends once the winner's result has arrived: on one clock its
        // elapsed time cannot be the smaller.
        let caller = CancelToken::new();
        let racers = vec![
            Racer::new("winner", Budget::unlimited(), |_ctx: &RtContext| Ok(1usize)),
            Racer::new("loser", Budget::unlimited(), spin_until_cancelled),
        ];
        let win = race(racers, &caller).expect("the winner wins");
        let (winner, loser) = (&win.reports[0], &win.reports[1]);
        assert_eq!(winner.outcome, RacerOutcome::Won);
        assert_eq!(loser.outcome, RacerOutcome::Cancelled);
        assert!(
            loser.elapsed >= winner.elapsed,
            "loser {:?} < winner {:?}",
            loser.elapsed,
            winner.elapsed
        );
        assert_eq!(win.win_margin, Some(loser.elapsed - winner.elapsed));
    }

    #[test]
    fn panicking_racer_is_contained_and_named() {
        let caller = CancelToken::new();
        let racers = vec![
            Racer::new(
                "bomb",
                Budget::unlimited(),
                |_ctx: &RtContext| -> Result<usize, RtError> { panic!("boom") },
            ),
            Racer::new("steady", Budget::unlimited(), |ctx: &RtContext| {
                std::thread::sleep(Duration::from_millis(5));
                ctx.check()?;
                Ok(1usize)
            }),
        ];
        let win = race(racers, &caller).expect("steady racer survives the panic");
        assert_eq!(win.winner, "steady");
        match &win.reports[0].outcome {
            RacerOutcome::Failed(RtError::Faulted { site }) => {
                assert_eq!(site, "race.bomb.panic");
            }
            other => panic!("expected a contained panic, got {other:?}"),
        }
    }

    #[test]
    fn all_failures_aggregate_with_every_racer_named() {
        let caller = CancelToken::new();
        let racers: Vec<Racer<'_, usize>> = vec![
            Racer::new("a", Budget::unlimited(), |_ctx: &RtContext| {
                Err(RtError::Faulted { site: "x".into() })
            }),
            Racer::new("b", Budget::unlimited(), |_ctx: &RtContext| {
                Err(RtError::OpBudget { used: 2, limit: 1 })
            }),
        ];
        let err = race(racers, &caller).expect_err("no racer can win");
        match err {
            RtError::AllRacersFailed { failures } => {
                assert_eq!(failures.len(), 2);
                assert_eq!(failures[0].0, "a");
                assert_eq!(failures[0].1, RtError::Faulted { site: "x".into() });
                assert_eq!(failures[1].0, "b");
                assert_eq!(failures[1].1, RtError::OpBudget { used: 2, limit: 1 });
            }
            other => panic!("expected AllRacersFailed, got {other}"),
        }
    }

    #[test]
    fn budget_slices_are_private_per_racer() {
        let caller = CancelToken::new();
        let racers = vec![
            Racer::new(
                "starved",
                Budget::unlimited().with_max_ops(4),
                |ctx: &RtContext| {
                    ctx.charge_ops(100)?;
                    Ok(0usize)
                },
            ),
            Racer::new(
                "funded",
                Budget::unlimited().with_max_ops(1_000),
                |ctx: &RtContext| {
                    std::thread::sleep(Duration::from_millis(3));
                    ctx.charge_ops(100)?;
                    Ok(9usize)
                },
            ),
        ];
        let win = race(racers, &caller).expect("funded racer wins");
        assert_eq!(win.value, 9);
        assert!(matches!(
            win.reports[0].outcome,
            RacerOutcome::Failed(RtError::OpBudget { .. })
        ));
    }

    #[test]
    fn pre_cancelled_caller_short_circuits() {
        let caller = CancelToken::new();
        caller.cancel();
        let racers = vec![Racer::new(
            "never-runs",
            Budget::unlimited(),
            |_ctx: &RtContext| Ok(1usize),
        )];
        assert!(matches!(race(racers, &caller), Err(RtError::Cancelled)));
    }

    #[test]
    fn caller_cancellation_mid_race_propagates() {
        let caller = CancelToken::new();
        let trigger = caller.clone();
        let racers = vec![
            Racer::new("canceller", Budget::unlimited(), move |ctx: &RtContext| {
                std::thread::sleep(Duration::from_millis(5));
                trigger.cancel();
                spin_until_cancelled(ctx)
            }),
            Racer::new("spinner", Budget::unlimited(), spin_until_cancelled),
        ];
        assert!(matches!(race(racers, &caller), Err(RtError::Cancelled)));
    }

    #[test]
    fn empty_race_is_an_invalid_config() {
        let caller = CancelToken::new();
        let racers: Vec<Racer<'_, usize>> = Vec::new();
        assert!(matches!(
            race(racers, &caller),
            Err(RtError::InvalidConfig(_))
        ));
    }
}
