//! First-verified-wins racing: run fault-contained racers concurrently
//! under one shared [`CancelToken`].
//!
//! The primitive the raced solve plan (`qmkp::solve`) is built on.
//! Each [`Racer`] runs on its own scoped thread with a private
//! [`RtContext`] over its own [`Budget`] slice; every context polls one
//! shared token, so the first racer to return `Ok` cancels the rest
//! cooperatively. A racer staked with [`Racer::start_after`] is a
//! *hedge* (Dean and Barroso, "The Tail at Scale", CACM 2013): it starts
//! only if no racer has answered once its delay has passed, so a race
//! whose first racer answers quickly spawns one thread, not one per
//! racer. Robustness contract:
//!
//! * a panicking racer is caught with `catch_unwind` and recorded as a
//!   structured [`RtError::Faulted`] — one bad kernel never kills the
//!   process or the race;
//! * a racer failing with `Faulted`/`OpBudget`/`MemoryBudget`/
//!   `DeadlineExceeded` is recorded and the race continues — a hedge
//!   that is still waiting starts at once when no racer is left running;
//! * if *every* racer fails the caller gets
//!   [`RtError::AllRacersFailed`] naming each racer's individual error —
//!   never a panic, never silence;
//! * the caller's own token is honoured: cancellation observed on it is
//!   propagated to the shared race token and surfaces as
//!   [`RtError::Cancelled`]; no hedge starts after it, nor after a win.

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
/// aggregate errors), a private [`Budget`] slice, when it starts, and the
/// closure to run.
pub struct Racer<'f, T> {
    name: String,
    budget: Budget,
    start_after: Duration,
    run: RacerFn<'f, T>,
}

impl<'f, T> Racer<'f, T> {
    /// Builds a racer that starts with the race. The closure receives the
    /// racer's private [`RtContext`] (its budget slice bound to the shared
    /// race token) and must return a *verified* result — the race
    /// declares the first `Ok` the winner without re-checking it.
    pub fn new<F>(name: impl Into<String>, budget: Budget, run: F) -> Self
    where
        F: FnOnce(&RtContext) -> Result<T, RtError> + Send + 'f,
    {
        Racer {
            name: name.into(),
            budget,
            start_after: Duration::ZERO,
            run: Box::new(run),
        }
    }

    /// Stakes the racer as a hedge: it starts once `delay` has passed
    /// since the race's start with no winner. It starts earlier, at once,
    /// when no racer is running — every racer started so far has failed,
    /// or none has started — since no answer can come while it waits. It
    /// never starts after a win or a caller cancel, and then reports
    /// [`RacerOutcome::NotStarted`]. A zero delay, the default, starts the
    /// racer with the race.
    #[must_use]
    pub fn start_after(mut self, delay: Duration) -> Self {
        self.start_after = delay;
        self
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
            .field("start_after", &self.start_after)
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
    /// A hedge ([`Racer::start_after`]) whose closure never ran: the race
    /// was won, or the caller cancelled, before it was due.
    NotStarted,
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
    /// the same clock and a late thread start is not hidden; a hedge's
    /// includes its delay. Zero for a racer that never started.
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
    /// both from the race's start. `None` when no loser started.
    pub win_margin: Option<Duration>,
    /// One report per racer, in staking order.
    pub reports: Vec<RacerReport>,
}

/// Runs the racers concurrently, each from its start time
/// ([`Racer::start_after`]); the first `Ok` wins and cancels the rest
/// through the shared race token.
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
    // Racers not started yet, by staking index; a racer still here when
    // the race ends never started.
    let mut waiting: Vec<Option<Racer<'f, T>>> = racers.into_iter().map(Some).collect();
    let mut winner: Option<usize> = None;

    let race_start = Instant::now();
    std::thread::scope(|scope| {
        let mut running = 0usize;
        loop {
            if caller.peek() {
                shared.cancel();
            }
            // Start every racer that is due, earliest first. One that is
            // not due yet starts anyway when none is running: no answer
            // can come while it waits. A win or a cancel starts nothing.
            let mut next_due = None;
            while !shared.peek() {
                let Some((delay, idx)) = waiting
                    .iter()
                    .enumerate()
                    .filter_map(|(idx, r)| r.as_ref().map(|r| (r.start_after, idx)))
                    .min()
                else {
                    break;
                };
                let due = race_start + delay;
                if running > 0 && Instant::now() < due {
                    next_due = Some(due);
                    break;
                }
                let Some(racer) = waiting[idx].take() else {
                    break;
                };
                let (tx, token) = (tx.clone(), shared.clone());
                scope.spawn(move || {
                    let Racer {
                        name, budget, run, ..
                    } = racer;
                    let ctx = RtContext::new(budget, token);
                    let result = match catch_unwind(AssertUnwindSafe(|| run(&ctx))) {
                        Ok(r) => r,
                        Err(_) => Err(RtError::Faulted {
                            site: format!("race.{name}.panic"),
                        }),
                    };
                    // A send can only fail if the supervisor already gave
                    // up (disconnected receiver); the racer's work is moot
                    // then.
                    let _ = tx.send((idx, result, race_start.elapsed()));
                });
                running += 1;
            }
            if running == 0 {
                break;
            }
            let wait = next_due.map_or(SUPERVISOR_POLL, |due: Instant| {
                due.saturating_duration_since(Instant::now())
                    .min(SUPERVISOR_POLL)
            });
            match rx.recv_timeout(wait) {
                Ok((idx, result, elapsed)) => {
                    running -= 1;
                    if winner.is_none() && result.is_ok() {
                        winner = Some(idx);
                        shared.cancel();
                    }
                    slots[idx] = Some((result, elapsed));
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
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
    for (idx, (name, slot)) in names.iter().zip(slots).enumerate() {
        let (outcome, elapsed) = match slot {
            None if Some(idx) == winner => (RacerOutcome::Won, winner_elapsed),
            None if waiting[idx].is_some() => (RacerOutcome::NotStarted, Duration::ZERO),
            None => {
                // Unreachable in practice (every started racer sends),
                // but account for it structurally rather than trusting
                // the channel.
                let err = RtError::Faulted {
                    site: format!("race.{name}.no-result"),
                };
                errors.push((name.clone(), err.clone()));
                (RacerOutcome::Failed(err), Duration::ZERO)
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
                (outcome, elapsed)
            }
        };
        reports.push(RacerReport {
            name: name.clone(),
            outcome,
            elapsed,
        });
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

    /// Long enough that a hedge with this delay never comes due in a
    /// test: whether it starts depends on the other racers, not on timing.
    const NEVER: Duration = Duration::from_secs(60);

    /// A racer body that records whether it ran, then answers `value`.
    fn flagged(
        ran: &std::sync::atomic::AtomicBool,
        value: usize,
    ) -> impl FnOnce(&RtContext) -> Result<usize, RtError> + Send + '_ {
        move |_ctx: &RtContext| {
            ran.store(true, std::sync::atomic::Ordering::SeqCst);
            Ok(value)
        }
    }

    #[test]
    fn a_hedge_never_starts_after_an_earlier_win() {
        let caller = CancelToken::new();
        let ran = std::sync::atomic::AtomicBool::new(false);
        let racers = vec![
            Racer::new("hedge", Budget::unlimited(), flagged(&ran, 1)).start_after(NEVER),
            Racer::new("fast", Budget::unlimited(), |_ctx: &RtContext| Ok(2usize)),
        ];
        let win = race(racers, &caller).expect("the fast racer wins");
        assert_eq!(win.winner, "fast");
        assert_eq!(win.value, 2);
        assert_eq!(win.reports[0].name, "hedge");
        assert_eq!(win.reports[0].outcome, RacerOutcome::NotStarted);
        assert_eq!(win.reports[0].elapsed, Duration::ZERO);
        assert_eq!(win.reports[1].outcome, RacerOutcome::Won);
        assert_eq!(win.win_margin, None, "no loser started");
        assert!(!ran.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn a_hedge_starts_after_its_delay_when_no_answer_has_come() {
        // The spinner never answers on its own, so only the hedge can win,
        // and it cannot start before its delay while the spinner runs.
        let delay = Duration::from_millis(20);
        let caller = CancelToken::new();
        let racers = vec![
            Racer::new("hedge", Budget::unlimited(), |_ctx: &RtContext| Ok(3usize))
                .start_after(delay),
            Racer::new("spinner", Budget::unlimited(), spin_until_cancelled),
        ];
        let win = race(racers, &caller).expect("the hedge wins");
        assert_eq!(win.winner, "hedge");
        assert_eq!(win.reports[0].outcome, RacerOutcome::Won);
        assert!(
            win.reports[0].elapsed >= delay,
            "the hedge answered at {:?}, before its {delay:?} delay",
            win.reports[0].elapsed
        );
        assert_eq!(win.reports[1].outcome, RacerOutcome::Cancelled);
    }

    #[test]
    fn a_hedge_starts_at_once_when_every_started_racer_has_failed() {
        let caller = CancelToken::new();
        let ran = std::sync::atomic::AtomicBool::new(false);
        let racers = vec![
            Racer::new("hedge", Budget::unlimited(), flagged(&ran, 4)).start_after(NEVER),
            Racer::new("doomed", Budget::unlimited(), |_ctx: &RtContext| {
                Err(RtError::Faulted { site: "x".into() })
            }),
        ];
        let win = race(racers, &caller).expect("the hedge answers for the failed racer");
        assert_eq!(win.winner, "hedge");
        assert_eq!(win.value, 4);
        assert!(ran.load(std::sync::atomic::Ordering::SeqCst));
        assert!(
            win.reports[0].elapsed < NEVER,
            "the hedge waited out its delay"
        );
        assert_eq!(
            win.reports[1].outcome,
            RacerOutcome::Failed(RtError::Faulted { site: "x".into() })
        );
    }

    #[test]
    fn hedged_failures_aggregate_in_staking_order() {
        // The hedge is staked first but fails last: the aggregate still
        // names it first.
        let caller = CancelToken::new();
        let racers: Vec<Racer<'_, usize>> = vec![
            Racer::new("hedge", Budget::unlimited(), |_ctx: &RtContext| {
                Err(RtError::OpBudget { used: 2, limit: 1 })
            })
            .start_after(NEVER),
            Racer::new("first", Budget::unlimited(), |_ctx: &RtContext| {
                Err(RtError::Faulted { site: "x".into() })
            }),
        ];
        match race(racers, &caller).expect_err("no racer can win") {
            RtError::AllRacersFailed { failures } => assert_eq!(
                failures,
                vec![
                    ("hedge".to_string(), RtError::OpBudget { used: 2, limit: 1 }),
                    ("first".to_string(), RtError::Faulted { site: "x".into() }),
                ]
            ),
            other => panic!("expected AllRacersFailed, got {other}"),
        }
    }

    #[test]
    fn a_caller_cancel_before_the_delay_leaves_the_hedge_unstarted() {
        let caller = CancelToken::new();
        let trigger = caller.clone();
        let ran = std::sync::atomic::AtomicBool::new(false);
        let racers = vec![
            Racer::new("hedge", Budget::unlimited(), flagged(&ran, 5)).start_after(NEVER),
            Racer::new("canceller", Budget::unlimited(), move |ctx: &RtContext| {
                trigger.cancel();
                spin_until_cancelled(ctx)
            }),
        ];
        assert!(matches!(race(racers, &caller), Err(RtError::Cancelled)));
        assert!(!ran.load(std::sync::atomic::Ordering::SeqCst));
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
