//! One solve plan, walked or raced: budgeted end-to-end solving.
//!
//! The quantum pipeline is memory-hungry (the sparse backend's support
//! grows to `2^n` entries under the uniform superposition), so a
//! budgeted run must decide *before* allocating whether the simulation
//! fits — and, when it does not, still return a valid k-plex. [`solve`]
//! plans every run the same way: a preflight prices the one quantum
//! rung, the sparse statevector, against the [`Budget`]'s byte ceiling,
//! and every solver body — quantum or classical (branch & bound up to
//! the exact threshold, GRASP above it) — verifies its own answer (a
//! non-empty [`is_kplex`] set, or [`RtError::Faulted`]). The plan then
//! runs one of two ways:
//!
//! * **Walked** — the degradation ladder, in the caller's thread and
//!   under the caller's context:
//!
//!   ```text
//!   sparse statevector → classical (BnB / GRASP)
//!   ```
//!
//!   A quantum attempt that does not fit, or that a byte ceiling, op
//!   budget, deadline or fault (after retries) interrupts, degrades to
//!   the classical floor. The run is then marked `degraded = true` (and
//!   counted in `rt.degradations`).
//! * **Raced** — the portfolio, the default whenever the quantum rung
//!   fits ([`SolveConfig::portfolio`] overrides the choice): the
//!   classical body starts at once on its own thread, and the quantum
//!   body is a hedge ([`qmkp_rt::Racer::start_after`]) that starts on a
//!   second thread only if no answer has come within 2 ms, or at once if
//!   the classical body fails first. Both run under one shared cancel
//!   token ([`qmkp_rt::race()`]), and the first verified k-plex wins.
//!   Up to the classical body's exact threshold both racers search for
//!   a maximum k-plex: branch & bound exactly, qMKP up to its error
//!   bound. Branch & bound answers most such instances before the hedge
//!   is due, so the quantum racer then never starts. The token is all
//!   the racers share: each body's answer depends only on the graph,
//!   `k`, the seed and its own budget slice, so the race decides only
//!   which body answers first. A panicking racer becomes
//!   [`RtError::Faulted`] without touching its sibling; when every racer
//!   fails the caller gets [`RtError::AllRacersFailed`]. A race win is
//!   never degraded.
//!
//! Explicit cancellation and configuration errors are never degraded —
//! they surface as errors, because the caller asked for them.
//! [`solve_with`] additionally accepts an [`OracleProvider`], letting a
//! serving layer (the `qmkp-serve` crate) supply pre-compiled oracles
//! from a cross-request cache.

use std::time::{Duration, Instant};

use qmkp_classical::bnb::max_kplex_bnb_ctx;
use qmkp_classical::grasp::grasp_kplex_ctx;
use qmkp_core::{
    qmkp_ctx_with, CompileFresh, OracleLayout, OracleProvider, QmkpCheckpoint, QmkpConfig,
    QmkpOutcome,
};
use qmkp_graph::{is_kplex, Graph, VertexSet};
use qmkp_obs::RunReport;
use qmkp_qsim::SparseState;
use qmkp_rt::{retry, Budget, Interrupted, Racer, RacerOutcome, RetryPolicy, RtContext, RtError};

/// Which rung of the ladder produced the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveBackend {
    /// Dense statevector simulation of the Grover pipeline. No solve
    /// plan produces it any more; the variant stays for callers that
    /// match on it.
    Dense,
    /// Sparse (sorted-vec) statevector simulation.
    Sparse,
    /// Simulated quantum annealing over the QUBO encoding. No solve plan
    /// produces it any more; the variant stays for callers that match on
    /// it.
    Sqa,
    /// Classical exact branch & bound (small graphs).
    ClassicalExact,
    /// Classical GRASP heuristic (large graphs), verified with
    /// [`is_kplex`].
    ClassicalHeuristic,
}

impl SolveBackend {
    /// Stable lowercase name for reports and metrics.
    pub fn name(self) -> &'static str {
        match self {
            SolveBackend::Dense => "dense",
            SolveBackend::Sparse => "sparse",
            SolveBackend::Sqa => "sqa",
            SolveBackend::ClassicalExact => "classical-exact",
            SolveBackend::ClassicalHeuristic => "classical-heuristic",
        }
    }
}

/// Configuration for [`solve`].
#[derive(Debug, Clone, Default)]
pub struct SolveConfig {
    /// The quantum search configuration (seed, reduction, counting mode).
    pub qmkp: QmkpConfig,
    /// Vertex count at or below which the classical body runs exact
    /// branch & bound instead of GRASP. `None` keeps the default (20);
    /// explicit values are honoured verbatim — `Some(0)` forces GRASP on
    /// every graph, which the old `0 = default` sentinel could not
    /// express.
    pub exact_threshold: Option<usize>,
    /// GRASP restarts for the heuristic classical body. `None` keeps the
    /// default (64).
    pub grasp_iterations: Option<usize>,
    /// Whether to race the plan instead of walking it as the sequential
    /// ladder. A race runs the classical body at once and starts the
    /// quantum body as a hedge only if no answer has come within 2 ms, so
    /// a raced solve usually answers from the classical body; `Some(false)`
    /// runs the quantum rung first. `None` is automatic: race whenever
    /// the quantum rung preflights under the byte budget.
    pub portfolio: Option<bool>,
}

/// Outcome of a budgeted [`solve`] run.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// A maximum (quantum / exact bodies) or maximal-effort (heuristic
    /// rung) k-plex, always verified against [`is_kplex`].
    pub best: VertexSet,
    /// The rung that produced `best`.
    pub backend: SolveBackend,
    /// Whether a walked solve fell to the classical floor because the
    /// quantum rung did not fit or did not finish.
    pub degraded: bool,
    /// Why the solver degraded, when it did.
    pub degraded_because: Option<RtError>,
    /// Full quantum outcome when the quantum rung completed.
    pub quantum: Option<QmkpOutcome>,
    /// Race accounting when the portfolio produced the answer; `None`
    /// for sequential-ladder runs.
    pub race: Option<RaceSummary>,
}

impl SolveOutcome {
    /// A run report fragment with the ladder fields filled in, for the
    /// `QMKP_OBS_REPORT` pipeline.
    pub fn report(&self, name: &str) -> RunReport {
        let mut report = RunReport::new(name)
            .outcome("backend", self.backend.name())
            .outcome("degraded", self.degraded)
            .outcome("best_size", self.best.len());
        if let Some(e) = &self.degraded_because {
            report = report.outcome("degraded_because", e);
        }
        if let Some(race) = &self.race {
            report = report
                .outcome("race_winner", race.winner.as_str())
                .outcome("race_launched", race.launched.len())
                .outcome("race_faulted", race.faulted)
                .outcome("race_not_started", race.not_started);
        }
        report
    }
}

/// How one raced [`solve`] went, carried on [`SolveOutcome::race`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceSummary {
    /// The racer that produced the answer (`sparse` or `classical`).
    pub winner: String,
    /// Every racer staked, started or not, the quantum one first.
    pub launched: Vec<&'static str>,
    /// Losers cancelled by the win.
    pub cancelled: usize,
    /// Losers that failed (budget slice, fault, contained panic) before
    /// the win.
    pub faulted: usize,
    /// Hedged racers that never started: the win came before their delay
    /// ran out.
    pub not_started: usize,
    /// How much longer the slowest losing racer ran past the winner's
    /// finish, every racer timed from the race's start
    /// ([`qmkp_rt::RaceWin::win_margin`]); `None` when no loser started.
    pub win_margin: Option<Duration>,
}

/// Estimated peak bytes for a sparse simulation of a graph with `n`
/// vertices: the support holds `2^n` basis states (the uniform vertex
/// register; the Grover driver keeps only the `|O⟩ = 0` half of the `|−⟩`
/// oracle qubit), and a single-qubit gate's scratch vecs hold twice that
/// — `3·2^n·32` for 32-byte `(basis, amplitude)` entries. Saturates to
/// [`usize::MAX`] when the figure does not fit a `usize` — never
/// silently wraps (`checked_shl` loses shifted-out bits without
/// erroring, so a `2usize.checked_shl(w)` formulation returns 0 bytes at
/// width 63 and lets over-wide instances preflight as "fits any
/// budget").
pub fn sparse_cost(n: usize) -> usize {
    let entry = std::mem::size_of::<(u128, [f64; 2])>();
    if n as u32 >= usize::BITS {
        return usize::MAX;
    }
    (1usize << n).saturating_mul(3 * entry)
}

/// The preflight: the quantum rung's projected bytes when they fit the
/// budget's byte ceiling, or else the footprint a walk names in its
/// `MemoryBudget` — `usize::MAX` when the oracle is wider than 128
/// qubits and the quantum rung cannot run at all.
fn preflight(g: &Graph, k: usize, budget: &Budget) -> Result<usize, usize> {
    // The oracle's width is independent of the probe threshold, which
    // only pads constant registers.
    if OracleLayout::try_new(g, k, 1).is_none() {
        return Err(usize::MAX);
    }
    let bytes = sparse_cost(g.n());
    match budget.max_bytes {
        Some(limit) if bytes > limit => Err(bytes),
        _ => Ok(bytes),
    }
}

/// The lane a request lands in before any work happens: whether the
/// preflight cost model admits the quantum rung for this
/// `(graph, k, budget)`. The serving layer shards its worker pools by
/// this, so cheap classical requests never queue behind statevector
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreflightLane {
    /// The sparse statevector fits the byte ceiling.
    Sparse,
    /// The quantum rung does not fit (or the oracle exceeds 128 qubits).
    Classical,
}

impl PreflightLane {
    /// Stable lowercase name for reports and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            PreflightLane::Sparse => "sparse",
            PreflightLane::Classical => "classical",
        }
    }
}

/// Classifies a request by the preflight cost model without running
/// anything, so a scheduler can shard work before committing a worker
/// to it.
pub fn preflight_lane(g: &Graph, k: usize, budget: &Budget) -> PreflightLane {
    match preflight(g, k, budget) {
        Ok(_) => PreflightLane::Sparse,
        Err(_) => PreflightLane::Classical,
    }
}

/// Solves maximum k-plex under a budget, degrading gracefully: the
/// plan is raced or walked as the module docs describe.
///
/// # Errors
/// [`RtError::Cancelled`] or [`RtError::InvalidConfig`], as above, and
/// [`RtError::AllRacersFailed`] when every racer of a race fails. An
/// empty graph or `k == 0` is [`RtError::InvalidConfig`].
pub fn solve(
    g: &Graph,
    k: usize,
    config: &SolveConfig,
    ctx: &RtContext,
) -> Result<SolveOutcome, RtError> {
    solve_with(g, k, config, ctx, &CompileFresh)
}

/// As [`solve`], but obtaining compiled oracles from an explicit
/// [`OracleProvider`] — the entry point the serving layer uses to plug
/// in its cross-request compiled-oracle cache. A cache hit skips oracle
/// construction and circuit compilation entirely.
///
/// # Errors
/// As [`solve`], plus whatever the provider reports.
pub fn solve_with(
    g: &Graph,
    k: usize,
    config: &SolveConfig,
    ctx: &RtContext,
    provider: &dyn OracleProvider,
) -> Result<SolveOutcome, RtError> {
    if g.n() == 0 {
        return Err(RtError::InvalidConfig("graph must be non-empty".into()));
    }
    if k == 0 {
        return Err(RtError::InvalidConfig("k must be ≥ 1".into()));
    }
    let span = qmkp_obs::span("solve.run");
    let plan = Plan {
        g,
        k,
        config,
        provider,
        preflight: preflight(g, k, ctx.budget()),
    };
    // The automatic gate races exactly when the quantum rung preflighted:
    // that is when a race can save the quantum pipeline's worst case,
    // while a pure-classical instance has only one lane to run.
    let result = if config.portfolio.unwrap_or(plan.preflight.is_ok()) {
        plan.race(ctx)
    } else {
        plan.walk(ctx)
    };
    span.finish();
    result
}

/// The greedy/random balance of every GRASP pass.
const GRASP_ALPHA: f64 = 0.3;

/// How long a race gives the classical body before it starts the quantum
/// racer as a hedge. In release timings on a 2-vCPU Xeon VM, branch &
/// bound answered the paper's gate instances and random dense graphs of
/// 8–12 vertices in 2–17 µs (median of 400 runs each), and 180 random
/// `gnm` graphs of 12–20 vertices in at most 1.7 ms. The walked quantum
/// body took 0.1–4.9 ms on the gate instances with a warm oracle cache,
/// over 30 times as long as branch & bound on each, so on such instances
/// the quantum racer never starts.
const HEDGE_AFTER: Duration = Duration::from_millis(2);

/// What a solver body hands back: its verified answer and who found it.
struct Finish {
    best: VertexSet,
    backend: SolveBackend,
    quantum: Option<QmkpOutcome>,
}

/// Builds the [`SolveOutcome`] of a finished plan — the one place that
/// does. A walked answer from the classical floor carries why and
/// counts on `rt.degradations`; a raced answer carries its summary and
/// is never degraded, since a verified answer from any lane is a
/// first-class answer.
fn outcome(
    finish: Finish,
    degraded_because: Option<RtError>,
    race: Option<RaceSummary>,
) -> SolveOutcome {
    let degraded = degraded_because.is_some();
    if degraded {
        qmkp_obs::counter("rt.degradations", &[], 1);
    }
    SolveOutcome {
        best: finish.best,
        backend: finish.backend,
        degraded,
        degraded_because,
        quantum: finish.quantum,
        race,
    }
}

/// Records one walked attempt's wall time as a `solve.rung`
/// observation, labeled with the rung name and whether the run degraded
/// past it. A `None` start means recording was off at rung entry.
fn rung_metric(start: Option<Instant>, rung: SolveBackend, degraded: bool) {
    if let Some(t0) = start {
        qmkp_obs::observe(
            "solve.rung",
            &[
                ("rung", rung.name()),
                ("degraded", if degraded { "true" } else { "false" }),
            ],
            t0.elapsed(),
        );
    }
}

/// One solve, planned: the instance, its configuration, the oracle
/// source, and the preflight's verdict. [`Plan::walk`] and
/// [`Plan::race`] execute it through the same verified solver bodies.
struct Plan<'a> {
    g: &'a Graph,
    k: usize,
    config: &'a SolveConfig,
    provider: &'a dyn OracleProvider,
    /// The preflight's verdict on the quantum rung: its projected bytes
    /// when they fit, or the footprint that did not.
    preflight: Result<usize, usize>,
}

impl Plan<'_> {
    /// Accepts a body's answer only if it is a non-empty k-plex;
    /// anything else is [`RtError::Faulted`] at `solve.<backend>.verify`.
    fn verified(
        &self,
        best: VertexSet,
        backend: SolveBackend,
        quantum: Option<QmkpOutcome>,
    ) -> Result<Finish, RtError> {
        if best.is_empty() || !is_kplex(self.g, best, self.k) {
            return Err(RtError::Faulted {
                site: format!("solve.{}.verify", backend.name()),
            });
        }
        Ok(Finish {
            best,
            backend,
            quantum,
        })
    }

    /// The quantum body: one qMKP search on the sparse statevector,
    /// resuming from `resume` and leaving an interrupted attempt's
    /// checkpoint there for the next one.
    fn quantum(
        &self,
        ctx: &RtContext,
        resume: &mut Option<QmkpCheckpoint>,
    ) -> Result<Finish, RtError> {
        let (g, k, qmkp) = (self.g, self.k, &self.config.qmkp);
        match qmkp_ctx_with::<SparseState>(g, k, qmkp, ctx, resume.as_ref(), self.provider) {
            Ok(out) => self.verified(out.best, SolveBackend::Sparse, Some(out)),
            Err(Interrupted { error, checkpoint }) => {
                *resume = Some(*checkpoint);
                Err(error)
            }
        }
    }

    /// The classical body. Up to the exact threshold, branch & bound,
    /// which seeds its own lower bound greedily; above it, GRASP.
    fn classical(&self, ctx: &RtContext) -> Result<Finish, RtError> {
        let (g, k) = (self.g, self.k);
        if g.n() > self.config.exact_threshold.unwrap_or(20) {
            let iterations = self.config.grasp_iterations.unwrap_or(64);
            let seed = self.config.qmkp.qtkp.seed;
            let best = grasp_kplex_ctx(g, k, iterations, GRASP_ALPHA, seed, ctx)?;
            return self.verified(best, SolveBackend::ClassicalHeuristic, None);
        }
        let out = max_kplex_bnb_ctx(g, k, ctx, None, None)?;
        self.verified(out.best, SolveBackend::ClassicalExact, None)
    }

    /// Walks the plan as the degradation ladder, in the caller's thread
    /// and under the caller's context (see the module docs).
    fn walk(&self, ctx: &RtContext) -> Result<SolveOutcome, RtError> {
        let because = match self.preflight {
            Ok(projected) => {
                qmkp_obs::gauge("solve.preflight_bytes", &[], projected as f64);
                // Transient faults are retried with deterministic jittered
                // backoff, each retry resuming from the checkpoint the
                // interrupted attempt handed back — a retry never repeats
                // completed probes. Terminal errors end the attempt
                // unchanged.
                let policy = RetryPolicy {
                    seed: self.config.qmkp.qtkp.seed,
                    ..RetryPolicy::default()
                };
                let start = qmkp_obs::enabled_for("solve.rung").then(Instant::now);
                let mut resume = None;
                let attempt = retry(&policy, ctx, |_attempt| self.quantum(ctx, &mut resume));
                rung_metric(start, SolveBackend::Sparse, attempt.is_err());
                match attempt {
                    Ok(finish) => return Ok(outcome(finish, None, None)),
                    Err(error @ (RtError::Cancelled | RtError::InvalidConfig(_))) => {
                        return Err(error)
                    }
                    // Byte ceiling, op budget, deadline, fault after
                    // retries: the classical floor still answers.
                    Err(error) => error,
                }
            }
            Err(required) => RtError::MemoryBudget {
                required,
                limit: ctx.budget().max_bytes.unwrap_or(usize::MAX),
            },
        };

        // One last chance for the caller to stop before the floor spends
        // CPU (a cancelled context must never degrade).
        ctx.check()?;
        let floor = RtContext::new(Budget::unlimited(), ctx.token().clone());
        let start = qmkp_obs::enabled_for("solve.rung").then(Instant::now);
        let finish = self.classical(&floor)?;
        rung_metric(start, finish.backend, true);
        Ok(outcome(finish, Some(because), None))
    }

    /// Races the plan: the classical body at once and the quantum rung,
    /// when it preflighted, as a hedge after [`HEDGE_AFTER`], each on its
    /// own thread under one shared token (see the module docs).
    fn race(&self, ctx: &RtContext) -> Result<SolveOutcome, RtError> {
        // A cancelled caller must not spend threads; an invalid quantum
        // configuration must surface as an error even if a heuristic
        // racer could have masked it by winning.
        ctx.check()?;
        self.config.qmkp.qtkp.validate()?;

        let budget = ctx.budget();
        let slice = |max_bytes, max_ops| Budget {
            deadline: budget.deadline,
            max_bytes,
            max_ops,
        };
        let mut launched: Vec<&'static str> = Vec::new();
        let mut racers: Vec<Racer<'_, Finish>> = Vec::new();
        // Under a byte ceiling the quantum racer's private ceiling is its
        // own preflight estimate; it keeps the caller's whole op budget.
        // It gets a single attempt, no retry loop: the classical racer
        // *is* the recovery mechanism, so a faulting rung loses its lane
        // at once instead of spending its slice on backoff. It is a
        // hedge: it starts only if the classical body has not answered
        // within `HEDGE_AFTER`, or at once if that body fails first.
        if let Ok(projected) = self.preflight {
            let name = SolveBackend::Sparse.name();
            launched.push(name);
            racers.push(
                Racer::new(
                    name,
                    slice(budget.max_bytes.and(Some(projected)), budget.max_ops),
                    move |rctx: &RtContext| self.quantum(rctx, &mut None),
                )
                .start_after(HEDGE_AFTER),
            );
        }
        launched.push("classical");
        racers.push(Racer::new(
            "classical",
            slice(None, None),
            move |rctx: &RtContext| self.classical(rctx),
        ));

        for name in &launched {
            qmkp_obs::counter("solve.race.launched", &[("racer", name)], 1);
        }
        qmkp_obs::counter("solve.race.runs", &[], 1);

        let win = match qmkp_rt::race(racers, ctx.token()) {
            Ok(win) => win,
            Err(RtError::AllRacersFailed { failures }) => {
                for (racer, _) in &failures {
                    qmkp_obs::counter("solve.race.faulted", &[("racer", racer.as_str())], 1);
                }
                qmkp_obs::counter("solve.race.all_failed", &[], 1);
                return Err(RtError::AllRacersFailed { failures });
            }
            Err(e) => return Err(e),
        };

        // The race's accounting, on the caller's thread so thread-local
        // trace collectors see it.
        let mut cancelled = 0;
        let mut faulted = 0;
        let mut not_started = 0;
        for report in &win.reports {
            let metric = match report.outcome {
                RacerOutcome::Won => "solve.race.won",
                RacerOutcome::Cancelled => {
                    cancelled += 1;
                    "solve.race.cancelled"
                }
                RacerOutcome::Failed(_) => {
                    faulted += 1;
                    "solve.race.faulted"
                }
                RacerOutcome::NotStarted => {
                    not_started += 1;
                    "solve.race.not_started"
                }
            };
            qmkp_obs::counter(metric, &[("racer", report.name.as_str())], 1);
        }
        if let Some(margin) = win.win_margin {
            qmkp_obs::gauge("solve.race.win_margin_ms", &[], margin.as_secs_f64() * 1e3);
        }
        let summary = RaceSummary {
            winner: win.winner,
            launched,
            cancelled,
            faulted,
            not_started,
            win_margin: win.win_margin,
        };
        Ok(outcome(win.value, None, Some(summary)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp_graph::gen::{gnm, paper_fig1_graph};
    use qmkp_rt::CancelToken;

    /// A config with the portfolio pinned off: these tests assert the
    /// *sequential ladder's* rung-by-rung semantics, which a race would
    /// nondeterministically short-circuit.
    fn ladder_config() -> SolveConfig {
        SolveConfig {
            portfolio: Some(false),
            ..SolveConfig::default()
        }
    }

    #[test]
    fn unlimited_budget_runs_the_quantum_pipeline() {
        let g = paper_fig1_graph();
        let out = solve(&g, 2, &ladder_config(), &RtContext::unlimited()).unwrap();
        assert_eq!(out.best.len(), 4);
        assert!(!out.degraded);
        assert_eq!(out.backend, SolveBackend::Sparse);
        assert!(out.quantum.is_some());
    }

    #[test]
    fn tight_byte_budget_degrades_to_classical() {
        let g = paper_fig1_graph();
        let ctx = RtContext::with_budget(Budget::unlimited().with_max_bytes(1024));
        let out = solve(&g, 2, &SolveConfig::default(), &ctx).unwrap();
        assert!(out.degraded);
        assert!(matches!(
            out.degraded_because,
            Some(RtError::MemoryBudget { .. })
        ));
        assert_eq!(out.backend, SolveBackend::ClassicalExact);
        assert_eq!(out.best.len(), 4, "the floor still finds the optimum");
        assert!(is_kplex(&g, out.best, 2));
    }

    #[test]
    fn op_budget_exhaustion_mid_run_degrades() {
        let g = paper_fig1_graph();
        let ctx = RtContext::with_budget(Budget::unlimited().with_max_ops(100));
        let out = solve(&g, 2, &ladder_config(), &ctx).unwrap();
        assert!(out.degraded);
        assert!(matches!(
            out.degraded_because,
            Some(RtError::OpBudget { .. })
        ));
        assert!(is_kplex(&g, out.best, 2));
        assert_eq!(out.best.len(), 4);
    }

    #[test]
    fn cancellation_is_not_degraded() {
        let g = paper_fig1_graph();
        let ctx = RtContext::new(Budget::unlimited(), CancelToken::cancel_after_checks(0));
        assert_eq!(
            solve(&g, 2, &SolveConfig::default(), &ctx).unwrap_err(),
            RtError::Cancelled
        );
    }

    #[test]
    fn invalid_config_is_an_error_not_a_degradation() {
        let g = paper_fig1_graph();
        let config = SolveConfig {
            qmkp: QmkpConfig {
                qtkp: qmkp_core::QtkpConfig {
                    max_attempts: 0,
                    ..qmkp_core::QtkpConfig::default()
                },
                ..QmkpConfig::default()
            },
            ..SolveConfig::default()
        };
        assert!(matches!(
            solve(&g, 2, &config, &RtContext::unlimited()),
            Err(RtError::InvalidConfig(_))
        ));
    }

    #[test]
    fn empty_graph_is_an_invalid_config() {
        let g = Graph::new(0).unwrap();
        assert!(matches!(
            solve(&g, 2, &SolveConfig::default(), &RtContext::unlimited()),
            Err(RtError::InvalidConfig(_))
        ));
    }

    #[test]
    fn zero_k_is_an_invalid_config() {
        assert!(matches!(
            solve(
                &paper_fig1_graph(),
                0,
                &SolveConfig::default(),
                &RtContext::unlimited()
            ),
            Err(RtError::InvalidConfig(_))
        ));
    }

    #[test]
    fn large_graphs_use_the_heuristic_floor() {
        let g = gnm(40, 200, 3).unwrap();
        let ctx = RtContext::with_budget(Budget::unlimited().with_max_bytes(1 << 20));
        let config = SolveConfig {
            exact_threshold: Some(10),
            ..SolveConfig::default()
        };
        let out = solve(&g, 2, &config, &ctx).unwrap();
        assert!(out.degraded);
        assert_eq!(out.backend, SolveBackend::ClassicalHeuristic);
        assert!(is_kplex(&g, out.best, 2));
        assert!(!out.best.is_empty());
    }

    #[test]
    fn cost_models_saturate_instead_of_wrapping() {
        // Regression: `2usize.checked_shl(63)` is `Some(0)` — shifted-out
        // bits are not an error — so a cost model built on it priced a
        // 63-qubit simulation at 0 bytes and any budget admitted it.
        for n in 62..=65 {
            assert_eq!(sparse_cost(n), usize::MAX, "n {n}");
        }
        // Small widths keep the exact documented formula.
        assert_eq!(sparse_cost(6), 3 * (32 << 6));
        // Monotone up to the saturation point.
        for n in 0..usize::BITS as usize {
            assert!(sparse_cost(n) <= sparse_cost(n + 1));
        }
    }

    /// The preflight admits the sparse rung on `sparse_cost(n)`, so that
    /// figure must bound the bytes the state actually holds, scratch
    /// included, through several Grover iterations.
    #[test]
    fn sparse_cost_bounds_the_observed_peak() {
        use qmkp_graph::gen::{paper_gate_dataset, GATE_DATASETS, GATE_DATASET_K};
        let mut instances = vec![(paper_fig1_graph(), 2)];
        for (n, m) in GATE_DATASETS {
            instances.push((paper_gate_dataset(n, m), 2));
        }
        let (n, m) = GATE_DATASET_K;
        for k in 2..=5 {
            instances.push((paper_gate_dataset(n, m), k));
        }
        for seed in 0..4 {
            instances.push((gnm(8, 12, seed).unwrap(), 2));
        }
        for (g, k) in instances {
            let collector = std::sync::Arc::new(qmkp_obs::Collector::for_current_thread());
            let guard = qmkp_obs::attach(collector.clone());
            let mut driver = qmkp_core::GroverDriver::new(qmkp_core::Oracle::new(&g, k, 3));
            driver.iterate_n(3);
            drop(guard);
            let peak = collector
                .events()
                .iter()
                .filter_map(|ev| match ev {
                    qmkp_obs::Event::Gauge { name, value, .. }
                        if name == "core.grover.mem_bytes" =>
                    {
                        Some(*value)
                    }
                    _ => None,
                })
                .fold(0.0, f64::max);
            assert!(peak > 0.0, "n {} k {k}: no memory gauge", g.n());
            assert!(
                peak <= sparse_cost(g.n()) as f64,
                "n {} k {k}: peak {peak} over the modelled {}",
                g.n(),
                sparse_cost(g.n())
            );
        }
    }

    /// An [`OracleProvider`] whose *first* compile dies on a memory
    /// limit and which behaves normally afterwards — the deterministic
    /// stand-in for a quantum rung that preflights under the ceiling but
    /// trips it mid-run.
    struct FailFirstCompile {
        failed: std::sync::atomic::AtomicBool,
    }

    impl OracleProvider for FailFirstCompile {
        fn compiled_oracle(
            &self,
            g: &Graph,
            k: usize,
            t: usize,
            ctx: &RtContext,
        ) -> Result<std::sync::Arc<qmkp_core::CompiledOracle>, RtError> {
            if !self.failed.swap(true, std::sync::atomic::Ordering::SeqCst) {
                return Err(RtError::MemoryBudget {
                    required: 1 << 40,
                    limit: 1,
                });
            }
            CompileFresh.compiled_oracle(g, k, t, ctx)
        }
    }

    #[test]
    fn mid_run_memory_failure_degrades_to_classical() {
        // The preflight admits the quantum rung, then its first compile
        // trips the byte ceiling: the walk must fall to the classical
        // floor and name that failure, not the preflight's figure.
        let g = paper_fig1_graph();
        assert_eq!(
            preflight_lane(&g, 2, &Budget::unlimited()),
            PreflightLane::Sparse,
            "precondition: preflight must admit the quantum rung"
        );
        let provider = FailFirstCompile {
            failed: std::sync::atomic::AtomicBool::new(false),
        };
        let out = solve_with(&g, 2, &ladder_config(), &RtContext::unlimited(), &provider).unwrap();
        assert_eq!(out.backend, SolveBackend::ClassicalExact);
        assert!(out.degraded);
        assert_eq!(
            out.degraded_because,
            Some(RtError::MemoryBudget {
                required: 1 << 40,
                limit: 1
            })
        );
        assert!(out.quantum.is_none());
        assert_eq!(out.best.len(), 4);
        assert!(is_kplex(&g, out.best, 2));
    }

    /// Every labelled graph on 1–3 vertices, at k = 1 and 2, runs the
    /// quantum rung: these are the smallest oracles (15–26 qubits), and
    /// they answer like every other graph that fits.
    #[test]
    fn the_smallest_graphs_run_the_quantum_rung() {
        use qmkp_classical::naive::max_kplex_naive;
        let pairs = [(0, 1), (0, 2), (1, 2)];
        let mut graphs = vec![Graph::new(1).unwrap()];
        for edges in 0..2 {
            graphs.push(Graph::from_edges(2, pairs.into_iter().take(edges)).unwrap());
        }
        for mask in 0..8 {
            let edges = (0..3).filter(|i| (mask >> i) & 1 == 1).map(|i| pairs[i]);
            graphs.push(Graph::from_edges(3, edges).unwrap());
        }
        assert_eq!(graphs.len(), 11);
        for g in &graphs {
            for k in 1..=2 {
                let case = format!("n {} m {} k {k}", g.n(), g.m());
                assert_eq!(
                    preflight_lane(g, k, &Budget::unlimited()),
                    PreflightLane::Sparse,
                    "{case}"
                );
                let optimum = max_kplex_naive(g, k).len();
                let walked = solve(g, k, &ladder_config(), &RtContext::unlimited()).unwrap();
                assert_eq!(walked.backend, SolveBackend::Sparse, "{case}");
                assert!(!walked.degraded, "{case}");
                assert_eq!(walked.best.len(), optimum, "{case}");
                let raced = solve(g, k, &SolveConfig::default(), &RtContext::unlimited()).unwrap();
                assert_eq!(raced.best.len(), optimum, "{case}");
            }
        }
    }

    #[test]
    fn explicit_zero_exact_threshold_forces_grasp() {
        // Regression: `exact_threshold: 0` used to mean "default (20)",
        // so "always GRASP" was inexpressible. `Some(0)` now is.
        let g = paper_fig1_graph();
        let ctx = RtContext::with_budget(Budget::unlimited().with_max_bytes(1024));
        let config = SolveConfig {
            exact_threshold: Some(0),
            ..SolveConfig::default()
        };
        let out = solve(&g, 2, &config, &ctx).unwrap();
        assert_eq!(out.backend, SolveBackend::ClassicalHeuristic);
        assert!(is_kplex(&g, out.best, 2));
        // And `None` still keeps the default: the same 6-vertex graph
        // lands on exact branch & bound.
        let out = solve(&g, 2, &SolveConfig::default(), &ctx).unwrap();
        assert_eq!(out.backend, SolveBackend::ClassicalExact);
    }

    #[test]
    fn portfolio_races_by_default_and_returns_a_verified_plex() {
        let g = paper_fig1_graph();
        let out = solve(&g, 2, &SolveConfig::default(), &RtContext::unlimited()).unwrap();
        assert!(is_kplex(&g, out.best, 2));
        assert!(!out.best.is_empty());
        assert!(!out.degraded, "a race win is not a degradation");
        assert!(out.degraded_because.is_none());
        let race = out
            .race
            .expect("the auto gate races when a quantum rung preflights");
        // Fig-1's oracle is 68 qubits wide: no dense racer, but the
        // sparse and classical lanes both stake. Whichever lost was
        // cancelled, failed, or (the sparse hedge) never started.
        assert_eq!(race.launched, vec!["sparse", "classical"]);
        assert_eq!(race.cancelled + race.faulted + race.not_started, 1);
        assert!(
            race.launched.iter().any(|&r| r == race.winner),
            "winner {} must be a launched racer",
            race.winner
        );
        // The classical racer's name covers both of its backends.
        let expected = match out.backend {
            SolveBackend::ClassicalExact | SolveBackend::ClassicalHeuristic => "classical",
            other => other.name(),
        };
        assert_eq!(race.winner, expected);
    }

    #[test]
    fn the_quantum_racer_is_a_hedge() {
        // Branch & bound answers fig-1 in microseconds, far inside the
        // 2 ms before the quantum hedge is due, so a raced solve almost
        // never starts it. Twenty races that all start it would mean the
        // quantum racer starts with the race.
        let g = paper_fig1_graph();
        let mut unstarted = 0;
        for _ in 0..20 {
            let out = solve(&g, 2, &SolveConfig::default(), &RtContext::unlimited()).unwrap();
            let race = out.race.expect("fig-1 races");
            if race.not_started == 1 {
                unstarted += 1;
                assert_eq!(race.winner, "classical");
                assert_eq!(out.backend, SolveBackend::ClassicalExact);
                assert!(out.quantum.is_none());
                assert_eq!(race.win_margin, None, "no loser started");
            }
        }
        assert!(unstarted > 0, "the quantum racer started in all 20 races");
    }

    #[test]
    fn forced_portfolio_races_even_pure_classical_instances() {
        // A byte budget that rejects every quantum rung normally means
        // the sequential floor; an explicit opt-in still races, with the
        // classical lane as the only racer.
        let g = paper_fig1_graph();
        let ctx = RtContext::with_budget(Budget::unlimited().with_max_bytes(1024));
        let config = SolveConfig {
            portfolio: Some(true),
            ..SolveConfig::default()
        };
        let out = solve(&g, 2, &config, &ctx).unwrap();
        assert!(is_kplex(&g, out.best, 2));
        let race = out.race.expect("explicit opt-in must race");
        assert_eq!(race.launched, vec!["classical"]);
        assert_eq!(out.backend, SolveBackend::ClassicalExact);
    }

    #[test]
    fn portfolio_config_knob_beats_the_auto_gate() {
        // `Some(false)` on an instance the auto gate would race keeps
        // the sequential ladder: no race summary, quantum backend.
        let g = paper_fig1_graph();
        let out = solve(&g, 2, &ladder_config(), &RtContext::unlimited()).unwrap();
        assert!(out.race.is_none());
        assert_eq!(out.backend, SolveBackend::Sparse);
    }

    #[test]
    fn preflight_lane_matches_rung_selection() {
        // A single-vertex oracle (15 qubits) needs 192 bytes, so even a
        // 1 KiB ceiling admits it.
        let tiny = Graph::new(1).unwrap();
        assert_eq!(
            preflight_lane(&tiny, 1, &Budget::unlimited().with_max_bytes(1024)),
            PreflightLane::Sparse
        );
        // The fig-1 oracle's six vertices need 6 KiB.
        let g = paper_fig1_graph();
        assert_eq!(
            preflight_lane(&g, 2, &Budget::unlimited()),
            PreflightLane::Sparse
        );
        assert_eq!(
            preflight_lane(&g, 2, &Budget::unlimited().with_max_bytes(1024)),
            PreflightLane::Classical
        );
    }

    #[test]
    fn report_carries_the_ladder_fields() {
        let g = paper_fig1_graph();
        let ctx = RtContext::with_budget(Budget::unlimited().with_max_bytes(1024));
        let out = solve(&g, 2, &SolveConfig::default(), &ctx).unwrap();
        let json = out.report("ladder_test").to_json();
        assert!(json.contains("\"degraded\""));
        assert!(json.contains("true"));
        assert!(json.contains("classical-exact"));
    }
}
