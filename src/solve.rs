//! One solve plan, walked or raced: budgeted end-to-end solving.
//!
//! The quantum pipeline is memory-hungry (a dense statevector is
//! `16·2^w` bytes; the sparse backend's support still grows to `2^n`
//! entries under the uniform superposition), so a budgeted run must
//! decide *before* allocating whether the simulation fits — and, when it
//! does not, still return a valid k-plex. [`solve`] plans every run the
//! same way: a preflight keeps the quantum rungs that fit the
//! [`Budget`]'s byte ceiling, in ladder order, and every solver body —
//! quantum (dense or sparse), SQA, classical (branch & bound or GRASP) —
//! verifies its own answer (a non-empty [`is_kplex`] set, or
//! [`RtError::Faulted`]). The plan then runs one of two ways:
//!
//! * **Walked** — the degradation ladder, in the caller's thread and
//!   under the caller's context:
//!
//!   ```text
//!   dense statevector → sparse statevector → classical (BnB / GRASP)
//!   ```
//!
//!   A rung interrupted by the byte ceiling falls through to the next
//!   rung; op-budget, deadline, and fault(-after-retries) interruptions
//!   degrade straight to the classical floor, since a lower quantum rung
//!   would spend the same exhausted budget. Either way the run is marked
//!   `degraded = true` (and counted in `rt.degradations`).
//! * **Raced** — the portfolio, the default whenever a quantum rung fits
//!   ([`SolveConfig::portfolio`] overrides the choice): the staked rungs,
//!   SQA, and the classical body run on their own threads under one
//!   shared cancel token ([`qmkp_rt::race()`]), and the first verified
//!   k-plex wins. The token is all the racers share: each body's answer
//!   depends only on the graph, `k`, the seed and its own budget slice,
//!   so the race decides only which body answers first. A panicking
//!   racer becomes [`RtError::Faulted`] without touching its siblings;
//!   when every racer fails the caller gets [`RtError::AllRacersFailed`].
//!   A race win is never degraded.
//!
//! Explicit cancellation and configuration errors are never degraded —
//! they surface as errors, because the caller asked for them.
//! [`solve_with`] additionally accepts an [`OracleProvider`], letting a
//! serving layer (the `qmkp-serve` crate) supply pre-compiled oracles
//! from a cross-request cache.

use std::time::{Duration, Instant};

use qmkp_annealer::{sqa_qubo_ctx, SqaConfig};
use qmkp_classical::bnb::max_kplex_bnb_ctx;
use qmkp_classical::grasp::grasp_kplex_ctx;
use qmkp_core::{
    qmkp_ctx_with, CompileFresh, OracleLayout, OracleProvider, QmkpCheckpoint, QmkpConfig,
    QmkpOutcome,
};
use qmkp_graph::{is_kplex, Graph, VertexSet};
use qmkp_obs::RunReport;
use qmkp_qsim::{DenseState, SparseState, MAX_DENSE_QUBITS};
use qmkp_rt::{retry, Budget, Interrupted, Racer, RacerOutcome, RetryPolicy, RtContext, RtError};

/// Which rung of the ladder produced the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveBackend {
    /// Dense statevector simulation of the Grover pipeline.
    Dense,
    /// Sparse (sorted-vec) statevector simulation.
    Sparse,
    /// Simulated quantum annealing over the QUBO encoding (portfolio
    /// racer only), verified with [`is_kplex`].
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
    /// Whether to race the plan concurrently instead of walking it as
    /// the sequential ladder. `None` is automatic: race whenever at
    /// least one quantum rung preflights under the byte budget.
    pub portfolio: Option<bool>,
}

/// Outcome of a budgeted [`solve`] run.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// A maximum (quantum / exact rungs) or maximal-effort (heuristic
    /// rung) k-plex, always verified against [`is_kplex`].
    pub best: VertexSet,
    /// The rung that produced `best`.
    pub backend: SolveBackend,
    /// Whether the solver fell below the preflight-selected rung — to a
    /// lower quantum rung or all the way to the classical floor.
    pub degraded: bool,
    /// Why the solver degraded, when it did.
    pub degraded_because: Option<RtError>,
    /// Full quantum outcome when a quantum rung completed.
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
                .outcome("race_faulted", race.faulted);
        }
        report
    }
}

/// How one raced [`solve`] went, carried on [`SolveOutcome::race`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceSummary {
    /// The racer that produced the answer (`dense`, `sparse`, `sqa`,
    /// `classical`).
    pub winner: String,
    /// Every racer staked, in staking (preflight-cost) order.
    pub launched: Vec<&'static str>,
    /// Losers cancelled by the win.
    pub cancelled: usize,
    /// Losers that failed (budget slice, fault, contained panic) before
    /// the win.
    pub faulted: usize,
    /// Wall-clock gap between the winner and the next racer to finish,
    /// when a runner-up finished at all.
    pub win_margin: Option<Duration>,
}

/// Estimated peak bytes for a dense simulation of `width` qubits:
/// 16-byte amplitudes plus an equal-size permutation scratch buffer,
/// `32·2^width` in total. Saturates to [`usize::MAX`] when the figure
/// does not fit a `usize` — never silently wraps (`checked_shl` loses
/// shifted-out bits without erroring, so the previous
/// `2usize.checked_shl(w)` formulation returned 0 bytes at width 63 and
/// let over-wide instances preflight as "fits any budget").
pub fn dense_cost(width: usize) -> usize {
    if width as u32 >= usize::BITS {
        return usize::MAX;
    }
    (1usize << width).saturating_mul(32)
}

/// Estimated peak bytes for a sparse simulation of a graph with `n`
/// vertices: the support holds `2^(n+1)` basis states (the uniform vertex
/// register times the `|−⟩` oracle qubit), and a single-qubit gate's
/// scratch vecs hold twice that — `3·2^(n+1)·32` for 32-byte
/// `(basis, amplitude)` entries. Saturates to [`usize::MAX`] like
/// [`dense_cost`].
pub fn sparse_cost(n: usize) -> usize {
    let entry = std::mem::size_of::<(u128, [f64; 2])>();
    if n as u32 >= usize::BITS - 1 {
        return usize::MAX;
    }
    (1usize << (n + 1)).saturating_mul(3 * entry)
}

fn fits(budget: &Budget, bytes: usize) -> bool {
    budget.max_bytes.is_none_or(|limit| bytes <= limit)
}

/// The preflight: every quantum rung that fits the budget's byte
/// ceiling, in ladder order (which is also the staking order), each with
/// its projected bytes. Also returns the cheapest quantum footprint,
/// fitting or not — what a walk with no rung to try names in its
/// `MemoryBudget` — which is `usize::MAX` when the oracle is wider than
/// 128 qubits and no quantum rung can run at all.
fn preflight(g: &Graph, k: usize, budget: &Budget) -> (Vec<(SolveBackend, usize)>, usize) {
    // The oracle's width is independent of the probe threshold, which
    // only pads constant registers.
    let Some(width) = OracleLayout::try_new(g, k, 1).map(|layout| layout.width) else {
        return (Vec::new(), usize::MAX);
    };
    let (dense, sparse) = (dense_cost(width), sparse_cost(g.n()));
    let mut rungs = Vec::new();
    if width <= MAX_DENSE_QUBITS && fits(budget, dense) {
        rungs.push((SolveBackend::Dense, dense));
    }
    if fits(budget, sparse) {
        rungs.push((SolveBackend::Sparse, sparse));
    }
    (rungs, dense.min(sparse))
}

/// The lane a request lands in before any work happens: the rung the
/// preflight cost model would pick for this `(graph, k, budget)`. The
/// serving layer shards its worker pools by this, so cheap classical
/// requests never queue behind statevector runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreflightLane {
    /// Dense statevector simulation fits the byte ceiling.
    Dense,
    /// Only the sparse backend fits.
    Sparse,
    /// No quantum rung fits (or the oracle exceeds 128 qubits).
    Classical,
}

impl PreflightLane {
    /// Stable lowercase name for reports and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            PreflightLane::Dense => "dense",
            PreflightLane::Sparse => "sparse",
            PreflightLane::Classical => "classical",
        }
    }
}

/// Classifies a request by the preflight cost model without running
/// anything: the first rung [`solve`]'s preflight selects, exposed so a
/// scheduler can shard work before committing a worker to it.
pub fn preflight_lane(g: &Graph, k: usize, budget: &Budget) -> PreflightLane {
    match preflight(g, k, budget).0.first() {
        Some((SolveBackend::Dense, _)) => PreflightLane::Dense,
        Some(_) => PreflightLane::Sparse,
        None => PreflightLane::Classical,
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
    let (rungs, cheapest) = preflight(g, k, ctx.budget());
    let plan = Plan {
        g,
        k,
        config,
        provider,
        rungs,
        cheapest,
    };
    // The automatic gate races exactly when a quantum rung preflighted:
    // that is when a race can save the quantum pipeline's worst case,
    // while a pure-classical instance gains nothing from racing its only
    // lane against SQA and its walked floor stays deterministic.
    let result = if config.portfolio.unwrap_or(!plan.rungs.is_empty()) {
        plan.race(ctx)
    } else {
        plan.walk(ctx)
    };
    span.finish();
    result
}

/// Restarts of the quick GRASP pass the exact classical body runs
/// before branch & bound: enough for a useful initial lower bound, cheap
/// enough not to delay the bound search.
const QUICK_GRASP_ITERATIONS: usize = 8;

/// The greedy/random balance of every GRASP pass.
const GRASP_ALPHA: f64 = 0.3;

/// The low 128 assignment bits as a basis-state mask — the vertex bits
/// of a QUBO assignment (slack variables beyond bit 127 are irrelevant
/// to decoding, which masks to the vertex register anyway).
fn head_bits(bools: &[bool]) -> u128 {
    bools
        .iter()
        .take(128)
        .enumerate()
        .fold(0u128, |acc, (i, &b)| acc | (u128::from(b)) << i)
}

/// What a solver body hands back: its verified answer and who found it.
struct Finish {
    best: VertexSet,
    backend: SolveBackend,
    quantum: Option<QmkpOutcome>,
}

/// Builds the [`SolveOutcome`] of a finished plan — the one place that
/// does. A walked answer that came from below the preflight's first
/// choice carries why and counts on `rt.degradations`; a raced answer
/// carries its summary and is never degraded, since a verified answer
/// from any lane is a first-class answer.
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
    /// The preflight's quantum rungs, in ladder order, each with its
    /// projected bytes.
    rungs: Vec<(SolveBackend, usize)>,
    /// The cheapest quantum footprint, fitting or not.
    cheapest: usize,
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

    /// The quantum body: one qMKP search on `backend`'s statevector,
    /// resuming from `resume` and leaving an interrupted attempt's
    /// checkpoint there for the next one.
    fn quantum(
        &self,
        backend: SolveBackend,
        ctx: &RtContext,
        resume: &mut Option<QmkpCheckpoint>,
    ) -> Result<Finish, RtError> {
        let (g, k, qmkp, provider) = (self.g, self.k, &self.config.qmkp, self.provider);
        let searched = match backend {
            SolveBackend::Dense => {
                qmkp_ctx_with::<DenseState>(g, k, qmkp, ctx, resume.as_ref(), provider)
            }
            _ => qmkp_ctx_with::<SparseState>(g, k, qmkp, ctx, resume.as_ref(), provider),
        };
        match searched {
            Ok(out) => self.verified(out.best, backend, Some(out)),
            Err(Interrupted { error, checkpoint }) => {
                *resume = Some(*checkpoint);
                Err(error)
            }
        }
    }

    /// The SQA body: QUBO-encode the instance, anneal it with the
    /// default schedule reseeded from the quantum seed, and return the
    /// polished final sample.
    fn sqa(&self, ctx: &RtContext) -> Result<Finish, RtError> {
        let qubo = qmkp_qubo::MkpQubo::new(self.g, qmkp_qubo::MkpQuboParams { k: self.k, r: 2.0 });
        let sqa_config = SqaConfig {
            seed: self.config.qmkp.qtkp.seed,
            ..SqaConfig::default()
        };
        let out = sqa_qubo_ctx(&qubo.model, &sqa_config, ctx)?;
        self.verified(
            qubo.decode_polished(head_bits(&out.best)),
            SolveBackend::Sqa,
            None,
        )
    }

    /// The classical body. Up to the exact threshold, a quick GRASP pass
    /// gives an exact branch & bound its initial lower bound; above it,
    /// the full GRASP run.
    fn classical(&self, ctx: &RtContext) -> Result<Finish, RtError> {
        let (g, k, seed) = (self.g, self.k, self.config.qmkp.qtkp.seed);
        let grasp = |iterations| grasp_kplex_ctx(g, k, iterations, GRASP_ALPHA, seed, ctx);
        if g.n() > self.config.exact_threshold.unwrap_or(20) {
            let best = grasp(self.config.grasp_iterations.unwrap_or(64))?;
            return self.verified(best, SolveBackend::ClassicalHeuristic, None);
        }
        let quick = grasp(QUICK_GRASP_ITERATIONS)?;
        let out = max_kplex_bnb_ctx(g, k, ctx, Some(quick), None)?;
        self.verified(out.best, SolveBackend::ClassicalExact, None)
    }

    /// Walks the plan as the degradation ladder, in the caller's thread
    /// and under the caller's context (see the module docs).
    fn walk(&self, ctx: &RtContext) -> Result<SolveOutcome, RtError> {
        // Transient faults are retried with deterministic jittered
        // backoff, each retry resuming from the checkpoint the
        // interrupted attempt handed back — a retry never repeats
        // completed probes. Terminal errors end the rung unchanged.
        let policy = RetryPolicy {
            seed: self.config.qmkp.qtkp.seed,
            ..RetryPolicy::default()
        };
        let mut degraded_because: Option<RtError> = None;
        for &(backend, projected) in &self.rungs {
            qmkp_obs::gauge("solve.preflight_bytes", &[], projected as f64);
            let start = qmkp_obs::enabled_for("solve.rung").then(Instant::now);
            let mut resume = None;
            let attempt = retry(&policy, ctx, |_attempt| {
                self.quantum(backend, ctx, &mut resume)
            });
            let degraded = attempt.is_err() || degraded_because.is_some();
            rung_metric(start, backend, degraded);
            match attempt {
                // A success after a failed higher rung is still a
                // degradation, just not all the way to the floor.
                Ok(finish) => return Ok(outcome(finish, degraded_because, None)),
                Err(error @ (RtError::Cancelled | RtError::InvalidConfig(_))) => return Err(error),
                // The byte ceiling: the next rung preflighted cheaper
                // and may still fit.
                Err(error @ RtError::MemoryBudget { .. }) => {
                    degraded_because.get_or_insert(error);
                }
                // Op budget, deadline, fault-after-retries: a lower
                // quantum rung would spend the same exhausted budget.
                Err(error) => {
                    degraded_because.get_or_insert(error);
                    break;
                }
            }
        }

        // Preflight rejected every quantum rung, or every attempted rung
        // failed; the first failure names the cause.
        let because = degraded_because.unwrap_or(RtError::MemoryBudget {
            required: self.cheapest,
            limit: ctx.budget().max_bytes.unwrap_or(usize::MAX),
        });
        // One last chance for the caller to stop before the floor spends
        // CPU (a cancelled context must never degrade).
        ctx.check()?;
        let floor = RtContext::new(Budget::unlimited(), ctx.token().clone());
        let start = qmkp_obs::enabled_for("solve.rung").then(Instant::now);
        let finish = self.classical(&floor)?;
        rung_metric(start, finish.backend, true);
        Ok(outcome(finish, Some(because), None))
    }

    /// Races the plan: every staked quantum rung, SQA, and the classical
    /// body on their own threads under one shared token (see the module
    /// docs).
    fn race(&self, ctx: &RtContext) -> Result<SolveOutcome, RtError> {
        // A cancelled caller must not spend threads; an invalid quantum
        // configuration must surface as an error even if a heuristic
        // racer could have masked it by winning.
        ctx.check()?;
        self.config.qmkp.qtkp.validate()?;

        // Each quantum racer gets its own preflight estimate as a private
        // byte ceiling, carved greedily out of the caller's ceiling so
        // concurrent statevectors cannot jointly exceed it. A rung that
        // no longer fits what is left is not launched.
        let budget = ctx.budget();
        let mut staked: Vec<(SolveBackend, Option<usize>)> = Vec::new();
        let mut remaining = budget.max_bytes;
        for &(backend, projected) in &self.rungs {
            match remaining {
                None => staked.push((backend, None)),
                Some(rem) if projected <= rem => {
                    remaining = Some(rem - projected);
                    staked.push((backend, Some(projected)));
                }
                Some(_) => {}
            }
        }
        let ops_each = budget
            .max_ops
            .map(|total| (total / staked.len().max(1) as u64).max(1));
        let slice = |max_bytes, max_ops| Budget {
            deadline: budget.deadline,
            max_bytes,
            max_ops,
        };

        let launched: Vec<&'static str> = staked
            .iter()
            .map(|&(backend, _)| backend.name())
            .chain([SolveBackend::Sqa.name(), "classical"])
            .collect();
        // Quantum racers get a single attempt, no retry loop: the sibling
        // racers *are* the recovery mechanism, so a faulting rung loses
        // its lane at once instead of spending its slice on backoff.
        let mut racers: Vec<Racer<'_, Finish>> = staked
            .iter()
            .map(|&(backend, bytes)| {
                Racer::new(
                    backend.name(),
                    slice(bytes, ops_each),
                    move |rctx: &RtContext| self.quantum(backend, rctx, &mut None),
                )
            })
            .collect();
        racers.push(Racer::new(
            SolveBackend::Sqa.name(),
            slice(None, None),
            move |rctx: &RtContext| self.sqa(rctx),
        ));
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
        assert!(matches!(
            out.backend,
            SolveBackend::Dense | SolveBackend::Sparse
        ));
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
        // bits are not an error — so the old dense cost model priced a
        // 63-qubit simulation at 0 bytes and any budget admitted it.
        assert_ne!(dense_cost(63), 0, "width 63 must not wrap to zero");
        for width in 62..=65 {
            assert_eq!(dense_cost(width), usize::MAX, "width {width}");
        }
        for n in 62..=65 {
            assert_eq!(sparse_cost(n), usize::MAX, "n {n}");
        }
        // Small widths keep the exact documented formulas.
        assert_eq!(dense_cost(10), 32 << 10);
        assert_eq!(dense_cost(0), 32);
        assert_eq!(sparse_cost(6), 3 * (32 << 7));
        // Monotone up to the saturation point.
        for w in 0..usize::BITS as usize {
            assert!(dense_cost(w) <= dense_cost(w + 1));
            assert!(sparse_cost(w) <= sparse_cost(w + 1));
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
    /// stand-in for a dense rung that preflights under the ceiling but
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
    fn dense_memory_failure_falls_through_to_sparse() {
        // Regression: the ladder used to jump from a mid-run dense
        // MemoryBudget failure straight to the classical floor, skipping
        // the sparse rung the module doc promises. Only tiny oracles fit
        // the dense rung (`MAX_DENSE_QUBITS`), so the dense-first
        // preflight needs a single-vertex graph.
        let g = Graph::new(1).unwrap();
        assert_eq!(
            preflight_lane(&g, 1, &Budget::unlimited()),
            PreflightLane::Dense,
            "precondition: preflight must select the dense rung"
        );
        let provider = FailFirstCompile {
            failed: std::sync::atomic::AtomicBool::new(false),
        };
        let out = solve_with(&g, 1, &ladder_config(), &RtContext::unlimited(), &provider).unwrap();
        assert_eq!(
            out.backend,
            SolveBackend::Sparse,
            "the sparse rung must run before the classical floor"
        );
        assert!(out.degraded);
        assert!(
            matches!(
                out.degraded_because,
                Some(RtError::MemoryBudget {
                    required,
                    limit: 1
                }) if required == 1 << 40
            ),
            "degraded_because must name the dense failure: {:?}",
            out.degraded_because
        );
        assert!(out.quantum.is_some(), "a quantum rung did complete");
        assert_eq!(out.best.len(), 1);
        assert!(is_kplex(&g, out.best, 1));
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
        // sparse, SQA, and classical lanes all stake.
        assert_eq!(race.launched, vec!["sparse", "sqa", "classical"]);
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
    fn forced_portfolio_races_even_pure_classical_instances() {
        // A byte budget that rejects every quantum rung normally means
        // the sequential floor; an explicit opt-in still races the SQA
        // and classical lanes against each other.
        let g = paper_fig1_graph();
        let ctx = RtContext::with_budget(Budget::unlimited().with_max_bytes(1024));
        let config = SolveConfig {
            portfolio: Some(true),
            ..SolveConfig::default()
        };
        let out = solve(&g, 2, &config, &ctx).unwrap();
        assert!(is_kplex(&g, out.best, 2));
        let race = out.race.expect("explicit opt-in must race");
        assert_eq!(race.launched, vec!["sqa", "classical"]);
        assert!(matches!(
            out.backend,
            SolveBackend::Sqa | SolveBackend::ClassicalExact
        ));
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
        // The fig-1 oracle is 68 qubits wide — beyond `MAX_DENSE_QUBITS`
        // — so the sparse rung is its ceiling; a single-vertex oracle
        // (15 qubits) fits the dense rung.
        let tiny = Graph::new(1).unwrap();
        assert_eq!(
            preflight_lane(&tiny, 1, &Budget::unlimited()),
            PreflightLane::Dense
        );
        // A budget below the dense footprint but above the sparse one
        // drops the tiny instance one lane.
        assert_eq!(
            preflight_lane(&tiny, 1, &Budget::unlimited().with_max_bytes(1024)),
            PreflightLane::Sparse
        );
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

    #[test]
    fn head_bits_folds_the_low_bits_and_ignores_the_tail() {
        assert_eq!(head_bits(&[]), 0);
        assert_eq!(head_bits(&[true, false, true]), 0b101);
        let mut long = vec![false; 200];
        long[0] = true;
        long[127] = true;
        long[150] = true; // beyond u128: ignored
        assert_eq!(head_bits(&long), 1 | (1u128 << 127));
    }
}
