//! The degradation ladder: budgeted end-to-end solving.
//!
//! The quantum pipeline is memory-hungry (a dense statevector is
//! `16·2^w` bytes; the sparse backend's support still grows to `2^n`
//! entries under the uniform superposition), so a budgeted run must
//! decide *before* allocating whether the simulation fits — and, when it
//! does not, still return a valid k-plex. This module implements the
//! ladder
//!
//! ```text
//! dense statevector → sparse statevector → classical (BnB / GRASP)
//! ```
//!
//! chosen by a preflight cost estimate against the [`Budget`]'s byte
//! ceiling, with a mid-run fallback: if a quantum rung is interrupted by
//! the byte ceiling, the solver falls through to the next rung that
//! preflights under the budget (dense → sparse) before reaching the
//! classical floor; op-budget, deadline, and fault(-after-retries)
//! interruptions degrade straight to the floor, since a lower quantum
//! rung would spend the same exhausted budget. Either way the run is
//! marked `degraded = true` (and counted in `rt.degradations`). Explicit
//! cancellation and configuration errors are *not* degraded — they
//! surface as errors, because the caller asked for them.
//!
//! [`solve_with`] additionally accepts an
//! [`OracleProvider`], letting a serving
//! layer (the `qmkp-serve` crate) supply pre-compiled oracles from a
//! cross-request cache.
//!
//! When at least one quantum rung preflights under the budget the
//! ladder is raced concurrently instead ([`crate::portfolio`]): every
//! staked rung plus an SQA racer and the classical floor run on their
//! own threads under one shared cancel token, first verified k-plex
//! wins. [`SolveConfig::portfolio`] and the `QMKP_PORTFOLIO`
//! environment variable override the automatic gate.

use crate::portfolio::RaceSummary;
use qmkp_annealer::SqaConfig;
use qmkp_classical::bnb::max_kplex_bnb;
use qmkp_classical::grasp::grasp_kplex;
use qmkp_core::{
    qmkp_ctx_with, CompileFresh, OracleLayout, OracleProvider, QmkpCheckpoint, QmkpConfig,
    QmkpOutcome,
};
use qmkp_graph::{is_kplex, Graph, VertexSet};
use qmkp_obs::RunReport;
use qmkp_qsim::{BackendState, DenseState, SparseState, MAX_DENSE_QUBITS};
use qmkp_rt::{retry, Budget, Interrupted, RetryPolicy, RtContext, RtError};

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
    /// Vertex count at or below which the classical floor runs exact
    /// branch & bound instead of GRASP. `None` keeps the default (20);
    /// explicit values are honoured verbatim — `Some(0)` forces GRASP on
    /// every graph, which the old `0 = default` sentinel could not
    /// express.
    pub exact_threshold: Option<usize>,
    /// GRASP restarts for the heuristic floor. `None` keeps the default
    /// (64).
    pub grasp_iterations: Option<usize>,
    /// Whether to race the rungs concurrently
    /// ([`crate::portfolio`]) instead of walking the ladder
    /// sequentially. `None` is automatic: race whenever at least one
    /// quantum rung preflights under the byte budget. The
    /// `QMKP_PORTFOLIO` environment variable (`0`/`false`/`off` or
    /// `1`/`true`/`on`) overrides both this field and the automatic
    /// choice.
    pub portfolio: Option<bool>,
    /// Schedule for the portfolio's SQA racer. `None` uses
    /// [`SqaConfig::default`] reseeded from the quantum seed.
    pub sqa: Option<SqaConfig>,
}

impl SolveConfig {
    pub(crate) fn exact_threshold(&self) -> usize {
        self.exact_threshold.unwrap_or(20)
    }

    pub(crate) fn grasp_iterations(&self) -> usize {
        self.grasp_iterations.unwrap_or(64)
    }
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
                .outcome("race_faulted", race.faulted)
                .outcome("race_warm_starts", race.warm_starts);
        }
        report
    }
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
/// vertices: the support reaches `2^n` basis states under the uniform
/// superposition, with a same-size scratch vec during compaction —
/// `32·2^(n+1)` for 32-byte `(basis, amplitude)` entries. Saturates to
/// [`usize::MAX`] like [`dense_cost`].
pub fn sparse_cost(n: usize) -> usize {
    let entry = std::mem::size_of::<(u128, [f64; 2])>();
    if n as u32 >= usize::BITS - 1 {
        return usize::MAX;
    }
    (1usize << (n + 1)).saturating_mul(entry)
}

fn fits(budget: &Budget, bytes: usize) -> bool {
    budget.max_bytes.is_none_or(|limit| bytes <= limit)
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
/// anything: the same rung-selection logic [`solve`] applies, exposed so
/// a scheduler can shard work before committing a worker to it.
pub fn preflight_lane(g: &Graph, k: usize, budget: &Budget) -> PreflightLane {
    match OracleLayout::try_new(g, k, 1).map(|layout| layout.width) {
        Some(w) if w <= MAX_DENSE_QUBITS && fits(budget, dense_cost(w)) => PreflightLane::Dense,
        Some(w) if w <= 128 && fits(budget, sparse_cost(g.n())) => PreflightLane::Sparse,
        _ => PreflightLane::Classical,
    }
}

/// Runs one quantum rung under the runtime's retry loop. Transient
/// faults (injected via `qmkp_rt::failpoint`, modelling flaky simulated
/// hardware) are retried up to the default [`RetryPolicy`] with
/// deterministic jittered backoff, *resuming from the checkpoint* the
/// interrupted run handed back — a retry never repeats completed binary-
/// search probes. Terminal errors (budget exhaustion, cancellation,
/// invalid config) propagate to the degradation ladder unchanged.
fn quantum_rung<S: BackendState>(
    g: &Graph,
    k: usize,
    config: &SolveConfig,
    ctx: &RtContext,
    provider: &dyn OracleProvider,
) -> Result<QmkpOutcome, RtError> {
    let policy = RetryPolicy {
        seed: config.qmkp.qtkp.seed,
        ..RetryPolicy::default()
    };
    let mut resume: Option<QmkpCheckpoint> = None;
    retry(&policy, ctx, |_attempt| {
        match qmkp_ctx_with::<S>(g, k, &config.qmkp, ctx, resume.as_ref(), provider) {
            Ok(out) => Ok(out),
            Err(Interrupted { error, checkpoint }) => {
                resume = Some(*checkpoint);
                Err(error)
            }
        }
    })
}

/// The classical floor: exact branch & bound on small graphs, GRASP
/// (verified) on everything else.
fn classical_floor(g: &Graph, k: usize, config: &SolveConfig) -> (VertexSet, SolveBackend) {
    if g.n() <= config.exact_threshold() {
        (max_kplex_bnb(g, k), SolveBackend::ClassicalExact)
    } else {
        let best = grasp_kplex(g, k, config.grasp_iterations(), 0.3, config.qmkp.qtkp.seed);
        debug_assert!(is_kplex(g, best, k));
        (best, SolveBackend::ClassicalHeuristic)
    }
}

/// Solves maximum k-plex under a budget, degrading gracefully.
///
/// Preflight picks every rung that fits the byte ceiling, in ladder
/// order. A rung interrupted mid-run by the byte ceiling falls through
/// to the next fitting rung (dense → sparse) before the classical
/// floor; op-budget, deadline, and fault(-after-retries) interruptions
/// degrade straight to the floor (`degraded = true`,
/// `rt.degradations`). [`RtError::Cancelled`] and
/// [`RtError::InvalidConfig`] are returned as errors instead — the
/// former because the caller asked the run to stop, the latter because
/// no amount of degradation fixes a bad configuration.
///
/// # Errors
/// [`RtError::Cancelled`] or [`RtError::InvalidConfig`], as above. An
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
    let result = solve_inner(g, k, config, ctx, provider);
    span.finish();
    result
}

/// Records one attempted rung's wall time into the `solve.rung`
/// histogram, labeled with the rung name and whether the run degraded
/// past it. A `None` start means metrics were disabled at rung entry.
fn rung_metric(start: Option<std::time::Instant>, rung: SolveBackend, degraded: bool) {
    if let Some(t0) = start {
        qmkp_obs::metrics::observe_duration(
            "solve.rung",
            &[
                ("rung", rung.name()),
                ("degraded", if degraded { "true" } else { "false" }),
            ],
            t0.elapsed(),
        );
    }
}

fn solve_inner(
    g: &Graph,
    k: usize,
    config: &SolveConfig,
    ctx: &RtContext,
    provider: &dyn OracleProvider,
) -> Result<SolveOutcome, RtError> {
    // Preflight: lay out the oracle (width is independent of the probe
    // threshold, which only pads constant registers) and cost each rung.
    // A >128-qubit oracle cannot run on any quantum rung — classical only.
    let width = OracleLayout::try_new(g, k, 1).map(|layout| layout.width);
    let budget = ctx.budget();

    // Every quantum rung that fits the byte ceiling, in ladder order.
    let mut rungs: Vec<(SolveBackend, usize)> = Vec::new();
    if let Some(w) = width {
        if w <= MAX_DENSE_QUBITS && fits(budget, dense_cost(w)) {
            rungs.push((SolveBackend::Dense, dense_cost(w)));
        }
        if w <= 128 && fits(budget, sparse_cost(g.n())) {
            rungs.push((SolveBackend::Sparse, sparse_cost(g.n())));
        }
    }

    // Portfolio racing: run the staked lanes concurrently instead of
    // walking the ladder. Opt-out (or forced) via `QMKP_PORTFOLIO`,
    // then the config knob; the automatic default races whenever a
    // quantum rung preflighted, because that is exactly when a race can
    // save the quantum pipeline's worst case.
    if portfolio_enabled(config, &rungs) {
        return crate::portfolio::race_rungs(g, k, config, ctx, provider, &rungs);
    }

    let mut degraded_because: Option<RtError> = None;
    for (backend, projected) in rungs {
        qmkp_obs::gauge("solve.preflight_bytes", projected as f64);
        let rung_start = qmkp_obs::metrics::enabled().then(std::time::Instant::now);
        let attempt = match backend {
            SolveBackend::Dense => quantum_rung::<DenseState>(g, k, config, ctx, provider),
            _ => quantum_rung::<SparseState>(g, k, config, ctx, provider),
        };
        match attempt {
            Ok(out) => {
                // `degraded` records whether a higher rung failed first:
                // a sparse success after a dense memory failure is still
                // a degradation, just not all the way to the floor.
                let degraded = degraded_because.is_some();
                rung_metric(rung_start, backend, degraded);
                if degraded {
                    qmkp_obs::counter("rt.degradations", 1);
                }
                debug_assert!(is_kplex(g, out.best, k));
                return Ok(SolveOutcome {
                    best: out.best,
                    backend,
                    degraded,
                    degraded_because,
                    quantum: Some(out),
                    race: None,
                });
            }
            Err(error @ (RtError::Cancelled | RtError::InvalidConfig(_))) => return Err(error),
            Err(error @ RtError::MemoryBudget { .. }) => {
                // The documented ladder: a rung that dies on the byte
                // ceiling mid-run falls through to the next rung, which
                // preflighted cheaper and may still fit.
                rung_metric(rung_start, backend, true);
                degraded_because.get_or_insert(error);
            }
            Err(other) => {
                // Op budget, deadline, fault-after-retries: a lower
                // quantum rung would spend the same exhausted budget, so
                // degrade straight to the classical floor.
                rung_metric(rung_start, backend, true);
                degraded_because.get_or_insert(other);
                break;
            }
        }
    }

    // Preflight rejected every quantum rung (either the budget is too
    // tight or the instance is too wide to simulate at all), or every
    // attempted rung failed; the first failure names the cause.
    let degraded_because = Some(degraded_because.unwrap_or_else(|| RtError::MemoryBudget {
        required: width.map_or(usize::MAX, |w| sparse_cost(g.n()).min(dense_cost(w))),
        limit: budget.max_bytes.unwrap_or(usize::MAX),
    }));

    // One last chance for the caller to stop before the classical floor
    // spends CPU (a cancelled context must never degrade).
    ctx.check()?;
    qmkp_obs::counter("rt.degradations", 1);
    let floor_start = qmkp_obs::metrics::enabled().then(std::time::Instant::now);
    let (best, backend) = classical_floor(g, k, config);
    rung_metric(floor_start, backend, true);
    assert!(
        is_kplex(g, best, k),
        "classical floor returned an invalid k-plex"
    );
    Ok(SolveOutcome {
        best,
        backend,
        degraded: true,
        degraded_because,
        quantum: None,
        race: None,
    })
}

/// Resolves the portfolio gate: the `QMKP_PORTFOLIO` environment
/// variable wins, then [`SolveConfig::portfolio`], then the automatic
/// rule — race exactly when the preflight staked at least one quantum
/// rung (a pure-classical instance gains nothing from racing its only
/// lane against SQA, and the sequential floor stays deterministic).
fn portfolio_enabled(config: &SolveConfig, rungs: &[(SolveBackend, usize)]) -> bool {
    match std::env::var("QMKP_PORTFOLIO").as_deref() {
        Ok("0") | Ok("false") | Ok("off") => return false,
        Ok("1") | Ok("true") | Ok("on") => return true,
        _ => {}
    }
    config.portfolio.unwrap_or(!rungs.is_empty())
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
        assert_eq!(sparse_cost(6), 32 << 7);
        // Monotone up to the saturation point.
        for w in 0..usize::BITS as usize {
            assert!(dense_cost(w) <= dense_cost(w + 1));
            assert!(sparse_cost(w) <= sparse_cost(w + 1));
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
}
