//! Algorithm 2 of the paper: **qTKP** — find a k-plex of size at least `T`.
//!
//! Builds the oracle, estimates the number of marked states `M`, runs
//! `⌊(π/4)√(2ⁿ/M)⌋` Grover iterations on the sparse simulator, measures
//! the vertex register, and *classically verifies* the measured set (the
//! standard Grover postprocessing — a wrong collapse is detected and
//! retried, which is how the paper's `π²/(4I)²ᶜ` error amplification
//! works).

use crate::compiled::{CompileFresh, OracleProvider};
use crate::counting::{exact_solution_count, quantum_count_ctx, solutions};
pub use crate::grover::SectionTimes;
use crate::grover::{optimal_iterations, GroverDriver};
use crate::oracle::OracleSectionCost;
use qmkp_graph::{Graph, VertexSet};
use qmkp_qsim::{BackendState, SimError, SparseState};
use qmkp_rt::{RtContext, RtError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Folds a simulator error into the runtime taxonomy: interruptions pass
/// through, anything else (compile/width errors on caller-built circuits)
/// is a configuration problem.
pub(crate) fn rt_from_sim(e: SimError) -> RtError {
    match e {
        SimError::Interrupted(rt) => rt,
        other => RtError::InvalidConfig(format!("simulator: {other}")),
    }
}

/// How qTKP obtains the marked-state count `M`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MEstimate {
    /// Exact classical census of the oracle predicate (free on a
    /// simulator; the default).
    Exact,
    /// A caller-provided value (e.g. from a prior census).
    Given(u64),
    /// Simulated Brassard-Høyer-Tapp quantum counting with the given
    /// number of counting qubits.
    QuantumCounting {
        /// Number of phase-estimation counting qubits (1..=20).
        precision: usize,
    },
    /// No estimate at all: the Boyer-Brassard-Høyer-Tapp exponential
    /// search — run a uniformly random number of iterations below a bound
    /// that grows by `lambda` each round, measure, verify classically.
    /// Finds a solution in expected `O(√(N/M))` oracle calls without ever
    /// knowing `M`.
    Unknown {
        /// Growth factor of the iteration bound, in `(1, 4/3]` per the
        /// original analysis (6/5 is the classic choice).
        lambda: f64,
    },
}

/// Configuration for a qTKP run.
#[derive(Debug, Clone)]
pub struct QtkpConfig {
    /// How to estimate `M`.
    pub m_estimate: MEstimate,
    /// RNG seed for measurement sampling (and quantum counting).
    pub seed: u64,
    /// Maximum number of measure-and-verify attempts before reporting `∅`.
    /// Each attempt corresponds to re-running the algorithm on hardware;
    /// the paper's error probability `π²/(4I)²` shrinks to
    /// `π²/(4I)^(2c)` with `c` attempts.
    pub max_attempts: usize,
}

impl Default for QtkpConfig {
    fn default() -> Self {
        QtkpConfig {
            m_estimate: MEstimate::Exact,
            seed: 0xC0FFEE,
            max_attempts: 3,
        }
    }
}

impl QtkpConfig {
    /// Validates the configuration, returning a structured error instead
    /// of clamping or panicking: `max_attempts` must be at least 1, a BBHT
    /// `lambda` must lie in `(1, 4/3]`, and a quantum-counting precision
    /// must lie in `1..=20`.
    ///
    /// # Errors
    /// [`RtError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), RtError> {
        if self.max_attempts == 0 {
            return Err(RtError::InvalidConfig(
                "max_attempts must be at least 1".into(),
            ));
        }
        match self.m_estimate {
            MEstimate::Unknown { lambda } if !(lambda > 1.0 && lambda <= 4.0 / 3.0) => Err(
                RtError::InvalidConfig(format!("lambda must be in (1, 4/3], got {lambda}")),
            ),
            MEstimate::QuantumCounting { precision } if !(1..=20).contains(&precision) => Err(
                RtError::InvalidConfig(format!("precision must be in 1..=20, got {precision}")),
            ),
            _ => Ok(()),
        }
    }
}

/// The result of a qTKP run.
#[derive(Debug, Clone)]
pub struct QtkpOutcome {
    /// A verified k-plex of size ≥ T, or `None` (the paper's `∅`).
    pub result: Option<VertexSet>,
    /// Raw measurements taken (last one is the accepted one on success).
    pub measured: Vec<VertexSet>,
    /// Grover iterations performed.
    pub iterations: usize,
    /// The `M` used to pick the iteration count.
    pub m: u64,
    /// Exact probability mass on solution states in the final state.
    pub success_probability: f64,
    /// Single-shot error probability `1 − success_probability`.
    pub error_probability: f64,
    /// Wall-time attribution per oracle section.
    pub times: SectionTimes,
    /// Static per-section elementary gate cost of one `U_check`.
    pub oracle_cost: OracleSectionCost,
    /// Total wall time of the run.
    pub elapsed: Duration,
    /// Total circuit width (qubits) used.
    pub qubits: usize,
}

/// Why a qTKP probe stopped, paired with how far its Grover phase got —
/// the intra-probe resolution [`crate::qmkp::QmkpCheckpoint`] records so
/// a resumed binary search replays completed iterations instead of
/// restarting the probe from iteration zero.
#[derive(Debug)]
pub struct ProbeInterrupt {
    /// The structured stop reason.
    pub error: RtError,
    /// Grover iterations completed before the stop (0 when the stop
    /// happened before or outside the iteration phase, and always 0 on
    /// the BBHT path, which stays probe-granular — its per-round
    /// iteration counts are drawn from the RNG, so a partial round is
    /// not replayable from a count alone).
    pub iterations_done: usize,
}

/// Runs qTKP: search for a k-plex of size at least `t` in `g`.
///
/// Legacy infallible surface on the sparse backend; budget-aware callers
/// use [`qtkp_ctx`].
///
/// # Panics
/// Panics on invalid `k` / `t` (see [`crate::layout::OracleLayout::new`])
/// and on an invalid configuration (see [`QtkpConfig::validate`]).
pub fn qtkp(g: &Graph, k: usize, t: usize, config: &QtkpConfig) -> QtkpOutcome {
    qtkp_ctx::<SparseState>(g, k, t, config, &RtContext::unlimited())
        .expect("unlimited context: only invalid configuration can fail")
}

/// Runs qTKP under an execution-runtime context, on an explicit backend
/// (the sparse default, or the dense statevector, which holds oracles of
/// at most `MAX_DENSE_QUBITS` qubits). The configuration is validated
/// up front; the context is polled at Grover-iteration granularity and
/// charged per kernel section.
///
/// # Errors
/// [`RtError::InvalidConfig`] for a rejected configuration, or the
/// budget/cancellation/fault error that interrupted the run.
///
/// # Panics
/// Panics on invalid `k` / `t` (see [`crate::layout::OracleLayout::new`]).
pub fn qtkp_ctx<S: BackendState>(
    g: &Graph,
    k: usize,
    t: usize,
    config: &QtkpConfig,
    ctx: &RtContext,
) -> Result<QtkpOutcome, RtError> {
    qtkp_ctx_with::<S>(g, k, t, config, ctx, &CompileFresh)
}

/// As [`qtkp_ctx`], but obtaining the compiled oracle from an explicit
/// [`OracleProvider`] — the seam a cross-request oracle cache plugs into.
/// A cache hit skips oracle construction and circuit compilation
/// entirely; only the state is (budget-admitted and) allocated.
///
/// # Errors
/// As [`qtkp_ctx`], plus whatever the provider reports.
pub fn qtkp_ctx_with<S: BackendState>(
    g: &Graph,
    k: usize,
    t: usize,
    config: &QtkpConfig,
    ctx: &RtContext,
    provider: &dyn OracleProvider,
) -> Result<QtkpOutcome, RtError> {
    qtkp_probe_ctx_with::<S>(g, k, t, config, ctx, provider, 0).map_err(|pi| pi.error)
}

/// As [`qtkp_ctx_with`], with intra-probe resume: `replay` completed
/// Grover iterations from an earlier interrupted run of the *same*
/// `(g, k, t, config)` probe are re-executed without runtime polls
/// (deterministically rebuilding the pre-interrupt state, see
/// [`GroverDriver::iterate_n_ctx_resume`]) before live, budget-polled
/// iterations continue. On interruption the error carries how many
/// iterations had completed, so the caller's checkpoint can hand the
/// count back on the next resume.
///
/// # Errors
/// [`ProbeInterrupt`] pairing the [`RtError`] of [`qtkp_ctx_with`] with
/// the completed-iteration count.
pub fn qtkp_probe_ctx_with<S: BackendState>(
    g: &Graph,
    k: usize,
    t: usize,
    config: &QtkpConfig,
    ctx: &RtContext,
    provider: &dyn OracleProvider,
    replay: usize,
) -> Result<QtkpOutcome, ProbeInterrupt> {
    let probe_granular = |error: RtError| ProbeInterrupt {
        error,
        iterations_done: 0,
    };
    config.validate().map_err(probe_granular)?;
    if let MEstimate::Unknown { lambda } = config.m_estimate {
        return qtkp_unknown_m_ctx::<S>(g, k, t, config, lambda, ctx, provider)
            .map_err(probe_granular);
    }
    let span = qmkp_obs::span("core.qtkp.run");
    let result = qtkp_known_m_ctx::<S>(g, k, t, config, ctx, provider, replay);
    span.finish();
    result
}

#[allow(clippy::too_many_arguments)]
fn qtkp_known_m_ctx<S: BackendState>(
    g: &Graph,
    k: usize,
    t: usize,
    config: &QtkpConfig,
    ctx: &RtContext,
    provider: &dyn OracleProvider,
    replay: usize,
) -> Result<QtkpOutcome, ProbeInterrupt> {
    let probe_granular = |error: RtError| ProbeInterrupt {
        error,
        iterations_done: 0,
    };
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let compiled = provider
        .compiled_oracle(g, k, t, ctx)
        .map_err(probe_granular)?;
    let oracle = compiled.oracle_arc();
    let qubits = oracle.layout.width;
    let oracle_cost = oracle.section_cost();
    let n = oracle.layout.n;

    let true_m = exact_solution_count(&oracle);
    let m = match config.m_estimate {
        MEstimate::Given(m) => m,
        MEstimate::QuantumCounting { precision } => {
            quantum_count_ctx(n, true_m, precision, &mut rng, ctx).map_err(probe_granular)?
        }
        // Exact; Unknown was dispatched to the BBHT path by the caller.
        _ => true_m,
    };

    let iterations = optimal_iterations(n, m);
    let mut driver =
        GroverDriver::<_, S>::try_new_precompiled_ctx(oracle, compiled.circuits().clone(), ctx)
            .map_err(|e| probe_granular(rt_from_sim(e)))?;
    let live = driver.iterate_n_ctx_resume(iterations, replay, ctx);
    if let Err(e) = live {
        return Err(ProbeInterrupt {
            error: rt_from_sim(e),
            iterations_done: driver.iterations_done(),
        });
    }

    let sols = solutions(driver.oracle());
    let readout = driver.readout();
    let success_probability = if sols.is_empty() {
        0.0
    } else {
        readout.probability_of_sets(&sols)
    };

    let mut measured = Vec::new();
    let mut result = None;
    for _ in 0..config.max_attempts {
        let s = readout.measure(&mut rng);
        measured.push(s);
        qmkp_obs::counter("core.qtkp.attempts", &[], 1);
        if driver.oracle().predicate(s) {
            result = Some(s);
            break;
        }
    }

    if qmkp_obs::enabled_for("core.qtkp") {
        qmkp_obs::gauge("core.qtkp.m", &[], m as f64);
        qmkp_obs::gauge("core.qtkp.iterations", &[], iterations as f64);
        qmkp_obs::gauge("core.qtkp.qubits", &[], qubits as f64);
        qmkp_obs::gauge("core.qtkp.success_probability", &[], success_probability);
    }
    Ok(QtkpOutcome {
        result,
        measured,
        iterations,
        m,
        success_probability,
        error_probability: 1.0 - success_probability,
        times: driver.times().clone(),
        oracle_cost,
        elapsed: start.elapsed(),
        qubits,
    })
}

/// The Boyer-Brassard-Høyer-Tapp search: no `M` required. Round `l` runs
/// `j ~ U[0, min(λ^l, √N))` Grover iterations, measures and verifies;
/// the total oracle budget is capped at `3·√N + n` iterations, past which
/// the instance is declared infeasible (`∅`). On a fault-free simulator
/// the only false-negative source is the probabilistic cutoff, whose
/// failure probability is exponentially small for feasible instances.
///
/// The context is polled once per BBHT round in addition to the
/// per-iteration polls inside the driver.
fn qtkp_unknown_m_ctx<S: BackendState>(
    g: &Graph,
    k: usize,
    t: usize,
    config: &QtkpConfig,
    lambda: f64,
    ctx: &RtContext,
    provider: &dyn OracleProvider,
) -> Result<QtkpOutcome, RtError> {
    let span = qmkp_obs::span("core.qtkp.run");
    let result = (|| {
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let compiled = provider.compiled_oracle(g, k, t, ctx)?;
        let oracle = compiled.oracle_arc();
        let qubits = oracle.layout.width;
        let oracle_cost = oracle.section_cost();
        let n = oracle.layout.n;
        let sqrt_n = (1u128 << n) as f64;
        let sqrt_n = sqrt_n.sqrt();
        let budget = (3.0 * sqrt_n).ceil() as usize + n;

        let mut measured = Vec::new();
        let mut result = None;
        let mut spent = 0usize;
        let mut bound = 1.0f64;
        let mut iterations = 0usize;
        let mut times = SectionTimes::default();
        let mut success_probability = 0.0;

        while spent <= budget {
            ctx.check()?;
            let j = (rng.gen::<f64>() * bound.min(sqrt_n)).floor() as usize;
            let mut driver = GroverDriver::<_, S>::try_new_precompiled_ctx(
                Arc::clone(&oracle),
                compiled.circuits().clone(),
                ctx,
            )
            .map_err(rt_from_sim)?;
            driver.iterate_n_ctx(j, ctx).map_err(rt_from_sim)?;
            spent += j.max(1);
            iterations += j;
            let s = driver.measure(&mut rng);
            measured.push(s);
            qmkp_obs::counter("core.qtkp.attempts", &[], 1);
            times.merge(driver.times());
            if oracle.predicate(s) {
                let sols = solutions(&oracle);
                success_probability = driver.probability_of_sets(&sols);
                result = Some(s);
                break;
            }
            bound *= lambda;
        }

        if qmkp_obs::enabled_for("core.qtkp") {
            qmkp_obs::gauge("core.qtkp.iterations", &[], iterations as f64);
            qmkp_obs::gauge("core.qtkp.qubits", &[], qubits as f64);
            qmkp_obs::gauge("core.qtkp.success_probability", &[], success_probability);
        }
        Ok(QtkpOutcome {
            result,
            measured,
            iterations,
            m: 0, // unknown by construction
            success_probability,
            error_probability: 1.0 - success_probability,
            times,
            oracle_cost,
            elapsed: start.elapsed(),
            qubits,
        })
    })();
    span.finish();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp_graph::gen::{gnm, paper_fig1_graph};
    use qmkp_graph::is_kplex;

    #[test]
    fn finds_the_unique_max_2plex_of_fig1() {
        let g = paper_fig1_graph();
        let out = qtkp(&g, 2, 4, &QtkpConfig::default());
        assert_eq!(out.result, Some(VertexSet::from_iter([0, 1, 3, 4])));
        assert_eq!(out.iterations, 6, "paper's Fig. 8 runs 6 iterations");
        assert_eq!(out.m, 1);
        assert!(out.success_probability > 0.99);
        assert!(out.error_probability < 0.01);
    }

    #[test]
    fn reports_empty_when_no_solution_exists() {
        let g = paper_fig1_graph();
        // No 2-plex of size 6 exists in the Fig. 1 graph.
        let out = qtkp(&g, 2, 6, &QtkpConfig::default());
        assert_eq!(out.result, None);
        assert_eq!(out.m, 0);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.success_probability, 0.0);
        assert_eq!(out.measured.len(), 3, "all attempts are used up");
    }

    #[test]
    fn result_is_always_a_verified_kplex() {
        for seed in 0..3 {
            let g = gnm(7, 10, seed).unwrap();
            for t in 2..=5 {
                let out = qtkp(&g, 2, t, &QtkpConfig::default());
                if let Some(p) = out.result {
                    assert!(is_kplex(&g, p, 2));
                    assert!(p.len() >= t);
                }
            }
        }
    }

    #[test]
    fn quantum_counting_mode_still_succeeds() {
        let g = paper_fig1_graph();
        let cfg = QtkpConfig {
            m_estimate: MEstimate::QuantumCounting { precision: 8 },
            ..QtkpConfig::default()
        };
        let out = qtkp(&g, 2, 4, &cfg);
        assert_eq!(out.result, Some(VertexSet::from_iter([0, 1, 3, 4])));
    }

    #[test]
    fn given_m_overrides_census() {
        let g = paper_fig1_graph();
        let cfg = QtkpConfig {
            m_estimate: MEstimate::Given(4),
            ..QtkpConfig::default()
        };
        let out = qtkp(&g, 2, 4, &cfg);
        assert_eq!(out.m, 4);
        // Wrong M means fewer iterations (3 instead of 6) — lower but
        // still substantial success probability; verification still
        // protects correctness.
        assert_eq!(out.iterations, 3);
        if let Some(p) = out.result {
            assert!(is_kplex(&g, p, 2) && p.len() >= 4);
        }
    }

    #[test]
    fn outcome_carries_instrumentation() {
        let g = paper_fig1_graph();
        let out = qtkp(&g, 2, 4, &QtkpConfig::default());
        assert!(out.oracle_cost.total() > 0);
        assert!(out.times.total() > Duration::ZERO);
        assert!(out.qubits > 6);
        assert!(out.elapsed > Duration::ZERO);
    }

    #[test]
    fn error_probability_matches_paper_bound() {
        // π²/(4I)² with I = 6 gives ≈ 0.017; the exact simulated error is
        // below that bound.
        let g = paper_fig1_graph();
        let out = qtkp(&g, 2, 4, &QtkpConfig::default());
        let bound = std::f64::consts::PI.powi(2) / (4.0 * 6.0f64).powi(2);
        assert!(
            out.error_probability <= bound,
            "{} > {bound}",
            out.error_probability
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let g = paper_fig1_graph();
        let a = qtkp(&g, 2, 3, &QtkpConfig::default());
        let b = qtkp(&g, 2, 3, &QtkpConfig::default());
        assert_eq!(a.result, b.result);
        assert_eq!(a.measured, b.measured);
    }

    #[test]
    fn unknown_m_mode_finds_solutions_without_a_census() {
        let g = paper_fig1_graph();
        let cfg = QtkpConfig {
            m_estimate: MEstimate::Unknown { lambda: 6.0 / 5.0 },
            ..QtkpConfig::default()
        };
        let out = qtkp(&g, 2, 4, &cfg);
        let p = out.result.expect("BBHT finds the unique solution");
        assert_eq!(p, VertexSet::from_iter([0, 1, 3, 4]));
        assert_eq!(out.m, 0, "M stays unknown");
    }

    #[test]
    fn unknown_m_mode_gives_up_on_infeasible_thresholds() {
        let g = paper_fig1_graph();
        let cfg = QtkpConfig {
            m_estimate: MEstimate::Unknown { lambda: 6.0 / 5.0 },
            ..QtkpConfig::default()
        };
        let out = qtkp(&g, 2, 6, &cfg);
        assert_eq!(out.result, None);
        assert!(!out.measured.is_empty(), "it did try");
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn unknown_m_rejects_bad_lambda() {
        let g = paper_fig1_graph();
        let cfg = QtkpConfig {
            m_estimate: MEstimate::Unknown { lambda: 2.0 },
            ..QtkpConfig::default()
        };
        let _ = qtkp(&g, 2, 4, &cfg);
    }
}
