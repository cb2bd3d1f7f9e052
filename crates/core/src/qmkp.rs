//! Algorithm 3 of the paper: **qMKP** — maximum k-plex via binary search
//! over qTKP, with the paper's progressive behaviour (the first feasible
//! solution arrives after the first successful qTKP call and is at least
//! half the optimum).

use crate::compiled::{CompileFresh, OracleProvider};
use crate::grover::SectionTimes;
use crate::qtkp::{qtkp_probe_ctx_with, ProbeInterrupt, QtkpConfig};
use qmkp_graph::reduce::auto_reduce;
use qmkp_graph::{Graph, VertexSet};
use qmkp_obs::json;
use qmkp_qsim::{BackendState, SparseState};
use qmkp_rt::checkpoint::{parse_object, require, require_u64};
use qmkp_rt::{Checkpoint, Interrupted, RtContext, RtError};
use std::time::{Duration, Instant};

/// Configuration for a qMKP run.
#[derive(Debug, Clone, Default)]
pub struct QmkpConfig {
    /// Configuration forwarded to each qTKP call.
    pub qtkp: QtkpConfig,
    /// Apply the core-truss co-pruning reduction before searching (the
    /// paper's "orthogonality" integration of Chang et al.), shrinking the
    /// oracle. The reduction is sound: a maximum k-plex survives it.
    pub use_reduction: bool,
}

/// One binary-search probe.
#[derive(Debug, Clone)]
pub struct QmkpCall {
    /// The threshold `T` probed.
    pub t: usize,
    /// The verified k-plex found at this threshold, if any.
    pub found: Option<VertexSet>,
    /// Grover iterations used by the probe.
    pub iterations: usize,
    /// Marked-state count at this threshold.
    pub m: u64,
    /// Wall time of the probe.
    pub elapsed: Duration,
}

/// The result of a qMKP run.
#[derive(Debug, Clone)]
pub struct QmkpOutcome {
    /// A maximum k-plex (singletons are k-plexes, so this always exists
    /// for non-empty graphs).
    pub best: VertexSet,
    /// Every binary-search probe, in execution order.
    pub calls: Vec<QmkpCall>,
    /// The first feasible solution and the elapsed time when it was
    /// produced (the paper's "first-result" metrics).
    pub first_result: Option<(VertexSet, Duration)>,
    /// Merged per-section simulation times across all probes.
    pub times: SectionTimes,
    /// Error probability of the probe that established the optimum (the
    /// figure the paper's Tables II-III report); intermediate probes are
    /// protected by classical verification regardless.
    pub error_probability: f64,
    /// Total Grover iterations across all probes (the quantum cost
    /// driver: `O(2^{n/2})` oracle calls).
    pub total_iterations: usize,
    /// Total wall time.
    pub total_elapsed: Duration,
    /// Maximum circuit width over all probes.
    pub qubits: usize,
}

/// Intra-probe progress: how far the interrupted probe's Grover phase
/// got. Carried by [`QmkpCheckpoint`] so a resume replays the completed
/// iterations (deterministic, poll-free) instead of restarting the probe
/// at iteration zero — under repeated interruptions the search never
/// loses ground inside a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QmkpProbe {
    /// The threshold of the probe in flight (a resume guard: it must
    /// match the `midpoint(lo, hi)` the search recomputes).
    pub t: usize,
    /// Grover iterations the probe had completed.
    pub iterations_done: usize,
}

/// A resumable position inside the qMKP binary search, taken at probe
/// boundaries. Because every qTKP probe reseeds its RNG from the
/// configuration, resuming from a checkpoint replays the remaining probes
/// bit-identically to an uninterrupted run (wall-clock fields aside).
/// When the interrupt landed inside a probe's Grover phase, [`Self::probe`]
/// additionally records the completed iterations for intra-probe resume.
#[derive(Debug, Clone, Default)]
pub struct QmkpCheckpoint {
    /// The `k` the search was started with (resume guard).
    pub k: usize,
    /// Lower bound of the open `[lo, hi]` threshold interval.
    pub lo: usize,
    /// Upper bound of the interval.
    pub hi: usize,
    /// Best witness found so far (original vertex ids).
    pub best: VertexSet,
    /// Probes completed so far.
    pub calls: Vec<QmkpCall>,
    /// First feasible solution and when it arrived.
    pub first_result: Option<(VertexSet, Duration)>,
    /// Error probability of the probe establishing the current best.
    pub error_probability: f64,
    /// Grover iterations spent so far.
    pub total_iterations: usize,
    /// Maximum circuit width over completed probes.
    pub qubits: usize,
    /// Progress inside the probe that was interrupted, if its Grover
    /// phase had completed at least one iteration (absent in payloads
    /// from older versions, which resume probe-granularly).
    pub probe: Option<QmkpProbe>,
}

fn bits_hex(s: VertexSet) -> String {
    format!("{:x}", s.bits())
}

fn set_from_hex(j: &json::Json, field: &str) -> Result<VertexSet, RtError> {
    let raw = j.as_str().ok_or_else(|| {
        RtError::InvalidConfig(format!("checkpoint: field `{field}` is not a string"))
    })?;
    u128::from_str_radix(raw, 16)
        .map(VertexSet::from_bits)
        .map_err(|_| RtError::InvalidConfig(format!("checkpoint: field `{field}` is not hex")))
}

impl Checkpoint for QmkpCheckpoint {
    fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"k\": {}", self.k));
        out.push_str(&format!(", \"lo\": {}", self.lo));
        out.push_str(&format!(", \"hi\": {}", self.hi));
        out.push_str(&format!(
            ", \"best\": {}",
            json::quote(&bits_hex(self.best))
        ));
        // f64 round-trips exactly via its bit pattern, not via decimal.
        out.push_str(&format!(
            ", \"error_probability_bits\": \"{:x}\"",
            self.error_probability.to_bits()
        ));
        out.push_str(&format!(
            ", \"total_iterations\": {}",
            self.total_iterations
        ));
        out.push_str(&format!(", \"qubits\": {}", self.qubits));
        // Absent (not null) when there is no intra-probe progress, so
        // payloads from before the field existed parse identically.
        if let Some(p) = self.probe {
            out.push_str(&format!(
                ", \"probe\": {{\"t\": {}, \"iterations_done\": {}}}",
                p.t, p.iterations_done
            ));
        }
        match self.first_result {
            Some((s, d)) => out.push_str(&format!(
                ", \"first_result\": {{\"set\": {}, \"elapsed_ns\": {}}}",
                json::quote(&bits_hex(s)),
                d.as_nanos().min(u128::from(u64::MAX))
            )),
            None => out.push_str(", \"first_result\": null"),
        }
        out.push_str(", \"calls\": [");
        for (i, c) in self.calls.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let found = match c.found {
                Some(s) => json::quote(&bits_hex(s)),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"t\": {}, \"found\": {}, \"iterations\": {}, \"m\": {}, \"elapsed_ns\": {}}}",
                c.t,
                found,
                c.iterations,
                c.m,
                c.elapsed.as_nanos().min(u128::from(u64::MAX))
            ));
        }
        out.push_str("]}");
        out
    }

    fn from_json(s: &str) -> Result<Self, RtError> {
        let obj = parse_object(s)?;
        let err_bits = require(&obj, "error_probability_bits")?;
        let err_bits = err_bits.as_str().ok_or_else(|| {
            RtError::InvalidConfig("checkpoint: error_probability_bits is not a string".into())
        })?;
        let error_probability = u64::from_str_radix(err_bits, 16)
            .map(f64::from_bits)
            .map_err(|_| {
                RtError::InvalidConfig("checkpoint: error_probability_bits is not hex".into())
            })?;
        let first_result = match require(&obj, "first_result")? {
            json::Json::Null => None,
            fr => Some((
                set_from_hex(require(fr, "set")?, "first_result.set")?,
                Duration::from_nanos(require_u64(fr, "elapsed_ns")?),
            )),
        };
        let calls_json = require(&obj, "calls")?
            .as_array()
            .ok_or_else(|| RtError::InvalidConfig("checkpoint: calls is not an array".into()))?;
        let mut calls = Vec::with_capacity(calls_json.len());
        for c in calls_json {
            let found = match require(c, "found")? {
                json::Json::Null => None,
                f => Some(set_from_hex(f, "calls.found")?),
            };
            calls.push(QmkpCall {
                t: require_u64(c, "t")? as usize,
                found,
                iterations: require_u64(c, "iterations")? as usize,
                m: require_u64(c, "m")?,
                elapsed: Duration::from_nanos(require_u64(c, "elapsed_ns")?),
            });
        }
        let probe = match obj.get("probe") {
            None | Some(json::Json::Null) => None,
            Some(p) => Some(QmkpProbe {
                t: require_u64(p, "t")? as usize,
                iterations_done: require_u64(p, "iterations_done")? as usize,
            }),
        };
        Ok(QmkpCheckpoint {
            k: require_u64(&obj, "k")? as usize,
            lo: require_u64(&obj, "lo")? as usize,
            hi: require_u64(&obj, "hi")? as usize,
            best: set_from_hex(require(&obj, "best")?, "best")?,
            calls,
            first_result,
            error_probability,
            total_iterations: require_u64(&obj, "total_iterations")? as usize,
            qubits: require_u64(&obj, "qubits")? as usize,
            probe,
        })
    }
}

/// Runs qMKP: find a maximum k-plex of `g`.
///
/// Legacy infallible surface on the sparse backend; budget-aware callers
/// use [`qmkp_ctx`].
///
/// # Panics
/// Panics if the graph is empty, `k == 0`, or the configuration is
/// invalid (see [`QtkpConfig::validate`]).
pub fn qmkp(g: &Graph, k: usize, config: &QmkpConfig) -> QmkpOutcome {
    qmkp_ctx::<SparseState>(g, k, config, &RtContext::unlimited(), None)
        .map_err(|i| i.error)
        .expect("unlimited context: only invalid configuration can fail")
}

/// Runs qMKP under an execution-runtime context, on an explicit backend.
///
/// The binary search is interruptible at probe boundaries: when the
/// budget runs out, cancellation is requested, or the `core.qmkp.probe`
/// failpoint fires, the function returns [`Interrupted`] carrying both
/// the structured reason and a [`QmkpCheckpoint`] from which
/// `qmkp_ctx(..., Some(&checkpoint))` resumes bit-identically (every
/// probe reseeds from the configuration, so no RNG state needs saving).
///
/// # Errors
/// [`Interrupted`] pairing the [`RtError`] with the resume checkpoint;
/// for a rejected configuration the checkpoint is the initial position.
/// An empty graph or `k == 0` is [`RtError::InvalidConfig`], with an
/// empty checkpoint.
pub fn qmkp_ctx<S: BackendState>(
    g: &Graph,
    k: usize,
    config: &QmkpConfig,
    ctx: &RtContext,
    resume: Option<&QmkpCheckpoint>,
) -> Result<QmkpOutcome, Interrupted<QmkpCheckpoint>> {
    qmkp_ctx_with::<S>(g, k, config, ctx, resume, &CompileFresh)
}

/// As [`qmkp_ctx`], but obtaining every probe's compiled oracle from an
/// explicit [`OracleProvider`]. Binary-search probes of the same
/// `(graph, k)` instance hit the provider once per distinct threshold
/// `t`, so a cross-request cache amortizes both repeated requests and
/// the paper's table sweeps over thresholds.
///
/// # Errors
/// As [`qmkp_ctx`], plus whatever the provider reports (wrapped with the
/// probe-boundary checkpoint like any other probe failure).
pub fn qmkp_ctx_with<S: BackendState>(
    g: &Graph,
    k: usize,
    config: &QmkpConfig,
    ctx: &RtContext,
    resume: Option<&QmkpCheckpoint>,
    provider: &dyn OracleProvider,
) -> Result<QmkpOutcome, Interrupted<QmkpCheckpoint>> {
    if g.n() == 0 || k == 0 {
        let why = if k == 0 {
            "qmkp: k must be ≥ 1"
        } else {
            "qmkp: graph must be non-empty"
        };
        let empty = QmkpCheckpoint {
            k,
            ..QmkpCheckpoint::default()
        };
        return Err(Interrupted::new(RtError::InvalidConfig(why.into()), empty));
    }
    let span = qmkp_obs::span("core.qmkp.run");
    let result = qmkp_ctx_inner::<S>(g, k, config, ctx, resume, provider);
    span.finish();
    result
}

fn qmkp_ctx_inner<S: BackendState>(
    g: &Graph,
    k: usize,
    config: &QmkpConfig,
    ctx: &RtContext,
    resume: Option<&QmkpCheckpoint>,
    provider: &dyn OracleProvider,
) -> Result<QmkpOutcome, Interrupted<QmkpCheckpoint>> {
    let start = Instant::now();

    // Optional classical reduction (paper: "running qMKP on a reduced
    // graph does not affect its ability to find a solution"). Recomputed
    // deterministically on resume — only the search trajectory is saved.
    let (search, mut best, mut lo): (Option<(Graph, Vec<usize>)>, VertexSet, usize) =
        if config.use_reduction {
            let (red, witness) = auto_reduce(g, k);
            if red.kept.is_empty() {
                // Nothing can beat the witness.
                (None, witness, usize::MAX)
            } else {
                let (sub, map) = g.induced(red.kept);
                (Some((sub, map)), witness, witness.len().max(1))
            }
        } else {
            (
                Some((g.clone(), (0..g.n()).collect())),
                VertexSet::singleton(0),
                1,
            )
        };

    let mut calls = Vec::new();
    let mut times = SectionTimes::default();
    let mut first_result: Option<(VertexSet, Duration)> = None;
    let mut error_probability: f64 = 0.0;
    let mut total_iterations = 0usize;
    let mut qubits = 0;
    let mut hi = search.as_ref().map(|(sg, _)| sg.n()).unwrap_or(0);
    let mut pending_probe: Option<QmkpProbe> = None;

    if let Some(cp) = resume {
        if cp.k != k {
            return Err(Interrupted::new(
                RtError::InvalidConfig(format!(
                    "checkpoint was taken for k = {}, resumed with k = {k}",
                    cp.k
                )),
                cp.clone(),
            ));
        }
        lo = cp.lo;
        hi = cp.hi;
        best = cp.best;
        calls = cp.calls.clone();
        first_result = cp.first_result;
        error_probability = cp.error_probability;
        total_iterations = cp.total_iterations;
        qubits = cp.qubits;
        pending_probe = cp.probe;
    }

    #[allow(clippy::too_many_arguments)]
    let snapshot = |lo: usize,
                    hi: usize,
                    best: VertexSet,
                    calls: &[QmkpCall],
                    first_result: Option<(VertexSet, Duration)>,
                    error_probability: f64,
                    total_iterations: usize,
                    qubits: usize,
                    probe: Option<QmkpProbe>| QmkpCheckpoint {
        k,
        lo,
        hi,
        best,
        calls: calls.to_vec(),
        first_result,
        error_probability,
        total_iterations,
        qubits,
        probe,
    };

    if let Err(e) = config.qtkp.validate() {
        return Err(Interrupted::new(
            e,
            snapshot(
                lo,
                hi,
                best,
                &calls,
                first_result,
                error_probability,
                total_iterations,
                qubits,
                pending_probe,
            ),
        ));
    }

    if let Some((search_graph, vmap)) = &search {
        while lo <= hi {
            let interrupted = qmkp_rt::failpoint::check("core.qmkp.probe")
                .and_then(|()| ctx.check())
                .err();
            let t = usize::midpoint(lo, hi);
            // A checkpointed probe position only applies to the probe it
            // was taken in; the threshold guard rejects a stale carry.
            let replay = pending_probe
                .take()
                .filter(|p| p.t == t)
                .map(|p| p.iterations_done)
                .unwrap_or(0);
            let probe = match interrupted {
                Some(e) => Err(ProbeInterrupt {
                    error: e,
                    iterations_done: replay,
                }),
                None => {
                    let probe_span = qmkp_obs::span_dyn(|| format!("core.qmkp.probe[t={t}]"));
                    qmkp_obs::counter("core.qmkp.probes", &[], 1);
                    let out = qtkp_probe_ctx_with::<S>(
                        search_graph,
                        k,
                        t,
                        &config.qtkp,
                        ctx,
                        provider,
                        replay,
                    );
                    probe_span.finish();
                    out
                }
            };
            let out = match probe {
                Ok(out) => out,
                Err(pi) => {
                    return Err(Interrupted::new(
                        pi.error,
                        snapshot(
                            lo,
                            hi,
                            best,
                            &calls,
                            first_result,
                            error_probability,
                            total_iterations,
                            qubits,
                            (pi.iterations_done > 0).then_some(QmkpProbe {
                                t,
                                iterations_done: pi.iterations_done,
                            }),
                        ),
                    ))
                }
            };
            times.merge(&out.times);
            qubits = qubits.max(out.qubits);
            total_iterations += out.iterations;
            let found_original = out.result.map(|s| remap(s, vmap));
            calls.push(QmkpCall {
                t,
                found: found_original,
                iterations: out.iterations,
                m: out.m,
                elapsed: out.elapsed,
            });
            match found_original {
                Some(p) => {
                    if first_result.is_none() {
                        first_result = Some((p, start.elapsed()));
                    }
                    if p.len() >= best.len() {
                        best = p;
                        // The probe that (so far) establishes the optimum.
                        error_probability = out.error_probability;
                    }
                    lo = p.len() + 1;
                }
                None => {
                    if t == 0 {
                        break;
                    }
                    hi = t - 1;
                }
            }
            qmkp_obs::gauge("core.qmkp.best_size", &[], best.len() as f64);
        }
    }

    if qmkp_obs::enabled_for("core.qmkp") {
        qmkp_obs::gauge("core.qmkp.total_iterations", &[], total_iterations as f64);
        qmkp_obs::gauge("core.qmkp.qubits", &[], qubits as f64);
        qmkp_obs::gauge("core.qmkp.error_probability", &[], error_probability);
    }
    Ok(QmkpOutcome {
        best,
        calls,
        first_result,
        times,
        error_probability,
        total_iterations,
        total_elapsed: start.elapsed(),
        qubits,
    })
}

/// Maps a vertex set of the reduced/induced graph back to original ids.
fn remap(s: VertexSet, vmap: &[usize]) -> VertexSet {
    s.iter().map(|i| vmap[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp_graph::gen::{gnm, paper_fig1_graph, planted_kplex};
    use qmkp_graph::is_kplex;

    /// Brute-force maximum k-plex size.
    fn brute_max(g: &Graph, k: usize) -> usize {
        (0..(1u128 << g.n()))
            .map(VertexSet::from_bits)
            .filter(|&s| is_kplex(g, s, k))
            .map(|s| s.len())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn fig1_maximum_2plex() {
        let g = paper_fig1_graph();
        let out = qmkp(&g, 2, &QmkpConfig::default());
        assert_eq!(out.best.len(), 4);
        assert!(is_kplex(&g, out.best, 2));
        assert!(!out.calls.is_empty());
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..4 {
            let g = gnm(7, 11, seed).unwrap();
            for k in 1..=3 {
                let out = qmkp(&g, k, &QmkpConfig::default());
                assert_eq!(
                    out.best.len(),
                    brute_max(&g, k),
                    "seed={seed} k={k} best={:?}",
                    out.best
                );
                assert!(is_kplex(&g, out.best, k));
            }
        }
    }

    #[test]
    fn reduction_mode_agrees_with_plain_mode() {
        for seed in 0..3 {
            let g = gnm(8, 14, seed).unwrap();
            let plain = qmkp(&g, 2, &QmkpConfig::default());
            let reduced = qmkp(
                &g,
                2,
                &QmkpConfig {
                    use_reduction: true,
                    ..QmkpConfig::default()
                },
            );
            assert_eq!(plain.best.len(), reduced.best.len(), "seed={seed}");
            assert!(is_kplex(&g, reduced.best, 2));
        }
    }

    #[test]
    fn reduction_shrinks_the_oracle_on_planted_instances() {
        let (g, _) = planted_kplex(10, 5, 2, 0.5, 9).unwrap();
        let plain = qmkp(&g, 2, &QmkpConfig::default());
        let reduced = qmkp(
            &g,
            2,
            &QmkpConfig {
                use_reduction: true,
                ..QmkpConfig::default()
            },
        );
        assert_eq!(plain.best.len(), reduced.best.len());
        assert!(
            reduced.qubits <= plain.qubits,
            "reduction must not inflate the oracle: {} vs {}",
            reduced.qubits,
            plain.qubits
        );
    }

    #[test]
    fn first_result_is_at_least_half_of_optimal() {
        // The paper's progression property: the first feasible result of
        // the binary search has size ≥ opt/2.
        for seed in 0..4 {
            let g = gnm(8, 13, seed).unwrap();
            let out = qmkp(&g, 2, &QmkpConfig::default());
            let (first, _) = out.first_result.expect("some k-plex always exists");
            assert!(
                2 * first.len() >= out.best.len(),
                "first={} best={}",
                first.len(),
                out.best.len()
            );
        }
    }

    #[test]
    fn binary_search_uses_logarithmically_many_calls() {
        let g = gnm(8, 13, 0).unwrap();
        let out = qmkp(&g, 2, &QmkpConfig::default());
        assert!(
            out.calls.len() <= 5,
            "O(log n) probes, got {}",
            out.calls.len()
        );
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::new(1).unwrap();
        let out = qmkp(&g, 1, &QmkpConfig::default());
        assert_eq!(out.best.len(), 1);
    }

    #[test]
    fn every_probe_result_is_verified() {
        let g = gnm(9, 16, 2).unwrap();
        let out = qmkp(&g, 3, &QmkpConfig::default());
        for call in &out.calls {
            if let Some(p) = call.found {
                assert!(is_kplex(&g, p, 3));
                assert!(p.len() >= call.t);
            }
        }
    }

    #[test]
    fn checkpoint_round_trips_exactly() {
        let cp = QmkpCheckpoint {
            k: 2,
            lo: 3,
            hi: 7,
            best: VertexSet::from_iter([0, 2, 5]),
            calls: vec![
                QmkpCall {
                    t: 4,
                    found: Some(VertexSet::from_iter([1, 3])),
                    iterations: 9,
                    m: 12,
                    elapsed: Duration::from_nanos(1234),
                },
                QmkpCall {
                    t: 6,
                    found: None,
                    iterations: 3,
                    m: 0,
                    elapsed: Duration::from_nanos(99),
                },
            ],
            first_result: Some((VertexSet::from_iter([1, 3]), Duration::from_nanos(777))),
            error_probability: 0.123_456_789_f64,
            total_iterations: 12,
            qubits: 31,
            probe: Some(QmkpProbe {
                t: 5,
                iterations_done: 4,
            }),
        };
        let back = QmkpCheckpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(back.probe, cp.probe);
        assert_eq!(back.k, cp.k);
        assert_eq!(back.lo, cp.lo);
        assert_eq!(back.hi, cp.hi);
        assert_eq!(back.best, cp.best);
        assert_eq!(back.first_result, cp.first_result);
        assert_eq!(
            back.error_probability.to_bits(),
            cp.error_probability.to_bits()
        );
        assert_eq!(back.total_iterations, cp.total_iterations);
        assert_eq!(back.qubits, cp.qubits);
        assert_eq!(back.calls.len(), cp.calls.len());
        for (a, b) in back.calls.iter().zip(&cp.calls) {
            assert_eq!(a.t, b.t);
            assert_eq!(a.found, b.found);
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.m, b.m);
            assert_eq!(a.elapsed, b.elapsed);
        }
    }

    #[test]
    fn checkpoint_without_probe_field_parses_as_probe_granular() {
        // A payload serialized before intra-probe resume existed (no
        // `probe` key at all) must keep parsing, with no carried probe.
        let cp = QmkpCheckpoint {
            k: 2,
            lo: 1,
            hi: 6,
            best: VertexSet::singleton(0),
            calls: Vec::new(),
            first_result: None,
            error_probability: 0.0,
            total_iterations: 0,
            qubits: 0,
            probe: None,
        };
        let payload = cp.to_json();
        assert!(!payload.contains("probe"), "absent, not null: {payload}");
        let back = QmkpCheckpoint::from_json(&payload).unwrap();
        assert_eq!(back.probe, None);
        // An explicit null is tolerated too.
        let with_null = payload.replacen("{", "{\"probe\": null, ", 1);
        assert_eq!(QmkpCheckpoint::from_json(&with_null).unwrap().probe, None);
    }

    #[test]
    fn checkpoint_rejects_malformed_payloads() {
        assert!(matches!(
            QmkpCheckpoint::from_json("not json"),
            Err(RtError::InvalidConfig(_))
        ));
        assert!(matches!(
            QmkpCheckpoint::from_json("{\"k\": 1}"),
            Err(RtError::InvalidConfig(_))
        ));
    }

    #[test]
    fn invalid_config_is_rejected_with_checkpoint() {
        let g = paper_fig1_graph();
        let config = QmkpConfig {
            qtkp: QtkpConfig {
                max_attempts: 0,
                ..QtkpConfig::default()
            },
            ..QmkpConfig::default()
        };
        let err = qmkp_ctx::<SparseState>(&g, 2, &config, &RtContext::unlimited(), None)
            .expect_err("max_attempts = 0 must be rejected");
        assert!(matches!(err.error, RtError::InvalidConfig(ref m) if m.contains("max_attempts")));

        // An empty graph and `k = 0` are rejected the same way, not
        // panicked on, and their checkpoint records no progress.
        let default = QmkpConfig::default();
        let empty = Graph::new(0).unwrap();
        for (graph, k, why) in [(&empty, 2, "non-empty"), (&g, 0, "k must be")] {
            let err = qmkp_ctx::<SparseState>(graph, k, &default, &RtContext::unlimited(), None)
                .expect_err("degenerate input must be rejected");
            assert!(
                matches!(err.error, RtError::InvalidConfig(ref m) if m.contains(why)),
                "{:?}",
                err.error
            );
            assert_eq!(err.checkpoint.k, k);
            assert!(err.checkpoint.calls.is_empty());
            assert_eq!(err.checkpoint.total_iterations, 0);
        }
    }

    #[test]
    fn cancellation_yields_resumable_checkpoint() {
        use qmkp_rt::{Budget, CancelToken};
        let g = paper_fig1_graph();
        let config = QmkpConfig::default();
        let ctx = RtContext::new(Budget::unlimited(), CancelToken::cancel_after_checks(0));
        let err = qmkp_ctx::<SparseState>(&g, 2, &config, &ctx, None)
            .expect_err("first poll is cancelled");
        assert_eq!(err.error, RtError::Cancelled);
        assert!(err.checkpoint.calls.is_empty());

        // Resuming the checkpoint under an unlimited context yields the
        // same outcome as an uninterrupted run.
        let resumed = qmkp_ctx::<SparseState>(
            &g,
            2,
            &config,
            &RtContext::unlimited(),
            Some(&err.checkpoint),
        )
        .unwrap();
        let straight = qmkp(&g, 2, &config);
        assert_eq!(resumed.best, straight.best);
        assert_eq!(resumed.total_iterations, straight.total_iterations);
    }

    #[test]
    fn mid_search_resume_is_bit_identical() {
        use qmkp_rt::{Budget, CancelToken};
        let g = gnm(8, 13, 1).unwrap();
        let config = QmkpConfig::default();
        let straight = qmkp(&g, 2, &config);
        assert!(straight.calls.len() >= 2, "need a multi-probe search");

        // The fuse counts every runtime poll (including the simulator's
        // per-chunk ones), so these land at assorted points inside and
        // between probes. Wherever the cut falls, the checkpoint holds the
        // last probe boundary and resuming from its JSON round-trip must
        // replay the rest of the search bit-identically.
        for fuse in [0u64, 1, 10, 1_000, 100_000, 10_000_000] {
            let ctx = RtContext::new(Budget::unlimited(), CancelToken::cancel_after_checks(fuse));
            let resumed = match qmkp_ctx::<SparseState>(&g, 2, &config, &ctx, None) {
                Ok(out) => out, // fuse outlived the whole search
                Err(err) => {
                    assert_eq!(err.error, RtError::Cancelled, "fuse={fuse}");
                    assert!(err.checkpoint.calls.len() < straight.calls.len());
                    let cp = QmkpCheckpoint::from_json(&err.checkpoint.to_json()).unwrap();
                    qmkp_ctx::<SparseState>(&g, 2, &config, &RtContext::unlimited(), Some(&cp))
                        .unwrap()
                }
            };
            assert_eq!(resumed.best, straight.best, "fuse={fuse}");
            assert_eq!(
                resumed.error_probability.to_bits(),
                straight.error_probability.to_bits()
            );
            assert_eq!(resumed.total_iterations, straight.total_iterations);
            assert_eq!(resumed.qubits, straight.qubits);
            assert_eq!(resumed.calls.len(), straight.calls.len());
            for (a, b) in resumed.calls.iter().zip(&straight.calls) {
                assert_eq!(a.t, b.t);
                assert_eq!(a.found, b.found);
                assert_eq!(a.iterations, b.iterations);
                assert_eq!(a.m, b.m);
            }
        }
    }

    #[test]
    fn op_budget_interrupt_mid_probe_resumes_bit_identically() {
        use qmkp_rt::{Budget, CancelToken};
        let g = gnm(8, 13, 1).unwrap();
        let config = QmkpConfig::default();
        let straight = qmkp(&g, 2, &config);
        // Sweep deterministic op ceilings until one lands inside a
        // probe's Grover phase: the checkpoint must then carry the
        // completed-iteration count, and resuming from its JSON
        // round-trip must replay the rest of the search bit-identically.
        let mut saw_intra_probe = false;
        let mut limit = 64u64;
        while limit < (1 << 26) {
            let ctx = RtContext::new(Budget::unlimited().with_max_ops(limit), CancelToken::new());
            let err = match qmkp_ctx::<SparseState>(&g, 2, &config, &ctx, None) {
                Ok(_) => break, // the ceiling outlived the whole search
                Err(err) => err,
            };
            assert!(
                matches!(err.error, RtError::OpBudget { .. }),
                "limit={limit}: {:?}",
                err.error
            );
            if let Some(p) = err.checkpoint.probe {
                saw_intra_probe = true;
                assert!(p.iterations_done > 0, "empty progress must be absent");
                let cp = QmkpCheckpoint::from_json(&err.checkpoint.to_json()).unwrap();
                assert_eq!(cp.probe, Some(p));
                let resumed =
                    qmkp_ctx::<SparseState>(&g, 2, &config, &RtContext::unlimited(), Some(&cp))
                        .unwrap();
                assert_eq!(resumed.best, straight.best, "limit={limit}");
                assert_eq!(resumed.total_iterations, straight.total_iterations);
                assert_eq!(resumed.calls.len(), straight.calls.len());
                for (a, b) in resumed.calls.iter().zip(&straight.calls) {
                    assert_eq!(a.t, b.t);
                    assert_eq!(a.found, b.found);
                    assert_eq!(a.iterations, b.iterations);
                    assert_eq!(a.m, b.m);
                }
            }
            limit = limit * 5 / 4 + 1;
        }
        assert!(saw_intra_probe, "no op ceiling landed mid-Grover-phase");
    }

    #[test]
    fn resume_with_mismatched_k_is_rejected() {
        let g = paper_fig1_graph();
        let cp = QmkpCheckpoint {
            k: 3,
            lo: 1,
            hi: 4,
            best: VertexSet::singleton(0),
            calls: Vec::new(),
            first_result: None,
            error_probability: 0.0,
            total_iterations: 0,
            qubits: 0,
            probe: None,
        };
        let err = qmkp_ctx::<SparseState>(
            &g,
            2,
            &QmkpConfig::default(),
            &RtContext::unlimited(),
            Some(&cp),
        )
        .expect_err("k mismatch must be rejected");
        assert!(matches!(err.error, RtError::InvalidConfig(_)));
    }
}
