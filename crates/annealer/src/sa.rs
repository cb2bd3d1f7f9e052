//! Classical simulated annealing over a QUBO — the paper's "SA" baseline.
//!
//! The paper controls SA runtime exactly like the quantum annealer: a
//! number of *sweeps* per shot (its analogue of the annealing time; the
//! paper fixes 2) and a shot count `s`. Each shot restarts from a random
//! assignment and Metropolis-anneals along a geometric inverse-temperature
//! schedule.

use crate::result::AnnealOutcome;
use qmkp_qubo::QuboModel;
use qmkp_rt::checkpoint::{
    bools_to_json, f64_to_json, f64s_to_json, parse_object, require_bools, require_f64_bits,
    require_f64s, require_u64,
};
use qmkp_rt::{derive_seed, Checkpoint, Interrupted, RtContext, RtError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Configuration for [`anneal_qubo`].
#[derive(Debug, Clone)]
pub struct SaConfig {
    /// Independent restarts.
    pub shots: usize,
    /// Metropolis sweeps per shot (each sweep proposes every variable once).
    pub sweeps: usize,
    /// Initial inverse temperature.
    pub beta_hot: f64,
    /// Final inverse temperature.
    pub beta_cold: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            shots: 100,
            sweeps: 2,
            beta_hot: 0.1,
            beta_cold: 10.0,
            seed: 0,
        }
    }
}

/// Geometric β schedule shared across shots.
fn geometric_betas(config: &SaConfig) -> Vec<f64> {
    (0..config.sweeps)
        .map(|s| {
            if config.sweeps == 1 {
                config.beta_cold
            } else {
                let f = s as f64 / (config.sweeps - 1) as f64;
                config.beta_hot * (config.beta_cold / config.beta_hot).powf(f)
            }
        })
        .collect()
}

/// Local fields for O(deg) flip deltas: field[i] = c_i + Σ q_ij x_j.
pub(crate) fn init_fields(q: &QuboModel, adj: &[Vec<(usize, f64)>], x: &[bool]) -> Vec<f64> {
    (0..x.len())
        .map(|i| {
            q.linear(i)
                + adj[i]
                    .iter()
                    .filter(|&&(j, _)| x[j])
                    .map(|&(_, c)| c)
                    .sum::<f64>()
        })
        .collect()
}

/// One Metropolis sweep: proposes every variable once at inverse
/// temperature `beta`, maintaining the local fields and energy. Shared
/// with the tempering sampler, whose per-rung dynamics are identical.
pub(crate) fn metropolis_sweep(
    adj: &[Vec<(usize, f64)>],
    beta: f64,
    x: &mut [bool],
    field: &mut [f64],
    energy: &mut f64,
    rng: &mut StdRng,
) {
    for i in 0..x.len() {
        let delta = if x[i] { -field[i] } else { field[i] };
        if delta <= 0.0 || rng.gen::<f64>() < (-beta * delta).exp() {
            x[i] = !x[i];
            *energy += delta;
            let sign = if x[i] { 1.0 } else { -1.0 };
            for &(j, c) in &adj[i] {
                field[j] += sign * c;
            }
        }
    }
}

/// Sweep-time recorder shared by the SA, SQA, and tempering samplers:
/// when recording, each sweep's wall time is one `anneal.sweep`
/// observation labelled by algorithm. Resolved once per run, so the
/// disabled cost is one relaxed load.
pub(crate) struct SweepMeter {
    algo: &'static str,
    on: bool,
}

impl SweepMeter {
    pub(crate) fn new(algo: &'static str) -> SweepMeter {
        SweepMeter {
            algo,
            on: qmkp_obs::enabled_for("anneal.sweep"),
        }
    }

    /// A sweep's start time, when sweeps are timed this run.
    pub(crate) fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Records the sweep begun at `start` (nothing for `None`).
    pub(crate) fn finish(&self, start: Option<Instant>) {
        if let Some(t0) = start {
            qmkp_obs::observe("anneal.sweep", &[("algo", self.algo)], t0.elapsed());
        }
    }
}

/// Runs simulated annealing on a QUBO.
///
/// # Panics
/// Panics if `shots == 0` or `sweeps == 0` or the schedule is not
/// increasing in β.
pub fn anneal_qubo(q: &QuboModel, config: &SaConfig) -> AnnealOutcome {
    assert!(config.shots > 0, "need at least one shot");
    assert!(config.sweeps > 0, "need at least one sweep");
    assert!(
        config.beta_cold >= config.beta_hot && config.beta_hot > 0.0,
        "schedule must heat up in β"
    );
    let span = qmkp_obs::span("anneal.sa.run");
    let traced = qmkp_obs::enabled_for("anneal.sa");
    let meter = SweepMeter::new("sa");
    let n = q.num_vars();
    let adj = q.neighbor_lists();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let start = Instant::now();

    let mut best: Vec<bool> = vec![false; n];
    let mut best_energy = f64::INFINITY;
    let mut shot_energies = Vec::with_capacity(config.shots);
    let mut trace = Vec::new();

    let betas = geometric_betas(config);

    for _ in 0..config.shots {
        let mut x: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
        let mut field = init_fields(q, &adj, &x);
        let mut energy = q.energy(&x);

        for &beta in &betas {
            let timed = meter.start();
            metropolis_sweep(&adj, beta, &mut x, &mut field, &mut energy, &mut rng);
            meter.finish(timed);
            if traced {
                qmkp_obs::gauge("anneal.sa.beta", &[], beta);
                qmkp_obs::gauge("anneal.sa.energy", &[], energy);
            }
        }
        debug_assert!((q.energy(&x) - energy).abs() < 1e-6);
        qmkp_obs::counter("anneal.sa.shots", &[], 1);
        shot_energies.push(energy);
        if energy < best_energy {
            best_energy = energy;
            best = x;
            trace.push((start.elapsed(), energy));
        }
    }

    qmkp_obs::gauge("anneal.sa.best_energy", &[], best_energy);
    span.finish();
    AnnealOutcome {
        best,
        best_energy,
        shot_energies,
        trace,
        elapsed: start.elapsed(),
    }
}

/// A resumable position inside a budgeted SA run, taken at sweep
/// boundaries. The per-sweep RNG streams of [`anneal_qubo_ctx`] are
/// derived from `(seed, shot, sweep)`, so no generator state needs
/// saving and the resumed run replays the remaining sweeps exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SaCheckpoint {
    /// Shot being annealed when the run was interrupted.
    pub shot: usize,
    /// Next sweep to run within that shot.
    pub sweep: usize,
    /// Current assignment of the interrupted shot.
    pub x: Vec<bool>,
    /// Delta-maintained energy of `x` (bit-exact, not recomputed).
    pub energy: f64,
    /// Delta-maintained local fields of `x` (bit-exact).
    pub field: Vec<f64>,
    /// Best assignment over completed shots.
    pub best: Vec<bool>,
    /// Energy of `best` (`f64::INFINITY` before the first completed shot).
    pub best_energy: f64,
    /// Final energies of completed shots.
    pub shot_energies: Vec<f64>,
}

impl Checkpoint for SaCheckpoint {
    fn to_json(&self) -> String {
        format!(
            "{{\"shot\": {}, \"sweep\": {}, \"x\": {}, \"energy\": {}, \"field\": {}, \
             \"best\": {}, \"best_energy\": {}, \"shot_energies\": {}}}",
            self.shot,
            self.sweep,
            bools_to_json(&self.x),
            f64_to_json(self.energy),
            f64s_to_json(&self.field),
            bools_to_json(&self.best),
            f64_to_json(self.best_energy),
            f64s_to_json(&self.shot_energies),
        )
    }

    fn from_json(s: &str) -> Result<Self, RtError> {
        let obj = parse_object(s)?;
        Ok(SaCheckpoint {
            shot: require_u64(&obj, "shot")? as usize,
            sweep: require_u64(&obj, "sweep")? as usize,
            x: require_bools(&obj, "x")?,
            energy: require_f64_bits(&obj, "energy")?,
            field: require_f64s(&obj, "field")?,
            best: require_bools(&obj, "best")?,
            best_energy: require_f64_bits(&obj, "best_energy")?,
            shot_energies: require_f64s(&obj, "shot_energies")?,
        })
    }
}

fn validate_sa(config: &SaConfig) -> Result<(), RtError> {
    if config.shots == 0 {
        return Err(RtError::InvalidConfig("sa: need at least one shot".into()));
    }
    if config.sweeps == 0 {
        return Err(RtError::InvalidConfig("sa: need at least one sweep".into()));
    }
    if !(config.beta_cold >= config.beta_hot && config.beta_hot > 0.0) {
        return Err(RtError::InvalidConfig(
            "sa: schedule must heat up in β".into(),
        ));
    }
    Ok(())
}

/// Runs simulated annealing under an execution-runtime context.
///
/// Cancellation and the budget are polled at sweep granularity (plus the
/// `annealer.sa.sweep` failpoint). Unlike [`anneal_qubo`] the RNG stream
/// is not one sequential generator: shot `s` draws its starting
/// assignment from `derive_seed(seed, s, u64::MAX)` and sweep `w` of shot
/// `s` from `derive_seed(seed, s, w)`, so an interrupted run resumes from
/// its [`SaCheckpoint`] bit-identically (trace timestamps aside).
///
/// When the budget carries a wall-clock deadline and the run is a fresh
/// start, the sweep schedule is *paced*: a throwaway probe sweep on the
/// shot-0 starting assignment measures the per-sweep cost and
/// [`crate::pacing::paced_sweeps`] shrinks `sweeps` to what fits the
/// remaining time, reported via the `anneal.sa.paced_sweeps` gauge.
///
/// # Errors
/// [`Interrupted`] pairing the [`RtError`] with the sweep-boundary
/// checkpoint; for a rejected configuration the checkpoint is empty.
pub fn anneal_qubo_ctx(
    q: &QuboModel,
    config: &SaConfig,
    ctx: &RtContext,
    resume: Option<&SaCheckpoint>,
) -> Result<AnnealOutcome, Interrupted<SaCheckpoint>> {
    let empty = || SaCheckpoint {
        shot: 0,
        sweep: 0,
        x: Vec::new(),
        energy: f64::INFINITY,
        field: Vec::new(),
        best: Vec::new(),
        best_energy: f64::INFINITY,
        shot_energies: Vec::new(),
    };
    if let Err(e) = validate_sa(config) {
        return Err(Interrupted::new(e, empty()));
    }
    let span = qmkp_obs::span("anneal.sa.run");
    let traced = qmkp_obs::enabled_for("anneal.sa");
    let meter = SweepMeter::new("sa");
    let n = q.num_vars();
    let adj = q.neighbor_lists();
    let start = Instant::now();

    let mut paced = config.clone();
    if resume.is_none() {
        if let Some(remaining) = crate::pacing::remaining_deadline(ctx) {
            // Probe on a clone of the shot-0 starting state; the real
            // shot 0 re-derives the same init, so results only depend on
            // the effective sweep count, not on the probe having run.
            let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, 0, u64::MAX));
            let mut x: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            let mut field = init_fields(q, &adj, &x);
            let mut energy = q.energy(&x);
            let probe = Instant::now();
            metropolis_sweep(
                &adj,
                config.beta_hot,
                &mut x,
                &mut field,
                &mut energy,
                &mut rng,
            );
            let per_sweep = probe.elapsed();
            paced.sweeps = crate::pacing::paced_sweeps(
                remaining.saturating_sub(per_sweep),
                per_sweep,
                config.shots,
                config.sweeps,
            );
            qmkp_obs::gauge("anneal.sa.paced_sweeps", &[], paced.sweeps as f64);
        }
    }
    let config = &paced;

    let mut best: Vec<bool> = vec![false; n];
    let mut best_energy = f64::INFINITY;
    let mut shot_energies = Vec::with_capacity(config.shots);
    let mut trace = Vec::new();
    let mut start_shot = 0;
    let mut start_sweep = 0;
    let mut resumed_state: Option<(Vec<bool>, Vec<f64>, f64)> = None;

    if let Some(cp) = resume {
        if cp.shot >= config.shots || cp.sweep >= config.sweeps || cp.x.len() != n {
            span.finish();
            return Err(Interrupted::new(
                RtError::InvalidConfig(
                    "sa: checkpoint does not match the model or schedule".into(),
                ),
                cp.clone(),
            ));
        }
        start_shot = cp.shot;
        start_sweep = cp.sweep;
        resumed_state = Some((cp.x.clone(), cp.field.clone(), cp.energy));
        best = cp.best.clone();
        best_energy = cp.best_energy;
        shot_energies = cp.shot_energies.clone();
    }

    let betas = geometric_betas(config);

    for shot in start_shot..config.shots {
        let (mut x, mut field, mut energy) = match resumed_state.take() {
            Some(state) => state,
            None => {
                let mut init =
                    StdRng::seed_from_u64(derive_seed(config.seed, shot as u64, u64::MAX));
                let x: Vec<bool> = (0..n).map(|_| init.gen()).collect();
                let field = init_fields(q, &adj, &x);
                let energy = q.energy(&x);
                (x, field, energy)
            }
        };

        let first_sweep = if shot == start_shot { start_sweep } else { 0 };
        for (sweep, &beta) in betas.iter().enumerate().skip(first_sweep) {
            let interrupted = qmkp_rt::failpoint::check("annealer.sa.sweep")
                .and_then(|()| ctx.check())
                .err();
            if let Some(e) = interrupted {
                span.finish();
                return Err(Interrupted::new(
                    e,
                    SaCheckpoint {
                        shot,
                        sweep,
                        x,
                        energy,
                        field,
                        best,
                        best_energy,
                        shot_energies,
                    },
                ));
            }
            let mut rng =
                StdRng::seed_from_u64(derive_seed(config.seed, shot as u64, sweep as u64));
            let timed = meter.start();
            metropolis_sweep(&adj, beta, &mut x, &mut field, &mut energy, &mut rng);
            meter.finish(timed);
            if traced {
                qmkp_obs::gauge("anneal.sa.beta", &[], beta);
                qmkp_obs::gauge("anneal.sa.energy", &[], energy);
            }
        }
        debug_assert!((q.energy(&x) - energy).abs() < 1e-6);
        qmkp_obs::counter("anneal.sa.shots", &[], 1);
        shot_energies.push(energy);
        if energy < best_energy {
            best_energy = energy;
            best = x;
            trace.push((start.elapsed(), energy));
        }
    }

    qmkp_obs::gauge("anneal.sa.best_energy", &[], best_energy);
    span.finish();
    Ok(AnnealOutcome {
        best,
        best_energy,
        shot_energies,
        trace,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp_qubo::{MkpQubo, MkpQuboParams};

    fn frustrated_model() -> QuboModel {
        // Minimum at x = (1,1,0): F = -2 -2 +1 = ... enumerate in test.
        let mut q = QuboModel::new(3);
        q.add_linear(0, -2.0);
        q.add_linear(1, -2.0);
        q.add_linear(2, -1.0);
        q.add_quadratic(0, 1, 1.0);
        q.add_quadratic(1, 2, 3.0);
        q
    }

    #[test]
    fn finds_global_minimum_of_small_models() {
        let q = frustrated_model();
        let (_, brute) = q.brute_force_min();
        let out = anneal_qubo(
            &q,
            &SaConfig {
                shots: 50,
                sweeps: 20,
                ..SaConfig::default()
            },
        );
        assert!((out.best_energy - brute).abs() < 1e-9);
        assert!((q.energy(&out.best) - out.best_energy).abs() < 1e-9);
    }

    #[test]
    fn solves_the_fig1_mkp_qubo() {
        let g = qmkp_graph::gen::paper_fig1_graph();
        let mq = MkpQubo::new(&g, MkpQuboParams { k: 2, r: 2.0 });
        let out = anneal_qubo(
            &mq.model,
            &SaConfig {
                shots: 200,
                sweeps: 30,
                ..SaConfig::default()
            },
        );
        assert!(
            (out.best_energy + 4.0).abs() < 1e-9,
            "best {}",
            out.best_energy
        );
    }

    #[test]
    fn more_shots_never_hurt() {
        let q = frustrated_model();
        let few = anneal_qubo(
            &q,
            &SaConfig {
                shots: 2,
                sweeps: 2,
                seed: 9,
                ..SaConfig::default()
            },
        );
        let many = anneal_qubo(
            &q,
            &SaConfig {
                shots: 100,
                sweeps: 2,
                seed: 9,
                ..SaConfig::default()
            },
        );
        assert!(many.best_energy <= few.best_energy);
    }

    #[test]
    fn shot_energies_and_trace_are_consistent() {
        let q = frustrated_model();
        let out = anneal_qubo(
            &q,
            &SaConfig {
                shots: 30,
                sweeps: 5,
                ..SaConfig::default()
            },
        );
        assert_eq!(out.shot_energies.len(), 30);
        let min_shot = out
            .shot_energies
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min_shot, out.best_energy);
        for w in out.trace.windows(2) {
            assert!(w[1].1 < w[0].1, "trace strictly improves");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let q = frustrated_model();
        let a = anneal_qubo(
            &q,
            &SaConfig {
                seed: 42,
                ..SaConfig::default()
            },
        );
        let b = anneal_qubo(
            &q,
            &SaConfig {
                seed: 42,
                ..SaConfig::default()
            },
        );
        assert_eq!(a.best_energy, b.best_energy);
        assert_eq!(a.shot_energies, b.shot_energies);
    }

    #[test]
    #[should_panic(expected = "at least one shot")]
    fn zero_shots_rejected() {
        let q = frustrated_model();
        let _ = anneal_qubo(
            &q,
            &SaConfig {
                shots: 0,
                ..SaConfig::default()
            },
        );
    }

    #[test]
    fn ctx_variant_finds_the_same_optimum() {
        let q = frustrated_model();
        let (_, brute) = q.brute_force_min();
        let config = SaConfig {
            shots: 50,
            sweeps: 20,
            ..SaConfig::default()
        };
        let out = anneal_qubo_ctx(&q, &config, &RtContext::unlimited(), None).unwrap();
        assert!((out.best_energy - brute).abs() < 1e-9);
        assert!((q.energy(&out.best) - out.best_energy).abs() < 1e-9);
    }

    #[test]
    fn ctx_variant_rejects_invalid_configs_without_panicking() {
        let q = frustrated_model();
        let err = anneal_qubo_ctx(
            &q,
            &SaConfig {
                shots: 0,
                ..SaConfig::default()
            },
            &RtContext::unlimited(),
            None,
        )
        .expect_err("zero shots");
        assert!(matches!(err.error, RtError::InvalidConfig(_)));
    }

    #[test]
    fn cancelled_run_resumes_bit_identically() {
        use qmkp_rt::{Budget, CancelToken};
        let q = frustrated_model();
        let config = SaConfig {
            shots: 12,
            sweeps: 6,
            seed: 7,
            ..SaConfig::default()
        };
        let straight = anneal_qubo_ctx(&q, &config, &RtContext::unlimited(), None).unwrap();

        // One runtime poll per sweep: fuse f interrupts before sweep f.
        for fuse in [0u64, 1, 5, 17, 40, 71] {
            let ctx = RtContext::new(Budget::unlimited(), CancelToken::cancel_after_checks(fuse));
            let err = anneal_qubo_ctx(&q, &config, &ctx, None).expect_err("fuse inside schedule");
            assert_eq!(err.error, RtError::Cancelled, "fuse={fuse}");

            let cp = SaCheckpoint::from_json(&err.checkpoint.to_json()).unwrap();
            assert_eq!(cp, *err.checkpoint, "serialization must be lossless");
            let resumed = anneal_qubo_ctx(&q, &config, &RtContext::unlimited(), Some(&cp)).unwrap();
            assert_eq!(resumed.best, straight.best, "fuse={fuse}");
            assert_eq!(
                resumed.best_energy.to_bits(),
                straight.best_energy.to_bits()
            );
            let a: Vec<u64> = resumed.shot_energies.iter().map(|e| e.to_bits()).collect();
            let b: Vec<u64> = straight.shot_energies.iter().map(|e| e.to_bits()).collect();
            assert_eq!(a, b, "fuse={fuse}");
        }
    }

    #[test]
    fn generous_deadline_leaves_results_identical() {
        use qmkp_rt::Budget;
        use std::time::Duration;
        let q = frustrated_model();
        let config = SaConfig {
            shots: 10,
            sweeps: 8,
            seed: 11,
            ..SaConfig::default()
        };
        let plain = anneal_qubo_ctx(&q, &config, &RtContext::unlimited(), None).unwrap();
        let ctx =
            RtContext::with_budget(Budget::unlimited().with_deadline(Duration::from_secs(3600)));
        let paced = anneal_qubo_ctx(&q, &config, &ctx, None).unwrap();
        // An hour fits the whole schedule, so pacing must not change it —
        // the probe sweep leaves no trace in the RNG streams.
        assert_eq!(paced.best, plain.best);
        assert_eq!(paced.best_energy.to_bits(), plain.best_energy.to_bits());
        let a: Vec<u64> = paced.shot_energies.iter().map(|e| e.to_bits()).collect();
        let b: Vec<u64> = plain.shot_energies.iter().map(|e| e.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn tight_deadline_paces_the_schedule_and_completes() {
        use qmkp_rt::Budget;
        use std::sync::Arc;
        use std::time::Duration;
        // A model big enough that per-sweep cost is stable to measure.
        let mut q = QuboModel::new(200);
        for i in 0..200 {
            q.add_linear(i, -1.0);
            q.add_quadratic(i, (i + 1) % 200, 2.0);
        }
        let config = SaConfig {
            shots: 2,
            sweeps: 50_000_000, // hours at full length
            ..SaConfig::default()
        };
        let collector = Arc::new(qmkp_obs::Collector::for_current_thread());
        let guard = qmkp_obs::attach(collector.clone());
        let ctx = RtContext::with_budget(Budget::unlimited().with_deadline(Duration::from_secs(1)));
        let result = anneal_qubo_ctx(&q, &config, &ctx, None);
        drop(guard);
        let paced = collector
            .last_gauge("anneal.sa.paced_sweeps")
            .expect("pacing gauge must be emitted under a deadline");
        assert!(paced >= 1.0, "at least one sweep always runs");
        assert!(
            paced < config.sweeps as f64,
            "the schedule must have shrunk (got {paced})"
        );
        match result {
            Ok(out) => assert_eq!(out.shot_energies.len(), config.shots, "every shot ran"),
            // Parallel test execution can slow the real sweeps past the
            // probe's measurement; the per-sweep deadline poll then still
            // interrupts — but it must do so *inside the paced schedule*.
            Err(i) => {
                assert!(matches!(i.error, RtError::DeadlineExceeded { .. }), "{i}");
                assert!((i.checkpoint.sweep as f64) < paced);
            }
        }
    }

    #[test]
    fn mismatched_checkpoint_is_rejected() {
        let q = frustrated_model();
        let cp = SaCheckpoint {
            shot: 999,
            sweep: 0,
            x: vec![false; 3],
            energy: 0.0,
            field: vec![0.0; 3],
            best: vec![false; 3],
            best_energy: f64::INFINITY,
            shot_energies: Vec::new(),
        };
        let err = anneal_qubo_ctx(&q, &SaConfig::default(), &RtContext::unlimited(), Some(&cp))
            .expect_err("shot index out of schedule");
        assert!(matches!(err.error, RtError::InvalidConfig(_)));
    }
}
