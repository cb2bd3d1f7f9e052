//! Simulated quantum annealing (path-integral Monte Carlo).
//!
//! The stand-in for the D-Wave QPU: the transverse-field Ising Hamiltonian
//!
//! ```text
//! H(t) = A(t)·Σ σ_i^x  +  B(t)·( Σ h_i σ_i^z + Σ J_ij σ_i^z σ_j^z )
//! ```
//!
//! is simulated by the standard Suzuki-Trotter mapping onto `P` coupled
//! classical replicas ("imaginary-time slices"): slice `p` carries the
//! problem couplings scaled by `1/P`, and consecutive slices are coupled
//! ferromagnetically with
//!
//! ```text
//! J⊥(Γ) = (1/2β) · ln coth(β·Γ/P)
//! ```
//!
//! which strengthens as the transverse field `Γ` anneals to zero, freezing
//! the replicas into one classical configuration. The per-shot annealing
//! time `Δt` of the paper maps to PIMC sweeps ([`SqaConfig::from_anneal_time`]);
//! shots are restarts, so total runtime is `t = Δt · s` exactly as in
//! Section "Annealing time Δt of qaMKP".

use crate::result::AnnealOutcome;
use crate::sa::SweepMeter;
use qmkp_qubo::{IsingModel, QuboModel};
use qmkp_rt::checkpoint::{
    bools_to_json, f64_to_json, f64s_to_json, parse_object, require, require_bools,
    require_f64_bits, require_f64s, require_u64,
};
use qmkp_rt::{derive_seed, Checkpoint, Interrupted, RtContext, RtError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// PIMC sweeps that stand in for one microsecond of annealing time.
pub const SWEEPS_PER_MICROSECOND: usize = 8;

/// Configuration for [`sqa_qubo`].
#[derive(Debug, Clone)]
pub struct SqaConfig {
    /// Independent anneals (the shot count `s`).
    pub shots: usize,
    /// PIMC sweeps per shot (the annealing time `Δt`).
    pub sweeps: usize,
    /// Trotter slices `P`.
    pub trotter_slices: usize,
    /// Inverse temperature of the PIMC.
    pub beta: f64,
    /// Initial transverse field `Γ₀`.
    pub gamma_start: f64,
    /// Final transverse field `Γ₁` (> 0).
    pub gamma_end: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SqaConfig {
    fn default() -> Self {
        SqaConfig {
            shots: 50,
            sweeps: 8,
            trotter_slices: 16,
            beta: 8.0,
            gamma_start: 3.0,
            gamma_end: 0.05,
            seed: 0,
        }
    }
}

impl SqaConfig {
    /// The paper's runtime accounting: a per-shot annealing time in
    /// microseconds plus a shot count.
    pub fn from_anneal_time(dt_microseconds: f64, shots: usize) -> Self {
        SqaConfig {
            shots,
            sweeps: ((dt_microseconds * SWEEPS_PER_MICROSECOND as f64).round() as usize).max(1),
            ..SqaConfig::default()
        }
    }
}

/// The transverse field at sweep `sweep` and the slice coupling `J⊥` it
/// induces (the slice-coupling energy term is −J⊥·s·s′, J⊥ > 0).
fn transverse_schedule(config: &SqaConfig, sweep: usize) -> (f64, f64) {
    let f = if config.sweeps == 1 {
        1.0
    } else {
        sweep as f64 / (config.sweeps - 1) as f64
    };
    let gamma = config.gamma_start + f * (config.gamma_end - config.gamma_start);
    let x = (config.beta * gamma / config.trotter_slices as f64).tanh();
    (gamma, -(0.5 / config.beta) * x.ln())
}

/// One PIMC sweep over every slice and spin.
fn pimc_sweep(
    h: &[f64],
    adj: &[Vec<(usize, f64)>],
    beta: f64,
    inv_p: f64,
    j_perp: f64,
    replicas: &mut [Vec<i8>],
    rng: &mut StdRng,
) {
    let p = replicas.len();
    let n = h.len();
    for slice in 0..p {
        let up = (slice + 1) % p;
        let down = (slice + p - 1) % p;
        for i in 0..n {
            let s = replicas[slice][i] as f64;
            let mut local = h[i];
            for &(j, c) in &adj[i] {
                local += c * replicas[slice][j] as f64;
            }
            let time_nbrs = (replicas[up][i] + replicas[down][i]) as f64;
            // The classical energy carries s·[(1/P)·local − J⊥·tn];
            // flipping s → −s changes it by −2s·[…].
            let delta = -2.0 * s * (inv_p * local - j_perp * time_nbrs);
            if delta <= 0.0 || rng.gen::<f64>() < (-beta * delta).exp() {
                replicas[slice][i] = -replicas[slice][i];
            }
        }
    }
}

/// The best classical solution among the Trotter slices.
fn best_slice(q: &QuboModel, replicas: &[Vec<i8>]) -> (f64, Vec<bool>) {
    let mut shot_best = f64::INFINITY;
    let mut shot_best_x: Vec<bool> = Vec::new();
    for slice in replicas {
        let x: Vec<bool> = slice.iter().map(|&s| s > 0).collect();
        let e = q.energy(&x);
        if e < shot_best {
            shot_best = e;
            shot_best_x = x;
        }
    }
    (shot_best, shot_best_x)
}

/// Runs simulated quantum annealing on a QUBO (converted to Ising
/// internally); energies reported are logical QUBO energies.
///
/// # Panics
/// Panics on zero shots/sweeps/slices or a non-positive field schedule.
pub fn sqa_qubo(q: &QuboModel, config: &SqaConfig) -> AnnealOutcome {
    assert!(
        config.shots > 0 && config.sweeps > 0,
        "need shots and sweeps"
    );
    assert!(config.trotter_slices >= 2, "need at least 2 Trotter slices");
    assert!(
        config.gamma_start > config.gamma_end && config.gamma_end > 0.0,
        "transverse field must anneal downward to a positive value"
    );
    let span = qmkp_obs::span("anneal.sqa.run");
    let traced = qmkp_obs::enabled_for("anneal.sqa");
    let meter = SweepMeter::new("sqa");
    let ising = IsingModel::from_qubo(q);
    let n = ising.num_spins();
    let p = config.trotter_slices;
    let adj = ising.neighbor_lists();
    let inv_p = 1.0 / p as f64;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let start = Instant::now();

    let mut best: Vec<bool> = vec![false; n];
    let mut best_energy = f64::INFINITY;
    let mut shot_energies = Vec::with_capacity(config.shots);
    let mut trace = Vec::new();

    for _ in 0..config.shots {
        // replicas[p][i] ∈ {−1, +1}
        let mut replicas: Vec<Vec<i8>> = (0..p)
            .map(|_| (0..n).map(|_| if rng.gen() { 1i8 } else { -1 }).collect())
            .collect();

        for sweep in 0..config.sweeps {
            let (gamma, j_perp) = transverse_schedule(config, sweep);
            let timed = meter.start();
            pimc_sweep(
                &ising.h,
                &adj,
                config.beta,
                inv_p,
                j_perp,
                &mut replicas,
                &mut rng,
            );
            meter.finish(timed);
            if traced {
                qmkp_obs::gauge("anneal.sqa.gamma", &[], gamma);
            }
        }

        // Each slice is a candidate classical solution; keep the best.
        let (shot_best, shot_best_x) = best_slice(q, &replicas);
        if traced {
            qmkp_obs::counter("anneal.sqa.shots", &[], 1);
            qmkp_obs::gauge("anneal.sqa.shot_energy", &[], shot_best);
        }
        shot_energies.push(shot_best);
        if shot_best < best_energy {
            best_energy = shot_best;
            best = shot_best_x;
            trace.push((start.elapsed(), shot_best));
        }
    }

    qmkp_obs::gauge("anneal.sqa.best_energy", &[], best_energy);
    span.finish();
    AnnealOutcome {
        best,
        best_energy,
        shot_energies,
        trace,
        elapsed: start.elapsed(),
    }
}

/// A resumable position inside a budgeted SQA run, taken at PIMC-sweep
/// boundaries. The Trotter replicas fully determine the Markov state, and
/// [`sqa_qubo_ctx`] derives each sweep's RNG from `(seed, shot, sweep)`,
/// so resuming replays the remaining sweeps exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SqaCheckpoint {
    /// Shot being annealed when the run was interrupted.
    pub shot: usize,
    /// Next sweep to run within that shot.
    pub sweep: usize,
    /// Trotter slices of the interrupted shot (`true` ⇔ spin +1).
    pub replicas: Vec<Vec<bool>>,
    /// Best assignment over completed shots.
    pub best: Vec<bool>,
    /// Energy of `best` (`f64::INFINITY` before the first completed shot).
    pub best_energy: f64,
    /// Final energies of completed shots.
    pub shot_energies: Vec<f64>,
}

impl Checkpoint for SqaCheckpoint {
    fn to_json(&self) -> String {
        let mut replicas = String::from("[");
        for (i, slice) in self.replicas.iter().enumerate() {
            if i > 0 {
                replicas.push_str(", ");
            }
            replicas.push_str(&bools_to_json(slice));
        }
        replicas.push(']');
        format!(
            "{{\"shot\": {}, \"sweep\": {}, \"replicas\": {}, \"best\": {}, \
             \"best_energy\": {}, \"shot_energies\": {}}}",
            self.shot,
            self.sweep,
            replicas,
            bools_to_json(&self.best),
            f64_to_json(self.best_energy),
            f64s_to_json(&self.shot_energies),
        )
    }

    fn from_json(s: &str) -> Result<Self, RtError> {
        let obj = parse_object(s)?;
        let slices = require(&obj, "replicas")?
            .as_array()
            .ok_or_else(|| RtError::InvalidConfig("checkpoint: replicas is not an array".into()))?;
        let mut replicas = Vec::with_capacity(slices.len());
        for slice in slices {
            let raw = slice.as_str().ok_or_else(|| {
                RtError::InvalidConfig("checkpoint: replica slice is not a string".into())
            })?;
            replicas.push(
                raw.chars()
                    .map(|c| match c {
                        '0' => Ok(false),
                        '1' => Ok(true),
                        _ => Err(RtError::InvalidConfig(
                            "checkpoint: replica slice is not a 0/1 string".into(),
                        )),
                    })
                    .collect::<Result<Vec<bool>, RtError>>()?,
            );
        }
        Ok(SqaCheckpoint {
            shot: require_u64(&obj, "shot")? as usize,
            sweep: require_u64(&obj, "sweep")? as usize,
            replicas,
            best: require_bools(&obj, "best")?,
            best_energy: require_f64_bits(&obj, "best_energy")?,
            shot_energies: require_f64s(&obj, "shot_energies")?,
        })
    }
}

fn validate_sqa(config: &SqaConfig) -> Result<(), RtError> {
    if config.shots == 0 || config.sweeps == 0 {
        return Err(RtError::InvalidConfig("sqa: need shots and sweeps".into()));
    }
    if config.trotter_slices < 2 {
        return Err(RtError::InvalidConfig(
            "sqa: need at least 2 Trotter slices".into(),
        ));
    }
    if !(config.gamma_start > config.gamma_end && config.gamma_end > 0.0) {
        return Err(RtError::InvalidConfig(
            "sqa: transverse field must anneal downward to a positive value".into(),
        ));
    }
    Ok(())
}

/// Runs simulated quantum annealing under an execution-runtime context.
///
/// Cancellation and the budget are polled at PIMC-sweep granularity (plus
/// the `annealer.sqa.sweep` failpoint). Shot `s` draws its starting
/// replicas from `derive_seed(seed, s, u64::MAX)` and sweep `w` of shot
/// `s` from `derive_seed(seed, s, w)`, so an interrupted run resumes from
/// its [`SqaCheckpoint`] bit-identically (trace timestamps aside).
///
/// Fresh-start runs under a deadline pace their sweep schedule from one
/// probe PIMC sweep (see [`crate::pacing`]), reported via the
/// `anneal.sqa.paced_sweeps` gauge.
///
/// # Errors
/// [`Interrupted`] pairing the [`RtError`] with the sweep-boundary
/// checkpoint; for a rejected configuration the checkpoint is empty.
pub fn sqa_qubo_ctx(
    q: &QuboModel,
    config: &SqaConfig,
    ctx: &RtContext,
    resume: Option<&SqaCheckpoint>,
) -> Result<AnnealOutcome, Interrupted<SqaCheckpoint>> {
    let empty = || SqaCheckpoint {
        shot: 0,
        sweep: 0,
        replicas: Vec::new(),
        best: Vec::new(),
        best_energy: f64::INFINITY,
        shot_energies: Vec::new(),
    };
    if let Err(e) = validate_sqa(config) {
        return Err(Interrupted::new(e, empty()));
    }
    let span = qmkp_obs::span("anneal.sqa.run");
    let traced = qmkp_obs::enabled_for("anneal.sqa");
    let meter = SweepMeter::new("sqa");
    let ising = IsingModel::from_qubo(q);
    let n = ising.num_spins();
    let p = config.trotter_slices;
    let adj = ising.neighbor_lists();
    let inv_p = 1.0 / p as f64;
    let start = Instant::now();

    let mut paced = config.clone();
    if resume.is_none() {
        if let Some(remaining) = crate::pacing::remaining_deadline(ctx) {
            // Probe one PIMC sweep on a clone of the shot-0 replicas; the
            // real shot 0 re-derives the same init, so the probe leaves
            // no trace in the results beyond the effective sweep count.
            let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, 0, u64::MAX));
            let mut replicas: Vec<Vec<i8>> = (0..p)
                .map(|_| (0..n).map(|_| if rng.gen() { 1i8 } else { -1 }).collect())
                .collect();
            let (_, j_perp) = transverse_schedule(config, 0);
            let probe = Instant::now();
            pimc_sweep(
                &ising.h,
                &adj,
                config.beta,
                inv_p,
                j_perp,
                &mut replicas,
                &mut rng,
            );
            let per_sweep = probe.elapsed();
            paced.sweeps = crate::pacing::paced_sweeps(
                remaining.saturating_sub(per_sweep),
                per_sweep,
                config.shots,
                config.sweeps,
            );
            qmkp_obs::gauge("anneal.sqa.paced_sweeps", &[], paced.sweeps as f64);
        }
    }
    let config = &paced;

    let mut best: Vec<bool> = vec![false; n];
    let mut best_energy = f64::INFINITY;
    let mut shot_energies = Vec::with_capacity(config.shots);
    let mut trace = Vec::new();
    let mut start_shot = 0;
    let mut start_sweep = 0;
    let mut resumed_replicas: Option<Vec<Vec<i8>>> = None;

    if let Some(cp) = resume {
        let shape_ok = cp.shot < config.shots
            && cp.sweep < config.sweeps
            && cp.replicas.len() == p
            && cp.replicas.iter().all(|s| s.len() == n);
        if !shape_ok {
            span.finish();
            return Err(Interrupted::new(
                RtError::InvalidConfig(
                    "sqa: checkpoint does not match the model or schedule".into(),
                ),
                cp.clone(),
            ));
        }
        start_shot = cp.shot;
        start_sweep = cp.sweep;
        resumed_replicas = Some(
            cp.replicas
                .iter()
                .map(|s| s.iter().map(|&b| if b { 1i8 } else { -1 }).collect())
                .collect(),
        );
        best = cp.best.clone();
        best_energy = cp.best_energy;
        shot_energies = cp.shot_energies.clone();
    }

    for shot in start_shot..config.shots {
        let mut replicas: Vec<Vec<i8>> = match resumed_replicas.take() {
            Some(r) => r,
            None => {
                let mut init =
                    StdRng::seed_from_u64(derive_seed(config.seed, shot as u64, u64::MAX));
                (0..p)
                    .map(|_| (0..n).map(|_| if init.gen() { 1i8 } else { -1 }).collect())
                    .collect()
            }
        };

        let first_sweep = if shot == start_shot { start_sweep } else { 0 };
        for sweep in first_sweep..config.sweeps {
            let interrupted = qmkp_rt::failpoint::check("annealer.sqa.sweep")
                .and_then(|()| ctx.check())
                .err();
            if let Some(e) = interrupted {
                span.finish();
                return Err(Interrupted::new(
                    e,
                    SqaCheckpoint {
                        shot,
                        sweep,
                        replicas: replicas
                            .iter()
                            .map(|s| s.iter().map(|&v| v > 0).collect())
                            .collect(),
                        best,
                        best_energy,
                        shot_energies,
                    },
                ));
            }
            let mut rng =
                StdRng::seed_from_u64(derive_seed(config.seed, shot as u64, sweep as u64));
            let (gamma, j_perp) = transverse_schedule(config, sweep);
            let timed = meter.start();
            pimc_sweep(
                &ising.h,
                &adj,
                config.beta,
                inv_p,
                j_perp,
                &mut replicas,
                &mut rng,
            );
            meter.finish(timed);
            if traced {
                qmkp_obs::gauge("anneal.sqa.gamma", &[], gamma);
            }
        }

        let (shot_best, shot_best_x) = best_slice(q, &replicas);
        if traced {
            qmkp_obs::counter("anneal.sqa.shots", &[], 1);
            qmkp_obs::gauge("anneal.sqa.shot_energy", &[], shot_best);
        }
        shot_energies.push(shot_best);
        if shot_best < best_energy {
            best_energy = shot_best;
            best = shot_best_x;
            trace.push((start.elapsed(), shot_best));
        }
    }

    qmkp_obs::gauge("anneal.sqa.best_energy", &[], best_energy);
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

    fn small_model() -> QuboModel {
        let mut q = QuboModel::new(4);
        q.add_linear(0, -3.0);
        q.add_linear(1, -1.0);
        q.add_linear(2, 2.0);
        q.add_quadratic(0, 1, 2.0);
        q.add_quadratic(0, 3, -1.5);
        q.add_quadratic(2, 3, 1.0);
        q
    }

    #[test]
    fn finds_global_minimum_of_small_models() {
        let q = small_model();
        let (_, brute) = q.brute_force_min();
        let out = sqa_qubo(
            &q,
            &SqaConfig {
                shots: 40,
                sweeps: 30,
                ..SqaConfig::default()
            },
        );
        assert!(
            (out.best_energy - brute).abs() < 1e-9,
            "{} vs {brute}",
            out.best_energy
        );
    }

    #[test]
    fn solves_the_fig1_mkp_qubo() {
        let g = qmkp_graph::gen::paper_fig1_graph();
        let mq = MkpQubo::new(&g, MkpQuboParams { k: 2, r: 2.0 });
        let out = sqa_qubo(
            &mq.model,
            &SqaConfig {
                shots: 60,
                sweeps: 40,
                ..SqaConfig::default()
            },
        );
        assert!(
            out.best_energy <= -3.0,
            "should find a near-optimal plex, got {}",
            out.best_energy
        );
        let p = mq.decode_repaired(
            out.best
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b)
                .fold(0u128, |acc, (i, _)| acc | (1 << i)),
        );
        assert!(qmkp_graph::is_kplex(&g, p, 2));
    }

    #[test]
    fn anneal_time_mapping() {
        let c = SqaConfig::from_anneal_time(1.0, 10);
        assert_eq!(c.sweeps, SWEEPS_PER_MICROSECOND);
        assert_eq!(c.shots, 10);
        let c = SqaConfig::from_anneal_time(0.01, 1);
        assert_eq!(c.sweeps, 1, "tiny Δt still does one sweep");
    }

    #[test]
    fn longer_anneals_do_not_hurt_on_average() {
        // Statistical, but with enough shots the ordering is stable.
        let q = small_model();
        let (_, brute) = q.brute_force_min();
        let short = sqa_qubo(
            &q,
            &SqaConfig {
                shots: 60,
                sweeps: 1,
                seed: 5,
                ..SqaConfig::default()
            },
        );
        let long = sqa_qubo(
            &q,
            &SqaConfig {
                shots: 60,
                sweeps: 40,
                seed: 5,
                ..SqaConfig::default()
            },
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&long.shot_energies) <= mean(&short.shot_energies) + 1e-9,
            "longer anneals should improve mean energy"
        );
        assert!((long.best_energy - brute).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let q = small_model();
        let a = sqa_qubo(
            &q,
            &SqaConfig {
                seed: 3,
                ..SqaConfig::default()
            },
        );
        let b = sqa_qubo(
            &q,
            &SqaConfig {
                seed: 3,
                ..SqaConfig::default()
            },
        );
        assert_eq!(a.shot_energies, b.shot_energies);
    }

    #[test]
    #[should_panic(expected = "Trotter")]
    fn one_slice_rejected() {
        let q = small_model();
        let _ = sqa_qubo(
            &q,
            &SqaConfig {
                trotter_slices: 1,
                ..SqaConfig::default()
            },
        );
    }

    #[test]
    fn ctx_variant_finds_the_same_optimum() {
        let q = small_model();
        let (_, brute) = q.brute_force_min();
        let config = SqaConfig {
            shots: 40,
            sweeps: 30,
            ..SqaConfig::default()
        };
        let out = sqa_qubo_ctx(&q, &config, &RtContext::unlimited(), None).unwrap();
        assert!((out.best_energy - brute).abs() < 1e-9);
    }

    #[test]
    fn ctx_variant_rejects_invalid_configs_without_panicking() {
        let q = small_model();
        let err = sqa_qubo_ctx(
            &q,
            &SqaConfig {
                trotter_slices: 1,
                ..SqaConfig::default()
            },
            &RtContext::unlimited(),
            None,
        )
        .expect_err("one slice");
        assert!(matches!(err.error, RtError::InvalidConfig(_)));
    }

    #[test]
    fn generous_deadline_leaves_results_identical() {
        use qmkp_rt::Budget;
        use std::time::Duration;
        let q = small_model();
        let config = SqaConfig {
            shots: 6,
            sweeps: 5,
            trotter_slices: 4,
            ..SqaConfig::default()
        };
        let plain = sqa_qubo_ctx(&q, &config, &RtContext::unlimited(), None).unwrap();
        let ctx =
            RtContext::with_budget(Budget::unlimited().with_deadline(Duration::from_secs(3600)));
        let paced = sqa_qubo_ctx(&q, &config, &ctx, None).unwrap();
        assert_eq!(paced.best, plain.best);
        assert_eq!(paced.best_energy.to_bits(), plain.best_energy.to_bits());
        let a: Vec<u64> = paced.shot_energies.iter().map(|e| e.to_bits()).collect();
        let b: Vec<u64> = plain.shot_energies.iter().map(|e| e.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn cancelled_run_resumes_bit_identically() {
        use qmkp_rt::{Budget, CancelToken};
        let q = small_model();
        let config = SqaConfig {
            shots: 6,
            sweeps: 5,
            trotter_slices: 4,
            seed: 11,
            ..SqaConfig::default()
        };
        let straight = sqa_qubo_ctx(&q, &config, &RtContext::unlimited(), None).unwrap();

        // One runtime poll per sweep: fuse f interrupts before sweep f.
        for fuse in [0u64, 1, 7, 13, 29] {
            let ctx = RtContext::new(Budget::unlimited(), CancelToken::cancel_after_checks(fuse));
            let err = sqa_qubo_ctx(&q, &config, &ctx, None).expect_err("fuse inside schedule");
            assert_eq!(err.error, RtError::Cancelled, "fuse={fuse}");

            let cp = SqaCheckpoint::from_json(&err.checkpoint.to_json()).unwrap();
            assert_eq!(cp, *err.checkpoint, "serialization must be lossless");
            let resumed = sqa_qubo_ctx(&q, &config, &RtContext::unlimited(), Some(&cp)).unwrap();
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
}
