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
use qmkp_rt::{RtContext, RtError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::convert::Infallible;
use std::time::{Duration, Instant};

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

/// Random Trotter replicas: `p` slices of `n` spins, each ±1.
fn random_replicas(p: usize, n: usize, rng: &mut StdRng) -> Vec<Vec<i8>> {
    (0..p)
        .map(|_| (0..n).map(|_| if rng.gen() { 1i8 } else { -1 }).collect())
        .collect()
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
    match anneal(q, config, None, || Ok::<(), Infallible>(())) {
        Ok(out) => out,
        Err(never) => match never {},
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
/// This is [`sqa_qubo`]'s loop and random stream, so an uninterrupted
/// run returns exactly what [`sqa_qubo`] returns. Before every PIMC sweep
/// it consults the `annealer.sqa.sweep` failpoint, then polls the
/// context. Under a deadline the sweep schedule is paced from one probe
/// sweep (see [`crate::pacing`]), reported via the
/// `anneal.sqa.paced_sweeps` gauge.
///
/// # Errors
/// [`RtError::InvalidConfig`] for a configuration [`sqa_qubo`] panics
/// on; otherwise the error of the poll that stopped the run.
pub fn sqa_qubo_ctx(
    q: &QuboModel,
    config: &SqaConfig,
    ctx: &RtContext,
) -> Result<AnnealOutcome, RtError> {
    validate_sqa(config)?;
    anneal(q, config, crate::pacing::remaining_deadline(ctx), || {
        qmkp_rt::failpoint::check("annealer.sqa.sweep").and_then(|()| ctx.check())
    })
}

/// The SQA loop of [`sqa_qubo`] and [`sqa_qubo_ctx`]. `poll` runs before
/// every sweep and its error ends the run; `remaining` is the wall-clock
/// time the schedule is paced to fit.
fn anneal<E>(
    q: &QuboModel,
    config: &SqaConfig,
    remaining: Option<Duration>,
    mut poll: impl FnMut() -> Result<(), E>,
) -> Result<AnnealOutcome, E> {
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

    let paced;
    let config = match remaining {
        None => config,
        Some(remaining) => {
            // Probe one PIMC sweep on clones of the generator and of shot
            // 0's replicas, so the real run draws the unpaced stream.
            let mut probe_rng = rng.clone();
            let mut replicas = random_replicas(p, n, &mut probe_rng);
            let (_, j_perp) = transverse_schedule(config, 0);
            let probe = Instant::now();
            pimc_sweep(
                &ising.h,
                &adj,
                config.beta,
                inv_p,
                j_perp,
                &mut replicas,
                &mut probe_rng,
            );
            let per_sweep = probe.elapsed();
            paced = SqaConfig {
                sweeps: crate::pacing::paced_sweeps(
                    remaining.saturating_sub(per_sweep),
                    per_sweep,
                    config.shots,
                    config.sweeps,
                ),
                ..config.clone()
            };
            qmkp_obs::gauge("anneal.sqa.paced_sweeps", &[], paced.sweeps as f64);
            &paced
        }
    };

    let mut best: Vec<bool> = vec![false; n];
    let mut best_energy = f64::INFINITY;
    let mut shot_energies = Vec::with_capacity(config.shots);
    let mut trace = Vec::new();

    for _ in 0..config.shots {
        // replicas[p][i] ∈ {−1, +1}
        let mut replicas = random_replicas(p, n, &mut rng);

        for sweep in 0..config.sweeps {
            poll()?;
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
        let out = sqa_qubo_ctx(&q, &config, &RtContext::unlimited()).unwrap();
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
        )
        .expect_err("one slice");
        assert!(matches!(err, RtError::InvalidConfig(_)));
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
        let plain = sqa_qubo_ctx(&q, &config, &RtContext::unlimited()).unwrap();
        let ctx =
            RtContext::with_budget(Budget::unlimited().with_deadline(Duration::from_secs(3600)));
        let paced = sqa_qubo_ctx(&q, &config, &ctx).unwrap();
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
        // A model big enough that per-sweep cost is stable to measure.
        let mut q = QuboModel::new(200);
        for i in 0..200 {
            q.add_linear(i, -1.0);
            q.add_quadratic(i, (i + 1) % 200, 2.0);
        }
        let config = SqaConfig {
            shots: 2,
            sweeps: 50_000_000, // hours at full length
            ..SqaConfig::default()
        };
        let collector = Arc::new(qmkp_obs::Collector::for_current_thread());
        let guard = qmkp_obs::attach(collector.clone());
        let ctx = RtContext::with_budget(Budget::unlimited().with_deadline(Duration::from_secs(1)));
        let result = sqa_qubo_ctx(&q, &config, &ctx);
        drop(guard);
        let paced = collector
            .last_gauge("anneal.sqa.paced_sweeps")
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
            // interrupts.
            Err(e) => assert!(matches!(e, RtError::DeadlineExceeded { .. }), "{e}"),
        }
    }

    #[test]
    fn cancellation_fuse_stops_the_run_before_a_sweep() {
        use qmkp_rt::{Budget, CancelToken};
        let q = small_model();
        let config = SqaConfig {
            shots: 6,
            sweeps: 5,
            trotter_slices: 4,
            seed: 11,
            ..SqaConfig::default()
        };
        // One runtime poll per sweep: fuse f cancels before sweep f of the
        // 30, and a fuse past the schedule lets the run finish.
        for fuse in [0u64, 1, 7, 13, 29] {
            let ctx = RtContext::new(Budget::unlimited(), CancelToken::cancel_after_checks(fuse));
            let err = sqa_qubo_ctx(&q, &config, &ctx).expect_err("fuse inside schedule");
            assert_eq!(err, RtError::Cancelled, "fuse={fuse}");
        }
        let ctx = RtContext::new(Budget::unlimited(), CancelToken::cancel_after_checks(30));
        let out = sqa_qubo_ctx(&q, &config, &ctx).expect("fuse past the schedule");
        assert_eq!(out.shot_energies, sqa_qubo(&q, &config).shot_energies);
    }

    /// Pins the plain sampler's random stream. Tables V–VII, Figs. 9–10
    /// and the `anneal_qamkp` benchmark all draw it, and the
    /// `deterministic_*` test only compares two runs of the same build.
    #[test]
    fn plain_stream_is_pinned() {
        let g = qmkp_graph::gen::paper_fig1_graph();
        let mq = MkpQubo::new(&g, MkpQuboParams { k: 2, r: 2.0 });
        let out = sqa_qubo(
            &mq.model,
            &SqaConfig {
                shots: 6,
                sweeps: 4,
                trotter_slices: 4,
                seed: 7,
                ..SqaConfig::default()
            },
        );
        let bits: Vec<u64> = out.shot_energies.iter().map(|e| e.to_bits()).collect();
        assert_eq!(
            bits,
            [
                0x3ff0000000000000,
                0xbff0000000000000,
                0x3ff0000000000000,
                0xc000000000000000,
                0xc000000000000000,
                0xc010000000000000,
            ]
        );
        let best: String = out
            .best
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        assert_eq!(best, "1101101001001000100");
    }

    #[test]
    fn ctx_variant_is_the_plain_sampler() {
        let q = small_model();
        for seed in [0, 1, 7, 42] {
            let config = SqaConfig {
                shots: 6,
                sweeps: 5,
                trotter_slices: 4,
                seed,
                ..SqaConfig::default()
            };
            let plain = sqa_qubo(&q, &config);
            let ctx = sqa_qubo_ctx(&q, &config, &RtContext::unlimited()).unwrap();
            assert_eq!(ctx.best, plain.best, "seed {seed}");
            assert_eq!(ctx.best_energy.to_bits(), plain.best_energy.to_bits());
            let a: Vec<u64> = ctx.shot_energies.iter().map(|e| e.to_bits()).collect();
            let b: Vec<u64> = plain.shot_energies.iter().map(|e| e.to_bits()).collect();
            assert_eq!(a, b, "seed {seed}");
        }
    }
}
