//! Parallel tempering (replica exchange) over a QUBO.
//!
//! A further classical baseline from the annealing family: `R` replicas
//! run Metropolis sweeps at a geometric inverse-temperature ladder and
//! periodically attempt to swap neighbouring-temperature configurations
//! with probability `min(1, e^{Δβ·ΔE})`. Hot replicas roam; cold replicas
//! refine — often stronger than restart-based SA on rugged landscapes
//! like the MKP penalty surface.

use crate::result::AnnealOutcome;
use crate::sa::{init_fields, metropolis_sweep, SweepMeter};
use qmkp_qubo::QuboModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Configuration for [`temper_qubo`].
#[derive(Debug, Clone)]
pub struct TemperingConfig {
    /// Number of replicas (temperature rungs).
    pub replicas: usize,
    /// Metropolis sweeps between swap attempts.
    pub sweeps_per_round: usize,
    /// Swap rounds.
    pub rounds: usize,
    /// Coldest inverse temperature.
    pub beta_cold: f64,
    /// Hottest inverse temperature.
    pub beta_hot: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TemperingConfig {
    fn default() -> Self {
        TemperingConfig {
            replicas: 8,
            sweeps_per_round: 4,
            rounds: 30,
            beta_cold: 12.0,
            beta_hot: 0.05,
            seed: 0,
        }
    }
}

/// Geometric β ladder, index 0 = coldest.
fn beta_ladder(config: &TemperingConfig) -> Vec<f64> {
    (0..config.replicas)
        .map(|r| {
            let f = r as f64 / (config.replicas - 1) as f64;
            config.beta_cold * (config.beta_hot / config.beta_cold).powf(f)
        })
        .collect()
}

/// Swap attempts between neighbouring rungs; returns how many succeeded.
fn swap_neighbours(
    betas: &[f64],
    states: &mut [Vec<bool>],
    energies: &mut [f64],
    fields: &mut [Vec<f64>],
    rng: &mut StdRng,
) -> u64 {
    let mut swaps = 0u64;
    for r in 0..betas.len() - 1 {
        let d_beta = betas[r] - betas[r + 1];
        let d_e = energies[r] - energies[r + 1];
        if d_beta * d_e >= 0.0 || rng.gen::<f64>() < (d_beta * d_e).exp() {
            states.swap(r, r + 1);
            energies.swap(r, r + 1);
            fields.swap(r, r + 1);
            swaps += 1;
        }
    }
    swaps
}

/// Runs parallel tempering; returns the best configuration seen anywhere
/// in the ladder.
///
/// # Panics
/// Panics on degenerate configurations (fewer than 2 replicas, empty
/// schedule, or a non-increasing β ladder).
pub fn temper_qubo(q: &QuboModel, config: &TemperingConfig) -> AnnealOutcome {
    assert!(config.replicas >= 2, "need at least two replicas");
    assert!(
        config.rounds > 0 && config.sweeps_per_round > 0,
        "empty schedule"
    );
    assert!(
        config.beta_cold > config.beta_hot && config.beta_hot > 0.0,
        "β ladder must decrease from cold to hot"
    );
    let span = qmkp_obs::span("anneal.tempering.run");
    let traced = qmkp_obs::enabled_for("anneal.tempering");
    let meter = SweepMeter::new("tempering");
    let n = q.num_vars();
    let adj = q.neighbor_lists();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let start = Instant::now();

    let betas = beta_ladder(config);

    let mut states: Vec<Vec<bool>> = (0..config.replicas)
        .map(|_| (0..n).map(|_| rng.gen()).collect())
        .collect();
    let mut energies: Vec<f64> = states.iter().map(|x| q.energy(x)).collect();
    let mut fields: Vec<Vec<f64>> = states.iter().map(|x| init_fields(q, &adj, x)).collect();

    let mut best = states[0].clone();
    let mut best_energy = energies[0];
    let mut shot_energies = Vec::new();
    let mut trace = Vec::new();
    let record = |x: &Vec<bool>,
                  e: f64,
                  best: &mut Vec<bool>,
                  best_energy: &mut f64,
                  trace: &mut Vec<(std::time::Duration, f64)>,
                  start: &Instant| {
        if e < *best_energy {
            *best_energy = e;
            *best = x.clone();
            trace.push((start.elapsed(), e));
        }
    };
    for (r, x) in states.iter().enumerate() {
        record(
            x,
            energies[r],
            &mut best,
            &mut best_energy,
            &mut trace,
            &start,
        );
    }

    for _ in 0..config.rounds {
        // Metropolis sweeps at every rung.
        for r in 0..config.replicas {
            for _ in 0..config.sweeps_per_round {
                let timed = meter.start();
                metropolis_sweep(
                    &adj,
                    betas[r],
                    &mut states[r],
                    &mut fields[r],
                    &mut energies[r],
                    &mut rng,
                );
                meter.finish(timed);
            }
            record(
                &states[r],
                energies[r],
                &mut best,
                &mut best_energy,
                &mut trace,
                &start,
            );
            shot_energies.push(energies[r]);
        }
        let swaps = swap_neighbours(&betas, &mut states, &mut energies, &mut fields, &mut rng);
        if traced {
            qmkp_obs::counter("anneal.tempering.swaps", &[], swaps);
            qmkp_obs::gauge("anneal.tempering.best_energy", &[], best_energy);
        }
    }

    span.finish();
    AnnealOutcome {
        best,
        best_energy,
        shot_energies,
        trace,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp_qubo::{MkpQubo, MkpQuboParams};

    #[test]
    fn finds_the_mkp_optimum() {
        let g = qmkp_graph::gen::paper_anneal_dataset(10, 40);
        let mq = MkpQubo::new(&g, MkpQuboParams { k: 3, r: 2.0 });
        let out = temper_qubo(&mq.model, &TemperingConfig::default());
        // Brute force over all 2^10 vertex subsets shows the whole graph is
        // a 3-plex, so the optimum energy is -10.
        assert!(
            (out.best_energy + 10.0).abs() < 1e-9,
            "got {}",
            out.best_energy
        );
        assert!((mq.model.energy(&out.best) - out.best_energy).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = qmkp_graph::gen::gnm(8, 14, 2).unwrap();
        let mq = MkpQubo::new(&g, MkpQuboParams::default());
        let a = temper_qubo(
            &mq.model,
            &TemperingConfig {
                seed: 5,
                ..TemperingConfig::default()
            },
        );
        let b = temper_qubo(
            &mq.model,
            &TemperingConfig {
                seed: 5,
                ..TemperingConfig::default()
            },
        );
        assert_eq!(a.best_energy, b.best_energy);
        assert_eq!(a.shot_energies, b.shot_energies);
    }

    #[test]
    fn trace_strictly_improves() {
        let g = qmkp_graph::gen::gnm(9, 18, 4).unwrap();
        let mq = MkpQubo::new(&g, MkpQuboParams::default());
        let out = temper_qubo(&mq.model, &TemperingConfig::default());
        for w in out.trace.windows(2) {
            assert!(w[1].1 < w[0].1);
        }
    }

    #[test]
    #[should_panic(expected = "two replicas")]
    fn one_replica_rejected() {
        let q = QuboModel::new(2);
        let _ = temper_qubo(
            &q,
            &TemperingConfig {
                replicas: 1,
                ..TemperingConfig::default()
            },
        );
    }

    /// Pins the plain sampler's random stream. The sampler ablation draws
    /// it, and `deterministic_under_seed` only compares two runs of the
    /// same build.
    #[test]
    fn plain_stream_is_pinned() {
        let g = qmkp_graph::gen::paper_fig1_graph();
        let mq = MkpQubo::new(&g, MkpQuboParams { k: 2, r: 2.0 });
        let out = temper_qubo(
            &mq.model,
            &TemperingConfig {
                replicas: 3,
                sweeps_per_round: 1,
                rounds: 3,
                seed: 7,
                ..TemperingConfig::default()
            },
        );
        let bits: Vec<u64> = out.shot_energies.iter().map(|e| e.to_bits()).collect();
        assert_eq!(
            bits,
            [
                0xc008000000000000,
                0x4008000000000000,
                0x4036000000000000,
                0xc008000000000000,
                0x4018000000000000,
                0x402a000000000000,
                0xc008000000000000,
                0x4008000000000000,
                0x401c000000000000,
            ]
        );
        let best: String = out
            .best
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        assert_eq!(best, "1011001010000010100");
    }
}
