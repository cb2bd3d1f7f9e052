//! Classical simulated annealing over a QUBO — the paper's "SA" baseline.
//!
//! The paper controls SA runtime exactly like the quantum annealer: a
//! number of *sweeps* per shot (its analogue of the annealing time; the
//! paper fixes 2) and a shot count `s`. Each shot restarts from a random
//! assignment and Metropolis-anneals along a geometric inverse-temperature
//! schedule.

use crate::result::AnnealOutcome;
use qmkp_qubo::QuboModel;
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

    /// Pins the plain sampler's random stream. Tables V–VII, Figs. 9–10
    /// and the `anneal_qamkp` benchmark all draw it, and the
    /// `deterministic_*` test only compares two runs of the same build.
    #[test]
    fn plain_stream_is_pinned() {
        let g = qmkp_graph::gen::paper_fig1_graph();
        let mq = MkpQubo::new(&g, MkpQuboParams { k: 2, r: 2.0 });
        let out = anneal_qubo(
            &mq.model,
            &SaConfig {
                shots: 8,
                sweeps: 2,
                seed: 7,
                ..SaConfig::default()
            },
        );
        let bits: Vec<u64> = out.shot_energies.iter().map(|e| e.to_bits()).collect();
        assert_eq!(
            bits,
            [
                0x4010000000000000,
                0xbff0000000000000,
                0xc000000000000000,
                0x3ff0000000000000,
                0x4000000000000000,
                0x0000000000000000,
                0x0000000000000000,
                0x3ff0000000000000,
            ]
        );
        let best: String = out
            .best
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        assert_eq!(best, "0100010000101010000");
    }
}
