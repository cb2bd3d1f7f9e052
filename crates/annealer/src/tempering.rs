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
use qmkp_rt::checkpoint::{
    bools_to_json, f64_to_json, f64s_to_json, parse_object, require, require_bools,
    require_f64_bits, require_f64s, require_u64,
};
use qmkp_rt::{derive_seed, Checkpoint, Interrupted, RtContext, RtError};
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

/// A resumable position inside a budgeted tempering run, taken at swap-
/// round boundaries. Energies and local fields are delta-maintained, so
/// they are stored bit-exactly rather than recomputed; [`temper_qubo_ctx`]
/// derives round `r`'s RNG from `(seed, r)`, so resuming replays the
/// remaining rounds exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperCheckpoint {
    /// Next swap round to run.
    pub round: usize,
    /// Per-rung assignments, index 0 = coldest.
    pub states: Vec<Vec<bool>>,
    /// Per-rung delta-maintained energies.
    pub energies: Vec<f64>,
    /// Per-rung delta-maintained local fields.
    pub fields: Vec<Vec<f64>>,
    /// Best assignment seen anywhere in the ladder.
    pub best: Vec<bool>,
    /// Energy of `best`.
    pub best_energy: f64,
    /// Per-round, per-rung energies recorded so far.
    pub shot_energies: Vec<f64>,
}

impl Checkpoint for TemperCheckpoint {
    fn to_json(&self) -> String {
        let mut states = String::from("[");
        for (i, s) in self.states.iter().enumerate() {
            if i > 0 {
                states.push_str(", ");
            }
            states.push_str(&bools_to_json(s));
        }
        states.push(']');
        let mut fields = String::from("[");
        for (i, f) in self.fields.iter().enumerate() {
            if i > 0 {
                fields.push_str(", ");
            }
            fields.push_str(&f64s_to_json(f));
        }
        fields.push(']');
        format!(
            "{{\"round\": {}, \"states\": {}, \"energies\": {}, \"fields\": {}, \
             \"best\": {}, \"best_energy\": {}, \"shot_energies\": {}}}",
            self.round,
            states,
            f64s_to_json(&self.energies),
            fields,
            bools_to_json(&self.best),
            f64_to_json(self.best_energy),
            f64s_to_json(&self.shot_energies),
        )
    }

    fn from_json(s: &str) -> Result<Self, RtError> {
        let obj = parse_object(s)?;
        let state_rows = require(&obj, "states")?
            .as_array()
            .ok_or_else(|| RtError::InvalidConfig("checkpoint: states is not an array".into()))?;
        let mut states = Vec::with_capacity(state_rows.len());
        for row in state_rows {
            let raw = row.as_str().ok_or_else(|| {
                RtError::InvalidConfig("checkpoint: state row is not a string".into())
            })?;
            states.push(
                raw.chars()
                    .map(|c| match c {
                        '0' => Ok(false),
                        '1' => Ok(true),
                        _ => Err(RtError::InvalidConfig(
                            "checkpoint: state row is not a 0/1 string".into(),
                        )),
                    })
                    .collect::<Result<Vec<bool>, RtError>>()?,
            );
        }
        let field_rows = require(&obj, "fields")?
            .as_array()
            .ok_or_else(|| RtError::InvalidConfig("checkpoint: fields is not an array".into()))?;
        let mut fields = Vec::with_capacity(field_rows.len());
        for row in field_rows {
            let elems = row.as_array().ok_or_else(|| {
                RtError::InvalidConfig("checkpoint: field row is not an array".into())
            })?;
            fields.push(
                elems
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .and_then(|raw| u64::from_str_radix(raw, 16).ok())
                            .map(f64::from_bits)
                            .ok_or_else(|| {
                                RtError::InvalidConfig(
                                    "checkpoint: field row holds a non-hex element".into(),
                                )
                            })
                    })
                    .collect::<Result<Vec<f64>, RtError>>()?,
            );
        }
        Ok(TemperCheckpoint {
            round: require_u64(&obj, "round")? as usize,
            states,
            energies: require_f64s(&obj, "energies")?,
            fields,
            best: require_bools(&obj, "best")?,
            best_energy: require_f64_bits(&obj, "best_energy")?,
            shot_energies: require_f64s(&obj, "shot_energies")?,
        })
    }
}

fn validate_tempering(config: &TemperingConfig) -> Result<(), RtError> {
    if config.replicas < 2 {
        return Err(RtError::InvalidConfig(
            "tempering: need at least two replicas".into(),
        ));
    }
    if config.rounds == 0 || config.sweeps_per_round == 0 {
        return Err(RtError::InvalidConfig("tempering: empty schedule".into()));
    }
    if !(config.beta_cold > config.beta_hot && config.beta_hot > 0.0) {
        return Err(RtError::InvalidConfig(
            "tempering: β ladder must decrease from cold to hot".into(),
        ));
    }
    Ok(())
}

/// Runs parallel tempering under an execution-runtime context.
///
/// Cancellation and the budget are polled at swap-round granularity (plus
/// the `annealer.tempering.round` failpoint). The starting ladder draws
/// from `derive_seed(seed, u64::MAX, 0)` and round `r` from
/// `derive_seed(seed, r, 0)`, so an interrupted run resumes from its
/// [`TemperCheckpoint`] bit-identically (trace timestamps aside).
///
/// Fresh-start runs under a deadline pace their *round* count: one probe
/// Metropolis sweep prices a swap round at replicas × sweeps_per_round
/// sweeps (see [`crate::pacing`]), reported via the
/// `anneal.tempering.paced_rounds` gauge.
///
/// # Errors
/// [`Interrupted`] pairing the [`RtError`] with the round-boundary
/// checkpoint; for a rejected configuration the checkpoint is empty.
pub fn temper_qubo_ctx(
    q: &QuboModel,
    config: &TemperingConfig,
    ctx: &RtContext,
    resume: Option<&TemperCheckpoint>,
) -> Result<AnnealOutcome, Interrupted<TemperCheckpoint>> {
    let empty = || TemperCheckpoint {
        round: 0,
        states: Vec::new(),
        energies: Vec::new(),
        fields: Vec::new(),
        best: Vec::new(),
        best_energy: f64::INFINITY,
        shot_energies: Vec::new(),
    };
    if let Err(e) = validate_tempering(config) {
        return Err(Interrupted::new(e, empty()));
    }
    let span = qmkp_obs::span("anneal.tempering.run");
    let traced = qmkp_obs::enabled_for("anneal.tempering");
    let meter = SweepMeter::new("tempering");
    let n = q.num_vars();
    let adj = q.neighbor_lists();
    let start = Instant::now();

    let mut paced = config.clone();
    if resume.is_none() {
        if let Some(remaining) = crate::pacing::remaining_deadline(ctx) {
            // Probe one Metropolis sweep on a clone of replica 0's start;
            // a swap round costs replicas × sweeps_per_round of those.
            let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, u64::MAX, 0));
            let mut x: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            let mut field = init_fields(q, &adj, &x);
            let mut energy = q.energy(&x);
            let probe = Instant::now();
            metropolis_sweep(
                &adj,
                config.beta_cold,
                &mut x,
                &mut field,
                &mut energy,
                &mut rng,
            );
            let per_sweep = probe.elapsed();
            let per_round = per_sweep.saturating_mul(
                (config.replicas * config.sweeps_per_round).min(u32::MAX as usize) as u32,
            );
            paced.rounds = crate::pacing::paced_sweeps(
                remaining.saturating_sub(per_sweep),
                per_round,
                1,
                config.rounds,
            );
            qmkp_obs::gauge("anneal.tempering.paced_rounds", &[], paced.rounds as f64);
        }
    }
    let config = &paced;
    let betas = beta_ladder(config);

    let mut start_round = 0;
    let mut states: Vec<Vec<bool>>;
    let mut energies: Vec<f64>;
    let mut fields: Vec<Vec<f64>>;
    let mut best: Vec<bool>;
    let mut best_energy: f64;
    let mut shot_energies: Vec<f64>;
    let mut trace = Vec::new();

    if let Some(cp) = resume {
        let shape_ok = cp.round < config.rounds
            && cp.states.len() == config.replicas
            && cp.states.iter().all(|s| s.len() == n)
            && cp.energies.len() == config.replicas
            && cp.fields.len() == config.replicas
            && cp.fields.iter().all(|f| f.len() == n);
        if !shape_ok {
            span.finish();
            return Err(Interrupted::new(
                RtError::InvalidConfig(
                    "tempering: checkpoint does not match the model or schedule".into(),
                ),
                cp.clone(),
            ));
        }
        start_round = cp.round;
        states = cp.states.clone();
        energies = cp.energies.clone();
        fields = cp.fields.clone();
        best = cp.best.clone();
        best_energy = cp.best_energy;
        shot_energies = cp.shot_energies.clone();
    } else {
        let mut init = StdRng::seed_from_u64(derive_seed(config.seed, u64::MAX, 0));
        states = (0..config.replicas)
            .map(|_| (0..n).map(|_| init.gen()).collect())
            .collect();
        energies = states.iter().map(|x| q.energy(x)).collect();
        fields = states.iter().map(|x| init_fields(q, &adj, x)).collect();
        best = states[0].clone();
        best_energy = energies[0];
        shot_energies = Vec::new();
        for r in 0..config.replicas {
            if energies[r] < best_energy {
                best_energy = energies[r];
                best = states[r].clone();
            }
        }
        trace.push((start.elapsed(), best_energy));
    }

    for round in start_round..config.rounds {
        let interrupted = qmkp_rt::failpoint::check("annealer.tempering.round")
            .and_then(|()| ctx.check())
            .err();
        if let Some(e) = interrupted {
            span.finish();
            return Err(Interrupted::new(
                e,
                TemperCheckpoint {
                    round,
                    states,
                    energies,
                    fields,
                    best,
                    best_energy,
                    shot_energies,
                },
            ));
        }
        let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, round as u64, 0));
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
            if energies[r] < best_energy {
                best_energy = energies[r];
                best = states[r].clone();
                trace.push((start.elapsed(), best_energy));
            }
            shot_energies.push(energies[r]);
        }
        let swaps = swap_neighbours(&betas, &mut states, &mut energies, &mut fields, &mut rng);
        if traced {
            qmkp_obs::counter("anneal.tempering.swaps", &[], swaps);
            qmkp_obs::gauge("anneal.tempering.best_energy", &[], best_energy);
        }
    }

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

    #[test]
    fn ctx_variant_finds_the_mkp_optimum() {
        let g = qmkp_graph::gen::paper_anneal_dataset(10, 40);
        let mq = MkpQubo::new(&g, MkpQuboParams { k: 3, r: 2.0 });
        let out = temper_qubo_ctx(
            &mq.model,
            &TemperingConfig::default(),
            &RtContext::unlimited(),
            None,
        )
        .unwrap();
        assert!(
            (out.best_energy + 10.0).abs() < 1e-9,
            "got {}",
            out.best_energy
        );
    }

    #[test]
    fn ctx_variant_rejects_invalid_configs_without_panicking() {
        let q = QuboModel::new(2);
        let err = temper_qubo_ctx(
            &q,
            &TemperingConfig {
                replicas: 1,
                ..TemperingConfig::default()
            },
            &RtContext::unlimited(),
            None,
        )
        .expect_err("one replica");
        assert!(matches!(err.error, RtError::InvalidConfig(_)));
    }

    #[test]
    fn generous_deadline_leaves_results_identical() {
        use qmkp_rt::Budget;
        use std::time::Duration;
        let g = qmkp_graph::gen::gnm(8, 14, 2).unwrap();
        let mq = MkpQubo::new(&g, MkpQuboParams::default());
        let config = TemperingConfig {
            replicas: 4,
            rounds: 8,
            sweeps_per_round: 2,
            seed: 5,
            ..TemperingConfig::default()
        };
        let plain = temper_qubo_ctx(&mq.model, &config, &RtContext::unlimited(), None).unwrap();
        let ctx =
            RtContext::with_budget(Budget::unlimited().with_deadline(Duration::from_secs(3600)));
        let paced = temper_qubo_ctx(&mq.model, &config, &ctx, None).unwrap();
        assert_eq!(paced.best, plain.best);
        assert_eq!(paced.best_energy.to_bits(), plain.best_energy.to_bits());
        let a: Vec<u64> = paced.shot_energies.iter().map(|e| e.to_bits()).collect();
        let b: Vec<u64> = plain.shot_energies.iter().map(|e| e.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn cancelled_run_resumes_bit_identically() {
        use qmkp_rt::{Budget, CancelToken};
        let g = qmkp_graph::gen::gnm(8, 14, 2).unwrap();
        let mq = MkpQubo::new(&g, MkpQuboParams::default());
        let config = TemperingConfig {
            replicas: 4,
            rounds: 10,
            sweeps_per_round: 2,
            seed: 5,
            ..TemperingConfig::default()
        };
        let straight = temper_qubo_ctx(&mq.model, &config, &RtContext::unlimited(), None).unwrap();

        // One runtime poll per round: fuse f interrupts before round f.
        for fuse in [0u64, 1, 4, 9] {
            let ctx = RtContext::new(Budget::unlimited(), CancelToken::cancel_after_checks(fuse));
            let err =
                temper_qubo_ctx(&mq.model, &config, &ctx, None).expect_err("fuse inside schedule");
            assert_eq!(err.error, RtError::Cancelled, "fuse={fuse}");

            let cp = TemperCheckpoint::from_json(&err.checkpoint.to_json()).unwrap();
            assert_eq!(cp, *err.checkpoint, "serialization must be lossless");
            let resumed =
                temper_qubo_ctx(&mq.model, &config, &RtContext::unlimited(), Some(&cp)).unwrap();
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
