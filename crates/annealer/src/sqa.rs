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

/// The Ising couplings in compressed-row form, built once per run: row
/// `i` holds spin `i`'s `(neighbour, J_ij)` pairs in
/// [`IsingModel::neighbor_lists`] order.
struct Csr {
    row_start: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl Csr {
    fn new(ising: &IsingModel) -> Csr {
        let mut row_start = vec![0];
        let mut entries = Vec::new();
        for row in ising.neighbor_lists() {
            entries.extend(row);
            row_start.push(entries.len());
        }
        Csr { row_start, entries }
    }

    /// The number of rows, one per spin.
    fn rows(&self) -> usize {
        self.row_start.len() - 1
    }

    fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.entries[self.row_start[i]..self.row_start[i + 1]]
    }
}

/// Copies the slice-major `spins` of `p` slices into `cols` spin-major
/// (`[i·p + slice]`), so the `p` copies of a spin sit side by side.
fn transpose(spins: &[i8], p: usize, cols: &mut [i8]) {
    let n = spins.len() / p;
    for slice in 0..p {
        for i in 0..n {
            cols[i * p + slice] = spins[slice * n + i];
        }
    }
}

/// Recomputes every local field `h_i + Σ_j J_ij s_j` into the
/// slice-major `fields`, from the spin-major `cols` of `p` slices. Each
/// field sums its row in order; the `p` slices' sums run side by side.
fn init_fields(h: &[f64], csr: &Csr, p: usize, cols: &[i8], fields: &mut [f64]) {
    let n = h.len();
    let mut local = vec![0.0; p];
    for (i, &hi) in h.iter().enumerate() {
        local.fill(hi);
        for &(j, c) in csr.row(i) {
            for (l, &s) in local.iter_mut().zip(&cols[j * p..][..p]) {
                *l += c * s as f64;
            }
        }
        for (slice, &l) in local.iter().enumerate() {
            fields[slice * n + i] = l;
        }
    }
}

/// One PIMC sweep over every slice and spin. `spins` and `fields` are
/// slice-major (`[slice·n + i]`); an accepted flip moves the fields of
/// its row's neighbours in the same slice, so a rejected proposal costs
/// no row walk.
fn pimc_sweep(
    csr: &Csr,
    beta: f64,
    inv_p: f64,
    j_perp: f64,
    spins: &mut [i8],
    fields: &mut [f64],
    rng: &mut StdRng,
) {
    let n = csr.rows();
    // A zero-variable model has no slices to sweep.
    let p = spins.len() / n.max(1);
    for slice in 0..p {
        let here = slice * n;
        let up = (slice + 1) % p * n;
        let down = (slice + p - 1) % p * n;
        for i in 0..n {
            let s = spins[here + i] as f64;
            let time_nbrs = (spins[up + i] + spins[down + i]) as f64;
            // The classical energy carries s·[(1/P)·field − J⊥·tn];
            // flipping s → −s changes it by −2s·[…].
            let delta = -2.0 * s * (inv_p * fields[here + i] - j_perp * time_nbrs);
            if delta <= 0.0 || rng.gen::<f64>() < (-beta * delta).exp() {
                spins[here + i] = -spins[here + i];
                for &(j, c) in csr.row(i) {
                    fields[here + j] += c * (-2.0 * s);
                }
            }
        }
    }
}

/// The lowest energy among the `p` slices of the spin-major `cols`, and
/// the first slice that has it. Each slice is scored in
/// [`QuboModel::energy`]'s order (offset, linear terms by index, then
/// `terms`, the model's interactions in order), so its energy keeps that
/// function's bits: an absent term adds −0.0, which leaves every sum as
/// it is.
fn best_slice(
    q: &QuboModel,
    terms: &[((usize, usize), f64)],
    p: usize,
    cols: &[i8],
) -> (f64, usize) {
    let mut energies = vec![q.offset(); p];
    for (i, &c) in q.linear_terms().iter().enumerate() {
        for (e, &s) in energies.iter_mut().zip(&cols[i * p..][..p]) {
            *e += if s > 0 { c } else { -0.0 };
        }
    }
    for &((i, j), c) in terms {
        let pairs = cols[i * p..][..p].iter().zip(&cols[j * p..][..p]);
        for (e, (&si, &sj)) in energies.iter_mut().zip(pairs) {
            *e += if si > 0 && sj > 0 { c } else { -0.0 };
        }
    }
    let mut best = (f64::INFINITY, 0);
    for (slice, &e) in energies.iter().enumerate() {
        if e < best.0 {
            best = (e, slice);
        }
    }
    best
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
    let csr = Csr::new(&ising);
    let terms: Vec<_> = q.interactions().collect();
    let n = ising.num_spins();
    let p = config.trotter_slices;
    let inv_p = 1.0 / p as f64;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let start = Instant::now();

    let mut best: Vec<bool> = vec![false; n];
    let mut best_energy = f64::INFINITY;
    let mut shot_energies = Vec::with_capacity(config.shots);
    let mut trace = Vec::new();
    // Slice-major: spins[slice·n + i] ∈ {−1, +1} and its local field;
    // `cols` is a spin-major copy of `spins` for the per-shot passes.
    let mut spins = vec![0i8; p * n];
    let mut fields = vec![0.0; p * n];
    let mut cols = vec![0i8; p * n];

    for _ in 0..config.shots {
        for s in &mut spins {
            *s = if rng.gen() { 1 } else { -1 };
        }
        transpose(&spins, p, &mut cols);
        init_fields(&ising.h, &csr, p, &cols, &mut fields);

        for sweep in 0..config.sweeps {
            let (gamma, j_perp) = transverse_schedule(config, sweep);
            let timed = meter.start();
            pimc_sweep(
                &csr,
                config.beta,
                inv_p,
                j_perp,
                &mut spins,
                &mut fields,
                &mut rng,
            );
            meter.finish(timed);
            if traced {
                qmkp_obs::gauge("anneal.sqa.gamma", &[], gamma);
            }
        }

        // Each slice is a candidate classical solution; keep the best.
        transpose(&spins, p, &mut cols);
        let (shot_best, slice) = best_slice(q, &terms, p, &cols);
        if traced {
            qmkp_obs::counter("anneal.sqa.shots", &[], 1);
            qmkp_obs::gauge("anneal.sqa.shot_energy", &[], shot_best);
        }
        shot_energies.push(shot_best);
        if shot_best < best_energy {
            best_energy = shot_best;
            best = spins[slice * n..][..n].iter().map(|&s| s > 0).collect();
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

    fn sample_string(x: &[bool]) -> String {
        x.iter().map(|&b| if b { '1' } else { '0' }).collect()
    }

    fn energy_bits(out: &AnnealOutcome) -> Vec<u64> {
        out.shot_energies.iter().map(|e| e.to_bits()).collect()
    }

    /// Pins the stream on rows of real degree: D_{20,100}'s 94 spins
    /// have mean degree about 22, so the accepted flips' field updates
    /// carry most of each sweep, where fig-1's short rows barely touch
    /// them. Both penalty weights keep every Ising coefficient dyadic.
    #[test]
    fn dense_row_stream_is_pinned() {
        let g = qmkp_graph::gen::paper_anneal_dataset(20, 100);
        let pins: [(f64, [u64; 4], &str); 2] = [
            (
                2.0,
                [
                    0x4040000000000000,
                    0x4032000000000000,
                    0x403d000000000000,
                    0x4040000000000000,
                ],
                "0000010100000100010010111011011110000100001110100011101110000111101011000101000100010100011101",
            ),
            (
                4.0,
                [
                    0x4046000000000000,
                    0x4045000000000000,
                    0x4040800000000000,
                    0x404a800000000000,
                ],
                "0000000000000100011010111010110001100111101110100100011110000111101011100101111000011001000110",
            ),
        ];
        for (r, bits, best) in pins {
            let mq = MkpQubo::new(&g, MkpQuboParams { k: 3, r });
            let out = sqa_qubo(
                &mq.model,
                &SqaConfig {
                    seed: 5,
                    ..SqaConfig::from_anneal_time(1.0, 4)
                },
            );
            assert_eq!(energy_bits(&out), bits, "R = {r}");
            assert_eq!(sample_string(&out.best), best, "R = {r}");
        }
    }

    /// With two slices the up and down neighbour are the same slice, so
    /// its spin counts twice in the time-neighbour term.
    #[test]
    fn two_slice_stream_is_pinned() {
        let out = sqa_qubo(
            &small_model(),
            &SqaConfig {
                shots: 8,
                sweeps: 2,
                trotter_slices: 2,
                beta: 1.0,
                seed: 2,
                ..SqaConfig::default()
            },
        );
        assert_eq!(
            energy_bits(&out),
            [
                0xc012000000000000,
                0xbff0000000000000,
                0xc00c000000000000,
                0xc008000000000000,
                0xc012000000000000,
                0xc012000000000000,
                0xc00c000000000000,
                0xc012000000000000,
            ]
        );
        assert_eq!(sample_string(&out.best), "1001");
    }

    /// The reference the kept fields are held to: every field summed
    /// afresh, `h_i` first, then `J_ij·s_j` over row `i` in order.
    fn recomputed_fields(ising: &IsingModel, csr: &Csr, spins: &[i8]) -> Vec<f64> {
        let n = ising.num_spins();
        (0..spins.len())
            .map(|k| {
                let (here, i) = (k - k % n, k % n);
                let mut local = ising.h[i];
                for &(j, c) in csr.row(i) {
                    local += c * spins[here + j] as f64;
                }
                local
            })
            .collect()
    }

    fn random_spins(len: usize, rng: &mut StdRng) -> Vec<i8> {
        (0..len).map(|_| if rng.gen() { 1 } else { -1 }).collect()
    }

    /// Sweeps each annealing dataset (k = 3) and compares the fields the
    /// sweeps maintained with a fresh recomputation. The fields start
    /// bit-equal to it at every R. Where every Ising coefficient is a
    /// multiple of 1/2 (R = 2, 4) the incremental sums are exact, so they
    /// stay bit-equal; at R = 1.1 they may drift by rounding.
    #[test]
    fn maintained_fields_match_a_recomputation() {
        use qmkp_graph::gen::{paper_anneal_dataset, ANNEAL_DATASETS};
        let config = SqaConfig {
            sweeps: 4,
            seed: 1,
            ..SqaConfig::default()
        };
        let p = config.trotter_slices;
        for (n, m) in ANNEAL_DATASETS {
            let g = paper_anneal_dataset(n, m);
            for r in [2.0, 4.0, 1.1] {
                let mq = MkpQubo::new(&g, MkpQuboParams { k: 3, r });
                let ising = IsingModel::from_qubo(&mq.model);
                let csr = Csr::new(&ising);
                let mut rng = StdRng::seed_from_u64(config.seed);
                let mut spins = random_spins(p * ising.num_spins(), &mut rng);
                let initial = spins.clone();
                let mut cols = vec![0; spins.len()];
                let mut fields = vec![0.0; spins.len()];
                transpose(&spins, p, &mut cols);
                init_fields(&ising.h, &csr, p, &cols, &mut fields);
                let fresh = recomputed_fields(&ising, &csr, &spins);
                for (k, (&kept, &want)) in fields.iter().zip(&fresh).enumerate() {
                    assert_eq!(kept.to_bits(), want.to_bits(), "R = {r} start [{k}]");
                }
                for sweep in 0..config.sweeps {
                    let (_, j_perp) = transverse_schedule(&config, sweep);
                    pimc_sweep(
                        &csr,
                        config.beta,
                        1.0 / p as f64,
                        j_perp,
                        &mut spins,
                        &mut fields,
                        &mut rng,
                    );
                }
                assert_ne!(spins, initial, "D_{{{n},{m}}}: no flip accepted");
                let fresh = recomputed_fields(&ising, &csr, &spins);
                for (k, (&kept, &want)) in fields.iter().zip(&fresh).enumerate() {
                    if r == 1.1 {
                        assert!(
                            (kept - want).abs() <= 1e-9 * want.abs().max(1.0),
                            "D_{{{n},{m}}} R = {r} [{k}]: {kept} vs {want}"
                        );
                    } else {
                        assert_eq!(
                            kept.to_bits(),
                            want.to_bits(),
                            "D_{{{n},{m}}} R = {r} [{k}]: {kept} vs {want}"
                        );
                    }
                }
            }
        }
    }

    /// `best_slice` scores every slice with the bits of
    /// `QuboModel::energy` and picks the first lowest. R = 1.1 makes the
    /// coefficients non-dyadic, so a different summation order would show.
    #[test]
    fn best_slice_matches_qubo_energy() {
        use qmkp_graph::gen::{paper_anneal_dataset, ANNEAL_DATASETS};
        let p = 16;
        let mut rng = StdRng::seed_from_u64(4);
        for (n, m) in ANNEAL_DATASETS {
            let mq = MkpQubo::new(&paper_anneal_dataset(n, m), MkpQuboParams { k: 3, r: 1.1 });
            let q = &mq.model;
            let terms: Vec<_> = q.interactions().collect();
            let vars = q.num_vars();
            for _ in 0..20 {
                // Copy slice 0 into slice 5 so a tie has to go to the first.
                let mut spins = random_spins(p * vars, &mut rng);
                spins.copy_within(..vars, 5 * vars);
                let mut want = (f64::INFINITY, 0);
                for slice in 0..p {
                    let x: Vec<bool> = spins[slice * vars..][..vars]
                        .iter()
                        .map(|&s| s > 0)
                        .collect();
                    let e = q.energy(&x);
                    if e < want.0 {
                        want = (e, slice);
                    }
                }
                let mut cols = vec![0; spins.len()];
                transpose(&spins, p, &mut cols);
                let got = best_slice(q, &terms, p, &cols);
                assert_eq!((got.0.to_bits(), got.1), (want.0.to_bits(), want.1));
            }
        }
    }

    #[test]
    fn zero_variables_return_the_offset() {
        let mut q = QuboModel::new(0);
        q.add_offset(2.5);
        let out = sqa_qubo(
            &q,
            &SqaConfig {
                shots: 3,
                sweeps: 2,
                ..SqaConfig::default()
            },
        );
        assert_eq!(out.shot_energies, [2.5; 3]);
        assert_eq!(out.best_energy, 2.5);
        assert!(out.best.is_empty());
    }
}
