//! Solution counting: how many subsets the oracle marks.
//!
//! Grover's iteration count `⌊(π/4)√(N/M)⌋` needs the number of marked
//! states `M`. The paper points to the quantum counting algorithm of
//! Brassard, Høyer and Tapp. This module provides:
//!
//! * [`exact_solution_count`] / [`solutions`] — an exact classical census
//!   of the oracle predicate (the default used by qTKP; on a simulator the
//!   census is free).
//! * [`quantum_count`] — a simulation of quantum counting: phase
//!   estimation over the Grover operator `G`. Because `G` acts on the
//!   2-dimensional span of the *good* and *bad* superpositions as a
//!   rotation by `2θ` (`sin²θ = M/N`), the phase-estimation circuit is
//!   built over that invariant subspace: a single system qubit prepared in
//!   the `e^{+2iθ}` eigenstate, `p` counting qubits, controlled powers of
//!   the rotation realized by phase kickback, and an inverse QFT. The
//!   measurement statistics (estimation error vs. precision) are exactly
//!   those of textbook quantum counting; only the construction of the
//!   controlled-`G` from oracle gates is short-circuited (documented
//!   substitution in DESIGN.md).

use crate::oracle::Oracle;
use crate::qtkp::rt_from_sim;
use qmkp_graph::VertexSet;
use qmkp_qsim::{BackendState, Circuit, DenseState, Gate, QuantumState};
use qmkp_rt::{RtContext, RtError};
use rand::Rng;

/// All vertex sets marked by the oracle, ascending by bitmask.
pub fn solutions(oracle: &Oracle) -> Vec<VertexSet> {
    let n = oracle.layout.n;
    (0..(1u128 << n))
        .map(VertexSet::from_bits)
        .filter(|&s| oracle.predicate(s))
        .collect()
}

/// The number of marked vertex sets (`M` in Algorithm 1).
pub fn exact_solution_count(oracle: &Oracle) -> u64 {
    solutions(oracle).len() as u64
}

/// Simulated quantum counting (Brassard-Høyer-Tapp) with `precision`
/// counting qubits; returns the estimated number of marked states among
/// `2^n_qubits`.
///
/// The estimate is drawn by actually building and simulating the QPE
/// circuit (H layer, controlled phase kickbacks of the Grover rotation
/// `e^{±2iθ}`, inverse QFT) and sampling a measurement with `rng` — so the
/// returned value has the genuine quantum-counting error distribution:
/// with probability ≥ 8/π², the estimate `M̂` satisfies
/// `|M̂ − M| ≤ 2π·√(M·N)/2^p + π²·N/2^{2p}`.
///
/// # Panics
/// Panics if `precision` is 0 or greater than 20, or `m > 2^n_qubits`.
pub fn quantum_count<R: Rng>(n_qubits: usize, m: u64, precision: usize, rng: &mut R) -> u64 {
    quantum_count_ctx(n_qubits, m, precision, rng, &RtContext::unlimited())
        .expect("unlimited context: only an invalid precision can fail")
}

/// Budget-aware variant of [`quantum_count`]: the precision is validated
/// instead of asserted, the `core.counting.qpe` failpoint is consulted,
/// and the phase-estimation circuit runs under the context (the dense
/// counting register is admitted against the byte ceiling; each compiled
/// op is charged and polls cancellation).
///
/// # Errors
/// [`RtError::InvalidConfig`] for a precision outside `1..=20`, or the
/// budget/cancellation/fault error that interrupted the simulation.
///
/// # Panics
/// Panics if `m > 2^n_qubits`.
pub fn quantum_count_ctx<R: Rng>(
    n_qubits: usize,
    m: u64,
    precision: usize,
    rng: &mut R,
    ctx: &RtContext,
) -> Result<u64, RtError> {
    if !(1..=20).contains(&precision) {
        return Err(RtError::InvalidConfig(format!(
            "precision must be in 1..=20, got {precision}"
        )));
    }
    qmkp_rt::failpoint::check("core.counting.qpe")?;
    ctx.check()?;
    let span = qmkp_obs::span("core.counting.quantum_count");
    let result = (|| {
        let n = (1u128 << n_qubits) as f64;
        assert!((m as f64) <= n, "m must not exceed 2^n");
        // Grover operator eigenphase: G rotates the good/bad plane by 2θ, so
        // its eigenvalues are e^{±2iθ}. With the register prepared in an
        // eigenstate, each controlled-G^{2^j} kicks the phase e^{i·2θ·2^j}
        // back onto counting qubit j — i.e. acts as Phase(qubit_j, 2θ·2^j).
        let theta = ((m as f64) / n).sqrt().asin();
        let phi = 2.0 * theta; // eigenvalue phase of G

        let mut circ = Circuit::new(precision);
        for j in 0..precision {
            circ.push_unchecked(Gate::H(j));
        }
        for j in 0..precision {
            let angle = phi * (1u64 << j) as f64;
            circ.push_unchecked(Gate::Phase(j, angle));
        }
        inverse_qft(&mut circ, &(0..precision).collect::<Vec<_>>());

        let mut state = DenseState::zero_budgeted(precision, ctx).map_err(rt_from_sim)?;
        state.run_ctx(&circ, ctx).map_err(rt_from_sim)?;
        let counting_qubits: Vec<usize> = (0..precision).collect();
        // One shot always yields one outcome; the fallback is unreachable.
        let sampled = state
            .sample(rng, 1, &counting_qubits)
            .into_iter()
            .next()
            .map(|(k, _)| k)
            .unwrap_or(0);

        // The measured integer y estimates φ/2π: φ̂ = 2π·y / 2^p.
        let phi_hat = 2.0 * std::f64::consts::PI * (sampled as f64) / (1u64 << precision) as f64;
        // Phases φ and 2π − φ are equivalent readouts (the two eigenvalues).
        let theta_hat = {
            let t = phi_hat / 2.0;
            t.min(std::f64::consts::PI - t)
        };
        let estimate = (n * theta_hat.sin().powi(2)).round() as u64;
        if qmkp_obs::enabled_for("core.counting") {
            qmkp_obs::gauge("core.counting.phase_estimate", &[], phi_hat);
            qmkp_obs::gauge("core.counting.m_estimate", &[], estimate as f64);
        }
        Ok(estimate)
    })();
    span.finish();
    result
}

/// Appends the forward quantum Fourier transform over `qubits`
/// (`qubits[i]` = bit `i` of the register value): maps `|y⟩` to
/// `(1/√N)·Σ_Y e^{2πi·yY/N}|Y⟩`, including the final wire swaps.
pub fn qft(circuit: &mut Circuit, qubits: &[usize]) {
    let p = qubits.len();
    for i in (0..p).rev() {
        circuit.push_unchecked(Gate::H(qubits[i]));
        for j in (0..i).rev() {
            let angle = std::f64::consts::PI / (1u64 << (i - j)) as f64;
            circuit.push_unchecked(Gate::CPhase(qubits[j], qubits[i], angle));
        }
    }
    // Undo the bit reversal with explicit swaps (3 CNOTs each).
    for i in 0..p / 2 {
        let (a, b) = (qubits[i], qubits[p - 1 - i]);
        circuit.push_unchecked(Gate::cnot(a, b));
        circuit.push_unchecked(Gate::cnot(b, a));
        circuit.push_unchecked(Gate::cnot(a, b));
    }
}

/// Appends the inverse quantum Fourier transform over `qubits`
/// (`qubits[i]` = bit `i`): the exact inverse of [`qft`].
pub fn inverse_qft(circuit: &mut Circuit, qubits: &[usize]) {
    let mut fwd = Circuit::new(circuit.width());
    qft(&mut fwd, qubits);
    circuit
        .extend(&fwd.inverse())
        .expect("same width by construction");
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp_graph::gen::paper_fig1_graph;
    use qmkp_graph::is_kplex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn census_matches_brute_force() {
        let g = paper_fig1_graph();
        let oracle = Oracle::new(&g, 2, 4);
        let sols = solutions(&oracle);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0], VertexSet::from_iter([0, 1, 3, 4]));
        let brute = (0..(1u128 << 6))
            .map(VertexSet::from_bits)
            .filter(|&s| s.len() >= 4 && is_kplex(&g, s, 2))
            .count() as u64;
        assert_eq!(exact_solution_count(&oracle), brute);
    }

    #[test]
    fn census_with_lower_threshold_counts_more() {
        let g = paper_fig1_graph();
        let m4 = exact_solution_count(&Oracle::new(&g, 2, 4));
        let m3 = exact_solution_count(&Oracle::new(&g, 2, 3));
        let m2 = exact_solution_count(&Oracle::new(&g, 2, 2));
        assert!(m4 < m3 && m3 < m2, "{m4} < {m3} < {m2}");
    }

    #[test]
    fn quantum_count_is_exact_for_power_of_two_fractions() {
        // M/N = 1/4 ⇒ θ = π/6… not a dyadic phase; instead use M/N = 1/2:
        // θ = π/4, φ = π/2, exactly representable with 2 counting qubits.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let est = quantum_count(4, 8, 4, &mut rng);
            assert_eq!(est, 8);
        }
    }

    #[test]
    fn quantum_count_zero_and_full() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(quantum_count(5, 0, 6, &mut rng), 0);
        assert_eq!(quantum_count(5, 32, 6, &mut rng), 32);
    }

    #[test]
    fn quantum_count_accuracy_improves_with_precision() {
        let mut rng = StdRng::seed_from_u64(5);
        let true_m = 3u64;
        let n_qubits = 6;
        let err_at = |p: usize, rng: &mut StdRng| -> f64 {
            let trials = 40;
            let mut total = 0.0;
            for _ in 0..trials {
                let est = quantum_count(n_qubits, true_m, p, rng);
                total += (est as f64 - true_m as f64).abs();
            }
            total / trials as f64
        };
        let coarse = err_at(3, &mut rng);
        let fine = err_at(8, &mut rng);
        assert!(
            fine <= coarse,
            "higher precision should not be worse: p=3 err {coarse}, p=8 err {fine}"
        );
        assert!(fine < 1.0, "8-bit counting should nail M≈3 (err {fine})");
    }

    #[test]
    fn quantum_count_brassard_bound_holds_mostly() {
        // |M̂ − M| ≤ 2π√(MN)/2^p + π² N/2^2p with probability ≥ 8/π².
        let mut rng = StdRng::seed_from_u64(6);
        let (n_qubits, m, p) = (6usize, 5u64, 7usize);
        let n = 64f64;
        let bound = 2.0 * std::f64::consts::PI * ((m as f64) * n).sqrt() / 128.0
            + std::f64::consts::PI.powi(2) * n / (128.0 * 128.0);
        let trials = 60;
        let ok = (0..trials)
            .filter(|_| {
                let est = quantum_count(n_qubits, m, p, &mut rng);
                (est as f64 - m as f64).abs() <= bound
            })
            .count();
        // 8/π² ≈ 0.81; allow slack for sampling noise.
        assert!(
            ok as f64 / trials as f64 > 0.7,
            "bound held in {ok}/{trials}"
        );
    }

    #[test]
    #[should_panic(expected = "precision")]
    fn zero_precision_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = quantum_count(4, 1, 0, &mut rng);
    }

    #[test]
    fn qft_matches_dft_matrix() {
        use qmkp_qsim::Complex;
        let p = 3usize;
        let n = 1usize << p;
        for y in 0..n {
            let mut circ = Circuit::new(p);
            qft(&mut circ, &[0, 1, 2]);
            let mut state = DenseState::from_basis(p, y as u128).unwrap();
            state.run(&circ).unwrap();
            for big_y in 0..n {
                let expected =
                    Complex::from_phase(2.0 * std::f64::consts::PI * (y * big_y) as f64 / n as f64)
                        .scale(1.0 / (n as f64).sqrt());
                let got = state.amplitude(big_y as u128);
                assert!(
                    (got - expected).norm() < 1e-10,
                    "QFT|{y}> amplitude at {big_y}: {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn inverse_qft_undoes_qft() {
        let p = 4usize;
        for y in 0..(1u128 << p) {
            let mut circ = Circuit::new(p);
            let qs: Vec<usize> = (0..p).collect();
            qft(&mut circ, &qs);
            inverse_qft(&mut circ, &qs);
            let mut state = DenseState::from_basis(p, y).unwrap();
            state.run(&circ).unwrap();
            assert!((state.probability(y) - 1.0).abs() < 1e-10);
        }
    }
}
