//! End-to-end checks of the gate-based pipeline: the oracle *circuit*
//! (not just the predicate) is exhaustively compared against the
//! graph-theoretic truth, Grover amplification matches closed-form
//! theory, and qTKP/qMKP results are classically verified.

use qmkp::arith::classical_eval;
use qmkp::core::counting::{exact_solution_count, solutions};
use qmkp::core::grover::success_probability_theory;
use qmkp::core::{qtkp, GroverDriver, MEstimate, Oracle, QtkpConfig};
use qmkp::graph::gen::{gnm, paper_fig1_graph};
use qmkp::graph::{is_kcplex, is_kplex, VertexSet};

/// The oracle circuit, run as a classical permutation, must mark exactly
/// the k-plexes of size ≥ T — for every basis state of every instance.
#[test]
fn oracle_circuit_census_equals_graph_truth() {
    for (seed, k, t) in [(0u64, 2usize, 3usize), (1, 1, 3), (2, 3, 4)] {
        let g = gnm(7, 10, seed).unwrap();
        let gc = g.complement();
        let oracle = Oracle::new(&g, k, t);
        let l = &oracle.layout;
        let mut circuit_marked = 0u64;
        for bits in 0..(1u128 << 7) {
            let s = VertexSet::from_bits(bits);
            let out = classical_eval(oracle.u_check(), bits << l.vertices.start);
            let marked = (out >> l.cplex) & 1 == 1 && (out >> l.size_ge_t) & 1 == 1;
            assert_eq!(
                marked,
                is_kcplex(&gc, s, k) && s.len() >= t,
                "circuit disagrees with graph truth on {s:?} (k={k}, t={t})"
            );
            circuit_marked += u64::from(marked);
        }
        assert_eq!(circuit_marked, exact_solution_count(&oracle));
    }
}

/// Simulated Grover success probability tracks sin²((2i+1)θ) exactly.
#[test]
fn grover_matches_closed_form_through_all_iterations() {
    let g = gnm(7, 12, 3).unwrap();
    let oracle = Oracle::new(&g, 2, 3);
    let m = exact_solution_count(&oracle);
    assert!(m > 0, "instance must have solutions");
    let sols = solutions(&oracle);
    let mut driver = GroverDriver::new(oracle);
    for i in 1..=8 {
        driver.iterate();
        let sim = driver.probability_of_sets(&sols);
        let theory = success_probability_theory(7, m, i);
        assert!((sim - theory).abs() < 1e-9, "iter {i}: {sim} vs {theory}");
    }
}

/// Every qTKP probe reports the closed-form success probability for the
/// `M` and iteration count it used, on the paper's instances and random
/// graphs, at every threshold.
#[test]
fn every_qtkp_probe_matches_the_closed_form() {
    use qmkp::graph::gen::{paper_gate_dataset, GATE_DATASETS, GATE_DATASET_K};
    let mut instances = vec![(paper_fig1_graph(), 2)];
    for (n, m) in GATE_DATASETS {
        instances.push((paper_gate_dataset(n, m), 2));
    }
    let (n, m) = GATE_DATASET_K;
    for k in 2..=5 {
        instances.push((paper_gate_dataset(n, m), k));
    }
    for seed in 0..6 {
        instances.push((gnm(7, 10, seed).unwrap(), 2));
    }
    let config = QtkpConfig {
        m_estimate: MEstimate::Exact,
        ..QtkpConfig::default()
    };
    for (g, k) in &instances {
        for t in 1..=g.n() {
            let out = qtkp(g, *k, t, &config);
            let theory = success_probability_theory(g.n(), out.m, out.iterations);
            assert!(
                (out.success_probability - theory).abs() < 1e-9,
                "n {} k {k} t {t}: {} vs {theory}",
                g.n(),
                out.success_probability
            );
        }
    }
}

/// qTKP over every threshold T: non-empty answers are verified k-plexes,
/// and T above the maximum size yields ∅.
#[test]
fn qtkp_sweep_over_thresholds() {
    let g = paper_fig1_graph();
    let max_size = 4; // known maximum 2-plex size of Fig. 1
    for t in 1..=6 {
        let out = qtkp(&g, 2, t, &QtkpConfig::default());
        if t <= max_size {
            let p = out.result.expect("solution exists at this threshold");
            assert!(is_kplex(&g, p, 2) && p.len() >= t, "t={t}");
        } else {
            assert_eq!(out.result, None, "t={t} must be infeasible");
            assert_eq!(out.m, 0);
        }
    }
}

/// Quantum-counting-driven qTKP still returns correct (verified) answers
/// even when the estimate is noisy.
#[test]
fn qtkp_with_quantum_counting_is_safe() {
    let g = gnm(7, 9, 5).unwrap();
    for precision in [4, 8] {
        let cfg = QtkpConfig {
            m_estimate: MEstimate::QuantumCounting { precision },
            ..QtkpConfig::default()
        };
        let out = qtkp(&g, 2, 3, &cfg);
        if let Some(p) = out.result {
            assert!(is_kplex(&g, p, 2) && p.len() >= 3);
        }
    }
}

/// The error probability decays with iterations like the paper's π²/(4I)²
/// bound predicts.
#[test]
fn error_probability_bound_holds() {
    let g = paper_fig1_graph();
    let out = qtkp(&g, 2, 4, &QtkpConfig::default());
    assert_eq!(out.iterations, 6);
    let bound = std::f64::consts::PI.powi(2) / (4.0 * out.iterations as f64).powi(2);
    assert!(out.error_probability <= bound);
}
