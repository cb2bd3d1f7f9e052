//! Property-based tests of the circuit simulator: unitarity, backend
//! agreement, and inversion, on randomly generated circuits.

use proptest::prelude::*;
use qmkp_qsim::{Circuit, CompiledCircuit, Control, DenseState, Gate, QuantumState, SparseState};

/// Strategy: a random gate over `width` qubits (≥ 3), constructed with
/// modular offsets so qubit-distinctness never needs rejection sampling.
fn arb_gate(width: usize) -> impl Strategy<Value = Gate> {
    let q = 0..width;
    let pair = (0..width, 1..width).prop_map(move |(a, d)| (a, (a + d) % width));
    let triple = (0..width, 1..width, any::<u16>()).prop_map(move |(a, d1, r)| {
        let b = (a + d1) % width;
        // Third qubit distinct from a and b: scan from a random offset.
        let mut t = (a + 1 + r as usize % width) % width;
        while t == a || t == b {
            t = (t + 1) % width;
        }
        (a, b, t)
    });
    prop_oneof![
        q.clone().prop_map(Gate::X),
        q.clone().prop_map(Gate::H),
        q.clone().prop_map(Gate::Z),
        (q.clone(), -3.0f64..3.0).prop_map(|(q, t)| Gate::Phase(q, t)),
        (q, -3.0f64..3.0).prop_map(|(q, t)| Gate::Ry(q, t)),
        (pair.clone(), -3.0f64..3.0).prop_map(|((a, b), t)| Gate::CPhase(a, b, t)),
        (pair.clone(), any::<bool>()).prop_map(|((c, t), pol)| Gate::Mcx {
            controls: vec![Control {
                qubit: c,
                positive: pol
            }],
            target: t,
        }),
        (triple, any::<bool>()).prop_map(|((a, b, t), pol)| Gate::Mcx {
            controls: vec![
                Control::pos(a),
                Control {
                    qubit: b,
                    positive: pol
                }
            ],
            target: t,
        }),
        pair.prop_map(|(c, t)| Gate::Mcz {
            controls: vec![Control::pos(c)],
            target: t
        }),
    ]
}

/// Strategy: a random circuit of 2..=5 qubits and up to 25 gates.
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (3usize..=5).prop_flat_map(|width| {
        proptest::collection::vec(arb_gate(width), 1..25).prop_map(move |gates| {
            let mut c = Circuit::new(width);
            for g in gates {
                c.push(g).expect("generated gates are valid");
            }
            c
        })
    })
}

/// Strategy: like [`arb_circuit`], but with section tags opened at random
/// gate positions — exercising the compiler's rule that fused runs never
/// cross section boundaries.
fn arb_sectioned_circuit() -> impl Strategy<Value = Circuit> {
    (3usize..=5).prop_flat_map(|width| {
        (
            proptest::collection::vec(arb_gate(width), 1..40),
            proptest::collection::vec(0usize..40, 0..4),
        )
            .prop_map(move |(gates, cuts)| {
                let mut c = Circuit::new(width);
                for (i, g) in gates.into_iter().enumerate() {
                    if cuts.contains(&i) {
                        c.begin_section(&format!("s{i}"));
                    }
                    c.push(g).expect("generated gates are valid");
                }
                c.end_section();
                c
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn evolution_preserves_norm(circ in arb_circuit(), basis in any::<u128>()) {
        let basis = basis % (1u128 << circ.width());
        let mut d = DenseState::from_basis(circ.width(), basis).unwrap();
        d.run(&circ).unwrap();
        prop_assert!((d.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dense_and_sparse_backends_agree(circ in arb_circuit()) {
        let mut d = DenseState::zero(circ.width()).unwrap();
        let mut s = SparseState::zero(circ.width());
        d.run(&circ).unwrap();
        s.run(&circ).unwrap();
        for b in 0..(1u128 << circ.width()) {
            prop_assert!((d.amplitude(b) - s.amplitude(b)).norm() < 1e-9, "basis {b:b}");
        }
    }

    #[test]
    fn inverse_circuit_undoes_evolution(circ in arb_circuit(), basis in any::<u128>()) {
        let basis = basis % (1u128 << circ.width());
        let mut d = DenseState::from_basis(circ.width(), basis).unwrap();
        d.run(&circ).unwrap();
        d.run(&circ.inverse()).unwrap();
        prop_assert!((d.probability(basis) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn marginal_distribution_sums_to_one(circ in arb_circuit()) {
        let mut s = SparseState::zero(circ.width());
        s.run(&circ).unwrap();
        let qubits: Vec<usize> = (0..circ.width()).step_by(2).collect();
        let total: f64 = s.marginal(&qubits).values().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn permutation_circuits_keep_singleton_support(
        gates in proptest::collection::vec(
            (0usize..6, 0usize..6, 0usize..6).prop_filter_map("distinct", |(a, b, t)| {
                (a != b && b != t && a != t).then_some(Gate::ccnot(a, b, t))
            }),
            1..40,
        ),
        basis in 0u128..64,
    ) {
        let mut c = Circuit::new(6);
        for g in gates {
            c.push(g).unwrap();
        }
        let mut s = SparseState::from_basis(6, basis).unwrap();
        s.run(&c).unwrap();
        prop_assert_eq!(s.support_size(), 1, "permutation circuits map basis to basis");
        prop_assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compiled_execution_matches_interpreted(circ in arb_sectioned_circuit()) {
        let compiled = CompiledCircuit::compile(&circ).expect("generated circuits compile");
        prop_assert!(compiled.len() <= circ.len(), "fusion never adds ops");
        prop_assert_eq!(compiled.stats().source_gates, circ.len());
        let mut dense_compiled = DenseState::zero(circ.width()).unwrap();
        let mut dense_interpreted = DenseState::zero(circ.width()).unwrap();
        dense_compiled.run_compiled(&compiled).unwrap();
        dense_interpreted.run_interpreted(&circ).unwrap();
        let mut sparse_compiled = SparseState::zero(circ.width());
        let mut sparse_interpreted = SparseState::zero(circ.width());
        sparse_compiled.run_compiled(&compiled).unwrap();
        sparse_interpreted.run_interpreted(&circ).unwrap();
        for b in 0..(1u128 << circ.width()) {
            prop_assert!(
                (dense_compiled.amplitude(b) - dense_interpreted.amplitude(b)).norm() < 1e-9,
                "dense backend diverges at basis {b:b}"
            );
            prop_assert!(
                (sparse_compiled.amplitude(b) - sparse_interpreted.amplitude(b)).norm() < 1e-9,
                "sparse backend diverges at basis {b:b}"
            );
        }
    }

    #[test]
    fn stats_cover_every_gate(circ in arb_circuit()) {
        let stats = circ.stats();
        prop_assert_eq!(stats.gates, circ.len());
        let by_kind_total: usize = stats.by_kind.values().sum();
        prop_assert_eq!(by_kind_total, circ.len());
        prop_assert!(stats.elementary_cost >= circ.len());
    }
}
