//! Property-based tests of the gate-DAG scheduler, the compiler's only
//! mode: compiled execution through the op executor must be
//! observationally identical to the gate-at-a-time interpreter, on both
//! backends, for arbitrary sectioned circuits. Parallel dispatch is a
//! compile-time feature (`parallel`), so CI runs this suite with the
//! feature on and off; the assertions are identical in both builds.

use proptest::prelude::*;
use qmkp_qsim::{Circuit, CompiledCircuit, Control, DenseState, Gate, QuantumState, SparseState};

fn compile(c: &Circuit) -> CompiledCircuit {
    CompiledCircuit::compile(c).expect("generated circuits compile")
}

/// Strategy: a random gate over `width` qubits, constructed with modular
/// offsets so qubit-distinctness never needs rejection sampling. The mix
/// is diagonal/permutation-heavy so the scheduler's commute-and-cancel
/// paths fire often.
fn arb_gate(width: usize) -> impl Strategy<Value = Gate> {
    let q = 0..width;
    let pair = (0..width, 1..width).prop_map(move |(a, d)| (a, (a + d) % width));
    let triple = (0..width, 1..width, any::<u16>()).prop_map(move |(a, d1, r)| {
        let b = (a + d1) % width;
        let mut t = (a + 1 + r as usize % width) % width;
        while t == a || t == b {
            t = (t + 1) % width;
        }
        (a, b, t)
    });
    // The vendored prop_oneof is unweighted, so the diagonal/permutation
    // arms appear twice to keep the commute-and-cancel paths hot.
    let mcx1 = (pair.clone(), any::<bool>()).prop_map(|((c, t), pol)| Gate::Mcx {
        controls: vec![Control {
            qubit: c,
            positive: pol,
        }],
        target: t,
    });
    prop_oneof![
        q.clone().prop_map(Gate::X),
        q.clone().prop_map(Gate::X),
        q.clone().prop_map(Gate::H),
        q.clone().prop_map(Gate::Z),
        q.clone().prop_map(Gate::Z),
        (q.clone(), -3.0f64..3.0).prop_map(|(q, t)| Gate::Phase(q, t)),
        (q.clone(), -3.0f64..3.0).prop_map(|(q, t)| Gate::Phase(q, t)),
        (q, -3.0f64..3.0).prop_map(|(q, t)| Gate::Ry(q, t)),
        (pair.clone(), -3.0f64..3.0).prop_map(|((a, b), t)| Gate::CPhase(a, b, t)),
        mcx1.clone(),
        mcx1,
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
        pair.clone().prop_map(|(c, t)| Gate::Mcz {
            controls: vec![Control::pos(c)],
            target: t
        }),
        pair.prop_map(|(c, t)| Gate::Mcz {
            controls: vec![Control::pos(c)],
            target: t
        }),
    ]
}

/// Strategy: a sectioned circuit of 3..=5 qubits and up to 40 gates with
/// section tags opened at random positions. The scheduler fuses across
/// section boundaries (sections only drive attribution), so the cuts
/// exercise the attribution bookkeeping, not a flush.
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
    fn scheduled_matches_interpreter_on_both_backends(
        circ in arb_sectioned_circuit()
    ) {
        let scheduled = compile(&circ);

        let mut d_sched = DenseState::zero(circ.width()).unwrap();
        let mut d_interp = DenseState::zero(circ.width()).unwrap();
        d_sched.run_compiled(&scheduled).unwrap();
        d_interp.run_interpreted(&circ).unwrap();

        let mut s_sched = SparseState::zero(circ.width());
        let mut s_interp = SparseState::zero(circ.width());
        s_sched.run_compiled(&scheduled).unwrap();
        s_interp.run_interpreted(&circ).unwrap();

        for b in 0..(1u128 << circ.width()) {
            prop_assert!(
                (d_sched.amplitude(b) - d_interp.amplitude(b)).norm() < 1e-9,
                "dense scheduled diverges from interpreter at basis {b:b}"
            );
            prop_assert!(
                (s_sched.amplitude(b) - s_interp.amplitude(b)).norm() < 1e-9,
                "sparse scheduled diverges from interpreter at basis {b:b}"
            );
        }
    }
}

/// The commute rewrite in action end-to-end: an X-ladder split by a
/// commuting diagonal still cancels, and the result matches the
/// interpreter exactly.
#[test]
fn commuted_cancellation_preserves_semantics() {
    let mut c = Circuit::new(3);
    c.push(Gate::H(0)).unwrap();
    c.push(Gate::ccnot(0, 1, 2)).unwrap();
    c.push(Gate::Z(2)).unwrap(); // Z on the target: must NOT commute.
    c.push(Gate::Phase(0, 0.7)).unwrap(); // diagonal on a control: commutes.
    c.push(Gate::ccnot(0, 1, 2)).unwrap();
    c.push(Gate::H(1)).unwrap();

    let scheduled = compile(&c);
    // The Z on the toffoli's target blocks conjugation, so the first
    // ladder flushes; the Phase on a control commutes and the second
    // toffoli cancels against... nothing (the first was flushed). Build
    // the genuinely-cancelling variant too:
    let mut c2 = Circuit::new(3);
    c2.push(Gate::H(0)).unwrap();
    c2.push(Gate::ccnot(0, 1, 2)).unwrap();
    c2.push(Gate::Phase(0, 0.7)).unwrap();
    c2.push(Gate::ccnot(0, 1, 2)).unwrap();
    let sched2 = compile(&c2);
    assert_eq!(
        sched2.stats().cancelled_flips,
        2,
        "the pair cancels across the commuting phase"
    );
    assert_eq!(sched2.stats().commuted_diagonals, 1);

    for (circ, compiled) in [(&c, &scheduled), (&c2, &sched2)] {
        let mut got = DenseState::zero(3).unwrap();
        let mut want = DenseState::zero(3).unwrap();
        got.run_compiled(compiled).unwrap();
        want.run_interpreted(circ).unwrap();
        for b in 0..8u128 {
            assert!((got.amplitude(b) - want.amplitude(b)).norm() < 1e-12);
        }
    }
}
