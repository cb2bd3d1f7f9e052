//! Classical evaluation of permutation-only circuits.
//!
//! Every arithmetic circuit in this crate is built from X and
//! multi-controlled-X gates only, so it maps each basis state to exactly
//! one basis state. Evaluating that permutation classically (one `u128`
//! instead of a statevector) is how the tests check circuits exhaustively
//! against their integer semantics.

use qmkp_qsim::{Circuit, Gate};

/// Applies a permutation-only circuit to a classical basis state.
///
/// # Panics
/// Panics if the circuit contains a non-permutation gate (`H`, `Z`,
/// `Phase`, `MCZ`) — those do not define a classical transition.
pub fn classical_eval(circuit: &Circuit, input: u128) -> u128 {
    let mut state = input;
    for gate in circuit.gates() {
        state = match gate {
            Gate::X(q) => state ^ (1u128 << q),
            Gate::Mcx { controls, target } => {
                if controls.iter().all(|c| c.satisfied_by(state)) {
                    state ^ (1u128 << target)
                } else {
                    state
                }
            }
            other => panic!("classical_eval: non-permutation gate {other:?}"),
        };
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp_qsim::{QuantumState, SparseState};

    #[test]
    fn matches_sparse_simulation() {
        let mut c = Circuit::new(4);
        c.push_unchecked(Gate::X(0));
        c.push_unchecked(Gate::cnot(0, 1));
        c.push_unchecked(Gate::ccnot(0, 1, 2));
        c.push_unchecked(Gate::mcx_pos([0, 1, 2], 3));
        for input in 0..16u128 {
            let out = classical_eval(&c, input);
            let mut s = SparseState::from_basis(4, input).unwrap();
            s.run(&c).unwrap();
            assert!((s.probability(out) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn identity_on_empty_circuit() {
        let c = Circuit::new(3);
        assert_eq!(classical_eval(&c, 0b101), 0b101);
    }

    #[test]
    #[should_panic(expected = "non-permutation gate")]
    fn rejects_hadamard() {
        let mut c = Circuit::new(1);
        c.push_unchecked(Gate::H(0));
        let _ = classical_eval(&c, 0);
    }

    #[test]
    fn inverse_undoes_permutation() {
        let mut c = Circuit::new(3);
        c.push_unchecked(Gate::cnot(0, 1));
        c.push_unchecked(Gate::ccnot(1, 2, 0));
        c.push_unchecked(Gate::X(2));
        let inv = c.inverse();
        for input in 0..8u128 {
            assert_eq!(classical_eval(&inv, classical_eval(&c, input)), input);
        }
    }
}
