//! The compiled executor on the path gate-model solves run: one full
//! Grover iteration on real qTKP oracles, which are wider than 64 qubits
//! and so run every compiled op on u128 basis keys. The sparse backend
//! executes it three ways — `iterate`, `iterate_ctx` under an unlimited
//! context, and the same gates through the gate-at-a-time interpreter —
//! and the vertex-register distributions must agree.

use qmkp_core::{diffusion_circuit, solutions, GroverDriver, Oracle};
use qmkp_graph::gen::{paper_fig1_graph, paper_gate_dataset};
use qmkp_graph::Graph;
use qmkp_qsim::{Circuit, Gate, QuantumState, SparseState};
use qmkp_rt::RtContext;

fn one_iteration_three_ways(g: &Graph, k: usize, t: usize) {
    let oracle = Oracle::new(g, k, t);
    let layout = oracle.layout.clone();
    assert!(
        layout.width > 64,
        "expected a u128-keyed register, got width {}",
        layout.width
    );
    assert!(!solutions(&oracle).is_empty(), "the probe marks some set");

    let mut plain = GroverDriver::new(oracle.clone());
    plain.iterate();
    let mut budgeted = GroverDriver::new(oracle.clone());
    budgeted
        .iterate_ctx(&RtContext::unlimited())
        .expect("an unlimited context never interrupts");
    let compiled = plain.vertex_distribution();
    assert_eq!(
        compiled,
        budgeted.vertex_distribution(),
        "iterate and iterate_ctx run the same executor"
    );

    // The driver's state preparation, then U_check, the flip, U_check†
    // and the diffusion, gate by gate.
    let mut state = SparseState::zero(layout.width);
    state.apply(&Gate::X(layout.oracle));
    state.apply(&Gate::H(layout.oracle));
    for q in layout.vertices.iter() {
        state.apply(&Gate::H(q));
    }
    let mut iteration = Circuit::new(layout.width);
    iteration.extend(oracle.u_check()).unwrap();
    iteration.push(oracle.flip_gate()).unwrap();
    iteration.extend(oracle.u_check_inv()).unwrap();
    iteration
        .extend(&diffusion_circuit(layout.width, &layout.vertices))
        .unwrap();
    state.run_interpreted(&iteration).unwrap();
    let interpreted = state.marginal(&layout.vertices.qubits());

    for set in compiled.keys().chain(interpreted.keys()) {
        let a = compiled.get(set).copied().unwrap_or(0.0);
        let b = interpreted.get(set).copied().unwrap_or(0.0);
        assert!(
            (a - b).abs() < 1e-9,
            "vertex set {set:b}: compiled {a} vs interpreted {b}"
        );
    }
}

#[test]
fn fig1_oracle_iteration_matches_the_interpreter() {
    one_iteration_three_ways(&paper_fig1_graph(), 2, 4);
}

#[test]
fn g7_8_probe_iteration_matches_the_interpreter() {
    one_iteration_three_ways(&paper_gate_dataset(7, 8), 2, 3);
}
