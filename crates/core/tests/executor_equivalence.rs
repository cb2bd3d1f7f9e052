//! The compiled executor on the path gate-model solves run: one full
//! Grover iteration on real qTKP oracles, 68 qubits and wider. The sparse
//! backend executes it three ways — `iterate`, `iterate_ctx` under an
//! unlimited context, and the same gates through the gate-at-a-time
//! interpreter — and the vertex-register distributions must agree. A
//! last test pins the exact bits of three iterations on both driver
//! paths, which no tolerance-based check can see.

use qmkp_core::{diffusion_circuit, solutions, GroverDriver, Oracle};
use qmkp_graph::gen::{paper_fig1_graph, paper_gate_dataset};
use qmkp_graph::Graph;
use qmkp_qsim::{Circuit, Gate, QuantumState, SparseState};
use qmkp_rt::{splitmix64, RtContext};

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

/// Folds every vertex-set probability after each of three iterations
/// into one u64: the set's bits and the exact f64 bits of its mass, run
/// through a mixer that is stable across Rust releases (`DefaultHasher`
/// is not).
fn pinned_hash(oracle: &Oracle, budgeted: bool) -> u64 {
    let mut driver = GroverDriver::new(oracle.clone());
    let ctx = RtContext::unlimited();
    let mut h = 0u64;
    for _ in 0..3 {
        if budgeted {
            driver
                .iterate_ctx(&ctx)
                .expect("an unlimited context never interrupts");
        } else {
            driver.iterate();
        }
        for (set, p) in driver.vertex_distribution() {
            for word in [set as u64, (set >> 64) as u64, p.to_bits()] {
                h = splitmix64(h ^ word);
            }
        }
    }
    h
}

/// Pins the executor's output bit for bit: the checks above allow 1e-9,
/// so a kernel change that moves amplitudes by an ulp would pass them
/// unseen. A change that moves these constants changes behaviour;
/// re-recording them would hide it.
#[test]
fn grover_iterations_are_pinned() {
    let cases: [(&str, Graph, usize, usize, u64); 2] = [
        ("fig-1", paper_fig1_graph(), 2, 4, 5632090774453103712),
        (
            "G_{7,8}",
            paper_gate_dataset(7, 8),
            2,
            3,
            11441642903133201388,
        ),
    ];
    for (name, g, k, t, pinned) in cases {
        let oracle = Oracle::new(&g, k, t);
        for budgeted in [false, true] {
            assert_eq!(
                pinned_hash(&oracle, budgeted),
                pinned,
                "{name} (budgeted: {budgeted}): Grover output moved"
            );
        }
    }
}
