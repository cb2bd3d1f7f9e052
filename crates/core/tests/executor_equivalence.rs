//! The compiled executor on the path gate-model solves run: one full
//! Grover iteration on real qTKP oracles, 68 qubits and wider. The sparse
//! backend executes it three ways — `iterate`, `iterate_ctx` under an
//! unlimited context, and the same gates through the gate-at-a-time
//! interpreter — and the vertex-register distributions must agree. A
//! test pins the exact bits of three iterations on both driver paths,
//! which no tolerance-based check can see. The last tests run Figure 12
//! literally, `|O⟩ = |−⟩` and the flip as a Toffoli, beside the driver,
//! which simulates only the `|O⟩ = 0` half: every distribution and every
//! draw must match bit for bit.

use qmkp_core::{
    diffusion_circuit, solutions, GroverCircuits, GroverDriver, Oracle, PhaseOracle, TwoClubOracle,
};
use qmkp_graph::gen::{gnm, paper_fig1_graph, paper_gate_dataset, GATE_DATASETS, GATE_DATASET_K};
use qmkp_graph::{Graph, VertexSet};
use qmkp_qsim::{BackendState, Circuit, DenseState, Gate, QuantumState, SparseState};
use qmkp_rt::{splitmix64, RtContext};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// The oracle at the largest threshold that marks some vertex set, so
/// the flip has something to mark.
fn largest_marked<O: PhaseOracle>(n: usize, build: impl Fn(usize) -> O) -> O {
    (1..=n)
        .rev()
        .map(build)
        .find(|o| (0..1u128 << n).any(|b| o.predicate(VertexSet::from_bits(b))))
        .expect("t = 1 marks every singleton")
}

/// Runs Figure 12 literally beside the driver for three iterations: X
/// and H on the oracle qubit, the vertex Hadamards, then per iteration
/// the compiled `U_check`, `flip_gate()` as an MCX, the compiled
/// `U_check†` and the diffusion. After the preparation and after every
/// iteration the driver's distribution must equal the literal vertex
/// marginal exactly, and `support` checks the two states' sizes. Then
/// 50 draws of `measure`, and of one `readout`, must equal 50 literal
/// one-shot samples from the same seed.
fn literal_matches_the_half_state<O: PhaseOracle, S: BackendState>(
    name: &str,
    oracle: O,
    mut driver: GroverDriver<O, S>,
    support: impl Fn(&GroverDriver<O, S>, &S),
) {
    let vertices = oracle.vertex_register().qubits();
    let circuits = GroverCircuits::compile(&oracle).unwrap();
    let mut literal = S::try_zero(oracle.width()).unwrap();
    literal.apply(&Gate::X(oracle.oracle_qubit()));
    literal.apply(&Gate::H(oracle.oracle_qubit()));
    for &q in &vertices {
        literal.apply(&Gate::H(q));
    }
    for iteration in 0..=3 {
        if iteration > 0 {
            literal.run_compiled(circuits.u_check()).unwrap();
            literal.apply(&oracle.flip_gate());
            literal.run_compiled(circuits.u_check_inv()).unwrap();
            literal.run_compiled(circuits.diffusion()).unwrap();
            driver.iterate();
        }
        let expected = literal.marginal(&vertices);
        assert_eq!(
            driver.vertex_distribution(),
            expected,
            "{name}: iteration {iteration}"
        );
        support(&driver, &literal);
    }
    let mut literal_rng = StdRng::seed_from_u64(17);
    let mut measure_rng = StdRng::seed_from_u64(17);
    let mut readout_rng = StdRng::seed_from_u64(17);
    let readout = driver.readout();
    for draw in 0..50 {
        let shot = literal.sample(&mut literal_rng, 1, &vertices);
        let expected = shot.into_keys().next().map(VertexSet::from_bits);
        assert_eq!(
            Some(driver.measure(&mut measure_rng)),
            expected,
            "{name}: measure draw {draw}"
        );
        assert_eq!(
            Some(readout.measure(&mut readout_rng)),
            expected,
            "{name}: readout draw {draw}"
        );
    }
}

/// On the sparse backend the driver's support is exactly half the
/// literal one: every literal entry has its negated `|O⟩ = 1` twin.
fn half_support<O: PhaseOracle>(driver: &GroverDriver<O, SparseState>, literal: &SparseState) {
    assert_eq!(2 * driver.support_size(), literal.support_size());
}

fn sparse_case<O: PhaseOracle + Clone>(name: &str, oracle: O) {
    let driver = GroverDriver::new(oracle.clone());
    literal_matches_the_half_state(name, oracle, driver, half_support);
}

#[test]
fn the_half_state_is_the_literal_circuit_bit_for_bit_on_the_mkp_oracles() {
    let mut cases = vec![("fig-1".to_string(), paper_fig1_graph(), 2)];
    for (n, m) in GATE_DATASETS {
        cases.push((format!("G_{{{n},{m}}}"), paper_gate_dataset(n, m), 2));
    }
    let (n, m) = GATE_DATASET_K;
    for k in 2..=5 {
        cases.push((format!("G_{{{n},{m}}}"), paper_gate_dataset(n, m), k));
    }
    for seed in 0..4 {
        cases.push((format!("gnm(8, 12, {seed})"), gnm(8, 12, seed).unwrap(), 2));
    }
    for (name, g, k) in cases {
        let oracle = largest_marked(g.n(), |t| Oracle::new(&g, k, t));
        let name = format!("{name}, k = {k}, t = {}", oracle.layout.t);
        sparse_case(&name, oracle);
    }
}

#[test]
fn the_half_state_is_the_literal_circuit_bit_for_bit_on_the_two_club_oracle() {
    let g = paper_fig1_graph();
    let oracle = largest_marked(g.n(), |t| TwoClubOracle::new(&g, t));
    sparse_case("fig-1 2-club", oracle);
}

fn dense_case<O: PhaseOracle + Clone>(name: &str, oracle: O) {
    let driver =
        GroverDriver::<O, DenseState>::try_new_ctx(oracle.clone(), &RtContext::unlimited())
            .unwrap();
    literal_matches_the_half_state(name, oracle, driver, |_, _| {});
}

#[test]
fn the_half_state_is_the_literal_circuit_bit_for_bit_on_the_dense_backend() {
    // The single-vertex oracle is 15 qubits wide, within the dense rung.
    // It marks one of two sets, where every iteration leaves the
    // distribution at 1/2 each, so the flip cannot show there; the
    // 2-club oracle on a 3-vertex path (17 qubits) marks one of eight.
    let oracle = Oracle::new(&Graph::new(1).unwrap(), 1, 1);
    assert_eq!(oracle.layout.width, 15);
    dense_case("single vertex (dense)", oracle);
    let path = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
    let club = TwoClubOracle::new(&path, 3);
    assert_eq!(club.width(), 17);
    dense_case("3-vertex path 2-club (dense)", club);
}
