//! Property tests for the analyzer: the invariants that make its
//! verdicts trustworthy.
//!
//! * any permutation circuit followed by its inverse is provably clean
//!   on *every* qubit — the identity leaves nothing dirty;
//! * the symbolic XOR-affine verdict agrees with exhaustive enumeration
//!   on arbitrary sectioned circuits (the differential test that keeps
//!   the abstract domain honest);
//! * the peephole estimate (the DAG scheduler's mirror) agrees
//!   gate-for-gate with what the real compiler reports, on arbitrary
//!   sectioned circuits;
//! * ASAP depth is sandwiched between the busiest-qubit count and the
//!   gate count;
//! * a resource audit built from a circuit's own section counts passes,
//!   and any tampering with the circuit afterwards is detected.

use proptest::collection::vec;
use proptest::prelude::*;
use qmkp_lint::{
    analyze, circuit_depth, cross_check_compile, scheduled_peephole_estimate, verify_ancillas,
    AncillaReport, AncillaSpec, ProofMethod, ResourceModel, SectionBudget, Severity,
};
use qmkp_qsim::{Circuit, CompiledCircuit, Gate};

/// Deterministically decodes a seed word into one permutation gate over
/// `width` qubits (X, CNOT, or Toffoli with distinct qubits).
fn decode_gate(seed: u64, width: usize) -> Gate {
    let q = |shift: u64, exclude: &[usize]| -> usize {
        let mut v = ((seed >> shift) % width as u64) as usize;
        while exclude.contains(&v) {
            v = (v + 1) % width;
        }
        v
    };
    // Cap gate arity by width so distinct-qubit selection terminates.
    match (seed % 3).min(width as u64 - 1) {
        0 => Gate::X(q(8, &[])),
        1 => {
            let c = q(8, &[]);
            Gate::cnot(c, q(16, &[c]))
        }
        _ => {
            let c0 = q(8, &[]);
            let c1 = q(16, &[c0]);
            Gate::ccnot(c0, c1, q(24, &[c0, c1]))
        }
    }
}

/// Builds a sectioned permutation circuit from seed words: every 4th
/// gate opens a new section so section boundaries land mid-stream.
fn decode_circuit(width: usize, seeds: &[u64]) -> Circuit {
    let mut c = Circuit::new(width);
    for (i, &seed) in seeds.iter().enumerate() {
        if i % 4 == 0 {
            if i > 0 {
                c.end_section();
            }
            c.begin_section(&format!("s{}", i / 4));
        }
        c.push_unchecked(decode_gate(seed, width));
    }
    if !seeds.is_empty() {
        c.end_section();
    }
    c
}

proptest! {
    #[test]
    fn circuit_then_inverse_is_always_clean(
        width in 3usize..=8,
        seeds in vec(any::<u64>(), 0..40),
    ) {
        let c = decode_circuit(width, &seeds);
        let mut round_trip = c.clone();
        round_trip.extend(&c.inverse()).unwrap();
        // Every qubit is free input; the identity must restore all of
        // them, so cleanliness here means "no free-qubit-corrupted".
        let spec = AncillaSpec::new((0..width).collect(), vec![]);
        let report = verify_ancillas(&round_trip, &spec);
        prop_assert!(
            report.diagnostics.iter().all(|d| d.severity != Severity::Error),
            "identity circuit flagged dirty: {:?}",
            report.diagnostics
        );
        prop_assert!(report.exhaustive);
    }

    /// The differential test behind the symbolic pass: on any sectioned
    /// permutation circuit small enough to enumerate, the XOR-affine
    /// proof and brute-force evaluation must reach the same verdict.
    /// Every qubit the enumeration catches dirty, the symbolic pass must
    /// also catch (it may catch *more*: enumeration stops at the first
    /// violating input, the symbolic pass witnesses every dirty qubit).
    #[test]
    fn symbolic_verdict_matches_exhaustive_enumeration(
        width in 3usize..=10,
        seeds in vec(any::<u64>(), 0..40),
    ) {
        let c = decode_circuit(width, &seeds);
        let free: Vec<usize> = (0..width - 2).collect();
        let symbolic_spec = AncillaSpec::new(free.clone(), vec![]);
        let mut enumerated_spec = symbolic_spec.clone();
        enumerated_spec.symbolic = false;

        let sym = verify_ancillas(&c, &symbolic_spec);
        let enu = verify_ancillas(&c, &enumerated_spec);
        prop_assert_eq!(sym.proof, ProofMethod::Symbolic);
        prop_assert_eq!(enu.proof, ProofMethod::Enumerated);
        prop_assert!(sym.exhaustive && enu.exhaustive);
        prop_assert_eq!(
            sym.is_clean(),
            enu.is_clean(),
            "verdicts disagree: symbolic {:?} vs enumerated {:?}",
            sym.diagnostics,
            enu.diagnostics
        );

        let dirty_qubits = |r: &AncillaReport| {
            r.diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .filter_map(|d| d.span.qubit)
                .collect::<std::collections::BTreeSet<_>>()
        };
        prop_assert!(
            dirty_qubits(&enu).is_subset(&dirty_qubits(&sym)),
            "enumeration found dirt the symbolic pass missed: {:?} ⊄ {:?}",
            dirty_qubits(&enu),
            dirty_qubits(&sym)
        );
        if sym.is_clean() {
            // Both liveness analyses are exact here (full enumeration;
            // every symbolic cone fits the default budget), so they must
            // agree gate-for-gate.
            prop_assert_eq!(&sym.live_gates, &enu.live_gates);
        }
    }

    #[test]
    fn peephole_estimate_matches_real_compiler(
        width in 2usize..=6,
        seeds in vec(any::<u64>(), 0..60),
    ) {
        let c = decode_circuit(width, &seeds);
        let compiled = CompiledCircuit::compile(&c).unwrap();
        let drift = cross_check_compile(&c, &compiled.stats());
        prop_assert!(drift.is_empty(), "analyzer/compiler drift: {drift:?}");
    }

    #[test]
    fn depth_is_bounded_by_gates_and_busiest_qubit(
        width in 2usize..=6,
        seeds in vec(any::<u64>(), 0..40),
    ) {
        let c = decode_circuit(width, &seeds);
        let depth = circuit_depth(&c);
        prop_assert!(depth <= c.len());
        let mut per_qubit = vec![0usize; width];
        for g in c.gates() {
            for q in g.qubits() {
                per_qubit[q] += 1;
            }
        }
        let busiest = per_qubit.iter().copied().max().unwrap_or(0);
        prop_assert!(depth >= busiest, "depth {depth} < busiest qubit {busiest}");
    }

    #[test]
    fn audit_passes_on_truth_and_flags_tampering(
        width in 2usize..=6,
        seeds in vec(any::<u64>(), 4..40),
    ) {
        let c = decode_circuit(width, &seeds);
        // A model read off the circuit itself must audit clean...
        let model = ResourceModel {
            width: c.width(),
            sections: c
                .sections()
                .iter()
                .map(|s| SectionBudget { name: s.name.clone(), gates: s.range.len() })
                .collect(),
        };
        prop_assert!(qmkp_lint::audit(&c, &model).is_empty());

        // ...and tampering with the circuit (one extra gate in the
        // first section) must be flagged against the same model.
        let mut tampered = Circuit::new(c.width());
        for (i, section) in c.sections().iter().enumerate() {
            tampered.begin_section(&section.name);
            for g in &c.gates()[section.range.clone()] {
                tampered.push_unchecked(g.clone());
            }
            if i == 0 {
                tampered.push_unchecked(Gate::X(0));
            }
            tampered.end_section();
        }
        let diags = qmkp_lint::audit(&tampered, &model);
        prop_assert!(
            diags.iter().any(|d| d.code == "resource-gate-count"),
            "tampered circuit not flagged: {diags:?}"
        );
    }

    #[test]
    fn analysis_report_json_always_parses(
        width in 2usize..=5,
        seeds in vec(any::<u64>(), 0..25),
    ) {
        let c = decode_circuit(width, &seeds);
        let spec = AncillaSpec::new((0..width.min(2)).collect(), (width.min(2)..width).collect());
        let report = analyze("prop", &c, &spec, None);
        let parsed = qmkp_obs::json::parse(&report.to_json());
        prop_assert!(parsed.is_ok(), "unparseable report JSON: {:?}", parsed.err());
    }
}

#[test]
fn dropping_one_uncompute_gate_is_always_caught() {
    // Mutation scaffolding mirrored by the core-crate oracle tests: for a
    // compute/uncompute sandwich, deleting any single *live* gate of the
    // uncompute half must produce an ancilla error.
    let mut compute = Circuit::new(5);
    compute.begin_section("f");
    compute.push_unchecked(Gate::cnot(0, 2));
    compute.push_unchecked(Gate::ccnot(1, 2, 3));
    compute.end_section();
    let mut full = compute.clone();
    full.push_unchecked(Gate::cnot(3, 4)); // kickback into the out qubit
    let inverse_start = full.len();
    full.extend(&compute.inverse()).unwrap();

    let spec = AncillaSpec::new(vec![0, 1], vec![4]);
    assert!(qmkp_lint::is_clean(&full, &spec));
    for drop_idx in inverse_start..full.len() {
        let mut mutant = Circuit::new(full.width());
        for (i, g) in full.gates().iter().enumerate() {
            if i != drop_idx {
                mutant.push_unchecked(g.clone());
            }
        }
        let report = verify_ancillas(&mutant, &spec);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.severity == Severity::Error),
            "dropping gate #{drop_idx} went undetected"
        );
    }
}

#[test]
fn peephole_estimate_counts_cancellation_in_sandwich() {
    // x · x† back-to-back: everything cancels; the estimate must see the
    // full cascade just like the compiler does.
    let mut c = Circuit::new(3);
    c.push_unchecked(Gate::cnot(0, 1));
    c.push_unchecked(Gate::ccnot(0, 1, 2));
    c.push_unchecked(Gate::ccnot(0, 1, 2));
    c.push_unchecked(Gate::cnot(0, 1));
    let est = scheduled_peephole_estimate(&c);
    assert_eq!(est.cancelled_flips, 4);
    let compiled = CompiledCircuit::compile(&c).unwrap();
    assert_eq!(est.cancelled_flips, compiled.stats().cancelled_flips);
}
