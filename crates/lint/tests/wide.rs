//! End-to-end verification of circuits *beyond* the compiler's 128-qubit
//! cap.
//!
//! The compiled simulator keys basis states as `u128`, so nothing in
//! `qmkp-qsim` can execute these circuits — but the analyzer's symbolic
//! pass and its chunked-bitset fallback never touch that encoding, and
//! the acceptance bar for the pass is exactly this: a > 128-qubit
//! circuit verified end-to-end, clean proofs and violation attribution
//! both.

use qmkp_lint::{analyze, verify_ancillas, AncillaSpec, ProofMethod, Severity};
use qmkp_qsim::{Circuit, Gate};

const WIDTH: usize = 300;

/// A 300-qubit compute/kick/uncompute sandwich: a Toffoli ladder folds
/// the 100-qubit free register pairwise into 99 ancillas, the last
/// ancilla kicks into the out qubit, and the mirrored ladder uncomputes.
fn wide_sandwich() -> (Circuit, AncillaSpec) {
    let free: Vec<usize> = (0..100).collect();
    let anc0 = 100; // ancillas 100..199
    let out = WIDTH - 1;

    let mut compute = Circuit::new(WIDTH);
    compute.begin_section("fold");
    compute.push_unchecked(Gate::ccnot(0, 1, anc0));
    for i in 1..99 {
        compute.push_unchecked(Gate::ccnot(anc0 + i - 1, i + 1, anc0 + i));
    }
    compute.end_section();

    let mut full = compute.clone();
    full.begin_section("kick");
    full.push_unchecked(Gate::cnot(anc0 + 98, out));
    full.end_section();
    full.extend(&compute.inverse()).unwrap();

    (full, AncillaSpec::new(free, vec![out]))
}

#[test]
fn a_300_qubit_sandwich_proves_clean_symbolically() {
    let (c, spec) = wide_sandwich();
    assert!(c.width() > 128, "must exceed the compiler cap");
    let report = verify_ancillas(&c, &spec);
    assert!(report.is_clean(), "{:?}", report.diagnostics);
    assert!(report.exhaustive, "the proof covers all 2^100 inputs");
    assert_eq!(report.proof, ProofMethod::Symbolic);
    assert!(report.live_gates.iter().all(|&l| l), "nothing is dead here");
}

#[test]
fn a_dropped_uncompute_gate_is_attributed_at_width_300() {
    let (c, spec) = wide_sandwich();
    // Drop the *last* gate — the uncompute of `ccnot(0, 1, anc0)` — so
    // ancilla 100 stays dirty whenever free qubits 0 and 1 are both set.
    // Rebuild section-by-section so the attribution span stays rich.
    let mut mutated = Circuit::new(c.width());
    for section in c.sections() {
        mutated.begin_section(&section.name);
        for i in section.range.clone() {
            if i != c.len() - 1 {
                mutated.push_unchecked(c.gates()[i].clone());
            }
        }
        mutated.end_section();
    }
    let report = verify_ancillas(&mutated, &spec);
    assert!(!report.is_clean());
    assert!(report.exhaustive, "a symbolic refutation is still exact");
    assert_eq!(report.proof, ProofMethod::Symbolic);
    let dirty: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert_eq!(dirty.len(), 1, "{dirty:?}");
    assert_eq!(dirty[0].code, "ancilla-dirty");
    assert_eq!(dirty[0].span.qubit, Some(100));
    // The witness replay attributes the dirt to the gate that last
    // flipped ancilla 100 — the compute-side `ccnot(0, 1, 100)`, gate #0.
    assert_eq!(dirty[0].span.gate, Some(0));
    assert_eq!(dirty[0].span.section.as_deref(), Some("fold"));
}

#[test]
fn wide_violations_fall_back_to_concrete_evaluation_when_symbolic_is_off() {
    // The enumerative rungs run on the same chunked bitsets, so even
    // with the symbolic pass disabled a 300-qubit circuit is evaluable —
    // here with a 4-bit free register, exhaustively.
    let (c, _) = wide_sandwich();
    let mut mutated = Circuit::new(c.width());
    for g in &c.gates()[..c.len() - 1] {
        mutated.push_unchecked(g.clone());
    }
    // Only free bits 0..4 vary; the rest of the original free register
    // is pinned |0⟩, which kills the fold ladder beyond ancilla 102.
    let mut spec = AncillaSpec::new(vec![0, 1, 2, 3], vec![WIDTH - 1]);
    spec.symbolic = false;
    let report = verify_ancillas(&mutated, &spec);
    assert_eq!(report.proof, ProofMethod::Enumerated);
    assert!(report.exhaustive);
    assert!(!report.is_clean());
    let first = report
        .diagnostics
        .iter()
        .find(|d| d.severity == Severity::Error)
        .expect("a violation");
    assert_eq!(first.span.qubit, Some(100));
    assert!(
        first.message.contains("0b11"),
        "violating input named in binary: {}",
        first.message
    );
}

#[test]
fn the_full_analyzer_handles_width_300() {
    // `analyze` also runs structural checks and the peephole mirror,
    // which shares the compiler's u128 masks — it must degrade to a
    // zero estimate beyond 128 qubits instead of overflowing.
    let (c, spec) = wide_sandwich();
    let report = analyze("wide-300", &c, &spec, None);
    assert!(!report.has_errors(), "{}", report.render());
    assert_eq!(report.proof, ProofMethod::Symbolic);
    assert_eq!(report.width, WIDTH);
    assert_eq!(report.peephole, Default::default());
}
