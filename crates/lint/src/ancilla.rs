//! Ancilla-lifecycle (uncompute) verification.
//!
//! The qTKP oracle's `U_check` / flip / `U_check†` sandwich is built from
//! X / CNOT / Toffoli / CᵏNOT only, so it is a *permutation of basis
//! states* — its action is fully determined by classical bit-set
//! evaluation, no amplitudes required. This pass exploits that to prove
//! that every ancilla qubit is restored to `|0⟩` (and every free input
//! qubit preserved) at the phase-kickback boundary, for *every* reachable
//! input. A dirty ancilla here is exactly the failure mode that silently
//! corrupts amplitude amplification in the maximal-clique Grover
//! literature (Chang et al., arXiv:1803.11356; Sanyal, arXiv:2004.10596):
//! the diffusion step then interferes branches that should be identical
//! outside the search register.
//!
//! Proofs come from a ladder of two methods, recorded in the report's
//! [`ProofMethod`]:
//!
//! 1. **Symbolic** ([`crate::symbolic`]) — the default: an XOR-affine
//!    abstract interpretation that is exact at any free width and any
//!    circuit width (chunked bitsets, no 128-qubit cap). Residuals it
//!    cannot decide within the case-split budget demote the run to…
//! 2. **Enumerated** — concrete evaluation of all `2^|free|` inputs over
//!    chunked bitset states, exact while `|free|` is small enough.
//!
//! A free register too wide to enumerate that the symbolic pass leaves
//! undecided gets no verdict at all: an `unproven` error, never a
//! partial check presented as a proof.
//!
//! Violations are attributed by concrete replay either way: the
//! diagnostic names the violating free-register input and the gate that
//! last flipped the offending qubit — the gate whose uncompute partner
//! is missing or wrong.

use crate::diagnostic::{Diagnostic, Severity, Span};
use crate::symbolic::{analyze_symbolic, SymbolicOutcome};
use qmkp_qsim::bits::BitVec;
use qmkp_qsim::{Circuit, Gate};

/// What the ancilla pass should assume and check.
#[derive(Debug, Clone)]
pub struct AncillaSpec {
    /// Qubits holding the superposed search register (the oracle's vertex
    /// qubits). They take every value; the pass proves they are preserved.
    pub free: Vec<usize>,
    /// Qubits allowed to differ from their input at the end (the oracle
    /// qubit `|O⟩`, or a comparator's result bit). Every other non-free
    /// qubit starts `|0⟩` and must end `|0⟩`.
    pub dirty_ok: Vec<usize>,
    /// When the symbolic pass demurs: enumerate exhaustively while
    /// `|free| ≤ max_exhaustive_bits`; beyond that, the verdict is an
    /// `unproven` error. Default 16 (65 536 inputs).
    pub max_exhaustive_bits: usize,
    /// Try the symbolic XOR-affine proof first (default). Disable to
    /// force the enumerative path — differential tests do.
    pub symbolic: bool,
    /// Widest residual input cone (in bits) the symbolic pass may
    /// case-split exhaustively before giving up. Default 20 (≤ ~1M
    /// assignments per undecided residual).
    pub split_budget: usize,
}

impl AncillaSpec {
    /// A spec with the default proof ladder and enumeration limits.
    pub fn new(free: Vec<usize>, dirty_ok: Vec<usize>) -> Self {
        AncillaSpec {
            free,
            dirty_ok,
            max_exhaustive_bits: 16,
            symbolic: true,
            split_budget: 20,
        }
    }
}

/// How a verdict was established, strongest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofMethod {
    /// XOR-affine symbolic proof: exact for every input, at any width.
    Symbolic,
    /// Concrete evaluation of every free-register assignment.
    Enumerated,
}

impl ProofMethod {
    /// Stable lowercase label, used in rendered and JSON reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProofMethod::Symbolic => "symbolic",
            ProofMethod::Enumerated => "enumerated",
        }
    }
}

/// The outcome of one ancilla-lifecycle verification.
#[derive(Debug, Clone)]
pub struct AncillaReport {
    /// Findings, if any. A clean verdict carries no errors; notes (dead
    /// gates, a symbolic budget fallback) may accompany it.
    pub diagnostics: Vec<Diagnostic>,
    /// Whether the verdict covers *every* free-register assignment
    /// (symbolic proof or full enumeration).
    pub exhaustive: bool,
    /// The method that established the verdict.
    pub proof: ProofMethod,
    /// Concrete inputs evaluated: enumerated assignments,
    /// case-split cases inside the symbolic pass, and witness replays. A
    /// purely syntactic symbolic proof legitimately reports 0.
    pub inputs_checked: u64,
    /// `live_gates[i]` is true when gate `i` fired (flipped its target)
    /// on at least one reachable input. Exact under a symbolic proof
    /// with all liveness cones within budget, or a full enumeration;
    /// used by the dead-gate note and by mutation tests to seed only
    /// detectable mutations.
    pub live_gates: Vec<bool>,
}

impl AncillaReport {
    /// Whether the pass proved cleanliness.
    pub fn is_clean(&self) -> bool {
        !crate::diagnostic::has_errors(&self.diagnostics)
    }
}

/// The section (if any) a gate index falls into, for span enrichment.
fn section_of(circuit: &Circuit, gate: usize) -> Option<String> {
    circuit
        .sections()
        .iter()
        .find(|s| s.range.contains(&gate))
        .map(|s| s.name.clone())
}

/// Renders a free-register assignment for diagnostics: binary like the
/// historical `u128` formatting when it fits, hex words beyond that.
fn fmt_assignment(assignment: &BitVec) -> String {
    match assignment.as_u128() {
        Some(v) => format!("{v:#b}"),
        None => {
            let mut s = String::from("0x");
            for w in assignment.words().iter().rev() {
                s.push_str(&format!("{w:016x}"));
            }
            s
        }
    }
}

/// Concretely evaluates the permutation on one input, tracking which
/// gates fired and which gate last flipped each qubit (for violation
/// attribution). Chunked state: no width limit.
fn eval_circuit(
    circuit: &Circuit,
    input: &BitVec,
    live: &mut [bool],
    last_flip: &mut [Option<usize>],
) -> BitVec {
    let mut state = input.clone();
    for (i, gate) in circuit.gates().iter().enumerate() {
        match gate {
            Gate::X(q) => {
                state.toggle(*q);
                live[i] = true;
                last_flip[*q] = Some(i);
            }
            Gate::Mcx { controls, target }
                if controls.iter().all(|c| state.get(c.qubit) == c.positive) =>
            {
                state.toggle(*target);
                live[i] = true;
                last_flip[*target] = Some(i);
            }
            // Unreachable: non-permutation gates error out before
            // evaluation starts.
            _ => {}
        }
    }
    state
}

/// Emits one violation diagnostic for a qubit left in the wrong state.
fn push_violation(
    circuit: &Circuit,
    spec: &AncillaSpec,
    q: usize,
    gate: Option<usize>,
    assignment: &BitVec,
    diagnostics: &mut Vec<Diagnostic>,
) {
    let (role, code) = if spec.free.contains(&q) {
        ("free (search-register) qubit", "free-qubit-corrupted")
    } else {
        ("ancilla qubit", "ancilla-dirty")
    };
    diagnostics.push(Diagnostic::error(
        code,
        Span {
            gate,
            qubit: Some(q),
            section: gate.and_then(|g| section_of(circuit, g)),
        },
        format!(
            "{role} {q} is not restored on free-register input {}; last flipped by gate {}",
            fmt_assignment(assignment),
            gate.map_or_else(|| "<none>".to_string(), |g| format!("#{g}")),
        ),
    ));
}

/// Dead gates are only decidable after an exact liveness analysis. Cap
/// the individual notes (constant registers routinely strand whole
/// comparator cascades) — `live_gates` always has the full picture.
fn push_dead_gate_notes(circuit: &Circuit, live: &[bool], diagnostics: &mut Vec<Diagnostic>) {
    const MAX_DEAD_GATE_NOTES: usize = 8;
    let dead: Vec<usize> = live
        .iter()
        .enumerate()
        .filter(|(_, l)| !**l)
        .map(|(i, _)| i)
        .collect();
    for &i in dead.iter().take(MAX_DEAD_GATE_NOTES) {
        diagnostics.push(Diagnostic::note(
            "dead-gate",
            Span {
                gate: Some(i),
                qubit: circuit.gates()[i].qubits().last().copied(),
                section: section_of(circuit, i),
            },
            format!(
                "gate #{i} never fires on any reachable input \
                 (controls unsatisfiable given the |0⟩-initialized ancillas)"
            ),
        ));
    }
    if dead.len() > MAX_DEAD_GATE_NOTES {
        diagnostics.push(Diagnostic::note(
            "dead-gate",
            Span::default(),
            format!(
                "…and {} more gates that never fire ({} dead of {} total)",
                dead.len() - MAX_DEAD_GATE_NOTES,
                dead.len(),
                circuit.len()
            ),
        ));
    }
}

/// Statically verifies ancilla cleanliness: for every assignment of the
/// free register (proven symbolically or enumerated — see the module
/// docs for the ladder), with all other qubits starting `|0⟩`,
/// the circuit must restore every qubit outside `spec.dirty_ok` to its
/// input value. Violations are reported with the gate index that last
/// flipped the offending qubit — the gate whose uncompute partner is
/// missing or wrong.
///
/// Non-permutation gates (`H`, `Z`, `Phase`, `Ry`, `CPhase`, `MCZ`) make
/// the property undecidable by bit-set evaluation and are reported as
/// errors: the paper's `U_check` is classical-reversible by construction,
/// so their presence is itself a structural defect.
pub fn verify_ancillas(circuit: &Circuit, spec: &AncillaSpec) -> AncillaReport {
    let mut diagnostics = Vec::new();
    let width = circuit.width();

    // Spec sanity: free/dirty_ok qubits must exist and be distinct.
    let mut seen = vec![false; width.max(1)];
    for &q in spec.free.iter().chain(&spec.dirty_ok) {
        if q >= width {
            diagnostics.push(Diagnostic::error(
                "spec-qubit-out-of-range",
                Span::at_qubit(q),
                format!("spec references qubit {q}, but the circuit has width {width}"),
            ));
        } else if std::mem::replace(&mut seen[q], true) {
            diagnostics.push(Diagnostic::error(
                "spec-qubit-duplicated",
                Span::at_qubit(q),
                format!("qubit {q} appears more than once across `free`/`dirty_ok`"),
            ));
        }
    }
    // Permutation-only precondition.
    for (i, gate) in circuit.gates().iter().enumerate() {
        if !gate.is_permutation() {
            diagnostics.push(Diagnostic::error(
                "non-permutation-gate",
                Span {
                    gate: Some(i),
                    qubit: gate.qubits().first().copied(),
                    section: section_of(circuit, i),
                },
                format!(
                    "ancilla verification requires a classical-reversible circuit, \
                     but gate #{i} is {gate:?}"
                ),
            ));
        }
    }
    let no_verdict = |diagnostics| AncillaReport {
        diagnostics,
        exhaustive: false,
        proof: ProofMethod::Enumerated,
        inputs_checked: 0,
        live_gates: vec![false; circuit.len()],
    };
    if crate::diagnostic::has_errors(&diagnostics) {
        return no_verdict(diagnostics);
    }

    let dirty_ok = {
        let mut v = vec![false; width.max(1)];
        for &q in &spec.dirty_ok {
            v[q] = true;
        }
        v
    };

    // Rung 1: the symbolic XOR-affine proof, exact at any width.
    if spec.symbolic {
        let analysis = analyze_symbolic(circuit, &spec.free, &spec.dirty_ok, spec.split_budget);
        match analysis.outcome {
            SymbolicOutcome::Clean => {
                if analysis.liveness_exact {
                    push_dead_gate_notes(circuit, &analysis.live_gates, &mut diagnostics);
                }
                return AncillaReport {
                    diagnostics,
                    exhaustive: true,
                    proof: ProofMethod::Symbolic,
                    inputs_checked: analysis.cases_evaluated,
                    live_gates: analysis.live_gates,
                };
            }
            SymbolicOutcome::Dirty(witnesses) => {
                // Ground every finding in a concrete replay: the
                // symbolic engine supplies candidate inputs, evaluation
                // supplies the dirt and the last-flip attribution.
                let mut inputs_checked = analysis.cases_evaluated;
                let mut reported = vec![false; width.max(1)];
                let mut found = 0usize;
                for w in &witnesses {
                    if reported[w.qubit] {
                        continue;
                    }
                    let mut input = BitVec::new();
                    for (bit, &q) in spec.free.iter().enumerate() {
                        if w.assignment.get(bit) {
                            input.set(q, true);
                        }
                    }
                    let mut live = vec![false; circuit.len()];
                    let mut last_flip: Vec<Option<usize>> = vec![None; width.max(1)];
                    let state = eval_circuit(circuit, &input, &mut live, &mut last_flip);
                    inputs_checked += 1;
                    let mut dirt = state;
                    dirt.xor_with(&input);
                    for q in dirt.ones().filter(|&q| !dirty_ok[q]) {
                        if !std::mem::replace(&mut reported[q], true) {
                            push_violation(
                                circuit,
                                spec,
                                q,
                                last_flip[q],
                                &w.assignment,
                                &mut diagnostics,
                            );
                            found += 1;
                        }
                    }
                }
                if found > 0 {
                    return AncillaReport {
                        diagnostics,
                        exhaustive: true,
                        proof: ProofMethod::Symbolic,
                        inputs_checked,
                        live_gates: analysis.live_gates,
                    };
                }
                // A witness that does not replay means the symbolic
                // model disagrees with concrete evaluation — never
                // trust it; fall through to enumeration.
                diagnostics.push(Diagnostic::warning(
                    "symbolic-witness-mismatch",
                    Span::default(),
                    "a symbolic witness did not reproduce under concrete evaluation; \
                     falling back to enumeration"
                        .to_string(),
                ));
            }
            SymbolicOutcome::BudgetExceeded {
                qubit,
                cone_bits,
                budget,
            } => {
                diagnostics.push(Diagnostic::note(
                    "symbolic-budget-exceeded",
                    Span::at_qubit(qubit),
                    format!(
                        "qubit {qubit}'s residual depends on {cone_bits} free bits \
                         (case-split budget {budget}); falling back to enumeration"
                    ),
                ));
            }
        }
    }

    // Rung 2: concrete enumeration over chunked bitsets, when the free
    // register is small enough; a wider one stays unproven.
    let free_bits = spec.free.len();
    if free_bits > spec.max_exhaustive_bits || free_bits >= 63 {
        diagnostics.push(Diagnostic::error(
            "unproven",
            Span::default(),
            format!(
                "free register has {free_bits} qubits (> {} exhaustive limit) and the \
                 symbolic pass did not decide it; cleanliness is unproven",
                spec.max_exhaustive_bits
            ),
        ));
        return no_verdict(diagnostics);
    }
    let total = 1u64 << free_bits;

    let mut live = vec![false; circuit.len()];
    let mut last_flip: Vec<Option<usize>> = vec![None; width.max(1)];
    let mut inputs_checked = 0u64;

    for step in 0..total {
        let assignment = BitVec::from_u128(u128::from(step));
        // Scatter assignment bits onto the free qubits.
        let mut input = BitVec::new();
        for (bit, &q) in spec.free.iter().enumerate() {
            if assignment.get(bit) {
                input.set(q, true);
            }
        }

        let state = eval_circuit(circuit, &input, &mut live, &mut last_flip);
        inputs_checked += 1;

        let mut dirt = state;
        dirt.xor_with(&input);
        let dirty: Vec<usize> = dirt.ones().filter(|&q| !dirty_ok[q]).collect();
        if !dirty.is_empty() {
            for q in dirty {
                push_violation(
                    circuit,
                    spec,
                    q,
                    last_flip[q],
                    &assignment,
                    &mut diagnostics,
                );
            }
            // One violating input pins down the defect; stop enumerating.
            break;
        }
    }

    if !crate::diagnostic::has_errors(&diagnostics) && inputs_checked == total {
        push_dead_gate_notes(circuit, &live, &mut diagnostics);
    }

    AncillaReport {
        diagnostics,
        exhaustive: true,
        proof: ProofMethod::Enumerated,
        inputs_checked,
        live_gates: live,
    }
}

/// Convenience predicate: `true` when the pass finds no error-severity
/// diagnostics (warnings and dead-gate notes are allowed).
pub fn is_clean(circuit: &Circuit, spec: &AncillaSpec) -> bool {
    verify_ancillas(circuit, spec)
        .diagnostics
        .iter()
        .all(|d| d.severity != Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp_qsim::QubitAllocator;

    /// cnot(0→1), ccnot(0,1→2), then the mirror: fully clean.
    fn clean_sandwich() -> (Circuit, AncillaSpec) {
        let mut c = Circuit::new(4);
        c.push_unchecked(Gate::cnot(0, 1));
        c.push_unchecked(Gate::ccnot(0, 1, 2));
        c.push_unchecked(Gate::ccnot(1, 2, 3)); // "flip" onto result 3
        c.push_unchecked(Gate::ccnot(0, 1, 2));
        c.push_unchecked(Gate::cnot(0, 1));
        (c, AncillaSpec::new(vec![0], vec![3]))
    }

    #[test]
    fn clean_circuit_passes_symbolically() {
        let (c, spec) = clean_sandwich();
        let report = verify_ancillas(&c, &spec);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert!(report.exhaustive);
        assert_eq!(report.proof, ProofMethod::Symbolic);
        // The sandwich cancels syntactically and liveness resolves on
        // the screening lanes: no concrete case was ever needed.
        assert_eq!(report.inputs_checked, 0);
        assert!(report.live_gates.iter().all(|&l| l));
    }

    #[test]
    fn enumerated_path_agrees_with_symbolic() {
        let (c, mut spec) = clean_sandwich();
        spec.symbolic = false;
        let report = verify_ancillas(&c, &spec);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert!(report.exhaustive);
        assert_eq!(report.proof, ProofMethod::Enumerated);
        assert_eq!(report.inputs_checked, 2);
        assert!(report.live_gates.iter().all(|&l| l));
    }

    #[test]
    fn dropped_uncompute_gate_is_flagged_with_its_index() {
        let (c, spec) = clean_sandwich();
        // Drop gate #4 (the final cnot uncompute).
        let mut mutated = Circuit::new(c.width());
        for (i, g) in c.gates().iter().enumerate() {
            if i != 4 {
                mutated.push_unchecked(g.clone());
            }
        }
        let report = verify_ancillas(&mutated, &spec);
        assert!(!report.is_clean());
        assert_eq!(report.proof, ProofMethod::Symbolic);
        assert!(report.exhaustive, "a symbolic violation is still exact");
        let dirty: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "ancilla-dirty")
            .collect();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].span.qubit, Some(1));
        // Qubit 1 was last flipped by the (former) compute cnot, gate #0.
        assert_eq!(dirty[0].span.gate, Some(0));
    }

    #[test]
    fn corrupted_free_qubit_uses_its_own_code() {
        let mut c = Circuit::new(2);
        c.push_unchecked(Gate::X(0));
        let report = verify_ancillas(&c, &AncillaSpec::new(vec![0], vec![]));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "free-qubit-corrupted"));
    }

    #[test]
    fn non_permutation_gate_is_an_error() {
        let mut c = Circuit::new(2);
        c.push_unchecked(Gate::H(0));
        let report = verify_ancillas(&c, &AncillaSpec::new(vec![0], vec![]));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "non-permutation-gate"));
        assert_eq!(report.inputs_checked, 0);
    }

    #[test]
    fn dead_gates_are_noted() {
        let mut alloc = QubitAllocator::new();
        let v = alloc.alloc_one("v");
        let anc = alloc.alloc_one("anc");
        let t = alloc.alloc_one("t");
        let mut c = Circuit::new(alloc.width());
        // anc starts |0⟩ and nothing sets it, so this gate can never fire.
        c.push_unchecked(Gate::ccnot(v, anc, t));
        let report = verify_ancillas(&c, &AncillaSpec::new(vec![v], vec![]));
        assert!(report.is_clean());
        assert_eq!(report.proof, ProofMethod::Symbolic);
        let dead: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "dead-gate")
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].span.gate, Some(0));
        assert!(!report.live_gates[0]);
    }

    #[test]
    fn bad_spec_is_rejected() {
        let c = Circuit::new(2);
        let report = verify_ancillas(&c, &AncillaSpec::new(vec![5], vec![]));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "spec-qubit-out-of-range"));
        let report = verify_ancillas(&c, &AncillaSpec::new(vec![0], vec![0]));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "spec-qubit-duplicated"));
    }

    #[test]
    fn wide_free_register_without_symbolic_is_unproven() {
        let mut spec = AncillaSpec::new((0..10).collect(), vec![]);
        spec.max_exhaustive_bits = 4;
        spec.symbolic = false;
        let c = Circuit::new(10);
        let report = verify_ancillas(&c, &spec);
        assert!(!report.is_clean(), "no rung decided it: not clean");
        assert!(!report.exhaustive);
        assert_eq!(report.proof, ProofMethod::Enumerated);
        assert_eq!(report.inputs_checked, 0);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "unproven" && d.severity == Severity::Error));
    }

    #[test]
    fn symbolic_proof_decides_what_enumeration_cannot() {
        // Same wide spec, symbolic left on: the proof is exact where
        // enumeration would have been out of reach.
        let mut spec = AncillaSpec::new((0..10).collect(), vec![]);
        spec.max_exhaustive_bits = 4;
        let c = Circuit::new(10);
        let report = verify_ancillas(&c, &spec);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert!(report.exhaustive);
        assert_eq!(report.proof, ProofMethod::Symbolic);
    }

    #[test]
    fn budget_exceeded_falls_back_to_enumeration_with_a_note() {
        // q8 ends as P(x0..x7) ⊕ (A(x0..x6) ∧ x7): semantically zero but
        // syntactically distinct products, so the symbolic pass needs an
        // 8-bit case-split — denied by a 4-bit budget.
        let ctrl = |qs: &[usize], t: usize| Gate::Mcx {
            controls: qs
                .iter()
                .map(|&q| qmkp_qsim::Control {
                    qubit: q,
                    positive: true,
                })
                .collect(),
            target: t,
        };
        let mut c = Circuit::new(10);
        c.push_unchecked(ctrl(&(0..8).collect::<Vec<_>>(), 8));
        c.push_unchecked(ctrl(&(0..7).collect::<Vec<_>>(), 9));
        c.push_unchecked(ctrl(&[9, 7], 8));
        c.push_unchecked(ctrl(&(0..7).collect::<Vec<_>>(), 9));
        let mut spec = AncillaSpec::new((0..8).collect(), vec![]);
        spec.split_budget = 4;
        let report = verify_ancillas(&c, &spec);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert!(report.exhaustive, "8 free bits enumerate exhaustively");
        assert_eq!(report.proof, ProofMethod::Enumerated);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "symbolic-budget-exceeded" && d.severity == Severity::Note));
        assert_eq!(report.inputs_checked, 256);
    }

    #[test]
    fn is_clean_helper_tolerates_notes() {
        let (c, spec) = clean_sandwich();
        assert!(is_clean(&c, &spec));
    }
}
