//! The top-level analyzer entry point and its machine-readable report.
//!
//! [`analyze`] runs every pass — structural diagnostics, ancilla
//! verification, the optional closed-form resource audit, and the
//! peephole estimate — over one circuit and folds the results into an
//! [`AnalysisReport`].

use crate::ancilla::{verify_ancillas, AncillaSpec, ProofMethod};
use crate::diagnostic::{self, Diagnostic, Severity};
use crate::resource::{audit, circuit_depth, ResourceModel};
use crate::structural::{scheduled_peephole_estimate, structural_diagnostics, PeepholeEstimate};
use qmkp_qsim::compile::CompileStats;
use qmkp_qsim::Circuit;

/// Everything the analyzer learned about one circuit.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Caller-supplied name identifying the analyzed circuit.
    pub name: String,
    /// Circuit width in qubits.
    pub width: usize,
    /// Total gate count.
    pub gates: usize,
    /// ASAP-scheduled depth (see [`crate::resource::circuit_depth`]).
    pub depth: usize,
    /// All diagnostics from all passes, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Whether the ancilla verdict covers *every* free-register input
    /// (`false` means there is no verdict: the ancilla pass was skipped
    /// or reported an error before deciding).
    pub exhaustive: bool,
    /// How the ancilla verdict was established (symbolic proof or full
    /// enumeration).
    pub proof: ProofMethod,
    /// Concrete inputs the ancilla pass evaluated (enumerated
    /// assignments, symbolic case-split cases, and witness replays; a
    /// purely syntactic symbolic proof reports 0).
    pub inputs_checked: u64,
    /// Per-section gate counts, in circuit order.
    pub sections: Vec<(String, usize)>,
    /// Cancellations, merges and commutes the compiler's DAG scheduler
    /// would perform; [`cross_check_compile`] verifies the same estimate
    /// against an actual compile's stats.
    pub peephole: PeepholeEstimate,
}

impl AnalysisReport {
    /// Whether any pass produced an error-severity diagnostic.
    pub fn has_errors(&self) -> bool {
        diagnostic::has_errors(&self.diagnostics)
    }

    /// Diagnostic counts as `(errors, warnings, notes)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        (
            diagnostic::count(&self.diagnostics, Severity::Error),
            diagnostic::count(&self.diagnostics, Severity::Warning),
            diagnostic::count(&self.diagnostics, Severity::Note),
        )
    }

    /// Renders the report as human-readable text: a header line, every
    /// diagnostic in rustc style, and the severity summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "analyzing `{}`: {} qubits, {} gates, depth {} ({} proof, {} inputs)\n",
            self.name,
            self.width,
            self.gates,
            self.depth,
            self.proof.label(),
            self.inputs_checked,
        );
        out.push_str(&diagnostic::render(&self.diagnostics));
        out
    }
}

/// Runs every analyzer pass over `circuit` and returns the combined
/// report. `model` enables the closed-form resource audit when given.
///
/// Pass order matters for readability, not correctness: structural
/// findings (malformed gates, aliasing) come first because they explain
/// downstream failures; the ancilla pass is skipped entirely when
/// structural analysis already found malformed gates, since evaluating
/// an out-of-range gate as a permutation is meaningless.
pub fn analyze(
    name: &str,
    circuit: &Circuit,
    spec: &AncillaSpec,
    model: Option<&ResourceModel>,
) -> AnalysisReport {
    let _span = qmkp_obs::span_dyn(|| format!("lint.analyze.{name}"));
    let mut diagnostics = structural_diagnostics(circuit);
    let structurally_sound = !diagnostic::has_errors(&diagnostics);

    let (exhaustive, proof, inputs_checked) = if structurally_sound {
        let ancilla = verify_ancillas(circuit, spec);
        diagnostics.extend(ancilla.diagnostics);
        (ancilla.exhaustive, ancilla.proof, ancilla.inputs_checked)
    } else {
        (false, ProofMethod::Enumerated, 0)
    };

    if let Some(model) = model {
        diagnostics.extend(audit(circuit, model));
    }
    let peephole = scheduled_peephole_estimate(circuit);

    diagnostic::export_counters(&diagnostics);
    AnalysisReport {
        name: name.to_string(),
        width: circuit.width(),
        gates: circuit.len(),
        depth: circuit_depth(circuit),
        diagnostics,
        exhaustive,
        proof,
        inputs_checked,
        sections: circuit
            .sections()
            .iter()
            .map(|s| (s.name.clone(), s.range.len()))
            .collect(),
        peephole,
    }
}

/// Cross-checks the analyzer's peephole estimate (a replay of the DAG
/// scheduler's sink/fuse/cancel state machine,
/// [`scheduled_peephole_estimate`]) against the stats the compiler
/// actually reported for the same circuit. A mismatch means the
/// analyzer's model of the compiler has drifted — exactly the silent
/// divergence this check exists to catch.
pub fn cross_check_compile(circuit: &Circuit, stats: &CompileStats) -> Vec<Diagnostic> {
    let est = scheduled_peephole_estimate(circuit);
    let mut diagnostics = Vec::new();
    let mut check = |what: &'static str, code: &'static str, predicted: usize, actual: usize| {
        if predicted != actual {
            diagnostics.push(Diagnostic::error(
                code,
                crate::diagnostic::Span::default(),
                format!("analyzer predicts {predicted} {what}, compiler reported {actual}"),
            ));
        }
    };
    check(
        "cancelled flips",
        "compile-drift-cancelled-flips",
        est.cancelled_flips,
        stats.cancelled_flips,
    );
    check(
        "merged phases",
        "compile-drift-merged-phases",
        est.merged_phases,
        stats.merged_phases,
    );
    check(
        "merged singles",
        "compile-drift-merged-singles",
        est.merged_singles,
        stats.merged_singles,
    );
    check(
        "commuted diagonals",
        "compile-drift-commuted-diagonals",
        est.commuted_diagonals,
        stats.commuted_diagonals,
    );
    if circuit.len() != stats.source_gates {
        diagnostics.push(Diagnostic::error(
            "compile-drift-source-gates",
            crate::diagnostic::Span::default(),
            format!(
                "circuit has {} gates, compiler saw {}",
                circuit.len(),
                stats.source_gates
            ),
        ));
    }
    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp_qsim::{CompiledCircuit, Gate};

    fn sandwich() -> (Circuit, AncillaSpec) {
        // in(0), ancilla(1), out(2): compute ancilla, kick to out, uncompute.
        let mut c = Circuit::new(3);
        c.begin_section("compute");
        c.push_unchecked(Gate::cnot(0, 1));
        c.end_section();
        c.push_unchecked(Gate::cnot(1, 2));
        c.begin_section("compute†");
        c.push_unchecked(Gate::cnot(0, 1));
        c.end_section();
        (c, AncillaSpec::new(vec![0], vec![2]))
    }

    #[test]
    fn clean_circuit_reports_no_errors() {
        let (c, spec) = sandwich();
        let report = analyze("sandwich", &c, &spec, None);
        assert!(!report.has_errors(), "{}", report.render());
        assert!(report.exhaustive);
        assert_eq!(report.proof, ProofMethod::Symbolic);
        // The sandwich cancels syntactically: no concrete input needed.
        assert_eq!(report.inputs_checked, 0);
        assert_eq!(report.gates, 3);
        assert_eq!(report.width, 3);
        assert_eq!(
            report.sections,
            vec![("compute".to_string(), 1), ("compute†".to_string(), 1)]
        );
    }

    #[test]
    fn dirty_circuit_reports_its_diagnostics() {
        let mut c = Circuit::new(2);
        c.push_unchecked(Gate::cnot(0, 1)); // ancilla 1 left dirty
        let report = analyze("dirty", &c, &AncillaSpec::new(vec![0], vec![]), None);
        assert!(report.has_errors());
        assert_eq!(report.diagnostics[0].severity, Severity::Error);
    }

    #[test]
    fn bad_spec_reports_without_panicking() {
        // Malformed *gates* cannot be built through Circuit's safe API
        // (push_unchecked still validates), so the structural-error skip
        // branch is defensive; a bad AncillaSpec is the reachable
        // misconfiguration and must surface as diagnostics, not a panic.
        let mut c = Circuit::new(2);
        c.push_unchecked(Gate::X(0));
        let report = analyze("bad-spec", &c, &AncillaSpec::new(vec![9], vec![]), None);
        assert!(report.has_errors());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "spec-qubit-out-of-range"));
    }

    #[test]
    fn cross_check_agrees_with_real_compiler() {
        let mut c = Circuit::new(3);
        c.begin_section("s");
        c.push_unchecked(Gate::X(0));
        c.push_unchecked(Gate::X(0)); // cancels
        c.push_unchecked(Gate::H(1));
        c.push_unchecked(Gate::H(1)); // merges
        c.push_unchecked(Gate::Z(1)); // phase folds into the single run
        c.end_section();
        let compiled = CompiledCircuit::compile(&c).expect("compiles");
        assert!(cross_check_compile(&c, &compiled.stats()).is_empty());

        // Tampered stats must be flagged.
        let mut tampered = compiled.stats();
        tampered.cancelled_flips += 1;
        let diags = cross_check_compile(&c, &tampered);
        assert!(diags
            .iter()
            .any(|d| d.code == "compile-drift-cancelled-flips"));
    }
}
