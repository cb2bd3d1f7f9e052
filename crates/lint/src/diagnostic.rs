//! The diagnostic type shared by every analyzer pass, with a stable
//! rustc-style text renderer.
//!
//! Diagnostics carry a machine-readable `code` (a stable kebab-case
//! identifier such as `ancilla-dirty` or `resource-gate-count`), a
//! severity, and a [`Span`] locating the finding inside the circuit
//! (gate index, qubit, section name — each optional). The renderer is
//! deliberately plain and line-oriented so CI logs diff cleanly.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: an observation (e.g. a cancellation opportunity).
    Note,
    /// Suspicious but not provably wrong (e.g. a symbolic witness that
    /// does not replay concretely).
    Warning,
    /// A proven violation: the circuit breaks a required invariant.
    Error,
}

impl Severity {
    /// The lowercase label used by the renderer (`error`, `warning`,
    /// `note`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

/// Where in a circuit a diagnostic points. All fields are optional: a
/// width mismatch has no gate, a dead-gate note has no qubit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Span {
    /// Gate index in the analyzed circuit.
    pub gate: Option<usize>,
    /// The qubit the finding is about.
    pub qubit: Option<usize>,
    /// The section the gate belongs to, when the circuit is sectioned.
    pub section: Option<String>,
}

impl Span {
    /// A span pointing at one gate.
    pub fn at_gate(gate: usize) -> Self {
        Span {
            gate: Some(gate),
            ..Span::default()
        }
    }

    /// A span pointing at one qubit.
    pub fn at_qubit(qubit: usize) -> Self {
        Span {
            qubit: Some(qubit),
            ..Span::default()
        }
    }

    /// Whether the span carries no location at all.
    pub fn is_empty(&self) -> bool {
        self.gate.is_none() && self.qubit.is_none() && self.section.is_none()
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(g) = self.gate {
            parts.push(format!("gate #{g}"));
        }
        if let Some(q) = self.qubit {
            parts.push(format!("qubit {q}"));
        }
        if let Some(s) = &self.section {
            parts.push(format!("section `{s}`"));
        }
        write!(f, "{}", parts.join(", "))
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad the finding is.
    pub severity: Severity,
    /// Stable machine-readable identifier (kebab-case), e.g.
    /// `ancilla-dirty`, `resource-width`, `dead-gate`.
    pub code: &'static str,
    /// Where the finding points.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// An error diagnostic.
    pub fn error(code: &'static str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            span,
            message: message.into(),
        }
    }

    /// A warning diagnostic.
    pub fn warning(code: &'static str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            code,
            span,
            message: message.into(),
        }
    }

    /// A note diagnostic.
    pub fn note(code: &'static str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Note,
            code,
            span,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    // Stable rustc-style rendering:
    //   error[ancilla-dirty]: ancilla qubit 17 ends |1⟩ on input 0b001011
    //     --> gate #312, qubit 17, section `degree_compare†`
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.label(),
            self.code,
            self.message
        )?;
        if !self.span.is_empty() {
            write!(f, "\n  --> {}", self.span)?;
        }
        Ok(())
    }
}

/// Renders a diagnostic list followed by a one-line summary, rustc style.
pub fn render(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diagnostics {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let errors = count(diagnostics, Severity::Error);
    let warnings = count(diagnostics, Severity::Warning);
    let notes = count(diagnostics, Severity::Note);
    out.push_str(&format!(
        "{errors} error(s), {warnings} warning(s), {notes} note(s)\n"
    ));
    out
}

/// Number of diagnostics at exactly the given severity.
pub fn count(diagnostics: &[Diagnostic], severity: Severity) -> usize {
    diagnostics
        .iter()
        .filter(|d| d.severity == severity)
        .count()
}

/// Whether any diagnostic is an error.
pub fn has_errors(diagnostics: &[Diagnostic]) -> bool {
    count(diagnostics, Severity::Error) > 0
}

/// Exports diagnostic counts as `qmkp-obs` counters
/// (`lint.diagnostics.error` / `.warning` / `.note`), when observability
/// is enabled for the `lint` prefix.
pub fn export_counters(diagnostics: &[Diagnostic]) {
    if qmkp_obs::enabled_for("lint") {
        for (name, severity) in [
            ("lint.diagnostics.error", Severity::Error),
            ("lint.diagnostics.warning", Severity::Warning),
            ("lint.diagnostics.note", Severity::Note),
        ] {
            qmkp_obs::counter(name, &[], count(diagnostics, severity) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renderer_is_rustc_style() {
        let d = Diagnostic::error(
            "ancilla-dirty",
            Span {
                gate: Some(12),
                qubit: Some(7),
                section: Some("degree_compare†".into()),
            },
            "ancilla qubit 7 left dirty",
        );
        let s = d.to_string();
        assert!(s.starts_with("error[ancilla-dirty]: ancilla qubit 7 left dirty"));
        assert!(s.contains("--> gate #12, qubit 7, section `degree_compare†`"));
    }

    #[test]
    fn spanless_diagnostic_renders_one_line() {
        let d = Diagnostic::note("dead-gate", Span::default(), "2 gates never fire");
        assert_eq!(d.to_string(), "note[dead-gate]: 2 gates never fire");
    }

    #[test]
    fn summary_counts() {
        let diags = vec![
            Diagnostic::error("a", Span::default(), "x"),
            Diagnostic::warning("b", Span::at_gate(1), "y"),
            Diagnostic::note("c", Span::at_qubit(2), "z"),
            Diagnostic::note("c", Span::default(), "w"),
        ];
        assert!(has_errors(&diags));
        assert_eq!(count(&diags, Severity::Note), 2);
        let rendered = render(&diags);
        assert!(rendered.contains("1 error(s), 1 warning(s), 2 note(s)"));
    }

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }
}
