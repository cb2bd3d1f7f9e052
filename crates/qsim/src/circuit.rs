//! The circuit IR: an ordered gate list with section tags and statistics.

use crate::error::SimError;
use crate::gate::Gate;
use std::collections::BTreeMap;
use std::ops::Range;

/// A named, contiguous range of gate indices within a circuit.
///
/// The qTKP oracle tags its three components (degree counting, degree
/// comparison, size determination) as sections so that simulation cost can
/// be attributed per component (paper Table IV).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name (e.g. `"degree_count"`).
    pub name: String,
    /// Gate index range `[start, end)` in the owning circuit.
    pub range: Range<usize>,
}

/// Aggregate gate statistics for a circuit or a slice of one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GateStats {
    /// Total number of gates.
    pub gates: usize,
    /// Gates by kind name (`"X"`, `"H"`, `"Z"`, `"Phase"`, `"MCX(k)"`, …).
    pub by_kind: BTreeMap<String, usize>,
    /// Total elementary cost (see [`Gate::elementary_cost`]).
    pub elementary_cost: usize,
}

/// An ordered list of gates over a fixed number of qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    width: usize,
    gates: Vec<Gate>,
    sections: Vec<Section>,
    open_section: Option<(String, usize)>,
}

impl Circuit {
    /// An empty circuit over `width` qubits.
    pub fn new(width: usize) -> Self {
        Circuit {
            width,
            gates: Vec::new(),
            sections: Vec::new(),
            open_section: None,
        }
    }

    /// Circuit width (number of qubits).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of gates.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit has no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gates in order.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The recorded sections.
    #[inline]
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Appends a gate.
    ///
    /// # Errors
    /// Fails if the gate references an out-of-range or duplicated qubit.
    pub fn push(&mut self, gate: Gate) -> Result<(), SimError> {
        gate.validate(self.width)?;
        self.gates.push(gate);
        Ok(())
    }

    /// Appends a gate, panicking on invalid input. Intended for circuit
    /// builders whose indices come from a [`crate::register::QubitAllocator`]
    /// and are correct by construction.
    #[expect(
        clippy::expect_used,
        reason = "push_unchecked's documented panic contract"
    )]
    pub fn push_unchecked(&mut self, gate: Gate) {
        gate.validate(self.width)
            .expect("gate must reference valid qubits");
        self.gates.push(gate);
    }

    /// Opens a named section; subsequent gates belong to it until
    /// [`Circuit::end_section`] is called. Nested sections are not
    /// supported (the previous section is closed automatically).
    pub fn begin_section(&mut self, name: &str) {
        self.end_section();
        self.open_section = Some((name.to_string(), self.gates.len()));
    }

    /// Closes the currently open section, if any.
    pub fn end_section(&mut self) {
        if let Some((name, start)) = self.open_section.take() {
            self.sections.push(Section {
                name,
                range: start..self.gates.len(),
            });
        }
    }

    /// Appends every gate of `other` (sections of `other` are imported with
    /// shifted ranges).
    ///
    /// # Errors
    /// Fails if widths differ.
    pub fn extend(&mut self, other: &Circuit) -> Result<(), SimError> {
        if other.width != self.width {
            return Err(SimError::WidthMismatch {
                expected: self.width,
                actual: other.width,
            });
        }
        let offset = self.gates.len();
        self.gates.extend(other.gates.iter().cloned());
        for s in &other.sections {
            self.sections.push(Section {
                name: s.name.clone(),
                range: (s.range.start + offset)..(s.range.end + offset),
            });
        }
        Ok(())
    }

    /// The inverse circuit `U†`: every gate inverted, in reverse order.
    /// Used to uncompute oracle ancillas (the paper's `U_check†`).
    /// Sections are mirrored (with `†` appended to their names).
    pub fn inverse(&self) -> Circuit {
        let n = self.gates.len();
        let gates: Vec<Gate> = self.gates.iter().rev().map(Gate::inverse).collect();
        let mut sections: Vec<Section> = self
            .sections
            .iter()
            .map(|s| Section {
                name: format!("{}†", s.name),
                range: (n - s.range.end)..(n - s.range.start),
            })
            .collect();
        sections.reverse();
        Circuit {
            width: self.width,
            gates,
            sections,
            open_section: None,
        }
    }

    /// Gate statistics for the whole circuit.
    pub fn stats(&self) -> GateStats {
        self.stats_for(0..self.gates.len())
    }

    /// Gate statistics for a gate-index range (e.g. a section's range).
    pub fn stats_for(&self, range: Range<usize>) -> GateStats {
        let mut stats = GateStats::default();
        for g in &self.gates[range] {
            stats.gates += 1;
            stats.elementary_cost += g.elementary_cost();
            let kind = match g {
                Gate::X(_) => "X".to_string(),
                Gate::H(_) => "H".to_string(),
                Gate::Z(_) => "Z".to_string(),
                Gate::Phase(_, _) => "Phase".to_string(),
                Gate::Ry(_, _) => "Ry".to_string(),
                Gate::CPhase(_, _, _) => "CPhase".to_string(),
                Gate::Mcx { controls, .. } => format!("MCX({})", controls.len()),
                Gate::Mcz { controls, .. } => format!("MCZ({})", controls.len()),
            };
            *stats.by_kind.entry(kind).or_insert(0) += 1;
        }
        stats
    }

    /// Per-section statistics, in section order.
    pub fn section_stats(&self) -> Vec<(String, GateStats)> {
        self.sections
            .iter()
            .map(|s| (s.name.clone(), self.stats_for(s.range.clone())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Control;

    #[test]
    fn push_validates() {
        let mut c = Circuit::new(2);
        assert!(c.push(Gate::X(0)).is_ok());
        assert!(c.push(Gate::X(2)).is_err());
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    #[should_panic(expected = "valid qubits")]
    fn push_unchecked_panics_on_bad_gate() {
        let mut c = Circuit::new(1);
        c.push_unchecked(Gate::X(5));
    }

    #[test]
    fn sections_track_ranges() {
        let mut c = Circuit::new(3);
        c.begin_section("a");
        c.push_unchecked(Gate::X(0));
        c.push_unchecked(Gate::X(1));
        c.begin_section("b"); // implicitly closes "a"
        c.push_unchecked(Gate::H(2));
        c.end_section();
        assert_eq!(c.sections().len(), 2);
        assert_eq!(c.sections()[0].name, "a");
        assert_eq!(c.sections()[0].range, 0..2);
        assert_eq!(c.sections()[1].range, 2..3);
    }

    #[test]
    fn extend_shifts_sections() {
        let mut a = Circuit::new(2);
        a.push_unchecked(Gate::X(0));
        let mut b = Circuit::new(2);
        b.begin_section("s");
        b.push_unchecked(Gate::H(1));
        b.end_section();
        a.extend(&b).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a.sections()[0].range, 1..2);
        let c = Circuit::new(3);
        assert!(a.extend(&c).is_err());
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.push_unchecked(Gate::H(0));
        c.push_unchecked(Gate::Phase(1, 0.5));
        c.push_unchecked(Gate::cnot(0, 1));
        let inv = c.inverse();
        assert_eq!(inv.gates()[0], Gate::cnot(0, 1));
        assert_eq!(inv.gates()[1], Gate::Phase(1, -0.5));
        assert_eq!(inv.gates()[2], Gate::H(0));
    }

    #[test]
    fn inverse_mirrors_sections() {
        let mut c = Circuit::new(2);
        c.begin_section("first");
        c.push_unchecked(Gate::X(0));
        c.begin_section("second");
        c.push_unchecked(Gate::X(1));
        c.push_unchecked(Gate::H(0));
        c.end_section();
        let inv = c.inverse();
        // "second" (was gates 1..3) becomes gates 0..2 of the inverse.
        assert_eq!(inv.sections()[0].name, "second†");
        assert_eq!(inv.sections()[0].range, 0..2);
        assert_eq!(inv.sections()[1].name, "first†");
        assert_eq!(inv.sections()[1].range, 2..3);
    }

    #[test]
    fn stats_by_kind_and_cost() {
        let mut c = Circuit::new(5);
        c.push_unchecked(Gate::X(0));
        c.push_unchecked(Gate::H(1));
        c.push_unchecked(Gate::ccnot(0, 1, 2));
        c.push_unchecked(Gate::Mcx {
            controls: vec![
                Control::pos(0),
                Control::pos(1),
                Control::neg(2),
                Control::pos(3),
            ],
            target: 4,
        });
        let s = c.stats();
        assert_eq!(s.gates, 4);
        assert_eq!(s.by_kind["X"], 1);
        assert_eq!(s.by_kind["MCX(2)"], 1);
        assert_eq!(s.by_kind["MCX(4)"], 1);
        assert_eq!(s.elementary_cost, 1 + 1 + 1 + 5);
    }

    #[test]
    fn section_stats_of_sectionless_circuit_is_empty() {
        let mut c = Circuit::new(2);
        assert!(c.section_stats().is_empty());
        // Gates without any section stay invisible to section_stats while
        // still counting toward the whole-circuit stats.
        c.push_unchecked(Gate::X(0));
        c.push_unchecked(Gate::H(1));
        assert!(c.section_stats().is_empty());
        assert_eq!(c.stats().gates, 2);
    }

    #[test]
    fn section_stats_skips_unsectioned_gates() {
        let mut c = Circuit::new(3);
        c.push_unchecked(Gate::X(0)); // before any section
        c.begin_section("mid");
        c.push_unchecked(Gate::H(1));
        c.push_unchecked(Gate::H(2));
        c.end_section();
        c.push_unchecked(Gate::X(1)); // after the last section
        let stats = c.section_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].0, "mid");
        assert_eq!(stats[0].1.gates, 2);
        assert_eq!(stats[0].1.by_kind["H"], 2);
        assert!(!stats[0].1.by_kind.contains_key("X"));
    }

    #[test]
    fn section_stats_partitions_disjoint_sections() {
        let mut c = Circuit::new(3);
        c.begin_section("a");
        c.push_unchecked(Gate::X(0));
        c.begin_section("b"); // implicitly closes "a" — no overlap possible
        c.push_unchecked(Gate::H(1));
        c.push_unchecked(Gate::ccnot(0, 1, 2));
        c.end_section();
        let stats = c.section_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].0, "a");
        assert_eq!(stats[1].0, "b");
        // Disjoint ranges: per-section gates sum to the circuit total and
        // the elementary costs add up the same way.
        assert_eq!(stats[0].1.gates + stats[1].1.gates, c.stats().gates);
        assert_eq!(
            stats[0].1.elementary_cost + stats[1].1.elementary_cost,
            c.stats().elementary_cost
        );
        assert_eq!(stats[0].1.by_kind["X"], 1);
        assert_eq!(stats[1].1.by_kind["MCX(2)"], 1);
    }

    #[test]
    fn empty_section_reports_zero_stats() {
        let mut c = Circuit::new(1);
        c.begin_section("empty");
        c.end_section();
        let stats = c.section_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].1.gates, 0);
        assert_eq!(stats[0].1.elementary_cost, 0);
        assert!(stats[0].1.by_kind.is_empty());
    }
}
