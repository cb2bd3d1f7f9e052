//! Structural diagnostics: malformed gates, register aliasing, and
//! cancellation opportunities.
//!
//! These checks are purely syntactic — no evaluation, no state — and run
//! in one pass over the gate list:
//!
//! * **Gate well-formedness** reuses the workspace's single validation
//!   module ([`qmkp_qsim::validate`]), so the analyzer, `Circuit::push`,
//!   and the compiler agree exactly on what a malformed gate is.
//! * **Register aliasing** proves a layout's named registers are pairwise
//!   disjoint and inside the circuit width — overlapping registers are
//!   how a "scratch" write silently clobbers a counter.
//! * **Peephole estimation** mirrors the `qmkp-qsim` DAG scheduler's
//!   cancellation, merge and commute rules gate-for-gate, so its counts
//!   can be cross-checked against [`qmkp_qsim::CompileStats`] — a drift
//!   between the two means the analyzer and the compiler no longer model
//!   the same circuit semantics.

use crate::diagnostic::{Diagnostic, Span};
use qmkp_qsim::{validate_gate, Circuit, CompileError, Gate, Register};

/// Runs the syntactic checks over every gate.
///
/// A well-formed [`Circuit`] (built through `push`/`push_unchecked`)
/// cannot contain these defects — the pass re-guards anyway so a circuit
/// that bypassed construction-time validation (future deserialization,
/// FFI) is reported instead of trusted.
pub fn structural_diagnostics(circuit: &Circuit) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    for (i, gate) in circuit.gates().iter().enumerate() {
        match validate_gate(gate, circuit.width()) {
            Ok(()) => {}
            Err(CompileError::QubitOutOfRange { qubit, width }) => {
                diagnostics.push(Diagnostic::error(
                    "qubit-out-of-range",
                    Span {
                        gate: Some(i),
                        qubit: Some(qubit),
                        section: None,
                    },
                    format!(
                        "gate #{i} references qubit {qubit}, but the circuit has width {width}"
                    ),
                ));
            }
            Err(CompileError::DuplicateQubit(q)) => {
                diagnostics.push(Diagnostic::error(
                    "duplicate-qubit",
                    Span {
                        gate: Some(i),
                        qubit: Some(q),
                        section: None,
                    },
                    format!("gate #{i} uses qubit {q} more than once (control/target aliasing)"),
                ));
            }
            Err(other) => {
                diagnostics.push(Diagnostic::error(
                    "malformed-gate",
                    Span::at_gate(i),
                    format!("gate #{i}: {other}"),
                ));
            }
        }
    }
    diagnostics
}

/// Proves a set of named registers is pairwise disjoint and in range.
pub fn check_registers(registers: &[&Register], width: usize) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let mut owner: Vec<Option<usize>> = vec![None; width];
    for (r_idx, reg) in registers.iter().enumerate() {
        for q in reg.iter() {
            if q >= width {
                diagnostics.push(Diagnostic::error(
                    "register-out-of-range",
                    Span::at_qubit(q),
                    format!(
                        "register `{}` spans qubit {q}, but the circuit has width {width}",
                        reg.name
                    ),
                ));
                continue;
            }
            match owner[q] {
                None => owner[q] = Some(r_idx),
                Some(prev) => diagnostics.push(Diagnostic::error(
                    "register-aliasing",
                    Span::at_qubit(q),
                    format!(
                        "registers `{}` and `{}` both claim qubit {q}",
                        registers[prev].name, reg.name
                    ),
                )),
            }
        }
    }
    diagnostics
}

/// What the compiler's peepholes would remove, predicted statically.
/// Field-for-field comparable with the corresponding
/// [`qmkp_qsim::CompileStats`] fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeepholeEstimate {
    /// Gates an inverse-flip cancellation would remove (each
    /// cancellation removes two gates; cascades are followed).
    pub cancelled_flips: usize,
    /// Phase gates that would merge into a pending same-pattern step.
    pub merged_phases: usize,
    /// Single-qubit gates that would fuse into a pending 2×2 product on
    /// the same qubit.
    pub merged_singles: usize,
    /// Diagonal steps the scheduler would sink past an arriving
    /// permutation step by mask conjugation.
    pub commuted_diagonals: usize,
}

/// The `(care, want, flip)` mask triple an X/MCX lowers to — the same
/// folding the compiler performs, reproduced here so step equality (and
/// hence cancellation) is decided identically.
fn flip_masks(gate: &Gate) -> Option<(u128, u128, u128)> {
    match gate {
        Gate::X(q) => Some((0, 0, 1u128 << q)),
        Gate::Mcx { controls, target } => {
            let mut care = 0u128;
            let mut want = 0u128;
            for c in controls {
                care |= 1u128 << c.qubit;
                if c.positive {
                    want |= 1u128 << c.qubit;
                }
            }
            Some((care, want, 1u128 << target))
        }
        _ => None,
    }
}

/// The `(care, want)` pair a diagonal gate conditions on.
fn phase_masks(gate: &Gate) -> Option<(u128, u128)> {
    match gate {
        Gate::Z(q) | Gate::Phase(q, _) => Some((1u128 << q, 1u128 << q)),
        Gate::CPhase(p, q, _) => {
            let m = (1u128 << p) | (1u128 << q);
            Some((m, m))
        }
        Gate::Mcz { controls, target } => {
            let mut care = 1u128 << target;
            let mut want = 1u128 << target;
            for c in controls {
                care |= 1u128 << c.qubit;
                if c.positive {
                    want |= 1u128 << c.qubit;
                }
            }
            Some((care, want))
        }
        _ => None,
    }
}

/// `F·D·F` at the mask level: the `(care, want)` test pattern of a
/// diagonal step conjugated through a flip step `(fcare, fwant, flip)`,
/// or `None` when the pair does not rewrite to a single masked step.
/// Mirrors `qmkp_qsim::dag::conjugate_phase` exactly — phase *values*
/// never influence the scheduler's control flow, so masks alone decide
/// every branch the mirror has to replay.
fn conjugate_masks(d: (u128, u128), f: (u128, u128, u128)) -> Option<(u128, u128)> {
    let (care, want) = d;
    let (fcare, fwant, flip) = f;
    if flip & care == 0 {
        return Some((care, want));
    }
    if fcare & !care == 0 {
        if want & fcare == fwant {
            return Some((care, want ^ (flip & care)));
        }
        return Some((care, want));
    }
    None
}

/// Predicts the DAG scheduler's peephole effects (what
/// `CompiledCircuit::compile` removes) without compiling.
///
/// The scheduler fuses across section boundaries and sinks diagonals
/// past permutation ladders by conjugation. This mirror replays its
/// streaming state machine at the mask level: a pending permutation
/// ladder, a pending diagonal run, and pending single-qubit kernels
/// (tracked by qubit only), with the same flush/conjugate/cancel arrival
/// rules. [`crate::report::cross_check_compile`] compares it against the
/// compiler's reported stats.
pub fn scheduled_peephole_estimate(circuit: &Circuit) -> PeepholeEstimate {
    // The mask mirror shares the compiler's u128 basis encoding; wider
    // circuits never compile, so there is nothing to predict (and
    // `1u128 << q` would overflow).
    if circuit.width() > 128 {
        return PeepholeEstimate::default();
    }
    let mut est = PeepholeEstimate::default();
    // The scheduler's open-run state, masks only. Sections never flush
    // the scheduler (fusion across boundaries is its point), so the
    // section list plays no role here.
    let mut perm_run: Vec<(u128, u128, u128)> = Vec::new();
    let mut diag_run: Vec<(u128, u128)> = Vec::new();
    let mut singles: Vec<usize> = Vec::new();
    let singles_support = |singles: &[usize]| singles.iter().fold(0u128, |m, &q| m | (1u128 << q));

    for gate in circuit.gates() {
        if let Some(f) = flip_masks(gate) {
            let (fcare, _, flip) = f;
            let support = fcare | flip;
            if singles_support(&singles) & support != 0 {
                perm_run.clear();
                diag_run.clear();
                singles.clear();
                perm_run.push(f);
                continue;
            }
            let conjugated: Option<Vec<(u128, u128)>> =
                diag_run.iter().map(|&d| conjugate_masks(d, f)).collect();
            let Some(conjugated) = conjugated else {
                perm_run.clear();
                diag_run.clear();
                singles.clear();
                perm_run.push(f);
                continue;
            };
            est.commuted_diagonals += conjugated.len();
            diag_run = conjugated;
            // Long-range cancellation: walk the ladder backwards past
            // support-disjoint steps; an equal step annihilates.
            let mut cancelled = false;
            for j in (0..perm_run.len()).rev() {
                let (scare, swant, sflip) = perm_run[j];
                if (scare, swant, sflip) == f {
                    perm_run.remove(j);
                    est.cancelled_flips += 2;
                    cancelled = true;
                    break;
                }
                if (scare | sflip) & support != 0 {
                    break;
                }
            }
            if !cancelled {
                perm_run.push(f);
            }
        } else if let Some(p) = phase_masks(gate) {
            if singles_support(&singles) & p.0 != 0 {
                perm_run.clear();
                diag_run.clear();
                singles.clear();
                diag_run.push(p);
            } else if diag_run.contains(&p) {
                est.merged_phases += 1;
            } else {
                diag_run.push(p);
            }
        } else {
            // Single-qubit non-diagonal (H / Ry): fuses into a pending
            // kernel on the same qubit, wherever it sits.
            let q = gate.qubits()[0];
            if singles.contains(&q) {
                est.merged_singles += 1;
            } else {
                singles.push(q);
            }
        }
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp_qsim::{CompiledCircuit, QubitAllocator};

    fn compile_stats(c: &Circuit) -> qmkp_qsim::CompileStats {
        CompiledCircuit::compile(c).unwrap().stats()
    }

    #[test]
    fn well_formed_circuit_has_no_structural_findings() {
        let mut c = Circuit::new(3);
        c.push_unchecked(Gate::ccnot(0, 1, 2));
        c.push_unchecked(Gate::H(0));
        assert!(structural_diagnostics(&c).is_empty());
    }

    #[test]
    fn register_aliasing_is_detected() {
        let mut alloc = QubitAllocator::new();
        let a = alloc.alloc("a", 3);
        let b = alloc.alloc("b", 2);
        let overlapping = Register {
            name: "bad".into(),
            start: 2,
            len: 2,
        };
        let diags = check_registers(&[&a, &b, &overlapping], alloc.width());
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.code == "register-aliasing"));
        assert!(diags[0].message.contains('a'));

        let out_of_range = Register {
            name: "far".into(),
            start: 10,
            len: 1,
        };
        let diags = check_registers(&[&out_of_range], 5);
        assert_eq!(diags[0].code, "register-out-of-range");
    }

    #[test]
    fn disjoint_registers_pass() {
        let mut alloc = QubitAllocator::new();
        let a = alloc.alloc("a", 3);
        let b = alloc.alloc("b", 2);
        assert!(check_registers(&[&a, &b], alloc.width()).is_empty());
    }

    /// The estimate must track `CompileStats` exactly — build a circuit
    /// exercising cascaded cancellation, phase merging, single fusion and
    /// a section boundary (which the trailing `H(1)` fuses across), and
    /// compare.
    #[test]
    fn scheduled_estimate_matches_compile_stats() {
        let mut c = Circuit::new(4);
        c.push_unchecked(Gate::cnot(0, 1));
        c.push_unchecked(Gate::ccnot(0, 1, 2));
        c.push_unchecked(Gate::ccnot(0, 1, 2));
        c.push_unchecked(Gate::cnot(0, 1));
        c.begin_section("s");
        c.push_unchecked(Gate::X(3));
        c.push_unchecked(Gate::X(3));
        c.push_unchecked(Gate::Phase(0, 0.2));
        c.push_unchecked(Gate::Phase(0, 0.3));
        c.push_unchecked(Gate::H(1));
        c.push_unchecked(Gate::Ry(1, 0.5));
        c.end_section();
        c.push_unchecked(Gate::H(1)); // fuses across the boundary here

        let est = scheduled_peephole_estimate(&c);
        let stats = compile_stats(&c);
        assert_eq!(est.cancelled_flips, 6);
        assert_eq!(est.cancelled_flips, stats.cancelled_flips);
        assert_eq!(est.merged_phases, stats.merged_phases);
        assert_eq!(est.merged_singles, stats.merged_singles);
        assert_eq!(est.commuted_diagonals, stats.commuted_diagonals);
        assert_eq!(est.merged_singles, 2, "cross-boundary fusion predicted");
    }

    /// A diagonal sandwiched between equal flips: the scheduler sinks the
    /// phase through the second flip (one commuted diagonal) and cancels
    /// the pair across the section boundary — its signature rewrite.
    #[test]
    fn scheduled_estimate_predicts_sinking_and_cancellation() {
        let mut c = Circuit::new(3);
        c.push_unchecked(Gate::ccnot(0, 1, 2));
        c.push_unchecked(Gate::Z(0)); // commutes: flip misses qubit 0
        c.begin_section("s");
        c.push_unchecked(Gate::ccnot(0, 1, 2)); // cancels across boundary
        c.end_section();

        let est = scheduled_peephole_estimate(&c);
        let stats = compile_stats(&c);
        assert_eq!(est.cancelled_flips, stats.cancelled_flips);
        assert_eq!(est.commuted_diagonals, stats.commuted_diagonals);
        assert_eq!(est.cancelled_flips, 2);
        assert_eq!(est.commuted_diagonals, 1);
    }
}
