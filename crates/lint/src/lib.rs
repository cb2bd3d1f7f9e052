//! `qmkp-lint`: static verification of quantum circuits — no simulation
//! required.
//!
//! The oracles in this workspace are classical reversible circuits
//! (X / CNOT / Toffoli / CᵏNOT) wrapped around a single phase kick. That
//! makes three strong static checks possible that a state-vector
//! simulator cannot give cheaply:
//!
//! * **Ancilla cleanliness** ([`ancilla`]): a symbolic XOR-affine
//!   abstract interpretation ([`symbolic`]) proves — exactly, for every
//!   input, at any circuit width — that every ancilla returns to |0⟩,
//!   pointing at the gate that last flipped the offending qubit when one
//!   does not. Residuals the symbolic domain cannot decide within its
//!   case-split budget fall back to exhaustive concrete enumeration over
//!   chunked bitsets when the free register is small; a wider one is an
//!   `unproven` error, never a partial check. A dirty ancilla
//!   entangles with the search register and silently destroys Grover
//!   amplitude amplification, which is why this is the crate's headline
//!   pass.
//! * **Resource audits** ([`resource`]): per-section gate counts and the
//!   total width checked against the paper's closed-form formulas
//!   (Eq. 6/7, §IV), so circuit builders and their cost model cannot
//!   drift apart unnoticed.
//! * **Structural diagnostics** ([`structural`]): malformed gates,
//!   register aliasing, and the exact cancellation/fusion opportunities
//!   the compiler's DAG scheduler will exploit — cross-checkable against
//!   [`qmkp_qsim::compile::CompileStats`] via
//!   [`report::cross_check_compile`].
//!
//! All passes speak [`diagnostic::Diagnostic`] and fold into a single
//! machine-readable [`report::AnalysisReport`] via [`report::analyze`].
//!
//! The crate sits *below* `qmkp-arith` and `qmkp-core` in the dependency
//! DAG (it depends only on `qmkp-qsim` and `qmkp-obs`), so the
//! arithmetic crate can prove its builders clean in dev-tests and the
//! core crate can self-verify oracles at construction time without a
//! cycle.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]

pub mod ancilla;
pub mod diagnostic;
pub mod report;
pub mod resource;
pub mod structural;
pub mod symbolic;

pub use ancilla::{is_clean, verify_ancillas, AncillaReport, AncillaSpec, ProofMethod};
pub use diagnostic::{has_errors, render, Diagnostic, Severity, Span};
pub use report::{analyze, cross_check_compile, AnalysisReport};
pub use resource::{audit, circuit_depth, qtkp_oracle_model, ResourceModel, SectionBudget};
pub use structural::{
    check_registers, scheduled_peephole_estimate, structural_diagnostics, PeepholeEstimate,
};
pub use symbolic::{analyze_symbolic, SymbolicAnalysis, SymbolicOutcome, Witness};
