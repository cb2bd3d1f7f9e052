//! # qmkp-qsim — a gate-based quantum circuit simulator
//!
//! Hand-rolled substrate standing in for the IBM Qiskit MPS simulator the
//! paper ran qTKP/qMKP on. Two exact backends are provided:
//!
//! * [`state::DenseState`] — a full statevector (`2^q` amplitudes), usable
//!   up to ~26 qubits; the ground truth for cross-checking.
//! * [`state::SparseState`] — a sorted vector of the nonzero
//!   `(basis, amplitude)` pairs, keyed by `u128` at every width.
//!   The qTKP oracle is almost entirely classical-reversible
//!   (X / CNOT / Toffoli / multi-controlled X), so a state that starts as a
//!   superposition over the `n` vertex qubits never exceeds `2^n` nonzero
//!   amplitudes *regardless of how many ancilla qubits the oracle uses* —
//!   exactly the low-entanglement structure the paper's MPS backend
//!   exploits. This backend simulates the full 50-200 qubit oracle exactly.
//!
//! The circuit IR ([`circuit::Circuit`]) supports mixed-polarity
//! multi-controlled gates (the paper's filled/hollow control dots), named
//! qubit registers, circuit inversion (`U†`, used to uncompute oracle
//! ancillas), section tagging (used to attribute simulation cost to the
//! oracle's three components for Table IV), and gate statistics.

#![deny(unsafe_code)]
#![warn(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
pub mod bits;
pub mod circuit;
pub mod compile;
pub mod complex;
pub mod dag;
pub mod decompose;
pub mod error;
pub mod gate;
pub mod register;
pub mod state;
pub mod validate;

pub use bits::BitVec;
pub use circuit::{Circuit, GateStats, Section};
pub use compile::{
    CompileError, CompileStats, CompiledCircuit, CompiledOp, FlipStep, MaskedFlip, MaskedPhase,
    PhaseStep, SingleQubit,
};
pub use complex::Complex;
pub use dag::UNSECTIONED;
pub use decompose::{lower_to_toffoli, Lowered};
pub use error::SimError;
pub use gate::{Control, Gate};
pub use register::{QubitAllocator, Register};
pub use state::{
    BackendState, DenseState, OpObserver, QuantumState, Sampler, SparseState, MAX_DENSE_QUBITS,
};
pub use validate::{validate_circuit, validate_gate};

/// Whether the simulator's kernels run multi-threaded: always `false`,
/// every pass is serial. Kept for provenance lines that print it.
pub fn parallel_enabled() -> bool {
    false
}
