//! Error type for circuit construction and simulation.

use crate::compile::CompileError;
use std::fmt;

/// Errors produced while building circuits or simulating them.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A gate referenced a qubit at or above the circuit width.
    QubitOutOfRange {
        /// The offending qubit index.
        qubit: usize,
        /// The circuit width.
        width: usize,
    },
    /// A gate used the same qubit as both a control and the target, or as
    /// two controls.
    DuplicateQubit(usize),
    /// A dense statevector was requested for more qubits than fit in memory.
    TooManyQubitsForDense {
        /// Requested width.
        requested: usize,
        /// Maximum width supported by the dense backend.
        max: usize,
    },
    /// Circuit widths disagreed when composing circuits or applying a
    /// circuit to a state.
    WidthMismatch {
        /// Width expected by the receiver.
        expected: usize,
        /// Width of the argument.
        actual: usize,
    },
    /// Circuit compilation failed (see [`CompileError`]).
    Compile(CompileError),
    /// The run was interrupted by the execution runtime: budget exhausted,
    /// cancellation requested, or an injected fault fired (see
    /// [`qmkp_rt::RtError`]).
    Interrupted(qmkp_rt::RtError),
}

impl From<CompileError> for SimError {
    fn from(e: CompileError) -> Self {
        SimError::Compile(e)
    }
}

impl From<qmkp_rt::RtError> for SimError {
    fn from(e: qmkp_rt::RtError) -> Self {
        SimError::Interrupted(e)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::QubitOutOfRange { qubit, width } => {
                write!(f, "qubit {qubit} out of range for circuit of width {width}")
            }
            SimError::DuplicateQubit(q) => {
                write!(f, "qubit {q} used more than once in a single gate")
            }
            SimError::TooManyQubitsForDense { requested, max } => {
                write!(
                    f,
                    "dense backend supports at most {max} qubits, got {requested}"
                )
            }
            SimError::WidthMismatch { expected, actual } => {
                write!(
                    f,
                    "circuit width mismatch: expected {expected}, got {actual}"
                )
            }
            SimError::Compile(e) => write!(f, "compile error: {e}"),
            SimError::Interrupted(e) => write!(f, "run interrupted: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(SimError::QubitOutOfRange { qubit: 7, width: 4 }
            .to_string()
            .contains("qubit 7"));
        assert!(SimError::DuplicateQubit(2)
            .to_string()
            .contains("more than once"));
        assert!(SimError::TooManyQubitsForDense {
            requested: 40,
            max: 26
        }
        .to_string()
        .contains("40"));
        assert!(SimError::WidthMismatch {
            expected: 3,
            actual: 5
        }
        .to_string()
        .contains("expected 3"));
        assert!(
            SimError::from(crate::compile::CompileError::DuplicateQubit(1))
                .to_string()
                .contains("compile error")
        );
        assert!(SimError::from(qmkp_rt::RtError::Cancelled)
            .to_string()
            .contains("interrupted"));
    }
}
