//! # qmkp-core — gate-based quantum algorithms for the Maximum k-Plex Problem
//!
//! The paper's primary contribution: the qTKP and qMKP algorithms of
//! Section III (gate-based model).
//!
//! * [`layout`] — qubit layout of the oracle: vertex register, complement
//!   edge ancillas, per-vertex degree counters, comparison flags, size
//!   register and the oracle qubit `|O⟩` (the paper's Figures 6, 9, 11).
//! * [`oracle`] — the `U_check` circuit builder: graph encoding
//!   (Challenge I), degree counting (Challenge II / oracle part 1), degree
//!   comparison (Challenge III / part 2) and size determination
//!   (Challenge IV / part 3), each tagged as a circuit section for the
//!   Table-IV instrumentation.
//! * [`grover`] — superposition preparation, the phase-kickback oracle
//!   application with `U_check†` uncomputation, the diffusion operator,
//!   and the Grover iteration driver (Figure 12).
//! * [`counting`] — solution counting: exact classical census, plus a
//!   simulated Brassard-et-al. quantum-counting (phase estimation) module
//!   for estimating `M`.
//! * [`mod@qtkp`] — Algorithm 2: find a k-plex of size ≥ T (or report `∅`).
//! * [`mod@qmkp`] — Algorithm 3: binary search over `T` to find a maximum
//!   k-plex, with the paper's progressive first-feasible-solution
//!   behaviour.

#![deny(unsafe_code)]
#![warn(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]
pub mod club;
pub mod compiled;
pub mod counting;
pub mod grover;
pub mod layout;
pub mod oracle;
pub mod qmkp;
pub mod qtkp;

pub use club::{max_two_club, TwoClubOracle};
pub use compiled::{CompileFresh, CompiledOracle, GroverCircuits, OracleProvider};
pub use counting::{
    exact_solution_count, inverse_qft, qft, quantum_count, quantum_count_ctx, solutions,
};
pub use grover::{diffusion_circuit, optimal_iterations, GroverDriver, PhaseOracle, Readout};
pub use layout::OracleLayout;
pub use oracle::{Oracle, OracleSectionCost};
pub use qmkp::{
    qmkp, qmkp_ctx, qmkp_ctx_with, QmkpCall, QmkpCheckpoint, QmkpConfig, QmkpOutcome, QmkpProbe,
};
pub use qtkp::{
    qtkp, qtkp_ctx, qtkp_ctx_with, qtkp_probe_ctx_with, MEstimate, ProbeInterrupt, QtkpConfig,
    QtkpOutcome, SectionTimes,
};
