//! # qmkp — Quantum Algorithms for the Maximum k-Plex Problem
//!
//! Facade crate re-exporting the full workspace, a Rust reproduction of
//! *"Gate-Based and Annealing-Based Quantum Algorithms for the Maximum
//! K-Plex Problem"* (ICDE 2024). See the individual crates for details:
//!
//! * [`graph`] — graphs, generators, k-plex predicates, reductions.
//! * [`qsim`] — gate-based quantum circuit simulator (dense + sparse).
//! * [`arith`] — reversible arithmetic circuits (adders, comparators, popcount).
//! * [`core`] — the paper's contribution: qTKP / qMKP Grover algorithms.
//! * [`qubo`] — QUBO formulation of MKP for annealing (qaMKP).
//! * [`annealer`] — simulated (quantum) annealing, minor embedding, hybrid solver.
//! * [`milp`] — 0/1 MILP solver (simplex + branch & bound) baseline.
//! * [`classical`] — classical exact baselines (naive, BnB, BS).
//! * [`obs`] — structured tracing, metrics, and run reports
//!   (`QMKP_OBS=1` for a summary, `QMKP_OBS_JSON=path` for a JSONL trace).
//! * [`rt`] — the execution runtime: budgets, cooperative cancellation,
//!   retries, checkpoint/resume, deterministic fault injection
//!   (`QMKP_RT_DEADLINE_MS` / `QMKP_RT_MAX_BYTES` / `QMKP_RT_MAX_OPS`).
//! * [`mod@solve`] — one budgeted solve plan, raced or walked: the
//!   sparse-statevector quantum rung (when it fits) and the classical
//!   body race under one cancel token (first verified k-plex wins), or
//!   walk the degradation ladder sparse → classical (`degraded = true`
//!   when the quantum pipeline does not fit the budget).
//!
//! ## Quickstart
//!
//! ```
//! use qmkp::graph::Graph;
//! use qmkp::classical::naive::max_kplex_naive;
//!
//! // The 6-vertex example graph from Figure 1 of the paper.
//! let g = qmkp::graph::gen::paper_fig1_graph();
//! let best = max_kplex_naive(&g, 2);
//! assert!(qmkp::graph::is_kplex(&g, best, 2));
//! ```

#![deny(unsafe_code)]
#![warn(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]
pub mod solve;

pub use qmkp_annealer as annealer;
pub use qmkp_arith as arith;
pub use qmkp_classical as classical;
pub use qmkp_core as core;
pub use qmkp_graph as graph;
pub use qmkp_milp as milp;
pub use qmkp_obs as obs;
pub use qmkp_qsim as qsim;
pub use qmkp_qubo as qubo;
pub use qmkp_rt as rt;

pub use solve::{
    preflight_lane, solve, solve_with, sparse_cost, PreflightLane, RaceSummary, SolveBackend,
    SolveConfig, SolveOutcome,
};
