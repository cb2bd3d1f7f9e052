//! # qmkp-annealer — the annealing substrate for qaMKP
//!
//! Stands in for the D-Wave Advantage QPU and Hybrid solver the paper runs
//! qaMKP on (Section V, Tables V-VII, Figures 9-11):
//!
//! * [`result`] — the common sample-set / trajectory type all samplers
//!   return.
//! * [`sa`] — classical simulated annealing over a QUBO (the paper's "SA"
//!   baseline: sweeps × shots, geometric temperature schedule).
//! * [`sqa`] — **simulated quantum annealing**: path-integral Monte Carlo
//!   with Trotter replicas and a decreasing transverse field. This is the
//!   standard classical stand-in for a quantum annealer; the per-shot
//!   annealing time `Δt` maps to PIMC sweeps and the shot count `s` to
//!   restarts, reproducing the paper's `t = Δt · s` runtime accounting.
//! * [`topology`] — a Chimera hardware graph (the D-Wave qubit-connectivity
//!   family; the Advantage's Pegasus is denser, which only shifts chain
//!   lengths by a constant — DESIGN.md records the substitution).
//! * [`embedding`] — a Cai-Macready-Roy-style heuristic minor embedder,
//!   chain construction/validation, ferromagnetic chain couplings,
//!   majority-vote unembedding and chain statistics (Figure 11).
//! * [`hybrid`] — a classical portfolio solver with a minimum-runtime
//!   contract, standing in for the D-Wave Hybrid BQM solver ("haMKP").
//! * [`pacing`] — deadline-aware schedule sizing: when a runtime context
//!   carries a wall-clock deadline, [`sqa_qubo_ctx`] probes one sweep and
//!   shrinks its schedule to fit instead of interrupting mid-run.

#![deny(unsafe_code)]
#![warn(clippy::dbg_macro, clippy::todo, clippy::print_stdout)]
pub mod embedding;
pub mod hybrid;
pub mod pacing;
pub mod result;
pub mod sa;
pub mod sqa;
pub mod tempering;
pub mod topology;

pub use embedding::{
    clique_embedding, constructive_embedding, embed_ising, find_embedding,
    find_embedding_with_tries, refine_embedding, unembed, ChainStats, Embedding,
};
pub use hybrid::{hybrid_solve, HybridConfig};
pub use result::AnnealOutcome;
pub use sa::{anneal_qubo, SaConfig};
pub use sqa::{sqa_qubo, sqa_qubo_ctx, SqaConfig};
pub use tempering::{temper_qubo, TemperingConfig};
pub use topology::Chimera;
