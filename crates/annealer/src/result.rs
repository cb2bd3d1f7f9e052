//! The common result type of all annealing-style samplers.

use std::time::Duration;

/// Outcome of a multi-shot annealing run.
#[derive(Debug, Clone)]
pub struct AnnealOutcome {
    /// Best assignment found across all shots.
    pub best: Vec<bool>,
    /// Energy of the best assignment (on the *logical* model).
    pub best_energy: f64,
    /// Final energy of each shot, in execution order.
    pub shot_energies: Vec<f64>,
    /// Best-so-far energy after each shot (the cost-vs-runtime curve).
    pub trace: Vec<(Duration, f64)>,
    /// Total wall time.
    pub elapsed: Duration,
}
