//! QUBO ↔ Ising conversion.
//!
//! D-Wave hardware natively minimizes an Ising Hamiltonian
//! `H(s) = offset + Σ h_i s_i + Σ_{i<j} J_ij s_i s_j` over spins
//! `s ∈ {−1,+1}^n`. Chain couplings in minor embeddings are ferromagnetic
//! Ising terms (`J = −K`), so the embedding pipeline converts the logical
//! QUBO to Ising, adds chains, samples, and converts back. The standard
//! substitution is `x_i = (1 + s_i)/2`.

use crate::model::QuboModel;
use std::collections::BTreeMap;

/// A sparse Ising model: minimize
/// `offset + Σ h_i s_i + Σ_{i<j} J_ij s_i s_j`, `s_i ∈ {−1, +1}`.
#[derive(Debug, Clone, PartialEq)]
pub struct IsingModel {
    /// Constant offset.
    pub offset: f64,
    /// Local fields `h_i`.
    pub h: Vec<f64>,
    /// Couplings `J_ij`, keyed `(i, j)` with `i < j`.
    pub j: BTreeMap<(usize, usize), f64>,
}

impl IsingModel {
    /// A zero Hamiltonian over `n` spins.
    pub fn new(n: usize) -> Self {
        IsingModel {
            offset: 0.0,
            h: vec![0.0; n],
            j: BTreeMap::new(),
        }
    }

    /// Number of spins.
    pub fn num_spins(&self) -> usize {
        self.h.len()
    }

    /// Adds to a coupling (symmetric; diagonal contributes `+c` to the
    /// offset since `s² = 1`).
    pub fn add_coupling(&mut self, i: usize, j: usize, c: f64) {
        if i == j {
            self.offset += c;
        } else {
            let key = (i.min(j), i.max(j));
            let e = self.j.entry(key).or_insert(0.0);
            *e += c;
            if *e == 0.0 {
                self.j.remove(&key);
            }
        }
    }

    /// Energy of a spin configuration given as a bit mask
    /// (bit `i` set ⇔ `s_i = +1`).
    pub fn energy_bits(&self, bits: u128) -> f64 {
        let spin = |i: usize| if (bits >> i) & 1 == 1 { 1.0 } else { -1.0 };
        let mut e = self.offset;
        for (i, &hi) in self.h.iter().enumerate() {
            e += hi * spin(i);
        }
        for (&(i, j), &jij) in &self.j {
            e += jij * spin(i) * spin(j);
        }
        e
    }

    /// Energy of a spin vector (`s_i ∈ {−1, +1}` as `i8`).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn energy(&self, s: &[i8]) -> f64 {
        assert_eq!(s.len(), self.num_spins());
        let mut e = self.offset;
        for (i, &hi) in self.h.iter().enumerate() {
            e += hi * s[i] as f64;
        }
        for (&(i, j), &jij) in &self.j {
            e += jij * (s[i] as f64) * (s[j] as f64);
        }
        e
    }

    /// Converts a QUBO to the equivalent Ising model via `x = (1 + s)/2`.
    pub fn from_qubo(q: &QuboModel) -> Self {
        let n = q.num_vars();
        let mut ising = IsingModel::new(n);
        ising.offset = q.offset();
        for i in 0..n {
            let c = q.linear(i);
            // c·x = c/2 + (c/2)·s
            ising.offset += c / 2.0;
            ising.h[i] += c / 2.0;
        }
        for ((i, j), qij) in q.interactions() {
            // q·x_i·x_j = q/4·(1 + s_i + s_j + s_i s_j)
            ising.offset += qij / 4.0;
            ising.h[i] += qij / 4.0;
            ising.h[j] += qij / 4.0;
            ising.add_coupling(i, j, qij / 4.0);
        }
        ising
    }

    /// Per-spin neighbour lists for incremental samplers.
    pub fn neighbor_lists(&self) -> Vec<Vec<(usize, f64)>> {
        let mut adj = vec![Vec::new(); self.num_spins()];
        for (&(i, j), &c) in &self.j {
            adj[i].push((j, c));
            adj[j].push((i, c));
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubo_and_ising_agree_on_all_assignments() {
        let mut q = QuboModel::new(3);
        q.add_offset(0.5);
        q.add_linear(0, -1.0);
        q.add_linear(2, 2.5);
        q.add_quadratic(0, 1, 3.0);
        q.add_quadratic(1, 2, -1.5);
        let ising = IsingModel::from_qubo(&q);
        for bits in 0..8u128 {
            let qe = q.energy_bits(bits);
            let ie = ising.energy_bits(bits); // x_i = 1 ⇔ s_i = +1
            assert!((qe - ie).abs() < 1e-12, "bits={bits:b}: {qe} vs {ie}");
        }
    }

    #[test]
    fn coupling_accumulates_and_cancels() {
        let mut m = IsingModel::new(2);
        m.add_coupling(0, 1, 2.0);
        m.add_coupling(1, 0, -2.0);
        assert!(m.j.is_empty());
        m.add_coupling(1, 1, 5.0);
        assert_eq!(m.offset, 5.0);
    }

    #[test]
    fn energy_vector_and_bits_agree() {
        let mut m = IsingModel::new(2);
        m.h[0] = 1.0;
        m.add_coupling(0, 1, -1.0);
        assert_eq!(m.energy(&[1, -1]), m.energy_bits(0b01));
        assert_eq!(m.energy(&[-1, 1]), m.energy_bits(0b10));
    }

    #[test]
    fn ferromagnetic_chain_prefers_aligned_spins() {
        // Two spins with J = −1: aligned configurations have lower energy.
        let mut m = IsingModel::new(2);
        m.add_coupling(0, 1, -1.0);
        assert!(m.energy_bits(0b11) < m.energy_bits(0b01));
        assert!(m.energy_bits(0b00) < m.energy_bits(0b10));
    }
}
