//! The paper's QUBO formulation of MKP (Section IV, Equation 12):
//!
//! ```text
//! F = −Σ_i x_i + R · Σ_i ( Σ_{j∈N̄(i)} x_j + s_i − (k−1) − M_i(1−x_i) )²
//! ```
//!
//! * `x_i` — vertex `i` is in the solution (on the complement graph `Ḡ`,
//!   the solution is a k-cplex ⇔ a k-plex of `G`).
//! * `s_i = Σ_r 2^r s_{i,r}` — the per-vertex slack turning the degree
//!   inequality into an equality (Equation 9).
//! * `M_i = d_Ḡ(v_i) − k + 1` (clamped at 0) — the per-vertex big-M
//!   deactivating the constraint when `x_i = 0` (Section IV-B1).
//! * `L_i = ⌈log₂(max{d_Ḡ(v_i), k−1} + 1)⌉` slack bits (Section IV-B2,
//!   with the one-extra-bit correction noted in the crate docs).
//! * `R > 1` — the penalty weight (Section IV-B3; `R = 2` is the paper's
//!   experimentally best value).
//!
//! Total binary variables: `n + Σ_i L_i = O(n log n)`, independent of the
//! number of edges — the qubit-efficiency argument of the paper.

use crate::model::QuboModel;
use qmkp_graph::plex::greedy_repair;
use qmkp_graph::{Graph, VertexSet};

/// Parameters of the MKP → QUBO construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MkpQuboParams {
    /// The k of k-plex (≥ 1).
    pub k: usize,
    /// The penalty weight `R` (must be > 1 for correctness).
    pub r: f64,
}

impl Default for MkpQuboParams {
    fn default() -> Self {
        MkpQuboParams { k: 2, r: 2.0 }
    }
}

/// The MKP QUBO: the model plus everything needed to decode samples.
#[derive(Debug, Clone)]
pub struct MkpQubo {
    /// The QUBO objective (Equation 12).
    pub model: QuboModel,
    /// The original graph.
    graph: Graph,
    /// Vertex count.
    n: usize,
    /// Construction parameters.
    params: MkpQuboParams,
    /// Per-vertex slack block: `(first variable index, bit count)`.
    slack: Vec<(usize, usize)>,
    /// Per-vertex big-M values.
    big_m: Vec<usize>,
}

impl MkpQubo {
    /// Builds Equation 12 for graph `g`.
    ///
    /// # Panics
    /// Panics if `k == 0`, `R ≤ 1`, or the graph is empty.
    pub fn new(g: &Graph, params: MkpQuboParams) -> Self {
        assert!(params.k >= 1, "k must be ≥ 1");
        assert!(params.r > 1.0, "R must exceed 1 (Section IV-B3)");
        assert!(g.n() > 0, "graph must be non-empty");
        let n = g.n();
        let k = params.k;
        let gc = g.complement();

        // Slack widths and variable layout.
        let mut slack = Vec::with_capacity(n);
        let mut big_m = Vec::with_capacity(n);
        let mut next_var = n;
        for i in 0..n {
            let deg = gc.degree(i);
            let m_i = deg.saturating_sub(k - 1);
            let smax = deg.max(k - 1);
            let bits = if smax == 0 {
                0
            } else {
                usize::BITS as usize - smax.leading_zeros() as usize
            };
            slack.push((next_var, bits));
            big_m.push(m_i);
            next_var += bits;
        }

        let mut model = QuboModel::new(next_var);
        // Objective part: −Σ x_i.
        for i in 0..n {
            model.add_linear(i, -1.0);
        }

        // Penalty part: R · Σ_i e_i² with
        // e_i = Σ_{j∈N̄(i)} x_j + Σ_r 2^r s_{i,r} + M_i·x_i − (k−1) − M_i.
        let r = params.r;
        for i in 0..n {
            let mut terms: Vec<(usize, f64)> = gc.neighbors(i).iter().map(|j| (j, 1.0)).collect();
            let (s0, bits) = slack[i];
            for b in 0..bits {
                terms.push((s0 + b, (1u64 << b) as f64));
            }
            if big_m[i] > 0 {
                terms.push((i, big_m[i] as f64));
            }
            let c = -((k - 1) as f64) - big_m[i] as f64;

            // (Σ a_t z_t + c)² = Σ a_t² z_t + 2 Σ_{t<u} a_t a_u z_t z_u
            //                  + 2c Σ a_t z_t + c²
            model.add_offset(r * c * c);
            for (t, &(vt, at)) in terms.iter().enumerate() {
                model.add_linear(vt, r * (at * at + 2.0 * c * at));
                for &(vu, au) in &terms[t + 1..] {
                    model.add_quadratic(vt, vu, r * 2.0 * at * au);
                }
            }
        }

        MkpQubo {
            model,
            graph: g.clone(),
            n,
            params,
            slack,
            big_m,
        }
    }

    /// Vertex count of the underlying graph.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The construction parameters.
    pub fn params(&self) -> MkpQuboParams {
        self.params
    }

    /// The original graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Total binary variables (`n + Σ L_i`, the paper's qubit-efficiency
    /// metric).
    pub fn num_vars(&self) -> usize {
        self.model.num_vars()
    }

    /// Total slack bits `Σ L_i`.
    pub fn num_slack_vars(&self) -> usize {
        self.num_vars() - self.n
    }

    /// The big-M of vertex `i`.
    pub fn big_m(&self, i: usize) -> usize {
        self.big_m[i]
    }

    /// Extracts the vertex set from an assignment bit mask.
    pub fn decode(&self, bits: u128) -> VertexSet {
        VertexSet::from_bits(bits & ((1u128 << self.n) - 1))
    }

    /// Extracts the vertex set and greedily repairs it into a k-plex
    /// (dropping lowest-degree vertices) — the post-processing the
    /// annealing pipelines apply to near-feasible samples.
    pub fn decode_repaired(&self, bits: u128) -> VertexSet {
        greedy_repair(&self.graph, self.decode(bits), self.params.k)
    }

    /// [`MkpQubo::decode_repaired`] followed by greedy extension: the
    /// standard sample post-processing of annealing pipelines (repair to
    /// feasibility, then add every vertex that keeps the set a k-plex).
    pub fn decode_polished(&self, bits: u128) -> VertexSet {
        qmkp_graph::plex::greedy_extend(&self.graph, self.decode_repaired(bits), self.params.k)
    }

    /// Encodes a *feasible* k-plex with its optimal (penalty-zeroing)
    /// slack values. The energy of the result is exactly `−|p|`.
    ///
    /// # Panics
    /// Panics if `p` is not a k-plex of the graph.
    pub fn encode_feasible(&self, p: VertexSet) -> u128 {
        assert!(
            qmkp_graph::is_kplex(&self.graph, p, self.params.k),
            "set is not a {}-plex",
            self.params.k
        );
        let gc = self.graph.complement();
        let k = self.params.k;
        let mut bits = p.bits();
        for i in 0..self.n {
            let local = gc.degree_in(i, p);
            let xi = p.contains(i);
            let target = (k - 1) as i64 + if xi { 0 } else { self.big_m[i] as i64 } - local as i64;
            debug_assert!(target >= 0, "feasible sets admit non-negative slack");
            let (s0, width) = self.slack[i];
            let target = target as u64;
            debug_assert!(width >= 64 - target.leading_zeros() as usize || target == 0);
            for b in 0..width {
                if (target >> b) & 1 == 1 {
                    bits |= 1u128 << (s0 + b);
                }
            }
        }
        bits
    }

    /// The penalty part of the energy (everything above `−Σ x_i`).
    pub fn penalty(&self, bits: u128) -> f64 {
        self.model.energy_bits(bits) + self.decode(bits).len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp_graph::gen::{gnm, paper_fig1_graph};
    use qmkp_graph::is_kplex;

    fn brute_max_plex(g: &Graph, k: usize) -> usize {
        (0..(1u128 << g.n()))
            .map(VertexSet::from_bits)
            .filter(|&s| is_kplex(g, s, k))
            .map(|s| s.len())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn variable_count_is_n_log_n() {
        let g = paper_fig1_graph();
        let q = MkpQubo::new(&g, MkpQuboParams { k: 2, r: 2.0 });
        assert_eq!(q.n(), 6);
        // Complement degrees: v1:1 v2:3 v3:4 v4:2 v5:2 v6:4; smax = max(d̄, 1)
        // → bit widths 1,2,3,2,2,3 = 13 slack bits.
        assert_eq!(q.num_slack_vars(), 13);
        assert_eq!(q.num_vars(), 19);
    }

    #[test]
    fn feasible_energy_is_minus_size() {
        let g = paper_fig1_graph();
        let q = MkpQubo::new(&g, MkpQuboParams { k: 2, r: 2.0 });
        for bits in 0..(1u128 << 6) {
            let s = VertexSet::from_bits(bits);
            if is_kplex(&g, s, 2) {
                let enc = q.encode_feasible(s);
                let e = q.model.energy_bits(enc);
                assert!(
                    (e + s.len() as f64).abs() < 1e-9,
                    "energy of feasible {s:?} is {e}, expected {}",
                    -(s.len() as f64)
                );
            }
        }
    }

    #[test]
    fn zero_penalty_implies_feasible() {
        let g = paper_fig1_graph();
        let q = MkpQubo::new(&g, MkpQuboParams { k: 2, r: 2.0 });
        // Random-ish sweep over assignments (full space is 2^19).
        for step in 0..4096u128 {
            let bits = step * 0x9e37 % (1u128 << q.num_vars());
            if q.penalty(bits).abs() < 1e-9 {
                assert!(is_kplex(&g, q.decode(bits), 2));
            }
        }
    }

    #[test]
    fn global_minimum_decodes_to_maximum_kplex() {
        // Small graphs so the full QUBO space is enumerable.
        for (n, m, seed) in [(4usize, 3usize, 0u64), (4, 5, 1), (5, 6, 2)] {
            let g = gnm(n, m, seed).unwrap();
            for k in 1..=2 {
                let q = MkpQubo::new(&g, MkpQuboParams { k, r: 2.0 });
                assert!(q.num_vars() <= 24, "model too large for brute force");
                let (bits, e) = q.model.brute_force_min();
                let p = q.decode(bits);
                assert!(is_kplex(&g, p, k), "argmin not a k-plex: {p:?}");
                let opt = brute_max_plex(&g, k);
                assert_eq!(p.len(), opt, "n={n} m={m} k={k}");
                assert!((e + opt as f64).abs() < 1e-9, "min energy {e} vs −{opt}");
            }
        }
    }

    #[test]
    fn r_slightly_above_one_is_still_correct() {
        let g = gnm(4, 4, 3).unwrap();
        let q = MkpQubo::new(&g, MkpQuboParams { k: 2, r: 1.1 });
        let (bits, _) = q.model.brute_force_min();
        let p = q.decode(bits);
        assert!(is_kplex(&g, p, 2));
        assert_eq!(p.len(), brute_max_plex(&g, 2));
    }

    #[test]
    #[should_panic(expected = "R must exceed 1")]
    fn r_at_most_one_rejected() {
        let g = paper_fig1_graph();
        let _ = MkpQubo::new(&g, MkpQuboParams { k: 2, r: 1.0 });
    }

    #[test]
    fn penalty_positive_for_infeasible_vertex_sets() {
        let g = paper_fig1_graph();
        let q = MkpQubo::new(&g, MkpQuboParams { k: 2, r: 2.0 });
        // The full vertex set is not a 2-plex; no slack assignment can
        // zero the penalty.
        let all = VertexSet::full(6);
        assert!(!is_kplex(&g, all, 2));
        let slack_vars = q.num_slack_vars();
        let mut min_penalty = f64::INFINITY;
        for slack_bits in 0..(1u128 << slack_vars) {
            let bits = all.bits() | (slack_bits << 6);
            min_penalty = min_penalty.min(q.penalty(bits));
        }
        assert!(min_penalty > 0.5, "min penalty {min_penalty}");
    }

    #[test]
    fn decode_repaired_always_feasible() {
        let g = paper_fig1_graph();
        let q = MkpQubo::new(&g, MkpQuboParams { k: 2, r: 2.0 });
        for bits in (0..(1u128 << 6)).map(|b| b | (0b1010 << 6)) {
            let p = q.decode_repaired(bits);
            assert!(is_kplex(&g, p, 2));
        }
    }

    #[test]
    fn big_m_clamps_at_zero() {
        // Complete graph: complement has degree 0 everywhere; with k = 3,
        // M_i = max(0, 0 − 2) = 0 and slack width covers k−1 = 2.
        let g = Graph::complete(4).unwrap();
        let q = MkpQubo::new(&g, MkpQuboParams { k: 3, r: 2.0 });
        for i in 0..4 {
            assert_eq!(q.big_m(i), 0);
        }
        assert_eq!(q.num_slack_vars(), 4 * 2);
        let (bits, e) = q.model.brute_force_min();
        assert_eq!(q.decode(bits), VertexSet::full(4));
        assert!((e + 4.0).abs() < 1e-9);
    }

    #[test]
    fn interactions_scale_with_complement_density() {
        let dense_g = gnm(8, 24, 4).unwrap(); // sparse complement
        let sparse_g = gnm(8, 4, 4).unwrap(); // dense complement
        let qd = MkpQubo::new(&dense_g, MkpQuboParams::default());
        let qs = MkpQubo::new(&sparse_g, MkpQuboParams::default());
        assert!(qs.model.num_interactions() > qd.model.num_interactions());
    }
}
