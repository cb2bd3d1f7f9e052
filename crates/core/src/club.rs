//! The paper's **adaptability** claim, realized: a maximum 2-club oracle
//! built from the same toolkit as the k-plex oracle.
//!
//! An *n-club* is a vertex set whose induced subgraph has diameter ≤ n;
//! a 2-club requires every pair to be adjacent or share a common
//! neighbour *inside the set*. The oracle exploits a neat reformulation:
//! for a non-adjacent pair `(u, v)`, the pair is violated exactly when
//! both endpoints are selected and **none** of their common neighbours
//! is — a single multi-controlled X with positive controls on `u, v` and
//! negative controls on every common neighbour:
//!
//! ```text
//! |bad_uv⟩ ^= v_u ∧ v_v ∧ ¬w₁ ∧ ¬w₂ ∧ …      (w ∈ CN(u, v))
//! ```
//!
//! A CⁿNOT with negative controls over all `bad` ancillas then computes
//! `|club⟩`, and the size-determination component is reused verbatim from
//! the k-plex oracle (Challenge IV).

use crate::grover::{optimal_iterations, GroverDriver, PhaseOracle};
use qmkp_arith::{compare_le_clean, counter_width, load_const, popcount_into, ComparatorScratch};
use qmkp_graph::{Graph, VertexSet};
use qmkp_qsim::{Circuit, Control, Gate, QubitAllocator, Register};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A Grover phase oracle deciding "is this vertex set a 2-club of size ≥ T".
#[derive(Debug, Clone)]
pub struct TwoClubOracle {
    graph: Graph,
    t: usize,
    width: usize,
    vertices: Register,
    bad_pairs: Vec<(usize, usize)>,
    club: usize,
    size_ge_t: usize,
    oracle: usize,
    u_check: Circuit,
    u_check_inv: Circuit,
}

impl TwoClubOracle {
    /// Builds the oracle for 2-clubs of size ≥ `t` in `g`.
    ///
    /// # Panics
    /// Panics if `t` is outside `[1, n]` or the graph is empty.
    pub fn new(g: &Graph, t: usize) -> Self {
        let n = g.n();
        assert!(n > 0, "graph must be non-empty");
        assert!((1..=n).contains(&t), "threshold T must be in [1, n]");
        let bad_pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .filter(|&(u, v)| !g.has_edge(u, v))
            .collect();
        let size_bits = counter_width(n.max(t));

        let mut alloc = QubitAllocator::new();
        let vertices = alloc.alloc("v", n);
        let bad = alloc.alloc("bad", bad_pairs.len());
        let club = alloc.alloc_one("club");
        let size = alloc.alloc("size", size_bits);
        let t_reg = alloc.alloc("T", size_bits);
        let size_ge_t = alloc.alloc_one("size>=T");
        let oracle = alloc.alloc_one("O");
        let cmp = ComparatorScratch::alloc(&mut alloc, size_bits);
        let width = alloc.width();
        assert!(width <= 128, "2-club oracle needs {width} qubits (max 128)");

        let mut c = Circuit::new(width);
        c.begin_section("pair_check");
        for (j, &(u, v)) in bad_pairs.iter().enumerate() {
            let mut controls = vec![
                Control::pos(vertices.qubit(u)),
                Control::pos(vertices.qubit(v)),
            ];
            controls.extend(
                g.common_neighbors_in(u, v, g.vertices())
                    .iter()
                    .map(|w| Control::neg(vertices.qubit(w))),
            );
            c.push_unchecked(Gate::Mcx {
                controls,
                target: bad.qubit(j),
            });
        }
        // club = ∧_j ¬bad_j.
        c.push_unchecked(Gate::Mcx {
            controls: bad.iter().map(Control::neg).collect(),
            target: club,
        });
        c.begin_section("size_check");
        popcount_into(&mut c, &vertices.qubits(), &size);
        load_const(&mut c, &t_reg, t as u128);
        compare_le_clean(&mut c, &t_reg, &size, size_ge_t, &cmp);
        c.end_section();
        let u_check_inv = c.inverse();

        TwoClubOracle {
            graph: g.clone(),
            t,
            width,
            vertices,
            bad_pairs,
            club,
            size_ge_t,
            oracle,
            u_check: c,
            u_check_inv,
        }
    }

    /// The non-adjacent pairs the oracle checks.
    pub fn bad_pairs(&self) -> &[(usize, usize)] {
        &self.bad_pairs
    }

    /// Classical 2-club test: every selected pair adjacent or sharing a
    /// selected common neighbour.
    pub fn is_two_club(g: &Graph, s: VertexSet) -> bool {
        let members: Vec<usize> = s.iter().collect();
        members.iter().enumerate().all(|(i, &u)| {
            members[i + 1..]
                .iter()
                .all(|&v| g.has_edge(u, v) || !g.common_neighbors_in(u, v, s).is_empty())
        })
    }
}

impl PhaseOracle for TwoClubOracle {
    fn width(&self) -> usize {
        self.width
    }
    fn vertex_register(&self) -> &Register {
        &self.vertices
    }
    fn oracle_qubit(&self) -> usize {
        self.oracle
    }
    fn u_check(&self) -> &Circuit {
        &self.u_check
    }
    fn u_check_inv(&self) -> &Circuit {
        &self.u_check_inv
    }
    fn flip_controls(&self) -> [usize; 2] {
        [self.club, self.size_ge_t]
    }
    fn predicate(&self, s: VertexSet) -> bool {
        s.len() >= self.t && Self::is_two_club(&self.graph, s)
    }
}

/// Finds a maximum 2-club by binary search over Grover searches — the
/// qMKP recipe transplanted onto the 2-club oracle.
///
/// # Panics
/// Panics if the graph is empty or has more vertices than the oracle can
/// host.
pub fn max_two_club(g: &Graph, seed: u64) -> VertexSet {
    let n = g.n();
    assert!(n > 0, "graph must be non-empty");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best = VertexSet::singleton(0);
    let (mut lo, mut hi) = (1usize, n);
    while lo <= hi {
        let t = usize::midpoint(lo, hi);
        let oracle = TwoClubOracle::new(g, t);
        let m = (0..(1u128 << n))
            .map(VertexSet::from_bits)
            .filter(|&s| oracle.predicate(s))
            .count() as u64;
        let mut found = None;
        if m > 0 {
            let mut driver = GroverDriver::new(oracle);
            driver.iterate_n(optimal_iterations(n, m));
            let readout = driver.readout();
            for _ in 0..3 {
                let s = readout.measure(&mut rng);
                if driver.oracle().predicate(s) {
                    found = Some(s);
                    break;
                }
            }
        }
        match found {
            Some(s) => {
                if s.len() > best.len() {
                    best = s;
                }
                lo = s.len() + 1;
            }
            None => hi = t - 1,
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp_arith::classical_eval;
    use qmkp_graph::gen::{gnm, paper_fig1_graph};

    fn brute_max_two_club(g: &Graph) -> usize {
        (0..(1u128 << g.n()))
            .map(VertexSet::from_bits)
            .filter(|&s| TwoClubOracle::is_two_club(g, s))
            .map(|s| s.len())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn classical_predicate_on_known_shapes() {
        // A star is a 2-club (every leaf pair shares the hub).
        let star = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        assert!(TwoClubOracle::is_two_club(&star, star.vertices()));
        // A path of length 3 is not (endpoints at distance 3).
        let path = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(!TwoClubOracle::is_two_club(&path, path.vertices()));
        // …and the common neighbour must be INSIDE the set.
        let p3 = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert!(!TwoClubOracle::is_two_club(
            &p3,
            VertexSet::from_iter([0, 2])
        ));
        assert!(TwoClubOracle::is_two_club(&p3, p3.vertices()));
    }

    #[test]
    fn oracle_circuit_matches_predicate_exhaustively() {
        for seed in 0..3 {
            let g = gnm(6, 7, seed).unwrap();
            let oracle = TwoClubOracle::new(&g, 3);
            for bits in 0..(1u128 << 6) {
                let s = VertexSet::from_bits(bits);
                let out = classical_eval(&oracle.u_check, bits);
                let marked = (out >> oracle.club) & 1 == 1 && (out >> oracle.size_ge_t) & 1 == 1;
                assert_eq!(marked, oracle.predicate(s), "set {s:?} (seed {seed})");
                // Uncompute restores everything.
                assert_eq!(classical_eval(&oracle.u_check_inv, out), bits);
            }
        }
    }

    #[test]
    fn grover_finds_maximum_two_clubs() {
        for seed in 0..3 {
            let g = gnm(6, 8, seed).unwrap();
            let best = max_two_club(&g, 99);
            assert!(TwoClubOracle::is_two_club(&g, best));
            assert_eq!(best.len(), brute_max_two_club(&g), "seed={seed}");
        }
    }

    #[test]
    fn fig1_two_club() {
        let g = paper_fig1_graph();
        let best = max_two_club(&g, 1);
        assert_eq!(best.len(), brute_max_two_club(&g));
        assert!(best.len() >= 4);
    }

    #[test]
    fn star_graph_is_one_big_club() {
        let star = Graph::from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).unwrap();
        let best = max_two_club(&star, 5);
        assert_eq!(best.len(), 6);
    }
}
