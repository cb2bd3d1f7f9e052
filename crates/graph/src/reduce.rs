//! Classical graph reductions for MKP.
//!
//! The paper's "orthogonality" discussion integrates the core-truss
//! co-pruning of Chang et al. to shrink inputs before handing them to the
//! quantum algorithms (qMKP "operates on slightly larger datasets within
//! the hardware constraints" after reduction). This module implements:
//!
//! * core decomposition (peeling) and degeneracy ordering,
//! * first-order (degree/core) pruning: a vertex in a k-plex of size ≥ `lb`
//!   has global degree ≥ `lb - k`,
//! * second-order (common-neighbour / truss-style) pruning: two vertices
//!   `u, v` in a k-plex `P` with `|P| ≥ lb` share at least `lb - 2k` common
//!   neighbours if adjacent, and at least `lb - 2k + 2` if non-adjacent,
//! * an iterated co-pruning loop combining both rules, and
//! * a cheap greedy lower bound to seed `lb`.
//!
//! All rules are *sound*: the returned vertex set contains every k-plex of
//! size ≥ `lb` of the input graph (verified exhaustively in tests).

use crate::graph::Graph;
use crate::plex::{greedy_extend, is_kplex};
use crate::vertex_set::VertexSet;

/// Core number of every vertex (the largest `c` such that the vertex
/// survives in the `c`-core), computed by peeling in `O(n²)` for our
/// bitset representation.
pub fn core_numbers(g: &Graph) -> Vec<usize> {
    let n = g.n();
    let mut alive = g.vertices();
    let mut core = vec![0usize; n];
    let mut current = 0usize;
    while !alive.is_empty() {
        // Find the minimum remaining degree.
        let (v, d) = alive
            .iter()
            .map(|v| (v, g.degree_in(v, alive)))
            .min_by_key(|&(_, d)| d)
            .expect("alive is non-empty");
        current = current.max(d);
        core[v] = current;
        alive.remove(v);
    }
    core
}

/// Degeneracy ordering: repeatedly removes a minimum-degree vertex.
/// Returns `(order, degeneracy)`.
pub fn degeneracy_order(g: &Graph) -> (Vec<usize>, usize) {
    let mut alive = g.vertices();
    let mut order = Vec::with_capacity(g.n());
    let mut degeneracy = 0;
    while !alive.is_empty() {
        let (v, d) = alive
            .iter()
            .map(|v| (v, g.degree_in(v, alive)))
            .min_by_key(|&(_, d)| d)
            .expect("alive is non-empty");
        degeneracy = degeneracy.max(d);
        order.push(v);
        alive.remove(v);
    }
    (order, degeneracy)
}

/// A cheap greedy lower bound on the maximum k-plex size: greedily extends
/// from each vertex (in descending degree order over a small prefix) and
/// takes the best result.
pub fn greedy_lower_bound(g: &Graph, k: usize) -> VertexSet {
    let mut best = VertexSet::EMPTY;
    let mut starts: Vec<usize> = (0..g.n()).collect();
    starts.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    for &v in starts.iter().take(8.min(starts.len())) {
        let p = greedy_extend(g, VertexSet::singleton(v), k);
        if p.len() > best.len() {
            best = p;
        }
    }
    debug_assert!(is_kplex(g, best, k));
    best
}

/// Whether the pair `(u, v)` can coexist in a k-plex of size ≥ `lb`, by the
/// second-order common-neighbour bounds, restricted to the candidate set
/// `cand`.
fn pair_compatible(g: &Graph, u: usize, v: usize, k: usize, lb: usize, cand: VertexSet) -> bool {
    let cn = g.common_neighbors_in(u, v, cand).len();
    if g.has_edge(u, v) {
        // Adjacent pair: |N(u) ∩ N(v) ∩ P| ≥ |P| - 2k ≥ lb - 2k.
        cn + 2 * k >= lb
    } else {
        // Non-adjacent pair: both vertices miss each other, so the bound
        // tightens by 2: cn ≥ lb - 2k + 2.
        cn + 2 * k >= lb + 2
    }
}

/// Result of [`reduce_for_mkp`].
#[derive(Debug, Clone)]
pub struct Reduction {
    /// Vertices that may participate in a k-plex of size ≥ `lb`.
    pub kept: VertexSet,
    /// The lower bound the reduction was computed against.
    pub lb: usize,
    /// Number of co-pruning rounds until fixpoint.
    pub rounds: usize,
}

/// Core-truss co-pruning: iterates first-order (degree) and second-order
/// (pair-compatibility support) rules to a fixpoint.
///
/// Soundness contract: every k-plex of `g` with at least `lb` vertices is
/// entirely contained in the returned `kept` set. (If you only need *some*
/// maximum k-plex preserved, call with `lb = best_known + 1` to prune
/// harder; with the convention used here, calling with `lb` equal to the
/// size of a known k-plex keeps all optimal solutions of that size.)
pub fn reduce_for_mkp(g: &Graph, k: usize, lb: usize) -> Reduction {
    let mut kept = g.vertices();
    let mut rounds = 0;
    loop {
        rounds += 1;
        let before = kept;
        // First-order rule: global degree within the candidate set.
        loop {
            let mut removed = false;
            for v in kept.iter() {
                if g.degree_in(v, kept) + k < lb {
                    kept.remove(v);
                    removed = true;
                }
            }
            if !removed {
                break;
            }
        }
        // Second-order rule: v needs at least lb - 1 compatible partners.
        for v in kept.iter() {
            let support = kept
                .without(v)
                .iter()
                .filter(|&u| pair_compatible(g, v, u, k, lb, kept))
                .count();
            if support + 1 < lb {
                kept.remove(v);
            }
        }
        if kept == before || kept.is_empty() {
            return Reduction { kept, lb, rounds };
        }
    }
}

/// Convenience wrapper: computes a greedy lower bound, reduces with it, and
/// returns the reduced candidate set together with the witness k-plex.
pub fn auto_reduce(g: &Graph, k: usize) -> (Reduction, VertexSet) {
    let witness = greedy_lower_bound(g, k);
    let red = reduce_for_mkp(g, k, witness.len().max(1));
    (red, witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gnm, paper_fig1_graph};

    #[test]
    fn core_numbers_of_a_path() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(core_numbers(&g), vec![1, 1, 1, 1]);
    }

    #[test]
    fn core_numbers_of_clique_plus_pendant() {
        let g =
            Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4)]).unwrap();
        let cores = core_numbers(&g);
        assert_eq!(cores[4], 1);
        assert_eq!(&cores[..4], &[3, 3, 3, 3]);
    }

    #[test]
    fn degeneracy_of_clique() {
        let g = Graph::complete(6).unwrap();
        let (order, d) = degeneracy_order(&g);
        assert_eq!(d, 5);
        assert_eq!(order.len(), 6);
    }

    #[test]
    fn greedy_lower_bound_is_a_kplex() {
        let g = paper_fig1_graph();
        let p = greedy_lower_bound(&g, 2);
        assert!(is_kplex(&g, p, 2));
        assert!(p.len() >= 3);
    }

    /// Exhaustive soundness check: every k-plex of size ≥ lb survives.
    fn assert_reduction_sound(g: &Graph, k: usize, lb: usize) {
        let red = reduce_for_mkp(g, k, lb);
        for bits in 0..(1u128 << g.n()) {
            let s = VertexSet::from_bits(bits);
            if s.len() >= lb && is_kplex(g, s, k) {
                assert!(
                    s.is_subset_of(red.kept),
                    "k-plex {s:?} (k={k}, lb={lb}) was pruned; kept={:?}",
                    red.kept
                );
            }
        }
    }

    #[test]
    fn reduction_is_sound_on_fig1() {
        let g = paper_fig1_graph();
        for k in 1..=3 {
            for lb in 1..=5 {
                assert_reduction_sound(&g, k, lb);
            }
        }
    }

    #[test]
    fn reduction_is_sound_on_random_graphs() {
        for seed in 0..5 {
            let g = gnm(9, 14, seed).unwrap();
            for k in 1..=2 {
                for lb in 2..=5 {
                    assert_reduction_sound(&g, k, lb);
                }
            }
        }
    }

    #[test]
    fn reduction_prunes_something_on_sparse_graphs() {
        // A star plus a clique: asking for lb = 4 with k = 1 should discard
        // the star's leaves.
        let mut g = Graph::complete(4).unwrap();
        // Recreate with extra star part.
        let mut edges: Vec<_> = g.edges().collect();
        for leaf in 4..8 {
            edges.push((0, leaf));
        }
        g = Graph::from_edges(8, edges).unwrap();
        let red = reduce_for_mkp(&g, 1, 4);
        assert_eq!(red.kept, VertexSet::from_iter([0, 1, 2, 3]));
    }

    #[test]
    fn auto_reduce_keeps_witness() {
        let g = paper_fig1_graph();
        let (red, witness) = auto_reduce(&g, 2);
        assert!(witness.is_subset_of(red.kept));
    }

    #[test]
    fn impossible_bound_empties_graph() {
        let g = paper_fig1_graph();
        let red = reduce_for_mkp(&g, 1, 6); // no 6-clique here
        assert!(red.kept.is_empty());
    }
}
