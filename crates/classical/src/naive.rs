//! The trivial `O*(2ⁿ)` enumerator — ground truth for everything else.

use qmkp_graph::{is_kplex, Graph, VertexSet};

/// Finds a maximum k-plex by checking every vertex subset.
///
/// Deterministic tie-break: the lexicographically smallest bitmask among
/// the largest k-plexes.
///
/// # Panics
/// Panics if `g.n() > 25` (2³³ subsets is past the point of ground truth).
pub fn max_kplex_naive(g: &Graph, k: usize) -> VertexSet {
    assert!(g.n() <= 25, "naive enumeration is limited to 25 vertices");
    let mut best = VertexSet::EMPTY;
    for bits in 0..(1u128 << g.n()) {
        let s = VertexSet::from_bits(bits);
        if s.len() > best.len() && is_kplex(g, s, k) {
            best = s;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp_graph::gen::paper_fig1_graph;

    #[test]
    fn fig1_maximum_sizes() {
        let g = paper_fig1_graph();
        assert_eq!(max_kplex_naive(&g, 1).len(), 3, "max clique of Fig. 1");
        assert_eq!(max_kplex_naive(&g, 2).len(), 4);
        assert_eq!(max_kplex_naive(&g, 2), VertexSet::from_iter([0, 1, 3, 4]));
    }

    #[test]
    fn empty_and_complete_graphs() {
        let empty = Graph::new(4).unwrap();
        assert_eq!(max_kplex_naive(&empty, 1).len(), 1);
        assert_eq!(max_kplex_naive(&empty, 3).len(), 3, "k isolated vertices");
        let complete = Graph::complete(5).unwrap();
        assert_eq!(max_kplex_naive(&complete, 1).len(), 5);
    }

    #[test]
    fn result_is_always_a_kplex() {
        for seed in 0..5 {
            let g = qmkp_graph::gen::gnm(8, 12, seed).unwrap();
            for k in 1..=3 {
                let p = max_kplex_naive(&g, k);
                assert!(is_kplex(&g, p, k));
            }
        }
    }
}
