//! Graph generators, including the paper's synthetic dataset families.
//!
//! The paper evaluates on synthetic datasets identified only by their vertex
//! and edge counts: `G_{n,m}` for the gate-based experiments (Tables II-IV)
//! and `D_{n,m}` for the annealing experiments (Tables V-VII, Figs. 9-11).
//! We regenerate them as seeded uniform `G(n, m)` random graphs so every
//! experiment in this repository is reproducible bit-for-bit.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::vertex_set::VertexSet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Workspace-wide default seed for the paper's synthetic datasets.
pub const DATASET_SEED: u64 = 0x6b_70_6c_65_78; // "kplex"

/// The 6-vertex example graph of Figure 1 of the paper.
///
/// The edge set is reconstructed from the paper's complement-graph encoding
/// circuit (Figure 6), which wires the eight complement edges
/// `e1..e8 = (v1,v6), (v2,v6), (v3,v6), (v4,v6), (v2,v5), (v2,v3), (v3,v5),
/// (v3,v4)`; the original graph is the complement of those. Vertices are
/// 0-indexed (`v1 → 0`).
pub fn paper_fig1_graph() -> Graph {
    let complement_edges = [
        (0, 5),
        (1, 5),
        (2, 5),
        (3, 5),
        (1, 4),
        (1, 2),
        (2, 4),
        (2, 3),
    ];
    Graph::from_edges(6, complement_edges)
        .expect("static edge list is valid")
        .complement()
}

/// Uniform random graph with exactly `m` edges (`G(n, m)` model).
///
/// Edges are a uniform sample without replacement from all `C(n, 2)` pairs,
/// drawn with the given seed.
///
/// # Errors
/// Fails if `n > 128` or `m > C(n, 2)`.
pub fn gnm(n: usize, m: usize, seed: u64) -> Result<Graph, GraphError> {
    let max = if n < 2 { 0 } else { n * (n - 1) / 2 };
    if m > max {
        return Err(GraphError::TooManyEdges { requested: m, max });
    }
    let mut pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    pairs.shuffle(&mut rng);
    Graph::from_edges(n, pairs.into_iter().take(m))
}

/// A random graph with a *planted* k-plex: `q` designated vertices form a
/// k-plex of size `q` (a clique with up to `k-1` incident edges removed per
/// planted vertex), embedded in background `G(n, p)` noise.
///
/// Returns the graph and the planted vertex set (always `{0, …, q-1}`).
/// Useful for examples and for validating solvers on instances with a known
/// large solution.
///
/// # Errors
/// Fails if `n > 128`.
///
/// # Panics
/// Panics if `q > n`, `k == 0`, or `p` outside `[0, 1]`.
pub fn planted_kplex(
    n: usize,
    q: usize,
    k: usize,
    p: f64,
    seed: u64,
) -> Result<(Graph, VertexSet), GraphError> {
    assert!(q <= n, "planted size must not exceed n");
    assert!(k >= 1, "k must be positive");
    assert!((0.0..=1.0).contains(&p));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n)?;
    // Clique on the planted set…
    for u in 0..q {
        for v in (u + 1)..q {
            let _ = g.add_edge(u, v);
        }
    }
    // …then remove up to k-1 random incident edges per planted vertex so the
    // plant is a genuine (non-clique, for k > 1) k-plex.
    if k > 1 && q > k {
        for u in 0..q {
            let removable = k - 1;
            let mut removed = 0;
            let mut others: Vec<usize> = (0..q).filter(|&v| v != u).collect();
            others.shuffle(&mut rng);
            for v in others {
                if removed >= removable {
                    break;
                }
                // Keep the removal legal on both endpoints: v must retain
                // degree ≥ q - k inside the plant.
                let plant = VertexSet::full(q);
                if g.degree_in(v, plant) > q - k && g.degree_in(u, plant) > q - k {
                    g.remove_edge(u, v);
                    removed += 1;
                }
            }
        }
    }
    // Background noise outside the plant.
    for u in 0..n {
        for v in (u + 1)..n {
            if v >= q && rng.gen_bool(p) {
                let _ = g.add_edge(u, v);
            }
        }
    }
    debug_assert!(crate::plex::is_kplex(&g, VertexSet::full(q), k));
    Ok((g, VertexSet::full(q)))
}

/// The paper's gate-based dataset `G_{n,m}` (Tables II and III), generated
/// as seeded `G(n, m)`.
pub fn paper_gate_dataset(n: usize, m: usize) -> Graph {
    gnm(n, m, DATASET_SEED ^ ((n as u64) << 32) ^ m as u64)
        .expect("paper dataset parameters are valid")
}

/// The paper's annealing dataset `D_{n,m}` (Tables V-VII, Figs. 9-11),
/// generated as seeded `G(n, m)` from an independent seed stream.
pub fn paper_anneal_dataset(n: usize, m: usize) -> Graph {
    gnm(
        n,
        m,
        DATASET_SEED.wrapping_mul(0x9e37_79b9) ^ ((n as u64) << 32) ^ m as u64,
    )
    .expect("paper dataset parameters are valid")
}

/// The `(n, m)` pairs of the gate-based datasets in Table II.
pub const GATE_DATASETS: [(usize, usize); 4] = [(7, 8), (8, 10), (9, 15), (10, 23)];

/// The `(n, m)` pair of the Table III dataset.
pub const GATE_DATASET_K: (usize, usize) = (10, 37);

/// The `(n, m)` pairs of the annealing datasets (Tables V-VII, Figs. 9-10).
pub const ANNEAL_DATASETS: [(usize, usize); 4] = [(10, 40), (15, 70), (20, 100), (30, 300)];

/// Edge count used for the Fig. 11 chain-growth family at a given `n`
/// (density matched to the `D_{n,m}` family: `m = ⌊n(n-1)/3⌋`).
pub fn chain_family_edges(n: usize) -> usize {
    n * (n - 1) / 3
}

/// Barabási-Albert preferential attachment: starts from a clique on
/// `attach + 1` vertices, then each new vertex attaches to `attach`
/// existing vertices with probability proportional to degree. Produces
/// the heavy-tailed degree distributions of real social networks.
///
/// # Errors
/// Fails if `n > 128`.
///
/// # Panics
/// Panics if `attach == 0` or `attach >= n`.
pub fn barabasi_albert(n: usize, attach: usize, seed: u64) -> Result<Graph, GraphError> {
    assert!(attach >= 1, "attach must be positive");
    assert!(attach < n, "attach must be below n");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n)?;
    // Seed clique.
    for u in 0..=attach {
        for v in (u + 1)..=attach {
            let _ = g.add_edge(u, v);
        }
    }
    // Degree-proportional target sampling via an endpoint multiset.
    let mut endpoints: Vec<usize> = (0..=attach)
        .flat_map(|u| std::iter::repeat_n(u, attach))
        .collect();
    for v in (attach + 1)..n {
        let mut targets = VertexSet::EMPTY;
        while targets.len() < attach {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            targets.insert(t);
        }
        for t in targets.iter() {
            let _ = g.add_edge(v, t);
            endpoints.push(t);
            endpoints.push(v);
        }
    }
    Ok(g)
}

/// Watts-Strogatz small world: a ring lattice where each vertex connects
/// to its `k_half` nearest neighbours on each side, with every edge
/// rewired to a random endpoint with probability `p`. High clustering,
/// short paths — the other classic "realistic network" family.
///
/// # Errors
/// Fails if `n > 128`.
///
/// # Panics
/// Panics if `k_half == 0`, `2·k_half ≥ n`, or `p ∉ [0, 1]`.
pub fn watts_strogatz(n: usize, k_half: usize, p: f64, seed: u64) -> Result<Graph, GraphError> {
    assert!(k_half >= 1, "k_half must be positive");
    assert!(2 * k_half < n, "ring lattice needs 2·k_half < n");
    assert!((0.0..=1.0).contains(&p));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n)?;
    for u in 0..n {
        for d in 1..=k_half {
            let v = (u + d) % n;
            if rng.gen_bool(p) {
                // Rewire: keep u, pick a random non-neighbour target.
                let mut w = rng.gen_range(0..n);
                let mut guard = 0;
                while w == u || g.has_edge(u, w) {
                    w = rng.gen_range(0..n);
                    guard += 1;
                    if guard > 16 * n {
                        break; // dense corner case: keep the lattice edge
                    }
                }
                if w != u && !g.has_edge(u, w) {
                    let _ = g.add_edge(u, w);
                    continue;
                }
            }
            let _ = g.add_edge(u, v);
        }
    }
    Ok(g)
}

/// A random permutation of `0..n`, used by tests to check label invariance.
pub fn random_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    perm
}

/// Relabels a graph by a permutation: vertex `v` becomes `perm[v]`.
///
/// # Panics
/// Panics if `perm` is not a permutation of `0..g.n()`.
pub fn relabel(g: &Graph, perm: &[usize]) -> Graph {
    assert_eq!(perm.len(), g.n());
    let mut seen = vec![false; g.n()];
    for &p in perm {
        assert!(p < g.n() && !seen[p], "not a permutation");
        seen[p] = true;
    }
    Graph::from_edges(g.n(), g.edges().map(|(u, v)| (perm[u], perm[v])))
        .expect("relabelling preserves validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plex::is_kplex;

    #[test]
    fn fig1_graph_shape() {
        let g = paper_fig1_graph();
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 7);
        // Complement has the 8 edges wired in the paper's Figure 6 circuit.
        assert_eq!(g.complement().m(), 8);
        assert!(g.complement().has_edge(0, 5));
        assert!(g.complement().has_edge(2, 3));
    }

    #[test]
    fn fig1_has_unique_max_2plex_of_size_4() {
        // The Fig. 8 experiment runs 6 Grover iterations, which corresponds
        // to M = 1 marked state; verify the instance really has a unique
        // maximum 2-plex.
        let g = paper_fig1_graph();
        let mut best = 0;
        let mut count_at_best = 0;
        let mut witness = VertexSet::EMPTY;
        for bits in 0..(1u128 << 6) {
            let s = VertexSet::from_bits(bits);
            if is_kplex(&g, s, 2) {
                match s.len().cmp(&best) {
                    std::cmp::Ordering::Greater => {
                        best = s.len();
                        count_at_best = 1;
                        witness = s;
                    }
                    std::cmp::Ordering::Equal => count_at_best += 1,
                    std::cmp::Ordering::Less => {}
                }
            }
        }
        assert_eq!(best, 4);
        assert_eq!(count_at_best, 1, "expected a unique maximum 2-plex");
        assert_eq!(witness, VertexSet::from_iter([0, 1, 3, 4]));
    }

    #[test]
    fn gnm_has_exact_edge_count_and_is_seed_stable() {
        let g1 = gnm(12, 30, 7).unwrap();
        let g2 = gnm(12, 30, 7).unwrap();
        let g3 = gnm(12, 30, 8).unwrap();
        assert_eq!(g1.n(), 12);
        assert_eq!(g1.m(), 30);
        assert_eq!(g1, g2);
        assert_ne!(g1, g3, "different seeds should (here) differ");
    }

    #[test]
    fn gnm_rejects_impossible_edge_counts() {
        assert!(matches!(gnm(4, 7, 0), Err(GraphError::TooManyEdges { .. })));
        assert!(gnm(4, 6, 0).is_ok());
        assert!(matches!(gnm(1, 1, 0), Err(GraphError::TooManyEdges { .. })));
    }

    #[test]
    fn planted_kplex_is_a_kplex() {
        for k in 1..=3 {
            let (g, plant) = planted_kplex(20, 8, k, 0.2, 42).unwrap();
            assert!(is_kplex(&g, plant, k), "plant must be a {k}-plex");
            assert_eq!(plant.len(), 8);
        }
    }

    #[test]
    fn paper_datasets_have_expected_sizes() {
        for (n, m) in GATE_DATASETS {
            let g = paper_gate_dataset(n, m);
            assert_eq!((g.n(), g.m()), (n, m));
        }
        for (n, m) in ANNEAL_DATASETS {
            let g = paper_anneal_dataset(n, m);
            assert_eq!((g.n(), g.m()), (n, m));
        }
        let (n, m) = GATE_DATASET_K;
        assert_eq!(paper_gate_dataset(n, m).m(), m);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = paper_fig1_graph();
        let perm = random_permutation(g.n(), 3);
        let h = relabel(&g, &perm);
        assert_eq!(g.m(), h.m());
        for (u, v) in g.edges() {
            assert!(h.has_edge(perm[u], perm[v]));
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabel_rejects_non_permutation() {
        let g = paper_fig1_graph();
        let _ = relabel(&g, &[0, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn chain_family_density_is_stable() {
        // Fig. 11 family keeps density around 2/3.
        for n in [10, 20, 30, 43] {
            let m = chain_family_edges(n);
            let density = m as f64 / (n * (n - 1) / 2) as f64;
            assert!((0.6..0.7).contains(&density), "density {density} at n={n}");
        }
    }

    #[test]
    fn barabasi_albert_shape() {
        let g = barabasi_albert(40, 2, 7).unwrap();
        assert_eq!(g.n(), 40);
        // Seed clique C(3,2)=3 edges + 37 vertices × 2 attachments.
        assert_eq!(g.m(), 3 + 37 * 2);
        // Heavy tail: some vertex well above the attachment degree.
        assert!(g.max_degree() >= 6, "hub degree {}", g.max_degree());
        let h = barabasi_albert(40, 2, 7).unwrap();
        assert_eq!(g, h, "seed-stable");
    }

    #[test]
    fn watts_strogatz_shape() {
        let g = watts_strogatz(30, 2, 0.0, 1).unwrap();
        // Pure ring lattice: every vertex has degree 2·k_half.
        assert!(degrees_all(&g, 4));
        assert_eq!(g.m(), 60);
        let g = watts_strogatz(30, 2, 0.3, 1).unwrap();
        assert_eq!(g.m(), 60, "rewiring preserves edge count");
        // Rewired version has lower clustering than the lattice.
        let lattice_c = crate::stats::average_clustering(&watts_strogatz(30, 2, 0.0, 1).unwrap());
        let rewired_c = crate::stats::average_clustering(&g);
        assert!(rewired_c < lattice_c, "{rewired_c} < {lattice_c}");
    }

    fn degrees_all(g: &Graph, d: usize) -> bool {
        (0..g.n()).all(|v| g.degree(v) == d)
    }

    #[test]
    #[should_panic(expected = "ring lattice")]
    fn watts_strogatz_rejects_overfull_ring() {
        let _ = watts_strogatz(6, 3, 0.1, 0);
    }
}
