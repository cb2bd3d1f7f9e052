//! The [`Graph`] type: a simple undirected graph over at most 128 vertices.
//!
//! Adjacency is stored as one [`VertexSet`] bitmask per vertex, which makes
//! the operations the solvers need — degree within a candidate subgraph,
//! common-neighbourhood intersection, complement construction — single-word
//! bit operations.

use crate::error::GraphError;
use crate::vertex_set::{VertexSet, MAX_VERTICES};

/// A simple (no self-loops, no multi-edges) undirected, unweighted graph.
///
/// Vertices are `0..n`. The representation is an adjacency bitmask per
/// vertex plus a cached edge count.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<VertexSet>,
    m: usize,
}

impl Graph {
    /// Creates an edgeless graph with `n` vertices.
    ///
    /// # Errors
    /// Returns [`GraphError::TooManyVertices`] if `n > 128`.
    pub fn new(n: usize) -> Result<Self, GraphError> {
        if n > MAX_VERTICES {
            return Err(GraphError::TooManyVertices {
                requested: n,
                max: MAX_VERTICES,
            });
        }
        Ok(Graph {
            adj: vec![VertexSet::EMPTY; n],
            m: 0,
        })
    }

    /// Creates a graph with `n` vertices from an edge list.
    ///
    /// Duplicate edges are ignored (the graph is simple).
    ///
    /// # Errors
    /// Fails on out-of-range endpoints or self-loops.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut g = Graph::new(n)?;
        for (u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// The complete graph `K_n`.
    pub fn complete(n: usize) -> Result<Self, GraphError> {
        let mut g = Graph::new(n)?;
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_edge(u, v)?;
            }
        }
        Ok(g)
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The full vertex set `{0, …, n-1}`.
    #[inline]
    pub fn vertices(&self) -> VertexSet {
        VertexSet::full(self.n())
    }

    /// Adds an edge; returns `true` if the edge was new.
    ///
    /// # Errors
    /// Fails on out-of-range endpoints or self-loops.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<bool, GraphError> {
        let n = self.n();
        if u >= n {
            return Err(GraphError::VertexOutOfRange { vertex: u, n });
        }
        if v >= n {
            return Err(GraphError::VertexOutOfRange { vertex: v, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if self.adj[u].contains(v) {
            return Ok(false);
        }
        self.adj[u].insert(v);
        self.adj[v].insert(u);
        self.m += 1;
        Ok(true)
    }

    /// Removes an edge; returns `true` if it was present.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        if u < self.n() && v < self.n() && self.adj[u].contains(v) {
            self.adj[u].remove(v);
            self.adj[v].remove(u);
            self.m -= 1;
            true
        } else {
            false
        }
    }

    /// Whether `(u, v)` is an edge.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n() && v < self.n() && self.adj[u].contains(v)
    }

    /// The (open) neighbourhood of `v` as a bitmask.
    #[inline]
    pub fn neighbors(&self, v: usize) -> VertexSet {
        self.adj[v]
    }

    /// The degree of `v` in the whole graph.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// The degree of `v` *within* the induced subgraph on `s`
    /// (the `d_S(u)` of the paper). `v` itself need not be in `s`.
    #[inline]
    pub fn degree_in(&self, v: usize, s: VertexSet) -> usize {
        (self.adj[v] & s).len()
    }

    /// Iterates over all edges `(u, v)` with `u < v`, in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n()).flat_map(move |u| {
            self.adj[u]
                .iter()
                .filter(move |&v| v > u)
                .map(move |v| (u, v))
        })
    }

    /// The complement graph `Ḡ` (Definition 4 of the paper): same vertices,
    /// and `(u, v)` is an edge of `Ḡ` iff `u ≠ v` and `(u, v)` is not an
    /// edge of `G`.
    pub fn complement(&self) -> Graph {
        let n = self.n();
        let full = VertexSet::full(n);
        let adj: Vec<VertexSet> = (0..n).map(|v| (full - self.adj[v]).without(v)).collect();
        let m = n * (n - 1) / 2 - self.m;
        Graph { adj, m }
    }

    /// The subgraph induced on the vertex set `s`, *reindexed* to
    /// `0..s.len()` (ascending original index order). Returns the subgraph
    /// and the mapping from new index to original vertex.
    pub fn induced(&self, s: VertexSet) -> (Graph, Vec<usize>) {
        let verts: Vec<usize> = s.iter().collect();
        let mut pos = vec![usize::MAX; self.n()];
        for (i, &v) in verts.iter().enumerate() {
            pos[v] = i;
        }
        let mut g = Graph::new(verts.len()).expect("induced subgraph is no larger");
        for (i, &v) in verts.iter().enumerate() {
            for w in (self.adj[v] & s).iter() {
                let j = pos[w];
                if j > i {
                    let _ = g.add_edge(i, j);
                }
            }
        }
        (g, verts)
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Edge density `m / C(n, 2)` (0 when `n < 2`).
    pub fn density(&self) -> f64 {
        let n = self.n();
        if n < 2 {
            0.0
        } else {
            self.m as f64 / (n * (n - 1) / 2) as f64
        }
    }

    /// Common neighbours of `u` and `v` within `s`.
    #[inline]
    pub fn common_neighbors_in(&self, u: usize, v: usize, s: VertexSet) -> VertexSet {
        self.adj[u] & self.adj[v] & s
    }

    /// A canonical 64-bit structural digest: a splitmix64 fold over the
    /// vertex count and each vertex's adjacency bitmask in index order
    /// (the representation is already sorted and duplicate-free, so two
    /// graphs digest equal iff they have the same vertex count and edge
    /// set, regardless of insertion order).
    ///
    /// This is the graph half of the serve layer's compiled-oracle cache
    /// key `(digest, k, t)`; it deliberately mirrors the provenance
    /// config-hash idiom (separator byte folded between fields) so the
    /// two fingerprint families read the same way.
    pub fn digest(&self) -> u64 {
        let mut h = splitmix64(self.adj.len() as u64);
        for adj in &self.adj {
            let bits = adj.bits();
            // Field separator, then the low and high mask halves.
            h = splitmix64(h ^ 0xff);
            h = splitmix64(h ^ (bits as u64));
            h = splitmix64(h ^ ((bits >> 64) as u64));
        }
        h
    }
}

/// The splitmix64 finalizer: a cheap, well-distributed 64-bit mixer.
/// Duplicated from `qmkp-rt` (three lines) to keep this crate
/// dependency-free.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Graph(n={}, m={}; ", self.n(), self.m())?;
        let mut first = true;
        for (u, v) in self.edges() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{u}-{v}")?;
            first = false;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> Graph {
        // 0-1-2 triangle, 3 attached to 0.
        Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)]).unwrap()
    }

    #[test]
    fn new_graph_is_edgeless() {
        let g = Graph::new(5).unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn too_many_vertices_is_an_error() {
        assert!(matches!(
            Graph::new(129),
            Err(GraphError::TooManyVertices { .. })
        ));
        assert!(Graph::new(128).is_ok());
    }

    #[test]
    fn add_edge_rejects_bad_input() {
        let mut g = Graph::new(3).unwrap();
        assert!(matches!(
            g.add_edge(0, 3),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            g.add_edge(4, 0),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(g.add_edge(1, 1), Err(GraphError::SelfLoop(1))));
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut g = Graph::new(3).unwrap();
        assert!(g.add_edge(0, 1).unwrap());
        assert!(!g.add_edge(1, 0).unwrap());
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn remove_edge() {
        let mut g = triangle_plus_pendant();
        assert!(g.remove_edge(0, 3));
        assert!(!g.remove_edge(0, 3));
        assert_eq!(g.m(), 3);
        assert!(!g.has_edge(0, 3));
        assert!(!g.remove_edge(0, 100));
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = triangle_plus_pendant();
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.neighbors(0), VertexSet::from_iter([1, 2, 3]));
        let s = VertexSet::from_iter([0, 1, 2]);
        assert_eq!(g.degree_in(0, s), 2);
        assert_eq!(g.degree_in(3, s), 1); // 3 ∉ s but sees 0 ∈ s
    }

    #[test]
    fn edges_iterator_is_sorted_and_complete() {
        let g = triangle_plus_pendant();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 1), (0, 2), (0, 3), (1, 2)]);
    }

    #[test]
    fn complement_involution_and_counts() {
        let g = triangle_plus_pendant();
        let c = g.complement();
        assert_eq!(c.m(), 4 * 3 / 2 - 4);
        assert!(!c.has_edge(0, 1));
        assert!(c.has_edge(1, 3));
        assert_eq!(c.complement(), g);
    }

    #[test]
    fn complete_graph() {
        let g = Graph::complete(5).unwrap();
        assert_eq!(g.m(), 10);
        assert_eq!(g.complement().m(), 0);
    }

    #[test]
    fn induced_subgraph_reindexes() {
        let g = triangle_plus_pendant();
        let (sub, map) = g.induced(VertexSet::from_iter([0, 2, 3]));
        assert_eq!(map, vec![0, 2, 3]);
        assert_eq!(sub.n(), 3);
        // Edges among {0,2,3}: (0,2) and (0,3) → reindexed (0,1), (0,2).
        assert_eq!(sub.m(), 2);
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(0, 2));
        assert!(!sub.has_edge(1, 2));
    }

    #[test]
    fn density() {
        assert_eq!(Graph::complete(4).unwrap().density(), 1.0);
        assert_eq!(Graph::new(4).unwrap().density(), 0.0);
        assert_eq!(Graph::new(1).unwrap().density(), 0.0);
    }

    #[test]
    fn common_neighbors() {
        let g = triangle_plus_pendant();
        let all = g.vertices();
        assert_eq!(g.common_neighbors_in(1, 2, all), VertexSet::singleton(0));
        assert_eq!(g.common_neighbors_in(1, 3, all), VertexSet::singleton(0));
        assert_eq!(
            g.common_neighbors_in(1, 3, VertexSet::from_iter([1, 2, 3])),
            VertexSet::EMPTY
        );
    }

    #[test]
    fn digest_is_insertion_order_independent() {
        let a = Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)]).unwrap();
        let b = Graph::from_edges(4, [(0, 3), (0, 2), (1, 2), (0, 1)]).unwrap();
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn digest_distinguishes_edge_sets_and_vertex_counts() {
        let g = triangle_plus_pendant();
        let mut h = g.clone();
        h.remove_edge(0, 3);
        assert_ne!(g.digest(), h.digest(), "edge change must change digest");
        assert_ne!(
            Graph::new(4).unwrap().digest(),
            Graph::new(5).unwrap().digest(),
            "vertex count must change digest"
        );
        assert_ne!(g.digest(), g.complement().digest());
    }

    #[test]
    fn digest_survives_clone_and_rebuild() {
        let g = triangle_plus_pendant();
        assert_eq!(g.digest(), g.clone().digest());
        // Remove then re-add an edge: structurally identical again.
        let mut h = g.clone();
        h.remove_edge(1, 2);
        h.add_edge(1, 2).unwrap();
        assert_eq!(g.digest(), h.digest());
    }

    #[test]
    fn debug_format_lists_edges() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        assert_eq!(format!("{g:?}"), "Graph(n=3, m=1; 0-1)");
    }
}
