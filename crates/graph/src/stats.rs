//! Descriptive graph statistics.
//!
//! Used by the examples to characterize the synthetic "social networks"
//! (the paper motivates k-plexes by the structure of real graphs: noisy,
//! clustered, heavy-tailed) and by tests as independent ground truth.

use crate::graph::Graph;

/// Histogram of degrees: index `d` holds the number of vertices with
/// degree `d`.
pub fn degree_histogram(g: &Graph) -> Vec<usize> {
    let mut hist = vec![0; g.max_degree() + 1];
    for v in 0..g.n() {
        hist[g.degree(v)] += 1;
    }
    hist
}

/// Number of triangles in the graph.
pub fn triangle_count(g: &Graph) -> usize {
    let mut count = 0;
    for u in 0..g.n() {
        for v in g.neighbors(u).iter().filter(|&v| v > u) {
            count += g
                .common_neighbors_in(u, v, g.vertices())
                .iter()
                .filter(|&w| w > v)
                .count();
        }
    }
    count
}

/// Local clustering coefficient of a vertex (0 for degree < 2).
pub fn local_clustering(g: &Graph, v: usize) -> f64 {
    let nbrs = g.neighbors(v);
    let d = nbrs.len();
    if d < 2 {
        return 0.0;
    }
    let mut links = 0;
    for a in nbrs.iter() {
        links += (g.neighbors(a) & nbrs).iter().filter(|&b| b > a).count();
    }
    2.0 * links as f64 / (d * (d - 1)) as f64
}

/// Average local clustering coefficient (Watts-Strogatz definition).
pub fn average_clustering(g: &Graph) -> f64 {
    if g.n() == 0 {
        return 0.0;
    }
    (0..g.n()).map(|v| local_clustering(g, v)).sum::<f64>() / g.n() as f64
}

/// All-pairs shortest-path distances by BFS; `usize::MAX` for unreachable
/// pairs.
pub fn distance_matrix(g: &Graph) -> Vec<Vec<usize>> {
    let n = g.n();
    let mut dist = vec![vec![usize::MAX; n]; n];
    for (s, row) in dist.iter_mut().enumerate() {
        row[s] = 0;
        let mut frontier = vec![s];
        let mut d = 0;
        while !frontier.is_empty() {
            d += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                for v in g.neighbors(u).iter() {
                    if row[v] == usize::MAX {
                        row[v] = d;
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
    }
    dist
}

/// Graph diameter (longest shortest path); `None` if disconnected.
pub fn diameter(g: &Graph) -> Option<usize> {
    let dist = distance_matrix(g);
    let mut best = 0;
    for row in &dist {
        for &d in row {
            if d == usize::MAX {
                return None;
            }
            best = best.max(d);
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_with_tail() -> Graph {
        Graph::from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn degree_stats() {
        let g = triangle_with_tail();
        assert_eq!(degree_histogram(&g), vec![0, 1, 3, 1]);
    }

    #[test]
    fn triangles() {
        assert_eq!(triangle_count(&triangle_with_tail()), 1);
        assert_eq!(triangle_count(&Graph::complete(5).unwrap()), 10);
        assert_eq!(triangle_count(&Graph::new(4).unwrap()), 0);
    }

    #[test]
    fn clustering() {
        let g = triangle_with_tail();
        assert_eq!(local_clustering(&g, 0), 1.0);
        assert!((local_clustering(&g, 2) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(local_clustering(&g, 4), 0.0);
        assert_eq!(average_clustering(&Graph::complete(4).unwrap()), 1.0);
    }

    #[test]
    fn distances_and_diameter() {
        let g = triangle_with_tail();
        let d = distance_matrix(&g);
        assert_eq!(d[0][4], 3);
        assert_eq!(d[4][0], 3);
        assert_eq!(diameter(&g), Some(3));
        let disconnected = Graph::from_edges(3, [(0, 1)]).unwrap();
        assert_eq!(diameter(&disconnected), None);
    }
}
