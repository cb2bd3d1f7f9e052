//! Hardware qubit-connectivity graphs.
//!
//! D-Wave machines expose a fixed sparse coupler graph; logical problems
//! are minor-embedded into it. We model the **Chimera** family
//! `C(m, n, t)`: an `m × n` grid of unit cells, each a complete bipartite
//! `K_{t,t}` between `t` "vertical" and `t` "horizontal" qubits, with
//! vertical qubits coupled to the same-position qubit of the cell below
//! and horizontal qubits to the cell on the right. (The Advantage's
//! Pegasus topology is a denser relative; using Chimera only scales chain
//! lengths by a constant factor — recorded in DESIGN.md.)

/// A Chimera graph `C(m, n, t)`.
#[derive(Debug, Clone)]
pub struct Chimera {
    /// Grid rows.
    pub m: usize,
    /// Grid columns.
    pub n: usize,
    /// Shore size (qubits per side of each cell).
    pub t: usize,
    adjacency: Vec<Vec<usize>>,
}

impl Chimera {
    /// Builds `C(m, n, t)`.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(m: usize, n: usize, t: usize) -> Self {
        assert!(m > 0 && n > 0 && t > 0, "dimensions must be positive");
        let num = m * n * 2 * t;
        let mut adjacency = vec![Vec::new(); num];
        let mut add = |a: usize, b: usize| {
            adjacency[a].push(b);
            adjacency[b].push(a);
        };
        for row in 0..m {
            for col in 0..n {
                // Intra-cell K_{t,t}: side 0 = vertical, side 1 = horizontal.
                for kv in 0..t {
                    for kh in 0..t {
                        add(
                            Self::index_of(m, n, t, row, col, 0, kv),
                            Self::index_of(m, n, t, row, col, 1, kh),
                        );
                    }
                }
                // Vertical couplers to the cell below.
                if row + 1 < m {
                    for k in 0..t {
                        add(
                            Self::index_of(m, n, t, row, col, 0, k),
                            Self::index_of(m, n, t, row + 1, col, 0, k),
                        );
                    }
                }
                // Horizontal couplers to the cell on the right.
                if col + 1 < n {
                    for k in 0..t {
                        add(
                            Self::index_of(m, n, t, row, col, 1, k),
                            Self::index_of(m, n, t, row, col + 1, 1, k),
                        );
                    }
                }
            }
        }
        Chimera { m, n, t, adjacency }
    }

    fn index_of(
        _m: usize,
        n: usize,
        t: usize,
        row: usize,
        col: usize,
        side: usize,
        k: usize,
    ) -> usize {
        ((row * n + col) * 2 + side) * t + k
    }

    /// Linear index of a qubit from its Chimera coordinates.
    pub fn index(&self, row: usize, col: usize, side: usize, k: usize) -> usize {
        assert!(row < self.m && col < self.n && side < 2 && k < self.t);
        Self::index_of(self.m, self.n, self.t, row, col, side, k)
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.adjacency.len()
    }

    /// Neighbours of a qubit.
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.adjacency[q]
    }

    /// Whether two qubits share a coupler.
    pub fn coupled(&self, a: usize, b: usize) -> bool {
        self.adjacency[a].contains(&b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_counts() {
        let c = Chimera::new(2, 3, 4);
        assert_eq!(c.num_qubits(), 2 * 3 * 8);
        // Couplers: per cell t² = 16 internal → 6·16 = 96;
        // vertical: (m−1)·n·t = 1·3·4 = 12; horizontal: m·(n−1)·t = 2·2·4 = 16.
        let couplers = (0..c.num_qubits())
            .map(|q| c.neighbors(q).len())
            .sum::<usize>()
            / 2;
        assert_eq!(couplers, 96 + 12 + 16);
    }

    #[test]
    fn degree_bounds() {
        let c = Chimera::new(16, 16, 4);
        assert_eq!(c.num_qubits(), 2048);
        // Interior qubits have degree t + 2 = 6, boundary t + 1 = 5.
        let degrees: Vec<usize> = (0..c.num_qubits()).map(|q| c.neighbors(q).len()).collect();
        assert!(degrees.iter().all(|&d| (5..=6).contains(&d)));
        assert!(degrees.contains(&6));
    }

    #[test]
    fn intra_cell_is_bipartite_complete() {
        let c = Chimera::new(1, 1, 4);
        for kv in 0..4 {
            for kh in 0..4 {
                assert!(c.coupled(c.index(0, 0, 0, kv), c.index(0, 0, 1, kh)));
            }
            for kv2 in 0..4 {
                if kv != kv2 {
                    assert!(!c.coupled(c.index(0, 0, 0, kv), c.index(0, 0, 0, kv2)));
                }
            }
        }
    }

    #[test]
    fn inter_cell_couplers_align_by_position() {
        let c = Chimera::new(2, 2, 4);
        assert!(c.coupled(c.index(0, 0, 0, 2), c.index(1, 0, 0, 2)));
        assert!(!c.coupled(c.index(0, 0, 0, 2), c.index(1, 0, 0, 3)));
        assert!(c.coupled(c.index(0, 0, 1, 1), c.index(0, 1, 1, 1)));
        assert!(!c.coupled(c.index(0, 0, 1, 1), c.index(0, 1, 0, 1)));
    }
}
