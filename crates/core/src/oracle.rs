//! The qTKP oracle: `U_check` and the oracle-qubit flip.
//!
//! `U_check` computes, reversibly, whether the vertex-qubit basis state is
//! a k-cplex of the complement graph with at least `T` vertices. Its four
//! stages mirror the paper's Challenges I-IV and are tagged as circuit
//! sections:
//!
//! 1. `graph_encoding` — one C²NOT per complement edge activates `|e_j⟩`
//!    iff both endpoints are selected (Figure 6, box A).
//! 2. `degree_count` — for each vertex, a popcount of its incident edge
//!    qubits into `|c_i⟩` (Figure 6, box B; the conceptual control-`a`
//!    gate).
//! 3. `degree_compare` — each `|c_i⟩` is compared with `|k-1⟩`; flag
//!    `|d_i⟩` is set iff `c_i ≤ k-1`, then a CⁿNOT ANDs all flags into
//!    `|cplex⟩` (Figure 9).
//! 4. `size_check` — popcount of the vertex qubits into `|size⟩`, compare
//!    with `|T⟩` into `|size ≥ T⟩` (Figure 11, boxes A-B).
//!
//! The final flip (Figure 11, box C) — a Toffoli from `|cplex⟩` and
//! `|size ≥ T⟩` onto `|O⟩` — is kept *outside* `U_check`, so the Grover
//! driver can run `U_check`, flip, `U_check†` as in Figure 12 (it applies
//! the flip as the phase it kicks back, DESIGN §7).

use crate::grover::PhaseOracle;
use crate::layout::OracleLayout;
use qmkp_arith::{compare_le_clean, controlled_increment, load_const, popcount_into};
use qmkp_graph::{Graph, VertexSet};
use qmkp_qsim::{Circuit, Gate};

/// Per-section elementary gate cost of an oracle (the static counterpart
/// of the Table-IV runtime shares).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleSectionCost {
    /// Cost of the graph-encoding stage.
    pub graph_encoding: usize,
    /// Cost of the degree-counting stage (oracle part 1).
    pub degree_count: usize,
    /// Cost of the degree-comparison stage (oracle part 2).
    pub degree_compare: usize,
    /// Cost of the size-determination stage (oracle part 3).
    pub size_check: usize,
}

impl OracleSectionCost {
    /// Total elementary cost across all four stages.
    pub fn total(&self) -> usize {
        self.graph_encoding + self.degree_count + self.degree_compare + self.size_check
    }
}

/// A fully-built qTKP oracle for a specific `(G, k, T)`.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// The qubit layout.
    pub layout: OracleLayout,
    /// The original graph.
    graph: Graph,
    /// The forward check circuit (sections 1-4, no `|O⟩` flip).
    u_check: Circuit,
    /// `U_check†`.
    u_check_inv: Circuit,
}

impl Oracle {
    /// Builds the oracle circuit for finding k-plexes of size ≥ `t` in `g`.
    ///
    /// # Panics
    /// Panics on invalid `k` / `t` (see [`OracleLayout::new`]).
    pub fn new(g: &Graph, k: usize, t: usize) -> Self {
        let layout = OracleLayout::new(g, k, t);
        let mut c = Circuit::new(layout.width);

        // --- Challenge I: graph encoding -------------------------------
        c.begin_section("graph_encoding");
        for (j, &(u, v)) in layout.edge_pairs.iter().enumerate() {
            c.push_unchecked(Gate::ccnot(
                layout.vertices.qubit(u),
                layout.vertices.qubit(v),
                layout.edges.qubit(j),
            ));
        }

        // --- Challenge II: degree counting (oracle part 1) -------------
        c.begin_section("degree_count");
        for v in 0..layout.n {
            for e in layout.incident_edge_qubits(v) {
                controlled_increment(&mut c, e, &layout.counters[v]);
            }
        }

        // --- Challenge III: degree comparison (oracle part 2) ----------
        c.begin_section("degree_compare");
        load_const(&mut c, &layout.k_minus_1, (layout.k - 1) as u128);
        for v in 0..layout.n {
            compare_le_clean(
                &mut c,
                &layout.counters[v],
                &layout.k_minus_1,
                layout.d_flags.qubit(v),
                &layout.cmp_degree,
            );
        }
        // cplex = d_1 ∧ d_2 ∧ … ∧ d_n (Figure 9, box B).
        c.push_unchecked(Gate::mcx_pos(layout.d_flags.iter(), layout.cplex));

        // --- Challenge IV: size determination (oracle part 3) ----------
        c.begin_section("size_check");
        popcount_into(&mut c, &layout.vertices.qubits(), &layout.size);
        load_const(&mut c, &layout.t_reg, layout.t as u128);
        // size ≥ T ⇔ T ≤ size.
        compare_le_clean(
            &mut c,
            &layout.t_reg,
            &layout.size,
            layout.size_ge_t,
            &layout.cmp_size,
        );
        c.end_section();

        let u_check_inv = c.inverse();
        let oracle = Oracle {
            layout,
            graph: g.clone(),
            u_check: c,
            u_check_inv,
        };
        // Opt-in static self-verification: prove the ancilla discipline
        // and resource bounds at construction time in debug builds. The
        // symbolic pass is exact at any width, so the proof must be
        // exhaustive — an `unproven` verdict here is itself a regression.
        #[cfg(all(debug_assertions, feature = "verify"))]
        {
            let report = oracle.lint_report();
            assert!(
                !report.has_errors(),
                "oracle failed static verification:\n{}",
                report.render()
            );
            assert!(
                report.exhaustive,
                "oracle verification was not exact (proof: {}):\n{}",
                report.proof.label(),
                report.render()
            );
        }
        oracle
    }

    /// The ancilla contract of the full `U_check · flip · U_check†`
    /// sandwich: the vertex register is free input, everything else is an
    /// ancilla that must return to |0⟩ — except `|O⟩`, which carries the
    /// answer out.
    pub fn lint_spec(&self) -> qmkp_lint::AncillaSpec {
        qmkp_lint::AncillaSpec::new(
            self.layout.vertices.iter().collect(),
            vec![self.layout.oracle],
        )
    }

    /// The paper's closed-form resource model for this instance
    /// (Eq. 6/7, §IV), specialized to the layout's complement degree
    /// sequence.
    pub fn resource_model(&self) -> qmkp_lint::ResourceModel {
        let mut cdegs = vec![0usize; self.layout.n];
        for &(u, v) in &self.layout.edge_pairs {
            cdegs[u] += 1;
            cdegs[v] += 1;
        }
        qmkp_lint::qtkp_oracle_model(&cdegs, self.layout.k, self.layout.t)
    }

    /// Statically analyzes the full `U_check · flip · U_check†` circuit:
    /// structural checks, exact ancilla verification, and the closed-form
    /// resource audit, as one machine-readable report.
    #[expect(
        clippy::expect_used,
        reason = "U_check and U_check† share one layout width by construction"
    )]
    pub fn lint_report(&self) -> qmkp_lint::AnalysisReport {
        let mut full = self.u_check.clone();
        full.push_unchecked(self.flip_gate());
        full.extend(&self.u_check_inv)
            .expect("U_check and U_check† share one layout width");
        let name = format!(
            "qtkp-oracle-n{}-k{}-t{}",
            self.layout.n, self.layout.k, self.layout.t
        );
        qmkp_lint::analyze(
            &name,
            &full,
            &self.lint_spec(),
            Some(&self.resource_model()),
        )
    }

    /// The forward check circuit (`U_check`).
    pub fn u_check(&self) -> &Circuit {
        &self.u_check
    }

    /// The uncompute circuit (`U_check†`).
    pub fn u_check_inv(&self) -> &Circuit {
        &self.u_check_inv
    }

    /// The oracle-qubit flip (Figure 11, box C): Toffoli from `|cplex⟩`
    /// and `|size ≥ T⟩` onto `|O⟩`.
    pub fn flip_gate(&self) -> Gate {
        PhaseOracle::flip_gate(self)
    }

    /// The graph the oracle was built for.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The classical predicate the oracle decides: `s` is a k-plex of the
    /// original graph (⇔ k-cplex of the complement) with `|s| ≥ T`.
    pub fn predicate(&self, s: VertexSet) -> bool {
        s.len() >= self.layout.t && qmkp_graph::is_kplex(&self.graph, s, self.layout.k)
    }

    /// Per-section elementary cost of one `U_check` application.
    pub fn section_cost(&self) -> OracleSectionCost {
        let mut cost = OracleSectionCost {
            graph_encoding: 0,
            degree_count: 0,
            degree_compare: 0,
            size_check: 0,
        };
        for (name, stats) in self.u_check.section_stats() {
            match name.as_str() {
                "graph_encoding" => cost.graph_encoding = stats.elementary_cost,
                "degree_count" => cost.degree_count = stats.elementary_cost,
                "degree_compare" => cost.degree_compare = stats.elementary_cost,
                "size_check" => cost.size_check = stats.elementary_cost,
                #[expect(
                    clippy::unreachable,
                    reason = "section names are fixed by `Oracle::new`"
                )]
                other => unreachable!("unknown oracle section {other}"),
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp_arith::classical_eval;
    use qmkp_graph::gen::{gnm, paper_fig1_graph};

    /// Runs U_check classically on every vertex subset and checks the
    /// cplex / size≥T / combined flags against the graph-theoretic truth.
    fn check_oracle_exhaustively(g: &Graph, k: usize, t: usize) {
        let oracle = Oracle::new(g, k, t);
        let l = &oracle.layout;
        let gc = g.complement();
        for bits in 0..(1u128 << l.n) {
            let s = VertexSet::from_bits(bits);
            let input = bits << l.vertices.start;
            let out = classical_eval(oracle.u_check(), input);
            let cplex_flag = (out >> l.cplex) & 1 == 1;
            let size_flag = (out >> l.size_ge_t) & 1 == 1;
            assert_eq!(
                cplex_flag,
                qmkp_graph::is_kcplex(&gc, s, k),
                "cplex flag wrong for {s:?} (k={k})"
            );
            assert_eq!(size_flag, s.len() >= t, "size flag wrong for {s:?} (t={t})");
            // Vertex register is preserved.
            assert_eq!(l.vertices.extract(out), bits);
            // Uncompute restores everything.
            assert_eq!(classical_eval(oracle.u_check_inv(), out), input);
            // The combined predicate matches the flip condition.
            assert_eq!(oracle.predicate(s), cplex_flag && size_flag);
        }
    }

    #[test]
    fn oracle_is_correct_on_fig1() {
        let g = paper_fig1_graph();
        for (k, t) in [(1, 2), (2, 3), (2, 4), (3, 4)] {
            check_oracle_exhaustively(&g, k, t);
        }
    }

    #[test]
    fn oracle_is_correct_on_random_graphs() {
        for seed in 0..3 {
            let g = gnm(7, 9, seed).unwrap();
            check_oracle_exhaustively(&g, 2, 3);
        }
    }

    #[test]
    fn oracle_on_complete_graph_has_no_edge_qubits() {
        let g = Graph::complete(4).unwrap();
        let oracle = Oracle::new(&g, 1, 4);
        assert_eq!(oracle.layout.edge_pairs.len(), 0);
        // All 4 vertices form a clique = 1-plex of size 4.
        let out = classical_eval(oracle.u_check(), 0b1111);
        assert_eq!((out >> oracle.layout.cplex) & 1, 1);
        assert_eq!((out >> oracle.layout.size_ge_t) & 1, 1);
    }

    #[test]
    fn flip_gate_marks_exactly_solutions() {
        let g = paper_fig1_graph();
        let oracle = Oracle::new(&g, 2, 4);
        let l = &oracle.layout;
        let mut full = oracle.u_check().clone();
        full.push(oracle.flip_gate()).unwrap();
        full.extend(oracle.u_check_inv()).unwrap();
        for bits in 0..(1u128 << l.n) {
            let s = VertexSet::from_bits(bits);
            let input = bits << l.vertices.start;
            let out = classical_eval(&full, input);
            let o_flag = (out >> l.oracle) & 1 == 1;
            assert_eq!(o_flag, oracle.predicate(s), "oracle flag for {s:?}");
            // Everything except |O⟩ is restored.
            assert_eq!(out & !(1u128 << l.oracle), input);
        }
    }

    #[test]
    fn section_costs_are_positive_and_ordered() {
        let g = paper_fig1_graph();
        let oracle = Oracle::new(&g, 2, 4);
        let cost = oracle.section_cost();
        assert!(cost.graph_encoding > 0);
        assert!(cost.degree_count > 0);
        assert!(cost.degree_compare > 0);
        assert!(cost.size_check > 0);
        assert_eq!(cost.total(), oracle.u_check().stats().elementary_cost);
    }

    #[test]
    fn degree_count_dominates_on_denser_graphs() {
        // The paper's Table IV: degree counting is the dominant component
        // and its share grows with n.
        let g = gnm(9, 6, 1).unwrap();
        let oracle = Oracle::new(&g, 2, 4);
        let cost = oracle.section_cost();
        assert!(
            cost.degree_count > cost.degree_compare,
            "degree count should dominate comparison"
        );
        assert!(cost.degree_count > cost.size_check);
    }
}
