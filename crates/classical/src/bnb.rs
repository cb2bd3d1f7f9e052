//! A branch & bound exact MKP solver.
//!
//! Classic include/exclude search with:
//! * the size bound `|P| + |C| ≤ |best|`,
//! * candidate filtering (a candidate stays only while `P ∪ {u}` remains
//!   a k-plex),
//! * saturation pruning: once a vertex of `P` has used all its `k − 1`
//!   allowed non-neighbours, every future addition must be its neighbour.

use qmkp_graph::{is_kplex, Graph, VertexSet};
use qmkp_rt::{RtContext, RtError};

/// How many expanded nodes pass between context polls on the budgeted
/// path (token read + amortized deadline read each poll).
const CTX_POLL_MASK: u64 = 63;
/// How many expanded nodes pass between external-incumbent polls.
const INCUMBENT_POLL_MASK: u64 = 255;

/// Outcome of a budgeted branch & bound run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BnbOutcome {
    /// The best (maximum, when the search completed) k-plex found.
    pub best: VertexSet,
    /// Search-tree nodes expanded — the effort measure a tighter verified
    /// lower bound shrinks.
    pub nodes: u64,
}

/// Finds a maximum k-plex by branch & bound.
///
/// # Panics
/// Panics if `k == 0`.
pub fn max_kplex_bnb(g: &Graph, k: usize) -> VertexSet {
    assert!(k >= 1, "k must be ≥ 1");
    bnb_inner(g, k, None, None, None)
        .expect("unbudgeted branch & bound cannot fail")
        .best
}

/// Budgeted/cancellable branch & bound with external lower bounds.
///
/// * `lower_bound` — an externally supplied incumbent (e.g. a GRASP
///   solution). It is *verified* before being trusted: an invalid or
///   smaller set is ignored, a larger verified one prunes the search
///   from node one.
/// * `incumbent` — polled every 256 nodes for a better incumbent
///   published by a concurrently running solver; each adopted set is
///   verified the same way.
///
/// The context is polled every 64 nodes, and the
/// `classical.bnb.node` failpoint fires per expanded node under the
/// `failpoints` feature.
///
/// # Errors
/// [`RtError::InvalidConfig`] if `k == 0`; otherwise a structured
/// [`RtError`] on budget exhaustion, cancellation, or an injected fault.
pub fn max_kplex_bnb_ctx(
    g: &Graph,
    k: usize,
    ctx: &RtContext,
    lower_bound: Option<VertexSet>,
    incumbent: Option<&dyn Fn() -> Option<VertexSet>>,
) -> Result<BnbOutcome, RtError> {
    if k == 0 {
        return Err(RtError::InvalidConfig("bnb: k must be ≥ 1".into()));
    }
    bnb_inner(g, k, Some(ctx), lower_bound, incumbent)
}

fn bnb_inner(
    g: &Graph,
    k: usize,
    ctx: Option<&RtContext>,
    lower_bound: Option<VertexSet>,
    incumbent: Option<&dyn Fn() -> Option<VertexSet>>,
) -> Result<BnbOutcome, RtError> {
    let span = qmkp_obs::span("classical.bnb.run");
    let mut nodes = 0u64;
    let mut best = qmkp_graph::reduce::greedy_lower_bound(g, k);
    if let Some(lb) = lower_bound {
        // Trust nothing from outside the search: verify before pruning
        // on it.
        if lb.len() > best.len() && is_kplex(g, lb, k) {
            best = lb;
        }
    }
    let mut stack = vec![(VertexSet::EMPTY, g.vertices())];
    while let Some((p, c)) = stack.pop() {
        nodes += 1;
        if let Some(ctx) = ctx {
            if let Err(e) = qmkp_rt::failpoint::check("classical.bnb.node").and_then(|()| {
                if nodes & CTX_POLL_MASK == 0 {
                    ctx.check()
                } else {
                    Ok(())
                }
            }) {
                qmkp_obs::counter("classical.bnb.nodes", &[], nodes);
                span.finish();
                return Err(e);
            }
        }
        if incumbent.is_some() && nodes & INCUMBENT_POLL_MASK == 0 {
            if let Some(found) = incumbent.and_then(|poll| poll()) {
                if found.len() > best.len() && is_kplex(g, found, k) {
                    best = found;
                }
            }
        }
        if p.len() > best.len() {
            best = p;
        }
        if p.len() + c.len() <= best.len() || c.is_empty() {
            continue;
        }
        // Branch on the candidate with the highest degree inside P ∪ C.
        let scope = p | c;
        let v = c
            .iter()
            .max_by_key(|&u| g.degree_in(u, scope))
            .expect("candidates non-empty");

        // Exclude branch.
        stack.push((p, c.without(v)));

        // Include branch: filter candidates against the grown plex.
        let p2 = p.with(v);
        let mut c2 = VertexSet::EMPTY;
        for u in c.without(v).iter() {
            if is_kplex(g, p2.with(u), k) {
                c2.insert(u);
            }
        }
        // Saturation pruning: a member that already misses k−1 neighbours
        // inside P forces every future addition to be its neighbour.
        // (Missing count is |P|−1−deg; nothing can be saturated while
        // |P| ≤ k.)
        for w in p2.iter() {
            if p2.len() - 1 - g.degree_in(w, p2) >= k - 1 {
                c2 &= g.neighbors(w);
            }
        }
        stack.push((p2, c2));
    }
    qmkp_obs::counter("classical.bnb.nodes", &[], nodes);
    span.finish();
    Ok(BnbOutcome { best, nodes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::max_kplex_naive;
    use qmkp_graph::gen::{gnm, paper_fig1_graph, planted_kplex};

    #[test]
    fn matches_naive_on_fig1() {
        let g = paper_fig1_graph();
        for k in 1..=3 {
            assert_eq!(max_kplex_bnb(&g, k).len(), max_kplex_naive(&g, k).len());
        }
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        for seed in 0..8 {
            let g = gnm(9, 14, seed).unwrap();
            for k in 1..=3 {
                let bnb = max_kplex_bnb(&g, k);
                assert!(is_kplex(&g, bnb, k));
                assert_eq!(bnb.len(), max_kplex_naive(&g, k).len(), "seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn recovers_planted_solutions() {
        let (g, plant) = planted_kplex(16, 8, 2, 0.2, 5).unwrap();
        let found = max_kplex_bnb(&g, 2);
        assert!(found.len() >= plant.len());
        assert!(is_kplex(&g, found, 2));
    }

    #[test]
    fn verified_lower_bound_strictly_reduces_node_count() {
        let g = gnm(16, 40, 2).unwrap();
        let ctx = qmkp_rt::RtContext::unlimited();
        let cold = max_kplex_bnb_ctx(&g, 2, &ctx, None, None).unwrap();
        // Hand the optimum back in as the injected bound: same answer
        // size, strictly fewer expanded nodes.
        let warm = max_kplex_bnb_ctx(&g, 2, &ctx, Some(cold.best), None).unwrap();
        assert_eq!(warm.best.len(), cold.best.len());
        assert!(
            warm.nodes < cold.nodes,
            "warm {} !< cold {}",
            warm.nodes,
            cold.nodes
        );
    }

    #[test]
    fn invalid_lower_bound_is_ignored() {
        let g = paper_fig1_graph();
        let ctx = qmkp_rt::RtContext::unlimited();
        // The full vertex set is not a 2-plex of fig-1; an unverified
        // adoption would corrupt the answer.
        let out = max_kplex_bnb_ctx(&g, 2, &ctx, Some(g.vertices()), None).unwrap();
        assert_eq!(out.best.len(), max_kplex_naive(&g, 2).len());
        assert!(is_kplex(&g, out.best, 2));
    }

    #[test]
    fn polled_incumbent_is_adopted_when_verified() {
        let g = gnm(16, 40, 2).unwrap();
        let ctx = qmkp_rt::RtContext::unlimited();
        let cold = max_kplex_bnb_ctx(&g, 2, &ctx, None, None).unwrap();
        let feed = cold.best;
        let poll = move || Some(feed);
        let warm = max_kplex_bnb_ctx(&g, 2, &ctx, None, Some(&poll)).unwrap();
        assert_eq!(warm.best.len(), cold.best.len());
        assert!(
            warm.nodes <= cold.nodes,
            "adopting the optimum cannot cost nodes"
        );
    }

    #[test]
    fn ctx_variant_rejects_bad_parameters_structurally() {
        let g = paper_fig1_graph();
        let ctx = qmkp_rt::RtContext::unlimited();
        assert!(matches!(
            max_kplex_bnb_ctx(&g, 0, &ctx, None, None),
            Err(qmkp_rt::RtError::InvalidConfig(_))
        ));
    }

    #[test]
    fn cancellation_surfaces_structurally() {
        let g = gnm(14, 40, 3).unwrap();
        let token = qmkp_rt::CancelToken::new();
        token.cancel();
        let ctx = qmkp_rt::RtContext::new(qmkp_rt::Budget::unlimited(), token);
        assert_eq!(
            max_kplex_bnb_ctx(&g, 2, &ctx, None, None),
            Err(qmkp_rt::RtError::Cancelled)
        );
    }

    #[test]
    fn handles_edge_cases() {
        let g = Graph::new(1).unwrap();
        assert_eq!(max_kplex_bnb(&g, 1).len(), 1);
        let g = Graph::complete(6).unwrap();
        assert_eq!(max_kplex_bnb(&g, 1).len(), 6);
        let g = Graph::new(5).unwrap();
        assert_eq!(max_kplex_bnb(&g, 4).len(), 4);
    }
}
