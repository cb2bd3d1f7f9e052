//! GRASP — greedy randomized adaptive search for MKP.
//!
//! The approximation family of the paper's related work (Gujjula &
//! Balasundaram; Miao et al.): repeat {randomized greedy construction →
//! local search} and keep the best. Used in this workspace as a fast
//! incumbent provider for the exact solvers and as an extra baseline.

use qmkp_graph::plex::{greedy_extend, is_kplex};
use qmkp_graph::{Graph, VertexSet};
use qmkp_rt::{RtContext, RtError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Runs GRASP for `iterations` rounds with restricted-candidate-list
/// parameter `alpha ∈ [0, 1]` (0 = pure greedy, 1 = pure random) and a
/// seed. Returns the best k-plex found.
///
/// # Panics
/// Panics if `k == 0` or `alpha` is outside `[0, 1]`.
pub fn grasp_kplex(g: &Graph, k: usize, iterations: usize, alpha: f64, seed: u64) -> VertexSet {
    assert!(k >= 1, "k must be ≥ 1");
    assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
    grasp_kplex_ctx(g, k, iterations, alpha, seed, &RtContext::unlimited())
        .expect("unbudgeted GRASP cannot fail")
}

/// Budgeted/cancellable GRASP.
///
/// The search [`grasp_kplex`] runs (it calls this under an unlimited
/// context), plus: the context (and, under the `failpoints` feature, the
/// `classical.grasp.iter` site) is polled once per restart.
///
/// Invalid parameters return [`RtError::InvalidConfig`] instead of
/// panicking.
pub fn grasp_kplex_ctx(
    g: &Graph,
    k: usize,
    iterations: usize,
    alpha: f64,
    seed: u64,
    ctx: &RtContext,
) -> Result<VertexSet, RtError> {
    if k == 0 {
        return Err(RtError::InvalidConfig("grasp: k must be ≥ 1".into()));
    }
    if !(0.0..=1.0).contains(&alpha) {
        return Err(RtError::InvalidConfig(format!(
            "grasp: alpha must be in [0, 1], got {alpha}"
        )));
    }
    let span = qmkp_obs::span("classical.grasp.run");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best = VertexSet::EMPTY;
    for _ in 0..iterations.max(1) {
        if let Err(e) = qmkp_rt::failpoint::check("classical.grasp.iter").and_then(|()| ctx.check())
        {
            span.finish();
            return Err(e);
        }
        qmkp_obs::counter("classical.grasp.restarts", &[], 1);
        let p = construct(g, k, alpha, &mut rng);
        let p = local_search(g, k, p);
        if p.len() > best.len() {
            best = p;
        }
    }
    qmkp_obs::gauge("classical.grasp.best_size", &[], best.len() as f64);
    span.finish();
    debug_assert!(is_kplex(g, best, k));
    Ok(best)
}

/// Randomized greedy construction: repeatedly add a random vertex from the
/// restricted candidate list (the top `⌈alpha·|cands|⌉` extendable
/// vertices by degree, at least 1).
fn construct<R: Rng>(g: &Graph, k: usize, alpha: f64, rng: &mut R) -> VertexSet {
    let mut p = VertexSet::EMPTY;
    loop {
        let mut cands: Vec<usize> = (0..g.n())
            .filter(|&v| !p.contains(v) && is_kplex(g, p.with(v), k))
            .collect();
        if cands.is_empty() {
            return p;
        }
        cands.sort_by_key(|&v| std::cmp::Reverse(g.degree_in(v, p) * 100 + g.degree(v)));
        let rcl = ((alpha * cands.len() as f64).ceil() as usize).clamp(1, cands.len());
        let v = *cands[..rcl].choose(rng).expect("rcl non-empty");
        p.insert(v);
    }
}

/// (1,1)-swap local search: try to remove one vertex and add two.
fn local_search(g: &Graph, k: usize, mut p: VertexSet) -> VertexSet {
    let mut improved = true;
    while improved {
        improved = false;
        // First: plain extension (may be possible after swaps).
        let extended = greedy_extend(g, p, k);
        if extended.len() > p.len() {
            p = extended;
            improved = true;
            continue;
        }
        'outer: for out in p.iter() {
            let without = p.without(out);
            let additions: Vec<usize> = (0..g.n())
                .filter(|&v| !p.contains(v) && is_kplex(g, without.with(v), k))
                .collect();
            for (i, &a) in additions.iter().enumerate() {
                for &b in &additions[i + 1..] {
                    let candidate = without.with(a).with(b);
                    if is_kplex(g, candidate, k) {
                        p = candidate;
                        improved = true;
                        break 'outer;
                    }
                }
            }
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::max_kplex_naive;
    use qmkp_graph::gen::{gnm, paper_fig1_graph, planted_kplex};

    #[test]
    fn result_is_always_a_kplex() {
        for seed in 0..4 {
            let g = gnm(12, 30, seed).unwrap();
            for k in 1..=3 {
                let p = grasp_kplex(&g, k, 10, 0.3, seed);
                assert!(is_kplex(&g, p, k));
                assert!(!p.is_empty());
            }
        }
    }

    #[test]
    fn finds_the_optimum_on_small_graphs() {
        let g = paper_fig1_graph();
        let p = grasp_kplex(&g, 2, 30, 0.3, 7);
        assert_eq!(p.len(), max_kplex_naive(&g, 2).len());
    }

    #[test]
    fn recovers_planted_solutions() {
        let (g, plant) = planted_kplex(20, 9, 2, 0.2, 3).unwrap();
        let p = grasp_kplex(&g, 2, 40, 0.3, 11);
        assert!(p.len() >= plant.len(), "{} < {}", p.len(), plant.len());
    }

    #[test]
    fn pure_greedy_is_deterministic() {
        let g = gnm(10, 20, 1).unwrap();
        let a = grasp_kplex(&g, 2, 5, 0.0, 1);
        let b = grasp_kplex(&g, 2, 5, 0.0, 2);
        assert_eq!(a, b, "alpha = 0 ignores randomness");
    }

    #[test]
    fn ctx_variant_matches_legacy() {
        let g = gnm(12, 30, 2).unwrap();
        let ctx = qmkp_rt::RtContext::unlimited();
        let got = grasp_kplex_ctx(&g, 2, 10, 0.3, 5, &ctx).unwrap();
        assert_eq!(got, grasp_kplex(&g, 2, 10, 0.3, 5));
    }

    #[test]
    fn ctx_variant_rejects_bad_parameters_structurally() {
        let g = paper_fig1_graph();
        let ctx = qmkp_rt::RtContext::unlimited();
        assert!(matches!(
            grasp_kplex_ctx(&g, 0, 1, 0.3, 0, &ctx),
            Err(qmkp_rt::RtError::InvalidConfig(_))
        ));
        assert!(matches!(
            grasp_kplex_ctx(&g, 2, 1, 1.5, 0, &ctx),
            Err(qmkp_rt::RtError::InvalidConfig(_))
        ));
    }

    #[test]
    fn ctx_variant_surfaces_cancellation() {
        let g = paper_fig1_graph();
        let token = qmkp_rt::CancelToken::new();
        token.cancel();
        let ctx = qmkp_rt::RtContext::new(qmkp_rt::Budget::unlimited(), token);
        assert_eq!(
            grasp_kplex_ctx(&g, 2, 10, 0.3, 0, &ctx),
            Err(qmkp_rt::RtError::Cancelled)
        );
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        let g = paper_fig1_graph();
        let _ = grasp_kplex(&g, 2, 1, 1.5, 0);
    }
}
