//! Cross-solver agreement: every exact solver in the workspace — naive
//! enumeration, branch & bound, BS branch-and-search, the gate-based qMKP,
//! the QUBO brute force and the MILP branch & bound — must find maximum
//! k-plexes of identical size, and the heuristics must never beat them.
//! `qmkp::solve`, walked and raced, must return the optimum too, and its
//! answer size must respect the problem's metamorphic relations.

use qmkp::annealer::{anneal_qubo, hybrid_solve, sqa_qubo, HybridConfig, SaConfig, SqaConfig};
use qmkp::classical::{grasp_kplex, max_kplex_bnb, max_kplex_bs, max_kplex_naive};
use qmkp::core::{qmkp as run_qmkp, QmkpConfig};
use qmkp::graph::gen::{gnm, random_permutation, relabel};
use qmkp::graph::{is_kplex, Graph};
use qmkp::milp::{minimize_qubo, BnbConfig};
use qmkp::qubo::{MkpQubo, MkpQuboParams};
use qmkp::rt::RtContext;
use qmkp::SolveConfig;
use std::time::Duration;

#[test]
fn all_exact_solvers_agree_on_random_instances() {
    for seed in 0..4 {
        let g = gnm(8, 13, seed).unwrap();
        for k in 1..=3 {
            let naive = max_kplex_naive(&g, k);
            let bnb = max_kplex_bnb(&g, k);
            let (bs, _) = max_kplex_bs(&g, k);
            let quantum = run_qmkp(&g, k, &QmkpConfig::default());
            assert_eq!(naive.len(), bnb.len(), "seed={seed} k={k} (bnb)");
            assert_eq!(naive.len(), bs.len(), "seed={seed} k={k} (bs)");
            assert_eq!(naive.len(), quantum.best.len(), "seed={seed} k={k} (qmkp)");
            assert!(is_kplex(&g, quantum.best, k));
        }
    }
}

#[test]
fn qubo_milp_and_annealers_reach_the_same_optimum() {
    let g = gnm(8, 16, 9).unwrap();
    let k = 2;
    let opt = max_kplex_naive(&g, k).len() as f64;
    let mq = MkpQubo::new(&g, MkpQuboParams { k, r: 2.0 });

    // MILP branch & bound proves the optimum.
    let milp = minimize_qubo(&mq.model, &BnbConfig::default());
    assert!(milp.proven_optimal);
    assert!(
        (milp.best_energy + opt).abs() < 1e-9,
        "MILP energy {}",
        milp.best_energy
    );

    // SA reaches it with a modest budget.
    let sa = anneal_qubo(
        &mq.model,
        &SaConfig {
            shots: 300,
            sweeps: 25,
            ..SaConfig::default()
        },
    );
    assert!(
        (sa.best_energy + opt).abs() < 1e-9,
        "SA energy {}",
        sa.best_energy
    );

    // SQA reaches it as well.
    let sqa = sqa_qubo(
        &mq.model,
        &SqaConfig {
            shots: 100,
            sweeps: 40,
            ..SqaConfig::default()
        },
    );
    assert!(
        (sqa.best_energy + opt).abs() < 1e-9,
        "SQA energy {}",
        sqa.best_energy
    );

    // The hybrid's contract: (near-)optimal within its minimum runtime.
    let hy = hybrid_solve(
        &mq.model,
        &HybridConfig {
            min_runtime: Duration::from_millis(60),
            seed: 4,
        },
    );
    assert!(
        (hy.best_energy + opt).abs() < 1e-9,
        "hybrid energy {}",
        hy.best_energy
    );
}

#[test]
fn heuristics_never_exceed_the_optimum_and_stay_feasible() {
    for seed in 0..3 {
        let g = gnm(10, 24, seed).unwrap();
        for k in 1..=3 {
            let opt = max_kplex_bnb(&g, k).len();
            let h = grasp_kplex(&g, k, 15, 0.3, seed);
            assert!(is_kplex(&g, h, k));
            assert!(h.len() <= opt);
        }
    }
}

#[test]
fn reduction_preserves_optimality_end_to_end() {
    for seed in 0..3 {
        let g = gnm(9, 17, seed + 50).unwrap();
        let plain = run_qmkp(&g, 2, &QmkpConfig::default());
        let reduced = run_qmkp(
            &g,
            2,
            &QmkpConfig {
                use_reduction: true,
                ..QmkpConfig::default()
            },
        );
        assert_eq!(plain.best.len(), reduced.best.len(), "seed={seed}");
        assert!(is_kplex(&g, reduced.best, 2));
    }
}

/// The size of `solve`'s answer, walked (`portfolio: Some(false)`) or
/// raced (`Some(true)`), after checking it is a k-plex.
fn solved_size(g: &Graph, k: usize, raced: bool) -> usize {
    let config = SolveConfig {
        portfolio: Some(raced),
        ..SolveConfig::default()
    };
    let out = qmkp::solve(g, k, &config, &RtContext::unlimited())
        .expect("an unlimited, uncancelled solve answers");
    assert!(is_kplex(g, out.best, k), "{} answer", out.backend.name());
    out.best.len()
}

/// The largest clique, by enumerating every vertex subset: independent
/// of every k-plex routine in the workspace.
fn brute_force_max_clique(g: &Graph) -> usize {
    let n = g.n();
    (0u32..1 << n)
        .filter(|&mask| {
            (0..n).all(|u| {
                mask >> u & 1 == 0 || (u + 1..n).all(|v| mask >> v & 1 == 0 || g.has_edge(u, v))
            })
        })
        .map(|mask| mask.count_ones() as usize)
        .max()
        .unwrap_or(0)
}

/// `solve` on a fixed set of 54 instances — G(n, m) with n ∈ {6, 7, 8},
/// m at ½ and ¾ of the complete graph's edge count, seeds 0–2, k = 1–3:
/// walked and raced it returns exactly the naive optimum; the size is
/// unchanged by a vertex relabelling; it never drops from k to k + 1 or
/// when one edge is added; and at k = 1 (a 1-plex is a clique) it is the
/// brute-force maximum clique.
#[test]
fn solve_is_exact_and_respects_the_metamorphic_relations() {
    for n in 6..=8 {
        let complete = n * (n - 1) / 2;
        for m in [complete / 2, complete * 3 / 4] {
            for seed in 0..3 {
                let g = gnm(n, m, seed).unwrap();
                let relabelled = relabel(&g, &random_permutation(n, seed));
                let mut denser = g.clone();
                let (u, v) = (0..n)
                    .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                    .find(|&(u, v)| !g.has_edge(u, v))
                    .expect("m is below the complete graph's edge count");
                denser.add_edge(u, v).unwrap();

                let mut smaller_k = 0;
                for k in 1..=3 {
                    let at = format!("n={n} m={m} seed={seed} k={k}");
                    let optimum = max_kplex_naive(&g, k).len();
                    let walked = solved_size(&g, k, false);
                    assert_eq!(walked, optimum, "{at}: walked");
                    assert_eq!(solved_size(&g, k, true), optimum, "{at}: raced");
                    assert_eq!(
                        solved_size(&relabelled, k, false),
                        walked,
                        "{at}: relabelled"
                    );
                    assert!(walked >= smaller_k, "{at}: smaller than at k - 1");
                    assert!(
                        solved_size(&denser, k, false) >= walked,
                        "{at}: adding edge ({u}, {v}) shrank the answer"
                    );
                    if k == 1 {
                        assert_eq!(walked, brute_force_max_clique(&g), "{at}: clique");
                    }
                    smaller_k = walked;
                }
            }
        }
    }
}
