//! A cache hit skips oracle compilation entirely: the second of two
//! walked fig-1 solves through one [`OracleCache`] compiles no gates.

use qmkp::graph::gen::paper_fig1_graph;
use qmkp::{solve_with, SolveConfig};
use qmkp_obs::Collector;
use qmkp_rt::RtContext;
use qmkp_serve::OracleCache;
use std::sync::Arc;

#[test]
fn a_cache_hit_compiles_no_gates() {
    let collector = Arc::new(Collector::for_current_thread());
    let _recording = qmkp_obs::attach(collector.clone());
    let (g, cache) = (paper_fig1_graph(), OracleCache::new(64 << 20));
    // Walked, not raced: a classical racer could win before the quantum
    // racer reaches the compiler.
    let config = SolveConfig {
        portfolio: Some(false),
        ..SolveConfig::default()
    };
    let solve = || solve_with(&g, 2, &config, &RtContext::unlimited(), &cache).unwrap();

    let cold = solve();
    let gates = collector.counter_total("qsim.compile.gates");
    let compiles = cache.stats().compiles;
    assert!(gates > 0, "the cold solve compiles");

    let warm = solve();
    assert_eq!(collector.counter_total("qsim.compile.gates"), gates);
    assert_eq!(cache.stats().compiles, compiles);
    assert!(cache.stats().hits > 0);
    assert_eq!(warm.best, cold.best);
}
