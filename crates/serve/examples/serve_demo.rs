//! Serves the paper's fig-1 instance to a handful of simulated tenants
//! and prints each response plus the cache's hit/miss ledger.
//!
//! ```text
//! cargo run -p qmkp-serve --example serve_demo
//! ```
//!
//! Set `QMKP_OBS=1` (or `QMKP_OBS_REPORT=serve_demo.json`,
//! `QMKP_OBS_METRICS=serve_demo.prom`) to capture the run's telemetry.

use qmkp::graph::gen::paper_fig1_graph;
use qmkp::SolveConfig;
use qmkp_obs::Session;
use qmkp_serve::{ServiceConfig, SolveRequest, SolveService};

fn main() {
    let session = Session::from_env("serve_demo");
    let service = SolveService::new(ServiceConfig::default());

    // Three tenants per k, each walking the ladder so the quantum rung
    // runs: the first compiles the oracles, the repeats ride the cache.
    // (A raced request, the default, usually answers from branch & bound
    // before its quantum hedge starts, and never reaches the cache.)
    let walked = SolveConfig {
        portfolio: Some(false),
        ..SolveConfig::default()
    };
    let mut tickets = Vec::new();
    for round in 0..3 {
        for k in 1..=3 {
            let request = SolveRequest::new(paper_fig1_graph(), k).with_config(walked.clone());
            let ticket = service
                .submit(request)
                .expect("default queues are deep enough for 9 requests");
            tickets.push((round, k, ticket));
        }
    }

    for (round, k, ticket) in tickets {
        let lane = ticket.lane();
        let response = ticket.wait();
        match response.outcome {
            Ok(out) => println!(
                "round {round} k={k} [{} lane] -> |best| = {} via {}{}",
                lane.name(),
                out.best.len(),
                out.backend.name(),
                if out.degraded { " (degraded)" } else { "" },
            ),
            Err(e) => println!("round {round} k={k} [{} lane] -> error: {e}", lane.name()),
        }
    }

    let stats = service.cache().stats();
    println!(
        "cache: {} hits, {} misses, {} compiles, {} evictions, {} bytes resident",
        stats.hits, stats.misses, stats.compiles, stats.evictions, stats.bytes
    );
    session.finish_with(service.report("serve_demo"));
}
