//! A portfolio-raced solve — the racing quickstart.
//!
//! ```sh
//! cargo run --release --example portfolio_run
//! QMKP_OBS_METRICS=race.prom cargo run --release --example portfolio_run
//! ```
//!
//! Solves the paper's Figure 1 instance with the default configuration,
//! which races the classical body and the preflighted quantum rung under
//! one `CancelToken`: the classical body starts at once, and the quantum
//! rung starts as a hedge only if no answer has come within 2 ms. Branch
//! & bound answers this instance in microseconds, so the hedge usually
//! shows as not started (see DESIGN.md §16;
//! `SolveConfig::portfolio: Some(false)` walks the ladder instead). CI
//! runs this with `QMKP_OBS_METRICS` / `QMKP_OBS_REPORT` armed and
//! asserts the `solve_race_won` counter reaches the Prometheus dump and
//! the report's outcome carries `race_winner` and `race_not_started`.

use qmkp::obs::Session;
use qmkp::rt::RtContext;
use qmkp::solve::SolveConfig;

fn main() {
    let session = Session::from_env("portfolio_run");

    let g = qmkp::graph::gen::paper_fig1_graph();
    let k = 2;
    let config = SolveConfig::default();
    let out = match qmkp::solve(&g, k, &config, &RtContext::unlimited()) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("portfolio_run: solve failed: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "max {k}-plex of the Fig. 1 graph: {:?} (size {}) via {}",
        out.best.iter().collect::<Vec<_>>(),
        out.best.len(),
        out.backend.name()
    );
    match &out.race {
        Some(race) => println!(
            "race: winner={} staked={:?} cancelled={} faulted={} not_started={}",
            race.winner, race.launched, race.cancelled, race.faulted, race.not_started
        ),
        None => println!("race: disabled (sequential ladder)"),
    }

    session.finish_with(
        out.report("portfolio_run")
            .config("graph", "paper_fig1_graph"),
    );
}
