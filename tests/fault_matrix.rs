//! The failpoint matrix: every named fault-injection site in the
//! workspace is armed in turn, and the layer hosting it must surface a
//! structured [`RtError::Faulted`] naming that site — never a panic, and
//! never a silently wrong result. Where the host supports checkpoints,
//! the fault must additionally leave a checkpoint that resumes to the
//! bit-identical uninterrupted answer once the fault is cleared.
//!
//! Run with `cargo test --features failpoints --test fault_matrix`; the
//! CI `faults` job does exactly that.
#![cfg(feature = "failpoints")]

use qmkp::core::{qmkp_ctx, quantum_count_ctx, QmkpCheckpoint, QmkpConfig, QmkpProbe};
use qmkp::qsim::SparseState;
use qmkp::rt::{failpoint, RtContext, RtError};
use qmkp::solve::SolveConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn faulted(site: &str) -> RtError {
    RtError::Faulted { site: site.into() }
}

/// The gate-pipeline sites, armed one at a time under a full `qmkp`
/// search; each must produce `Faulted` carrying its own name, plus a
/// checkpoint that resumes cleanly after the fault clears.
#[test]
fn every_gate_pipeline_site_faults_structurally_and_resumes() {
    let _guard = failpoint::exclusive();
    let g = qmkp::graph::gen::paper_fig1_graph();
    let config = QmkpConfig::default();
    let straight = qmkp_ctx::<SparseState>(&g, 2, &config, &RtContext::unlimited(), None)
        .expect("unlimited context cannot be interrupted");

    for site in [
        "core.qmkp.probe",
        "core.grover.iterate",
        "qsim.run.op",
        "qsim.sparse.alloc",
    ] {
        failpoint::reset();
        // Pass one hit first so the fault lands mid-run, not at the door.
        failpoint::arm(site, 1);
        let interrupted = qmkp_ctx::<SparseState>(&g, 2, &config, &RtContext::unlimited(), None)
            .expect_err("armed site must interrupt the search");
        assert_eq!(interrupted.error, faulted(site), "site {site}");
        assert!(
            failpoint::hits(site).unwrap_or(0) >= 2,
            "site {site} was never consulted"
        );

        failpoint::reset();
        let resumed = qmkp_ctx::<SparseState>(
            &g,
            2,
            &config,
            &RtContext::unlimited(),
            Some(&interrupted.checkpoint),
        )
        .expect("fault cleared: resume must complete");
        assert_eq!(resumed.best, straight.best, "site {site}");
        assert_eq!(
            resumed.error_probability.to_bits(),
            straight.error_probability.to_bits(),
            "site {site}"
        );
        assert_eq!(
            resumed.total_iterations, straight.total_iterations,
            "site {site}"
        );
    }
    failpoint::reset();
}

/// The quantum-counting sites: QPE entry and the dense-state allocation
/// it performs.
#[test]
fn counting_sites_fault_structurally() {
    let _guard = failpoint::exclusive();
    for site in ["core.counting.qpe", "qsim.dense.alloc"] {
        failpoint::reset();
        failpoint::arm(site, 0);
        let mut rng = StdRng::seed_from_u64(7);
        let err = quantum_count_ctx(3, 2, 5, &mut rng, &RtContext::unlimited())
            .expect_err("armed site must abort the count");
        assert_eq!(err, faulted(site), "site {site}");
    }
    failpoint::reset();
}

/// With `QMKP_RT_CHECKPOINT_DIR` set, an interrupt also spills its
/// checkpoint to disk; reloading the *file* (as a restarted process
/// would, having lost the in-memory `Interrupted`) must resume to the
/// bit-identical uninterrupted answer.
#[test]
fn spilled_checkpoint_resumes_bit_identically_from_disk() {
    use qmkp::rt::Checkpoint as _;
    let _guard = failpoint::exclusive();
    let g = qmkp::graph::gen::paper_fig1_graph();
    let config = QmkpConfig::default();
    let straight = qmkp_ctx::<SparseState>(&g, 2, &config, &RtContext::unlimited(), None)
        .expect("unlimited context cannot be interrupted");

    let dir = std::env::temp_dir().join(format!("qmkp_ckpt_spill_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("QMKP_RT_CHECKPOINT_DIR", &dir);
    failpoint::reset();
    failpoint::arm("core.qmkp.probe", 1);
    let interrupted = qmkp_ctx::<SparseState>(&g, 2, &config, &RtContext::unlimited(), None)
        .expect_err("armed site must interrupt the search");
    std::env::remove_var("QMKP_RT_CHECKPOINT_DIR");
    failpoint::reset();

    // A restarted process only has the directory: pick the newest spill
    // (the `<pid>-<seq>` filename ordering is chronological here).
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("the interrupt must have created the spill dir")
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    files.sort();
    let newest = files.last().expect("the interrupt must have spilled");
    let from_disk: QmkpCheckpoint =
        qmkp::rt::load_checkpoint(newest).expect("spilled checkpoint must parse");
    assert_eq!(
        from_disk.to_json(),
        interrupted.checkpoint.to_json(),
        "the disk spill must round-trip the in-memory checkpoint exactly"
    );
    let resumed =
        qmkp_ctx::<SparseState>(&g, 2, &config, &RtContext::unlimited(), Some(&from_disk))
            .expect("fault cleared: resume from disk must complete");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(resumed.best, straight.best);
    assert_eq!(
        resumed.error_probability.to_bits(),
        straight.error_probability.to_bits()
    );
    assert_eq!(resumed.total_iterations, straight.total_iterations);
}

/// A faulted quantum pipeline inside `solve` is first *retried* (the
/// fault is transient, so the runtime's retry loop resumes from the
/// checkpoint and counts `rt.retries`), and only once the policy is
/// exhausted degrades to the classical floor: the answer is still a
/// valid k-plex and the outcome is flagged.
#[test]
fn faulted_pipeline_degrades_inside_solve() {
    let _guard = failpoint::exclusive();
    failpoint::reset();
    // `arm(site, n)` passes n hits then faults every subsequent hit, so
    // the fault persists across retry attempts and the policy exhausts.
    failpoint::arm("core.grover.iterate", 0);
    let collector = std::sync::Arc::new(qmkp::obs::Collector::for_current_thread());
    let obs_guard = qmkp::obs::attach(collector.clone());
    let g = qmkp::graph::gen::paper_fig1_graph();
    // Portfolio pinned off: this test asserts the *sequential* ladder's
    // retry-then-degrade accounting, which a concurrent race would
    // short-circuit (a heuristic racer wins before the retries exhaust).
    let config = SolveConfig {
        portfolio: Some(false),
        ..SolveConfig::default()
    };
    let out = qmkp::solve(&g, 2, &config, &RtContext::unlimited())
        .expect("degradation absorbs injected faults");
    drop(obs_guard);
    assert!(out.degraded);
    assert_eq!(out.degraded_because, Some(faulted("core.grover.iterate")));
    assert!(qmkp::graph::is_kplex(&g, out.best, 2));
    // The default policy allows 3 attempts; both re-attempts must have
    // been counted before the ladder degraded.
    assert_eq!(collector.counter_total("rt.retries"), 2);
    assert_eq!(collector.counter_total("rt.degradations"), 1);
    failpoint::reset();
}

/// An interrupt *inside* a probe's Grover phase must checkpoint the
/// completed iterations ([`QmkpCheckpoint::probe`]) and resume from that
/// iteration boundary — bit-identical to the uninterrupted run, never
/// restarting the probe at iteration zero.
#[test]
fn interrupt_inside_a_probe_resumes_from_the_iteration_boundary() {
    let _guard = failpoint::exclusive();
    failpoint::reset();
    let g = qmkp::graph::gen::paper_fig1_graph();
    let config = QmkpConfig::default();
    let straight = qmkp_ctx::<SparseState>(&g, 2, &config, &RtContext::unlimited(), None)
        .expect("unlimited context cannot be interrupted");
    // Find a probe that runs at least two Grover iterations (on fig-1
    // that is the t = 4 probe) and fault on its *last* iteration: the
    // checkpoint must record every iteration completed before it. A
    // zero-iterations-done interrupt is indistinguishable from a probe
    // boundary, so it would not exercise intra-probe resume.
    let mut offset = 0u64;
    let mut target = None;
    for call in &straight.calls {
        if call.iterations >= 2 {
            target = Some((call.t, call.iterations));
            break;
        }
        offset += call.iterations as u64;
    }
    let (t, iterations) =
        target.expect("fig-1 must have a probe with at least two Grover iterations");
    let done = iterations - 1;

    failpoint::arm("core.grover.iterate", offset + done as u64);
    let interrupted = qmkp_ctx::<SparseState>(&g, 2, &config, &RtContext::unlimited(), None)
        .expect_err("armed iterate site must interrupt inside the probe");
    assert_eq!(interrupted.error, faulted("core.grover.iterate"));
    assert_eq!(
        interrupted.checkpoint.probe,
        Some(QmkpProbe {
            t,
            iterations_done: done,
        }),
        "the checkpoint must carry the intra-probe position"
    );

    failpoint::reset();
    let resumed = qmkp_ctx::<SparseState>(
        &g,
        2,
        &config,
        &RtContext::unlimited(),
        Some(&interrupted.checkpoint),
    )
    .expect("fault cleared: intra-probe resume must complete");
    assert_eq!(resumed.best, straight.best);
    assert_eq!(
        resumed.error_probability.to_bits(),
        straight.error_probability.to_bits()
    );
    assert_eq!(resumed.total_iterations, straight.total_iterations);
}

/// Races run per site until the armed site is hit. The classical racer
/// starts with every race, so its sites are hit in the first; over 30
/// debug and 30 release runs of the matrix below, every sparse site was
/// hit in the first race too, so 50 races leave a miss negligible.
const RACES_PER_SITE: usize = 50;

/// GRASP restarts for the classical racer when a test needs the sparse
/// racer to reach its sites. On fig-1, exact branch & bound answers in
/// microseconds, long before the sparse hedge is due to start, so the
/// sparse racer never runs and its sites are never consulted. Forcing
/// GRASP (exact threshold 0) with this many restarts keeps the classical
/// lane busy past the hedge's delay, and GRASP polls the cancel token on
/// every restart, so the lane still stops as soon as the sparse racer
/// wins.
const SLOW_CLASSICAL_GRASP_ITERATIONS: usize = 20_000;

/// A forced race whose classical lane is the slow GRASP run above.
fn race_with_slow_classical() -> SolveConfig {
    SolveConfig {
        portfolio: Some(true),
        exact_threshold: Some(0),
        grasp_iterations: Some(SLOW_CLASSICAL_GRASP_ITERATIONS),
        ..SolveConfig::default()
    }
}

/// Any single racer faulting must not cost the caller the answer: the
/// race returns a verified winner from a surviving racer and accounts
/// the casualty on the `solve.race.faulted` metric.
#[test]
fn single_racer_faults_still_yield_a_verified_winner() {
    let _guard = failpoint::exclusive();
    let g = qmkp::graph::gen::paper_fig1_graph();
    let forced = SolveConfig {
        portfolio: Some(true),
        ..SolveConfig::default()
    };
    // Fig-1 is under the exact threshold, so only a forced GRASP body
    // reaches the GRASP site.
    let forced_grasp = SolveConfig {
        exact_threshold: Some(0),
        ..forced.clone()
    };
    let slow_classical = race_with_slow_classical();
    for (site, racer, config) in [
        ("core.qmkp.probe", "sparse", &slow_classical),
        ("core.grover.iterate", "sparse", &slow_classical),
        ("qsim.run.op", "sparse", &slow_classical),
        ("qsim.sparse.alloc", "sparse", &slow_classical),
        ("classical.grasp.iter", "classical", &forced_grasp),
        ("classical.bnb.node", "classical", &forced),
    ] {
        // An `after = 0` arm faults the racer on its first site hit. A
        // racer cancelled by an earlier win may never reach its site (the
        // sparse racer polls the token before its first kernel op
        // consults `qsim.run.op`), so race until the site is hit; every
        // race that hit it must count the racer as faulted.
        let mut fault_observed = false;
        for _attempt in 0..RACES_PER_SITE {
            failpoint::reset();
            failpoint::arm(site, 0);
            let metrics = std::sync::Arc::new(qmkp::obs::Metrics::new());
            let guard = qmkp::obs::attach(metrics.clone());
            let out = qmkp::solve(&g, 2, config, &RtContext::unlimited())
                .expect("a surviving racer must still answer");
            drop(guard);
            assert!(qmkp::graph::is_kplex(&g, out.best, 2), "site {site}");
            let race = out.race.expect("a forced portfolio must race");
            assert_ne!(race.winner, racer, "the faulted racer cannot win ({site})");
            if failpoint::hits(site).unwrap_or(0) >= 1 {
                let snap = metrics.snapshot();
                assert!(
                    snap.value_of("solve.race.faulted", &[("racer", racer)]) >= 1.0,
                    "site {site} was hit but racer {racer} was not counted as faulted"
                );
                assert!(race.faulted >= 1, "site {site}");
                fault_observed = true;
                break;
            }
        }
        assert!(
            fault_observed,
            "site {site}: racer {racer} never faulted across {RACES_PER_SITE} races"
        );
    }
    failpoint::reset();
}

/// Every racer failing must surface as the aggregate error naming each
/// racer's own failure in staking order — never a panic, never a bare
/// first-error.
#[test]
fn all_racers_failing_yields_an_aggregate_error() {
    let _guard = failpoint::exclusive();
    failpoint::reset();
    failpoint::arm("core.qmkp.probe", 0); // kills the sparse racer
    failpoint::arm("classical.bnb.node", 0); // kills the classical racer
    let g = qmkp::graph::gen::paper_fig1_graph();
    let config = SolveConfig {
        portfolio: Some(true),
        ..SolveConfig::default()
    };
    let err = qmkp::solve(&g, 2, &config, &RtContext::unlimited())
        .expect_err("with every racer dead there is no answer");
    match err {
        RtError::AllRacersFailed { failures } => {
            let names: Vec<&str> = failures.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, ["sparse", "classical"]);
            let expected = [
                ("sparse", "core.qmkp.probe"),
                ("classical", "classical.bnb.node"),
            ];
            for ((name, e), (_, site)) in failures.iter().zip(expected) {
                assert_eq!(e, &faulted(site), "racer {name}");
            }
        }
        other => panic!("expected AllRacersFailed, got {other}"),
    }
    failpoint::reset();
}

/// A panic injected through one racer's oracle provider is contained to
/// that racer: the classical racer still answers and the casualty is a
/// structural fault, not a crashed process.
#[test]
fn provider_panic_is_contained_to_the_quantum_racer() {
    struct PanickingProvider;
    impl qmkp::core::OracleProvider for PanickingProvider {
        fn compiled_oracle(
            &self,
            _g: &qmkp::graph::Graph,
            _k: usize,
            _t: usize,
            _ctx: &RtContext,
        ) -> Result<std::sync::Arc<qmkp::core::CompiledOracle>, RtError> {
            panic!("injected oracle-provider panic");
        }
    }

    let _guard = failpoint::exclusive();
    failpoint::reset();
    let g = qmkp::graph::gen::paper_fig1_graph();
    let config = race_with_slow_classical();
    let out = qmkp::solve_with(&g, 2, &config, &RtContext::unlimited(), &PanickingProvider)
        .expect("the classical racer survives a panicking provider");
    assert!(qmkp::graph::is_kplex(&g, out.best, 2));
    let race = out.race.expect("a forced portfolio must race");
    assert_ne!(race.winner, "sparse", "the panicking racer cannot win");
    // The panic fires on the sparse racer's first oracle compilation,
    // as soon as the hedge starts 2 ms in: long before the slow
    // classical lane (about 14 ms of GRASP in a release build) can win
    // and cancel it.
    assert!(race.faulted >= 1, "the panic must be accounted as a fault");
}
