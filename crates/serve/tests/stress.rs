//! Multi-tenant stress and isolation tests for [`SolveService`].
//!
//! The CI `serve` job runs this file release-mode with
//! `QMKP_OBS_METRICS` / `QMKP_OBS_REPORT` set and `--test-threads=1`,
//! then greps `serve_cache_hits` out of the Prometheus dump and
//! validates the folded report with `obs_validate --report`. The
//! z-prefixed stress test runs last; its session records the cache and
//! lane series of its own requests.

use qmkp::core::{QmkpConfig, QtkpConfig};
use qmkp::graph::gen::{gnm, paper_fig1_graph};
use qmkp::graph::{is_kplex, Graph};
use qmkp::SolveConfig;
use qmkp_obs::Session;
use qmkp_rt::{Budget, RtError};
use qmkp_serve::{ServeError, ServiceConfig, SolveRequest, SolveService};
use std::sync::Arc;

/// A request that pins the classical lane (1 KiB byte ceiling) and
/// burns long enough in GRASP to keep a worker visibly busy.
fn slow_classical_request() -> SolveRequest {
    let g = gnm(60, 400, 7).unwrap();
    let config = SolveConfig {
        grasp_iterations: Some(10_000),
        ..SolveConfig::default()
    };
    SolveRequest::new(g, 2)
        .with_config(config)
        .with_budget(Budget::unlimited().with_max_bytes(1024))
}

#[test]
fn admission_rejects_instead_of_blocking() {
    let service = SolveService::new(ServiceConfig {
        queue_capacity: 1,
        sparse_workers: 1,
        classical_workers: 1,
        cache_bytes: 64 << 20,
        ..ServiceConfig::default()
    });
    // One slow job occupies the single classical worker, one more can
    // sit in the capacity-1 queue; a third submission within the same
    // instant must be rejected, not block this thread.
    let mut accepted = Vec::new();
    let mut rejection = None;
    for _ in 0..4 {
        match service.submit(slow_classical_request()) {
            Ok(ticket) => accepted.push(ticket),
            Err(e) => {
                rejection = Some(e);
                break;
            }
        }
    }
    let rejection = rejection.expect("a capacity-1 lane must reject within 4 instant submissions");
    assert_eq!(
        rejection,
        ServeError::QueueFull {
            lane: qmkp::PreflightLane::Classical,
            capacity: 1,
        }
    );
    assert!(accepted.len() <= 3);
    // Cancel what we queued (the running job finishes regardless) and
    // drain: every accepted request still gets exactly one response.
    for ticket in &accepted {
        ticket.cancel();
    }
    for ticket in accepted {
        let response = ticket.wait();
        match response.outcome {
            Ok(out) => assert!(is_kplex(&gnm(60, 400, 7).unwrap(), out.best, 2)),
            Err(ServeError::Rt(RtError::Cancelled)) => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
}

#[test]
fn cancellation_is_scoped_to_one_ticket() {
    let service = SolveService::new(ServiceConfig {
        queue_capacity: 8,
        sparse_workers: 1,
        classical_workers: 1,
        cache_bytes: 64 << 20,
        ..ServiceConfig::default()
    });
    // The slow job occupies the single classical worker ...
    let slow = service.submit(slow_classical_request()).unwrap();
    // ... so the victim is still queued when we cancel it ...
    let victim = service
        .submit(
            SolveRequest::new(paper_fig1_graph(), 2)
                .with_budget(Budget::unlimited().with_max_bytes(1024)),
        )
        .unwrap();
    victim.cancel();
    // ... and a bystander queued after the victim must be untouched.
    let bystander = service
        .submit(
            SolveRequest::new(paper_fig1_graph(), 2)
                .with_budget(Budget::unlimited().with_max_bytes(1024)),
        )
        .unwrap();

    let victim = victim.wait();
    assert_eq!(
        victim.outcome.unwrap_err(),
        ServeError::Rt(RtError::Cancelled),
        "a cancelled queued request must resolve to Cancelled without running"
    );
    let slow = slow.wait();
    let slow_out = slow
        .outcome
        .expect("cancelling the victim must not touch the slow job");
    assert!(is_kplex(&gnm(60, 400, 7).unwrap(), slow_out.best, 2));
    let bystander = bystander.wait();
    let bystander_out = bystander
        .outcome
        .expect("cancelling the victim must not touch later requests");
    assert!(is_kplex(&paper_fig1_graph(), bystander_out.best, 2));
}

#[test]
fn z_stress_mixed_tenants() {
    const THREADS: usize = 8;
    const REQUESTS: usize = 32;

    let session = Session::from_env("serve_stress");
    let service = Arc::new(SolveService::new(ServiceConfig {
        queue_capacity: 512,
        sparse_workers: 4,
        classical_workers: 2,
        cache_bytes: 64 << 20,
        ..ServiceConfig::default()
    }));

    // A small pool of repeating instances so the compiled-oracle cache
    // sees plenty of reuse across tenants.
    let pool: Vec<(Graph, usize)> = vec![
        (paper_fig1_graph(), 2),
        (paper_fig1_graph(), 1),
        (paper_fig1_graph(), 3),
        (gnm(7, 12, 1).unwrap(), 2),
        (gnm(7, 12, 2).unwrap(), 2),
    ];

    let mut handles = Vec::new();
    for thread in 0..THREADS {
        let service = Arc::clone(&service);
        let pool = pool.clone();
        handles.push(std::thread::spawn(move || {
            let mut responses = 0usize;
            for i in 0..REQUESTS {
                match i % 8 {
                    // An over-budget tenant: no quantum rung fits 1 KiB,
                    // the ladder degrades to the classical floor and
                    // still answers.
                    5 => {
                        let (g, k) = pool[(thread + i) % pool.len()].clone();
                        let ticket = service
                            .submit(
                                SolveRequest::new(g.clone(), k)
                                    .with_budget(Budget::unlimited().with_max_bytes(1024)),
                            )
                            .expect("512-deep queues never fill in this test");
                        let response = ticket.wait();
                        let out = response.outcome.expect("degraded, not failed");
                        assert!(out.degraded, "1 KiB budget must degrade the ladder");
                        assert!(is_kplex(&g, out.best, k));
                        responses += 1;
                    }
                    // A tenant that cancels right after submitting:
                    // the response is either a completed solve (the
                    // worker won the race) or exactly Cancelled.
                    6 => {
                        let (g, k) = pool[(thread + i) % pool.len()].clone();
                        let ticket = service
                            .submit(SolveRequest::new(g.clone(), k))
                            .expect("512-deep queues never fill in this test");
                        ticket.cancel();
                        let response = ticket.wait();
                        match response.outcome {
                            Ok(out) => assert!(is_kplex(&g, out.best, k)),
                            Err(ServeError::Rt(RtError::Cancelled)) => {}
                            other => panic!("cancelled tenant saw {other:?}"),
                        }
                        responses += 1;
                    }
                    // A misconfigured tenant is rejected synchronously
                    // with a structured error, not a panic.
                    7 => {
                        let (g, _) = pool[(thread + i) % pool.len()].clone();
                        let config = SolveConfig {
                            qmkp: QmkpConfig {
                                qtkp: QtkpConfig {
                                    max_attempts: 0, // invalid on purpose
                                    ..QtkpConfig::default()
                                },
                                ..QmkpConfig::default()
                            },
                            ..SolveConfig::default()
                        };
                        let err = service
                            .submit(SolveRequest::new(g, 2).with_config(config))
                            .expect_err("max_attempts = 0 must be rejected");
                        assert!(matches!(err, ServeError::Rt(RtError::InvalidConfig(_))));
                        responses += 1;
                    }
                    // Plain tenants: every answer is a verified k-plex.
                    // A raced request usually answers from the classical
                    // body before its quantum hedge starts, so it never
                    // reaches the cache; kind 4 walks the ladder instead,
                    // running the quantum rung through the shared cache,
                    // and its repeats hit it.
                    kind => {
                        let (g, k) = pool[(thread + i) % pool.len()].clone();
                        let walked = kind == 4;
                        let config = SolveConfig {
                            portfolio: walked.then_some(false),
                            ..SolveConfig::default()
                        };
                        let ticket = service
                            .submit(SolveRequest::new(g.clone(), k).with_config(config))
                            .expect("512-deep queues never fill in this test");
                        let response = ticket.wait();
                        let out = response.outcome.expect("unbudgeted solve succeeds");
                        assert!(is_kplex(&g, out.best, k));
                        assert!(!out.degraded, "unlimited budget never degrades");
                        if walked {
                            assert_eq!(out.backend, qmkp::SolveBackend::Sparse);
                        }
                        responses += 1;
                    }
                }
            }
            responses
        }));
    }
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, THREADS * REQUESTS, "every request got a response");

    let stats = service.cache().stats();
    assert!(
        stats.hits > 0,
        "repeating instances across tenants must hit the cache: {stats:?}"
    );
    assert!(
        stats.compiles < stats.hits + stats.misses,
        "the cache must have skipped at least one compile: {stats:?}"
    );

    let report = service.report("serve_stress");
    let json = report.to_json();
    assert!(json.contains("\"cache_hits\""));
    session.finish_with(report);
}
