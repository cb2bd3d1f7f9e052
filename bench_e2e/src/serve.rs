//! `serve_mix`: a seeded request stream through `qmkp_serve::SolveService`
//! with one worker per lane, default `SolveConfig` (the portfolio races
//! automatically) and unlimited budgets. One client, closed loop: each
//! race already runs three racers on their own threads.
//!
//! Stream: half repeats of the `gate_qmkp` instances (cache hits once
//! warm); a quarter fresh dense graphs — the complement of `gnm(n, m)`
//! with n = 8..12 and m = n..2n-1 — at k = 2, which land on the sparse
//! lane and miss the cache; a quarter fresh `gnm(24, 180)` at k = 3,
//! which land on the classical lane and are answered by GRASP.

use crate::gate::{paper_instances, qmkp_layers, trace_provider_call, trace_qmkp, Instance};
use crate::layers::{Layers, Tally};
use crate::provider::Recording;
use crate::trace::{Kind, Trace};
use crate::{Sample, Stop, Workload};
use qmkp::classical::bnb::max_kplex_bnb_ctx;
use qmkp::classical::grasp::grasp_kplex;
use qmkp::core::{qmkp_ctx_with, CompileFresh, OracleProvider};
use qmkp::graph::gen::gnm;
use qmkp::graph::Graph;
use qmkp::qsim::SparseState;
use qmkp::qubo::{MkpQubo, MkpQuboParams};
use qmkp::rt::{Budget, RtContext};
use qmkp::solve::{SolveBackend, SolveConfig, SolveOutcome};
use qmkp::{preflight_lane, PreflightLane};
use qmkp_serve::{CacheStats, ServeError, ServiceConfig, SolveRequest, SolveService};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Client threads of the closed loop. One: a request's race already runs
/// three racer threads on the benchmark's one CPU, and a second client
/// would time the scheduler more than the service.
const CLIENTS: usize = 1;

/// Stream requests generated per second of run time: about one and a
/// half times the fastest rate the service sustained for one client, so
/// a run never exhausts its stream.
const STREAM_PER_SECOND: usize = 400;

/// Byte ceiling of the compiled-oracle cache: about three and a half
/// times what the repeated instances occupy after the warm-up (28
/// oracles, 1.1 MiB), leaving room for about fifty fresh graphs, so the
/// cache fills early in a run and evicts from then on.
const CACHE_BYTES: usize = 4 << 20;

/// The GRASP settings of `qmkp::portfolio`'s classical racer and the
/// ladder's floor: restarts of the quick pass that seeds branch & bound,
/// restarts of a full run, and the greedy/random balance.
const QUICK_GRASP_ITERATIONS: usize = 8;
const FLOOR_GRASP_ITERATIONS: usize = 64;
const GRASP_ALPHA: f64 = 0.3;

/// Where a stream request's graph comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A `gate_qmkp` instance, by index.
    Repeat(usize),
    /// A fresh dense graph for the sparse lane.
    FreshSparse,
    /// A fresh `gnm(24, 180)` for the classical lane.
    FreshClassical,
}

/// One stream request: the graph's index in `graphs`, `k`, and source.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    graph: usize,
    k: usize,
    source: Source,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seeded request stream. Request `i` depends only on `(seed, i)`.
pub struct Stream {
    gate: Vec<Instance>,
    /// The gate graphs first, then one graph per fresh request.
    graphs: Vec<Graph>,
    reqs: Vec<Req>,
}

impl Stream {
    pub fn generate(seed: u64, len: usize) -> Stream {
        let gate = paper_instances();
        let mut graphs: Vec<Graph> = gate.iter().map(|i| i.graph.clone()).collect();
        let mut reqs = Vec::with_capacity(len);
        for i in 0..len {
            let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(i as u64)));
            let roll: f64 = rng.gen();
            let req = if roll < 0.5 {
                let j = rng.gen_range(0..gate.len());
                Req {
                    graph: j,
                    k: gate[j].k,
                    source: Source::Repeat(j),
                }
            } else {
                let (g, k, source) = fresh(&mut rng, roll < 0.75);
                graphs.push(g);
                Req {
                    graph: graphs.len() - 1,
                    k,
                    source,
                }
            };
            reqs.push(req);
        }
        Stream { gate, graphs, reqs }
    }

    pub fn input(&self, i: usize) -> (&Graph, usize) {
        let r = self.reqs[i];
        (&self.graphs[r.graph], r.k)
    }

    pub fn source(&self, i: usize) -> Source {
        self.reqs[i].source
    }

    pub fn len(&self) -> usize {
        self.reqs.len()
    }
}

/// A fresh sparse-lane (`sparse`) or classical-lane graph. Dense draws
/// whose oracle would exceed 128 qubits (so the service would route
/// them to the classical lane) are redrawn.
fn fresh(rng: &mut StdRng, sparse: bool) -> (Graph, usize, Source) {
    if sparse {
        loop {
            let n = rng.gen_range(8..=12);
            let m = rng.gen_range(n..=2 * n - 1);
            let g = gnm(n, m, rng.gen())
                .expect("m ≤ C(n, 2) for n ≥ 8")
                .complement();
            if preflight_lane(&g, 2, &Budget::unlimited()) == PreflightLane::Sparse {
                return (g, 2, Source::FreshSparse);
            }
        }
    } else {
        let g = gnm(24, 180, rng.gen()).expect("180 ≤ C(24, 2)");
        (g, 3, Source::FreshClassical)
    }
}

pub struct ServeMix {
    stream: Stream,
    service: SolveService,
}

/// A request's raw result, before it is reduced to a [`Sample`].
struct Done {
    request: usize,
    start: Instant,
    end: Instant,
    outcome: Result<SolveOutcome, ServeError>,
}

impl ServeMix {
    fn call(&self, request: usize) -> Done {
        let (g, k) = self.stream.input(request);
        let start = Instant::now();
        let outcome = self
            .service
            .submit(SolveRequest::new(g.clone(), k))
            .and_then(|ticket| ticket.wait().outcome);
        Done {
            request,
            start,
            end: Instant::now(),
            outcome,
        }
    }

    /// Runs stream requests from `first` with [`CLIENTS`] closed-loop
    /// clients until `stop` says no more, in request order.
    fn drive(&self, first: usize, stop: &Stop) -> Vec<Done> {
        let next = AtomicUsize::new(first);
        let mut done: Vec<Done> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let r = next.fetch_add(1, Ordering::Relaxed);
                            if !stop.more(r) {
                                return mine;
                            }
                            mine.push(self.call(r));
                        }
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client threads do not panic"))
                .collect()
        });
        done.sort_by_key(|d| d.request);
        done
    }

    fn label(&self, request: usize) -> String {
        match self.stream.source(request) {
            Source::Repeat(j) => self.stream.gate[j].label.clone(),
            Source::FreshSparse => "fresh_sparse".into(),
            Source::FreshClassical => "fresh_classical".into(),
        }
    }
}

fn sample(d: &Done) -> Sample {
    Sample::from_solve(d.request, d.end - d.start, &d.outcome)
}

impl Workload for ServeMix {
    const TAIL: f64 = 90.0;
    const ROUND: usize = 1;
    const EXACT: bool = false;
    const MIN_REQUESTS: usize = 1000;
    const THREADED: bool = true;

    fn setup(seed: u64, seconds: u64) -> Self {
        let len = STREAM_PER_SECOND * seconds as usize + crate::min_requests::<Self>();
        let stream = Stream::generate(seed, len);
        let service = SolveService::new(ServiceConfig {
            queue_capacity: 64,
            dense_workers: 1,
            sparse_workers: 1,
            classical_workers: 1,
            cache_bytes: CACHE_BYTES,
        });
        // Warm-up, one request at a time: every repeated instance solved
        // to the end on the sequential ladder, so the cache holds every
        // oracle its probes compile (a race would stop after the first
        // few, at a point set by thread timing), then one raced request
        // of each fresh kind from outside the stream.
        let ladder = SolveConfig {
            portfolio: Some(false),
            ..SolveConfig::default()
        };
        let mut warm: Vec<SolveRequest> = stream
            .gate
            .iter()
            .map(|i| SolveRequest::new(i.graph.clone(), i.k).with_config(ladder.clone()))
            .collect();
        let mut rng = StdRng::seed_from_u64(splitmix64(!seed));
        for sparse in [true, false] {
            let (g, k, _) = fresh(&mut rng, sparse);
            warm.push(SolveRequest::new(g, k));
        }
        for request in warm {
            if let Ok(ticket) = service.submit(request) {
                black_box(ticket.wait().outcome.is_ok());
            }
        }
        ServeMix { stream, service }
    }

    fn input(&self, request: usize) -> (&Graph, usize) {
        self.stream.input(request)
    }

    fn label(&self, request: usize) -> String {
        ServeMix::label(self, request)
    }

    fn stream_len(&self) -> usize {
        self.stream.len()
    }

    fn run(&self, first: usize, stop: &Stop) -> Vec<Sample> {
        self.drive(first, stop).iter().map(sample).collect()
    }

    fn run_traced(&self, requests: usize, trace: &mut Trace) -> (Vec<Sample>, Layers) {
        let before = self.service.cache().stats();
        let done = self.drive(0, &Stop::exactly(requests));
        let after = self.service.cache().stats();
        let mut tally = Tally::default();
        // The shadow calls run after the loop, one at a time, so they
        // neither perturb the traced requests nor contend with each
        // other.
        for d in &done {
            self.shadow(d, trace, &mut tally);
        }
        let samples: Vec<Sample> = done.iter().map(sample).collect();
        let n = samples.len();
        let mut layers = Layers::default();
        qmkp_layers(&mut layers, &tally, n);
        layers.backend_shares(&samples);
        cache_layers(&mut layers, before, after, n);
        layers.per_request(
            &tally,
            n,
            &[
                "serve.queue_wait_s",
                "serve.rejected",
                "classical.bnb_s",
                "classical.bnb.nodes",
                "classical.grasp_s",
                "qubo.build_s",
                "qubo.decode_s",
                "annealer.sqa_s",
            ],
        );
        for racer in ["dense", "sparse", "sqa", "classical"] {
            layers.set(
                &format!("rt.race.win_share.{racer}"),
                tally.ratio(&format!("won.{racer}"), "races"),
            );
        }
        layers.set("rt.race.cancelled", tally.ratio("cancelled", "races"));
        layers.set("rt.race.win_margin_s", tally.ratio("margin_s", "margins"));
        layers.set(
            "rt.race.overhead_s",
            tally.ratio("race_overhead_s", "races"),
        );
        (samples, layers)
    }
}

fn cache_layers(layers: &mut Layers, before: CacheStats, after: CacheStats, n: usize) {
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    let per = |v: u64| v as f64 / n.max(1) as f64;
    layers.set(
        "serve.cache.hit_ratio",
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        },
    );
    layers.set(
        "serve.cache.compiles",
        per(after.compiles - before.compiles),
    );
    layers.set(
        "serve.cache.evictions",
        per(after.evictions - before.evictions),
    );
}

impl ServeMix {
    /// Spans for one traced request. The client's wall time is real;
    /// the in-worker time is a shadow `solve_with` on the same input
    /// with the provider the worker used (the service's cache for
    /// repeats, a fresh compile for fresh graphs); the queue wait is the
    /// difference; the race overhead is the in-worker time minus a
    /// shadow call of the winner's public entry.
    fn shadow(&self, d: &Done, trace: &mut Trace, tally: &mut Tally) {
        let r = d.request;
        let id = r as u64;
        let root = trace.record("request", Kind::Timed, (d.start, d.end), None, id);
        trace.label(id, &self.label(r));
        let out = match &d.outcome {
            Ok(out) => out,
            Err(e) => {
                tally.add(
                    "serve.rejected",
                    f64::from(u8::from(matches!(e, ServeError::QueueFull { .. }))),
                );
                return;
            }
        };
        let (g, k) = self.stream.input(r);
        let cached = matches!(self.stream.source(r), Source::Repeat(_));
        let provider: &dyn OracleProvider = if cached {
            self.service.cache()
        } else {
            &CompileFresh
        };
        let config = SolveConfig::default();
        let ctx = RtContext::unlimited();
        let t0 = Instant::now();
        black_box(qmkp::solve_with(g, k, &config, &ctx, provider).is_ok());
        let in_worker = t0.elapsed();
        let latency = d.end - d.start;
        let wait = latency.saturating_sub(in_worker);
        trace.child("serve.queue_wait", Kind::Shadow, wait, root);
        tally.add("serve.queue_wait_s", wait.as_secs_f64());
        let solve = trace.child("solve", Kind::Shadow, in_worker, root);

        let entry = self.winner_entry(g, k, out, provider, cached, trace, solve, tally);
        if let Some(race) = &out.race {
            tally.add("races", 1.0);
            tally.add(&format!("won.{}", race.winner), 1.0);
            tally.add("cancelled", race.cancelled as f64);
            if let Some(m) = race.win_margin {
                tally.add("margins", 1.0);
                tally.add("margin_s", m.as_secs_f64());
            }
            let overhead = in_worker.as_secs_f64() - entry;
            tally.add("race_overhead_s", overhead);
            if overhead > 0.0 {
                trace.child(
                    "rt.race",
                    Kind::Shadow,
                    std::time::Duration::from_secs_f64(overhead),
                    solve,
                );
            }
        }
    }

    /// Shadow-times the public entry of the rung that answered, under
    /// `solve`; returns its seconds.
    #[allow(clippy::too_many_arguments)]
    fn winner_entry(
        &self,
        g: &Graph,
        k: usize,
        out: &SolveOutcome,
        provider: &dyn OracleProvider,
        cached: bool,
        trace: &mut Trace,
        solve: usize,
        tally: &mut Tally,
    ) -> f64 {
        let config = SolveConfig::default();
        let seed = config.qmkp.qtkp.seed;
        let ctx = RtContext::unlimited();
        let t0 = Instant::now();
        match out.backend {
            // The classical racer below the exact threshold: a quick
            // GRASP seeds branch & bound.
            SolveBackend::ClassicalExact => {
                let quick = grasp_kplex(g, k, QUICK_GRASP_ITERATIONS, GRASP_ALPHA, seed);
                let t1 = Instant::now();
                let bnb = max_kplex_bnb_ctx(g, k, &ctx, Some(quick), None);
                let t2 = Instant::now();
                trace.child("classical.grasp", Kind::Shadow, t1 - t0, solve);
                trace.child("classical.bnb", Kind::Shadow, t2 - t1, solve);
                tally.add("classical.grasp_s", (t1 - t0).as_secs_f64());
                tally.add("classical.bnb_s", (t2 - t1).as_secs_f64());
                if let Ok(b) = bnb {
                    tally.add("classical.bnb.nodes", b.nodes as f64);
                }
            }
            // Above it, raced or as the ladder's floor: GRASP alone.
            SolveBackend::ClassicalHeuristic => {
                black_box(grasp_kplex(g, k, FLOOR_GRASP_ITERATIONS, GRASP_ALPHA, seed));
                let t = t0.elapsed();
                trace.child("classical.grasp", Kind::Shadow, t, solve);
                tally.add("classical.grasp_s", t.as_secs_f64());
            }
            SolveBackend::Sqa => {
                let q = MkpQubo::new(g, MkpQuboParams { k, r: 2.0 });
                let t1 = Instant::now();
                let sqa = qmkp::annealer::sqa_qubo(
                    &q.model,
                    &qmkp::annealer::SqaConfig {
                        seed,
                        ..qmkp::annealer::SqaConfig::default()
                    },
                );
                let t2 = Instant::now();
                black_box(q.decode_polished(crate::anneal::head_bits(&sqa.best)));
                let t3 = Instant::now();
                for (name, a, b) in [
                    ("qubo.build", t0, t1),
                    ("annealer.sqa", t1, t2),
                    ("qubo.decode", t2, t3),
                ] {
                    trace.child(name, Kind::Shadow, b - a, solve);
                    tally.add(&format!("{name}_s"), (b - a).as_secs_f64());
                }
            }
            SolveBackend::Dense | SolveBackend::Sparse => {
                let rec = Recording::new(provider);
                let q = qmkp_ctx_with::<SparseState>(g, k, &config.qmkp, &ctx, None, &rec);
                let t = t0.elapsed();
                let span = trace.child("core.qmkp", Kind::Shadow, t, solve);
                let calls = rec.into_calls();
                for call in &calls {
                    trace_provider_call(trace, span, call, Kind::Shadow, !cached, tally);
                }
                if let Ok(q) = q {
                    trace_qmkp(trace, span, &calls, &q, &config.qmkp.qtkp, tally);
                }
            }
        }
        t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digests(s: &Stream) -> Vec<u64> {
        (0..s.len()).map(|i| s.input(i).0.digest()).collect()
    }

    #[test]
    fn the_same_seed_regenerates_identical_inputs() {
        let a = Stream::generate(11, 400);
        let b = Stream::generate(11, 400);
        assert_eq!(digests(&a), digests(&b));
        let ks = |s: &Stream| (0..s.len()).map(|i| s.input(i).1).collect::<Vec<_>>();
        assert_eq!(ks(&a), ks(&b));
        // A longer stream extends, never reshuffles, a shorter one.
        let long = Stream::generate(11, 800);
        assert_eq!(digests(&a), digests(&long)[..400]);
    }

    #[test]
    fn a_different_seed_changes_the_fresh_instances() {
        let a = Stream::generate(11, 400);
        let b = Stream::generate(12, 400);
        let fresh = |s: &Stream| -> Vec<u64> {
            (0..s.len())
                .filter(|&i| !matches!(s.source(i), Source::Repeat(_)))
                .map(|i| s.input(i).0.digest())
                .collect()
        };
        let (fa, fb) = (fresh(&a), fresh(&b));
        assert!(!fa.is_empty() && !fb.is_empty());
        assert!(fa.iter().all(|d| !fb.contains(d)), "no fresh graph shared");
    }

    #[test]
    fn the_mix_lands_on_the_intended_lanes_in_the_intended_shares() {
        let s = Stream::generate(5, 2000);
        let budget = Budget::unlimited();
        let mut counts = [0usize; 3];
        for i in 0..s.len() {
            let (g, k) = s.input(i);
            let lane = preflight_lane(g, k, &budget);
            let slot = match s.source(i) {
                Source::Repeat(_) => 0,
                Source::FreshSparse => 1,
                Source::FreshClassical => 2,
            };
            let want = if slot == 2 {
                PreflightLane::Classical
            } else {
                PreflightLane::Sparse
            };
            assert_eq!(lane, want, "request {i}");
            counts[slot] += 1;
        }
        let share = |c: usize| c as f64 / s.len() as f64;
        assert!((share(counts[0]) - 0.5).abs() < 0.05);
        assert!((share(counts[1]) - 0.25).abs() < 0.05);
        assert!((share(counts[2]) - 0.25).abs() < 0.05);
    }
}
