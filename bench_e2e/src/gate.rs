//! `gate_qmkp`: the paper's gate datasets solved one after another
//! through `qmkp::solve` on the sequential ladder (portfolio pinned
//! off), unlimited budget, default qTKP seed. One client, closed loop.

use crate::layers::{Layers, Tally};
use crate::provider::{Call, Recording};
use crate::trace::{Kind, Trace};
use crate::{Sample, Stop, Workload};
use qmkp::core::{
    exact_solution_count, solutions, CompileFresh, CompiledOracle, GroverCircuits, GroverDriver,
    Oracle, QmkpOutcome, QtkpConfig,
};
use qmkp::graph::gen::{paper_fig1_graph, paper_gate_dataset, random_permutation};
use qmkp::graph::Graph;
use qmkp::qsim::SparseState;
use qmkp::rt::RtContext;
use qmkp::solve::SolveConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One named `(graph, k)` input.
pub struct Instance {
    pub label: String,
    pub graph: Graph,
    pub k: usize,
}

/// Figure 1 (k = 2), Table II's G_{7,8}, G_{8,10}, G_{9,15}, G_{10,23}
/// (k = 2), and Table III's G_{10,37} at k = 2..5.
pub fn paper_instances() -> Vec<Instance> {
    let mut v = vec![Instance {
        label: "fig1_k2".into(),
        graph: paper_fig1_graph(),
        k: 2,
    }];
    for (n, m) in qmkp::graph::gen::GATE_DATASETS {
        v.push(Instance {
            label: format!("G{n}_{m}_k2"),
            graph: paper_gate_dataset(n, m),
            k: 2,
        });
    }
    let (n, m) = qmkp::graph::gen::GATE_DATASET_K;
    for k in 2..=5 {
        v.push(Instance {
            label: format!("G{n}_{m}_k{k}"),
            graph: paper_gate_dataset(n, m),
            k,
        });
    }
    v
}

pub struct Gate {
    instances: Vec<Instance>,
    /// Seeded order of the round robin over `instances`.
    order: Vec<usize>,
    config: SolveConfig,
}

impl Gate {
    /// The seeded inputs, not yet warmed up.
    pub fn new(seed: u64) -> Self {
        let instances = paper_instances();
        let order = random_permutation(instances.len(), seed);
        Gate {
            instances,
            order,
            config: SolveConfig {
                portfolio: Some(false),
                ..SolveConfig::default()
            },
        }
    }
}

impl Workload for Gate {
    const TAIL: f64 = 90.0;
    const ROUND: usize = 9;
    const EXACT: bool = true;
    const MIN_REQUESTS: usize = 108;
    const THREADED: bool = false;

    fn setup(seed: u64, _seconds: u64) -> Self {
        let gate = Gate::new(seed);
        // Warm-up: one solve of every instance.
        for r in 0..Self::ROUND {
            let (g, k) = gate.input(r);
            let _ = black_box(qmkp::solve(g, k, &gate.config, &RtContext::unlimited()));
        }
        gate
    }

    fn input(&self, request: usize) -> (&Graph, usize) {
        let inst = &self.instances[self.order[request % self.order.len()]];
        (&inst.graph, inst.k)
    }

    fn label(&self, request: usize) -> String {
        self.instances[self.order[request % self.order.len()]]
            .label
            .clone()
    }

    fn run(&self, first: usize, stop: &Stop) -> Vec<Sample> {
        let mut samples = Vec::new();
        let mut r = first;
        while stop.more(r) {
            let (g, k) = self.input(r);
            let t0 = Instant::now();
            let out = qmkp::solve(g, k, &self.config, &RtContext::unlimited());
            let latency = t0.elapsed();
            samples.push(Sample::from_solve(r, latency, &out));
            r += 1;
        }
        samples
    }

    fn run_traced(&self, requests: usize, trace: &mut Trace) -> (Vec<Sample>, Layers) {
        let mut tally = Tally::default();
        let mut samples = Vec::new();
        let mut solves = Vec::new();
        for r in 0..requests {
            let (g, k) = self.input(r);
            let rec = Recording::new(&CompileFresh);
            let ctx = RtContext::unlimited();
            let t0 = Instant::now();
            let out = qmkp::solve_with(g, k, &self.config, &ctx, &rec);
            let t1 = Instant::now();
            samples.push(Sample::from_solve(r, t1 - t0, &out));
            let solve = trace.record("solve", Kind::Timed, (t0, t1), None, r as u64);
            trace.label(r as u64, &self.label(r));
            solves.push((solve, rec.into_calls(), out.ok().and_then(|o| o.quantum)));
        }
        // Shadow calls run after the loop, so they do not disturb the
        // traced solves' caches.
        for (solve, calls, quantum) in &solves {
            for call in calls {
                trace_provider_call(trace, *solve, call, Kind::Timed, true, &mut tally);
            }
            if let Some(q) = quantum {
                trace_qmkp(trace, *solve, calls, q, &self.config.qmkp.qtkp, &mut tally);
            }
        }
        let mut layers = Layers::default();
        qmkp_layers(&mut layers, &tally, requests);
        layers.backend_shares(&samples);
        (samples, layers)
    }
}

/// Records one provider call as a `core.provider` span of `kind` under
/// `parent` (a timed span keeps the call's own interval). When the call
/// compiled (`fresh`), its two halves are re-timed as shadow children:
/// `Oracle::new` and `GroverCircuits::compile`.
pub fn trace_provider_call(
    trace: &mut Trace,
    parent: usize,
    call: &Call,
    kind: Kind,
    fresh: bool,
    tally: &mut Tally,
) {
    let request = trace.spans()[parent].request;
    let span = if kind == Kind::Timed {
        let interval = (call.start, call.end);
        trace.record("core.provider", kind, interval, Some(parent), request)
    } else {
        trace.child("core.provider", kind, call.end - call.start, parent)
    };
    tally.add("core.provider_s", (call.end - call.start).as_secs_f64());
    if !fresh {
        return;
    }
    let t0 = Instant::now();
    let oracle = Oracle::new(&call.graph, call.k, call.t);
    let t1 = Instant::now();
    let compiled = GroverCircuits::compile(&oracle);
    let t2 = Instant::now();
    black_box(compiled.is_ok());
    trace.child("core.oracle_build", Kind::Shadow, t1 - t0, span);
    trace.child("qsim.compile", Kind::Shadow, t2 - t1, span);
    tally.add("core.oracle_build_s", (t1 - t0).as_secs_f64());
    tally.add("qsim.compile_s", (t2 - t1).as_secs_f64());
    if let Some(a) = &call.artifact {
        let c = a.circuits();
        for cc in [c.u_check(), c.u_check_inv(), c.diffusion()] {
            tally.add("qsim.compile.gates", cc.stats().source_gates as f64);
            tally.add("qsim.compile.ops", cc.stats().ops as f64);
        }
    }
}

/// Adds a qMKP solve's layers under `parent`: the kernel sections the
/// outcome reports, and per probe the shadow-timed census, state
/// initialisation and readout on the probe's own compiled artifact.
pub fn trace_qmkp(
    trace: &mut Trace,
    parent: usize,
    calls: &[Call],
    out: &QmkpOutcome,
    qtkp: &QtkpConfig,
    tally: &mut Tally,
) {
    for (bucket, d) in out.times.buckets() {
        let name = format!("qsim.kernel.{bucket}");
        trace.child(&name, Kind::Reported, *d, parent);
        tally.add(&format!("{name}_s"), d.as_secs_f64());
        tally.add("qsim.kernel_s", d.as_secs_f64());
    }
    for probe in &out.calls {
        tally.add("core.qmkp.probes", 1.0);
        tally.add("core.grover.iterations", probe.iterations as f64);
        tally.add("empty_probes", f64::from(u8::from(probe.found.is_none())));
        let artifact = calls
            .iter()
            .find(|c| c.t == probe.t)
            .and_then(|c| c.artifact.as_ref());
        if let Some(a) = artifact {
            shadow_probe(trace, parent, a, probe.iterations, qtkp, tally);
        }
    }
}

/// Re-times the probe layers that have no seam inside a solve.
fn shadow_probe(
    trace: &mut Trace,
    parent: usize,
    artifact: &CompiledOracle,
    iterations: usize,
    qtkp: &QtkpConfig,
    tally: &mut Tally,
) {
    let oracle = artifact.oracle_arc();
    let t0 = Instant::now();
    black_box(exact_solution_count(&oracle));
    let sols = solutions(&oracle);
    let census = t0.elapsed();
    let ctx = RtContext::unlimited();
    let t0 = Instant::now();
    let driver = GroverDriver::<_, SparseState>::try_new_precompiled_ctx(
        Arc::clone(&oracle),
        artifact.circuits().clone(),
        &ctx,
    );
    let init = t0.elapsed();
    let Ok(mut driver) = driver else {
        return;
    };
    let support = driver.support_size();
    driver.iterate_n(iterations);
    let t0 = Instant::now();
    if !sols.is_empty() {
        black_box(driver.probability_of_sets(&sols));
    }
    let mut rng = StdRng::seed_from_u64(qtkp.seed);
    for _ in 0..qtkp.max_attempts {
        if driver.oracle().predicate(driver.measure(&mut rng)) {
            break;
        }
    }
    let readout = t0.elapsed();
    trace.child("core.census", Kind::Shadow, census, parent);
    trace.child("core.grover.init", Kind::Shadow, init, parent);
    trace.child("core.grover.readout", Kind::Shadow, readout, parent);
    tally.add("core.census_s", census.as_secs_f64());
    tally.add("core.grover.init_s", init.as_secs_f64());
    tally.add("core.grover.readout_s", readout.as_secs_f64());

    let c = artifact.circuits();
    let ops = c.u_check().len() + 1 + c.u_check_inv().len() + c.diffusion().len();
    let passes = (iterations * ops) as f64;
    let wide = c.u_check().narrow_ops().is_none();
    // A sparse entry is a basis key plus a complex amplitude.
    let entry_bytes = if wide { 16 + 16 } else { 8 + 16 };
    tally.add("qsim.kernel.passes", passes);
    tally.add(
        "qsim.kernel.bytes_computed",
        passes * (support * entry_bytes) as f64,
    );
    tally.add("wide_probes", f64::from(u8::from(wide)));
}

/// Sets the qsim/core per-layer metrics from a tally over `requests`.
pub fn qmkp_layers(layers: &mut Layers, tally: &Tally, requests: usize) {
    layers.per_request(
        tally,
        requests,
        &[
            "qsim.kernel_s",
            "qsim.kernel.graph_encoding_s",
            "qsim.kernel.degree_count_s",
            "qsim.kernel.degree_compare_s",
            "qsim.kernel.size_check_s",
            "qsim.kernel.flip_s",
            "qsim.kernel.diffusion_s",
            "qsim.kernel.other_s",
            "qsim.kernel.passes",
            "qsim.kernel.bytes_computed",
            "core.provider_s",
            "core.oracle_build_s",
            "qsim.compile_s",
            "qsim.compile.gates",
            "qsim.compile.ops",
            "core.census_s",
            "core.grover.init_s",
            "core.grover.readout_s",
            "core.grover.iterations",
            "core.qmkp.probes",
        ],
    );
    layers.set(
        "qsim.kernel.wide_key_share",
        tally.ratio("wide_probes", "core.qmkp.probes"),
    );
    layers.set(
        "core.qmkp.empty_probe_share",
        tally.ratio("empty_probes", "core.qmkp.probes"),
    );
}
