//! Emits `BENCH_qsim.json`: compiled-kernel vs interpreted simulation
//! times for the dense backend (width-20 layered circuit) and the sparse
//! backend (a qTKP oracle circuit), with their speedups, plus the
//! overhead of running the compiled circuits under a fully-armed
//! `RtContext` (deadline + byte + op ceilings, all generous).
//!
//! Three **guards** make this a regression gate, exiting non-zero when:
//! * either backend's budgeted run costs more than
//!   `MAX_BUDGET_OVERHEAD`× its unbudgeted run,
//! * the sparse backend's scheduled speedup over the interpreter drops
//!   below `MIN_SPARSE_SCHEDULED_SPEEDUP` (the speedup the compiler
//!   reached before it gained the DAG scheduler), or
//! * attaching a [`qmkp_obs::Metrics`] sink (which switches recording
//!   on, so every kernel op becomes one labelled observation folded
//!   into a histogram) costs more than `MAX_METRICS_OVERHEAD`× the
//!   unrecorded dense scheduled run (per-kernel histograms must stay out
//!   of the hot path's way).
//!
//! The budget and metrics overheads are timed as interleaved pairs: the
//! two sides run back to back [`PAIRS`] times, alternating which side
//! goes first, and the guard reads the median of the per-pair ratios.
//! Host drift between two separately timed blocks then cannot land in
//! the ratio.
//!
//! Usage: `bench_qsim [output-path]` (default `BENCH_qsim.json` in the
//! working directory).

use qmkp_core::oracle::Oracle;
use qmkp_obs::{RunReport, Session};
use qmkp_qsim::{Circuit, CompiledCircuit, DenseState, Gate, QuantumState, SparseState};
use qmkp_rt::{Budget, RtContext};
use std::time::{Duration, Instant};

/// Runs behind each interpreted-timing median.
const SAMPLES: usize = 9;

/// Interleaved pairs behind each overhead ratio.
const PAIRS: usize = 21;

/// Budgeted / unbudgeted wall-clock ratio above which the guard fails.
const MAX_BUDGET_OVERHEAD: f64 = 1.5;

/// Floor on the sparse backend's interpreted/scheduled speedup: the
/// compiler without the DAG scheduler reached 4.04× on this instance,
/// and the scheduled compile must at least match it.
const MIN_SPARSE_SCHEDULED_SPEEDUP: f64 = 4.04;

/// With-metrics-sink / without-sink wall-clock ratio above which the
/// guard fails: per-kernel histograms must cost < 10% on the dense
/// compiled path.
const MAX_METRICS_OVERHEAD: f64 = 1.10;

/// A context whose three ceilings are all set (so every check runs its
/// full code path) but far too generous to ever trip mid-bench.
fn armed_context() -> RtContext {
    RtContext::with_budget(
        Budget::unlimited()
            .with_deadline(Duration::from_secs(3600))
            .with_max_bytes(usize::MAX)
            .with_max_ops(u64::MAX),
    )
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
    values[values.len() / 2]
}

/// Wall-clock seconds of one run of `f`.
fn secs(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Median wall-clock seconds of `SAMPLES` runs of `f`.
fn median_secs<F: FnMut()>(mut f: F) -> f64 {
    // One warm-up run outside the measurement.
    f();
    median((0..SAMPLES).map(|_| secs(&mut f)).collect())
}

/// Two sides timed as interleaved pairs.
struct Paired {
    /// Median seconds of the base side.
    base_s: f64,
    /// Median seconds of the measured side.
    measured_s: f64,
    /// Median of the per-pair `measured / base` ratios.
    ratio: f64,
}

/// Times `base` and `measured` in [`PAIRS`] back-to-back pairs,
/// alternating which side runs first, after one warm-up run of each.
/// Each side returns the seconds of its own timed region, so setup it
/// does outside that region stays out of the ratio.
fn paired(mut base: impl FnMut() -> f64, mut measured: impl FnMut() -> f64) -> Paired {
    base();
    measured();
    let (mut bases, mut measures, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        let (b, m) = if pair % 2 == 0 {
            let b = base();
            (b, measured())
        } else {
            let m = measured();
            (base(), m)
        };
        bases.push(b);
        measures.push(m);
        ratios.push(m / b);
    }
    Paired {
        base_s: median(bases),
        measured_s: median(measures),
        ratio: median(ratios),
    }
}

/// The bench circuit: an H layer, then a Toffoli ladder out and back.
fn layered_circuit(width: usize, sup: usize) -> Circuit {
    let mut c = Circuit::new(width);
    for q in 0..sup {
        c.push_unchecked(Gate::H(q));
    }
    for q in sup..width {
        c.push_unchecked(Gate::ccnot(q % sup, (q + 1) % sup, q));
    }
    for q in (sup..width).rev() {
        c.push_unchecked(Gate::ccnot(q % sup, (q + 1) % sup, q));
    }
    c
}

fn main() {
    let session = Session::from_env("bench_qsim");
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_qsim.json".to_string());

    // Dense backend: width-20 layered circuit.
    let dense_width = 20;
    let dense_circ = layered_circuit(dense_width, 6);
    let dense_sched_circ = CompiledCircuit::compile(&dense_circ).expect("bench circuits compile");
    let dense_interpreted = median_secs(|| {
        let mut s = DenseState::zero(dense_width).unwrap();
        s.run_interpreted(&dense_circ).unwrap();
        std::hint::black_box(s.probability(0));
    });
    let dense_run = || {
        secs(|| {
            let mut s = DenseState::zero(dense_width).unwrap();
            s.run_compiled(&dense_sched_circ).unwrap();
            std::hint::black_box(s.probability(0));
        })
    };
    let dense_ctx = armed_context();
    let dense_budget = paired(dense_run, || {
        secs(|| {
            let mut s = DenseState::zero(dense_width).unwrap();
            s.run_compiled_ctx(&dense_sched_circ, &dense_ctx).unwrap();
            std::hint::black_box(s.probability(0));
        })
    });
    let (dense_scheduled, dense_budgeted) = (dense_budget.base_s, dense_budget.measured_s);

    // Metrics overhead: the same dense scheduled run without, then with,
    // an attached metrics sink, attached and detached outside the timed
    // region.
    let metrics = std::sync::Arc::new(qmkp_obs::Metrics::new());
    let dense_metrics = paired(dense_run, || {
        let sink = qmkp_obs::attach(metrics.clone());
        let t = dense_run();
        drop(sink);
        t
    });
    let (dense_unmetered, dense_metered) = (dense_metrics.base_s, dense_metrics.measured_s);
    let metrics_overhead = dense_metrics.ratio;

    // Sparse backend: uniform superposition + qTKP U_check.
    let g = qmkp_graph::gen::paper_fig1_graph();
    let oracle = Oracle::new(&g, 2, 4);
    let mut sparse_circ = Circuit::new(oracle.layout.width);
    for q in oracle.layout.vertices.iter() {
        sparse_circ.push_unchecked(Gate::H(q));
    }
    sparse_circ.extend(oracle.u_check()).unwrap();
    let sparse_sched_circ = CompiledCircuit::compile(&sparse_circ).expect("bench circuits compile");
    let sparse_interpreted = median_secs(|| {
        let mut s = SparseState::zero(sparse_circ.width());
        s.run_interpreted(&sparse_circ).unwrap();
        std::hint::black_box(s.probability(0));
    });
    let sparse_ctx = armed_context();
    let sparse_budget = paired(
        || {
            secs(|| {
                let mut s = SparseState::zero(sparse_circ.width());
                s.run_compiled(&sparse_sched_circ).unwrap();
                std::hint::black_box(s.probability(0));
            })
        },
        || {
            secs(|| {
                let mut s = SparseState::zero(sparse_circ.width());
                s.run_compiled_ctx(&sparse_sched_circ, &sparse_ctx).unwrap();
                std::hint::black_box(s.probability(0));
            })
        },
    );
    let (sparse_scheduled, sparse_budgeted) = (sparse_budget.base_s, sparse_budget.measured_s);

    let dense_overhead = dense_budget.ratio;
    let sparse_overhead = sparse_budget.ratio;
    let dense_sched_stats = dense_sched_circ.stats();
    let sparse_sched_stats = sparse_sched_circ.stats();

    let json = format!(
        "{{\n  \
         \"dense\": {{\n    \
         \"circuit\": \"layered_circuit(width={dw}, sup=6)\",\n    \
         \"gates\": {dg},\n    \
         \"scheduled_ops\": {dsops},\n    \
         \"commuted_diagonals\": {dcom},\n    \
         \"interpreted_s\": {di:.6},\n    \
         \"scheduled_s\": {dsc:.6},\n    \
         \"budgeted_s\": {db:.6},\n    \
         \"budget_overhead\": {dov:.3},\n    \
         \"unmetered_s\": {dum:.6},\n    \
         \"metered_s\": {dme:.6},\n    \
         \"metrics_overhead\": {dmov:.3},\n    \
         \"scheduled_speedup\": {dssp:.2}\n  }},\n  \
         \"sparse\": {{\n    \
         \"circuit\": \"H^n + qTKP U_check (paper_fig1_graph, k=2, t=4, width={sw})\",\n    \
         \"gates\": {sg},\n    \
         \"scheduled_ops\": {ssops},\n    \
         \"commuted_diagonals\": {scom},\n    \
         \"interpreted_s\": {si:.6},\n    \
         \"scheduled_s\": {ssc:.6},\n    \
         \"budgeted_s\": {sb:.6},\n    \
         \"budget_overhead\": {sov:.3},\n    \
         \"scheduled_speedup\": {sssp:.2}\n  }},\n  \
         \"samples\": {samples},\n  \
         \"pairs\": {pairs},\n  \
         \"max_budget_overhead\": {max_ov},\n  \
         \"max_metrics_overhead\": {max_mov},\n  \
         \"min_sparse_scheduled_speedup\": {min_ssp},\n  \
         \"parallel_feature\": {par}\n}}\n",
        dw = dense_width,
        dg = dense_circ.len(),
        dsops = dense_sched_circ.len(),
        dcom = dense_sched_stats.commuted_diagonals,
        di = dense_interpreted,
        dsc = dense_scheduled,
        db = dense_budgeted,
        dov = dense_overhead,
        dum = dense_unmetered,
        dme = dense_metered,
        dmov = metrics_overhead,
        dssp = dense_interpreted / dense_scheduled,
        sw = sparse_circ.width(),
        sg = sparse_circ.len(),
        ssops = sparse_sched_circ.len(),
        scom = sparse_sched_stats.commuted_diagonals,
        si = sparse_interpreted,
        ssc = sparse_scheduled,
        sb = sparse_budgeted,
        sov = sparse_overhead,
        sssp = sparse_interpreted / sparse_scheduled,
        samples = SAMPLES,
        pairs = PAIRS,
        max_ov = MAX_BUDGET_OVERHEAD,
        max_mov = MAX_METRICS_OVERHEAD,
        min_ssp = MIN_SPARSE_SCHEDULED_SPEEDUP,
        par = qmkp_qsim::parallel_enabled(),
    );
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    print!("{json}");
    qmkp_obs::message(&format!("wrote {out_path}"));
    session.finish_with(
        RunReport::new("bench_qsim")
            .config("dense_width", dense_width)
            .config("samples", SAMPLES)
            .config("pairs", PAIRS)
            .config("parallel_feature", qmkp_qsim::parallel_enabled())
            .outcome("dense_interpreted_s", format!("{dense_interpreted:.6}"))
            .outcome(
                "dense_scheduled_speedup",
                format!("{:.2}", dense_interpreted / dense_scheduled),
            )
            .outcome("dense_budget_overhead", format!("{dense_overhead:.3}"))
            .outcome("dense_metrics_overhead", format!("{metrics_overhead:.3}"))
            .outcome("sparse_interpreted_s", format!("{sparse_interpreted:.6}"))
            .outcome(
                "sparse_scheduled_speedup",
                format!("{:.2}", sparse_interpreted / sparse_scheduled),
            )
            .outcome("sparse_budget_overhead", format!("{sparse_overhead:.3}")),
    );

    // Guard 1: budget checks must stay in the noise, not become a tax.
    for (name, overhead) in [("dense", dense_overhead), ("sparse", sparse_overhead)] {
        if overhead >= MAX_BUDGET_OVERHEAD {
            eprintln!(
                "bench_qsim: {name} budget-check overhead {overhead:.3}x exceeds \
                 the {MAX_BUDGET_OVERHEAD}x guard"
            );
            std::process::exit(1);
        }
    }

    // Guard 2: the sparse backend must hold its compiled speedup over the
    // interpreter.
    let sparse_sched_speedup = sparse_interpreted / sparse_scheduled;
    if sparse_sched_speedup < MIN_SPARSE_SCHEDULED_SPEEDUP {
        eprintln!(
            "bench_qsim: sparse scheduled speedup {sparse_sched_speedup:.2}x fell below \
             the {MIN_SPARSE_SCHEDULED_SPEEDUP}x guard"
        );
        std::process::exit(1);
    }

    // Guard 3: enabling metrics must not tax the dense compiled path.
    if metrics_overhead >= MAX_METRICS_OVERHEAD {
        eprintln!(
            "bench_qsim: dense metrics overhead {metrics_overhead:.3}x exceeds \
             the {MAX_METRICS_OVERHEAD}x guard"
        );
        std::process::exit(1);
    }
}
