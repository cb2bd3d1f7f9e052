//! `bench_e2e` — the repository's end-to-end benchmark.
//!
//! ```text
//! bench_e2e --workload <gate_qmkp|serve_mix|anneal_qamkp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from the seed, sets up several times
//! (the median is `setup_s`), then drives the program's public entry
//! points in a closed loop for the given seconds. Every answer is
//! checked against an independent exact reference after the timing.
//! With `--trace 0` the last stdout line is the JSON result with the
//! end-to-end metrics; with `--trace 1` a second, traced pass over the
//! same inputs prints the per-layer table and reports the per-layer
//! metrics instead. See `README.md` next to this file.

mod anneal;
mod gate;
mod hostspeed;
mod layers;
mod provider;
mod reference;
mod serve;
mod stats;
mod trace;

use layers::Layers;
use qmkp::graph::{Graph, VertexSet};
use qmkp::solve::{SolveBackend, SolveOutcome};
use reference::{judge, Quality, Reference, ReferenceMismatch, Verdict};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Trace;

const USAGE: &str =
    "usage: bench_e2e --workload <gate_qmkp|serve_mix|anneal_qamkp> --seed <n> --seconds <s> --trace <0|1>";

/// How many times the untraced run sets up, spread over the timed loop;
/// `setup_s` is the median.
const SETUP_REPS: usize = 8;

/// Environment knobs that change the measured program, by prefix.
const REFUSED_KNOBS: [(&str, &str); 4] = [
    (
        "QMKP_PORTFOLIO",
        "overrides the solve configuration's portfolio choice",
    ),
    ("QMKP_QSIM_SCHEDULER", "switches the circuit compile mode"),
    ("QMKP_RT_", "imposes runtime budgets or checkpoint spills"),
    ("QMKP_OBS", "turns on the program's own tracing"),
];

/// The first set variable among `vars` that [`REFUSED_KNOBS`] names,
/// with the reason it is refused.
fn refused_knob(
    vars: impl IntoIterator<Item = (String, String)>,
) -> Option<(String, &'static str)> {
    vars.into_iter().find_map(|(name, _)| {
        REFUSED_KNOBS
            .iter()
            .find(|(prefix, _)| name.starts_with(prefix))
            .map(|&(_, why)| (name, why))
    })
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut flags: BTreeMap<String, String> = BTreeMap::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|n| ["workload", "seed", "seconds", "trace"].contains(n))
                .ok_or_else(|| format!("unknown argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            flags.insert(name.to_string(), value);
        }
        let get = |name: &str| {
            flags
                .get(name)
                .cloned()
                .ok_or_else(|| format!("missing --{name}"))
        };
        let number = |name: &str| -> Result<u64, String> {
            get(name)?
                .parse()
                .map_err(|_| format!("--{name} needs a whole number"))
        };
        let workload = get("workload")?;
        if !["gate_qmkp", "serve_mix", "anneal_qamkp"].contains(&workload.as_str()) {
            return Err(format!("unknown workload `{workload}`"));
        }
        let seconds = number("seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        let trace = match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        };
        Ok(Args {
            workload,
            seed: number("seed")?,
            seconds,
            trace,
        })
    }
}

/// One request as its client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position in the workload's request stream.
    pub request: usize,
    /// Submit to answer (or to the error).
    pub latency: Duration,
    /// Submit to the first feasible answer the request produced.
    pub first_result: Duration,
    /// The answer, or `None` for an error or a refused admission.
    pub answer: Option<VertexSet>,
    /// Which rung produced the answer, when a solve did.
    pub backend: Option<SolveBackend>,
}

impl Sample {
    /// A sample from a `qmkp::solve`-shaped result. The first feasible
    /// answer is qMKP's progressive first result when a quantum rung
    /// answered, else the final answer.
    pub fn from_solve<E>(request: usize, latency: Duration, out: &Result<SolveOutcome, E>) -> Self {
        let (answer, backend, first) = match out {
            Ok(o) => (
                Some(o.best),
                Some(o.backend),
                o.quantum
                    .as_ref()
                    .and_then(|q| q.first_result)
                    .map(|(_, d)| d),
            ),
            Err(_) => (None, None, None),
        };
        Sample {
            request,
            latency,
            first_result: first.unwrap_or(latency).min(latency),
            answer,
            backend,
        }
    }
}

/// When a closed loop stops issuing requests: after the deadline, on a
/// round boundary, once at least `min` requests were issued — or at the
/// hard deadline, `limit`, or the end of the current segment, whichever
/// comes first.
#[derive(Clone)]
pub struct Stop {
    deadline: Instant,
    hard: Instant,
    min: usize,
    round: usize,
    limit: usize,
    segment_end: Option<Instant>,
}

impl Stop {
    fn new(seconds: f64, min: usize, round: usize, limit: usize) -> Stop {
        let now = Instant::now();
        Stop {
            deadline: now + Duration::from_secs_f64(seconds),
            hard: now + Duration::from_secs_f64(seconds + 60.0),
            min,
            round: round.max(1),
            limit,
            segment_end: None,
        }
    }

    /// The same rule, also ending `length` from now.
    fn segment(&self, length: Duration) -> Stop {
        Stop {
            segment_end: Some(Instant::now() + length),
            ..self.clone()
        }
    }

    /// A loop that issues exactly `n` requests.
    fn exactly(n: usize) -> Stop {
        let now = Instant::now();
        Stop {
            deadline: now,
            hard: now + Duration::from_secs(3600),
            min: n,
            round: 1,
            limit: n,
            segment_end: None,
        }
    }

    /// Whether request number `issued` (0-based) should be issued.
    pub fn more(&self, issued: usize) -> bool {
        let now = Instant::now();
        issued < self.limit
            && now < self.hard
            && self.segment_end.is_none_or(|end| now < end)
            && (issued < self.min || !issued.is_multiple_of(self.round) || now < self.deadline)
    }
}

/// A benchmark workload: seeded inputs, a set-up, a timed closed loop,
/// and a traced pass over the same inputs.
pub trait Workload: Sized {
    /// The percentile reported as `latency_tail_s`.
    const TAIL: f64;
    /// Requests per round of the stream; loops stop on round boundaries.
    const ROUND: usize;
    /// Whether every answer must be optimal (only exact solvers answer).
    const EXACT: bool;
    /// Fewest requests a run completes; the quality metrics are computed
    /// over this prefix of the stream. At least enough for [`Self::TAIL`].
    const MIN_REQUESTS: usize;
    /// Whether each request runs on several threads (a service and its
    /// racers). Their wait for each other on the benchmark's one CPU,
    /// not the CPU's speed, sets such a workload's run times, so those
    /// are reported raw rather than at nominal host speed; and its many
    /// short requests make `solves_per_s` and `latency_tail_s` medians
    /// over stretches of the run (segments, [`TAIL_WINDOW`]-request
    /// windows), which a burst of host noise moves less than whole-run
    /// figures.
    const THREADED: bool;
    /// Generates the inputs from the seed, starts what the workload
    /// serves from, and warms it up.
    fn setup(seed: u64, seconds: u64) -> Self;
    /// The graph and `k` of stream request `request`.
    fn input(&self, request: usize) -> (&Graph, usize);
    /// A short label of the instance behind stream request `request`.
    fn label(&self, request: usize) -> String;
    /// How many stream requests exist.
    fn stream_len(&self) -> usize {
        usize::MAX
    }
    /// The closed loop from stream request `first` until `stop`.
    fn run(&self, first: usize, stop: &Stop) -> Vec<Sample>;
    /// The first `requests` stream requests again, with spans.
    fn run_traced(&self, requests: usize, trace: &mut Trace) -> (Vec<Sample>, Layers);
}

/// Fewest requests a run must complete, in whole rounds, and never too
/// few for the tail percentile (which also covers the median).
fn min_requests<W: Workload>() -> usize {
    W::MIN_REQUESTS
        .max(stats::samples_needed(W::TAIL))
        .div_ceil(W::ROUND)
        * W::ROUND
}

/// Requests per window of a windowed `latency_tail_s`: twice the
/// fewest a p90 needs.
const TAIL_WINDOW: usize = 200;

/// The checked outcome of one pass.
struct Evaluation {
    /// Over every request issued.
    all: Quality,
    /// Over the first [`min_requests`] requests of the stream: the
    /// inputs the seed determines, whatever the run's length.
    prefix: Quality,
    /// Latencies and times to first result, failed requests as `None`,
    /// grouped by instance label.
    latencies: BTreeMap<String, Vec<Option<Duration>>>,
    firsts: BTreeMap<String, Vec<Option<Duration>>>,
    /// Valid answers below the optimum.
    suboptimal: usize,
    /// Per sample, in order: whether it was a verified answer.
    verified: Vec<bool>,
    /// Per sample, in order: its latency, failed requests as `None`.
    in_order: Vec<Option<Duration>>,
}

fn evaluate<W: Workload>(w: &W, samples: &[Sample]) -> Result<Evaluation, ReferenceMismatch> {
    let mut reference = Reference::default();
    let prefix_len = min_requests::<W>();
    let mut e = Evaluation {
        all: Quality::default(),
        prefix: Quality::default(),
        latencies: BTreeMap::new(),
        firsts: BTreeMap::new(),
        suboptimal: 0,
        verified: Vec::with_capacity(samples.len()),
        in_order: Vec::with_capacity(samples.len()),
    };
    for s in samples {
        let (g, k) = w.input(s.request);
        let verdict = judge(&mut reference, g, k, s.answer)?;
        e.all.add(verdict);
        if s.request < prefix_len {
            e.prefix.add(verdict);
        }
        let ok = match verdict {
            Verdict::Failed => false,
            Verdict::Answered { size, optimum } => {
                e.suboptimal += usize::from(size < optimum);
                true
            }
        };
        e.verified.push(ok);
        e.in_order.push(ok.then_some(s.latency));
        let label = w.label(s.request);
        let lat = e.latencies.entry(label.clone()).or_default();
        lat.push(ok.then_some(s.latency));
        e.firsts
            .entry(label)
            .or_default()
            .push(ok.then_some(s.first_result));
    }
    Ok(e)
}

/// All latencies of all instances, ascending.
fn pooled(groups: &BTreeMap<String, Vec<Option<Duration>>>) -> Vec<f64> {
    let all: Vec<Option<Duration>> = groups.values().flatten().copied().collect();
    stats::sorted_seconds(&all)
}

/// The median over instances of each instance's median. A round robin
/// over an even number of instances puts the pooled median on the edge
/// between two instances, where it jumps between them with noise; the
/// median of medians is the mean of those two instances' own medians.
fn median_of_medians(groups: &BTreeMap<String, Vec<Option<Duration>>>) -> f64 {
    let medians: Vec<f64> = groups
        .values()
        .map(|g| stats::median(&stats::sorted_seconds(g)))
        .collect();
    stats::median(&medians)
}

impl Evaluation {
    /// Whether the pass's answers are correct: no failed or invalid
    /// answer, and on exact workloads every answer optimal.
    fn correct(&self, exact: bool) -> bool {
        self.all.failed == 0 && (!exact || self.suboptimal == 0)
    }
}

/// The process's peak resident set size so far.
fn peak_rss_bytes() -> u64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable struct laid out as Linux's
    // `struct rusage` on 64-bit targets (two timevals, then fourteen
    // longs), and `RUSAGE_SELF` (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    // Linux reports ru_maxrss in KiB.
    u64::try_from(usage.maxrss).unwrap_or(0) * 1024
}

/// The JSON result line.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, String)>,
}

impl Report {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            // JSON has no infinity: a percentile landing on a failed
            // request reads as the largest finite number.
            let value = if value.is_finite() { *value } else { f64::MAX };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Space-separated items.
fn joined(items: impl IntoIterator<Item = String>) -> String {
    items.into_iter().collect::<Vec<_>>().join(" ")
}

/// How often each distinct key occurs, in key order.
fn counts<K: Ord>(keys: impl IntoIterator<Item = K>) -> BTreeMap<K, usize> {
    let mut hist = BTreeMap::new();
    for key in keys {
        *hist.entry(key).or_default() += 1;
    }
    hist
}

/// Histogram of the qMKP oracle widths of the requests run (`>128`
/// when the oracle does not fit the simulator's 128-bit keys).
fn width_histogram<W: Workload>(w: &W, samples: &[Sample]) -> String {
    let widths = counts(samples.iter().map(|s| {
        let (g, k) = w.input(s.request);
        qmkp::core::OracleLayout::try_new(g, k, 1).map(|l| l.width)
    }));
    // `None` sorts first; list it last, as the widest.
    let (fit, wide): (Vec<_>, Vec<_>) = widths.iter().partition(|(w, _)| w.is_some());
    joined(fit.iter().chain(&wide).map(|(w, n)| match w {
        Some(w) => format!("{w}:{n}"),
        None => format!(">128:{n}"),
    }))
}

/// Requests per rung that answered them (`pipeline` for answers that
/// did not come through `qmkp::solve`).
fn rung_census(samples: &[Sample]) -> String {
    let rungs = counts(samples.iter().map(|s| match (s.backend, s.answer) {
        (Some(b), _) => b.name(),
        (None, Some(_)) => "pipeline",
        (None, None) => "failed",
    }));
    joined(rungs.iter().map(|(r, n)| format!("{r}:{n}")))
}

/// Largest complete graph whose k = 2 oracle fits the dense rung.
fn dense_rung_reach() -> String {
    let mut line = String::new();
    for n in 1..=5 {
        let g = Graph::complete(n).expect("small complete graphs are valid");
        let w = qmkp::core::OracleLayout::try_new(&g, 2, 1).map_or(0, |l| l.width);
        let fits = w <= qmkp::qsim::MAX_DENSE_QUBITS;
        let _ = write!(line, " K{n}={w}{}", if fits { "" } else { "(no)" });
    }
    format!(
        "dense rung reach (k=2 oracle qubits vs MAX_DENSE_QUBITS={}):{line}",
        qmkp::qsim::MAX_DENSE_QUBITS
    )
}

/// Confines this process, and every thread it starts from now on, to
/// the last CPU it may run on; returns that CPU. On a shared virtual
/// machine the hypervisor deschedules one vCPU at a time, and work that
/// spreads over several (a race's racers) waits for whichever is
/// descheduled: on two vCPUs, `serve_mix` lost about twice the stolen
/// share of its throughput. On one CPU a stolen slice stops all the
/// work at once, so a run loses the stolen time and no more.
fn pin_to_one_cpu() -> Option<usize> {
    // glibc's `cpu_set_t`: a bit mask over 1024 CPUs.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let size = WORDS * std::mem::size_of::<u64>();
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is read only.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

fn print_provenance(args: &Args, cpus: usize, pinned: Option<usize>) {
    println!(
        "# bench_e2e workload={} seed={} seconds={} trace={} profile={} qsim_parallel={} available_parallelism={cpus} pinned_cpu={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        qmkp::qsim::parallel_enabled(),
        pinned.map_or_else(|| "none".to_string(), |c| c.to_string()),
    );
}

fn bench<W: Workload>(args: &Args) -> Result<Report, String> {
    if args.trace {
        traced::<W>(args)
    } else {
        untraced::<W>(args)
    }
}

/// Length of the stretches of timed work between reference chunks.
const SEGMENT: Duration = Duration::from_millis(250);

/// Sets the workload up, appending the seconds it took to `setups`.
fn timed_setup<W: Workload>(args: &Args, setups: &mut Vec<f64>) -> W {
    let t0 = Instant::now();
    let w = W::setup(args.seed, args.seconds);
    setups.push(t0.elapsed().as_secs_f64());
    w
}

fn untraced<W: Workload>(args: &Args) -> Result<Report, String> {
    // The set-ups are spread over the run: the first one serves the
    // timed loop, and the others, timed between its segments at even
    // intervals and then dropped, sample the host over the same minute
    // as the run's other figures. Bunched at the start, they sat inside
    // one of the host's speed steps.
    let mut setups = Vec::new();
    let w: W = timed_setup(args, &mut setups);
    let setup_every = Duration::from_secs_f64(args.seconds as f64 / SETUP_REPS as f64);
    // Host-speed reference chunks, timed between the run's segments.
    let mut host = hostspeed::HostSpeed::default();
    let min = min_requests::<W>();
    let stop = Stop::new(args.seconds as f64, min, W::ROUND, w.stream_len());
    let start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut timed = 0.0;
    let next = |samples: &[Sample]| samples.last().map_or(0, |s| s.request + 1);
    // Each segment's first sample, sample count and seconds.
    let mut segments = Vec::new();
    while stop.more(next(&samples)) {
        if setups.len() < SETUP_REPS && start.elapsed() >= setup_every * setups.len() as u32 {
            drop(timed_setup::<W>(args, &mut setups));
        }
        host.measure();
        let t0 = Instant::now();
        let got = w.run(next(&samples), &stop.segment(SEGMENT));
        let t = t0.elapsed().as_secs_f64();
        segments.push((samples.len(), got.len(), t));
        samples.extend(got);
        timed += t;
    }
    host.measure();
    let peak_rss = peak_rss_bytes();
    let speed = host.factor();
    // A run that ended early sets up the rest now.
    while setups.len() < SETUP_REPS {
        drop(timed_setup::<W>(args, &mut setups));
    }
    if samples.len() < min {
        return Err(format!(
            "only {} requests completed; the tail percentile needs {min}",
            samples.len()
        ));
    }
    let e = evaluate(&w, &samples).map_err(|m| m.to_string())?;
    println!("rung census: {}", rung_census(&samples));
    println!("oracle width histogram: {}", width_histogram(&w, &samples));
    println!("{}", dense_rung_reach());
    println!(
        "requests={} timed_s={timed:.3} failed_frac={} suboptimal={}",
        samples.len(),
        e.all.failed_frac(),
        e.suboptimal
    );
    let sorted = pooled(&e.latencies);
    let pct = |v: &[f64], p: f64| {
        stats::percentile(v, p).ok_or_else(|| format!("too few samples for p{p}"))
    };
    // The pooled median must be reportable too; the median reported is
    // the median of the instances' medians.
    pct(&sorted, 50.0)?;
    let answered = e.all.attempted - e.all.failed;
    // Verified answers per second of each segment.
    let segment_rates: Vec<f64> = segments
        .iter()
        .map(|&(from, n, t)| e.verified[from..from + n].iter().filter(|&&ok| ok).count() as f64 / t)
        .collect();
    let (raw_rate, tail) = if W::THREADED {
        let tail = stats::windowed_percentile(&e.in_order, TAIL_WINDOW, W::TAIL)
            .ok_or_else(|| format!("too few samples for a windowed p{}", W::TAIL))?;
        (stats::median(&segment_rates), tail)
    } else {
        (answered as f64 / timed, pct(&sorted, W::TAIL)?)
    };
    // Raw seconds as measured. The set-up, CPU-bound on every workload,
    // is reported at nominal host speed, and so are the run times of
    // single-threaded workloads.
    let run_speed = if W::THREADED { 1.0 } else { speed };
    let raw = [
        ("latency_p50_s", median_of_medians(&e.latencies)),
        ("latency_tail_s", tail),
        ("first_result_p50_s", median_of_medians(&e.firsts)),
    ];
    println!(
        "latency_tail_s is p{}{}; solves_per_s is {}; run times {}; host speed: {}",
        W::TAIL,
        if W::THREADED {
            format!(", the median over {TAIL_WINDOW}-request windows")
        } else {
            String::new()
        },
        if W::THREADED {
            "the median segment rate"
        } else {
            "over the whole timed loop"
        },
        if W::THREADED {
            "raw"
        } else {
            "at nominal host speed"
        },
        host.summary()
    );
    let setup = stats::median(&setups);
    println!(
        "raw (unscaled): setup_s={setup:.6} solves_per_s={raw_rate:.4} {}",
        joined(raw.iter().map(|(n, v)| format!("{n}={v:.6}")))
    );
    let quartiles = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |i: usize| v[i * (v.len() - 1) / 4];
        format!("{:.6}/{:.6}/{:.6}", at(1), at(2), at(3))
    };
    println!(
        "segment answers/s (q1/median/q3, unscaled): {}; whole-run answers/s {:.4}",
        quartiles(&segment_rates),
        answered as f64 / timed,
    );
    println!(
        "instance medians (s, unscaled): {}",
        joined(e.latencies.iter().map(|(label, l)| {
            format!("{label}={:.6}", stats::median(&stats::sorted_seconds(l)))
        }))
    );
    println!(
        "pooled latency percentiles (s, unscaled): {}",
        joined(
            [50.0, 90.0, 95.0, 99.0]
                .iter()
                .filter_map(|&p| stats::percentile(&sorted, p).map(|v| format!("p{p}={v:.6}")))
        )
    );
    let m = |name: &str, value: f64, unit: &str| (name.to_string(), value, unit.to_string());
    let mut metrics = vec![
        m("setup_s", setup * speed, "s"),
        m("solves_per_s", raw_rate / run_speed, "1/s"),
    ];
    metrics.extend(raw.iter().map(|&(n, v)| m(n, v * run_speed, "s")));
    metrics.extend([
        m("optimal_frac", e.prefix.optimal_frac(), "ratio"),
        m("plex_size_ratio", e.prefix.plex_size_ratio(), "ratio"),
        m("verified_frac", 1.0 - e.all.failed_frac(), "ratio"),
        m("peak_rss_bytes", peak_rss as f64, "bytes"),
    ]);
    Ok(Report {
        correct: e.correct(W::EXACT),
        attempted: e.all.attempted,
        failed: e.all.failed,
        metrics,
    })
}

/// The traced run: an untraced pass for a third of the time (in whole
/// rounds), the traced pass over the same requests, and the untraced
/// pass once more, each from a fresh set-up so that caches start alike.
/// The tracing overhead compares the traced pass with the mean of the
/// two untraced ones, which brackets it in time.
fn traced<W: Workload>(args: &Args) -> Result<Report, String> {
    let wall =
        |samples: &[Sample]| -> f64 { samples.iter().map(|s| s.latency.as_secs_f64()).sum() };
    let w = W::setup(args.seed, args.seconds);
    let stop = Stop::new(
        args.seconds as f64 / 3.0,
        W::ROUND,
        W::ROUND,
        w.stream_len(),
    );
    let plain = w.run(0, &stop);
    let n = plain.len();
    drop(w);
    let w = W::setup(args.seed, args.seconds);
    let mut trace = Trace::default();
    let (traced, mut layers) = w.run_traced(n, &mut trace);
    drop(w);
    let w = W::setup(args.seed, args.seconds);
    let again = w.run(0, &Stop::exactly(n));
    let plain_wall = (wall(&plain) + wall(&again)) / 2.0;
    let traced_wall = trace.request_wall();
    layers.set("obs.trace_overhead", traced_wall / plain_wall);
    layers.set(
        "trace.unattributed_s",
        trace.unattributed() / n.max(1) as f64,
    );
    layers.set("trace.coverage", 1.0 - trace.unattributed() / traced_wall);

    let e_plain = evaluate(&w, &plain).map_err(|m| m.to_string())?;
    let e_again = evaluate(&w, &again).map_err(|m| m.to_string())?;
    let e = evaluate(&w, &traced).map_err(|m| m.to_string())?;
    println!(
        "## {} per-layer table (traced pass: {n} requests, seed {})\n",
        args.workload, args.seed
    );
    println!("{}", trace.table(n));
    println!("rung census: {}", rung_census(&traced));
    println!("oracle width histogram: {}", width_histogram(&w, &traced));
    println!("{}", dense_rung_reach());
    println!(
        "trace overhead: traced {traced_wall:.6} s / untraced {plain_wall:.6} s (mean of {:.6} and {:.6}) over the same {n} requests",
        wall(&plain),
        wall(&again)
    );
    let path = PathBuf::from("bench_e2e/results")
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match trace.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(err) => eprintln!("bench_e2e: could not write {}: {err}", path.display()),
    }
    Ok(Report {
        correct: [&e, &e_plain, &e_again].iter().all(|e| e.correct(W::EXACT)),
        attempted: e.all.attempted + e_plain.all.attempted + e_again.all.attempted,
        failed: e.all.failed + e_plain.all.failed + e_again.all.failed,
        metrics: layers
            .0
            .iter()
            .map(|(&name, &v)| {
                let unit = layers::LAYER_METRICS
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or("", |(_, u)| u);
                (name.to_string(), v, unit.to_string())
            })
            .collect(),
    })
}

/// Set in the child process that does the measuring.
const MEASURING: &str = "BENCH_E2E_MEASURING";

/// Runs this program again as a child with the same arguments and waits
/// for it. Linux carries `ru_maxrss` across `exec`, so a process
/// started by a large launcher (cargo) reports the launcher's resident
/// set as its own peak; the child inherits only this small process's.
fn measure_in_child() -> ExitCode {
    let status = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env(MEASURING, "1")
            .status()
    });
    match status {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(status) => ExitCode::from(u8::try_from(status.code().unwrap_or(1)).unwrap_or(1).max(1)),
        Err(err) => {
            eprintln!("bench_e2e: could not start the measuring process: {err}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("bench_e2e: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((var, why)) = refused_knob(std::env::vars()) {
        eprintln!("bench_e2e: refusing to run with {var} set: it {why}; unset it to measure the program as shipped");
        return ExitCode::from(2);
    }
    if std::env::var_os(MEASURING).is_none() {
        return measure_in_child();
    }
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let pinned = pin_to_one_cpu();
    print_provenance(&args, cpus, pinned);
    let result = match args.workload.as_str() {
        "gate_qmkp" => bench::<gate::Gate>(&args),
        "serve_mix" => bench::<serve::ServeMix>(&args),
        _ => bench::<anneal::Anneal>(&args),
    };
    match result {
        Ok(report) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("bench_e2e: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_reject_unknowns() {
        let args = Args::parse(strings(&[
            "--workload",
            "serve_mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "serve_mix".into(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        assert!(Args::parse(strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(Args::parse(strings(&[
            "--workload",
            "gate_qmkp",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(Args::parse(strings(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn knobs_that_change_the_program_are_refused_by_name() {
        let env = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(
            refused_knob(env(&[("PATH", "/bin"), ("QMKP_QUICK", "1")])),
            None
        );
        for var in [
            "QMKP_PORTFOLIO",
            "QMKP_QSIM_SCHEDULER",
            "QMKP_RT_MAX_OPS",
            "QMKP_RT_DEADLINE_MS",
            "QMKP_OBS",
            "QMKP_OBS_JSON",
        ] {
            let (name, _) = refused_knob(env(&[("HOME", "/"), (var, "0")])).expect(var);
            assert_eq!(name, var);
        }
    }

    #[test]
    fn the_stop_rule_finishes_rounds_and_minimums() {
        let stop = Stop::new(0.0, 20, 9, usize::MAX);
        std::thread::sleep(Duration::from_millis(1));
        assert!(stop.more(19), "below the minimum");
        assert!(stop.more(28), "mid-round");
        assert!(!stop.more(27), "past the deadline on a round boundary");
        assert!(!Stop::exactly(5).more(5));
        assert!(Stop::exactly(5).more(4));
        // A segment ends the loop early whatever the other clauses say.
        let ended = stop.segment(Duration::ZERO);
        assert!(!ended.more(19));
    }

    fn digests<W: Workload>(w: &W, n: usize) -> Vec<(u64, usize)> {
        (0..n)
            .map(|r| {
                let (g, k) = w.input(r);
                (g.digest(), k)
            })
            .collect()
    }

    #[test]
    fn the_same_seed_regenerates_identical_inputs() {
        assert_eq!(
            digests(&gate::Gate::new(7), 27),
            digests(&gate::Gate::new(7), 27)
        );
        assert_eq!(
            digests(&anneal::Anneal::new(7), 12),
            digests(&anneal::Anneal::new(7), 12)
        );
        // The seed orders the round robin; the instance set is the
        // paper's either way.
        let mut a = digests(&gate::Gate::new(1), 9);
        let mut b = digests(&gate::Gate::new(2), 9);
        assert_ne!(a, b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn report_json_has_exactly_the_four_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                ("latency_p50_s".into(), 0.25, "s".into()),
                ("latency_tail_s".into(), f64::INFINITY, "s".into()),
            ],
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"latency_tail_s\": {\"value\": 1.7976931348623157e308, \"unit\": \"s\"}}}"
        );
    }
}
