//! The multi-tenant solve service.
//!
//! [`SolveService`] pushes each [`SolveRequest`] through four stages:
//!
//! 1. **Admission** — [`SolveService::submit`] validates the request,
//!    classifies it with the ladder's own preflight cost model
//!    ([`qmkp::preflight_lane`]), and `try_send`s it onto that lane's
//!    bounded queue. A full queue rejects with
//!    [`ServeError::QueueFull`] immediately — admission never blocks
//!    the submitting thread, mirroring how
//!    [`qmkp_rt::RtContext::admit_bytes`] rejects rather than waits.
//! 2. **Sharding** — each lane (`sparse` / `classical`) has its own
//!    worker pool, so cheap classical floors never queue behind
//!    multi-second statevector runs.
//! 3. **Execution** — a worker builds a per-request
//!    [`RtContext`] from the request's [`Budget`] and the ticket's
//!    [`CancelToken`], then runs [`qmkp::solve_with`] against the
//!    shared [`OracleCache`]. When the ladder's portfolio gate engages
//!    (the default for quantum-feasible requests), the racers all pull
//!    their oracles from that same cache, so a race costs no extra
//!    compilation. Cancelling a ticket cancels exactly that request.
//!    The solve runs inside a panic boundary: a worker panic becomes a
//!    structured [`RtError::Faulted`] (`serve.worker.panic`) response —
//!    the tenant gets an envelope, not a dead ticket, and the worker
//!    thread survives to take the next job (`serve.worker.panics`
//!    counter, labelled by lane).
//! 4. **Reply** — the worker sends a [`SolveResponse`] — the ladder
//!    outcome wrapped in a [`RunReport`] envelope — down the ticket's
//!    private channel; [`SolveTicket::wait`] collects it.
//!
//! `serve.queue_depth` gauges, the
//! `serve.requests.{submitted,completed,rejected}` counters and the
//! `serve.request_seconds` histogram are all labelled by lane, and land
//! in a recording session's metrics alongside the cache's `serve.cache.*`
//! series.

use crate::cache::OracleCache;
use qmkp::{preflight_lane, solve_with, PreflightLane, SolveConfig, SolveOutcome};
use qmkp_core::OracleProvider;
use qmkp_graph::Graph;
use qmkp_obs::RunReport;
use qmkp_rt::{Budget, CancelToken, RtContext, RtError};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Sizing for a [`SolveService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bound of each lane's admission queue; a lane holding this many
    /// waiting requests rejects further submissions.
    pub queue_capacity: usize,
    /// Ignored: the service has no dense lane, because `qmkp::solve`
    /// plans no dense rung. The field stays for callers that set it.
    pub dense_workers: usize,
    /// Workers on the sparse-statevector lane.
    pub sparse_workers: usize,
    /// Workers on the classical lane.
    pub classical_workers: usize,
    /// Byte ceiling of the shared compiled-oracle cache.
    pub cache_bytes: usize,
}

impl Default for ServiceConfig {
    /// Splits the machine's parallelism across the two lanes (at
    /// least one worker each) with a 64 MiB oracle cache.
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let per_lane = (threads / 2).clamp(1, 8);
        ServiceConfig {
            queue_capacity: 64,
            dense_workers: 0,
            sparse_workers: per_lane,
            classical_workers: per_lane,
            cache_bytes: 64 << 20,
        }
    }
}

/// One tenant's solve request.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// The instance graph.
    pub graph: Graph,
    /// The plex slack `k`.
    pub k: usize,
    /// Ladder configuration (quantum seed, classical floor tuning).
    pub config: SolveConfig,
    /// This request's private resource budget; [`Budget::unlimited`]
    /// by default.
    pub budget: Budget,
}

impl SolveRequest {
    /// A request for the maximum `k`-plex of `graph` with default
    /// configuration and no budget limits.
    pub fn new(graph: Graph, k: usize) -> Self {
        SolveRequest {
            graph,
            k,
            config: SolveConfig::default(),
            budget: Budget::unlimited(),
        }
    }

    /// Replaces the budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Replaces the ladder configuration.
    #[must_use]
    pub fn with_config(mut self, config: SolveConfig) -> Self {
        self.config = config;
        self
    }
}

/// Why the service could not produce a [`SolveOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request's lane queue was at capacity; admission rejects
    /// instead of blocking. Resubmit later or widen
    /// [`ServiceConfig::queue_capacity`].
    QueueFull {
        /// The lane that was full.
        lane: PreflightLane,
        /// Its configured capacity.
        capacity: usize,
    },
    /// The solve itself failed — cancelled, over budget after every
    /// rung including the classical floor, or invalid configuration.
    Rt(RtError),
    /// The service shut down before the request completed.
    Shutdown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { lane, capacity } => write!(
                f,
                "{} lane queue full (capacity {capacity}); request rejected",
                lane.name()
            ),
            ServeError::Rt(e) => write!(f, "solve failed: {e}"),
            ServeError::Shutdown => write!(f, "service shut down before the request completed"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RtError> for ServeError {
    fn from(e: RtError) -> Self {
        ServeError::Rt(e)
    }
}

/// The reply to one [`SolveRequest`].
#[derive(Debug)]
pub struct SolveResponse {
    /// The id [`SolveService::submit`] assigned.
    pub id: u64,
    /// The lane that executed the request.
    pub lane: PreflightLane,
    /// The ladder outcome, or a structured error.
    pub outcome: Result<SolveOutcome, ServeError>,
    /// A per-request report fragment: lane, instance key, elapsed time,
    /// and the ladder fields on success.
    pub report: RunReport,
}

/// A claim check for a submitted request: cancel it or wait for the
/// response.
#[derive(Debug)]
pub struct SolveTicket {
    id: u64,
    lane: PreflightLane,
    cancel: CancelToken,
    rx: Receiver<SolveResponse>,
}

impl SolveTicket {
    /// The request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The lane admission routed the request to.
    pub fn lane(&self) -> PreflightLane {
        self.lane
    }

    /// Cancels this request — and only this request. A queued request
    /// resolves to [`RtError::Cancelled`] without running; a running
    /// one stops at its next cooperative checkpoint.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks until the response arrives. Returns a
    /// [`ServeError::Shutdown`] response if the service dropped the
    /// request on the floor (it never does while alive).
    pub fn wait(self) -> SolveResponse {
        self.rx.recv().unwrap_or_else(|_| SolveResponse {
            id: self.id,
            lane: self.lane,
            outcome: Err(ServeError::Shutdown),
            report: RunReport::new("serve.request").outcome("error", ServeError::Shutdown),
        })
    }
}

/// One queued unit of work.
struct Job {
    id: u64,
    lane: PreflightLane,
    request: SolveRequest,
    cancel: CancelToken,
    reply: mpsc::Sender<SolveResponse>,
}

/// State shared between the service handle and its workers.
struct Shared {
    cache: Arc<OracleCache>,
    completed: AtomicU64,
    /// Queue depth per lane, indexed by `PreflightLane as usize`.
    /// Signed: a worker can dequeue (and decrement) before the
    /// submitting thread increments, so the count transiently dips
    /// below zero. The gauge clamps at zero.
    depths: [AtomicI64; 2],
}

impl Shared {
    fn depth_changed(&self, lane: PreflightLane, delta: i64) {
        let idx = lane as usize;
        let depth = (self.depths[idx].fetch_add(delta, Ordering::Relaxed) + delta).max(0);
        qmkp_obs::gauge("serve.queue_depth", &[("lane", lane.name())], depth as f64);
    }
}

/// A lane's submission side.
struct Lane {
    tx: SyncSender<Job>,
    lane: PreflightLane,
}

/// The service: admission, lane-sharded workers, shared oracle cache.
///
/// Dropping the service closes the queues and joins every worker;
/// requests already admitted still complete, and outstanding tickets
/// for them resolve normally.
pub struct SolveService {
    lanes: Vec<Lane>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    config: ServiceConfig,
    next_id: AtomicU64,
    submitted: AtomicU64,
    rejected: AtomicU64,
}

impl SolveService {
    /// Starts the worker pools and the shared cache.
    pub fn new(config: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            cache: Arc::new(OracleCache::new(config.cache_bytes)),
            completed: AtomicU64::new(0),
            depths: [AtomicI64::new(0), AtomicI64::new(0)],
        });
        let mut lanes = Vec::new();
        let mut workers = Vec::new();
        let pools = [
            (PreflightLane::Sparse, config.sparse_workers),
            (PreflightLane::Classical, config.classical_workers),
        ];
        for (lane, pool) in pools {
            let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_capacity.max(1));
            let rx = Arc::new(Mutex::new(rx));
            for worker in 0..pool.max(1) {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name(format!("qmkp-serve-{}-{worker}", lane.name()))
                    .spawn(move || worker_loop(&rx, &shared))
                    .expect("spawn worker thread");
                workers.push(handle);
            }
            lanes.push(Lane { tx, lane });
        }
        SolveService {
            lanes,
            workers,
            shared,
            config,
            next_id: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// The shared compiled-oracle cache (for direct inspection).
    pub fn cache(&self) -> &OracleCache {
        &self.shared.cache
    }

    /// Validates, classifies, and enqueues a request.
    ///
    /// # Errors
    /// * [`ServeError::Rt`] with [`RtError::InvalidConfig`] for an
    ///   empty graph or `k == 0` (the ladder's panicking preconditions,
    ///   turned into a structured rejection at the service boundary).
    /// * [`ServeError::QueueFull`] when the target lane is at capacity.
    ///   The submitter is never blocked.
    pub fn submit(&self, request: SolveRequest) -> Result<SolveTicket, ServeError> {
        if request.graph.n() == 0 {
            return Err(ServeError::Rt(RtError::InvalidConfig(
                "graph must be non-empty".into(),
            )));
        }
        if request.k == 0 {
            return Err(ServeError::Rt(RtError::InvalidConfig(
                "k must be ≥ 1".into(),
            )));
        }
        if let Err(e) = request.config.qmkp.qtkp.validate() {
            return Err(ServeError::Rt(e));
        }
        let lane = preflight_lane(&request.graph, request.k, &request.budget);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let cancel = CancelToken::new();
        let (reply, rx) = mpsc::channel();
        let job = Job {
            id,
            lane,
            request,
            cancel: cancel.clone(),
            reply,
        };
        let slot = self
            .lanes
            .iter()
            .find(|l| l.lane == lane)
            .expect("every lane has a queue");
        match slot.tx.try_send(job) {
            Ok(()) => {
                self.submitted.fetch_add(1, Ordering::Relaxed);
                qmkp_obs::counter("serve.requests.submitted", &[("lane", lane.name())], 1);
                self.shared.depth_changed(lane, 1);
                Ok(SolveTicket {
                    id,
                    lane,
                    cancel,
                    rx,
                })
            }
            Err(TrySendError::Full(_)) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                qmkp_obs::counter("serve.requests.rejected", &[("lane", lane.name())], 1);
                Err(ServeError::QueueFull {
                    lane,
                    capacity: self.config.queue_capacity.max(1),
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::Shutdown),
        }
    }

    /// A service-level report: request counters and cache statistics.
    /// Finishing it through a recording [`qmkp_obs::Session`] adds the
    /// session's metrics — the envelope `obs_validate --report` checks in
    /// CI.
    pub fn report(&self, name: &str) -> RunReport {
        let stats = self.shared.cache.stats();
        RunReport::new(name)
            .config("queue_capacity", self.config.queue_capacity)
            .config(
                "workers",
                format!(
                    "sparse={} classical={}",
                    self.config.sparse_workers.max(1),
                    self.config.classical_workers.max(1)
                ),
            )
            .config("cache_bytes", self.config.cache_bytes)
            .outcome("submitted", self.submitted.load(Ordering::Relaxed))
            .outcome("completed", self.shared.completed.load(Ordering::Relaxed))
            .outcome("rejected", self.rejected.load(Ordering::Relaxed))
            .outcome("cache_hits", stats.hits)
            .outcome("cache_misses", stats.misses)
            .outcome("cache_evictions", stats.evictions)
            .outcome("cache_compiles", stats.compiles)
            .outcome("cache_bytes", stats.bytes)
    }

    /// Closes the admission queues and joins every worker. Admitted
    /// requests finish first; this blocks until they have.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        self.lanes.clear(); // drop the senders: workers drain and exit
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<Job>>>, shared: &Arc<Shared>) {
    loop {
        // Hold the lane lock only for the dequeue itself.
        let job = {
            let guard = rx.lock().expect("lane queue lock");
            guard.recv()
        };
        let Ok(job) = job else {
            return; // all senders dropped: service shut down
        };
        shared.depth_changed(job.lane, -1);
        let lane = job.lane;
        execute(job, shared);
        shared.completed.fetch_add(1, Ordering::Relaxed);
        qmkp_obs::counter("serve.requests.completed", &[("lane", lane.name())], 1);
    }
}

/// Runs one admitted job under its own [`RtContext`] and sends the
/// enveloped response down the ticket's channel. A dropped ticket just
/// discards the response.
fn execute(job: Job, shared: &Arc<Shared>) {
    let Job {
        id,
        lane,
        request,
        cancel,
        reply,
    } = job;
    let started = Instant::now();
    let ctx = RtContext::new(request.budget.clone(), cancel);
    let outcome = match ctx.check() {
        Ok(()) => run_contained(&request, &ctx, shared.cache.as_ref()),
        Err(e) => Err(ServeError::Rt(e)),
    };
    if matches!(
        &outcome,
        Err(ServeError::Rt(RtError::Faulted { site })) if site == WORKER_PANIC_SITE
    ) {
        qmkp_obs::counter("serve.worker.panics", &[("lane", lane.name())], 1);
    }
    let elapsed = started.elapsed();
    let report = match &outcome {
        Ok(out) => out.report("serve.request"),
        Err(e) => RunReport::new("serve.request").outcome("error", e),
    };
    let report = report
        .config("lane", lane.name())
        .config("k", request.k)
        .config("n", request.graph.n())
        .config("graph_digest", format!("{:016x}", request.graph.digest()))
        .outcome("elapsed_ms", elapsed.as_millis());
    qmkp_obs::observe("serve.request_seconds", &[("lane", lane.name())], elapsed);
    let _ = reply.send(SolveResponse {
        id,
        lane,
        outcome,
        report,
    });
}

/// The failure site a contained worker panic reports.
const WORKER_PANIC_SITE: &str = "serve.worker.panic";

/// Runs the solve inside a panic boundary. The race supervisor already
/// contains panics *per racer*; this is the last-resort net for panics
/// outside any race (the sequential ladder, preflight, a panicking
/// provider on a non-portfolio path), mapping them to the same
/// structured [`RtError::Faulted`] shape instead of killing the worker
/// thread and stranding the ticket. The reply channel is outside the
/// boundary, so the envelope is always delivered.
fn run_contained(
    request: &SolveRequest,
    ctx: &RtContext,
    provider: &dyn OracleProvider,
) -> Result<SolveOutcome, ServeError> {
    catch_unwind(AssertUnwindSafe(|| {
        solve_with(&request.graph, request.k, &request.config, ctx, provider)
    }))
    .unwrap_or_else(|_| {
        Err(RtError::Faulted {
            site: WORKER_PANIC_SITE.into(),
        })
    })
    .map_err(ServeError::Rt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp::graph::gen::paper_fig1_graph;
    use qmkp::SolveConfig;
    use qmkp_core::CompiledOracle;

    /// An [`OracleProvider`] that panics on every compile — the
    /// deterministic stand-in for a worker hitting a bug mid-solve.
    struct PanickingProvider;

    impl OracleProvider for PanickingProvider {
        fn compiled_oracle(
            &self,
            _g: &Graph,
            _k: usize,
            _t: usize,
            _ctx: &RtContext,
        ) -> Result<std::sync::Arc<CompiledOracle>, RtError> {
            panic!("injected provider panic");
        }
    }

    #[test]
    fn worker_panics_map_to_structured_faulted() {
        // Portfolio pinned off: the sequential ladder calls the
        // provider with no per-racer containment, so the panic reaches
        // the worker boundary and must come back as an envelope.
        let request = SolveRequest::new(paper_fig1_graph(), 2).with_config(SolveConfig {
            portfolio: Some(false),
            ..SolveConfig::default()
        });
        let err = run_contained(&request, &RtContext::unlimited(), &PanickingProvider)
            .expect_err("the ladder cannot survive a panicking provider");
        assert_eq!(
            err,
            ServeError::Rt(RtError::Faulted {
                site: WORKER_PANIC_SITE.into()
            })
        );
    }

    #[test]
    fn portfolio_contains_provider_panics_per_racer() {
        // Same panicking provider, portfolio on (the default for this
        // instance): only the quantum racer dies — the panic is
        // contained per racer, the survivor still answers, and the race
        // summary records the loss. Exact branch & bound can win fig-1
        // before the sparse racer first calls its provider, so the
        // classical lane runs a long GRASP instead; GRASP polls the
        // cancel token on every restart.
        let request = SolveRequest::new(paper_fig1_graph(), 2).with_config(SolveConfig {
            exact_threshold: Some(0),
            grasp_iterations: Some(20_000),
            ..SolveConfig::default()
        });
        let out = run_contained(&request, &RtContext::unlimited(), &PanickingProvider)
            .expect("a surviving racer must still answer");
        assert!(qmkp::graph::is_kplex(&request.graph, out.best, 2));
        let race = out.race.expect("the portfolio ran");
        assert!(race.faulted >= 1, "the panicking quantum racer lost");
    }
}
