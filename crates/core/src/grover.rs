//! Grover's search machinery: state preparation, oracle application with
//! uncompute, the diffusion operator, and an iteration driver (Figure 12).

use crate::compiled::GroverCircuits;
use crate::oracle::Oracle;
use qmkp_graph::VertexSet;
use qmkp_qsim::{
    BackendState, Circuit, CompiledCircuit, CompiledOp, Complex, Gate, OpObserver, PhaseStep,
    QuantumState, Register, Sampler, SimError, SingleQubit, SparseState,
};
use qmkp_rt::RtContext;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A phase oracle usable by the Grover driver: any reversible circuit
/// that marks vertex subsets via an oracle qubit. Implemented by the MKP
/// oracle ([`crate::oracle::Oracle`]) and by the clique-relaxation
/// extensions (e.g. the 2-club oracle in [`crate::club`]) — the
/// "adaptability" claim of the paper, realized as a trait.
pub trait PhaseOracle {
    /// Total circuit width.
    fn width(&self) -> usize;
    /// The vertex register (the search space).
    fn vertex_register(&self) -> &Register;
    /// The oracle qubit flipped for marked states.
    fn oracle_qubit(&self) -> usize;
    /// The forward check circuit.
    fn u_check(&self) -> &Circuit;
    /// The uncompute circuit.
    fn u_check_inv(&self) -> &Circuit;
    /// The two result qubits `U_check` computes, whose conjunction marks
    /// a state (`cplex` and `size ≥ T` for the MKP oracle): the controls
    /// of the flip.
    fn flip_controls(&self) -> [usize; 2];
    /// The oracle-qubit flip gate: a Toffoli from the flip's controls
    /// onto the oracle qubit (Figure 11, box C).
    fn flip_gate(&self) -> Gate {
        let [a, b] = self.flip_controls();
        Gate::ccnot(a, b, self.oracle_qubit())
    }
    /// The classical predicate the oracle decides (used for verification
    /// and the solution census).
    fn predicate(&self, s: VertexSet) -> bool;
}

impl PhaseOracle for Oracle {
    fn width(&self) -> usize {
        self.layout.width
    }
    fn vertex_register(&self) -> &Register {
        &self.layout.vertices
    }
    fn oracle_qubit(&self) -> usize {
        self.layout.oracle
    }
    fn u_check(&self) -> &Circuit {
        Oracle::u_check(self)
    }
    fn u_check_inv(&self) -> &Circuit {
        Oracle::u_check_inv(self)
    }
    fn flip_controls(&self) -> [usize; 2] {
        [self.layout.cplex, self.layout.size_ge_t]
    }
    fn predicate(&self, s: VertexSet) -> bool {
        Oracle::predicate(self, s)
    }
}

/// A shared oracle is an oracle: the precompiled path parameterizes the
/// driver with `Arc<Oracle>` so a cached artifact is driven without
/// cloning the oracle's circuits.
impl<O: PhaseOracle> PhaseOracle for Arc<O> {
    fn width(&self) -> usize {
        (**self).width()
    }
    fn vertex_register(&self) -> &Register {
        (**self).vertex_register()
    }
    fn oracle_qubit(&self) -> usize {
        (**self).oracle_qubit()
    }
    fn u_check(&self) -> &Circuit {
        (**self).u_check()
    }
    fn u_check_inv(&self) -> &Circuit {
        (**self).u_check_inv()
    }
    fn flip_controls(&self) -> [usize; 2] {
        (**self).flip_controls()
    }
    fn predicate(&self, s: VertexSet) -> bool {
        (**self).predicate(s)
    }
}

/// Wall-clock simulation time attributed to each oracle section
/// (`U_check` and `U_check†` both contribute to their section's bucket),
/// plus the diffusion operator. Powers the paper's Table IV.
#[derive(Debug, Clone, Default)]
pub struct SectionTimes {
    buckets: BTreeMap<String, Duration>,
}

impl SectionTimes {
    /// Adds elapsed time to a bucket.
    pub fn add(&mut self, name: &str, d: Duration) {
        *self.buckets.entry(name.to_string()).or_default() += d;
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &SectionTimes) {
        for (k, v) in &other.buckets {
            *self.buckets.entry(k.clone()).or_default() += *v;
        }
    }

    /// Time in a bucket (zero if absent).
    pub fn get(&self, name: &str) -> Duration {
        self.buckets.get(name).copied().unwrap_or_default()
    }

    /// Total time across all buckets.
    pub fn total(&self) -> Duration {
        self.buckets.values().sum()
    }

    /// The three oracle components' shares of the oracle time (degree
    /// count, degree comparison, size determination), as fractions of
    /// their sum — the rows of the paper's Table IV. Graph encoding is
    /// folded into degree counting (the paper's part 1 covers Figure 6).
    pub fn oracle_shares(&self) -> (f64, f64, f64) {
        let count = (self.get("graph_encoding") + self.get("degree_count")).as_secs_f64();
        let cmp = self.get("degree_compare").as_secs_f64();
        let size = self.get("size_check").as_secs_f64();
        let total = count + cmp + size;
        if total == 0.0 {
            (0.0, 0.0, 0.0)
        } else {
            (count / total, cmp / total, size / total)
        }
    }

    /// All buckets, sorted by name.
    pub fn buckets(&self) -> &BTreeMap<String, Duration> {
        &self.buckets
    }

    /// Records one section duration into the bucket (the return value
    /// callers read with recording off) and, when recording, as one
    /// `core.grover.section.<name>` span — which the trace, the summary
    /// and the metrics histogram of the same name all derive from, so
    /// the views cannot drift apart.
    fn record(&mut self, name: &str, d: Duration) {
        self.add(name, d);
        if qmkp_obs::enabled() {
            qmkp_obs::span_closed(&format!("core.grover.section.{name}"), d);
        }
    }
}

/// The Grover driver's executor observer: splits each op's measured
/// time across the sections it absorbed, in proportion to the op's
/// attribution weights (surviving kernel steps per section, each section
/// listed once). Shares are floor-divided nanoseconds with the remainder
/// on the last section, so the bucket sum equals the measured op time
/// *exactly* — the obs drift property (span sum ==
/// `SectionTimes::total()`) stays an equality.
struct SectionAttribution<'a> {
    compiled: &'a CompiledCircuit,
    times: &'a mut SectionTimes,
}

impl OpObserver for SectionAttribution<'_> {
    fn op(&mut self, index: usize, elapsed: Duration) {
        let weights = self.compiled.attribution(index);
        let total: u128 = weights.iter().map(|&(_, w)| w as u128).sum();
        let nanos = elapsed.as_nanos();
        let mut used: u128 = 0;
        for (i, &(sec, w)) in weights.iter().enumerate() {
            let share = if i + 1 == weights.len() {
                nanos - used
            } else {
                nanos * w as u128 / total
            };
            used += share;
            // Unsectioned ids (and anything out of range) land in
            // "other"; `U_check` and `U_check†` share buckets via
            // `†`-stripping.
            let name = self
                .compiled
                .section_name(sec)
                .map_or("other", |name| name.trim_end_matches('†'));
            self.times.record(name, Duration::from_nanos(share as u64));
        }
    }
}

/// The optimal Grover iteration count `⌊(π/4)·√(N/M)⌋` for `N = 2^n`
/// basis states and `m` marked solutions (Algorithm 1, step 4).
///
/// Returns 0 when `m = 0` (nothing to amplify) and also when the marked
/// fraction is so large that a single partial rotation already overshoots.
pub fn optimal_iterations(n_qubits: usize, m: u64) -> usize {
    if m == 0 {
        return 0;
    }
    let n = (1u128 << n_qubits) as f64;
    (std::f64::consts::FRAC_PI_4 * (n / m as f64).sqrt()).floor() as usize
}

/// The exact success probability after `i` Grover iterations with `m` of
/// `2^n` states marked: `sin²((2i+1)·θ)` with `sin²θ = M/N`.
pub fn success_probability_theory(n_qubits: usize, m: u64, iterations: usize) -> f64 {
    if m == 0 {
        return 0.0;
    }
    let n = (1u128 << n_qubits) as f64;
    let theta = (m as f64 / n).sqrt().asin();
    ((2 * iterations + 1) as f64 * theta).sin().powi(2)
}

/// Builds the diffusion operator `2|s⟩⟨s| − I` over the vertex register:
/// `H^⊗n · X^⊗n · C^{n-1}Z · X^⊗n · H^⊗n` (Figure 12, box C).
///
/// For a single-qubit register the multi-controlled Z degenerates to a
/// plain Z, which is still `2|s⟩⟨s| − I` up to global phase.
pub fn diffusion_circuit(width: usize, vertices: &Register) -> Circuit {
    assert!(vertices.len >= 1, "diffusion needs a non-empty register");
    let mut c = Circuit::new(width);
    c.begin_section("diffusion");
    for q in vertices.iter() {
        c.push_unchecked(Gate::H(q));
    }
    for q in vertices.iter() {
        c.push_unchecked(Gate::X(q));
    }
    let target = vertices.qubit(vertices.len - 1);
    let controls: Vec<usize> = vertices.iter().take(vertices.len - 1).collect();
    c.push_unchecked(Gate::Mcz {
        controls: controls.into_iter().map(qmkp_qsim::Control::pos).collect(),
        target,
    });
    for q in vertices.iter() {
        c.push_unchecked(Gate::X(q));
    }
    for q in vertices.iter() {
        c.push_unchecked(Gate::H(q));
    }
    c.end_section();
    c
}

/// Drives Grover iterations of a phase oracle, by default on the sparse
/// backend (the dense backend is reachable through the second type
/// parameter, which the cross-backend tests use).
///
/// The three circuits of an iteration (`U_check`, `U_check†`, diffusion)
/// are compiled once at construction — mask-precomputed and fused into
/// kernel ops — and the compiled forms are reused every iteration. Wall
/// time is still attributed per oracle section: fused ops span section
/// boundaries, so each op's measured time is split across the sections
/// it absorbed in proportion to their surviving kernel steps (the op's
/// attribution weights).
///
/// The driver simulates only the `|O⟩ = 0` half of Figure 12's state
/// (DESIGN §7). With `|O⟩ = |−⟩` the `|O⟩ = 1` half is, after every op,
/// the exact IEEE negation of it, so the flip is applied as the phase it
/// kicks back and the readout doubles the half's vertex marginal: every
/// distribution and draw has the literal circuit's bits, over half the
/// support.
pub struct GroverDriver<O: PhaseOracle = Oracle, S: QuantumState = SparseState> {
    oracle: O,
    state: S,
    circuits: GroverCircuits,
    /// The flip on the `|O⟩ = 0` half: phase −1 where both flip controls
    /// are set, a CZ on them.
    kickback: CompiledOp,
    iterations_done: usize,
    times: SectionTimes,
}

impl<O: PhaseOracle> GroverDriver<O, SparseState> {
    /// Prepares the initial state: the `|O⟩ = 0` half of `|O⟩ = |−⟩`
    /// (Figure 12's `|O⟩ = |1⟩` input plus Hadamard, whose `|O⟩ = 0`
    /// amplitude is `1/√2`) with the vertex register in uniform
    /// superposition; compiles the iteration circuits.
    ///
    /// # Panics
    /// Panics if the oracle's circuits do not compile (e.g. the register
    /// exceeds the simulator's 128-qubit encoding); use
    /// [`GroverDriver::try_new`] to handle that as an error.
    pub fn new(oracle: O) -> Self {
        Self::try_new(oracle).expect("oracle circuits must compile")
    }

    /// Fallible variant of [`GroverDriver::new`].
    ///
    /// # Errors
    /// Fails with [`SimError::Compile`] if any of the iteration circuits
    /// (`U_check`, `U_check†`, diffusion) does not compile — e.g. an
    /// oracle for a graph so large that the register exceeds the
    /// simulator's 128-qubit basis encoding.
    pub fn try_new(oracle: O) -> Result<Self, SimError> {
        let width = oracle.width();
        let state = SparseState::zero(width);
        Self::finish_new(oracle, state)
    }

    /// Support size of the underlying sparse state (diagnostics).
    pub fn support_size(&self) -> usize {
        self.state.support_size()
    }
}

impl<O: PhaseOracle, S: BackendState> GroverDriver<O, S> {
    /// Budget-aware constructor on an explicit backend: the initial
    /// state's projected footprint is admitted against the context's byte
    /// ceiling (and the backend's allocation failpoint consulted) before
    /// anything is allocated.
    ///
    /// # Errors
    /// As [`GroverDriver::try_new`], plus [`SimError::Interrupted`] when
    /// the state is rejected by the budget or an injected fault fires.
    pub fn try_new_ctx(oracle: O, ctx: &RtContext) -> Result<Self, SimError> {
        let width = oracle.width();
        let state = S::zero_budgeted(width, ctx)?;
        Self::finish_new(oracle, state)
    }

    /// Budget-aware constructor from pre-compiled iteration circuits:
    /// only the initial state is allocated (and admitted against the
    /// context's byte ceiling) — no circuit is compiled. This is the
    /// cache-hit path of an [`crate::compiled::OracleProvider`].
    ///
    /// # Errors
    /// [`SimError::Interrupted`] when the state is rejected by the budget
    /// or an injected fault fires.
    pub fn try_new_precompiled_ctx(
        oracle: O,
        circuits: GroverCircuits,
        ctx: &RtContext,
    ) -> Result<Self, SimError> {
        let width = oracle.width();
        let state = S::zero_budgeted(width, ctx)?;
        Ok(Self::finish_precompiled(oracle, circuits, state))
    }
}

impl<O: PhaseOracle, S: QuantumState> GroverDriver<O, S> {
    fn finish_new(oracle: O, state: S) -> Result<Self, SimError> {
        let circuits = GroverCircuits::compile(&oracle)?;
        Ok(Self::finish_precompiled(oracle, circuits, state))
    }

    /// Prepares the initial state on an already-compiled iteration; the
    /// only infallible-by-construction constructor (nothing allocates,
    /// nothing compiles).
    ///
    /// The oracle qubit gets the `|O⟩ = 0` row of `H·X`, the amplitude
    /// `1/√2` that X then H put there; the butterfly prunes the zero
    /// `|O⟩ = 1` output.
    fn finish_precompiled(oracle: O, circuits: GroverCircuits, mut state: S) -> Self {
        state.apply_op(&CompiledOp::Single(SingleQubit {
            qubit: oracle.oracle_qubit(),
            m00: Complex::real(std::f64::consts::FRAC_1_SQRT_2),
            m01: Complex::ZERO,
            m10: Complex::ZERO,
            m11: Complex::ZERO,
        }));
        for q in oracle.vertex_register().iter() {
            state.apply(&Gate::H(q));
        }
        let [a, b] = oracle.flip_controls();
        let controls = 1u128 << a | 1u128 << b;
        let kickback = CompiledOp::Diagonal(vec![PhaseStep {
            care: controls,
            want: controls,
            phase: Complex::real(-1.0),
        }]);
        GroverDriver {
            oracle,
            state,
            circuits,
            kickback,
            iterations_done: 0,
            times: SectionTimes::default(),
        }
    }

    /// The oracle being driven.
    pub fn oracle(&self) -> &O {
        &self.oracle
    }

    /// Iterations performed so far.
    pub fn iterations_done(&self) -> usize {
        self.iterations_done
    }

    /// Accumulated per-section simulation times.
    pub fn times(&self) -> &SectionTimes {
        &self.times
    }

    /// Runs one Grover iteration: `U_check` → flip (as its phase
    /// kickback) → `U_check†` → diffusion, attributing wall time to
    /// oracle sections.
    ///
    /// When tracing is on, the iteration is a `core.grover.iteration` span
    /// with one `core.grover.section.*` child per section, carrying the
    /// *same* durations accumulated into [`SectionTimes`] — the two
    /// accounting paths cannot drift.
    pub fn iterate(&mut self) {
        let outcome = self.iteration(None);
        // Without a context nothing polls or charges, and the circuits
        // were compiled for this oracle's width.
        debug_assert!(outcome.is_ok(), "uninterruptible iteration failed");
    }

    /// Runs `count` iterations.
    pub fn iterate_n(&mut self, count: usize) {
        for _ in 0..count {
            self.iterate();
        }
    }

    /// Budget-aware Grover iteration: polls the context at iteration
    /// granularity, and every compiled op consults the `qsim.run.op`
    /// failpoint and is charged against the op budget, so cancellation
    /// and deadlines surface between kernel passes. Consults
    /// the `core.grover.iterate` failpoint on entry.
    ///
    /// On interruption the driver's state is mid-iteration and
    /// [`GroverDriver::iterations_done`] is not advanced; the caller
    /// discards the driver (the qTKP attempt loop reconstructs one per
    /// attempt).
    ///
    /// # Errors
    /// [`SimError::Interrupted`] carrying the structured
    /// [`qmkp_rt::RtError`].
    pub fn iterate_ctx(&mut self, ctx: &RtContext) -> Result<(), SimError> {
        qmkp_rt::failpoint::check("core.grover.iterate")?;
        ctx.check()?;
        self.iteration(Some(ctx))
    }

    /// The body both [`GroverDriver::iterate`] and
    /// [`GroverDriver::iterate_ctx`] run: the three compiled circuits go
    /// through the simulator's executor under [`SectionAttribution`], the
    /// flip's kickback is timed on its own.
    fn iteration(&mut self, ctx: Option<&RtContext>) -> Result<(), SimError> {
        let _span = qmkp_obs::span("core.grover.iteration");
        let (state, times, circuits) = (&mut self.state, &mut self.times, &self.circuits);
        Self::run_attributed(state, &circuits.u_check, times, ctx)?;
        let start = Instant::now();
        state.apply_op(&self.kickback);
        times.record("flip", start.elapsed());
        Self::run_attributed(state, &circuits.u_check_inv, times, ctx)?;
        Self::run_attributed(state, &circuits.diffusion, times, ctx)?;
        self.iterations_done += 1;
        self.iteration_gauges();
        Ok(())
    }

    /// Runs one compiled circuit through the executor, attributing each
    /// op's time to the oracle sections it absorbed.
    fn run_attributed(
        state: &mut S,
        compiled: &CompiledCircuit,
        times: &mut SectionTimes,
        ctx: Option<&RtContext>,
    ) -> Result<(), SimError> {
        let mut attribution = SectionAttribution { compiled, times };
        state.run_observed(compiled, ctx, &mut attribution)
    }

    /// Runs `count` budget-aware iterations.
    ///
    /// # Errors
    /// As [`GroverDriver::iterate_ctx`]; iterations already completed are
    /// reflected in [`GroverDriver::iterations_done`].
    pub fn iterate_n_ctx(&mut self, count: usize, ctx: &RtContext) -> Result<(), SimError> {
        for _ in 0..count {
            self.iterate_ctx(ctx)?;
        }
        Ok(())
    }

    /// As [`GroverDriver::iterate_n_ctx`], but the first `completed`
    /// iterations are *replayed* without failpoint polls, context checks,
    /// or op charges: they were already executed (and paid for) by the
    /// interrupted run that checkpointed them, and a Grover iteration is
    /// deterministic and consumes no randomness, so replaying rebuilds
    /// the exact pre-interrupt state. Skipping the polls during replay
    /// means a resume never re-trips the fault that produced the
    /// checkpoint before reaching new work.
    ///
    /// # Errors
    /// As [`GroverDriver::iterate_ctx`], from the live (post-replay)
    /// iterations only.
    pub fn iterate_n_ctx_resume(
        &mut self,
        count: usize,
        completed: usize,
        ctx: &RtContext,
    ) -> Result<(), SimError> {
        let replay = completed.min(count);
        self.iterate_n(replay);
        for _ in replay..count {
            self.iterate_ctx(ctx)?;
        }
        Ok(())
    }

    fn iteration_gauges(&self) {
        if let Some(support) = self.state.support_hint() {
            qmkp_obs::gauge("core.grover.support", &[], support as f64);
        }
        let bytes = self.state.memory_bytes() as f64;
        qmkp_obs::gauge("core.grover.mem_bytes", &[], bytes);
    }

    /// The probability distribution over vertex-register basis states
    /// (the bar charts of the paper's Figure 8): the half state's
    /// marginal doubled, which is exactly the literal state's `p + p`.
    pub fn vertex_distribution(&self) -> BTreeMap<u128, f64> {
        let mut dist = self.state.marginal(&self.oracle.vertex_register().qubits());
        for p in dist.values_mut() {
            *p *= 2.0;
        }
        dist
    }

    /// The vertex distribution and a sampler over it, built once for any
    /// number of mass queries and draws.
    pub fn readout(&self) -> Readout {
        let distribution = self.vertex_distribution();
        let sampler = Sampler::new(&distribution);
        Readout {
            distribution,
            sampler,
        }
    }

    /// Total probability mass on the given vertex sets.
    pub fn probability_of_sets(&self, sets: &[VertexSet]) -> f64 {
        mass(&self.vertex_distribution(), sets)
    }

    /// Samples one measurement of the vertex register.
    pub fn measure<R: Rng>(&self, rng: &mut R) -> VertexSet {
        self.readout().measure(rng)
    }

    /// Samples `shots` measurements of the vertex register, returning
    /// set → count (the paper's 20K-shot histograms).
    pub fn sample_counts<R: Rng>(&self, rng: &mut R, shots: usize) -> BTreeMap<u128, usize> {
        self.readout().sampler.counts(rng, shots)
    }
}

/// A driver's vertex distribution with its sampler
/// ([`GroverDriver::readout`]): a probe reads its success mass and every
/// measurement from one build, with the bits the driver's own
/// [`GroverDriver::probability_of_sets`] and [`GroverDriver::measure`]
/// give.
#[derive(Debug, Clone)]
pub struct Readout {
    distribution: BTreeMap<u128, f64>,
    sampler: Sampler,
}

impl Readout {
    /// Total probability mass on the given vertex sets.
    pub fn probability_of_sets(&self, sets: &[VertexSet]) -> f64 {
        mass(&self.distribution, sets)
    }

    /// Samples one measurement of the vertex register (one
    /// `rng.gen::<f64>()`).
    pub fn measure<R: Rng>(&self, rng: &mut R) -> VertexSet {
        VertexSet::from_bits(self.sampler.draw(rng))
    }
}

/// The mass a vertex distribution puts on the given sets.
fn mass(distribution: &BTreeMap<u128, f64>, sets: &[VertexSet]) -> f64 {
    sets.iter()
        .map(|s| distribution.get(&s.bits()).copied().unwrap_or(0.0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::solutions;
    use qmkp_graph::gen::paper_fig1_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn optimal_iteration_counts() {
        // Paper's Fig. 8 setting: n = 6, M = 1 → 6 iterations.
        assert_eq!(optimal_iterations(6, 1), 6);
        assert_eq!(optimal_iterations(6, 0), 0);
        assert_eq!(optimal_iterations(10, 1), 25);
        assert_eq!(optimal_iterations(4, 4), 1);
    }

    #[test]
    fn theory_probability_increases_then_peaks() {
        let p0 = success_probability_theory(6, 1, 0);
        let p1 = success_probability_theory(6, 1, 1);
        let p6 = success_probability_theory(6, 1, 6);
        assert!(p0 < p1 && p1 < p6);
        assert!(p6 > 0.99, "after 6 iterations the solution dominates: {p6}");
        assert_eq!(success_probability_theory(6, 0, 3), 0.0);
    }

    #[test]
    fn initial_state_is_uniform_over_vertex_register() {
        let g = paper_fig1_graph();
        let driver = GroverDriver::new(Oracle::new(&g, 2, 4));
        let dist = driver.vertex_distribution();
        assert_eq!(dist.len(), 64);
        for (_, p) in dist {
            assert!((p - 1.0 / 64.0).abs() < 1e-12);
        }
    }

    #[test]
    fn grover_amplifies_the_unique_solution() {
        let g = paper_fig1_graph();
        let oracle = Oracle::new(&g, 2, 4);
        let sols = solutions(&oracle);
        assert_eq!(sols.len(), 1);
        let mut driver = GroverDriver::new(oracle);
        let mut prev = driver.probability_of_sets(&sols);
        // Success probability must match theory at each iteration.
        for i in 1..=6 {
            driver.iterate();
            let p = driver.probability_of_sets(&sols);
            let theory = success_probability_theory(6, 1, i);
            assert!(
                (p - theory).abs() < 1e-9,
                "iter {i}: sim {p} vs theory {theory}"
            );
            assert!(p > prev, "amplitude must grow through iteration {i}");
            prev = p;
        }
        assert!(prev > 0.99);
    }

    #[test]
    fn measurement_after_full_run_returns_the_solution() {
        let g = paper_fig1_graph();
        let oracle = Oracle::new(&g, 2, 4);
        let sols = solutions(&oracle);
        let mut driver = GroverDriver::new(oracle);
        driver.iterate_n(6);
        let mut rng = StdRng::seed_from_u64(11);
        let mut hits = 0;
        for _ in 0..50 {
            if driver.measure(&mut rng) == sols[0] {
                hits += 1;
            }
        }
        assert!(
            hits >= 48,
            "expected ≥48/50 correct measurements, got {hits}"
        );
    }

    #[test]
    fn overshoot_instance_needs_zero_iterations_and_sampling_succeeds() {
        // Regression for the m > N/2 overshoot case: with k = 6 every
        // nonempty subset of the 6-vertex graph is a k-plex, so t = 1
        // marks m = 63 of N = 64 states. A single Grover rotation would
        // already overshoot; `optimal_iterations` must return 0, and qTKP
        // must still succeed by sampling the prepared state directly.
        let g = paper_fig1_graph();
        let oracle = Oracle::new(&g, 6, 1);
        let sols = solutions(&oracle);
        let m = sols.len() as u64;
        assert!(m > 32, "need an overshoot instance, got m = {m}");
        assert_eq!(optimal_iterations(6, m), 0);
        let driver = GroverDriver::new(oracle);
        // At iteration 0 the prepared state is the uniform superposition:
        // simulated solution mass must agree with sin²θ = m/N.
        let p = driver.probability_of_sets(&sols);
        let theory = success_probability_theory(6, m, 0);
        assert!((p - theory).abs() < 1e-9, "sim {p} vs theory {theory}");
        assert!((theory - m as f64 / 64.0).abs() < 1e-12);
        // Direct sampling of the prepared state succeeds with probability
        // m/N ≈ 0.98 per shot.
        let mut rng = StdRng::seed_from_u64(23);
        let mut hits = 0;
        for _ in 0..100 {
            if driver.oracle().predicate(driver.measure(&mut rng)) {
                hits += 1;
            }
        }
        assert!(hits >= 90, "expected ≥90/100 marked samples, got {hits}");
    }

    #[test]
    fn try_new_compiles_the_paper_instance() {
        let g = paper_fig1_graph();
        assert!(GroverDriver::try_new(Oracle::new(&g, 2, 4)).is_ok());
    }

    #[test]
    fn budgeted_iteration_admits_the_state_it_grew() {
        // The 32-byte zero state fits a 1 KiB ceiling; the 64-entry half
        // state an iteration runs on does not, and must say so.
        let g = paper_fig1_graph();
        let ctx = RtContext::with_budget(qmkp_rt::Budget::unlimited().with_max_bytes(1 << 10));
        let mut driver =
            GroverDriver::<Oracle, SparseState>::try_new_ctx(Oracle::new(&g, 2, 4), &ctx)
                .expect("the zero state fits");
        let err = driver
            .iterate_ctx(&ctx)
            .expect_err("the grown state does not");
        assert!(
            matches!(
                err,
                SimError::Interrupted(qmkp_rt::RtError::MemoryBudget { limit: 1024, .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn support_stays_bounded() {
        // The driver holds only the |O⟩ = 0 half of the |−⟩ oracle
        // qubit, so the sparse state never exceeds 2^n entries.
        let g = paper_fig1_graph();
        let mut driver = GroverDriver::new(Oracle::new(&g, 2, 4));
        driver.iterate_n(2);
        assert!(
            driver.support_size() <= 64,
            "support {}",
            driver.support_size()
        );
    }

    #[test]
    fn section_times_are_recorded() {
        let g = paper_fig1_graph();
        let mut driver = GroverDriver::new(Oracle::new(&g, 2, 4));
        driver.iterate();
        let t = driver.times();
        assert!(t.get("degree_count") > Duration::ZERO);
        assert!(t.get("degree_compare") > Duration::ZERO);
        assert!(t.get("size_check") > Duration::ZERO);
        let (a, b, c) = t.oracle_shares();
        assert!((a + b + c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn section_times_merge_accumulates_buckets() {
        let mut a = SectionTimes::default();
        a.add("degree_count", Duration::from_nanos(10));
        a.add("flip", Duration::from_nanos(1));
        let mut b = SectionTimes::default();
        b.add("degree_count", Duration::from_nanos(5));
        b.add("size_check", Duration::from_nanos(7));
        a.merge(&b);
        assert_eq!(a.get("degree_count"), Duration::from_nanos(15));
        assert_eq!(a.get("flip"), Duration::from_nanos(1));
        assert_eq!(a.get("size_check"), Duration::from_nanos(7));
        assert_eq!(a.total(), Duration::from_nanos(23));
        assert_eq!(a.buckets().len(), 3);
    }

    #[test]
    fn section_times_get_absent_bucket_is_zero() {
        let t = SectionTimes::default();
        assert_eq!(t.get("no_such_bucket"), Duration::ZERO);
        assert_eq!(t.total(), Duration::ZERO);
        let mut t = t;
        t.add("x", Duration::from_nanos(3));
        assert_eq!(t.get("y"), Duration::ZERO);
    }

    #[test]
    fn oracle_shares_zero_total_is_all_zero() {
        let mut t = SectionTimes::default();
        // Buckets exist, but none of the three oracle components do.
        t.add("diffusion", Duration::from_millis(2));
        t.add("flip", Duration::from_millis(1));
        assert_eq!(t.oracle_shares(), (0.0, 0.0, 0.0));
        assert_eq!(SectionTimes::default().oracle_shares(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn oracle_shares_fold_encoding_into_degree_count() {
        let mut t = SectionTimes::default();
        t.add("graph_encoding", Duration::from_nanos(100));
        t.add("degree_count", Duration::from_nanos(100));
        t.add("degree_compare", Duration::from_nanos(100));
        t.add("size_check", Duration::from_nanos(100));
        let (count, cmp, size) = t.oracle_shares();
        assert!((count - 0.5).abs() < 1e-12);
        assert!((cmp - 0.25).abs() < 1e-12);
        assert!((size - 0.25).abs() < 1e-12);
    }

    #[test]
    fn diffusion_preserves_norm_and_uniform_state() {
        // Diffusion of the uniform state is the uniform state (up to phase).
        let g = paper_fig1_graph();
        let oracle = Oracle::new(&g, 2, 4);
        let layout = oracle.layout.clone();
        let mut state = SparseState::zero(layout.width);
        for q in layout.vertices.iter() {
            state.apply(&Gate::H(q));
        }
        let diff = diffusion_circuit(layout.width, &layout.vertices);
        state.run(&diff).unwrap();
        let dist = state.marginal(&layout.vertices.qubits());
        for (_, p) in dist {
            assert!((p - 1.0 / 64.0).abs() < 1e-9);
        }
    }
}
