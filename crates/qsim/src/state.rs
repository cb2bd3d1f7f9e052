//! Quantum state backends: dense statevector and sparse sorted-vec.
//!
//! Both backends execute circuits through the compiled kernel path
//! ([`crate::compile::CompiledCircuit`]): [`QuantumState::run`] compiles
//! the circuit once and hands it to the executor
//! ([`QuantumState::run_observed`]), which walks the schedule's
//! support-disjoint layers and applies each one through the backend's
//! fused layer kernel ([`QuantumState::apply_layer`]). The dense backend
//! evaluates a layer's combined permutation and diagonal in one
//! (rayon-parallel) gather pass; the sparse backend collapses
//! permutation+diagonal runs into a single key-rewrite pass. Both run
//! every register on the compiler's `u128` ops. The gate-by-gate
//! interpreter survives as [`QuantumState::run_interpreted`] (and
//! [`QuantumState::apply`]) for cross-checking and for callers that apply
//! individual gates: the dense one through hand-written per-gate kernels,
//! the independent reference the compiled paths are checked against, and
//! the sparse one through the compiler's own lowering.
//!
//! The sparse backend stores the state as a `Vec<(u128, amplitude)>` sorted
//! by basis key (cf. the sorted-structure representation of sparse
//! Feynman-path simulators): permutation and diagonal kernels are one
//! in-place pass, and the `Single` butterfly is a linear two-way merge
//! with in-place epsilon pruning — no per-gate allocation or rehashing,
//! which the previous `HashMap` representation paid on every H/Ry gate.

use crate::circuit::Circuit;
use crate::compile::{
    lower_gate, CompiledCircuit, CompiledOp, FlipStep, Op, PhaseStep, SingleQubit,
    MAX_COMPILE_WIDTH,
};
use crate::complex::Complex;
use crate::dag::Schedule;
use crate::error::SimError;
use crate::gate::Gate;
use qmkp_rt::RtContext;
use rand::Rng;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

#[cfg(feature = "parallel")]
use rayon::prelude::*;

/// Amplitudes below this magnitude are dropped by the sparse backend after
/// non-permutation gates, keeping the representation tight without
/// affecting measurement statistics.
pub const PRUNE_EPS: f64 = 1e-14;

const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Dense kernels run serially below this amplitude count; above it, passes
/// are split across threads. Covers the thread-spawn overhead of the
/// scoped-thread pool with room to spare.
#[cfg(feature = "parallel")]
const PAR_MIN_AMPS: usize = 1 << 16;

/// Work granule (in amplitudes) for index-parallel dense passes.
#[cfg(feature = "parallel")]
const PAR_CHUNK: usize = 1 << 13;

/// Per-layer hook of the compiled-circuit executor
/// ([`QuantumState::run_observed`]): told the op range and wall time of
/// every layer it applies. Observers are statically dispatched, so one
/// costs nothing per op, and an inactive one is not even timed.
pub trait LayerObserver {
    /// Whether layers need timing at all for this run. When `false` the
    /// executor runs a bare loop and never calls [`LayerObserver::layer`].
    fn active(&self) -> bool {
        true
    }

    /// Called after each layer with its op-index range (into
    /// [`CompiledCircuit::ops`]) and how long applying it took.
    fn layer(&mut self, ops: Range<usize>, elapsed: Duration);
}

/// The observer [`QuantumState::run_compiled`] runs under, resolved once
/// per circuit so the unobserved path stays a bare loop: when recording,
/// each layer's wall time is one `qsim.kernel.layer` observation labelled
/// `backend=dense|sparse`.
struct KernelMeter {
    on: bool,
    backend: &'static str,
}

impl KernelMeter {
    fn new(backend: &'static str) -> KernelMeter {
        KernelMeter {
            on: qmkp_obs::enabled_for("qsim.kernel.layer"),
            backend,
        }
    }
}

impl LayerObserver for KernelMeter {
    fn active(&self) -> bool {
        self.on
    }

    fn layer(&mut self, _ops: Range<usize>, elapsed: Duration) {
        qmkp_obs::observe("qsim.kernel.layer", &[("backend", self.backend)], elapsed);
    }
}

/// The one loop that applies compiled ops: walks `schedule`'s layers in
/// order and hands each to the backend's fused layer kernel. With a
/// context, each layer is one poll of the `qsim.run.op` failpoint and one
/// charge of its op count against the op budget, so interruption lands
/// between layers, never inside a pass, and budgets see every kernel op.
fn run_layers<S: QuantumState + ?Sized, O: LayerObserver>(
    state: &mut S,
    ops: &[CompiledOp],
    schedule: &Schedule,
    ctx: Option<&RtContext>,
    observer: &mut O,
) -> Result<(), SimError> {
    let timed = observer.active();
    for layer in &schedule.layers {
        if let Some(ctx) = ctx {
            qmkp_rt::failpoint::check("qsim.run.op")?;
            ctx.charge_ops(layer.len() as u64)?;
        }
        if timed {
            let start = Instant::now();
            state.apply_layer(&ops[layer.clone()]);
            observer.layer(layer.clone(), start.elapsed());
        } else {
            state.apply_layer(&ops[layer.clone()]);
        }
    }
    Ok(())
}

/// Common interface of the simulation backends.
///
/// Basis states are `u128` bit strings where bit `i` is qubit `i`
/// (LSB = qubit 0), matching the `VertexSet` encoding in `qmkp-graph`.
pub trait QuantumState {
    /// Number of qubits.
    fn width(&self) -> usize;

    /// Applies a single gate (assumed already validated for this width).
    fn apply(&mut self, gate: &Gate);

    /// Applies one layer of support-disjoint compiled ops in a fused pass
    /// (a single op is a layer too).
    fn apply_layer(&mut self, ops: &[CompiledOp]);

    /// Heap footprint of the state representation in bytes (amplitude
    /// storage plus reusable scratch buffers). Exact for both backends:
    /// buffer capacity times entry size.
    fn memory_bytes(&self) -> usize;

    /// Reports backend-specific gauges (memory footprint, support size)
    /// to the observability layer. Called by the traced branch of
    /// [`QuantumState::run_compiled`]; backends override it with their
    /// own gauge names. The default reports nothing.
    fn trace_gauges(&self) {}

    /// Number of nonzero amplitudes, when the backend tracks it cheaply.
    /// `None` for the dense backend, whose support is implicit in the
    /// width.
    fn support_hint(&self) -> Option<usize> {
        None
    }

    /// Stable backend label used by metrics (`dense`, `sparse`, …).
    fn backend_name(&self) -> &'static str {
        "unknown"
    }

    /// The amplitude of a basis state.
    fn amplitude(&self, basis: u128) -> Complex;

    /// All nonzero `(basis, amplitude)` pairs, sorted by basis state.
    fn nonzero(&self) -> Vec<(u128, Complex)>;

    /// Runs a whole circuit through the compiled kernel path.
    ///
    /// # Errors
    /// Fails if the circuit width does not match the state width or the
    /// circuit does not compile ([`SimError::Compile`]).
    fn run(&mut self, circuit: &Circuit) -> Result<(), SimError> {
        self.run_compiled(&CompiledCircuit::compile(circuit)?)
    }

    /// Runs an already-compiled circuit, timing its layers as
    /// `qsim.kernel.layer` observations when recording is on.
    ///
    /// # Errors
    /// Fails if the compiled width does not match the state width.
    fn run_compiled(&mut self, compiled: &CompiledCircuit) -> Result<(), SimError> {
        let mut meter = KernelMeter::new(self.backend_name());
        self.run_observed(compiled, None, &mut meter)?;
        if meter.on {
            self.trace_gauges();
        }
        Ok(())
    }

    /// Runs a whole circuit through the compiled kernel path under an
    /// execution-runtime context: see [`QuantumState::run_compiled_ctx`].
    ///
    /// # Errors
    /// As [`QuantumState::run`], plus [`SimError::Interrupted`] when the
    /// context's budget is exhausted, cancellation is requested, or an
    /// injected fault fires.
    fn run_ctx(&mut self, circuit: &Circuit, ctx: &RtContext) -> Result<(), SimError> {
        self.run_compiled_ctx(&CompiledCircuit::compile(circuit)?, ctx)
    }

    /// Runs an already-compiled circuit under an execution-runtime
    /// context. Identical numerics to [`QuantumState::run_compiled`], but
    /// the state's footprint is admitted against the byte ceiling before
    /// the first pass and again after the last, and every layer is
    /// charged at its op count against the op budget, polls cancellation,
    /// and consults the `qsim.run.op` failpoint — interruption lands
    /// between layers, never inside a pass, so the state stays
    /// structurally valid (though mid-circuit).
    ///
    /// # Errors
    /// As [`QuantumState::run_compiled`], plus [`SimError::Interrupted`]
    /// carrying the structured [`qmkp_rt::RtError`].
    fn run_compiled_ctx(
        &mut self,
        compiled: &CompiledCircuit,
        ctx: &RtContext,
    ) -> Result<(), SimError> {
        ctx.admit_bytes(self.memory_bytes())?;
        let mut meter = KernelMeter::new(self.backend_name());
        self.run_observed(compiled, Some(ctx), &mut meter)?;
        if meter.on {
            self.trace_gauges();
        }
        Ok(())
    }

    /// The compiled-circuit executor every runner goes through: checks
    /// the width and applies the schedule's layers in order. A given
    /// `ctx` is polled and charged once per layer, as
    /// [`QuantumState::run_compiled_ctx`] describes, and admits the
    /// state's footprint once the layers are done, so a state that grew
    /// past the byte ceiling is reported rather than kept; `observer`
    /// sees every layer's op range and wall time.
    ///
    /// # Errors
    /// [`SimError::WidthMismatch`] if the compiled width differs from the
    /// state's, and [`SimError::Interrupted`] when the context's budget
    /// is exhausted (the byte ceiling included), cancellation is
    /// requested, or an injected fault fires.
    fn run_observed<O: LayerObserver>(
        &mut self,
        compiled: &CompiledCircuit,
        ctx: Option<&RtContext>,
        observer: &mut O,
    ) -> Result<(), SimError> {
        if compiled.width() != self.width() {
            return Err(SimError::WidthMismatch {
                expected: self.width(),
                actual: compiled.width(),
            });
        }
        run_layers(self, compiled.ops(), compiled.schedule(), ctx, observer)?;
        if let Some(ctx) = ctx {
            ctx.admit_bytes(self.memory_bytes())?;
        }
        Ok(())
    }

    /// Runs a circuit gate by gate, without compilation. Reference path
    /// for equivalence testing against [`QuantumState::run`].
    ///
    /// # Errors
    /// Fails if the circuit width does not match the state width.
    fn run_interpreted(&mut self, circuit: &Circuit) -> Result<(), SimError> {
        if circuit.width() != self.width() {
            return Err(SimError::WidthMismatch {
                expected: self.width(),
                actual: circuit.width(),
            });
        }
        for g in circuit.gates() {
            self.apply(g);
        }
        Ok(())
    }

    /// The measurement probability of a basis state.
    fn probability(&self, basis: u128) -> f64 {
        self.amplitude(basis).norm_sqr()
    }

    /// Total norm² (should stay 1 up to numerical error).
    fn norm_sqr(&self) -> f64 {
        self.nonzero().iter().map(|(_, a)| a.norm_sqr()).sum()
    }

    /// Marginal probability distribution over a subset of qubits: returns a
    /// map from the subset's bit pattern (bit `i` of the key = `qubits[i]`)
    /// to probability.
    fn marginal(&self, qubits: &[usize]) -> BTreeMap<u128, f64> {
        let mut out = BTreeMap::new();
        for (basis, amp) in self.nonzero() {
            let mut key = 0u128;
            for (i, &q) in qubits.iter().enumerate() {
                if (basis >> q) & 1 == 1 {
                    key |= 1 << i;
                }
            }
            *out.entry(key).or_insert(0.0) += amp.norm_sqr();
        }
        out
    }

    /// Samples `shots` measurement outcomes of the given qubits, returning
    /// outcome → count. Outcome keys are encoded as in
    /// [`QuantumState::marginal`].
    ///
    /// Each shot is a binary search over the cumulative distribution, so
    /// sampling costs `O(support + shots·log support)` rather than the
    /// `O(shots·support)` of a per-shot linear scan.
    fn sample<R: Rng>(&self, rng: &mut R, shots: usize, qubits: &[usize]) -> BTreeMap<u128, usize>
    where
        Self: Sized,
    {
        let marg: Vec<(u128, f64)> = self.marginal(qubits).into_iter().collect();
        let mut cumulative = Vec::with_capacity(marg.len());
        let mut acc = 0.0;
        for &(_, p) in &marg {
            acc += p;
            cumulative.push(acc);
        }
        let total = acc;
        let mut counts = BTreeMap::new();
        for _ in 0..shots {
            let x: f64 = rng.gen::<f64>() * total;
            // First outcome whose cumulative mass exceeds x; the min guards
            // against x == total after floating-point rounding.
            let idx = cumulative.partition_point(|&c| c <= x);
            let chosen = marg
                .get(idx.min(marg.len().saturating_sub(1)))
                .map(|&(k, _)| k)
                .unwrap_or(0);
            *counts.entry(chosen).or_insert(0) += 1;
        }
        counts
    }
}

/// Backend-generic construction, letting budget-aware drivers pick where
/// the state lives (the degradation ladder constructs dense, then sparse,
/// through this one interface).
pub trait BackendState: QuantumState + Sized {
    /// Failpoint site consulted by [`BackendState::zero_budgeted`] before
    /// allocating.
    const ALLOC_SITE: &'static str;

    /// `|0…0⟩` over `width` qubits.
    ///
    /// # Errors
    /// Fails when the backend cannot represent the width.
    fn try_zero(width: usize) -> Result<Self, SimError>;

    /// Projected heap footprint of a fresh zero state of `width` qubits,
    /// saturating at `usize::MAX` for widths the backend cannot hold.
    fn projected_bytes(width: usize) -> usize;

    /// Budget-checked constructor: consults the backend's allocation
    /// failpoint and admits the projected footprint against the context's
    /// byte ceiling *before* allocating, so an over-budget dense request
    /// is rejected without touching the allocator.
    ///
    /// # Errors
    /// [`SimError::Interrupted`] on budget rejection or injected fault,
    /// or the backend's own width error.
    fn zero_budgeted(width: usize, ctx: &RtContext) -> Result<Self, SimError> {
        qmkp_rt::failpoint::check(Self::ALLOC_SITE)?;
        ctx.admit_bytes(Self::projected_bytes(width))?;
        Self::try_zero(width)
    }
}

// ---------------------------------------------------------------------------
// Dense backend
// ---------------------------------------------------------------------------

/// Maximum width of the dense backend (`2^26` amplitudes ≈ 1 GiB).
pub const MAX_DENSE_QUBITS: usize = 26;

/// Full statevector backend: `2^width` complex amplitudes.
#[derive(Debug, Clone)]
pub struct DenseState {
    width: usize,
    amps: Vec<Complex>,
    /// Reusable gather buffer for fused permutation passes; swapped with
    /// `amps` after each pass so no allocation recurs.
    scratch: Vec<Complex>,
}

impl DenseState {
    /// `|basis⟩` over `width` qubits.
    ///
    /// # Errors
    /// Fails if `width > 26`, or with [`SimError::QubitOutOfRange`]
    /// naming the highest set bit of a `basis` outside the register.
    pub fn from_basis(width: usize, basis: u128) -> Result<Self, SimError> {
        if width > MAX_DENSE_QUBITS {
            return Err(SimError::TooManyQubitsForDense {
                requested: width,
                max: MAX_DENSE_QUBITS,
            });
        }
        if basis >> width != 0 {
            return Err(SimError::QubitOutOfRange {
                qubit: 127 - basis.leading_zeros() as usize,
                width,
            });
        }
        let mut amps = vec![Complex::ZERO; 1usize << width];
        amps[basis as usize] = Complex::ONE;
        Ok(DenseState {
            width,
            amps,
            scratch: Vec::new(),
        })
    }

    /// `|0…0⟩` over `width` qubits.
    ///
    /// # Errors
    /// Fails if `width > 26`.
    pub fn zero(width: usize) -> Result<Self, SimError> {
        Self::from_basis(width, 0)
    }

    /// Direct read-only access to the amplitude vector.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// One in-place pass applying a fused run of diagonal gates.
    fn apply_diagonal(&mut self, phases: &[PhaseStep]) {
        if phases.is_empty() {
            return;
        }
        let update = |i: usize, a: &mut Complex| {
            let b = i as u128;
            for p in phases {
                if p.applies_to(b) {
                    *a *= p.phase;
                }
            }
        };
        #[cfg(feature = "parallel")]
        if self.amps.len() >= PAR_MIN_AMPS {
            self.amps
                .par_chunks_mut(PAR_CHUNK)
                .enumerate()
                .for_each(|(ci, chunk)| {
                    let base = ci * PAR_CHUNK;
                    for (t, a) in chunk.iter_mut().enumerate() {
                        update(base + t, a);
                    }
                });
            return;
        }
        for (i, a) in self.amps.iter_mut().enumerate() {
            update(i, a);
        }
    }

    /// A butterfly pass applying a general single-qubit kernel.
    fn apply_single(&mut self, k: &SingleQubit) {
        let m = 1usize << k.qubit;
        let (m00, m01, m10, m11) = (k.m00, k.m01, k.m10, k.m11);
        // Processes a block whose length is a multiple of 2m, pairing
        // offsets (t, t+m) within each 2m-sized run.
        let butterfly = |block: &mut [Complex]| {
            let mut base = 0;
            while base < block.len() {
                for t in base..base + m {
                    let a = block[t];
                    let b = block[t + m];
                    block[t] = m00 * a + m01 * b;
                    block[t + m] = m10 * a + m11 * b;
                }
                base += 2 * m;
            }
        };
        #[cfg(feature = "parallel")]
        {
            // Chunks stay multiples of 2m (both powers of two), so no
            // amplitude pair straddles a chunk boundary.
            let chunk = (2 * m).max(PAR_CHUNK);
            if self.amps.len() >= PAR_MIN_AMPS && self.amps.len() > chunk {
                self.amps.par_chunks_mut(chunk).for_each(butterfly);
                return;
            }
        }
        butterfly(&mut self.amps);
    }

    /// One gather pass applying a layer's permutation and diagonal at
    /// once: `out[i] = d(P⁻¹(i)) · in[P⁻¹(i)]`, where `P` is the layer's
    /// ladders concatenated and `d` its combined diagonal (possibly
    /// empty). Each [`FlipStep`] is an involution, so `P⁻¹` is the steps
    /// in reverse order. Supports are disjoint, so `P` leaves the
    /// diagonal's bits alone and `d` may be evaluated on the gathered
    /// source key.
    fn apply_gather(&mut self, perm: &[FlipStep], diag: &[PhaseStep]) {
        self.scratch.resize(self.amps.len(), Complex::ZERO);
        let amps = &self.amps;
        let scratch = &mut self.scratch[..];
        let gather = |i: usize| {
            let mut key = i as u128;
            for s in perm.iter().rev() {
                key = s.apply(key);
            }
            let mut a = amps[key as usize];
            for p in diag {
                if p.applies_to(key) {
                    a *= p.phase;
                }
            }
            a
        };
        #[cfg(feature = "parallel")]
        if amps.len() >= PAR_MIN_AMPS {
            scratch
                .par_chunks_mut(PAR_CHUNK)
                .enumerate()
                .for_each(|(ci, chunk)| {
                    let base = ci * PAR_CHUNK;
                    for (t, out) in chunk.iter_mut().enumerate() {
                        *out = gather(base + t);
                    }
                });
            std::mem::swap(&mut self.amps, &mut self.scratch);
            return;
        }
        for (i, out) in scratch.iter_mut().enumerate() {
            *out = gather(i);
        }
        std::mem::swap(&mut self.amps, &mut self.scratch);
    }

    /// Layer dispatch. The ops in a layer have pairwise-disjoint
    /// supports, so they commute and may run in any grouping; the
    /// dispatch picks the cheapest:
    ///
    /// * singles run their in-place butterfly, one linear pass each;
    /// * a layer with a permutation runs one gather pass: disjoint
    ///   ladders concatenate into one, and the layer's diagonal (if any)
    ///   rides along, saving a separate sweep;
    /// * a pure diagonal layer stays one in-place sweep.
    fn layer_ops(&mut self, ops: &[CompiledOp]) {
        let mut perm: Vec<FlipStep> = Vec::new();
        let mut diag: Vec<PhaseStep> = Vec::new();
        for op in ops {
            match op {
                Op::Permutation(steps) => perm.extend_from_slice(steps),
                Op::Diagonal(phases) => diag.extend_from_slice(phases),
                Op::Single(k) => self.apply_single(k),
            }
        }
        if perm.is_empty() {
            self.apply_diagonal(&diag);
        } else {
            self.apply_gather(&perm, &diag);
        }
    }
}

impl BackendState for DenseState {
    const ALLOC_SITE: &'static str = "qsim.dense.alloc";

    fn try_zero(width: usize) -> Result<Self, SimError> {
        DenseState::zero(width)
    }

    fn projected_bytes(width: usize) -> usize {
        1usize
            .checked_shl(width as u32)
            .and_then(|amps| amps.checked_mul(std::mem::size_of::<Complex>()))
            .unwrap_or(usize::MAX)
    }
}

impl QuantumState for DenseState {
    fn width(&self) -> usize {
        self.width
    }

    fn amplitude(&self, basis: u128) -> Complex {
        self.amps
            .get(basis as usize)
            .copied()
            .unwrap_or(Complex::ZERO)
    }

    fn nonzero(&self) -> Vec<(u128, Complex)> {
        self.amps
            .iter()
            .enumerate()
            .filter(|(_, a)| !a.is_negligible(PRUNE_EPS))
            .map(|(i, a)| (i as u128, *a))
            .collect()
    }

    fn apply_layer(&mut self, ops: &[CompiledOp]) {
        self.layer_ops(ops);
    }

    fn memory_bytes(&self) -> usize {
        (self.amps.capacity() + self.scratch.capacity()) * std::mem::size_of::<Complex>()
    }

    fn trace_gauges(&self) {
        qmkp_obs::gauge("qsim.dense.mem_bytes", &[], self.memory_bytes() as f64);
    }

    fn backend_name(&self) -> &'static str {
        "dense"
    }

    fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    fn apply(&mut self, gate: &Gate) {
        match gate {
            Gate::X(q) => {
                let m = 1usize << q;
                for i in 0..self.amps.len() {
                    if i & m == 0 {
                        self.amps.swap(i, i | m);
                    }
                }
            }
            Gate::H(q) => {
                let m = 1usize << q;
                for i in 0..self.amps.len() {
                    if i & m == 0 {
                        let a = self.amps[i];
                        let b = self.amps[i | m];
                        self.amps[i] = (a + b).scale(FRAC_1_SQRT_2);
                        self.amps[i | m] = (a - b).scale(FRAC_1_SQRT_2);
                    }
                }
            }
            Gate::Z(q) => {
                // Only indices with bit q set are touched: stride over the
                // upper half of each 2m block (len/2 amplitudes visited).
                let m = 1usize << q;
                let mut base = m;
                while base < self.amps.len() {
                    for a in &mut self.amps[base..base + m] {
                        *a = -*a;
                    }
                    base += 2 * m;
                }
            }
            Gate::Phase(q, theta) => {
                let m = 1usize << q;
                let ph = Complex::from_phase(*theta);
                let mut base = m;
                while base < self.amps.len() {
                    for a in &mut self.amps[base..base + m] {
                        *a *= ph;
                    }
                    base += 2 * m;
                }
            }
            Gate::Ry(q, theta) => {
                let m = 1usize << q;
                let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                for i in 0..self.amps.len() {
                    if i & m == 0 {
                        let a = self.amps[i];
                        let b = self.amps[i | m];
                        self.amps[i] = a.scale(c) - b.scale(s);
                        self.amps[i | m] = a.scale(s) + b.scale(c);
                    }
                }
            }
            Gate::CPhase(p, q, theta) => {
                // Nested stride loops visit exactly the len/4 indices with
                // both bits set.
                let (lo, hi) = if p < q { (*p, *q) } else { (*q, *p) };
                let (ml, mh) = (1usize << lo, 1usize << hi);
                let ph = Complex::from_phase(*theta);
                let mut bh = mh;
                while bh < self.amps.len() {
                    let mut bl = bh + ml;
                    while bl < bh + mh {
                        for a in &mut self.amps[bl..bl + ml] {
                            *a *= ph;
                        }
                        bl += 2 * ml;
                    }
                    bh += 2 * mh;
                }
            }
            Gate::Mcx { controls, target } => {
                let m = 1usize << target;
                for i in 0..self.amps.len() {
                    if i & m == 0 && controls.iter().all(|c| c.satisfied_by(i as u128)) {
                        self.amps.swap(i, i | m);
                    }
                }
            }
            Gate::Mcz { controls, target } => {
                let m = 1usize << target;
                for (i, a) in self.amps.iter_mut().enumerate() {
                    if i & m != 0 && controls.iter().all(|c| c.satisfied_by(i as u128)) {
                        *a = -*a;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sparse backend
// ---------------------------------------------------------------------------

/// Ladders at least this long take the half-split permutation pass (the
/// per-call split allocation amortizes); shorter ones — in particular the
/// interpreted path's single-step calls — stay allocation-free.
const SPLIT_LADDER_MIN: usize = 8;

/// A [`FlipStep`] pre-split into 64-bit halves for the sparse
/// permutation ladder (see `apply_permutation_split`).
#[derive(Clone, Copy)]
struct SplitStep {
    care_lo: u64,
    want_lo: u64,
    flip_lo: u64,
    care_hi: u64,
    want_hi: u64,
    flip_hi: u64,
}

/// Splits a key into `(low 64 bits, high 64 bits)`. The sparse ladder
/// runs steps whose masks live entirely in the low half on u64
/// arithmetic.
#[inline]
fn split_lo_hi(key: u128) -> (u64, u64) {
    (key as u64, (key >> 64) as u64)
}

/// Inverse of [`split_lo_hi`].
#[inline]
fn from_lo_hi(lo: u64, hi: u64) -> u128 {
    (lo as u128) | ((hi as u128) << 64)
}

impl SplitStep {
    fn from_step(s: FlipStep) -> Self {
        let (care_lo, care_hi) = split_lo_hi(s.care);
        let (want_lo, want_hi) = split_lo_hi(s.want);
        let (flip_lo, flip_hi) = split_lo_hi(s.flip);
        SplitStep {
            care_lo,
            want_lo,
            flip_lo,
            care_hi,
            want_hi,
            flip_hi,
        }
    }

    /// Whether the step's masks live entirely in the low 64 bits (`want ⊆
    /// care`, so `care_hi == 0` implies `want_hi == 0`).
    fn is_narrow(&self) -> bool {
        self.care_hi == 0 && self.flip_hi == 0
    }
}

/// The sorted-vec amplitude store.
///
/// Invariant: `amps` is sorted by key with all keys distinct. The scratch
/// buffers hold no live data between ops — only their capacity is reused,
/// so a `Single` pass allocates nothing once the buffers have grown to the
/// working support size.
#[derive(Debug, Clone)]
struct SparseCore {
    amps: Vec<(u128, Complex)>,
    /// Pass-1 buffer: entries with the target bit clear, key unchanged.
    split_lo: Vec<(u128, Complex)>,
    /// Pass-1 buffer: entries with the target bit set, key normalized
    /// (bit cleared) — still sorted, since clearing the same bit from
    /// keys that all have it set preserves order.
    split_hi: Vec<(u128, Complex)>,
    /// Pass-2 output: bit-clear halves of the butterflies.
    out_lo: Vec<(u128, Complex)>,
    /// Pass-2 output: bit-set halves (key has the bit re-set).
    out_hi: Vec<(u128, Complex)>,
}

impl SparseCore {
    fn from_basis(basis: u128) -> Self {
        SparseCore {
            amps: vec![(basis, Complex::ONE)],
            split_lo: Vec::new(),
            split_hi: Vec::new(),
            out_lo: Vec::new(),
            out_hi: Vec::new(),
        }
    }

    fn amplitude(&self, basis: u128) -> Complex {
        match self.amps.binary_search_by_key(&basis, |&(b, _)| b) {
            Ok(i) => self.amps[i].1,
            Err(_) => Complex::ZERO,
        }
    }

    fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|(_, a)| a.norm_sqr()).sum()
    }

    /// Exact heap footprint: capacity of every buffer times entry size.
    fn memory_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(u128, Complex)>();
        (self.amps.capacity()
            + self.split_lo.capacity()
            + self.split_hi.capacity()
            + self.out_lo.capacity()
            + self.out_hi.capacity())
            * entry
    }

    /// One in-place pass applying a fused permutation. A permutation maps
    /// distinct keys to distinct keys; the pass tracks whether the mapped
    /// keys are still ascending and sorts only when they are not (flip
    /// steps that touch only high ancilla bits of clustered supports often
    /// preserve order).
    fn apply_permutation(&mut self, steps: &[FlipStep]) {
        if steps.is_empty() {
            // Peephole cancellation can empty a run.
            return;
        }
        if steps.len() < SPLIT_LADDER_MIN {
            // Short ladders (in particular the interpreted path's
            // single-step calls) skip the split machinery and its
            // allocations.
            let mut chunks = self.amps.chunks_exact_mut(4);
            for chunk in &mut chunks {
                let (mut k0, mut k1, mut k2, mut k3) =
                    (chunk[0].0, chunk[1].0, chunk[2].0, chunk[3].0);
                for s in steps {
                    k0 = s.apply(k0);
                    k1 = s.apply(k1);
                    k2 = s.apply(k2);
                    k3 = s.apply(k3);
                }
                chunk[0].0 = k0;
                chunk[1].0 = k1;
                chunk[2].0 = k2;
                chunk[3].0 = k3;
            }
            for (b, _) in chunks.into_remainder() {
                let mut key = *b;
                for s in steps {
                    key = s.apply(key);
                }
                *b = key;
            }
        } else {
            self.apply_permutation_split(steps);
        }
        // Flip steps that touch only high ancilla bits of clustered
        // supports often preserve order, so check before sorting.
        if self.amps.windows(2).any(|w| w[1].0 <= w[0].0) {
            self.amps.sort_unstable_by_key(|&(b, _)| b);
        }
    }

    /// Long-ladder permutation pass with the steps pre-split into 64-bit
    /// halves. Oracle circuits put the high-traffic registers (vertices,
    /// edge ancillas, degree counters) in the low qubits, so most steps
    /// never touch the top half of a key — runs
    /// of such steps execute on pure u64 arithmetic, roughly halving the
    /// ALU work of the hot ladder. Keys ride through the ladder four at a
    /// time: each step's output feeds the next step's control test, so a
    /// single key is a serial dependency chain and the interleaving is
    /// what lets the CPU overlap the latency-bound mask arithmetic.
    fn apply_permutation_split(&mut self, steps: &[FlipStep]) {
        // Dead-step elimination: track which bits *may* be 1 and which
        // *may* be 0 anywhere in the support. A step whose control test
        // needs a bit state that no key can have never fires, so it is
        // dropped for the whole pass. Oracle ladders are full of these:
        // ancilla counters start at zero, so the high-order carry steps
        // of the early increments are provably dead. Firing a surviving
        // step makes its flipped bits unknown in both directions.
        let (mut may1_lo, mut may1_hi) = (0u64, 0u64);
        let (mut all1_lo, mut all1_hi) = (!0u64, !0u64);
        for &(b, _) in &self.amps {
            let (l, h) = split_lo_hi(b);
            may1_lo |= l;
            may1_hi |= h;
            all1_lo &= l;
            all1_hi &= h;
        }
        let (mut may0_lo, mut may0_hi) = (!all1_lo, !all1_hi);
        let mut split: Vec<SplitStep> = Vec::with_capacity(steps.len());
        for s in steps {
            let st = SplitStep::from_step(*s);
            let dead = st.want_lo & !may1_lo != 0
                || st.want_hi & !may1_hi != 0
                || (st.care_lo & !st.want_lo) & !may0_lo != 0
                || (st.care_hi & !st.want_hi) & !may0_hi != 0;
            if dead {
                continue;
            }
            may1_lo |= st.flip_lo;
            may1_hi |= st.flip_hi;
            may0_lo |= st.flip_lo;
            may0_hi |= st.flip_hi;
            split.push(st);
        }
        // Maximal runs of steps sharing narrowness, as (narrow, start, end).
        let mut runs: Vec<(bool, usize, usize)> = Vec::new();
        for (i, st) in split.iter().enumerate() {
            let narrow = st.is_narrow();
            match runs.last_mut() {
                Some((n, _, end)) if *n == narrow => *end = i + 1,
                _ => runs.push((narrow, i, i + 1)),
            }
        }
        let mut chunks = self.amps.chunks_exact_mut(8);
        for chunk in &mut chunks {
            let mut lo = [0u64; 8];
            let mut hi = [0u64; 8];
            for (i, &(b, _)) in chunk.iter().enumerate() {
                (lo[i], hi[i]) = split_lo_hi(b);
            }
            for &(narrow, start, end) in &runs {
                if narrow {
                    for s in &split[start..end] {
                        for l in &mut lo {
                            let hit = ((*l & s.care_lo == s.want_lo) as u64).wrapping_neg();
                            *l ^= s.flip_lo & hit;
                        }
                    }
                } else {
                    for s in &split[start..end] {
                        for (l, h) in lo.iter_mut().zip(&mut hi) {
                            let hit = ((*l & s.care_lo == s.want_lo && *h & s.care_hi == s.want_hi)
                                as u64)
                                .wrapping_neg();
                            *l ^= s.flip_lo & hit;
                            *h ^= s.flip_hi & hit;
                        }
                    }
                }
            }
            for (i, (b, _)) in chunk.iter_mut().enumerate() {
                *b = from_lo_hi(lo[i], hi[i]);
            }
        }
        for (b, _) in chunks.into_remainder() {
            let (mut lo, mut hi) = split_lo_hi(*b);
            for s in &split {
                let hit = ((lo & s.care_lo == s.want_lo && hi & s.care_hi == s.want_hi) as u64)
                    .wrapping_neg();
                lo ^= s.flip_lo & hit;
                hi ^= s.flip_hi & hit;
            }
            *b = from_lo_hi(lo, hi);
        }
    }

    /// One in-place pass applying a fused run of diagonal gates.
    fn apply_diagonal(&mut self, phases: &[PhaseStep]) {
        for (b, a) in self.amps.iter_mut() {
            for p in phases {
                if p.applies_to(*b) {
                    *a *= p.phase;
                }
            }
        }
    }

    /// The `Single`-kernel butterfly as three linear passes over sorted
    /// vecs — the hot path the sorted representation exists for:
    ///
    /// 1. partition `amps` by the target bit into `split_lo` / `split_hi`
    ///    (keys normalized to bit-clear; both halves stay sorted),
    /// 2. two-pointer merge over normalized keys, emitting each
    ///    butterfly's bit-clear half into `out_lo` and bit-set half into
    ///    `out_hi`, pruning negligible amplitudes as they are produced,
    /// 3. two-pointer merge of `out_lo` / `out_hi` back into `amps`
    ///    (keys from the two sides are never equal — they differ in the
    ///    target bit).
    fn apply_single(&mut self, k: &SingleQubit) {
        let m = 1u128 << k.qubit;
        self.split_lo.clear();
        self.split_hi.clear();
        for &(b, a) in &self.amps {
            if b & m == 0 {
                self.split_lo.push((b, a));
            } else {
                self.split_hi.push((b & !m, a));
            }
        }
        self.out_lo.clear();
        self.out_hi.clear();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.split_lo.len() || j < self.split_hi.len() {
            let next_lo = self.split_lo.get(i).copied();
            let next_hi = self.split_hi.get(j).copied();
            let (key, a0, a1) = match (next_lo, next_hi) {
                (Some((kl, al)), Some((kh, ah))) => match kl.cmp(&kh) {
                    std::cmp::Ordering::Less => {
                        i += 1;
                        (kl, al, Complex::ZERO)
                    }
                    std::cmp::Ordering::Greater => {
                        j += 1;
                        (kh, Complex::ZERO, ah)
                    }
                    std::cmp::Ordering::Equal => {
                        i += 1;
                        j += 1;
                        (kl, al, ah)
                    }
                },
                (Some((kl, al)), None) => {
                    i += 1;
                    (kl, al, Complex::ZERO)
                }
                (None, Some((kh, ah))) => {
                    j += 1;
                    (kh, Complex::ZERO, ah)
                }
                (None, None) => break,
            };
            let lo = k.m00 * a0 + k.m01 * a1;
            let hi = k.m10 * a0 + k.m11 * a1;
            if !lo.is_negligible(PRUNE_EPS) {
                self.out_lo.push((key, lo));
            }
            if !hi.is_negligible(PRUNE_EPS) {
                self.out_hi.push((key | m, hi));
            }
        }
        self.amps.clear();
        self.amps.reserve(self.out_lo.len() + self.out_hi.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.out_lo.len() && j < self.out_hi.len() {
            if self.out_lo[i].0 < self.out_hi[j].0 {
                self.amps.push(self.out_lo[i]);
                i += 1;
            } else {
                self.amps.push(self.out_hi[j]);
                j += 1;
            }
        }
        self.amps.extend_from_slice(&self.out_lo[i..]);
        self.amps.extend_from_slice(&self.out_hi[j..]);
    }

    fn apply_op(&mut self, op: &CompiledOp) {
        match op {
            Op::Permutation(steps) => self.apply_permutation(steps),
            Op::Diagonal(phases) => self.apply_diagonal(phases),
            Op::Single(k) => self.apply_single(k),
        }
    }

    /// Applies one support-disjoint scheduled layer. The layer's
    /// permutation and diagonal content collapses into a single in-place
    /// key-rewrite pass (disjoint supports make the phase-vs-flip order
    /// irrelevant, so the phase test reads the pre-permutation key);
    /// ladders long enough for the split machinery keep it by falling
    /// back to the two specialised passes. `Single` kernels run their
    /// merge passes afterwards — their qubits are untouched by the rest
    /// of the layer.
    fn apply_layer_ops(&mut self, ops: &[CompiledOp]) {
        if let [op] = ops {
            self.apply_op(op);
            return;
        }
        let mut perm: Vec<FlipStep> = Vec::new();
        let mut diag: Vec<PhaseStep> = Vec::new();
        for op in ops {
            match op {
                Op::Permutation(steps) => perm.extend_from_slice(steps),
                Op::Diagonal(phases) => diag.extend_from_slice(phases),
                Op::Single(_) => {}
            }
        }
        if !perm.is_empty() && !diag.is_empty() && perm.len() < SPLIT_LADDER_MIN {
            for (b, a) in self.amps.iter_mut() {
                for p in &diag {
                    if p.applies_to(*b) {
                        *a *= p.phase;
                    }
                }
                let mut key = *b;
                for s in &perm {
                    key = s.apply(key);
                }
                *b = key;
            }
            if self.amps.windows(2).any(|w| w[1].0 <= w[0].0) {
                self.amps.sort_unstable_by_key(|&(b, _)| b);
            }
        } else {
            if !diag.is_empty() {
                self.apply_diagonal(&diag);
            }
            self.apply_permutation(&perm);
        }
        for op in ops {
            if let Op::Single(k) = op {
                self.apply_single(k);
            }
        }
    }
}

/// Sparse sorted-vec backend: only nonzero basis states are stored, as a
/// `Vec<(u128, amplitude)>` sorted by basis key.
///
/// Suited to circuits that are mostly basis-state permutations (X / MCX):
/// the qTKP oracle over 50-200 qubits keeps at most `2^n` nonzero
/// amplitudes, where `n` is the number of vertex qubits ever touched by a
/// Hadamard. Every register, however narrow, stores 32-byte
/// `(u128, Complex)` entries.
#[derive(Debug, Clone)]
pub struct SparseState {
    width: usize,
    core: SparseCore,
}

impl SparseState {
    /// `|basis⟩` over `width` qubits (any width up to 128).
    ///
    /// # Errors
    /// [`SimError::QubitOutOfRange`] naming the highest set bit of a
    /// `basis` outside the register, or, for a register wider than 128
    /// qubits, naming its top qubit against the 128-qubit encoding.
    pub fn from_basis(width: usize, basis: u128) -> Result<Self, SimError> {
        if width > MAX_COMPILE_WIDTH {
            return Err(SimError::QubitOutOfRange {
                qubit: width - 1,
                width: MAX_COMPILE_WIDTH,
            });
        }
        if basis.checked_shr(width as u32).unwrap_or(0) != 0 {
            return Err(SimError::QubitOutOfRange {
                qubit: 127 - basis.leading_zeros() as usize,
                width,
            });
        }
        Ok(SparseState {
            width,
            core: SparseCore::from_basis(basis),
        })
    }

    /// `|0…0⟩` over `width` qubits.
    ///
    /// # Panics
    /// Panics if `width > 128`; [`BackendState::try_zero`] reports that
    /// as an error instead.
    pub fn zero(width: usize) -> Self {
        assert!(
            width <= MAX_COMPILE_WIDTH,
            "at most 128 qubits are supported"
        );
        SparseState {
            width,
            core: SparseCore::from_basis(0),
        }
    }

    /// Number of nonzero amplitudes currently stored.
    pub fn support_size(&self) -> usize {
        self.core.amps.len()
    }
}

impl BackendState for SparseState {
    const ALLOC_SITE: &'static str = "qsim.sparse.alloc";

    fn try_zero(width: usize) -> Result<Self, SimError> {
        SparseState::from_basis(width, 0)
    }

    fn projected_bytes(_width: usize) -> usize {
        // A fresh zero state stores one amplitude; support growth during a
        // run is the caller's preflight estimate, not an allocation here.
        std::mem::size_of::<(u128, Complex)>()
    }
}

impl QuantumState for SparseState {
    fn width(&self) -> usize {
        self.width
    }

    fn amplitude(&self, basis: u128) -> Complex {
        self.core.amplitude(basis)
    }

    fn nonzero(&self) -> Vec<(u128, Complex)> {
        // `amps` is already sorted by key.
        self.core
            .amps
            .iter()
            .filter(|(_, a)| !a.is_negligible(PRUNE_EPS))
            .copied()
            .collect()
    }

    fn apply_layer(&mut self, ops: &[CompiledOp]) {
        self.core.apply_layer_ops(ops);
    }

    fn memory_bytes(&self) -> usize {
        self.core.memory_bytes()
    }

    fn support_hint(&self) -> Option<usize> {
        Some(self.support_size())
    }

    fn trace_gauges(&self) {
        qmkp_obs::gauge("qsim.sparse.mem_bytes", &[], self.memory_bytes() as f64);
        qmkp_obs::gauge("qsim.sparse.support", &[], self.support_size() as f64);
    }

    fn backend_name(&self) -> &'static str {
        "sparse"
    }

    fn norm_sqr(&self) -> f64 {
        self.core.norm_sqr()
    }

    /// Lowers the gate as the compiler does and applies the op through
    /// the same passes as a compiled run.
    fn apply(&mut self, gate: &Gate) {
        self.core.apply_op(&lower_gate(gate));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Control;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-10;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < EPS, "{a} != {b}");
    }

    #[test]
    fn basis_state_construction() {
        let d = DenseState::from_basis(3, 0b101).unwrap();
        assert_close(d.probability(0b101), 1.0);
        assert_close(d.probability(0b100), 0.0);
        let s = SparseState::from_basis(100, 1u128 << 99).unwrap();
        assert_close(s.probability(1u128 << 99), 1.0);
        assert_eq!(s.support_size(), 1);
    }

    #[test]
    fn dense_rejects_large_widths() {
        assert!(matches!(
            DenseState::zero(27),
            Err(SimError::TooManyQubitsForDense { .. })
        ));
    }

    #[test]
    fn x_gate_flips() {
        for_both_backends(1, |st| {
            st.apply_gate(&Gate::X(0));
            assert_close(st.prob(1), 1.0);
        });
    }

    #[test]
    fn h_gate_makes_superposition_and_is_self_inverse() {
        for_both_backends(1, |st| {
            st.apply_gate(&Gate::H(0));
            assert_close(st.prob(0), 0.5);
            assert_close(st.prob(1), 0.5);
            st.apply_gate(&Gate::H(0));
            assert_close(st.prob(0), 1.0);
        });
    }

    #[test]
    fn hzh_equals_x() {
        for_both_backends(1, |st| {
            st.apply_gate(&Gate::H(0));
            st.apply_gate(&Gate::Z(0));
            st.apply_gate(&Gate::H(0));
            assert_close(st.prob(1), 1.0);
        });
    }

    #[test]
    fn cnot_truth_table() {
        for target_in in 0..2u128 {
            for control_in in 0..2u128 {
                let basis = control_in | (target_in << 1);
                let mut d = DenseState::from_basis(2, basis).unwrap();
                d.apply(&Gate::cnot(0, 1));
                let expected = if control_in == 1 { basis ^ 0b10 } else { basis };
                assert_close(d.probability(expected), 1.0);
            }
        }
    }

    #[test]
    fn toffoli_truth_table() {
        for b in 0..8u128 {
            let mut d = DenseState::from_basis(3, b).unwrap();
            let mut s = SparseState::from_basis(3, b).unwrap();
            let g = Gate::ccnot(0, 1, 2);
            d.apply(&g);
            s.apply(&g);
            let expected = if b & 0b11 == 0b11 { b ^ 0b100 } else { b };
            assert_close(d.probability(expected), 1.0);
            assert_close(s.probability(expected), 1.0);
        }
    }

    #[test]
    fn negative_controls() {
        // Flip target iff qubit0 = 0.
        let g = Gate::Mcx {
            controls: vec![Control::neg(0)],
            target: 1,
        };
        let mut d = DenseState::from_basis(2, 0b00).unwrap();
        d.apply(&g);
        assert_close(d.probability(0b10), 1.0);
        let mut d = DenseState::from_basis(2, 0b01).unwrap();
        d.apply(&g);
        assert_close(d.probability(0b01), 1.0);
    }

    #[test]
    fn mcz_phases_only_the_selected_state() {
        for_both_backends(2, |st| {
            st.apply_gate(&Gate::H(0));
            st.apply_gate(&Gate::H(1));
            st.apply_gate(&Gate::Mcz {
                controls: vec![Control::pos(0)],
                target: 1,
            });
            // |11⟩ picks up a −1 phase; probabilities unchanged.
            assert_close(st.prob(0b11), 0.25);
            assert!(st.amp(0b11).re < 0.0);
            assert!(st.amp(0b00).re > 0.0);
        });
    }

    #[test]
    fn phase_gate() {
        for_both_backends(1, |st| {
            st.apply_gate(&Gate::H(0));
            st.apply_gate(&Gate::Phase(0, std::f64::consts::PI));
            st.apply_gate(&Gate::H(0));
            // HP(π)H = HZH = X
            assert_close(st.prob(1), 1.0);
        });
    }

    #[test]
    fn cphase_touches_only_the_11_subspace() {
        for_both_backends(2, |st| {
            st.apply_gate(&Gate::H(0));
            st.apply_gate(&Gate::H(1));
            st.apply_gate(&Gate::CPhase(0, 1, std::f64::consts::FRAC_PI_2));
            let a = st.amp(0b11);
            assert_close(a.re, 0.0);
            assert_close(a.im, 0.5);
            assert_close(st.amp(0b01).re, 0.5);
            assert_close(st.amp(0b01).im, 0.0);
        });
    }

    /// Runs a closure against both backends initialized to |0…0⟩, and
    /// against the sparse backend with the same gates embedded in a
    /// 100-qubit register (gates only touch the low qubits, so the
    /// amplitudes must agree with the narrow register's).
    fn for_both_backends(width: usize, f: impl Fn(&mut dyn DynState)) {
        let mut d = DenseState::zero(width).unwrap();
        f(&mut d);
        let mut s = SparseState::zero(width);
        f(&mut s);
        let mut wide = SparseState::zero(100);
        f(&mut wide);
    }

    /// Object-safe subset of `QuantumState` used by the test helper.
    /// Method names are distinct from the trait's to avoid ambiguity with
    /// the blanket impl below.
    trait DynState {
        fn apply_gate(&mut self, gate: &Gate);
        fn prob(&self, basis: u128) -> f64;
        fn amp(&self, basis: u128) -> Complex;
    }

    impl<T: QuantumState> DynState for T {
        fn apply_gate(&mut self, gate: &Gate) {
            QuantumState::apply(self, gate)
        }
        fn prob(&self, basis: u128) -> f64 {
            QuantumState::probability(self, basis)
        }
        fn amp(&self, basis: u128) -> Complex {
            QuantumState::amplitude(self, basis)
        }
    }

    /// The same gates re-pushed into a wider register (the extra qubits
    /// stay untouched).
    fn embed(circ: &Circuit, width: usize) -> Circuit {
        let mut c = Circuit::new(width);
        for g in circ.gates() {
            c.push_unchecked(g.clone());
        }
        c
    }

    /// A random circuit over the full gate set, seeded deterministically.
    fn random_circuit(rng: &mut StdRng, width: usize, gates: usize) -> Circuit {
        use rand::Rng;
        let mut circ = Circuit::new(width);
        for _ in 0..gates {
            let q = rng.gen_range(0..width);
            let gate = match rng.gen_range(0..8) {
                0 => Gate::X(q),
                1 => Gate::H(q),
                2 => Gate::Z(q),
                3 => Gate::Phase(q, rng.gen_range(-3.0..3.0)),
                4 => Gate::Ry(q, rng.gen_range(-3.0..3.0)),
                5 => Gate::CPhase(q, (q + 1) % width, rng.gen_range(-3.0..3.0)),
                6 => {
                    let t = (q + 1) % width;
                    Gate::Mcx {
                        controls: vec![Control {
                            qubit: q,
                            positive: rng.gen(),
                        }],
                        target: t,
                    }
                }
                _ => {
                    let t = (q + 1) % width;
                    Gate::Mcz {
                        controls: vec![Control {
                            qubit: q,
                            positive: rng.gen(),
                        }],
                        target: t,
                    }
                }
            };
            circ.push(gate).unwrap();
        }
        circ
    }

    #[test]
    fn dense_and_sparse_agree_on_random_circuits() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..20 {
            let width = rng.gen_range(2..7);
            let circ = random_circuit(&mut rng, width, 30);
            let mut d = DenseState::zero(width).unwrap();
            let mut s = SparseState::zero(width);
            d.run(&circ).unwrap();
            s.run(&circ).unwrap();
            for b in 0..(1u128 << width) {
                let da = d.amplitude(b);
                let sa = s.amplitude(b);
                assert!(
                    (da - sa).norm() < 1e-9,
                    "width={width} basis={b:b}: dense {da} vs sparse {sa}"
                );
            }
            assert_close(d.norm_sqr(), 1.0);
            assert_close(s.norm_sqr(), 1.0);
        }
    }

    #[test]
    fn compiled_run_matches_interpreted_on_random_circuits() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..20 {
            let width = rng.gen_range(2..7);
            let circ = random_circuit(&mut rng, width, 40);
            let mut compiled = DenseState::zero(width).unwrap();
            let mut interpreted = DenseState::zero(width).unwrap();
            compiled.run(&circ).unwrap();
            interpreted.run_interpreted(&circ).unwrap();
            let mut sc = SparseState::zero(width);
            let mut si = SparseState::zero(width);
            sc.run(&circ).unwrap();
            si.run_interpreted(&circ).unwrap();
            for b in 0..(1u128 << width) {
                assert!(
                    (compiled.amplitude(b) - interpreted.amplitude(b)).norm() < 1e-9,
                    "dense compiled vs interpreted at {b:b}"
                );
                assert!(
                    (sc.amplitude(b) - si.amplitude(b)).norm() < 1e-9,
                    "sparse compiled vs interpreted at {b:b}"
                );
            }
        }
    }

    /// Applies ops one at a time, each as its own layer.
    fn apply_each<S: QuantumState>(s: &mut S, ops: &[CompiledOp]) {
        for op in ops {
            s.apply_layer(std::slice::from_ref(op));
        }
    }

    #[test]
    fn sparse_support_stays_sorted_and_distinct() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..10 {
            let width = rng.gen_range(2..7);
            let circ = random_circuit(&mut rng, width, 50);
            let mut s = SparseState::zero(width);
            s.run(&circ).unwrap();
            let nz = s.nonzero();
            for w in nz.windows(2) {
                assert!(w[0].0 < w[1].0, "keys must stay sorted and distinct");
            }
        }
    }

    #[test]
    fn run_checks_width() {
        let circ = Circuit::new(3);
        let mut d = DenseState::zero(2).unwrap();
        assert!(matches!(d.run(&circ), Err(SimError::WidthMismatch { .. })));
        assert!(matches!(
            d.run_interpreted(&circ),
            Err(SimError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn run_surfaces_compile_errors() {
        // A 200-qubit circuit exceeds the 128-bit basis encoding; `run`
        // must report that as a structured error, not panic.
        let circ = Circuit::new(200);
        let mut s = SparseState::zero(100);
        assert!(matches!(s.run(&circ), Err(SimError::Compile(_))));
    }

    #[test]
    fn marginal_distribution() {
        // Bell state on qubits 0, 1 of a 3-qubit register.
        let mut s = SparseState::zero(3);
        s.apply(&Gate::H(0));
        s.apply(&Gate::cnot(0, 1));
        let m = s.marginal(&[0, 1]);
        assert_close(m[&0b00], 0.5);
        assert_close(m[&0b11], 0.5);
        assert!(!m.contains_key(&0b01));
        // Marginal over just qubit 1.
        let m1 = s.marginal(&[1]);
        assert_close(m1[&0], 0.5);
        assert_close(m1[&1], 0.5);
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut s = SparseState::zero(2);
        s.apply(&Gate::H(0));
        s.apply(&Gate::cnot(0, 1));
        let mut rng = StdRng::seed_from_u64(7);
        let counts = s.sample(&mut rng, 10_000, &[0, 1]);
        let c00 = *counts.get(&0b00).unwrap_or(&0);
        let c11 = *counts.get(&0b11).unwrap_or(&0);
        assert_eq!(c00 + c11, 10_000, "only Bell outcomes should appear");
        assert!((c00 as f64 - 5_000.0).abs() < 300.0, "c00={c00}");
    }

    #[test]
    fn sampling_a_deterministic_state_is_exact() {
        // After X on qubit 1 the only outcome is 0b10 — every shot must
        // land there regardless of where the binary search probes.
        let mut d = DenseState::zero(2).unwrap();
        d.apply(&Gate::X(1));
        let mut rng = StdRng::seed_from_u64(3);
        let counts = d.sample(&mut rng, 1_000, &[0, 1]);
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[&0b10], 1_000);
    }

    #[test]
    fn sparse_support_stays_bounded_under_permutation_gates() {
        let mut s = SparseState::zero(60);
        for q in 0..4 {
            s.apply(&Gate::H(q));
        }
        assert_eq!(s.support_size(), 16);
        // A long chain of Toffolis into high ancilla qubits must not grow
        // the support.
        for q in 4..60 {
            s.apply(&Gate::ccnot(0, 1, q));
            s.apply(&Gate::cnot(2, q));
        }
        assert_eq!(s.support_size(), 16);
        assert_close(s.norm_sqr(), 1.0);
    }

    #[test]
    fn compiled_run_keeps_sparse_support_bounded() {
        let mut c = Circuit::new(60);
        for q in 0..4 {
            c.push_unchecked(Gate::H(q));
        }
        for q in 4..60 {
            c.push_unchecked(Gate::ccnot(0, 1, q));
            c.push_unchecked(Gate::cnot(2, q));
        }
        let mut s = SparseState::zero(60);
        s.run(&c).unwrap();
        assert_eq!(s.support_size(), 16);
        assert_close(s.norm_sqr(), 1.0);
    }

    #[test]
    fn prune_drops_tiny_amplitudes() {
        let mut s = SparseState::zero(1);
        s.apply(&Gate::H(0));
        s.apply(&Gate::H(0));
        // H·H cancels the |1⟩ amplitude; the butterfly itself drops it.
        assert_eq!(s.support_size(), 1);
    }

    #[test]
    fn dense_from_basis_rejects_a_basis_outside_the_register() {
        assert_eq!(
            DenseState::from_basis(3, 0b1000).unwrap_err(),
            SimError::QubitOutOfRange { qubit: 3, width: 3 }
        );
        // Bits beyond a usize index must not truncate to |0⟩.
        assert_eq!(
            DenseState::from_basis(3, 1 << 64).unwrap_err(),
            SimError::QubitOutOfRange {
                qubit: 64,
                width: 3
            }
        );
        let s = DenseState::from_basis(3, 0b111).unwrap();
        assert_close(s.probability(0b111), 1.0);
    }

    #[test]
    fn sparse_from_basis_rejects_a_basis_outside_the_register() {
        assert_eq!(
            SparseState::from_basis(3, 0b1000).unwrap_err(),
            SimError::QubitOutOfRange { qubit: 3, width: 3 }
        );
        assert_eq!(
            SparseState::from_basis(129, 0).unwrap_err(),
            SimError::QubitOutOfRange {
                qubit: 128,
                width: 128
            }
        );
        // The top qubit of a full-width register is inside it.
        let s = SparseState::from_basis(128, 1 << 127).unwrap();
        assert_close(s.probability(1 << 127), 1.0);
    }

    #[test]
    fn sparse_memory_bytes_is_exact_for_vec_entries() {
        let mut s = SparseState::zero(6);
        for q in 0..6 {
            s.apply(&Gate::H(q));
        }
        assert_eq!(s.support_size(), 64);
        // Entries are (u128, Complex) = 32 bytes at every width;
        // capacity ≥ support.
        let entry = std::mem::size_of::<(u128, Complex)>();
        assert_eq!(entry, 32);
        assert!(s.memory_bytes() >= 64 * entry);
        assert_eq!(s.memory_bytes() % entry, 0, "exact multiple of entry size");

        let wide = SparseState::zero(80);
        assert_eq!(wide.memory_bytes() % entry, 0);
    }

    fn h_layer(width: usize) -> Circuit {
        let mut c = Circuit::new(width);
        for q in 0..width {
            c.push(Gate::H(q)).expect("in-range qubit");
        }
        c
    }

    #[test]
    fn run_ctx_matches_run_under_unlimited_budget() {
        let circuit = h_layer(5);
        let mut plain = SparseState::zero(5);
        plain.run(&circuit).expect("plain run");
        let mut budgeted = SparseState::zero(5);
        let ctx = RtContext::unlimited();
        budgeted.run_ctx(&circuit, &ctx).expect("budgeted run");
        assert_eq!(plain.nonzero(), budgeted.nonzero());
        assert!(ctx.ops_used() > 0, "kernel ops were charged");
    }

    #[test]
    fn run_ctx_surfaces_op_budget_exhaustion() {
        let circuit = h_layer(5);
        let mut s = SparseState::zero(5);
        let ctx = RtContext::with_budget(qmkp_rt::Budget::unlimited().with_max_ops(1));
        let err = s.run_ctx(&circuit, &ctx).expect_err("budget must trip");
        assert!(matches!(
            err,
            SimError::Interrupted(qmkp_rt::RtError::OpBudget { .. })
        ));
    }

    #[test]
    fn run_ctx_observes_cancellation_between_ops() {
        let circuit = h_layer(6);
        let mut s = SparseState::zero(6);
        let token = qmkp_rt::CancelToken::cancel_after_checks(0);
        let ctx = RtContext::new(qmkp_rt::Budget::unlimited(), token);
        let err = s.run_ctx(&circuit, &ctx).expect_err("cancel must trip");
        assert!(matches!(
            err,
            SimError::Interrupted(qmkp_rt::RtError::Cancelled)
        ));
    }

    #[test]
    fn zero_budgeted_rejects_oversized_dense_states() {
        let ctx = RtContext::with_budget(qmkp_rt::Budget::unlimited().with_max_bytes(1 << 10));
        let err = DenseState::zero_budgeted(20, &ctx).expect_err("1 MiB state, 1 KiB budget");
        assert!(matches!(
            err,
            SimError::Interrupted(qmkp_rt::RtError::MemoryBudget { .. })
        ));
        let ok = DenseState::zero_budgeted(4, &ctx).expect("tiny state fits");
        assert_eq!(ok.width(), 4);
        // Sparse zero states are a single entry and always admitted.
        let s = SparseState::zero_budgeted(80, &ctx).expect("sparse zero fits");
        assert_eq!(s.width(), 80);
    }

    #[test]
    fn dense_projected_bytes_saturates_instead_of_overflowing() {
        assert_eq!(DenseState::projected_bytes(3), 8 * 16);
        assert_eq!(DenseState::projected_bytes(127), usize::MAX);
        assert_eq!(DenseState::projected_bytes(200), usize::MAX);
    }

    /// A maximal mixed layer — permutation ladder on {0,1}, diagonal on
    /// {2}, singles on {3,4}, all support-disjoint — used to pin the fused
    /// layer kernels against sequential per-op application.
    fn mixed_layer() -> Vec<CompiledOp> {
        vec![
            CompiledOp::Permutation(vec![
                // cnot(0,1) then X(0): a genuine ladder inside one op.
                FlipStep {
                    care: 0b01,
                    want: 0b01,
                    flip: 0b10,
                },
                FlipStep {
                    care: 0,
                    want: 0,
                    flip: 0b01,
                },
            ]),
            CompiledOp::Diagonal(vec![PhaseStep {
                care: 0b100,
                want: 0b100,
                phase: Complex::from_phase(0.7),
            }]),
            CompiledOp::Single(SingleQubit::hadamard(3)),
            CompiledOp::Single(SingleQubit::ry(4, 0.9)),
        ]
    }

    /// A generic (no-zero-amplitude, phase-rich) 5-qubit starting state.
    fn generic_prep() -> Circuit {
        let mut prep = Circuit::new(5);
        for q in 0..5 {
            prep.push_unchecked(Gate::H(q));
        }
        prep.push_unchecked(Gate::CPhase(0, 3, 1.1));
        prep.push_unchecked(Gate::Ry(2, 0.4));
        prep
    }

    #[test]
    fn fused_layer_kernel_matches_sequential_ops() {
        let ops = mixed_layer();
        let prep = generic_prep();

        let mut base = DenseState::zero(5).unwrap();
        base.run_interpreted(&prep).unwrap();
        let mut seq = base.clone();
        apply_each(&mut seq, &ops);
        let mut fused = base.clone();
        fused.apply_layer(&ops);
        for b in 0..(1u128 << 5) {
            assert!(
                (fused.amplitude(b) - seq.amplitude(b)).norm() < 1e-12,
                "dense {b:b}"
            );
        }

        // Sparse, at width 5 and with the same circuit embedded at
        // width 70.
        let mut sbase = SparseState::zero(5);
        sbase.run_interpreted(&prep).unwrap();
        let mut sfused = sbase.clone();
        sfused.apply_layer(&ops);
        let mut wbase = SparseState::zero(70);
        wbase.run_interpreted(&embed(&prep, 70)).unwrap();
        let mut wfused = wbase.clone();
        wfused.apply_layer(&ops);
        for b in 0..(1u128 << 5) {
            assert!(
                (sfused.amplitude(b) - seq.amplitude(b)).norm() < 1e-12,
                "sparse width 5 {b:b}"
            );
            assert!(
                (wfused.amplitude(b) - seq.amplitude(b)).norm() < 1e-12,
                "sparse width 70 {b:b}"
            );
        }
    }

    #[test]
    fn pure_diagonal_layer_stays_in_place() {
        // Two disjoint diagonal ops: the dense backend must not touch its
        // gather scratch (the layer is applied in place).
        let ops = vec![
            CompiledOp::Diagonal(vec![PhaseStep {
                care: 0b01,
                want: 0b01,
                phase: Complex::from_phase(0.3),
            }]),
            CompiledOp::Diagonal(vec![PhaseStep {
                care: 0b10,
                want: 0b10,
                phase: Complex::real(-1.0),
            }]),
        ];
        let mut d = DenseState::zero(2).unwrap();
        d.apply(&Gate::H(0));
        d.apply(&Gate::H(1));
        let mut seq = d.clone();
        apply_each(&mut seq, &ops);
        d.apply_layer(&ops);
        assert_eq!(
            d.scratch.capacity(),
            0,
            "no gather pass for a diagonal layer"
        );
        for b in 0..4u128 {
            assert!((d.amplitude(b) - seq.amplitude(b)).norm() < 1e-12);
        }
    }

    #[test]
    fn run_compiled_ctx_charges_layers_at_op_weight() {
        // 5 disjoint H gates layerize into one layer, but the op budget
        // must still see all 5 kernel ops.
        let circuit = h_layer(5);
        let compiled = CompiledCircuit::compile(&circuit).unwrap();
        assert!(compiled.schedule().layers.len() < 5, "singles share layers");
        let ctx = RtContext::unlimited();
        let mut s = SparseState::zero(5);
        s.run_compiled_ctx(&compiled, &ctx).unwrap();
        assert_eq!(ctx.ops_used(), 5, "layers charge their op weight");
    }

    #[test]
    fn support_hint_is_sparse_only() {
        let d = DenseState::zero(4).expect("dense");
        assert_eq!(d.support_hint(), None);
        let mut s = SparseState::zero(4);
        s.apply(&Gate::H(0));
        assert_eq!(s.support_hint(), Some(2));
    }
}
