//! Quantum state backends: dense statevector and sparse sorted-vec.
//!
//! Both backends execute circuits through the compiled kernel path
//! ([`crate::compile::CompiledCircuit`]): [`QuantumState::run`] compiles
//! the circuit once and hands it to the executor
//! ([`QuantumState::run_observed`]), which applies the compiled ops in
//! order, one pass each ([`QuantumState::apply_op`]). The dense backend
//! runs a permutation as one gather pass and a diagonal as one in-place
//! sweep; the sparse backend rewrites keys in place. Both
//! run every register on the compiler's `u128` ops. The gate-by-gate
//! interpreter survives as [`QuantumState::run_interpreted`] (and
//! [`QuantumState::apply`]) for cross-checking and for callers that apply
//! individual gates: the dense one through hand-written per-gate kernels,
//! the independent reference the compiled paths are checked against, and
//! the sparse one through the compiler's own lowering.
//!
//! The sparse backend stores the state as a `Vec<(u128, amplitude)>` of
//! distinct basis keys (cf. the sorted-structure representation of sparse
//! Feynman-path simulators): permutation and diagonal kernels are one
//! in-place pass, permutation ladders running bit-sliced over 64 keys at
//! a time, and the `Single` butterfly is a linear two-way merge with
//! in-place epsilon pruning — no per-gate allocation or rehashing. A
//! permutation that leaves the keys out of order defers the sort to the
//! next butterfly; one that puts every key back (an uncompute after its
//! compute) leaves nothing to sort, so a Grover driver iteration does not
//! sort.

use crate::circuit::Circuit;
use crate::compile::{
    lower_gate, CompiledCircuit, CompiledOp, FlipStep, Op, PhaseStep, SingleQubit,
    MAX_COMPILE_WIDTH,
};
use crate::complex::Complex;
use crate::error::SimError;
use crate::gate::Gate;
use qmkp_rt::RtContext;
use rand::Rng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Amplitudes below this magnitude are dropped by the sparse backend after
/// non-permutation gates, keeping the representation tight without
/// affecting measurement statistics.
pub const PRUNE_EPS: f64 = 1e-14;

const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Per-op hook of the compiled-circuit executor
/// ([`QuantumState::run_observed`]): told the index and wall time of
/// every op it applies. Observers are statically dispatched, so one
/// costs no dynamic call, and an inactive one is not even timed.
pub trait OpObserver {
    /// Whether ops need timing at all for this run. When `false` the
    /// executor runs a bare loop and never calls [`OpObserver::op`].
    fn active(&self) -> bool {
        true
    }

    /// Called after each op with its index (into
    /// [`CompiledCircuit::ops`]) and how long applying it took.
    fn op(&mut self, index: usize, elapsed: Duration);
}

/// The observer [`QuantumState::run_compiled`] runs under, resolved once
/// per circuit so the unobserved path stays a bare loop: when recording,
/// each op's wall time is one `qsim.kernel.op` observation labelled
/// `backend=dense|sparse`.
struct KernelMeter {
    on: bool,
    backend: &'static str,
}

impl KernelMeter {
    fn new(backend: &'static str) -> KernelMeter {
        KernelMeter {
            on: qmkp_obs::enabled_for("qsim.kernel.op"),
            backend,
        }
    }
}

impl OpObserver for KernelMeter {
    fn active(&self) -> bool {
        self.on
    }

    fn op(&mut self, _index: usize, elapsed: Duration) {
        qmkp_obs::observe("qsim.kernel.op", &[("backend", self.backend)], elapsed);
    }
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

    /// Applies one compiled op as one pass over the state.
    fn apply_op(&mut self, op: &CompiledOp);

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

    /// Runs an already-compiled circuit, timing its ops as
    /// `qsim.kernel.op` observations when recording is on.
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
    /// the first pass and again after the last, and every op is charged
    /// against the op budget, polls cancellation, and consults the
    /// `qsim.run.op` failpoint — interruption lands between ops, never
    /// inside a pass, so the state stays structurally valid (though
    /// mid-circuit).
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
    /// the width and applies the compiled ops in order, one pass each. A
    /// given `ctx` is polled and charged once per op, as
    /// [`QuantumState::run_compiled_ctx`] describes, and admits the
    /// state's footprint once the ops are done, so a state that grew
    /// past the byte ceiling is reported rather than kept; `observer`
    /// sees every op's index and wall time.
    ///
    /// # Errors
    /// [`SimError::WidthMismatch`] if the compiled width differs from the
    /// state's, and [`SimError::Interrupted`] when the context's budget
    /// is exhausted (the byte ceiling included), cancellation is
    /// requested, or an injected fault fires.
    fn run_observed<O: OpObserver>(
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
        let timed = observer.active();
        for (index, op) in compiled.ops().iter().enumerate() {
            if let Some(ctx) = ctx {
                qmkp_rt::failpoint::check("qsim.run.op")?;
                ctx.charge_ops(1)?;
            }
            if timed {
                let start = Instant::now();
                self.apply_op(op);
                observer.op(index, start.elapsed());
            } else {
                self.apply_op(op);
            }
        }
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
    /// [`QuantumState::marginal`]; the draws are a [`Sampler`]'s over
    /// that marginal.
    fn sample<R: Rng>(&self, rng: &mut R, shots: usize, qubits: &[usize]) -> BTreeMap<u128, usize>
    where
        Self: Sized,
    {
        Sampler::new(&self.marginal(qubits)).counts(rng, shots)
    }
}

/// Draws outcomes of a fixed distribution: the cumulative sums are built
/// once, in key order, and any number of draws read them. Each draw is
/// one `rng.gen::<f64>()` scaled by the total mass and a binary search,
/// so `shots` draws cost `O(support + shots·log support)` rather than the
/// `O(shots·support)` of a per-draw linear scan.
#[derive(Debug, Clone)]
pub struct Sampler {
    outcomes: Vec<u128>,
    cumulative: Vec<f64>,
}

impl Sampler {
    /// The sampler of an outcome → probability map (a
    /// [`QuantumState::marginal`]); the masses need not sum to one.
    pub fn new(distribution: &BTreeMap<u128, f64>) -> Self {
        let mut acc = 0.0;
        let (outcomes, cumulative) = distribution
            .iter()
            .map(|(&outcome, &p)| {
                acc += p;
                (outcome, acc)
            })
            .unzip();
        Sampler {
            outcomes,
            cumulative,
        }
    }

    /// One outcome (`0` for an empty distribution).
    pub fn draw<R: Rng>(&self, rng: &mut R) -> u128 {
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        let x: f64 = rng.gen::<f64>() * total;
        // First outcome whose cumulative mass exceeds x; the min guards
        // against x == total after floating-point rounding.
        let idx = self.cumulative.partition_point(|&c| c <= x);
        self.outcomes
            .get(idx.min(self.outcomes.len().saturating_sub(1)))
            .copied()
            .unwrap_or(0)
    }

    /// `shots` draws, as outcome → count.
    pub fn counts<R: Rng>(&self, rng: &mut R, shots: usize) -> BTreeMap<u128, usize> {
        let mut counts = BTreeMap::new();
        for _ in 0..shots {
            *counts.entry(self.draw(rng)).or_insert(0) += 1;
        }
        counts
    }
}

/// Backend-generic construction, letting budget-aware drivers pick where
/// the state lives (the solve plan constructs sparse states, the
/// cross-backend tests dense ones, through this one interface).
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
        for (i, a) in self.amps.iter_mut().enumerate() {
            let b = i as u128;
            for p in phases {
                if p.applies_to(b) {
                    *a *= p.phase;
                }
            }
        }
    }

    /// A butterfly pass applying a general single-qubit kernel.
    fn apply_single(&mut self, k: &SingleQubit) {
        let m = 1usize << k.qubit;
        let (m00, m01, m10, m11) = (k.m00, k.m01, k.m10, k.m11);
        // Pairs offsets (t, t+m) within each 2m-sized run.
        let amps = &mut self.amps;
        let mut base = 0;
        while base < amps.len() {
            for t in base..base + m {
                let a = amps[t];
                let b = amps[t + m];
                amps[t] = m00 * a + m01 * b;
                amps[t + m] = m10 * a + m11 * b;
            }
            base += 2 * m;
        }
    }

    /// One gather pass applying a fused permutation `P`:
    /// `out[i] = in[P⁻¹(i)]`. Each [`FlipStep`] is an involution, so `P⁻¹`
    /// is the steps in reverse order.
    fn apply_gather(&mut self, perm: &[FlipStep]) {
        if perm.is_empty() {
            return;
        }
        self.scratch.resize(self.amps.len(), Complex::ZERO);
        for (i, out) in self.scratch.iter_mut().enumerate() {
            let mut key = i as u128;
            for s in perm.iter().rev() {
                key = s.apply(key);
            }
            *out = self.amps[key as usize];
        }
        std::mem::swap(&mut self.amps, &mut self.scratch);
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

    fn apply_op(&mut self, op: &CompiledOp) {
        match op {
            Op::Permutation(steps) => self.apply_gather(steps),
            Op::Diagonal(phases) => self.apply_diagonal(phases),
            Op::Single(k) => self.apply_single(k),
        }
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

/// Marks a negative control in a decoded sliced step; the low seven bits
/// are the plane (qubit) index.
const NEG_CONTROL: u8 = 0x80;

/// Transposes a 64×64 bit matrix in place: bit `j` of word `i` moves to
/// bit `i` of word `j`. Each round swaps the off-diagonal blocks of every
/// `2r × 2r` tile, halving `r` from 32 to 1.
fn transpose64(m: &mut [u64; 64]) {
    let mut r = 32;
    let mut mask = 0x0000_0000_ffff_ffff_u64;
    while r != 0 {
        for tile in m.chunks_exact_mut(2 * r) {
            let (top, bottom) = tile.split_at_mut(r);
            for (a, b) in top.iter_mut().zip(bottom) {
                let t = ((*a >> r) ^ *b) & mask;
                *a ^= t << r;
                *b ^= t;
            }
        }
        r /= 2;
        mask ^= mask << r;
    }
}

/// Indices of the set bits of `mask`, ascending.
fn bit_indices(mut mask: u128) -> impl Iterator<Item = u8> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let q = mask.trailing_zeros() as u8;
            mask &= mask - 1;
            q
        })
    })
}

/// The sorted-vec amplitude store.
///
/// Invariant: the keys in `amps` are distinct, and ascending whenever
/// `sorted` is set. A permutation moves no amplitude, so its pass leaves
/// the mapped keys where they are and records whether they are still in
/// order; the butterfly, whose merge needs order, sorts first. The
/// scratch buffers hold no live data between ops — only their capacity is
/// reused, so a `Single` pass allocates nothing once the buffers have
/// grown to the working support size.
#[derive(Debug, Clone)]
struct SparseCore {
    amps: Vec<(u128, Complex)>,
    /// Whether `amps` is in ascending key order.
    sorted: bool,
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
            sorted: true,
            split_lo: Vec::new(),
            split_hi: Vec::new(),
            out_lo: Vec::new(),
            out_hi: Vec::new(),
        }
    }

    fn amplitude(&self, basis: u128) -> Complex {
        let index = if self.sorted {
            self.amps.binary_search_by_key(&basis, |&(b, _)| b).ok()
        } else {
            self.amps.iter().position(|&(b, _)| b == basis)
        };
        index.map_or(Complex::ZERO, |i| self.amps[i].1)
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
    /// distinct keys to distinct keys; the pass rewrites them where they
    /// stand and records whether they are still ascending.
    fn apply_permutation(&mut self, steps: &[FlipStep]) {
        if steps.is_empty() {
            // Peephole cancellation can empty a run.
            return;
        }
        self.apply_sliced(steps);
        self.sorted = self.amps.windows(2).all(|w| w[0].0 < w[1].0);
    }

    /// The bit-sliced ladder (Biham, FSE 1997). Each block of 64 keys is
    /// transposed into 128 plane words, word `q` holding qubit `q` of all
    /// 64 keys, so a step costs one AND per control and one XOR per target
    /// for the whole block. Only the key halves some step writes are
    /// transposed back.
    fn apply_sliced(&mut self, steps: &[FlipStep]) {
        // Dead-step elimination: track which bits *may* be 1 and which
        // *may* be 0 anywhere in the support. A step whose control test
        // needs a bit state that no key can have never fires, so it is
        // dropped for the whole pass. Oracle ladders are full of these:
        // ancilla counters start at zero, so the high-order carry steps of
        // the early increments are provably dead. Firing a surviving step
        // makes its flipped bits unknown in both directions.
        let (mut may1, mut all1) = (0u128, !0u128);
        for &(b, _) in &self.amps {
            may1 |= b;
            all1 &= b;
        }
        let mut may0 = !all1;
        // Each live step decodes to its control count, its target count,
        // its control planes (`NEG_CONTROL` marking the negative ones) and
        // its target planes.
        let mut program: Vec<u8> = Vec::with_capacity(4 * steps.len());
        let mut written = 0u128;
        for s in steps {
            if s.want & !may1 != 0 || (s.care & !s.want) & !may0 != 0 {
                continue;
            }
            may1 |= s.flip;
            may0 |= s.flip;
            written |= s.flip;
            program.push(s.care.count_ones() as u8);
            program.push(s.flip.count_ones() as u8);
            program.extend(bit_indices(s.care).map(|q| {
                if s.want >> q & 1 == 0 {
                    q | NEG_CONTROL
                } else {
                    q
                }
            }));
            program.extend(bit_indices(s.flip));
        }
        let (write_lo, write_hi) = (written as u64 != 0, (written >> 64) as u64 != 0);
        if !(write_lo || write_hi) {
            return;
        }
        for block in self.amps.chunks_mut(64) {
            let mut planes = [[0u64; 64]; 2];
            let [lo, hi] = &mut planes;
            for ((l, h), &(key, _)) in lo.iter_mut().zip(hi.iter_mut()).zip(block.iter()) {
                *l = key as u64;
                *h = (key >> 64) as u64;
            }
            transpose64(lo);
            transpose64(hi);
            let mut rest = program.as_slice();
            while let [controls, targets, tail @ ..] = rest {
                let (controls, tail) = tail.split_at(usize::from(*controls));
                let (targets, tail) = tail.split_at(usize::from(*targets));
                let mut hit = !0u64;
                for &c in controls {
                    let q = usize::from(c & !NEG_CONTROL);
                    let negate = if c & NEG_CONTROL == 0 { 0 } else { !0 };
                    hit &= planes[q >> 6][q & 63] ^ negate;
                }
                for &t in targets {
                    let q = usize::from(t);
                    planes[q >> 6][q & 63] ^= hit;
                }
                rest = tail;
            }
            let [lo, hi] = &mut planes;
            if write_lo {
                transpose64(lo);
            }
            if write_hi {
                transpose64(hi);
            }
            for ((key, _), (&l, &h)) in block.iter_mut().zip(lo.iter().zip(hi.iter())) {
                if write_lo {
                    *key = *key >> 64 << 64 | u128::from(l);
                }
                if write_hi {
                    *key = u128::from(*key as u64) | u128::from(h) << 64;
                }
            }
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
    ///
    /// Keys a permutation left out of order are sorted first. A Grover
    /// driver iteration does not sort: `U_check†` puts back every key
    /// `U_check` moved, so the diffusion's first Hadamard finds them in
    /// order.
    fn apply_single(&mut self, k: &SingleQubit) {
        if !self.sorted {
            self.amps.sort_unstable_by_key(|&(b, _)| b);
            self.sorted = true;
        }
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
}

/// Sparse sorted-vec backend: only nonzero basis states are stored, as a
/// `Vec<(u128, amplitude)>` sorted by basis key (a permutation may leave
/// the keys out of order until the next butterfly; every read answers as
/// if they were sorted).
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
        let mut out: Vec<(u128, Complex)> = self
            .core
            .amps
            .iter()
            .filter(|(_, a)| !a.is_negligible(PRUNE_EPS))
            .copied()
            .collect();
        if !self.core.sorted {
            out.sort_unstable_by_key(|&(b, _)| b);
        }
        out
    }

    fn apply_op(&mut self, op: &CompiledOp) {
        self.core.apply_op(op);
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
    fn cancel_lands_before_the_next_op() {
        // Six disjoint Hadamards, the shape of a diffusion wall: a fuse of
        // k checks lets exactly k of them run, and the refused op's charge
        // is the only one beyond them.
        fn run_with_fuse<S: QuantumState>(mut s: S, compiled: &CompiledCircuit, k: u64) {
            let token = qmkp_rt::CancelToken::cancel_after_checks(k);
            let ctx = RtContext::new(qmkp_rt::Budget::unlimited(), token);
            let err = s
                .run_compiled_ctx(compiled, &ctx)
                .expect_err("cancel must trip");
            let backend = s.backend_name();
            assert!(
                matches!(err, SimError::Interrupted(qmkp_rt::RtError::Cancelled)),
                "{backend} fuse {k}: {err:?}"
            );
            assert_eq!(ctx.ops_used(), k + 1, "{backend} fuse {k}: ops started");
            assert_eq!(
                s.nonzero().len(),
                1 << k,
                "{backend} fuse {k}: Hadamards applied"
            );
        }
        let compiled = CompiledCircuit::compile(&h_layer(6)).unwrap();
        for k in 0..6 {
            run_with_fuse(SparseState::zero(6), &compiled, k);
            run_with_fuse(DenseState::zero(6).unwrap(), &compiled, k);
        }
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

    #[test]
    fn diagonal_op_stays_in_place() {
        // Two diagonal ops: the dense backend must not touch its gather
        // scratch (each op is applied in place).
        let ops = [
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
        let mut interpreted = d.clone();
        interpreted.apply(&Gate::Phase(0, 0.3));
        interpreted.apply(&Gate::Z(1));
        for op in &ops {
            d.apply_op(op);
        }
        assert_eq!(d.scratch.capacity(), 0, "no gather pass for a diagonal op");
        for b in 0..4u128 {
            assert!((d.amplitude(b) - interpreted.amplitude(b)).norm() < 1e-12);
        }
    }

    #[test]
    fn run_compiled_ctx_charges_every_op() {
        // 5 disjoint H gates are 5 ops, and the op budget sees each one.
        let compiled = CompiledCircuit::compile(&h_layer(5)).unwrap();
        assert_eq!(compiled.len(), 5);
        let ctx = RtContext::unlimited();
        let mut s = SparseState::zero(5);
        s.run_compiled_ctx(&compiled, &ctx).unwrap();
        assert_eq!(ctx.ops_used(), 5, "every op is charged");
    }

    #[test]
    fn every_op_is_observed_once_per_run() {
        // With recording on, the executor's meter records exactly one
        // `qsim.kernel.op` observation per op, labelled with the backend,
        // on every kind of pass.
        let mut circuit = Circuit::new(6);
        for q in 0..3 {
            circuit.push(Gate::H(q)).unwrap();
        }
        for q in 3..6 {
            circuit.push(Gate::ccnot(q % 3, (q + 1) % 3, q)).unwrap();
        }
        circuit.push(Gate::Z(5)).unwrap();
        circuit.push(Gate::H(0)).unwrap();
        let compiled = CompiledCircuit::compile(&circuit).unwrap();
        let ops = compiled.ops();
        assert!(ops.iter().any(|op| matches!(op, Op::Permutation(_))));
        assert!(ops.iter().any(|op| matches!(op, Op::Diagonal(_))));
        assert!(ops.iter().any(|op| matches!(op, Op::Single(_))));

        let collector = std::sync::Arc::new(qmkp_obs::Collector::for_current_thread());
        let guard = qmkp_obs::attach(collector.clone());
        let observed = |backend: &str, run: &dyn Fn()| {
            collector.clear();
            run();
            let label = [("backend".to_string(), backend.to_string())];
            let events = collector.events();
            let op_events = events
                .iter()
                .filter(|ev| ev.name() == Some("qsim.kernel.op"));
            assert!(
                op_events.clone().all(|ev| matches!(
                    ev,
                    qmkp_obs::Event::Observe { labels, .. } if *labels == label
                )),
                "{backend}: an op event that is not a {backend} observation"
            );
            op_events.count()
        };
        let ctx = RtContext::unlimited();
        let runs = [
            observed("dense", &|| {
                DenseState::zero(6)
                    .unwrap()
                    .run_compiled(&compiled)
                    .unwrap()
            }),
            observed("dense", &|| {
                let mut s = DenseState::zero(6).unwrap();
                s.run_compiled_ctx(&compiled, &ctx).unwrap()
            }),
            observed("sparse", &|| {
                SparseState::zero(6).run_compiled(&compiled).unwrap()
            }),
            observed("sparse", &|| {
                let mut s = SparseState::zero(6);
                s.run_compiled_ctx(&compiled, &ctx).unwrap()
            }),
        ];
        drop(guard);
        assert_eq!(runs, [compiled.len(); 4], "observations per run");
    }

    /// A random ladder over all 128 bits. Keys vary only on `free`, so a
    /// step that wants a `fixed` bit opposite to `base` can never fire and
    /// is dropped by the dead-step filter; one that wants it equal always
    /// fires. No step flips a fixed bit, so those verdicts hold all pass.
    fn random_ladder(rng: &mut StdRng, len: usize, free: u128, base: u128) -> Vec<FlipStep> {
        let bit = |rng: &mut StdRng, pool: u128| {
            let bits: Vec<u32> = (0..128).filter(|&q| pool >> q & 1 == 1).collect();
            1u128 << bits[rng.gen_range(0..bits.len())]
        };
        (0..len)
            .map(|_| {
                // Some steps live entirely in the high half.
                let pool = if rng.gen_bool(0.25) {
                    free >> 64 << 64
                } else {
                    free
                };
                let mut flip = 0;
                for _ in 0..rng.gen_range(1..=3) {
                    flip |= bit(rng, pool);
                }
                let mut care = 0;
                for _ in 0..rng.gen_range(0..=3) {
                    care |= bit(rng, pool & !flip);
                }
                let mut want = care & rng.gen::<u128>();
                if rng.gen_bool(0.2) {
                    let q = bit(rng, !free);
                    care |= q;
                    want |= q & if rng.gen_bool(0.5) { base } else { !base };
                }
                FlipStep { care, want, flip }
            })
            .collect()
    }

    /// A sorted support of `support` distinct keys and a random ladder of
    /// 1 to 200 steps over it. Keys share `base` outside twelve free bits
    /// in each key half.
    fn random_support_and_ladder(
        rng: &mut StdRng,
        support: usize,
    ) -> (Vec<(u128, Complex)>, Vec<FlipStep>) {
        let mut free = 0u128;
        for half in [0..64, 64..128] {
            while ((free >> half.start) as u64).count_ones() < 12 {
                free |= 1u128 << rng.gen_range(half.clone());
            }
        }
        let base = rng.gen::<u128>();
        let mut keys = std::collections::BTreeSet::new();
        while keys.len() < support {
            keys.insert(base ^ (rng.gen::<u128>() & free));
        }
        let amps = keys
            .into_iter()
            .enumerate()
            .map(|(i, key)| (key, Complex::new(i as f64, -(i as f64))))
            .collect();
        let len = rng.gen_range(1..=200);
        (amps, random_ladder(rng, len, free, base))
    }

    #[test]
    fn sliced_ladder_matches_the_per_key_steps() {
        let mut rng = StdRng::seed_from_u64(2125);
        // Ladders of a few steps (the interpreter lowers one gate to one
        // step) run the same sliced pass, so some cases must be short.
        let mut short = 0;
        for support in [1usize, 63, 64, 65, 1000] {
            for _ in 0..8 {
                let (amps, steps) = random_support_and_ladder(&mut rng, support);
                let len = steps.len();
                short += usize::from(len < 8);
                let mut core = SparseCore::from_basis(0);
                core.amps = amps.clone();
                core.apply_permutation(&steps);
                let expected: Vec<(u128, Complex)> = amps
                    .iter()
                    .map(|&(key, a)| (steps.iter().fold(key, |k, s| s.apply(k)), a))
                    .collect();
                assert_eq!(core.amps, expected, "support {support}, {len} steps");
                let ascending = expected.windows(2).all(|w| w[0].0 < w[1].0);
                assert_eq!(core.sorted, ascending, "support {support}: order flag");
            }
        }
        assert!(short > 0, "no ladder shorter than 8 steps");
    }

    #[test]
    fn a_ladder_then_its_reverse_leaves_the_keys_sorted() {
        // `U_check` then `U_check†` in miniature: the reversed steps put
        // every key back, and the order flag must say so, or the next
        // butterfly sorts a support that is already in order.
        let mut rng = StdRng::seed_from_u64(2126);
        let mut scrambled = 0;
        for support in [1usize, 63, 64, 65, 1000] {
            for _ in 0..8 {
                let (amps, steps) = random_support_and_ladder(&mut rng, support);
                let mut core = SparseCore::from_basis(0);
                core.amps = amps.clone();
                core.apply_permutation(&steps);
                scrambled += usize::from(!core.sorted);
                let reversed: Vec<FlipStep> = steps.iter().rev().copied().collect();
                core.apply_permutation(&reversed);
                assert_eq!(core.amps, amps, "support {support}: keys put back");
                assert!(core.sorted, "support {support}: flag left unsorted");
            }
        }
        assert!(
            scrambled > 0,
            "no forward ladder left the keys out of order"
        );
    }

    #[test]
    fn reads_of_an_out_of_order_state_match_the_sorted_state() {
        // Qubits 0..4 and 70 start superposed; the ladder writes qubits 70
        // and up as functions of 0..4, so entries with qubit 0 set move
        // far past their neighbours, and the Hadamard on 70 afterwards
        // must pair keys that the ladder reordered. The dense reference runs the
        // same circuit with qubit 70 + j at 4 + j.
        let wide = |q: usize| if q < 4 { q } else { 66 + q };
        let gates = |at: &dyn Fn(usize) -> usize| -> Vec<Gate> {
            let mut g: Vec<Gate> = (0..4).map(|q| Gate::cnot(at(q), at(4 + q))).collect();
            g.push(Gate::ccnot(at(0), at(1), at(8)));
            g.push(Gate::Mcx {
                controls: vec![Control::neg(at(2)), Control::pos(at(3))],
                target: at(9),
            });
            g.push(Gate::X(at(8)));
            g.push(Gate::cnot(at(8), at(9)));
            g
        };
        let mut s = SparseState::zero(100);
        for q in 0..5 {
            s.apply(&Gate::H(wide(q)));
        }
        let steps: Vec<FlipStep> = gates(&wide)
            .iter()
            .flat_map(|g| match lower_gate(g) {
                Op::Permutation(steps) => steps,
                _ => Vec::new(),
            })
            .collect();
        s.apply_op(&Op::Permutation(steps));
        assert!(
            !s.core.sorted,
            "the ladder must leave the keys out of order"
        );

        let mut sorted = s.clone();
        sorted.core.amps.sort_unstable_by_key(|&(b, _)| b);
        sorted.core.sorted = true;
        assert_eq!(s.support_size(), sorted.support_size());
        assert_eq!(s.nonzero(), sorted.nonzero());
        assert!(s.nonzero().windows(2).all(|w| w[0].0 < w[1].0));
        for qubits in [vec![0, 1, 2, 3], vec![0, 70, 75], vec![74, 75]] {
            assert_eq!(s.marginal(&qubits), sorted.marginal(&qubits));
        }
        for &(key, _) in &sorted.core.amps {
            for probe in [key, key ^ 1 << 80] {
                assert_eq!(s.amplitude(probe), sorted.amplitude(probe));
            }
        }

        s.apply(&Gate::H(70));
        assert!(s.core.sorted, "the butterfly leaves the keys in order");
        let mut dense = DenseState::zero(10).unwrap();
        let mut circuit = Circuit::new(10);
        for q in 0..5 {
            circuit.push(Gate::H(q)).unwrap();
        }
        for g in gates(&|q| q) {
            circuit.push(g).unwrap();
        }
        circuit.push(Gate::H(4)).unwrap();
        dense.run_interpreted(&circuit).unwrap();
        for b in 0..1u128 << 10 {
            let key = (b & 0b1111) | (b >> 4) << 70;
            assert!(
                (s.amplitude(key) - dense.amplitude(b)).norm() < 1e-9,
                "basis {b:010b}"
            );
        }
        assert_eq!(s.support_size(), dense.nonzero().len());
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
