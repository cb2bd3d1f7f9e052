//! Circuit compilation: lowering a [`Circuit`] to fused kernel ops.
//!
//! Interpreting a circuit gate-by-gate makes one full pass over the state
//! per gate and re-examines each gate's control list (a heap-allocated
//! `Vec<Control>`) for every basis state. The qTKP oracle is dominated by
//! exactly the gates that make this expensive: long ladders of
//! multi-controlled X gates. Compilation removes both costs up front:
//!
//! 1. **Mask precompilation** — every control list is folded once into a
//!    `(care, want)` bit-mask pair, so the per-basis-state test collapses
//!    to one AND and one compare ([`MaskedFlip`], [`MaskedPhase`]).
//! 2. **DAG scheduling** ([`crate::dag`]) — classical-reversible gates
//!    (X / MCX) fuse into permutation ladders applied in one pass
//!    ([`Op::Permutation`]), diagonal gates (Z / Phase / CPhase / MCZ)
//!    into one [`Op::Diagonal`] pass. Diagonals commute past ladders by
//!    mask conjugation, so compute/uncompute mirrors cancel even across
//!    intervening phases and section boundaries; per-section cost
//!    attribution (the paper's Table IV) survives as per-op weights
//!    ([`CompiledCircuit::attribution`]).
//! 3. The remaining gates (H / Ry) lower to a general real-free 2×2 kernel
//!    ([`SingleQubit`]) applied as a butterfly pass. Single-qubit kernels
//!    on the *same* qubit fuse into one matrix product, so e.g. an `Ry`
//!    sandwiched between Hadamards costs one state pass instead of three.
//!
//! Kernel steps carry `u128` masks, one bit per qubit, so one set of ops
//! runs every register up to 128 qubits: the qTKP oracles (the paper's
//! fig-1 oracle is already 68 qubits wide), the dense backend's
//! registers, and small test circuits alike.
//!
//! Compilation is fallible ([`CompileError`]): a circuit wider than the
//! 128-bit basis encoding, or one whose gates reference out-of-range or
//! duplicated qubits, is reported as a structured error instead of
//! aborting the process — malformed inputs must never panic a long-lived
//! server embedding the simulator.
//!
//! Execution lives with the backends (`QuantumState::run_compiled`),
//! which apply the ops one pass each, in order; this module is purely the
//! IR and the lowering.

use crate::circuit::Circuit;
use crate::complex::Complex;
use crate::gate::Gate;
use std::fmt;

/// Widest register the compiler (and the sparse backend) can encode: one
/// bit of a `u128` basis key per qubit.
pub const MAX_COMPILE_WIDTH: usize = 128;

/// A conditional bit-flip: if `basis & care == want`, XOR `flip` into the
/// basis state.
///
/// Every X/MCX gate lowers to one step. Because a gate's qubits are
/// distinct by validation, `care ∩ flip = ∅`, which makes the step an
/// involution — the property the dense gather pass relies on to invert a
/// fused permutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlipStep {
    /// Bits that participate in the control test.
    pub care: u128,
    /// Required pattern on the `care` bits.
    pub want: u128,
    /// Bits flipped when the test passes (the MCX targets).
    pub flip: u128,
}

/// The flip step under the name the backends and tests use.
pub type MaskedFlip = FlipStep;

impl FlipStep {
    /// Applies the step to a basis state. Branchless: the control test on
    /// a superposed register passes for an unpredictable subset of basis
    /// states, so a data-dependent branch here mispredicts constantly in
    /// the dense gather's hot loop.
    #[inline]
    pub fn apply(self, basis: u128) -> u128 {
        let hit = ((basis & self.care == self.want) as u128).wrapping_neg();
        basis ^ (self.flip & hit)
    }
}

/// A conditional phase factor: if `basis & care == want`, multiply the
/// amplitude by `phase`. Z / Phase / CPhase / MCZ all lower to this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStep {
    /// Bits that participate in the test.
    pub care: u128,
    /// Required pattern on the `care` bits.
    pub want: u128,
    /// The phase factor (`-1` for Z/MCZ, `e^{iθ}` for Phase/CPhase).
    pub phase: Complex,
}

/// The phase step under the name the backends and tests use.
pub type MaskedPhase = PhaseStep;

impl PhaseStep {
    /// Whether the phase applies to a basis state.
    #[inline]
    pub fn applies_to(self, basis: u128) -> bool {
        basis & self.care == self.want
    }
}

/// A dense 2×2 single-qubit kernel `[[m00, m01], [m10, m11]]` acting on
/// `qubit`: `a' = m00·a + m01·b`, `b' = m10·a + m11·b` for the amplitude
/// pair `(a, b)` with the qubit clear/set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleQubit {
    /// The acted-on qubit.
    pub qubit: usize,
    /// Matrix entry row 0, column 0.
    pub m00: Complex,
    /// Matrix entry row 0, column 1.
    pub m01: Complex,
    /// Matrix entry row 1, column 0.
    pub m10: Complex,
    /// Matrix entry row 1, column 1.
    pub m11: Complex,
}

const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

impl SingleQubit {
    /// The Hadamard kernel on `qubit`.
    pub fn hadamard(qubit: usize) -> Self {
        let h = Complex::real(FRAC_1_SQRT_2);
        SingleQubit {
            qubit,
            m00: h,
            m01: h,
            m10: h,
            m11: -h,
        }
    }

    /// The `Ry(θ)` kernel on `qubit`.
    pub fn ry(qubit: usize, theta: f64) -> Self {
        let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
        SingleQubit {
            qubit,
            m00: Complex::real(c),
            m01: Complex::real(-s),
            m10: Complex::real(s),
            m11: Complex::real(c),
        }
    }

    /// The kernel equal to applying `first` and then `self` — the matrix
    /// product `self · first`. Both kernels must act on the same qubit.
    pub fn after(self, first: &SingleQubit) -> SingleQubit {
        SingleQubit {
            qubit: self.qubit,
            m00: self.m00 * first.m00 + self.m01 * first.m10,
            m01: self.m00 * first.m01 + self.m01 * first.m11,
            m10: self.m10 * first.m00 + self.m11 * first.m10,
            m11: self.m10 * first.m01 + self.m11 * first.m11,
        }
    }
}

/// One fused kernel operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A fused run of classical-reversible gates, applied as one pass.
    /// Steps are in gate order.
    Permutation(Vec<FlipStep>),
    /// A fused run of diagonal gates, applied as one pass.
    Diagonal(Vec<PhaseStep>),
    /// A single-qubit butterfly (H / Ry, possibly several fused into one
    /// 2×2 product).
    Single(SingleQubit),
}

/// The kernel op under the name the backends and tests use.
pub type CompiledOp = Op;

impl Op {
    /// Number of kernel steps in this op. At most the number of source
    /// gates folded into it — peephole cancellation (adjacent inverse
    /// flips, merged same-mask phases, fused 2×2 products) can shrink a
    /// run, possibly to zero steps, in which case the op is a no-op the
    /// backends skip.
    pub fn fused_gates(&self) -> usize {
        match self {
            Op::Permutation(steps) => steps.len(),
            Op::Diagonal(phases) => phases.len(),
            Op::Single(_) => 1,
        }
    }
}

/// A structured compilation failure. Surfaced through
/// [`CompiledCircuit::compile`] so a malformed circuit is an error value,
/// never a process abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileError {
    /// The circuit is wider than the 128-bit basis-key encoding.
    WidthTooLarge {
        /// The circuit width.
        width: usize,
        /// The widest supported register ([`MAX_COMPILE_WIDTH`]).
        max: usize,
    },
    /// A gate referenced a qubit at or above the circuit width.
    QubitOutOfRange {
        /// The offending qubit index.
        qubit: usize,
        /// The circuit width.
        width: usize,
    },
    /// A gate used the same qubit more than once (e.g. as both a control
    /// and the target). Such a gate does not lower to an involution, so
    /// the permutation kernels would corrupt the state.
    DuplicateQubit(usize),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::WidthTooLarge { width, max } => {
                write!(
                    f,
                    "circuit width {width} exceeds the {max}-qubit basis encoding"
                )
            }
            CompileError::QubitOutOfRange { qubit, width } => {
                write!(
                    f,
                    "gate qubit {qubit} out of range for circuit of width {width}"
                )
            }
            CompileError::DuplicateQubit(q) => {
                write!(f, "gate uses qubit {q} more than once; not a valid kernel")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Lowers one gate to its kernel form.
pub(crate) fn lower_gate(gate: &Gate) -> CompiledOp {
    match gate {
        Gate::X(q) => Op::Permutation(vec![FlipStep {
            care: 0,
            want: 0,
            flip: 1u128 << q,
        }]),
        Gate::Mcx { controls, target } => {
            let mut care = 0u128;
            let mut want = 0u128;
            for c in controls {
                care |= 1u128 << c.qubit;
                if c.positive {
                    want |= 1u128 << c.qubit;
                }
            }
            Op::Permutation(vec![FlipStep {
                care,
                want,
                flip: 1u128 << target,
            }])
        }
        Gate::Z(q) => Op::Diagonal(vec![PhaseStep {
            care: 1u128 << q,
            want: 1u128 << q,
            phase: Complex::real(-1.0),
        }]),
        Gate::Phase(q, theta) => Op::Diagonal(vec![PhaseStep {
            care: 1u128 << q,
            want: 1u128 << q,
            phase: Complex::from_phase(*theta),
        }]),
        Gate::CPhase(p, q, theta) => {
            let m = (1u128 << p) | (1u128 << q);
            Op::Diagonal(vec![PhaseStep {
                care: m,
                want: m,
                phase: Complex::from_phase(*theta),
            }])
        }
        Gate::Mcz { controls, target } => {
            let mut care = 1u128 << target;
            let mut want = 1u128 << target;
            for c in controls {
                care |= 1u128 << c.qubit;
                if c.positive {
                    want |= 1u128 << c.qubit;
                }
            }
            Op::Diagonal(vec![PhaseStep {
                care,
                want,
                phase: Complex::real(-1.0),
            }])
        }
        Gate::H(q) => Op::Single(SingleQubit::hadamard(*q)),
        Gate::Ry(q, theta) => Op::Single(SingleQubit::ry(*q, *theta)),
    }
}

/// Kernel steps in the longest fused permutation ladder of an op stream.
fn longest_ladder(ops: &[CompiledOp]) -> usize {
    ops.iter()
        .map(|op| match op {
            Op::Permutation(steps) => steps.len(),
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

/// What the compile pass did to a circuit: how much it read, how much it
/// emitted, and how much the peepholes removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileStats {
    /// Gates in the source circuit.
    pub source_gates: usize,
    /// Fused ops emitted.
    pub ops: usize,
    /// Kernel steps across all emitted ops (each `Single` counts as one).
    pub kernel_steps: usize,
    /// Gates removed by inverse-flip cancellation (each cancellation
    /// removes two source gates), including pairs that meet only after
    /// the scheduler commuted intermediates out of the way.
    pub cancelled_flips: usize,
    /// Phase gates folded into an existing step of the same pattern.
    pub merged_phases: usize,
    /// Single-qubit gates folded into an existing 2×2 product.
    pub merged_singles: usize,
    /// Diagonal steps conjugated past a later flip by the scheduler's
    /// commute rewrite (counted once per diagonal per sunk flip).
    pub commuted_diagonals: usize,
    /// Kernel steps in the longest fused permutation ladder.
    pub longest_ladder: usize,
}

/// A circuit lowered to fused kernel ops, with each op's section
/// attribution and the source circuit's section names.
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    width: usize,
    ops: Vec<CompiledOp>,
    /// Per op, `(section id, surviving kernel steps)` pairs.
    attributions: Vec<Vec<(usize, usize)>>,
    section_names: Vec<String>,
    stats: CompileStats,
}

impl CompiledCircuit {
    /// Compiles a circuit: validates it and runs the DAG scheduler
    /// ([`crate::dag`]) over the lowered gates. Diagonals sink past
    /// permutations, ladders fuse and cancel across section boundaries,
    /// and every op carries the section weights of the steps it absorbed.
    ///
    /// # Errors
    /// Fails with a [`CompileError`] if the circuit is wider than 128
    /// qubits or a gate references out-of-range or duplicated qubits; a
    /// malformed circuit is reported, never panicked on.
    pub fn compile(circuit: &Circuit) -> Result<Self, CompileError> {
        crate::validate::validate_circuit(circuit)?;
        let span = qmkp_obs::span("qsim.compile");
        let out = crate::dag::schedule_compile(circuit);
        let stats = CompileStats {
            source_gates: circuit.len(),
            ops: out.ops.len(),
            kernel_steps: out.ops.iter().map(Op::fused_gates).sum(),
            cancelled_flips: out.cancelled_flips,
            merged_phases: out.merged_phases,
            merged_singles: out.merged_singles,
            commuted_diagonals: out.commuted_diagonals,
            longest_ladder: longest_ladder(&out.ops),
        };
        if qmkp_obs::enabled_for("qsim.compile") {
            for (name, value) in [
                ("qsim.compile.gates", stats.source_gates),
                ("qsim.compile.ops", stats.ops),
                ("qsim.compile.cancelled", stats.cancelled_flips),
                ("qsim.compile.merged", stats.merged_phases),
                ("qsim.compile.merged_singles", stats.merged_singles),
                ("qsim.compile.commuted", stats.commuted_diagonals),
            ] {
                qmkp_obs::counter(name, &[], value as u64);
            }
        }
        span.finish();
        Ok(CompiledCircuit {
            width: circuit.width(),
            ops: out.ops,
            attributions: out.attributions,
            section_names: out.section_names,
            stats,
        })
    }

    /// The `(section id, surviving kernel steps)` pairs of op `op`, each
    /// section listed once: the weights a runner uses to split the op's
    /// measured cost across the source sections it absorbed. Section ids
    /// index the source circuit's section list
    /// ([`CompiledCircuit::section_name`]); [`crate::dag::UNSECTIONED`]
    /// marks untagged gates.
    ///
    /// # Panics
    /// Panics if `op` is not an index into [`CompiledCircuit::ops`].
    #[inline]
    pub fn attribution(&self, op: usize) -> &[(usize, usize)] {
        &self.attributions[op]
    }

    /// Circuit width (number of qubits).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The fused ops in order.
    #[inline]
    pub fn ops(&self) -> &[CompiledOp] {
        &self.ops
    }

    /// Always `None`: every register runs the `u128` ops of
    /// [`CompiledCircuit::ops`]. Kept only because the end-to-end
    /// benchmark (`bench_e2e/src/gate.rs`) reads it, and that package
    /// changes only together with the benchmark.
    #[inline]
    pub fn narrow_ops(&self) -> Option<&[CompiledOp]> {
        None
    }

    /// The name of the source circuit's section `id`, or `None` for an id
    /// outside its section list ([`crate::dag::UNSECTIONED`] included).
    #[inline]
    pub fn section_name(&self, id: usize) -> Option<&str> {
        self.section_names.get(id).map(String::as_str)
    }

    /// What the compile pass did (fusion and peephole accounting).
    #[inline]
    pub fn stats(&self) -> CompileStats {
        self.stats
    }

    /// Approximate resident heap footprint of the compiled artifact: the
    /// kernel ops, section names, and per-op section weights. This is the
    /// byte figure a compiled-circuit cache charges against its ceiling —
    /// the same `memory_bytes` accounting idiom the backends expose for
    /// states.
    pub fn memory_bytes(&self) -> usize {
        fn op_bytes(op: &Op) -> usize {
            std::mem::size_of::<Op>()
                + match op {
                    Op::Permutation(steps) => steps.capacity() * std::mem::size_of::<FlipStep>(),
                    Op::Diagonal(phases) => phases.capacity() * std::mem::size_of::<PhaseStep>(),
                    Op::Single(_) => 0,
                }
        }
        let mut bytes = std::mem::size_of::<Self>();
        bytes += self.ops.iter().map(op_bytes).sum::<usize>();
        bytes += self
            .section_names
            .iter()
            .map(|name| std::mem::size_of::<String>() + name.capacity())
            .sum::<usize>();
        bytes += self
            .attributions
            .iter()
            .map(|a| {
                std::mem::size_of::<Vec<(usize, usize)>>()
                    + a.capacity() * std::mem::size_of::<(usize, usize)>()
            })
            .sum::<usize>();
        bytes
    }

    /// Number of fused ops.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the compiled circuit has no ops.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Control;
    use crate::validate::validate_gate;

    fn compile(c: &Circuit) -> CompiledCircuit {
        CompiledCircuit::compile(c).expect("test circuits are well-formed")
    }

    #[test]
    fn masked_flip_is_an_involution() {
        let f = MaskedFlip {
            care: 0b011,
            want: 0b001,
            flip: 0b100,
        };
        for b in 0..8u128 {
            assert_eq!(f.apply(f.apply(b)), b);
        }
        assert_eq!(f.apply(0b001), 0b101);
        assert_eq!(f.apply(0b011), 0b011);
    }

    #[test]
    fn mcx_lowering_folds_polarities() {
        let g = Gate::Mcx {
            controls: vec![Control::pos(0), Control::neg(2)],
            target: 3,
        };
        let CompiledOp::Permutation(steps) = lower_gate(&g) else {
            panic!("MCX lowers to a permutation");
        };
        assert_eq!(
            steps,
            vec![MaskedFlip {
                care: 0b101,
                want: 0b001,
                flip: 0b1000
            }]
        );
    }

    #[test]
    fn mcz_lowering_includes_target_in_mask() {
        let g = Gate::Mcz {
            controls: vec![Control::neg(0)],
            target: 1,
        };
        let CompiledOp::Diagonal(phases) = lower_gate(&g) else {
            panic!("MCZ lowers to a diagonal");
        };
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].care, 0b11);
        assert_eq!(phases[0].want, 0b10);
        assert_eq!(phases[0].phase, Complex::real(-1.0));
    }

    #[test]
    fn runs_fuse_into_one_op_per_class() {
        let mut c = Circuit::new(3);
        c.push_unchecked(Gate::X(0));
        c.push_unchecked(Gate::cnot(0, 1));
        c.push_unchecked(Gate::ccnot(0, 1, 2)); // permutation run
        c.push_unchecked(Gate::Z(0));
        c.push_unchecked(Gate::Phase(1, 0.3)); // diagonal run
        c.push_unchecked(Gate::H(2)); // single
        c.push_unchecked(Gate::X(1)); // joins the ladder past both phases
        let cc = compile(&c);
        assert_eq!(cc.len(), 3);
        assert!(matches!(&cc.ops()[0], CompiledOp::Permutation(s) if s.len() == 4));
        assert!(matches!(&cc.ops()[1], CompiledOp::Diagonal(p) if p.len() == 2));
        assert!(matches!(&cc.ops()[2], CompiledOp::Single(k) if k.qubit == 2));
        assert_eq!(cc.stats().commuted_diagonals, 2);
        assert_eq!(cc.stats().source_gates, 7);
    }

    #[test]
    fn memory_bytes_tracks_compiled_payload() {
        let empty = compile(&Circuit::new(2));
        assert!(empty.memory_bytes() >= std::mem::size_of::<CompiledCircuit>());

        let mut c = Circuit::new(3);
        c.begin_section("payload");
        for q in 0..3 {
            c.push_unchecked(Gate::X(q));
            c.push_unchecked(Gate::Phase(q, 0.1));
            c.push_unchecked(Gate::H(q));
        }
        c.end_section();
        let loaded = compile(&c);
        assert!(
            loaded.memory_bytes() > empty.memory_bytes(),
            "ops, sections, and steps must be charged"
        );
        // The per-op section weights are charged too.
        let weight_bytes: usize = (0..loaded.len())
            .map(|op| {
                std::mem::size_of::<Vec<(usize, usize)>>()
                    + std::mem::size_of_val(loaded.attribution(op))
            })
            .sum();
        assert!(loaded.memory_bytes() > std::mem::size_of::<CompiledCircuit>() + weight_bytes);
    }

    #[test]
    fn adjacent_inverse_flips_cancel() {
        // A compute/uncompute mirror: the cancellations cascade from the
        // turnaround until the whole run is gone, and the emptied ladder
        // is dropped.
        let mut c = Circuit::new(4);
        c.push_unchecked(Gate::cnot(0, 1));
        c.push_unchecked(Gate::ccnot(0, 1, 2));
        c.push_unchecked(Gate::ccnot(1, 2, 3));
        c.push_unchecked(Gate::ccnot(1, 2, 3));
        c.push_unchecked(Gate::ccnot(0, 1, 2));
        c.push_unchecked(Gate::cnot(0, 1));
        let cc = compile(&c);
        assert!(cc.is_empty());
        assert_eq!(cc.stats().cancelled_flips, 6);
        assert_eq!(cc.stats().source_gates, 6);
    }

    #[test]
    fn same_mask_phases_merge() {
        let mut c = Circuit::new(2);
        c.push_unchecked(Gate::Phase(0, 0.4));
        c.push_unchecked(Gate::Phase(0, 0.5));
        c.push_unchecked(Gate::Z(1));
        let cc = compile(&c);
        assert_eq!(cc.len(), 1);
        let CompiledOp::Diagonal(phases) = &cc.ops()[0] else {
            panic!("phases lower to a diagonal");
        };
        assert_eq!(phases.len(), 2);
        assert!((phases[0].phase - Complex::from_phase(0.9)).norm() < 1e-12);
        assert_eq!(phases[1].phase, Complex::real(-1.0));
    }

    #[test]
    fn same_qubit_singles_fuse_into_one_product() {
        let mut c = Circuit::new(2);
        c.push_unchecked(Gate::H(0));
        c.push_unchecked(Gate::Ry(0, 0.7));
        c.push_unchecked(Gate::H(0));
        let cc = compile(&c);
        assert_eq!(cc.len(), 1, "three same-qubit singles fuse into one");
        let CompiledOp::Single(k) = &cc.ops()[0] else {
            panic!("singles stay single");
        };
        // H · Ry(θ) · H: compare against the product computed by hand.
        let expected = SingleQubit::hadamard(0)
            .after(&SingleQubit::ry(0, 0.7))
            .after(&SingleQubit::hadamard(0));
        for (a, b) in [
            (k.m00, expected.m00),
            (k.m01, expected.m01),
            (k.m10, expected.m10),
            (k.m11, expected.m11),
        ] {
            assert!((a - b).norm() < 1e-12);
        }
        assert_eq!(cc.stats().merged_singles, 2);
    }

    #[test]
    fn compile_stats_account_for_peepholes() {
        let mut c = Circuit::new(3);
        c.push_unchecked(Gate::cnot(0, 1));
        c.push_unchecked(Gate::cnot(0, 1)); // cancels with previous
        c.push_unchecked(Gate::Phase(0, 0.4));
        c.push_unchecked(Gate::Phase(0, 0.5)); // merges into previous
        c.push_unchecked(Gate::H(2));
        let cc = compile(&c);
        let s = cc.stats();
        assert_eq!(s.source_gates, 5);
        assert_eq!(s.ops, cc.len());
        assert_eq!(s.cancelled_flips, 2);
        assert_eq!(s.merged_phases, 1);
        assert_eq!(
            s.kernel_steps,
            cc.ops().iter().map(Op::fused_gates).sum::<usize>()
        );
    }

    #[test]
    fn empty_circuit_compiles_to_nothing() {
        let cc = compile(&Circuit::new(4));
        assert!(cc.is_empty());
        assert_eq!(cc.width(), 4);
    }

    #[test]
    fn overwide_circuit_is_a_structured_error() {
        let c = Circuit::new(129);
        match CompiledCircuit::compile(&c) {
            Err(CompileError::WidthTooLarge { width, max }) => {
                assert_eq!((width, max), (129, 128));
            }
            other => panic!("expected WidthTooLarge, got {:?}", other.map(|_| ())),
        }
        // Width 128 itself is fine.
        assert!(CompiledCircuit::compile(&Circuit::new(128)).is_ok());
    }

    #[test]
    fn malformed_gates_are_structured_errors() {
        // `Circuit::push` rejects these before they reach the compiler;
        // the compiler still guards on its own so a bypassed invariant is
        // an error, not a corrupted state or a panic.
        assert_eq!(
            validate_gate(&Gate::X(5), 4),
            Err(CompileError::QubitOutOfRange { qubit: 5, width: 4 })
        );
        assert_eq!(
            validate_gate(&Gate::cnot(2, 2), 4),
            Err(CompileError::DuplicateQubit(2))
        );
        assert_eq!(validate_gate(&Gate::cnot(0, 2), 4), Ok(()));
    }

    #[test]
    fn scheduler_commutes_diagonals_past_a_permutation_ladder() {
        // Hand-built ladder: X-walls around an MCZ — the diffusion shape.
        // The scheduler conjugates the MCZ through the second wall, so
        // the walls meet and annihilate, leaving just the conjugated
        // diagonal.
        let mut c = Circuit::new(3);
        for q in 0..3 {
            c.push_unchecked(Gate::X(q));
        }
        c.push_unchecked(Gate::Mcz {
            controls: vec![Control::pos(0), Control::pos(1)],
            target: 2,
        });
        for q in 0..3 {
            c.push_unchecked(Gate::X(q));
        }

        let cc = compile(&c);
        assert_eq!(cc.len(), 1, "walls cancel, diagonal survives");
        let CompiledOp::Diagonal(phases) = &cc.ops()[0] else {
            panic!("the surviving op is the conjugated diagonal");
        };
        // MCZ fires on |111⟩; conjugated through X⊗X⊗X it fires on |000⟩.
        assert_eq!(
            phases,
            &vec![MaskedPhase {
                care: 0b111,
                want: 0b000,
                phase: Complex::real(-1.0),
            }]
        );
        let s = cc.stats();
        assert_eq!(s.cancelled_flips, 6, "three X pairs cancelled");
        assert_eq!(s.commuted_diagonals, 3, "one diagonal sunk past each X");
    }

    #[test]
    fn scheduler_fuses_ladders_across_section_boundaries() {
        // The scheduler fuses through the boundary and attributes steps
        // to both sections.
        let mut c = Circuit::new(3);
        c.begin_section("a");
        c.push_unchecked(Gate::cnot(0, 1));
        c.begin_section("b");
        c.push_unchecked(Gate::ccnot(0, 1, 2));
        c.end_section();
        let cc = compile(&c);
        assert_eq!(cc.len(), 1);
        assert_eq!(cc.stats().longest_ladder, 2);
        assert_eq!(cc.attribution(0), [(0, 1), (1, 1)]);
        assert_eq!(cc.section_name(1), Some("b"));
    }

    #[test]
    fn scheduler_refuses_unsound_commutes() {
        // Z on the target of a CNOT does not commute to a masked step:
        // the runs must flush in program order instead.
        let mut c = Circuit::new(2);
        c.push_unchecked(Gate::Z(1));
        c.push_unchecked(Gate::cnot(0, 1));
        let cc = compile(&c);
        assert_eq!(cc.len(), 2);
        assert!(matches!(&cc.ops()[0], CompiledOp::Diagonal(_)));
        assert!(matches!(&cc.ops()[1], CompiledOp::Permutation(_)));
        assert_eq!(cc.stats().commuted_diagonals, 0);
    }

    #[test]
    fn scheduler_keeps_singles_ordered_against_overlapping_ops() {
        // H(0) then CNOT(0→1): the flip overlaps the pending single, so
        // the single must flush first and program order is preserved.
        let mut c = Circuit::new(2);
        c.push_unchecked(Gate::H(0));
        c.push_unchecked(Gate::cnot(0, 1));
        let cc = compile(&c);
        assert_eq!(cc.len(), 2);
        assert!(matches!(&cc.ops()[0], CompiledOp::Single(k) if k.qubit == 0));
        assert!(matches!(&cc.ops()[1], CompiledOp::Permutation(_)));
    }

    #[test]
    fn scheduler_fuses_singles_across_disjoint_intermediates() {
        // H(0), X(1), H(0): the X is disjoint from qubit 0, so the two
        // Hadamards fuse (into the identity) past the intervening op.
        let mut c = Circuit::new(2);
        c.push_unchecked(Gate::H(0));
        c.push_unchecked(Gate::X(1));
        c.push_unchecked(Gate::H(0));
        let cc = compile(&c);
        assert_eq!(cc.stats().merged_singles, 1);
        assert_eq!(cc.len(), 2);
    }

    #[test]
    fn attribution_weights_total_the_kernel_steps() {
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.push_unchecked(Gate::H(q));
        }
        c.push_unchecked(Gate::ccnot(0, 1, 2));
        c.push_unchecked(Gate::ccnot(3, 4, 5));
        c.push_unchecked(Gate::Z(0));
        let cc = compile(&c);
        let attributed: usize = (0..cc.len())
            .flat_map(|op| cc.attribution(op))
            .map(|&(_, w)| w)
            .sum();
        assert_eq!(attributed, cc.stats().kernel_steps);
    }

    #[test]
    fn compile_error_display_is_informative() {
        assert!(CompileError::WidthTooLarge {
            width: 200,
            max: 128
        }
        .to_string()
        .contains("200"));
        assert!(CompileError::QubitOutOfRange { qubit: 9, width: 4 }
            .to_string()
            .contains("qubit 9"));
        assert!(CompileError::DuplicateQubit(3)
            .to_string()
            .contains("qubit 3"));
    }
}
