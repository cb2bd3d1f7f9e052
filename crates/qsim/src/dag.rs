//! Gate-DAG scheduling: dependency-aware reordering and layering.
//!
//! Fusing gates in program order would close a fused run at every
//! section boundary and whenever the gate class changes, so a diagonal
//! phase mark sitting between two permutation ladders would keep the
//! ladders apart forever. The compiler instead treats the lowered gate
//! stream as a dependency DAG: two ops depend on each other only when
//! their qubit supports overlap *and* they do not commute. That admits
//! two rewrites the oracle circuits are full of:
//!
//! 1. **Commute diagonals past permutations.** A [`PhaseStep`] `D`
//!    commutes through a later [`FlipStep`] `F` by conjugation,
//!    `D' = F·D·F` (`F` is an involution), which is again a single masked
//!    phase step whenever the rule below applies. Diagonals therefore
//!    *sink* to the end of the stream and permutation ladders fuse across
//!    what would otherwise be hard boundaries, section boundaries
//!    included.
//! 2. **Long-range flip cancellation.** Once ladders fuse, a flip equal
//!    to an earlier step cancels with it provided every step in between
//!    has disjoint support (they commute past each other). The diffusion
//!    operator's two X-walls meet exactly this way once the MCZ between
//!    them sinks out.
//!
//! ## The conjugation rule
//!
//! For a phase step `D = (care, want, φ)` and a flip step
//! `F = (fcare, fwant, flip)` (with `fcare ∩ flip = ∅` by construction),
//! `D' = F·D·F` is a single masked phase step in exactly these cases:
//!
//! * `flip ∩ care = ∅` — `F` never flips a tested bit: `D' = D`.
//! * `fcare ⊆ care` — `F`'s own control is decided by `D`'s test:
//!   * if `want` agrees with `fwant` on `fcare`, every basis state that
//!     passes `D`'s test has `F` active, so `D' = (care, want ⊕ (flip ∩
//!     care), φ)`;
//!   * otherwise no state passing `D`'s test has `F` active and `D' = D`.
//! * Anything else (`F` conditionally flips tested bits under a control
//!   `D` does not determine) is *not* a single masked step — e.g. `Z` on
//!   the target of a CNOT — and the scheduler flushes instead of
//!   rewriting.
//!
//! The scheduler is a streaming pass maintaining the invariant that
//! `emitted ++ Perm(perm_run) ++ Diag(diag_run) ++ singles` is equivalent
//! to the program prefix read so far; every arrival rule preserves it by
//! one of the commutations above. Section tags travel with the surviving
//! kernel steps, so per-section attribution (the paper's Table IV) stays
//! exact as a per-op weight vector instead of disjoint op ranges.
//!
//! ## Layering
//!
//! The emitted op stream is finally cut into *layers*: maximal runs of
//! consecutive ops with pairwise-disjoint qubit support. All ops in a
//! layer commute, so a backend may apply them in one pass over the
//! amplitudes (`QuantumState::apply_layer`); the dense backend runs the
//! layer's single-qubit kernels as butterflies and fuses the rest of the
//! layer into one rayon-parallel gather.

use crate::circuit::{Circuit, Section};
use crate::compile::{lower_gate, CompiledOp, FlipStep, Op, PhaseStep, SingleQubit};
use std::ops::Range;

/// Section id of gates outside every section.
pub const UNSECTIONED: usize = usize::MAX;

/// The layer structure and per-op section attribution of a compiled
/// circuit: what the executor walks, layer by layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Consecutive op-index ranges; each range is an antichain of
    /// support-disjoint ops. The ranges partition `0..ops.len()`.
    pub layers: Vec<Range<usize>>,
    /// For each op, `(section id, surviving kernel steps)` pairs — the
    /// weights a runner uses to split the op's measured cost across the
    /// source sections it absorbed. Section ids index the source
    /// circuit's section list; [`UNSECTIONED`] marks untagged gates.
    pub attributions: Vec<Vec<(usize, usize)>>,
}

impl Schedule {
    /// Total attributed kernel steps of the ops in `range`.
    pub fn weight_of(&self, range: &Range<usize>) -> usize {
        self.attributions[range.clone()]
            .iter()
            .map(|a| a.iter().map(|&(_, w)| w).sum::<usize>())
            .sum()
    }
}

/// `F·D·F` as a single masked phase step, or `None` when the pair does
/// not admit the rewrite (see the module docs for the rule).
pub fn conjugate_phase(d: &PhaseStep, f: &FlipStep) -> Option<PhaseStep> {
    if f.flip & d.care == 0 {
        return Some(*d);
    }
    if f.care & !d.care == 0 {
        if d.want & f.care == f.want {
            return Some(PhaseStep {
                care: d.care,
                want: d.want ^ (f.flip & d.care),
                phase: d.phase,
            });
        }
        return Some(*d);
    }
    None
}

/// Qubit-support mask of a fused op (bits the op reads or writes).
pub fn op_support(op: &CompiledOp) -> u128 {
    match op {
        Op::Permutation(steps) => steps.iter().fold(0, |m, s| m | s.care | s.flip),
        Op::Diagonal(phases) => phases.iter().fold(0, |m, p| m | p.care),
        Op::Single(k) => 1u128 << k.qubit,
    }
}

/// Everything the scheduled compile produces; folded into
/// [`crate::compile::CompiledCircuit`] by `CompiledCircuit::compile`.
pub(crate) struct ScheduledCompile {
    pub ops: Vec<CompiledOp>,
    pub sections: Vec<Section>,
    pub schedule: Schedule,
    pub cancelled_flips: usize,
    pub merged_phases: usize,
    pub merged_singles: usize,
    pub commuted_diagonals: usize,
}

/// A kernel step with the section that contributed it.
#[derive(Clone, Copy)]
struct Tagged<T> {
    step: T,
    section: usize,
}

/// The streaming sink/fuse state.
struct Scheduler {
    emitted: Vec<CompiledOp>,
    attributions: Vec<Vec<(usize, usize)>>,
    perm_run: Vec<Tagged<FlipStep>>,
    diag_run: Vec<Tagged<PhaseStep>>,
    /// Pending single-qubit kernels, pairwise on distinct qubits.
    singles: Vec<Tagged<SingleQubit>>,
    cancelled_flips: usize,
    merged_phases: usize,
    merged_singles: usize,
    commuted_diagonals: usize,
}

fn bump(attr: &mut Vec<(usize, usize)>, section: usize) {
    match attr.iter_mut().find(|(s, _)| *s == section) {
        Some((_, w)) => *w += 1,
        None => attr.push((section, 1)),
    }
}

impl Scheduler {
    fn new() -> Self {
        Scheduler {
            emitted: Vec::new(),
            attributions: Vec::new(),
            perm_run: Vec::new(),
            diag_run: Vec::new(),
            singles: Vec::new(),
            cancelled_flips: 0,
            merged_phases: 0,
            merged_singles: 0,
            commuted_diagonals: 0,
        }
    }

    fn singles_support(&self) -> u128 {
        self.singles
            .iter()
            .fold(0, |m, s| m | (1u128 << s.step.qubit))
    }

    /// Emits the pending runs in invariant order (perm, diag, singles).
    /// Permutation runs peephole-cancelled down to nothing are dropped.
    fn flush(&mut self) {
        if !self.perm_run.is_empty() {
            let mut attr = Vec::new();
            for t in &self.perm_run {
                bump(&mut attr, t.section);
            }
            self.emitted.push(Op::Permutation(
                self.perm_run.drain(..).map(|t| t.step).collect(),
            ));
            self.attributions.push(attr);
        }
        if !self.diag_run.is_empty() {
            let mut attr = Vec::new();
            for t in &self.diag_run {
                bump(&mut attr, t.section);
            }
            self.emitted.push(Op::Diagonal(
                self.diag_run.drain(..).map(|t| t.step).collect(),
            ));
            self.attributions.push(attr);
        }
        for t in self.singles.drain(..) {
            self.emitted.push(Op::Single(t.step));
            self.attributions.push(vec![(t.section, 1)]);
        }
    }

    fn push_flip(&mut self, f: FlipStep, section: usize) {
        let support = f.care | f.flip;
        if self.singles_support() & support != 0 {
            // A pending butterfly touches the flip's support; program
            // order must hold between them, so everything flushes.
            self.flush();
            self.perm_run.push(Tagged { step: f, section });
            return;
        }
        // Sink the whole pending diagonal run past `f`: conjugate every
        // step tentatively and commit only if all of them rewrite.
        let conjugated: Option<Vec<Tagged<PhaseStep>>> = self
            .diag_run
            .iter()
            .map(|t| {
                conjugate_phase(&t.step, &f).map(|step| Tagged {
                    step,
                    section: t.section,
                })
            })
            .collect();
        let Some(conjugated) = conjugated else {
            self.flush();
            self.perm_run.push(Tagged { step: f, section });
            return;
        };
        self.commuted_diagonals += conjugated.len();
        self.diag_run = conjugated;
        // Long-range cancellation: walk the ladder backwards; `f`
        // commutes past support-disjoint steps, and meeting its own copy
        // composes to the identity.
        for j in (0..self.perm_run.len()).rev() {
            let step = self.perm_run[j].step;
            if step == f {
                self.perm_run.remove(j);
                self.cancelled_flips += 2;
                return;
            }
            if (step.care | step.flip) & support != 0 {
                break;
            }
        }
        self.perm_run.push(Tagged { step: f, section });
    }

    fn push_phase(&mut self, p: PhaseStep, section: usize) {
        if self.singles_support() & p.care != 0 {
            self.flush();
            self.diag_run.push(Tagged { step: p, section });
            return;
        }
        // Diagonals all commute, so a same-pattern step anywhere in the
        // run absorbs the new phase.
        for t in self.diag_run.iter_mut() {
            if t.step.care == p.care && t.step.want == p.want {
                t.step.phase *= p.phase;
                self.merged_phases += 1;
                return;
            }
        }
        self.diag_run.push(Tagged { step: p, section });
    }

    fn push_single(&mut self, k: SingleQubit, section: usize) {
        // A pending single on the same qubit is adjacent once disjoint
        // intermediates commute out of the way (anything overlapping the
        // qubit would have flushed it), so the kernels fuse.
        for t in self.singles.iter_mut() {
            if t.step.qubit == k.qubit {
                t.step = k.after(&t.step);
                self.merged_singles += 1;
                return;
            }
        }
        self.singles.push(Tagged { step: k, section });
    }
}

/// Cuts the op stream into maximal consecutive antichains of
/// support-disjoint ops: a layer extends while supports stay disjoint.
pub fn layerize(ops: &[CompiledOp]) -> Vec<Range<usize>> {
    let mut layers = Vec::new();
    let mut start = 0;
    let mut support = 0u128;
    for (i, op) in ops.iter().enumerate() {
        let s = op_support(op);
        if i > start && support & s != 0 {
            layers.push(start..i);
            start = i;
            support = 0;
        }
        support |= s;
    }
    if start < ops.len() {
        layers.push(start..ops.len());
    }
    layers
}

/// Runs the DAG scheduler over a validated circuit: lowers every gate,
/// sinks diagonals, fuses and cancels permutation ladders across section
/// boundaries, fuses single-qubit kernels, and layers the result.
pub(crate) fn schedule_compile(circuit: &Circuit) -> ScheduledCompile {
    // Per-gate section tag (sections are disjoint gate ranges).
    let mut gate_section = vec![UNSECTIONED; circuit.len()];
    for (id, s) in circuit.sections().iter().enumerate() {
        for slot in &mut gate_section[s.range.clone()] {
            *slot = id;
        }
    }

    let mut sched = Scheduler::new();
    for (g, gate) in circuit.gates().iter().enumerate() {
        let section = gate_section[g];
        match lower_gate(gate) {
            Op::Permutation(steps) => {
                for step in steps {
                    sched.push_flip(step, section);
                }
            }
            Op::Diagonal(phases) => {
                for p in phases {
                    sched.push_phase(p, section);
                }
            }
            Op::Single(k) => sched.push_single(k, section),
        }
    }
    sched.flush();

    let Scheduler {
        emitted: ops,
        attributions,
        cancelled_flips,
        merged_phases,
        merged_singles,
        commuted_diagonals,
        ..
    } = sched;

    // Sections become *covering* op ranges: the op span that holds any
    // surviving step of the section. Spans of different sections may
    // overlap (that is the point of cross-boundary fusion); runners that
    // need exact attribution use the per-op weights instead.
    let sections = circuit
        .sections()
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut lo = usize::MAX;
            let mut hi = 0usize;
            for (op, attr) in attributions.iter().enumerate() {
                if attr.iter().any(|&(sec, _)| sec == id) {
                    lo = lo.min(op);
                    hi = hi.max(op + 1);
                }
            }
            let range = if lo == usize::MAX {
                ops.len()..ops.len()
            } else {
                lo..hi
            };
            Section {
                name: s.name.clone(),
                range,
            }
        })
        .collect();

    let layers = layerize(&ops);
    ScheduledCompile {
        ops,
        sections,
        schedule: Schedule {
            layers,
            attributions,
        },
        cancelled_flips,
        merged_phases,
        merged_singles,
        commuted_diagonals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;

    /// Exhaustively verifies the conjugation rule as an operator
    /// identity: `D` then `F` must equal `F` then `F·D·F` on every basis
    /// state of a 4-qubit register, for every mask combination.
    #[test]
    fn conjugation_rule_is_an_operator_identity() {
        let phase = Complex::from_phase(0.37);
        for fcare in 0u128..8 {
            for fwant in 0u128..8 {
                if fwant & !fcare != 0 {
                    continue;
                }
                for flip in 1u128..16 {
                    if flip & fcare != 0 {
                        continue;
                    }
                    let f = FlipStep {
                        care: fcare,
                        want: fwant,
                        flip,
                    };
                    for care in 0u128..16 {
                        for want in 0u128..16 {
                            if want & !care != 0 {
                                continue;
                            }
                            let d = PhaseStep { care, want, phase };
                            let Some(d2) = conjugate_phase(&d, &f) else {
                                continue;
                            };
                            for x in 0u128..16 {
                                // D then F: phase from D(x), basis F(x).
                                let lhs = (d.applies_to(x), f.apply(x));
                                // F then D': phase from D'(F(x)).
                                let rhs = (d2.applies_to(f.apply(x)), f.apply(x));
                                assert_eq!(lhs, rhs, "f={f:?} d={d:?} x={x}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn z_past_cnot_target_is_refused() {
        // Z on the target of a CNOT is not a masked phase after
        // conjugation (it becomes a controlled pair), so the rule must
        // decline rather than emit something wrong.
        let d = PhaseStep {
            care: 0b10,
            want: 0b10,
            phase: Complex::real(-1.0),
        };
        let f = FlipStep {
            care: 0b01,
            want: 0b01,
            flip: 0b10,
        };
        assert_eq!(conjugate_phase(&d, &f), None);
    }

    #[test]
    fn layering_groups_disjoint_ops_until_supports_overlap() {
        let flip = |q: usize| {
            Op::Permutation(vec![FlipStep {
                care: 0,
                want: 0,
                flip: 1u128 << q,
            }])
        };
        let single = |q: usize| Op::Single(SingleQubit::hadamard(q));
        // X(0) X(1) share no support with each other; X(0) again overlaps.
        let ops = vec![flip(0), flip(1), flip(0), single(2), single(3), single(4)];
        let layers = layerize(&ops);
        assert_eq!(layers, vec![0..2, 2..6]);
        // Each layer's ops are pairwise disjoint.
        for l in &layers {
            let mut seen = 0u128;
            for op in &ops[l.clone()] {
                assert_eq!(seen & op_support(op), 0);
                seen |= op_support(op);
            }
        }
    }
}
