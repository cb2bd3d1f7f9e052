//! Symbolic ancilla verification: XOR-affine dataflow over GF(2).
//!
//! The enumerative pass in [`crate::ancilla`] proves cleanliness by
//! evaluating the circuit on every free-register input — exact, but
//! exponential in the free width and capped at 128 qubits by its `u128`
//! state. This module proves the same property *symbolically*, in time
//! polynomial in the circuit size for the compute/uncompute sandwiches
//! the oracles actually build, at any width.
//!
//! ## The abstract domain
//!
//! Each qubit carries an **affine form over GF(2)**: a constant bit XOR
//! a subset of *variables*, stored as a chunked [`BitVec`]. Variables
//! come in two kinds:
//!
//! * **input variables** `0..n` — one per free-register qubit;
//! * **product variables** `n..` — introduced on demand (a
//!   *definitional extension*): when an MCX fires under a control
//!   conjunction that is not itself affine, the conjunction of its
//!   normalized control literals becomes a fresh variable, memoized by
//!   the literal set. The target then stays affine over the extended
//!   variable set, and the analysis never loses precision — it only
//!   defers work.
//!
//! The memoization is what makes compute/uncompute sandwiches cancel
//! *syntactically*: when the uncompute replays a Toffoli, its controls
//! carry exactly the forms they had on the compute side (the gate never
//! rewrites its own controls), so the lookup returns the same product
//! variable and the two XORs annihilate. A clean sandwich therefore
//! finishes with every checked qubit's final form literally equal to its
//! initial form — a proof valid for *all* `2^n` inputs at once.
//!
//! ## Resolving residuals
//!
//! When a final form differs from the initial one, the difference (the
//! *residual*) is a XOR of variables that must be decided: identically
//! zero (clean), or satisfiable (a concrete violating input exists).
//! Three mechanisms, cheapest first:
//!
//! 1. **Lane screening** — every variable carries its value on 256 fixed
//!    concrete inputs (all-zeros, all-ones, one-hot patterns, then
//!    splitmix64 pseudo-random), evaluated incrementally as bit-lanes.
//!    A nonzero residual lane is an immediate witness.
//! 2. **Bounded case-splitting** — the residual's transitive *input
//!    cone* (the input variables its product definitions reach) is
//!    enumerated exhaustively, 64 assignments per `u64` word, as long as
//!    the cone stays within [`split_budget`] bits. Inputs outside the
//!    cone provably cannot affect the residual, so this is exact.
//! 3. **Fallback** — a cone wider than the budget yields
//!    [`SymbolicOutcome::BudgetExceeded`]; the caller (the ancilla pass)
//!    reports a `symbolic-budget-exceeded` note and falls back to
//!    enumeration (or, past its limit, an `unproven` error).
//!
//! Gate liveness (for `dead-gate` notes and mutation-test seeding) is
//! resolved the same way over each gate's control conjunction.
//!
//! [`split_budget`]: crate::AncillaSpec::split_budget

use qmkp_qsim::bits::BitVec;
use qmkp_qsim::{Circuit, Gate};
use std::collections::HashMap;

/// Number of 64-bit lanes in the concrete screening samples (lanes × 64
/// inputs are evaluated alongside the symbolic pass).
const LANE_WORDS: usize = 4;

/// Concrete values of one variable across the `LANE_WORDS * 64` fixed
/// screening samples.
type Lanes = [u64; LANE_WORDS];

/// The six classic bit-counting patterns: lane word for the `p`-th cone
/// input during exhaustive case-splitting, `p < 6`. Assignment `j`
/// within a 64-assignment block gives input `p` the value `(j >> p) & 1`.
const SPLIT_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Stateless splitmix64 finalizer, for deterministic pseudo-random lanes.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An affine form over GF(2): `constant ⊕ (⊕ vars)`. Bit `v` of `vars`
/// selects variable `v` (input variables first, then product variables).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Form {
    vars: BitVec,
    constant: bool,
}

impl Form {
    fn zero() -> Self {
        Form::default()
    }

    fn var(v: usize) -> Self {
        Form {
            vars: BitVec::singleton(v),
            constant: false,
        }
    }

    fn xor_with(&mut self, other: &Form) {
        self.vars.xor_with(&other.vars);
        self.constant ^= other.constant;
    }

    fn is_const(&self) -> bool {
        self.vars.is_zero()
    }
}

/// How the interpreter classified one gate's firing condition.
#[derive(Clone, Debug)]
enum Firing {
    /// The control conjunction is constant-false: the gate can never fire
    /// on any reachable input.
    Dead,
    /// No symbolic controls remain (plain X, or all controls constant
    /// true): the gate fires on every input.
    Always,
    /// Fires exactly when every literal in the (sorted, deduplicated)
    /// conjunction is 1.
    Conditional(Vec<Form>),
}

/// A concrete free-register assignment on which a checked qubit provably
/// ends in the wrong state. Bit `i` is the value of the `i`-th *free*
/// qubit (`spec.free[i]` order, matching the enumerative pass).
#[derive(Clone, Debug)]
pub struct Witness {
    /// The qubit that is not restored.
    pub qubit: usize,
    /// The violating free-register assignment, by free-bit position.
    pub assignment: BitVec,
}

/// The verdict of the symbolic pass.
#[derive(Clone, Debug)]
pub enum SymbolicOutcome {
    /// Every checked qubit is restored on every input — an exact proof.
    Clean,
    /// At least one qubit is provably corrupted; one witness per such
    /// qubit, each independently replayable.
    Dirty(Vec<Witness>),
    /// A residual's input cone exceeded the case-split budget; the
    /// verdict for `qubit` (and possibly others) is open.
    BudgetExceeded {
        /// First qubit whose residual could not be decided.
        qubit: usize,
        /// Width of that residual's input cone, in bits.
        cone_bits: usize,
        /// The budget that was exceeded.
        budget: usize,
    },
}

/// Everything the symbolic pass learned about one circuit.
#[derive(Clone, Debug)]
pub struct SymbolicAnalysis {
    /// The cleanliness verdict.
    pub outcome: SymbolicOutcome,
    /// Per-gate liveness: `true` when the gate fires on at least one
    /// reachable input. Exact when `liveness_exact` holds.
    pub live_gates: Vec<bool>,
    /// Whether every gate's liveness was decided exactly (a gate whose
    /// control cone exceeded the budget is conservatively marked live).
    pub liveness_exact: bool,
    /// Product variables the definitional extension introduced.
    pub products: usize,
    /// Concrete assignments evaluated during case-splitting (0 for a
    /// purely syntactic proof).
    pub cases_evaluated: u64,
}

/// The interpreter state: per-qubit forms, product-variable definitions,
/// and per-variable screening lanes.
struct Interpreter {
    n_inputs: usize,
    /// Definition of product variable `n_inputs + i`: the sorted literal
    /// conjunction it stands for.
    defs: Vec<Vec<Form>>,
    /// Literal-set → product-variable memo (the sandwich-cancellation
    /// mechanism).
    memo: HashMap<Vec<Form>, usize>,
    /// Screening-sample values per variable.
    lanes: Vec<Lanes>,
    /// Current form of each qubit.
    forms: Vec<Form>,
    /// Firing classification per gate.
    firings: Vec<Firing>,
}

impl Interpreter {
    fn new(circuit: &Circuit, free: &[usize]) -> Self {
        let n_inputs = free.len();
        let mut forms = vec![Form::zero(); circuit.width()];
        let mut lanes = Vec::with_capacity(n_inputs);
        for (i, &q) in free.iter().enumerate() {
            forms[q] = Form::var(i);
            lanes.push(input_lanes(i, n_inputs));
        }
        Interpreter {
            n_inputs,
            defs: Vec::new(),
            memo: HashMap::new(),
            lanes,
            forms,
            firings: Vec::with_capacity(circuit.len()),
        }
    }

    /// Screening-sample values of an affine form.
    fn form_lanes(&self, form: &Form) -> Lanes {
        let mut out = if form.constant {
            [!0u64; LANE_WORDS]
        } else {
            [0u64; LANE_WORDS]
        };
        for v in form.vars.ones() {
            for (o, l) in out.iter_mut().zip(&self.lanes[v]) {
                *o ^= l;
            }
        }
        out
    }

    /// Normalizes a gate's controls into a conjunction of affine
    /// literals: constant-true literals drop, duplicates merge, a
    /// constant-false or complementary pair kills the conjunction.
    fn normalize_controls(&self, controls: &[qmkp_qsim::Control]) -> Option<Vec<Form>> {
        let mut lits = Vec::with_capacity(controls.len());
        for c in controls {
            let mut lit = self.forms[c.qubit].clone();
            if !c.positive {
                lit.constant = !lit.constant;
            }
            if lit.is_const() {
                if lit.constant {
                    continue; // satisfied on every input
                }
                return None; // constant false: the gate is dead
            }
            lits.push(lit);
        }
        lits.sort_unstable();
        lits.dedup();
        // A literal and its complement (same vars, opposite constants)
        // sit adjacent after sorting on (vars, constant).
        for pair in lits.windows(2) {
            if pair[0].vars == pair[1].vars {
                return None;
            }
        }
        Some(lits)
    }

    /// The product variable standing for a (non-empty, ≥ 2 literal)
    /// conjunction, creating and memoizing it on first sight.
    fn product_var(&mut self, lits: Vec<Form>) -> usize {
        if let Some(&v) = self.memo.get(&lits) {
            return v;
        }
        let mut lanes = [!0u64; LANE_WORDS];
        for lit in &lits {
            let ll = self.form_lanes(lit);
            for (l, x) in lanes.iter_mut().zip(&ll) {
                *l &= x;
            }
        }
        let v = self.n_inputs + self.defs.len();
        self.defs.push(lits.clone());
        self.lanes.push(lanes);
        self.memo.insert(lits, v);
        v
    }

    /// Abstractly executes one permutation gate.
    fn apply(&mut self, gate: &Gate) {
        match gate {
            Gate::X(q) => {
                self.forms[*q].constant = !self.forms[*q].constant;
                self.firings.push(Firing::Always);
            }
            Gate::Mcx { controls, target } => {
                let Some(lits) = self.normalize_controls(controls) else {
                    self.firings.push(Firing::Dead);
                    return;
                };
                match lits.len() {
                    0 => {
                        self.forms[*target].constant = !self.forms[*target].constant;
                        self.firings.push(Firing::Always);
                    }
                    1 => {
                        let lit = lits[0].clone();
                        self.forms[*target].xor_with(&lit);
                        self.firings.push(Firing::Conditional(lits));
                    }
                    _ => {
                        let v = self.product_var(lits.clone());
                        self.forms[*target].vars.toggle(v);
                        self.firings.push(Firing::Conditional(lits));
                    }
                }
            }
            // Non-permutation gates are rejected by the caller before the
            // symbolic pass runs.
            _ => self.firings.push(Firing::Always),
        }
    }

    /// The transitive cone of a variable set: the input variables it can
    /// reach through product definitions, plus the product variables
    /// needed to evaluate it, both ascending (creation order is
    /// topological for products).
    fn input_cone(&self, seed: &BitVec) -> (Vec<usize>, Vec<usize>) {
        let mut visited = BitVec::new();
        let mut stack: Vec<usize> = seed.ones().collect();
        while let Some(v) = stack.pop() {
            if visited.get(v) {
                continue;
            }
            visited.set(v, true);
            if v >= self.n_inputs {
                for lit in &self.defs[v - self.n_inputs] {
                    stack.extend(lit.vars.ones());
                }
            }
        }
        let inputs: Vec<usize> = visited.ones().filter(|&v| v < self.n_inputs).collect();
        let products: Vec<usize> = visited.ones().filter(|&v| v >= self.n_inputs).collect();
        (inputs, products)
    }

    /// Exhaustively case-splits a conjunction-or-residual over its input
    /// cone, 64 assignments per block. `eval` maps the per-variable value
    /// table to the expression's lane word; the first nonzero lane yields
    /// the satisfying assignment. Returns `Err(cone_bits)` when the cone
    /// exceeds `budget`.
    fn case_split(
        &self,
        cone_inputs: &[usize],
        cone_products: &[usize],
        budget: usize,
        cases: &mut u64,
        eval: impl Fn(&[u64]) -> u64,
    ) -> Result<Option<BitVec>, usize> {
        let k = cone_inputs.len();
        if k > budget {
            return Err(k);
        }
        let n_vars = self.n_inputs + self.defs.len();
        let mut values = vec![0u64; n_vars];
        let blocks: u64 = 1u64 << k.saturating_sub(6);
        for block in 0..blocks {
            for (p, &v) in cone_inputs.iter().enumerate() {
                values[v] = if p < 6 {
                    SPLIT_PATTERNS[p]
                } else if (block >> (p - 6)) & 1 == 1 {
                    !0u64
                } else {
                    0u64
                };
            }
            for &v in cone_products {
                let mut lane = !0u64;
                for lit in &self.defs[v - self.n_inputs] {
                    let mut ll = if lit.constant { !0u64 } else { 0u64 };
                    for w in lit.vars.ones() {
                        ll ^= values[w];
                    }
                    lane &= ll;
                }
                values[v] = lane;
            }
            let lane = eval(&values);
            *cases += 1u64 << k.min(6); // 64 per block, fewer when k < 6
            if lane != 0 {
                let j = lane.trailing_zeros() as usize;
                let mut assignment = BitVec::new();
                for (p, &v) in cone_inputs.iter().enumerate() {
                    let bit = if p < 6 {
                        (j >> p) & 1 == 1
                    } else {
                        (block >> (p - 6)) & 1 == 1
                    };
                    if bit {
                        assignment.set(v, true);
                    }
                }
                return Ok(Some(assignment));
            }
        }
        Ok(None)
    }

    /// Decides whether an affine form is satisfiable (nonzero on some
    /// input), returning a satisfying assignment by free-bit position.
    fn satisfy_form(
        &self,
        form: &Form,
        budget: usize,
        cases: &mut u64,
    ) -> Result<Option<BitVec>, usize> {
        if form.is_const() {
            return Ok(form.constant.then(BitVec::new));
        }
        // Lane screening first: a nonzero screening lane is a witness.
        let lanes = self.form_lanes(form);
        if let Some(sample) = first_set_sample(&lanes) {
            return Ok(Some(self.sample_assignment(sample)));
        }
        let (inputs, products) = self.input_cone(&form.vars);
        let constant = form.constant;
        let vars: Vec<usize> = form.vars.ones().collect();
        self.case_split(&inputs, &products, budget, cases, move |values| {
            let mut lane = if constant { !0u64 } else { 0u64 };
            for &v in &vars {
                lane ^= values[v];
            }
            lane
        })
    }

    /// Decides whether a literal conjunction is satisfiable.
    fn satisfy_conjunction(
        &self,
        lits: &[Form],
        budget: usize,
        cases: &mut u64,
    ) -> Result<Option<BitVec>, usize> {
        let mut product_lanes = [!0u64; LANE_WORDS];
        for lit in lits {
            let ll = self.form_lanes(lit);
            for (l, x) in product_lanes.iter_mut().zip(&ll) {
                *l &= x;
            }
        }
        let mut union = BitVec::new();
        for lit in lits {
            for v in lit.vars.ones() {
                union.set(v, true);
            }
        }
        if let Some(sample) = first_set_sample(&product_lanes) {
            return Ok(Some(self.sample_assignment(sample)));
        }
        let (inputs, products) = self.input_cone(&union);
        let lits: Vec<Form> = lits.to_vec();
        self.case_split(&inputs, &products, budget, cases, move |values| {
            let mut lane = !0u64;
            for lit in &lits {
                let mut ll = if lit.constant { !0u64 } else { 0u64 };
                for v in lit.vars.ones() {
                    ll ^= values[v];
                }
                lane &= ll;
            }
            lane
        })
    }

    /// The free-register assignment of screening sample `sample`, by
    /// free-bit position.
    fn sample_assignment(&self, sample: usize) -> BitVec {
        let mut assignment = BitVec::new();
        for i in 0..self.n_inputs {
            if (self.lanes[i][sample / 64] >> (sample % 64)) & 1 == 1 {
                assignment.set(i, true);
            }
        }
        assignment
    }
}

/// Index of the first set bit across the lane words, if any.
fn first_set_sample(lanes: &Lanes) -> Option<usize> {
    lanes
        .iter()
        .position(|&w| w != 0)
        .map(|wi| wi * 64 + lanes[wi].trailing_zeros() as usize)
}

/// Screening-sample values of input variable `i` (of `n` inputs):
/// sample 0 is all-zeros, sample 1 all-ones, samples `2..2+n` one-hot,
/// the rest splitmix64 pseudo-random.
fn input_lanes(i: usize, n: usize) -> Lanes {
    let mut lanes = [0u64; LANE_WORDS];
    for sample in 0..LANE_WORDS * 64 {
        let bit = match sample {
            0 => false,
            1 => true,
            s if s - 2 < n => s - 2 == i,
            s => mix((i as u64) << 32 | s as u64) & 1 == 1,
        };
        if bit {
            lanes[sample / 64] |= 1u64 << (sample % 64);
        }
    }
    lanes
}

/// Runs the symbolic interpreter over a permutation circuit and decides
/// cleanliness for every qubit outside `dirty_ok` (free qubits must be
/// preserved, all other non-`dirty_ok` qubits restored to `|0⟩`).
///
/// The caller is responsible for spec sanity and the permutation-only
/// precondition ([`crate::verify_ancillas`] checks both before
/// delegating here); non-permutation gates are treated as identity.
#[must_use]
pub fn analyze_symbolic(
    circuit: &Circuit,
    free: &[usize],
    dirty_ok: &[usize],
    split_budget: usize,
) -> SymbolicAnalysis {
    // 63 caps the per-cone enumeration at u64-countable blocks; real
    // budgets sit far below (default 20 bits).
    let split_budget = split_budget.min(62);
    let mut interp = Interpreter::new(circuit, free);
    for gate in circuit.gates() {
        interp.apply(gate);
    }

    let mut cases = 0u64;
    let skip: Vec<bool> = {
        let mut v = vec![false; circuit.width()];
        for &q in dirty_ok {
            v[q] = true;
        }
        v
    };

    // Per-qubit residual resolution. A provable violation anywhere wins
    // over an inconclusive residual elsewhere: the Dirty verdict is
    // sound regardless of the open qubits.
    let mut witnesses = Vec::new();
    let mut open: Option<(usize, usize)> = None; // (qubit, cone_bits)
    let mut expected = vec![Form::zero(); circuit.width()];
    for (i, &q) in free.iter().enumerate() {
        expected[q] = Form::var(i);
    }
    for q in 0..circuit.width() {
        if skip[q] {
            continue;
        }
        let mut residual = interp.forms[q].clone();
        residual.xor_with(&expected[q]);
        if residual.is_const() && !residual.constant {
            continue; // syntactically identical: clean at any width
        }
        match interp.satisfy_form(&residual, split_budget, &mut cases) {
            Ok(Some(assignment)) => witnesses.push(Witness {
                qubit: q,
                assignment,
            }),
            Ok(None) => {} // residual is identically zero: clean
            Err(cone_bits) => {
                if open.is_none() {
                    open = Some((q, cone_bits));
                }
            }
        }
    }

    // Gate liveness, memoized per unique conjunction (the compute and
    // uncompute halves share literal sets by construction).
    let mut live = vec![false; circuit.len()];
    let mut liveness_exact = true;
    let mut live_memo: HashMap<Vec<Form>, Option<bool>> = HashMap::new();
    for (i, firing) in interp.firings.iter().enumerate() {
        live[i] = match firing {
            Firing::Dead => false,
            Firing::Always => true,
            Firing::Conditional(lits) => {
                match live_memo.get(lits) {
                    Some(Some(l)) => *l,
                    Some(None) => true, // previously over budget
                    None => {
                        let decided =
                            match interp.satisfy_conjunction(lits, split_budget, &mut cases) {
                                Ok(found) => Some(found.is_some()),
                                Err(_) => None,
                            };
                        live_memo.insert(lits.clone(), decided);
                        match decided {
                            Some(l) => l,
                            None => {
                                liveness_exact = false;
                                true // conservatively live
                            }
                        }
                    }
                }
            }
        };
    }

    let outcome = if !witnesses.is_empty() {
        SymbolicOutcome::Dirty(witnesses)
    } else if let Some((qubit, cone_bits)) = open {
        SymbolicOutcome::BudgetExceeded {
            qubit,
            cone_bits,
            budget: split_budget,
        }
    } else {
        SymbolicOutcome::Clean
    };
    SymbolicAnalysis {
        outcome,
        live_gates: live,
        liveness_exact,
        products: interp.defs.len(),
        cases_evaluated: cases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sandwich() -> Circuit {
        let mut c = Circuit::new(4);
        c.push_unchecked(Gate::cnot(0, 1));
        c.push_unchecked(Gate::ccnot(0, 1, 2));
        c.push_unchecked(Gate::ccnot(1, 2, 3));
        c.push_unchecked(Gate::ccnot(0, 1, 2));
        c.push_unchecked(Gate::cnot(0, 1));
        c
    }

    #[test]
    fn clean_sandwich_proves_syntactically() {
        let a = analyze_symbolic(&sandwich(), &[0], &[3], 20);
        assert!(matches!(a.outcome, SymbolicOutcome::Clean), "{a:?}");
        assert!(a.liveness_exact);
    }

    #[test]
    fn dropped_uncompute_yields_a_witness() {
        let full = sandwich();
        let mut mutated = Circuit::new(full.width());
        for (i, g) in full.gates().iter().enumerate() {
            if i != 4 {
                mutated.push_unchecked(g.clone());
            }
        }
        let a = analyze_symbolic(&mutated, &[0], &[3], 20);
        let SymbolicOutcome::Dirty(witnesses) = a.outcome else {
            panic!("expected Dirty, got {:?}", a.outcome);
        };
        assert_eq!(witnesses.len(), 1);
        assert_eq!(witnesses[0].qubit, 1);
        // Residual is x0, so the witness sets free bit 0.
        assert!(witnesses[0].assignment.get(0));
    }

    #[test]
    fn negative_controls_normalize() {
        // Hollow-dot control: fires when q0 = 0, so ancilla 1 ends X'd on
        // the all-zeros input — a violation witnessed by sample 0.
        let mut c = Circuit::new(2);
        c.push_unchecked(Gate::Mcx {
            controls: vec![qmkp_qsim::Control {
                qubit: 0,
                positive: false,
            }],
            target: 1,
        });
        let a = analyze_symbolic(&c, &[0], &[], 20);
        let SymbolicOutcome::Dirty(witnesses) = a.outcome else {
            panic!("expected Dirty");
        };
        assert_eq!(witnesses[0].qubit, 1);
        assert!(!witnesses[0].assignment.get(0));
    }

    #[test]
    fn dead_gate_via_constant_zero_control() {
        let mut c = Circuit::new(3);
        // Qubit 1 starts |0⟩ and nothing writes it: constant-false
        // control, the gate is dead, the circuit clean.
        c.push_unchecked(Gate::ccnot(0, 1, 2));
        let a = analyze_symbolic(&c, &[0], &[], 20);
        assert!(matches!(a.outcome, SymbolicOutcome::Clean));
        assert!(!a.live_gates[0]);
        assert!(a.liveness_exact);
    }

    #[test]
    fn complementary_literals_kill_the_conjunction() {
        let mut c = Circuit::new(3);
        c.push_unchecked(Gate::cnot(0, 1)); // q1 = x0
        c.push_unchecked(Gate::Mcx {
            // controls x0 ∧ ¬x0: never satisfiable
            controls: vec![
                qmkp_qsim::Control {
                    qubit: 0,
                    positive: true,
                },
                qmkp_qsim::Control {
                    qubit: 1,
                    positive: false,
                },
            ],
            target: 2,
        });
        c.push_unchecked(Gate::cnot(0, 1));
        let a = analyze_symbolic(&c, &[0], &[], 20);
        assert!(matches!(a.outcome, SymbolicOutcome::Clean), "{a:?}");
        assert!(!a.live_gates[1]);
    }

    fn mcx(controls: impl IntoIterator<Item = usize>, target: usize) -> Gate {
        Gate::Mcx {
            controls: controls
                .into_iter()
                .map(|q| qmkp_qsim::Control {
                    qubit: q,
                    positive: true,
                })
                .collect(),
            target,
        }
    }

    /// q8 ends as `P(x0..x7) ⊕ (A(x0..x6) ∧ x7)` — semantically zero,
    /// but the two product variables differ syntactically, so the proof
    /// *must* case-split over the full 8-bit cone. Screening lanes agree
    /// on both sides (they compute the same function), so the lane
    /// shortcut never fires: this pins the budget behaviour exactly.
    fn semantically_zero_residual() -> Circuit {
        let mut c = Circuit::new(10);
        c.push_unchecked(mcx(0..8, 8)); // P onto q8
        c.push_unchecked(mcx(0..7, 9)); // A onto scratch q9
        c.push_unchecked(mcx([9, 7], 8)); // A ∧ x7 onto q8
        c.push_unchecked(mcx(0..7, 9)); // uncompute A
        c
    }

    #[test]
    fn case_split_proves_semantic_cancellation() {
        let c = semantically_zero_residual();
        let a = analyze_symbolic(&c, &(0..8).collect::<Vec<_>>(), &[], 12);
        assert!(matches!(a.outcome, SymbolicOutcome::Clean), "{a:?}");
        assert!(a.cases_evaluated >= 256, "the 8-bit cone was enumerated");
        assert_eq!(a.products, 3);
    }

    #[test]
    fn budget_exceeded_is_reported_with_the_cone() {
        let c = semantically_zero_residual();
        let a = analyze_symbolic(&c, &(0..8).collect::<Vec<_>>(), &[], 4);
        let SymbolicOutcome::BudgetExceeded {
            qubit,
            cone_bits,
            budget,
        } = a.outcome
        else {
            panic!("expected BudgetExceeded, got {:?}", a.outcome);
        };
        assert_eq!(qubit, 8);
        assert_eq!(cone_bits, 8);
        assert_eq!(budget, 4);
    }

    #[test]
    fn case_split_decides_what_lanes_miss() {
        // A 10-literal mixed-polarity conjunction: screening samples are
        // astronomically unlikely to hit it... except the one-hot block
        // and all-ones/zeros are fixed, so pick a pattern none of them
        // match: bits 0..5 set, bits 5..10 clear. Budget 12 covers the
        // 10-bit cone, so the verdict must still be exact.
        let mut c = Circuit::new(11);
        c.push_unchecked(Gate::Mcx {
            controls: (0..10)
                .map(|q| qmkp_qsim::Control {
                    qubit: q,
                    positive: q < 5,
                })
                .collect(),
            target: 10,
        });
        let a = analyze_symbolic(&c, &(0..10).collect::<Vec<_>>(), &[], 12);
        let SymbolicOutcome::Dirty(witnesses) = &a.outcome else {
            panic!("expected exact Dirty, got {:?}", a.outcome);
        };
        let w = &witnesses[0];
        for bit in 0..10 {
            assert_eq!(w.assignment.get(bit), bit < 5, "witness bit {bit}");
        }
    }

    #[test]
    fn beyond_128_qubits_is_routine() {
        let mut c = Circuit::new(300);
        c.push_unchecked(Gate::cnot(0, 200));
        c.push_unchecked(Gate::ccnot(0, 200, 299));
        c.push_unchecked(Gate::ccnot(0, 200, 299));
        c.push_unchecked(Gate::cnot(0, 200));
        let a = analyze_symbolic(&c, &[0], &[], 20);
        assert!(matches!(a.outcome, SymbolicOutcome::Clean), "{a:?}");
    }
}
