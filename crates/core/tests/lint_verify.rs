//! Static verification of the qTKP oracles with `qmkp-lint`.
//!
//! Three claims, each load-bearing for the Grover driver's correctness:
//!
//! 1. every oracle the generators produce is *provably* ancilla-clean —
//!    zero error diagnostics on the full `U_check · flip · U_check†`
//!    sandwich, proven exhaustively over all vertex-register inputs;
//! 2. the analyzer is not vacuously agreeing: seeded mutations (dropping
//!    a live uncompute gate, flipping a control polarity) are detected
//!    100% of the time;
//! 3. the concrete circuits match the paper's closed-form resource
//!    formulas (Eq. 6/7, §IV) exactly, on several instance sizes.

use proptest::prelude::*;
use qmkp_core::Oracle;
use qmkp_graph::gen::{gnm, paper_fig1_graph};
use qmkp_graph::Graph;
use qmkp_lint::{verify_ancillas, ProofMethod, Severity};
use qmkp_qsim::{Circuit, CompiledCircuit, Gate};

/// The full oracle sandwich the Grover iterate applies.
fn full_circuit(oracle: &Oracle) -> Circuit {
    let mut full = oracle.u_check().clone();
    full.push_unchecked(oracle.flip_gate());
    full.extend(oracle.u_check_inv()).unwrap();
    full
}

#[test]
fn paper_oracles_have_zero_diagnostics() {
    // Fig. 1 at four (k, t) and the two random shapes of the resource
    // audit below. Every one is small enough to enumerate, yet the
    // symbolic pass alone decides it.
    let fig1 = paper_fig1_graph();
    let instances = [
        (fig1.clone(), 1, 2),
        (fig1.clone(), 2, 3),
        (fig1.clone(), 2, 4),
        (fig1, 3, 4),
        (gnm(7, 9, 0).unwrap(), 2, 3),
        (gnm(9, 15, 1).unwrap(), 3, 5),
    ];
    for (g, k, t) in instances {
        let n = g.n();
        let report = Oracle::new(&g, k, t).lint_report();
        assert!(
            !report.has_errors(),
            "n={n} oracle (k={k}, t={t}) failed verification:\n{}",
            report.render()
        );
        assert!(report.exhaustive, "n={n} must be proven exhaustively");
        assert_eq!(report.proof, ProofMethod::Symbolic);
        let (_, warnings, _) = report.counts();
        assert_eq!(warnings, 0, "no warnings expected at n={n}");
    }
}

/// n=18 on the complement of a Hamiltonian cycle and of a perfect
/// matching: 2^18 vertex assignments, past the 16-bit enumeration limit.
/// Only the symbolic pass can decide them; without it the same
/// `lint_report()` call would report them `unproven`.
fn wide_probes() -> [(Graph, usize, usize); 2] {
    let mut cycle = Graph::complete(18).unwrap();
    for i in 0..18 {
        cycle.remove_edge(i, (i + 1) % 18);
    }
    let mut matching = Graph::complete(18).unwrap();
    for i in 0..9 {
        matching.remove_edge(2 * i, 2 * i + 1);
    }
    [(cycle, 2, 9), (matching, 3, 12)]
}

#[test]
fn wide_qtkp_probes_get_exact_symbolic_verdicts() {
    for (g, k, t) in wide_probes() {
        let report = Oracle::new(&g, k, t).lint_report();
        assert!(
            !report.has_errors(),
            "wide oracle (k={k}, t={t}) failed verification:\n{}",
            report.render()
        );
        assert!(
            report.exhaustive,
            "18 free bits must no longer demote the proof"
        );
        assert_eq!(report.proof, ProofMethod::Symbolic);
        let (_, warnings, _) = report.counts();
        assert_eq!(
            warnings,
            0,
            "no warnings expected at n=18:\n{}",
            report.render()
        );
    }
}

#[test]
fn wide_probe_mutations_are_still_detected() {
    // Past the enumeration limit the only exact refutation is symbolic:
    // drop one live uncompute gate from the n=18 cycle probe and the
    // pass must produce an error-severity witness, not an `unproven` shrug.
    let [(g, k, t), _] = wide_probes();
    let oracle = Oracle::new(&g, k, t);
    let spec = oracle.lint_spec();
    let full = full_circuit(&oracle);
    let baseline = verify_ancillas(&full, &spec);
    assert!(baseline.is_clean());
    assert_eq!(baseline.proof, ProofMethod::Symbolic);

    let uncompute_start = oracle.u_check().len() + 1;
    let victim = (uncompute_start..full.len())
        .find(|&i| baseline.live_gates[i])
        .expect("a live uncompute gate");
    let mutant = drop_gate(&full, victim);
    let report = verify_ancillas(&mutant, &spec);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error),
        "dropping live gate #{victim} went undetected at n=18"
    );
    assert!(report.exhaustive, "the refutation is exact");
}

#[test]
fn resource_audit_matches_closed_forms_on_three_sizes() {
    // Distinct (n, m̄) shapes; the audit inside lint_report() is *exact*,
    // so a clean report means every per-section count and the total width
    // equal the Eq. 6/7 closed forms.
    let instances = [
        (paper_fig1_graph(), 2, 4),
        (gnm(7, 9, 0).unwrap(), 2, 3),
        (gnm(9, 15, 1).unwrap(), 3, 5),
    ];
    for (g, k, t) in instances {
        let oracle = Oracle::new(&g, k, t);
        let model = oracle.resource_model();
        let full = full_circuit(&oracle);
        let diags = qmkp_lint::audit(&full, &model);
        assert!(
            diags.is_empty(),
            "closed-form mismatch for n={} k={k} t={t}: {diags:?}",
            g.n()
        );
        // The model's totals also tie out against the builder's counts:
        // the sandwich is 2·U_check + 1 flip gate.
        assert_eq!(full.len(), 2 * model.total_gates() + 1);
        assert_eq!(full.width(), model.width);
    }
}

#[test]
fn compile_stats_agree_with_analyzer_estimate() {
    let oracle = Oracle::new(&paper_fig1_graph(), 2, 4);
    let full = full_circuit(&oracle);
    let stats = CompiledCircuit::compile(&full).unwrap().stats();
    // Commuting diagonals out of the way lets each compute gate meet its
    // uncompute mirror across the flip.
    assert_eq!(
        stats.cancelled_flips, 120,
        "compute/uncompute pairs cancel across commuting diagonals"
    );
    let drift = qmkp_lint::cross_check_compile(&full, &stats);
    assert!(drift.is_empty(), "analyzer/compiler drift: {drift:?}");
}

#[test]
fn compile_of_the_fig1_check_pass_is_pinned() {
    // `H^n` then `U_check` on fig-1 (k = 2, t = 4): six butterflies and
    // one ladder, which keeps 285 of `U_check`'s 315 gates after 30
    // cancel in inverse pairs.
    let oracle = Oracle::new(&paper_fig1_graph(), 2, 4);
    let mut circuit = Circuit::new(oracle.layout.width);
    for q in oracle.layout.vertices.iter() {
        circuit.push_unchecked(Gate::H(q));
    }
    circuit.extend(oracle.u_check()).unwrap();
    let stats = CompiledCircuit::compile(&circuit).unwrap().stats();
    assert_eq!(stats.source_gates, 321, "source gates");
    assert_eq!(stats.ops, 7, "compiled ops");
    assert_eq!(stats.kernel_steps, 291, "kernel steps");
    assert_eq!(stats.cancelled_flips, 30, "cancelled flips");
    assert_eq!(stats.longest_ladder, 285, "longest ladder");
}

/// Drops gate `i` from a circuit, preserving section tags.
fn drop_gate(c: &Circuit, drop: usize) -> Circuit {
    let mut out = Circuit::new(c.width());
    rebuild(
        c,
        &mut out,
        |i, g| if i == drop { None } else { Some(g.clone()) },
    );
    out
}

/// Rebuilds `c` into `out` through a per-gate transform, carrying the
/// section structure over.
fn rebuild(c: &Circuit, out: &mut Circuit, mut f: impl FnMut(usize, &Gate) -> Option<Gate>) {
    let mut sections = c.sections().iter().peekable();
    let mut open = false;
    for (i, g) in c.gates().iter().enumerate() {
        if let Some(s) = sections.peek() {
            if s.range.start == i {
                if open {
                    out.end_section();
                }
                out.begin_section(&s.name);
                open = true;
                sections.next();
            }
        }
        if let Some(g) = f(i, g) {
            out.push_unchecked(g);
        }
    }
    if open {
        out.end_section();
    }
}

#[test]
fn every_dropped_live_uncompute_gate_is_detected() {
    let oracle = Oracle::new(&paper_fig1_graph(), 2, 4);
    let spec = oracle.lint_spec();
    let full = full_circuit(&oracle);
    let baseline = verify_ancillas(&full, &spec);
    assert!(baseline.is_clean());

    // Mutate only gates that actually fire on some input: dropping a gate
    // whose controls are never satisfied is unobservable (and harmless).
    let uncompute_start = oracle.u_check().len() + 1;
    let live: Vec<usize> = (uncompute_start..full.len())
        .filter(|&i| baseline.live_gates[i])
        .collect();
    assert!(live.len() > 100, "expected a substantial uncompute half");

    let mut detected = 0usize;
    for &i in &live {
        let mutant = drop_gate(&full, i);
        let report = verify_ancillas(&mutant, &spec);
        if report
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
        {
            detected += 1;
        }
    }
    assert_eq!(
        detected,
        live.len(),
        "only {detected}/{} dropped-gate mutants detected",
        live.len()
    );
}

#[test]
fn every_swapped_control_polarity_is_detected() {
    let oracle = Oracle::new(&paper_fig1_graph(), 2, 4);
    let spec = oracle.lint_spec();
    let full = full_circuit(&oracle);
    let baseline = verify_ancillas(&full, &spec);

    // Flip the polarity of the first control of every live Mcx in the
    // uncompute half: the inverse no longer matches the compute half.
    let uncompute_start = oracle.u_check().len() + 1;
    let targets: Vec<usize> = (uncompute_start..full.len())
        .filter(|&i| {
            baseline.live_gates[i]
                && matches!(&full.gates()[i], Gate::Mcx { controls, .. } if !controls.is_empty())
        })
        .collect();
    assert!(targets.len() > 50);

    let mut detected = 0usize;
    for &i in &targets {
        let mut mutant = Circuit::new(full.width());
        rebuild(&full, &mut mutant, |j, g| {
            if j != i {
                return Some(g.clone());
            }
            let Gate::Mcx { controls, target } = g else {
                unreachable!("targets only hold Mcx gates");
            };
            let mut controls = controls.clone();
            controls[0].positive = !controls[0].positive;
            Some(Gate::Mcx {
                controls,
                target: *target,
            })
        });
        let report = verify_ancillas(&mutant, &spec);
        if report
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
        {
            detected += 1;
        }
    }
    assert_eq!(
        detected,
        targets.len(),
        "only {detected}/{} control-swap mutants detected",
        targets.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn generated_oracles_verify_clean(
        seed in any::<u64>(),
        n in 4usize..=7,
        k in 1usize..=3,
    ) {
        let max_m = n * (n - 1) / 2;
        let m = (seed as usize) % (max_m + 1);
        let g = gnm(n, m, seed).unwrap();
        let t = 1 + (seed as usize % n);
        let report = Oracle::new(&g, k, t).lint_report();
        prop_assert!(
            !report.has_errors(),
            "oracle n={n} m={m} k={k} t={t} failed:\n{}",
            report.render()
        );
        prop_assert!(report.exhaustive);
    }
}
