//! `anneal_qamkp`: the qaMKP pipeline on the paper's annealing datasets
//! D_{10,40}, D_{15,70}, D_{20,100} and D_{30,300}. Each request builds
//! the MKP QUBO (k = 3, R = 2), anneals it with SQA on the paper's
//! Δt = 1 µs schedule at 100 shots, decodes the best sample with
//! `decode_polished`, and verifies it. One client, closed loop; each
//! anneal's seed comes from the workload seed and the request number.

use crate::layers::{Layers, Tally};
use crate::trace::{Kind, Trace};
use crate::{Sample, Stop, Workload};
use qmkp::annealer::{sqa_qubo, AnnealOutcome, SqaConfig};
use qmkp::graph::gen::{paper_anneal_dataset, random_permutation, ANNEAL_DATASETS};
use qmkp::graph::{is_kplex, Graph, VertexSet};
use qmkp::qubo::{MkpQubo, MkpQuboParams};
use std::hint::black_box;
use std::time::Instant;

const PARAMS: MkpQuboParams = MkpQuboParams { k: 3, r: 2.0 };
const SHOTS: usize = 100;

/// The vertex bits of an assignment (decoding reads only those, and the
/// slack bits may not fit a `u128`).
pub fn head_bits(assignment: &[bool]) -> u128 {
    assignment
        .iter()
        .take(128)
        .enumerate()
        .filter(|&(_, &b)| b)
        .fold(0u128, |acc, (i, _)| acc | (1 << i))
}

pub struct Anneal {
    datasets: Vec<(String, Graph)>,
    /// Seeded order of the round robin over `datasets`.
    order: Vec<usize>,
    seed: u64,
}

/// One pipeline run, with the boundaries between its layers.
struct Pipeline {
    answer: Option<VertexSet>,
    vars: usize,
    sqa: AnnealOutcome,
    /// Start, QUBO built, annealed, decoded and verified.
    marks: [Instant; 4],
}

impl Anneal {
    /// The seeded inputs, not yet warmed up.
    pub fn new(seed: u64) -> Self {
        let datasets: Vec<(String, Graph)> = ANNEAL_DATASETS
            .iter()
            .map(|&(n, m)| (format!("D{n}_{m}_k3"), paper_anneal_dataset(n, m)))
            .collect();
        let order = random_permutation(datasets.len(), seed);
        Anneal {
            datasets,
            order,
            seed,
        }
    }

    fn config(&self, request: usize) -> SqaConfig {
        SqaConfig {
            seed: self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ request as u64,
            ..SqaConfig::from_anneal_time(1.0, SHOTS)
        }
    }

    fn pipeline(g: &Graph, config: &SqaConfig) -> Pipeline {
        let t0 = Instant::now();
        let q = MkpQubo::new(g, PARAMS);
        let t1 = Instant::now();
        let sqa = sqa_qubo(&q.model, config);
        let t2 = Instant::now();
        let plex = q.decode_polished(head_bits(&sqa.best));
        let answer = is_kplex(g, plex, PARAMS.k).then_some(plex);
        let t3 = Instant::now();
        Pipeline {
            answer,
            vars: q.num_vars(),
            sqa,
            marks: [t0, t1, t2, t3],
        }
    }

    fn sample(request: usize, p: &Pipeline) -> Sample {
        let [t0, t1, _, t3] = p.marks;
        // The first shot's sample decodes to a feasible k-plex already.
        let first = p.sqa.trace.first().map_or(t3 - t0, |&(d, _)| (t1 - t0) + d);
        Sample {
            request,
            latency: t3 - t0,
            first_result: first.min(t3 - t0),
            answer: p.answer,
            backend: None,
        }
    }
}

impl Workload for Anneal {
    const TAIL: f64 = 90.0;
    const ROUND: usize = 4;
    const EXACT: bool = false;
    const MIN_REQUESTS: usize = 480;
    const THREADED: bool = false;

    fn setup(seed: u64, _seconds: u64) -> Self {
        let anneal = Anneal::new(seed);
        // Warm-up: one anneal of every dataset, on seeds outside the
        // stream's.
        for r in 0..Self::ROUND {
            let config = SqaConfig {
                seed: !anneal.config(r).seed,
                ..anneal.config(r)
            };
            black_box(Self::pipeline(anneal.input(r).0, &config).answer);
        }
        anneal
    }

    fn input(&self, request: usize) -> (&Graph, usize) {
        (
            &self.datasets[self.order[request % self.order.len()]].1,
            PARAMS.k,
        )
    }

    fn label(&self, request: usize) -> String {
        self.datasets[self.order[request % self.order.len()]]
            .0
            .clone()
    }

    fn run(&self, first: usize, stop: &Stop) -> Vec<Sample> {
        let mut samples = Vec::new();
        let mut r = first;
        while stop.more(r) {
            let p = Self::pipeline(self.input(r).0, &self.config(r));
            samples.push(Self::sample(r, &p));
            r += 1;
        }
        samples
    }

    fn run_traced(&self, requests: usize, trace: &mut Trace) -> (Vec<Sample>, Layers) {
        let mut tally = Tally::default();
        let mut samples = Vec::new();
        for r in 0..requests {
            let config = self.config(r);
            let p = Self::pipeline(self.input(r).0, &config);
            let [t0, t1, t2, t3] = p.marks;
            let id = r as u64;
            let root = trace.record("request", Kind::Timed, (t0, t3), None, id);
            trace.label(id, &self.label(r));
            trace.record("qubo.build", Kind::Timed, (t0, t1), Some(root), id);
            trace.record("annealer.sqa", Kind::Timed, (t1, t2), Some(root), id);
            trace.record("qubo.decode", Kind::Timed, (t2, t3), Some(root), id);
            tally.add("qubo.build_s", (t1 - t0).as_secs_f64());
            tally.add("annealer.sqa_s", (t2 - t1).as_secs_f64());
            tally.add("qubo.decode_s", (t3 - t2).as_secs_f64());
            tally.add("qubo.vars", p.vars as f64);
            let updates = config.shots * config.sweeps * config.trotter_slices * p.vars;
            tally.add("annealer.spin_updates", updates as f64);
            samples.push(Self::sample(r, &p));
        }
        let mut layers = Layers::default();
        layers.per_request(
            &tally,
            requests,
            &[
                "qubo.build_s",
                "qubo.vars",
                "qubo.decode_s",
                "annealer.sqa_s",
                "annealer.spin_updates",
            ],
        );
        layers.set(
            "annealer.updates_per_s",
            tally.ratio("annealer.spin_updates", "annealer.sqa_s"),
        );
        (samples, layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_bits_reads_the_first_128_variables() {
        let mut v = vec![false; 200];
        v[0] = true;
        v[127] = true;
        v[150] = true;
        assert_eq!(head_bits(&v), 1 | (1 << 127));
    }
}
