//! Independent reference answers and answer checking.
//!
//! Each input's optimum comes from `max_kplex_bs`, the paper's BS
//! baseline, which no answering path of the measured program calls. It
//! is cross-checked against exhaustive enumeration wherever `n ≤ 20`; a
//! disagreement aborts the run, since no answer can be judged against a
//! reference that is itself in doubt.

use qmkp::classical::bs::max_kplex_bs;
use qmkp::classical::naive::max_kplex_naive;
use qmkp::graph::{is_kplex, Graph, VertexSet};
use std::collections::HashMap;
use std::fmt;

/// Largest vertex count the exhaustive cross-check enumerates.
pub const NAIVE_MAX_N: usize = 20;

/// The two reference solvers disagreed, or one returned a non-plex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceMismatch {
    pub n: usize,
    pub k: usize,
    pub digest: u64,
    pub detail: String,
}

impl fmt::Display for ReferenceMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reference mismatch on graph {:016x} (n = {}, k = {}): {}",
            self.digest, self.n, self.k, self.detail
        )
    }
}

type Solver = fn(&Graph, usize) -> VertexSet;

/// Memoised optimum sizes keyed by `(Graph::digest(), k)`.
pub struct Reference {
    exact: Solver,
    cross: Solver,
    memo: HashMap<(u64, usize), usize>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::with_solvers(|g, k| max_kplex_bs(g, k).0, max_kplex_naive)
    }
}

impl Reference {
    /// A reference built on explicit solvers (tests inject faulty ones).
    pub fn with_solvers(exact: Solver, cross: Solver) -> Self {
        Reference {
            exact,
            cross,
            memo: HashMap::new(),
        }
    }

    /// The maximum k-plex size of `g`.
    ///
    /// # Errors
    /// [`ReferenceMismatch`] when the reference answer is not a k-plex or
    /// the exhaustive cross-check finds a different size.
    pub fn optimum(&mut self, g: &Graph, k: usize) -> Result<usize, ReferenceMismatch> {
        let key = (g.digest(), k);
        if let Some(&size) = self.memo.get(&key) {
            return Ok(size);
        }
        let mismatch = |detail: String| ReferenceMismatch {
            n: g.n(),
            k,
            digest: key.0,
            detail,
        };
        let best = (self.exact)(g, k);
        if !is_kplex(g, best, k) {
            return Err(mismatch("BS returned a set that is not a k-plex".into()));
        }
        if g.n() <= NAIVE_MAX_N {
            let naive = (self.cross)(g, k).len();
            if naive != best.len() {
                return Err(mismatch(format!(
                    "BS found size {} but enumeration found {naive}",
                    best.len()
                )));
            }
        }
        self.memo.insert(key, best.len());
        Ok(best.len())
    }
}

/// How one request ended, as judged after the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// An error, a refused admission, or an answer that is not a k-plex.
    Failed,
    /// A valid k-plex of the given size, with the optimum it is judged by.
    Answered { size: usize, optimum: usize },
}

/// Judges one answer against the reference optimum.
///
/// # Errors
/// As [`Reference::optimum`].
pub fn judge(
    reference: &mut Reference,
    g: &Graph,
    k: usize,
    answer: Option<VertexSet>,
) -> Result<Verdict, ReferenceMismatch> {
    let Some(set) = answer.filter(|&s| is_kplex(g, s, k)) else {
        return Ok(Verdict::Failed);
    };
    Ok(Verdict::Answered {
        size: set.len(),
        optimum: reference.optimum(g, k)?,
    })
}

/// Quality tallies over a set of verdicts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    pub attempted: usize,
    pub failed: usize,
    pub optimal: usize,
    pub ratio_sum: f64,
}

impl Quality {
    pub fn add(&mut self, verdict: Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Failed => self.failed += 1,
            Verdict::Answered { size, optimum } => {
                self.optimal += usize::from(size == optimum);
                self.ratio_sum += size as f64 / optimum as f64;
            }
        }
    }

    /// Answers equal in size to the optimum ÷ answers completed.
    pub fn optimal_frac(&self) -> f64 {
        self.optimal as f64 / self.answered().max(1) as f64
    }

    /// Mean of answer size ÷ optimum over completed answers.
    pub fn plex_size_ratio(&self) -> f64 {
        self.ratio_sum / self.answered().max(1) as f64
    }

    /// Failed requests ÷ requests attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn answered(&self) -> usize {
        self.attempted - self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp::graph::gen::{gnm, paper_fig1_graph};

    #[test]
    fn reference_agrees_with_enumeration_on_the_paper_graph() {
        let mut r = Reference::default();
        assert_eq!(r.optimum(&paper_fig1_graph(), 2), Ok(4));
        let g = gnm(12, 40, 7).unwrap();
        let want = max_kplex_naive(&g, 3).len();
        assert_eq!(r.optimum(&g, 3), Ok(want));
    }

    #[test]
    fn a_reference_mismatch_is_an_error() {
        // An "exact" solver that drops a vertex disagrees with the
        // enumeration, and the reference refuses to answer.
        fn short(g: &Graph, k: usize) -> VertexSet {
            let mut s = max_kplex_naive(g, k);
            let v = s.min_vertex().expect("non-empty optimum");
            s.remove(v);
            s
        }
        let mut r = Reference::with_solvers(short, max_kplex_naive);
        let err = r.optimum(&paper_fig1_graph(), 2).unwrap_err();
        assert!(err.detail.contains("BS found size 3"), "{err}");
        // A non-plex from the exact solver is caught before any size check.
        let mut r = Reference::with_solvers(|g, _| g.vertices(), max_kplex_naive);
        assert!(r.optimum(&paper_fig1_graph(), 2).is_err());
    }

    #[test]
    fn failed_and_invalid_answers_count_as_failed() {
        let g = paper_fig1_graph();
        let mut r = Reference::default();
        let mut q = Quality::default();
        // A refused or errored request has no answer.
        q.add(judge(&mut r, &g, 2, None).unwrap());
        // The whole vertex set of fig-1 is not a 2-plex.
        q.add(judge(&mut r, &g, 2, Some(g.vertices())).unwrap());
        // A valid but small answer lowers quality without failing.
        q.add(judge(&mut r, &g, 2, Some(VertexSet::from_iter([0]))).unwrap());
        q.add(judge(&mut r, &g, 2, Some(VertexSet::from_iter([0, 1, 3, 4]))).unwrap());
        assert_eq!((q.attempted, q.failed), (4, 2));
        assert_eq!(q.failed_frac(), 0.5);
        assert_eq!(q.optimal_frac(), 0.5);
        assert_eq!(q.plex_size_ratio(), (0.25 + 1.0) / 2.0);
    }
}
