//! The per-layer metrics of the traced run: names, units, and the tally
//! the workloads fill.
//!
//! Times and counts are per request of the traced pass; shares and
//! ratios are over the events named in their definition. A layer that a
//! workload never enters reads 0.

use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in report order. The list in
/// `BENCHMARK.json` is checked against this one by a test.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    // qmkp-qsim: state kernels (Table IV sections from `SectionTimes`).
    ("qsim.kernel_s", "s"),
    ("qsim.kernel.graph_encoding_s", "s"),
    ("qsim.kernel.degree_count_s", "s"),
    ("qsim.kernel.degree_compare_s", "s"),
    ("qsim.kernel.size_check_s", "s"),
    ("qsim.kernel.flip_s", "s"),
    ("qsim.kernel.diffusion_s", "s"),
    ("qsim.kernel.other_s", "s"),
    ("qsim.kernel.passes", "count"),
    ("qsim.kernel.bytes_computed", "bytes"),
    ("qsim.kernel.wide_key_share", "ratio"),
    // qmkp-core oracle, qmkp-arith, qmkp-qsim compile.
    ("core.provider_s", "s"),
    ("core.oracle_build_s", "s"),
    ("qsim.compile_s", "s"),
    ("qsim.compile.gates", "count"),
    ("qsim.compile.ops", "count"),
    // qmkp-core counting, grover, qtkp, qmkp.
    ("core.census_s", "s"),
    ("core.grover.init_s", "s"),
    ("core.grover.readout_s", "s"),
    ("core.grover.iterations", "count"),
    ("core.qmkp.probes", "count"),
    ("core.qmkp.empty_probe_share", "ratio"),
    // qmkp solve/portfolio, qmkp-rt race.
    ("solve.backend_share.dense", "ratio"),
    ("solve.backend_share.sparse", "ratio"),
    ("solve.backend_share.sqa", "ratio"),
    ("solve.backend_share.classical-exact", "ratio"),
    ("solve.backend_share.classical-heuristic", "ratio"),
    ("rt.race.win_share.dense", "ratio"),
    ("rt.race.win_share.sparse", "ratio"),
    ("rt.race.win_share.sqa", "ratio"),
    ("rt.race.win_share.classical", "ratio"),
    ("rt.race.cancelled", "count"),
    ("rt.race.win_margin_s", "s"),
    ("rt.race.overhead_s", "s"),
    // qmkp-serve service and cache.
    ("serve.queue_wait_s", "s"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.compiles", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.rejected", "count"),
    // qmkp-classical.
    ("classical.bnb_s", "s"),
    ("classical.bnb.nodes", "count"),
    ("classical.grasp_s", "s"),
    // qmkp-qubo.
    ("qubo.build_s", "s"),
    ("qubo.vars", "count"),
    ("qubo.decode_s", "s"),
    // qmkp-annealer SQA.
    ("annealer.sqa_s", "s"),
    ("annealer.spin_updates", "count"),
    ("annealer.updates_per_s", "1/s"),
    // The trace itself.
    ("obs.trace_overhead", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.coverage", "ratio"),
];

/// Running sums keyed by metric (or intermediate) name.
#[derive(Debug, Default)]
pub struct Tally(BTreeMap<String, f64>);

impl Tally {
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_default() += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `get(num) / get(den)`, or 0 when nothing was counted.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.get(den);
        if d == 0.0 {
            0.0
        } else {
            self.get(num) / d
        }
    }
}

/// Final per-layer values, every name of [`LAYER_METRICS`] present.
#[derive(Debug)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(LAYER_METRICS.iter().map(|&(n, _)| (n, 0.0)).collect())
    }
}

impl Layers {
    /// Sets a metric.
    ///
    /// # Panics
    /// Panics on a name missing from [`LAYER_METRICS`].
    pub fn set(&mut self, name: &str, v: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _)| **n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        *slot.1 = v;
    }

    /// Sets `solve.backend_share.*`: the share of requests each rung
    /// answered.
    pub fn backend_shares(&mut self, samples: &[crate::Sample]) {
        let mut tally = Tally::default();
        for b in samples.iter().filter_map(|s| s.backend) {
            tally.add(b.name(), 1.0);
        }
        for b in [
            "dense",
            "sparse",
            "sqa",
            "classical-exact",
            "classical-heuristic",
        ] {
            let share = tally.get(b) / samples.len().max(1) as f64;
            self.set(&format!("solve.backend_share.{b}"), share);
        }
    }

    /// Sets every metric in `names` to its tally sum per request.
    pub fn per_request(&mut self, tally: &Tally, requests: usize, names: &[&str]) {
        for name in names {
            self.set(name, tally.get(name) / requests.max(1) as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_per_layer_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let per_layer = json
            .split("\"per_layer\"")
            .nth(1)
            .expect("BENCHMARK.json has a per_layer list");
        let listed = per_layer.matches("\"name\"").count();
        assert_eq!(listed, LAYER_METRICS.len());
        for (name, unit) in LAYER_METRICS {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(per_layer.contains(&entry), "missing {entry}");
        }
    }
}
