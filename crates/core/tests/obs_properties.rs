//! Property: the observability layer and the driver's own `SectionTimes`
//! accounting cannot drift. Every `times.add(name, d)` in the Grover
//! driver is paired with a `core.grover.section.<name>` span carrying the
//! *same* `Duration`, so with a collector attached the span sum must equal
//! `SectionTimes::total()` exactly — not approximately — and the metrics
//! histogram each span folds into must sum to its bucket exactly too.

use proptest::prelude::*;
use qmkp_core::{GroverDriver, Oracle, SectionTimes};
use qmkp_obs::{Collector, Metrics};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn section_spans_sum_to_section_times_total(
        n in 4usize..=6,
        extra_edges in 0usize..=4,
        k in 1usize..=2,
        iterations in 1usize..=3,
    ) {
        let m = (n - 1 + extra_edges).min(n * (n - 1) / 2);
        let g = qmkp_graph::gen::gnm(n, m, 7 * n as u64 + extra_edges as u64)
            .expect("valid G(n,m) parameters");
        let t = (k + 1).min(n);

        let collector = Arc::new(Collector::for_current_thread());
        let metrics = Arc::new(Metrics::new());
        let guard = qmkp_obs::attach(collector.clone());
        let metrics_guard = qmkp_obs::attach(metrics.clone());
        let mut driver = GroverDriver::new(Oracle::new(&g, k, t));
        driver.iterate_n(iterations);
        let times: SectionTimes = driver.times().clone();
        drop(metrics_guard);
        drop(guard);

        let span_sum = collector.span_total("core.grover.section.");
        prop_assert_eq!(
            span_sum,
            times.total(),
            "span sum {:?} != SectionTimes total {:?} (buckets {:?})",
            span_sum,
            times.total(),
            times.buckets()
        );

        // Sanity on structure: one iteration span per Grover iteration,
        // and every recorded bucket appears as a span at least once.
        let iteration_spans = collector
            .finished_spans()
            .iter()
            .filter(|(name, _)| name == "core.grover.iteration")
            .count();
        prop_assert_eq!(iteration_spans, iterations);
        let snapshot = metrics.snapshot();
        for (bucket, &d) in times.buckets() {
            let name = format!("core.grover.section.{bucket}");
            prop_assert_eq!(collector.span_total(&name), d);
            let histogram = snapshot.find(&name, &[]);
            prop_assert_eq!(
                histogram.map(|h| u128::from(h.sum)),
                Some(d.as_nanos()),
                "{} histogram vs SectionTimes bucket",
                name
            );
        }
    }
}
