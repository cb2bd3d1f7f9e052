//! `RunReport`: a single JSON document describing one solver invocation —
//! what was configured, what was measured, and what came out.

use crate::json;
use crate::metrics::MetricsSnapshot;
use crate::summary::Summary;
use std::fmt::Write as _;

/// A machine-readable record of one run (e.g. one qMKP or qaMKP
/// invocation): the configuration it was given, the aggregated telemetry
/// it produced, and its outcome.
///
/// Config and outcome are ordered string key/value lists so callers can
/// report anything without a schema; values that are numbers are emitted
/// as JSON numbers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// What ran, e.g. `"qmkp"` or `"table2_qmkp_vs_bs"`.
    pub name: String,
    /// Input parameters, in insertion order.
    pub config: Vec<(String, String)>,
    /// Result facts, in insertion order.
    pub outcome: Vec<(String, String)>,
    /// Aggregated telemetry for the run.
    pub summary: Summary,
    /// Labeled metric series captured at the end of the run (quantile
    /// histograms, counters, gauges), when the run recorded any.
    pub metrics: Option<MetricsSnapshot>,
}

impl RunReport {
    /// A report with the given run name and no data yet.
    pub fn new(name: impl Into<String>) -> Self {
        RunReport {
            name: name.into(),
            ..RunReport::default()
        }
    }

    /// Adds one configuration entry (builder-style).
    #[must_use]
    pub fn config(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.config.push((key.into(), value.to_string()));
        self
    }

    /// Adds one outcome entry (builder-style).
    #[must_use]
    pub fn outcome(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.outcome.push((key.into(), value.to_string()));
        self
    }

    /// Attaches the aggregated telemetry (builder-style).
    #[must_use]
    pub fn summary(mut self, summary: Summary) -> Self {
        self.summary = summary;
        self
    }

    /// Attaches a metrics snapshot (builder-style). Empty snapshots are
    /// dropped so reports without metric activity stay unchanged.
    #[must_use]
    pub fn metrics(mut self, snapshot: MetricsSnapshot) -> Self {
        self.metrics = (!snapshot.is_empty()).then_some(snapshot);
        self
    }

    /// Serializes the report as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"name\": {},", json::quote(&self.name));
        write_kv_object(&mut out, "config", &self.config);
        out.push_str(",\n");
        write_kv_object(&mut out, "outcome", &self.outcome);
        out.push_str(",\n");
        self.write_summary(&mut out);
        if let Some(metrics) = &self.metrics {
            out.push_str(",\n  \"metrics\": ");
            metrics.write_json(&mut out, 1);
        }
        out.push_str("\n}\n");
        out
    }

    fn write_summary(&self, out: &mut String) {
        let s = &self.summary;
        out.push_str("  \"summary\": {\n    \"spans\": [");
        for (i, (path, stats)) in s.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let path_json: Vec<String> = path.iter().map(|p| json::quote(p)).collect();
            let _ = write!(
                out,
                "\n      {{\"path\": [{}], \"count\": {}, \"total_ns\": {}}}",
                path_json.join(", "),
                stats.count,
                stats.total.as_nanos()
            );
        }
        if !s.spans.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("],\n    \"counters\": {");
        for (i, (name, total)) in s.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n      {}: {total}", json::quote(name));
        }
        if !s.counters.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("},\n    \"gauges\": {");
        for (i, (name, g)) in s.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n      {}: {{\"last\": {}, \"min\": {}, \"max\": {}, \"count\": {}}}",
                json::quote(name),
                json::number(g.last),
                json::number(g.min),
                json::number(g.max),
                g.count
            );
        }
        if !s.gauges.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("},\n    \"durations\": {");
        for (i, (name, d)) in s.durations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n      {}: {{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
                json::quote(name),
                d.count,
                d.total.as_nanos(),
                d.max.as_nanos()
            );
        }
        if !s.durations.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("}\n  }");
    }
}

fn write_kv_object(out: &mut String, key: &str, entries: &[(String, String)]) {
    let _ = write!(out, "  {}: {{", json::quote(key));
    for (i, (k, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Numeric-looking values become JSON numbers; everything else is a
        // string. `parse::<f64>` accepts "inf"/"nan" which JSON can't hold,
        // so require a finite value AND a digit-ish first char.
        let numeric = v.parse::<f64>().map(|f| f.is_finite()).unwrap_or(false)
            && v.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '+');
        if numeric {
            let _ = write!(out, "\n    {}: {v}", json::quote(k));
        } else {
            let _ = write!(out, "\n    {}: {}", json::quote(k), json::quote(v));
        }
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use std::time::Duration;

    #[test]
    fn report_serializes_to_valid_json() {
        let events = [
            Event::SpanStart {
                id: 1,
                parent: 0,
                thread: 1,
                name: "run".into(),
            },
            Event::SpanEnd {
                id: 1,
                thread: 1,
                name: "run".into(),
                duration: Duration::from_nanos(42),
            },
            Event::Counter {
                thread: 1,
                name: "nodes".into(),
                labels: vec![],
                delta: 9,
            },
            Event::Gauge {
                thread: 1,
                name: "mem".into(),
                labels: vec![],
                value: 1024.0,
            },
            Event::Observe {
                thread: 1,
                name: "kern".into(),
                labels: vec![],
                duration: Duration::from_nanos(7),
            },
        ];
        let report = RunReport::new("qmkp")
            .config("n", 12)
            .config("k", 2)
            .config("backend", "dense")
            .outcome("best_size", 5)
            .outcome("note", "ok \"quoted\"")
            .summary(Summary::from_events(&events));
        let text = report.to_json();
        let v = crate::json::parse(&text).expect("report must be valid JSON");
        assert_eq!(v.get("name").unwrap().as_str(), Some("qmkp"));
        assert_eq!(
            v.get("config").unwrap().get("n").unwrap().as_f64(),
            Some(12.0)
        );
        assert_eq!(
            v.get("config").unwrap().get("backend").unwrap().as_str(),
            Some("dense")
        );
        assert_eq!(
            v.get("outcome").unwrap().get("best_size").unwrap().as_f64(),
            Some(5.0)
        );
        let summary = v.get("summary").unwrap();
        assert_eq!(summary.get("spans").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(
            summary
                .get("counters")
                .unwrap()
                .get("nodes")
                .unwrap()
                .as_f64(),
            Some(9.0)
        );
        assert_eq!(
            summary
                .get("gauges")
                .unwrap()
                .get("mem")
                .unwrap()
                .get("last")
                .unwrap()
                .as_f64(),
            Some(1024.0)
        );
    }

    #[test]
    fn empty_report_is_valid_json() {
        let text = RunReport::new("empty").to_json();
        crate::json::parse(&text).expect("empty report must parse");
    }
}
