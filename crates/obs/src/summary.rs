//! Aggregation of a raw event stream into a human-readable run summary:
//! a span tree keyed by name-path plus counter / gauge / duration-histogram
//! rollups.

use crate::event::Event;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Duration;

/// Aggregate statistics for one gauge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeStats {
    /// Most recently set value.
    pub last: f64,
    /// Minimum observed value.
    pub min: f64,
    /// Maximum observed value.
    pub max: f64,
    /// Number of times the gauge was set.
    pub count: u64,
}

/// Aggregate statistics for one duration histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurationStats {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub total: Duration,
    /// Largest single observation.
    pub max: Duration,
}

/// Aggregate statistics for one span name-path in the span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// How many spans completed at this path.
    pub count: u64,
    /// Sum of their durations.
    pub total: Duration,
}

/// An aggregated view of an event stream.
///
/// Spans are grouped by *name-path* — the chain of span names from the
/// root — so 200 `core.grover.iteration` spans collapse into one line with
/// `count = 200`, keeping summaries readable regardless of run length.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Span aggregates keyed by name-path (root first).
    pub spans: BTreeMap<Vec<String>, SpanStats>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge statistics by name.
    pub gauges: BTreeMap<String, GaugeStats>,
    /// Duration-histogram statistics by name.
    pub durations: BTreeMap<String, DurationStats>,
    /// Number of message events seen.
    pub messages: u64,
}

impl Summary {
    /// Aggregates an event stream.
    ///
    /// Unmatched `SpanEnd`s (whose start was filtered out or predates the
    /// stream) are grouped as root spans under their own name.
    pub fn from_events(events: &[Event]) -> Self {
        let mut out = Summary::default();
        // Live span id -> its name-path.
        let mut paths: HashMap<u64, Vec<String>> = HashMap::new();
        for ev in events {
            match ev {
                Event::SpanStart {
                    id, parent, name, ..
                } => {
                    let mut path = paths.get(parent).cloned().unwrap_or_default();
                    path.push(name.clone());
                    paths.insert(*id, path);
                }
                Event::SpanEnd {
                    id, name, duration, ..
                } => {
                    let path = paths.remove(id).unwrap_or_else(|| vec![name.clone()]);
                    let s = out.spans.entry(path).or_default();
                    s.count += 1;
                    s.total += *duration;
                }
                Event::Counter { name, delta, .. } => {
                    *out.counters.entry(name.clone()).or_default() += delta;
                }
                Event::Gauge { name, value, .. } => {
                    out.gauges
                        .entry(name.clone())
                        .and_modify(|g| {
                            g.last = *value;
                            g.min = g.min.min(*value);
                            g.max = g.max.max(*value);
                            g.count += 1;
                        })
                        .or_insert(GaugeStats {
                            last: *value,
                            min: *value,
                            max: *value,
                            count: 1,
                        });
                }
                Event::Observe { name, duration, .. } => {
                    let d = out.durations.entry(name.clone()).or_default();
                    d.count += 1;
                    d.total += *duration;
                    d.max = d.max.max(*duration);
                }
                Event::Message { .. } => out.messages += 1,
            }
        }
        out
    }

    /// Renders the summary as an indented text block (one span-tree line
    /// per name-path, then metric rollups). Returns an empty string when
    /// there is nothing to report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for (path, s) in &self.spans {
                let depth = path.len().saturating_sub(1);
                let name = path.last().map(String::as_str).unwrap_or("?");
                let _ = writeln!(
                    out,
                    "  {:indent$}{name:<w$} count {:>6}  total {}",
                    "",
                    s.count,
                    fmt_duration(s.total),
                    indent = depth * 2,
                    w = 36usize.saturating_sub(depth * 2),
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, total) in &self.counters {
                let _ = writeln!(out, "  {name:<38} {total}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, g) in &self.gauges {
                let _ = writeln!(
                    out,
                    "  {name:<38} last {}  min {}  max {}  (n={})",
                    fmt_value(g.last),
                    fmt_value(g.min),
                    fmt_value(g.max),
                    g.count
                );
            }
        }
        if !self.durations.is_empty() {
            out.push_str("durations:\n");
            for (name, d) in &self.durations {
                let mean = if d.count > 0 {
                    d.total / u32::try_from(d.count).unwrap_or(u32::MAX)
                } else {
                    Duration::ZERO
                };
                let _ = writeln!(
                    out,
                    "  {name:<38} n {:>8}  total {}  mean {}  max {}",
                    d.count,
                    fmt_duration(d.total),
                    fmt_duration(mean),
                    fmt_duration(d.max)
                );
            }
        }
        out
    }
}

/// Formats a duration with an auto-picked unit (ns / µs / ms / s).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spanned(id: u64, parent: u64, name: &str, ns: u64) -> [Event; 2] {
        [
            Event::SpanStart {
                id,
                parent,
                thread: 1,
                name: name.into(),
            },
            Event::SpanEnd {
                id,
                thread: 1,
                name: name.into(),
                duration: Duration::from_nanos(ns),
            },
        ]
    }

    #[test]
    fn groups_spans_by_name_path() {
        let mut events = Vec::new();
        events.push(Event::SpanStart {
            id: 1,
            parent: 0,
            thread: 1,
            name: "run".into(),
        });
        events.extend(spanned(2, 1, "iter", 10));
        events.extend(spanned(3, 1, "iter", 20));
        events.push(Event::SpanEnd {
            id: 1,
            thread: 1,
            name: "run".into(),
            duration: Duration::from_nanos(100),
        });
        let s = Summary::from_events(&events);
        let iter = &s.spans[&vec!["run".to_string(), "iter".to_string()]];
        assert_eq!(iter.count, 2);
        assert_eq!(iter.total, Duration::from_nanos(30));
        assert_eq!(s.spans[&vec!["run".to_string()]].count, 1);
    }

    #[test]
    fn unmatched_span_end_becomes_root() {
        let events = [Event::SpanEnd {
            id: 99,
            thread: 1,
            name: "orphan".into(),
            duration: Duration::from_nanos(5),
        }];
        let s = Summary::from_events(&events);
        assert_eq!(s.spans[&vec!["orphan".to_string()]].count, 1);
    }

    #[test]
    fn metric_rollups() {
        let events = [
            Event::Counter {
                thread: 1,
                name: "c".into(),
                labels: vec![],
                delta: 2,
            },
            Event::Counter {
                thread: 1,
                name: "c".into(),
                labels: vec![],
                delta: 3,
            },
            Event::Gauge {
                thread: 1,
                name: "g".into(),
                labels: vec![],
                value: 4.0,
            },
            Event::Gauge {
                thread: 1,
                name: "g".into(),
                labels: vec![],
                value: 1.0,
            },
            Event::Observe {
                thread: 1,
                name: "d".into(),
                labels: vec![],
                duration: Duration::from_nanos(7),
            },
            Event::Message {
                thread: 1,
                text: "m".into(),
            },
        ];
        let s = Summary::from_events(&events);
        assert_eq!(s.counters["c"], 5);
        let g = s.gauges["g"];
        assert_eq!((g.last, g.min, g.max, g.count), (1.0, 1.0, 4.0, 2));
        assert_eq!(s.durations["d"].count, 1);
        assert_eq!(s.messages, 1);
        let text = s.render();
        assert!(text.contains("counters:"), "{text}");
        assert!(text.contains("g"), "{text}");
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500ns");
        assert!(fmt_duration(Duration::from_micros(50)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(50)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(50)).ends_with('s'));
    }
}
