//! The event model: everything the facade emits is one of these variants.
//!
//! Events are cheap plain data. Sinks receive them by reference as they
//! happen; the JSONL encoding here ([`Event::to_jsonl`]) is the
//! machine-readable wire format, and [`Event::from_jsonl`] is the one
//! reader every trace consumer decodes it with.

use crate::json::{self, Json};
use std::time::Duration;

/// The `(key, value)` labels of a metric event, sorted by key (the
/// facade sorts them, and [`Event::from_jsonl`] decodes them in key
/// order); empty when the metric is unlabelled.
pub type Labels = Vec<(String, String)>;

/// One telemetry event.
///
/// Span ids are process-unique and strictly increasing; `parent == 0`
/// means the span has no parent (a root). `thread` is a small
/// process-unique integer identifying the emitting thread (not the OS
/// thread id), so sinks can separate interleaved streams.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span was opened.
    SpanStart {
        /// Process-unique span id.
        id: u64,
        /// Enclosing span id, or 0 for a root span.
        parent: u64,
        /// Emitting thread.
        thread: u64,
        /// Dotted span name, e.g. `"core.grover.iteration"`.
        name: String,
    },
    /// A span was closed.
    SpanEnd {
        /// The id from the matching [`Event::SpanStart`].
        id: u64,
        /// Emitting thread.
        thread: u64,
        /// Same name as the matching start (spans are self-contained so
        /// sinks need not keep a join table).
        name: String,
        /// Wall time between open and close.
        duration: Duration,
    },
    /// A monotonic counter was incremented.
    Counter {
        /// Emitting thread.
        thread: u64,
        /// Counter name.
        name: String,
        /// Labels distinguishing series of the same name.
        labels: Labels,
        /// Increment (counters only go up).
        delta: u64,
    },
    /// A gauge was set to a new value.
    Gauge {
        /// Emitting thread.
        thread: u64,
        /// Gauge name.
        name: String,
        /// Labels distinguishing series of the same name.
        labels: Labels,
        /// The observed value.
        value: f64,
    },
    /// One observation of a duration histogram.
    Observe {
        /// Emitting thread.
        thread: u64,
        /// Histogram name.
        name: String,
        /// Labels distinguishing series of the same name.
        labels: Labels,
        /// The observed duration.
        duration: Duration,
    },
    /// A human-oriented progress message (also printed to stderr by the
    /// facade).
    Message {
        /// Emitting thread.
        thread: u64,
        /// Message text.
        text: String,
    },
}

impl Event {
    /// The metric/span name, if the variant has one.
    pub fn name(&self) -> Option<&str> {
        match self {
            Event::SpanStart { name, .. }
            | Event::SpanEnd { name, .. }
            | Event::Counter { name, .. }
            | Event::Gauge { name, .. }
            | Event::Observe { name, .. } => Some(name),
            Event::Message { .. } => None,
        }
    }

    /// The emitting thread's process-unique id.
    pub fn thread(&self) -> u64 {
        match self {
            Event::SpanStart { thread, .. }
            | Event::SpanEnd { thread, .. }
            | Event::Counter { thread, .. }
            | Event::Gauge { thread, .. }
            | Event::Observe { thread, .. }
            | Event::Message { thread, .. } => *thread,
        }
    }

    /// The value of the `"type"` key in the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SpanStart { .. } => "span_start",
            Event::SpanEnd { .. } => "span_end",
            Event::Counter { .. } => "counter",
            Event::Gauge { .. } => "gauge",
            Event::Observe { .. } => "duration",
            Event::Message { .. } => "message",
        }
    }

    /// Encodes the event as one JSON object (no trailing newline).
    ///
    /// Every line carries `"type"` and `"thread"`; metric variants carry
    /// `"name"` (+ `"labels"` when they have any), spans carry `"id"`
    /// (+ `"parent"` on start, `"ns"` on end), and messages carry
    /// `"text"`.
    pub fn to_jsonl(&self) -> String {
        let t = self.kind();
        match self {
            Event::SpanStart {
                id,
                parent,
                thread,
                name,
            } => format!(
                "{{\"type\":\"{t}\",\"id\":{id},\"parent\":{parent},\"thread\":{thread},\"name\":{}}}",
                json::quote(name)
            ),
            Event::SpanEnd {
                id,
                thread,
                name,
                duration,
            } => format!(
                "{{\"type\":\"{t}\",\"id\":{id},\"thread\":{thread},\"name\":{},\"ns\":{}}}",
                json::quote(name),
                duration.as_nanos()
            ),
            Event::Counter {
                thread,
                name,
                labels,
                delta,
            } => metric_line(t, *thread, name, labels, "delta", delta),
            Event::Gauge {
                thread,
                name,
                labels,
                value,
            } => metric_line(t, *thread, name, labels, "value", json::number(*value)),
            Event::Observe {
                thread,
                name,
                labels,
                duration,
            } => metric_line(t, *thread, name, labels, "ns", duration.as_nanos()),
            Event::Message { thread, text } => format!(
                "{{\"type\":\"{t}\",\"thread\":{thread},\"text\":{}}}",
                json::quote(text)
            ),
        }
    }

    /// Decodes one line written by [`Event::to_jsonl`]. A `null` gauge
    /// value (how a non-finite one is written) decodes as NaN; integers
    /// above 2^53 lose precision, as JSON numbers are doubles.
    ///
    /// # Errors
    /// Names the syntax error, the first missing or mistyped key, or an
    /// unknown event type.
    pub fn from_jsonl(line: &str) -> Result<Event, String> {
        let v = json::parse(line)?;
        let obj = v.as_object().ok_or("not a JSON object")?;
        let bad = |key: &str| format!("missing or mistyped key {key:?}");
        let text = |key: &str| {
            obj.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(key))
        };
        let int = |key: &str| {
            obj.get(key)
                .and_then(Json::as_f64)
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| bad(key))
        };
        let labels = || match obj.get("labels") {
            None => Ok(Labels::new()),
            Some(Json::Obj(map)) => map
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect::<Option<Labels>>()
                .ok_or_else(|| bad("labels")),
            Some(_) => Err(bad("labels")),
        };
        let kind = text("type")?;
        let thread = int("thread")?;
        Ok(match kind.as_str() {
            "span_start" => Event::SpanStart {
                id: int("id")?,
                parent: int("parent")?,
                thread,
                name: text("name")?,
            },
            "span_end" => Event::SpanEnd {
                id: int("id")?,
                thread,
                name: text("name")?,
                duration: Duration::from_nanos(int("ns")?),
            },
            "counter" => Event::Counter {
                thread,
                name: text("name")?,
                labels: labels()?,
                delta: int("delta")?,
            },
            "gauge" => Event::Gauge {
                thread,
                name: text("name")?,
                labels: labels()?,
                value: match obj.get("value") {
                    Some(Json::Null) => f64::NAN,
                    Some(Json::Num(n)) => *n,
                    _ => return Err(bad("value")),
                },
            },
            "duration" => Event::Observe {
                thread,
                name: text("name")?,
                labels: labels()?,
                duration: Duration::from_nanos(int("ns")?),
            },
            "message" => Event::Message {
                thread,
                text: text("text")?,
            },
            other => return Err(format!("unknown event type {other:?}")),
        })
    }
}

/// One metric line: `"labels"` follows the name only when there are
/// any (so unlabelled lines keep the shape they had before labels
/// existed), and the variant's value comes last under `key`.
fn metric_line(
    t: &str,
    thread: u64,
    name: &str,
    labels: &[(String, String)],
    key: &str,
    value: impl std::fmt::Display,
) -> String {
    let mut out = format!(
        "{{\"type\":\"{t}\",\"thread\":{thread},\"name\":{}",
        json::quote(name)
    );
    if !labels.is_empty() {
        let pairs: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{}:{}", json::quote(k), json::quote(v)))
            .collect();
        out.push_str(&format!(",\"labels\":{{{}}}", pairs.join(",")));
    }
    out.push_str(&format!(",\"{key}\":{value}}}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn jsonl_lines_parse_back() {
        let events = [
            Event::SpanStart {
                id: 3,
                parent: 1,
                thread: 2,
                name: "a.b".into(),
            },
            Event::SpanEnd {
                id: 3,
                thread: 2,
                name: "a.b".into(),
                duration: Duration::from_nanos(1234),
            },
            Event::Counter {
                thread: 2,
                name: "c".into(),
                labels: vec![],
                delta: 7,
            },
            Event::Gauge {
                thread: 2,
                name: "g \"q\"".into(),
                labels: vec![],
                value: 1.5,
            },
            Event::Observe {
                thread: 2,
                name: "d".into(),
                labels: vec![],
                duration: Duration::from_micros(9),
            },
            Event::Message {
                thread: 2,
                text: "hello\nworld".into(),
            },
        ];
        for ev in &events {
            let line = ev.to_jsonl();
            let v = json::parse(&line).expect("line must be valid JSON");
            let obj = v.as_object().expect("line must be an object");
            assert_eq!(
                obj.get("type").and_then(|t| t.as_str()),
                Some(ev.kind()),
                "{line}"
            );
            assert!(obj.contains_key("thread"), "{line}");
        }
    }

    #[test]
    fn span_end_encodes_nanoseconds() {
        let ev = Event::SpanEnd {
            id: 1,
            thread: 1,
            name: "x".into(),
            duration: Duration::from_millis(2),
        };
        assert!(ev.to_jsonl().contains("\"ns\":2000000"));
    }

    #[test]
    fn labels_are_written_only_when_present() {
        let bare = Event::Counter {
            thread: 1,
            name: "c".into(),
            labels: vec![],
            delta: 1,
        };
        assert_eq!(
            bare.to_jsonl(),
            r#"{"type":"counter","thread":1,"name":"c","delta":1}"#
        );
        let labelled = Event::Counter {
            thread: 1,
            name: "c".into(),
            labels: vec![("lane".into(), "dense".into())],
            delta: 1,
        };
        assert_eq!(
            labelled.to_jsonl(),
            r#"{"type":"counter","thread":1,"name":"c","labels":{"lane":"dense"},"delta":1}"#
        );
    }

    #[test]
    fn non_finite_gauges_decode_as_nan() {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let line = Event::Gauge {
                thread: 1,
                name: "g".into(),
                labels: vec![],
                value,
            }
            .to_jsonl();
            assert!(line.contains("\"value\":null"), "{line}");
            match Event::from_jsonl(&line) {
                Ok(Event::Gauge { value, .. }) => assert!(value.is_nan(), "{line}"),
                other => panic!("{line} decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_lines_name_the_offending_key() {
        for (key, line) in [
            ("type", r#"{"thread":1,"name":"c","delta":1}"#),
            ("thread", r#"{"type":"counter","name":"c","delta":1}"#),
            (
                "thread",
                r#"{"type":"counter","thread":"1","name":"c","delta":1}"#,
            ),
            ("id", r#"{"type":"span_start","thread":1,"name":"s"}"#),
            (
                "parent",
                r#"{"type":"span_start","id":2,"thread":1,"name":"s"}"#,
            ),
            ("ns", r#"{"type":"span_end","id":2,"thread":1,"name":"s"}"#),
            ("name", r#"{"type":"counter","thread":1,"delta":1}"#),
            (
                "delta",
                r#"{"type":"counter","thread":1,"name":"c","delta":-1}"#,
            ),
            (
                "delta",
                r#"{"type":"counter","thread":1,"name":"c","delta":1.5}"#,
            ),
            (
                "labels",
                r#"{"type":"counter","thread":1,"name":"c","labels":[],"delta":1}"#,
            ),
            (
                "labels",
                r#"{"type":"counter","thread":1,"name":"c","labels":{"a":1},"delta":1}"#,
            ),
            (
                "value",
                r#"{"type":"gauge","thread":1,"name":"g","value":"1"}"#,
            ),
            ("ns", r#"{"type":"duration","thread":1,"name":"d"}"#),
            ("text", r#"{"type":"message","thread":1}"#),
        ] {
            let err = Event::from_jsonl(line).expect_err(line);
            assert!(
                err.contains(&format!("{key:?}")),
                "{line}: {err:?} must name {key:?}"
            );
        }
        assert!(Event::from_jsonl("not json").is_err());
        assert!(Event::from_jsonl("[1]").is_err());
        let err = Event::from_jsonl(r#"{"type":"mystery","thread":1}"#).unwrap_err();
        assert!(err.contains("mystery"), "{err}");
    }

    /// Names, label values and message text draw from quotes,
    /// backslashes, control characters and non-ASCII text.
    const ALPHABET: [char; 16] = [
        'a', 'Z', '.', '_', ' ', '"', '\\', '\n', '\t', '\r', '\u{1}', '/', 'é', 'θ', '√', '😀',
    ];

    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0..ALPHABET.len(), 0..10)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
    }

    fn labels() -> impl Strategy<Value = Labels> {
        proptest::collection::vec((text(), text()), 0..3).prop_map(|pairs| {
            let sorted: std::collections::BTreeMap<String, String> = pairs.into_iter().collect();
            sorted.into_iter().collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every variant survives the wire format unchanged (integers up
        /// to 2^53, finite gauge values across the exponent range).
        #[test]
        fn every_variant_round_trips_through_jsonl(
            variant in 0usize..6,
            (id, parent, thread) in (0u64..1 << 53, 0u64..1 << 53, 0u64..1 << 53),
            (name, labels) in (text(), labels()),
            (int, mantissa, exponent) in (0u64..1 << 53, -1.0f64..1.0, -300i32..300),
        ) {
            let value = mantissa * 10f64.powi(exponent);
            let ev = match variant {
                0 => Event::SpanStart { id, parent, thread, name },
                1 => Event::SpanEnd { id, thread, name, duration: Duration::from_nanos(int) },
                2 => Event::Counter { thread, name, labels, delta: int },
                3 => Event::Gauge { thread, name, labels, value },
                4 => Event::Observe { thread, name, labels, duration: Duration::from_nanos(int) },
                _ => Event::Message { thread, text: name },
            };
            let line = ev.to_jsonl();
            prop_assert!(!line.contains('\n'), "one event, one line: {line:?}");
            prop_assert_eq!(Event::from_jsonl(&line), Ok(ev));
        }
    }
}
