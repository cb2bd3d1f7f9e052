//! Pluggable event sinks: the in-memory collector (tests, summaries,
//! reports) and the JSONL writer (machine-readable run traces). The third
//! sink, [`crate::Metrics`], folds events into labelled series.

use crate::event::Event;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// Receives every event that passes the global enable/filter checks.
///
/// Implementations must be cheap and non-blocking-ish: they run inline at
/// the instrumentation point (behind a mutex where needed).
pub trait Sink: Send + Sync {
    /// Handles one event.
    fn record(&self, event: &Event);
    /// Flushes any buffered output (no-op by default).
    fn flush(&self) {}
}

/// An in-memory event collector: the test/report sink.
///
/// Optionally restricted to the thread that created it
/// ([`Collector::for_current_thread`]), so concurrently running tests in
/// one process cannot contaminate each other's collections.
#[derive(Debug, Default)]
pub struct Collector {
    events: Mutex<Vec<Event>>,
    only_thread: Option<u64>,
}

impl Collector {
    /// A collector that records events from every thread.
    pub fn new() -> Self {
        Collector::default()
    }

    /// A collector that records only events emitted by the calling thread.
    pub fn for_current_thread() -> Self {
        Collector {
            events: Mutex::new(Vec::new()),
            only_thread: Some(crate::thread_id()),
        }
    }

    /// A snapshot of everything collected so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("collector lock").clone()
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("collector lock").len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops everything collected so far.
    pub fn clear(&self) {
        self.events.lock().expect("collector lock").clear();
    }

    /// All finished spans as `(name, duration)`, in completion order.
    pub fn finished_spans(&self) -> Vec<(String, Duration)> {
        self.events
            .lock()
            .expect("collector lock")
            .iter()
            .filter_map(|ev| match ev {
                Event::SpanEnd { name, duration, .. } => Some((name.clone(), *duration)),
                _ => None,
            })
            .collect()
    }

    /// Sum of finished-span durations whose name starts with `prefix`.
    pub fn span_total(&self, prefix: &str) -> Duration {
        self.finished_spans()
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|&(_, d)| d)
            .sum()
    }

    /// Total of all increments to the named counter, across label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.events
            .lock()
            .expect("collector lock")
            .iter()
            .map(|ev| match ev {
                Event::Counter { name: n, delta, .. } if n == name => *delta,
                _ => 0,
            })
            .sum()
    }

    /// The most recent value of the named gauge (any label set), if any
    /// was set.
    pub fn last_gauge(&self, name: &str) -> Option<f64> {
        self.events
            .lock()
            .expect("collector lock")
            .iter()
            .rev()
            .find_map(|ev| match ev {
                Event::Gauge { name: n, value, .. } if n == name => Some(*value),
                _ => None,
            })
    }
}

impl Sink for Collector {
    fn record(&self, event: &Event) {
        if let Some(t) = self.only_thread {
            if event.thread() != t {
                return;
            }
        }
        self.events
            .lock()
            .expect("collector lock")
            .push(event.clone());
    }
}

/// Appends one JSON object per event to a file (JSONL).
///
/// Writes are buffered; [`Sink::flush`] (called by
/// [`crate::Session::finish`]) and drop both flush. I/O errors after
/// creation are swallowed — telemetry must never take down the run it
/// observes.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the output file.
    ///
    /// # Errors
    /// Fails if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(JsonlSink {
            path,
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// The path events are written to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let mut w = self.writer.lock().expect("jsonl lock");
        let _ = writeln!(w, "{}", event.to_jsonl());
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl lock").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, thread: u64) -> Event {
        Event::Counter {
            thread,
            name: name.to_string(),
            labels: vec![],
            delta: 1,
        }
    }

    #[test]
    fn collector_aggregates() {
        let c = Collector::new();
        c.record(&ev("a", 1));
        c.record(&ev("a", 2));
        c.record(&Event::Gauge {
            thread: 1,
            name: "g".into(),
            labels: vec![],
            value: 2.0,
        });
        c.record(&Event::Gauge {
            thread: 1,
            name: "g".into(),
            labels: vec![],
            value: 5.0,
        });
        c.record(&Event::SpanEnd {
            id: 1,
            thread: 1,
            name: "s.x".into(),
            duration: Duration::from_nanos(10),
        });
        c.record(&Event::SpanEnd {
            id: 2,
            thread: 1,
            name: "s.y".into(),
            duration: Duration::from_nanos(5),
        });
        assert_eq!(c.counter_total("a"), 2);
        assert_eq!(c.counter_total("missing"), 0);
        assert_eq!(c.last_gauge("g"), Some(5.0));
        assert_eq!(c.last_gauge("missing"), None);
        assert_eq!(c.span_total("s."), Duration::from_nanos(15));
        assert_eq!(c.span_total("s.x"), Duration::from_nanos(10));
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn thread_scoped_collector_filters() {
        let mine = crate::thread_id();
        let c = Collector::for_current_thread();
        c.record(&ev("a", mine));
        c.record(&ev("a", mine + 1));
        assert_eq!(c.counter_total("a"), 1);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path =
            std::env::temp_dir().join(format!("qmkp_obs_sink_test_{}.jsonl", std::process::id()));
        {
            let s = JsonlSink::create(&path).unwrap();
            s.record(&ev("x.y", 1));
            s.record(&Event::Message {
                thread: 1,
                text: "hi".into(),
            });
            s.flush();
        }
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            crate::json::parse(line).expect("valid JSON line");
        }
        let _ = std::fs::remove_file(&path);
    }
}
