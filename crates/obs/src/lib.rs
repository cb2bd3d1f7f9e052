//! `qmkp-obs`: zero-dependency structured tracing, metrics, and run
//! reports for the qMKP workspace.
//!
//! The crate is a small global facade: instrumentation points call
//! [`span`], [`counter`], [`gauge`], [`observe`], or [`message`], once
//! per fact, with a name, optional `(key, value)` labels and a value;
//! events flow to whatever [`Sink`]s are currently attached
//! ([`Collector`] for tests and summaries, [`JsonlSink`] for
//! machine-readable traces, [`Metrics`] for bounded labelled series and
//! quantiles). With no sink attached — the default — every entry point
//! reduces to one relaxed atomic load and returns immediately, so
//! instrumented hot paths carry no measurable overhead (see DESIGN.md §9
//! for the measurement). [`Event::from_jsonl`] reads a trace back.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//!
//! let collector = Arc::new(qmkp_obs::Collector::new());
//! let _guard = qmkp_obs::attach(collector.clone());
//! {
//!     let _outer = qmkp_obs::span("demo.run");
//!     let inner = qmkp_obs::span("demo.step");
//!     qmkp_obs::counter("demo.items", &[("lane", "dense")], 3);
//!     inner.finish();
//! }
//! assert_eq!(collector.counter_total("demo.items"), 3);
//! assert_eq!(collector.finished_spans().len(), 2);
//! ```
//!
//! Binaries normally don't attach sinks by hand; they build a
//! [`Session`] from the `QMKP_OBS*` environment variables and call
//! [`Session::finish`] at the end of the run.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::dbg_macro, clippy::todo)]
pub mod event;
pub mod json;
pub mod metrics;
pub mod report;
pub mod session;
pub mod sink;
pub mod summary;

pub use event::Event;
pub use metrics::{Metrics, MetricsSnapshot};
pub use report::RunReport;
pub use session::Session;
pub use sink::{Collector, JsonlSink, Sink};
pub use summary::Summary;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

struct Registry {
    sinks: RwLock<Vec<(u64, Arc<dyn Sink>)>>,
    filter: RwLock<Option<Vec<String>>>,
    /// Mirrors "any sink attached" so the disabled fast path is one load.
    enabled: AtomicBool,
    next_span: AtomicU64,
    next_sink: AtomicU64,
    next_thread: AtomicU64,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        sinks: RwLock::new(Vec::new()),
        filter: RwLock::new(None),
        enabled: AtomicBool::new(false),
        next_span: AtomicU64::new(1),
        next_sink: AtomicU64::new(1),
        next_thread: AtomicU64::new(1),
    })
}

thread_local! {
    static THREAD_ID: u64 = registry().next_thread.fetch_add(1, Ordering::Relaxed);
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A small process-unique id for the calling thread (not the OS id);
/// stable for the thread's lifetime.
pub fn thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// Whether any sink is attached. The entire facade is a no-op when this
/// is `false`; instrumentation may use it to skip preparing expensive
/// event payloads.
#[inline]
pub fn enabled() -> bool {
    registry().enabled.load(Ordering::Relaxed)
}

/// Whether events with this name would currently be recorded: a sink is
/// attached *and* the name passes the prefix filter (if one is set).
#[inline]
pub fn enabled_for(name: &str) -> bool {
    enabled() && passes_filter(name)
}

fn passes_filter(name: &str) -> bool {
    match &*registry().filter.read().expect("filter lock") {
        None => true,
        Some(prefixes) => prefixes.iter().any(|p| name.starts_with(p)),
    }
}

/// Restricts recording to events whose name starts with one of the given
/// prefixes (`None` records everything). Messages are never filtered.
pub fn set_filter(prefixes: Option<Vec<String>>) {
    *registry().filter.write().expect("filter lock") = prefixes;
}

/// Detaches its sink when dropped.
#[must_use = "the sink detaches when this handle drops"]
pub struct SinkHandle {
    id: u64,
}

/// Attaches a sink; it receives every subsequent event that passes the
/// filter, until the returned handle is dropped.
pub fn attach(sink: Arc<dyn Sink>) -> SinkHandle {
    let reg = registry();
    let id = reg.next_sink.fetch_add(1, Ordering::Relaxed);
    let mut sinks = reg.sinks.write().expect("sink lock");
    sinks.push((id, sink));
    reg.enabled.store(true, Ordering::Relaxed);
    SinkHandle { id }
}

impl Drop for SinkHandle {
    fn drop(&mut self) {
        let reg = registry();
        let mut sinks = reg.sinks.write().expect("sink lock");
        sinks.retain(|(id, _)| *id != self.id);
        if sinks.is_empty() {
            reg.enabled.store(false, Ordering::Relaxed);
        }
    }
}

fn emit(event: &Event) {
    for (_, sink) in registry().sinks.read().expect("sink lock").iter() {
        sink.record(event);
    }
}

/// An open span. Close it explicitly with [`Span::finish`] to get the
/// measured duration, or let it drop.
///
/// Spans created while recording is off are *disarmed*: they still
/// measure wall time (so [`Span::finish`] can be used for ordinary
/// timing) but emit nothing and never touch the parent stack.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    id: u64,
    name: Option<String>,
    start: Instant,
}

impl Span {
    fn disarmed() -> Span {
        Span {
            id: 0,
            name: None,
            start: Instant::now(),
        }
    }

    fn armed(name: String) -> Span {
        let id = registry().next_span.fetch_add(1, Ordering::Relaxed);
        let thread = thread_id();
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        emit(&Event::SpanStart {
            id,
            parent,
            thread,
            name: name.clone(),
        });
        Span {
            id,
            name: Some(name),
            start: Instant::now(),
        }
    }

    fn close(&mut self) -> Duration {
        let duration = self.start.elapsed();
        if let Some(name) = self.name.take() {
            SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                // rposition: tolerate out-of-order closes without
                // corrupting unrelated spans' parents.
                if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                    s.remove(pos);
                }
            });
            emit(&Event::SpanEnd {
                id: self.id,
                thread: thread_id(),
                name,
                duration,
            });
        }
        duration
    }

    /// Closes the span now and returns its measured duration.
    pub fn finish(mut self) -> Duration {
        self.close()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// Opens a span named `name`, parented to the innermost open span on this
/// thread.
pub fn span(name: &str) -> Span {
    if enabled_for(name) {
        Span::armed(name.to_string())
    } else {
        Span::disarmed()
    }
}

/// Like [`span`], but the name is built lazily — the closure only runs
/// when recording is on, so dynamic names (e.g. `probe[t=7]`) cost
/// nothing on the disabled path.
pub fn span_dyn(name: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span::disarmed();
    }
    let name = name();
    if passes_filter(&name) {
        Span::armed(name)
    } else {
        Span::disarmed()
    }
}

/// Records a span that was timed externally: emits a start/end pair with
/// exactly the given duration, parented to the innermost open span.
///
/// This exists so code that already measures sections itself (e.g. the
/// Grover driver's `SectionTimes`) can report *the same* `Duration` it
/// accounts internally, keeping the two paths bit-identical.
pub fn span_closed(name: &str, duration: Duration) {
    if !enabled_for(name) {
        return;
    }
    let id = registry().next_span.fetch_add(1, Ordering::Relaxed);
    let thread = thread_id();
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    emit(&Event::SpanStart {
        id,
        parent,
        thread,
        name: name.to_string(),
    });
    emit(&Event::SpanEnd {
        id,
        thread,
        name: name.to_string(),
        duration,
    });
}

/// Owned, key-sorted labels for an event (see [`event::Labels`]).
fn owned_labels(labels: &[(&str, &str)]) -> event::Labels {
    let mut owned: event::Labels = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    owned.sort_unstable();
    owned
}

/// Adds `delta` to the counter `name` with the given `(key, value)`
/// labels (`&[]` for none).
pub fn counter(name: &str, labels: &[(&str, &str)], delta: u64) {
    if !enabled_for(name) {
        return;
    }
    emit(&Event::Counter {
        thread: thread_id(),
        name: name.to_string(),
        labels: owned_labels(labels),
        delta,
    });
}

/// Sets the gauge `name` with the given labels to `value`.
pub fn gauge(name: &str, labels: &[(&str, &str)], value: f64) {
    if !enabled_for(name) {
        return;
    }
    emit(&Event::Gauge {
        thread: thread_id(),
        name: name.to_string(),
        labels: owned_labels(labels),
        value,
    });
}

/// Records one observation of the duration histogram `name` with the
/// given labels.
pub fn observe(name: &str, labels: &[(&str, &str)], duration: Duration) {
    if !enabled_for(name) {
        return;
    }
    emit(&Event::Observe {
        thread: thread_id(),
        name: name.to_string(),
        labels: owned_labels(labels),
        duration,
    });
}

/// Prints a progress message to stderr and, when recording is on, also
/// records it as a [`Event::Message`]. Messages bypass the name filter.
pub fn message(text: &str) {
    eprintln!("{text}");
    if enabled() {
        emit(&Event::Message {
            thread: thread_id(),
            text: text.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global; emitting tests serialize on this so
    /// their sinks never see each other's events. (Collector's own thread
    /// filter covers cross-thread noise; this covers the filter state.)
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_facade_emits_nothing_and_still_times() {
        let _l = locked();
        assert!(!enabled());
        let s = span("off.path");
        counter("off.c", &[], 1);
        gauge("off.g", &[], 1.0);
        observe("off.d", &[], Duration::from_nanos(1));
        span_closed("off.closed", Duration::from_nanos(1));
        let d = s.finish();
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn spans_nest_by_thread_stack() {
        let _l = locked();
        let c = Arc::new(Collector::for_current_thread());
        let g = attach(c.clone());
        let outer = span("t.outer");
        let inner = span("t.inner");
        span_closed("t.section", Duration::from_nanos(5));
        inner.finish();
        outer.finish();
        drop(g);

        let events = c.events();
        let mut parents = std::collections::HashMap::new();
        let mut ids = std::collections::HashMap::new();
        for ev in &events {
            if let Event::SpanStart {
                id, parent, name, ..
            } = ev
            {
                ids.insert(name.clone(), *id);
                parents.insert(name.clone(), *parent);
            }
        }
        assert_eq!(parents["t.outer"], 0);
        assert_eq!(parents["t.inner"], ids["t.outer"]);
        assert_eq!(parents["t.section"], ids["t.inner"]);
        assert_eq!(c.span_total("t.section"), Duration::from_nanos(5));
        assert_eq!(c.finished_spans().len(), 3);
    }

    #[test]
    fn filter_limits_recording_by_prefix() {
        let _l = locked();
        let c = Arc::new(Collector::for_current_thread());
        let g = attach(c.clone());
        set_filter(Some(vec!["keep.".to_string()]));
        counter("keep.a", &[], 1);
        counter("drop.b", &[], 1);
        assert!(enabled_for("keep.x"));
        assert!(!enabled_for("drop.x"));
        let s = span_dyn(|| "drop.dynamic".to_string());
        s.finish();
        set_filter(None);
        drop(g);
        assert_eq!(c.counter_total("keep.a"), 1);
        assert_eq!(c.counter_total("drop.b"), 0);
        assert!(c.finished_spans().is_empty());
    }

    #[test]
    fn detaching_last_sink_disables_facade() {
        let _l = locked();
        let c = Arc::new(Collector::for_current_thread());
        let g = attach(c.clone());
        assert!(enabled());
        drop(g);
        assert!(!enabled());
        counter("after.detach", &[], 1);
        assert_eq!(c.counter_total("after.detach"), 0);
    }

    #[test]
    fn finish_returns_elapsed_and_drop_does_not_double_emit() {
        let _l = locked();
        let c = Arc::new(Collector::for_current_thread());
        let g = attach(c.clone());
        {
            let s = span("once.only");
            let d = s.finish();
            assert!(d >= Duration::ZERO);
        } // drop of the already-finished span must not emit again
        drop(g);
        assert_eq!(c.finished_spans().len(), 1);
    }

    #[test]
    fn one_labelled_counter_agrees_in_every_view() {
        let _l = locked();
        let collector = Arc::new(Collector::for_current_thread());
        let metrics = Arc::new(Metrics::new());
        let path =
            std::env::temp_dir().join(format!("qmkp_obs_views_{}.jsonl", std::process::id()));
        let jsonl = Arc::new(JsonlSink::create(&path).unwrap());
        let guards = [
            attach(collector.clone()),
            attach(metrics.clone()),
            attach(jsonl.clone()),
        ];
        counter("views.c", &[("lane", "dense")], 7);
        drop(guards);
        jsonl.flush();

        assert_eq!(collector.counter_total("views.c"), 7);
        let body = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let decoded: Vec<Event> = body
            .lines()
            .map(|line| Event::from_jsonl(line).unwrap())
            .collect();
        assert_eq!(decoded, collector.events());
        let Event::Counter { labels, delta, .. } = &decoded[0] else {
            panic!("expected one counter line, got {decoded:?}");
        };
        assert_eq!(labels, &[("lane".to_string(), "dense".to_string())]);
        assert_eq!(*delta, 7);
        let snap = metrics.snapshot();
        assert_eq!(snap.value_of("views.c", &[("lane", "dense")]), 7.0);
        assert_eq!(snap.series.len(), 1);
    }
}
