//! `Session`: the binary-facing lifecycle wrapper. Reads the `QMKP_OBS*`
//! environment variables, attaches the requested sinks, and on
//! [`Session::finish`] flushes JSONL output, prints the human summary to
//! stderr, and writes the run report.
//!
//! Environment variables:
//!
//! | Variable           | Effect                                                    |
//! |--------------------|-----------------------------------------------------------|
//! | `QMKP_OBS=1`       | Enable tracing; print a hierarchical summary on stderr.   |
//! | `QMKP_OBS_JSON`    | Also write every event as JSONL to this path.             |
//! | `QMKP_OBS_REPORT`  | Write a [`RunReport`] JSON document to this path.         |
//! | `QMKP_OBS_METRICS` | Write Prometheus-style metrics text to this path.         |
//! | `QMKP_OBS_FILTER`  | Comma-separated name prefixes to record (default: all).   |
//!
//! Setting `QMKP_OBS_JSON`, `QMKP_OBS_REPORT`, or `QMKP_OBS_METRICS`
//! implies `QMKP_OBS=1`.
//!
//! An active session also attaches a [`Metrics`] sink; its final
//! [`crate::MetricsSnapshot`] is folded into the report (and written as
//! Prometheus text when `QMKP_OBS_METRICS` names a path).

use crate::metrics::Metrics;
use crate::report::RunReport;
use crate::sink::{Collector, JsonlSink, Sink};
use crate::summary::Summary;
use crate::SinkHandle;
use std::path::PathBuf;
use std::sync::Arc;

/// One observed program run: owns the attached sinks and renders the
/// outputs when finished. An inactive session (observability off) is
/// free to create and finish.
pub struct Session {
    name: String,
    collector: Option<Arc<Collector>>,
    jsonl: Option<Arc<JsonlSink>>,
    metrics: Option<Arc<Metrics>>,
    handles: Vec<SinkHandle>,
    report_path: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    print_summary: bool,
    clear_filter_on_finish: bool,
}

/// Configures and builds a [`Session`] (see [`Session::builder`]).
pub struct SessionBuilder {
    name: String,
    collect: bool,
    jsonl_path: Option<PathBuf>,
    report_path: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    filter: Option<Vec<String>>,
    print_summary: bool,
}

impl SessionBuilder {
    /// Attaches an in-memory [`Collector`] (needed for the summary and
    /// the report; implied by both).
    #[must_use]
    pub fn collect(mut self) -> Self {
        self.collect = true;
        self
    }

    /// Writes every event as JSONL to `path`.
    #[must_use]
    pub fn jsonl(mut self, path: impl Into<PathBuf>) -> Self {
        self.jsonl_path = Some(path.into());
        self
    }

    /// Writes a [`RunReport`] JSON document to `path` on finish.
    #[must_use]
    pub fn report(mut self, path: impl Into<PathBuf>) -> Self {
        self.report_path = Some(path.into());
        self
    }

    /// Writes the final metrics snapshot as Prometheus-style text to
    /// `path` on finish.
    #[must_use]
    pub fn metrics(mut self, path: impl Into<PathBuf>) -> Self {
        self.metrics_path = Some(path.into());
        self
    }

    /// Records only events whose name starts with one of these prefixes.
    #[must_use]
    pub fn filter(mut self, prefixes: Vec<String>) -> Self {
        self.filter = Some(prefixes);
        self
    }

    /// Prints the hierarchical summary to stderr on finish.
    #[must_use]
    pub fn print_summary(mut self) -> Self {
        self.print_summary = true;
        self
    }

    /// Attaches the configured sinks and returns the running session.
    pub fn build(self) -> Session {
        let mut handles = Vec::new();
        let need_collector = self.collect || self.print_summary || self.report_path.is_some();
        let collector = if need_collector {
            let c = Arc::new(Collector::new());
            handles.push(crate::attach(c.clone() as Arc<dyn Sink>));
            Some(c)
        } else {
            None
        };
        let jsonl = self
            .jsonl_path
            .and_then(|path| match JsonlSink::create(&path) {
                Ok(sink) => {
                    let sink = Arc::new(sink);
                    handles.push(crate::attach(sink.clone() as Arc<dyn Sink>));
                    Some(sink)
                }
                Err(err) => {
                    eprintln!("qmkp-obs: cannot open {}: {err}", path.display());
                    None
                }
            });
        let clear_filter_on_finish = self.filter.is_some();
        if let Some(prefixes) = self.filter {
            crate::set_filter(Some(prefixes));
        }
        // Whatever the session records also folds into labelled series.
        let metrics = (!handles.is_empty()).then(|| {
            let m = Arc::new(Metrics::new());
            handles.push(crate::attach(m.clone() as Arc<dyn Sink>));
            m
        });
        Session {
            name: self.name,
            collector,
            jsonl,
            metrics,
            handles,
            report_path: self.report_path,
            metrics_path: self.metrics_path,
            print_summary: self.print_summary,
            clear_filter_on_finish,
        }
    }
}

impl Session {
    /// Starts configuring a session by hand (tests, examples).
    pub fn builder(name: impl Into<String>) -> SessionBuilder {
        SessionBuilder {
            name: name.into(),
            collect: false,
            jsonl_path: None,
            report_path: None,
            metrics_path: None,
            filter: None,
            print_summary: false,
        }
    }

    /// A session that records nothing and produces no output.
    pub fn disabled(name: impl Into<String>) -> Session {
        Session {
            name: name.into(),
            collector: None,
            jsonl: None,
            metrics: None,
            handles: Vec::new(),
            report_path: None,
            metrics_path: None,
            print_summary: false,
            clear_filter_on_finish: false,
        }
    }

    /// Builds a session from the `QMKP_OBS*` environment variables (see
    /// the module docs). Returns an inactive session when none are set,
    /// so binaries can call this unconditionally. Malformed values are
    /// never silently dropped: each one produces a one-line stderr
    /// warning naming the variable and the value.
    pub fn from_env(name: impl Into<String>) -> Session {
        let name = name.into();
        let jsonl = env_path("QMKP_OBS_JSON");
        let report = env_path("QMKP_OBS_REPORT");
        let metrics = env_path("QMKP_OBS_METRICS");
        if !env_flag("QMKP_OBS") && jsonl.is_none() && report.is_none() && metrics.is_none() {
            return Session::disabled(name);
        }
        let mut b = Session::builder(name).collect().print_summary();
        if let Some(p) = jsonl {
            b = b.jsonl(p);
        }
        if let Some(p) = report {
            b = b.report(p);
        }
        if let Some(p) = metrics {
            b = b.metrics(p);
        }
        if let Some(f) = env_path("QMKP_OBS_FILTER") {
            b = b.filter(f.split(',').map(|s| s.trim().to_string()).collect());
        }
        b.build()
    }

    /// Whether this session is recording anything.
    pub fn is_active(&self) -> bool {
        !self.handles.is_empty()
    }

    /// The session's in-memory collector, if one is attached.
    pub fn collector(&self) -> Option<&Arc<Collector>> {
        self.collector.as_ref()
    }

    /// Where the run report will be written (the `QMKP_OBS_REPORT` path
    /// under [`Session::from_env`]), if report writing is configured.
    /// Lets drivers stamp the report location into their own output.
    pub fn report_path(&self) -> Option<&std::path::Path> {
        self.report_path.as_deref()
    }

    /// The aggregated telemetry collected so far (empty when inactive).
    pub fn summary(&self) -> Summary {
        self.collector
            .as_ref()
            .map(|c| Summary::from_events(&c.events()))
            .unwrap_or_default()
    }

    /// Ends the session: flushes JSONL, prints the summary, and writes the
    /// report (if configured) with the collected telemetry attached.
    pub fn finish(self) {
        let name = self.name.clone();
        self.finish_with(RunReport::new(name));
    }

    /// Like [`Session::finish`], but the caller supplies the report shell
    /// (config + outcome entries); the session fills in the summary.
    pub fn finish_with(mut self, report: RunReport) {
        let summary = self.summary();
        let metrics = self
            .metrics
            .as_ref()
            .map(|m| m.snapshot())
            .unwrap_or_default();
        if let Some(jsonl) = &self.jsonl {
            jsonl.flush();
            eprintln!("qmkp-obs: wrote {}", jsonl.path().display());
        }
        if self.print_summary && self.is_active() {
            let rendered = summary.render();
            if rendered.is_empty() {
                eprintln!("qmkp-obs[{}]: no events recorded", self.name);
            } else {
                eprintln!("qmkp-obs[{}] summary:\n{rendered}", self.name);
            }
        }
        if let Some(path) = self.report_path.take() {
            let report = report.summary(summary).metrics(metrics.clone());
            match std::fs::write(&path, report.to_json()) {
                Ok(()) => eprintln!("qmkp-obs: wrote {}", path.display()),
                Err(err) => eprintln!("qmkp-obs: cannot write {}: {err}", path.display()),
            }
        }
        if let Some(path) = self.metrics_path.take() {
            match std::fs::write(&path, metrics.to_prometheus()) {
                Ok(()) => eprintln!("qmkp-obs: wrote {}", path.display()),
                Err(err) => eprintln!("qmkp-obs: cannot write {}: {err}", path.display()),
            }
        }
        if self.clear_filter_on_finish {
            crate::set_filter(None);
        }
        // Dropping the handles detaches the sinks.
    }
}

/// Parses a boolean-ish `QMKP_OBS*` variable. Unset, `""`, `"0"`,
/// `"false"`, `"off"`, and `"no"` disable; `"1"`, `"true"`, `"on"`, and
/// `"yes"` enable (all case-insensitive). Any other value is malformed:
/// a one-line stderr warning names the variable and value, and the flag
/// is treated as enabled — the user clearly asked for *something*, and
/// over-recording is the recoverable direction.
fn env_flag(var: &str) -> bool {
    match std::env::var(var) {
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "" | "0" | "false" | "off" | "no" => false,
            "1" | "true" | "on" | "yes" => true,
            _ => {
                eprintln!("qmkp-obs: unrecognized value {var}={v:?}; treating as enabled");
                true
            }
        },
        Err(std::env::VarError::NotPresent) => false,
        Err(std::env::VarError::NotUnicode(raw)) => {
            eprintln!("qmkp-obs: ignoring non-unicode value {var}={raw:?}");
            false
        }
    }
}

/// Reads a path-valued `QMKP_OBS*` variable. Empty and unset mean "not
/// configured"; a non-unicode value is reported on stderr (naming the
/// variable and value) instead of being silently dropped.
fn env_path(var: &str) -> Option<String> {
    match std::env::var(var) {
        Ok(v) if v.is_empty() => None,
        Ok(v) => Some(v),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(raw)) => {
            eprintln!("qmkp-obs: ignoring non-unicode value {var}={raw:?}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        crate::tests::TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_session_is_inert() {
        let _l = locked();
        let s = Session::disabled("t");
        assert!(!s.is_active());
        assert!(s.collector().is_none());
        s.finish();
        assert!(!crate::enabled());
    }

    #[test]
    fn builder_session_collects_and_reports() {
        let _l = locked();
        let dir = std::env::temp_dir();
        let jsonl = dir.join(format!("qmkp_obs_session_{}.jsonl", std::process::id()));
        let report = dir.join(format!("qmkp_obs_session_{}.json", std::process::id()));
        let s = Session::builder("test-run")
            .collect()
            .jsonl(&jsonl)
            .report(&report)
            .build();
        assert!(s.is_active());
        crate::counter("session.test.counter", &[], 2);
        let sp = crate::span("session.test.span");
        sp.finish();
        s.finish_with(
            RunReport::new("test-run")
                .config("n", 4)
                .outcome("ok", "yes"),
        );
        assert!(!crate::enabled());

        let body = std::fs::read_to_string(&jsonl).unwrap();
        assert!(body.lines().count() >= 3, "{body}");
        for line in body.lines() {
            crate::json::parse(line).expect("valid JSONL");
        }
        let rep = crate::json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        assert_eq!(rep.get("name").unwrap().as_str(), Some("test-run"));
        assert_eq!(
            rep.get("summary")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("session.test.counter")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
        let _ = std::fs::remove_file(&jsonl);
        let _ = std::fs::remove_file(&report);
    }

    #[test]
    fn session_folds_metrics_into_report_and_writes_prometheus() {
        let _l = locked();
        let dir = std::env::temp_dir();
        let report = dir.join(format!("qmkp_obs_metrics_{}.json", std::process::id()));
        let prom = dir.join(format!("qmkp_obs_metrics_{}.prom", std::process::id()));
        let s = Session::builder("metrics-run")
            .collect()
            .report(&report)
            .metrics(&prom)
            .build();
        assert!(crate::enabled(), "active session records");
        let own = Arc::new(Metrics::new());
        let own_guard = crate::attach(own.clone());
        crate::counter("session.m.count", &[("rung", "dense")], 3);
        crate::observe("session.m.lat", &[], std::time::Duration::from_nanos(500));
        drop(own_guard);
        s.finish();
        assert!(!crate::enabled(), "finish detaches every sink");
        assert_eq!(own.snapshot().series.len(), 2);
        // A later session starts from empty series.
        let later = dir.join(format!(
            "qmkp_obs_metrics_later_{}.json",
            std::process::id()
        ));
        Session::builder("later").report(&later).build().finish();
        let rep_later = crate::json::parse(&std::fs::read_to_string(&later).unwrap()).unwrap();
        assert!(rep_later.get("metrics").is_none(), "no series carried over");
        let _ = std::fs::remove_file(&later);

        let rep = crate::json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let series = rep
            .get("metrics")
            .expect("report must embed metrics")
            .get("series")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(series.len(), 2);
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("session_m_count{rung=\"dense\"} 3"), "{text}");
        assert!(text.contains("session_m_lat_count 1"), "{text}");
        let _ = std::fs::remove_file(&report);
        let _ = std::fs::remove_file(&prom);
    }

    #[test]
    fn env_flag_accepts_recognized_booleans() {
        let _l = locked();
        let var = "QMKP_OBS_TEST_FLAG";
        for (value, expected) in [
            ("0", false),
            ("false", false),
            ("OFF", false),
            ("no", false),
            ("", false),
            ("1", true),
            ("true", true),
            ("On", true),
            ("YES", true),
            // Malformed values warn on stderr and err on the side of
            // recording.
            ("maybe", true),
            ("2", true),
        ] {
            std::env::set_var(var, value);
            assert_eq!(env_flag(var), expected, "value {value:?}");
        }
        std::env::remove_var(var);
        assert!(!env_flag(var));
    }

    #[test]
    fn env_path_skips_empty_and_unset() {
        let _l = locked();
        let var = "QMKP_OBS_TEST_PATH";
        std::env::remove_var(var);
        assert_eq!(env_path(var), None);
        std::env::set_var(var, "");
        assert_eq!(env_path(var), None);
        std::env::set_var(var, "/tmp/trace.jsonl");
        assert_eq!(env_path(var), Some("/tmp/trace.jsonl".to_string()));
        std::env::remove_var(var);
    }

    #[cfg(unix)]
    #[test]
    fn non_unicode_values_warn_and_disable() {
        use std::os::unix::ffi::OsStrExt;
        let _l = locked();
        let var = "QMKP_OBS_TEST_RAW";
        let raw = std::ffi::OsStr::from_bytes(&[0x66, 0x6f, 0x80]);
        std::env::set_var(var, raw);
        assert!(!env_flag(var), "non-unicode flag must disable");
        assert_eq!(env_path(var), None, "non-unicode path must be dropped");
        std::env::remove_var(var);
    }

    #[test]
    fn from_env_without_vars_is_inactive() {
        let _l = locked();
        // The driver never sets QMKP_OBS for the test run; guard anyway.
        if std::env::var_os("QMKP_OBS").is_none()
            && std::env::var_os("QMKP_OBS_JSON").is_none()
            && std::env::var_os("QMKP_OBS_REPORT").is_none()
        {
            let s = Session::from_env("t");
            assert!(!s.is_active());
            s.finish();
        }
    }
}
