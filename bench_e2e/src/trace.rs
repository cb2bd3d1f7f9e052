//! The benchmark's own spans, kept in memory and written out when the
//! run ends, and the per-layer table built from them.
//!
//! Spans sit at layer boundaries the benchmark can reach from outside
//! the program: around the calls it makes into each layer's public
//! functions. Where a layer has no seam inside a request, its time comes
//! one of two other ways, and the span says which:
//!
//! * [`Kind::Reported`] — a duration the program itself returned (the
//!   `SectionTimes` buckets of a solve), laid end to end from the
//!   parent's start;
//! * [`Kind::Shadow`] — the same public function called again on the
//!   same input right after the request, outside its timing.
//!
//! A span's self time is its duration minus its children's durations.
//! The self time of the container spans (`request`, `solve`) is the
//! remainder no named layer accounts for.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// How a span's duration was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Timed by the benchmark around a call inside the request.
    Timed,
    /// A duration the program returned for work inside the request.
    Reported,
    /// The same call re-timed on the same input after the request.
    Shadow,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Timed => "timed",
            Kind::Reported => "reported",
            Kind::Shadow => "shadow",
        }
    }
}

/// Span names whose self time is unattributed remainder, not a layer.
pub const CONTAINERS: [&str; 2] = ["request", "solve"];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub kind: Kind,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// All spans of one traced pass, plus per-request instance labels.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    /// Instance label of each request id.
    instances: BTreeMap<u64, String>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            instances: BTreeMap::new(),
        }
    }
}

impl Trace {
    /// Offset of `t` from the trace epoch.
    pub fn at(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.epoch)
    }

    /// Labels request `request` with its instance (for the remainder
    /// table).
    pub fn label(&mut self, request: u64, instance: &str) {
        self.instances.insert(request, instance.to_string());
    }

    /// Records a span measured over `[start, end)`; returns its id.
    pub fn record(
        &mut self,
        name: &str,
        kind: Kind,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let (start, end) = (self.at(start), self.at(end));
        self.push(name, kind, start, end, parent, request)
    }

    /// Records a child of `parent` that has only a duration, laid out
    /// after the parent's earlier duration-only children.
    pub fn child(&mut self, name: &str, kind: Kind, d: Duration, parent: usize) -> usize {
        let offset: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.kind != Kind::Timed)
            .map(Span::duration)
            .sum();
        let start = self.spans[parent].start + offset;
        let request = self.spans[parent].request;
        self.push(name, kind, start, start + d, Some(parent), request)
    }

    fn push(
        &mut self,
        name: &str,
        kind: Kind,
        start: Duration,
        end: Duration,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            kind,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its children's.
    /// Negative when shadow-timed children overshoot the parent.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| s.duration().as_secs_f64())
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration().as_secs_f64();
            }
        }
        own
    }

    /// Summed duration of the root spans: the wall time of all requests.
    pub fn request_wall(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration().as_secs_f64())
            .sum()
    }

    /// Summed self time of the container spans (unattributed remainder).
    pub fn unattributed(&self) -> f64 {
        let own = self.self_times();
        self.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| CONTAINERS.contains(&s.name.as_str()))
            .map(|(_, t)| t)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"kind\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name,
                s.kind.label(),
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.request
            );
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(out.as_bytes())?;
        file.flush()
    }

    /// The per-layer table: one row per span name with its kinds, span
    /// count, self time per request, and share of request wall time;
    /// then the unattributed remainder per instance and in total.
    pub fn table(&self, requests: usize) -> String {
        let own = self.self_times();
        let wall = self.request_wall();
        let per_req = |t: f64| t / requests.max(1) as f64;
        // name -> (kinds, spans, self seconds), in first-seen order.
        let mut order: Vec<&str> = Vec::new();
        let mut rows: BTreeMap<&str, (Vec<&str>, usize, f64)> = BTreeMap::new();
        for (s, &t) in self.spans.iter().zip(&own) {
            let row = rows.entry(&s.name).or_insert_with(|| {
                order.push(&s.name);
                (Vec::new(), 0, 0.0)
            });
            if !row.0.contains(&s.kind.label()) {
                row.0.push(s.kind.label());
            }
            row.1 += 1;
            row.2 += t;
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "| layer | kind | spans | self s/request | share of wall |\n|---|---|---:|---:|---:|"
        );
        for name in order {
            let (kinds, n, t) = &rows[name];
            let name = if CONTAINERS.contains(&name) {
                format!("{name} (unattributed)")
            } else {
                name.to_string()
            };
            let _ = writeln!(
                out,
                "| {name} | {} | {n} | {:.6} | {:.2}% |",
                kinds.join("+"),
                per_req(*t),
                100.0 * t / wall.max(f64::MIN_POSITIVE)
            );
        }
        let _ = writeln!(
            out,
            "\n| instance | requests | wall s | unattributed s | unattributed share |\n|---|---:|---:|---:|---:|"
        );
        // instance -> (requests, wall, unattributed)
        let mut per_instance: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (s, &t) in self.spans.iter().zip(&own) {
            let label = self.instances.get(&s.request).map_or("?", String::as_str);
            let row = per_instance.entry(label).or_default();
            if s.parent.is_none() {
                row.0 += 1;
                row.1 += s.duration().as_secs_f64();
            }
            if CONTAINERS.contains(&s.name.as_str()) {
                row.2 += t;
            }
        }
        for (label, (n, w, u)) in &per_instance {
            let _ = writeln!(
                out,
                "| {label} | {n} | {w:.6} | {u:.6} | {:.2}% |",
                100.0 * u / w.max(f64::MIN_POSITIVE)
            );
        }
        let un = self.unattributed();
        let _ = writeln!(
            out,
            "| total | {requests} | {wall:.6} | {un:.6} | {:.2}% |",
            100.0 * un / wall.max(f64::MIN_POSITIVE)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_containers_hold_the_remainder() {
        let mut t = Trace::default();
        let t0 = t.epoch;
        let ms = Duration::from_millis;
        let root = t.record("solve", Kind::Timed, (t0, t0 + ms(10)), None, 0);
        t.label(0, "fig1");
        let p = t.record(
            "core.provider",
            Kind::Timed,
            (t0, t0 + ms(3)),
            Some(root),
            0,
        );
        t.child("core.oracle_build", Kind::Shadow, ms(1), p);
        t.child("qsim.kernel.flip", Kind::Reported, ms(4), root);
        t.child("qsim.kernel.diffusion", Kind::Reported, ms(2), root);
        let own = t.self_times();
        assert!((own[root] - 0.001).abs() < 1e-9, "10 - 3 - 4 - 2 ms");
        assert!((own[p] - 0.002).abs() < 1e-9);
        assert!((t.unattributed() - 0.001).abs() < 1e-9);
        assert!((t.request_wall() - 0.010).abs() < 1e-9);
        // Duration-only children are laid end to end inside the parent.
        assert_eq!(t.spans()[4].start, t.spans()[3].end);
        let table = t.table(1);
        assert!(table.contains("| solve (unattributed) | timed | 1 | 0.001000 | 10.00% |"));
        assert!(table.contains("| fig1 | 1 | 0.010000 | 0.001000 | 10.00% |"));
    }
}
