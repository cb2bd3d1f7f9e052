//! Labeled metric series: counters, gauges, and log-linear HDR-style
//! histograms with quantile estimation.
//!
//! [`Metrics`] is the aggregation side of the crate: a [`Sink`] on the
//! one event stream. Where the other sinks keep or write every
//! occurrence, it folds occurrences into fixed-size series in place, so
//! a run of any length produces a bounded-size [`MetricsSnapshot`] — the
//! telemetry envelope a [`crate::RunReport`] carries. Each event is
//! folded by kind:
//!
//! - counters sum their deltas;
//! - gauges keep their last *finite* value (a non-finite one would
//!   serialize as `null`);
//! - observations and closed spans land in histograms (in nanoseconds).
//!
//! Series are keyed by `(kind, name, labels)`.
//!
//! # Cost model
//!
//! The sink only runs while attached, so the disabled path is the
//! facade's one relaxed load. Attached, a record is a read-locked hash
//! lookup keyed by `(kind, name, labels)` — computed over the event's
//! borrowed strings, so folding allocates nothing once a series exists —
//! then a handful of relaxed atomic updates on one of [`SHARDS`]
//! per-thread shards. Histogram bucket arrays are allocated lazily on
//! each shard's first record.
//!
//! # Histogram design and error bound
//!
//! Values are `u64` nanoseconds and land in log-linear buckets: values
//! `0..=31` get exact unit buckets; above that, each power-of-two octave
//! is split into 32 linear sub-buckets ([`SUB_BITS`]` = 5`). Quantiles
//! are estimated by nearest-rank over the bucket counts, reporting the
//! midpoint of the selected bucket clamped to the observed `[min, max]`.
//!
//! **Error bound**: a bucket holding value `v ≥ 32` spans a range of
//! width `2^(h-5)` starting at or above `32·2^(h-5)` (where `h` is the
//! bit length of `v` minus one), so the midpoint is within `1/64` of any
//! value in the bucket. Quantile estimates therefore satisfy
//! `|est − exact| ≤ exact/64 + 1` (the `+1` absorbs integer midpoint
//! rounding); values below 32 are exact. This bound is proptest-verified
//! against an exact sorted reference in this module's tests.

use crate::event::Event;
use crate::json;
use crate::sink::Sink;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// Number of per-thread shards per series. Threads map to shards by
/// `thread_id % SHARDS`; shards are merged at snapshot time.
pub const SHARDS: usize = 8;

/// Sub-bucket resolution exponent: each power-of-two octave is split
/// into `2^SUB_BITS = 32` linear sub-buckets.
pub const SUB_BITS: u32 = 5;

const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Total histogram buckets: 32 exact unit buckets for `0..=31`, then 32
/// sub-buckets for each of the 59 octaves covering `32..=u64::MAX`.
pub const NUM_BUCKETS: usize = (SUB_COUNT as usize) * 60;

/// The quantiles every histogram snapshot reports.
pub const QUANTILES: [(&str, f64); 4] =
    [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)];

/// What a series measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SeriesKind {
    /// Monotonic sum of deltas.
    Counter,
    /// Last-set finite value.
    Gauge,
    /// Log-linear value distribution with quantiles.
    Histogram,
}

impl SeriesKind {
    /// Stable lowercase name used in JSON and Prometheus output.
    pub fn name(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
            SeriesKind::Histogram => "histogram",
        }
    }
}

struct Shard {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: OnceLock<Box<[AtomicU64]>>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: OnceLock::new(),
        }
    }

    fn add(&self, delta: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(delta, Ordering::Relaxed);
    }

    fn record(&self, value: u64) {
        self.add(value);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        let buckets = self.buckets.get_or_init(|| {
            (0..NUM_BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }
}

struct Series {
    kind: SeriesKind,
    name: String,
    labels: Vec<(String, String)>,
    /// f64 bit pattern of the last gauge value (gauges only).
    gauge_bits: AtomicU64,
    shards: [Shard; SHARDS],
}

impl Series {
    fn new(kind: SeriesKind, name: &str, labels: &[(String, String)]) -> Series {
        Series {
            kind,
            name: name.to_string(),
            labels: labels.to_vec(),
            gauge_bits: AtomicU64::new(0f64.to_bits()),
            shards: std::array::from_fn(|_| Shard::new()),
        }
    }

    fn matches(&self, kind: SeriesKind, name: &str, labels: &[(String, String)]) -> bool {
        self.kind == kind && self.name == name && self.labels == labels
    }

    fn set(&self, s: &Shard, value: f64) {
        self.gauge_bits.store(value.to_bits(), Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SeriesSnapshot {
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut shards_touched = 0u64;
        let mut merged = vec![0u64; NUM_BUCKETS];
        for s in &self.shards {
            let c = s.count.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            shards_touched += 1;
            count += c;
            sum = sum.wrapping_add(s.sum.load(Ordering::Relaxed));
            min = min.min(s.min.load(Ordering::Relaxed));
            max = max.max(s.max.load(Ordering::Relaxed));
            if let Some(buckets) = s.buckets.get() {
                for (m, b) in merged.iter_mut().zip(buckets.iter()) {
                    *m += b.load(Ordering::Relaxed);
                }
            }
        }
        let buckets: Vec<(u32, u64)> = merged
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect();
        if self.kind != SeriesKind::Histogram {
            min = 0;
        }
        let value = match self.kind {
            SeriesKind::Counter => sum as f64,
            SeriesKind::Gauge => f64::from_bits(self.gauge_bits.load(Ordering::Relaxed)),
            SeriesKind::Histogram => sum as f64,
        };
        let quantiles = if self.kind == SeriesKind::Histogram {
            estimate_quantiles(&buckets, count, min, max)
        } else {
            Vec::new()
        };
        SeriesSnapshot {
            kind: self.kind,
            name: self.name.clone(),
            labels: self.labels.clone(),
            value,
            count,
            sum,
            min: if count == 0 { 0 } else { min },
            max,
            shards: shards_touched,
            quantiles,
            buckets,
        }
    }
}

/// Maps a value to its log-linear bucket (see the module docs).
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        v as usize
    } else {
        let h = 63 - v.leading_zeros(); // bit length - 1; >= SUB_BITS here
        let sub = ((v >> (h - SUB_BITS)) & (SUB_COUNT - 1)) as usize;
        (((h - SUB_BITS + 1) as usize) << SUB_BITS) + sub
    }
}

/// The inclusive `[lo, hi]` value range covered by bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB_COUNT as usize {
        (i as u64, i as u64)
    } else {
        let octave = (i >> SUB_BITS) as u32; // 1..=59
        let h = octave + SUB_BITS - 1;
        let sub = (i as u64) & (SUB_COUNT - 1);
        let lo = (SUB_COUNT + sub) << (h - SUB_BITS);
        let width = 1u64 << (h - SUB_BITS);
        (lo, lo + (width - 1))
    }
}

fn bucket_mid(i: usize) -> u64 {
    let (lo, hi) = bucket_bounds(i);
    lo + (hi - lo) / 2
}

/// Nearest-rank quantile estimate over sparse `(bucket, count)` pairs:
/// the midpoint of the bucket holding the rank-`⌈q·count⌉` sample,
/// clamped to the observed `[min, max]`.
pub fn quantile_from(buckets: &[(u32, u64)], count: u64, min: u64, max: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for &(i, c) in buckets {
        cum += c;
        if cum >= rank {
            return bucket_mid(i as usize).clamp(min, max);
        }
    }
    max
}

fn estimate_quantiles(
    buckets: &[(u32, u64)],
    count: u64,
    min: u64,
    max: u64,
) -> Vec<(String, u64)> {
    QUANTILES
        .iter()
        .map(|&(name, q)| (name.to_string(), quantile_from(buckets, count, min, max, q)))
        .collect()
}

/// The metrics sink: attach it (directly or through a
/// [`crate::Session`]) and read its [`Metrics::snapshot`] at any time.
#[derive(Default)]
pub struct Metrics {
    series: RwLock<HashMap<u64, Vec<Series>>>,
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn series_hash(kind: SeriesKind, name: &str, labels: &[(String, String)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut h, &[kind as u8]);
    fnv1a(&mut h, name.as_bytes());
    for (k, v) in labels {
        fnv1a(&mut h, &[0xff]);
        fnv1a(&mut h, k.as_bytes());
        fnv1a(&mut h, &[0xfe]);
        fnv1a(&mut h, v.as_bytes());
    }
    h
}

impl Metrics {
    /// An empty metrics sink.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Looks up (or on first touch, creates) the series and applies `f`
    /// to it and to `thread`'s shard.
    fn fold(
        &self,
        kind: SeriesKind,
        name: &str,
        labels: &[(String, String)],
        thread: u64,
        f: impl FnOnce(&Series, &Shard),
    ) {
        let hash = series_hash(kind, name, labels);
        let apply = |s: &Series| f(s, &s.shards[(thread as usize) % SHARDS]);
        {
            let map = self.series.read().unwrap_or_else(|e| e.into_inner());
            if let Some(s) = map
                .get(&hash)
                .and_then(|chain| chain.iter().find(|s| s.matches(kind, name, labels)))
            {
                apply(s);
                return;
            }
        }
        let mut map = self.series.write().unwrap_or_else(|e| e.into_inner());
        let chain = map.entry(hash).or_default();
        let i = match chain.iter().position(|s| s.matches(kind, name, labels)) {
            Some(i) => i,
            None => {
                chain.push(Series::new(kind, name, labels));
                chain.len() - 1
            }
        };
        apply(&chain[i]);
    }

    /// Captures the current state of every series, sorted by name, kind,
    /// and labels, so each metric family is contiguous.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut series: Vec<SeriesSnapshot> = self
            .series
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .flatten()
            .map(Series::snapshot)
            .collect();
        series.sort_by(|a, b| {
            a.name
                .cmp(&b.name)
                .then_with(|| a.kind.cmp(&b.kind))
                .then_with(|| a.labels.cmp(&b.labels))
        });
        MetricsSnapshot { series }
    }
}

fn nanos(d: &std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Sink for Metrics {
    fn record(&self, event: &Event) {
        use SeriesKind::{Counter, Gauge, Histogram};
        match event {
            Event::Counter {
                thread,
                name,
                labels,
                delta,
            } => self.fold(Counter, name, labels, *thread, |_, sh| sh.add(*delta)),
            Event::Gauge {
                thread,
                name,
                labels,
                value,
            } if value.is_finite() => {
                self.fold(Gauge, name, labels, *thread, |s, sh| s.set(sh, *value));
            }
            Event::Observe {
                thread,
                name,
                labels,
                duration,
            } => self.fold(Histogram, name, labels, *thread, |_, sh| {
                sh.record(nanos(duration));
            }),
            Event::SpanEnd {
                thread,
                name,
                duration,
                ..
            } => self.fold(Histogram, name, &[], *thread, |_, sh| {
                sh.record(nanos(duration));
            }),
            _ => {}
        }
    }
}

/// One series' aggregated state at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// What the series measures.
    pub kind: SeriesKind,
    /// Series name (dotted, e.g. `solve.rung_ns`).
    pub name: String,
    /// Label key/value pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// Counter total, gauge last value, or histogram sum.
    pub value: f64,
    /// Number of recorded events.
    pub count: u64,
    /// Sum of recorded values (counters: same as `value`).
    pub sum: u64,
    /// Smallest recorded value (histograms; 0 otherwise).
    pub min: u64,
    /// Largest recorded value (histograms; 0 otherwise).
    pub max: u64,
    /// Number of thread shards that recorded into this series.
    pub shards: u64,
    /// `(name, estimate)` quantile pairs (histograms only).
    pub quantiles: Vec<(String, u64)>,
    /// Sparse non-empty `(bucket index, count)` pairs, ascending
    /// (histograms only).
    pub buckets: Vec<(u32, u64)>,
}

/// A point-in-time capture of a [`Metrics`] sink: the telemetry
/// envelope folded into [`crate::RunReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All series, sorted by `(name, kind, labels)`.
    pub series: Vec<SeriesSnapshot>,
}

impl MetricsSnapshot {
    /// Whether no series recorded anything.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The series with exactly this name and label set, if present.
    /// Labels must match in full (order-insensitively); pass `&[]` for
    /// an unlabeled series.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SeriesSnapshot> {
        self.series.iter().find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
        })
    }

    /// The value of the series with this name and label set: counter
    /// total, gauge last value, or histogram sum — 0.0 when the series
    /// never recorded. The assertion-friendly accessor for tests and CI
    /// guards.
    pub fn value_of(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.find(name, labels).map_or(0.0, |s| s.value)
    }

    /// The snapshot as a JSON document (trailing newline included).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, 0);
        out.push('\n');
        out
    }

    /// Writes the snapshot as a JSON object at the given indent depth
    /// (two spaces per level); used to embed it in a larger document.
    pub(crate) fn write_json(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        let _ = write!(out, "{{\n{pad}  \"series\": [");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n{pad}    {{");
            let _ = write!(
                out,
                "\"kind\": {}, \"name\": {}, \"labels\": {{",
                json::quote(s.kind.name()),
                json::quote(&s.name)
            );
            for (j, (k, v)) in s.labels.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}: {}", json::quote(k), json::quote(v));
            }
            let _ = write!(
                out,
                "}}, \"value\": {}, \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"shards\": {}",
                json::number(s.value),
                s.count,
                s.sum,
                s.min,
                s.max,
                s.shards
            );
            if s.kind == SeriesKind::Histogram {
                out.push_str(", \"quantiles\": {");
                for (j, (q, v)) in s.quantiles.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{}: {v}", json::quote(q));
                }
                out.push_str("}, \"buckets\": [");
                for (j, (b, c)) in s.buckets.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "[{b}, {c}]");
                }
                out.push(']');
            }
            out.push('}');
        }
        if !self.series.is_empty() {
            let _ = write!(out, "\n{pad}  ");
        }
        let _ = write!(out, "]\n{pad}}}");
    }

    /// Prometheus-style text exposition: counters and gauges as single
    /// samples, histograms as summaries (`{quantile="0.5"}` samples plus
    /// `_count` and `_sum`), one `# TYPE` line per metric family. Dots in
    /// names become underscores.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut family: Option<(String, SeriesKind)> = None;
        for s in &self.series {
            let name = sanitize_metric_name(&s.name);
            let prom_type = match s.kind {
                SeriesKind::Counter => "counter",
                SeriesKind::Gauge => "gauge",
                SeriesKind::Histogram => "summary",
            };
            let this = Some((name.clone(), s.kind));
            if family != this {
                let _ = writeln!(out, "# TYPE {name} {prom_type}");
                family = this;
            }
            match s.kind {
                SeriesKind::Counter => {
                    let _ = writeln!(out, "{name}{} {}", prom_labels(&s.labels, None), s.sum);
                }
                SeriesKind::Gauge => {
                    let _ = writeln!(
                        out,
                        "{name}{} {}",
                        prom_labels(&s.labels, None),
                        json::number(s.value)
                    );
                }
                SeriesKind::Histogram => {
                    for ((_, q), (_, v)) in QUANTILES.iter().zip(&s.quantiles) {
                        let quantile = format!("{q}");
                        let _ =
                            writeln!(out, "{name}{} {v}", prom_labels(&s.labels, Some(&quantile)));
                    }
                    let plain = prom_labels(&s.labels, None);
                    let _ = writeln!(out, "{name}_count{plain} {}", s.count);
                    let _ = writeln!(out, "{name}_sum{plain} {}", s.sum);
                }
            }
        }
        out
    }
}

fn sanitize_metric_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn prom_labels(labels: &[(String, String)], quantile: Option<&str>) -> String {
    if labels.is_empty() && quantile.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}=\"{}\"",
            sanitize_metric_name(k),
            v.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        );
    }
    if let Some(q) = quantile {
        if !labels.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "quantile=\"{q}\"");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, gauge, observe};
    use std::sync::Arc;
    use std::time::Duration;

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        crate::tests::TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// A fresh metrics sink, attached until the handle drops.
    fn attached() -> (Arc<Metrics>, crate::SinkHandle) {
        let metrics = Arc::new(Metrics::new());
        let handle = crate::attach(metrics.clone());
        (metrics, handle)
    }

    #[test]
    fn bucket_bounds_invert_bucket_index() {
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi, "bucket {i}");
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi of bucket {i}");
            let mid = lo + (hi - lo) / 2;
            assert_eq!(bucket_index(mid), i, "mid of bucket {i}");
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
    }

    #[test]
    fn bucket_midpoint_relative_error_is_bounded() {
        for i in 32..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            let mid = lo + (hi - lo) / 2;
            // Any value v in [lo, hi] differs from mid by at most
            // (hi - lo + 1) / 2 <= lo / 64 <= v / 64.
            let half_width = (hi - lo).div_ceil(2);
            assert!(
                half_width as u128 * 64 <= lo as u128 + 64,
                "bucket {i}: half width {half_width} vs lo {lo}"
            );
            let _ = mid;
        }
    }

    #[test]
    fn find_and_value_of_match_name_and_labels() {
        let _l = locked();
        let (metrics, _g) = attached();
        counter("m.find.c", &[("lane", "dense")], 3);
        counter("m.find.c", &[("lane", "sparse")], 5);
        gauge("m.find.g", &[], 2.5);
        let snap = metrics.snapshot();
        assert_eq!(snap.value_of("m.find.c", &[("lane", "dense")]), 3.0);
        assert_eq!(snap.value_of("m.find.c", &[("lane", "sparse")]), 5.0);
        assert_eq!(snap.value_of("m.find.g", &[]), 2.5);
        // Full-label-set match only: a subset or a miss finds nothing.
        assert!(snap.find("m.find.c", &[]).is_none());
        assert!(snap.find("m.find.c", &[("lane", "classical")]).is_none());
        assert_eq!(snap.value_of("m.absent", &[]), 0.0);
        let s = snap.find("m.find.c", &[("lane", "dense")]).unwrap();
        assert_eq!(s.count, 1);
    }

    #[test]
    fn disabled_is_a_no_op() {
        let _l = locked();
        let (metrics, g) = attached();
        drop(g);
        assert!(!crate::enabled());
        counter("m.off", &[], 1);
        gauge("m.off.g", &[], 1.0);
        observe("m.off.h", &[], Duration::from_nanos(7));
        assert!(metrics.snapshot().is_empty());
    }

    #[test]
    fn counters_and_gauges_aggregate() {
        let _l = locked();
        let (metrics, _g) = attached();
        counter("m.c", &[("k", "a")], 2);
        counter("m.c", &[("k", "a")], 3);
        counter("m.c", &[("k", "b")], 10);
        gauge("m.g", &[], 1.5);
        gauge("m.g", &[], 2.5);
        let snap = metrics.snapshot();
        assert_eq!(snap.series.len(), 3);
        let ca = snap
            .series
            .iter()
            .find(|s| s.name == "m.c" && s.labels[0].1 == "a")
            .unwrap();
        assert_eq!(ca.sum, 5);
        assert_eq!(ca.count, 2);
        assert_eq!(ca.value, 5.0);
        let g = snap.series.iter().find(|s| s.name == "m.g").unwrap();
        assert_eq!(g.value, 2.5);
        assert_eq!(g.count, 2);
    }

    #[test]
    fn gauges_keep_their_last_finite_value() {
        let _l = locked();
        let (metrics, _g) = attached();
        gauge("m.nf", &[], 4.0);
        gauge("m.nf", &[], f64::INFINITY);
        gauge("m.nf", &[], f64::NAN);
        gauge("m.only_nan", &[], f64::NAN);
        let snap = metrics.snapshot();
        let g = snap.find("m.nf", &[]).unwrap();
        assert_eq!((g.value, g.count), (4.0, 1));
        assert!(snap.find("m.only_nan", &[]).is_none());
        crate::json::parse(&snap.to_json()).expect("no null values");
    }

    #[test]
    fn closed_spans_fold_into_histograms_named_after_them() {
        let _l = locked();
        let (metrics, _g) = attached();
        crate::span_closed("m.span.section", Duration::from_nanos(40));
        crate::span_closed("m.span.section", Duration::from_nanos(2));
        crate::span("m.span.live").finish();
        let snap = metrics.snapshot();
        let h = snap.find("m.span.section", &[]).unwrap();
        assert_eq!(h.kind, SeriesKind::Histogram);
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 42, 2, 40));
        assert_eq!(snap.find("m.span.live", &[]).unwrap().count, 1);
    }

    #[test]
    fn histogram_tracks_exact_stats_and_small_values_exactly() {
        let _l = locked();
        let (metrics, _g) = attached();
        for v in [0u64, 1, 5, 5, 31, 17] {
            observe("m.h", &[], Duration::from_nanos(v));
        }
        let snap = metrics.snapshot();
        let h = &snap.series[0];
        assert_eq!(h.kind, SeriesKind::Histogram);
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 59);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 31);
        // All values < 32 sit in exact buckets, so quantiles are exact
        // nearest-rank answers: sorted = [0,1,5,5,17,31].
        let q: std::collections::HashMap<_, _> =
            h.quantiles.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(q["p50"], 5);
        assert_eq!(q["p90"], 31);
        assert_eq!(q["p999"], 31);
    }

    #[test]
    fn observe_duration_records_nanoseconds() {
        let _l = locked();
        let (metrics, _g) = attached();
        observe("m.d", &[("x", "1")], Duration::from_micros(3));
        let snap = metrics.snapshot();
        assert_eq!(snap.series[0].sum, 3_000);
        assert_eq!(snap.series[0].count, 1);
    }

    #[test]
    fn same_name_different_kind_or_labels_are_distinct_series() {
        let _l = locked();
        let (metrics, _g) = attached();
        counter("m.same", &[], 1);
        observe("m.same", &[], Duration::from_nanos(1));
        counter("m.same", &[("a", "1")], 1);
        assert_eq!(metrics.snapshot().series.len(), 3);
    }

    #[test]
    fn snapshot_json_parses_and_prometheus_has_expected_lines() {
        let _l = locked();
        let (metrics, _g) = attached();
        counter("m.req.total", &[("rung", "dense")], 4);
        counter("m.req.total", &[("rung", "sparse")], 1);
        for v in 1..=100u64 {
            observe(
                "m.lat.ns",
                &[("rung", "dense")],
                Duration::from_nanos(v * 1000),
            );
        }
        gauge("m.mem", &[], 42.0);
        let snap = metrics.snapshot();
        let doc = crate::json::parse(&snap.to_json()).expect("snapshot JSON must parse");
        let series = doc.get("series").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 4);
        let hist = series
            .iter()
            .find(|s| s.get("kind").unwrap().as_str() == Some("histogram"))
            .unwrap();
        assert!(hist
            .get("quantiles")
            .unwrap()
            .get("p50")
            .unwrap()
            .as_f64()
            .is_some());
        assert!(!hist.get("buckets").unwrap().as_array().unwrap().is_empty());

        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE m_req_total counter"), "{prom}");
        assert_eq!(
            prom.matches("# TYPE m_req_total counter").count(),
            1,
            "one TYPE line per family: {prom}"
        );
        assert!(prom.contains("m_req_total{rung=\"dense\"} 4"), "{prom}");
        assert!(prom.contains("m_req_total{rung=\"sparse\"} 1"), "{prom}");
        assert!(prom.contains("# TYPE m_lat_ns summary"), "{prom}");
        assert!(
            prom.contains("m_lat_ns{rung=\"dense\",quantile=\"0.5\"}"),
            "{prom}"
        );
        assert!(
            prom.contains("m_lat_ns_count{rung=\"dense\"} 100"),
            "{prom}"
        );
        assert!(prom.contains("# TYPE m_mem gauge"), "{prom}");
        assert!(prom.contains("m_mem 42"), "{prom}");
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let _l = locked();
        let (metrics, _g) = attached();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1000u64 {
                        counter("m.mt.c", &[], 1);
                        observe("m.mt.h", &[("t", "x")], Duration::from_nanos(i));
                    }
                });
            }
        });
        let snap = metrics.snapshot();
        let c = snap.series.iter().find(|s| s.name == "m.mt.c").unwrap();
        assert_eq!(c.sum, 4000);
        let h = snap.series.iter().find(|s| s.name == "m.mt.h").unwrap();
        assert_eq!(h.count, 4000);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 999);
        assert!(h.shards >= 1);
    }

    /// Exact nearest-rank quantile over a sorted slice.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Builds the sparse bucket representation for a value set.
    fn sparse_buckets(values: &[u64]) -> Vec<(u32, u64)> {
        let mut merged = std::collections::BTreeMap::new();
        for &v in values {
            *merged.entry(bucket_index(v) as u32).or_insert(0u64) += 1;
        }
        merged.into_iter().collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The documented bound: |est - exact| <= exact/64 + 1, for every
        /// reported quantile, against an exact sorted reference.
        #[test]
        fn quantile_estimates_stay_within_documented_bound(
            mut values in proptest::collection::vec(0u64..=(1u64 << 48), 1..300),
        ) {
            values.sort_unstable();
            let buckets = sparse_buckets(&values);
            let count = values.len() as u64;
            let min = values[0];
            let max = values[values.len() - 1];
            for &(_, q) in QUANTILES.iter() {
                let exact = exact_quantile(&values, q);
                let est = quantile_from(&buckets, count, min, max, q);
                let err = (est as i128 - exact as i128).unsigned_abs();
                proptest::prop_assert!(
                    err <= (exact / 64) as u128 + 1,
                    "q={q}: est {est} vs exact {exact} (err {err}, n={count})"
                );
            }
        }

        /// Small values (< 32) always land in exact unit buckets.
        #[test]
        fn small_values_are_exact(
            mut values in proptest::collection::vec(0u64..32, 1..200),
        ) {
            values.sort_unstable();
            let buckets = sparse_buckets(&values);
            let count = values.len() as u64;
            for &(_, q) in QUANTILES.iter() {
                let exact = exact_quantile(&values, q);
                let est = quantile_from(&buckets, count, values[0], values[values.len() - 1], q);
                proptest::prop_assert_eq!(est, exact);
            }
        }
    }
}
