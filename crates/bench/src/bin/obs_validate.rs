//! Validates a `qmkp-obs` JSONL trace file: every line must decode as an
//! event ([`qmkp_obs::Event::from_jsonl`], which checks the keys each
//! event type requires). Used by CI after running a traced example.
//!
//! Usage: `obs_validate <trace.jsonl> [required-span-prefix ...]`
//!
//! Extra arguments are span-name prefixes that must appear in at least
//! one `span_start` event (e.g. `qsim.compile core.grover.iteration`),
//! letting CI assert that the trace actually covers the pipeline.
//!
//! Usage: `obs_validate --report <report.json> [required-series-prefix ...]`
//!
//! Report mode instead validates a `RunReport` JSON document written via
//! `QMKP_OBS_REPORT`: it must parse, carry a `metrics.series` array, and
//! every series must satisfy the `MetricsSnapshot` schema (known kind,
//! string name, object labels, numeric value; histograms additionally
//! need monotone `p50 ≤ p90 ≤ p99 ≤ p999` quantiles inside `[min, max]`
//! and buckets summing to `count`). Extra arguments are series-name
//! prefixes that must appear at least once.
//!
//! Exits 0 when the file is valid, 1 otherwise, printing one line per
//! problem to stderr (in trace mode, the first problem of each bad line).

use qmkp_obs::json;
use qmkp_obs::json::Json;
use qmkp_obs::Event;

/// Validates one `metrics.series` entry, returning problem descriptions.
fn series_problems(entry: &Json, index: usize) -> Vec<String> {
    let mut problems = Vec::new();
    let mut complain = |msg: String| problems.push(format!("series[{index}]: {msg}"));
    let num = |field: &str| entry.get(field).and_then(Json::as_f64);
    let kind = entry.get("kind").and_then(Json::as_str).unwrap_or("");
    if !matches!(kind, "counter" | "gauge" | "histogram") {
        complain(format!("unknown kind {kind:?}"));
        return problems;
    }
    if entry.get("name").and_then(Json::as_str).is_none() {
        complain("missing string key \"name\"".to_string());
    }
    if entry.get("labels").and_then(Json::as_object).is_none() {
        complain("missing object key \"labels\"".to_string());
    }
    if num("value").is_none() {
        complain("missing numeric key \"value\"".to_string());
    }
    if kind != "histogram" {
        return problems;
    }
    let (Some(count), Some(min), Some(max)) = (num("count"), num("min"), num("max")) else {
        complain("histogram missing count/min/max".to_string());
        return problems;
    };
    if num("sum").is_none() {
        complain("histogram missing numeric key \"sum\"".to_string());
    }
    if count <= 0.0 {
        complain("histogram with zero count must be omitted from snapshots".to_string());
    }
    let Some(quantiles) = entry.get("quantiles") else {
        complain("histogram missing \"quantiles\"".to_string());
        return problems;
    };
    let mut prev = min;
    for q in ["p50", "p90", "p99", "p999"] {
        let Some(v) = quantiles.get(q).and_then(Json::as_f64) else {
            complain(format!("quantiles missing {q:?}"));
            continue;
        };
        if v < prev || v > max {
            complain(format!(
                "{q} = {v} breaks min ≤ p50 ≤ p90 ≤ p99 ≤ p999 ≤ max"
            ));
        }
        prev = prev.max(v);
    }
    match entry.get("buckets").and_then(Json::as_array) {
        Some(buckets) if !buckets.is_empty() => {
            let total: f64 = buckets
                .iter()
                .filter_map(|b| b.as_array()?.get(1)?.as_f64())
                .sum();
            if (total - count).abs() > 0.5 {
                complain(format!("bucket counts sum to {total}, count is {count}"));
            }
        }
        _ => complain("histogram missing non-empty \"buckets\"".to_string()),
    }
    problems
}

/// `--report` mode: validates a `RunReport` document's metrics section.
fn validate_report(path: &str, want_prefixes: &[String]) -> ! {
    let body = std::fs::read_to_string(path).unwrap_or_else(|err| {
        eprintln!("obs_validate: cannot read {path}: {err}");
        std::process::exit(2);
    });
    let mut problems = 0usize;
    let complain = |msg: String| {
        eprintln!("obs_validate: {path}: {msg}");
    };
    let report = match json::parse(&body) {
        Ok(v) => v,
        Err(err) => {
            complain(format!("not valid JSON: {err}"));
            std::process::exit(1);
        }
    };
    if report.get("name").and_then(Json::as_str).is_none() {
        complain("report missing string key \"name\"".to_string());
        problems += 1;
    }
    let series = report
        .get("metrics")
        .and_then(|m| m.get("series"))
        .and_then(Json::as_array);
    let Some(series) = series else {
        complain("report missing \"metrics.series\" array".to_string());
        std::process::exit(1);
    };
    let mut names: Vec<String> = Vec::new();
    let mut by_kind: std::collections::BTreeMap<String, usize> = Default::default();
    for (i, entry) in series.iter().enumerate() {
        for msg in series_problems(entry, i) {
            complain(msg);
            problems += 1;
        }
        if let Some(name) = entry.get("name").and_then(Json::as_str) {
            names.push(name.to_string());
        }
        if let Some(kind) = entry.get("kind").and_then(Json::as_str) {
            *by_kind.entry(kind.to_string()).or_default() += 1;
        }
    }
    if series.is_empty() {
        complain("metrics.series is empty (did the run record any metric?)".to_string());
        problems += 1;
    }
    for prefix in want_prefixes {
        if !names.iter().any(|n| n.starts_with(prefix.as_str())) {
            complain(format!("no metrics series with prefix {prefix:?}"));
            problems += 1;
        }
    }
    let kinds: Vec<String> = by_kind.iter().map(|(k, n)| format!("{k}={n}")).collect();
    println!(
        "obs_validate: {path}: {} metrics series ({}), {problems} problem(s)",
        series.len(),
        kinds.join(" "),
    );
    std::process::exit(if problems == 0 { 0 } else { 1 });
}

fn main() {
    let mut args = std::env::args().skip(1);
    let usage = || -> ! {
        eprintln!(
            "usage: obs_validate <trace.jsonl> [required-span-prefix ...]\n       \
             obs_validate --report <report.json> [required-series-prefix ...]"
        );
        std::process::exit(2);
    };
    let path = args.next().unwrap_or_else(|| usage());
    if path == "--report" {
        let report = args.next().unwrap_or_else(|| usage());
        let want: Vec<String> = args.collect();
        validate_report(&report, &want);
    }
    let want_prefixes: Vec<String> = args.collect();
    let body = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        eprintln!("obs_validate: cannot read {path}: {err}");
        std::process::exit(2);
    });

    let mut problems = 0usize;
    let mut lines = 0usize;
    let mut seen_spans: Vec<String> = Vec::new();
    let mut by_kind: std::collections::BTreeMap<String, usize> = Default::default();
    for (lineno, line) in body.lines().enumerate() {
        let lineno = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        match Event::from_jsonl(line) {
            Ok(event) => {
                *by_kind.entry(event.kind().to_string()).or_default() += 1;
                if let Event::SpanStart { name, .. } = event {
                    seen_spans.push(name);
                }
            }
            Err(err) => {
                eprintln!("obs_validate: {path}:{lineno}: {err}");
                problems += 1;
            }
        }
    }

    if lines == 0 {
        eprintln!("obs_validate: {path}: empty trace");
        problems += 1;
    }
    for prefix in &want_prefixes {
        if !seen_spans.iter().any(|s| s.starts_with(prefix.as_str())) {
            eprintln!("obs_validate: {path}: no span_start with prefix {prefix:?}");
            problems += 1;
        }
    }

    let kinds: Vec<String> = by_kind.iter().map(|(k, n)| format!("{k}={n}")).collect();
    println!(
        "obs_validate: {path}: {lines} events ({}), {} distinct spans, {problems} problem(s)",
        kinds.join(" "),
        seen_spans.len(),
    );
    std::process::exit(if problems == 0 { 0 } else { 1 });
}
