//! Chrome-trace exporter: converts a `qmkp-obs` JSONL trace (written by
//! `QMKP_OBS_JSON=<path>` / [`qmkp_obs::JsonlSink`]) into the Chrome
//! Trace Event JSON-array format that `chrome://tracing`, Perfetto and
//! `speedscope` all load.
//!
//! The obs wire format carries *durations*, not wall timestamps (spans
//! end with `ns`, observes are bare `ns`), so the exporter synthesizes a
//! virtual per-thread timeline: every completed span or observation
//! becomes a `"X"` complete event laid out at the thread's running
//! cursor, which only advances when work completes. Nested spans keep
//! their nesting — a span's slice starts where the cursor stood at its
//! `span_start`, and children pack left-to-right inside it. The
//! `qsim.kernel.op` observations emitted by the compiled-circuit executor
//! therefore render as back-to-back kernel slices, one per op.
//!
//! Counters and gauges become `"C"` counter tracks (counters cumulative,
//! gauges last-value); messages become `"i"` instants.
//!
//! ```text
//! cargo run -p qmkp-bench --bin chrome_trace -- trace.jsonl [--out trace.json]
//! ```

use qmkp_obs::{json, Event};
use std::collections::HashMap;
use std::fs;
use std::process::ExitCode;

/// What one conversion did, for the summary line and the tests.
#[derive(Debug, Default, PartialEq)]
struct ExportStats {
    /// `"X"` complete events (spans + observations).
    slices: usize,
    /// `"C"` counter samples (counters + gauges).
    samples: usize,
    /// `"i"` instant events (messages).
    instants: usize,
    /// Lines that were not valid obs events (skipped, reported).
    skipped: usize,
    /// Spans opened but never closed (truncated trace); rendered as
    /// best-effort slices covering the work completed inside them.
    unclosed: usize,
    /// Total nanoseconds attributed to `qsim.kernel.op` slices.
    kernel_op_ns: u128,
    /// Number of `qsim.kernel.op` slices (compiled kernel ops).
    kernel_ops: usize,
}

/// Microseconds (Chrome's unit) from nanoseconds, keeping sub-µs detail.
fn us(ns: u128) -> String {
    json::number(ns as f64 / 1000.0)
}

/// Converts one JSONL trace into a Chrome trace-event JSON array.
fn export(input: &str) -> (String, ExportStats) {
    let mut stats = ExportStats::default();
    let mut events: Vec<String> = Vec::new();
    // Virtual per-thread clocks (ns); they advance only when work ends.
    let mut cursor: HashMap<u64, u128> = HashMap::new();
    // Open span id → (cursor position at start, name, thread). Name and
    // thread are kept so a span whose end never arrives (a truncated or
    // crashed trace) can still be rendered instead of silently dropped.
    let mut open: HashMap<u64, (u128, String, u64)> = HashMap::new();
    // Cumulative counter totals by name.
    let mut totals: HashMap<String, u64> = HashMap::new();
    let mut threads: Vec<u64> = Vec::new();

    for line in input.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(event) = Event::from_jsonl(line) else {
            stats.skipped += 1;
            continue;
        };
        let thread = event.thread();
        if !threads.contains(&thread) {
            threads.push(thread);
        }
        let now = *cursor.entry(thread).or_insert(0);
        // A span slice starts where its span_start saw the cursor; an
        // observation starts at the cursor itself.
        let (name, duration, start) = match event {
            Event::SpanStart { id, name, .. } => {
                open.insert(id, (now, name, thread));
                continue;
            }
            Event::SpanEnd {
                id, name, duration, ..
            } => {
                let start = open.remove(&id).map_or(now, |(start, _, _)| start);
                (name, duration, start)
            }
            Event::Observe { name, duration, .. } => (name, duration, now),
            Event::Counter { name, delta, .. } => {
                let total = totals.entry(name.clone()).or_insert(0);
                *total += delta;
                events.push(format!(
                    "{{\"name\":{},\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":{thread},\
                     \"args\":{{\"value\":{total}}}}}",
                    json::quote(&name),
                    us(now),
                ));
                stats.samples += 1;
                continue;
            }
            Event::Gauge { name, value, .. } => {
                events.push(format!(
                    "{{\"name\":{},\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":{thread},\
                     \"args\":{{\"value\":{}}}}}",
                    json::quote(&name),
                    us(now),
                    json::number(value),
                ));
                stats.samples += 1;
                continue;
            }
            Event::Message { text, .. } => {
                events.push(format!(
                    "{{\"name\":{},\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{thread},\"s\":\"t\"}}",
                    json::quote(&text),
                    us(now),
                ));
                stats.instants += 1;
                continue;
            }
        };
        let ns = duration.as_nanos();
        events.push(format!(
            "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{thread}}}",
            json::quote(&name),
            us(start),
            us(ns),
        ));
        stats.slices += 1;
        if name == "qsim.kernel.op" {
            stats.kernel_ops += 1;
            stats.kernel_op_ns += ns;
        }
        cursor.insert(thread, now.max(start.saturating_add(ns)));
    }

    // Spans whose end never arrived (crashed or truncated run): render a
    // best-effort slice from their start to their thread's final cursor
    // — the work that completed inside them — so the viewer shows the
    // open frame instead of losing it. Sorted by id for stable output.
    let mut dangling: Vec<(u64, (u128, String, u64))> = open.into_iter().collect();
    dangling.sort_by_key(|&(id, _)| id);
    for (_, (start, name, thread)) in dangling {
        let end = *cursor.get(&thread).unwrap_or(&0);
        events.push(format!(
            "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{thread},\
             \"args\":{{\"unclosed\":true}}}}",
            json::quote(&name),
            us(start),
            us(end.saturating_sub(start)),
        ));
        stats.slices += 1;
        stats.unclosed += 1;
    }

    // Thread-name metadata rows so the viewer labels the virtual lanes.
    let mut body: Vec<String> = threads
        .iter()
        .map(|t| {
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\
                 \"args\":{{\"name\":\"obs thread {t}\"}}}}"
            )
        })
        .collect();
    body.extend(events);
    (format!("[{}]\n", body.join(",\n")), stats)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (input_path, out_path) = match args.as_slice() {
        [input] => (input.clone(), format!("{input}.trace.json")),
        [input, flag, out] if flag == "--out" => (input.clone(), out.clone()),
        _ => {
            println!("usage: chrome_trace <trace.jsonl> [--out <trace.json>]");
            return ExitCode::FAILURE;
        }
    };
    let input = match fs::read_to_string(&input_path) {
        Ok(s) => s,
        Err(e) => {
            println!("cannot read {input_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (rendered, stats) = export(&input);
    if let Err(e) = fs::write(&out_path, &rendered) {
        println!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{out_path}: {} slice(s) ({} unclosed), {} counter sample(s), {} instant(s), {} skipped",
        stats.slices, stats.unclosed, stats.samples, stats.instants, stats.skipped
    );
    if stats.kernel_ops > 0 {
        println!(
            "kernel ops: {} slice(s), {:.3} ms total, {:.1} µs/op mean",
            stats.kernel_ops,
            stats.kernel_op_ns as f64 / 1e6,
            stats.kernel_op_ns as f64 / 1e3 / stats.kernel_ops as f64,
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmkp_obs::json::Json;

    fn lines(events: &[&str]) -> String {
        events.join("\n")
    }

    #[test]
    fn spans_nest_on_the_virtual_timeline() {
        let input = lines(&[
            r#"{"type":"span_start","id":1,"parent":0,"thread":3,"name":"outer"}"#,
            r#"{"type":"span_start","id":2,"parent":1,"thread":3,"name":"inner"}"#,
            r#"{"type":"span_end","id":2,"thread":3,"name":"inner","ns":4000}"#,
            r#"{"type":"span_end","id":1,"thread":3,"name":"outer","ns":10000}"#,
        ]);
        let (out, stats) = export(&input);
        assert_eq!(stats.slices, 2);
        assert_eq!(stats.skipped, 0);
        let parsed = json::parse(&out).expect("valid JSON array");
        let arr = parsed.as_array().expect("array");
        // 1 metadata row + 2 slices.
        assert_eq!(arr.len(), 3);
        let inner = &arr[1];
        let outer = &arr[2];
        assert_eq!(inner.get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(inner.get("dur").and_then(Json::as_f64), Some(4.0));
        // The outer slice starts where its span_start saw the cursor —
        // 0 — and spans its full 10 µs, containing the inner slice.
        assert_eq!(outer.get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(outer.get("dur").and_then(Json::as_f64), Some(10.0));
    }

    #[test]
    fn kernel_op_observes_pack_back_to_back() {
        let input = lines(&[
            r#"{"type":"duration","thread":1,"name":"qsim.kernel.op","ns":2000}"#,
            r#"{"type":"duration","thread":1,"name":"qsim.kernel.op","ns":3000}"#,
        ]);
        let (out, stats) = export(&input);
        assert_eq!(stats.kernel_ops, 2);
        assert_eq!(stats.kernel_op_ns, 5000);
        let parsed = json::parse(&out).unwrap();
        let arr = parsed.as_array().unwrap();
        let first = &arr[1];
        let second = &arr[2];
        assert_eq!(first.get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(second.get("ts").and_then(Json::as_f64), Some(2.0));
        assert_eq!(second.get("dur").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn threads_get_independent_timelines() {
        let input = lines(&[
            r#"{"type":"duration","thread":1,"name":"a","ns":1000}"#,
            r#"{"type":"duration","thread":2,"name":"b","ns":1000}"#,
        ]);
        let (out, _) = export(&input);
        let parsed = json::parse(&out).unwrap();
        let arr = parsed.as_array().unwrap();
        // 2 metadata rows + 2 slices, both slices at ts 0 on their lane.
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[2].get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(arr[3].get("ts").and_then(Json::as_f64), Some(0.0));
        assert_ne!(
            arr[2].get("tid").and_then(Json::as_f64),
            arr[3].get("tid").and_then(Json::as_f64)
        );
    }

    #[test]
    fn counters_accumulate_and_gauges_sample() {
        let input = lines(&[
            r#"{"type":"counter","thread":1,"name":"rt.retries","delta":1}"#,
            r#"{"type":"counter","thread":1,"name":"rt.retries","delta":2}"#,
            r#"{"type":"gauge","thread":1,"name":"g","value":2.5}"#,
        ]);
        let (out, stats) = export(&input);
        assert_eq!(stats.samples, 3);
        let parsed = json::parse(&out).unwrap();
        let arr = parsed.as_array().unwrap();
        let second = &arr[2];
        let value = second
            .get("args")
            .and_then(|a| a.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(value, Some(3.0), "counter track is cumulative");
        let gauge = arr[3]
            .get("args")
            .and_then(|a| a.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(gauge, Some(2.5));
    }

    #[test]
    fn real_scheduled_run_round_trips_with_op_slices() {
        use qmkp_obs::Sink;
        use qmkp_qsim::{Circuit, CompiledCircuit, DenseState, Gate, QuantumState};
        let mut c = Circuit::new(6);
        for q in 0..3 {
            c.push(Gate::H(q)).unwrap();
        }
        c.push(Gate::ccnot(0, 1, 3)).unwrap();
        c.push(Gate::ccnot(1, 2, 4)).unwrap();
        let compiled = CompiledCircuit::compile(&c).unwrap();
        let path = std::env::temp_dir().join(format!(
            "chrome_trace_roundtrip_{}.jsonl",
            std::process::id()
        ));
        let sink = std::sync::Arc::new(qmkp_obs::JsonlSink::create(&path).unwrap());
        let guard = qmkp_obs::attach(sink.clone());
        let mut s = DenseState::zero(6).unwrap();
        s.run_compiled(&compiled).unwrap();
        drop(guard);
        sink.flush();

        let input = fs::read_to_string(&path).unwrap();
        let _ = fs::remove_file(&path);
        let (out, stats) = export(&input);
        let ops = compiled.len();
        assert!(ops >= 1);
        assert!(
            stats.kernel_ops >= ops,
            "expected at least {ops} op slice(s), saw {}",
            stats.kernel_ops
        );
        assert!(json::parse(&out).is_ok());
    }

    #[test]
    fn empty_input_renders_an_empty_valid_trace() {
        for input in ["", "\n\n", "   \n\t\n"] {
            let (out, stats) = export(input);
            assert_eq!(stats, ExportStats::default(), "input {input:?}");
            let parsed = json::parse(&out).expect("valid JSON array");
            assert_eq!(parsed.as_array().map(|a| a.len()), Some(0));
        }
    }

    #[test]
    fn counter_and_gauge_only_traces_render_without_slices() {
        let input = lines(&[
            r#"{"type":"counter","thread":1,"name":"rt.retries","delta":1}"#,
            r#"{"type":"gauge","thread":1,"name":"rt.ops_headroom","value":512.0}"#,
        ]);
        let (out, stats) = export(&input);
        assert_eq!(stats.slices, 0);
        assert_eq!(stats.samples, 2);
        assert_eq!(stats.skipped, 0);
        let parsed = json::parse(&out).expect("valid JSON array");
        // 1 metadata row + 2 counter samples.
        assert_eq!(parsed.as_array().map(|a| a.len()), Some(3));
    }

    #[test]
    fn unclosed_spans_render_best_effort_slices() {
        let input = lines(&[
            r#"{"type":"span_start","id":1,"parent":0,"thread":1,"name":"crashed"}"#,
            r#"{"type":"duration","thread":1,"name":"work","ns":4000}"#,
            // The trace truncates here: span 1 never ends.
        ]);
        let (out, stats) = export(&input);
        assert_eq!(stats.unclosed, 1);
        assert_eq!(stats.slices, 2, "the open span still becomes a slice");
        let parsed = json::parse(&out).expect("valid JSON array");
        let arr = parsed.as_array().unwrap();
        let crashed = arr
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("crashed"))
            .expect("unclosed span must not be silently dropped");
        assert_eq!(crashed.get("ts").and_then(Json::as_f64), Some(0.0));
        // It covers the work that completed inside it (4 µs) and is
        // flagged so viewers can tell it from a measured duration.
        assert_eq!(crashed.get("dur").and_then(Json::as_f64), Some(4.0));
        let flagged = crashed
            .get("args")
            .and_then(|a| a.get("unclosed"))
            .is_some();
        assert!(flagged, "unclosed slices carry args.unclosed");
    }

    #[test]
    fn span_end_without_matching_start_still_renders() {
        let input = lines(&[r#"{"type":"span_end","id":9,"thread":1,"name":"orphan","ns":2000}"#]);
        let (out, stats) = export(&input);
        assert_eq!(stats.slices, 1);
        assert_eq!(stats.unclosed, 0);
        assert!(json::parse(&out).is_ok());
    }

    #[test]
    fn garbage_lines_are_skipped_not_fatal() {
        let input = lines(&[
            "not json at all",
            r#"{"type":"mystery","thread":1}"#,
            r#"{"type":"message","thread":1,"text":"hello"}"#,
        ]);
        let (out, stats) = export(&input);
        assert_eq!(stats.skipped, 2);
        assert_eq!(stats.instants, 1);
        assert!(json::parse(&out).is_ok(), "output must stay valid JSON");
    }
}
