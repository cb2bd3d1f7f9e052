//! Flamegraph exporter: folds a `qmkp-obs` JSONL trace (written by
//! `QMKP_OBS_JSON=<path>` / [`qmkp_obs::JsonlSink`]) into the
//! collapsed-stack format that `flamegraph.pl`, `inferno` and
//! `speedscope` all consume:
//!
//! ```text
//! thread-1;solve.run;core.qmkp;qsim.kernel.op 1234
//! ```
//!
//! One line per distinct stack, frames root-first separated by `;`, the
//! weight in integer **microseconds** of *self time* — a span's duration
//! minus the durations of its closed children and of the observations
//! attributed inside it, so the folded weights sum to wall time instead
//! of double-counting nested work. Each thread gets its own synthetic
//! `thread-<id>` root frame, keeping per-thread timelines separable in
//! the rendered graph.
//!
//! Spans nest via the wire `parent` ids; bare `duration` observations
//! (e.g. `qsim.kernel.op` from the compiled-circuit executor) become leaf
//! frames under the innermost span open on their thread. Spans never
//! closed in the trace (a crashed or truncated run) carry no duration
//! and are counted, not folded.
//!
//! ```text
//! cargo run -p qmkp-bench --bin flamegraph -- trace.jsonl [--out trace.folded]
//! ```

use qmkp_obs::Event;
use std::collections::HashMap;
use std::fs;
use std::process::ExitCode;

/// What one fold did, for the summary line and the tests.
#[derive(Debug, Default, PartialEq)]
struct FoldStats {
    /// Distinct stacks in the output (lines).
    stacks: usize,
    /// Closed spans folded in.
    spans: usize,
    /// Bare duration observations folded in.
    observations: usize,
    /// Spans opened but never closed (dropped: no duration known).
    unclosed: usize,
    /// Lines that were not valid obs events (skipped, reported).
    skipped: usize,
    /// Total self-time nanoseconds folded in.
    total_ns: u128,
}

/// A span that has started but not yet ended.
struct OpenSpan {
    name: String,
    parent: u64,
    /// Nanoseconds already attributed to closed children and inner
    /// observations, subtracted from this span's own weight at close.
    child_ns: u64,
}

/// Root-first frame path for the innermost open span `id`, walking the
/// parent chain through the still-open spans (children always close
/// before their parents, so every ancestor of an open span is open).
fn stack_of(open: &HashMap<u64, OpenSpan>, thread: u64, mut id: u64) -> String {
    let mut frames: Vec<&str> = Vec::new();
    while id != 0 {
        let Some(span) = open.get(&id) else { break };
        frames.push(&span.name);
        id = span.parent;
    }
    frames.push("");
    let mut path = format!("thread-{thread}");
    for frame in frames.iter().rev() {
        if !frame.is_empty() {
            path.push(';');
            path.push_str(frame);
        }
    }
    path
}

/// Folds one JSONL trace into collapsed-stack text.
fn fold(input: &str) -> (String, FoldStats) {
    let mut stats = FoldStats::default();
    // Open span id → its frame data.
    let mut open: HashMap<u64, OpenSpan> = HashMap::new();
    // Innermost open span per thread (a stack of ids).
    let mut tops: HashMap<u64, Vec<u64>> = HashMap::new();
    // Collapsed stack → accumulated self-time ns.
    let mut weights: HashMap<String, u128> = HashMap::new();

    for line in input.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(event) = Event::from_jsonl(line) else {
            stats.skipped += 1;
            continue;
        };
        match event {
            Event::SpanStart {
                id,
                parent,
                thread,
                name,
            } => {
                open.insert(
                    id,
                    OpenSpan {
                        name,
                        parent,
                        child_ns: 0,
                    },
                );
                tops.entry(thread).or_default().push(id);
            }
            Event::SpanEnd {
                id,
                thread,
                name,
                duration,
            } => {
                // Decoded durations come from u64 nanoseconds: lossless.
                let ns = duration.as_nanos() as u64;
                let path = stack_of(&open, thread, id);
                let Some(span) = open.remove(&id) else {
                    // Unmatched end: fold it as a root under its thread
                    // using the end event's own name, zero child time.
                    *weights
                        .entry(format!("thread-{thread};{name}"))
                        .or_insert(0) += ns as u128;
                    stats.total_ns += ns as u128;
                    stats.spans += 1;
                    continue;
                };
                if let Some(stack) = tops.get_mut(&thread) {
                    stack.retain(|&sid| sid != id);
                }
                if let Some(parent) = open.get_mut(&span.parent) {
                    parent.child_ns = parent.child_ns.saturating_add(ns);
                }
                let self_ns = ns.saturating_sub(span.child_ns) as u128;
                *weights.entry(path).or_insert(0) += self_ns;
                stats.total_ns += self_ns;
                stats.spans += 1;
            }
            Event::Observe {
                thread,
                name,
                duration,
                ..
            } => {
                let ns = duration.as_nanos() as u64;
                let top = tops
                    .get(&thread)
                    .and_then(|stack| stack.last().copied())
                    .unwrap_or(0);
                let path = if top == 0 {
                    format!("thread-{thread};{name}")
                } else {
                    if let Some(parent) = open.get_mut(&top) {
                        parent.child_ns = parent.child_ns.saturating_add(ns);
                    }
                    format!("{};{name}", stack_of(&open, thread, top))
                };
                *weights.entry(path).or_insert(0) += ns as u128;
                stats.total_ns += ns as u128;
                stats.observations += 1;
            }
            // Counters, gauges and messages carry no duration: nothing
            // to fold. They are not errors.
            Event::Counter { .. } | Event::Gauge { .. } | Event::Message { .. } => {}
        }
    }
    stats.unclosed = open.len();

    let mut lines: Vec<String> = weights
        .into_iter()
        .map(|(path, ns)| format!("{path} {}", (ns + 500) / 1000))
        .collect();
    lines.sort();
    stats.stacks = lines.len();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    (out, stats)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (input_path, out_path) = match args.as_slice() {
        [input] => (input.clone(), format!("{input}.folded")),
        [input, flag, out] if flag == "--out" => (input.clone(), out.clone()),
        _ => {
            println!("usage: flamegraph <trace.jsonl> [--out <trace.folded>]");
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
    let (rendered, stats) = fold(&input);
    if let Err(e) = fs::write(&out_path, &rendered) {
        println!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{out_path}: {} stack(s) from {} span(s) + {} observation(s), \
         {:.3} ms self time, {} unclosed, {} skipped",
        stats.stacks,
        stats.spans,
        stats.observations,
        stats.total_ns as f64 / 1e6,
        stats.unclosed,
        stats.skipped
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(events: &[&str]) -> String {
        events.join("\n")
    }

    /// Parses collapsed-stack text back into `(frames, µs)` rows — the
    /// round-trip half of the exporter contract: every line must split
    /// into a non-empty `;`-separated frame path and an integer weight.
    fn parse_collapsed(text: &str) -> Vec<(Vec<String>, u128)> {
        text.lines()
            .map(|line| {
                let (path, weight) = line.rsplit_once(' ').expect("`stack weight` shape");
                let frames: Vec<String> = path.split(';').map(str::to_string).collect();
                assert!(!frames.is_empty());
                assert!(
                    frames.iter().all(|f| !f.is_empty() && !f.contains(' ')),
                    "frames must be non-empty and space-free: {line:?}"
                );
                (frames, weight.parse().expect("integer microseconds"))
            })
            .collect()
    }

    #[test]
    fn nested_spans_fold_to_self_time() {
        let input = lines(&[
            r#"{"type":"span_start","id":1,"parent":0,"thread":3,"name":"outer"}"#,
            r#"{"type":"span_start","id":2,"parent":1,"thread":3,"name":"inner"}"#,
            r#"{"type":"span_end","id":2,"thread":3,"name":"inner","ns":4000}"#,
            r#"{"type":"span_end","id":1,"thread":3,"name":"outer","ns":10000}"#,
        ]);
        let (out, stats) = fold(&input);
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.unclosed, 0);
        let rows = parse_collapsed(&out);
        assert_eq!(rows.len(), 2);
        let weight = |frames: &[&str]| {
            rows.iter()
                .find(|(f, _)| f == frames)
                .map(|(_, w)| *w)
                .unwrap_or_else(|| panic!("missing stack {frames:?} in {out:?}"))
        };
        assert_eq!(weight(&["thread-3", "outer", "inner"]), 4);
        // The outer span keeps only its self time: 10 µs − 4 µs inner.
        assert_eq!(weight(&["thread-3", "outer"]), 6);
    }

    #[test]
    fn observations_become_leaf_frames_under_the_open_span() {
        let input = lines(&[
            r#"{"type":"span_start","id":1,"parent":0,"thread":1,"name":"run"}"#,
            r#"{"type":"duration","thread":1,"name":"qsim.kernel.op","ns":2000}"#,
            r#"{"type":"duration","thread":1,"name":"qsim.kernel.op","ns":3000}"#,
            r#"{"type":"span_end","id":1,"thread":1,"name":"run","ns":9000}"#,
        ]);
        let (out, stats) = fold(&input);
        assert_eq!(stats.observations, 2);
        let rows = parse_collapsed(&out);
        let kernel = rows
            .iter()
            .find(|(f, _)| f == &["thread-1", "run", "qsim.kernel.op"])
            .expect("leaf frame");
        assert_eq!(kernel.1, 5, "both observations merge into one stack");
        let run = rows
            .iter()
            .find(|(f, _)| f == &["thread-1", "run"])
            .unwrap();
        assert_eq!(run.1, 4, "span self time excludes inner observations");
    }

    #[test]
    fn threads_get_separate_roots() {
        let input = lines(&[
            r#"{"type":"duration","thread":1,"name":"a","ns":1000}"#,
            r#"{"type":"duration","thread":2,"name":"a","ns":1000}"#,
        ]);
        let (out, _) = fold(&input);
        let rows = parse_collapsed(&out);
        assert_eq!(rows.len(), 2, "same name, different threads: two stacks");
    }

    #[test]
    fn unclosed_spans_are_counted_not_folded() {
        let input = lines(&[
            r#"{"type":"span_start","id":1,"parent":0,"thread":1,"name":"crashed"}"#,
            r#"{"type":"duration","thread":1,"name":"work","ns":1000}"#,
        ]);
        let (out, stats) = fold(&input);
        assert_eq!(stats.unclosed, 1);
        let rows = parse_collapsed(&out);
        // The observation still lands under the (open) span's stack.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, ["thread-1", "crashed", "work"]);
    }

    #[test]
    fn empty_and_garbage_inputs_stay_well_formed() {
        let (out, stats) = fold("");
        assert_eq!(out, "");
        assert_eq!(stats, FoldStats::default());
        let (out, stats) =
            fold("not json\n{\"type\":\"counter\",\"thread\":1,\"name\":\"c\",\"delta\":1}");
        assert_eq!(out, "", "counters carry no duration");
        assert_eq!(stats.skipped, 1);
    }

    #[test]
    fn sub_microsecond_weights_round_to_nearest() {
        let input = r#"{"type":"duration","thread":1,"name":"tiny","ns":1600}"#;
        let (out, _) = fold(input);
        let rows = parse_collapsed(&out);
        assert_eq!(rows[0].1, 2, "1.6 µs rounds to 2");
    }

    #[test]
    fn real_traced_run_round_trips_through_the_parser() {
        use qmkp_obs::Sink;
        use qmkp_qsim::{Circuit, DenseState, Gate, QuantumState};
        let mut c = Circuit::new(4);
        c.push(Gate::H(0)).unwrap();
        c.push(Gate::ccnot(0, 1, 2)).unwrap();
        let path =
            std::env::temp_dir().join(format!("flamegraph_roundtrip_{}.jsonl", std::process::id()));
        let sink = std::sync::Arc::new(qmkp_obs::JsonlSink::create(&path).unwrap());
        let guard = qmkp_obs::attach(sink.clone());
        {
            let span = qmkp_obs::span("test.outer");
            let mut s = DenseState::zero(4).unwrap();
            s.run(&c).unwrap();
            span.finish();
        }
        drop(guard);
        sink.flush();

        let input = fs::read_to_string(&path).unwrap();
        let _ = fs::remove_file(&path);
        let (out, stats) = fold(&input);
        assert!(stats.spans >= 1);
        assert_eq!(stats.unclosed, 0);
        let rows = parse_collapsed(&out);
        assert!(!rows.is_empty());
        assert!(
            rows.iter()
                .any(|(frames, _)| frames.contains(&"test.outer".to_string())),
            "the outer span must appear as a frame: {out:?}"
        );
        let total: u128 = rows.iter().map(|(_, w)| w).sum();
        let folded_us = (stats.total_ns + 500) / 1000;
        // Per-stack rounding can drift by at most one µs per stack.
        assert!(
            total.abs_diff(folded_us) <= rows.len() as u128,
            "parsed total {total} µs must match folded {folded_us} µs"
        );
    }
}
