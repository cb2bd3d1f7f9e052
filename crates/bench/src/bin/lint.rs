//! Workspace lint harness: `lint source` scans hot-path crates for
//! forbidden panic-family calls; `lint oracles` statically verifies the
//! experiment oracle configurations with `qmkp-lint` and can archive the
//! machine-readable reports as JSON.
//!
//! Both subcommands exit non-zero on any finding, so CI runs them as
//! gates:
//!
//! ```text
//! cargo run -p qmkp-bench --bin lint -- source
//! cargo run -p qmkp-bench --bin lint -- oracles --json analysis.json
//! ```

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use qmkp_core::Oracle;
use qmkp_graph::gen::{gnm, paper_fig1_graph};
use qmkp_graph::Graph;

/// Panic-family constructs that must not appear in hot-path library code
/// (tests excepted): library callers get `Result`s, not aborts.
const NEEDLES: &[&str] = &[
    ".unwrap(",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "dbg!(",
];

/// Known occurrences: `(path suffix, needle, exact count, justification)`.
/// The scan fails on *any* deviation — a new occurrence is a violation, a
/// removed one makes the entry stale and must be deleted here.
const ALLOWLIST: &[(&str, &str, usize, &str)] = &[
    (
        "qsim/src/circuit.rs",
        ".expect(",
        1,
        "push_unchecked's documented panic contract",
    ),
    (
        "core/src/counting.rs",
        ".expect(",
        2,
        "unlimited-context wrapper; QFT and inverse share one width",
    ),
    (
        "core/src/grover.rs",
        ".expect(",
        1,
        "compile cannot fail for validated oracles",
    ),
    (
        "core/src/oracle.rs",
        ".expect(",
        1,
        "U_check and U_check† share one layout width by construction",
    ),
    (
        "core/src/oracle.rs",
        "unreachable!(",
        1,
        "section names are fixed by the builder four lines above",
    ),
    (
        "core/src/qmkp.rs",
        ".expect(",
        1,
        "unlimited-context wrapper: only invalid configuration can fail",
    ),
    (
        "core/src/qtkp.rs",
        ".expect(",
        1,
        "unlimited-context wrapper: only invalid configuration can fail",
    ),
    (
        "serve/src/cache.rs",
        ".expect(",
        6,
        "mutex/condvar poisoning: a panicked worker already aborted the \
         process-level invariant; propagating is the only sound option",
    ),
    (
        "serve/src/service.rs",
        ".expect(",
        3,
        "thread spawn at startup and lane-queue lock poisoning; both are \
         unrecoverable service-construction failures",
    ),
];

/// Directories (or single `.rs` files) scanned by `lint source`, relative
/// to the workspace root. The runtime, annealer, and facade crates carry
/// *zero* allowlist entries: their fallible paths all return
/// [`qmkp_rt::RtError`]. The analyzer crate carries none either, and the
/// serving crate's are confined to lock handling. The
/// metrics module is listed as a file because it is the obs crate's hot
/// path — poisoned-lock recovery there uses
/// `unwrap_or_else(|e| e.into_inner())`, never a panic.
const SCAN_DIRS: &[&str] = &[
    "crates/qsim/src",
    "crates/core/src",
    "crates/rt/src",
    "crates/annealer/src",
    "crates/lint/src",
    "crates/serve/src",
    "crates/obs/src/metrics.rs",
    "src",
];

fn workspace_root() -> &'static Path {
    // bench crate lives at <root>/crates/bench.
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Blanks everything that is not code — line and (nested) block comments,
/// string / raw-string / byte-string contents, and char literals — with
/// spaces, preserving byte offsets and line structure, so that needle and
/// attribute matching never trips over prose.
fn mask_non_code(text: &str) -> String {
    let b = text.as_bytes();
    let mut out = vec![b' '; b.len()];
    let mut i = 0;
    let mut prev_ident = false;
    while i < b.len() {
        match b[i] {
            b'\n' => {
                out[i] = b'\n';
                prev_ident = false;
                i += 1;
            }
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            out[i] = b'\n';
                        }
                        i += 1;
                    }
                }
                prev_ident = false;
            }
            b'"' => {
                i = skip_plain_string(b, &mut out, i);
                prev_ident = false;
            }
            b'r' | b'b' if !prev_ident => {
                if let Some(next) = skip_prefixed_literal(b, &mut out, i) {
                    i = next;
                    prev_ident = false;
                } else {
                    out[i] = b[i];
                    prev_ident = true;
                    i += 1;
                }
            }
            b'\'' => {
                if let Some(next) = skip_char_literal(b, i) {
                    i = next; // contents blanked by not copying
                } else {
                    out[i] = b'\''; // a lifetime: keep the tick, scan on
                    i += 1;
                }
                prev_ident = false;
            }
            c => {
                out[i] = c;
                prev_ident = c.is_ascii_alphanumeric() || c == b'_' || !c.is_ascii();
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("masking only writes ASCII or copied input bytes")
}

/// Skips a `"…"` literal starting at `i` (which must be the opening
/// quote), preserving newlines in `out`. Returns the index after the
/// closing quote.
fn skip_plain_string(b: &[u8], out: &mut [u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            b'\n' => {
                out[j] = b'\n';
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

/// Skips an `r"…"` / `r#"…"#` / `b"…"` / `br#"…"#` / `b'…'` literal
/// starting at the prefix byte, or returns `None` when `i` is just an
/// identifier character.
fn skip_prefixed_literal(b: &[u8], out: &mut [u8], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if b[i] == b'b' {
        match b.get(j) {
            Some(b'"') => return Some(skip_plain_string(b, out, j)),
            Some(b'\'') => return skip_char_literal(b, j),
            Some(b'r') => j += 1,
            _ => return None,
        }
    }
    // Raw string: `r` then zero or more `#`, then `"`.
    let mut hashes = 0usize;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) != Some(&b'"') {
        return None;
    }
    j += 1;
    while j < b.len() {
        if b[j] == b'"'
            && b[j + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == b'#')
                .count()
                == hashes
        {
            return Some(j + 1 + hashes);
        }
        if b[j] == b'\n' {
            out[j] = b'\n';
        }
        j += 1;
    }
    Some(j)
}

/// Distinguishes a char literal (`'x'`, `'\n'`, `'\u{1F600}'`) from a
/// lifetime (`'a`, `'static`). Returns the index after the closing quote
/// for a literal, `None` for a lifetime.
fn skip_char_literal(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i + 1;
    match b.get(j)? {
        b'\\' => {
            j += 1;
            if b.get(j) == Some(&b'u') && b.get(j + 1) == Some(&b'{') {
                j += 2;
                while b.get(j).is_some_and(|&c| c != b'}') {
                    j += 1;
                }
            }
            j += 1;
        }
        _ => {
            // One (possibly multi-byte) char; a lifetime has an
            // identifier run here with no closing quote.
            j += 1;
            while j < b.len() && (b[j] & 0xC0) == 0x80 {
                j += 1; // UTF-8 continuation bytes
            }
        }
    }
    (b.get(j) == Some(&b'\'')).then_some(j + 1)
}

/// Marks every line belonging to a `#[cfg(test)]`-gated item — the
/// attribute itself, any stacked attributes after it, and the item body
/// through its brace-matched `}` (or terminating `;`). Operates on masked
/// code, so braces in strings and comments cannot desynchronise it.
fn cfg_test_lines(masked: &str) -> Vec<bool> {
    let line_count = masked.lines().count();
    let mut skip = vec![false; line_count];
    // Byte offset → line index, built once.
    let line_of = |pos: usize| masked[..pos].bytes().filter(|&c| c == b'\n').count();
    let b = masked.as_bytes();
    let mut from = 0;
    while let Some(rel) = masked[from..].find("#[cfg(test)]") {
        let start = from + rel;
        let mut j = start + "#[cfg(test)]".len();
        // Stacked attributes after the gate.
        loop {
            while b.get(j).is_some_and(|c| c.is_ascii_whitespace()) {
                j += 1;
            }
            if b.get(j) == Some(&b'#') && b.get(j + 1) == Some(&b'[') {
                let mut depth = 0usize;
                while j < b.len() {
                    match b[j] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            } else {
                break;
            }
        }
        // The item: brace-matched block, or `;` for brace-less items.
        let mut depth = 0usize;
        let mut seen_brace = false;
        while j < b.len() {
            match b[j] {
                b'{' => {
                    depth += 1;
                    seen_brace = true;
                }
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                b';' if !seen_brace => break,
                _ => {}
            }
            j += 1;
        }
        let end = j.min(b.len().saturating_sub(1));
        for line in skip.iter_mut().take(line_of(end) + 1).skip(line_of(start)) {
            *line = true;
        }
        from = j.min(b.len());
    }
    skip
}

/// Counts forbidden-needle occurrences in one file. Comments, string
/// contents, and `#[cfg(test)]`-gated items (wherever they sit in the
/// file — test modules need not be last) are excluded; everything else,
/// including code *between* test modules, is scanned.
fn scan_file(text: &str) -> Vec<(usize, &'static str, String)> {
    let masked = mask_non_code(text);
    let skip = cfg_test_lines(&masked);
    let mut hits = Vec::new();
    for (lineno, (code, raw)) in masked.lines().zip(text.lines()).enumerate() {
        if skip.get(lineno).copied().unwrap_or(false) {
            continue;
        }
        for &needle in NEEDLES {
            if code.contains(needle) {
                hits.push((lineno + 1, needle, raw.trim().to_string()));
            }
        }
    }
    hits
}

fn run_source_lint() -> ExitCode {
    let root = workspace_root();
    let mut counts: Vec<(String, &'static str, usize)> = Vec::new();
    let mut violations = Vec::new();

    for dir in SCAN_DIRS {
        let entry = root.join(dir);
        let mut paths: Vec<_> = if entry.is_file() {
            vec![entry]
        } else {
            fs::read_dir(&entry)
                .unwrap_or_else(|e| panic!("cannot read {dir}: {e}"))
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "rs"))
                .collect()
        };
        paths.sort();
        for path in paths {
            let text = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .display()
                .to_string();
            for (lineno, needle, line) in scan_file(&text) {
                counts
                    .iter_mut()
                    .find(|(f, n, _)| *f == rel && *n == needle)
                    .map(|(_, _, c)| *c += 1)
                    .unwrap_or_else(|| counts.push((rel.clone(), needle, 1)));
                let allowed = ALLOWLIST
                    .iter()
                    .any(|&(suffix, n, _, _)| rel.ends_with(suffix) && n == needle);
                if !allowed {
                    violations.push(format!("{rel}:{lineno}: forbidden `{needle}` — {line}"));
                }
            }
        }
    }

    // Exact-count enforcement: each allowlist entry must match reality.
    let mut stale = Vec::new();
    for &(suffix, needle, expected, reason) in ALLOWLIST {
        let found = counts
            .iter()
            .find(|(f, n, _)| f.ends_with(suffix) && *n == needle)
            .map_or(0, |(_, _, c)| *c);
        if found != expected {
            stale.push(format!(
                "allowlist entry ({suffix}, {needle}) expects {expected} occurrence(s), \
                 found {found} — update the entry ({reason})"
            ));
        }
    }

    for v in &violations {
        println!("error[source-lint]: {v}");
    }
    for s in &stale {
        println!("error[stale-allowlist]: {s}");
    }
    if violations.is_empty() && stale.is_empty() {
        println!(
            "source lint clean: {} file group(s) audited, allowlist exact",
            SCAN_DIRS.len()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The six oracle configurations the experiment drivers use. The two
/// n=18 probes have 2^18 vertex assignments — far past the enumeration
/// limit; their proofs are exact *because* of the symbolic pass, and
/// without it the ancilla pass would report them `unproven` (an error).
fn oracle_instances() -> Vec<(String, Graph, usize, usize)> {
    let mut out = Vec::new();
    for (k, t) in [(2, 4), (3, 4)] {
        out.push((format!("fig1-k{k}-t{t}"), paper_fig1_graph(), k, t));
    }
    out.push((
        "gnm-7-9-k2-t3".into(),
        gnm(7, 9, 0).expect("valid g(n,m)"),
        2,
        3,
    ));
    out.push((
        "gnm-9-15-k3-t5".into(),
        gnm(9, 15, 1).expect("valid g(n,m)"),
        3,
        5,
    ));
    // Complement of a Hamiltonian cycle on 18 vertices (m̄ = 18).
    let mut cycle = Graph::complete(18).expect("valid order");
    for i in 0..18 {
        cycle.remove_edge(i, (i + 1) % 18);
    }
    out.push(("qtkp18-cycle-k2-t9".into(), cycle, 2, 9));
    // Complement of a perfect matching on 18 vertices (m̄ = 9).
    let mut matching = Graph::complete(18).expect("valid order");
    for i in 0..9 {
        matching.remove_edge(2 * i, 2 * i + 1);
    }
    out.push(("qtkp18-matching-k3-t12".into(), matching, 3, 12));
    out
}

fn run_oracle_lint(json_path: Option<&str>) -> ExitCode {
    let mut failed = false;
    let mut json_items = Vec::new();
    for (name, g, k, t) in oracle_instances() {
        let report = Oracle::new(&g, k, t).lint_report();
        let (errors, warnings, notes) = report.counts();
        println!(
            "{name}: {} qubits, {} gates, depth {} — {errors} error(s), \
             {warnings} warning(s), {notes} note(s) [{} proof, {} inputs]",
            report.width,
            report.gates,
            report.depth,
            report.proof.label(),
            report.inputs_checked,
        );
        if report.has_errors() {
            print!("{}", report.render());
            failed = true;
        }
        json_items.push(report.to_json());
    }
    if let Some(path) = json_path {
        let body = format!("[{}]\n", json_items.join(","));
        fs::write(path, &body).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {} report(s) to {path}", json_items.len());
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("source") => run_source_lint(),
        Some("oracles") => {
            let json_path = match args.get(1).map(String::as_str) {
                Some("--json") => match args.get(2) {
                    Some(p) => Some(p.as_str()),
                    None => {
                        println!("usage: lint oracles [--json <path>]");
                        return ExitCode::FAILURE;
                    }
                },
                Some(other) => {
                    println!("unknown flag `{other}`; usage: lint oracles [--json <path>]");
                    return ExitCode::FAILURE;
                }
                None => None,
            };
            run_oracle_lint(json_path)
        }
        _ => {
            println!("usage: lint <source | oracles [--json <path>]>");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_masked() {
        let src = r#"
// a comment mentioning .unwrap( stays out
/* block with .expect( inside */
let msg = "call .unwrap( later"; // and .expect( here
let c = '"'; let s = r"raw .unwrap(";
value.unwrap();
"#;
        let hits = scan_file(src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, ".unwrap(");
        assert_eq!(hits[0].2, "value.unwrap();");
    }

    #[test]
    fn code_after_a_test_module_is_still_scanned() {
        let src = "
fn ok() {}
#[cfg(test)]
mod tests {
    fn helper() { x.unwrap(); }
}
fn offender() { y.expect(\"boom\"); }
#[cfg(test)]
mod more_tests {
    fn helper() { z.unwrap(); }
}
fn second_offender() { w.unwrap(); }
";
        let hits = scan_file(src);
        let needles: Vec<_> = hits.iter().map(|h| h.1).collect();
        assert_eq!(needles, vec![".expect(", ".unwrap("]);
    }

    #[test]
    fn braces_in_test_strings_do_not_desync_the_skipper() {
        let src = "
#[cfg(test)]
mod tests {
    const WEIRD: &str = \"}}}{{{\"; // unbalanced on purpose
    fn helper() { x.unwrap(); }
}
fn live() { y.unwrap(); }
";
        let hits = scan_file(src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].2, "fn live() { y.unwrap(); }");
    }

    #[test]
    fn braceless_gated_items_end_at_the_semicolon() {
        let src = "
#[cfg(test)]
use some::test_only::thing;
fn live() { y.unwrap(); }
";
        let hits = scan_file(src);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn stacked_attributes_stay_inside_the_gate() {
        let src = "
#[cfg(test)]
#[allow(dead_code)]
fn gated() { x.unwrap(); }
fn live() {}
";
        assert!(scan_file(src).is_empty());
    }

    #[test]
    fn lifetimes_and_char_literals_are_handled() {
        let src = "
fn f<'a>(x: &'a str) -> char { '\\'' }
fn g() -> char { 'x' }
fn live() { y.unwrap(); }
";
        let hits = scan_file(src);
        assert_eq!(hits.len(), 1);
    }
}
