//! Swallowed background-error analysis (MOCHI016).
//!
//! A background task is fire-and-forget twice over: nobody joins it, and
//! nobody observes its `Result`. The resilience literature treats this
//! as a detection gap — the task dies, the service keeps serving, and
//! the failure surfaces minutes later as lost data or a stuck queue.
//! Parking the error in a slot a supervisor harvests (as the LSM parks a
//! failed unlink for the next `flush()`) is the blessed pattern.
//! Everything else that discards a fallible result *inside a spawn span*
//! is a finding:
//!
//! - `let _ = fallible(…);` — wildcard-only discard of a fallible call
//!   (`let _res = …` keeps the binding observable and is not flagged);
//! - `fallible(…).ok();` — a call result shrugged into an unused
//!   `Option` (using the `Option` — `.ok()?`, `if …ok().is_some()` —
//!   is fine; only the statement-terminated form is flagged);
//! - `self.fallible(…);` — a bare statement call whose every resolved
//!   target returns `Result`, so the value is dropped on the floor.
//!
//! Spawn spans are the argument lists of `spawn*`-named calls, the same
//! classification the call graph uses for `CallSite::in_spawn`. A call
//! is "fallible" when its name is on the builtin I/O + channel list or
//! when its resolved signature mentions `Result`.

use crate::callgraph::CallGraph;
use crate::lexer::{column_of, is_ident_byte, line_of, matching_paren};
use crate::source::SourceFile;
use crate::Finding;

/// Names that return `Result` by contract even when the callee can't be
/// resolved through the graph (std/channel/file surface).
const FALLIBLE: &[&str] = &[
    "send",
    "try_send",
    "recv",
    "recv_timeout",
    "write",
    "write_all",
    "flush",
    "sync_all",
    "sync_data",
    "set_len",
    "remove_file",
    "rename",
    "create_dir",
    "create_dir_all",
];

/// Crates whose spawn bodies are test harness / tooling, not services.
const OUT_OF_SCOPE: &[&str] = &["lint", "bench"];

/// One finding per discarded background error: kind `<form>:<callee>`,
/// e.g. `let_underscore:send`, `ok:forward`, `unused_result:persist_wal`.
pub fn check(files: &[SourceFile], graph: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        if OUT_OF_SCOPE.contains(&node.crate_name.as_str()) {
            continue;
        }
        let file = &files[node.file_idx];
        let func = &file.functions[node.func_idx];
        let spans = spawn_spans(&file.text, func.body_start, func.body_end);
        if spans.is_empty() {
            continue;
        }
        let text = &file.text;

        // Form 1: `let _ = …;` discarding a fallible call.
        for &(lo, hi) in &spans {
            let mut i = lo;
            while i < hi {
                let Some(eq) = let_underscore_at(text, i, hi) else {
                    i += 1;
                    continue;
                };
                let stmt_end = statement_end(text, eq, hi);
                if let Some(callee) = fallible_in(text, eq, stmt_end, graph, files, id) {
                    findings.push(site(node, text, i, "let_underscore", &callee));
                }
                i = stmt_end;
            }
        }

        // Forms 2 and 3 ride on the graph's spawn-classified call sites.
        for call in &graph.calls[id] {
            if !call.in_spawn {
                continue;
            }
            let Some(close) = call_close(text, call.offset, func.body_end) else {
                continue;
            };
            let after = next_non_ws(text, close + 1, func.body_end);

            // Both remaining forms only apply to whole statements: the
            // chain must start a statement (not feed a `let`, a field
            // assignment, or a larger expression) and end at `;`.
            if after != Some(b';') {
                continue;
            }
            let head = chain_start(text, call.offset);
            let stmt_start = if head == 0 { None } else { prev_non_ws(text, head - 1) };
            if !matches!(stmt_start, None | Some(b';') | Some(b'{') | Some(b'}')) {
                continue;
            }

            if call.callee == "ok" {
                // `… ).ok();` — result of a direct call shrugged away.
                let receiver_is_call =
                    call.receiver.as_deref().map(|r| r.contains('(')).unwrap_or(false);
                if receiver_is_call {
                    let method = call
                        .receiver
                        .as_deref()
                        .and_then(last_call_name)
                        .unwrap_or_else(|| "call".to_string());
                    findings.push(site(node, text, call.offset, "ok", &method));
                }
                continue;
            }

            // `self.fallible(…);` as a bare statement: flag only when
            // every resolved target's signature returns Result, so trait
            // fan-out with infallible impls stays quiet.
            if call.targets.is_empty() {
                continue;
            }
            if call
                .targets
                .iter()
                .all(|&t| returns_result(files, graph, t))
            {
                findings.push(site(node, text, call.offset, "unused_result", &call.callee));
            }
        }
    }
    findings.sort();
    findings.dedup();
    findings
}

fn site(
    node: &crate::callgraph::Node,
    text: &[u8],
    offset: usize,
    form: &str,
    callee: &str,
) -> Finding {
    let how = match form {
        "let_underscore" => "discarded via `let _ =`",
        "ok" => "shrugged away via a statement-level `.ok()`",
        _ => "dropped as an unused statement value",
    };
    Finding {
        rule: "MOCHI016",
        file: node.file.clone(),
        function: node.name.clone(),
        kind: format!("{form}:{callee}"),
        line: line_of(text, offset),
        column: column_of(text, offset),
        message: format!(
            "`{callee}` result {how} inside a spawn body — park the error where a supervisor reads it (or handle it) so the supervisor can see the task die"
        ),
        path: Vec::new(),
    }
}

/// Argument spans of `spawn*`-named calls in `[start, end)` — the same
/// region the call graph marks `in_spawn`.
pub fn spawn_spans(text: &[u8], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = start;
    while i < end {
        if is_ident_byte(text[i]) && (i == 0 || !is_ident_byte(text[i - 1])) {
            let ws = i;
            while i < end && is_ident_byte(text[i]) {
                i += 1;
            }
            let word = &text[ws..i];
            if word.starts_with(b"spawn") {
                let mut j = i;
                while j < end && text[j].is_ascii_whitespace() {
                    j += 1;
                }
                if j < end && text[j] == b'(' {
                    let close = matching_paren(&text[..end], j);
                    spans.push((j + 1, close));
                }
            }
            continue;
        }
        i += 1;
    }
    spans
}

/// If a wildcard-only `let _ =` statement starts at `i`, returns the
/// offset just past the `=`.
fn let_underscore_at(text: &[u8], i: usize, end: usize) -> Option<usize> {
    if !text[i..].starts_with(b"let") || (i > 0 && is_ident_byte(text[i - 1])) {
        return None;
    }
    let mut j = i + 3;
    if j >= end || is_ident_byte(text[j]) {
        return None;
    }
    while j < end && text[j].is_ascii_whitespace() {
        j += 1;
    }
    if j >= end || text[j] != b'_' {
        return None;
    }
    j += 1;
    if j < end && is_ident_byte(text[j]) {
        return None; // `let _res = …` — named, observable, not flagged
    }
    while j < end && text[j].is_ascii_whitespace() {
        j += 1;
    }
    if j < end && text[j] == b'=' && (j + 1 >= end || text[j + 1] != b'=') {
        Some(j + 1)
    } else {
        None
    }
}

/// Offset just past the `;` ending the statement starting after `from`,
/// skipping nested parens/braces.
fn statement_end(text: &[u8], from: usize, end: usize) -> usize {
    let mut depth = 0isize;
    let mut i = from;
    while i < end {
        match text[i] {
            b'(' | b'{' | b'[' => depth += 1,
            b')' | b'}' | b']' => depth -= 1,
            b';' if depth <= 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    end
}

/// First fallible call name in `[lo, hi)`: a builtin name followed by
/// `(`, or a graph-resolved call in range whose targets return Result.
fn fallible_in(
    text: &[u8],
    lo: usize,
    hi: usize,
    graph: &CallGraph,
    files: &[SourceFile],
    node_id: usize,
) -> Option<String> {
    let mut i = lo;
    while i < hi {
        if is_ident_byte(text[i]) && (i == 0 || !is_ident_byte(text[i - 1])) {
            let ws = i;
            while i < hi && is_ident_byte(text[i]) {
                i += 1;
            }
            let mut j = i;
            while j < hi && text[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < hi && text[j] == b'(' {
                let name = std::str::from_utf8(&text[ws..i]).ok()?;
                if FALLIBLE.contains(&name) {
                    return Some(name.to_string());
                }
            }
            continue;
        }
        i += 1;
    }
    graph.calls[node_id]
        .iter()
        .find(|c| {
            c.offset >= lo
                && c.offset < hi
                && !c.targets.is_empty()
                && c.targets.iter().all(|&t| returns_result(files, graph, t))
        })
        .map(|c| c.callee.clone())
}

/// Closing `)` of the call whose name starts at `offset`.
fn call_close(text: &[u8], offset: usize, end: usize) -> Option<usize> {
    let mut i = offset;
    while i < end && is_ident_byte(text[i]) {
        i += 1;
    }
    // Skip turbofish / generic args the sanitizer left in place.
    while i < end && text[i].is_ascii_whitespace() {
        i += 1;
    }
    if i < end && text[i] == b'(' {
        let close = matching_paren(&text[..end], i);
        (close < end).then_some(close)
    } else {
        None
    }
}

fn next_non_ws(text: &[u8], mut i: usize, end: usize) -> Option<u8> {
    while i < end {
        if !text[i].is_ascii_whitespace() {
            return Some(text[i]);
        }
        i += 1;
    }
    None
}

fn prev_non_ws(text: &[u8], mut i: usize) -> Option<u8> {
    loop {
        if !text[i].is_ascii_whitespace() {
            return Some(text[i]);
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
}

/// Start offset of the full receiver chain feeding the call whose name
/// begins at `i` — walks back over `self.inner.tx`, `a(x).b()?.c` style
/// chains, skipping balanced `(…)`/`[…]` groups and multiline breaks.
fn chain_start(text: &[u8], mut i: usize) -> usize {
    loop {
        let mut j = i;
        while j > 0 && text[j - 1].is_ascii_whitespace() {
            j -= 1;
        }
        if j == 0 {
            return i;
        }
        // Whitespace may only be crossed when the chain piece already
        // consumed starts with `.` (a multiline method chain) — an ident
        // on the far side of a space is a keyword or separate expression
        // (`return me.persist()`, `match rx.recv()`).
        if j != i && text.get(i) != Some(&b'.') {
            return i;
        }
        let b = text[j - 1];
        if b == b')' || b == b']' {
            let (open, close) = if b == b')' { (b'(', b')') } else { (b'[', b']') };
            let mut depth = 0usize;
            let mut k = j;
            while k > 0 {
                k -= 1;
                if text[k] == close {
                    depth += 1;
                } else if text[k] == open {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            if text[k] != open {
                return i; // unbalanced — bail where we are
            }
            i = k;
        } else if is_ident_byte(b) || b == b'.' || b == b':' || b == b'?' {
            i = j - 1;
        } else {
            return i;
        }
    }
}

/// Does the node's `fn` signature mention `Result`?
fn returns_result(files: &[SourceFile], graph: &CallGraph, node_id: usize) -> bool {
    let node = &graph.nodes[node_id];
    let file = &files[node.file_idx];
    let func = &file.functions[node.func_idx];
    let text = &file.text;
    // Walk back from the body to the `fn <name>` keyword, then check the
    // signature slice for a Result return.
    let needle = format!("fn {}", func.name);
    let hay = &text[..func.body_start];
    let mut sig_start = None;
    let mut i = func.body_start;
    while i >= needle.len() {
        i -= 1;
        if hay[i..].starts_with(needle.as_bytes())
            && (i == 0 || !is_ident_byte(hay[i - 1]))
            && !is_ident_byte(hay[(i + needle.len()).min(hay.len() - 1)])
        {
            sig_start = Some(i);
            break;
        }
    }
    let Some(s) = sig_start else { return false };
    let sig = &text[s..func.body_start];
    sig.windows(2).rposition(|w| w == b"->").is_some_and(|arrow| {
        let ret = &sig[arrow..];
        ret.windows(6).any(|w| w == b"Result")
    })
}

/// Last `name(`-shaped call in a receiver chain string.
fn last_call_name(chain: &str) -> Option<String> {
    let bytes = chain.as_bytes();
    let open = bytes.iter().rposition(|&b| b == b'(')?;
    let mut i = open;
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    let end = i;
    while i > 0 && is_ident_byte(bytes[i - 1]) {
        i -= 1;
    }
    (i < end).then(|| chain[i..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse("crates/demo/src/lib.rs", src)];
        let graph = CallGraph::build(&files);
        check(&files, &graph)
    }

    #[test]
    fn let_underscore_send_in_spawn_flagged() {
        let found = run(
            "impl S { fn go(&self) { self.pool.spawn(move || { let _ = tx.send(5); }); } }",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, "let_underscore:send");
        assert_eq!(found[0].function, "go");
    }

    #[test]
    fn named_binding_is_observable_and_clean() {
        let found = run(
            "impl S { fn go(&self) { self.pool.spawn(move || { let _res = tx.send(5); log(_res); }); } }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn ok_discard_on_call_result_flagged() {
        let found =
            run("impl S { fn go(&self) { spawn(move || { sink.write_all(&buf).ok(); }); } }");
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, "ok:write_all");
    }

    #[test]
    fn ok_used_as_value_is_clean() {
        let found = run(
            "impl S { fn go(&self) { spawn(move || { if sink.flush().ok().is_some() { mark(); } }); } }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn bare_statement_call_returning_result_flagged() {
        let found = run(
            "impl S {\n\
               fn persist(&self) -> Result<(), Error> { Ok(()) }\n\
               fn go(&self) { let me = self.clone(); spawn(move || { me.persist(); }); }\n\
             }",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, "unused_result:persist");
    }

    #[test]
    fn handled_result_is_clean() {
        let found = run(
            "impl S {\n\
               fn persist(&self) -> Result<(), Error> { Ok(()) }\n\
               fn go(&self) { let me = self.clone(); spawn(move || { if let Err(e) = me.persist() { log(e); } }); }\n\
             }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn outside_spawn_is_out_of_scope() {
        let found = run("impl S { fn go(&self) { let _ = tx.send(5); } }");
        assert!(found.is_empty(), "{found:?}");
    }
}
