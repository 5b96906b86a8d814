//! Unbounded queue-growth analysis (MOCHI017).
//!
//! The million-client arc multiplies handler invocations; any shared
//! collection a handler appends to inside a loop becomes a memory-
//! growth vector unless *something* bounds it — a capacity check, a
//! bounded channel, or a consumer that drains it. This rule walks the
//! call graph from every RPC-registering function (the same entry set
//! MOCHI011 uses), finds lexical loops in reachable service functions,
//! and flags grow calls (`push`/`push_back`/`push_front`/`extend`/
//! `append`/`send`) into *shared* state — a `self.…` field, a
//! `lock()`/`write()` guard chain, or a local guard variable the
//! dataflow layer resolves to a lock field.
//!
//! Local accumulators (`let mut out = Vec::new(); for … { out.push }`)
//! are bounded by their input and stay out of scope. A finding is
//! suppressed when the file shows bound evidence for the same base
//! field: a consume/measure call reached through the field's chain
//! (`.pop`/`.drain`/`.truncate`/`.clear`/`.remove`/`.len`/`.capacity`/
//! `.recv`), or — for channel sends — a bounded constructor
//! (`sync_channel`/`bounded`) anywhere in the file.

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::contracts::{Role, RpcSite};
use crate::dataflow::BodyFlow;
use crate::deadline::PLUMBING;
use crate::lexer::{is_ident_byte, matching_brace};
use crate::source::SourceFile;
use crate::Finding;

const GROW: &[&str] = &["push", "push_back", "push_front", "extend", "append", "send"];

/// Tokens that count as bound evidence when reached through the base
/// field's chain: consumers (`pop`/`drain`/`recv`), filters (`retain`),
/// resets (`clear`/`truncate`), and explicit measurements the caller can
/// gate on (`len`/`is_empty`/`capacity`).
const CONSUME: &[&str] = &[
    ".pop",
    ".drain(",
    ".truncate(",
    ".clear(",
    ".remove(",
    ".retain(",
    ".len(",
    ".is_empty(",
    ".capacity(",
    ".recv",
];

/// Whole-collection drains that appear *before* the field in the
/// expression: `std::mem::take(&mut *x.lock())`, `mem::replace(…)`.
const TAKE: &[&str] = &["take(", "replace("];

/// One finding per unbounded grow site in a handler-reachable loop: kind
/// `grow:<method>:<base>` (e.g. `grow:push:pending`), path from a
/// registering function to the site.
pub fn check(files: &[SourceFile], graph: &CallGraph, sites: &[RpcSite]) -> Vec<Finding> {
    let mut entries: Vec<usize> = Vec::new();
    for site in sites {
        if site.role != Role::Register || PLUMBING.contains(&site.crate_name.as_str()) {
            continue;
        }
        entries.extend(graph.nodes_named(&site.file, &site.function));
    }
    entries.sort_unstable();
    entries.dedup();

    let parents = graph.reachable(&entries, |n| !PLUMBING.contains(&n.crate_name.as_str()));
    let mut findings = Vec::new();
    for &node_id in parents.keys() {
        let node = &graph.nodes[node_id];
        if PLUMBING.contains(&node.crate_name.as_str()) {
            continue;
        }
        let file = &files[node.file_idx];
        let func = &file.functions[node.func_idx];
        let loops = loop_spans(&file.text, func.body_start, func.body_end);
        if loops.is_empty() {
            continue;
        }
        let mut flow: Option<BodyFlow> = None;
        for call in &graph.calls[node_id] {
            if !GROW.contains(&call.callee.as_str()) {
                continue;
            }
            if !loops.iter().any(|&(s, e)| s <= call.offset && call.offset < e) {
                continue;
            }
            let Some(receiver) = call.receiver.as_deref() else {
                continue;
            };
            let base = match shared_base(receiver, call.offset, file, func, &mut flow) {
                Some(b) => b,
                None => continue, // local accumulator — bounded by input
            };
            if bounded(&file.text, &base, call.callee == "send") {
                continue;
            }
            let path = graph.path_names(&parents, node_id);
            findings.push(Finding {
                rule: "MOCHI017",
                file: node.file.clone(),
                function: node.name.clone(),
                kind: format!("grow:{}:{}", call.callee, base),
                line: call.line,
                column: call.column,
                message: format!(
                    "`{}` into shared `{base}` inside a handler-reachable loop ({}) with no bound check, capacity, or drain — add backpressure",
                    call.callee,
                    path.join(" -> ")
                ),
                path,
            });
        }
    }
    findings.sort();
    findings.dedup();
    findings
}

/// Lexical loop body spans (`loop`/`while`/`for` … `{ … }`) in
/// `[start, end)`, including nested ones.
pub fn loop_spans(text: &[u8], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = start;
    while i < end {
        if !is_ident_byte(text[i]) || (i > 0 && is_ident_byte(text[i - 1])) {
            i += 1;
            continue;
        }
        let ws = i;
        while i < end && is_ident_byte(text[i]) {
            i += 1;
        }
        let word = &text[ws..i];
        if word != b"loop" && word != b"while" && word != b"for" {
            continue;
        }
        // The loop body is the next `{` at paren depth zero (skipping a
        // `while let …` / `for … in …` header).
        let mut j = i;
        let mut paren = 0isize;
        while j < end {
            match text[j] {
                b'(' | b'[' => paren += 1,
                b')' | b']' => paren -= 1,
                b'{' if paren == 0 => break,
                b';' if paren == 0 => {
                    j = end; // not a loop header after all
                }
                _ => {}
            }
            j += 1;
        }
        if j < end {
            let close = matching_brace(text, j);
            spans.push((j + 1, close));
        }
    }
    spans
}

/// Classifies the grow call's receiver: `Some(base)` when it writes to
/// shared state, `None` for local accumulators.
fn shared_base(
    receiver: &str,
    offset: usize,
    file: &SourceFile,
    func: &crate::source::Function,
    flow: &mut Option<BodyFlow>,
) -> Option<String> {
    if receiver == "self"
        || receiver.starts_with("self.")
        || receiver.contains(".lock()")
        || receiver.contains(".write()")
    {
        return Some(base_field(receiver));
    }
    // A plain identifier may be a guard over a lock field.
    if receiver.bytes().all(is_ident_byte) {
        let flow = flow.get_or_insert_with(|| {
            BodyFlow::analyze(file, func.body_start, func.body_end, &BTreeSet::new())
        });
        if let Some(span) = flow.guard_var_at(receiver, offset) {
            let lock = span.lock.clone();
            return Some(lock.rsplit("::").next().unwrap_or(&lock).to_string());
        }
    }
    None
}

/// Last plain field segment of a receiver chain: `self.inner.queue
/// .lock()` → `queue`.
fn base_field(receiver: &str) -> String {
    receiver
        .split('.')
        .filter(|s| !s.is_empty() && !s.contains('(') && *s != "self")
        .next_back()
        .unwrap_or("self")
        .to_string()
}

/// Does the file show bound evidence for `base`? Looks for a consume or
/// measure token reached through the field's chain within a short
/// window after each whole-word occurrence, and — for sends — a bounded
/// channel constructor anywhere.
fn bounded(text: &[u8], base: &str, is_send: bool) -> bool {
    if is_send {
        for ctor in ["sync_channel", "bounded("] {
            if contains(text, ctor.as_bytes()) {
                return true;
            }
        }
    }
    let needle = base.as_bytes();
    let mut i = 0usize;
    while i + needle.len() <= text.len() {
        if &text[i..i + needle.len()] == needle
            && (i == 0 || !is_ident_byte(text[i - 1]))
            && text.get(i + needle.len()).map(|&b| !is_ident_byte(b)).unwrap_or(true)
        {
            let window_end = (i + needle.len() + 48).min(text.len());
            let window = &text[i + needle.len()..window_end];
            if CONSUME.iter().any(|t| contains(window, t.as_bytes())) {
                return true;
            }
            let before = &text[i.saturating_sub(24)..i];
            if TAKE.iter().any(|t| contains(before, t.as_bytes())) {
                return true;
            }
        }
        i += 1;
    }
    false
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len().max(1)).any(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contracts;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<SourceFile> =
            files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let graph = CallGraph::build(&parsed);
        let consts = contracts::ConstTable::build(&parsed);
        let sites: Vec<RpcSite> =
            parsed.iter().flat_map(|f| contracts::sites(f, &consts)).collect();
        check(&parsed, &graph, &sites)
    }

    const HANDLER_PREAMBLE: &str =
        "fn register_all(margo: &Margo) {\n    margo.register_typed(\"demo_put\", 1, None, move |v: u64, _ctx| { worker(v); Ok(0) });\n}\n";

    #[test]
    fn unbounded_push_into_lock_guard_flagged() {
        let src = format!(
            "{HANDLER_PREAMBLE}\
             fn worker(v: u64) {{ for item in expand(v) {{ STATE.pending.lock().push(item); }} }}\n"
        );
        let found = run(&[("crates/yokan/src/provider.rs", &src)]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, "grow:push:pending");
        assert_eq!(found[0].function, "worker");
        assert!(found[0].path.contains(&"register_all".to_string()), "{:?}", found[0].path);
    }

    #[test]
    fn drained_queue_is_bounded() {
        let src = format!(
            "{HANDLER_PREAMBLE}\
             fn worker(v: u64) {{ for item in expand(v) {{ STATE.pending.lock().push(item); }} }}\n\
             fn flush() {{ while let Some(x) = STATE.pending.lock().pop() {{ emit(x); }} }}\n"
        );
        let found = run(&[("crates/yokan/src/provider.rs", &src)]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn length_check_is_bound_evidence() {
        let src = format!(
            "{HANDLER_PREAMBLE}\
             fn worker(v: u64) {{ for item in expand(v) {{ if STATE.pending.lock().len() < CAP {{ STATE.pending.lock().push(item); }} }} }}\n"
        );
        let found = run(&[("crates/yokan/src/provider.rs", &src)]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn local_accumulator_is_out_of_scope() {
        let src = format!(
            "{HANDLER_PREAMBLE}\
             fn worker(v: u64) {{ let mut out = Vec::new(); for item in expand(v) {{ out.push(item); }} consume(out); }}\n"
        );
        let found = run(&[("crates/yokan/src/provider.rs", &src)]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn guard_variable_resolves_to_lock_field() {
        let src = format!(
            "{HANDLER_PREAMBLE}\
             struct S {{ backlog: Mutex<Vec<u64>> }}\n\
             impl S {{ fn worker(&self, v: u64) {{ let mut q = self.backlog.lock(); for item in expand(v) {{ q.push(item); }} }} }}\n"
        );
        // `worker` as a method isn't reachable from the free `worker` the
        // handler calls, so route the handler through the method name.
        let src = src.replace("worker(v);", "S::worker(&s, v);");
        let found = run(&[("crates/yokan/src/provider.rs", &src)]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, "grow:push:backlog");
    }

    #[test]
    fn retain_elsewhere_in_file_is_drain_evidence() {
        let src = format!(
            "{HANDLER_PREAMBLE}\
             fn worker(v: u64) {{ for item in expand(v) {{ STATE.pending.lock().push(item); }} }}\n\
             fn release(id: &str) {{ STATE.pending.lock().retain(|t| t != id); }}\n"
        );
        let found = run(&[("crates/yokan/src/provider.rs", &src)]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn mem_take_drain_is_bound_evidence() {
        let src = format!(
            "{HANDLER_PREAMBLE}\
             fn worker(v: u64) {{ for item in expand(v) {{ STATE.pending.lock().push(item); }} }}\n\
             fn shutdown() {{ let all = std::mem::take(&mut *STATE.pending.lock()); join(all); }}\n"
        );
        let found = run(&[("crates/yokan/src/provider.rs", &src)]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn unreachable_function_is_ignored() {
        let src = "fn not_a_handler(v: u64) { for item in expand(v) { STATE.pending.lock().push(item); } }\n";
        let found = run(&[("crates/yokan/src/provider.rs", src)]);
        assert!(found.is_empty(), "{found:?}");
    }
}
