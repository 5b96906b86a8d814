//! Interprocedural retry-soundness analysis (MOCHI013).
//!
//! PR 5's retry plane only re-sends RPCs that were passed to
//! `MargoRuntime::declare_idempotent` — the declaration is a promise
//! that re-executing the handler converges to the same state. Nothing
//! checked the promise: a handler edit that adds a counter bump or an
//! unconditional `remove` silently reintroduces the duplicate-execution
//! bug the chaos soak exists to catch, *only* under transport faults.
//!
//! The analysis rebuilds the declared-idempotent set lexically:
//!
//! * direct calls — `margo.declare_idempotent(rpc::START)` resolves the
//!   name through the contract table's constant resolver;
//! * loop form — `for name in IDEMPOTENT_RPCS { margo.declare_idempotent(name) }`
//!   resolves `IDEMPOTENT_RPCS` as a `const …: &[&str]` array (elements
//!   are string literals or `rpc_names` constants).
//!
//! For every declared RPC it finds the server-side registration (the
//! contract table's `Register` site with that name), seeds the walk with
//! the handler closure's resolved callees, and scans every reachable
//! function body for non-idempotent effect shapes:
//!
//! * `.remove(` / `.take(` / `.pop(` / `.push(` / `.append(` /
//!   `.extend(` on a *shared* receiver (the chain goes through `self`,
//!   `.lock()`, or `.write()` — plain local collections are fine);
//! * `fetch_add(` / `fetch_sub(` and dotted `+=` (field counters);
//! * `.write_all(` / `.write_all_at(` in the REMI crate (file appends).
//!
//! Keyed overwrites (`insert`, `store`) are deliberately *not* effects —
//! last-writer-wins is the idempotency shape the services are built on.
//! Backend files (`/backend/`, `target.rs`) are not descended into:
//! storage engines sit *under* the keyed-overwrite contract (an LSM put
//! appends to its WAL, but replaying the same put converges), so effects
//! inside them are the mechanism, not a violation of it.

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::contracts::{
    preceded_by_fn_keyword, resolve_name, skip_ws, split_args, ConstTable, Role, RpcSite,
};
use crate::lexer::{find_word, is_ident_byte, matching_paren};
use crate::source::SourceFile;
use crate::Finding;

/// Crates that implement the RPC plane rather than use it; the walk does
/// not enter them.
const PLUMBING: &[&str] = &["argobots", "bench", "lint", "margo", "mercury", "util", "wire"];

const MUTATING_METHODS: &[&str] = &["append", "extend", "pop", "push", "remove", "take"];

/// Runs the analysis. One finding per non-idempotent effect reachable
/// from a retryable RPC's handler: kind `<effect>:<rpc>`, the effect shape
/// (`remove`, `push`, `counter`, `file-append`, …) and the RPC whose retry
/// declaration it undermines.
pub fn check(
    files: &[SourceFile],
    graph: &CallGraph,
    consts: &ConstTable,
    sites: &[RpcSite],
) -> Vec<Finding> {
    let idempotent = idempotent_rpcs(files, consts);
    if idempotent.is_empty() {
        return Vec::new();
    }

    let mut findings = Vec::new();
    let mut seen: BTreeSet<(String, String, usize)> = BTreeSet::new();
    for rpc in &idempotent {
        for site in sites {
            if site.role != Role::Register || site.name.as_deref() != Some(rpc.as_str()) {
                continue;
            }
            for node_id in graph.nodes_named(&site.file, &site.function) {
                let node = &graph.nodes[node_id];
                let file = &files[node.file_idx];
                // The handler body: the registration call's final
                // argument when we can locate the call, the whole
                // registering function otherwise (macro registrations).
                let span = registration_span(graph, node_id, site.line)
                    .unwrap_or_else(|| {
                        let f = &file.functions[node.func_idx];
                        (f.body_start, f.body_end)
                    });
                let mut seeds: Vec<usize> = Vec::new();
                for call in &graph.calls[node_id] {
                    if call.in_spawn || call.offset < span.0 || call.offset >= span.1 {
                        continue;
                    }
                    seeds.extend(call.targets.iter().copied());
                }
                seeds.sort_unstable();
                seeds.dedup();
                let parents = graph.reachable(&seeds, |n| {
                    !PLUMBING.contains(&n.crate_name.as_str()) && !is_boundary(&n.file)
                });

                // Effect spans: the handler closure itself, plus every
                // reachable function body.
                let mut spans: Vec<(usize, usize, usize)> = vec![(node.file_idx, span.0, span.1)];
                for &id in parents.keys() {
                    let n = &graph.nodes[id];
                    let f = &files[n.file_idx].functions[n.func_idx];
                    spans.push((n.file_idx, f.body_start, f.body_end));
                }
                for (file_idx, start, end) in spans {
                    let in_file = &files[file_idx];
                    for (effect, offset) in scan_effects(in_file, start, end) {
                        if !seen.insert((rpc.clone(), in_file.rel_path.clone(), offset)) {
                            continue;
                        }
                        findings.push(in_file.finding(
                            "MOCHI013",
                            offset,
                            format!("{effect}:{rpc}"),
                            format!(
                                "non-idempotent `{effect}` effect reachable from the handler of `{rpc}`, which is declared idempotent — a transport-level retry would duplicate it"
                            ),
                        ));
                    }
                }
            }
        }
    }
    findings.sort();
    findings.dedup();
    findings
}

/// Storage-engine and raw-target files: effects inside them implement
/// the keyed-overwrite contract rather than violate it.
fn is_boundary(rel_path: &str) -> bool {
    rel_path.contains("/backend/") || rel_path.ends_with("/target.rs")
}

/// The declared-idempotent RPC names across the workspace.
pub fn idempotent_rpcs(files: &[SourceFile], consts: &ConstTable) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for file in files {
        let text = &file.text;
        let mut i = 0usize;
        while let Some(pos) = find_word(text, "declare_idempotent", i) {
            i = pos + 1;
            if preceded_by_fn_keyword(text, pos) {
                continue; // the definition in margo
            }
            let mut j = skip_ws(text, pos + b"declare_idempotent".len());
            if text.get(j) != Some(&b'(') {
                continue;
            }
            let open = j;
            j = matching_paren(text, open);
            let args = split_args(text, open + 1, j);
            // A lone string-literal argument is blanked to spaces in the
            // sanitized text and split_args reads that as zero arguments;
            // fall back to the whole paren span (resolve_name re-reads
            // the raw buffer, where the literal survives).
            let (s, e) = args.first().copied().unwrap_or((open + 1, j));
            if s >= e {
                continue;
            }
            if let Some(name) = resolve_name(file, consts, s, e) {
                out.insert(name);
                continue;
            }
            // Loop form: the argument is the loop variable of
            // `for <ident> in <CONST_ARRAY>`.
            let arg = String::from_utf8_lossy(&text[s..e]).trim().to_string();
            if !arg.is_empty() && arg.bytes().all(is_ident_byte) {
                if let Some(array) = enclosing_loop_iterable(file, pos, &arg) {
                    out.extend(resolve_array(files, consts, &file.crate_name, &array));
                }
            }
        }
    }
    out
}

/// Finds `for <var> in <path> {` preceding `pos` in the enclosing
/// function and returns the iterable's final path segment.
fn enclosing_loop_iterable(file: &SourceFile, pos: usize, var: &str) -> Option<String> {
    let function = file.function_at(pos)?;
    let text = &file.text;
    let mut best = None;
    let mut i = function.body_start;
    while let Some(kw) = find_word(text, "for", i) {
        if kw >= pos {
            break;
        }
        i = kw + 1;
        let mut j = skip_ws(text, kw + 3);
        let ident_start = j;
        while j < text.len() && is_ident_byte(text[j]) {
            j += 1;
        }
        if &text[ident_start..j] != var.as_bytes() {
            continue;
        }
        j = skip_ws(text, j);
        if !word_eq(text, j, "in") {
            continue;
        }
        j = skip_ws(text, j + 2);
        while j < text.len() && matches!(text[j], b'&' | b'*') {
            j += 1;
        }
        let path_start = j;
        while j < text.len() && (is_ident_byte(text[j]) || text[j] == b':') {
            j += 1;
        }
        let path = String::from_utf8_lossy(&text[path_start..j]).into_owned();
        if let Some(seg) = path.rsplit("::").next().filter(|s| !s.is_empty()) {
            best = Some(seg.to_string());
        }
    }
    best
}

/// Resolves `const <ident>: &[&str] = &[…];` in `crate_name` — elements
/// are string literals (read from the raw buffer via the contract
/// resolver) or constant paths.
fn resolve_array(
    files: &[SourceFile],
    consts: &ConstTable,
    crate_name: &str,
    ident: &str,
) -> Vec<String> {
    let mut names = Vec::new();
    for file in files.iter().filter(|f| f.crate_name == crate_name) {
        let text = &file.text;
        let mut i = 0usize;
        while let Some(kw) = find_word(text, "const", i) {
            i = kw + 1;
            let j = skip_ws(text, kw + 5);
            if !word_eq(text, j, ident) {
                continue;
            }
            // Skip to `=`, then to the array `[`.
            let mut k = j + ident.len();
            while k < text.len() && !matches!(text[k], b'=' | b';') {
                k += 1;
            }
            if text.get(k) != Some(&b'=') {
                continue;
            }
            while k < text.len() && !matches!(text[k], b'[' | b';') {
                k += 1;
            }
            if text.get(k) != Some(&b'[') {
                continue;
            }
            let open = k;
            let mut depth = 0i32;
            let mut close = open;
            while close < text.len() {
                match text[close] {
                    b'[' => depth += 1,
                    b']' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                close += 1;
            }
            // Single-element arrays hit the same blanked-literal shape as
            // single-argument calls: split_args sees only whitespace.
            let mut spans = split_args(text, open + 1, close);
            if spans.is_empty() && open + 1 < close {
                spans.push((open + 1, close));
            }
            for (s, e) in spans {
                if let Some(name) = resolve_name(file, consts, s, e) {
                    names.push(name);
                }
            }
        }
    }
    names
}

/// The handler-closure span of the registration call at `line` in
/// `node`: the final argument of the `register`/`register_typed` site.
fn registration_span(graph: &CallGraph, node_id: usize, line: usize) -> Option<(usize, usize)> {
    graph.calls[node_id]
        .iter()
        .filter(|c| {
            c.line == line && matches!(c.callee.as_str(), "register" | "register_typed")
        })
        .filter_map(|c| c.args.last().copied())
        .next()
}

/// Non-idempotent effect shapes in `[start, end)` of `file`.
fn scan_effects(file: &SourceFile, start: usize, end: usize) -> Vec<(String, usize)> {
    let text = &file.text;
    let end = end.min(text.len());
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let b = text[i];
        // Dotted `+=`: a field counter (`transfer.received_bytes += n`).
        if b == b'+' && text.get(i + 1) == Some(&b'=') && text.get(i.wrapping_sub(1)) != Some(&b'+')
        {
            let lhs_start = receiver_scan_back(text, i);
            let lhs = &text[lhs_start..i];
            if lhs.contains(&b'.') {
                out.push(("counter".to_string(), i));
            }
            i += 2;
            continue;
        }
        if b != b'.' {
            i += 1;
            continue;
        }
        let name_start = i + 1;
        let mut j = name_start;
        while j < end && is_ident_byte(text[j]) {
            j += 1;
        }
        if j == name_start || text.get(j) != Some(&b'(') {
            i += 1;
            continue;
        }
        let name = String::from_utf8_lossy(&text[name_start..j]).into_owned();
        let effect = if name == "fetch_add" || name == "fetch_sub" {
            Some("counter")
        } else if (name == "write_all" || name == "write_all_at") && file.crate_name == "remi" {
            Some("file-append")
        } else if MUTATING_METHODS.contains(&name.as_str()) {
            let recv_start = receiver_scan_back(text, i);
            let recv = String::from_utf8_lossy(&text[recv_start..i]);
            if recv.contains("lock()") || recv.contains("write()") || recv.starts_with("self") {
                match name.as_str() {
                    "append" | "extend" | "push" => Some("push"),
                    "remove" => Some("remove"),
                    "take" => Some("take"),
                    _ => Some("pop"),
                }
            } else {
                None
            }
        } else {
            None
        };
        if let Some(effect) = effect {
            out.push((effect.to_string(), name_start));
        }
        i = j;
    }
    out
}

/// Walks back over an ident/dot/paren-group chain (shared with the call
/// scanner's receiver logic, duplicated to keep span semantics local).
fn receiver_scan_back(text: &[u8], mut i: usize) -> usize {
    while i > 0 && text[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    while i > 0 {
        let b = text[i - 1];
        if is_ident_byte(b) || b == b'.' {
            i -= 1;
        } else if b == b')' || b == b']' {
            let (open, close) = if b == b')' { (b'(', b')') } else { (b'[', b']') };
            let mut depth = 0usize;
            while i > 0 {
                let c = text[i - 1];
                if c == close {
                    depth += 1;
                } else if c == open {
                    depth -= 1;
                    if depth == 0 {
                        i -= 1;
                        break;
                    }
                }
                i -= 1;
            }
        } else {
            break;
        }
    }
    i
}

fn word_eq(text: &[u8], i: usize, word: &str) -> bool {
    let w = word.as_bytes();
    i + w.len() <= text.len()
        && &text[i..i + w.len()] == w
        && !text.get(i + w.len()).map(|&b| is_ident_byte(b)).unwrap_or(false)
}
