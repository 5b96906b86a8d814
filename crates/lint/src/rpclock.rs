//! Interprocedural RPC-under-lock analysis (MOCHI015).
//!
//! The classic progress-engine deadlock at scale-out: a handler (or any
//! service function) holds an `OrderedMutex`/`OrderedRwLock` guard while
//! calling a function that — transitively, through the call graph —
//! issues a `forward`-family RPC. The forward suspends the ULT with the
//! guard held; under fan-out the peer may be this very provider (or one
//! blocked on it), and the handler that would release the lock is queued
//! behind the suspension. MOCHI009 catches the *direct* form (the
//! forward lexically inside the guard span); this rule closes the
//! interprocedural gap: the guard is live at a *call site* whose callee
//! reaches a forward.
//!
//! Mechanics:
//!
//! 1. an ordered-lock field index is built from `OrderedMutex<…>` /
//!    `OrderedRwLock<…>` type ascriptions (struct fields, locals,
//!    parameters), keyed `crate::field` — the same class identity the
//!    guard spans carry. Plain `parking_lot` locks are out of scope:
//!    the rank-checked locks are the documented hierarchy, and scoping
//!    to them keeps the rule's false-positive budget at zero;
//! 2. a reverse reachability pass marks every non-plumbing node that
//!    contains a non-spawn forward-family call or calls one that does,
//!    recording a next-hop so findings carry a witness path;
//! 3. for each node in ULT/handler scope, the [`BodyFlow`] guard spans
//!    answer "which ordered guards are live at this call site, in this
//!    closure context?" — a live guard over a forward-reaching call is
//!    a finding.
//!
//! Call sites inside `spawn(…)` arguments are skipped (the closure runs
//! without the caller's guard — `dataflow` models the fresh context, and
//! the spawned work doesn't suspend *this* ULT). Direct forward-family
//! callees are skipped here because MOCHI009 already owns that form.

use std::collections::BTreeSet;

use crate::dataflow::BodyFlow;
use crate::deadline::PLUMBING;
use crate::callgraph::CallGraph;
use crate::lexer::{find_word, is_ident_byte};
use crate::source::SourceFile;
use crate::yields;
use crate::Finding;

/// Whether `callee` is one of the suspending calls the reachability pass
/// looks for: the MOCHI009 yield family.
fn suspends(callee: &str) -> bool {
    yields::yield_method(callee).is_some()
}

/// Builds the `crate::field` index of rank-ordered lock declarations.
/// Matches `name: OrderedMutex<…>` / `name: Arc<OrderedRwLock<…>>` (and
/// path-qualified forms) — struct fields, locals, and parameters alike.
pub fn ordered_lock_index(files: &[SourceFile]) -> BTreeSet<String> {
    let mut index = BTreeSet::new();
    for file in files {
        let text = &file.text;
        for marker in ["OrderedMutex", "OrderedRwLock"] {
            let mut from = 0usize;
            while let Some(pos) = find_word(text, marker, from) {
                from = pos + marker.len();
                if let Some(field) = declared_field_before(text, pos) {
                    index.insert(format!("{}::{}", file.crate_name, field));
                }
            }
        }
    }
    index
}

/// Runs the analysis over the built graph. One finding per ordered guard
/// held across a forward-reaching call: kind `<callee>:<lock class>` (e.g.
/// `flush_all:yokan::writer`), path from the call site's callee down to
/// the forward.
pub fn check(files: &[SourceFile], graph: &CallGraph) -> Vec<Finding> {
    let ordered = ordered_lock_index(files);
    if ordered.is_empty() {
        return Vec::new();
    }

    // Pass 2: which nodes reach a forward? Seed with direct containers,
    // then walk the reverse graph. `forward_hop[n]` is the next node on
    // the path to the forward (or `None` when n contains it directly).
    let n = graph.nodes.len();
    let mut reaches = vec![false; n];
    let mut forward_hop: Vec<Option<usize>> = vec![None; n];
    let mut forward_name: Vec<Option<String>> = vec![None; n];
    let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (from, edges) in graph.edges.iter().enumerate() {
        for e in edges {
            reverse[e.to].push(from);
        }
    }
    let mut queue = std::collections::VecDeque::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        if PLUMBING.contains(&node.crate_name.as_str()) {
            continue;
        }
        if let Some(call) = graph.calls[id].iter().find(|c| !c.in_spawn && suspends(&c.callee)) {
            reaches[id] = true;
            forward_name[id] = Some(call.callee.clone());
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        for &caller in &reverse[id] {
            if reaches[caller] || PLUMBING.contains(&graph.nodes[caller].crate_name.as_str()) {
                continue;
            }
            reaches[caller] = true;
            forward_hop[caller] = Some(id);
            queue.push_back(caller);
        }
    }

    // Pass 3: ordered guards live at forward-reaching call sites.
    let mut findings = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        if PLUMBING.contains(&node.crate_name.as_str()) || !yields::in_scope(&node.file) {
            continue;
        }
        let has_candidate = graph.calls[id].iter().any(|c| {
            !c.in_spawn && !suspends(&c.callee) && c.targets.iter().any(|&t| reaches[t])
        });
        if !has_candidate {
            continue;
        }
        let file = &files[node.file_idx];
        let func = &file.functions[node.func_idx];
        let flow = BodyFlow::analyze(file, func.body_start, func.body_end, &BTreeSet::new());
        for call in &graph.calls[id] {
            if call.in_spawn || suspends(&call.callee) {
                continue; // direct forwards under a guard are MOCHI009's
            }
            let Some(&target) = call.targets.iter().find(|&&t| reaches[t]) else {
                continue;
            };
            for span in flow.live_at(call.offset) {
                if !ordered.contains(&span.lock) {
                    continue;
                }
                let mut path = vec![node.name.clone()];
                let mut at = target;
                path.push(graph.nodes[at].name.clone());
                while let Some(next) = forward_hop[at] {
                    at = next;
                    path.push(graph.nodes[at].name.clone());
                }
                if let Some(fwd) = &forward_name[at] {
                    path.push(format!(".{fwd}()"));
                }
                findings.push(Finding {
                    rule: "MOCHI015",
                    file: node.file.clone(),
                    function: node.name.clone(),
                    kind: format!("{}:{}", call.callee, span.lock),
                    line: call.line,
                    column: call.column,
                    message: format!(
                        "ordered lock {} held across `{}`, which reaches an RPC ({}) — drop the guard before the call or park the work",
                        span.lock,
                        call.callee,
                        path.join(" -> ")
                    ),
                    path,
                });
            }
        }
    }
    findings.sort();
    findings.dedup();
    findings
}

/// Given the offset of an `OrderedMutex`/`OrderedRwLock` type use, walks
/// backward through path qualifiers (`mochi_util::`) and generic
/// wrappers (`Arc<`, `Box<`) to the `name:` ascription and returns the
/// declared name. Returns `None` for non-ascription uses
/// (`OrderedMutex::new(…)` in expressions without a field context,
/// `use` imports, turbofish).
fn declared_field_before(text: &[u8], mut p: usize) -> Option<String> {
    // Skip `path::` qualifiers directly before the marker.
    while p >= 2 && text[p - 1] == b':' && text[p - 2] == b':' {
        p -= 2;
        while p > 0 && is_ident_byte(text[p - 1]) {
            p -= 1;
        }
    }
    // Skip generic wrappers: `Arc<`, `Box<`, `Option<`, …
    loop {
        while p > 0 && text[p - 1].is_ascii_whitespace() {
            p -= 1;
        }
        if p > 0 && text[p - 1] == b'<' {
            p -= 1;
            while p > 0 && is_ident_byte(text[p - 1]) {
                p -= 1;
            }
            continue;
        }
        break;
    }
    // Require a single `:` (not `::`) — the ascription.
    if p == 0 || text[p - 1] != b':' || (p >= 2 && text[p - 2] == b':') {
        return None;
    }
    p -= 1;
    while p > 0 && text[p - 1].is_ascii_whitespace() {
        p -= 1;
    }
    let end = p;
    while p > 0 && is_ident_byte(text[p - 1]) {
        p -= 1;
    }
    if p == end {
        return None;
    }
    let name = String::from_utf8_lossy(&text[p..end]).into_owned();
    if name.chars().next().map(|c| c.is_ascii_digit()).unwrap_or(true) {
        return None;
    }
    Some(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(files: &[(&str, &str)]) -> Vec<SourceFile> {
        files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect()
    }

    #[test]
    fn ordered_index_sees_fields_locals_and_wrappers() {
        let files = parse(&[(
            "crates/demo/src/lib.rs",
            "struct S { core: OrderedMutex<Inner>, view: Arc<mochi_util::OrderedRwLock<View>> }\n\
             fn f() { let extra: OrderedMutex<u32> = OrderedMutex::new(9, 0); }\n",
        )]);
        let index = ordered_lock_index(&files);
        assert!(index.contains("demo::core"), "{index:?}");
        assert!(index.contains("demo::view"), "{index:?}");
        assert!(index.contains("demo::extra"), "{index:?}");
        // The bare `OrderedMutex::new` expression ascribes nothing new.
        assert_eq!(index.len(), 3, "{index:?}");
    }

    #[test]
    fn guard_live_across_forward_reaching_call_flagged() {
        let files = parse(&[(
            "crates/yokan/src/provider.rs",
            "struct S { state: OrderedMutex<Inner> }\n\
             impl S {\n\
                 fn handle(&self) { let g = self.state.lock(); self.relay(1); }\n\
                 fn relay(&self, v: u64) { self.margo.forward(&dest(), \"yokan_next\", 1, &v).ok(); }\n\
             }\n",
        )]);
        let graph = CallGraph::build(&files);
        let found = check(&files, &graph);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].function, "handle");
        assert_eq!(found[0].kind, "relay:yokan::state");
        assert_eq!(
            found[0].path,
            vec!["handle".to_string(), "relay".to_string(), ".forward()".to_string()]
        );
    }

    #[test]
    fn dropped_guard_before_call_is_clean() {
        let files = parse(&[(
            "crates/yokan/src/provider.rs",
            "struct S { state: OrderedMutex<Inner> }\n\
             impl S {\n\
                 fn handle(&self) { let g = self.state.lock(); drop(g); self.relay(1); }\n\
                 fn relay(&self, v: u64) { self.margo.forward(&dest(), \"yokan_next\", 1, &v).ok(); }\n\
             }\n",
        )]);
        let graph = CallGraph::build(&files);
        assert!(check(&files, &graph).is_empty());
    }

    #[test]
    fn unordered_lock_is_out_of_scope() {
        let files = parse(&[(
            "crates/yokan/src/provider.rs",
            "struct S { state: Mutex<Inner> }\n\
             impl S {\n\
                 fn handle(&self) { let g = self.state.lock(); self.relay(1); }\n\
                 fn relay(&self, v: u64) { self.margo.forward(&dest(), \"yokan_next\", 1, &v).ok(); }\n\
             }\n",
        )]);
        let graph = CallGraph::build(&files);
        assert!(check(&files, &graph).is_empty());
    }
}
