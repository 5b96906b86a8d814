//! Interprocedural deadline-loss analysis (MOCHI012).
//!
//! PR 5 made deadlines propagate: a handler that issues a nested RPC via
//! [`RpcContext::nested_context`] (or `RpcContext::forward`, which calls
//! it) inherits the caller's remaining budget, so a fan-out tree shares
//! one deadline instead of resetting it at every hop. Nothing enforced
//! that handlers actually do this — a nested forward built with
//! `CallContext::TOP_LEVEL` (which every context-less convenience
//! wrapper defaults to) silently restarts the budget, and the paper's
//! fan-out premise makes that a correctness bug at scale, not a style
//! issue.
//!
//! The analysis walks the call graph from every function that registers
//! an RPC handler (the contract table's `Register` sites — handler
//! closures are lexically inside those functions, so their calls are
//! attributed there) and inspects every reachable `forward`-family call
//! site in service code:
//!
//! * `forward` — context-less wrapper, always `TOP_LEVEL`. Flagged
//!   unless the receiver is an `RpcContext` (whose `forward` threads
//!   `nested_context` by construction).
//! * `forward_timeout` — always `TOP_LEVEL`; flagged.
//! * `forward_with_context` / `forward_full` / `forward_raw` and the
//!   posting `iforward_full` / `iforward_raw` — the context argument
//!   (index 4) is inspected:
//!   `nested_context` ⇒ clean, `TOP_LEVEL` ⇒ flagged, anything else (a
//!   threaded context variable such as `self.context`) ⇒ assumed clean.
//!   The variable case is deliberately optimistic: the client
//!   chokepoints hold a `CallContext` field that handler-side callers
//!   populate via `with_context(ctx.nested_context())`, and flagging
//!   every variable would force allowlisting the entire fixed surface.
//!
//! `call`/`call_raw` chokepoints need no separate sink rule: their
//! bodies *contain* the forward-family sites, and the walk reaches them
//! through the same edges, so a chokepoint that drops context is flagged
//! at the line that drops it.
//!
//! Sites inside `spawn(…)` arguments are skipped — detached background
//! work (replication loops, gossip rounds) is top-level by design.
//! Plumbing crates (margo/mercury/argobots/util/wire — where the
//! forward family is *implemented*) are excluded from both the walk and
//! the sink scan.

use crate::callgraph::CallGraph;
use crate::contracts::{Role, RpcSite};
use crate::rawforward::FORWARD_FAMILY;
use crate::source::SourceFile;
use crate::Finding;

/// Crates that implement the RPC plane rather than use it; the walk
/// neither enters them nor scans their forward internals.
pub const PLUMBING: &[&str] =
    &["argobots", "bench", "lint", "margo", "mercury", "util", "wire"];

/// Index of the `CallContext` argument in the explicit-context forms.
const CONTEXT_ARG: usize = 4;

/// Runs the analysis over the built graph and contract table. One
/// finding per deadline-dropping forward reachable from a handler: kind
/// `drop:<forward-family method>`, path from a registering function to
/// the sink.
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
        for call in &graph.calls[node_id] {
            if call.in_spawn
                || call.receiver.is_none()
                || !FORWARD_FAMILY.contains(&call.callee.as_str())
            {
                continue;
            }
            let dropped = match call.callee.as_str() {
                // Context-less wrappers: clean only on an RpcContext
                // receiver (RpcContext::forward threads nested_context).
                "forward" => {
                    let typed_ctx = call.receiver_type.as_deref() == Some("RpcContext");
                    let named_ctx = call
                        .receiver
                        .as_deref()
                        .map(|r| r == "ctx" || r.ends_with("ctx") || r.ends_with("context"))
                        .unwrap_or(false);
                    !(typed_ctx || named_ctx)
                }
                "forward_timeout" => true,
                _ => match call.args.get(CONTEXT_ARG) {
                    Some(&(s, e)) => {
                        let arg = String::from_utf8_lossy(&files[node.file_idx].text[s..e]);
                        !arg.contains("nested_context") && arg.contains("TOP_LEVEL")
                    }
                    None => false,
                },
            };
            if dropped {
                let path = graph.path_names(&parents, node_id);
                findings.push(Finding {
                    rule: "MOCHI012",
                    file: node.file.clone(),
                    function: node.name.clone(),
                    kind: format!("drop:{}", call.callee),
                    line: call.line,
                    column: call.column,
                    message: format!(
                        "`{}` rebuilds a TOP_LEVEL context on a handler-reachable path ({}) — thread `ctx.nested_context()` (or a `with_context` client) so the caller's deadline propagates",
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
