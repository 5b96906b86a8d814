//! Lock-order analysis.
//!
//! Derives, per function, the lock-order facts from the guard spans the
//! [`crate::dataflow`] engine extracts, and records an edge `A → B`
//! whenever lock `B` is acquired while a guard of lock `A` is live in
//! the same closure context. Edges from every crate are merged into one
//! workspace lock-order graph; a cycle in that graph is a potential
//! deadlock.
//!
//! Locks are identified by *class*: the crate name plus the final field
//! (or variable) segment of the receiver chain, e.g. `self.inner.core.lock()`
//! in `crates/raft` is `raft::core`. Two instances of the same class held
//! together therefore look like a self-cycle; the analysis only reports a
//! self-edge when the full receiver chains are identical (a true re-lock,
//! which deadlocks immediately with `parking_lot`).
//!
//! The guard-liveness model (birth/death offsets, statement temporaries,
//! block scopes, `drop`, scrutinee promotion, fresh closure contexts) is
//! documented on [`crate::dataflow`].

use std::collections::{BTreeMap, BTreeSet};

use crate::dataflow::guard_spans;
use crate::source::SourceFile;
use crate::Finding;

/// One observed nested acquisition.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: usize,
    pub column: usize,
    pub function: String,
}

/// Extracts lock-order edges and recursive-lock findings (MOCHI002: a
/// re-acquisition of an already-held lock through the identical receiver
/// chain — an immediate self-deadlock with `parking_lot`; the kind is the
/// lock class) from one file. Both are projections of the same
/// [`crate::dataflow::GuardSpan`]s.
pub fn extract(file: &SourceFile) -> (Vec<LockEdge>, Vec<Finding>) {
    let mut edges = Vec::new();
    let mut recursive = Vec::new();
    for function in &file.functions {
        let spans = guard_spans(file, function.body_start, function.body_end);
        // An acquisition B while span A is live (same context) is either
        // a recursive re-lock (identical class and receiver chain) or a
        // lock-order edge A → B.
        for (bi, b) in spans.iter().enumerate() {
            for (ai, a) in spans.iter().enumerate() {
                if ai == bi || a.ctx != b.ctx || !(a.start < b.start && b.start < a.end) {
                    continue;
                }
                if a.lock == b.lock && a.chain == b.chain {
                    recursive.push(Finding {
                        rule: "MOCHI002",
                        file: file.rel_path.clone(),
                        function: function.name.clone(),
                        kind: b.lock.clone(),
                        line: b.line,
                        column: b.column,
                        message: format!(
                            "{} re-acquired while already held — immediate deadlock",
                            b.lock
                        ),
                        path: Vec::new(),
                    });
                } else {
                    edges.push(LockEdge {
                        from: a.lock.clone(),
                        to: b.lock.clone(),
                        file: file.rel_path.clone(),
                        line: b.line,
                        column: b.column,
                        function: function.name.clone(),
                    });
                }
            }
        }
    }
    (edges, recursive)
}

/// The lock-order cycles of the merged edge set as MOCHI001 findings:
/// one per edge that closes a cycle, at the nested acquisition's site
/// (kind `<from>-><to>`).
pub fn cycles(edges: &[LockEdge]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for cycle in find_cycles(edges) {
        for edge in cycle.edges {
            findings.push(Finding {
                rule: "MOCHI001",
                kind: format!("{}->{}", edge.from, edge.to),
                message: format!(
                    "lock-order cycle between {}: edge {} -> {}",
                    cycle.locks.join(" <-> "),
                    edge.from,
                    edge.to
                ),
                file: edge.file,
                function: edge.function,
                line: edge.line,
                column: edge.column,
                path: Vec::new(),
            });
        }
    }
    findings
}

/// A cycle in the lock-order graph: the participating lock classes and
/// the edges (with sites) that close the cycle.
#[derive(Debug, Clone)]
pub struct LockCycle {
    pub locks: Vec<String>,
    pub edges: Vec<LockEdge>,
}

/// Finds strongly connected components of size > 1 in the merged edge
/// set; each is reported as one potential-deadlock cycle.
pub fn find_cycles(edges: &[LockEdge]) -> Vec<LockCycle> {
    let mut adjacency: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adjacency.entry(&e.from).or_default().insert(&e.to);
        adjacency.entry(&e.to).or_default();
    }
    let nodes: Vec<&str> = adjacency.keys().copied().collect();
    let index_of: BTreeMap<&str, usize> =
        nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();

    // Tarjan's SCC, iterative.
    let n = nodes.len();
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        // (node, neighbor iterator position)
        let mut call: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut ni)) = call.last_mut() {
            if *ni == 0 {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let neighbors: Vec<usize> = adjacency[nodes[v]]
                .iter()
                .map(|m| index_of[m])
                .collect();
            if *ni < neighbors.len() {
                let w = neighbors[*ni];
                *ni += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                if lowlink[v] == index[v] {
                    let mut component = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let is_cycle = component.len() > 1
                        || component
                            .first()
                            .map(|&w| adjacency[nodes[w]].contains(nodes[w]))
                            .unwrap_or(false);
                    if is_cycle {
                        sccs.push(component);
                    }
                }
                let done = v;
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    lowlink[parent] = lowlink[parent].min(lowlink[done]);
                }
            }
        }
    }

    let mut cycles: Vec<LockCycle> = sccs
        .into_iter()
        .map(|component| {
            let mut locks: Vec<String> =
                component.iter().map(|&i| nodes[i].to_string()).collect();
            locks.sort();
            let members: BTreeSet<&str> = locks.iter().map(|s| s.as_str()).collect();
            let mut cycle_edges: Vec<LockEdge> = edges
                .iter()
                .filter(|e| members.contains(e.from.as_str()) && members.contains(e.to.as_str()))
                .cloned()
                .collect();
            cycle_edges.sort();
            cycle_edges.dedup_by(|a, b| a.from == b.from && a.to == b.to);
            LockCycle { locks, edges: cycle_edges }
        })
        .collect();
    cycles.sort_by(|a, b| a.locks.cmp(&b.locks));
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn edges_of(src: &str) -> Vec<LockEdge> {
        let file = SourceFile::parse("crates/demo/src/lib.rs", src);
        extract(&file).0
    }

    #[test]
    fn nested_let_guards_produce_edge() {
        let edges = edges_of(
            "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }",
        );
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].from, "demo::alpha");
        assert_eq!(edges[0].to, "demo::beta");
    }

    #[test]
    fn sequential_blocks_produce_no_edge() {
        let edges = edges_of(
            "fn f(&self) { { let a = self.alpha.lock(); } { let b = self.beta.lock(); } }",
        );
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn temporaries_end_at_statement() {
        let edges = edges_of(
            "fn f(&self) { self.alpha.lock().push(1); let b = self.beta.lock(); }",
        );
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn same_statement_temporaries_chain() {
        let edges =
            edges_of("fn f(&self) { let x = self.alpha.lock().v + self.beta.lock().v; }");
        assert_eq!(edges.len(), 1);
        assert_eq!((edges[0].from.as_str(), edges[0].to.as_str()), ("demo::alpha", "demo::beta"));
    }

    #[test]
    fn if_condition_temporary_released_before_body() {
        let edges = edges_of(
            "fn f(&self) { if self.alpha.lock().enabled { let b = self.beta.lock(); } }",
        );
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn match_scrutinee_temporary_extends_over_arms() {
        let edges = edges_of(
            "fn f(&self) { match self.alpha.lock().kind { K::A => { let b = self.beta.lock(); } _ => {} } }",
        );
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].from, "demo::alpha");
    }

    #[test]
    fn drop_releases_guard() {
        let edges = edges_of(
            "fn f(&self) { let a = self.alpha.lock(); drop(a); let b = self.beta.lock(); }",
        );
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn closures_start_fresh_held_set() {
        let edges = edges_of(
            "fn f(&self) { let a = self.alpha.lock(); run(move || { let b = self.beta.lock(); }); }",
        );
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn rwlock_read_write_count_as_acquisitions() {
        let edges = edges_of(
            "fn f(&self) { let a = self.alpha.read(); let b = self.beta.write(); }",
        );
        assert_eq!(edges.len(), 1);
    }

    #[test]
    fn io_read_with_arguments_is_not_a_lock() {
        let edges = edges_of(
            "fn f(&self) { let a = self.alpha.lock(); let n = file.read(&mut buf); }",
        );
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn identical_chain_relock_reported_recursive() {
        let file = SourceFile::parse(
            "crates/demo/src/lib.rs",
            "fn f(&self) { let a = self.alpha.lock(); let b = self.alpha.lock(); }",
        );
        let (edges, recursive) = extract(&file);
        assert!(edges.is_empty());
        assert_eq!(recursive.len(), 1);
        assert_eq!((recursive[0].rule, recursive[0].kind.as_str()), ("MOCHI002", "demo::alpha"));
    }

    #[test]
    fn ab_ba_inversion_detected_as_cycle() {
        let a = SourceFile::parse(
            "crates/one/src/lib.rs",
            "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }",
        );
        let b = SourceFile::parse(
            "crates/one/src/other.rs",
            "fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }",
        );
        let mut edges = extract(&a).0;
        edges.extend(extract(&b).0);
        let cycles = find_cycles(&edges);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].locks, vec!["one::alpha".to_string(), "one::beta".to_string()]);
        assert_eq!(cycles[0].edges.len(), 2);
        let kinds: Vec<String> = super::cycles(&edges).into_iter().map(|f| f.kind).collect();
        assert_eq!(kinds, vec!["one::alpha->one::beta", "one::beta->one::alpha"]);
    }

    #[test]
    fn consistent_order_yields_no_cycle() {
        let a = SourceFile::parse(
            "crates/one/src/lib.rs",
            "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\nfn g(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }",
        );
        let edges = extract(&a).0;
        assert!(find_cycles(&edges).is_empty());
    }
}
