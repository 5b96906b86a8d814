//! Workspace-wide call graph for the interprocedural analysis
//! (MOCHI013).
//!
//! Nodes are the function bodies [`crate::source::SourceFile`] already
//! extracts; edges are calls resolved lexically:
//!
//! * **Direct** — free or path calls (`helper(x)`, `storage::load_log(p)`,
//!   `Type::new(…)`, `Self::replicator_loop(…)`) resolved same-file
//!   first, then same-crate-unique, then workspace-unique.
//! * **Method** — `recv.method(…)` where the receiver's type is inferred
//!   (see below) and an `impl Type` block defines the method.
//! * **Trait** — `recv.method(…)` where the receiver is a `dyn Trait`
//!   object; the edge fans out to every `impl Trait for …` method.
//! * **Fallback** — the receiver could not be typed, but exactly one
//!   workspace function bears the method name and the name is not a
//!   common std method (`lock`, `push`, `remove`, …). Counted separately
//!   so resolution regressions are visible.
//!
//! Receiver-type inference handles: `self` (innermost `impl` owner),
//! `self.field.field` chains through a struct-field index (transparent
//! through `Arc`/`Box`/`Mutex`/`RwLock` wrappers and `.lock()`-style
//! guard calls), `let x: T`, `let x = Type { … }`, `let x = Type::new(…)`,
//! `let x = Arc::new(Inner { … })`, `let x = Arc::clone(&y)`,
//! `let x = self.clone()`, and `ident: T` annotations anywhere in the
//! enclosing function (parameters and closure parameters alike).
//!
//! Method calls the graph deliberately does **not** resolve: calls on
//! generic parameters and unannotated closure parameters, and calls
//! whose name no workspace function defines (std/external). The former
//! increment [`CallGraph::unresolved_calls`] when the name exists in the
//! workspace — the fixture tests pin that count so silent resolution
//! regressions fail loudly.
//!
//! **Fire-and-forget boundary:** any call site lexically inside the
//! argument span of a `spawn`-family call (`std::thread::spawn`,
//! `Builder::new().spawn`, `ExecutionStream::spawn`, …) produces no
//! edge. Work handed to another thread/ULT runs at top level, not as
//! part of the handler that started it, so walking into it would charge
//! every background replication loop's effects to that handler.

use std::collections::BTreeMap;

use crate::contracts::{
    normalize_type, preceded_by_fn_keyword, skip_turbofish, skip_ws, split_args,
};
use crate::lexer::{
    column_of, is_ident_byte, line_of, matching_brace, matching_paren, word_at,
};
use crate::source::SourceFile;

/// How a call edge was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    Direct,
    Method,
    Trait,
    Fallback,
}

/// One resolved call edge.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub to: usize,
    pub kind: EdgeKind,
}

/// One function in the graph.
#[derive(Debug, Clone)]
pub struct Node {
    pub file_idx: usize,
    pub func_idx: usize,
    /// Function name.
    pub name: String,
    /// Workspace-relative file path.
    pub file: String,
    pub crate_name: String,
    /// Owner type when the function sits inside an `impl` block.
    pub impl_type: Option<String>,
    pub start_line: usize,
}

/// One call site observed in a function body, with enough context for
/// the analyses to classify it without re-parsing the file.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Method or function name at the site.
    pub callee: String,
    /// Offset of the name in the sanitized text.
    pub offset: usize,
    pub line: usize,
    pub column: usize,
    /// Receiver expression for method calls (`self.inner.margo`).
    pub receiver: Option<String>,
    /// Inferred receiver type, when inference succeeded.
    pub receiver_type: Option<String>,
    /// Argument spans (sanitized-text offsets) of the call.
    pub args: Vec<(usize, usize)>,
    /// Graph targets the site resolved to (empty for external calls).
    pub targets: Vec<usize>,
    /// True when the site sits inside a `spawn(…)` argument span — a
    /// fire-and-forget boundary the reachability walk does not cross.
    pub in_spawn: bool,
}

/// Summary counters, surfaced in the report.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphStats {
    pub nodes: usize,
    pub edges: usize,
    pub resolved_calls: usize,
    pub unresolved_calls: usize,
    pub fallback_edges: usize,
}

/// The workspace call graph.
pub struct CallGraph {
    pub nodes: Vec<Node>,
    /// Adjacency list, deduplicated, parallel to `nodes`.
    pub edges: Vec<Vec<Edge>>,
    /// Every call site per node, parallel to `nodes`.
    pub calls: Vec<Vec<CallSite>>,
    /// Method/path calls that resolved to at least one node.
    pub resolved_calls: usize,
    /// Method calls whose name exists in the workspace but whose
    /// receiver could not be typed (and no fallback applied).
    pub unresolved_calls: usize,
    /// Edges added by the unique-name fallback.
    pub fallback_edges: usize,
    node_ids: BTreeMap<(usize, usize), usize>,
}

/// Method names too common in std to trust the unique-name fallback.
const FALLBACK_DENY: &[&str] = &[
    "abort", "append", "clear", "clone", "close", "collect", "commit", "contains", "contains_key",
    "drain", "entry", "expect", "extend", "filter", "find", "flush", "get", "insert", "into",
    "is_empty", "iter", "join", "keys", "len", "load", "lock", "map", "next", "new", "open",
    "parse", "pop", "push", "read", "recv", "remove", "run", "send", "sort", "start", "stop",
    "store", "swap", "take", "to_string", "unwrap", "values", "wait", "write",
];

/// Free-call names never resolved (std preludes and common shadows).
const FREE_DENY: &[&str] =
    &["drop", "default", "format", "matches", "min", "max", "new", "write", "writeln"];

/// Keywords that look like `ident (` at statement level.
const KEYWORDS: &[&str] = &[
    "as", "break", "continue", "crate", "dyn", "else", "enum", "fn", "for", "if", "impl", "in",
    "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "self", "Self",
    "struct", "super", "trait", "unsafe", "use", "where", "while",
];

/// Guard-producing or type-preserving chain segments the field-hop
/// resolver can see through (`self.state.lock().remove(…)`).
const TRANSPARENT_SEGMENTS: &[&str] =
    &["as_mut()", "as_ref()", "borrow()", "borrow_mut()", "clone()", "lock()", "read()", "write()"];

struct Indexes {
    /// `(owner type, method) → node ids`.
    methods_of_type: BTreeMap<(String, String), Vec<usize>>,
    /// `(trait, method) → node ids` across every `impl Trait for T`.
    trait_methods: BTreeMap<(String, String), Vec<usize>>,
    /// `(struct, field) → base field type`.
    field_types: BTreeMap<(String, String), String>,
    /// Function name → node ids, workspace-wide.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Per file: its impl blocks.
    impls: Vec<Vec<ImplBlock>>,
}

impl CallGraph {
    /// Builds the graph over already-parsed sources.
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut nodes = Vec::new();
        let mut node_ids = BTreeMap::new();
        let mut impls = Vec::with_capacity(files.len());
        for (file_idx, file) in files.iter().enumerate() {
            let file_impls = impl_blocks(&file.text);
            for (func_idx, func) in file.functions.iter().enumerate() {
                let impl_type = file_impls
                    .iter()
                    .filter(|(s, e, _, _)| *s <= func.body_start && func.body_start < *e)
                    .min_by_key(|(s, e, _, _)| e - s)
                    .map(|(_, _, owner, _)| owner.clone());
                let id = nodes.len();
                node_ids.insert((file_idx, func_idx), id);
                nodes.push(Node {
                    file_idx,
                    func_idx,
                    name: func.name.clone(),
                    file: file.rel_path.clone(),
                    crate_name: file.crate_name.clone(),
                    impl_type,
                    start_line: func.start_line,
                });
            }
            impls.push(file_impls);
        }

        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (id, node) in nodes.iter().enumerate() {
            by_name.entry(node.name.clone()).or_default().push(id);
        }
        let mut methods_of_type: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut trait_methods: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (id, node) in nodes.iter().enumerate() {
            let func = &files[node.file_idx].functions[node.func_idx];
            let innermost = impls[node.file_idx]
                .iter()
                .filter(|(s, e, _, _)| *s <= func.body_start && func.body_start < *e)
                .min_by_key(|(s, e, _, _)| e - s);
            if let Some((_, _, owner, trait_name)) = innermost {
                methods_of_type.entry((owner.clone(), node.name.clone())).or_default().push(id);
                if let Some(trait_name) = trait_name {
                    trait_methods
                        .entry((trait_name.clone(), node.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
        }
        let mut field_types = BTreeMap::new();
        for file in files {
            struct_fields(&file.text, &mut field_types);
        }
        let indexes = Indexes { methods_of_type, trait_methods, field_types, by_name, impls };

        let mut graph = CallGraph {
            edges: vec![Vec::new(); nodes.len()],
            calls: vec![Vec::new(); nodes.len()],
            nodes,
            resolved_calls: 0,
            unresolved_calls: 0,
            fallback_edges: 0,
            node_ids,
        };
        for (file_idx, file) in files.iter().enumerate() {
            graph.scan_file(file, file_idx, &indexes);
        }
        for edges in &mut graph.edges {
            edges.sort();
            edges.dedup();
        }
        graph
    }

    /// Node ids whose function matches `(file, function)` — the shape
    /// contract sites are keyed by.
    pub fn nodes_named(&self, file: &str, function: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.file == file && n.name == function)
            .map(|(id, _)| id)
            .collect()
    }

    /// Summary counters for the report.
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            nodes: self.nodes.len(),
            edges: self.edges.iter().map(Vec::len).sum(),
            resolved_calls: self.resolved_calls,
            unresolved_calls: self.unresolved_calls,
            fallback_edges: self.fallback_edges,
        }
    }

    /// BFS from `entries`; `descend` filters which nodes the walk may
    /// enter. Returns `node → parent` (entries map to themselves), so
    /// callers can reconstruct a witness path.
    pub fn reachable(
        &self,
        entries: &[usize],
        descend: impl Fn(&Node) -> bool,
    ) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &entry in entries {
            if parent.insert(entry, entry).is_none() {
                queue.push_back(entry);
            }
        }
        while let Some(id) = queue.pop_front() {
            for edge in &self.edges[id] {
                if parent.contains_key(&edge.to) || !descend(&self.nodes[edge.to]) {
                    continue;
                }
                parent.insert(edge.to, id);
                queue.push_back(edge.to);
            }
        }
        parent
    }

    /// Witness path `entry -> … -> node` as function names.
    pub fn path_names(&self, parents: &BTreeMap<usize, usize>, mut node: usize) -> Vec<String> {
        let mut path = vec![self.nodes[node].name.clone()];
        while let Some(&p) = parents.get(&node) {
            if p == node {
                break;
            }
            node = p;
            path.push(self.nodes[node].name.clone());
        }
        path.reverse();
        path
    }

    fn scan_file(&mut self, file: &SourceFile, file_idx: usize, indexes: &Indexes) {
        let text = &file.text;
        let mut spawn_spans: Vec<(usize, usize)> = Vec::new();
        let mut i = 1usize;
        while i < text.len() {
            if !is_ident_byte(text[i]) || is_ident_byte(text[i - 1]) {
                i += 1;
                continue;
            }
            let start = i;
            let mut k = i;
            while k < text.len() && is_ident_byte(text[k]) {
                k += 1;
            }
            let word = String::from_utf8_lossy(&text[start..k]).into_owned();
            i = k;
            if KEYWORDS.contains(&word.as_str()) || word.as_bytes()[0].is_ascii_digit() {
                continue;
            }
            if text.get(k) == Some(&b'!') {
                continue; // macro invocation
            }
            let mut j = k;
            skip_turbofish(text, &mut j);
            j = skip_ws(text, j);
            if text.get(j) != Some(&b'(') {
                continue;
            }
            let open = j;
            let close = matching_paren(text, open);
            // Attribute the site to the innermost enclosing function.
            let Some(func_idx) = file
                .functions
                .iter()
                .enumerate()
                .filter(|(_, f)| f.body_start <= start && start < f.body_end)
                .min_by_key(|(_, f)| f.body_end - f.body_start)
                .map(|(idx, _)| idx)
            else {
                continue;
            };
            let node_id = self.node_ids[&(file_idx, func_idx)];
            let in_spawn = spawn_spans.iter().any(|&(s, e)| s <= start && start < e);
            if word.starts_with("spawn") {
                spawn_spans.push((open + 1, close));
            }

            let before = text[start - 1];
            let mut receiver = None;
            let mut receiver_type = None;
            let mut targets: Vec<usize> = Vec::new();
            let mut counts_as_unresolved = false;
            if before == b'.' {
                // Method call: type the receiver, then look the method up.
                let rstart = receiver_start(text, start - 1);
                // Strip line breaks and indentation out of multiline chains
                // so `self\n.inner\n.margo` types like `self.inner.margo`.
                let rtext: String =
                    String::from_utf8_lossy(&text[rstart..start - 1]).split_whitespace().collect();
                receiver_type = self.receiver_type(file, file_idx, indexes, rstart, &rtext, 0);
                receiver = Some(rtext);
                match receiver_type.as_deref() {
                    Some(t) if t.starts_with("dyn ") => {
                        if let Some(impls) =
                            indexes.trait_methods.get(&(t[4..].to_string(), word.clone()))
                        {
                            targets = impls.clone();
                        }
                    }
                    Some(t) => {
                        if let Some(methods) =
                            indexes.methods_of_type.get(&(t.to_string(), word.clone()))
                        {
                            targets = methods.clone();
                        }
                    }
                    None => {
                        if let Some(candidates) = indexes.by_name.get(&word) {
                            if candidates.len() == 1 && !FALLBACK_DENY.contains(&word.as_str()) {
                                targets = candidates.clone();
                                if !in_spawn {
                                    self.fallback_edges += 1;
                                }
                            } else {
                                counts_as_unresolved = true;
                            }
                        }
                    }
                }
                let kind = match receiver_type.as_deref() {
                    Some(t) if t.starts_with("dyn ") => EdgeKind::Trait,
                    Some(_) => EdgeKind::Method,
                    None => EdgeKind::Fallback,
                };
                if !in_spawn {
                    for &to in &targets {
                        self.edges[node_id].push(Edge { to, kind });
                    }
                }
            } else if start >= 2 && text[start - 1] == b':' && text[start - 2] == b':' {
                // Path call: `Type::method(…)`, `Self::f(…)`, `mod::f(…)`.
                let (path_start, segments) = path_segments(text, start);
                let _ = path_start;
                let qualifier = segments.iter().rev().nth(1).cloned().unwrap_or_default();
                let owner = if qualifier == "Self" {
                    self.nodes[node_id].impl_type.clone()
                } else if qualifier.chars().next().map(char::is_uppercase).unwrap_or(false) {
                    Some(base_of(&qualifier).unwrap_or(qualifier.clone()))
                } else {
                    None
                };
                if let Some(owner) = owner {
                    if let Some(methods) = indexes.methods_of_type.get(&(owner, word.clone())) {
                        targets = methods.clone();
                    }
                } else {
                    targets = resolve_free(indexes, &self.nodes, file_idx, &word);
                }
                if !in_spawn {
                    for &to in &targets {
                        self.edges[node_id].push(Edge { to, kind: EdgeKind::Direct });
                    }
                }
            } else {
                // Free call.
                if preceded_by_fn_keyword(text, start) || FREE_DENY.contains(&word.as_str()) {
                    continue;
                }
                targets = resolve_free(indexes, &self.nodes, file_idx, &word);
                if !in_spawn {
                    for &to in &targets {
                        self.edges[node_id].push(Edge { to, kind: EdgeKind::Direct });
                    }
                }
            }
            if !targets.is_empty() {
                self.resolved_calls += 1;
            } else if counts_as_unresolved {
                self.unresolved_calls += 1;
            }
            self.calls[node_id].push(CallSite {
                callee: word,
                offset: start,
                line: line_of(text, start),
                column: column_of(text, start),
                receiver,
                receiver_type,
                args: split_args(text, open + 1, close),
                targets,
                in_spawn,
            });
        }
    }

    /// Types a method-call receiver expression.
    fn receiver_type(
        &self,
        file: &SourceFile,
        file_idx: usize,
        indexes: &Indexes,
        offset: usize,
        receiver: &str,
        depth: usize,
    ) -> Option<String> {
        if depth > 4 {
            return None;
        }
        let segments = split_chain(receiver)?;
        let mut segs = segments.iter();
        let first = segs.next()?;
        let mut current = if first == "self" {
            self.owner_at(file_idx, indexes, offset)?
        } else if first.bytes().all(is_ident_byte) {
            self.ident_type(file, file_idx, indexes, offset, first, depth)?
        } else {
            return None;
        };
        for seg in segs {
            if TRANSPARENT_SEGMENTS.contains(&seg.as_str()) {
                continue;
            }
            if !seg.bytes().all(is_ident_byte) {
                return None; // an untyped method call in the chain
            }
            let next = indexes.field_types.get(&(current.clone(), seg.clone()))?;
            current = next.clone();
        }
        Some(current)
    }

    /// `impl` owner of the innermost impl block containing `offset`.
    fn owner_at(&self, file_idx: usize, indexes: &Indexes, offset: usize) -> Option<String> {
        indexes.impls[file_idx]
            .iter()
            .filter(|(s, e, _, _)| *s <= offset && offset < *e)
            .min_by_key(|(s, e, _, _)| e - s)
            .map(|(_, _, owner, _)| owner.clone())
    }

    /// Types a plain identifier: `let` bindings (annotation or known RHS
    /// shapes), then any `ident: T` annotation in the enclosing function
    /// (parameters and closure parameters).
    fn ident_type(
        &self,
        file: &SourceFile,
        file_idx: usize,
        indexes: &Indexes,
        offset: usize,
        ident: &str,
        depth: usize,
    ) -> Option<String> {
        // A shadowing binding (`let margo = margo.clone();`) recurses back
        // into itself through `rhs_type`; the cap makes that a miss, not a
        // stack overflow.
        if depth > 4 {
            return None;
        }
        let text = &file.text;
        let function = file.function_at(offset)?;
        let body = &text[function.body_start..offset.min(function.body_end)];
        let needle = ident.as_bytes();
        // Nearest preceding `let [mut] ident` binding.
        let mut best: Option<usize> = None;
        let mut k = 0usize;
        while k + needle.len() <= body.len() {
            if &body[k..k + needle.len()] == needle
                && (k == 0 || !is_ident_byte(body[k - 1]))
                && !body.get(k + needle.len()).map(|&b| is_ident_byte(b)).unwrap_or(false)
            {
                let before = String::from_utf8_lossy(&body[k.saturating_sub(12)..k]);
                // `let $server = self.clone();` inside a macro_rules!
                // body binds the ident the expansion sites use — strip
                // the metavariable sigil so the binding still matches.
                let before = before.trim_end_matches('$').trim_end();
                if before.ends_with("let") || before.ends_with("let mut") {
                    best = Some(k);
                }
            }
            k += 1;
        }
        if let Some(k) = best {
            let after = function.body_start + k + needle.len();
            let mut j = skip_ws(text, after);
            if text.get(j) == Some(&b':') {
                let type_start = j + 1;
                let mut depth_angle = 0i32;
                j = type_start;
                while j < function.body_end {
                    match text[j] {
                        b'<' => depth_angle += 1,
                        b'>' => depth_angle -= 1,
                        b'=' | b';' if depth_angle == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let annotation = String::from_utf8_lossy(&text[type_start..j]).into_owned();
                return normalize_type(&annotation).as_deref().and_then(base_of);
            }
            if text.get(j) == Some(&b'=') {
                let rhs_start = skip_ws(text, j + 1);
                let mut semi = rhs_start;
                let mut d = 0i32;
                while semi < function.body_end {
                    match text[semi] {
                        b'(' | b'[' | b'{' => d += 1,
                        b')' | b']' | b'}' => d -= 1,
                        b';' if d == 0 => break,
                        _ => {}
                    }
                    semi += 1;
                }
                let rhs = String::from_utf8_lossy(&text[rhs_start..semi]).trim().to_string();
                return self.rhs_type(file, file_idx, indexes, offset, &rhs, depth);
            }
        }
        // `ident: T` annotation anywhere in the function (signature and
        // body, which covers closure parameters).
        let sig_start = text[..function.body_start]
            .windows(3)
            .rposition(|w| &w[..2] == b"fn" && w[2].is_ascii_whitespace())
            .unwrap_or(function.body_start);
        let span = &text[sig_start..function.body_end.min(text.len())];
        let mut k = 0usize;
        let mut last: Option<String> = None;
        while k + needle.len() <= span.len() {
            if &span[k..k + needle.len()] == needle
                && (k == 0 || !is_ident_byte(span[k - 1]))
                && !span.get(k + needle.len()).map(|&b| is_ident_byte(b)).unwrap_or(false)
            {
                let mut j = skip_ws(span, k + needle.len());
                if span.get(j) == Some(&b':') && span.get(j + 1) != Some(&b':') {
                    let type_start = j + 1;
                    let mut d = 0i32;
                    j = type_start;
                    while j < span.len() {
                        match span[j] {
                            b'<' | b'(' | b'[' => d += 1,
                            b'>' | b')' | b']' if d > 0 => d -= 1,
                            b',' | b'|' | b')' | b'=' | b'{' | b';' if d == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    let candidate = String::from_utf8_lossy(&span[type_start..j]).into_owned();
                    if let Some(base) =
                        normalize_type(&candidate).as_deref().and_then(base_of)
                    {
                        // Only trust bases that name a workspace type or
                        // trait — struct-literal fields (`token: args.token`)
                        // produce expression garbage this filters out.
                        if known_type(indexes, &base) {
                            last = Some(base);
                        }
                    }
                }
            }
            k += 1;
        }
        last
    }

    /// Types a `let` RHS with the constructor shapes the workspace uses.
    fn rhs_type(
        &self,
        file: &SourceFile,
        file_idx: usize,
        indexes: &Indexes,
        offset: usize,
        rhs: &str,
        depth: usize,
    ) -> Option<String> {
        let mut rhs = rhs.trim();
        // Unwrap smart-pointer constructors: `Arc::new(inner)` → `inner`.
        loop {
            let mut stripped = false;
            for wrapper in ["Arc::new(", "Box::new(", "Rc::new(", "Some("] {
                if let Some(rest) = rhs.strip_prefix(wrapper) {
                    rhs = rest.strip_suffix(')').unwrap_or(rest).trim();
                    stripped = true;
                }
            }
            if !stripped {
                break;
            }
        }
        for cloner in ["Arc::clone(&", "Rc::clone(&"] {
            if let Some(rest) = rhs.strip_prefix(cloner) {
                let inner = rest.strip_suffix(')').unwrap_or(rest).trim();
                if inner == "self" {
                    return self.owner_at(file_idx, indexes, offset);
                }
                if inner.bytes().all(is_ident_byte) {
                    return self.ident_type(file, file_idx, indexes, offset, inner, depth + 1);
                }
                return None;
            }
        }
        if rhs == "self.clone()" {
            return self.owner_at(file_idx, indexes, offset);
        }
        if let Some(inner) = rhs.strip_suffix(".clone()") {
            if inner == "self" {
                return self.owner_at(file_idx, indexes, offset);
            }
            if inner.bytes().all(is_ident_byte) {
                return self.ident_type(file, file_idx, indexes, offset, inner, depth + 1);
            }
        }
        // `Type { … }` struct literal or `Type::ctor(…)` constructor call.
        let head_end = rhs
            .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
            .unwrap_or(rhs.len());
        let head = &rhs[..head_end];
        let after = rhs[head_end..].trim_start();
        if !head.is_empty() {
            let last = head.rsplit("::").next().unwrap_or(head);
            let qualifier = {
                let mut parts: Vec<&str> = head.split("::").collect();
                parts.pop();
                parts.pop().unwrap_or("")
            };
            if after.starts_with('{')
                && last.chars().next().map(char::is_uppercase).unwrap_or(false)
            {
                return Some(last.to_string());
            }
            if after.starts_with('(')
                && head.contains("::")
                && qualifier.is_empty()
                // `Type::ctor(…)` — the segment before the fn is the type.
            {
                let type_seg = head.split("::").next().unwrap_or("");
                if type_seg.chars().next().map(char::is_uppercase).unwrap_or(false)
                    && known_type(indexes, type_seg)
                {
                    return Some(type_seg.to_string());
                }
            }
        }
        None
    }
}

/// Whether `name` is a type (or trait) the workspace defines — used to
/// reject expression garbage picked up by the annotation scan.
fn known_type(indexes: &Indexes, name: &str) -> bool {
    // Trait-object bases arrive as `dyn Trait`; the indexes key traits
    // bare.
    let name = name.strip_prefix("dyn ").unwrap_or(name);
    indexes.methods_of_type.keys().any(|(t, _)| t == name)
        || indexes.trait_methods.keys().any(|(t, _)| t == name)
        || indexes.field_types.keys().any(|(t, _)| t == name)
}

/// Resolves a free-function call: same file, then same-crate unique,
/// then workspace unique.
fn resolve_free(indexes: &Indexes, nodes: &[Node], file_idx: usize, name: &str) -> Vec<usize> {
    let Some(candidates) = indexes.by_name.get(name) else { return Vec::new() };
    let same_file: Vec<usize> =
        candidates.iter().copied().filter(|&id| nodes[id].file_idx == file_idx).collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let crate_name = nodes
        .iter()
        .find(|n| n.file_idx == file_idx)
        .map(|n| n.crate_name.clone())
        .unwrap_or_default();
    let same_crate: Vec<usize> =
        candidates.iter().copied().filter(|&id| nodes[id].crate_name == crate_name).collect();
    if same_crate.len() == 1 {
        return same_crate;
    }
    if same_crate.is_empty() && candidates.len() == 1 {
        return candidates.clone();
    }
    Vec::new()
}

/// Walks back from the `.` of a method call to the start of the
/// receiver chain (`self.inner.margo`, `foo(x).bar`, `list[0]`).
fn receiver_start(text: &[u8], dot: usize) -> usize {
    let mut i = dot;
    while i > 0 {
        let b = text[i - 1];
        if is_ident_byte(b) || b == b'.' {
            i -= 1;
        } else if b.is_ascii_whitespace() {
            // Whitespace belongs to the chain only when it touches a `.`
            // (multiline builder chains: `self\n.inner\n.margo\n.forward`);
            // anything else ends the receiver.
            let right = text[i];
            let mut p = i;
            while p > 0 && text[p - 1].is_ascii_whitespace() {
                p -= 1;
            }
            if right == b'.' || (p > 0 && text[p - 1] == b'.') {
                i = p;
            } else {
                break;
            }
        } else if b == b')' || b == b']' {
            let (open, class) = if b == b')' { (b'(', b')') } else { (b'[', b']') };
            let mut depth = 0usize;
            while i > 0 {
                let c = text[i - 1];
                if c == class {
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
        } else if b == b'?' {
            i -= 1;
        } else {
            break;
        }
    }
    i
}

/// Splits a receiver chain on top-level dots: `self.a.lock().b` →
/// `["self", "a", "lock()", "b"]`. Returns `None` for expressions the
/// resolver does not model (leading calls, indexing, parens).
fn split_chain(receiver: &str) -> Option<Vec<String>> {
    let bytes = receiver.as_bytes();
    let mut segments = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'.' if depth == 0 => {
                segments.push(receiver[start..i].to_string());
                start = i + 1;
            }
            _ => {}
        }
    }
    segments.push(receiver[start..].to_string());
    if segments.iter().any(|s| s.is_empty()) {
        return None;
    }
    Some(segments)
}

/// Path segments ending at the ident starting at `offset` (which is
/// preceded by `::`): for `a::B::c(`, returns `["a", "B", "c"]`.
fn path_segments(text: &[u8], offset: usize) -> (usize, Vec<String>) {
    let mut i = offset;
    // offset points at the final ident; walk back over `::ident` pairs.
    while i >= 2 && text[i - 1] == b':' && text[i - 2] == b':' {
        let mut j = i - 2;
        // `<Type as Trait>::` — stop, not modeled.
        if j > 0 && text[j - 1] == b'>' {
            break;
        }
        while j > 0 && is_ident_byte(text[j - 1]) {
            j -= 1;
        }
        if j == i - 2 {
            break;
        }
        i = j;
    }
    let mut end = offset;
    while end < text.len() && is_ident_byte(text[end]) {
        end += 1;
    }
    let path = String::from_utf8_lossy(&text[i..end]).into_owned();
    (i, path.split("::").map(str::to_string).collect())
}

/// Base type ident of a normalized type string: strips smart-pointer and
/// lock wrappers, keeps `dyn Trait` markers, drops generics.
/// `Arc<Mutex<HashMap<String,Transfer>>>` → `HashMap`;
/// `Arc<dynProviderModule+Send>` → `dyn ProviderModule`.
pub(crate) fn base_of(normalized: &str) -> Option<String> {
    let mut t = normalized.trim();
    loop {
        let mut stripped = false;
        for w in ["Arc<", "Box<", "Rc<", "Mutex<", "RwLock<", "RefCell<", "Cell<", "Option<"] {
            if let Some(rest) = t.strip_prefix(w) {
                t = rest.strip_suffix('>').unwrap_or(rest);
                stripped = true;
            }
        }
        if !stripped {
            break;
        }
    }
    // normalize_type strips whitespace, so `dyn Trait` arrives as
    // `dynTrait`.
    if let Some(rest) = t.strip_prefix("dyn") {
        if rest.chars().next().map(char::is_uppercase).unwrap_or(false) {
            let end = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            return Some(format!("dyn {}", &rest[..end]));
        }
    }
    let end = t.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(t.len());
    let ident = &t[..end];
    if ident.chars().next().map(|c| c.is_uppercase()).unwrap_or(false) {
        Some(ident.to_string())
    } else {
        None
    }
}

/// One `impl [Trait for] Type { … }` block: `(start, end, owner, trait)`.
type ImplBlock = (usize, usize, String, Option<String>);

/// Finds the impl blocks of a file. `impl Trait`-in-type-position
/// (bounds, return types) is filtered by the preceding token.
fn impl_blocks(text: &[u8]) -> Vec<ImplBlock> {
    let mut blocks = Vec::new();
    let mut i = 0usize;
    while i + 4 < text.len() {
        if !word_at(text, i, "impl") {
            i += 1;
            continue;
        }
        // Reject `impl Trait` in type position: `: impl`, `(impl`,
        // `,impl`, `=impl`, `<impl`, `&impl`, `+impl`, `-> impl`.
        let mut p = i;
        while p > 0 && text[p - 1].is_ascii_whitespace() {
            p -= 1;
        }
        if p > 0 && matches!(text[p - 1], b':' | b'(' | b',' | b'=' | b'<' | b'&' | b'+' | b'>')
        {
            // `>` also ends `->`; both mean type position.
            i += 4;
            continue;
        }
        let mut j = skip_ws(text, i + 4);
        // Skip generic parameters on the impl itself.
        if text.get(j) == Some(&b'<') {
            let mut depth = 0i32;
            while j < text.len() {
                match text[j] {
                    b'<' => depth += 1,
                    b'>' => {
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
        }
        // Head: everything to the depth-0 `{`, split on ` for `.
        let head_start = j;
        let mut depth = 0i32;
        let mut open = None;
        let mut abort = false;
        while j < text.len() {
            match text[j] {
                b'<' | b'(' | b'[' => depth += 1,
                b'>' | b')' | b']' if depth > 0 => depth -= 1,
                b'{' if depth == 0 => {
                    open = Some(j);
                    break;
                }
                b';' | b')' if depth == 0 => {
                    abort = true;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j.max(i + 4);
            if abort {
                continue;
            }
            continue;
        };
        let head = String::from_utf8_lossy(&text[head_start..open]).into_owned();
        let head = head.split(" where ").next().unwrap_or(&head).trim().to_string();
        let (trait_part, owner_part) = match head.find(" for ") {
            Some(pos) => (Some(head[..pos].trim().to_string()), head[pos + 5..].trim().to_string()),
            None => (None, head),
        };
        let owner = normalize_type(&owner_part)
            .as_deref()
            .and_then(base_of)
            .unwrap_or_else(|| owner_part.clone());
        let trait_name = trait_part
            .as_deref()
            .and_then(normalize_type)
            .as_deref()
            .and_then(base_of);
        let end = matching_brace(text, open);
        blocks.push((open, end, owner, trait_name));
        i = open + 1;
    }
    blocks
}

/// Indexes `struct Name { field: Type, … }` field types (base idents).
fn struct_fields(text: &[u8], out: &mut BTreeMap<(String, String), String>) {
    let mut i = 0usize;
    while i + 6 < text.len() {
        if !word_at(text, i, "struct") {
            i += 1;
            continue;
        }
        let mut j = skip_ws(text, i + 6);
        let name_start = j;
        while j < text.len() && is_ident_byte(text[j]) {
            j += 1;
        }
        if j == name_start {
            i += 6;
            continue;
        }
        let name = String::from_utf8_lossy(&text[name_start..j]).into_owned();
        // Skip generics, find the body `{` (tuple structs and unit
        // structs have none at depth 0 before `;`).
        let mut depth = 0i32;
        let mut open = None;
        while j < text.len() {
            match text[j] {
                b'<' | b'(' => depth += 1,
                b'>' | b')' if depth > 0 => depth -= 1,
                b'{' if depth == 0 => {
                    open = Some(j);
                    break;
                }
                b';' if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j.max(i + 6);
            continue;
        };
        let close = matching_brace(text, open);
        for (s, e) in split_args(text, open + 1, close.saturating_sub(1)) {
            let field = String::from_utf8_lossy(&text[s..e]).into_owned();
            let Some(colon) = top_level_colon(&field) else { continue };
            let fname = field[..colon]
                .trim()
                .rsplit(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
                .unwrap_or("")
                .to_string();
            if fname.is_empty() {
                continue;
            }
            if let Some(base) = normalize_type(&field[colon + 1..]).as_deref().and_then(base_of) {
                out.insert((name.clone(), fname), base);
            }
        }
        i = close.max(open + 1);
    }
}

/// Position of the field-name colon in a struct-field declaration
/// (skipping generics and nested type syntax).
fn top_level_colon(field: &str) -> Option<usize> {
    let bytes = field.as_bytes();
    let mut depth = 0i32;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'<' | b'(' | b'[' => depth += 1,
            b'>' | b')' | b']' => depth -= 1,
            b':' if depth == 0 => {
                if bytes.get(i + 1) == Some(&b':') {
                    return None; // a path, not a field declaration
                }
                return Some(i);
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> (Vec<SourceFile>, CallGraph) {
        let parsed: Vec<SourceFile> =
            files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let g = CallGraph::build(&parsed);
        (parsed, g)
    }

    fn edge(g: &CallGraph, from: &str, to: &str) -> bool {
        let from_ids: Vec<usize> = g
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.name == from)
            .map(|(i, _)| i)
            .collect();
        from_ids.iter().any(|&f| {
            g.edges[f].iter().any(|e| g.nodes[e.to].name == to)
        })
    }

    #[test]
    fn direct_and_method_edges() {
        let (_, g) = graph(&[(
            "crates/a/src/lib.rs",
            "struct S { n: u32 }\nimpl S { fn m(&self) { helper(); self.m2(); } fn m2(&self) {} }\nfn helper() {}",
        )]);
        assert!(edge(&g, "m", "helper"));
        assert!(edge(&g, "m", "m2"));
    }

    #[test]
    fn field_hop_through_wrappers() {
        let (_, g) = graph(&[(
            "crates/a/src/lib.rs",
            "struct Outer { inner: Arc<Inner> }\nstruct Inner { n: u32 }\nimpl Inner { fn work(&self) {} }\nimpl Outer { fn go(&self) { self.inner.work(); } }",
        )]);
        assert!(edge(&g, "go", "work"));
    }

    #[test]
    fn arc_new_and_clone_bindings() {
        let (_, g) = graph(&[(
            "crates/a/src/lib.rs",
            "struct Inner { n: u32 }\nimpl Inner { fn start(&self) {} fn finish(&self) {} }\nfn reg() { let inner = Arc::new(Inner { n: 0 }); let si = Arc::clone(&inner); si.start(); inner.finish(); }",
        )]);
        assert!(edge(&g, "reg", "start"));
        assert!(edge(&g, "reg", "finish"));
    }

    #[test]
    fn spawn_spans_detach() {
        let (_, g) = graph(&[(
            "crates/a/src/lib.rs",
            "struct S { n: u32 }\nimpl S { fn bg(&self) {} fn fg(&self) {} fn go(&self) { self.fg(); std::thread::spawn(move || { self.bg(); }); } }",
        )]);
        assert!(edge(&g, "go", "fg"));
        assert!(!edge(&g, "go", "bg"));
        // The detached site is still recorded, flagged.
        let go = g.nodes.iter().position(|n| n.name == "go").unwrap();
        assert!(g.calls[go].iter().any(|c| c.callee == "bg" && c.in_spawn));
    }

    #[test]
    fn dyn_trait_fans_out() {
        let (_, g) = graph(&[(
            "crates/a/src/lib.rs",
            "trait P { fn stop(&self); }\nstruct A; struct B;\nimpl P for A { fn stop(&self) {} }\nimpl P for B { fn stop(&self) {} }\nstruct H { module: Arc<dyn P> }\nimpl H { fn halt(&self) { self.module.stop(); } }",
        )]);
        let halt = g.nodes.iter().position(|n| n.name == "halt").unwrap();
        let trait_edges: Vec<&Edge> =
            g.edges[halt].iter().filter(|e| e.kind == EdgeKind::Trait).collect();
        assert_eq!(trait_edges.len(), 2, "{:?}", g.edges[halt]);
    }

    #[test]
    fn unresolved_receiver_counts() {
        let (_, g) = graph(&[(
            "crates/a/src/lib.rs",
            "struct S { n: u32 }\nimpl S { fn target(&self) {} }\nfn go(x: &UnknownType) { x.target(); }",
        )]);
        // `target` exists in the workspace and is not denied, so the
        // unique-name fallback fires rather than counting unresolved.
        assert_eq!(g.fallback_edges, 1);
        let (_, g2) = graph(&[(
            "crates/a/src/lib.rs",
            "struct S { n: u32 }\nstruct T { n: u32 }\nimpl S { fn target(&self) {} }\nimpl T { fn target(&self) {} }\nfn go(x: &UnknownType) { x.target(); }",
        )]);
        assert_eq!(g2.unresolved_calls, 1);
        assert_eq!(g2.fallback_edges, 0);
    }

    #[test]
    fn closure_param_annotation_resolves() {
        let (_, g) = graph(&[(
            "crates/a/src/lib.rs",
            "struct Db { n: u32 }\nimpl Db { fn put(&self) {} }\nfn go(run: impl Fn(&Db)) { let f = |h: &Db| h.put(); }",
        )]);
        assert!(edge(&g, "go", "put"));
    }

    #[test]
    fn reachability_with_path() {
        let (_, g) = graph(&[(
            "crates/a/src/lib.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn lonely() {}",
        )]);
        let a = g.nodes.iter().position(|n| n.name == "a").unwrap();
        let c = g.nodes.iter().position(|n| n.name == "c").unwrap();
        let lonely = g.nodes.iter().position(|n| n.name == "lonely").unwrap();
        let parents = g.reachable(&[a], |_| true);
        assert!(parents.contains_key(&c));
        assert!(!parents.contains_key(&lonely));
        assert_eq!(g.path_names(&parents, c), vec!["a", "b", "c"]);
    }
}
