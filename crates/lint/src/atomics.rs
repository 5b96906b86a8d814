//! Relaxed-atomic misuse analysis (MOCHI014).
//!
//! `Ordering::Relaxed` is correct for monotonic stats counters (PR 4's
//! striped stats, in-flight gauges) because nobody makes a control-flow
//! decision from a single read. It is *not* correct for cross-thread
//! flags — breaker state, shutdown/closed flags — where one thread
//! publishes a state change and another reads it to decide whether to
//! proceed: without acquire/release pairing there is no happens-before
//! edge, so writes guarded by the flag may be observed before the flag
//! itself on weakly-ordered hardware (the HPC targets this stack
//! models).
//!
//! The analysis is shape-based, tuned so the counter idiom passes by
//! construction:
//!
//! 1. Index every field or static whose declared type mentions
//!    `Atomic…` (through `Arc<…>` wrappers), keyed `(crate, name)`.
//! 2. Record every load/store/swap/fetch op on an indexed atomic, its
//!    ordering, and whether the op sits lexically inside an `if` /
//!    `while` / `match` condition — i.e. is read *for a decision* rather
//!    than assigned into a snapshot or summed into a report.
//! 3. Flag a **Relaxed load in condition position** when some *other*
//!    function writes the same `(crate, name)` (any ordering): the
//!    reader is making a decision from an unsynchronized publish
//!    (`load:<name>`).
//! 4. Flag a **Relaxed store/swap** when some *other* function reads the
//!    same `(crate, name)` in condition position: the writer publishes a
//!    decision flag without release semantics (`store:<name>`).
//!
//! Counters survive both rules: `fetch_add`/`fetch_sub` are never
//! publish ops (rule 4 covers only store/swap), and their readers
//! assign into locals or structs rather than branch (rule 3's condition
//! requirement). Identity is `(crate, field name)`, not per-struct —
//! two same-named flags in one crate alias, which over-approximates but
//! keeps the index receiver-type-free.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{is_ident_byte, matching_paren, word_at};
use crate::source::SourceFile;
use crate::Finding;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Load,
    /// `store` / `swap`: publishes a new value.
    Publish,
    /// `fetch_add` / `fetch_sub` / other RMW counters.
    Rmw,
}

struct Op {
    file_idx: usize,
    offset: usize,
    field: String,
    kind: OpKind,
    relaxed: bool,
    in_condition: bool,
    /// `(file, function)` — the "different thread" proxy.
    site: (String, String),
}

/// Runs the analysis over all parsed files. One finding per misused
/// relaxed op: kind `load:<field>` or `store:<field>`, the atomic field
/// or static involved.
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    // 1. Atomic declarations: `name: [Arc<]Atomic…`.
    let mut atomics: BTreeSet<(String, String)> = BTreeSet::new();
    for file in files {
        for name in atomic_decls(&file.text) {
            atomics.insert((file.crate_name.clone(), name));
        }
    }
    if atomics.is_empty() {
        return Vec::new();
    }

    // 2. Ops on indexed atomics.
    let mut ops: Vec<Op> = Vec::new();
    for (file_idx, file) in files.iter().enumerate() {
        let conditions = condition_spans(&file.text);
        scan_ops(file, file_idx, &atomics, &conditions, &mut ops);
    }

    // Group by (crate, field).
    let mut by_field: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        let crate_name = files[op.file_idx].crate_name.clone();
        by_field.entry((crate_name, op.field.clone())).or_default().push(i);
    }

    let mut findings = Vec::new();
    for indices in by_field.values() {
        let writers: Vec<&Op> = indices
            .iter()
            .map(|&i| &ops[i])
            .filter(|o| o.kind != OpKind::Load)
            .collect();
        let deciders: Vec<&Op> = indices
            .iter()
            .map(|&i| &ops[i])
            .filter(|o| o.kind == OpKind::Load && o.in_condition)
            .collect();
        for &i in indices {
            let op = &ops[i];
            let flagged = match op.kind {
                // 3. Relaxed decision-load with a foreign writer.
                OpKind::Load => {
                    op.relaxed
                        && op.in_condition
                        && writers.iter().any(|w| w.site != op.site)
                }
                // 4. Relaxed publish with a foreign decision-load.
                OpKind::Publish => {
                    op.relaxed && deciders.iter().any(|d| d.site != op.site)
                }
                OpKind::Rmw => false,
            };
            if flagged {
                let (verb, what) = if op.kind == OpKind::Load {
                    ("load", "decision load of")
                } else {
                    ("store", "publish to")
                };
                findings.push(files[op.file_idx].finding(
                    "MOCHI014",
                    op.offset,
                    format!("{verb}:{}", op.field),
                    format!(
                        "Relaxed {what} atomic flag `{}` crossing functions — use Acquire for the decision load and Release for the publish",
                        op.field
                    ),
                ));
            }
        }
    }
    findings.sort();
    findings.dedup();
    findings
}

/// Names declared with an `Atomic…` type: struct fields, statics, and
/// parameters alike (`closed: AtomicBool`, `static NEXT: AtomicUsize`,
/// `flag: Arc<AtomicBool>`).
fn atomic_decls(text: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 6 < text.len() {
        if &text[i..i + 6] != b"Atomic" || (i > 0 && is_ident_byte(text[i - 1])) {
            i += 1;
            continue;
        }
        let type_start = i;
        while i < text.len() && is_ident_byte(text[i]) {
            i += 1;
        }
        // `AtomicUsize::new(…)` is a constructor, not a declaration.
        if text.get(i) == Some(&b':') {
            continue;
        }
        // Walk back over wrappers (`Arc<`, `&`, whitespace) to the `:`.
        let mut p = type_start;
        let mut hops = 0;
        loop {
            while p > 0 && (text[p - 1].is_ascii_whitespace() || matches!(text[p - 1], b'<' | b'&'))
            {
                p -= 1;
            }
            if p == 0 {
                break;
            }
            if text[p - 1] == b':' {
                // `::Atomic…` is a path, not an annotation.
                if p >= 2 && text[p - 2] == b':' {
                    while p > 1 && (is_ident_byte(text[p - 2]) || text[p - 2] == b':') {
                        p -= 1;
                    }
                    hops += 1;
                    if hops > 3 {
                        break;
                    }
                    continue;
                }
                let name_end = {
                    let mut q = p - 1;
                    while q > 0 && text[q - 1].is_ascii_whitespace() {
                        q -= 1;
                    }
                    q
                };
                let mut name_start = name_end;
                while name_start > 0 && is_ident_byte(text[name_start - 1]) {
                    name_start -= 1;
                }
                if name_start < name_end {
                    out.push(String::from_utf8_lossy(&text[name_start..name_end]).into_owned());
                }
                break;
            }
            if is_ident_byte(text[p - 1]) {
                // A wrapper ident (`Arc`); step over it.
                while p > 0 && is_ident_byte(text[p - 1]) {
                    p -= 1;
                }
                hops += 1;
                if hops > 3 {
                    break;
                }
                continue;
            }
            break;
        }
    }
    out
}

/// `if` / `while` / `match` condition spans: keyword to the block `{`.
fn condition_spans(text: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < text.len() {
        let kw_len = if word_at(text, i, "if") {
            2
        } else if word_at(text, i, "while") || word_at(text, i, "match") {
            5
        } else {
            i += 1;
            continue;
        };
        let start = i + kw_len;
        let mut depth = 0i32;
        let mut j = start;
        while j < text.len() {
            match text[j] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth == 0 => break,
                // An `if` condition never crosses a `;` (that would be a
                // parse error); bail so a stray keyword in a comment-free
                // span can't swallow the rest of the file.
                b';' if depth == 0 => {
                    j = text.len();
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        // For `match` only the scrutinee span counts as a condition;
        // the arm bodies are ordinary code.
        if j < text.len() {
            spans.push((start, j));
        }
        i = start;
    }
    spans
}

fn scan_ops(
    file: &SourceFile,
    file_idx: usize,
    atomics: &BTreeSet<(String, String)>,
    conditions: &[(usize, usize)],
    ops: &mut Vec<Op>,
) {
    let text = &file.text;
    let mut i = 0usize;
    while i < text.len() {
        if text[i] != b'.' {
            i += 1;
            continue;
        }
        let name_start = i + 1;
        let mut j = name_start;
        while j < text.len() && is_ident_byte(text[j]) {
            j += 1;
        }
        let method = &text[name_start..j];
        let kind = match method {
            b"load" => OpKind::Load,
            b"store" | b"swap" => OpKind::Publish,
            m if m.starts_with(b"fetch_") || m.starts_with(b"compare_") => OpKind::Rmw,
            _ => {
                i = j;
                continue;
            }
        };
        if text.get(j) != Some(&b'(') {
            i = j;
            continue;
        }
        // Field identity: the last ident before the method dot.
        let field_end = i;
        let mut field_start = field_end;
        while field_start > 0 && is_ident_byte(text[field_start - 1]) {
            field_start -= 1;
        }
        if field_start == field_end {
            i = j;
            continue;
        }
        let field = String::from_utf8_lossy(&text[field_start..field_end]).into_owned();
        if !atomics.contains(&(file.crate_name.clone(), field.clone())) {
            i = j;
            continue;
        }
        // Ordering: scan the argument list for `Relaxed`.
        let close = matching_paren(text, j);
        let args = String::from_utf8_lossy(&text[j..close.min(text.len())]);
        let relaxed = args.contains("Relaxed");
        let in_condition = conditions.iter().any(|&(s, e)| s <= i && i < e);
        let function = file
            .function_at(i)
            .map(|f| f.name.clone())
            .unwrap_or_default();
        ops.push(Op {
            file_idx,
            offset: name_start,
            field,
            kind,
            relaxed,
            in_condition,
            site: (file.rel_path.clone(), function),
        });
        i = j;
    }
}
