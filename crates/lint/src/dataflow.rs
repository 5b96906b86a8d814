//! Intraprocedural guard-liveness scan.
//!
//! One pass over a function body produces [`GuardSpan`]s (lock-guard
//! birth → death offsets, per closure context); `locks.rs` (MOCHI001/002)
//! derives lock-order edges and recursive re-locks from span overlap.
//!
//! The lattice is deliberately simple — a guard is a contiguous byte
//! span per closure context:
//!
//! * **birth** — the offset of the `.lock()`/`.read()`/`.write()` call;
//! * **death** — the first of: end of statement (`;`, or the `{` of a
//!   plain `if`/`while` condition) for temporaries; the close of the
//!   enclosing block for `let`-bound guards; an explicit `drop(g)`; the
//!   end of the function body. `match`/`for`/`if let`/`while let`
//!   scrutinee temporaries are promoted to block scope (edition-2021
//!   temporary lifetimes);
//! * **branch join** — a span is the union over paths: a guard born
//!   before a branch stays live through every arm and past the join; a
//!   guard born inside an arm dies at the arm's close. `drop(g)` kills
//!   on *every* path even when lexically conditional — the workspace
//!   idiom is "drop the guard, then RPC" inside a `match` arm, and
//!   treating that drop as maybe-live would flag the correct pattern
//!   (see `raft::replicator_loop`);
//! * **contexts** — a braced closure body runs later, possibly on
//!   another thread, so it opens a fresh context: spans never cross
//!   context boundaries, and overlap is only read within one context.

use crate::lexer::{column_of, is_ident_byte, line_of, word_at};
use crate::source::SourceFile;

/// One lock guard's live range inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardSpan {
    /// Lock class, `crate::field` (e.g. `raft::core`).
    pub lock: String,
    /// Full receiver chain of the acquisition (`self.inner.core`).
    pub chain: String,
    /// Bound variable for `let g = x.lock();` guards.
    pub var: Option<String>,
    /// Offset of the `.` of the acquisition in the sanitized text.
    pub start: usize,
    /// Death offset: statement/block close, `drop`, or body end.
    pub end: usize,
    /// Closure context the span lives in (0 = the function body).
    pub ctx: usize,
    pub line: usize,
    pub column: usize,
}

/// Runs the scan over `file.text[start..end]` (a function body span).
pub fn guard_spans(file: &SourceFile, start: usize, end: usize) -> Vec<GuardSpan> {
    let text = &file.text;
    let mut spans: Vec<GuardSpan> = Vec::new();
    // Context 0 is the function body itself.
    let mut next_ctx = 1usize;
    // (context id, block depth at which the context opened, held guards)
    struct Scan {
        id: usize,
        start_depth: usize,
        held: Vec<HeldMeta>,
    }
    struct HeldMeta {
        span: usize,
        depth: usize,
        temp: bool,
    }
    let mut ctxs = vec![Scan { id: 0, start_depth: 0, held: Vec::new() }];
    let mut depth = 0usize;
    let mut stmt_start = start + 1;
    let mut pending_closure = false;
    let mut i = start;
    while i < end {
        match text[i] {
            b'{' => {
                depth += 1;
                if pending_closure {
                    ctxs.push(Scan { id: next_ctx, start_depth: depth, held: Vec::new() });
                    next_ctx += 1;
                    pending_closure = false;
                } else if scrutinee_extends_temporaries(text, stmt_start, i) {
                    // `match`/`for`/`if let`/`while let` scrutinee
                    // temporaries live for the whole block (edition
                    // 2021): promote them to block-scoped guards.
                    if let Some(ctx) = ctxs.last_mut() {
                        for h in ctx.held.iter_mut().filter(|h| h.temp) {
                            h.temp = false;
                            h.depth = depth;
                        }
                    }
                } else if let Some(ctx) = ctxs.last_mut() {
                    for h in ctx.held.iter().filter(|h| h.temp) {
                        spans[h.span].end = i;
                    }
                    ctx.held.retain(|h| !h.temp);
                }
                stmt_start = i + 1;
            }
            b'}' => {
                if let Some(ctx) = ctxs.last_mut() {
                    for h in ctx.held.iter().filter(|h| h.temp || h.depth >= depth) {
                        spans[h.span].end = i;
                    }
                    ctx.held.retain(|h| !h.temp && h.depth < depth);
                }
                depth = depth.saturating_sub(1);
                if ctxs.len() > 1 {
                    if let Some(closed) = ctxs.pop_if(|c| c.start_depth > depth) {
                        for h in &closed.held {
                            spans[h.span].end = i;
                        }
                    }
                }
                stmt_start = i + 1;
            }
            b';' => {
                if let Some(ctx) = ctxs.last_mut() {
                    for h in ctx.held.iter().filter(|h| h.temp) {
                        spans[h.span].end = i;
                    }
                    ctx.held.retain(|h| !h.temp);
                }
                stmt_start = i + 1;
            }
            b'|' => {
                if let Some(params_end) = closure_params_end(text, i, end) {
                    let mut j = params_end + 1;
                    while j < end && text[j].is_ascii_whitespace() {
                        j += 1;
                    }
                    if j < end && text[j] == b'{' {
                        pending_closure = true;
                    }
                    // Expression-bodied closures keep the outer context
                    // (conservative over-approximation; rare and benign).
                    i = params_end;
                }
            }
            b'd' if word_at(text, i, "drop") => {
                if let Some((var, after)) = drop_argument(text, i + 4, end) {
                    if let Some(ctx) = ctxs.last_mut() {
                        if let Some(pos) = ctx
                            .held
                            .iter()
                            .rposition(|h| spans[h.span].var.as_deref() == Some(var.as_str()))
                        {
                            let h = ctx.held.remove(pos);
                            spans[h.span].end = i;
                        }
                    }
                    i = after;
                    continue;
                }
            }
            b'.' => {
                if let Some(acq) = acquisition_at(text, i, end) {
                    if let (Some(chain), Some(ctx)) = (receiver_chain(text, i), ctxs.last_mut()) {
                        let field = chain.rsplit('.').next().unwrap_or(&chain);
                        let lock_id = format!("{}::{}", file.crate_name, field);
                        let (bound_var, temp) = binding_of(text, stmt_start, acq.close_paren);
                        let span_id = spans.len();
                        spans.push(GuardSpan {
                            lock: lock_id,
                            chain,
                            var: bound_var,
                            start: i,
                            end, // provisional; finalized on death
                            ctx: ctx.id,
                            line: line_of(text, i),
                            column: column_of(text, i),
                        });
                        ctx.held.push(HeldMeta { span: span_id, depth, temp });
                    }
                    i = acq.close_paren + 1;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
    // Anything still held at the end of the body dies there.
    for scan in &ctxs {
        for h in &scan.held {
            spans[h.span].end = end;
        }
    }
    spans
}

struct Acquisition {
    close_paren: usize,
}

/// Detects `.lock()`, `.read()`, `.write()` (empty argument list only, so
/// `io::Read::read(&mut buf)` and friends never match) at offset `dot`.
fn acquisition_at(text: &[u8], dot: usize, end: usize) -> Option<Acquisition> {
    let mut j = dot + 1;
    let name_start = j;
    while j < end && is_ident_byte(text[j]) {
        j += 1;
    }
    let name = &text[name_start..j];
    if !(name == b"lock" || name == b"read" || name == b"write") {
        return None;
    }
    while j < end && text[j].is_ascii_whitespace() {
        j += 1;
    }
    if j >= end || text[j] != b'(' {
        return None;
    }
    j += 1;
    while j < end && text[j].is_ascii_whitespace() {
        j += 1;
    }
    if j < end && text[j] == b')' {
        Some(Acquisition { close_paren: j })
    } else {
        None
    }
}

/// Walks backward from the `.` of an acquisition to the start of the
/// receiver chain. Returns `None` when the receiver is not a simple
/// `ident(.ident)*` path (e.g. a call result), in which case the lock has
/// no stable class identity and the site is skipped.
fn receiver_chain(text: &[u8], dot: usize) -> Option<String> {
    let mut start = dot;
    while start > 0 {
        let b = text[start - 1];
        if is_ident_byte(b) || b == b'.' || b == b':' {
            start -= 1;
        } else {
            break;
        }
    }
    if start == dot {
        return None;
    }
    if start > 0 && text[start - 1] == b')' {
        return None;
    }
    let chain = String::from_utf8_lossy(&text[start..dot]).into_owned();
    let chain = chain.trim_matches('.').to_string();
    let last = chain.rsplit('.').next().unwrap_or("");
    let last = last.rsplit("::").next().unwrap_or("");
    if last.is_empty() || last.chars().next().map(|c| c.is_ascii_digit()).unwrap_or(true) {
        return None;
    }
    Some(chain)
}

/// Whether the acquisition ending at `close_paren` is `let g = x.lock();`
/// (a block-scoped guard) or a statement temporary. Returns the bound
/// variable name, if determinable, and the `temp` flag.
fn binding_of(text: &[u8], stmt_start: usize, close_paren: usize) -> (Option<String>, bool) {
    let mut k = close_paren + 1;
    while k < text.len() && text[k].is_ascii_whitespace() {
        k += 1;
    }
    let terminated = k < text.len() && text[k] == b';';
    if !terminated {
        return (None, true);
    }
    let mut s = stmt_start;
    while s < text.len() && text[s].is_ascii_whitespace() {
        s += 1;
    }
    if !word_at(text, s, "let") {
        return (None, true);
    }
    let mut v = s + 3;
    while v < text.len() && text[v].is_ascii_whitespace() {
        v += 1;
    }
    if word_at(text, v, "mut") {
        v += 3;
        while v < text.len() && text[v].is_ascii_whitespace() {
            v += 1;
        }
    }
    let var_start = v;
    while v < text.len() && is_ident_byte(text[v]) {
        v += 1;
    }
    if v == var_start {
        return (None, false); // e.g. destructuring `let (a, b) = …`
    }
    (Some(String::from_utf8_lossy(&text[var_start..v]).into_owned()), false)
}

/// If the `|` at `pipe` opens closure parameters, the offset of the
/// closing `|`.
fn closure_params_end(text: &[u8], pipe: usize, end: usize) -> Option<usize> {
    // `||` never means boolean-or at expression start; otherwise require a
    // preceding token that can only precede a closure.
    let mut p = pipe;
    while p > 0 && (text[p - 1] == b' ' || text[p - 1] == b'\t' || text[p - 1] == b'\n') {
        p -= 1;
    }
    let opens_closure = if p == 0 {
        true
    } else {
        let prev = text[p - 1];
        matches!(prev, b'(' | b',' | b'=' | b'{' | b';' | b':' | b'&' | b'>')
            || ends_with_word(text, p, "move")
            || ends_with_word(text, p, "return")
    };
    if !opens_closure {
        return None;
    }
    if pipe + 1 < end && text[pipe + 1] == b'|' {
        return Some(pipe + 1);
    }
    let mut j = pipe + 1;
    while j < end && j < pipe + 200 {
        match text[j] {
            b'|' => return Some(j),
            b';' | b'{' | b'}' => return None,
            _ => j += 1,
        }
    }
    None
}

/// Parses `drop ( ident )` starting after the `drop` keyword; returns the
/// identifier and the offset just past the closing paren.
fn drop_argument(text: &[u8], mut j: usize, end: usize) -> Option<(String, usize)> {
    while j < end && text[j].is_ascii_whitespace() {
        j += 1;
    }
    if j >= end || text[j] != b'(' {
        return None;
    }
    j += 1;
    while j < end && text[j].is_ascii_whitespace() {
        j += 1;
    }
    let start = j;
    while j < end && is_ident_byte(text[j]) {
        j += 1;
    }
    if j == start {
        return None;
    }
    let var = String::from_utf8_lossy(&text[start..j]).into_owned();
    while j < end && text[j].is_ascii_whitespace() {
        j += 1;
    }
    if j < end && text[j] == b')' {
        Some((var, j + 1))
    } else {
        None
    }
}

fn ends_with_word(text: &[u8], end: usize, word: &str) -> bool {
    let w = word.as_bytes();
    end >= w.len()
        && &text[end - w.len()..end] == w
        && (end == w.len() || !is_ident_byte(text[end - w.len() - 1]))
}

/// Whether the statement opening a block at `limit` keeps its scrutinee
/// temporaries alive for the whole block: `match`, `for`, `if let`,
/// `while let` (plain `if`/`while` conditions drop them at the `{`).
fn scrutinee_extends_temporaries(text: &[u8], stmt_start: usize, limit: usize) -> bool {
    let mut s = stmt_start;
    while s < limit && text[s].is_ascii_whitespace() {
        s += 1;
    }
    let start = s;
    while s < limit && is_ident_byte(text[s]) {
        s += 1;
    }
    let first = match std::str::from_utf8(&text[start..s]) {
        Ok(w) => w,
        Err(_) => return false,
    };
    match first {
        "match" | "for" => true,
        "if" | "while" => {
            let mut t = s;
            while t < limit && text[t].is_ascii_whitespace() {
                t += 1;
            }
            word_at(text, t, "let")
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn spans_of(src: &str) -> (SourceFile, Vec<GuardSpan>) {
        let file = SourceFile::parse("crates/demo/src/lib.rs", src);
        let f = &file.functions[0];
        let spans = guard_spans(&file, f.body_start, f.body_end);
        (file, spans)
    }

    /// How many guards of context `ctx` are live where `needle` starts.
    fn live_at(spans: &[GuardSpan], src: &str, needle: &str, ctx: usize) -> usize {
        let offset = src.find(needle).unwrap();
        spans.iter().filter(|s| s.ctx == ctx && s.start < offset && offset < s.end).count()
    }

    #[test]
    fn block_guard_spans_to_block_close() {
        let src = "fn f(&self) { { let g = self.alpha.lock(); g.touch(); } other(); }";
        let (file, spans) = spans_of(src);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.lock, "demo::alpha");
        assert_eq!(s.var.as_deref(), Some("g"));
        // Dead by the time `other()` runs.
        assert_eq!(live_at(&spans, src, "other", 0), 0);
        assert_eq!(file.text[s.end], b'}');
    }

    #[test]
    fn temporary_dies_at_statement_end() {
        let src = "fn f(&self) { self.alpha.lock().push(1); later(); }";
        let (file, spans) = spans_of(src);
        assert_eq!(spans.len(), 1);
        assert_eq!(file.text[spans[0].end], b';');
        assert_eq!(live_at(&spans, src, "later", 0), 0);
    }

    #[test]
    fn drop_kills_even_inside_a_branch() {
        // Must-kill on lexically conditional drop: the workspace idiom is
        // "drop the guard in this arm, then RPC" — a maybe-live join
        // would flag the correct pattern.
        let src = "fn f(&self) { let g = self.alpha.lock(); match x { A => { drop(g); post(); } _ => {} } }";
        let (_, spans) = spans_of(src);
        assert_eq!(live_at(&spans, src, "post", 0), 0);
        // …but the guard was live before the drop.
        assert_eq!(live_at(&spans, src, "match", 0), 1);
    }

    #[test]
    fn guard_born_before_branch_lives_past_the_join() {
        let src = "fn f(&self) { let g = self.alpha.lock(); if c { a(); } else { b(); } after(); }";
        let (_, spans) = spans_of(src);
        assert_eq!(live_at(&spans, src, "after", 0), 1);
    }

    #[test]
    fn closure_body_is_a_fresh_context() {
        let src = "fn f(&self) { let g = self.alpha.lock(); run(move || { let h = self.beta.lock(); inner(); }); tail(); }";
        let (_, spans) = spans_of(src);
        let ctxs: Vec<(&str, usize)> = spans.iter().map(|s| (s.lock.as_str(), s.ctx)).collect();
        assert_eq!(ctxs, vec![("demo::alpha", 0), ("demo::beta", 1)]);
        // Inside the closure only its own guard is live in its context…
        assert_eq!(live_at(&spans, src, "inner", 1), 1);
        // …which dies with the closure body, while the outer guard is
        // still live at the same-context tail call.
        assert_eq!(live_at(&spans, src, "tail", 1), 0);
        assert_eq!(live_at(&spans, src, "tail", 0), 1);
    }

    #[test]
    fn scrutinee_temporary_promoted_to_block_scope() {
        let src = "fn f(&self) { match self.alpha.lock().kind { _ => { arm(); } } after(); }";
        let (_, spans) = spans_of(src);
        assert_eq!(live_at(&spans, src, "arm", 0), 1);
        assert_eq!(live_at(&spans, src, "after", 0), 0);
    }
}
