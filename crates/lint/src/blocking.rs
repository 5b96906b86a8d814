//! Blocking-call-in-ULT lint.
//!
//! Execution streams are a small, fixed set of OS threads; a ULT that
//! blocks one of them (sleeping, waiting on a channel, joining a thread)
//! stalls every pool that xstream serves. This lint scans closures that
//! become ULTs — arguments to `Ult::new`/`Ult::with_priority` and RPC
//! handler closures passed to `register`/`register_typed` — for calls
//! that park the carrier thread. Deliberate blocking (e.g. Raft client
//! submissions waiting for commit in a dedicated pool) is frozen in the
//! allowlist with its rationale.

use crate::lexer::{is_ident_byte, matching_brace, matching_paren};
use crate::source::SourceFile;
use crate::Finding;

/// Call sites whose closure arguments run as ULTs.
const ULT_ENTRYPOINTS: &[&str] =
    &["Ult::new", "Ult::with_priority", "register_typed", "register"];

/// Scans one file: finds ULT entry points, then flags blocking calls
/// inside their closure arguments. The kind is `sleep`, `recv`,
/// `recv_timeout` or `join`.
pub fn scan(file: &SourceFile) -> Vec<Finding> {
    let text = &file.text;
    let mut sites = Vec::new();
    for entry in ULT_ENTRYPOINTS {
        let needle = entry.as_bytes();
        let mut i = 0usize;
        while i + needle.len() < text.len() {
            if &text[i..i + needle.len()] == needle
                // A `:` prefix is a path qualifier (`ult::Ult::new`), which
                // must still match; an identifier prefix (`MyUlt::new`) must
                // not.
                && (i == 0 || !is_ident_byte(text[i - 1]))
                && !ident_or_colon(text[i + needle.len()])
            {
                let call_open = next_open_paren(text, i + needle.len());
                if let Some(open) = call_open {
                    let close = matching_paren(text, open);
                    scan_closures_in(file, open + 1, close, &mut sites);
                    i = open + 1;
                    continue;
                }
            }
            i += 1;
        }
    }
    sites.sort();
    sites.dedup();
    sites
}

fn ident_or_colon(b: u8) -> bool {
    is_ident_byte(b) || b == b':'
}

fn next_open_paren(text: &[u8], mut i: usize) -> Option<usize> {
    while i < text.len() && text[i].is_ascii_whitespace() {
        i += 1;
    }
    (i < text.len() && text[i] == b'(').then_some(i)
}

/// Finds `|…| { … }` closures inside an argument span and scans their
/// bodies for blocking calls.
fn scan_closures_in(file: &SourceFile, start: usize, end: usize, sites: &mut Vec<Finding>) {
    let text = &file.text;
    let mut i = start;
    while i < end {
        if text[i] == b'|' {
            // Params end: `||` or the next `|`.
            let params_end = if i + 1 < end && text[i + 1] == b'|' {
                i + 1
            } else {
                match text[i + 1..end].iter().position(|&b| b == b'|') {
                    Some(p) => i + 1 + p,
                    None => break,
                }
            };
            let mut j = params_end + 1;
            while j < end && text[j].is_ascii_whitespace() {
                j += 1;
            }
            let (body_start, body_end) = if j < end && text[j] == b'{' {
                (j, matching_brace(text, j).min(end))
            } else {
                (j, end) // expression-bodied closure: scan to span end
            };
            scan_blocking(file, body_start, body_end, sites);
            i = body_end;
        } else {
            i += 1;
        }
    }
}

fn scan_blocking(file: &SourceFile, start: usize, end: usize, sites: &mut Vec<Finding>) {
    let text = &file.text;
    let patterns: &[(&[u8], &str)] = &[
        (b"thread::sleep", "sleep"),
        (b".recv_timeout(", "recv_timeout"),
        (b".recv()", "recv"),
        (b".join()", "join"),
    ];
    for (needle, kind) in patterns {
        let mut i = start;
        while i + needle.len() <= end {
            if &text[i..i + needle.len()] == *needle
                && (i == 0 || !is_ident_byte(text[i - 1]) || needle[0] == b'.')
            {
                sites.push(file.finding(
                    "MOCHI004",
                    i,
                    kind.to_string(),
                    format!("{kind} inside a ULT closure would stall an xstream"),
                ));
                i += needle.len();
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn kinds(src: &str) -> Vec<String> {
        let file = SourceFile::parse("crates/demo/src/lib.rs", src);
        scan(&file).into_iter().map(|s| s.kind).collect()
    }

    #[test]
    fn sleep_inside_ult_closure_flagged() {
        let found = kinds(
            "fn f() { pool.push(Ult::new(\"w\", move || { std::thread::sleep(d); })); }",
        );
        assert_eq!(found, vec!["sleep".to_string()]);
    }

    #[test]
    fn qualified_entrypoint_path_still_matches() {
        let found = kinds(
            "fn f() { pool.push(crate::ult::Ult::new(\"w\", move || { std::thread::sleep(d); })); }",
        );
        assert_eq!(found, vec!["sleep".to_string()]);
    }

    #[test]
    fn sleep_outside_ult_closure_not_flagged() {
        let found = kinds("fn f() { std::thread::sleep(d); pool.push(Ult::new(\"w\", move || { work(); })); }");
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn channel_wait_in_handler_closure_flagged() {
        let found = kinds(
            "fn f(m: &M) { m.register_typed(\"put\", 0, None, move |args, ctx| { let r = rx.recv_timeout(d); r });\n}",
        );
        assert_eq!(found, vec!["recv_timeout".to_string()]);
    }

    #[test]
    fn join_in_ult_closure_flagged() {
        let found =
            kinds("fn f() { Ult::with_priority(\"w\", 3, move || { handle.join(); }); }");
        assert_eq!(found, vec!["join".to_string()]);
    }
}
