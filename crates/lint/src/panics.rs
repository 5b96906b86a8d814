//! Panic-path lint: `unwrap()`, `expect()` and panicking macros inside
//! RPC-handler and provider code.
//!
//! A panicking handler kills its ULT; with enough of them a provider
//! stops answering and the resilience layer (SSG/REMI/Raft) sees a dead
//! node that is actually a live process with a poisoned handler. Provider
//! crates therefore must propagate errors to the RPC response instead of
//! panicking. Existing debt is frozen in the allowlist; new sites fail.

use crate::lexer::is_ident_byte;
use crate::source::SourceFile;
use crate::Finding;

/// Crate source prefixes considered "provider / RPC handler paths".
pub const PROVIDER_PATHS: &[&str] = &[
    "crates/margo/src",
    "crates/bedrock/src",
    "crates/yokan/src",
    "crates/warabi/src",
    "crates/remi/src",
    "crates/raft/src",
];

/// Whether the panic-path lint applies to `rel_path`.
pub fn in_provider_path(rel_path: &str) -> bool {
    PROVIDER_PATHS.iter().any(|p| rel_path.starts_with(p))
}

/// Scans one file for panic-capable call sites (test code is already
/// blanked by the sanitizer). The kind is `unwrap`, `expect`, `panic`,
/// `unreachable`, `todo` or `unimplemented`.
pub fn scan(file: &SourceFile) -> Vec<Finding> {
    let text = &file.text;
    let mut sites = Vec::new();
    let mut i = 0usize;
    while i < text.len() {
        match text[i] {
            b'.' => {
                if let Some(kind) = method_kind(text, i) {
                    sites.push(site(file, i, kind));
                }
                i += 1;
            }
            b'p' | b'u' | b't' => {
                if let Some((kind, len)) = macro_kind(text, i) {
                    sites.push(site(file, i, kind));
                    i += len;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    sites
}

fn site(file: &SourceFile, offset: usize, kind: &str) -> Finding {
    let message = format!("{kind} in an RPC/provider path — propagate an error instead");
    file.finding("MOCHI003", offset, kind.to_string(), message)
}

/// `.unwrap()` (empty args, so `unwrap_or*` never matches) or `.expect(`.
fn method_kind(text: &[u8], dot: usize) -> Option<&'static str> {
    let mut j = dot + 1;
    let start = j;
    while j < text.len() && is_ident_byte(text[j]) {
        j += 1;
    }
    let name = &text[start..j];
    while j < text.len() && text[j].is_ascii_whitespace() {
        j += 1;
    }
    if j >= text.len() || text[j] != b'(' {
        return None;
    }
    match name {
        b"unwrap" => {
            let mut k = j + 1;
            while k < text.len() && text[k].is_ascii_whitespace() {
                k += 1;
            }
            (k < text.len() && text[k] == b')').then_some("unwrap")
        }
        b"expect" => Some("expect"),
        _ => None,
    }
}

/// `panic!(`, `unreachable!(`, `todo!(`, `unimplemented!(`.
fn macro_kind(text: &[u8], i: usize) -> Option<(&'static str, usize)> {
    for (word, kind) in [
        ("panic!", "panic"),
        ("unreachable!", "unreachable"),
        ("todo!", "todo"),
        ("unimplemented!", "unimplemented"),
    ] {
        let w = word.as_bytes();
        if i + w.len() <= text.len()
            && &text[i..i + w.len()] == w
            && (i == 0 || !is_ident_byte(text[i - 1]))
        {
            return Some((kind, w.len()));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn kinds(src: &str) -> Vec<(String, String)> {
        let file = SourceFile::parse("crates/yokan/src/lib.rs", src);
        scan(&file).into_iter().map(|s| (s.function, s.kind)).collect()
    }

    #[test]
    fn finds_unwrap_expect_and_macros() {
        let found = kinds(
            "fn h(&self) { let x = v.unwrap(); let y = w.expect(\"msg\"); panic!(\"boom\"); }",
        );
        assert_eq!(
            found,
            vec![
                ("h".to_string(), "unwrap".to_string()),
                ("h".to_string(), "expect".to_string()),
                ("h".to_string(), "panic".to_string()),
            ]
        );
    }

    #[test]
    fn unwrap_or_variants_do_not_match() {
        let found = kinds("fn h() { let x = v.unwrap_or(0); let y = w.unwrap_or_else(|| 1); let z = u.unwrap_or_default(); }");
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn strings_and_tests_are_invisible() {
        let found = kinds(
            "fn h() { log(\"never unwrap() here\"); }\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn provider_path_filter() {
        assert!(in_provider_path("crates/margo/src/rpc.rs"));
        assert!(in_provider_path("crates/raft/src/node.rs"));
        assert!(!in_provider_path("crates/mercury/src/fabric.rs"));
        assert!(!in_provider_path("crates/util/src/stats.rs"));
    }
}
