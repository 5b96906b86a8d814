//! Lock-held-across-yield analysis.
//!
//! Argobots ULTs are cooperatively scheduled: an RPC `forward`, a bulk
//! transfer, a channel receive, or an explicit `yield_now` suspends the
//! current ULT and lets others run on the same execution stream. A lock
//! guard held across such a suspension point is a deadlock class that
//! rank-ordering cannot catch — the handler that would release the lock
//! may be scheduled *behind* a ULT that is spinning on the same lock, or
//! the forward may land back on this very provider and try to take the
//! guard re-entrantly.
//!
//! Detection is integrated into the `locks.rs` guard-liveness scan
//! (`locks::extract` returns the yield findings alongside lock edges):
//! whenever a yield-shaped call is seen while the current context holds
//! at least one guard, a finding is recorded per held lock class.
//!
//! Condvar `.wait(…)` is deliberately *not* a yield kind: waiting
//! releases the mutex while parked, which is the correct pattern.

use crate::lexer::is_ident_byte;
use crate::rawforward::FORWARD_FAMILY;

/// Method calls besides the forward family that suspend the current ULT.
const OTHER_YIELDS: &[&str] = &["notify", "bulk_pull", "bulk_push", "recv", "recv_timeout"];

/// The method's name if a call to it suspends the current ULT. A posting
/// forward counts: the RPC it starts is still outstanding while the guard
/// lives, and the wait usually follows under the same guard.
pub fn yield_method(name: &str) -> Option<&'static str> {
    FORWARD_FAMILY.iter().chain(OTHER_YIELDS).copied().find(|method| *method == name)
}

/// Paths where ULT/handler code runs and the analysis applies. The margo
/// runtime itself is included: its dispatch path runs inside handler ULTs.
const YIELD_SCOPE: &[&str] = &[
    "crates/margo/src",
    "crates/bedrock/src",
    "crates/yokan/src",
    "crates/warabi/src",
    "crates/remi/src",
    "crates/raft/src",
    "crates/ssg/src",
    "crates/pufferscale/src",
    "crates/core/src",
];

/// Whether `rel_path` is in ULT/handler scope.
pub fn in_scope(rel_path: &str) -> bool {
    YIELD_SCOPE.iter().any(|p| rel_path.starts_with(p))
}

/// If the `.` at `dot` begins a yield-shaped method call (optionally with
/// a turbofish, e.g. `forward_full::<_, R>(…)`), returns the method name
/// and the offset of its opening paren.
pub fn yield_method_at(text: &[u8], dot: usize, end: usize) -> Option<(&'static str, usize)> {
    let mut j = dot + 1;
    let name_start = j;
    while j < end && is_ident_byte(text[j]) {
        j += 1;
    }
    let method = yield_method(std::str::from_utf8(&text[name_start..j]).ok()?)?;
    while j < end && text[j].is_ascii_whitespace() {
        j += 1;
    }
    // Skip a turbofish between the name and the argument list.
    if j + 2 < end && text[j] == b':' && text[j + 1] == b':' && text[j + 2] == b'<' {
        let mut depth = 1i32;
        j += 3;
        while j < end && depth > 0 {
            match text[j] {
                b'<' => depth += 1,
                b'>' => depth -= 1,
                b'(' | b';' => return None,
                _ => {}
            }
            j += 1;
        }
        while j < end && text[j].is_ascii_whitespace() {
            j += 1;
        }
    }
    if j < end && text[j] == b'(' {
        Some((method, j))
    } else {
        None
    }
}

/// If offset `i` begins a `yield_now(…)` call (bare or path-qualified),
/// returns the offset of its opening paren.
pub fn yield_now_at(text: &[u8], i: usize, end: usize) -> Option<usize> {
    let word = b"yield_now";
    if i + word.len() > end || &text[i..i + word.len()] != word {
        return None;
    }
    if i > 0 && is_ident_byte(text[i - 1]) {
        return None;
    }
    let mut j = i + word.len();
    if j < end && is_ident_byte(text[j]) {
        return None;
    }
    while j < end && text[j].is_ascii_whitespace() {
        j += 1;
    }
    if j < end && text[j] == b'(' {
        Some(j)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use std::collections::BTreeSet;

    /// The findings' kinds: `<suspending call>:<lock class>`.
    fn yields_of(src: &str) -> Vec<String> {
        let file = SourceFile::parse("crates/demo/src/lib.rs", src);
        crate::locks::extract(&file, &BTreeSet::new()).2.into_iter().map(|y| y.kind).collect()
    }

    #[test]
    fn guard_held_across_forward_flagged() {
        let found = yields_of(
            "fn f(&self) { let g = self.state.lock(); self.margo.forward_timeout(&a, rpc::PING, 1, &args, t); }",
        );
        assert_eq!(found, vec!["forward_timeout:demo::state"]);
    }

    #[test]
    fn guard_held_across_a_post_flagged() {
        let found = yields_of(
            "fn f(&self) { let g = self.state.lock(); let p = self.margo.iforward_raw(&a, rpc::PING, 1, payload, cc, t); p.wait(); }",
        );
        assert_eq!(found, vec!["iforward_raw:demo::state"]);
    }

    #[test]
    fn guard_dropped_before_forward_clean() {
        let found = yields_of(
            "fn f(&self) { let g = self.state.lock(); drop(g); self.margo.forward(&a, rpc::PING, 1, &args); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn block_scoped_guard_released_before_yield() {
        let found = yields_of(
            "fn f(&self) { { let g = self.state.lock(); g.touch(); } self.margo.forward(&a, rpc::PING, 1, &args); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn statement_temporary_does_not_outlive_statement() {
        let found = yields_of(
            "fn f(&self) { let v = self.state.lock().view(); self.margo.forward(&a, rpc::PING, 1, &v); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn yield_now_and_bulk_and_recv_flagged() {
        let found = yields_of(
            "fn f(&self) { let g = self.state.lock(); margo::yield_now(); self.margo.bulk_pull(&h, 0, len); let m = rx.recv(); }",
        );
        assert_eq!(
            found,
            vec!["yield_now:demo::state", "bulk_pull:demo::state", "recv:demo::state"]
        );
    }

    #[test]
    fn condvar_wait_is_not_a_yield() {
        let found = yields_of(
            "fn f(&self) { let g = self.state.lock(); let g = self.cv.wait(g); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn closure_does_not_inherit_outer_guard() {
        let found = yields_of(
            "fn f(&self) { let g = self.state.lock(); spawn(move || { self.margo.forward(&a, rpc::PING, 1, &args); }); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn turbofish_forward_flagged() {
        let found = yields_of(
            "fn f(&self) { let g = self.state.lock(); self.margo.forward_full::<_, PingReply>(&a, rpc::PING, 1, &args, cc, t); }",
        );
        assert_eq!(found, vec!["forward_full:demo::state"]);
    }

    #[test]
    fn scope_covers_ult_crates_only() {
        assert!(in_scope("crates/raft/src/node.rs"));
        assert!(in_scope("crates/margo/src/runtime.rs"));
        assert!(!in_scope("crates/lint/src/locks.rs"));
        assert!(!in_scope("src/main.rs"));
    }
}
