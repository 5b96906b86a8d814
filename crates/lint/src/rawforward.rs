//! Raw-forward lint: `forward`-family calls in service clients that
//! bypass the retry-aware chokepoint.
//!
//! The yokan/warabi/remi client libraries funnel every RPC through a
//! single `call`/`call_raw` wrapper (yokan's posting forms: `post`/
//! `post_raw`) so retry, circuit-breaker, deadline,
//! and idempotency handling apply uniformly (see `DESIGN.md` §13). A
//! `forward_timeout` sprinkled directly into a client method silently
//! opts that RPC out of the resilience plane — it still works on a
//! healthy fabric, and only misbehaves during the faults the plane
//! exists for. New sites fail; deliberate exceptions (e.g. REMI's
//! windowed chunk pipeline, which manages its own in-flight tracking)
//! are frozen in the allowlist with the reason recorded in the code.

use crate::lexer::is_ident_byte;
use crate::source::SourceFile;
use crate::Finding;

/// Service-client modules where a raw forward is a finding. Exact files:
/// providers and the margo runtime itself legitimately call the forward
/// family.
pub const CLIENT_PATHS: &[&str] = &[
    "crates/yokan/src/client.rs",
    "crates/warabi/src/client.rs",
    "crates/remi/src/client.rs",
];

/// The forward family on `MargoRuntime` (and `RpcContext`): every method
/// through which an RPC leaves the process, the blocking forms and the
/// posting ones (`iforward_*` — the request is on the wire when the call
/// returns, whoever waits for the reply). The one list the contract
/// table, the deadline-loss walk and both lock-held-across-RPC rules
/// share with this lint; `*_raw` forms take a payload, the others a typed
/// input.
pub const FORWARD_FAMILY: &[&str] = &[
    "forward",
    "forward_full",
    "forward_raw",
    "forward_timeout",
    "forward_with_context",
    "iforward_full",
    "iforward_raw",
];

/// Functions allowed to forward: the designated chokepoints, posting
/// (`post*`) and blocking (`call*`).
pub const WRAPPERS: &[&str] = &["call", "call_raw", "post", "post_raw"];

/// Whether the raw-forward lint applies to `rel_path`.
pub fn in_client(rel_path: &str) -> bool {
    CLIENT_PATHS.contains(&rel_path)
}

/// Scans one client file for [`FORWARD_FAMILY`] method calls outside the
/// [`WRAPPERS`] (strings, comments, and test modules are already blanked
/// by the sanitizer). The kind is the method called (`forward_timeout`, …).
pub fn scan(file: &SourceFile) -> Vec<Finding> {
    let text = &file.text;
    let mut sites = Vec::new();
    let mut i = 0usize;
    while i + 1 < text.len() {
        if text[i] != b'.' {
            i += 1;
            continue;
        }
        let start = i + 1;
        let mut end = start;
        while end < text.len() && is_ident_byte(text[end]) {
            end += 1;
        }
        let Ok(name) = std::str::from_utf8(&text[start..end]) else {
            i = end.max(i + 1);
            continue;
        };
        if FORWARD_FAMILY.contains(&name) {
            let site = file.finding(
                "MOCHI011",
                i,
                name.to_string(),
                format!(
                    "raw `{name}` in a service client — route through `call`/`call_raw` so retry, breaker, and deadline handling apply"
                ),
            );
            if !WRAPPERS.contains(&site.function.as_str()) {
                sites.push(site);
            }
        }
        i = end.max(i + 1);
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn sites(rel_path: &str, src: &str) -> Vec<(String, String, usize)> {
        let file = SourceFile::parse(rel_path, src);
        scan(&file).into_iter().map(|s| (s.function, s.kind, s.line)).collect()
    }

    #[test]
    fn raw_forward_outside_wrappers_is_flagged() {
        let found = sites(
            "crates/yokan/src/client.rs",
            "fn put(&self) { let _ = self.margo.forward_timeout(&a, N, 1, &x, t); }\n",
        );
        assert_eq!(found, vec![("put".to_string(), "forward_timeout".to_string(), 1)]);
    }

    #[test]
    fn chokepoints_may_forward() {
        let found = sites(
            "crates/yokan/src/client.rs",
            "fn call(&self) { self.margo.forward_timeout(&a, N, 1, &x, t) }\n\
             fn call_raw(&self) { self.margo.forward_raw(&a, N, 1, p, c, t) }\n\
             fn post(&self) { self.margo.iforward_full(&a, N, 1, &x, c, t) }\n\
             fn post_raw(&self) { self.margo.iforward_raw(&a, N, 1, p, c, t) }\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn whole_forward_family_is_covered() {
        for method in super::FORWARD_FAMILY {
            let src = format!("fn get(&self) {{ self.margo.{method}(&a, N, 1, &x) }}\n");
            let found = sites("crates/remi/src/client.rs", &src);
            assert_eq!(found.len(), 1, "{method} not flagged");
            assert_eq!(found[0].1, *method);
        }
    }

    #[test]
    fn non_forward_methods_and_lookalikes_pass() {
        let found = sites(
            "crates/warabi/src/client.rs",
            "fn f(&self) { self.margo.forward_bulk_stats(); self.fast_forward(); let forward_timeout = 3; }\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn strings_comments_and_tests_are_invisible() {
        let found = sites(
            "crates/yokan/src/client.rs",
            "// self.margo.forward_timeout(...)\nfn f() { log(\".forward_raw\"); }\n#[cfg(test)]\nmod tests { fn t(m: &M) { m.forward_timeout(&a, N, 1, &x, t); } }\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn client_filter_is_exact_files() {
        assert!(in_client("crates/yokan/src/client.rs"));
        assert!(in_client("crates/remi/src/client.rs"));
        assert!(!in_client("crates/margo/src/runtime.rs"));
        assert!(!in_client("crates/yokan/src/provider.rs"));
        assert!(!in_client("crates/core/src/failover.rs"));
    }
}
