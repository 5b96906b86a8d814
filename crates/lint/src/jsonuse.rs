//! Data-plane JSON lint: `serde_json::` inside hot-path codec, framing,
//! client, and provider modules.
//!
//! The RPC hot path encodes arguments with the mochi-wire binary codec;
//! reintroducing JSON there silently undoes its size and latency gains.
//! JSON remains the right format on the observability and configuration
//! surfaces — monitoring dumps (Listing 1), Bedrock configs (Listings
//! 2/3), Jx9 artifacts — so those modules are deliberately *not* listed
//! here. Existing debt is frozen in the allowlist; new sites fail.

use crate::lexer::is_ident_byte;
use crate::source::SourceFile;
use crate::Finding;

/// Data-plane modules where a `serde_json::` use is a finding. Exact
/// files, not prefixes: the sibling config/bedrock/monitoring modules in
/// these crates are allowed JSON surfaces.
pub const DATA_PLANE_PATHS: &[&str] = &[
    "crates/margo/src/codec.rs",
    "crates/margo/src/frame.rs",
    "crates/margo/src/rpc.rs",
    "crates/yokan/src/client.rs",
    "crates/yokan/src/provider.rs",
    "crates/warabi/src/client.rs",
    "crates/warabi/src/provider.rs",
    "crates/remi/src/client.rs",
    "crates/remi/src/protocol.rs",
    "crates/remi/src/provider.rs",
];

/// Whether the data-plane JSON lint applies to `rel_path`.
pub fn in_data_plane(rel_path: &str) -> bool {
    DATA_PLANE_PATHS.contains(&rel_path)
}

/// Scans one file for `serde_json::` path uses (strings, comments, and
/// test modules are already blanked by the sanitizer). The kind is always
/// `serde_json` (the allowlist key wants one).
pub fn scan(file: &SourceFile) -> Vec<Finding> {
    const NEEDLE: &[u8] = b"serde_json::";
    let text = &file.text;
    let mut sites = Vec::new();
    let mut i = 0usize;
    while i + NEEDLE.len() <= text.len() {
        if &text[i..i + NEEDLE.len()] == NEEDLE && (i == 0 || !is_ident_byte(text[i - 1])) {
            sites.push(file.finding(
                "MOCHI005",
                i,
                "serde_json".to_string(),
                "serde_json on the RPC hot path — use the mochi-wire codec".to_string(),
            ));
            i += NEEDLE.len();
        } else {
            i += 1;
        }
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
    fn finds_calls_and_use_declarations() {
        let found = sites(
            "crates/margo/src/codec.rs",
            "use serde_json::Value;\nfn encode_it(v: &Value) { let _ = serde_json::to_vec(v); }\n",
        );
        assert_eq!(
            found,
            vec![
                ("<module>".to_string(), "serde_json".to_string(), 1),
                ("encode_it".to_string(), "serde_json".to_string(), 2),
            ]
        );
    }

    #[test]
    fn strings_comments_and_tests_are_invisible() {
        let found = sites(
            "crates/margo/src/codec.rs",
            "// serde_json::to_vec is gone\nfn f() { log(\"serde_json::to_vec\"); }\n#[cfg(test)]\nmod tests { fn t() { serde_json::json!({}); } }\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn other_identifiers_do_not_match() {
        let found = sites(
            "crates/margo/src/codec.rs",
            "fn f() { my_serde_json::to_vec(&1); serde_jsonish::to_vec(&1); }\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn data_plane_filter_is_exact_files() {
        assert!(in_data_plane("crates/margo/src/codec.rs"));
        assert!(in_data_plane("crates/remi/src/protocol.rs"));
        assert!(!in_data_plane("crates/margo/src/config.rs"));
        assert!(!in_data_plane("crates/margo/src/monitoring/statistics.rs"));
        assert!(!in_data_plane("crates/yokan/src/bedrock.rs"));
    }
}
