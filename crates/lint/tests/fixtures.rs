//! Fixture-based end-to-end tests: inline source snippets run through the
//! full `analyze` pipeline, exactly as the CLI and the umbrella-crate
//! gate drive it.

use mochi_lint::allowlist::Allowlist;
use mochi_lint::source::SourceFile;

fn parse(files: &[(&str, &str)]) -> Vec<SourceFile> {
    files.iter().map(|(path, src)| SourceFile::parse(path, src)).collect()
}

#[test]
fn new_json_in_rpc_handler_fails_until_allowlisted() {
    let files = parse(&[(
        "crates/yokan/src/provider.rs",
        "impl P { fn handle_put(&self, ctx: &RpcContext) { let v = serde_json::to_vec(&ctx.args()); } }",
    )]);

    // Without an allowance: violation.
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    assert!(!report.is_clean());
    assert_eq!(report.violations_of("MOCHI005").len(), 1);
    assert_eq!(report.violations_of("MOCHI005")[0].function, "handle_put");

    // Frozen in the allowlist: clean, counted as frozen debt.
    let allowlist = Allowlist::from_json(
        r#"{"version": 1, "serde_json": [
            {"file": "crates/yokan/src/provider.rs", "function": "handle_put", "kind": "serde_json", "count": 1}
        ]}"#,
    )
    .unwrap();
    let report = mochi_lint::analyze(&files, &allowlist);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.allowed.get("serde_json"), Some(&1));

    // A *second* site in the same function exceeds the frozen count.
    let files = parse(&[(
        "crates/yokan/src/provider.rs",
        "impl P { fn handle_put(&self, ctx: &RpcContext) { let v = serde_json::to_vec(&ctx.args()); let w = serde_json::to_vec(&ctx.more()); } }",
    )]);
    let report = mochi_lint::analyze(&files, &allowlist);
    assert!(!report.is_clean());
    assert_eq!(report.violations_of("MOCHI005").len(), 1);
    assert_eq!(report.allowed.get("serde_json"), Some(&1));
}

/// The provider side of the posting-form fixtures below.
const POSTED_PROVIDER: (&str, &str) = (
    "crates/yokan/src/provider.rs",
    "pub fn register_all(margo: &MargoRuntime) {\n\
         margo.register(\"yokan_put_versioned_multi\", 1, None, handler).ok();\n\
     }\n",
);

#[test]
fn posting_form_outside_the_client_chokepoint_is_a_raw_forward() {
    // A post is the RPC it starts: `iforward_raw` in a client method
    // bypasses the chokepoint exactly as `forward_raw` would, and the
    // contract table counts it as the call that it is.
    let files = parse(&[
        POSTED_PROVIDER,
        (
            "crates/yokan/src/client.rs",
            "impl DatabaseHandle {\n\
                 pub fn post_put_versioned(&self, batch: &VersionedBatch) -> PendingForward {\n\
                     self.margo.iforward_raw(&self.address, \"yokan_put_versioned_multi\", self.provider_id, batch.0.clone(), self.timeout)\n\
                 }\n\
             }\n",
        ),
    ]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    assert_eq!(report.violations_of("MOCHI011").len(), 1, "{}", report.render());
    let site = report.violations_of("MOCHI011")[0];
    assert_eq!(
        (site.function.as_str(), site.kind.as_str()),
        ("post_put_versioned", "iforward_raw")
    );
    assert!(report.render().contains("MOCHI011"));
    assert!(
        report.rpc_names().contains(&("yokan_put_versioned_multi".to_string(), 1, 1)),
        "the post is a call site of the contract table: {:?}",
        report.rpc_names()
    );
}

#[test]
fn posting_form_through_the_client_chokepoint_passes() {
    let files = parse(&[
        POSTED_PROVIDER,
        (
            "crates/yokan/src/client.rs",
            "impl DatabaseHandle {\n\
                 fn post_raw(&self, rpc_name: &str, payload: Bytes) -> PendingForward {\n\
                     self.margo.iforward_raw(&self.address, rpc_name, self.provider_id, payload, self.timeout)\n\
                 }\n\
                 pub fn post_put_versioned(&self, batch: &VersionedBatch) -> PendingForward {\n\
                     self.post_raw(\"yokan_put_versioned_multi\", batch.0.clone())\n\
                 }\n\
             }\n",
        ),
    ]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.violations_of("MOCHI011").is_empty());
    // The chokepoint's own forward names its RPC by parameter; the site
    // the contract table records is the `post_raw` that names it.
    assert!(report.rpc_names().contains(&("yokan_put_versioned_multi".to_string(), 1, 1)));
}

#[test]
fn the_rule_registry_is_consistent_with_the_committed_allowlist() {
    // Every rule id, name and allowlist section once.
    for (i, a) in mochi_lint::RULES.iter().enumerate() {
        for b in &mochi_lint::RULES[i + 1..] {
            assert_ne!(a.id, b.id, "rule id registered twice");
            assert_ne!(a.name, b.name, "rule name registered twice");
            assert!(a.section.is_none() || a.section != b.section, "section owned twice");
        }
    }

    // Every section the committed debt file names belongs to a registered
    // rule: the loader accepts registered sections only, and keeps each
    // under the registry's own name for it.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../lint-allow.json");
    let committed = std::fs::read_to_string(&path).expect("read lint-allow.json");
    let allowlist = Allowlist::from_json(&committed).expect("the committed allowlist loads");
    assert!(!allowlist.sections.is_empty(), "the committed allowlist froze nothing?");
    for section in allowlist.sections.keys() {
        assert!(
            mochi_lint::RULES.iter().any(|r| r.section == Some(*section)),
            "section {section} belongs to no rule"
        );
    }
    assert_eq!(allowlist.to_json(), committed, "the committed file is in canonical form");

    // A key no rule owns is rejected by name — a retired rule's section
    // and the retired `ignored_locks` opt-out included, so a stale debt
    // file cannot silently pass.
    for key in ["no_such_rule", "blocking", "ignored_locks"] {
        let error =
            Allowlist::from_json(&format!(r#"{{"version": 1, "{key}": []}}"#)).unwrap_err();
        assert!(error.contains(&format!("unknown allowlist section '{key}'")), "{error}");
    }
}
