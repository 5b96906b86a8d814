//! Fixture-based end-to-end tests: inline source snippets run through the
//! full `analyze` pipeline, exactly as the CLI and the umbrella-crate
//! gate drive it.

use mochi_lint::allowlist::Allowlist;
use mochi_lint::source::SourceFile;

fn parse(files: &[(&str, &str)]) -> Vec<SourceFile> {
    files.iter().map(|(path, src)| SourceFile::parse(path, src)).collect()
}

/// A provider whose handler is declared idempotent and removes state
/// `removes` times: each removal is one MOCHI013 finding.
fn idempotent_remover(removes: usize) -> Vec<SourceFile> {
    let body = "state.sessions.lock().remove(&k);\n".repeat(removes);
    let src = format!(
        "pub fn register_all(margo: &MargoRuntime, state: SharedState) {{\n\
             margo.declare_idempotent(\"omega_put\");\n\
             margo.register_typed(\"omega_put\", 1, None, move |k: Vec<u8>, _ctx| {{\n\
                 {body}\
                 Ok(true)\n\
             }});\n\
         }}\n"
    );
    vec![SourceFile::parse("crates/omega/src/provider.rs", &src)]
}

#[test]
fn new_remove_in_idempotent_handler_fails_until_allowlisted() {
    let files = idempotent_remover(1);

    // Without an allowance: violation.
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    assert!(!report.is_clean());
    assert_eq!(report.violations_of("MOCHI013").len(), 1);
    assert_eq!(report.violations_of("MOCHI013")[0].function, "register_all");

    // Frozen in the allowlist: clean, counted as frozen debt.
    let allowlist = Allowlist::from_json(
        r#"{"version": 1, "retry_soundness": [
            {"file": "crates/omega/src/provider.rs", "function": "register_all", "kind": "remove:omega_put", "count": 1}
        ]}"#,
    )
    .unwrap();
    let report = mochi_lint::analyze(&files, &allowlist);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.allowed.get("retry_soundness"), Some(&1));

    // A *second* site in the same function exceeds the frozen count.
    let files = idempotent_remover(2);
    let report = mochi_lint::analyze(&files, &allowlist);
    assert!(!report.is_clean());
    assert_eq!(report.violations_of("MOCHI013").len(), 1);
    assert_eq!(report.allowed.get("retry_soundness"), Some(&1));
}

/// The provider side of the posting-form fixtures below.
const POSTED_PROVIDER: (&str, &str) = (
    "crates/yokan/src/provider.rs",
    "pub fn register_all(margo: &MargoRuntime) {\n\
         margo.register(\"yokan_put_versioned_multi\", 1, None, handler).ok();\n\
     }\n",
);

#[test]
fn posting_form_outside_the_client_chokepoint_is_a_contract_call_site() {
    // A post is the RPC it starts: the contract table counts an
    // `iforward_raw` in a client method as the call that it is. (That
    // the method bypasses the chokepoint is clippy's `disallowed_methods`
    // finding, DESIGN.md §11.1.)
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
    assert!(report.is_clean(), "{}", report.render());
    assert!(
        report.rpc_names().contains(&("yokan_put_versioned_multi".to_string(), 1, 1)),
        "the post is a call site of the contract table: {:?}",
        report.rpc_names()
    );
}

#[test]
fn posting_form_through_the_client_chokepoint_is_a_contract_call_site() {
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
    for key in ["no_such_rule", "blocking", "ignored_locks", "serde_json", "background_errors"] {
        let error =
            Allowlist::from_json(&format!(r#"{{"version": 1, "{key}": []}}"#)).unwrap_err();
        assert!(error.contains(&format!("unknown allowlist section '{key}'")), "{error}");
    }
}
