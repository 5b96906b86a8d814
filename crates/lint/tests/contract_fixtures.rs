//! Contract-checker end-to-end tests over the on-disk fixture mini-crate
//! in `tests/fixtures/contracts/`: a provider, a client, and a shared
//! `rpc_names` module with deliberate register/forward mismatches of
//! every class the checker knows (MOCHI006/007/008).
//!
//! The fixture lives under a `fixtures/` directory precisely so the real
//! workspace walk (`source::collect_rs_files`) never picks it up.

use std::path::Path;

use mochi_lint::allowlist::Allowlist;
use mochi_lint::contracts::Role;
use mochi_lint::report;
use mochi_lint::source::SourceFile;
use mochi_lint::Finding;

/// Loads the fixture mini-crate as if it were `crates/mini` in a
/// workspace.
fn fixture_files() -> Vec<SourceFile> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/contracts");
    ["rpc_names.rs", "provider.rs", "client.rs"]
        .iter()
        .map(|name| {
            let text = std::fs::read_to_string(dir.join(name))
                .unwrap_or_else(|e| panic!("reading fixture {name}: {e}"));
            SourceFile::parse(&format!("crates/mini/src/{name}"), &text)
        })
        .collect()
}

#[test]
fn contract_table_covers_every_register_site() {
    let report = mochi_lint::analyze(&fixture_files(), &Allowlist::default());
    let registers: Vec<_> = report
        .contract_sites
        .iter()
        .filter(|s| s.role == Role::Register)
        .collect();
    assert_eq!(registers.len(), 3, "{registers:?}");
    // Every registration resolves its name through the rpc_names consts.
    for site in &registers {
        assert!(site.name.is_some(), "unresolved registration: {site:?}");
    }
    let names = report.rpc_names();
    let counts = |n: &str| {
        names
            .iter()
            .find(|(name, _, _)| name == n)
            .map(|(_, r, c)| (*r, *c))
            .unwrap_or_else(|| panic!("{n} missing from contract table"))
    };
    assert_eq!(counts("mini_put"), (1, 1));
    assert_eq!(counts("mini_get"), (1, 1));
    assert_eq!(counts("mini_orphan"), (1, 0));
    assert_eq!(counts("mini_missing"), (0, 1));
}

#[test]
fn unregistered_call_is_mochi006() {
    let report = mochi_lint::analyze(&fixture_files(), &Allowlist::default());
    let f: &Finding = report.violations_of("MOCHI006").first().expect("MOCHI006 finding");
    assert!(f.message.contains("mini_missing"), "{}", f.message);
    assert_eq!(f.file, "crates/mini/src/client.rs");
    assert_eq!(f.function, "missing");
}

#[test]
fn dead_surface_is_mochi007() {
    let report = mochi_lint::analyze(&fixture_files(), &Allowlist::default());
    let f: &Finding = report.violations_of("MOCHI007").first().expect("MOCHI007 finding");
    assert!(f.message.contains("mini_orphan"), "{}", f.message);
    assert_eq!(f.file, "crates/mini/src/provider.rs");
}

#[test]
fn both_type_mismatch_directions_are_mochi008() {
    let report = mochi_lint::analyze(&fixture_files(), &Allowlist::default());
    let kinds: Vec<_> = report.violations.iter().map(|c| c.kind.as_str()).collect();
    assert!(kinds.contains(&"arg-mismatch:mini_put"), "{kinds:?}");
    assert!(kinds.contains(&"reply-mismatch:mini_put"), "{kinds:?}");
    // The clean RPC produces nothing.
    assert!(!kinds.iter().any(|k| k.ends_with(":mini_get")), "{kinds:?}");
    assert_eq!(report.violations_of("MOCHI008").len(), 2);
}

#[test]
fn fixture_findings_render_in_both_formats() {
    let report = mochi_lint::analyze(&fixture_files(), &Allowlist::default());
    let text = report::render_text(&report);
    for rule in ["MOCHI006", "MOCHI007", "MOCHI008"] {
        assert!(text.contains(rule), "text output missing {rule}:\n{text}");
    }
    let json = report::render_json(&report);
    assert!(json.contains("\"rule\": \"MOCHI006\""), "{json}");
}

#[test]
fn contract_findings_can_be_frozen_in_the_allowlist() {
    let allowlist = Allowlist::from_json(
        r#"{"version": 1, "contracts": [
            {"file": "crates/mini/src/client.rs", "function": "missing", "kind": "unregistered:mini_missing", "count": 1},
            {"file": "crates/mini/src/client.rs", "function": "put", "kind": "arg-mismatch:mini_put", "count": 1},
            {"file": "crates/mini/src/client.rs", "function": "put", "kind": "reply-mismatch:mini_put", "count": 1},
            {"file": "crates/mini/src/provider.rs", "function": "register_rpcs", "kind": "dead:mini_orphan", "count": 1}
        ]}"#,
    )
    .unwrap();
    let report = mochi_lint::analyze(&fixture_files(), &allowlist);
    assert!(report.is_clean(), "{}", report::render_text(&report));
    assert_eq!(report.allowed.get("contracts"), Some(&4));
    assert!(report.stale_entries.is_empty());
}
