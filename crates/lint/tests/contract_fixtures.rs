//! RPC-table end-to-end test over the on-disk fixture mini-crate in
//! `tests/fixtures/contracts/`: a provider, a client, and a shared
//! `rpc_names` module every site names its RPC through.
//!
//! The fixture lives under a `fixtures/` directory precisely so the real
//! workspace walk (`source::collect_rs_files`) never picks it up.

use std::path::Path;

use mochi_lint::allowlist::Allowlist;
use mochi_lint::contracts::Role;
use mochi_lint::source::SourceFile;

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
