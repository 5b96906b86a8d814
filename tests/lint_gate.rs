//! The `mochi-lint` gate as a tier-1 test: the workspace's own sources
//! must break no rule of the linter's registry (`mochi_lint::RULES`,
//! DESIGN.md §11) beyond the debt frozen in `lint-allow.json` — and the
//! allowlist itself must carry no stale entries (debt that was paid down
//! but never pruned). Both tests read one analysis of the workspace.
//!
//! To regenerate the allowlist after deliberately accepting new debt:
//! `cargo run -p mochi-lint -- --root . --write-allowlist`.

use std::path::Path;
use std::sync::OnceLock;

use mochi_lint::LintReport;

/// The one analysis of the workspace both tests read.
fn workspace_report() -> &'static LintReport {
    static REPORT: OnceLock<LintReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let allowlist = mochi_lint::load_allowlist(&root.join("lint-allow.json"))
            .expect("load lint-allow.json");
        mochi_lint::run(root, &allowlist).expect("run mochi-lint")
    })
}

#[test]
fn workspace_passes_mochi_lint() {
    let report = workspace_report();
    assert!(report.files > 0, "lint walked no files — wrong root?");
    // The interprocedural analyses are only as good as the graph under
    // them: an empty or unresolved graph would let MOCHI013/016 pass
    // vacuously, so a resolution collapse must fail loudly here.
    assert!(
        report.graph_stats.nodes > 500 && report.graph_stats.edges > 500,
        "call graph collapsed: {} nodes, {} edges",
        report.graph_stats.nodes,
        report.graph_stats.edges
    );
    assert!(
        report.graph_stats.resolved_calls > report.graph_stats.fallback_edges,
        "most resolution should come from typing, not the unique-name fallback"
    );
    assert!(report.is_clean(), "{}", report.render());
    assert!(
        report.stale_entries.is_empty(),
        "stale lint-allow.json entries (prune them or rerun --write-allowlist): {:?}",
        report.stale_entries
    );
}

#[test]
fn contract_table_covers_the_workspace_rpc_surface() {
    let report = workspace_report();

    assert!(
        !report.contract_sites.is_empty(),
        "contract extraction found no register/forward sites — the analysis is likely broken"
    );

    // Spot-check that well-known RPCs from every service crate resolved
    // into the table with at least one registration each. These names
    // are defined in the per-crate `rpc_names` modules; if extraction or
    // const resolution regresses, they vanish from the table long before
    // any violation fires.
    let names = report.rpc_names();
    for expected in [
        "yokan_put",
        "yokan_get",
        // The routed-keyspace surface (DESIGN.md §17): the batch erase of
        // a live rebalance's cleanup.
        "yokan_erase_multi",
        // The replication surfaces (DESIGN.md §18): versioned
        // put-if-newer and the hinted-handoff triplet.
        "yokan_put_versioned_multi",
        "yokan_hint_put",
        "yokan_hint_list",
        "yokan_hint_drop",
        "warabi_write_bulk",
        "remi_migration_start",
        "ssg_ping",
        "raft_append_entries",
        "bedrock_get_config",
    ] {
        let (_, registrations, _) = names
            .iter()
            .find(|(name, _, _)| name == expected)
            .unwrap_or_else(|| panic!("{expected} missing from the contract table"));
        assert!(
            *registrations > 0,
            "{expected} is in the table but has no registration site"
        );
    }
}
