//! Reporting layer: the text renderer over a [`LintReport`]. Rule ids
//! and names come from [`crate::RULES`].

use std::fmt::Write as _;

use crate::{Finding, LintReport};

/// Every finding of the report with its level: the violations (`error`,
/// they fail the gate) and then the stale allowlist entries (`warning`).
fn leveled(report: &LintReport) -> impl Iterator<Item = (&'static str, &Finding)> {
    let errors = report.violations.iter().map(|f| ("error", f));
    errors.chain(report.stale_entries.iter().map(|f| ("warning", f)))
}

fn rule_name(finding: &Finding) -> &'static str {
    crate::rule(finding.rule).map_or("unregistered-rule", |r| r.name)
}

/// Human-readable report.
pub fn render_text(report: &LintReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mochi-lint: {} files, {} lock-order edges, {} RPC sites ({} named RPCs), {} frozen findings",
        report.files,
        report.lock_edges.len(),
        report.contract_sites.len(),
        report.rpc_names().len(),
        report.allowed.values().sum::<usize>(),
    );
    let _ = writeln!(
        out,
        "call graph: {} nodes, {} edges ({} resolved calls, {} unresolved, {} fallback edges)",
        report.graph_stats.nodes,
        report.graph_stats.edges,
        report.graph_stats.resolved_calls,
        report.graph_stats.unresolved_calls,
        report.graph_stats.fallback_edges,
    );
    for (level, f) in leveled(report) {
        let _ = writeln!(
            out,
            "{} [{} {}] {}:{}:{} (fn {}): {}",
            level.to_uppercase(),
            f.rule,
            rule_name(f),
            f.file,
            f.line,
            f.column,
            f.function,
            f.message
        );
    }
    if report.is_clean() && report.stale_entries.is_empty() {
        let _ = writeln!(out, "OK: every analysis clean, allowlist has no stale entries");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allowlist::Allowlist;
    use crate::source::SourceFile;

    fn demo_report() -> LintReport {
        let files = vec![
            SourceFile::parse(
                "crates/yokan/src/provider.rs",
                "pub mod rpc { pub const PUT: &str = \"yokan_put\"; }\nfn register(m: &M) { m.register_typed(rpc::PUT, 1, None, move |a: PutArgs, _| { let x = maybe.unwrap(); Ok(PutReply { n: x }) }); }",
            ),
            SourceFile::parse(
                "crates/yokan/src/client.rs",
                "use crate::provider::rpc;\nfn put(&self) { let _: PutReply = self.margo.forward(&a, rpc::PUT, 1, &PutArgs { n: 1 })?; }",
            ),
        ];
        crate::analyze(&files, &Allowlist::default())
    }

    #[test]
    fn findings_carry_registered_rule_ids() {
        let report = demo_report();
        assert!(!report.violations_of("MOCHI003").is_empty(), "{:?}", report.violations);
        for f in &report.violations {
            assert!(crate::rule(f.rule).is_some(), "{} is not in the registry", f.rule);
        }
    }

    #[test]
    fn stale_entries_render_as_warnings() {
        let mut allowlist = Allowlist::default();
        allowlist.sections.entry("panic_paths").or_default().insert(
            ("gone.rs".to_string(), "gone".to_string(), "unwrap".to_string()),
            1,
        );
        let report = crate::analyze(&[], &allowlist);
        assert!(report.is_clean(), "a stale entry is a warning, not a violation");
        assert_eq!(report.stale_entries.len(), 1);
        let text = render_text(&report);
        assert!(text.contains("WARNING [MOCHI010 stale-allowlist] lint-allow.json:1:1"), "{text}");
    }
}
