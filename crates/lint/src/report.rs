//! Reporting layer: the text renderer over a [`LintReport`]. Rule ids
//! and names come from [`crate::RULES`].

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
    out.push_str(&format!(
        "mochi-lint: {} files, {} RPC sites ({} named RPCs), {} frozen findings\n",
        report.files,
        report.contract_sites.len(),
        report.rpc_names().len(),
        report.allowed.values().sum::<usize>(),
    ));
    out.push_str(&format!(
        "call graph: {} nodes, {} edges ({} resolved calls, {} unresolved, {} fallback edges)\n",
        report.graph_stats.nodes,
        report.graph_stats.edges,
        report.graph_stats.resolved_calls,
        report.graph_stats.unresolved_calls,
        report.graph_stats.fallback_edges,
    ));
    for (level, f) in leveled(report) {
        out.push_str(&format!(
            "{} [{} {}] {}:{}:{} (fn {}): {}\n",
            level.to_uppercase(),
            f.rule,
            rule_name(f),
            f.file,
            f.line,
            f.column,
            f.function,
            f.message
        ));
    }
    if report.is_clean() && report.stale_entries.is_empty() {
        out.push_str("OK: every analysis clean, allowlist has no stale entries\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allowlist::Allowlist;
    use crate::source::SourceFile;

    fn demo_report() -> LintReport {
        // A handler declared idempotent whose body removes state: a retry
        // replays the removal (MOCHI013).
        let files = vec![SourceFile::parse(
            "crates/omega/src/provider.rs",
            "pub fn register_all(margo: &MargoRuntime, state: SharedState) {\n\
                 margo.declare_idempotent(\"omega_put\");\n\
                 margo.register_typed(\"omega_put\", 1, None, move |k: Vec<u8>, _ctx| {\n\
                     state.sessions.lock().remove(&k);\n\
                     Ok(true)\n\
                 });\n\
             }\n",
        )];
        crate::analyze(&files, &Allowlist::default())
    }

    #[test]
    fn findings_carry_registered_rule_ids() {
        let report = demo_report();
        assert!(!report.violations_of("MOCHI013").is_empty(), "{:?}", report.violations);
        for f in &report.violations {
            assert!(crate::rule(f.rule).is_some(), "{} is not in the registry", f.rule);
        }
    }

    #[test]
    fn stale_entries_render_as_warnings() {
        let mut allowlist = Allowlist::default();
        allowlist.sections.entry("retry_soundness").or_default().insert(
            ("gone.rs".to_string(), "gone".to_string(), "remove:gone_put".to_string()),
            1,
        );
        let report = crate::analyze(&[], &allowlist);
        assert!(report.is_clean(), "a stale entry is a warning, not a violation");
        assert_eq!(report.stale_entries.len(), 1);
        let text = render_text(&report);
        assert!(text.contains("WARNING [MOCHI010 stale-allowlist] lint-allow.json:1:1"), "{text}");
    }
}
