//! `mochi-lint`: workspace-specific static analysis for the mochi-rs
//! stack, tuned to the failure mode that matters for dynamic HPC data
//! services and that no compiler lint can see: a retried handler that is
//! not idempotent only fails under load, on a live, reconfigured cluster.
//! The other layer contracts are the compiler's (DESIGN.md §11.1): panic
//! paths, raw forwards, data-plane JSON, bare atomic flags and discarded
//! results are clippy configuration in the root `Cargo.toml` and
//! `clippy.toml`, and `mochi_util::Flag`.
//!
//! The analysis ([`retry`]) walks the workspace call graph
//! ([`callgraph`] — method/trait/free edges with receiver typing, built
//! on the sanitized text of [`lexer`] and [`source`]) from the handler
//! registrations of the workspace RPC table ([`contracts`]), and returns
//! [`Finding`]s under the rule ids of [`RULES`].
//!
//! A finding whose rule has an allowlist section may be frozen in
//! `lint-allow.json` ([`allowlist`]) by `(file, function, kind)` and
//! count; anything beyond the frozen count is a violation, and an entry
//! that matches nothing is reported stale so debt burns down instead of
//! rotting. Adding a rule is its module, one [`RULES`] row, one line in
//! [`analyze`], and its fixture; a rule stays while it has a finding on
//! record (DESIGN.md §11.1), and a retired rule's id is not reused.
//!
//! Run as `cargo run -p mochi-lint -- --root .`, or
//! through the umbrella crate's `lint_gate` test, which makes it part of
//! the tier-1 gate.

pub mod allowlist;
pub mod callgraph;
pub mod contracts;
pub mod lexer;
pub mod report;
pub mod retry;
pub mod source;

use std::collections::BTreeMap;
use std::path::Path;

use allowlist::{Allowlist, Key, Sections};
use callgraph::{CallGraph, GraphStats};
use contracts::RpcSite;
use source::SourceFile;

/// One row of the rule registry.
pub struct Rule {
    /// Stable id, what a [`Finding`] carries.
    pub id: &'static str,
    /// Human name, for the reports.
    pub name: &'static str,
    /// The `lint-allow.json` section that can freeze this rule's
    /// findings; `None` for rules that are never allowlisted.
    pub section: Option<&'static str>,
}

/// The rule registry: the one place a rule's id, name and allowlist
/// section are spelled out. Row order is report order and, for the
/// sections, `lint-allow.json` order.
pub const RULES: &[Rule] = &[
    Rule { id: "MOCHI010", name: "stale-allowlist", section: None },
    Rule { id: "MOCHI013", name: "retry-unsound", section: Some("retry_soundness") },
];

/// The registry row of rule `id`.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// The allowlist sections in registry order; no two rules share one.
pub fn sections() -> impl Iterator<Item = &'static str> {
    RULES.iter().filter_map(|r| r.section)
}

/// What every analysis reports: one site, the rule it breaks, and the
/// message for it, built where the site is found. The derived order
/// (rule, file, function, kind, line, column) is report order and decides
/// which sites of one allowlist key a frozen count covers: the first ones.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// The [`Rule::id`].
    pub rule: &'static str,
    pub file: String,
    /// Enclosing function, `<module>` outside any.
    pub function: String,
    /// What was found, in the rule's own vocabulary (`serde_json`,
    /// `let_underscore:send`, `load:closed`, …): with file and
    /// function, the allowlist key.
    pub kind: String,
    pub line: usize,
    pub column: usize,
    pub message: String,
    /// Witness call path for the interprocedural rules, else empty.
    pub path: Vec<String>,
}

impl Finding {
    /// The allowlist key of this finding.
    pub fn key(&self) -> Key {
        (self.file.clone(), self.function.clone(), self.kind.clone())
    }
}

/// Everything one run of the analysis produced.
pub struct LintReport {
    /// Files analyzed.
    pub files: usize,
    /// The full workspace RPC contract table (every register/forward
    /// site, resolved or not).
    pub contract_sites: Vec<RpcSite>,
    /// Call-graph construction counters (nodes, edges, resolution).
    pub graph_stats: GraphStats,
    /// The findings that fail the gate: every one the allowlist does not
    /// cover, sorted.
    pub violations: Vec<Finding>,
    /// Findings covered by the allowlist (frozen debt), per section.
    pub allowed: BTreeMap<&'static str, usize>,
    /// Raw (pre-allowlist) finding counts per section: what
    /// `--write-allowlist` freezes and stale detection compares against.
    pub counts: Sections,
    /// Allowlist entries matching no current finding (MOCHI010).
    pub stale_entries: Vec<Finding>,
}

impl LintReport {
    /// True when nothing fails the gate (stale allowlist entries are a
    /// separate, warning-level condition — see [`LintReport::stale_entries`]).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations of one rule.
    pub fn violations_of(&self, rule: &str) -> Vec<&Finding> {
        self.violations.iter().filter(|f| f.rule == rule).collect()
    }

    /// The resolved RPC names in the contract table with their
    /// registration and call counts, sorted by name.
    pub fn rpc_names(&self) -> Vec<(String, usize, usize)> {
        let mut table: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        for site in &self.contract_sites {
            if let Some(name) = site.name.as_deref() {
                let entry = table.entry(name).or_insert((0, 0));
                match site.role {
                    contracts::Role::Register => entry.0 += 1,
                    contracts::Role::Call => entry.1 += 1,
                }
            }
        }
        table.into_iter().map(|(n, (r, c))| (n.to_string(), r, c)).collect()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        report::render_text(self)
    }
}

/// Analyzes already-parsed sources against an allowlist. The unit tests
/// and the fixture tests drive this directly with in-memory snippets.
pub fn analyze(files: &[SourceFile], allowlist: &Allowlist) -> LintReport {
    let consts = contracts::ConstTable::build(files);

    let mut findings: Vec<Finding> = Vec::new();
    let mut contract_sites: Vec<RpcSite> = Vec::new();
    for file in files {
        contract_sites.extend(contracts::sites(file, &consts));
    }
    contract_sites.sort();

    let graph = CallGraph::build(files);
    findings.extend(retry::check(files, &graph, &consts, &contract_sites));
    findings.sort();

    // Split into frozen debt and violations: of the sites sharing one
    // allowlist key, the first `count` (in report order) are allowed.
    let mut violations = Vec::new();
    let mut allowed: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut counts = Sections::new();
    for finding in findings {
        let Some(section) = rule(finding.rule).and_then(|r| r.section) else {
            violations.push(finding);
            continue;
        };
        let key = finding.key();
        let allowance = allowlist.allowance(section, &key);
        let seen = counts.entry(section).or_default().entry(key).or_insert(0);
        *seen += 1;
        if *seen <= allowance {
            *allowed.entry(section).or_default() += 1;
        } else {
            violations.push(finding);
        }
    }
    let stale_entries = allowlist.stale_entries(&counts);

    LintReport {
        files: files.len(),
        contract_sites,
        graph_stats: graph.stats(),
        violations,
        allowed,
        counts,
        stale_entries,
    }
}

/// Loads and analyzes every production `.rs` file under `root`.
pub fn run(root: &Path, allowlist: &Allowlist) -> Result<LintReport, String> {
    let mut files = Vec::new();
    for (rel, path) in source::collect_rs_files(root).map_err(|e| format!("walking {root:?}: {e}"))? {
        let raw = std::fs::read_to_string(&path).map_err(|e| format!("reading {path:?}: {e}"))?;
        files.push(SourceFile::parse(&rel, &raw));
    }
    Ok(analyze(&files, allowlist))
}

/// Loads the allowlist at `path`; a missing file is an empty allowlist.
pub fn load_allowlist(path: &Path) -> Result<Allowlist, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => Allowlist::from_json(&text).map_err(|e| format!("{path:?}: {e}")),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Allowlist::default()),
        Err(e) => Err(format!("reading {path:?}: {e}")),
    }
}
