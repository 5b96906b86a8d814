//! End-to-end fixtures for the interprocedural rule, MOCHI013 (retry
//! soundness): true-positive and true-negative cases, driven through the full
//! `analyze` pipeline the CLI uses so registration discovery, call-graph
//! construction, and allowlist filtering are all in the loop.

use mochi_lint::allowlist::Allowlist;
use mochi_lint::source::SourceFile;

fn parse(files: &[(&str, &str)]) -> Vec<SourceFile> {
    files.iter().map(|(path, src)| SourceFile::parse(path, src)).collect()
}

// ---------------------------------------------------------------- MOCHI013

#[test]
fn retry_soundness_flags_remove_behind_declared_idempotent_handler() {
    let files = parse(&[(
        "crates/omega/src/provider.rs",
        "pub fn register_all(margo: &MargoRuntime, state: SharedState) {\n\
             margo.declare_idempotent(\"omega_put\");\n\
             margo.register_typed(\"omega_put\", 1, None, move |k: Vec<u8>, _ctx| {\n\
                 finish(&state, &k)\n\
             });\n\
         }\n\
         fn finish(state: &SharedState, k: &[u8]) -> Result<bool, String> {\n\
             state.sessions.lock().remove(k);\n\
             Ok(true)\n\
         }\n",
    )]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    let found = report.violations_of("MOCHI013");
    assert_eq!(found.len(), 1, "{found:?}");
    let r = found[0];
    assert_eq!(r.function, "finish");
    assert_eq!(r.kind, "remove:omega_put");
    assert!(report.render().contains("MOCHI013"));
}

#[test]
fn retry_soundness_accepts_keyed_overwrites() {
    // `insert` is last-writer-wins: replaying it converges, so the
    // declared idempotency holds.
    let files = parse(&[(
        "crates/omega/src/provider.rs",
        "pub fn register_all(margo: &MargoRuntime, state: SharedState) {\n\
             margo.declare_idempotent(\"omega_put\");\n\
             margo.register_typed(\"omega_put\", 1, None, move |k: Vec<u8>, _ctx| {\n\
                 state.sessions.lock().insert(k, ());\n\
                 Ok(true)\n\
             });\n\
         }\n",
    )]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    assert!(report.violations_of("MOCHI013").is_empty(), "{}", report.render());
}

#[test]
fn retry_soundness_ignores_effects_behind_undeclared_rpcs() {
    // The same `remove`, but the RPC was never declared idempotent: the
    // runtime will not retry it, so the effect is fine.
    let files = parse(&[(
        "crates/omega/src/provider.rs",
        "pub fn register_all(margo: &MargoRuntime, state: SharedState) {\n\
             margo.register_typed(\"omega_put\", 1, None, move |k: Vec<u8>, _ctx| {\n\
                 state.sessions.lock().remove(&k);\n\
                 Ok(true)\n\
             });\n\
         }\n",
    )]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    assert!(report.violations_of("MOCHI013").is_empty(), "{}", report.render());
}

#[test]
fn retry_soundness_resolves_the_const_array_loop_form() {
    // `for name in IDEMPOTENT_RPCS { margo.declare_idempotent(name) }` —
    // the declaration form every service client actually uses.
    let files = parse(&[(
        "crates/omega/src/provider.rs",
        "const IDEMPOTENT_RPCS: &[&str] = &[\"omega_put\"];\n\
         pub fn register_all(margo: &MargoRuntime, state: SharedState) {\n\
             for name in IDEMPOTENT_RPCS {\n\
                 margo.declare_idempotent(name);\n\
             }\n\
             margo.register_typed(\"omega_put\", 1, None, move |k: Vec<u8>, _ctx| {\n\
                 state.counts.lock().remove(&k);\n\
                 Ok(true)\n\
             });\n\
         }\n",
    )]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    let found = report.violations_of("MOCHI013");
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].kind, "remove:omega_put");
}

// ------------------------------------------------- allowlist interaction

#[test]
fn interproc_findings_respect_the_allowlist_and_staleness() {
    let files = parse(&[(
        "crates/omega/src/provider.rs",
        "pub fn register_all(margo: &MargoRuntime, state: SharedState) {\n\
             margo.declare_idempotent(\"omega_put\");\n\
             margo.register_typed(\"omega_put\", 1, None, move |k: Vec<u8>, _ctx| {\n\
                 state.sessions.lock().remove(&k);\n\
                 Ok(true)\n\
             });\n\
         }\n",
    )]);
    let json = r#"{
        "version": 1,
        "retry_soundness": [
            {"file": "crates/omega/src/provider.rs", "function": "register_all",
             "kind": "remove:omega_put", "count": 1,
             "reason": "replay-guarded"}
        ]
    }"#;
    let allowlist = Allowlist::from_json(json).expect("parse allowlist");
    let report = mochi_lint::analyze(&files, &allowlist);
    assert!(report.violations_of("MOCHI013").is_empty(), "{}", report.render());
    assert_eq!(report.allowed.get("retry_soundness"), Some(&1));
    assert!(report.stale_entries.is_empty());

    // The same allowlist against clean sources is stale debt: MOCHI010.
    let clean = parse(&[("crates/omega/src/provider.rs", "pub fn register_all() {}\n")]);
    let report = mochi_lint::analyze(&clean, &allowlist);
    assert_eq!(report.stale_entries.len(), 1);
    assert!(report.render().contains("MOCHI010"));
}
