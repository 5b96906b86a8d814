//! End-to-end fixtures for the interprocedural rules: each of MOCHI013
//! (retry soundness) and MOCHI014 (relaxed atomics) gets at least one
//! true-positive and one true-negative case, driven through the full
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

// ---------------------------------------------------------------- MOCHI014

#[test]
fn relaxed_atomics_flags_decision_load_with_foreign_writer() {
    // The second input is the bug the rule last caught in this tree
    // (mercury at `92429ac`): the fabric's and the endpoint's `closed`
    // flags, published `Relaxed` by `shutdown` and read `Relaxed` by the
    // send and progress paths that decide on them.
    let breaker: &[(&str, &str)] = &[(
        "crates/omega/src/breaker.rs",
        "pub struct Breaker { closed: AtomicBool }\n\
         impl Breaker {\n\
             pub fn admit(&self) -> bool {\n\
                 if self.closed.load(Ordering::Relaxed) {\n\
                     return false;\n\
                 }\n\
                 true\n\
             }\n\
             pub fn trip(&self) {\n\
                 self.closed.store(true, Ordering::SeqCst);\n\
             }\n\
         }\n",
    )];
    let mercury: &[(&str, &str)] = &[
        (
            "crates/mercury/src/endpoint.rs",
            "pub struct Endpoint { closed: AtomicBool }\n\
             impl Endpoint {\n\
                 fn ensure_open(&self) -> Result<(), MercuryError> {\n\
                     if self.closed.load(Ordering::Relaxed) {\n\
                         Err(MercuryError::LocalShutdown)\n\
                     } else {\n\
                         Ok(())\n\
                     }\n\
                 }\n\
                 pub fn progress(&self, timeout: Duration) -> Result<Option<Incoming>, MercuryError> {\n\
                     loop {\n\
                         if self.closed.load(Ordering::Relaxed) {\n\
                             return Err(MercuryError::LocalShutdown);\n\
                         }\n\
                         if let Some(incoming) = self.poll(timeout) {\n\
                             return Ok(Some(incoming));\n\
                         }\n\
                     }\n\
                 }\n\
             }\n",
        ),
        (
            "crates/mercury/src/fabric.rs",
            "struct FabricInner { closed: AtomicBool }\n\
             impl Fabric {\n\
                 pub fn shutdown(&self) {\n\
                     self.inner.closed.store(true, Ordering::Relaxed);\n\
                     self.inner.scheduler.lock().heap.clear();\n\
                 }\n\
             }\n",
        ),
    ];
    // (input, the findings as (function, kind))
    let cases: [(&[(&str, &str)], &[(&str, &str)]); 2] = [
        (breaker, &[("admit", "load:closed")]),
        (
            mercury,
            &[
                ("ensure_open", "load:closed"),
                ("progress", "load:closed"),
                ("shutdown", "store:closed"),
            ],
        ),
    ];
    for (input, expected) in cases {
        let report = mochi_lint::analyze(&parse(input), &Allowlist::default());
        let found: Vec<(&str, &str)> = report
            .violations_of("MOCHI014")
            .iter()
            .map(|f| (f.function.as_str(), f.kind.as_str()))
            .collect();
        assert_eq!(found, expected, "{}", report.render());
        assert!(report.render().contains("MOCHI014"));
    }
}

#[test]
fn relaxed_atomics_flags_relaxed_publish_with_foreign_decider() {
    let files = parse(&[(
        "crates/omega/src/breaker.rs",
        "pub struct Breaker { closed: AtomicBool }\n\
         impl Breaker {\n\
             pub fn admit(&self) -> bool {\n\
                 while self.closed.load(Ordering::Acquire) {\n\
                     return false;\n\
                 }\n\
                 true\n\
             }\n\
             pub fn trip(&self) {\n\
                 self.closed.store(true, Ordering::Relaxed);\n\
             }\n\
         }\n",
    )]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    let found = report.violations_of("MOCHI014");
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].kind, "store:closed");
    assert_eq!(found[0].function, "trip");
}

#[test]
fn relaxed_atomics_accepts_the_counter_idiom() {
    // Monotonic stats: relaxed RMW bumps, snapshot loads outside any
    // condition. This is PR 4's striped-stats shape and must stay clean.
    let files = parse(&[(
        "crates/omega/src/stats.rs",
        "pub struct Stats { hits: AtomicU64 }\n\
         impl Stats {\n\
             pub fn bump(&self) {\n\
                 self.hits.fetch_add(1, Ordering::Relaxed);\n\
             }\n\
             pub fn snapshot(&self) -> u64 {\n\
                 let n = self.hits.load(Ordering::Relaxed);\n\
                 n\n\
             }\n\
         }\n",
    )]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    assert!(report.violations_of("MOCHI014").is_empty(), "{}", report.render());
}

#[test]
fn relaxed_atomics_accepts_acquire_release_pairing() {
    let files = parse(&[(
        "crates/omega/src/breaker.rs",
        "pub struct Breaker { closed: AtomicBool }\n\
         impl Breaker {\n\
             pub fn admit(&self) -> bool {\n\
                 if self.closed.load(Ordering::Acquire) {\n\
                     return false;\n\
                 }\n\
                 true\n\
             }\n\
             pub fn trip(&self) {\n\
                 self.closed.store(true, Ordering::Release);\n\
             }\n\
         }\n",
    )]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    assert!(report.violations_of("MOCHI014").is_empty(), "{}", report.render());
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
