//! End-to-end fixtures for the guard/dataflow rules: each of MOCHI015
//! (RPC under lock), MOCHI016 (swallowed background error), and
//! MOCHI017 (unbounded queue growth) gets at least one true-positive
//! and one true-negative case, driven through the full `analyze`
//! pipeline the CLI uses.

use mochi_lint::allowlist::Allowlist;
use mochi_lint::source::SourceFile;

fn parse(files: &[(&str, &str)]) -> Vec<SourceFile> {
    files.iter().map(|(path, src)| SourceFile::parse(path, src)).collect()
}

// ---------------------------------------------------------------- MOCHI015

#[test]
fn rpc_under_lock_flags_guard_across_direct_forwarding_call() {
    let files = parse(&[(
        "crates/yokan/src/provider.rs",
        "struct Prov { state: OrderedMutex<Inner> }\n\
         impl Prov {\n\
             fn handle(&self, v: u64) { let g = self.state.lock(); self.relay(v); }\n\
             fn relay(&self, v: u64) { self.margo.forward(&dest(), \"yokan_next\", 1, &v).ok(); }\n\
         }\n",
    )]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    let found = report.violations_of("MOCHI015");
    assert_eq!(found.len(), 1, "{found:?}");
    let r = found[0];
    assert_eq!(r.function, "handle");
    assert_eq!(r.kind, "relay:yokan::state");
    assert!(report.render().contains("MOCHI015"));
}

#[test]
fn rpc_under_lock_follows_trait_dispatch_to_the_forward() {
    // The guard-holding caller only sees `dyn Sink`; the forward lives
    // in one of the impls. The trait edge must carry reachability.
    let files = parse(&[(
        "crates/yokan/src/provider.rs",
        "trait Sink { fn emit(&self, v: u64); }\n\
         struct Remote { margo: MargoRuntime }\n\
         impl Sink for Remote {\n\
             fn emit(&self, v: u64) { self.margo.forward(&dest(), \"yokan_next\", 1, &v).ok(); }\n\
         }\n\
         struct Local;\n\
         impl Sink for Local { fn emit(&self, _v: u64) {} }\n\
         struct Prov { state: OrderedMutex<Inner>, sink: Arc<dyn Sink> }\n\
         impl Prov {\n\
             fn handle(&self, v: u64) { let g = self.state.lock(); self.sink.emit(v); }\n\
         }\n",
    )]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    let found = report.violations_of("MOCHI015");
    assert_eq!(found.len(), 1, "{found:?}");
    let r = found[0];
    assert_eq!(r.function, "handle");
    assert_eq!(r.kind, "emit:yokan::state");
    assert!(r.path.last().unwrap().contains("forward"), "{:?}", r.path);
}

#[test]
fn rpc_under_lock_accepts_drop_before_the_call() {
    // The workspace idiom: compute under the lock, drop the guard, then
    // RPC. Must stay clean even when the drop is inside a branch.
    let files = parse(&[(
        "crates/yokan/src/provider.rs",
        "struct Prov { state: OrderedMutex<Inner> }\n\
         impl Prov {\n\
             fn handle(&self, v: u64) {\n\
                 let g = self.state.lock();\n\
                 match v { 0 => { drop(g); } _ => { drop(g); } }\n\
                 self.relay(v);\n\
             }\n\
             fn relay(&self, v: u64) { self.margo.forward(&dest(), \"yokan_next\", 1, &v).ok(); }\n\
         }\n",
    )]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    assert!(report.violations_of("MOCHI015").is_empty(), "{}", report.render());
}

#[test]
fn rpc_under_lock_ignores_plain_mutexes() {
    // Only the rank-ordered lock hierarchy is in scope; a parking_lot
    // Mutex on a leaf cache does not carry the progress-engine risk the
    // rule models (MOCHI009 still covers direct forwards under it).
    let files = parse(&[(
        "crates/yokan/src/provider.rs",
        "struct Prov { state: Mutex<Inner> }\n\
         impl Prov {\n\
             fn handle(&self, v: u64) { let g = self.state.lock(); self.relay(v); }\n\
             fn relay(&self, v: u64) { self.margo.forward(&dest(), \"yokan_next\", 1, &v).ok(); }\n\
         }\n",
    )]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    assert!(report.violations_of("MOCHI015").is_empty(), "{}", report.render());
}

// ---------------------------------------------------------------- MOCHI016

#[test]
fn swallowed_bg_error_flags_let_underscore_in_spawn() {
    let files = parse(&[(
        "crates/yokan/src/writer.rs",
        "impl Writer {\n\
             fn kick(&self) {\n\
                 let tx = self.tx.clone();\n\
                 std::thread::spawn(move || { let _ = tx.send(compact()); });\n\
             }\n\
         }\n",
    )]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    let found = report.violations_of("MOCHI016");
    assert_eq!(found.len(), 1, "{found:?}");
    let b = found[0];
    assert_eq!(b.kind, "let_underscore:send");
    assert_eq!(b.function, "kick");
    assert!(report.render().contains("MOCHI016"));
}

#[test]
fn swallowed_bg_error_accepts_parked_errors() {
    // The blessed pattern: the spawn body routes its failure somewhere a
    // supervisor can observe it (the BackgroundExecutor's parked-error
    // sink) instead of discarding it.
    let files = parse(&[(
        "crates/yokan/src/writer.rs",
        "impl Writer {\n\
             fn persist(&self) -> Result<(), Error> { Ok(()) }\n\
             fn kick(&self) {\n\
                 let me = self.clone();\n\
                 let parked = self.errors.clone();\n\
                 std::thread::spawn(move || {\n\
                     if let Err(e) = me.persist() { parked.lock().push(e); }\n\
                 });\n\
             }\n\
         }\n",
    )]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    assert!(report.violations_of("MOCHI016").is_empty(), "{}", report.render());
}

#[test]
fn swallowed_bg_error_flags_dropped_bare_result_statement() {
    let files = parse(&[(
        "crates/yokan/src/writer.rs",
        "impl Writer {\n\
             fn persist(&self) -> Result<(), Error> { Ok(()) }\n\
             fn kick(&self) {\n\
                 let me = self.clone();\n\
                 std::thread::spawn(move || { me.persist(); });\n\
             }\n\
         }\n",
    )]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    let found = report.violations_of("MOCHI016");
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].kind, "unused_result:persist");
}

#[test]
fn swallowed_bg_error_ignores_foreground_discards() {
    // `let _ =` outside a spawn span is the caller's own (synchronous)
    // choice — visible in review, out of this rule's scope.
    let files = parse(&[(
        "crates/yokan/src/writer.rs",
        "impl Writer {\n\
             fn kick(&self) { let _ = self.tx.send(compact()); }\n\
         }\n",
    )]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    assert!(report.violations_of("MOCHI016").is_empty(), "{}", report.render());
}

// ---------------------------------------------------------------- MOCHI017

const QUEUE_PREAMBLE: &str = "fn register_all(margo: &MargoRuntime) {\n\
     margo.register_typed(\"yokan_put\", 1, None, move |v: u64, _ctx| { worker(v); Ok(0) });\n\
 }\n";

#[test]
fn queue_growth_flags_unbounded_push_loop() {
    let src = format!(
        "{QUEUE_PREAMBLE}\
         fn worker(v: u64) {{ for item in expand(v) {{ STATE.pending.lock().push(item); }} }}\n"
    );
    let files = parse(&[("crates/yokan/src/provider.rs", &src)]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    let found = report.violations_of("MOCHI017");
    assert_eq!(found.len(), 1, "{found:?}");
    let q = found[0];
    assert_eq!(q.kind, "grow:push:pending");
    assert_eq!(q.function, "worker");
    assert!(report.render().contains("MOCHI017"));
}

#[test]
fn queue_growth_accepts_bounded_push_loop() {
    // The same loop gated on a capacity check is backpressure, not
    // growth.
    let src = format!(
        "{QUEUE_PREAMBLE}\
         fn worker(v: u64) {{ for item in expand(v) {{ if STATE.pending.lock().len() < CAP {{ STATE.pending.lock().push(item); }} }} }}\n"
    );
    let files = parse(&[("crates/yokan/src/provider.rs", &src)]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    assert!(report.violations_of("MOCHI017").is_empty(), "{}", report.render());
}

#[test]
fn queue_growth_accepts_drained_queue_and_local_accumulators() {
    let src = format!(
        "{QUEUE_PREAMBLE}\
         fn worker(v: u64) {{\n\
             let mut out = Vec::new();\n\
             for item in expand(v) {{ out.push(item); STATE.pending.lock().push(item); }}\n\
             consume(out);\n\
         }}\n\
         fn flush() {{ while let Some(x) = STATE.pending.lock().pop() {{ emit(x); }} }}\n"
    );
    let files = parse(&[("crates/yokan/src/provider.rs", &src)]);
    let report = mochi_lint::analyze(&files, &Allowlist::default());
    assert!(report.violations_of("MOCHI017").is_empty(), "{}", report.render());
}
