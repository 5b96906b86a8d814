//! End-to-end fixtures for MOCHI016 (swallowed background error):
//! true-positive and true-negative cases, driven through the full
//! `analyze` pipeline the CLI uses.

use mochi_lint::allowlist::Allowlist;
use mochi_lint::source::SourceFile;

fn parse(files: &[(&str, &str)]) -> Vec<SourceFile> {
    files.iter().map(|(path, src)| SourceFile::parse(path, src)).collect()
}

// ---------------------------------------------------------------- MOCHI016

#[test]
fn swallowed_bg_error_flags_let_underscore_in_spawn() {
    // The second input is the bug the rule last caught in this tree (raft
    // at `2aac269`): an election thread that drops a failed `save_meta` of
    // its own vote, and vote threads that drop a failed `send` of the
    // reply.
    let writer: &[(&str, &str)] = &[(
        "crates/yokan/src/writer.rs",
        "impl Writer {\n\
                 fn kick(&self) {\n\
                     let tx = self.tx.clone();\n\
                     std::thread::spawn(move || { let _ = tx.send(compact()); });\n\
                 }\n\
             }\n",
    )];
    let raft: &[(&str, &str)] = &[
        (
            "crates/raft/src/node.rs",
            "impl RaftNode {\n\
                 fn collect_votes(inner: &Arc<Inner>, args: &RequestVoteArgs, peers: &[Address]) -> bool {\n\
                     let (tx, rx) = bounded::<RequestVoteReply>(peers.len().max(1));\n\
                     for peer in peers {\n\
                         let tx = tx.clone();\n\
                         std::thread::Builder::new()\n\
                             .name(\"raft-vote\".into())\n\
                             .spawn(move || {\n\
                                 let reply: Result<RequestVoteReply, _> = inner.margo.forward_timeout(&peer, rpc::REQUEST_VOTE, inner.provider_id, &args, t);\n\
                                 if let Ok(reply) = reply {\n\
                                     let _ = tx.send(reply);\n\
                                 }\n\
                             })\n\
                             .expect(\"spawn vote thread\");\n\
                     }\n\
                     tally(rx)\n\
                 }\n\
                 fn run_election(&self, proposed: Term, prevote_args: RequestVoteArgs, peers: Vec<Address>) {\n\
                     let inner = Arc::clone(&self.inner);\n\
                     std::thread::Builder::new()\n\
                         .name(\"raft-election\".into())\n\
                         .spawn(move || {\n\
                             if !Self::collect_votes(&inner, &prevote_args, &peers) {\n\
                                 return;\n\
                             }\n\
                             let mut core = inner.core.lock();\n\
                             core.meta.term = proposed;\n\
                             core.meta.voted_for = Some(inner.margo.address());\n\
                             let _ = inner.storage.save_meta(&core.meta);\n\
                         })\n\
                         .expect(\"spawn election thread\");\n\
                 }\n\
             }\n",
        ),
        (
            "crates/raft/src/storage.rs",
            "impl Storage {\n\
                 pub fn save_meta(&self, meta: &PersistentMeta) -> Result<(), RaftError> {\n\
                     std::fs::write(&self.meta_path, encode(meta)).map_err(RaftError::Io)\n\
                 }\n\
             }\n",
        ),
    ];
    // (input, the findings as (function, kind))
    let cases: [(&[(&str, &str)], &[(&str, &str)]); 2] = [
        (writer, &[("kick", "let_underscore:send")]),
        (
            raft,
            &[
                ("collect_votes", "let_underscore:send"),
                ("run_election", "let_underscore:save_meta"),
            ],
        ),
    ];
    for (input, expected) in cases {
        let report = mochi_lint::analyze(&parse(input), &Allowlist::default());
        let found: Vec<(&str, &str)> = report
            .violations_of("MOCHI016")
            .iter()
            .map(|f| (f.function.as_str(), f.kind.as_str()))
            .collect();
        assert_eq!(found, expected, "{}", report.render());
        assert!(report.render().contains("MOCHI016"));
    }
}

#[test]
fn swallowed_bg_error_accepts_parked_errors() {
    // The blessed pattern: the spawn body routes its failure somewhere a
    // supervisor can observe it (a parked-error sink) instead of
    // discarding it.
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
