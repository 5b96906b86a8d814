//! Drives the real `mochi-perf` binary over a 300 ms window and checks only
//! what cannot depend on the host's speed: that every metric is named, that
//! no operation failed, that rf=1 costs one RPC per op, and that nothing is
//! left behind. No timing asserts, so tier-1 stays green on 1–2 CPUs.

#![allow(clippy::expect_used)]

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use serde_json::Value;

/// Runs one workload with temp dirs confined to a fresh directory and
/// returns the result line; the directory must be empty afterwards.
fn run(workload: &str, trace: &str) -> Value {
    let tmp = std::env::temp_dir().join(format!(
        "mochi-perf-smoke-{}-{workload}-{trace}",
        std::process::id()
    ));
    std::fs::create_dir_all(&tmp).expect("create the run's temp dir");
    let output = Command::new(env!("CARGO_BIN_EXE_mochi-perf"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.3",
            "--trace",
            trace,
        ])
        .env("TMPDIR", &tmp)
        .output()
        .expect("spawn mochi-perf");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let left_behind: Vec<_> = std::fs::read_dir(&tmp)
        .expect("list the run's temp dir")
        .flatten()
        .map(|entry| entry.path())
        .collect();
    assert!(
        left_behind.is_empty(),
        "temp dirs left behind: {left_behind:?}"
    );
    std::fs::remove_dir(&tmp).expect("remove the run's temp dir");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

/// Metric names of one section of `BENCHMARK.json`.
fn registry(section: &str) -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let manifest: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("parses");
    manifest[section]
        .as_array()
        .expect("a list of metrics")
        .iter()
        .map(|m| m["name"].as_str().expect("a name").to_string())
        .collect()
}

fn check(result: &Value, section: &str) {
    assert_eq!(result["correct"], true, "{result}");
    assert_eq!(result["failed"], 0, "{result}");
    assert!(result["attempted"].as_u64().expect("attempted") > 0);
    let metrics = result["metrics"].as_object().expect("metrics");
    let names: BTreeSet<String> = metrics.keys().cloned().collect();
    assert_eq!(
        names,
        registry(section),
        "the run must print exactly the {section} metrics"
    );
    for (name, reading) in metrics {
        assert!(reading["value"].is_number(), "{name}: {reading}");
        assert!(reading["unit"].is_string(), "{name}: {reading}");
    }
}

#[test]
fn point_rf1_map_end_to_end_and_traced() {
    check(&run("point_rf1_map", "0"), "end_to_end");
    let traced = run("point_rf1_map", "1");
    check(&traced, "per_layer");
    assert_eq!(traced["metrics"]["core.routed.rpcs_per_op"]["value"], 1.0);
    assert_eq!(traced["metrics"]["error_share"]["value"], 0.0);
}

#[test]
fn ingest_rf1_lsm_end_to_end_and_traced() {
    check(&run("ingest_rf1_lsm", "0"), "end_to_end");
    let traced = run("ingest_rf1_lsm", "1");
    check(&traced, "per_layer");
    assert_eq!(traced["metrics"]["core.routed.rpcs_per_op"]["value"], 1.0);
    assert_eq!(traced["metrics"]["error_share"]["value"], 0.0);
    assert!(
        traced["metrics"]["yokan.lsm.sst_files"]["value"]
            .as_f64()
            .expect("a count")
            > 0.0,
        "the fixed ingest must reach the disk"
    );
}
