//! The benchmark's contract: workloads and metric names.
//!
//! Later issues cite these names, `BENCHMARK.json` lists them, and
//! `tests::benchmark_json_matches_the_registry` keeps the two in step.

use serde_json::{json, Value};

/// Measured window in seconds — a constant, identical on every commit, so
/// two commits are always compared over the same amount of work.
/// `BENCHMARK.json`'s `run_seconds` carries the same number.
pub const MEASURE_SECS: f64 = 20.0;

/// Warm-up before the measured window, as a share of it (3 s of 20 s).
pub const WARMUP_SHARE: f64 = 0.15;

/// The measured window is cut into this many slices; each end-to-end figure
/// is the median over slices of the slice's exact figure, so one stall of
/// the shared host moves one slice, not the result.
pub const SLICES: usize = 10;

/// Each phase of the in-situ trace (untraced, then traced) as a share of
/// the window (5 s of 20 s).
pub const TRACE_PHASE_SHARE: f64 = 0.25;

/// Set-ups (deploy + preload) per run; `setup_s` is their median and the
/// last one is measured on.
pub const SETUPS_PER_RUN: usize = 5;

/// Service members, one tagged yokan provider each.
pub const NODES: usize = 3;

/// Client threads of the closed loop, capped by the host's parallelism.
pub const MAX_CLIENT_THREADS: usize = 2;

/// Keys per `put_multi` / `get_multi` call.
pub const BATCH_KEYS: usize = 64;

/// What one operation does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Single-key `get`/`put` over the preloaded keys.
    Point {
        get_share: f64,
        zipf_theta: Option<f64>,
    },
    /// Calls alternate between `put_multi` and `get_multi` of
    /// [`BATCH_KEYS`] uniformly chosen keys.
    Batch,
    /// `put` of never-seen keys, `get` uniform over the keys acked so far.
    Ingest { get_share: f64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub replication_factor: usize,
    /// The yokan provider's `config`, as JSON text.
    pub provider_config: &'static str,
    pub preload_keys: u64,
    pub value_len: usize,
    pub shape: Shape,
}

impl Workload {
    pub fn provider_config(&self) -> Value {
        serde_json::from_str(self.provider_config).unwrap_or(Value::Null)
    }

    /// Keys per `RoutedKv` call.
    pub fn keys_per_call(&self) -> usize {
        match self.shape {
            Shape::Batch => BATCH_KEYS,
            Shape::Point { .. } | Shape::Ingest { .. } => 1,
        }
    }
}

const MAP: &str = r#"{"backend":"map"}"#;
const SMALL_LSM: &str =
    r#"{"backend":"lsm","memtable_bytes":262144,"lsm_stripes":4,"max_tables":4}"#;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point_rf1_map",
        why: "Smallest message, negligible backend: per-op software overhead (routing, failover, margo, codec, fabric hand-off) is the whole cost; guards the rf=1-as-quorum simplification.",
        replication_factor: 1,
        provider_config: MAP,
        preload_keys: 100_000,
        value_len: 64,
        shape: Shape::Point { get_share: 0.95, zipf_theta: Some(0.99) },
    },
    Workload {
        name: "point_rf3_map",
        why: "Same layers used differently: versioned records, 3-way fan-out, quorum bookkeeping, read repair; writes beside reads, so a read-path gain that taxes writes shows.",
        replication_factor: 3,
        provider_config: MAP,
        preload_keys: 100_000,
        value_len: 64,
        shape: Shape::Point { get_share: 0.5, zipf_theta: None },
    },
    Workload {
        name: "batch_rf1_map",
        why: "Scatter-gather of 64 keys: per-RPC cost is amortised 20x, so bytes (codec copies, per-destination batching) dominate; a single-key fast path that slows multi-ops shows here.",
        replication_factor: 1,
        provider_config: MAP,
        preload_keys: 100_000,
        value_len: 256,
        shape: Shape::Batch,
    },
    Workload {
        name: "ingest_rf1_lsm",
        why: "HEPnOS-style ingest: 1 KiB puts of new keys into small LSM memtables force dozens of seal/flush/compaction cycles, so the LSM backend does most of the work and routing almost none.",
        replication_factor: 1,
        provider_config: SMALL_LSM,
        preload_keys: 0,
        value_len: 1024,
        shape: Shape::Ingest { get_share: 0.1 },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a client of the keyspace sees; measured untraced. An *op* is one
/// key read or written; latencies are per `RoutedKv` call. `error_share`
/// is not listed because a regression bound is relative and its value is 0:
/// it travels as the result's `failed` / `attempted` counts, and both it and
/// the 99th percentiles are in [`PER_LAYER`].
pub const END_TO_END: [Metric; 5] = [
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    lower("get_p50_us", "us"),
    lower("put_p50_us", "us"),
    lower("peak_rss_mib", "MiB"),
];

/// One layer each (the layer is the crate named first); produced by
/// `--trace`. See README.md for the glossary.
pub const PER_LAYER: [Metric; 34] = [
    // Ladder: each rung alone, single-threaded, median ns/op.
    lower("wire.encode_ns", "ns"),
    lower("wire.decode_ns", "ns"),
    lower("mercury.rtt_ns", "ns"),
    lower("argobots.handoff_ns", "ns"),
    lower("margo.null_rpc_ns", "ns"),
    lower("yokan.backend.put_ns", "ns"),
    lower("yokan.backend.get_ns", "ns"),
    lower("yokan.rpc.put_ns", "ns"),
    lower("yokan.rpc.get_ns", "ns"),
    lower("core.failover.put_ns", "ns"),
    lower("core.failover.get_ns", "ns"),
    lower("core.ring.lookup_ns", "ns"),
    lower("core.routed.put_ns", "ns"),
    lower("core.routed.get_ns", "ns"),
    // Fixed 100 000-put ingest into the workload's backend.
    lower("yokan.lsm.put_stall_p999_us", "us"),
    lower("yokan.lsm.sst_files", "count"),
    lower("yokan.lsm.disk_bytes_per_user_byte", "B/B"),
    // In-situ trace of the deployed keyspace, one client thread.
    lower("core.routed.self_ns", "ns"),
    lower("core.routed.rpcs_per_op", "1/op"),
    lower("margo.forward_ns", "ns"),
    lower("argobots.pool_wait_ns", "ns"),
    lower("yokan.handler_ns", "ns"),
    lower("margo.transit_ns", "ns"),
    lower("margo.retries_per_kop", "1/kop"),
    lower("core.routed.read_repairs", "count"),
    lower("core.routed.hinted_writes", "count"),
    lower("core.routed.get_p999_us", "us"),
    lower("core.routed.put_p999_us", "us"),
    lower("trace.overhead_pct", "%"),
    // The 99th percentiles keep their end-to-end names but live here: over
    // ten runs on the 2-CPU host they spread by up to 38 % of their median,
    // more than any regression bound the acceptance contract allows.
    lower("get_p99_us", "us"),
    lower("put_p99_us", "us"),
    lower("error_share", "1"),
    higher("trace.ops_per_s", "1/s"),
    lower("trace.spans", "count"),
];

fn metric_json(metrics: &[Metric]) -> Vec<Value> {
    metrics
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.as_str()}))
        .collect()
}

/// The `workloads`, `end_to_end` (without bounds) and `per_layer` sections
/// of `BENCHMARK.json`, as this crate defines them.
pub fn manifest() -> Value {
    json!({
        "run_seconds": MEASURE_SECS as u64,
        "workloads": WORKLOADS
            .iter()
            .map(|w| json!({"name": w.name, "why": w.why}))
            .collect::<Vec<Value>>(),
        "end_to_end": metric_json(&END_TO_END),
        "per_layer": metric_json(&PER_LAYER),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(metric.unit.len() <= 16, "{}", metric.unit);
            assert!(
                metric
                    .unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                metric.unit
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.provider_config().is_object(), "{}", w.name);
        }
        assert!(END_TO_END.iter().any(|m| m == &lower("setup_s", "s")));
    }

    /// Later issues cite these names; renaming one silently would orphan
    /// their claims.
    #[test]
    fn normative_names_are_present() {
        for name in [
            "point_rf1_map",
            "point_rf3_map",
            "batch_rf1_map",
            "ingest_rf1_lsm",
        ] {
            assert!(workload(name).is_some(), "{name}");
        }
        let listed: BTreeSet<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        for name in [
            "setup_s",
            "ops_per_s",
            "get_p50_us",
            "get_p99_us",
            "put_p50_us",
            "put_p99_us",
            "error_share",
            "peak_rss_mib",
            "wire.encode_ns",
            "wire.decode_ns",
            "mercury.rtt_ns",
            "argobots.handoff_ns",
            "margo.null_rpc_ns",
            "yokan.backend.put_ns",
            "yokan.backend.get_ns",
            "yokan.rpc.put_ns",
            "yokan.rpc.get_ns",
            "core.failover.put_ns",
            "core.failover.get_ns",
            "core.ring.lookup_ns",
            "core.routed.put_ns",
            "core.routed.get_ns",
            "yokan.lsm.put_stall_p999_us",
            "yokan.lsm.sst_files",
            "yokan.lsm.disk_bytes_per_user_byte",
            "core.routed.self_ns",
            "core.routed.rpcs_per_op",
            "margo.forward_ns",
            "argobots.pool_wait_ns",
            "yokan.handler_ns",
            "margo.transit_ns",
            "margo.retries_per_kop",
            "core.routed.read_repairs",
            "core.routed.hinted_writes",
            "core.routed.get_p999_us",
            "core.routed.put_p999_us",
            "trace.overhead_pct",
        ] {
            assert!(
                listed.contains(name),
                "{name} is named by the issue but not measured"
            );
        }
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; this crate is
    /// what prints the metrics. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let file: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let ours = manifest();
        assert_eq!(file["run_seconds"], ours["run_seconds"]);
        assert_eq!(file["workloads"], ours["workloads"]);
        assert_eq!(file["per_layer"], ours["per_layer"]);
        let bounded = file["end_to_end"].as_array().expect("end_to_end is a list");
        let unbounded: Vec<Value> = bounded
            .iter()
            .map(|m| json!({"name": m["name"], "unit": m["unit"], "better": m["better"]}))
            .collect();
        assert_eq!(Value::Array(unbounded), ours["end_to_end"]);
        for metric in bounded {
            let bound = metric["bound"]
                .as_f64()
                .expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{metric}");
        }
    }
}
