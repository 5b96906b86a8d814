//! E11 — the headline experiment: per-step online reconfiguration beats
//! every static configuration (paper §1, the HEPnOS/NOvA motivation).
//!
//! Workload: ingest `EVENTS` fixed-size events, then run `SCANS` globally
//! ordered scans. Configuration dimension (from the HEPnOS autotuning
//! study [3]): the number of databases the data is sharded over.
//!
//! * ingest favors many shards (each LSM stays small: fewer flushes per
//!   stripe and fewer compaction tiers per byte),
//! * ordered analysis favors one shard (scatter-gather RPCs ∝ K),
//! * the dynamic run ingests on 8 shards, then reconfigures online
//!   (start a scan-tuned provider, re-shard, stop the old providers)
//!   before analysis — paying the reconfiguration cost explicitly.

use mochi_bedrock::{BedrockServer, ModuleCatalog, ProcessConfig, ProviderSpec};
use mochi_bench::{boot, fmt_secs, Table};
use mochi_core::workflow::sharded;
use mochi_margo::MargoRuntime;
use mochi_mercury::{Address, Fabric};
use mochi_util::TempDir;
use mochi_yokan::DatabaseHandle;

const EVENTS: usize = 4000;
const VALUE_SIZE: usize = 512;
const SCANS: usize = 12;
const PAGE: usize = 50;

fn boot_service(
    fabric: &Fabric,
    label: &str,
    shards: usize,
    dir: &TempDir,
) -> (BedrockServer, Vec<DatabaseHandle>, Vec<String>, MargoRuntime) {
    let mut catalog = ModuleCatalog::new();
    catalog.install("libyokan.so", mochi_yokan::bedrock::bedrock_module());
    let mut process = ProcessConfig::default();
    process.libraries.insert("yokan".into(), "libyokan.so".into());
    let mut names = Vec::new();
    for s in 0..shards {
        let name = format!("shard{s}");
        process.providers.push(
            ProviderSpec::new(&name, "yokan", 10 + s as u16)
                .with_config(sharded::ingest_shard_config()),
        );
        names.push(name);
    }
    let server = BedrockServer::bootstrap(
        fabric,
        Address::tcp(format!("srv-{label}"), 1),
        &process,
        catalog,
        dir.path().join(label),
    )
    .unwrap();
    let client = boot(fabric, &format!("cli-{label}"));
    let handles = (0..shards)
        .map(|s| DatabaseHandle::new(&client, server.address(), 10 + s as u16))
        .collect();
    (server, handles, names, client)
}

fn main() {
    let fabric = Fabric::new();
    let dir = TempDir::new("e11").unwrap();
    println!("E11 workload: {EVENTS} events x {VALUE_SIZE} B, then {SCANS} ordered scans");

    let mut table = Table::new(&[
        "configuration",
        "ingest",
        "reconfig",
        "analysis",
        "makespan",
    ]);
    let mut best_static = f64::INFINITY;

    for shards in [1usize, 2, 8] {
        let label = format!("static-{shards}");
        let (server, handles, _names, client) = boot_service(&fabric, &label, shards, &dir);
        let ingest_s = sharded::ingest(&handles, EVENTS, VALUE_SIZE);
        let analysis_s = sharded::ordered_analysis(&handles, SCANS, PAGE, EVENTS);
        let makespan = ingest_s + analysis_s;
        best_static = best_static.min(makespan);
        table.row(&[
            label,
            fmt_secs(ingest_s),
            "-".into(),
            fmt_secs(analysis_s),
            fmt_secs(makespan),
        ]);
        server.shutdown();
        client.finalize();
    }

    let (server, handles, names, client) = boot_service(&fabric, "dynamic", 8, &dir);
    let ingest_s = sharded::ingest(&handles, EVENTS, VALUE_SIZE);
    let (reconfig_s, merged) =
        sharded::reshard(&server, &client, &handles, &names, "merged", 200);
    let analysis_s = sharded::ordered_analysis(
        std::slice::from_ref(&merged),
        SCANS,
        PAGE,
        EVENTS,
    );
    let makespan = ingest_s + reconfig_s + analysis_s;
    table.row(&[
        "dynamic (8 -> 1)".into(),
        fmt_secs(ingest_s),
        fmt_secs(reconfig_s),
        fmt_secs(analysis_s),
        fmt_secs(makespan),
    ]);
    server.shutdown();
    client.finalize();

    table.print("E11 — per-step reconfiguration vs static configurations");
    println!(
        "dynamic makespan = {:.0}% of the best static configuration",
        100.0 * makespan / best_static
    );
    assert!(
        makespan < best_static,
        "dynamic should beat every static configuration \
         (dynamic {makespan:.3}s vs best static {best_static:.3}s)"
    );
    println!("claim reproduced: each step has a different optimal configuration;");
    println!("a service that reconfigures online outperforms every static one,");
    println!("even counting the cost of the reconfiguration itself.");
}
