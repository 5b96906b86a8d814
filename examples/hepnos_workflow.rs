//! The paper's motivating scenario (§1): a NOvA-like workflow whose steps
//! have different optimal service configurations, served better by online
//! reconfiguration than by any static compromise.
//!
//! ```text
//! cargo run --release --example hepnos_workflow
//! ```
//!
//! The configuration dimension is the one the HEPnOS autotuning study
//! ([3] in the paper) actually explores: **how many databases the service
//! spreads its data over**.
//!
//! * The *ingest* step (event storm into LSM-backed databases) favors
//!   **many shards**: each shard's compactions rewrite only its own data,
//!   so total compaction work shrinks with the shard count.
//! * The *analysis* step (globally ordered scans) favors **few shards**:
//!   every page must be scatter-gathered across all shards.
//!
//! A static deployment must pick one. A dynamic service ingests into many
//! shards, then uses online reconfiguration (start a fresh scan-tuned
//! provider, re-shard into it, stop the old ones) before analysis.
//!
//! The workload driver lives in `mochi_core::workflow::sharded`; the
//! `e11_dynamic_vs_static` bench runs the same experiment with asserts.

use mochi_rs::bedrock::{BedrockServer, ModuleCatalog, ProcessConfig, ProviderSpec};
use mochi_rs::core::workflow::sharded;
use mochi_rs::margo::MargoRuntime;
use mochi_rs::mercury::{Address, Fabric};
use mochi_rs::util::TempDir;
use mochi_rs::yokan::DatabaseHandle;

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
    catalog.install("libyokan.so", mochi_rs::yokan::bedrock::bedrock_module());
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
    let client =
        MargoRuntime::init_default(fabric, Address::tcp(format!("cli-{label}"), 1)).unwrap();
    let handles = (0..shards)
        .map(|s| DatabaseHandle::new(&client, server.address(), 10 + s as u16))
        .collect();
    (server, handles, names, client)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fabric = Fabric::new();
    let dir = TempDir::new("hepnos").unwrap();
    println!(
        "HEPnOS-like workflow: {EVENTS} events of {VALUE_SIZE} B, then {SCANS} ordered scans\n"
    );
    println!(
        "{:<22} {:>11} {:>11} {:>11} {:>12}",
        "configuration", "ingest (s)", "reshard (s)", "analysis (s)", "makespan (s)"
    );

    let mut results: Vec<(String, f64)> = Vec::new();
    for shards in [1usize, 8] {
        let label = format!("static-{shards}-shard");
        let (server, handles, _names, client) = boot_service(&fabric, &label, shards, &dir);
        let ingest_s = sharded::ingest(&handles, EVENTS, VALUE_SIZE)?;
        let analysis_s = sharded::ordered_analysis(&handles, SCANS, PAGE, EVENTS)?;
        let makespan = ingest_s + analysis_s;
        println!(
            "{label:<22} {ingest_s:>11.3} {:>11} {analysis_s:>11.3} {makespan:>12.3}",
            "-"
        );
        results.push((label, makespan));
        server.shutdown();
        client.finalize();
    }

    // Dynamic: ingest into 8 shards, reconfigure online, analyze 1 shard.
    let (server, handles, names, client) = boot_service(&fabric, "dynamic", 8, &dir);
    let ingest_s = sharded::ingest(&handles, EVENTS, VALUE_SIZE)?;
    let (reshard_s, merged) =
        sharded::reshard(&server, &client, &handles, &names, "merged", 200)?;
    let analysis_s = sharded::ordered_analysis(std::slice::from_ref(&merged), SCANS, PAGE, EVENTS)?;
    let makespan = ingest_s + reshard_s + analysis_s;
    println!(
        "{:<22} {ingest_s:>11.3} {reshard_s:>11.3} {analysis_s:>11.3} {makespan:>12.3}",
        "dynamic (8 -> 1)"
    );
    server.shutdown();
    client.finalize();

    let best_static = results.iter().map(|(_, m)| *m).fold(f64::INFINITY, f64::min);
    println!(
        "\ndynamic makespan is {:.0}% of the best static configuration",
        100.0 * makespan / best_static
    );
    println!("(each step has a different optimal shard count; only a dynamic");
    println!(" service — online provider start/stop + data movement — gets both)");
    Ok(())
}
