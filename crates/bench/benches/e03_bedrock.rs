//! E3 — Bedrock provider lifecycle and consistent cross-process changes
//! (paper §5, Observation 3, Listings 3 & 5).
//!
//! Claims under test: providers start/stop online quickly; concurrent
//! conflicting transactions (the c1/c2 example) never both succeed and
//! never leave the dangling-dependency state p1-without-p2.

use std::sync::Arc;

use mochi_bedrock::module::testkit::TestModule;
use mochi_bedrock::{
    apply_transaction, BedrockServer, ModuleCatalog, ProcessConfig, ProviderSpec, TxnOp,
};
use mochi_bench::{boot, fmt_latency, measure, Table};
use mochi_mercury::{Address, Fabric};
use mochi_util::TempDir;

fn main() {
    let fabric = Fabric::new();
    let dir = TempDir::new("e03").unwrap();
    let mut catalog = ModuleCatalog::new();
    catalog.install("liba.so", Arc::new(TestModule { type_name: "A".into() }));
    catalog.install("libb.so", Arc::new(TestModule { type_name: "B".into() }));

    let mut config = ProcessConfig::default();
    config.libraries.insert("A".into(), "liba.so".into());
    config.libraries.insert("B".into(), "libb.so".into());
    let n1 = BedrockServer::bootstrap(
        &fabric,
        Address::tcp("n1", 1),
        &config,
        catalog.clone(),
        dir.path().join("n1"),
    )
    .unwrap();
    let n2 = BedrockServer::bootstrap(
        &fabric,
        Address::tcp("n2", 1),
        &config,
        catalog,
        dir.path().join("n2"),
    )
    .unwrap();
    let client = boot(&fabric, "client");
    let handle = mochi_bedrock::Client::new(&client).make_service_handle(n1.address(), 0);

    // --- Provider lifecycle latencies (remote, via Listing-5 API) ------
    let mut i = 0u16;
    let start = measure(5, 200, || {
        i += 1;
        handle.start_provider(&ProviderSpec::new(format!("prov{i}"), "A", 100 + i)).unwrap();
    });
    let mut j = 0u16;
    let stop = measure(5, 200, || {
        j += 1;
        handle.stop_provider(&format!("prov{j}")).unwrap();
    });
    for k in 201..=205 {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a leftover the warmup never started is already stopped"
        )]
        let _ = handle.stop_provider(&format!("prov{k}"));
    }
    let get_config = measure(5, 200, || {
        let _ = handle.get_config().unwrap();
    });
    let mut table = Table::new(&["operation", "latency"]);
    table.row(&["startProvider (remote)".into(), fmt_latency(&start)]);
    table.row(&["stopProvider (remote)".into(), fmt_latency(&stop)]);
    table.row(&["getConfig (remote)".into(), fmt_latency(&get_config)]);
    table.print("E3a — Bedrock provider lifecycle (Listing 5 API)");

    // --- The c1/c2 consistency race, repeated --------------------------
    const ROUNDS: usize = 30;
    let mut c1_wins = 0usize;
    let mut c2_wins = 0usize;
    let mut both = 0usize;
    let mut inconsistent = 0usize;
    for round in 0..ROUNDS {
        let p2_name = format!("p2-{round}");
        let p1_name = format!("p1-{round}");
        // Create p2 on n2.
        let h2 = mochi_bedrock::Client::new(&client).make_service_handle(n2.address(), 0);
        h2.start_provider(&ProviderSpec::new(&p2_name, "A", 500)).unwrap();

        // c1: create p1 on n1 depending on p2@n2; c2: destroy p2 on n2.
        let spec = ProviderSpec::new(&p1_name, "B", 501)
            .with_dependency("dep", format!("{p2_name}@{}", n2.address()));
        // Alternate a small head start so both interleavings occur.
        let stagger = std::time::Duration::from_micros(300);
        let c1 = {
            let client = client.clone();
            let n1_addr = n1.address();
            let delay = if round % 2 == 0 { std::time::Duration::ZERO } else { stagger };
            std::thread::spawn(move || {
                std::thread::sleep(delay);
                apply_transaction(&client, 0, vec![(n1_addr, TxnOp::StartProvider { spec })])
            })
        };
        let c2 = {
            let client = client.clone();
            let n2_addr = n2.address();
            let name = p2_name.clone();
            let delay = if round % 2 == 1 { std::time::Duration::ZERO } else { stagger };
            std::thread::spawn(move || {
                std::thread::sleep(delay);
                apply_transaction(&client, 0, vec![(n2_addr, TxnOp::StopProvider { name })])
            })
        };
        let r1 = c1.join().unwrap().is_ok();
        let r2 = c2.join().unwrap().is_ok();
        let p1_exists = n1.provider_names().contains(&p1_name);
        let p2_exists = n2.provider_names().contains(&p2_name);
        match (p1_exists, p2_exists) {
            (true, true) => c1_wins += 1,
            (false, false) => c2_wins += 1,
            (false, true) => {
                // Neither txn took effect (both aborted): legal, retry-able.
                if r1 || r2 {
                    inconsistent += 1;
                } else {
                    both += 1; // "both aborted" bucket
                }
            }
            (true, false) => inconsistent += 1, // the forbidden state
        }
        // Cleanup for the next round: a provider the round failed to
        // start has nothing to stop.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a provider the round failed to start has nothing to stop"
        )]
        let _ = n1.stop_provider(&p1_name);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a provider the round failed to start has nothing to stop"
        )]
        let _ = h2.stop_provider(&p2_name);
    }
    let mut table = Table::new(&["outcome", "count"]);
    table.row(&["c1 wins (p1 and p2 exist)".into(), c1_wins.to_string()]);
    table.row(&["c2 wins (neither exists)".into(), c2_wins.to_string()]);
    table.row(&["both aborted (p2 survives, no p1)".into(), both.to_string()]);
    table.row(&["FORBIDDEN p1-without-p2".into(), inconsistent.to_string()]);
    table.print(&format!("E3b — c1/c2 transaction race, {ROUNDS} rounds"));
    assert_eq!(inconsistent, 0, "2PC must never leave a dangling dependency");
    println!("claim: \"either c1's or c2's request will succeed, but not both\" —");
    println!("the dangling state never occurred across {ROUNDS} races.");

    n1.shutdown();
    n2.shutdown();
    client.finalize();
}
