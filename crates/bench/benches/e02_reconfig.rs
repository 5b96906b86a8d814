//! E2 — online reconfiguration of the Margo runtime (paper §5, Obs. 2,
//! Listing 2).
//!
//! Claims under test: pools and execution streams can be added/removed in
//! a *running* process; the operations are fast; traffic served
//! concurrently with a reconfiguration storm suffers no failures and
//! bounded slowdown.

use std::sync::Arc;

use mochi_bench::{boot, fmt_latency, fmt_rate, fmt_secs, measure, Table};
use mochi_mercury::Fabric;
use mochi_util::Flag;

fn main() {
    let fabric = Fabric::new();
    let server = boot(&fabric, "server");
    let client = boot(&fabric, "client");
    server.register_typed("echo", 0, None, |v: u64, _| Ok(v)).unwrap();
    let server_addr = server.address();

    // --- Reconfiguration primitive latencies ---------------------------
    let mut n = 0u64;
    let add_pool = measure(10, 200, || {
        n += 1;
        server.add_pool_from_json(&format!(r#"{{"name": "p{n}"}}"#)).unwrap();
    });
    let mut m = 0u64;
    let add_xstream = measure(10, 200, || {
        m += 1;
        server
            .add_xstream_from_json(&format!(
                r#"{{"name": "es{m}", "scheduler": {{"pools": ["p{m}"]}}}}"#
            ))
            .unwrap();
    });
    let mut r = 0u64;
    let remove_xstream = measure(10, 200, || {
        r += 1;
        server.remove_xstream(&format!("es{r}")).unwrap();
    });
    let mut q = 0u64;
    let remove_pool = measure(10, 200, || {
        q += 1;
        server.remove_pool(&format!("p{q}")).unwrap();
    });
    // Drain warmup leftovers: some of these never existed.
    for i in 201..=210 {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a leftover the warmup never made is already drained"
        )]
        let _ = server.remove_xstream(&format!("es{i}"));
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a leftover the warmup never made is already drained"
        )]
        let _ = server.remove_pool(&format!("p{i}"));
    }

    let mut table = Table::new(&["operation", "latency", "throughput"]);
    for (name, h) in [
        ("margo_add_pool_from_json", &add_pool),
        ("add_xstream (spawns ES)", &add_xstream),
        ("remove_xstream (joins ES)", &remove_xstream),
        ("remove_pool", &remove_pool),
    ] {
        table.row(&[name.to_string(), fmt_latency(h), fmt_rate(200, h.mean() * 200.0)]);
    }
    table.print("E2a — online reconfiguration primitives");

    // --- Service continuity during a reconfiguration storm -------------
    let baseline = measure(200, 3000, || {
        let _: u64 = client.forward(&server_addr, "echo", 0, &1u64).unwrap();
    });

    let stop = Arc::new(Flag::new(false));
    let reconfig_thread = {
        let server = server.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.get() {
                i += 1;
                server.add_pool_from_json(&format!(r#"{{"name": "storm{i}"}}"#)).unwrap();
                server
                    .add_xstream_from_json(&format!(
                        r#"{{"name": "storm-es{i}", "scheduler": {{"pools": ["storm{i}"]}}}}"#
                    ))
                    .unwrap();
                server.remove_xstream(&format!("storm-es{i}")).unwrap();
                server.remove_pool(&format!("storm{i}")).unwrap();
            }
            i
        })
    };
    let during = measure(200, 3000, || {
        let _: u64 = client.forward(&server_addr, "echo", 0, &1u64).unwrap();
    });
    stop.set(true);
    let cycles = reconfig_thread.join().unwrap();

    let mut table = Table::new(&["condition", "echo latency", "mean"]);
    table.row(&["baseline".into(), fmt_latency(&baseline), fmt_secs(baseline.mean())]);
    table.row(&[
        format!("during reconfig storm ({cycles} cycles)"),
        fmt_latency(&during),
        fmt_secs(during.mean()),
    ]);
    table.print("E2b — RPC service continuity during reconfiguration");
    println!("claim: all 3000 RPCs issued during the storm succeeded (each call");
    println!("unwraps), with bounded slowdown — configuration changes are");
    println!("enacted without taking the service offline.");

    server.finalize();
    client.finalize();
}
