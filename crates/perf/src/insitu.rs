//! The in-situ pass of a `--trace` run: one client thread against the
//! deployed keyspace, first untraced, then with the monitors installed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mochi_margo::Monitor;

use crate::deploy::Deployment;
use crate::e2e::{Acked, Call, Client};
use crate::spec::Workload;
use crate::stats::{self, Picked};
use crate::trace::{self, Breakdown, Recorder, RootSpan, Stamp};

/// What the in-situ pass measured.
#[derive(Debug, Clone)]
pub struct InSitu {
    /// Median root-span duration per call, untraced phase.
    pub get_ns: Picked,
    pub put_ns: Picked,
    pub get_p99: Picked,
    pub put_p99: Picked,
    pub get_p999: Picked,
    pub put_p999: Picked,
    /// Keys per second, one client thread, untraced and traced.
    pub untraced_ops_per_s: f64,
    pub traced_ops_per_s: f64,
    pub breakdown: Breakdown,
    pub read_repairs: u64,
    pub hinted_writes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Raw material, for `--spans`.
    pub roots: Vec<RootSpan>,
    pub client_stamps: Vec<Stamp>,
    pub provider_stamps: Vec<Stamp>,
}

struct Phase {
    roots: Vec<RootSpan>,
    attempted: u64,
    failed: u64,
    seconds: f64,
}

fn phase(client: &mut Client<'_>, epoch: Instant, length: Duration) -> Phase {
    let started = Instant::now();
    let mut out = Phase {
        roots: Vec::new(),
        attempted: 0,
        failed: 0,
        seconds: 0.0,
    };
    loop {
        let before = epoch.elapsed().as_nanos() as u64;
        let (call, keys, failed) = client.step();
        let after = epoch.elapsed().as_nanos() as u64;
        out.roots.push(RootSpan {
            call,
            span: (before, after),
            keys,
        });
        out.attempted += keys;
        out.failed += failed;
        if started.elapsed() >= length {
            out.seconds = started.elapsed().as_secs_f64();
            return out;
        }
    }
}

fn durations(roots: &[RootSpan], call: Call) -> Vec<u64> {
    roots
        .iter()
        .filter(|r| r.call == call)
        .map(|r| r.span.1 - r.span.0)
        .collect()
}

pub fn run(
    workload: &Workload,
    deployment: &Deployment,
    seed: u64,
    warmup: Duration,
    phase_len: Duration,
) -> InSitu {
    let acked = Acked::new(1);
    let mut client = Client::new(workload, &deployment.routed, &acked, 0, 1, seed);
    let epoch = Instant::now();
    let before = deployment.routed.replication_stats();
    let warm = phase(&mut client, epoch, warmup);
    let untraced = phase(&mut client, epoch, phase_len);

    let client_recorder = Recorder::new(epoch);
    let provider_recorder = Recorder::new(epoch);
    deployment
        .client
        .add_monitor(Arc::clone(&client_recorder) as Arc<dyn Monitor>);
    for address in deployment.service.addresses() {
        if let Some(server) = deployment.service.server(&address) {
            server
                .margo()
                .add_monitor(Arc::clone(&provider_recorder) as Arc<dyn Monitor>);
        }
    }
    let traced = phase(&mut client, epoch, phase_len);
    let client_stamps = client_recorder.take();
    let provider_stamps = provider_recorder.take();
    let after = deployment.routed.replication_stats();

    let rate = |p: &Phase| p.attempted as f64 / p.seconds;
    let (mut gets, mut puts) = (
        durations(&untraced.roots, Call::Get),
        durations(&untraced.roots, Call::Put),
    );
    InSitu {
        get_ns: stats::pick(&mut gets, 50.0),
        put_ns: stats::pick(&mut puts, 50.0),
        get_p99: stats::pick(&mut gets, 99.0),
        put_p99: stats::pick(&mut puts, 99.0),
        get_p999: stats::pick(&mut gets, 99.9),
        put_p999: stats::pick(&mut puts, 99.9),
        untraced_ops_per_s: rate(&untraced),
        traced_ops_per_s: rate(&traced),
        breakdown: trace::analyze(&traced.roots, &client_stamps, &provider_stamps),
        read_repairs: after.read_repairs - before.read_repairs,
        hinted_writes: after.hinted_writes - before.hinted_writes,
        attempted: warm.attempted + untraced.attempted + traced.attempted,
        failed: warm.failed + untraced.failed + traced.failed,
        roots: traced.roots,
        client_stamps,
        provider_stamps,
    }
}
