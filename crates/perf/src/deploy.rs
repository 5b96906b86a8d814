//! The deployment every workload runs against: a three-node dynamic service
//! on a free link, one tagged yokan provider per node, one client runtime
//! and a `RoutedKv` over the keyspace.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mochi_bedrock::ProviderSpec;
use mochi_core::{default_catalog, Cluster, DynamicService, RoutedConfig, RoutedKv, ServiceConfig};
use mochi_margo::{MargoConfig, MargoRuntime};
use mochi_mercury::{Address, NetworkModel};
use mochi_util::time::wait_until;

use crate::keys;
use crate::spec::{Workload, NODES};

/// Keyspace tag the providers carry and `RoutedKv::for_keyspace` discovers.
pub const KEYSPACE: &str = "perf";

/// Keys per `put_multi` call while preloading.
const PRELOAD_BATCH: u64 = 1_000;

/// Name of the yokan provider on node `i`.
pub fn provider_name(i: usize) -> String {
    format!("kv{i}")
}

/// Bedrock provider id of the yokan provider on node `i`.
pub fn provider_id(i: usize) -> u16 {
    10 + i as u16
}

pub struct Deployment {
    // Field order is drop order: the keyspace handle (and its hint-drainer
    // thread) goes first, the cluster (and its temp dirs) last.
    pub routed: RoutedKv,
    pub client: MargoRuntime,
    pub service: Arc<DynamicService>,
    pub cluster: Arc<Cluster>,
}

impl Deployment {
    /// Deploys the service and preloads the workload's keys with sequence 0.
    /// Returns the deployment and how long all of it took.
    pub fn start(workload: &Workload) -> Result<(Self, Duration), String> {
        let started = Instant::now();
        // A free link: numbers measure our software path, not condvar
        // wake-up accuracy on a shared core.
        let cluster = Cluster::with_options(NODES, default_catalog(), NetworkModel::instant());
        let config = workload.provider_config();
        let service = DynamicService::deploy(&cluster, ServiceConfig::default(), NODES, |i| {
            vec![ProviderSpec::new(provider_name(i), "yokan", provider_id(i))
                .with_config(config.clone())
                .with_tag(format!("keyspace:{KEYSPACE}"))]
        })
        .map_err(|e| format!("deploy: {e}"))?;
        let converged = wait_until(Duration::from_secs(20), Duration::from_millis(1), || {
            service.view().is_some_and(|view| view.len() == NODES)
        });
        if !converged {
            return Err("the SSG view did not converge on all members".into());
        }
        let client = MargoRuntime::init(
            cluster.fabric(),
            Address::tcp("client", 1),
            &MargoConfig::default(),
        )
        .map_err(|e| format!("client runtime: {e}"))?;
        let routed_config = RoutedConfig {
            replication_factor: workload.replication_factor,
            ..RoutedConfig::default()
        };
        let routed = RoutedKv::for_keyspace(&service, &client, KEYSPACE, routed_config)
            .map_err(|e| format!("keyspace: {e}"))?;
        let deployment = Deployment {
            routed,
            client,
            service,
            cluster,
        };
        deployment.preload(workload)?;
        Ok((deployment, started.elapsed()))
    }

    fn preload(&self, workload: &Workload) -> Result<(), String> {
        let mut next = 0;
        while next < workload.preload_keys {
            let end = (next + PRELOAD_BATCH).min(workload.preload_keys);
            let pairs: Vec<(Vec<u8>, Vec<u8>)> = (next..end)
                .map(|i| {
                    let key = keys::key(i);
                    let value = keys::value(&key, 0, workload.value_len);
                    (key, value)
                })
                .collect();
            let refs: Vec<(&[u8], &[u8])> = pairs
                .iter()
                .map(|(k, v)| (k.as_slice(), v.as_slice()))
                .collect();
            for slot in self.routed.put_multi(&refs) {
                slot.map_err(|e| format!("preload: {e}"))?;
            }
            next = end;
        }
        Ok(())
    }

    /// Stops everything and waits for it: client runtime, providers, SWIM,
    /// and (by dropping the cluster) the nodes' temp dirs.
    pub fn shutdown(self) {
        let Deployment {
            routed,
            client,
            service,
            cluster,
        } = self;
        drop(routed);
        client.finalize();
        service.shutdown();
        drop(service);
        drop(cluster);
    }
}
