//! The simulated cluster: a fabric, a node pool, and Bedrock processes.
//!
//! The paper expects dynamic services to "pair well with high-level HPC
//! resource managers such as Flux that support the elastic allocation of
//! cluster resources" (§2.3). [`Cluster`] plays that role: it owns a
//! fixed pool of node names (the machine), grants and revokes them, boots
//! Bedrock processes on granted nodes, and crashes them on demand. A
//! shared directory stands in for the parallel file system where
//! checkpoints live (§7, Observation 9).

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;

use mochi_bedrock::{BedrockServer, ModuleCatalog, ProcessConfig};
use mochi_mercury::{Address, Fabric, NetworkModel};
use mochi_util::TempDir;

/// Errors raised by cluster operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The resource manager has no free nodes.
    NoFreeNodes,
    /// No process runs at this address.
    NoSuchProcess(String),
    /// Underlying Bedrock failure.
    Bedrock(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoFreeNodes => write!(f, "no free nodes in the pool"),
            ClusterError::NoSuchProcess(a) => write!(f, "no process at {a}"),
            ClusterError::Bedrock(m) => write!(f, "bedrock: {m}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// The module catalog with every component of this workspace installed —
/// the "software available on the machine".
pub fn default_catalog() -> ModuleCatalog {
    let mut catalog = ModuleCatalog::new();
    catalog.install(mochi_yokan::bedrock::LIBRARY, mochi_yokan::bedrock::bedrock_module());
    catalog.install(
        mochi_yokan::bedrock::VIRTUAL_LIBRARY,
        mochi_yokan::bedrock::virtual_bedrock_module(),
    );
    catalog.install(mochi_warabi::bedrock::LIBRARY, mochi_warabi::bedrock::bedrock_module());
    catalog
}

struct Pool {
    free: Vec<String>,
    granted: Vec<String>,
}

/// The simulated machine.
pub struct Cluster {
    fabric: Fabric,
    catalog: ModuleCatalog,
    root: TempDir,
    // leaf: node bookkeeping only.
    pool: Mutex<Pool>,
    // leaf: servers are cloned or taken out before they are called.
    processes: Mutex<BTreeMap<Address, BedrockServer>>,
    /// Port counter so re-spawns on the same node get fresh addresses
    /// unless the caller wants address reuse.
    // leaf: a counter.
    next_port: Mutex<u32>,
}

impl Cluster {
    /// Creates a cluster of `node_count` nodes with the default catalog
    /// and an instant network.
    pub fn new(node_count: usize) -> Arc<Self> {
        Self::with_options(node_count, default_catalog(), NetworkModel::instant())
    }

    /// Full-control constructor.
    pub fn with_options(
        node_count: usize,
        catalog: ModuleCatalog,
        model: NetworkModel,
    ) -> Arc<Self> {
        let fabric = Fabric::with_model(model);
        #[expect(
            clippy::expect_used,
            reason = "a simulated cluster without its scratch directory cannot host a process"
        )]
        let root = TempDir::new("cluster").expect("create cluster temp dir");
        Arc::new(Self {
            fabric,
            catalog,
            root,
            pool: Mutex::new(Pool {
                free: (0..node_count).rev().map(|i| format!("node{i:02}")).collect(),
                granted: Vec::new(),
            }),
            processes: Mutex::new(BTreeMap::new()),
            next_port: Mutex::new(1),
        })
    }

    /// The interconnect (fault injection lives here).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The shared "parallel file system" directory for checkpoints.
    pub fn pfs_dir(&self) -> PathBuf {
        let dir = self.root.path().join("pfs");
        #[expect(
            clippy::expect_used,
            reason = "the shared checkpoint directory lives under the cluster's own scratch directory"
        )]
        std::fs::create_dir_all(&dir).expect("create pfs dir");
        dir
    }

    /// Asks the resource manager for a node (Flux-style grant).
    pub fn allocate_node(&self) -> Result<String, ClusterError> {
        let mut pool = self.pool.lock();
        let node = pool.free.pop().ok_or(ClusterError::NoFreeNodes)?;
        pool.granted.push(node.clone());
        Ok(node)
    }

    /// Returns a node to the pool.
    pub fn release_node(&self, node: &str) {
        let mut pool = self.pool.lock();
        if let Some(pos) = pool.granted.iter().position(|n| n == node) {
            pool.granted.remove(pos);
            pool.free.push(node.to_string());
        }
    }

    /// Free node count.
    pub fn free_nodes(&self) -> usize {
        self.pool.lock().free.len()
    }

    /// Boots a Bedrock process on `node`. Each spawn gets a fresh port,
    /// so a node can be reused after a crash without address collisions.
    pub fn spawn(
        &self,
        node: &str,
        config: &ProcessConfig,
    ) -> Result<BedrockServer, ClusterError> {
        let port = {
            let mut next = self.next_port.lock();
            let p = *next;
            *next += 1;
            p
        };
        let addr = Address::tcp(node, port);
        let data_dir = self
            .root
            .path()
            .join("nodes")
            .join(addr.host())
            .join(format!("p{}", addr.port()));
        let server = BedrockServer::bootstrap(
            &self.fabric,
            addr.clone(),
            config,
            self.catalog.clone(),
            data_dir,
        )
        .map_err(|e| ClusterError::Bedrock(e.to_string()))?;
        self.processes.lock().insert(addr, server.clone());
        Ok(server)
    }

    /// The process at `addr`, if any.
    pub fn process(&self, addr: &Address) -> Option<BedrockServer> {
        self.processes.lock().get(addr).cloned()
    }

    /// Crashes the process at `addr` abruptly: no provider shutdown, no
    /// farewell — peers learn about it through SWIM timeouts. Data on the
    /// node's local "disk" survives for a later restart.
    pub fn crash(&self, addr: &Address) -> Result<(), ClusterError> {
        let server = self
            .processes
            .lock()
            .remove(addr)
            .ok_or_else(|| ClusterError::NoSuchProcess(addr.to_string()))?;
        // Finalizing Margo kills the endpoint and joins its threads; the
        // Bedrock providers are *not* stopped gracefully.
        server.margo().finalize();
        Ok(())
    }

    /// Gracefully stops the process at `addr` (providers stopped, Margo
    /// finalized).
    pub fn stop(&self, addr: &Address) -> Result<(), ClusterError> {
        let server = self
            .processes
            .lock()
            .remove(addr)
            .ok_or_else(|| ClusterError::NoSuchProcess(addr.to_string()))?;
        server.shutdown();
        Ok(())
    }
}

impl Drop for Cluster {
    /// Stops every process still running.
    fn drop(&mut self) {
        for (_, server) in std::mem::take(self.processes.get_mut()) {
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release_nodes() {
        let cluster = Cluster::new(2);
        let a = cluster.allocate_node().unwrap();
        let b = cluster.allocate_node().unwrap();
        assert_ne!(a, b);
        assert_eq!(cluster.free_nodes(), 0);
        assert!(matches!(cluster.allocate_node(), Err(ClusterError::NoFreeNodes)));
        cluster.release_node(&a);
        assert_eq!(cluster.free_nodes(), 1);
        assert_eq!(cluster.allocate_node().unwrap(), a);
    }

    #[test]
    fn spawn_and_stop_processes() {
        let cluster = Cluster::new(2);
        let node = cluster.allocate_node().unwrap();
        let config = ProcessConfig::default();
        let server = cluster.spawn(&node, &config).unwrap();
        let addr = server.address();
        assert!(cluster.process(&addr).is_some());
        cluster.stop(&addr).unwrap();
        assert!(cluster.process(&addr).is_none());
        assert!(matches!(cluster.stop(&addr), Err(ClusterError::NoSuchProcess(_))));
    }

    #[test]
    fn crash_leaves_peers_to_time_out() {
        let cluster = Cluster::new(2);
        let n1 = cluster.allocate_node().unwrap();
        let n2 = cluster.allocate_node().unwrap();
        let config = ProcessConfig::default();
        let s1 = cluster.spawn(&n1, &config).unwrap();
        let s2 = cluster.spawn(&n2, &config).unwrap();
        cluster.crash(&s2.address()).unwrap();
        // Talking to the crashed process times out.
        let err = s1
            .margo()
            .forward_timeout::<(), serde_json::Value>(
                &s2.address(),
                mochi_bedrock::proto::GET_CONFIG,
                0,
                &(),
                std::time::Duration::from_millis(50),
            )
            .unwrap_err();
        assert!(err.is_timeout());
    }

    #[test]
    fn default_catalog_has_all_components() {
        let catalog = default_catalog();
        assert!(catalog.resolve("libyokan.so").is_some());
        assert!(catalog.resolve("libyokan-virtual.so").is_some());
        assert!(catalog.resolve("libwarabi.so").is_some());
    }
}
