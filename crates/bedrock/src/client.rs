//! Bedrock's client library: remote access to a process's configuration
//! (paper §5, Listing 5) and the two-phase-commit coordinator for
//! consistent multi-process changes.
//!
//! Listing 5 in Rust:
//!
//! ```ignore
//! let client = bedrock::Client::new(&margo);
//! let handle = client.make_service_handle(address, 0);
//! handle.add_pool(json!({"name": "MyPoolX", "type": "fifo_wait"}))?;
//! handle.remove_pool("MyPoolX")?;
//! handle.load_module("B", "libcomponent_b.so")?;
//! handle.start_provider(&ProviderSpec::new("myProviderB", "B", 2))?;
//! ```

use serde_json::Value;

use mochi_margo::{MargoRuntime, Rpc};
use mochi_mercury::Address;
use mochi_remi::Strategy;
use mochi_util::id::unique_token;

use crate::config::ProviderSpec;
use crate::error::BedrockError;
use crate::server::proto;
use crate::txn::TxnOp;

/// Client factory, mirroring `bedrock::Client` in the C++ API.
#[derive(Clone)]
pub struct Client {
    margo: MargoRuntime,
}

impl Client {
    /// Creates a client on `margo`.
    pub fn new(margo: &MargoRuntime) -> Self {
        Self { margo: margo.clone() }
    }

    /// Creates a handle to the Bedrock process at `address` whose Bedrock
    /// provider uses `provider_id` (0 in every default configuration).
    pub fn make_service_handle(&self, address: Address, provider_id: u16) -> ServiceHandle {
        ServiceHandle { margo: self.margo.clone(), address, provider_id }
    }
}

/// Remote handle to one Bedrock process.
#[derive(Clone)]
pub struct ServiceHandle {
    margo: MargoRuntime,
    address: Address,
    provider_id: u16,
}

impl ServiceHandle {
    /// The process address this handle points at.
    pub fn address(&self) -> &Address {
        &self.address
    }

    fn call<I: serde::Serialize, O: serde::de::DeserializeOwned>(
        &self,
        rpc: Rpc<'static, I, O>,
        args: &I,
    ) -> Result<O, BedrockError> {
        self.margo.forward(&self.address, rpc, self.provider_id, args).map_err(BedrockError::Margo)
    }

    /// Fetches the process configuration (Listing 3 shape, live).
    pub fn get_config(&self) -> Result<Value, BedrockError> {
        self.call(proto::GET_CONFIG, &())
    }

    /// Runs a Jx9 query against the process configuration (Listing 4).
    pub fn query(&self, script: &str) -> Result<Value, BedrockError> {
        self.call(proto::QUERY, &proto::QueryArgs { script: script.to_string() })
    }

    /// Adds a pool (`p.addPool(jsonPoolConfig)`).
    pub fn add_pool(&self, pool_config: Value) -> Result<(), BedrockError> {
        self.call(proto::ADD_POOL, &pool_config)
    }

    /// Removes a pool (`p.removePool("MyPoolX")`).
    pub fn remove_pool(&self, name: &str) -> Result<(), BedrockError> {
        self.call(proto::REMOVE_POOL, &proto::NameArgs { name: name.to_string() })
    }

    /// Adds an execution stream.
    pub fn add_xstream(&self, xstream_config: Value) -> Result<(), BedrockError> {
        self.call(proto::ADD_XSTREAM, &xstream_config)
    }

    /// Removes an execution stream.
    pub fn remove_xstream(&self, name: &str) -> Result<(), BedrockError> {
        self.call(proto::REMOVE_XSTREAM, &proto::NameArgs { name: name.to_string() })
    }

    /// Loads a module (`p.loadModule("B", "libcomponent_b.so")`).
    pub fn load_module(&self, type_name: &str, library: &str) -> Result<(), BedrockError> {
        self.call(
            proto::LOAD_MODULE,
            &proto::LoadModuleArgs {
                type_name: type_name.to_string(),
                library: library.to_string(),
            },
        )
    }

    /// Starts a provider (`p.startProvider("myProviderB", "B", …)`).
    pub fn start_provider(&self, spec: &ProviderSpec) -> Result<(), BedrockError> {
        self.call(proto::START_PROVIDER, spec)
    }

    /// Stops a provider.
    pub fn stop_provider(&self, name: &str) -> Result<(), BedrockError> {
        self.call(proto::STOP_PROVIDER, &proto::NameArgs { name: name.to_string() })
    }

    /// Looks up a provider's routing info.
    pub fn lookup_provider(&self, name: &str) -> Result<proto::ProviderInfo, BedrockError> {
        self.call(proto::LOOKUP_PROVIDER, &proto::NameArgs { name: name.to_string() })
    }

    /// Migrates a provider to another Bedrock process.
    pub fn migrate_provider(
        &self,
        name: &str,
        dest: &Address,
        strategy: Strategy,
    ) -> Result<proto::MigrateReply, BedrockError> {
        self.call(
            proto::MIGRATE_PROVIDER,
            &proto::MigrateArgs {
                name: name.to_string(),
                dest: dest.to_string(),
                strategy,
            },
        )
    }

    /// Checkpoints a provider to a directory on shared storage.
    pub fn checkpoint_provider(&self, name: &str, path: &str) -> Result<(), BedrockError> {
        self.call(
            proto::CHECKPOINT_PROVIDER,
            &proto::CheckpointArgs { name: name.to_string(), path: path.to_string() },
        )
    }

    /// Restores a provider from a checkpoint directory.
    pub fn restore_provider(&self, name: &str, path: &str) -> Result<(), BedrockError> {
        self.call(
            proto::RESTORE_PROVIDER,
            &proto::CheckpointArgs { name: name.to_string(), path: path.to_string() },
        )
    }
}

/// Applies a set of configuration operations across multiple Bedrock
/// processes atomically (all-or-nothing) via two-phase commit. This is
/// the machinery behind the paper's c1/c2 consistency guarantee: "either
/// c1's or c2's request will succeed, but not both".
///
/// The coordinator automatically adds [`TxnOp::KeepProvider`] pins for
/// the dependencies of every `StartProvider` op, so a concurrent
/// transaction stopping a dependency conflicts at prepare time.
pub fn apply_transaction(
    margo: &MargoRuntime,
    bedrock_provider_id: u16,
    ops: Vec<(Address, TxnOp)>,
) -> Result<(), BedrockError> {
    let txn_id = format!("txn-{}", unique_token());

    // Expand dependency pins.
    let mut expanded: Vec<(Address, TxnOp)> = Vec::with_capacity(ops.len());
    for (address, op) in ops {
        if let TxnOp::StartProvider { spec } = &op {
            for dep in spec.dependencies.values() {
                match crate::config::parse_dependency(dep)? {
                    crate::config::DependencyTarget::Local(name) => {
                        expanded.push((address.clone(), TxnOp::KeepProvider { name }));
                    }
                    crate::config::DependencyTarget::Remote { name, address: dep_addr } => {
                        let dep_addr: Address =
                            dep_addr.parse().map_err(|e| BedrockError::BadConfig(format!("{e}")))?;
                        expanded.push((dep_addr, TxnOp::KeepProvider { name }));
                    }
                }
            }
        }
        expanded.push((address, op));
    }

    // Group per process, preserving order.
    let mut order: Vec<Address> = Vec::new();
    let mut grouped: std::collections::HashMap<Address, Vec<TxnOp>> =
        std::collections::HashMap::new();
    for (address, op) in expanded {
        if !grouped.contains_key(&address) {
            order.push(address.clone());
        }
        grouped.entry(address).or_default().push(op);
    }

    // Phase 1: prepare everywhere; abort everything on first failure.
    let mut prepared: Vec<Address> = Vec::new();
    for address in &order {
        let args = proto::TxnPrepareArgs {
            txn_id: txn_id.clone(),
            ops: grouped[address].clone(),
        };
        let result = margo.forward(address, proto::TXN_PREPARE, bedrock_provider_id, &args);
        match result {
            Ok(_) => prepared.push(address.clone()),
            Err(e) => {
                // A participant whose abort fails stays prepared: name it.
                let mut reason = format!("prepare failed: {e}");
                for p in &prepared {
                    let aborted = margo.forward(
                        p,
                        proto::TXN_ABORT,
                        bedrock_provider_id,
                        &proto::TxnIdArgs { txn_id: txn_id.clone() },
                    );
                    if let Err(abort) = aborted {
                        reason.push_str(&format!("; abort at {p} failed: {abort}"));
                    }
                }
                return Err(BedrockError::TxnConflict(reason));
            }
        }
    }

    // Phase 2: commit everywhere. A commit failure here is a partial
    // failure (the classic 2PC limitation); report it.
    let mut commit_errors = Vec::new();
    for address in &order {
        let result = margo.forward(
            address,
            proto::TXN_COMMIT,
            bedrock_provider_id,
            &proto::TxnIdArgs { txn_id: txn_id.clone() },
        );
        if let Err(e) = result {
            commit_errors.push(format!("{address}: {e}"));
        }
    }
    if commit_errors.is_empty() {
        Ok(())
    } else {
        Err(BedrockError::TxnConflict(format!(
            "commit phase partially failed: {commit_errors:?}"
        )))
    }
}
