//! The Bedrock server: "a component meant to manage other providers
//! running in a Mochi process" (paper §5).
//!
//! It follows the standard component architecture (Figure 1): the server
//! side here manages the process configuration as its resource; the client
//! side ([`crate::client`]) provides remote access. A [`BedrockServer`]:
//!
//! * bootstraps a process from a Listing-3 configuration (Margo section,
//!   libraries, providers) with dependency resolution,
//! * supports online changes: pools, xstreams, module loading, provider
//!   start/stop (Listing 5),
//! * controls migration (Observation 5): quiesce → stop → REMI-transfer →
//!   restart on the destination, with dependency checks,
//! * exposes checkpoint/restore hooks (Observation 9),
//! * participates in two-phase-commit transactions for consistent
//!   cross-process changes ([`crate::txn`]).

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;
use serde_json::{json, Value};

use mochi_margo::{MargoRuntime, MargoError};
use mochi_mercury::{Address, Fabric};
use mochi_remi::{MigrationOptions, RemiClient, RemiProvider, Strategy};
use mochi_util::ordered_lock::{rank, OrderedMutex};

use crate::config::{parse_dependency, DependencyTarget, ProcessConfig, ProviderSpec};
use crate::error::BedrockError;
use crate::jx9;
use crate::module::{Module, ModuleCatalog, ProviderContext, ProviderInstance, ResolvedDependency};
use crate::txn::{TxnOp, TxnTable};

/// Provider id of the REMI provider every Bedrock process registers for
/// migration support (the components' "dependency on a REMI provider").
pub const REMI_PROVIDER_ID: u16 = 65_000;

/// RPC names and argument types of the Bedrock protocol.
pub mod proto {
    use serde::{Deserialize, Serialize};

    use crate::config::ProviderSpec;
    use crate::txn::TxnOp;

    // The RPC-name constants live in `crate::rpc_names` (shared by the
    // server registration sites and the client call sites); re-exported
    // here so `proto::GET_CONFIG`-style paths keep working.
    pub use crate::rpc_names::*;

    /// Arguments of `query`.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct QueryArgs {
        /// Jx9 script; `$__config__` is bound to the process config.
        pub script: String,
    }

    /// Arguments of `load_module`.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct LoadModuleArgs {
        /// Provider type name (the `libraries` key).
        pub type_name: String,
        /// Library path (the `libraries` value).
        pub library: String,
    }

    /// Arguments of `lookup_provider` and `stop_provider`.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct NameArgs {
        /// Provider name.
        pub name: String,
    }

    /// Reply of `lookup_provider`.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct ProviderInfo {
        /// Provider name.
        pub name: String,
        /// Provider type.
        pub type_name: String,
        /// Provider id.
        pub provider_id: u16,
    }

    /// Arguments of `migrate_provider`.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct MigrateArgs {
        /// Provider to migrate away.
        pub name: String,
        /// Destination process address.
        pub dest: String,
        /// Transfer strategy.
        pub strategy: mochi_remi::Strategy,
    }

    /// Reply of `migrate_provider`.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct MigrateReply {
        /// Files moved.
        pub files: u64,
        /// Bytes moved.
        pub bytes: u64,
        /// Seconds the transfer took.
        pub duration_s: f64,
    }

    /// Arguments of `checkpoint_provider` / `restore_provider`.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct CheckpointArgs {
        /// Provider name.
        pub name: String,
        /// Directory on shared storage.
        pub path: String,
    }

    /// Arguments of `add_dependent` / `remove_dependent`.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct DependentArgs {
        /// The local provider being depended upon.
        pub provider: String,
        /// The remote dependent, as `name@address`.
        pub dependent: String,
    }

    /// Arguments of `txn_prepare`.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct TxnPrepareArgs {
        /// Transaction id chosen by the coordinator.
        pub txn_id: String,
        /// Operations addressed to this process.
        pub ops: Vec<TxnOp>,
    }

    /// Arguments of `txn_commit` / `txn_abort`.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct TxnIdArgs {
        /// Transaction id.
        pub txn_id: String,
    }

    /// Arguments of `start_provider`: just the spec.
    pub type StartArgs = ProviderSpec;
}

struct ProviderRecord {
    spec: ProviderSpec,
    pool: String,
    instance: Box<dyn ProviderInstance>,
}

/// Loaded modules: provider type → (library path, factory).
type LoadedModules = BTreeMap<String, (String, Arc<dyn Module>)>;

struct ServerInner {
    margo: MargoRuntime,
    catalog: ModuleCatalog,
    loaded: OrderedMutex<LoadedModules>,
    providers: OrderedMutex<BTreeMap<String, ProviderRecord>>,
    data_dir: PathBuf,
    provider_id: u16,
    pool: String,
    txns: OrderedMutex<TxnTable>,
    // leaf: set once at boot.
    remi: Mutex<Option<Arc<RemiProvider>>>,
    /// Cross-process reverse dependencies: local provider name →
    /// dependents registered from other processes (`name@address`). The
    /// paper: Bedrock "check[s] that the resulting configuration remains
    /// valid … includes carrying these checks across Bedrock processes".
    // leaf: set operations only; never held across a forward.
    remote_dependents: Mutex<BTreeMap<String, std::collections::BTreeSet<String>>>,
}

/// A running Bedrock-managed process.
#[derive(Clone)]
pub struct BedrockServer {
    inner: Arc<ServerInner>,
}

impl BedrockServer {
    /// Boots a full process: Margo from `config.margo`, the Bedrock
    /// provider, the migration (REMI) provider, the configured libraries,
    /// and the configured providers in dependency order.
    ///
    /// `data_dir` plays the node-local storage device; each provider gets
    /// `data_dir/providers/<name>`.
    pub fn bootstrap(
        fabric: &Fabric,
        addr: Address,
        config: &ProcessConfig,
        catalog: ModuleCatalog,
        data_dir: impl Into<PathBuf>,
    ) -> Result<Self, BedrockError> {
        config.validate()?;
        let margo = MargoRuntime::init(fabric, addr, &config.margo)
            .map_err(BedrockError::Margo)?;
        Self::attach(margo, config, catalog, data_dir)
    }

    /// Attaches Bedrock to an existing Margo runtime and applies the
    /// `libraries`/`providers`/`bedrock` sections of `config`.
    pub fn attach(
        margo: MargoRuntime,
        config: &ProcessConfig,
        catalog: ModuleCatalog,
        data_dir: impl Into<PathBuf>,
    ) -> Result<Self, BedrockError> {
        let data_dir = data_dir.into();
        std::fs::create_dir_all(&data_dir)
            .map_err(|e| BedrockError::Provider(format!("creating data dir: {e}")))?;
        let pool = match &config.bedrock.pool {
            Some(pool) => pool.clone(),
            None => margo.default_rpc_pool(),
        };
        let inner = Arc::new(ServerInner {
            margo: margo.clone(),
            catalog,
            loaded: OrderedMutex::new(rank::BEDROCK_LOADED, "bedrock.loaded", BTreeMap::new()),
            providers: OrderedMutex::new(
                rank::BEDROCK_PROVIDERS,
                "bedrock.providers",
                BTreeMap::new(),
            ),
            data_dir: data_dir.clone(),
            provider_id: config.bedrock.provider_id,
            pool: pool.clone(),
            txns: OrderedMutex::new(rank::BEDROCK_TXNS, "bedrock.txns", TxnTable::new()),
            remi: Mutex::new(None),
            remote_dependents: Mutex::new(BTreeMap::new()),
        });
        let server = Self { inner };
        // Migration support: a REMI provider rooted at the data dir.
        let remi = RemiProvider::register(&margo, REMI_PROVIDER_ID, &data_dir, Some(&pool))
            .map_err(BedrockError::Margo)?;
        *server.inner.remi.lock() = Some(remi);
        server.register_rpcs()?;
        for (type_name, library) in &config.libraries {
            server.load_module(type_name, library)?;
        }
        for spec in Self::dependency_order(&config.providers)? {
            server.start_provider(&spec)?;
        }
        Ok(server)
    }

    /// Orders provider specs so local dependencies start first.
    fn dependency_order(specs: &[ProviderSpec]) -> Result<Vec<ProviderSpec>, BedrockError> {
        let mut remaining: Vec<ProviderSpec> = specs.to_vec();
        let mut started: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut ordered = Vec::with_capacity(specs.len());
        while !remaining.is_empty() {
            let ready: Vec<usize> = remaining
                .iter()
                .enumerate()
                .filter(|(_, spec)| {
                    spec.dependencies.values().all(|dep| match parse_dependency(dep) {
                        Ok(DependencyTarget::Local(name)) => started.contains(&name),
                        _ => true, // remote (or invalid — caught later)
                    })
                })
                .map(|(i, _)| i)
                .collect();
            if ready.is_empty() {
                let names: Vec<&str> = remaining.iter().map(|s| s.name.as_str()).collect();
                return Err(BedrockError::BadConfig(format!(
                    "circular or unsatisfiable local dependencies among {names:?}"
                )));
            }
            for index in ready.into_iter().rev() {
                let spec = remaining.remove(index);
                started.insert(spec.name.clone());
                ordered.push(spec);
            }
        }
        Ok(ordered)
    }

    /// The process's Margo runtime.
    pub fn margo(&self) -> &MargoRuntime {
        &self.inner.margo
    }

    /// The process address.
    pub fn address(&self) -> Address {
        self.inner.margo.address()
    }

    /// Bedrock's provider id on this process.
    pub fn provider_id(&self) -> u16 {
        self.inner.provider_id
    }

    /// The node-local data directory.
    pub fn data_dir(&self) -> &std::path::Path {
        &self.inner.data_dir
    }

    // ------------------------------------------------------------------
    // Local API (everything the RPCs call into)
    // ------------------------------------------------------------------

    /// Loads a module ("dlopen" from the catalog) for `type_name`.
    pub fn load_module(&self, type_name: &str, library: &str) -> Result<(), BedrockError> {
        let module = self
            .inner
            .catalog
            .resolve(library)
            .ok_or_else(|| BedrockError::LibraryNotFound(library.to_string()))?;
        self.inner
            .loaded
            .lock()
            .insert(type_name.to_string(), (library.to_string(), module));
        Ok(())
    }

    fn resolve_dependencies(
        &self,
        spec: &ProviderSpec,
    ) -> Result<HashMap<String, ResolvedDependency>, BedrockError> {
        let mut resolved = HashMap::new();
        let self_addr = self.address();
        for (logical, dep) in &spec.dependencies {
            let target = parse_dependency(dep)?;
            let (name, address) = match target {
                DependencyTarget::Local(name) => (name, self_addr.clone()),
                DependencyTarget::Remote { name, address } => {
                    let address: Address = address.parse().map_err(|e| {
                        BedrockError::DependencyError {
                            provider: spec.name.clone(),
                            dependency: dep.clone(),
                            reason: format!("{e}"),
                        }
                    })?;
                    (name, address)
                }
            };
            let info = if address == self_addr {
                let providers = self.inner.providers.lock();
                let record = providers.get(&name).ok_or_else(|| BedrockError::DependencyError {
                    provider: spec.name.clone(),
                    dependency: dep.clone(),
                    reason: "no such local provider".into(),
                })?;
                proto::ProviderInfo {
                    name: name.clone(),
                    type_name: record.spec.type_name.clone(),
                    provider_id: record.spec.provider_id,
                }
            } else {
                self.inner
                    .margo
                    .forward::<_, proto::ProviderInfo>(
                        &address,
                        proto::LOOKUP_PROVIDER,
                        self.inner.provider_id,
                        &proto::NameArgs { name: name.clone() },
                    )
                    .map_err(|e| BedrockError::DependencyError {
                        provider: spec.name.clone(),
                        dependency: dep.clone(),
                        reason: e.to_string(),
                    })?
            };
            // Record the reverse edge on the dependency's process, so a
            // later stop of the dependency sees this dependent.
            let dependent_tag = format!("{}@{}", spec.name, self_addr);
            if address == self_addr {
                self.inner
                    .remote_dependents
                    .lock()
                    .entry(info.name.clone())
                    .or_default()
                    .insert(dependent_tag);
            } else {
                let _: Result<bool, _> = self.inner.margo.forward(
                    &address,
                    proto::ADD_DEPENDENT,
                    self.inner.provider_id,
                    &proto::DependentArgs {
                        provider: info.name.clone(),
                        dependent: dependent_tag,
                    },
                );
            }
            resolved.insert(
                logical.clone(),
                ResolvedDependency {
                    spec: dep.clone(),
                    name: info.name,
                    address,
                    provider_id: info.provider_id,
                    type_name: info.type_name,
                },
            );
        }
        Ok(resolved)
    }

    /// Drops the reverse edges this provider registered on its
    /// dependencies' processes (best-effort: the dependency process may
    /// already be gone).
    fn deregister_dependents(&self, spec: &ProviderSpec) {
        let self_addr = self.address();
        let dependent_tag = format!("{}@{}", spec.name, self_addr);
        for dep in spec.dependencies.values() {
            let Ok(target) = parse_dependency(dep) else { continue };
            let (name, address) = match target {
                DependencyTarget::Local(name) => (name, self_addr.clone()),
                DependencyTarget::Remote { name, address } => {
                    match address.parse() {
                        Ok(addr) => (name, addr),
                        Err(_) => continue,
                    }
                }
            };
            if address == self_addr {
                let mut map = self.inner.remote_dependents.lock();
                if let Some(set) = map.get_mut(&name) {
                    set.remove(&dependent_tag);
                    if set.is_empty() {
                        map.remove(&name);
                    }
                }
            } else {
                let _: Result<bool, _> = self.inner.margo.forward(
                    &address,
                    proto::REMOVE_DEPENDENT,
                    self.inner.provider_id,
                    &proto::DependentArgs { provider: name, dependent: dependent_tag.clone() },
                );
            }
        }
    }

    fn registered_dependents(&self, name: &str) -> Vec<String> {
        self.inner
            .remote_dependents
            .lock()
            .get(name)
            .map(|set| set.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Starts a provider from its spec (Listing 5's `startProvider`).
    pub fn start_provider(&self, spec: &ProviderSpec) -> Result<(), BedrockError> {
        // Preconditions that don't need the instance yet.
        {
            let providers = self.inner.providers.lock();
            if providers.contains_key(&spec.name) {
                return Err(BedrockError::ProviderExists(spec.name.clone()));
            }
            if providers.values().any(|r| r.spec.provider_id == spec.provider_id)
                || spec.provider_id == self.inner.provider_id
                || spec.provider_id == REMI_PROVIDER_ID
            {
                return Err(BedrockError::BadConfig(format!(
                    "provider id {} already in use",
                    spec.provider_id
                )));
            }
            if self.inner.txns.lock().blocks_start(&spec.name) {
                return Err(BedrockError::TxnConflict(format!(
                    "provider '{}' is locked by a prepared transaction",
                    spec.name
                )));
            }
        }
        let module = {
            let loaded = self.inner.loaded.lock();
            loaded
                .get(&spec.type_name)
                .map(|(_, m)| Arc::clone(m))
                .ok_or_else(|| BedrockError::ModuleNotLoaded(spec.type_name.clone()))?
        };
        let pool = match &spec.pool {
            Some(pool) => {
                if self.inner.margo.find_pool_by_name(pool).is_none() {
                    return Err(BedrockError::BadConfig(format!("pool '{pool}' not found")));
                }
                pool.clone()
            }
            None => self.inner.margo.default_rpc_pool(),
        };
        let dependencies = self.resolve_dependencies(spec)?;
        let data_dir = self.inner.data_dir.join("providers").join(&spec.name);
        std::fs::create_dir_all(&data_dir)
            .map_err(|e| BedrockError::Provider(format!("creating provider dir: {e}")))?;
        let instance = module
            .create(ProviderContext {
                margo: self.inner.margo.clone(),
                name: spec.name.clone(),
                provider_id: spec.provider_id,
                pool: pool.clone(),
                config: spec.config.clone(),
                dependencies,
                data_dir,
            })
            .map_err(BedrockError::Provider)?;
        let mut providers = self.inner.providers.lock();
        if providers.contains_key(&spec.name) {
            // Lost a race; roll back the instance we just created.
            drop(providers);
            let _ = instance.stop();
            return Err(BedrockError::ProviderExists(spec.name.clone()));
        }
        providers.insert(spec.name.clone(), ProviderRecord { spec: spec.clone(), pool, instance });
        Ok(())
    }

    fn local_dependents(&self, name: &str) -> Vec<String> {
        let self_addr = self.address().to_string();
        self.inner
            .providers
            .lock()
            .values()
            .filter(|record| {
                record.spec.dependencies.values().any(|dep| match parse_dependency(dep) {
                    Ok(DependencyTarget::Local(n)) => n == name,
                    Ok(DependencyTarget::Remote { name: n, address }) => {
                        n == name && address == self_addr
                    }
                    Err(_) => false,
                })
            })
            .map(|record| record.spec.name.clone())
            .collect()
    }

    /// Stops and removes a provider (Listing 5's `stopProvider` mirror).
    pub fn stop_provider(&self, name: &str) -> Result<(), BedrockError> {
        if self.inner.txns.lock().blocks_stop(name) {
            return Err(BedrockError::TxnConflict(format!(
                "provider '{name}' is locked by a prepared transaction"
            )));
        }
        let mut dependents = self.local_dependents(name);
        dependents.extend(self.registered_dependents(name));
        dependents.sort();
        dependents.dedup();
        if !dependents.is_empty() {
            return Err(BedrockError::ProviderInUse { provider: name.to_string(), dependents });
        }
        let record = {
            let mut providers = self.inner.providers.lock();
            providers
                .remove(name)
                .ok_or_else(|| BedrockError::ProviderNotFound(name.to_string()))?
        };
        self.deregister_dependents(&record.spec);
        record.instance.stop().map_err(BedrockError::Provider)
    }

    /// Looks up a provider's routing info.
    pub fn lookup_provider(&self, name: &str) -> Result<proto::ProviderInfo, BedrockError> {
        let providers = self.inner.providers.lock();
        let record = providers
            .get(name)
            .ok_or_else(|| BedrockError::ProviderNotFound(name.to_string()))?;
        Ok(proto::ProviderInfo {
            name: name.to_string(),
            type_name: record.spec.type_name.clone(),
            provider_id: record.spec.provider_id,
        })
    }

    /// Names of currently running providers.
    pub fn provider_names(&self) -> Vec<String> {
        self.inner.providers.lock().keys().cloned().collect()
    }

    /// Migrates provider `name` to the Bedrock process at `dest`
    /// (Observation 5): quiesce, stop locally, transfer the fileset with
    /// REMI, restart on the destination with the same spec.
    pub fn migrate_provider(
        &self,
        name: &str,
        dest: &Address,
        strategy: Strategy,
    ) -> Result<proto::MigrateReply, BedrockError> {
        if *dest == self.address() {
            return Err(BedrockError::BadConfig("cannot migrate a provider to itself".into()));
        }
        if self.inner.txns.lock().blocks_stop(name) {
            return Err(BedrockError::TxnConflict(format!(
                "provider '{name}' is locked by a prepared transaction"
            )));
        }
        let mut dependents = self.local_dependents(name);
        dependents.extend(self.registered_dependents(name));
        if !dependents.is_empty() {
            return Err(BedrockError::ProviderInUse { provider: name.to_string(), dependents });
        }
        // Quiesce and detach.
        let record = {
            let mut providers = self.inner.providers.lock();
            providers
                .remove(name)
                .ok_or_else(|| BedrockError::ProviderNotFound(name.to_string()))?
        };
        record.instance.prepare_migration().map_err(BedrockError::Provider)?;
        let fileset = match record.instance.fileset() {
            Some(fileset) => fileset,
            None => {
                // Roll back: the provider stays where it was.
                self.inner.providers.lock().insert(name.to_string(), record);
                return Err(BedrockError::Provider(format!(
                    "provider '{name}' does not support migration"
                )));
            }
        };
        record.instance.stop().map_err(BedrockError::Provider)?;
        self.deregister_dependents(&record.spec);
        // Transfer the files into the destination's provider directory.
        let remi = RemiClient::new(&self.inner.margo);
        let options = MigrationOptions {
            dest_subdir: Some(format!("providers/{name}")),
            remove_source: true,
            timeout: self.inner.margo.rpc_timeout(),
        };
        let report = remi
            .migrate(dest, REMI_PROVIDER_ID, &fileset, strategy, &options)
            .map_err(BedrockError::Margo)?;
        // Restart remotely with the same spec. A spec pool that does not
        // exist on the destination falls back to its default pool.
        let mut spec = record.spec.clone();
        spec.pool = None;
        let _: bool = self
            .inner
            .margo
            .forward(dest, proto::START_PROVIDER, self.inner.provider_id, &spec)
            .map_err(BedrockError::Margo)?;
        Ok(proto::MigrateReply {
            files: report.files,
            bytes: report.bytes,
            duration_s: report.duration_s,
        })
    }

    /// Checkpoints provider `name` into `dir` (Observation 9; `dir` plays
    /// the parallel file system).
    pub fn checkpoint_provider(&self, name: &str, dir: &str) -> Result<(), BedrockError> {
        let providers = self.inner.providers.lock();
        let record = providers
            .get(name)
            .ok_or_else(|| BedrockError::ProviderNotFound(name.to_string()))?;
        record.instance.checkpoint(std::path::Path::new(dir)).map_err(BedrockError::Provider)
    }

    /// Restores provider `name` from the checkpoint in `dir`.
    pub fn restore_provider(&self, name: &str, dir: &str) -> Result<(), BedrockError> {
        let providers = self.inner.providers.lock();
        let record = providers
            .get(name)
            .ok_or_else(|| BedrockError::ProviderNotFound(name.to_string()))?;
        record.instance.restore(std::path::Path::new(dir)).map_err(BedrockError::Provider)
    }

    /// The process configuration as JSON — the `$__config__` documents of
    /// Listing 4 and the payload of `getConfig`.
    pub fn get_config(&self) -> Value {
        let loaded = self.inner.loaded.lock();
        let libraries: serde_json::Map<String, Value> =
            loaded.iter().map(|(t, (lib, _))| (t.clone(), json!(lib))).collect();
        let providers: Vec<Value> = self
            .inner
            .providers
            .lock()
            .values()
            .map(|record| {
                #[expect(
                    clippy::expect_used,
                    reason = "serializing an in-memory config value is infallible"
                )]
                let mut spec =
                    serde_json::to_value(&record.spec).expect("spec serializes");
                spec["pool"] = json!(record.pool);
                spec["state"] = record.instance.config();
                spec
            })
            .collect();
        json!({
            "margo": self.inner.margo.config_json(),
            "libraries": libraries,
            "providers": providers,
            "bedrock": {
                "provider_id": self.inner.provider_id,
                "pool": self.inner.pool,
            },
        })
    }

    /// Evaluates a Jx9 query against the live configuration (Listing 4).
    pub fn query(&self, script: &str) -> Result<Value, BedrockError> {
        jx9::eval(script, &self.get_config()).map_err(|e| BedrockError::BadConfig(e.to_string()))
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    fn txn_prepare(&self, txn_id: &str, ops: Vec<TxnOp>) -> Result<(), BedrockError> {
        // Validate preconditions before locking.
        for op in &ops {
            match op {
                TxnOp::StartProvider { spec } => {
                    if self.inner.providers.lock().contains_key(&spec.name) {
                        return Err(BedrockError::ProviderExists(spec.name.clone()));
                    }
                    if !self.inner.loaded.lock().contains_key(&spec.type_name) {
                        return Err(BedrockError::ModuleNotLoaded(spec.type_name.clone()));
                    }
                }
                TxnOp::StopProvider { name } => {
                    if !self.inner.providers.lock().contains_key(name) {
                        return Err(BedrockError::ProviderNotFound(name.clone()));
                    }
                    let mut dependents = self.local_dependents(name);
                    dependents.extend(self.registered_dependents(name));
                    if !dependents.is_empty() {
                        return Err(BedrockError::ProviderInUse {
                            provider: name.clone(),
                            dependents,
                        });
                    }
                }
                TxnOp::KeepProvider { name } => {
                    if !self.inner.providers.lock().contains_key(name) {
                        return Err(BedrockError::ProviderNotFound(name.clone()));
                    }
                }
            }
        }
        self.inner.txns.lock().prepare(txn_id, ops)
    }

    fn txn_commit(&self, txn_id: &str) -> Result<(), BedrockError> {
        let ops = self.inner.txns.lock().take_prepared(txn_id)?;
        for op in ops {
            match op {
                TxnOp::StartProvider { spec } => self.start_provider(&spec)?,
                TxnOp::StopProvider { name } => self.stop_provider(&name)?,
                TxnOp::KeepProvider { .. } => {}
            }
        }
        Ok(())
    }

    fn txn_abort(&self, txn_id: &str) -> Result<(), BedrockError> {
        self.inner.txns.lock().take_prepared(txn_id).map(|_| ())
    }

    // ------------------------------------------------------------------
    // RPC surface
    // ------------------------------------------------------------------

    fn register_rpcs(&self) -> Result<(), BedrockError> {
        let margo = self.inner.margo.clone();
        let id = self.inner.provider_id;
        let pool = self.inner.pool.clone();
        let reg = |name: &str,
                   handler: Box<dyn Fn(Value) -> Result<Value, String> + Send + Sync>|
         -> Result<(), MargoError> {
            margo
                .register_typed(name, id, Some(&pool), move |args: Value, _| handler(args))
                .map(|_| ())
        };

        macro_rules! handler {
            ($rpc:expr, $args:ty, |$server:ident, $a:ident| $body:expr) => {{
                let $server = self.clone();
                reg(
                    $rpc,
                    Box::new(move |value: Value| {
                        let $a: $args = serde_json::from_value(value)
                            .map_err(|e| format!("bad arguments: {e}"))?;
                        $body
                    }),
                )
                .map_err(BedrockError::Margo)?;
            }};
        }

        handler!(proto::GET_CONFIG, (), |server, _a| Ok(server.get_config()));
        handler!(proto::QUERY, proto::QueryArgs, |server, a| {
            server.query(&a.script).map_err(|e| e.to_rpc_string())
        });
        handler!(proto::ADD_POOL, Value, |server, a| {
            let json = serde_json::to_string(&a).map_err(|e| e.to_string())?;
            server
                .inner
                .margo
                .add_pool_from_json(&json)
                .map(|_| json!(true))
                .map_err(|e| e.to_string())
        });
        handler!(proto::REMOVE_POOL, proto::NameArgs, |server, a| {
            server.inner.margo.remove_pool(&a.name).map(|_| json!(true)).map_err(|e| e.to_string())
        });
        handler!(proto::ADD_XSTREAM, Value, |server, a| {
            let json = serde_json::to_string(&a).map_err(|e| e.to_string())?;
            server
                .inner
                .margo
                .add_xstream_from_json(&json)
                .map(|_| json!(true))
                .map_err(|e| e.to_string())
        });
        handler!(proto::REMOVE_XSTREAM, proto::NameArgs, |server, a| {
            server
                .inner
                .margo
                .remove_xstream(&a.name)
                .map(|_| json!(true))
                .map_err(|e| e.to_string())
        });
        handler!(proto::LOAD_MODULE, proto::LoadModuleArgs, |server, a| {
            server
                .load_module(&a.type_name, &a.library)
                .map(|_| json!(true))
                .map_err(|e| e.to_rpc_string())
        });
        handler!(proto::START_PROVIDER, ProviderSpec, |server, a| {
            server.start_provider(&a).map(|_| json!(true)).map_err(|e| e.to_rpc_string())
        });
        handler!(proto::STOP_PROVIDER, proto::NameArgs, |server, a| {
            server.stop_provider(&a.name).map(|_| json!(true)).map_err(|e| e.to_rpc_string())
        });
        handler!(proto::LOOKUP_PROVIDER, proto::NameArgs, |server, a| {
            server
                .lookup_provider(&a.name)
                .map_err(|e| e.to_rpc_string())
                .and_then(|info| serde_json::to_value(info).map_err(|e| e.to_string()))
        });
        handler!(proto::MIGRATE_PROVIDER, proto::MigrateArgs, |server, a| {
            let dest: Address = a.dest.parse().map_err(|e| format!("{e}"))?;
            server
                .migrate_provider(&a.name, &dest, a.strategy)
                .map_err(|e| e.to_rpc_string())
                .and_then(|reply| serde_json::to_value(reply).map_err(|e| e.to_string()))
        });
        handler!(proto::CHECKPOINT_PROVIDER, proto::CheckpointArgs, |server, a| {
            server
                .checkpoint_provider(&a.name, &a.path)
                .map(|_| json!(true))
                .map_err(|e| e.to_rpc_string())
        });
        handler!(proto::RESTORE_PROVIDER, proto::CheckpointArgs, |server, a| {
            server
                .restore_provider(&a.name, &a.path)
                .map(|_| json!(true))
                .map_err(|e| e.to_rpc_string())
        });
        handler!(proto::ADD_DEPENDENT, proto::DependentArgs, |server, a| {
            if !server.inner.providers.lock().contains_key(&a.provider) {
                return Err(BedrockError::ProviderNotFound(a.provider).to_rpc_string());
            }
            server
                .inner
                .remote_dependents
                .lock()
                .entry(a.provider)
                .or_default()
                .insert(a.dependent);
            Ok(json!(true))
        });
        handler!(proto::REMOVE_DEPENDENT, proto::DependentArgs, |server, a| {
            let mut map = server.inner.remote_dependents.lock();
            if let Some(set) = map.get_mut(&a.provider) {
                set.remove(&a.dependent);
                if set.is_empty() {
                    map.remove(&a.provider);
                }
            }
            Ok(json!(true))
        });
        handler!(proto::TXN_PREPARE, proto::TxnPrepareArgs, |server, a| {
            server.txn_prepare(&a.txn_id, a.ops).map(|_| json!(true)).map_err(|e| e.to_rpc_string())
        });
        handler!(proto::TXN_COMMIT, proto::TxnIdArgs, |server, a| {
            server.txn_commit(&a.txn_id).map(|_| json!(true)).map_err(|e| e.to_rpc_string())
        });
        handler!(proto::TXN_ABORT, proto::TxnIdArgs, |server, a| {
            server.txn_abort(&a.txn_id).map(|_| json!(true)).map_err(|e| e.to_rpc_string())
        });
        Ok(())
    }

    /// Stops all providers and finalizes the Margo runtime.
    pub fn shutdown(&self) {
        let records: Vec<String> = self.provider_names();
        for name in records.iter().rev() {
            // Dependents were created after their dependencies; stopping
            // in reverse order is usually dependency-safe, but tolerate
            // failures (e.g. arbitrary graphs) by just dropping.
            let record = self.inner.providers.lock().remove(name);
            if let Some(record) = record {
                let _ = record.instance.stop();
            }
        }
        self.inner.margo.finalize();
    }
}

impl std::fmt::Debug for BedrockServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BedrockServer")
            .field("address", &self.inner.margo.address())
            .field("providers", &self.provider_names())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A planted inversion between two of the server's locks: every path
    /// that nests them takes `providers` before `txns`, so the reverse
    /// order must panic in a debug build, naming both locks.
    #[cfg(debug_assertions)]
    #[test]
    fn planted_inversion_txns_then_providers_panics() {
        let dir = mochi_util::TempDir::new("bedrock-rank").unwrap();
        let config = ProcessConfig::from_json(r#"{ "margo": { } }"#).unwrap();
        let server = BedrockServer::bootstrap(
            &Fabric::new(),
            Address::tcp("rank", 1),
            &config,
            ModuleCatalog::new(),
            dir.path(),
        )
        .unwrap();
        let txns = server.inner.txns.lock();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drop(server.inner.providers.lock());
        }))
        .expect_err("taking providers under txns must panic");
        drop(txns);
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("bedrock.providers") && msg.contains("bedrock.txns"),
            "{msg}"
        );
        server.shutdown();
    }
}
