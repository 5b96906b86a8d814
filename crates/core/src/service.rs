//! The dynamic service: a group of Bedrock processes tracked by SSG and
//! rescaled with Pufferscale + REMI (paper §6).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use mochi_bedrock::{BedrockServer, ProcessConfig, ProviderSpec};
use mochi_mercury::Address;
use mochi_pufferscale::{plan_rebalance, Placement, RebalancePlan, Resource, Weights};
use mochi_remi::Strategy;
use mochi_ssg::{GroupView, SsgGroup, SwimConfig};
use mochi_util::ordered_lock::{rank, OrderedMutex};

use crate::cluster::{Cluster, ClusterError};

/// Provider id every service member uses for its SSG group.
pub const SSG_PROVIDER_ID: u16 = 64_000;

/// How a service is deployed.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Template for each process: libraries to load; providers listed
    /// here are instantiated on *every* initial member (per-node
    /// providers come from the `provider_namer` closure passed to
    /// [`DynamicService::deploy`]).
    pub process: ProcessConfig,
    /// SWIM tuning.
    pub swim: SwimConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let mut process = ProcessConfig::default();
        process.libraries.insert("yokan".into(), mochi_yokan::bedrock::LIBRARY.into());
        process.libraries.insert("warabi".into(), mochi_warabi::bedrock::LIBRARY.into());
        // Service-level SWIM: a bit more patient than the raw test
        // config, since members also serve data RPCs on the same pools
        // and transient handler delays must not read as deaths.
        let swim = SwimConfig {
            period_ms: 20,
            ping_timeout_ms: 10,
            suspicion_periods: 5,
            ..SwimConfig::default()
        };
        Self { process, swim }
    }
}

/// Errors raised by service operations.
#[derive(Debug)]
pub enum ServiceError {
    /// Cluster-level failure.
    Cluster(ClusterError),
    /// Bedrock-level failure.
    Bedrock(mochi_bedrock::BedrockError),
    /// Margo-level failure.
    Margo(mochi_margo::MargoError),
    /// The address is not a member.
    NotAMember(Address),
    /// The service would become empty.
    LastNode,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Cluster(e) => write!(f, "cluster: {e}"),
            ServiceError::Bedrock(e) => write!(f, "bedrock: {e}"),
            ServiceError::Margo(e) => write!(f, "margo: {e}"),
            ServiceError::NotAMember(a) => write!(f, "{a} is not a service member"),
            ServiceError::LastNode => write!(f, "cannot remove the last node"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ClusterError> for ServiceError {
    fn from(e: ClusterError) -> Self {
        ServiceError::Cluster(e)
    }
}
impl From<mochi_bedrock::BedrockError> for ServiceError {
    fn from(e: mochi_bedrock::BedrockError) -> Self {
        ServiceError::Bedrock(e)
    }
}
impl From<mochi_margo::MargoError> for ServiceError {
    fn from(e: mochi_margo::MargoError) -> Self {
        ServiceError::Margo(e)
    }
}

pub(crate) struct MemberRecord {
    pub server: BedrockServer,
    pub group: Arc<SsgGroup>,
    pub node: String,
    /// The process config this member was booted with (used by the
    /// resilience manager to rebuild it elsewhere).
    pub config: ProcessConfig,
}

/// The member records plus a count of the changes made to the set, so
/// that a cached provider location can tell it may be stale. Reads go
/// through `Deref`; the only ways to change the set bump the count.
#[derive(Default)]
pub(crate) struct Members {
    records: BTreeMap<Address, MemberRecord>,
    changes: u64,
}

impl std::ops::Deref for Members {
    type Target = BTreeMap<Address, MemberRecord>;
    fn deref(&self) -> &Self::Target {
        &self.records
    }
}

impl Members {
    pub(crate) fn insert(&mut self, addr: Address, record: MemberRecord) {
        self.changes += 1;
        self.records.insert(addr, record);
    }

    pub(crate) fn remove(&mut self, addr: &Address) -> Option<MemberRecord> {
        self.changes += 1;
        self.records.remove(addr)
    }
}

/// A running dynamic service.
pub struct DynamicService {
    cluster: Arc<Cluster>,
    config: ServiceConfig,
    pub(crate) members: OrderedMutex<Members>,
}

impl DynamicService {
    /// Deploys the service on `n` freshly allocated nodes. Each process
    /// boots from `config.process`; member `i` additionally instantiates
    /// the providers produced by `provider_namer(i)` (so each node can
    /// host distinctly named providers).
    pub fn deploy(
        cluster: &Arc<Cluster>,
        config: ServiceConfig,
        n: usize,
        provider_namer: impl Fn(usize) -> Vec<ProviderSpec>,
    ) -> Result<Arc<Self>, ServiceError> {
        let mut servers: Vec<(String, ProcessConfig, BedrockServer)> = Vec::with_capacity(n);
        for i in 0..n {
            let node = cluster.allocate_node()?;
            let mut process = config.process.clone();
            process.providers.extend(provider_namer(i));
            let server = cluster.spawn(&node, &process)?;
            servers.push((node, process, server));
        }
        let addresses: Vec<Address> =
            servers.iter().map(|(_, _, s)| s.address()).collect();
        let mut members = Members::default();
        for (node, process, server) in servers {
            let group = SsgGroup::create(
                server.margo(),
                SSG_PROVIDER_ID,
                config.swim,
                &addresses,
            )?;
            members.insert(
                server.address(),
                MemberRecord { server, group, node, config: process },
            );
        }
        let members = OrderedMutex::new(rank::SERVICE_MEMBERS, "service.members", members);
        Ok(Arc::new(Self {
            cluster: Arc::clone(cluster),
            config,
            members,
        }))
    }

    /// The cluster this service runs on.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Current member addresses (the service's own bookkeeping — the
    /// SSG view is the protocol-level equivalent).
    pub fn addresses(&self) -> Vec<Address> {
        self.members.lock().keys().cloned().collect()
    }

    /// The Bedrock server of a member.
    pub fn server(&self, addr: &Address) -> Option<BedrockServer> {
        self.members.lock().get(addr).map(|m| m.server.clone())
    }

    /// The SSG group handle of a member (for callbacks and views).
    pub fn group(&self, addr: &Address) -> Option<Arc<SsgGroup>> {
        self.members.lock().get(addr).map(|m| Arc::clone(&m.group))
    }

    /// A membership view from any live member.
    pub fn view(&self) -> Option<GroupView> {
        self.members.lock().values().next().map(|m| m.group.view())
    }

    /// What a provider location was resolved against: the number of
    /// changes to the member set and the epoch of the view [`Self::view`]
    /// returns. While it stands still, resolving again gives the same
    /// answer, unless a provider moved between two unchanged members.
    pub fn membership_stamp(&self) -> Option<(u64, u64)> {
        let members = self.members.lock();
        members.values().next().map(|m| (members.changes, m.group.view_epoch()))
    }

    /// Scales out by one node: allocate, boot the library-only template
    /// (no providers — data arrives via rebalancing), join the group.
    pub fn add_node(&self) -> Result<Address, ServiceError> {
        let node = self.cluster.allocate_node()?;
        let mut process = self.config.process.clone();
        process.providers.clear();
        let server = self.cluster.spawn(&node, &process)?;
        let seed = self
            .addresses()
            .first()
            .cloned()
            .ok_or(ServiceError::LastNode)?;
        let group = SsgGroup::join(server.margo(), SSG_PROVIDER_ID, self.config.swim, &seed)?;
        let addr = server.address();
        self.members.lock().insert(
            addr.clone(),
            MemberRecord { server, group, node, config: process },
        );
        Ok(addr)
    }

    /// Scales in: migrates all providers off `addr` (per a Pufferscale
    /// plan restricted to forced moves), leaves the group, stops the
    /// process, and returns the node to the pool.
    pub fn remove_node(
        &self,
        addr: &Address,
        strategy: Strategy,
        weights: &Weights,
    ) -> Result<RebalancePlan, ServiceError> {
        {
            let members = self.members.lock();
            if !members.contains_key(addr) {
                return Err(ServiceError::NotAMember(addr.clone()));
            }
            if members.len() == 1 {
                return Err(ServiceError::LastNode);
            }
        }
        let placement = self.placement();
        let survivors: Vec<String> = self
            .addresses()
            .into_iter()
            .filter(|a| a != addr)
            .map(|a| a.to_string())
            .collect();
        let plan = plan_rebalance(&placement, &survivors, weights);
        self.execute_plan(&plan, strategy)?;
        // Graceful departure.
        let record = self
            .members
            .lock()
            .remove(addr)
            .ok_or_else(|| ServiceError::NotAMember(addr.clone()))?;
        record.group.leave();
        self.cluster.stop(addr)?;
        self.cluster.release_node(&record.node);
        Ok(plan)
    }

    /// Builds the current provider placement: one Pufferscale resource
    /// per provider, sized by its reported state (`keys`/`blobs` count if
    /// the component exposes one, else 1) — enough signal for balancing
    /// without coupling the planner to component internals.
    pub fn placement(&self) -> Placement {
        let members = self.members.lock();
        let mut placement =
            Placement::empty(&members.keys().map(|a| a.to_string()).collect::<Vec<_>>());
        for (addr, record) in members.iter() {
            let Some(node) = placement.nodes.get_mut(&addr.to_string()) else { continue };
            let config = record.server.get_config();
            if let Some(providers) = config["providers"].as_array() {
                for provider in providers {
                    let name = provider["name"].as_str().unwrap_or_default().to_string();
                    if name.is_empty() {
                        continue;
                    }
                    let weight = provider["state"]["keys"]
                        .as_u64()
                        .or_else(|| provider["state"]["blobs"].as_u64())
                        .unwrap_or(0)
                        .max(1);
                    node.push(Resource { id: name, load: weight as f64, size: weight });
                }
            }
        }
        placement
    }

    /// Rebalances providers across the current members under `weights`.
    pub fn rebalance(
        &self,
        strategy: Strategy,
        weights: &Weights,
    ) -> Result<RebalancePlan, ServiceError> {
        let placement = self.placement();
        let targets: Vec<String> =
            self.addresses().iter().map(|a| a.to_string()).collect();
        let plan = plan_rebalance(&placement, &targets, weights);
        self.execute_plan(&plan, strategy)?;
        Ok(plan)
    }

    fn execute_plan(
        &self,
        plan: &RebalancePlan,
        strategy: Strategy,
    ) -> Result<(), ServiceError> {
        for step in &plan.moves {
            let from: Address = step
                .from
                .parse()
                .map_err(|e: mochi_mercury::MercuryError| ServiceError::Margo(e.into()))?;
            let to: Address = step
                .to
                .parse()
                .map_err(|e: mochi_mercury::MercuryError| ServiceError::Margo(e.into()))?;
            let server = self
                .server(&from)
                .ok_or_else(|| ServiceError::NotAMember(from.clone()))?;
            server
                .migrate_provider(&step.resource, &to, strategy)
                .map_err(ServiceError::Bedrock)?;
        }
        Ok(())
    }

    /// Stops every member (teardown).
    pub fn shutdown(&self) {
        let members = std::mem::take(&mut *self.members.lock());
        for (addr, record) in members.records {
            record.group.stop();
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a member whose process is already gone (NoSuchProcess) is what teardown wants"
            )]
            let _ = self.cluster.stop(&addr);
            self.cluster.release_node(&record.node);
        }
    }
}
