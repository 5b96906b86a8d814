//! `mochi-core` — the dynamic data service methodology, assembled.
//!
//! Everything below composes the components of this workspace into the
//! four capabilities the paper demands of dynamic services (§2.3), with
//! the dependency order the paper observes — each builds on the previous:
//!
//! 1. **performance introspection** — Margo monitoring, which supplies
//!    the data for reconfiguration decisions: the per-RPC statistics of
//!    each process's dump and Bedrock's configuration queries;
//! 2. **online reconfiguration** — Bedrock processes managed by a
//!    [`cluster::Cluster`] (the simulated machine + a Flux-like resource
//!    manager granting and revoking nodes);
//! 3. **elasticity** — [`service::DynamicService`] grows/shrinks its node
//!    set, rebalancing provider placement with Pufferscale plans executed
//!    through REMI migrations;
//! 4. **resilience** — [`resilience::ResilienceManager`] subscribes to
//!    SSG/SWIM failure notifications and restores dead processes from
//!    checkpoints on freshly allocated nodes (the top-down loop of §7).
//!
//! [`workflow::sharded`] provides the HEPnOS/NOvA-inspired synthetic
//! workload whose phases have contrasting I/O patterns — the motivation
//! for dynamic reconfiguration in the paper's introduction and the
//! workload of experiment E11.

//! [`ring`] + [`routed`] extend capability 3 horizontally: one logical
//! keyspace consistent-hash-routed across N Yokan providers, with
//! concurrent scatter-gather multi-ops and zero-loss live rebalance
//! (experiment A9).

pub mod cluster;
pub mod failover;
pub mod resilience;
pub mod ring;
pub mod routed;
pub mod service;
pub mod workflow;

pub use cluster::{default_catalog, Cluster, ClusterError};
pub use failover::FailoverKv;
pub use resilience::{ResilienceConfig, ResilienceManager};
pub use ring::{HashRing, MovedArc};
pub use routed::{RebalanceReport, RoutedConfig, RoutedKv};
pub use service::{DynamicService, ServiceConfig};
