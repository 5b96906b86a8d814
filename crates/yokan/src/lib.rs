//! `mochi-yokan` — the key-value store component.
//!
//! Yokan is "Mochi's node-based key-value store" (paper §2.3): a provider
//! manages a database resource behind an abstract interface with multiple
//! backends (the original offers RocksDB/LevelDB/BerkeleyDB; we provide an
//! in-memory ordered map and a from-scratch log-structured-merge backend
//! whose on-disk files make REMI migration and checkpointing real), and a
//! client library exposes put/get-style resource handles — the exact
//! component anatomy of Figure 1.
//!
//! Dynamic-service hooks:
//!
//! * the [`bedrock`] module wires Yokan providers into Bedrock
//!   (start/stop/migrate/checkpoint/restore),
//! * [`replication::VirtualDatabase`] implements Observation 10's
//!   *virtual resources*: a [`Database`] that holds no data itself and
//!   forwards to N replica databases. The ordinary [`YokanProvider`]
//!   serves it, so clients cannot tell the difference; Bedrock's
//!   `yokan-virtual` module builds it ([`create_backend`] does not).

pub mod backend;
pub mod bedrock;
pub mod client;
pub mod provider;
pub mod replication;
pub mod rpc_names;
pub mod version;
pub mod views;

pub use backend::{create_backend, BackendConfig, Database, YokanError};
pub use client::DatabaseHandle;
pub use provider::YokanProvider;
pub use replication::VirtualDatabase;
