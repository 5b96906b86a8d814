//! Virtual databases: bottom-up replication (paper §7, Observation 10).
//!
//! "A Yokan 'virtual database' could forward the data it receives to N
//! other actual databases living on other nodes. The client accessing
//! this virtual database does not know that the provider it contacts does
//! not actually hold data itself or that the data is replicated."
//!
//! [`VirtualDatabase`] is a [`Database`] backend whose storage is N real
//! Yokan providers, reached through [`DatabaseHandle`]s. An ordinary
//! [`crate::YokanProvider`] serves it, so any client works against it
//! unchanged — that indistinguishability is the point of the design.
//! Writes go to all replicas (write-all); reads try replicas in order and
//! return the first answer, which keeps reads available while any single
//! replica survives. Each call is one RPC per replica it reaches.

#![deny(clippy::disallowed_methods)]

use std::time::Duration;

use serde::{Deserialize, Serialize};

use mochi_margo::{MargoError, MargoRuntime};
use mochi_mercury::Address;

use crate::backend::{Database, KvPairs, YokanError};
use crate::client::DatabaseHandle;

/// Location of one replica.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaSpec {
    /// Address of the process running the replica provider.
    pub address: String,
    /// Provider id of the replica.
    pub provider_id: u16,
}

/// Configuration of a virtual database (the provider's `config` object).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VirtualConfig {
    /// Backing replicas, in read-preference order.
    pub replicas: Vec<ReplicaSpec>,
}

/// A database that holds no data itself and forwards to its replicas.
pub struct VirtualDatabase {
    replicas: Vec<DatabaseHandle>,
}

fn no_replicas() -> YokanError {
    YokanError::Config("virtual database has no replicas".into())
}

impl VirtualDatabase {
    /// A virtual database over `replicas` (each `(address, provider_id)`
    /// of a real Yokan provider), reached from `margo`. `timeout` bounds
    /// each per-replica RPC so a dead replica fails over quickly on the
    /// read path.
    pub fn new(margo: &MargoRuntime, replicas: Vec<(Address, u16)>, timeout: Duration) -> Self {
        let replicas = replicas
            .into_iter()
            .map(|(address, id)| DatabaseHandle::new(margo, address, id).with_timeout(timeout))
            .collect();
        Self { replicas }
    }

    fn write_all<T>(
        &self,
        op: impl Fn(&DatabaseHandle) -> Result<T, MargoError>,
    ) -> Result<T, YokanError> {
        let mut last = Err(no_replicas());
        for handle in &self.replicas {
            let value = op(handle).map_err(|e| {
                YokanError::Io(format!("replica {} failed: {e}", handle.address()))
            })?;
            last = Ok(value);
        }
        last
    }

    fn read_any<T>(
        &self,
        op: impl Fn(&DatabaseHandle) -> Result<T, MargoError>,
    ) -> Result<T, YokanError> {
        if self.replicas.is_empty() {
            return Err(no_replicas());
        }
        let mut errors = Vec::new();
        for handle in &self.replicas {
            match op(handle) {
                Ok(value) => return Ok(value),
                Err(e) => errors.push(format!("{}: {e}", handle.address())),
            }
        }
        Err(YokanError::Io(format!("all replicas failed: {errors:?}")))
    }
}

/// Overrides every trait default that would turn one provider call into
/// one RPC per key (`load` stays: only a restore calls it, and a virtual
/// database has none).
impl Database for VirtualDatabase {
    fn backend_name(&self) -> &'static str {
        "virtual"
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), YokanError> {
        self.write_all(|h| h.put(key, value))
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, YokanError> {
        self.read_any(|h| h.get(key))
    }

    fn erase(&self, key: &[u8]) -> Result<bool, YokanError> {
        self.write_all(|h| h.erase(key))
    }

    fn erase_multi(&self, keys: &[&[u8]]) -> Result<u64, YokanError> {
        self.write_all(|h| h.erase_multi(keys))
    }

    fn put_if_newer(&self, _key: &[u8], _record: &[u8]) -> Result<(bool, bool), YokanError> {
        Err(YokanError::Config("a virtual database stores no versioned records".into()))
    }

    fn put_multi(&self, pairs: &[(&[u8], &[u8])]) -> Result<(), YokanError> {
        self.write_all(|h| h.put_multi(pairs))
    }

    fn get_multi(&self, keys: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>, YokanError> {
        self.read_any(|h| h.get_multi(keys))
    }

    fn exists(&self, key: &[u8]) -> Result<bool, YokanError> {
        self.read_any(|h| h.exists(key))
    }

    fn list_keys(
        &self,
        prefix: &[u8],
        start_after: Option<&[u8]>,
        max: usize,
    ) -> Result<Vec<Vec<u8>>, YokanError> {
        self.read_any(|h| h.list_keys(prefix, start_after, max))
    }

    fn len(&self) -> Result<u64, YokanError> {
        self.read_any(DatabaseHandle::len)
    }

    fn flush(&self) -> Result<(), YokanError> {
        self.write_all(DatabaseHandle::flush)
    }

    fn clear(&self) -> Result<(), YokanError> {
        self.write_all(DatabaseHandle::clear)
    }

    fn dump(&self) -> Result<KvPairs, YokanError> {
        Err(YokanError::Config("a virtual database has no contents of its own".into()))
    }
}
