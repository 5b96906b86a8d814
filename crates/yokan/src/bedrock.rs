//! Bedrock modules for Yokan: plain databases and virtual (replicated)
//! databases.
//!
//! This is the file that makes Yokan a *dynamic* component with the
//! "least engineering impact" the paper asks for: the provider itself is
//! unchanged; migration, checkpoint, and restore are implemented here in
//! the module glue, using the backend's flush/dump/load primitives.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use serde_json::{json, Value};

use mochi_bedrock::{Module, ProviderContext, ProviderInstance};
use mochi_mercury::Address;
use mochi_remi::FileSet;

use crate::backend::{
    create_backend, lsm, open_lsm, read_dump, write_dump, BackendConfig, Database,
};
use crate::provider::YokanProvider;
use crate::replication::{VirtualConfig, VirtualDatabase};

/// Library path Yokan conventionally installs under.
pub const LIBRARY: &str = "libyokan.so";
/// Library path of the virtual-database module.
pub const VIRTUAL_LIBRARY: &str = "libyokan-virtual.so";

/// Returns the Yokan Bedrock module (install under [`LIBRARY`]).
pub fn bedrock_module() -> Arc<dyn Module> {
    Arc::new(YokanModule)
}

/// Returns the virtual-database Bedrock module (install under
/// [`VIRTUAL_LIBRARY`]).
pub fn virtual_bedrock_module() -> Arc<dyn Module> {
    Arc::new(VirtualModule)
}

struct YokanModule;

struct YokanInstance {
    provider: Arc<YokanProvider>,
    db: Arc<dyn Database>,
    /// The same database when it is an LSM, for its statistics.
    lsm: Option<Arc<lsm::LsmDatabase>>,
    config: BackendConfig,
    data_dir: std::path::PathBuf,
}

impl Module for YokanModule {
    fn type_name(&self) -> &str {
        "yokan"
    }

    fn create(
        &self,
        ctx: ProviderContext,
    ) -> Result<Box<dyn ProviderInstance>, String> {
        let config: BackendConfig = if ctx.config.is_null() {
            BackendConfig::default()
        } else {
            serde_json::from_value(ctx.config.clone()).map_err(|e| e.to_string())?
        };
        let db_dir = ctx.data_dir.join("db");
        let (db, lsm): (Arc<dyn Database>, _) = if config.backend == "lsm" {
            let lsm = Arc::new(open_lsm(&config, &db_dir).map_err(|e| e.to_string())?);
            (Arc::clone(&lsm) as Arc<dyn Database>, Some(lsm))
        } else {
            let db = create_backend(&config, &db_dir).map_err(|e| e.to_string())?;
            (Arc::from(db), None)
        };
        let provider =
            YokanProvider::register(&ctx.margo, ctx.provider_id, Some(&ctx.pool), Arc::clone(&db))
                .map_err(|e| e.to_string())?;
        Ok(Box::new(YokanInstance { provider, db, lsm, config, data_dir: ctx.data_dir }))
    }
}

impl ProviderInstance for YokanInstance {
    fn type_name(&self) -> &str {
        "yokan"
    }

    fn config(&self) -> Value {
        let mut state = json!({
            "backend": self.config.backend,
            "keys": self.db.len().unwrap_or(0),
        });
        if let Some(lsm) = &self.lsm {
            let stats = lsm.stats();
            state["lsm"] = json!({
                "tables": stats.tables,
                "logs": stats.logs,
                "value_bytes_live": stats.value_bytes_live,
                "value_bytes_total": stats.value_bytes_total,
                "bytes_merged": stats.bytes_merged,
                "bytes_relocated": stats.bytes_relocated,
                "index_bytes_per_key": stats.index_bytes_per_key,
            });
        }
        state
    }

    fn stop(&self) -> Result<(), String> {
        self.provider.deregister().map_err(|e| e.to_string())
    }

    fn prepare_migration(&self) -> Result<(), String> {
        self.db.flush().map_err(|e| e.to_string())
    }

    fn fileset(&self) -> Option<FileSet> {
        // Only file-backed databases can migrate by moving files. Flush
        // first so the memtable reaches disk; for the `map` backend we
        // materialize a dump file so even it can move.
        self.db.flush().ok()?;
        let db_dir = self.data_dir.join("db");
        if self.db.backend_name() == "map" {
            std::fs::create_dir_all(&db_dir).ok()?;
            let pairs = self.db.dump().ok()?;
            write_dump(&db_dir.join("dump.ykn"), &pairs).ok()?;
        }
        FileSet::scan(&self.data_dir).ok()
    }

    fn checkpoint(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let pairs = self.db.dump().map_err(|e| e.to_string())?;
        write_dump(&dir.join("yokan.ckpt"), &pairs).map_err(|e| e.to_string())
    }

    fn restore(&self, dir: &Path) -> Result<(), String> {
        let pairs = read_dump(&dir.join("yokan.ckpt")).map_err(|e| e.to_string())?;
        self.db.clear().map_err(|e| e.to_string())?;
        self.db.load(&pairs).map_err(|e| e.to_string())
    }
}

struct VirtualModule;

struct VirtualInstance {
    provider: Arc<YokanProvider>,
    config: VirtualConfig,
}

impl Module for VirtualModule {
    fn type_name(&self) -> &str {
        "yokan-virtual"
    }

    fn create(
        &self,
        ctx: ProviderContext,
    ) -> Result<Box<dyn ProviderInstance>, String> {
        let config: VirtualConfig =
            serde_json::from_value(ctx.config.clone()).map_err(|e| e.to_string())?;
        let mut replicas = Vec::with_capacity(config.replicas.len());
        for replica in &config.replicas {
            let address: Address = replica.address.parse().map_err(|e| format!("{e}"))?;
            replicas.push((address, replica.provider_id));
        }
        let db = VirtualDatabase::new(&ctx.margo, replicas, Duration::from_secs(2));
        let provider =
            YokanProvider::register(&ctx.margo, ctx.provider_id, Some(&ctx.pool), Arc::new(db))
                .map_err(|e| e.to_string())?;
        Ok(Box::new(VirtualInstance { provider, config }))
    }
}

impl ProviderInstance for VirtualInstance {
    fn type_name(&self) -> &str {
        "yokan-virtual"
    }

    fn config(&self) -> Value {
        json!({ "replicas": self.config.replicas })
    }

    fn stop(&self) -> Result<(), String> {
        self.provider.deregister().map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modules_report_types() {
        assert_eq!(bedrock_module().type_name(), "yokan");
        assert_eq!(virtual_bedrock_module().type_name(), "yokan-virtual");
    }
}
