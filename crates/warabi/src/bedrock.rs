//! Bedrock module for Warabi.

use std::path::Path;
use std::sync::Arc;

use serde_json::{json, Value};

use mochi_bedrock::{Module, ProviderContext, ProviderInstance};
use mochi_remi::FileSet;

use crate::provider::WarabiProvider;
use crate::target::{blob_file_name, blob_id_of, create_target, BlobTarget, TargetConfig};

/// Library path Warabi conventionally installs under.
pub const LIBRARY: &str = "libwarabi.so";

/// Returns the Warabi Bedrock module (install under [`LIBRARY`]).
pub fn bedrock_module() -> Arc<dyn Module> {
    Arc::new(WarabiModule)
}

struct WarabiModule;

struct WarabiInstance {
    provider: Arc<WarabiProvider>,
    target: Arc<dyn BlobTarget>,
    config: TargetConfig,
    data_dir: std::path::PathBuf,
}

impl Module for WarabiModule {
    fn type_name(&self) -> &str {
        "warabi"
    }

    fn create(&self, ctx: ProviderContext) -> Result<Box<dyn ProviderInstance>, String> {
        let config: TargetConfig = if ctx.config.is_null() {
            TargetConfig::default()
        } else {
            serde_json::from_value(ctx.config.clone()).map_err(|e| e.to_string())?
        };
        let target_dir = ctx.data_dir.join("target");
        let target: Arc<dyn BlobTarget> =
            Arc::from(create_target(&config, &target_dir).map_err(|e| e.to_string())?);
        let provider = WarabiProvider::register(
            &ctx.margo,
            ctx.provider_id,
            Some(&ctx.pool),
            Arc::clone(&target),
        )
        .map_err(|e| e.to_string())?;
        Ok(Box::new(WarabiInstance { provider, target, config, data_dir: ctx.data_dir }))
    }
}

impl ProviderInstance for WarabiInstance {
    fn type_name(&self) -> &str {
        "warabi"
    }

    fn config(&self) -> Value {
        json!({
            "target": self.config.target,
            "blobs": self.target.list().map(|l| l.len()).unwrap_or(0),
        })
    }

    fn stop(&self) -> Result<(), String> {
        self.provider.deregister().map_err(|e| e.to_string())
    }

    fn prepare_migration(&self) -> Result<(), String> {
        self.target.flush().map_err(|e| e.to_string())
    }

    fn fileset(&self) -> Option<FileSet> {
        if self.config.target != "file" {
            return None;
        }
        self.target.flush().ok()?;
        FileSet::scan(&self.data_dir).ok()
    }

    fn checkpoint(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        // Blob-by-blob copy: works for both backends.
        let ids = self.target.list().map_err(|e| e.to_string())?;
        for &id in &ids {
            let size = self.target.size(id).map_err(|e| e.to_string())?;
            let data = self.target.read(id, 0, size).map_err(|e| e.to_string())?;
            std::fs::write(dir.join(blob_file_name(id)), data).map_err(|e| e.to_string())?;
        }
        // A blob erased since the last sweep must not come back on restore.
        for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
            let entry = entry.map_err(|e| e.to_string())?;
            if blob_id_of(&entry.file_name().to_string_lossy())
                .is_some_and(|id| ids.binary_search(&id).is_err())
            {
                std::fs::remove_file(entry.path()).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    fn restore(&self, dir: &Path) -> Result<(), String> {
        for id in self.target.list().map_err(|e| e.to_string())? {
            self.target.erase(id).map_err(|e| e.to_string())?;
        }
        for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
            let entry = entry.map_err(|e| e.to_string())?;
            if let Some(id) = blob_id_of(&entry.file_name().to_string_lossy()) {
                let data = std::fs::read(entry.path()).map_err(|e| e.to_string())?;
                self.target.restore_blob(id, &data).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_reports_type() {
        assert_eq!(bedrock_module().type_name(), "warabi");
    }
}
