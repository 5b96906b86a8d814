//! The REMI RPC surface: every wire-visible RPC name, in one place.
//!
//! Registration sites (`provider.rs`) and client call sites
//! (`client.rs`) both pull names from this module, so a provider and its
//! clients can never drift apart.

/// Starts a migration (both strategies).
pub const START: &str = "remi_migration_start";
/// Carries one packed chunk (chunked strategy).
pub const CHUNK: &str = "remi_migration_chunk";
/// Finishes a migration: verify checksums, move into place.
pub const END: &str = "remi_migration_end";
/// RDMA strategy: asks the destination to pull the exposed files.
pub const PULL: &str = "remi_migration_pull";

/// Every name above (used for deregistration).
pub const ALL: [&str; 4] = [START, CHUNK, END, PULL];
