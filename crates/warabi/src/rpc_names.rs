//! The Warabi RPC surface: every wire-visible RPC name, in one place.
//!
//! Registration sites (`provider.rs`) and client call sites
//! (`client.rs`) both pull names from this module, so a provider and its
//! clients can never drift apart.

/// Allocate a blob.
pub const CREATE: &str = "warabi_create";
/// Inline write (framed).
pub const WRITE: &str = "warabi_write";
/// Inline read (framed response).
pub const READ: &str = "warabi_read";
/// Bulk write: server pulls from the client's exposed region.
pub const WRITE_BULK: &str = "warabi_write_bulk";
/// Bulk read: server pushes into the client's exposed region.
pub const READ_BULK: &str = "warabi_read_bulk";
/// Blob size.
pub const SIZE: &str = "warabi_size";
/// Force to durable storage.
pub const PERSIST: &str = "warabi_persist";
/// Delete a blob.
pub const ERASE: &str = "warabi_erase";
/// List blob ids.
pub const LIST: &str = "warabi_list";

/// Every name above.
pub const ALL: [&str; 9] =
    [CREATE, WRITE, READ, WRITE_BULK, READ_BULK, SIZE, PERSIST, ERASE, LIST];
