//! RPC names of the fixture mini-crate. `MISSING` is never registered and
//! `ORPHAN` is never called: the table must count both sides separately.

/// Registered and called.
pub const PUT: &str = "mini_put";
/// Registered and called.
pub const GET: &str = "mini_get";
/// Registered, never called.
pub const ORPHAN: &str = "mini_orphan";
/// Called, never registered.
pub const MISSING: &str = "mini_missing";
