//! The SSG RPC surface: every wire-visible RPC name, in one place.
//!
//! The SWIM group (`group.rs`) both registers and calls these, so this
//! module is the single definition the registration and call sites share.

/// Direct probe carrying piggybacked updates.
pub const PING: &str = "ssg_ping";
/// Indirect probe request (SWIM's ping-req).
pub const PING_REQ: &str = "ssg_ping_req";
/// View fetch (for client applications).
pub const GET_VIEW: &str = "ssg_get_view";
/// Join: returns a membership snapshot.
pub const JOIN: &str = "ssg_join";

/// All names (deregistration).
pub const ALL: [&str; 4] = [PING, PING_REQ, GET_VIEW, JOIN];
