//! The SSG RPC surface: every RPC, declared once with its types and its
//! retry class (`mochi_margo::Rpc`).
//!
//! The SWIM group (`group.rs`) both registers and calls these, so a
//! handler and its callers cannot disagree on a name or a type. Each is
//! sent once: a lost probe is SWIM's evidence, not a fault to hide.

use mochi_margo::rpc_table;

use crate::group::{JoinArgs, JoinReply, PingArgs, PingReply, PingReqArgs, PingReqReply};
use crate::view::GroupView;

rpc_table! {
    /// Direct probe carrying piggybacked updates.
    PING: Rpc<PingArgs, PingReply> = once("ssg_ping");
    /// Indirect probe request (SWIM's ping-req).
    PING_REQ: Rpc<PingReqArgs, PingReqReply> = once("ssg_ping_req");
    /// View fetch (for client applications).
    GET_VIEW: Rpc<(), GroupView> = once("ssg_get_view");
    /// Join: returns a membership snapshot.
    JOIN: Rpc<JoinArgs, JoinReply> = once("ssg_join");
}
