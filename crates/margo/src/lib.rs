//! `mochi-margo` — the shared runtime of every Mochi component.
//!
//! Margo combines Mercury (networking) and Argobots (threading) into the
//! runtime all components of a Mochi process share (paper §3.2): it
//! registers RPCs, dispatches incoming requests into user-level threads
//! pulled from configurable pools, and provides the two capabilities this
//! paper adds for dynamic services:
//!
//! * **performance introspection** (§4): a customizable [`monitoring`]
//!   infrastructure with callbacks across the RPC lifecycle, a default
//!   statistics monitor that renders Listing-1-shaped JSON, a runtime
//!   query API, and periodic sampling of in-flight RPCs and pool sizes;
//! * **online reconfiguration** (§5, Observation 2): pools and execution
//!   streams can be added/removed at run time via
//!   [`MargoRuntime::add_pool_from_json`] and friends, with validity
//!   enforced at both the Argobots level (no duplicate names, no removing
//!   a pool an ES uses) and the Margo level (no removing the progress pool
//!   or a pool that registered RPC handlers run in).
//!
//! RPC arguments travel in the compact `mochi-wire` binary format (the
//! [`codec`] and [`frame`] modules); JSON survives only on the
//! observability and configuration surfaces, whose Listing-shaped
//! artifacts must stay human-readable.
//!
//! A [`MargoRuntime`] is one simulated process. Many runtimes share one
//! [`mochi_mercury::Fabric`], which plays the role of the machine's
//! interconnect.

pub mod breaker;
pub mod codec;
pub mod config;
pub mod error;
pub mod frame;
pub mod monitoring;
pub mod retry;
pub mod rpc;
pub mod runtime;

pub use breaker::{Admission, BreakerRegistry};
pub use codec::{decode, encode};
pub use frame::{decode_framed, decode_framed_borrowed, encode_framed, encode_framed_with};
pub use config::{BreakerConfig, MargoConfig, MonitoringConfig, RetryConfig};
pub use error::MargoError;
pub use retry::RetryPolicy;
pub use monitoring::{Monitor, MonitoringEvent, StatisticsMonitor};
pub use mochi_mercury::CallContext;
pub use rpc::{rpc_id_for_name, Raw, RetryClass, Rpc, RpcContext, RpcHandler, Untyped};
pub use runtime::{MargoRuntime, PendingForward};
