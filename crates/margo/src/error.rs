//! Error type for the Margo layer.

use std::fmt;

use mochi_argobots::AbtError;
use mochi_mercury::MercuryError;

/// Errors surfaced by Margo operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MargoError {
    /// Transport-level failure.
    Transport(MercuryError),
    /// Threading/topology failure.
    Threading(AbtError),
    /// Argument (de)serialization failed.
    Codec(String),
    /// The remote handler reported an application error.
    Handler(String),
    /// No handler registered for (rpc, provider) at the destination.
    NoHandler { rpc: String, provider_id: u16 },
    /// An RPC with this (name, provider) is already registered locally.
    AlreadyRegistered { rpc: String, provider_id: u16 },
    /// Local registration not found.
    NotRegistered { rpc: String, provider_id: u16 },
    /// The referenced pool does not exist.
    PoolNotFound(String),
    /// Refusing to remove a pool that registered handlers dispatch into,
    /// the progress pool, or the last xstream that serves the progress
    /// pool.
    PoolBusy { pool: String, reason: String },
    /// A configuration document was invalid.
    BadConfig(String),
    /// A background OS thread (the sampler) could not be spawned.
    Spawn(String),
    /// The runtime is finalized.
    Finalized,
    /// The call chain's absolute deadline expired (the parent's remaining
    /// budget ran out) — distinct from a transport timeout, which means a
    /// single attempt's wait elapsed with budget possibly left.
    DeadlineExceeded,
    /// The circuit breaker for (address, provider) is open: recent calls
    /// failed and the probe interval has not elapsed, so the call was
    /// rejected without touching the network.
    BreakerOpen {
        /// Destination address string the breaker guards.
        dest: String,
        /// Provider id the breaker guards.
        provider_id: u16,
    },
}

impl fmt::Display for MargoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MargoError::Transport(e) => write!(f, "transport: {e}"),
            MargoError::Threading(e) => write!(f, "threading: {e}"),
            MargoError::Codec(msg) => write!(f, "codec: {msg}"),
            MargoError::Handler(msg) => write!(f, "handler error: {msg}"),
            MargoError::NoHandler { rpc, provider_id } => {
                write!(f, "no handler for rpc '{rpc}' provider {provider_id}")
            }
            MargoError::AlreadyRegistered { rpc, provider_id } => {
                write!(f, "rpc '{rpc}' provider {provider_id} already registered")
            }
            MargoError::NotRegistered { rpc, provider_id } => {
                write!(f, "rpc '{rpc}' provider {provider_id} not registered")
            }
            MargoError::PoolNotFound(p) => write!(f, "pool '{p}' not found"),
            MargoError::PoolBusy { pool, reason } => {
                write!(f, "pool '{pool}' is busy: {reason}")
            }
            MargoError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            MargoError::Spawn(msg) => write!(f, "spawning background thread: {msg}"),
            MargoError::Finalized => write!(f, "margo runtime is finalized"),
            MargoError::DeadlineExceeded => write!(f, "call deadline exceeded"),
            MargoError::BreakerOpen { dest, provider_id } => {
                write!(f, "circuit breaker open for {dest} provider {provider_id}")
            }
        }
    }
}

impl std::error::Error for MargoError {}

impl From<MercuryError> for MargoError {
    fn from(e: MercuryError) -> Self {
        MargoError::Transport(e)
    }
}

impl From<AbtError> for MargoError {
    fn from(e: AbtError) -> Self {
        MargoError::Threading(e)
    }
}

impl MargoError {
    /// True if the failure is a timeout (common check in retry loops).
    pub fn is_timeout(&self) -> bool {
        matches!(self, MargoError::Transport(MercuryError::Timeout))
    }

    /// True if retrying the call might succeed: transient transport
    /// failures (timeout, unknown peer) and `NoHandler`
    /// (providers reappear during reconfiguration/migration). `Handler`
    /// errors are application outcomes and never retryable; deadline and
    /// breaker rejections mean retrying locally is pointless.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            MargoError::Transport(MercuryError::Timeout | MercuryError::AddressUnknown(_))
                | MargoError::NoHandler { .. }
        )
    }

    /// Short stable tag for monitoring: which fault mode a failed forward
    /// hit. `"ok"` is never returned here — callers tag successes
    /// themselves.
    pub fn kind(&self) -> &'static str {
        match self {
            MargoError::Transport(MercuryError::Timeout) => "timeout",
            MargoError::Transport(_) => "transport",
            MargoError::Handler(_) => "handler",
            MargoError::NoHandler { .. } => "no-handler",
            MargoError::DeadlineExceeded => "deadline",
            MargoError::BreakerOpen { .. } => "breaker-open",
            MargoError::Codec(_) => "codec",
            _ => "other",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_timeout_check() {
        let e: MargoError = MercuryError::Timeout.into();
        assert!(e.is_timeout());
        let e: MargoError = AbtError::Shutdown.into();
        assert!(!e.is_timeout());
        assert!(e.to_string().contains("threading"));
    }

    #[test]
    fn deadline_is_not_a_transport_timeout() {
        let deadline = MargoError::DeadlineExceeded;
        assert!(!deadline.is_timeout());
        assert!(!deadline.is_retryable());
        assert_eq!(deadline.kind(), "deadline");
        let timeout: MargoError = MercuryError::Timeout.into();
        assert!(timeout.is_timeout());
        assert_ne!(deadline, timeout);
    }

    #[test]
    fn retryable_classification() {
        assert!(MargoError::Transport(MercuryError::Timeout).is_retryable());
        assert!(MargoError::NoHandler { rpc: "x".into(), provider_id: 1 }.is_retryable());
        assert!(!MargoError::Handler("boom".into()).is_retryable());
        assert!(!MargoError::Codec("bad".into()).is_retryable());
        assert!(
            !MargoError::BreakerOpen { dest: "tcp://a:1".into(), provider_id: 0 }.is_retryable()
        );
    }

    #[test]
    fn kinds_are_stable_tags() {
        assert_eq!(MargoError::Transport(MercuryError::Timeout).kind(), "timeout");
        assert_eq!(MargoError::Handler("e".into()).kind(), "handler");
        assert_eq!(MargoError::NoHandler { rpc: "r".into(), provider_id: 0 }.kind(), "no-handler");
        assert_eq!(
            MargoError::BreakerOpen { dest: "d".into(), provider_id: 0 }.kind(),
            "breaker-open"
        );
    }
}
