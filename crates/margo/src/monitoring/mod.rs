//! Customizable performance-monitoring infrastructure (paper §4).
//!
//! Margo "has knowledge of all the RPCs being sent and received and all
//! the RDMA operations being carried out, as well as the context in which
//! they are performed"; this module is where that knowledge surfaces.
//! The runtime emits a [`MonitoringEvent`] at each step of an RPC's
//! lifetime — forward sent, request received, handler ULT scheduled,
//! handler start/stop, response sent, bulk transfer — plus periodic
//! samples of in-flight RPC counts and pool depths. Users "inject
//! callbacks" by installing any [`Monitor`]; the default
//! [`StatisticsMonitor`] aggregates everything into the Listing-1 JSON.

mod statistics;

pub use statistics::StatisticsMonitor;

use std::sync::Arc;

use mochi_argobots::PoolStats;
use mochi_mercury::{Address, CallContext};

/// Direction of a bulk (RDMA-model) transfer, from the caller's side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkDirection {
    /// Remote → local.
    Pull,
    /// Local → remote.
    Push,
}

/// Identity of one RPC observation: which RPC, which provider, and the
/// calling context it was issued from (Listing 1 keys stats by all four).
#[derive(Debug, Clone)]
pub struct RpcIdentity {
    /// Hashed RPC id.
    pub rpc_id: u64,
    /// Human-readable RPC name.
    pub rpc_name: Arc<str>,
    /// Target provider id.
    pub provider_id: u16,
    /// Context (parent RPC/provider) this call was issued from.
    pub context: CallContext,
}

/// A point-in-time sample of runtime load (§4: "periodically tracks the
/// number of in-flight RPCs and the sizes of user-level thread pools").
#[derive(Debug, Clone)]
pub struct RuntimeSample {
    /// Seconds since process start.
    pub time_s: f64,
    /// RPCs this process has forwarded and not yet seen complete.
    pub in_flight_client: i64,
    /// Handler ULTs received and not yet completed.
    pub in_flight_server: i64,
    /// Depth and counters of every pool.
    pub pools: Vec<PoolStats>,
}

/// One step in the lifetime of an RPC (or a runtime sample).
///
/// An event lends what it describes: the runtime holds one
/// [`RpcIdentity`] and one shared peer address per call, six events fire
/// per RPC, and each borrows them for the duration of
/// [`Monitor::observe`]. A monitor that keeps something (a peer as a map
/// key) clones the `Arc` it was lent.
#[derive(Debug, Clone, Copy)]
pub enum MonitoringEvent<'a> {
    /// A client is about to forward a request.
    ForwardStart { identity: &'a RpcIdentity, dest: &'a Arc<Address>, payload_size: usize },
    /// A forwarded request completed (response received, or failed).
    /// `error` is `None` on success, or the fault-mode tag from
    /// [`crate::MargoError::kind`] (timeout / handler / no-handler /
    /// breaker-open / deadline / …) so E1 dumps distinguish fault modes.
    /// `attempts` counts the transport attempts of this logical call
    /// (> 1 when the retry policy re-sent it).
    ForwardEnd {
        identity: &'a RpcIdentity,
        dest: &'a Arc<Address>,
        duration_s: f64,
        ok: bool,
        error: Option<&'static str>,
        attempts: u32,
    },
    /// The progress ULT took a request from the mailbox and is scheduling
    /// its handler ULT.
    RequestReceived {
        identity: &'a RpcIdentity,
        source: &'a Arc<Address>,
        payload_size: usize,
        pool: &'a Arc<str>,
    },
    /// A handler ULT started executing (after waiting in its pool).
    HandlerStart { identity: &'a RpcIdentity, source: &'a Arc<Address>, queue_wait_s: f64 },
    /// A handler ULT finished; `duration_s` is its execution time — the
    /// `ult.duration` statistic of Listing 1.
    HandlerEnd { identity: &'a RpcIdentity, source: &'a Arc<Address>, duration_s: f64, ok: bool },
    /// A response was sent back.
    ResponseSent { identity: &'a RpcIdentity, dest: &'a Arc<Address>, payload_size: usize },
    /// A bulk transfer completed.
    Bulk { direction: BulkDirection, peer: &'a Address, size: usize, duration_s: f64 },
    /// Periodic load sample.
    Sample(&'a RuntimeSample),
}

/// A monitoring callback sink. Implementations must be cheap and
/// non-blocking: events are emitted from the progress ULT and from
/// handler ULTs.
pub trait Monitor: Send + Sync {
    /// Observes one event.
    fn observe(&self, event: &MonitoringEvent<'_>);
}

/// Monitor that discards everything (monitoring disabled).
#[derive(Debug, Default)]
pub struct NullMonitor;

impl Monitor for NullMonitor {
    fn observe(&self, _event: &MonitoringEvent<'_>) {}
}

/// Fans events out to several monitors (e.g. the default statistics
/// monitor plus a user-injected one).
#[derive(Default)]
pub struct CompositeMonitor {
    sinks: Vec<Arc<dyn Monitor>>,
}

impl CompositeMonitor {
    /// Creates an empty composite.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sink.
    pub fn push(&mut self, sink: Arc<dyn Monitor>) {
        self.sinks.push(sink);
    }
}

impl Monitor for CompositeMonitor {
    fn observe(&self, event: &MonitoringEvent<'_>) {
        for sink in &self.sinks {
            sink.observe(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Counting(AtomicUsize);

    impl Monitor for Counting {
        fn observe(&self, _e: &MonitoringEvent<'_>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    static SAMPLE: RuntimeSample =
        RuntimeSample { time_s: 0.0, in_flight_client: 0, in_flight_server: 0, pools: vec![] };

    fn sample_event() -> MonitoringEvent<'static> {
        MonitoringEvent::Sample(&SAMPLE)
    }

    #[test]
    fn composite_fans_out() {
        let a = Arc::new(Counting(AtomicUsize::new(0)));
        let b = Arc::new(Counting(AtomicUsize::new(0)));
        let mut composite = CompositeMonitor::new();
        composite.push(a.clone());
        composite.push(b.clone());
        composite.observe(&sample_event());
        composite.observe(&sample_event());
        assert_eq!(a.0.load(Ordering::SeqCst), 2);
        assert_eq!(b.0.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn null_monitor_is_inert() {
        NullMonitor.observe(&sample_event());
    }
}
