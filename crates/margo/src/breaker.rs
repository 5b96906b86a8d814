//! Per-(address, provider) circuit breakers for the forward path.
//!
//! A breaker watches consecutive transport-class failures to one
//! destination and, once a threshold trips, rejects further calls locally
//! (fast, no network) until a probe interval elapses; then a single
//! half-open probe is admitted and its outcome decides between closing
//! the breaker and re-opening it. This is the circuit-breaker pattern
//! from Hukerikar & Engelmann's resilience catalog, scoped the way Margo
//! scopes everything else: per destination address and provider id.
//!
//! Only transport-class failures (timeout, unreachable peer) count
//! against the threshold. `Handler` errors are successful round-trips
//! from the transport's point of view, and `NoHandler` is expected during
//! reconfiguration — neither should isolate a healthy destination.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mochi_mercury::Address;
use mochi_util::ordered_lock::{rank, OrderedMutex};
use mochi_util::IdMap;

use crate::config::BreakerConfig;

/// Breaker state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Calls flow; counting consecutive failures.
    Closed,
    /// Calls rejected until the probe interval elapses.
    Open,
    /// One probe call is in flight; its outcome decides the next state.
    HalfOpen,
}

impl State {
    fn as_str(self) -> &'static str {
        match self {
            State::Closed => "closed",
            State::Open => "open",
            State::HalfOpen => "half-open",
        }
    }
}

#[derive(Debug)]
struct Breaker {
    state: State,
    consecutive_failures: u32,
    /// Total times this breaker tripped open (monitoring).
    trips: u64,
    /// Calls rejected while open (monitoring).
    rejected: u64,
    /// When the open state may admit a half-open probe.
    probe_at: Instant,
}

impl Breaker {
    fn new(now: Instant) -> Self {
        Self {
            state: State::Closed,
            consecutive_failures: 0,
            trips: 0,
            rejected: 0,
            probe_at: now,
        }
    }
}

/// Outcome of asking the registry to admit a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Call may proceed (breaker closed, or breakers disabled).
    Allowed,
    /// Call may proceed as the single half-open probe.
    Probe,
    /// Call rejected: breaker open and the probe interval has not elapsed.
    Rejected,
}

/// Registry of breakers, one per (destination address, provider id).
#[derive(Debug)]
pub struct BreakerRegistry {
    config: BreakerConfig,
    breakers: OrderedMutex<IdMap<(Arc<Address>, u16), Breaker>>,
}

impl BreakerRegistry {
    /// Builds a registry from its configuration.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            breakers: OrderedMutex::new(rank::MARGO_BREAKERS, "margo.breakers", IdMap::default()),
        }
    }

    fn key(dest: &Arc<Address>, provider_id: u16) -> (Arc<Address>, u16) {
        (Arc::clone(dest), provider_id)
    }

    /// Asks to admit, at `now`, a call to `(dest, provider_id)`.
    pub fn admit(&self, dest: &Arc<Address>, provider_id: u16, now: Instant) -> Admission {
        if !self.config.enabled {
            return Admission::Allowed;
        }
        let mut breakers = self.breakers.lock();
        let breaker =
            breakers.entry(Self::key(dest, provider_id)).or_insert_with(|| Breaker::new(now));
        match breaker.state {
            State::Closed => Admission::Allowed,
            State::HalfOpen => {
                // A probe is already in flight; reject concurrent calls.
                breaker.rejected += 1;
                Admission::Rejected
            }
            State::Open => {
                if now >= breaker.probe_at {
                    breaker.state = State::HalfOpen;
                    Admission::Probe
                } else {
                    breaker.rejected += 1;
                    Admission::Rejected
                }
            }
        }
    }

    /// Records a successful round-trip (including `Handler`/`NoHandler`
    /// responses — the network worked).
    pub fn record_success(&self, dest: &Arc<Address>, provider_id: u16) {
        if !self.config.enabled {
            return;
        }
        let mut breakers = self.breakers.lock();
        if let Some(breaker) = breakers.get_mut(&Self::key(dest, provider_id)) {
            breaker.state = State::Closed;
            breaker.consecutive_failures = 0;
        }
    }

    /// Records a transport-class failure; trips the breaker open when the
    /// threshold is reached, and re-opens it when a half-open probe fails.
    pub fn record_failure(&self, dest: &Arc<Address>, provider_id: u16) {
        if !self.config.enabled {
            return;
        }
        let now = Instant::now();
        let probe_after = Duration::from_millis(self.config.probe_interval_ms);
        let mut breakers = self.breakers.lock();
        let breaker =
            breakers.entry(Self::key(dest, provider_id)).or_insert_with(|| Breaker::new(now));
        breaker.consecutive_failures = breaker.consecutive_failures.saturating_add(1);
        match breaker.state {
            State::HalfOpen => {
                // Failed probe: straight back to open.
                breaker.state = State::Open;
                breaker.trips += 1;
                breaker.probe_at = now + probe_after;
            }
            State::Closed if breaker.consecutive_failures >= self.config.failure_threshold => {
                breaker.state = State::Open;
                breaker.trips += 1;
                breaker.probe_at = now + probe_after;
            }
            _ => {}
        }
    }

    /// True if every tracked breaker is closed (chaos tests assert this
    /// after faults heal). Breakers for addresses absent from `live` are
    /// ignored: a recovered member's *old* address stays dead forever, so
    /// its breaker can never observe a success again.
    pub fn all_closed_among(&self, live: impl Fn(&Address) -> bool) -> bool {
        self.breakers
            .lock()
            .iter()
            .all(|((addr, _), b)| !live(addr) || b.state == State::Closed)
    }

    /// Monitoring dump: the `breakers` section of the Listing-1 JSON.
    /// Keyed `"<address>:<provider_id>"`.
    pub fn to_json(&self) -> serde_json::Value {
        let breakers = self.breakers.lock();
        let mut map = serde_json::Map::new();
        for ((addr, provider_id), b) in breakers.iter() {
            map.insert(
                format!("{addr}:{provider_id}"),
                serde_json::json!({
                    "state": b.state.as_str(),
                    "consecutive_failures": b.consecutive_failures,
                    "trips": b.trips,
                    "rejected": b.rejected,
                }),
            );
        }
        serde_json::Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(threshold: u32, probe_ms: u64) -> BreakerRegistry {
        BreakerRegistry::new(BreakerConfig {
            enabled: true,
            failure_threshold: threshold,
            probe_interval_ms: probe_ms,
        })
    }

    fn dest(host: &str) -> Arc<Address> {
        Arc::new(Address::tcp(host, 1))
    }

    #[test]
    fn trips_after_threshold_and_rejects() {
        let reg = registry(3, 10_000);
        let d = dest("a");
        for _ in 0..2 {
            reg.record_failure(&d, 0);
            assert_eq!(reg.admit(&d, 0, Instant::now()), Admission::Allowed);
        }
        reg.record_failure(&d, 0);
        assert_eq!(reg.admit(&d, 0, Instant::now()), Admission::Rejected);
        // Other providers and destinations unaffected.
        assert_eq!(reg.admit(&d, 1, Instant::now()), Admission::Allowed);
        assert_eq!(reg.admit(&dest("b"), 0, Instant::now()), Admission::Allowed);
    }

    #[test]
    fn half_open_probe_closes_on_success() {
        let reg = registry(1, 0);
        let d = dest("a");
        reg.record_failure(&d, 0);
        // probe_interval 0: next admit is immediately a probe.
        assert_eq!(reg.admit(&d, 0, Instant::now()), Admission::Probe);
        // While the probe is out, other calls are rejected.
        assert_eq!(reg.admit(&d, 0, Instant::now()), Admission::Rejected);
        reg.record_success(&d, 0);
        assert_eq!(reg.admit(&d, 0, Instant::now()), Admission::Allowed);
        assert!(reg.all_closed_among(|_| true));
    }

    #[test]
    fn failed_probe_reopens() {
        let reg = registry(1, 0);
        let d = dest("a");
        reg.record_failure(&d, 0);
        assert_eq!(reg.admit(&d, 0, Instant::now()), Admission::Probe);
        reg.record_failure(&d, 0);
        // Re-opened with probe_at in the past (interval 0) — next admit
        // probes again rather than flat-out rejecting.
        assert_eq!(reg.admit(&d, 0, Instant::now()), Admission::Probe);
        assert!(!reg.all_closed_among(|_| true));
        assert!(reg.all_closed_among(|_| false), "scoping to no live addresses ignores it");
    }

    #[test]
    fn open_respects_probe_interval() {
        let reg = registry(1, 60_000);
        let d = dest("a");
        reg.record_failure(&d, 0);
        assert_eq!(reg.admit(&d, 0, Instant::now()), Admission::Rejected, "probe due only after a minute");
    }

    #[test]
    fn success_resets_failure_streak() {
        let reg = registry(3, 1000);
        let d = dest("a");
        reg.record_failure(&d, 0);
        reg.record_failure(&d, 0);
        reg.record_success(&d, 0);
        reg.record_failure(&d, 0);
        reg.record_failure(&d, 0);
        assert_eq!(reg.admit(&d, 0, Instant::now()), Admission::Allowed, "streak broken by success");
    }

    #[test]
    fn disabled_breakers_never_reject() {
        let reg = BreakerRegistry::new(BreakerConfig {
            enabled: false,
            failure_threshold: 1,
            probe_interval_ms: 1000,
        });
        let d = dest("a");
        for _ in 0..10 {
            reg.record_failure(&d, 0);
        }
        assert_eq!(reg.admit(&d, 0, Instant::now()), Admission::Allowed);
    }

    #[test]
    fn json_shape() {
        let reg = registry(1, 60_000);
        let d = dest("a");
        reg.record_failure(&d, 0);
        reg.admit(&d, 0, Instant::now());
        let json = reg.to_json();
        let entry = &json[format!("{}:0", d)];
        assert_eq!(entry["state"], "open");
        assert_eq!(entry["trips"], 1);
        assert_eq!(entry["rejected"], 1);
        assert_eq!(entry["consecutive_failures"], 1);
    }
}
