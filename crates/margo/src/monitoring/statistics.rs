//! The default monitor: aggregates lifecycle events into the JSON shape
//! of the paper's Listing 1.
//!
//! Statistics are keyed by
//! `"<parent_rpc_id>:<parent_provider_id>:<rpc_id>:<provider_id>"`, with
//! `65535` standing in for "no parent" / "no provider", exactly as in the
//! listing. Under each key, the `origin` section groups per-destination
//! client-side statistics (`sent to <addr>`), and the `target` section
//! groups per-source server-side statistics (`received from <addr>`),
//! including the `ult.duration` block the listing shows.
//!
//! The accumulator is striped ([`Striped<State>`]): each thread updates
//! its own stripe, so concurrent RPC handlers never serialize on one
//! statistics mutex; [`StatisticsMonitor::to_json`] merges the stripes
//! with [`StreamStats::merge`] (the parallel Welford merge), which keeps
//! `{num, avg, min, max, var, sum}` exact for sequential pushes and
//! within floating-point roundoff of single-lock accumulation otherwise.
//!
//! Recording an event is two probes of an [`IdMap`] — the RPC by its four
//! integers, the peer by the hash its [`Address`] carries — and, once both
//! entries exist, allocates and formats nothing: the RPC's name is stored
//! when its entry is made, the peer's text is rendered at dump time.

use std::collections::HashMap;
use std::sync::Arc;

use serde_json::{json, Value};

use mochi_mercury::{Address, CallContext};
use mochi_util::ordered_lock::rank;
use mochi_util::{IdMap, StreamStats, Striped};

use super::{Monitor, MonitoringEvent, RpcIdentity};

/// Sentinel rendered for "no parent" ids, matching Listing 1.
const NONE_SENTINEL: u64 = 65_535;

/// Stripe count: comfortably above the ES counts the experiments drive
/// (≤ 8), cheap to merge at dump time.
const STRIPES: usize = 16;

fn render_parent_rpc(context: &CallContext) -> u64 {
    if context.parent_rpc_id == u64::MAX {
        NONE_SENTINEL
    } else {
        context.parent_rpc_id
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    parent_rpc_id: u64,
    parent_provider_id: u16,
    rpc_id: u64,
    provider_id: u16,
}

impl Key {
    fn from_identity(identity: &RpcIdentity) -> Self {
        Self {
            parent_rpc_id: render_parent_rpc(&identity.context),
            parent_provider_id: identity.context.parent_provider_id,
            rpc_id: identity.rpc_id,
            provider_id: identity.provider_id,
        }
    }

    fn render(&self) -> String {
        format!(
            "{}:{}:{}:{}",
            self.parent_rpc_id, self.parent_provider_id, self.rpc_id, self.provider_id
        )
    }
}

#[derive(Default)]
struct OriginPeer {
    forward_duration: StreamStats,
    payload_size: StreamStats,
    failures: u64,
    /// Failures by fault-mode tag (timeout / handler / no-handler /
    /// breaker-open / deadline / …) so E1 dumps distinguish fault modes.
    errors: HashMap<&'static str, u64>,
    /// Extra transport attempts spent by the retry policy (attempts - 1,
    /// summed over calls).
    retries: u64,
}

impl OriginPeer {
    fn merge_from(&mut self, other: &OriginPeer) {
        self.forward_duration.merge(&other.forward_duration);
        self.payload_size.merge(&other.payload_size);
        self.failures += other.failures;
        for (kind, count) in &other.errors {
            *self.errors.entry(kind).or_default() += count;
        }
        self.retries += other.retries;
    }
}

#[derive(Default)]
struct TargetPeer {
    ult_duration: StreamStats,
    queue_wait: StreamStats,
    request_payload: StreamStats,
    response_payload: StreamStats,
    failures: u64,
}

impl TargetPeer {
    fn merge_from(&mut self, other: &TargetPeer) {
        self.ult_duration.merge(&other.ult_duration);
        self.queue_wait.merge(&other.queue_wait);
        self.request_payload.merge(&other.request_payload);
        self.response_payload.merge(&other.response_payload);
        self.failures += other.failures;
    }
}

#[derive(Default)]
struct RpcEntry {
    /// Set when the entry is made.
    name: Arc<str>,
    // Keyed by the Arc the runtime already holds: a new peer bumps a
    // refcount instead of deep-cloning the address.
    origin: IdMap<Arc<Address>, OriginPeer>,
    target: IdMap<Arc<Address>, TargetPeer>,
}

#[derive(Default)]
struct BulkStats {
    pull_duration: StreamStats,
    pull_size: StreamStats,
    push_duration: StreamStats,
    push_size: StreamStats,
}

#[derive(Default)]
struct SampleStats {
    in_flight_client: StreamStats,
    in_flight_server: StreamStats,
    pool_sizes: HashMap<String, StreamStats>,
    samples_taken: u64,
}

#[derive(Default)]
struct State {
    rpcs: IdMap<Key, RpcEntry>,
    bulk: BulkStats,
    samples: SampleStats,
}

impl State {
    /// The entry of `identity`'s RPC, made (and named) on its first event.
    fn rpc(&mut self, identity: &RpcIdentity) -> &mut RpcEntry {
        self.rpcs.entry(Key::from_identity(identity)).or_insert_with(|| RpcEntry {
            name: Arc::clone(&identity.rpc_name),
            ..RpcEntry::default()
        })
    }

    /// Folds another stripe's accumulators into this one.
    fn merge_from(&mut self, other: &State) {
        for (key, entry) in &other.rpcs {
            let target = self.rpcs.entry(*key).or_insert_with(|| RpcEntry {
                name: Arc::clone(&entry.name),
                ..RpcEntry::default()
            });
            for (addr, peer) in &entry.origin {
                target.origin.entry(Arc::clone(addr)).or_default().merge_from(peer);
            }
            for (addr, peer) in &entry.target {
                target.target.entry(Arc::clone(addr)).or_default().merge_from(peer);
            }
        }
        self.bulk.pull_duration.merge(&other.bulk.pull_duration);
        self.bulk.pull_size.merge(&other.bulk.pull_size);
        self.bulk.push_duration.merge(&other.bulk.push_duration);
        self.bulk.push_size.merge(&other.bulk.push_size);
        self.samples.in_flight_client.merge(&other.samples.in_flight_client);
        self.samples.in_flight_server.merge(&other.samples.in_flight_server);
        self.samples.samples_taken += other.samples.samples_taken;
        for (name, stats) in &other.samples.pool_sizes {
            self.samples.pool_sizes.entry(name.clone()).or_default().merge(stats);
        }
    }
}

/// The default statistics-collecting monitor (§4). Available "at no
/// engineering cost to any component": the runtime installs one unless
/// monitoring is disabled.
pub struct StatisticsMonitor {
    state: Striped<State>,
}

impl Default for StatisticsMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl StatisticsMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Self { state: Striped::new(rank::MARGO_STATS, "margo.stats", STRIPES) }
    }

    /// Renders the accumulated statistics as Listing-1-shaped JSON. This
    /// is both the runtime query API and what Margo dumps at shutdown.
    pub fn to_json(&self) -> Value {
        let state = self.state.fold(State::default(), |mut merged, stripe| {
            merged.merge_from(stripe);
            merged
        });
        let mut rpcs = serde_json::Map::new();
        // Sort keys for reproducible output.
        let mut keys: Vec<&Key> = state.rpcs.keys().collect();
        keys.sort_by_key(|k| k.render());
        for key in keys {
            let entry = &state.rpcs[key];
            let mut origin = serde_json::Map::new();
            let mut origin_addrs: Vec<&Arc<Address>> = entry.origin.keys().collect();
            origin_addrs.sort();
            for addr in origin_addrs {
                let peer = &entry.origin[addr];
                let mut errors = serde_json::Map::new();
                let mut kinds: Vec<&&'static str> = peer.errors.keys().collect();
                kinds.sort();
                for kind in kinds {
                    errors.insert((*kind).to_string(), json!(peer.errors[*kind]));
                }
                origin.insert(
                    format!("sent to {addr}"),
                    json!({
                        "forward": { "duration": peer.forward_duration.to_json() },
                        "payload": { "size": peer.payload_size.to_json() },
                        "failures": peer.failures,
                        "errors": Value::Object(errors),
                        "retries": peer.retries,
                    }),
                );
            }
            let mut target = serde_json::Map::new();
            let mut target_addrs: Vec<&Arc<Address>> = entry.target.keys().collect();
            target_addrs.sort();
            for addr in target_addrs {
                let peer = &entry.target[addr];
                target.insert(
                    format!("received from {addr}"),
                    json!({
                        "ult": {
                            "duration": peer.ult_duration.to_json(),
                            "queue_wait": peer.queue_wait.to_json(),
                        },
                        "request_payload": { "size": peer.request_payload.to_json() },
                        "response_payload": { "size": peer.response_payload.to_json() },
                        "failures": peer.failures,
                    }),
                );
            }
            rpcs.insert(
                key.render(),
                json!({
                    "rpc_id": key.rpc_id,
                    "provider_id": key.provider_id,
                    "parent_rpc_id": key.parent_rpc_id,
                    "parent_provider_id": key.parent_provider_id,
                    "name": &*entry.name,
                    "origin": Value::Object(origin),
                    "target": Value::Object(target),
                }),
            );
        }

        let mut pool_sizes = serde_json::Map::new();
        let mut pool_names: Vec<&String> = state.samples.pool_sizes.keys().collect();
        pool_names.sort();
        for name in pool_names {
            pool_sizes.insert(name.clone(), state.samples.pool_sizes[name].to_json());
        }

        json!({
            "rpcs": Value::Object(rpcs),
            "bulk": {
                "pull": {
                    "duration": state.bulk.pull_duration.to_json(),
                    "size": state.bulk.pull_size.to_json(),
                },
                "push": {
                    "duration": state.bulk.push_duration.to_json(),
                    "size": state.bulk.push_size.to_json(),
                },
            },
            "progress": {
                "samples": state.samples.samples_taken,
                "in_flight_rpcs": {
                    "origin": state.samples.in_flight_client.to_json(),
                    "target": state.samples.in_flight_server.to_json(),
                },
                "pool_sizes": Value::Object(pool_sizes),
            },
        })
    }

    /// Resets all statistics (useful between benchmark phases).
    pub fn reset(&self) {
        self.state.for_each_mut(|state| *state = State::default());
    }
}

impl Monitor for StatisticsMonitor {
    fn observe(&self, event: &MonitoringEvent<'_>) {
        // Only the calling thread's stripe is locked: handlers on
        // different execution streams record concurrently.
        self.state.with(|state| match *event {
            MonitoringEvent::ForwardStart { .. } => {
                // Per-call state is carried by the runtime; the duration
                // arrives with ForwardEnd. The arm documents that the
                // hook exists for custom monitors.
            }
            MonitoringEvent::ForwardEnd { identity, dest, duration_s, ok, error, attempts } => {
                let peer = state.rpc(identity).origin.entry(Arc::clone(dest)).or_default();
                peer.forward_duration.push(duration_s);
                if !ok {
                    peer.failures += 1;
                }
                if let Some(kind) = error {
                    *peer.errors.entry(kind).or_default() += 1;
                }
                peer.retries += u64::from(attempts.saturating_sub(1));
            }
            MonitoringEvent::RequestReceived { identity, source, payload_size, .. } => {
                let peer = state.rpc(identity).target.entry(Arc::clone(source)).or_default();
                peer.request_payload.push(payload_size as f64);
            }
            MonitoringEvent::HandlerStart { identity, source, queue_wait_s } => {
                let peer = state.rpc(identity).target.entry(Arc::clone(source)).or_default();
                peer.queue_wait.push(queue_wait_s);
            }
            MonitoringEvent::HandlerEnd { identity, source, duration_s, ok } => {
                let peer = state.rpc(identity).target.entry(Arc::clone(source)).or_default();
                peer.ult_duration.push(duration_s);
                if !ok {
                    peer.failures += 1;
                }
            }
            MonitoringEvent::ResponseSent { identity, dest, payload_size } => {
                let peer = state.rpc(identity).target.entry(Arc::clone(dest)).or_default();
                peer.response_payload.push(payload_size as f64);
            }
            MonitoringEvent::Bulk { direction, size, duration_s, .. } => match direction {
                super::BulkDirection::Pull => {
                    state.bulk.pull_duration.push(duration_s);
                    state.bulk.pull_size.push(size as f64);
                }
                super::BulkDirection::Push => {
                    state.bulk.push_duration.push(duration_s);
                    state.bulk.push_size.push(size as f64);
                }
            },
            MonitoringEvent::Sample(sample) => {
                state.samples.samples_taken += 1;
                state.samples.in_flight_client.push(sample.in_flight_client as f64);
                state.samples.in_flight_server.push(sample.in_flight_server as f64);
                for pool in &sample.pools {
                    // Looked up before it is named: the name is cloned
                    // for a pool's first sample only.
                    match state.samples.pool_sizes.get_mut(&pool.name) {
                        Some(sizes) => sizes.push(pool.size as f64),
                        None => {
                            let sizes = state.samples.pool_sizes.entry(pool.name.clone());
                            sizes.or_default().push(pool.size as f64);
                        }
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::{BulkDirection, RuntimeSample};
    use super::*;
    use std::sync::Arc;

    fn identity(name: &str, rpc_id: u64, provider: u16, context: CallContext) -> RpcIdentity {
        RpcIdentity { rpc_id, rpc_name: Arc::from(name), provider_id: provider, context }
    }

    fn addr(host: &str) -> Address {
        Address::tcp(host, 1)
    }

    #[test]
    fn listing1_key_format_for_top_level_calls() {
        let monitor = StatisticsMonitor::new();
        let id = identity("echo", 2_924_675_071, 65_535, CallContext::TOP_LEVEL);
        monitor.observe(&MonitoringEvent::HandlerEnd {
            identity: &id,
            source: &Arc::new(addr("client")),
            duration_s: 0.083,
            ok: true,
        });
        let json = monitor.to_json();
        let rpcs = json["rpcs"].as_object().unwrap();
        assert!(rpcs.contains_key("65535:65535:2924675071:65535"), "keys: {:?}", rpcs.keys());
        let entry = &rpcs["65535:65535:2924675071:65535"];
        assert_eq!(entry["rpc_id"], 2_924_675_071u64);
        assert_eq!(entry["parent_rpc_id"], 65_535);
        assert_eq!(entry["parent_provider_id"], 65_535);
        let ult = &entry["target"]["received from ofi+tcp://client:1"]["ult"]["duration"];
        assert_eq!(ult["num"], 1);
        assert!((ult["avg"].as_f64().unwrap() - 0.083).abs() < 1e-9);
    }

    #[test]
    fn nested_context_creates_distinct_key() {
        let monitor = StatisticsMonitor::new();
        let nested = CallContext { parent_rpc_id: 42, parent_provider_id: 3, deadline: None };
        monitor.observe(&MonitoringEvent::ForwardEnd {
            identity: &identity("get", 100, 1, nested),
            dest: &Arc::new(addr("server")),
            duration_s: 0.01,
            ok: true,
            error: None,
            attempts: 1,
        });
        monitor.observe(&MonitoringEvent::ForwardEnd {
            identity: &identity("get", 100, 1, CallContext::TOP_LEVEL),
            dest: &Arc::new(addr("server")),
            duration_s: 0.02,
            ok: true,
            error: None,
            attempts: 1,
        });
        let json = monitor.to_json();
        let rpcs = json["rpcs"].as_object().unwrap();
        assert_eq!(rpcs.len(), 2);
        assert!(rpcs.contains_key("42:3:100:1"));
        assert!(rpcs.contains_key("65535:65535:100:1"));
    }

    #[test]
    fn per_peer_origin_stats_accumulate() {
        let monitor = StatisticsMonitor::new();
        for (host, duration) in [("s1", 0.01), ("s1", 0.03), ("s2", 0.5)] {
            monitor.observe(&MonitoringEvent::ForwardEnd {
                identity: &identity("put", 7, 0, CallContext::TOP_LEVEL),
                dest: &Arc::new(addr(host)),
                duration_s: duration,
                ok: true,
                error: None,
                attempts: 1,
            });
        }
        let json = monitor.to_json();
        let origin = &json["rpcs"]["65535:65535:7:0"]["origin"];
        let s1 = &origin["sent to ofi+tcp://s1:1"]["forward"]["duration"];
        assert_eq!(s1["num"], 2);
        assert!((s1["avg"].as_f64().unwrap() - 0.02).abs() < 1e-9);
        let s2 = &origin["sent to ofi+tcp://s2:1"]["forward"]["duration"];
        assert_eq!(s2["num"], 1);
    }

    #[test]
    fn failures_counted() {
        let monitor = StatisticsMonitor::new();
        monitor.observe(&MonitoringEvent::ForwardEnd {
            identity: &identity("put", 7, 0, CallContext::TOP_LEVEL),
            dest: &Arc::new(addr("s1")),
            duration_s: 1.0,
            ok: false,
            error: Some("timeout"),
            attempts: 3,
        });
        let json = monitor.to_json();
        let peer = &json["rpcs"]["65535:65535:7:0"]["origin"]["sent to ofi+tcp://s1:1"];
        assert_eq!(peer["failures"], 1);
        assert_eq!(peer["errors"]["timeout"], 1, "fault mode tagged: {peer}");
        assert_eq!(peer["retries"], 2, "two extra attempts recorded");
    }

    #[test]
    fn error_kinds_accumulate_separately() {
        let monitor = StatisticsMonitor::new();
        for kind in ["timeout", "timeout", "handler", "breaker-open"] {
            monitor.observe(&MonitoringEvent::ForwardEnd {
                identity: &identity("put", 7, 0, CallContext::TOP_LEVEL),
                dest: &Arc::new(addr("s1")),
                duration_s: 0.5,
                ok: false,
                error: Some(kind),
                attempts: 1,
            });
        }
        let json = monitor.to_json();
        let errors = &json["rpcs"]["65535:65535:7:0"]["origin"]["sent to ofi+tcp://s1:1"]["errors"];
        assert_eq!(errors["timeout"], 2);
        assert_eq!(errors["handler"], 1);
        assert_eq!(errors["breaker-open"], 1);
    }

    #[test]
    fn bulk_and_samples_sections() {
        let monitor = StatisticsMonitor::new();
        monitor.observe(&MonitoringEvent::Bulk {
            direction: BulkDirection::Pull,
            peer: &addr("s"),
            size: 4096,
            duration_s: 0.001,
        });
        monitor.observe(&MonitoringEvent::Sample(&RuntimeSample {
            time_s: 1.0,
            in_flight_client: 3,
            in_flight_server: 1,
            pools: vec![],
        }));
        let json = monitor.to_json();
        assert_eq!(json["bulk"]["pull"]["size"]["num"], 1);
        assert_eq!(json["progress"]["samples"], 1);
        assert_eq!(json["progress"]["in_flight_rpcs"]["origin"]["avg"], 3.0);
    }

    #[test]
    fn reset_clears_state() {
        let monitor = StatisticsMonitor::new();
        monitor.observe(&MonitoringEvent::ForwardEnd {
            identity: &identity("x", 1, 0, CallContext::TOP_LEVEL),
            dest: &Arc::new(addr("s")),
            duration_s: 0.1,
            ok: true,
            error: None,
            attempts: 1,
        });
        monitor.reset();
        assert!(monitor.to_json()["rpcs"].as_object().unwrap().is_empty());
    }

    #[test]
    fn events_from_concurrent_threads_merge_exactly() {
        let monitor = Arc::new(StatisticsMonitor::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let monitor = Arc::clone(&monitor);
                std::thread::spawn(move || {
                    for i in 0..250 {
                        monitor.observe(&MonitoringEvent::ForwardEnd {
                            identity: &identity("put", 7, 0, CallContext::TOP_LEVEL),
                            dest: &Arc::new(addr("s1")),
                            duration_s: (t * 250 + i) as f64,
                            ok: i % 50 == 0,
                            error: (i % 50 != 0).then_some("timeout"),
                            attempts: 1,
                        });
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let json = monitor.to_json();
        let peer = &json["rpcs"]["65535:65535:7:0"]["origin"]["sent to ofi+tcp://s1:1"];
        let duration = &peer["forward"]["duration"];
        assert_eq!(duration["num"], 1000);
        assert_eq!(duration["min"], 0.0);
        assert_eq!(duration["max"], 999.0);
        // Sum of 0..1000 is exact in f64, and the Welford merge preserves
        // it bit-for-bit regardless of stripe layout.
        assert_eq!(duration["sum"], (0..1000u64).sum::<u64>() as f64);
        // `ok` only when i % 50 == 0 (5 of 250 per thread).
        assert_eq!(peer["failures"], 4 * 245);
        let name = &json["rpcs"]["65535:65535:7:0"]["name"];
        assert_eq!(name, "put");
    }
}
