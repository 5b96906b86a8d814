//! The fabric: an in-process registry of endpoints plus the delivery
//! machinery that applies the network model and fault plane.
//!
//! A [`Fabric`] plays the role of the physical interconnect. Simulated
//! processes register an address and obtain an [`Endpoint`]; messages sent
//! between endpoints pass through [`FaultPlane::decide`] and are delayed
//! according to the [`NetworkModel`] by a dedicated delivery thread, so a
//! sender never blocks on the latency of its own messages.
//!
//! Delivery is where a message lands, on the delivering thread (the
//! sender's on a free link, the delivery thread on a modelled one): a
//! request or one-way goes into the destination's mailbox, after which the
//! endpoint's arrival hook, if its owner set one, is called; a response
//! completes the request waiting for it right there.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use mochi_util::SeededRng;

use crate::address::Address;
use crate::bulk::BulkRegistry;
use crate::endpoint::{Endpoint, Mailbox, PendingMap};
use crate::error::MercuryError;
use crate::fault::{FaultDecision, FaultPlane};
use crate::message::{Envelope, Message};
use crate::netmodel::NetworkModel;

/// Called by the delivering thread after it queued a request or one-way.
type ArrivalHook = Arc<dyn Fn() + Send + Sync>;

/// State of a registered address.
enum Slot {
    /// Live endpoint.
    Live {
        mailbox: Arc<Mailbox>,
        /// Id of the [`Endpoint`] that owns the slot, so a stale endpoint
        /// being dropped cannot kill a successor registered at the same
        /// address.
        owner: u64,
        /// That endpoint's outstanding requests, which responses complete
        /// at delivery.
        pending: Arc<PendingMap>,
        /// See [`Endpoint::set_arrival_hook`].
        hook: Option<ArrivalHook>,
    },
    /// The endpoint existed but was shut down or crashed: traffic to it is
    /// silently dropped so peers observe timeouts, like a dead node.
    Dead,
}

/// However a live slot goes — killed, replaced, shut down with the fabric —
/// its endpoint's `progress` reads `LocalShutdown` once the mailbox is empty.
/// A slot is taken out of the registry under the registry's lock and dropped
/// after it: the arrival hook may own a whole process, whose teardown calls
/// back into the fabric.
impl Drop for Slot {
    fn drop(&mut self) {
        if let Slot::Live { mailbox, .. } = self {
            mailbox.close();
        }
    }
}

struct DelayedDelivery {
    due: Instant,
    seq: u64,
    envelope: Envelope,
}

impl PartialEq for DelayedDelivery {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for DelayedDelivery {}
impl PartialOrd for DelayedDelivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DelayedDelivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.due.cmp(&other.due).then(self.seq.cmp(&other.seq))
    }
}

#[derive(Default)]
struct SchedulerState {
    heap: BinaryHeap<Reverse<DelayedDelivery>>,
    seq: u64,
    shutdown: bool,
    started: bool,
}

pub(crate) struct FabricInner {
    endpoints: RwLock<HashMap<Address, Slot>>,
    model: RwLock<NetworkModel>,
    pub(crate) faults: FaultPlane,
    pub(crate) bulk: BulkRegistry,
    jitter: Mutex<SeededRng>,
    scheduler: Mutex<SchedulerState>,
    scheduler_cv: Condvar,
    closed: AtomicBool,
}

impl FabricInner {
    /// The single point every message that survived the fault plane and
    /// the network delay goes through. A response wakes its waiter from
    /// this thread; one whose request already timed out, or whose endpoint
    /// died or was re-registered since, finds no waiter and is dropped.
    /// A request or one-way is queued and then announced to the arrival
    /// hook. Both calls out are made with the registry guard released.
    fn deliver_now(&self, envelope: Envelope) {
        let endpoints = self.endpoints.read();
        let Some(Slot::Live { mailbox, pending, hook, .. }) = endpoints.get(&envelope.dest)
        else {
            return;
        };
        match envelope.message {
            Message::Response(response) => {
                // `pending` is a leaf lock.
                let waiter = pending.lock().remove(&response.xid);
                drop(endpoints);
                if let Some(waiter) = waiter {
                    waiter.complete(response);
                }
            }
            _ => {
                mailbox.push(envelope);
                let hook = hook.clone();
                drop(endpoints);
                if let Some(hook) = hook {
                    hook();
                }
            }
        }
    }

    /// See [`Fabric::send`].
    pub(crate) fn send(self: &Arc<Self>, envelope: Envelope) -> Result<(), MercuryError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(MercuryError::LocalShutdown);
        }
        {
            let endpoints = self.endpoints.read();
            match endpoints.get(&envelope.dest) {
                None => return Err(MercuryError::AddressUnknown(envelope.dest.to_string())),
                Some(Slot::Dead) => return Ok(()), // silent drop
                Some(Slot::Live { .. }) => {}
            }
        }
        let (decision, extra) = self.faults.decide(&envelope.source, &envelope.dest);
        if decision == FaultDecision::Drop {
            return Ok(());
        }
        let jitter_draw = self.jitter.lock().next_f64();
        let delay = self
            .model
            .read()
            .delay(&envelope.source, &envelope.dest, envelope.message.payload_len(), jitter_draw)
            + extra;
        if delay.is_zero() {
            self.deliver_now(envelope);
        } else {
            self.schedule(Instant::now() + delay, envelope);
        }
        Ok(())
    }

    fn schedule(self: &Arc<Self>, due: Instant, envelope: Envelope) {
        let mut state = self.scheduler.lock();
        if state.shutdown {
            return;
        }
        if !state.started {
            state.started = true;
            let inner = Arc::clone(self);
            std::thread::Builder::new()
                .name("mercury-delivery".into())
                .spawn(move || inner.delivery_loop())
                .expect("spawn delivery thread");
        }
        let seq = state.seq;
        state.seq += 1;
        state.heap.push(Reverse(DelayedDelivery { due, seq, envelope }));
        drop(state);
        self.scheduler_cv.notify_one();
    }

    fn delivery_loop(self: Arc<Self>) {
        let mut state = self.scheduler.lock();
        loop {
            if state.shutdown {
                return;
            }
            let now = Instant::now();
            // Deliver everything due.
            let mut due_now = Vec::new();
            while let Some(Reverse(top)) = state.heap.peek() {
                if top.due <= now {
                    due_now.push(state.heap.pop().unwrap().0.envelope);
                } else {
                    break;
                }
            }
            if !due_now.is_empty() {
                drop(state);
                for envelope in due_now {
                    self.deliver_now(envelope);
                }
                state = self.scheduler.lock();
                continue;
            }
            match state.heap.peek() {
                Some(Reverse(top)) => {
                    let wait = top.due.saturating_duration_since(now);
                    self.scheduler_cv.wait_for(&mut state, wait);
                }
                None => {
                    self.scheduler_cv.wait(&mut state);
                }
            }
        }
    }
}

/// Handle to the simulated interconnect. Cheap to clone.
#[derive(Clone)]
pub struct Fabric {
    pub(crate) inner: Arc<FabricInner>,
}

impl Default for Fabric {
    fn default() -> Self {
        Self::new()
    }
}

impl Fabric {
    /// Creates a fabric with an instant (zero-latency) network model.
    pub fn new() -> Self {
        Self::with_model(NetworkModel::instant())
    }

    /// Creates a fabric with the given network model.
    pub fn with_model(model: NetworkModel) -> Self {
        Self {
            inner: Arc::new(FabricInner {
                endpoints: RwLock::new(HashMap::new()),
                model: RwLock::new(model),
                faults: FaultPlane::new(),
                bulk: BulkRegistry::new(),
                jitter: Mutex::new(SeededRng::new(0xfab1c)),
                scheduler: Mutex::new(SchedulerState::default()),
                scheduler_cv: Condvar::new(),
                closed: AtomicBool::new(false),
            }),
        }
    }

    /// Replaces the network model (affects messages sent afterwards).
    pub fn set_model(&self, model: NetworkModel) {
        *self.inner.model.write() = model;
    }

    /// Current network model.
    pub fn model(&self) -> NetworkModel {
        *self.inner.model.read()
    }

    /// The fault-injection plane.
    pub fn faults(&self) -> &FaultPlane {
        &self.inner.faults
    }

    /// The bulk-region registry (RDMA emulation).
    pub fn bulk(&self) -> &BulkRegistry {
        &self.inner.bulk
    }

    /// Registers `addr` and returns its endpoint. Re-registering a live
    /// address replaces the previous endpoint (which then reads as shut
    /// down); registering over a dead slot resurrects the address, which
    /// is how a restarted process reuses its address.
    pub fn register(&self, addr: Address) -> Endpoint {
        let mailbox = Arc::new(Mailbox::default());
        let uid = mochi_util::unique_u64();
        let pending = Arc::new(PendingMap::default());
        let slot = Slot::Live {
            mailbox: Arc::clone(&mailbox),
            owner: uid,
            pending: Arc::clone(&pending),
            hook: None,
        };
        let replaced = self.inner.endpoints.write().insert(addr.clone(), slot);
        drop(replaced);
        Endpoint::new(addr, mailbox, uid, pending, Arc::clone(&self.inner))
    }

    /// Installs `hook` on the slot at `addr` if the endpoint identified by
    /// `uid` still owns it.
    pub(crate) fn set_arrival_hook(&self, addr: &Address, uid: u64, hook: ArrivalHook) {
        if let Some(Slot::Live { owner, hook: slot_hook, .. }) =
            self.inner.endpoints.write().get_mut(addr)
        {
            if *owner == uid {
                *slot_hook = Some(hook);
            }
        }
    }

    /// Marks `addr` as crashed: its mailbox is torn down and all traffic
    /// to it is silently dropped from now on.
    pub fn kill(&self, addr: &Address) {
        self.kill_if(addr, |_| true);
    }

    /// Like [`Fabric::kill`], but only if the slot is still owned by the
    /// endpoint identified by `uid` — a stale endpoint shutting down must
    /// not take out a successor registered at the same address.
    pub(crate) fn kill_if_owner(&self, addr: &Address, uid: u64) {
        self.kill_if(addr, |slot| matches!(slot, Slot::Live { owner, .. } if *owner == uid));
    }

    fn kill_if(&self, addr: &Address, doomed: impl FnOnce(&Slot) -> bool) {
        let mut endpoints = self.inner.endpoints.write();
        let killed = endpoints
            .get_mut(addr)
            .filter(|slot| doomed(slot))
            .map(|slot| std::mem::replace(slot, Slot::Dead));
        drop(endpoints);
        drop(killed);
    }

    /// Whether `addr` is currently registered and live.
    pub fn is_live(&self, addr: &Address) -> bool {
        matches!(self.inner.endpoints.read().get(addr), Some(Slot::Live { .. }))
    }

    /// All currently live addresses (diagnostics).
    pub fn live_addresses(&self) -> Vec<Address> {
        self.inner
            .endpoints
            .read()
            .iter()
            .filter(|(_, s)| matches!(s, Slot::Live { .. }))
            .map(|(a, _)| a.clone())
            .collect()
    }

    /// Sends `envelope` through the fault plane and network model.
    ///
    /// Returns `Err(AddressUnknown)` only if the destination was *never*
    /// registered — a programming error. Messages to dead endpoints are
    /// silently dropped (peers must rely on timeouts, like on real HPC
    /// fabrics where a dead node just stops answering).
    pub fn send(&self, envelope: Envelope) -> Result<(), MercuryError> {
        self.inner.send(envelope)
    }

    /// Modeled transfer time for `len` bulk bytes between two addresses.
    pub(crate) fn bulk_delay(&self, a: &Address, b: &Address, len: usize) -> Duration {
        let jitter_draw = self.inner.jitter.lock().next_f64();
        self.inner.model.read().delay(a, b, len, jitter_draw)
    }

    /// Shuts down the fabric: the delivery thread exits and in-flight
    /// delayed messages are discarded. Endpoints read as shut down.
    pub fn shutdown(&self) {
        self.inner.closed.store(true, Ordering::Release);
        {
            let mut state = self.inner.scheduler.lock();
            state.shutdown = true;
            state.heap.clear();
        }
        self.inner.scheduler_cv.notify_all();
        let mut endpoints = self.inner.endpoints.write();
        let killed: Vec<Slot> =
            endpoints.values_mut().map(|slot| std::mem::replace(slot, Slot::Dead)).collect();
        drop(endpoints);
        drop(killed);
    }
}

impl Drop for FabricInner {
    fn drop(&mut self) {
        let mut state = self.scheduler.lock();
        state.shutdown = true;
        drop(state);
        self.scheduler_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, OneWayBody};
    use bytes::Bytes;

    fn oneway(source: &Address, dest: &Address, payload: &'static [u8]) -> Envelope {
        Envelope {
            source: Arc::new(source.clone()),
            dest: dest.clone(),
            message: Message::OneWay(OneWayBody {
                rpc_id: 1,
                provider_id: 0,
                payload: Bytes::from_static(payload),
            }),
        }
    }

    #[test]
    fn register_and_deliver_instant() {
        let fabric = Fabric::new();
        let a = Address::tcp("n1", 1);
        let b = Address::tcp("n2", 1);
        let _ea = fabric.register(a.clone());
        let eb = fabric.register(b.clone());
        fabric.send(oneway(&a, &b, b"hi")).unwrap();
        let incoming = eb.progress(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(incoming.payload(), b"hi".as_slice());
    }

    #[test]
    fn unknown_address_is_an_error() {
        let fabric = Fabric::new();
        let a = Address::tcp("n1", 1);
        let _ea = fabric.register(a.clone());
        let ghost = Address::tcp("ghost", 1);
        let err = fabric.send(oneway(&a, &ghost, b"x")).unwrap_err();
        assert!(matches!(err, MercuryError::AddressUnknown(_)));
    }

    #[test]
    fn dead_endpoint_swallows_silently() {
        let fabric = Fabric::new();
        let a = Address::tcp("n1", 1);
        let b = Address::tcp("n2", 1);
        let _ea = fabric.register(a.clone());
        let _eb = fabric.register(b.clone());
        fabric.kill(&b);
        assert!(!fabric.is_live(&b));
        // No error: the sender cannot tell the difference.
        fabric.send(oneway(&a, &b, b"x")).unwrap();
    }

    #[test]
    fn delayed_delivery_arrives_after_model_latency() {
        let fabric = Fabric::with_model(NetworkModel::slow(Duration::from_millis(20)));
        let a = Address::tcp("n1", 1);
        let b = Address::tcp("n2", 1);
        let _ea = fabric.register(a.clone());
        let eb = fabric.register(b.clone());
        let t0 = Instant::now();
        fabric.send(oneway(&a, &b, b"hi")).unwrap();
        // Not there immediately.
        assert!(eb.progress(Duration::from_millis(1)).unwrap().is_none());
        let incoming = eb.progress(Duration::from_secs(1)).unwrap().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(19));
        assert_eq!(incoming.payload(), b"hi".as_slice());
    }

    #[test]
    fn delayed_messages_preserve_per_link_order() {
        let fabric = Fabric::with_model(NetworkModel::slow(Duration::from_millis(5)));
        let a = Address::tcp("n1", 1);
        let b = Address::tcp("n2", 1);
        let _ea = fabric.register(a.clone());
        let eb = fabric.register(b.clone());
        fabric.send(oneway(&a, &b, b"first")).unwrap();
        fabric.send(oneway(&a, &b, b"second")).unwrap();
        let m1 = eb.progress(Duration::from_secs(1)).unwrap().unwrap();
        let m2 = eb.progress(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(m1.payload(), b"first".as_slice());
        assert_eq!(m2.payload(), b"second".as_slice());
    }

    #[test]
    fn partition_drops_cross_group() {
        let fabric = Fabric::new();
        let a = Address::tcp("n1", 1);
        let b = Address::tcp("n2", 1);
        let _ea = fabric.register(a.clone());
        let eb = fabric.register(b.clone());
        fabric.faults().set_partition(&[vec!["n1".into()], vec!["n2".into()]]);
        fabric.send(oneway(&a, &b, b"x")).unwrap();
        assert!(eb.progress(Duration::from_millis(10)).unwrap().is_none());
        fabric.faults().heal_partition();
        fabric.send(oneway(&a, &b, b"y")).unwrap();
        assert!(eb.progress(Duration::from_secs(1)).unwrap().is_some());
    }

    #[test]
    fn reregistering_resurrects_address() {
        let fabric = Fabric::new();
        let a = Address::tcp("n1", 1);
        let b = Address::tcp("n2", 1);
        let _ea = fabric.register(a.clone());
        let eb = fabric.register(b.clone());
        fabric.kill(&b);
        drop(eb);
        let eb2 = fabric.register(b.clone());
        assert!(fabric.is_live(&b));
        fabric.send(oneway(&a, &b, b"back")).unwrap();
        assert!(eb2.progress(Duration::from_secs(1)).unwrap().is_some());
    }

    /// What Margo's hook does when it holds the last handle to its runtime:
    /// its drop shuts the endpoint down, which locks the registry.
    #[test]
    fn a_hook_may_call_the_fabric_when_it_is_dropped() {
        struct CallsBack(Fabric, Address);
        impl Drop for CallsBack {
            fn drop(&mut self) {
                self.0.kill(&self.1);
            }
        }
        let fabric = Fabric::new();
        let addr = Address::tcp("n1", 1);
        let hooked = |fabric: &Fabric| {
            let endpoint = fabric.register(addr.clone());
            let owned = CallsBack(fabric.clone(), addr.clone());
            endpoint.set_arrival_hook(move || {
                let _ = &owned;
            });
            endpoint
        };
        let killed = hooked(&fabric);
        fabric.kill(&addr);
        let replaced = hooked(&fabric);
        let closed = hooked(&fabric);
        closed.shutdown();
        let _swept = hooked(&fabric);
        fabric.shutdown();
        drop((killed, replaced));
    }

    #[test]
    fn shutdown_stops_sends() {
        let fabric = Fabric::new();
        let a = Address::tcp("n1", 1);
        let _ea = fabric.register(a.clone());
        fabric.shutdown();
        let err = fabric.send(oneway(&a, &a, b"x")).unwrap_err();
        assert_eq!(err, MercuryError::LocalShutdown);
    }
}
