//! Endpoints: the per-process attachment point to the fabric.
//!
//! An [`Endpoint`] reads the mailbox of one address. Whoever owns it calls
//! [`Endpoint::progress`], which hands requests/notifications back for
//! dispatch — the `HG_Progress`/`HG_Trigger` half of Mercury that runs
//! handlers. A raw endpoint (tests, the `mercury.rtt_ns` rung) polls or
//! blocks in it; Margo instead installs an arrival hook
//! ([`Endpoint::set_arrival_hook`]), which the delivering thread calls
//! after queueing a message, and drains the mailbox from a ULT without
//! ever blocking here. The other half, completing a forward when its
//! response arrives, needs no progress call at all: the fabric fills the
//! request's completion slot at delivery (see `FabricInner::deliver_now`),
//! as a completion callback runs on whichever thread makes progress.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use mochi_util::ordered_lock::{rank, OrderedMutex, OrderedMutexGuard};
use mochi_util::time::precise_sleep;
use mochi_util::IdMap;
use mochi_util::Flag;

use crate::address::Address;
use crate::bulk::{BulkAccess, BulkHandle};
use crate::error::MercuryError;
use crate::fabric::FabricInner;
use crate::message::{Envelope, Message, OneWayBody, RequestBody, ResponseBody, ResponseStatus};

/// Calling context carried by requests: identifies the parent RPC when a
/// handler issues nested RPCs (Listing 1 reports these fields) and carries
/// the absolute deadline the whole call chain must finish by, so nested
/// forwards inherit the parent's *remaining* budget rather than restarting
/// from the default timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallContext {
    /// RPC id of the parent handler, or `u64::MAX` at top level.
    pub parent_rpc_id: u64,
    /// Provider id of the parent handler, or `u16::MAX` at top level.
    pub parent_provider_id: u16,
    /// Absolute deadline inherited from the parent call, if any.
    pub deadline: Option<Instant>,
}

impl CallContext {
    /// Context for calls made outside any handler.
    pub const TOP_LEVEL: CallContext =
        CallContext { parent_rpc_id: u64::MAX, parent_provider_id: u16::MAX, deadline: None };

    /// Same parentage with the deadline replaced.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }
}

impl Default for CallContext {
    fn default() -> Self {
        Self::TOP_LEVEL
    }
}

/// An incoming message surfaced by [`Endpoint::progress`].
#[derive(Debug)]
pub enum Incoming {
    /// A request that must eventually be answered via [`Endpoint::respond`].
    Request(RequestInfo),
    /// A fire-and-forget notification.
    OneWay(OneWayInfo),
}

/// A received request plus everything needed to respond to it.
///
/// The source address is `Arc`-shared: the upper layers (Margo dispatch,
/// monitoring events, response routing) all reference the same address many
/// times per request, and an `Arc` bump is far cheaper than cloning the
/// address each time.
#[derive(Debug, Clone)]
pub struct RequestInfo {
    /// Address of the requester.
    pub source: Arc<Address>,
    /// RPC id.
    pub rpc_id: u64,
    /// Target provider id.
    pub provider_id: u16,
    /// Correlation id (echoed in the response).
    pub xid: u64,
    /// Context the request was issued from.
    pub context: CallContext,
    /// Serialized input.
    pub payload: Bytes,
}

/// A received one-way notification.
#[derive(Debug, Clone)]
pub struct OneWayInfo {
    /// Address of the sender (`Arc`-shared, see [`RequestInfo`]).
    pub source: Arc<Address>,
    /// RPC id.
    pub rpc_id: u64,
    /// Target provider id.
    pub provider_id: u16,
    /// Serialized payload.
    pub payload: Bytes,
}

/// Sleeps on `cv` until `ready` finds what it waits for in the guarded
/// state or `timeout` runs out. A zero timeout polls: no clock is read and
/// nothing sleeps.
fn wait_for_some<S, T>(
    cv: &Condvar,
    state: &mut OrderedMutexGuard<'_, S>,
    timeout: Duration,
    mut ready: impl FnMut(&mut S) -> Option<T>,
) -> Option<T> {
    if let Some(found) = ready(state) {
        return Some(found);
    }
    if timeout.is_zero() {
        return None;
    }
    let start = Instant::now();
    let mut left = timeout;
    loop {
        state.wait_for(cv, left);
        if let Some(found) = ready(state) {
            return Some(found);
        }
        // Woken for nothing, or out of time.
        left = timeout.saturating_sub(start.elapsed());
        if left.is_zero() {
            return None;
        }
    }
}

/// Where one outstanding request's response lands: filled once, by the
/// thread that delivers it, which signals only a caller already asleep.
/// Nothing is taken under its lock, like an xstream's `Parker`.
pub(crate) struct Completion {
    state: OrderedMutex<CompletionState>,
    filled: Condvar,
}

impl Default for Completion {
    fn default() -> Self {
        Self {
            state: OrderedMutex::new(
                rank::MERCURY_COMPLETION,
                "mercury.completion",
                CompletionState::default(),
            ),
            filled: Condvar::new(),
        }
    }
}

#[derive(Default)]
struct CompletionState {
    response: Option<ResponseBody>,
    waiting: bool,
}

impl Completion {
    pub(crate) fn complete(&self, response: ResponseBody) {
        let mut state = self.state.lock();
        state.response = Some(response);
        let waiting = state.waiting;
        drop(state);
        if waiting {
            self.filled.notify_one();
        }
    }
}

/// An endpoint's outstanding requests by xid, shared with its fabric slot.
/// Never held across a call into the fabric or a completion.
pub(crate) type PendingMap = OrderedMutex<IdMap<u64, Arc<Completion>>>;

/// An empty [`PendingMap`].
pub(crate) fn pending_map() -> PendingMap {
    OrderedMutex::new(rank::MERCURY_PENDING, "mercury.pending", IdMap::default())
}

/// An outstanding request; wait on it for the response. Dropping it,
/// waited on or not, withdraws the request from the endpoint's map: a
/// caller that posts and then gives up leaves nothing behind for a peer
/// that never answers.
#[must_use = "wait on the pending request to obtain the response"]
pub struct PendingRequest {
    xid: u64,
    completion: Arc<Completion>,
    pending: Arc<PendingMap>,
}

impl PendingRequest {
    /// Blocks until the response arrives or `timeout` elapses; a zero
    /// timeout polls.
    pub fn wait(self, timeout: Duration) -> Result<ResponseBody, MercuryError> {
        let mut state = self.completion.state.lock();
        state.waiting = true;
        wait_for_some(&self.completion.filled, &mut state, timeout, |state| state.response.take())
            .ok_or(MercuryError::Timeout)
    }
}

impl Drop for PendingRequest {
    fn drop(&mut self) {
        self.pending.lock().remove(&self.xid);
    }
}

/// Requests and one-ways delivered to an address and not yet taken by its
/// endpoint. `push` signals only a reader blocked in `pop`: an owner that
/// drains from an arrival hook never is.
pub(crate) struct Mailbox {
    state: OrderedMutex<MailboxState>,
    arrived: Condvar,
}

impl Default for Mailbox {
    fn default() -> Self {
        Self {
            state: OrderedMutex::new(
                rank::MERCURY_MAILBOX,
                "mercury.mailbox",
                MailboxState::default(),
            ),
            arrived: Condvar::new(),
        }
    }
}

#[derive(Default)]
struct MailboxState {
    queue: VecDeque<Envelope>,
    blocked_readers: usize,
    /// The fabric slot that fed this mailbox is gone (killed, replaced or
    /// shut down): what is queued can still be read, nothing more arrives.
    closed: bool,
}

impl Mailbox {
    pub(crate) fn push(&self, envelope: Envelope) {
        let mut state = self.state.lock();
        if state.closed {
            return;
        }
        state.queue.push_back(envelope);
        let blocked = state.blocked_readers > 0;
        drop(state);
        if blocked {
            self.arrived.notify_one();
        }
    }

    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
        self.arrived.notify_all();
    }

    /// The next message, waiting up to `timeout` for one; `LocalShutdown`
    /// once the mailbox is closed and empty.
    fn pop(&self, timeout: Duration) -> Result<Option<Envelope>, MercuryError> {
        let mut state = self.state.lock();
        state.blocked_readers += 1;
        let next = wait_for_some(&self.arrived, &mut state, timeout, |state| {
            match state.queue.pop_front() {
                Some(envelope) => Some(Ok(envelope)),
                None if state.closed => Some(Err(MercuryError::LocalShutdown)),
                None => None,
            }
        });
        state.blocked_readers -= 1;
        next.transpose()
    }
}

/// A process's attachment to the fabric.
pub struct Endpoint {
    addr: Arc<Address>,
    /// Identifies this endpoint to the fabric (see `Fabric::kill_if_owner`).
    uid: u64,
    mailbox: Arc<Mailbox>,
    fabric: Arc<FabricInner>,
    pending: Arc<PendingMap>,
    next_xid: AtomicU64,
    closed: Flag,
}

impl Endpoint {
    pub(crate) fn new(
        addr: Address,
        mailbox: Arc<Mailbox>,
        uid: u64,
        pending: Arc<PendingMap>,
        fabric: Arc<FabricInner>,
    ) -> Self {
        Self {
            addr: Arc::new(addr),
            uid,
            mailbox,
            fabric,
            pending,
            // Counting from a per-endpoint random origin keeps a late
            // response to a predecessor at this address from matching a
            // request of its successor.
            next_xid: AtomicU64::new(uid),
            closed: Flag::new(false),
        }
    }

    /// This endpoint's address.
    pub fn address(&self) -> &Address {
        &self.addr
    }

    /// Installs the arrival hook: from now on the thread that delivers a
    /// request or a one-way to this endpoint — the sender's on a free
    /// link, `mercury-delivery` on a modelled one — calls `hook` once the
    /// message is queued, holding no lock of the fabric. Responses never
    /// call it. An owner that drains the mailbox from its hook (Margo
    /// schedules a ULT) needs no thread blocked in [`Endpoint::progress`].
    /// The fabric slot holds the hook and drops it with the slot, so the
    /// hook may own what owns this endpoint. Set once; on an endpoint
    /// whose slot is already gone it is dropped unused.
    pub fn set_arrival_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        self.fabric_handle().set_arrival_hook(&self.addr, self.uid, Arc::new(hook));
    }

    fn fabric_handle(&self) -> crate::fabric::Fabric {
        crate::fabric::Fabric { inner: Arc::clone(&self.fabric) }
    }

    fn ensure_open(&self) -> Result<(), MercuryError> {
        if self.closed.get() {
            Err(MercuryError::LocalShutdown)
        } else {
            Ok(())
        }
    }

    /// Sends a request; the returned [`PendingRequest`] completes when the
    /// fabric delivers the response, on the delivering thread — no call to
    /// [`Endpoint::progress`] on this endpoint is involved.
    pub fn send_request(
        &self,
        dest: &Address,
        rpc_id: u64,
        provider_id: u16,
        context: CallContext,
        payload: Bytes,
    ) -> Result<PendingRequest, MercuryError> {
        self.ensure_open()?;
        let xid = self.next_xid.fetch_add(1, Ordering::Relaxed);
        let completion = Arc::new(Completion::default());
        self.pending.lock().insert(xid, Arc::clone(&completion));
        let envelope = Envelope {
            source: Arc::clone(&self.addr),
            dest: dest.clone(),
            message: Message::Request(RequestBody {
                rpc_id,
                provider_id,
                xid,
                parent_rpc_id: context.parent_rpc_id,
                parent_provider_id: context.parent_provider_id,
                deadline: context.deadline,
                payload,
            }),
        };
        if let Err(e) = self.fabric.send(envelope) {
            self.pending.lock().remove(&xid);
            return Err(e);
        }
        Ok(PendingRequest { xid, completion, pending: Arc::clone(&self.pending) })
    }

    /// Sends a fire-and-forget notification.
    pub fn send_oneway(
        &self,
        dest: &Address,
        rpc_id: u64,
        provider_id: u16,
        payload: Bytes,
    ) -> Result<(), MercuryError> {
        self.ensure_open()?;
        let envelope = Envelope {
            source: Arc::clone(&self.addr),
            dest: dest.clone(),
            message: Message::OneWay(OneWayBody { rpc_id, provider_id, payload }),
        };
        self.fabric.send(envelope)
    }

    /// Answers `request` with `status` and `payload`.
    pub fn respond(
        &self,
        request: &RequestInfo,
        status: ResponseStatus,
        payload: Bytes,
    ) -> Result<(), MercuryError> {
        self.ensure_open()?;
        let envelope = Envelope {
            source: Arc::clone(&self.addr),
            dest: (*request.source).clone(),
            message: Message::Response(ResponseBody { xid: request.xid, status, payload }),
        };
        self.fabric.send(envelope)
    }

    /// Waits up to `timeout` for the next request or one-way message and
    /// returns it for dispatch; `Ok(None)` means the timeout elapsed
    /// quietly, and a zero timeout polls without blocking. Responses never
    /// pass through here (the fabric completes them at delivery), so a
    /// process that only forwards has nothing to progress.
    pub fn progress(&self, timeout: Duration) -> Result<Option<Incoming>, MercuryError> {
        self.ensure_open()?;
        let Some(envelope) = self.mailbox.pop(timeout)? else {
            return Ok(None);
        };
        let source = envelope.source;
        Ok(match envelope.message {
            Message::Request(req) => Some(Incoming::Request(RequestInfo {
                source,
                rpc_id: req.rpc_id,
                provider_id: req.provider_id,
                xid: req.xid,
                context: CallContext {
                    parent_rpc_id: req.parent_rpc_id,
                    parent_provider_id: req.parent_provider_id,
                    deadline: req.deadline,
                },
                payload: req.payload,
            })),
            Message::OneWay(ow) => Some(Incoming::OneWay(OneWayInfo {
                source,
                rpc_id: ow.rpc_id,
                provider_id: ow.provider_id,
                payload: ow.payload,
            })),
            // The fabric never queues a response.
            Message::Response(_) => None,
        })
    }

    /// Exposes an in-memory buffer for bulk access by remote peers.
    pub fn expose_bulk(&self, buffer: Arc<Mutex<Vec<u8>>>, access: BulkAccess) -> BulkHandle {
        self.fabric.bulk.expose(&self.addr, buffer, access)
    }

    /// Exposes a file region for bulk access by remote peers.
    pub fn expose_bulk_file(
        &self,
        path: impl Into<std::path::PathBuf>,
        size: usize,
        access: BulkAccess,
    ) -> std::io::Result<BulkHandle> {
        self.fabric.bulk.expose_file(&self.addr, path, size, access)
    }

    /// Revokes a bulk registration made by this endpoint.
    pub fn unexpose_bulk(&self, handle: &BulkHandle) {
        self.fabric.bulk.unexpose(handle);
    }

    fn bulk_check_reachable(&self, remote: &BulkHandle) -> Result<(), MercuryError> {
        use crate::fault::FaultDecision;
        let (decision, _) = self.fabric.faults.decide(&self.addr, &remote.owner);
        if decision == FaultDecision::Drop {
            // RDMA to an unreachable peer surfaces as a timeout in real
            // deployments; we fail fast but with the same error class.
            return Err(MercuryError::Timeout);
        }
        Ok(())
    }

    fn charge_bulk_time(&self, remote: &BulkHandle, len: usize) {
        let delay = self.fabric_handle().bulk_delay(&self.addr, &remote.owner, len);
        precise_sleep(delay);
    }

    /// Pulls `len` bytes from `remote[remote_offset..]` into
    /// `local[local_offset..]` (both must be registered). Charges the
    /// modeled transfer time against the calling thread, like a blocking
    /// `margo_bulk_transfer`.
    pub fn bulk_pull(
        &self,
        remote: &BulkHandle,
        remote_offset: usize,
        local: &BulkHandle,
        local_offset: usize,
        len: usize,
    ) -> Result<(), MercuryError> {
        self.ensure_open()?;
        self.bulk_check_reachable(remote)?;
        let data = self.fabric.bulk.read(remote.id, remote_offset, len)?;
        self.fabric.bulk.write(local.id, local_offset, &data)?;
        self.charge_bulk_time(remote, len);
        Ok(())
    }

    /// Pushes `len` bytes from `local[local_offset..]` into
    /// `remote[remote_offset..]`.
    pub fn bulk_push(
        &self,
        local: &BulkHandle,
        local_offset: usize,
        remote: &BulkHandle,
        remote_offset: usize,
        len: usize,
    ) -> Result<(), MercuryError> {
        self.ensure_open()?;
        self.bulk_check_reachable(remote)?;
        let data = self.fabric.bulk.read(local.id, local_offset, len)?;
        self.fabric.bulk.write(remote.id, remote_offset, &data)?;
        self.charge_bulk_time(remote, len);
        Ok(())
    }

    /// Marks the endpoint closed locally and tells the fabric to drop
    /// traffic addressed to it — unless a newer endpoint has since been
    /// registered at the same address (a restarted process).
    pub fn shutdown(&self) {
        if self.closed.swap(true) {
            return;
        }
        self.fabric_handle().kill_if_owner(&self.addr, self.uid);
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        if !self.closed.get() {
            self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use crate::fault::LinkScript;
    use crate::netmodel::NetworkModel;

    fn pair(fabric: &Fabric) -> (Endpoint, Endpoint) {
        (fabric.register(Address::tcp("n1", 1)), fabric.register(Address::tcp("n2", 1)))
    }

    /// Serves `count` requests on `server` by echoing the payload back.
    fn echo_server(server: &Endpoint, count: usize) {
        for _ in 0..count {
            let incoming = server.progress(Duration::from_secs(5)).unwrap().unwrap();
            if let Incoming::Request(req) = incoming {
                let payload = req.payload.clone();
                server.respond(&req, ResponseStatus::Ok, payload).unwrap();
            }
        }
    }

    fn ping(client: &Endpoint, server: &Endpoint) -> PendingRequest {
        client
            .send_request(
                server.address(),
                42,
                0,
                CallContext::TOP_LEVEL,
                Bytes::from_static(b"ping"),
            )
            .unwrap()
    }

    /// The single-threaded sequence a caller that drives both ends uses:
    /// the client's `progress` finds nothing and the response is there.
    #[test]
    fn request_response_roundtrip() {
        let fabric = Fabric::new();
        let (client, server) = pair(&fabric);
        let pending = ping(&client, &server);
        echo_server(&server, 1);
        assert!(client.progress(Duration::ZERO).unwrap().is_none());
        let resp = pending.wait(Duration::from_secs(1)).unwrap();
        assert_eq!(resp.status, ResponseStatus::Ok);
        assert_eq!(&resp.payload[..], b"ping");
    }

    #[test]
    fn response_completes_without_client_progress() {
        let fabric = Fabric::new();
        let (client, server) = pair(&fabric);
        let pending = ping(&client, &server);
        echo_server(&server, 1);
        // Already delivered: a zero wait polls the completed request.
        let resp = pending.wait(Duration::ZERO).unwrap();
        assert_eq!(&resp.payload[..], b"ping");
    }

    #[test]
    fn delayed_response_completes_without_client_progress() {
        let latency = Duration::from_millis(10);
        let fabric = Fabric::with_model(NetworkModel::slow(latency));
        let (client, server) = pair(&fabric);
        let t0 = Instant::now();
        let pending = ping(&client, &server);
        echo_server(&server, 1);
        let resp = pending.wait(Duration::from_secs(5)).unwrap();
        assert_eq!(&resp.payload[..], b"ping");
        // One modelled latency each way.
        assert!(t0.elapsed() >= 2 * latency - Duration::from_millis(1), "{:?}", t0.elapsed());
    }

    #[test]
    fn faults_still_drop_responses() {
        let fabric = Fabric::new();
        let (client, server) = pair(&fabric);
        fabric.faults().push_script(Some("n2"), Some("n1"), LinkScript::FailFirst(1));
        let pending = ping(&client, &server);
        echo_server(&server, 1);
        assert_eq!(pending.wait(Duration::from_millis(20)).unwrap_err(), MercuryError::Timeout);
        // The script is spent: the next response gets through...
        let pending = ping(&client, &server);
        echo_server(&server, 1);
        pending.wait(Duration::ZERO).unwrap();
        // ...until a partition cuts the way back (the request is let in
        // before the cut so only the response meets it).
        let pending = ping(&client, &server);
        fabric.faults().set_partition(&[vec!["n1".into()], vec!["n2".into()]]);
        echo_server(&server, 1);
        assert_eq!(pending.wait(Duration::from_millis(20)).unwrap_err(), MercuryError::Timeout);
    }

    #[test]
    fn response_without_a_waiter_is_dropped() {
        let fabric = Fabric::new();
        let (client, server) = pair(&fabric);
        let client_addr = client.address().clone();
        let take_request = |server: &Endpoint| match server.progress(Duration::ZERO).unwrap() {
            Some(Incoming::Request(request)) => request,
            other => panic!("expected a request, got {other:?}"),
        };

        // The waiter gave up before the answer.
        let pending = ping(&client, &server);
        let late = take_request(&server);
        assert_eq!(pending.wait(Duration::ZERO).unwrap_err(), MercuryError::Timeout);
        server.respond(&late, ResponseStatus::Ok, Bytes::new()).unwrap();

        // The requester was killed.
        let _abandoned = ping(&client, &server);
        let to_dead = take_request(&server);
        fabric.kill(&client_addr);
        server.respond(&to_dead, ResponseStatus::Ok, Bytes::new()).unwrap();

        // A successor took the address: the predecessor's answer must not
        // complete the successor's own outstanding request.
        let successor = fabric.register(client_addr);
        let own = ping(&successor, &server);
        server.respond(&to_dead, ResponseStatus::Ok, Bytes::from_static(b"stale")).unwrap();
        assert_eq!(own.wait(Duration::ZERO).unwrap_err(), MercuryError::Timeout);
        assert!(successor.progress(Duration::ZERO).unwrap().is_none());
    }

    #[test]
    fn arrival_hook_fires_for_requests_and_oneways_only() {
        let fabric = Fabric::new();
        let (client, server) = pair(&fabric);
        let arrivals = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&arrivals);
        server.set_arrival_hook(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        let pending = ping(&client, &server);
        assert_eq!(arrivals.load(Ordering::SeqCst), 1);
        client.send_oneway(server.address(), 7, 0, Bytes::new()).unwrap();
        assert_eq!(arrivals.load(Ordering::SeqCst), 2);
        // The hook announces, it does not consume: both are in the mailbox.
        // The response goes to the client, which has no hook to call.
        echo_server(&server, 2);
        pending.wait(Duration::ZERO).unwrap();
        assert_eq!(arrivals.load(Ordering::SeqCst), 2);
        // A request in the other direction completes on the hooked endpoint
        // without announcing itself there.
        let pending = ping(&server, &client);
        echo_server(&client, 1);
        pending.wait(Duration::ZERO).unwrap();
        assert_eq!(arrivals.load(Ordering::SeqCst), 2);
        // Dropped by the fault plane before delivery: nothing arrived.
        fabric.faults().push_script(Some("n1"), Some("n2"), LinkScript::FailFirst(1));
        let _lost = ping(&client, &server);
        assert_eq!(arrivals.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn arrival_hook_runs_on_the_delivery_thread_of_a_modelled_link() {
        let fabric = Fabric::with_model(NetworkModel::slow(Duration::from_millis(2)));
        let (client, server) = pair(&fabric);
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = Mutex::new(tx);
        server.set_arrival_hook(move || {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "the test reads the first arrival only: later ones find the receiver gone"
            )]
            let _ = tx.lock().send(std::thread::current().name().map(str::to_string));
        });
        let _pending = ping(&client, &server);
        let thread = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(thread.as_deref(), Some("mercury-delivery"));
        assert!(server.progress(Duration::ZERO).unwrap().is_some(), "queued before the hook ran");
    }

    #[test]
    fn a_slot_that_goes_wakes_its_blocked_reader() {
        let fabric = Fabric::new();
        let (client, server) = pair(&fabric);
        let blocked = |endpoint: &Endpoint| endpoint.mailbox.state.lock().blocked_readers;
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| server.progress(Duration::from_secs(30)));
            while blocked(&server) == 0 {
                std::thread::yield_now();
            }
            fabric.kill(server.address());
            assert_eq!(reader.join().unwrap().unwrap_err(), MercuryError::LocalShutdown);
        });
        // A replaced slot: what was queued can still be read, then the same.
        let _pending = ping(&server, &client);
        let _successor = fabric.register(client.address().clone());
        assert!(client.progress(Duration::from_secs(30)).unwrap().is_some());
        assert_eq!(
            client.progress(Duration::from_secs(30)).unwrap_err(),
            MercuryError::LocalShutdown
        );
    }

    #[test]
    fn request_to_dead_endpoint_times_out() {
        let fabric = Fabric::new();
        let (client, server) = pair(&fabric);
        let dest = server.address().clone();
        server.shutdown();
        let pending = client
            .send_request(&dest, 1, 0, CallContext::TOP_LEVEL, Bytes::new())
            .unwrap();
        let err = pending.wait(Duration::from_millis(50)).unwrap_err();
        assert_eq!(err, MercuryError::Timeout);
    }

    #[test]
    fn dropped_request_leaves_no_waiter_behind() {
        let fabric = Fabric::new();
        let (client, server) = pair(&fabric);
        let dest = server.address().clone();
        server.shutdown();
        let pending =
            client.send_request(&dest, 1, 0, CallContext::TOP_LEVEL, Bytes::new()).unwrap();
        assert_eq!(client.pending.lock().len(), 1);
        drop(pending);
        assert!(client.pending.lock().is_empty(), "the dead peer will never clear it");
        // A wait that times out clears it the same way.
        let pending =
            client.send_request(&dest, 1, 0, CallContext::TOP_LEVEL, Bytes::new()).unwrap();
        pending.wait(Duration::ZERO).unwrap_err();
        assert!(client.pending.lock().is_empty());
    }

    #[test]
    fn oneway_delivery() {
        let fabric = Fabric::new();
        let (client, server) = pair(&fabric);
        client.send_oneway(server.address(), 7, 3, Bytes::from_static(b"note")).unwrap();
        let incoming = server.progress(Duration::from_secs(1)).unwrap().unwrap();
        match incoming {
            Incoming::OneWay(ow) => {
                assert_eq!(ow.rpc_id, 7);
                assert_eq!(ow.provider_id, 3);
                assert_eq!(&ow.payload[..], b"note");
                assert_eq!(&*ow.source, client.address());
            }
            other => panic!("expected OneWay, got {other:?}"),
        }
    }

    #[test]
    fn context_propagates_to_server() {
        let fabric = Fabric::new();
        let (client, server) = pair(&fabric);
        let ctx = CallContext { parent_rpc_id: 99, parent_provider_id: 4, deadline: None };
        let _pending =
            client.send_request(server.address(), 1, 0, ctx, Bytes::new()).unwrap();
        let incoming = server.progress(Duration::from_secs(1)).unwrap().unwrap();
        match incoming {
            Incoming::Request(req) => assert_eq!(req.context, ctx),
            other => panic!("expected Request, got {other:?}"),
        }
    }

    #[test]
    fn progress_timeout_returns_none() {
        let fabric = Fabric::new();
        let (_client, server) = pair(&fabric);
        assert!(server.progress(Duration::from_millis(10)).unwrap().is_none());
    }

    #[test]
    fn closed_endpoint_errors_locally() {
        let fabric = Fabric::new();
        let (client, server) = pair(&fabric);
        client.shutdown();
        let Err(err) =
            client.send_request(server.address(), 1, 0, CallContext::TOP_LEVEL, Bytes::new())
        else {
            panic!("send on closed endpoint should fail")
        };
        assert_eq!(err, MercuryError::LocalShutdown);
        assert_eq!(client.progress(Duration::ZERO).unwrap_err(), MercuryError::LocalShutdown);
    }

    #[test]
    fn bulk_pull_moves_data() {
        let fabric = Fabric::new();
        let (client, server) = pair(&fabric);
        let remote_buf = Arc::new(Mutex::new((0u8..100).collect::<Vec<_>>()));
        let remote = server.expose_bulk(Arc::clone(&remote_buf), BulkAccess::ReadOnly);
        let local_buf = Arc::new(Mutex::new(vec![0u8; 50]));
        let local = client.expose_bulk(Arc::clone(&local_buf), BulkAccess::ReadWrite);
        client.bulk_pull(&remote, 10, &local, 0, 50).unwrap();
        assert_eq!(&local_buf.lock()[..5], &[10, 11, 12, 13, 14]);
    }

    #[test]
    fn bulk_push_moves_data() {
        let fabric = Fabric::new();
        let (client, server) = pair(&fabric);
        let remote_buf = Arc::new(Mutex::new(vec![0u8; 10]));
        let remote = server.expose_bulk(Arc::clone(&remote_buf), BulkAccess::WriteOnly);
        let local_buf = Arc::new(Mutex::new(vec![5u8; 10]));
        let local = client.expose_bulk(Arc::clone(&local_buf), BulkAccess::ReadOnly);
        client.bulk_push(&local, 0, &remote, 0, 10).unwrap();
        assert_eq!(*remote_buf.lock(), vec![5u8; 10]);
    }

    #[test]
    fn bulk_to_partitioned_peer_fails() {
        let fabric = Fabric::new();
        let (client, server) = pair(&fabric);
        let remote = server.expose_bulk(Arc::new(Mutex::new(vec![0u8; 4])), BulkAccess::ReadWrite);
        let local = client.expose_bulk(Arc::new(Mutex::new(vec![0u8; 4])), BulkAccess::ReadWrite);
        fabric.faults().set_partition(&[vec!["n1".into()], vec!["n2".into()]]);
        let err = client.bulk_pull(&remote, 0, &local, 0, 4).unwrap_err();
        assert_eq!(err, MercuryError::Timeout);
    }

    #[test]
    fn bulk_transfer_charges_modeled_time() {
        let fabric = Fabric::new();
        fabric.set_model(NetworkModel {
            inter_node: crate::netmodel::LinkParams {
                latency_us: 0.0,
                bandwidth_gib_s: 1.0, // 1 MiB at 1 GiB/s ≈ 0.98 ms
                jitter_frac: 0.0,
            },
            ..NetworkModel::instant()
        });
        let (client, server) = pair(&fabric);
        let size = 1 << 20;
        let remote = server.expose_bulk(Arc::new(Mutex::new(vec![1u8; size])), BulkAccess::ReadOnly);
        let local = client.expose_bulk(Arc::new(Mutex::new(vec![0u8; size])), BulkAccess::ReadWrite);
        let t0 = std::time::Instant::now();
        client.bulk_pull(&remote, 0, &local, 0, size).unwrap();
        assert!(t0.elapsed() >= Duration::from_micros(900));
    }
}
