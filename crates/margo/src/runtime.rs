//! The Margo runtime: one simulated Mochi process.
//!
//! Owns the process's endpoint, its Argobots topology, the RPC handler
//! registry, and the monitoring pipeline. Network progress is a ULT of
//! `progress_pool`, scheduled by the endpoint's arrival hook: no thread of
//! the process exists only to receive. The dynamic capabilities of the
//! paper live here:
//!
//! * §4 performance introspection: every RPC lifecycle step is emitted to
//!   the installed [`Monitor`]s; [`MargoRuntime::monitoring_json`] is the
//!   runtime query API and `finalize` returns the final dump;
//! * §5 online reconfiguration: [`MargoRuntime::add_pool_from_json`],
//!   [`MargoRuntime::remove_pool`], [`MargoRuntime::add_xstream_from_json`]
//!   and [`MargoRuntime::remove_xstream`] mutate the live topology under
//!   the validity rules the paper describes.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use serde::de::DeserializeOwned;
use serde::Serialize;
use serde_json::Value;

use mochi_argobots::{AbtRuntime, Pool, PoolConfig, Ult, XstreamConfig};
use mochi_mercury::{
    Address, BulkAccess, BulkHandle, CallContext, Endpoint, Fabric, Incoming, MercuryError,
    PendingRequest, RequestInfo, ResponseStatus,
};
use mochi_util::ordered_lock::{rank, OrderedMutex, OrderedRwLock};
use mochi_util::IdMap;
use mochi_util::time::monotonic_seconds;

use crate::breaker::{Admission, BreakerRegistry};
use crate::config::MargoConfig;
use crate::error::MargoError;
use crate::retry::RetryPolicy;
use crate::monitoring::{
    BulkDirection, CompositeMonitor, Monitor, MonitoringEvent, RpcIdentity, RuntimeSample,
    StatisticsMonitor,
};
use crate::rpc::{rpc_id_for_name, RpcContext, RpcHandler};

/// Interns an RPC name as an `Arc<str>` in a per-thread cache, so the
/// forward hot path does not allocate a fresh `Arc<str>` for every call of
/// the same RPC. Thread-local to stay lock-free (the lock-rank graph gains
/// no edges from this).
fn cached_rpc_name(rpc_name: &str) -> Arc<str> {
    thread_local! {
        static NAMES: std::cell::RefCell<HashMap<String, Arc<str>>> =
            std::cell::RefCell::new(HashMap::new());
    }
    NAMES.with(|cell| {
        let mut names = cell.borrow_mut();
        if let Some(name) = names.get(rpc_name) {
            Arc::clone(name)
        } else {
            let name: Arc<str> = Arc::from(rpc_name);
            names.insert(rpc_name.to_string(), Arc::clone(&name));
            name
        }
    })
}

struct Registration {
    name: Arc<str>,
    pool_name: Arc<str>,
    /// Resolved once, at registration: `remove_pool` refuses a pool with
    /// registrations, so it cannot go stale.
    pool: Arc<Pool>,
    handler: RpcHandler,
}

/// Fixed at `init`: read on every RPC, so deliberately behind no lock.
struct Meta {
    /// `remove_pool` refuses it, `remove_xstream` its last xstream.
    progress_pool: Arc<Pool>,
    default_rpc_pool: String,
    rpc_timeout: Duration,
    monitoring_enabled: bool,
    sampling_period: Duration,
}

struct Inner {
    endpoint: Endpoint,
    fabric: Fabric,
    abt: AbtRuntime,
    meta: Meta,
    handlers: OrderedRwLock<IdMap<(u64, u16), Arc<Registration>>>,
    monitor: OrderedRwLock<Arc<CompositeMonitor>>,
    stats: Option<Arc<StatisticsMonitor>>,
    retry: RetryPolicy,
    breakers: BreakerRegistry,
    /// RPC ids declared safe to retry (see
    /// [`MargoRuntime::declare_idempotent`]). Everything else is
    /// never auto-retried.
    idempotent: OrderedRwLock<HashSet<u64>>,
    in_flight_client: AtomicI64,
    in_flight_server: AtomicI64,
    /// A progress ULT is queued in `progress_pool` and has not yet begun
    /// to drain the mailbox (see `arm_progress`).
    progress_armed: AtomicBool,
    finalized: AtomicBool,
    threads: OrderedMutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Handle to a running Margo instance. Cheap to clone; all clones refer
/// to the same process.
#[derive(Clone)]
pub struct MargoRuntime {
    inner: Arc<Inner>,
}

impl MargoRuntime {
    /// Boots a Margo instance at `addr` on `fabric` with `config`
    /// (`margo_init_ext` equivalent).
    pub fn init(fabric: &Fabric, addr: Address, config: &MargoConfig) -> Result<Self, MargoError> {
        config.validate()?;
        let abt = AbtRuntime::from_config(&config.argobots)?;
        let progress_pool = abt
            .find_pool(&config.progress_pool)
            .ok_or_else(|| MargoError::PoolNotFound(config.progress_pool.clone()))?;
        let endpoint = fabric.register(addr);
        let stats = config.monitoring.enabled.then(|| Arc::new(StatisticsMonitor::new()));
        let mut composite = CompositeMonitor::new();
        if let Some(stats) = &stats {
            composite.push(Arc::clone(stats) as Arc<dyn Monitor>);
        }
        let inner = Arc::new(Inner {
            endpoint,
            fabric: fabric.clone(),
            abt,
            meta: Meta {
                progress_pool,
                default_rpc_pool: config.default_rpc_pool.clone(),
                rpc_timeout: Duration::from_millis(config.rpc_timeout_ms),
                monitoring_enabled: config.monitoring.enabled,
                sampling_period: Duration::from_millis(config.monitoring.sampling_period_ms),
            },
            handlers: OrderedRwLock::new(rank::MARGO_HANDLERS, "margo.handlers", IdMap::default()),
            monitor: OrderedRwLock::new(rank::MARGO_MONITOR, "margo.monitor", Arc::new(composite)),
            stats,
            retry: RetryPolicy::new(config.retry.clone()),
            breakers: BreakerRegistry::new(config.breaker.clone()),
            idempotent: OrderedRwLock::new(
                rank::MARGO_IDEMPOTENT,
                "margo.idempotent",
                HashSet::new(),
            ),
            in_flight_client: AtomicI64::new(0),
            in_flight_server: AtomicI64::new(0),
            progress_armed: AtomicBool::new(false),
            finalized: AtomicBool::new(false),
            threads: OrderedMutex::new(rank::MARGO_THREADS, "margo.threads", Vec::new()),
        });
        let runtime = Self { inner };
        // The fabric slot owns the hook, and the hook this runtime: like a
        // process, it lives until it is finalized or killed, whoever still
        // holds a handle.
        let this = runtime.clone();
        runtime.inner.endpoint.set_arrival_hook(move || this.arm_progress());
        // For what arrived before the hook was there.
        runtime.arm_progress();
        runtime.spawn_sampler()?;
        Ok(runtime)
    }

    /// Boots with the default configuration.
    pub fn init_default(fabric: &Fabric, addr: Address) -> Result<Self, MargoError> {
        Self::init(fabric, addr, &MargoConfig::default())
    }

    /// The arrival hook: called by the thread that just queued a request or
    /// one-way in the mailbox (a sender, or `mercury-delivery`). Schedules
    /// one progress ULT in `progress_pool` unless one is already waiting
    /// there — N arrivals, one ULT, one xstream woken.
    fn arm_progress(&self) {
        if self.inner.progress_armed.swap(true, Ordering::SeqCst) {
            return;
        }
        static NAME: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from("__progress__"));
        // Weak: a ULT left in the pool of a finalized process must not
        // keep that process's memory alive.
        let inner = Arc::downgrade(&self.inner);
        self.inner.meta.progress_pool.push(Ult::new(Arc::clone(&NAME), move || {
            if let Some(inner) = inner.upgrade() {
                MargoRuntime { inner }.make_progress();
            }
        }));
    }

    /// The progress ULT: dispatches everything in the mailbox. It disarms
    /// *before* it drains, so no arrival is left behind: a message queued
    /// after the drain's last, empty look found `progress_armed == false`
    /// (its hook runs after the queueing, which came after that look, which
    /// came after this store) and scheduled the next ULT; one queued
    /// earlier is found here (DESIGN.md §9.3).
    fn make_progress(&self) {
        self.inner.progress_armed.store(false, Ordering::SeqCst);
        while let Ok(Some(incoming)) = self.inner.endpoint.progress(Duration::ZERO) {
            self.dispatch(incoming);
        }
    }

    fn spawn_sampler(&self) -> Result<(), MargoError> {
        let period = self.inner.meta.sampling_period;
        if !self.inner.meta.monitoring_enabled || period.is_zero() {
            return Ok(());
        }
        let this = self.clone();
        let handle = std::thread::Builder::new()
            .name(format!("margo-sampler-{}", self.address()))
            .spawn(move || {
                while !this.inner.finalized.load(Ordering::SeqCst) {
                    std::thread::sleep(period);
                    let sample = RuntimeSample {
                        time_s: monotonic_seconds(),
                        in_flight_client: this.inner.in_flight_client.load(Ordering::Relaxed),
                        in_flight_server: this.inner.in_flight_server.load(Ordering::Relaxed),
                        pools: this.inner.abt.pool_stats(),
                    };
                    this.emit(&MonitoringEvent::Sample(&sample));
                }
            })
            .map_err(|e| MargoError::Spawn(format!("sampler: {e}")))?;
        self.inner.threads.lock().push(handle);
        Ok(())
    }

    /// This process's address.
    pub fn address(&self) -> Address {
        self.inner.endpoint.address().clone()
    }

    /// The fabric this process is attached to.
    pub fn fabric(&self) -> &Fabric {
        &self.inner.fabric
    }

    /// The underlying endpoint (advanced uses: raw bulk exposure).
    pub fn endpoint(&self) -> &Endpoint {
        &self.inner.endpoint
    }

    /// The Argobots runtime (read-mostly; use the `add_*`/`remove_*`
    /// methods on `MargoRuntime` for reconfiguration so Margo-level
    /// validity checks run).
    pub fn abt(&self) -> &AbtRuntime {
        &self.inner.abt
    }

    fn ensure_live(&self) -> Result<(), MargoError> {
        if self.inner.finalized.load(Ordering::SeqCst) {
            Err(MargoError::Finalized)
        } else {
            Ok(())
        }
    }

    pub(crate) fn identity_for(
        &self,
        rpc_id: u64,
        name: &Arc<str>,
        provider_id: u16,
        context: CallContext,
    ) -> RpcIdentity {
        RpcIdentity { rpc_id, rpc_name: Arc::clone(name), provider_id, context }
    }

    pub(crate) fn emit(&self, event: &MonitoringEvent<'_>) {
        if self.inner.meta.monitoring_enabled {
            let monitor = Arc::clone(&*self.inner.monitor.read());
            monitor.observe(event);
        }
    }

    // ------------------------------------------------------------------
    // Registration
    // ------------------------------------------------------------------

    /// Registers a raw handler for `(rpc_name, provider_id)`, dispatching
    /// its ULTs into `pool` (or the configured default pool).
    pub fn register(
        &self,
        rpc_name: &str,
        provider_id: u16,
        pool: Option<&str>,
        handler: RpcHandler,
    ) -> Result<u64, MargoError> {
        self.ensure_live()?;
        let pool_name = pool.unwrap_or(&self.inner.meta.default_rpc_pool);
        let pool = self
            .inner
            .abt
            .find_pool(pool_name)
            .ok_or_else(|| MargoError::PoolNotFound(pool_name.to_string()))?;
        let rpc_id = rpc_id_for_name(rpc_name);
        let mut handlers = self.inner.handlers.write();
        if handlers.contains_key(&(rpc_id, provider_id)) {
            return Err(MargoError::AlreadyRegistered {
                rpc: rpc_name.to_string(),
                provider_id,
            });
        }
        handlers.insert(
            (rpc_id, provider_id),
            Arc::new(Registration {
                name: Arc::from(rpc_name),
                pool_name: Arc::from(pool_name),
                pool,
                handler,
            }),
        );
        Ok(rpc_id)
    }

    /// Registers a typed handler: arguments are decoded, the closure's
    /// `Ok` output is encoded and sent back, `Err` becomes an
    /// application-level error response. This is the shape component
    /// providers use.
    pub fn register_typed<I, O, F>(
        &self,
        rpc_name: &str,
        provider_id: u16,
        pool: Option<&str>,
        f: F,
    ) -> Result<u64, MargoError>
    where
        I: DeserializeOwned,
        O: Serialize,
        F: Fn(I, &RpcContext) -> Result<O, String> + Send + Sync + 'static,
    {
        let handler: RpcHandler = Arc::new(move |ctx: RpcContext| {
            match ctx.args::<I>() {
                Ok(input) => match f(input, &ctx) {
                    Ok(output) => {
                        let _ = ctx.respond(&output);
                    }
                    Err(message) => {
                        let _ = ctx.respond_err(message);
                    }
                },
                Err(e) => {
                    let _ = ctx.respond_err(format!("argument decoding failed: {e}"));
                }
            }
        });
        self.register(rpc_name, provider_id, pool, handler)
    }

    /// Removes a registration.
    pub fn deregister(&self, rpc_name: &str, provider_id: u16) -> Result<(), MargoError> {
        let rpc_id = rpc_id_for_name(rpc_name);
        match self.inner.handlers.write().remove(&(rpc_id, provider_id)) {
            Some(_) => Ok(()),
            None => Err(MargoError::NotRegistered { rpc: rpc_name.to_string(), provider_id }),
        }
    }

    /// Names and pools of all registered RPCs: `(name, provider_id, pool)`.
    pub fn registrations(&self) -> Vec<(String, u16, String)> {
        let mut list: Vec<(String, u16, String)> = self
            .inner
            .handlers
            .read()
            .iter()
            .map(|((_, provider), reg)| {
                (reg.name.to_string(), *provider, reg.pool_name.to_string())
            })
            .collect();
        list.sort();
        list
    }

    // ------------------------------------------------------------------
    // Dispatch (server side)
    // ------------------------------------------------------------------

    fn dispatch(&self, incoming: Incoming) {
        let (request, oneway) = match incoming {
            Incoming::Request(request) => (request, false),
            Incoming::OneWay(ow) => (
                RequestInfo {
                    source: ow.source,
                    rpc_id: ow.rpc_id,
                    provider_id: ow.provider_id,
                    xid: 0,
                    context: CallContext::TOP_LEVEL,
                    payload: ow.payload,
                },
                true,
            ),
        };
        let registration = {
            let handlers = self.inner.handlers.read();
            handlers.get(&(request.rpc_id, request.provider_id)).cloned()
        };
        let Some(registration) = registration else {
            if !oneway {
                let _ = self.inner.endpoint.respond(
                    &request,
                    ResponseStatus::NoHandler,
                    Bytes::new(),
                );
            }
            return;
        };
        let identity = self.identity_for(
            request.rpc_id,
            &registration.name,
            request.provider_id,
            request.context,
        );
        self.emit(&MonitoringEvent::RequestReceived {
            identity: &identity,
            source: &request.source,
            payload_size: request.payload.len(),
            pool: &registration.pool_name,
        });
        self.inner.in_flight_server.fetch_add(1, Ordering::Relaxed);
        // One reading: where the request was received its ULT was submitted.
        let received_at = Instant::now();
        let this = self.clone();
        let reg = Arc::clone(&registration);
        let ult = Ult::new_at(received_at, Arc::clone(&registration.name), move || {
            let source = Arc::clone(&request.source);
            // One reading: where the wait in the pool ends the handler starts.
            let start = Instant::now();
            this.emit(&MonitoringEvent::HandlerStart {
                identity: &identity,
                source: &source,
                queue_wait_s: start.saturating_duration_since(received_at).as_secs_f64(),
            });
            let ctx = RpcContext {
                margo: this.clone(),
                request,
                rpc_name: Arc::clone(&reg.name),
                responded: AtomicBool::new(false),
                oneway,
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (reg.handler)(ctx)
            }));
            // `ctx` moved into the handler; on panic we can no longer tell
            // whether it responded. Mercury's correlation map simply drops
            // duplicate xids, so a best-effort error response is safe: if
            // the handler already answered, the waiter is gone and the
            // response is ignored.
            let ok = outcome.is_ok();
            this.emit(&MonitoringEvent::HandlerEnd {
                identity: &identity,
                source: &source,
                duration_s: start.elapsed().as_secs_f64(),
                ok,
            });
            this.inner.in_flight_server.fetch_sub(1, Ordering::Relaxed);
        });
        registration.pool.push(ult);
    }

    // ------------------------------------------------------------------
    // Forward (client side)
    // ------------------------------------------------------------------

    /// Calls `(rpc_name, provider_id)` at `dest` with the default timeout
    /// from top-level context.
    pub fn forward<I: Serialize, O: DeserializeOwned>(
        &self,
        dest: &Address,
        rpc_name: &str,
        provider_id: u16,
        input: &I,
    ) -> Result<O, MargoError> {
        self.forward_with_context(dest, rpc_name, provider_id, input, CallContext::TOP_LEVEL)
    }

    /// Calls with an explicit calling context (used by [`RpcContext`] for
    /// nested RPCs so monitoring can attribute them to their parent).
    pub fn forward_with_context<I: Serialize, O: DeserializeOwned>(
        &self,
        dest: &Address,
        rpc_name: &str,
        provider_id: u16,
        input: &I,
        context: CallContext,
    ) -> Result<O, MargoError> {
        let timeout = self.inner.meta.rpc_timeout;
        self.forward_full(dest, rpc_name, provider_id, input, context, timeout)
    }

    /// Calls with an explicit timeout.
    pub fn forward_timeout<I: Serialize, O: DeserializeOwned>(
        &self,
        dest: &Address,
        rpc_name: &str,
        provider_id: u16,
        input: &I,
        timeout: Duration,
    ) -> Result<O, MargoError> {
        self.forward_full(dest, rpc_name, provider_id, input, CallContext::TOP_LEVEL, timeout)
    }

    /// Fully explicit forward.
    pub fn forward_full<I: Serialize, O: DeserializeOwned>(
        &self,
        dest: &Address,
        rpc_name: &str,
        provider_id: u16,
        input: &I,
        context: CallContext,
        timeout: Duration,
    ) -> Result<O, MargoError> {
        let dest = Arc::new(dest.clone());
        self.iforward_full(&dest, rpc_name, provider_id, input, context, timeout)?.wait_decoded()
    }

    /// Raw-payload forward for data-plane RPCs using [`crate::frame`]
    /// encoding (or any custom encoding): sends `payload` verbatim and
    /// returns the raw response payload. Fully monitored like
    /// [`MargoRuntime::forward`].
    pub fn forward_raw(
        &self,
        dest: &Address,
        rpc_name: &str,
        provider_id: u16,
        payload: Bytes,
        context: CallContext,
        timeout: Duration,
    ) -> Result<Bytes, MargoError> {
        let dest = Arc::new(dest.clone());
        self.iforward_raw(&dest, rpc_name, provider_id, payload, context, timeout).wait()
    }

    /// Posting form of [`MargoRuntime::forward_full`]: encodes `input`
    /// and posts it ([`MargoRuntime::iforward_raw`]);
    /// [`PendingForward::wait_decoded`] yields the typed reply.
    pub fn iforward_full<I: Serialize>(
        &self,
        dest: &Arc<Address>,
        rpc_name: &str,
        provider_id: u16,
        input: &I,
        context: CallContext,
        timeout: Duration,
    ) -> Result<PendingForward, MargoError> {
        let payload = crate::codec::encode(input)?;
        Ok(self.iforward_raw(dest, rpc_name, provider_id, payload, context, timeout))
    }

    /// Posts a forward and returns without waiting for the response
    /// (`margo_iforward`): the request is admitted — liveness, circuit
    /// breaker, deadline clamp — and handed to the fabric on the caller's
    /// thread, so a caller with several destinations posts them all and
    /// then waits. An admission or send failure does not surface here but
    /// from [`PendingForward::wait`], like any other failed attempt.
    ///
    /// Every blocking `forward_*` is this followed by `wait`: there is one
    /// `ForwardStart`/`ForwardEnd` pair per *logical* call, and one
    /// attempt path (retry policy, circuit breakers, deadline
    /// propagation) behind both.
    ///
    /// `dest` is shared with the posted call (monitoring events, the
    /// breaker key, re-sends): a client that keeps its peer's address in an
    /// `Arc` posts without copying it.
    pub fn iforward_raw(
        &self,
        dest: &Arc<Address>,
        rpc_name: &str,
        provider_id: u16,
        payload: Bytes,
        context: CallContext,
        timeout: Duration,
    ) -> PendingForward {
        let rpc_id = rpc_id_for_name(rpc_name);
        let name = cached_rpc_name(rpc_name);
        let identity = self.identity_for(rpc_id, &name, provider_id, context);
        self.emit(&MonitoringEvent::ForwardStart {
            identity: &identity,
            dest,
            payload_size: payload.len(),
        });
        self.inner.in_flight_client.fetch_add(1, Ordering::Relaxed);
        // One reading: the call starts where its first attempt does.
        let start = Instant::now();
        let first = self.post_attempt(&identity, dest, payload.clone(), timeout, start);
        let dest = Arc::clone(dest);
        PendingForward {
            margo: self.clone(),
            call: Some(PostedCall { identity, dest, payload, timeout, start, first }),
        }
    }

    /// The posting half of one transport attempt, made at `now`: liveness,
    /// deadline clamping, breaker admission, send. The attempt's wait
    /// budget runs from here, not from when the caller gets round to
    /// waiting.
    fn post_attempt(
        &self,
        identity: &RpcIdentity,
        dest: &Arc<Address>,
        payload: Bytes,
        timeout: Duration,
        now: Instant,
    ) -> Result<Attempt, MargoError> {
        self.ensure_live()?;
        let context = identity.context;
        // Clamp the wait to the remaining deadline budget, so a nested
        // chain with a 100 ms top-level deadline can never take
        // 3 × 100 ms: each hop inherits only what its parent has left.
        let effective = match context.deadline {
            Some(deadline) => {
                let remaining = deadline.saturating_duration_since(now);
                if remaining.is_zero() {
                    return Err(MargoError::DeadlineExceeded);
                }
                timeout.min(remaining)
            }
            None => timeout,
        };
        match self.inner.breakers.admit(dest, identity.provider_id, now) {
            Admission::Allowed | Admission::Probe => {}
            Admission::Rejected => {
                return Err(MargoError::BreakerOpen {
                    dest: dest.to_string(),
                    provider_id: identity.provider_id,
                });
            }
        }
        // Propagate the *absolute* deadline so handlers issuing nested
        // RPCs (via `RpcContext::nested_context`) inherit the remaining
        // budget rather than restarting the clock.
        let give_up_at = now + effective;
        let wire_context =
            context.with_deadline(Some(context.deadline.map_or(give_up_at, |d| d.min(give_up_at))));
        let sent = self.inner.endpoint.send_request(
            dest,
            identity.rpc_id,
            identity.provider_id,
            wire_context,
            payload,
        );
        Ok(Attempt { sent, give_up_at })
    }

    /// The waiting half of one transport attempt: takes the response
    /// within what is left of the attempt's budget (nothing, for a handle
    /// that is being dropped) and does the breaker bookkeeping.
    fn finish_attempt(
        &self,
        identity: &RpcIdentity,
        dest: &Arc<Address>,
        attempt: Attempt,
        patient: bool,
    ) -> Result<Bytes, MargoError> {
        let Attempt { sent, give_up_at } = attempt;
        let budget = if patient {
            give_up_at.saturating_duration_since(Instant::now())
        } else {
            Duration::ZERO
        };
        match sent.and_then(|pending| pending.wait(budget)) {
            Ok(response) => {
                // The network round-tripped: the breaker closes whatever
                // the application-level status says.
                self.inner.breakers.record_success(dest, identity.provider_id);
                match response.status {
                    ResponseStatus::Ok => Ok(response.payload),
                    ResponseStatus::Error(message) => Err(MargoError::Handler(message)),
                    ResponseStatus::NoHandler => Err(MargoError::NoHandler {
                        rpc: identity.rpc_name.to_string(),
                        provider_id: identity.provider_id,
                    }),
                }
            }
            Err(err) => {
                let err = MargoError::from(err);
                if err.is_retryable() {
                    // Transport-class failure (timeout / unreachable):
                    // counts against the breaker threshold.
                    self.inner.breakers.record_failure(dest, identity.provider_id);
                }
                // A wait that timed out because the *deadline* clipped it
                // is a budget exhaustion, not a transport verdict.
                if err.is_timeout() {
                    if let Some(deadline) = identity.context.deadline {
                        if Instant::now() >= deadline {
                            return Err(MargoError::DeadlineExceeded);
                        }
                    }
                }
                Err(err)
            }
        }
    }

    /// Ends a posted logical call: finishes its first attempt, makes the
    /// retry policy's further attempts (a `patient` caller only — a
    /// dropped handle takes what is there and leaves), and closes the
    /// books: in-flight gauge, `ForwardEnd`.
    fn finish_call(&self, call: PostedCall, patient: bool) -> Result<Bytes, MargoError> {
        let PostedCall { identity, dest, payload, timeout, start, first } = call;
        let mut attempts = 1u32;
        let mut outcome =
            first.and_then(|attempt| self.finish_attempt(&identity, &dest, attempt, patient));
        let result = loop {
            let err = match outcome {
                Ok(response) => break Ok(response),
                Err(err) => err,
            };
            // Only idempotent RPCs may be re-sent, and only for failures
            // where the request may not have executed (transport-class,
            // or no handler registered yet). Handler errors are
            // application outcomes; deadline and breaker rejections end
            // the loop immediately.
            if !(patient
                && err.is_retryable()
                && self.is_idempotent_rpc(identity.rpc_id)
                && self.inner.retry.admit_retry(attempts))
            {
                break Err(err);
            }
            let backoff = self.inner.retry.backoff(attempts);
            if let Some(deadline) = identity.context.deadline {
                if Instant::now() + backoff >= deadline {
                    break Err(err);
                }
            }
            std::thread::sleep(backoff);
            attempts += 1;
            outcome = self
                .post_attempt(&identity, &dest, payload.clone(), timeout, Instant::now())
                .and_then(|attempt| self.finish_attempt(&identity, &dest, attempt, true));
        };
        self.inner.in_flight_client.fetch_sub(1, Ordering::Relaxed);
        self.emit(&MonitoringEvent::ForwardEnd {
            identity: &identity,
            dest: &dest,
            duration_s: start.elapsed().as_secs_f64(),
            ok: result.is_ok(),
            error: result.as_ref().err().map(MargoError::kind),
            attempts,
        });
        result
    }

    /// Declares an RPC idempotent: safe for the runtime to re-send on
    /// transport-class failures. RPCs never declared are never
    /// auto-retried — a non-idempotent call observes exactly one
    /// server-side invocation per forward.
    pub fn declare_idempotent(&self, rpc_name: &str) {
        let rpc_id = rpc_id_for_name(rpc_name);
        // Clients re-declare their surface with every handle they make;
        // only the first declaration needs the write lock.
        if !self.is_idempotent_rpc(rpc_id) {
            self.inner.idempotent.write().insert(rpc_id);
        }
    }

    /// Whether `rpc_name` has been declared idempotent.
    pub fn is_idempotent(&self, rpc_name: &str) -> bool {
        self.is_idempotent_rpc(rpc_id_for_name(rpc_name))
    }

    fn is_idempotent_rpc(&self, rpc_id: u64) -> bool {
        self.inner.idempotent.read().contains(&rpc_id)
    }

    /// The circuit-breaker registry (chaos tests assert convergence on
    /// it; the monitoring JSON embeds its dump as the `breakers` section).
    pub fn breakers(&self) -> &BreakerRegistry {
        &self.inner.breakers
    }

    /// Fire-and-forget notification to `(rpc_name, provider_id)` at `dest`.
    pub fn notify<I: Serialize>(
        &self,
        dest: &Address,
        rpc_name: &str,
        provider_id: u16,
        input: &I,
    ) -> Result<(), MargoError> {
        self.ensure_live()?;
        let payload = crate::codec::encode(input)?;
        let rpc_id = rpc_id_for_name(rpc_name);
        self.inner.endpoint.send_oneway(dest, rpc_id, provider_id, payload)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Bulk transfers
    // ------------------------------------------------------------------

    /// Exposes an in-memory buffer for remote bulk access.
    pub fn expose_bulk(&self, buffer: Arc<Mutex<Vec<u8>>>, access: BulkAccess) -> BulkHandle {
        self.inner.endpoint.expose_bulk(buffer, access)
    }

    /// Exposes a file region for remote bulk access (REMI's mmap path).
    pub fn expose_bulk_file(
        &self,
        path: impl Into<std::path::PathBuf>,
        size: usize,
        access: BulkAccess,
    ) -> std::io::Result<BulkHandle> {
        self.inner.endpoint.expose_bulk_file(path, size, access)
    }

    /// Revokes a bulk registration.
    pub fn unexpose_bulk(&self, handle: &BulkHandle) {
        self.inner.endpoint.unexpose_bulk(handle);
    }

    /// Pulls remote bulk data; records the transfer in monitoring.
    pub fn bulk_pull(
        &self,
        remote: &BulkHandle,
        remote_offset: usize,
        local: &BulkHandle,
        local_offset: usize,
        len: usize,
    ) -> Result<(), MargoError> {
        let start = Instant::now();
        let result = self.inner.endpoint.bulk_pull(remote, remote_offset, local, local_offset, len);
        self.emit(&MonitoringEvent::Bulk {
            direction: BulkDirection::Pull,
            peer: &remote.owner,
            size: len,
            duration_s: start.elapsed().as_secs_f64(),
        });
        result.map_err(MargoError::from)
    }

    /// Pushes local bulk data; records the transfer in monitoring.
    pub fn bulk_push(
        &self,
        local: &BulkHandle,
        local_offset: usize,
        remote: &BulkHandle,
        remote_offset: usize,
        len: usize,
    ) -> Result<(), MargoError> {
        let start = Instant::now();
        let result = self.inner.endpoint.bulk_push(local, local_offset, remote, remote_offset, len);
        self.emit(&MonitoringEvent::Bulk {
            direction: BulkDirection::Push,
            peer: &remote.owner,
            size: len,
            duration_s: start.elapsed().as_secs_f64(),
        });
        result.map_err(MargoError::from)
    }

    // ------------------------------------------------------------------
    // Online reconfiguration (§5, Observation 2)
    // ------------------------------------------------------------------

    /// `margo_find_pool_by_name`.
    pub fn find_pool_by_name(&self, name: &str) -> Option<Arc<Pool>> {
        self.inner.abt.find_pool(name)
    }

    /// `margo_add_pool_from_json`: adds a pool described by a JSON object
    /// (`{"name": …, "type": …, "access": …}`).
    pub fn add_pool_from_json(&self, json: &str) -> Result<(), MargoError> {
        let config: PoolConfig =
            serde_json::from_str(json).map_err(|e| MargoError::BadConfig(e.to_string()))?;
        self.add_pool(config)
    }

    /// Adds a pool from a parsed configuration.
    pub fn add_pool(&self, config: PoolConfig) -> Result<(), MargoError> {
        self.ensure_live()?;
        self.inner.abt.add_pool(config)?;
        Ok(())
    }

    /// Removes a pool, enforcing Margo-level validity on top of the
    /// Argobots rules: the progress pool and pools with registered RPC
    /// handlers cannot be removed.
    pub fn remove_pool(&self, name: &str) -> Result<(), MargoError> {
        self.ensure_live()?;
        if self.inner.meta.progress_pool.name() == name {
            return Err(MargoError::PoolBusy {
                pool: name.to_string(),
                reason: "it is the progress pool".into(),
            });
        }
        let users: Vec<String> = self
            .inner
            .handlers
            .read()
            .values()
            .filter(|r| &*r.pool_name == name)
            .map(|r| r.name.to_string())
            .collect();
        if !users.is_empty() {
            return Err(MargoError::PoolBusy {
                pool: name.to_string(),
                reason: format!("RPC handler(s) {users:?} dispatch into it"),
            });
        }
        self.inner.abt.remove_pool(name)?;
        Ok(())
    }

    /// Adds and starts an xstream described by a JSON object
    /// (`{"name": …, "scheduler": {"type": …, "pools": […]}}`).
    pub fn add_xstream_from_json(&self, json: &str) -> Result<(), MargoError> {
        let config: XstreamConfig =
            serde_json::from_str(json).map_err(|e| MargoError::BadConfig(e.to_string()))?;
        self.add_xstream(config)
    }

    /// Adds and starts an xstream from a parsed configuration.
    pub fn add_xstream(&self, config: XstreamConfig) -> Result<(), MargoError> {
        self.ensure_live()?;
        self.inner.abt.add_xstream(config)?;
        Ok(())
    }

    /// Stops and removes an xstream — unless it is the last one whose
    /// scheduler lists the progress pool: without it the process would
    /// silently stop receiving.
    pub fn remove_xstream(&self, name: &str) -> Result<(), MargoError> {
        self.ensure_live()?;
        let progress_pool = self.inner.meta.progress_pool.name();
        if self.inner.abt.xstreams_using_pool(progress_pool) == [name] {
            return Err(MargoError::PoolBusy {
                pool: progress_pool.to_string(),
                reason: "it is the last xstream serving the progress pool".into(),
            });
        }
        self.inner.abt.remove_xstream(name)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Snapshot of the full configuration as JSON (what Bedrock reports).
    pub fn config_json(&self) -> Value {
        let meta = &self.inner.meta;
        serde_json::json!({
            "argobots": self.inner.abt.config(),
            "progress_pool": meta.progress_pool.name(),
            "default_rpc_pool": meta.default_rpc_pool,
            "rpc_timeout_ms": meta.rpc_timeout.as_millis() as u64,
            "monitoring": {
                "enabled": meta.monitoring_enabled,
                "sampling_period_ms": meta.sampling_period.as_millis() as u64,
            },
            "rpcs": self.registrations().iter().map(|(name, provider, pool)| {
                serde_json::json!({"name": name, "provider_id": provider, "pool": pool})
            }).collect::<Vec<_>>(),
        })
    }

    /// The monitoring statistics accumulated so far (the runtime query
    /// API of §4), or `None` when monitoring is disabled. On top of the
    /// Listing-1 sections, the dump carries a `breakers` section with the
    /// live circuit-breaker states (additive; existing consumers that key
    /// into `rpcs`/`progress` are unaffected).
    pub fn monitoring_json(&self) -> Option<Value> {
        self.inner.stats.as_ref().map(|s| {
            let mut json = s.to_json();
            if let Some(map) = json.as_object_mut() {
                map.insert("breakers".to_string(), self.inner.breakers.to_json());
            }
            json
        })
    }

    /// Installs an additional user monitor alongside the default
    /// statistics monitor ("this infrastructure lets users inject
    /// callbacks to be invoked at various points in the lifetime of an
    /// RPC").
    pub fn add_monitor(&self, monitor: Arc<dyn Monitor>) {
        let mut guard = self.inner.monitor.write();
        let mut composite = CompositeMonitor::new();
        if let Some(stats) = &self.inner.stats {
            composite.push(Arc::clone(stats) as Arc<dyn Monitor>);
        }
        // Rebuild: composite is immutable once installed (cheap, rare op).
        // Existing extra monitors are preserved by chaining the old one.
        composite.push(Arc::clone(&*guard) as Arc<dyn Monitor>);
        composite.push(monitor);
        *guard = Arc::new(composite);
    }

    /// Name of the pool used for handlers registered without an explicit
    /// pool.
    pub fn default_rpc_pool(&self) -> String {
        self.inner.meta.default_rpc_pool.clone()
    }

    /// Default timeout applied to forwarded RPCs.
    pub fn rpc_timeout(&self) -> Duration {
        self.inner.meta.rpc_timeout
    }

    /// Number of RPCs this process forwarded that are still in flight.
    pub fn in_flight_client(&self) -> i64 {
        self.inner.in_flight_client.load(Ordering::Relaxed)
    }

    /// Number of handler ULTs received and not yet completed.
    pub fn in_flight_server(&self) -> i64 {
        self.inner.in_flight_server.load(Ordering::Relaxed)
    }

    /// Whether the runtime has been finalized.
    pub fn is_finalized(&self) -> bool {
        self.inner.finalized.load(Ordering::SeqCst)
    }

    /// Shuts the process down: the endpoint closes (peers see a dead
    /// node; its slot drops the arrival hook), the sampler exits, all
    /// xstreams join, and the final monitoring dump is returned ("outputs
    /// them as JSON when shutting down the service").
    pub fn finalize(&self) -> Option<Value> {
        if self.inner.finalized.swap(true, Ordering::SeqCst) {
            return self.monitoring_json();
        }
        self.inner.endpoint.shutdown();
        let threads = std::mem::take(&mut *self.inner.threads.lock());
        for handle in threads {
            let _ = handle.join();
        }
        self.inner.abt.shutdown();
        // The pools outlive `abt` in the registrations and `meta`, and a
        // handler ULT nobody will run any more holds this runtime.
        let handlers = self.inner.handlers.read();
        for pool in handlers.values().map(|r| &r.pool).chain([&self.inner.meta.progress_pool]) {
            while pool.try_pop().is_some() {}
        }
        drop(handlers);
        self.monitoring_json()
    }
}

/// One transport attempt between its post and its wait.
struct Attempt {
    /// The outstanding request, or why the fabric refused it.
    sent: Result<PendingRequest, MercuryError>,
    /// When the attempt's wait budget runs out.
    give_up_at: Instant,
}

/// What a [`PendingForward`] keeps of its logical call: enough to finish
/// the first attempt and, for an idempotent RPC, to make the next ones.
struct PostedCall {
    identity: RpcIdentity,
    dest: Arc<Address>,
    payload: Bytes,
    timeout: Duration,
    start: Instant,
    /// The first attempt, or the admission failure that kept it from
    /// being sent.
    first: Result<Attempt, MargoError>,
}

/// A forward that has been posted ([`MargoRuntime::iforward_raw`]) and
/// not yet waited for. The logical call ends exactly once — its breaker
/// and in-flight bookkeeping done, its `ForwardEnd` emitted — in
/// [`PendingForward::wait`], or on drop, which is a wait with no time
/// left.
#[must_use = "wait on the posted forward to obtain the response"]
pub struct PendingForward {
    margo: MargoRuntime,
    /// `None` once the call has ended.
    call: Option<PostedCall>,
}

impl PendingForward {
    /// Blocks until the response arrives or the budget that started at
    /// the post runs out. Only if the first attempt failed in a way that
    /// may be retried (an idempotent RPC, a transport-class failure, the
    /// retry budget allowing) are further attempts made, blocking, from
    /// here.
    pub fn wait(mut self) -> Result<Bytes, MargoError> {
        match self.call.take() {
            Some(call) => self.margo.finish_call(call, true),
            // Unreachable: only `wait` and `drop` take the call, and
            // `wait` consumes the handle.
            None => Err(MargoError::Finalized),
        }
    }

    /// [`PendingForward::wait`], then decodes the reply.
    pub fn wait_decoded<O: DeserializeOwned>(self) -> Result<O, MargoError> {
        crate::codec::decode(&self.wait()?)
    }
}

impl Drop for PendingForward {
    fn drop(&mut self) {
        if let Some(call) = self.call.take() {
            let _ = self.margo.finish_call(call, false);
        }
    }
}

impl std::fmt::Debug for MargoRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MargoRuntime")
            .field("address", &self.inner.endpoint.address())
            .field("finalized", &self.is_finalized())
            .finish_non_exhaustive()
    }
}

/// Double-checked shutdown: finalizing an already-finalized runtime is a
/// no-op, and dropping the last handle finalizes implicitly.
impl Drop for Inner {
    fn drop(&mut self) {
        self.finalized.store(true, Ordering::SeqCst);
        self.endpoint.shutdown();
        self.abt.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mochi_mercury::Fabric;

    fn boot(fabric: &Fabric, host: &str) -> MargoRuntime {
        MargoRuntime::init_default(fabric, Address::tcp(host, 1)).unwrap()
    }

    fn register_echo(server: &MargoRuntime, provider_id: u16) {
        server
            .register_typed(
                "echo",
                provider_id,
                None,
                |input: String, _ctx| Ok(input),
            )
            .unwrap();
    }

    /// Registers the one-way "note" and returns the count of those handled.
    fn register_note(server: &MargoRuntime) -> Arc<AtomicI64> {
        let noted = Arc::new(AtomicI64::new(0));
        let counter = Arc::clone(&noted);
        let handler = move |_ctx: RpcContext| {
            counter.fetch_add(1, Ordering::SeqCst);
        };
        server.register("note", 0, None, Arc::new(handler)).unwrap();
        noted
    }

    #[test]
    fn echo_roundtrip() {
        let fabric = Fabric::new();
        let server = boot(&fabric, "server");
        let client = boot(&fabric, "client");
        register_echo(&server, 0);
        let out: String =
            client.forward(&server.address(), "echo", 0, &"hello".to_string()).unwrap();
        assert_eq!(out, "hello");
        server.finalize();
        client.finalize();
    }

    #[test]
    fn provider_ids_route_independently() {
        let fabric = Fabric::new();
        let server = boot(&fabric, "server");
        let client = boot(&fabric, "client");
        server
            .register_typed("whoami", 1, None, |_: (), _| Ok("provider-1".to_string()))
            .unwrap();
        server
            .register_typed("whoami", 2, None, |_: (), _| Ok("provider-2".to_string()))
            .unwrap();
        let a: String = client.forward(&server.address(), "whoami", 1, &()).unwrap();
        let b: String = client.forward(&server.address(), "whoami", 2, &()).unwrap();
        assert_eq!(a, "provider-1");
        assert_eq!(b, "provider-2");
        let err = client.forward::<(), String>(&server.address(), "whoami", 3, &()).unwrap_err();
        assert!(matches!(err, MargoError::NoHandler { .. }));
        server.finalize();
        client.finalize();
    }

    #[test]
    fn handler_error_propagates() {
        let fabric = Fabric::new();
        let server = boot(&fabric, "server");
        let client = boot(&fabric, "client");
        server
            .register_typed::<(), (), _>("fail", 0, None, |_, _| Err("nope".into()))
            .unwrap();
        let err = client.forward::<(), ()>(&server.address(), "fail", 0, &()).unwrap_err();
        assert_eq!(err, MargoError::Handler("nope".into()));
        server.finalize();
        client.finalize();
    }

    #[test]
    fn self_forward_works() {
        let fabric = Fabric::new();
        let node = boot(&fabric, "solo");
        register_echo(&node, 0);
        let out: String = node.forward(&node.address(), "echo", 0, &"loop".to_string()).unwrap();
        assert_eq!(out, "loop");
        node.finalize();
    }

    #[test]
    fn nested_rpc_carries_parent_context() {
        let fabric = Fabric::new();
        let front = boot(&fabric, "front");
        let back = boot(&fabric, "back");
        register_echo(&back, 0);
        let back_addr = back.address();
        front
            .register_typed("relay", 5, None, move |input: String, ctx| {
                ctx.forward::<String, String>(&back_addr, "echo", 0, &input)
                    .map_err(|e| e.to_string())
            })
            .unwrap();
        let client = boot(&fabric, "client");
        let out: String =
            client.forward(&front.address(), "relay", 5, &"via".to_string()).unwrap();
        assert_eq!(out, "via");
        // The nested call shows up in back's monitoring keyed by its
        // parent (relay's rpc_id, provider 5).
        let stats = back.monitoring_json().unwrap();
        let relay_id = rpc_id_for_name("relay");
        let echo_id = rpc_id_for_name("echo");
        let key = format!("{relay_id}:5:{echo_id}:0");
        assert!(
            stats["rpcs"].as_object().unwrap().contains_key(&key),
            "expected nested key {key} in {:?}",
            stats["rpcs"].as_object().unwrap().keys()
        );
        front.finalize();
        back.finalize();
        client.finalize();
    }

    #[test]
    fn monitoring_reports_listing1_shape() {
        let fabric = Fabric::new();
        let server = boot(&fabric, "server");
        let client = boot(&fabric, "client");
        register_echo(&server, 0);
        for _ in 0..3 {
            let _: String =
                client.forward(&server.address(), "echo", 0, &"x".to_string()).unwrap();
        }
        let echo_id = rpc_id_for_name("echo");
        let key = format!("65535:65535:{echo_id}:0");
        let peer_key = format!("received from {}", client.address());
        // A reply can reach the client before the server's handler ULT has
        // recorded its `HandlerEnd`: wait for the third one to be counted.
        let mut stats = server.monitoring_json().unwrap();
        assert!(mochi_util::time::wait_until(
            Duration::from_secs(2),
            Duration::from_millis(1),
            || {
                stats = server.monitoring_json().unwrap();
                stats["rpcs"][&key]["target"][&peer_key]["ult"]["duration"]["num"] == 3
            }
        ));
        let entry = &stats["rpcs"][&key];
        assert_eq!(entry["name"], "echo");
        let ult = &entry["target"][&peer_key]["ult"]["duration"];
        assert!(ult["avg"].as_f64().unwrap() >= 0.0);
        // Client-side origin stats too.
        let client_stats = client.monitoring_json().unwrap();
        let origin = &client_stats["rpcs"][&key]["origin"];
        let sent = &origin[format!("sent to {}", server.address())]["forward"]["duration"];
        assert_eq!(sent["num"], 3);
        server.finalize();
        client.finalize();
    }

    #[test]
    fn online_pool_and_xstream_reconfiguration() {
        let fabric = Fabric::new();
        let server = boot(&fabric, "server");
        // Listing-2-style additions at run time.
        server.add_pool_from_json(r#"{"name": "MyPoolX", "type": "fifo_wait"}"#).unwrap();
        server
            .add_xstream_from_json(
                r#"{"name": "MyES1", "scheduler": {"type": "basic_wait", "pools": ["MyPoolX"]}}"#,
            )
            .unwrap();
        assert!(server.find_pool_by_name("MyPoolX").is_some());
        // Route an RPC through the new pool.
        server
            .register_typed("work", 0, Some("MyPoolX"), |n: u64, _| Ok(n * 2))
            .unwrap();
        let client = boot(&fabric, "client");
        let out: u64 = client.forward(&server.address(), "work", 0, &21u64).unwrap();
        assert_eq!(out, 42);
        // Removing the pool while its handler exists must fail...
        let err = server.remove_pool("MyPoolX").unwrap_err();
        assert!(matches!(err, MargoError::PoolBusy { .. }));
        // ...as must removing the progress pool.
        let err = server.remove_pool("__primary__").unwrap_err();
        assert!(matches!(err, MargoError::PoolBusy { .. }));
        // Deregister, stop the ES, then removal succeeds.
        server.deregister("work", 0).unwrap();
        server.remove_xstream("MyES1").unwrap();
        server.remove_pool("MyPoolX").unwrap();
        assert!(server.find_pool_by_name("MyPoolX").is_none());
        server.finalize();
        client.finalize();
    }

    #[test]
    fn rpcs_keep_flowing_during_reconfiguration() {
        let fabric = Fabric::new();
        let server = boot(&fabric, "server");
        let client = boot(&fabric, "client");
        register_echo(&server, 0);
        let stop = Arc::new(AtomicBool::new(false));
        let client2 = client.clone();
        let server_addr = server.address();
        let stop2 = Arc::clone(&stop);
        let traffic = std::thread::spawn(move || {
            let mut count = 0u64;
            while !stop2.load(Ordering::SeqCst) {
                let out: String = client2
                    .forward(&server_addr, "echo", 0, &"live".to_string())
                    .expect("echo during reconfig");
                assert_eq!(out, "live");
                count += 1;
            }
            count
        });
        for i in 0..10 {
            let pool = format!("dyn-{i}");
            server
                .add_pool_from_json(&format!(r#"{{"name": "{pool}", "type": "fifo_wait"}}"#))
                .unwrap();
            let es = format!("dyn-es-{i}");
            server
                .add_xstream_from_json(&format!(
                    r#"{{"name": "{es}", "scheduler": {{"type": "basic_wait", "pools": ["{pool}"]}}}}"#
                ))
                .unwrap();
            server.remove_xstream(&es).unwrap();
            server.remove_pool(&pool).unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        let count = traffic.join().unwrap();
        assert!(count > 0);
        server.finalize();
        client.finalize();
    }

    #[test]
    fn notify_oneway_reaches_handler() {
        let fabric = Fabric::new();
        let server = boot(&fabric, "server");
        let client = boot(&fabric, "client");
        let seen = Arc::new(AtomicBool::new(false));
        let seen2 = Arc::clone(&seen);
        server
            .register(
                "event",
                0,
                None,
                Arc::new(move |ctx: RpcContext| {
                    let value: String = ctx.args().unwrap();
                    assert_eq!(value, "fire");
                    seen2.store(true, Ordering::SeqCst);
                }),
            )
            .unwrap();
        client.notify(&server.address(), "event", 0, &"fire".to_string()).unwrap();
        assert!(mochi_util::time::wait_until(
            Duration::from_secs(5),
            Duration::from_millis(1),
            || seen.load(Ordering::SeqCst)
        ));
        server.finalize();
        client.finalize();
    }

    #[test]
    fn finalize_makes_peers_time_out() {
        let fabric = Fabric::new();
        let server = boot(&fabric, "server");
        let client = boot(&fabric, "client");
        register_echo(&server, 0);
        server.finalize();
        let err = client
            .forward_timeout::<String, String>(
                &server.address(),
                "echo",
                0,
                &"x".to_string(),
                Duration::from_millis(50),
            )
            .unwrap_err();
        assert!(err.is_timeout());
        client.finalize();
    }

    #[test]
    fn duplicate_registration_rejected() {
        let fabric = Fabric::new();
        let server = boot(&fabric, "server");
        register_echo(&server, 0);
        let err = server
            .register_typed::<String, String, _>("echo", 0, None, |s, _| Ok(s))
            .unwrap_err();
        assert!(matches!(err, MargoError::AlreadyRegistered { .. }));
        server.finalize();
    }

    #[test]
    fn registration_into_unknown_pool_rejected() {
        let fabric = Fabric::new();
        let server = boot(&fabric, "server");
        let err = server
            .register_typed::<(), (), _>("x", 0, Some("ghost"), |_, _| Ok(()))
            .unwrap_err();
        assert_eq!(err, MargoError::PoolNotFound("ghost".into()));
        server.finalize();
    }

    #[test]
    fn config_json_reflects_runtime() {
        let fabric = Fabric::new();
        let server = boot(&fabric, "server");
        register_echo(&server, 9);
        let config = server.config_json();
        assert_eq!(config["progress_pool"], "__primary__");
        let rpcs = config["rpcs"].as_array().unwrap();
        assert_eq!(rpcs.len(), 1);
        assert_eq!(rpcs[0]["name"], "echo");
        assert_eq!(rpcs[0]["provider_id"], 9);
        server.finalize();
    }

    #[test]
    fn handler_panic_reported_as_failure_not_crash() {
        let fabric = Fabric::new();
        let server = boot(&fabric, "server");
        let client = boot(&fabric, "client");
        server
            .register(
                "boom",
                0,
                None,
                Arc::new(|_ctx: RpcContext| panic!("intentional")),
            )
            .unwrap();
        // The panic is contained; the client times out (no response was
        // sent) rather than the whole process dying.
        let err = client
            .forward_timeout::<(), ()>(
                &server.address(),
                "boom",
                0,
                &(),
                Duration::from_millis(100),
            )
            .unwrap_err();
        assert!(err.is_timeout());
        // Server still alive and serving.
        register_echo(&server, 0);
        let out: String = client.forward(&server.address(), "echo", 0, &"ok".to_string()).unwrap();
        assert_eq!(out, "ok");
        server.finalize();
        client.finalize();
    }

    #[test]
    fn sampler_populates_progress_section() {
        let fabric = Fabric::new();
        let mut config = MargoConfig::default();
        config.monitoring.sampling_period_ms = 5;
        let server =
            MargoRuntime::init(&fabric, Address::tcp("sampled", 1), &config).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let stats = server.monitoring_json().unwrap();
        assert!(stats["progress"]["samples"].as_u64().unwrap() >= 2);
        assert!(stats["progress"]["pool_sizes"].as_object().unwrap().contains_key("__primary__"));
        server.finalize();
    }

    #[test]
    fn nested_calls_inherit_remaining_deadline() {
        let fabric = Fabric::new();
        let dead = boot(&fabric, "dead");
        register_echo(&dead, 0);
        let dead_addr = dead.address();
        // Finalized endpoint: requests to it vanish (no response).
        dead.finalize();
        let relay = boot(&fabric, "relay");
        let observed: Arc<Mutex<Option<(Duration, MargoError)>>> = Arc::new(Mutex::new(None));
        let observed2 = Arc::clone(&observed);
        relay
            .register_typed("relay", 0, None, move |input: String, ctx| {
                // The nested forward uses the *default* 30 s timeout; the
                // deadline inherited from the parent must clamp it to the
                // parent's remaining budget, so a chain under a 100 ms
                // top-level deadline can never take 3 × 100 ms.
                let start = Instant::now();
                let err =
                    ctx.forward::<String, String>(&dead_addr, "echo", 0, &input).unwrap_err();
                *observed2.lock() = Some((start.elapsed(), err));
                Err::<String, String>("upstream dead".into())
            })
            .unwrap();
        let client = boot(&fabric, "client");
        let err = client
            .forward_timeout::<String, String>(
                &relay.address(),
                "relay",
                0,
                &"x".to_string(),
                Duration::from_millis(100),
            )
            .unwrap_err();
        // The client either times out (relay answered after its wait) or
        // sees the relay's handler error, depending on scheduling.
        assert!(err.is_timeout() || matches!(err, MargoError::Handler(_)), "got {err}");
        assert!(mochi_util::time::wait_until(
            Duration::from_secs(5),
            Duration::from_millis(1),
            || observed.lock().is_some()
        ));
        let (elapsed, child_err) = observed.lock().take().unwrap();
        assert!(
            elapsed < Duration::from_millis(1000),
            "child waited {elapsed:?}, not the parent's ≤100 ms remaining budget"
        );
        assert_eq!(child_err, MargoError::DeadlineExceeded);
        assert!(!child_err.is_timeout(), "deadline exhaustion is not a transport timeout");
        relay.finalize();
        client.finalize();
    }

    #[test]
    fn expired_deadline_fails_before_sending() {
        let fabric = Fabric::new();
        let server = boot(&fabric, "server");
        let client = boot(&fabric, "client");
        let hits = Arc::new(AtomicI64::new(0));
        let hits2 = Arc::clone(&hits);
        server
            .register_typed("count", 0, None, move |_: (), _| {
                hits2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            })
            .unwrap();
        let past = Instant::now().checked_sub(Duration::from_millis(10)).unwrap_or_else(Instant::now);
        let context = CallContext::TOP_LEVEL.with_deadline(Some(past));
        let err = client
            .forward_full::<(), ()>(&server.address(), "count", 0, &(), context, Duration::from_secs(1))
            .unwrap_err();
        assert_eq!(err, MargoError::DeadlineExceeded);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(hits.load(Ordering::SeqCst), 0, "request must never reach the server");
        server.finalize();
        client.finalize();
    }

    #[test]
    fn idempotent_rpc_survives_transient_drops() {
        let fabric = Fabric::new();
        let server = boot(&fabric, "server");
        let client = boot(&fabric, "client");
        let hits = Arc::new(AtomicI64::new(0));
        let hits2 = Arc::clone(&hits);
        server
            .register_typed("get", 0, None, move |k: String, _| {
                hits2.fetch_add(1, Ordering::SeqCst);
                Ok(k)
            })
            .unwrap();
        client.declare_idempotent("get");
        assert!(client.is_idempotent("get"));
        // First two request sends on the client→server link vanish; the
        // third gets through.
        fabric.faults().push_script(
            Some("client"),
            Some("server"),
            mochi_mercury::LinkScript::FailFirst(2),
        );
        let out: String = client
            .forward_timeout(&server.address(), "get", 0, &"k".to_string(), Duration::from_millis(100))
            .unwrap();
        assert_eq!(out, "k");
        assert_eq!(hits.load(Ordering::SeqCst), 1, "only the delivered attempt executed");
        // Monitoring sees one logical call with two retries.
        let stats = client.monitoring_json().unwrap();
        let key = format!("65535:65535:{}:0", rpc_id_for_name("get"));
        let peer = &stats["rpcs"][&key]["origin"][format!("sent to {}", server.address())];
        assert_eq!(peer["retries"], 2);
        assert_eq!(peer["forward"]["duration"]["num"], 1);
        server.finalize();
        client.finalize();
    }

    #[test]
    fn non_idempotent_rpc_is_never_retried() {
        let fabric = Fabric::new();
        let server = boot(&fabric, "server");
        let client = boot(&fabric, "client");
        let hits = Arc::new(AtomicI64::new(0));
        let hits2 = Arc::clone(&hits);
        server
            .register_typed("inc", 0, None, move |_: (), _| {
                hits2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            })
            .unwrap();
        // The first send is dropped. A retry *would* succeed — which is
        // exactly what must not happen for an undeclared RPC.
        fabric.faults().push_script(
            Some("client"),
            Some("server"),
            mochi_mercury::LinkScript::FailFirst(1),
        );
        let err = client
            .forward_timeout::<(), ()>(&server.address(), "inc", 0, &(), Duration::from_millis(50))
            .unwrap_err();
        assert!(err.is_timeout());
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(hits.load(Ordering::SeqCst), 0, "non-idempotent call was silently re-sent");
        let stats = client.monitoring_json().unwrap();
        let key = format!("65535:65535:{}:0", rpc_id_for_name("inc"));
        let peer = &stats["rpcs"][&key]["origin"][format!("sent to {}", server.address())];
        assert_eq!(peer["retries"], 0);
        assert_eq!(peer["errors"]["timeout"], 1);
        server.finalize();
        client.finalize();
    }

    /// Counts `ForwardStart`s and keeps every `ForwardEnd`'s
    /// `(ok, error, attempts)`.
    #[derive(Default)]
    struct ForwardLog {
        starts: AtomicI64,
        ends: Mutex<Vec<(bool, Option<&'static str>, u32)>>,
    }

    impl Monitor for ForwardLog {
        fn observe(&self, event: &MonitoringEvent<'_>) {
            match event {
                MonitoringEvent::ForwardStart { .. } => {
                    self.starts.fetch_add(1, Ordering::SeqCst);
                }
                MonitoringEvent::ForwardEnd { ok, error, attempts, .. } => {
                    self.ends.lock().push((*ok, *error, *attempts));
                }
                _ => {}
            }
        }
    }

    fn logged(client: &MargoRuntime) -> Arc<ForwardLog> {
        let log = Arc::new(ForwardLog::default());
        client.add_monitor(log.clone());
        log
    }

    fn post_unit(
        client: &MargoRuntime,
        dest: &Address,
        rpc: &str,
        timeout: Duration,
    ) -> PendingForward {
        let dest = Arc::new(dest.clone());
        client.iforward_full(&dest, rpc, 0, &(), CallContext::TOP_LEVEL, timeout).unwrap()
    }

    #[test]
    fn posted_forwards_overlap_from_one_caller_thread() {
        const NAP: Duration = Duration::from_millis(30);
        let fabric = Fabric::new();
        let client = boot(&fabric, "client");
        let servers: Vec<MargoRuntime> =
            (0..4).map(|i| boot(&fabric, &format!("server-{i}"))).collect();
        for server in &servers {
            server
                .register_typed("nap", 0, None, |_: (), _| {
                    std::thread::sleep(NAP);
                    Ok(())
                })
                .unwrap();
        }
        let start = Instant::now();
        let posted: Vec<PendingForward> = servers
            .iter()
            .map(|server| post_unit(&client, &server.address(), "nap", Duration::from_secs(5)))
            .collect();
        assert_eq!(client.in_flight_client(), 4);
        for pending in posted {
            pending.wait_decoded::<()>().unwrap();
        }
        let elapsed = start.elapsed();
        assert!(elapsed >= NAP, "nobody napped: {elapsed:?}");
        assert!(elapsed < 2 * NAP, "four 30 ms legs took {elapsed:?}: they ran one after another");
        assert_eq!(client.in_flight_client(), 0);
        for server in &servers {
            server.finalize();
        }
        client.finalize();
    }

    /// Posts "get" over a link that drops its first request
    /// (`idempotent_rpc_survives_transient_drops`' script) and waits.
    /// Returns the outcome, how often the handler ran and the logged ends.
    fn post_over_a_dropped_first_send(
        idempotent: bool,
    ) -> (Result<(), MargoError>, i64, Vec<(bool, Option<&'static str>, u32)>) {
        let fabric = Fabric::new();
        let server = boot(&fabric, "server");
        let client = boot(&fabric, "client");
        let hits = Arc::new(AtomicI64::new(0));
        let hits2 = Arc::clone(&hits);
        server
            .register_typed("get", 0, None, move |_: (), _| {
                hits2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            })
            .unwrap();
        if idempotent {
            client.declare_idempotent("get");
        }
        let log = logged(&client);
        fabric.faults().push_script(
            Some("client"),
            Some("server"),
            mochi_mercury::LinkScript::FailFirst(1),
        );
        let pending = post_unit(&client, &server.address(), "get", Duration::from_millis(50));
        let outcome = pending.wait_decoded::<()>();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(log.starts.load(Ordering::SeqCst), 1);
        let ends = log.ends.lock().clone();
        server.finalize();
        client.finalize();
        (outcome, hits.load(Ordering::SeqCst), ends)
    }

    #[test]
    fn posted_idempotent_forward_retries_from_wait() {
        // The post's own send is the one that vanishes; the second
        // attempt is made from `wait`.
        let (outcome, hits, ends) = post_over_a_dropped_first_send(true);
        outcome.unwrap();
        assert_eq!(hits, 1, "only the delivered attempt executed");
        assert_eq!(ends, vec![(true, None, 2)]);
    }

    #[test]
    fn posted_non_idempotent_forward_is_sent_once() {
        let (outcome, hits, ends) = post_over_a_dropped_first_send(false);
        assert!(outcome.unwrap_err().is_timeout());
        assert_eq!(hits, 0, "non-idempotent call was silently re-sent");
        assert_eq!(ends, vec![(false, Some("timeout"), 1)]);
    }

    #[test]
    fn posted_budget_runs_from_the_post() {
        let fabric = Fabric::new();
        let dead = boot(&fabric, "dead");
        let dead_addr = dead.address();
        dead.finalize();
        let client = boot(&fabric, "client");
        let timeout = Duration::from_millis(100);
        let start = Instant::now();
        let posted: Vec<PendingForward> =
            (0..3).map(|_| post_unit(&client, &dead_addr, "echo", timeout)).collect();
        for pending in posted {
            assert!(pending.wait().unwrap_err().is_timeout());
        }
        let elapsed = start.elapsed();
        assert!(elapsed >= timeout, "{elapsed:?}");
        assert!(elapsed < 2 * timeout, "three dead legs cost {elapsed:?}, not one timeout");
        client.finalize();
    }

    #[test]
    fn posted_forward_balances_its_books_on_every_exit() {
        let fabric = Fabric::new();
        let mut config = MargoConfig::default();
        config.breaker.failure_threshold = 2;
        config.breaker.probe_interval_ms = 10_000;
        let client = MargoRuntime::init(&fabric, Address::tcp("client", 1), &config).unwrap();
        let log = logged(&client);
        let dead = boot(&fabric, "dead");
        let dead_addr = dead.address();
        dead.finalize();
        let nobody = Address::tcp("nobody", 1);
        let short = Duration::from_millis(20);

        // Send error: the fabric refuses an address nobody registered.
        let pending = post_unit(&client, &nobody, "echo", short);
        assert_eq!(client.in_flight_client(), 1);
        assert_eq!(pending.wait().unwrap_err().kind(), "transport");
        // Timeout: a finalized peer swallows the request.
        assert!(post_unit(&client, &dead_addr, "echo", short).wait().unwrap_err().is_timeout());
        // Dropped handle: ends as a wait with no time left, and withdraws
        // its request from the endpoint (the second failure to `dead`
        // trips its breaker).
        drop(post_unit(&client, &dead_addr, "echo", short));
        // Breaker-rejected post: nothing is sent, the handle says why.
        let rejected = post_unit(&client, &dead_addr, "echo", short);
        assert_eq!(rejected.wait().unwrap_err().kind(), "breaker-open");

        assert_eq!(client.in_flight_client(), 0);
        assert_eq!(log.starts.load(Ordering::SeqCst), 4);
        assert_eq!(
            *log.ends.lock(),
            vec![
                (false, Some("transport"), 1),
                (false, Some("timeout"), 1),
                (false, Some("timeout"), 1),
                (false, Some("breaker-open"), 1),
            ]
        );
        client.finalize();
    }

    /// Four callers, each alternating a one-way and a forward against one
    /// default-config server, then quiescence: nothing may be left in the
    /// mailbox and no progress ULT armed. A progress ULT that disarmed
    /// *after* its drain would strand the arrival that fell between its
    /// last look and the store — a forward that times out here, or a
    /// one-way that is never counted.
    fn every_arrival_is_dispatched(model: mochi_mercury::NetworkModel) {
        const CALLERS: u64 = 4;
        const CALLS: u64 = 5_000;
        let fabric = Fabric::with_model(model);
        let server = boot(&fabric, "server");
        let client = boot(&fabric, "client");
        register_echo(&server, 0);
        let noted = register_note(&server);
        let dest = server.address();
        // In rounds: once the last message of a round is in the mailbox
        // nothing else arrives until every caller has its answer, so a
        // stranded message stays stranded. (Not a `Barrier`: a caller that
        // fails must not leave the others waiting for it.)
        let answered = std::sync::atomic::AtomicU64::new(0);
        let failed = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for caller in 0..CALLERS {
                let (client, dest, answered, failed) = (&client, &dest, &answered, &failed);
                scope.spawn(move || {
                    for call in 0..CALLS {
                        while answered.load(Ordering::SeqCst) < call * CALLERS {
                            if failed.load(Ordering::SeqCst) {
                                return;
                            }
                            std::thread::yield_now();
                        }
                        client.notify(dest, "note", 0, &()).unwrap();
                        let sent = format!("{caller}/{call}");
                        let echoed: Result<String, _> =
                            client.forward_timeout(dest, "echo", 0, &sent, Duration::from_secs(5));
                        if echoed.as_ref() != Ok(&sent) {
                            failed.store(true, Ordering::SeqCst);
                            panic!("call {sent} got {echoed:?}");
                        }
                        answered.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        let quiet = || {
            noted.load(Ordering::SeqCst) == (CALLERS * CALLS) as i64
                && server.in_flight_server() == 0
                && !server.inner.progress_armed.load(Ordering::SeqCst)
        };
        assert!(
            mochi_util::time::wait_until(Duration::from_secs(10), Duration::from_millis(1), quiet),
            "{} of {} one-ways handled, {} handlers in flight, armed: {}",
            noted.load(Ordering::SeqCst),
            CALLERS * CALLS,
            server.in_flight_server(),
            server.inner.progress_armed.load(Ordering::SeqCst),
        );
        assert!(server.inner.endpoint.progress(Duration::ZERO).unwrap().is_none());
        server.finalize();
        client.finalize();
    }

    #[test]
    fn every_arrival_is_dispatched_on_a_free_link() {
        every_arrival_is_dispatched(mochi_mercury::NetworkModel::instant());
    }

    /// The hook runs on `mercury-delivery` here, not on the senders.
    #[test]
    fn every_arrival_is_dispatched_on_a_modelled_link() {
        every_arrival_is_dispatched(mochi_mercury::NetworkModel::slow(Duration::from_micros(200)));
    }

    /// Steps one progress ULT by hand (its own xstream is kept busy) and
    /// lets a message arrive in the middle of its drain: the arrival must
    /// find the ULT disarmed and schedule a successor. Disarming after the
    /// drain would leave the pool empty here — and, in a real schedule,
    /// the arrival that falls after the drain's last look stranded.
    #[test]
    fn progress_disarms_before_it_drains() {
        /// Sends one more one-way to the server while the first is being
        /// dispatched.
        struct SendAnother {
            server: std::sync::OnceLock<MargoRuntime>,
            sent: AtomicBool,
        }
        impl Monitor for SendAnother {
            fn observe(&self, event: &MonitoringEvent<'_>) {
                if matches!(event, MonitoringEvent::RequestReceived { .. })
                    && !self.sent.swap(true, Ordering::SeqCst)
                {
                    let server = self.server.get().unwrap();
                    server.notify(&server.address(), "note", 0, &()).unwrap();
                }
            }
        }

        let fabric = Fabric::new();
        let config = MargoConfig::from_json(
            r#"{ "argobots": {
                   "pools": [ { "name": "handlers" }, { "name": "progress" } ],
                   "xstreams": [
                     { "name": "es-handlers", "scheduler": { "pools": ["handlers"] } },
                     { "name": "es-progress", "scheduler": { "pools": ["progress"] } } ] },
                 "progress_pool": "progress", "default_rpc_pool": "handlers" }"#,
        )
        .unwrap();
        let server = MargoRuntime::init(&fabric, Address::tcp("server", 1), &config).unwrap();
        let noted = register_note(&server);
        let monitor = Arc::new(SendAnother {
            server: std::sync::OnceLock::new(),
            sent: AtomicBool::new(false),
        });
        monitor.server.set(server.clone()).ok().unwrap();
        server.add_monitor(monitor);

        // Let `init`'s own arming run out, then occupy the progress xstream.
        let pool = server.find_pool_by_name("progress").unwrap();
        let armed = || server.inner.progress_armed.load(Ordering::SeqCst);
        assert!(mochi_util::time::wait_until(
            Duration::from_secs(5),
            Duration::from_millis(1),
            || !armed() && pool.stats().total_popped == 1
        ));
        let (started_tx, started) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        pool.push(Ult::new("occupy", move || {
            started_tx.send(()).unwrap();
            let _ = released.recv();
        }));
        started.recv().unwrap();

        let client = boot(&fabric, "client");
        client.notify(&server.address(), "note", 0, &()).unwrap();
        assert!(armed());
        assert_eq!(pool.len(), 1, "one arrival, one progress ULT");
        pool.try_pop().unwrap().run();
        // It dispatched both messages, and the one that arrived meanwhile
        // armed its successor.
        assert!(armed());
        assert_eq!(pool.len(), 1, "the arrival during the drain scheduled no progress ULT");
        pool.try_pop().unwrap().run();
        assert!(!armed());
        assert!(pool.is_empty());
        assert!(mochi_util::time::wait_until(
            Duration::from_secs(5),
            Duration::from_millis(1),
            || noted.load(Ordering::SeqCst) == 2
        ));
        release.send(()).unwrap();
        server.finalize();
        client.finalize();
    }

    /// The fabric slot's arrival hook is what keeps a process alive, as its
    /// progress thread used to: a runtime nobody holds a handle to serves
    /// until it is killed, and is then torn down by whoever killed it.
    #[test]
    fn an_unheld_runtime_serves_until_its_slot_goes() {
        let fabric = Fabric::new();
        let mut config = MargoConfig::default();
        config.monitoring.sampling_period_ms = 0; // no sampler holding a handle
        let addr = Address::tcp("server", 1);
        let server = MargoRuntime::init(&fabric, addr.clone(), &config).unwrap();
        register_echo(&server, 0);
        let inner = Arc::downgrade(&server.inner);
        drop(server);
        let client = boot(&fabric, "client");
        let out: String = client.forward(&addr, "echo", 0, &"unheld".to_string()).unwrap();
        assert_eq!(out, "unheld");
        // The handler ULT that answered holds a handle until it returns.
        assert!(mochi_util::time::wait_until(
            Duration::from_secs(5),
            Duration::from_millis(1),
            || inner.strong_count() == 1
        ));
        fabric.kill(&addr);
        assert!(inner.upgrade().is_none(), "the slot's hook held the last handle");
        let err = client
            .forward_timeout::<String, String>(
                &addr,
                "echo",
                0,
                &"x".to_string(),
                Duration::from_millis(20),
            )
            .unwrap_err();
        assert!(err.is_timeout());
        client.finalize();
    }

    #[test]
    fn last_xstream_of_the_progress_pool_cannot_be_removed() {
        let fabric = Fabric::new();
        let server = boot(&fabric, "server");
        let client = boot(&fabric, "client");
        register_echo(&server, 0);
        let err = server.remove_xstream("__primary__").unwrap_err();
        assert_eq!(
            err,
            MargoError::PoolBusy {
                pool: "__primary__".into(),
                reason: "it is the last xstream serving the progress pool".into(),
            }
        );
        // With a second xstream on the pool the first may go, and the
        // process still receives.
        server
            .add_xstream_from_json(r#"{"name": "second", "scheduler": {"pools": ["__primary__"]}}"#)
            .unwrap();
        server.remove_xstream("__primary__").unwrap();
        assert!(matches!(
            server.remove_xstream("second").unwrap_err(),
            MargoError::PoolBusy { .. }
        ));
        let out: String =
            client.forward(&server.address(), "echo", 0, &"still".to_string()).unwrap();
        assert_eq!(out, "still");
        server.finalize();
        client.finalize();
    }

    #[test]
    fn breaker_trips_and_recovers_with_monitoring() {
        let fabric = Fabric::new();
        let mut config = MargoConfig::default();
        config.breaker.failure_threshold = 2;
        config.breaker.probe_interval_ms = 50;
        let client = MargoRuntime::init(&fabric, Address::tcp("client", 1), &config).unwrap();
        let target = Address::tcp("target", 1);
        // Two transport failures (address never registered) trip the
        // breaker…
        for _ in 0..2 {
            let err = client
                .forward_timeout::<(), ()>(&target, "echo", 0, &(), Duration::from_millis(50))
                .unwrap_err();
            assert_eq!(err.kind(), "transport");
        }
        // …after which calls are rejected locally without touching the
        // network, with a distinct error kind.
        let err = client
            .forward_timeout::<(), ()>(&target, "echo", 0, &(), Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err.kind(), "breaker-open");
        assert!(matches!(err, MargoError::BreakerOpen { provider_id: 0, .. }));
        let json = client.monitoring_json().unwrap();
        assert_eq!(json["breakers"][format!("{target}:0")]["state"], "open");
        // The destination comes up at the same address; once the probe
        // interval elapses a single probe is admitted and re-closes the
        // breaker.
        let server = boot(&fabric, "target");
        register_echo(&server, 0);
        std::thread::sleep(Duration::from_millis(60));
        let out: String = client.forward(&target, "echo", 0, &"back".to_string()).unwrap();
        assert_eq!(out, "back");
        assert!(client.breakers().all_closed_among(|_| true));
        let json = client.monitoring_json().unwrap();
        let entry = &json["breakers"][format!("{target}:0")];
        assert_eq!(entry["state"], "closed");
        assert_eq!(entry["trips"], 1);
        server.finalize();
        client.finalize();
    }

    #[test]
    fn user_monitor_receives_events() {
        use crate::monitoring::{Monitor, MonitoringEvent};
        struct CountForwards(AtomicI64);
        impl Monitor for CountForwards {
            fn observe(&self, event: &MonitoringEvent<'_>) {
                if matches!(event, MonitoringEvent::ForwardEnd { .. }) {
                    self.0.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        let fabric = Fabric::new();
        let server = boot(&fabric, "server");
        let client = boot(&fabric, "client");
        register_echo(&server, 0);
        let counter = Arc::new(CountForwards(AtomicI64::new(0)));
        client.add_monitor(counter.clone());
        for _ in 0..4 {
            let _: String =
                client.forward(&server.address(), "echo", 0, &"m".to_string()).unwrap();
        }
        assert_eq!(counter.0.load(Ordering::SeqCst), 4);
        server.finalize();
        client.finalize();
    }
}
