//! SSG-view-driven failover for resource handles (paper §7).
//!
//! A [`DatabaseHandle`](mochi_yokan::client::DatabaseHandle) pins one
//! `(address, provider_id)`; when the [`ResilienceManager`] rebuilds a
//! dead member on a fresh node, that pinned address points at a grave.
//! [`FailoverKv`] closes the loop: it resolves the provider's *current*
//! location from the service's own bookkeeping filtered by the SSG view
//! (Observation 12 — SWIM tells us who is actually alive), issues the
//! operation through the regular retry-aware client, and on a
//! transport-class failure or an open breaker re-resolves and tries the
//! next incarnation.
//!
//! The location that last resolved is kept and reused until something says
//! it may have moved: an error of the rerouting kind, a change of the
//! service's member set, or a new SSG view epoch (so a member the view
//! calls dead is skipped without first paying a timeout on it).
//!
//! A caller with several providers to ask posts the first round of each
//! operation ([`FailoverKv::post_rounds`]) before it waits on any; the
//! rounds after a failed first one run blocking inside that wait.
//!
//! [`ResilienceManager`]: crate::resilience::ResilienceManager

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use mochi_margo::{MargoError, MargoRuntime};
use mochi_mercury::Address;
use mochi_yokan::client::{DatabaseHandle, PendingCall};

use crate::service::DynamicService;

/// Default wait between re-resolution rounds while the service recovers
/// a member (SWIM detection + respawn are not instantaneous). Override
/// with [`FailoverKv::with_reroute_backoff`].
const REROUTE_BACKOFF: Duration = Duration::from_millis(50);

/// Default resolution rounds before giving up. Override with
/// [`FailoverKv::with_max_rounds`].
const MAX_ROUNDS: u32 = 40;

/// A resolved location and what it was resolved against
/// ([`DynamicService::membership_stamp`]).
struct Located {
    handle: Arc<DatabaseHandle>,
    stamp: (u64, u64),
}

/// A Yokan database handle that follows its provider across failovers.
pub struct FailoverKv {
    service: Arc<DynamicService>,
    margo: MargoRuntime,
    provider: String,
    /// Resolution rounds before giving up (each round re-reads the view).
    max_rounds: u32,
    /// Wait between re-resolution rounds.
    reroute_backoff: Duration,
    /// Per-operation timeout; kept short so a stale location fails fast
    /// and the next round re-resolves.
    timeout: Duration,
    /// A leaf lock: held to read or replace the slot, never across
    /// resolution or an RPC.
    located: Mutex<Option<Located>>,
    resolutions: AtomicU64,
}

impl FailoverKv {
    /// Creates a failover handle for the provider named `provider`,
    /// issuing RPCs from `margo` (typically a client process outside the
    /// service).
    pub fn new(service: &Arc<DynamicService>, margo: &MargoRuntime, provider: &str) -> Self {
        Self {
            service: Arc::clone(service),
            margo: margo.clone(),
            provider: provider.to_string(),
            max_rounds: MAX_ROUNDS,
            reroute_backoff: REROUTE_BACKOFF,
            timeout: Duration::from_millis(250),
            located: Mutex::new(None),
            resolutions: AtomicU64::new(0),
        }
    }

    /// Overrides the number of re-resolution rounds.
    pub fn with_max_rounds(mut self, rounds: u32) -> Self {
        self.max_rounds = rounds.max(1);
        self
    }

    /// Overrides the wait between re-resolution rounds (default 50ms).
    /// The routed keyspace tunes this down so a whole scatter-gather
    /// fan-out is not held hostage by one slow leg's backoff.
    pub fn with_reroute_backoff(mut self, backoff: Duration) -> Self {
        self.reroute_backoff = backoff;
        self
    }

    /// The provider name this handle follows.
    pub fn provider(&self) -> &str {
        &self.provider
    }

    /// Overrides the per-operation timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Resolves the provider's current location: a member that is both in
    /// the service's records and alive per the SSG view, and that reports
    /// hosting `self.provider`. Always consults the service; operations go
    /// through [`Self::handle`], which remembers the answer.
    pub fn resolve(&self) -> Option<(Address, u16)> {
        self.resolutions.fetch_add(1, Ordering::Relaxed);
        let view = self.service.view()?;
        for addr in self.service.addresses() {
            if !view.contains(&addr) {
                continue;
            }
            let Some(server) = self.service.server(&addr) else { continue };
            if let Ok(info) = server.lookup_provider(&self.provider) {
                return Some((addr, info.provider_id));
            }
        }
        None
    }

    /// How many times the service was asked where the provider is.
    pub fn resolutions(&self) -> u64 {
        self.resolutions.load(Ordering::Relaxed)
    }

    /// A handle to the provider's location: the remembered one while the
    /// member set and the view epoch it was resolved against still stand,
    /// a freshly resolved one otherwise.
    pub fn handle(&self) -> Option<Arc<DatabaseHandle>> {
        let stamp = self.service.membership_stamp()?;
        if let Some(located) = &*self.located.lock() {
            if located.stamp == stamp {
                return Some(Arc::clone(&located.handle));
            }
        }
        // `stamp` was read before resolving: a change that races with the
        // resolution leaves a stamp that no longer matches, never a stale
        // location under a current one.
        let (addr, provider_id) = self.resolve()?;
        let handle = Arc::new(
            DatabaseHandle::new(&self.margo, addr, provider_id).with_timeout(self.timeout),
        );
        *self.located.lock() = Some(Located { handle: Arc::clone(&handle), stamp });
        Some(handle)
    }

    /// Forgets `handle`'s location (it failed in a way that says the
    /// provider may be elsewhere), unless a newer one replaced it already.
    fn forget(&self, handle: &Arc<DatabaseHandle>) {
        let mut located = self.located.lock();
        if located.as_ref().is_some_and(|l| Arc::ptr_eq(&l.handle, handle)) {
            *located = None;
        }
    }

    /// Runs `op` against the provider's current location, re-resolving
    /// and retrying when the location fails underneath it. Application
    /// errors (`Handler`) pass through untouched — failover only reroutes
    /// failures that mean "this *location* is unreachable": transport
    /// errors, missing handlers, exhausted deadlines, and open breakers.
    pub fn with_handle<T>(
        &self,
        op: impl Fn(&DatabaseHandle) -> Result<T, MargoError>,
    ) -> Result<T, MargoError> {
        self.with_handle_rounds(self.max_rounds, op)
    }

    /// [`Self::with_handle`] with an explicit round budget. Replicated
    /// fan-outs drive each leg with a small budget (fail fast, let the
    /// quorum/hint machinery absorb the loss) while keeping the default
    /// patient behavior for single-provider callers.
    pub fn with_handle_rounds<T>(
        &self,
        rounds: u32,
        op: impl Fn(&DatabaseHandle) -> Result<T, MargoError>,
    ) -> Result<T, MargoError> {
        self.rounds_from(0, rounds, None, op)
    }

    /// Posting counterpart of [`Self::with_handle_rounds`]: the first
    /// round's RPC is posted to the remembered (or freshly resolved)
    /// location and this returns at once, so a caller with several legs
    /// posts them all before it waits on any. `post` is a plain function
    /// of the handle and `request` (a method path does:
    /// `DatabaseHandle::post_put_versioned`), so the posted operation is a
    /// value with a nameable type that can be handed to another thread.
    /// Rounds after the first are the failure path and run blocking inside
    /// [`PostedOp::wait`].
    pub fn post_rounds<R, T>(
        self: &Arc<Self>,
        rounds: u32,
        request: R,
        post: fn(&DatabaseHandle, &R) -> PendingCall<T>,
    ) -> PostedOp<R, T> {
        let first = self.handle().map(|handle| {
            let pending = post(&handle, &request);
            (handle, pending)
        });
        PostedOp { leg: Arc::clone(self), rounds, request, post, first }
    }

    /// Rounds `from..rounds` of an operation: back off (after the first),
    /// resolve, run `op`. `last_err` is what an earlier round failed with;
    /// an operation that ends without any round having found a location
    /// fails with [`Self::nowhere`], built only then.
    fn rounds_from<T>(
        &self,
        from: u32,
        rounds: u32,
        mut last_err: Option<MargoError>,
        op: impl Fn(&DatabaseHandle) -> Result<T, MargoError>,
    ) -> Result<T, MargoError> {
        for round in from..rounds.max(1) {
            if round > 0 {
                std::thread::sleep(self.reroute_backoff);
            }
            let Some(handle) = self.handle() else {
                continue;
            };
            match self.settle(&handle, op(&handle)) {
                ControlFlow::Break(outcome) => return outcome,
                ControlFlow::Continue(err) => last_err = Some(err),
            }
        }
        Err(last_err.unwrap_or_else(|| self.nowhere()))
    }

    /// What one round's result means: the operation's outcome, or — after
    /// forgetting a location that failed in a rerouting way — the error to
    /// carry into the next round.
    fn settle<T>(
        &self,
        handle: &Arc<DatabaseHandle>,
        result: Result<T, MargoError>,
    ) -> ControlFlow<Result<T, MargoError>, MargoError> {
        match result {
            Err(err) if Self::should_reroute(&err) => {
                self.forget(handle);
                ControlFlow::Continue(err)
            }
            outcome => ControlFlow::Break(outcome),
        }
    }

    /// The error of an operation that never found a location to run at.
    fn nowhere(&self) -> MargoError {
        MargoError::Handler(format!("provider '{}' not found on any live member", self.provider))
    }

    pub(crate) fn should_reroute(err: &MargoError) -> bool {
        err.is_retryable()
            || matches!(err, MargoError::BreakerOpen { .. } | MargoError::DeadlineExceeded)
    }

    /// Stores `value` under `key` at the provider's current location.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), MargoError> {
        self.with_handle(|h| h.put(key, value))
    }

    /// Fetches the value under `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, MargoError> {
        self.with_handle(|h| h.get(key))
    }

    /// Stores many pairs in one RPC at the provider's current location.
    pub fn put_multi(&self, pairs: &[(&[u8], &[u8])]) -> Result<(), MargoError> {
        self.with_handle(|h| h.put_multi(pairs))
    }

    /// Fetches many values in one RPC (entry is `None` for missing keys).
    pub fn get_multi(&self, keys: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>, MargoError> {
        self.with_handle(|h| h.get_multi(keys))
    }

    /// Removes `key`; returns whether it existed. Not retried by the
    /// transport (erase is not idempotent), but still re-resolved across
    /// rounds like every other op — so after a transport-class failure
    /// the erase may execute twice. The *effect* (key absent) is
    /// idempotent; only the returned bool can differ, same caveat the
    /// yokan client documents for erase-under-retry.
    pub fn erase(&self, key: &[u8]) -> Result<bool, MargoError> {
        self.with_handle(|h| h.erase(key))
    }

    /// Lists up to `max` keys starting with `prefix`, after `start_after`.
    pub fn list_keys(
        &self,
        prefix: &[u8],
        start_after: Option<&[u8]>,
        max: usize,
    ) -> Result<Vec<Vec<u8>>, MargoError> {
        self.with_handle(|h| h.list_keys(prefix, start_after, max))
    }

    /// Whether `key` exists.
    pub fn exists(&self, key: &[u8]) -> Result<bool, MargoError> {
        self.with_handle(|h| h.exists(key))
    }

    /// Number of keys.
    pub fn len(&self) -> Result<u64, MargoError> {
        self.with_handle(|h| h.len())
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> Result<bool, MargoError> {
        Ok(self.len()? == 0)
    }
}

/// An operation whose first round has been posted
/// ([`FailoverKv::post_rounds`]).
#[must_use = "wait on the posted operation to obtain its outcome"]
pub struct PostedOp<R, T> {
    leg: Arc<FailoverKv>,
    rounds: u32,
    request: R,
    post: fn(&DatabaseHandle, &R) -> PendingCall<T>,
    /// The first round's location and call (`None`: nowhere to post to).
    first: Option<(Arc<DatabaseHandle>, PendingCall<T>)>,
}

impl<R, T> PostedOp<R, T> {
    /// Waits for the posted round; if its location failed underneath it,
    /// runs the remaining rounds like [`FailoverKv::with_handle_rounds`].
    pub fn wait(self) -> Result<T, MargoError> {
        let Self { leg, rounds, request, post, first } = self;
        let mut last_err = None;
        if let Some((handle, pending)) = first {
            match leg.settle(&handle, pending.wait()) {
                ControlFlow::Break(outcome) => return outcome,
                ControlFlow::Continue(err) => last_err = Some(err),
            }
        }
        leg.rounds_from(1, rounds, last_err, |handle| post(handle, &request).wait())
    }
}
