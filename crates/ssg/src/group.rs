//! The member- and client-side group objects, wiring the SWIM state
//! machine to Margo.
//!
//! "A group can be bootstrapped from PMIx, MPI, or simply a list of
//! initial addresses. Should the group change … the view will be updated
//! in all the service's processes" (§6). The cluster harness uses the
//! address-list bootstrap; joining and leaving are online operations.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use mochi_margo::{MargoError, MargoRuntime};
use mochi_mercury::Address;
use mochi_util::ordered_lock::{rank, OrderedMutex};
use mochi_util::SeededRng;

use crate::config::SwimConfig;
use crate::swim::{MemberSnapshot, MembershipEvent, SwimState, Update};
use crate::view::{GroupView, MemberState};

/// RPC names registered by a group member.
/// The constants themselves live in [`crate::rpc_names`].
pub use crate::rpc_names as rpc;

/// Ping arguments/reply: piggybacked updates in both directions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PingArgs {
    /// Sender.
    pub from: Address,
    /// Piggybacked updates.
    pub updates: Vec<Update>,
}

/// Ping reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PingReply {
    /// Responder's piggybacked updates.
    pub updates: Vec<Update>,
}

/// Ping-req arguments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PingReqArgs {
    /// Who is asking.
    pub from: Address,
    /// Who to probe on their behalf.
    pub target: Address,
    /// Piggybacked updates.
    pub updates: Vec<Update>,
}

/// Ping-req reply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PingReqReply {
    /// Whether the target answered the relayed probe.
    pub ok: bool,
    /// Piggybacked updates.
    pub updates: Vec<Update>,
}

/// Join arguments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JoinArgs {
    /// The joining member.
    pub joiner: Address,
}

/// Join reply: the current membership snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JoinReply {
    /// Snapshot of alive members (including the responder).
    pub members: Vec<MemberSnapshot>,
}

/// Callback invoked on membership changes.
pub type MembershipCallback = Arc<dyn Fn(&MembershipEvent) + Send + Sync>;

struct GroupInner {
    margo: MargoRuntime,
    provider_id: u16,
    config: SwimConfig,
    state: OrderedMutex<SwimState>,
    // leaf: cloned out before any callback runs.
    callbacks: Mutex<Vec<MembershipCallback>>,
    rng: OrderedMutex<SeededRng>,
    stopped: AtomicBool,
}

impl GroupInner {
    fn fire_events(&self, events: Vec<MembershipEvent>) {
        if events.is_empty() {
            return;
        }
        let callbacks = self.callbacks.lock().clone();
        for event in &events {
            for callback in &callbacks {
                callback(event);
            }
        }
    }

    fn apply_updates(&self, updates: &[Update]) {
        let events = {
            let mut state = self.state.lock();
            for update in updates {
                state.apply_update(update);
            }
            state.drain_events()
        };
        self.fire_events(events);
    }

    /// One SWIM protocol period.
    fn protocol_round(self: &Arc<Self>) {
        // Tick suspicion timers.
        let (target, updates) = {
            let mut state = self.state.lock();
            state.tick();
            let mut rng = self.rng.lock();
            let target = state.next_ping_target(&mut rng);
            let updates = state.take_piggyback(6);
            (target, updates)
        };
        {
            let events = self.state.lock().drain_events();
            self.fire_events(events);
        }
        let Some(target) = target else { return };
        let self_addr = self.margo.address();

        // Direct probe.
        let args = PingArgs { from: self_addr.clone(), updates };
        let reply: Result<PingReply, MargoError> = self.margo.forward_timeout(
            &target,
            rpc::PING,
            self.provider_id,
            &args,
            self.config.ping_timeout(),
        );
        match reply {
            Ok(reply) => {
                self.apply_updates(&reply.updates);
                let events = {
                    let mut state = self.state.lock();
                    state.confirm_alive(&target);
                    state.drain_events()
                };
                self.fire_events(events);
            }
            Err(_) => {
                // Indirect probing through k relays.
                let relays = {
                    let state = self.state.lock();
                    let mut rng = self.rng.lock();
                    state.select_indirect(&mut rng, self.config.indirect_count, &target)
                };
                for relay in relays {
                    let args = PingReqArgs {
                        from: self_addr.clone(),
                        target: target.clone(),
                        updates: Vec::new(),
                    };
                    let reply: Result<PingReqReply, MargoError> = self.margo.forward_timeout(
                        &relay,
                        rpc::PING_REQ,
                        self.provider_id,
                        &args,
                        self.config.ping_timeout() * 2,
                    );
                    if let Ok(reply) = reply {
                        self.apply_updates(&reply.updates);
                        if reply.ok {
                            let events = {
                                let mut state = self.state.lock();
                                state.confirm_alive(&target);
                                state.drain_events()
                            };
                            self.fire_events(events);
                            return;
                        }
                    }
                }
                // Direct and indirect probes failed: suspect.
                let events = {
                    let mut state = self.state.lock();
                    state.suspect_locally(&target);
                    state.drain_events()
                };
                self.fire_events(events);
            }
        }
    }
}

/// A member of an SSG group.
pub struct SsgGroup {
    inner: Arc<GroupInner>,
    // leaf: holds the protocol thread's handle; only a join runs under it.
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl SsgGroup {
    /// Bootstraps a member from a list of initial addresses (every
    /// process of the initial group calls this with the same list).
    pub fn create(
        margo: &MargoRuntime,
        provider_id: u16,
        config: SwimConfig,
        initial: &[Address],
    ) -> Result<Arc<Self>, MargoError> {
        let snapshot: Vec<MemberSnapshot> = initial
            .iter()
            .map(|a| MemberSnapshot { address: a.clone(), incarnation: 0 })
            .collect();
        Self::with_snapshot(margo, provider_id, config, &snapshot, 0)
    }

    /// Joins an existing group through any current member.
    pub fn join(
        margo: &MargoRuntime,
        provider_id: u16,
        config: SwimConfig,
        seed: &Address,
    ) -> Result<Arc<Self>, MargoError> {
        let reply: JoinReply = margo.forward(
            seed,
            rpc::JOIN,
            provider_id,
            &JoinArgs { joiner: margo.address() },
        )?;
        // If the group saw an earlier incarnation of us die, outbid it.
        let own = reply
            .members
            .iter()
            .find(|m| m.address == margo.address())
            .map(|m| m.incarnation + 1)
            .unwrap_or(0);
        Self::with_snapshot(margo, provider_id, config, &reply.members, own)
    }

    fn with_snapshot(
        margo: &MargoRuntime,
        provider_id: u16,
        config: SwimConfig,
        snapshot: &[MemberSnapshot],
        incarnation: u64,
    ) -> Result<Arc<Self>, MargoError> {
        let mut state = SwimState::new(
            margo.address(),
            snapshot,
            config.piggyback_limit,
            config.suspicion_periods,
        );
        state.set_incarnation(incarnation);
        // Announce ourselves.
        let self_update = Update {
            subject: margo.address(),
            state: MemberState::Alive,
            incarnation,
        };
        state.apply_update(&self_update); // no-op locally, but queues nothing
        let inner = Arc::new(GroupInner {
            margo: margo.clone(),
            provider_id,
            config,
            state: OrderedMutex::new(rank::SSG_STATE, "ssg.state", state),
            callbacks: Mutex::new(Vec::new()),
            rng: OrderedMutex::new(
                rank::SSG_RNG,
                "ssg.rng",
                SeededRng::new(config.seed).child(&margo.address().to_string()),
            ),
            stopped: AtomicBool::new(false),
        });
        // Seed the dissemination buffer with our own aliveness so pings
        // propagate the join.
        {
            let mut state = inner.state.lock();
            let update = Update {
                subject: margo.address(),
                state: MemberState::Alive,
                incarnation,
            };
            // enqueue via the public path: applying an update about self
            // does not enqueue, so push through take/apply trick:
            state.force_enqueue(update);
        }
        Self::register_rpcs(&inner)?;
        let group = Arc::new(Self { inner: Arc::clone(&inner), thread: Mutex::new(None) });
        // Protocol thread.
        let thread_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name(format!("ssg-{}", margo.address()))
            .spawn(move || {
                while !thread_inner.stopped.load(Ordering::SeqCst) {
                    std::thread::sleep(thread_inner.config.period());
                    if thread_inner.stopped.load(Ordering::SeqCst) {
                        break;
                    }
                    thread_inner.protocol_round();
                }
            })
            .map_err(|e| MargoError::Spawn(format!("ssg protocol: {e}")))?;
        *group.thread.lock() = Some(handle);
        Ok(group)
    }

    fn register_rpcs(inner: &Arc<GroupInner>) -> Result<(), MargoError> {
        let margo = inner.margo.clone();
        let provider_id = inner.provider_id;

        let ping_inner = Arc::clone(inner);
        margo.register_typed(rpc::PING, provider_id, None, move |args: PingArgs, _| {
            ping_inner.apply_updates(&args.updates);
            // Seeing a ping from someone proves they are alive.
            let (updates, events) = {
                let mut state = ping_inner.state.lock();
                state.confirm_alive(&args.from);
                let updates = state.take_piggyback(6);
                let events = state.drain_events();
                (updates, events)
            };
            ping_inner.fire_events(events);
            Ok(PingReply { updates })
        })?;

        let req_inner = Arc::clone(inner);
        margo.register_typed(rpc::PING_REQ, provider_id, None, move |args: PingReqArgs, _| {
            req_inner.apply_updates(&args.updates);
            // Relay the probe with the short ping timeout — the relay's
            // handler must not block its ES behind a dead target.
            let probe = PingArgs { from: req_inner.margo.address(), updates: Vec::new() };
            let ok = req_inner
                .margo
                .forward_timeout::<_, PingReply>(
                    &args.target,
                    rpc::PING,
                    req_inner.provider_id,
                    &probe,
                    req_inner.config.ping_timeout(),
                )
                .is_ok();
            let updates = req_inner.state.lock().take_piggyback(6);
            Ok(PingReqReply { ok, updates })
        })?;

        let view_inner = Arc::clone(inner);
        margo.register_typed(rpc::GET_VIEW, provider_id, None, move |_: (), _| {
            Ok(view_inner.state.lock().view())
        })?;

        let join_inner = Arc::clone(inner);
        margo.register_typed(rpc::JOIN, provider_id, None, move |args: JoinArgs, _| {
            let reply = {
                let state = join_inner.state.lock();
                JoinReply { members: state.snapshot() }
            };
            // Disseminate the joiner.
            let incarnation = reply
                .members
                .iter()
                .find(|m| m.address == args.joiner)
                .map(|m| m.incarnation + 1)
                .unwrap_or(0);
            join_inner.apply_updates(&[Update {
                subject: args.joiner,
                state: MemberState::Alive,
                incarnation,
            }]);
            Ok(reply)
        })?;
        Ok(())
    }

    /// The current view (self's perspective).
    pub fn view(&self) -> GroupView {
        self.inner.state.lock().view()
    }

    /// [`GroupView::epoch`] of the current view, without building it.
    pub fn view_epoch(&self) -> u64 {
        self.inner.state.lock().epoch()
    }

    /// The view's membership hash (the Colza staleness check).
    pub fn view_hash(&self) -> u64 {
        self.view().hash()
    }

    /// Registers a membership-change callback.
    pub fn on_change(&self, callback: MembershipCallback) {
        self.inner.callbacks.lock().push(callback);
    }

    /// Gracefully leaves: announces our death to a few members and stops.
    pub fn leave(&self) {
        let (peers, incarnation) = {
            let state = self.inner.state.lock();
            (state.view().members, state.incarnation())
        };
        let update = Update {
            subject: self.inner.margo.address(),
            state: MemberState::Dead,
            incarnation,
        };
        let mut notified = 0;
        for peer in peers {
            if peer == self.inner.margo.address() {
                continue;
            }
            let args = PingArgs { from: self.inner.margo.address(), updates: vec![update.clone()] };
            let result: Result<PingReply, _> = self.inner.margo.forward_timeout(
                &peer,
                rpc::PING,
                self.inner.provider_id,
                &args,
                self.inner.config.ping_timeout(),
            );
            if result.is_ok() {
                notified += 1;
                if notified >= 3 {
                    break;
                }
            }
        }
        self.stop();
    }

    /// Stops the protocol thread and deregisters RPCs (without the
    /// farewell of [`SsgGroup::leave`] — peers will detect us via SWIM).
    pub fn stop(&self) {
        if self.inner.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
        for name in rpc::ALL {
            let _ = self.inner.margo.deregister(name, self.inner.provider_id);
        }
    }
}

impl Drop for SsgGroup {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Client-application view access: "an explicit function that the
/// application needs to call to query the current view of the group".
pub struct ViewObserver {
    margo: MargoRuntime,
    provider_id: u16,
}

impl ViewObserver {
    /// Creates an observer using `margo` as the client runtime.
    pub fn new(margo: &MargoRuntime, provider_id: u16) -> Self {
        Self { margo: margo.clone(), provider_id }
    }

    /// Fetches the current view from `member`.
    pub fn get_view(&self, member: &Address) -> Result<GroupView, MargoError> {
        self.margo.forward_timeout(
            member,
            rpc::GET_VIEW,
            self.provider_id,
            &(),
            Duration::from_secs(2),
        )
    }

    /// Fetches the view from the first responsive member of `candidates`.
    pub fn get_view_any(&self, candidates: &[Address]) -> Result<GroupView, MargoError> {
        let mut last_error = MargoError::Handler("no candidates".into());
        for member in candidates {
            match self.get_view(member) {
                Ok(view) => return Ok(view),
                Err(e) => last_error = e,
            }
        }
        Err(last_error)
    }
}
