//! `RoutedKv` — one logical keyspace over N Yokan providers.
//!
//! The scale-out counterpart of [`FailoverKv`]: where a failover handle
//! follows *one* provider across relocations, a routed handle spreads a
//! keyspace over *many* providers with a client-side consistent-hash
//! ring ([`HashRing`]) and keeps every per-provider behavior — retry,
//! breaker, deadline, SSG-view re-resolution, write coalescing — by
//! routing each leg through its own [`FailoverKv`].
//!
//! Three properties define the design:
//!
//! * **Names, not addresses.** The ring maps keys to provider *names*;
//!   each leg resolves the name to a live `(address, provider_id)` per
//!   operation. Provider-level REMI migrations (node scale-in, failover
//!   rebuilds) are therefore invisible to the ring — only *keyspace*
//!   rebalances ([`RoutedKv::join`] / [`RoutedKv::retire`]) change it.
//! * **Concurrent fan-out.** Multi-key operations split into one batch
//!   per destination and the batches run as Argobots ULTs on a dedicated
//!   `routed-fanout` pool (the last leg runs inline on the caller), so a
//!   `put_multi` over 4 providers costs one leg's latency, not four.
//!   Failures stay per key: every slot reports its own leg's outcome.
//! * **Live rebalance, zero acked-write loss.** Membership changes drain
//!   the minimal moved-slice set through REMI while traffic continues:
//!   writes to moving keys dual-write old and new owner, reads fall back
//!   old-then-new, erases are logged and replayed, and slice imports are
//!   put-if-absent under a client-side barrier. See [`RoutedKv::join`]
//!   for the full protocol.
//! * **Optional replication** (`replication_factor > 1`, DESIGN.md §18):
//!   every key lives on R distinct ring successors. Writes stamp an
//!   HLC-style version and fan to all R owners, acking at write-quorum
//!   `W`; an unreachable owner's share lands on the next successor as a
//!   *hint* that a background drainer replays when the owner returns.
//!   Reads ask the owners, require read-quorum `R_q`, merge freshest-
//!   wins, and repair stale replicas asynchronously. A killed member is
//!   retired with **no drain** ([`RoutedKv::fail_member`]) — survivors
//!   already hold every record; only a re-replication catch-up runs.
//!
//! One instance of [`RoutedKv`] is the *coordinator* of its keyspace:
//! concurrent data ops on the same instance are safe, but membership
//! changes must not race from multiple client processes (nothing
//! arbitrates two simultaneous drains — the same single-admin assumption
//! Bedrock's reconfiguration interface makes).
//!
//! [`FailoverKv`]: crate::failover::FailoverKv
//! [`HashRing`]: crate::ring::HashRing

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use parking_lot::{Condvar, Mutex, RwLock};

use mochi_argobots::{AbtError, PoolConfig, Ult, XstreamConfig};
use mochi_bedrock::{ProviderSpec, REMI_PROVIDER_ID};
use mochi_margo::{MargoError, MargoRuntime};
use mochi_mercury::Address;
use mochi_pufferscale::Weights;
use mochi_util::unique_u64;
use mochi_yokan::client::{CoalescerConfig, CoalescingHandle, DatabaseHandle, VersionedValue};
use mochi_yokan::provider::{HintDropEntry, HintEntry};

use crate::failover::FailoverKv;
use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::service::DynamicService;

/// Pool the scatter-gather ULTs run in. Installed by [`RoutedKv::new`]
/// on the client runtime (the default topology has a single xstream,
/// which would serialize the fan-out).
pub const FANOUT_POOL: &str = "routed-fanout";

/// Tuning knobs of a [`RoutedKv`].
#[derive(Debug, Clone, Copy)]
pub struct RoutedConfig {
    /// Virtual nodes per member on the ring.
    pub vnodes: usize,
    /// Execution streams serving [`FANOUT_POOL`] (the fan-out width).
    pub fanout_streams: usize,
    /// Per-attempt timeout of each leg.
    pub leg_timeout: Duration,
    /// Re-resolution rounds of each leg (see [`FailoverKv`]).
    pub leg_max_rounds: u32,
    /// Wait between a leg's re-resolution rounds — deliberately shorter
    /// than the standalone [`FailoverKv`] default so one slow leg does
    /// not hold a whole scatter-gather hostage.
    pub leg_reroute_backoff: Duration,
    /// When set, single-key `put`s coalesce client-side per destination
    /// (see [`CoalescingHandle`]); multi-ops already batch per
    /// destination and bypass it. Only effective at `replication_factor
    /// 1` — the replicated write path stamps versions per key and always
    /// writes through.
    pub coalescer: Option<CoalescerConfig>,
    /// Keys listed per page while draining a rebalance.
    pub drain_batch: usize,
    /// Copies of every key (distinct ring successors). `1` (the
    /// default) keeps the single-owner behavior; `> 1` turns on quorum
    /// writes/reads, hinted handoff, and [`RoutedKv::fail_member`].
    pub replication_factor: usize,
    /// Acks required before a replicated write returns `Ok`; `None`
    /// means a majority of the serving replicas. Clamped to
    /// `1..=replicas`. At least one ack must always be a *real* owner
    /// ack (hints alone never satisfy the quorum).
    pub write_quorum: Option<usize>,
    /// Replica answers required before a replicated read returns;
    /// `None` means a majority of the serving replicas.
    pub read_quorum: Option<usize>,
    /// How often the background drainer replays parked hints.
    pub hint_drain_interval: Duration,
    /// Byte budget per [`Self::drain_tick`] for background copies —
    /// rebalance slice drains and `fail_member` re-replication. `None`
    /// (default) is unthrottled.
    pub drain_bytes_per_tick: Option<u64>,
    /// Window over which [`Self::drain_bytes_per_tick`] is accounted.
    pub drain_tick: Duration,
}

impl Default for RoutedConfig {
    fn default() -> Self {
        Self {
            vnodes: DEFAULT_VNODES,
            fanout_streams: 4,
            leg_timeout: Duration::from_millis(250),
            leg_max_rounds: 40,
            leg_reroute_backoff: Duration::from_millis(10),
            coalescer: None,
            drain_batch: 512,
            replication_factor: 1,
            write_quorum: None,
            read_quorum: None,
            hint_drain_interval: Duration::from_millis(100),
            drain_bytes_per_tick: None,
            drain_tick: Duration::from_millis(50),
        }
    }
}

impl RoutedConfig {
    fn rf(&self) -> usize {
        self.replication_factor.max(1)
    }

    fn replicated(&self) -> bool {
        self.rf() > 1
    }

    /// Write quorum over `replicas` live copies (majority by default).
    fn write_quorum_for(&self, replicas: usize) -> usize {
        self.write_quorum
            .unwrap_or(replicas / 2 + 1)
            .clamp(1, replicas.max(1))
    }

    /// Read quorum over `replicas` live copies (majority by default).
    fn read_quorum_for(&self, replicas: usize) -> usize {
        self.read_quorum
            .unwrap_or(replicas / 2 + 1)
            .clamp(1, replicas.max(1))
    }
}

/// What a rebalance moved (returned by [`RoutedKv::join`]/
/// [`RoutedKv::retire`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Keys drained to a new owner.
    pub moved_keys: u64,
    /// REMI slice migrations issued.
    pub slices: u64,
    /// Erases recorded during the move window and replayed at cutover.
    pub replayed_erases: u64,
    /// Stale source copies removed after cutover.
    pub erased_stale: u64,
}

/// What [`RoutedKv::fail_member`] re-replicated after retiring a dead
/// member without a drain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CatchUpReport {
    /// Records copied to restore the replication factor.
    pub recopied_keys: u64,
    /// Bytes of those records (key + value + version envelope).
    pub recopied_bytes: u64,
    /// Hints replayed while the member was being failed.
    pub replayed_hints: u64,
}

/// Point-in-time replication counters (see [`RoutedKv::replication_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationCounters {
    /// Writes that landed as a hint on a handoff member instead of a
    /// real owner ack.
    pub hinted_writes: u64,
    /// Hints replayed onto their final owner (background drainer,
    /// `drain_hints_now`, or `fail_member`).
    pub hint_replays: u64,
    /// Stale or missing replicas repaired asynchronously after a read.
    pub read_repairs: u64,
    /// Read-repair attempts that failed (left for the next read to fix).
    pub repair_failures: u64,
    /// Hint-drain passes that hit an error and will retry next tick.
    pub drain_errors: u64,
}

/// Shared atomic counters behind [`ReplicationCounters`].
#[derive(Default)]
struct ReplicationStats {
    hinted_writes: AtomicU64,
    hint_replays: AtomicU64,
    read_repairs: AtomicU64,
    repair_failures: AtomicU64,
    drain_errors: AtomicU64,
}

impl ReplicationStats {
    fn snapshot(&self) -> ReplicationCounters {
        ReplicationCounters {
            hinted_writes: self.hinted_writes.load(Ordering::Acquire),
            hint_replays: self.hint_replays.load(Ordering::Acquire),
            read_repairs: self.read_repairs.load(Ordering::Acquire),
            repair_failures: self.repair_failures.load(Ordering::Acquire),
            drain_errors: self.drain_errors.load(Ordering::Acquire),
        }
    }
}

/// Byte-budget throttle for background copies (satellite: rebalance and
/// re-replication must not starve foreground traffic). `consume` charges
/// a transfer against the current tick's budget and sleeps into the next
/// tick once the budget is spent. A single transfer larger than the
/// budget still proceeds (charged against one whole tick) so progress is
/// always possible.
struct Throttle {
    budget: Option<u64>,
    tick: Duration,
    window: Mutex<(Instant, u64)>,
}

impl Throttle {
    fn new(config: &RoutedConfig) -> Self {
        Self {
            budget: config.drain_bytes_per_tick,
            tick: config.drain_tick,
            window: Mutex::new((Instant::now(), 0)),
        }
    }

    fn consume(&self, bytes: u64) {
        let Some(budget) = self.budget else { return };
        loop {
            let mut window = self.window.lock();
            if window.0.elapsed() >= self.tick {
                *window = (Instant::now(), 0);
            }
            if window.1 < budget {
                window.1 = window.1.saturating_add(bytes);
                return;
            }
            let wait = self.tick.saturating_sub(window.0.elapsed());
            drop(window);
            std::thread::sleep(wait.max(Duration::from_millis(1)));
        }
    }
}

/// Routing snapshot: the serving ring plus, during a move window, the
/// ring being drained toward.
#[derive(Clone)]
struct RouteSnapshot {
    ring: HashRing,
    to_ring: Option<HashRing>,
}

impl RouteSnapshot {
    /// The key's owner pair: serving owner, plus the future owner when
    /// the key is mid-move.
    fn owners<'s>(&'s self, key: &[u8]) -> (Option<&'s str>, Option<&'s str>) {
        let owner = self.ring.owner(key);
        let moving = match (&self.to_ring, owner) {
            (Some(to), Some(from)) => to.owner(key).filter(|next| *next != from),
            _ => None,
        };
        (owner, moving)
    }

    /// The key's serving replica set: `rf` distinct successors on the
    /// serving ring. Reads route here.
    fn replicas(&self, key: &[u8], rf: usize) -> Vec<String> {
        self.ring.owners(key, rf).into_iter().map(str::to_string).collect()
    }

    /// The key's write set: serving replicas first, then any future
    /// owners (move window) not already serving — replicated writes
    /// cover both so a cutover in either direction keeps every acked
    /// write.
    fn write_set(&self, key: &[u8], rf: usize) -> (Vec<String>, Vec<String>) {
        let serving = self.replicas(key, rf);
        let mut future = Vec::new();
        if let Some(to) = &self.to_ring {
            for member in to.owners(key, rf) {
                if !serving.iter().any(|m| m == member) {
                    future.push(member.to_string());
                }
            }
        }
        (serving, future)
    }
}

/// One per-member leg: a failover handle plus an optional write
/// coalescer pinned to the last resolved location.
struct Leg {
    failover: FailoverKv,
    coalescer_config: Option<CoalescerConfig>,
    coalescer: Mutex<Option<CoalescingHandle>>,
}

impl Leg {
    fn new(
        service: &Arc<DynamicService>,
        margo: &MargoRuntime,
        member: &str,
        config: &RoutedConfig,
    ) -> Self {
        let failover = FailoverKv::new(service, margo, member)
            .with_timeout(config.leg_timeout)
            .with_max_rounds(config.leg_max_rounds)
            .with_reroute_backoff(config.leg_reroute_backoff);
        Self {
            failover,
            coalescer_config: config.coalescer,
            coalescer: Mutex::new(None),
        }
    }

    fn reroutable(err: &MargoError) -> bool {
        err.is_retryable()
            || matches!(err, MargoError::BreakerOpen { .. } | MargoError::DeadlineExceeded)
    }

    /// Buffered single-key put when coalescing is on; write-through
    /// otherwise. A transport-class coalescer failure unpins it (the
    /// location may have moved) and falls back to the failover path.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), MargoError> {
        let Some(config) = self.coalescer_config else {
            return self.failover.put(key, value);
        };
        {
            let mut pinned = self.coalescer.lock();
            if pinned.is_none() {
                if let Some(handle) = self.failover.handle() {
                    *pinned = Some(DatabaseHandle::clone(&handle).coalescing(config));
                }
            }
            if let Some(coalescer) = pinned.as_ref() {
                match coalescer.put(key, value) {
                    Ok(()) => return Ok(()),
                    Err(err) if Self::reroutable(&err) => *pinned = None,
                    Err(err) => return Err(err),
                }
            }
        }
        self.failover.put(key, value)
    }

    /// Ships any coalesced puts (barrier before reads/drains). A
    /// transport-class failure unpins the coalescer and reports the
    /// error — the batch was already dropped by the coalescer's own
    /// no-requeue contract.
    fn sync(&self) -> Result<(), MargoError> {
        let mut pinned = self.coalescer.lock();
        if let Some(coalescer) = pinned.as_ref() {
            if let Err(err) = coalescer.sync() {
                if Self::reroutable(&err) {
                    *pinned = None;
                }
                return Err(err);
            }
        }
        Ok(())
    }

    /// Direct batched write (multi-ops). Syncs first so a buffered
    /// single-key put cannot ship *after* a newer batched value.
    fn put_multi(&self, pairs: &[(Vec<u8>, Vec<u8>)]) -> Result<(), MargoError> {
        self.sync()?;
        let refs: Vec<(&[u8], &[u8])> =
            pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
        self.failover.put_multi(&refs)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, MargoError> {
        self.sync()?;
        self.failover.get(key)
    }

    fn get_multi(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>, MargoError> {
        self.sync()?;
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        self.failover.get_multi(&refs)
    }

    fn erase(&self, key: &[u8]) -> Result<bool, MargoError> {
        self.sync()?;
        self.failover.erase(key)
    }

    fn erase_multi(&self, keys: &[Vec<u8>]) -> Result<u64, MargoError> {
        self.sync()?;
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        self.failover.with_handle(|h| h.erase_multi(&refs))
    }

    fn exists(&self, key: &[u8]) -> Result<bool, MargoError> {
        self.sync()?;
        self.failover.exists(key)
    }

    fn list_keys(
        &self,
        prefix: &[u8],
        start_after: Option<&[u8]>,
        max: usize,
    ) -> Result<Vec<Vec<u8>>, MargoError> {
        self.sync()?;
        self.failover.list_keys(prefix, start_after, max)
    }

    fn len(&self) -> Result<u64, MargoError> {
        self.sync()?;
        self.failover.len()
    }

    // Versioned (replicated-mode) operations. The replicated write path
    // never feeds the coalescer, so these skip the sync barrier and talk
    // straight to the failover handle with an explicit round budget —
    // quorum legs fail fast and let the hint machinery absorb the loss.

    /// Put-if-newer of one versioned record (`None` value = tombstone).
    fn vput(
        &self,
        key: &[u8],
        version: u64,
        value: Option<&[u8]>,
        rounds: u32,
    ) -> Result<bool, MargoError> {
        self.failover
            .with_handle_rounds(rounds, |h| h.put_versioned(key, version, value))
            .map(|reply| reply.existed)
    }

    /// Batched put-if-newer; returns per-record `existed` flags.
    fn vput_multi(
        &self,
        records: &[(Vec<u8>, u64, Option<Vec<u8>>)],
        rounds: u32,
    ) -> Result<Vec<bool>, MargoError> {
        self.failover
            .with_handle_rounds(rounds, |h| {
                let refs: Vec<(&[u8], u64, Option<&[u8]>)> = records
                    .iter()
                    .map(|(k, v, val)| (k.as_slice(), *v, val.as_deref()))
                    .collect();
                h.put_versioned_multi(&refs)
            })
            .map(|reply| reply.existed)
    }

    /// Batched versioned read; `None` = this replica has no record.
    fn vget_multi(
        &self,
        keys: &[Vec<u8>],
        rounds: u32,
    ) -> Result<Vec<Option<VersionedValue>>, MargoError> {
        self.failover.with_handle_rounds(rounds, |h| {
            let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            h.get_versioned_multi(&refs)
        })
    }

    /// Parks a record destined for `target` on this member (handoff).
    fn hint_put(
        &self,
        target: &str,
        key: &[u8],
        version: u64,
        value: Option<&[u8]>,
        rounds: u32,
    ) -> Result<bool, MargoError> {
        self.failover
            .with_handle_rounds(rounds, |h| h.hint_put(target, key, version, value))
    }

    /// Lists up to `max` parked hints on this member.
    fn hint_list(&self, max: usize, rounds: u32) -> Result<Vec<HintEntry>, MargoError> {
        self.failover.with_handle_rounds(rounds, |h| h.hint_list(max))
    }

    /// Drops replayed hints (skipping any re-parked with a newer version).
    fn hint_drop(&self, entries: &[HintDropEntry], rounds: u32) -> Result<u64, MargoError> {
        self.failover.with_handle_rounds(rounds, |h| h.hint_drop(entries))
    }
}

/// A Yokan keyspace routed across many providers by consistent hashing.
pub struct RoutedKv {
    service: Arc<DynamicService>,
    margo: MargoRuntime,
    config: RoutedConfig,
    /// Serving ring (+ target ring during a move window). `Arc` so the
    /// hint drainer thread shares the live routing state.
    state: Arc<RwLock<RouteSnapshot>>,
    /// Member name → leg (shared with the hint drainer).
    legs: Arc<RwLock<BTreeMap<String, Arc<Leg>>>>,
    /// Write barrier of the move protocol: writes to *moving* keys hold
    /// it shared; slice imports, erase-log replay, and cutover hold it
    /// exclusive, so an import batch never interleaves with a dual-write
    /// it could shadow.
    barrier: RwLock<()>,
    /// Keys erased during the move window; replayed on the new owners at
    /// cutover so a put-if-absent import cannot resurrect them. Unused
    /// in replicated mode (erases are versioned tombstones there).
    erase_log: Mutex<Vec<Vec<u8>>>,
    /// One membership change at a time.
    rebalance_lock: Mutex<()>,
    /// Whether the fan-out pool installed (else legs run sequentially).
    fanout_ok: bool,
    /// HLC-style version clock: `max(now_µs, prev + 1)`, so versions are
    /// monotone per coordinator and roughly wall-clock-ordered across
    /// coordinators.
    clock: AtomicU64,
    /// Replication counters (hints, repairs, drain errors).
    stats: Arc<ReplicationStats>,
    /// Tells the hint drainer thread to exit.
    stop: Arc<AtomicBool>,
    /// The hint drainer thread (replicated mode only).
    drainer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl RoutedKv {
    /// Creates a routed keyspace over `members` (Yokan provider names
    /// hosted somewhere in `service`), issuing RPCs from `margo`.
    pub fn new<S: AsRef<str>>(
        service: &Arc<DynamicService>,
        margo: &MargoRuntime,
        members: &[S],
        config: RoutedConfig,
    ) -> Self {
        let ring = HashRing::with_vnodes(members, config.vnodes);
        let legs: BTreeMap<String, Arc<Leg>> = ring
            .members()
            .iter()
            .map(|m| (m.clone(), Arc::new(Leg::new(service, margo, m, &config))))
            .collect();
        let fanout_ok = Self::install_fanout(margo, config.fanout_streams);
        let kv = Self {
            service: Arc::clone(service),
            margo: margo.clone(),
            config,
            state: Arc::new(RwLock::new(RouteSnapshot { ring, to_ring: None })),
            legs: Arc::new(RwLock::new(legs)),
            barrier: RwLock::new(()),
            erase_log: Mutex::new(Vec::new()),
            rebalance_lock: Mutex::new(()),
            fanout_ok,
            clock: AtomicU64::new(0),
            stats: Arc::new(ReplicationStats::default()),
            stop: Arc::new(AtomicBool::new(false)),
            drainer: Mutex::new(None),
        };
        if kv.config.replicated() {
            kv.spawn_hint_drainer();
        }
        kv
    }

    /// Spawns the background hint drainer: every `hint_drain_interval`
    /// it lists parked hints on every member and replays them onto their
    /// target (or, if the target left the ring, onto the keys' current
    /// owners). Replays go through put-if-newer, so re-delivery is
    /// harmless.
    fn spawn_hint_drainer(&self) {
        let config = self.config;
        let state = Arc::clone(&self.state);
        let legs = Arc::clone(&self.legs);
        let stats = Arc::clone(&self.stats);
        let stop = Arc::clone(&self.stop);
        let handle = std::thread::Builder::new()
            .name("routed-hint-drainer".into())
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(config.hint_drain_interval);
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    hint_drain_pass(&config, &state, &legs, &stats);
                }
            });
        match handle {
            Ok(handle) => *self.drainer.lock() = Some(handle),
            // No thread — hints still drain via fail_member /
            // drain_hints_now; record the degradation.
            Err(_) => {
                self.stats.drain_errors.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    /// Runs one synchronous hint-drain pass and returns how many hints
    /// were replayed. Deterministic alternative to waiting for the
    /// background drainer (tests, admin tooling).
    pub fn drain_hints_now(&self) -> u64 {
        hint_drain_pass(&self.config, &self.state, &self.legs, &self.stats)
    }

    /// Current replication counters (all zero at `replication_factor 1`).
    pub fn replication_stats(&self) -> ReplicationCounters {
        self.stats.snapshot()
    }

    /// Next write version: `max(now_µs, prev + 1)` — unique and monotone
    /// on this coordinator, wall-clock-comparable across coordinators.
    fn next_version(&self) -> u64 {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_micros() as u64);
        let mut prev = self.clock.load(Ordering::Acquire);
        loop {
            let next = now.max(prev + 1);
            match self.clock.compare_exchange_weak(
                prev,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return next,
                Err(current) => prev = current,
            }
        }
    }

    /// Discovers members by the `keyspace:<group>` provider tag across
    /// every service member's reported config, then builds the ring over
    /// them — the Bedrock-config way to wire a routed keyspace.
    ///
    /// Providers may carry a `"keyspace"` object inside their Bedrock
    /// config to tune the keyspace declaratively (the Yokan backend
    /// ignores unknown fields): `replication_factor`, `write_quorum`,
    /// `read_quorum`, `drain_bytes_per_tick`, `drain_tick_ms`, and
    /// `hint_drain_interval_ms` override the corresponding
    /// [`RoutedConfig`] fields; the last tagged provider listing a
    /// setting wins (operators normally set it identically everywhere).
    pub fn for_keyspace(
        service: &Arc<DynamicService>,
        margo: &MargoRuntime,
        group: &str,
        config: RoutedConfig,
    ) -> Result<Self, MargoError> {
        let tag = format!("keyspace:{group}");
        let mut config = config;
        let mut members: Vec<String> = Vec::new();
        for addr in service.addresses() {
            let Some(server) = service.server(&addr) else { continue };
            let process = server.get_config();
            let Some(providers) = process["providers"].as_array() else { continue };
            for provider in providers {
                let tagged = provider["tags"]
                    .as_array()
                    .is_some_and(|tags| tags.iter().any(|t| t.as_str() == Some(&tag)));
                if tagged {
                    if let Some(name) = provider["name"].as_str() {
                        members.push(name.to_string());
                    }
                    apply_keyspace_config(&mut config, &provider["config"]["keyspace"]);
                }
            }
        }
        if members.is_empty() {
            return Err(MargoError::Handler(format!(
                "no providers tagged '{tag}' in the service"
            )));
        }
        Ok(Self::new(service, margo, &members, config))
    }

    /// Installs the fan-out pool + xstreams, tolerating re-installation
    /// (several `RoutedKv` on one runtime share the pool).
    fn install_fanout(margo: &MargoRuntime, streams: usize) -> bool {
        let abt = margo.abt();
        match abt.add_pool(PoolConfig::named(FANOUT_POOL)) {
            Ok(_) | Err(AbtError::PoolExists(_)) => {}
            Err(_) => return false,
        }
        for i in 0..streams.max(1) {
            let xstream = XstreamConfig::named(format!("{FANOUT_POOL}-{i}"), FANOUT_POOL);
            match abt.add_xstream(xstream) {
                Ok(()) | Err(AbtError::XstreamExists(_)) => {}
                Err(_) => return false,
            }
        }
        true
    }

    /// Current members, sorted.
    pub fn members(&self) -> Vec<String> {
        self.state.read().ring.members().to_vec()
    }

    /// Whether a move window is open.
    pub fn rebalancing(&self) -> bool {
        self.state.read().to_ring.is_some()
    }

    fn snapshot(&self) -> RouteSnapshot {
        self.state.read().clone()
    }

    fn leg(&self, member: &str) -> Result<Arc<Leg>, MargoError> {
        self.legs.read().get(member).cloned().ok_or_else(|| {
            MargoError::Handler(format!("no leg for keyspace member '{member}'"))
        })
    }

    fn empty_ring() -> MargoError {
        MargoError::Handler("routed keyspace has no members".into())
    }

    // -----------------------------------------------------------------
    // Scatter-gather
    // -----------------------------------------------------------------

    /// Runs `tasks` concurrently: all but the last are submitted to the
    /// fan-out pool as ULTs, the last runs inline on the caller (the
    /// single-destination case never pays a handoff). Results come back
    /// in task order.
    fn scatter<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let total = tasks.len();
        if total == 0 {
            return Vec::new();
        }
        if !self.fanout_ok || total == 1 {
            return tasks.into_iter().map(|task| task()).collect();
        }
        // Tasks live in take-once cells: whoever gets to a cell first —
        // the ULT, or the caller after a failed submit — runs it, so a
        // task executes exactly once even if the pool vanishes under a
        // teardown race.
        struct Gather<T, F> {
            pending: Vec<Mutex<Option<F>>>,
            slots: Mutex<Vec<Option<T>>>,
            done: Condvar,
        }
        impl<T, F: FnOnce() -> T> Gather<T, F> {
            fn run(&self, i: usize) {
                let Some(task) = self.pending[i].lock().take() else { return };
                let value = task();
                self.slots.lock()[i] = Some(value);
                self.done.notify_all();
            }
        }
        let gather: Arc<Gather<T, F>> = Arc::new(Gather {
            pending: tasks.into_iter().map(|t| Mutex::new(Some(t))).collect(),
            slots: Mutex::new((0..total).map(|_| None).collect()),
            done: Condvar::new(),
        });
        for i in 0..total - 1 {
            let leg_gather = Arc::clone(&gather);
            let ult = Ult::new(format!("routed-leg-{i}"), move || leg_gather.run(i));
            if self.margo.abt().submit(FANOUT_POOL, ult).is_err() {
                gather.run(i);
            }
        }
        // The last leg runs inline: the caller contributes its own
        // thread instead of idling, and a single extra destination
        // costs no handoff at all.
        gather.run(total - 1);
        let mut filled = gather.slots.lock();
        while filled.iter().any(Option::is_none) {
            gather.done.wait(&mut filled);
        }
        filled.drain(..).map(|slot| slot.expect("all filled")).collect()
    }

    // -----------------------------------------------------------------
    // Single-key operations
    // -----------------------------------------------------------------

    /// Stores `value` under `key` at its ring owner. During a move
    /// window a moving key dual-writes old then new owner — both must
    /// ack before the put is acked, so the value survives cutover in
    /// either direction.
    ///
    /// Every write holds the barrier shared for its whole duration (the
    /// snapshot included): the rebalance path fences with one exclusive
    /// acquisition after opening the move window, so no write routed
    /// under the steady ring can still be in flight when the drain
    /// starts listing keys.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), MargoError> {
        let _shared = self.barrier.read();
        let snap = self.snapshot();
        if self.config.replicated() {
            let records = vec![(key.to_vec(), self.next_version(), Some(value.to_vec()))];
            return match self.quorum_write_multi(&snap, &records).pop() {
                Some(slot) => slot.map(|_existed| ()),
                None => Err(Self::empty_ring()),
            };
        }
        let (owner, moving) = snap.owners(key);
        let owner = owner.ok_or_else(Self::empty_ring)?;
        match moving {
            Some(next) => {
                // Write-through on both legs: a buffered dual-write
                // could ship after the import that must not shadow it.
                self.leg(owner)?.failover.put(key, value)?;
                self.leg(next)?.failover.put(key, value)?;
                // The put supersedes any erase logged earlier in the
                // window — replaying it would clobber this acked write.
                self.erase_log.lock().retain(|logged| logged.as_slice() != key);
                Ok(())
            }
            None => self.leg(owner)?.put(key, value),
        }
    }

    /// Fetches `key` from its owner; during a move window a miss on the
    /// old owner falls through to the new owner (the key may already
    /// have drained).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, MargoError> {
        let snap = self.snapshot();
        if self.config.replicated() {
            return match self.quorum_read_multi(&snap, &[key.to_vec()]).pop() {
                Some(slot) => slot,
                None => Err(Self::empty_ring()),
            };
        }
        let (owner, moving) = snap.owners(key);
        let owner = owner.ok_or_else(Self::empty_ring)?;
        match self.leg(owner)?.get(key)? {
            Some(value) => Ok(Some(value)),
            None => match moving {
                Some(next) => self.leg(next)?.get(key),
                None => Ok(None),
            },
        }
    }

    /// Whether `key` exists (old-then-new fallback like [`Self::get`]).
    pub fn exists(&self, key: &[u8]) -> Result<bool, MargoError> {
        let snap = self.snapshot();
        if self.config.replicated() {
            return match self.quorum_read_multi(&snap, &[key.to_vec()]).pop() {
                Some(slot) => slot.map(|value| value.is_some()),
                None => Err(Self::empty_ring()),
            };
        }
        let (owner, moving) = snap.owners(key);
        let owner = owner.ok_or_else(Self::empty_ring)?;
        if self.leg(owner)?.exists(key)? {
            return Ok(true);
        }
        match moving {
            Some(next) => self.leg(next)?.exists(key),
            None => Ok(false),
        }
    }

    /// Removes `key`; returns whether it existed anywhere. During a move
    /// window the erase hits both owners and is logged, and the log is
    /// replayed after the slice import — otherwise a put-if-absent
    /// import could resurrect a key erased mid-drain.
    pub fn erase(&self, key: &[u8]) -> Result<bool, MargoError> {
        let _shared = self.barrier.read();
        let snap = self.snapshot();
        if self.config.replicated() {
            // A replicated erase is a versioned *tombstone* write — it
            // must out-version any concurrent put and survive quorum
            // merges, so it takes the exact write path a put takes.
            let records = vec![(key.to_vec(), self.next_version(), None)];
            return match self.quorum_write_multi(&snap, &records).pop() {
                Some(slot) => slot,
                None => Err(Self::empty_ring()),
            };
        }
        let (owner, moving) = snap.owners(key);
        let owner = owner.ok_or_else(Self::empty_ring)?;
        match moving {
            Some(next) => {
                self.erase_log.lock().push(key.to_vec());
                let old = self.leg(owner)?.erase(key)?;
                let new = self.leg(next)?.erase(key)?;
                Ok(old || new)
            }
            None => self.leg(owner)?.erase(key),
        }
    }

    // -----------------------------------------------------------------
    // Replicated quorum I/O (replication_factor > 1)
    // -----------------------------------------------------------------

    /// Replicated write of versioned records (`None` value = tombstone).
    /// Each record fans to its full write set — `rf` serving successors
    /// plus any future owners mid-move — as one batched put-if-newer RPC
    /// per member. A member that fails with a transport-class error gets
    /// its records *hinted* onto the next available successor instead.
    ///
    /// Slot `i` is `Ok(existed)` iff:
    /// * at least one **serving** replica really acked (a quorum of pure
    ///   hints proves nothing durable about the serving set),
    /// * real + hinted coverage of the serving set reaches the write
    ///   quorum `W`, and
    /// * every future owner is covered real-or-hinted (so a cutover in
    ///   either direction keeps the write).
    fn quorum_write_multi(
        &self,
        snap: &RouteSnapshot,
        records: &[(Vec<u8>, u64, Option<Vec<u8>>)],
    ) -> Vec<Result<bool, MargoError>> {
        let rf = self.config.rf();
        let mut slots: Vec<Result<bool, MargoError>> =
            records.iter().map(|_| Ok(false)).collect();
        if snap.ring.is_empty() {
            for slot in &mut slots {
                *slot = Err(Self::empty_ring());
            }
            return slots;
        }
        // Per-record replica sets, and member → record-index batches.
        let sets: Vec<(Vec<String>, Vec<String>)> =
            records.iter().map(|(key, _, _)| snap.write_set(key, rf)).collect();
        let mut batches: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, (serving, future)) in sets.iter().enumerate() {
            for member in serving.iter().chain(future) {
                batches.entry(member.clone()).or_default().push(i);
            }
        }
        let mut tasks = Vec::with_capacity(batches.len());
        let mut routes: Vec<(String, Vec<usize>)> = Vec::with_capacity(batches.len());
        for (dest, indices) in batches {
            let batch: Vec<(Vec<u8>, u64, Option<Vec<u8>>)> =
                indices.iter().map(|&i| records[i].clone()).collect();
            let leg = self.leg(&dest);
            routes.push((dest, indices));
            // Two rounds only: fail fast, the hint machinery absorbs it.
            tasks.push(move || match leg {
                Ok(leg) => leg.vput_multi(&batch, 2),
                Err(err) => Err(err),
            });
        }
        let outcomes = self.scatter(tasks);
        // Bookkeeping: who really acked / is hinted-for, per record.
        let mut real: Vec<Vec<&str>> = records.iter().map(|_| Vec::new()).collect();
        let mut hinted: Vec<Vec<&str>> = records.iter().map(|_| Vec::new()).collect();
        let mut existed: Vec<bool> = records.iter().map(|_| false).collect();
        let mut errors: Vec<Option<MargoError>> = records.iter().map(|_| None).collect();
        let mut down: Vec<&str> = Vec::new();
        let mut failed: Vec<(&str, &[usize], MargoError)> = Vec::new();
        for ((dest, indices), outcome) in routes.iter().zip(outcomes) {
            match outcome {
                Ok(acks) => {
                    for (&i, was_there) in indices.iter().zip(acks) {
                        real[i].push(dest.as_str());
                        existed[i] |= was_there;
                    }
                }
                Err(err) => {
                    if Leg::reroutable(&err) {
                        down.push(dest.as_str());
                        failed.push((dest.as_str(), indices, err));
                    } else {
                        // Application-class error: hinting cannot fix it.
                        for &i in indices {
                            errors[i] = Some(err.clone());
                        }
                    }
                }
            }
        }
        // Hinted handoff: each unreachable member's records park on the
        // next available successor, keyed by the member they belong to.
        for (dest, indices, err) in failed {
            for &i in indices {
                let (key, version, value) = &records[i];
                if self.handoff_hint(snap, dest, &down, key, *version, value.as_deref()) {
                    hinted[i].push(dest);
                } else if errors[i].is_none() {
                    errors[i] = Some(err.clone());
                }
            }
        }
        // Quorum evaluation per record.
        for (i, (serving, future)) in sets.iter().enumerate() {
            if serving.is_empty() {
                slots[i] = Err(Self::empty_ring());
                continue;
            }
            let w = self.config.write_quorum_for(serving.len());
            let real_serving = serving.iter().filter(|m| real[i].contains(&m.as_str())).count();
            let covered_serving = serving
                .iter()
                .filter(|m| {
                    real[i].contains(&m.as_str()) || hinted[i].contains(&m.as_str())
                })
                .count();
            let future_covered = future.iter().all(|m| {
                real[i].contains(&m.as_str()) || hinted[i].contains(&m.as_str())
            });
            if real_serving >= 1 && covered_serving >= w && future_covered {
                slots[i] = Ok(existed[i]);
            } else {
                slots[i] = Err(errors[i].take().unwrap_or_else(|| {
                    MargoError::Handler(format!(
                        "write quorum not met: {covered_serving} of {} covered \
                         ({real_serving} real), need {w}",
                        serving.len()
                    ))
                }));
            }
        }
        slots
    }

    /// Parks `key`'s record on a handoff member as a hint for the
    /// unreachable `target`. Candidates walk the key's full successor
    /// list, skipping `target` and every member already observed down
    /// this round, preferring members *outside* the replica set (they
    /// add an extra durable copy) before falling back to replicas.
    fn handoff_hint(
        &self,
        snap: &RouteSnapshot,
        target: &str,
        down: &[&str],
        key: &[u8],
        version: u64,
        value: Option<&[u8]>,
    ) -> bool {
        let rf = self.config.rf();
        let walk = snap.ring.owners(key, snap.ring.len());
        let candidates = walk
            .iter()
            .skip(rf)
            .chain(walk.iter().take(rf))
            .filter(|m| **m != target && !down.contains(*m));
        for candidate in candidates {
            let Ok(leg) = self.leg(candidate) else { continue };
            match leg.hint_put(target, key, version, value, 2) {
                Ok(true) => {
                    self.stats.hinted_writes.fetch_add(1, Ordering::AcqRel);
                    return true;
                }
                // Full hint store or transport failure: try the next
                // successor.
                Ok(false) | Err(_) => continue,
            }
        }
        false
    }

    /// Replicated read: fan each key to its `rf` serving replicas, wait
    /// for the read quorum, merge freshest-wins (version, then the same
    /// bytewise tie-break the server's put-if-newer uses), and repair
    /// stale or missing replicas asynchronously on the fan-out pool.
    /// Slot `i` resolves the merged record: `Ok(None)` for absent keys
    /// *and* tombstones.
    fn quorum_read_multi(
        &self,
        snap: &RouteSnapshot,
        keys: &[Vec<u8>],
    ) -> Vec<Result<Option<Vec<u8>>, MargoError>> {
        let rf = self.config.rf();
        let mut slots: Vec<Result<Option<Vec<u8>>, MargoError>> =
            keys.iter().map(|_| Err(Self::empty_ring())).collect();
        if snap.ring.is_empty() {
            return slots;
        }
        let sets: Vec<Vec<String>> =
            keys.iter().map(|key| snap.replicas(key, rf)).collect();
        let mut batches: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, owners) in sets.iter().enumerate() {
            for member in owners {
                batches.entry(member.clone()).or_default().push(i);
            }
        }
        let mut tasks = Vec::with_capacity(batches.len());
        let mut routes: Vec<(String, Vec<usize>)> = Vec::with_capacity(batches.len());
        for (dest, indices) in batches {
            let batch: Vec<Vec<u8>> = indices.iter().map(|&i| keys[i].clone()).collect();
            let leg = self.leg(&dest);
            routes.push((dest, indices));
            tasks.push(move || match leg {
                Ok(leg) => leg.vget_multi(&batch, 2),
                Err(err) => Err(err),
            });
        }
        let outcomes = self.scatter(tasks);
        // Per-key replica answers: (member, that replica's record).
        let mut answers: Vec<Vec<(&str, Option<VersionedValue>)>> =
            keys.iter().map(|_| Vec::new()).collect();
        let mut errors: Vec<Option<MargoError>> = keys.iter().map(|_| None).collect();
        for ((dest, indices), outcome) in routes.iter().zip(outcomes) {
            match outcome {
                Ok(values) => {
                    for (&i, value) in indices.iter().zip(values) {
                        answers[i].push((dest.as_str(), value));
                    }
                }
                Err(err) => {
                    for &i in indices {
                        errors[i] = Some(err.clone());
                    }
                }
            }
        }
        // Merge + collect repairs (member → records to push).
        let mut repairs: BTreeMap<String, Vec<(Vec<u8>, u64, Option<Vec<u8>>)>> =
            BTreeMap::new();
        for (i, owners) in sets.iter().enumerate() {
            if owners.is_empty() {
                slots[i] = Err(Self::empty_ring());
                continue;
            }
            let r_q = self.config.read_quorum_for(owners.len());
            if answers[i].len() < r_q {
                slots[i] = Err(errors[i].take().unwrap_or_else(|| {
                    MargoError::Handler(format!(
                        "read quorum not met: {} of {} replicas answered, need {r_q}",
                        answers[i].len(),
                        owners.len()
                    ))
                }));
                continue;
            }
            let winner = answers[i]
                .iter()
                .filter_map(|(_, record)| record.as_ref())
                .max_by(|a, b| Self::freshness(a).cmp(&Self::freshness(b)));
            let Some(winner) = winner else {
                slots[i] = Ok(None); // every replica agrees: no record
                continue;
            };
            let winner = winner.clone();
            for (member, record) in &answers[i] {
                let stale = record.as_ref() != Some(&winner);
                if stale {
                    let value =
                        (!winner.tombstone).then(|| winner.value.clone());
                    repairs.entry((*member).to_string()).or_default().push((
                        keys[i].clone(),
                        winner.version,
                        value,
                    ));
                }
            }
            slots[i] = Ok((!winner.tombstone).then(|| winner.value.clone()));
        }
        self.spawn_repairs(repairs);
        slots
    }

    /// Freshness key mirroring the server's `record_is_newer` tie-break:
    /// version first, then the encoded-record bytewise order (flag byte,
    /// then value bytes).
    fn freshness(record: &VersionedValue) -> (u64, bool, &[u8]) {
        (record.version, record.tombstone, record.value.as_slice())
    }

    /// Pushes read-repair records to stale replicas as fire-and-forget
    /// ULTs on the fan-out pool (one per member). Failures are counted,
    /// not retried — the next read of the key repairs again, and the
    /// anti-entropy of put-if-newer makes duplicate repairs harmless.
    fn spawn_repairs(&self, repairs: BTreeMap<String, Vec<(Vec<u8>, u64, Option<Vec<u8>>)>>) {
        for (member, batch) in repairs {
            let count = batch.len() as u64;
            self.stats.read_repairs.fetch_add(count, Ordering::AcqRel);
            let Ok(leg) = self.leg(&member) else {
                self.stats.repair_failures.fetch_add(count, Ordering::AcqRel);
                continue;
            };
            let stats = Arc::clone(&self.stats);
            let repair = move || {
                if leg.vput_multi(&batch, 1).is_err() {
                    stats.repair_failures.fetch_add(count, Ordering::AcqRel);
                }
            };
            if self.fanout_ok {
                let ult = Ult::new("routed-read-repair".to_string(), repair);
                if self.margo.abt().submit(FANOUT_POOL, ult).is_err() {
                    // The closure is consumed by the failed submit; the
                    // repair is lost until the next read finds the gap.
                    self.stats.repair_failures.fetch_add(count, Ordering::AcqRel);
                }
            } else {
                repair();
            }
        }
    }

    // -----------------------------------------------------------------
    // Multi-key operations (scatter-gather)
    // -----------------------------------------------------------------

    /// Splits `keys` into per-destination batches under the snapshot: a
    /// stable key lands in its owner's batch, a moving key in both
    /// owners' batches (dual write). Returns member → key indices.
    fn write_batches<K: AsRef<[u8]>>(
        snap: &RouteSnapshot,
        keys: &[K],
    ) -> BTreeMap<String, Vec<usize>> {
        let mut by_dest: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, key) in keys.iter().enumerate() {
            let (owner, moving) = snap.owners(key.as_ref());
            if let Some(owner) = owner {
                by_dest.entry(owner.to_string()).or_default().push(i);
            }
            if let Some(next) = moving {
                by_dest.entry(next.to_string()).or_default().push(i);
            }
        }
        by_dest
    }

    /// Stores many pairs, one concurrent batched RPC per destination.
    /// Partial-failure contract: slot `i` is `Ok` only if *every* leg
    /// holding key `i` acked its batch (during a move a moving key needs
    /// both owners); a failed leg fails exactly its own keys' slots.
    /// Slots that fail with a *transport-class* error retry once against
    /// a fresh routing snapshot before being reported — a breaker that
    /// opened (or a cutover that landed) mid-fan-out reroutes instead of
    /// failing the whole slot.
    pub fn put_multi(&self, pairs: &[(&[u8], &[u8])]) -> Vec<Result<(), MargoError>> {
        let _shared = self.barrier.read();
        let snap = self.snapshot();
        if snap.ring.is_empty() {
            return pairs.iter().map(|_| Err(Self::empty_ring())).collect();
        }
        if self.config.replicated() {
            let records: Vec<(Vec<u8>, u64, Option<Vec<u8>>)> = pairs
                .iter()
                .map(|(k, v)| (k.to_vec(), self.next_version(), Some(v.to_vec())))
                .collect();
            return self
                .quorum_write_multi(&snap, &records)
                .into_iter()
                .map(|slot| slot.map(|_existed| ()))
                .collect();
        }
        let keys: Vec<&[u8]> = pairs.iter().map(|(k, _)| *k).collect();
        let mut slots: Vec<Result<(), MargoError>> =
            pairs.iter().map(|_| Ok(())).collect();
        self.put_round(pairs, &snap, (0..pairs.len()).collect(), &mut slots);
        // Reroute round: a fresh snapshot re-resolves keys whose leg
        // failed with a reroutable error (stale breaker / moved owner).
        let retry: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| matches!(slot, Err(err) if Leg::reroutable(err)))
            .map(|(i, _)| i)
            .collect();
        let snap = if retry.is_empty() {
            snap
        } else {
            let fresh = self.snapshot();
            for &i in &retry {
                slots[i] = Ok(()); // re-armed; the round below re-fails it
            }
            self.put_round(pairs, &fresh, retry, &mut slots);
            fresh
        };
        // Acked puts supersede earlier logged erases of the same key.
        if snap.to_ring.is_some() {
            self.erase_log.lock().retain(|logged| {
                !pairs.iter().enumerate().any(|(i, (key, _))| {
                    slots[i].is_ok() && *key == logged.as_slice()
                })
            });
        }
        slots
    }

    /// One put fan-out round over `subset` (indices into `pairs`),
    /// merging failures into `slots`.
    fn put_round(
        &self,
        pairs: &[(&[u8], &[u8])],
        snap: &RouteSnapshot,
        subset: Vec<usize>,
        slots: &mut [Result<(), MargoError>],
    ) {
        let subset_keys: Vec<&[u8]> = subset.iter().map(|&i| pairs[i].0).collect();
        let by_dest: BTreeMap<String, Vec<usize>> = Self::write_batches(snap, &subset_keys)
            .into_iter()
            .map(|(dest, local)| (dest, local.into_iter().map(|j| subset[j]).collect()))
            .collect();
        let mut tasks = Vec::with_capacity(by_dest.len());
        let mut routes: Vec<Vec<usize>> = Vec::with_capacity(by_dest.len());
        for (dest, indices) in by_dest {
            let batch: Vec<(Vec<u8>, Vec<u8>)> = indices
                .iter()
                .map(|&i| (pairs[i].0.to_vec(), pairs[i].1.to_vec()))
                .collect();
            let leg = self.leg(&dest);
            routes.push(indices);
            tasks.push(move || match leg {
                Ok(leg) => leg.put_multi(&batch),
                Err(err) => Err(err),
            });
        }
        for (indices, outcome) in routes.iter().zip(self.scatter(tasks)) {
            if let Err(err) = outcome {
                for &i in indices {
                    if slots[i].is_ok() {
                        slots[i] = Err(err.clone());
                    }
                }
            }
        }
    }

    /// Fetches many values, one concurrent batched RPC per owner, with
    /// per-key error slots. During a move window, keys the old owner
    /// misses retry on their new owner in a second fan-out round; keys
    /// whose leg failed with a transport-class error retry once against
    /// a fresh routing snapshot (stale-breaker reroute).
    pub fn get_multi(&self, keys: &[&[u8]]) -> Vec<Result<Option<Vec<u8>>, MargoError>> {
        let snap = self.snapshot();
        if self.config.replicated() {
            let owned: Vec<Vec<u8>> = keys.iter().map(|k| k.to_vec()).collect();
            return self.quorum_read_multi(&snap, &owned);
        }
        let mut slots: Vec<Result<Option<Vec<u8>>, MargoError>> =
            keys.iter().map(|_| Err(Self::empty_ring())).collect();
        // Round 1: serving owners only.
        let mut primary: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, key) in keys.iter().enumerate() {
            if let Some(owner) = snap.ring.owner(key) {
                primary.entry(owner.to_string()).or_default().push(i);
            }
        }
        self.gather_gets(keys, primary, &mut slots);
        // Round 2: moving keys the old owner missed.
        if snap.to_ring.is_some() {
            let mut fallback: BTreeMap<String, Vec<usize>> = BTreeMap::new();
            for (i, key) in keys.iter().enumerate() {
                if matches!(slots[i], Ok(None)) {
                    if let (_, Some(next)) = snap.owners(key) {
                        fallback.entry(next.to_string()).or_default().push(i);
                    }
                }
            }
            if !fallback.is_empty() {
                self.gather_gets(keys, fallback, &mut slots);
            }
        }
        // Round 3 (reroute): transport-failed slots retry once under a
        // fresh snapshot — the serving owner may have moved, or the
        // failed leg's breaker opened mid-fan-out.
        let failed: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| matches!(slot, Err(err) if Leg::reroutable(err)))
            .map(|(i, _)| i)
            .collect();
        if !failed.is_empty() {
            let fresh = self.snapshot();
            let mut retry: BTreeMap<String, Vec<usize>> = BTreeMap::new();
            for i in failed {
                if let Some(owner) = fresh.ring.owner(keys[i]) {
                    retry.entry(owner.to_string()).or_default().push(i);
                }
            }
            self.gather_gets(keys, retry, &mut slots);
        }
        slots
    }

    /// One fan-out round of batched gets, merging results into `slots`.
    fn gather_gets(
        &self,
        keys: &[&[u8]],
        batches: BTreeMap<String, Vec<usize>>,
        slots: &mut [Result<Option<Vec<u8>>, MargoError>],
    ) {
        let mut tasks = Vec::with_capacity(batches.len());
        let mut routes: Vec<Vec<usize>> = Vec::with_capacity(batches.len());
        for (dest, indices) in batches {
            let batch: Vec<Vec<u8>> = indices.iter().map(|&i| keys[i].to_vec()).collect();
            let leg = self.leg(&dest);
            routes.push(indices);
            tasks.push(move || match leg {
                Ok(leg) => leg.get_multi(&batch),
                Err(err) => Err(err),
            });
        }
        for (indices, outcome) in routes.iter().zip(self.scatter(tasks)) {
            match outcome {
                Ok(values) => {
                    for (&i, value) in indices.iter().zip(values) {
                        slots[i] = Ok(value);
                    }
                }
                Err(err) => {
                    for &i in indices {
                        slots[i] = Err(err.clone());
                    }
                }
            }
        }
    }

    /// Removes many keys with per-key slots (`Ok(existed)`), batching
    /// per destination. Moving keys erase on both owners and are logged
    /// for replay, like [`Self::erase`]. Transport-failed slots retry
    /// once against a fresh routing snapshot.
    pub fn erase_multi(&self, keys: &[&[u8]]) -> Vec<Result<bool, MargoError>> {
        // Erase has per-key replies only in its single-key form, so the
        // batched surface degrades to one fan-out of single erases per
        // destination leg — still one concurrent leg per destination.
        let _shared = self.barrier.read();
        let snap = self.snapshot();
        if snap.ring.is_empty() {
            return keys.iter().map(|_| Err(Self::empty_ring())).collect();
        }
        if self.config.replicated() {
            let records: Vec<(Vec<u8>, u64, Option<Vec<u8>>)> = keys
                .iter()
                .map(|k| (k.to_vec(), self.next_version(), None))
                .collect();
            return self.quorum_write_multi(&snap, &records);
        }
        let mut slots: Vec<Result<bool, MargoError>> =
            keys.iter().map(|_| Ok(false)).collect();
        self.erase_round(keys, &snap, (0..keys.len()).collect(), &mut slots);
        // Reroute round for transport-failed slots (fresh snapshot).
        let retry: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| matches!(slot, Err(err) if Leg::reroutable(err)))
            .map(|(i, _)| i)
            .collect();
        if !retry.is_empty() {
            let fresh = self.snapshot();
            for &i in &retry {
                slots[i] = Ok(false); // re-armed; the round re-fails it
            }
            self.erase_round(keys, &fresh, retry, &mut slots);
        }
        slots
    }

    /// One erase fan-out round over `subset` (indices into `keys`),
    /// logging moving keys and merging outcomes into `slots`.
    fn erase_round(
        &self,
        keys: &[&[u8]],
        snap: &RouteSnapshot,
        subset: Vec<usize>,
        slots: &mut [Result<bool, MargoError>],
    ) {
        if snap.to_ring.is_some() {
            let mut log = self.erase_log.lock();
            for &i in &subset {
                let (_, moving) = snap.owners(keys[i]);
                if moving.is_some() {
                    log.push(keys[i].to_vec());
                }
            }
        }
        let subset_keys: Vec<&[u8]> = subset.iter().map(|&i| keys[i]).collect();
        let by_dest: BTreeMap<String, Vec<usize>> = Self::write_batches(snap, &subset_keys)
            .into_iter()
            .map(|(dest, local)| (dest, local.into_iter().map(|j| subset[j]).collect()))
            .collect();
        let mut tasks = Vec::with_capacity(by_dest.len());
        let mut routes: Vec<Vec<usize>> = Vec::with_capacity(by_dest.len());
        for (dest, indices) in by_dest {
            let batch: Vec<Vec<u8>> = indices.iter().map(|&i| keys[i].to_vec()).collect();
            let leg = self.leg(&dest);
            routes.push(indices);
            tasks.push(move || -> Vec<Result<bool, MargoError>> {
                match leg {
                    Ok(leg) => batch.iter().map(|k| leg.erase(k)).collect(),
                    Err(err) => batch.iter().map(|_| Err(err.clone())).collect(),
                }
            });
        }
        for (indices, outcome) in routes.iter().zip(self.scatter(tasks)) {
            for (&i, result) in indices.iter().zip(outcome) {
                slots[i] = match (std::mem::replace(&mut slots[i], Ok(false)), result) {
                    (Ok(prev), Ok(existed)) => Ok(prev || existed),
                    (Ok(_), Err(err)) => Err(err),
                    (prev @ Err(_), _) => prev,
                };
            }
        }
    }

    /// Lists up to `max` keys with `prefix` after `start_after`, merging
    /// the per-member result streams into one sorted, deduplicated view
    /// (dual copies exist mid-move; dedup hides them). In replicated
    /// mode the merged page is quorum-read to drop tombstoned keys, so a
    /// page can come back shorter than `max` while more keys remain —
    /// keep paginating until an *empty* page.
    pub fn list_keys(
        &self,
        prefix: &[u8],
        start_after: Option<&[u8]>,
        max: usize,
    ) -> Result<Vec<Vec<u8>>, MargoError> {
        let raw = self.merged_keys(prefix, start_after, max)?;
        if !self.config.replicated() {
            return Ok(raw);
        }
        self.filter_live(raw)
    }

    /// Raw merged key listing across members (replica copies deduped,
    /// tombstones *included* — replicas store them as records).
    fn merged_keys(
        &self,
        prefix: &[u8],
        start_after: Option<&[u8]>,
        max: usize,
    ) -> Result<Vec<Vec<u8>>, MargoError> {
        let snap = self.snapshot();
        let mut members = snap.ring.members().to_vec();
        if let Some(to) = &snap.to_ring {
            members.extend(to.members().iter().cloned());
            members.sort();
            members.dedup();
        }
        let mut tasks = Vec::with_capacity(members.len());
        for member in &members {
            let leg = self.leg(member);
            let prefix = prefix.to_vec();
            let start_after = start_after.map(<[u8]>::to_vec);
            tasks.push(move || match leg {
                Ok(leg) => leg.list_keys(&prefix, start_after.as_deref(), max),
                Err(err) => Err(err),
            });
        }
        let mut merged: Vec<Vec<u8>> = Vec::new();
        for outcome in self.scatter(tasks) {
            merged.extend(outcome?);
        }
        merged.sort();
        merged.dedup();
        merged.truncate(max);
        Ok(merged)
    }

    /// Drops keys whose quorum-merged record is a tombstone (or gone).
    fn filter_live(&self, keys: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, MargoError> {
        if keys.is_empty() {
            return Ok(keys);
        }
        let snap = self.snapshot();
        let outcomes = self.quorum_read_multi(&snap, &keys);
        let mut live = Vec::with_capacity(keys.len());
        for (key, outcome) in keys.into_iter().zip(outcomes) {
            if outcome?.is_some() {
                live.push(key);
            }
        }
        Ok(live)
    }

    /// Total keys across the keyspace. At `replication_factor 1` this is
    /// one concurrent `len` per member (mid-move the count can include
    /// dual copies — exact again once the post-cutover cleanup
    /// finishes). Replicated mode must discount replica copies and
    /// tombstones, so it degrades to an O(n) paged scan with quorum
    /// reads — treat it as an admin/debug operation there.
    pub fn len(&self) -> Result<u64, MargoError> {
        if self.config.replicated() {
            let mut total = 0u64;
            let mut cursor: Option<Vec<u8>> = None;
            loop {
                let raw = self.merged_keys(b"", cursor.as_deref(), self.config.drain_batch)?;
                let Some(last) = raw.last() else { break };
                cursor = Some(last.clone());
                total += self.filter_live(raw)?.len() as u64;
            }
            return Ok(total);
        }
        let members = self.members();
        let mut tasks = Vec::with_capacity(members.len());
        for member in &members {
            let leg = self.leg(member);
            tasks.push(move || match leg {
                Ok(leg) => leg.len(),
                Err(err) => Err(err),
            });
        }
        let mut total = 0u64;
        for outcome in self.scatter(tasks) {
            total += outcome?;
        }
        Ok(total)
    }

    /// Whether the keyspace holds no keys.
    pub fn is_empty(&self) -> Result<bool, MargoError> {
        Ok(self.len()? == 0)
    }

    /// Ships every leg's coalesced writes.
    pub fn sync(&self) -> Result<(), MargoError> {
        let legs: Vec<Arc<Leg>> = self.legs.read().values().cloned().collect();
        for leg in legs {
            leg.sync()?;
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Live rebalance
    // -----------------------------------------------------------------

    /// Adds `member` (an existing Yokan provider) to the ring and drains
    /// the minimal moved-slice set to it while traffic continues.
    ///
    /// Protocol (all while ops keep flowing):
    ///
    /// 1. **Open the move window.** Routing snapshots now carry both
    ///    rings: writes to moving keys dual-write, reads fall back
    ///    old-then-new, erases log themselves.
    /// 2. **Drain.** Per source member, page through its keys, keep the
    ///    ones whose owner changes ([`HashRing::moved_arcs`] minimality:
    ///    only arcs adjacent to the new member's points move), and ship
    ///    them per destination: `slice_export` spills the pairs on the
    ///    source and pushes the file through REMI into the destination
    ///    provider's directory; `slice_import` (under the exclusive
    ///    write barrier) loads them *put-if-absent*, so a dual-written
    ///    value newer than the export snapshot always wins.
    /// 3. **Cutover.** Under the exclusive barrier: replay the erase
    ///    log on the new owners, swap the serving ring, close the
    ///    window.
    /// 4. **Cleanup.** Source copies of moved keys are now stale (reads
    ///    no longer route to them) — erase them batch-wise.
    pub fn join(&self, member: &str) -> Result<RebalanceReport, MargoError> {
        let to_ring = {
            let snap = self.state.read();
            if snap.ring.contains(member) {
                return Err(MargoError::Handler(format!(
                    "'{member}' is already a keyspace member"
                )));
            }
            snap.ring.with_member(member)
        };
        self.rebalance_to(to_ring)
    }

    /// Removes `member` from the ring, draining everything it owns to
    /// the surviving members (same protocol as [`Self::join`]), then
    /// clears the provider. The provider itself keeps running — retiring
    /// it from the keyspace is independent of stopping its process.
    pub fn retire(&self, member: &str) -> Result<RebalanceReport, MargoError> {
        let to_ring = {
            let snap = self.state.read();
            if !snap.ring.contains(member) {
                return Err(MargoError::Handler(format!(
                    "'{member}' is not a keyspace member"
                )));
            }
            if snap.ring.len() == 1 {
                return Err(MargoError::Handler(
                    "cannot retire the last keyspace member".into(),
                ));
            }
            snap.ring.without_member(member)
        };
        self.rebalance_to(to_ring)
    }

    /// Picks the least-loaded service node (Pufferscale placement over
    /// the live provider weights) to host a joining provider.
    pub fn plan_host(&self, weights: &Weights) -> Option<Address> {
        let placement = self.service.placement();
        placement.least_loaded(weights)?.parse().ok()
    }

    /// Starts `spec` on `host` (or on the Pufferscale-chosen least
    /// loaded node when `None`) and joins it to the keyspace.
    pub fn join_provider(
        &self,
        spec: &ProviderSpec,
        host: Option<&Address>,
    ) -> Result<RebalanceReport, MargoError> {
        let host = match host {
            Some(addr) => addr.clone(),
            None => self
                .plan_host(&Weights::default())
                .ok_or_else(|| MargoError::Handler("no service node to host provider".into()))?,
        };
        let server = self
            .service
            .server(&host)
            .ok_or_else(|| MargoError::Handler(format!("{host} is not a service member")))?;
        server
            .start_provider(spec)
            .map_err(|e| MargoError::Handler(format!("start provider: {e}")))?;
        self.join(&spec.name)
    }

    fn rebalance_to(&self, to_ring: HashRing) -> Result<RebalanceReport, MargoError> {
        let _coordinator = self.rebalance_lock.lock();
        let from_ring = self.state.read().ring.clone();
        // Legs for joining members must exist before the window opens
        // (dual writes route to them immediately).
        {
            let mut legs = self.legs.write();
            for member in to_ring.members() {
                legs.entry(member.clone()).or_insert_with(|| {
                    Arc::new(Leg::new(&self.service, &self.margo, member, &self.config))
                });
            }
        }
        // Ship coalesced writes so the server-side listings see them —
        // only the members whose arcs the rebalance touches need the
        // flush (ring-aware: an untouched member's buffered writes are
        // invisible to this drain).
        self.sync_affected(&from_ring, &to_ring)?;
        // Open the move window.
        self.erase_log.lock().clear();
        self.state.write().to_ring = Some(to_ring.clone());
        // Epoch fence: writes hold the barrier shared across snapshot
        // and RPCs, so one exclusive acquisition here waits out every
        // write still routing under the steady ring — after this, all
        // in-flight writes dual-write, and the drain's listings cannot
        // miss a single-owner write that landed behind an export.
        drop(self.barrier.write());
        let throttle = Throttle::new(&self.config);
        let result = self.drain(&from_ring, &to_ring, &throttle);
        if result.is_err() {
            // Close the window; copied keys on the target are harmless
            // (reads route by the serving ring) and a later successful
            // rebalance's put-if-absent import + cleanup reconciles them.
            self.state.write().to_ring = None;
        }
        let mut report = result?;
        // Cutover: replay erases, swap rings — atomically w.r.t. writes.
        {
            let _exclusive = self.barrier.write();
            let log = std::mem::take(&mut *self.erase_log.lock());
            report.replayed_erases = log.len() as u64;
            if !log.is_empty() {
                let mut by_dest: BTreeMap<&str, Vec<Vec<u8>>> = BTreeMap::new();
                for key in &log {
                    if let Some(owner) = to_ring.owner(key) {
                        by_dest.entry(owner).or_default().push(key.clone());
                    }
                }
                for (dest, batch) in by_dest {
                    self.leg(dest)?.erase_multi(&batch)?;
                }
            }
            let mut snap = self.state.write();
            snap.ring = to_ring.clone();
            snap.to_ring = None;
        }
        report.erased_stale = self.cleanup(&from_ring, &to_ring)?;
        // Drop legs of members that left the ring.
        self.legs.write().retain(|name, _| to_ring.contains(name));
        Ok(report)
    }

    /// Flushes the coalescers of exactly the members a rebalance
    /// touches: at `replication_factor 1` the union of `from`/`to` ends
    /// of every moved arc; replicated mode flushes everything (replica
    /// sets shift near every arc — and its write path never buffers, so
    /// "everything" is a set of no-ops).
    fn sync_affected(
        &self,
        from_ring: &HashRing,
        to_ring: &HashRing,
    ) -> Result<(), MargoError> {
        if self.config.replicated() {
            return self.sync();
        }
        let mut affected: Vec<String> = from_ring
            .moved_arcs(to_ring)
            .into_iter()
            .flat_map(|arc| [arc.from, arc.to])
            .collect();
        affected.sort();
        affected.dedup();
        for member in &affected {
            // A joiner's leg exists by now (pre-created above); a member
            // unknown to the map has no coalescer to flush.
            if let Ok(leg) = self.leg(member) {
                leg.sync()?;
            }
        }
        Ok(())
    }

    /// Pages through every source member's keys and drains the moved
    /// ones, slice by slice, to their new owners. With replication each
    /// key's *primary* old owner pushes to every new-owner-set member
    /// that is not already a replica.
    fn drain(
        &self,
        from_ring: &HashRing,
        to_ring: &HashRing,
        throttle: &Throttle,
    ) -> Result<RebalanceReport, MargoError> {
        let rf = self.config.rf();
        let mut report = RebalanceReport::default();
        for member in from_ring.members() {
            let source = self.leg(member)?;
            let mut start_after: Option<Vec<u8>> = None;
            loop {
                let page =
                    source.list_keys(b"", start_after.as_deref(), self.config.drain_batch)?;
                let Some(last) = page.last() else { break };
                start_after = Some(last.clone());
                let mut by_dest: BTreeMap<&str, Vec<Vec<u8>>> = BTreeMap::new();
                for key in &page {
                    let old_owners = from_ring.owners(key, rf);
                    if old_owners.first().copied() != Some(member.as_str()) {
                        continue; // stale copy, or a non-primary replica
                    }
                    for dest in to_ring.owners(key, rf) {
                        if !old_owners.contains(&dest) {
                            by_dest.entry(dest).or_default().push(key.clone());
                        }
                    }
                }
                for (dest, keys) in by_dest {
                    report.moved_keys += keys.len() as u64;
                    report.slices += 1;
                    self.drain_slice(&source, member, dest, &keys, throttle)?;
                }
            }
        }
        Ok(report)
    }

    /// Ships one slice of keys from `member` to `dest`: REMI-backed
    /// export on the source, put-if-absent (put-if-newer when the
    /// keyspace is replicated and stores versioned records) import on
    /// the destination under the exclusive write barrier. Transfers are
    /// charged against the rebalance throttle's byte budget.
    fn drain_slice(
        &self,
        source: &Leg,
        member: &str,
        dest: &str,
        keys: &[Vec<u8>],
        throttle: &Throttle,
    ) -> Result<(), MargoError> {
        let dest_leg = self.leg(dest)?;
        let (dest_addr, _) = dest_leg.failover.resolve().ok_or_else(|| {
            MargoError::Handler(format!("cannot resolve keyspace member '{dest}'"))
        })?;
        let tag = format!("mv{}-{member}-to-{dest}", unique_u64());
        let dest_subdir = format!("providers/{dest}/slices/{tag}");
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let exported = source.failover.with_handle(|h| {
            h.slice_export(&refs, &tag, &dest_addr, REMI_PROVIDER_ID, &dest_subdir)
        })?;
        throttle.consume(exported.bytes);
        let versioned = self.config.replicated();
        // Exclusive barrier: no dual-write may interleave with the
        // import, so "absent" on the destination is authoritative (and
        // the versioned compare races with nothing).
        let _exclusive = self.barrier.write();
        dest_leg.failover.with_handle(|h| h.slice_import(&tag, versioned))?;
        // Erases logged before this import exported a pre-erase
        // snapshot of these keys; replay them on the destination now so
        // the import cannot resurrect them even transiently. (The
        // cutover replay still covers erases that arrive later.)
        let logged: Vec<Vec<u8>> = {
            let in_slice: std::collections::BTreeSet<&[u8]> =
                keys.iter().map(Vec::as_slice).collect();
            let log = self.erase_log.lock();
            log.iter().filter(|k| in_slice.contains(k.as_slice())).cloned().collect()
        };
        if !logged.is_empty() {
            dest_leg.erase_multi(&logged)?;
        }
        Ok(())
    }

    /// Erases post-cutover stale source copies: keys a surviving member
    /// still stores but no longer owns (at `replication_factor > 1`: is
    /// no longer in the owner *set* of). The retired member (absent from
    /// the new ring) is swept the same way — it owns nothing anymore, so
    /// everything it stores goes.
    fn cleanup(&self, from_ring: &HashRing, to_ring: &HashRing) -> Result<u64, MargoError> {
        let rf = self.config.rf();
        let mut erased = 0u64;
        for member in from_ring.members() {
            let leg = self.leg(member).or_else(|_| -> Result<_, MargoError> {
                // Retired member: its leg may already be dropped from
                // the map on a repeat cleanup; build a transient one.
                Ok(Arc::new(Leg::new(&self.service, &self.margo, member, &self.config)))
            })?;
            let mut start_after: Option<Vec<u8>> = None;
            loop {
                let page = leg.list_keys(b"", start_after.as_deref(), self.config.drain_batch)?;
                let Some(last) = page.last() else { break };
                start_after = Some(last.clone());
                let stale: Vec<Vec<u8>> = page
                    .iter()
                    .filter(|key| !to_ring.owners(key, rf).contains(&member.as_str()))
                    .cloned()
                    .collect();
                if !stale.is_empty() {
                    erased += leg.erase_multi(&stale)?;
                }
            }
        }
        Ok(erased)
    }

    // -----------------------------------------------------------------
    // Provider death (replicated mode)
    // -----------------------------------------------------------------

    /// Retires a *dead* member from the keyspace **without draining it**
    /// — the explicit provider-death path. Requires `replication_factor
    /// > 1`: every key the dead member served still has `rf - 1` live
    /// replicas, so quorum reads and writes keep working throughout; the
    /// only follow-up is a re-replication catch-up restoring the `rf`-th
    /// copy from the survivors.
    ///
    /// Protocol:
    ///
    /// 1. Swap the serving ring to `ring ∖ member` immediately. No move
    ///    window opens — there is nothing to drain from a corpse.
    /// 2. Epoch-fence on the write barrier: every write still fanning
    ///    under the old ring completes first (its share on the dead
    ///    member either landed — unreadable now, but re-replicated from
    ///    a survivor below — or was hinted onto a live successor).
    /// 3. Catch-up: each affected key's first surviving replica pushes
    ///    the record to the members that joined its owner set, via
    ///    put-if-newer, under the rebalance byte-budget throttle.
    /// 4. Replay hints: writes parked *for* the dead member while it was
    ///    flapping re-route to the keys' current owner sets.
    ///
    /// For draining a *live* member out of the keyspace, use
    /// [`Self::retire`].
    pub fn fail_member(&self, member: &str) -> Result<CatchUpReport, MargoError> {
        if !self.config.replicated() {
            return Err(MargoError::Handler(
                "fail_member requires replication_factor > 1 \
                 (an unreplicated member's data exists nowhere else; \
                 use retire() to drain a live member)"
                    .into(),
            ));
        }
        let _coordinator = self.rebalance_lock.lock();
        let (from_ring, to_ring) = {
            let snap = self.state.read();
            if !snap.ring.contains(member) {
                return Err(MargoError::Handler(format!(
                    "'{member}' is not a keyspace member"
                )));
            }
            if snap.ring.len() == 1 {
                return Err(MargoError::Handler(
                    "cannot fail the last keyspace member".into(),
                ));
            }
            if snap.to_ring.is_some() {
                return Err(MargoError::Handler(
                    "cannot fail a member while a rebalance window is open".into(),
                ));
            }
            (snap.ring.clone(), snap.ring.without_member(member))
        };
        self.state.write().ring = to_ring.clone();
        self.legs.write().remove(member);
        // Epoch fence (see step 2 above).
        drop(self.barrier.write());
        let throttle = Throttle::new(&self.config);
        let mut report = self.catch_up(&from_ring, &to_ring, member, &throttle)?;
        report.replayed_hints = self.drain_hints_now();
        Ok(report)
    }

    /// Restores the replication factor after [`Self::fail_member`]: for
    /// every key that counted `dead` among its `rf` owners, the first
    /// *surviving* old replica (exactly one per key — dedup by
    /// designation, not by probing) pushes its record to the members
    /// that entered the key's new owner set. Push is put-if-newer, so
    /// racing foreground writes and hint replays all converge.
    fn catch_up(
        &self,
        from_ring: &HashRing,
        to_ring: &HashRing,
        dead: &str,
        throttle: &Throttle,
    ) -> Result<CatchUpReport, MargoError> {
        let rf = self.config.rf();
        let mut report = CatchUpReport::default();
        for member in to_ring.members() {
            let leg = self.leg(member)?;
            let mut start_after: Option<Vec<u8>> = None;
            loop {
                let page =
                    leg.list_keys(b"", start_after.as_deref(), self.config.drain_batch)?;
                let Some(last) = page.last() else { break };
                start_after = Some(last.clone());
                // Keys this member is the designated repairer of.
                let mut repair: Vec<(Vec<u8>, Vec<String>)> = Vec::new();
                for key in &page {
                    let old_owners = from_ring.owners(key, rf);
                    if !old_owners.contains(&dead) {
                        continue;
                    }
                    let pusher = old_owners.iter().find(|m| **m != dead).copied();
                    if pusher != Some(member.as_str()) {
                        continue;
                    }
                    let targets: Vec<String> = to_ring
                        .owners(key, rf)
                        .into_iter()
                        .filter(|m| !old_owners.contains(m))
                        .map(str::to_string)
                        .collect();
                    if !targets.is_empty() {
                        repair.push((key.clone(), targets));
                    }
                }
                if repair.is_empty() {
                    continue;
                }
                let keys: Vec<Vec<u8>> = repair.iter().map(|(k, _)| k.clone()).collect();
                let records = leg.vget_multi(&keys, self.config.leg_max_rounds)?;
                let mut by_target: BTreeMap<String, Vec<(Vec<u8>, u64, Option<Vec<u8>>)>> =
                    BTreeMap::new();
                for ((key, targets), record) in repair.into_iter().zip(records) {
                    // A vanished record means a fresher erase+cleanup won;
                    // nothing to re-replicate.
                    let Some(record) = record else { continue };
                    let value = (!record.tombstone).then_some(record.value);
                    for target in targets {
                        by_target.entry(target).or_default().push((
                            key.clone(),
                            record.version,
                            value.clone(),
                        ));
                    }
                }
                for (target, batch) in by_target {
                    let bytes: u64 = batch
                        .iter()
                        .map(|(key, _, value)| {
                            (key.len()
                                + value.as_ref().map_or(0, Vec::len)
                                + mochi_yokan::version::RECORD_OVERHEAD)
                                as u64
                        })
                        .sum();
                    throttle.consume(bytes);
                    // Patient rounds: this is recovery, not a quorum leg.
                    self.leg(&target)?.vput_multi(&batch, self.config.leg_max_rounds)?;
                    report.recopied_keys += batch.len() as u64;
                    report.recopied_bytes += bytes;
                }
            }
        }
        Ok(report)
    }
}

impl Drop for RoutedKv {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(drainer) = self.drainer.lock().take() {
            if drainer.join().is_err() {
                self.stats.drain_errors.fetch_add(1, Ordering::AcqRel);
            }
        }
    }
}

/// One hint-drain pass over every member (shared by the background
/// drainer thread, [`RoutedKv::drain_hints_now`], and
/// [`RoutedKv::fail_member`]): replay parked hints onto their target —
/// or, when the target left the ring, onto each key's current owner set
/// — then drop the replayed hints at the holder. Replays are
/// put-if-newer, so re-delivery is idempotent; any error leaves the
/// hint parked for the next pass. Returns the number of hints replayed.
fn hint_drain_pass(
    config: &RoutedConfig,
    state: &RwLock<RouteSnapshot>,
    legs: &RwLock<BTreeMap<String, Arc<Leg>>>,
    stats: &ReplicationStats,
) -> u64 {
    /// Hints listed per holder per pass (a busy holder drains over
    /// several passes rather than monopolizing one).
    const HINT_PAGE: usize = 1024;
    let snap = state.read().clone();
    let holders: Vec<(String, Arc<Leg>)> =
        legs.read().iter().map(|(name, leg)| (name.clone(), Arc::clone(leg))).collect();
    let mut replayed = 0u64;
    for (_, holder) in &holders {
        let hints = match holder.hint_list(HINT_PAGE, 2) {
            Ok(hints) => hints,
            Err(_) => {
                stats.drain_errors.fetch_add(1, Ordering::AcqRel);
                continue;
            }
        };
        if hints.is_empty() {
            continue;
        }
        let mut by_target: BTreeMap<String, Vec<HintEntry>> = BTreeMap::new();
        for hint in hints {
            by_target.entry(hint.target.clone()).or_default().push(hint);
        }
        for (target, entries) in by_target {
            let mut shipped: Vec<HintDropEntry> = Vec::new();
            if snap.ring.contains(&target) {
                // The owner is back (breaker half-open let a probe
                // through, or the member recovered): deliver directly.
                let Some((_, target_leg)) = holders.iter().find(|(name, _)| *name == target)
                else {
                    stats.drain_errors.fetch_add(1, Ordering::AcqRel);
                    continue;
                };
                let records: Vec<(Vec<u8>, u64, Option<Vec<u8>>)> = entries
                    .iter()
                    .map(|e| {
                        (e.key.clone(), e.version, (!e.tombstone).then(|| e.value.clone()))
                    })
                    .collect();
                if target_leg.vput_multi(&records, 2).is_ok() {
                    shipped = entries
                        .iter()
                        .map(|e| HintDropEntry {
                            target: target.clone(),
                            key: e.key.clone(),
                            version: e.version,
                        })
                        .collect();
                } else {
                    stats.drain_errors.fetch_add(1, Ordering::AcqRel);
                }
            } else {
                // The target died or retired: its records belong to each
                // key's *current* owner set now.
                for entry in &entries {
                    let (serving, future) = snap.write_set(&entry.key, config.rf());
                    let mut delivered = !serving.is_empty();
                    let record = vec![(
                        entry.key.clone(),
                        entry.version,
                        (!entry.tombstone).then(|| entry.value.clone()),
                    )];
                    for owner in serving.iter().chain(&future) {
                        let Some((_, owner_leg)) =
                            holders.iter().find(|(name, _)| name == owner)
                        else {
                            delivered = false;
                            break;
                        };
                        if owner_leg.vput_multi(&record, 2).is_err() {
                            delivered = false;
                            break;
                        }
                    }
                    if delivered {
                        shipped.push(HintDropEntry {
                            target: target.clone(),
                            key: entry.key.clone(),
                            version: entry.version,
                        });
                    } else {
                        stats.drain_errors.fetch_add(1, Ordering::AcqRel);
                    }
                }
            }
            if !shipped.is_empty() {
                replayed += shipped.len() as u64;
                if holder.hint_drop(&shipped, 2).is_err() {
                    stats.drain_errors.fetch_add(1, Ordering::AcqRel);
                }
            }
        }
    }
    if replayed > 0 {
        stats.hint_replays.fetch_add(replayed, Ordering::AcqRel);
    }
    replayed
}

/// Applies a provider's declarative `"keyspace"` Bedrock-config object
/// onto a [`RoutedConfig`] (absent fields keep their current value; see
/// [`RoutedKv::for_keyspace`]).
fn apply_keyspace_config(config: &mut RoutedConfig, value: &serde_json::Value) {
    if !value.is_object() {
        return;
    }
    if let Some(rf) = value["replication_factor"].as_u64() {
        config.replication_factor = rf.max(1) as usize;
    }
    if let Some(w) = value["write_quorum"].as_u64() {
        config.write_quorum = Some(w.max(1) as usize);
    }
    if let Some(r) = value["read_quorum"].as_u64() {
        config.read_quorum = Some(r.max(1) as usize);
    }
    if let Some(bytes) = value["drain_bytes_per_tick"].as_u64() {
        config.drain_bytes_per_tick = Some(bytes);
    }
    if let Some(ms) = value["drain_tick_ms"].as_u64() {
        config.drain_tick = Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = value["hint_drain_interval_ms"].as_u64() {
        config.hint_drain_interval = Duration::from_millis(ms.max(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(members: &[&str], to: Option<&[&str]>) -> RouteSnapshot {
        RouteSnapshot {
            ring: HashRing::new(members),
            to_ring: to.map(HashRing::new),
        }
    }

    #[test]
    fn config_defaults_are_sane() {
        let config = RoutedConfig::default();
        assert_eq!(config.vnodes, DEFAULT_VNODES);
        assert!(config.fanout_streams >= 1);
        assert!(config.leg_reroute_backoff < Duration::from_millis(50));
        assert!(config.coalescer.is_none());
        assert!(config.drain_batch > 0);
        // Replication defaults: off, majority quorums, unthrottled.
        assert_eq!(config.replication_factor, 1);
        assert!(!config.replicated());
        assert!(config.write_quorum.is_none());
        assert!(config.read_quorum.is_none());
        assert!(config.drain_bytes_per_tick.is_none());
        assert!(config.hint_drain_interval > Duration::ZERO);
        assert!(config.drain_tick > Duration::ZERO);
    }

    #[test]
    fn quorums_default_to_majority_and_clamp() {
        let mut config = RoutedConfig { replication_factor: 3, ..RoutedConfig::default() };
        assert_eq!(config.write_quorum_for(3), 2);
        assert_eq!(config.read_quorum_for(3), 2);
        // Quorums clamp into 1..=replicas (a member loss shrank the set).
        config.write_quorum = Some(5);
        assert_eq!(config.write_quorum_for(3), 3);
        config.write_quorum = Some(0);
        assert_eq!(config.write_quorum_for(3), 1);
        config.read_quorum = Some(1);
        assert_eq!(config.read_quorum_for(3), 1);
        // Degenerate single-replica set always quorums at 1.
        assert_eq!(config.write_quorum_for(1), 1);
        assert_eq!(config.read_quorum_for(1), 1);
    }

    #[test]
    fn write_set_unions_serving_and_future_owners() {
        let rf = 2;
        let steady = snap(&["db0", "db1", "db2"], None);
        let moving = snap(&["db0", "db1", "db2"], Some(&["db0", "db1", "db2", "db3"]));
        let mut saw_future = false;
        for i in 0..500 {
            let key = format!("key-{i}").into_bytes();
            let (serving, future) = steady.write_set(&key, rf);
            assert_eq!(serving, steady.replicas(&key, rf));
            assert!(future.is_empty(), "no window, no future owners");
            let (serving, future) = moving.write_set(&key, rf);
            assert_eq!(serving.len(), rf);
            for member in &future {
                assert!(!serving.contains(member), "future owners are disjoint");
                saw_future = true;
            }
        }
        assert!(saw_future, "some key must gain db3 as a future replica");
    }

    #[test]
    fn freshness_orders_by_version_then_record_bytes() {
        let old = VersionedValue { version: 5, tombstone: false, value: b"zzz".to_vec() };
        let new = VersionedValue { version: 9, tombstone: false, value: b"aaa".to_vec() };
        assert!(RoutedKv::freshness(&new) > RoutedKv::freshness(&old));
        // Same version: the tombstone flag byte (1 > 0) breaks the tie,
        // mirroring the server's bytewise record comparison.
        let live = VersionedValue { version: 7, tombstone: false, value: b"x".to_vec() };
        let dead = VersionedValue { version: 7, tombstone: true, value: Vec::new() };
        assert!(RoutedKv::freshness(&dead) > RoutedKv::freshness(&live));
        // Same version and flag: value bytes decide, deterministically.
        let a = VersionedValue { version: 7, tombstone: false, value: b"a".to_vec() };
        let b = VersionedValue { version: 7, tombstone: false, value: b"b".to_vec() };
        assert!(RoutedKv::freshness(&b) > RoutedKv::freshness(&a));
    }

    #[test]
    fn keyspace_config_overrides_apply() {
        let mut config = RoutedConfig::default();
        apply_keyspace_config(
            &mut config,
            &serde_json::json!({
                "replication_factor": 3,
                "write_quorum": 2,
                "read_quorum": 2,
                "drain_bytes_per_tick": 65536,
                "drain_tick_ms": 20,
                "hint_drain_interval_ms": 250,
            }),
        );
        assert_eq!(config.replication_factor, 3);
        assert!(config.replicated());
        assert_eq!(config.write_quorum, Some(2));
        assert_eq!(config.read_quorum, Some(2));
        assert_eq!(config.drain_bytes_per_tick, Some(65536));
        assert_eq!(config.drain_tick, Duration::from_millis(20));
        assert_eq!(config.hint_drain_interval, Duration::from_millis(250));
        // Non-object (absent) config is a no-op.
        let before = config;
        apply_keyspace_config(&mut config, &serde_json::Value::Null);
        assert_eq!(config.replication_factor, before.replication_factor);
    }

    #[test]
    fn throttle_sleeps_once_budget_is_spent() {
        let config = RoutedConfig {
            drain_bytes_per_tick: Some(1024),
            drain_tick: Duration::from_millis(20),
            ..RoutedConfig::default()
        };
        let throttle = Throttle::new(&config);
        let start = Instant::now();
        throttle.consume(800); // fits the first tick
        throttle.consume(800); // fits (budget not yet exhausted at check)
        throttle.consume(100); // must wait for the next tick
        assert!(
            start.elapsed() >= Duration::from_millis(10),
            "third transfer should have slept into the next tick"
        );
        // Unthrottled config never sleeps.
        let free = Throttle::new(&RoutedConfig::default());
        let start = Instant::now();
        free.consume(u64::MAX);
        free.consume(u64::MAX);
        assert!(start.elapsed() < Duration::from_millis(20));
    }

    #[test]
    fn owners_reports_moving_keys() {
        let steady = snap(&["db0", "db1"], None);
        let moving = snap(&["db0", "db1"], Some(&["db0", "db1", "db2"]));
        let mut saw_move = false;
        for i in 0..500 {
            let key = format!("key-{i}").into_bytes();
            let (owner, next) = steady.owners(&key);
            assert!(owner.is_some());
            assert!(next.is_none(), "no move window, nothing moves");
            let (owner, next) = moving.owners(&key);
            if let Some(next) = next {
                assert_eq!(next, "db2", "adds move keys only toward the joiner");
                assert_ne!(Some(next), owner);
                saw_move = true;
            }
        }
        assert!(saw_move, "some key must move toward db2");
    }

    #[test]
    fn write_batches_dual_route_moving_keys() {
        let moving = snap(&["db0", "db1"], Some(&["db0", "db1", "db2"]));
        let keys: Vec<Vec<u8>> =
            (0..500).map(|i| format!("key-{i}").into_bytes()).collect();
        let batches = RoutedKv::write_batches(&moving, &keys);
        let joiner = batches.get("db2").expect("joiner receives dual writes");
        for &i in joiner {
            let (owner, next) = moving.owners(&keys[i]);
            assert_eq!(next, Some("db2"));
            // The same index must also sit in its serving owner's batch.
            let owner = owner.expect("owned");
            assert!(batches[owner].contains(&i), "dual write covers the old owner");
        }
        // Every key routes somewhere, and non-moving keys exactly once.
        let total: usize = batches.values().map(Vec::len).sum();
        let moving_count = keys
            .iter()
            .filter(|k| moving.owners(k).1.is_some())
            .count();
        assert_eq!(total, keys.len() + moving_count);
    }

    #[test]
    fn write_batches_steady_state_is_a_partition() {
        let steady = snap(&["db0", "db1", "db2"], None);
        let keys: Vec<Vec<u8>> =
            (0..300).map(|i| format!("key-{i}").into_bytes()).collect();
        let batches = RoutedKv::write_batches(&steady, &keys);
        let mut seen: Vec<usize> = batches.values().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..300).collect::<Vec<_>>());
    }
}
