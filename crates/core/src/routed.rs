//! `RoutedKv` — one logical keyspace over N Yokan providers.
//!
//! The scale-out counterpart of [`FailoverKv`]: where a failover handle
//! follows *one* provider across relocations, a routed handle spreads a
//! keyspace over *many* providers with a client-side consistent-hash
//! ring ([`HashRing`]) and keeps every per-provider behavior — retry,
//! breaker, deadline, SSG-view re-resolution — by routing each leg
//! through its own [`FailoverKv`].
//!
//! There is one data path, at every `replication_factor`:
//!
//! * **Names, not addresses.** The ring maps keys to provider *names*;
//!   each leg resolves the name to a live `(address, provider_id)`.
//!   Provider-level REMI migrations (node scale-in, failover rebuilds)
//!   are therefore invisible to the ring — only *keyspace* rebalances
//!   ([`RoutedKv::join`] / [`RoutedKv::retire`]) change it.
//! * **Versioned records, quorum I/O** (DESIGN.md §18). Every key lives
//!   on its first `replication_factor` distinct ring successors. A write
//!   stamps an HLC-style version, is stored as a `mochi_yokan::version`
//!   record by server-side put-if-newer, and acks at the write quorum `W`
//!   of real copies; an erase is a write of a tombstone. A single-record
//!   write asks only `W` replicas (the rest if one fails): the other
//!   replicas are *owed* the record, which ships to each in a per-member
//!   batch within one drain interval, or stay owed while the replica does
//!   not answer. Owed copies wait in this process's memory: if it dies
//!   before they ship, the record has only its `W` copies, and losing `W`
//!   replicas in that window loses it (DESIGN.md §18.2). A read asks the
//!   read quorum `R` of replicas (the rest if one fails), merges
//!   freshest-wins and repairs stale replicas asynchronously. Both
//!   quorums are the majority of the serving set, so `R + W > N` by
//!   construction; `replication_factor 1` (the default) is the replica
//!   set of one with `W = R = 1`.
//! * **Concurrent fan-out.** Operations split into one batch per
//!   destination; the caller's thread *posts* every batch
//!   ([`FailoverKv::post_rounds`], non-blocking down to the fabric) and
//!   only then waits for them all, so a `put_multi` over 4 providers
//!   costs one leg's latency, not four, without a thread hand-off.
//!   Failures stay per key: every slot reports its own outcome.
//! * **Live rebalance, zero acked-write loss.** Membership changes copy
//!   the minimal moved set (the keys whose owner set gains a member)
//!   while traffic continues, the way a read repair or an owed copy
//!   moves a record: a versioned read, then put-if-newer. During the move
//!   window writes cover the serving replicas *and* the future owners,
//!   and the compare is atomic per key in the backend, so neither an
//!   in-flight write nor an erase can lose to the copied snapshot. See
//!   [`RoutedKv::join`]. (REMI moves a whole provider's files —
//!   `DynamicService::rebalance` — never records between members.)
//! * **Owed copies and provider death** (replica sets larger than one):
//!   a replica a write could not reach is owed the record like one it
//!   did not ask, and a background drainer ships it when the member
//!   answers again; a killed member is retired with nothing read from it
//!   ([`RoutedKv::fail_member`]) — survivors already hold every record,
//!   its owed copies go to them, and the same copier restores the lost
//!   copy from them. A set of one has no other replica to serve from: its
//!   owner's failure is the write's failure.
//!
//! A member's backend therefore holds record envelopes, not raw values:
//! a plain `DatabaseHandle` pointed at a member sees them. Raw values
//! written before the keyspace was opened decode as version 0 and are
//! upgraded by their next write.
//!
//! One instance of [`RoutedKv`] is the *coordinator* of its keyspace:
//! concurrent data ops on the same instance are safe, but membership
//! changes must not race from multiple client processes (nothing
//! arbitrates two simultaneous copies — the same single-admin assumption
//! Bedrock's reconfiguration interface makes).
//!
//! [`FailoverKv`]: crate::failover::FailoverKv
//! [`HashRing`]: crate::ring::HashRing

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use mochi_bedrock::ProviderSpec;
use mochi_margo::{MargoError, MargoRuntime};
use mochi_mercury::Address;
use mochi_pufferscale::Weights;
use mochi_util::ordered_lock::{rank, OrderedMutex, OrderedRwLock};
use mochi_yokan::client::{DatabaseHandle, KeyBatch, VersionedBatch, VersionedValue};
use mochi_yokan::provider::{ListKeysArgs, PutVersionedMultiReply};
use mochi_yokan::version::RECORD_OVERHEAD;

use crate::failover::{FailoverKv, PostedOp};
use crate::ring::HashRing;
use crate::service::DynamicService;

/// Re-resolution rounds of a leg whose loss the quorum and the owed copy
/// absorb: fail fast rather than stall the whole operation.
const FAIL_FAST_ROUNDS: u32 = 2;

/// Wait between a leg's re-resolution rounds — deliberately shorter than
/// the standalone [`FailoverKv`] default so one slow leg does not hold a
/// whole scatter-gather hostage.
const LEG_REROUTE_BACKOFF: Duration = Duration::from_millis(10);

/// Keys listed per page by the copier, the cleanup and [`RoutedKv::len`].
const PAGE: usize = 512;

/// Records an outbox holds before it ships.
const OUTBOX: usize = 64;

/// Records one member's outbox holds at most: a member that stays
/// unreachable costs bounded memory, and what it is owed past this is
/// left to read repair (or, for a future owner, fails the write).
const OUTBOX_CAP: usize = 8192;

/// Tuning knobs of a [`RoutedKv`].
#[derive(Debug, Clone, Copy)]
pub struct RoutedConfig {
    /// Per-attempt timeout of each leg.
    pub leg_timeout: Duration,
    /// Re-resolution rounds of each leg (see [`FailoverKv`]). Data-path
    /// legs of a replica set larger than one use two rounds instead.
    pub leg_max_rounds: u32,
    /// Copies of every key (distinct ring successors). `> 1` adds owed
    /// copies and [`RoutedKv::fail_member`] to the one data path.
    pub replication_factor: usize,
    /// How often the background drainer ships every outbox.
    pub hint_drain_interval: Duration,
}

impl Default for RoutedConfig {
    fn default() -> Self {
        Self {
            leg_timeout: Duration::from_millis(250),
            leg_max_rounds: 40,
            replication_factor: 1,
            hint_drain_interval: Duration::from_millis(100),
        }
    }
}

impl RoutedConfig {
    fn rf(&self) -> usize {
        self.replication_factor.max(1)
    }
}

/// The write quorum and the read quorum over `replicas` serving copies:
/// a majority, so every read quorum meets every write quorum
/// (`R + W > N`) whatever the set's size.
fn majority(replicas: usize) -> usize {
    replicas / 2 + 1
}

/// What a rebalance moved (returned by [`RoutedKv::join`]/
/// [`RoutedKv::retire`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Records (tombstones included) copied to a new owner.
    pub moved_keys: u64,
    /// Batches shipped: one put-if-newer RPC per destination per page of
    /// the source's listing.
    pub slices: u64,
    /// Stale source copies removed after cutover.
    pub erased_stale: u64,
}

/// What [`RoutedKv::fail_member`] re-replicated after retiring a dead
/// member.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CatchUpReport {
    /// Records copied to restore the replication factor.
    pub recopied_keys: u64,
    /// Bytes of those records (key + value + version envelope).
    pub recopied_bytes: u64,
    /// Copies the failed member was owed, handed to their keys' current
    /// write sets instead.
    pub replayed_hints: u64,
}

/// Point-in-time replication counters (see [`RoutedKv::replication_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationCounters {
    /// Records a serving replica missed — the write's leg to it failed —
    /// and is owed: they ship when it answers again.
    pub hinted_writes: u64,
    /// Copies owed to a member that left the keyspace (failed or
    /// retired), handed to their keys' current write sets instead.
    pub hint_replays: u64,
    /// Stale or missing replicas repaired asynchronously after a read.
    pub read_repairs: u64,
    /// Copies owed to a serving replica that its full outbox refused:
    /// left for the next read to repair.
    pub repair_failures: u64,
    /// Shipments that failed (their records stay owed, and the next
    /// drainer tick retries them), and a drainer thread that could not
    /// start or panicked.
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

/// What one run of the bulk copier shipped.
#[derive(Default)]
struct Copied {
    /// Records put on a member that entered their owner set.
    records: u64,
    /// Put-if-newer RPCs that carried them.
    batches: u64,
    /// Key, value and version-envelope bytes of those records.
    bytes: u64,
}

/// An owned versioned record: key, version, value (`None` = tombstone).
type Record = (Vec<u8>, u64, Option<Vec<u8>>);
/// The same, borrowed from the caller.
type RecordRef<'a> = (&'a [u8], u64, Option<&'a [u8]>);

/// Immutable routing state: operations share the current one by `Arc`,
/// membership changes publish a new one.
struct Route {
    /// Serving ring: reads route here.
    ring: HashRing,
    /// The ring being drained toward, during a move window.
    to_ring: Option<HashRing>,
    /// The members of either ring, sorted. Replica sets, batches and
    /// quorum bookkeeping name members by position here.
    members: Vec<String>,
    /// One leg per member, in the same order.
    legs: Vec<Arc<FailoverKv>>,
    /// Where each member of `ring`, and of `to_ring`, sits in `members`.
    ring_at: Vec<usize>,
    to_at: Vec<usize>,
    /// Replication factor (`>= 1`).
    rf: usize,
    /// One outbox per member, in the same order.
    outboxes: Vec<OrderedMutex<Outbox>>,
}

/// What one member is owed: the records of writes that did not ask it or
/// did not reach it, of read repairs, and of shipments that failed.
#[derive(Default)]
struct Outbox {
    records: Vec<Record>,
    /// The member's last shipment failed: writes only append, and the
    /// drainer tick or a flush retries.
    failed: bool,
}

impl Outbox {
    /// Adds `record`; `false` if the outbox is full ([`OUTBOX_CAP`]).
    fn push(&mut self, record: Record) -> bool {
        let room = self.records.len() < OUTBOX_CAP;
        if room {
            self.records.push(record);
        }
        room
    }
}

/// Fills the slots of a write set that has fewer future owners than the
/// widest one: names no member.
const NOBODY: usize = usize::MAX;

/// One set of positions in [`Route::legs`] per item of an operation — a
/// key's replica set, a record's write set — `width` consecutive entries
/// of one array each: routing an operation allocates per call, not per
/// key.
struct Sets {
    width: usize,
    members: Vec<usize>,
}

impl Sets {
    /// `items` sets of `width` (at least one) entries, each written by
    /// `fill`.
    fn new(items: usize, width: usize, mut fill: impl FnMut(usize, &mut [usize])) -> Self {
        let mut members = vec![NOBODY; items * width];
        for (item, set) in members.chunks_exact_mut(width).enumerate() {
            fill(item, set);
        }
        Self { width, members }
    }

    fn of(&self, item: usize) -> &[usize] {
        &self.members[item * self.width..][..self.width]
    }

    fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.members.chunks_exact(self.width)
    }

    /// Each set's `width` entries from position `from` on, wrapping
    /// around; the sets of the items `wanted` refuses name nobody.
    fn rotated(&self, from: usize, width: usize, wanted: impl Fn(usize) -> bool) -> Self {
        Self::new(self.members.len() / self.width, width, |item, out| {
            if wanted(item) {
                out.iter_mut().zip(from..).for_each(|(m, at)| *m = self.of(item)[at % self.width]);
            }
        })
    }
}

/// The members a set names.
fn named(set: &[usize]) -> impl Iterator<Item = usize> + '_ {
    set.iter().copied().filter(|&member| member != NOBODY)
}

impl Route {
    /// A route over `ring` (and `to_ring` while a move window is open)
    /// with what `make_legs` makes of its member names.
    fn new(
        ring: HashRing,
        to_ring: Option<HashRing>,
        rf: usize,
        make_legs: impl FnOnce(&[String]) -> Vec<Arc<FailoverKv>>,
    ) -> Self {
        let mut members = ring.members().to_vec();
        members.extend(to_ring.iter().flat_map(|to| to.members().iter().cloned()));
        members.sort();
        members.dedup();
        let at = |names: &[String]| -> Vec<usize> {
            names.iter().filter_map(|name| members.binary_search(name).ok()).collect()
        };
        let ring_at = at(ring.members());
        let to_at = at(to_ring.as_ref().map_or(&[], HashRing::members));
        let legs = make_legs(&members);
        let outboxes = members
            .iter()
            .map(|_| OrderedMutex::new(rank::ROUTED_OUTBOX, "routed.outbox", Outbox::default()))
            .collect();
        Self { ring, to_ring, members, legs, ring_at, to_at, rf, outboxes }
    }

    /// Position of `member` (`None` for a name on neither ring).
    fn position(&self, member: &str) -> Option<usize> {
        self.members.binary_search_by(|name| name.as_str().cmp(member)).ok()
    }

    /// The serving ring's members with their legs.
    fn serving_legs(&self) -> impl Iterator<Item = (&String, &Arc<FailoverKv>)> {
        self.ring.members().iter().zip(self.ring_at.iter().map(|&at| &self.legs[at]))
    }

    /// Size of every key's serving replica set: `rf`, or the whole ring
    /// if that is smaller.
    fn serving(&self) -> usize {
        self.rf.min(self.ring.len())
    }

    /// Writes the key's serving replica set — its [`Self::serving`]
    /// distinct successors on the serving ring — into `set`. Reads route
    /// here.
    fn replicas_into(&self, key: &[u8], set: &mut [usize]) {
        let found = self.ring.owner_indices_into(key, set);
        set[..found].iter_mut().for_each(|member| *member = self.ring_at[*member]);
    }

    /// Size of a write set: the serving replicas and, while a move window
    /// is open, room for as many future owners.
    fn write_width(&self) -> usize {
        self.serving() + self.to_ring.as_ref().map_or(0, |to| self.rf.min(to.len()))
    }

    /// Writes the key's write set into `set` ([`Self::write_width`]
    /// entries): the serving replicas first, then the future owners that
    /// are not already serving, then [`NOBODY`]. Writes cover both, so a
    /// cutover in either direction keeps every acked write.
    fn write_set_into(&self, key: &[u8], set: &mut [usize]) {
        let (replicas, future) = set.split_at_mut(self.serving());
        self.replicas_into(key, replicas);
        let Some(to) = &self.to_ring else { return };
        // The walk lands in `future`, which is then compacted in place.
        let owners = to.owner_indices_into(key, future);
        let mut kept = 0;
        for walked in 0..owners {
            let position = self.to_at[future[walked]];
            if !replicas.contains(&position) {
                future[kept] = position;
                kept += 1;
            }
        }
        future[kept..].fill(NOBODY);
    }

    /// Whether a replica set holds more than one member: only then is
    /// there a live replica to serve from while another one is owed a
    /// write it missed.
    fn replicated(&self) -> bool {
        self.serving() > 1
    }

    /// Re-resolution rounds of a data-path leg. A set of one has no other
    /// replica to fall back on, so its leg waits out relocations and
    /// transient faults; larger sets fail fast and let the quorum absorb
    /// the loss.
    fn leg_rounds(&self, config: &RoutedConfig) -> u32 {
        if self.replicated() {
            FAIL_FAST_ROUNDS
        } else {
            config.leg_max_rounds
        }
    }

    /// Posts every outbox that holds records as one batch to its member.
    fn ship_outboxes(self: &Arc<Self>) -> Vec<Shipment> {
        let owed = self.outboxes.iter().map(|outbox| std::mem::take(&mut outbox.lock().records));
        let owed = owed.enumerate().filter(|(_, records)| !records.is_empty());
        owed.map(|(member, records)| Shipment::post(self, member, records)).collect()
    }

    /// Hands this route `records`, owed to the member called `name`, and
    /// whether that member's last shipment `failed`: they go to its
    /// outbox or, if it is on neither ring, to the outboxes of each key's
    /// write set. Counts what a full outbox refuses as a failed repair.
    fn take_owed(&self, name: &str, records: Vec<Record>, failed: bool, stats: &ReplicationStats) {
        let mut refused = 0;
        if let Some(member) = self.position(name) {
            let mut outbox = self.outboxes[member].lock();
            outbox.failed |= failed;
            for record in records {
                refused += u64::from(!outbox.push(record));
            }
        } else if !records.is_empty() {
            stats.hint_replays.fetch_add(records.len() as u64, Ordering::AcqRel);
            let mut set = vec![NOBODY; self.write_width()];
            for record in records {
                self.write_set_into(&record.0, &mut set);
                for member in named(&set) {
                    refused += u64::from(!self.outboxes[member].lock().push(record.clone()));
                }
            }
        }
        stats.repair_failures.fetch_add(refused, Ordering::AcqRel);
    }

    /// Takes over what `old`, the route this one replaces, is owed.
    fn inherit(&self, old: &Route, stats: &ReplicationStats) {
        for (name, outbox) in old.members.iter().zip(&old.outboxes) {
            let Outbox { records, failed } = std::mem::take(&mut *outbox.lock());
            self.take_owed(name, records, failed, stats);
        }
    }
}

/// Item indices grouped by the members their sets name, in one array: a
/// counting sort, `members` group ends followed by the grouped indices.
struct ByMember {
    members: usize,
    buf: Vec<usize>,
}

impl ByMember {
    fn new(members: usize, sets: &Sets) -> Self {
        let mut buf = Vec::with_capacity(members + sets.members.len());
        buf.resize(members, 0);
        for member in sets.iter().flat_map(named) {
            buf[member] += 1;
        }
        // Counts to group starts.
        let mut total = 0;
        for slot in &mut buf {
            total += std::mem::replace(slot, total);
        }
        buf.resize(members + total, 0);
        let (cursors, grouped) = buf.split_at_mut(members);
        for (item, set) in sets.iter().enumerate() {
            for member in named(set) {
                grouped[cursors[member]] = item;
                cursors[member] += 1;
            }
        }
        // Every cursor has reached its group's end.
        Self { members, buf }
    }

    /// `(member, its items)` for every member some set names, in member
    /// order; a member's items are in item order.
    fn iter(&self) -> impl Iterator<Item = (usize, &[usize])> {
        let (ends, grouped) = self.buf.split_at(self.members);
        let mut start = 0;
        ends.iter().enumerate().filter_map(move |(member, &end)| {
            let items = &grouped[std::mem::replace(&mut start, end)..end];
            (!items.is_empty()).then_some((member, items))
        })
    }
}

/// One member's request, made by `encode` — unless the member is sent
/// every item of the operation (`covers_all`) and so was a member before
/// it: then the request kept in `whole` is shared (a `Bytes` clone). At
/// `rf > 1` a single-key operation, or any whose keys all have the same
/// replica set, is encoded once and sends the same bytes to each member.
fn encoded_once<B: Clone>(
    whole: &mut Option<B>,
    covers_all: bool,
    encode: impl FnOnce() -> Result<B, MargoError>,
) -> Result<B, MargoError> {
    match whole {
        _ if !covers_all => encode(),
        Some(request) => Ok(request.clone()),
        None => Ok(whole.insert(encode()?).clone()),
    }
}

/// The members' legs: failover handles tuned by the keyspace's config.
fn new_legs(
    service: &Arc<DynamicService>,
    margo: &MargoRuntime,
    config: &RoutedConfig,
    members: &[String],
) -> Vec<Arc<FailoverKv>> {
    let leg = |member: &String| {
        FailoverKv::new(service, margo, member)
            .with_timeout(config.leg_timeout)
            .with_max_rounds(config.leg_max_rounds)
            .with_reroute_backoff(LEG_REROUTE_BACKOFF)
    };
    members.iter().map(|member| Arc::new(leg(member))).collect()
}

/// A batched put-if-newer posted on one leg.
type PostedVput = PostedOp<VersionedBatch, PutVersionedMultiReply>;

/// Posts a batched put-if-newer of `records` on one leg.
fn post_vput<'a>(
    leg: &Arc<FailoverKv>,
    records: impl Iterator<Item = RecordRef<'a>> + Clone,
    rounds: u32,
) -> Result<PostedVput, MargoError> {
    let batch = VersionedBatch::encode(records)?;
    Ok(leg.post_rounds(rounds, batch, DatabaseHandle::post_put_versioned))
}

/// An owned record as [`post_vput`] takes it.
fn record_ref((key, version, value): &Record) -> RecordRef<'_> {
    (key, *version, value.as_deref())
}

/// Records a member is owed — read repairs, or its outbox — posted to it
/// as one put-if-newer batch.
struct Shipment {
    route: Arc<Route>,
    member: usize,
    records: Vec<Record>,
    posted: Result<PostedVput, MargoError>,
}

impl Shipment {
    fn post(route: &Arc<Route>, member: usize, records: Vec<Record>) -> Self {
        let posted = post_vput(&route.legs[member], records.iter().map(record_ref), 1);
        Self { route: Arc::clone(route), member, records, posted }
    }

    /// Waits for the batch. A failed one hands its records back to the
    /// member's outbox in the route current now (`state`), so they follow
    /// it across membership changes, and marks the member failed there
    /// until a shipment to it gets through.
    fn settle(self, state: &OrderedRwLock<Arc<Route>>, stats: &ReplicationStats) {
        let Self { route, member, records, posted } = self;
        let delivered = posted.and_then(PostedOp::wait).is_ok();
        let current = state.read();
        let name = route.members[member].as_str();
        if delivered {
            if let Some(member) = current.position(name) {
                current.outboxes[member].lock().failed = false;
            }
            return;
        }
        stats.drain_errors.fetch_add(1, Ordering::AcqRel);
        current.take_owed(name, records, true, stats);
    }
}

/// What the drainer settles between its ticks, in queue order.
enum Settle {
    Shipment(Box<Shipment>),
    /// Answered once every shipment queued before it is settled.
    Fence(SyncSender<()>),
}

impl Settle {
    fn settle(self, state: &OrderedRwLock<Arc<Route>>, stats: &ReplicationStats) {
        match self {
            Self::Shipment(shipment) => shipment.settle(state, stats),
            Self::Fence(done) => done.send(()).unwrap_or(()),
        }
    }
}

/// Shipments the drainer has not settled yet; a caller that finds the
/// queue full waits for its own.
const SETTLE_QUEUE: usize = 1024;

/// Who acked one record of a quorum write.
#[derive(Default)]
struct Tally {
    /// Serving replicas that really acked (an owed copy is no ack).
    real_serving: u32,
    /// Future owners covered by a real ack or an owed copy.
    covered_future: u32,
    /// Whether a live record existed on some replica before the write.
    existed: bool,
    /// First error of a member that is not covered (boxed: a batch
    /// keeps one tally per record, and errors are the rare case).
    error: Option<Box<MargoError>>,
}

impl Tally {
    /// Counts `member`'s ack: it is one of the record's `serving`
    /// replicas or one of its future owners.
    fn credit(&mut self, serving: &[usize], member: usize) {
        if serving.contains(&member) {
            self.real_serving += 1;
        } else {
            self.covered_future += 1;
        }
    }
}

/// A Yokan keyspace routed across many providers by consistent hashing.
pub struct RoutedKv {
    service: Arc<DynamicService>,
    margo: MargoRuntime,
    config: RoutedConfig,
    /// The current route (shared with the drainer thread).
    state: Arc<OrderedRwLock<Arc<Route>>>,
    /// Write barrier of the move protocol: writes hold it shared across
    /// routing and RPCs; a membership change holds it exclusive to fence
    /// a newly published route and to swap the serving ring, so no write
    /// routed under an older ring is in flight behind either. It orders
    /// routing only: what a copy may overwrite, put-if-newer decides.
    barrier: OrderedRwLock<()>,
    /// One membership change at a time.
    rebalance_lock: OrderedMutex<()>,
    /// HLC-style version clock: `max(now_µs, prev + 1)`, so versions are
    /// monotone per coordinator and roughly wall-clock-ordered across
    /// coordinators.
    clock: AtomicU64,
    /// Reads that asked fewer replicas than serve: rotates their window.
    reads: AtomicU64,
    /// Replication counters (owed copies, repairs, drain errors).
    stats: Arc<ReplicationStats>,
    /// The drainer thread and the queue of posted shipments it settles
    /// (`replication_factor > 1` only — a replica set of one owes no copy
    /// and finds no stale one). Dropping the queue's sender stops the
    /// thread.
    drainer: Option<(SyncSender<Settle>, std::thread::JoinHandle<()>)>,
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
        let route = Route::new(HashRing::new(members), None, config.rf(), |members| {
            new_legs(service, margo, &config, members)
        });
        let state = Arc::new(OrderedRwLock::new(
            rank::ROUTED_STATE,
            "routed.state",
            Arc::new(route),
        ));
        let stats = Arc::new(ReplicationStats::default());
        let drainer = (config.rf() > 1)
            .then(|| spawn_drainer(&state, &stats, config.hint_drain_interval))
            .flatten();
        Self {
            service: Arc::clone(service),
            margo: margo.clone(),
            config,
            state,
            barrier: OrderedRwLock::new(rank::ROUTED_BARRIER, "routed.barrier", ()),
            rebalance_lock: OrderedMutex::new(rank::ROUTED_REBALANCE, "routed.rebalance", ()),
            clock: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            stats,
            drainer,
        }
    }

    /// Ships every outbox and waits for the batches — a drainer tick on
    /// the caller's thread, after every shipment already posted has
    /// settled — and returns how many copies are still owed: those whose
    /// member did not take them. Deterministic alternative to waiting for
    /// the background drainer (tests, admin tooling).
    pub fn drain_hints_now(&self) -> u64 {
        self.flush();
        let route = self.route();
        route.outboxes.iter().map(|outbox| outbox.lock().records.len() as u64).sum()
    }

    /// Current replication counters (owed copies and repairs stay zero at
    /// `replication_factor 1`).
    pub fn replication_stats(&self) -> ReplicationCounters {
        self.stats.snapshot()
    }

    /// Reserves `count` consecutive write versions and returns the first:
    /// `max(now_µs, prev + 1)` — unique and monotone on this coordinator,
    /// wall-clock-comparable across coordinators.
    fn next_versions(&self, count: u64) -> u64 {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_micros() as u64);
        let mut prev = self.clock.load(Ordering::Acquire);
        loop {
            let first = now.max(prev + 1);
            match self.clock.compare_exchange_weak(
                prev,
                first + count.saturating_sub(1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return first,
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
    /// ignores unknown fields): `replication_factor` and
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

    /// Current members, sorted.
    pub fn members(&self) -> Vec<String> {
        self.state.read().ring.members().to_vec()
    }

    /// Whether a move window is open.
    pub fn rebalancing(&self) -> bool {
        self.state.read().to_ring.is_some()
    }

    fn route(&self) -> Arc<Route> {
        Arc::clone(&self.state.read())
    }

    /// Publishes the route over `ring` (and `to_ring`) and returns it.
    fn publish(&self, ring: HashRing, to_ring: Option<HashRing>) -> Arc<Route> {
        self.install(Arc::new(Route::new(ring, to_ring, self.config.rf(), |members| {
            new_legs(&self.service, &self.margo, &self.config, members)
        })))
    }

    /// Makes `route` the current one and hands it what the route it
    /// replaces is owed. A write still routing by the old one can owe it
    /// more: [`Self::fence`] takes that over.
    fn install(&self, route: Arc<Route>) -> Arc<Route> {
        let mut current = self.state.write();
        let old = std::mem::replace(&mut *current, Arc::clone(&route));
        route.inherit(&old, &self.stats);
        route
    }

    /// Epoch fence: writes hold the barrier shared across routing and
    /// RPCs, so one exclusive acquisition waits out every write still
    /// routing by `old`; what they left owed in it goes to the current
    /// route.
    fn fence(&self, old: &Route) {
        drop(self.barrier.write());
        self.route().inherit(old, &self.stats);
    }

    fn empty_ring() -> MargoError {
        MargoError::Handler("routed keyspace has no members".into())
    }

    // -----------------------------------------------------------------
    // Operations
    // -----------------------------------------------------------------

    /// Stamps and writes `records` under the write barrier.
    ///
    /// Every write holds the barrier shared for its whole duration
    /// (routing included): the rebalance path fences with one exclusive
    /// acquisition after opening the move window, so no write routed
    /// under the steady ring can still be in flight when the copier
    /// starts listing keys.
    fn write<'a>(
        &self,
        records: impl ExactSizeIterator<Item = (&'a [u8], Option<&'a [u8]>)>,
    ) -> Vec<Result<bool, MargoError>> {
        let _shared = self.barrier.read();
        let first = self.next_versions(records.len() as u64);
        let records: Vec<RecordRef<'a>> =
            records.zip(first..).map(|((key, value), version)| (key, version, value)).collect();
        self.quorum_write_multi(&self.route(), &records)
    }

    /// Stores `value` under `key` on its replica set (and, during a move
    /// window, on its future owners — all must be covered before the put
    /// is acked, so the value survives cutover in either direction).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), MargoError> {
        self.put_multi(&[(key, value)]).pop().unwrap_or_else(|| Err(Self::empty_ring()))
    }

    /// Fetches `key` from its serving replicas.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, MargoError> {
        self.get_multi(&[key]).pop().unwrap_or_else(|| Err(Self::empty_ring()))
    }

    /// Whether `key` exists.
    pub fn exists(&self, key: &[u8]) -> Result<bool, MargoError> {
        Ok(self.get(key)?.is_some())
    }

    /// Removes `key`; returns whether it existed on some replica. An
    /// erase is a write of a versioned *tombstone*: it out-versions any
    /// earlier put, survives quorum merges, and cannot be resurrected by
    /// a rebalance copy, a stale replica or an owed copy.
    ///
    /// The tombstone travels as a put-if-newer, which margo re-sends when
    /// a leg's reply is lost; the re-run finds the tombstone the first run
    /// stored, so the slot can read `Ok(false)` for a key that existed.
    /// The key is erased either way (at rf=1, one dropped reply gave
    /// `Ok(false)`, and then `get` gave `None`): only the returned bool
    /// can differ, the caveat `FailoverKv::erase` carries too.
    pub fn erase(&self, key: &[u8]) -> Result<bool, MargoError> {
        self.erase_multi(&[key]).pop().unwrap_or_else(|| Err(Self::empty_ring()))
    }

    /// Stores many pairs, one concurrent batched RPC per destination.
    /// Partial-failure contract: slot `i` is `Ok` only if key `i`'s
    /// write quorum was met (and, during a move, its future owners are
    /// covered); a failed leg fails exactly its own keys' slots.
    pub fn put_multi(&self, pairs: &[(&[u8], &[u8])]) -> Vec<Result<(), MargoError>> {
        self.write(pairs.iter().map(|(key, value)| (*key, Some(*value))))
            .into_iter()
            .map(|slot| slot.map(|_existed| ()))
            .collect()
    }

    /// Fetches many values, one concurrent batched RPC per replica, with
    /// per-key error slots.
    pub fn get_multi(&self, keys: &[&[u8]]) -> Vec<Result<Option<Vec<u8>>, MargoError>> {
        self.quorum_read_multi(&self.route(), keys)
    }

    /// Removes many keys with per-key slots (`Ok(existed)`), batching
    /// per destination. A slot whose leg was re-sent can read `Ok(false)`
    /// for a key that existed (see [`Self::erase`]).
    pub fn erase_multi(&self, keys: &[&[u8]]) -> Vec<Result<bool, MargoError>> {
        self.write(keys.iter().map(|key| (*key, None)))
    }

    // -----------------------------------------------------------------
    // Quorum I/O
    // -----------------------------------------------------------------

    /// Writes versioned records (`None` value = tombstone). Each record
    /// fans to its write set — the serving replicas plus any future
    /// owners mid-move — as one batched put-if-newer RPC per member.
    /// A one-record call whose quorum is not its whole replica set,
    /// outside a move window, asks the record's first `W` replicas and
    /// the others only if that round left it short; the replicas it did
    /// not ask are owed the record ([`Self::owe`]). When replica sets hold
    /// more than one member, a member that fails with a transport-class
    /// error is owed its records the same way.
    ///
    /// Slot `i` is `Ok(existed)` iff:
    /// * `W` **serving** replicas really acked — an owed copy, which no
    ///   read finds, does not count, so any `R` replicas hold every acked
    ///   write — and
    /// * every future owner acked or is owed the record (so a cutover in
    ///   either direction keeps the write).
    fn quorum_write_multi(
        &self,
        route: &Arc<Route>,
        records: &[RecordRef<'_>],
    ) -> Vec<Result<bool, MargoError>> {
        if route.ring.is_empty() {
            return records.iter().map(|_| Err(Self::empty_ring())).collect();
        }
        let rounds = route.leg_rounds(&self.config);
        let serving = route.serving();
        let w = majority(serving);
        let sets = Sets::new(records.len(), route.write_width(), |record, set| {
            route.write_set_into(records[record].0, set);
        });
        let owes = w < serving && route.to_ring.is_none() && records.len() == 1;
        let mut asked = owes.then(|| sets.rotated(0, w, |_| true));
        let mut tallies: Vec<Tally> = records.iter().map(|_| Tally::default()).collect();
        let mut failed: Vec<(usize, Vec<usize>, MargoError)> = Vec::new();
        for first in [true, false] {
            let routes = ByMember::new(route.legs.len(), asked.as_ref().unwrap_or(&sets));
            // Post every member's batch from this thread, then wait for
            // them all (the collect is what posts).
            let mut whole = None;
            let posted: Vec<Result<PostedVput, MargoError>> = routes
                .iter()
                .map(|(member, indices)| {
                    let batch = encoded_once(&mut whole, indices.len() == records.len(), || {
                        VersionedBatch::encode(indices.iter().map(|&i| records[i]))
                    })?;
                    let leg = &route.legs[member];
                    Ok(leg.post_rounds(rounds, batch, DatabaseHandle::post_put_versioned))
                })
                .collect();
            let outcomes =
                posted.into_iter().map(|posted| posted?.wait().map(|reply| reply.existed));
            for ((member, indices), outcome) in routes.iter().zip(outcomes) {
                match outcome {
                    Ok(acks) => {
                        for (&i, was_there) in indices.iter().zip(acks) {
                            tallies[i].existed |= was_there;
                            tallies[i].credit(&sets.of(i)[..serving], member);
                        }
                    }
                    Err(err) if route.replicated() && FailoverKv::should_reroute(&err) => {
                        failed.push((member, indices.to_vec(), err));
                    }
                    // Application-class error, or no other replica.
                    Err(err) => {
                        for &i in indices {
                            tallies[i].error.get_or_insert_with(|| Box::new(err.clone()));
                        }
                    }
                }
            }
            // A second round asks the rest of each record's replicas for
            // the records the first left short.
            let short = |record: usize| (tallies[record].real_serving as usize) < w;
            if !(owes && first && (0..records.len()).any(short)) {
                break;
            }
            asked = Some(sets.rotated(w, serving - w, short));
        }
        // An unreachable member is owed its records. A full outbox leaves
        // a replica to read repair and a future owner uncovered.
        for (member, indices, err) in failed {
            for i in indices {
                let replica = sets.of(i)[..serving].contains(&member);
                if !self.owe(route, member, records[i]) {
                    let failures = &self.stats.repair_failures;
                    failures.fetch_add(u64::from(replica), Ordering::AcqRel);
                    tallies[i].error.get_or_insert_with(|| Box::new(err.clone()));
                } else if replica {
                    self.stats.hinted_writes.fetch_add(1, Ordering::AcqRel);
                } else {
                    tallies[i].covered_future += 1;
                }
            }
        }
        // A record the last round did not ask about met `W` in the first:
        // the replicas after its first `W` are owed it.
        if let Some(last) = asked.filter(|_| owes) {
            for (i, &record) in records.iter().enumerate() {
                let unasked = sets.of(i)[w..serving].iter().filter(|m| !last.of(i).contains(m));
                let refused = unasked.filter(|&&member| !self.owe(route, member, record)).count();
                self.stats.repair_failures.fetch_add(refused as u64, Ordering::AcqRel);
            }
        }
        sets.iter()
            .zip(tallies)
            .map(|(set, tally)| {
                if tally.real_serving as usize >= w
                    && tally.covered_future as usize == named(&set[serving..]).count()
                {
                    return Ok(tally.existed);
                }
                Err(match tally.error {
                    Some(err) => *err,
                    None => MargoError::Handler(format!(
                        "write quorum not met: {} of {serving} replicas acked, need {w}",
                        tally.real_serving
                    )),
                })
            })
            .collect()
    }

    /// Adds `record` to what `member` is owed; `false` if its outbox is
    /// full. An outbox that reaches [`OUTBOX`] records ships, unless the
    /// member's last shipment failed: then only the drainer tick and
    /// [`Self::flush`] retry it, so a member that is down costs one failed
    /// shipment a tick, not one per write. Every serving replica that
    /// answers holds the record within one drain interval.
    fn owe(&self, route: &Arc<Route>, member: usize, (key, version, value): RecordRef<'_>) -> bool {
        let full = {
            let mut outbox = route.outboxes[member].lock();
            if !outbox.push((key.to_vec(), version, value.map(<[u8]>::to_vec))) {
                return false;
            }
            (outbox.records.len() >= OUTBOX && !outbox.failed)
                .then(|| std::mem::replace(&mut outbox.records, Vec::with_capacity(OUTBOX)))
        };
        if let Some(records) = full {
            self.ship(Shipment::post(route, member, records));
        }
        true
    }

    /// Hands a posted shipment to the drainer, which waits for it; with
    /// no drainer, or its queue full, the caller waits.
    fn ship(&self, shipment: Shipment) {
        let unsent = match &self.drainer {
            Some((queue, _)) => match queue.try_send(Settle::Shipment(Box::new(shipment))) {
                Ok(()) => return,
                Err(TrySendError::Full(unsent) | TrySendError::Disconnected(unsent)) => unsent,
            },
            None => return shipment.settle(&self.state, &self.stats),
        };
        unsent.settle(&self.state, &self.stats);
    }

    /// Waits until every shipment handed to the drainer is settled, then
    /// ships every outbox of the current route and waits for those: what
    /// is owed afterwards is owed to a member that did not take it.
    fn flush(&self) {
        if let Some((queue, _)) = &self.drainer {
            let (done, settled) = sync_channel(1);
            if queue.send(Settle::Fence(done)).is_ok() {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "a drainer that exited dropped the fence unanswered, and with it everything it could still deliver"
                )]
                let _ = settled.recv();
            }
        }
        let shipments = self.route().ship_outboxes();
        shipments.into_iter().for_each(|shipment| shipment.settle(&self.state, &self.stats));
    }

    /// Reads each key from `R` of its serving replicas — a window that
    /// starts one replica further on every call, so read repair reaches
    /// them all — and from the others only if the window fell short;
    /// merges freshest-wins (version, then the bytewise tie-break of the
    /// server's put-if-newer) and posts repairs to the stale or missing
    /// replicas it asked without waiting for them. Slot `i` resolves the
    /// merged record: `Ok(None)` for absent keys *and* tombstones.
    fn quorum_read_multi(
        &self,
        route: &Arc<Route>,
        keys: &[&[u8]],
    ) -> Vec<Result<Option<Vec<u8>>, MargoError>> {
        if route.ring.is_empty() {
            return keys.iter().map(|_| Err(Self::empty_ring())).collect();
        }
        let rounds = route.leg_rounds(&self.config);
        let serving = route.serving();
        let sets = Sets::new(keys.len(), serving, |key, set| route.replicas_into(keys[key], set));
        let r_q = majority(serving);
        // Where the window of `R` replicas starts, when that is not all.
        let from = (r_q < serving)
            .then(|| (self.reads.fetch_add(1, Ordering::Relaxed) % serving as u64) as usize);
        let mut asked = from.map(|from| sets.rotated(from, r_q, |_| true));
        // What each replica answered, laid out like `sets`: `None` until
        // (and unless) the replica in that slot answers, then its record.
        let mut answers: Vec<Option<Option<VersionedValue>>> = Vec::new();
        answers.resize_with(keys.len() * serving, || None);
        let mut failed: Vec<(usize, MargoError)> = Vec::new();
        for first in [true, false] {
            let routes = ByMember::new(route.legs.len(), asked.as_ref().unwrap_or(&sets));
            let mut whole = None;
            let posted: Vec<Result<_, MargoError>> = routes
                .iter()
                .map(|(member, indices)| {
                    let batch = encoded_once(&mut whole, indices.len() == keys.len(), || {
                        KeyBatch::encode(indices.iter().map(|&i| keys[i]))
                    })?;
                    let leg = &route.legs[member];
                    Ok(leg.post_rounds(rounds, batch, DatabaseHandle::post_get_versioned))
                })
                .collect();
            for ((member, indices), posted) in routes.iter().zip(posted) {
                match posted.and_then(PostedOp::wait) {
                    Ok(values) => {
                        for (&i, value) in indices.iter().zip(values) {
                            if let Some(slot) = sets.of(i).iter().position(|&m| m == member) {
                                answers[i * serving + slot] = Some(value);
                            }
                        }
                    }
                    Err(err) => failed.push((member, err)),
                }
            }
            // A second round asks the rest of each key the window left short.
            let short =
                |key: usize| answers[key * serving..][..serving].iter().flatten().count() < r_q;
            let Some(from) = from.filter(|_| first && (0..keys.len()).any(short)) else { break };
            asked = Some(sets.rotated(from + r_q, serving - r_q, short));
        }
        // Merge + collect repairs (stale member, record to push).
        let mut repairs: Vec<(usize, Record)> = Vec::new();
        let slots = answers
            .chunks_exact_mut(serving)
            .zip(sets.iter())
            .zip(keys)
            .map(|((replies, set), key)| {
                let answered = replies.iter().flatten().count();
                if answered < r_q {
                    // The error of the last failed member the key was read from.
                    let refused = failed.iter().rev().find(|(member, _)| set.contains(member));
                    return Err(refused.map_or_else(
                        || {
                            MargoError::Handler(format!(
                                "read quorum not met: {answered} of {serving} replicas answered, \
                                 need {r_q}"
                            ))
                        },
                        |(_, err)| err.clone(),
                    ));
                }
                let freshest = (0..serving).max_by(|&a, &b| {
                    let freshness = |slot: usize| replies[slot].iter().flatten().map(Self::freshness).next();
                    freshness(a).cmp(&freshness(b))
                });
                let Some(Some(winner)) = freshest.and_then(|slot| replies[slot].take()) else {
                    return Ok(None); // every replica agrees: no record
                };
                let value = (!winner.tombstone).then_some(&winner.value);
                for (held, &stale) in replies.iter().zip(set) {
                    if held.as_ref().is_some_and(|held| held.as_ref() != Some(&winner)) {
                        repairs.push((stale, (key.to_vec(), winner.version, value.cloned())));
                    }
                }
                Ok((!winner.tombstone).then_some(winner.value))
            })
            .collect();
        self.post_repairs(route, repairs);
        slots
    }

    /// Freshness key mirroring the server's `record_is_newer` tie-break:
    /// version first, then the encoded-record bytewise order (flag byte,
    /// then value bytes).
    fn freshness(record: &VersionedValue) -> (u64, bool, &[u8]) {
        (record.version, record.tombstone, record.value.as_slice())
    }

    /// Ships read-repair records to stale replicas, one batch per member,
    /// the way an outbox ships: the read that found the gap does not
    /// wait. A failed repair leaves the records owed to the member; the
    /// next read of the key repairs again anyway, and put-if-newer makes
    /// duplicates harmless.
    fn post_repairs(&self, route: &Arc<Route>, mut repairs: Vec<(usize, Record)>) {
        repairs.sort_by_key(|(member, _)| *member);
        let mut repairs = repairs.into_iter().peekable();
        while let Some((member, record)) = repairs.next() {
            let mut records = vec![record];
            while let Some((_, record)) = repairs.next_if(|(next, _)| *next == member) {
                records.push(record);
            }
            self.stats.read_repairs.fetch_add(records.len() as u64, Ordering::AcqRel);
            self.ship(Shipment::post(route, member, records));
        }
    }

    // -----------------------------------------------------------------
    // Listing
    // -----------------------------------------------------------------

    /// Lists up to `max` live keys with `prefix` after `start_after`,
    /// sorted. Members store tombstones (and, mid-move or at
    /// `replication_factor > 1`, several copies) as records, so pages of
    /// the merged raw listing are quorum-read until `max` live keys are
    /// found or the listing ends: O(records scanned), not O(`max`).
    pub fn list_keys(
        &self,
        prefix: &[u8],
        start_after: Option<&[u8]>,
        max: usize,
    ) -> Result<Vec<Vec<u8>>, MargoError> {
        let mut live = Vec::new();
        let mut cursor = start_after.map(<[u8]>::to_vec);
        while live.len() < max {
            let raw = self.merged_keys(prefix, cursor.as_deref(), max - live.len())?;
            let Some(last) = raw.last() else { break };
            cursor = Some(last.clone());
            live.extend(self.filter_live(raw)?);
        }
        Ok(live)
    }

    /// Raw merged key listing across members (copies deduped,
    /// tombstones *included*).
    fn merged_keys(
        &self,
        prefix: &[u8],
        start_after: Option<&[u8]>,
        max: usize,
    ) -> Result<Vec<Vec<u8>>, MargoError> {
        let route = self.route();
        let page = || ListKeysArgs {
            prefix: prefix.to_vec(),
            start_after: start_after.map(<[u8]>::to_vec),
            max,
        };
        let rounds = self.config.leg_max_rounds;
        let posted: Vec<_> = route
            .legs
            .iter()
            .map(|leg| leg.post_rounds(rounds, page(), DatabaseHandle::post_list_keys))
            .collect();
        let mut merged: Vec<Vec<u8>> = Vec::new();
        for posted in posted {
            merged.extend(posted.wait()?);
        }
        merged.sort();
        merged.dedup();
        merged.truncate(max);
        Ok(merged)
    }

    /// Drops keys whose quorum-merged record is a tombstone (or gone).
    fn filter_live(&self, keys: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, MargoError> {
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let outcomes = self.quorum_read_multi(&self.route(), &refs);
        let mut live = Vec::with_capacity(keys.len());
        for (key, outcome) in keys.into_iter().zip(outcomes) {
            if outcome?.is_some() {
                live.push(key);
            }
        }
        Ok(live)
    }

    /// Total live keys across the keyspace. Replica copies and
    /// tombstones must be discounted, so this is [`Self::list_keys`] page
    /// after page: an O(n) scan with quorum reads — an admin/debug
    /// operation, not a counter lookup.
    pub fn len(&self) -> Result<u64, MargoError> {
        let mut total = 0u64;
        let mut cursor: Option<Vec<u8>> = None;
        loop {
            let page = self.list_keys(b"", cursor.as_deref(), PAGE)?;
            total += page.len() as u64;
            if page.len() < PAGE {
                return Ok(total);
            }
            cursor = page.last().cloned();
        }
    }

    /// Whether the keyspace holds no keys.
    pub fn is_empty(&self) -> Result<bool, MargoError> {
        Ok(self.len()? == 0)
    }

    // -----------------------------------------------------------------
    // Live rebalance
    // -----------------------------------------------------------------

    /// Adds `member` (an existing Yokan provider) to the ring and copies
    /// the minimal moved set to it while traffic continues.
    ///
    /// Protocol (all while ops keep flowing):
    ///
    /// 1. **Open the move window.** The route now carries both rings:
    ///    every write covers its serving replicas *and* its future
    ///    owners before it acks; reads keep routing to the serving ring.
    ///    One exclusive acquisition of the write barrier fences out the
    ///    writes still routing under the steady ring, so the copier's
    ///    listings cannot miss a write that reaches no future owner.
    /// 2. **Copy** (`copy_moved`). Per source member, page
    ///    through its records, keep the ones whose owner set gains a
    ///    member ([`HashRing::moved_arcs`] minimality: only arcs adjacent
    ///    to the changed member's points move), read them with their
    ///    versions and put them if newer on each new owner. No barrier
    ///    is held: the compare is atomic per key in the backend, so a
    ///    write or an erase that lands during the window out-versions
    ///    the copied snapshot whichever of the two arrives first, and a
    ///    stale copy loses to it.
    /// 3. **Cutover.** Under the exclusive barrier: swap the serving
    ///    ring, close the window. No write is routing while the ring it
    ///    routes by changes.
    /// 4. **Cleanup.** Source copies of moved records are now stale
    ///    (reads no longer route to them) — erase them physically,
    ///    batch-wise.
    pub fn join(&self, member: &str) -> Result<RebalanceReport, MargoError> {
        let to_ring = {
            let route = self.state.read();
            if route.ring.contains(member) {
                return Err(MargoError::Handler(format!(
                    "'{member}' is already a keyspace member"
                )));
            }
            route.ring.with_member(member)
        };
        self.rebalance_to(to_ring)
    }

    /// Removes `member` from the ring, draining everything it owns to
    /// the surviving members (same protocol as [`Self::join`]), then
    /// clears the provider. The provider itself keeps running — retiring
    /// it from the keyspace is independent of stopping its process.
    pub fn retire(&self, member: &str) -> Result<RebalanceReport, MargoError> {
        let to_ring = {
            let route = self.state.read();
            if !route.ring.contains(member) {
                return Err(MargoError::Handler(format!(
                    "'{member}' is not a keyspace member"
                )));
            }
            if route.ring.len() == 1 {
                return Err(MargoError::Handler(
                    "cannot retire the last keyspace member".into(),
                ));
            }
            route.ring.without_member(member)
        };
        self.rebalance_to(to_ring)
    }

    /// Picks the least-loaded service node (Pufferscale placement over
    /// the live provider weights) to host a joining provider.
    fn plan_host(&self, weights: &Weights) -> Option<Address> {
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
        let steady = self.route();
        // Open the move window (joiners get their legs here).
        let window = self.publish(steady.ring.clone(), Some(to_ring.clone()));
        // After the fence all in-flight writes cover the future owners
        // too, and the copier's listings cannot miss a write that reached
        // none of them. What the steady ring's writes owe its replicas
        // ships before the copier reads them.
        self.fence(&steady);
        self.flush();
        let copied = match self.copy_moved(&window, &window.ring, &to_ring, None) {
            Ok(copied) => copied,
            Err(err) => {
                // Close the window; records already copied to the target
                // are harmless (reads route by the serving ring) and a
                // later rebalance's put-if-newer reconciles them.
                self.install(steady);
                self.fence(&window);
                return Err(err);
            }
        };
        // Cutover: swap rings atomically w.r.t. writes.
        {
            let _exclusive = self.barrier.write();
            self.publish(to_ring.clone(), None);
        }
        Ok(RebalanceReport {
            moved_keys: copied.records,
            slices: copied.batches,
            erased_stale: self.cleanup(&window, &to_ring)?,
        })
    }

    /// The keyspace's one bulk copier: brings the members that enter a
    /// key's owner set when the ring changes from `from` to `to` up to
    /// date. Each member `route` serves from pages through what it
    /// stores, keeps the keys it is the designated pusher of
    /// ([`designation`]: one per key, so nobody probes and nothing is
    /// copied twice), reads the page's records once and puts them if
    /// newer on each target — so racing foreground writes and owed copies
    /// all converge. A lost message is an ordinary retry: both
    /// RPCs are declared idempotent, and the legs run their patient
    /// rounds (this is recovery, not a quorum leg).
    fn copy_moved(
        &self,
        route: &Route,
        from: &HashRing,
        to: &HashRing,
        gone: Option<&str>,
    ) -> Result<Copied, MargoError> {
        let rounds = self.config.leg_max_rounds;
        let mut copied = Copied::default();
        for (holder, leg) in route.serving_legs() {
            let mut start_after: Option<Vec<u8>> = None;
            loop {
                let page = leg.list_keys(b"", start_after.as_deref(), PAGE)?;
                let Some(last) = page.last() else { break };
                start_after = Some(last.clone());
                // Keys this member pushes, with the members that entered
                // their owner set. The rest: a stale copy, another
                // replica's push, or an owner set that gains nobody.
                let mut keys: Vec<&[u8]> = Vec::new();
                let mut targets: Vec<Vec<&str>> = Vec::new();
                for key in &page {
                    let pushed = designation(from, to, gone, route.rf, key);
                    if let Some((_, entered)) = pushed.filter(|(pusher, _)| pusher == holder) {
                        keys.push(key);
                        targets.push(entered);
                    }
                }
                if keys.is_empty() {
                    continue;
                }
                let wanted = KeyBatch::encode(keys.iter().copied())?;
                let records = leg.with_handle(|h| h.get_versioned(&wanted))?;
                let mut by_target: Vec<Vec<Record>> = vec![Vec::new(); route.legs.len()];
                for ((key, entered), record) in keys.into_iter().zip(targets).zip(records) {
                    // Physically gone since the listing: nothing to copy.
                    let Some(record) = record else { continue };
                    let bytes = key.len() + record.value.len() + RECORD_OVERHEAD;
                    let value = (!record.tombstone).then_some(record.value);
                    for target in entered.into_iter().filter_map(|m| route.position(m)) {
                        by_target[target].push((key.to_vec(), record.version, value.clone()));
                        copied.records += 1;
                        copied.bytes += bytes as u64;
                    }
                }
                for (target, batch) in by_target.iter().enumerate().filter(|(_, b)| !b.is_empty()) {
                    post_vput(&route.legs[target], batch.iter().map(record_ref), rounds)?.wait()?;
                    copied.batches += 1;
                }
            }
        }
        Ok(copied)
    }

    /// Erases post-cutover stale source copies: records a member of the
    /// old ring still stores but is no longer in the owner set of. A
    /// retired member (absent from the new ring) owns nothing anymore,
    /// so everything it stores goes.
    fn cleanup(&self, window: &Route, to_ring: &HashRing) -> Result<u64, MargoError> {
        let mut erased = 0u64;
        for (member, leg) in window.serving_legs() {
            let mut start_after: Option<Vec<u8>> = None;
            loop {
                let page = leg.list_keys(b"", start_after.as_deref(), PAGE)?;
                let Some(last) = page.last() else { break };
                start_after = Some(last.clone());
                let stale: Vec<&[u8]> = page
                    .iter()
                    .filter(|key| !to_ring.owners(key, window.rf).contains(&member.as_str()))
                    .map(Vec::as_slice)
                    .collect();
                if !stale.is_empty() {
                    erased += leg.with_handle(|h| h.erase_multi(&stale))?;
                }
            }
        }
        Ok(erased)
    }

    // -----------------------------------------------------------------
    // Provider death
    // -----------------------------------------------------------------

    /// Retires a *dead* member from the keyspace with nothing read from
    /// it — the explicit provider-death path. Requires
    /// `replication_factor > 1`: every key the dead member served still
    /// has `rf - 1` live replicas, so quorum reads and writes keep working
    /// throughout; the only follow-up is restoring the `rf`-th copy from
    /// the survivors.
    ///
    /// Protocol:
    ///
    /// 1. Swap the serving ring to `ring ∖ member` immediately. No move
    ///    window opens — there is no serving set to keep reads on while
    ///    a corpse is copied from.
    /// 2. Epoch-fence on the write barrier: every write still fanning
    ///    under the old ring completes first (its share on the dead
    ///    member either landed — unreadable now, but re-replicated from
    ///    a survivor below — or is owed to it). Then every owed copy
    ///    ships: what the dead member was owed goes to each key's current
    ///    write set.
    /// 3. Copy (`copy_moved`, the copier a rebalance runs, with
    ///    the dead member excluded): each affected key's first surviving
    ///    replica puts the record, if newer, on the members that entered
    ///    its owner set.
    ///
    /// For draining a *live* member out of the keyspace, use
    /// [`Self::retire`].
    pub fn fail_member(&self, member: &str) -> Result<CatchUpReport, MargoError> {
        if self.config.rf() < 2 {
            return Err(MargoError::Handler(
                "fail_member requires replication_factor > 1 \
                 (an unreplicated member's data exists nowhere else; \
                 use retire() to drain a live member)"
                    .into(),
            ));
        }
        let _coordinator = self.rebalance_lock.lock();
        let steady = self.route();
        if !steady.ring.contains(member) {
            return Err(MargoError::Handler(format!("'{member}' is not a keyspace member")));
        }
        if steady.ring.len() == 1 {
            return Err(MargoError::Handler("cannot fail the last keyspace member".into()));
        }
        if steady.to_ring.is_some() {
            return Err(MargoError::Handler(
                "cannot fail a member while a rebalance window is open".into(),
            ));
        }
        let handed_over = self.stats.hint_replays.load(Ordering::Acquire);
        let survivors = self.publish(steady.ring.without_member(member), None);
        // Epoch fence (see step 2 above).
        self.fence(&steady);
        self.flush();
        let copied = self.copy_moved(&survivors, &steady.ring, &survivors.ring, Some(member))?;
        Ok(CatchUpReport {
            recopied_keys: copied.records,
            recopied_bytes: copied.bytes,
            replayed_hints: self.stats.hint_replays.load(Ordering::Acquire) - handed_over,
        })
    }
}

/// Who copies `key` when the ring changes from `from` to `to`, and where
/// to: the first of the key's `from`-owners that is not `gone` puts it on
/// the `to`-owners that were not `from`-owners. `None` when the key's
/// owner set gains nobody — which, because [`HashRing::owners`] is a
/// successor list, is every key whose set the joining, retiring or dead
/// member is not part of.
fn designation<'r>(
    from: &'r HashRing,
    to: &'r HashRing,
    gone: Option<&str>,
    rf: usize,
    key: &[u8],
) -> Option<(&'r str, Vec<&'r str>)> {
    let holders = from.owners(key, rf);
    let targets: Vec<&str> =
        to.owners(key, rf).into_iter().filter(|member| !holders.contains(member)).collect();
    let pusher = holders.into_iter().find(|member| Some(*member) != gone)?;
    (!targets.is_empty()).then_some((pusher, targets))
}

impl Drop for RoutedKv {
    fn drop(&mut self) {
        self.flush();
        if let Some((queue, drainer)) = self.drainer.take() {
            drop(queue);
            if drainer.join().is_err() {
                self.stats.drain_errors.fetch_add(1, Ordering::AcqRel);
            }
        }
    }
}

/// Spawns the background drainer: every `interval` it ships every outbox
/// of the current route. Between ticks it settles the shipments posted
/// to its queue; it exits when the queue's sender is dropped.
fn spawn_drainer(
    state: &Arc<OrderedRwLock<Arc<Route>>>,
    stats: &Arc<ReplicationStats>,
    interval: Duration,
) -> Option<(SyncSender<Settle>, std::thread::JoinHandle<()>)> {
    let (shipments, queue) = sync_channel::<Settle>(SETTLE_QUEUE);
    let (state, thread_stats) = (Arc::clone(state), Arc::clone(stats));
    let spawned = std::thread::Builder::new().name("routed-drainer".into()).spawn(move || {
        let stats = thread_stats;
        let mut next_tick = Instant::now() + interval;
        loop {
            match queue.recv_timeout(next_tick.saturating_duration_since(Instant::now())) {
                Ok(posted) => posted.settle(&state, &stats),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            // Checked after a shipment too: a steady stream of them must
            // not starve the tick.
            if Instant::now() >= next_tick {
                let shipments = Arc::clone(&state.read()).ship_outboxes();
                shipments.into_iter().for_each(|shipment| shipment.settle(&state, &stats));
                next_tick = Instant::now() + interval;
            }
        }
    });
    match spawned {
        Ok(drainer) => Some((shipments, drainer)),
        // No thread — outboxes still ship when full, in drain_hints_now
        // and fail_member, and callers wait for their own shipments;
        // record the degradation.
        Err(_) => {
            stats.drain_errors.fetch_add(1, Ordering::AcqRel);
            None
        }
    }
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
    if let Some(ms) = value["hint_drain_interval_ms"].as_u64() {
        config.hint_drain_interval = Duration::from_millis(ms.max(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Routing reads member names only: no legs, no service.
    fn route(members: &[&str], to: Option<&[&str]>, rf: usize) -> Route {
        Route::new(HashRing::new(members), to.map(HashRing::new), rf, |_| Vec::new())
    }

    /// A key's write set: its serving replicas, and its future owners.
    fn write_set(route: &Route, key: &[u8]) -> (Vec<usize>, Vec<usize>) {
        let mut set = vec![NOBODY; route.write_width()];
        route.write_set_into(key, &mut set);
        let (serving, future) = set.split_at(route.serving());
        (serving.to_vec(), named(future).collect())
    }

    #[test]
    fn config_defaults_are_sane() {
        let config = RoutedConfig::default();
        // Replication defaults: one copy.
        assert_eq!(config.replication_factor, 1);
        assert!(config.hint_drain_interval > Duration::ZERO);
        assert!(LEG_REROUTE_BACKOFF < Duration::from_millis(50));
    }

    #[test]
    fn quorums_are_majorities_that_always_intersect() {
        assert_eq!(majority(3), 2);
        // A member loss shrank the set: still a majority of what serves.
        assert_eq!(majority(2), 2);
        // Degenerate single-replica set always quorums at 1.
        assert_eq!(majority(1), 1);
        for replicas in 1..=9 {
            let quorum = majority(replicas);
            assert!((1..=replicas).contains(&quorum));
            assert!(quorum + quorum > replicas, "R + W > N at {replicas}");
        }
    }

    #[test]
    fn write_set_unions_serving_and_future_owners() {
        for rf in [1, 2] {
            let steady = route(&["db0", "db1", "db2"], None, rf);
            let moving = route(&["db0", "db1", "db2"], Some(&["db0", "db1", "db2", "db3"]), rf);
            let joiner = moving.position("db3").expect("the joiner is a member");
            let mut saw_future = false;
            for i in 0..500 {
                let key = format!("key-{i}").into_bytes();
                let (serving, future) = write_set(&steady, &key);
                let owners = steady.ring.owner_indices(&key, rf);
                assert!(serving.iter().copied().eq(owners.iter().map(|&m| steady.ring_at[m])));
                assert!(future.is_empty(), "no window, no future owners");
                let (serving, future) = write_set(&moving, &key);
                assert_eq!(serving.len(), rf);
                assert!(!serving.contains(&NOBODY));
                for member in future {
                    assert_eq!(member, joiner, "adds move keys only toward the joiner");
                    assert!(!serving.contains(&member), "future owners are disjoint");
                    saw_future = true;
                }
            }
            assert!(saw_future, "rf {rf}: some key must gain db3 as a future owner");
        }
    }

    /// One pusher rule serves a join, a retire and a fail: every key
    /// whose owner set gains a member has exactly one pusher, a
    /// `from`-owner other than `gone`, pushing to exactly the members
    /// that entered; a key whose set did not change has none.
    #[test]
    fn every_moved_key_has_one_pusher_and_unmoved_keys_have_none() {
        let four = HashRing::new(&["db0", "db1", "db2", "db3"]);
        let join = (four.without_member("db3"), four.clone(), None, [1, 3]);
        let retire = (four.clone(), four.without_member("db1"), None, [1, 3]);
        // `fail_member` refuses a replica set of one: nobody else holds it.
        let fail = (four.clone(), four.without_member("db1"), Some("db1"), [2, 3]);
        for (from, to, gone, factors) in [join, retire, fail] {
            for rf in factors {
                let mut moved = 0;
                for i in 0..2500 {
                    let key = format!("key-{i:05}").into_bytes();
                    let (old, new) = (from.owners(&key, rf), to.owners(&key, rf));
                    let entered: Vec<&str> =
                        new.iter().filter(|m| !old.contains(m)).copied().collect();
                    let designated = designation(&from, &to, gone, rf, &key);
                    if entered.is_empty() {
                        assert_eq!(designated, None, "rf {rf}: unchanged owner set");
                        continue;
                    }
                    moved += 1;
                    let (pusher, targets) = designated.expect("a moved key has a pusher");
                    // `copy_moved` asks every serving member: one says yes.
                    let serving = from.members().iter().filter(|m| Some(m.as_str()) != gone);
                    assert_eq!(serving.filter(|holder| *holder == pusher).count(), 1);
                    assert!(old.contains(&pusher), "the pusher holds the record");
                    assert_eq!(targets, entered);
                }
                assert!((1..2500).contains(&moved), "rf {rf}: some keys move, not all");
            }
        }
    }

    #[test]
    fn leg_patience_follows_the_replica_set_size() {
        let config = RoutedConfig::default();
        let one = route(&["db0", "db1", "db2"], None, 1);
        assert!(!one.replicated());
        assert_eq!(one.leg_rounds(&config), config.leg_max_rounds);
        let three = route(&["db0", "db1", "db2"], None, 3);
        assert!(three.replicated());
        assert_eq!(three.leg_rounds(&config), FAIL_FAST_ROUNDS);
        // A ring smaller than the factor clamps the set.
        let lonely = route(&["db0"], None, 3);
        assert!(!lonely.replicated());
        assert_eq!(lonely.leg_rounds(&config), config.leg_max_rounds);
    }

    /// What a route is owed moves by member name to the route that
    /// replaces it, with the mark of a failed shipment; what a member on
    /// neither ring of the new route is owed goes to each key's write set
    /// there.
    #[test]
    fn owed_copies_follow_the_current_route() {
        let stats = ReplicationStats::default();
        let record = |key: &str| (key.as_bytes().to_vec(), 7, Some(b"v".to_vec()));
        let old = route(&["db0", "db1", "db2"], None, 2);
        old.take_owed("db1", vec![record("a")], true, &stats);
        old.take_owed("db2", vec![record("b"), record("c")], false, &stats);
        // db2 failed and db3 joined.
        let new = route(&["db0", "db1", "db3"], None, 2);
        new.inherit(&old, &stats);
        assert!(old.outboxes.iter().all(|outbox| outbox.lock().records.is_empty()));
        let owed = |member: usize| -> Vec<Vec<u8>> {
            new.outboxes[member].lock().records.iter().map(|(key, ..)| key.clone()).collect()
        };
        let db1 = new.position("db1").expect("db1 stays");
        assert!(owed(db1).contains(&b"a".to_vec()));
        assert!(new.outboxes[db1].lock().failed, "a failed member stays marked");
        for key in ["b", "c"] {
            let (serving, _) = write_set(&new, key.as_bytes());
            assert!(serving.iter().all(|&member| owed(member).contains(&key.as_bytes().to_vec())));
        }
        let total: usize = (0..new.members.len()).map(|member| owed(member).len()).sum();
        assert_eq!(total, 1 + 2 * 2);
        assert_eq!(stats.hint_replays.load(Ordering::Acquire), 2);
        assert_eq!(stats.repair_failures.load(Ordering::Acquire), 0);
    }

    #[test]
    fn a_full_outbox_refuses_and_counts_a_failed_repair() {
        let stats = ReplicationStats::default();
        let one = route(&["db0"], None, 1);
        let records = (0..=OUTBOX_CAP).map(|i| (i.to_be_bytes().to_vec(), 1, None)).collect();
        one.take_owed("db0", records, false, &stats);
        assert_eq!(one.outboxes[0].lock().records.len(), OUTBOX_CAP);
        assert_eq!(stats.repair_failures.load(Ordering::Acquire), 1);
    }

    #[test]
    fn batches_group_indices_by_member() {
        let sets = Sets { width: 2, members: vec![2, 0, 2, NOBODY, 0, NOBODY] };
        let grouped = ByMember::new(3, &sets);
        let groups: Vec<(usize, &[usize])> = grouped.iter().collect();
        assert_eq!(groups, vec![(0, &[0, 2][..]), (2, &[0, 1][..])]);
        // Nothing to group: no member is named.
        let nobody = Sets { width: 1, members: vec![NOBODY; 2] };
        assert_eq!(ByMember::new(3, &nobody).iter().count(), 0);
    }

    #[test]
    fn a_request_for_every_item_is_encoded_once() {
        let mut encodes = 0;
        let mut whole = None;
        for _ in 0..3 {
            let batch = encoded_once(&mut whole, true, || {
                encodes += 1;
                Ok(vec![7u8])
            });
            assert_eq!(batch.unwrap(), vec![7u8]);
        }
        assert_eq!(encodes, 1);
        // A member that is sent some of the items gets a request of its own.
        assert_eq!(encoded_once(&mut whole, false, || Ok(vec![8u8])).unwrap(), vec![8u8]);
        assert_eq!(whole, Some(vec![7u8]));
        let mut never: Option<Vec<u8>> = None;
        assert!(encoded_once(&mut never, true, || Err(MargoError::Codec("no".into()))).is_err());
        assert!(never.is_none());
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
            &serde_json::json!({ "replication_factor": 3, "hint_drain_interval_ms": 250 }),
        );
        assert_eq!(config.replication_factor, 3);
        assert_eq!(config.hint_drain_interval, Duration::from_millis(250));
        // Non-object (absent) config is a no-op.
        let before = config;
        apply_keyspace_config(&mut config, &serde_json::Value::Null);
        assert_eq!(config.replication_factor, before.replication_factor);
    }
}
