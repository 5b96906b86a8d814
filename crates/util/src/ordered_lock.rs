//! Rank-ordered lock wrappers: the workspace's one lock-order mechanism.
//!
//! Every lock in product code that is ever held while another is taken
//! is assigned a rank from [`rank`]. A thread may only acquire a lock
//! whose rank is *strictly greater* than every lock it already holds;
//! acquiring downward (or sideways, which would alias two instances of the
//! same class) panics immediately in debug builds with both lock names.
//! This turns a would-be deadlock — which in a distributed test run shows
//! up as a silent hang minutes later — into a deterministic panic at the
//! exact acquisition site, on the first run that exercises the inverted
//! path.
//!
//! In release builds the wrappers compile down to plain `parking_lot`
//! locks: the held-lock bookkeeping is behind `cfg!(debug_assertions)`
//! and the optimizer removes it entirely.
//!
//! A lock a condition variable waits on is ranked like any other:
//! [`OrderedMutexGuard::wait`] and [`OrderedMutexGuard::wait_for`] sleep
//! on a `parking_lot::Condvar` through the wrapped guard. A lock nothing
//! is ever taken under may stay a plain `parking_lot` lock, with a
//! one-line `// leaf: …` reason at its declaration (DESIGN.md §9.2 lists
//! them).

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

use parking_lot::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

/// The workspace lock hierarchy. Lower ranks are acquired first; a
/// thread holding rank `r` may only acquire ranks `> r`. The bands follow
/// the layers, outermost first: the service layer (mochi-core, bedrock,
/// ssg, the replicated clients) below 100, raft, margo, argobots, the
/// yokan backends, and mercury last — nothing above the fabric is ever
/// taken under one of its locks.
pub mod rank {
    /// `core::RoutedKv::rebalance_lock` — one membership change at a
    /// time; held across a whole rebalance (barrier, route swaps, copies).
    pub const ROUTED_REBALANCE: u32 = 10;
    /// `core::RoutedKv::barrier` — the write barrier; held shared across a
    /// write's routing and RPCs, exclusive to fence a route swap.
    pub const ROUTED_BARRIER: u32 = 20;
    /// `core::RoutedKv::state` — the published route.
    pub const ROUTED_STATE: u32 = 30;
    /// `core::routed::Route::outboxes` — what each member is owed; one
    /// rank for every member's outbox, never two held at once.
    pub const ROUTED_OUTBOX: u32 = 35;
    /// `core::DynamicService::members` — the member records; held while
    /// reading a member's SSG view or Bedrock configuration.
    pub const SERVICE_MEMBERS: u32 = 40;
    /// `bedrock` server: loaded modules by provider type.
    pub const BEDROCK_LOADED: u32 = 50;
    /// `bedrock` server: running providers by name; held across a
    /// provider's checkpoint, restore and configuration calls.
    pub const BEDROCK_PROVIDERS: u32 = 55;
    /// `bedrock` server: prepared two-phase-commit transactions.
    pub const BEDROCK_TXNS: u32 = 60;
    /// `ssg` group: the SWIM state.
    pub const SSG_STATE: u32 = 65;
    /// `ssg` group: the probe-target RNG, drawn under the state.
    pub const SSG_RNG: u32 = 70;
    /// `remi` provider: open transfer sessions.
    pub const REMI_TRANSFERS: u32 = 75;
    /// `remi` provider: summaries of finished sessions, read under the
    /// open ones to replay a retried `end`/`pull`.
    pub const REMI_COMPLETED: u32 = 78;
    /// `raft::NodeInner::core` — consensus state; outermost raft lock.
    pub const RAFT_CORE: u32 = 100;
    /// `raft::NodeInner::replicators` — set of peers with live replicator ULTs.
    pub const RAFT_REPLICATORS: u32 = 110;
    /// `raft::NodeInner::threads` — joinable background thread handles.
    pub const RAFT_THREADS: u32 = 120;
    /// `raft::NodeInner::rng` — election-timeout RNG; a leaf, never held
    /// across another raft acquisition.
    pub const RAFT_RNG: u32 = 130;
    /// `margo::Inner::handlers` — RPC id → registration table.
    pub const MARGO_HANDLERS: u32 = 210;
    /// `margo::Inner::monitor` — installed monitoring backend.
    pub const MARGO_MONITOR: u32 = 220;
    /// `margo::Inner::sampler` — the sampler's stop sender and join handle.
    pub const MARGO_SAMPLER: u32 = 230;
    /// `margo::monitoring` statistics stripes (`Striped<State>`); a leaf —
    /// stripes share this rank and are never held together (see
    /// `mochi_util::striped`).
    pub const MARGO_STATS: u32 = 240;
    /// `margo::retry` jitter RNG — held only to draw one backoff sample.
    pub const MARGO_RETRY_RNG: u32 = 250;
    /// `margo::breaker` registry — per-(address, provider) breaker states;
    /// held only for state-machine transitions, never across the network.
    pub const MARGO_BREAKERS: u32 = 260;
    /// `argobots::AbtRuntime::inner` — xstream/pool registry.
    pub const ABT_RUNTIME: u32 = 300;
    /// `argobots::Pool::queue` — the ready queue itself.
    pub const POOL_QUEUE: u32 = 310;
    /// `argobots::Pool::stats` — pool counter stripes; a leaf.
    pub const POOL_STATS: u32 = 320;
    /// `argobots::Pool::servers` — parkers of the xstreams serving the
    /// pool; read on every push, after `queue` is released. Only a
    /// parker is taken under it.
    pub const POOL_SERVERS: u32 = 330;
    /// `argobots::Parker` — where one execution stream sleeps (condition
    /// variable); taken under `POOL_SERVERS` to wake it.
    pub const ABT_PARKER: u32 = 340;
    /// `argobots::Notifier` — a broadcast signal's generation (condition
    /// variable), such as raft's replication signal; a leaf.
    pub const ABT_NOTIFIER: u32 = 350;
    /// `yokan` memory-backend shard `i` uses rank `YOKAN_SHARD_BASE + i`.
    /// Multi-shard operations acquire shards in ascending stripe index,
    /// which is ascending rank, so whole-table scans are deadlock-free
    /// against each other and against single-shard writers.
    pub const YOKAN_SHARD_BASE: u32 = 400;
    /// Maximum shard count of the yokan memory backend; ranks
    /// `YOKAN_SHARD_BASE .. YOKAN_SHARD_BASE + YOKAN_SHARD_MAX` are
    /// reserved for its stripes.
    pub const YOKAN_SHARD_MAX: u32 = 64;
    /// `yokan::lsm` stripe-`i` writer lock (`LSM_WRITER_BASE + i`) — that
    /// stripe's value log, seals and merges; outermost of the per-stripe
    /// trio. Single-key mutations hold exactly one writer lock; batched
    /// mutations visit stripes one at a time, never holding two writer
    /// locks at once.
    pub const LSM_WRITER_BASE: u32 = 500;
    /// `yokan::lsm` stripe-`i` active (mutable) memtable
    /// (`LSM_ACTIVE_BASE + i`). Whole-table reads acquire every stripe's
    /// active lock in ascending stripe index — ascending rank — before
    /// touching any snapshot slot.
    pub const LSM_ACTIVE_BASE: u32 = 520;
    /// `yokan::lsm` stripe-`i` published snapshot slot (`Arc<Snapshot>`
    /// swap, `LSM_SNAPSHOT_BASE + i`); held only long enough to clone or
    /// replace the `Arc`. Every snapshot rank is above every active rank,
    /// so "all actives, then all snapshots" is a legal acquisition order.
    pub const LSM_SNAPSHOT_BASE: u32 = 540;
    /// Maximum stripe count of the yokan LSM backend; each of the three
    /// bases above reserves `LSM_STRIPE_MAX` consecutive ranks.
    pub const LSM_STRIPE_MAX: u32 = 16;
    /// `yokan::lsm` slot of a failed unlink after a good merge; a leaf,
    /// taken last (at most a stripe's writer lock is held).
    pub const LSM_BG_ERROR: u32 = 560;
    /// `mercury` fabric: the delayed-delivery queue (condition variable)
    /// of the delivery thread; released before anything is delivered.
    pub const MERCURY_SCHEDULER: u32 = 600;
    /// `mercury` fabric: the endpoint registry; delivery takes a slot's
    /// `pending` map or mailbox under it.
    pub const MERCURY_ENDPOINTS: u32 = 610;
    /// `mercury` endpoint: outstanding requests by xid.
    pub const MERCURY_PENDING: u32 = 620;
    /// `mercury` endpoint: queued requests and one-ways (condition
    /// variable), pushed under the registry.
    pub const MERCURY_MAILBOX: u32 = 630;
    /// `mercury` endpoint: one outstanding request's response slot
    /// (condition variable).
    pub const MERCURY_COMPLETION: u32 = 640;
    /// `mercury` bulk registry: exposed regions; a region's buffer is
    /// locked under it (buffers are leaves).
    pub const MERCURY_BULK_REGIONS: u32 = 650;
}

thread_local! {
    /// Stack of (rank, name) for every ordered lock this thread holds.
    static HELD: RefCell<Vec<(u32, &'static str)>> = const { RefCell::new(Vec::new()) };
}

/// Ranks currently held by this thread, outermost first. Exposed for
/// tests and debugging assertions.
pub fn held_ranks() -> Vec<u32> {
    if cfg!(debug_assertions) {
        HELD.with(|h| h.borrow().iter().map(|&(r, _)| r).collect())
    } else {
        Vec::new()
    }
}

#[inline]
#[expect(
    clippy::panic,
    reason = "the rank check is a debug-build assertion: panicking at the acquisition site is the check (DESIGN.md §9.2)"
)]
fn check_acquire(acquiring_rank: u32, acquiring_name: &'static str) {
    if cfg!(debug_assertions) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(held_rank, held_name)) =
                held.iter().find(|&&(r, _)| r >= acquiring_rank)
            {
                panic!(
                    "lock-order violation: acquiring '{acquiring_name}' (rank \
                     {acquiring_rank}) while holding '{held_name}' (rank {held_rank}); \
                     locks must be acquired in strictly increasing rank order — \
                     see the hierarchy in mochi_util::ordered_lock::rank and DESIGN.md"
                );
            }
            held.push((acquiring_rank, acquiring_name));
        });
    }
}

#[inline]
fn note_release(rank: u32, name: &'static str) {
    if cfg!(debug_assertions) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&(r, n)| r == rank && n == name) {
                held.remove(pos);
            }
        });
    }
}

/// A `parking_lot::Mutex` that enforces the workspace lock hierarchy in
/// debug builds.
pub struct OrderedMutex<T> {
    name: &'static str,
    rank: u32,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    pub const fn new(rank: u32, name: &'static str, value: T) -> Self {
        Self { name, rank, inner: Mutex::new(value) }
    }

    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        check_acquire(self.rank, self.name);
        OrderedMutexGuard { guard: self.inner.lock(), rank: self.rank, name: self.name }
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }

    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("name", &self.name)
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

pub struct OrderedMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    rank: u32,
    name: &'static str,
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> OrderedMutexGuard<'_, T> {
    /// Sleeps on `cv`, releasing the mutex until woken (`Condvar::wait`).
    /// The rank stays held: a sleeping thread acquires nothing, and it
    /// holds the lock again when this returns.
    pub fn wait(&mut self, cv: &Condvar) {
        cv.wait(&mut self.guard);
    }

    /// [`Self::wait`] for at most `timeout` (`Condvar::wait_for`).
    pub fn wait_for(&mut self, cv: &Condvar, timeout: Duration) -> WaitTimeoutResult {
        cv.wait_for(&mut self.guard, timeout)
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        note_release(self.rank, self.name);
    }
}

/// A `parking_lot::RwLock` that enforces the workspace lock hierarchy in
/// debug builds. Both read and write acquisitions participate in the
/// order check: a same-thread re-read of an already-held lock is treated
/// as a violation too, because `parking_lot`'s writer-preferring fairness
/// can deadlock a recursive reader against a queued writer.
pub struct OrderedRwLock<T> {
    name: &'static str,
    rank: u32,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    pub const fn new(rank: u32, name: &'static str, value: T) -> Self {
        Self { name, rank, inner: RwLock::new(value) }
    }

    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        check_acquire(self.rank, self.name);
        OrderedReadGuard { guard: self.inner.read(), rank: self.rank, name: self.name }
    }

    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        check_acquire(self.rank, self.name);
        OrderedWriteGuard { guard: self.inner.write(), rank: self.rank, name: self.name }
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }

    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("name", &self.name)
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

pub struct OrderedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    rank: u32,
    name: &'static str,
}

impl<T> Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> Drop for OrderedReadGuard<'_, T> {
    fn drop(&mut self) {
        note_release(self.rank, self.name);
    }
}

pub struct OrderedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    rank: u32,
    name: &'static str,
}

impl<T> Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for OrderedWriteGuard<'_, T> {
    fn drop(&mut self) {
        note_release(self.rank, self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increasing_rank_order_is_allowed() {
        let a = OrderedMutex::new(rank::RAFT_CORE, "core", 1u32);
        let b = OrderedMutex::new(rank::MARGO_HANDLERS, "handlers", 2u32);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
        if cfg!(debug_assertions) {
            assert_eq!(held_ranks(), vec![rank::RAFT_CORE, rank::MARGO_HANDLERS]);
        }
        drop(gb);
        drop(ga);
        assert!(held_ranks().is_empty());
    }

    #[test]
    fn release_out_of_acquisition_order_is_tracked() {
        let a = OrderedMutex::new(100, "a", ());
        let b = OrderedMutex::new(200, "b", ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // release the outer lock first
        drop(gb);
        assert!(held_ranks().is_empty());
        // After an unordered release, acquisition still works.
        let _ = a.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn rank_inversion_panics_with_both_names() {
        let outer = OrderedMutex::new(rank::POOL_STATS, "pool.stats", ());
        let inner = OrderedMutex::new(rank::RAFT_CORE, "raft.core", ());
        let g = outer.lock();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = inner.lock();
        }))
        .expect_err("inverted acquisition must panic");
        drop(g);
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("raft.core"), "{msg}");
        assert!(msg.contains("pool.stats"), "{msg}");
        assert!(held_ranks().is_empty(), "failed acquisition must not leak a held entry");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn same_rank_reacquisition_panics() {
        let a = OrderedMutex::new(rank::POOL_QUEUE, "queue-a", ());
        let b = OrderedMutex::new(rank::POOL_QUEUE, "queue-b", ());
        let g = a.lock();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = b.lock();
        }))
        .is_err());
        drop(g);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn rwlock_participates_in_ordering() {
        let table = OrderedRwLock::new(rank::MARGO_HANDLERS, "handlers", 0u32);
        let leaf = OrderedMutex::new(rank::MARGO_MONITOR, "monitor", ());
        {
            let r = table.read();
            let _m = leaf.lock(); // upward: fine
            assert_eq!(*r, 0);
        }
        let g = leaf.lock();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = table.write(); // downward: violation
        }))
        .is_err());
        drop(g);
        *table.write() += 1;
        assert_eq!(*table.read(), 1);
    }

    /// Every rank constant, read back from this file's `rank` module, so
    /// a rank added there is checked without touching this test.
    fn rank_table() -> Vec<(&'static str, u32)> {
        let src = include_str!("ordered_lock.rs");
        let start = src.find("pub mod rank {").expect("rank module");
        let body = &src[start..start + src[start..].find("\n}\n").expect("module end")];
        body.lines()
            .filter_map(|line| line.trim().strip_prefix("pub const "))
            .map(|decl| {
                let (name, value) = decl.split_once(": u32 = ").expect("u32 constant");
                let value = value.trim_end_matches(';').parse().expect("numeric rank");
                (name, value)
            })
            .filter(|(name, _)| !name.ends_with("_MAX"))
            .collect()
    }

    #[test]
    fn rank_table_is_distinct_and_reserved_ranges_hold_nothing_else() {
        let table = rank_table();
        assert!(table.len() > 30, "parsed only {} ranks", table.len());
        let mut seen = std::collections::HashMap::new();
        for &(name, value) in &table {
            if let Some(other) = seen.insert(value, name) {
                panic!("{name} and {other} share rank {value}");
            }
        }
        use rank::{LSM_STRIPE_MAX as LSM, YOKAN_SHARD_MAX as SHARDS};
        let reserved = [
            ("YOKAN_SHARD_BASE", rank::YOKAN_SHARD_BASE, SHARDS),
            ("LSM_WRITER_BASE", rank::LSM_WRITER_BASE, LSM),
            ("LSM_ACTIVE_BASE", rank::LSM_ACTIVE_BASE, LSM),
            ("LSM_SNAPSHOT_BASE", rank::LSM_SNAPSHOT_BASE, LSM),
        ];
        for (base_name, base, len) in reserved {
            for &(name, value) in &table {
                assert!(
                    name == base_name || !(base..base + len).contains(&value),
                    "{name} (rank {value}) lies in {base_name}'s reserved {base}..{}",
                    base + len
                );
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn condvar_wait_keeps_the_rank_and_releases_the_lock() {
        use std::time::Instant;
        let slot = std::sync::Arc::new((OrderedMutex::new(600, "slot", false), Condvar::new()));
        let mut ready = slot.0.lock();
        let waker = std::sync::Arc::clone(&slot);
        // The waker can set the flag only while this thread sleeps in the
        // wait, which must therefore release the mutex.
        let t = std::thread::spawn(move || {
            *waker.0.lock() = true;
            waker.1.notify_one();
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !*ready {
            assert!(Instant::now() < deadline, "the waker never got the mutex");
            ready.wait_for(&slot.1, Duration::from_millis(100));
            assert_eq!(held_ranks(), vec![600]);
        }
        drop(ready);
        t.join().unwrap();
        assert!(held_ranks().is_empty());
    }

    #[test]
    fn threads_have_independent_held_sets() {
        let a = std::sync::Arc::new(OrderedMutex::new(200, "shared", 0u64));
        let g = a.lock();
        let a2 = a.clone();
        let t = std::thread::spawn(move || {
            // Would panic if the held set leaked across threads (same rank).
            // This blocks until the main thread releases, which is fine.
            *a2.lock() += 1;
        });
        drop(g);
        t.join().unwrap();
        assert_eq!(*a.lock(), 1);
    }
}
