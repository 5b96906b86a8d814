//! Rank-ordered lock wrappers: the runtime companion to `mochi-lint`'s
//! static lock-order analysis.
//!
//! Every lock class in the workspace that participates in nesting is
//! assigned a rank from [`rank`]. A thread may only acquire a lock whose
//! rank is *strictly greater* than every lock it already holds; acquiring
//! downward (or sideways, which would alias two instances of the same
//! class) panics immediately in debug builds with both lock names. This
//! turns a would-be deadlock — which in a distributed test run shows up
//! as a silent hang minutes later — into a deterministic panic at the
//! exact acquisition site, on the first run that exercises the inverted
//! path.
//!
//! In release builds the wrappers compile down to plain `parking_lot`
//! locks: the held-lock bookkeeping is behind `cfg!(debug_assertions)`
//! and the optimizer removes it entirely.
//!
//! Locks that a condition variable must wait on (e.g. the argobots pool
//! `Notifier`) cannot use these wrappers, because `Condvar::wait` needs
//! the raw `parking_lot` guard; such locks must be leaves of the
//! hierarchy and are documented as rank `∞` in DESIGN.md.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The workspace lock hierarchy. Lower ranks are acquired first; a
/// thread holding rank `r` may only acquire ranks `> r`. Gaps of 10
/// leave room to interpose new locks without renumbering.
pub mod rank {
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
    /// `margo::Inner::threads` — the sampler's join handle.
    pub const MARGO_THREADS: u32 = 230;
    /// `margo::monitoring` statistics stripes (`Striped<State>`); a leaf —
    /// stripes share this rank and are never held together (see
    /// `mochi_util::striped`).
    pub const MARGO_STATS: u32 = 240;
    /// `margo::retry` jitter RNG — held only to draw one backoff sample.
    pub const MARGO_RETRY_RNG: u32 = 250;
    /// `margo::breaker` registry — per-(address, provider) breaker states;
    /// held only for state-machine transitions, never across the network.
    pub const MARGO_BREAKERS: u32 = 260;
    /// `margo` idempotency registry — rpc ids declared safe to retry.
    pub const MARGO_IDEMPOTENT: u32 = 270;
    /// `argobots::AbtRuntime::inner` — xstream/pool registry.
    pub const ABT_RUNTIME: u32 = 300;
    /// `argobots::Pool::queue` — the ready queue itself.
    pub const POOL_QUEUE: u32 = 310;
    /// `argobots::Pool::stats` — pool counter stripes; a leaf.
    pub const POOL_STATS: u32 = 320;
    /// `argobots::Pool::servers` — parkers of the xstreams serving the
    /// pool; read on every push, after `queue` is released. Only a
    /// parker's own (unranked, leaf) mutex is taken under it.
    pub const POOL_SERVERS: u32 = 330;
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
    /// stripe's WAL file, sealed-segment list, and flush/compaction
    /// scheduling; outermost of the per-stripe trio. Single-key mutations
    /// hold exactly one writer lock; batched mutations visit stripes one
    /// at a time, never holding two writer locks at once.
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
    /// `yokan::lsm` deferred background-maintenance error slot; a leaf,
    /// taken last (at most a stripe's writer lock is held).
    pub const LSM_BG_ERROR: u32 = 560;
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
