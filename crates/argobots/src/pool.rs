//! Pools: named ULT queues shared between providers and xstreams.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};

use mochi_util::ordered_lock::{rank, OrderedMutex, OrderedRwLock};
use mochi_util::{StreamStats, Striped};

use crate::config::{PoolConfig, PoolKind};
use crate::ult::Ult;

/// A generation-counted broadcast signal: every waiter wakes on each
/// notification. Execution streams do not sleep on one (a push wakes a
/// single stream, see `Parker`); raft's commit signal does.
///
/// The generation mutex stays a plain `parking_lot::Mutex` rather than an
/// `OrderedMutex`: `Condvar::wait_for` needs the raw guard, and the lock
/// is a strict leaf (nothing is ever acquired while it is held).
#[derive(Default)]
pub struct Notifier {
    mutex: Mutex<u64>,
    cv: Condvar,
}

impl Notifier {
    /// Creates a notifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        let mut generation = self.mutex.lock();
        *generation += 1;
        self.cv.notify_all();
    }

    /// Current notification generation. Read it *before* checking for
    /// work, then pass it to [`Notifier::wait_if_unchanged`]: if a
    /// notification slipped in between, the wait returns immediately,
    /// closing the lost-wakeup window.
    pub fn generation(&self) -> u64 {
        *self.mutex.lock()
    }

    /// Sleeps until the next notification or `timeout`, unless the
    /// generation already moved past `seen`.
    pub fn wait_if_unchanged(&self, seen: u64, timeout: Duration) {
        let mut generation = self.mutex.lock();
        if *generation == seen {
            self.cv.wait_for(&mut generation, timeout);
        }
    }
}

/// Where one execution stream sleeps while the pools it serves are empty.
/// Every pool in its scheduler holds a reference, so that a push can wake
/// exactly this stream. The mutex is a plain `parking_lot` one for the
/// condition variable's sake and a strict leaf: `park`'s `still_idle`
/// check reads atomics only.
#[derive(Default)]
pub(crate) struct Parker {
    parked: Mutex<bool>,
    cv: Condvar,
    wakeups: AtomicU64,
}

impl Parker {
    /// Sleeps until [`Parker::unpark`] or `timeout`, unless `still_idle`
    /// (evaluated under the park mutex) says work arrived since the
    /// caller last looked.
    pub(crate) fn park(&self, timeout: Duration, still_idle: impl FnOnce() -> bool) {
        let mut parked = self.parked.lock();
        if !still_idle() {
            return;
        }
        *parked = true;
        self.cv.wait_for(&mut parked, timeout);
        if *parked {
            // Timed out (or woke spuriously): nobody claimed this stream.
            *parked = false;
        } else {
            self.wakeups.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Wakes the stream if it is parked; a busy stream is left alone (it
    /// rescans its pools before it parks). Returns whether it was parked.
    pub(crate) fn unpark(&self) -> bool {
        let was_parked = std::mem::replace(&mut *self.parked.lock(), false);
        if was_parked {
            // Outside the mutex, so the woken thread does not run into it.
            self.cv.notify_one();
        }
        was_parked
    }

    /// Times `unpark` cut a sleep short.
    pub(crate) fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }
}

struct PrioUlt {
    ult: Ult,
    seq: u64,
}

impl PartialEq for PrioUlt {
    fn eq(&self, other: &Self) -> bool {
        self.ult.priority == other.ult.priority && self.seq == other.seq
    }
}
impl Eq for PrioUlt {}
impl PartialOrd for PrioUlt {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PrioUlt {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, FIFO (lower seq) among equals.
        self.ult
            .priority
            .cmp(&other.ult.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

enum Queue {
    Fifo(VecDeque<Ult>),
    Prio(BinaryHeap<PrioUlt>),
}

impl Queue {
    fn len(&self) -> usize {
        match self {
            Queue::Fifo(q) => q.len(),
            Queue::Prio(q) => q.len(),
        }
    }
}

/// Per-stripe timing accumulators; push/pop totals live in atomics on
/// the [`Pool`] itself.
#[derive(Default)]
struct StatsInner {
    /// Time ULTs spent queued, in seconds.
    wait: StreamStats,
    /// Time ULTs spent executing, in seconds (reported by xstreams).
    exec: StreamStats,
}

/// Stripe count for the timing accumulators: one per plausible xstream,
/// so concurrent pops on different execution streams never share a lock.
const STAT_STRIPES: usize = 8;

/// Point-in-time statistics snapshot of one pool; part of the monitoring
/// output (§4: "the sizes of user-level thread pools").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoolStats {
    /// Pool name.
    pub name: String,
    /// Current queue depth.
    pub size: usize,
    /// ULTs ever pushed.
    pub total_pushed: u64,
    /// ULTs ever popped.
    pub total_popped: u64,
    /// Queue-wait time statistics (seconds).
    pub wait: StreamStats,
    /// Execution time statistics (seconds).
    pub exec: StreamStats,
}

/// A named ULT queue.
pub struct Pool {
    config: PoolConfig,
    queue: OrderedMutex<Queue>,
    /// Doubles as the pool's push generation: a scheduler reads it before
    /// scanning and again, under its park mutex, before sleeping.
    total_pushed: AtomicU64,
    total_popped: AtomicU64,
    stats: Striped<StatsInner>,
    seq: AtomicU64,
    /// Parkers of the `basic_wait` xstreams whose scheduler lists this
    /// pool. Held only to walk the list; the one lock taken under it is a
    /// parker's leaf mutex.
    servers: OrderedRwLock<Vec<Arc<Parker>>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("name", &self.config.name)
            .field("kind", &self.config.kind)
            .field("size", &self.len())
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// Creates a pool from its configuration. Nothing serves it until an
    /// execution stream lists it.
    pub fn new(config: PoolConfig) -> Self {
        let queue = match config.kind {
            PoolKind::Fifo | PoolKind::FifoWait => Queue::Fifo(VecDeque::new()),
            PoolKind::PrioWait => Queue::Prio(BinaryHeap::new()),
        };
        Self {
            config,
            queue: OrderedMutex::new(rank::POOL_QUEUE, "pool.queue", queue),
            total_pushed: AtomicU64::new(0),
            total_popped: AtomicU64::new(0),
            stats: Striped::new(rank::POOL_STATS, "pool.stats", STAT_STRIPES),
            seq: AtomicU64::new(0),
            servers: OrderedRwLock::new(rank::POOL_SERVERS, "pool.servers", Vec::new()),
        }
    }

    /// A pool outside any runtime (tests, simple uses).
    pub fn standalone(config: PoolConfig) -> Self {
        Self::new(config)
    }

    /// Pool name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// Pool kind.
    pub fn kind(&self) -> PoolKind {
        self.config.kind
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Enqueues a ULT and wakes one parked xstream that serves this pool,
    /// if there is one.
    pub fn push(&self, ult: Ult) {
        {
            let mut queue = self.queue.lock();
            match &mut *queue {
                Queue::Fifo(q) => q.push_back(ult),
                Queue::Prio(q) => {
                    let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                    q.push(PrioUlt { ult, seq });
                }
            }
        }
        // After the enqueue and before looking for a parked server: a
        // scheduler that misses the ULT in its scan sees the count move
        // (SeqCst here, in `pushes` and through the park mutex).
        self.total_pushed.fetch_add(1, Ordering::SeqCst);
        self.wake_one();
    }

    /// Wakes the first parked server. With none parked every server is
    /// running or scanning, and rescans before it parks.
    pub(crate) fn wake_one(&self) {
        for server in self.servers.read().iter() {
            if server.unpark() {
                return;
            }
        }
    }

    /// Push generation (see [`Parker::park`]'s `still_idle`).
    pub(crate) fn pushes(&self) -> u64 {
        self.total_pushed.load(Ordering::SeqCst)
    }

    /// Lists an xstream that serves this pool, for `push` to wake.
    pub(crate) fn add_server(&self, parker: Arc<Parker>) {
        self.servers.write().push(parker);
    }

    /// Forgets a stopped xstream. A wake-up aimed at it may have been
    /// swallowed by its exit, so it is passed on.
    pub(crate) fn remove_server(&self, parker: &Arc<Parker>) {
        self.servers.write().retain(|p| !Arc::ptr_eq(p, parker));
        self.wake_one();
    }

    /// Dequeues the next ULT, if any, recording its queue-wait time.
    pub fn try_pop(&self) -> Option<Ult> {
        self.pop_at().map(|(ult, _)| ult)
    }

    /// [`Pool::try_pop`], with the instant the ULT left the queue: where
    /// its wait ends its execution starts, on one reading of the clock.
    pub(crate) fn pop_at(&self) -> Option<(Ult, Instant)> {
        let ult = {
            let mut queue = self.queue.lock();
            match &mut *queue {
                Queue::Fifo(q) => q.pop_front(),
                Queue::Prio(q) => q.pop().map(|p| p.ult),
            }
        }?;
        self.total_popped.fetch_add(1, Ordering::Relaxed);
        let popped_at = Instant::now();
        let waited = popped_at.saturating_duration_since(ult.submitted_at).as_secs_f64();
        self.stats.with(|stats| stats.wait.push(waited));
        Some((ult, popped_at))
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reports the execution duration of a ULT popped from this pool
    /// (called by xstreams after running it).
    pub fn record_execution(&self, seconds: f64) {
        self.stats.with(|stats| stats.exec.push(seconds));
    }

    /// Snapshot of the pool's statistics. `queue` (rank below the stat
    /// stripes) is read before the stripes are folded, one stripe at a
    /// time, keeping the acquisition order consistent with `try_pop`.
    pub fn stats(&self) -> PoolStats {
        let size = self.len();
        let (wait, exec) = self.stats.fold(
            (StreamStats::new(), StreamStats::new()),
            |(mut wait, mut exec), stripe| {
                wait.merge(&stripe.wait);
                exec.merge(&stripe.exec);
                (wait, exec)
            },
        );
        PoolStats {
            name: self.config.name.clone(),
            size,
            total_pushed: self.total_pushed.load(Ordering::Relaxed),
            total_popped: self.total_popped.load(Ordering::Relaxed),
            wait,
            exec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn fifo() -> Pool {
        Pool::standalone(PoolConfig::named("p"))
    }

    #[test]
    fn fifo_order_preserved() {
        let pool = fifo();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..5 {
            let log = Arc::clone(&log);
            pool.push(Ult::new(format!("u{i}"), move || log.lock().push(i)));
        }
        while let Some(ult) = pool.try_pop() {
            ult.run();
        }
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn prio_pool_runs_high_priority_first() {
        let config = PoolConfig {
            name: "prio".into(),
            kind: PoolKind::PrioWait,
            access: Default::default(),
        };
        let pool = Pool::standalone(config);
        let log = Arc::new(Mutex::new(Vec::new()));
        for (i, prio) in [(0, 1), (1, 5), (2, 5), (3, -1)] {
            let log = Arc::clone(&log);
            pool.push(Ult::with_priority(format!("u{i}"), prio, move || log.lock().push(i)));
        }
        while let Some(ult) = pool.try_pop() {
            ult.run();
        }
        // priority 5 (FIFO between equals), then 1, then -1.
        assert_eq!(*log.lock(), vec![1, 2, 0, 3]);
    }

    #[test]
    fn stats_track_push_pop_and_wait() {
        let pool = fifo();
        pool.push(Ult::new("u", || {}));
        std::thread::sleep(Duration::from_millis(5));
        let ult = pool.try_pop().unwrap();
        ult.run();
        pool.record_execution(0.5);
        let stats = pool.stats();
        assert_eq!(stats.total_pushed, 1);
        assert_eq!(stats.total_popped, 1);
        assert_eq!(stats.size, 0);
        assert!(stats.wait.avg() >= 0.004, "wait avg = {}", stats.wait.avg());
        assert_eq!(stats.exec.num(), 1);
    }

    #[test]
    fn pop_on_empty_returns_none() {
        assert!(fifo().try_pop().is_none());
    }

    #[test]
    fn stats_merge_across_threads() {
        let pool = Arc::new(fifo());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    pool.push(Ult::new(format!("u{i}"), || {}));
                    // 4 pushes total, so each thread eventually gets one.
                    let ult = loop {
                        match pool.try_pop() {
                            Some(ult) => break ult,
                            None => std::thread::yield_now(),
                        }
                    };
                    ult.run();
                    pool.record_execution(0.25);
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.total_pushed, 4);
        assert_eq!(stats.total_popped, 4);
        assert_eq!(stats.size, 0);
        assert_eq!(stats.wait.num(), 4);
        assert_eq!(stats.exec.num(), 4);
        assert!((stats.exec.avg() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn notifier_wakes_all_waiters() {
        let notifier = Arc::new(Notifier::new());
        let woke = Arc::new(AtomicUsize::new(0));
        let generation = notifier.generation();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let notifier = Arc::clone(&notifier);
                let woke = Arc::clone(&woke);
                std::thread::spawn(move || {
                    notifier.wait_if_unchanged(generation, Duration::from_secs(5));
                    woke.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        notifier.notify_all();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(woke.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn push_unparks_at_most_one_parked_server() {
        let pool = fifo();
        let parkers: Vec<Arc<Parker>> = (0..3).map(|_| Arc::new(Parker::default())).collect();
        for parker in &parkers {
            pool.add_server(Arc::clone(parker));
        }
        // Nobody parked: a push wakes nobody and is not remembered.
        pool.push(Ult::new("u", || {}));
        assert!(parkers.iter().all(|p| !p.unpark()));

        let sleepers: Vec<_> = parkers[..2]
            .iter()
            .map(|parker| {
                let parker = Arc::clone(parker);
                std::thread::spawn(move || parker.park(Duration::from_secs(5), || true))
            })
            .collect();
        assert!(mochi_util::time::wait_until(
            Duration::from_secs(5),
            Duration::from_millis(1),
            || parkers[..2].iter().all(|p| *p.parked.lock())
        ));
        // Three pushes, two parked servers: two wake-ups, one each.
        for _ in 0..3 {
            pool.push(Ult::new("u", || {}));
        }
        for sleeper in sleepers {
            sleeper.join().unwrap();
        }
        let wakeups: Vec<u64> = parkers.iter().map(|p| p.wakeups()).collect();
        assert_eq!(wakeups, vec![1, 1, 0]);
    }

    #[test]
    fn park_refuses_to_sleep_when_work_arrived() {
        let parker = Parker::default();
        let t0 = std::time::Instant::now();
        parker.park(Duration::from_secs(5), || false);
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(parker.wakeups(), 0);
    }
}
