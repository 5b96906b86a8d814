//! The dynamic pool/xstream registry.
//!
//! [`AbtRuntime`] owns the topology the paper's Figure 2 depicts and §5
//! makes dynamic: pools and execution streams can be added and removed at
//! run time, with validity enforced ("Margo ensures that the changes are
//! always valid, such as not allowing adding multiple pools with the same
//! name or removing a pool that is in use by an ES").

use std::collections::HashMap;
use std::sync::Arc;

use mochi_util::ordered_lock::{rank, OrderedMutex};

use crate::config::{AbtConfig, PoolConfig, XstreamConfig};
use crate::error::AbtError;
use crate::pool::{Pool, PoolStats};
use crate::ult::Ult;
use crate::xstream::{ExecutionStream, XstreamStats};

struct Inner {
    pools: HashMap<String, Arc<Pool>>,
    xstreams: HashMap<String, ExecutionStream>,
    /// Insertion order for reproducible config dumps.
    pool_order: Vec<String>,
    xstream_order: Vec<String>,
    shutdown: bool,
}

/// The runtime: a registry of pools and execution streams with dynamic,
/// validity-checked reconfiguration. Cheap to clone.
#[derive(Clone)]
pub struct AbtRuntime {
    inner: Arc<OrderedMutex<Inner>>,
}

impl Default for AbtRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl AbtRuntime {
    /// Creates an empty runtime (no pools, no xstreams).
    pub fn new() -> Self {
        Self {
            inner: Arc::new(OrderedMutex::new(
                rank::ABT_RUNTIME,
                "abt.runtime",
                Inner {
                    pools: HashMap::new(),
                    xstreams: HashMap::new(),
                    pool_order: Vec::new(),
                    xstream_order: Vec::new(),
                    shutdown: false,
                },
            )),
        }
    }

    /// Creates a runtime from a configuration document (Listing 2 shape).
    pub fn from_config(config: &AbtConfig) -> Result<Self, AbtError> {
        config.validate()?;
        let runtime = Self::new();
        for pool in &config.pools {
            runtime.add_pool(pool.clone())?;
        }
        for xstream in &config.xstreams {
            runtime.add_xstream(xstream.clone())?;
        }
        Ok(runtime)
    }

    fn check_open(inner: &Inner) -> Result<(), AbtError> {
        if inner.shutdown {
            Err(AbtError::Shutdown)
        } else {
            Ok(())
        }
    }

    /// Adds a pool. Fails if the name is taken.
    pub fn add_pool(&self, config: PoolConfig) -> Result<Arc<Pool>, AbtError> {
        let mut inner = self.inner.lock();
        Self::check_open(&inner)?;
        if inner.pools.contains_key(&config.name) {
            return Err(AbtError::PoolExists(config.name));
        }
        let name = config.name.clone();
        let pool = Arc::new(Pool::new(config));
        inner.pools.insert(name.clone(), Arc::clone(&pool));
        inner.pool_order.push(name);
        Ok(pool)
    }

    /// Removes a pool. Fails if any xstream's scheduler references it or
    /// if it still holds pending ULTs (removing it would strand them).
    pub fn remove_pool(&self, name: &str) -> Result<(), AbtError> {
        let mut inner = self.inner.lock();
        Self::check_open(&inner)?;
        if !inner.pools.contains_key(name) {
            return Err(AbtError::PoolNotFound(name.to_string()));
        }
        let users: Vec<String> = inner
            .xstreams
            .values()
            .filter(|es| es.pool_names().iter().any(|p| p == name))
            .map(|es| es.name().to_string())
            .collect();
        if !users.is_empty() {
            return Err(AbtError::PoolInUse { pool: name.to_string(), xstreams: users });
        }
        let pending = inner.pools[name].len();
        if pending > 0 {
            return Err(AbtError::PoolNotEmpty { pool: name.to_string(), pending });
        }
        inner.pools.remove(name);
        inner.pool_order.retain(|n| n != name);
        Ok(())
    }

    /// Adds and starts an execution stream. All pools referenced by its
    /// scheduler must already exist.
    pub fn add_xstream(&self, config: XstreamConfig) -> Result<(), AbtError> {
        let mut inner = self.inner.lock();
        Self::check_open(&inner)?;
        if inner.xstreams.contains_key(&config.name) {
            return Err(AbtError::XstreamExists(config.name));
        }
        if config.scheduler.pools.is_empty() {
            return Err(AbtError::EmptyScheduler(config.name));
        }
        let mut pools = Vec::with_capacity(config.scheduler.pools.len());
        for pool_name in &config.scheduler.pools {
            let pool = inner
                .pools
                .get(pool_name)
                .ok_or_else(|| AbtError::PoolNotFound(pool_name.clone()))?;
            pools.push(Arc::clone(pool));
        }
        let name = config.name.clone();
        let es = ExecutionStream::spawn(config, pools);
        inner.xstreams.insert(name.clone(), es);
        inner.xstream_order.push(name);
        Ok(())
    }

    /// Stops and removes an execution stream. Blocks until its thread
    /// joins; pending ULTs stay in their pools.
    pub fn remove_xstream(&self, name: &str) -> Result<(), AbtError> {
        let mut es = {
            let mut inner = self.inner.lock();
            Self::check_open(&inner)?;
            let es = inner
                .xstreams
                .remove(name)
                .ok_or_else(|| AbtError::XstreamNotFound(name.to_string()))?;
            inner.xstream_order.retain(|n| n != name);
            es
        };
        // Join outside the lock: the ES may be running a ULT that itself
        // touches the runtime.
        es.stop();
        Ok(())
    }

    /// Looks up a pool by name (the paper's `margo_find_pool_by_name`).
    pub fn find_pool(&self, name: &str) -> Option<Arc<Pool>> {
        self.inner.lock().pools.get(name).cloned()
    }

    /// Submits a ULT to a named pool.
    pub fn submit(&self, pool: &str, ult: Ult) -> Result<(), AbtError> {
        let pool = self.find_pool(pool).ok_or_else(|| AbtError::PoolNotFound(pool.to_string()))?;
        pool.push(ult);
        Ok(())
    }

    /// Names of all pools, in creation order.
    pub fn pool_names(&self) -> Vec<String> {
        self.inner.lock().pool_order.clone()
    }

    /// Names of all xstreams, in creation order.
    pub fn xstream_names(&self) -> Vec<String> {
        self.inner.lock().xstream_order.clone()
    }

    /// Names of xstreams whose schedulers reference `pool`.
    pub fn xstreams_using_pool(&self, pool: &str) -> Vec<String> {
        let inner = self.inner.lock();
        inner
            .xstream_order
            .iter()
            .filter(|name| {
                inner.xstreams[name.as_str()].pool_names().iter().any(|p| p == pool)
            })
            .cloned()
            .collect()
    }

    /// Snapshot of the current topology as a configuration document —
    /// what Bedrock serves when asked for a process's configuration.
    pub fn config(&self) -> AbtConfig {
        let inner = self.inner.lock();
        AbtConfig {
            pools: inner.pool_order.iter().map(|n| inner.pools[n].config().clone()).collect(),
            xstreams: inner
                .xstream_order
                .iter()
                .map(|n| inner.xstreams[n].config().clone())
                .collect(),
        }
    }

    /// Statistics snapshot of every pool.
    pub fn pool_stats(&self) -> Vec<PoolStats> {
        let inner = self.inner.lock();
        inner.pool_order.iter().map(|n| inner.pools[n].stats()).collect()
    }

    /// Statistics snapshot of every xstream.
    pub fn xstream_stats(&self) -> Vec<XstreamStats> {
        let inner = self.inner.lock();
        inner.xstream_order.iter().map(|n| inner.xstreams[n].stats()).collect()
    }

    /// Stops all execution streams and rejects further topology changes.
    /// Pools (and any pending ULTs) are dropped.
    pub fn shutdown(&self) {
        let mut streams = {
            let mut inner = self.inner.lock();
            if inner.shutdown {
                return;
            }
            inner.shutdown = true;
            inner.xstream_order.clear();
            inner.pool_order.clear();
            inner.pools.clear();
            std::mem::take(&mut inner.xstreams)
        };
        for es in streams.values_mut() {
            es.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PoolKind, SchedulerConfig, SchedulerKind};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn basic_runtime() -> AbtRuntime {
        AbtRuntime::from_config(&AbtConfig::primary_only()).unwrap()
    }

    #[test]
    fn from_config_builds_topology() {
        let rt = basic_runtime();
        assert_eq!(rt.pool_names(), vec!["__primary__"]);
        assert_eq!(rt.xstream_names(), vec!["__primary__"]);
        assert!(rt.find_pool("__primary__").is_some());
    }

    #[test]
    fn submit_executes_work() {
        let rt = basic_runtime();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            rt.submit("__primary__", Ult::new("w", move || {
                c.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        assert!(mochi_util::time::wait_until(
            Duration::from_secs(5),
            Duration::from_millis(1),
            || counter.load(Ordering::SeqCst) == 50
        ));
        rt.shutdown();
    }

    #[test]
    fn duplicate_pool_rejected() {
        let rt = basic_runtime();
        let err = rt.add_pool(PoolConfig::named("__primary__")).unwrap_err();
        assert_eq!(err, AbtError::PoolExists("__primary__".into()));
    }

    #[test]
    fn cannot_remove_pool_in_use() {
        let rt = basic_runtime();
        let err = rt.remove_pool("__primary__").unwrap_err();
        assert!(matches!(err, AbtError::PoolInUse { .. }));
    }

    #[test]
    fn cannot_remove_nonempty_pool() {
        let rt = basic_runtime();
        rt.add_pool(PoolConfig::named("idle")).unwrap();
        rt.submit("idle", Ult::new("stuck", || {})).unwrap(); // no ES serves it
        let err = rt.remove_pool("idle").unwrap_err();
        assert!(matches!(err, AbtError::PoolNotEmpty { pending: 1, .. }));
    }

    #[test]
    fn online_add_then_remove_pool_and_xstream() {
        let rt = basic_runtime();
        rt.add_pool(PoolConfig::named("extra")).unwrap();
        rt.add_xstream(XstreamConfig::named("extra-es", "extra")).unwrap();
        // Work flows through the new pair.
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        rt.submit("extra", Ult::new("w", move || {
            c.fetch_add(1, Ordering::SeqCst);
        }))
        .unwrap();
        assert!(mochi_util::time::wait_until(
            Duration::from_secs(5),
            Duration::from_millis(1),
            || counter.load(Ordering::SeqCst) == 1
        ));
        // Tear down in the valid order: ES first, then pool.
        assert!(rt.remove_pool("extra").is_err());
        rt.remove_xstream("extra-es").unwrap();
        rt.remove_pool("extra").unwrap();
        assert_eq!(rt.pool_names(), vec!["__primary__"]);
    }

    #[test]
    fn xstream_referencing_missing_pool_rejected() {
        let rt = basic_runtime();
        let err = rt.add_xstream(XstreamConfig::named("es", "ghost")).unwrap_err();
        assert_eq!(err, AbtError::PoolNotFound("ghost".into()));
    }

    #[test]
    fn config_snapshot_round_trips() {
        let rt = basic_runtime();
        rt.add_pool(PoolConfig {
            name: "prio".into(),
            kind: PoolKind::PrioWait,
            access: Default::default(),
        })
        .unwrap();
        rt.add_xstream(XstreamConfig {
            name: "es2".into(),
            scheduler: SchedulerConfig {
                kind: SchedulerKind::BasicWait,
                pools: vec!["prio".into(), "__primary__".into()],
            },
        })
        .unwrap();
        let snapshot = rt.config();
        snapshot.validate().unwrap();
        let rt2 = AbtRuntime::from_config(&snapshot).unwrap();
        assert_eq!(rt2.config(), snapshot);
        rt.shutdown();
        rt2.shutdown();
    }

    #[test]
    fn xstreams_using_pool_reports_users() {
        let rt = basic_runtime();
        assert_eq!(rt.xstreams_using_pool("__primary__"), vec!["__primary__"]);
        assert!(rt.xstreams_using_pool("ghost").is_empty());
    }

    #[test]
    fn shutdown_blocks_further_changes() {
        let rt = basic_runtime();
        rt.shutdown();
        assert_eq!(rt.add_pool(PoolConfig::named("x")).unwrap_err(), AbtError::Shutdown);
        assert!(rt.find_pool("__primary__").is_none());
        // Idempotent.
        rt.shutdown();
    }

    /// Submits `count` ULTs to `pool` one at a time, each waited for.
    fn round_trips(rt: &AbtRuntime, pool: &str, count: usize) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for _ in 0..count {
            let done = done_tx.clone();
            rt.submit(pool, Ult::new("rt", move || done.send(()).unwrap())).unwrap();
            done_rx.recv_timeout(Duration::from_secs(5)).expect("ULT ran");
        }
    }

    fn idle_wakeups(rt: &AbtRuntime, prefix: &str) -> u64 {
        rt.xstream_stats()
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.idle_wakeups)
            .sum()
    }

    #[test]
    fn push_leaves_other_pools_xstreams_asleep() {
        let rt = AbtRuntime::new();
        rt.add_pool(PoolConfig::named("a")).unwrap();
        rt.add_pool(PoolConfig::named("b")).unwrap();
        rt.add_xstream(XstreamConfig::named("a-es", "a")).unwrap();
        for i in 0..4 {
            rt.add_xstream(XstreamConfig::named(format!("b-es{i}"), "b")).unwrap();
        }
        round_trips(&rt, "a", 1000);
        assert_eq!(idle_wakeups(&rt, "b-es"), 0);
        assert!(idle_wakeups(&rt, "a-es") <= 1000);
        // The sleepers are still reachable, one per push.
        round_trips(&rt, "b", 10);
        assert!(idle_wakeups(&rt, "b-es") <= 10);
        rt.shutdown();
    }

    #[test]
    fn no_wakeup_is_lost_under_concurrent_submitters() {
        use crate::xstream::IDLE_WAIT;
        const PRODUCERS: usize = 4;
        const ROUND_TRIPS: usize = 2000;
        let rt = AbtRuntime::new();
        rt.add_pool(PoolConfig::named("work")).unwrap();
        rt.add_xstream(XstreamConfig::named("es0", "work")).unwrap();
        rt.add_xstream(XstreamConfig::named("es1", "work")).unwrap();
        let started = std::time::Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..PRODUCERS {
                scope.spawn(|| round_trips(&rt, "work", ROUND_TRIPS));
            }
        });
        // A lost wake-up is found only when the sleep runs out, so it costs
        // a whole IDLE_WAIT; a tenth of that per round trip leaves two
        // orders of magnitude for a slow host.
        let budget = IDLE_WAIT * ROUND_TRIPS as u32 / 10;
        assert!(started.elapsed() < budget, "{:?} for {ROUND_TRIPS} round trips", started.elapsed());
        rt.shutdown();
    }

    #[test]
    fn push_reaches_the_remaining_xstream_after_a_parked_one_is_removed() {
        use crate::xstream::IDLE_WAIT;
        let rt = AbtRuntime::new();
        rt.add_pool(PoolConfig::named("work")).unwrap();
        // `gone` is listed first, so pushes would prefer it.
        rt.add_xstream(XstreamConfig::named("gone", "work")).unwrap();
        rt.add_xstream(XstreamConfig::named("stays", "work")).unwrap();
        round_trips(&rt, "work", 10);
        rt.remove_xstream("gone").unwrap();
        let started = std::time::Instant::now();
        round_trips(&rt, "work", 100);
        // Found by time-out instead of by wake-up, each would take IDLE_WAIT.
        assert!(started.elapsed() < IDLE_WAIT * 100 / 5, "{:?}", started.elapsed());
        let stays = &rt.xstream_stats()[0];
        assert_eq!(stays.name, "stays");
        assert!(stays.ults_executed >= 100);
        rt.shutdown();
    }

    #[test]
    fn remapping_providers_pool_to_new_xstream_drains_backlog() {
        // Scenario from §5: remove the ES serving a pool, pending work
        // stays queued, a replacement ES drains it.
        let rt = basic_runtime();
        rt.add_pool(PoolConfig::named("work")).unwrap();
        rt.add_xstream(XstreamConfig::named("es-a", "work")).unwrap();
        // Occupy es-a, then queue a backlog.
        let gate = Arc::new(parking_lot::Mutex::new(()));
        let guard = gate.lock();
        let g = Arc::clone(&gate);
        rt.submit("work", Ult::new("block", move || {
            drop(g.lock());
        }))
        .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            rt.submit("work", Ult::new("queued", move || {
                c.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        drop(guard);
        rt.remove_xstream("es-a").unwrap();
        let drained_before = counter.load(Ordering::SeqCst);
        rt.add_xstream(XstreamConfig::named("es-b", "work")).unwrap();
        assert!(mochi_util::time::wait_until(
            Duration::from_secs(5),
            Duration::from_millis(1),
            || counter.load(Ordering::SeqCst) == 10
        ));
        assert!(drained_before <= 10);
        rt.shutdown();
    }
}
