//! Execution streams: OS threads running a scheduler over pools.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::config::{SchedulerKind, XstreamConfig};
use crate::pool::{Parker, Pool};

/// How long a `basic_wait` scheduler sleeps per idle round. A push to one
/// of its pools or its own `stop` cuts the sleep short, so this only
/// bounds what a wake-up that went to a stream on its way out can cost.
pub(crate) const IDLE_WAIT: Duration = Duration::from_millis(50);

/// Point-in-time statistics of one execution stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct XstreamStats {
    /// Xstream name.
    pub name: String,
    /// ULTs executed so far.
    pub ults_executed: u64,
    /// Cumulative busy time in seconds.
    pub busy_seconds: f64,
    /// Times a push to one of its pools (or its own stop) woke the stream
    /// from its idle sleep; sleeps that ran out are not counted.
    #[serde(default)]
    pub idle_wakeups: u64,
}

struct Shared {
    stop: AtomicBool,
    ults_executed: AtomicU64,
    /// Busy nanoseconds, accumulated.
    busy_nanos: AtomicU64,
}

/// A running execution stream. Dropping the handle without calling
/// [`ExecutionStream::stop`] detaches the thread; the runtime always stops
/// streams explicitly.
pub struct ExecutionStream {
    config: XstreamConfig,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
    pools: Vec<Arc<Pool>>,
    parker: Arc<Parker>,
}

impl ExecutionStream {
    /// Spawns an ES executing ULTs from `pools` (ordered: earlier pools
    /// win). `pools` must match `config.scheduler.pools`; the runtime
    /// guarantees this.
    pub fn spawn(config: XstreamConfig, pools: Vec<Arc<Pool>>) -> Self {
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            ults_executed: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
        });
        let parker = Arc::new(Parker::default());
        let kind = config.scheduler.kind;
        if kind == SchedulerKind::BasicWait {
            // A `basic` scheduler spins and never parks.
            for pool in &pools {
                pool.add_server(Arc::clone(&parker));
            }
        }
        let thread = {
            let (pools, shared, parker) = (pools.clone(), Arc::clone(&shared), Arc::clone(&parker));
            #[expect(
                clippy::expect_used,
                reason = "thread spawn failure is unrecoverable resource exhaustion"
            )]
            std::thread::Builder::new()
                .name(format!("abt-es-{}", config.name))
                .spawn(move || scheduler_loop(kind, &pools, &shared, &parker))
                .expect("spawn execution stream")
        };
        Self { config, shared, thread: Some(thread), pools, parker }
    }

    /// Xstream name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The xstream's configuration.
    pub fn config(&self) -> &XstreamConfig {
        &self.config
    }

    /// Names of the pools this ES serves, in scheduler order.
    pub fn pool_names(&self) -> &[String] {
        &self.config.scheduler.pools
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> XstreamStats {
        XstreamStats {
            name: self.config.name.clone(),
            ults_executed: self.shared.ults_executed.load(Ordering::Relaxed),
            busy_seconds: self.shared.busy_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            idle_wakeups: self.parker.wakeups(),
        }
    }

    /// Signals the scheduler to exit after the current ULT and joins the
    /// thread. Pending ULTs stay in their pools (another ES — possibly a
    /// replacement — can drain them; this is what makes remapping
    /// providers to new ESs lossless).
    pub fn stop(&mut self) {
        let Some(thread) = self.thread.take() else { return };
        self.shared.stop.store(true, Ordering::SeqCst);
        self.parker.unpark();
        let _ = thread.join();
        for pool in &self.pools {
            pool.remove_server(&self.parker);
        }
    }
}

impl Drop for ExecutionStream {
    fn drop(&mut self) {
        self.stop();
    }
}

fn scheduler_loop(kind: SchedulerKind, pools: &[Arc<Pool>], shared: &Shared, parker: &Parker) {
    let stopped = || shared.stop.load(Ordering::SeqCst);
    // Strictly increasing with every push to any of the pools.
    let pushes = || pools.iter().fold(0u64, |sum, pool| sum.wrapping_add(pool.pushes()));
    while !stopped() {
        // Read the push count before scanning, so a push (or a stop)
        // racing with the scan makes `park` return without sleeping.
        let seen = pushes();
        let mut ran = false;
        for pool in pools {
            if let Some((ult, start)) = pool.pop_at() {
                ult.run();
                let elapsed = start.elapsed();
                pool.record_execution(elapsed.as_secs_f64());
                shared.ults_executed.fetch_add(1, Ordering::Relaxed);
                shared.busy_nanos.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
                ran = true;
                break; // restart from the highest-priority pool
            }
        }
        if !ran {
            match kind {
                SchedulerKind::Basic => std::thread::yield_now(),
                SchedulerKind::BasicWait => {
                    parker.park(IDLE_WAIT, || !stopped() && pushes() == seen);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PoolConfig, SchedulerConfig};
    use crate::ult::Ult;
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicUsize;

    fn setup(kind: SchedulerKind, pool_names: &[&str]) -> (Vec<Arc<Pool>>, ExecutionStream) {
        let pools: Vec<Arc<Pool>> =
            pool_names.iter().map(|n| Arc::new(Pool::new(PoolConfig::named(*n)))).collect();
        let config = XstreamConfig {
            name: "es0".into(),
            scheduler: SchedulerConfig {
                kind,
                pools: pool_names.iter().map(|s| s.to_string()).collect(),
            },
        };
        let es = ExecutionStream::spawn(config, pools.clone());
        (pools, es)
    }

    #[test]
    fn executes_submitted_ults() {
        let (pools, mut es) = setup(SchedulerKind::BasicWait, &["p"]);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pools[0].push(Ult::new("inc", move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        assert!(mochi_util::time::wait_until(
            Duration::from_secs(5),
            Duration::from_millis(1),
            || counter.load(Ordering::SeqCst) == 100
        ));
        es.stop();
        assert_eq!(es.stats().ults_executed, 100);
        assert!(es.stats().busy_seconds >= 0.0);
    }

    #[test]
    fn earlier_pools_have_priority() {
        let (pools, mut es) = setup(SchedulerKind::BasicWait, &["high", "low"]);
        let order = Arc::new(Mutex::new(Vec::new()));
        // Block the ES so both submissions queue up before any runs.
        let gate = Arc::new(Mutex::new(()));
        let guard = gate.lock();
        let g2 = Arc::clone(&gate);
        pools[1].push(Ult::new("block", move || {
            drop(g2.lock());
        }));
        std::thread::sleep(Duration::from_millis(20)); // let the ES pick it up
        for (pool_idx, label) in [(1usize, "low"), (0usize, "high")] {
            let order = Arc::clone(&order);
            pools[pool_idx].push(Ult::new(label, move || order.lock().push(label)));
        }
        drop(guard); // release the ES
        assert!(mochi_util::time::wait_until(
            Duration::from_secs(5),
            Duration::from_millis(1),
            || order.lock().len() == 2
        ));
        assert_eq!(*order.lock(), vec!["high", "low"]);
        es.stop();
    }

    #[test]
    fn stop_leaves_pending_ults_in_pool() {
        let (pools, mut es) = setup(SchedulerKind::BasicWait, &["p"]);
        // Occupy the ES with a slow ULT, then queue more.
        pools[0].push(Ult::new("slow", || std::thread::sleep(Duration::from_millis(50))));
        std::thread::sleep(Duration::from_millis(10));
        for _ in 0..5 {
            pools[0].push(Ult::new("queued", || {}));
        }
        es.stop();
        // The slow ULT completed; queued ones may remain.
        assert!(pools[0].len() <= 5);
        let executed = es.stats().ults_executed;
        assert_eq!(executed + pools[0].len() as u64, 6);
    }

    #[test]
    fn basic_scheduler_also_works() {
        let (pools, mut es) = setup(SchedulerKind::Basic, &["p"]);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pools[0].push(Ult::new("u", move || {
            d.fetch_add(1, Ordering::SeqCst);
        }));
        assert!(mochi_util::time::wait_until(
            Duration::from_secs(5),
            Duration::from_millis(1),
            || done.load(Ordering::SeqCst) == 1
        ));
        es.stop();
    }

    #[test]
    fn two_xstreams_share_one_pool() {
        let pool = Arc::new(Pool::new(PoolConfig::named("shared")));
        let mk = |name: &str| {
            ExecutionStream::spawn(
                XstreamConfig {
                    name: name.into(),
                    scheduler: SchedulerConfig {
                        kind: SchedulerKind::BasicWait,
                        pools: vec!["shared".into()],
                    },
                },
                vec![Arc::clone(&pool)],
            )
        };
        let mut es1 = mk("es1");
        let mut es2 = mk("es2");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..200 {
            let c = Arc::clone(&counter);
            pool.push(Ult::new("inc", move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        assert!(mochi_util::time::wait_until(
            Duration::from_secs(5),
            Duration::from_millis(1),
            || counter.load(Ordering::SeqCst) == 200
        ));
        es1.stop();
        es2.stop();
        assert_eq!(es1.stats().ults_executed + es2.stats().ults_executed, 200);
    }
}
