//! Top-down resilience (paper §7): periodic checkpoints to the parallel
//! file system plus SWIM-triggered recovery on fresh nodes.
//!
//! "Should a node die, another node can be provisioned and restarted with
//! the same components restoring their respective checkpoint"
//! (Observation 9) — detection comes from SSG's SWIM notifications
//! (Observation 12). The manager is deliberately *outside* the
//! components: they only implement `checkpoint`/`restore` hooks, keeping
//! the coupling the paper warns about to a minimum.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use mochi_mercury::Address;
use mochi_ssg::swim::MembershipEvent;
use mochi_ssg::SsgGroup;

use crate::service::{DynamicService, MemberRecord, SSG_PROVIDER_ID};

/// Resilience tuning.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Interval between checkpoint sweeps.
    pub checkpoint_interval: Duration,
    /// Recover dead members onto fresh nodes automatically.
    pub auto_recover: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self { checkpoint_interval: Duration::from_millis(500), auto_recover: true }
    }
}

/// Statistics for tests and reports.
#[derive(Debug, Default)]
pub struct ResilienceStats {
    /// Completed checkpoint sweeps.
    pub checkpoints: AtomicU64,
    /// Successful recoveries.
    pub recoveries: AtomicU64,
}

/// The resilience manager attached to a service.
pub struct ResilienceManager {
    service: Arc<DynamicService>,
    config: ResilienceConfig,
    stats: Arc<ResilienceStats>,
    stopped: AtomicBool,
    // leaf: set operations only.
    recovering: Mutex<HashSet<Address>>,
    /// Who has reported each member dead that is not yet recovered.
    // leaf: map operations only; cloned out before `service.members`.
    deaths: Mutex<HashMap<Address, HashSet<Address>>>,
    // leaf: handles are taken out before they are joined.
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ResilienceManager {
    /// Attaches the manager: starts the checkpoint sweeper and subscribes
    /// to membership events on every current member.
    pub fn attach(service: &Arc<DynamicService>, config: ResilienceConfig) -> Arc<Self> {
        let manager = Arc::new(Self {
            service: Arc::clone(service),
            config,
            stats: Arc::new(ResilienceStats::default()),
            stopped: AtomicBool::new(false),
            recovering: Mutex::new(HashSet::new()),
            deaths: Mutex::new(HashMap::new()),
            threads: Mutex::new(Vec::new()),
        });
        // Checkpoint sweeper.
        {
            let m = Arc::clone(&manager);
            #[expect(
                clippy::expect_used,
                reason = "thread spawn failure is unrecoverable resource exhaustion"
            )]
            let handle = std::thread::Builder::new()
                .name("resilience-ckpt".into())
                .spawn(move || {
                    while !m.stopped.load(Ordering::SeqCst) {
                        std::thread::sleep(m.config.checkpoint_interval);
                        if m.stopped.load(Ordering::SeqCst) {
                            break;
                        }
                        m.checkpoint_sweep();
                    }
                })
                .expect("spawn checkpoint sweeper");
            manager.threads.lock().push(handle);
        }
        // Death subscriptions.
        if config.auto_recover {
            for addr in service.addresses() {
                if let Some(group) = service.group(&addr) {
                    manager.subscribe(addr, &group);
                }
            }
        }
        manager
    }

    /// Reports every member that `reporter`'s group sees die to
    /// [`Self::report_death`].
    fn subscribe(self: &Arc<Self>, reporter: Address, group: &Arc<SsgGroup>) {
        let manager = Arc::clone(self);
        group.on_change(Arc::new(move |event| {
            if let MembershipEvent::Died(dead) = event {
                if manager.stopped.load(Ordering::SeqCst) {
                    return;
                }
                let (reporter, dead) = (reporter.clone(), dead.clone());
                let manager = Arc::clone(&manager);
                // Recover off the callback thread (it holds SWIM state).
                #[expect(
                    clippy::expect_used,
                    reason = "thread spawn failure is unrecoverable resource exhaustion"
                )]
                std::thread::Builder::new()
                    .name("resilience-recover".into())
                    .spawn(move || manager.report_death(&reporter, &dead))
                    .expect("spawn recovery thread");
            }
        }));
    }

    /// Recovers `dead` once a majority of the other members have reported
    /// it dead. A member cut off from its peers sees every one of them
    /// die, so one member's word is not enough; nor is that of a member
    /// the service has since replaced.
    fn report_death(self: &Arc<Self>, reporter: &Address, dead: &Address) {
        let reporters = {
            let mut deaths = self.deaths.lock();
            let reporters = deaths.entry(dead.clone()).or_default();
            reporters.insert(reporter.clone());
            reporters.clone()
        };
        let confirmed = {
            let members = self.service.members.lock();
            let others = members.keys().filter(|m| *m != dead).count();
            let votes = reporters.iter().filter(|r| members.contains_key(*r)).count();
            2 * votes > others
        };
        if confirmed {
            self.recover(dead);
        }
    }

    /// Counters.
    pub fn stats(&self) -> &Arc<ResilienceStats> {
        &self.stats
    }

    fn checkpoint_dir(&self, addr: &Address, provider: &str) -> std::path::PathBuf {
        let sanitized: String = addr
            .to_string()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        self.service.cluster().pfs_dir().join(sanitized).join(provider)
    }

    /// One checkpoint sweep over all members and providers.
    pub fn checkpoint_sweep(&self) {
        let targets: Vec<(Address, Vec<String>)> = {
            let members = self.service.members.lock();
            members
                .iter()
                .map(|(addr, record)| (addr.clone(), record.server.provider_names()))
                .collect()
        };
        for (addr, providers) in targets {
            let Some(server) = self.service.server(&addr) else { continue };
            for provider in providers {
                let dir = self.checkpoint_dir(&addr, &provider);
                let _ = std::fs::create_dir_all(&dir);
                // Providers without checkpoint support simply error; fine.
                let _ = server.checkpoint_provider(&provider, &dir.to_string_lossy());
            }
        }
        self.stats.checkpoints.fetch_add(1, Ordering::SeqCst);
    }

    /// Rebuilds the member that ran at `dead` on a freshly allocated
    /// node, restoring each of its providers from its latest checkpoint.
    pub fn recover(self: &Arc<Self>, dead: &Address) {
        // Deduplicate: several members will report the same death.
        {
            let mut recovering = self.recovering.lock();
            if !recovering.insert(dead.clone()) {
                return;
            }
        }
        let result = self.recover_inner(dead);
        self.recovering.lock().remove(dead);
        self.deaths.lock().remove(dead);
        if result {
            self.stats.recoveries.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn recover_inner(self: &Arc<Self>, dead: &Address) -> bool {
        // Fetch and drop the dead member's record.
        let Some(record) = self.service.members.lock().remove(dead) else {
            return false; // already recovered or never a member
        };
        let MemberRecord { node: old_node, config, .. } = record;
        self.service.cluster().release_node(&old_node);
        let cluster = self.service.cluster();

        let Ok(new_node) = cluster.allocate_node() else {
            return false;
        };
        let Ok(server) = cluster.spawn(&new_node, &config) else {
            cluster.release_node(&new_node);
            return false;
        };
        // Restore provider state from the checkpoints of the dead
        // incarnation.
        for provider in server.provider_names() {
            let dir = self.checkpoint_dir(dead, &provider);
            if dir.exists() {
                let _ = server.restore_provider(&provider, &dir.to_string_lossy());
            }
        }
        // Join the group through any survivor.
        let seed = self.service.addresses().into_iter().next();
        let group = match seed {
            Some(seed) => {
                SsgGroup::join(server.margo(), SSG_PROVIDER_ID, self.service.config().swim, &seed)
            }
            None => SsgGroup::create(
                server.margo(),
                SSG_PROVIDER_ID,
                self.service.config().swim,
                &[server.address()],
            ),
        };
        let Ok(group) = group else {
            return false;
        };
        let address = server.address();
        let record = MemberRecord { server, group: Arc::clone(&group), node: new_node, config };
        self.service.members.lock().insert(address.clone(), record);
        if self.config.auto_recover {
            self.subscribe(address, &group);
        }
        true
    }

    /// Stops the sweeper; in-flight recoveries complete.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        let threads = std::mem::take(&mut *self.threads.lock());
        for handle in threads {
            let _ = handle.join();
        }
    }
}

impl Drop for ResilienceManager {
    fn drop(&mut self) {
        self.stopped.store(true, Ordering::SeqCst);
    }
}
