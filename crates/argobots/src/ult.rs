//! User-level threads: named units of work submitted to pools.

use std::sync::Arc;
use std::time::Instant;

use mochi_util::unique_u64;

/// The work carried by a ULT.
pub type UltTask = Box<dyn FnOnce() + Send + 'static>;

/// A unit of work. Created with [`Ult::new`] and submitted to a
/// [`crate::pool::Pool`]; an execution stream eventually runs it to
/// completion.
pub struct Ult {
    /// Unique id (diagnostics).
    pub id: u64,
    /// Human-readable label (e.g. the RPC name it serves; shared, so a
    /// dispatcher labels every ULT of one RPC without allocating).
    pub name: Arc<str>,
    /// Priority for `prio_wait` pools; higher runs first. FIFO pools
    /// ignore it.
    pub priority: i32,
    /// When the ULT was created (used for queue-wait statistics).
    pub submitted_at: Instant,
    pub(crate) task: UltTask,
}

impl Ult {
    /// Creates a ULT with priority 0.
    pub fn new(name: impl Into<Arc<str>>, task: impl FnOnce() + Send + 'static) -> Self {
        Self::new_at(Instant::now(), name, task)
    }

    /// [`Ult::new`] for a caller that has just read the clock: the ULT's
    /// queue wait counts from `submitted_at`, and the clock is not read
    /// again.
    pub fn new_at(
        submitted_at: Instant,
        name: impl Into<Arc<str>>,
        task: impl FnOnce() + Send + 'static,
    ) -> Self {
        Self { id: unique_u64(), name: name.into(), priority: 0, submitted_at, task: Box::new(task) }
    }

    /// Creates a ULT with an explicit priority.
    pub fn with_priority(
        name: impl Into<Arc<str>>,
        priority: i32,
        task: impl FnOnce() + Send + 'static,
    ) -> Self {
        let mut ult = Self::new(name, task);
        ult.priority = priority;
        ult
    }

    /// Consumes the ULT and runs its task.
    pub fn run(self) {
        (self.task)();
    }
}

impl std::fmt::Debug for Ult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ult")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("priority", &self.priority)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn run_executes_task() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let ult = Ult::new("t", move || f2.store(true, Ordering::SeqCst));
        ult.run();
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn ids_differ() {
        let a = Ult::new("a", || {});
        let b = Ult::new("b", || {});
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn priority_recorded() {
        let u = Ult::with_priority("p", 7, || {});
        assert_eq!(u.priority, 7);
    }
}
