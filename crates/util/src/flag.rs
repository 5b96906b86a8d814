//! [`Flag`]: the workspace's cross-thread boolean.
//!
//! A flag is published by one thread and read by another to decide
//! whether to go on: a runtime finalized, an endpoint closed, a worker
//! stopped, a reply sent, a progress pass armed. Every operation is
//! `SeqCst`, so no site has to choose an ordering and none can choose one
//! too weak. Acquire/Release is not enough for every flag of the
//! workspace: margo's progress loop stores `progress_armed` and then reads
//! the mailbox, and only `SeqCst` orders that store before that load
//! (DESIGN.md §9.3). On x86 a `SeqCst` load is a plain load, and a flag
//! is written far less often than it is read. `clippy.toml` disallows
//! `AtomicBool` everywhere else.

/// A boolean shared between threads; every operation is `SeqCst`.
#[derive(Debug)]
pub struct Flag {
    #[expect(
        clippy::disallowed_types,
        reason = "the one AtomicBool of the workspace: every other site goes through Flag"
    )]
    value: std::sync::atomic::AtomicBool,
}

const ORDER: std::sync::atomic::Ordering = std::sync::atomic::Ordering::SeqCst;

impl Flag {
    /// A flag holding `value`.
    pub fn new(value: bool) -> Flag {
        Flag { value: value.into() }
    }

    /// The current value.
    pub fn get(&self) -> bool {
        self.value.load(ORDER)
    }

    /// Stores `value`.
    pub fn set(&self, value: bool) {
        self.value.store(value, ORDER);
    }

    /// Stores `value` and returns the value it replaced: `swap(true)`
    /// returning `false` means this caller was the one that raised it.
    pub fn swap(&self, value: bool) -> bool {
        self.value.swap(value, ORDER)
    }
}

#[cfg(test)]
mod tests {
    use super::Flag;

    #[test]
    fn swap_reports_the_value_it_replaced() {
        let flag = Flag::new(false);
        assert!(!flag.get());
        assert!(!flag.swap(true), "the first raise sees false");
        assert!(flag.swap(true), "a second raise sees true");
        flag.set(false);
        assert!(!flag.get());
    }
}
