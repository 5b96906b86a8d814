//! Shared utilities for the `mochi-rs` workspace.
//!
//! This crate hosts the small, dependency-light building blocks that every
//! other crate in the workspace relies on:
//!
//! * [`id`] — process-unique 64-bit identifiers,
//! * [`checksum`] — CRC-32/CRC-64 used for RPC name hashing and data
//!   integrity verification during migration,
//! * [`stats`] — streaming statistics accumulators shaped like the
//!   `{num, avg, min, max, var}` blocks of the paper's Listing 1,
//! * [`histogram`] — a log-bucketed latency histogram with percentile
//!   queries for the benchmark harness,
//! * [`rng`] — a seedable RNG wrapper so that fault-injection experiments
//!   are reproducible,
//! * [`tempdir`] — self-cleaning unique temporary directories (stand-in for
//!   node-local storage and the "parallel file system" checkpoint area),
//! * [`time`] — monotonic clock helpers and precise short sleeps used by
//!   the simulated network model,
//! * [`bytesize`] — human-readable byte-size formatting for reports,
//! * [`ordered_lock`] — rank-checked mutex/rwlock wrappers enforcing the
//!   workspace lock hierarchy in debug builds (DESIGN.md §9.2),
//! * [`striped`] — thread-striped accumulators merged at dump time, the
//!   contention-free backing store for hot-path statistics,
//! * [`durable`] — [`atomic_write`], the temp-name, sync and rename that
//!   replaces a persisted file without ever tearing it,
//! * [`flag`] — [`Flag`], the cross-thread boolean, every operation
//!   `SeqCst`.

pub mod bytesize;
pub mod checksum;
pub mod durable;
pub mod flag;
pub mod hash;
pub mod histogram;
pub mod id;
pub mod ordered_lock;
pub mod rng;
pub mod stats;
pub mod striped;
pub mod tempdir;
pub mod time;

pub use checksum::{crc32, crc64};
pub use durable::atomic_write;
pub use flag::Flag;
pub use hash::{fnv1a64, mix64, IdMap};
pub use histogram::Histogram;
pub use id::unique_u64;
pub use ordered_lock::{OrderedMutex, OrderedRwLock};
pub use rng::SeededRng;
pub use stats::StreamStats;
pub use striped::Striped;
pub use tempdir::TempDir;
