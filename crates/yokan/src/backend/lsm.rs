//! The `"lsm"` backend: a from-scratch log-structured merge tree, hash-
//! striped over N independent stripes so concurrent writers to different
//! stripes never contend on a lock or a log file.
//!
//! Layout inside the provider's data directory:
//!
//! * `lsm-stripes` — the stripe count this directory was created with,
//!   written under `lsm-stripes.tmp` and renamed; routing must be stable
//!   across reopens, so the manifest wins over whatever the config says
//!   on a later open;
//! * `wal-<stripe>-<n>.log` — stripe `s`'s value logs; the highest `n` is
//!   appended to. Every put and erase is one CRC-protected record. A seal
//!   appends a `SEAL(seq)` record, syncs, and the records since the
//!   previous marker — a *range* — become the stripe's newest table where
//!   they lie: a value is written once, by its append. Every
//!   `(max_tables + 1)²` seals the stripe moves on to a new log;
//! * `sst-<stripe>-<seq>.tbl` — the product of a merge: keys, sorted, each
//!   with a reference `(file, offset, len)` to its value — or the value
//!   itself, copied out of a file that is more than half dead — under one
//!   whole-file CRC. Its trailer names its *watermark*, the newest seal
//!   merged into it, and the `.tbl` files it replaces, so a run retires
//!   atomically when its product is renamed into place;
//! * `sst-<stripe>-<seq>.tmp` — a merge's product still being written. It
//!   gets its `.tbl` name by rename once complete and `sync_data`'d, so
//!   a `.tbl` file is never torn; `open` deletes leftovers.
//!
//! Seals, merges and new logs draw their numbers from one sequence per
//! stripe; tables of both kinds are immutable and a higher sequence is
//! newer. Tombstones mark deletions until a merge that reaches the
//! stripe's oldest table drops them.
//!
//! A stripe's memtable — the framed log bytes appended since the last
//! seal plus an index `key → (offset, len)` into them — seals once it
//! exceeds `memtable_bytes`. A table's index is all of it that stays in
//! memory, one entry per key on disk, so it is kept compact
//! (`table_index::TableIndex`: the keys' common prefix once, the rest in
//! one buffer, one sorted array). Compaction is size-tiered over the
//! *newest suffix* of a stripe's table list: a table's tier is
//! `⌊log_(max_tables+1)(bytes / memtable_bytes)⌋`, where `bytes` is what
//! the table stands for — its own file or range plus the values it
//! references — and while the run of newest tables whose tier does not
//! exceed the newest table's is longer than `max_tables`, that run and
//! every unmerged range is merged into one table with a fresh sequence
//! number (`LsmInner::claim_run`). A merge moves keys and references, not
//! values; each file counts the value bytes current tables reference, and
//! a file that is no longer appended to, no longer a table, and has no
//! live byte left is unlinked. Merges run on the sealing writer: a seal
//! that completes a run merges it before the write returns.
//!
//! # Concurrency
//!
//! Reads never take a writer lock. Each stripe splits its state across
//! three locks, always acquired in this order (ranks
//! `LSM_WRITER_BASE + s < LSM_ACTIVE_BASE + s < LSM_SNAPSHOT_BASE + s`):
//!
//! * `writer` — serializes that stripe's mutations: log appends, seals,
//!   merges, `clear`, and the set of files on disk;
//! * `active` — the stripe's mutable memtable, briefly write-locked to
//!   frame a record and again to index it, and read-locked by readers
//!   (the log write in between holds it only for reading: a reader never
//!   waits for file I/O);
//! * `snapshot` — an `Arc<Snapshot>` slot holding the stripe's immutable
//!   table list; held only to clone or swap.
//!
//! Readers check `active` first, then clone the snapshot `Arc` and run
//! lock-free against it. Sealing publishes the new range into the
//! snapshot *before* the emptied active memtable becomes visible (both
//! happen under the `active` write lock), so a key a reader no longer
//! finds in `active` is guaranteed to be in whichever snapshot it clones
//! next. Whole-table operations acquire every stripe's `active` read lock
//! in ascending stripe index (ascending rank), then every snapshot — an
//! atomic cut across stripes, deadlock-free by construction.
//!
//! A merge holds its stripe's writer lock from claiming a run to
//! retiring its inputs, so it is the only merge of that stripe and no seal
//! lands while it runs; readers keep using the snapshot they cloned until
//! the product is published in place of its inputs. A failed unlink after
//! a good merge parks in a deferred slot that the next `flush()`
//! surfaces; the next merge retries it.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::ops::Bound;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use mochi_util::checksum::Crc32Hasher;
use mochi_util::ordered_lock::{rank, OrderedMutex, OrderedRwLock};
use mochi_util::{crc32, fnv1a64, mix64};

use super::{le_u32_at, Database, YokanError};
use crate::version::{decode_record, record_is_newer};
use table_index::{common_prefix, SplitKey, TableIndex};

mod table_index;

/// Upper bound on the stripe count; the lock hierarchy reserves
/// `LSM_STRIPE_MAX` ranks per lock class for the stripes.
pub const MAX_STRIPES: usize = rank::LSM_STRIPE_MAX as usize;

/// Default stripe count: like the memory backend's shards, enough that
/// 8 execution streams rarely collide, small enough that whole-table
/// scans and per-stripe file sets stay cheap.
pub const DEFAULT_STRIPES: usize = 8;

/// Tuning knobs of the LSM backend.
#[derive(Debug, Clone, Copy)]
pub struct LsmConfig {
    /// Seal a stripe's memtable into a range beyond this many bytes of
    /// keys and values.
    pub memtable_bytes: usize,
    /// Width of a compaction tier: once more than this many of a
    /// stripe's newest tables sit in one size tier (or below), they are
    /// merged into one table of the next. A stripe holds at most about
    /// `max_tables` tables per tier, and a value log takes
    /// `(max_tables + 1)²` memtables.
    pub max_tables: usize,
    /// Number of independent stripes (clamped to `1..=MAX_STRIPES`).
    /// `stripes: 1` reproduces the historical single-writer layout and
    /// serves as the contention baseline in `a04_contention`.
    pub stripes: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        Self { memtable_bytes: 4 << 20, max_tables: 4, stripes: DEFAULT_STRIPES }
    }
}

/// Fault-injection points inside the write and merge paths, for
/// crash-recovery tests: the operation errors out (simulating a crash of
/// the process at that instant, or a failing file system) and leaves the
/// files as they were then.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum LsmFailPoint {
    /// No fault injected (the default).
    None = 0,
    /// A log append writes the first half of its bytes, then reports an
    /// error — a full disk.
    WalAppendTorn = 1,
    /// The first unlink after a merge — of a retired table or a dead log —
    /// reports an error and removes nothing.
    InputUnlinkFails = 2,
    /// Fail while a merged table is being written: its records are on
    /// disk, its checksum trailer is not — a torn file.
    MidTableWrite = 3,
    /// Fail after a merged table is durable and published, before any of
    /// its inputs is unlinked.
    AfterMergePersist = 4,
}

/// Diagnostics of one database, for the provider's configuration dump.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LsmStats {
    /// Current tables: unmerged ranges and merged tables.
    pub tables: usize,
    /// Value logs: those current tables read from, and the active one.
    pub logs: usize,
    /// Value bytes that current tables and unmerged ranges reference.
    pub value_bytes_live: u64,
    /// Value bytes in the files that hold them: logs and merged tables.
    pub value_bytes_total: u64,
    /// Bytes of merged tables written since `open`.
    pub bytes_merged: u64,
    /// Of those, value bytes merges copied out of mostly dead files.
    pub bytes_relocated: u64,
    /// Heap bytes of the tables' indexes per key they hold.
    pub index_bytes_per_key: f64,
}

const OP_PUT: u8 = 1;
const OP_ERASE: u8 = 2;
/// Closes a range; its value is the seal's sequence number and the file
/// offset the record itself starts at.
const OP_SEAL: u8 = 3;
/// Value length marking a tombstone in an index and in a `.tbl`.
const TOMBSTONE: u32 = u32::MAX;
/// Bytes of a log record around its key and value: op, two lengths, CRC.
const WAL_FRAMING: usize = 13;
/// A `SEAL` record's value: sequence number, own offset.
const SEAL_VALUE: usize = 16;
/// A `SEAL` record: its framing and its value.
const SEAL_RECORD: usize = WAL_FRAMING + SEAL_VALUE;
/// Source slot of a value a merge copied into the table itself.
const OWN: u16 = u16::MAX - 1;
/// Source slot of a value there is nothing to read of: empty, or a
/// tombstone.
const EMPTY: u16 = u16::MAX;
/// A `.tbl` record's header: key-suffix length, value length, location.
const TBL_RECORD: usize = 16;
/// The fixed end of a `.tbl` trailer, before its CRC: prefix length,
/// source and input counts, watermark, magic.
const TBL_FOOTER: usize = 24;
const TBL_MAGIC: u32 = u32::from_le_bytes(*b"YKT2");

/// Where a value lies in the active log (absolute offset).
#[derive(Debug, Clone, Copy)]
struct ValueLoc {
    offset: u64,
    len: u32, // TOMBSTONE for deletions
}

/// Where a table's value lies: the file in the table's source `slot`
/// ([`OWN`], [`EMPTY`] or an index into its sources), and where in it.
#[derive(Debug, Clone, Copy)]
struct ValueRef {
    slot: u16,
    offset: u64,
    len: u32, // TOMBSTONE for deletions
}

/// Bits of a packed location that hold the offset; the slot sits above.
const OFFSET_BITS: u32 = 48;

impl ValueRef {
    /// The slot and offset packed into one word, as indexes and `.tbl`
    /// records hold them.
    fn loc(self) -> u64 {
        u64::from(self.slot) << OFFSET_BITS | self.offset
    }

    fn at(loc: u64, len: u32) -> ValueRef {
        ValueRef { slot: (loc >> OFFSET_BITS) as u16, offset: loc & ((1 << OFFSET_BITS) - 1), len }
    }
}

/// The active memtable's index: it takes inserts.
type Index = BTreeMap<Vec<u8>, ValueLoc>;

/// One logged mutation: `OP_PUT` or `OP_ERASE`, key, value (empty for an
/// erase).
type Record<'a> = (u8, &'a [u8], &'a [u8]);

/// A stripe's mutable top: the framed records appended to the active log
/// since the last seal — byte `i` of `log` is byte `base + i` of the file
/// — and which of them is current for each key.
#[derive(Default)]
struct Memtable {
    base: u64,
    log: Vec<u8>,
    index: Index,
}

impl Memtable {
    /// `Some(None)` = deleted here.
    fn get(&self, key: &[u8]) -> Option<Option<Vec<u8>>> {
        let loc = self.index.get(key)?;
        if loc.len == TOMBSTONE {
            return Some(None);
        }
        let start = (loc.offset - self.base) as usize;
        Some(self.log.get(start..start + loc.len as usize).map(<[u8]>::to_vec))
    }
}

fn log_path(dir: &Path, stripe: usize, number: u64) -> PathBuf {
    dir.join(format!("wal-{stripe:03}-{number:010}.log"))
}

fn table_path(dir: &Path, stripe: usize, seq: u64) -> PathBuf {
    dir.join(format!("sst-{stripe:03}-{seq:010}.tbl"))
}

/// Parses `prefix-<stripe:03>-<number:010>` stems (tables and logs).
fn parse_striped_name(path: &Path, prefix: &str) -> Option<(usize, u64)> {
    let stem = path.file_stem()?.to_str()?;
    let rest = stem.strip_prefix(prefix)?;
    let (stripe, number) = rest.split_once('-')?;
    Some((stripe.parse().ok()?, number.parse().ok()?))
}

fn le_u64_at(data: &[u8], pos: usize) -> Option<u64> {
    data.get(pos..)?.first_chunk().map(|bytes| u64::from_le_bytes(*bytes))
}

/// Bloom-filter bits per key (~1 % false positives with
/// [`BLOOM_PROBES`] probes).
const BLOOM_BITS_PER_KEY: usize = 10;
const BLOOM_PROBES: u32 = 7;

/// In-memory Bloom filter over one table's keys, rebuilt from the index
/// whenever a table is sealed, written or opened — nothing of it is on
/// disk. A lookup that misses a table costs a few words of it instead of
/// a search of the table's index.
struct Bloom {
    words: Box<[u64]>,
}

impl Bloom {
    /// The hash every probe derives from; computed once per lookup.
    fn hash(key: &[u8]) -> u64 {
        mix64(fnv1a64(key))
    }

    fn build<'a>(count: usize, keys: impl Iterator<Item = SplitKey<'a>>) -> Bloom {
        let words = (count * BLOOM_BITS_PER_KEY).div_ceil(64).max(1);
        let mut bloom = Bloom { words: vec![0u64; words].into_boxed_slice() };
        let mut whole = Vec::new();
        for key in keys {
            whole.clear();
            key.extend_into(&mut whole);
            for bit in bloom.probes(Self::hash(&whole)) {
                if let Some(word) = bloom.words.get_mut((bit / 64) as usize) {
                    *word |= 1 << (bit % 64);
                }
            }
        }
        bloom
    }

    /// Bit positions of `hash`: double hashing over its two halves.
    fn probes(&self, hash: u64) -> impl Iterator<Item = u64> {
        let bits = self.words.len() as u64 * 64;
        let (first, step) = (hash as u32, (hash >> 32) as u32 | 1);
        (0..BLOOM_PROBES)
            .map(move |i| (u64::from(first.wrapping_add(i.wrapping_mul(step))) * bits) >> 32)
    }

    /// `false` = the key is certainly not in the table.
    fn may_contain(&self, hash: u64) -> bool {
        self.probes(hash).all(|bit| {
            self.words.get((bit / 64) as usize).is_some_and(|w| w & (1 << (bit % 64)) != 0)
        })
    }
}

/// A file values are read from: a value log, or a merged table that holds
/// values a merge copied into it. It stays open while a table references
/// it and on disk while [`StripeWriter::files`] lists it.
struct ValueFile {
    /// Its number in the stripe's sequence: a log's `n`, a table's `seq`.
    id: u64,
    path: PathBuf,
    file: File,
    /// A value log, not a merged table.
    log: bool,
    /// Still appended to: the stripe's active log.
    appending: AtomicBool,
    /// Value bytes written into it.
    total: AtomicU64,
    /// Of those, the bytes current tables and unmerged ranges reference.
    live: AtomicU64,
}

impl ValueFile {
    fn new(id: u64, path: PathBuf, file: File, log: bool, total: u64, live: u64) -> ValueFile {
        let (total, live) = (AtomicU64::new(total), AtomicU64::new(live));
        ValueFile { id, path, file, log, appending: AtomicBool::new(false), total, live }
    }

    /// Creates the stripe's log number `id`, to be appended to.
    fn create_log(dir: &Path, stripe: usize, id: u64) -> Result<Arc<ValueFile>, YokanError> {
        let path = log_path(dir, stripe, id);
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .read(true)
            .open(&path)
            .map_err(|e| YokanError::Io(format!("create {}: {e}", path.display())))?;
        let log = ValueFile::new(id, path, file, true, 0, 0);
        log.appending.store(true, Ordering::Release);
        Ok(Arc::new(log))
    }

    fn live(&self) -> u64 {
        self.live.load(Ordering::Acquire)
    }

    /// More than half of the values written to it are dead, and it takes
    /// no more: a merge copies what is left of it rather than reference it.
    fn mostly_dead(&self) -> bool {
        !self.appending.load(Ordering::Acquire)
            && 2 * self.live() < self.total.load(Ordering::Acquire)
    }

    fn read(&self, offset: u64, len: u32) -> Result<Vec<u8>, YokanError> {
        let mut value = vec![0u8; len as usize];
        self.file
            .read_exact_at(&mut value, offset)
            .map_err(|e| YokanError::Io(format!("read {}: {e}", self.path.display())))?;
        Ok(value)
    }
}

/// What a table is on disk.
enum Body {
    /// Records of the value log `sources[0]`, the last of them its `SEAL`.
    Range,
    /// A merge's product.
    Merged { path: PathBuf },
}

/// An immutable table of one stripe: an unmerged range of a value log or
/// a merge's product. Past `open` the two differ in nothing a read sees:
/// `index` says which file each key's current value lies in, and where.
struct SsTable {
    /// Age order: the seal's sequence for a range, the merge's for a
    /// product.
    seq: u64,
    body: Body,
    /// Bytes the table stands for — its range, or its file plus the values
    /// it references elsewhere; decides its compaction tier.
    bytes: u64,
    /// The newest seal merged into it, a range's own.
    watermark: u64,
    index: TableIndex,
    bloom: Bloom,
    /// The files its value references point into, slot by slot.
    sources: Vec<Arc<ValueFile>>,
    /// Its own file, when a merge copied values into it.
    own: Option<Arc<ValueFile>>,
}

impl SsTable {
    fn new(
        seq: u64,
        body: Body,
        bytes: u64,
        watermark: u64,
        index: TableIndex,
        sources: Vec<Arc<ValueFile>>,
        own: Option<Arc<ValueFile>>,
    ) -> SsTable {
        let bloom = Bloom::build(index.len(), index.iter_from(&Bound::Unbounded).map(|(k, _)| k));
        SsTable { seq, body, bytes, watermark, index, bloom, sources, own }
    }

    /// Records `start..end` of `log`, sealed with sequence `seq`.
    fn range(seq: u64, start: u64, end: u64, log: Arc<ValueFile>, index: TableIndex) -> SsTable {
        SsTable::new(seq, Body::Range, end - start, seq, index, vec![log], None)
    }

    /// The log a range lies in.
    fn range_log(&self) -> Option<u64> {
        match self.body {
            Body::Range => self.sources.first().map(|log| log.id),
            Body::Merged { .. } => None,
        }
    }

    fn source(&self, slot: u16) -> Option<&Arc<ValueFile>> {
        match slot {
            OWN => self.own.as_ref(),
            EMPTY => None,
            _ => self.sources.get(slot as usize),
        }
    }

    fn read(&self, value: ValueRef) -> Result<Vec<u8>, YokanError> {
        if value.len == 0 {
            return Ok(Vec::new());
        }
        let file = self.source(value.slot).ok_or_else(|| {
            YokanError::Corrupt(format!("table {} has no value source {}", self.seq, value.slot))
        })?;
        file.read(value.offset, value.len)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Option<Vec<u8>>>, YokanError> {
        match self.index.get(key) {
            None => Ok(None),
            Some(value) if value.len == TOMBSTONE => Ok(Some(None)),
            Some(value) => self.read(value).map(|v| Some(Some(v))),
        }
    }
}

/// Streams a merge's product to disk record by record. The records go
/// through a buffered writer into `<table>.tmp` with the CRC fed as they
/// pass; [`Self::finish`] appends the trailer, syncs and renames the file
/// to its `.tbl` name, so a table that exists under that name is
/// complete. A write that fails leaves its `.tmp` behind for the next
/// `open` to delete.
struct TableWriter {
    tmp_path: PathBuf,
    out: BufWriter<File>,
    crc: Crc32Hasher,
    /// Sorted, because records are appended in key order.
    index: TableIndex,
    /// Bytes emitted so far: the file offset of whatever comes next.
    offset: u64,
    sources: Vec<Arc<ValueFile>>,
    /// Value bytes copied into the table / referenced in other files.
    inline_bytes: u64,
    referenced_bytes: u64,
}

impl TableWriter {
    fn create(path: &Path, prefix: &[u8]) -> Result<TableWriter, YokanError> {
        let tmp_path = path.with_extension("tmp");
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .read(true)
            .open(&tmp_path)
            .map_err(|e| YokanError::Io(format!("create {}: {e}", tmp_path.display())))?;
        Ok(TableWriter {
            tmp_path,
            out: BufWriter::with_capacity(256 << 10, file),
            crc: Crc32Hasher::new(),
            index: TableIndex::new(prefix),
            offset: 0,
            sources: Vec::new(),
            inline_bytes: 0,
            referenced_bytes: 0,
        })
    }

    fn emit(&mut self, bytes: &[u8]) -> Result<(), YokanError> {
        self.crc.update(bytes);
        self.out.write_all(bytes)?;
        self.offset += bytes.len() as u64;
        Ok(())
    }

    /// Appends one record's header and key; keys must arrive in ascending
    /// order.
    fn record(&mut self, key: SplitKey<'_>, value: ValueRef) -> Result<(), YokanError> {
        let (head, tail) = key.skip(self.index.prefix().len()).parts();
        let mut header = [0u8; TBL_RECORD];
        header[..4].copy_from_slice(&((head.len() + tail.len()) as u32).to_le_bytes());
        header[4..8].copy_from_slice(&value.len.to_le_bytes());
        header[8..].copy_from_slice(&value.loc().to_le_bytes());
        self.emit(&header)?;
        self.emit(head)?;
        self.emit(tail)?;
        self.index.push(key, value)
    }

    fn tombstone(&mut self, key: SplitKey<'_>) -> Result<(), YokanError> {
        self.record(key, ValueRef { slot: EMPTY, offset: 0, len: TOMBSTONE })
    }

    /// A record whose value stays where it is, in `file`.
    fn reference(
        &mut self,
        key: SplitKey<'_>,
        file: &Arc<ValueFile>,
        offset: u64,
        len: u32,
    ) -> Result<(), YokanError> {
        let slot = match self.sources.iter().position(|source| Arc::ptr_eq(source, file)) {
            Some(slot) => slot,
            None => {
                self.sources.push(Arc::clone(file));
                self.sources.len() - 1
            }
        };
        let slot = u16::try_from(slot).ok().filter(|&slot| slot < OWN).ok_or_else(|| {
            YokanError::Io("a merged table would reference too many files".into())
        })?;
        self.referenced_bytes += u64::from(len);
        self.record(key, ValueRef { slot, offset, len })
    }

    /// A record whose value is copied into the table, right after its key.
    fn copy(&mut self, key: SplitKey<'_>, value: &[u8]) -> Result<(), YokanError> {
        let suffix = key.len() - self.index.prefix().len();
        let offset = self.offset + (TBL_RECORD + suffix) as u64;
        self.record(key, ValueRef { slot: OWN, offset, len: value.len() as u32 })?;
        self.inline_bytes += value.len() as u64;
        self.emit(value)
    }

    /// Completes the file and publishes it as table `seq` at `path`;
    /// returns the table and the file's length.
    fn finish(
        mut self,
        seq: u64,
        path: PathBuf,
        watermark: u64,
        inputs: &[u64],
    ) -> Result<(SsTable, u64), YokanError> {
        let prefix = self.index.prefix().to_vec();
        self.emit(&prefix)?;
        let ids: Vec<u64> =
            self.sources.iter().map(|s| s.id).chain(inputs.iter().copied()).collect();
        for id in ids {
            self.emit(&id.to_le_bytes())?;
        }
        let mut footer = [0u8; TBL_FOOTER];
        footer[..4].copy_from_slice(&(prefix.len() as u32).to_le_bytes());
        footer[4..8].copy_from_slice(&(self.sources.len() as u32).to_le_bytes());
        footer[8..12].copy_from_slice(&(inputs.len() as u32).to_le_bytes());
        footer[12..20].copy_from_slice(&watermark.to_le_bytes());
        footer[20..].copy_from_slice(&TBL_MAGIC.to_le_bytes());
        self.emit(&footer)?;
        let crc = self.crc.finish();
        self.out.write_all(&crc.to_le_bytes())?;
        let file = self
            .out
            .into_inner()
            .map_err(|e| YokanError::Io(format!("write {}: {e}", self.tmp_path.display())))?;
        // Durable before it is visible under a name `open` trusts, and
        // before the tables it replaces are unlinked.
        file.sync_data()?;
        std::fs::rename(&self.tmp_path, &path)
            .map_err(|e| YokanError::Io(format!("publish {}: {e}", path.display())))?;
        let len = self.offset + 4;
        let own = (self.inline_bytes > 0).then(|| {
            let (inline, path) = (self.inline_bytes, path.clone());
            Arc::new(ValueFile::new(seq, path, file, false, inline, inline))
        });
        let bytes = len + self.referenced_bytes;
        let body = Body::Merged { path };
        Ok((SsTable::new(seq, body, bytes, watermark, self.index, self.sources, own), len))
    }
}

/// A `.tbl` as `open` reads it: validated as a whole, its references
/// still by file number.
struct TableFile {
    seq: u64,
    path: PathBuf,
    file: File,
    len: u64,
    index: TableIndex,
    sources: Vec<u64>,
    inputs: Vec<u64>,
    watermark: u64,
    inline_bytes: u64,
    referenced_bytes: u64,
}

impl TableFile {
    fn read(seq: u64, path: PathBuf) -> Result<TableFile, YokanError> {
        let mut file = File::open(&path)
            .map_err(|e| YokanError::Io(format!("open {}: {e}", path.display())))?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let corrupt = |what: &str| YokanError::Corrupt(format!("{} {what}", path.display()));
        let (body, crc) = data.split_last_chunk::<4>().ok_or_else(|| corrupt("too short"))?;
        if crc32(body) != u32::from_le_bytes(*crc) {
            return Err(corrupt("checksum mismatch"));
        }
        let (rest, footer) =
            body.split_last_chunk::<TBL_FOOTER>().ok_or_else(|| corrupt("too short"))?;
        let word = |at| le_u32_at(footer, at).unwrap_or_default() as usize;
        if word(20) as u32 != TBL_MAGIC {
            return Err(corrupt("is not a table of this layout"));
        }
        let (prefix_len, sources, inputs) = (word(0), word(4), word(8));
        let watermark = le_u64_at(footer, 12).unwrap_or_default();
        let trailer = (sources + inputs)
            .checked_mul(8)
            .and_then(|ids| ids.checked_add(prefix_len))
            .filter(|&trailer| trailer <= rest.len())
            .ok_or_else(|| corrupt("has a trailer longer than itself"))?;
        let (records, trailer) = rest.split_at(rest.len() - trailer);
        let (prefix, ids) = trailer.split_at(prefix_len);
        let mut ids = ids.chunks_exact(8).map(|id| le_u64_at(id, 0).unwrap_or_default());
        let sources: Vec<u64> = ids.by_ref().take(sources).collect();
        let inputs: Vec<u64> = ids.collect();

        let mut index = TableIndex::new(prefix);
        let (mut inline_bytes, mut referenced_bytes, mut pos) = (0, 0, 0usize);
        while pos < records.len() {
            let (Some(klen), Some(len), Some(loc)) =
                (le_u32_at(records, pos), le_u32_at(records, pos + 4), le_u64_at(records, pos + 8))
            else {
                return Err(corrupt("truncated record"));
            };
            pos += TBL_RECORD;
            let suffix =
                records.get(pos..pos + klen as usize).ok_or_else(|| corrupt("truncated key"))?;
            pos += klen as usize;
            let value = ValueRef::at(loc, len);
            if len != TOMBSTONE && len > 0 {
                match value.slot {
                    OWN if value.offset == pos as u64 && pos + len as usize <= records.len() => {
                        pos += len as usize;
                        inline_bytes += u64::from(len);
                    }
                    slot if (slot as usize) < sources.len() => referenced_bytes += u64::from(len),
                    _ => return Err(corrupt("has a value with no source")),
                }
            }
            index.push(SplitKey::new(prefix, suffix), value)?;
        }
        let len = data.len() as u64;
        Ok(TableFile {
            seq,
            path,
            file,
            len,
            index,
            sources,
            inputs,
            watermark,
            inline_bytes,
            referenced_bytes,
        })
    }
}

/// An immutable, atomically swapped view of everything below one
/// stripe's active memtable. Readers clone the `Arc` and then run
/// entirely lock-free; the files a snapshot's tables read from stay
/// open as long as any reader holds the clone, even across a concurrent
/// merge that unlinks them.
struct Snapshot {
    /// Publication counter; bumps on every seal, compaction and clear.
    generation: u64,
    /// Merged tables, then unmerged ranges; oldest → newest.
    tables: Vec<Arc<SsTable>>,
    /// The value log the stripe appended to when this was published.
    log: Arc<ValueFile>,
}

impl Snapshot {
    /// Looks `key` up below the active memtable; `Some(None)` = deleted.
    fn lookup(&self, key: &[u8]) -> Result<Option<Option<Vec<u8>>>, YokanError> {
        let hash = Bloom::hash(key);
        for table in self.tables.iter().rev().filter(|t| t.bloom.may_contain(hash)) {
            if let Some(found) = table.get(key)? {
                return Ok(Some(found));
            }
        }
        Ok(None)
    }
}

/// A sorted source of a [`NewestWins`] merge.
type Cursor<'a, T> = Box<dyn Iterator<Item = (SplitKey<'a>, T)> + 'a>;

/// K-way merge over sorted sources ordered oldest → newest: yields each
/// distinct key once, ascending, with the entry of the newest source
/// that holds it. Listing walks key aliveness with it, compaction walks
/// the input tables' indexes.
struct NewestWins<'a, T> {
    cursors: Vec<Cursor<'a, T>>,
    heads: Vec<Option<(SplitKey<'a>, T)>>,
}

impl<'a, T: Copy> NewestWins<'a, T> {
    fn new(mut cursors: Vec<Cursor<'a, T>>) -> Self {
        let heads = cursors.iter_mut().map(|c| c.next()).collect();
        Self { cursors, heads }
    }

    /// The next key and its newest entry; the older entries of the same
    /// key go to `shadowed`.
    fn next_with(&mut self, mut shadowed: impl FnMut(T)) -> Option<(SplitKey<'a>, T)> {
        let key = self.heads.iter().flatten().map(|head| head.0).min()?;
        let mut newest = None;
        for (head, cursor) in self.heads.iter_mut().zip(&mut self.cursors) {
            if let Some((_, entry)) = head.filter(|(head_key, _)| *head_key == key) {
                if let Some(older) = newest.replace(entry) {
                    shadowed(older);
                }
                *head = cursor.next();
            }
        }
        newest.map(|entry| (key, entry))
    }
}

impl<'a, T: Copy> Iterator for NewestWins<'a, T> {
    type Item = (SplitKey<'a>, T);

    fn next(&mut self) -> Option<Self::Item> {
        self.next_with(|_| {})
    }
}

/// One stripe's mutator-side state, serialized by that stripe's
/// `writer` lock.
struct StripeWriter {
    /// The value log being appended to, and its length.
    log: Arc<ValueFile>,
    log_len: u64,
    /// Seals in `log`; at `(max_tables + 1)²` the stripe moves on.
    seals_in_log: usize,
    /// Bytes of keys and values in the active memtable (seal trigger).
    active_bytes: usize,
    /// Value bytes appended since the last seal, overwritten ones too.
    active_value_bytes: u64,
    /// Next sequence number of this stripe: seals, merges and new logs
    /// draw on it.
    next_seq: u64,
    /// Why this stripe accepts no more writes until the directory is
    /// reopened: an append failed and so did taking it back, and a write
    /// acknowledged now could be lost behind a torn record.
    poisoned: Option<String>,
    /// The stripe's value files on disk, by number: its logs, and merged
    /// tables holding copied values.
    files: BTreeMap<u64, Arc<ValueFile>>,
    /// Merged tables a merge replaced that are still on disk — they hold
    /// values something references, or their unlink failed. Every product
    /// lists them among its inputs until they are gone.
    retired: BTreeMap<u64, PathBuf>,
}

impl StripeWriter {
    /// Draws the stripe's next sequence number.
    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// An error while the stripe is poisoned.
    fn check_usable(&self) -> Result<(), YokanError> {
        self.poisoned.as_ref().map_or(Ok(()), |why| Err(YokanError::Io(why.clone())))
    }

    /// Takes a failed write's bytes back off the end of the log: a torn
    /// record in the middle of a log is corruption to `open`, and would
    /// lose every write acknowledged after it. A log that cannot be
    /// truncated poisons the stripe.
    fn undo_append(&mut self, error: &YokanError) {
        if let Err(undo) = self.log.file.set_len(self.log_len) {
            self.poisoned = Some(format!(
                "{} may end in a torn record ({error}) and could not be truncated: {undo}",
                self.log.path.display()
            ));
        }
    }
}

/// A run of a stripe's newest tables claimed for a merge.
struct Run {
    inputs: Vec<Arc<SsTable>>,
    /// Sequence number of the product: above every input's, below that
    /// of any seal that lands while the merge runs.
    seq: u64,
    /// The run starts at the stripe's oldest table, so nothing older can
    /// hold a key and its tombstones may go.
    reaches_oldest: bool,
    /// Retired tables still on disk when the run was claimed.
    retired: Vec<u64>,
    /// The product keeps nothing: a `clear` of the whole stripe.
    clear: bool,
}

struct Stripe {
    index: usize,
    writer: OrderedMutex<StripeWriter>,
    active: OrderedRwLock<Memtable>,
    snapshot: OrderedRwLock<Arc<Snapshot>>,
}

struct LsmInner {
    dir: PathBuf,
    config: LsmConfig,
    stripes: Box<[Stripe]>,
    /// A failed unlink after a good merge; surfaced by `flush()`.
    parked_error: OrderedMutex<Option<YokanError>>,
    /// Armed [`LsmFailPoint`] (tests only; `LsmFailPoint::None` normally).
    fail_point: AtomicU8,
    /// Bytes of merged tables written since `open`.
    compaction_bytes: AtomicU64,
    /// Value bytes merges copied into their products since `open`.
    relocated_bytes: AtomicU64,
}

/// The LSM database.
pub struct LsmDatabase {
    inner: LsmInner,
}

impl std::fmt::Debug for LsmDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmDatabase")
            .field("dir", &self.inner.dir)
            .field("stripes", &self.inner.stripes.len())
            .field("tables", &self.table_count())
            .finish_non_exhaustive()
    }
}

/// Appends one log record to `out`; its CRC covers that record alone.
fn wal_record_into(out: &mut Vec<u8>, op: u8, key: &[u8], value: &[u8]) {
    let start = out.len();
    out.reserve(WAL_FRAMING + key.len() + value.len());
    out.push(op);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Where the value of the log record framed at file offset `pos` lies,
/// and where the record after it starts.
fn wal_record_layout(pos: u64, op: u8, klen: usize, vlen: usize) -> (ValueLoc, u64) {
    let len = if op == OP_ERASE { TOMBSTONE } else { vlen as u32 };
    let next = pos + (WAL_FRAMING + klen + vlen) as u64;
    (ValueLoc { offset: pos + 9 + klen as u64, len }, next)
}

/// A sealed range as `open` finds it in a log.
struct SealedRange {
    start: u64,
    end: u64,
    seq: u64,
    /// Its records' index, unless a merged table's watermark covers it.
    index: Option<Index>,
}

/// What `open` reads from one value log.
struct LogScan {
    ranges: Vec<SealedRange>,
    /// Value bytes of the put records of those ranges: the log's total,
    /// to which a seal adds the tail's.
    value_bytes: u64,
    /// The records after the last `SEAL` — the active memtable, if this
    /// is the newest log — with their key + value and value bytes.
    tail: Memtable,
    tail_bytes: usize,
    tail_value_bytes: u64,
    /// End of the last whole record; a torn tail follows it.
    valid: u64,
    len: u64,
}

/// Reads a value log record by record. A record that is partial or fails
/// its CRC ends the scan: after the log's last `SEAL` that is the torn
/// tail a crash mid-append leaves, before it rot, which is `Corrupt`.
/// Ranges up to `watermark` are merged: they are checked, not indexed.
fn scan_log(path: &Path, file: &File, watermark: u64) -> Result<LogScan, YokanError> {
    let len = file.metadata()?.len();
    let mut reader = BufReader::with_capacity(256 << 10, file);
    let mut scan = LogScan {
        ranges: Vec::new(),
        value_bytes: 0,
        tail: Memtable::default(),
        tail_bytes: 0,
        tail_value_bytes: 0,
        valid: 0,
        len,
    };
    let mut pos = 0u64;
    loop {
        let start = scan.tail.log.len();
        let mut header = [0u8; 9];
        if reader.read_exact(&mut header).is_err() {
            break;
        }
        let op = header[0];
        let klen = le_u32_at(&header, 1).unwrap_or_default() as usize;
        let vlen = le_u32_at(&header, 5).unwrap_or_default() as usize;
        let (loc, next) = wal_record_layout(pos, op, klen, vlen);
        if next > len {
            break;
        }
        let log = &mut scan.tail.log;
        log.extend_from_slice(&header);
        log.resize(start + WAL_FRAMING + klen + vlen, 0);
        if reader.read_exact(&mut log[start + 9..]).is_err() {
            log.truncate(start);
            break;
        }
        let Some((body, crc)) = log[start..].split_last_chunk::<4>() else { break };
        if crc32(body) != u32::from_le_bytes(*crc) {
            log.truncate(start);
            break;
        }
        match op {
            OP_PUT | OP_ERASE => {
                scan.tail.index.insert(body[9..9 + klen].to_vec(), loc);
                scan.tail_bytes += klen + vlen;
                if op == OP_PUT {
                    scan.tail_value_bytes += vlen as u64;
                }
            }
            OP_SEAL if klen == 0 && vlen == SEAL_VALUE && le_u64_at(body, 17) == Some(pos) => {
                let seq = le_u64_at(body, 9).unwrap_or_default();
                let index = std::mem::take(&mut scan.tail.index);
                let index = (seq > watermark).then_some(index);
                scan.ranges.push(SealedRange { start: scan.tail.base, end: next, seq, index });
                scan.value_bytes += scan.tail_value_bytes;
                scan.tail = Memtable { base: next, ..Memtable::default() };
                (scan.tail_bytes, scan.tail_value_bytes) = (0, 0);
            }
            _ => {
                log.truncate(start);
                break;
            }
        }
        pos = next;
    }
    scan.valid = pos;
    let last_seal = scan.ranges.last().map_or(0, |range| range.seq);
    if pos < len && seal_follows(file, pos, len, last_seal)? {
        return Err(YokanError::Corrupt(format!(
            "{}: bad record at offset {pos}, before the log's last seal",
            path.display()
        )));
    }
    Ok(scan)
}

/// Whether a whole `SEAL` record lies anywhere in bytes `from..len` of
/// `file`: what tells rot from a torn tail. Those bytes may hold client
/// values, and a value may hold bytes of a log, so a candidate counts
/// only if it names the offset it lies at and a sequence number above
/// `after`, the log's last valid seal.
fn seal_follows(file: &File, from: u64, len: u64, after: u64) -> Result<bool, YokanError> {
    let mut rest = vec![0u8; (len - from) as usize];
    file.read_exact_at(&mut rest, from)?;
    Ok(rest.windows(SEAL_RECORD).zip(from..).any(|(record, offset)| {
        let (body, crc) = record.split_at(SEAL_RECORD - 4);
        body[0] == OP_SEAL
            && body[1..9] == [0, 0, 0, 0, SEAL_VALUE as u8, 0, 0, 0]
            && le_u64_at(body, 9).is_some_and(|seq| seq > after)
            && le_u64_at(body, 17) == Some(offset)
            && le_u32_at(crc, 0) == Some(crc32(body))
    }))
}

/// Reads or creates the stripe-count manifest. Routing must be stable
/// for the life of the directory, so the recorded count always wins. A
/// new manifest is written under a temporary name and renamed, so a
/// process that dies while writing it leaves no empty manifest behind.
fn stripe_manifest(dir: &Path, configured: usize) -> Result<usize, YokanError> {
    let path = dir.join("lsm-stripes");
    match std::fs::read_to_string(&path) {
        Ok(text) => {
            let count: usize = text.trim().parse().map_err(|_| {
                YokanError::Corrupt(format!("bad stripe manifest {}", path.display()))
            })?;
            if !(1..=MAX_STRIPES).contains(&count) {
                return Err(YokanError::Corrupt(format!(
                    "stripe manifest {} out of range: {count}",
                    path.display()
                )));
            }
            Ok(count)
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, format!("{configured}\n"))?;
            std::fs::rename(&tmp, &path)
                .map_err(|e| YokanError::Io(format!("publish {}: {e}", path.display())))?;
            Ok(configured)
        }
        Err(e) => Err(YokanError::Io(format!("{}: {e}", path.display()))),
    }
}

/// `open`'s answer to a file only an older version of this backend writes.
fn older_layout(path: &Path) -> YokanError {
    YokanError::Corrupt(format!(
        "{} belongs to a layout older than value logs; this version cannot open the directory",
        path.display()
    ))
}

/// The longest prefix every key of `inputs` shares: that of the smallest
/// first key and the largest last key.
fn run_prefix(inputs: &[Arc<SsTable>]) -> Vec<u8> {
    let first = inputs.iter().filter_map(|t| t.index.first()).min();
    let last = inputs.iter().filter_map(|t| t.index.last()).max();
    match first.zip(last) {
        Some((first, last)) => common_prefix(&first.to_vec(), &last.to_vec()).to_vec(),
        None => Vec::new(),
    }
}

/// Counts `value`'s bytes as freed from the file it lies in.
fn free_value(freed: &mut Vec<(Arc<ValueFile>, u64)>, table: &SsTable, value: ValueRef) {
    if value.len == TOMBSTONE || value.len == 0 {
        return;
    }
    let Some(file) = table.source(value.slot) else { return };
    match freed.iter_mut().find(|(f, _)| Arc::ptr_eq(f, file)) {
        Some((_, bytes)) => *bytes += u64::from(value.len),
        None => freed.push((Arc::clone(file), u64::from(value.len))),
    }
}

impl LsmInner {
    fn stripe_of(&self, key: &[u8]) -> &Stripe {
        &self.stripes[self.stripe_index(key)]
    }

    fn stripe_index(&self, key: &[u8]) -> usize {
        (fnv1a64(key) % self.stripes.len() as u64) as usize
    }

    /// Clones a stripe's snapshot `Arc` (the lock is held only for the
    /// clone itself).
    fn snapshot_arc(stripe: &Stripe) -> Arc<Snapshot> {
        Arc::clone(&stripe.snapshot.read())
    }

    /// Atomically replaces a stripe's published snapshot.
    fn publish(stripe: &Stripe, next: impl FnOnce(&Snapshot) -> Snapshot) {
        let mut slot = stripe.snapshot.write();
        *slot = Arc::new(next(&slot));
    }

    fn check_fail(&self, point: LsmFailPoint) -> Result<(), YokanError> {
        if self.fail_point.load(Ordering::Acquire) == point as u8 {
            return Err(YokanError::Io(format!("injected fault: {point:?}")));
        }
        Ok(())
    }

    /// Seals a value log takes before the stripe moves on to a new one.
    fn seals_per_log(&self) -> usize {
        (self.config.max_tables + 1).pow(2)
    }

    /// Logs `records` to the stripe's value log in one
    /// write and only then makes them visible: framed once, straight into
    /// the active memtable's log (no index entry points there yet, so no
    /// reader sees them), written to the file from that buffer, indexed.
    /// A failed write takes its bytes back out of the buffer and the
    /// file ([`StripeWriter::undo_append`]).
    fn append<'a>(
        &self,
        stripe: &Stripe,
        writer: &mut StripeWriter,
        records: impl Iterator<Item = Record<'a>> + Clone,
    ) -> Result<(), YokanError> {
        writer.check_usable()?;
        let start = {
            let mut active = stripe.active.write();
            let start = active.log.len();
            for (op, key, value) in records.clone() {
                wal_record_into(&mut active.log, op, key, value);
            }
            start
        };
        // Only this stripe's writer-lock holder — us — mutates `active`,
        // so the read guard is enough to write from it, and readers go on.
        let written = {
            let active = stripe.active.read();
            let new = active.log.get(start..).unwrap_or_default();
            let file = &writer.log.file;
            match self.check_fail(LsmFailPoint::WalAppendTorn) {
                Ok(()) => (&*file).write_all(new).map_err(YokanError::from),
                Err(fault) => (&*file)
                    .write_all(new.get(..new.len() / 2).unwrap_or_default())
                    .map_err(YokanError::from)
                    .and(Err(fault)),
            }
        };
        let mut active = stripe.active.write();
        if let Err(e) = written {
            active.log.truncate(start);
            writer.undo_append(&e);
            return Err(e);
        }
        let mut pos = writer.log_len;
        for (op, key, value) in records {
            let (loc, next) = wal_record_layout(pos, op, key.len(), value.len());
            active.index.insert(key.to_vec(), loc);
            pos = next;
            writer.active_bytes += key.len() + value.len();
            if op == OP_PUT {
                writer.active_value_bytes += value.len() as u64;
            }
        }
        writer.log_len = pos;
        Ok(())
    }

    /// Current live value of `key` in its stripe, never touching a
    /// writer lock.
    ///
    /// Read order matters: active memtable first, then the snapshot.
    /// Sealing publishes the new range into the snapshot before the
    /// emptied active memtable becomes visible, so a key missing from
    /// `active` is always present in (or genuinely absent from) the
    /// snapshot read afterwards.
    fn lookup_live(&self, key: &[u8]) -> Result<Option<Vec<u8>>, YokanError> {
        let stripe = self.stripe_of(key);
        if let Some(entry) = stripe.active.read().get(key) {
            return Ok(entry);
        }
        let snap = Self::snapshot_arc(stripe);
        Ok(snap.lookup(key)?.flatten())
    }

    /// Seals the stripe's active memtable: appends `SEAL(seq)`, which also
    /// names the offset it is written at, to the log and syncs it — the
    /// one sync of a seal — then publishes the records
    /// since the previous marker as the stripe's newest table, its index
    /// a compact copy of the memtable's. No-op on an empty memtable. A
    /// failed append or sync takes the marker back off the log and leaves
    /// the stripe as it was; the next write tries again.
    fn seal_locked(&self, stripe: &Stripe, writer: &mut StripeWriter) -> Result<(), YokanError> {
        writer.check_usable()?;
        // Only this stripe's writer-lock holder — us — mutates `active`:
        // what is indexed under the read lock is what is sealed.
        let (index, live, start) = {
            let active = stripe.active.read();
            if active.index.is_empty() {
                return Ok(());
            }
            let values = active.index.values().filter(|loc| loc.len != TOMBSTONE);
            let live: u64 = values.map(|loc| u64::from(loc.len)).sum();
            (TableIndex::from_memtable(&active.index)?, live, active.base)
        };
        let seq = writer.take_seq();
        let mut value = [0u8; SEAL_VALUE];
        value[..8].copy_from_slice(&seq.to_le_bytes());
        value[8..].copy_from_slice(&writer.log_len.to_le_bytes());
        let mut marker = Vec::with_capacity(SEAL_RECORD);
        wal_record_into(&mut marker, OP_SEAL, &[], &value);
        let durable = (&writer.log.file)
            .write_all(&marker)
            .and_then(|()| writer.log.file.sync_data())
            .map_err(YokanError::from);
        if let Err(e) = durable {
            writer.undo_append(&e);
            return Err(e);
        }
        writer.log_len += marker.len() as u64;
        let log = Arc::clone(&writer.log);
        log.total.fetch_add(writer.active_value_bytes, Ordering::AcqRel);
        log.live.fetch_add(live, Ordering::AcqRel);
        let table = Arc::new(SsTable::range(seq, start, writer.log_len, log, index));
        writer.active_bytes = 0;
        writer.active_value_bytes = 0;
        writer.seals_in_log += 1;
        // A log that cannot be created now is tried again at the next seal.
        let rotated = writer.seals_in_log >= self.seals_per_log()
            && self.rotate(stripe.index, writer).is_ok();
        {
            let mut active = stripe.active.write();
            active.index.clear();
            active.log.clear();
            active.base = writer.log_len;
            // Publish under the active write lock: readers check `active`
            // first, so anything they no longer find there must already be
            // visible in the snapshot.
            Self::publish(stripe, |old| Snapshot {
                generation: old.generation + 1,
                tables: old.tables.iter().cloned().chain([table]).collect(),
                log: Arc::clone(&writer.log),
            });
        }
        if rotated {
            // Merges may have freed every value of the log left behind
            // while it was still appended to.
            self.unlink_unneeded(stripe, writer);
        }
        Ok(())
    }

    /// Moves the stripe on to a new value log. A log that cannot be
    /// created leaves the stripe appending to the one it has.
    fn rotate(&self, stripe: usize, writer: &mut StripeWriter) -> Result<(), YokanError> {
        let log = ValueFile::create_log(&self.dir, stripe, writer.take_seq())?;
        writer.log.appending.store(false, Ordering::Release);
        writer.files.insert(log.id, Arc::clone(&log));
        writer.log = log;
        writer.log_len = 0;
        writer.seals_in_log = 0;
        Ok(())
    }

    /// Post-append check: seals past `memtable_bytes`, and merges before
    /// returning if the new range completes a run.
    fn maybe_seal(&self, stripe: &Stripe, writer: &mut StripeWriter) -> Result<(), YokanError> {
        if writer.active_bytes < self.config.memtable_bytes {
            return Ok(());
        }
        self.seal_locked(stripe, writer)?;
        self.merge_locked(stripe, writer)
    }

    /// Merges until no run of `stripe` qualifies: the only merge loop.
    /// Runs with the writer lock held, so no other merge of the stripe
    /// runs and no seal lands meanwhile.
    fn merge_locked(&self, stripe: &Stripe, writer: &mut StripeWriter) -> Result<(), YokanError> {
        while let Some(run) = self.claim_run(stripe, writer) {
            let product = self.compact_run(stripe, &run)?;
            self.retire(stripe, writer, &run, &product)?;
        }
        Ok(())
    }

    /// Size tier of a table standing for `bytes` bytes:
    /// `⌊log_(max_tables+1)(bytes / memtable_bytes)⌋`, 0 for anything
    /// smaller than a memtable. Merging a full tier (`max_tables + 1`
    /// tables) of sealed memtables yields a table of the next tier.
    fn tier(&self, bytes: u64) -> u32 {
        let width = self.config.max_tables as u64 + 1;
        let mut tier = 0;
        let mut next_tier_at = (self.config.memtable_bytes.max(1) as u64).saturating_mul(width);
        while bytes >= next_tier_at && next_tier_at < u64::MAX {
            tier += 1;
            next_tier_at = next_tier_at.saturating_mul(width);
        }
        tier
    }

    /// Length of the run: the longest suffix of `tables` (oldest →
    /// newest) whose tiers do not exceed the newest table's.
    fn run_len(&self, tables: &[Arc<SsTable>]) -> usize {
        let Some(newest) = tables.last().map(|t| self.tier(t.bytes)) else { return 0 };
        tables.iter().rev().take_while(|t| self.tier(t.bytes) <= newest).count()
    }

    /// The compaction picker: claims the stripe's run if it is longer than
    /// `max_tables`, with the next sequence number for its product.
    /// Callers hold the writer lock.
    ///
    /// A run is a suffix of the list when it is claimed and its product
    /// takes the then-highest sequence number, so "higher sequence =
    /// newer" keeps holding. A run also
    /// takes every unmerged range, whatever its size: unmerged ranges are
    /// then always the newest tables, and a product's watermark says that
    /// every seal up to it is merged — which is how `open` knows which
    /// ranges of a log are tables.
    fn claim_run(&self, stripe: &Stripe, writer: &mut StripeWriter) -> Option<Run> {
        let snap = Self::snapshot_arc(stripe);
        let run = self.run_len(&snap.tables);
        if run <= self.config.max_tables {
            return None;
        }
        let first_range = snap.tables.iter().position(|t| t.range_log().is_some());
        let start = first_range.map_or(snap.tables.len() - run, |r| r.min(snap.tables.len() - run));
        let seq = writer.take_seq();
        Some(Run {
            inputs: snap.tables[start..].to_vec(),
            seq,
            reaches_oldest: start == 0,
            retired: writer.retired.keys().copied().collect(),
            clear: false,
        })
    }

    /// Merges `run` into one table: a streaming k-way walk over the
    /// inputs' indexes, newest entry winning. A surviving value keeps its
    /// place — the product references it — unless its file is mostly
    /// dead, in which case it is read and copied in. Tombstones are
    /// dropped only when the run reaches the stripe's oldest table —
    /// otherwise an older table could still hold the key; a clear's
    /// product keeps no entry at all. The product
    /// replaces exactly its inputs in the list. What the merge shadowed or
    /// copied stops counting as live in its file. Callers hold the writer
    /// lock, so no other merge runs, and call [`Self::retire`] next.
    fn compact_run(&self, stripe: &Stripe, run: &Run) -> Result<Arc<SsTable>, YokanError> {
        let path = table_path(&self.dir, stripe.index, run.seq);
        let mut out = TableWriter::create(&path, &run_prefix(&run.inputs))?;
        let cursors = run
            .inputs
            .iter()
            .map(|table| {
                let table = table.as_ref();
                let entries = table.index.iter_from(&Bound::Unbounded);
                Box::new(entries.map(move |(key, value)| (key, (table, value))))
                    as Cursor<'_, (&SsTable, ValueRef)>
            })
            .collect();
        let mut freed: Vec<(Arc<ValueFile>, u64)> = Vec::new();
        let mut relocated = 0u64;
        let mut merge = NewestWins::new(cursors);
        loop {
            let next = merge.next_with(|(table, value)| free_value(&mut freed, table, value));
            let Some((key, (table, value))) = next else { break };
            if run.clear {
                free_value(&mut freed, table, value);
                continue;
            }
            if value.len == TOMBSTONE {
                if !run.reaches_oldest {
                    out.tombstone(key)?;
                }
                continue;
            }
            if value.len == 0 {
                out.record(key, ValueRef { slot: EMPTY, offset: 0, len: 0 })?;
                continue;
            }
            let file = table.source(value.slot).ok_or_else(|| {
                YokanError::Corrupt(format!(
                    "table {} has no value source {}",
                    table.seq, value.slot
                ))
            })?;
            if file.mostly_dead() {
                out.copy(key, &file.read(value.offset, value.len)?)?;
                free_value(&mut freed, table, value);
                relocated += u64::from(value.len);
            } else {
                out.reference(key, file, value.offset, value.len)?;
            }
        }
        if let Err(fault) = self.check_fail(LsmFailPoint::MidTableWrite) {
            // What a crash here leaves: the records, no trailer.
            out.out.flush()?;
            return Err(fault);
        }
        let inputs: Vec<u64> = run
            .inputs
            .iter()
            .filter(|t| matches!(t.body, Body::Merged { .. }))
            .map(|t| t.seq)
            .chain(run.retired.iter().copied())
            .collect();
        let watermark = run.inputs.iter().map(|t| t.watermark).max().unwrap_or(0);
        let (merged, file_bytes) = out.finish(run.seq, path, watermark, &inputs)?;
        let merged = Arc::new(merged);
        self.compaction_bytes.fetch_add(file_bytes, Ordering::Relaxed);
        self.relocated_bytes.fetch_add(relocated, Ordering::Relaxed);
        let is_input = |table: &Arc<SsTable>| run.inputs.iter().any(|i| Arc::ptr_eq(i, table));
        let mut product = Some(Arc::clone(&merged));
        Self::publish(stripe, |old| Snapshot {
            generation: old.generation + 1,
            tables: old
                .tables
                .iter()
                .filter_map(|t| if is_input(t) { product.take() } else { Some(Arc::clone(t)) })
                .collect(),
            log: Arc::clone(&old.log),
        });
        for (file, bytes) in freed {
            file.live.fetch_sub(bytes, Ordering::AcqRel);
        }
        Ok(merged)
    }

    /// After a merge's product is published: records its copied values
    /// and its retired inputs, then unlinks what nothing needs any more.
    /// The product's trailer lists the inputs, so on disk they retired
    /// when it was renamed into place and may go in any order.
    fn retire(
        &self,
        stripe: &Stripe,
        writer: &mut StripeWriter,
        run: &Run,
        product: &SsTable,
    ) -> Result<(), YokanError> {
        if let Some(own) = &product.own {
            writer.files.insert(own.id, Arc::clone(own));
        }
        for input in &run.inputs {
            if let Body::Merged { path } = &input.body {
                writer.retired.insert(input.seq, path.clone());
            }
        }
        self.check_fail(LsmFailPoint::AfterMergePersist)?;
        self.unlink_unneeded(stripe, writer);
        Ok(())
    }

    /// Unlinks retired tables that hold no value anything references,
    /// then logs with no live value that are neither appended to nor
    /// hold an unmerged range. Readers holding an older snapshot keep the
    /// files open until they let go. The first failure parks in the
    /// deferred-error slot and ends the pass; the next merge retries.
    fn unlink_unneeded(&self, stripe: &Stripe, writer: &mut StripeWriter) {
        let snap = Self::snapshot_arc(stripe);
        let holds_range = |id: u64| snap.tables.iter().any(|t| t.range_log() == Some(id));
        let dead = |id: &u64| writer.files.get(id).is_none_or(|file| file.live() == 0);
        let tables = writer.retired.iter().filter(|(id, _)| dead(id));
        let logs = writer.files.values().filter(|file| {
            file.log && file.id != writer.log.id && file.live() == 0 && !holds_range(file.id)
        });
        let doomed: Vec<(u64, PathBuf)> = tables
            .map(|(id, path)| (*id, path.clone()))
            .chain(logs.map(|file| (file.id, file.path.clone())))
            .collect();
        for (position, (id, path)) in doomed.into_iter().enumerate() {
            let unlinked = match self.check_fail(LsmFailPoint::InputUnlinkFails) {
                Err(fault) if position == 0 => Err(fault),
                _ => std::fs::remove_file(&path).map_err(YokanError::from),
            };
            if let Err(e) = unlinked {
                *self.parked_error.lock() =
                    Some(YokanError::Io(format!("unlink {}: {e}", path.display())));
                break;
            }
            writer.retired.remove(&id);
            writer.files.remove(&id);
        }
    }

    /// The durability barrier: seals and merges every stripe, then
    /// surfaces a parked unlink error.
    fn flush_all(&self) -> Result<(), YokanError> {
        for stripe in self.stripes.iter() {
            let mut writer = stripe.writer.lock();
            self.seal_locked(stripe, &mut writer)?;
            self.merge_locked(stripe, &mut writer)?;
        }
        if let Some(e) = self.parked_error.lock().take() {
            return Err(e);
        }
        Ok(())
    }

    /// Read-locks every stripe's active memtable in ascending stripe
    /// index (ascending rank), then clones every snapshot: an atomic cut
    /// of the whole table.
    fn atomic_cut(
        &self,
    ) -> (Vec<mochi_util::ordered_lock::OrderedReadGuard<'_, Memtable>>, Vec<Arc<Snapshot>>) {
        let actives: Vec<_> = self.stripes.iter().map(|s| s.active.read()).collect();
        let snaps: Vec<_> = self.stripes.iter().map(Self::snapshot_arc).collect();
        (actives, snaps)
    }

    /// Live keys of one stripe that start with `prefix`, from `lower`
    /// on, ascending: a k-way merge over the table indexes and the
    /// active memtable's, newest source winning, which a
    /// caller can stop early — O(page) per page instead of O(range).
    /// `active` must be the caller-held guard's contents so the cut is
    /// consistent.
    fn live_keys<'a>(
        snap: &'a Snapshot,
        active: &'a Memtable,
        prefix: &'a [u8],
        lower: &Bound<Vec<u8>>,
    ) -> impl Iterator<Item = SplitKey<'a>> {
        // Sources ordered oldest → newest; the active memtable is last.
        let from_active = active.index.range::<Vec<u8>, _>((lower.clone(), Bound::Unbounded));
        let cursors = snap
            .tables
            .iter()
            .map(|table| {
                Box::new(table.index.iter_from(lower).map(|(key, value)| (key, value.len)))
                    as Cursor<'a, u32>
            })
            .chain([Box::new(from_active.map(|(k, loc)| (SplitKey::whole(k), loc.len)))
                as Cursor<'a, _>])
            .collect();
        // Every cursor is sorted, so once the smallest head leaves the
        // prefix nothing later can be inside it.
        NewestWins::new(cursors)
            .take_while(move |(key, _)| key.starts_with(prefix))
            .filter_map(|(key, len)| (len != TOMBSTONE).then_some(key))
    }
}

/// Recovers one stripe from its `.tbl` files and value logs:
///
/// 1. every `.tbl` is read and verified as a whole;
/// 2. one that another lists as an input was retired when that one was
///    renamed into place: it is no table, and at most a value source;
/// 3. `W` is the highest watermark of the tables that remain;
/// 4. the logs are scanned: ranges whose `SEAL` is at or below `W` are
///    merged, later ones are tier-0 tables;
/// 5. the unterminated tail of the newest log is the active memtable, a
///    torn record there cut off;
/// 6. a bad record before a log's last `SEAL` is `Corrupt`, and so is a
///    table that references a file that is not there;
/// 7. a retired table or a log that nothing references is unlinked.
fn recover_stripe(
    dir: &Path,
    index: usize,
    mut tbl_paths: Vec<(u64, PathBuf)>,
    mut log_paths: Vec<(u64, PathBuf)>,
) -> Result<Stripe, YokanError> {
    tbl_paths.sort();
    let mut loaded = Vec::with_capacity(tbl_paths.len());
    for (seq, path) in tbl_paths {
        loaded.push(TableFile::read(seq, path)?);
    }
    let listed: BTreeSet<u64> = loaded.iter().flat_map(|t| t.inputs.iter().copied()).collect();
    let (retired, current): (Vec<TableFile>, Vec<TableFile>) =
        loaded.into_iter().partition(|t| listed.contains(&t.seq));
    let watermark = current.iter().map(|t| t.watermark).max().unwrap_or(0);
    let seen = current.iter().chain(&retired).map(|t| t.seq).chain(listed.iter().copied());
    let mut next_seq = seen.max().unwrap_or(0) + 1;

    log_paths.sort();
    let newest = log_paths.last().map(|(number, _)| *number);
    let mut files: BTreeMap<u64, Arc<ValueFile>> = BTreeMap::new();
    let mut tables: Vec<SsTable> = Vec::new();
    let mut active = None;
    for (number, path) in log_paths {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| YokanError::Io(format!("open {}: {e}", path.display())))?;
        let mut scan = scan_log(&path, &file, watermark)?;
        if Some(number) != newest && scan.tail.base != scan.len {
            return Err(YokanError::Corrupt(format!(
                "{} ends in records no seal closes, below a newer log",
                path.display()
            )));
        }
        let last_seal = scan.ranges.iter().map(|range| range.seq).max().unwrap_or(0);
        next_seq = next_seq.max(number + 1).max(last_seal + 1);
        let log = Arc::new(ValueFile::new(number, path, file, true, scan.value_bytes, 0));
        for range in &mut scan.ranges {
            if let Some(records) = range.index.take() {
                let range_index = TableIndex::from_memtable(&records)?;
                let log = Arc::clone(&log);
                tables.push(SsTable::range(range.seq, range.start, range.end, log, range_index));
            }
        }
        if Some(number) == newest {
            log.appending.store(true, Ordering::Release);
            active = Some((Arc::clone(&log), scan));
        }
        files.insert(number, log);
    }

    for table in current.iter().chain(&retired).filter(|t| t.inline_bytes > 0) {
        let file = table.file.try_clone()?;
        let own = ValueFile::new(table.seq, table.path.clone(), file, false, table.inline_bytes, 0);
        files.insert(table.seq, Arc::new(own));
    }
    for table in current {
        let mut sources = Vec::with_capacity(table.sources.len());
        for id in &table.sources {
            sources.push(Arc::clone(files.get(id).ok_or_else(|| {
                YokanError::Corrupt(format!(
                    "{} references value file {id} of stripe {index}, which is missing",
                    table.path.display()
                ))
            })?));
        }
        let own = files.get(&table.seq).cloned();
        let bytes = table.len + table.referenced_bytes;
        let body = Body::Merged { path: table.path };
        let (seq, mark) = (table.seq, table.watermark);
        tables.push(SsTable::new(seq, body, bytes, mark, table.index, sources, own));
    }
    tables.sort_by_key(|table| table.seq);
    for table in &tables {
        for (_, value) in table.index.iter_from(&Bound::Unbounded) {
            if value.len != TOMBSTONE && value.len > 0 {
                if let Some(file) = table.source(value.slot) {
                    file.live.fetch_add(u64::from(value.len), Ordering::AcqRel);
                }
            }
        }
    }

    let holds_range = |id: u64| tables.iter().any(|t| t.range_log() == Some(id));
    let mut retired_paths = BTreeMap::new();
    for table in retired {
        if files.get(&table.seq).is_none_or(|file| file.live() == 0) {
            std::fs::remove_file(&table.path)?;
            files.remove(&table.seq);
        } else {
            retired_paths.insert(table.seq, table.path);
        }
    }
    let unreferenced: Vec<u64> = files
        .values()
        .filter(|f| f.log && Some(f.id) != newest && f.live() == 0 && !holds_range(f.id))
        .map(|f| f.id)
        .collect();
    for id in unreferenced {
        if let Some(log) = files.remove(&id) {
            std::fs::remove_file(&log.path)?;
        }
    }

    let (log, seals_in_log, memtable, active_bytes, active_value_bytes) = match active {
        Some((log, scan)) => {
            // A torn tail, which only a crash mid-append leaves: what is
            // appended next must follow the last whole record.
            if scan.valid < scan.len {
                log.file.set_len(scan.valid)?;
            }
            (log, scan.ranges.len(), scan.tail, scan.tail_bytes, scan.tail_value_bytes)
        }
        None => {
            let log = ValueFile::create_log(dir, index, next_seq)?;
            next_seq += 1;
            files.insert(log.id, Arc::clone(&log));
            (log, 0, Memtable::default(), 0, 0)
        }
    };
    let log_len = memtable.base + memtable.log.len() as u64;
    let snapshot = Snapshot {
        generation: 0,
        tables: tables.into_iter().map(Arc::new).collect(),
        log: Arc::clone(&log),
    };
    Ok(Stripe {
        index,
        writer: OrderedMutex::new(
            rank::LSM_WRITER_BASE + index as u32,
            "lsm.writer",
            StripeWriter {
                log,
                log_len,
                seals_in_log,
                active_bytes,
                active_value_bytes,
                next_seq,
                poisoned: None,
                files,
                retired: retired_paths,
            },
        ),
        active: OrderedRwLock::new(rank::LSM_ACTIVE_BASE + index as u32, "lsm.active", memtable),
        snapshot: OrderedRwLock::new(
            rank::LSM_SNAPSHOT_BASE + index as u32,
            "lsm.snapshot",
            Arc::new(snapshot),
        ),
    })
}

impl LsmDatabase {
    /// Opens (or creates) a database in `dir`: per stripe, the merged
    /// tables, the unmerged ranges of its value logs and the active
    /// memtable (see `recover_stripe`). A directory written by a layout
    /// older than value logs is refused as `Corrupt`, naming the file.
    pub fn open(dir: impl Into<PathBuf>, config: LsmConfig) -> Result<Self, YokanError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let configured = config.stripes.clamp(1, MAX_STRIPES);
        let stripe_count = stripe_manifest(&dir, configured)?;

        let mut tables: Vec<Vec<(u64, PathBuf)>> = vec![Vec::new(); stripe_count];
        let mut logs: Vec<Vec<(u64, PathBuf)>> = vec![Vec::new(); stripe_count];
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            let (bucket, prefix) = match path.extension().and_then(|x| x.to_str()) {
                Some("tbl") => (&mut tables, "sst-"),
                Some("log") if name.starts_with("wal-") => (&mut logs, "wal-"),
                Some("seg") => return Err(older_layout(&path)),
                Some("tmp") if name.starts_with("sst-") => {
                    // A merge whose write never completed: everything in
                    // it is still in its inputs.
                    std::fs::remove_file(&path).ok();
                    continue;
                }
                _ => continue,
            };
            let Some((stripe, number)) = parse_striped_name(&path, prefix) else {
                return Err(if prefix == "wal-" {
                    older_layout(&path)
                } else {
                    YokanError::Corrupt(format!("bad file name {}", path.display()))
                });
            };
            if stripe >= stripe_count {
                return Err(YokanError::Corrupt(format!(
                    "{} belongs to stripe {stripe} but the manifest says {stripe_count}",
                    path.display()
                )));
            }
            bucket[stripe].push((number, path));
        }

        let mut stripes = Vec::with_capacity(stripe_count);
        for (index, (tables, logs)) in tables.into_iter().zip(logs).enumerate() {
            stripes.push(recover_stripe(&dir, index, tables, logs)?);
        }
        Ok(Self {
            inner: LsmInner {
                dir,
                // A tier is at least one table wide: a run of one table
                // has nothing to merge with.
                config: LsmConfig {
                    stripes: stripe_count,
                    max_tables: config.max_tables.max(1),
                    ..config
                },
                stripes: stripes.into_boxed_slice(),
                parked_error: OrderedMutex::new(rank::LSM_BG_ERROR, "lsm.bg_error", None),
                fail_point: AtomicU8::new(LsmFailPoint::None as u8),
                compaction_bytes: AtomicU64::new(0),
                relocated_bytes: AtomicU64::new(0),
            },
        })
    }

    /// Arms (or with [`LsmFailPoint::None`] clears) a fault-injection
    /// point in the write and merge paths. Test hook for
    /// crash-recovery coverage.
    pub fn set_fail_point(&self, point: LsmFailPoint) {
        self.inner.fail_point.store(point as u8, Ordering::Release);
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.inner.stripes.len()
    }

    /// Total tables — unmerged ranges and merged tables — across stripes
    /// (diagnostics / tests).
    pub fn table_count(&self) -> usize {
        self.inner.stripes.iter().map(|s| LsmInner::snapshot_arc(s).tables.len()).sum()
    }

    /// The bytes each table stands for — what decides its compaction tier
    /// — stripe by stripe, oldest first (diagnostics / tests).
    pub fn table_bytes(&self) -> Vec<u64> {
        let snaps = self.inner.stripes.iter().map(LsmInner::snapshot_arc);
        snaps.flat_map(|snap| snap.tables.iter().map(|t| t.bytes).collect::<Vec<_>>()).collect()
    }

    /// Bytes compaction has written — the merged tables' file sizes —
    /// since this instance was opened (diagnostics / tests): over the
    /// user bytes ingested, the write amplification compaction adds.
    pub fn compaction_bytes_written(&self) -> u64 {
        self.inner.compaction_bytes.load(Ordering::Relaxed)
    }

    /// Sum of per-stripe snapshot generations (diagnostics / tests);
    /// advances on every publication anywhere in the database.
    pub fn snapshot_generation(&self) -> u64 {
        self.inner.stripes.iter().map(|s| LsmInner::snapshot_arc(s).generation).sum()
    }

    /// Takes the deferred unlink error, if any, without forcing a flush
    /// (diagnostics / tests).
    pub fn take_background_error(&self) -> Option<YokanError> {
        self.inner.parked_error.lock().take()
    }

    /// Files, value bytes, merge traffic and index memory, for the
    /// provider's configuration dump. Read from the snapshots, so it never
    /// waits for a merge: the files are those the tables read from and the
    /// active log — a dead file whose unlink is still pending is left out.
    pub fn stats(&self) -> LsmStats {
        let mut stats = LsmStats {
            bytes_merged: self.inner.compaction_bytes.load(Ordering::Relaxed),
            bytes_relocated: self.inner.relocated_bytes.load(Ordering::Relaxed),
            ..LsmStats::default()
        };
        let (mut index_bytes, mut keys) = (0, 0);
        for stripe in self.inner.stripes.iter() {
            let snap = LsmInner::snapshot_arc(stripe);
            let sources = snap.tables.iter().flat_map(|t| t.sources.iter().chain(&t.own));
            let mut files: Vec<&Arc<ValueFile>> = sources.chain([&snap.log]).collect();
            // Logs and tables draw their numbers from one sequence.
            files.sort_unstable_by_key(|file| file.id);
            files.dedup_by_key(|file| file.id);
            for file in files {
                stats.logs += usize::from(file.log);
                stats.value_bytes_live += file.live();
                stats.value_bytes_total += file.total.load(Ordering::Relaxed);
            }
            stats.tables += snap.tables.len();
            index_bytes += snap.tables.iter().map(|t| t.index.heap_bytes()).sum::<usize>();
            keys += snap.tables.iter().map(|t| t.index.len()).sum::<usize>();
        }
        if keys > 0 {
            stats.index_bytes_per_key = index_bytes as f64 / keys as f64;
        }
        stats
    }

    /// Logs and applies `records` to `stripe` under its writer lock if
    /// `admit` agrees, then seals (and merges) if that filled the
    /// memtable. `admit` runs under the lock, which freezes the stripe's
    /// writes and seals: what it looks up cannot change before the write
    /// lands. Returns whether it agreed.
    fn write_with<'a>(
        &self,
        stripe: &Stripe,
        records: impl Iterator<Item = Record<'a>> + Clone,
        admit: impl FnOnce() -> Result<bool, YokanError>,
    ) -> Result<bool, YokanError> {
        let mut writer = stripe.writer.lock();
        if !admit()? {
            return Ok(false);
        }
        self.inner.append(stripe, &mut writer, records)?;
        self.inner.maybe_seal(stripe, &mut writer)?;
        Ok(true)
    }
}

impl Database for LsmDatabase {
    fn backend_name(&self) -> &'static str {
        "lsm"
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), YokanError> {
        let put = std::iter::once((OP_PUT, key, value));
        self.write_with(self.inner.stripe_of(key), put, || Ok(true)).map(|_stored| ())
    }

    fn put_if_newer(&self, key: &[u8], record: &[u8]) -> Result<(bool, bool), YokanError> {
        let mut was_live = false;
        let put = std::iter::once((OP_PUT, key, record));
        let stored = self.write_with(self.inner.stripe_of(key), put, || {
            Ok(match self.inner.lookup_live(key)? {
                None => true,
                Some(current) => {
                    was_live = !decode_record(&current).tombstone;
                    record_is_newer(record, &current)
                }
            })
        })?;
        Ok((stored, was_live))
    }

    fn put_multi(&self, pairs: &[(&[u8], &[u8])]) -> Result<(), YokanError> {
        // Group by stripe so each stripe's writer lock is taken once per
        // batch (one log write per group),
        // one stripe at a time — never two writer locks together.
        let mut groups: Vec<Vec<Record<'_>>> = vec![Vec::new(); self.inner.stripes.len()];
        for &(key, value) in pairs {
            groups[self.inner.stripe_index(key)].push((OP_PUT, key, value));
        }
        for (stripe, group) in self.inner.stripes.iter().zip(&groups) {
            if !group.is_empty() {
                self.write_with(stripe, group.iter().copied(), || Ok(true))?;
            }
        }
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, YokanError> {
        self.inner.lookup_live(key)
    }

    fn get_multi(&self, keys: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>, YokanError> {
        // Group by stripe: one active-read pass and one snapshot clone
        // per stripe visited.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.inner.stripes.len()];
        for (i, key) in keys.iter().enumerate() {
            groups[self.inner.stripe_index(key)].push(i);
        }
        let mut values: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
        for (stripe, group) in self.inner.stripes.iter().zip(&groups) {
            if group.is_empty() {
                continue;
            }
            let mut misses: Vec<usize> = Vec::new();
            {
                let active = stripe.active.read();
                for &i in group {
                    match active.get(keys[i]) {
                        Some(entry) => values[i] = entry,
                        None => misses.push(i),
                    }
                }
            }
            if misses.is_empty() {
                continue;
            }
            let snap = LsmInner::snapshot_arc(stripe);
            for i in misses {
                values[i] = snap.lookup(keys[i])?.flatten();
            }
        }
        Ok(values)
    }

    fn erase(&self, key: &[u8]) -> Result<bool, YokanError> {
        // Stripe-local liveness check under this stripe's writer lock:
        // holding it freezes the stripe's seals, so the
        // active-then-snapshot lookup is stable, and no other stripe is
        // consulted — a key can only ever live in the stripe it hashes
        // to. A key that is not live logs no tombstone.
        let erase = std::iter::once((OP_ERASE, key, &[][..]));
        self.write_with(self.inner.stripe_of(key), erase, || {
            Ok(self.inner.lookup_live(key)?.is_some())
        })
    }

    fn list_keys(
        &self,
        prefix: &[u8],
        start_after: Option<&[u8]>,
        max: usize,
    ) -> Result<Vec<Vec<u8>>, YokanError> {
        let (actives, snaps) = self.inner.atomic_cut();
        let lower: Bound<Vec<u8>> = match start_after {
            Some(s) if s >= prefix => Bound::Excluded(s.to_vec()),
            _ => Bound::Included(prefix.to_vec()),
        };
        // Stripes hold disjoint key sets: each contributes at most `max`
        // candidates; the merged, sorted list is truncated to the global
        // `max`.
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for (snap, active) in snaps.iter().zip(&actives) {
            keys.extend(
                LsmInner::live_keys(snap, active, prefix, &lower).take(max).map(SplitKey::to_vec),
            );
        }
        keys.sort_unstable();
        keys.truncate(max);
        Ok(keys)
    }

    fn len(&self) -> Result<u64, YokanError> {
        let (actives, snaps) = self.inner.atomic_cut();
        let mut count = 0u64;
        for (snap, active) in snaps.iter().zip(&actives) {
            count += LsmInner::live_keys(snap, active, b"", &Bound::Unbounded).count() as u64;
        }
        Ok(count)
    }

    fn flush(&self) -> Result<(), YokanError> {
        self.inner.flush_all()
    }

    fn clear(&self) -> Result<(), YokanError> {
        for stripe in self.inner.stripes.iter() {
            let mut writer = stripe.writer.lock();
            // Everything goes at once, the way a merge retires its run:
            // the tail is sealed into a range, the stripe moves on to a
            // fresh log, and one empty `.tbl` replaces every table — its
            // trailer lists every current and retired one, its watermark
            // covers every seal. A crash before its rename leaves the
            // stripe as it was, one after it an empty stripe; the old
            // files go as a merge's inputs do.
            let inner = &self.inner;
            inner.seal_locked(stripe, &mut writer)?;
            let snap = LsmInner::snapshot_arc(stripe);
            if snap.tables.iter().all(|table| table.index.first().is_none()) {
                // Nothing to clear: no table holds a key.
                continue;
            }
            if writer.log_len > 0 {
                inner.rotate(stripe.index, &mut writer)?;
                let log = Arc::clone(&writer.log);
                // The memtable is empty, and now at the new log's start.
                stripe.active.write().base = 0;
                LsmInner::publish(stripe, |old| Snapshot {
                    generation: old.generation + 1,
                    tables: old.tables.clone(),
                    log,
                });
            }
            let run = Run {
                inputs: snap.tables.clone(),
                seq: writer.take_seq(),
                reaches_oldest: true,
                retired: writer.retired.keys().copied().collect(),
                clear: true,
            };
            let product = inner.compact_run(stripe, &run)?;
            inner.retire(stripe, &mut writer, &run, &product)?;
        }
        Ok(())
    }

    fn dump(&self) -> Result<super::KvPairs, YokanError> {
        let (actives, snaps) = self.inner.atomic_cut();
        let mut out = Vec::new();
        for (snap, active) in snaps.iter().zip(&actives) {
            for key in LsmInner::live_keys(snap, active, b"", &Bound::Unbounded) {
                let key = key.to_vec();
                let value = match active.get(&key) {
                    Some(entry) => entry,
                    None => snap.lookup(&key)?.flatten(),
                };
                let value =
                    value.ok_or_else(|| YokanError::Corrupt("key vanished during dump".into()))?;
                out.push((key, value));
            }
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::super::conformance;
    use super::*;
    use mochi_util::TempDir;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn tiny_config() -> LsmConfig {
        // Small thresholds so tests exercise seals and compaction;
        // several stripes so routing is exercised too.
        LsmConfig { memtable_bytes: 256, max_tables: 3, stripes: 4 }
    }

    fn open(dir: &TempDir) -> LsmDatabase {
        LsmDatabase::open(dir.path(), tiny_config()).unwrap()
    }

    /// The files in `dir` with extension `ext`, by name.
    fn files(dir: &Path, ext: &str) -> Vec<PathBuf> {
        let entries = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
        let mut found: Vec<PathBuf> =
            entries.filter(|p| p.extension().is_some_and(|x| x == ext)).collect();
        found.sort();
        found
    }

    #[test]
    fn conformance_suite() {
        for case in 0..7 {
            let dir = TempDir::new("lsm-conf").unwrap();
            let db = open(&dir);
            match case {
                0 => conformance::basic_ops(&db),
                1 => conformance::listing(&db),
                2 => {
                    let dir2 = TempDir::new("lsm-conf2").unwrap();
                    conformance::dump_and_load(&db, &open(&dir2));
                }
                3 => conformance::clear(&db),
                4 => conformance::multi_ops(&db),
                5 => conformance::put_if_newer(&db),
                _ => conformance::empty_and_binary_keys(&db),
            }
        }
    }

    #[test]
    fn put_if_newer_compares_against_flushed_tables_and_survives_reopen() {
        use crate::version::encode_record;
        let dir = TempDir::new("lsm-newer").unwrap();
        let (old, new) = (encode_record(1, Some(b"old")), encode_record(2, Some(b"new")));
        {
            let db = open(&dir);
            assert_eq!(db.put_if_newer(b"k", &new).unwrap(), (true, false));
            db.flush().unwrap();
            assert!(db.table_count() >= 1);
            assert_eq!(db.put_if_newer(b"k", &old).unwrap(), (false, true), "incumbent on disk");
            assert_eq!(db.put_if_newer(b"fresh", &old).unwrap(), (true, false));
        }
        let db = open(&dir);
        assert_eq!(db.get(b"k").unwrap().as_deref(), Some(new.as_slice()));
        assert_eq!(
            db.get(b"fresh").unwrap().as_deref(),
            Some(old.as_slice()),
            "replayed from the log"
        );
    }

    #[test]
    fn survives_reopen_with_wal_only() {
        let dir = TempDir::new("lsm-wal").unwrap();
        {
            let db = LsmDatabase::open(dir.path(), LsmConfig::default()).unwrap();
            db.put(b"persist", b"me").unwrap();
            db.erase(b"persist2").ok();
            // No flush: data only in the log + memtable.
            assert_eq!(db.table_count(), 0);
        }
        let db = LsmDatabase::open(dir.path(), LsmConfig::default()).unwrap();
        assert_eq!(db.get(b"persist").unwrap().as_deref(), Some(b"me".as_slice()));
        assert_eq!(db.table_count(), 0);
    }

    #[test]
    fn survives_reopen_with_tables_and_wal() {
        let dir = TempDir::new("lsm-mixed").unwrap();
        {
            let db = open(&dir);
            for i in 0..100u32 {
                db.put(format!("key-{i:04}").as_bytes(), &[b'x'; 64]).unwrap();
            }
            db.erase(b"key-0007").unwrap();
            assert!(db.table_count() >= 1, "expected seals with tiny memtable");
        }
        let db = open(&dir);
        assert_eq!(db.len().unwrap(), 99);
        assert_eq!(db.get(b"key-0007").unwrap(), None);
        assert_eq!(db.get(b"key-0042").unwrap().as_deref(), Some(vec![b'x'; 64].as_slice()));
    }

    #[test]
    fn batched_puts_survive_reopen() {
        let dir = TempDir::new("lsm-batch").unwrap();
        {
            let db = LsmDatabase::open(dir.path(), LsmConfig::default()).unwrap();
            let pairs: Vec<(Vec<u8>, Vec<u8>)> =
                (0..10u32).map(|i| (format!("b{i}").into_bytes(), vec![i as u8])).collect();
            let borrowed: Vec<(&[u8], &[u8])> =
                pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
            db.put_multi(&borrowed).unwrap();
        }
        let db = LsmDatabase::open(dir.path(), LsmConfig::default()).unwrap();
        assert_eq!(db.len().unwrap(), 10);
        assert_eq!(db.get(b"b7").unwrap().as_deref(), Some([7u8].as_slice()));
    }

    #[test]
    fn compaction_bounds_table_count_and_preserves_data() {
        let dir = TempDir::new("lsm-compact").unwrap();
        let db = open(&dir);
        for round in 0..10u32 {
            for i in 0..20u32 {
                db.put(format!("k{i:03}").as_bytes(), format!("r{round}").as_bytes()).unwrap();
            }
            db.flush().unwrap();
        }
        // Twenty keys overwritten every round never outgrow tier 0, so
        // every stripe's run is the whole stripe and a flush leaves at
        // most `max_tables` tables behind.
        let config = tiny_config();
        assert!(db.table_count() <= config.stripes * config.max_tables);
        // Latest round wins.
        assert_eq!(db.get(b"k010").unwrap().as_deref(), Some(b"r9".as_slice()));
        assert_eq!(db.len().unwrap(), 20);
    }

    #[test]
    fn max_tables_zero_is_clamped_to_tiers_of_one_table() {
        // From a provider's JSON config; unclamped, a run of one table
        // would qualify for ever.
        let dir = TempDir::new("lsm-zero").unwrap();
        let db =
            LsmDatabase::open(dir.path(), LsmConfig { max_tables: 0, ..tiny_config() }).unwrap();
        for round in 0..5u32 {
            for i in 0..20u32 {
                db.put(format!("k{i:03}").as_bytes(), format!("r{round}").as_bytes()).unwrap();
            }
            db.flush().unwrap();
        }
        assert!(db.table_count() <= tiny_config().stripes);
        assert_eq!(db.get(b"k010").unwrap().as_deref(), Some(b"r4".as_slice()));
        assert_eq!(db.len().unwrap(), 20);
    }

    /// Bytes this thread has handed to `write` so far (Linux task I/O
    /// accounting) — whatever file they went to.
    fn thread_bytes_written() -> u64 {
        let io = std::fs::read_to_string("/proc/thread-self/io").expect("task I/O accounting");
        let wchar = io.lines().find_map(|line| line.strip_prefix("wchar: "));
        wchar.expect("a wchar line").parse().unwrap()
    }

    #[test]
    fn a_value_is_written_once() {
        // 64 memtables of never-seen keys, 16 records of 12 + 1012 bytes
        // each, into one stripe with tiers of `max_tables + 1` = 5 and
        // logs of 25 memtables.
        let config = LsmConfig { memtable_bytes: 16 << 10, max_tables: 4, stripes: 1 };
        let dir = TempDir::new("lsm-tiers").unwrap();
        let key = |i: u32| format!("ingest-{i:05}").into_bytes();
        let value = |i: u32| vec![i as u8; 1012];
        let check = |db: &LsmDatabase| {
            assert_eq!(db.len().unwrap(), 1024);
            for i in 0..1024 {
                assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
            }
        };
        {
            let db = LsmDatabase::open(dir.path(), config).unwrap();
            let written_before = thread_bytes_written();
            for i in 0..1024 {
                if i == 4 * 16 {
                    // Four seals, no merge yet: four ranges of one log.
                    assert_eq!(
                        (files(dir.path(), "log").len(), files(dir.path(), "tbl").len()),
                        (1, 0)
                    );
                    assert_eq!(db.table_count(), 4);
                    assert_eq!(db.compaction_bytes_written(), 0);
                }
                db.put(&key(i), &value(i)).unwrap();
            }
            // Every fifth seal merged 5 × 16 records into a tier-1 table
            // (12 times), every fifth of those 5 × 80 into a tier-2 table
            // (twice): 1,760 records of a 16-byte header and what is left
            // of a 12-byte key past the table's prefix, and 14 trailers
            // of at most a footer, the prefix, three logs and five inputs.
            // Moving values too rewrote 1.83 bytes per user byte.
            let user_bytes = 1024 * (12 + 1012);
            let merged = db.compaction_bytes_written();
            let trailer = (TBL_FOOTER + 4 + 12 + 8 * (3 + 5)) as u64;
            assert!(merged <= 1760 * (TBL_RECORD as u64 + 12) + 14 * trailer, "{merged}");
            assert!(merged * 10 <= user_bytes, "{merged} bytes merged for {user_bytes}");
            // Everything this thread wrote to any file: each record once
            // to its log, framed, a marker per seal, and the keys and
            // references the merges wrote. No value was written twice.
            let log_bytes = 1024 * (WAL_FRAMING as u64 + 12 + 1012) + 64 * SEAL_RECORD as u64;
            assert_eq!(thread_bytes_written() - written_before, log_bytes + merged);
            let stats = db.stats();
            assert_eq!(stats.bytes_relocated, 0);
            assert_eq!(
                (stats.value_bytes_live, stats.value_bytes_total),
                (1024 * 1012, 1024 * 1012)
            );
            // Two tier-2 tables, two tier-1, four ranges; 64 seals fill
            // two logs of 25 and start a third.
            assert_eq!(db.table_count(), 8);
            assert_eq!((stats.logs, files(dir.path(), "log").len()), (3, 3));
            assert_eq!(files(dir.path(), "tbl").len(), 4);
            check(&db);
        }
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        assert_eq!(db.table_count(), 8, "merged ranges stay merged");
        assert_eq!(db.stats().value_bytes_live, 1024 * 1012);
        check(&db);
    }

    #[test]
    fn a_log_that_loses_its_last_live_byte_is_closed_and_unlinked() {
        // Logs of (1 + 1)² = 4 seals; one key overwritten by puts that
        // each seal a memtable.
        let config = LsmConfig { memtable_bytes: 256, max_tables: 1, stripes: 1 };
        let dir = TempDir::new("lsm-dead-log").unwrap();
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        let first = files(dir.path(), "log").remove(0);
        let open_on = |path: &Path| {
            std::fs::read_dir("/proc/self/fd")
                .unwrap()
                .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
                .filter(|target| target.to_string_lossy().starts_with(&*path.to_string_lossy()))
                .count()
        };
        assert_eq!(open_on(&first), 1);
        for round in 0..12u8 {
            db.put(b"k", &[round; 300]).unwrap();
        }
        // The first log's last value was shadowed by a merge of the third:
        // nothing references it, so it is gone and closed.
        assert!(!first.exists(), "{first:?} outlived its last live byte");
        assert_eq!(open_on(&first), 0, "{first:?} is still open");
        assert!(db.stats().logs <= 2, "{:?}", db.stats());
        assert_eq!(db.get(b"k").unwrap(), Some(vec![11; 300]));
        drop(db);
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(vec![11; 300]));
    }

    #[test]
    fn overwrites_copy_live_values_out_of_mostly_dead_logs() {
        let config = LsmConfig { memtable_bytes: 512, max_tables: 2, stripes: 1 };
        let dir = TempDir::new("lsm-relocate").unwrap();
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        // A key written once beside keys overwritten all the time: its log
        // dies around it, and a merge copies it out.
        db.put(b"cold", &[7; 100]).unwrap();
        for round in 0..60u32 {
            for i in 0..4u32 {
                db.put(format!("hot-{i}").as_bytes(), &[round as u8; 100]).unwrap();
            }
        }
        db.flush().unwrap();
        let stats = db.stats();
        assert!(stats.bytes_relocated > 0, "{stats:?}");
        assert!(stats.value_bytes_total <= 4 * stats.value_bytes_live.max(500), "{stats:?}");
        drop(db);
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        assert_eq!(db.get(b"cold").unwrap(), Some(vec![7; 100]));
        assert_eq!(db.get(b"hot-3").unwrap(), Some(vec![59; 100]));
    }

    #[test]
    fn an_index_takes_at_most_24_bytes_a_key_of_the_benchmark() {
        let config = LsmConfig { memtable_bytes: 64 << 10, max_tables: 4, stripes: 4 };
        let dir = TempDir::new("lsm-index").unwrap();
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        for i in 0..20_000u64 {
            db.put(format!("k-{i:014}").as_bytes(), &[1; 64]).unwrap();
        }
        db.flush().unwrap();
        let per_key = db.stats().index_bytes_per_key;
        assert!(per_key > 16.0 && per_key <= 24.0, "{per_key} bytes a key");
    }

    #[test]
    fn partial_run_keeps_tombstones_that_an_older_table_needs() {
        let config = LsmConfig { memtable_bytes: 256, max_tables: 2, stripes: 1 };
        let dir = TempDir::new("lsm-partial").unwrap();
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        // Three batches that seal once each, merged into one table that
        // stands for ≥ 9 × 256 bytes: the second tier, holding `doomed`.
        for batch in 0..3u32 {
            let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..10u32)
                .map(|i| (format!("big-{batch}-{i}").into_bytes(), vec![b'x'; 100]))
                .chain([(b"doomed".to_vec(), b"v".to_vec())])
                .collect();
            let refs: Vec<(&[u8], &[u8])> =
                pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
            db.put_multi(&refs).unwrap();
        }
        assert_eq!((db.table_count(), files(dir.path(), "tbl").len()), (1, 1));
        // Three small ranges above it: the run is those three, and its
        // product must still carry the tombstone.
        assert!(db.erase(b"doomed").unwrap());
        db.flush().unwrap();
        for name in [b"a", b"b"] {
            db.put(name, b"1").unwrap();
            db.flush().unwrap();
        }
        assert_eq!(db.table_count(), 2, "the big table and the merged run");
        assert_eq!(db.get(b"doomed").unwrap(), None);
        assert_eq!(db.len().unwrap(), 32);
    }

    #[test]
    fn bloom_filter_has_no_false_negatives_and_few_false_positives() {
        let keys: Vec<Vec<u8>> =
            (0..10_000u32).map(|i| format!("k-{i:014}").into_bytes()).collect();
        let bloom = Bloom::build(keys.len(), keys.iter().map(|k| SplitKey::whole(k)));
        assert!(keys.iter().all(|k| bloom.may_contain(Bloom::hash(k))));
        let false_positives = (10_000..20_000u32)
            .filter(|i| bloom.may_contain(Bloom::hash(format!("k-{i:014}").as_bytes())))
            .count();
        assert!(false_positives < 300, "{false_positives} of 10000 absent keys passed the filter");
        // A table without keys still answers.
        assert!(!Bloom::build(0, [].into_iter()).may_contain(Bloom::hash(b"any")));
    }

    #[test]
    fn tombstones_survive_flush_but_die_in_compaction() {
        let dir = TempDir::new("lsm-tomb").unwrap();
        let db = open(&dir);
        db.put(b"gone", b"soon").unwrap();
        db.flush().unwrap();
        db.erase(b"gone").unwrap();
        db.flush().unwrap();
        assert_eq!(db.get(b"gone").unwrap(), None);
        // Force compaction by flushing past max_tables.
        for i in 0..20u32 {
            db.put(format!("fill{i}").as_bytes(), b"x").unwrap();
            db.flush().unwrap();
        }
        assert_eq!(db.get(b"gone").unwrap(), None);
        assert_eq!(db.len().unwrap(), 20);
    }

    #[test]
    fn truncated_wal_tail_is_tolerated() {
        let dir = TempDir::new("lsm-torn").unwrap();
        // One stripe so both keys share one log file.
        let config = LsmConfig { stripes: 1, ..LsmConfig::default() };
        {
            let db = LsmDatabase::open(dir.path(), config).unwrap();
            db.put(b"ok", b"1").unwrap();
            db.put(b"torn", b"2").unwrap();
        }
        // Simulate a torn write: chop bytes off the log's tail.
        let log = files(dir.path(), "log").remove(0);
        let data = std::fs::read(&log).unwrap();
        std::fs::write(&log, &data[..data.len() - 3]).unwrap();
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        assert_eq!(db.get(b"ok").unwrap().as_deref(), Some(b"1".as_slice()));
        assert_eq!(db.get(b"torn").unwrap(), None);
        // And the database remains writable — after the last whole
        // record, not after the torn one, where replay would never reach.
        db.put(b"torn", b"retry").unwrap();
        assert_eq!(db.get(b"torn").unwrap().as_deref(), Some(b"retry".as_slice()));
        drop(db);
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        assert_eq!(db.get(b"ok").unwrap().as_deref(), Some(b"1".as_slice()));
        assert_eq!(db.get(b"torn").unwrap().as_deref(), Some(b"retry".as_slice()));
    }

    #[test]
    fn a_torn_tail_whose_value_holds_a_seal_record_is_cut_off() {
        let config = LsmConfig { stripes: 1, ..LsmConfig::default() };
        // A whole `SEAL` record of another log, numbered above every seal
        // of this one: bytes a client may store, e.g. in a backup.
        let other = TempDir::new("lsm-lookalike-src").unwrap();
        let marker = {
            let db = LsmDatabase::open(other.path(), config).unwrap();
            for round in 0..5u8 {
                db.put(b"k", &[round; 200]).unwrap();
                db.flush().unwrap();
            }
            let data = std::fs::read(files(other.path(), "log").remove(0)).unwrap();
            data[data.len() - SEAL_RECORD..].to_vec()
        };
        let dir = TempDir::new("lsm-lookalike").unwrap();
        let kept_len = {
            let db = LsmDatabase::open(dir.path(), config).unwrap();
            db.put(b"kept", b"1").unwrap();
            db.flush().unwrap();
            let kept_len = std::fs::metadata(files(dir.path(), "log").remove(0)).unwrap().len();
            db.put(b"torn", &[&[b'x'; 100][..], &marker, &[b'y'; 100]].concat()).unwrap();
            kept_len
        };
        // A crash tore the put after its copy of the marker.
        let log = files(dir.path(), "log").remove(0);
        let data = std::fs::read(&log).unwrap();
        std::fs::write(&log, &data[..data.len() - 50]).unwrap();
        let db = LsmDatabase::open(dir.path(), config).expect("a torn tail, not rot");
        assert_eq!(std::fs::metadata(&log).unwrap().len(), kept_len, "the tail is cut off");
        assert_eq!(db.get(b"torn").unwrap(), None);
        assert_eq!(db.get(b"kept").unwrap().as_deref(), Some(b"1".as_slice()));
    }

    #[test]
    fn corrupt_sstable_detected() {
        let dir = TempDir::new("lsm-corrupt").unwrap();
        {
            // One key, so one stripe: its fourth seal merges into a `.tbl`.
            let db = open(&dir);
            for round in 0..4u8 {
                db.put(b"k", &[round]).unwrap();
                db.flush().unwrap();
            }
        }
        let table = files(dir.path(), "tbl").remove(0);
        let mut data = std::fs::read(&table).unwrap();
        data[2] ^= 0xff;
        std::fs::write(&table, data).unwrap();
        let err = LsmDatabase::open(dir.path(), tiny_config()).unwrap_err();
        assert!(matches!(err, YokanError::Corrupt(_)));
    }

    #[test]
    fn overwrites_across_flush_boundaries() {
        let dir = TempDir::new("lsm-overwrite").unwrap();
        let db = open(&dir);
        db.put(b"k", b"v1").unwrap();
        db.flush().unwrap();
        db.put(b"k", b"v2").unwrap();
        assert_eq!(db.get(b"k").unwrap().as_deref(), Some(b"v2".as_slice()));
        db.flush().unwrap();
        assert_eq!(db.get(b"k").unwrap().as_deref(), Some(b"v2".as_slice()));
        assert_eq!(db.len().unwrap(), 1);
    }

    #[test]
    fn snapshot_generation_advances_on_flush_and_compaction() {
        let dir = TempDir::new("lsm-gen").unwrap();
        let db = open(&dir);
        assert_eq!(db.snapshot_generation(), 0);
        db.put(b"a", b"1").unwrap();
        db.flush().unwrap();
        // One publication: the seal's, which is all a flush of one key is.
        assert_eq!(db.snapshot_generation(), 1);
        let before = db.snapshot_generation();
        db.flush().unwrap(); // nothing to do: no publication
        assert_eq!(db.snapshot_generation(), before);
    }

    #[test]
    fn stripe_count_persists_in_manifest_across_reopen() {
        let dir = TempDir::new("lsm-manifest").unwrap();
        {
            let db =
                LsmDatabase::open(dir.path(), LsmConfig { stripes: 2, ..LsmConfig::default() })
                    .unwrap();
            assert_eq!(db.stripe_count(), 2);
            for i in 0..50u32 {
                db.put(format!("m{i:03}").as_bytes(), b"v").unwrap();
            }
        }
        // Reopening with a different configured stripe count must keep
        // the on-disk routing: the manifest wins.
        let db = LsmDatabase::open(dir.path(), LsmConfig { stripes: 8, ..LsmConfig::default() })
            .unwrap();
        assert_eq!(db.stripe_count(), 2);
        assert_eq!(db.len().unwrap(), 50);
        assert_eq!(db.get(b"m042").unwrap().as_deref(), Some(b"v".as_slice()));
    }

    #[test]
    fn erase_true_negative_appends_no_wal_record() {
        let dir = TempDir::new("lsm-erase-tn").unwrap();
        let db = open(&dir);
        db.put(b"present", b"v").unwrap();
        db.flush().unwrap();
        let log_sizes = |dir: &Path| -> Vec<u64> {
            files(dir, "log").iter().map(|log| std::fs::metadata(log).unwrap().len()).collect()
        };
        let before = log_sizes(dir.path());
        // True negative: key nowhere in the database. No tombstone may
        // be logged in any stripe.
        assert!(!db.erase(b"never-existed").unwrap());
        assert_eq!(log_sizes(dir.path()), before, "true-negative erase wrote a log record");
        // True positive: exactly one stripe's log grows.
        assert!(db.erase(b"present").unwrap());
        let after = log_sizes(dir.path());
        let grown = before.iter().zip(&after).filter(|(b, a)| a > b).count();
        assert_eq!(grown, 1, "true-positive erase must log in exactly one stripe");
        assert_eq!(db.get(b"present").unwrap(), None);
        // A tombstoned key is a true negative for the next erase.
        assert!(!db.erase(b"present").unwrap());
    }

    #[test]
    fn parallel_writers_hit_disjoint_stripes() {
        // With enough distinct keys every stripe sees traffic, and all
        // data survives a concurrent multi-threaded load + final flush.
        let dir = TempDir::new("lsm-par").unwrap();
        let db = std::sync::Arc::new(
            LsmDatabase::open(
                dir.path(),
                LsmConfig { memtable_bytes: 2048, stripes: 8, ..LsmConfig::default() },
            )
            .unwrap(),
        );
        let hit: std::collections::BTreeSet<usize> =
            (0..256u32).map(|i| db.inner.stripe_index(format!("t0-k{i:04}").as_bytes())).collect();
        assert_eq!(hit.len(), 8, "keys must disperse over all stripes");
        let writers: Vec<_> = (0..4)
            .map(|t: u32| {
                let db = std::sync::Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..300u32 {
                        db.put(format!("t{t}-k{i:04}").as_bytes(), &[b'v'; 32]).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.len().unwrap(), 1200);
    }

    #[test]
    fn concurrent_reads_during_flush_and_compaction_churn() {
        let dir = TempDir::new("lsm-churn").unwrap();
        let db = std::sync::Arc::new(open(&dir));
        db.put(b"stable", b"value").unwrap();
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let db = std::sync::Arc::clone(&db);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        // Never torn, never missing, regardless of which
                        // layer currently holds the key.
                        assert_eq!(
                            db.get(b"stable").unwrap().as_deref(),
                            Some(b"value".as_slice())
                        );
                    }
                })
            })
            .collect();
        // Enough flushes to trigger several compactions (max_tables = 3).
        for i in 0..40u32 {
            db.put(format!("churn-{i:03}").as_bytes(), &[b'x'; 64]).unwrap();
            db.flush().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            reader.join().unwrap();
        }
        assert_eq!(db.get(b"stable").unwrap().as_deref(), Some(b"value".as_slice()));
        assert_eq!(db.len().unwrap(), 41);
    }
}
