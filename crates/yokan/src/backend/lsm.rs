//! The `"lsm"` backend: a from-scratch log-structured merge tree, hash-
//! striped over N independent stripes so concurrent writers to different
//! stripes never contend on a lock or a WAL file.
//!
//! Layout inside the provider's data directory:
//!
//! * `lsm-stripes` — the stripe count this directory was created with;
//!   routing must be stable across reopens, so the manifest wins over
//!   whatever the config says on a later open;
//! * `wal-<stripe>.log` — stripe `s`'s active write-ahead log, one
//!   CRC-protected record per operation since that stripe's last seal;
//! * `sst-<stripe>-<seq>.seg` — a sealed WAL, which *is* a table: when a
//!   stripe's memtable seals, its WAL is `sync_data`'d and renamed to
//!   the stripe's next sequence number, and a fresh `wal-<stripe>.log`
//!   starts. Records are in append order; the index built at the seal
//!   (or, on `open`, from the records, stopping at the first partial or
//!   corrupt one as for the WAL) says which record of a key is current;
//! * `sst-<stripe>-<seq>.tbl` — the product of a merge: records sorted by
//!   key under one whole-file CRC. Tables of either kind are immutable
//!   and share the stripe's one sequence, newest sequence wins;
//!   tombstones mark deletions until a merge that reaches the stripe's
//!   oldest table drops them;
//! * `sst-<stripe>-<seq>.tmp` — a merge's product still being written. It
//!   gets its `.tbl` name by rename once complete and `sync_data`'d, so
//!   a `.tbl` file is never torn; `open` deletes leftovers;
//! * `wal-<stripe>-<epoch>.seg` — a sealed segment as written before
//!   sealed segments were tables; `open` renames each into the sequence
//!   (oldest epoch first: it is newer than every table of its stripe).
//!
//! A stripe's memtable — the framed WAL bytes appended so far plus an
//! index `key → (offset, len)` into them — seals once it exceeds
//! `memtable_bytes`: an ingested byte is written once by the WAL append
//! and never again until a merge. A table's index is all of it that
//! stays in memory, one entry per key on disk, so it is kept compact
//! ([`table_index::TableIndex`]: one buffer of keys, one sorted array).
//! Compaction
//! is size-tiered over the *newest suffix* of a stripe's table list: a
//! table's tier is `⌊log_(max_tables+1)(bytes / memtable_bytes)⌋`, and
//! while the run of newest tables whose tier does not exceed the newest
//! table's is longer than `max_tables`, exactly that run is merged into
//! one table with a fresh sequence number (`LsmInner::claim_run`).
//! A byte is therefore rewritten once per tier — O(log n) times, not
//! once per compaction — and because a merge always takes the newest
//! tables of its moment, "higher sequence = newer" keeps holding with no
//! manifest. Merges normally run *off* the request
//! path: [`LsmDatabase::set_background_executor`] installs a scheduler
//! (in production, a low-priority Argobots pool; see
//! `crate::bedrock`) and sealing merely enqueues a maintenance task.
//! Without an executor — or when a seal leaves a run of more than
//! `2 × (max_tables + 1)` tables that no maintenance owns, which is what
//! a stalled executor looks like — the sealing writer merges inline.
//!
//! # Concurrency
//!
//! Reads never take a writer lock. Each stripe splits its state across
//! three locks, always acquired in this order (ranks
//! `LSM_WRITER_BASE + s < LSM_ACTIVE_BASE + s < LSM_SNAPSHOT_BASE + s`):
//!
//! * `writer` — serializes that stripe's mutations: WAL appends, seals,
//!   and (via the `maintaining` flag) merge exclusivity;
//! * `active` — the stripe's mutable memtable, briefly write-locked to
//!   frame a record and again to index it, and read-locked by readers
//!   (the WAL write in between holds it only for reading: a reader never
//!   waits for file I/O);
//! * `snapshot` — an `Arc<Snapshot>` slot holding the stripe's immutable
//!   table list; held only to clone or swap.
//!
//! Readers check `active` first, then clone the snapshot `Arc` and run
//! lock-free against it. Sealing publishes the sealed segment into the
//! snapshot *before* the emptied active memtable becomes visible (both
//! happen under the `active` write lock), so a key a reader no longer
//! finds in `active` is guaranteed to be in whichever snapshot it clones
//! next.
//! Whole-table operations acquire every stripe's `active` read lock in
//! ascending stripe index (ascending rank), then every snapshot — an
//! atomic cut across stripes, deadlock-free by construction.
//!
//! Background maintenance claims a stripe by setting `maintaining` under
//! the writer lock, then does all file I/O *without* holding any lock:
//! it claims a run and its product's sequence number under the lock,
//! writes the table, and publishes by replacing exactly its inputs.
//! `maintaining` makes merging single-writer per stripe; seals still
//! land meanwhile, *behind* the run, and keep their place above its
//! product. Foreground `flush()` (the durability barrier) waits for
//! in-flight maintenance, then seals and merges inline; errors from
//! background maintenance park in a deferred slot that the next
//! `flush()` surfaces.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::ops::Bound;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use mochi_util::checksum::Crc32Hasher;
use mochi_util::ordered_lock::{rank, OrderedMutex, OrderedRwLock};
use mochi_util::{crc32, fnv1a64, mix64};

use super::{le_u32_at, Database, YokanError};
use crate::version::{decode_record, record_is_newer};
use table_index::TableIndex;

mod table_index;

/// Upper bound on the stripe count; the lock hierarchy reserves
/// `LSM_STRIPE_MAX` ranks per lock class for the stripes.
pub const MAX_STRIPES: usize = rank::LSM_STRIPE_MAX as usize;

/// Default stripe count: like the memory backend's shards, enough that
/// 8 execution streams rarely collide, small enough that whole-table
/// scans and per-stripe file sets stay cheap.
pub const DEFAULT_STRIPES: usize = 8;

/// Scheduler for background merges: called with a closure
/// to run off the request path (in production, a ULT pushed to a
/// low-priority Argobots pool). The closure is self-contained; dropping
/// it without running it only delays maintenance, never loses data.
pub type BackgroundExecutor = Arc<dyn Fn(Box<dyn FnOnce() + Send + 'static>) + Send + Sync>;

/// Tuning knobs of the LSM backend.
#[derive(Debug, Clone, Copy)]
pub struct LsmConfig {
    /// Seal a stripe's memtable to a sealed segment beyond this many
    /// bytes of keys and values.
    pub memtable_bytes: usize,
    /// Width of a compaction tier: once more than this many of a
    /// stripe's newest tables sit in one size tier (or below), they are
    /// merged into one table of the next. A stripe holds at most about
    /// `max_tables` tables per tier.
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
    /// A WAL append writes the first half of its bytes, then reports an
    /// error — a full disk.
    WalAppendTorn = 1,
    /// The first unlink of a merge's inputs reports an error and removes
    /// nothing.
    InputUnlinkFails = 2,
    /// Fail while a merged table is being written: its records are on
    /// disk, its checksum trailer is not — a torn file.
    MidTableWrite = 3,
    /// Fail after a merged table is durable and the oldest of its inputs
    /// is unlinked: the merged table and the newer inputs survive.
    AfterMergePersist = 4,
}

const OP_PUT: u8 = 1;
const OP_ERASE: u8 = 2;
/// Value length marking a tombstone in a table's index and in a `.tbl`.
const TOMBSTONE: u32 = u32::MAX;
/// Bytes of a WAL record around its key and value: op, two lengths, CRC.
const WAL_FRAMING: usize = 13;

/// Where a value lies in a file — a table's, or the WAL's, whose bytes
/// the active memtable mirrors.
#[derive(Debug, Clone, Copy)]
struct ValueLoc {
    offset: u64,
    len: u32, // TOMBSTONE for deletions
}

/// The active memtable's index: it takes inserts.
type Index = BTreeMap<Vec<u8>, ValueLoc>;

/// One logged mutation: `OP_PUT` or `OP_ERASE`, key, value (empty for an
/// erase).
type Record<'a> = (u8, &'a [u8], &'a [u8]);

/// A stripe's mutable top: the framed records appended to the active WAL
/// so far — byte `i` of `log` is byte `i` of the file — and which of them
/// is current for each key. A put frames its record once, straight into
/// `log`; sealing hands `index` to the segment's table and reuses the
/// buffer.
#[derive(Default)]
struct Memtable {
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
        let start = loc.offset as usize;
        Some(self.log.get(start..start + loc.len as usize).map(<[u8]>::to_vec))
    }
}

fn wal_path(dir: &Path, stripe: usize) -> PathBuf {
    dir.join(format!("wal-{stripe:03}.log"))
}

/// `ext` is `"seg"` for a sealed WAL, `"tbl"` for a merge's product.
fn table_path(dir: &Path, stripe: usize, seq: u64, ext: &str) -> PathBuf {
    dir.join(format!("sst-{stripe:03}-{seq:010}.{ext}"))
}

/// Opens (creating it if need be) a stripe's WAL: appended to while
/// active, read by offset once sealed.
fn open_wal(path: &Path) -> Result<File, YokanError> {
    OpenOptions::new()
        .create(true)
        .append(true)
        .read(true)
        .open(path)
        .map_err(|e| YokanError::Io(format!("open {}: {e}", path.display())))
}

/// Parses `prefix-<stripe:03>-<number:010>` stems (tables and segments).
fn parse_striped_name(path: &Path, prefix: &str) -> Option<(usize, u64)> {
    let stem = path.file_stem()?.to_str()?;
    let rest = stem.strip_prefix(prefix)?;
    let (stripe, number) = rest.split_once('-')?;
    Some((stripe.parse().ok()?, number.parse().ok()?))
}

/// Bloom-filter bits per key (~1 % false positives with
/// [`BLOOM_PROBES`] probes).
const BLOOM_BITS_PER_KEY: usize = 10;
const BLOOM_PROBES: u32 = 7;

/// In-memory Bloom filter over one table's keys, rebuilt from the index
/// whenever a table is written or opened — nothing of it is on disk. A
/// lookup that misses a table costs a few words of it instead of a
/// descent of the table's index.
struct Bloom {
    words: Box<[u64]>,
}

impl Bloom {
    /// The hash every probe derives from; computed once per lookup.
    fn hash(key: &[u8]) -> u64 {
        mix64(fnv1a64(key))
    }

    fn build<'a>(count: usize, keys: impl Iterator<Item = &'a [u8]>) -> Bloom {
        let words = (count * BLOOM_BITS_PER_KEY).div_ceil(64).max(1);
        let mut bloom = Bloom { words: vec![0u64; words].into_boxed_slice() };
        for key in keys {
            for bit in bloom.probes(Self::hash(key)) {
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

/// An immutable table of one stripe: a sealed WAL (`.seg`, records in
/// append order, a CRC each) or a merge's product (`.tbl`, sorted, one
/// CRC). Past `open` the two differ in nothing: `index` says where each
/// key's current value lies in `file`.
struct SsTable {
    path: PathBuf,
    file: File,
    /// File length; decides the table's compaction tier.
    bytes: u64,
    index: TableIndex,
    bloom: Bloom,
}

impl SsTable {
    fn new(path: PathBuf, file: File, bytes: u64, index: TableIndex) -> SsTable {
        let bloom = Bloom::build(index.len(), index.iter_from(&Bound::Unbounded).map(|(k, _)| k));
        SsTable { path, file, bytes, index, bloom }
    }
}

/// Streams a merge's product to disk record by record. The records go
/// through a buffered writer
/// into `<table>.tmp` with the CRC fed as they pass; [`Self::finish`]
/// appends the trailer, syncs and renames the file to its `.tbl` name,
/// so a table that exists under that name is complete. A write that
/// fails leaves its `.tmp` behind for the next `open` to delete.
struct TableWriter {
    tmp_path: PathBuf,
    out: BufWriter<File>,
    crc: Crc32Hasher,
    /// Sorted, because records are appended in key order.
    index: TableIndex,
    /// Bytes emitted so far: the file offset of whatever comes next.
    offset: u64,
}

impl TableWriter {
    fn create(path: &Path) -> Result<TableWriter, YokanError> {
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
            index: TableIndex::default(),
            offset: 0,
        })
    }

    fn emit(&mut self, bytes: &[u8]) -> Result<(), YokanError> {
        self.crc.update(bytes);
        self.out.write_all(bytes)?;
        self.offset += bytes.len() as u64;
        Ok(())
    }

    /// Appends one record; keys must arrive in ascending order. `None`
    /// value = tombstone.
    fn append(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<(), YokanError> {
        let len = value.map_or(TOMBSTONE, |v| v.len() as u32);
        self.emit(&(key.len() as u32).to_le_bytes())?;
        self.emit(&len.to_le_bytes())?;
        self.emit(key)?;
        self.index.push(key, ValueLoc { offset: self.offset, len })?;
        self.emit(value.unwrap_or_default())
    }

    /// Completes the file and publishes it as the table at `path`.
    fn finish(mut self, path: PathBuf) -> Result<SsTable, YokanError> {
        let crc = self.crc.finish();
        self.out.write_all(&crc.to_le_bytes())?;
        let file = self
            .out
            .into_inner()
            .map_err(|e| YokanError::Io(format!("write {}: {e}", self.tmp_path.display())))?;
        // Durable before it is visible under a name `open` trusts, and
        // before the caller unlinks the tables it replaces.
        file.sync_data()?;
        std::fs::rename(&self.tmp_path, &path)
            .map_err(|e| YokanError::Io(format!("publish {}: {e}", path.display())))?;
        Ok(SsTable::new(path, file, self.offset + 4, self.index))
    }
}

impl SsTable {
    /// Opens an existing table: a `.tbl` is validated as a whole, a
    /// `.seg` record by record, exactly as tolerantly as the WAL it was.
    fn open(path: PathBuf) -> Result<SsTable, YokanError> {
        let mut file = OpenOptions::new()
            .read(true)
            .open(&path)
            .map_err(|e| YokanError::Io(format!("open {}: {e}", path.display())))?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let index = if path.extension().is_some_and(|x| x == "seg") {
            TableIndex::from_sorted(&scan_wal(&data).0)?
        } else {
            Self::sorted_index(&path, &data)?
        };
        Ok(SsTable::new(path, file, data.len() as u64, index))
    }

    /// Validates the bytes of a `.tbl` file and indexes its records.
    fn sorted_index(path: &Path, data: &[u8]) -> Result<TableIndex, YokanError> {
        let Some((body, crc_bytes)) = data.split_last_chunk::<4>() else {
            return Err(YokanError::Corrupt(format!("{} too short", path.display())));
        };
        if crc32(body) != u32::from_le_bytes(*crc_bytes) {
            return Err(YokanError::Corrupt(format!("{} checksum mismatch", path.display())));
        }
        let mut index = TableIndex::default();
        let mut pos = 0usize;
        while pos < body.len() {
            let (Some(klen), Some(vlen_raw)) = (le_u32_at(body, pos), le_u32_at(body, pos + 4))
            else {
                return Err(YokanError::Corrupt(format!("{} truncated record", path.display())));
            };
            let klen = klen as usize;
            pos += 8;
            if pos + klen > body.len() {
                return Err(YokanError::Corrupt(format!("{} truncated key", path.display())));
            }
            let key = &body[pos..pos + klen];
            pos += klen;
            let offset = pos as u64;
            if vlen_raw != TOMBSTONE {
                let vlen = vlen_raw as usize;
                if pos + vlen > body.len() {
                    return Err(YokanError::Corrupt(format!(
                        "{} truncated value",
                        path.display()
                    )));
                }
                pos += vlen;
            }
            index.push(key, ValueLoc { offset, len: vlen_raw })?;
        }
        Ok(index)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Option<Vec<u8>>>, YokanError> {
        match self.index.get(key) {
            None => Ok(None),
            Some(loc) if loc.len == TOMBSTONE => Ok(Some(None)),
            Some(loc) => {
                let mut value = vec![0u8; loc.len as usize];
                self.file
                    .read_exact_at(&mut value, loc.offset)
                    .map_err(|e| YokanError::Io(format!("read {}: {e}", self.path.display())))?;
                Ok(Some(Some(value)))
            }
        }
    }
}

/// An immutable, atomically swapped view of everything below one
/// stripe's active memtable. Readers clone the `Arc` and then run
/// entirely lock-free; the open table files a snapshot references stay
/// alive as long as any reader holds the clone, even across a
/// concurrent compaction that unlinks them.
struct Snapshot {
    /// Publication counter; bumps on every seal, compaction and clear.
    generation: u64,
    /// Sealed segments and merged tables, oldest → newest.
    tables: Vec<Arc<SsTable>>,
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
type Cursor<'a, T> = Box<dyn Iterator<Item = (&'a [u8], T)> + 'a>;

/// K-way merge over sorted sources ordered oldest → newest: yields each
/// distinct key once, ascending, with the entry of the newest source
/// that holds it. Listing walks key aliveness with it, compaction walks
/// the input tables' indexes.
struct NewestWins<'a, T> {
    cursors: Vec<Cursor<'a, T>>,
    heads: Vec<Option<(&'a [u8], T)>>,
}

impl<'a, T: Copy> NewestWins<'a, T> {
    fn new(mut cursors: Vec<Cursor<'a, T>>) -> Self {
        let heads = cursors.iter_mut().map(|c| c.next()).collect();
        Self { cursors, heads }
    }
}

impl<'a, T: Copy> Iterator for NewestWins<'a, T> {
    type Item = (&'a [u8], T);

    fn next(&mut self) -> Option<Self::Item> {
        let key = self.heads.iter().flatten().map(|head| head.0).min()?;
        let mut newest = None;
        for (head, cursor) in self.heads.iter_mut().zip(&mut self.cursors) {
            if let Some((_, entry)) = head.filter(|(head_key, _)| *head_key == key) {
                newest = Some(entry); // later sources overwrite
                *head = cursor.next();
            }
        }
        newest.map(|entry| (key, entry))
    }
}

/// One stripe's mutator-side state, serialized by that stripe's
/// `writer` lock.
struct StripeWriter {
    /// The active WAL, `wal_path`; as long as the active memtable's `log`.
    wal: File,
    wal_path: PathBuf,
    /// Bytes of keys and values in the active memtable (seal trigger).
    active_bytes: usize,
    /// Next sequence number of this stripe: seals and merges draw on it.
    next_seq: u64,
    /// Whether a background merge currently owns this stripe's
    /// maintenance. While set, nobody else may merge or clear this
    /// stripe; seals still append tables behind the run being merged.
    maintaining: bool,
    /// Why this stripe accepts no more writes until the directory is
    /// reopened: a file step failed and so did undoing it, and a write
    /// acknowledged now could be lost behind a torn record.
    poisoned: Option<String>,
}

impl StripeWriter {
    /// An error while the stripe is poisoned.
    fn check_usable(&self) -> Result<(), YokanError> {
        self.poisoned.as_ref().map_or(Ok(()), |why| Err(YokanError::Io(why.clone())))
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
    /// Background scheduler, installed at most once.
    executor: OnceLock<BackgroundExecutor>,
    /// Last error from background maintenance; surfaced by `flush()`.
    background_error: OrderedMutex<Option<YokanError>>,
    /// Armed [`LsmFailPoint`] (tests only; `LsmFailPoint::None` normally).
    fail_point: AtomicU8,
    /// Bytes of merged tables written by compaction since `open`.
    compaction_bytes: AtomicU64,
}

/// The LSM database.
pub struct LsmDatabase {
    inner: Arc<LsmInner>,
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

/// Appends one WAL record to `out`; its CRC covers that record alone.
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

/// Where the value of the WAL record framed at `pos` lies, and where the
/// record after it starts.
fn wal_record_layout(pos: usize, op: u8, klen: usize, vlen: usize) -> (ValueLoc, usize) {
    let len = if op == OP_ERASE { TOMBSTONE } else { vlen as u32 };
    (ValueLoc { offset: (pos + 9 + klen) as u64, len }, pos + WAL_FRAMING + klen + vlen)
}

/// Indexes the records of a WAL or sealed-segment buffer, stopping
/// cleanly at the first partial or corrupt record (a crash mid-append).
/// Returns the index, the bytes of keys and values it stands for, and the
/// length of the valid prefix.
fn scan_wal(data: &[u8]) -> (Index, usize, usize) {
    let mut index = Index::new();
    let mut pos = 0usize;
    let mut bytes = 0usize;
    while let (Some(&op), Some(klen), Some(vlen)) =
        (data.get(pos), le_u32_at(data, pos + 1), le_u32_at(data, pos + 5))
    {
        let (klen, vlen) = (klen as usize, vlen as usize);
        let (loc, next) = wal_record_layout(pos, op, klen, vlen);
        let Some(record) = data.get(pos..next) else { break };
        let Some((body, crc_bytes)) = record.split_last_chunk::<4>() else { break };
        if crc32(body) != u32::from_le_bytes(*crc_bytes) || !matches!(op, OP_PUT | OP_ERASE) {
            break;
        }
        index.insert(body[9..9 + klen].to_vec(), loc);
        bytes += klen + vlen;
        pos = next;
    }
    (index, bytes, pos)
}

/// Reads or creates the stripe-count manifest. Routing must be stable
/// for the life of the directory, so the recorded count always wins.
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
            std::fs::write(&path, format!("{configured}\n"))?;
            Ok(configured)
        }
        Err(e) => Err(YokanError::Io(format!("{}: {e}", path.display()))),
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

    /// Logs `records` to the stripe's WAL in one
    /// write and only then makes them visible: framed once, straight into
    /// the active memtable's log (no index entry points there yet, so no
    /// reader sees them), written to the file from that buffer, indexed.
    /// A failed write takes its bytes back out of the buffer and the
    /// file: a torn record in the middle of the log would end replay
    /// there and lose every write acknowledged after it.
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
            match self.check_fail(LsmFailPoint::WalAppendTorn) {
                Ok(()) => (&writer.wal).write_all(new).map_err(YokanError::from),
                Err(fault) => (&writer.wal)
                    .write_all(new.get(..new.len() / 2).unwrap_or_default())
                    .map_err(YokanError::from)
                    .and(Err(fault)),
            }
        };
        let mut active = stripe.active.write();
        if let Err(e) = written {
            active.log.truncate(start);
            if let Err(undo) = writer.wal.set_len(start as u64) {
                writer.poisoned = Some(format!(
                    "{} may end in a torn record ({e}) and could not be truncated: {undo}",
                    writer.wal_path.display()
                ));
            }
            return Err(e);
        }
        let mut pos = start;
        for (op, key, value) in records {
            let (loc, next) = wal_record_layout(pos, op, key.len(), value.len());
            active.index.insert(key.to_vec(), loc);
            pos = next;
            writer.active_bytes += key.len() + value.len();
        }
        Ok(())
    }

    /// Current live value of `key` in its stripe, never touching a
    /// writer lock.
    ///
    /// Read order matters: active memtable first, then the snapshot.
    /// Sealing publishes the sealed segment into the snapshot before
    /// the emptied active memtable becomes visible, so a key missing
    /// from `active` is always present in (or genuinely absent from) the
    /// snapshot read afterwards.
    fn lookup_live(&self, key: &[u8]) -> Result<Option<Vec<u8>>, YokanError> {
        let stripe = self.stripe_of(key);
        if let Some(entry) = stripe.active.read().get(key) {
            return Ok(entry);
        }
        let snap = Self::snapshot_arc(stripe);
        Ok(snap.lookup(key)?.flatten())
    }

    /// Seals the stripe's active memtable: the WAL, synced, becomes
    /// `sst-<s>-<seq>.seg` — the stripe's newest table, its file handle
    /// the WAL's and its index a copy of the memtable's — and a fresh
    /// `wal-<s>.log` starts. No-op on an empty memtable. The file steps
    /// come first and are all-or-nothing: a failed sync or rename leaves
    /// the stripe as it was and the next write tries again; so does a
    /// fresh WAL that cannot be opened, once the rename is undone — and
    /// if it cannot be, the stripe stops taking writes rather than
    /// append through the old handle to a file `open` would read as a
    /// table.
    fn seal_locked(&self, stripe: &Stripe, writer: &mut StripeWriter) -> Result<(), YokanError> {
        writer.check_usable()?;
        // Only this stripe's writer-lock holder — us — mutates `active`:
        // what is indexed under the read lock is what is sealed.
        let (index, bytes) = {
            let active = stripe.active.read();
            if active.index.is_empty() {
                return Ok(());
            }
            (TableIndex::from_sorted(&active.index)?, active.log.len() as u64)
        };
        let seq = writer.next_seq;
        let path = table_path(&self.dir, stripe.index, seq, "seg");
        writer.wal.sync_data()?;
        std::fs::rename(&writer.wal_path, &path)
            .map_err(|e| YokanError::Io(format!("seal {}: {e}", path.display())))?;
        let fresh = match open_wal(&writer.wal_path) {
            Ok(fresh) => fresh,
            Err(e) => {
                if let Err(undo) = std::fs::rename(&path, &writer.wal_path) {
                    writer.poisoned = Some(format!(
                        "{e}, and {} could not be renamed back: {undo}",
                        path.display()
                    ));
                }
                return Err(e);
            }
        };
        writer.next_seq += 1;
        writer.active_bytes = 0;
        let file = std::mem::replace(&mut writer.wal, fresh);
        let table = Arc::new(SsTable::new(path, file, bytes, index));
        let mut active = stripe.active.write();
        active.index.clear();
        active.log.clear();
        // Publish under the active write lock: readers check `active`
        // first, so anything they no longer find there must already be
        // visible in the snapshot.
        Self::publish(stripe, |old| Snapshot {
            generation: old.generation + 1,
            tables: old.tables.iter().cloned().chain([table]).collect(),
        });
        Ok(())
    }

    /// Post-append check: seals past `memtable_bytes`; the new table may
    /// complete a run. With an executor installed that is the
    /// background's work (returns `true`; the caller must drop the
    /// writer guard *before* calling [`Self::schedule_maintenance`],
    /// since a synchronous executor would re-enter this stripe's writer
    /// lock). Without one the writer merges inline — as it does when the
    /// run has grown past two full tiers with no maintenance owning the
    /// stripe: an executor that has stalled must not defer work without
    /// bound, and a healthy one never lets a run get there.
    fn maybe_seal(&self, stripe: &Stripe, writer: &mut StripeWriter) -> Result<bool, YokanError> {
        if writer.active_bytes < self.config.memtable_bytes {
            return Ok(false);
        }
        self.seal_locked(stripe, writer)?;
        if writer.maintaining {
            // The merge in flight looks for more work before it lets go.
            return Ok(false);
        }
        let deferred = self.executor.get().is_some()
            && self.run_len(&Self::snapshot_arc(stripe).tables) <= 2 * (self.config.max_tables + 1);
        if deferred {
            return Ok(true);
        }
        self.merge_locked(stripe, writer)?;
        Ok(false)
    }

    /// Enqueues a maintenance task for stripe `index` on the installed
    /// executor. Must be called with no stripe lock held. The task holds
    /// only a `Weak` back-reference, so a queued task never outlives the
    /// database it serves.
    fn schedule_maintenance(self: &Arc<Self>, index: usize) {
        if let Some(executor) = self.executor.get() {
            let weak = Arc::downgrade(self);
            executor(Box::new(move || {
                if let Some(inner) = weak.upgrade() {
                    inner.maintain_stripe(index);
                }
            }));
        }
    }

    /// Merges until no run of `stripe` qualifies. Runs with the writer
    /// lock held; callers guarantee no concurrent maintenance
    /// (`!writer.maintaining`).
    fn merge_locked(&self, stripe: &Stripe, writer: &mut StripeWriter) -> Result<(), YokanError> {
        while let Some(run) = self.claim_run(stripe, writer) {
            self.compact_run(stripe, &run)?;
        }
        Ok(())
    }

    /// Size tier of a table of `bytes` bytes:
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

    /// The compaction picker, shared by the inline and background paths:
    /// claims the stripe's run if it is longer than `max_tables`, with
    /// the next sequence number for its product. Callers hold the writer
    /// lock.
    ///
    /// A run is a suffix of the list when it is claimed and its product
    /// takes the then-highest sequence number. Seals that land while a
    /// background merge runs come after both in the list and in
    /// sequence, so the list stays sorted by age with no manifest:
    /// `open` and the read order rely on "higher sequence = newer" and
    /// nothing else. When every table sits in one tier the run is the
    /// whole stripe.
    fn claim_run(&self, stripe: &Stripe, writer: &mut StripeWriter) -> Option<Run> {
        let snap = Self::snapshot_arc(stripe);
        let run = self.run_len(&snap.tables);
        if run <= self.config.max_tables {
            return None;
        }
        let seq = writer.next_seq;
        writer.next_seq += 1;
        let inputs = snap.tables.iter().skip(snap.tables.len() - run).cloned().collect();
        Some(Run { inputs, seq, reaches_oldest: run == snap.tables.len() })
    }

    /// Merges `run` into one table: a streaming k-way walk
    /// over the inputs' indexes, newest entry winning, each surviving
    /// value read from its table's open file and written straight out.
    /// Tombstones are dropped only when the run reaches the stripe's
    /// oldest table — otherwise an older table could still hold the key.
    /// The product replaces exactly its inputs in the list: whatever
    /// seals appended behind them meanwhile stays above it. Callers hold
    /// the writer lock or own `maintaining`, so no other merge runs.
    fn compact_run(&self, stripe: &Stripe, run: &Run) -> Result<(), YokanError> {
        let path = table_path(&self.dir, stripe.index, run.seq, "tbl");
        let mut out = TableWriter::create(&path)?;
        let cursors = run
            .inputs
            .iter()
            .map(|table| {
                let table = table.as_ref();
                let entries = table.index.iter_from(&Bound::Unbounded);
                Box::new(entries.map(move |(key, loc)| (key, (table, loc))))
                    as Cursor<'_, (&SsTable, ValueLoc)>
            })
            .collect();
        let mut value = Vec::new();
        for (key, (table, loc)) in NewestWins::new(cursors) {
            if loc.len != TOMBSTONE {
                value.resize(loc.len as usize, 0);
                table
                    .file
                    .read_exact_at(&mut value, loc.offset)
                    .map_err(|e| YokanError::Io(format!("read {}: {e}", table.path.display())))?;
                out.append(key, Some(&value))?;
            } else if !run.reaches_oldest {
                out.append(key, None)?;
            }
        }
        if let Err(fault) = self.check_fail(LsmFailPoint::MidTableWrite) {
            // What a crash here leaves: the records, no trailer.
            out.out.flush()?;
            return Err(fault);
        }
        let merged = Arc::new(out.finish(path)?);
        self.compaction_bytes.fetch_add(merged.bytes, Ordering::Relaxed);
        let is_input = |table: &Arc<SsTable>| run.inputs.iter().any(|i| Arc::ptr_eq(i, table));
        let mut merged = Some(merged);
        Self::publish(stripe, |old| Snapshot {
            generation: old.generation + 1,
            tables: old
                .tables
                .iter()
                .filter_map(|t| if is_input(t) { merged.take() } else { Some(Arc::clone(t)) })
                .collect(),
        });
        // In-flight readers may still hold the inputs' `Arc`s; their open
        // descriptors keep the unlinked files readable. Oldest first, and
        // no further once one fails: what a crash — or the failure —
        // leaves is a suffix of the run, and a suffix holding any entry
        // for a key holds the run's newest — a value never outlives the
        // tombstone the merged table dropped.
        for (position, table) in run.inputs.iter().enumerate() {
            let unlinked = match self.check_fail(LsmFailPoint::InputUnlinkFails) {
                Err(fault) if position == 0 => Err(fault),
                _ => std::fs::remove_file(&table.path).map_err(YokanError::from),
            };
            if let Err(e) = unlinked {
                // The merge stands; the leftovers merge again after the
                // next `open`. `flush()` reports it.
                *self.background_error.lock() =
                    Some(YokanError::Io(format!("unlink {}: {e}", table.path.display())));
                break;
            }
            if position == 0 {
                self.check_fail(LsmFailPoint::AfterMergePersist)?;
            }
        }
        Ok(())
    }

    /// Background entry point for one stripe: claim maintenance, merge
    /// (file I/O off-lock) until no run qualifies. Errors park in
    /// `background_error` for the next `flush()` to surface; the run
    /// stays as it is and is retried after the next seal or flush.
    fn maintain_stripe(&self, index: usize) {
        let stripe = &self.stripes[index];
        {
            let mut writer = stripe.writer.lock();
            if writer.maintaining {
                // Another task owns the stripe; it will re-check for our
                // work before releasing ownership.
                return;
            }
            writer.maintaining = true;
        }
        loop {
            // Claim a run and its product's sequence under the lock;
            // merge with no lock held. Ownership is released under the
            // same lock that saw no run, so no seal can slip between the
            // check and the release.
            let run = {
                let mut writer = stripe.writer.lock();
                let run = self.claim_run(stripe, &mut writer);
                writer.maintaining = run.is_some();
                run
            };
            let Some(run) = run else { break };
            if let Err(e) = self.compact_run(stripe, &run) {
                stripe.writer.lock().maintaining = false;
                *self.background_error.lock() = Some(e);
                break;
            }
        }
    }

    /// Foreground durability barrier: waits out in-flight background
    /// maintenance per stripe, seals and merges everything inline, then
    /// surfaces any parked background error.
    fn flush_all(&self) -> Result<(), YokanError> {
        for stripe in self.stripes.iter() {
            loop {
                let mut writer = stripe.writer.lock();
                if writer.maintaining {
                    // Background maintenance owns the stripe; spin-yield
                    // until it hands back. The maintainer runs on its
                    // own xstream and never waits on us, so this always
                    // terminates.
                    drop(writer);
                    std::thread::yield_now();
                    continue;
                }
                self.seal_locked(stripe, &mut writer)?;
                self.merge_locked(stripe, &mut writer)?;
                break;
            }
        }
        if let Some(e) = self.background_error.lock().take() {
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
    ) -> impl Iterator<Item = &'a [u8]> {
        // Sources ordered oldest → newest; the active memtable is last.
        let from_active = active.index.range::<Vec<u8>, _>((lower.clone(), Bound::Unbounded));
        let cursors = snap
            .tables
            .iter()
            .map(|table| Box::new(table.index.iter_from(lower)) as Cursor<'a, ValueLoc>)
            .chain([Box::new(from_active.map(|(k, loc)| (k.as_slice(), *loc))) as Cursor<'a, _>])
            .collect();
        // Every cursor is sorted, so once the smallest head leaves the
        // prefix nothing later can be inside it.
        NewestWins::new(cursors)
            .take_while(move |(key, _)| key.starts_with(prefix))
            .filter_map(|(key, loc)| (loc.len != TOMBSTONE).then_some(key))
    }
}

impl LsmDatabase {
    /// Opens (or creates) a database in `dir`, loading existing tables
    /// and replaying the active WALs.
    ///
    /// Per stripe, `.tbl` and `.seg` files load into one list sorted by
    /// sequence — a sealed segment *is* a table, so a crash at any point
    /// after a seal's rename loses nothing and leaves nothing to redo —
    /// and the active WAL replays into the active memtable. A torn tail,
    /// which only a crash mid-append leaves, is cut off the WAL so that
    /// what is appended next follows the last whole record.
    pub fn open(dir: impl Into<PathBuf>, config: LsmConfig) -> Result<Self, YokanError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let configured = config.stripes.clamp(1, MAX_STRIPES);
        let stripe_count = stripe_manifest(&dir, configured)?;

        // Bucket on-disk tables by stripe; `legacy` are the sealed
        // segments of the format in which they were not yet tables.
        let mut table_paths: Vec<Vec<(u64, PathBuf)>> = vec![Vec::new(); stripe_count];
        let mut legacy: Vec<Vec<(u64, PathBuf)>> = vec![Vec::new(); stripe_count];
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let sealed_wal =
                path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("wal-"));
            let (bucket, prefix) = match path.extension().and_then(|x| x.to_str()) {
                Some("seg") if sealed_wal => (&mut legacy, "wal-"),
                Some("tbl" | "seg") => (&mut table_paths, "sst-"),
                Some("tmp") => {
                    // A merge whose write never completed: everything in
                    // it is still in its inputs.
                    std::fs::remove_file(&path).ok();
                    continue;
                }
                _ => continue,
            };
            let Some((stripe, number)) = parse_striped_name(&path, prefix) else {
                return Err(YokanError::Corrupt(format!("bad file name {}", path.display())));
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
        for index in 0..stripe_count {
            let mut paths = std::mem::take(&mut table_paths[index]);
            paths.sort();
            let mut next_seq = paths.last().map(|(seq, _)| seq + 1).unwrap_or(0);
            // Oldest epoch first: each is newer than every table of its
            // stripe and than the segments before it.
            let mut segments = std::mem::take(&mut legacy[index]);
            segments.sort();
            for (_, old_path) in segments {
                let path = table_path(&dir, index, next_seq, "seg");
                std::fs::rename(&old_path, &path)
                    .map_err(|e| YokanError::Io(format!("adopt {}: {e}", old_path.display())))?;
                paths.push((next_seq, path));
                next_seq += 1;
            }
            let mut tables = Vec::with_capacity(paths.len());
            for (_, path) in paths {
                tables.push(Arc::new(SsTable::open(path)?));
            }

            let wal_path = wal_path(&dir, index);
            let wal = open_wal(&wal_path)?;
            let mut log = Vec::new();
            (&wal).read_to_end(&mut log)?;
            let (active_index, active_bytes, valid) = scan_wal(&log);
            if valid < log.len() {
                log.truncate(valid);
                wal.set_len(valid as u64)?;
            }
            stripes.push(Stripe {
                index,
                writer: OrderedMutex::new(
                    rank::LSM_WRITER_BASE + index as u32,
                    "lsm.writer",
                    StripeWriter {
                        wal,
                        wal_path,
                        active_bytes,
                        next_seq,
                        maintaining: false,
                        poisoned: None,
                    },
                ),
                active: OrderedRwLock::new(
                    rank::LSM_ACTIVE_BASE + index as u32,
                    "lsm.active",
                    Memtable { log, index: active_index },
                ),
                snapshot: OrderedRwLock::new(
                    rank::LSM_SNAPSHOT_BASE + index as u32,
                    "lsm.snapshot",
                    Arc::new(Snapshot { generation: 0, tables }),
                ),
            });
        }
        Ok(Self {
            inner: Arc::new(LsmInner {
                dir,
                // A tier is at least one table wide: a run of one table
                // has nothing to merge with.
                config: LsmConfig {
                    stripes: stripe_count,
                    max_tables: config.max_tables.max(1),
                    ..config
                },
                stripes: stripes.into_boxed_slice(),
                executor: OnceLock::new(),
                background_error: OrderedMutex::new(
                    rank::LSM_BG_ERROR,
                    "lsm.bg_error",
                    None,
                ),
                fail_point: AtomicU8::new(LsmFailPoint::None as u8),
                compaction_bytes: AtomicU64::new(0),
            }),
        })
    }

    /// Installs the background merge scheduler. At most one
    /// executor can be installed; later calls are ignored (returns
    /// `false`). Until one is installed, sealing writers merge inline.
    pub fn set_background_executor(&self, executor: BackgroundExecutor) -> bool {
        self.inner.executor.set(executor).is_ok()
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

    /// Total tables — sealed segments and merged tables — on disk across
    /// stripes (diagnostics / tests).
    pub fn table_count(&self) -> usize {
        self.inner.stripes.iter().map(|s| LsmInner::snapshot_arc(s).tables.len()).sum()
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

    /// Takes the deferred background-maintenance error, if any, without
    /// forcing a flush (diagnostics / tests).
    pub fn take_background_error(&self) -> Option<YokanError> {
        self.inner.background_error.lock().take()
    }
}

impl LsmDatabase {
    /// Logs and applies `records` to `stripe` under its writer lock if
    /// `admit` agrees, then seals if that filled the memtable. `admit`
    /// runs under the lock, which freezes the stripe's writes and seals:
    /// what it looks up cannot change before the write lands. Returns
    /// whether it agreed.
    fn write_with<'a>(
        &self,
        stripe: &Stripe,
        records: impl Iterator<Item = Record<'a>> + Clone,
        admit: impl FnOnce() -> Result<bool, YokanError>,
    ) -> Result<bool, YokanError> {
        let schedule = {
            let mut writer = stripe.writer.lock();
            if !admit()? {
                return Ok(false);
            }
            self.inner.append(stripe, &mut writer, records)?;
            self.inner.maybe_seal(stripe, &mut writer)?
        };
        if schedule {
            self.inner.schedule_maintenance(stripe.index);
        }
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
        // batch (one WAL write per group),
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
            keys.extend(LsmInner::live_keys(snap, active, prefix, &lower).take(max).map(<[u8]>::to_vec));
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
            loop {
                let mut writer = stripe.writer.lock();
                if writer.maintaining {
                    drop(writer);
                    std::thread::yield_now();
                    continue;
                }
                let old_paths: Vec<PathBuf> = LsmInner::snapshot_arc(stripe)
                    .tables
                    .iter()
                    .map(|t| t.path.clone())
                    .collect();
                {
                    let mut active = stripe.active.write();
                    active.log.clear();
                    active.index.clear();
                    LsmInner::publish(stripe, |old| Snapshot {
                        generation: old.generation + 1,
                        tables: Vec::new(),
                    });
                }
                writer.active_bytes = 0;
                writer.wal.set_len(0)?;
                for path in old_paths {
                    std::fs::remove_file(&path).ok();
                }
                break;
            }
        }
        Ok(())
    }

    fn dump(&self) -> Result<super::KvPairs, YokanError> {
        let (actives, snaps) = self.inner.atomic_cut();
        let mut out = Vec::new();
        for (snap, active) in snaps.iter().zip(&actives) {
            for key in LsmInner::live_keys(snap, active, b"", &Bound::Unbounded) {
                let value = match active.get(key) {
                    Some(entry) => entry,
                    None => snap.lookup(key)?.flatten(),
                };
                let value =
                    value.ok_or_else(|| YokanError::Corrupt("key vanished during dump".into()))?;
                out.push((key.to_vec(), value));
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
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    fn tiny_config() -> LsmConfig {
        // Small thresholds so tests exercise seals and compaction;
        // several stripes so routing is exercised too.
        LsmConfig { memtable_bytes: 256, max_tables: 3, stripes: 4 }
    }

    fn open(dir: &TempDir) -> LsmDatabase {
        LsmDatabase::open(dir.path(), tiny_config()).unwrap()
    }

    /// A background executor backed by plain threads — simulates the
    /// Argobots pool without needing a runtime in unit tests.
    fn thread_executor() -> BackgroundExecutor {
        Arc::new(|task: Box<dyn FnOnce() + Send + 'static>| {
            std::thread::spawn(task);
        })
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
        assert_eq!(db.get(b"fresh").unwrap().as_deref(), Some(old.as_slice()), "replayed from WAL");
    }

    #[test]
    fn survives_reopen_with_wal_only() {
        let dir = TempDir::new("lsm-wal").unwrap();
        {
            let db = LsmDatabase::open(dir.path(), LsmConfig::default()).unwrap();
            db.put(b"persist", b"me").unwrap();
            db.erase(b"persist2").ok();
            // No flush: data only in WAL + memtable.
            assert_eq!(db.table_count(), 0);
        }
        let db = LsmDatabase::open(dir.path(), LsmConfig::default()).unwrap();
        assert_eq!(db.get(b"persist").unwrap().as_deref(), Some(b"me".as_slice()));
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
            assert!(db.table_count() >= 1, "expected flushes with tiny memtable");
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
    fn tiered_ingest_rewrites_each_byte_once_per_tier() {
        // 64 memtables of never-seen keys, 16 records of 12 + 116 bytes
        // each, into one stripe with tiers of `max_tables + 1` = 5.
        let config = LsmConfig { memtable_bytes: 2048, max_tables: 4, stripes: 1 };
        let dir = TempDir::new("lsm-tiers").unwrap();
        let key = |i: u32| format!("ingest-{i:05}").into_bytes();
        let value = |i: u32| vec![i as u8; 116];
        let files = |ext: &str| {
            let entries = std::fs::read_dir(dir.path()).unwrap().map(|e| e.unwrap().path());
            entries.filter(|p| p.extension().is_some_and(|x| x == ext)).count()
        };
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
                    // Four seals, no merge yet: a sealed WAL is the
                    // table, nothing was written a second time.
                    assert_eq!((files("seg"), files("tbl")), (4, 0));
                    assert_eq!(db.table_count(), 4);
                    assert_eq!(db.compaction_bytes_written(), 0);
                }
                db.put(&key(i), &value(i)).unwrap();
            }
            // A record is 8 + 12 + 116 bytes in a merged table, which
            // ends in a 4-byte trailer. Every fifth seal merged 5 × 16
            // records into a tier-1 table (12 times), every fifth of
            // those 5 × 80 into a tier-2 table (twice): 1.83 bytes
            // rewritten per user byte. Merging the whole stripe whenever
            // it exceeded four tables rewrote 5 + 9 + … + 61 = 495
            // memtables for 64: 7.7.
            let user_bytes = 1024 * (12 + 116);
            let rewritten = 12 * (80 * 136 + 4) + 2 * (400 * 136 + 4);
            assert_eq!(db.compaction_bytes_written(), rewritten);
            assert!(rewritten <= 3 * user_bytes);
            // Everything this thread wrote to any file: each record once
            // to the WAL, framed, and the merges. There is no third term.
            let wal_bytes = 1024 * (WAL_FRAMING as u64 + 12 + 116);
            assert_eq!(thread_bytes_written() - written_before, wal_bytes + rewritten);
            // Two tier-2 tables, two tier-1, four sealed segments.
            assert_eq!(db.table_count(), 8);
            assert_eq!((files("seg"), files("tbl")), (4, 4));
            assert!(db.table_count() <= config.max_tables * 3);
            check(&db);
        }
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        assert_eq!(db.table_count(), 8);
        check(&db);
    }

    #[test]
    fn partial_run_keeps_tombstones_that_an_older_table_needs() {
        let config = LsmConfig { memtable_bytes: 256, max_tables: 2, stripes: 1 };
        let dir = TempDir::new("lsm-partial").unwrap();
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        // One batch seals once: a tier-1 table (≥ 3 × 256 bytes) that
        // holds `doomed`.
        let batch: Vec<(Vec<u8>, Vec<u8>)> = (0..10u32)
            .map(|i| (format!("big-{i}").into_bytes(), vec![b'x'; 100]))
            .chain([(b"doomed".to_vec(), b"v".to_vec())])
            .collect();
        let refs: Vec<(&[u8], &[u8])> =
            batch.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
        db.put_multi(&refs).unwrap();
        assert_eq!(db.table_count(), 1);
        // Three small tables above it: the run is those three, and its
        // product must still carry the tombstone.
        assert!(db.erase(b"doomed").unwrap());
        db.flush().unwrap();
        for name in [b"a", b"b"] {
            db.put(name, b"1").unwrap();
            db.flush().unwrap();
        }
        assert_eq!(db.table_count(), 2, "the big table and the merged run");
        assert_eq!(db.get(b"doomed").unwrap(), None);
        assert_eq!(db.len().unwrap(), 12);
    }

    #[test]
    fn bloom_filter_has_no_false_negatives_and_few_false_positives() {
        let keys: Vec<Vec<u8>> =
            (0..10_000u32).map(|i| format!("k-{i:014}").into_bytes()).collect();
        let bloom = Bloom::build(keys.len(), keys.iter().map(Vec::as_slice));
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
        // One stripe so both keys share one WAL file.
        let config = LsmConfig { stripes: 1, ..LsmConfig::default() };
        {
            let db = LsmDatabase::open(dir.path(), config).unwrap();
            db.put(b"ok", b"1").unwrap();
            db.put(b"torn", b"2").unwrap();
        }
        // Simulate a torn write: chop bytes off the WAL tail.
        let wal = dir.path().join("wal-000.log");
        let data = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &data[..data.len() - 3]).unwrap();
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
        let table = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "tbl"))
            .unwrap();
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
        let wal_sizes = |dir: &Path| -> Vec<u64> {
            (0..tiny_config().stripes)
                .map(|s| {
                    std::fs::metadata(wal_path(dir, s)).map(|m| m.len()).unwrap_or(0)
                })
                .collect()
        };
        let before = wal_sizes(dir.path());
        // True negative: key nowhere in the database. No tombstone may
        // be logged in any stripe.
        assert!(!db.erase(b"never-existed").unwrap());
        assert_eq!(wal_sizes(dir.path()), before, "true-negative erase wrote a WAL record");
        // True positive: exactly one stripe's WAL grows.
        assert!(db.erase(b"present").unwrap());
        let after = wal_sizes(dir.path());
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
    fn background_executor_merges_off_the_write_path() {
        let dir = TempDir::new("lsm-bg").unwrap();
        let db = LsmDatabase::open(
            dir.path(),
            LsmConfig { memtable_bytes: 512, stripes: 2, ..LsmConfig::default() },
        )
        .unwrap();
        let scheduled = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&scheduled);
        assert!(db.set_background_executor(Arc::new(move |task| {
            count.fetch_add(1, Ordering::Relaxed);
            std::thread::spawn(task);
        })));
        // Second install is rejected.
        assert!(!db.set_background_executor(thread_executor()));
        for i in 0..200u32 {
            db.put(format!("bg-{i:04}").as_bytes(), &[b'x'; 64]).unwrap();
        }
        assert!(scheduled.load(Ordering::Relaxed) > 0, "seals must schedule maintenance");
        // ~13 seals per stripe: the background merges without any
        // flush() call.
        let deadline = Instant::now() + Duration::from_secs(5);
        while db.compaction_bytes_written() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(db.compaction_bytes_written() > 0, "background maintenance never merged");
        // Data stays readable throughout, and a foreground flush joins
        // cleanly with in-flight maintenance.
        db.flush().unwrap();
        assert_eq!(db.len().unwrap(), 200);
        assert_eq!(db.get(b"bg-0042").unwrap().as_deref(), Some([b'x'; 64].as_slice()));
    }

    #[test]
    fn stalled_executor_merges_inline_past_two_full_tiers() {
        let dir = TempDir::new("lsm-stalled").unwrap();
        let config = LsmConfig { memtable_bytes: 256, max_tables: 2, stripes: 1 };
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        // Executor that never runs its tasks: a stalled background pool.
        assert!(db.set_background_executor(Arc::new(|_task| {})));
        let mut longest = 0;
        for i in 0..400u32 {
            db.put(format!("bp-{i:04}").as_bytes(), &[b'x'; 64]).unwrap();
            let snap = LsmInner::snapshot_arc(&db.inner.stripes[0]);
            longest = longest.max(db.inner.run_len(&snap.tables));
        }
        // ~110 seals. A run waits for the executor until it is two full
        // tiers long; the seal after that merges it inline.
        assert_eq!(longest, 2 * (config.max_tables + 1));
        assert!(db.compaction_bytes_written() > 0);
        db.flush().unwrap();
        assert_eq!(db.len().unwrap(), 400);
    }

    #[test]
    fn background_error_surfaces_on_next_flush() {
        let dir = TempDir::new("lsm-bgerr").unwrap();
        let db = LsmDatabase::open(
            dir.path(),
            LsmConfig { memtable_bytes: 128, stripes: 1, ..LsmConfig::default() },
        )
        .unwrap();
        // Run maintenance synchronously on the caller so the fault is
        // deterministic.
        assert!(db.set_background_executor(Arc::new(|task| task())));
        db.set_fail_point(LsmFailPoint::MidTableWrite);
        for i in 0..30u32 {
            db.put(format!("e{i:02}").as_bytes(), &[b'x'; 32]).unwrap();
        }
        db.set_fail_point(LsmFailPoint::None);
        let err = db.take_background_error();
        assert!(matches!(err, Some(YokanError::Io(_))), "expected parked error, got {err:?}");
        // The run a failed merge leaves is merged by the next flush.
        assert_eq!(db.compaction_bytes_written(), 0);
        db.flush().unwrap();
        assert!(db.compaction_bytes_written() > 0);
        assert_eq!(db.len().unwrap(), 30);
    }

    /// The paths of stripe 0's tables, oldest → newest.
    fn table_names(db: &LsmDatabase) -> Vec<String> {
        let snap = LsmInner::snapshot_arc(&db.inner.stripes[0]);
        snap.tables.iter().map(|t| t.path.file_name().unwrap().to_string_lossy().into()).collect()
    }

    #[test]
    fn a_merge_publishes_below_the_seals_that_landed_while_it_ran() {
        let config = LsmConfig { memtable_bytes: 256, max_tables: 2, stripes: 1 };
        let dir = TempDir::new("lsm-behind").unwrap();
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        let seal = |name: &str, value: &[u8]| {
            db.put(name.as_bytes(), value).unwrap();
            let stripe = &db.inner.stripes[0];
            db.inner.seal_locked(stripe, &mut stripe.writer.lock()).unwrap();
        };
        // An older, tier-1 table the run stops short of, then a run of
        // three that a background task claims.
        seal("big", &[b'x'; 1000]);
        for (name, value) in [("a", "a0"), ("b", "b0"), ("c", "c0")] {
            seal(name, value.as_bytes());
        }
        assert!(db.erase(b"big").unwrap());
        let stripe = &db.inner.stripes[0];
        let run = {
            let mut writer = stripe.writer.lock();
            writer.maintaining = true;
            db.inner.claim_run(stripe, &mut writer).expect("three tables of a tier are a run")
        };
        assert_eq!((run.seq, run.inputs.len(), run.reaches_oldest), (4, 3, false));
        // Off-lock, the merge has not written yet; two seals land,
        // overwriting what it is about to merge.
        seal("a", b"a1");
        seal("c", b"c1");
        db.inner.compact_run(stripe, &run).unwrap();
        stripe.writer.lock().maintaining = false;
        let published = [
            "sst-000-0000000000.seg",
            "sst-000-0000000004.tbl",
            "sst-000-0000000005.seg",
            "sst-000-0000000006.seg",
        ];
        assert_eq!(table_names(&db), published);
        let acked = vec![
            (b"a".to_vec(), b"a1".to_vec()),
            (b"b".to_vec(), b"b0".to_vec()),
            (b"c".to_vec(), b"c1".to_vec()),
        ];
        assert_eq!(db.dump().unwrap(), acked);
        drop(db);
        let db = LsmDatabase::open(dir.path(), config).unwrap();
        assert_eq!(table_names(&db), published, "sequence order is age order");
        assert_eq!(db.dump().unwrap(), acked);
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

    #[test]
    fn concurrent_reads_during_background_churn() {
        // Same invariant as above, but with maintenance running on
        // background threads instead of inline.
        let dir = TempDir::new("lsm-bg-churn").unwrap();
        let db = std::sync::Arc::new(
            LsmDatabase::open(
                dir.path(),
                LsmConfig { memtable_bytes: 512, max_tables: 2, stripes: 4 },
            )
            .unwrap(),
        );
        assert!(db.set_background_executor(thread_executor()));
        db.put(b"stable", b"value").unwrap();
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let db = std::sync::Arc::clone(&db);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        assert_eq!(
                            db.get(b"stable").unwrap().as_deref(),
                            Some(b"value".as_slice())
                        );
                    }
                })
            })
            .collect();
        for i in 0..400u32 {
            db.put(format!("churn-{i:04}").as_bytes(), &[b'x'; 64]).unwrap();
        }
        db.flush().unwrap();
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            reader.join().unwrap();
        }
        assert_eq!(db.get(b"stable").unwrap().as_deref(), Some(b"value".as_slice()));
        assert_eq!(db.len().unwrap(), 401);
    }
}
