//! Seeded model check: the LSM backend behaves exactly like a model
//! `BTreeMap` under random operation sequences, including flushes,
//! compaction-inducing churn, reopens, and one crash per history, and a
//! `load` of random pairs `dump`s back the same pairs. Driven by
//! `mochi_util::SeededRng`; a failure prints the `run_seed(seed)` or
//! `dump_load_seed(seed)` that replays it.
//!
//! Each history arms one random `LsmFailPoint` at a random step. The
//! first call that fails is a crash: the instance is dropped and the
//! directory reopened, and the operation in flight may have been applied
//! or not — the reopened database must show one or the other, and from
//! then on the model follows what it shows.
//!
//! Three families of histories: a mixed one over 73 keys, long enough to
//! build third-tier tables; an overwrite- and erase-heavy one over twelve
//! keys with larger values, in which merges copy values out of dead logs
//! and unlink them; and the mixed one with a `clear` one step in 20,
//! after a crash inside which each stripe holds all or nothing. After its
//! final flush, the second checks that the directory holds at most
//! [`DISK_PER_LIVE`] bytes per live byte (plus one full log per stripe),
//! and every history that reopening it finds no log to unlink.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use mochi_util::{fnv1a64, SeededRng, TempDir};
use mochi_yokan::backend::lsm::{LsmConfig, LsmDatabase, LsmFailPoint};
use mochi_yokan::backend::Database;

const SEEDS: u64 = 200;
const CHURN_SEEDS: u64 = 100;
const CLEARING_SEEDS: u64 = 50;
const ALL_SEEDS: u64 = SEEDS + CHURN_SEEDS + CLEARING_SEEDS;
const DUMP_SEEDS: u64 = 64;
const OPS_PER_SEED: usize = 300;

/// Tiers of three (`max_tables + 1`): a table that stands for 9 × 128
/// bytes or more sits in the third tier; a log takes 9 memtables. Two
/// stripes, so ~300 operations fill them that far while the reopen op
/// still exercises routing stability.
const CONFIG: LsmConfig = LsmConfig { memtable_bytes: 128, max_tables: 2, stripes: 2 };
const THIRD_TIER_BYTES: u64 = 9 * 128;

/// Bound of the churn family's directory size after its final flush: per
/// live byte of keys and values, plus one full log per stripe — nine seals
/// of a 300-byte value each — which no merge can shrink while it is
/// appended to. Seen beyond that log: median 4.5, at most 13.6 over the 100
/// histories. The multiple is large because a log is large here: every
/// value outgrows the 128-byte memtable and seals its own range, so a log
/// holds nine values while a stripe keeps about six live, and one live
/// value or older version a merge has not reached pins all nine.
const DISK_PER_LIVE: u64 = 16;
const LOG_ALLOWANCE: u64 = 2 * 9 * (13 + 6 + 300 + 29);

const FAIL_POINTS: [LsmFailPoint; 4] = [
    LsmFailPoint::WalAppendTorn,
    LsmFailPoint::InputUnlinkFails,
    LsmFailPoint::MidTableWrite,
    LsmFailPoint::AfterMergePersist,
];

/// Small key space (73 keys, the empty one included) so operations
/// collide often; the churn family uses twelve.
fn key(rng: &mut SeededRng, churn: bool) -> Vec<u8> {
    if churn {
        return format!("hot-{}", rng.range(0, 12)).into_bytes();
    }
    (0..rng.range(0, 3)).map(|_| b'a' + rng.range(0, 8) as u8).collect()
}

fn files(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let entries = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
    let mut found: Vec<PathBuf> =
        entries.filter(|p| p.extension().is_some_and(|x| x == ext)).collect();
    found.sort();
    found
}

fn disk_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().metadata().unwrap().len()).sum()
}

/// What one history reached.
struct Outcome {
    third_tier: bool,
    crashed: bool,
    /// The crash was inside a `clear`.
    crashed_clearing: bool,
}

/// The open database of a history, and the fail point armed in it.
struct Subject<'a> {
    dir: &'a Path,
    db: Option<LsmDatabase>,
    armed: bool,
}

impl Subject<'_> {
    /// The failed call was a crash: reopen, which disarms the fault.
    fn crash(&mut self, step: usize, error: &dyn std::fmt::Display) {
        assert!(self.armed, "step {step}: {error} with no fault armed");
        self.reopen();
        self.armed = false;
    }

    fn db(&self) -> &LsmDatabase {
        self.db.as_ref().expect("an open database")
    }

    fn reopen(&mut self) {
        // The old instance is gone before the directory is reopened.
        self.db = None;
        self.db = Some(LsmDatabase::open(self.dir, CONFIG).unwrap());
    }

    /// After a crash in a `clear`, which clears one stripe after the
    /// other, each stripe holds everything or nothing; the model follows.
    fn settle_clear(&self, model: &mut BTreeMap<Vec<u8>, Vec<u8>>, step: usize) {
        let got: BTreeMap<Vec<u8>, Vec<u8>> = self.db().dump().unwrap().into_iter().collect();
        let stripe = |key: &[u8]| fnv1a64(key) % CONFIG.stripes as u64;
        let missing = model.keys().filter(|key| !got.contains_key(*key));
        let cleared: BTreeSet<u64> = missing.map(|key| stripe(key)).collect();
        model.retain(|key, _| !cleared.contains(&stripe(key)));
        assert_eq!(got, *model, "step {step}");
    }

    /// After a crash in an operation on `key`, the database holds its
    /// value from before or from after; the model follows.
    fn settle(
        &self,
        model: &mut BTreeMap<Vec<u8>, Vec<u8>>,
        key: Vec<u8>,
        after: Option<Vec<u8>>,
        step: usize,
    ) {
        let got = self.db().get(&key).unwrap();
        assert!(got == after || got.as_ref() == model.get(&key), "step {step}: {got:?}");
        match got {
            Some(value) => model.insert(key, value),
            None => model.remove(&key),
        };
    }
}

fn run_seed(seed: u64) -> Outcome {
    let churn = (SEEDS..SEEDS + CHURN_SEEDS).contains(&seed);
    let clearing = seed >= SEEDS + CHURN_SEEDS;
    let mut rng = SeededRng::new(seed);
    let fail_point = FAIL_POINTS[rng.range(0, FAIL_POINTS.len())];
    let fail_at = rng.range(0, OPS_PER_SEED);
    let dir = TempDir::new("lsm-model").unwrap();
    let db = LsmDatabase::open(dir.path(), CONFIG).unwrap();
    let mut subject = Subject { dir: dir.path(), db: Some(db), armed: false };
    let (mut crashed, mut crashed_clearing, mut largest) = (false, false, 0);
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for step in 0..OPS_PER_SEED {
        if step == fail_at {
            subject.db().set_fail_point(fail_point);
            subject.armed = true;
        }
        // mixed — put 4 : erase 2 : get 3 : list 1 : len 1 : flush 1 : reopen 1;
        // churn — put 7 : erase 3 : get 1 : list 0 : len 0 : flush 1 : reopen 1;
        // clearing — a clear one step in 20, else mixed
        let op = if clearing && rng.range(0, 20) == 0 {
            13
        } else if churn {
            [0, 0, 0, 0, 0, 0, 0, 4, 4, 4, 6, 11, 12][rng.range(0, 13)]
        } else {
            rng.range(0, 13)
        };
        match op {
            0..=3 => {
                let k = key(&mut rng, churn);
                let mut v = vec![0u8; if churn { rng.range(100, 300) } else { rng.range(0, 160) }];
                rng.fill_bytes(&mut v);
                match subject.db().put(&k, &v) {
                    Ok(()) => drop(model.insert(k, v)),
                    Err(e) => {
                        subject.crash(step, &e);
                        crashed = true;
                        subject.settle(&mut model, k, Some(v), step);
                    }
                }
            }
            4..=5 => {
                let k = key(&mut rng, churn);
                match subject.db().erase(&k) {
                    Ok(existed) => assert_eq!(existed, model.remove(&k).is_some(), "step {step}"),
                    Err(e) => {
                        subject.crash(step, &e);
                        crashed = true;
                        subject.settle(&mut model, k, None, step);
                    }
                }
            }
            6..=8 => {
                let k = key(&mut rng, churn);
                assert_eq!(subject.db().get(&k).unwrap(), model.get(&k).cloned(), "step {step}");
            }
            9 => {
                let prefix: Vec<u8> = key(&mut rng, churn).into_iter().take(1).collect();
                let got = subject.db().list_keys(&prefix, None, usize::MAX).unwrap();
                let want: Vec<Vec<u8>> =
                    model.keys().filter(|k| k.starts_with(&prefix)).cloned().collect();
                assert_eq!(got, want, "step {step}");
            }
            10 => assert_eq!(subject.db().len().unwrap(), model.len() as u64, "step {step}"),
            11 => {
                if let Err(e) = subject.db().flush() {
                    subject.crash(step, &e);
                    crashed = true;
                }
            }
            12 => subject.reopen(),
            _ => match subject.db().clear() {
                Ok(()) => model.clear(),
                Err(e) => {
                    subject.crash(step, &e);
                    (crashed, crashed_clearing) = (true, true);
                    subject.settle_clear(&mut model, step);
                }
            },
        }
        largest = largest.max(subject.db().table_bytes().into_iter().max().unwrap_or(0));
    }
    subject.db().set_fail_point(LsmFailPoint::None);
    if let Err(e) = subject.db().flush() {
        // A parked unlink failure from before the disarm.
        subject.crash(OPS_PER_SEED, &e);
        crashed = true;
        subject.db().flush().unwrap();
    }
    let want: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
    assert_eq!(subject.db().dump().unwrap(), want);
    if churn {
        let live: u64 = want.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();
        let disk = disk_bytes(dir.path());
        assert!(
            disk <= DISK_PER_LIVE * live + LOG_ALLOWANCE,
            "{disk} bytes on disk for {live} live"
        );
    }
    // Final full comparison, after one more reopen — which finds no log
    // that nothing references.
    let logs = files(dir.path(), "log");
    let counted = subject.db().stats();
    subject.reopen();
    let recounted = subject.db().stats();
    assert_eq!(
        (counted.value_bytes_live, counted.value_bytes_total),
        (recounted.value_bytes_live, recounted.value_bytes_total),
        "seed {seed}"
    );
    assert_eq!(files(dir.path(), "log"), logs, "a log nothing referenced was left behind");
    assert_eq!(subject.db().dump().unwrap(), want);
    Outcome { third_tier: largest >= THIRD_TIER_BYTES, crashed, crashed_clearing }
}

#[test]
fn lsm_matches_model_over_seeded_histories() {
    // The histories are independent and spend most of their time in
    // `sync_data`: a few workers overlap the waits.
    const WORKERS: u64 = 4;
    let outcomes: Vec<(u64, Outcome)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|worker| {
                scope.spawn(move || {
                    let seeds = (worker..ALL_SEEDS).step_by(WORKERS as usize);
                    seeds
                        .map(|seed| match std::panic::catch_unwind(|| run_seed(seed)) {
                            Ok(outcome) => (seed, outcome),
                            Err(_) => panic!("LSM diverged from the model: run_seed({seed})"),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("a seed failed, named above")).collect()
    });
    let mixed = outcomes.iter().filter(|(seed, _)| *seed < SEEDS);
    let third_tier = mixed.filter(|(_, o)| o.third_tier).count() as u64;
    let crashed = outcomes.iter().filter(|(_, o)| o.crashed).count() as u64;
    let crashed_clearing = outcomes.iter().filter(|(_, o)| o.crashed_clearing).count();
    // The histories are long enough to be about tiered compaction, and
    // most of their faults fire — a few inside a clear.
    assert!(crashed_clearing > 0, "no history crashed inside a clear");
    assert!(
        third_tier * 2 > SEEDS,
        "only {third_tier} of {SEEDS} histories reached the third tier"
    );
    assert!(crashed * 2 > ALL_SEEDS, "only {crashed} of {ALL_SEEDS} histories crashed");
}

/// `load` of up to 40 random pairs — keys of zero to three arbitrary
/// bytes, values of 0–31 bytes — into tiny memtables, then `dump`, returns
/// the pairs sorted by key.
fn dump_load_seed(seed: u64) {
    let mut rng = SeededRng::new(seed);
    let bytes = |rng: &mut SeededRng, max: usize| {
        let mut out = vec![0u8; rng.range(0, max)];
        rng.fill_bytes(&mut out);
        out
    };
    let mut pairs = BTreeMap::new();
    for _ in 0..rng.range(0, 41) {
        let key = bytes(&mut rng, 4);
        pairs.insert(key, bytes(&mut rng, 32));
    }
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = pairs.into_iter().collect();
    let dir = TempDir::new("lsm-dump").unwrap();
    let config = LsmConfig { memtable_bytes: 128, max_tables: 2, ..LsmConfig::default() };
    let db = LsmDatabase::open(dir.path(), config).unwrap();
    db.load(&pairs).unwrap();
    assert_eq!(db.dump().unwrap(), pairs);
}

#[test]
fn dump_returns_what_load_stored() {
    for seed in 0..DUMP_SEEDS {
        if std::panic::catch_unwind(|| dump_load_seed(seed)).is_err() {
            panic!("dump differs from load: dump_load_seed({seed})");
        }
    }
}
