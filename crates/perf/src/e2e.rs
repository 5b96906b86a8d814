//! The closed-loop end-to-end driver.
//!
//! Mochi clients are HPC ranks that block on each reply and `RoutedKv` is
//! synchronous, so load is a closed loop of `min(2, nproc)` client threads;
//! an honest open loop cannot be generated from that few threads and waits
//! for an async client.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mochi_core::RoutedKv;
use mochi_util::SeededRng;

use crate::keys::{self, Chooser};
use crate::spec::{Shape, Workload, BATCH_KEYS};
use crate::stats::{self, Picked};

/// Raw samples of one slice of the measured window.
#[derive(Debug, Default, Clone)]
pub struct Slice {
    /// Keys read or written by calls that completed in this slice.
    pub ops: u64,
    /// Per-call latencies, nanoseconds.
    pub get_ns: Vec<u64>,
    pub put_ns: Vec<u64>,
}

/// What one client thread did over the measured window.
#[derive(Debug, Default, Clone)]
pub struct ThreadLog {
    pub slices: Vec<Slice>,
    /// Keys read or written, measured window only.
    pub attempted: u64,
    /// Of those: `Err`s, missing keys and wrong values.
    pub failed: u64,
}

/// When the phases of a run start and end.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub measure_from: Instant,
    pub slice_len: Duration,
    pub slices: usize,
}

impl Schedule {
    /// Warm-up from now for `warmup`, then `slices` slices over `window`.
    pub fn starting_now(warmup: Duration, window: Duration, slices: usize) -> Self {
        let slices = slices.max(1);
        Schedule {
            measure_from: Instant::now() + warmup,
            slice_len: window / slices as u32,
            slices,
        }
    }

    /// Slice that `now` falls in; `None` during warm-up, `Err` once over.
    fn slice_at(&self, now: Instant) -> Result<Option<usize>, ()> {
        let Some(since) = now.checked_duration_since(self.measure_from) else {
            return Ok(None);
        };
        let index = (since.as_nanos() / self.slice_len.as_nanos().max(1)) as usize;
        if index < self.slices {
            Ok(Some(index))
        } else {
            Err(())
        }
    }
}

/// Which call the client makes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Get,
    Put,
}

/// Progress of the ingest workload that its reader side needs: how many
/// keys each client thread has had acknowledged.
pub struct Acked {
    counts: Vec<AtomicU64>,
}

impl Acked {
    pub fn new(threads: usize) -> Self {
        Acked {
            counts: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// One client thread's generator and checker. Thread `t` of `T` writes only
/// keys whose index is `t` modulo `T` and remembers the last sequence it had
/// acknowledged for each, so a `get` of an own key must return exactly that
/// sequence (read-your-writes at rf=1, R+W>N at rf=3); any other key must
/// checksum.
pub struct Client<'a> {
    workload: &'a Workload,
    routed: &'a RoutedKv,
    acked: &'a Acked,
    thread: u64,
    threads: u64,
    rng: SeededRng,
    chooser: Chooser,
    /// Last acknowledged sequence of own key `t + T * slot`.
    own_seq: Vec<u64>,
    /// Batch workload: which call comes next, and a per-slot stamp that keeps
    /// the keys of one `put_multi` distinct.
    next_batch_call: Call,
    batch_stamp: Vec<u64>,
    batch_round: u64,
}

impl<'a> Client<'a> {
    pub fn new(
        workload: &'a Workload,
        routed: &'a RoutedKv,
        acked: &'a Acked,
        thread: usize,
        threads: usize,
        seed: u64,
    ) -> Self {
        let n = workload.preload_keys;
        let own = n.div_ceil(threads as u64) as usize;
        let chooser = match workload.shape {
            Shape::Point {
                zipf_theta: Some(theta),
                ..
            } => Chooser::zipfian(n, theta),
            _ => Chooser::uniform(n.max(1)),
        };
        Client {
            workload,
            routed,
            acked,
            thread: thread as u64,
            threads: threads as u64,
            rng: SeededRng::new(seed).child(&format!("client/{thread}")),
            chooser,
            own_seq: vec![0; own],
            next_batch_call: if thread.is_multiple_of(2) {
                Call::Put
            } else {
                Call::Get
            },
            batch_stamp: vec![0; own],
            batch_round: 0,
        }
    }

    fn is_own(&self, index: u64) -> bool {
        index % self.threads == self.thread
    }

    /// The own key nearest to `index` (same popularity, own partition).
    fn own_near(&self, index: u64) -> u64 {
        let candidate = index - index % self.threads + self.thread;
        if candidate < self.workload.preload_keys {
            candidate
        } else {
            candidate - self.threads
        }
    }

    /// Checks a fetched value; `true` when it is the one expected.
    fn verify(&self, index: u64, key: &[u8], fetched: Option<&[u8]>) -> bool {
        let Some(bytes) = fetched else { return false };
        let Some(seq) = keys::check(key, bytes, self.workload.value_len) else {
            return false;
        };
        match self.workload.shape {
            Shape::Ingest { .. } => seq == 0,
            _ if self.is_own(index) => seq == self.own_seq[(index / self.threads) as usize],
            _ => true,
        }
    }

    /// Makes one `RoutedKv` call. Returns which call it was, the keys it
    /// covered and how many of them failed.
    pub fn step(&mut self) -> (Call, u64, u64) {
        match self.workload.shape {
            Shape::Point { get_share, .. } => {
                let index = self.chooser.next(&mut self.rng);
                if self.rng.next_f64() < get_share {
                    (Call::Get, 1, self.get_one(index))
                } else {
                    let index = self.own_near(index);
                    let slot = (index / self.threads) as usize;
                    let seq = self.own_seq[slot] + 1;
                    let key = keys::key(index);
                    let value = keys::value(&key, seq, self.workload.value_len);
                    match self.routed.put(&key, &value) {
                        Ok(()) => {
                            self.own_seq[slot] = seq;
                            (Call::Put, 1, 0)
                        }
                        Err(_) => (Call::Put, 1, 1),
                    }
                }
            }
            Shape::Batch => {
                let call = self.next_batch_call;
                self.next_batch_call = if call == Call::Put {
                    Call::Get
                } else {
                    Call::Put
                };
                let failed = match call {
                    Call::Put => self.put_batch(),
                    Call::Get => self.get_batch(),
                };
                (call, BATCH_KEYS as u64, failed)
            }
            Shape::Ingest { get_share } => {
                let reader = self.rng.range_u64(0, self.threads);
                let available = self.acked.counts[reader as usize].load(Ordering::Acquire);
                if available > 0 && self.rng.next_f64() < get_share {
                    let index = reader + self.threads * self.rng.range_u64(0, available);
                    (Call::Get, 1, self.get_one(index))
                } else {
                    let mine = &self.acked.counts[self.thread as usize];
                    let count = mine.load(Ordering::Relaxed);
                    let key = keys::key(self.thread + self.threads * count);
                    let value = keys::value(&key, 0, self.workload.value_len);
                    match self.routed.put(&key, &value) {
                        Ok(()) => {
                            mine.store(count + 1, Ordering::Release);
                            (Call::Put, 1, 0)
                        }
                        // The key stays unacknowledged: never read back.
                        Err(_) => (Call::Put, 1, 1),
                    }
                }
            }
        }
    }

    fn get_one(&mut self, index: u64) -> u64 {
        let key = keys::key(index);
        match self.routed.get(&key) {
            Ok(fetched) => u64::from(!self.verify(index, &key, fetched.as_deref())),
            Err(_) => 1,
        }
    }

    fn put_batch(&mut self) -> u64 {
        self.batch_round += 1;
        let mut batch: Vec<(u64, Vec<u8>, Vec<u8>)> = Vec::with_capacity(BATCH_KEYS);
        while batch.len() < BATCH_KEYS {
            let drawn = self.chooser.next(&mut self.rng);
            let index = self.own_near(drawn);
            let slot = (index / self.threads) as usize;
            if self.batch_stamp[slot] == self.batch_round {
                continue;
            }
            self.batch_stamp[slot] = self.batch_round;
            let key = keys::key(index);
            let value = keys::value(&key, self.own_seq[slot] + 1, self.workload.value_len);
            batch.push((index, key, value));
        }
        let refs: Vec<(&[u8], &[u8])> = batch
            .iter()
            .map(|(_, k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        let mut failed = 0;
        for (outcome, (index, _, _)) in self.routed.put_multi(&refs).into_iter().zip(&batch) {
            match outcome {
                Ok(()) => self.own_seq[(index / self.threads) as usize] += 1,
                Err(_) => failed += 1,
            }
        }
        failed
    }

    fn get_batch(&mut self) -> u64 {
        let batch: Vec<(u64, Vec<u8>)> = (0..BATCH_KEYS)
            .map(|_| {
                let index = self.chooser.next(&mut self.rng);
                (index, keys::key(index))
            })
            .collect();
        let refs: Vec<&[u8]> = batch.iter().map(|(_, k)| k.as_slice()).collect();
        let mut failed = 0;
        for (outcome, (index, key)) in self.routed.get_multi(&refs).into_iter().zip(&batch) {
            let good = match outcome {
                Ok(fetched) => self.verify(*index, key, fetched.as_deref()),
                Err(_) => false,
            };
            failed += u64::from(!good);
        }
        failed
    }

    /// Runs the closed loop over `schedule`: unrecorded during warm-up, then
    /// one [`Slice`] per slice of the window.
    pub fn run(&mut self, schedule: &Schedule) -> ThreadLog {
        let mut log = ThreadLog {
            slices: vec![Slice::default(); schedule.slices],
            ..Default::default()
        };
        loop {
            let started = Instant::now();
            let (call, keys, failed) = self.step();
            let finished = Instant::now();
            match schedule.slice_at(finished) {
                Ok(None) => {}
                Ok(Some(index)) => {
                    let slice = &mut log.slices[index];
                    slice.ops += keys;
                    let nanos = (finished - started).as_nanos() as u64;
                    match call {
                        Call::Get => slice.get_ns.push(nanos),
                        Call::Put => slice.put_ns.push(nanos),
                    }
                    log.attempted += keys;
                    log.failed += failed;
                }
                Err(()) => return log,
            }
        }
    }
}

/// End-to-end figures of one run. A latency percentile is the median over
/// the window's slices of the slice's exact percentile, with the pooled
/// sample count. The rate is the interquartile mean of the slices' rates: a
/// median would do on a steady workload, but an LSM slows as it fills, and
/// the one slice in the middle of that slope says little about the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub ops_per_s: f64,
    /// Slowest and fastest slice, to show how steady the window was.
    pub slice_rates: (f64, f64),
    pub get_p50: Picked,
    pub put_p50: Picked,
    pub attempted: u64,
    pub failed: u64,
}

/// Median over slices of percentile `wanted` of the slice's samples (pooled
/// over threads), with the total sample count.
fn sliced_percentile(per_slice: Vec<Vec<u64>>, wanted: f64) -> Picked {
    let mut total = 0;
    let mut lowest = wanted;
    let mut values = Vec::with_capacity(per_slice.len());
    for mut samples in per_slice {
        if samples.is_empty() {
            continue;
        }
        let picked = stats::pick(&mut samples, wanted);
        total += picked.samples;
        lowest = lowest.min(picked.percentile);
        values.push(picked.value as f64);
    }
    Picked {
        value: stats::median(&values).round() as u64,
        percentile: lowest,
        samples: total,
    }
}

pub fn summarize(logs: &[ThreadLog], slice_len: Duration) -> Summary {
    let slices = logs.iter().map(|l| l.slices.len()).max().unwrap_or(0);
    let pooled = |select: fn(&Slice) -> &Vec<u64>| -> Vec<Vec<u64>> {
        (0..slices)
            .map(|i| {
                logs.iter()
                    .filter_map(|l| l.slices.get(i))
                    .flat_map(|s| select(s).iter().copied())
                    .collect()
            })
            .collect()
    };
    let rates: Vec<f64> = (0..slices)
        .map(|i| {
            let ops: u64 = logs
                .iter()
                .filter_map(|l| l.slices.get(i))
                .map(|s| s.ops)
                .sum();
            ops as f64 / slice_len.as_secs_f64()
        })
        .collect();
    Summary {
        ops_per_s: stats::interquartile_mean(&rates),
        slice_rates: (
            rates.iter().copied().fold(f64::INFINITY, f64::min),
            rates.iter().copied().fold(0.0, f64::max),
        ),
        get_p50: sliced_percentile(pooled(|s| &s.get_ns), 50.0),
        put_p50: sliced_percentile(pooled(|s| &s.put_ns), 50.0),
        attempted: logs.iter().map(|l| l.attempted).sum(),
        failed: logs.iter().map(|l| l.failed).sum(),
    }
}

/// Runs `threads` clients over `routed` for `warmup` + `window`.
pub fn drive(
    workload: &Workload,
    routed: &RoutedKv,
    threads: usize,
    seed: u64,
    warmup: Duration,
    window: Duration,
    slices: usize,
) -> Summary {
    let acked = Acked::new(threads);
    let schedule = Schedule::starting_now(warmup, window, slices);
    let logs: Vec<ThreadLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let acked = &acked;
                let schedule = &schedule;
                scope.spawn(move || {
                    Client::new(workload, routed, acked, t, threads, seed).run(schedule)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    summarize(&logs, schedule.slice_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_takes_the_median_slice() {
        let slice = |ops, get: &[u64]| Slice {
            ops,
            get_ns: get.to_vec(),
            put_ns: vec![],
        };
        let fast: Vec<u64> = (1..=40).collect();
        let slow: Vec<u64> = (1001..=1040).collect();
        let log = ThreadLog {
            slices: vec![slice(100, &fast), slice(10, &slow), slice(120, &fast)],
            attempted: 230,
            failed: 0,
        };
        let summary = summarize(&[log.clone(), log], Duration::from_secs(1));
        // Slice rates are 200, 20 and 240 ops/s over two threads; with three
        // slices nothing is dropped, so the rate is their mean.
        assert_eq!(summary.ops_per_s, 460.0 / 3.0);
        assert_eq!(summary.slice_rates, (20.0, 240.0));
        // The stalled middle slice does not move the median latency.
        assert_eq!(summary.get_p50.value, 20);
        assert_eq!(summary.get_p50.samples, 240);
        assert_eq!(summary.put_p50.samples, 0);
        assert_eq!(summary.attempted, 460);
    }

    #[test]
    fn schedule_maps_instants_to_slices() {
        let schedule = Schedule::starting_now(Duration::from_secs(1), Duration::from_secs(10), 10);
        let t0 = schedule.measure_from;
        assert_eq!(schedule.slice_at(t0 - Duration::from_millis(1)), Ok(None));
        assert_eq!(schedule.slice_at(t0), Ok(Some(0)));
        assert_eq!(
            schedule.slice_at(t0 + Duration::from_millis(9_999)),
            Ok(Some(9))
        );
        assert_eq!(schedule.slice_at(t0 + Duration::from_secs(10)), Err(()));
    }
}
