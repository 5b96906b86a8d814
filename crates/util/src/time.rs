//! Monotonic time helpers and precise short sleeps.
//!
//! The simulated network fabric models link latency and bandwidth by
//! delaying deliveries. OS `sleep` has ~50µs–1ms granularity depending on
//! the platform, so [`precise_sleep`] sleeps for the bulk of the interval
//! and spins for the remainder, giving the microsecond-level fidelity the
//! latency model needs without burning a core on long waits.

use std::time::{Duration, Instant};

/// Returns seconds elapsed since the first call in this process.
/// Monotonic; used to timestamp monitoring samples.
pub fn monotonic_seconds() -> f64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_secs_f64()
}

/// Sleeps for `duration` with sub-OS-timer precision. Intervals above
/// 200µs use a regular sleep for all but the final stretch; the remainder
/// is spin-waited.
pub fn precise_sleep(duration: Duration) {
    if duration.is_zero() {
        return;
    }
    let start = Instant::now();
    const SPIN_THRESHOLD: Duration = Duration::from_micros(200);
    if duration > SPIN_THRESHOLD {
        std::thread::sleep(duration - SPIN_THRESHOLD);
    }
    while start.elapsed() < duration {
        std::hint::spin_loop();
    }
}

/// A stopwatch for measuring elapsed wall time in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

impl Stopwatch {
    /// Starts a new stopwatch.
    pub fn start() -> Self {
        Self { start: Instant::now() }
    }

    /// Seconds since start.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Duration since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Polls `condition` every `interval` until it returns true or `timeout`
/// elapses. Returns whether the condition became true. Used pervasively in
/// integration tests ("wait until the view converges").
pub fn wait_until(timeout: Duration, interval: Duration, mut condition: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    loop {
        if condition() {
            return true;
        }
        if start.elapsed() >= timeout {
            return false;
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_seconds_increases() {
        let a = monotonic_seconds();
        std::thread::sleep(Duration::from_millis(2));
        let b = monotonic_seconds();
        assert!(b > a);
    }

    #[test]
    fn precise_sleep_is_accurate() {
        for micros in [50u64, 300, 1500] {
            let d = Duration::from_micros(micros);
            let t = Instant::now();
            precise_sleep(d);
            let elapsed = t.elapsed();
            assert!(elapsed >= d, "slept {elapsed:?} < {d:?}");
            // Upper bound is generous to tolerate CI scheduling noise.
            assert!(elapsed < d + Duration::from_millis(10), "slept {elapsed:?} for {d:?}");
        }
    }

    #[test]
    fn wait_until_true_and_timeout() {
        let mut n = 0;
        assert!(wait_until(Duration::from_secs(1), Duration::from_millis(1), || {
            n += 1;
            n >= 3
        }));
        assert!(!wait_until(Duration::from_millis(20), Duration::from_millis(1), || false));
    }
}
