//! Retry policy for forwarded RPCs.
//!
//! Implements the per-call resilience patterns of Hukerikar & Engelmann's
//! pattern language that belong at the RPC layer: bounded retries with
//! exponential backoff, seeded jitter (replayable schedules), and a
//! global retry budget that caps retry amplification when a whole
//! destination degrades.
//!
//! Retries apply only to calls the runtime knows are safe to repeat:
//! the RPC's declaration must be [`crate::RetryClass::Idempotent`] (see
//! [`crate::Rpc`]) and the failure must be classified retryable
//! (`MargoError::is_retryable`). `Handler` errors are
//! application outcomes and are never retried; budget exhaustion
//! (`DeadlineExceeded`) and breaker rejections end the attempt loop
//! immediately.

use std::time::{Duration, Instant};

use mochi_util::ordered_lock::{rank, OrderedMutex};
use mochi_util::SeededRng;

use crate::config::RetryConfig;

/// Runtime state behind the retry policy: the jitter RNG and the sliding
/// one-second retry-budget window.
#[derive(Debug)]
struct RetryState {
    rng: SeededRng,
    /// Start of the current budget window.
    window_start: Instant,
    /// Retries spent in the current window.
    window_spent: u32,
}

/// Shared retry policy, consulted by the forward path on each failure.
#[derive(Debug)]
pub struct RetryPolicy {
    config: RetryConfig,
    state: OrderedMutex<RetryState>,
}

impl RetryPolicy {
    /// Builds a policy from its configuration.
    pub fn new(config: RetryConfig) -> Self {
        let rng = SeededRng::new(config.seed).child("margo-retry-jitter");
        Self {
            config,
            state: OrderedMutex::new(
                rank::MARGO_RETRY_RNG,
                "margo.retry.state",
                RetryState { rng, window_start: Instant::now(), window_spent: 0 },
            ),
        }
    }

    /// Total attempts allowed per logical call (1 = no retries).
    pub fn max_attempts(&self) -> u32 {
        self.config.max_attempts.max(1)
    }

    /// Decides whether one more retry may run, charging the budget if so.
    /// `attempt` is the number of attempts already made (≥ 1).
    pub fn admit_retry(&self, attempt: u32) -> bool {
        if attempt >= self.max_attempts() || self.config.budget_per_sec == 0 {
            return false;
        }
        let mut state = self.state.lock();
        let now = Instant::now();
        if now.duration_since(state.window_start) >= Duration::from_secs(1) {
            state.window_start = now;
            state.window_spent = 0;
        }
        if state.window_spent >= self.config.budget_per_sec {
            return false;
        }
        state.window_spent += 1;
        true
    }

    /// Backoff to sleep before retry number `retry` (1-based): exponential
    /// from `base_backoff_ms`, capped at `max_backoff_ms`, multiplied by a
    /// seeded jitter factor in `[1-jitter, 1+jitter]`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let base = self.config.base_backoff_ms.max(1);
        let exp = retry.saturating_sub(1).min(20);
        let raw = base.saturating_mul(1u64 << exp).min(self.config.max_backoff_ms.max(base));
        let jitter = self.config.jitter.clamp(0.0, 1.0);
        let factor = if jitter == 0.0 {
            1.0
        } else {
            let u = self.state.lock().rng.next_f64();
            1.0 - jitter + 2.0 * jitter * u
        };
        Duration::from_secs_f64((raw as f64 / 1000.0) * factor)
    }

    /// Retries spent in the current budget window (monitoring).
    pub fn budget_spent(&self) -> u32 {
        let mut state = self.state.lock();
        if Instant::now().duration_since(state.window_start) >= Duration::from_secs(1) {
            state.window_spent = 0;
        }
        state.window_spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(max_attempts: u32, budget: u32) -> RetryConfig {
        RetryConfig {
            max_attempts,
            base_backoff_ms: 10,
            max_backoff_ms: 80,
            jitter: 0.0,
            seed: 7,
            budget_per_sec: budget,
        }
    }

    #[test]
    fn attempts_are_bounded() {
        let policy = RetryPolicy::new(config(3, 100));
        assert!(policy.admit_retry(1));
        assert!(policy.admit_retry(2));
        assert!(!policy.admit_retry(3), "attempt 3 of 3 is the last");
    }

    #[test]
    fn budget_caps_retries_per_window() {
        let policy = RetryPolicy::new(config(10, 2));
        assert!(policy.admit_retry(1));
        assert!(policy.admit_retry(1));
        assert!(!policy.admit_retry(1), "budget of 2 exhausted");
        assert_eq!(policy.budget_spent(), 2);
    }

    #[test]
    fn zero_budget_disables_retries() {
        let policy = RetryPolicy::new(config(10, 0));
        assert!(!policy.admit_retry(1));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy::new(config(10, 100));
        assert_eq!(policy.backoff(1), Duration::from_millis(10));
        assert_eq!(policy.backoff(2), Duration::from_millis(20));
        assert_eq!(policy.backoff(3), Duration::from_millis(40));
        assert_eq!(policy.backoff(4), Duration::from_millis(80));
        assert_eq!(policy.backoff(5), Duration::from_millis(80), "capped");
    }

    #[test]
    fn jittered_backoff_is_seeded_and_bounded() {
        let sample = |seed: u64| -> Vec<Duration> {
            let mut c = config(10, 100);
            c.jitter = 0.5;
            c.seed = seed;
            let policy = RetryPolicy::new(c);
            (1..=5).map(|r| policy.backoff(r)).collect()
        };
        assert_eq!(sample(1), sample(1), "same seed, same schedule");
        assert_ne!(sample(1), sample(2), "different seeds diverge");
        for (i, d) in sample(3).iter().enumerate() {
            let raw = Duration::from_millis((10u64 << i).min(80));
            assert!(*d >= raw / 2 && *d <= raw * 3 / 2, "retry {} out of range: {d:?}", i + 1);
        }
    }
}
