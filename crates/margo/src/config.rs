//! Margo configuration document.
//!
//! The JSON shape extends Listing 2 with the fields Margo adds around the
//! `argobots` section: which pool network progress runs in, the default
//! handler pool, RPC timeout, and monitoring settings.

use serde::{Deserialize, Serialize};

use mochi_argobots::AbtConfig;

use crate::error::MargoError;

/// Monitoring settings (§4).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitoringConfig {
    /// Master switch for the default statistics monitor.
    #[serde(default = "default_true")]
    pub enabled: bool,
    /// Period of the in-flight/pool-size sampler, in milliseconds.
    /// `0` disables sampling.
    #[serde(default = "default_sampling_period")]
    pub sampling_period_ms: u64,
}

fn default_true() -> bool {
    true
}

fn default_sampling_period() -> u64 {
    100
}

impl Default for MonitoringConfig {
    fn default() -> Self {
        Self { enabled: true, sampling_period_ms: default_sampling_period() }
    }
}

/// Retry policy for forwarded RPCs (applied only to RPCs declared
/// idempotent, and only to retryable failures — see `MargoError::is_retryable`).
///
/// Not `Eq`: `jitter` is an `f64` (PartialEq is all the round-trip tests
/// need).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryConfig {
    /// Total attempts per logical call (1 = no retries).
    #[serde(default = "default_max_attempts")]
    pub max_attempts: u32,
    /// First backoff delay; doubles each retry (before jitter).
    #[serde(default = "default_base_backoff")]
    pub base_backoff_ms: u64,
    /// Backoff ceiling.
    #[serde(default = "default_max_backoff")]
    pub max_backoff_ms: u64,
    /// Jitter fraction in `[0,1]`: each backoff is multiplied by a value
    /// drawn uniformly from `[1-jitter, 1+jitter]` with the seeded RNG.
    #[serde(default = "default_jitter")]
    pub jitter: f64,
    /// Seed for the jitter RNG (deterministic backoff schedules in tests).
    #[serde(default)]
    pub seed: u64,
    /// Retry budget: at most this many *retries* (attempts beyond the
    /// first) per sliding one-second window, across all RPCs. Protects
    /// against retry storms when a whole service degrades. `0` disables
    /// retries outright.
    #[serde(default = "default_retry_budget")]
    pub budget_per_sec: u32,
}

fn default_max_attempts() -> u32 {
    4
}

fn default_base_backoff() -> u64 {
    5
}

fn default_max_backoff() -> u64 {
    500
}

fn default_jitter() -> f64 {
    0.2
}

fn default_retry_budget() -> u32 {
    64
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self {
            max_attempts: default_max_attempts(),
            base_backoff_ms: default_base_backoff(),
            max_backoff_ms: default_max_backoff(),
            jitter: default_jitter(),
            seed: 0,
            budget_per_sec: default_retry_budget(),
        }
    }
}

/// Circuit-breaker settings for the per-(address, provider) breakers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Master switch; disabled breakers never reject calls.
    #[serde(default = "default_true")]
    pub enabled: bool,
    /// Consecutive transport-class failures that trip the breaker open.
    #[serde(default = "default_failure_threshold")]
    pub failure_threshold: u32,
    /// Time the breaker stays open before admitting one half-open probe,
    /// in milliseconds.
    #[serde(default = "default_probe_interval")]
    pub probe_interval_ms: u64,
}

fn default_failure_threshold() -> u32 {
    8
}

fn default_probe_interval() -> u64 {
    200
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            failure_threshold: default_failure_threshold(),
            probe_interval_ms: default_probe_interval(),
        }
    }
}

/// Full Margo configuration. Not `Eq` because [`RetryConfig`] carries an
/// `f64` jitter fraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MargoConfig {
    /// Pool/xstream topology (Listing 2's `argobots` section). Defaults
    /// to the primary-only topology when omitted, like `margo_init`.
    #[serde(default = "AbtConfig::primary_only")]
    pub argobots: AbtConfig,
    /// Name of the pool network progress runs in: each burst of arriving
    /// requests schedules one ULT there, which dispatches them into their
    /// handlers' pools. ULTs run to completion on their xstream, so a
    /// handler that blocks an xstream serving this pool holds up dispatch
    /// into *every* pool of the process until it returns. With the default
    /// topology (one xstream) that is no loss, since the same xstream runs
    /// the handlers; a topology with several handler pools gives this
    /// pool an xstream of its own, as the paper's Figure 2 does.
    #[serde(default = "default_progress_pool")]
    pub progress_pool: String,
    /// Pool used for RPC handlers registered without an explicit pool.
    #[serde(default = "default_rpc_pool")]
    pub default_rpc_pool: String,
    /// Default timeout for forwarded RPCs, in milliseconds.
    #[serde(default = "default_rpc_timeout")]
    pub rpc_timeout_ms: u64,
    /// Monitoring settings.
    #[serde(default)]
    pub monitoring: MonitoringConfig,
    /// Retry policy for idempotent forwards.
    #[serde(default)]
    pub retry: RetryConfig,
    /// Circuit-breaker settings.
    #[serde(default)]
    pub breaker: BreakerConfig,
}

fn default_progress_pool() -> String {
    "__primary__".into()
}

fn default_rpc_pool() -> String {
    "__primary__".into()
}

fn default_rpc_timeout() -> u64 {
    30_000
}

impl Default for MargoConfig {
    fn default() -> Self {
        Self {
            argobots: AbtConfig::primary_only(),
            progress_pool: default_progress_pool(),
            default_rpc_pool: default_rpc_pool(),
            rpc_timeout_ms: default_rpc_timeout(),
            monitoring: MonitoringConfig::default(),
            retry: RetryConfig::default(),
            breaker: BreakerConfig::default(),
        }
    }
}

impl MargoConfig {
    /// Parses and validates a JSON document.
    pub fn from_json(json: &str) -> Result<Self, MargoError> {
        let config: MargoConfig =
            serde_json::from_str(json).map_err(|e| MargoError::BadConfig(e.to_string()))?;
        config.validate()?;
        Ok(config)
    }

    /// Structural validation: delegate to Argobots, then check that the
    /// progress and default pools exist and that some xstream serves the
    /// progress pool (the process would otherwise never receive).
    pub fn validate(&self) -> Result<(), MargoError> {
        self.argobots.validate()?;
        for (role, pool) in
            [("progress_pool", &self.progress_pool), ("default_rpc_pool", &self.default_rpc_pool)]
        {
            if !self.argobots.pools.iter().any(|p| &p.name == pool) {
                return Err(MargoError::BadConfig(format!(
                    "{role} '{pool}' is not defined in the argobots section"
                )));
            }
        }
        if !self.argobots.xstreams.iter().any(|x| x.scheduler.pools.contains(&self.progress_pool)) {
            return Err(MargoError::BadConfig(format!(
                "no xstream serves progress_pool '{}'",
                self.progress_pool
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        MargoConfig::default().validate().unwrap();
    }

    #[test]
    fn parses_listing2_style_document() {
        let json = r#"
        { "argobots": {
            "pools": [ { "name": "MyPoolX", "type": "fifo_wait", "access": "mpmc" },
                       { "name": "Z", "type": "fifo_wait" } ],
            "xstreams": [ { "name": "MyES0",
                            "scheduler": { "type": "basic", "pools": ["MyPoolX"] } },
                          { "name": "ES1",
                            "scheduler": { "type": "basic_wait", "pools": ["Z"] } } ] },
          "progress_pool": "Z",
          "default_rpc_pool": "MyPoolX" }
        "#;
        let config = MargoConfig::from_json(json).unwrap();
        assert_eq!(config.progress_pool, "Z");
        assert_eq!(config.default_rpc_pool, "MyPoolX");
        assert_eq!(config.rpc_timeout_ms, 30_000);
        assert!(config.monitoring.enabled);
    }

    #[test]
    fn rejects_missing_progress_pool() {
        let json = r#"
        { "argobots": { "pools": [ { "name": "p" } ],
                        "xstreams": [ { "name": "es", "scheduler": { "pools": ["p"] } } ] },
          "progress_pool": "ghost", "default_rpc_pool": "p" }
        "#;
        let err = MargoConfig::from_json(json).unwrap_err();
        assert!(matches!(err, MargoError::BadConfig(_)));
    }

    #[test]
    fn rejects_a_progress_pool_nobody_serves() {
        let json = r#"
        { "argobots": { "pools": [ { "name": "p" }, { "name": "z" } ],
                        "xstreams": [ { "name": "es", "scheduler": { "pools": ["p"] } } ] },
          "progress_pool": "z", "default_rpc_pool": "p" }
        "#;
        let err = MargoConfig::from_json(json).unwrap_err();
        assert!(matches!(err, MargoError::BadConfig(_)));
    }

    #[test]
    fn round_trips() {
        let config = MargoConfig::default();
        let json = serde_json::to_string(&config).unwrap();
        let back = MargoConfig::from_json(&json).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn retry_and_breaker_defaults() {
        let config = MargoConfig::from_json("{}").unwrap();
        assert_eq!(config.retry.max_attempts, 4);
        assert_eq!(config.retry.budget_per_sec, 64);
        assert!(config.breaker.enabled);
        assert_eq!(config.breaker.failure_threshold, 8);
        assert_eq!(config.breaker.probe_interval_ms, 200);
    }

    #[test]
    fn retry_and_breaker_sections_parse() {
        let json = r#"
        { "retry": { "max_attempts": 2, "base_backoff_ms": 1, "jitter": 0.0, "seed": 42 },
          "breaker": { "enabled": false, "failure_threshold": 3, "probe_interval_ms": 50 } }
        "#;
        let config = MargoConfig::from_json(json).unwrap();
        assert_eq!(config.retry.max_attempts, 2);
        assert_eq!(config.retry.seed, 42);
        assert!(!config.breaker.enabled);
        assert_eq!(config.breaker.failure_threshold, 3);
    }

    #[test]
    fn sampling_can_be_disabled() {
        let json = r#"{ "monitoring": { "enabled": false, "sampling_period_ms": 0 } }"#;
        let config = MargoConfig::from_json(json).unwrap();
        assert!(!config.monitoring.enabled);
        assert_eq!(config.monitoring.sampling_period_ms, 0);
    }
}
