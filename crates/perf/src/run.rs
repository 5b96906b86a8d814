//! One benchmark run: one workload, one process, end to end or per layer.

use std::path::Path;
use std::time::Duration;

use serde_json::{json, Map, Value};

use crate::deploy::Deployment;
use crate::e2e;
use crate::insitu;
use crate::ladder;
use crate::spec::{
    Metric, Workload, END_TO_END, MAX_CLIENT_THREADS, PER_LAYER, SETUPS_PER_RUN, SLICES,
    TRACE_PHASE_SHARE, WARMUP_SHARE,
};
use crate::stats::{self, Picked};
use crate::trace::Stamp;

/// A measured value with what is needed to read it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub value: f64,
    /// Samples behind the value, where it is a statistic of samples.
    pub samples: Option<u64>,
    pub note: Option<String>,
}

impl Reading {
    fn plain(value: f64) -> Self {
        Reading {
            value,
            samples: None,
            note: None,
        }
    }

    fn counted(value: f64, samples: u64) -> Self {
        Reading {
            value,
            samples: Some(samples),
            note: None,
        }
    }

    /// A latency percentile in `unit_ns`-nanosecond units; says so when the
    /// sample was too small for the percentile the metric is named after.
    fn percentile(picked: Picked, wanted: f64, unit_ns: f64) -> Self {
        Reading {
            value: picked.value as f64 / unit_ns,
            samples: Some(picked.samples as u64),
            note: (picked.percentile < wanted)
                .then(|| format!("p{} (too few samples for p{wanted})", picked.percentile)),
        }
    }
}

/// The outcome of a run, in the order of the metric registry.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub section: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub readings: Vec<(Metric, Reading)>,
}

impl Outcome {
    /// Keys every list of readings against its registry; a metric the run
    /// did not produce is a bug in this crate.
    fn new(
        workload: &Workload,
        section: &'static str,
        registry: &[Metric],
        attempted: u64,
        failed: u64,
        mut produced: Vec<(&'static str, Reading)>,
    ) -> Result<Self, String> {
        let mut readings = Vec::with_capacity(registry.len());
        for metric in registry {
            let at = produced
                .iter()
                .position(|(name, _)| *name == metric.name)
                .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
            readings.push((*metric, produced.swap_remove(at).1));
        }
        match produced.first() {
            Some((name, _)) => Err(format!("metric {name} is not in the registry")),
            None => Ok(Outcome {
                workload: workload.name,
                section,
                attempted,
                failed,
                readings,
            }),
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line the acceptance driver reads.
    pub fn contract_line(&self) -> String {
        let metrics: Map<String, Value> = self
            .readings
            .iter()
            .map(|(m, r)| {
                (
                    m.name.to_string(),
                    json!({"value": r.value, "unit": m.unit}),
                )
            })
            .collect();
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        })
        .to_string()
    }

    /// The result as `all` merges it: one row per metric, with the sample
    /// counts the contract line has no place for.
    pub fn record_line(&self) -> String {
        let rows: Vec<Value> = self
            .readings
            .iter()
            .map(|(m, r)| {
                json!({
                    "workload": self.workload,
                    "section": self.section,
                    "metric": m.name,
                    "unit": m.unit,
                    "better": m.better.as_str(),
                    "value": r.value,
                    "samples": r.samples,
                    "note": r.note,
                })
            })
            .collect();
        json!({"attempted": self.attempted, "failed": self.failed, "rows": rows}).to_string()
    }

    pub fn print_table(&self) {
        println!("# {} — {}", self.workload, self.section.replace('_', " "));
        for (metric, reading) in &self.readings {
            let samples = reading.samples.map_or(String::new(), |n| format!("n={n}"));
            let note = reading.note.as_deref().unwrap_or("");
            println!(
                "{:<36} {:>16.4} {:<6} {:>12}  {}",
                metric.name, reading.value, metric.unit, samples, note
            );
        }
        println!(
            "{:<36} {:>16} {:<6} {:>12}",
            "failed / attempted",
            self.failed,
            "ops",
            format!("of {}", self.attempted)
        );
    }
}

/// Client threads of the closed loop: `min(2, nproc)`, where nproc is what
/// this process may run on — 1 under `bench.py`, which pins it to one CPU.
pub fn client_threads() -> usize {
    host_parallelism().min(MAX_CLIENT_THREADS)
}

pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where /proc has
/// no such line.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Sets the deployment up [`SETUPS_PER_RUN`] times; returns the last one
/// and the median set-up time in seconds.
fn set_up(workload: &Workload) -> Result<(Deployment, f64), String> {
    let (mut deployment, took) = Deployment::start(workload)?;
    let mut seconds = vec![took.as_secs_f64()];
    while seconds.len() < SETUPS_PER_RUN {
        deployment.shutdown();
        let (next, took) = Deployment::start(workload)?;
        seconds.push(took.as_secs_f64());
        deployment = next;
    }
    Ok((deployment, stats::median(&seconds)))
}

/// The untraced run: set-up, warm-up, measured window.
pub fn end_to_end(workload: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (deployment, setup_s) = set_up(workload)?;
    let summary = e2e::drive(
        workload,
        &deployment.routed,
        client_threads(),
        seed,
        Duration::from_secs_f64(seconds * WARMUP_SHARE),
        Duration::from_secs_f64(seconds),
        SLICES,
    );
    let peak = peak_rss_mib();
    deployment.shutdown();
    let produced = vec![
        ("setup_s", Reading::counted(setup_s, SETUPS_PER_RUN as u64)),
        (
            "ops_per_s",
            Reading {
                value: summary.ops_per_s,
                samples: Some(SLICES as u64),
                note: Some(format!(
                    "slices {:.0}..{:.0}",
                    summary.slice_rates.0, summary.slice_rates.1
                )),
            },
        ),
        (
            "get_p50_us",
            Reading::percentile(summary.get_p50, 50.0, 1e3),
        ),
        (
            "put_p50_us",
            Reading::percentile(summary.put_p50, 50.0, 1e3),
        ),
        ("peak_rss_mib", Reading::plain(peak)),
    ];
    Outcome::new(
        workload,
        "end_to_end",
        &END_TO_END,
        summary.attempted,
        summary.failed,
        produced,
    )
}

fn write_spans(path: &Path, result: &insitu::InSitu) -> Result<(), String> {
    let stamp = |s: &Stamp| match s {
        Stamp::Forward { span, attempts } => {
            json!({"kind": "forward", "start_ns": span.0, "end_ns": span.1, "attempts": attempts})
        }
        Stamp::HandlerStart { wait_ns } => json!({"kind": "handler_start", "wait_ns": wait_ns}),
        Stamp::HandlerEnd { busy_ns } => json!({"kind": "handler_end", "busy_ns": busy_ns}),
    };
    let roots: Vec<Value> = result
        .roots
        .iter()
        .map(|r| json!({"call": format!("{:?}", r.call), "start_ns": r.span.0, "end_ns": r.span.1, "keys": r.keys}))
        .collect();
    let dump = json!({
        "roots": roots,
        "client": result.client_stamps.iter().map(stamp).collect::<Vec<Value>>(),
        "providers": result.provider_stamps.iter().map(stamp).collect::<Vec<Value>>(),
    });
    std::fs::write(path, dump.to_string()).map_err(|e| format!("{}: {e}", path.display()))
}

/// The traced run: the ladder, then the in-situ trace.
pub fn per_layer(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    spans: Option<&Path>,
) -> Result<Outcome, String> {
    let mut produced: Vec<(&'static str, Reading)> = ladder::run(workload)?
        .into_iter()
        .map(|(name, v)| (name, Reading::plain(v)))
        .collect();
    let (deployment, _) = Deployment::start(workload)?;
    let result = insitu::run(
        workload,
        &deployment,
        seed,
        Duration::from_secs_f64(seconds * WARMUP_SHARE),
        Duration::from_secs_f64(seconds * TRACE_PHASE_SHARE),
    );
    deployment.shutdown();
    if let Some(path) = spans {
        write_spans(path, &result)?;
    }
    let b = result.breakdown;
    let overhead = if result.untraced_ops_per_s > 0.0 {
        (result.untraced_ops_per_s - result.traced_ops_per_s) / result.untraced_ops_per_s * 100.0
    } else {
        0.0
    };
    produced.extend([
        (
            "core.routed.get_ns",
            Reading::percentile(result.get_ns, 50.0, 1.0),
        ),
        (
            "core.routed.put_ns",
            Reading::percentile(result.put_ns, 50.0, 1.0),
        ),
        ("core.routed.self_ns", Reading::plain(b.routed_self_ns)),
        ("core.routed.rpcs_per_op", Reading::plain(b.rpcs_per_op)),
        ("margo.forward_ns", Reading::plain(b.forward_ns)),
        ("argobots.pool_wait_ns", Reading::plain(b.pool_wait_ns)),
        ("yokan.handler_ns", Reading::plain(b.handler_ns)),
        ("margo.transit_ns", Reading::plain(b.transit_ns)),
        ("margo.retries_per_kop", Reading::plain(b.retries_per_kop)),
        (
            "core.routed.read_repairs",
            Reading::plain(result.read_repairs as f64),
        ),
        (
            "core.routed.hinted_writes",
            Reading::plain(result.hinted_writes as f64),
        ),
        (
            "core.routed.get_p999_us",
            Reading::percentile(result.get_p999, 99.9, 1e3),
        ),
        (
            "core.routed.put_p999_us",
            Reading::percentile(result.put_p999, 99.9, 1e3),
        ),
        ("trace.overhead_pct", Reading::plain(overhead)),
        ("get_p99_us", Reading::percentile(result.get_p99, 99.0, 1e3)),
        ("put_p99_us", Reading::percentile(result.put_p99, 99.0, 1e3)),
        (
            "error_share",
            Reading::plain(result.failed as f64 / result.attempted.max(1) as f64),
        ),
        ("trace.ops_per_s", Reading::plain(result.untraced_ops_per_s)),
        ("trace.spans", Reading::plain(b.spans as f64)),
    ]);
    Outcome::new(
        workload,
        "per_layer",
        &PER_LAYER,
        result.attempted,
        result.failed,
        produced,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn dummy(registry: &[Metric]) -> Vec<(&'static str, Reading)> {
        registry
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, Reading::counted(i as f64 + 0.5, 3)))
            .collect()
    }

    /// The emitted JSON names every metric of its section, with a unit, for
    /// every workload — whatever the run measured.
    #[test]
    fn emitted_json_names_every_metric_with_a_unit() {
        for workload in &WORKLOADS {
            for (section, registry) in [
                ("end_to_end", &END_TO_END[..]),
                ("per_layer", &PER_LAYER[..]),
            ] {
                let outcome = Outcome::new(workload, section, registry, 10, 0, dummy(registry))
                    .expect("a complete set of readings");
                for line in [outcome.contract_line(), outcome.record_line()] {
                    let parsed: Value = serde_json::from_str(&line).expect("one JSON object");
                    for metric in registry {
                        let unit = parsed["metrics"][metric.name]["unit"].as_str().or_else(|| {
                            parsed["rows"]
                                .as_array()
                                .into_iter()
                                .flatten()
                                .find(|row| {
                                    row["metric"] == metric.name && row["workload"] == workload.name
                                })
                                .and_then(|row| row["unit"].as_str())
                        });
                        assert_eq!(unit, Some(metric.unit), "{} {}", workload.name, metric.name);
                    }
                }
                let contract: Value = serde_json::from_str(&outcome.contract_line()).expect("JSON");
                let keys: Vec<&String> = contract.as_object().expect("an object").keys().collect();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
                assert_eq!(
                    contract["metrics"].as_object().map(|m| m.len()),
                    Some(registry.len())
                );
            }
        }
    }

    #[test]
    fn a_missing_or_unknown_metric_is_an_error() {
        let workload = &WORKLOADS[0];
        let mut short = dummy(&END_TO_END);
        short.pop();
        assert!(Outcome::new(workload, "end_to_end", &END_TO_END, 1, 0, short).is_err());
        let mut extra = dummy(&END_TO_END);
        extra.push(("not.a.metric", Reading::plain(1.0)));
        assert!(Outcome::new(workload, "end_to_end", &END_TO_END, 1, 0, extra).is_err());
    }

    #[test]
    fn failures_make_a_run_incorrect() {
        let workload = &WORKLOADS[0];
        let outcome = |attempted, failed| {
            Outcome::new(
                workload,
                "end_to_end",
                &END_TO_END,
                attempted,
                failed,
                dummy(&END_TO_END),
            )
            .expect("complete")
        };
        assert!(outcome(10, 0).correct());
        assert!(!outcome(10, 1).correct());
        assert!(
            !outcome(0, 0).correct(),
            "a run that attempted nothing proves nothing"
        );
    }
}
