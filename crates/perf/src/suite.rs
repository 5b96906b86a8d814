//! The whole suite: `all` (every workload, one process each), `repeat`
//! (the suite N times, with spreads and derived bounds) and `compare`
//! (two records against the committed bounds).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use mochi_mercury::NetworkModel;
use serde_json::{json, Value};

use crate::run::{client_threads, host_parallelism};
use crate::spec::{END_TO_END, SETUPS_PER_RUN, SLICES, TRACE_PHASE_SHARE, WARMUP_SHARE, WORKLOADS};
use crate::stats;

/// A bound is never tighter than this: below it, two builds of the same
/// source differ by code layout alone.
const MIN_BOUND: f64 = 0.05;

/// A bound is this many times the measured spread, so that the spread stays
/// below a third of it.
const BOUND_OVER_SPREAD: f64 = 3.0;

/// The acceptance contract allows no looser bound.
const MAX_BOUND: f64 = 0.25;

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where, on what and how a record was measured.
fn stamp(seed: u64, seconds: f64) -> Value {
    let commit = std::env::var("MOCHI_PERF_COMMIT")
        .unwrap_or_else(|_| first_line_of("git", &["rev-parse", "HEAD"]));
    json!({
        "commit": commit,
        "rustc": first_line_of("rustc", &["-V"]),
        "host_parallelism": host_parallelism(),
        "client_threads": client_threads(),
        "network_model": serde_json::to_value(NetworkModel::instant()).unwrap_or(Value::Null),
        "seed": seed,
        "measure_s": seconds,
        "warmup_s": seconds * WARMUP_SHARE,
        "slices": SLICES,
        "setups_per_run": SETUPS_PER_RUN,
        "trace_phase_s": seconds * TRACE_PHASE_SHARE,
    })
}

/// Runs one workload in a process of its own — so `peak_rss_mib` and leaked
/// threads do not bleed between workloads — and returns its record line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    echo: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", "--record", "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {workload} run: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("the {workload} run printed nothing"))?;
    if echo {
        for line in lines {
            println!("{line}");
        }
    }
    if !output.status.success() {
        return Err(format!("the {workload} run exited with {}", output.status));
    }
    serde_json::from_str(last).map_err(|e| format!("the {workload} run's record: {e}"))
}

/// Every workload once, traced too when asked; the merged record.
pub fn all(seed: u64, seconds: f64, traced: bool, echo: bool) -> Result<Value, String> {
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for workload in &WORKLOADS {
        for pass in [false, true] {
            if pass && !traced {
                continue;
            }
            let record = run_child(workload.name, seed, seconds, pass, echo)?;
            rows.extend(record["rows"].as_array().cloned().unwrap_or_default());
            runs.push(json!({
                "workload": workload.name,
                "traced": pass,
                "attempted": record["attempted"],
                "failed": record["failed"],
            }));
        }
    }
    let record = json!({"stamp": stamp(seed, seconds), "runs": runs, "rows": rows});
    if echo && traced {
        print_subtractions(&record);
    }
    Ok(record)
}

fn row_value(row: &Value) -> f64 {
    row["median"]
        .as_f64()
        .or_else(|| row["value"].as_f64())
        .unwrap_or(0.0)
}

fn find_row<'a>(record: &'a Value, workload: &str, metric: &str) -> Option<&'a Value> {
    record["rows"]
        .as_array()?
        .iter()
        .find(|row| row["workload"] == workload && row["metric"] == metric)
}

fn lookup(record: &Value, workload: &str, metric: &str) -> Option<f64> {
    find_row(record, workload, metric).map(row_value)
}

/// The ladder read as a subtraction table: what each layer adds to the
/// rung below it, per call, and how the in-situ trace's independent figures
/// compare.
fn print_subtractions(record: &Value) {
    const RUNGS: [(&str, &str, &str); 5] = [
        ("mercury", "mercury.rtt_ns", ""),
        (
            "margo over mercury (null RPC)",
            "margo.null_rpc_ns",
            "mercury.rtt_ns",
        ),
        (
            "yokan over a null RPC",
            "yokan.rpc.get_ns",
            "margo.null_rpc_ns",
        ),
        (
            "FailoverKv over yokan",
            "core.failover.get_ns",
            "yokan.rpc.get_ns",
        ),
        (
            "RoutedKv over FailoverKv",
            "core.routed.get_ns",
            "core.failover.get_ns",
        ),
    ];
    for workload in &WORKLOADS {
        println!(
            "# {} — what each layer adds to a get (ns per call)",
            workload.name
        );
        for (label, upper, lower) in RUNGS {
            let (Some(top), bottom) = (
                lookup(record, workload.name, upper),
                lookup(record, workload.name, lower).unwrap_or(0.0),
            ) else {
                continue;
            };
            println!(
                "{label:<34} {:>12.0} = {upper} - {}",
                top - bottom,
                if lower.is_empty() { "0" } else { lower }
            );
        }
        let get = |metric| lookup(record, workload.name, metric).unwrap_or(0.0);
        println!(
            "{:<34} {:>12.0} = core.routed.get_ns - yokan.rpc.get_ns (ladder)",
            "RoutedKv + FailoverKv",
            get("core.routed.get_ns") - get("yokan.rpc.get_ns")
        );
        println!(
            "{:<34} {:>12.0} = core.routed.self_ns (trace; also holds yokan's client framing)",
            "client side above margo.forward",
            get("core.routed.self_ns")
        );
        println!(
            "{:<34} {:>12.0} = margo.transit_ns + argobots.pool_wait_ns + yokan.handler_ns",
            "margo.forward_ns (trace)",
            get("margo.transit_ns") + get("argobots.pool_wait_ns") + get("yokan.handler_ns")
        );
    }
}

/// The suite `sets` times (seed, seed+1, …): per row the values, their
/// median, quartiles and relative spread; per end-to-end metric the bound
/// `max(5 %, 3 x spread)` over its worst workload, capped at the 25 % the
/// acceptance contract allows.
pub fn repeat(sets: usize, seed: u64, seconds: f64) -> Result<Value, String> {
    let mut order: Vec<(String, String)> = Vec::new();
    let mut values: BTreeMap<(String, String), (Value, Vec<f64>)> = BTreeMap::new();
    for set in 0..sets {
        println!("# set {} of {sets}", set + 1);
        let record = all(seed + set as u64, seconds, false, false)?;
        for row in record["rows"].as_array().into_iter().flatten() {
            let key = (
                row["workload"].as_str().unwrap_or_default().to_string(),
                row["metric"].as_str().unwrap_or_default().to_string(),
            );
            let entry = values.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                (row.clone(), Vec::new())
            });
            entry.1.push(row["value"].as_f64().unwrap_or(0.0));
        }
    }
    let mut rows = Vec::with_capacity(order.len());
    let mut worst_spread: BTreeMap<String, f64> = BTreeMap::new();
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "median", "q1", "q3", "spread"
    );
    for key in &order {
        let (first, samples) = &values[key];
        let (q1, q3) = stats::quartiles(samples);
        let median = stats::median(samples);
        let spread = stats::relative_spread(samples);
        println!(
            "{:<16} {:<14} {median:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}%",
            key.0,
            key.1,
            spread * 100.0
        );
        let worst = worst_spread.entry(key.1.clone()).or_insert(0.0);
        *worst = worst.max(spread);
        rows.push(json!({
            "workload": key.0,
            "section": first["section"],
            "metric": key.1,
            "unit": first["unit"],
            "better": first["better"],
            "values": samples,
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": spread,
        }));
    }
    println!(
        "# derived bounds: max({MIN_BOUND}, {BOUND_OVER_SPREAD} x spread) over the worst workload, at most {MAX_BOUND}"
    );
    let mut bounds: BTreeMap<String, f64> = BTreeMap::new();
    for (metric, spread) in &worst_spread {
        let wanted = ((spread * BOUND_OVER_SPREAD * 100.0).ceil() / 100.0).max(MIN_BOUND);
        let note = if metric == "setup_s" {
            // The contract's one named metric: it must stay end to end, and
            // the acceptance driver checks its medians, not its spread.
            ""
        } else if *spread > MAX_BOUND {
            " — the spread itself exceeds the loosest bound allowed: move to per-layer"
        } else if wanted > MAX_BOUND {
            " — capped: the spread is more than a third of it"
        } else {
            ""
        };
        let bound = wanted.min(MAX_BOUND);
        println!(
            "{metric:<14} {bound:.2} (worst spread {:.2}%){note}",
            spread * 100.0
        );
        bounds.insert(metric.clone(), bound);
    }
    Ok(json!({"stamp": stamp(seed, seconds), "sets": sets, "rows": rows, "bounds": bounds}))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// How `candidate` stands against `baseline` on one end-to-end row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound: nothing can be said.
    Unresolved,
}

/// `worse_by` is the share of the baseline by which the candidate is worse
/// (negative when it is better).
pub fn judge(worse_by: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Applies the bounds of `bounds_file` (a `BENCHMARK.json`) to every
/// end-to-end (metric, workload) row of two records. Returns whether no row
/// regressed.
pub fn compare(baseline: &Path, candidate: &Path, bounds_file: &Path) -> Result<bool, String> {
    let (base, cand, manifest) = (
        read_json(baseline)?,
        read_json(candidate)?,
        read_json(bounds_file)?,
    );
    let bound_of = |metric: &str| {
        manifest["end_to_end"]
            .as_array()
            .into_iter()
            .flatten()
            .find(|m| m["name"] == metric)
            .and_then(|m| m["bound"].as_f64())
    };
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "worse by", "spread", "bound"
    );
    let mut clean = true;
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let (Some(a), Some(b)) = (
                find_row(&base, workload.name, metric.name),
                find_row(&cand, workload.name, metric.name),
            ) else {
                println!(
                    "{:<16} {:<14} missing from one record",
                    workload.name, metric.name
                );
                continue;
            };
            let bound = bound_of(metric.name).ok_or_else(|| {
                format!("{} has no bound in {}", metric.name, bounds_file.display())
            })?;
            let (old, new) = (row_value(a), row_value(b));
            let sign = if metric.better == crate::spec::Better::Higher {
                -1.0
            } else {
                1.0
            };
            let worse_by = if old == 0.0 {
                0.0
            } else {
                sign * (new - old) / old
            };
            let spread = a["spread"]
                .as_f64()
                .unwrap_or(0.0)
                .max(b["spread"].as_f64().unwrap_or(0.0));
            let verdict = judge(worse_by, spread, bound);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{:<16} {:<14} {old:>14.4} {new:>14.4} {:>8.2}% {:>6.2}% {:>6.2}%  {}",
                workload.name,
                metric.name,
                worse_by * 100.0,
                spread * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        assert_eq!(judge(0.04, 0.01, 0.05), Verdict::Ok);
        assert_eq!(judge(-0.30, 0.01, 0.05), Verdict::Ok);
        assert_eq!(judge(0.06, 0.01, 0.05), Verdict::Regressed);
        assert_eq!(judge(0.06, 0.07, 0.05), Verdict::Unresolved);
        assert_eq!(judge(0.00, 0.07, 0.05), Verdict::Unresolved);
    }
}
