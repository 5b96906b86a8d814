//! `mochi-perf`: end-to-end and per-layer performance of the RoutedKv stack.
//! See README.md beside this crate's manifest.

#![cfg_attr(test, allow(clippy::expect_used))]

mod deploy;
mod e2e;
mod insitu;
mod keys;
mod ladder;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  mochi-perf run --workload <name> [--seed <n>] [--seconds <s>] [--trace [0|1]] [--spans <file>]
  mochi-perf all [--seed <n>] [--seconds <s>] [--trace] [--out <file>]
  mochi-perf repeat --sets <n> [--seed <n>] [--seconds <s>] [--out <file>]
  mochi-perf compare <baseline.json> <candidate.json> [--bounds <BENCHMARK.json>]
  mochi-perf manifest";

/// `--name value` pairs after the subcommand; a flag followed by another
/// flag (or by nothing) reads as `1`, so bare `--trace` works.
fn flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut rest = args.iter().peekable();
    while let Some(arg) = rest.next() {
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg}"))?;
        let value = match rest.peek() {
            Some(next) if !next.starts_with("--") => rest.next().cloned().unwrap_or_default(),
            _ => "1".to_string(),
        };
        out.push((name.to_string(), value));
    }
    Ok(out)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn parsed<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag(flags, name) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("--{name} {text}: not a valid value")),
        None => Ok(default),
    }
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let flags = flags(args)?;
    let name = flag(&flags, "workload").ok_or("run needs --workload")?;
    let workload = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let seed: u64 = parsed(&flags, "seed", 1)?;
    let seconds: f64 = parsed(&flags, "seconds", spec::MEASURE_SECS)?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds}: out of range"));
    }
    let traced = parsed::<u8>(&flags, "trace", 0)? != 0;
    let outcome = if traced {
        let spans = flag(&flags, "spans").map(PathBuf::from);
        run::per_layer(workload, seed, seconds, spans.as_deref())?
    } else {
        run::end_to_end(workload, seed, seconds)?
    };
    outcome.print_table();
    if flag(&flags, "record").is_some() {
        println!("{}", outcome.record_line());
    } else {
        println!("{}", outcome.contract_line());
    }
    if !outcome.correct() {
        eprintln!(
            "mochi-perf: {} of {} operations failed on a clean link",
            outcome.failed, outcome.attempted
        );
    }
    Ok(outcome.correct())
}

fn write_out(flags: &[(String, String)], record: &serde_json::Value) -> Result<(), String> {
    match flag(flags, "out") {
        Some(path) => {
            std::fs::write(path, format!("{record:#}\n")).map_err(|e| format!("{path}: {e}"))
        }
        None => Ok(()),
    }
}

fn seed_and_seconds(flags: &[(String, String)]) -> Result<(u64, f64), String> {
    Ok((
        parsed(flags, "seed", 1)?,
        parsed(flags, "seconds", spec::MEASURE_SECS)?,
    ))
}

fn all_command(args: &[String]) -> Result<bool, String> {
    let flags = flags(args)?;
    let (seed, seconds) = seed_and_seconds(&flags)?;
    let traced = parsed::<u8>(&flags, "trace", 0)? != 0;
    let record = suite::all(seed, seconds, traced, true)?;
    write_out(&flags, &record)?;
    Ok(true)
}

fn repeat_command(args: &[String]) -> Result<bool, String> {
    let flags = flags(args)?;
    let (seed, seconds) = seed_and_seconds(&flags)?;
    let sets: usize = parsed(&flags, "sets", 5)?;
    if sets < 5 {
        return Err("repeat needs --sets of at least 5 for quartiles to mean anything".into());
    }
    let record = suite::repeat(sets, seed, seconds)?;
    write_out(&flags, &record)?;
    Ok(true)
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let [baseline, candidate, rest @ ..] = args else {
        return Err(USAGE.to_string());
    };
    let flags = flags(rest)?;
    let bounds = flag(&flags, "bounds").unwrap_or("BENCHMARK.json");
    let clean = suite::compare(baseline.as_ref(), candidate.as_ref(), bounds.as_ref())?;
    if !clean {
        eprintln!("mochi-perf: at least one end-to-end row regressed beyond its bound");
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("all") => all_command(&args[1..]),
        Some("repeat") => repeat_command(&args[1..]),
        Some("compare") => compare_command(&args[1..]),
        Some("manifest") => {
            println!("{:#}", spec::manifest());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("mochi-perf: {message}");
            ExitCode::from(2)
        }
    }
}
