//! Shared helpers for the experiment harness (`benches/e*.rs`).
//!
//! Every experiment in DESIGN.md §5 has one bench target that regenerates
//! its table. These helpers keep the output format uniform so
//! EXPERIMENTS.md can quote the tables directly.

use std::time::Duration;

use mochi_margo::MargoRuntime;
use mochi_mercury::{Address, Fabric};
use mochi_util::Histogram;

/// Prints a markdown-style table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Adds one row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders to stdout.
    pub fn print(&self, title: &str) {
        println!("\n### {title}\n");
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            println!("| {} |", padded.join(" | "));
        };
        render(&self.headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            render(row);
        }
        println!();
    }
}

/// Formats seconds with an adaptive unit.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

/// Formats a throughput (ops/s).
pub fn fmt_rate(ops: u64, seconds: f64) -> String {
    if seconds <= 0.0 {
        return "inf".into();
    }
    let rate = ops as f64 / seconds;
    if rate > 1e6 {
        format!("{:.2} Mop/s", rate / 1e6)
    } else if rate > 1e3 {
        format!("{:.1} kop/s", rate / 1e3)
    } else {
        format!("{rate:.1} op/s")
    }
}

/// Formats bytes/second.
pub fn fmt_bandwidth(bytes: u64, seconds: f64) -> String {
    if seconds <= 0.0 {
        return "inf".into();
    }
    let rate = bytes as f64 / seconds;
    if rate > 1e9 {
        format!("{:.2} GB/s", rate / 1e9)
    } else if rate > 1e6 {
        format!("{:.1} MB/s", rate / 1e6)
    } else {
        format!("{:.1} kB/s", rate / 1e3)
    }
}

/// Latency summary string from a histogram.
pub fn fmt_latency(h: &Histogram) -> String {
    format!(
        "p50={} p95={} p99={}",
        fmt_secs(h.quantile(0.5)),
        fmt_secs(h.quantile(0.95)),
        fmt_secs(h.quantile(0.99))
    )
}

/// Boots a plain Margo process on `fabric` (benchmark boilerplate).
#[expect(
    clippy::expect_used,
    reason = "a benchmark that cannot boot has nothing to measure"
)]
pub fn boot(fabric: &Fabric, host: &str) -> MargoRuntime {
    MargoRuntime::init_default(fabric, Address::tcp(host, 1)).expect("margo init")
}

/// Measures `iterations` calls of `op`, returning a latency histogram
/// (seconds) after `warmup` unmeasured calls.
pub fn measure(warmup: usize, iterations: usize, mut op: impl FnMut()) -> Histogram {
    for _ in 0..warmup {
        op();
    }
    let mut histogram = Histogram::new();
    for _ in 0..iterations {
        let start = std::time::Instant::now();
        op();
        histogram.record(start.elapsed().as_secs_f64());
    }
    histogram
}

/// Waits with a generous deadline, panicking with `what` on timeout.
pub fn await_or_panic(what: &str, condition: impl FnMut() -> bool) {
    assert!(
        mochi_util::time::wait_until(Duration::from_secs(60), Duration::from_millis(5), condition),
        "timed out waiting for: {what}"
    );
}
