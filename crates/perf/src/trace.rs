//! The in-situ trace: root spans around every `RoutedKv` call, and a
//! benchmark-owned `Monitor` on the client and every provider runtime.
//!
//! Nothing inside the program is instrumented — the monitor hook is margo's
//! public one. No request id exists yet (adding one is ROADMAP's
//! observability item), so spans are associated by time, which is exact for
//! one client thread: every client-side forward that ends inside a root
//! span belongs to it.

use std::sync::Arc;
use std::time::Instant;

use mochi_margo::{Monitor, MonitoringEvent};
use parking_lot::Mutex;

use crate::e2e::Call;
use crate::stats;

/// A half-open interval in nanoseconds since the recorder's epoch.
pub type Interval = (u64, u64);

/// Time of `root` not covered by any of `children` (which may overlap one
/// another and stick out of the root): duration minus the union of the
/// children, clipped to the root.
pub fn self_time(root: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(start, end)| (start.max(root.0), end.min(root.1)))
        .filter(|(start, end)| start < end)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = root.0;
    for (start, end) in clipped {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    (root.1 - root.0).saturating_sub(covered)
}

/// One `RoutedKv` call as the benchmark saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootSpan {
    pub call: Call,
    pub span: Interval,
    /// Keys the call read or wrote.
    pub keys: u64,
}

/// What the monitor keeps of an event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stamp {
    /// A client-side forward as an interval, with its transport attempts.
    Forward { span: Interval, attempts: u32 },
    /// A handler ULT started after waiting `wait_ns` in its pool.
    HandlerStart { wait_ns: u64 },
    /// A handler ULT ran for `busy_ns`.
    HandlerEnd { busy_ns: u64 },
}

/// Keeps the stamps of one runtime's yokan RPCs in memory.
pub struct Recorder {
    epoch: Instant,
    stamps: Mutex<Vec<Stamp>>,
}

impl Recorder {
    /// All recorders of a run share `epoch`, so their stamps are comparable.
    pub fn new(epoch: Instant) -> Arc<Self> {
        Arc::new(Recorder {
            epoch,
            stamps: Mutex::new(Vec::with_capacity(1 << 16)),
        })
    }

    pub fn take(&self) -> Vec<Stamp> {
        std::mem::take(&mut *self.stamps.lock())
    }
}

fn nanos(seconds: f64) -> u64 {
    (seconds * 1e9).round().max(0.0) as u64
}

impl Monitor for Recorder {
    fn observe(&self, event: &MonitoringEvent) {
        // SWIM pings and Bedrock chatter share the runtimes; only the data
        // plane is traced.
        let data_plane = |name: &str| name.starts_with("yokan");
        let stamp = match event {
            MonitoringEvent::ForwardEnd {
                identity,
                duration_s,
                attempts,
                ..
            } if data_plane(&identity.rpc_name) => {
                let end = self.epoch.elapsed().as_nanos() as u64;
                Stamp::Forward {
                    span: (end.saturating_sub(nanos(*duration_s)), end),
                    attempts: *attempts,
                }
            }
            MonitoringEvent::HandlerStart {
                identity,
                queue_wait_s,
                ..
            } if data_plane(&identity.rpc_name) => Stamp::HandlerStart {
                wait_ns: nanos(*queue_wait_s),
            },
            MonitoringEvent::HandlerEnd {
                identity,
                duration_s,
                ..
            } if data_plane(&identity.rpc_name) => Stamp::HandlerEnd {
                busy_ns: nanos(*duration_s),
            },
            _ => return,
        };
        self.stamps.lock().push(stamp);
    }
}

/// Per-layer figures of a traced window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// Median over calls of root minus the union of its forwards: snapshot
    /// clone, ring, failover resolution, framing, version stamping, quorum
    /// merge, fan-out scheduling.
    pub routed_self_ns: f64,
    /// Data-plane RPCs forwarded per key read or written.
    pub rpcs_per_op: f64,
    /// Medians over the window's RPCs: a rare flush stall (tens of
    /// milliseconds inside one handler) would swamp a mean, and the tail has
    /// its own metrics.
    pub forward_ns: f64,
    pub pool_wait_ns: f64,
    pub handler_ns: f64,
    /// `forward - pool_wait - handler`: codec both ways, fabric, progress
    /// loop dispatch and reply wake-up — what is left of the typical forward
    /// once the typical wait and handler are taken out.
    pub transit_ns: f64,
    pub retries_per_kop: f64,
    pub spans: u64,
}

fn ratio(total: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// Folds root spans and the client's and providers' stamps into a
/// [`Breakdown`].
pub fn analyze(roots: &[RootSpan], client: &[Stamp], providers: &[Stamp]) -> Breakdown {
    let mut forwards: Vec<Interval> = Vec::with_capacity(client.len());
    let mut retries = 0u64;
    for stamp in client {
        if let Stamp::Forward { span, attempts } = stamp {
            forwards.push(*span);
            retries += u64::from(attempts.saturating_sub(1));
        }
    }
    // Roots are sequential, so one sweep over the forwards ordered by end
    // assigns each to the root it ends in. A forward of an async read repair
    // may end in a later root or in none, and then covers none of its own.
    forwards.sort_unstable_by_key(|span| span.1);
    let mut self_times = Vec::with_capacity(roots.len());
    let mut next = 0;
    for root in roots {
        while next < forwards.len() && forwards[next].1 <= root.span.0 {
            next += 1;
        }
        let mut last = next;
        while last < forwards.len() && forwards[last].1 <= root.span.1 {
            last += 1;
        }
        self_times.push(self_time(root.span, &forwards[next..last]) as f64);
        next = last;
    }
    let lengths: Vec<f64> = forwards
        .iter()
        .map(|span| (span.1 - span.0) as f64)
        .collect();
    let (mut waits, mut busy) = (Vec::new(), Vec::new());
    for stamp in providers {
        match stamp {
            Stamp::HandlerStart { wait_ns } => waits.push(*wait_ns as f64),
            Stamp::HandlerEnd { busy_ns } => busy.push(*busy_ns as f64),
            Stamp::Forward { .. } => {}
        }
    }
    let rpcs = forwards.len() as u64;
    let ops: u64 = roots.iter().map(|r| r.keys).sum();
    let forward_ns = stats::median(&lengths);
    let pool_wait_ns = stats::median(&waits);
    let handler_ns = stats::median(&busy);
    Breakdown {
        routed_self_ns: stats::median(&self_times),
        rpcs_per_op: ratio(rpcs, ops),
        forward_ns,
        pool_wait_ns,
        handler_ns,
        transit_ns: forward_ns - pool_wait_ns - handler_ns,
        retries_per_kop: ratio(retries * 1000, ops),
        spans: roots.len() as u64 + client.len() as u64 + providers.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_union_of_children() {
        let root = (100, 200);
        assert_eq!(self_time(root, &[]), 100);
        assert_eq!(self_time(root, &[(110, 130)]), 80);
        // Overlapping children count once.
        assert_eq!(self_time(root, &[(110, 150), (120, 160), (140, 170)]), 40);
        // Disjoint children add up; order does not matter.
        assert_eq!(self_time(root, &[(180, 190), (110, 120)]), 80);
        // Children are clipped to the root; those outside cover nothing.
        assert_eq!(self_time(root, &[(50, 120), (190, 260), (300, 400)]), 70);
        // A child covering the root leaves nothing.
        assert_eq!(self_time(root, &[(0, 1_000)]), 0);
        // A nested child adds nothing to its parent's cover.
        assert_eq!(self_time(root, &[(110, 190), (120, 130)]), 20);
    }

    #[test]
    fn analyze_adds_up() {
        let root = |start, end| RootSpan {
            call: Call::Get,
            span: (start, end),
            keys: 1,
        };
        let roots = [root(0, 100), root(100, 260)];
        let client = [
            Stamp::Forward {
                span: (10, 90),
                attempts: 1,
            },
            // Two overlapping legs of the second call, one retried.
            Stamp::Forward {
                span: (110, 200),
                attempts: 2,
            },
            Stamp::Forward {
                span: (120, 250),
                attempts: 1,
            },
        ];
        let providers = [
            Stamp::HandlerStart { wait_ns: 5 },
            Stamp::HandlerEnd { busy_ns: 30 },
            Stamp::HandlerStart { wait_ns: 7 },
            Stamp::HandlerEnd { busy_ns: 40 },
            Stamp::HandlerStart { wait_ns: 9 },
            Stamp::HandlerEnd { busy_ns: 50 },
        ];
        let b = analyze(&roots, &client, &providers);
        // Self times are 100-80 = 20 and 160-140 = 20.
        assert_eq!(b.routed_self_ns, 20.0);
        assert_eq!(b.rpcs_per_op, 1.5);
        // Medians of (80, 90, 130), (5, 7, 9) and (30, 40, 50).
        assert_eq!(b.forward_ns, 90.0);
        assert_eq!(b.pool_wait_ns, 7.0);
        assert_eq!(b.handler_ns, 40.0);
        assert_eq!(b.transit_ns, 43.0);
        assert_eq!(b.forward_ns, b.transit_ns + b.pool_wait_ns + b.handler_ns);
        assert_eq!(b.retries_per_kop, 500.0);
        assert_eq!(b.spans, 11);
    }
}
