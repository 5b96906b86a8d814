//! Fault injection for the simulated fabric.
//!
//! Resilience is one of the paper's four dynamic-service requirements
//! (§2.3) and its experiments need controllable failures. The
//! [`FaultPlane`] sits on the fabric's send path and can:
//!
//! * drop messages on a link with a configurable probability,
//! * run deterministic per-link scripts that drop or delay messages by
//!   their ordinal,
//! * partition the fabric into groups that cannot reach each other,
//! * blackhole individual addresses (a "crashed" process whose peers only
//!   notice through timeouts — exactly how SWIM and Raft experience real
//!   node deaths).
//!
//! All randomness is drawn from a seeded RNG so failure schedules replay
//! deterministically.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use parking_lot::Mutex;

use mochi_util::SeededRng;

use crate::address::Address;

/// A deterministic, message-count-driven fault script on a directed link.
///
/// Scripts replay identically regardless of RNG seed: they are driven by
/// the ordinal of each message crossing the link, which makes them the
/// right tool for reproducing exact failure sequences (retry tests,
/// breaker threshold tests) where probabilistic drops are too blunt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkScript {
    /// Drop the first `n` messages on the link, deliver everything after.
    FailFirst(u64),
    /// Repeating cycle: drop `down` messages, then deliver `up` messages.
    Flap {
        /// Messages dropped at the start of each cycle.
        down: u64,
        /// Messages delivered after the down phase of each cycle.
        up: u64,
    },
    /// Every `period`-th message (1-based) incurs `spike` extra delay.
    DelaySpike {
        /// Spike cadence in messages; 0 disables the script.
        period: u64,
        /// Extra delay charged on spiking messages.
        spike: Duration,
    },
}

impl LinkScript {
    /// Applies the script to the `ordinal`-th message (1-based) on the
    /// link; returns whether to drop it and any extra delay.
    fn apply(&self, ordinal: u64) -> (bool, Duration) {
        match *self {
            LinkScript::FailFirst(n) => (ordinal <= n, Duration::ZERO),
            LinkScript::Flap { down, up } => {
                let cycle = down + up;
                if cycle == 0 {
                    return (false, Duration::ZERO);
                }
                ((ordinal - 1) % cycle < down, Duration::ZERO)
            }
            LinkScript::DelaySpike { period, spike } => {
                if period == 0 {
                    return (false, Duration::ZERO);
                }
                (false, if ordinal.is_multiple_of(period) { spike } else { Duration::ZERO })
            }
        }
    }
}

/// Per-directed-link fault configuration.
#[derive(Debug, Clone, Default)]
struct LinkFaults {
    drop_probability: f64,
    /// Deterministic scripts, all evaluated against the same per-rule
    /// message counter; any script voting "drop" drops the message and
    /// delay spikes accumulate.
    scripts: Vec<LinkScript>,
    /// Messages that have consulted this rule so far.
    seen: u64,
}

/// One rule: the faults of a directed link, `None` host = wildcard.
#[derive(Debug)]
struct Rule {
    source: Option<String>,
    dest: Option<String>,
    faults: LinkFaults,
}

impl Rule {
    /// How specifically this rule matches a message between two hosts —
    /// 0 `(s,d)`, 1 `(s,*)`, 2 `(*,d)`, 3 `(*,*)` — or `None` if it does not.
    fn specificity(&self, source: &str, dest: &str) -> Option<u8> {
        let side = |rule: &Option<String>, host: &str| match rule.as_deref() {
            Some(named) if named == host => Some(0),
            Some(_) => None,
            None => Some(1),
        };
        Some(2 * side(&self.source, source)? + side(&self.dest, dest)?)
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// At most one rule per `(source, dest)` pair: a handful, scanned.
    links: Vec<Rule>,
    /// Host → partition group id. Hosts in different groups can't talk.
    /// Hosts absent from the map are in the implicit group `usize::MAX`.
    partition: HashMap<String, usize>,
    /// Addresses whose traffic (in and out) is silently dropped.
    blackholes: HashSet<Address>,
    rng: Option<SeededRng>,
}

impl Inner {
    /// No blackhole, partition or link rule: every message is delivered.
    fn is_quiet(&self) -> bool {
        self.blackholes.is_empty() && self.partition.is_empty() && self.links.is_empty()
    }

    fn position(&self, source: Option<&str>, dest: Option<&str>) -> Option<usize> {
        self.links
            .iter()
            .position(|rule| rule.source.as_deref() == source && rule.dest.as_deref() == dest)
    }

    fn rule(&mut self, source: Option<&str>, dest: Option<&str>) -> Option<&mut LinkFaults> {
        let index = self.position(source, dest)?;
        Some(&mut self.links[index].faults)
    }

    /// The rule for `(source, dest)`, created empty if there is none.
    fn rule_or_default(&mut self, source: Option<&str>, dest: Option<&str>) -> &mut LinkFaults {
        let index = self.position(source, dest).unwrap_or_else(|| {
            self.links.push(Rule {
                source: source.map(str::to_string),
                dest: dest.map(str::to_string),
                faults: LinkFaults::default(),
            });
            self.links.len() - 1
        });
        &mut self.links[index].faults
    }
}

/// Decision made for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver after the network-model delay (plus `extra`).
    Deliver,
    /// Silently drop the message.
    Drop,
}

/// Shared fault-injection state, cloneable across the fabric.
#[derive(Debug, Default)]
pub struct FaultPlane {
    // leaf: rules, partitions and the drop RNG; nothing is called under it.
    inner: Mutex<Inner>,
}

impl FaultPlane {
    /// Creates a fault plane with no faults configured.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the RNG used for probabilistic drops. Without one, drop
    /// probabilities of neither 0 nor 1 round to "always deliver".
    pub fn set_seed(&self, seed: u64) {
        self.inner.lock().rng = Some(SeededRng::new(seed));
    }

    /// Sets the drop probability for messages from `source` host to
    /// `dest` host. `None` acts as a wildcard.
    pub fn set_drop_probability(&self, source: Option<&str>, dest: Option<&str>, p: f64) {
        self.inner.lock().rule_or_default(source, dest).drop_probability = p.clamp(0.0, 1.0);
    }

    /// Appends a deterministic [`LinkScript`] to the rule for messages
    /// from `source` host to `dest` host (`None` = wildcard). Scripts on
    /// the same rule share one message counter and compose: any script
    /// voting "drop" drops, delay spikes add up.
    pub fn push_script(&self, source: Option<&str>, dest: Option<&str>, script: LinkScript) {
        self.inner.lock().rule_or_default(source, dest).scripts.push(script);
    }

    /// Drops all scripts (and resets the message counter) on one rule.
    pub fn clear_scripts(&self, source: Option<&str>, dest: Option<&str>) {
        if let Some(faults) = self.inner.lock().rule(source, dest) {
            faults.scripts.clear();
            faults.seen = 0;
        }
    }

    /// Partitions the fabric: hosts listed in `groups[i]` can only reach
    /// hosts in the same group. Hosts not listed can reach each other but
    /// nobody inside a group.
    pub fn set_partition(&self, groups: &[Vec<String>]) {
        let mut inner = self.inner.lock();
        inner.partition.clear();
        for (gid, group) in groups.iter().enumerate() {
            for host in group {
                inner.partition.insert(host.clone(), gid);
            }
        }
    }

    /// Removes any partition.
    pub fn heal_partition(&self) {
        self.inner.lock().partition.clear();
    }

    /// Blackholes `addr`: all traffic to and from it is dropped, which is
    /// how peers experience a crashed process.
    pub fn blackhole(&self, addr: &Address) {
        self.inner.lock().blackholes.insert(addr.clone());
    }

    /// Removes a blackhole (the process "recovered").
    pub fn unblackhole(&self, addr: &Address) {
        self.inner.lock().blackholes.remove(addr);
    }

    /// Clears all configured faults.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.links.clear();
        inner.partition.clear();
        inner.blackholes.clear();
    }

    /// Decides the fate of a message and returns any extra delay. With
    /// nothing configured — the state every measurement runs in — this is
    /// the lock and three emptiness checks; with rules it compares borrowed
    /// host names and allocates nothing either.
    pub fn decide(&self, source: &Address, dest: &Address) -> (FaultDecision, Duration) {
        let mut inner = self.inner.lock();
        if inner.is_quiet() {
            return (FaultDecision::Deliver, Duration::ZERO);
        }

        if inner.blackholes.contains(source) || inner.blackholes.contains(dest) {
            return (FaultDecision::Drop, Duration::ZERO);
        }

        let sg = inner.partition.get(source.host()).copied().unwrap_or(usize::MAX);
        let dg = inner.partition.get(dest.host()).copied().unwrap_or(usize::MAX);
        if sg != dg {
            return (FaultDecision::Drop, Duration::ZERO);
        }

        // Most specific matching rule wins: (s,d), (s,*), (*,d), (*,*).
        let inner = &mut *inner;
        let matched = inner
            .links
            .iter_mut()
            .filter_map(|rule| Some((rule.specificity(source.host(), dest.host())?, rule)))
            .min_by_key(|(specificity, _)| *specificity);
        let Some((_, Rule { faults, .. })) = matched else {
            return (FaultDecision::Deliver, Duration::ZERO);
        };

        // Scripts first: they are deterministic in the message ordinal and
        // must count every message that consults this rule, including ones
        // the probabilistic stage would also have dropped.
        faults.seen += 1;
        let mut extra = Duration::ZERO;
        let mut scripted_drop = false;
        for script in &faults.scripts {
            let (drop, spike) = script.apply(faults.seen);
            scripted_drop |= drop;
            extra += spike;
        }
        if scripted_drop {
            return (FaultDecision::Drop, Duration::ZERO);
        }

        if faults.drop_probability >= 1.0 {
            return (FaultDecision::Drop, Duration::ZERO);
        }
        if faults.drop_probability > 0.0 {
            let p = faults.drop_probability;
            let dropped = match inner.rng.as_mut() {
                Some(rng) => rng.chance(p),
                None => false,
            };
            if dropped {
                return (FaultDecision::Drop, Duration::ZERO);
            }
        }
        (FaultDecision::Deliver, extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(host: &str) -> Address {
        Address::tcp(host, 1)
    }

    #[test]
    fn default_delivers_everything() {
        let f = FaultPlane::new();
        let (d, extra) = f.decide(&addr("a"), &addr("b"));
        assert_eq!(d, FaultDecision::Deliver);
        assert_eq!(extra, Duration::ZERO);
    }

    #[test]
    fn full_drop_on_specific_link_only() {
        let f = FaultPlane::new();
        f.set_drop_probability(Some("a"), Some("b"), 1.0);
        assert_eq!(f.decide(&addr("a"), &addr("b")).0, FaultDecision::Drop);
        // Reverse direction unaffected.
        assert_eq!(f.decide(&addr("b"), &addr("a")).0, FaultDecision::Deliver);
        assert_eq!(f.decide(&addr("a"), &addr("c")).0, FaultDecision::Deliver);
    }

    #[test]
    fn wildcard_rules_apply() {
        let f = FaultPlane::new();
        f.set_drop_probability(None, Some("sink"), 1.0);
        assert_eq!(f.decide(&addr("x"), &addr("sink")).0, FaultDecision::Drop);
        assert_eq!(f.decide(&addr("x"), &addr("y")).0, FaultDecision::Deliver);
    }

    #[test]
    fn probabilistic_drop_is_seeded_and_roughly_calibrated() {
        let f = FaultPlane::new();
        f.set_seed(1234);
        f.set_drop_probability(Some("a"), Some("b"), 0.3);
        let drops = (0..10_000)
            .filter(|_| f.decide(&addr("a"), &addr("b")).0 == FaultDecision::Drop)
            .count();
        assert!((2700..3300).contains(&drops), "drops={drops}");
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let f = FaultPlane::new();
        f.set_partition(&[vec!["a".into(), "b".into()], vec!["c".into()]]);
        assert_eq!(f.decide(&addr("a"), &addr("b")).0, FaultDecision::Deliver);
        assert_eq!(f.decide(&addr("a"), &addr("c")).0, FaultDecision::Drop);
        assert_eq!(f.decide(&addr("c"), &addr("b")).0, FaultDecision::Drop);
        // Unlisted hosts form their own implicit group...
        assert_eq!(f.decide(&addr("x"), &addr("y")).0, FaultDecision::Deliver);
        // ...separate from listed ones.
        assert_eq!(f.decide(&addr("x"), &addr("a")).0, FaultDecision::Drop);
        f.heal_partition();
        assert_eq!(f.decide(&addr("a"), &addr("c")).0, FaultDecision::Deliver);
    }

    #[test]
    fn blackhole_swallows_both_directions() {
        let f = FaultPlane::new();
        let dead = addr("dead");
        f.blackhole(&dead);
        assert_eq!(f.decide(&dead, &addr("b")).0, FaultDecision::Drop);
        assert_eq!(f.decide(&addr("b"), &dead).0, FaultDecision::Drop);
        f.unblackhole(&dead);
        assert_eq!(f.decide(&addr("b"), &dead).0, FaultDecision::Deliver);
    }

    #[test]
    fn clear_resets_everything() {
        let f = FaultPlane::new();
        f.blackhole(&addr("dead"));
        f.set_partition(&[vec!["a".into()], vec!["b".into()]]);
        f.set_drop_probability(None, None, 1.0);
        f.clear();
        assert_eq!(f.decide(&addr("a"), &addr("b")).0, FaultDecision::Deliver);
    }

    #[test]
    fn specific_link_beats_wildcards() {
        let f = FaultPlane::new();
        // Catch-all drops everything, but the exact (a,b) rule delivers.
        f.set_drop_probability(None, None, 1.0);
        f.set_drop_probability(Some("a"), None, 1.0);
        f.set_drop_probability(None, Some("b"), 1.0);
        f.set_drop_probability(Some("a"), Some("b"), 0.0);
        assert_eq!(f.decide(&addr("a"), &addr("b")).0, FaultDecision::Deliver);
        // (a,*) outranks (*,b) and (*,*) for other destinations...
        assert_eq!(f.decide(&addr("a"), &addr("c")).0, FaultDecision::Drop);
        // ...and (*,b) outranks (*,*) for other sources.
        assert_eq!(f.decide(&addr("c"), &addr("b")).0, FaultDecision::Drop);
        assert_eq!(f.decide(&addr("c"), &addr("d")).0, FaultDecision::Drop);
    }

    #[test]
    fn partition_and_blackhole_compose() {
        let f = FaultPlane::new();
        f.set_partition(&[vec!["a".into(), "b".into()], vec!["c".into()]]);
        f.blackhole(&addr("b"));
        // Same partition group, but b is blackholed.
        assert_eq!(f.decide(&addr("a"), &addr("b")).0, FaultDecision::Drop);
        // Unblackholing does not heal the partition...
        f.unblackhole(&addr("b"));
        assert_eq!(f.decide(&addr("a"), &addr("b")).0, FaultDecision::Deliver);
        assert_eq!(f.decide(&addr("b"), &addr("c")).0, FaultDecision::Drop);
        // ...and healing the partition does not resurrect a blackhole.
        f.blackhole(&addr("c"));
        f.heal_partition();
        assert_eq!(f.decide(&addr("b"), &addr("c")).0, FaultDecision::Drop);
    }

    #[test]
    fn identical_seed_replays_identical_drop_decisions() {
        let run = |seed: u64| -> Vec<FaultDecision> {
            let f = FaultPlane::new();
            f.set_seed(seed);
            f.set_drop_probability(Some("a"), Some("b"), 0.4);
            f.set_drop_probability(None, Some("c"), 0.2);
            (0..500)
                .map(|i| {
                    if i % 3 == 0 {
                        f.decide(&addr("a"), &addr("b")).0
                    } else {
                        f.decide(&addr("x"), &addr("c")).0
                    }
                })
                .collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    #[test]
    fn fail_first_script_drops_then_delivers() {
        let f = FaultPlane::new();
        f.push_script(Some("a"), Some("b"), LinkScript::FailFirst(3));
        for _ in 0..3 {
            assert_eq!(f.decide(&addr("a"), &addr("b")).0, FaultDecision::Drop);
        }
        for _ in 0..5 {
            assert_eq!(f.decide(&addr("a"), &addr("b")).0, FaultDecision::Deliver);
        }
        // Other links never consulted the script.
        assert_eq!(f.decide(&addr("b"), &addr("a")).0, FaultDecision::Deliver);
    }

    #[test]
    fn flap_script_cycles() {
        let f = FaultPlane::new();
        f.push_script(Some("a"), Some("b"), LinkScript::Flap { down: 2, up: 3 });
        let pattern: Vec<_> = (0..10).map(|_| f.decide(&addr("a"), &addr("b")).0).collect();
        use FaultDecision::{Deliver as D, Drop as X};
        assert_eq!(pattern, vec![X, X, D, D, D, X, X, D, D, D]);
    }

    #[test]
    fn delay_spike_script_hits_on_period() {
        let f = FaultPlane::new();
        f.push_script(
            Some("a"),
            Some("b"),
            LinkScript::DelaySpike { period: 3, spike: Duration::from_millis(10) },
        );
        let delays: Vec<_> = (0..6).map(|_| f.decide(&addr("a"), &addr("b")).1).collect();
        let base = Duration::ZERO;
        let spiked = Duration::from_millis(10);
        assert_eq!(delays, vec![base, base, spiked, base, base, spiked]);
    }

    #[test]
    fn scripts_share_counter_and_compose() {
        let f = FaultPlane::new();
        f.push_script(Some("a"), Some("b"), LinkScript::FailFirst(2));
        f.push_script(
            Some("a"),
            Some("b"),
            LinkScript::DelaySpike { period: 4, spike: Duration::from_millis(7) },
        );
        // Messages 1-2 dropped by FailFirst; message 4 spikes.
        assert_eq!(f.decide(&addr("a"), &addr("b")).0, FaultDecision::Drop);
        assert_eq!(f.decide(&addr("a"), &addr("b")).0, FaultDecision::Drop);
        assert_eq!(f.decide(&addr("a"), &addr("b")), (FaultDecision::Deliver, Duration::ZERO));
        assert_eq!(
            f.decide(&addr("a"), &addr("b")),
            (FaultDecision::Deliver, Duration::from_millis(7))
        );
        f.clear_scripts(Some("a"), Some("b"));
        // Counter reset: no drops, no spikes.
        assert_eq!(f.decide(&addr("a"), &addr("b")), (FaultDecision::Deliver, Duration::ZERO));
    }

    #[test]
    fn clear_returns_to_the_quiet_path() {
        let f = FaultPlane::new();
        assert!(f.inner.lock().is_quiet());
        f.blackhole(&addr("dead"));
        f.set_partition(&[vec!["a".into()], vec!["b".into()]]);
        f.push_script(Some("a"), None, LinkScript::FailFirst(1));
        assert!(!f.inner.lock().is_quiet());
        f.clear();
        assert!(f.inner.lock().is_quiet());
        assert_eq!(f.decide(&addr("a"), &addr("b")), (FaultDecision::Deliver, Duration::ZERO));
        // Each kind of fault alone leaves the quiet path, and removing it returns.
        f.blackhole(&addr("dead"));
        assert!(!f.inner.lock().is_quiet());
        f.unblackhole(&addr("dead"));
        f.set_partition(&[vec!["a".into()]]);
        assert!(!f.inner.lock().is_quiet());
        f.heal_partition();
        assert!(f.inner.lock().is_quiet());
    }

    #[test]
    fn a_message_counts_on_the_one_rule_it_matches() {
        let f = FaultPlane::new();
        f.push_script(None, None, LinkScript::FailFirst(1));
        f.push_script(None, Some("b"), LinkScript::FailFirst(1));
        f.push_script(Some("a"), None, LinkScript::FailFirst(1));
        f.push_script(Some("a"), Some("b"), LinkScript::FailFirst(1));
        // Each first message is the first its own rule sees — (s,d), (s,*),
        // (*,d), (*,*) in that order of precedence — so each is dropped: a
        // message that had also counted on a less specific rule would have
        // used up that rule's one drop.
        for (source, dest) in [("a", "b"), ("a", "c"), ("c", "b"), ("c", "d")] {
            let (decision, _) = f.decide(&addr(source), &addr(dest));
            assert_eq!(decision, FaultDecision::Drop, "{source}->{dest}");
        }
        for (source, dest) in [("a", "b"), ("a", "c"), ("c", "b"), ("c", "d")] {
            assert_eq!(f.decide(&addr(source), &addr(dest)).0, FaultDecision::Deliver);
        }
    }
}
