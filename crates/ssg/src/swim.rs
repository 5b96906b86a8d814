//! The SWIM membership state machine (Das et al., DSN'02).
//!
//! This module is deliberately network-free: it owns the membership
//! table, the incarnation/override rules, the suspicion timers (counted
//! in protocol periods), and the piggyback dissemination buffer.
//! [`crate::group`] drives it from a protocol thread and carries its
//! updates inside ping/ack RPCs. Keeping the rules pure makes them unit-
//! and property-testable without a fabric.

use std::collections::{HashMap, VecDeque};

use serde::{Deserialize, Serialize};

use mochi_mercury::Address;
use mochi_util::SeededRng;

use crate::view::{GroupView, MemberState};

/// A disseminated membership update.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Update {
    /// The member the update is about.
    pub subject: Address,
    /// Claimed state.
    pub state: MemberState,
    /// Incarnation number the claim refers to.
    pub incarnation: u64,
}

/// A membership change surfaced to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipEvent {
    /// A member appeared (bootstrap, join, or resurrection).
    Joined(Address),
    /// A member is suspected (missed direct + indirect probes).
    Suspected(Address),
    /// A member was declared dead (suspicion expired) or left.
    Died(Address),
    /// A suspected member refuted the suspicion.
    Recovered(Address),
}

#[derive(Debug, Clone)]
struct MemberRecord {
    state: MemberState,
    incarnation: u64,
    /// Period at which the member became suspected.
    suspect_since: u64,
}

/// Entry in the join snapshot handed to new members.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemberSnapshot {
    /// Member address.
    pub address: Address,
    /// Its incarnation.
    pub incarnation: u64,
}

/// The SWIM state of one member.
pub struct SwimState {
    self_addr: Address,
    incarnation: u64,
    members: HashMap<Address, MemberRecord>,
    updates: VecDeque<(Update, u32)>,
    piggyback_limit: u32,
    suspicion_periods: u32,
    epoch: u64,
    period: u64,
    events: Vec<MembershipEvent>,
    /// Shuffled ping order (SWIM's round-robin randomization).
    ping_order: Vec<Address>,
    ping_cursor: usize,
}

impl SwimState {
    /// Creates the state for `self_addr` with the given initial members
    /// (which may or may not include `self_addr`).
    pub fn new(
        self_addr: Address,
        initial: &[MemberSnapshot],
        piggyback_limit: u32,
        suspicion_periods: u32,
    ) -> Self {
        let mut members = HashMap::new();
        for snapshot in initial {
            if snapshot.address != self_addr {
                members.insert(
                    snapshot.address.clone(),
                    MemberRecord {
                        state: MemberState::Alive,
                        incarnation: snapshot.incarnation,
                        suspect_since: 0,
                    },
                );
            }
        }
        Self {
            self_addr,
            incarnation: 0,
            members,
            updates: VecDeque::new(),
            piggyback_limit,
            suspicion_periods,
            epoch: 0,
            period: 0,
            events: Vec::new(),
            ping_order: Vec::new(),
            ping_cursor: 0,
        }
    }

    /// This member's address.
    pub fn self_addr(&self) -> &Address {
        &self.self_addr
    }

    /// Epoch of the view [`SwimState::view`] would build: moves with every
    /// membership change.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// This member's incarnation number.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Sets the incarnation (used on rejoin to exceed a stale Dead record).
    pub fn set_incarnation(&mut self, incarnation: u64) {
        self.incarnation = incarnation;
    }

    fn enqueue(&mut self, update: Update) {
        // Replace any older update about the same subject.
        self.updates.retain(|(u, _)| u.subject != update.subject);
        self.updates.push_back((update, self.piggyback_limit));
    }

    /// Forces an update into the dissemination buffer without applying it
    /// (used to announce our own aliveness at bootstrap/join, since
    /// updates about self are otherwise only queued as refutations).
    pub fn force_enqueue(&mut self, update: Update) {
        self.enqueue(update);
    }

    /// Pops up to `max` updates for piggybacking on an outgoing message.
    pub fn take_piggyback(&mut self, max: usize) -> Vec<Update> {
        let mut out = Vec::new();
        let mut keep = VecDeque::new();
        while let Some((update, mut remaining)) = self.updates.pop_front() {
            if out.len() < max {
                out.push(update.clone());
                remaining = remaining.saturating_sub(1);
            }
            if remaining > 0 {
                keep.push_back((update, remaining));
            }
        }
        self.updates = keep;
        out
    }

    /// Applies a received (or locally generated) update, enforcing SWIM's
    /// override rules, and re-disseminates it if it changed anything.
    pub fn apply_update(&mut self, update: &Update) {
        if update.subject == self.self_addr {
            // Suspicion or death about ourselves: refute with a higher
            // incarnation.
            if update.state != MemberState::Alive && update.incarnation >= self.incarnation {
                self.incarnation = update.incarnation + 1;
                let refutation = Update {
                    subject: self.self_addr.clone(),
                    state: MemberState::Alive,
                    incarnation: self.incarnation,
                };
                self.enqueue(refutation);
            }
            return;
        }
        let record = self.members.get(&update.subject);
        let accept = match record {
            None => {
                // Unknown member: accept Alive claims (a join); ignore
                // suspicion/death gossip about members we never met.
                update.state == MemberState::Alive
            }
            Some(existing) => match (existing.state, update.state) {
                // Alive overrides Suspect/Alive with greater incarnation;
                // resurrects Dead with strictly greater incarnation (a
                // restarted process rejoining under the same address).
                (MemberState::Alive, MemberState::Alive) => {
                    update.incarnation > existing.incarnation
                }
                (MemberState::Suspect, MemberState::Alive) => {
                    update.incarnation > existing.incarnation
                }
                (MemberState::Dead, MemberState::Alive) => {
                    update.incarnation > existing.incarnation
                }
                // Suspect overrides Alive with >= incarnation.
                (MemberState::Alive, MemberState::Suspect) => {
                    update.incarnation >= existing.incarnation
                }
                (MemberState::Suspect, MemberState::Suspect) => {
                    update.incarnation > existing.incarnation
                }
                (MemberState::Dead, MemberState::Suspect) => false,
                // Dead overrides everything at >= incarnation; a fresher
                // death claim must also advance a Dead record's
                // incarnation, or a stale Alive could resurrect past it.
                (MemberState::Dead, MemberState::Dead) => {
                    update.incarnation > existing.incarnation
                }
                (_, MemberState::Dead) => update.incarnation >= existing.incarnation,
            },
        };
        if !accept {
            return;
        }
        let previous = record.map(|r| r.state);
        self.members.insert(
            update.subject.clone(),
            MemberRecord {
                state: update.state,
                incarnation: update.incarnation,
                suspect_since: self.period,
            },
        );
        self.epoch += 1;
        self.refresh_ping_order();
        match (previous, update.state) {
            (None, MemberState::Alive) | (Some(MemberState::Dead), MemberState::Alive) => {
                self.events.push(MembershipEvent::Joined(update.subject.clone()));
            }
            (Some(MemberState::Suspect), MemberState::Alive) => {
                self.events.push(MembershipEvent::Recovered(update.subject.clone()));
            }
            (_, MemberState::Suspect) => {
                self.events.push(MembershipEvent::Suspected(update.subject.clone()));
            }
            (previous, MemberState::Dead) if previous != Some(MemberState::Dead) => {
                self.events.push(MembershipEvent::Died(update.subject.clone()));
            }
            _ => {}
        }
        self.enqueue(update.clone());
    }

    /// Local observation: direct and indirect probes of `addr` failed.
    pub fn suspect_locally(&mut self, addr: &Address) {
        let incarnation = self.members.get(addr).map(|r| r.incarnation).unwrap_or(0);
        let update =
            Update { subject: addr.clone(), state: MemberState::Suspect, incarnation };
        self.apply_update(&update);
    }

    /// Local observation: `addr` answered a probe.
    pub fn confirm_alive(&mut self, addr: &Address) {
        if let Some(record) = self.members.get_mut(addr) {
            if record.state == MemberState::Suspect {
                let incarnation = record.incarnation;
                let update = Update {
                    subject: addr.clone(),
                    state: MemberState::Alive,
                    incarnation: incarnation + 1,
                };
                self.apply_update(&update);
            }
        }
    }

    /// Advances one protocol period; expires suspicions into deaths.
    pub fn tick(&mut self) {
        self.period += 1;
        let expired: Vec<(Address, u64)> = self
            .members
            .iter()
            .filter(|(_, r)| {
                r.state == MemberState::Suspect
                    && self.period.saturating_sub(r.suspect_since) >= self.suspicion_periods as u64
            })
            .map(|(a, r)| (a.clone(), r.incarnation))
            .collect();
        for (addr, incarnation) in expired {
            let update = Update { subject: addr, state: MemberState::Dead, incarnation };
            self.apply_update(&update);
        }
    }

    fn refresh_ping_order(&mut self) {
        self.ping_order.clear();
        self.ping_cursor = 0;
    }

    /// Picks the next probe target (round-robin over a random permutation
    /// of live members, as in the SWIM paper).
    pub fn next_ping_target(&mut self, rng: &mut SeededRng) -> Option<Address> {
        if self.ping_cursor >= self.ping_order.len() {
            self.ping_order = self
                .members
                .iter()
                .filter(|(_, r)| r.state != MemberState::Dead)
                .map(|(a, _)| a.clone())
                .collect();
            rng.shuffle(&mut self.ping_order);
            self.ping_cursor = 0;
        }
        let target = self.ping_order.get(self.ping_cursor).cloned();
        self.ping_cursor += 1;
        target
    }

    /// Picks up to `k` members for indirect probing, excluding `exclude`.
    pub fn select_indirect(
        &self,
        rng: &mut SeededRng,
        k: usize,
        exclude: &Address,
    ) -> Vec<Address> {
        let mut candidates: Vec<Address> = self
            .members
            .iter()
            .filter(|(a, r)| r.state == MemberState::Alive && *a != exclude)
            .map(|(a, _)| a.clone())
            .collect();
        rng.shuffle(&mut candidates);
        candidates.truncate(k);
        candidates
    }

    /// Current view: self plus alive and suspect members.
    pub fn view(&self) -> GroupView {
        let mut members: Vec<Address> = self
            .members
            .iter()
            .filter(|(_, r)| r.state != MemberState::Dead)
            .map(|(a, _)| a.clone())
            .collect();
        members.push(self.self_addr.clone());
        GroupView::new(self.epoch, members)
    }

    /// Snapshot for joiners: self plus all alive members.
    pub fn snapshot(&self) -> Vec<MemberSnapshot> {
        let mut snapshot: Vec<MemberSnapshot> = self
            .members
            .iter()
            .filter(|(_, r)| r.state != MemberState::Dead)
            .map(|(a, r)| MemberSnapshot { address: a.clone(), incarnation: r.incarnation })
            .collect();
        snapshot.push(MemberSnapshot {
            address: self.self_addr.clone(),
            incarnation: self.incarnation,
        });
        snapshot.sort_by(|a, b| a.address.cmp(&b.address));
        snapshot
    }

    /// Recorded incarnation of `addr`, if known.
    pub fn incarnation_of(&self, addr: &Address) -> Option<u64> {
        self.members.get(addr).map(|r| r.incarnation)
    }

    /// State of `addr`, if known.
    pub fn state_of(&self, addr: &Address) -> Option<MemberState> {
        self.members.get(addr).map(|r| r.state)
    }

    /// Drains pending membership events (fired to callbacks).
    pub fn drain_events(&mut self) -> Vec<MembershipEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u32) -> Address {
        Address::tcp(format!("node{n}"), 1)
    }

    fn snapshot(ids: &[u32]) -> Vec<MemberSnapshot> {
        ids.iter().map(|n| MemberSnapshot { address: addr(*n), incarnation: 0 }).collect()
    }

    fn state() -> SwimState {
        SwimState::new(addr(0), &snapshot(&[1, 2, 3]), 8, 3)
    }

    #[test]
    fn initial_view_contains_everyone() {
        let s = state();
        let view = s.view();
        assert_eq!(view.len(), 4);
        assert!(view.contains(&addr(0)));
    }

    #[test]
    fn suspicion_expires_to_death_after_configured_periods() {
        let mut s = state();
        s.suspect_locally(&addr(1));
        assert_eq!(s.state_of(&addr(1)), Some(MemberState::Suspect));
        s.tick();
        s.tick();
        assert_eq!(s.state_of(&addr(1)), Some(MemberState::Suspect));
        s.tick();
        assert_eq!(s.state_of(&addr(1)), Some(MemberState::Dead));
        assert!(!s.view().contains(&addr(1)));
        let events = s.drain_events();
        assert!(events.contains(&MembershipEvent::Suspected(addr(1))));
        assert!(events.contains(&MembershipEvent::Died(addr(1))));
    }

    #[test]
    fn alive_with_higher_incarnation_refutes_suspicion() {
        let mut s = state();
        s.suspect_locally(&addr(1));
        s.apply_update(&Update {
            subject: addr(1),
            state: MemberState::Alive,
            incarnation: 1,
        });
        assert_eq!(s.state_of(&addr(1)), Some(MemberState::Alive));
        assert!(s.drain_events().contains(&MembershipEvent::Recovered(addr(1))));
    }

    #[test]
    fn stale_alive_does_not_unsuspect() {
        let mut s = state();
        s.suspect_locally(&addr(1)); // suspect at incarnation 0
        s.apply_update(&Update {
            subject: addr(1),
            state: MemberState::Alive,
            incarnation: 0, // same incarnation: suspicion wins
        });
        assert_eq!(s.state_of(&addr(1)), Some(MemberState::Suspect));
    }

    #[test]
    fn self_suspicion_triggers_refutation() {
        let mut s = state();
        s.apply_update(&Update {
            subject: addr(0),
            state: MemberState::Suspect,
            incarnation: 0,
        });
        assert_eq!(s.incarnation(), 1);
        let updates = s.take_piggyback(10);
        assert!(updates.iter().any(|u| u.subject == addr(0)
            && u.state == MemberState::Alive
            && u.incarnation == 1));
    }

    #[test]
    fn join_via_alive_update() {
        let mut s = state();
        s.apply_update(&Update {
            subject: addr(9),
            state: MemberState::Alive,
            incarnation: 0,
        });
        assert!(s.view().contains(&addr(9)));
        assert!(s.drain_events().contains(&MembershipEvent::Joined(addr(9))));
    }

    #[test]
    fn dead_member_resurrects_only_with_higher_incarnation() {
        let mut s = state();
        s.apply_update(&Update { subject: addr(1), state: MemberState::Dead, incarnation: 0 });
        assert!(!s.view().contains(&addr(1)));
        // Same incarnation: stays dead.
        s.apply_update(&Update { subject: addr(1), state: MemberState::Alive, incarnation: 0 });
        assert_eq!(s.state_of(&addr(1)), Some(MemberState::Dead));
        // Higher incarnation: rejoins.
        s.apply_update(&Update { subject: addr(1), state: MemberState::Alive, incarnation: 1 });
        assert_eq!(s.state_of(&addr(1)), Some(MemberState::Alive));
        // A fresher death advances the record: an Alive above the first
        // death but below the second stays dead.
        for (state, incarnation) in
            [(MemberState::Dead, 0), (MemberState::Dead, 3), (MemberState::Alive, 1)]
        {
            s.apply_update(&Update { subject: addr(2), state, incarnation });
        }
        assert_eq!(s.state_of(&addr(2)), Some(MemberState::Dead));
    }

    #[test]
    fn piggyback_limit_retires_updates() {
        let mut s = SwimState::new(addr(0), &snapshot(&[1]), 2, 3);
        s.suspect_locally(&addr(1));
        assert_eq!(s.take_piggyback(10).len(), 1);
        assert_eq!(s.take_piggyback(10).len(), 1);
        assert_eq!(s.take_piggyback(10).len(), 0, "limit of 2 sends reached");
    }

    #[test]
    fn ping_targets_cycle_through_all_members() {
        let mut s = state();
        let mut rng = SeededRng::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            seen.insert(s.next_ping_target(&mut rng).unwrap());
        }
        assert_eq!(seen.len(), 3, "one full round hits every member once");
    }

    #[test]
    fn indirect_selection_excludes_target_and_self() {
        let s = state();
        let mut rng = SeededRng::new(2);
        let picked = s.select_indirect(&mut rng, 5, &addr(1));
        assert!(!picked.contains(&addr(1)));
        assert!(!picked.contains(&addr(0)));
        assert_eq!(picked.len(), 2); // only 2 and 3 remain
    }

    #[test]
    fn gossip_about_unknown_dead_member_is_ignored() {
        let mut s = state();
        s.apply_update(&Update { subject: addr(42), state: MemberState::Dead, incarnation: 5 });
        assert_eq!(s.state_of(&addr(42)), None);
        assert!(s.drain_events().is_empty());
    }

    #[test]
    fn epoch_increases_on_changes() {
        let mut s = state();
        let e0 = s.view().epoch;
        s.suspect_locally(&addr(1));
        assert!(s.view().epoch > e0);
    }
}
