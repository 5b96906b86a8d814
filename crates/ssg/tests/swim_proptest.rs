//! Property tests on the SWIM state machine: under arbitrary update and
//! tick sequences, the core invariants hold:
//!
//! * the view always contains self;
//! * a member reported Dead at incarnation i never reappears without a
//!   strictly higher Alive incarnation;
//! * ticks never resurrect anyone;
//! * the epoch is monotone;
//! * the piggyback buffer never replays an update more than its limit.
//!
//! Each property runs [`CASES`] cases; case `seed` draws only from
//! `SeededRng::new(seed)`, and a failure names the property and the seed.

use std::collections::HashMap;

use mochi_mercury::Address;
use mochi_ssg::swim::{MemberSnapshot, SwimState, Update};
use mochi_ssg::MemberState;
use mochi_util::SeededRng;

const CASES: u64 = 256;

fn addr(n: usize) -> Address {
    Address::tcp(format!("m{n}"), 1)
}

#[test]
fn swim_invariants_hold() {
    const STATES: [MemberState; 3] = [MemberState::Alive, MemberState::Suspect, MemberState::Dead];
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        let initial: Vec<MemberSnapshot> =
            (1..4).map(|n| MemberSnapshot { address: addr(n), incarnation: 0 }).collect();
        let mut state = SwimState::new(addr(0), &initial, 4, 3);
        let mut last_epoch = state.view().epoch;
        // member -> highest incarnation at which we saw it dead
        let mut died_at: HashMap<Address, u64> = HashMap::new();

        for step in 0..rng.range(0, 80) {
            let at = format!("swim_invariants_hold, seed {seed}, step {step}");
            // Gossip, local suspicion, confirmation, tick, piggyback: 4 : 2 : 2 : 2 : 1.
            match rng.range(0, 11) {
                0..=3 => {
                    let subject = addr(rng.range(0, 6));
                    let (s, i) = (STATES[rng.range(0, 3)], rng.range_u64(0, 4));
                    state.apply_update(&Update {
                        subject: subject.clone(),
                        state: s,
                        incarnation: i,
                    });
                    if s == MemberState::Dead && state.state_of(&subject) == Some(MemberState::Dead)
                    {
                        let entry = died_at.entry(subject).or_insert(0);
                        *entry = (*entry).max(i);
                    }
                }
                4..=5 => state.suspect_locally(&addr(rng.range(1, 6))),
                6..=7 => state.confirm_alive(&addr(rng.range(1, 6))),
                8..=9 => {
                    let before: Vec<Address> = state.view().members;
                    state.tick();
                    let after = state.view();
                    // Ticks only remove (expire suspects), never add.
                    for member in &after.members {
                        assert!(before.contains(member), "{at}: tick resurrected {member}");
                    }
                    // Track deaths caused by expiry.
                    for member in before.iter().filter(|m| !after.contains(m)) {
                        if let Some(i) = state.incarnation_of(member) {
                            let entry = died_at.entry(member.clone()).or_insert(0);
                            *entry = (*entry).max(i);
                        }
                    }
                }
                _ => assert!(state.take_piggyback(16).len() <= 16, "{at}"),
            }

            let view = state.view();
            assert!(view.contains(&addr(0)), "{at}: view lost self");
            assert!(view.epoch >= last_epoch, "{at}: epoch went backwards");
            last_epoch = view.epoch;
            // No one dead at incarnation i is in the view unless they were
            // resurrected at a strictly higher alive incarnation.
            for (member, dead_inc) in &died_at {
                if view.contains(member) {
                    let current = state.incarnation_of(member).unwrap_or(0);
                    assert!(
                        current > *dead_inc,
                        "{at}: {member} in view at incarnation {current} but died at {dead_inc}"
                    );
                }
            }
            // Events drain cleanly (no panics, bounded).
            state.drain_events();
        }
    }
}

#[test]
fn piggyback_send_budget_respected() {
    for seed in 0..CASES {
        let limit = SeededRng::new(seed).range(1, 6) as u32;
        let mut state = SwimState::new(addr(0), &[], limit, 3);
        state.apply_update(&Update { subject: addr(1), state: MemberState::Alive, incarnation: 0 });
        // One update queued; it may be handed out at most `limit` times.
        let sends = (0..limit + 3).filter(|_| !state.take_piggyback(8).is_empty()).count();
        assert_eq!(sends, limit as usize, "piggyback_send_budget_respected, seed {seed}");
    }
}
