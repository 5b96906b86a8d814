//! Property tests of the consistent-hash ring behind `RoutedKv`:
//!
//! * a 1-member ring degenerates to direct-handle semantics (everything
//!   routes to that member, always),
//! * routing is a pure function of the member *set* — permuting the
//!   construction order changes nothing,
//! * membership changes cause minimal disruption: an add moves roughly
//!   `keys/N` keys (all toward the joiner), a remove moves exactly the
//!   removed member's keys (all away from it).
//!
//! Each property runs [`CASES`] cases; case `seed` draws only from
//! `SeededRng::new(seed)`, and a failure names the property and the seed.

use std::collections::BTreeSet;

use mochi_core::ring::HashRing;
use mochi_util::SeededRng;

const CASES: u64 = 256;

/// Deterministic key set salted per case so cases explore different
/// regions of the hash space.
fn salted_keys(salt: u64, n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("key-{salt:x}-{i:06}").into_bytes()).collect()
}

fn member_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("kv{i}")).collect()
}

/// 1-provider ring ≡ direct handle: with a single member every key
/// (arbitrary bytes included) routes to it, and `partition` returns
/// the whole key set in order — the routed keyspace degenerates to a
/// plain `DatabaseHandle` against that provider.
#[test]
fn single_member_ring_is_a_direct_handle() {
    let ring = HashRing::new(&["solo"]);
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        let at = format!("single_member_ring_is_a_direct_handle, seed {seed}");
        let keys: Vec<Vec<u8>> = (0..rng.range(1, 100))
            .map(|_| (0..rng.range(0, 32)).map(|_| rng.next_u64() as u8).collect())
            .collect();
        for key in &keys {
            assert_eq!(ring.owner(key), Some("solo"), "{at}");
        }
        let parts = ring.partition(&keys);
        assert_eq!(parts.len(), 1, "{at}");
        assert_eq!(parts["solo"], (0..keys.len()).collect::<Vec<_>>(), "{at}");
    }
}

/// Key → owner is stable under any permutation of the member list:
/// two clients that learn the membership in different orders agree
/// on every key's owner.
#[test]
fn owner_is_stable_under_member_permutation() {
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        let at = format!("owner_is_stable_under_member_permutation, seed {seed}");
        let members = member_names(rng.range(2, 8));
        let salt = rng.next_u64();
        let mut shuffled = members.clone();
        rng.shuffle(&mut shuffled);
        let a = HashRing::new(&members);
        let b = HashRing::new(&shuffled);
        for key in salted_keys(salt, 500) {
            assert_eq!(a.owner(&key), b.owner(&key), "{at}");
        }
    }
}

/// Adding a member moves about `keys/(N+1)` keys — bounded by twice
/// the fair share plus slack for vnode variance — and every moved
/// key moves *toward* the joiner.
#[test]
fn add_disruption_is_minimal() {
    const KEYS: usize = 2000;
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        let at = format!("add_disruption_is_minimal, seed {seed}");
        let n = rng.range(1, 8);
        let old = HashRing::new(&member_names(n));
        let new = old.with_member("joiner");
        let mut moved = 0usize;
        for key in salted_keys(rng.next_u64(), KEYS) {
            if old.moves(&new, &key) {
                assert_eq!(new.owner(&key), Some("joiner"), "{at}");
                moved += 1;
            }
        }
        let fair_share = KEYS / (n + 1);
        assert!(
            moved <= 2 * fair_share + 64,
            "{at}: add moved {moved} of {KEYS} keys (fair share {fair_share})"
        );
    }
}

/// Removing a member moves exactly the keys it owned (no collateral
/// movement among survivors), spread over the survivors.
#[test]
fn remove_moves_exactly_the_removed_members_keys() {
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        let at = format!("remove_moves_exactly_the_removed_members_keys, seed {seed}");
        let n = rng.range(2, 8);
        let members = member_names(n);
        let victim = members[n / 2].as_str();
        let old = HashRing::new(&members);
        let new = old.without_member(victim);
        for key in salted_keys(rng.next_u64(), 1000) {
            let owned_by_victim = old.owner(&key) == Some(victim);
            assert_eq!(
                old.moves(&new, &key),
                owned_by_victim,
                "{at}: a key moves iff the removed member owned it"
            );
            if owned_by_victim {
                let dest = new.owner(&key).expect("survivors own everything");
                assert!(new.members().iter().any(|m| m == dest), "{at}");
                assert_ne!(dest, victim, "{at}");
            }
        }
    }
}

/// Replica sets (`owners`) hold exactly `min(r, N)` *distinct*
/// members, led by the primary, for arbitrary keys and hash points —
/// including the wrap-around at `u64::MAX`.
#[test]
fn owners_are_distinct_successors() {
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        let at = format!("owners_are_distinct_successors, seed {seed}");
        let (n, r) = (rng.range(1, 8), rng.range(1, 6));
        let ring = HashRing::new(&member_names(n));
        for key in salted_keys(rng.next_u64(), 200) {
            let owners = ring.owners(&key, r);
            assert_eq!(owners.len(), r.min(n), "{at}");
            assert_eq!(owners.first().copied(), ring.owner(&key), "{at}");
            let distinct: BTreeSet<&str> = owners.iter().copied().collect();
            assert_eq!(distinct.len(), owners.len(), "{at}: duplicate member in replica set");
        }
        // Direct hash-point probe (covers the exact top of the space).
        let hash = match rng.range(0, 3) {
            0 => rng.next_u64(),
            1 => u64::MAX,
            _ => 0,
        };
        let owners = ring.owners_of_hash(hash, r);
        assert_eq!(owners.len(), r.min(n), "{at}");
        assert_eq!(owners.first().copied(), ring.owner_of_hash(hash), "{at}");
    }
}

/// A single join/retire composes with successor lists the way the
/// replication layer assumes: no key's replica *set* changes by more
/// than one member, and every key inside a moved arc keeps `r - 1`
/// of its old replicas.
#[test]
fn single_membership_change_shifts_owner_sets_by_at_most_one() {
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        let at = format!("single_membership_change_shifts_owner_sets_by_at_most_one, seed {seed}");
        let (n, r) = (rng.range(2, 7), rng.range(2, 4));
        let members = member_names(n);
        let old = HashRing::new(&members);
        let new = if rng.chance(0.5) {
            old.with_member("joiner")
        } else {
            old.without_member(&members[n / 2])
        };
        let arcs = old.moved_arcs(&new);
        for key in salted_keys(rng.next_u64(), 500) {
            let before: BTreeSet<&str> = old.owners(&key, r).into_iter().collect();
            let after: BTreeSet<&str> = new.owners(&key, r).into_iter().collect();
            let lost = before.difference(&after).count();
            let gained = after.difference(&before).count();
            assert!(
                lost <= 1 && gained <= 1,
                "{at}: key lost {lost}/gained {gained} replicas on a single change \
                 (before {before:?}, after {after:?})"
            );
            // Primary movement is exactly the moved-arc set; replica-set
            // movement is a superset (successor lists shift near every
            // changed point), but an *unchanged* primary inside no arc
            // may still swap a tail replica — assert only the arc⇒set
            // direction, which is what the drain planner relies on.
            let hash = HashRing::key_hash(&key);
            if arcs.iter().any(|a| (a.start..=a.end).contains(&hash)) {
                assert!(
                    before != after || r.min(old.len()) != r.min(new.len()),
                    "{at}: a moved-arc key must see some ownership change \
                     unless clamping hides it"
                );
            }
        }
    }
}

/// `moved_arcs` and the per-key diff agree for arbitrary member-set
/// transitions (not just single add/remove).
#[test]
fn moved_arcs_match_per_key_diff() {
    for seed in 0..CASES {
        let mut rng = SeededRng::new(seed);
        let at = format!("moved_arcs_match_per_key_diff, seed {seed}");
        let (from_n, to_n) = (rng.range(1, 6), rng.range(1, 6));
        let from = HashRing::new(&member_names(from_n));
        // Overlapping but different member set: kv{to_n/2}..kv{to_n/2 + to_n}.
        let to_members: Vec<String> =
            (to_n / 2..to_n / 2 + to_n).map(|i| format!("kv{i}")).collect();
        let to = HashRing::new(&to_members);
        let arcs = from.moved_arcs(&to);
        for key in salted_keys(rng.next_u64(), 500) {
            let hash = HashRing::key_hash(&key);
            let in_arcs = arcs.iter().any(|a| (a.start..=a.end).contains(&hash));
            assert_eq!(from.moves(&to, &key), in_arcs, "{at}");
        }
    }
}
