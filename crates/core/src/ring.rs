//! Consistent-hash ring: the keyspace router behind [`RoutedKv`].
//!
//! Each member contributes `vnodes` points on a `u64` ring, a key hashes
//! to a point ([`HashRing::key_hash`]), and the first member point at or
//! after it (wrapping) owns the key. Both sides go through the `mix64`
//! finalizer: raw FNV-1a (which the shard and stripe routers reduce
//! `% n`, where the low bits suffice) moves only its low ~40 bits for
//! inputs that differ in their last bytes, so sequential keys would land
//! on one arc of the ring. Virtual nodes keep the per-member share near
//! `1/N` and — the property the rebalance path depends on — make a
//! membership change move only the arcs adjacent to the changed member's
//! points, not reshuffle the whole keyspace.
//!
//! [`RoutedKv`]: crate::routed::RoutedKv

use std::collections::BTreeMap;

use mochi_util::{fnv1a64, mix64};

/// Default virtual nodes per member (enough that the max/min member
/// share stays within ~2x at small N; raise for tighter balance).
pub const DEFAULT_VNODES: usize = 64;

/// An immutable virtual-node consistent-hash ring over member names.
///
/// Construction order does not matter: the ring is a pure function of
/// the member *set* (and `vnodes`), so two clients that learn the same
/// membership in different orders route identically.
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes: usize,
    /// ring point -> member index in `members`.
    points: BTreeMap<u64, usize>,
    /// Sorted member names (index space of `points`).
    members: Vec<String>,
}

/// One contiguous arc of the hash space whose owner changes between two
/// rings — the unit of the minimal moved-slice set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MovedArc {
    /// First hash covered by the arc.
    pub start: u64,
    /// Last hash covered by the arc (inclusive; `start > end` never
    /// occurs — the wrapping arc is split at 0).
    pub end: u64,
    /// Owner in the old ring.
    pub from: String,
    /// Owner in the new ring.
    pub to: String,
}

impl HashRing {
    /// Builds a ring over `members` with [`DEFAULT_VNODES`] points each.
    pub fn new<S: AsRef<str>>(members: &[S]) -> Self {
        Self::with_vnodes(members, DEFAULT_VNODES)
    }

    /// Builds a ring with `vnodes` points per member.
    pub fn with_vnodes<S: AsRef<str>>(members: &[S], vnodes: usize) -> Self {
        let vnodes = vnodes.max(1);
        let mut names: Vec<String> =
            members.iter().map(|m| m.as_ref().to_string()).collect();
        names.sort();
        names.dedup();
        let mut points = BTreeMap::new();
        for (index, name) in names.iter().enumerate() {
            for replica in 0..vnodes {
                // Ties (astronomically unlikely with 64-bit FNV) resolve
                // to the lexicographically *last* member because later
                // indices overwrite — deterministic either way, which is
                // all the stability property needs.
                points.insert(Self::point(name, replica), index);
            }
        }
        Self { vnodes, points, members: names }
    }

    fn point(member: &str, replica: usize) -> u64 {
        let mut buf = Vec::with_capacity(member.len() + 9);
        buf.extend_from_slice(member.as_bytes());
        buf.push(b'#');
        buf.extend_from_slice(&(replica as u64).to_le_bytes());
        // Raw FNV clusters on near-identical inputs (member#0, member#1,
        // …) — the finalizer spreads the points uniformly over the ring.
        mix64(fnv1a64(&buf))
    }

    /// Members, sorted by name.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Virtual nodes per member.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Whether `member` is on the ring.
    pub fn contains(&self, member: &str) -> bool {
        self.members.iter().any(|m| m == member)
    }

    /// The member owning hash `h`: the first ring point at or after `h`,
    /// wrapping past the top of the hash space.
    pub fn owner_of_hash(&self, h: u64) -> Option<&str> {
        let index = self
            .points
            .range(h..)
            .next()
            .or_else(|| self.points.iter().next())
            .map(|(_, i)| *i)?;
        Some(&self.members[index])
    }

    /// Where `key` lands on the ring.
    pub fn key_hash(key: &[u8]) -> u64 {
        mix64(fnv1a64(key))
    }

    /// The member owning `key`.
    pub fn owner(&self, key: &[u8]) -> Option<&str> {
        self.owner_of_hash(Self::key_hash(key))
    }

    /// The first `r` *distinct* members whose points follow hash `h` in
    /// ring order (wrapping) — the replica set for `h` under R-successor
    /// replication. The first element is [`owner_of_hash`]; duplicate
    /// physical members (adjacent virtual nodes of the same member) are
    /// skipped, so the list holds `min(r, len())` unique names.
    ///
    /// [`owner_of_hash`]: HashRing::owner_of_hash
    pub fn owners_of_hash(&self, h: u64, r: usize) -> Vec<&str> {
        self.owner_indices_of_hash(h, r).into_iter().map(|i| self.members[i].as_str()).collect()
    }

    fn owner_indices_of_hash(&self, h: u64, r: usize) -> Vec<usize> {
        let mut set = vec![0; r.min(self.members.len())];
        let found = self.successors_into(h, &mut set);
        set.truncate(found);
        set
    }

    /// Writes the first `out.len()` distinct members whose points follow
    /// `h` into `out` — fewer when the ring is smaller — and returns how
    /// many: the walk behind every owner lookup, allocating nothing.
    fn successors_into(&self, h: u64, out: &mut [usize]) -> usize {
        let want = out.len().min(self.members.len());
        let mut found = 0;
        let mut full = |index: &usize| {
            if !out[..found].contains(index) {
                out[found] = *index;
                found += 1;
            }
            found == want
        };
        // The wrap-around half is looked up only if the first runs out:
        // the common walk ends within a few points of `h`.
        if want > 0 && !self.points.range(h..).any(|(_, index)| full(index)) {
            let _ = self.points.range(..h).any(|(_, index)| full(index));
        }
        found
    }

    /// The replica set for `key`: `r` distinct members in successor
    /// order, primary first.
    pub fn owners(&self, key: &[u8], r: usize) -> Vec<&str> {
        self.owners_of_hash(Self::key_hash(key), r)
    }

    /// [`Self::owners`] as indices into [`Self::members`].
    pub fn owner_indices(&self, key: &[u8], r: usize) -> Vec<usize> {
        self.owner_indices_of_hash(Self::key_hash(key), r)
    }

    /// [`Self::owner_indices`] written into the caller's buffer: the first
    /// `out.len()` owners, or all of them if the ring is smaller. Returns
    /// how many were written.
    pub fn owner_indices_into(&self, key: &[u8], out: &mut [usize]) -> usize {
        self.successors_into(Self::key_hash(key), out)
    }

    /// A new ring with `member` added (same `vnodes`).
    pub fn with_member(&self, member: &str) -> Self {
        let mut names = self.members.clone();
        names.push(member.to_string());
        Self::with_vnodes(&names, self.vnodes)
    }

    /// A new ring with `member` removed (same `vnodes`).
    pub fn without_member(&self, member: &str) -> Self {
        let names: Vec<String> =
            self.members.iter().filter(|m| m.as_str() != member).cloned().collect();
        Self::with_vnodes(&names, self.vnodes)
    }

    /// The minimal moved-slice set between `self` and `to`: the arcs of
    /// the hash space whose owner differs, merged where adjacent. For a
    /// single add/remove these are exactly the arcs bounded by the
    /// changed member's virtual-node points — everything else stays put.
    pub fn moved_arcs(&self, to: &HashRing) -> Vec<MovedArc> {
        // Owner can only change at a ring point of either ring, so the
        // union of both point sets partitions the hash space into
        // segments of constant (from, to) ownership.
        let mut cuts: Vec<u64> = self
            .points
            .keys()
            .chain(to.points.keys())
            .copied()
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        if cuts.is_empty() {
            return Vec::new();
        }
        let mut arcs: Vec<MovedArc> = Vec::new();
        // Segment i covers (cuts[i-1], cuts[i]] — i.e. hashes whose
        // successor point is cuts[i]; the segment below cuts[0] wraps.
        let mut push = |start: u64, end: u64| {
            let (Some(from), Some(to_owner)) =
                (self.owner_of_hash(end), to.owner_of_hash(end))
            else {
                return;
            };
            if from == to_owner {
                return;
            }
            let (from, to_owner) = (from.to_string(), to_owner.to_string());
            match arcs.last_mut() {
                // Merge with the previous arc when contiguous and
                // same-owned (start == 0 never merges across the wrap).
                Some(last)
                    if start > 0
                        && last.end == start - 1
                        && last.from == from
                        && last.to == to_owner =>
                {
                    last.end = end;
                }
                _ => arcs.push(MovedArc { start, end, from, to: to_owner }),
            }
        };
        for i in 0..cuts.len() {
            let start = if i == 0 { 0 } else { cuts[i - 1] + 1 };
            push(start, cuts[i]);
        }
        // The wrapping tail (last point, u64::MAX] owns like hash
        // u64::MAX, whose successor wraps to the first point.
        if *cuts.last().expect("non-empty") < u64::MAX {
            push(cuts.last().expect("non-empty") + 1, u64::MAX);
        }
        arcs
    }

    /// Whether `key`'s owner differs between `self` and `to`.
    pub fn moves(&self, to: &HashRing, key: &[u8]) -> bool {
        self.owner(key) != to.owner(key)
    }

    /// Splits `keys` by owner: a map from member to the indices of the
    /// keys it owns (indices into `keys`, preserving order).
    pub fn partition<'k, K: AsRef<[u8]>>(
        &'k self,
        keys: &[K],
    ) -> BTreeMap<&'k str, Vec<usize>> {
        let mut by_owner: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, key) in keys.iter().enumerate() {
            if let Some(owner) = self.owner(key.as_ref()) {
                by_owner.entry(owner).or_default().push(i);
            }
        }
        by_owner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("key-{i:06}").into_bytes()).collect()
    }

    #[test]
    fn single_member_owns_everything() {
        let ring = HashRing::new(&["only"]);
        for key in keys(100) {
            assert_eq!(ring.owner(&key), Some("only"));
        }
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = HashRing::new::<&str>(&[]);
        assert_eq!(ring.owner(b"k"), None);
        assert!(ring.moved_arcs(&ring).is_empty());
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        let a = HashRing::new(&["db0", "db1", "db2"]);
        let b = HashRing::new(&["db2", "db0", "db1"]);
        for key in keys(500) {
            assert_eq!(a.owner(&key), b.owner(&key));
        }
    }

    #[test]
    fn shares_are_roughly_balanced() {
        let ring = HashRing::new(&["db0", "db1", "db2", "db3"]);
        let ks = keys(4000);
        let parts = ring.partition(&ks);
        for member in ring.members() {
            let share = parts.get(member.as_str()).map_or(0, Vec::len);
            // 4000/4 = 1000 expected; vnode variance stays within ~2x.
            assert!(
                (400..=2000).contains(&share),
                "{member} owns {share} of 4000"
            );
        }
    }

    #[test]
    fn sequential_short_keys_reach_every_member() {
        // Keys that differ only in their last bytes: raw FNV-1a puts all
        // 200 on two of the four members.
        let ring = HashRing::new(&["kv0a", "kv0b", "kv1a", "kv1b"]);
        let ks: Vec<Vec<u8>> = (0..200).map(|i| format!("key-{i:04}").into_bytes()).collect();
        let parts = ring.partition(&ks);
        for member in ring.members() {
            let share = parts.get(member.as_str()).map_or(0, Vec::len);
            assert!(share >= 20, "{member} owns {share} of 200");
        }
    }

    #[test]
    fn add_moves_only_toward_the_new_member() {
        let old = HashRing::new(&["db0", "db1", "db2"]);
        let new = old.with_member("db3");
        for key in keys(2000) {
            if old.moves(&new, &key) {
                assert_eq!(new.owner(&key), Some("db3"));
            }
        }
    }

    #[test]
    fn remove_moves_only_away_from_the_removed_member() {
        let old = HashRing::new(&["db0", "db1", "db2", "db3"]);
        let new = old.without_member("db3");
        for key in keys(2000) {
            if old.moves(&new, &key) {
                assert_eq!(old.owner(&key), Some("db3"));
            }
        }
    }

    #[test]
    fn moved_arcs_agree_with_per_key_diff() {
        let old = HashRing::new(&["db0", "db1", "db2"]);
        let new = old.with_member("db3");
        let arcs = old.moved_arcs(&new);
        assert!(!arcs.is_empty());
        for arc in &arcs {
            assert!(arc.start <= arc.end);
            assert_eq!(arc.to, "db3");
        }
        let in_arcs = |h: u64| arcs.iter().any(|a| (a.start..=a.end).contains(&h));
        for key in keys(2000) {
            let h = HashRing::key_hash(&key);
            assert_eq!(old.moves(&new, &key), in_arcs(h), "hash {h:#x}");
        }
    }

    #[test]
    fn owners_are_distinct_and_led_by_the_primary() {
        let ring = HashRing::new(&["db0", "db1", "db2", "db3"]);
        for key in keys(500) {
            for r in 1..=5 {
                let owners = ring.owners(&key, r);
                assert_eq!(owners.len(), r.min(4));
                assert_eq!(owners.first().copied(), ring.owner(&key));
                let mut sorted = owners.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), owners.len(), "duplicate member in {owners:?}");
            }
        }
    }

    #[test]
    fn owners_wrap_past_the_top_of_the_hash_space() {
        let ring = HashRing::new(&["db0", "db1", "db2"]);
        let owners = ring.owners_of_hash(u64::MAX, 3);
        assert_eq!(owners.len(), 3);
        assert_eq!(owners.first().copied(), ring.owner_of_hash(u64::MAX));
        let mut sorted = owners.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, ring.members().iter().map(String::as_str).collect::<Vec<_>>());
    }

    #[test]
    fn owners_clamp_to_membership() {
        let ring = HashRing::new(&["db0"]);
        assert_eq!(ring.owners(b"k", 3), vec!["db0"]);
        let empty = HashRing::new::<&str>(&[]);
        assert!(empty.owners(b"k", 3).is_empty());
    }

    #[test]
    fn partition_preserves_order_and_covers_all() {
        let ring = HashRing::new(&["db0", "db1"]);
        let ks = keys(64);
        let parts = ring.partition(&ks);
        let mut seen: Vec<usize> = parts.values().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
        for indices in parts.values() {
            assert!(indices.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
