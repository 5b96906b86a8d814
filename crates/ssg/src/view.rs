//! Group views: epoch-numbered membership snapshots with a stable hash.

use serde::{Deserialize, Serialize};

use mochi_mercury::Address;
use mochi_util::crc64;

/// Liveness state of a member, as locally believed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemberState {
    /// Answering pings (or vouched for by gossip).
    Alive,
    /// Missed direct and indirect probes; grace period running.
    Suspect,
    /// Declared failed (or left voluntarily).
    Dead,
}

/// A snapshot of the group as seen by one member.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupView {
    /// Monotonically increasing local version; bumps on every membership
    /// change this member observes.
    pub epoch: u64,
    /// Live members (alive or suspect), sorted by address.
    pub members: Vec<Address>,
}

impl GroupView {
    /// Builds a view from unsorted members.
    pub fn new(epoch: u64, mut members: Vec<Address>) -> Self {
        members.sort();
        members.dedup();
        Self { epoch, members }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the view has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `addr` is in the view.
    pub fn contains(&self, addr: &Address) -> bool {
        self.members.binary_search(addr).is_ok()
    }

    /// Stable content hash of the membership (independent of epoch).
    ///
    /// This is the hash Colza-style clients attach to their RPCs: "a
    /// mismatch between the hash sent by the client and the hash
    /// maintained by a provider informs the latter that the client's view
    /// of the group is outdated" (§6).
    pub fn hash(&self) -> u64 {
        let mut buffer = Vec::new();
        for member in &self.members {
            buffer.extend_from_slice(member.to_string().as_bytes());
            buffer.push(0);
        }
        crc64(&buffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u32) -> Address {
        Address::tcp(format!("node{n}"), 1)
    }

    #[test]
    fn view_sorts_and_dedups() {
        let view = GroupView::new(1, vec![addr(3), addr(1), addr(3), addr(2)]);
        assert_eq!(view.len(), 3);
        assert!(view.members.windows(2).all(|w| w[0] < w[1]));
        assert!(view.contains(&addr(2)));
        assert!(!view.contains(&addr(9)));
    }

    #[test]
    fn hash_depends_on_membership_not_epoch_or_order() {
        let a = GroupView::new(1, vec![addr(1), addr(2)]);
        let b = GroupView::new(99, vec![addr(2), addr(1)]);
        let c = GroupView::new(1, vec![addr(1), addr(3)]);
        assert_eq!(a.hash(), b.hash());
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn serde_round_trip() {
        let view = GroupView::new(7, vec![addr(1)]);
        let json = serde_json::to_string(&view).unwrap();
        let back: GroupView = serde_json::from_str(&json).unwrap();
        assert_eq!(back, view);
    }
}
