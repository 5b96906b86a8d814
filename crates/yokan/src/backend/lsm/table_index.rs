//! The index of an immutable LSM table (`super::SsTable`).

use std::ops::Bound;

use super::{Index, ValueLoc, YokanError};

/// The index of an immutable table: the keys back to back in one buffer
/// and, sorted by key, where each ends there and where its value lies in
/// the file — 16 bytes a key beside the key's own, about half of what a
/// `BTreeMap<Vec<u8>, ValueLoc>` takes. The tables' indexes are what a
/// database's memory grows by, one entry per key on disk.
#[derive(Default)]
pub(super) struct TableIndex {
    keys: Vec<u8>,
    entries: Vec<IndexEntry>,
}

#[derive(Clone, Copy)]
struct IndexEntry {
    /// Where the key ends in `keys`; it starts where the previous ends.
    key_end: u32,
    len: u32,
    offset: u64,
}

impl TableIndex {
    /// Appends an entry; keys must arrive in ascending order.
    pub(super) fn push(&mut self, key: &[u8], loc: ValueLoc) -> Result<(), YokanError> {
        self.keys.extend_from_slice(key);
        let key_end = u32::try_from(self.keys.len())
            .map_err(|_| YokanError::Io("more than 4 GiB of keys in one table".into()))?;
        self.entries.push(IndexEntry { key_end, len: loc.len, offset: loc.offset });
        Ok(())
    }

    pub(super) fn from_sorted(index: &Index) -> Result<TableIndex, YokanError> {
        let mut table = TableIndex::default();
        index.iter().try_for_each(|(key, loc)| table.push(key, *loc))?;
        Ok(table)
    }

    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }

    fn at(&self, i: usize) -> Option<(&[u8], ValueLoc)> {
        let entry = self.entries.get(i)?;
        let start = i.checked_sub(1).and_then(|before| self.entries.get(before));
        let key = self.keys.get(start.map_or(0, |e| e.key_end as usize)..entry.key_end as usize)?;
        Some((key, ValueLoc { offset: entry.offset, len: entry.len }))
    }

    /// Position of the first key for which `below` does not hold; `below`
    /// must hold for a prefix of the (sorted) keys.
    fn first_not(&self, below: impl Fn(&[u8]) -> bool) -> usize {
        let (mut low, mut high) = (0, self.len());
        while low < high {
            let mid = low + (high - low) / 2;
            if self.at(mid).is_some_and(|(key, _)| below(key)) {
                low = mid + 1;
            } else {
                high = mid;
            }
        }
        low
    }

    pub(super) fn get(&self, key: &[u8]) -> Option<ValueLoc> {
        let (found, loc) = self.at(self.first_not(|k| k < key))?;
        (found == key).then_some(loc)
    }

    /// The entries from `lower` on, ascending.
    pub(super) fn iter_from(
        &self,
        lower: &Bound<Vec<u8>>,
    ) -> impl Iterator<Item = (&[u8], ValueLoc)> {
        let first = match lower {
            Bound::Unbounded => 0,
            Bound::Included(from) => self.first_not(|k| k < from.as_slice()),
            Bound::Excluded(after) => self.first_not(|k| k <= after.as_slice()),
        };
        (first..self.len()).filter_map(|i| self.at(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_like_the_map_it_was_built_from() {
        let keys: [&[u8]; 6] = [b"", b"a", b"ab", b"abc", b"b", b"zz"];
        let map: Index = (0u64..)
            .zip(keys)
            .map(|(i, key)| (key.to_vec(), ValueLoc { offset: i * 10, len: i as u32 }))
            .collect();
        let table = TableIndex::from_sorted(&map).unwrap();
        assert_eq!(table.len(), map.len());
        let probes: [&[u8]; 10] =
            [b"", b"\0", b"a", b"aa", b"ab", b"abc", b"abd", b"b", b"zz", b"zzz"];
        for probe in probes {
            let found = |loc: Option<ValueLoc>| loc.map(|l| (l.offset, l.len));
            assert_eq!(found(table.get(probe)), found(map.get(probe).copied()), "{probe:?}");
            let bounds = [
                Bound::Unbounded,
                Bound::Included(probe.to_vec()),
                Bound::Excluded(probe.to_vec()),
            ];
            for lower in bounds {
                let got: Vec<&[u8]> = table.iter_from(&lower).map(|(key, _)| key).collect();
                let want: Vec<&[u8]> = map
                    .range::<Vec<u8>, _>((lower.clone(), Bound::Unbounded))
                    .map(|(key, _)| key.as_slice())
                    .collect();
                assert_eq!(got, want, "{lower:?}");
            }
        }
        assert!(TableIndex::default().get(b"any").is_none());
    }
}
