use crate::Value;
use serde::de::{MapAccess, Visitor};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::borrow::Borrow;
use std::collections::{btree_map, BTreeMap};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A JSON object: string keys in sorted order.
#[derive(Clone, PartialEq, Default)]
pub struct Map<K = String, V = Value> {
    inner: BTreeMap<K, V>,
}

pub use std::collections::btree_map::Entry;

impl Map<String, Value> {
    pub fn new() -> Self {
        Map {
            inner: BTreeMap::new(),
        }
    }

    pub fn with_capacity(_capacity: usize) -> Self {
        Map::new()
    }

    pub fn clear(&mut self) {
        self.inner.clear();
    }

    pub fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&Value>
    where
        String: Borrow<Q>,
    {
        self.inner.get(key)
    }

    pub fn get_mut<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<&mut Value>
    where
        String: Borrow<Q>,
    {
        self.inner.get_mut(key)
    }

    pub fn contains_key<Q: Ord + ?Sized>(&self, key: &Q) -> bool
    where
        String: Borrow<Q>,
    {
        self.inner.contains_key(key)
    }

    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        self.inner.insert(key, value)
    }

    pub fn remove<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<Value>
    where
        String: Borrow<Q>,
    {
        self.inner.remove(key)
    }

    pub fn entry<S: Into<String>>(&mut self, key: S) -> Entry<'_, String, Value> {
        self.inner.entry(key.into())
    }

    pub fn append(&mut self, other: &mut Self) {
        self.inner.append(&mut other.inner);
    }

    pub fn retain<F: FnMut(&String, &mut Value) -> bool>(&mut self, f: F) {
        self.inner.retain(f);
    }

    pub fn len(&self) -> usize {
        self.inner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    pub fn iter(&self) -> btree_map::Iter<'_, String, Value> {
        self.inner.iter()
    }

    pub fn iter_mut(&mut self) -> btree_map::IterMut<'_, String, Value> {
        self.inner.iter_mut()
    }

    pub fn keys(&self) -> btree_map::Keys<'_, String, Value> {
        self.inner.keys()
    }

    pub fn values(&self) -> btree_map::Values<'_, String, Value> {
        self.inner.values()
    }

    pub fn values_mut(&mut self) -> btree_map::ValuesMut<'_, String, Value> {
        self.inner.values_mut()
    }
}

impl fmt::Debug for Map<String, Value> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<Q: Ord + ?Sized> Index<&Q> for Map<String, Value>
where
    String: Borrow<Q>,
{
    type Output = Value;
    fn index(&self, key: &Q) -> &Value {
        self.inner.index(key)
    }
}

impl<Q: Ord + ?Sized> IndexMut<&Q> for Map<String, Value>
where
    String: Borrow<Q>,
{
    fn index_mut(&mut self, key: &Q) -> &mut Value {
        match self.inner.get_mut(key) {
            Some(value) => value,
            None => panic!("no entry found for key"),
        }
    }
}

impl IntoIterator for Map<String, Value> {
    type Item = (String, Value);
    type IntoIter = btree_map::IntoIter<String, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.into_iter()
    }
}

impl<'a> IntoIterator for &'a Map<String, Value> {
    type Item = (&'a String, &'a Value);
    type IntoIter = btree_map::Iter<'a, String, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

impl<'a> IntoIterator for &'a mut Map<String, Value> {
    type Item = (&'a String, &'a mut Value);
    type IntoIter = btree_map::IterMut<'a, String, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter_mut()
    }
}

impl FromIterator<(String, Value)> for Map<String, Value> {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Map {
            inner: iter.into_iter().collect(),
        }
    }
}

impl Extend<(String, Value)> for Map<String, Value> {
    fn extend<I: IntoIterator<Item = (String, Value)>>(&mut self, iter: I) {
        self.inner.extend(iter);
    }
}

impl Serialize for Map<String, Value> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_map(self)
    }
}

impl<'de> Deserialize<'de> for Map<String, Value> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct MapVisitor;
        impl<'de> Visitor<'de> for MapVisitor {
            type Value = Map<String, Value>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a map")
            }
            fn visit_unit<E: serde::de::Error>(self) -> Result<Self::Value, E> {
                Ok(Map::new())
            }
            fn visit_map<A: MapAccess<'de>>(self, mut access: A) -> Result<Self::Value, A::Error> {
                let mut map = Map::new();
                while let Some((key, value)) = access.next_entry()? {
                    map.insert(key, value);
                }
                Ok(map)
            }
        }
        deserializer.deserialize_map(MapVisitor)
    }
}
