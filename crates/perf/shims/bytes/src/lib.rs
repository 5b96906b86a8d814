//! Offline stand-in for `bytes`: a reference-counted, sliceable [`Bytes`], a
//! growable [`BytesMut`] and the [`BufMut`] writer trait — the subset
//! mochi-rs uses. `Bytes::clone` and `Bytes::slice` never copy the payload.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Storage {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// An immutable view into shared bytes.
#[derive(Clone)]
pub struct Bytes {
    storage: Storage,
    start: usize,
    end: usize,
}

impl Bytes {
    pub const fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes {
            storage: Storage::Static(bytes),
            start: 0,
            end: bytes.len(),
        }
    }

    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view sharing the same allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= end,
            "range start must not be greater than end: {begin} > {end}"
        );
        assert!(end <= len, "range end out of bounds: {end} > {len}");
        Bytes {
            storage: self.storage.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(..at);
        self.start += at;
        head
    }

    /// Splits off and returns the bytes from `at` on; `self` keeps the head.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        let tail = self.slice(at..);
        self.end = self.start + at;
        tail
    }

    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.end = self.start + len;
        }
    }

    pub fn clear(&mut self) {
        self.end = self.start;
    }

    fn as_slice(&self) -> &[u8] {
        let all: &[u8] = match &self.storage {
            Storage::Static(bytes) => bytes,
            Storage::Shared(buf) => buf,
        };
        &all[self.start..self.end]
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(vec: Vec<u8>) -> Bytes {
        let end = vec.len();
        Bytes {
            storage: Storage::Shared(Arc::new(vec)),
            start: 0,
            end,
        }
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(boxed: Box<[u8]>) -> Bytes {
        Bytes::from(boxed.into_vec())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(bytes: &'static [u8]) -> Bytes {
        Bytes::from_static(bytes)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(bytes: Bytes) -> Vec<u8> {
        bytes.as_slice().to_vec()
    }
}

impl From<BytesMut> for Bytes {
    fn from(buf: BytesMut) -> Bytes {
        buf.freeze()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

macro_rules! eq_with {
    ($($other:ty),*) => {$(
        impl PartialEq<$other> for Bytes {
            fn eq(&self, other: &$other) -> bool {
                self.as_slice() == AsRef::<[u8]>::as_ref(other)
            }
        }
        impl PartialEq<Bytes> for $other {
            fn eq(&self, other: &Bytes) -> bool {
                AsRef::<[u8]>::as_ref(self) == other.as_slice()
            }
        }
    )*};
}

eq_with!([u8], Vec<u8>, &[u8], str, &str, String);

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

fn debug_bytes(bytes: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("b\"")?;
    for &b in bytes {
        match b {
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            b'\\' | b'"' => write!(f, "\\{}", b as char)?,
            0x20..=0x7e => write!(f, "{}", b as char)?,
            _ => write!(f, "\\x{b:02x}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_bytes(self.as_slice(), f)
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A growable byte buffer that can be frozen into [`Bytes`].
#[derive(Default, Clone, PartialEq, Eq, Hash)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub const fn new() -> BytesMut {
        BytesMut(Vec::new())
    }

    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut(Vec::with_capacity(capacity))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }

    pub fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional);
    }

    pub fn truncate(&mut self, len: usize) {
        self.0.truncate(len);
    }

    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.0.resize(new_len, value);
    }

    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.0.extend_from_slice(extend);
    }

    /// Takes everything written so far, leaving `self` empty.
    pub fn split(&mut self) -> BytesMut {
        BytesMut(std::mem::take(&mut self.0))
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let tail = self.0.split_off(at);
        BytesMut(std::mem::replace(&mut self.0, tail))
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl AsMut<[u8]> for BytesMut {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl From<&[u8]> for BytesMut {
    fn from(bytes: &[u8]) -> BytesMut {
        BytesMut(bytes.to_vec())
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(vec: Vec<u8>) -> BytesMut {
        BytesMut(vec)
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_bytes(&self.0, f)
    }
}

/// Append-only byte sink.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    fn put_i8(&mut self, n: i8) {
        self.put_slice(&[n as u8]);
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_u8(val);
        }
    }

    fn put_u16(&mut self, n: u16) {
        self.put_slice(&n.to_be_bytes());
    }

    fn put_u16_le(&mut self, n: u16) {
        self.put_slice(&n.to_le_bytes());
    }

    fn put_u32(&mut self, n: u32) {
        self.put_slice(&n.to_be_bytes());
    }

    fn put_u32_le(&mut self, n: u32) {
        self.put_slice(&n.to_le_bytes());
    }

    fn put_u64(&mut self, n: u64) {
        self.put_slice(&n.to_be_bytes());
    }

    fn put_u64_le(&mut self, n: u64) {
        self.put_slice(&n.to_le_bytes());
    }

    fn put_i32(&mut self, n: i32) {
        self.put_slice(&n.to_be_bytes());
    }

    fn put_i32_le(&mut self, n: i32) {
        self.put_slice(&n.to_le_bytes());
    }

    fn put_i64(&mut self, n: i64) {
        self.put_slice(&n.to_be_bytes());
    }

    fn put_i64_le(&mut self, n: i64) {
        self.put_slice(&n.to_le_bytes());
    }

    fn put_f32(&mut self, n: f32) {
        self.put_slice(&n.to_be_bytes());
    }

    fn put_f32_le(&mut self, n: f32) {
        self.put_slice(&n.to_le_bytes());
    }

    fn put_f64(&mut self, n: f64) {
        self.put_slice(&n.to_be_bytes());
    }

    fn put_f64_le(&mut self, n: f64) {
        self.put_slice(&n.to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    fn put_u8(&mut self, n: u8) {
        self.push(n);
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }

    fn put_u8(&mut self, n: u8) {
        self.0.push(n);
    }
}

impl<T: BufMut + ?Sized> BufMut for &mut T {
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src);
    }

    fn put_u8(&mut self, n: u8) {
        (**self).put_u8(n);
    }
}
