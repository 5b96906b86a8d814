//! Borrowed views of the data-plane headers.
//!
//! The owned header structs of [`crate::provider`] hold a `Vec<u8>` per
//! key, so building or decoding one allocates per key. A view has the same
//! name, fields and `mochi-wire` bytes as its owned twin, but its fields
//! lend: a client encodes one from the caller's `&[u8]` keys
//! ([`Seq`] over any cloneable iterator), a provider decodes one whose
//! keys are slices of the request buffer ([`Key`], [`Keys`]). Each side
//! decodes what the other side's owned struct encodes, byte for byte.
//!
//! The serde impls are written out: the views are generic over what their
//! fields hold, which a derive for lifetime-free structs cannot express.

use std::fmt;
use std::marker::PhantomData;

use serde::de::{self, Deserialize, Deserializer, IgnoredAny, MapAccess, SeqAccess, Visitor};
use serde::ser::{Serialize, SerializeSeq, SerializeStruct, Serializer};

/// Most elements a decoded sequence reserves room for up front, whatever
/// count the input announces.
const RESERVE_CAP: usize = 4096;

/// One key. Encodes as `Vec<u8>` does under `mochi-wire`: a byte run, and
/// the empty key as an empty list (an empty sequence carries no evidence
/// of its element type, so the codec keeps it a sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key<'a>(pub &'a [u8]);

impl Serialize for Key<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        if self.0.is_empty() {
            serializer.serialize_seq(Some(0))?.end()
        } else {
            serializer.serialize_bytes(self.0)
        }
    }
}

impl<'de> Deserialize<'de> for Key<'de> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct KeyVisitor;

        impl<'de> Visitor<'de> for KeyVisitor {
            type Value = Key<'de>;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a key as a byte run")
            }

            fn visit_borrowed_bytes<E: de::Error>(self, bytes: &'de [u8]) -> Result<Key<'de>, E> {
                Ok(Key(bytes))
            }

            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Key<'de>, A::Error> {
                // Only the empty key travels as a list.
                match seq.next_element::<IgnoredAny>()? {
                    None => Ok(Key(&[])),
                    Some(_) => Err(de::Error::invalid_type(de::Unexpected::Seq, &self)),
                }
            }
        }

        deserializer.deserialize_bytes(KeyVisitor)
    }
}

/// Decoded keys, as slices of the buffer they were decoded from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Keys<'a>(pub Vec<&'a [u8]>);

impl<'de> Deserialize<'de> for Keys<'de> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct KeysVisitor;

        impl<'de> Visitor<'de> for KeysVisitor {
            type Value = Keys<'de>;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a sequence of keys")
            }

            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Keys<'de>, A::Error> {
                let mut keys = Vec::with_capacity(seq.size_hint().unwrap_or(0).min(RESERVE_CAP));
                while let Some(Key(key)) = seq.next_element()? {
                    keys.push(key);
                }
                Ok(Keys(keys))
            }
        }

        deserializer.deserialize_seq(KeysVisitor)
    }
}

/// A sequence encoded from an iterator (cloned per encode): what a
/// `Vec` of the same items encodes, without the `Vec`.
#[derive(Debug, Clone)]
pub struct Seq<I>(pub I);

impl<I: Iterator + Clone> Serialize for Seq<I>
where
    I::Item: Serialize,
{
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self.0.clone())
    }
}

/// `Seq` over borrowed keys.
pub fn key_seq<'a>(
    keys: impl Iterator<Item = &'a [u8]> + Clone,
) -> Seq<impl Iterator<Item = Key<'a>> + Clone> {
    Seq(keys.map(Key))
}

/// Writes the serde impls `serde_derive` writes for the owned struct
/// `$name`: a map of the named fields, unknown fields skipped.
macro_rules! header_view {
    ($view:ident<$($param:ident),+>, $name:literal, $($field:ident),+) => {
        impl<$($param: Serialize),+> Serialize for $view<$($param),+> {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                const FIELDS: &[&str] = &[$(stringify!($field)),+];
                let mut fields = serializer.serialize_struct($name, FIELDS.len())?;
                $(fields.serialize_field(stringify!($field), &self.$field)?;)+
                fields.end()
            }
        }

        impl<'de, $($param: Deserialize<'de>),+> Deserialize<'de> for $view<$($param),+> {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct ViewVisitor<$($param),+>(PhantomData<($($param,)+)>);

                impl<'de, $($param: Deserialize<'de>),+> Visitor<'de> for ViewVisitor<$($param),+> {
                    type Value = $view<$($param),+>;

                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str(concat!("struct ", $name))
                    }

                    fn visit_map<A: MapAccess<'de>>(
                        self,
                        mut map: A,
                    ) -> Result<Self::Value, A::Error> {
                        $(let mut $field = None;)+
                        while let Some(name) = map.next_key::<&str>()? {
                            match name {
                                $(stringify!($field) => {
                                    if $field.is_some() {
                                        return Err(de::Error::duplicate_field(stringify!($field)));
                                    }
                                    $field = Some(map.next_value()?);
                                })+
                                _ => {
                                    map.next_value::<IgnoredAny>()?;
                                }
                            }
                        }
                        Ok($view {
                            $($field: $field
                                .ok_or_else(|| de::Error::missing_field(stringify!($field)))?,)+
                        })
                    }
                }

                const FIELDS: &[&str] = &[$(stringify!($field)),+];
                deserializer.deserialize_struct($name, FIELDS, ViewVisitor(PhantomData))
            }
        }
    };
}

/// View of [`crate::provider::KeyHeader`]; `K` is a [`Key`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyHeaderView<K> {
    /// The key.
    pub key: K,
}
header_view!(KeyHeaderView<K>, "KeyHeader", key);

/// View of [`crate::provider::GetMultiHeader`]; `K` is [`Keys`] decoded,
/// a [`key_seq`] to encode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetMultiHeaderView<K> {
    /// Keys to fetch.
    pub keys: K,
}
header_view!(GetMultiHeaderView<K>, "GetMultiHeader", keys);

/// View of [`crate::provider::PutMultiHeader`]; `K` as in
/// [`GetMultiHeaderView`], `L` a `Vec<u32>` decoded, a [`Seq`] of `u32`
/// to encode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutMultiHeaderView<K, L> {
    /// Keys.
    pub keys: K,
    /// Length of each value in the body, in order.
    pub value_lens: L,
}
header_view!(PutMultiHeaderView<K, L>, "PutMultiHeader", keys, value_lens);

/// View of [`crate::provider::ValuesHeader`]; `L` is a `Vec<i64>` decoded,
/// a [`Seq`] of `i64` to encode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValuesHeaderView<L> {
    /// Per-key value length or -1.
    pub lens: L,
}
header_view!(ValuesHeaderView<L>, "ValuesHeader", lens);

/// A `PUT`/`GET` request header as a provider decodes it.
pub type DecodedKeyHeader<'a> = KeyHeaderView<Key<'a>>;
/// A `GET_MULTI` request header as a provider decodes it.
pub type DecodedGetMultiHeader<'a> = GetMultiHeaderView<Keys<'a>>;
/// A `PUT_MULTI`/`PUT_VERSIONED_MULTI` request header as a provider
/// decodes it.
pub type DecodedPutMultiHeader<'a> = PutMultiHeaderView<Keys<'a>, Vec<u32>>;

/// Keys paired with their values, both slices of one request.
pub type Pairs<'a> = Vec<(&'a [u8], &'a [u8])>;

impl<'a> DecodedPutMultiHeader<'a> {
    /// Checks the header against `body` and pairs each key with its slice
    /// of it.
    pub fn pairs(&self, body: &'a [u8]) -> Result<Pairs<'a>, String> {
        if self.keys.0.len() != self.value_lens.len() {
            return Err("keys/value_lens length mismatch".into());
        }
        let total: usize = self.value_lens.iter().map(|len| *len as usize).sum();
        if total != body.len() {
            return Err("body length mismatch".into());
        }
        let mut rest = body;
        let pairs = self.keys.0.iter().zip(&self.value_lens).map(|(key, len)| {
            let (value, tail) = rest.split_at(*len as usize);
            rest = tail;
            (*key, value)
        });
        Ok(pairs.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{GetMultiHeader, KeyHeader, PutMultiHeader, ValuesHeader};
    use mochi_margo::{decode_framed, decode_framed_borrowed, encode_framed};

    /// Keys that exercise the codec's corners: the empty key (a list, not
    /// a byte run), one byte, bytes that look like tags, a long one.
    fn sample_keys() -> Vec<Vec<u8>> {
        vec![Vec::new(), vec![0], vec![8, 9, 10], b"key-000000000042".to_vec(), vec![0xAB; 300]]
    }

    fn refs(keys: &[Vec<u8>]) -> impl Iterator<Item = &[u8]> + Clone {
        keys.iter().map(Vec::as_slice)
    }

    #[test]
    fn key_header_views_and_owned_structs_share_their_bytes() {
        for key in sample_keys() {
            let owned = mochi_wire::to_vec(&KeyHeader { key: key.clone() }).unwrap();
            let viewed = mochi_wire::to_vec(&KeyHeaderView { key: Key(&key) }).unwrap();
            assert_eq!(owned, viewed, "key {key:?}");
            let view: KeyHeaderView<Key<'_>> = mochi_wire::from_slice(&owned).unwrap();
            assert_eq!(view.key.0, &key[..]);
            let back: KeyHeader = mochi_wire::from_slice(&viewed).unwrap();
            assert_eq!(back.key, key);
        }
    }

    #[test]
    fn get_multi_header_views_and_owned_structs_share_their_bytes() {
        for keys in [Vec::new(), sample_keys()] {
            let owned = mochi_wire::to_vec(&GetMultiHeader { keys: keys.clone() }).unwrap();
            let viewed =
                mochi_wire::to_vec(&GetMultiHeaderView { keys: key_seq(refs(&keys)) }).unwrap();
            assert_eq!(owned, viewed);
            let view: GetMultiHeaderView<Keys<'_>> = mochi_wire::from_slice(&owned).unwrap();
            assert!(view.keys.0.iter().copied().eq(refs(&keys)));
            let back: GetMultiHeader = mochi_wire::from_slice(&viewed).unwrap();
            assert_eq!(back.keys, keys);
        }
    }

    #[test]
    fn put_multi_header_views_and_owned_structs_share_their_bytes() {
        for keys in [Vec::new(), sample_keys()] {
            // Lengths on both sides of every varint width a u32 has.
            let value_lens: Vec<u32> =
                [0, 127, 128, 70_000, u32::MAX].into_iter().take(keys.len()).collect();
            let owned = mochi_wire::to_vec(&PutMultiHeader {
                keys: keys.clone(),
                value_lens: value_lens.clone(),
            })
            .unwrap();
            let viewed = mochi_wire::to_vec(&PutMultiHeaderView {
                keys: key_seq(refs(&keys)),
                value_lens: Seq(value_lens.iter().copied()),
            })
            .unwrap();
            assert_eq!(owned, viewed);
            let view: PutMultiHeaderView<Keys<'_>, Vec<u32>> =
                mochi_wire::from_slice(&owned).unwrap();
            assert!(view.keys.0.iter().copied().eq(refs(&keys)));
            assert_eq!(view.value_lens, value_lens);
            let back: PutMultiHeader = mochi_wire::from_slice(&viewed).unwrap();
            assert_eq!((back.keys, back.value_lens), (keys, value_lens));
        }
    }

    #[test]
    fn values_header_views_and_owned_structs_share_their_bytes() {
        for lens in [Vec::new(), vec![-1], vec![0, -1, 63, 64, 1 << 40, -1]] {
            let owned = mochi_wire::to_vec(&ValuesHeader { lens: lens.clone() }).unwrap();
            let viewed =
                mochi_wire::to_vec(&ValuesHeaderView { lens: Seq(lens.iter().copied()) }).unwrap();
            assert_eq!(owned, viewed);
            let view: ValuesHeaderView<Vec<i64>> = mochi_wire::from_slice(&owned).unwrap();
            assert_eq!(view.lens, lens);
            let back: ValuesHeader = mochi_wire::from_slice(&viewed).unwrap();
            assert_eq!(back.lens, lens);
        }
    }

    #[test]
    fn decoded_keys_point_into_the_request_buffer() {
        let keys = sample_keys();
        let frame = encode_framed(&GetMultiHeader { keys: keys.clone() }, b"body").unwrap();
        let (view, body): (GetMultiHeaderView<Keys<'_>>, &[u8]) =
            decode_framed_borrowed(&frame).unwrap();
        assert_eq!(body, b"body");
        let frame_range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
        for (decoded, key) in view.keys.0.iter().zip(&keys) {
            assert_eq!(decoded, key);
            // The empty key has no bytes to point at.
            assert!(key.is_empty() || frame_range.contains(&(decoded.as_ptr() as usize)));
        }
        // The owned decode of a view-encoded frame agrees.
        let frame = encode_framed(&GetMultiHeaderView { keys: key_seq(refs(&keys)) }, b"").unwrap();
        let (owned, _): (GetMultiHeader, _) = decode_framed(&frame).unwrap();
        assert_eq!(owned.keys, keys);
    }

    #[test]
    fn views_refuse_what_the_owned_structs_refuse() {
        // A field of the wrong shape, a missing field, a field twice.
        let wrong = mochi_wire::to_vec(&ValuesHeader { lens: vec![1, 2] }).unwrap();
        assert!(mochi_wire::from_slice::<GetMultiHeader>(&wrong).is_err());
        assert!(mochi_wire::from_slice::<GetMultiHeaderView<Keys<'_>>>(&wrong).is_err());
        let lone = mochi_wire::to_vec(&GetMultiHeader { keys: sample_keys() }).unwrap();
        assert!(mochi_wire::from_slice::<PutMultiHeader>(&lone).is_err());
        assert!(mochi_wire::from_slice::<PutMultiHeaderView<Keys<'_>, Vec<u32>>>(&lone).is_err());
        let strings = mochi_wire::to_vec(&vec!["a", "b"]).unwrap();
        assert!(mochi_wire::from_slice::<Vec<Vec<u8>>>(&strings).is_err());
        assert!(mochi_wire::from_slice::<Keys<'_>>(&strings).is_err());
        // A truncated header.
        let whole = mochi_wire::to_vec(&KeyHeader { key: b"abcdef".to_vec() }).unwrap();
        let cut = &whole[..whole.len() - 2];
        assert!(mochi_wire::from_slice::<KeyHeader>(cut).is_err());
        assert!(mochi_wire::from_slice::<KeyHeaderView<Key<'_>>>(cut).is_err());
    }

    #[test]
    fn pairs_checks_counts_and_body_length() {
        let view = |keys: &[&'static [u8]], value_lens: &[u32]| PutMultiHeaderView {
            keys: Keys(keys.to_vec()),
            value_lens: value_lens.to_vec(),
        };
        let ok = view(&[b"a", b"bb"], &[1, 2]);
        assert_eq!(ok.pairs(b"xyz").unwrap(), vec![(&b"a"[..], &b"x"[..]), (b"bb", b"yz")]);
        assert!(ok.pairs(b"xy").unwrap_err().contains("body length"));
        assert!(ok.pairs(b"xyzw").unwrap_err().contains("body length"));
        assert!(view(&[b"a", b"bb"], &[3]).pairs(b"xyz").unwrap_err().contains("length mismatch"));
        assert!(view(&[], &[]).pairs(b"").unwrap().is_empty());
    }
}
