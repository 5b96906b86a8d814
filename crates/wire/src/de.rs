//! Deserializer from the mochi wire format back into the serde data model.
//!
//! The format is fully self-describing, so `deserialize_any` drives almost
//! everything (this is what lets `serde_json::Value` RPC arguments — Bedrock
//! configs in flight — travel over the wire codec unchanged). The two places
//! that need the caller's hint:
//!
//! - `deserialize_seq` accepts a `Bytes` run and replays it one `u8` at a
//!   time, so `Vec<u8>` decodes from the compact blob layout,
//! - `deserialize_option` maps `Null` to `None` without consuming a visitor
//!   hint.
//!
//! Strings and byte runs are handed to visitors as borrowed slices of the
//! input (`visit_borrowed_str` / `visit_borrowed_bytes`), so zero-copy
//! targets like `&str` or `Bytes`-backed bodies never reallocate.

use crate::error::WireError;
use crate::tag;
use crate::varint;
use serde::de::{self, Deserializer as _, IntoDeserializer, Visitor};

/// Deserializer reading from a borrowed byte slice.
pub struct Deserializer<'de> {
    input: &'de [u8],
}

impl<'de> Deserializer<'de> {
    pub fn new(input: &'de [u8]) -> Self {
        Deserializer { input }
    }

    /// Bytes not yet consumed (used by `from_slice` to reject trailing data).
    pub fn remaining(&self) -> usize {
        self.input.len()
    }

    fn peek_tag(&self) -> Result<u8, WireError> {
        self.input.first().copied().ok_or(WireError::Eof)
    }

    fn read_tag(&mut self) -> Result<u8, WireError> {
        let tag = self.peek_tag()?;
        self.input = &self.input[1..];
        Ok(tag)
    }

    fn read_varint(&mut self) -> Result<u64, WireError> {
        let (value, used) = varint::read_u64(self.input)?;
        self.input = &self.input[used..];
        Ok(value)
    }

    fn read_len(&mut self) -> Result<usize, WireError> {
        let len = self.read_varint()?;
        usize::try_from(len).map_err(|_| WireError::IntOutOfRange)
    }

    fn read_exact(&mut self, n: usize) -> Result<&'de [u8], WireError> {
        if self.input.len() < n {
            return Err(WireError::Eof);
        }
        let (head, rest) = self.input.split_at(n);
        self.input = rest;
        Ok(head)
    }

    fn read_str(&mut self) -> Result<&'de str, WireError> {
        let len = self.read_len()?;
        let raw = self.read_exact(len)?;
        std::str::from_utf8(raw).map_err(|_| WireError::InvalidUtf8)
    }

    fn read_nint(&mut self) -> Result<i64, WireError> {
        let n = self.read_varint()?;
        // Stored as -1 - v, so anything above i64::MAX as u64 would
        // underflow i64::MIN.
        if n > i64::MAX as u64 {
            return Err(WireError::IntOutOfRange);
        }
        Ok(-1i64 - n as i64)
    }

    /// Consume one complete value without materializing it.
    fn skip_value(&mut self) -> Result<(), WireError> {
        match self.read_tag()? {
            tag::NULL | tag::FALSE | tag::TRUE => Ok(()),
            tag::UINT | tag::NINT => self.read_varint().map(|_| ()),
            tag::F32 => self.read_exact(4).map(|_| ()),
            tag::F64 => self.read_exact(8).map(|_| ()),
            tag::STR | tag::BYTES => {
                let len = self.read_len()?;
                self.read_exact(len).map(|_| ())
            }
            tag::SEQ => {
                let count = self.read_len()?;
                for _ in 0..count {
                    self.skip_value()?;
                }
                Ok(())
            }
            tag::MAP => {
                let count = self.read_len()?;
                for _ in 0..count {
                    self.skip_value()?;
                    self.skip_value()?;
                }
                Ok(())
            }
            other => Err(WireError::InvalidTag(other)),
        }
    }
}

impl<'de> de::Deserializer<'de> for &mut Deserializer<'de> {
    type Error = WireError;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.read_tag()? {
            tag::NULL => visitor.visit_unit(),
            tag::FALSE => visitor.visit_bool(false),
            tag::TRUE => visitor.visit_bool(true),
            tag::UINT => visitor.visit_u64(self.read_varint()?),
            tag::NINT => visitor.visit_i64(self.read_nint()?),
            tag::F32 => {
                let raw: [u8; 4] = self.read_exact(4)?.try_into().map_err(|_| WireError::Eof)?;
                visitor.visit_f32(f32::from_le_bytes(raw))
            }
            tag::F64 => {
                let raw: [u8; 8] = self.read_exact(8)?.try_into().map_err(|_| WireError::Eof)?;
                visitor.visit_f64(f64::from_le_bytes(raw))
            }
            tag::STR => visitor.visit_borrowed_str(self.read_str()?),
            tag::BYTES => {
                let len = self.read_len()?;
                visitor.visit_borrowed_bytes(self.read_exact(len)?)
            }
            tag::SEQ => {
                let count = self.read_len()?;
                visitor.visit_seq(SeqAccess { de: self, remaining: count })
            }
            tag::MAP => {
                let count = self.read_len()?;
                visitor.visit_map(MapAccess { de: self, remaining: count })
            }
            other => Err(WireError::InvalidTag(other)),
        }
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        if self.peek_tag()? == tag::NULL {
            self.input = &self.input[1..];
            visitor.visit_none()
        } else {
            visitor.visit_some(self)
        }
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        // `Vec<u8>`'s visitor only understands sequences; replay a compact
        // byte run as one `u8` element at a time.
        if self.peek_tag()? == tag::BYTES {
            self.input = &self.input[1..];
            let len = self.read_len()?;
            let bytes = self.read_exact(len)?;
            return visitor.visit_seq(ByteRunAccess { bytes });
        }
        self.deserialize_any(visitor)
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        _len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_seq(visitor)
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_seq(visitor)
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        match self.peek_tag()? {
            // Unit variant: bare variant-name string.
            tag::STR => visitor.visit_enum(EnumAccess { de: self, unit: true }),
            // Externally tagged: single-entry map { variant: content }.
            tag::MAP => {
                self.input = &self.input[1..];
                let count = self.read_len()?;
                if count != 1 {
                    return Err(de::Error::invalid_length(count, &"map of length 1 for enum"));
                }
                visitor.visit_enum(EnumAccess { de: self, unit: false })
            }
            other => Err(WireError::InvalidTag(other)),
        }
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.skip_value()?;
        visitor.visit_unit()
    }

    serde::forward_to_deserialize_any! {
        bool i8 i16 i32 i64 i128 u8 u16 u32 u64 u128 f32 f64 char str string
        bytes byte_buf unit unit_struct map struct identifier
    }

    fn is_human_readable(&self) -> bool {
        true
    }
}

struct SeqAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
    remaining: usize,
}

impl<'de, 'a> de::SeqAccess<'de> for SeqAccess<'a, 'de> {
    type Error = WireError;

    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, WireError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

struct MapAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
    remaining: usize,
}

impl<'de, 'a> de::MapAccess<'de> for MapAccess<'a, 'de> {
    type Error = WireError;

    fn next_key_seed<K: de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, WireError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<V: de::DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, WireError> {
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

/// Replays a `Bytes` run as a sequence of `u8` elements.
struct ByteRunAccess<'de> {
    bytes: &'de [u8],
}

impl<'de> de::SeqAccess<'de> for ByteRunAccess<'de> {
    type Error = WireError;

    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, WireError> {
        let Some((&byte, rest)) = self.bytes.split_first() else {
            return Ok(None);
        };
        self.bytes = rest;
        seed.deserialize(byte.into_deserializer()).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.bytes.len())
    }
}

struct EnumAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
    /// True when the wire form is a bare variant-name string (unit variant).
    unit: bool,
}

impl<'de, 'a> de::EnumAccess<'de> for EnumAccess<'a, 'de> {
    type Error = WireError;
    type Variant = VariantAccess<'a, 'de>;

    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), WireError> {
        let variant = seed.deserialize(&mut *self.de)?;
        Ok((variant, VariantAccess { de: self.de, unit: self.unit }))
    }
}

struct VariantAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
    unit: bool,
}

impl<'de, 'a> de::VariantAccess<'de> for VariantAccess<'a, 'de> {
    type Error = WireError;

    fn unit_variant(self) -> Result<(), WireError> {
        if self.unit {
            Ok(())
        } else {
            // Tolerate `{ variant: null }` for a unit variant.
            self.de.skip_value()
        }
    }

    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, WireError> {
        if self.unit {
            return Err(de::Error::invalid_type(
                de::Unexpected::UnitVariant,
                &"newtype variant content",
            ));
        }
        seed.deserialize(&mut *self.de)
    }

    fn tuple_variant<V: Visitor<'de>>(self, _len: usize, visitor: V) -> Result<V::Value, WireError> {
        if self.unit {
            return Err(de::Error::invalid_type(
                de::Unexpected::UnitVariant,
                &"tuple variant content",
            ));
        }
        self.de.deserialize_seq(visitor)
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        _fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        if self.unit {
            return Err(de::Error::invalid_type(
                de::Unexpected::UnitVariant,
                &"struct variant content",
            ));
        }
        self.de.deserialize_any(visitor)
    }
}
