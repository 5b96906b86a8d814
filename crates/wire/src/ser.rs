//! Serializer from the serde data model to the mochi wire format.
//!
//! The encoding mirrors JSON's data model so the JSON and wire codecs are
//! interchangeable for every type that crosses an RPC boundary:
//!
//! - structs serialize as maps keyed by field-name strings,
//! - enums are externally tagged (`Str(variant)` for unit variants,
//!   `Map(1) { variant: content }` otherwise),
//! - `Option` collapses to `Null` / the bare value,
//! - `()` and unit structs are `Null`.
//!
//! The one deliberate departure from JSON: a sequence whose elements all
//! serialize as `u8` (e.g. `Vec<u8>`) is emitted as a raw length-prefixed
//! byte run (`Bytes` tag) rather than a per-element list. This is what turns
//! ~3.7 bytes per payload byte of JSON into 1 byte per byte plus a small
//! constant header.

use crate::error::WireError;
use crate::tag;
use crate::varint;
use bytes::BufMut;
use serde::ser::{self, Serialize};

/// Serializer writing wire bytes into any [`BufMut`] (a `Vec<u8>`, or the
/// framing layer's reusable `BytesMut` scratch).
pub struct Serializer<'a, B: BufMut> {
    out: &'a mut B,
}

impl<'a, B: BufMut> Serializer<'a, B> {
    pub fn new(out: &'a mut B) -> Self {
        Serializer { out }
    }

    fn put_str(&mut self, v: &str) {
        self.out.put_u8(tag::STR);
        varint::write_u64(self.out, v.len() as u64);
        self.out.put_slice(v.as_bytes());
    }

    fn put_uint(&mut self, v: u64) {
        self.out.put_u8(tag::UINT);
        varint::write_u64(self.out, v);
    }
}

impl<'a, 'b, B: BufMut> ser::Serializer for &'b mut Serializer<'a, B> {
    type Ok = ();
    type Error = WireError;

    type SerializeSeq = SeqSerializer<'b, 'a, B>;
    type SerializeTuple = TupleSerializer<'b, 'a, B>;
    type SerializeTupleStruct = TupleSerializer<'b, 'a, B>;
    type SerializeTupleVariant = TupleSerializer<'b, 'a, B>;
    type SerializeMap = MapSerializer<'b, 'a, B>;
    type SerializeStruct = StructSerializer<'b, 'a, B>;
    type SerializeStructVariant = StructSerializer<'b, 'a, B>;

    fn serialize_bool(self, v: bool) -> Result<(), WireError> {
        self.out.put_u8(if v { tag::TRUE } else { tag::FALSE });
        Ok(())
    }

    fn serialize_i8(self, v: i8) -> Result<(), WireError> {
        self.serialize_i64(i64::from(v))
    }

    fn serialize_i16(self, v: i16) -> Result<(), WireError> {
        self.serialize_i64(i64::from(v))
    }

    fn serialize_i32(self, v: i32) -> Result<(), WireError> {
        self.serialize_i64(i64::from(v))
    }

    fn serialize_i64(self, v: i64) -> Result<(), WireError> {
        if v >= 0 {
            self.put_uint(v as u64);
        } else {
            // CBOR-style: a negative run stores -1 - v, so -1 is 0.
            self.out.put_u8(tag::NINT);
            varint::write_u64(self.out, (-1i64 - v) as u64);
        }
        Ok(())
    }

    fn serialize_i128(self, v: i128) -> Result<(), WireError> {
        i64::try_from(v)
            .map_err(|_| WireError::IntOutOfRange)
            .and_then(|v| self.serialize_i64(v))
    }

    fn serialize_u8(self, v: u8) -> Result<(), WireError> {
        self.put_uint(u64::from(v));
        Ok(())
    }

    fn serialize_u16(self, v: u16) -> Result<(), WireError> {
        self.put_uint(u64::from(v));
        Ok(())
    }

    fn serialize_u32(self, v: u32) -> Result<(), WireError> {
        self.put_uint(u64::from(v));
        Ok(())
    }

    fn serialize_u64(self, v: u64) -> Result<(), WireError> {
        self.put_uint(v);
        Ok(())
    }

    fn serialize_u128(self, v: u128) -> Result<(), WireError> {
        u64::try_from(v)
            .map_err(|_| WireError::IntOutOfRange)
            .map(|v| self.put_uint(v))
    }

    fn serialize_f32(self, v: f32) -> Result<(), WireError> {
        self.out.put_u8(tag::F32);
        self.out.put_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<(), WireError> {
        self.out.put_u8(tag::F64);
        self.out.put_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<(), WireError> {
        let mut buf = [0u8; 4];
        self.put_str(v.encode_utf8(&mut buf));
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), WireError> {
        self.put_str(v);
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<(), WireError> {
        self.out.put_u8(tag::BYTES);
        varint::write_u64(self.out, v.len() as u64);
        self.out.put_slice(v);
        Ok(())
    }

    fn serialize_none(self) -> Result<(), WireError> {
        self.out.put_u8(tag::NULL);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), WireError> {
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), WireError> {
        self.out.put_u8(tag::NULL);
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), WireError> {
        self.serialize_unit()
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
    ) -> Result<(), WireError> {
        self.put_str(variant);
        Ok(())
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        self.out.put_u8(tag::MAP);
        varint::write_u64(self.out, 1);
        self.put_str(variant);
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, WireError> {
        let mode = match len {
            // Probe for an all-u8 sequence before committing to a layout.
            // The probe buffer is allocated by the first `u8` it holds: a
            // sequence of anything else (keys, lengths) never pays for it.
            Some(n) => SeqMode::Probing { expected: n, bytes: Vec::new() },
            None => SeqMode::Buffering { count: 0, buf: Vec::new() },
        };
        Ok(SeqSerializer { ser: self, mode })
    }

    fn serialize_tuple(self, len: usize) -> Result<Self::SerializeTuple, WireError> {
        self.out.put_u8(tag::SEQ);
        varint::write_u64(self.out, len as u64);
        Ok(TupleSerializer { ser: self })
    }

    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeTupleStruct, WireError> {
        self.serialize_tuple(len)
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeTupleVariant, WireError> {
        self.out.put_u8(tag::MAP);
        varint::write_u64(self.out, 1);
        self.put_str(variant);
        self.serialize_tuple(len)
    }

    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, WireError> {
        match len {
            Some(n) => {
                self.out.put_u8(tag::MAP);
                varint::write_u64(self.out, n as u64);
                Ok(MapSerializer::Streaming { ser: self })
            }
            None => Ok(MapSerializer::Buffering { ser: self, count: 0, buf: Vec::new() }),
        }
    }

    fn serialize_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStruct, WireError> {
        self.out.put_u8(tag::MAP);
        varint::write_u64(self.out, len as u64);
        Ok(StructSerializer { ser: self })
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStructVariant, WireError> {
        self.out.put_u8(tag::MAP);
        varint::write_u64(self.out, 1);
        self.put_str(variant);
        self.out.put_u8(tag::MAP);
        varint::write_u64(self.out, len as u64);
        Ok(StructSerializer { ser: self })
    }

    fn is_human_readable(&self) -> bool {
        // Match serde_json so types that pick a representation based on this
        // flag (none in this workspace today) stay wire/JSON-equivalent.
        true
    }
}

enum SeqMode {
    /// Length known up front; elements probed for `u8` until proven otherwise.
    Probing { expected: usize, bytes: Vec<u8> },
    /// Committed to the general `Seq` layout; elements stream straight out.
    Streaming,
    /// Length unknown; fully-encoded elements accumulate in `buf`.
    Buffering { count: usize, buf: Vec<u8> },
}

/// Sequence serializer implementing the byte-run probe described in the
/// module docs.
pub struct SeqSerializer<'b, 'a, B: BufMut> {
    ser: &'b mut Serializer<'a, B>,
    mode: SeqMode,
}

impl<'b, 'a, B: BufMut> ser::SerializeSeq for SeqSerializer<'b, 'a, B> {
    type Ok = ();
    type Error = WireError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
        match &mut self.mode {
            SeqMode::Probing { expected, bytes } => {
                match value.serialize(ProbeU8) {
                    Ok(byte) => {
                        if bytes.is_empty() {
                            bytes.reserve((*expected).min(4096));
                        }
                        bytes.push(byte);
                        Ok(())
                    }
                    Err(ProbeMiss) => {
                        // First non-u8 element: commit to the Seq layout,
                        // replaying what the probe buffered so far.
                        self.ser.out.put_u8(tag::SEQ);
                        varint::write_u64(self.ser.out, *expected as u64);
                        for &b in bytes.iter() {
                            self.ser.put_uint(u64::from(b));
                        }
                        self.mode = SeqMode::Streaming;
                        value.serialize(&mut *self.ser)
                    }
                }
            }
            SeqMode::Streaming => value.serialize(&mut *self.ser),
            SeqMode::Buffering { count, buf } => {
                value.serialize(&mut Serializer::new(buf))?;
                *count += 1;
                Ok(())
            }
        }
    }

    fn end(self) -> Result<(), WireError> {
        match self.mode {
            SeqMode::Probing { bytes, .. } => {
                if bytes.is_empty() {
                    // An empty sequence carries no element-type evidence;
                    // keep it a Seq so it decodes as a list of anything.
                    self.ser.out.put_u8(tag::SEQ);
                    varint::write_u64(self.ser.out, 0);
                } else {
                    // Every element was a u8 — emit the compact byte run.
                    self.ser.out.put_u8(tag::BYTES);
                    varint::write_u64(self.ser.out, bytes.len() as u64);
                    self.ser.out.put_slice(&bytes);
                }
                Ok(())
            }
            SeqMode::Streaming => Ok(()),
            SeqMode::Buffering { count, buf } => {
                self.ser.out.put_u8(tag::SEQ);
                varint::write_u64(self.ser.out, count as u64);
                self.ser.out.put_slice(&buf);
                Ok(())
            }
        }
    }
}

/// Tuples (and tuple structs/variants) have a statically-known arity, so the
/// `Seq` header is written eagerly and elements stream with no probing.
pub struct TupleSerializer<'b, 'a, B: BufMut> {
    ser: &'b mut Serializer<'a, B>,
}

impl<'b, 'a, B: BufMut> ser::SerializeTuple for TupleSerializer<'b, 'a, B> {
    type Ok = ();
    type Error = WireError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl<'b, 'a, B: BufMut> ser::SerializeTupleStruct for TupleSerializer<'b, 'a, B> {
    type Ok = ();
    type Error = WireError;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl<'b, 'a, B: BufMut> ser::SerializeTupleVariant for TupleSerializer<'b, 'a, B> {
    type Ok = ();
    type Error = WireError;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

/// Map serializer: streams when the entry count is known, buffers otherwise.
pub enum MapSerializer<'b, 'a, B: BufMut> {
    Streaming { ser: &'b mut Serializer<'a, B> },
    Buffering { ser: &'b mut Serializer<'a, B>, count: usize, buf: Vec<u8> },
}

impl<'b, 'a, B: BufMut> ser::SerializeMap for MapSerializer<'b, 'a, B> {
    type Ok = ();
    type Error = WireError;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), WireError> {
        match self {
            MapSerializer::Streaming { ser } => key.serialize(&mut **ser),
            MapSerializer::Buffering { buf, .. } => key.serialize(&mut Serializer::new(buf)),
        }
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
        match self {
            MapSerializer::Streaming { ser } => value.serialize(&mut **ser),
            MapSerializer::Buffering { count, buf, .. } => {
                value.serialize(&mut Serializer::new(buf))?;
                *count += 1;
                Ok(())
            }
        }
    }

    fn end(self) -> Result<(), WireError> {
        match self {
            MapSerializer::Streaming { .. } => Ok(()),
            MapSerializer::Buffering { ser, count, buf } => {
                ser.out.put_u8(tag::MAP);
                varint::write_u64(ser.out, count as u64);
                ser.out.put_slice(&buf);
                Ok(())
            }
        }
    }
}

/// Struct serializer: the field count from `serialize_struct` already
/// excludes `skip_serializing_if` fields, so streaming is always safe.
pub struct StructSerializer<'b, 'a, B: BufMut> {
    ser: &'b mut Serializer<'a, B>,
}

impl<'b, 'a, B: BufMut> ser::SerializeStruct for StructSerializer<'b, 'a, B> {
    type Ok = ();
    type Error = WireError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        self.ser.put_str(key);
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl<'b, 'a, B: BufMut> ser::SerializeStructVariant for StructSerializer<'b, 'a, B> {
    type Ok = ();
    type Error = WireError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        self.ser.put_str(key);
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

/// Marker error for the `u8` probe: the element was *not* a `u8`. Never
/// surfaced to callers — it only redirects the sequence onto the `Seq` path.
#[derive(Debug)]
struct ProbeMiss;

impl std::fmt::Display for ProbeMiss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("sequence element is not a u8")
    }
}

impl std::error::Error for ProbeMiss {}

impl ser::Error for ProbeMiss {
    fn custom<T: std::fmt::Display>(_msg: T) -> Self {
        ProbeMiss
    }
}

/// A serializer that succeeds only for `serialize_u8`, used to sniff whether
/// a sequence is really a byte blob without any trait specialization.
struct ProbeU8;

impl ser::Serializer for ProbeU8 {
    type Ok = u8;
    type Error = ProbeMiss;

    type SerializeSeq = ser::Impossible<u8, ProbeMiss>;
    type SerializeTuple = ser::Impossible<u8, ProbeMiss>;
    type SerializeTupleStruct = ser::Impossible<u8, ProbeMiss>;
    type SerializeTupleVariant = ser::Impossible<u8, ProbeMiss>;
    type SerializeMap = ser::Impossible<u8, ProbeMiss>;
    type SerializeStruct = ser::Impossible<u8, ProbeMiss>;
    type SerializeStructVariant = ser::Impossible<u8, ProbeMiss>;

    fn serialize_u8(self, v: u8) -> Result<u8, ProbeMiss> {
        Ok(v)
    }

    fn serialize_bool(self, _: bool) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_i8(self, _: i8) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_i16(self, _: i16) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_i32(self, _: i32) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_i64(self, _: i64) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_u16(self, _: u16) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_u32(self, _: u32) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_u64(self, _: u64) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_f32(self, _: f32) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_f64(self, _: f64) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_char(self, _: char) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_str(self, _: &str) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_bytes(self, _: &[u8]) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_none(self) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_some<T: Serialize + ?Sized>(self, _: &T) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_unit(self) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_unit_struct(self, _: &'static str) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_unit_variant(self, _: &'static str, _: u32, _: &'static str) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _: &'static str,
        _: &T,
    ) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _: &'static str,
        _: u32,
        _: &'static str,
        _: &T,
    ) -> Result<u8, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_seq(self, _: Option<usize>) -> Result<Self::SerializeSeq, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_tuple(self, _: usize) -> Result<Self::SerializeTuple, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_tuple_struct(
        self,
        _: &'static str,
        _: usize,
    ) -> Result<Self::SerializeTupleStruct, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_tuple_variant(
        self,
        _: &'static str,
        _: u32,
        _: &'static str,
        _: usize,
    ) -> Result<Self::SerializeTupleVariant, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_map(self, _: Option<usize>) -> Result<Self::SerializeMap, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_struct(
        self,
        _: &'static str,
        _: usize,
    ) -> Result<Self::SerializeStruct, ProbeMiss> {
        Err(ProbeMiss)
    }
    fn serialize_struct_variant(
        self,
        _: &'static str,
        _: u32,
        _: &'static str,
        _: usize,
    ) -> Result<Self::SerializeStructVariant, ProbeMiss> {
        Err(ProbeMiss)
    }

    fn is_human_readable(&self) -> bool {
        true
    }
}
