//! JSON text output.

use crate::error::{Error, Result};
use crate::value::key_to_string;
use serde::ser::{self, Serialize};
use std::io;

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(128);
    value.serialize(&mut Writer {
        out: &mut out,
        indent: None,
        depth: 0,
    })?;
    Ok(out)
}

pub fn to_vec_pretty<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(128);
    value.serialize(&mut Writer {
        out: &mut out,
        indent: Some("  "),
        depth: 0,
    })?;
    Ok(out)
}

fn into_string(bytes: Vec<u8>) -> Result<String> {
    String::from_utf8(bytes).map_err(|_| Error::message("serializer produced invalid UTF-8"))
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    to_vec(value).and_then(into_string)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    to_vec_pretty(value).and_then(into_string)
}

pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    writer.write_all(&to_vec(value)?).map_err(Error::from)
}

pub fn to_writer_pretty<W: io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<()> {
    writer
        .write_all(&to_vec_pretty(value)?)
        .map_err(Error::from)
}

struct Writer<'a> {
    out: &'a mut Vec<u8>,
    /// `Some(unit)` selects the pretty form.
    indent: Option<&'static str>,
    depth: usize,
}

impl Writer<'_> {
    fn newline(&mut self) {
        if let Some(unit) = self.indent {
            self.out.push(b'\n');
            for _ in 0..self.depth {
                self.out.extend_from_slice(unit.as_bytes());
            }
        }
    }

    /// Opens `[` or `{`.
    fn open(&mut self, bracket: u8) {
        self.out.push(bracket);
        self.depth += 1;
    }

    /// Closes with `]` or `}`; an empty compound stays on one line.
    fn close(&mut self, bracket: u8, had_items: bool) {
        self.depth -= 1;
        if had_items {
            self.newline();
        }
        self.out.push(bracket);
    }

    /// Separator before an element or entry.
    fn item(&mut self, first: bool) {
        if !first {
            self.out.push(b',');
        }
        self.newline();
    }

    fn colon(&mut self) {
        self.out
            .extend_from_slice(if self.indent.is_some() { b": " } else { b":" });
    }

    fn string(&mut self, s: &str) {
        self.out.push(b'"');
        let bytes = s.as_bytes();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x08 => b"\\b",
                0x0c => b"\\f",
                0x00..=0x1f => b"",
                _ => continue,
            };
            self.out.extend_from_slice(&bytes[start..i]);
            if escape.is_empty() {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                self.out.extend_from_slice(b"\\u00");
                self.out.push(HEX[usize::from(b >> 4)]);
                self.out.push(HEX[usize::from(b & 0xf)]);
            } else {
                self.out.extend_from_slice(escape);
            }
            start = i + 1;
        }
        self.out.extend_from_slice(&bytes[start..]);
        self.out.push(b'"');
    }

    fn display(&mut self, v: impl std::fmt::Display) {
        use io::Write as _;
        // Writing to a Vec cannot fail.
        let _ = write!(self.out, "{v}");
    }
}

macro_rules! write_display {
    ($($method:ident($ty:ty))*) => {$(
        fn $method(self, v: $ty) -> Result<()> {
            self.display(v);
            Ok(())
        }
    )*};
}

pub(crate) struct Compound<'w, 'a> {
    writer: &'w mut Writer<'a>,
    first: bool,
    close: u8,
    /// Set for `{variant: ...}` wrappers, which need a second `}`.
    in_variant: bool,
}

impl<'w, 'a> Compound<'w, 'a> {
    fn element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.writer.item(self.first);
        self.first = false;
        value.serialize(&mut *self.writer)
    }

    fn key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<()> {
        self.writer.item(self.first);
        self.first = false;
        let key = key_to_string(key)?;
        self.writer.string(&key);
        Ok(())
    }

    fn value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.writer.colon();
        value.serialize(&mut *self.writer)
    }

    fn field<T: Serialize + ?Sized>(&mut self, key: &'static str, value: &T) -> Result<()> {
        self.writer.item(self.first);
        self.first = false;
        self.writer.string(key);
        self.value(value)
    }

    fn finish(self) -> Result<()> {
        self.writer.close(self.close, !self.first);
        if self.in_variant {
            self.writer.close(b'}', true);
        }
        Ok(())
    }
}

impl<'w, 'a> ser::Serializer for &'w mut Writer<'a> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'w, 'a>;
    type SerializeTuple = Compound<'w, 'a>;
    type SerializeTupleStruct = Compound<'w, 'a>;
    type SerializeTupleVariant = Compound<'w, 'a>;
    type SerializeMap = Compound<'w, 'a>;
    type SerializeStruct = Compound<'w, 'a>;
    type SerializeStructVariant = Compound<'w, 'a>;

    write_display! {
        serialize_bool(bool) serialize_i8(i8) serialize_i16(i16) serialize_i32(i32)
        serialize_i64(i64) serialize_i128(i128) serialize_u8(u8) serialize_u16(u16)
        serialize_u32(u32) serialize_u64(u64) serialize_u128(u128)
    }

    fn serialize_f32(self, v: f32) -> Result<()> {
        if v.is_finite() {
            self.display(format_args!("{v:?}"));
        } else {
            self.out.extend_from_slice(b"null");
        }
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<()> {
        if v.is_finite() {
            self.display(format_args!("{v:?}"));
        } else {
            self.out.extend_from_slice(b"null");
        }
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<()> {
        self.string(v.encode_utf8(&mut [0u8; 4]));
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<()> {
        self.string(v);
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<()> {
        use ser::SerializeSeq as _;
        let mut seq = self.serialize_seq(Some(v.len()))?;
        for byte in v {
            seq.serialize_element(byte)?;
        }
        seq.end()
    }

    fn serialize_none(self) -> Result<()> {
        self.serialize_unit()
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<()> {
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<()> {
        self.out.extend_from_slice(b"null");
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<()> {
        self.serialize_unit()
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
    ) -> Result<()> {
        self.string(variant);
        Ok(())
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<()> {
        self.open(b'{');
        self.item(true);
        self.string(variant);
        self.colon();
        value.serialize(&mut *self)?;
        self.close(b'}', true);
        Ok(())
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'w, 'a>> {
        self.open(b'[');
        Ok(Compound {
            writer: self,
            first: true,
            close: b']',
            in_variant: false,
        })
    }

    fn serialize_tuple(self, len: usize) -> Result<Compound<'w, 'a>> {
        self.serialize_seq(Some(len))
    }

    fn serialize_tuple_struct(self, _name: &'static str, len: usize) -> Result<Compound<'w, 'a>> {
        self.serialize_seq(Some(len))
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'w, 'a>> {
        self.open(b'{');
        self.item(true);
        self.string(variant);
        self.colon();
        self.open(b'[');
        Ok(Compound {
            writer: self,
            first: true,
            close: b']',
            in_variant: true,
        })
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'w, 'a>> {
        self.open(b'{');
        Ok(Compound {
            writer: self,
            first: true,
            close: b'}',
            in_variant: false,
        })
    }

    fn serialize_struct(self, _name: &'static str, len: usize) -> Result<Compound<'w, 'a>> {
        self.serialize_map(Some(len))
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'w, 'a>> {
        self.open(b'{');
        self.item(true);
        self.string(variant);
        self.colon();
        self.open(b'{');
        Ok(Compound {
            writer: self,
            first: true,
            close: b'}',
            in_variant: true,
        })
    }
}

impl ser::SerializeSeq for Compound<'_, '_> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.element(value)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl ser::SerializeTuple for Compound<'_, '_> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.element(value)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl ser::SerializeTupleStruct for Compound<'_, '_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.element(value)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl ser::SerializeTupleVariant for Compound<'_, '_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.element(value)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl ser::SerializeMap for Compound<'_, '_> {
    type Ok = ();
    type Error = Error;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<()> {
        self.key(key)
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.value(value)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl ser::SerializeStruct for Compound<'_, '_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        self.field(key, value)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl ser::SerializeStructVariant for Compound<'_, '_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        self.field(key, value)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}
