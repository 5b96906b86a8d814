//! JSON text input.

use crate::error::{Error, Result};
use serde::de::{
    self, DeserializeOwned, DeserializeSeed, EnumAccess, MapAccess, SeqAccess, Unexpected,
    VariantAccess, Visitor,
};
use serde::Deserialize;
use std::borrow::Cow;
use std::io;

/// Nesting beyond this is refused rather than risking the stack.
const MAX_DEPTH: usize = 128;

pub fn from_slice<'a, T: Deserialize<'a>>(input: &'a [u8]) -> Result<T> {
    let mut de = Deserializer::new(input);
    let value = T::deserialize(&mut de)?;
    de.end()?;
    Ok(value)
}

pub fn from_str<'a, T: Deserialize<'a>>(input: &'a str) -> Result<T> {
    from_slice(input.as_bytes())
}

pub fn from_reader<R: io::Read, T: DeserializeOwned>(mut reader: R) -> Result<T> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    from_slice(&buf)
}

/// Recursive-descent JSON reader over a byte slice.
pub struct Deserializer<'de> {
    input: &'de [u8],
    pos: usize,
    depth: usize,
}

enum ParsedNumber {
    U64(u64),
    I64(i64),
    F64(f64),
}

impl<'de> Deserializer<'de> {
    pub fn new(input: &'de [u8]) -> Self {
        Deserializer {
            input,
            pos: 0,
            depth: 0,
        }
    }

    /// Errors unless only whitespace remains.
    pub fn end(&mut self) -> Result<()> {
        match self.peek_token() {
            Some(_) => Err(self.error("trailing characters")),
            None => Ok(()),
        }
    }

    fn error(&self, msg: &str) -> Error {
        Error::syntax(msg, self.pos)
    }

    /// Next non-whitespace byte, not consumed.
    fn peek_token(&mut self) -> Option<u8> {
        while let Some(&b) = self.input.get(self.pos) {
            if matches!(b, b' ' | b'\n' | b'\t' | b'\r') {
                self.pos += 1;
            } else {
                return Some(b);
            }
        }
        None
    }

    fn expect_token(&mut self) -> Result<u8> {
        self.peek_token()
            .ok_or_else(|| self.error("EOF while parsing a value"))
    }

    fn eat(&mut self, byte: u8, msg: &str) -> Result<()> {
        if self.peek_token() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(msg))
        }
    }

    fn eat_ident(&mut self, ident: &[u8]) -> Result<()> {
        if self.input[self.pos..].starts_with(ident) {
            self.pos += ident.len();
            Ok(())
        } else {
            Err(self.error("expected ident"))
        }
    }

    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(self.error("recursion limit exceeded"))
        } else {
            Ok(())
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let digits = self
            .input
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("EOF while parsing a string"))?;
        let text = std::str::from_utf8(digits).map_err(|_| self.error("invalid escape"))?;
        let value = u32::from_str_radix(text, 16).map_err(|_| self.error("invalid escape"))?;
        self.pos += 4;
        Ok(value)
    }

    /// Parses a string whose opening quote is the current byte. Borrows from
    /// the input unless the string contains escapes.
    fn parse_string(&mut self) -> Result<Cow<'de, str>> {
        self.pos += 1;
        let start = self.pos;
        loop {
            match self.input.get(self.pos) {
                None => return Err(self.error("EOF while parsing a string")),
                Some(b'"') => {
                    let raw = &self.input[start..self.pos];
                    self.pos += 1;
                    return std::str::from_utf8(raw)
                        .map(Cow::Borrowed)
                        .map_err(|_| self.error("invalid unicode code point"));
                }
                Some(b'\\') => break,
                Some(0x00..=0x1f) => {
                    return Err(self.error(
                        "control character (\\u0000-\\u001F) found while parsing a string",
                    ));
                }
                Some(_) => self.pos += 1,
            }
        }
        let mut buf = self.input[start..self.pos].to_vec();
        loop {
            match self.input.get(self.pos).copied() {
                None => return Err(self.error("EOF while parsing a string")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(buf)
                        .map(Cow::Owned)
                        .map_err(|_| self.error("invalid unicode code point"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .input
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| self.error("EOF while parsing a string"))?;
                    self.pos += 1;
                    match escape {
                        b'"' | b'\\' | b'/' => buf.push(escape),
                        b'b' => buf.push(0x08),
                        b'f' => buf.push(0x0c),
                        b'n' => buf.push(b'\n'),
                        b'r' => buf.push(b'\r'),
                        b't' => buf.push(b'\t'),
                        b'u' => {
                            let mut code = self.parse_hex4()?;
                            if (0xd800..0xdc00).contains(&code) {
                                // High surrogate: a low one must follow.
                                if self.input[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.parse_hex4()?;
                                    if !(0xdc00..0xe000).contains(&low) {
                                        return Err(
                                            self.error("lone leading surrogate in hex escape")
                                        );
                                    }
                                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                } else {
                                    return Err(self.error("unexpected end of hex escape"));
                                }
                            }
                            let ch = char::from_u32(code)
                                .ok_or_else(|| self.error("invalid unicode code point"))?;
                            buf.extend_from_slice(ch.encode_utf8(&mut [0u8; 4]).as_bytes());
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                }
                Some(0x00..=0x1f) => {
                    return Err(self.error(
                        "control character (\\u0000-\\u001F) found while parsing a string",
                    ));
                }
                Some(b) => {
                    buf.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<ParsedNumber> {
        let start = self.pos;
        let negative = self.input.get(self.pos) == Some(&b'-');
        if negative {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.input.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.error("invalid number"));
        }
        if self.input[digits_start] == b'0' && self.pos - digits_start > 1 {
            return Err(self.error("invalid number"));
        }
        let mut is_float = false;
        if self.input.get(self.pos) == Some(&b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.input.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.error("invalid number"));
            }
        }
        if matches!(self.input.get(self.pos), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.input.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.input.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.error("invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if negative {
                if let Ok(v) = text.parse::<i64>() {
                    // "-0" is a float zero in serde_json as well.
                    if v != 0 {
                        return Ok(ParsedNumber::I64(v));
                    }
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(ParsedNumber::U64(v));
            }
        }
        let v: f64 = text.parse().map_err(|_| self.error("invalid number"))?;
        if v.is_finite() {
            Ok(ParsedNumber::F64(v))
        } else {
            Err(self.error("number out of range"))
        }
    }
}

impl<'de> de::Deserializer<'de> for &mut Deserializer<'de> {
    type Error = Error;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let at = self.pos;
        let result = match self.expect_token()? {
            b'n' => {
                self.eat_ident(b"null")?;
                visitor.visit_unit()
            }
            b't' => {
                self.eat_ident(b"true")?;
                visitor.visit_bool(true)
            }
            b'f' => {
                self.eat_ident(b"false")?;
                visitor.visit_bool(false)
            }
            b'"' => match self.parse_string()? {
                Cow::Borrowed(s) => visitor.visit_borrowed_str(s),
                Cow::Owned(s) => visitor.visit_string(s),
            },
            b'-' | b'0'..=b'9' => match self.parse_number()? {
                ParsedNumber::U64(v) => visitor.visit_u64(v),
                ParsedNumber::I64(v) => visitor.visit_i64(v),
                ParsedNumber::F64(v) => visitor.visit_f64(v),
            },
            b'[' => {
                self.pos += 1;
                self.enter()?;
                let value = visitor.visit_seq(Elements {
                    de: &mut *self,
                    first: true,
                })?;
                self.depth -= 1;
                self.eat(b']', "expected `,` or `]`")?;
                Ok(value)
            }
            b'{' => {
                self.pos += 1;
                self.enter()?;
                let value = visitor.visit_map(Entries {
                    de: &mut *self,
                    first: true,
                })?;
                self.depth -= 1;
                self.eat(b'}', "expected `,` or `}`")?;
                Ok(value)
            }
            _ => Err(self.error("expected value")),
        };
        result.map_err(|e| e.at(at))
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        if self.expect_token()? == b'n' {
            self.eat_ident(b"null")?;
            visitor.visit_none()
        } else {
            visitor.visit_some(self)
        }
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        match self.expect_token()? {
            b'"' => visitor.visit_enum(UnitVariant { de: self }),
            b'{' => {
                self.pos += 1;
                self.enter()?;
                let value = visitor.visit_enum(TaggedVariant { de: &mut *self })?;
                self.depth -= 1;
                self.eat(b'}', "expected `}` after enum content")?;
                Ok(value)
            }
            _ => Err(self.error("expected string or object for enum")),
        }
    }

    serde::forward_to_deserialize_any! {
        bool i8 i16 i32 i64 i128 u8 u16 u32 u64 u128 f32 f64 char str string
        bytes byte_buf unit unit_struct seq tuple tuple_struct map struct
        identifier ignored_any
    }
}

struct Elements<'a, 'de> {
    de: &'a mut Deserializer<'de>,
    first: bool,
}

impl<'de> SeqAccess<'de> for Elements<'_, 'de> {
    type Error = Error;

    fn next_element_seed<T: DeserializeSeed<'de>>(&mut self, seed: T) -> Result<Option<T::Value>> {
        match self.de.expect_token()? {
            b']' => return Ok(None),
            b',' if !self.first => {
                self.de.pos += 1;
                if self.de.expect_token()? == b']' {
                    return Err(self.de.error("trailing comma"));
                }
            }
            _ if self.first => {}
            _ => return Err(self.de.error("expected `,` or `]`")),
        }
        self.first = false;
        seed.deserialize(&mut *self.de).map(Some)
    }
}

struct Entries<'a, 'de> {
    de: &'a mut Deserializer<'de>,
    first: bool,
}

impl<'de> MapAccess<'de> for Entries<'_, 'de> {
    type Error = Error;

    fn next_key_seed<K: DeserializeSeed<'de>>(&mut self, seed: K) -> Result<Option<K::Value>> {
        match self.de.expect_token()? {
            b'}' => return Ok(None),
            b',' if !self.first => {
                self.de.pos += 1;
                self.de.expect_token()?;
            }
            _ if self.first => {}
            _ => return Err(self.de.error("expected `,` or `}`")),
        }
        self.first = false;
        if self.de.expect_token()? != b'"' {
            return Err(self.de.error("key must be a string"));
        }
        let key = self.de.parse_string()?;
        seed.deserialize(MapKey::new(key)).map(Some)
    }

    fn next_value_seed<V: DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value> {
        self.de.eat(b':', "expected `:`")?;
        seed.deserialize(&mut *self.de)
    }
}

/// An object key. Strings by nature; integer and bool targets parse the
/// text, so `HashMap<u32, _>` round-trips as serde_json does it.
pub(crate) struct MapKey<'de> {
    key: Cow<'de, str>,
}

impl<'de> MapKey<'de> {
    pub(crate) fn new(key: Cow<'de, str>) -> Self {
        MapKey { key }
    }
}

macro_rules! key_parse {
    ($($method:ident => $visit:ident,)*) => {$(
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
            match self.key.parse() {
                Ok(v) => visitor.$visit(v),
                Err(_) => Err(de::Error::invalid_type(Unexpected::Str(&self.key), &visitor)),
            }
        }
    )*};
}

impl<'de> de::Deserializer<'de> for MapKey<'de> {
    type Error = Error;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        match self.key {
            Cow::Borrowed(s) => visitor.visit_borrowed_str(s),
            Cow::Owned(s) => visitor.visit_string(s),
        }
    }

    key_parse! {
        deserialize_bool => visit_bool,
        deserialize_i8 => visit_i8,
        deserialize_i16 => visit_i16,
        deserialize_i32 => visit_i32,
        deserialize_i64 => visit_i64,
        deserialize_i128 => visit_i128,
        deserialize_u8 => visit_u8,
        deserialize_u16 => visit_u16,
        deserialize_u32 => visit_u32,
        deserialize_u64 => visit_u64,
        deserialize_u128 => visit_u128,
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        visitor.visit_some(self)
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_enum(de::value::StringDeserializer::new(self.key.into_owned()))
    }

    serde::forward_to_deserialize_any! {
        f32 f64 char str string bytes byte_buf unit unit_struct seq tuple
        tuple_struct map struct identifier ignored_any
    }
}

/// `"Variant"`.
struct UnitVariant<'a, 'de> {
    de: &'a mut Deserializer<'de>,
}

impl<'de> EnumAccess<'de> for UnitVariant<'_, 'de> {
    type Error = Error;
    type Variant = de::value::UnitOnly<Error>;

    fn variant_seed<V: DeserializeSeed<'de>>(self, seed: V) -> Result<(V::Value, Self::Variant)> {
        let name = self.de.parse_string()?;
        let (value, unit) = match name {
            Cow::Borrowed(s) => de::value::BorrowedStrDeserializer::new(s).variant_seed(seed)?,
            Cow::Owned(s) => de::value::StringDeserializer::new(s).variant_seed(seed)?,
        };
        Ok((value, unit))
    }
}

/// `{"Variant": content}`, positioned after the `{`.
struct TaggedVariant<'a, 'de> {
    de: &'a mut Deserializer<'de>,
}

impl<'de> EnumAccess<'de> for TaggedVariant<'_, 'de> {
    type Error = Error;
    type Variant = Self;

    fn variant_seed<V: DeserializeSeed<'de>>(self, seed: V) -> Result<(V::Value, Self)> {
        if self.de.expect_token()? != b'"' {
            return Err(self.de.error("expected variant name"));
        }
        let name = self.de.parse_string()?;
        let value = seed.deserialize(MapKey::new(name))?;
        self.de.eat(b':', "expected `:`")?;
        Ok((value, self))
    }
}

impl<'de> VariantAccess<'de> for TaggedVariant<'_, 'de> {
    type Error = Error;

    fn unit_variant(self) -> Result<()> {
        <()>::deserialize(self.de)
    }

    fn newtype_variant_seed<T: DeserializeSeed<'de>>(self, seed: T) -> Result<T::Value> {
        seed.deserialize(self.de)
    }

    fn tuple_variant<V: Visitor<'de>>(self, _len: usize, visitor: V) -> Result<V::Value> {
        de::Deserializer::deserialize_seq(self.de, visitor)
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        _fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        de::Deserializer::deserialize_any(self.de, visitor)
    }
}
