//! Deserialization half of the data model (mirrors `serde::de`).

use std::fmt::{self, Display};
use std::marker::PhantomData;

/// Error raised by a [`Deserializer`].
pub trait Error: Sized + std::error::Error {
    fn custom<T: Display>(msg: T) -> Self;

    fn invalid_type(unexp: Unexpected<'_>, exp: &dyn Expected) -> Self {
        Error::custom(format_args!("invalid type: {unexp}, expected {exp}"))
    }

    fn invalid_value(unexp: Unexpected<'_>, exp: &dyn Expected) -> Self {
        Error::custom(format_args!("invalid value: {unexp}, expected {exp}"))
    }

    fn invalid_length(len: usize, exp: &dyn Expected) -> Self {
        Error::custom(format_args!("invalid length {len}, expected {exp}"))
    }

    fn unknown_variant(variant: &str, expected: &'static [&'static str]) -> Self {
        if expected.is_empty() {
            Error::custom(format_args!(
                "unknown variant `{variant}`, there are no variants"
            ))
        } else {
            Error::custom(format_args!(
                "unknown variant `{variant}`, expected {}",
                OneOf { names: expected }
            ))
        }
    }

    fn unknown_field(field: &str, expected: &'static [&'static str]) -> Self {
        if expected.is_empty() {
            Error::custom(format_args!("unknown field `{field}`, there are no fields"))
        } else {
            Error::custom(format_args!(
                "unknown field `{field}`, expected {}",
                OneOf { names: expected }
            ))
        }
    }

    fn missing_field(field: &'static str) -> Self {
        Error::custom(format_args!("missing field `{field}`"))
    }

    fn duplicate_field(field: &'static str) -> Self {
        Error::custom(format_args!("duplicate field `{field}`"))
    }
}

struct OneOf {
    names: &'static [&'static str],
}

impl Display for OneOf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.names {
            [] => Ok(()),
            [one] => write!(f, "`{one}`"),
            [a, b] => write!(f, "`{a}` or `{b}`"),
            many => {
                f.write_str("one of ")?;
                for (i, name) in many.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "`{name}`")?;
                }
                Ok(())
            }
        }
    }
}

/// What a deserializer found when a visitor expected something else.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Unexpected<'a> {
    Bool(bool),
    Unsigned(u64),
    Signed(i64),
    Float(f64),
    Char(char),
    Str(&'a str),
    Bytes(&'a [u8]),
    Unit,
    Option,
    NewtypeStruct,
    Seq,
    Map,
    Enum,
    UnitVariant,
    NewtypeVariant,
    TupleVariant,
    StructVariant,
    Other(&'a str),
}

impl Display for Unexpected<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Unexpected::*;
        match *self {
            Bool(b) => write!(f, "boolean `{b}`"),
            Unsigned(i) => write!(f, "integer `{i}`"),
            Signed(i) => write!(f, "integer `{i}`"),
            Float(v) => write!(f, "floating point `{v}`"),
            Char(c) => write!(f, "character `{c}`"),
            Str(s) => write!(f, "string {s:?}"),
            Bytes(_) => f.write_str("byte array"),
            Unit => f.write_str("unit value"),
            Option => f.write_str("Option value"),
            NewtypeStruct => f.write_str("newtype struct"),
            Seq => f.write_str("sequence"),
            Map => f.write_str("map"),
            Enum => f.write_str("enum"),
            UnitVariant => f.write_str("unit variant"),
            NewtypeVariant => f.write_str("newtype variant"),
            TupleVariant => f.write_str("tuple variant"),
            StructVariant => f.write_str("struct variant"),
            Other(other) => f.write_str(other),
        }
    }
}

/// What a visitor expected; every [`Visitor`] and every `&str` is one.
pub trait Expected {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result;
}

impl<'de, T: Visitor<'de>> Expected for T {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.expecting(formatter)
    }
}

impl Expected for &str {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        formatter.write_str(self)
    }
}

impl Display for dyn Expected + '_ {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        Expected::fmt(self, formatter)
    }
}

/// A data structure that can be deserialized from any format.
pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A data structure that can be deserialized without borrowing from the
/// input.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}

/// Stateful form of [`Deserialize`].
pub trait DeserializeSeed<'de>: Sized {
    type Value;
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error>;
}

impl<'de, T: Deserialize<'de>> DeserializeSeed<'de> for PhantomData<T> {
    type Value = T;
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<T, D::Error> {
        T::deserialize(deserializer)
    }
}

/// A data format that can deserialize the serde data model.
pub trait Deserializer<'de>: Sized {
    type Error: Error;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i128<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        let _ = visitor;
        Err(Error::custom("i128 is not supported"))
    }
    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u128<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        let _ = visitor;
        Err(Error::custom("u128 is not supported"))
    }
    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        name: &'static str,
        variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_identifier<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_ignored_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;

    fn is_human_readable(&self) -> bool {
        true
    }
}

macro_rules! visit_default {
    ($($method:ident($ty:ty) => $unexp:expr;)*) => {$(
        fn $method<E: Error>(self, v: $ty) -> Result<Self::Value, E> {
            #[allow(clippy::redundant_closure_call)]
            Err(Error::invalid_type(($unexp)(v), &self))
        }
    )*};
}

/// Walks the value a [`Deserializer`] found.
pub trait Visitor<'de>: Sized {
    type Value;

    fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result;

    visit_default! {
        visit_bool(bool) => Unexpected::Bool;
        visit_i64(i64) => Unexpected::Signed;
        visit_u64(u64) => Unexpected::Unsigned;
        visit_f64(f64) => Unexpected::Float;
    }

    fn visit_i8<E: Error>(self, v: i8) -> Result<Self::Value, E> {
        self.visit_i64(i64::from(v))
    }
    fn visit_i16<E: Error>(self, v: i16) -> Result<Self::Value, E> {
        self.visit_i64(i64::from(v))
    }
    fn visit_i32<E: Error>(self, v: i32) -> Result<Self::Value, E> {
        self.visit_i64(i64::from(v))
    }
    fn visit_i128<E: Error>(self, v: i128) -> Result<Self::Value, E> {
        Err(Error::invalid_type(
            Unexpected::Other(&format!("integer `{v}` as i128")),
            &self,
        ))
    }
    fn visit_u8<E: Error>(self, v: u8) -> Result<Self::Value, E> {
        self.visit_u64(u64::from(v))
    }
    fn visit_u16<E: Error>(self, v: u16) -> Result<Self::Value, E> {
        self.visit_u64(u64::from(v))
    }
    fn visit_u32<E: Error>(self, v: u32) -> Result<Self::Value, E> {
        self.visit_u64(u64::from(v))
    }
    fn visit_u128<E: Error>(self, v: u128) -> Result<Self::Value, E> {
        Err(Error::invalid_type(
            Unexpected::Other(&format!("integer `{v}` as u128")),
            &self,
        ))
    }
    fn visit_f32<E: Error>(self, v: f32) -> Result<Self::Value, E> {
        self.visit_f64(f64::from(v))
    }
    fn visit_char<E: Error>(self, v: char) -> Result<Self::Value, E> {
        self.visit_str(v.encode_utf8(&mut [0u8; 4]))
    }
    fn visit_str<E: Error>(self, v: &str) -> Result<Self::Value, E> {
        Err(Error::invalid_type(Unexpected::Str(v), &self))
    }
    fn visit_borrowed_str<E: Error>(self, v: &'de str) -> Result<Self::Value, E> {
        self.visit_str(v)
    }
    fn visit_string<E: Error>(self, v: String) -> Result<Self::Value, E> {
        self.visit_str(&v)
    }
    fn visit_bytes<E: Error>(self, v: &[u8]) -> Result<Self::Value, E> {
        Err(Error::invalid_type(Unexpected::Bytes(v), &self))
    }
    fn visit_borrowed_bytes<E: Error>(self, v: &'de [u8]) -> Result<Self::Value, E> {
        self.visit_bytes(v)
    }
    fn visit_byte_buf<E: Error>(self, v: Vec<u8>) -> Result<Self::Value, E> {
        self.visit_bytes(&v)
    }
    fn visit_none<E: Error>(self) -> Result<Self::Value, E> {
        Err(Error::invalid_type(Unexpected::Option, &self))
    }
    fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(Error::invalid_type(Unexpected::Option, &self))
    }
    fn visit_unit<E: Error>(self) -> Result<Self::Value, E> {
        Err(Error::invalid_type(Unexpected::Unit, &self))
    }
    fn visit_newtype_struct<D: Deserializer<'de>>(
        self,
        deserializer: D,
    ) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(Error::invalid_type(Unexpected::NewtypeStruct, &self))
    }
    fn visit_seq<A: SeqAccess<'de>>(self, seq: A) -> Result<Self::Value, A::Error> {
        let _ = seq;
        Err(Error::invalid_type(Unexpected::Seq, &self))
    }
    fn visit_map<A: MapAccess<'de>>(self, map: A) -> Result<Self::Value, A::Error> {
        let _ = map;
        Err(Error::invalid_type(Unexpected::Map, &self))
    }
    fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<Self::Value, A::Error> {
        let _ = data;
        Err(Error::invalid_type(Unexpected::Enum, &self))
    }
}

/// Access to the elements of a sequence.
pub trait SeqAccess<'de> {
    type Error: Error;

    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, Self::Error>;

    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error> {
        self.next_element_seed(PhantomData)
    }

    fn size_hint(&self) -> Option<usize> {
        None
    }
}

impl<'de, A: SeqAccess<'de> + ?Sized> SeqAccess<'de> for &mut A {
    type Error = A::Error;

    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, Self::Error> {
        (**self).next_element_seed(seed)
    }

    fn size_hint(&self) -> Option<usize> {
        (**self).size_hint()
    }
}

/// Access to the entries of a map.
pub trait MapAccess<'de> {
    type Error: Error;

    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, Self::Error>;

    fn next_value_seed<V: DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, Self::Error>;

    fn next_entry_seed<K: DeserializeSeed<'de>, V: DeserializeSeed<'de>>(
        &mut self,
        kseed: K,
        vseed: V,
    ) -> Result<Option<(K::Value, V::Value)>, Self::Error> {
        match self.next_key_seed(kseed)? {
            Some(key) => Ok(Some((key, self.next_value_seed(vseed)?))),
            None => Ok(None),
        }
    }

    fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>, Self::Error> {
        self.next_key_seed(PhantomData)
    }

    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, Self::Error> {
        self.next_value_seed(PhantomData)
    }

    fn next_entry<K: Deserialize<'de>, V: Deserialize<'de>>(
        &mut self,
    ) -> Result<Option<(K, V)>, Self::Error> {
        self.next_entry_seed(PhantomData, PhantomData)
    }

    fn size_hint(&self) -> Option<usize> {
        None
    }
}

impl<'de, A: MapAccess<'de> + ?Sized> MapAccess<'de> for &mut A {
    type Error = A::Error;

    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, Self::Error> {
        (**self).next_key_seed(seed)
    }

    fn next_value_seed<V: DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, Self::Error> {
        (**self).next_value_seed(seed)
    }

    fn size_hint(&self) -> Option<usize> {
        (**self).size_hint()
    }
}

/// Access to the variant tag of an enum.
pub trait EnumAccess<'de>: Sized {
    type Error: Error;
    type Variant: VariantAccess<'de, Error = Self::Error>;

    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), Self::Error>;

    fn variant<V: Deserialize<'de>>(self) -> Result<(V, Self::Variant), Self::Error> {
        self.variant_seed(PhantomData)
    }
}

/// Access to the content of an enum variant.
pub trait VariantAccess<'de>: Sized {
    type Error: Error;

    fn unit_variant(self) -> Result<(), Self::Error>;

    fn newtype_variant_seed<T: DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, Self::Error>;

    fn newtype_variant<T: Deserialize<'de>>(self) -> Result<T, Self::Error> {
        self.newtype_variant_seed(PhantomData)
    }

    fn tuple_variant<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
}

/// Conversion of a plain value into a deserializer that yields it.
pub trait IntoDeserializer<'de, E: Error = value::Error> {
    type Deserializer: Deserializer<'de, Error = E>;
    fn into_deserializer(self) -> Self::Deserializer;
}

/// Consumes and discards any value.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IgnoredAny;

impl<'de> Visitor<'de> for IgnoredAny {
    type Value = IgnoredAny;

    fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        formatter.write_str("anything at all")
    }

    fn visit_bool<E: Error>(self, _: bool) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_i64<E: Error>(self, _: i64) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_i128<E: Error>(self, _: i128) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_u64<E: Error>(self, _: u64) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_u128<E: Error>(self, _: u128) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_f64<E: Error>(self, _: f64) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_str<E: Error>(self, _: &str) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_bytes<E: Error>(self, _: &[u8]) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_none<E: Error>(self) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<IgnoredAny, D::Error> {
        IgnoredAny::deserialize(deserializer)
    }
    fn visit_unit<E: Error>(self) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_newtype_struct<D: Deserializer<'de>>(
        self,
        deserializer: D,
    ) -> Result<IgnoredAny, D::Error> {
        IgnoredAny::deserialize(deserializer)
    }
    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<IgnoredAny, A::Error> {
        while seq.next_element::<IgnoredAny>()?.is_some() {}
        Ok(IgnoredAny)
    }
    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<IgnoredAny, A::Error> {
        while map.next_entry::<IgnoredAny, IgnoredAny>()?.is_some() {}
        Ok(IgnoredAny)
    }
    fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<IgnoredAny, A::Error> {
        data.variant::<IgnoredAny>()?.1.newtype_variant()
    }
}

impl<'de> Deserialize<'de> for IgnoredAny {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<IgnoredAny, D::Error> {
        deserializer.deserialize_ignored_any(IgnoredAny)
    }
}

/// Deserializers over plain Rust values (mirrors `serde::de::value`).
pub mod value {
    use super::{
        DeserializeSeed, Deserializer, Error as DeError, IntoDeserializer, SeqAccess, Unexpected,
        Visitor,
    };
    use std::fmt::{self, Display};
    use std::marker::PhantomData;

    /// Minimal error type for when no format-specific error is at hand.
    #[derive(Clone, PartialEq, Debug)]
    pub struct Error {
        msg: Box<str>,
    }

    impl DeError for Error {
        fn custom<T: Display>(msg: T) -> Self {
            Error {
                msg: msg.to_string().into_boxed_str(),
            }
        }
    }

    impl crate::ser::Error for Error {
        fn custom<T: Display>(msg: T) -> Self {
            DeError::custom(msg)
        }
    }

    impl Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.msg)
        }
    }

    impl std::error::Error for Error {}

    /// Yields `()`.
    pub struct UnitDeserializer<E> {
        marker: PhantomData<E>,
    }

    impl<E> UnitDeserializer<E> {
        pub fn new() -> Self {
            UnitDeserializer {
                marker: PhantomData,
            }
        }
    }

    impl<E> Default for UnitDeserializer<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<'de, E: DeError> Deserializer<'de> for UnitDeserializer<E> {
        type Error = E;

        fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
            visitor.visit_unit()
        }

        fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
            visitor.visit_none()
        }

        crate::forward_to_deserialize_any! {
            bool i8 i16 i32 i64 i128 u8 u16 u32 u64 u128 f32 f64 char str string
            bytes byte_buf unit unit_struct newtype_struct seq tuple
            tuple_struct map struct enum identifier ignored_any
        }
    }

    impl<'de, E: DeError> IntoDeserializer<'de, E> for () {
        type Deserializer = UnitDeserializer<E>;
        fn into_deserializer(self) -> UnitDeserializer<E> {
            UnitDeserializer::new()
        }
    }

    macro_rules! primitive_deserializer {
        ($ty:ty, $name:ident, $visit:ident) => {
            /// Yields one primitive value.
            pub struct $name<E> {
                value: $ty,
                marker: PhantomData<E>,
            }

            impl<E> $name<E> {
                pub fn new(value: $ty) -> Self {
                    $name {
                        value,
                        marker: PhantomData,
                    }
                }
            }

            impl<'de, E: DeError> IntoDeserializer<'de, E> for $ty {
                type Deserializer = $name<E>;
                fn into_deserializer(self) -> $name<E> {
                    $name::new(self)
                }
            }

            impl<'de, E: DeError> Deserializer<'de> for $name<E> {
                type Error = E;

                fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
                    visitor.$visit(self.value)
                }

                crate::forward_to_deserialize_any! {
                    bool i8 i16 i32 i64 i128 u8 u16 u32 u64 u128 f32 f64 char str
                    string bytes byte_buf option unit unit_struct newtype_struct
                    seq tuple tuple_struct map struct enum identifier ignored_any
                }
            }
        };
    }

    primitive_deserializer!(bool, BoolDeserializer, visit_bool);
    primitive_deserializer!(i8, I8Deserializer, visit_i8);
    primitive_deserializer!(i16, I16Deserializer, visit_i16);
    primitive_deserializer!(i32, I32Deserializer, visit_i32);
    primitive_deserializer!(i64, I64Deserializer, visit_i64);
    primitive_deserializer!(i128, I128Deserializer, visit_i128);
    primitive_deserializer!(u8, U8Deserializer, visit_u8);
    primitive_deserializer!(u16, U16Deserializer, visit_u16);
    primitive_deserializer!(u32, U32Deserializer, visit_u32);
    primitive_deserializer!(u64, U64Deserializer, visit_u64);
    primitive_deserializer!(u128, U128Deserializer, visit_u128);
    primitive_deserializer!(f32, F32Deserializer, visit_f32);
    primitive_deserializer!(f64, F64Deserializer, visit_f64);
    primitive_deserializer!(char, CharDeserializer, visit_char);

    /// Yields a `usize` as a `u64`.
    pub struct UsizeDeserializer<E> {
        value: usize,
        marker: PhantomData<E>,
    }

    impl<'de, E: DeError> IntoDeserializer<'de, E> for usize {
        type Deserializer = UsizeDeserializer<E>;
        fn into_deserializer(self) -> UsizeDeserializer<E> {
            UsizeDeserializer {
                value: self,
                marker: PhantomData,
            }
        }
    }

    impl<'de, E: DeError> Deserializer<'de> for UsizeDeserializer<E> {
        type Error = E;

        fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
            visitor.visit_u64(self.value as u64)
        }

        crate::forward_to_deserialize_any! {
            bool i8 i16 i32 i64 i128 u8 u16 u32 u64 u128 f32 f64 char str
            string bytes byte_buf option unit unit_struct newtype_struct
            seq tuple tuple_struct map struct enum identifier ignored_any
        }
    }

    /// Unit-variant access for deserializers whose whole input is the
    /// variant name.
    pub struct UnitOnly<E> {
        marker: PhantomData<E>,
    }

    impl<'de, E: DeError> super::VariantAccess<'de> for UnitOnly<E> {
        type Error = E;

        fn unit_variant(self) -> Result<(), E> {
            Ok(())
        }

        fn newtype_variant_seed<T: DeserializeSeed<'de>>(self, _seed: T) -> Result<T::Value, E> {
            Err(DeError::invalid_type(
                Unexpected::UnitVariant,
                &"newtype variant",
            ))
        }

        fn tuple_variant<V: Visitor<'de>>(self, _len: usize, _visitor: V) -> Result<V::Value, E> {
            Err(DeError::invalid_type(
                Unexpected::UnitVariant,
                &"tuple variant",
            ))
        }

        fn struct_variant<V: Visitor<'de>>(
            self,
            _fields: &'static [&'static str],
            _visitor: V,
        ) -> Result<V::Value, E> {
            Err(DeError::invalid_type(
                Unexpected::UnitVariant,
                &"struct variant",
            ))
        }
    }

    /// Yields an owned `String`.
    pub struct StringDeserializer<E> {
        value: String,
        marker: PhantomData<E>,
    }

    impl<E> StringDeserializer<E> {
        pub fn new(value: String) -> Self {
            StringDeserializer {
                value,
                marker: PhantomData,
            }
        }
    }

    impl<'de, E: DeError> Deserializer<'de> for StringDeserializer<E> {
        type Error = E;

        fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
            visitor.visit_string(self.value)
        }

        fn deserialize_enum<V: Visitor<'de>>(
            self,
            _name: &'static str,
            _variants: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, E> {
            visitor.visit_enum(self)
        }

        crate::forward_to_deserialize_any! {
            bool i8 i16 i32 i64 i128 u8 u16 u32 u64 u128 f32 f64 char str
            string bytes byte_buf option unit unit_struct newtype_struct
            seq tuple tuple_struct map struct identifier ignored_any
        }
    }

    impl<'de, E: DeError> super::EnumAccess<'de> for StringDeserializer<E> {
        type Error = E;
        type Variant = UnitOnly<E>;

        fn variant_seed<T: DeserializeSeed<'de>>(
            self,
            seed: T,
        ) -> Result<(T::Value, UnitOnly<E>), E> {
            seed.deserialize(self).map(|v| {
                (
                    v,
                    UnitOnly {
                        marker: PhantomData,
                    },
                )
            })
        }
    }

    impl<'de, E: DeError> IntoDeserializer<'de, E> for String {
        type Deserializer = StringDeserializer<E>;
        fn into_deserializer(self) -> StringDeserializer<E> {
            StringDeserializer::new(self)
        }
    }

    /// Yields a transient `&str`.
    pub struct StrDeserializer<'a, E> {
        value: &'a str,
        marker: PhantomData<E>,
    }

    impl<'a, E> StrDeserializer<'a, E> {
        pub fn new(value: &'a str) -> Self {
            StrDeserializer {
                value,
                marker: PhantomData,
            }
        }
    }

    impl<'de, 'a, E: DeError> IntoDeserializer<'de, E> for &'a str {
        type Deserializer = StrDeserializer<'a, E>;
        fn into_deserializer(self) -> StrDeserializer<'a, E> {
            StrDeserializer::new(self)
        }
    }

    impl<'de, 'a, E: DeError> Deserializer<'de> for StrDeserializer<'a, E> {
        type Error = E;

        fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
            visitor.visit_str(self.value)
        }

        fn deserialize_enum<V: Visitor<'de>>(
            self,
            _name: &'static str,
            _variants: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, E> {
            visitor.visit_enum(self)
        }

        crate::forward_to_deserialize_any! {
            bool i8 i16 i32 i64 i128 u8 u16 u32 u64 u128 f32 f64 char str
            string bytes byte_buf option unit unit_struct newtype_struct
            seq tuple tuple_struct map struct identifier ignored_any
        }
    }

    impl<'de, 'a, E: DeError> super::EnumAccess<'de> for StrDeserializer<'a, E> {
        type Error = E;
        type Variant = UnitOnly<E>;

        fn variant_seed<T: DeserializeSeed<'de>>(
            self,
            seed: T,
        ) -> Result<(T::Value, UnitOnly<E>), E> {
            seed.deserialize(self).map(|v| {
                (
                    v,
                    UnitOnly {
                        marker: PhantomData,
                    },
                )
            })
        }
    }

    /// Yields a `&'de str` that visitors may keep.
    pub struct BorrowedStrDeserializer<'de, E> {
        value: &'de str,
        marker: PhantomData<E>,
    }

    impl<'de, E> BorrowedStrDeserializer<'de, E> {
        pub fn new(value: &'de str) -> Self {
            BorrowedStrDeserializer {
                value,
                marker: PhantomData,
            }
        }
    }

    impl<'de, E: DeError> Deserializer<'de> for BorrowedStrDeserializer<'de, E> {
        type Error = E;

        fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
            visitor.visit_borrowed_str(self.value)
        }

        fn deserialize_enum<V: Visitor<'de>>(
            self,
            _name: &'static str,
            _variants: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, E> {
            visitor.visit_enum(self)
        }

        crate::forward_to_deserialize_any! {
            bool i8 i16 i32 i64 i128 u8 u16 u32 u64 u128 f32 f64 char str
            string bytes byte_buf option unit unit_struct newtype_struct
            seq tuple tuple_struct map struct identifier ignored_any
        }
    }

    impl<'de, E: DeError> super::EnumAccess<'de> for BorrowedStrDeserializer<'de, E> {
        type Error = E;
        type Variant = UnitOnly<E>;

        fn variant_seed<T: DeserializeSeed<'de>>(
            self,
            seed: T,
        ) -> Result<(T::Value, UnitOnly<E>), E> {
            seed.deserialize(self).map(|v| {
                (
                    v,
                    UnitOnly {
                        marker: PhantomData,
                    },
                )
            })
        }
    }

    /// Yields the items of an iterator as a sequence.
    pub struct SeqDeserializer<I, E> {
        iter: std::iter::Fuse<I>,
        count: usize,
        marker: PhantomData<E>,
    }

    impl<I: Iterator, E> SeqDeserializer<I, E> {
        pub fn new(iter: I) -> Self {
            SeqDeserializer {
                iter: iter.fuse(),
                count: 0,
                marker: PhantomData,
            }
        }
    }

    impl<I: Iterator, E: DeError> SeqDeserializer<I, E> {
        /// Errors if the visitor left items unread.
        pub fn end(self) -> Result<(), E> {
            let remaining = self.iter.count();
            if remaining == 0 {
                Ok(())
            } else {
                Err(DeError::invalid_length(
                    self.count + remaining,
                    &"fewer elements in sequence",
                ))
            }
        }
    }

    impl<'de, I, T, E> Deserializer<'de> for SeqDeserializer<I, E>
    where
        I: Iterator<Item = T>,
        T: IntoDeserializer<'de, E>,
        E: DeError,
    {
        type Error = E;

        fn deserialize_any<V: Visitor<'de>>(mut self, visitor: V) -> Result<V::Value, E> {
            let value = visitor.visit_seq(&mut self)?;
            self.end()?;
            Ok(value)
        }

        crate::forward_to_deserialize_any! {
            bool i8 i16 i32 i64 i128 u8 u16 u32 u64 u128 f32 f64 char str
            string bytes byte_buf option unit unit_struct newtype_struct
            seq tuple tuple_struct map struct enum identifier ignored_any
        }
    }

    impl<'de, I, T, E> SeqAccess<'de> for SeqDeserializer<I, E>
    where
        I: Iterator<Item = T>,
        T: IntoDeserializer<'de, E>,
        E: DeError,
    {
        type Error = E;

        fn next_element_seed<S: DeserializeSeed<'de>>(
            &mut self,
            seed: S,
        ) -> Result<Option<S::Value>, E> {
            match self.iter.next() {
                Some(item) => {
                    self.count += 1;
                    seed.deserialize(item.into_deserializer()).map(Some)
                }
                None => Ok(None),
            }
        }

        fn size_hint(&self) -> Option<usize> {
            match self.iter.size_hint() {
                (lo, Some(hi)) if lo == hi => Some(lo),
                _ => None,
            }
        }
    }

    impl<'de, T, E> IntoDeserializer<'de, E> for Vec<T>
    where
        T: IntoDeserializer<'de, E>,
        E: DeError,
    {
        type Deserializer = SeqDeserializer<std::vec::IntoIter<T>, E>;
        fn into_deserializer(self) -> Self::Deserializer {
            SeqDeserializer::new(self.into_iter())
        }
    }
}
