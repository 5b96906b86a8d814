//! Support code for what `#[derive(Serialize, Deserialize)]` expands to.
//! Not a public API.

use crate::de::{Deserialize, Deserializer, Error, Visitor};
use std::fmt;
use std::marker::PhantomData;

pub use std::default::Default;
pub use std::fmt::Formatter;
pub use std::option::Option::{self, None, Some};
pub use std::result::Result::{self, Err, Ok};

/// A struct-field or enum-variant name read through
/// `deserialize_identifier`: borrowed from the input when the format can
/// lend it, owned otherwise.
pub enum Key<'de> {
    Borrowed(&'de str),
    Owned(String),
}

impl Key<'_> {
    #[inline]
    pub fn as_str(&self) -> &str {
        match self {
            Key::Borrowed(s) => s,
            Key::Owned(s) => s,
        }
    }
}

impl<'de> Deserialize<'de> for Key<'de> {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Key<'de>, D::Error> {
        struct KeyVisitor;
        impl<'de> Visitor<'de> for KeyVisitor {
            type Value = Key<'de>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a field or variant name")
            }
            #[inline]
            fn visit_str<E: Error>(self, v: &str) -> Result<Key<'de>, E> {
                Ok(Key::Owned(v.to_owned()))
            }
            #[inline]
            fn visit_borrowed_str<E: Error>(self, v: &'de str) -> Result<Key<'de>, E> {
                Ok(Key::Borrowed(v))
            }
            #[inline]
            fn visit_string<E: Error>(self, v: String) -> Result<Key<'de>, E> {
                Ok(Key::Owned(v))
            }
            fn visit_bytes<E: Error>(self, v: &[u8]) -> Result<Key<'de>, E> {
                Ok(Key::Owned(String::from_utf8_lossy(v).into_owned()))
            }
        }
        deserializer.deserialize_identifier(KeyVisitor)
    }
}

/// Value of a field absent from the input: `None` for an `Option`, an error
/// for everything else (serde's rule).
pub fn missing_field<'de, T: Deserialize<'de>, E: Error>(field: &'static str) -> Result<T, E> {
    struct MissingFieldDeserializer<E>(&'static str, PhantomData<E>);

    impl<'de, E: Error> Deserializer<'de> for MissingFieldDeserializer<E> {
        type Error = E;

        fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, E> {
            Err(Error::missing_field(self.0))
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

    T::deserialize(MissingFieldDeserializer(field, PhantomData))
}
