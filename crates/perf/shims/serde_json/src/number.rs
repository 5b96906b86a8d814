use serde::de::{self, Visitor};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;

/// A JSON number: an unsigned or negative integer, or a finite float.
#[derive(Clone, Copy, PartialEq)]
pub struct Number(pub(crate) N);

#[derive(Clone, Copy, PartialEq)]
pub(crate) enum N {
    PosInt(u64),
    /// Always strictly negative.
    NegInt(i64),
    /// Always finite.
    Float(f64),
}

impl Number {
    pub fn is_i64(&self) -> bool {
        match self.0 {
            N::PosInt(v) => v <= i64::MAX as u64,
            N::NegInt(_) => true,
            N::Float(_) => false,
        }
    }

    pub fn is_u64(&self) -> bool {
        matches!(self.0, N::PosInt(_))
    }

    pub fn is_f64(&self) -> bool {
        matches!(self.0, N::Float(_))
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            N::PosInt(v) => i64::try_from(v).ok(),
            N::NegInt(v) => Some(v),
            N::Float(_) => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::PosInt(v) => Some(v),
            N::NegInt(_) | N::Float(_) => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self.0 {
            N::PosInt(v) => Some(v as f64),
            N::NegInt(v) => Some(v as f64),
            N::Float(v) => Some(v),
        }
    }

    /// `None` for NaN and the infinities, which JSON cannot represent.
    pub fn from_f64(v: f64) -> Option<Number> {
        v.is_finite().then_some(Number(N::Float(v)))
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            N::PosInt(v) => write!(f, "{v}"),
            N::NegInt(v) => write!(f, "{v}"),
            // `{:?}` keeps a fraction or exponent (`1.0`, `1e21`), as JSON
            // writers do, and round-trips.
            N::Float(v) => write!(f, "{v:?}"),
        }
    }
}

impl fmt::Debug for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Number({self})")
    }
}

macro_rules! from_unsigned {
    ($($ty:ty)*) => {$(
        impl From<$ty> for Number {
            fn from(v: $ty) -> Number {
                Number(N::PosInt(v as u64))
            }
        }
    )*};
}

macro_rules! from_signed {
    ($($ty:ty)*) => {$(
        impl From<$ty> for Number {
            fn from(v: $ty) -> Number {
                if v < 0 {
                    Number(N::NegInt(v as i64))
                } else {
                    Number(N::PosInt(v as u64))
                }
            }
        }
    )*};
}

from_unsigned!(u8 u16 u32 u64 usize);
from_signed!(i8 i16 i32 i64 isize);

impl Serialize for Number {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self.0 {
            N::PosInt(v) => serializer.serialize_u64(v),
            N::NegInt(v) => serializer.serialize_i64(v),
            N::Float(v) => serializer.serialize_f64(v),
        }
    }
}

impl<'de> Deserialize<'de> for Number {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Number, D::Error> {
        struct NumberVisitor;
        impl Visitor<'_> for NumberVisitor {
            type Value = Number;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a JSON number")
            }
            fn visit_i64<E: de::Error>(self, v: i64) -> Result<Number, E> {
                Ok(v.into())
            }
            fn visit_u64<E: de::Error>(self, v: u64) -> Result<Number, E> {
                Ok(v.into())
            }
            fn visit_f64<E: de::Error>(self, v: f64) -> Result<Number, E> {
                Number::from_f64(v).ok_or_else(|| de::Error::custom("not a JSON number"))
            }
        }
        deserializer.deserialize_any(NumberVisitor)
    }
}
