//! `Serialize` / `Deserialize` for the std types mochi-rs sends over RPC.

use crate::de::{
    Deserialize, Deserializer, EnumAccess, Error as DeError, MapAccess, SeqAccess, Unexpected,
    VariantAccess, Visitor,
};
use crate::ser::{Serialize, SerializeStruct, SerializeTuple, Serializer};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------- primitives

macro_rules! primitive_ser {
    ($($ty:ty => $method:ident,)*) => {$(
        impl Serialize for $ty {
            #[inline]
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.$method(*self)
            }
        }
    )*};
}

primitive_ser! {
    bool => serialize_bool,
    i8 => serialize_i8,
    i16 => serialize_i16,
    i32 => serialize_i32,
    i64 => serialize_i64,
    i128 => serialize_i128,
    u8 => serialize_u8,
    u16 => serialize_u16,
    u32 => serialize_u32,
    u64 => serialize_u64,
    u128 => serialize_u128,
    f32 => serialize_f32,
    f64 => serialize_f64,
    char => serialize_char,
}

impl Serialize for usize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_u64(*self as u64)
    }
}

impl Serialize for isize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_i64(*self as i64)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<bool, D::Error> {
        struct BoolVisitor;
        impl Visitor<'_> for BoolVisitor {
            type Value = bool;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a boolean")
            }
            fn visit_bool<E: DeError>(self, v: bool) -> Result<bool, E> {
                Ok(v)
            }
        }
        deserializer.deserialize_bool(BoolVisitor)
    }
}

/// Integers accept any integer (or integral float) that fits.
macro_rules! int_de {
    ($($ty:ident => $method:ident,)*) => {$(
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<$ty, D::Error> {
                struct IntVisitor;
                impl Visitor<'_> for IntVisitor {
                    type Value = $ty;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str(stringify!($ty))
                    }
                    fn visit_i64<E: DeError>(self, v: i64) -> Result<$ty, E> {
                        $ty::try_from(v)
                            .map_err(|_| E::invalid_value(Unexpected::Signed(v), &self))
                    }
                    fn visit_u64<E: DeError>(self, v: u64) -> Result<$ty, E> {
                        $ty::try_from(v)
                            .map_err(|_| E::invalid_value(Unexpected::Unsigned(v), &self))
                    }
                    fn visit_i128<E: DeError>(self, v: i128) -> Result<$ty, E> {
                        $ty::try_from(v).map_err(|_| {
                            E::invalid_value(Unexpected::Other("out-of-range i128"), &self)
                        })
                    }
                    fn visit_u128<E: DeError>(self, v: u128) -> Result<$ty, E> {
                        $ty::try_from(v).map_err(|_| {
                            E::invalid_value(Unexpected::Other("out-of-range u128"), &self)
                        })
                    }
                }
                deserializer.$method(IntVisitor)
            }
        }
    )*};
}

int_de! {
    i8 => deserialize_i8,
    i16 => deserialize_i16,
    i32 => deserialize_i32,
    i64 => deserialize_i64,
    i128 => deserialize_i128,
    isize => deserialize_i64,
    u8 => deserialize_u8,
    u16 => deserialize_u16,
    u32 => deserialize_u32,
    u64 => deserialize_u64,
    u128 => deserialize_u128,
    usize => deserialize_u64,
}

macro_rules! float_de {
    ($($ty:ident => $method:ident,)*) => {$(
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<$ty, D::Error> {
                struct FloatVisitor;
                impl Visitor<'_> for FloatVisitor {
                    type Value = $ty;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str(stringify!($ty))
                    }
                    fn visit_i64<E: DeError>(self, v: i64) -> Result<$ty, E> {
                        Ok(v as $ty)
                    }
                    fn visit_u64<E: DeError>(self, v: u64) -> Result<$ty, E> {
                        Ok(v as $ty)
                    }
                    fn visit_f64<E: DeError>(self, v: f64) -> Result<$ty, E> {
                        Ok(v as $ty)
                    }
                }
                deserializer.$method(FloatVisitor)
            }
        }
    )*};
}

float_de! {
    f32 => deserialize_f32,
    f64 => deserialize_f64,
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<char, D::Error> {
        struct CharVisitor;
        impl Visitor<'_> for CharVisitor {
            type Value = char;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a character")
            }
            fn visit_char<E: DeError>(self, v: char) -> Result<char, E> {
                Ok(v)
            }
            fn visit_str<E: DeError>(self, v: &str) -> Result<char, E> {
                let mut chars = v.chars();
                match (chars.next(), chars.next()) {
                    (Some(c), None) => Ok(c),
                    _ => Err(E::invalid_value(Unexpected::Str(v), &self)),
                }
            }
        }
        deserializer.deserialize_char(CharVisitor)
    }
}

// ------------------------------------------------------------------- strings

impl Serialize for str {
    #[inline]
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for String {
    #[inline]
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for fmt::Arguments<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_str(self)
    }
}

struct StringVisitor;

impl Visitor<'_> for StringVisitor {
    type Value = String;
    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("a string")
    }
    fn visit_str<E: DeError>(self, v: &str) -> Result<String, E> {
        Ok(v.to_owned())
    }
    fn visit_string<E: DeError>(self, v: String) -> Result<String, E> {
        Ok(v)
    }
    fn visit_bytes<E: DeError>(self, v: &[u8]) -> Result<String, E> {
        match std::str::from_utf8(v) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(E::invalid_value(Unexpected::Bytes(v), &self)),
        }
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<String, D::Error> {
        deserializer.deserialize_string(StringVisitor)
    }
}

impl<'de: 'a, 'a> Deserialize<'de> for &'a str {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<&'a str, D::Error> {
        struct StrVisitor;
        impl<'a> Visitor<'a> for StrVisitor {
            type Value = &'a str;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a borrowed string")
            }
            fn visit_borrowed_str<E: DeError>(self, v: &'a str) -> Result<&'a str, E> {
                Ok(v)
            }
            fn visit_borrowed_bytes<E: DeError>(self, v: &'a [u8]) -> Result<&'a str, E> {
                std::str::from_utf8(v).map_err(|_| E::invalid_value(Unexpected::Bytes(v), &self))
            }
        }
        deserializer.deserialize_str(StrVisitor)
    }
}

impl<'de: 'a, 'a> Deserialize<'de> for &'a [u8] {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<&'a [u8], D::Error> {
        struct BytesVisitor;
        impl<'a> Visitor<'a> for BytesVisitor {
            type Value = &'a [u8];
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a borrowed byte array")
            }
            fn visit_borrowed_bytes<E: DeError>(self, v: &'a [u8]) -> Result<&'a [u8], E> {
                Ok(v)
            }
            fn visit_borrowed_str<E: DeError>(self, v: &'a str) -> Result<&'a [u8], E> {
                Ok(v.as_bytes())
            }
        }
        deserializer.deserialize_bytes(BytesVisitor)
    }
}

impl Serialize for Path {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self.to_str() {
            Some(s) => serializer.serialize_str(s),
            None => Err(crate::ser::Error::custom(
                "path contains invalid UTF-8 characters",
            )),
        }
    }
}

impl Serialize for PathBuf {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_path().serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for PathBuf {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<PathBuf, D::Error> {
        String::deserialize(deserializer).map(PathBuf::from)
    }
}

// ------------------------------------------------------- unit, option, refs

impl Serialize for () {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit()
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<(), D::Error> {
        struct UnitVisitor;
        impl Visitor<'_> for UnitVisitor {
            type Value = ();
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("unit")
            }
            fn visit_unit<E: DeError>(self) -> Result<(), E> {
                Ok(())
            }
        }
        deserializer.deserialize_unit(UnitVisitor)
    }
}

impl<T: ?Sized> Serialize for PhantomData<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit_struct("PhantomData")
    }
}

impl<'de, T: ?Sized> Deserialize<'de> for PhantomData<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct PhantomVisitor<T: ?Sized>(PhantomData<T>);
        impl<T: ?Sized> Visitor<'_> for PhantomVisitor<T> {
            type Value = PhantomData<T>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("unit")
            }
            fn visit_unit<E: DeError>(self) -> Result<PhantomData<T>, E> {
                Ok(PhantomData)
            }
        }
        deserializer.deserialize_unit_struct("PhantomData", PhantomVisitor(PhantomData))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    #[inline]
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(value) => serializer.serialize_some(value),
            None => serializer.serialize_none(),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Option<T>, D::Error> {
        struct OptionVisitor<T>(PhantomData<T>);
        impl<'de, T: Deserialize<'de>> Visitor<'de> for OptionVisitor<T> {
            type Value = Option<T>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("option")
            }
            fn visit_unit<E: DeError>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            fn visit_none<E: DeError>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            fn visit_some<D: Deserializer<'de>>(self, d: D) -> Result<Option<T>, D::Error> {
                T::deserialize(d).map(Some)
            }
        }
        deserializer.deserialize_option(OptionVisitor(PhantomData))
    }
}

macro_rules! deref_ser {
    ($(<$($lt:lifetime,)? T> $ty:ty;)*) => {$(
        impl<$($lt,)? T: Serialize + ?Sized> Serialize for $ty {
            #[inline]
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                (**self).serialize(serializer)
            }
        }
    )*};
}

deref_ser! {
    <'a, T> &'a T;
    <'a, T> &'a mut T;
    <T> Box<T>;
    <T> Rc<T>;
    <T> Arc<T>;
}

impl<T: Serialize + ToOwned + ?Sized> Serialize for Cow<'_, T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Box<T>, D::Error> {
        T::deserialize(deserializer).map(Box::new)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<[T]> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Box<[T]>, D::Error> {
        Vec::<T>::deserialize(deserializer).map(Vec::into_boxed_slice)
    }
}

impl<'de> Deserialize<'de> for Box<str> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Box<str>, D::Error> {
        String::deserialize(deserializer).map(String::into_boxed_str)
    }
}

/// `Arc<T>` / `Rc<T>` for any `T` whose `Box` deserializes (so `Arc<str>`
/// and `Arc<[T]>` work too) — serde's `rc` feature.
impl<'de, T: ?Sized> Deserialize<'de> for Arc<T>
where
    Box<T>: Deserialize<'de>,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Arc<T>, D::Error> {
        Box::<T>::deserialize(deserializer).map(Arc::from)
    }
}

impl<'de, T: ?Sized> Deserialize<'de> for Rc<T>
where
    Box<T>: Deserialize<'de>,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Rc<T>, D::Error> {
        Box::<T>::deserialize(deserializer).map(Rc::from)
    }
}

impl<'de, 'a, T: ToOwned + ?Sized> Deserialize<'de> for Cow<'a, T>
where
    T::Owned: Deserialize<'de>,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Cow<'a, T>, D::Error> {
        T::Owned::deserialize(deserializer).map(Cow::Owned)
    }
}

// ----------------------------------------------------------------- sequences

impl<T: Serialize> Serialize for [T] {
    #[inline]
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    #[inline]
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self)
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self)
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self)
    }
}

impl<T: Serialize, H> Serialize for HashSet<T, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut tuple = serializer.serialize_tuple(N)?;
        for item in self {
            tuple.serialize_element(item)?;
        }
        tuple.end()
    }
}

/// Upper bound on pre-allocation from an untrusted size hint.
fn cautious(hint: Option<usize>) -> usize {
    hint.unwrap_or(0).min(4096)
}

macro_rules! seq_de {
    (
        $ty:ident<T $(: $b1:ident $(+ $b2:ident)*)? $(, $h:ident: $hb1:ident + $hb2:ident)?>,
        $hint:ident => $new:expr,
        $push:ident
    ) => {
        impl<'de, T $(, $h)?> Deserialize<'de> for $ty<T $(, $h)?>
        where
            T: Deserialize<'de> $(+ $b1 $(+ $b2)*)?,
            $($h: $hb1 + $hb2,)?
        {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                #[allow(unused_parens)]
                struct SeqVisitor<T $(, $h)?>(PhantomData<(T $(, $h)?)>);
                impl<'de, T $(, $h)?> Visitor<'de> for SeqVisitor<T $(, $h)?>
                where
                    T: Deserialize<'de> $(+ $b1 $(+ $b2)*)?,
                    $($h: $hb1 + $hb2,)?
                {
                    type Value = $ty<T $(, $h)?>;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str("a sequence")
                    }
                    fn visit_seq<A: SeqAccess<'de>>(
                        self,
                        mut seq: A,
                    ) -> Result<Self::Value, A::Error> {
                        let $hint = cautious(seq.size_hint());
                        let mut out = $new;
                        while let Some(item) = seq.next_element()? {
                            out.$push(item);
                        }
                        Ok(out)
                    }
                }
                deserializer.deserialize_seq(SeqVisitor(PhantomData))
            }
        }
    };
}

seq_de!(Vec<T>, hint => Vec::with_capacity(hint), push);
seq_de!(VecDeque<T>, hint => VecDeque::with_capacity(hint), push_back);
seq_de!(BTreeSet<T: Ord>, _hint => BTreeSet::new(), insert);
seq_de!(
    HashSet<T: Eq + Hash, H: BuildHasher + Default>,
    hint => HashSet::with_capacity_and_hasher(hint, H::default()),
    insert
);

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<[T; N], D::Error> {
        struct ArrayVisitor<T, const N: usize>(PhantomData<T>);
        impl<'de, T: Deserialize<'de>, const N: usize> Visitor<'de> for ArrayVisitor<T, N> {
            type Value = [T; N];
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "an array of length {N}")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<[T; N], A::Error> {
                let mut items = Vec::with_capacity(N);
                while let Some(item) = seq.next_element()? {
                    items.push(item);
                }
                let len = items.len();
                <[T; N]>::try_from(items).map_err(|_| DeError::invalid_length(len, &self))
            }
        }
        deserializer.deserialize_tuple(N, ArrayVisitor::<T, N>(PhantomData))
    }
}

// -------------------------------------------------------------------- tuples

macro_rules! tuple_impls {
    ($($len:expr => ($($n:tt $name:ident)+))+) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let mut tuple = serializer.serialize_tuple($len)?;
                $(tuple.serialize_element(&self.$n)?;)+
                tuple.end()
            }
        }

        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct TupleVisitor<$($name,)+>(PhantomData<($($name,)+)>);
                impl<'de, $($name: Deserialize<'de>),+> Visitor<'de> for TupleVisitor<$($name,)+> {
                    type Value = ($($name,)+);
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        write!(f, "a tuple of size {}", $len)
                    }
                    #[allow(non_snake_case)]
                    fn visit_seq<A: SeqAccess<'de>>(
                        self,
                        mut seq: A,
                    ) -> Result<Self::Value, A::Error> {
                        $(
                            let $name = match seq.next_element()? {
                                Some(value) => value,
                                None => return Err(DeError::invalid_length($n, &self)),
                            };
                        )+
                        Ok(($($name,)+))
                    }
                }
                deserializer.deserialize_tuple($len, TupleVisitor(PhantomData))
            }
        }
    )+};
}

tuple_impls! {
    1 => (0 T0)
    2 => (0 T0 1 T1)
    3 => (0 T0 1 T1 2 T2)
    4 => (0 T0 1 T1 2 T2 3 T3)
    5 => (0 T0 1 T1 2 T2 3 T3 4 T4)
    6 => (0 T0 1 T1 2 T2 3 T3 4 T4 5 T5)
    7 => (0 T0 1 T1 2 T2 3 T3 4 T4 5 T5 6 T6)
    8 => (0 T0 1 T1 2 T2 3 T3 4 T4 5 T5 6 T6 7 T7)
}

// ---------------------------------------------------------------------- maps

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_map(self)
    }
}

impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_map(self)
    }
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct MapVisitor<K, V>(PhantomData<(K, V)>);
        impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Visitor<'de> for MapVisitor<K, V> {
            type Value = BTreeMap<K, V>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a map")
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
                let mut out = BTreeMap::new();
                while let Some((key, value)) = map.next_entry()? {
                    out.insert(key, value);
                }
                Ok(out)
            }
        }
        deserializer.deserialize_map(MapVisitor(PhantomData))
    }
}

impl<'de, K, V, H> Deserialize<'de> for HashMap<K, V, H>
where
    K: Deserialize<'de> + Eq + Hash,
    V: Deserialize<'de>,
    H: BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct MapVisitor<K, V, H>(PhantomData<(K, V, H)>);
        impl<'de, K, V, H> Visitor<'de> for MapVisitor<K, V, H>
        where
            K: Deserialize<'de> + Eq + Hash,
            V: Deserialize<'de>,
            H: BuildHasher + Default,
        {
            type Value = HashMap<K, V, H>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a map")
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
                let mut out =
                    HashMap::with_capacity_and_hasher(cautious(map.size_hint()), H::default());
                while let Some((key, value)) = map.next_entry()? {
                    out.insert(key, value);
                }
                Ok(out)
            }
        }
        deserializer.deserialize_map(MapVisitor(PhantomData))
    }
}

// ------------------------------------------------------------------ Duration

impl Serialize for Duration {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut state = serializer.serialize_struct("Duration", 2)?;
        state.serialize_field("secs", &self.as_secs())?;
        state.serialize_field("nanos", &self.subsec_nanos())?;
        state.end()
    }
}

impl<'de> Deserialize<'de> for Duration {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Duration, D::Error> {
        struct DurationVisitor;
        impl<'de> Visitor<'de> for DurationVisitor {
            type Value = Duration;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("struct Duration")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Duration, A::Error> {
                let secs: u64 = seq
                    .next_element()?
                    .ok_or_else(|| DeError::invalid_length(0, &self))?;
                let nanos: u32 = seq
                    .next_element()?
                    .ok_or_else(|| DeError::invalid_length(1, &self))?;
                Ok(Duration::new(secs, nanos))
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Duration, A::Error> {
                let mut secs: Option<u64> = None;
                let mut nanos: Option<u32> = None;
                while let Some(key) = map.next_key::<crate::__private::Key<'de>>()? {
                    match key.as_str() {
                        "secs" => secs = Some(map.next_value()?),
                        "nanos" => nanos = Some(map.next_value()?),
                        other => {
                            return Err(DeError::unknown_field(other, &["secs", "nanos"]));
                        }
                    }
                }
                let secs = secs.ok_or_else(|| DeError::missing_field("secs"))?;
                let nanos = nanos.ok_or_else(|| DeError::missing_field("nanos"))?;
                Ok(Duration::new(secs, nanos))
            }
        }
        deserializer.deserialize_struct("Duration", &["secs", "nanos"], DurationVisitor)
    }
}

// -------------------------------------------------------------------- Result

impl<T: Serialize, E: Serialize> Serialize for Result<T, E> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Ok(value) => serializer.serialize_newtype_variant("Result", 0, "Ok", value),
            Err(value) => serializer.serialize_newtype_variant("Result", 1, "Err", value),
        }
    }
}

impl<'de, T: Deserialize<'de>, E: Deserialize<'de>> Deserialize<'de> for Result<T, E> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct ResultVisitor<T, E>(PhantomData<(T, E)>);
        impl<'de, T: Deserialize<'de>, E: Deserialize<'de>> Visitor<'de> for ResultVisitor<T, E> {
            type Value = Result<T, E>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("enum Result")
            }
            fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<Self::Value, A::Error> {
                let (key, variant) = data.variant::<crate::__private::Key<'de>>()?;
                match key.as_str() {
                    "Ok" => variant.newtype_variant().map(Ok),
                    "Err" => variant.newtype_variant().map(Err),
                    other => Err(DeError::unknown_variant(other, &["Ok", "Err"])),
                }
            }
        }
        deserializer.deserialize_enum("Result", &["Ok", "Err"], ResultVisitor(PhantomData))
    }
}
