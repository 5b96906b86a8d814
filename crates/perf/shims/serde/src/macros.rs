//! `forward_to_deserialize_any!` (same contract as serde's).

/// Implements the listed `Deserializer::deserialize_*` methods by forwarding
/// to `deserialize_any`. Assumes the impl's lifetime is named `'de` and the
/// visitor parameter is free to be named `V` by the caller.
#[macro_export]
macro_rules! forward_to_deserialize_any {
    ($($func:ident)*) => {
        $($crate::__forward_one!{$func})*
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __forward_method {
    ($method:ident ( $($arg:ident : $ty:ty),* )) => {
        #[inline]
        fn $method<__V: $crate::de::Visitor<'de>>(
            self,
            $($arg: $ty,)*
            visitor: __V,
        ) -> ::core::result::Result<__V::Value, Self::Error> {
            $(let _ = $arg;)*
            self.deserialize_any(visitor)
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __forward_one {
    (bool) => {
        $crate::__forward_method! {deserialize_bool()}
    };
    (i8) => {
        $crate::__forward_method! {deserialize_i8()}
    };
    (i16) => {
        $crate::__forward_method! {deserialize_i16()}
    };
    (i32) => {
        $crate::__forward_method! {deserialize_i32()}
    };
    (i64) => {
        $crate::__forward_method! {deserialize_i64()}
    };
    (i128) => {
        $crate::__forward_method! {deserialize_i128()}
    };
    (u8) => {
        $crate::__forward_method! {deserialize_u8()}
    };
    (u16) => {
        $crate::__forward_method! {deserialize_u16()}
    };
    (u32) => {
        $crate::__forward_method! {deserialize_u32()}
    };
    (u64) => {
        $crate::__forward_method! {deserialize_u64()}
    };
    (u128) => {
        $crate::__forward_method! {deserialize_u128()}
    };
    (f32) => {
        $crate::__forward_method! {deserialize_f32()}
    };
    (f64) => {
        $crate::__forward_method! {deserialize_f64()}
    };
    (char) => {
        $crate::__forward_method! {deserialize_char()}
    };
    (str) => {
        $crate::__forward_method! {deserialize_str()}
    };
    (string) => {
        $crate::__forward_method! {deserialize_string()}
    };
    (bytes) => {
        $crate::__forward_method! {deserialize_bytes()}
    };
    (byte_buf) => {
        $crate::__forward_method! {deserialize_byte_buf()}
    };
    (option) => {
        $crate::__forward_method! {deserialize_option()}
    };
    (unit) => {
        $crate::__forward_method! {deserialize_unit()}
    };
    (unit_struct) => {
        $crate::__forward_method! {deserialize_unit_struct(name: &'static str)}
    };
    (newtype_struct) => {
        $crate::__forward_method! {deserialize_newtype_struct(name: &'static str)}
    };
    (seq) => {
        $crate::__forward_method! {deserialize_seq()}
    };
    (tuple) => {
        $crate::__forward_method! {deserialize_tuple(len: usize)}
    };
    (tuple_struct) => {
        $crate::__forward_method! {deserialize_tuple_struct(name: &'static str, len: usize)}
    };
    (map) => {
        $crate::__forward_method! {deserialize_map()}
    };
    (struct) => {
        $crate::__forward_method! {
            deserialize_struct(name: &'static str, fields: &'static [&'static str])
        }
    };
    (enum) => {
        $crate::__forward_method! {
            deserialize_enum(name: &'static str, variants: &'static [&'static str])
        }
    };
    (identifier) => {
        $crate::__forward_method! {deserialize_identifier()}
    };
    (ignored_any) => {
        $crate::__forward_method! {deserialize_ignored_any()}
    };
}
