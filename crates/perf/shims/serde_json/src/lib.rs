//! Offline stand-in for `serde_json`.
//!
//! The subset mochi-rs uses: [`Value`] / [`Map`] / [`Number`], the `json!`
//! macro, `to_string{,_pretty}` / `to_vec{,_pretty}` / `to_writer`,
//! `from_str` / `from_slice` / `from_reader`, and `to_value` / `from_value`.
//! Output matches serde_json's (compact and two-space pretty forms, object
//! keys in sorted order as with the default `BTreeMap` map, floats always
//! carrying a fraction or exponent).

mod de;
mod error;
mod macros;
mod map;
mod number;
mod ser;
mod value;

pub use crate::de::{from_reader, from_slice, from_str, Deserializer};
pub use crate::error::{Error, Result};
pub use crate::map::Map;
pub use crate::number::Number;
pub use crate::ser::{
    to_string, to_string_pretty, to_vec, to_vec_pretty, to_writer, to_writer_pretty,
};
pub use crate::value::{from_value, to_value, Value};
