//! Offline stand-in for `serde`.
//!
//! The container this repository is built in has no crates.io access, so the
//! benchmark ships the subset of serde's public API that the mochi-rs
//! workspace uses: the full serializer/deserializer data model (`ser`, `de`),
//! implementations for the std types that cross an RPC boundary, the
//! `forward_to_deserialize_any!` macro and `#[derive(Serialize, Deserialize)]`
//! (see `../serde_derive`). Trait and method names, signatures and semantics
//! follow serde 1.0 so the workspace compiles unchanged against either.

pub mod de;
pub mod ser;

mod impls;
mod macros;

#[doc(hidden)]
pub mod __private;

pub use crate::de::{Deserialize, Deserializer};
pub use crate::ser::{Serialize, Serializer};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
