//! Offline JSON front-end for the vendored `serde` subset.
//!
//! [`to_string`] streams a value's JSON straight into one `String`;
//! [`from_str`] reads it back through a tokenizer that borrows the text, with
//! no intermediate tree either way. Floats are printed in Rust's shortest
//! round-trip form (`{:?}`), so every finite `f64` survives a serialize →
//! parse cycle **bit-identically** — the property the fleet-engine snapshot
//! format depends on. Non-finite floats are written as the non-standard
//! tokens `NaN` / `inf` / `-inf` and accepted back. The shape rules (unknown
//! keys skipped, missing fields rejected, nesting capped at
//! [`serde::MAX_DEPTH`], …) are listed in the `serde` crate's docs.

#![forbid(unsafe_code)]

use serde::{Deserialize, Deserializer, Serialize};

/// Error produced when JSON text is malformed or does not match the target.
pub use serde::Error;

/// Serializes `value` to compact JSON.
///
/// # Errors
///
/// Infallible for the supported data model; returns `Result` for API
/// compatibility with upstream `serde_json`.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize(&mut out);
    Ok(out)
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Returns an error on malformed JSON, trailing characters, nesting deeper
/// than [`serde::MAX_DEPTH`] or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut de = Deserializer::new(text);
    let value = T::deserialize(&mut de)?;
    de.end()?;
    Ok(value)
}
