//! Offline, API-compatible subset of `serde`.
//!
//! The build environment has no crates.io access, so this crate provides the
//! slice of serde the workspace uses: the [`Serialize`] / [`Deserialize`]
//! traits and their derive macros (re-exported from the sibling
//! `serde_derive` proc-macro crate).
//!
//! The data model is JSON text itself, streamed with no intermediate tree:
//!
//! * [`Serialize::serialize`] appends the value's JSON tokens straight to one
//!   output `String`. Structs become objects, tuples and sequences become
//!   arrays, unit enum variants become strings and data-carrying variants
//!   become single-entry objects (the externally-tagged convention).
//!   `BTreeMap`s become arrays of `[key, value]` pairs. Finite floats are
//!   written in Rust's shortest round-trip form (`{:?}`), so they restore
//!   **bit-identically**; non-finite ones as the tokens `NaN`, `inf`, `-inf`.
//! * [`Deserialize::deserialize`] pulls tokens from a [`Deserializer`] that
//!   borrows the input text. Derived structs match object keys as `&str`
//!   against their field names, skip unknown keys, keep the first of
//!   duplicate keys and reject missing fields (`Option` fields included).
//!   Integer tokens fill `f64`s; negative numbers and floats are rejected
//!   for unsigned integers; `[T; N]` checks its length. Containers nest at
//!   most [`MAX_DEPTH`] deep, so hostile input gets an [`Error`] rather than
//!   a stack overflow.
//!
//! The companion `serde_json` crate is the front door: `to_string` and
//! `from_str`.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

pub use serde_derive::{Deserialize, Serialize};

/// Deepest nesting of arrays and objects the [`Deserializer`] accepts.
/// Real snapshots nest about 10 deep; the limit bounds the recursion that
/// skipping an unknown value takes.
pub const MAX_DEPTH: usize = 128;

/// Error produced when JSON text is malformed or does not match the target
/// type, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
    offset: usize,
}

impl Error {
    fn at(message: impl fmt::Display, offset: usize) -> Self {
        Error {
            message: message.to_string(),
            offset,
        }
    }

    /// Prefixes the message with where in the target type it arose.
    fn context(self, prefix: impl fmt::Display) -> Self {
        Error {
            message: format!("{prefix}: {}", self.message),
            offset: self.offset,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for Error {}

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Appends `self`'s JSON tokens to `out`.
    fn serialize(&self, out: &mut String);
}

/// Types that can be read back from JSON.
pub trait Deserialize: Sized {
    /// Reads one value of this type from `de`.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed JSON or when the value's shape does not
    /// match `Self`.
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends `s` as a JSON string literal, copying unescaped runs whole.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte that ends a run is ASCII, so `run..i` is on char
        // boundaries.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_nan() {
        out.push_str("NaN");
    } else if x.is_infinite() {
        out.push_str(if x > 0.0 { "inf" } else { "-inf" });
    } else {
        // `{:?}` is Rust's shortest representation that parses back to the
        // same bits; it always contains a `.`, an `e`, or both.
        let _ = write!(out, "{x:?}");
    }
}

/// Appends the elements of `items` as a JSON array.
fn write_seq<'a, T: Serialize + 'a>(out: &mut String, items: impl IntoIterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.serialize(out);
    }
    out.push(']');
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A JSON number token, classified the way the target types coerce it.
#[derive(Debug, Clone, Copy)]
enum Number {
    /// A non-negative integer.
    U64(u64),
    /// A negative integer (or `-0`).
    I64(i64),
    /// A float, including `NaN`, `inf` and `-inf`.
    F64(f64),
}

/// A pull tokenizer over borrowed JSON text.
///
/// [`Deserialize`] implementations read one value each; the derive macro's
/// generated code walks objects with [`begin_map`](Self::begin_map) /
/// [`next_key`](Self::next_key) and arrays with
/// [`begin_seq`](Self::begin_seq) / [`next_element`](Self::next_element).
pub struct Deserializer<'de> {
    text: &'de str,
    pos: usize,
    depth: usize,
    /// Set by `begin_*`, cleared by `next_*`: no `,` precedes the first
    /// element or key of a container.
    first: bool,
}

impl<'de> Deserializer<'de> {
    /// Starts reading `text` from its first byte.
    #[must_use]
    pub fn new(text: &'de str) -> Self {
        Deserializer {
            text,
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    /// Checks that only whitespace follows the value read so far.
    ///
    /// # Errors
    ///
    /// Returns an error on trailing characters.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    /// An error at the current input position.
    #[must_use]
    pub fn error(&self, message: impl fmt::Display) -> Error {
        Error::at(message, self.pos)
    }

    /// Skips whitespace and returns the position of the next token.
    fn offset(&mut self) -> usize {
        self.peek();
        self.pos
    }

    /// Skips whitespace and returns the next byte without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    /// Consumes `byte` (after whitespace) or fails.
    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    /// An error naming what was expected and the kind of token found.
    fn mismatch(&mut self, expected: &str) -> Error {
        let found = match self.peek() {
            None => return self.error("unexpected end of input"),
            Some(b'n') => "null",
            Some(b't' | b'f') => "bool",
            Some(b'"') => "string",
            Some(b'[') => "sequence",
            Some(b'{') => "map",
            Some(b'-' | b'0'..=b'9' | b'N' | b'i') => "number",
            Some(b) => return self.error(format!("unexpected `{}`", b as char)),
        };
        self.error(format!("expected {expected}, found {found}"))
    }

    /// Consumes a `null` token if one is next.
    fn eat_null(&mut self) -> bool {
        self.peek() == Some(b'n') && self.eat_keyword("null")
    }

    fn bool(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') if self.eat_keyword("true") => Ok(true),
            Some(b'f') if self.eat_keyword("false") => Ok(false),
            _ => Err(self.mismatch("bool")),
        }
    }

    fn number(&mut self, expected: &str) -> Result<Number, Error> {
        let start = match self.peek() {
            Some(b'N') if self.eat_keyword("NaN") => return Ok(Number::F64(f64::NAN)),
            Some(b'i') if self.eat_keyword("inf") => return Ok(Number::F64(f64::INFINITY)),
            Some(b'-' | b'0'..=b'9') => self.pos,
            _ => return Err(self.mismatch(expected)),
        };
        let bytes = self.text.as_bytes();
        let negative = bytes[start] == b'-';
        if negative {
            self.pos += 1;
            if self.eat_keyword("inf") {
                return Ok(Number::F64(f64::NEG_INFINITY));
            }
        }
        // Integers, the common case, are accumulated while scanning; any of
        // `.eE+-` after the digits makes the token a float for `str::parse`.
        let mut magnitude = Some(0u64);
        while let Some(&b) = bytes.get(self.pos) {
            if !b.is_ascii_digit() {
                break;
            }
            magnitude = magnitude
                .and_then(|m| m.checked_mul(10))
                .and_then(|m| m.checked_add(u64::from(b - b'0')));
            self.pos += 1;
        }
        let digits = self.pos - start - usize::from(negative);
        let is_float = matches!(bytes.get(self.pos), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        if is_float {
            while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(self.pos) {
                self.pos += 1;
            }
        }
        let token = &self.text[start..self.pos];
        let number = match (is_float, magnitude) {
            (true, _) => token.parse().ok().map(Number::F64),
            (false, Some(m)) if digits > 0 && !negative => Some(Number::U64(m)),
            // The magnitude of a negative integer may reach 2^63 (`i64::MIN`).
            (false, Some(m)) if digits > 0 && m <= 1 << 63 => {
                Some(Number::I64((m as i64).wrapping_neg()))
            }
            _ => None,
        };
        number.ok_or_else(|| Error::at(format!("invalid number `{token}`"), start))
    }

    fn f64(&mut self) -> Result<f64, Error> {
        Ok(match self.number("number")? {
            Number::U64(x) => x as f64,
            Number::I64(x) => x as f64,
            Number::F64(x) => x,
        })
    }

    fn u64(&mut self) -> Result<u64, Error> {
        let start = self.offset();
        match self.number("unsigned integer")? {
            Number::U64(x) => Ok(x),
            Number::I64(x) => u64::try_from(x)
                .map_err(|_| Error::at(format!("expected unsigned integer, found {x}"), start)),
            Number::F64(x) => Err(Error::at(
                format!("expected unsigned integer, found float {x:?}"),
                start,
            )),
        }
    }

    fn i64(&mut self) -> Result<i64, Error> {
        let start = self.offset();
        match self.number("integer")? {
            Number::U64(x) => {
                i64::try_from(x).map_err(|_| Error::at(format!("{x} out of range for i64"), start))
            }
            Number::I64(x) => Ok(x),
            Number::F64(x) => Err(Error::at(
                format!("expected integer, found float {x:?}"),
                start,
            )),
        }
    }

    /// Reads a string token, borrowing it from the input unless it holds
    /// escapes.
    ///
    /// # Errors
    ///
    /// Returns an error when the next token is not a well-formed string.
    pub fn string(&mut self) -> Result<Cow<'de, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.mismatch("string"));
        }
        self.pos += 1;
        let text = self.text;
        let bytes = text.as_bytes();
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            self.pos += bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(bytes.len() - start);
            // The run stops at an ASCII byte or the end, so it is on char
            // boundaries.
            let run = &text[start..self.pos];
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    let escaped = self.escape()?;
                    out.push(escaped);
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Decodes the escape after a `\` and consumes it.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.text.as_bytes().get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self.hex_escape(self.pos + 1)?;
                self.pos += 4;
                let code = match code {
                    // UTF-16 high surrogate: a low-surrogate escape must
                    // follow (how upstream serde_json writes non-BMP
                    // characters).
                    0xD800..=0xDBFF => {
                        let rest = self.text.as_bytes().get(self.pos + 1..);
                        if !rest.is_some_and(|rest| rest.starts_with(b"\\u")) {
                            return Err(self.error("high surrogate without low surrogate"));
                        }
                        let low = self.hex_escape(self.pos + 3)?;
                        if !(0xDC00..=0xDFFF).contains(&low) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        self.pos += 6;
                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                    }
                    0xDC00..=0xDFFF => return Err(self.error("lone low surrogate")),
                    code => code,
                };
                char::from_u32(code).ok_or_else(|| self.error("invalid codepoint"))?
            }
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Reads the four hex digits of a `\u` escape starting at `start`.
    fn hex_escape(&self, start: usize) -> Result<u32, Error> {
        let digits = self
            .text
            .as_bytes()
            .get(start..start + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        digits.iter().try_fold(0, |code, &b| {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid \\u escape"))?;
            Ok(code << 4 | digit)
        })
    }

    fn open(&mut self, byte: u8, expected: &str) -> Result<(), Error> {
        if self.peek() != Some(byte) {
            return Err(self.mismatch(expected));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Consumes the `[` that opens an array.
    ///
    /// # Errors
    ///
    /// Returns an error when the next token is not `[` or the array would
    /// nest deeper than [`MAX_DEPTH`].
    pub fn begin_seq(&mut self) -> Result<(), Error> {
        self.open(b'[', "sequence")
    }

    /// Moves to the next array element: `true` when one follows (read it
    /// next), `false` once the closing `]` is consumed.
    ///
    /// # Errors
    ///
    /// Returns an error when neither `,` nor `]` follows an element.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        let first = std::mem::replace(&mut self.first, false);
        match self.peek() {
            Some(b']') => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.error("expected `,` or `]`")),
        }
    }

    /// Skips the remaining elements of an array and its closing `]`.
    ///
    /// # Errors
    ///
    /// Returns an error when a skipped element is malformed.
    pub fn end_seq(&mut self) -> Result<(), Error> {
        while self.next_element()? {
            self.skip_value()?;
        }
        Ok(())
    }

    /// Consumes the `{` that opens an object.
    ///
    /// # Errors
    ///
    /// Returns an error when the next token is not `{` or the object would
    /// nest deeper than [`MAX_DEPTH`].
    pub fn begin_map(&mut self) -> Result<(), Error> {
        self.open(b'{', "map")
    }

    /// Moves to the next object entry and returns its key (read or
    /// [`skip_value`](Self::skip_value) the value next), or `None` once the
    /// closing `}` is consumed.
    ///
    /// # Errors
    ///
    /// Returns an error on a malformed separator or key.
    pub fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, Error> {
        let first = std::mem::replace(&mut self.first, false);
        match self.peek() {
            Some(b'}') => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                return Ok(None);
            }
            Some(b',') if !first => self.pos += 1,
            _ if first => {}
            _ => return Err(self.error("expected `,` or `}`")),
        }
        let key = self.string()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Reads an enum's tag: a string for a unit variant (`false`), or the key
    /// of a single-entry object whose value, read next, is the variant's
    /// payload (`true`; finish with [`end_variant`](Self::end_variant)).
    ///
    /// # Errors
    ///
    /// Returns an error when the next token is neither a string nor a
    /// non-empty object.
    #[doc(hidden)]
    pub fn variant(&mut self, context: &str) -> Result<(Cow<'de, str>, bool), Error> {
        match self.peek() {
            Some(b'"') => Ok((self.string()?, false)),
            Some(b'{') => {
                self.begin_map()?;
                match self.next_key()? {
                    Some(tag) => Ok((tag, true)),
                    None => Err(self.error(format!("expected enum `{context}`, found empty map"))),
                }
            }
            _ => Err(self.mismatch(&format!("enum `{context}`"))),
        }
    }

    /// Consumes the `}` that closes a data-carrying enum variant.
    ///
    /// # Errors
    ///
    /// Returns an error when the variant's object has a second entry.
    #[doc(hidden)]
    pub fn end_variant(&mut self, context: &str) -> Result<(), Error> {
        match self.next_key()? {
            None => Ok(()),
            Some(_) => Err(self.error(format!("expected enum `{context}` as a single-entry map"))),
        }
    }

    /// Reads and discards one well-formed value of any shape.
    ///
    /// # Errors
    ///
    /// Returns an error when the value is malformed or nests deeper than
    /// [`MAX_DEPTH`].
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(()),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'"') => self.string().map(drop),
            Some(b'[') => {
                self.begin_seq()?;
                self.end_seq()
            }
            Some(b'{') => {
                self.begin_map()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            _ => self.number("value").map(drop),
        }
    }
}

/// Reads the value of struct field `key` (used by the derive macro's
/// generated code).
///
/// # Errors
///
/// Returns the value's error, prefixed with the field and type it was for.
#[doc(hidden)]
pub fn field<T: Deserialize>(
    de: &mut Deserializer<'_>,
    key: &str,
    context: &str,
) -> Result<T, Error> {
    T::deserialize(de).map_err(|e| e.context(format_args!("field `{key}` of `{context}`")))
}

/// The error for a struct field absent from its object (used by the derive
/// macro's generated code).
#[doc(hidden)]
#[must_use]
pub fn missing_field(de: &Deserializer<'_>, key: &str, context: &str) -> Error {
    de.error(format!("missing field `{key}` in `{context}`"))
}

/// Reads element `index` of an array already opened with
/// [`Deserializer::begin_seq`] (used for tuples and by the derive macro's
/// generated code).
///
/// # Errors
///
/// Returns an error when the array ends early or the element has the wrong
/// shape.
#[doc(hidden)]
pub fn element<T: Deserialize>(
    de: &mut Deserializer<'_>,
    index: usize,
    context: &str,
) -> Result<T, Error> {
    if !de.next_element()? {
        return Err(de.error(format!("missing element {index} in `{context}`")));
    }
    T::deserialize(de).map_err(|e| e.context(format_args!("element {index} of `{context}`")))
}

/// Appends the decimal digits of `x`, preceded by `-` when `negative`.
fn write_integer(out: &mut String, negative: bool, mut x: u64) {
    let mut digits = [0u8; 21];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    if negative {
        at -= 1;
        digits[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

macro_rules! impl_integer {
    ($read:ident: $($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize(&self, out: &mut String) {
                // Every supported integer's magnitude fits in a `u64`.
                let wide = *self as i128;
                write_integer(out, wide < 0, wide.unsigned_abs() as u64);
            }
        }
        impl Deserialize for $ty {
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
                let start = de.offset();
                let raw = de.$read()?;
                <$ty>::try_from(raw).map_err(|_| {
                    Error::at(format!("{raw} out of range for {}", stringify!($ty)), start)
                })
            }
        }
    )*};
}

impl_integer!(u64: u8, u16, u32, u64, usize);
impl_integer!(i64: i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, out: &mut String) {
        write_f64(out, *self);
    }
}

impl Deserialize for f64 {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.f64()
    }
}

impl Serialize for f32 {
    fn serialize(&self, out: &mut String) {
        write_f64(out, f64::from(*self));
    }
}

impl Deserialize for f32 {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        Ok(de.f64()? as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.bool()
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl Deserialize for String {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.string().map(Cow::into_owned)
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(inner) => inner.serialize(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        if de.eat_null() {
            Ok(None)
        } else {
            T::deserialize(de).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.begin_seq()?;
        let mut items = Vec::new();
        while de.next_element()? {
            items.push(T::deserialize(de)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        let start = de.offset();
        let items = Vec::<T>::deserialize(de)?;
        let found = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| Error::at(format!("expected {N} elements, found {found}"), start))
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))+) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, out: &mut String) {
                out.push('[');
                $(
                    if $idx > 0 {
                        out.push(',');
                    }
                    self.$idx.serialize(out);
                )+
                out.push(']');
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
                de.begin_seq()?;
                let value = ($(element::<$name>(de, $idx, "tuple")?,)+);
                de.end_seq()?;
                Ok(value)
            }
        }
    )+};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, out: &mut String) {
        out.push('[');
        for (i, (k, v)) in self.iter().enumerate() {
            out.push_str(if i > 0 { ",[" } else { "[" });
            k.serialize(out);
            out.push(',');
            v.serialize(out);
            out.push(']');
        }
        out.push(']');
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.begin_seq()?;
        let mut map = BTreeMap::new();
        while de.next_element()? {
            de.begin_seq()?;
            let key = element::<K>(de, 0, "map key")?;
            let value = element::<V>(de, 1, "map value")?;
            de.end_seq()?;
            map.insert(key, value);
        }
        Ok(map)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        T::deserialize(de).map(Box::new)
    }
}

impl Serialize for std::time::Duration {
    fn serialize(&self, out: &mut String) {
        let _ = write!(out, "[{},{}]", self.as_secs(), self.subsec_nanos());
    }
}

impl Deserialize for std::time::Duration {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.begin_seq()?;
        let secs = element::<u64>(de, 0, "Duration")?;
        let nanos = element::<u32>(de, 1, "Duration")?;
        de.end_seq()?;
        // `Duration::new` carries whole seconds out of `nanos` and panics
        // when that overflows.
        std::time::Duration::from_secs(secs)
            .checked_add(std::time::Duration::from_nanos(u64::from(nanos)))
            .ok_or_else(|| de.error("Duration overflows"))
    }
}
