//! Minimal, dependency-free JSON for the DVA reproduction's wire and
//! disk formats.
//!
//! The workspace ships no external crates (the build environment is
//! offline), so the sweep service's cache files and network protocol are
//! built on this hand-rolled JSON layer instead of `serde`. It has one
//! renderer and one parser:
//!
//! * a [`Writer`], which appends compact JSON to a `String`, and
//! * a [`Reader`], a pull reader over the source `&str`.
//!
//! Typed values go through them directly, with no intermediate tree:
//! [`ToJson::write_json`] writes a value straight to bytes, and
//! [`FromJson::read_json`] reads one straight from text. Unescaped
//! strings are borrowed from the source, integers are parsed in place,
//! and no object key is allocated. The dynamic [`Json`] value is just one
//! more type read and written by the same pair: [`Json::parse`] and
//! [`Json::render`] are [`Reader`] and [`Writer`] calls, and a typed
//! value's [`ToJson::to_json`] tree is read back from its written bytes.
//!
//! The contract the rest of the workspace leans on:
//!
//! * **Determinism.** Objects preserve insertion order and the writer
//!   emits no whitespace, so the same value always renders to the same
//!   bytes. Cache keys and golden-format tests can compare rendered
//!   strings directly.
//! * **Exact round-trips.** Integers are carried as `i64` (never through
//!   a double), and floats render via Rust's shortest-round-trip
//!   formatting, so `parse(render(v)) == v` holds for every value the
//!   simulators produce.
//! * **Tolerant, tree-equivalent decoding.** A typed read accepts
//!   exactly the documents [`Json::parse`] followed by [`Json::field`]
//!   lookups accepts: fields in any order, unknown fields ignored, the
//!   first of duplicate keys winning, [`MAX_DEPTH`] enforced and
//!   trailing characters rejected. A document that does not parse fails
//!   with [`Json::parse`]'s message; a well-formed one that does not
//!   decode fails with the message of the first field lookup or
//!   conversion that fails.
//! * **Linear time.** Parse and render are linear in input length.
//!   Strings are copied run by run between the bytes that need an
//!   escape. Fields in the order the writer emits them cost one key
//!   comparison each; an out-of-order field is found by scanning ahead
//!   once, remembering the members passed over, so each byte of an
//!   object is skipped at most once more than it is read.
//!   [`Reader::examined`] counts the bytes a read went over.
//!
//! # Examples
//!
//! ```
//! use dva_json::{FromJson, Json, JsonError, Reader, ToJson, Writer};
//!
//! let value = Json::obj([
//!     ("cycles", Json::from(83930u64)),
//!     ("label", Json::from("REF")),
//!     ("ports", Json::Array(vec![Json::Float(0.25)])),
//! ]);
//! let text = value.render();
//! assert_eq!(text, r#"{"cycles":83930,"label":"REF","ports":[0.25]}"#);
//! assert_eq!(Json::parse(&text).unwrap(), value);
//!
//! // A typed value writes and reads itself without building a tree.
//! #[derive(Debug, PartialEq)]
//! struct Point {
//!     cycles: u64,
//!     label: String,
//! }
//!
//! impl ToJson for Point {
//!     fn write_json(&self, w: &mut Writer<'_>) {
//!         w.object(|w| {
//!             w.field("cycles", &self.cycles);
//!             w.field("label", self.label.as_str());
//!         })
//!     }
//! }
//!
//! impl FromJson for Point {
//!     fn read_json(r: &mut Reader<'_>) -> Result<Point, JsonError> {
//!         r.object(|o| {
//!             Ok(Point {
//!                 cycles: o.field("cycles")?,
//!                 label: o.field("label")?,
//!             })
//!         })
//!     }
//! }
//!
//! let point = Point { cycles: 7, label: "DVA".to_string() };
//! assert_eq!(point.render_json(), r#"{"cycles":7,"label":"DVA"}"#);
//! // Any field order decodes; unknown fields are skipped.
//! let back = Point::parse_json(r#"{"label":"DVA","extra":[1],"cycles":7}"#).unwrap();
//! assert_eq!(back, point);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::ops::RangeInclusive;

/// A parsed JSON value.
///
/// Objects are insertion-ordered key/value vectors rather than hash
/// maps: rendering is byte-stable, and the handful of fields a result
/// carries makes linear lookup ([`Json::get`]) cheap.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fractional part or exponent, carried exactly.
    Int(i64),
    /// A number with a fractional part or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, preserving insertion order.
    Object(Vec<(String, Json)>),
}

/// How deeply arrays and objects may nest in a document the [`Reader`]
/// accepts. The reader recurses once per level, so the limit keeps a
/// hostile document (a long run of `[`) from overflowing the stack; the
/// workspace's own documents nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// A parse or decode error, with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// An error with the given message.
    pub fn msg(message: impl Into<String>) -> JsonError {
        JsonError(message.into())
    }
}

/// Values that serialize to JSON.
pub trait ToJson {
    /// Writes this value's JSON form.
    fn write_json(&self, w: &mut Writer<'_>);

    /// This value's JSON text.
    fn render_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut Writer::new(&mut out));
        out
    }

    /// This value as a dynamic [`Json`] tree, read back from its
    /// [`render_json`](ToJson::render_json) text.
    fn to_json(&self) -> Json {
        Json::parse(&self.render_json()).expect("the writer emits valid JSON")
    }
}

/// Values that deserialize from JSON.
pub trait FromJson: Sized {
    /// Reads one value of this type at the reader's position.
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError>;

    /// Decodes a whole document (see [`Reader::decode`]).
    fn parse_json(text: &str) -> Result<Self, JsonError> {
        Reader::decode(text, Self::read_json)
    }

    /// Reconstructs a value from its [`ToJson::to_json`] tree.
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Self::parse_json(&json.render())
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value of `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value of `key`, or an error naming the missing field.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key).ok_or_else(|| missing(key, self.kind()))
    }

    /// This value as a bool.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(expected("bool", other.kind())),
        }
    }

    /// This value as an `i64` (floats are rejected).
    pub fn as_i64(&self) -> Result<i64, JsonError> {
        match self {
            Json::Int(i) => Ok(*i),
            other => Err(expected("integer", other.kind())),
        }
    }

    /// This value as a `u64` (negative values are rejected).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        non_negative(self.as_i64()?)
    }

    /// This value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Int(i) => Ok(*i as f64),
            Json::Float(f) => Ok(*f),
            other => Err(expected("number", other.kind())),
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(expected("string", other.kind())),
        }
    }

    /// This value as an array slice.
    pub fn as_array(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(expected("array", other.kind())),
        }
    }

    /// A short name of this value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "integer",
            Json::Float(_) => "float",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// Renders this value as compact JSON with no whitespace. The output
    /// is byte-stable: equal values always render to equal strings.
    pub fn render(&self) -> String {
        self.render_json()
    }

    /// Parses a JSON document. Trailing whitespace is allowed; trailing
    /// non-whitespace is an error, and so is nesting arrays and objects
    /// deeper than [`MAX_DEPTH`] levels.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Reader::new(text).document(Reader::json)
    }
}

fn missing(key: &str, kind: &str) -> JsonError {
    JsonError(format!("missing field `{key}` in {kind}"))
}

fn expected(what: &str, kind: &str) -> JsonError {
    JsonError(format!("expected {what}, found {kind}"))
}

fn non_negative<T: TryFrom<i64>>(i: i64) -> Result<T, JsonError> {
    T::try_from(i).map_err(|_| JsonError("expected non-negative integer".to_string()))
}

impl ToJson for Json {
    fn write_json(&self, w: &mut Writer<'_>) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Int(i) => w.i64(*i),
            Json::Float(f) => w.f64(*f),
            Json::Str(s) => w.str(s),
            Json::Array(items) => items.write_json(w),
            Json::Object(fields) => w.object(|w| {
                for (key, value) in fields {
                    w.field(key, value);
                }
            }),
        }
    }
}

impl FromJson for Json {
    fn read_json(r: &mut Reader<'_>) -> Result<Json, JsonError> {
        r.json()
    }
}

/// Appends compact JSON to a `String`: no whitespace, object fields in
/// the order they are written, integers exact and floats in Rust's
/// shortest round-trip form. Commas are placed by the writer, so callers
/// only say what comes next.
///
/// ```
/// use dva_json::Writer;
///
/// let mut out = String::from("key=");
/// let mut w = Writer::new(&mut out);
/// w.object(|w| {
///     w.field("n", &3u64);
///     w.key("xs");
///     w.array(|w| {
///         w.f64(0.5);
///         w.null();
///     });
/// });
/// assert_eq!(out, r#"key={"n":3,"xs":[0.5,null]}"#);
/// ```
pub struct Writer<'o> {
    out: &'o mut String,
    /// Whether the next value or key follows a sibling and needs a `,`.
    comma: bool,
}

impl<'o> Writer<'o> {
    /// A writer appending to `out`.
    pub fn new(out: &'o mut String) -> Writer<'o> {
        Writer { out, comma: false }
    }

    /// Starts a value: the separating comma, if a sibling precedes it.
    #[inline]
    fn value(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        self.out
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.value().push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.value().push_str(if b { "true" } else { "false" });
    }

    /// Writes an integer.
    pub fn i64(&mut self, i: i64) {
        let out = self.value();
        if i < 0 {
            out.push('-');
        }
        push_digits(out, i.unsigned_abs());
    }

    /// Writes a non-negative integer.
    ///
    /// # Panics
    ///
    /// Panics above `i64::MAX`, which a JSON integer here cannot carry.
    pub fn u64(&mut self, u: u64) {
        let i = i64::try_from(u).expect("u64 value exceeds JSON integer range");
        push_digits(self.value(), i.unsigned_abs());
    }

    /// Writes a float. Rust's float `Debug` prints the shortest string
    /// that round-trips and always includes a `.` or an exponent, so the
    /// value reads back as a float, exactly.
    ///
    /// # Panics
    ///
    /// Panics on NaN or an infinity, which JSON cannot carry.
    pub fn f64(&mut self, f: f64) {
        assert!(f.is_finite(), "JSON cannot carry NaN or infinity");
        use fmt::Write as _;
        let _ = write!(self.value(), "{f:?}");
    }

    /// Writes a string literal.
    pub fn str(&mut self, s: &str) {
        write_string(s, self.value());
    }

    /// Writes an array whose elements `items` writes.
    pub fn array<R>(&mut self, items: impl FnOnce(&mut Self) -> R) -> R {
        self.nested(b'[', b']', items)
    }

    /// Writes an object whose fields `fields` writes (with
    /// [`key`](Writer::key) and a value, or [`field`](Writer::field)).
    pub fn object<R>(&mut self, fields: impl FnOnce(&mut Self) -> R) -> R {
        self.nested(b'{', b'}', fields)
    }

    fn nested<R>(&mut self, open: u8, close: u8, inner: impl FnOnce(&mut Self) -> R) -> R {
        self.value().push(open as char);
        self.comma = false;
        let result = inner(self);
        self.out.push(close as char);
        self.comma = true;
        result
    }

    /// Writes an object key; the next value written is its value.
    #[inline]
    pub fn key(&mut self, key: &str) {
        write_string(key, self.value());
        self.out.push(':');
        self.comma = false;
    }

    /// Writes one object field.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.write_json(self);
    }
}

/// Appends the decimal digits of `u`.
#[inline]
fn push_digits(out: &mut String, mut u: u64) {
    if u < 10 {
        out.push(char::from(b'0' + u as u8));
        return;
    }
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Writes `s` as a JSON string literal. Runs that need no escape are
/// copied with one `push_str`; only `"`, `\` and bytes below 0x20 are
/// escaped. All three are ASCII, so every run ends on a char boundary.
#[inline]
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    // Most strings need no escape: one branch-free check (which the
    // compiler vectorizes) and one copy.
    if !s.bytes().fold(false, |any, b| any | needs_escape(b)) {
        out.push_str(s);
        out.push('"');
        return;
    }
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[run_start..i]);
        run_start = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// A pull reader over JSON text: the one parser behind [`Json::parse`]
/// and every [`FromJson`] impl.
///
/// Each read consumes exactly one value at the current position. Scalar
/// reads check the value's type with the same messages as the [`Json`]
/// accessors (`expected integer, found string`, …);
/// [`object`](Reader::object) hands the value's members out by key
/// through [`Fields`].
///
/// [`Reader::decode`] is the entry point for a whole document.
pub struct Reader<'a> {
    /// The document; `bytes` is its byte view.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
    /// Bytes examined apart from those behind `pos`: grows when the
    /// reader moves back or looks ahead, shrinks when it jumps forward
    /// over bytes it already went over.
    extra: i64,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            extra: 0,
        }
    }

    /// Decodes `text` as one document read by `read`, allowing
    /// whitespace around it and nothing else.
    ///
    /// # Errors
    ///
    /// A document that does not parse fails with the error
    /// [`Json::parse`] reports for it. A well-formed document fails with
    /// the first error `read` returns.
    pub fn decode<T>(
        text: &'a str,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        Reader::new(text).document(read).map_err(|e| {
            // Only reached on failure: one more linear pass decides
            // whether the document itself is malformed.
            Reader::new(text).document(Reader::skip).err().unwrap_or(e)
        })
    }

    fn document<T>(
        &mut self,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        self.skip_ws();
        let value = read(self)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(JsonError(format!(
                "trailing characters at byte {} of {}",
                self.pos,
                self.bytes.len()
            )));
        }
        Ok(value)
    }

    /// Bytes of the document this reader has gone over so far, counting
    /// a byte again each time it is re-read or looked ahead at.
    pub fn examined(&self) -> u64 {
        (self.pos as i64 + self.extra) as u64
    }

    /// Moves to byte `to`, keeping [`examined`](Reader::examined) a count
    /// of bytes actually gone over.
    #[inline]
    fn seek(&mut self, to: usize) {
        self.extra += self.pos as i64 - to as i64;
        self.pos = to;
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(JsonError(format!("invalid literal at byte {}", self.pos)))
        }
    }

    /// The type name of the value at the current position, for error
    /// messages (the names of [`Json::kind`]).
    fn kind(&self) -> &'static str {
        match self.peek() {
            Some(b'n') => "null",
            Some(b't' | b'f') => "bool",
            Some(b'"') => "string",
            Some(b'[') => "array",
            Some(b'{') => "object",
            Some(b'-' | b'0'..=b'9') => {
                let (_, float) = self.number_token();
                if float {
                    "float"
                } else {
                    "integer"
                }
            }
            _ => "invalid value",
        }
    }

    /// Reads any value as a dynamic [`Json`] tree.
    fn json(&mut self) -> Result<Json, JsonError> {
        Ok(match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.elements(|r| {
                    items.push(r.json()?);
                    Ok(())
                })?;
                Json::Array(items)
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.members(|key, r| {
                    fields.push((key.into_owned(), r.json()?));
                    Ok(())
                })?;
                Json::Object(fields)
            }
            Some(b'"') => Json::Str(self.string()?.into_owned()),
            _ => self.scalar()?,
        })
    }

    /// Reads past one value of any type, checking it as
    /// [`json`](Reader::json) would without building it.
    fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'[') => self.elements(Reader::skip),
            Some(b'{') => self.members(|_, r| r.skip()),
            Some(b'"') => self.string().map(drop),
            _ => self.scalar().map(drop),
        }
    }

    /// A null, a bool or a number.
    fn scalar(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(JsonError(format!(
                "unexpected `{}` at byte {}",
                other as char, self.pos
            ))),
            None => Err(JsonError("unexpected end of input".to_string())),
        }
    }

    /// Reads `null` as `None`, anything else with `read`.
    pub fn nullable<T>(
        &mut self,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
    ) -> Result<Option<T>, JsonError> {
        if self.peek() == Some(b'n') {
            self.literal("null").map(|()| None)
        } else {
            read(self).map(Some)
        }
    }

    /// Reads a bool.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        match self.peek() {
            Some(b't' | b'f') => match self.scalar()? {
                Json::Bool(b) => Ok(b),
                _ => unreachable!("`t` and `f` start only bools"),
            },
            _ => Err(expected("bool", self.kind())),
        }
    }

    /// Reads an integer (floats are rejected).
    #[inline]
    pub fn i64(&mut self) -> Result<i64, JsonError> {
        // Fast path: up to 18 digits (no overflow possible) that end the
        // number, accumulated in place.
        let negative = self.peek() == Some(b'-');
        let start = self.pos + usize::from(negative);
        let mut end = start;
        let mut value = 0i64;
        while end - start < 18 {
            match self.bytes.get(end) {
                Some(&b) if b.is_ascii_digit() => value = value * 10 + i64::from(b - b'0'),
                _ => break,
            }
            end += 1;
        }
        let ends_number = !matches!(
            self.bytes.get(end),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        );
        if end > start && ends_number {
            self.pos = end;
            return Ok(if negative { -value } else { value });
        }
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => match self.number()? {
                Json::Int(i) => Ok(i),
                _ => Err(expected("integer", "float")),
            },
            _ => Err(expected("integer", self.kind())),
        }
    }

    /// Reads a non-negative integer.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, JsonError> {
        non_negative(self.i64()?)
    }

    /// Reads a non-negative integer as a `usize`.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, JsonError> {
        non_negative(self.i64()?)
    }

    /// Reads a number (integers widen).
    pub fn f64(&mut self) -> Result<f64, JsonError> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => match self.number()? {
                Json::Int(i) => Ok(i as f64),
                Json::Float(f) => Ok(f),
                _ => unreachable!("numbers are integers or floats"),
            },
            _ => Err(expected("number", self.kind())),
        }
    }

    /// Reads a string, borrowed from the source unless it has escapes.
    pub fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        match self.peek() {
            Some(b'"') => self.string(),
            _ => Err(expected("string", self.kind())),
        }
    }

    /// Reads an array, calling `each` once per element with the reader
    /// at the element (`each` must read it).
    pub fn elements(
        &mut self,
        mut each: impl FnMut(&mut Reader<'a>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.peek() != Some(b'[') {
            return Err(expected("array", self.kind()));
        }
        self.nested(|r| {
            if r.open(b']')? {
                loop {
                    r.skip_ws();
                    each(r)?;
                    if r.peek() == Some(b',') {
                        r.pos += 1;
                        continue;
                    }
                    r.skip_ws();
                    match r.peek() {
                        Some(b',') => r.pos += 1,
                        Some(b']') => {
                            r.pos += 1;
                            break;
                        }
                        _ => {
                            return Err(JsonError(format!("expected `,` or `]` at byte {}", r.pos)))
                        }
                    }
                }
            }
            Ok(())
        })
    }

    /// How many elements the array at the current position holds, if a
    /// look ahead to its `]` can tell without reading nested values or
    /// strings; `0` otherwise. A capacity hint only.
    fn len_hint(&mut self) -> usize {
        if self.peek() != Some(b'[') {
            return 0;
        }
        let rest = &self.bytes[self.pos + 1..];
        let stops = |b: u8| matches!(b, b']' | b'"' | b'[' | b'{');
        // Whole chunks without a stop byte first (a branch-free count the
        // compiler vectorizes), then the chunk holding the stop.
        let mut commas = 0;
        let mut seen = 0;
        for chunk in rest.chunks(32) {
            if chunk.iter().fold(false, |stop, &b| stop | stops(b)) {
                break;
            }
            commas += chunk.iter().filter(|&&b| b == b',').count();
            seen += chunk.len();
        }
        let stop = rest[seen..].iter().position(|&b| stops(b));
        self.extra += (seen + stop.map_or(rest.len() - seen, |at| at + 1)) as i64;
        let Some(at) = stop else { return 0 };
        let empty = rest
            .iter()
            .find(|b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .is_some_and(|&b| b == b']');
        if rest[seen + at] != b']' || empty {
            return 0;
        }
        commas + rest[seen..seen + at].iter().filter(|&&b| b == b',').count() + 1
    }

    /// Reads an object, handing its members to `read` by key through
    /// [`Fields`]. Members `read` does not ask for are checked and
    /// skipped. A value that is not an object has no fields: every
    /// lookup reports the field missing in it.
    pub fn object<T>(
        &mut self,
        read: impl FnOnce(&mut Fields<'_, 'a>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        if self.peek() != Some(b'{') {
            let kind = self.kind();
            let value = read(&mut Fields {
                reader: self,
                cursor: 0,
                done: true,
                passed: None,
                kind,
            })?;
            self.skip()?;
            return Ok(value);
        }
        self.nested(|r| {
            let done = !r.open(b'}')?;
            let mut fields = Fields {
                cursor: r.pos,
                reader: r,
                done,
                passed: None,
                kind: "object",
            };
            let value = read(&mut fields)?;
            fields.finish()?;
            Ok(value)
        })
    }

    /// Reads an object member by member, in document order, calling
    /// `each` with every key and the reader at its value.
    fn members(
        &mut self,
        mut each: impl FnMut(Cow<'a, str>, &mut Reader<'a>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.nested(|r| {
            if r.open(b'}')? {
                loop {
                    let key = r.member_key()?;
                    each(key, r)?;
                    if !r.member_end()? {
                        break;
                    }
                }
            }
            Ok(())
        })
    }

    /// Runs `inner` one nesting level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = inner(self);
        self.depth -= 1;
        value
    }

    /// Steps past the opening bracket at the current position; `false`
    /// (having consumed `close` too) when the container is empty.
    fn open(&mut self, close: u8) -> Result<bool, JsonError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// Reads a member's key and its `:`, leaving the reader at the value.
    fn member_key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// Whether the member at the current position is `"key":` spelled
    /// exactly, with no whitespace — one comparison, no decoding. If so,
    /// steps past it to the value. Exact only for a plain `key` (see
    /// [`Fields`]): a `"` or `\` in it could match bytes that are not
    /// that key.
    #[inline]
    fn key_is(&mut self, key: &str) -> bool {
        debug_assert!(
            !key.contains(['"', '\\']),
            "field name `{key}` is not plain"
        );
        let (at, end) = (self.pos, self.pos + 1 + key.len());
        let spelled = self.bytes.get(at) == Some(&b'"')
            && self.bytes.get(at + 1..end) == Some(key.as_bytes())
            && self.bytes.get(end..end + 2) == Some(b"\":");
        if spelled {
            self.pos = end + 2;
            self.skip_ws();
        }
        spelled
    }

    /// Reads what follows a member's value: `,` (`true`, another member
    /// follows) or the closing `}` (`false`).
    #[inline]
    fn member_end(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b'}') => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(JsonError(format!(
                "expected `,` or `}}` at byte {}",
                self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` as one slice. Both
            // stop bytes are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            let run_text = &self.text[self.pos..self.pos + run];
            self.pos += run;
            match self.peek() {
                None => return Err(JsonError("unterminated string".to_string())),
                Some(b'"') if self.pos - run == start => {
                    // No escape anywhere: borrow the source.
                    self.pos += 1;
                    return Ok(Cow::Borrowed(run_text));
                }
                Some(b'"') => {
                    out.push_str(run_text);
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(_) => {
                    out.push_str(run_text);
                    // The run stopped at a `\`: decode one escape.
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| JsonError("unterminated escape".to_string()))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| JsonError("bad \\u escape".to_string()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError("bad \\u escape".to_string()))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // writer; reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| JsonError("bad \\u code point".to_string()))?;
                            out.push(c);
                        }
                        other => {
                            return Err(JsonError(format!("bad escape `\\{}`", other as char)));
                        }
                    }
                }
            }
        }
    }

    /// The number token at the current position and whether it is a
    /// float (it has a fraction or an exponent), without moving.
    fn number_token(&self) -> (&'a str, bool) {
        let start = self.pos;
        let mut end = start;
        if self.bytes.get(end) == Some(&b'-') {
            end += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(end) {
            match b {
                b'0'..=b'9' => end += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    end += 1;
                }
                _ => break,
            }
        }
        (&self.text[start..end], float)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let (text, float) = self.number_token();
        self.pos += text.len();
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| JsonError(format!("invalid number `{text}`")))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| JsonError(format!("invalid number `{text}`")))
        }
    }
}

/// The members of one object being read by [`Reader::object`], handed
/// out by key.
///
/// Fields asked for in document order cost one key comparison each. A
/// field asked for out of order is found by reading ahead; the members
/// passed over on the way are remembered by key, so a later lookup of
/// one of them jumps straight back to its value. The first of duplicate
/// keys wins, as with [`Json::get`].
///
/// Field names passed in must be plain — free of `"` and `\` — as every
/// name a type's JSON form uses is: the in-order lookup compares the
/// name with the document's bytes, which equals decoding the key only
/// for plain names. Debug builds check this.
pub struct Fields<'r, 'a> {
    reader: &'r mut Reader<'a>,
    /// Where the next member not yet read starts or, once `done`, where
    /// the object ends (just past its `}`).
    cursor: usize,
    done: bool,
    /// Members read past while looking for another field: key → where
    /// the value starts. Created by the first out-of-order lookup.
    passed: Option<HashMap<Cow<'a, str>, usize>>,
    /// `"object"`, or the type of a value that is not an object.
    kind: &'static str,
}

impl<'a> Fields<'_, 'a> {
    /// Reads field `key` as a `T`.
    ///
    /// # Errors
    ///
    /// `missing field `key` in object` when the object has no such
    /// field, or the error reading the value.
    pub fn field<T: FromJson>(&mut self, key: &str) -> Result<T, JsonError> {
        self.field_with(key, T::read_json)
    }

    /// Reads field `key` as a `T` that `range` must hold — for the shape
    /// fields of a decoded configuration that size storage or a per-tick
    /// scan, so one document cannot ask for an unbounded machine.
    ///
    /// # Errors
    ///
    /// As [`field`](Fields::field), or `field `key` = value outside
    /// start..=end` when the value is out of range.
    pub fn field_in<T: FromJson + PartialOrd + fmt::Display>(
        &mut self,
        key: &str,
        range: RangeInclusive<T>,
    ) -> Result<T, JsonError> {
        let value: T = self.field(key)?;
        if range.contains(&value) {
            Ok(value)
        } else {
            Err(JsonError(format!(
                "field `{key}` = {value} outside {}..={}",
                range.start(),
                range.end()
            )))
        }
    }

    /// Reads field `key` with `read`.
    ///
    /// # Errors
    ///
    /// As [`field`](Fields::field).
    pub fn field_with<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        match self.optional_with(key, read)? {
            Some(value) => Ok(value),
            None => Err(missing(key, self.kind)),
        }
    }

    /// Reads field `key` with `read` if the object has it.
    fn optional_with<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
    ) -> Result<Option<T>, JsonError> {
        // The common case, in a document our writer wrote: the next
        // member is `key`, and no member has been passed over whose key
        // could be an earlier duplicate.
        if !self.done && self.passed.is_none() {
            self.reader.seek(self.cursor);
            if self.reader.key_is(key) {
                let value = read(self.reader)?;
                self.step()?;
                return Ok(Some(value));
            }
        }
        let Some((at, in_order)) = self.locate(key)? else {
            return Ok(None);
        };
        self.reader.seek(at);
        let value = read(self.reader)?;
        if in_order {
            self.step()?;
        }
        Ok(Some(value))
    }

    /// Reads field `key` as a `T` if the object has it and its value
    /// reads as a `T`; `None` otherwise. For optional fields whose
    /// malformed value older readers ignored.
    pub fn lenient<T: FromJson>(&mut self, key: &str) -> Result<Option<T>, JsonError> {
        let value = self.optional_with(key, |r| {
            let start = r.pos;
            match T::read_json(r) {
                Ok(value) => Ok(Some(value)),
                Err(_) => {
                    r.seek(start);
                    r.skip().map(|()| None)
                }
            }
        })?;
        Ok(value.flatten())
    }

    /// Where the value of `key` starts, and whether it is the member at
    /// the cursor (read in document order).
    #[inline(never)]
    fn locate(&mut self, key: &str) -> Result<Option<(usize, bool)>, JsonError> {
        if let Some(&at) = self.passed.as_ref().and_then(|passed| passed.get(key)) {
            return Ok(Some((at, false)));
        }
        while !self.done {
            self.reader.seek(self.cursor);
            let name = self.reader.member_key()?;
            if name == key {
                return Ok(Some((self.reader.pos, true)));
            }
            let passed = self.passed.get_or_insert_with(HashMap::new);
            passed.entry(name).or_insert(self.reader.pos);
            self.reader.skip()?;
            self.step()?;
        }
        Ok(None)
    }

    /// Moves the cursor past the member whose value was just read.
    #[inline]
    fn step(&mut self) -> Result<(), JsonError> {
        self.done = !self.reader.member_end()?;
        self.cursor = self.reader.pos;
        Ok(())
    }

    /// Skips the members not read yet and leaves the reader past the
    /// object.
    fn finish(mut self) -> Result<(), JsonError> {
        while !self.done {
            self.reader.seek(self.cursor);
            self.reader.member_key()?;
            self.reader.skip()?;
            self.step()?;
        }
        self.reader.seek(self.cursor);
        Ok(())
    }
}

impl FromJson for bool {
    fn read_json(r: &mut Reader<'_>) -> Result<bool, JsonError> {
        r.bool()
    }
}

impl FromJson for u64 {
    fn read_json(r: &mut Reader<'_>) -> Result<u64, JsonError> {
        r.u64()
    }
}

impl FromJson for usize {
    fn read_json(r: &mut Reader<'_>) -> Result<usize, JsonError> {
        r.usize()
    }
}

impl FromJson for f64 {
    fn read_json(r: &mut Reader<'_>) -> Result<f64, JsonError> {
        r.f64()
    }
}

impl FromJson for String {
    fn read_json(r: &mut Reader<'_>) -> Result<String, JsonError> {
        r.str().map(Cow::into_owned)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    /// `null` reads as `None`.
    fn read_json(r: &mut Reader<'_>) -> Result<Option<T>, JsonError> {
        r.nullable(T::read_json)
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Vec<T>, JsonError> {
        let mut items = Vec::with_capacity(r.len_hint());
        r.elements(|r| {
            items.push(T::read_json(r)?);
            Ok(())
        })?;
        Ok(items)
    }
}

impl ToJson for bool {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.bool(*self);
    }
}

impl ToJson for u64 {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.u64(*self);
    }
}

impl ToJson for u32 {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.u64(u64::from(*self));
    }
}

impl ToJson for usize {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.u64(*self as u64);
    }
}

impl ToJson for f64 {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.f64(*self);
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.str(self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.str(self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut Writer<'_>) {
        (**self).write_json(w);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    /// `None` writes `null`.
    fn write_json(&self, w: &mut Writer<'_>) {
        match self {
            Some(value) => value.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.array(|w| {
            for item in self {
                item.write_json(w);
            }
        });
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut Writer<'_>) {
        self.as_slice().write_json(w);
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::Int(i64::try_from(u).expect("u64 value exceeds JSON integer range"))
    }
}

impl From<u32> for Json {
    fn from(u: u32) -> Json {
        Json::Int(i64::from(u))
    }
}

impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::from(u as u64)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_compact_and_ordered() {
        let v = Json::obj([
            ("b", Json::from(1u64)),
            ("a", Json::Array(vec![Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(v.render(), r#"{"b":1,"a":[null,true]}"#);
    }

    #[test]
    fn parse_round_trips_every_kind() {
        let v = Json::obj([
            ("null", Json::Null),
            ("bool", Json::Bool(false)),
            ("int", Json::Int(-42)),
            ("float", Json::Float(0.1)),
            ("str", Json::from("hi \"there\"\n")),
            ("arr", Json::Array(vec![Json::Int(1), Json::Int(2)])),
            ("obj", Json::obj([("nested", Json::Int(3))])),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Render → parse → render is a fixed point (byte stability).
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn floats_round_trip_exactly() {
        #[allow(clippy::excessive_precision)] // deliberate: the literal rounds to f64
        for f in [0.1, 1.0 / 3.0, 1e-300, 123456789.123456789, -0.0] {
            let text = Json::Float(f).render();
            match Json::parse(&text).unwrap() {
                Json::Float(back) => assert_eq!(back.to_bits(), f.to_bits(), "{text}"),
                other => panic!("expected float back, got {other:?}"),
            }
        }
    }

    #[test]
    fn large_integers_are_exact() {
        let big = (1i64 << 60) + 12345;
        let text = Json::Int(big).render();
        assert_eq!(Json::parse(&text).unwrap().as_i64().unwrap(), big);
    }

    #[test]
    fn whitespace_is_tolerated_on_parse() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } \n").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.render(), r#"{"a":[1,2],"b":null}"#);
    }

    #[test]
    fn errors_name_the_problem() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        let missing = Json::obj([("x", Json::Null)]).field("y").unwrap_err();
        assert!(missing.to_string().contains("`y`"));
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let deepest = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&deepest).is_ok());
        let too_deep = "[".repeat(MAX_DEPTH) + "{}" + &"]".repeat(MAX_DEPTH);
        let err = Json::parse(&too_deep).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
        // A hostile run of brackets fails cleanly instead of overflowing
        // the stack.
        let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn megabyte_strings_parse_and_render_in_linear_time() {
        // Linear: about 0.01 s each. Quadratic: about 20 s.
        let long = "a".repeat(1 << 20) + "\\\"é\n";
        let text = Json::from(long.as_str()).render();
        let start = std::time::Instant::now();
        let parsed = Json::parse(&text).unwrap();
        let parse_time = start.elapsed();
        assert_eq!(parsed.as_str().unwrap(), long);
        let start = std::time::Instant::now();
        let rendered = parsed.render();
        let render_time = start.elapsed();
        assert_eq!(rendered, text);
        let bound = std::time::Duration::from_secs(1);
        assert!(parse_time < bound, "parse took {parse_time:?}");
        assert!(render_time < bound, "render took {render_time:?}");
    }

    /// The per-character writer `write_string` replaced, kept verbatim as
    /// the oracle for byte identity.
    fn reference_write_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    use fmt::Write as _;
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Strings mixing every byte class the writer and parser treat
    /// differently: quotes, backslashes, every control byte, plain ASCII
    /// and one- to four-byte UTF-8.
    fn any_string() -> impl proptest::prelude::Strategy<Value = String> {
        use proptest::prelude::*;
        let chars = prop_oneof![
            Just('"'),
            Just('\\'),
            Just('/'),
            (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
            (0x20u32..0x80).prop_map(|c| char::from_u32(c).unwrap()),
            (0x80u32..0x800).prop_map(|c| char::from_u32(c).unwrap()),
            (0x800u32..0xd800).prop_map(|c| char::from_u32(c).unwrap()),
            (0xe000u32..0x1_0000).prop_map(|c| char::from_u32(c).unwrap()),
            (0x1_0000u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap()),
        ];
        collection::vec(chars, 0..48).prop_map(|cs| cs.into_iter().collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn strings_round_trip_byte_identically(s in any_string()) {
            let mut expected = String::new();
            reference_write_string(&s, &mut expected);
            let text = Json::from(s.as_str()).render();
            proptest::prop_assert_eq!(&text, &expected);
            proptest::prop_assert_eq!(Json::parse(&text).unwrap(), Json::Str(s.clone()));
            // Keys take the same path.
            let object = Json::obj([(s.as_str(), Json::Null)]);
            let text = object.render();
            proptest::prop_assert_eq!(&text, &format!("{{{expected}:null}}"));
            proptest::prop_assert_eq!(Json::parse(&text).unwrap(), object);
        }

        #[test]
        fn escapes_between_runs_decode_to_their_chars(
            s in any_string(),
            escape in proptest::collection::vec(proptest::prelude::any::<bool>(), 48),
        ) {
            // Spell the chosen BMP chars as `\uXXXX` and `/` as `\/`, so
            // the parser decodes both escape forms between plain runs.
            let mut text = String::from('"');
            for (c, escape) in s.chars().zip(escape) {
                match c {
                    '/' if escape => text.push_str("\\/"),
                    c if escape && (c as u32) < 0x1_0000 => {
                        text.push_str(&format!("\\u{:04X}", c as u32));
                    }
                    c => {
                        let mut one = String::new();
                        reference_write_string(c.encode_utf8(&mut [0; 4]), &mut one);
                        text.push_str(&one[1..one.len() - 1]);
                    }
                }
            }
            text.push('"');
            proptest::prop_assert_eq!(Json::parse(&text).unwrap(), Json::Str(s.clone()));
        }
    }

    #[test]
    fn accessors_reject_wrong_kinds() {
        assert!(Json::Null.as_u64().is_err());
        assert!(Json::Int(-1).as_u64().is_err());
        assert!(Json::Float(1.5).as_i64().is_err());
        assert_eq!(Json::Int(3).as_f64().unwrap(), 3.0);
        assert!(Json::Str("x".into()).as_array().is_err());
    }

    #[test]
    fn integers_render_like_display_at_the_extremes() {
        for i in [0, 1, -1, 9, 10, -10, i64::MAX, i64::MIN, 1 << 53] {
            assert_eq!(Json::Int(i).render(), i.to_string());
        }
        assert_eq!(i64::MAX as u64, 9_223_372_036_854_775_807);
        let mut out = String::new();
        Writer::new(&mut out).u64(i64::MAX as u64);
        assert_eq!(out, i64::MAX.to_string());
    }

    #[test]
    #[should_panic(expected = "u64 value exceeds JSON integer range")]
    fn u64_above_i64_max_panics_as_before() {
        (u64::MAX).render_json();
    }

    /// A typed record with a nested object, an array, an optional string
    /// and a bool: every shape the workspace's decoders use.
    #[derive(Debug, Clone, PartialEq)]
    struct Outer {
        name: String,
        inner: Inner,
        counts: Vec<u64>,
        tag: Option<String>,
        flag: bool,
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Inner {
        id: u64,
        ratio: f64,
    }

    impl ToJson for Inner {
        fn write_json(&self, w: &mut Writer<'_>) {
            w.object(|w| {
                w.field("id", &self.id);
                w.field("ratio", &self.ratio);
            })
        }
    }

    impl FromJson for Inner {
        fn read_json(r: &mut Reader<'_>) -> Result<Inner, JsonError> {
            r.object(|o| {
                Ok(Inner {
                    id: o.field("id")?,
                    ratio: o.field("ratio")?,
                })
            })
        }
    }

    impl ToJson for Outer {
        fn write_json(&self, w: &mut Writer<'_>) {
            w.object(|w| {
                w.field("name", self.name.as_str());
                w.field("inner", &self.inner);
                w.field("counts", &self.counts);
                w.field("tag", &self.tag);
                w.field("flag", &self.flag);
            })
        }
    }

    impl FromJson for Outer {
        fn read_json(r: &mut Reader<'_>) -> Result<Outer, JsonError> {
            r.object(|o| {
                Ok(Outer {
                    name: o.field("name")?,
                    inner: o.field("inner")?,
                    counts: o.field("counts")?,
                    tag: o.field("tag")?,
                    flag: o.field("flag")?,
                })
            })
        }
    }

    fn outer() -> Outer {
        Outer {
            name: "DVA \"q\"\n".to_string(),
            inner: Inner { id: 7, ratio: 0.25 },
            counts: vec![3, 0, 1 << 40],
            tag: None,
            flag: true,
        }
    }

    /// `json` with every object's members reversed (recursively), each
    /// preceded by `pad(depth)` unknown members.
    fn reversed(json: &Json, pad: &dyn Fn(usize) -> Vec<(String, Json)>, depth: usize) -> Json {
        match json {
            Json::Object(fields) => {
                let mut out = Vec::new();
                for (key, value) in fields.iter().rev() {
                    out.extend(pad(depth));
                    out.push((key.clone(), reversed(value, pad, depth + 1)));
                }
                Json::Object(out)
            }
            Json::Array(items) => {
                Json::Array(items.iter().map(|v| reversed(v, pad, depth + 1)).collect())
            }
            other => other.clone(),
        }
    }

    #[test]
    fn typed_writes_equal_the_tree_render() {
        let value = outer();
        let tree = Json::obj([
            ("name", Json::from(value.name.as_str())),
            (
                "inner",
                Json::obj([("id", Json::Int(7)), ("ratio", Json::Float(0.25))]),
            ),
            (
                "counts",
                Json::Array(vec![Json::Int(3), Json::Int(0), Json::Int(1 << 40)]),
            ),
            ("tag", Json::Null),
            ("flag", Json::Bool(true)),
        ]);
        assert_eq!(value.render_json(), tree.render());
        assert_eq!(value.to_json(), tree);
        assert_eq!(Outer::from_json(&tree).unwrap(), value);
        assert_eq!(Outer::parse_json(&tree.render()).unwrap(), value);
    }

    #[test]
    fn field_order_unknown_fields_and_duplicates_decode_like_the_tree() {
        let value = outer();
        let pad = |_| vec![("unknown".to_string(), Json::obj([("x", Json::Null)]))];
        let shuffled = reversed(&value.to_json(), &pad, 0).render();
        assert!(shuffled.starts_with(r#"{"unknown":{"x":null},"flag":true"#));
        assert_eq!(Outer::parse_json(&shuffled).unwrap(), value);

        // The first of duplicate keys wins, whether it is read in order
        // or found while looking for another field.
        let text = r#"{"name":"a","name":"b","inner":{"ratio":1,"id":2,"id":3},
            "counts":[],"tag":"t","flag":false,"flag":true}"#;
        let first = Outer::parse_json(text).unwrap();
        assert_eq!(first.name, "a");
        assert_eq!(first.inner, Inner { id: 2, ratio: 1.0 });
        assert_eq!(first.tag.as_deref(), Some("t"));
        assert!(!first.flag);
        let text = r#"{"flag":false,"tag":null,"flag":true,"counts":[1],
            "inner":{"id":1,"ratio":0.5},"name":"z","counts":[2]}"#;
        let found = Outer::parse_json(text).unwrap();
        assert!(!found.flag);
        assert_eq!(found.counts, [1]);
        let tree = Json::parse(text).unwrap();
        assert_eq!(tree.field("flag").unwrap(), &Json::Bool(false));
        assert_eq!(tree.field("counts").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn decode_errors_are_the_tree_paths_errors() {
        let err = |text: &str| Outer::parse_json(text).unwrap_err().0;
        assert_eq!(err(r#"{"name":"x"}"#), "missing field `inner` in object");
        assert_eq!(err("[1]"), "missing field `name` in array");
        assert_eq!(err(r#"{"name":1}"#), "expected string, found integer");
        assert_eq!(
            err(r#"{"name":"x","inner":{"id":-1,"ratio":0}}"#),
            "expected non-negative integer"
        );
        assert_eq!(
            err(r#"{"name":"x","inner":{"id":1.5,"ratio":0}}"#),
            "expected integer, found float"
        );
        assert_eq!(
            err(r#"{"name":"x","inner":{"id":1,"ratio":"0"}}"#),
            "expected number, found string"
        );
        // A syntax error anywhere beats the first decode error, exactly
        // as `Json::parse` then `field` reported it.
        for text in [
            r#"{"name":1,"inner":}"#,
            r#"{"name":"x","inner":{"id":1,"ratio":0}} x"#,
            r#"{"zzz":[1,],"name":"x"}"#,
            r#"{"name":"x","pad":"\q"}"#,
            r#"{"name":"x","inner":{"id":99999999999999999999,"ratio":0}}"#,
        ] {
            let tree = Json::parse(text).unwrap_err();
            assert_eq!(Outer::parse_json(text).unwrap_err(), tree, "{text}");
        }
        let deep = format!(
            r#"{{"pad":{}1{},"name":"x"}}"#,
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        );
        assert!(err(&deep).contains("nesting deeper than"), "{}", err(&deep));
    }

    #[test]
    fn lenient_fields_ignore_wrong_kinds_but_not_bad_syntax() {
        let read = |text: &str| {
            Reader::decode(text, |r| {
                r.object(|o| Ok((o.lenient::<u64>("n")?, o.field::<bool>("b")?)))
            })
        };
        assert_eq!(read(r#"{"n":4,"b":true}"#).unwrap(), (Some(4), true));
        assert_eq!(read(r#"{"b":true}"#).unwrap(), (None, true));
        assert_eq!(read(r#"{"n":"4","b":true}"#).unwrap(), (None, true));
        assert_eq!(read(r#"{"n":[{"x":-1}],"b":true}"#).unwrap(), (None, true));
        assert_eq!(read(r#"{"b":false,"n":-3}"#).unwrap(), (None, false));
        assert!(read(r#"{"n":[1,,2],"b":true}"#).is_err());
    }

    /// A record of many fields, read in the order `f00`, `f01`, …: a
    /// document listing them in reverse costs a decoder that rescans the
    /// object per field about half the fields times the input.
    struct Wide(Vec<u64>, Outer);

    const WIDE_FIELDS: usize = 32;

    impl FromJson for Wide {
        fn read_json(r: &mut Reader<'_>) -> Result<Wide, JsonError> {
            r.object(|o| {
                let fields = (0..WIDE_FIELDS)
                    .map(|i| o.field(&format!("f{i:02}")))
                    .collect::<Result<_, _>>()?;
                Ok(Wide(fields, o.field("outer")?))
            })
        }
    }

    #[test]
    fn out_of_order_reads_examine_a_bounded_multiple_of_the_input() {
        let mut fields: Vec<(String, Json)> = (0..WIDE_FIELDS)
            .map(|i| (format!("f{i:02}"), Json::Int(i as i64)))
            .collect();
        fields.push(("outer".to_string(), outer().to_json()));
        let canonical = Json::Object(fields);
        // About 1 MiB: padding members of strings, numbers and nested
        // objects before every member at every level.
        let pad = |depth: usize| {
            (0..[176, 48, 8][depth.min(2)])
                .map(|i| {
                    let value = Json::obj([
                        ("s", Json::from("p\\\"".repeat(20))),
                        ("a", Json::Array((0..20).map(Json::Int).collect())),
                        (
                            "o",
                            Json::obj([("k", Json::obj([("d", Json::Float(0.5))]))]),
                        ),
                    ]);
                    (format!("pad{i}"), value)
                })
                .collect()
        };
        let text = reversed(&canonical, &pad, 0).render();
        assert!(text.len() > 1 << 20, "{} bytes", text.len());

        let mut reader = Reader::new(&text);
        let wide = Wide::read_json(&mut reader).unwrap();
        assert_eq!(wide.0, (0..WIDE_FIELDS as u64).collect::<Vec<_>>());
        assert_eq!(wide.1, outer());
        assert_eq!(reader.pos, text.len());
        let examined = reader.examined();
        assert!(
            examined <= 8 * text.len() as u64,
            "examined {examined} bytes of {}",
            text.len()
        );

        // In canonical order each byte is gone over once, apart from the
        // look-ahead over `counts` for its length.
        let text = canonical.render();
        let mut reader = Reader::new(&text);
        Wide::read_json(&mut reader).unwrap();
        let counts = r#"[3,0,1099511627776]"#;
        assert!(text.contains(counts));
        assert_eq!(reader.examined(), (text.len() + counts.len() - 1) as u64);
    }

    /// Steps a 64-bit LCG and returns its high bits.
    fn lcg(seed: &mut u64) -> usize {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*seed >> 33) as usize
    }

    /// `json` with every object's members shuffled by `seed`, an unknown
    /// member inserted and a later duplicate of every member appended
    /// (the first of duplicate keys wins, so the duplicates lose).
    fn shuffled(json: &Json, seed: &mut u64) -> Json {
        match json {
            Json::Object(fields) => {
                let mut out: Vec<(String, Json)> = fields
                    .iter()
                    .map(|(k, v)| (k.clone(), shuffled(v, seed)))
                    .collect();
                for i in (1..out.len()).rev() {
                    out.swap(i, lcg(seed) % (i + 1));
                }
                let dups: Vec<_> = out
                    .iter()
                    .map(|(k, _)| (k.clone(), Json::Str("dup".into())))
                    .collect();
                let unknown = Json::Array(vec![Json::Null, Json::Float(1.5)]);
                out.insert(lcg(seed) % (out.len() + 1), ("unknown".into(), unknown));
                out.extend(dups);
                Json::Object(out)
            }
            other => other.clone(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn shuffled_padded_documents_decode_to_the_written_value(
            name in any_string(),
            id in 0u64..=i64::MAX as u64,
            ratio_bits in proptest::prelude::any::<u64>(),
            counts in proptest::collection::vec(0u64..1 << 62, 0..12),
            tag in (proptest::prelude::any::<bool>(), any_string()),
            flag in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let ratio = Some(f64::from_bits(ratio_bits)).filter(|f| f.is_finite()).unwrap_or(0.5);
            let tag = tag.0.then_some(tag.1);
            let value = Outer { name, inner: Inner { id, ratio }, counts, tag, flag };
            let text = value.render_json();
            proptest::prop_assert_eq!(&text, &value.to_json().render());
            proptest::prop_assert_eq!(&Outer::parse_json(&text).unwrap(), &value);
            let shuffled = shuffled(&value.to_json(), &mut { seed }).render();
            proptest::prop_assert_eq!(Outer::parse_json(&shuffled).unwrap(), value);
        }
    }
}
