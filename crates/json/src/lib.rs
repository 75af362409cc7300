//! Minimal, dependency-free JSON for the DVA reproduction's wire and
//! disk formats.
//!
//! The workspace ships no external crates (the build environment is
//! offline), so the sweep service's cache files and network protocol are
//! built on this hand-rolled JSON layer instead of `serde`. It is
//! deliberately small — a [`Json`] value model, a recursive-descent
//! [`Json::parse`], and a **byte-stable** compact writer
//! ([`Json::render`]) — with two properties the rest of the workspace
//! leans on:
//!
//! * **Determinism.** Objects preserve insertion order and the writer
//!   emits no whitespace, so the same value always renders to the same
//!   bytes. Cache keys and golden-format tests can compare rendered
//!   strings directly.
//! * **Exact round-trips.** Integers are carried as `i64` (never through
//!   a double), and floats render via Rust's shortest-round-trip
//!   formatting, so `parse(render(v)) == v` holds for every value the
//!   simulators produce.
//! * **Linear time.** Parse and render are linear in input length:
//!   strings are copied run by run between the bytes that need an
//!   escape, so a hostile megabyte-long string costs milliseconds.
//!
//! # Examples
//!
//! ```
//! use dva_json::Json;
//!
//! let value = Json::obj([
//!     ("cycles", Json::from(83930u64)),
//!     ("label", Json::from("REF")),
//!     ("ports", Json::Array(vec![Json::Float(0.25)])),
//! ]);
//! let text = value.render();
//! assert_eq!(text, r#"{"cycles":83930,"label":"REF","ports":[0.25]}"#);
//! assert_eq!(Json::parse(&text).unwrap(), value);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

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

/// How deeply arrays and objects may nest in a document [`Json::parse`]
/// accepts. The parser recurses once per level, so the limit keeps a
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
    /// The JSON form of this value.
    fn to_json(&self) -> Json;
}

/// Values that deserialize from JSON.
pub trait FromJson: Sized {
    /// Reconstructs a value from its [`ToJson`] form.
    fn from_json(json: &Json) -> Result<Self, JsonError>;
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
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field `{key}` in {}", self.kind())))
    }

    /// This value as a bool.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError(format!("expected bool, found {}", other.kind()))),
        }
    }

    /// This value as an `i64` (floats are rejected).
    pub fn as_i64(&self) -> Result<i64, JsonError> {
        match self {
            Json::Int(i) => Ok(*i),
            other => Err(JsonError(format!(
                "expected integer, found {}",
                other.kind()
            ))),
        }
    }

    /// This value as a `u64` (negative values are rejected).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        u64::try_from(self.as_i64()?)
            .map_err(|_| JsonError("expected non-negative integer".to_string()))
    }

    /// This value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        usize::try_from(self.as_i64()?)
            .map_err(|_| JsonError("expected non-negative integer".to_string()))
    }

    /// This value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Int(i) => Ok(*i as f64),
            Json::Float(f) => Ok(*f),
            other => Err(JsonError(format!(
                "expected number, found {}",
                other.kind()
            ))),
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }

    /// This value as an array slice.
    pub fn as_array(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(JsonError(format!("expected array, found {}", other.kind()))),
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
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => {
                use fmt::Write as _;
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                assert!(f.is_finite(), "JSON cannot carry NaN or infinity");
                // Rust's float Debug prints the shortest string that
                // round-trips, and always includes a `.` or exponent —
                // so the value parses back as a Float, exactly.
                use fmt::Write as _;
                let _ = write!(out, "{f:?}");
            }
            Json::Str(s) => write_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Trailing whitespace is allowed; trailing
    /// non-whitespace is an error, and so is nesting arrays and objects
    /// deeper than [`MAX_DEPTH`] levels.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError(format!(
                "trailing characters at byte {} of {}",
                p.pos,
                p.bytes.len()
            )));
        }
        Ok(value)
    }
}

/// Writes `s` as a JSON string literal. Runs that need no escape are
/// copied with one `push_str`; only `"`, `\` and bytes below 0x20 are
/// escaped. All three are ASCII, so every run ends on a char boundary.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
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

struct Parser<'a> {
    /// The document; `bytes` is its byte view.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

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

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(JsonError(format!(
                "unexpected `{}` at byte {}",
                other as char, self.pos
            ))),
            None => Err(JsonError("unexpected end of input".to_string())),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Parser<'a>) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => {
                    return Err(JsonError(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => {
                    return Err(JsonError(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` as one slice. Both
            // stop bytes are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(JsonError("unterminated string".to_string())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
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

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
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
}
