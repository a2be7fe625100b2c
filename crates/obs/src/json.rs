//! Dependency-free JSON emission and parsing for structured results.
//!
//! The build environment is offline, so instead of a serde dependency the
//! workspace serializes through this small value tree. Object keys keep
//! insertion order, making output deterministic — the harness determinism
//! test compares serialized bytes. The parser exists for the consumers that
//! need to read results back: schema-version migration of `results/` files
//! and the JSON round-trip of deadlock reports.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// An unsigned integer; keeps full `u64` precision (seeds use the whole
    /// range).
    UInt(u64),
    /// A float; non-finite values serialize as `null` (JSON has no NaN).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::from(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Builds an array from values.
    pub fn arr<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // `{:?}` prints the shortest representation that parses
                    // back exactly, and always includes a decimal point or
                    // exponent — unambiguously a float.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// Numbers without a decimal point or exponent parse as [`Json::UInt`]
    /// when non-negative and [`Json::Int`] when negative; everything else
    /// numeric parses as [`Json::Float`]. Trailing garbage is an error, and
    /// so is nesting arrays and objects more than 128 deep.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean value, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `u64`, accepting both integer variants when in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as `i64`, accepting both integer variants when in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::UInt(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// The value as `f64`; integers widen losslessly where possible.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The string value, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is a [`Json::Arr`].
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is a [`Json::Obj`].
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// A parse failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so unbounded input (a 400 kB file of
/// `[`) would overflow the stack and abort the process instead of returning
/// an error; the documents this workspace writes nest fewer than 10 deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs `parse` (an array or an object) one nesting level down.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a low surrogate must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                hi
                            };
                            let ch = char::from_u32(code)
                                .ok_or_else(|| self.err("invalid unicode escape"))?;
                            out.push(ch);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at the byte we
                    // consumed; input is a &str so the sequence is valid.
                    let start = self.pos - 1;
                    let width = utf8_width(c);
                    self.pos = start + width;
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else if let Some(rest) = text.strip_prefix('-') {
            rest.parse::<u64>()
                .ok()
                .and_then(|_| text.parse::<i64>().ok())
                .map(Json::Int)
                .ok_or_else(|| self.err("integer out of range"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(Json::Null.to_pretty_string(), "null\n");
        assert_eq!(Json::from(true).to_pretty_string(), "true\n");
        assert_eq!(Json::from(42i64).to_pretty_string(), "42\n");
        assert_eq!(Json::from(0.5).to_pretty_string(), "0.5\n");
        assert_eq!(Json::Float(f64::NAN).to_pretty_string(), "null\n");
        assert_eq!(Json::Float(f64::INFINITY).to_pretty_string(), "null\n");
    }

    #[test]
    fn floats_keep_a_decimal_marker() {
        // 1.0 must not serialize as the integer 1.
        assert_eq!(Json::from(1.0).to_pretty_string(), "1.0\n");
    }

    #[test]
    fn strings_escape_control_characters() {
        let s = Json::from("a\"b\\c\nd\u{1}").to_pretty_string();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn nested_structure_is_stable() {
        let j = Json::obj([
            ("name", Json::from("fig9")),
            (
                "points",
                Json::arr([Json::obj([("batch", Json::from(64u64))])]),
            ),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(
            j.to_pretty_string(),
            "{\n  \"name\": \"fig9\",\n  \"points\": [\n    {\n      \"batch\": 64\n    }\n  ],\n  \"empty\": []\n}\n"
        );
    }

    #[test]
    fn u64_keeps_full_precision() {
        assert_eq!(
            Json::from(u64::MAX).to_pretty_string(),
            format!("{}\n", u64::MAX)
        );
    }

    #[test]
    fn parse_round_trips_pretty_output() {
        let doc = Json::obj([
            ("experiment", Json::from("fig9")),
            ("schema_version", Json::from(2u64)),
            ("seed", Json::from(u64::MAX)),
            ("offset", Json::from(-3i64)),
            ("rate", Json::from(0.815)),
            ("ok", Json::from(true)),
            ("note", Json::from("line\nbreak \"quoted\" \\slash")),
            ("gap", Json::Null),
            (
                "windows",
                Json::arr([Json::arr([Json::from(1u64), Json::from(2u64)])]),
            ),
            ("empty_obj", Json::Obj(vec![])),
            ("empty_arr", Json::Arr(vec![])),
        ]);
        let text = doc.to_pretty_string();
        let parsed = Json::parse(&text).expect("round trip parses");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parse_handles_compact_and_spaced_forms() {
        let j = Json::parse("{\"a\":[1,2.5,-3],\"b\":{\"c\":null}}").unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[2].as_i64(), Some(-3));
        assert_eq!(j.get("b").unwrap().get("c"), Some(&Json::Null));
        let spaced = Json::parse(" { \"a\" : [ ] } ").unwrap();
        assert_eq!(spaced.get("a"), Some(&Json::Arr(vec![])));
    }

    #[test]
    fn parse_unicode_escapes() {
        let j = Json::parse("\"caf\\u00e9 \\ud83d\\ude00\"").unwrap();
        assert_eq!(j.as_str(), Some("café 😀"));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parse_bounds_nesting_instead_of_overflowing_the_stack() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        for too_deep in [MAX_DEPTH + 1, 200_000] {
            let e = Json::parse(&nest(too_deep)).unwrap_err();
            assert_eq!(e.offset, MAX_DEPTH);
            assert_eq!(e.message, "nesting deeper than 128");
        }
        // Arrays and objects count against the same bound: `[{"a":` is two.
        let mixed = |pairs: usize| "[{\"a\":".repeat(pairs) + "0" + &"}]".repeat(pairs);
        assert!(Json::parse(&mixed(MAX_DEPTH / 2)).is_ok());
        assert!(Json::parse(&mixed(MAX_DEPTH / 2 + 1)).is_err());
        // The bound is on depth, not on how many containers a document has.
        let wide = format!("[{}]", vec!["[[]]"; 1000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn parse_number_variants() {
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(
            Json::parse(&format!("{}", u64::MAX)).unwrap(),
            Json::UInt(u64::MAX)
        );
    }
}
