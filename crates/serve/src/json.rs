//! Hand-rolled JSON: the workspace has no `serde_json`, and the wire
//! types of the advisor service only need objects, arrays, numbers,
//! strings, booleans and null.
//!
//! One recursive-descent lexer reads all JSON text, with a depth limit;
//! every error carries the byte offset it occurred at. Its strings
//! borrow from the text unless they hold an escape, its numbers come
//! back as `f64`s, and its objects and arrays hand each member to a
//! callback. [`Json::parse`] builds a tree with those calls, and the
//! `/v1/predict` and `/v1/advise` handlers read the fields they need with
//! the same calls in one pass, without a tree. So both see one grammar,
//! one set of error messages and one set of byte offsets.
//!
//! Encoding writes the minimal text form (no pretty-printing):
//! non-finite numbers encode as `null`, since JSON has no representation
//! for them.

use chemcost_obs::write_json_string;
use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Deepest allowed nesting of arrays/objects.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        Parser::document(input, |p| p.value(0))
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Build an object from key/value pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serialize to minimal JSON text.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(128);
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
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

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// Append one number exactly as [`Json::Num`] encodes it: `f64` Display
/// (the shortest round-trippable form) for finite values, `null`
/// otherwise. `pub(crate)` so direct-writing response builders stay
/// byte-compatible with tree encoding.
pub(crate) fn write_num(n: f64, out: &mut String) {
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

/// The lexer behind [`Json::parse`] and the request readers in
/// `routes`: a cursor over the text that reads one value at a time.
pub(crate) struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Read a whole document: `read` starts at its first non-whitespace
    /// byte, and only whitespace may follow what it consumed.
    pub(crate) fn document<T>(
        text: &'a str,
        read: impl FnOnce(&mut Parser<'a>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = read(&mut p)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError { msg: msg.to_string(), offset: self.pos }
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// One value at nesting `depth`, as a tree.
    pub(crate) fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(|p, key| {
                    fields.push((key.into_owned(), p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Json::Num(self.number()?)),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
        }
    }

    /// A value at nesting `depth` that counts only if it is a number:
    /// anything else is parsed and dropped as `None`.
    pub(crate) fn maybe_number(&mut self, depth: usize) -> Result<Option<f64>, JsonError> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') if depth <= MAX_DEPTH => self.number().map(Some),
            _ => self.value(depth).map(|_| None),
        }
    }

    /// A value at nesting `depth` that counts only if it is a string:
    /// anything else is parsed and dropped as `None`.
    pub(crate) fn maybe_string(&mut self, depth: usize) -> Result<Option<Cow<'a, str>>, JsonError> {
        match self.peek() {
            Some(b'"') if depth <= MAX_DEPTH => self.string().map(Some),
            _ => self.value(depth).map(|_| None),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal (expected {text})")))
        }
    }

    /// A finite number.
    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(n),
            _ => {
                self.pos = start;
                Err(self.err("invalid number"))
            }
        }
    }

    /// A string, borrowed from the text unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        // Unescaped text is copied a run at a time, into a string that
        // exists from the first escape on.
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => {
                    let tail = &self.text[run..self.pos - 1];
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut out) => {
                            out.push_str(tail);
                            Cow::Owned(out)
                        }
                    });
                }
                b'\\' => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(&self.text[run..self.pos - 1]);
                    out.push(self.escape()?);
                    run = self.pos;
                }
                b if b < 0x20 => return Err(self.err("raw control character in string")),
                // Every byte of a multi-byte character is >= 0x80, so a
                // run never ends inside one.
                _ => {}
            }
        }
    }

    /// The character an escape stands for, read from just past its `\`.
    fn escape(&mut self) -> Result<char, JsonError> {
        let Some(esc) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let cp = self.hex4()?;
                // Surrogate pairs: a high surrogate must be followed by
                // a \uXXXX low surrogate.
                let c = if (0xD800..0xDC00).contains(&cp) {
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                    } else {
                        None
                    }
                } else {
                    char::from_u32(cp)
                };
                c.ok_or_else(|| self.err("invalid unicode escape"))?
            }
            _ => return Err(self.err("invalid escape character")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let bytes = self.text.as_bytes();
        if self.pos + 4 > bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    /// An array: `element` reads each element, starting at its first
    /// byte.
    pub(crate) fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// An object: `member` is handed each member's key and reads its
    /// value, starting at the value's first byte.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// Read an object at nesting `depth` in one pass, as [`Json::get`]
    /// sees it: `first` reads the value of the first member named
    /// `keys[i]`, given `i`; every other member's value is parsed and
    /// dropped. Anything but an object is parsed and dropped too, and
    /// reads as an object without members.
    pub(crate) fn first_members(
        &mut self,
        depth: usize,
        keys: &[&str],
        mut first: impl FnMut(&mut Self, usize) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        debug_assert!(keys.len() <= 64, "one bit per key");
        if self.peek() != Some(b'{') || depth > MAX_DEPTH {
            return self.value(depth).map(drop);
        }
        let mut seen = 0u64;
        self.object(|p, key| match keys.iter().position(|k| *k == key) {
            Some(i) if seen & (1 << i) == 0 => {
                seen |= 1 << i;
                first(p, i)
            }
            _ => p.value(depth + 1).map(drop),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-2.5e3").unwrap(), Json::Num(-2500.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v =
            Json::parse(r#"{"rows": [{"o": 120, "v": 900}], "goal": "stq", "ok": true}"#).unwrap();
        assert_eq!(v.get("goal").and_then(Json::as_str), Some("stq"));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let rows = v.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows[0].get("o").and_then(Json::as_usize), Some(120));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("a\"b\\c\nd\te\u{0001}π".into());
        let text = original.encode();
        assert_eq!(Json::parse(&text).unwrap(), original);
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(Json::parse(r#""é""#).unwrap(), Json::Str("é".into()));
        // Surrogate pair: 𝄞 (U+1D11E).
        assert_eq!(Json::parse(r#""𝄞""#).unwrap(), Json::Str("𝄞".into()));
        assert!(Json::parse(r#""\ud834""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn encode_round_trips_numbers_exactly() {
        for n in [0.0, 1.5, -3.25, 1e-9, 123456789.0, 0.1] {
            let text = Json::Num(n).encode();
            assert_eq!(Json::parse(&text).unwrap(), Json::Num(n), "{text}");
        }
    }

    #[test]
    fn non_finite_numbers_encode_as_null() {
        assert_eq!(Json::Num(f64::INFINITY).encode(), "null");
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "01x",
            "\"unterminated",
            "[1] garbage",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn error_carries_offset() {
        let e = Json::parse("[1, 2, %]").unwrap_err();
        assert_eq!(e.offset, 7);
        assert!(e.to_string().contains("byte 7"));
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn object_builder_and_display() {
        let v = Json::obj([("name", "gb".into()), ("version", 3usize.into())]);
        assert_eq!(v.to_string(), r#"{"name":"gb","version":3}"#);
    }

    #[test]
    fn duplicate_keys_first_wins_on_get() {
        let v = Json::parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut got = Vec::new();
        Parser::document(r#"["plain", "esc\"aped", 7]"#, |p| {
            p.array(|p| {
                got.push(p.maybe_string(1)?);
                Ok(())
            })
        })
        .unwrap();
        assert!(matches!(got[0], Some(Cow::Borrowed("plain"))), "{got:?}");
        assert!(matches!(&got[1], Some(Cow::Owned(s)) if s == "esc\"aped"), "{got:?}");
        assert_eq!(got[2], None, "a number is not a string");
    }

    #[test]
    fn as_usize_rejects_non_integers() {
        assert_eq!(Json::Num(1.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(Json::Num(7.0).as_usize(), Some(7));
        assert_eq!(Json::Str("7".into()).as_usize(), None);
    }
}
