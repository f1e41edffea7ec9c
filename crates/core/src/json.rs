//! The workspace's one JSON module: a value type ([`Json`]), a bounded
//! parser ([`parse`]) and a deterministic serializer (`Json`'s
//! `Display`).
//!
//! Every machine-readable document the repository writes — titobs
//! metrics, profiles, time-resolved and kernel reports, `tit-lint` and
//! `tit-analyze` reports, the `BENCH_*` envelopes and the `tit-serve`
//! wire protocol — is built as a [`Json`] value (with [`obj`], or with
//! [`json_obj!`](crate::json_obj) when the keys are a report's field
//! names) and rendered by the one serializer, so they share one layout:
//! a single compact line, object members in insertion order, numbers in
//! Rust's shortest round-trip form, RFC 8259 string escapes, and `null`
//! for every non-finite number (JSON has no NaN or infinity literal).
//! The Chrome timeline streams its events instead and is the one
//! hand-written exception.
//!
//! The parser reads untrusted input (the daemon's request lines), so it
//! is a recursive-descent parser with explicit bounds: nesting deeper
//! than [`MAX_DEPTH`] is refused, so a hostile `[[[[…` cannot exhaust
//! the stack, and its time is linear in the input length. The input
//! length itself is capped by the caller (the daemon's line limit).
//! Otherwise it is strict RFC 8259: no trailing commas, no comments, no
//! `NaN`. Duplicate object keys keep the *first* occurrence on lookup.

use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`parse`].
pub const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first occurrence wins).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (rejects 1.5, -1, 1e30).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => push_f64(out, *n),
            Json::Str(s) => push_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Serializes as one compact line: object members in insertion order,
/// shortest round-trip numbers, non-finite numbers as `null`.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

/// Integer counts become numbers; they are exact below 2^53, far above
/// any count the workspace produces.
macro_rules! from_count {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}
from_count!(u32, u64, usize);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// An object from key/value pairs, in the given order.
#[must_use]
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// An object whose keys are written as identifiers, in the given
/// order: `json_obj!(r; rank, slack_s = r.slack)` is
/// `{"rank":r.rank,"slack_s":r.slack}`. A bare key takes the field of
/// the same name from the source value before the `;`, so a report's
/// field names are its schema's names; `key = value` takes any value.
/// Every value goes through `Json::from`.
#[macro_export]
macro_rules! json_obj {
    ($src:expr; $($key:ident $(= $value:expr)?),* $(,)?) => {
        $crate::json::Json::Obj(vec![
            $((stringify!($key).to_owned(), $crate::json_obj!(@value $src, $key $(, $value)?))),*
        ])
    };
    (@value $src:expr, $key:ident) => { $crate::json::Json::from($src.$key.clone()) };
    (@value $src:expr, $key:ident, $value:expr) => { $crate::json::Json::from($value) };
}

/// Appends the RFC 8259 string-escape of `s` to `out`, **without**
/// surrounding quotes.
///
/// `"` and `\` are backslash-escaped, `\n`/`\r`/`\t` use their short
/// forms, and every other control character below U+0020 becomes a
/// `\u00XX` escape. All other characters pass through verbatim.
fn escape_into(out: &mut String, s: &str) {
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
}

/// Appends `s` as a complete JSON string (quotes included) to `out`.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends `v` in JSON number position: finite values print with
/// Rust's shortest round-trip `Display`, non-finite values become
/// `null`.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after the document"));
    }
    Ok(v)
}

/// Cursor over the input. `pos` only ever advances past ASCII bytes or
/// whole UTF-8 scalars, so it always sits on a `char` boundary of
/// `text`.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: impl Into<String>) -> JsonError {
        JsonError { at: self.pos, reason: reason.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {lit:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after key"));
            }
            self.pos += 1;
            self.skip_ws();
            let val = self.value(depth + 1)?;
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
        self.pos += 1; // '"'
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control byte in one piece. Those stop bytes
            // are ASCII, and UTF-8 continuation bytes never are, so the
            // run ends on a char boundary: each byte is visited once.
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(self.text.get(start..self.pos).ok_or_else(|| self.err("invalid UTF-8"))?);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue; // unicode_escape advanced pos itself
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control byte in string")),
            }
        }
    }

    /// Parses the `XXXX` of a `\uXXXX` escape (pos is at the `u`),
    /// including surrogate pairs. Leaves pos after the escape.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hex4 = |p: &mut Self| -> Result<u32, JsonError> {
            p.pos += 1; // the 'u'
            let end = p.pos + 4;
            let digits = p.bytes.get(p.pos..end).ok_or_else(|| p.err("truncated \\u escape"))?;
            let mut v = 0;
            for &d in digits {
                let nibble = (d as char).to_digit(16).ok_or_else(|| p.err("bad \\u escape"))?;
                v = v * 16 + nibble;
            }
            p.pos = end;
            Ok(v)
        };
        let hi = hex4(self)?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require the low half.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 1; // the '\\'
                let lo = hex4(self)?;
                if (0xDC00..0xE000).contains(&lo) {
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(cp).ok_or_else(|| self.err("bad surrogate pair"));
                }
            }
            return Err(self.err("lone high surrogate"));
        }
        if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = self.text.get(start..self.pos).ok_or_else(|| self.err("bad number"))?;
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err(format!("bad number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(v: impl Into<Json>) -> String {
        v.into().to_string()
    }

    #[test]
    fn escapes_required_by_rfc_8259() {
        assert_eq!(render("plain"), "\"plain\"");
        assert_eq!(render("a\"b"), "\"a\\\"b\"");
        assert_eq!(render("a\\b"), "\"a\\\\b\"");
        assert_eq!(render("a\nb\rc\td"), "\"a\\nb\\rc\\td\"");
        assert_eq!(render("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        // Characters at and above U+0020 pass through, including
        // non-ASCII ones.
        assert_eq!(render("é☃"), "\"é☃\"");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(render(1.5), "1.5");
        assert_eq!(render(0.0), "0");
        assert_eq!(render(-3e-9), "-0.000000003");
        assert_eq!(render(7u64), "7");
        assert_eq!(render(f64::NAN), "null");
        assert_eq!(render(f64::INFINITY), "null");
        assert_eq!(render(f64::NEG_INFINITY), "null");
        assert_eq!(render(None::<f64>), "null");
    }

    #[test]
    fn rejects_malformed_input() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{a:1}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\":1}x",
            "\"\\q\"",
            "Infinity",
            "NaN",
            "--1",
            "\"\\ud800\"",
            "\"\\u+041\"",
            "\"\\u00\"",
            "\"a\u{1}b\"",
            "1e400",
        ] {
            assert!(parse(text).is_err(), "{text:?} must be rejected");
        }
    }

    #[test]
    fn depth_bomb_is_rejected_not_a_stack_overflow() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let e = parse(&deep).unwrap_err();
        assert!(e.reason.contains("nesting"), "{e}");
    }

    #[test]
    fn object_lookup_and_typed_accessors() {
        let v = parse("{\"s\":\"x\",\"n\":3,\"f\":1.5,\"a\":[1],\"s2\":\"y\",\"s\":\"dup\"}")
            .unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"), "first dup wins");
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("f").and_then(Json::as_u64), None, "1.5 is not a count");
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(v.get("zz"), None);
    }

    #[test]
    fn serialization_is_deterministic_and_escaped() {
        let v = obj(vec![
            ("b", Json::Num(1.0)),
            ("a", Json::Str("x\"\\\n\u{1}".into())),
            ("n", None::<&str>.into()),
        ]);
        let s = v.to_string();
        assert_eq!(s, "{\"b\":1,\"a\":\"x\\\"\\\\\\n\\u0001\",\"n\":null}");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn json_obj_takes_fields_and_values_in_order() {
        struct Row {
            rank: usize,
            file: Option<String>,
        }
        let r = Row { rank: 2, file: None };
        let v = crate::json_obj!(r; rank, slack_s = 1.5, file);
        assert_eq!(v.to_string(), "{\"rank\":2,\"slack_s\":1.5,\"file\":null}");
    }

    #[test]
    fn unicode_escapes_and_surrogate_pairs() {
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), Json::Str("😀".into()));
        assert_eq!(parse("\"é\\n😀x\"").unwrap(), Json::Str("é\n😀x".into()));
    }
}
