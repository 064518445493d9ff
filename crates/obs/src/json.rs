//! The workspace's one JSON reader, beside its one writer
//! ([`crate::report::JsonObject`]); DESIGN §3.6 has the grammar.
//!
//! What [`Json::parse`] promises its callers (fault plans, scenario
//! specs, the verdict gate): an integer literal is exact over the
//! whole `u64` range and an error past it, never an `f64` round;
//! containers nested deeper than [`MAX_DEPTH`] are an error, not a
//! stack overflow; a syntax error carries its byte offset and a shape
//! error (the `try_*` accessors) names the offending key.
//! Objects keep their members in document order, duplicates included:
//! [`Json::get`] returns the last, as does a mapping that assigns while
//! walking [`Json::members`].

use std::fmt;

/// The deepest container nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (what the writer emits for a non-finite float).
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A literal of digits only, exact over the whole `u64` range.
    U64(u64),
    /// Any other number: signed, fractional, or with an exponent.
    F64(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object: its members in document order.
    Object(Vec<(String, Json)>),
}

/// Why a document was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of a syntax error; `None` for a shape error (valid
    /// JSON that is not the record its reader wanted).
    pub at: Option<usize>,
    /// What went wrong; a shape error names the key.
    pub msg: String,
}

impl JsonError {
    /// A shape error; `msg` names the key that does not hold what its
    /// reader needs.
    pub fn shape(msg: impl Into<String>) -> JsonError {
        JsonError {
            at: None,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some(at) => write!(f, "JSON syntax error at byte {at}: {}", self.msg),
            None => write!(f, "JSON shape error: {}", self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

fn wanted<T>(got: Option<T>, key: &str, what: &str) -> Result<T, JsonError> {
    got.ok_or_else(|| JsonError::shape(format!("`{key}` must be {what}")))
}

impl Json {
    /// Parses `text` as exactly one JSON value.
    ///
    /// # Errors
    ///
    /// The first syntax error and its byte offset: malformed or
    /// truncated text, an integer past `u64::MAX`, nesting past
    /// [`MAX_DEPTH`], anything but whitespace after the value.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut r = Reader { s: text, i: 0 };
        let value = r.value(0)?;
        r.ws();
        if r.i != text.len() {
            return Err(r.err("trailing input after the value"));
        }
        Ok(value)
    }

    /// Member `key` of an object (the last one, if repeated).
    pub fn get(&self, key: &str) -> Option<&Json> {
        let found = self.members()?.iter().rev().find(|(k, _)| k == key);
        found.map(|(_, v)| v)
    }

    /// An object's members in document order.
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    /// An array's elements.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A string's decoded text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An unsigned integer literal, exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// Any number as a float (an integer past 2^53 rounds).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// A boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// [`Json::members`], or a shape error naming `key` — the key (or
    /// record) this value was found under.
    pub fn try_members(&self, key: &str) -> Result<&[(String, Json)], JsonError> {
        wanted(self.members(), key, "an object")
    }

    /// [`Json::as_array`], or a shape error naming `key`.
    pub fn try_array(&self, key: &str) -> Result<&[Json], JsonError> {
        wanted(self.as_array(), key, "an array")
    }

    /// [`Json::as_str`], or a shape error naming `key`.
    pub fn try_str(&self, key: &str) -> Result<&str, JsonError> {
        wanted(self.as_str(), key, "a string")
    }

    /// [`Json::as_u64`], or a shape error naming `key`.
    pub fn try_u64(&self, key: &str) -> Result<u64, JsonError> {
        wanted(self.as_u64(), key, "an unsigned integer")
    }

    /// [`Json::as_bool`], or a shape error naming `key`.
    pub fn try_bool(&self, key: &str) -> Result<bool, JsonError> {
        wanted(self.as_bool(), key, "a boolean")
    }
}

/// A cursor over the text. Every slice of `s` is cut with `i` on an
/// ASCII byte or at the end, so none can split a character.
struct Reader<'a> {
    s: &'a str,
    i: usize,
}

impl Reader<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: Some(self.i),
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.ws();
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.items(depth, b'}', |r| {
                    r.ws();
                    let key = r.string()?;
                    r.ws();
                    if r.peek() != Some(b':') {
                        return Err(r.err("expected ':' after a member name"));
                    }
                    r.i += 1;
                    members.push((key, r.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Object(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(depth, b']', |r| {
                    items.push(r.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Array(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// The shared body of objects and arrays: the opening bracket under
    /// the cursor, comma-separated `item`s, then `close`.
    fn items(
        &mut self,
        depth: usize,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if depth == MAX_DEPTH {
            return Err(self.err("containers nested deeper than MAX_DEPTH (64)"));
        }
        self.i += 1;
        self.ws();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b) if b == close => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or the closing bracket")),
            }
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if !self.s[self.i..].starts_with(word) {
            return Err(self.err("expected true, false or null"));
        }
        self.i += word.len();
        Ok(value)
    }

    /// Digits only: an exact `u64`, whose one way to fail is overflow.
    /// Otherwise whatever of `[-+.eE0-9]*` std reads as a finite `f64`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let rest = self.s[self.i..].bytes();
        let len = rest.take_while(|b| b"0123456789-+.eE".contains(b)).count();
        let literal = &self.s[self.i..self.i + len];
        let parsed = if literal.bytes().all(|b| b.is_ascii_digit()) {
            literal.parse().ok().map(Json::U64)
        } else {
            let float = literal.parse().ok();
            float.filter(|x: &f64| x.is_finite()).map(Json::F64)
        };
        let number = parsed.ok_or_else(|| self.err("malformed or out-of-range number"))?;
        self.i += len;
        Ok(number)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            let start = self.i;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.i += 1;
            }
            out.push_str(&self.s[start..self.i]);
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    out.push(self.escape()?);
                }
                _ => return Err(self.err("unterminated string or raw control character")),
            }
        }
    }

    /// The character an escape stands for; the cursor is just past the
    /// backslash. `\uXXXX` must name a scalar value by itself: no
    /// writer here emits surrogate pairs, so their halves are refused.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = self.s.get(self.i + 1..self.i + 5);
                let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                let c = code.and_then(char::from_u32);
                let c = c.ok_or_else(|| self.err("\\u needs four hex digits, a scalar value"))?;
                self.i += 4;
                c
            }
            _ => return Err(self.err("unknown escape")),
        };
        self.i += 1;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::JsonObject;
    use proptest::prelude::*;

    #[test]
    fn parse_returns_exactly_what_the_writer_wrote() {
        let every_escape = "q\" b\\ n\n r\r t\t nul\u{0} esc\u{1b} é ☃ 😀 /";
        let text = JsonObject::new()
            .str("s", every_escape)
            .str("k\"ey", "")
            .u64("max", u64::MAX)
            .f64("rate", 1.5)
            .f64("nan", f64::NAN)
            .f64("inf", f64::INFINITY)
            .bool("yes", true)
            .pairs("pairs", &[(1, 2), (u64::MAX, 0)])
            .u64_array("xs", &[3, 4])
            .u64_array("none", &[])
            .raw("nested", &JsonObject::new().bool("no", false).finish())
            .finish();
        let pair = |a, b| Json::Array(vec![Json::U64(a), Json::U64(b)]);
        let member = |k: &str, v| (k.to_string(), v);
        let written = Json::Object(vec![
            member("s", Json::Str(every_escape.to_string())),
            member("k\"ey", Json::Str(String::new())),
            member("max", Json::U64(u64::MAX)),
            member("rate", Json::F64(1.5)),
            member("nan", Json::Null),
            member("inf", Json::Null),
            member("yes", Json::Bool(true)),
            member("pairs", Json::Array(vec![pair(1, 2), pair(u64::MAX, 0)])),
            member("xs", pair(3, 4)),
            member("none", Json::Array(Vec::new())),
            member(
                "nested",
                Json::Object(vec![member("no", Json::Bool(false))]),
            ),
        ]);
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc, written);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some(every_escape));
        assert_eq!(doc.get("max").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(doc.get("rate").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.get("rate").and_then(Json::as_u64), None);
        assert_eq!(doc.get("yes").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("xs").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(doc.get("absent"), None);
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let doc = Json::parse("{\"a\": [1, {\"b\": \"x\\n\\u0041\"}, true, null]}").unwrap();
        let arr = doc.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[1].get("b").and_then(Json::as_str), Some("x\nA"));
        assert!(Json::parse("{\"a\": 1,}").is_err(), "trailing comma");
        assert!(Json::parse("[1 2]").is_err());
        // The escapes no writer here emits.
        let doc = Json::parse(r#""\/\b\f\u00e9\u2603""#).unwrap();
        assert_eq!(doc.as_str(), Some("/\u{8}\u{c}é☃"));
    }

    #[test]
    fn numbers_are_exact_or_refused() {
        let max = "18446744073709551615";
        assert_eq!(Json::parse(max), Ok(Json::U64(u64::MAX)));
        // One past u64::MAX is an error, never the nearest float.
        let err = Json::parse("[18446744073709551616]").unwrap_err();
        assert_eq!(err.at, Some(1), "{err}");
        assert!(Json::parse("99999999999999999999999").is_err());
        assert_eq!(Json::parse("0"), Ok(Json::U64(0)));
        assert_eq!(Json::parse("-3"), Ok(Json::F64(-3.0)));
        assert_eq!(Json::parse("2.5e1"), Ok(Json::F64(25.0)));
        assert_eq!(Json::parse("1E-2"), Ok(Json::F64(0.01)));
        for bad in ["-", ".5", "1e", "1e+", "+1", "0x10", "1-2", "1e999", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn malformed_documents_are_refused_with_an_offset() {
        for (bad, at) in [
            ("", 0),
            ("{\"a\":1,}", 7),
            ("[1 2]", 3),
            ("[1,]", 3),
            ("{\"a\":1} x", 8),
            ("{\"a\" 1}", 5),
            ("{a:1}", 1),
            ("\"\\u12g4\"", 2),
            ("\"\\u12\"", 2),
            ("\"\\ud800\"", 2),
            ("\"\\x\"", 2),
            ("\"tab\there\"", 4),
            ("\"open", 5),
            ("tru", 0),
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert_eq!(err.at, Some(at), "{bad:?}: {err}");
            assert!(err.to_string().contains(&format!("byte {at}")), "{err}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, Some(MAX_DEPTH), "{err}");
        assert!(Json::parse(&"[".repeat(10_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(10_000)).is_err());
    }

    #[test]
    fn shape_errors_name_the_key() {
        let doc = Json::parse("{\"n\":1,\"s\":\"x\",\"n\":2}").unwrap();
        let n = doc.get("n").unwrap();
        assert_eq!(n.try_u64("n"), Ok(2), "the last member wins");
        for err in [
            n.try_str("n").unwrap_err(),
            n.try_bool("n").unwrap_err(),
            n.try_array("n").unwrap_err(),
            n.try_members("n").unwrap_err(),
            doc.get("s").unwrap().try_u64("n").unwrap_err(),
        ] {
            assert_eq!(err.at, None);
            assert!(err.to_string().contains("`n` must be a"), "{err}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        #[test]
        fn every_proper_prefix_of_a_document_is_an_error(
            fields in prop::collection::vec((0..6u8, 0..u64::MAX, 0..0x2_0000u32), 0..8)
        ) {
            let mut obj = JsonObject::new();
            for (i, (kind, n, c)) in fields.into_iter().enumerate() {
                let key = format!("k{i}");
                let text: String = [char::from_u32(c).unwrap_or('"'), '\\', '\n'].iter().collect();
                obj = match kind {
                    0 => obj.u64(&key, n),
                    1 => obj.str(&key, &text),
                    2 => obj.f64(&key, n as f64 / 7.0),
                    3 => obj.bool(&key, n % 2 == 0),
                    4 => obj.pairs(&key, &[(n, 0), (1, n)]),
                    _ => obj.raw(&key, &JsonObject::new().str(&text, &text).finish()),
                };
            }
            let doc = obj.finish();
            prop_assert!(Json::parse(&doc).is_ok(), "{doc}");
            for (cut, _) in doc.char_indices() {
                prop_assert!(Json::parse(&doc[..cut]).is_err(), "prefix {cut} of {doc}");
            }
        }
    }
}
