//! A minimal JSON reader, just big enough to load the trace files this
//! crate writes (the build is hermetic — no serde).
//!
//! Numbers are held as `f64`, which represents every integer of magnitude
//! below 2^53 exactly but not all above it (2^53 + 1 parses as 2^53), so
//! [`JsonValue::as_i64`] and [`JsonValue::as_u64`] reject magnitudes of
//! 2^53 and beyond instead of returning a neighbouring integer. Every
//! integer the exporter writes (nanosecond stamps, depths, flow ids, sched
//! keys) is far below that.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; key order preserved as written.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member by key (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an integer, if it is a number that is one and its
    /// magnitude is below 2^53 (so the document spelled exactly it).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Num(n) if n.fract() == 0.0 && n.abs() < 2f64.powi(53) => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as a non-negative integer, under the rules of
    /// [`JsonValue::as_i64`].
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure, with byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting depth. The parser is recursive-descent, so
/// without a cap an adversarial document (`[[[[…`) would overflow the
/// stack — an abort, not a catchable error. 512 is far beyond anything
/// the exporter writes (traces nest 4 deep) while keeping the recursion
/// well inside any thread's stack.
pub const MAX_DEPTH: usize = 512;

/// Parses a complete JSON document.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
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
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not produced by the
                            // exporter; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unsupported \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>().map(JsonValue::Num).map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-2.5e2").unwrap(), JsonValue::Num(-250.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), JsonValue::Str("a\nb".to_string()));
    }

    #[test]
    fn parses_nested_structure() {
        let v = parse("{\"a\":[1,2,{\"b\":\"c\"}],\"d\":{}}").unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[2].get("b").unwrap().as_str(), Some("c"));
        assert_eq!(v.get("d").unwrap(), &JsonValue::Obj(vec![]));
    }

    #[test]
    fn u64_roundtrip_is_exact_below_2_53() {
        let stamp = 199_999_999_987u64;
        let v = parse(&stamp.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(stamp));
    }

    #[test]
    fn u64_rejects_2_53_and_beyond_instead_of_rounding() {
        // 2^53 + 1 has no f64: it parses as 2^53, which must not pass
        // for a seed or a capacity the document never spelled.
        for text in ["9007199254740993", "9007199254740992", "1e300"] {
            assert_eq!(parse(text).unwrap().as_u64(), None, "{text}");
        }
        assert_eq!(parse("9007199254740991").unwrap().as_u64(), Some(9_007_199_254_740_991));
        assert_eq!(parse("-0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn i64_reads_signed_integers_below_2_53() {
        assert_eq!(parse("-42").unwrap().as_i64(), Some(-42));
        assert_eq!(parse("-9007199254740991").unwrap().as_i64(), Some(-9_007_199_254_740_991));
        for text in ["-9007199254740992", "9007199254740993", "2.5", "\"7\""] {
            assert_eq!(parse(text).unwrap().as_i64(), None, "{text}");
        }
    }

    #[test]
    fn unicode_escape() {
        let v = parse("\"q\\u2192r\"").unwrap();
        assert_eq!(v.as_str(), Some("q→r"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn empty_trace_document() {
        // The exporter's shape for a run with no events at all.
        let v = parse("{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}").unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events.is_empty());
        // Empty containers on their own parse too.
        assert_eq!(parse("[]").unwrap(), JsonValue::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), JsonValue::Obj(vec![]));
        assert_eq!(parse("  {  }  ").unwrap(), JsonValue::Obj(vec![]));
    }

    #[test]
    fn escaped_strings_roundtrip_every_escape() {
        let v = parse(r#""quote:\" back:\\ slash:\/ tab:\t nl:\n cr:\r bs:\b ff:\f""#).unwrap();
        assert_eq!(
            v.as_str(),
            Some("quote:\" back:\\ slash:/ tab:\t nl:\n cr:\r bs:\u{8} ff:\u{c}")
        );
        // Escapes inside object keys, as the exporter writes for topic
        // names in counter events.
        let v = parse(r#"{"q → n":1}"#).unwrap();
        assert_eq!(v.get("q → n").and_then(JsonValue::as_u64), Some(1));
        // Truncated and malformed escapes are rejected, not mangled.
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse(r#""\x41""#).is_err());
        assert!(parse("\"\\").is_err());
    }

    #[test]
    fn deeply_nested_args_parse_and_index() {
        // Build args nested 64 levels deep: {"a":{"a":...{"a":7}...}}.
        let depth = 64;
        let mut text = String::new();
        for _ in 0..depth {
            text.push_str("{\"a\":");
        }
        text.push('7');
        text.push_str(&"}".repeat(depth));
        let v = parse(&text).unwrap();
        let mut cursor = &v;
        for _ in 0..depth {
            cursor = cursor.get("a").unwrap();
        }
        assert_eq!(cursor.as_u64(), Some(7));

        // Same depth through arrays.
        let text = format!("{}7{}", "[".repeat(depth), "]".repeat(depth));
        let v = parse(&text).unwrap();
        let mut cursor = &v;
        for _ in 0..depth {
            cursor = &cursor.as_array().unwrap()[0];
        }
        assert_eq!(cursor.as_u64(), Some(7));
    }

    #[test]
    fn nesting_beyond_the_cap_is_an_error_not_an_overflow() {
        // Exactly at the cap parses; one past it is a clean error; far
        // past it (deep enough to smash the stack without the cap) is
        // still a clean error.
        for depth in [MAX_DEPTH, MAX_DEPTH + 1, 200_000] {
            let text = format!("{}7{}", "[".repeat(depth), "]".repeat(depth));
            let result = parse(&text);
            if depth <= MAX_DEPTH {
                assert!(result.is_ok(), "depth {depth} should parse");
            } else {
                let err = result.expect_err("over-deep document must be rejected");
                assert!(err.message.contains("nesting"), "unexpected error: {err}");
            }
        }
        // Mixed object/array nesting counts against the same cap.
        let deep = format!("{}null{}", "{\"a\":[".repeat(300), "]}".repeat(300));
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn duplicate_keys_resolve_to_first_match() {
        // `get` documents first-match semantics; pin them down.
        let v = parse("{\"k\":1,\"k\":2}").unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_u64), Some(1));
    }
}
