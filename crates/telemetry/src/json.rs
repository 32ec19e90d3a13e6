//! Hand-rolled JSON writing and parsing.
//!
//! The build environment is offline, so instead of `serde` the run-log
//! sink serializes through [`JsonObject`] — append-only, insertion-ordered
//! fields, which gives the JSONL schema its stable field order — and the
//! tests validate output with the small recursive-descent [`parse`]r.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string for a JSON string literal (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Serializes an `f64` the way the run log wants it: finite shortest
/// round-trip, with NaN/inf mapped to `null` (JSON has no non-finite
/// numbers).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        // Keep integers recognisably floats for schema stability.
        if !s.contains('.') && !s.contains('e') && !s.contains("inf") {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

/// An insertion-ordered JSON object builder.
#[derive(Debug, Default, Clone)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject { buf: String::new() }
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.sep();
        let _ = write!(self.buf, "\"{}\":\"{}\"", escape(key), escape(value));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.sep();
        let _ = write!(self.buf, "\"{}\":{}", escape(key), value);
        self
    }

    /// Adds a float field (non-finite values become `null`).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.sep();
        let _ = write!(self.buf, "\"{}\":{}", escape(key), number(value));
        self
    }

    /// Adds a pre-serialized JSON value (nested object/array).
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.sep();
        let _ = write!(self.buf, "\"{}\":{}", escape(key), value);
        self
    }

    /// Finishes the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Serializes a slice of pre-serialized values as a JSON array.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}

/// A parsed JSON value (used by tests and the bench-file reader).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (sorted by key; field order is not preserved).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a u64, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the bound keeps hostile input (say, a request body
/// of 256 KiB of `[`) from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a description of the first syntax error, or of nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => self.num(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Parses one array or object, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let Some(c) = s.chars().next() else {
                        return Err("unterminated string".to_string());
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn num(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_builder_round_trips_through_parser() {
        let line = JsonObject::new()
            .str("type", "experiment")
            .u64("index", 7)
            .f64("modelled_s", 0.25)
            .str("note", "quote \" and \\ and\nnewline")
            .raw("nested", &JsonObject::new().u64("x", 1).finish())
            .finish();
        let v = parse(&line).expect("parses");
        assert_eq!(
            v.get("type").and_then(JsonValue::as_str),
            Some("experiment")
        );
        assert_eq!(v.get("index").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(v.get("modelled_s").and_then(JsonValue::as_f64), Some(0.25));
        assert_eq!(
            v.get("note").and_then(JsonValue::as_str),
            Some("quote \" and \\ and\nnewline")
        );
        assert_eq!(
            v.get("nested")
                .and_then(|n| n.get("x"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
    }

    #[test]
    fn field_order_is_insertion_order() {
        let line = JsonObject::new().u64("b", 1).u64("a", 2).finish();
        assert_eq!(line, "{\"b\":1,\"a\":2}");
    }

    #[test]
    fn arrays_and_literals() {
        let v = parse("[1, 2.5, null, true, \"x\", {}]").expect("parses");
        match v {
            JsonValue::Array(items) => {
                assert_eq!(items.len(), 6);
                assert_eq!(items[0].as_u64(), Some(1));
                assert_eq!(items[1].as_f64(), Some(2.5));
                assert_eq!(items[2], JsonValue::Null);
                assert_eq!(items[3], JsonValue::Bool(true));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        assert!(parse(&format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        ))
        .is_err());
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // A request body's worth of `[` (the HTTP layer's 256 KiB body
        // budget), parsed on a thread with the default stack size.
        let body = "[".repeat(256 * 1024);
        let result = std::thread::spawn(move || parse(&body)).join().unwrap();
        assert!(result.is_err());
    }

    #[test]
    fn non_finite_floats_become_null() {
        let line = JsonObject::new().f64("x", f64::NAN).finish();
        assert_eq!(line, "{\"x\":null}");
    }
}
