//! Hand-rolled JSON writing and parsing.
//!
//! The build environment is offline, so instead of `serde` the run-log
//! sink serializes through [`JsonObject`] — append-only, insertion-ordered
//! fields, which gives the JSONL schema its stable field order — and one
//! recursive-descent [`parse`]r reads every JSON the workspace takes in:
//! shard journals, job specs and queue records, HTTP request bodies, the
//! benchmark's files, and test output. Some of that input is hostile (a
//! request body, a torn journal), so parsing runs in time linear in its
//! input and nesting is bounded by [`MAX_DEPTH`].

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

/// 2^53: every integer below it is exactly representable as an `f64`.
const EXACT_F64_LIMIT: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A plain non-negative integer literal (digits only) that fits in
    /// a `u64`, kept exact: `f64` would round anything above 2^53.
    Integer(u64),
    /// Any other number (parsed as `f64`).
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
            JsonValue::Integer(n) => Some(*n as f64),
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a u64, if it is a non-negative integer: a plain
    /// integer literal (exact at any size), or an integral float
    /// (`12.0`, `1e3`) below 2^53, the range where `f64` holds every
    /// integer exactly. Fractions, negatives and larger floats are
    /// `None`, never rounded or saturated.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Integer(n) => Some(*n),
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT_F64_LIMIT => {
                Some(*n as u64)
            }
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
        text: input,
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
    text: &'a str,
    /// `text` as bytes: every token boundary the parser stops at is an
    /// ASCII byte, so slicing `text` there is always on a char boundary.
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

    /// Parses a string literal. Each run of bytes up to the next `"` or
    /// `\` is copied as one slice, so the literal costs one pass over
    /// its bytes whatever it holds.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            let stop = self.bytes[self.pos + run];
            self.pos += run + 1;
            if stop == b'"' {
                return Ok(out);
            }
            let escaped = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    self.pos += 1;
                    out.push(self.unicode_escape()?);
                    continue;
                }
                other => return Err(format!("bad escape {other:?}")),
            };
            out.push(escaped);
            self.pos += 1;
        }
    }

    /// Decodes the code unit of a `\u` escape (the `\u` already
    /// consumed). A high surrogate followed by an escaped low surrogate
    /// is one scalar; an unpaired surrogate is U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let unit = self.hex4()?;
        if (0xD800..0xDC00).contains(&unit) && self.bytes[self.pos..].starts_with(b"\\u") {
            let unpaired = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                let scalar = 0x1_0000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(scalar).unwrap_or(char::REPLACEMENT_CHARACTER));
            }
            // Not a low surrogate: it is decoded as an escape of its own.
            self.pos = unpaired;
        }
        Ok(char::from_u32(unit).unwrap_or(char::REPLACEMENT_CHARACTER))
    }

    /// Reads exactly four hex digits (no sign, no other prefix).
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let mut unit = 0;
        for &d in digits {
            let nibble = char::from(d)
                .to_digit(16)
                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
            unit = unit << 4 | nibble;
        }
        self.pos += 4;
        Ok(unit)
    }

    /// Parses a number. A plain digit run is accumulated as it is
    /// scanned and kept exact if it fits a `u64`; anything else (a sign,
    /// fraction or exponent, or a larger value) is parsed as an `f64`.
    fn num(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let mut integer = Some(0u64);
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    integer =
                        integer.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(b - b'0')));
                }
                b'-' | b'+' | b'.' | b'e' | b'E' => integer = None,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match integer {
            Some(n) if !text.is_empty() => Ok(JsonValue::Integer(n)),
            _ => text
                .parse::<f64>()
                .map(JsonValue::Number)
                .map_err(|_| format!("bad number `{text}` at byte {start}")),
        }
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
    fn long_strings_parse_in_linear_time() {
        // 4 MiB string literals: plain ASCII, nothing but escapes, and a
        // two-byte scalar. A parser that re-read the rest of its input
        // per character would take hours here; a linear one takes
        // milliseconds, even unoptimized.
        const LEN: usize = 4 << 20;
        for (body, unescaped) in [("a", "a"), ("\\n", "\n"), ("\u{e9}", "\u{e9}")] {
            let count = LEN / body.len();
            let literal = format!("\"{}\"", body.repeat(count));
            let started = std::time::Instant::now();
            let value = parse(&literal).expect("parses");
            let took = started.elapsed();
            assert!(took.as_secs() < 5, "{body:?} × {count}: {took:?}");
            assert_eq!(value, JsonValue::String(unescaped.repeat(count)));
        }
    }

    #[test]
    fn unicode_escapes_pair_surrogates_and_take_exactly_four_hex_digits() {
        let string = |text: &str| parse(text).map(|v| v.as_str().map(str::to_string));
        let ok = |s: &str| Ok(Some(s.to_string()));
        assert_eq!(string(r#""Aéé""#), ok("A\u{e9}\u{e9}"));
        assert_eq!(string(r#""😀""#), ok("\u{1f600}"));
        assert_eq!(string(r#""😀!""#), ok("\u{1f600}!"));
        // Unpaired surrogates are U+FFFD, and whatever follows one is
        // decoded on its own.
        assert_eq!(string(r#""\ud83d""#), ok("\u{fffd}"));
        assert_eq!(string(r#""\ude00\ud83d""#), ok("\u{fffd}\u{fffd}"));
        assert_eq!(string(r#""\ud83dx""#), ok("\u{fffd}x"));
        assert_eq!(string(r#""\ud83d\n""#), ok("\u{fffd}\n"));
        assert_eq!(string(r#""\ud83dA""#), ok("\u{fffd}A"));
        assert_eq!(string(r#""\ud83d😀""#), ok("\u{fffd}\u{1f600}"));
        // Exactly four hex digits: no sign, no short or non-hex forms.
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u041""#,
            r#""\u04g1""#,
            r#""\u 041""#,
            r#""\u00""#,
            r#""\ud83d\u+e00""#,
            r#""\ud83d\ude0""#,
        ] {
            assert!(parse(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn integers_are_exact_and_non_integers_are_not_u64() {
        let big = (1u64 << 53) + 1;
        let v = parse(&format!(
            "[{big}, {}, 12.0, 1e3, 1.5, -1, 1e19, 2e20]",
            u64::MAX
        ))
        .expect("parses");
        let JsonValue::Array(items) = v else {
            panic!("expected array");
        };
        let got: Vec<Option<u64>> = items.iter().map(JsonValue::as_u64).collect();
        assert_eq!(
            got,
            [
                Some(big),
                Some(u64::MAX),
                Some(12),
                Some(1000),
                None,
                None,
                None,
                None
            ]
        );
        assert_eq!(items[0].as_f64(), Some(big as f64));
        // One past u64::MAX is still a number, just not a u64.
        let past = parse("18446744073709551616").expect("parses");
        assert_eq!(past.as_u64(), None);
        assert_eq!(past.as_f64(), Some(18_446_744_073_709_551_616.0));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let line = JsonObject::new().f64("x", f64::NAN).finish();
        assert_eq!(line, "{\"x\":null}");
    }

    use proptest::prelude::*;
    use proptest::test_runner::Prng;

    /// Characters JSON text is made of, weighted towards the ones that
    /// steer the parser, plus a multi-byte scalar.
    const JSON_SOUP: &[char] = &[
        '{', '}', '[', ']', '"', ':', ',', ' ', '\\', 'u', '0', '1', '9', '.', '-', '+', 'e', 'E',
        't', 'r', 'u', 'e', 'f', 'a', 'l', 's', 'n', 'x', '\n', 'é',
    ];

    /// An arbitrary string: any Unicode scalar, with control characters,
    /// quotes and backslashes over-represented.
    fn random_string(rng: &mut Prng) -> String {
        let len = rng.below(12);
        (0..len)
            .map(|_| match rng.below(4) {
                0 => ['"', '\\', '\n', '\u{1}', '\u{1f}', '/'][rng.below(6) as usize],
                1 => char::from_u32(rng.below(0x80) as u32).unwrap_or('?'),
                _ => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
            })
            .collect()
    }

    /// A random value tree at most `depth` containers deep. Numbers are
    /// finite (the writer maps non-finite ones to `null`) and integers
    /// span the whole `u64` range.
    fn random_value(rng: &mut Prng, depth: u32) -> JsonValue {
        let kinds = if depth == 0 { 5 } else { 7 };
        match rng.below(kinds) {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(rng.below(2) == 1),
            2 => JsonValue::Integer(rng.next_u64() >> rng.below(64)),
            3 => {
                let f = f64::from_bits(rng.next_u64());
                JsonValue::Number(if f.is_finite() { f } else { -0.5 })
            }
            4 => JsonValue::String(random_string(rng)),
            5 => JsonValue::Array(
                (0..rng.below(5))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => JsonValue::Object(
                (0..rng.below(5))
                    .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Writes `text` as a string literal's body, picking at random for
    /// each scalar among the encodings JSON allows it (raw, a short
    /// escape, `\uXXXX` in either case, a surrogate pair), with
    /// unpaired surrogates mixed in when `lone` is set.
    fn random_escapes(rng: &mut Prng, text: &str, lone: bool) -> String {
        let mut body = String::new();
        let hex = |rng: &mut Prng, unit: u16| {
            if rng.below(2) == 0 {
                format!("\\u{unit:04x}")
            } else {
                format!("\\u{unit:04X}")
            }
        };
        for c in text.chars() {
            // Runs of them, so an escaped high surrogate can meet an
            // escaped low one and pair.
            while lone && rng.below(4) == 0 {
                let surrogate = 0xD800 + rng.below(0x800) as u16;
                body.push_str(&hex(rng, surrogate));
            }
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\u{8}' => Some("\\b"),
                '\u{c}' => Some("\\f"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                _ => None,
            };
            match (rng.below(3), short) {
                (0, _) if !matches!(c, '"' | '\\') => body.push(c),
                (1, Some(escape)) => body.push_str(escape),
                _ => {
                    for unit in c.encode_utf16(&mut [0; 2]) {
                        body.push_str(&hex(rng, *unit));
                    }
                }
            }
        }
        body
    }

    /// A decoder for a string literal's body written apart from the
    /// parser: every raw scalar and escape becomes UTF-16 code units,
    /// and `char::decode_utf16` pairs them, replacing what is unpaired.
    fn reference_decode(body: &str) -> String {
        let mut units = Vec::new();
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                units.extend_from_slice(c.encode_utf16(&mut [0; 2]));
                continue;
            }
            units.push(match chars.next() {
                Some('u') => {
                    let digits: String = chars.by_ref().take(4).collect();
                    u16::from_str_radix(&digits, 16).expect("four hex digits")
                }
                Some('b') => 0x8,
                Some('f') => 0xc,
                Some('n') => u16::from(b'\n'),
                Some('r') => u16::from(b'\r'),
                Some('t') => u16::from(b'\t'),
                Some(c) => c as u16,
                None => panic!("dangling backslash"),
            });
        }
        char::decode_utf16(units)
            .map(|c| c.unwrap_or(char::REPLACEMENT_CHARACTER))
            .collect()
    }

    /// Serializes a value tree with the module's writers.
    fn write(v: &JsonValue) -> String {
        match v {
            JsonValue::Null => "null".to_string(),
            JsonValue::Bool(b) => b.to_string(),
            JsonValue::Integer(n) => n.to_string(),
            JsonValue::Number(f) => number(*f),
            JsonValue::String(s) => format!("\"{}\"", escape(s)),
            JsonValue::Array(items) => array(&items.iter().map(write).collect::<Vec<_>>()),
            JsonValue::Object(fields) => fields
                .iter()
                .fold(JsonObject::new(), |o, (k, v)| o.raw(k, &write(v)))
                .finish(),
        }
    }

    proptest! {
        /// Arbitrary text up to a few KiB is parsed or refused, never a
        /// panic: raw bytes (lossily decoded) and JSON-token soup.
        #[test]
        fn parse_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..4096),
            soup in proptest::collection::vec(0usize..JSON_SOUP.len(), 0..4096),
        ) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
            let soup: String = soup.iter().map(|&k| JSON_SOUP[k]).collect();
            let _ = parse(&soup);
        }

        /// Value trees written with `escape`, `number`, `array` and
        /// `JsonObject` parse back to the same tree.
        #[test]
        fn written_values_round_trip(seed in any::<u64>()) {
            let mut rng = Prng::new(seed);
            let value = random_value(&mut rng, 4);
            let text = write(&value);
            prop_assert_eq!(parse(&text), Ok(value), "{}", text);
        }

        /// Strings written with random escape choices, unpaired
        /// surrogates included, parse to what the reference decoder
        /// reads; without unpaired surrogates, to the original text.
        #[test]
        fn escaped_strings_match_a_reference_decoder(seed in any::<u64>()) {
            let mut rng = Prng::new(seed);
            let text: String = (0..4).map(|_| random_string(&mut rng)).collect();
            let lone = rng.below(2) == 1;
            let body = random_escapes(&mut rng, &text, lone);
            let expected = reference_decode(&body);
            if !lone {
                prop_assert_eq!(&expected, &text);
            }
            prop_assert_eq!(
                parse(&format!("\"{body}\"")),
                Ok(JsonValue::String(expected)),
                "{}",
                body
            );
        }

        /// Integers above 2^53, where `f64` would round, come back exact,
        /// alone and nested.
        #[test]
        fn integers_above_2_pow_53_are_exact(n in (1u64 << 53)..=u64::MAX) {
            prop_assert_eq!(parse(&n.to_string()), Ok(JsonValue::Integer(n)));
            let nested = parse(&format!("{{\"n\":[{n}]}}")).map_err(TestCaseError::fail)?;
            let got = nested.get("n").map(|a| match a {
                JsonValue::Array(items) => items.first().and_then(JsonValue::as_u64),
                _ => None,
            });
            prop_assert_eq!(got, Some(Some(n)));
        }
    }
}
