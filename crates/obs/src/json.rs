//! The workspace's one JSON implementation: a value type with a strict
//! recursive-descent parser and a compact single-line renderer, plus the
//! shared string-escaping helper.
//!
//! The build environment has no serde. Every JSON document the workspace
//! reads goes through [`Json::parse`]: daemon request lines, the snapshot
//! the live metrics plane re-embeds, the bench artifacts `bench_gate`
//! compares, and the tests that hold the hand-rolled export sinks (trace,
//! metrics and stats sidecars) to the grammar. The parser is exactly
//! RFC 8259 with three rules on top: nesting is bounded by [`MAX_DEPTH`],
//! an object may not repeat a key, and a `\u` escape must form a Unicode
//! scalar value (surrogates only as a high/low pair). It runs in time
//! linear in the input. [`escape`] is also what the export sinks and
//! `vgen-lint`'s `--json` output use to write strings.
//!
//! Numbers are held as `f64` (protocol integers are small: request ids,
//! counts, seeds) and object members keep insertion order, so rendered
//! lines are deterministic.

use std::collections::HashSet;
use std::fmt::Write as _;

/// Nesting bound: at most this many arrays/objects may enclose one
/// another. Protocol messages and metric documents are a few levels deep;
/// anything deeper is hostile input.
pub const MAX_DEPTH: usize = 64;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as an `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// Members in insertion order; duplicate keys are rejected by the
    /// parser.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error (a protocol line is exactly one value).
    ///
    /// # Errors
    ///
    /// A message describing the first syntax error and its byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, at: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.at != text.len() {
            return Err(format!("trailing data at byte {}", p.at));
        }
        Ok(v)
    }

    /// Renders compactly on one line (no interior newlines, ever — the
    /// transport is line-delimited).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => render_number(*x, out),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Object member lookup; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Numeric member as a non-negative integer; `None` if fractional,
    /// negative, or too large for exact `f64` representation.
    pub fn as_u64(&self) -> Option<u64> {
        let x = self.as_f64()?;
        if x.fract() != 0.0 || !(0.0..=9_007_199_254_740_992.0).contains(&x) {
            return None;
        }
        Some(x as u64)
    }

    /// [`Json::as_u64`], narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

/// Escapes `s` for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

fn escape_into(s: &str, out: &mut String) {
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

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// Renders an `f64` the way the protocol wants integers to look: `7`,
/// not `7.0`, for whole numbers in exact range.
fn render_number(x: f64, out: &mut String) {
    if !x.is_finite() {
        // JSON has no NaN/Inf; null is the least-wrong encoding.
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn skip_digits(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.at))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected `{}` at byte {}", b as char, self.at)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.text[self.at..].starts_with(word) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    /// RFC 8259 `number`: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        match self.peek() {
            Some(b'0') => self.at += 1,
            Some(b'1'..=b'9') => self.skip_digits(),
            _ => return Err(format!("bad number at byte {start}")),
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(format!("bad fraction at byte {}", self.at));
            }
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(format!("bad exponent at byte {}", self.at));
            }
            self.skip_digits();
        }
        let text = &self.text[start..self.at];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next byte that needs attention. All
            // three stop bytes are ASCII, so the cut is a char boundary.
            let start = self.at;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.at += 1;
            }
            out.push_str(&self.text[start..self.at]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.at += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    };
                    out.push(c);
                    self.at += 1;
                }
                Some(_) => {
                    return Err(format!("raw control byte in string at {}", self.at));
                }
            }
        }
    }

    /// Decodes the rest of a `\u` escape (cursor just past the `u`): one
    /// scalar, or a high surrogate followed by `\u` and a low surrogate.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.at;
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) && self.text[self.at..].starts_with("\\u") {
            self.at += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(format!("bad surrogate pair at byte {at}"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        // A lone surrogate is not a scalar value: `from_u32` refuses it.
        char::from_u32(code).ok_or_else(|| format!("bad \\u escape at byte {at}"))
    }

    /// Reads exactly 4 hex digits, leaving the cursor just past them.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .as_bytes()
            .get(self.at..self.at + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.at))?;
        let v = digits
            .iter()
            .fold(0, |v, &d| (v << 4) | (d as char).to_digit(16).unwrap_or(0));
        self.at += 4;
        Ok(v)
    }

    fn enter(&self, depth: usize) -> Result<(), String> {
        if depth > MAX_DEPTH {
            Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.at
            ))
        } else {
            Ok(())
        }
    }

    /// An array whose brackets are the `depth`-th enclosing level.
    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.enter(depth)?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.at)),
            }
        }
    }

    /// An object whose braces are the `depth`-th enclosing level.
    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.enter(depth)?;
        self.expect(b'{')?;
        let mut members: Vec<(String, Json)> = Vec::new();
        // The keys read so far, so a repeated key is found in linear time.
        let mut keys: HashSet<String> = HashSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if !keys.insert(key.clone()) {
                return Err(format!("duplicate key `{key}`"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth)?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::time::{Duration, Instant};

    #[test]
    fn roundtrips_protocol_shapes() {
        let cases = [
            r#"{"id":1,"cmd":"ping"}"#,
            r#"{"id":2,"cmd":"eval","journal":"/tmp/j.log","jobs":4,"resume":true}"#,
            r#"{"a":[1,2.5,-3,null,true,false,"x"],"b":{"c":{}},"d":[]}"#,
            r#"{"s":"quote \" backslash \\ newline \n tab \t"}"#,
        ];
        for text in cases {
            let v = Json::parse(text).expect(text);
            assert_eq!(v.render(), text, "renders back byte for byte");
            assert_eq!(Json::parse(&v.render()).expect("reparse"), v, "{text}");
        }
    }

    #[test]
    fn renders_whole_numbers_without_fraction() {
        assert_eq!(Json::Num(7.0).render(), "7");
        assert_eq!(Json::Num(-2.0).render(), "-2");
        assert_eq!(Json::Num(0.25).render(), "0.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = Json::parse(r#""\u0041\u00e9\ud83d\ude00""#).expect("unicode");
        assert_eq!(v, Json::Str("Aé😀".to_string()));
    }

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "null",
            "true",
            "0",
            "-0",
            "-12.5e+3",
            "1E-2",
            "\"a \\\"quoted\\\" string\\n\"",
            "[]",
            "{}",
            "[1, 2, [3, {\"k\": null}]]",
            "{\"a\": [1.5], \"b\": {\"c\": \"d\"}}",
            "  {\"padded\": true}  ",
        ] {
            assert!(Json::parse(ok).is_ok(), "rejected `{ok}`");
        }
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"k\":}",
            "{\"k\" 1}",
            "{k: 1}",
            "{\"a\":1,\"a\":2}",
            "01",
            "-01",
            "1.",
            "1e",
            "1e+",
            ".5",
            "-",
            "+1",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"\\q\"",
            "\"\\u+123\"",
            "\"\\u12\"",
            "\"\\udc00\"",
            "\"\\ud83d\"",
            "\"\\ud83d\\u0041\"",
            "\"raw \u{0007} control\"",
            "\"raw \n newline\"",
            "[1] trailing",
            "1 2",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn duplicate_keys_are_rejected_in_objects_of_any_size() {
        for n in [1, 2, 16, 48] {
            let members: Vec<String> = (0..n).map(|i| format!("\"k{i}\":{i}")).collect();
            let unique = format!("{{{}}}", members.join(","));
            assert!(Json::parse(&unique).is_ok(), "{unique}");
            let repeated = format!("{{{},\"k0\":0}}", members.join(","));
            let err = Json::parse(&repeated).expect_err("repeated key");
            assert!(err.contains("duplicate key `k0`"), "{err}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(err.contains("nesting deeper than 64"), "{err}");
        let objects = |n: usize| "{\"k\":".repeat(n) + "1" + &"}".repeat(n);
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let hostile = "quote\" backslash\\ newline\n tab\t bell\u{0007} unicode ✓";
        let doc = format!("{{\"k\": \"{}\"}}", escape(hostile));
        let v = Json::parse(&doc).expect("escaped string parses");
        assert_eq!(v.get("k").and_then(Json::as_str), Some(hostile));
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n":3,"s":"x","b":true,"f":1.5}"#).expect("parse");
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_usize), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("f").and_then(Json::as_u64), None);
        assert_eq!(v.get("missing"), None);
    }

    /// A long request line costs time linear in its length: a `check`
    /// whose source is a 1 MiB string, and an object with 100k keys, each
    /// parse well inside the bound even in a debug build.
    #[test]
    fn long_lines_parse_in_linear_time() {
        let bound = Duration::from_secs(10);
        let source: String = "assign y = a & b; // ✓\n"
            .chars()
            .cycle()
            .take(1 << 20)
            .collect();
        let line = Json::Obj(vec![
            ("id".to_string(), Json::Num(1.0)),
            ("cmd".to_string(), Json::str("check")),
            ("problem".to_string(), Json::Num(2.0)),
            ("source".to_string(), Json::str(source.clone())),
        ])
        .render();
        let start = Instant::now();
        let v = Json::parse(&line).expect("long check line parses");
        assert!(start.elapsed() < bound, "took {:?}", start.elapsed());
        assert_eq!(v.get("source").and_then(Json::as_str), Some(&source[..]));

        let members: Vec<String> = (0..100_000).map(|i| format!("\"k{i}\":{i}")).collect();
        let wide = format!("{{{}}}", members.join(","));
        let start = Instant::now();
        let v = Json::parse(&wide).expect("wide object parses");
        assert!(start.elapsed() < bound, "took {:?}", start.elapsed());
        assert_eq!(v.get("k99999").and_then(Json::as_u64), Some(99_999));
    }

    /// A small deterministic generator of JSON values (the vendored
    /// proptest has no recursive strategies): arrays and objects nested up
    /// to depth 8 with unique keys, finite numbers, and strings with
    /// quotes, backslashes, control, non-ASCII and astral characters.
    struct Gen(u64);

    impl Gen {
        /// splitmix64.
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn char(&mut self) -> char {
            let (lo, hi) = match self.below(7) {
                0 => (u32::from('"'), u32::from('"')),
                1 => (u32::from('\\'), u32::from('\\')),
                2 => (0, 0x1f),
                3 => (u32::from('a'), u32::from('z')),
                4 => (0xa0, 0xd7ff),
                5 => (0xe000, 0xfffd),
                _ => (0x1_0000, 0x10_ffff),
            };
            char::from_u32(lo + self.below(u64::from(hi - lo + 1)) as u32).expect("scalar value")
        }

        fn string(&mut self) -> String {
            (0..self.below(10)).map(|_| self.char()).collect()
        }

        fn number(&mut self) -> f64 {
            if self.below(2) == 0 {
                return self.below(2_000_001) as f64 - 1_000_000.0;
            }
            loop {
                let x = f64::from_bits(self.next());
                if x.is_finite() {
                    return x;
                }
            }
        }

        fn json(&mut self, depth: usize) -> Json {
            let kinds = if depth < 8 { 7 } else { 5 };
            match self.below(kinds) {
                0 => Json::Null,
                1 => Json::Bool(self.below(2) == 0),
                2 => Json::Num(self.number()),
                3 | 4 => Json::Str(self.string()),
                5 => Json::Arr((0..self.below(5)).map(|_| self.json(depth + 1)).collect()),
                _ => {
                    let mut members: Vec<(String, Json)> = Vec::new();
                    for _ in 0..self.below(5) {
                        let key = self.string();
                        let value = self.json(depth + 1);
                        if members.iter().all(|(k, _)| *k != key) {
                            members.push((key, value));
                        }
                    }
                    Json::Obj(members)
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn render_then_parse_is_the_identity(seed in any::<u64>()) {
            let v = Gen(seed).json(0);
            let line = v.render();
            prop_assert!(!line.contains('\n'), "one line: {}", line);
            prop_assert_eq!(Json::parse(&line), Ok(v));
        }
    }
}
