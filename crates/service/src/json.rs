//! A minimal JSON value type with a strict parser and compact writer.
//!
//! The workspace's vendored `serde` is a no-op stand-in (DESIGN.md §5),
//! so the service speaks JSON through this hand-rolled module instead:
//! ~250 lines covering exactly what a newline-delimited wire protocol
//! needs. Numbers are `f64` (like JavaScript); objects preserve key
//! order; the writer emits compact one-line output so every encoded
//! value is a valid JSON-lines frame.
//!
//! Numbers follow the RFC 8259 §6 grammar exactly:
//! `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. So `01`,
//! `1.`, `-.5` and `1.e3` are `bad number` errors (at the token's first
//! byte) even though Rust's `f64::from_str` would take them, and a token
//! that overflows `f64` (`1e309`) is a `non-finite number` error. The
//! scanner checks that grammar in the same pass that accumulates the
//! decimal mantissa `m` and exponent `e`. When `m` has at most 15
//! significant digits and `|e| ≤ 22`, both `m` and `10^|e|` are exact
//! `f64`s, so `m × 10^e` (or `m ÷ 10^-e`) rounds once and yields exactly
//! the bits of a correctly rounding parser (Clinger's fast path). Every
//! other token falls back to `str::parse`. The wire's matrices (short
//! decimals) almost always take the fast path.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Parse failure: message plus byte offset into the input.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where it went wrong.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document; trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0, stack: Vec::new() };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (no fractional part, no overflow).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// [`Json::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number value; non-finite inputs become `null` (JSON has
    /// no NaN/∞).
    pub fn num(n: f64) -> Json {
        if n.is_finite() {
            Json::Num(n)
        } else {
            Json::Null
        }
    }
}

impl std::fmt::Display for Json {
    /// Compact single-line rendering — directly usable as a JSON-lines
    /// frame.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    f.write_str("null")
                } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut std::fmt::Formatter<'_>, s: &str) -> std::fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Nesting bound: the daemon parses untrusted input, and recursive
/// descent must fail cleanly rather than overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// Elements of the arrays being parsed, innermost last.
    stack: Vec<Json>,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { message: message.into(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes.get(self.pos..).is_some_and(|rest| rest.starts_with(text.as_bytes())) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {text:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect_byte(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(Vec::new()));
        }
        // Elements collect on the shared stack above `base` (nested
        // arrays stack above them and pop back off), so each array
        // allocates once, at its exact length.
        let base = self.stack.len();
        loop {
            self.skip_ws();
            let item = self.value()?;
            self.stack.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    // `base <= len`: every nested array popped back to
                    // its own base, which is at or above ours.
                    return Ok(Json::Arr(self.stack.split_off(base)));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: consume a run of plain bytes in one go.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            if self.pos > start {
                let bytes = self.bytes.get(start..self.pos).unwrap_or_default();
                let chunk =
                    std::str::from_utf8(bytes).map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: a \uXXXX low surrogate must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect_byte(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        return char::from_u32(code).ok_or_else(|| self.err("bad surrogate pair"));
                    }
                    return Err(self.err("lone high surrogate"));
                }
                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
            }
            other => return Err(self.err(format!("bad escape \\{}", other as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let Some(bytes) = self.bytes.get(self.pos..self.pos + 4) else {
            return Err(self.err("truncated \\u escape"));
        };
        // Exactly four ASCII hex digits: `u32::from_str_radix` would also
        // take a leading `+`.
        let value = bytes
            .iter()
            .try_fold(0u32, |acc, &b| Some(acc * 16 + char::from(b).to_digit(16)?))
            .ok_or_else(|| self.err("non-hex \\u escape"))?;
        self.pos += 4;
        Ok(value)
    }

    /// Consumes the ASCII digits at the cursor, folding each into `mantissa`,
    /// and returns how many there were.
    fn digits(&mut self, mantissa: &mut Digits) -> usize {
        let start = self.pos;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            mantissa.push(d - b'0');
            self.pos += 1;
        }
        self.pos - start
    }

    /// One pass over an RFC 8259 §6 number: the grammar is checked while
    /// the decimal mantissa and exponent accumulate, and short tokens take
    /// Clinger's exact fast path (see the module doc).
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut mantissa = Digits::default();
        // Integer part: a lone `0`, or a digit run that does not start
        // with `0`.
        let mut ok = match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                true
            }
            _ => self.digits(&mut mantissa) > 0,
        };
        let mut exponent = 0i64;
        if ok && self.peek() == Some(b'.') {
            self.pos += 1;
            let fraction = self.digits(&mut mantissa);
            exponent -= fraction as i64;
            ok = fraction > 0;
        }
        if ok && matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            let minus = self.peek() == Some(b'-');
            if minus || self.peek() == Some(b'+') {
                self.pos += 1;
            }
            let mut explicit = 0i64;
            let mut count = 0usize;
            while let Some(d @ b'0'..=b'9') = self.peek() {
                // Saturating: a huge exponent stays huge, so it can never
                // land back in the fast path's range.
                explicit = explicit.saturating_mul(10).saturating_add(i64::from(d - b'0'));
                count += 1;
                self.pos += 1;
            }
            exponent = if minus {
                exponent.saturating_sub(explicit)
            } else {
                exponent.saturating_add(explicit)
            };
            ok = count > 0;
        }
        // A valid token ends where the grammar does; any number byte right
        // after it (`01`, `1.2.3`, `1-2`) makes the whole run malformed.
        if !ok || self.peek().is_some_and(is_number_byte) {
            return Err(self.number_error("bad number", start));
        }
        let n = match mantissa.exact(exponent) {
            Some(magnitude) if negative => -magnitude,
            Some(magnitude) => magnitude,
            None => {
                self.token(start).parse().map_err(|_| self.number_error("bad number", start))?
            }
        };
        if !n.is_finite() {
            return Err(self.number_error("non-finite number", start));
        }
        Ok(Json::Num(n))
    }

    /// The run of number bytes starting at `start`: the token a number
    /// error names, and what the fallback parser reads.
    fn token(&self, start: usize) -> &str {
        let run = self.bytes.get(start..).unwrap_or_default();
        let len = run.iter().take_while(|&&c| is_number_byte(c)).count();
        // The run is ASCII sign/digit/exponent bytes, so UTF-8 decoding
        // cannot fail; an empty fallback still reports a bad number.
        std::str::from_utf8(run.get(..len).unwrap_or_default()).unwrap_or_default()
    }

    fn number_error(&self, what: &str, start: usize) -> JsonError {
        JsonError { message: format!("{what} {:?}", self.token(start)), offset: start }
    }
}

/// Bytes that can continue a number token: what the scanner claims as one
/// token before checking it against the grammar.
fn is_number_byte(c: u8) -> bool {
    c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
}

/// Most significant digits a mantissa may have on the fast path: every
/// 15-digit integer is below 2^53, so it converts to `f64` exactly.
const FAST_DIGITS: u32 = 15;

/// `10^0 ..= 10^22`: the powers of ten an `f64` holds exactly.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// A number's decimal mantissa as it is scanned, capped at what the fast
/// path can use.
#[derive(Default)]
struct Digits {
    /// The significant digits seen so far, while there are at most
    /// [`FAST_DIGITS`] of them.
    value: u64,
    /// Significant digits seen (leading zeros are not significant).
    significant: u32,
}

impl Digits {
    fn push(&mut self, digit: u8) {
        if self.significant == 0 && digit == 0 {
            return;
        }
        self.significant = self.significant.saturating_add(1);
        if self.significant <= FAST_DIGITS {
            self.value = self.value * 10 + u64::from(digit);
        }
    }

    /// `value × 10^exponent`, when both factors are exact `f64`s: one
    /// IEEE multiply or divide then rounds exactly once, to the same bits
    /// a correctly rounding parser yields (Clinger 1990). `None` sends
    /// the token to `str::parse`.
    fn exact(&self, exponent: i64) -> Option<f64> {
        if self.significant > FAST_DIGITS {
            return None;
        }
        let mantissa = self.value as f64;
        let scale = POW10.get(usize::try_from(exponent.unsigned_abs()).ok()?)?;
        Some(if exponent < 0 { mantissa / scale } else { mantissa * scale })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn scalars() {
        assert_eq!(parse("null"), Json::Null);
        assert_eq!(parse("true"), Json::Bool(true));
        assert_eq!(parse("false"), Json::Bool(false));
        assert_eq!(parse("42"), Json::Num(42.0));
        assert_eq!(parse("-2.5e2"), Json::Num(-250.0));
        assert_eq!(parse("\"hi\""), Json::Str("hi".into()));
    }

    #[test]
    fn nested_structures() {
        let v =
            parse(r#"{"type":"schedule","etc":[[1,2],[3,4]],"seed":7,"deep":{"a":[true,null]}}"#);
        assert_eq!(v.get("type").unwrap().as_str(), Some("schedule"));
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(7));
        let etc = v.get("etc").unwrap().as_arr().unwrap();
        assert_eq!(etc[1].as_arr().unwrap()[0].as_f64(), Some(3.0));
        assert_eq!(v.get("deep").unwrap().get("a").unwrap().as_arr().unwrap()[1], Json::Null);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\ttab \"quoted\" back\\slash ünïcode 🦀";
        let encoded = Json::str(original).to_string();
        assert_eq!(parse(&encoded).as_str(), Some(original));
    }

    #[test]
    fn surrogate_pair_parses() {
        assert_eq!(parse(r#""🦀""#).as_str(), Some("🦀"));
        assert!(Json::parse(r#""\ud83e""#).is_err(), "lone high surrogate");
        assert!(Json::parse(r#""\udd80""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn display_round_trips() {
        let cases =
            [r#"{"a":1,"b":[true,null,"x"],"c":{"d":-2.5}}"#, r#"[1,2.25,3]"#, r#""plain""#];
        for case in cases {
            let v = parse(case);
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{case}");
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(3.5).to_string(), "3.5");
        assert_eq!(Json::num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn key_order_preserved() {
        let v = Json::obj(vec![("z", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn malformed_inputs_error_with_offset() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "[1,]",
            "nul",
            "\"bad \\q escape\"",
            "--1",
            r#""\u+041""#,
            "01",
            "-01",
            "00",
            "1.",
            "-.5",
            "1.e3",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.to_string().contains("at byte"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn number_grammar_violations_name_the_token_at_its_offset() {
        for (text, token) in [
            ("[1,01]", "01"),
            ("[1,-01]", "-01"),
            ("[1,00]", "00"),
            ("[1,1.]", "1."),
            ("[1,-.5]", "-.5"),
            ("[1,1.e3]", "1.e3"),
            ("[1,1e]", "1e"),
            ("[1,1e+]", "1e+"),
            ("[1,1.2.3]", "1.2.3"),
            ("[1,1-2]", "1-2"),
            ("[1,-]", "-"),
        ] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(err.message, format!("bad number {token:?}"), "{text}");
            assert_eq!(err.offset, 3, "{text}");
        }
        let err = Json::parse("1e309").unwrap_err();
        assert_eq!(err.message, "non-finite number \"1e309\"");
        assert_eq!(err.offset, 0);
        let zero = parse("-0").as_f64().unwrap();
        assert!(zero == 0.0 && zero.is_sign_negative(), "-0 keeps its sign");
    }

    #[test]
    fn hex_escapes_need_four_hex_digits() {
        assert_eq!(parse(r#""\u0041\u00e9""#).as_str(), Some("Aé"));
        assert_eq!(parse(r#""\u00E9""#).as_str(), Some("é"));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004g""#] {
            let err = Json::parse(bad).unwrap_err();
            assert_eq!(err.message, "non-hex \\u escape", "{bad}");
        }
    }

    /// The scanner's value for an accepted token, bit for bit.
    fn scanned_bits(token: &str) -> u64 {
        match Json::parse(token) {
            Ok(Json::Num(n)) => n.to_bits(),
            other => panic!("{token:?} should parse as a number, got {other:?}"),
        }
    }

    #[test]
    fn scanner_matches_str_parse_on_edge_tokens() {
        for token in [
            "0",
            "-0",
            "-0.0",
            "0.1",
            "0.001",
            "1e22",
            "1e23",
            "1E+22",
            "1.5e-22",
            "1e-23",
            "0e400",
            "123456789012345.6",
            "9007199254740993",
            "9007199254740992",
            "123456789012345",
            "-999999999999999",
            "1234567890123456",
            "-9999999999999999",
            "0.000000000000000000000000001",
            "4.9e-324",
            "1.7976931348623157e308",
            "2.2250738585072014e-308",
            "12.5e-99999999999999999999999",
            "0e99999999999999999999999",
        ] {
            let want: f64 = token.parse().unwrap();
            assert_eq!(scanned_bits(token), want.to_bits(), "{token}");
        }
    }

    #[test]
    fn scanner_matches_str_parse_on_random_tokens() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x4A53_4F4E);
        let (mut fast, mut total) = (0u64, 0u64);
        for _ in 0..120_000 {
            let digits = rng.gen_range(1..=18usize);
            let mut token = String::new();
            if rng.gen_bool(0.5) {
                token.push('-');
            }
            let split = if rng.gen_bool(0.6) { rng.gen_range(1..=digits) } else { digits };
            for k in 0..digits {
                if k == split {
                    token.push('.');
                }
                // No leading zero on a multi-digit integer part.
                let lowest = u32::from(k == 0 && split > 1);
                token.push(char::from_digit(rng.gen_range(lowest..10u32), 10).unwrap());
            }
            if rng.gen_bool(0.5) {
                token.push(if rng.gen_bool(0.5) { 'e' } else { 'E' });
                match rng.gen_range(0..3u32) {
                    0 => token.push('-'),
                    1 => token.push('+'),
                    _ => {}
                }
                token.push_str(&rng.gen_range(0..=40u32).to_string());
            }
            let want: f64 = token.parse().unwrap();
            assert_eq!(scanned_bits(&token), want.to_bits(), "{token}");
            total += 1;
            fast += u64::from(digits <= 15);
        }
        assert!(fast > total / 2, "most tokens fit the fast path's digit bound: {fast}/{total}");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(5.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(5.0).as_u64(), Some(5));
        assert_eq!(Json::Str("5".into()).as_u64(), None);
    }

    #[test]
    fn deep_nesting_parses_up_to_the_cap() {
        let nested = |depth: usize| {
            let mut text = String::new();
            for _ in 0..depth {
                text.push('[');
            }
            text.push('1');
            for _ in 0..depth {
                text.push(']');
            }
            text
        };
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn wide_flat_structures_do_not_hit_the_depth_cap() {
        // Siblings must not accumulate depth: 10k shallow elements.
        let wide = format!("[{}]", vec!["{\"a\":[1]}"; 10_000].join(","));
        let v = Json::parse(&wide).unwrap();
        assert_eq!(v.as_arr().unwrap().len(), 10_000);
    }
}
