//! A minimal JSON value type with a strict parser and compact writer.
//!
//! The workspace's vendored `serde` is a no-op stand-in (DESIGN.md §5),
//! so the service speaks JSON through this hand-rolled module instead:
//! a few hundred lines covering exactly what a newline-delimited wire
//! protocol needs. Numbers are `f64` (like JavaScript); objects preserve
//! key order; the writer emits compact one-line output so every encoded
//! value is a valid JSON-lines frame.
//!
//! One scanner serves two consumers. [`Json::parse`] builds a [`Json`]
//! tree. `parse_flat` walks the same grammar over a request line but
//! collects two top-level keys straight into flat `f64` buffers: the
//! first `matrix_key` into one row-major [`FlatMatrix`], the first
//! `vector_key` into a `Vec<f64>`. Only the other fields become `Json`
//! values. Both consumers share every byte-level routine, so a document
//! fails with the same message at the same byte either way, and the
//! nesting cap counts the same levels.
//!
//! Numbers follow the RFC 8259 §6 grammar exactly:
//! `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. So `01`,
//! `1.`, `-.5` and `1.e3` are `bad number` errors (at the token's first
//! byte) even though Rust's `f64::from_str` would take them, and a token
//! that overflows `f64` (`1e309`) is a `non-finite number` error. One
//! number routine checks that grammar in the same pass that accumulates
//! the decimal mantissa `m` and exponent `e`, and returns a plain `f64`;
//! only the tree consumer wraps it in [`Json::Num`]. When `m` is written
//! with at most 15 digits (a lone integer `0` aside) and `|e| ≤ 22`,
//! both `m` and `10^|e|` are exact `f64`s, so `m × 10^e` (or
//! `m ÷ 10^-e`) rounds once and yields exactly the bits of a correctly
//! rounding parser (Clinger's fast path). Every other token falls back
//! to `str::parse`. The wire's matrices (short decimals) almost always
//! take the fast path.

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
        Parser::document(text, Parser::value)
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

/// A matrix of numbers scanned straight into one row-major buffer.
///
/// Only the request scan (`parse_flat`) builds one, so every cell is a
/// finite number. It keeps every row while the rows are as long as row
/// 0 and the cell count stays within the scan's cap: `cells` then holds
/// `rows × cols` values. It stops keeping cells at the first row of
/// another length (recorded in [`FlatMatrix::ragged`]; the rows before
/// it stay) or once the cells would pass the cap (`cells` is emptied;
/// `rows × cols` is then over the cap too). Either way it goes on
/// counting rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlatMatrix {
    rows: usize,
    cols: usize,
    cells: Vec<f64>,
    ragged: Option<(usize, usize)>,
}

impl FlatMatrix {
    /// Rows seen.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row 0's length (0 with no rows).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The rows kept, row-major: all of them, or those before the first
    /// ragged row, or none once the matrix passed the cap.
    pub fn cells(&self) -> &[f64] {
        &self.cells
    }

    /// The first row whose length differs from row 0's, as
    /// `(row, length)`.
    pub fn ragged(&self) -> Option<(usize, usize)> {
        self.ragged
    }
}

/// Where a value scanned as numbers broke the expected shape: the first
/// offender in document order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Misshapen {
    /// The value is `null`.
    Null,
    /// The value is neither `null` nor an array.
    NotArray,
    /// Row `t` of a matrix is not an array.
    Row(usize),
    /// Element `m` of row `t` is not a number (a vector's elements are
    /// row 0).
    Cell(usize, usize),
}

/// A document scanned by [`parse_flat`].
#[derive(Debug, PartialEq)]
pub(crate) struct FlatObject {
    /// Every field but the first `matrix_key` and `vector_key` (later
    /// duplicates of those two are scanned and dropped, as
    /// [`Json::get`] would never reach them). A document that is not an
    /// object lands here whole.
    pub(crate) fields: Json,
    /// The first top-level `matrix_key`'s value, or where it broke the
    /// shape.
    pub(crate) matrix: Option<Result<FlatMatrix, Misshapen>>,
    /// The first top-level `vector_key`'s value, or where it broke the
    /// shape.
    pub(crate) vector: Option<Result<Vec<f64>, Misshapen>>,
}

/// Parses a document like [`Json::parse`] (same grammar, same errors at
/// the same bytes, same nesting cap) but collects the first top-level
/// `matrix_key` into a [`FlatMatrix`] that keeps at most `cap` cells,
/// and the first top-level `vector_key` into a `Vec<f64>`, without a
/// `Json` per number. A value of the wrong shape is not an error here:
/// it comes back as a [`Misshapen`], for the caller to judge.
pub(crate) fn parse_flat(
    text: &str,
    matrix_key: &str,
    vector_key: &str,
    cap: usize,
) -> Result<FlatObject, JsonError> {
    Parser::document(text, |p| {
        if p.peek() != Some(b'{') {
            return Ok(FlatObject { fields: p.value()?, matrix: None, vector: None });
        }
        let (mut matrix, mut vector) = (None, None);
        let fields = p.object(|p, key| {
            if key == matrix_key {
                // A duplicate is scanned with no room, so it stores nothing.
                let room = if matrix.is_some() { 0 } else { cap };
                let value = p.matrix(room)?;
                matrix.get_or_insert(value);
            } else if key == vector_key {
                let value = p.vector()?;
                vector.get_or_insert(value);
            } else {
                return p.value().map(Some);
            }
            Ok(None)
        })?;
        Ok(FlatObject { fields, matrix, vector })
    })
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
    /// Runs `body` over a whole document: leading and trailing
    /// whitespace allowed, anything else after the value an error.
    fn document<T>(
        text: &'a str,
        body: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0, stack: Vec::new() };
        p.skip_ws();
        let value = body(&mut p)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

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
            Some(b'{') => self.object(|p, _| p.value().map(Some)),
            Some(c) if starts_number(c) => self.number().map(Json::Num),
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

    /// The array grammar: `element(self, i)` consumes element `i`, and
    /// this walks the brackets, commas and whitespace around it. Returns
    /// the element count.
    fn elements(
        &mut self,
        mut element: impl FnMut(&mut Self, usize) -> Result<(), JsonError>,
    ) -> Result<usize, JsonError> {
        self.enter()?;
        self.expect_byte(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(0);
        }
        let mut count = 0;
        loop {
            self.skip_ws();
            element(self, count)?;
            count += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(count);
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        // Elements collect on the shared stack above `base` (nested
        // arrays stack above them and pop back off), so each array
        // allocates once, at its exact length.
        let base = self.stack.len();
        self.elements(|p, _| {
            let item = p.value()?;
            p.stack.push(item);
            Ok(())
        })?;
        // `base <= len`: every nested array popped back to its own base,
        // which is at or above ours.
        Ok(Json::Arr(self.stack.split_off(base)))
    }

    /// The object grammar: `field(self, key)` consumes the value after
    /// `key:` and returns what to keep under `key` (`None` keeps
    /// nothing).
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<Option<Json>, JsonError>,
    ) -> Result<Json, JsonError> {
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
            if let Some(value) = field(self, &key)? {
                fields.push((key, value));
            }
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

    /// One array element scanned as a number: `Some(x)` for a number,
    /// `None` (after parsing it) for any other value.
    #[inline(always)]
    fn cell(&mut self) -> Result<Option<f64>, JsonError> {
        if self.peek().is_some_and(starts_number) {
            self.number().map(Some)
        } else {
            self.value().map(|_| None)
        }
    }

    /// A matrix of numbers into a [`FlatMatrix`] keeping at most `cap`
    /// cells.
    fn matrix(&mut self, cap: usize) -> Result<Result<FlatMatrix, Misshapen>, JsonError> {
        if self.peek() != Some(b'[') {
            return Ok(Err(not_array(self.value()?)));
        }
        let mut rows = RowSink { flat: FlatMatrix::default(), cap, full: false, shape: None };
        self.elements(|p, t| {
            if p.peek() != Some(b'[') {
                p.value()?;
                rows.misshapen(Misshapen::Row(t));
                return Ok(());
            }
            let len = p.elements(|p, m| {
                match p.cell()? {
                    Some(x) => rows.cell(t, m, x),
                    None => rows.misshapen(Misshapen::Cell(t, m)),
                }
                Ok(())
            })?;
            rows.end_row(t, len);
            Ok(())
        })?;
        Ok(match rows.shape {
            Some(shape) => Err(shape),
            None => Ok(rows.flat),
        })
    }

    /// An array of numbers into a `Vec<f64>`.
    fn vector(&mut self) -> Result<Result<Vec<f64>, Misshapen>, JsonError> {
        if self.peek() != Some(b'[') {
            return Ok(Err(not_array(self.value()?)));
        }
        let (mut items, mut shape) = (Vec::new(), None);
        self.elements(|p, m| {
            match p.cell()? {
                Some(x) => items.push(x),
                None => {
                    shape.get_or_insert(Misshapen::Cell(0, m));
                }
            }
            Ok(())
        })?;
        Ok(match shape {
            Some(shape) => Err(shape),
            None => Ok(items),
        })
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

    /// Consumes the ASCII digits at the cursor, folding each into
    /// `mantissa` (wrapping: past [`FAST_DIGITS`] digits its value is not
    /// used), and returns how many there were.
    fn digits(&mut self, mantissa: &mut u64) -> u32 {
        let start = self.pos;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            *mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        u32::try_from(self.pos - start).unwrap_or(u32::MAX)
    }

    /// One pass over an RFC 8259 §6 number: the grammar is checked while
    /// the decimal mantissa and exponent accumulate, and short tokens take
    /// Clinger's exact fast path (see the module doc).
    #[inline(always)]
    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut mantissa = 0u64;
        // Integer part: a lone `0`, or a digit run that does not start
        // with `0`.
        let mut digits = 0u32;
        let mut ok = match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                true
            }
            _ => {
                digits = self.digits(&mut mantissa);
                digits > 0
            }
        };
        let mut exponent = 0i64;
        if ok && self.peek() == Some(b'.') {
            self.pos += 1;
            let fraction = self.digits(&mut mantissa);
            digits = digits.saturating_add(fraction);
            exponent -= i64::from(fraction);
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
        let n = match exact(mantissa, digits, exponent) {
            Some(magnitude) if negative => -magnitude,
            Some(magnitude) => magnitude,
            None => {
                self.token(start).parse().map_err(|_| self.number_error("bad number", start))?
            }
        };
        if !n.is_finite() {
            return Err(self.number_error("non-finite number", start));
        }
        Ok(n)
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

/// Bytes that start a number token.
fn starts_number(c: u8) -> bool {
    c == b'-' || c.is_ascii_digit()
}

/// The shape verdict on a value scanned as numbers that is no array.
fn not_array(value: Json) -> Misshapen {
    match value {
        Json::Null => Misshapen::Null,
        _ => Misshapen::NotArray,
    }
}

/// Where [`Parser::matrix`] keeps its rows while it scans them (see
/// [`FlatMatrix`] for what is kept).
struct RowSink {
    flat: FlatMatrix,
    cap: usize,
    /// The cells would have passed `cap`: none are kept any more.
    full: bool,
    /// The first shape error: nothing is kept any more.
    shape: Option<Misshapen>,
}

impl RowSink {
    fn cell(&mut self, t: usize, m: usize, x: f64) {
        let flat = &mut self.flat;
        // A row longer than row 0 is ragged; `end_row` drops what it kept
        // of it.
        if self.full || self.shape.is_some() || flat.ragged.is_some() || (t > 0 && m >= flat.cols) {
            return;
        }
        if flat.cells.len() >= self.cap {
            // Rows up to this one already hold more than `cap` cells
            // (this row is no shorter than row 0 so far), so
            // `rows × cols` ends over the cap whatever follows.
            self.full = true;
            flat.cells = Vec::new();
            return;
        }
        flat.cells.push(x);
    }

    fn end_row(&mut self, t: usize, len: usize) {
        let flat = &mut self.flat;
        flat.rows = t + 1;
        if t == 0 {
            flat.cols = len;
        } else if len != flat.cols && flat.ragged.is_none() {
            flat.ragged = Some((t, len));
            flat.cells.truncate(t.saturating_mul(flat.cols));
        }
    }

    fn misshapen(&mut self, shape: Misshapen) {
        if self.shape.is_none() {
            self.shape = Some(shape);
            self.flat.cells = Vec::new();
        }
    }
}

/// Most digits a mantissa may be written with on the fast path: every
/// 15-digit integer is below 2^53, so it converts to `f64` exactly.
const FAST_DIGITS: u32 = 15;

/// `10^0 ..= 10^22`: the powers of ten an `f64` holds exactly.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// `mantissa × 10^exponent`, when the mantissa's `digits` digits (a
/// leading integer `0` not counted) fit [`FAST_DIGITS`] and the power of
/// ten is exact: one IEEE multiply or divide then rounds exactly once, to
/// the same bits a correctly rounding parser yields (Clinger 1990).
/// `None` sends the token to `str::parse`.
fn exact(mantissa: u64, digits: u32, exponent: i64) -> Option<f64> {
    if digits > FAST_DIGITS {
        return None;
    }
    let scale = POW10.get(usize::try_from(exponent.unsigned_abs()).ok()?)?;
    let mantissa = mantissa as f64;
    Some(if exponent < 0 { mantissa / scale } else { mantissa * scale })
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

    /// What [`parse_flat`] must return for `text` (keys `etc` and
    /// `ready`), derived from the tree [`Json::parse`] builds. Cells are
    /// only compared while `rows × cols` is within `cap`.
    fn flat_oracle(text: &str) -> Result<FlatObject, JsonError> {
        let shape_of = |v: &Json| match v {
            Json::Null => Misshapen::Null,
            _ => Misshapen::NotArray,
        };
        let matrix_of = |v: &Json| -> Result<FlatMatrix, Misshapen> {
            let rows = v.as_arr().ok_or_else(|| shape_of(v))?;
            let mut flat = FlatMatrix { rows: rows.len(), ..FlatMatrix::default() };
            for (t, row) in rows.iter().enumerate() {
                let cells = row.as_arr().ok_or(Misshapen::Row(t))?;
                let values: Vec<f64> = cells
                    .iter()
                    .enumerate()
                    .map(|(m, c)| c.as_f64().ok_or(Misshapen::Cell(t, m)))
                    .collect::<Result<_, _>>()?;
                if t == 0 {
                    flat.cols = values.len();
                }
                if values.len() != flat.cols && flat.ragged.is_none() {
                    flat.ragged = Some((t, values.len()));
                }
                if flat.ragged.is_none() {
                    flat.cells.extend(values);
                }
            }
            Ok(flat)
        };
        let vector_of = |v: &Json| -> Result<Vec<f64>, Misshapen> {
            let items = v.as_arr().ok_or_else(|| shape_of(v))?;
            items.iter().enumerate().map(|(m, x)| x.as_f64().ok_or(Misshapen::Cell(0, m))).collect()
        };
        let Json::Obj(all) = Json::parse(text)? else {
            return Ok(FlatObject { fields: Json::parse(text)?, matrix: None, vector: None });
        };
        let (mut fields, mut matrix, mut vector) = (Vec::new(), None, None);
        for (key, value) in all {
            match key.as_str() {
                "etc" => {
                    matrix.get_or_insert_with(|| matrix_of(&value));
                }
                "ready" => {
                    vector.get_or_insert_with(|| vector_of(&value));
                }
                _ => fields.push((key, value)),
            }
        }
        Ok(FlatObject { fields: Json::Obj(fields), matrix, vector })
    }

    #[test]
    fn flat_scan_matches_the_tree_oracle() {
        let cases = [
            r#"{"type":"schedule","etc":[[1,2.5],[3,4]],"ready":[0,1],"seed":7}"#,
            r#"{"etc":[[7,8],[9,10]],"type":"schedule","deep":{"etc":[1],"ready":"x"}}"#,
            r#"{"etc":[[1,2]],"etc":[["x"]],"ready":null,"ready":[1,2]}"#,
            r#"{"etc":[[1,2],[3],[4,5]],"ready":[1,"a",2]}"#,
            r#"{"etc":[[1,2],[3,4,5],[-1,0]]}"#,
            r#"{"etc":[[1,2],[-0,-3],[4,5]]}"#,
            r#"{"etc":[[1,2],[3,-4,5]]}"#,
            r#"{"etc":[[],[1,2]]}"#,
            r#"{"etc":[[1],2,["x"]]}"#,
            r#"{"etc":[[1,[2]]]}"#,
            r#"{"etc":null,"ready":5}"#,
            r#"{"etc":{"a":[[1]]},"ready":{}}"#,
            r#"{"etc":[],"ready":[]}"#,
            r#" { "etc" : [ [ 1 , 2 ] , [ 3 , 4 ] ] , "ready" : [ 0 , 0 ] } "#,
            r#"[{"etc":[[1]]}]"#,
            r#"null"#,
            r#"{}"#,
            r#"{"etc":[[1,2]],"x":1,}"#,
            r#"{"etc":[[1,2],[3,01]]}"#,
            r#"{"etc":[[1,2],[3,4]]"#,
            r#"{"etc":[[1,2],[3,4]]}]"#,
            r#"{"ready":[1e309]}"#,
            r#"{"etc":[["\q"]]}"#,
            r#"{"etc":[[1 2]]}"#,
            r#"{"etc"[[1]]}"#,
        ];
        for text in cases {
            assert_eq!(parse_flat(text, "etc", "ready", usize::MAX), flat_oracle(text), "{text}");
        }
    }

    #[test]
    fn flat_scan_nests_exactly_as_deep_as_the_tree() {
        for depth in [MAX_DEPTH - 3, MAX_DEPTH - 2] {
            let text = format!(r#"{{"etc":[[{}1{}]]}}"#, "[".repeat(depth), "]".repeat(depth));
            let flat = parse_flat(&text, "etc", "ready", usize::MAX);
            assert_eq!(flat, flat_oracle(&text), "depth {depth}");
            assert_eq!(flat.is_ok(), depth + 3 <= MAX_DEPTH, "depth {depth}");
        }
    }

    #[test]
    fn flat_scan_stops_keeping_cells_past_the_cap() {
        let text = r#"{"etc":[[1,2],[3,4],[5,6]]}"#;
        let scan = |cap| match parse_flat(text, "etc", "ready", cap).unwrap().matrix {
            Some(Ok(flat)) => flat,
            other => panic!("{other:?}"),
        };
        assert_eq!(scan(6).cells(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        for cap in [0, 1, 4, 5] {
            let flat = scan(cap);
            assert_eq!((flat.rows(), flat.cols(), flat.ragged()), (3, 2, None), "cap {cap}");
            assert!(flat.cells().is_empty(), "cap {cap}: {:?}", flat.cells());
        }
        // A ragged row stops the keeping; the rows before it stay.
        let flat = match parse_flat(r#"{"etc":[[1,2],[3,4,5],[6,7]]}"#, "etc", "r", 4).unwrap() {
            FlatObject { matrix: Some(Ok(flat)), .. } => flat,
            other => panic!("{other:?}"),
        };
        assert_eq!((flat.rows(), flat.ragged(), flat.cells()), (3, Some((1, 3)), &[1.0, 2.0][..]));
        // Past the cap the scan still checks the grammar.
        let err = parse_flat(r#"{"etc":[[1,2,3],[4,5,]]}"#, "etc", "r", 2).unwrap_err();
        assert_eq!(err, Json::parse(r#"{"etc":[[1,2,3],[4,5,]]}"#).unwrap_err());
    }
}
