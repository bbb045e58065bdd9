//! Minimal JSON values with a *canonical* writer — the wire substrate of
//! [`crate::api`].
//!
//! The container this workspace builds in has no crates.io access, so
//! (like the stand-ins under `crates/compat/`) this is a small offline
//! implementation instead of a serde dependency. It covers exactly what
//! the query wire format needs:
//!
//! * a [`Json`] value tree (null, bool, number, string, array, object);
//! * a strict recursive-descent parser ([`Json::parse`]) that rejects
//!   trailing input and nesting deeper than [`MAX_DEPTH`];
//! * a canonical writer: no whitespace, object keys in the order the
//!   encoder emits them (every encoder in this crate emits keys
//!   alphabetically), integers without a fraction, and floats in Rust's
//!   shortest round-trip form. [`Writer`] streams it straight into a
//!   `String` and renders every served response; [`Json::write`] /
//!   `Display` print a tree through the same writer, and the trees the
//!   `to_json` methods build are the reference form tests compare
//!   served bytes against.
//!
//! Canonical output is what makes the wire format *byte-stable*:
//! `write(parse(write(x))) == write(x)` for every value this crate
//! serializes, which `uxm batch` files and the round-trip tests rely on.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use uxm_twig::TwigMatch;

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap a request body of nested
/// `[` would overflow a serving thread's stack and abort the process.
/// No wire message comes close: a `/batch` body nests four levels.
pub const MAX_DEPTH: usize = 128;

/// 2^53: every whole number up to it is exact in an `f64` and prints
/// without a fraction.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved and is what the canonical
    /// writer emits.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience unsigned-integer constructor (exact up to 2^53).
    pub fn uint(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Member lookup on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number in
    /// `usize` range.
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=MAX_EXACT).contains(&n) {
            Some(n as usize)
        } else {
            None
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if the value is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Parses `input`, rejecting anything but exactly one JSON value
    /// (surrounding whitespace is allowed, trailing input is not).
    /// Nesting deeper than [`MAX_DEPTH`] fails at the bracket that
    /// crosses the cap.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing input"));
        }
        Ok(v)
    }

    /// Appends the canonical encoding to `out`.
    pub fn write(&self, out: &mut String) {
        Writer::new(out).value(self);
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// A canonical streaming writer: appends JSON to a `String` as values
/// are pushed, with no [`Json`] tree in between. It places commas and
/// colons itself; callers push keys in the order the canonical form
/// wants them (alphabetical, for every encoder in this crate). Numbers
/// and strings go through the same primitives as [`Json::write`], so a
/// writer-built document and the equivalent tree print the same bytes.
///
/// ```
/// use uxm_core::json::{Json, Writer};
///
/// let mut out = String::new();
/// let mut w = Writer::new(&mut out);
/// w.begin_obj();
/// w.key("ids");
/// w.begin_arr();
/// w.uint(3);
/// w.uint(14);
/// w.end_arr();
/// w.key("p");
/// w.num(0.25);
/// w.end_obj();
/// assert_eq!(out, r#"{"ids":[3,14],"p":0.25}"#);
/// assert_eq!(Json::parse(&out).unwrap().to_string(), out);
/// ```
pub struct Writer<'a> {
    out: &'a mut String,
    /// The next key or value follows a sibling, so a `,` goes first.
    comma: bool,
    /// Shared match sets already rendered into `out`, with the byte
    /// range of each rendering (see [`Writer::match_set`]). Holding a
    /// clone keeps each allocation, and so its address, alive while the
    /// writer lives.
    shared: Vec<(Arc<[TwigMatch]>, Range<usize>)>,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Writer<'a> {
        Writer {
            out,
            comma: false,
            shared: Vec::new(),
        }
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    /// Opens an object.
    pub fn begin_obj(&mut self) {
        self.separate();
        self.out.push('{');
        self.comma = false;
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) {
        self.out.push('}');
        self.comma = true;
    }

    /// Opens an array.
    pub fn begin_arr(&mut self) {
        self.separate();
        self.out.push('[');
        self.comma = false;
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) {
        self.out.push(']');
        self.comma = true;
    }

    /// Writes an object key; the next value pushed is its member value.
    pub fn key(&mut self, key: &str) {
        self.separate();
        write_string(key, self.out);
        self.out.push(':');
        self.comma = false;
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.separate();
        self.out.push_str("null");
        self.comma = true;
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.separate();
        self.out.push_str(if b { "true" } else { "false" });
        self.comma = true;
    }

    /// Writes an unsigned integer, digit by digit. Past 2^53 it prints
    /// like [`Json::uint`], which holds it as an `f64`.
    pub fn uint(&mut self, n: u64) {
        self.separate();
        if n <= MAX_EXACT as u64 {
            write_uint(n, self.out);
        } else {
            write_number(n as f64, self.out);
        }
        self.comma = true;
    }

    /// Writes a number in canonical form ([`Json::Num`]'s rules).
    pub fn num(&mut self, n: f64) {
        self.separate();
        write_number(n, self.out);
        self.comma = true;
    }

    /// Writes a number, or `null` for `None`.
    pub fn opt_num(&mut self, v: Option<f64>) {
        match v {
            Some(n) => self.num(n),
            None => self.null(),
        }
    }

    /// Writes an escaped string.
    pub fn str(&mut self, s: &str) {
        self.separate();
        write_string(s, self.out);
        self.comma = true;
    }

    /// Writes an array of unsigned integers.
    pub fn uints(&mut self, items: impl IntoIterator<Item = u64>) {
        self.begin_arr();
        for n in items {
            self.uint(n);
        }
        self.end_arr();
    }

    /// Writes a match set as an array of node-id arrays.
    ///
    /// A set whose allocation has other owners renders once per writer:
    /// the first occurrence records where its bytes landed, and every
    /// later occurrence of the same allocation copies those bytes. An
    /// unshared set (`Arc::strong_count == 1`) renders directly, with no
    /// memo work. Either way the bytes are those of rendering the set.
    pub(crate) fn match_set(&mut self, matches: &Arc<[TwigMatch]>) {
        if Arc::strong_count(matches) == 1 {
            self.matches(matches);
        } else {
            self.shared_match_set(matches);
        }
    }

    /// [`Writer::match_set`] for a set with other owners: copies an
    /// earlier rendering of the same allocation, or renders this one and
    /// records where its bytes landed.
    #[inline(never)]
    fn shared_match_set(&mut self, matches: &Arc<[TwigMatch]>) {
        self.separate();
        if let Some((_, range)) = self.shared.iter().find(|(m, _)| Arc::ptr_eq(m, matches)) {
            let range = range.clone();
            self.out.extend_from_within(range);
            self.comma = true;
            return;
        }
        self.comma = false;
        let start = self.out.len();
        self.matches(matches);
        self.shared
            .push((Arc::clone(matches), start..self.out.len()));
    }

    fn matches(&mut self, matches: &[TwigMatch]) {
        self.begin_arr();
        for m in matches {
            self.uints(m.nodes.iter().map(|n| u64::from(n.0)));
        }
        self.end_arr();
    }

    /// Writes a whole [`Json`] tree.
    pub fn value(&mut self, v: &Json) {
        match v {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Num(n) => self.num(*n),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => {
                self.begin_arr();
                for item in items {
                    self.value(item);
                }
                self.end_arr();
            }
            Json::Obj(members) => {
                self.begin_obj();
                for (k, item) in members {
                    self.key(k);
                    self.value(item);
                }
                self.end_obj();
            }
        }
    }
}

/// Whole numbers up to 2^53 print without a fraction; everything else
/// uses Rust's shortest round-trip `f64` form (also stable under
/// re-parsing). Non-finite values have no JSON encoding and become
/// `null`.
fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= MAX_EXACT {
        // `-0.0` prints as `0`.
        if n < 0.0 {
            out.push('-');
        }
        write_uint(n.abs() as u64, out);
    } else {
        use std::fmt::Write as _;
        let _ = write!(out, "{n}");
    }
}

/// Decimal digits of `n`, filled from the right of a stack buffer.
fn write_uint(mut n: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Quotes and escapes `s`: `"`, `\`, `\n`, `\r` and `\t` get their short
/// escapes, other control characters `\u00xx`. Runs of bytes that need
/// no escape are copied in one piece.
fn write_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure: a byte offset and what went wrong there.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
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

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn try_word(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'0'..=b'9' | b'-') => self.number(),
            _ => {
                if self.try_word("null") {
                    Ok(Json::Null)
                } else if self.try_word("true") {
                    Ok(Json::Bool(true))
                } else if self.try_word("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(self.err("expected a JSON value"))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.try_word("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                            // hex4 leaves pos past the digits; the shared
                            // `pos += 1` below is for the single-char
                            // escapes, so compensate here.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash
                    // or control byte in one piece. All three are ASCII,
                    // which never occurs inside a multibyte sequence, so
                    // the run of a `&str` input ends on a char boundary.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    if run == 0 {
                        return Err(self.err("raw control character in string"));
                    }
                    let s = std::str::from_utf8(&rest[..run]).map_err(|_| self.err("bad UTF-8"))?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Parser<'a>| {
            let s = p.pos;
            while p.peek().is_some_and(|b| b.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(input: &str) -> String {
        Json::parse(input).unwrap().to_string()
    }

    #[test]
    fn scalars() {
        assert_eq!(roundtrip("null"), "null");
        assert_eq!(roundtrip("true"), "true");
        assert_eq!(roundtrip(" false "), "false");
        assert_eq!(roundtrip("42"), "42");
        assert_eq!(roundtrip("-7"), "-7");
        assert_eq!(roundtrip("0.2"), "0.2");
        assert_eq!(roundtrip("1e3"), "1000");
        assert_eq!(roundtrip("\"hi\""), "\"hi\"");
    }

    #[test]
    fn containers_and_nesting() {
        assert_eq!(roundtrip("[1, 2, [3]]"), "[1,2,[3]]");
        assert_eq!(
            roundtrip("{\"a\": [true, null], \"b\": {\"c\": 0.5}}"),
            "{\"a\":[true,null],\"b\":{\"c\":0.5}}"
        );
        assert_eq!(roundtrip("{}"), "{}");
        assert_eq!(roundtrip("[]"), "[]");
    }

    #[test]
    fn canonical_output_is_a_fixpoint() {
        for s in [
            "{\"answers\":[{\"p\":0.3}],\"n\":12}",
            "[0.1,2,\"x\\ny\",{\"k\":[]}]",
            "{\"pattern\":\"PO//ICN\",\"type\":\"ptq\"}",
        ] {
            let once = roundtrip(s);
            assert_eq!(roundtrip(&once), once, "{s}");
        }
    }

    #[test]
    fn string_escapes() {
        assert_eq!(roundtrip("\"a\\u0041b\""), "\"aAb\"");
        assert_eq!(roundtrip("\"\\u00e9\""), "\"é\"");
        // Surrogate pair for U+1F600.
        assert_eq!(roundtrip("\"\\ud83d\\ude00\""), "\"\u{1F600}\"");
        assert_eq!(roundtrip("\"q\\\"\\\\\\n\""), "\"q\\\"\\\\\\n\"");
        // Control characters re-encode as escapes.
        assert_eq!(Json::Str("\u{1}".into()).to_string(), "\"\\u0001\"");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1.",
            "1e",
            "\"x",
            "\"\\q\"",
            "\"\\ud800\"",
            "[1] x",
            "{\"a\":1,\"a\":2}",
            "nan",
            "--1",
            "01x",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_at_the_crossing_bracket() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            Json::parse(&nested(MAX_DEPTH + 1)),
            Err(JsonError {
                offset: MAX_DEPTH,
                message: "nesting too deep",
            })
        );
        // Objects count too, and a deep body fails without recursing
        // through all of it.
        let deep_obj = "{\"a\":".repeat(MAX_DEPTH) + "[" + &"}".repeat(MAX_DEPTH);
        assert_eq!(Json::parse(&deep_obj).unwrap_err().offset, 5 * MAX_DEPTH);
        assert!(Json::parse(&nested(50_000)).is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"k\":5,\"s\":\"t\",\"a\":[1],\"f\":1.5}").unwrap();
        assert_eq!(v.get("k").and_then(Json::as_usize), Some(5));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("t"));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("f").and_then(Json::as_usize), None, "non-integer");
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.as_obj().map(<[(String, Json)]>::len), Some(4));
    }

    #[test]
    fn writer_matches_the_tree_form() {
        let text = "q\"\\\n\r\t\u{0}\u{1f}\u{7f} é✓ \u{1F600} plain";
        let tree = Json::Obj(vec![
            (
                "a\"k".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Bool(false)]),
            ),
            (
                "n".into(),
                Json::Arr(
                    [
                        0.0,
                        -0.0,
                        -7.0,
                        0.1,
                        1e300,
                        -2.5e-8,
                        MAX_EXACT,
                        -MAX_EXACT,
                        MAX_EXACT * 2.0,
                        f64::NAN,
                        f64::NEG_INFINITY,
                    ]
                    .into_iter()
                    .map(Json::Num)
                    .collect(),
                ),
            ),
            (
                "u".into(),
                Json::Arr(
                    [0, 9, 10, 1 << 53, (1 << 53) + 1, u64::MAX]
                        .into_iter()
                        .map(Json::uint)
                        .collect(),
                ),
            ),
            ("s".into(), Json::str(text)),
            ("e".into(), Json::Obj(vec![])),
            ("x".into(), Json::Arr(vec![Json::Arr(vec![])])),
        ]);

        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.begin_obj();
        w.key("a\"k");
        w.begin_arr();
        w.null();
        w.bool(true);
        w.bool(false);
        w.end_arr();
        w.key("n");
        w.value(&tree.get("n").unwrap().clone());
        w.key("u");
        w.uints([0, 9, 10, 1 << 53, (1 << 53) + 1, u64::MAX]);
        w.key("s");
        w.str(text);
        w.key("e");
        w.begin_obj();
        w.end_obj();
        w.key("x");
        w.begin_arr();
        w.begin_arr();
        w.end_arr();
        w.end_arr();
        w.end_obj();
        assert_eq!(out, tree.to_string());
        assert!(out.contains("\"q\\\"\\\\\\n\\r\\t\\u0000\\u001f\u{7f} é✓ \u{1F600} plain\""));
        assert!(out.contains("\"n\":[0,0,-7,0.1,"), "{out}");
        assert!(out.contains(",9007199254740992,-9007199254740992,18014398509481984,null,null]"));
        assert_eq!(Json::parse(&out).unwrap().to_string(), out);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        use std::time::{Duration, Instant};
        // One 1 MiB string, then 1 MiB of short strings. A scan that
        // revisits the rest of the input per character takes minutes
        // here; a linear one takes milliseconds even in debug builds.
        let long = format!("\"{}\"", "a".repeat(1 << 20));
        let start = Instant::now();
        let Json::Str(s) = Json::parse(&long).unwrap() else {
            panic!("not a string")
        };
        assert_eq!(s.len(), 1 << 20);
        let short = format!("[{}\"abcdefgh\"]", "\"abcdefgh\",".repeat((1 << 20) / 11));
        let Json::Arr(items) = Json::parse(&short).unwrap() else {
            panic!("not an array")
        };
        assert_eq!(items.len(), (1 << 20) / 11 + 1);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{:?}",
            start.elapsed()
        );
    }

    #[test]
    fn string_runs_keep_multibyte_characters_and_error_offsets() {
        let run = "é✓😀".repeat(1000);
        assert_eq!(
            Json::parse(&format!("\"x{run}\\n{run}y\"")).unwrap(),
            Json::Str(format!("x{run}\n{run}y"))
        );
        // A raw control byte after a long run fails at that byte.
        let bad = format!("[\"{}\u{1}\"]", "é".repeat(500));
        assert_eq!(
            Json::parse(&bad),
            Err(JsonError {
                offset: 2 + 1000,
                message: "raw control character in string",
            })
        );
        assert_eq!(
            Json::parse("\"abc").unwrap_err(),
            JsonError {
                offset: 4,
                message: "unterminated string",
            }
        );
    }

    #[test]
    fn non_finite_numbers_write_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }
}
