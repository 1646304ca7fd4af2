//! Hand-rolled JSON: string escaping, tiny object/array builders, a pull
//! reader ([`JsonReader`]) and the tree parser built on it ([`parse`]).
//! The workspace keeps its dependency closure at zero external crates, so
//! this module is the single place JSON text is produced or consumed —
//! sinks, report types, the schema validator, the `bench-diff` tool and
//! the checkpoint codec all build on it.

use std::borrow::Cow;

/// Appends `s` to `out` as a JSON string literal, including the
/// surrounding quotes.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a standalone JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// A finite `f64` rendered as a JSON number. Non-finite values (which
/// JSON cannot represent) become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` round-trips f64 exactly and always includes a decimal
        // point or exponent, so the output re-parses as a float.
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Incremental builder for one JSON object.
#[derive(Debug, Clone)]
pub struct JsonObject {
    buf: String,
    empty: bool,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            empty: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        escape_into(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        escape_into(&mut self.buf, value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Adds a signed integer field.
    pub fn i64(mut self, key: &str, value: i64) -> Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Adds a floating-point field (`null` if non-finite).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        self.buf.push_str(&number(value));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-rendered JSON (a nested object
    /// or array).
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Adds a string field, or `null` when absent.
    pub fn opt_str(self, key: &str, value: Option<&str>) -> Self {
        match value {
            Some(v) => self.str(key, v),
            None => self.raw(key, "null"),
        }
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

/// Incremental builder for one JSON array.
#[derive(Debug, Clone)]
pub struct JsonArray {
    buf: String,
    empty: bool,
}

impl JsonArray {
    /// Starts an empty array.
    pub fn new() -> Self {
        JsonArray {
            buf: String::from("["),
            empty: true,
        }
    }

    fn sep(&mut self) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
    }

    /// Appends an already-rendered JSON value.
    pub fn push_raw(mut self, json: &str) -> Self {
        self.sep();
        self.buf.push_str(json);
        self
    }

    /// Appends a string element.
    pub fn push_str(mut self, value: &str) -> Self {
        self.sep();
        escape_into(&mut self.buf, value);
        self
    }

    /// Closes the array and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push(']');
        self.buf
    }
}

impl Default for JsonArray {
    fn default() -> Self {
        JsonArray::new()
    }
}

/// A parsed JSON value.
///
/// Object fields keep their document order (the emitters in this module
/// are order-stable, so round-tripping is lossless apart from number
/// formatting). Numbers are stored as `f64`, which represents every
/// counter the workspace emits exactly (they stay far below 2⁵³).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array of values.
    Array(Vec<JsonValue>),
    /// An object: ordered `(key, value)` pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders the value as JSON text. Integral numbers below 2⁵³ print
    /// without a fraction, so counters round-trip as integers.
    pub fn to_json(&self) -> String {
        match self {
            JsonValue::Null => "null".to_owned(),
            JsonValue::Bool(b) => b.to_string(),
            JsonValue::Number(n) if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 => {
                (*n as i64).to_string()
            }
            JsonValue::Number(n) => number(*n),
            JsonValue::String(s) => escape(s),
            JsonValue::Array(items) => items
                .iter()
                .fold(JsonArray::new(), |arr, v| arr.push_raw(&v.to_json()))
                .finish(),
            JsonValue::Object(fields) => fields
                .iter()
                .fold(JsonObject::new(), |obj, (k, v)| obj.raw(k, &v.to_json()))
                .finish(),
        }
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::Number(f64::from(v))
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Number(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::String(v.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::String(v)
    }
}

/// Why [`parse`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Maximum container nesting [`parse`] and [`JsonReader`] accept; the
/// workspace's own documents nest four levels deep, so this bounds stack
/// use on garbage input without ever rejecting a real report.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document. Trailing whitespace is allowed; trailing
/// content is an error.
pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
    let mut reader = JsonReader::new(text);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

/// The kind of the next value a [`JsonReader`] will read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonKind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Number,
    /// A string.
    String,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A pull reader over one JSON document: the single lexer behind
/// [`parse`], for decoders that read a known layout straight into their
/// own types instead of building a [`JsonValue`] tree first.
///
/// Containers are walked with [`begin_object`](JsonReader::begin_object)
/// and [`next_key`](JsonReader::next_key), or
/// [`begin_array`](JsonReader::begin_array) and
/// [`next_item`](JsonReader::next_item); each key or item is followed by
/// exactly one value read (a typed read, or [`value`](JsonReader::value)).
/// It accepts exactly the documents [`parse`] accepts and reports the same
/// errors at the same offsets.
///
/// # Errors
///
/// Every read returns a [`JsonParseError`] at the offending offset when
/// the input is malformed there, nests too deep, or holds another kind of
/// value than the read asks for.
#[derive(Debug)]
pub struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers currently open.
    depth: usize,
    /// The innermost open container has produced no key or item yet.
    first: bool,
}

impl<'a> JsonReader<'a> {
    /// A reader positioned before the document's first value.
    pub fn new(text: &'a str) -> Self {
        JsonReader {
            text,
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    /// The byte offset the reader has reached.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Checks that only whitespace follows the document.
    pub fn finish(&mut self) -> Result<(), JsonParseError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing content after document"))
        }
    }

    /// The kind of the next value, without consuming it.
    pub fn peek(&mut self) -> Result<JsonKind, JsonParseError> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.byte() {
            Some(b'{') => Ok(JsonKind::Object),
            Some(b'[') => Ok(JsonKind::Array),
            Some(b'"') => Ok(JsonKind::String),
            Some(b't' | b'f') => Ok(JsonKind::Bool),
            Some(b'n') => Ok(JsonKind::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(JsonKind::Number),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Opens an object; read its fields with [`next_key`](Self::next_key).
    pub fn begin_object(&mut self) -> Result<(), JsonParseError> {
        self.peek()?;
        self.open(b'{')
    }

    /// The next key of the innermost open object, positioned before its
    /// value, or `None` once the object is closed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonParseError> {
        if !self.next_entry(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string_body()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Opens an array; read its items with [`next_item`](Self::next_item).
    pub fn begin_array(&mut self) -> Result<(), JsonParseError> {
        self.peek()?;
        self.open(b'[')
    }

    /// Whether the innermost open array has another item, positioned
    /// before it; `false` once the array is closed.
    pub fn next_item(&mut self) -> Result<bool, JsonParseError> {
        self.next_entry(b']', "expected ',' or ']'")
    }

    /// Reads a string, borrowing it from the input when it has no escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonParseError> {
        self.peek()?;
        self.string_body()
    }

    /// Reads a number.
    fn number(&mut self) -> Result<f64, JsonParseError> {
        let token = self.number_token()?;
        match plain_digits(token) {
            // Up to 15 digits, every integer is exact in an f64.
            Some((negative, v)) if token.len() <= 15 => {
                let v = v as f64;
                Ok(if negative { -v } else { v })
            }
            _ => token.parse().map_err(|_| self.err("invalid number")),
        }
    }

    /// Reads a number and returns it as an unsigned integer when it is
    /// one (the rule of [`JsonValue::as_u64`]; integers written as plain
    /// digits convert exactly), `None` otherwise.
    pub fn u64(&mut self) -> Result<Option<u64>, JsonParseError> {
        let token = self.number_token()?;
        if let Some((false, v)) = plain_digits(token) {
            return Ok(Some(v));
        }
        let n: f64 = token.parse().map_err(|_| self.err("invalid number"))?;
        Ok(JsonValue::Number(n).as_u64())
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, JsonParseError> {
        match self.peek()? {
            JsonKind::Bool if self.byte() == Some(b't') => self.literal("true").map(|()| true),
            JsonKind::Bool => self.literal("false").map(|()| false),
            _ => Err(self.err("expected a boolean")),
        }
    }

    /// Consumes a `null` if one comes next; `false` leaves the reader
    /// where it was.
    pub fn null(&mut self) -> Result<bool, JsonParseError> {
        if self.peek()? == JsonKind::Null {
            self.literal("null")?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Reads the next value into a [`JsonValue`] tree.
    pub fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        Ok(match self.peek()? {
            JsonKind::Object => {
                self.begin_object()?;
                let mut fields = Vec::new();
                while let Some(key) = self.next_key()? {
                    fields.push((key.into_owned(), self.value()?));
                }
                JsonValue::Object(fields)
            }
            JsonKind::Array => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                JsonValue::Array(items)
            }
            JsonKind::String => JsonValue::String(self.string()?.into_owned()),
            JsonKind::Number => JsonValue::Number(self.number()?),
            JsonKind::Bool => JsonValue::Bool(self.bool()?),
            JsonKind::Null => {
                self.null()?;
                JsonValue::Null
            }
        })
    }

    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.byte() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn open(&mut self, byte: u8) -> Result<(), JsonParseError> {
        self.expect(byte)?;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Steps to the next entry of the innermost open container, or closes
    /// it at `close`.
    fn next_entry(&mut self, close: u8, missing: &str) -> Result<bool, JsonParseError> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match self.byte() {
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.err(missing)),
        }
    }

    fn string_body(&mut self) -> Result<Cow<'a, str>, JsonParseError> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let start = self.pos;
        // Fast path: no escapes, so the string is a slice of the input.
        while let Some(&c) = bytes.get(self.pos) {
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
                }
                b'\\' => break,
                c if c < 0x20 => return Err(self.err("control byte in string")),
                _ => self.pos += 1,
            }
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.byte() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.byte() {
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
                                // Surrogate pair: require \uXXXX for the low half.
                                if bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let code =
                                        0x10000 + ((hi - 0xD800) << 10) + lo.wrapping_sub(0xDC00);
                                    char::from_u32(code)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control byte in string")),
                Some(_) => {
                    // Copy the run up to the next quote, escape or control
                    // byte (the input is &str, so boundaries are valid).
                    let run = self.pos;
                    while matches!(self.byte(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let slice = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Scans a number's text: an optional sign, digits, an optional
    /// fraction and an optional exponent.
    fn number_token(&mut self) -> Result<&'a str, JsonParseError> {
        if self.peek()? != JsonKind::Number {
            return Err(self.err("expected a number"));
        }
        let bytes = self.text.as_bytes();
        let digits = |pos: &mut usize| {
            while matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit()) {
                *pos += 1;
            }
        };
        let start = self.pos;
        if bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        digits(&mut self.pos);
        if self.byte() == Some(b'.') {
            self.pos += 1;
            digits(&mut self.pos);
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(&mut self.pos);
        }
        Ok(&self.text[start..self.pos])
    }
}

/// The sign and value of a number token written as an optional `-` and
/// plain decimal digits that fit a `u64`; `None` for any other token.
fn plain_digits(token: &str) -> Option<(bool, u64)> {
    let (negative, digits) = match token.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, token),
    };
    if digits.is_empty() || !digits.bytes().all(|c| c.is_ascii_digit()) {
        return None;
    }
    digits
        .bytes()
        .try_fold(0u64, |acc, c| {
            acc.checked_mul(10)?.checked_add(u64::from(c - b'0'))
        })
        .map(|v| (negative, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials_and_controls() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(
            escape("line\nbreak\ttab\rret"),
            "\"line\\nbreak\\ttab\\rret\""
        );
        assert_eq!(escape("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        assert_eq!(escape("unicode: é λ 🦀"), "\"unicode: é λ 🦀\"");
    }

    #[test]
    fn numbers_reparse_as_floats() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(2.0), "2.0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn objects_and_arrays_compose() {
        let inner = JsonObject::new().u64("id", 7).finish();
        let arr = JsonArray::new().push_raw(&inner).push_str("x\"y").finish();
        let obj = JsonObject::new()
            .str("name", "a\nb")
            .i64("neg", -3)
            .f64("ratio", 0.5)
            .bool("ok", true)
            .opt_str("missing", None)
            .raw("items", &arr)
            .finish();
        assert_eq!(
            obj,
            "{\"name\":\"a\\nb\",\"neg\":-3,\"ratio\":0.5,\"ok\":true,\
             \"missing\":null,\"items\":[{\"id\":7},\"x\\\"y\"]}"
        );
    }

    #[test]
    fn empty_builders() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(JsonArray::new().finish(), "[]");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Number(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), JsonValue::Number(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::String("hi".to_owned()));
    }

    #[test]
    fn parse_containers_and_accessors() {
        let doc = parse("{\"a\":[1,2,{\"b\":null}],\"c\":\"x\",\"ok\":true}").unwrap();
        let a = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[2].get("b"), Some(&JsonValue::Null));
        assert_eq!(doc.get("c").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.as_object().unwrap().len(), 3);
    }

    #[test]
    fn parse_string_escapes() {
        let doc = parse(r#""a\"b\\c\n\t\u0041\u00e9""#).unwrap();
        assert_eq!(doc.as_str(), Some("a\"b\\c\n\tAé"));
        let pair = parse(r#""\ud83e\udd80""#).unwrap();
        assert_eq!(pair.as_str(), Some("🦀"));
    }

    #[test]
    fn parse_round_trips_builder_output() {
        let arr = JsonArray::new().push_raw("9").push_str("x\"y\n").finish();
        let text = JsonObject::new()
            .str("name", "unicode: é λ 🦀")
            .i64("neg", -3)
            .f64("ratio", 0.5)
            .bool("ok", true)
            .opt_str("missing", None)
            .raw("items", &arr)
            .finish();
        let doc = parse(&text).unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("unicode: é λ 🦀"));
        assert_eq!(doc.get("neg").unwrap().as_f64(), Some(-3.0));
        assert_eq!(doc.get("neg").unwrap().as_u64(), None);
        assert_eq!(doc.get("ratio").unwrap().as_f64(), Some(0.5));
        assert_eq!(doc.get("missing"), Some(&JsonValue::Null));
        let items = doc.get("items").unwrap().as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(9));
        assert_eq!(items[1].as_str(), Some("x\"y\n"));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "tru",
            "\"unterminated",
            "\"bad \\q escape\"",
            "1 2",
            "{} trailing",
            "\"\\ud83e\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn reader_walks_a_layout_without_a_tree() {
        let text =
            r#" {"n": 7, "tags": ["a", "b\"c"], "skip": {"x": [1, {}]}, "ok": false, "z": null} "#;
        let mut r = JsonReader::new(text);
        r.begin_object().unwrap();
        let mut seen = Vec::new();
        while let Some(key) = r.next_key().unwrap() {
            match &*key {
                "n" => assert_eq!(r.u64().unwrap(), Some(7)),
                "tags" => {
                    r.begin_array().unwrap();
                    let mut tags = Vec::new();
                    while r.next_item().unwrap() {
                        tags.push(r.string().unwrap());
                    }
                    assert!(matches!(tags[0], Cow::Borrowed("a")));
                    assert_eq!(tags[1], "b\"c");
                }
                "ok" => assert!(!r.bool().unwrap()),
                "z" => assert!(r.null().unwrap()),
                _ => drop(r.value().unwrap()),
            }
            seen.push(key.into_owned());
        }
        r.finish().unwrap();
        assert_eq!(seen, ["n", "tags", "skip", "ok", "z"]);
    }

    #[test]
    fn reader_integers_follow_as_u64() {
        let read = |text: &str| JsonReader::new(text).u64().unwrap();
        assert_eq!(read("42"), Some(42));
        assert_eq!(read("18446744073709551615"), Some(u64::MAX));
        assert_eq!(read("2.0"), Some(2));
        assert_eq!(read("1e3"), Some(1000));
        assert_eq!(read("-1"), None);
        assert_eq!(read("0.5"), None);
        assert!(JsonReader::new("\"7\"").u64().is_err());
        assert!(JsonReader::new("7").bool().is_err());
        assert!(!JsonReader::new("7").null().unwrap());
        assert_eq!(
            JsonReader::new("-0").number().unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = parse("{\"a\": tru}").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(err.to_string().contains("byte 6"));
    }
}
