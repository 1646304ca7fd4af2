//! Hand-rolled JSON: string escaping, tiny object/array builders, and a
//! minimal recursive-descent parser. The workspace keeps its dependency
//! closure at zero external crates, so this module is the single place
//! JSON text is produced or consumed — sinks, report types, the schema
//! validator, and the `bench-diff` tool all build on it.

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

/// Maximum container nesting [`parse`] accepts; the workspace's own
/// documents nest four levels deep, so this bounds stack use on garbage
/// input without ever rejecting a real report.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document. Trailing whitespace is allowed; trailing
/// content is an error.
pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_owned(),
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
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
                                if self.bytes[self.pos..].starts_with(b"\\u") {
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
                    // Copy one UTF-8 scalar (input is &str, so boundaries
                    // are valid).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }
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
    fn parse_errors_carry_offsets() {
        let err = parse("{\"a\": tru}").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(err.to_string().contains("byte 6"));
    }
}
