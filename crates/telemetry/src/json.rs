//! The workspace's JSON codec: one event reader, one string escaper, one
//! value tree.
//!
//! It lives in this crate because this is the dependency-free leaf that the
//! engine, the server, the HTTP client and the benches already depend on —
//! the codec needs nothing but `std`, and everything that speaks JSON on the
//! wire can reach it without a new edge in the crate graph.
//!
//! * [`Reader`] pulls [`Event`]s off a `&str` from an explicit stack, so
//!   hostile nesting is a [`JsonError`], never a stack overflow. It is strict
//!   RFC 8259: no leading zeros, no bare `.`/`e`, no raw control characters,
//!   surrogate pairs decoded and lone surrogates rejected.
//! * [`write_str`] is the only string escaper.
//! * Both find the bytes a string cannot hold as they are — `"`, `\` and
//!   control bytes — with one scan, `special`, eight bytes a step; the runs
//!   between them are borrowed or copied whole.
//! * [`JsonValue`] is the tree for documents small enough to hold: built by
//!   folding the reader's events, rendered by its `Display`.
//!
//! Decoders that care about speed (the SPARQL-results decoder) read the
//! events directly; everything that *emits* a document (span trees, error
//! bodies, the slow-query log) builds a [`JsonValue`] and prints it.

use std::borrow::Cow;
use std::fmt;

/// Containers may nest this deep; one level more is a [`JsonError`].
const MAX_NESTING: usize = 128;

/// A JSON syntax error with the byte offset where reading stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
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

/// One step of a JSON document, in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// `{`.
    StartObject,
    /// `}`.
    EndObject,
    /// `[`.
    StartArray,
    /// `]`.
    EndArray,
    /// An object member's name; its value follows.
    Key(Cow<'a, str>),
    /// A string value, escapes decoded — borrowed when it had none.
    String(Cow<'a, str>),
    /// A number, as its (grammar-checked) source text.
    Number(&'a str),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// The document's one value is complete and only whitespace followed.
    Eof,
}

/// What the reader may see next.
#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    /// A value: the document's own, or an object member's after its key.
    Value,
    /// Just after `[`: a first item or `]`.
    FirstItem,
    /// Just after `{`: a first key or `}`.
    FirstKey,
    /// After a complete value: `,` or the enclosing container's end.
    AfterValue,
}

/// A pull reader over one JSON document.
///
/// Call [`Reader::next`] until it yields [`Event::Eof`] — trailing garbage
/// is only detected there. Cloning a reader forks it: the clone replays the
/// same events from the same position.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    state: State,
    /// The open containers, innermost last: `true` for an object.
    stack: Vec<bool>,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            state: State::Value,
            stack: Vec::new(),
        }
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The next event.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Event<'a>, JsonError> {
        self.skip_ws();
        match self.state {
            State::Value => self.value(),
            State::FirstItem if self.peek() == Some(b']') => Ok(self.close()),
            State::FirstItem => self.value(),
            State::FirstKey if self.peek() == Some(b'}') => Ok(self.close()),
            State::FirstKey => self.key(),
            State::AfterValue => match (self.stack.last(), self.peek()) {
                (None, None) => Ok(Event::Eof),
                (None, Some(_)) => Err(self.err("trailing characters after JSON document")),
                (Some(true), Some(b'}')) | (Some(false), Some(b']')) => Ok(self.close()),
                (Some(&object), Some(b',')) => {
                    self.pos += 1;
                    self.skip_ws();
                    if object {
                        self.key()
                    } else {
                        self.value()
                    }
                }
                (Some(true), _) => Err(self.err("expected ',' or '}' in object")),
                (Some(false), _) => Err(self.err("expected ',' or ']' in array")),
            },
        }
    }

    /// Reads past the next value, whatever it holds. Only meaningful where a
    /// value is due: at the start, after a [`Event::Key`], inside an array.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        let depth = self.stack.len();
        loop {
            self.next()?;
            if self.stack.len() <= depth {
                return Ok(());
            }
        }
    }

    fn open(&mut self, object: bool) -> Result<Event<'a>, JsonError> {
        if self.stack.len() == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.pos += 1;
        self.stack.push(object);
        Ok(if object {
            self.state = State::FirstKey;
            Event::StartObject
        } else {
            self.state = State::FirstItem;
            Event::StartArray
        })
    }

    fn close(&mut self) -> Event<'a> {
        self.pos += 1;
        self.state = State::AfterValue;
        match self.stack.pop() {
            Some(true) => Event::EndObject,
            _ => Event::EndArray,
        }
    }

    fn key(&mut self) -> Result<Event<'a>, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string key"));
        }
        let key = self.string()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(self.err("expected ':'"));
        }
        self.pos += 1;
        self.state = State::Value;
        Ok(Event::Key(key))
    }

    fn value(&mut self) -> Result<Event<'a>, JsonError> {
        let event = match self.peek() {
            Some(b'{') => return self.open(true),
            Some(b'[') => return self.open(false),
            Some(b'"') => Event::String(self.string()?),
            Some(b't') => self.literal("true", Event::Bool(true))?,
            Some(b'f') => self.literal("false", Event::Bool(false))?,
            Some(b'n') => self.literal("null", Event::Null)?,
            Some(b'-' | b'0'..=b'9') => Event::Number(self.number()?),
            Some(_) => return Err(self.err("unexpected character")),
            None => return Err(self.err("unexpected end of input")),
        };
        self.state = State::AfterValue;
        Ok(event)
    }

    fn literal(&mut self, word: &str, event: Event<'a>) -> Result<Event<'a>, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(event)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<&'a str, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        Ok(&self.text[start..self.pos])
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }

    /// Reads a string whose opening quote is at `pos`.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.pos += 1;
        let mut owned: Option<String> = None;
        loop {
            // `"`, `\` and control bytes are ASCII, so every cut below falls
            // on a character boundary of the `&str`.
            let rest = &self.text[self.pos..];
            let stop = special(rest.as_bytes()).ok_or_else(|| self.err("unterminated string"))?;
            let run = &rest[..stop];
            self.pos += stop + 1;
            match rest.as_bytes()[stop] {
                b'"' => {
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(out) => Cow::Owned(out + run),
                    })
                }
                b'\\' => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    out.push(self.escape()?);
                }
                _ => {
                    self.pos -= 1;
                    return Err(self.err("raw control character in string"));
                }
            }
        }
    }

    /// Decodes one escape; `pos` is just past its backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => return self.unicode_escape(),
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Decodes `uXXXX`, or the surrogate pair `uXXXX\uXXXX`, at `pos`. A lone
    /// surrogate is an error rather than a replacement character, so a
    /// round-trip can never silently corrupt a term.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = match self.hex4()? {
            high @ 0xd800..=0xdbff => {
                if self.peek() != Some(b'\\') {
                    return Err(self.err("unpaired high surrogate"));
                }
                self.pos += 1;
                match self.hex4()? {
                    low @ 0xdc00..=0xdfff => 0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00),
                    _ => return Err(self.err("invalid low surrogate")),
                }
            }
            0xdc00..=0xdfff => return Err(self.err("unpaired low surrogate")),
            unit => unit,
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))
    }

    /// Reads `uXXXX` at `pos`.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .text
            .get(self.pos + 1..self.pos + 5)
            .filter(|d| self.peek() == Some(b'u') && d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("expected \\u and four hex digits"))?;
        self.pos += 5;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }
}

/// The offset of the first byte a JSON string cannot hold as it is — `"`,
/// `\` or a control byte below 0x20 — in `bytes`, if there is one.
///
/// The one scan under both directions of the codec ([`Reader`]'s strings and
/// [`write_str`]), eight bytes a step: simdjson's structural scan (Langdale
/// & Lemire, VLDB J. 2019) as plain `u64` arithmetic. In a word `x`,
/// `(x - 0x01…01 * n) & !x & 0x80…80` flags every byte below `n` (for
/// `n <= 0x80`): a borrow can flag a byte above a flagged one, never one
/// below, so the lowest flag of each mask — and of their union — is exact.
/// `"` and `\` are the bytes of `x` XOR their splat that are below 1.
fn special(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    let below = |x: u64, n: u8| x.wrapping_sub(ONES * n as u64) & !x & HIGHS;
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        let flags = below(x, 0x20)
            | below(x ^ (ONES * b'"' as u64), 1)
            | below(x ^ (ONES * b'\\' as u64), 1);
        if flags != 0 {
            return Some(i * 8 + flags.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = tail
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
    Some(bytes.len() - tail.len() + at)
}

/// Appends `s` as a JSON string, quotes included. The workspace's one
/// escaper: `"`, `\` and the control characters are escaped, nothing else.
pub fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut rest = s;
    // Every special byte is ASCII, so each cut falls on a char boundary.
    while let Some(at) = special(rest.as_bytes()) {
        out.push_str(&rest[..at]);
        let b = rest.as_bytes()[at];
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// A JSON value as a tree.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Integers are exact up to 2⁵³.
    Number(f64),
    /// A string, with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; member order is preserved, duplicate keys are kept as-is
    /// (lookups return the first).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut reader = Reader::new(text);
        // The containers still open, innermost last; a finished value goes
        // into the innermost one, or is the document.
        let mut open: Vec<JsonValue> = Vec::new();
        let mut document = None;
        loop {
            let value = match reader.next()? {
                Event::Eof => return Ok(document.expect("a value precedes Eof")),
                Event::StartObject => {
                    open.push(JsonValue::Object(Vec::new()));
                    continue;
                }
                Event::StartArray => {
                    open.push(JsonValue::Array(Vec::new()));
                    continue;
                }
                Event::Key(key) => {
                    if let Some(JsonValue::Object(members)) = open.last_mut() {
                        members.push((key.into_owned(), JsonValue::Null));
                    }
                    continue;
                }
                Event::EndObject | Event::EndArray => open.pop().expect("an open container"),
                Event::String(s) => JsonValue::String(s.into_owned()),
                Event::Number(text) => JsonValue::Number(
                    text.parse()
                        .map_err(|_| reader.err(format!("invalid number '{text}'")))?,
                ),
                Event::Bool(b) => JsonValue::Bool(b),
                Event::Null => JsonValue::Null,
            };
            match open.last_mut() {
                None => document = Some(value),
                Some(JsonValue::Array(items)) => items.push(value),
                // The member was pushed, valueless, when its key arrived.
                Some(JsonValue::Object(members)) => {
                    members.last_mut().expect("a key precedes its value").1 = value
                }
                Some(_) => unreachable!("only containers are open"),
            }
        }
    }

    /// An object with the given members, in the given order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
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

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN / Infinity. Rust prints a finite f64 without
            // an exponent, and an integral one without a fraction.
            JsonValue::Number(n) if n.is_finite() => out.push_str(&n.to_string()),
            JsonValue::Number(_) => out.push_str("null"),
            JsonValue::String(s) => write_str(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// The compact document: no whitespace, members in order.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> JsonValue {
        JsonValue::Number(v as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> JsonValue {
        JsonValue::Number(v as f64)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> JsonValue {
        JsonValue::Number(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> JsonValue {
        JsonValue::String(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> JsonValue {
        JsonValue::String(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = JsonValue::parse(
            r#"{"head":{"vars":["s"]},"n":-1.5e2,"ok":true,"none":null,"xs":[1,2]}"#,
        )
        .unwrap();
        assert_eq!(
            v.get("head")
                .unwrap()
                .get("vars")
                .unwrap()
                .as_array()
                .unwrap()[0]
                .as_str(),
            Some("s")
        );
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-150.0));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
        assert_eq!(v.get("xs").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn decodes_escapes_and_surrogate_pairs() {
        let v = JsonValue::parse(r#""a\"b\\c\n\t\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\n\té😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "\"unterminated",
            "tru",
            "1 2",
            "\"\\ud800\"",
            "\"\\q\"",
            "{\"a\" 1}",
            "\u{1}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted: {bad:?}");
        }
        // Raw control characters must be escaped per RFC 8259.
        assert!(JsonValue::parse("\"a\u{0001}b\"").is_err());
    }

    #[test]
    fn error_carries_offset() {
        let err = JsonValue::parse("[1, oops]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn number_grammar_is_rfc_8259() {
        for bad in [
            "01", "1.", "-", ".5", "1e", "-01", "1.e3", "+1", "1e+", "0x10",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted: {bad:?}");
            assert!(
                JsonValue::parse(&format!("[{bad}]")).is_err(),
                "accepted: [{bad}]"
            );
        }
        for (good, value) in [
            ("-0", -0.0),
            ("0", 0.0),
            ("1e-3", 0.001),
            ("1.5E+2", 150.0),
            ("10", 10.0),
            ("-12.25", -12.25),
        ] {
            assert_eq!(
                JsonValue::parse(good).unwrap().as_f64(),
                Some(value),
                "{good}"
            );
            let mut reader = Reader::new(good);
            assert_eq!(reader.next().unwrap(), Event::Number(good));
            assert_eq!(reader.next().unwrap(), Event::Eof);
        }
    }

    #[test]
    fn nesting_is_bounded_not_recursive() {
        // Each of these overflowed the stack of a recursive-descent parser.
        for open in ["[", "{\"a\":"] {
            let err = JsonValue::parse(&open.repeat(1_000_000)).unwrap_err();
            assert!(err.message.contains("128"), "{err}");
        }
        let deepest = format!("{}{}", "[".repeat(128), "]".repeat(128));
        assert!(JsonValue::parse(&deepest).is_ok());
        assert!(JsonValue::parse(&format!("[{deepest}]")).is_err());
    }

    #[test]
    fn reader_yields_events_in_document_order() {
        let mut reader = Reader::new(r#" {"a":[1,"x\n",true],"b":{"c":null}} "#);
        let mut events = Vec::new();
        loop {
            let event = reader.next().unwrap();
            let done = event == Event::Eof;
            events.push(event);
            if done {
                break;
            }
        }
        assert_eq!(
            events,
            [
                Event::StartObject,
                Event::Key("a".into()),
                Event::StartArray,
                Event::Number("1"),
                Event::String("x\n".into()),
                Event::Bool(true),
                Event::EndArray,
                Event::Key("b".into()),
                Event::StartObject,
                Event::Key("c".into()),
                Event::Null,
                Event::EndObject,
                Event::EndObject,
                Event::Eof,
            ]
        );
        // A string without an escape is a slice of the input.
        let mut reader = Reader::new(r#"["plain","esc\"aped"]"#);
        reader.next().unwrap();
        assert!(matches!(
            reader.next().unwrap(),
            Event::String(Cow::Borrowed("plain"))
        ));
        assert!(matches!(
            reader.next().unwrap(),
            Event::String(Cow::Owned(_))
        ));
    }

    #[test]
    fn skip_passes_one_whole_value() {
        let mut reader = Reader::new(r#"{"skip":{"deep":[1,{"x":[]}]},"also":7,"keep":"v"}"#);
        assert_eq!(reader.next().unwrap(), Event::StartObject);
        assert_eq!(reader.next().unwrap(), Event::Key("skip".into()));
        reader.skip().unwrap();
        assert_eq!(reader.next().unwrap(), Event::Key("also".into()));
        reader.skip().unwrap();
        assert_eq!(reader.next().unwrap(), Event::Key("keep".into()));
        assert_eq!(reader.next().unwrap(), Event::String("v".into()));
        assert_eq!(reader.next().unwrap(), Event::EndObject);
        assert_eq!(reader.next().unwrap(), Event::Eof);
        assert!(Reader::new("[1").skip().is_err());
    }

    /// The byte predicate [`special`] computes eight bytes at a time.
    fn is_special(b: u8) -> bool {
        b == b'"' || b == b'\\' || b < 0x20
    }

    #[test]
    fn special_agrees_with_the_byte_predicate_at_every_alignment() {
        // Fillers around the probe: ASCII, DEL beside `!` (one above the
        // control range), and two- and four-byte UTF-8 sequences.
        let fillers: [&[u8]; 4] = [b"a", &[0x7f, 0x21], "é".as_bytes(), "😀".as_bytes()];
        for filler in fillers {
            for len in 0..=24usize {
                let base: Vec<u8> = filler.iter().copied().cycle().take(len).collect();
                assert_eq!(special(&base), base.iter().position(|&b| is_special(b)));
                for offset in (0..=16).filter(|&o| o < len) {
                    for b in 0..=255u8 {
                        let mut buf = base.clone();
                        buf[offset] = b;
                        let expected = buf.iter().position(|&b| is_special(b));
                        assert_eq!(special(&buf), expected, "{b:#04x} at {offset} of {buf:?}");
                        // A later special byte must not move the answer.
                        if let Some(last) = buf.last_mut().filter(|_| offset + 1 < len) {
                            *last = b'"';
                            let expected = buf.iter().position(|&b| is_special(b));
                            assert_eq!(special(&buf), expected, "{buf:?}");
                        }
                    }
                }
            }
        }
    }

    /// The escaper as it was before [`special`]: one byte a step, and a
    /// `format!` per control character. Kept to pin the bytes.
    fn per_byte_escaper(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn write_str_matches_the_per_byte_escaper_and_reads_back() {
        let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
        alphabet.extend(['"', '\\', '/', 'a', 'Z', ' ', '\u{7f}', 'é', '☃', '😀']);
        // xorshift64: a seeded sweep without a dependency.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for _ in 0..3_000 {
            // Mostly plain text, so runs longer than a word occur.
            let len = draw(40);
            let s: String = (0..len)
                .map(|_| match draw(4) {
                    0 => alphabet[draw(alphabet.len())],
                    _ => 'x',
                })
                .collect();
            let mut out = String::new();
            write_str(&mut out, &s);
            assert_eq!(out, per_byte_escaper(&s), "{s:?}");
            let mut reader = Reader::new(&out);
            assert_eq!(reader.next().unwrap(), Event::String(s.as_str().into()));
            assert_eq!(reader.next().unwrap(), Event::Eof);
        }
    }

    #[test]
    fn display_round_trips_and_escapes() {
        let doc = JsonValue::object([
            ("s", JsonValue::from("a\"b\\c\nd\u{1}é😀")),
            ("n", JsonValue::from(7u64)),
            ("f", JsonValue::from(0.25)),
            ("nan", JsonValue::from(f64::NAN)),
            (
                "xs",
                JsonValue::Array(vec![JsonValue::Bool(false), JsonValue::Null]),
            ),
            ("o", JsonValue::Object(Vec::new())),
        ]);
        let text = doc.to_string();
        assert_eq!(
            text,
            "{\"s\":\"a\\\"b\\\\c\\nd\\u0001é😀\",\"n\":7,\"f\":0.25,\"nan\":null,\"xs\":[false,null],\"o\":{}}"
        );
        let back = JsonValue::parse(&text).unwrap();
        assert_eq!(back.get("s"), doc.get("s"));
        assert_eq!(back.get("nan"), Some(&JsonValue::Null));
        assert_eq!(back.to_string(), text);
    }
}
