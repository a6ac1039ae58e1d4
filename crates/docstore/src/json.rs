//! JSON encoding and decoding for [`DocValue`]s.
//!
//! Implemented locally so the workspace has no external JSON dependency; the
//! document store needs its own value model regardless (ARCHITECTURE.md,
//! "JSON", says why this codec is not yet `hbold_telemetry::json`). The
//! encoder produces deterministic output (object keys are sorted because the
//! underlying map is a `BTreeMap`), which keeps the persisted collection
//! files diff-friendly and the tests stable. The decoder reads untrusted
//! lines off disk: nesting is bounded, control characters must be escaped,
//! and a lone surrogate is an error.

use std::collections::BTreeMap;

use crate::error::DocStoreError;
use crate::value::DocValue;

/// Serializes a value to compact JSON.
pub fn to_json(value: &DocValue) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

/// Parses a JSON document into a [`DocValue`].
pub fn from_json(text: &str) -> Result<DocValue, DocStoreError> {
    let mut parser = JsonParser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(value)
}

fn write_value(value: &DocValue, out: &mut String) {
    match value {
        DocValue::Null => out.push_str("null"),
        DocValue::Bool(true) => out.push_str("true"),
        DocValue::Bool(false) => out.push_str("false"),
        DocValue::Int(v) => out.push_str(&v.to_string()),
        DocValue::Float(v) => {
            if v.is_finite() {
                // Always include a decimal point / exponent so the value
                // round-trips back to Float rather than Int.
                let text = format!("{v}");
                if text.contains('.') || text.contains('e') || text.contains('E') {
                    out.push_str(&text);
                } else {
                    out.push_str(&text);
                    out.push_str(".0");
                }
            } else {
                // JSON has no NaN/Infinity; degrade to null like MongoDB's
                // strict mode.
                out.push_str("null");
            }
        }
        DocValue::String(s) => write_string(s, out),
        DocValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        DocValue::Object(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
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
}

/// Containers may nest this deep. The parser recurses once per level, so
/// without a bound a line of `[[[[…` overflows the stack.
const MAX_NESTING: usize = 128;

struct JsonParser<'a> {
    text: &'a str,
    /// Byte offset; always on a character boundary.
    pos: usize,
    depth: usize,
}

impl JsonParser<'_> {
    fn error(&self, message: impl Into<String>) -> DocStoreError {
        DocStoreError::Json(format!("{} (at offset {})", message.into(), self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, expected: u8) -> Result<(), DocStoreError> {
        if self.peek() != Some(expected) {
            return Err(self.error(format!("expected '{}'", expected as char)));
        }
        self.pos += 1;
        Ok(())
    }

    fn parse_value(&mut self) -> Result<DocValue, DocStoreError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", DocValue::Null),
            Some(b't') => self.parse_keyword("true", DocValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", DocValue::Bool(false)),
            Some(b'"') => Ok(DocValue::String(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<DocValue, DocStoreError>,
    ) -> Result<DocValue, DocStoreError> {
        if self.depth == MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, keyword: &str, value: DocValue) -> Result<DocValue, DocStoreError> {
        if !self.text[self.pos..].starts_with(keyword) {
            return Err(self.error(format!("invalid literal (expected '{keyword}')")));
        }
        self.pos += keyword.len();
        Ok(value)
    }

    fn parse_string(&mut self) -> Result<String, DocStoreError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // `"`, `\` and control bytes are ASCII, so the cut falls on a
            // character boundary.
            let rest = &self.text[self.pos..];
            let stop = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| self.error("unterminated string"))?;
            out.push_str(&rest[..stop]);
            self.pos += stop;
            match rest.as_bytes()[stop] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    out.push(self.parse_escape()?);
                }
                _ => return Err(self.error("raw control character in string")),
            }
        }
    }

    /// Decodes one escape; `pos` is just past its backslash.
    fn parse_escape(&mut self) -> Result<char, DocStoreError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => return self.parse_unicode_escape(),
            Some(_) => return Err(self.error("unknown escape")),
            None => return Err(self.error("unterminated escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Decodes `uXXXX`, or the surrogate pair `uXXXX\uXXXX`, at `pos`. A pair
    /// is one character; a lone surrogate is an error, not a U+FFFD that
    /// silently changes the document.
    fn parse_unicode_escape(&mut self) -> Result<char, DocStoreError> {
        let code = match self.parse_hex4()? {
            high @ 0xd800..=0xdbff => {
                if self.peek() != Some(b'\\') {
                    return Err(self.error("unpaired high surrogate"));
                }
                self.pos += 1;
                match self.parse_hex4()? {
                    low @ 0xdc00..=0xdfff => 0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00),
                    _ => return Err(self.error("invalid low surrogate")),
                }
            }
            0xdc00..=0xdfff => return Err(self.error("unpaired low surrogate")),
            unit => unit,
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"))
    }

    /// Reads `uXXXX` at `pos`.
    fn parse_hex4(&mut self) -> Result<u32, DocStoreError> {
        let digits = self
            .text
            .get(self.pos + 1..self.pos + 5)
            .filter(|d| self.peek() == Some(b'u') && d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("expected \\u and four hex digits"))?;
        self.pos += 5;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }

    fn parse_number(&mut self) -> Result<DocValue, DocStoreError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(DocValue::Float)
                .map_err(|_| self.error(format!("malformed number '{text}'")))
        } else {
            text.parse::<i64>()
                .map(DocValue::Int)
                .map_err(|_| self.error(format!("malformed integer '{text}'")))
        }
    }

    fn parse_array(&mut self) -> Result<DocValue, DocStoreError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(DocValue::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(DocValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<DocValue, DocStoreError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(DocValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(DocValue::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    #[test]
    fn round_trip_of_nested_documents() {
        let d = doc! {
            "endpoint" => "http://e.org/sparql?query=1&format=json",
            "available" => true,
            "failures" => 0,
            "score" => 0.85,
            "classes" => vec!["Person", "Paper"],
            "summary" => doc! { "triples" => 123456, "note" => "line1\nline2 \"quoted\"" },
            "missing" => None::<i64>,
        };
        let json = to_json(&d);
        let parsed = from_json(&json).unwrap();
        assert_eq!(parsed, d);
    }

    #[test]
    fn encoding_is_deterministic_and_sorted() {
        let d = doc! { "zeta" => 1, "alpha" => 2 };
        assert_eq!(to_json(&d), "{\"alpha\":2,\"zeta\":1}");
    }

    #[test]
    fn floats_round_trip_as_floats() {
        let json = to_json(&DocValue::Float(3.0));
        assert_eq!(json, "3.0");
        assert_eq!(from_json(&json).unwrap(), DocValue::Float(3.0));
        assert_eq!(from_json("2.5e3").unwrap(), DocValue::Float(2500.0));
        assert_eq!(from_json("-7").unwrap(), DocValue::Int(-7));
        assert_eq!(to_json(&DocValue::Float(f64::NAN)), "null");
    }

    #[test]
    fn parses_whitespace_and_unicode_escapes() {
        let parsed = from_json(" { \"a\" : [ 1 , 2 ] , \"b\" : \"\\u0041\\n\" } ").unwrap();
        assert_eq!(parsed.get("b").and_then(DocValue::as_str), Some("A\n"));
        assert_eq!(
            parsed.get("a").and_then(DocValue::as_array).unwrap().len(),
            2
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(from_json("[]").unwrap(), DocValue::Array(vec![]));
        assert_eq!(from_json("{}").unwrap(), DocValue::object());
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(from_json("{\"a\":}").is_err());
        assert!(from_json("[1, 2").is_err());
        assert!(from_json("\"unterminated").is_err());
        assert!(from_json("nulll").is_err());
        assert!(from_json("{\"a\":1} extra").is_err());
        assert!(from_json("tru").is_err());
        assert!(from_json("").is_err());
        // Raw control characters must be escaped.
        assert!(from_json("\"a\u{1}b\"").is_err());
        // Nesting is bounded: each of these overflowed the parser's stack.
        for open in ["[", "{\"a\":"] {
            let err = from_json(&open.repeat(100_000)).unwrap_err();
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        }
        // A lone surrogate is an error, not a replacement character.
        for lone in [
            "\"\\ud83d\"",
            "\"\\ude00\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\u0041\"",
        ] {
            assert!(from_json(lone).is_err(), "accepted: {lone}");
        }
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        assert_eq!(
            from_json("\"\\ud83d\\ude00 \\u00e9\"").unwrap(),
            DocValue::String("😀 é".into())
        );
        let emoji = DocValue::String("😀".into());
        assert_eq!(from_json(&to_json(&emoji)).unwrap(), emoji);
    }
}
