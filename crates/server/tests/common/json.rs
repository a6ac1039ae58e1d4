//! A strict RFC 8259 recognizer written for the tests. It shares no code
//! with `hbold_telemetry::json`, the one writer behind every document the
//! server emits, so it can judge that writer: anything the RFC does not
//! allow (a raw control character in a string, a lone surrogate, a leading
//! zero, text after the value, a repeated member name) is refused.

use hbold_telemetry::json::JsonValue;

/// `Ok` when `text` is exactly one JSON text, whitespace around it allowed;
/// else the byte where it stops being one.
pub fn check(text: &str) -> Result<(), String> {
    let mut reader = Reader { text, at: 0 };
    if reader.value().is_some() && reader.ws() == text.len() {
        return Ok(());
    }
    Err(format!("not JSON at byte {}: {text}", reader.at))
}

/// Checks `text` and decodes it: the codec that wrote it reads the
/// structure, once the recognizer has judged the text.
pub fn parse(text: &str) -> JsonValue {
    check(text).unwrap();
    JsonValue::parse(text).unwrap()
}

/// The member at a dotted path, e.g. `"trace.attrs.query"`; panics when
/// there is none, so a bare call checks that the member is there.
pub fn at<'a>(doc: &'a JsonValue, path: &str) -> &'a JsonValue {
    path.split('.').fold(doc, |v, key| {
        v.get(key).unwrap_or_else(|| panic!("no {path:?} in {doc}"))
    })
}

/// Every span of a trace tree, depth first, the root first.
pub fn spans(root: &JsonValue) -> Vec<&JsonValue> {
    let mut out = vec![root];
    let mut i = 0;
    while i < out.len() {
        let node = out[i];
        out.splice(i + 1..i + 1, at(node, "children").as_array().unwrap());
        i += 1;
    }
    out
}

/// The spans of a trace tree named `name`, depth first.
pub fn named<'a>(root: &'a JsonValue, name: &str) -> Vec<&'a JsonValue> {
    let mut found = spans(root);
    found.retain(|s| at(s, "name").as_str() == Some(name));
    found
}

/// Each method reads one production at `at` and moves past it, or returns
/// `None` with `at` where the text broke the grammar.
struct Reader<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> Reader<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.at += hit as usize;
        hit
    }

    /// Skips whitespace; returns where it stopped.
    fn ws(&mut self) -> usize {
        while self.eat(b' ') || self.eat(b'\t') || self.eat(b'\n') || self.eat(b'\r') {}
        self.at
    }

    fn digits(&mut self) -> bool {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at > start
    }

    fn value(&mut self) -> Option<()> {
        self.ws();
        if let Some(word) = ["null", "true", "false"]
            .into_iter()
            .find(|w| self.text[self.at..].starts_with(w))
        {
            self.at += word.len();
            return Some(());
        }
        match self.peek()? {
            b'"' => self.string().map(drop),
            open @ (b'[' | b'{') => self.container(open),
            _ => self.number(),
        }
    }

    /// An array or an object: one loop, with a member name and `:` before
    /// each value of an object.
    fn container(&mut self, open: u8) -> Option<()> {
        let close = open + 2; // `]` and `}` sit two after `[` and `{`
        self.at += 1;
        let mut names = Vec::new();
        self.ws();
        let mut more = !self.eat(close);
        while more {
            if open == b'{' {
                self.ws();
                (self.peek() == Some(b'"')).then_some(())?;
                let name = self.string()?;
                self.ws();
                (!names.contains(&name) && self.eat(b':')).then_some(())?;
                names.push(name);
            }
            self.value()?;
            self.ws();
            more = !self.eat(close);
            (!more || self.eat(b',')).then_some(())?;
        }
        Some(())
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Option<()> {
        self.eat(b'-');
        let int = self.eat(b'0') || matches!(self.peek(), Some(b'1'..=b'9')) && self.digits();
        let fraction = !self.eat(b'.') || self.digits();
        let exponent = !(self.eat(b'e') || self.eat(b'E')) || {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()
        };
        (int && fraction && exponent).then_some(())
    }

    fn hex4(&mut self) -> Option<u32> {
        let digits = self.text.get(self.at..self.at + 4)?;
        let code = u32::from_str_radix(digits, 16).ok()?;
        (digits.bytes().all(|b| b.is_ascii_hexdigit())).then_some(())?;
        self.at += 4;
        Some(code)
    }

    /// A string at `"`, returned as its raw text between the quotes.
    fn string(&mut self) -> Option<&'a str> {
        self.at += 1;
        let start = self.at;
        loop {
            match self.peek()? {
                0..=0x1f => return None, // a raw control character
                b'"' => break,
                b'\\' => {
                    self.at += 1;
                    let escape = self.peek()?;
                    self.at += 1;
                    if escape == b'u' {
                        let high = self.hex4()?;
                        if (0xd800..0xdc00).contains(&high) {
                            (self.eat(b'\\') && self.eat(b'u')).then_some(())?;
                            (0xdc00..0xe000).contains(&self.hex4()?).then_some(())?;
                        } else {
                            char::from_u32(high)?; // a lone low surrogate
                        }
                    } else {
                        b"\"\\/bfnrt".contains(&escape).then_some(())?;
                    }
                }
                _ => self.at += 1,
            }
        }
        self.at += 1;
        let text = self.text;
        Some(&text[start..self.at - 1])
    }
}
