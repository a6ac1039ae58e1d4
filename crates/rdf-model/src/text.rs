//! Term text in: the one reader of the term productions that N-Triples,
//! Turtle, SPARQL and SPARQL TSV share.
//!
//! The W3C grammars of the three languages (and TSV, which writes terms as
//! N-Triples does) have the same productions for a term: `IRIREF`,
//! `BLANK_NODE_LABEL`, a quoted string with the escapes `ECHAR` (`\t \b \n
//! \r \f \" \' \\`) and `UCHAR` (`\uXXXX`, `\UXXXXXXXX`), `LANGTAG`,
//! `PN_PREFIX ':' PN_LOCAL`, and (Turtle and SPARQL) `INTEGER`, `DECIMAL`
//! and `DOUBLE`. [`Cursor`] reads each of them, and a whole
//! N-Triples term, off a `&str`; every syntax keeps its own grammar around
//! these calls. Terms are written by one writer too, [`Term::to_ntriples`],
//! and what it writes this reads back.
//!
//! The cursor reads bytes. Every delimiter of the grammars is ASCII, and
//! each scan either takes every non-ASCII byte (an IRI or string body) or
//! decides on the `char` it starts (a name, whitespace), so it always stops
//! on a character boundary. Text without escapes is a slice of the input,
//! copied once, straight into its term. An error is a byte offset and a
//! message, a [`SyntaxError`]; each syntax turns it into its own error type,
//! with the line and the column counted in characters.

use std::borrow::Cow;

use crate::literal::Literal;
use crate::term::{BlankNode, Iri, Term};
use crate::vocab::datatype_iri;

/// What a [`Cursor`] could not read: the byte offset in its text where it
/// stopped, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntaxError {
    /// Byte offset in the cursor's text, always on a character boundary.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl SyntaxError {
    /// The 1-based line and column of the error in `text` (the text the
    /// cursor read), the column counted in characters.
    pub fn line_column(&self, text: &str) -> (usize, usize) {
        let before = &text[..self.offset];
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
        (line, before[line_start..].chars().count() + 1)
    }
}

/// Which numeric production [`Cursor::read_number`] read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Numeral {
    /// Digits only: `INTEGER`.
    Integer,
    /// Digits with a decimal point: `DECIMAL`.
    Decimal,
    /// Digits with an exponent: `DOUBLE`.
    Double,
}

/// A position in a text, and the readers of the shared term productions.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

/// Whether `c` continues a prefix or local name: `PN_CHARS` as the readers
/// have always taken it, Unicode letters and digits, `_` and `-`.
fn name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-')
}

/// Whether `b` continues a blank node label: N-Triples' ASCII alphabet, the
/// one [`BlankNode`] keeps.
fn label_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.')
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    #[inline]
    pub fn new(text: &'a str) -> Self {
        Cursor { text, pos: 0 }
    }

    /// The byte offset of the cursor.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether the whole text has been read.
    #[inline]
    pub fn at_end(&self) -> bool {
        self.pos >= self.text.len()
    }

    /// The text from the cursor on.
    #[inline]
    pub fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    /// The byte at the cursor.
    #[inline]
    pub fn peek_byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The byte `ahead` bytes past the cursor.
    #[inline]
    pub fn peek_byte_at(&self, ahead: usize) -> Option<u8> {
        self.text.as_bytes().get(self.pos + ahead).copied()
    }

    /// The character at the cursor.
    #[inline]
    pub fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    /// Consumes the character at the cursor.
    #[inline]
    pub fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Consumes the ASCII byte `b` if it is next.
    #[inline]
    pub fn eat(&mut self, b: u8) -> bool {
        let found = self.peek_byte() == Some(b);
        self.pos += found as usize;
        found
    }

    /// Consumes the longest run of bytes accepted by `take` and returns it.
    /// `take` must answer alike for every byte at or above 0x80, so the run
    /// ends on a character boundary.
    #[inline]
    fn take_while(&mut self, take: impl Fn(u8) -> bool) -> &'a str {
        let rest = self.rest();
        let len = rest.bytes().position(|b| !take(b)).unwrap_or(rest.len());
        self.pos += len;
        &rest[..len]
    }

    /// Consumes the longest run of characters accepted by `take`: ASCII by
    /// byte, the rest decoded.
    pub fn take_chars(&mut self, take: impl Fn(char) -> bool) -> &'a str {
        let start = self.pos;
        while let Some(b) = self.peek_byte() {
            if b < 0x80 {
                if !take(b as char) {
                    break;
                }
                self.pos += 1;
            } else {
                match self.peek() {
                    Some(c) if take(c) => self.pos += c.len_utf8(),
                    _ => break,
                }
            }
        }
        &self.text[start..self.pos]
    }

    /// Skips `char::is_whitespace`: ASCII by byte, the rest by `char`.
    #[inline]
    pub fn skip_ws(&mut self) {
        while let Some(b) = self.peek_byte() {
            match b {
                b' ' | b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r' => self.pos += 1,
                0x80.. if self.peek().is_some_and(char::is_whitespace) => {
                    self.bump();
                }
                _ => return,
            }
        }
    }

    /// Skips whitespace and `#` comments, each to the end of its line.
    #[inline]
    pub fn skip_ws_and_comments(&mut self) {
        loop {
            self.skip_ws();
            if self.peek_byte() != Some(b'#') {
                return;
            }
            self.take_while(|b| b != b'\n');
        }
    }

    /// An error at the cursor.
    #[cold]
    pub fn error(&self, message: impl Into<String>) -> SyntaxError {
        SyntaxError {
            offset: self.pos,
            message: message.into(),
        }
    }

    /// Consumes the ASCII character `expected`; an error after whatever
    /// character stands there instead.
    #[inline]
    pub fn expect(&mut self, expected: u8) -> Result<(), SyntaxError> {
        match self.eat(expected) {
            true => Ok(()),
            false => Err(self.unexpected(expected)),
        }
    }

    #[cold]
    fn unexpected(&mut self, expected: u8) -> SyntaxError {
        let expected = expected as char;
        match self.bump() {
            Some(c) => self.error(format!("expected '{expected}', found '{c}'")),
            None => self.error(format!("expected '{expected}', found end of input")),
        }
    }

    /// An N-Triples term: an IRI, a blank node or a literal whose datatype
    /// is an `IRIREF`.
    // Not `#[inline]`, while the productions it calls are: a load's hot loop
    // then makes one call per term into one function that holds them all.
    pub fn read_term(&mut self) -> Result<Term, SyntaxError> {
        match self.peek_byte() {
            Some(b'<') => self.read_iri().map(Term::from),
            Some(b'_') => self.read_blank().map(Term::from),
            Some(b'"') => {
                let lexical = self.read_quoted(b'"')?;
                let literal = match self.peek_byte() {
                    Some(b'@') => Literal::new_tagged(&lexical, self.read_langtag()?),
                    Some(b'^') => {
                        self.pos += 1;
                        self.expect(b'^')?;
                        Literal::new_typed(&lexical, self.read_datatype()?)
                    }
                    _ => Literal::new_simple(&lexical),
                };
                Ok(Term::from(literal))
            }
            Some(_) => {
                let c = self.peek().expect("the cursor is on a character boundary");
                Err(self.error(format!("unexpected character '{c}' at start of term")))
            }
            None => Err(self.error("unexpected end of input, expected a term")),
        }
    }

    /// `IRIREF`: `<`, the IRI, `>`, validated by the scan that finds the
    /// `>` ([`Iri::parse_until_gt`]). An invalid IRI is an error past its
    /// `>`.
    #[inline]
    pub fn read_iri(&mut self) -> Result<Iri, SyntaxError> {
        self.expect(b'<')?;
        let Some((iri, len)) = Iri::parse_until_gt(self.rest()) else {
            self.pos = self.text.len();
            return Err(self.error("unterminated IRI (missing '>')"));
        };
        self.pos += len + 1;
        iri.map_err(|e| self.error(e.to_string()))
    }

    /// The text between `<` and `>`, unchecked, the cursor past the `>`:
    /// for a syntax that resolves it (a relative IRI, a prefix's
    /// namespace) before it is an [`Iri`].
    pub fn read_iri_text(&mut self) -> Result<&'a str, SyntaxError> {
        self.expect(b'<')?;
        let text = self.take_while(|b| b != b'>');
        if !self.eat(b'>') {
            return Err(self.error("unterminated IRI (missing '>')"));
        }
        Ok(text)
    }

    /// A datatype `IRIREF`: a well-known datatype shares the vocabulary's
    /// IRI ([`datatype_iri`]).
    #[inline]
    fn read_datatype(&mut self) -> Result<Iri, SyntaxError> {
        let text = self.read_iri_text()?;
        datatype_iri(text).map_err(|e| self.error(e.to_string()))
    }

    /// `BLANK_NODE_LABEL`: `_:` and a label of N-Triples' ASCII alphabet,
    /// kept verbatim. A `.` ends it unless a label character follows, so a
    /// statement's terminator is never taken.
    #[inline]
    pub fn read_blank(&mut self) -> Result<BlankNode, SyntaxError> {
        self.expect(b'_')?;
        self.expect(b':')?;
        let start = self.pos;
        let label = self.take_while(label_byte).trim_end_matches('.');
        self.pos = start + label.len();
        if label.is_empty() {
            return Err(self.error("empty blank node label"));
        }
        Ok(BlankNode::from_label(label))
    }

    /// A quoted string from its opening `quote` through its closing one,
    /// escapes decoded: a slice of the text when it has none.
    #[inline]
    pub fn read_quoted(&mut self, quote: u8) -> Result<Cow<'a, str>, SyntaxError> {
        self.expect(quote)?;
        let plain = self.take_while(|b| b != quote && b != b'\\');
        match self.peek_byte() {
            Some(b) if b == quote => {
                self.pos += 1;
                Ok(Cow::Borrowed(plain))
            }
            Some(_) => {
                let mut value = plain.to_string();
                self.unescape_rest(quote, &mut value)?;
                Ok(Cow::Owned(value))
            }
            None => Err(self.error("unterminated string literal")),
        }
    }

    /// Reads the rest of a quoted string into `value`, unescaping, through
    /// the closing quote: the text between escapes a slice at a time.
    fn unescape_rest(&mut self, quote: u8, value: &mut String) -> Result<(), SyntaxError> {
        loop {
            value.push_str(self.take_while(|b| b != quote && b != b'\\'));
            match self.peek_byte() {
                Some(b) if b == quote => {
                    self.pos += 1;
                    return Ok(());
                }
                // The backslash: the escaped character follows.
                Some(_) => self.pos += 1,
                None => return Err(self.error("unterminated string literal")),
            }
            let escaped = match self.bump() {
                Some('t') => '\t',
                Some('b') => '\u{8}',
                Some('n') => '\n',
                Some('r') => '\r',
                Some('f') => '\u{c}',
                Some(c @ ('"' | '\'' | '\\')) => c,
                Some('u') => self.read_uchar(4)?,
                Some('U') => self.read_uchar(8)?,
                Some(c) => return Err(self.error(format!("unknown escape sequence '\\{c}'"))),
                None => return Err(self.error("unterminated escape sequence")),
            };
            value.push(escaped);
        }
    }

    /// The `digits` hex digits of a `UCHAR` past its `\u` or `\U`, as the
    /// character they name.
    fn read_uchar(&mut self, digits: usize) -> Result<char, SyntaxError> {
        let mut code = 0u32;
        for _ in 0..digits {
            let c = self
                .bump()
                .ok_or_else(|| self.error("unterminated unicode escape"))?;
            let d = c
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit in unicode escape"))?;
            code = code * 16 + d;
        }
        char::from_u32(code).ok_or_else(|| self.error("unicode escape is not a valid code point"))
    }

    /// `LANGTAG`: `@` and a non-empty run of ASCII letters, digits and
    /// `-`, returned without the `@`.
    #[inline]
    pub fn read_langtag(&mut self) -> Result<&'a str, SyntaxError> {
        self.expect(b'@')?;
        let tag = self.take_while(|b| b.is_ascii_alphanumeric() || b == b'-');
        if tag.is_empty() {
            return Err(self.error("empty language tag"));
        }
        Ok(tag)
    }

    /// `INTEGER`, `DECIMAL` or `DOUBLE` with an optional sign, as written,
    /// and which of the three it is. A `.` is a decimal point only before a
    /// digit, so a statement's terminator is never taken. The text may be
    /// empty or a lone sign: the caller decides what that is.
    pub fn read_number(&mut self) -> (&'a str, Numeral) {
        let rest = self.rest();
        let start = self.pos;
        if !self.eat(b'-') {
            self.eat(b'+');
        }
        let mut numeral = Numeral::Integer;
        loop {
            match self.peek_byte() {
                Some(b'0'..=b'9') => {
                    self.take_while(|b| b.is_ascii_digit());
                }
                Some(b'.') if self.peek_byte_at(1).is_some_and(|d| d.is_ascii_digit()) => {
                    if numeral == Numeral::Integer {
                        numeral = Numeral::Decimal;
                    }
                    self.pos += 1;
                }
                Some(b'e' | b'E') => {
                    numeral = Numeral::Double;
                    self.pos += 1;
                    if !self.eat(b'-') {
                        self.eat(b'+');
                    }
                }
                _ => break,
            }
        }
        (&rest[..self.pos - start], numeral)
    }

    /// `PN_PREFIX`, or a keyword: a run of name characters with interior
    /// `.`s, possibly empty. A `.` that does not stand between two name
    /// characters is not taken: it ends a statement.
    pub fn read_name(&mut self) -> &'a str {
        self.read_name_where(|c| name_char(c) || c == '.')
    }

    /// `PN_LOCAL` past the `:` of a prefixed name: [`Cursor::read_name`]
    /// with `%` escapes of `PLX` (taken as they stand).
    pub fn read_local(&mut self) -> &'a str {
        self.read_name_where(|c| name_char(c) || matches!(c, '.' | '%'))
    }

    fn read_name_where(&mut self, take: impl Fn(char) -> bool) -> &'a str {
        if self.peek_byte() == Some(b'.') {
            return "";
        }
        let start = self.pos;
        let name = self.take_chars(take).trim_end_matches('.');
        self.pos = start + name.len();
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(text: &str) -> Result<Term, SyntaxError> {
        let mut cursor = Cursor::new(text);
        let term = cursor.read_term()?;
        match cursor.at_end() {
            true => Ok(term),
            false => Err(cursor.error("trailing text")),
        }
    }

    #[test]
    fn every_echar_and_uchar_decodes() {
        let literal = term(r#""\t\b\n\r\f\"\'\\é\U0001F600""#).unwrap();
        assert_eq!(
            literal.as_literal().unwrap().lexical_form(),
            "\t\u{8}\n\r\u{c}\"'\\é😀"
        );
        let cases = [
            (r#""\q""#, 3, "unknown escape sequence '\\q'"),
            (r#""\u00g0""#, 6, "invalid hex digit in unicode escape"),
            (r#""\uD800""#, 7, "unicode escape is not a valid code point"),
            (r#""ab"#, 3, "unterminated string literal"),
        ];
        for (text, offset, message) in cases {
            let err = term(text).unwrap_err();
            assert_eq!(
                (err.offset, err.message.as_str()),
                (offset, message),
                "{text}"
            );
        }
    }

    #[test]
    fn single_quotes_are_read_by_their_own_quote() {
        let mut cursor = Cursor::new(r#"'it\'s "x"' rest"#);
        assert_eq!(cursor.read_quoted(b'\'').unwrap(), r#"it's "x""#);
        assert_eq!(cursor.rest(), " rest");
        let mut cursor = Cursor::new(r#""plain" rest"#);
        assert!(matches!(
            cursor.read_quoted(b'"'),
            Ok(Cow::Borrowed("plain"))
        ));
    }

    #[test]
    fn names_keep_interior_dots_only() {
        for (text, name, rest) in [
            ("a.b c", "a.b", " c"),
            ("a.b.", "a.b", "."),
            ("Person .", "Person", " ."),
            ("ünï-x_1:y", "ünï-x_1", ":y"),
            ("a..b", "a..b", ""),
            (".x", "", ".x"),
            ("..", "", ".."),
        ] {
            let mut cursor = Cursor::new(text);
            assert_eq!((cursor.read_name(), cursor.rest()), (name, rest), "{text}");
        }
        let mut cursor = Cursor::new("a%20b. ");
        assert_eq!(cursor.read_local(), "a%20b");
    }

    #[test]
    fn blank_labels_are_ascii_and_never_end_in_a_dot() {
        assert_eq!(term("_:a.b"), Ok(BlankNode::new("a.b").into()));
        let mut cursor = Cursor::new("_:b1. ");
        assert_eq!(cursor.read_blank(), Ok(BlankNode::new("b1")));
        assert_eq!(cursor.rest(), ". ");
        for (text, offset) in [("_:é1", 2), ("_:.", 2), ("_:", 2)] {
            let err = term(text).unwrap_err();
            assert_eq!(
                (err.offset, err.message.as_str()),
                (offset, "empty blank node label")
            );
        }
    }

    #[test]
    fn errors_convert_to_lines_and_character_columns() {
        let text = "ab\nüé x";
        let err = SyntaxError {
            offset: text.find('x').unwrap(),
            message: String::new(),
        };
        assert_eq!(err.line_column(text), (2, 4));
        let err = SyntaxError {
            offset: 0,
            message: String::new(),
        };
        assert_eq!(err.line_column(text), (1, 1));
    }
}
