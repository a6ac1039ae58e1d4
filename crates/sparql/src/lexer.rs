//! Tokenizer for the SPARQL subset.

use hbold_rdf_model::text::{Cursor, Numeral, SyntaxError};

use crate::error::SparqlError;

/// A single token with its source position (1-based line/column).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// 1-based line where the token starts.
    pub line: usize,
    /// 1-based column where the token starts.
    pub column: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// A keyword, normalized to upper case (`SELECT`, `WHERE`, `COUNT`, ...).
    Keyword(String),
    /// The `a` shorthand for `rdf:type`.
    A,
    /// A variable, without the leading `?`/`$`.
    Var(String),
    /// An IRI in `<...>` form (the text between the brackets).
    Iri(String),
    /// A prefixed name `prefix:local`.
    PrefixedName(String, String),
    /// A string literal (unescaped value).
    String(String),
    /// A language tag (without `@`), emitted immediately after a string.
    LangTag(String),
    /// `^^`, announcing a datatype IRI after a string.
    DoubleCaret,
    /// An integer literal.
    Integer(i64),
    /// A decimal / double literal.
    Decimal(f64),
    /// Punctuation and operators.
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `,`
    Comma,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// End of input.
    Eof,
}

/// Reserved words recognized as keywords (upper-cased).
const KEYWORDS: &[&str] = &[
    "SELECT",
    "ASK",
    "WHERE",
    "DISTINCT",
    "REDUCED",
    "FILTER",
    "OPTIONAL",
    "UNION",
    "GROUP",
    "BY",
    "ORDER",
    "ASC",
    "DESC",
    "LIMIT",
    "OFFSET",
    "PREFIX",
    "BASE",
    "AS",
    "COUNT",
    "SUM",
    "AVG",
    "MIN",
    "MAX",
    "REGEX",
    "STR",
    "LANG",
    "DATATYPE",
    "BOUND",
    "ISIRI",
    "ISURI",
    "ISLITERAL",
    "ISBLANK",
    "CONTAINS",
    "STRSTARTS",
    "STRENDS",
    "TRUE",
    "FALSE",
    "HAVING",
    "VALUES",
    "IN",
    "NOT",
    "EXISTS",
    "GRAPH",
    "FROM",
    "NAMED",
    "INSERT",
    "DELETE",
    "DATA",
];

/// Tokenizes a SPARQL query string.
pub fn tokenize(input: &str) -> Result<Vec<Token>, SparqlError> {
    Lexer::new(input).run()
}

/// The token loop. It reads bytes through the shared term reader
/// ([`Cursor`]), and counts token lines and columns in characters.
struct Lexer<'a> {
    text: &'a str,
    cursor: Cursor<'a>,
    /// The byte offset that `line` and `column` are the position of.
    seen: usize,
    line: usize,
    column: usize,
    tokens: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            text: input,
            cursor: Cursor::new(input),
            seen: 0,
            line: 1,
            column: 1,
            tokens: Vec::new(),
        }
    }

    fn run(mut self) -> Result<Vec<Token>, SparqlError> {
        loop {
            self.cursor.skip_ws_and_comments();
            let (line, column) = self.position();
            let Some(b) = self.cursor.peek_byte() else {
                self.tokens.push(Token {
                    kind: TokenKind::Eof,
                    line,
                    column,
                });
                return Ok(self.tokens);
            };
            let kind = self.token(b).map_err(|e| {
                let (line, column) = e.line_column(self.text);
                SparqlError::parse(line, column, e.message)
            })?;
            self.tokens.push(Token { kind, line, column });
        }
    }

    /// The line and column of the cursor, counted on from the last
    /// position asked for: every byte is counted once.
    fn position(&mut self) -> (usize, usize) {
        let pos = self.cursor.pos();
        for &b in &self.text.as_bytes()[self.seen..pos] {
            if b == b'\n' {
                self.line += 1;
                self.column = 1;
            } else if b & 0xC0 != 0x80 {
                // Not a UTF-8 continuation byte: a character starts here.
                self.column += 1;
            }
        }
        self.seen = pos;
        (self.line, self.column)
    }

    /// The token starting with byte `b`.
    fn token(&mut self, b: u8) -> Result<TokenKind, SyntaxError> {
        let c = &mut self.cursor;
        let single = match b {
            b'{' => Some(TokenKind::LBrace),
            b'}' => Some(TokenKind::RBrace),
            b'(' => Some(TokenKind::LParen),
            b')' => Some(TokenKind::RParen),
            b'.' => Some(TokenKind::Dot),
            b';' => Some(TokenKind::Semicolon),
            b',' => Some(TokenKind::Comma),
            b'*' => Some(TokenKind::Star),
            b'+' => Some(TokenKind::Plus),
            b'/' => Some(TokenKind::Slash),
            b'=' => Some(TokenKind::Eq),
            _ => None,
        };
        if let Some(kind) = single {
            c.bump();
            return Ok(kind);
        }
        match b {
            b'!' => pair(c, b, b'=', TokenKind::Ne, Some(TokenKind::Bang)),
            b'&' => pair(c, b, b'&', TokenKind::AndAnd, None),
            b'|' => pair(c, b, b'|', TokenKind::OrOr, None),
            b'^' => pair(c, b, b'^', TokenKind::DoubleCaret, None),
            b'>' => pair(c, b, b'=', TokenKind::Ge, Some(TokenKind::Gt)),
            // Either an IRI (`<http://...>`) or a comparison operator.
            b'<' if looks_like_iri(c.rest()) => Ok(TokenKind::Iri(c.read_iri_text()?.to_string())),
            b'<' => pair(c, b, b'=', TokenKind::Le, Some(TokenKind::Lt)),
            b'?' | b'$' => {
                c.bump();
                let name = c.take_chars(|ch| ch.is_alphanumeric() || ch == '_');
                if name.is_empty() {
                    return Err(c.error("empty variable name"));
                }
                Ok(TokenKind::Var(name.to_string()))
            }
            b'"' | b'\'' => Ok(TokenKind::String(c.read_quoted(b)?.into_owned())),
            b'@' => Ok(TokenKind::LangTag(c.read_langtag()?.to_string())),
            b'-' if !c.peek_byte_at(1).is_some_and(|d| d.is_ascii_digit()) => {
                c.bump();
                Ok(TokenKind::Minus)
            }
            b'-' | b'0'..=b'9' => {
                let (text, numeral) = c.read_number();
                match numeral {
                    Numeral::Integer => text
                        .parse::<i64>()
                        .map(TokenKind::Integer)
                        .map_err(|_| c.error("malformed integer literal")),
                    _ => text
                        .parse::<f64>()
                        .map(TokenKind::Decimal)
                        .map_err(|_| c.error("malformed numeric literal")),
                }
            }
            _ => match c.peek() {
                Some(ch) if ch.is_alphabetic() || ch == '_' => self.word(),
                Some(other) => Err(c.error(format!("unexpected character '{other}'"))),
                None => unreachable!("a byte was peeked"),
            },
        }
    }

    /// A bare word: keyword, the `a` shorthand, or a prefixed name.
    fn word(&mut self) -> Result<TokenKind, SyntaxError> {
        let word = self.cursor.read_name();
        if self.cursor.eat(b':') {
            // A prefixed name: word is the prefix, what follows is the local part.
            let local = self.cursor.read_local();
            return Ok(TokenKind::PrefixedName(word.to_string(), local.to_string()));
        }
        if word == "a" {
            return Ok(TokenKind::A);
        }
        let upper = word.to_ascii_uppercase();
        if KEYWORDS.contains(&upper.as_str()) {
            return Ok(TokenKind::Keyword(upper));
        }
        Err(self.cursor.error(format!(
            "unexpected word '{word}' (not a keyword, variable or prefixed name)"
        )))
    }
}

/// The operator `first` `second` (the cursor on `first`), or `alone` for
/// `first` by itself; without `alone` that is an error.
fn pair(
    c: &mut Cursor<'_>,
    first: u8,
    second: u8,
    both: TokenKind,
    alone: Option<TokenKind>,
) -> Result<TokenKind, SyntaxError> {
    c.bump();
    match (c.eat(second), alone) {
        (true, _) => Ok(both),
        (false, Some(alone)) => Ok(alone),
        (false, None) => {
            let both = format!("{}{}", first as char, second as char);
            Err(c.error(format!("expected '{both}'")))
        }
    }
}

/// A guess from lookahead at `text` (from its `<`): an IRI contains no
/// whitespace or `"` before the closing `>`, while a comparison is followed
/// by whitespace, a digit, a `?` variable, etc.
fn looks_like_iri(text: &str) -> bool {
    for c in text[1..].chars().take(4096) {
        if c == '>' {
            return true;
        }
        if c.is_whitespace() || c == '"' {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn tokenizes_select_query() {
        let toks = kinds("SELECT ?s WHERE { ?s a <http://example.org/C> . }");
        assert_eq!(
            toks,
            vec![
                TokenKind::Keyword("SELECT".into()),
                TokenKind::Var("s".into()),
                TokenKind::Keyword("WHERE".into()),
                TokenKind::LBrace,
                TokenKind::Var("s".into()),
                TokenKind::A,
                TokenKind::Iri("http://example.org/C".into()),
                TokenKind::Dot,
                TokenKind::RBrace,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let toks = kinds("select distinct where filter optional");
        assert_eq!(
            toks[..5],
            [
                TokenKind::Keyword("SELECT".into()),
                TokenKind::Keyword("DISTINCT".into()),
                TokenKind::Keyword("WHERE".into()),
                TokenKind::Keyword("FILTER".into()),
                TokenKind::Keyword("OPTIONAL".into()),
            ]
        );
    }

    #[test]
    fn tokenizes_prefixed_names_and_strings() {
        let toks = kinds("?d dcat:accessURL \"x\" ; dc:title \"t\"@en ; ex:n \"5\"^^xsd:integer");
        assert!(toks.contains(&TokenKind::PrefixedName("dcat".into(), "accessURL".into())));
        assert!(toks.contains(&TokenKind::String("x".into())));
        assert!(toks.contains(&TokenKind::LangTag("en".into())));
        assert!(toks.contains(&TokenKind::DoubleCaret));
        assert!(toks.contains(&TokenKind::PrefixedName("xsd".into(), "integer".into())));
    }

    #[test]
    fn prefixed_name_trailing_dot_is_punctuation() {
        let toks = kinds("?s a foaf:Person .");
        assert!(toks.contains(&TokenKind::PrefixedName("foaf".into(), "Person".into())));
        assert!(toks.contains(&TokenKind::Dot));
    }

    #[test]
    fn comparison_operators_vs_iris() {
        let toks = kinds("FILTER(?x < 5 && ?y >= 2 || ?z != <http://e.org/a>)");
        assert!(toks.contains(&TokenKind::Lt));
        assert!(toks.contains(&TokenKind::Ge));
        assert!(toks.contains(&TokenKind::AndAnd));
        assert!(toks.contains(&TokenKind::OrOr));
        assert!(toks.contains(&TokenKind::Ne));
        assert!(toks.contains(&TokenKind::Iri("http://e.org/a".into())));
    }

    #[test]
    fn numbers_and_negatives() {
        let toks = kinds("10 -3 2.5 1e3");
        assert_eq!(
            toks[..4],
            [
                TokenKind::Integer(10),
                TokenKind::Integer(-3),
                TokenKind::Decimal(2.5),
                TokenKind::Decimal(1000.0),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = kinds("SELECT ?s # comment here\nWHERE { }");
        assert_eq!(toks.len(), 6);
    }

    #[test]
    fn single_quoted_strings() {
        let toks = kinds("FILTER(regex(?url, 'sparql'))");
        assert!(toks.contains(&TokenKind::String("sparql".into())));
        assert!(toks.contains(&TokenKind::Keyword("REGEX".into())));
    }

    #[test]
    fn positions_are_tracked() {
        let toks = tokenize("SELECT ?s\nWHERE { }").unwrap();
        let where_tok = toks
            .iter()
            .find(|t| t.kind == TokenKind::Keyword("WHERE".into()))
            .unwrap();
        assert_eq!(where_tok.line, 2);
        assert_eq!(where_tok.column, 1);
    }

    #[test]
    fn errors_on_garbage() {
        assert!(tokenize("SELECT ?s WHERE { ?s ~ ?o }").is_err());
        assert!(tokenize("\"unterminated").is_err());
        assert!(tokenize("& alone").is_err());
        assert!(tokenize("?").is_err());
    }
}
