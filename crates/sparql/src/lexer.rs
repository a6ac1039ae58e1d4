//! Tokenizer for the SPARQL subset.

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

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    column: usize,
    tokens: Vec<Token>,
}

impl Lexer {
    fn new(input: &str) -> Self {
        Lexer {
            chars: input.chars().collect(),
            pos: 0,
            line: 1,
            column: 1,
            tokens: Vec::new(),
        }
    }

    fn run(mut self) -> Result<Vec<Token>, SparqlError> {
        loop {
            self.skip_ws_and_comments();
            let (line, column) = (self.line, self.column);
            let Some(c) = self.peek() else {
                self.push_at(TokenKind::Eof, line, column);
                break;
            };
            let kind = match c {
                '{' => self.single(TokenKind::LBrace),
                '}' => self.single(TokenKind::RBrace),
                '(' => self.single(TokenKind::LParen),
                ')' => self.single(TokenKind::RParen),
                '.' => self.single(TokenKind::Dot),
                ';' => self.single(TokenKind::Semicolon),
                ',' => self.single(TokenKind::Comma),
                '*' => self.single(TokenKind::Star),
                '+' => self.single(TokenKind::Plus),
                '/' => self.single(TokenKind::Slash),
                '=' => self.single(TokenKind::Eq),
                '!' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        TokenKind::Ne
                    } else {
                        TokenKind::Bang
                    }
                }
                '&' => {
                    self.bump();
                    if self.peek() == Some('&') {
                        self.bump();
                        TokenKind::AndAnd
                    } else {
                        return Err(self.error("expected '&&'"));
                    }
                }
                '|' => {
                    self.bump();
                    if self.peek() == Some('|') {
                        self.bump();
                        TokenKind::OrOr
                    } else {
                        return Err(self.error("expected '||'"));
                    }
                }
                '<' => {
                    // Either an IRI (`<http://...>`) or a comparison operator.
                    if self.looks_like_iri() {
                        self.lex_iri()?
                    } else {
                        self.bump();
                        if self.peek() == Some('=') {
                            self.bump();
                            TokenKind::Le
                        } else {
                            TokenKind::Lt
                        }
                    }
                }
                '>' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        TokenKind::Ge
                    } else {
                        TokenKind::Gt
                    }
                }
                '?' | '$' => {
                    self.bump();
                    let name = self.lex_name();
                    if name.is_empty() {
                        return Err(self.error("empty variable name"));
                    }
                    TokenKind::Var(name)
                }
                '"' | '\'' => self.lex_string(c)?,
                '^' => {
                    self.bump();
                    if self.peek() == Some('^') {
                        self.bump();
                        TokenKind::DoubleCaret
                    } else {
                        return Err(self.error("expected '^^'"));
                    }
                }
                '@' => {
                    self.bump();
                    let mut tag = String::new();
                    while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '-') {
                        tag.push(self.bump().unwrap());
                    }
                    if tag.is_empty() {
                        return Err(self.error("empty language tag"));
                    }
                    TokenKind::LangTag(tag)
                }
                '-' => {
                    self.bump();
                    if matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                        self.lex_number(true)?
                    } else {
                        TokenKind::Minus
                    }
                }
                c if c.is_ascii_digit() => self.lex_number(false)?,
                c if c.is_alphabetic() || c == '_' => self.lex_word()?,
                other => return Err(self.error(format!("unexpected character '{other}'"))),
            };
            self.push_at(kind, line, column);
        }
        Ok(self.tokens)
    }

    fn push_at(&mut self, kind: TokenKind, line: usize, column: usize) {
        self.tokens.push(Token { kind, line, column });
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<char> {
        self.chars.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
                self.column = 1;
            } else {
                self.column += 1;
            }
        }
        c
    }

    fn single(&mut self, kind: TokenKind) -> TokenKind {
        self.bump();
        kind
    }

    fn error(&self, message: impl Into<String>) -> SparqlError {
        SparqlError::parse(self.line, self.column, message)
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    /// A guess from lookahead: after `<`, an IRI contains no whitespace
    /// before the closing `>` and at least one `:` or the empty string (for
    /// `<>`), while a comparison is followed by whitespace, a digit, a `?`
    /// variable, etc.
    fn looks_like_iri(&self) -> bool {
        let mut offset = 1;
        while let Some(c) = self.peek_at(offset) {
            if c == '>' {
                return true;
            }
            if c.is_whitespace() || c == '"' {
                return false;
            }
            offset += 1;
            if offset > 4096 {
                return false;
            }
        }
        false
    }

    fn lex_iri(&mut self) -> Result<TokenKind, SparqlError> {
        self.bump(); // consume '<'
        let mut text = String::new();
        loop {
            match self.bump() {
                Some('>') => break,
                Some(c) => text.push(c),
                None => return Err(self.error("unterminated IRI")),
            }
        }
        Ok(TokenKind::Iri(text))
    }

    fn lex_name(&mut self) -> String {
        let mut name = String::new();
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '_') {
            name.push(self.bump().unwrap());
        }
        name
    }

    fn lex_string(&mut self, quote: char) -> Result<TokenKind, SparqlError> {
        self.bump(); // opening quote
        let mut value = String::new();
        loop {
            match self.bump() {
                Some(c) if c == quote => break,
                Some('\\') => match self.bump() {
                    Some('n') => value.push('\n'),
                    Some('r') => value.push('\r'),
                    Some('t') => value.push('\t'),
                    Some('"') => value.push('"'),
                    Some('\'') => value.push('\''),
                    Some('\\') => value.push('\\'),
                    Some(c) => {
                        return Err(self.error(format!("unknown escape sequence '\\{c}'")));
                    }
                    None => return Err(self.error("unterminated escape sequence")),
                },
                Some(c) => value.push(c),
                None => return Err(self.error("unterminated string literal")),
            }
        }
        Ok(TokenKind::String(value))
    }

    fn lex_number(&mut self, negative: bool) -> Result<TokenKind, SparqlError> {
        let mut text = String::new();
        if negative {
            text.push('-');
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' => text.push(self.bump().unwrap()),
                '.' => {
                    if matches!(self.peek_at(1), Some(d) if d.is_ascii_digit()) {
                        is_float = true;
                        text.push(self.bump().unwrap());
                    } else {
                        break;
                    }
                }
                'e' | 'E' => {
                    is_float = true;
                    text.push(self.bump().unwrap());
                    if matches!(self.peek(), Some('+') | Some('-')) {
                        text.push(self.bump().unwrap());
                    }
                }
                _ => break,
            }
        }
        if is_float {
            text.parse::<f64>()
                .map(TokenKind::Decimal)
                .map_err(|_| self.error("malformed numeric literal"))
        } else {
            text.parse::<i64>()
                .map(TokenKind::Integer)
                .map_err(|_| self.error("malformed integer literal"))
        }
    }

    /// A bare word: keyword, the `a` shorthand, or a prefixed name.
    fn lex_word(&mut self) -> Result<TokenKind, SparqlError> {
        let mut word = String::new();
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '_' || c == '-') {
            word.push(self.bump().unwrap());
        }
        if self.peek() == Some(':') {
            // A prefixed name: word is the prefix, what follows is the local part.
            self.bump();
            let mut local = String::new();
            loop {
                let Some(c) = self.peek() else { break };
                let is_name_char = c.is_alphanumeric()
                    || c == '_'
                    || c == '-'
                    || c == '%'
                    // A '.' continues the name only when followed by another
                    // name character; a trailing '.' is statement punctuation.
                    || (c == '.' && !c_is_final_dot(&self.chars, self.pos));
                if !is_name_char {
                    break;
                }
                local.push(self.bump().unwrap());
            }
            return Ok(TokenKind::PrefixedName(word, local));
        }
        if word == "a" {
            return Ok(TokenKind::A);
        }
        let upper = word.to_ascii_uppercase();
        if KEYWORDS.contains(&upper.as_str()) {
            return Ok(TokenKind::Keyword(upper));
        }
        Err(self.error(format!(
            "unexpected word '{word}' (not a keyword, variable or prefixed name)"
        )))
    }
}

/// Returns `true` if the character at `pos` is a '.' not followed by a name
/// character (i.e. it terminates the triple rather than continuing a name).
fn c_is_final_dot(chars: &[char], pos: usize) -> bool {
    chars.get(pos) == Some(&'.')
        && !matches!(chars.get(pos + 1), Some(c) if c.is_alphanumeric() || *c == '_')
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
