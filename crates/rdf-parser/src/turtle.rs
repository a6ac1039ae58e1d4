//! A Turtle (subset) parser.
//!
//! Supported syntax:
//!
//! * `@prefix` / SPARQL-style `PREFIX` declarations and `@base` / `BASE`,
//! * IRIs in `<...>` form and prefixed names (`foaf:Person`, and `ex:a.b`
//!   with interior `.`s),
//! * the `a` keyword for `rdf:type`,
//! * predicate lists (`;`) and object lists (`,`),
//! * blank node labels (`_:x`, N-Triples' ASCII alphabet) and anonymous
//!   blank nodes (`[ ... ]`),
//! * `"..."` string literals with every escape of the grammar (`\t \b \n \r
//!   \f \" \' \\ \uXXXX \UXXXXXXXX`), language tags and `^^` datatypes,
//! * numeric (`42`, `-3.14`, `1.2e6`) and boolean (`true`/`false`) shorthand
//!   literals,
//! * `#` comments.
//!
//! Terms are read by the workspace's one term reader,
//! [`hbold_rdf_model::text::Cursor`]; this module is the grammar around it.
//!
//! Not supported (documented subset): collections `( ... )`, single-quoted
//! and triple-quoted long strings, and relative IRI resolution beyond simple
//! concatenation with the base. None of these appear in the documents H-BOLD
//! manipulates.

use std::borrow::Cow;
use std::collections::HashMap;

use hbold_rdf_model::text::{Cursor, Numeral, SyntaxError};
use hbold_rdf_model::vocab::{datatype_iri, rdf, xsd};
use hbold_rdf_model::{BlankNode, Graph, Iri, Literal, Term, Triple};

use crate::error::ParseError;

/// Parses a Turtle document into a [`Graph`].
pub fn parse(input: &str) -> Result<Graph, ParseError> {
    Parser::new(input).parse_document().map_err(|e| {
        let (line, column) = e.line_column(input);
        ParseError::new(line, column, e.message)
    })
}

struct Parser<'a> {
    cursor: Cursor<'a>,
    prefixes: HashMap<String, String>,
    base: Option<String>,
    /// The triples read so far, made a [`Graph`] at the end as N-Triples'
    /// are: one bulk build instead of a tree insert each.
    triples: Vec<Triple>,
    blank_counter: u64,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            cursor: Cursor::new(input),
            prefixes: HashMap::new(),
            base: None,
            triples: Vec::new(),
            blank_counter: 0,
        }
    }

    fn parse_document(mut self) -> Result<Graph, SyntaxError> {
        loop {
            self.cursor.skip_ws_and_comments();
            if self.cursor.at_end() {
                break;
            }
            if self.try_directive()? {
                continue;
            }
            self.parse_statement()?;
        }
        Ok(self.triples.into_iter().collect())
    }

    fn error(&self, message: impl Into<String>) -> SyntaxError {
        self.cursor.error(message)
    }

    /// Consumes a case-insensitive keyword if it is the whole next name
    /// (so `a` doesn't match `abc` or the prefix of `a:x`). Returns whether
    /// it was consumed.
    fn try_keyword(&mut self, keyword: &str) -> bool {
        let mut ahead = self.cursor.clone();
        let found =
            ahead.read_name().eq_ignore_ascii_case(keyword) && ahead.peek_byte() != Some(b':');
        if found {
            self.cursor = ahead;
        }
        found
    }

    // ---- directives -----------------------------------------------------------

    fn try_directive(&mut self) -> Result<bool, SyntaxError> {
        let dotted = self.cursor.eat(b'@');
        if self.try_keyword("prefix") {
            self.parse_prefix_directive(dotted)?;
        } else if self.try_keyword("base") {
            self.parse_base_directive(dotted)?;
        } else if dotted {
            return Err(self.error("unknown @-directive (expected @prefix or @base)"));
        } else {
            return Ok(false);
        }
        Ok(true)
    }

    /// `@prefix name: <iri> .`, or SPARQL-style without `@` and `.`.
    fn parse_prefix_directive(&mut self, dotted: bool) -> Result<(), SyntaxError> {
        self.cursor.skip_ws_and_comments();
        let prefix = self.cursor.read_name();
        self.cursor.expect(b':')?;
        self.cursor.skip_ws_and_comments();
        let iri = self.iri_text()?.into_owned();
        self.prefixes.insert(prefix.to_string(), iri);
        self.end_directive(dotted)
    }

    fn parse_base_directive(&mut self, dotted: bool) -> Result<(), SyntaxError> {
        self.cursor.skip_ws_and_comments();
        self.base = Some(self.iri_text()?.into_owned());
        self.end_directive(dotted)
    }

    fn end_directive(&mut self, dotted: bool) -> Result<(), SyntaxError> {
        if dotted {
            self.cursor.skip_ws_and_comments();
            self.cursor.expect(b'.')?;
        }
        Ok(())
    }

    /// The text of `<...>`, resolved against the base if it is relative.
    fn iri_text(&mut self) -> Result<Cow<'a, str>, SyntaxError> {
        let text = self.cursor.read_iri_text()?;
        match &self.base {
            Some(base) if !text.contains(':') => Ok(Cow::Owned(format!("{base}{text}"))),
            _ => Ok(Cow::Borrowed(text)),
        }
    }

    /// `<...>` as an IRI: read and checked in one scan when there is no
    /// base to resolve against.
    fn parse_iri(&mut self) -> Result<Iri, SyntaxError> {
        if self.base.is_none() {
            return self.cursor.read_iri();
        }
        let text = self.iri_text()?;
        Iri::parse(&text).map_err(|e| self.error(e.to_string()))
    }

    // ---- statements -----------------------------------------------------------

    fn parse_statement(&mut self) -> Result<(), SyntaxError> {
        let subject = self.parse_subject()?;
        self.cursor.skip_ws_and_comments();
        self.parse_predicate_object_list(&subject)?;
        self.cursor.skip_ws_and_comments();
        self.cursor.expect(b'.')
    }

    fn parse_subject(&mut self) -> Result<Term, SyntaxError> {
        match self.cursor.peek_byte() {
            Some(b'<') => Ok(Term::Iri(self.parse_iri()?)),
            Some(b'_') => Ok(Term::Blank(self.cursor.read_blank()?)),
            Some(b'[') => Ok(Term::Blank(self.parse_anonymous_blank()?)),
            Some(_) => Ok(Term::Iri(self.parse_prefixed_name()?)),
            None => Err(self.error("unexpected end of input, expected a subject")),
        }
    }

    fn parse_predicate_object_list(&mut self, subject: &Term) -> Result<(), SyntaxError> {
        loop {
            self.cursor.skip_ws_and_comments();
            let predicate = self.parse_predicate()?;
            loop {
                self.cursor.skip_ws_and_comments();
                let object = self.parse_object()?;
                let triple = Triple::try_new(subject.clone(), predicate.clone(), object)
                    .map_err(|e| self.error(e.to_string()))?;
                self.triples.push(triple);
                self.cursor.skip_ws_and_comments();
                if !self.cursor.eat(b',') {
                    break;
                }
            }
            if !self.cursor.eat(b';') {
                break;
            }
            self.cursor.skip_ws_and_comments();
            // A dangling ';' before '.' or ']' is allowed.
            if matches!(self.cursor.peek_byte(), Some(b'.' | b']')) {
                break;
            }
        }
        Ok(())
    }

    fn parse_predicate(&mut self) -> Result<Iri, SyntaxError> {
        if self.try_keyword("a") {
            return Ok(rdf::type_());
        }
        match self.cursor.peek_byte() {
            Some(b'<') => self.parse_iri(),
            Some(_) => self.parse_prefixed_name(),
            None => Err(self.error("unexpected end of input, expected a predicate")),
        }
    }

    fn parse_object(&mut self) -> Result<Term, SyntaxError> {
        match self.cursor.peek_byte() {
            Some(b'<') => Ok(Term::Iri(self.parse_iri()?)),
            Some(b'_') => Ok(Term::Blank(self.cursor.read_blank()?)),
            Some(b'[') => Ok(Term::Blank(self.parse_anonymous_blank()?)),
            Some(b'"') => Ok(Term::Literal(self.parse_rdf_literal()?)),
            Some(b'0'..=b'9' | b'-' | b'+') => Ok(Term::Literal(self.parse_numeric_literal()?)),
            Some(_) => {
                // Boolean shorthand or a prefixed name.
                if self.try_keyword("true") {
                    return Ok(Term::Literal(Literal::boolean(true)));
                }
                if self.try_keyword("false") {
                    return Ok(Term::Literal(Literal::boolean(false)));
                }
                Ok(Term::Iri(self.parse_prefixed_name()?))
            }
            None => Err(self.error("unexpected end of input, expected an object")),
        }
    }

    /// Parses `[ ... ]`, emitting the contained triples with a fresh blank
    /// node subject, and returns that node.
    fn parse_anonymous_blank(&mut self) -> Result<BlankNode, SyntaxError> {
        self.cursor.expect(b'[')?;
        self.blank_counter += 1;
        let node = BlankNode::new(format!("anon{}", self.blank_counter));
        self.cursor.skip_ws_and_comments();
        if self.cursor.eat(b']') {
            return Ok(node);
        }
        let subject = Term::Blank(node.clone());
        self.parse_predicate_object_list(&subject)?;
        self.cursor.skip_ws_and_comments();
        self.cursor.expect(b']')?;
        Ok(node)
    }

    fn parse_prefixed_name(&mut self) -> Result<Iri, SyntaxError> {
        let prefix = self.cursor.read_name();
        if !self.cursor.eat(b':') {
            return Err(self.error(format!("expected ':' after prefix '{prefix}'")));
        }
        let local = self.cursor.read_local();
        let Some(ns) = self.prefixes.get(prefix) else {
            return Err(self.error(format!("undeclared prefix '{prefix}:'")));
        };
        Iri::new(format!("{ns}{local}")).map_err(|e| self.error(e.to_string()))
    }

    /// `RDFLiteral`: a quoted string and its `@lang` or `^^datatype`,
    /// the datatype an IRI or a prefixed name.
    fn parse_rdf_literal(&mut self) -> Result<Literal, SyntaxError> {
        let lexical = self.cursor.read_quoted(b'"')?;
        match self.cursor.peek_byte() {
            Some(b'@') => Ok(Literal::new_tagged(&lexical, self.cursor.read_langtag()?)),
            Some(b'^') => {
                self.cursor.bump();
                self.cursor.expect(b'^')?;
                let datatype = match self.cursor.peek_byte() {
                    Some(b'<') => {
                        let text = self.iri_text()?;
                        datatype_iri(&text).map_err(|e| self.error(e.to_string()))?
                    }
                    _ => self.parse_prefixed_name()?,
                };
                Ok(Literal::new_typed(&lexical, datatype))
            }
            _ => Ok(Literal::new_simple(&lexical)),
        }
    }

    fn parse_numeric_literal(&mut self) -> Result<Literal, SyntaxError> {
        let (text, numeral) = self.cursor.read_number();
        if matches!(text, "" | "-" | "+") {
            return Err(self.error("malformed numeric literal"));
        }
        let datatype = match numeral {
            Numeral::Integer => xsd::integer(),
            Numeral::Decimal => xsd::decimal(),
            Numeral::Double => xsd::double(),
        };
        Ok(Literal::new_typed(text, datatype))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbold_rdf_model::vocab::foaf;
    use hbold_rdf_model::TriplePattern;

    fn iri(s: &str) -> Iri {
        Iri::new(s).unwrap()
    }

    const PREFIXES: &str =
        "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n@prefix ex: <http://example.org/> .\n";

    #[test]
    fn parses_prefixed_statements_with_lists() {
        let doc = format!(
            "{PREFIXES}ex:alice a foaf:Person ;\n    foaf:name \"Alice\" , \"Alicia\"@es ;\n    foaf:knows ex:bob .\n"
        );
        let g = parse(&doc).unwrap();
        assert_eq!(g.len(), 4);
        assert!(g.contains(&Triple::new(
            iri("http://example.org/alice"),
            rdf::type_(),
            foaf::person()
        )));
        assert!(g.contains(&Triple::new(
            iri("http://example.org/alice"),
            foaf::name(),
            Literal::lang_string("Alicia", "es")
        )));
    }

    #[test]
    fn parses_sparql_style_prefix_and_base() {
        let doc = "PREFIX ex: <http://example.org/>\nBASE <http://base.org/>\nex:a ex:p </rel> .";
        let g = parse(doc).unwrap();
        let t = g.iter().next().unwrap();
        assert_eq!(t.object, Term::Iri(iri("http://base.org//rel")));
    }

    #[test]
    fn parses_numeric_and_boolean_literals() {
        let doc = format!(
            "{PREFIXES}ex:x ex:int 42 ; ex:neg -7 ; ex:dec 3.14 ; ex:exp 1.5e3 ; ex:flag true ; ex:off false .\n"
        );
        let g = parse(&doc).unwrap();
        assert_eq!(g.len(), 6);
        let objects: Vec<Literal> = g
            .iter()
            .filter_map(|t| t.object.as_literal().cloned())
            .collect();
        assert!(objects.contains(&Literal::typed("42", xsd::integer())));
        assert!(objects.contains(&Literal::typed("-7", xsd::integer())));
        assert!(objects.contains(&Literal::typed("3.14", xsd::decimal())));
        assert!(objects.contains(&Literal::typed("1.5e3", xsd::double())));
        assert!(objects.contains(&Literal::boolean(true)));
        assert!(objects.contains(&Literal::boolean(false)));
    }

    #[test]
    fn parses_typed_literals_with_prefixed_datatype() {
        let doc = "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n@prefix ex: <http://example.org/> .\nex:x ex:when \"2020-03-30T00:00:00Z\"^^xsd:dateTime .";
        let g = parse(doc).unwrap();
        let t = g.iter().next().unwrap();
        assert_eq!(t.object.as_literal().unwrap().datatype(), &xsd::date_time());
    }

    #[test]
    fn parses_anonymous_blank_nodes() {
        let doc =
            format!("{PREFIXES}ex:alice foaf:knows [ a foaf:Person ; foaf:name \"Bob\" ] .\n");
        let g = parse(&doc).unwrap();
        assert_eq!(g.len(), 3);
        // The anonymous node is the object of foaf:knows and the subject of two triples.
        let knows: Vec<_> = g
            .matching(&TriplePattern::any().with_predicate(foaf::knows()))
            .collect();
        assert_eq!(knows.len(), 1);
        let anon = knows[0].object.clone();
        assert!(anon.is_blank());
        assert_eq!(
            g.matching(&TriplePattern::any().with_subject(anon)).count(),
            2
        );
    }

    #[test]
    fn parses_empty_anonymous_blank_node() {
        let doc = format!("{PREFIXES}ex:alice foaf:knows [] .\n");
        let g = parse(&doc).unwrap();
        assert_eq!(g.len(), 1);
        assert!(g.iter().next().unwrap().object.is_blank());
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let doc = format!("{PREFIXES}# a comment\nex:a ex:p ex:b . # trailing comment\n\n# done\n");
        let g = parse(&doc).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn a_keyword_does_not_swallow_prefixed_names() {
        let doc = "@prefix a: <http://example.org/a#> .\na:thing a:prop a:other .";
        let g = parse(doc).unwrap();
        let t = g.iter().next().unwrap();
        assert_eq!(t.predicate, Term::Iri(iri("http://example.org/a#prop")));
    }

    #[test]
    fn errors_carry_positions_and_reasons() {
        let err = parse("@prefix ex: <http://example.org/> .\nex:a ex:p unknown:x .").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.message().contains("undeclared prefix"));

        let err =
            parse("@prefix ex: <http://example.org/> .\nex:a ex:p \"unterminated .").unwrap_err();
        assert!(err.message().contains("unterminated"));

        let err = parse("@wibble foo .").unwrap_err();
        assert!(err.message().contains("unknown @-directive"));

        assert!(
            parse("@prefix ex: <http://example.org/> .\nex:a ex:p ex:b").is_err(),
            "missing final dot"
        );
    }

    #[test]
    fn dangling_semicolon_is_accepted() {
        let doc = format!("{PREFIXES}ex:a foaf:name \"A\" ; .\n");
        let g = parse(&doc).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn ntriples_documents_are_valid_turtle() {
        let doc = "<http://e.org/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://xmlns.com/foaf/0.1/Person> .";
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 1);
    }
}
