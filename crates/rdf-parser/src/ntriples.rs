//! N-Triples parsing and serialization.
//!
//! N-Triples is the line-oriented RDF syntax: one triple per line, terms in
//! their fully expanded form, a `.` terminator. It is the exchange format
//! used between the synthetic dataset generators, the simulated endpoints
//! and the test suite because it round-trips exactly.
//!
//! A dump is read by [`Reader`], one line at a time from any [`BufRead`], so
//! a loader can consume its triples as they are parsed without holding the
//! file or a [`Graph`] of it; [`parse`] is that reader collected.

use std::io::BufRead;

use hbold_rdf_model::text::{Cursor, SyntaxError};
use hbold_rdf_model::{Graph, Triple};

use crate::error::ParseError;

/// Parses an N-Triples document into a [`Graph`].
///
/// Empty lines and `#` comment lines are ignored. Errors carry the position
/// of the offending character.
pub fn parse(input: &str) -> Result<Graph, ParseError> {
    Reader::new(input.as_bytes()).collect()
}

/// A streaming N-Triples reader: yields the triples of `input` in file
/// order, one line at a time through one reused line buffer.
///
/// Lines end at `\n` (a `\r` before it is trimmed with the other
/// whitespace); empty lines and `#` comment lines are skipped. A malformed
/// line yields a [`ParseError`] with its 1-based line and column — the same
/// error [`parse`] returns — and reading may go on with the next line. A line
/// that is not UTF-8 is an error at the column of its first bad byte. An I/O
/// error of `input` is an error at the line being read, and ends the
/// iteration.
#[derive(Debug)]
pub struct Reader<R> {
    input: R,
    line: Vec<u8>,
    line_no: usize,
    failed: bool,
}

impl<R: BufRead> Reader<R> {
    /// A reader over `input`, positioned before its first line.
    pub fn new(input: R) -> Self {
        Reader {
            input,
            line: Vec::new(),
            line_no: 0,
            failed: false,
        }
    }
}

impl<R: BufRead> Iterator for Reader<R> {
    type Item = Result<Triple, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.failed {
            self.line.clear();
            match self.input.read_until(b'\n', &mut self.line) {
                Ok(0) => return None,
                Ok(_) => self.line_no += 1,
                Err(e) => {
                    self.failed = true;
                    let message = format!("cannot read the input: {e}");
                    return Some(Err(ParseError::new(self.line_no + 1, 1, message)));
                }
            }
            let line = match std::str::from_utf8(&self.line) {
                Ok(text) => text.trim(),
                Err(e) => {
                    let valid = &self.line[..e.valid_up_to()];
                    let column = String::from_utf8_lossy(valid).chars().count() + 1;
                    return Some(Err(ParseError::new(self.line_no, column, "invalid UTF-8")));
                }
            };
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            return Some(parse_line(line, self.line_no));
        }
        None
    }
}

/// Parses a single N-Triples statement (without trailing newline).
pub fn parse_line(line: &str, line_no: usize) -> Result<Triple, ParseError> {
    let mut cursor = Cursor::new(line);
    let at = |e: SyntaxError| ParseError::new(line_no, e.line_column(line).1, e.message);
    cursor.skip_ws();
    let subject = cursor.read_term().map_err(at)?;
    cursor.skip_ws();
    let predicate = cursor.read_term().map_err(at)?;
    cursor.skip_ws();
    let object = cursor.read_term().map_err(at)?;
    cursor.skip_ws();
    cursor.expect(b'.').map_err(at)?;
    cursor.skip_ws();
    if !cursor.at_end() {
        return Err(at(cursor.error("trailing content after '.'")));
    }
    Triple::try_new(subject, predicate, object)
        .map_err(|e| ParseError::new(line_no, 1, e.to_string()))
}

/// Serializes a [`Graph`] as N-Triples text (deterministic order).
pub fn write(graph: &Graph) -> String {
    graph.to_ntriples()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbold_rdf_model::vocab::{foaf, rdf, xsd};
    use hbold_rdf_model::{BlankNode, Iri, Literal, Term};

    fn iri(s: &str) -> Iri {
        Iri::new(s).unwrap()
    }

    #[test]
    fn parses_plain_triples() {
        let doc = "\
# a comment line
<http://e.org/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://xmlns.com/foaf/0.1/Person> .

<http://e.org/alice> <http://xmlns.com/foaf/0.1/name> \"Alice\" .
";
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 2);
        assert!(g.contains(&Triple::new(
            iri("http://e.org/alice"),
            rdf::type_(),
            foaf::person()
        )));
        assert!(g.contains(&Triple::new(
            iri("http://e.org/alice"),
            foaf::name(),
            Literal::string("Alice")
        )));
    }

    #[test]
    fn parses_typed_and_language_literals() {
        let doc = concat!(
            "<http://e.org/x> <http://e.org/age> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
            "<http://e.org/x> <http://e.org/label> \"ciao\"@IT .\n",
        );
        let g = parse(doc).unwrap();
        let triples: Vec<_> = g.iter().cloned().collect();
        assert!(triples.contains(&Triple::new(
            iri("http://e.org/x"),
            iri("http://e.org/age"),
            Literal::typed("42", xsd::integer())
        )));
        assert!(triples.contains(&Triple::new(
            iri("http://e.org/x"),
            iri("http://e.org/label"),
            Literal::lang_string("ciao", "it")
        )));
    }

    #[test]
    fn parses_blank_nodes() {
        let doc = "_:a <http://e.org/knows> _:b .\n";
        let g = parse(doc).unwrap();
        let t = g.iter().next().unwrap();
        assert_eq!(t.subject, Term::from(BlankNode::new("a")));
        assert_eq!(t.object, Term::from(BlankNode::new("b")));
    }

    #[test]
    fn parses_escapes_in_literals() {
        let doc = r#"<http://e.org/x> <http://e.org/p> "line\nbreak \"quote\" tab\t\\ uA" ."#;
        let g = parse(doc).unwrap();
        let t = g.iter().next().unwrap();
        let lit = t.object.as_literal().unwrap();
        assert_eq!(lit.lexical_form(), "line\nbreak \"quote\" tab\t\\ uA");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(
            parse("<http://e.org/a> <http://e.org/p> .").is_err(),
            "missing object"
        );
        assert!(
            parse("<http://e.org/a> <http://e.org/p> \"x\"").is_err(),
            "missing dot"
        );
        assert!(
            parse("<http://e.org/a> <http://e.org/p> \"x\" . extra").is_err(),
            "trailing content"
        );
        assert!(
            parse("<http://e.org/a> <http://e.org/p> <unclosed .").is_err(),
            "unterminated IRI"
        );
        assert!(
            parse("\"lit\" <http://e.org/p> \"x\" .").is_err(),
            "literal subject"
        );
        let err = parse("<http://e.org/a> <http://e.org/p> \"unterminated .").unwrap_err();
        assert_eq!(err.line(), 1);
    }

    /// The line-splitting reference the reader must agree with: `str::lines`
    /// (which also drops a `\r` before each `\n`), trimmed, blank and `#`
    /// lines skipped, every other line through `parse_line`.
    fn by_lines(input: &str) -> Vec<Result<Triple, ParseError>> {
        input
            .lines()
            .enumerate()
            .map(|(i, line)| (i + 1, line.trim()))
            .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
            .map(|(line_no, line)| parse_line(line, line_no))
            .collect()
    }

    /// The reader over a 7-byte buffer, so lines straddle refills.
    fn streamed(input: &[u8]) -> Vec<Result<Triple, ParseError>> {
        Reader::new(std::io::BufReader::with_capacity(7, input)).collect()
    }

    #[test]
    fn the_reader_agrees_with_line_splitting_on_every_layout() {
        let docs = [
            // CRLF line ends, a comment and blank lines between triples.
            "<http://e.org/a> <http://e.org/p> \"x\" .\r\n# note\r\n\r\n<http://e.org/b> <http://e.org/p> _:n .\r\n",
            // No newline after the last triple; indented comment; spaces-only line.
            "  # indented\n   \n<http://e.org/a> <http://e.org/p> <http://e.org/o> .",
            // Escapes and a non-ASCII lexical form.
            "<http://e.org/a> <http://e.org/p> \"t\\tq\\\"\\u00e9\\U0001F600 ł\"@en .\n",
            // A malformed third line between good ones.
            "<http://e.org/a> <http://e.org/p> \"1\" .\n\n<http://e.org/a> <http://e.org/p> .\n<http://e.org/a> <http://e.org/p> \"2\" .\n",
            "",
        ];
        for doc in docs {
            let expected = by_lines(doc);
            assert_eq!(streamed(doc.as_bytes()), expected, "{doc:?}");
            let first_error = expected.iter().find_map(|r| r.as_ref().err().cloned());
            match (parse(doc), first_error) {
                (Ok(graph), None) => {
                    let triples: Graph = expected.into_iter().map(Result::unwrap).collect();
                    assert_eq!(graph, triples);
                }
                (Err(e), Some(first)) => assert_eq!(e, first),
                (got, want) => panic!("{doc:?}: parse gave {got:?}, expected error {want:?}"),
            }
        }
        let err = parse("# header\n\n<http://e.org/a> <http://e.org/p> .\n").unwrap_err();
        assert_eq!((err.line(), err.column()), (3, 35));
    }

    #[test]
    fn invalid_utf8_is_an_error_at_its_line_not_a_panic() {
        let mut doc = b"<http://e.org/a> <http://e.org/p> \"ok\" .\n".to_vec();
        doc.extend_from_slice(b"<http://e.org/a> <http://e.org/p> \"\xC3\xA9\xFF\" .\n");
        doc.extend_from_slice(b"<http://e.org/b> <http://e.org/p> \"ok\" .\n");
        let results = streamed(&doc);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok() && results[2].is_ok());
        let err = results[1].as_ref().unwrap_err();
        assert_eq!((err.line(), err.column()), (2, 37));
        assert!(err.message().contains("UTF-8"), "{err}");
    }

    #[test]
    fn the_byte_cursor_reads_unicode_as_the_char_cursor_did() {
        let (a, p) = (iri("http://e.org/a"), iri("http://e.org/p"));
        // Unicode whitespace between the terms and before the '.'.
        for ws in ['\u{a0}', '\u{85}', '\u{2003}', '\u{3000}'] {
            let line = format!("{ws}<http://e.org/a>{ws}<http://e.org/p>{ws}\"x\"{ws}.{ws}");
            let expected = Triple::new(a.clone(), p.clone(), Literal::string("x"));
            assert_eq!(parse_line(&line, 1), Ok(expected), "{line:?}");
            let line = format!("_:b{ws}<http://e.org/p>{ws}\"x\"@en{ws}.");
            let expected = Triple::new(
                BlankNode::new("b"),
                p.clone(),
                Literal::lang_string("x", "en"),
            );
            assert_eq!(parse_line(&line, 1), Ok(expected), "{line:?}");
        }
        // Multi-byte characters directly before '>' and '"'.
        let line = "<http://e.org/é> <http://e.org/p😀> \"ü\"^^<http://e.org/dé> .";
        let expected = Triple::new(
            iri("http://e.org/é"),
            iri("http://e.org/p😀"),
            Literal::typed("ü", iri("http://e.org/dé")),
        );
        assert_eq!(parse_line(line, 1), Ok(expected));
        let line = "<http://e.org/a> <http://e.org/p> \"中\"@en .";
        let expected = Triple::new(a.clone(), p.clone(), Literal::lang_string("中", "en"));
        assert_eq!(parse_line(line, 1), Ok(expected));
        // Errors: a non-ASCII character ends a blank label or a language tag,
        // and columns after multi-byte text count characters, not bytes.
        let pins = [
            (
                "_:abé <http://e.org/p> \"x\" .",
                5,
                "unexpected character 'é' at start of term",
            ),
            (
                "<http://e.org/a> <http://e.org/p> \"x\"@enü .",
                42,
                "expected '.', found 'ü'",
            ),
            (
                "<http://é.org/ä> <http://e.org/p> .",
                35,
                "unexpected character '.' at start of term",
            ),
            (
                "<http://é.org/ä> <http://e.org/p> \"ü\\q\" .",
                39,
                "unknown escape sequence '\\q'",
            ),
            (
                "<http://é.org/ä> <http://e.org/p> <x:ü\u{a0}> .",
                41,
                "invalid IRI `x:ü\u{a0}`: contains a character not allowed in IRIREF",
            ),
        ];
        for (line, column, message) in pins {
            let err = parse_line(line, 3).unwrap_err();
            assert_eq!(
                (err.line(), err.column(), err.message()),
                (3, column, message),
                "{line:?}"
            );
        }
    }

    #[test]
    fn round_trip_write_then_parse() {
        let mut g = Graph::new();
        g.insert(Triple::new(
            iri("http://e.org/a"),
            rdf::type_(),
            foaf::person(),
        ));
        g.insert(Triple::new(
            iri("http://e.org/a"),
            foaf::name(),
            Literal::lang_string("Ałice\n\"x\"", "en"),
        ));
        g.insert(Triple::new(
            BlankNode::new("n1"),
            foaf::knows(),
            iri("http://e.org/a"),
        ));
        g.insert(Triple::new(
            iri("http://e.org/a"),
            iri("http://e.org/score"),
            Literal::typed("3.14", xsd::double()),
        ));
        let text = write(&g);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, g);
    }
}
