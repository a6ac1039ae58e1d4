//! One reader for term text: N-Triples, Turtle, SPARQL and SPARQL TSV read
//! IRIs, blank nodes and literals through `hbold_rdf_model::text::Cursor`,
//! so a term text means the same term — or the same refusal — in each of
//! them. Each row of the table below goes through every reader whose
//! grammar has its production.

use hbold_rdf_model::vocab::xsd;
use hbold_rdf_model::{BlankNode, Graph, Iri, Literal, Term, Triple};
use hbold_rdf_parser::{ntriples, parse_ntriples, parse_turtle, write_ntriples};
use hbold_sparql::ast::{GraphPattern, TermOrVariable};
use hbold_sparql::{parse_query, SelectResults};

const S: &str = "<http://e.org/s>";
const P: &str = "<http://e.org/p>";

/// A term text as the object of an N-Triples line.
fn ntriples_reader(term: &str) -> Result<Term, String> {
    let line = format!("{S} {P} {term} .");
    ntriples::parse_line(&line, 1)
        .map(|t| t.object)
        .map_err(|e| e.to_string())
}

/// A term text as the object of the one statement of a Turtle document.
fn turtle_reader(term: &str) -> Result<Term, String> {
    let doc = format!("@prefix ex: <http://e.org/> .\n{S} {P} {term} .\n");
    let graph = parse_turtle(&doc).map_err(|e| e.to_string())?;
    let objects: Vec<Term> = graph.iter().map(|t| t.object.clone()).collect();
    assert_eq!(objects.len(), 1, "{doc}");
    Ok(objects[0].clone())
}

/// A term text as a constant of a SPARQL query: `SELECT * { <s> <p> TERM }`.
fn sparql_reader(term: &str) -> Result<Term, String> {
    let query = format!("PREFIX ex: <http://e.org/>\nSELECT * {{ {S} {P} {term} }}");
    let query = parse_query(&query).map_err(|e| e.to_string())?;
    match query.pattern {
        GraphPattern::Bgp(patterns) => match &patterns[..] {
            [pattern] => match &pattern.object {
                TermOrVariable::Term(term) => Ok(term.clone()),
                other => panic!("object is not a constant: {other:?}"),
            },
            other => panic!("not one triple pattern: {other:?}"),
        },
        other => panic!("not a basic graph pattern: {other:?}"),
    }
}

/// A term text as the one cell of a SPARQL TSV document.
fn tsv_reader(term: &str) -> Result<Term, String> {
    let table = SelectResults::from_tsv(&format!("?o\n{term}\n")).map_err(|e| e.to_string())?;
    Ok(table.rows[0][0].clone().expect("the cell is bound"))
}

type Reader = (&'static str, fn(&str) -> Result<Term, String>);

const NTRIPLES: Reader = ("N-Triples", ntriples_reader);
const TURTLE: Reader = ("Turtle", turtle_reader);
const SPARQL: Reader = ("SPARQL", sparql_reader);
const TSV: Reader = ("TSV", tsv_reader);

/// Every reader: IRIs and literals are in all four grammars.
const ALL: &[Reader] = &[NTRIPLES, TURTLE, SPARQL, TSV];
/// Blank node labels: not in this SPARQL subset, where `_:` is no term.
const BLANK: &[Reader] = &[NTRIPLES, TURTLE, TSV];
/// Prefixed names: not in N-Triples nor TSV.
const PREFIXED: &[Reader] = &[TURTLE, SPARQL];

fn simple(lexical: &str) -> Option<Term> {
    Some(Literal::string(lexical).into())
}

#[test]
fn every_reader_reads_a_term_text_as_the_same_term() {
    let rows: Vec<(&str, &[Reader], Option<Term>)> = vec![
        // ECHAR, each of them.
        (r#""a\tb""#, ALL, simple("a\tb")),
        (r#""a\bb""#, ALL, simple("a\u{8}b")),
        (r#""a\nb""#, ALL, simple("a\nb")),
        (r#""a\rb""#, ALL, simple("a\rb")),
        (r#""a\fb""#, ALL, simple("a\u{c}b")),
        (r#""a\"b""#, ALL, simple("a\"b")),
        (r#""a\'b""#, ALL, simple("a'b")),
        (r#""a\\b""#, ALL, simple("a\\b")),
        // UCHAR, both forms.
        (r#""\u00e9""#, ALL, simple("é")),
        (r#""\U0001F600x""#, ALL, simple("😀x")),
        // Not an escape anywhere.
        (r#""\q""#, ALL, None),
        (
            r#""x"@EN-GB"#,
            ALL,
            Some(Literal::lang_string("x", "en-gb").into()),
        ),
        (
            r#""5"^^<http://www.w3.org/2001/XMLSchema#integer>"#,
            ALL,
            Some(Literal::typed("5", xsd::integer()).into()),
        ),
        (
            "<http://e.org/straße/é>",
            ALL,
            Some(Iri::new("http://e.org/straße/é").unwrap().into()),
        ),
        ("\"ü 東京\"", ALL, simple("ü 東京")),
        ("_:b1", BLANK, Some(BlankNode::new("b1").into())),
        // A label of N-Triples' ASCII alphabet only: no reader merges
        // `_:é1` with `_:ü1` as `_:_1`.
        ("_:é1", BLANK, None),
        (
            "ex:a.b",
            PREFIXED,
            Some(Iri::new("http://e.org/a.b").unwrap().into()),
        ),
    ];
    for (text, readers, expected) in rows {
        for (name, read) in readers {
            let got = read(text);
            match &expected {
                Some(term) => assert_eq!(got.as_ref(), Ok(term), "{name} reading {text}"),
                None => assert!(got.is_err(), "{name} reading {text} gave {got:?}"),
            }
        }
    }
}

#[test]
fn a_blank_label_the_writer_emits_every_reader_reads_back() {
    let o = Iri::new("http://e.org/o").unwrap();
    let p = Iri::new("http://e.org/p").unwrap();
    for (label, kept) in [("b.", "b_"), ("a.b", "a.b"), (".", "_"), ("b..", "b._")] {
        let node = BlankNode::from_label(label);
        assert_eq!(node.label(), kept);
        let graph: Graph = [
            Triple::new(node.clone(), p.clone(), o.clone()),
            Triple::new(o.clone(), p.clone(), node.clone()),
        ]
        .into_iter()
        .collect();
        let text = write_ntriples(&graph);
        assert_eq!(parse_ntriples(&text).as_ref(), Ok(&graph), "{text}");
        assert_eq!(parse_turtle(&text).as_ref(), Ok(&graph), "{text}");
        let table = SelectResults {
            variables: vec!["b".into()],
            rows: vec![vec![Some(node.into())]],
        };
        assert_eq!(SelectResults::from_tsv(&table.to_tsv()), Ok(table));
    }
}
