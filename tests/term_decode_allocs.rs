//! Terms decode with one copy, pinned without a clock: a counting global
//! allocator around the decoders that build terms from text — the SPARQL
//! results JSON reader, the N-Triples parser and the snapshot / write-ahead
//! log term codec — and around the JSON string escaper. Each text is copied once, from the document into the
//! term's shared buffer, and a literal of a well-known datatype shares the
//! vocabulary's IRI: one allocation per IRI, blank node, plain or typed
//! literal (a language-tagged one has its tag to copy too), and a results
//! column builds a term that repeats in it only once. Through
//! `impl Into<String>` constructors each of them cost a `String` and then
//! the `Arc` copied from it.

mod common;

use hbold_rdf_model::vocab::xsd;
use hbold_rdf_model::{BlankNode, Graph, Iri, Literal, Term, Triple};
use hbold_sparql::QueryResults;
use hbold_triple_store::persist::{codec, snapshot};
use hbold_triple_store::TripleStore;

use common::counted;

/// `n` triples whose objects cycle through a plain, an integer and a
/// `xsd:date` literal.
fn triples(n: usize) -> Vec<Triple> {
    (0..n)
        .map(|i| {
            let object = match i % 3 {
                0 => Literal::string(format!("name {i}")),
                1 => Literal::integer(i as i64),
                _ => Literal::typed(format!("2020-01-{:02}", i % 28 + 1), xsd::date()),
            };
            Triple::new(
                Iri::new(format!("http://alloc.example/s{i}")).unwrap(),
                Iri::new(format!("http://alloc.example/p{}", i % 4)).unwrap(),
                object,
            )
        })
        .collect()
}

#[test]
fn one_allocation_per_term_read_back_from_a_log_record() {
    let terms: Vec<(Term, usize)> = vec![
        (Iri::new("http://alloc.example/a").unwrap().into(), 1),
        (BlankNode::new("b7").into(), 1),
        (Literal::string("plain").into(), 1),
        (Literal::integer(42).into(), 1),
        (
            Literal::typed("x", Iri::new("http://alloc.example/dt").unwrap()).into(),
            2,
        ),
        (Literal::lang_string("ciao", "it").into(), 2),
    ];
    for (term, expected) in terms {
        let mut bytes = Vec::new();
        codec::write_term(&mut bytes, &term);
        let (decoded, allocations) = counted(|| codec::read_term(&bytes, &mut 0).unwrap());
        assert_eq!(decoded, term);
        assert_eq!(allocations, expected, "{term}");
    }
}

#[test]
fn one_allocation_per_term_of_an_ntriples_line() {
    for triple in triples(3) {
        let line = format!(
            "{} {} {} .",
            triple.subject, triple.predicate, triple.object
        );
        let (parsed, allocations) =
            counted(|| hbold_rdf_parser::ntriples::parse_line(&line, 1).unwrap());
        assert_eq!(parsed, triple);
        assert_eq!(allocations, 3, "{line}");
    }
}

/// The allocations a decode of `n` rows (or triples) made beyond one of
/// `n / 2`, per added row.
fn marginal(decode: impl Fn(usize) -> usize, n: usize) -> f64 {
    (decode(n) - decode(n / 2)) as f64 / (n - n / 2) as f64
}

/// The allocations decoding the `?s ?p ?o` results document of `rows` made.
fn results_decode(rows: impl Iterator<Item = [Term; 3]>) -> usize {
    let rows: Vec<Vec<Option<Term>>> = rows.map(|row| row.map(Some).to_vec()).collect();
    let n = rows.len();
    let json = QueryResults::Select(hbold_sparql::SelectResults {
        variables: vec!["s".into(), "p".into(), "o".into()],
        rows,
    })
    .to_sparql_json();
    let (decoded, allocations) = counted(|| QueryResults::from_sparql_json(&json).unwrap());
    assert_eq!(decoded.into_select().unwrap().rows.len(), n);
    allocations
}

#[test]
fn a_results_document_decodes_each_term_once() {
    let decode = |n: usize| {
        results_decode(
            triples(n)
                .into_iter()
                .map(|t| [t.subject, t.predicate, t.object]),
        )
    };
    // Three terms and the row's own vector; the table's vector grows once.
    let per_row = marginal(decode, 600);
    assert!(per_row <= 4.01, "{per_row} allocations per decoded row");
}

#[test]
fn a_repeated_term_is_built_once_per_column() {
    // Sorted `?s ?p ?o` listing rows: a subject on five consecutive rows,
    // four predicates in turn, every object new.
    let decode = |n: usize| {
        results_decode((0..n).map(|i| {
            let s = Iri::new(format!("http://alloc.example/s{}", i / 5)).unwrap();
            let p = Iri::new(format!("http://alloc.example/p{}", i % 4)).unwrap();
            let o = Literal::string(format!("value {i}"));
            [s.into(), p.into(), o.into()]
        }))
    };
    // New terms per row: one object and a fifth of a subject. Plus the
    // row's own vector.
    let per_row = marginal(decode, 600);
    assert!(
        per_row <= 1.2 + 1.0 + 0.01,
        "{per_row} allocations per decoded row"
    );
}

#[test]
fn escaping_control_characters_allocates_nothing_but_the_output() {
    let text: String = (0..10_000u32)
        .map(|i| char::from_u32(i % 0x20).unwrap())
        .collect();
    let mut out = String::with_capacity(6 * text.len() + 2);
    let ((), allocations) = counted(|| hbold_telemetry::json::write_str(&mut out, &text));
    assert_eq!(allocations, 0);
    assert!(out.starts_with("\"\\u0000\\u0001"), "{}", &out[..20]);
    assert!(
        out.ends_with("\\u000e\\u000f\""),
        "{}",
        &out[out.len() - 20..]
    );
}

/// The snapshot of a fresh load of [`triples`]`(n)`.
fn snapshot_of(n: usize) -> Vec<u8> {
    let graph: Graph = triples(n).into_iter().collect();
    snapshot::encode(&TripleStore::from_graph(&graph))
}

#[test]
fn a_snapshot_term_table_decodes_each_term_once() {
    // A restore validates every entry of the term table and builds one
    // term a block of 64 ids — its head — and nothing else per term: the
    // tables are sized up front.
    let decode = |n: usize| {
        let bytes = snapshot_of(n);
        let (store, allocations) = counted(|| snapshot::decode(&bytes).unwrap());
        assert_eq!(store.len(), n);
        assert_eq!(store.dictionary().materialized_len(), 0);
        allocations
    };
    // Each added triple adds two terms — its subject and its object.
    let per_triple = marginal(decode, 1_200);
    assert!(
        per_triple <= 2.0 / 64.0 + 0.01,
        "{per_triple} allocations per decoded triple"
    );
}

#[test]
fn touching_every_restored_id_builds_each_term_once() {
    // Every third object a language-tagged literal, whose tag is a copy
    // of its own.
    let graph: Graph = triples(1_200)
        .into_iter()
        .enumerate()
        .map(|(i, t)| match i % 3 {
            0 => Triple::new(
                t.subject,
                t.predicate,
                Literal::lang_string(format!("name {i}"), "it"),
            ),
            _ => t,
        })
        .collect();
    let bytes = snapshot::encode(&TripleStore::from_graph(&graph));
    let touch = |store: &TripleStore| {
        let dictionary = store.dictionary();
        for id in 0..dictionary.len() as u32 {
            std::hint::black_box(dictionary.term(id));
        }
        dictionary.len()
    };
    // Once unmeasured: the block decoder keeps its text buffers between
    // blocks, and this thread's are grown here.
    touch(&snapshot::decode(&bytes).unwrap());
    let store = snapshot::decode(&bytes).unwrap();
    let (terms, allocations) = counted(|| touch(&store));
    let tagged = store
        .dictionary()
        .iter()
        .filter(|(_, t)| matches!(t, Term::Literal(l) if l.language().is_some()))
        .count();
    assert_eq!(store.dictionary().materialized_len(), terms);
    // A block of 64 ids: its head is built already, and the 63 others and
    // the block's slice cost one allocation each.
    assert!(
        allocations <= terms + tagged,
        "{allocations} allocations for {terms} terms, {tagged} tagged"
    );
}

/// `n` N-Triples statements of [`triples`], one a line.
fn ntriples_text(n: usize) -> String {
    triples(n)
        .iter()
        .map(|t| format!("{} {} {} .\n", t.subject, t.predicate, t.object))
        .collect()
}

#[test]
fn turtle_reads_ntriples_statements_with_the_ntriples_allocations() {
    let text = ntriples_text(2_000);
    let (ntriples, by_ntriples) = counted(|| hbold_rdf_parser::parse_ntriples(&text).unwrap());
    let (turtle, by_turtle) = counted(|| hbold_rdf_parser::parse_turtle(&text).unwrap());
    assert_eq!(turtle, ntriples);
    assert!(
        by_turtle <= by_ntriples + 16,
        "Turtle {by_turtle} allocations, N-Triples {by_ntriples}"
    );
}

#[test]
fn a_long_literal_costs_turtle_no_more_than_ntriples() {
    let doc = |len: usize| {
        format!(
            "<http://alloc.example/s> <http://alloc.example/p> \"{}\" .\n",
            "x".repeat(len)
        )
    };
    let (long, short) = (doc(1_000), doc(1));
    let (ntriples, by_ntriples) = counted(|| hbold_rdf_parser::parse_ntriples(&long).unwrap());
    let (turtle, by_turtle) = counted(|| hbold_rdf_parser::parse_turtle(&long).unwrap());
    assert_eq!(turtle, ntriples);
    // N-Triples has its line buffer besides; the literal is one copy in both.
    assert!(
        by_turtle <= by_ntriples,
        "Turtle {by_turtle} allocations, N-Triples {by_ntriples}"
    );
    let (_, by_turtle_short) = counted(|| hbold_rdf_parser::parse_turtle(&short).unwrap());
    assert_eq!(
        by_turtle, by_turtle_short,
        "a 1 000-character literal against one of 1"
    );
}
