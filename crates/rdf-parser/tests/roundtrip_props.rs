//! Property tests: any graph we can express in Turtle survives
//! `parse_turtle` → `write_ntriples` → `parse_ntriples` unchanged, for
//! arbitrary generated datasets (entities, typed links, literals of every
//! shorthand kind, escapes, language tags), and any graph of non-ASCII
//! terms survives N-Triples written with Unicode whitespace between them.

use proptest::prelude::*;

use hbold_rdf_model::vocab::rdf;
use hbold_rdf_model::{BlankNode, Graph, Iri, Literal, Term, Triple};
use hbold_rdf_parser::{parse_ntriples, parse_turtle, write_ntriples};

fn ex(local: &str) -> Iri {
    Iri::new(format!("http://prop.example/{local}")).unwrap()
}

/// Escapes a string for use inside a double-quoted Turtle/N-Triples literal.
fn turtle_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Build a Turtle document and the graph it denotes side by side, then
    /// check the document parses to exactly that graph and that the graph
    /// survives an N-Triples round trip.
    #[test]
    fn turtle_then_ntriples_round_trip(
        entities in 1usize..20,
        types in proptest::collection::vec(0usize..20, 0..20),
        links in proptest::collection::vec((0usize..20, 0usize..20), 0..40),
        labels in proptest::collection::vec("[a-zA-Z0-9 àèéü\\\\\"\n\t]{0,16}", 0..12),
        numbers in proptest::collection::vec((0usize..20, -5000i64..5000), 0..8),
        flags in proptest::collection::vec((0usize..20, 0usize..2), 0..6),
    ) {
        let mut doc = String::from("@prefix ex: <http://prop.example/> .\n");
        let mut expected = Graph::new();
        let entity = |i: usize| ex(&format!("e{}", i % entities));

        // rdf:type statements through the `a` keyword.
        for (i, t) in types.iter().enumerate() {
            let s = entity(i);
            let class = ex(&format!("Type{}", t % 5));
            doc.push_str(&format!("ex:e{} a ex:Type{} .\n", i % entities, t % 5));
            expected.insert(Triple::new(s, rdf::type_(), class));
        }
        // Object links, as a predicate-object list on one line.
        for (a, b) in &links {
            doc.push_str(&format!("ex:e{} ex:knows ex:e{} .\n", a % entities, b % entities));
            expected.insert(Triple::new(entity(*a), ex("knows"), entity(*b)));
        }
        // String literals: plain and language-tagged, with escapes.
        for (i, text) in labels.iter().enumerate() {
            let s = entity(i);
            if i % 3 == 0 {
                doc.push_str(&format!(
                    "ex:e{} ex:label \"{}\"@it .\n",
                    i % entities,
                    turtle_escape(text)
                ));
                expected.insert(Triple::new(s, ex("label"), Literal::lang_string(text.clone(), "it")));
            } else {
                doc.push_str(&format!(
                    "ex:e{} ex:label \"{}\" .\n",
                    i % entities,
                    turtle_escape(text)
                ));
                expected.insert(Triple::new(s, ex("label"), Literal::string(text.clone())));
            }
        }
        // Numeric and boolean shorthand literals.
        for (i, n) in &numbers {
            doc.push_str(&format!("ex:e{} ex:count {} .\n", i % entities, n));
            expected.insert(Triple::new(entity(*i), ex("count"), Literal::integer(*n)));
        }
        for (i, f) in &flags {
            let value = *f == 1;
            doc.push_str(&format!("ex:e{} ex:flag {} .\n", i % entities, value));
            expected.insert(Triple::new(entity(*i), ex("flag"), Literal::boolean(value)));
        }

        // Turtle → graph.
        let parsed = parse_turtle(&doc).unwrap_or_else(|e| panic!("turtle parse failed: {e}\n{doc}"));
        prop_assert_eq!(&parsed, &expected);

        // Graph → N-Triples → graph.
        let nt = write_ntriples(&parsed);
        let reparsed = parse_ntriples(&nt).unwrap_or_else(|e| panic!("ntriples parse failed: {e}\n{nt}"));
        prop_assert_eq!(&reparsed, &expected);
    }

    /// N-Triples writing is canonical enough to be a fixpoint: writing the
    /// reparsed graph produces the same document again.
    #[test]
    fn ntriples_write_is_a_fixpoint(
        entities in 1usize..15,
        links in proptest::collection::vec((0usize..15, 0usize..15), 1..30),
        labels in proptest::collection::vec("[a-z \\\\\"\n]{0,10}", 0..8),
    ) {
        let mut graph = Graph::new();
        let entity = |i: usize| ex(&format!("n{}", i % entities));
        for (a, b) in &links {
            graph.insert(Triple::new(entity(*a), ex("links"), entity(*b)));
        }
        for (i, text) in labels.iter().enumerate() {
            graph.insert(Triple::new(entity(i), ex("note"), Literal::string(text.clone())));
        }
        let once = write_ntriples(&graph);
        let back = parse_ntriples(&once).unwrap();
        prop_assert_eq!(&back, &graph);
        let twice = write_ntriples(&back);
        prop_assert_eq!(once, twice);
    }

    /// Non-ASCII IRIs, literals and blank labels, one triple a line with
    /// the terms apart by ASCII or Unicode whitespace: the parser reads the
    /// graph that was written.
    #[test]
    fn non_ascii_terms_survive_any_whitespace(
        locals in proptest::collection::vec("[a-z0-9éłß中Ω😀._~-]{1,8}", 1..10),
        texts in proptest::collection::vec("[a-z \"\\\\\n\t\u{a0}\u{85}\u{3000}àé中😀]{0,12}", 0..10),
        blanks in proptest::collection::vec("[a-z0-9ü中_-]{1,6}", 0..5),
        gaps in proptest::collection::vec(0usize..6, 1..40),
    ) {
        let local = |i: usize| Iri::new(format!("http://prop.example/{}", locals[i % locals.len()])).unwrap();
        let mut graph = Graph::new();
        for (i, name) in locals.iter().enumerate() {
            let object = Iri::new(format!("http://ü.example/{i}/{name}")).unwrap();
            graph.insert(Triple::new(local(i), ex("links"), object));
        }
        for (i, text) in texts.iter().enumerate() {
            let datatype = Iri::new(format!("http://prop.example/dt/{}", locals[i % locals.len()])).unwrap();
            graph.insert(Triple::new(local(i), ex("note"), Literal::string(text.clone())));
            graph.insert(Triple::new(local(i), ex("note"), Literal::lang_string(text.clone(), "de-ch")));
            graph.insert(Triple::new(local(i), ex("note"), Literal::typed(text.clone(), datatype)));
        }
        for (i, label) in blanks.iter().enumerate() {
            graph.insert(Triple::new(BlankNode::new(label.clone()), ex("tag"), local(i)));
        }
        let spaces = [" ", "\t", "\u{a0}", "\u{85}", "\u{2003}", "\u{3000}"];
        let mut doc = String::new();
        for (i, t) in graph.iter().enumerate() {
            let gap = |k: usize| spaces[gaps[(3 * i + k) % gaps.len()]];
            let terms: [&Term; 3] = [&t.subject, &t.predicate, &t.object];
            for (k, term) in terms.into_iter().enumerate() {
                doc.push_str(&term.to_ntriples());
                doc.push_str(gap(k));
            }
            doc.push_str(".\n");
        }
        let parsed = parse_ntriples(&doc).unwrap_or_else(|e| panic!("ntriples parse failed: {e}\n{doc}"));
        prop_assert_eq!(parsed, graph);
    }
}
