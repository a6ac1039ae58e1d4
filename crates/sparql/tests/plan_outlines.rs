//! The plan a query gets and the span tree its traced run leaves, pinned.
//!
//! `golden/plan_outlines.txt` holds, for one query of every pipeline node
//! and tail shape, the `explain` outline and the outline of a traced run
//! (span names and attributes, no times). The planner and executor may be
//! rebuilt freely underneath; these outlines must not move.
//!
//! The same corpus checks the span tree's arithmetic: a span's time covers
//! its children's, so on every traced run the children of every span add up
//! to no more than the span itself.

use hbold_rdf_model::{Iri, Literal, Quad, Term, Triple};
use hbold_sparql::{evaluate_with_hooks, explain, parse_query, EvalHooks};
use hbold_telemetry::Span;
use hbold_triple_store::TripleStore;

const GOLDEN: &str = include_str!("golden/plan_outlines.txt");

/// One query per node (BGP, group join, `OPTIONAL`, `UNION`, `FILTER` with a
/// pushed pre-bind, `GRAPH <g>`, `GRAPH ?g` — whose variable a filter can
/// pre-bind only when a triple pattern under it binds it) and per tail and
/// dataset shape (`FROM` merge, `ASK`, hash group with sort and with top-k,
/// top-k, streamed order, `DISTINCT`, a lone pattern counted off the index
/// directory).
const CORPUS: &[&str] = &[
    "SELECT ?s ?o WHERE { ?s <http://e.org/p> ?o . ?s <http://e.org/a> <http://e.org/C> }",
    "SELECT * WHERE { ?s <http://e.org/a> <http://e.org/C> { ?s <http://e.org/p> ?o . ?o <http://e.org/a> ?c } }",
    "SELECT ?s ?n WHERE { ?s <http://e.org/a> ?c OPTIONAL { ?s <http://e.org/name> ?n } }",
    "SELECT ?x WHERE { { ?x <http://e.org/a> <http://e.org/C> } UNION { ?x <http://e.org/a> <http://e.org/D> } }",
    "SELECT ?o WHERE { ?s <http://e.org/p> ?o FILTER(?s = <http://e.org/s1> && BOUND(?o)) }",
    "SELECT ?s ?o WHERE { GRAPH <http://e.org/g1> { ?s <http://e.org/p> ?o } }",
    "SELECT ?g ?s ?c WHERE { GRAPH ?g { ?s <http://e.org/a> ?c } } ORDER BY ?g ?s",
    "SELECT ?s WHERE { GRAPH ?g { ?s <http://e.org/p> ?o } FILTER(?g = <http://e.org/g2>) }",
    "SELECT ?s WHERE { ?s <http://e.org/p> ?o GRAPH ?g { } FILTER(?g = <http://e.org/g2>) }",
    "SELECT ?s ?o FROM <http://e.org/g1> FROM <http://e.org/g2> WHERE { ?s <http://e.org/p> ?o }",
    "ASK { ?s <http://e.org/a> <http://e.org/D> . ?s <http://e.org/p> ?o }",
    "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s <http://e.org/a> ?c } GROUP BY ?c ORDER BY DESC(?n)",
    "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s <http://e.org/a> ?c } GROUP BY ?c ORDER BY DESC(?n) LIMIT 1",
    "SELECT ?s ?o WHERE { ?s <http://e.org/p> ?o } ORDER BY DESC(?o) LIMIT 3 OFFSET 1",
    "SELECT ?s ?p ?o WHERE { ?s <http://e.org/a> <http://e.org/C> . ?s ?p ?o } ORDER BY ?s ?p ?o LIMIT 5",
    "SELECT DISTINCT ?c WHERE { ?s <http://e.org/a> ?c . ?s <http://e.org/p> ?o }",
    "SELECT (COUNT(?o) AS ?n) WHERE { ?s <http://e.org/p> ?o }",
];

fn iri(s: &str) -> Iri {
    Iri::new(format!("http://e.org/{s}")).unwrap()
}

/// Twelve subjects in a ring, two classes, names on every third, and the
/// links copied into two named graphs; loaded in one batch, so ids are in
/// term order and an order can stream.
fn store() -> TripleStore {
    let mut quads = Vec::new();
    for i in 0..12 {
        let s = iri(&format!("s{i}"));
        let class = iri(if i % 2 == 0 { "C" } else { "D" });
        let link = Triple::new(s.clone(), iri("p"), iri(&format!("s{}", (i + 1) % 12)));
        quads.push(Quad::new(Triple::new(s.clone(), iri("a"), class), None));
        quads.push(Quad::new(link.clone(), None));
        if i % 3 == 0 {
            let name = Literal::string(format!("n{i}"));
            quads.push(Quad::new(Triple::new(s.clone(), iri("name"), name), None));
        }
        let graph = Term::from(iri(if i < 6 { "g1" } else { "g2" }));
        quads.push(Quad::new(link, Some(graph.clone())));
        quads.push(Quad::new(Triple::new(s, iri("a"), iri("C")), Some(graph)));
    }
    let mut store = TripleStore::new();
    store.insert_quads_batch(quads.iter());
    store
}

/// Runs `query` traced, under a root span that times the whole evaluation.
fn traced(store: &TripleStore, query: &str) -> Span {
    let root = Span::root("query");
    let hooks = EvalHooks {
        trace: Some(&root),
        ..EvalHooks::default()
    };
    let parsed = parse_query(query).unwrap();
    root.timed(|| evaluate_with_hooks(store, &parsed, &hooks))
        .unwrap();
    root
}

/// The golden document: each query's `explain` outline, then its traced
/// run's outline.
fn outlines(store: &TripleStore) -> String {
    let mut out = String::new();
    for query in CORPUS {
        let plan = explain(store, &parse_query(query).unwrap());
        out.push_str(&format!("# {query}\n## explain\n{plan}## trace\n"));
        out.push_str(&traced(store, query).to_string());
        out.push('\n');
    }
    out
}

#[test]
fn plans_and_trace_outlines_match_the_golden_file() {
    let actual = outlines(&store());
    assert!(
        actual == GOLDEN,
        "outlines moved from golden/plan_outlines.txt; now:\n{actual}"
    );
}

/// Every span's children add up to no more than the span: label spans
/// (`bgp`, `join`) carry their children's sum, and the tail stage that
/// drives the pattern carries its own time, not the scans'.
#[test]
fn children_never_outlast_their_span() {
    fn check(span: &Span, query: &str) {
        let children = span.children();
        let sum: u64 = children.iter().map(Span::elapsed_ns).sum();
        assert!(
            sum <= span.elapsed_ns(),
            "{query}: the children of `{}` take {sum} ns, it takes {} ns\n{}",
            span.name(),
            span.elapsed_ns(),
            span.to_json()
        );
        children.iter().for_each(|child| check(child, query));
    }
    let store = store();
    for query in CORPUS {
        check(&traced(&store, query), query);
    }
}
