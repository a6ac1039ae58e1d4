//! Engine tests that need the naive reference evaluator or the seeded
//! generators of `hbold_sparql_check`. They live here, not beside the code
//! they test, because a unit test that linked the check crate would link a
//! second copy of the engine.

use hbold_rdf_model::{Iri, Literal, Quad, Term, Triple};
use hbold_sparql::{
    evaluate, evaluate_with_hooks, explain, parse_query, parse_update, plan_update_op, EvalHooks,
    QueryResults, SelectResults, SparqlError,
};
use hbold_sparql_check::fuzz::{generate_query, generate_store, term_pool, FuzzRng};
use hbold_sparql_check::reference;
use hbold_telemetry::Span;
use hbold_triple_store::TripleStore;

fn iri(s: &str) -> Iri {
    Iri::new(s).unwrap()
}

// ---- encoded.rs: the group table and the project stage's DISTINCT ----------------

fn kt(local: &str) -> Iri {
    iri(&format!("http://kt.example/{local}"))
}

/// `subjects` subjects, each typed with one of three classes and valued
/// with one of `values` literals; every fourth also named.
fn store(subjects: usize, values: usize) -> TripleStore {
    let mut triples = Vec::new();
    for i in 0..subjects {
        let s = kt(&format!("s{i}"));
        triples.push(Triple::new(s.clone(), kt("a"), kt(&format!("C{}", i % 3))));
        let value = Literal::string(format!("v{}", i % values));
        triples.push(Triple::new(s.clone(), kt("v"), value));
        if i % 4 == 0 {
            triples.push(Triple::new(s, kt("name"), Literal::string(format!("n{i}"))));
        }
    }
    let mut store = TripleStore::new();
    store.insert_batch(triples.iter());
    store
}

/// The engine's rows, after checking them against the reference
/// evaluator's as a multiset.
fn agreed(store: &TripleStore, query: &str) -> Vec<Vec<Option<Term>>> {
    let parsed = parse_query(query).unwrap();
    let engine = evaluate(store, &parsed).unwrap().into_select().unwrap();
    let expected = reference::evaluate(store, &parsed)
        .unwrap()
        .into_select()
        .unwrap();
    assert_eq!(engine.variables, expected.variables, "{query}");
    let sorted = |mut rows: Vec<Vec<Option<Term>>>| {
        rows.sort();
        rows
    };
    assert_eq!(
        sorted(engine.rows.clone()),
        sorted(expected.rows),
        "{query}"
    );
    engine.rows
}

#[test]
fn keys_that_differ_only_in_their_last_id_are_kept_apart() {
    // Under one predicate 1 024 values, under another 256 names, under
    // the type three classes: `GROUP BY ?p ?o` keys that share their
    // first id.
    let rows = agreed(
        &store(1024, 1024),
        "SELECT ?p ?o (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ?o",
    );
    assert_eq!(rows.len(), 1024 + 256 + 3);
}

// ---- eval.rs: traced evaluation --------------------------------------------------

/// Finds every span named `name` in the subtree under `span`.
fn find_spans(span: &Span, name: &str, out: &mut Vec<Span>) {
    if span.name() == name {
        out.push(span.clone());
    }
    for child in span.children() {
        find_spans(&child, name, out);
    }
}

#[test]
fn traced_evaluation_matches_untraced_results() {
    // Over generated queries: tracing changes no answer, and the scan spans
    // are exactly the stages `explain()` reports — same number, same order,
    // same written index and estimate.
    let render = |outcome: Result<QueryResults, SparqlError>| match outcome {
        Ok(results) => results.to_sparql_json(),
        Err(e) => format!("error: {e}"),
    };
    for seed in 0..320 {
        let mut rng = FuzzRng::new(seed);
        let store = generate_store(&mut rng);
        let query = generate_query(&mut rng);
        let root = Span::root("query");
        let hooks = EvalHooks {
            trace: Some(&root),
            ..EvalHooks::default()
        };
        let traced = render(evaluate_with_hooks(&store, &query, &hooks));
        assert_eq!(render(evaluate(&store, &query)), traced, "seed {seed}");
        let mut scans = Vec::new();
        find_spans(&root, "scan", &mut scans);
        let traced_stages: Vec<(u64, u64)> = scans
            .iter()
            .map(|scan| {
                let attr = |key| scan.attr(key).unwrap().as_u64().unwrap();
                (attr("written_index"), attr("estimate"))
            })
            .collect();
        let explained_stages: Vec<(u64, u64)> = explain(&store, &query)
            .bgps
            .iter()
            .flat_map(|bgp| {
                bgp.order
                    .iter()
                    .map(|&i| i as u64)
                    .zip(bgp.estimates.iter().copied())
            })
            .collect();
        assert_eq!(traced_stages, explained_stages, "seed {seed}");
    }
}

// ---- update.rs: update planning --------------------------------------------------

#[test]
fn engine_and_naive_planners_agree() {
    let mut store = TripleStore::new();
    for i in 0..4 {
        let link = Triple::new(
            iri(&format!("http://e.org/s{i}")),
            iri("http://e.org/p"),
            iri(&format!("http://e.org/o{}", i % 2)),
        );
        let graph = (i % 2 == 0).then(|| Term::from(iri("http://e.org/g")));
        store.insert_quad(&Quad::new(link, graph));
    }
    let ops = parse_update(
        "DELETE { GRAPH <http://e.org/g> { ?s <http://e.org/p> ?o } } \
         INSERT { ?s <http://e.org/p2> ?o } \
         WHERE { GRAPH ?g { ?s <http://e.org/p> ?o } }",
    )
    .unwrap();
    let engine = plan_update_op(&store, &ops[0]).unwrap();
    let naive = reference::plan_update(&store, &ops[0]).unwrap();
    assert_eq!(engine, naive);
    assert!(!engine.0.is_empty());
}

// ---- results.rs: the SPARQL-JSON encoder's golden ---------------------------------

#[test]
fn the_pinned_term_table_is_the_fuzz_term_pool() {
    // `results.rs`'s `json_encoder_bytes_are_pinned` holds the encoder to
    // these bytes; this holds the bytes to every term shape the fuzz pool
    // knows, each row after the first of a pair beside its predecessor.
    let pool = term_pool();
    let table = SelectResults {
        variables: vec!["term".into(), "prev \"quoted\"".into()],
        rows: pool
            .iter()
            .enumerate()
            .map(|(i, t)| vec![Some(t.clone()), (i % 2 == 1).then(|| pool[i - 1].clone())])
            .collect(),
    };
    assert_eq!(
        QueryResults::from_sparql_json(include_str!("golden/term_pool.srj")).unwrap(),
        QueryResults::Select(table)
    );
}
