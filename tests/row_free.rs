//! Rows without `malloc`, pinned without a clock: a counting global
//! allocator around `evaluate`. The executor walks the plan over one row
//! buffer and its sinks copy only what they keep, so the allocations of a
//! query follow what it *answers* — its groups, the rows of its page — not
//! the rows it scans. Each test compares a store with one 8 × its size.
//! With a row cloned per scan stage, a group's members buffered and a sort
//! key allocated per candidate, every one of these counts grew with the
//! store. Before any of it, a query text the plan cache already holds is
//! looked up without allocating at all.

mod common;

use std::sync::Arc;

use hbold_rdf_model::vocab::rdf;
use hbold_rdf_model::{Iri, Literal, Quad, Triple};
use hbold_sparql::{evaluate, parse_cached, parse_query, SelectResults};
use hbold_triple_store::TripleStore;

const CLASSES: usize = 4;

fn iri(local: &str) -> Iri {
    Iri::new(format!("http://rf.example/{local}")).unwrap()
}

/// `instances` typed subjects over four classes, each with a name and two
/// links to other instances: a class/instance graph whose schema (classes,
/// properties, link targets) does not grow with `instances`.
fn class_instance_store(instances: usize) -> TripleStore {
    let mut store = TripleStore::new();
    store.insert_batch(class_instance_triples(instances).iter());
    store
}

/// The same triples spread over `NAMED_GRAPHS` named graphs by subject, the
/// default graph empty: as many graphs at every size.
fn named_graph_store(instances: usize) -> TripleStore {
    let quads: Vec<Quad> = class_instance_triples(instances)
        .into_iter()
        .enumerate()
        .map(|(i, triple)| {
            let graph = iri(&format!("g{}", i / 4 % NAMED_GRAPHS));
            Quad::new(triple, Some(graph.into()))
        })
        .collect();
    let mut store = TripleStore::new();
    store.insert_quads_batch(&quads);
    store
}

const NAMED_GRAPHS: usize = 3;

fn class_instance_triples(instances: usize) -> Vec<Triple> {
    let mut triples = Vec::new();
    for i in 0..instances {
        let s = iri(&format!("i{i:06}"));
        triples.push(Triple::new(
            s.clone(),
            rdf::type_(),
            iri(&format!("C{}", i % CLASSES)),
        ));
        triples.push(Triple::new(
            s.clone(),
            iri("name"),
            Literal::string(format!("n{i}")),
        ));
        for (k, step) in [(0, 7), (1, 13)] {
            // `i / CLASSES` spreads a class's links over every target class.
            let target = iri(&format!("i{:06}", (i * step + i / CLASSES + k) % instances));
            triples.push(Triple::new(s.clone(), iri(&format!("link{k}")), target));
        }
    }
    triples
}

/// Evaluates `query`, returning its rows and the allocations `evaluate` made.
fn counted(store: &TripleStore, query: &str) -> (SelectResults, usize) {
    let parsed = parse_query(query).unwrap();
    let (results, allocations) = common::counted(|| evaluate(store, &parsed).unwrap());
    (results.into_select().unwrap(), allocations)
}

/// `(small, large)`: the same query over 500 and over 4 000 instances.
fn at_both_sizes(query: &str) -> [(SelectResults, usize); 2] {
    at_both_sizes_of(class_instance_store, query)
}

fn at_both_sizes_of(store: fn(usize) -> TripleStore, query: &str) -> [(SelectResults, usize); 2] {
    // The first evaluation in a process also registers the engine's metric
    // families, and which test gets to be first is the scheduler's choice.
    counted(&store(CLASSES), query);
    [500, 4_000].map(|instances| counted(&store(instances), query))
}

/// The single count of a result.
fn count(results: &SelectResults) -> usize {
    results.rows[0][0]
        .as_ref()
        .unwrap()
        .label()
        .parse()
        .unwrap()
}

#[test]
fn a_link_count_allocates_for_its_groups_not_its_rows() {
    // The extraction's link count: ≈ 3 rows scanned per instance of C0 per
    // stage, eight (property, target) groups whatever the size.
    let [(small, few), (large, many)] = at_both_sizes(
        "SELECT ?p ?t (COUNT(?o) AS ?n) WHERE { \
         ?s a <http://rf.example/C0> . ?s ?p ?o . ?o a ?t } GROUP BY ?p ?t",
    );
    assert_eq!(
        (small.rows.len(), large.rows.len()),
        (2 * CLASSES, 2 * CLASSES)
    );
    assert!(
        many <= 2 * few && few <= 2 * many,
        "{few} allocations over 500 instances, {many} over 4 000"
    );
}

#[test]
fn a_three_key_group_allocates_for_its_groups_not_its_rows() {
    // (class, property, target class): every class links to every class
    // through both link properties, at either size. The group table keys
    // the three slots in place and copies a key once per group.
    const GROUPS: usize = CLASSES * 2 * CLASSES;
    let [(small, few), (large, many)] = at_both_sizes(
        "SELECT ?c ?p ?t (COUNT(*) AS ?n) WHERE { ?s a ?c . ?s ?p ?o . ?o a ?t } GROUP BY ?c ?p ?t",
    );
    assert_eq!((small.rows.len(), large.rows.len()), (GROUPS, GROUPS));
    assert!(
        many.abs_diff(few) <= 4,
        "{few} allocations over 500 instances, {many} over 4 000"
    );
    // A group's share is its accumulators, its row's count — a term in the
    // query's own table, whose id the row holds — and its decoded output
    // row, about five allocations; the rest is the query's set-up. The
    // 4 000 instances scan ≈ 30 000 rows. 200 allocations measured, bound
    // 10 % above.
    assert!(many <= 220, "{many} allocations for {GROUPS} groups");
}

#[test]
fn a_join_probe_allocates_nothing() {
    // The link count's three stages: each instance of C0 is one probe of
    // the second stage, and each of its four quads one probe of the third
    // — 1 250 probes over 1 000 instances, 12 500 over 10 000. A stage
    // prepares its scan once per bound mask and probes it per row, so the
    // query allocates exactly as much at either size.
    let query = "SELECT ?p ?t (COUNT(?o) AS ?n) WHERE { \
                 ?s a <http://rf.example/C0> . ?s ?p ?o . ?o a ?t } GROUP BY ?p ?t";
    counted(&class_instance_store(CLASSES), query);
    let [(small, few), (large, many)] =
        [1_000, 10_000].map(|instances| counted(&class_instance_store(instances), query));
    assert_eq!(
        (small.rows.len(), large.rows.len()),
        (2 * CLASSES, 2 * CLASSES)
    );
    assert_eq!(
        few, many,
        "allocations over 1 000 and over 10 000 instances"
    );
}

#[test]
fn a_count_over_a_join_allocates_the_same_at_any_size() {
    let [(small, few), (large, many)] =
        at_both_sizes("SELECT (COUNT(*) AS ?n) WHERE { ?s a <http://rf.example/C1> . ?s ?p ?o }");
    assert_eq!(count(&small) * 8, count(&large), "rows are not constant");
    assert!(
        many.abs_diff(few) <= 4,
        "{few} allocations over 500 instances, {many} over 4 000"
    );
}

#[test]
fn a_top_k_allocates_for_the_rows_it_keeps_not_the_rows_it_sees() {
    const KEPT: usize = 100;
    let [(small, few), (large, many)] =
        at_both_sizes("SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o LIMIT 100");
    assert_eq!((small.rows.len(), large.rows.len()), (KEPT, KEPT));
    assert!(
        many <= 2 * few && few <= 2 * many,
        "{few} allocations over 2 000 rows, {many} over 16 000"
    );
    // A kept row is its copy in the heap and its decoded output row; the
    // rest is the heap's own growth and the query's fixed set-up.
    assert!(many <= 4 * KEPT, "{many} allocations to keep {KEPT} rows");
}

#[test]
fn a_graph_variable_count_allocates_the_same_at_any_size() {
    // `GRAPH ?g` is one in-graph scan per visible named graph: the graph
    // list is resolved once per query, never per row or per graph.
    let [(small, few), (large, many)] = at_both_sizes_of(
        named_graph_store,
        "SELECT (COUNT(*) AS ?n) WHERE { GRAPH ?g { ?s a <http://rf.example/C1> . ?s ?p ?o } }",
    );
    assert_eq!(count(&small) * 8, count(&large), "rows are not constant");
    assert!(
        many.abs_diff(few) <= 4,
        "{few} allocations over 500 instances, {many} over 4 000"
    );
    // Grouped by the graph: one group per named graph at either size.
    let [(small, few), (large, many)] = at_both_sizes_of(
        named_graph_store,
        "SELECT ?g (COUNT(*) AS ?n) WHERE { GRAPH ?g { ?s ?p ?o } } GROUP BY ?g",
    );
    assert_eq!(
        (small.rows.len(), large.rows.len()),
        (NAMED_GRAPHS, NAMED_GRAPHS)
    );
    assert!(
        many.abs_diff(few) <= 4,
        "{few} allocations over 500 instances, {many} over 4 000"
    );
}

#[test]
fn a_cached_query_text_is_looked_up_without_allocating() {
    let text = "SELECT ?s WHERE { ?s a <http://rf.example/CachedProbe> }";
    let plan = parse_cached(text).unwrap();
    let (again, allocations) = common::counted(|| parse_cached(text).unwrap());
    assert!(Arc::ptr_eq(&plan, &again), "a hit");
    assert_eq!(allocations, 0, "a plan-cache hit allocates nothing");
}
