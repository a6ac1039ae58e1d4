//! The remote-endpoint differential check (the PR's acceptance test): a
//! `SparqlEndpoint` backed by `HttpSparqlClient` against a live loopback
//! `hbold_server` must answer every query identically to direct in-process
//! evaluation over the same data — under concurrent load, over all three
//! protocol transports.

use std::time::Duration;

use hbold_endpoint::synth::{random_lod, scholarly, RandomLodConfig, ScholarlyConfig};
use hbold_endpoint::{
    EndpointError, EndpointProfile, HttpSparqlClient, QueryTransport, SparqlEndpoint,
};
use hbold_server::{ServerConfig, SparqlServer};
use hbold_triple_store::SharedStore;

/// The differential fuzz check's query shapes (`hbold_sparql_check::fuzz`
/// generates these constructs; this list covers the same constructs with
/// concrete text that the plan cache and the wire protocol both see).
const ORACLE_SHAPES: &[&str] = &[
    // Plain BGP + projection.
    "SELECT ?s ?c WHERE { ?s a ?c }",
    // Statistics shape: aggregate + GROUP BY + ORDER BY (the paper's index
    // extraction workhorse).
    "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c ORDER BY DESC(?n) ?c",
    // COUNT(DISTINCT ...).
    "SELECT (COUNT(DISTINCT ?p) AS ?n) WHERE { ?s ?p ?o }",
    // OPTIONAL with unbound columns.
    "SELECT ?s ?name WHERE { ?s a ?c OPTIONAL { ?s <http://www.w3.org/2000/01/rdf-schema#label> ?name } } ORDER BY ?s ?name LIMIT 50",
    // UNION with disjoint variables.
    "SELECT ?a ?b WHERE { { ?a a ?c } UNION { ?x ?b ?y FILTER(?b != ?y) } } ORDER BY ?a ?b LIMIT 40",
    // FILTER + regex.
    "SELECT ?s ?o WHERE { ?s ?p ?o FILTER(regex(?o, 'a')) } ORDER BY ?s ?o LIMIT 30",
    // DISTINCT before LIMIT.
    "SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p LIMIT 20",
    // ORDER BY + OFFSET past the interesting part.
    "SELECT ?s WHERE { ?s a ?c } ORDER BY ?s LIMIT 10 OFFSET 5",
    // ASK, both outcomes.
    "ASK { ?s a ?c }",
    "ASK { ?s <http://never.example/p> <http://never.example/o> }",
];

fn scholarly_store() -> SharedStore {
    SharedStore::from_graph(&scholarly(&ScholarlyConfig::default()))
}

#[test]
fn remote_endpoint_matches_in_process_evaluation_under_concurrency() {
    let graph = scholarly(&ScholarlyConfig::default());
    let server = SparqlServer::start(
        SharedStore::from_graph(&graph),
        ServerConfig {
            workers: 8,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let local = SparqlEndpoint::new(
        "http://local.example/sparql",
        &graph,
        EndpointProfile::full_featured(),
    );
    let remote = SparqlEndpoint::remote(server.url());

    // ≥ 8 concurrent connections, each running every oracle shape.
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let local = &local;
            let remote = &remote;
            scope.spawn(move || {
                for (i, query) in ORACLE_SHAPES.iter().enumerate() {
                    let expected = local
                        .query(query)
                        .unwrap_or_else(|e| panic!("local {worker}/{i} failed: {e}"))
                        .results;
                    let got = remote
                        .query(query)
                        .unwrap_or_else(|e| panic!("remote {worker}/{i} failed: {e}"))
                        .results;
                    assert_eq!(got, expected, "worker {worker}, shape {i}: {query}");
                }
            });
        }
    });

    // Every remote query was one connection + one request on the server.
    let served = server.stats().ok_responses();
    assert!(
        served >= (8 * ORACLE_SHAPES.len()) as u64,
        "server answered {served} requests"
    );
    server.shutdown();
}

#[test]
fn all_three_protocol_transports_agree() {
    let graph = random_lod(&RandomLodConfig::sized(12, 600, 42));
    let server = SparqlServer::start(SharedStore::from_graph(&graph), ServerConfig::default())
        .expect("server starts");
    let local = SparqlEndpoint::new(
        "http://local.example/sparql",
        &graph,
        EndpointProfile::full_featured(),
    );

    for transport in [
        QueryTransport::Get,
        QueryTransport::PostDirect,
        QueryTransport::PostForm,
    ] {
        let client = HttpSparqlClient::new(server.url())
            .with_transport(transport)
            .with_timeout(Duration::from_secs(5));
        let remote = SparqlEndpoint::remote_with_profile(client, EndpointProfile::full_featured());
        for query in ORACLE_SHAPES {
            let expected = local.query(query).expect("local").results;
            let got = remote
                .query(query)
                .unwrap_or_else(|e| panic!("{transport:?} failed on {query}: {e}"));
            assert_eq!(got.results, expected, "{transport:?}: {query}");
        }
    }
    server.shutdown();
}

#[test]
fn remote_endpoint_profile_checks_still_apply() {
    let server =
        SparqlServer::start(scholarly_store(), ServerConfig::default()).expect("server starts");
    // A client-side profile that forbids aggregates: the query is rejected
    // before it ever reaches the (fully capable) server.
    let remote = SparqlEndpoint::remote_with_profile(
        HttpSparqlClient::new(server.url()),
        EndpointProfile::no_aggregates(),
    );
    let before = server.stats().ok_responses();
    let err = remote
        .query("SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }")
        .unwrap_err();
    assert!(matches!(err, EndpointError::QueryRejected(_)));
    assert_eq!(
        server.stats().ok_responses(),
        before,
        "nothing hit the wire"
    );
    // Plain queries go through and are counted like simulated ones.
    assert!(remote.query("ASK { ?s ?p ?o }").is_ok());
    assert_eq!(remote.queries_received(), 2);
    server.shutdown();
}

#[test]
fn remote_triple_count_matches_the_store() {
    let store = scholarly_store();
    let triples = store.len();
    let server = SparqlServer::start(store, ServerConfig::default()).expect("server starts");
    let remote = SparqlEndpoint::remote(server.url());
    assert_eq!(remote.triple_count(), triples);
    server.shutdown();
}

#[test]
fn measured_latency_replaces_the_simulated_model() {
    let server =
        SparqlServer::start(scholarly_store(), ServerConfig::default()).expect("server starts");
    let remote = SparqlEndpoint::remote(server.url());
    let outcome = remote.query("ASK { ?s ?p ?o }").expect("query");
    // A loopback round trip takes real, nonzero time — and far less than
    // the 60 s profile budget.
    assert!(outcome.simulated_latency > Duration::ZERO);
    assert!(outcome.simulated_latency < Duration::from_secs(5));
    server.shutdown();
}
