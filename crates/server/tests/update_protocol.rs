//! End-to-end SPARQL 1.1 Update protocol tests over real loopback sockets:
//! `POST /update` (and `/sparql`) with `application/sparql-update` and
//! form-encoded bodies, 204/400/405/415 statuses, graph-scoped mutations
//! visible to follow-up queries, and the update counters + per-graph quad
//! counts surfaced on `/metrics`.

mod common;

use std::time::Duration;

use common::{percent_encode, roundtrip, sample_store};
use hbold_server::{ServerConfig, SparqlServer};
use hbold_sparql::QueryResults;

fn start_server() -> SparqlServer {
    SparqlServer::start(
        sample_store(4),
        ServerConfig {
            workers: 4,
            read_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    )
    .expect("server starts")
}

/// Sends one update request body as `application/sparql-update` to `path`.
fn post_update(server: &SparqlServer, path: &str, update: &str) -> (u16, String, Vec<u8>) {
    roundtrip(
        server,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Type: application/sparql-update\r\nContent-Length: {}\r\n\r\n{update}",
            update.len(),
        ),
    )
}

/// Runs a query through `GET /sparql` and returns the decoded results.
fn query(server: &SparqlServer, sparql: &str) -> QueryResults {
    let (status, _, body) = roundtrip(
        server,
        &format!(
            "GET /sparql?query={} HTTP/1.1\r\nHost: x\r\n\r\n",
            percent_encode(sparql)
        ),
    );
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    QueryResults::from_sparql_json(std::str::from_utf8(&body).unwrap()).unwrap()
}

#[test]
fn update_body_mutates_default_and_named_graphs() {
    let server = start_server();

    // INSERT DATA into the default graph and a named graph, one request.
    let insert = "PREFIX ex: <http://example.org/> \
                  INSERT DATA { \
                    ex:new a <http://xmlns.com/foaf/0.1/Person> . \
                    GRAPH ex:g1 { ex:new ex:seen \"yes\" . ex:other ex:seen \"also\" } \
                  }";
    let (status, head, body) = post_update(&server, "/update", insert);
    assert_eq!(status, 204, "{}", String::from_utf8_lossy(&body));
    assert!(body.is_empty(), "204 carries no body");
    assert!(head.contains("Content-Length: 0"));

    // The default-graph insert is visible to a plain query...
    let results = query(
        &server,
        "SELECT (COUNT(?s) AS ?n) WHERE { ?s a <http://xmlns.com/foaf/0.1/Person> }",
    );
    let rows = results.into_select().unwrap();
    assert_eq!(rows.value(0, "n").unwrap().label(), "5");

    // ...and the named-graph quads only through a GRAPH pattern.
    let results = query(
        &server,
        "SELECT (COUNT(?s) AS ?n) WHERE { GRAPH <http://example.org/g1> { ?s ?p ?o } }",
    );
    let rows = results.into_select().unwrap();
    assert_eq!(rows.value(0, "n").unwrap().label(), "2");

    // DELETE WHERE with a graph pattern takes one of them back out.
    let delete = "DELETE WHERE { GRAPH <http://example.org/g1> { \
                  <http://example.org/other> ?p ?o } }";
    let (status, _, _) = post_update(&server, "/update", delete);
    assert_eq!(status, 204);
    let results = query(
        &server,
        "SELECT (COUNT(?s) AS ?n) WHERE { GRAPH <http://example.org/g1> { ?s ?p ?o } }",
    );
    let rows = results.into_select().unwrap();
    assert_eq!(rows.value(0, "n").unwrap().label(), "1");
    server.shutdown();
}

#[test]
fn form_encoded_updates_work_on_both_endpoints() {
    let server = start_server();
    for path in ["/update", "/sparql"] {
        let update = format!(
            "INSERT DATA {{ <http://example.org/form{}> <http://example.org/p> \"v\" }}",
            path.trim_start_matches('/')
        );
        let form = format!("update={}", percent_encode(&update));
        let (status, _, body) = roundtrip(
            &server,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{form}",
                form.len(),
            ),
        );
        assert_eq!(status, 204, "{}", String::from_utf8_lossy(&body));
    }
    // application/sparql-update on /sparql (the single-endpoint layout).
    let (status, _, _) = post_update(
        &server,
        "/sparql",
        "INSERT DATA { <http://example.org/s> <http://example.org/p> \"direct\" }",
    );
    assert_eq!(status, 204);
    let results = query(
        &server,
        "SELECT (COUNT(?o) AS ?n) WHERE { ?s <http://example.org/p> ?o }",
    );
    let rows = results.into_select().unwrap();
    assert_eq!(rows.value(0, "n").unwrap().label(), "3");
    server.shutdown();
}

#[test]
fn update_error_statuses() {
    let server = start_server();
    // Parse error → 400.
    let (status, _, body) = post_update(&server, "/update", "INSERT GARBAGE {");
    assert_eq!(status, 400);
    assert!(!body.is_empty(), "400 explains the failure");
    // Wrong content type → 415.
    let (status, _, _) = roundtrip(
        &server,
        "POST /update HTTP/1.1\r\nHost: x\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\r\nhi",
    );
    assert_eq!(status, 415);
    // Form body without an update field → 400.
    let (status, _, _) = roundtrip(
        &server,
        "POST /update HTTP/1.1\r\nHost: x\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 7\r\n\r\nquery=x",
    );
    assert_eq!(status, 400);
    // GET /update → 405 with Allow.
    let (status, head, _) = roundtrip(&server, "GET /update HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 405);
    assert!(head.contains("Allow: POST"));
    server.shutdown();
}

#[test]
fn metrics_carry_update_counters_and_graph_counts() {
    let server = start_server();
    let insert = "INSERT DATA { GRAPH <http://example.org/g> { \
                  <http://example.org/a> <http://example.org/p> \"1\" . \
                  <http://example.org/b> <http://example.org/p> \"2\" } }";
    assert_eq!(post_update(&server, "/update", insert).0, 204);
    assert_eq!(post_update(&server, "/update", "INSERT").0, 400);

    let (status, _, body) = roundtrip(&server, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    let text = std::str::from_utf8(&body).unwrap();
    let expo = hbold_telemetry::expo::parse_exposition(text).expect("valid exposition");
    assert!(expo.validate().is_empty(), "{:?}", expo.validate());
    assert_eq!(
        expo.value("hbold_update_requests_total", &[("result", "ok")]),
        Some(1.0)
    );
    assert_eq!(
        expo.value("hbold_update_requests_total", &[("result", "error")]),
        Some(1.0)
    );
    assert_eq!(expo.value("hbold_update_ops_total", &[]), Some(1.0));
    assert_eq!(
        expo.value("hbold_update_quads_inserted_total", &[]),
        Some(2.0)
    );
    // 4 people × 2 triples in the default graph + the 2 named-graph quads.
    assert_eq!(expo.value("hbold_store_triples", &[]), Some(10.0));
    assert_eq!(expo.value("hbold_store_named_graphs", &[]), Some(1.0));
    assert_eq!(
        expo.value(
            "hbold_store_graph_quads",
            &[("graph", "http://example.org/g")]
        ),
        Some(2.0)
    );
    assert_eq!(
        expo.value("hbold_store_graph_quads", &[("graph", "default")]),
        Some(8.0)
    );

    // Emptying the graph takes its series out of the scrape; it used to
    // repeat the last count, 2, on every scrape after.
    let delete = "DELETE WHERE { GRAPH <http://example.org/g> { ?s ?p ?o } }";
    assert_eq!(post_update(&server, "/update", delete).0, 204);
    let (status, _, body) = roundtrip(&server, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    let expo = hbold_telemetry::expo::parse_exposition(std::str::from_utf8(&body).unwrap())
        .expect("valid exposition");
    assert_eq!(expo.value("hbold_store_named_graphs", &[]), Some(0.0));
    assert_eq!(
        expo.value(
            "hbold_store_graph_quads",
            &[("graph", "http://example.org/g")]
        ),
        None
    );
    assert_eq!(
        expo.value("hbold_store_graph_quads", &[("graph", "default")]),
        Some(8.0)
    );
    server.shutdown();
}
