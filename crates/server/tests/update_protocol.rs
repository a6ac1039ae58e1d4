//! End-to-end SPARQL 1.1 Update protocol tests over real loopback sockets:
//! `POST /update` (and `/sparql`) with `application/sparql-update` and
//! form-encoded bodies, 204/400/405/415 statuses, graph-scoped mutations
//! visible to follow-up queries, and the update counters + per-graph quad
//! counts surfaced on `/stats` and `/metrics`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use hbold_rdf_model::vocab::{foaf, rdf};
use hbold_rdf_model::{Graph, Iri, Literal, Triple};
use hbold_server::{ServerConfig, SparqlServer};
use hbold_sparql::json::JsonValue;
use hbold_sparql::QueryResults;
use hbold_triple_store::SharedStore;

fn sample_store(people: usize) -> SharedStore {
    let mut g = Graph::new();
    for i in 0..people {
        let s = Iri::new(format!("http://example.org/person/{i}")).unwrap();
        g.insert(Triple::new(s.clone(), rdf::type_(), foaf::person()));
        g.insert(Triple::new(
            s,
            foaf::name(),
            Literal::string(format!("Person {i}")),
        ));
    }
    SharedStore::from_graph(&g)
}

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

/// One response off a keep-alive stream: (status, headers-block, body).
fn read_response(stream: &mut TcpStream) -> (u16, String, Vec<u8>) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed before response head finished");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).expect("ASCII head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .expect("response has Content-Length");
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    (status, head, body)
}

fn roundtrip(server: &SparqlServer, request: &str) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    read_response(&mut stream)
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
            urlencode(sparql)
        ),
    );
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    QueryResults::from_sparql_json(std::str::from_utf8(&body).unwrap()).unwrap()
}

fn urlencode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
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
        let form = format!("update={}", urlencode(&update));
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
fn stats_and_metrics_carry_update_counters_and_graph_counts() {
    let server = start_server();
    let insert = "INSERT DATA { GRAPH <http://example.org/g> { \
                  <http://example.org/a> <http://example.org/p> \"1\" . \
                  <http://example.org/b> <http://example.org/p> \"2\" } }";
    assert_eq!(post_update(&server, "/update", insert).0, 204);
    assert_eq!(post_update(&server, "/update", "INSERT").0, 400);

    let (status, _, body) = roundtrip(&server, "GET /stats HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    let doc = JsonValue::parse(std::str::from_utf8(&body).unwrap()).expect("stats JSON parses");
    let updates = doc
        .get("updates")
        .expect("stats carries an updates section");
    assert_eq!(updates.get("requests_ok").unwrap().as_f64(), Some(1.0));
    assert_eq!(updates.get("requests_error").unwrap().as_f64(), Some(1.0));
    assert_eq!(updates.get("ops").unwrap().as_f64(), Some(1.0));
    assert_eq!(updates.get("quads_inserted").unwrap().as_f64(), Some(2.0));
    let graphs = doc.get("graphs").expect("stats carries a graphs section");
    // 4 people × 2 triples in the default graph + the 2 named-graph quads.
    assert_eq!(graphs.get("default").unwrap().as_f64(), Some(8.0));
    assert_eq!(graphs.get("quads_total").unwrap().as_f64(), Some(10.0));
    assert_eq!(graphs.get("named_count").unwrap().as_f64(), Some(1.0));
    assert_eq!(
        graphs
            .get("named")
            .unwrap()
            .get("http://example.org/g")
            .unwrap()
            .as_f64(),
        Some(2.0)
    );

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
    assert_eq!(
        expo.value("hbold_update_quads_inserted_total", &[]),
        Some(2.0)
    );
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
