//! End-to-end SPARQL Protocol tests over real loopback sockets.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::{read_response, roundtrip, sample_store};
use hbold_server::{ServerConfig, SparqlServer};
use hbold_sparql::QueryResults;
use hbold_telemetry::expo::parse_exposition;

fn start_server() -> SparqlServer {
    SparqlServer::start(
        sample_store(10),
        ServerConfig {
            workers: 4,
            read_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    )
    .expect("server starts")
}

const COUNT_QUERY: &str =
    "SELECT (COUNT(?s) AS ?n) WHERE { ?s a <http://xmlns.com/foaf/0.1/Person> }";

#[test]
fn get_with_percent_encoded_query() {
    let server = start_server();
    let encoded = "SELECT%20(COUNT(%3Fs)%20AS%20%3Fn)%20WHERE%20%7B%20%3Fs%20a%20%3Chttp%3A%2F%2Fxmlns.com%2Ffoaf%2F0.1%2FPerson%3E%20%7D";
    let (status, head, body) = roundtrip(
        &server,
        &format!("GET /sparql?query={encoded} HTTP/1.1\r\nHost: x\r\n\r\n"),
    );
    assert_eq!(status, 200);
    assert!(head.contains("application/sparql-results+json"));
    let results = QueryResults::from_sparql_json(std::str::from_utf8(&body).unwrap()).unwrap();
    let rows = results.into_select().unwrap();
    assert_eq!(rows.value(0, "n").unwrap().label(), "10");
    server.shutdown();
}

#[test]
fn post_direct_and_form_bodies() {
    let server = start_server();
    let (status, _, body) = roundtrip(
        &server,
        &format!(
            "POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{}",
            COUNT_QUERY.len(),
            COUNT_QUERY
        ),
    );
    assert_eq!(status, 200);
    assert!(String::from_utf8(body).unwrap().contains("\"10\""));

    let form = "other=1&query=ASK%20%7B%20%3Fs%20a%20%3Chttp%3A%2F%2Fxmlns.com%2Ffoaf%2F0.1%2FPerson%3E%20%7D";
    let (status, _, body) = roundtrip(
        &server,
        &format!(
            "POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{}",
            form.len(),
            form
        ),
    );
    assert_eq!(status, 200);
    assert_eq!(
        QueryResults::from_sparql_json(std::str::from_utf8(&body).unwrap()).unwrap(),
        QueryResults::Ask(true)
    );
    server.shutdown();
}

#[test]
fn content_negotiation_csv_tsv_and_406() {
    let server = start_server();
    let select =
        "SELECT ?name WHERE { ?s <http://xmlns.com/foaf/0.1/name> ?name } ORDER BY ?name LIMIT 2";
    let send = |accept: &str| {
        roundtrip(
            &server,
            &format!(
                "POST /sparql HTTP/1.1\r\nHost: x\r\nAccept: {accept}\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{}",
                select.len(),
                select
            ),
        )
    };
    let (status, head, body) = send("text/csv");
    assert_eq!(status, 200);
    assert!(head.contains("text/csv"));
    assert_eq!(
        String::from_utf8(body).unwrap(),
        "name\nPerson 0\nPerson 1\n"
    );

    let (status, head, body) = send("text/tab-separated-values");
    assert_eq!(status, 200);
    assert!(head.contains("tab-separated-values"));
    assert_eq!(
        String::from_utf8(body).unwrap(),
        "?name\n\"Person 0\"\n\"Person 1\"\n"
    );

    let (status, _, _) = send("application/xml");
    assert_eq!(status, 406);

    // ASK has no CSV serialization.
    let ask = "ASK { ?s ?p ?o }";
    let (status, _, _) = roundtrip(
        &server,
        &format!(
            "POST /sparql HTTP/1.1\r\nHost: x\r\nAccept: text/csv\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{}",
            ask.len(),
            ask
        ),
    );
    assert_eq!(status, 406);
    server.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = start_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    for i in 0..5 {
        let query = format!("SELECT ?s WHERE {{ ?s a ?c }} LIMIT {}", i + 1);
        stream
            .write_all(
                format!(
                    "POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{}",
                    query.len(),
                    query
                )
                .as_bytes(),
            )
            .expect("send");
        let (status, head, body) = read_response(&mut stream);
        assert_eq!(status, 200);
        assert!(head.contains("Connection: keep-alive"));
        let rows = QueryResults::from_sparql_json(std::str::from_utf8(&body).unwrap())
            .unwrap()
            .into_select()
            .unwrap();
        assert_eq!(rows.len(), i + 1);
    }
    // One TCP connection for all five requests.
    assert_eq!(server.stats().connections_accepted.get(), 1);
    server.shutdown();
}

#[test]
fn traffic_and_plan_cache_are_on_metrics_not_stats() {
    let server = start_server();
    for _ in 0..3 {
        let (status, _, _) = roundtrip(
            &server,
            &format!(
                "POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{}",
                COUNT_QUERY.len(),
                COUNT_QUERY
            ),
        );
        assert_eq!(status, 200);
    }
    // One read-out: the JSON document that repeated /metrics is gone.
    for method in ["GET", "POST"] {
        let (status, _, _) = roundtrip(
            &server,
            &format!("{method} /stats HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"),
        );
        assert_eq!(status, 404, "{method} /stats");
    }
    let (status, _, body) = roundtrip(&server, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    let expo = parse_exposition(std::str::from_utf8(&body).unwrap()).expect("exposition");
    let metric = |name, labels: &[(&str, &str)]| expo.value(name, labels).unwrap();
    assert_eq!(metric("hbold_http_requests_total", &[]), 6.0);
    assert_eq!(
        metric("hbold_http_responses_total", &[("class", "2xx")]),
        3.0
    );
    assert_eq!(
        metric("hbold_http_responses_total", &[("class", "4xx")]),
        2.0
    );
    assert_eq!(
        metric(
            "hbold_http_request_duration_us_count",
            &[("route", "/sparql")]
        ),
        3.0
    );
    assert!(
        metric(
            "hbold_http_request_duration_us_sum",
            &[("route", "/sparql")]
        ) > 0.0
    );
    // The same query three times: the process-wide plan cache must have hits.
    assert!(metric("hbold_plan_cache_hits_total", &[]) >= 2.0);
    server.shutdown();
}

#[test]
fn health_and_unknown_routes() {
    let server = start_server();
    let (status, _, body) = roundtrip(&server, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    assert_eq!(body, b"ok\n");
    let (status, _, _) = roundtrip(&server, "GET /nowhere HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 404);
    // An error body, byte for byte: its detail holds escaped quotes.
    let (status, _, body) = roundtrip(&server, "GET /sparql HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 400);
    let expected = concat!(
        r#"{"error":{"status":400,"reason":"Bad Request","detail":"missing required \"query\" parameter"}}"#,
        "\n"
    );
    assert_eq!(String::from_utf8(body).unwrap(), expected);
    common::json::check(expected).unwrap();
    // /shutdown is disabled unless opted in.
    let (status, _, _) = roundtrip(
        &server,
        "POST /shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 404);
    assert!(!server.shutdown_requested());
    server.shutdown();
}

#[test]
fn graceful_shutdown_stops_accepting() {
    let server = SparqlServer::start(
        sample_store(2),
        ServerConfig {
            enable_shutdown_route: true,
            read_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();
    let (status, _, body) = roundtrip(
        &server,
        "POST /shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert_eq!(body, b"shutting down\n");
    assert!(server.shutdown_requested());
    server.wait(); // joins acceptor + workers

    // The listener is gone: new connections are refused (or reset at the
    // first byte, depending on platform timing).
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut stream) => {
            let _ = stream.write_all(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
            let mut buf = [0u8; 16];
            matches!(stream.read(&mut buf), Ok(0) | Err(_))
        }
    };
    assert!(refused, "server still answering after graceful shutdown");
}

/// `wait` returns as soon as the `/shutdown` request is answered, not at
/// the next tick of a polling loop.
#[test]
fn wait_returns_right_after_the_shutdown_response() {
    let server = SparqlServer::start(
        sample_store(2),
        ServerConfig {
            enable_shutdown_route: true,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();
    let waiter = std::thread::spawn(move || {
        server.wait();
        Instant::now()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let (status, _, _) = common::send(
        &mut stream,
        "POST /shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
    );
    let answered = Instant::now();
    assert_eq!(status, 200);
    let returned = waiter.join().expect("wait returns");
    let late = returned.saturating_duration_since(answered);
    assert!(
        late < Duration::from_millis(50),
        "wait returned {late:?} after the shutdown response"
    );
}

#[test]
fn head_responses_carry_no_body_and_keep_framing() {
    let server = start_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // HEAD advertises the GET body's Content-Length but must not send the
    // body itself, or the next response on this keep-alive connection would
    // desync.
    stream
        .write_all(b"HEAD /health HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("send");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let head = loop {
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0);
        buf.extend_from_slice(&chunk[..n]);
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break String::from_utf8(buf[..pos].to_vec()).unwrap();
        }
    };
    assert!(head.starts_with("HTTP/1.1 200"));
    assert!(head.contains("Content-Length: 3"), "GET's length: {head}");
    let after_head = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| buf[p + 4..].to_vec())
        .unwrap();
    // The very next bytes on the wire are the second response's status
    // line, not "ok\n".
    stream
        .write_all(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("send second");
    let mut rest = after_head;
    while !rest.windows(4).any(|w| w == b"\r\n\r\n") {
        let n = stream.read(&mut chunk).expect("read second");
        assert!(n > 0);
        rest.extend_from_slice(&chunk[..n]);
    }
    assert!(
        rest.starts_with(b"HTTP/1.1 200"),
        "framing desynced: {:?}",
        String::from_utf8_lossy(&rest[..rest.len().min(40)])
    );
    server.shutdown();
}

#[test]
fn duplicate_content_length_headers_are_rejected() {
    let server = start_server();
    let (status, _, _) = roundtrip(
        &server,
        "POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Type: application/sparql-query\r\nContent-Length: 5\r\nContent-Length: 30\r\n\r\nASK { ?s ?p ?o } and then some",
    );
    assert_eq!(status, 400, "request-smuggling vector must be refused");
    // A comma-joined list value is just as unparseable.
    let (status, _, _) = roundtrip(
        &server,
        "POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Type: application/sparql-query\r\nContent-Length: 5, 5\r\n\r\nhello",
    );
    assert_eq!(status, 400);
    server.shutdown();
}

#[test]
fn flooded_queue_sheds_connections_with_503() {
    // One worker stuck on a held-open keep-alive connection, a queue depth
    // of 1: the third and later connections must be shed with 503 instead
    // of queueing without bound.
    let server = SparqlServer::start(
        sample_store(2),
        ServerConfig {
            workers: 1,
            max_pending_connections: 1,
            read_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    // Occupies the only worker (held open, no request yet).
    let _busy = TcpStream::connect(server.addr()).expect("connect busy");
    std::thread::sleep(Duration::from_millis(100));
    // Fills the queue.
    let _queued = TcpStream::connect(server.addr()).expect("connect queued");
    std::thread::sleep(Duration::from_millis(100));
    // Shed: answered 503 by the acceptor itself.
    let mut shed = TcpStream::connect(server.addr()).expect("connect shed");
    shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut out = Vec::new();
    shed.read_to_end(&mut out).expect("read shed response");
    let text = String::from_utf8_lossy(&out);
    assert!(
        text.starts_with("HTTP/1.1 503"),
        "expected a 503 shed, got {text:?}"
    );
    server.shutdown();
}

#[test]
fn http_1_0_connections_close_after_one_exchange() {
    let server = start_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(b"GET /health HTTP/1.0\r\n\r\n")
        .expect("send");
    let (status, head, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"));
    // The server closes: the next read returns EOF.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read EOF");
    assert!(rest.is_empty());
    server.shutdown();
}
