//! End-to-end telemetry tests: the `/metrics` Prometheus exposition, its
//! agreement with `/stats`, `?trace=1` execution traces, and the slow-query
//! log emitted by the `hbold-server` binary.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use hbold_rdf_model::vocab::{foaf, rdf};
use hbold_rdf_model::{Graph, Iri, Literal, Triple};
use hbold_server::{ServerConfig, SparqlServer};
use hbold_sparql::json::JsonValue;
use hbold_telemetry::expo::parse_exposition;
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

fn start_server(config: ServerConfig) -> SparqlServer {
    SparqlServer::start(sample_store(10), config).expect("server starts")
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

fn send(stream: &mut TcpStream, request: &str) -> (u16, String, Vec<u8>) {
    stream.write_all(request.as_bytes()).expect("send");
    read_response(stream)
}

const COUNT_QUERY_ENCODED: &str = "SELECT%20(COUNT(%3Fs)%20AS%20%3Fn)%20WHERE%20%7B%20%3Fs%20a%20%3Chttp%3A%2F%2Fxmlns.com%2Ffoaf%2F0.1%2FPerson%3E%20%7D";

/// Satellite: every family `/stats` reports must appear in `/metrics` with an
/// agreeing value. All traffic rides one keep-alive connection so the counts
/// are fully deterministic: `/stats` is rendered before its own status and
/// latency are recorded, `/metrics` one request later sees exactly one more.
#[test]
fn metrics_exposition_agrees_with_stats_json() {
    let server = start_server(ServerConfig {
        workers: 1,
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(server.addr()).expect("connect");

    for _ in 0..3 {
        let (status, _, _) = send(
            &mut stream,
            &format!("GET /sparql?query={COUNT_QUERY_ENCODED} HTTP/1.1\r\nHost: x\r\n\r\n"),
        );
        assert_eq!(status, 200);
    }
    let (status, _, _) = send(
        &mut stream,
        "GET /no-such-route HTTP/1.1\r\nHost: x\r\n\r\n",
    );
    assert_eq!(status, 404);

    let (status, _, stats_body) = send(&mut stream, "GET /stats HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    let stats = JsonValue::parse(std::str::from_utf8(&stats_body).unwrap()).expect("stats JSON");

    let (status, head, metrics_body) =
        send(&mut stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "Prometheus content type, got {head:?}"
    );
    let text = std::str::from_utf8(&metrics_body).unwrap();
    let expo = parse_exposition(text).expect("exposition parses");
    assert!(expo.validate().is_empty(), "{:?}", expo.validate());

    let stat = |path: &[&str]| -> f64 {
        let mut v = &stats;
        for key in path {
            v = v.get(key).unwrap_or_else(|| panic!("/stats has {path:?}"));
        }
        v.as_f64().unwrap()
    };
    let metric = |name: &str, labels: &[(&str, &str)]| -> f64 {
        expo.value(name, labels)
            .unwrap_or_else(|| panic!("/metrics has {name} {labels:?}"))
    };

    // Instance families: exact agreement (single connection, known offsets).
    assert_eq!(metric("hbold_http_connections_accepted_total", &[]), 1.0);
    assert_eq!(stat(&["connections_accepted"]), 1.0);
    // The /metrics request itself was counted before rendering.
    assert_eq!(
        metric("hbold_http_requests_total", &[]),
        stat(&["requests_total"]) + 1.0
    );
    assert_eq!(
        metric("hbold_http_malformed_requests_total", &[]),
        stat(&["malformed_requests"])
    );
    // The /stats 200 was recorded after its body rendered.
    assert_eq!(
        metric("hbold_http_responses_total", &[("class", "2xx")]),
        stat(&["responses", "2xx"]) + 1.0
    );
    assert_eq!(
        metric("hbold_http_responses_total", &[("class", "4xx")]),
        stat(&["responses", "4xx"])
    );
    assert_eq!(
        metric(
            "hbold_http_request_duration_us_count",
            &[("route", "/sparql")]
        ),
        stat(&["routes", "/sparql", "count"])
    );
    assert_eq!(
        metric(
            "hbold_http_request_duration_us_count",
            &[("route", "other")]
        ),
        stat(&["routes", "other", "count"]) + 1.0
    );

    // Engine families are process-global (other tests may run concurrently),
    // so the later /metrics scrape can only be >= the /stats snapshot.
    assert!(metric("hbold_plan_cache_hits_total", &[]) >= stat(&["plan_cache", "hits"]));
    assert!(metric("hbold_plan_cache_misses_total", &[]) >= stat(&["plan_cache", "misses"]));
    assert!(
        metric("hbold_optimizer_bgps_planned_total", &[]) >= stat(&["optimizer", "bgps_planned"])
    );
    for family in [
        "hbold_optimizer_bgps_reordered_total",
        "hbold_optimizer_filters_pushed_total",
    ] {
        assert!(
            expo.families().contains(&family.to_string()),
            "/metrics is missing {family}"
        );
    }

    // Scrape-time gauges: 10 people × 2 triples each, three quad indexes of
    // four tiers each.
    assert_eq!(metric("hbold_store_triples", &[]), 20.0);
    // A fresh load: every id is in term order.
    assert!(metric("hbold_store_terms", &[]) > 0.0);
    assert_eq!(
        metric("hbold_store_sorted_terms", &[]),
        metric("hbold_store_terms", &[])
    );
    assert!(metric("hbold_plan_cache_entries", &[]) >= 1.0);
    let tier_series = expo
        .samples
        .iter()
        .filter(|sample| sample.name == "hbold_index_tier_entries")
        .count();
    assert_eq!(tier_series, 12);
    for order in ["gspo", "gpos", "gosp"] {
        let tier = |name| {
            metric(
                "hbold_index_tier_entries",
                &[("order", order), ("tier", name)],
            )
        };
        let total: f64 = ["flat", "delta", "dead"].map(tier).iter().sum();
        assert!(total >= 20.0, "index {order} holds the store, saw {total}");
        // One graph whose ids of each position form a block no wider than
        // its keys: every order has a directory, of at most an offset per
        // key plus one.
        let directory = tier("directory");
        assert!(
            directory > 0.0 && directory <= tier("flat") + 1.0,
            "index {order} has a directory of {directory}"
        );
        // /stats shows the same tiers: no write came between the two reads.
        for name in ["flat", "delta", "dead", "directory"] {
            assert_eq!(stat(&["index", "tiers", order, name]), tier(name));
        }
    }
    // The fold counters sit beside them. Process-global like the engine
    // families, and building the 20-triple store was itself one merge.
    assert!(stat(&["index", "folds"]) >= 1.0);
    assert!(stat(&["index", "fold_keys"]) >= 20.0);
    assert!(metric("hbold_index_folds_total", &[]) >= stat(&["index", "folds"]));
    assert!(metric("hbold_index_fold_keys_total", &[]) >= stat(&["index", "fold_keys"]));

    server.shutdown();
}

fn find_spans<'a>(doc: &'a JsonValue, name: &str, out: &mut Vec<&'a JsonValue>) {
    if doc.get("name").and_then(|n| n.as_str()) == Some(name) {
        out.push(doc);
    }
    if let Some(children) = doc.get("children").and_then(|c| c.as_array()) {
        for child in children {
            find_spans(child, name, out);
        }
    }
}

#[test]
fn trace_query_returns_a_span_tree() {
    let server = start_server(ServerConfig {
        workers: 2,
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let (status, head, body) = send(
        &mut stream,
        &format!("GET /sparql?query={COUNT_QUERY_ENCODED}&trace=1 HTTP/1.1\r\nHost: x\r\n\r\n"),
    );
    assert_eq!(status, 200);
    assert!(head.contains("application/json"));
    let doc = JsonValue::parse(std::str::from_utf8(&body).unwrap()).expect("trace JSON");

    let trace_id = doc.get("trace_id").unwrap().as_str().unwrap();
    assert!(
        trace_id.starts_with('c') && trace_id.contains("-r"),
        "trace id {trace_id:?}"
    );
    // The COUNT aggregate projects one row.
    assert_eq!(doc.get("rows").unwrap().as_f64(), Some(1.0));

    let trace = doc.get("trace").unwrap();
    assert_eq!(trace.get("name").unwrap().as_str(), Some("query"));
    let attrs = trace.get("attrs").unwrap();
    assert_eq!(attrs.get("trace_id").unwrap().as_str(), Some(trace_id));
    assert!(attrs
        .get("query")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("COUNT"));
    let children: Vec<&str> = trace
        .get("children")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|c| c.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(children, ["parse", "plan", "execute"]);
    // The root's time covers its phases (it used to read 0).
    let elapsed = |span: &JsonValue| span.get("elapsed_ns").unwrap().as_f64().unwrap();
    let phases = trace.get("children").unwrap().as_array().unwrap();
    assert!(elapsed(trace) > 0.0);
    assert!(elapsed(trace) >= phases.iter().map(elapsed).sum::<f64>());
    // The count tail reports under `execute` beside the pattern it consumed.
    let mut groups = Vec::new();
    find_spans(trace, "group", &mut groups);
    assert_eq!(groups.len(), 1);
    assert!(elapsed(groups[0]) <= elapsed(&phases[2]));

    // The execute subtree carries per-operator detail: a bgp with its join
    // order, and scans with cardinality estimates and actual row counts.
    let mut bgps = Vec::new();
    find_spans(trace, "bgp", &mut bgps);
    assert_eq!(bgps.len(), 1);
    assert!(bgps[0].get("attrs").unwrap().get("order").is_some());
    let mut scans = Vec::new();
    find_spans(trace, "scan", &mut scans);
    assert_eq!(scans.len(), 1, "one triple pattern, one scan span");
    let scan_attrs = scans[0].get("attrs").unwrap();
    assert!(scan_attrs.get("estimate").is_some());
    assert!(scan_attrs.get("pattern").is_some());
    assert_eq!(scans[0].get("rows").unwrap().as_f64(), Some(10.0));

    // A second identical query hits the plan cache and says so in the trace.
    let (_, _, body) = send(
        &mut stream,
        &format!("GET /sparql?query={COUNT_QUERY_ENCODED}&trace=1 HTTP/1.1\r\nHost: x\r\n\r\n"),
    );
    let doc = JsonValue::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let mut parses = Vec::new();
    find_spans(doc.get("trace").unwrap(), "parse", &mut parses);
    assert_eq!(
        parses[0]
            .get("attrs")
            .unwrap()
            .get("cache_hit")
            .unwrap()
            .as_f64(),
        Some(1.0)
    );

    // Untraced requests on the same server still serve plain SPARQL JSON.
    let (status, head, _) = send(
        &mut stream,
        &format!("GET /sparql?query={COUNT_QUERY_ENCODED} HTTP/1.1\r\nHost: x\r\n\r\n"),
    );
    assert_eq!(status, 200);
    assert!(head.contains("application/sparql-results+json"));
    server.shutdown();
}

/// Boots the real binary with `--slow-query-ms 0` so every query is "slow",
/// runs one query, and asserts the stderr slow-query line is well-formed
/// JSON carrying the trace id, query text, and span tree.
#[test]
fn slow_query_log_emits_a_json_line() {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_hbold-server"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--demo-people",
            "20",
            "--workers",
            "2",
            "--slow-query-ms",
            "0",
            "--enable-shutdown",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn hbold-server");

    // The binary prints its OS-picked port on stdout once it is serving.
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut addr = None;
    for _ in 0..20 {
        let mut line = String::new();
        if stdout.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        if let Some(rest) = line.split("http://").nth(1) {
            addr = rest.split("/sparql").next().map(str::to_string);
            break;
        }
    }
    let addr = addr.expect("server printed its address");

    let mut stream = TcpStream::connect(&addr).expect("connect to binary");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let query = "SELECT%20%3Fs%20WHERE%20%7B%20%3Fs%20a%20%3Chttp%3A%2F%2Fxmlns.com%2Ffoaf%2F0.1%2FPerson%3E%20%7D";
    let (status, _, _) = send(
        &mut stream,
        &format!("GET /sparql?query={query} HTTP/1.1\r\nHost: x\r\n\r\n"),
    );
    assert_eq!(status, 200);
    let (status, _, _) = send(
        &mut stream,
        "POST /shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 200);
    drop(stream);

    let output = child.wait_with_output().expect("server exits");
    assert!(output.status.success(), "binary exited {:?}", output.status);
    let stderr = String::from_utf8_lossy(&output.stderr);
    let line = stderr
        .lines()
        .find(|l| l.contains("\"event\":\"slow_query\""))
        .unwrap_or_else(|| panic!("no slow-query line in stderr: {stderr:?}"));
    let doc = JsonValue::parse(line).expect("slow-query line is JSON");
    let trace_id = doc.get("trace_id").unwrap().as_str().unwrap();
    assert!(trace_id.starts_with('c') && trace_id.contains("-r"));
    assert!(doc
        .get("query")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("SELECT"));
    assert!(doc.get("elapsed_us").unwrap().as_f64().is_some());
    let trace = doc.get("trace").unwrap();
    assert_eq!(trace.get("name").unwrap().as_str(), Some("query"));
    let mut scans = Vec::new();
    find_spans(trace, "scan", &mut scans);
    assert!(!scans.is_empty(), "slow-query trace carries scan spans");
    assert!(scans[0].get("attrs").unwrap().get("estimate").is_some());
}
