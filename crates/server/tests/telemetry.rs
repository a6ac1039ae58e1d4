//! End-to-end telemetry tests: the `/metrics` Prometheus exposition and
//! its family list, `?trace=1` execution traces, and the slow-query log
//! emitted by the `hbold-server` binary.

mod common;

use std::net::TcpStream;
use std::time::Duration;

use common::json::{at, named, parse, spans};
use common::{http_query, roundtrip, sample_store, send, spawn_server};
use hbold_server::{ServerConfig, SparqlServer};
use hbold_telemetry::expo::parse_exposition;
use hbold_telemetry::json::JsonValue;

fn start_server(config: ServerConfig) -> SparqlServer {
    SparqlServer::start(sample_store(10), config).expect("server starts")
}

const COUNT_QUERY_ENCODED: &str = "SELECT%20(COUNT(%3Fs)%20AS%20%3Fn)%20WHERE%20%7B%20%3Fs%20a%20%3Chttp%3A%2F%2Fxmlns.com%2Ffoaf%2F0.1%2FPerson%3E%20%7D";

/// Every family a freshly booted server exposes, in render order: the
/// instance registry's, then the process-wide engine and store families.
/// Nothing is registered lazily, so the first scrape already lists them all.
const FAMILIES: &[(&str, &str)] = &[
    ("hbold_admission_rejected_total", "counter"),
    ("hbold_http_connections_accepted_total", "counter"),
    ("hbold_http_malformed_requests_total", "counter"),
    ("hbold_http_request_duration_us", "histogram"),
    ("hbold_http_request_timeouts_total", "counter"),
    ("hbold_http_requests_total", "counter"),
    ("hbold_http_responses_total", "counter"),
    ("hbold_index_bytes", "gauge"),
    ("hbold_index_tier_entries", "gauge"),
    ("hbold_plan_cache_entries", "gauge"),
    ("hbold_query_cancelled_total", "counter"),
    ("hbold_query_timeouts_total", "counter"),
    ("hbold_store_graph_quads", "gauge"),
    ("hbold_store_hashed_terms", "gauge"),
    ("hbold_store_materialized_terms", "gauge"),
    ("hbold_store_named_graphs", "gauge"),
    ("hbold_store_sorted_terms", "gauge"),
    ("hbold_store_terms", "gauge"),
    ("hbold_store_triples", "gauge"),
    ("hbold_update_ops_total", "counter"),
    ("hbold_update_quads_inserted_total", "counter"),
    ("hbold_update_quads_removed_total", "counter"),
    ("hbold_update_requests_total", "counter"),
    ("hbold_worker_panics_total", "counter"),
    ("hbold_checkpoints_total", "counter"),
    ("hbold_index_fold_keys_total", "counter"),
    ("hbold_index_folds_total", "counter"),
    ("hbold_optimizer_bgps_planned_total", "counter"),
    ("hbold_optimizer_bgps_reordered_total", "counter"),
    ("hbold_optimizer_filters_pushed_total", "counter"),
    ("hbold_plan_cache_hits_total", "counter"),
    ("hbold_plan_cache_misses_total", "counter"),
    ("hbold_wal_appends_total", "counter"),
    ("hbold_wal_fsyncs_total", "counter"),
];

#[test]
fn fresh_server_exposes_every_family() {
    let server = start_server(ServerConfig::default());
    let (status, _, body) = roundtrip(&server, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    let types: Vec<(&str, &str)> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.split_once(' '))
        .collect();
    assert_eq!(types, FAMILIES);
    assert_eq!(text.matches("# HELP ").count(), FAMILIES.len());
    server.shutdown();
}

/// Exact values on one keep-alive connection: the `/metrics` request is
/// counted before the exposition renders, and its status and latency
/// after.
#[test]
fn metrics_exposition_reports_exact_traffic() {
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

    let metric = |name: &str, labels: &[(&str, &str)]| -> f64 {
        expo.value(name, labels)
            .unwrap_or_else(|| panic!("/metrics has {name} {labels:?}"))
    };

    // Instance families: exact (single connection, known offsets).
    assert_eq!(metric("hbold_http_connections_accepted_total", &[]), 1.0);
    assert_eq!(metric("hbold_http_requests_total", &[]), 5.0);
    assert_eq!(metric("hbold_http_malformed_requests_total", &[]), 0.0);
    assert_eq!(
        metric("hbold_http_responses_total", &[("class", "2xx")]),
        3.0
    );
    assert_eq!(
        metric("hbold_http_responses_total", &[("class", "4xx")]),
        1.0
    );
    assert_eq!(
        metric(
            "hbold_http_request_duration_us_count",
            &[("route", "/sparql")]
        ),
        3.0
    );
    assert_eq!(
        metric(
            "hbold_http_request_duration_us_count",
            &[("route", "other")]
        ),
        1.0
    );

    // Engine families are process-global (other tests may run concurrently),
    // so they are bounded below by this test's own traffic.
    assert!(metric("hbold_plan_cache_hits_total", &[]) >= 2.0);
    assert!(metric("hbold_plan_cache_misses_total", &[]) >= 1.0);
    assert!(metric("hbold_optimizer_bgps_planned_total", &[]) >= 3.0);
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
    // ...and the load's hash map indexes all of it.
    assert_eq!(
        metric("hbold_store_hashed_terms", &[]),
        metric("hbold_store_terms", &[])
    );
    // ...and its renumbering built every term.
    assert_eq!(
        metric("hbold_store_materialized_terms", &[]),
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
        // Its bytes beside it: 8 per flat key at least (a pair each), more
        // than 4 per offset (each array carries its reference counts), 16
        // per churn key.
        let bytes = |name| metric("hbold_index_bytes", &[("order", order), ("tier", name)]);
        assert!(bytes("pairs") >= 8.0 * tier("flat"), "index {order} pairs");
        assert!(
            bytes("directory") > 4.0 * directory,
            "index {order} directory"
        );
        assert_eq!(bytes("delta"), 16.0 * tier("delta"));
        assert_eq!(bytes("dead"), 16.0 * tier("dead"));
    }
    let byte_series = expo
        .samples
        .iter()
        .filter(|sample| sample.name == "hbold_index_bytes")
        .count();
    assert_eq!(byte_series, 12);
    // The fold counters sit beside them. Process-global like the engine
    // families, and building the 20-triple store was itself one merge.
    assert!(metric("hbold_index_folds_total", &[]) >= 1.0);
    assert!(metric("hbold_index_fold_keys_total", &[]) >= 20.0);

    server.shutdown();
}

fn elapsed(span: &JsonValue) -> f64 {
    at(span, "elapsed_ns").as_f64().unwrap()
}

/// Every span's children add up to at most its own time, and a `bgp` over
/// scans that took time reads more than 0.
fn assert_times_add_up(trace: &JsonValue) {
    for span in spans(trace) {
        let children = at(span, "children").as_array().unwrap();
        let below: f64 = children.iter().map(elapsed).sum();
        let (name, own) = (at(span, "name").as_str().unwrap(), elapsed(span));
        assert!(below <= own, "{name}: children {below} > {own}");
        assert!(name != "bgp" || below == 0.0 || own > 0.0, "{name}");
    }
}

/// A traced query, checked by the recognizer: the root `query` span with
/// its phases, a count tail beside the pattern it consumed, a bgp with its
/// join order, scans with estimates, a plan-cache hit on the second run;
/// then a grouped query with an `OPTIONAL`, whose tree has every kind of
/// span it ran. Every span's times add up.
#[test]
fn trace_query_returns_a_span_tree() {
    let server = start_server(ServerConfig {
        workers: 2,
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut traced = |query: &str| {
        let (status, head, body) = send(
            &mut stream,
            &format!("GET /sparql?query={query}&trace=1 HTTP/1.1\r\nHost: x\r\n\r\n"),
        );
        assert_eq!(status, 200);
        assert!(head.contains("application/json"));
        parse(&String::from_utf8(body).unwrap())
    };
    let doc = traced(COUNT_QUERY_ENCODED);
    let trace_id = at(&doc, "trace_id").as_str().unwrap();
    assert!(
        trace_id.starts_with('c') && trace_id.contains("-r"),
        "trace id {trace_id:?}"
    );
    // The COUNT aggregate projects one row.
    assert_eq!(at(&doc, "rows").as_f64(), Some(1.0));

    let trace = at(&doc, "trace");
    assert_eq!(at(trace, "name").as_str(), Some("query"));
    assert_eq!(at(trace, "attrs.trace_id").as_str(), Some(trace_id));
    assert!(at(trace, "attrs.query").as_str().unwrap().contains("COUNT"));
    let phases = at(trace, "children").as_array().unwrap();
    let children: Vec<_> = phases.iter().map(|c| at(c, "name").as_str()).collect();
    assert_eq!(children, [Some("parse"), Some("plan"), Some("execute")]);
    // The root's time covers its phases (it used to read 0).
    assert!(elapsed(trace) > 0.0);
    assert_times_add_up(trace);
    // The count tail reports under `execute` beside the pattern it consumed.
    let groups = named(trace, "group");
    assert_eq!(groups.len(), 1);
    assert!(elapsed(groups[0]) <= elapsed(&phases[2]));

    // The execute subtree carries per-operator detail: a bgp with its join
    // order, and scans with cardinality estimates and actual row counts.
    let bgps = named(trace, "bgp");
    assert_eq!(bgps.len(), 1);
    at(bgps[0], "attrs.order");
    let scans = named(trace, "scan");
    assert_eq!(scans.len(), 1, "one triple pattern, one scan span");
    at(scans[0], "attrs.estimate");
    at(scans[0], "attrs.pattern");
    assert_eq!(at(scans[0], "rows").as_f64(), Some(10.0));

    // A second identical query hits the plan cache and says so in the trace.
    let doc = traced(COUNT_QUERY_ENCODED);
    let parses = named(at(&doc, "trace"), "parse");
    assert_eq!(at(parses[0], "attrs.cache_hit").as_f64(), Some(1.0));

    let grouped = "SELECT ?c (COUNT(?f) AS ?n) WHERE { ?s a ?c \
                   OPTIONAL { ?s <http://xmlns.com/foaf/0.1/knows> ?f } } GROUP BY ?c";
    let doc = traced(&common::percent_encode(grouped));
    for kind in ["optional", "bgp", "scan", "group", "project"] {
        assert!(!named(at(&doc, "trace"), kind).is_empty(), "no {kind} span");
    }
    for scan in named(at(&doc, "trace"), "scan") {
        at(scan, "attrs.estimate");
    }
    assert_times_add_up(at(&doc, "trace"));

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
/// runs one whose text holds quotes and a newline, and checks the stderr
/// slow-query line with the recognizer: one JSON document carrying the
/// trace id, the query text exactly as sent, and the span tree.
#[test]
fn slow_query_log_emits_a_json_line() {
    let args = [
        "--demo-people",
        "20",
        "--workers",
        "2",
        "--slow-query-ms",
        "0",
        "--enable-shutdown",
    ];
    let mut server = spawn_server(&args);
    let query = "SELECT ?s WHERE {\n ?s a <http://xmlns.com/foaf/0.1/Person> ; ?p \"a \\\"quoted\\\" name\" }";
    assert_eq!(http_query(server.port, query).0, 200);
    let stderr = server.shutdown();
    let line = stderr
        .lines()
        .find(|l| l.contains("\"event\":\"slow_query\""))
        .unwrap_or_else(|| panic!("no slow-query line in stderr: {stderr:?}"));
    let doc = parse(line);
    let trace_id = at(&doc, "trace_id").as_str().unwrap();
    assert!(trace_id.starts_with('c') && trace_id.contains("-r"));
    assert_eq!(at(&doc, "query").as_str(), Some(query));
    assert!(at(&doc, "elapsed_us").as_f64().is_some());
    let trace = at(&doc, "trace");
    assert_eq!(at(trace, "name").as_str(), Some("query"));
    let scans = named(trace, "scan");
    assert!(!scans.is_empty(), "slow-query trace carries scan spans");
    at(scans[0], "attrs.estimate");
    assert_times_add_up(trace);
}
