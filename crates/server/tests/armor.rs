//! Production-armor acceptance tests: query deadlines, admission control,
//! graceful drain-then-cancel, and update atomicity under cancellation.
//!
//! The contract under test: a cancelled query surfaces as a *typed* error
//! response (504 deadline / 503 shutdown-cancel) with the JSON error body —
//! never a truncated result — the armor counters move, the worker is
//! immediately reusable, and a timed-out update commits nothing (store and
//! WAL stay byte-identical).
//!
//! Each connection has its own thread and `workers` bounds only the
//! queries and updates evaluating at once, so idle connections hold
//! nothing and shutdown does not wait for them.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hbold_rdf_model::vocab::{foaf, rdf};
use hbold_rdf_model::{Graph, Iri, Triple};
use hbold_server::{ServerConfig, SparqlServer};
use hbold_triple_store::{PersistOptions, SharedStore};

/// A triple cross join: astronomically large on any non-trivial store, so
/// it cannot finish inside a sub-second deadline.
const CROSS_JOIN: &str = "SELECT (COUNT(*) AS ?n) WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }";

fn people_store(n: usize) -> SharedStore {
    SharedStore::from_graph(&common::people_graph(n))
}

/// One POST round-trip over a fresh connection; returns (status, full text).
fn post(addr: std::net::SocketAddr, path: &str, content_type: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    let text = String::from_utf8_lossy(&out).into_owned();
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    (status, text)
}

/// The tentpole acceptance check: a query running past `--query-timeout-ms`
/// gets a typed 504 within ~2x the deadline, the timeout counter moves, and
/// the worker that evaluated it answers the very next request.
#[test]
fn deadline_produces_a_typed_504_and_a_reusable_worker() {
    let server = SparqlServer::start(
        people_store(200),
        ServerConfig {
            workers: 1, // one worker: reuse below proves release, not luck
            query_timeout: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let started = Instant::now();
    let (status, text) = post(
        server.addr(),
        "/sparql",
        "application/sparql-query",
        CROSS_JOIN,
    );
    let elapsed = started.elapsed();
    assert_eq!(status, 504, "got: {text}");
    assert!(text.contains("\"error\""), "JSON error body: {text}");
    assert!(text.contains("deadline"), "detail names the cause: {text}");
    assert!(
        elapsed < Duration::from_secs(5),
        "504 took {elapsed:?} for a 100 ms deadline — cancellation is not cooperative"
    );
    assert_eq!(server.stats().query_timeouts.get(), 1);

    // The single worker is immediately reusable: a cheap query answers now.
    let started = Instant::now();
    let (status, _) = post(
        server.addr(),
        "/sparql",
        "application/sparql-query",
        "ASK { ?s ?p ?o }",
    );
    assert_eq!(status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "worker not released after a cancelled query"
    );
    server.shutdown();
}

/// The deadline also reaches a join that hands nothing downstream: every row
/// of this cross product is rejected by the filter, so a token polled only
/// where rows leave the pipeline is never looked at and the query runs to
/// completion (a 200 with zero rows, long after the deadline). Polled at the
/// scan stages it is a 504 like any other, and the worker comes back.
#[test]
fn deadline_reaches_a_join_that_produces_no_rows() {
    let server = SparqlServer::start(
        people_store(50),
        ServerConfig {
            workers: 1,
            query_timeout: Some(Duration::from_millis(50)),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let (status, text) = post(
        server.addr(),
        "/sparql",
        "application/sparql-query",
        "SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i FILTER(STR(?a) = \"nope\") }",
    );
    assert_eq!(status, 504, "got: {text}");
    assert_eq!(server.stats().query_timeouts.get(), 1);

    let (status, _) = post(
        server.addr(),
        "/sparql",
        "application/sparql-query",
        "ASK { ?s ?p ?o }",
    );
    assert_eq!(status, 200, "the one worker serves the next request");
    server.shutdown();
}

/// Query-level admission control: with the census full, new queries are
/// rejected up front with 503 + `Retry-After` (distinct from the
/// connection-level shed) and the rejection counter moves.
#[test]
fn admission_limit_rejects_with_503_and_retry_after() {
    let server = SparqlServer::start(
        people_store(200),
        ServerConfig {
            workers: 4, // plenty of workers: the *query* census is the limit
            max_inflight_queries: 1,
            query_timeout: Some(Duration::from_secs(3)), // bounds the test
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let addr = server.addr();
    let occupant =
        std::thread::spawn(move || post(addr, "/sparql", "application/sparql-query", CROSS_JOIN));
    // Give the occupant time to pass admission and start evaluating.
    std::thread::sleep(Duration::from_millis(300));

    let (status, text) = post(
        addr,
        "/sparql",
        "application/sparql-query",
        "ASK { ?s ?p ?o }",
    );
    assert_eq!(status, 503, "got: {text}");
    assert!(text.contains("Retry-After:"), "no Retry-After: {text}");
    assert!(text.contains("\"error\""), "JSON error body: {text}");
    assert!(server.stats().admission_rejected.get() >= 1);

    // The occupant's slot frees on completion (here: its own deadline) and
    // admission opens again.
    let (status, _) = occupant.join().expect("occupant thread");
    assert_eq!(status, 504);
    let (status, _) = post(
        addr,
        "/sparql",
        "application/sparql-query",
        "ASK { ?s ?p ?o }",
    );
    assert_eq!(status, 200);
    server.shutdown();
}

/// Update atomicity under cancellation: an `INSERT ... WHERE` whose WHERE
/// clause hits the deadline mid-evaluation must leave the durable store
/// *and its WAL* byte-identical — no partial delta, no torn log record.
#[test]
fn timed_out_update_leaves_store_and_wal_byte_identical() {
    let dir = common::temp_dir("atomic-update");
    let (store, _report) = SharedStore::open_with(dir.to_str().unwrap(), PersistOptions::default())
        .expect("open durable store");
    let mut g = Graph::new();
    for i in 0..100 {
        let s = Iri::new(format!("http://example.org/item/{i}")).unwrap();
        g.insert(Triple::new(s, rdf::type_(), foaf::person()));
    }
    store.bulk_load(g.iter());

    let server = SparqlServer::start(
        store.clone(),
        ServerConfig {
            workers: 2,
            query_timeout: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let wal_before = std::fs::read(dir.join("wal.log")).expect("wal exists");
    let len_before = store.len();

    let update = "INSERT { ?a <http://example.org/p> ?c } \
                  WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }";
    let (status, text) = post(
        server.addr(),
        "/update",
        "application/sparql-update",
        update,
    );
    assert_eq!(status, 504, "got: {text}");
    assert!(text.contains("deadline"), "typed cause: {text}");
    assert_eq!(server.stats().query_timeouts.get(), 1);

    let wal_after = std::fs::read(dir.join("wal.log")).expect("wal exists");
    assert_eq!(
        wal_before, wal_after,
        "a cancelled update appended to the WAL"
    );
    assert_eq!(
        store.len(),
        len_before,
        "a cancelled update mutated the store"
    );

    // A well-formed update still commits afterwards — the armor rejected
    // one update, not the write path.
    let (status, _) = post(
        server.addr(),
        "/update",
        "application/sparql-update",
        "INSERT DATA { <http://example.org/ok> <http://example.org/p> \"v\" }",
    );
    assert_eq!(status, 204);
    assert_eq!(store.len(), len_before + 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful shutdown with an in-flight query: the server waits out the
/// drain window, then *cancels* the query (typed 503) instead of hanging
/// forever or killing the connection mid-response.
#[test]
fn shutdown_drains_then_cancels_inflight_queries() {
    let server = SparqlServer::start(
        people_store(200),
        ServerConfig {
            workers: 2,
            // No query deadline: only the shutdown cancel can stop the join.
            shutdown_drain: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let addr = server.addr();
    let inflight =
        std::thread::spawn(move || post(addr, "/sparql", "application/sparql-query", CROSS_JOIN));
    std::thread::sleep(Duration::from_millis(300)); // let it start evaluating

    let started = Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "shutdown took {elapsed:?} with a 200 ms drain window"
    );

    let (status, text) = inflight.join().expect("in-flight thread");
    assert_eq!(status, 503, "got: {text}");
    assert!(
        text.contains("cancelled") || text.contains("shutting down"),
        "typed shutdown-cancel body: {text}"
    );
}

/// Keep-alive clients that went idle, and a connection that never said
/// anything, hold no worker. With `workers: 2`
/// and three such connections open, a fresh `/health` answers at once
/// instead of waiting out their read timeout, and shutdown closes them
/// instead of waiting for them.
#[test]
fn idle_connections_hold_no_worker_and_do_not_delay_shutdown() {
    let server = SparqlServer::start(
        people_store(10),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let health = "GET /health HTTP/1.1\r\nHost: x\r\n\r\n";
    let mut idle: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            assert_eq!(common::send(&mut stream, health).0, 200);
            stream
        })
        .collect();
    let _silent = TcpStream::connect(server.addr()).expect("connect silent");
    std::thread::sleep(Duration::from_millis(50));

    let started = Instant::now();
    let (status, _, _) = common::roundtrip(&server, health);
    let elapsed = started.elapsed();
    assert_eq!(status, 200);
    assert!(
        elapsed < Duration::from_millis(100),
        "/health took {elapsed:?} behind idle connections"
    );

    let started = Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "shutdown took {elapsed:?} with idle clients open"
    );
    for stream in &mut idle {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).expect("read EOF"), 0);
    }
}

/// `workers` bounds evaluations: with one slot, the second of two cross
/// joins sent together waits for the first, and its deadline starts only
/// when it gets the slot, so its 504 arrives at least two deadlines after
/// it was sent.
#[test]
fn one_worker_evaluates_one_query_at_a_time_and_a_waiting_deadline_starts_late() {
    let timeout = Duration::from_millis(200);
    let server = SparqlServer::start(
        people_store(200),
        ServerConfig {
            workers: 1,
            query_timeout: Some(timeout),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();
    let sent = Instant::now();
    let joins: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let (status, text) = post(addr, "/sparql", "application/sparql-query", CROSS_JOIN);
                (status, text, sent.elapsed())
            })
        })
        .collect();
    let mut answered: Vec<_> = joins
        .into_iter()
        .map(|join| join.join().expect("client thread"))
        .collect();
    answered.sort_by_key(|(_, _, elapsed)| *elapsed);
    for (status, text, _) in &answered {
        assert_eq!(*status, 504, "got: {text}");
    }
    assert!(
        answered[1].2 >= 2 * timeout,
        "the second 504 came {:?} after sending: its deadline ran while it waited",
        answered[1].2
    );
    assert_eq!(server.stats().query_timeouts.get(), 2);
    server.shutdown();
}

/// A query still waiting for a slot at shutdown starts cancelled when it
/// gets one: with one slot, no deadline and two cross joins, shutdown
/// cancels the running one after the drain window and the waiting one
/// never runs. Both answer a typed 503, and shutdown is bounded.
#[test]
fn shutdown_cancels_a_query_waiting_for_a_slot() {
    let server = SparqlServer::start(
        people_store(200),
        ServerConfig {
            workers: 1,
            shutdown_drain: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();
    let joins: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                post(addr, "/sparql", "application/sparql-query", CROSS_JOIN)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300)); // one evaluating, one waiting

    let started = Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "shutdown took {elapsed:?} with a query waiting for the slot"
    );
    for join in joins {
        let (status, text) = join.join().expect("client thread");
        assert_eq!(status, 503, "got: {text}");
    }
}

/// The admission limit counts a query from admission to its answer, the
/// ones waiting for a slot included: with one slot and a limit of two, a
/// running cross join and a waiting one fill the census, and a third query
/// is refused at once instead of queueing behind them.
#[test]
fn admission_counts_a_query_waiting_for_a_slot() {
    let timeout = Duration::from_millis(500);
    let server = SparqlServer::start(
        people_store(200),
        ServerConfig {
            workers: 1,
            max_inflight_queries: 2,
            query_timeout: Some(timeout),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();
    let mut joins = Vec::new();
    for _ in 0..2 {
        joins.push(std::thread::spawn(move || {
            post(addr, "/sparql", "application/sparql-query", CROSS_JOIN)
        }));
        std::thread::sleep(Duration::from_millis(100)); // one running, then one waiting
    }

    let sent = Instant::now();
    let (status, text) = post(
        addr,
        "/sparql",
        "application/sparql-query",
        "ASK { ?s ?p ?o }",
    );
    let waited = sent.elapsed();
    assert_eq!(status, 503, "got: {text}");
    assert!(text.contains("Retry-After: 1"), "no Retry-After: {text}");
    assert!(
        waited < Duration::from_millis(200),
        "the refusal took {waited:?}"
    );
    assert_eq!(server.stats().admission_rejected.get(), 1);
    for join in joins {
        let (status, text) = join.join().expect("client thread");
        assert_eq!(status, 504, "got: {text}");
    }
    server.shutdown();
}

/// An update's `WHERE` evaluates beside the published store, not under its
/// lock: while a deadline-bound `INSERT … WHERE` cross join evaluates, an
/// `ASK` and a `/metrics` scrape answer at once, and the update still ends
/// in its typed 504.
#[test]
fn a_read_does_not_wait_for_an_update_s_where() {
    let server = SparqlServer::start(
        people_store(500),
        ServerConfig {
            workers: 2,
            query_timeout: Some(Duration::from_millis(1500)),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();
    let update = std::thread::spawn(move || {
        post(
            addr,
            "/update",
            "application/sparql-update",
            "INSERT { ?a <http://example.org/p> ?c } WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }",
        )
    });
    std::thread::sleep(Duration::from_millis(300)); // the WHERE is evaluating

    let sent = Instant::now();
    let (status, text) = post(
        addr,
        "/sparql",
        "application/sparql-query",
        "ASK { ?s ?p ?o }",
    );
    assert_eq!(status, 200, "got: {text}");
    let (status, _, _) = common::roundtrip(&server, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    let waited = sent.elapsed();
    assert!(
        waited < Duration::from_millis(500),
        "the read and the scrape took {waited:?} behind the update"
    );
    let (status, text) = update.join().expect("update thread");
    assert_eq!(status, 504, "got: {text}");
    server.shutdown();
}

/// Content negotiation reads the query's form before evaluating: an `ASK`
/// that costs its whole deadline as JSON is refused as CSV or TSV at once.
#[test]
fn an_ask_that_cannot_be_written_is_refused_before_it_runs() {
    let server = SparqlServer::start(
        people_store(200),
        ServerConfig {
            query_timeout: Some(Duration::from_millis(1500)),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let ask = "ASK { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i FILTER(CONTAINS(STR(?i), \"no such text\")) }";
    let request = |accept: &str| {
        format!(
            "POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Type: application/sparql-query\r\nAccept: {accept}\r\nContent-Length: {}\r\n\r\n{ask}",
            ask.len()
        )
    };
    for accept in ["text/csv", "text/tab-separated-values"] {
        let sent = Instant::now();
        let (status, _, body) = common::roundtrip(&server, &request(accept));
        let waited = sent.elapsed();
        assert_eq!(status, 406, "{}", String::from_utf8_lossy(&body));
        assert!(
            waited < Duration::from_millis(100),
            "the 406 for {accept} took {waited:?}"
        );
    }
    // The same ASK, written as JSON, really does run into the deadline.
    let (status, _, body) = common::roundtrip(&server, &request("application/sparql-results+json"));
    assert_eq!(status, 504, "{}", String::from_utf8_lossy(&body));
    server.shutdown();
}
