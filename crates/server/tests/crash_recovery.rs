//! Kill-and-restart recovery tests for the real `hbold-server` binary.
//!
//! The acceptance bar: a server started with `--data-dir`, killed with
//! SIGKILL (no drain, no checkpoint), and restarted must recover to the
//! last committed write and serve **byte-identical** SPARQL results to an
//! in-memory server holding the same data.

use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use hbold_rdf_model::vocab::{foaf, rdf};
use hbold_rdf_model::{Iri, Quad, Triple};
use hbold_server::{ServerConfig, SparqlServer};
use hbold_triple_store::SharedStore;

mod common;

use common::json;
use common::{
    http_get, http_query, http_update, metric, metric_lines, people_graph, percent_encode,
    refused_boot, spawn_server, spawn_server_with_env, temp_dir, write_file,
};

const QUERIES: &[&str] = &[
    "SELECT ?s ?name WHERE { ?s <http://xmlns.com/foaf/0.1/name> ?name } ORDER BY ?name LIMIT 25",
    "SELECT (COUNT(?s) AS ?n) WHERE { ?s a <http://xmlns.com/foaf/0.1/Person> }",
    "SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p",
    "ASK { ?s a <http://xmlns.com/foaf/0.1/Person> }",
    "SELECT ?a ?b WHERE { ?a <http://xmlns.com/foaf/0.1/knows> ?b } ORDER BY ?a ?b LIMIT 40",
];

/// The snapshot, temp-snapshot and log files of a data directory, sorted
/// (the directory's `lock` file left out).
fn store_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".hbs") || name == "wal.log")
        .collect();
    names.sort();
    names
}

#[test]
fn killed_server_restarts_with_byte_identical_results() {
    let dir = temp_dir("kill-restart");
    let data_dir = dir.join("data");
    let data_dir_str = data_dir.to_str().unwrap();
    let nt_str = &write_file(&dir, "people.nt", &people_graph(150).to_ntriples());

    // Boot a durable server that loads the dataset into the empty
    // directory. The load is committed before the server listens, as
    // snapshot generation 1 over an empty log — not as a log record.
    let mut first = spawn_server(&["--data-dir", data_dir_str, "--data", nt_str]);
    let (status, warm_body) = http_query(first.port, QUERIES[0]);
    assert_eq!(status, 200, "durable server answers before the crash");
    assert_eq!(
        store_files(&data_dir),
        ["snapshot-0000000000000001.hbs", "wal.log"],
        "a serving server's loaded directory"
    );
    assert_eq!(
        std::fs::metadata(data_dir.join("wal.log")).unwrap().len(),
        0
    );
    let (_, metrics) = http_get(first.port, "/metrics");
    let metrics = String::from_utf8_lossy(&metrics);
    assert!(
        metrics.lines().any(|l| l == "hbold_wal_appends_total 0"),
        "the load appended to the log:\n{metrics}"
    );
    // SIGKILL: no graceful drain, no shutdown checkpoint — the load's
    // snapshot is all that survives.
    first.kill();

    // Restart from the data directory alone — no --data this time.
    let restarted = spawn_server(&["--data-dir", data_dir_str]);

    // Reference: a plain in-memory server over the same file.
    let reference = spawn_server(&["--data", nt_str]);

    for query in QUERIES {
        let (restarted_status, restarted_body) = http_query(restarted.port, query);
        let (reference_status, reference_body) = http_query(reference.port, query);
        assert_eq!(restarted_status, 200, "query {query:?} on restarted server");
        assert_eq!(reference_status, 200, "query {query:?} on reference server");
        assert_eq!(
            restarted_body, reference_body,
            "byte-identical results for {query:?}"
        );
    }
    // The pre-crash answer is reproduced byte-for-byte too.
    let (_, post_crash_body) = http_query(restarted.port, QUERIES[0]);
    assert_eq!(post_crash_body, warm_body);

    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGKILL arriving mid-update-stream: a durable server absorbs a sequence
/// of graph-scoped SPARQL Update requests over HTTP, is killed with no
/// drain and no checkpoint right after the last acknowledged 204, and the
/// restart must serve results **byte-identical** to an in-memory server
/// that received exactly the same acknowledged updates — every committed
/// named-graph mutation recovered from the WAL alone, nothing extra.
#[test]
fn killed_mid_update_stream_restarts_byte_identical() {
    let dir = temp_dir("kill-mid-updates");
    let data_dir = dir.join("data");
    let data_dir_str = data_dir.to_str().unwrap();

    let updates: Vec<String> = (0..24)
        .map(|i| match i % 3 {
            0 => format!(
                "INSERT DATA {{ GRAPH <http://g.example/{}> {{ <http://e.org/s{i}> <http://e.org/p> \"v{i}\" }} }}",
                i % 4
            ),
            1 => format!(
                "INSERT DATA {{ <http://e.org/s{i}> a <http://xmlns.com/foaf/0.1/Person> . \
                 <http://e.org/s{i}> <http://xmlns.com/foaf/0.1/name> \"Person {i}\" }}"
            ),
            _ => format!(
                "DELETE WHERE {{ GRAPH <http://g.example/{}> {{ <http://e.org/s{}> ?p ?o }} }}",
                (i - 2) % 4,
                i - 2
            ),
        })
        .collect();

    // Durable server, born empty; every update is acknowledged (204 means
    // the WAL record was appended) before the SIGKILL lands.
    let mut durable = spawn_server(&["--data-dir", data_dir_str]);
    for update in &updates {
        assert_eq!(http_update(durable.port, update), 204, "update {update:?}");
    }
    durable.kill();
    assert!(data_dir.join("wal.log").exists(), "the WAL survived");

    // Restart from the data directory alone.
    let restarted = spawn_server(&["--data-dir", data_dir_str]);

    // Reference: an in-memory server replaying the same acknowledged stream.
    let reference = spawn_server(&[]);
    for update in &updates {
        assert_eq!(http_update(reference.port, update), 204);
    }

    let graph_queries = [
        "SELECT ?g ?s ?o WHERE { GRAPH ?g { ?s <http://e.org/p> ?o } } ORDER BY ?g ?s ?o",
        "SELECT (COUNT(?s) AS ?n) WHERE { GRAPH <http://g.example/0> { ?s ?p ?o } }",
        "SELECT ?s ?name WHERE { ?s <http://xmlns.com/foaf/0.1/name> ?name } ORDER BY ?name",
        "SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p",
        "ASK { GRAPH <http://g.example/1> { ?s ?p ?o } }",
    ];
    for query in graph_queries {
        let (restarted_status, restarted_body) = http_query(restarted.port, query);
        let (reference_status, reference_body) = http_query(reference.port, query);
        assert_eq!(
            (restarted_status, reference_status),
            (200, 200),
            "{query:?}"
        );
        assert_eq!(
            restarted_body, reference_body,
            "byte-identical results after SIGKILL mid-update-stream: {query:?}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_checkpoints_so_restart_needs_no_wal() {
    let dir = temp_dir("graceful-checkpoint");
    let data_dir = dir.join("data");
    let nt = write_file(&dir, "people.nt", &people_graph(40).to_ntriples());

    // Boot durable (the load is snapshot generation 1), log one update,
    // then stop through POST /shutdown: the drain must checkpoint the
    // update, leaving one snapshot and an empty WAL.
    let mut server = spawn_server(&[
        "--data-dir",
        data_dir.to_str().unwrap(),
        "--data",
        &nt,
        "--enable-shutdown",
    ]);
    let update =
        "INSERT DATA { <http://example.org/person/40> a <http://xmlns.com/foaf/0.1/Person> }";
    assert_eq!(http_update(server.port, update), 204);
    assert!(std::fs::metadata(data_dir.join("wal.log")).unwrap().len() > 0);
    server.shutdown();

    assert_eq!(
        std::fs::metadata(data_dir.join("wal.log")).unwrap().len(),
        0,
        "shutdown checkpoint compacted the WAL away"
    );
    let snapshots = std::fs::read_dir(&data_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".hbs"))
        .count();
    assert_eq!(snapshots, 1, "exactly one snapshot generation remains");
    assert!(data_dir.join("snapshot-0000000000000002.hbs").exists());

    // And the snapshot alone reproduces the data.
    let restarted = spawn_server(&["--data-dir", data_dir.to_str().unwrap()]);
    let (status, body) = http_query(
        restarted.port,
        "SELECT (COUNT(?s) AS ?n) WHERE { ?s a <http://xmlns.com/foaf/0.1/Person> }",
    );
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("\"41\""));
    // The restore searches the snapshot's sorted base instead of hashing
    // it, and keeps it front-coded: a count reads no term, so most of its
    // blocks are still unbuilt.
    let (_, body) = http_query(restarted.port, "SELECT (COUNT(*) AS ?n) { ?s ?p ?o }");
    assert!(String::from_utf8_lossy(&body).contains("\"120\""));
    let terms = metric(restarted.port, "hbold_store_terms");
    assert!(metric(restarted.port, "hbold_store_hashed_terms") < terms);
    assert!(metric(restarted.port, "hbold_store_materialized_terms") < terms);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A write-ahead log that refuses an update's record costs that update, not
/// the server. With every WAL append failing (`wal_io=1`, process-global,
/// hence the binary) an `INSERT DATA` gets a typed 503 with `Retry-After`
/// and the JSON error body, on a connection that stays open; `/health` and
/// a read answer at once, nothing panicked, and the store and `wal.log` are
/// unchanged — also after a restart without faults.
#[test]
fn a_failed_wal_append_is_a_503_and_leaves_no_trace() {
    let dir = temp_dir("wal-fault");
    let data_dir = dir.join("data");
    let args = [
        "--data-dir",
        data_dir.to_str().unwrap(),
        "--demo-people",
        "5",
        "--workers",
        "1",
    ];
    let mut server = spawn_server_with_env(&args, &[("HBOLD_FAULTS", "seed=1,wal_io=1")]);
    let wal = data_dir.join("wal.log");
    let wal_len = std::fs::metadata(&wal).unwrap().len();
    let count = "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }";
    let (status, triples) = http_query(server.port, count);
    assert_eq!(status, 200);
    let ask = "ASK { <http://example.org/a> <http://example.org/p> \"v\" }";

    let update = "INSERT DATA { <http://example.org/a> <http://example.org/p> \"v\" }";
    let mut stream = TcpStream::connect(("127.0.0.1", server.port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (status, head, body) = common::send(
        &mut stream,
        &format!(
            "POST /update HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/sparql-update\r\nContent-Length: {}\r\n\r\n{update}",
            update.len()
        ),
    );
    let body = String::from_utf8_lossy(&body);
    assert_eq!(status, 503, "{head}\n{body}");
    assert!(head.contains("Retry-After: 1"), "{head}");
    assert!(head.contains("Connection: keep-alive"), "{head}");
    assert!(body.contains("\"status\":503"), "JSON error body: {body}");
    assert!(body.contains("operation 1 of 1 failed"), "{body}");
    assert!(body.contains("injected WAL I/O fault"), "{body}");

    // The same connection, then fresh ones, answer at once.
    let started = Instant::now();
    let (status, _, _) = common::send(
        &mut stream,
        "GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert_eq!(
        http_query(server.port, ask),
        (200, br#"{"head":{},"boolean":false}"#.to_vec())
    );
    assert_eq!(http_query(server.port, count), (200, triples.clone()));
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "the server took {:?} to answer after the failed append",
        started.elapsed()
    );
    let (status, metrics) = http_get(server.port, "/metrics");
    assert_eq!(status, 200);
    let metrics = String::from_utf8_lossy(&metrics);
    for line in [
        "hbold_worker_panics_total 0",
        "hbold_faults_injected_total{fault=\"wal_io\"} 1",
        "hbold_update_requests_total{result=\"error\"} 1",
    ] {
        assert!(
            metrics.lines().any(|l| l == line),
            "no {line:?} in {metrics}"
        );
    }
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), wal_len);
    server.kill();

    let restarted = spawn_server(&args[..2]);
    assert_eq!(
        http_query(restarted.port, ask),
        (200, br#"{"head":{},"boolean":false}"#.to_vec())
    );
    assert_eq!(http_query(restarted.port, count), (200, triples));
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), wal_len);
    let _ = std::fs::remove_dir_all(&dir);
}

/// In-process variant of a kill arriving *mid-append*: the final WAL
/// record is torn in half, and the restarted server must serve exactly the
/// committed prefix — the torn wave rolls back, everything earlier stays.
#[test]
fn torn_wal_tail_rolls_back_only_the_uncommitted_wave() {
    let dir = temp_dir("torn-tail");
    let committed = people_graph(60);
    {
        let (store, _) = SharedStore::open(&dir).unwrap();
        store.bulk_load(committed.iter());
        // The doomed wave, written last.
        let extra = Triple::new(
            Iri::new("http://example.org/uncommitted").unwrap(),
            rdf::type_(),
            foaf::person(),
        );
        let extra = vec![Quad::from(extra)];
        store.apply_update(|_| (Vec::new(), extra)).unwrap();
    } // dropped without checkpoint — the load's snapshot plus the WAL
    let wal = dir.join("wal.log");
    let len = std::fs::metadata(&wal).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .unwrap()
        .set_len(len - 7)
        .unwrap();

    let (recovered, report) = SharedStore::open(&dir).unwrap();
    assert!(report.wal_tail_truncated);
    let durable_server =
        SparqlServer::start(recovered, ServerConfig::default()).expect("serve recovered store");
    let memory_server =
        SparqlServer::start(SharedStore::from_graph(&committed), ServerConfig::default())
            .expect("serve reference store");

    for query in QUERIES {
        let (s1, b1) = http_query(durable_server.addr().port(), query);
        let (s2, b2) = http_query(memory_server.addr().port(), query);
        assert_eq!((s1, s2), (200, 200));
        assert_eq!(b1, b2, "committed prefix only, byte-identical: {query:?}");
    }
    durable_server.shutdown();
    memory_server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A data directory whose log holds a whole (checksum-valid) record of a
/// type this build does not read must stop the boot — exit status 2, the
/// reason on stderr — and must not be "repaired" by truncation.
#[test]
fn a_log_written_by_another_build_stops_the_boot_and_is_left_untouched() {
    let dir = temp_dir("foreign-log");
    {
        let (store, _) = SharedStore::open(&dir).unwrap();
        store.bulk_load(people_graph(5).iter());
    }
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let payload = [9u8, 0]; // tag 9 was never assigned
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&hbold_triple_store::persist::codec::crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    std::fs::write(&wal, &bytes).unwrap();

    let stderr = refused_boot(&["--data-dir", dir.to_str().unwrap()], &[]);
    assert!(stderr.contains("cannot open data directory"), "{stderr}");
    assert!(stderr.contains("unknown record tag 9"), "{stderr}");
    assert_eq!(std::fs::read(&wal).unwrap(), bytes, "the log was modified");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A load that fails commits nothing: a file whose line 40 does not parse,
/// and a valid file whose snapshot cannot be written (`HBOLD_FAULTS`
/// failing every snapshot write), each stop the boot with exit status 2 and
/// the reason on stderr, and leave the data directory without a snapshot,
/// without a temp file and with an empty log.
#[test]
fn a_load_that_fails_exits_2_and_leaves_the_directory_empty() {
    let dir = temp_dir("failed-load");
    let text = people_graph(30).to_ntriples();
    let good = write_file(&dir, "people.nt", &text);
    let mut lines: Vec<&str> = text.lines().collect();
    lines[39] = "<http://example.org/person/7> <http://xmlns.com/foaf/0.1/name> .";
    let bad = write_file(&dir, "broken.nt", &lines.join("\n"));

    let run = |data_dir: &Path, file: &str, faults: &str| {
        let args = ["--data-dir", data_dir.to_str().unwrap(), "--data", file];
        let stderr = refused_boot(&args, &[("HBOLD_FAULTS", faults)]);
        assert_eq!(
            store_files(data_dir),
            ["wal.log"],
            "the failed load left files"
        );
        assert_eq!(
            std::fs::metadata(data_dir.join("wal.log")).unwrap().len(),
            0
        );
        stderr
    };
    let stderr = run(&dir.join("parse-data"), &bad, "");
    assert!(stderr.contains("broken.nt"), "{stderr}");
    assert!(stderr.contains("line 40,"), "{stderr}");
    let stderr = run(&dir.join("fault-data"), &good, "snapshot_io=1");
    assert!(stderr.contains("people.nt"), "{stderr}");
    assert!(stderr.contains("injected snapshot I/O fault"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A browse page after a fresh `--data` load streams in term order (the
/// load numbers the dictionary by `Term::cmp`). One `INSERT DATA` of a fresh
/// IRI appends an id past the sorted run: the same page then plans as top-k
/// and answers the same bytes, and the gauges say the run ended. A SIGKILL
/// and a restart (the load's snapshot plus the insert's log record) change
/// neither the answer, nor the plan, nor the gauges.
#[test]
fn a_browse_page_streams_then_falls_back_to_topk_across_a_kill() {
    let dir = temp_dir("browse");
    let text: String = (0..400)
        .map(|i| {
            let s = format!("<http://ci.example/item/{}>", i * 7919 % 400);
            format!(
                "{s} <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ci.example/Item> .\n\
                 {s} <http://ci.example/label> \"item {i}\" .\n\
                 {s} <http://ci.example/rank> \"{}\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
                i * 31 % 97
            )
        })
        .collect();
    let nt = write_file(&dir, "browse.nt", &text);
    let data_dir = dir.join("data");
    let data_dir = data_dir.to_str().unwrap();
    let page = "SELECT ?s ?p ?o WHERE { ?s a <http://ci.example/Item> . ?s ?p ?o } \
                ORDER BY ?s ?p ?o LIMIT 50 OFFSET 100";
    // The strategies of the traced page's order spans, then the sorted
    // terms and all terms.
    let plan = |port| {
        let target = format!("/sparql?trace=1&query={}", percent_encode(page));
        let doc = json::parse(&String::from_utf8(http_get(port, &target).1).unwrap());
        let orders = json::named(json::at(&doc, "trace"), "order");
        let strategy = |s: &&_| json::at(s, "attrs.strategy").as_str().unwrap().to_owned();
        let terms = ["hbold_store_sorted_terms", "hbold_store_terms"].map(|m| metric(port, m));
        (orders.iter().map(strategy).collect::<Vec<_>>(), terms)
    };
    let mut server = spawn_server(&["--data-dir", data_dir, "--data", &nt]);
    let (strategies, [sorted, terms]) = plan(server.port);
    assert_eq!(strategies, ["stream"]);
    assert_eq!(sorted, terms);
    let (status, fresh) = http_query(server.port, page);
    assert_eq!(status, 200);
    let insert = "INSERT DATA { <http://ci.example/a-fresh-iri> <http://ci.example/label> \"x\" }";
    assert_eq!(http_update(server.port, insert), 204);
    let grown = plan(server.port);
    assert_eq!(grown.0, ["topk"], "an intern past the run still streams");
    let [sorted, terms] = grown.1;
    assert!(sorted < terms, "{sorted} of {terms} terms sorted");
    assert_eq!(http_query(server.port, page), (200, fresh.clone()));
    server.kill();
    let restarted = spawn_server(&["--data-dir", data_dir]);
    assert_eq!(plan(restarted.port), grown);
    assert_eq!(http_query(restarted.port, page), (200, fresh));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Only GSPO is stored, and no directory: every restore derives GPOS and
/// GOSP and rebuilds every directory. The twelve tier series (3 orders ×
/// flat/delta/dead/directory) and twelve byte series (3 orders ×
/// pairs/directory/delta/dead) read the same after a fresh load (its
/// subjects one dense block, so GSPO has a directory), after a SIGKILL
/// restart and after a graceful restart: both restore the load's snapshot.
#[test]
fn every_restore_rebuilds_the_same_tiers_and_directories() {
    let dir = temp_dir("directory");
    let text: String = (0..300)
        .map(|i| {
            format!(
                "<http://ci.example/node/{i}> <http://ci.example/next> <http://ci.example/node/{}> .\n\
                 <http://ci.example/node/{i}> <http://ci.example/label> \"node {i}\" .\n",
                (i + 1) % 300
            )
        })
        .collect();
    let nt = write_file(&dir, "directory.nt", &text);
    let data_dir = dir.join("data");
    let data_dir = data_dir.to_str().unwrap();
    let tiers = |port| {
        let names = ["hbold_index_tier_entries", "hbold_index_bytes"];
        names.map(|name| metric_lines(port, name)).concat()
    };
    let mut server = spawn_server(&["--data-dir", data_dir, "--data", &nt]);
    let loaded = tiers(server.port);
    assert_eq!(loaded.len(), 24, "{loaded:#?}");
    // Eight bytes of pairs for each of the 600 quads, and a directory.
    let value = |series: &str| loaded.iter().find_map(|l| l.strip_prefix(series)).unwrap();
    assert_eq!(
        value("hbold_index_bytes{order=\"gspo\",tier=\"pairs\"} "),
        "4800"
    );
    assert_ne!(
        value("hbold_index_tier_entries{order=\"gspo\",tier=\"directory\"} "),
        "0"
    );
    server.kill();
    let mut restarted = spawn_server(&["--data-dir", data_dir, "--enable-shutdown"]);
    assert_eq!(tiers(restarted.port), loaded, "the SIGKILL restart");
    restarted.shutdown();
    let again = spawn_server(&["--data-dir", data_dir]);
    assert_eq!(tiers(again.port), loaded, "the graceful restart");
    let _ = std::fs::remove_dir_all(&dir);
}
