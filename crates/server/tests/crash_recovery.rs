//! Kill-and-restart recovery tests for the real `hbold-server` binary.
//!
//! The acceptance bar: a server started with `--data-dir`, killed with
//! SIGKILL (no drain, no checkpoint), and restarted must recover to the
//! last committed write and serve **byte-identical** SPARQL results to an
//! in-memory server holding the same data.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use hbold_rdf_model::vocab::{foaf, rdf};
use hbold_rdf_model::{Graph, Iri, Literal, Quad, Triple};
use hbold_server::{ServerConfig, SparqlServer};
use hbold_triple_store::SharedStore;

mod common;

const QUERIES: &[&str] = &[
    "SELECT ?s ?name WHERE { ?s <http://xmlns.com/foaf/0.1/name> ?name } ORDER BY ?name LIMIT 25",
    "SELECT (COUNT(?s) AS ?n) WHERE { ?s a <http://xmlns.com/foaf/0.1/Person> }",
    "SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p",
    "ASK { ?s a <http://xmlns.com/foaf/0.1/Person> }",
    "SELECT ?a ?b WHERE { ?a <http://xmlns.com/foaf/0.1/knows> ?b } ORDER BY ?a ?b LIMIT 40",
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hbold-crash-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn people_graph(n: usize) -> Graph {
    let mut g = Graph::new();
    for i in 0..n {
        let s = Iri::new(format!("http://example.org/person/{i}")).unwrap();
        g.insert(Triple::new(s.clone(), rdf::type_(), foaf::person()));
        g.insert(Triple::new(
            s.clone(),
            foaf::name(),
            Literal::string(format!("Person {i}")),
        ));
        if i > 0 {
            let other = Iri::new(format!("http://example.org/person/{}", i / 2)).unwrap();
            g.insert(Triple::new(s, foaf::knows(), other));
        }
    }
    g
}

fn write_ntriples(graph: &Graph, path: &PathBuf) {
    let mut text = String::new();
    for t in graph.iter() {
        text.push_str(&format!(
            "{} {} {} .\n",
            t.subject.to_ntriples(),
            t.predicate.to_ntriples(),
            t.object.to_ntriples()
        ));
    }
    std::fs::write(path, text).unwrap();
}

/// A spawned `hbold-server` child plus the port it reported on stdout.
struct ServerProcess {
    child: Child,
    port: u16,
}

/// A failed assertion must not leave the child running: it holds the test
/// harness's stderr open, and whoever reads that waits forever.
impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_server(args: &[&str]) -> ServerProcess {
    spawn_server_with_env(args, &[])
}

fn spawn_server_with_env(args: &[&str], env: &[(&str, &str)]) -> ServerProcess {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hbold-server"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .envs(env.iter().copied())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn hbold-server");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let port = loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read server stdout");
        assert!(n > 0, "server exited before announcing its address");
        if let Some(rest) = line.split("http://127.0.0.1:").nth(1) {
            let port: u16 = rest
                .split('/')
                .next()
                .and_then(|p| p.trim().parse().ok())
                .unwrap_or_else(|| panic!("unparsable address line {line:?}"));
            break port;
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
    });
    ServerProcess { child, port }
}

fn percent_encode(query: &str) -> String {
    let mut out = String::new();
    for b in query.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// GET ?query= against a loopback port; returns (status, body bytes).
fn http_query(port: u16, query: &str) -> (u16, Vec<u8>) {
    http_get(port, &format!("/sparql?query={}", percent_encode(query)))
}

/// GET `target` against a loopback port; returns (status, body bytes).
fn http_get(port: u16, target: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = format!("GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head");
    let head = String::from_utf8_lossy(&raw[..head_end]).to_string();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    (status, raw[head_end + 4..].to_vec())
}

/// POST one update request (`application/sparql-update`); returns the status.
fn http_update(port: u16, update: &str) -> u16 {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = format!(
        "POST /update HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/sparql-update\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{update}",
        update.len()
    );
    stream.write_all(request.as_bytes()).expect("send update");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let head = String::from_utf8_lossy(&raw);
    head.split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"))
}

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

fn wait_until_serving(port: u16) {
    for _ in 0..100 {
        if TcpStream::connect(("127.0.0.1", port)).is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("server on port {port} never came up");
}

#[test]
fn killed_server_restarts_with_byte_identical_results() {
    let dir = temp_dir("kill-restart");
    let data_dir = dir.join("data");
    let nt_path = dir.join("people.nt");
    write_ntriples(&people_graph(150), &nt_path);
    let data_dir_str = data_dir.to_str().unwrap();
    let nt_str = nt_path.to_str().unwrap();

    // Boot a durable server that loads the dataset into the empty
    // directory. The load is committed before the server listens, as
    // snapshot generation 1 over an empty log — not as a log record.
    let mut first = spawn_server(&["--data-dir", data_dir_str, "--data", nt_str]);
    wait_until_serving(first.port);
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
    first.child.kill().expect("SIGKILL the server");
    let _ = first.child.wait();

    // Restart from the data directory alone — no --data this time.
    let mut restarted = spawn_server(&["--data-dir", data_dir_str]);
    wait_until_serving(restarted.port);

    // Reference: a plain in-memory server over the same file.
    let mut reference = spawn_server(&["--data", nt_str]);
    wait_until_serving(reference.port);

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

    restarted.child.kill().expect("stop restarted server");
    let _ = restarted.child.wait();
    reference.child.kill().expect("stop reference server");
    let _ = reference.child.wait();
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
    wait_until_serving(durable.port);
    for update in &updates {
        assert_eq!(http_update(durable.port, update), 204, "update {update:?}");
    }
    durable.child.kill().expect("SIGKILL mid update stream");
    let _ = durable.child.wait();
    assert!(data_dir.join("wal.log").exists(), "the WAL survived");

    // Restart from the data directory alone.
    let mut restarted = spawn_server(&["--data-dir", data_dir_str]);
    wait_until_serving(restarted.port);

    // Reference: an in-memory server replaying the same acknowledged stream.
    let mut reference = spawn_server(&[]);
    wait_until_serving(reference.port);
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

    restarted.child.kill().expect("stop restarted server");
    let _ = restarted.child.wait();
    reference.child.kill().expect("stop reference server");
    let _ = reference.child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_checkpoints_so_restart_needs_no_wal() {
    let dir = temp_dir("graceful-checkpoint");
    let data_dir = dir.join("data");
    let nt_path = dir.join("people.nt");
    write_ntriples(&people_graph(40), &nt_path);

    // Boot durable (the load is snapshot generation 1), log one update,
    // then stop through POST /shutdown: the drain must checkpoint the
    // update, leaving one snapshot and an empty WAL.
    let mut server = spawn_server(&[
        "--data-dir",
        data_dir.to_str().unwrap(),
        "--data",
        nt_path.to_str().unwrap(),
        "--enable-shutdown",
    ]);
    wait_until_serving(server.port);
    let update =
        "INSERT DATA { <http://example.org/person/40> a <http://xmlns.com/foaf/0.1/Person> }";
    assert_eq!(http_update(server.port, update), 204);
    assert!(std::fs::metadata(data_dir.join("wal.log")).unwrap().len() > 0);
    let mut stream = TcpStream::connect(("127.0.0.1", server.port)).unwrap();
    stream
        .write_all(b"POST /shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
        .unwrap();
    let mut drain = Vec::new();
    let _ = stream.read_to_end(&mut drain);
    let status = server.child.wait().expect("server exits");
    assert!(status.success(), "graceful shutdown exits 0");

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
    let mut restarted = spawn_server(&["--data-dir", data_dir.to_str().unwrap()]);
    wait_until_serving(restarted.port);
    let (status, body) = http_query(
        restarted.port,
        "SELECT (COUNT(?s) AS ?n) WHERE { ?s a <http://xmlns.com/foaf/0.1/Person> }",
    );
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("\"41\""));
    restarted.child.kill().unwrap();
    let _ = restarted.child.wait();
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
    wait_until_serving(server.port);
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
    server.child.kill().unwrap();
    let _ = server.child.wait();

    let mut restarted = spawn_server(&args[..2]);
    wait_until_serving(restarted.port);
    assert_eq!(
        http_query(restarted.port, ask),
        (200, br#"{"head":{},"boolean":false}"#.to_vec())
    );
    assert_eq!(http_query(restarted.port, count), (200, triples));
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), wal_len);
    restarted.child.kill().unwrap();
    let _ = restarted.child.wait();
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

    let output = Command::new(env!("CARGO_BIN_EXE_hbold-server"))
        .args(["--addr", "127.0.0.1:0", "--data-dir", dir.to_str().unwrap()])
        .output()
        .expect("run hbold-server");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
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
    let good = dir.join("people.nt");
    write_ntriples(&people_graph(30), &good);
    let text = std::fs::read_to_string(&good).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines[39] = "<http://example.org/person/7> <http://xmlns.com/foaf/0.1/name> .";
    let bad = dir.join("broken.nt");
    std::fs::write(&bad, lines.join("\n")).unwrap();

    let run = |data_dir: &Path, file: &Path, faults: &str| {
        let output = Command::new(env!("CARGO_BIN_EXE_hbold-server"))
            .args(["--addr", "127.0.0.1:0", "--data-dir"])
            .arg(data_dir)
            .arg("--data")
            .arg(file)
            .env("HBOLD_FAULTS", faults)
            .output()
            .expect("run hbold-server");
        assert_eq!(output.status.code(), Some(2), "{output:?}");
        assert_eq!(
            store_files(data_dir),
            ["wal.log"],
            "the failed load left files"
        );
        assert_eq!(
            std::fs::metadata(data_dir.join("wal.log")).unwrap().len(),
            0
        );
        String::from_utf8_lossy(&output.stderr).into_owned()
    };
    let stderr = run(&dir.join("parse-data"), &bad, "");
    assert!(stderr.contains("broken.nt"), "{stderr}");
    assert!(stderr.contains("line 40,"), "{stderr}");
    let stderr = run(&dir.join("fault-data"), &good, "snapshot_io=1");
    assert!(stderr.contains("people.nt"), "{stderr}");
    assert!(stderr.contains("injected snapshot I/O fault"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
