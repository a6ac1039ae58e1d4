//! A chaos soak for SPARQL Protocol servers: hostile traffic with
//! invariants, not just throughput.
//!
//! Where [`crate::loadgen`] measures a well-behaved closed loop, this module
//! deliberately mixes the traffic a production endpoint actually sees:
//! cheap reads, pathological cross joins that must hit the query deadline,
//! updates, slow-loris clients trickling bytes, and clients that hang up
//! mid-request or refuse to read their response. While the storm runs, the
//! server may also be injecting its own faults (`HBOLD_FAULTS` — operator
//! latency, dropped responses).
//!
//! The soak's verdict is a set of **invariants** checked at the end:
//!
//! 1. *Stable error taxonomy* — every observed status is from the small
//!    expected set; no 500s, no surprise codes.
//! 2. *No torn state* — every update marker the server acknowledged with
//!    204 is present exactly once; every rejected update left nothing. The
//!    final count must sit inside `[committed, committed + unknown]`, where
//!    `unknown` counts updates whose response the transport lost.
//! 3. *Liveness / no worker leak* — after the storm, a sequential burst of
//!    simple queries (one per nominal worker) all answer 200 within the
//!    timeout.
//! 4. *Bounded tail* — cheap reads' p99 stays under a configured bound even
//!    while the pathological lane is being cancelled next door.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hbold_endpoint::http_client::{parse_http_url, HttpConnection, HttpSparqlClient};
use hbold_sparql::QueryResults;

/// Raw TCP connect with a timeout, for the hostile lanes that speak broken
/// HTTP on purpose (the well-behaved lanes go through [`HttpConnection`]).
fn raw_connect(host_port: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let addr = host_port.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::NotFound, "host resolves to nothing")
    })?;
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    Ok(stream)
}

/// Reads whatever the server sent and extracts the status code from the
/// first line, if a well-formed one arrived before the peer closed.
fn read_status(stream: &mut TcpStream) -> Option<u16> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(2).any(|w| w == b"\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let line = buf.split(|&b| b == b'\r').next()?;
    std::str::from_utf8(line)
        .ok()?
        .split(' ')
        .nth(1)?
        .parse()
        .ok()
}

/// Marker predicate the updater lane writes; the torn-state check counts it.
const MARKER_PREDICATE: &str = "http://chaos.hbold/marker";

/// Chaos soak configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosConfig {
    /// The `/sparql` endpoint URL; `/update` and `/health` are derived.
    pub url: String,
    /// How long the storm phase runs.
    pub duration: Duration,
    /// Well-behaved reader connections (cheap query mix).
    pub readers: usize,
    /// Readers issuing a pathological cross join each round — deadline
    /// fodder when the server runs with `--query-timeout-ms`.
    pub heavy_readers: usize,
    /// Updater connections inserting unique marker triples.
    pub updaters: usize,
    /// Slow-loris clients trickling a request byte-by-byte.
    pub slow_clients: usize,
    /// Clients that send a full request and hang up without reading.
    pub disconnectors: usize,
    /// Per-socket timeout for the well-behaved lanes.
    pub timeout: Duration,
    /// Cheap-read p99 bound for the bounded-tail invariant.
    pub max_read_p99: Duration,
}

impl ChaosConfig {
    /// A storm sized for a CI smoke job against `url`.
    pub fn new(url: impl Into<String>) -> Self {
        ChaosConfig {
            url: url.into(),
            duration: Duration::from_secs(5),
            readers: 4,
            heavy_readers: 2,
            updaters: 2,
            slow_clients: 2,
            disconnectors: 2,
            timeout: Duration::from_secs(10),
            max_read_p99: Duration::from_secs(2),
        }
    }
}

/// What the storm observed, plus the invariant verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Responses per status code, all lanes.
    pub status_counts: BTreeMap<u16, usize>,
    /// Exchanges that died on the transport (includes every response the
    /// server's `drop_response` fault tore mid-write).
    pub transport_errors: usize,
    /// Cheap-read p99 latency (µs).
    pub read_p99_us: u64,
    /// Marker inserts the server acknowledged with 204.
    pub updates_committed: usize,
    /// Marker inserts whose outcome the transport lost.
    pub updates_unknown: usize,
    /// Marker triples actually in the store afterwards.
    pub markers_found: u64,
    /// Wall-clock storm duration.
    pub elapsed: Duration,
    /// Invariant violations (empty = the soak passed).
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// `true` when every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// A human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos storm  {:.2} s, transport errors {}\n",
            self.elapsed.as_secs_f64(),
            self.transport_errors
        ));
        for (status, count) in &self.status_counts {
            out.push_str(&format!("  status {status}  {count:>8}\n"));
        }
        out.push_str(&format!(
            "updates      {} committed, {} unknown, {} markers found\n",
            self.updates_committed, self.updates_unknown, self.markers_found
        ));
        out.push_str(&format!("cheap reads  p99 {} µs\n", self.read_p99_us));
        if self.violations.is_empty() {
            out.push_str("invariants   all held\n");
        } else {
            for violation in &self.violations {
                out.push_str(&format!("VIOLATION    {violation}\n"));
            }
        }
        out
    }
}

/// Statuses the armor is *allowed* to answer under chaos: success, client
/// errors for traffic we deliberately malform, 408 for reaped slow clients,
/// 503 for shed/admission/shutdown-cancelled, 504 for deadline kills.
const ALLOWED_STATUSES: &[u16] = &[200, 204, 400, 408, 503, 504];

/// The pathological read: a triple cross product. On any non-trivial store
/// this cannot finish inside a sub-second deadline, so it exercises the
/// cancellation path every round.
pub const PATHOLOGICAL_QUERY: &str =
    "SELECT (COUNT(*) AS ?n) WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }";

/// Cheap reads issued by the well-behaved lane.
const CHEAP_QUERIES: &[&str] = &[
    "ASK { ?s ?p ?o }",
    "SELECT ?s WHERE { ?s a ?c } LIMIT 5",
    "SELECT (COUNT(?s) AS ?n) WHERE { ?s a ?c }",
];

struct LaneResult {
    statuses: Vec<u16>,
    latencies_us: Vec<u64>,
    transport_errors: usize,
    committed: usize,
    unknown: usize,
}

impl LaneResult {
    fn new() -> Self {
        LaneResult {
            statuses: Vec::new(),
            latencies_us: Vec::new(),
            transport_errors: 0,
            committed: 0,
            unknown: 0,
        }
    }
}

fn post(
    conn: &mut Option<HttpConnection>,
    host_port: &str,
    timeout: Duration,
    path: &str,
    content_type: &str,
    body: &str,
) -> Result<u16, ()> {
    if conn.is_none() {
        *conn = HttpConnection::connect(host_port, timeout).ok();
    }
    let Some(live) = conn.as_mut() else {
        return Err(());
    };
    match live.request("POST", path, "*/*", Some((content_type, body.as_bytes()))) {
        Ok(response) => {
            if !response.keep_alive() {
                *conn = None;
            }
            Ok(response.status)
        }
        Err(_) => {
            *conn = None;
            Err(())
        }
    }
}

/// Runs the storm, then checks the invariants (see the module docs).
pub fn run_chaos(config: &ChaosConfig) -> Result<ChaosReport, String> {
    let (host_port, path) = parse_http_url(&config.url)?;
    let deadline = Instant::now() + config.duration;
    let marker_seq = AtomicUsize::new(0);
    let started = Instant::now();

    let lanes: Vec<LaneResult> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let host_port = &host_port;
        let path = &path;
        let marker_seq = &marker_seq;

        // Lane 1: well-behaved cheap readers.
        for worker in 0..config.readers {
            handles.push(scope.spawn(move || {
                let mut lane = LaneResult::new();
                let mut conn = None;
                let mut i = worker; // offset so lanes don't lockstep
                while Instant::now() < deadline {
                    let query = CHEAP_QUERIES[i % CHEAP_QUERIES.len()];
                    i += 1;
                    let sent = Instant::now();
                    match post(
                        &mut conn,
                        host_port,
                        config.timeout,
                        path,
                        "application/sparql-query",
                        query,
                    ) {
                        Ok(status) => {
                            lane.statuses.push(status);
                            lane.latencies_us.push(sent.elapsed().as_micros() as u64);
                        }
                        Err(()) => lane.transport_errors += 1,
                    }
                }
                lane
            }));
        }

        // Lane 2: pathological readers — every query is deadline fodder.
        for _ in 0..config.heavy_readers {
            handles.push(scope.spawn(move || {
                let mut lane = LaneResult::new();
                let mut conn = None;
                while Instant::now() < deadline {
                    match post(
                        &mut conn,
                        host_port,
                        config.timeout,
                        path,
                        "application/sparql-query",
                        PATHOLOGICAL_QUERY,
                    ) {
                        Ok(status) => lane.statuses.push(status),
                        Err(()) => lane.transport_errors += 1,
                    }
                }
                lane
            }));
        }

        // Lane 3: updaters inserting unique markers. 204 = committed; an
        // error status = rejected (and must not have committed); a transport
        // failure = unknown (the server may or may not have applied it).
        for _ in 0..config.updaters {
            handles.push(scope.spawn(move || {
                let mut lane = LaneResult::new();
                let mut conn = None;
                while Instant::now() < deadline {
                    let id = marker_seq.fetch_add(1, Ordering::Relaxed);
                    let update = format!(
                        "INSERT DATA {{ <http://chaos.hbold/item/{id}> <{MARKER_PREDICATE}> \"{id}\" }}"
                    );
                    match post(
                        &mut conn,
                        host_port,
                        config.timeout,
                        "/update",
                        "application/sparql-update",
                        &update,
                    ) {
                        Ok(204) => {
                            lane.statuses.push(204);
                            lane.committed += 1;
                        }
                        Ok(status) => lane.statuses.push(status),
                        Err(()) => {
                            lane.transport_errors += 1;
                            lane.unknown += 1;
                        }
                    }
                }
                lane
            }));
        }

        // Lane 4: slow-loris clients. Trickle a well-formed request one byte
        // at a time, slower than any sane read timeout; the armor must
        // answer 408 (or close) without pinning a worker for the duration.
        for _ in 0..config.slow_clients {
            handles.push(scope.spawn(move || {
                let mut lane = LaneResult::new();
                while Instant::now() < deadline {
                    let Ok(mut stream) = raw_connect(host_port, config.timeout) else {
                        lane.transport_errors += 1;
                        std::thread::sleep(Duration::from_millis(50));
                        continue;
                    };
                    let request = format!(
                        "GET {path}?query=ASK%7B%3Fs%20%3Fp%20%3Fo%7D HTTP/1.1\r\nHost: x\r\n\r\n"
                    );
                    for byte in request.as_bytes() {
                        if stream.write_all(&[*byte]).is_err() {
                            // The server gave up on us — exactly the point.
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(50));
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    // Whether the server answered 408 or just closed, both
                    // are clean outcomes; record a status if one came back.
                    if let Some(status) = read_status(&mut stream) {
                        lane.statuses.push(status);
                    }
                }
                lane
            }));
        }

        // Lane 5: disconnectors — full request, immediate hangup, never
        // read the answer. Any torn write on the server side must be
        // swallowed, not leaked as a 500 or a wedged worker.
        for _ in 0..config.disconnectors {
            handles.push(scope.spawn(move || {
                let mut lane = LaneResult::new();
                while Instant::now() < deadline {
                    match raw_connect(host_port, config.timeout) {
                        Ok(mut stream) => {
                            let body = "ASK { ?s ?p ?o }";
                            let request = format!(
                                "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{}",
                                body.len(),
                                body
                            );
                            let _ = stream.write_all(request.as_bytes());
                            drop(stream); // hang up without reading
                        }
                        Err(_) => lane.transport_errors += 1,
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                lane
            }));
        }

        handles
            .into_iter()
            .map(|h| h.join().expect("chaos lane panicked"))
            .collect()
    });
    let elapsed = started.elapsed();

    // Aggregate.
    let mut status_counts: BTreeMap<u16, usize> = BTreeMap::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut transport_errors = 0;
    let mut committed = 0;
    let mut unknown = 0;
    for lane in lanes {
        for status in lane.statuses {
            *status_counts.entry(status).or_insert(0) += 1;
        }
        latencies.extend(lane.latencies_us);
        transport_errors += lane.transport_errors;
        committed += lane.committed;
        unknown += lane.unknown;
    }
    latencies.sort_unstable();
    let read_p99_us = latencies
        .get(((latencies.len() as f64 * 0.99).ceil() as usize).saturating_sub(1))
        .copied()
        .unwrap_or(0);

    let mut violations = Vec::new();

    // Invariant 1: stable error taxonomy.
    for (status, count) in &status_counts {
        if !ALLOWED_STATUSES.contains(status) {
            violations.push(format!(
                "unexpected status {status} ({count} times) — allowed: {ALLOWED_STATUSES:?}"
            ));
        }
    }

    // Invariant 2: no torn state. Count the markers through a fresh client
    // with a retry budget (the storm is over, but the server may still be
    // finishing cancelled work).
    let client = HttpSparqlClient::new(config.url.clone())
        .with_timeout(config.timeout)
        .with_retry(hbold_endpoint::RetryPolicy::standard());
    let count_query = format!("SELECT (COUNT(?s) AS ?n) WHERE {{ ?s <{MARKER_PREDICATE}> ?o }}");
    let markers_found = match client.query(&count_query) {
        Ok(QueryResults::Select(rows)) => rows
            .value(0, "n")
            .map(|term| term.label().parse::<u64>().unwrap_or(0))
            .unwrap_or(0),
        Ok(other) => {
            violations.push(format!("marker count query answered {other:?}"));
            0
        }
        Err(e) => {
            violations.push(format!("marker count query failed after the storm: {e}"));
            0
        }
    };
    let lo = committed as u64;
    let hi = (committed + unknown) as u64;
    if !(lo..=hi).contains(&markers_found) {
        violations.push(format!(
            "torn state: {markers_found} markers in the store, but {committed} updates \
             were acknowledged ({unknown} lost responses) — expected within [{lo}, {hi}]"
        ));
    }

    // Invariant 3: liveness — the server must still answer simple queries
    // promptly on fresh connections (leaked evaluation slots would stall
    // these).
    for round in 0..(config.readers + config.heavy_readers).max(2) {
        let mut conn = None;
        match post(
            &mut conn,
            &host_port,
            config.timeout,
            &path,
            "application/sparql-query",
            "ASK { ?s ?p ?o }",
        ) {
            Ok(200) => {}
            Ok(status) => {
                violations.push(format!(
                    "post-storm probe {round} answered {status}, not 200"
                ));
                break;
            }
            Err(()) => {
                violations.push(format!(
                    "post-storm probe {round} died on the transport — worker leak or wedged server"
                ));
                break;
            }
        }
    }

    // Invariant 4: bounded tail for cheap reads.
    if Duration::from_micros(read_p99_us) > config.max_read_p99 {
        violations.push(format!(
            "cheap-read p99 {read_p99_us} µs exceeds the {} µs bound",
            config.max_read_p99.as_micros()
        ));
    }

    Ok(ChaosReport {
        status_counts,
        transport_errors,
        read_p99_us,
        updates_committed: committed,
        updates_unknown: unknown,
        markers_found,
        elapsed,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_and_judges() {
        let mut report = ChaosReport {
            status_counts: [(200u16, 50usize), (504u16, 3usize)].into_iter().collect(),
            transport_errors: 2,
            read_p99_us: 1500,
            updates_committed: 10,
            updates_unknown: 1,
            markers_found: 10,
            elapsed: Duration::from_secs(5),
            violations: Vec::new(),
        };
        assert!(report.passed());
        let text = report.render();
        assert!(text.contains("status 504"));
        assert!(text.contains("all held"));
        report.violations.push("torn state".into());
        assert!(!report.passed());
        assert!(report.render().contains("VIOLATION"));
    }

    #[test]
    fn bad_urls_error_out() {
        assert!(run_chaos(&ChaosConfig::new("ftp://nope/x")).is_err());
    }
}
