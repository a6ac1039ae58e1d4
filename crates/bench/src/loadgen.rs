//! A closed-loop HTTP load generator for SPARQL Protocol servers.
//!
//! N connections × M requests each: every connection is a keep-alive HTTP
//! session that issues its next query as soon as the previous answer lands
//! (closed-loop, so offered load adapts to server speed instead of piling
//! up). The report carries exact (sorted-sample) p50/p95/p99 latencies and
//! end-to-end throughput.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hbold_endpoint::http_client::{parse_http_url, HttpConnection};
use hbold_telemetry::expo::{parse_exposition, Exposition};

/// Load-generator configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadGenConfig {
    /// The SPARQL endpoint URL, e.g. `http://127.0.0.1:8080/sparql`.
    pub url: String,
    /// Concurrent connections (client threads).
    pub connections: usize,
    /// Requests per connection.
    pub requests_per_connection: usize,
    /// Query mix, issued round-robin (offset per connection so concurrent
    /// workers don't lockstep on one shape).
    pub queries: Vec<String>,
    /// Socket timeout per operation.
    pub timeout: Duration,
}

impl LoadGenConfig {
    /// A default mixed workload against `url`: the statistics shapes the
    /// extraction pipeline issues, plus a cheap ASK.
    pub fn new(url: impl Into<String>) -> Self {
        LoadGenConfig {
            url: url.into(),
            connections: 8,
            requests_per_connection: 25,
            queries: vec![
                "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c".into(),
                "SELECT (COUNT(DISTINCT ?p) AS ?n) WHERE { ?s ?p ?o }".into(),
                "SELECT ?s WHERE { ?s a ?c } ORDER BY ?s LIMIT 20".into(),
                "ASK { ?s ?p ?o }".into(),
            ],
            timeout: Duration::from_secs(10),
        }
    }
}

/// What a load run measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadReport {
    /// Requests attempted (`connections × requests_per_connection`).
    pub total_requests: usize,
    /// Responses in the 2xx class.
    pub ok_2xx: usize,
    /// Responses outside the 2xx class.
    pub non_2xx: usize,
    /// Requests that died on the transport (connect/read/write failure).
    pub transport_errors: usize,
    /// Responses per status code.
    pub status_counts: BTreeMap<u16, usize>,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Exact latency percentiles over successful exchanges, in microseconds.
    pub p50_us: u64,
    /// 95th percentile latency (µs).
    pub p95_us: u64,
    /// 99th percentile latency (µs).
    pub p99_us: u64,
    /// Slowest exchange (µs).
    pub max_us: u64,
}

impl LoadReport {
    /// `true` when every single request was answered 2xx.
    pub fn all_2xx(&self) -> bool {
        self.ok_2xx == self.total_requests && self.transport_errors == 0
    }

    /// Completed requests per second over the whole run.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            (self.ok_2xx + self.non_2xx) as f64 / secs
        }
    }

    /// A human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "requests     {:>8}  (2xx {}, non-2xx {}, transport errors {})\n",
            self.total_requests, self.ok_2xx, self.non_2xx, self.transport_errors
        ));
        for (status, count) in &self.status_counts {
            out.push_str(&format!("  status {status}  {count:>8}\n"));
        }
        out.push_str(&format!(
            "elapsed      {:>8.2} s   throughput {:>9.1} req/s\n",
            self.elapsed.as_secs_f64(),
            self.throughput_rps()
        ));
        out.push_str(&format!(
            "latency      p50 {} µs   p95 {} µs   p99 {} µs   max {} µs\n",
            self.p50_us, self.p95_us, self.p99_us, self.max_us
        ));
        out
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the closed loop and gathers the report.
///
/// Each connection reconnects (once per failure) if the server drops it
/// mid-run — a dropped keep-alive session otherwise counts all its
/// remaining requests as transport errors.
pub fn run_load(config: &LoadGenConfig) -> LoadReport {
    let (host_port, path) = match parse_http_url(&config.url) {
        Ok(parts) => parts,
        Err(_) => {
            // An unusable URL fails every request up front.
            return LoadReport {
                total_requests: config.connections * config.requests_per_connection,
                ok_2xx: 0,
                non_2xx: 0,
                transport_errors: config.connections * config.requests_per_connection,
                status_counts: BTreeMap::new(),
                elapsed: Duration::ZERO,
                p50_us: 0,
                p95_us: 0,
                p99_us: 0,
                max_us: 0,
            };
        }
    };

    struct WorkerResult {
        latencies_us: Vec<u64>,
        statuses: Vec<u16>,
        transport_errors: usize,
    }

    let started = Instant::now();
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.connections)
            .map(|worker| {
                let host_port = &host_port;
                let path = &path;
                scope.spawn(move || {
                    let mut result = WorkerResult {
                        latencies_us: Vec::with_capacity(config.requests_per_connection),
                        statuses: Vec::with_capacity(config.requests_per_connection),
                        transport_errors: 0,
                    };
                    let mut conn = HttpConnection::connect(host_port, config.timeout).ok();
                    for i in 0..config.requests_per_connection {
                        let query = &config.queries[(worker + i) % config.queries.len()];
                        if conn.is_none() {
                            conn = HttpConnection::connect(host_port, config.timeout).ok();
                        }
                        let Some(live) = conn.as_mut() else {
                            result.transport_errors += 1;
                            continue;
                        };
                        let sent = Instant::now();
                        match live.request(
                            "POST",
                            path,
                            "application/sparql-results+json",
                            Some(("application/sparql-query", query.as_bytes())),
                        ) {
                            Ok(response) => {
                                result.latencies_us.push(sent.elapsed().as_micros() as u64);
                                result.statuses.push(response.status);
                                if !response.keep_alive() {
                                    conn = None;
                                }
                            }
                            Err(_) => {
                                result.transport_errors += 1;
                                conn = None;
                            }
                        }
                    }
                    result
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    let elapsed = started.elapsed();

    let mut latencies: Vec<u64> = Vec::new();
    let mut status_counts: BTreeMap<u16, usize> = BTreeMap::new();
    let mut transport_errors = 0;
    for result in results {
        latencies.extend(result.latencies_us);
        transport_errors += result.transport_errors;
        for status in result.statuses {
            *status_counts.entry(status).or_insert(0) += 1;
        }
    }
    latencies.sort_unstable();
    let ok_2xx: usize = status_counts
        .iter()
        .filter(|(s, _)| **s / 100 == 2)
        .map(|(_, c)| *c)
        .sum();
    let answered: usize = status_counts.values().sum();

    LoadReport {
        total_requests: config.connections * config.requests_per_connection,
        ok_2xx,
        non_2xx: answered - ok_2xx,
        transport_errors,
        status_counts,
        elapsed,
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0),
    }
}

/// Fetches and parses `GET /metrics` from the host serving `url` (any path
/// on the target server, typically the `/sparql` endpoint under load).
pub fn scrape_metrics(url: &str, timeout: Duration) -> Result<Exposition, String> {
    let (host_port, _) = parse_http_url(url)?;
    let mut conn = HttpConnection::connect(&host_port, timeout).map_err(|e| e.to_string())?;
    let response = conn
        .request("GET", "/metrics", "text/plain", None)
        .map_err(|e| e.to_string())?;
    if response.status != 200 {
        return Err(format!("GET /metrics answered {}", response.status));
    }
    let text = std::str::from_utf8(&response.body).map_err(|e| format!("non-UTF-8 body: {e}"))?;
    let expo = parse_exposition(text)?;
    let problems = expo.validate();
    if !problems.is_empty() {
        return Err(format!("invalid exposition: {}", problems.join("; ")));
    }
    Ok(expo)
}

/// Cross-checks a before/after pair of `/metrics` scrapes against what the
/// client measured. Returns the discrepancies (empty = everything agreed).
///
/// The scrapes themselves show up in the server's counters with a known
/// offset: a request is counted *before* `/metrics` renders, its response
/// *after* — so the before-scrape's own request is inside the before
/// snapshot, the after-scrape's inside the after snapshot
/// (`requests delta = answered + 1`), and exactly one scrape response (the
/// before-scrape's 200) lands inside the delta. The `/sparql` latency
/// histogram is untouched by scrapes, so its count must match exactly.
/// With transport errors the client cannot know how many of its failed
/// exchanges the server served, so the checks relax to lower bounds.
pub fn check_scrape_delta(
    before: &Exposition,
    after: &Exposition,
    report: &LoadReport,
) -> Vec<String> {
    let delta = |name: &str, labels: &[(&str, &str)]| -> f64 {
        after.value(name, labels).unwrap_or(0.0) - before.value(name, labels).unwrap_or(0.0)
    };
    let answered = (report.ok_2xx + report.non_2xx) as f64;
    let strict = report.transport_errors == 0;
    let mut problems = Vec::new();
    let mut check = |what: &str, got: f64, want: f64| {
        let ok = if strict { got == want } else { got >= want };
        if !ok {
            let relation = if strict { "" } else { " at least" };
            problems.push(format!(
                "{what}: server saw {got}, client expects{relation} {want}"
            ));
        }
    };
    check(
        "sparql requests (duration histogram count)",
        delta(
            "hbold_http_request_duration_us_count",
            &[("route", "/sparql")],
        ),
        answered,
    );
    check(
        "requests_total (including the after-scrape itself)",
        delta("hbold_http_requests_total", &[]),
        answered + 1.0,
    );
    check(
        "2xx responses (including the before-scrape's own)",
        delta("hbold_http_responses_total", &[("class", "2xx")]),
        report.ok_2xx as f64 + 1.0,
    );
    let non_2xx: f64 = ["1xx", "3xx", "4xx", "5xx"]
        .iter()
        .map(|class| delta("hbold_http_responses_total", &[("class", class)]))
        .sum();
    if strict {
        if non_2xx != report.non_2xx as f64 {
            problems.push(format!(
                "non-2xx responses: server saw {non_2xx}, client expects {}",
                report.non_2xx
            ));
        }
    } else if non_2xx < report.non_2xx as f64 {
        problems.push(format!(
            "non-2xx responses: server saw {non_2xx}, client expects at least {}",
            report.non_2xx
        ));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_over_sorted_samples() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.50), 50);
        assert_eq!(percentile(&samples, 0.95), 95);
        assert_eq!(percentile(&samples, 0.99), 99);
        assert_eq!(percentile(&samples, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.01), 7);
    }

    #[test]
    fn bad_urls_fail_fast() {
        let report = run_load(&LoadGenConfig {
            connections: 2,
            requests_per_connection: 3,
            ..LoadGenConfig::new("ftp://nope.example/x")
        });
        assert_eq!(report.total_requests, 6);
        assert_eq!(report.transport_errors, 6);
        assert!(!report.all_2xx());
    }

    #[test]
    fn report_renders_every_line() {
        let report = LoadReport {
            total_requests: 10,
            ok_2xx: 9,
            non_2xx: 1,
            transport_errors: 0,
            status_counts: [(200u16, 9usize), (400u16, 1usize)].into_iter().collect(),
            elapsed: Duration::from_millis(500),
            p50_us: 120,
            p95_us: 800,
            p99_us: 950,
            max_us: 1000,
        };
        let text = report.render();
        assert!(text.contains("status 200"));
        assert!(text.contains("status 400"));
        assert!(text.contains("p99 950"));
        assert!((report.throughput_rps() - 20.0).abs() < 1e-9);
        assert!(!report.all_2xx());
    }
}
