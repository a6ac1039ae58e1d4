//! An HTTP client for the SPARQL 1.1 Protocol.
//!
//! This is the network half of the paper's actual scenario: H-BOLD talks to
//! *remote* SPARQL endpoints over HTTP. [`HttpSparqlClient`] sends a query
//! to any SPARQL Protocol server (in this workspace: `hbold_server`) and
//! decodes the `application/sparql-results+json` answer back into the exact
//! [`QueryResults`] the engine would have produced in-process.
//!
//! The transport is a std-only HTTP/1.1 implementation mirroring the server
//! side: [`HttpConnection`] owns one TCP connection and can be reused across
//! requests (keep-alive), which is what the closed-loop load generator in
//! `hbold_bench` drives; the client itself opens a fresh connection per
//! query for simplicity and robustness against server-side idle reaping.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::OnceLock;
use std::time::Duration;

use hbold_sparql::QueryResults;
use hbold_telemetry::{Counter, Registry};

/// Splits an `http://host:port/path` URL into (`host:port`, `path`).
///
/// Only plain `http` is supported — the workspace is offline and std-only,
/// so there is no TLS stack to speak `https` with.
pub fn parse_http_url(url: &str) -> Result<(String, String), String> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("unsupported URL scheme in {url:?} (only http:// works)"))?;
    let (authority, path) = match rest.find('/') {
        Some(idx) => (&rest[..idx], &rest[idx..]),
        None => (rest, "/"),
    };
    if authority.is_empty() {
        return Err(format!("URL {url:?} has no host"));
    }
    let host_port = if authority.contains(':') {
        authority.to_string()
    } else {
        format!("{authority}:80")
    };
    Ok((host_port, path.to_string()))
}

/// Percent-encodes a query-string component (RFC 3986 unreserved characters
/// pass through, everything else is `%XX`-escaped byte-wise).
pub fn percent_encode_component(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// A response read off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpClientResponse {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy — error bodies are for humans).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Whether the server intends to keep the connection open.
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// One TCP connection speaking HTTP/1.1, reusable across requests.
#[derive(Debug)]
pub struct HttpConnection {
    stream: TcpStream,
    buf: Vec<u8>,
    host: String,
    max_response_bytes: usize,
}

/// Response heads larger than this are not a SPARQL endpoint talking.
const MAX_RESPONSE_HEAD_BYTES: usize = 64 * 1024;

/// Default cap on a response body. Remote endpoints are untrusted (the
/// paper's crawl runs against the open web): without a ceiling, a hostile
/// or broken server declaring a huge `Content-Length` — or streaming an
/// unframed body forever — would grow the client buffer until OOM.
pub const DEFAULT_MAX_RESPONSE_BYTES: usize = 64 * 1024 * 1024;

impl HttpConnection {
    /// Connects to `host:port` with `timeout` applied to connect, reads and
    /// writes, and the default response-size cap.
    pub fn connect(host_port: &str, timeout: Duration) -> io::Result<HttpConnection> {
        HttpConnection::connect_with_timeouts(
            host_port,
            timeout,
            timeout,
            DEFAULT_MAX_RESPONSE_BYTES,
        )
    }

    /// Connects with distinct connect and read/write timeouts. A remote
    /// endpoint that accepts fast but answers slowly (the common failure
    /// mode on the open web) deserves a short connect budget and a longer
    /// read budget — one knob forces a bad compromise.
    pub fn connect_with_timeouts(
        host_port: &str,
        connect_timeout: Duration,
        read_timeout: Duration,
        max_response_bytes: usize,
    ) -> io::Result<HttpConnection> {
        let addr = host_port
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "host resolves to nothing"))?;
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_write_timeout(Some(read_timeout))?;
        stream.set_nodelay(true)?;
        Ok(HttpConnection {
            stream,
            buf: Vec::new(),
            host: host_port.to_string(),
            max_response_bytes,
        })
    }

    /// Sends one request and reads the full response. `body` is
    /// `(content_type, bytes)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        accept: &str,
        body: Option<(&str, &[u8])>,
    ) -> io::Result<HttpClientResponse> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nAccept: {accept}\r\n",
            self.host
        );
        if let Some((content_type, bytes)) = body {
            head.push_str(&format!(
                "Content-Type: {content_type}\r\nContent-Length: {}\r\n",
                bytes.len()
            ));
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        if let Some((_, bytes)) = body {
            self.stream.write_all(bytes)?;
        }
        self.stream.flush()?;
        self.read_response()
    }

    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn read_response(&mut self) -> io::Result<HttpClientResponse> {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            if self.buf.len() > MAX_RESPONSE_HEAD_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "response head exceeds 64 KiB",
                ));
            }
            if self.fill()? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before response head finished",
                ));
            }
        };
        let head = String::from_utf8(self.buf[..head_end].to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
        self.buf.drain(..head_end + 4);

        let mut lines = head.lines();
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed status line {status_line:?}"),
                )
            })?;
        let mut headers = Vec::new();
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let response = HttpClientResponse {
            status,
            headers,
            body: Vec::new(),
        };
        let too_big = || {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "response body exceeds the client's size cap",
            )
        };
        let body = match response.header("content-length") {
            Some(v) => {
                let len: usize = v.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "invalid Content-Length")
                })?;
                if len > self.max_response_bytes {
                    return Err(too_big());
                }
                while self.buf.len() < len {
                    if self.fill()? == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid-body",
                        ));
                    }
                }
                self.buf.drain(..len).collect()
            }
            None => {
                // No framing: the body runs to connection close — but never
                // past the cap, whatever the server keeps streaming.
                loop {
                    if self.buf.len() > self.max_response_bytes {
                        return Err(too_big());
                    }
                    if self.fill()? == 0 {
                        break;
                    }
                }
                std::mem::take(&mut self.buf)
            }
        };
        Ok(HttpClientResponse { body, ..response })
    }
}

/// How the client ships the query (all three SPARQL Protocol transports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryTransport {
    /// `GET /sparql?query=...` with percent-encoding.
    Get,
    /// `POST` with `Content-Type: application/sparql-query` (default — no
    /// encoding overhead and no URL length limits).
    #[default]
    PostDirect,
    /// `POST` with a form-encoded `query=` field.
    PostForm,
}

/// What went wrong talking to a remote endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpClientError {
    /// The endpoint URL itself is unusable.
    InvalidUrl(String),
    /// Connect/read/write failure (server down, timeout, reset).
    Io(String),
    /// The server answered with a non-2xx status.
    Status {
        /// HTTP status code.
        status: u16,
        /// Response body (the server's explanation).
        body: String,
    },
    /// The 2xx response body was not a decodable results document.
    Malformed(String),
}

impl fmt::Display for HttpClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpClientError::InvalidUrl(msg) => write!(f, "invalid endpoint URL: {msg}"),
            HttpClientError::Io(msg) => write!(f, "HTTP transport error: {msg}"),
            HttpClientError::Status { status, body } => {
                write!(f, "HTTP {status}: {}", body.trim_end())
            }
            HttpClientError::Malformed(msg) => {
                write!(f, "malformed results from server: {msg}")
            }
        }
    }
}

impl std::error::Error for HttpClientError {}

/// A bounded retry budget with decorrelated-jitter backoff, applied only to
/// *transient* failures (transport errors and 502/503/504 — the server said
/// "try again", or said nothing at all). Deterministic failures (400s,
/// malformed results) are never retried: they would fail identically and
/// the budget would just multiply the damage.
///
/// The backoff is the classic decorrelated jitter:
/// `sleep = min(cap, rand(base, 3 * previous_sleep))`, with a seeded
/// xorshift64 stream so a chaos-run's retry timing reproduces from its seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` = never retry).
    pub max_retries: u32,
    /// Lower bound (and first sleep) of the backoff range.
    pub base: Duration,
    /// Upper bound any single sleep is clamped to.
    pub cap: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries — every failure surfaces immediately (the default).
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            seed: 1,
        }
    }

    /// Three retries, 50 ms base, 2 s cap — a sane interactive budget.
    pub fn standard() -> Self {
        RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 1,
        }
    }

    /// The next backoff sleep. `rng` and `prev` are the caller's loop state
    /// (seeded from [`RetryPolicy::seed`] and [`RetryPolicy::base`]).
    fn next_sleep(&self, rng: &mut u64, prev: Duration) -> Duration {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        let base = self.base.as_millis() as u64;
        let upper = (prev.as_millis() as u64).saturating_mul(3).max(base + 1);
        let jittered = base + *rng % (upper - base);
        Duration::from_millis(jittered).min(self.cap)
    }
}

/// Whether an HTTP-level failure is worth retrying: transport errors
/// (connect refused/reset/timeout) and the transient 5xx family. Matches
/// the `EndpointError::is_transient` taxonomy after `From` conversion.
fn is_transient(error: &HttpClientError) -> bool {
    match error {
        HttpClientError::Io(_) => true,
        HttpClientError::Status { status, .. } => matches!(status, 502 | 503 | 504),
        _ => false,
    }
}

struct RetryCounters {
    retries: Counter,
    exhausted: Counter,
}

/// Client-side retry telemetry, in the process-wide registry so a chaos
/// soak (which embeds clients in the load generator) can assert retries
/// actually happened.
fn retry_counters() -> &'static RetryCounters {
    static COUNTERS: OnceLock<RetryCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = Registry::global();
        RetryCounters {
            retries: reg.counter(
                "hbold_client_retries_total",
                "Transient endpoint failures retried with backoff.",
                &[],
            ),
            exhausted: reg.counter(
                "hbold_client_retry_exhausted_total",
                "Requests that failed even after their full retry budget.",
                &[],
            ),
        }
    })
}

/// A SPARQL Protocol client bound to one endpoint URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpSparqlClient {
    url: String,
    transport: QueryTransport,
    timeout: Duration,
    max_response_bytes: usize,
    retry: RetryPolicy,
}

impl HttpSparqlClient {
    /// A client for `url` (e.g. `http://127.0.0.1:8080/sparql`), defaulting
    /// to the direct-POST transport, a 10 s timeout and a
    /// [`DEFAULT_MAX_RESPONSE_BYTES`] response cap.
    pub fn new(url: impl Into<String>) -> Self {
        HttpSparqlClient {
            url: url.into(),
            transport: QueryTransport::default(),
            timeout: Duration::from_secs(10),
            max_response_bytes: DEFAULT_MAX_RESPONSE_BYTES,
            retry: RetryPolicy::none(),
        }
    }

    /// Overrides the response-body size cap (builder style).
    pub fn with_max_response_bytes(mut self, max_response_bytes: usize) -> Self {
        self.max_response_bytes = max_response_bytes;
        self
    }

    /// Overrides the query transport (builder style).
    pub fn with_transport(mut self, transport: QueryTransport) -> Self {
        self.transport = transport;
        self
    }

    /// Overrides the connect and read/write timeout (builder style).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Arms a retry budget for transient failures (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The endpoint URL this client talks to.
    pub fn url(&self) -> &str {
        &self.url
    }

    /// Sends `query` and decodes the SPARQL-JSON answer, retrying transient
    /// failures within the client's [`RetryPolicy`] budget.
    pub fn query(&self, query: &str) -> Result<QueryResults, HttpClientError> {
        let mut rng = self.retry.seed.max(1); // xorshift has a zero fixed point
        let mut prev = self.retry.base;
        let mut retries = 0;
        loop {
            match self.query_once(query) {
                Err(e) if is_transient(&e) && retries < self.retry.max_retries => {
                    retries += 1;
                    retry_counters().retries.inc();
                    prev = self.retry.next_sleep(&mut rng, prev);
                    std::thread::sleep(prev);
                }
                Err(e) => {
                    if retries > 0 {
                        retry_counters().exhausted.inc();
                    }
                    return Err(e);
                }
                ok => return ok,
            }
        }
    }

    /// One attempt: send `query`, decode the SPARQL-JSON answer.
    fn query_once(&self, query: &str) -> Result<QueryResults, HttpClientError> {
        let response = self.raw_query(query)?;
        if response.status / 100 != 2 {
            return Err(HttpClientError::Status {
                status: response.status,
                body: response.body_text(),
            });
        }
        let text = String::from_utf8(response.body)
            .map_err(|_| HttpClientError::Malformed("results body is not UTF-8".into()))?;
        QueryResults::from_sparql_json(&text).map_err(|e| HttpClientError::Malformed(e.to_string()))
    }

    /// Sends `query` once and returns the raw HTTP response (any status).
    pub fn raw_query(&self, query: &str) -> Result<HttpClientResponse, HttpClientError> {
        let (host_port, path) = parse_http_url(&self.url).map_err(HttpClientError::InvalidUrl)?;
        let mut conn = HttpConnection::connect_with_timeouts(
            &host_port,
            self.timeout,
            self.timeout,
            self.max_response_bytes,
        )
        .map_err(|e| HttpClientError::Io(e.to_string()))?;
        let accept = "application/sparql-results+json";
        let result = match self.transport {
            QueryTransport::Get => {
                let target = format!("{path}?query={}", percent_encode_component(query));
                conn.request("GET", &target, accept, None)
            }
            QueryTransport::PostDirect => conn.request(
                "POST",
                &path,
                accept,
                Some(("application/sparql-query", query.as_bytes())),
            ),
            QueryTransport::PostForm => {
                let form = format!("query={}", percent_encode_component(query));
                conn.request(
                    "POST",
                    &path,
                    accept,
                    Some(("application/x-www-form-urlencoded", form.as_bytes())),
                )
            }
        };
        result.map_err(|e| HttpClientError::Io(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_parsing() {
        assert_eq!(
            parse_http_url("http://127.0.0.1:8080/sparql").unwrap(),
            ("127.0.0.1:8080".into(), "/sparql".into())
        );
        assert_eq!(
            parse_http_url("http://example.org/sparql").unwrap(),
            ("example.org:80".into(), "/sparql".into())
        );
        assert_eq!(
            parse_http_url("http://example.org").unwrap(),
            ("example.org:80".into(), "/".into())
        );
        assert!(parse_http_url("https://example.org/sparql").is_err());
        assert!(parse_http_url("ftp://example.org/x").is_err());
        assert!(parse_http_url("http:///sparql").is_err());
    }

    #[test]
    fn component_encoding_round_trips_through_the_server_decoder() {
        let original = "SELECT ?s WHERE { ?s ?p \"été +&=%\" }";
        let encoded = percent_encode_component(original);
        assert!(!encoded.contains(' '));
        assert!(!encoded.contains('&'));
        assert!(!encoded.contains('+'));
        // Decode with the same rules the server applies to form components.
        let mut decoded = Vec::new();
        let bytes = encoded.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'%' {
                decoded.push(
                    u8::from_str_radix(std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap(), 16)
                        .unwrap(),
                );
                i += 3;
            } else {
                decoded.push(bytes[i]);
                i += 1;
            }
        }
        assert_eq!(String::from_utf8(decoded).unwrap(), original);
    }

    #[test]
    fn hostile_response_sizes_are_capped_not_buffered() {
        use std::io::{Read, Write};

        // A fake "endpoint" that declares an absurd Content-Length and then
        // an unframed endless body: the client must error out at its cap
        // instead of buffering toward OOM.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut sink = [0u8; 1024];
            let _ = stream.read(&mut sink); // swallow the request
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 999999999999\r\n\r\n");
            // Second round: no framing at all, stream until the client
            // hangs up.
            let (mut stream, _) = listener.accept().unwrap();
            let _ = stream.read(&mut sink);
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n");
            let chunk = [b'x'; 4096];
            while stream.write_all(&chunk).is_ok() {}
        });

        let client = HttpSparqlClient::new(format!("http://{addr}/sparql"))
            .with_timeout(Duration::from_secs(5))
            .with_max_response_bytes(64 * 1024);
        // Declared-huge body: rejected on the declaration.
        match client.query("ASK { ?s ?p ?o }") {
            Err(HttpClientError::Io(msg)) => assert!(msg.contains("size cap"), "{msg}"),
            other => panic!("expected capped error, got {other:?}"),
        }
        // Unframed endless body: rejected once the cap is crossed.
        match client.query("ASK { ?s ?p ?o }") {
            Err(HttpClientError::Io(msg)) => assert!(msg.contains("size cap"), "{msg}"),
            other => panic!("expected capped error, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn hostile_nesting_is_a_malformed_error_not_a_stack_overflow() {
        use std::io::{Read, Write};

        // A "200 OK" whose body nests a megabyte deep — bare arrays, arrays
        // under a member the decoder skips, objects all the way down: a
        // recursive decoder dies of stack overflow on each, and takes the
        // crawler with it.
        let deep = |open: &str| open.repeat((1 << 20) / open.len());
        let bodies = [
            deep("["),
            format!("{{\"link\":{}", deep("[")),
            deep("{\"a\":"),
        ];
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for body in bodies {
                let (mut stream, _) = listener.accept().unwrap();
                let mut sink = [0u8; 2048];
                let _ = stream.read(&mut sink);
                let head = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: application/sparql-results+json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                    body.len()
                );
                let _ = stream.write_all(head.as_bytes());
                let _ = stream.write_all(body.as_bytes());
                // Closing with request bytes still unread resets the
                // connection under the client's read: drain until it hangs up.
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let _ = stream.read_to_end(&mut Vec::new());
            }
        });

        let client = HttpSparqlClient::new(format!("http://{addr}/sparql"))
            .with_timeout(Duration::from_secs(5));
        for i in 0..3 {
            match client.query("ASK { ?s ?p ?o }") {
                // The bare array is refused at its first byte; the other two
                // only once the reader has counted its way to the bound.
                Err(HttpClientError::Malformed(msg)) => {
                    assert!(i == 0 || msg.contains("nesting deeper than 128"), "{msg}")
                }
                other => panic!("expected a malformed-body error, got {other:?}"),
            }
        }
        server.join().unwrap();
    }

    #[test]
    fn unreachable_servers_are_io_errors() {
        // Port 1 on loopback: nothing listens there.
        let client = HttpSparqlClient::new("http://127.0.0.1:1/sparql")
            .with_timeout(Duration::from_millis(200));
        match client.query("ASK { ?s ?p ?o }") {
            Err(HttpClientError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn transient_classification_drives_retries() {
        assert!(is_transient(&HttpClientError::Io("reset".into())));
        for status in [502, 503, 504] {
            assert!(is_transient(&HttpClientError::Status {
                status,
                body: String::new()
            }));
        }
        // Deterministic failures must never burn the budget.
        assert!(!is_transient(&HttpClientError::Status {
            status: 400,
            body: String::new()
        }));
        assert!(!is_transient(&HttpClientError::Status {
            status: 500,
            body: String::new()
        }));
        assert!(!is_transient(&HttpClientError::Malformed("x".into())));
        assert!(!is_transient(&HttpClientError::InvalidUrl("x".into())));
    }

    #[test]
    fn decorrelated_jitter_is_bounded_and_deterministic() {
        let policy = RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            seed: 42,
        };
        let roll = || {
            let mut rng = policy.seed.max(1);
            let mut prev = policy.base;
            (0..16)
                .map(|_| {
                    prev = policy.next_sleep(&mut rng, prev);
                    prev
                })
                .collect::<Vec<_>>()
        };
        let (a, b) = (roll(), roll());
        assert_eq!(a, b, "same seed, same backoff schedule");
        for sleep in &a {
            assert!(*sleep >= policy.base || *sleep == policy.cap.min(*sleep));
            assert!(*sleep <= policy.cap, "sleep {sleep:?} above the cap");
        }
        assert!(
            a.iter().any(|s| *s == policy.cap),
            "backoff with prev*3 growth reaches the cap within 16 steps"
        );
    }

    #[test]
    fn retry_budget_recovers_a_flaky_server() {
        use std::io::{Read, Write};

        // A server that answers 503 twice, then a real ASK result: a client
        // with a 3-retry budget must succeed; the retry counter must move.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for attempt in 0..3 {
                let (mut stream, _) = listener.accept().unwrap();
                let mut sink = [0u8; 2048];
                let _ = stream.read(&mut sink);
                let reply = if attempt < 2 {
                    "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nRetry-After: 1\r\nConnection: close\r\n\r\n".to_string()
                } else {
                    let body = "{\"head\":{},\"boolean\":true}";
                    format!(
                        "HTTP/1.1 200 OK\r\nContent-Type: application/sparql-results+json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                        body.len(),
                        body
                    )
                };
                let _ = stream.write_all(reply.as_bytes());
            }
        });

        let before = retry_counters().retries.get();
        let client = HttpSparqlClient::new(format!("http://{addr}/sparql"))
            .with_timeout(Duration::from_secs(5))
            .with_retry(RetryPolicy {
                max_retries: 3,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(5),
                seed: 7,
            });
        let result = client.query("ASK { ?s ?p ?o }").expect("retries recover");
        assert_eq!(result, QueryResults::Ask(true));
        assert_eq!(retry_counters().retries.get() - before, 2);
        server.join().unwrap();
    }

    #[test]
    fn deterministic_failures_are_not_retried() {
        use std::io::{Read, Write};

        // One 400 answer; if the client retried, the second accept would
        // hang the test (the listener answers exactly once).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut sink = [0u8; 2048];
            let _ = stream.read(&mut sink);
            let _ = stream.write_all(
                b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
            );
        });
        let client = HttpSparqlClient::new(format!("http://{addr}/sparql"))
            .with_timeout(Duration::from_secs(5))
            .with_retry(RetryPolicy::standard());
        match client.query("SELEKT nonsense") {
            Err(HttpClientError::Status { status: 400, .. }) => {}
            other => panic!("expected unretried 400, got {other:?}"),
        }
        server.join().unwrap();
    }
}
