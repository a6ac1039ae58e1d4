//! HTTP/1.1 message handling: request parsing and response writing.
//!
//! Deliberately std-only and small: exactly the subset of RFC 9112 the
//! SPARQL 1.1 Protocol needs, with hard byte limits at every stage so a
//! malformed or hostile peer can cost at most a bounded allocation and a
//! clean 4xx — never a panic or an unbounded buffer.

use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;

use hbold_telemetry::json::JsonValue;

/// Byte budgets for a single request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum bytes for the request line + headers block.
    pub max_head_bytes: usize,
    /// Maximum bytes for the request body.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// The HTTP version named in the request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpVersion {
    /// `HTTP/1.0` — connections close after one exchange unless the client
    /// opts into keep-alive.
    Http10,
    /// `HTTP/1.1` — persistent by default.
    Http11,
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path component of the request target (no query string).
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Protocol version.
    pub version: HttpVersion,
    /// Headers with lowercased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when none was sent).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this exchange.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            Some(_) | None => self.version == HttpVersion::Http11,
        }
    }
}

/// Why a request could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The peer closed the connection before sending anything — the normal
    /// end of a keep-alive session, not an error to report.
    Closed,
    /// The socket timed out or failed mid-request.
    Io(io::ErrorKind),
    /// The read timeout fired with a partial request on the wire → 408.
    /// An *idle* timeout (nothing received yet) stays [`RequestError::Io`]:
    /// reaping a silent keep-alive connection deserves a quiet close, not
    /// an error response nobody is reading.
    Timeout,
    /// Malformed request line, header, encoding or body framing → 400.
    BadRequest(String),
    /// The request line exceeded the head budget before its end → 414.
    UriTooLong,
    /// The header block exceeded the head budget → 431.
    HeadersTooLarge,
    /// Declared body larger than the budget → 413.
    BodyTooLarge {
        /// The configured body budget.
        limit: usize,
    },
    /// Body-carrying request without a `Content-Length` → 411.
    LengthRequired,
    /// A version other than HTTP/1.0 or HTTP/1.1 → 505.
    VersionNotSupported,
    /// A framing feature we do not implement (chunked bodies) → 501.
    NotImplemented(String),
}

impl RequestError {
    /// The status line to answer with, or `None` when the connection should
    /// simply be dropped (clean close / transport failure).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            RequestError::Closed | RequestError::Io(_) => None,
            RequestError::Timeout => Some((408, "Request Timeout")),
            RequestError::BadRequest(_) => Some((400, "Bad Request")),
            RequestError::UriTooLong => Some((414, "URI Too Long")),
            RequestError::HeadersTooLarge => Some((431, "Request Header Fields Too Large")),
            RequestError::BodyTooLarge { .. } => Some((413, "Content Too Large")),
            RequestError::LengthRequired => Some((411, "Length Required")),
            RequestError::VersionNotSupported => Some((505, "HTTP Version Not Supported")),
            RequestError::NotImplemented(_) => Some((501, "Not Implemented")),
        }
    }

    /// Human-readable detail for the error response body.
    pub fn detail(&self) -> String {
        match self {
            RequestError::Closed => "connection closed".into(),
            RequestError::Io(kind) => format!("transport error: {kind:?}"),
            RequestError::Timeout => "request not received within the read timeout".into(),
            RequestError::BadRequest(msg) => msg.clone(),
            RequestError::UriTooLong => "request line too long".into(),
            RequestError::HeadersTooLarge => "header block too large".into(),
            RequestError::BodyTooLarge { limit } => {
                format!("request body exceeds the {limit}-byte limit")
            }
            RequestError::LengthRequired => {
                "Content-Length is required for requests with a body".into()
            }
            RequestError::VersionNotSupported => "only HTTP/1.0 and HTTP/1.1 are supported".into(),
            RequestError::NotImplemented(msg) => msg.clone(),
        }
    }
}

/// A connection with its carry-over read buffer (bytes of the next pipelined
/// request may arrive glued to the current one).
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Connection {
    /// Wraps an accepted stream.
    pub fn new(stream: TcpStream) -> Self {
        Connection {
            stream,
            buf: Vec::new(),
        }
    }

    /// The underlying stream (for shutdown/flush).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Reads one full request, enforcing `limits`.
    pub fn read_request(&mut self, limits: &Limits) -> Result<HttpRequest, RequestError> {
        let head_end = loop {
            if let Some(end) = find_head_end(&self.buf) {
                if end.header_bytes > limits.max_head_bytes {
                    return Err(head_too_large(&self.buf, limits));
                }
                break end;
            }
            if self.buf.len() > limits.max_head_bytes {
                return Err(head_too_large(&self.buf, limits));
            }
            // A timeout with request bytes already on the wire is a slow
            // client: answer 408. A timeout on an empty buffer is an idle
            // keep-alive connection: quiet close.
            let n = match self.fill() {
                Ok(n) => n,
                Err(RequestError::Io(kind)) if is_timeout_kind(kind) && !self.buf.is_empty() => {
                    return Err(RequestError::Timeout)
                }
                Err(e) => return Err(e),
            };
            if n == 0 {
                return Err(if self.buf.is_empty() {
                    RequestError::Closed
                } else {
                    RequestError::BadRequest("connection closed mid-request".into())
                });
            }
        };

        let head = self.buf[..head_end.header_bytes].to_vec();
        self.buf.drain(..head_end.total_bytes);
        let head = String::from_utf8(head)
            .map_err(|_| RequestError::BadRequest("non-UTF-8 bytes in request head".into()))?;
        let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
        let request_line = lines.next().unwrap_or("");
        let (method, target, version) = parse_request_line(request_line)?;
        let headers = parse_headers(lines)?;

        let probe = HttpRequest {
            method,
            path: String::new(),
            query: Vec::new(),
            version,
            headers,
            body: Vec::new(),
        };
        if probe
            .header("transfer-encoding")
            .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
        {
            return Err(RequestError::NotImplemented(
                "chunked transfer encoding is not supported".into(),
            ));
        }
        // Duplicate Content-Length headers are a request-smuggling vector
        // (RFC 9112 §6.3: reject rather than pick one); a comma-joined list
        // value fails the usize parse below for the same reason.
        if probe
            .headers
            .iter()
            .filter(|(k, _)| k == "content-length")
            .count()
            > 1
        {
            return Err(RequestError::BadRequest(
                "multiple Content-Length headers".into(),
            ));
        }
        let body_len = match probe.header("content-length") {
            Some(v) => v
                .trim()
                .parse::<usize>()
                .map_err(|_| RequestError::BadRequest("invalid Content-Length".into()))?,
            None if matches!(probe.method.as_str(), "POST" | "PUT" | "PATCH") => {
                return Err(RequestError::LengthRequired)
            }
            None => 0,
        };
        if body_len > limits.max_body_bytes {
            return Err(RequestError::BodyTooLarge {
                limit: limits.max_body_bytes,
            });
        }
        while self.buf.len() < body_len {
            // Mid-body the head has been consumed, so any read timeout here
            // is by definition a partial request → 408.
            let n = match self.fill() {
                Ok(n) => n,
                Err(RequestError::Io(kind)) if is_timeout_kind(kind) => {
                    return Err(RequestError::Timeout)
                }
                Err(e) => return Err(e),
            };
            if n == 0 {
                return Err(RequestError::BadRequest(
                    "connection closed mid-body".into(),
                ));
            }
        }
        let body: Vec<u8> = self.buf.drain(..body_len).collect();

        let (raw_path, raw_query) = match target.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (target.as_str(), None),
        };
        let path = percent_decode(raw_path, false)
            .map_err(|e| RequestError::BadRequest(format!("bad path encoding: {e}")))?;
        let query = match raw_query {
            Some(q) => parse_query_string(q)
                .map_err(|e| RequestError::BadRequest(format!("bad query string: {e}")))?,
            None => Vec::new(),
        };

        Ok(HttpRequest {
            path,
            query,
            body,
            ..probe
        })
    }

    fn fill(&mut self) -> Result<usize, RequestError> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(RequestError::Io(e.kind())),
            }
        }
    }

    /// Writes a response to the peer. With `head_only` (HEAD requests), the
    /// status line and headers go out — including the `Content-Length` the
    /// matching GET would have — but the body is withheld, as RFC 9110 §9.3.2
    /// requires; sending it would desync keep-alive framing.
    pub fn write_response(&mut self, response: &HttpResponse, head_only: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nServer: hbold-server/{}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            response.status,
            response.reason,
            env!("CARGO_PKG_VERSION"),
            response.content_type,
            response.body.len(),
            if response.close { "close" } else { "keep-alive" },
        );
        for (name, value) in &response.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let body: &[u8] = if head_only { &[] } else { &response.body };
        write_all_vectored(
            &mut self.stream,
            &mut [IoSlice::new(head.as_bytes()), IoSlice::new(body)],
        )?;
        self.stream.flush()
    }

    /// Fault-injection write (`drop_response` chaos family): sends the full
    /// head — advertising the complete `Content-Length` — but only half the
    /// body, then gives up. The caller closes the socket, leaving the peer
    /// with a torn response, exactly what a crashed or partitioned server
    /// produces mid-write.
    pub fn write_response_truncated(&mut self, response: &HttpResponse) -> io::Result<()> {
        self.write_response(response, true)?; // head with the full length
        self.stream
            .write_all(&response.body[..response.body.len() / 2])
    }

    /// Politely tears down a connection that is being rejected mid-request:
    /// sends our FIN first, then reads and discards whatever the peer was
    /// still sending, bounded in bytes and by the socket's read timeout.
    /// Closing with unread input queued makes the kernel answer with an RST,
    /// which can destroy the already-sent error response before the peer
    /// reads it — turning a clean 4xx into a connection-reset race.
    pub fn drain_before_close(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
        let mut chunk = [0u8; 4096];
        let mut budget = 64 * 1024usize;
        while budget > 0 {
            match self.stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => budget = budget.saturating_sub(n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Read timeout or reset: the peer is not finishing; give up.
                Err(_) => return,
            }
        }
    }
}

impl Drop for Connection {
    /// Closes the socket itself, not only this handle: the server's acceptor
    /// keeps a clone of every connection's socket until its next accept.
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// `read(2)` reports an expired socket read timeout as `WouldBlock` on Unix
/// and `TimedOut` on Windows.
fn is_timeout_kind(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

struct HeadEnd {
    /// Bytes of request line + headers, excluding the blank-line terminator.
    header_bytes: usize,
    /// Bytes consumed from the buffer, terminator included.
    total_bytes: usize,
}

/// An over-budget head: if not even the request line finished within the
/// budget, blame the URI (414); otherwise the header block (431).
fn head_too_large(buf: &[u8], limits: &Limits) -> RequestError {
    if buf.iter().take(limits.max_head_bytes).all(|&b| b != b'\n') {
        RequestError::UriTooLong
    } else {
        RequestError::HeadersTooLarge
    }
}

/// Finds the blank line ending the header block; tolerates bare-`\n` line
/// endings the way most real servers do.
fn find_head_end(buf: &[u8]) -> Option<HeadEnd> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if buf.get(i + 1) == Some(&b'\n') {
                return Some(HeadEnd {
                    header_bytes: i,
                    total_bytes: i + 2,
                });
            }
            if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                return Some(HeadEnd {
                    header_bytes: i,
                    total_bytes: i + 3,
                });
            }
        }
        i += 1;
    }
    None
}

fn parse_request_line(line: &str) -> Result<(String, String, HttpVersion), RequestError> {
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let method = parts
        .next()
        .ok_or_else(|| RequestError::BadRequest("empty request line".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| RequestError::BadRequest("request line has no target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| RequestError::BadRequest("request line has no version".into()))?;
    if parts.next().is_some() {
        return Err(RequestError::BadRequest(
            "request line has trailing fields".into(),
        ));
    }
    if !method.chars().all(|c| c.is_ascii_uppercase()) {
        return Err(RequestError::BadRequest(format!(
            "invalid method {method:?}"
        )));
    }
    if !target.starts_with('/') {
        return Err(RequestError::BadRequest(
            "request target must be origin-form (start with '/')".into(),
        ));
    }
    let version = match version {
        "HTTP/1.1" => HttpVersion::Http11,
        "HTTP/1.0" => HttpVersion::Http10,
        v if v.starts_with("HTTP/") => return Err(RequestError::VersionNotSupported),
        _ => {
            return Err(RequestError::BadRequest(
                "request line has no HTTP version".into(),
            ))
        }
    };
    Ok((method.to_string(), target.to_string(), version))
}

fn parse_headers<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<Vec<(String, String)>, RequestError> {
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RequestError::BadRequest(format!("malformed header {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(RequestError::BadRequest(format!(
                "malformed header name {name:?}"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(headers)
}

/// Decodes `%XX` escapes (and `+` as space when `plus_as_space`); rejects
/// truncated or non-hex escapes and non-UTF-8 results.
pub fn percent_decode(s: &str, plus_as_space: bool) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| "truncated percent escape".to_string())?;
                let hex = std::str::from_utf8(hex).map_err(|_| "invalid percent escape")?;
                let byte = u8::from_str_radix(hex, 16)
                    .map_err(|_| format!("invalid percent escape %{hex}"))?;
                out.push(byte);
                i += 3;
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| "percent-decoded bytes are not UTF-8".into())
}

/// Parses an `application/x-www-form-urlencoded` query/body into decoded
/// key-value pairs.
pub fn parse_query_string(q: &str) -> Result<Vec<(String, String)>, String> {
    let mut params = Vec::new();
    for pair in q.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        params.push((percent_decode(k, true)?, percent_decode(v, true)?));
    }
    Ok(params)
}

/// A response ready to be written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// `Content-Type` value.
    pub content_type: String,
    /// Response body.
    pub body: Vec<u8>,
    /// Additional headers (e.g. `Allow` on 405).
    pub extra_headers: Vec<(String, String)>,
    /// Whether the server will close the connection after this response.
    pub close: bool,
}

impl HttpResponse {
    /// A 200 response with the given content type and body.
    pub fn ok(content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        HttpResponse {
            status: 200,
            reason: "OK",
            content_type: content_type.to_string(),
            body: body.into(),
            extra_headers: Vec::new(),
            close: false,
        }
    }

    /// An error response. Every error path — routing, parsing, shedding,
    /// admission, timeouts — answers with the same JSON body shape, so
    /// clients and the chaos harness never need per-path parsers:
    /// `{"error":{"status":503,"reason":"...","detail":"..."}}`.
    pub fn error(status: u16, reason: &'static str, detail: impl Into<String>) -> Self {
        let error = JsonValue::object([
            ("status", u64::from(status).into()),
            ("reason", reason.into()),
            ("detail", JsonValue::String(detail.into())),
        ]);
        let body = format!("{}\n", JsonValue::object([("error", error)]));
        HttpResponse {
            status,
            reason,
            content_type: "application/json; charset=utf-8".into(),
            body: body.into_bytes(),
            extra_headers: Vec::new(),
            close: false,
        }
    }

    /// Adds a header (builder style).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name.to_string(), value.into()));
        self
    }

    /// Marks the connection to close after this response (builder style).
    pub fn with_close(mut self) -> Self {
        self.close = true;
        self
    }
}

/// Writes every byte of `parts`, in order, through `write_vectored`: the
/// head and the body of a response leave in one send when the socket takes
/// them whole, and a partial write resumes where it stopped — the body is
/// never copied behind the head.
fn write_all_vectored(out: &mut impl Write, mut parts: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !parts.is_empty() {
        match out.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(written) => IoSlice::advance_slices(&mut parts, written),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that takes at most `limit` bytes per call, and is
    /// interrupted once before its first write.
    struct Trickle {
        limit: usize,
        written: Vec<u8>,
        calls: usize,
        interrupted: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(bytes)])
        }

        fn write_vectored(&mut self, parts: &[IoSlice<'_>]) -> io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(io::ErrorKind::Interrupted.into());
            }
            self.calls += 1;
            let mut taken = 0;
            for part in parts {
                let take = part.len().min(self.limit - taken);
                self.written.extend_from_slice(&part[..take]);
                taken += take;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn head_and_body_leave_in_one_write_and_resume_after_a_partial_one() {
        let (head, body) = (
            b"HTTP/1.1 200 OK\r\n\r\n".as_slice(),
            b"0123456789".as_slice(),
        );
        for limit in [usize::MAX, 1, 7, head.len(), head.len() + 3] {
            let mut out = Trickle {
                limit,
                written: Vec::new(),
                calls: 0,
                interrupted: false,
            };
            write_all_vectored(&mut out, &mut [IoSlice::new(head), IoSlice::new(body)]).unwrap();
            assert_eq!(out.written, [head, body].concat(), "limit {limit}");
            let total = head.len() + body.len();
            assert_eq!(out.calls, total.div_ceil(limit.min(total)), "limit {limit}");
        }
        // A HEAD response's empty body costs no call of its own.
        let mut out = Trickle {
            limit: usize::MAX,
            written: Vec::new(),
            calls: 0,
            interrupted: true,
        };
        write_all_vectored(&mut out, &mut [IoSlice::new(head), IoSlice::new(&[])]).unwrap();
        assert_eq!((out.written.as_slice(), out.calls), (head, 1));
    }

    /// Writes `response` over a loopback socket and returns every byte the
    /// peer reads until the writer closes.
    fn sent(response: HttpResponse, head_only: bool) -> Vec<u8> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let writer = std::thread::spawn(move || {
            Connection::new(stream)
                .write_response(&response, head_only)
                .unwrap()
        });
        let mut received = Vec::new();
        peer.read_to_end(&mut received).unwrap();
        writer.join().unwrap();
        received
    }

    #[test]
    fn a_body_larger_than_the_send_buffer_arrives_byte_exact() {
        // Far past any loopback send buffer: the kernel takes it in parts.
        let body: Vec<u8> = (0..8usize << 20).map(|i| (i * 31 % 251) as u8).collect();
        let received = sent(
            HttpResponse::ok("application/octet-stream", body.clone()),
            false,
        );
        let split = received.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        let head = std::str::from_utf8(&received[..split]).unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(
            head.contains(&format!("Content-Length: {}\r\n", body.len())),
            "{head}"
        );
        assert!(received[split..] == body[..], "the body arrives byte-exact");
    }

    #[test]
    fn a_head_response_withholds_its_body() {
        let received = sent(HttpResponse::ok("text/plain", "twelve bytes"), true);
        let head = String::from_utf8(received).unwrap();
        assert!(head.ends_with("\r\n\r\n"), "{head}");
        assert!(head.contains("Content-Length: 12\r\n"), "{head}");
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(
            percent_decode("SELECT%20%3Fs%20WHERE", false).unwrap(),
            "SELECT ?s WHERE"
        );
        assert_eq!(percent_decode("a+b", true).unwrap(), "a b");
        assert_eq!(percent_decode("a+b", false).unwrap(), "a+b");
        assert_eq!(percent_decode("caf%C3%A9", false).unwrap(), "café");
        assert!(percent_decode("bad%zz", false).is_err());
        assert!(percent_decode("trunc%4", false).is_err());
        assert!(percent_decode("%ff%fe", false).is_err(), "not UTF-8");
    }

    #[test]
    fn query_string_parsing() {
        let params = parse_query_string("query=SELECT+%3Fs&format=json&flag&empty=").unwrap();
        assert_eq!(
            params,
            vec![
                ("query".into(), "SELECT ?s".into()),
                ("format".into(), "json".into()),
                ("flag".into(), String::new()),
                ("empty".into(), String::new()),
            ]
        );
    }

    #[test]
    fn request_line_validation() {
        assert!(parse_request_line("GET /x HTTP/1.1").is_ok());
        assert!(parse_request_line("GET /x HTTP/1.0").is_ok());
        assert_eq!(
            parse_request_line("GET /x HTTP/2.0"),
            Err(RequestError::VersionNotSupported)
        );
        assert!(matches!(
            parse_request_line("GET /x"),
            Err(RequestError::BadRequest(_))
        ));
        assert!(matches!(
            parse_request_line("get /x HTTP/1.1"),
            Err(RequestError::BadRequest(_))
        ));
        assert!(matches!(
            parse_request_line("GET x HTTP/1.1"),
            Err(RequestError::BadRequest(_))
        ));
        assert!(matches!(
            parse_request_line(""),
            Err(RequestError::BadRequest(_))
        ));
    }

    #[test]
    fn error_responses_share_one_json_shape() {
        let resp = HttpResponse::error(503, "Service Unavailable", "queue \"full\", retry");
        assert_eq!(resp.content_type, "application/json; charset=utf-8");
        let doc = hbold_sparql::json::JsonValue::parse(std::str::from_utf8(&resp.body).unwrap())
            .expect("error body is JSON");
        let error = doc.get("error").expect("error envelope");
        assert_eq!(error.get("status").unwrap().as_f64(), Some(503.0));
        assert_eq!(
            error.get("reason").unwrap().as_str(),
            Some("Service Unavailable")
        );
        assert_eq!(
            error.get("detail").unwrap().as_str(),
            Some("queue \"full\", retry")
        );
    }

    #[test]
    fn timeout_error_maps_to_408() {
        assert_eq!(
            RequestError::Timeout.status(),
            Some((408, "Request Timeout"))
        );
        // Idle reaps must stay a quiet close.
        assert_eq!(RequestError::Io(io::ErrorKind::WouldBlock).status(), None);
        assert!(is_timeout_kind(io::ErrorKind::WouldBlock));
        assert!(is_timeout_kind(io::ErrorKind::TimedOut));
        assert!(!is_timeout_kind(io::ErrorKind::ConnectionReset));
    }

    #[test]
    fn head_end_detection_tolerates_bare_newlines() {
        assert!(find_head_end(b"GET / HTTP/1.1\r\nHost: x\r\n").is_none());
        let crlf = find_head_end(b"GET / HTTP/1.1\r\nHost: x\r\n\r\nBODY").unwrap();
        assert_eq!(
            &b"GET / HTTP/1.1\r\nHost: x\r\n\r\nBODY"[crlf.total_bytes..],
            b"BODY"
        );
        let lf = find_head_end(b"GET / HTTP/1.1\nHost: x\n\nBODY").unwrap();
        assert_eq!(
            &b"GET / HTTP/1.1\nHost: x\n\nBODY"[lf.total_bytes..],
            b"BODY"
        );
    }
}
