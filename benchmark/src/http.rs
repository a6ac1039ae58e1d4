//! A keep-alive HTTP/1.1 client that says *when* things happened.
//!
//! `hbold_endpoint::http_client::HttpConnection` would do for the bytes,
//! but it returns only the finished response; the ledger splits a request
//! into write / wait-for-first-byte / read-body, so this reader keeps the
//! three instants. One client is one TCP connection (`HttpSparqlClient`
//! opens one per query, which at ~1 200 queries/s would fill the
//! ephemeral-port range with `TIME_WAIT` sockets inside one run).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The server closes a connection after this many requests
/// (`ServerConfig::keep_alive_max_requests`).
const SERVER_KEEP_ALIVE_MAX: usize = 1000;
/// The server closes a connection that has been idle for 10 s
/// (`ServerConfig::read_timeout`); one idle for half of that is not reused.
const MAX_IDLE: Duration = Duration::from_secs(5);

/// A response and the instants around it.
#[derive(Debug)]
pub struct Exchange {
    /// Status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Before the first request byte was written.
    pub started: Instant,
    /// After the last request byte was written.
    pub written: Instant,
    /// When the first response byte arrived.
    pub first_byte: Instant,
    /// When the last body byte arrived.
    pub done: Instant,
}

/// One keep-alive connection to a server.
#[derive(Debug)]
pub struct Client {
    addr: String,
    stream: TcpStream,
    buf: Vec<u8>,
    served: usize,
    last_used: Instant,
    must_reconnect: bool,
}

fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

impl Client {
    /// Connects to `addr` (`host:port`).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            addr: addr.to_string(),
            stream,
            buf: Vec::with_capacity(1 << 16),
            served: 0,
            last_used: Instant::now(),
            must_reconnect: false,
        })
    }

    /// Opens a fresh connection if this one cannot carry `requests` more
    /// requests: the server answers its 1000th request on a connection with
    /// `Connection: close`, closes idle connections (with several workloads
    /// in one run, each waits while the others have their round), and a
    /// failed exchange leaves the stream in an unknown state. Called
    /// between ops, outside any timed interval.
    pub fn make_room_for(&mut self, requests: usize) -> io::Result<()> {
        if self.must_reconnect
            || self.served + requests >= SERVER_KEEP_ALIVE_MAX
            || self.last_used.elapsed() >= MAX_IDLE
        {
            *self = Client::connect(&self.addr)?;
        }
        Ok(())
    }

    /// Sends one request and reads the whole response. `body` is
    /// `(content_type, bytes)`; bodyless `POST`s still carry a
    /// `Content-Length` (the server answers 411 otherwise).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        accept: &str,
        body: Option<(&str, &[u8])>,
    ) -> io::Result<Exchange> {
        let exchange = self.exchange(method, path, accept, body);
        self.must_reconnect |= exchange.is_err();
        self.last_used = Instant::now();
        exchange
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        accept: &str,
        body: Option<(&str, &[u8])>,
    ) -> io::Result<Exchange> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nAccept: {accept}\r\n",
            self.addr
        );
        match body {
            Some((content_type, bytes)) => head.push_str(&format!(
                "Content-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
                bytes.len()
            )),
            None if method == "POST" => head.push_str("Content-Length: 0\r\n\r\n"),
            None => head.push_str("\r\n"),
        }
        let mut message = head.into_bytes();
        if let Some((_, bytes)) = body {
            message.extend_from_slice(bytes);
        }
        let started = Instant::now();
        self.stream.write_all(&message)?;
        let written = Instant::now();
        self.served += 1;

        let mut first_byte = None;
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            if self.fill()? == 0 {
                return Err(bad("connection closed before the response head ended"));
            }
            first_byte.get_or_insert_with(Instant::now);
        };
        let first_byte = first_byte.unwrap_or(written);
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?
            .to_string();
        self.buf.drain(..head_end + 4);

        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection")
                && value.trim().eq_ignore_ascii_case("close")
            {
                self.must_reconnect = true;
            }
        }
        let length = content_length.ok_or_else(|| bad("response without Content-Length"))?;
        while self.buf.len() < length {
            if self.fill()? == 0 {
                return Err(bad("connection closed mid-body"));
            }
        }
        let body = self.buf.drain(..length).collect();
        Ok(Exchange {
            status,
            body,
            started,
            written,
            first_byte,
            done: Instant::now(),
        })
    }

    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 1 << 16];
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
}
