//! Socket helpers shared by the server's protocol-level tests, and the
//! harness that spawns the `hbold-server` binary on a port of its own.

#![allow(dead_code)] // each test binary uses its own subset

pub mod json;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

use hbold_rdf_model::vocab::{foaf, rdf};
use hbold_rdf_model::{Graph, Iri, Literal, Triple};
use hbold_server::SparqlServer;
use hbold_triple_store::SharedStore;

/// `people` persons in the default graph, two triples each: a type and a
/// name.
pub fn sample_store(people: usize) -> SharedStore {
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

/// One response off a keep-alive stream: (status, headers-block, body).
pub fn read_response(stream: &mut TcpStream) -> (u16, String, Vec<u8>) {
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

/// Sends `request` on an open stream and reads its response.
pub fn send(stream: &mut TcpStream, request: &str) -> (u16, String, Vec<u8>) {
    stream.write_all(request.as_bytes()).expect("send");
    read_response(stream)
}

/// Sends `request` on a fresh connection and reads its response.
pub fn roundtrip(server: &SparqlServer, request: &str) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    send(&mut stream, request)
}

/// `n` persons, each with a type and a name, and from the second on a
/// `knows` link to person `i / 2`.
pub fn people_graph(n: usize) -> Graph {
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

/// A fresh, empty directory for one test: tests of one binary run in
/// parallel, so each names its own.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbold-server-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `text` to `dir/name`; returns the path.
pub fn write_file(dir: &Path, name: &str, text: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path.to_str().unwrap().to_string()
}

/// A spawned `hbold-server` child, the port it reported on stdout, and
/// the thread collecting its stderr.
pub struct ServerProcess {
    child: Child,
    pub port: u16,
    stderr: Option<JoinHandle<String>>,
}

/// A failed assertion must not leave the child running; its stderr is
/// shown when a test fails.
impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.kill();
        let stderr = self.stderr.take().filter(|_| std::thread::panicking());
        if let Some(Ok(text)) = stderr.map(JoinHandle::join) {
            eprintln!("hbold-server stderr:\n{text}");
        }
    }
}

impl ServerProcess {
    /// SIGKILL: no drain, no checkpoint.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// `POST /shutdown`, then waits for the process to drain and exit 0;
    /// returns everything it wrote to stderr.
    pub fn shutdown(&mut self) -> String {
        let shutdown = "POST /shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(http(self.port, shutdown).0, 200);
        let status = self.child.wait().expect("server exits");
        assert!(status.success(), "graceful shutdown exited {status:?}");
        self.stderr.take().unwrap().join().unwrap()
    }
}

pub fn spawn_server(args: &[&str]) -> ServerProcess {
    spawn_server_with_env(args, &[])
}

/// Boots the binary on `127.0.0.1:0` and returns once it has printed its
/// URL, which it does after its listener is bound.
pub fn spawn_server_with_env(args: &[&str], env: &[(&str, &str)]) -> ServerProcess {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hbold-server"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .envs(env.iter().copied())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hbold-server");
    let mut stderr = child.stderr.take().expect("piped stderr");
    let stderr = Some(std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stderr.read_to_string(&mut text);
        text
    }));
    let mut server = ServerProcess {
        port: 0,
        stderr,
        child,
    };
    let mut reader = BufReader::new(server.child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    while server.port == 0 {
        line.clear();
        let read = reader.read_line(&mut line).expect("read server stdout");
        assert!(read > 0, "server exited before announcing its address");
        if let Some(rest) = line.split("http://127.0.0.1:").nth(1) {
            server.port = rest.split('/').next().unwrap().parse().expect("a port");
        }
    }
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || std::io::copy(&mut reader, &mut std::io::sink()));
    server
}

/// Runs the binary on `args` where it must refuse to boot: exit status 2.
/// Returns its stderr.
pub fn refused_boot(args: &[&str], env: &[(&str, &str)]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_hbold-server"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("run hbold-server");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    stderr
}

pub fn percent_encode(text: &str) -> String {
    let mut out = String::new();
    for b in text.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// One request on a fresh connection to a loopback port; returns (status,
/// body bytes).
fn http(port: u16, request: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (status, _, body) = send(&mut stream, request);
    (status, body)
}

pub fn http_get(port: u16, target: &str) -> (u16, Vec<u8>) {
    http(port, &format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n"))
}

/// GET ?query= against a loopback port; returns (status, body bytes).
pub fn http_query(port: u16, query: &str) -> (u16, Vec<u8>) {
    http_get(port, &format!("/sparql?query={}", percent_encode(query)))
}

/// POST one update request (`application/sparql-update`); returns the status.
pub fn http_update(port: u16, update: &str) -> u16 {
    let head = "POST /update HTTP/1.1\r\nHost: x\r\nContent-Type: application/sparql-update";
    http(
        port,
        &format!("{head}\r\nContent-Length: {}\r\n\r\n{update}", update.len()),
    )
    .0
}

/// The lines of a `/metrics` scrape of `name`'s series, sorted.
pub fn metric_lines(port: u16, name: &str) -> Vec<String> {
    let (_, body) = http_get(port, "/metrics");
    let text = String::from_utf8(body).unwrap();
    let mut lines: Vec<String> = text
        .lines()
        .filter(|l| l.split([' ', '{']).next() == Some(name))
        .map(str::to_string)
        .collect();
    lines.sort();
    lines
}

/// The value of an unlabelled gauge or counter.
pub fn metric(port: u16, name: &str) -> u64 {
    let lines = metric_lines(port, name);
    lines[0][name.len()..].trim().parse().expect("an integer")
}
