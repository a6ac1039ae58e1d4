//! Socket helpers shared by the server's protocol-level tests.

#![allow(dead_code)] // each test binary uses its own subset

use std::io::{Read, Write};
use std::net::TcpStream;

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
