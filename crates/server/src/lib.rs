//! # hbold-server
//!
//! A real HTTP/1.1 server implementing the SPARQL 1.1 Protocol over the
//! workspace's [`hbold_triple_store::SharedStore`] — the layer that turns
//! the simulated endpoint fleet into network-servable endpoints.
//!
//! The paper's workload is exploration over *remote* SPARQL endpoints; until
//! this crate, every "endpoint" in the reproduction was an in-process object
//! behind a simulated latency model. [`SparqlServer`] puts the PR 2 parallel
//! engine behind a socket: a `TcpListener` giving each connection its own
//! thread, a census bounding the queries evaluating at once, HTTP
//! keep-alive, the protocol's three query transports (GET `?query=`,
//! POST `application/sparql-query`, POST form-encoded), content negotiation
//! over the SPARQL-JSON / CSV / TSV serializers in `hbold_sparql::results`,
//! and hard byte limits that turn hostile input into clean 4xx responses.
//! Every request is answered from a lock-free store snapshot with a
//! plan-cached parse, so concurrent clients scale exactly like in-process
//! readers.
//!
//! Routes:
//!
//! * `GET /sparql?query=...` / `POST /sparql` — the protocol endpoint; add
//!   `trace=1` for the query's span tree instead of its results,
//! * `POST /update` — SPARQL 1.1 Update,
//! * `GET /metrics` — every counter and histogram as Prometheus text
//!   exposition (request counts, per-route latency, plan cache, optimizer,
//!   WAL), plus store/index gauges refreshed at scrape time,
//! * `GET /health` — liveness probe,
//! * `POST /shutdown` — graceful remote stop (opt-in, for the CLI binary
//!   and the CI smoke test).
//!
//! The paired client lives in `hbold_endpoint::http_client`, letting a
//! `SparqlEndpoint` transparently target a live server instead of a local
//! store. Everything is std-only: no async runtime, no external HTTP stack.
//!
//! ```
//! use hbold_server::{ServerConfig, SparqlServer};
//! use hbold_triple_store::SharedStore;
//! use hbold_rdf_model::{Iri, Triple, vocab::{foaf, rdf}};
//!
//! let store = SharedStore::new();
//! let alice = Iri::new("http://example.org/alice").unwrap();
//! store.bulk_load([&Triple::new(alice, rdf::type_(), foaf::person())]);
//! let server = SparqlServer::start(store, ServerConfig::default()).unwrap();
//! let url = server.url(); // http://127.0.0.1:<port>/sparql
//! server.shutdown();
//! ```

pub mod http;
pub mod server;
pub mod stats;

pub use http::{HttpRequest, HttpResponse, Limits};
pub use server::{ServerConfig, SparqlServer};
pub use stats::{RouteStats, ServerStats};
