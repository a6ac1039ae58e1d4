//! Serving: the whole remote-endpoint story on one loopback socket.
//!
//! ```text
//! cargo run --example http_serving
//! ```
//!
//! The example boots `hbold-server` over a synthetic scholarly dataset,
//! points a remote `SparqlEndpoint` (HTTP SPARQL Protocol client) at it,
//! runs the H-BOLD extraction pipeline *across the wire*, fires a short
//! closed-loop load burst at the server, and prints the server's own
//! telemetry before shutting it down gracefully.

use hbold::pipeline::ExtractionPipeline;
use hbold_bench::loadgen::{run_load, LoadGenConfig};
use hbold_docstore::DocStore;
use hbold_endpoint::synth::{scholarly, ScholarlyConfig};
use hbold_endpoint::SparqlEndpoint;
use hbold_server::{ServerConfig, SparqlServer};
use hbold_triple_store::SharedStore;

fn main() {
    // 1. Boot a real HTTP SPARQL Protocol server on a loopback port.
    let graph = scholarly(&ScholarlyConfig::default());
    let store = SharedStore::from_graph(&graph);
    let server = SparqlServer::start(
        store,
        ServerConfig {
            workers: 8,
            ..ServerConfig::default()
        },
    )
    .expect("loopback bind");
    println!("serving at {}", server.url());

    // 2. A remote endpoint: same interface as the simulated ones, but every
    //    query crosses the socket and comes back as SPARQL-JSON.
    let endpoint = SparqlEndpoint::remote(server.url());
    println!(
        "remote endpoint {} serves {} triples",
        endpoint.name(),
        endpoint.triple_count()
    );
    let classes = endpoint
        .select(
            "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c ORDER BY DESC(?n) LIMIT 3",
        )
        .expect("statistics query over the wire");
    println!("top classes over the wire:");
    for i in 0..classes.len() {
        println!(
            "  {:30} {:>6} instances",
            classes.value(i, "c").map(|t| t.label()).unwrap_or("?"),
            classes.value(i, "n").map(|t| t.label()).unwrap_or("?"),
        );
    }

    // 3. The full extraction pipeline, backend-transparent.
    let docs = DocStore::in_memory();
    let pipeline = ExtractionPipeline::new(&docs);
    let result = pipeline
        .run(&endpoint, 0, None)
        .expect("pipeline over HTTP");
    println!(
        "pipeline over HTTP: {} classes -> {} clusters ({} SPARQL requests served)",
        result.indexes.class_count(),
        result.cluster_schema.cluster_count(),
        result.report.queries_issued,
    );

    // 4. A closed-loop load burst: 8 keep-alive connections x 25 requests.
    let report = run_load(&LoadGenConfig::new(server.url()));
    print!("{}", report.render());
    assert!(report.all_2xx(), "the burst must be answered cleanly");

    // 5. The server's own view — its `/metrics` HTTP families, buckets
    //    aside — then a graceful stop.
    println!("server metrics:");
    let metrics = server.stats().render_metrics();
    let http = metrics
        .lines()
        .filter(|line| line.starts_with("hbold_http_"));
    for line in http.filter(|line| !line.contains("_bucket")) {
        println!("  {line}");
    }
    server.shutdown();
    println!("server drained and shut down gracefully");
}
