//! The `hbold-server` CLI: serve a dataset over the SPARQL 1.1 Protocol,
//! optionally backed by a durable data directory.
//!
//! ```text
//! hbold-server [--addr 127.0.0.1:8080] [--workers N] [--data FILE.{ttl,nt}]
//!              [--data-dir DIR] [--demo-people N] [--enable-shutdown]
//! ```
//!
//! With `--data`, the file is loaded as Turtle (or, for `.nt`, streamed as
//! N-Triples straight into the store, never held whole) and served;
//! otherwise an empty store is seeded with a small built-in demo dataset.
//! With `--data-dir`, the store is durable: the directory is recovered on
//! boot (snapshot + write-ahead-log replay, truncating a torn tail), a load
//! that adds anything is committed as the next snapshot generation before
//! the server listens, every update is logged, and a graceful shutdown
//! compacts the log into a fresh snapshot. A data file that does not parse,
//! or a load that cannot be written, exits 2 with the store and the
//! directory untouched. With `--enable-shutdown`, `POST /shutdown` stops
//! the server gracefully — the process exits 0 once every request being
//! answered has its response (this is how the CI smoke job verifies graceful
//! shutdown without signal handling).

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use hbold_rdf_model::vocab::{foaf, rdf};
use hbold_rdf_model::{Graph, Iri, Literal, Triple};
use hbold_rdf_parser::{ntriples, turtle};
use hbold_server::{ServerConfig, SparqlServer};
use hbold_triple_store::{LoadError, PersistOptions, SharedStore};

const HELP: &str = "\
hbold-server — serve a dataset over the SPARQL 1.1 Protocol

USAGE:
    hbold-server [OPTIONS]

OPTIONS:
    --addr HOST:PORT        Bind address (default 127.0.0.1:0 = OS-picked port)
    --workers N             Queries and updates evaluating at once; more wait
                            for a slot (default 8). Each connection has its
                            own thread, so idle ones hold no slot
    --data FILE.{ttl,nt}    Serve this Turtle (.ttl) or N-Triples (.nt) file;
                            with --data-dir the file is loaded *into* the
                            durable store, committed as the next snapshot
                            generation (nothing is logged; a file adding
                            nothing writes nothing)
    --data-dir DIR          Durable mode: recover the store from DIR on boot
                            (newest valid snapshot + WAL replay), log every
                            update, checkpoint on graceful shutdown. An
                            update the WAL cannot record gets a 503 with
                            Retry-After and is not applied
    --checkpoint-wal-bytes N
                            Auto-checkpoint once the WAL exceeds N bytes
                            (default 67108864; requires --data-dir)
    --sync-writes           fsync the WAL after every write (power-loss
                            durability per write; requires --data-dir)
    --demo-people N         Size of the built-in demo dataset, served when
                            no --data is given and used to seed an empty
                            --data-dir (default 200; 0 serves no data)
    --max-body-bytes N      Reject request bodies larger than N bytes
    --slow-query-ms N       Trace every /sparql query and log queries slower
                            than N ms as one JSON line to stderr (query text,
                            join order, estimates vs actuals, per-operator
                            timings, trace id)
    --query-timeout-ms N    Cancel any query/update still evaluating after
                            N ms with a typed 504 (cooperative cancellation
                            at operator batch boundaries — never a truncated
                            result). Default: unbounded
    --max-inflight-queries N
                            Admit at most N queries/updates at once, those
                            evaluating and those waiting for a slot; excess
                            requests get an immediate 503 with Retry-After
                            (default 0 = unlimited)
    --shutdown-drain-ms N   On graceful shutdown, give in-flight queries N ms
                            to finish before cancelling them (default 5000)
    --enable-shutdown       Enable POST /shutdown for remote graceful stop
    -h, --help              Print this help and exit 0

ROUTES:
    /sparql (GET ?query= or POST ; add trace=1 for an execution trace),
    /update (POST), /metrics, /health[, /shutdown]

EXIT CODES:
    0   clean exit after a graceful shutdown
    2   usage error (unknown flag, missing value, unreadable or unparsable
        data file, a load that cannot be written, bind failure,
        unrecoverable data directory)";

fn usage() -> &'static str {
    "usage: hbold-server [--addr HOST:PORT] [--workers N] [--data FILE.{ttl,nt}] \
     [--data-dir DIR] [--checkpoint-wal-bytes N] [--sync-writes] [--demo-people N] \
     [--max-body-bytes N] [--slow-query-ms N] [--query-timeout-ms N] \
     [--max-inflight-queries N] [--shutdown-drain-ms N] [--enable-shutdown]\n\
     Try `hbold-server --help` for details."
}

struct Args {
    config: ServerConfig,
    data: Option<String>,
    data_dir: Option<String>,
    persist: PersistOptions,
    demo_people: usize,
}

enum Parsed {
    Run(Box<Args>),
    Help,
}

fn parse_args(mut argv: std::env::Args) -> Result<Parsed, String> {
    let _ = argv.next(); // program name
    let mut args = Args {
        config: ServerConfig::default(),
        data: None,
        data_dir: None,
        persist: PersistOptions::default(),
        demo_people: 200,
    };
    let mut persist_flag: Option<&'static str> = None;
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--addr" => args.config.addr = value("--addr")?,
            "--workers" => {
                args.config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers expects a number".to_string())?
            }
            "--data" => args.data = Some(value("--data")?),
            "--data-dir" => args.data_dir = Some(value("--data-dir")?),
            "--checkpoint-wal-bytes" => {
                args.persist.checkpoint_wal_bytes = Some(
                    value("--checkpoint-wal-bytes")?
                        .parse()
                        .map_err(|_| "--checkpoint-wal-bytes expects a number".to_string())?,
                );
                persist_flag = Some("--checkpoint-wal-bytes");
            }
            "--sync-writes" => {
                args.persist.sync_writes = true;
                persist_flag = Some("--sync-writes");
            }
            "--demo-people" => {
                args.demo_people = value("--demo-people")?
                    .parse()
                    .map_err(|_| "--demo-people expects a number".to_string())?
            }
            "--max-body-bytes" => {
                args.config.limits.max_body_bytes = value("--max-body-bytes")?
                    .parse()
                    .map_err(|_| "--max-body-bytes expects a number".to_string())?
            }
            "--slow-query-ms" => {
                args.config.slow_query_ms = Some(
                    value("--slow-query-ms")?
                        .parse()
                        .map_err(|_| "--slow-query-ms expects a number".to_string())?,
                )
            }
            "--query-timeout-ms" => {
                args.config.query_timeout = Some(std::time::Duration::from_millis(
                    value("--query-timeout-ms")?
                        .parse()
                        .map_err(|_| "--query-timeout-ms expects a number".to_string())?,
                ))
            }
            "--max-inflight-queries" => {
                args.config.max_inflight_queries = value("--max-inflight-queries")?
                    .parse()
                    .map_err(|_| "--max-inflight-queries expects a number".to_string())?
            }
            "--shutdown-drain-ms" => {
                args.config.shutdown_drain = std::time::Duration::from_millis(
                    value("--shutdown-drain-ms")?
                        .parse()
                        .map_err(|_| "--shutdown-drain-ms expects a number".to_string())?,
                )
            }
            "--enable-shutdown" => args.config.enable_shutdown_route = true,
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if let (Some(flag), None) = (persist_flag, &args.data_dir) {
        return Err(format!(
            "{flag} requires --data-dir (without one the store is in-memory \
             and the flag would be silently ignored)\n{}",
            usage()
        ));
    }
    Ok(Parsed::Run(Box::new(args)))
}

/// A small FOAF-ish dataset so the server has something to answer about out
/// of the box.
fn demo_graph(people: usize) -> Graph {
    let mut g = Graph::new();
    for i in 0..people {
        let person = Iri::new(format!("http://demo.hbold/person/{i}")).unwrap();
        g.insert(Triple::new(person.clone(), rdf::type_(), foaf::person()));
        g.insert(Triple::new(
            person.clone(),
            foaf::name(),
            Literal::string(format!("Person {i}")),
        ));
        if i > 0 {
            let friend = Iri::new(format!("http://demo.hbold/person/{}", i / 2)).unwrap();
            g.insert(Triple::new(person, foaf::knows(), friend));
        }
    }
    g
}

/// Loads the `--data` file into `store`: N-Triples streamed line by line
/// into the store's load, Turtle parsed whole first. Returns how many
/// triples were new; on an error the store (and its directory) is as it
/// was, and the message names the file — and, for a parse error, the line.
fn load_file(store: &SharedStore, path: &str) -> Result<usize, String> {
    let file = File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let loaded = if path.ends_with(".nt") {
        store.try_bulk_load(ntriples::Reader::new(BufReader::new(file)))
    } else {
        let text = std::io::read_to_string(file).map_err(|e| format!("cannot read {path}: {e}"))?;
        let graph = turtle::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
        store.try_bulk_load(graph.iter().map(Ok))
    };
    loaded.map_err(|e| match e {
        LoadError::Source(e) => format!("cannot parse {path}: {e}"),
        LoadError::Persist(e) => format!("cannot load {path}: {e}"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(Parsed::Run(args)) => args,
        Ok(Parsed::Help) => {
            println!("{HELP}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    let store = match &args.data_dir {
        Some(dir) => {
            let (store, report) = match SharedStore::open_with(dir, args.persist.clone()) {
                Ok(opened) => opened,
                Err(e) => {
                    eprintln!("cannot open data directory {dir}: {e}");
                    return ExitCode::from(2);
                }
            };
            println!(
                "hbold-server: recovered {} triples from {dir} (snapshot generation {:?}, \
                 {} WAL ops replayed{})",
                store.len(),
                report.snapshot_generation,
                report.wal_ops_replayed,
                if report.wal_tail_truncated {
                    ", torn WAL tail truncated"
                } else {
                    ""
                },
            );
            store
        }
        None => SharedStore::new(),
    };
    if let Some(path) = &args.data {
        match load_file(&store, path) {
            Ok(added) => println!("hbold-server: loaded {added} new triples from {path}"),
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::from(2);
            }
        }
    } else if store.is_empty() {
        // Nothing to load into an empty store (in memory, or a brand-new
        // data directory): seed it with the demo dataset so the server (and
        // the CI smoke cycle) has data to serve and to persist.
        let added = store.bulk_load(demo_graph(args.demo_people).iter());
        println!("hbold-server: seeded the store with {added} demo triples");
    }

    let triples = store.len();
    let server = match SparqlServer::start(store.clone(), args.config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            return ExitCode::from(2);
        }
    };
    println!("hbold-server serving {triples} quads at {}", server.url());
    println!("routes: /sparql /update /metrics /health");
    server.wait();
    if store.is_durable() {
        if store.wal_bytes() == Some(0) {
            // Nothing written since the last checkpoint (e.g. a read-only
            // serving run): rewriting an identical snapshot would be pure
            // I/O and a needless crash window.
            println!("hbold-server: no new writes since last checkpoint; nothing to compact");
        } else {
            match store.checkpoint() {
                Ok(generation) => println!(
                    "hbold-server: checkpointed data directory (snapshot generation {:?})",
                    generation
                ),
                Err(e) => eprintln!("hbold-server: shutdown checkpoint failed: {e}"),
            }
        }
    }
    println!("hbold-server: drained and shut down gracefully");
    ExitCode::SUCCESS
}
