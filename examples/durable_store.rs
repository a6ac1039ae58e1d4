//! Durability: the restartable-service story in one run.
//!
//! ```text
//! cargo run --example durable_store
//! ```
//!
//! The example opens a durable [`SharedStore`] in a temp directory, loads a
//! synthetic dataset (committed as the first snapshot generation — a load
//! logs nothing), serves it over HTTP, logs an update and checkpoints it,
//! writes more, then simulates two increasingly rude restarts: a reopen with
//! the last write only in the WAL (no checkpoint), and a reopen after the
//! WAL's final record is torn in half — recovering exactly the committed
//! prefix every time.

use hbold_endpoint::synth::{scholarly, ScholarlyConfig};
use hbold_rdf_model::vocab::{foaf, rdf};
use hbold_rdf_model::{Iri, Quad, Triple};
use hbold_server::{ServerConfig, SparqlServer};
use hbold_sparql::execute_query;
use hbold_triple_store::SharedStore;

/// Logs one update inserting `<person> a foaf:Person` into the default graph.
fn insert_person(store: &SharedStore, person: &str) {
    let person = Iri::new(format!("http://example.org/{person}")).unwrap();
    let quad = Quad::from(Triple::new(person, rdf::type_(), foaf::person()));
    store
        .apply_update(|_| (Vec::new(), vec![quad]))
        .expect("the write-ahead log takes the update");
}

fn main() {
    let dir = std::env::temp_dir().join(format!("hbold-durable-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 1. A durable store: everything below survives a process restart.
    let (store, report) = SharedStore::open(&dir).expect("open data directory");
    println!("opened {} (recovered: {report:?})", dir.display());
    let graph = scholarly(&ScholarlyConfig::default());
    let loaded = store.bulk_load(graph.iter());
    let snapshots: Vec<String> = std::fs::read_dir(&dir)
        .expect("list data directory")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".hbs"))
        .collect();
    println!(
        "bulk-loaded {loaded} triples as {snapshots:?}, WAL at {} bytes",
        store.wal_bytes().unwrap()
    );

    // 2. Serve it — the exact store handle the server answers from.
    let server =
        SparqlServer::start(store.clone(), ServerConfig::default()).expect("loopback bind");
    println!("serving at {}", server.url());
    server.shutdown();

    // 3. An update is logged; a checkpoint compacts the WAL into the next
    //    checksummed binary snapshot.
    insert_person(&store, "carol");
    println!(
        "one update logged, WAL at {} bytes",
        store.wal_bytes().unwrap()
    );
    let generation = store.checkpoint().expect("checkpoint").unwrap();
    println!(
        "checkpointed to snapshot generation {generation}, WAL back to {} bytes",
        store.wal_bytes().unwrap()
    );

    // 4. More writes after the checkpoint: these live only in the WAL.
    insert_person(&store, "alice");
    let expected = store.len();
    drop(store);

    // 5. Restart #1: snapshot + WAL replay.
    let (restarted, report) = SharedStore::open(&dir).expect("reopen");
    println!(
        "restart: {} triples (snapshot generation {:?}, {} WAL ops replayed)",
        restarted.len(),
        report.snapshot_generation,
        report.wal_ops_replayed
    );
    assert_eq!(restarted.len(), expected);
    let ask = execute_query(
        &restarted.snapshot(),
        "ASK { <http://example.org/alice> a <http://xmlns.com/foaf/0.1/Person> }",
    )
    .unwrap();
    println!("alice survived the restart: {}", ask.to_sparql_json());
    drop(restarted);

    // 6. Restart #2, the rude one: tear the final WAL record in half, the
    //    way a crash mid-write would. Recovery truncates the torn tail and
    //    keeps every committed record.
    let (store, _) = SharedStore::open(&dir).expect("reopen");
    insert_person(&store, "bob");
    drop(store);
    let wal = dir.join("wal.log");
    let len = std::fs::metadata(&wal).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(len - 3).expect("tear the last record");
    drop(file);
    let (recovered, report) = SharedStore::open(&dir).expect("recover from torn WAL");
    println!(
        "torn-tail recovery: {} triples, tail truncated = {}",
        recovered.len(),
        report.wal_tail_truncated
    );
    assert!(report.wal_tail_truncated);
    assert_eq!(recovered.len(), expected, "bob's torn write rolled back");

    let _ = std::fs::remove_dir_all(&dir);
    println!("done");
}
