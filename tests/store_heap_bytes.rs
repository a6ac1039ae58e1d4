//! A restored store's memory, pinned without a clock: a counting global
//! allocator measures the live heap bytes a snapshot-restored
//! `TripleStore` holds, and the share of them its three positional indexes
//! take — against the accounting behind the `hbold_index_bytes` gauges
//! (`PositionalIndex::heap_bytes`), which must match it to the byte.
//!
//! The index share is what the flat tiers' layout decides: 8 bytes of
//! `(c, d)` pair per key and order, plus each run's directory — dense for
//! the default graph, sparse for a small named graph beside it. The rest is
//! the dictionary: a restore keeps its term table front-coded and builds a
//! block of terms the first time one of them is read, so the store is
//! measured untouched and again with every id read.

mod common;

use hbold_endpoint::synth::{random_lod, RandomLodConfig};
use hbold_rdf_model::{Iri, Quad, Term};
use hbold_triple_store::persist::snapshot;
use hbold_triple_store::TripleStore;

/// Bytes per quad of the restored store below (`random_lod` seed 7, 5 000
/// instances, plus three named-graph quads: 22 273 quads, 11 195 terms), as
/// measured on x86-64 Linux before a term is read: 26.96 of them in the
/// indexes, 3.78 in the dictionary — 2.57 of them its front-coded term
/// table, the rest one head term a block of 64 ids and the block states.
/// The pin below allows 5 % above it.
const UNTOUCHED_BYTES_PER_QUAD: f64 = 30.74;

/// The same store with every term built, as measured when the restore
/// built them all (26.96 in the indexes, 51.37 in the dictionary): touched
/// throughout, the store may hold 5 % more, plus the table it keeps. It
/// measures 81.73, 2.57 of them the table.
const STORE_BYTES_PER_QUAD: f64 = 78.33;

#[test]
fn a_restored_store_holds_the_index_bytes_it_reports() {
    let config = RandomLodConfig {
        instances: 5_000,
        ..RandomLodConfig::default()
    };
    let mut store = TripleStore::from_graph(&random_lod(&config));
    // Three quads of far-apart terms in a named graph: its run in every
    // order spans more ids than it has keys, so its directory is sparse.
    let graph: Term = Iri::new("http://heap.example/graph").unwrap().into();
    let len = store.len();
    let spread: Vec<Quad> = [0, len / 2, len - 1]
        .map(|i| store.iter_quads().nth(i).unwrap())
        .map(|quad| Quad::new(quad.triple(), Some(graph.clone())))
        .into();
    store.insert_quads_batch(&spread);
    let quads = store.len();
    assert!(quads >= 20_000, "{quads} quads");
    let whole = snapshot::encode(&store);
    // The same dictionary over no quads: all a restore holds but indexes.
    let mut emptied = store.clone();
    let all: Vec<Quad> = emptied.iter_quads().collect();
    emptied.apply_delta(&all, &[]);
    assert!(emptied.is_empty() && emptied.term_count() == store.term_count());
    let terms_only = snapshot::encode(&emptied);
    drop((store, emptied, all));
    // Once unmeasured, so nothing a first decode initialises lazily is
    // counted below.
    drop(snapshot::decode(&whole).unwrap());

    let (restored, store_bytes) = common::held(|| snapshot::decode(&whole).unwrap());
    // Only the graph's IRI, interned after the load, is past the base.
    let dictionary = restored.dictionary();
    assert_eq!(dictionary.materialized_len(), 1);
    assert_eq!(dictionary.sorted_len(), dictionary.len() - 1);
    let (dictionary, dictionary_bytes) = common::held(|| snapshot::decode(&terms_only).unwrap());
    assert!(dictionary.is_empty() && dictionary.term_count() == restored.term_count());
    let sizes = restored.index_tier_sizes();
    assert!(
        sizes.iter().all(|(_, sizes)| sizes.sparse_runs == 1),
        "{sizes:?}"
    );
    let index_bytes = store_bytes - dictionary_bytes;
    let reported: usize = restored
        .index_bytes()
        .iter()
        .flat_map(|(_, bytes)| bytes.labeled())
        .map(|(_, bytes)| bytes)
        .sum();
    assert_eq!(
        index_bytes, reported,
        "the index's heap against its accounting"
    );

    let per_quad = |bytes: usize| bytes as f64 / quads as f64;
    // Reading every id builds every block; the table stays.
    let (touched, touched_bytes) = common::held(|| {
        let store = snapshot::decode(&whole).unwrap();
        let dictionary = store.dictionary();
        for id in 0..dictionary.len() as u32 {
            std::hint::black_box(dictionary.term(id));
        }
        store
    });
    assert_eq!(
        touched.dictionary().materialized_len(),
        touched.term_count()
    );
    // The term table is all of a snapshot of no quads but its header.
    let table_bytes = terms_only.len() - 44;
    eprintln!(
        "{quads} quads, {} terms: {:.2} B/quad in all, {:.2} in the indexes; \
         {:.2} with every term built ({:.2} of them the kept table)",
        restored.term_count(),
        per_quad(store_bytes),
        per_quad(index_bytes),
        per_quad(touched_bytes),
        per_quad(table_bytes),
    );
    // Three orders of 8-byte pairs, plus the directories.
    assert!(
        per_quad(index_bytes) <= 28.0,
        "{:.2} B/quad",
        per_quad(index_bytes)
    );
    assert!(
        per_quad(store_bytes) <= UNTOUCHED_BYTES_PER_QUAD * 1.05,
        "{:.2} B/quad untouched against the pinned {UNTOUCHED_BYTES_PER_QUAD}",
        per_quad(store_bytes)
    );
    assert!(
        per_quad(touched_bytes) <= STORE_BYTES_PER_QUAD * 1.05 + per_quad(table_bytes),
        "{:.2} B/quad touched against the pinned {STORE_BYTES_PER_QUAD} and {:.2} of table",
        per_quad(touched_bytes),
        per_quad(table_bytes)
    );
}
