//! Equality pins for the streamed load: N-Triples read line by line and
//! interned straight into a store must build exactly the store that parsing
//! the whole file into a `Graph` and `TripleStore::from_graph` builds — the
//! same dictionary in the same (term) order, the same quads, the same index
//! tiers — and a durable load must write exactly that store's snapshot.

use std::io::BufReader;

use hbold_endpoint::synth::{random_lod, RandomLodConfig};
use hbold_rdf_parser::{ntriples, parse_ntriples, write_ntriples};
use hbold_triple_store::persist::snapshot;
use hbold_triple_store::{SharedStore, TripleStore};

/// A dump in no particular order: a synthetic LOD graph's lines shuffled
/// (deterministically), every seventh one repeated, with comments, blank
/// lines and CRLF line ends mixed in, and no newline after the last line.
fn messy_dump() -> String {
    let text = write_ntriples(&random_lod(&RandomLodConfig::sized(12, 600, 4)));
    let mut lines: Vec<&str> = text.lines().collect();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..lines.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        lines.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let mut dump = String::from("# a dump\r\n\r\n");
    for (i, line) in lines.iter().enumerate() {
        dump.push_str(line);
        dump.push_str(if i % 3 == 0 { "\r\n" } else { "\n" });
        if i % 7 == 0 {
            dump.push_str(line);
            dump.push_str("\n   \n# again\n");
        }
    }
    dump.truncate(dump.trim_end().len());
    dump
}

fn assert_same_store(streamed: &TripleStore, reference: &TripleStore) {
    assert!(
        reference.len() > 1_000,
        "the fixture is too small to pin much"
    );
    assert!(
        streamed
            .dictionary()
            .iter()
            .eq(reference.dictionary().iter()),
        "the dictionaries differ"
    );
    assert_eq!(
        streamed.dictionary().sorted_len(),
        reference.dictionary().sorted_len()
    );
    assert_eq!(reference.dictionary().sorted_len(), reference.term_count());
    assert!(
        streamed.iter_quads().eq(reference.iter_quads()),
        "the quads differ"
    );
    assert_eq!(streamed.index_tier_sizes(), reference.index_tier_sizes());
}

#[test]
fn a_streamed_load_builds_the_store_from_graph_builds() {
    let dump = messy_dump();
    let reference = TripleStore::from_graph(&parse_ntriples(&dump).unwrap());
    let store = SharedStore::new();
    let reader = ntriples::Reader::new(BufReader::with_capacity(64, dump.as_bytes()));
    assert_eq!(store.try_bulk_load(reader).unwrap(), reference.len());
    assert_same_store(&store.snapshot(), &reference);
}

#[test]
fn a_durable_streamed_load_writes_the_snapshot_of_that_store() {
    let dir = std::env::temp_dir().join(format!("hbold-streamed-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dump = messy_dump();
    let reference = TripleStore::from_graph(&parse_ntriples(&dump).unwrap());
    {
        let (store, _) = SharedStore::open(&dir).unwrap();
        let reader = ntriples::Reader::new(dump.as_bytes());
        assert_eq!(store.try_bulk_load(reader).unwrap(), reference.len());
        assert_same_store(&store.snapshot(), &reference);
        assert_eq!(store.wal_bytes(), Some(0));
    }
    let written = std::fs::read(dir.join("snapshot-0000000000000001.hbs")).unwrap();
    assert!(
        written == snapshot::encode(&reference),
        "the load's snapshot is not the encoding of the from_graph store"
    );
    let (reopened, report) = SharedStore::open(&dir).unwrap();
    assert_eq!(report.snapshot_generation, Some(1));
    assert_same_store(&reopened.snapshot(), &reference);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
