//! Crash-recovery tests for the snapshot + WAL persistence layer.
//!
//! The central property: a process killed at an arbitrary byte of a WAL
//! append must recover to exactly the committed prefix — every fully
//! written record applied, the torn record discarded, nothing else. We
//! prove it exhaustively by truncating the log at *every* byte offset of
//! the final record and reopening — a log over a checkpointed snapshot, so
//! each reopen also decodes the front-coded term table and recomputes how
//! much of it is in term order.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

use hbold_rdf_model::vocab::{foaf, rdf};
use hbold_rdf_model::{BlankNode, Iri, Literal, Quad, Term, Triple, TriplePattern};
use hbold_sparql::execute_query;
use hbold_triple_store::persist::codec::crc32;
use hbold_triple_store::persist::wal::{encode_record, WalOp};
use hbold_triple_store::{PersistError, PersistOptions, SharedStore, TripleStore};

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hbold-persistence-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn person(n: u32) -> Vec<Triple> {
    let s = Iri::new(format!("http://e.org/person/{n}")).unwrap();
    vec![
        Triple::new(s.clone(), rdf::type_(), foaf::person()),
        Triple::new(s, foaf::name(), Literal::string(format!("Person {n}"))),
    ]
}

/// Inserts `triples` into the default graph as one logged update — one WAL
/// record when anything is new. Returns how many were.
fn log(shared: &SharedStore, triples: Vec<Triple>) -> usize {
    let quads = triples.into_iter().map(Quad::from).collect();
    shared.apply_update(|_| (Vec::new(), quads)).unwrap().1
}

/// Removes `triple` from the default graph as one logged update. Returns
/// whether it was there.
fn unlog(shared: &SharedStore, triple: Triple) -> bool {
    let quads = vec![Quad::from(triple)];
    shared.apply_update(|_| (quads, Vec::new())).unwrap().0 == 1
}

/// The data a sweep's directory starts from: bulk-loaded fresh into an
/// empty directory — so numbered in term order, and committed as snapshot
/// generation 1 — so that recovery reads a snapshot before the log.
/// Returns the number of terms the snapshot holds, all of them in order.
fn checkpointed_base(shared: &SharedStore) -> usize {
    let base: Vec<Triple> = (900..920).flat_map(person).collect();
    shared.bulk_load(base.iter());
    assert_eq!(shared.wal_bytes(), Some(0), "a load logs nothing");
    let terms = shared.snapshot().term_count();
    assert_eq!(shared.snapshot().dictionary().sorted_len(), terms);
    terms
}

/// Truncate the WAL at every byte offset inside its final record and
/// assert the recovered store is exactly the state after the committed
/// records — the final record is torn, so it must vanish entirely.
#[test]
fn recovery_at_every_truncation_offset_of_the_final_record() {
    let dir = temp_dir("every-offset");

    // Build a log of N-1 committed batches plus one final batch, and keep
    // the expected state both with and without that final batch.
    let committed_batches = 5u32;
    let sorted_terms = {
        let (shared, _) = SharedStore::open(&dir).unwrap();
        let sorted_terms = checkpointed_base(&shared);
        for n in 0..committed_batches {
            log(&shared, person(n));
        }
        log(&shared, person(committed_batches));
        sorted_terms
    };
    let wal = dir.join("wal.log");
    let full_len = std::fs::metadata(&wal).unwrap().len();
    let full_bytes = std::fs::read(&wal).unwrap();

    // Find where the final record begins by replaying the length prefixes.
    let mut offset = 0usize;
    let mut record_starts = Vec::new();
    while offset + 8 <= full_bytes.len() {
        record_starts.push(offset);
        let len = u32::from_le_bytes(full_bytes[offset..offset + 4].try_into().unwrap()) as usize;
        offset += 8 + len;
    }
    assert_eq!(offset as u64, full_len, "log should parse cleanly");
    assert_eq!(record_starts.len(), committed_batches as usize + 1);
    let final_start = *record_starts.last().unwrap() as u64;

    let mut committed = TripleStore::new();
    for n in (900..920).chain(0..committed_batches) {
        committed.insert_batch(person(n).iter());
    }
    let committed_graph = committed.to_graph();

    for cut in final_start..full_len {
        // "Crash": the final record only made it to disk up to `cut` bytes.
        std::fs::write(&wal, &full_bytes).unwrap();
        let file = OpenOptions::new().write(true).open(&wal).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let (recovered, report) = SharedStore::open(&dir).unwrap();
        assert_eq!(
            recovered.snapshot().to_graph(),
            committed_graph,
            "truncation at byte {cut} of {full_len} must yield exactly the committed prefix"
        );
        // The snapshot's run is in term order; what the log interned is not.
        assert_eq!(recovered.snapshot().dictionary().sorted_len(), sorted_terms);
        assert_eq!(report.snapshot_generation, Some(1));
        let expect_torn = cut > final_start;
        assert_eq!(
            report.wal_tail_truncated, expect_torn,
            "tail-truncation flag at byte {cut}"
        );
        assert_eq!(report.wal_ops_replayed, committed_batches as usize);
    }

    // Sanity: the untouched log recovers the final batch too.
    std::fs::write(&wal, &full_bytes).unwrap();
    let (recovered, report) = SharedStore::open(&dir).unwrap();
    assert_eq!(recovered.len(), committed.len() + 2);
    assert!(!report.wal_tail_truncated);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same every-byte-offset property for graph-scoped **update** records
/// (what SPARQL 1.1 Update commits through `apply_update`): a log
/// whose final record is an atomic removes+inserts delta spanning the
/// default graph and a named graph must recover to exactly the committed
/// prefix at every truncation offset — the torn update vanishes entirely,
/// never half-applies.
#[test]
fn recovery_at_every_truncation_offset_of_a_graph_update_record() {
    let dir = temp_dir("update-offset");
    let g1 = Term::Iri(Iri::new("http://e.org/graph/1").unwrap());
    let quad = |n: u32, graph: Option<&Term>| {
        Quad::new(
            Triple::new(
                Iri::new(format!("http://e.org/s/{n}")).unwrap(),
                foaf::name(),
                Literal::string(format!("v{n}")),
            ),
            graph.cloned(),
        )
    };
    let committed_updates: Vec<(Vec<Quad>, Vec<Quad>)> = vec![
        (Vec::new(), vec![quad(0, Some(&g1)), quad(0, None)]),
        (Vec::new(), vec![quad(1, Some(&g1)), quad(1, None)]),
        (Vec::new(), vec![quad(2, Some(&g1)), quad(2, None)]),
        // A graph-scoped remove+insert delta in one committed record.
        (vec![quad(1, Some(&g1))], vec![quad(100, Some(&g1))]),
    ];
    let final_update: (Vec<Quad>, Vec<Quad>) = (
        vec![quad(2, Some(&g1)), quad(2, None)],
        vec![quad(200, Some(&g1)), quad(200, None)],
    );
    let sorted_terms = {
        let (shared, _) = SharedStore::open(&dir).unwrap();
        let sorted_terms = checkpointed_base(&shared);
        for (removes, inserts) in &committed_updates {
            shared
                .apply_update(|_| (removes.clone(), inserts.clone()))
                .unwrap();
        }
        let (removes, inserts) = &final_update;
        shared
            .apply_update(|_| (removes.clone(), inserts.clone()))
            .unwrap();
        sorted_terms
    };
    let wal = dir.join("wal.log");
    let full_len = std::fs::metadata(&wal).unwrap().len();
    let full_bytes = std::fs::read(&wal).unwrap();

    let mut offset = 0usize;
    let mut record_starts = Vec::new();
    while offset + 8 <= full_bytes.len() {
        record_starts.push(offset);
        let len = u32::from_le_bytes(full_bytes[offset..offset + 4].try_into().unwrap()) as usize;
        offset += 8 + len;
    }
    assert_eq!(offset as u64, full_len, "log should parse cleanly");
    assert_eq!(record_starts.len(), committed_updates.len() + 1);
    let final_start = *record_starts.last().unwrap() as u64;

    let mut committed = TripleStore::new();
    committed.insert_batch((900..920).flat_map(person).collect::<Vec<_>>().iter());
    for (removes, inserts) in &committed_updates {
        for q in removes {
            committed.remove_quad(q);
        }
        for q in inserts {
            committed.insert_quad(q);
        }
    }
    let committed_fp = fingerprint(&committed);

    for cut in final_start..full_len {
        std::fs::write(&wal, &full_bytes).unwrap();
        let file = OpenOptions::new().write(true).open(&wal).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let (recovered, report) = SharedStore::open(&dir).unwrap();
        assert_eq!(
            fingerprint(&recovered.snapshot()),
            committed_fp,
            "truncation at byte {cut} of {full_len} must yield exactly the committed updates"
        );
        assert_eq!(recovered.snapshot().dictionary().sorted_len(), sorted_terms);
        assert_eq!(
            report.wal_tail_truncated,
            cut > final_start,
            "tail-truncation flag at byte {cut}"
        );
        assert_eq!(report.wal_ops_replayed, committed_updates.len());
    }

    // Sanity: the untouched log also recovers the final update.
    std::fs::write(&wal, &full_bytes).unwrap();
    let (recovered, report) = SharedStore::open(&dir).unwrap();
    for q in &final_update.0 {
        committed.remove_quad(q);
    }
    for q in &final_update.1 {
        committed.insert_quad(q);
    }
    assert_eq!(fingerprint(&recovered.snapshot()), fingerprint(&committed));
    assert!(!report.wal_tail_truncated);
    let _ = std::fs::remove_dir_all(&dir);
}

/// After recovery, the store must answer SPARQL queries byte-identically
/// to an in-memory store holding the same data.
#[test]
fn recovered_store_answers_sparql_identically_to_in_memory() {
    let dir = temp_dir("sparql-differential");
    let mut triples = Vec::new();
    for n in 0..40 {
        triples.extend(person(n));
    }
    {
        let (shared, _) = SharedStore::open(&dir).unwrap();
        shared.bulk_load(triples.iter());
        shared.checkpoint().unwrap();
        // More writes after the checkpoint, recovered from the WAL alone.
        log(&shared, person(100));
        unlog(&shared, person(3).remove(1));
    }
    let (recovered, _) = SharedStore::open(&dir).unwrap();

    let mut reference = TripleStore::new();
    reference.insert_batch(triples.iter());
    reference.insert_batch(person(100).iter());
    reference.remove(&person(3)[1]);

    let queries = [
        "SELECT ?s ?name WHERE { ?s <http://xmlns.com/foaf/0.1/name> ?name } ORDER BY ?name",
        "SELECT (COUNT(?s) AS ?n) WHERE { ?s a <http://xmlns.com/foaf/0.1/Person> }",
        "ASK { <http://e.org/person/100> a <http://xmlns.com/foaf/0.1/Person> }",
        "SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p",
    ];
    let snapshot = recovered.snapshot();
    for query in queries {
        let from_disk = execute_query(&snapshot, query).unwrap().to_sparql_json();
        let from_memory = execute_query(&reference, query).unwrap().to_sparql_json();
        assert_eq!(from_disk, from_memory, "query {query:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill-during-checkpoint simulation: a leftover snapshot temp file and a
/// still-full WAL (the crash window before `wal.reset()`) must both be
/// handled — the temp file ignored, the WAL replayed idempotently.
#[test]
fn crash_between_snapshot_rename_and_wal_reset_is_harmless() {
    let dir = temp_dir("mid-checkpoint");
    {
        let (shared, _) = SharedStore::open(&dir).unwrap();
        log(&shared, person(1));
        log(&shared, person(2));
    }
    // Simulate the dangerous window: write the snapshot the checkpoint
    // would have produced but leave the WAL untouched, plus a stray temp
    // file from an even earlier torn checkpoint attempt.
    {
        let (store, _) = SharedStore::open(&dir).unwrap();
        let snapshot = store.snapshot();
        hbold_triple_store::persist::snapshot::write_file(
            &snapshot,
            &dir.join("snapshot-0000000000000001.hbs"),
        )
        .unwrap();
        std::fs::write(dir.join("snapshot-0000000000000002.hbs.tmp"), b"torn junk").unwrap();
    }
    let (recovered, report) = SharedStore::open(&dir).unwrap();
    assert!(
        !dir.join("snapshot-0000000000000002.hbs.tmp").exists(),
        "stale checkpoint temp files are reclaimed on open"
    );
    assert_eq!(report.snapshot_generation, Some(1));
    assert_eq!(
        report.wal_ops_replayed, 2,
        "records replay over the snapshot"
    );
    assert_eq!(
        recovered.len(),
        4,
        "idempotent replay does not double-insert"
    );
    assert_eq!(
        recovered
            .snapshot()
            .count_matching(&TriplePattern::any().with_predicate(rdf::type_())),
        2
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bulk load commits as a snapshot, not a log record, so it must never be
/// renamed in over a log whose records it does not hold: replaying them over
/// the loaded data could undo it. Here the log holds `[remove X]` and the
/// load re-adds X. The load checkpoints the log away first, so the reopened
/// directory holds X, in one snapshot and an empty log — and so does the
/// directory a crash between the load's rename and its log reset leaves,
/// because the log was empty before that rename.
#[test]
fn a_bulk_load_over_a_log_survives_the_crash_window() {
    let dir = temp_dir("load-over-log");
    let x = person(1).remove(0);
    {
        let (shared, _) = SharedStore::open(&dir).unwrap();
        assert_eq!(shared.bulk_load(person(1).iter()), 2);
        assert!(unlog(&shared, x.clone()));
        assert!(shared.wal_bytes().unwrap() > 0, "the log holds [remove X]");
        assert_eq!(shared.bulk_load(person(1).iter().chain(&person(2))), 3);
        assert_eq!(shared.wal_bytes(), Some(0));
    }
    let files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".hbs"))
        .collect();
    // Generation 1 is the first load, 2 the checkpoint of the log, 3 the
    // load renamed in over the emptied log.
    assert_eq!(files, ["snapshot-0000000000000003.hbs"]);
    assert_eq!(std::fs::metadata(dir.join("wal.log")).unwrap().len(), 0);
    let (reopened, report) = SharedStore::open(&dir).unwrap();
    assert!(
        reopened.snapshot().contains(&x),
        "the re-added triple was lost"
    );
    assert_eq!(reopened.len(), 4);
    assert_eq!(report.wal_ops_replayed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Durability survives many open/write/close cycles with periodic
/// checkpoints — the "accumulates extracted summaries over repeated runs"
/// shape of the H-BOLD workflow.
#[test]
fn repeated_sessions_accumulate() {
    let dir = temp_dir("sessions");
    let options = PersistOptions {
        checkpoint_wal_bytes: Some(512),
        ..PersistOptions::default()
    };
    for session in 0..6u32 {
        let (shared, _) = SharedStore::open_with(&dir, options.clone()).unwrap();
        assert_eq!(shared.len() as u32, session * 20);
        for n in 0..10 {
            log(&shared, person(session * 10 + n));
        }
        if session % 2 == 0 {
            shared.checkpoint().unwrap();
        }
    }
    let (last, _) = SharedStore::open(&dir).unwrap();
    assert_eq!(last.len(), 120);
    let _ = std::fs::remove_dir_all(&dir);
}

fn fingerprint(store: &TripleStore) -> BTreeSet<String> {
    store.iter_quads().map(|q| q.to_nquads()).collect()
}

/// In-memory ≡ durable: the same seeded sequence of `insert` / `remove` /
/// `bulk_load` / `apply_update` steps — duplicates inside a plan, removes of
/// absent quads, remove-then-reinsert, default and named graphs, plans that
/// read the store, empty plans — played in lock-step against
/// `SharedStore::new()` and `SharedStore::open(dir)` returns the same value
/// at every step and ends in the same state; the reopened directory equals
/// both, and replays exactly one record per update that changed something
/// since the last load that did (a load commits as a snapshot and leaves
/// the log empty).
#[test]
fn in_memory_and_durable_stores_agree_step_by_step() {
    let graphs = [
        None,
        Some(Term::Iri(Iri::new("http://e.org/graph/a").unwrap())),
        Some(Term::Iri(Iri::new("http://e.org/graph/b").unwrap())),
    ];
    let triple = |n: u64| person(n as u32 / 2)[n as usize % 2].clone();
    for seed in 1..=8u64 {
        // splitmix64: the whole schedule is a function of `seed`.
        let mut state = seed;
        let mut next = move |below: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % below
        };
        let dir = temp_dir(&format!("differential-{seed}"));
        let memory = SharedStore::new();
        let (durable, _) = SharedStore::open(&dir).unwrap();
        let (mut changed, mut logged) = (0, 0);
        for step in 0..250 {
            let kind = next(6);
            let any_triple = triple(next(8));
            let triples: Vec<Triple> = (0..next(6)).map(|_| triple(next(8))).collect();
            let mut some_quads = |at_most: u64| -> Vec<Quad> {
                (0..next(at_most + 1))
                    .map(|_| Quad::new(triple(next(8)), graphs[next(3) as usize].clone()))
                    .collect()
            };
            let (removes, inserts) = (some_quads(4), some_quads(4));
            let cleared = graphs[next(3) as usize].clone();
            let play = |store: &SharedStore| -> (usize, usize) {
                match kind {
                    0 => (0, log(store, vec![any_triple.clone()])),
                    1 => (unlog(store, any_triple.clone()) as usize, 0),
                    2 => (0, store.bulk_load(triples.iter())),
                    3 => store
                        .apply_update(|_| (removes.clone(), inserts.clone()))
                        .unwrap(),
                    // A plan that reads the state it commits against: move
                    // one graph's quads out and put `inserts` in.
                    4 => store
                        .apply_update(|current| {
                            let gone = current.iter_quads().filter(|q| q.graph == cleared);
                            (gone.collect(), inserts.clone())
                        })
                        .unwrap(),
                    _ => store.apply_update(|_| (Vec::new(), Vec::new())).unwrap(),
                }
            };
            let outcome = play(&memory);
            assert_eq!(
                play(&durable),
                outcome,
                "seed {seed} step {step} kind {kind}"
            );
            if outcome != (0, 0) {
                changed += 1;
                logged = if kind == 2 { 0 } else { logged + 1 };
            }
            assert_eq!(
                durable.wal_bytes() == Some(0),
                logged == 0,
                "seed {seed} step {step} kind {kind}"
            );
        }
        let expected = fingerprint(&memory.snapshot());
        assert_eq!(fingerprint(&durable.snapshot()), expected, "seed {seed}");
        drop(durable); // release the directory lock before reopening
        let (reopened, report) = SharedStore::open(&dir).unwrap();
        assert_eq!(fingerprint(&reopened.snapshot()), expected, "seed {seed}");
        assert_eq!(report.wal_ops_replayed, logged, "seed {seed}");
        assert!(
            changed > 100,
            "seed {seed}: the schedule should mostly change things"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The record layout is pinned: this delta — default and named graph, every
/// term kind — encodes to exactly these bytes (captured from the
/// `WalOp::Update` encoder of the commit before the other four record
/// types were deleted), and a log holding them replays to the delta.
#[test]
fn record_bytes_are_pinned() {
    const GOLDEN: &str = "a2000000d49ca1ac\
        050100000e687474703a2f2f652e6f72672f61000e687474703a2f2f652e6f72672f7002036f6c64\
        0201000e687474703a2f2f652e6f72672f67000e687474703a2f2f652e6f72672f61\
        000e687474703a2f2f652e6f72672f7003036e657702656e\
        00010162000e687474703a2f2f652e6f72672f70\
        04013728687474703a2f2f7777772e77332e6f72672f323030312f584d4c536368656d6123696e7465676572";
    let iri = |s: &str| Term::Iri(Iri::new(s).unwrap());
    let (a, p, g) = (
        iri("http://e.org/a"),
        iri("http://e.org/p"),
        iri("http://e.org/g"),
    );
    let op = WalOp {
        removes: vec![Quad::new(
            Triple::new(a.clone(), p.clone(), Literal::string("old")),
            None,
        )],
        inserts: vec![
            Quad::new(
                Triple::new(a, p.clone(), Literal::lang_string("new", "en")),
                Some(g),
            ),
            Quad::new(
                Triple::new(BlankNode::new("b"), p, Literal::integer(7)),
                None,
            ),
        ],
    };
    let record = encode_record(&op);
    let hex: String = record.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, GOLDEN);

    let dir = temp_dir("golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("wal.log"), &record).unwrap();
    let (recovered, report) = SharedStore::open(&dir).unwrap();
    assert_eq!(report.wal_ops_replayed, 1);
    let expected: BTreeSet<String> = op.inserts.iter().map(|q| q.to_nquads()).collect();
    assert_eq!(fingerprint(&recovered.snapshot()), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

fn dir_contents(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .map(|path| (path.clone(), std::fs::read(&path).unwrap()))
        .collect()
}

/// A directory written by a different format version — a checksum-valid WAL
/// record with another tag, or a snapshot of another version — is refused
/// with a typed error and left byte-identical: never replayed as something
/// else, never truncated.
#[test]
fn a_directory_of_another_format_version_is_refused_untouched() {
    let refused = |dir: &Path, expect: &str| {
        let before = dir_contents(dir);
        match SharedStore::open(dir) {
            Err(e @ PersistError::Corrupt { .. }) => {
                assert!(e.to_string().contains(expect), "{e}")
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
        assert_eq!(
            dir_contents(dir),
            before,
            "the refusal modified the directory"
        );
    };

    // An acknowledged record, then a whole record of the retired triple
    // batch type (tag 1, empty batch), then another acknowledged record.
    let dir = temp_dir("foreign-wal");
    {
        let (shared, _) = SharedStore::open(&dir).unwrap();
        log(&shared, person(1));
    }
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let foreign_at = bytes.len();
    let payload = [1u8, 0];
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&encode_record(&WalOp {
        removes: Vec::new(),
        inserts: person(2).into_iter().map(Quad::from).collect(),
    }));
    std::fs::write(&wal, &bytes).unwrap();
    refused(
        &dir,
        &format!("byte offset {foreign_at} cannot be read: unknown record tag 1 "),
    );
    let _ = std::fs::remove_dir_all(&dir);

    // A checkpointed directory whose snapshot says version 1, or version 2
    // — the format before front coding (header checksum recomputed, so the
    // file is well-formed).
    for version in [1u32, 2] {
        let dir = temp_dir(&format!("foreign-snapshot-{version}"));
        {
            let (shared, _) = SharedStore::open(&dir).unwrap();
            log(&shared, person(1));
            shared.checkpoint().unwrap();
            log(&shared, person(2));
        }
        let snapshot = dir.join("snapshot-0000000000000001.hbs");
        let mut bytes = std::fs::read(&snapshot).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let header_crc = crc32(&bytes[..40]);
        bytes[40..44].copy_from_slice(&header_crc.to_le_bytes());
        std::fs::write(&snapshot, &bytes).unwrap();
        refused(&dir, &format!("unsupported snapshot version {version} "));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
