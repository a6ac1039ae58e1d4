//! A write-ahead log that refuses a record fails the update with a
//! [`PersistError`], and nothing of the update is applied.
//!
//! Fault injection is process-wide and read once from `HBOLD_FAULTS`, so
//! this binary arms it before anything else touches the injector, and holds
//! this one test.

use std::sync::Arc;

use hbold_rdf_model::vocab::{foaf, rdf};
use hbold_rdf_model::{Iri, Quad, Triple};
use hbold_triple_store::{FaultInjector, SharedStore};

fn quad(n: u32) -> Quad {
    let s = Iri::new(format!("http://e.org/{n}")).unwrap();
    Quad::from(Triple::new(s, rdf::type_(), foaf::person()))
}

/// About one WAL append in two fails. Every failed update leaves the published
/// store and `wal.log` exactly as they were, every other one commits, and a
/// reopened directory holds exactly the committed updates.
#[test]
fn a_refused_append_applies_nothing_and_the_next_update_commits() {
    std::env::set_var("HBOLD_FAULTS", "seed=3,wal_io=2");
    assert!(
        FaultInjector::active().is_some(),
        "fault injection is armed"
    );
    let dir = std::env::temp_dir().join(format!("hbold-wal-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = dir.join("wal.log");
    let mut committed = Vec::new();
    let mut refused = 0;
    {
        let (shared, _) = SharedStore::open(&dir).unwrap();
        for n in 0..32 {
            let before = shared.snapshot();
            let wal_len = std::fs::metadata(&wal).unwrap().len();
            match shared.apply_update(|_| (Vec::new(), vec![quad(n)])) {
                Ok(counts) => {
                    assert_eq!(counts, (0, 1));
                    assert!(std::fs::metadata(&wal).unwrap().len() > wal_len);
                    committed.push(quad(n));
                }
                Err(e) => {
                    assert!(e.to_string().contains("injected WAL I/O fault"), "{e}");
                    assert!(
                        Arc::ptr_eq(&before, &shared.snapshot()),
                        "a refused update published a version"
                    );
                    assert_eq!(std::fs::metadata(&wal).unwrap().len(), wal_len);
                    refused += 1;
                }
            }
            assert_eq!(shared.len(), committed.len());
        }
    }
    assert!(refused > 0 && !committed.is_empty(), "{refused} refused");
    let (reopened, report) = SharedStore::open(&dir).unwrap();
    assert_eq!(report.wal_ops_replayed, committed.len());
    let snapshot = reopened.snapshot();
    let mut recovered: Vec<Quad> = snapshot.iter_quads().collect();
    recovered.sort();
    committed.sort();
    assert_eq!(recovered, committed);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
