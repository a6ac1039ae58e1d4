//! A thread-safe, snapshot-based handle around a [`TripleStore`], with
//! optional durability.
//!
//! The simulated endpoint fleet serves queries from many extraction worker
//! threads at once (`hbold::ExtractionPipeline::run_many` fans a crawl out
//! over endpoints, and the server's threads answer concurrent clients), so
//! the read path must never block behind a writer. [`SharedStore`] therefore
//! keeps the current store behind an `Arc`, and has one read path and one
//! update path. A reader takes a [`SharedStore::snapshot`] — a brief read
//! lock to clone the `Arc` — and queries that immutable version lock-free.
//! A writer does all of its slow work beside the published version and takes
//! the store's write lock only to publish.
//!
//! The result is that a query never observes a half-applied write: either it
//! sees the store from before a commit or from after it, with dictionary
//! and quad indexes always mutually consistent.
//!
//! # Updates and loads
//!
//! An *update* ([`SharedStore::apply_update`], the entry point of SPARQL
//! Update executors) is a plan: it looks at a snapshot and names quads to
//! remove and quads to insert. The store normalises that to the actual
//! delta, logs it, and only then applies it in place under the write lock
//! (`Arc::make_mut` clones the store only when other snapshots are
//! outstanding). A failed log append is returned as a [`PersistError`] with
//! nothing applied.
//!
//! A *load* ([`SharedStore::bulk_load`], [`SharedStore::try_bulk_load`])
//! is a batch of triples, possibly streamed straight from a parser. It is
//! interned into the next store version, built beside the published one
//! (into an empty store when nothing was ever interned, so a first load is
//! a fresh load in term order), and that version is published whole — or,
//! on a source error, dropped with nothing published.
//!
//! Writers — updates, loads and checkpoints — take turns on one writers'
//! mutex, which readers never touch, so each write plans against the version
//! it publishes over.
//!
//! # Durability
//!
//! A store created with [`SharedStore::open`] is backed by a persistence
//! directory (see [`crate::persist`]). Every update that changes anything is
//! appended to a write-ahead log as one record before it is applied, and
//! [`SharedStore::checkpoint`] compacts the log into a fresh binary
//! snapshot. A load logs nothing: its next version is written as the next
//! snapshot generation through the same checkpoint protocol, and the
//! snapshot's rename is the load's commit. Reopening the same directory —
//! including after the process was killed mid-write — recovers exactly the
//! committed writes. An in-memory store takes the same steps minus the
//! disk.
//!
//! ```
//! use hbold_rdf_model::{Iri, Quad, Triple, vocab::{foaf, rdf}};
//! use hbold_triple_store::SharedStore;
//!
//! let dir = std::env::temp_dir().join(format!("hbold-doc-shared-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! {
//!     let (store, _report) = SharedStore::open(&dir)?;
//!     let alice = Triple::new(Iri::new("http://example.org/alice")?, rdf::type_(), foaf::person());
//!     store.apply_update(|_| (Vec::new(), vec![Quad::from(alice)]))?;
//! } // process "dies" here — no checkpoint, the WAL has the write
//! let (reopened, report) = SharedStore::open(&dir)?;
//! assert_eq!(reopened.len(), 1);
//! assert_eq!(report.wal_ops_replayed, 1);
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::borrow::Borrow;
use std::collections::HashSet;
use std::convert::Infallible;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hbold_rdf_model::{Graph, Quad, Triple};
use parking_lot::{Mutex, RwLock};

use crate::persist::{PersistError, PersistOptions, Persistence, RecoveryReport, WalOp};
use crate::store::TripleStore;

/// Why [`SharedStore::try_bulk_load`] committed nothing. Either way the
/// published store is unchanged, and so is a durable store's directory.
#[derive(Debug)]
pub enum LoadError<E> {
    /// The triple source failed — for a parser, the first malformed line.
    Source(E),
    /// The loaded version could not be written as the next snapshot.
    Persist(PersistError),
}

impl<E: fmt::Display> fmt::Display for LoadError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Source(e) => e.fmt(f),
            LoadError::Persist(e) => write!(f, "the load could not be made durable: {e}"),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for LoadError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Source(e) => Some(e),
            LoadError::Persist(e) => Some(e),
        }
    }
}

/// A cheaply clonable, thread-safe triple store handle with snapshot reads
/// and optional write-ahead-logged durability.
///
/// ```
/// use hbold_rdf_model::{Iri, Quad, Triple, vocab::{foaf, rdf}};
/// use hbold_triple_store::SharedStore;
///
/// let store = SharedStore::new();
/// let snapshot = store.snapshot(); // frozen view, lock-free to query
/// let alice = Triple::new(Iri::new("http://example.org/alice")?, rdf::type_(), foaf::person());
/// store.apply_update(|_| (Vec::new(), vec![Quad::from(alice)]))?;
/// assert_eq!(snapshot.len(), 0, "snapshots never see later writes");
/// assert_eq!(store.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedStore {
    inner: Arc<RwLock<Arc<TripleStore>>>,
    // The writers' mutex, and the persistence directory of a durable store.
    // Writers serialise on `persist`, and `inner`'s write lock is held only
    // to publish.
    persist: Arc<Mutex<Option<Persistence>>>,
}

impl SharedStore {
    /// Creates an empty, purely in-memory shared store.
    pub fn new() -> Self {
        SharedStore::default()
    }

    /// Wraps an existing store (in-memory, no durability).
    pub fn from_store(store: TripleStore) -> Self {
        SharedStore {
            inner: Arc::new(RwLock::new(Arc::new(store))),
            persist: Arc::default(),
        }
    }

    /// Builds a shared store from a graph (in-memory, no durability).
    pub fn from_graph(graph: &Graph) -> Self {
        SharedStore::from_store(TripleStore::from_graph(graph))
    }

    /// Opens (creating if needed) a durable store rooted at `dir` with
    /// default [`PersistOptions`], recovering whatever a previous process
    /// left there: the newest valid snapshot plus a replay of the
    /// write-ahead log, truncating a torn tail record instead of failing.
    ///
    /// The directory is exclusively held (advisory `dir/lock` file) until
    /// every clone of the returned store is dropped: a second concurrent
    /// open — same process or another — fails cleanly instead of letting
    /// two writers corrupt the shared WAL. The lock dies with the
    /// process, so a crash never wedges the directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<(SharedStore, RecoveryReport), PersistError> {
        SharedStore::open_with(dir, PersistOptions::default())
    }

    /// [`SharedStore::open`] with explicit [`PersistOptions`].
    pub fn open_with(
        dir: impl AsRef<Path>,
        options: PersistOptions,
    ) -> Result<(SharedStore, RecoveryReport), PersistError> {
        let (store, persistence, report) = Persistence::open(dir, options)?;
        Ok((
            SharedStore {
                inner: Arc::new(RwLock::new(Arc::new(store))),
                persist: Arc::new(Mutex::new(Some(persistence))),
            },
            report,
        ))
    }

    /// `true` when this store is backed by a persistence directory.
    pub fn is_durable(&self) -> bool {
        self.persist.lock().is_some()
    }

    /// The persistence directory, when the store is durable.
    pub fn data_dir(&self) -> Option<PathBuf> {
        self.persist.lock().as_ref().map(|p| p.dir().to_path_buf())
    }

    /// Bytes currently in the write-ahead log (`None` for in-memory
    /// stores). Grows with every durable update, returns to zero at each
    /// checkpoint and load.
    pub fn wal_bytes(&self) -> Option<u64> {
        self.persist.lock().as_ref().map(Persistence::wal_bytes)
    }

    /// Compacts the write-ahead log into a fresh snapshot (temp file +
    /// fsync + atomic rename), then empties the log and deletes older
    /// snapshot generations. Returns the new snapshot generation, or
    /// `Ok(None)` for an in-memory store.
    ///
    /// Writers are excluded for the duration (they queue on the
    /// persistence lock); readers are not — the slow encode/write/fsync
    /// runs against a frozen `Arc` snapshot, never under the store lock.
    pub fn checkpoint(&self) -> Result<Option<u64>, PersistError> {
        let mut persist = self.persist.lock();
        let Some(persist) = persist.as_mut() else {
            return Ok(None);
        };
        // With the persistence lock held no durable write can apply or
        // log, so this snapshot is exactly the state the WAL describes.
        let snapshot = self.snapshot();
        let generation = persist.checkpoint(&snapshot)?;
        Ok(Some(generation))
    }

    /// Fsyncs the write-ahead log, making all committed writes power-loss
    /// durable without the cost of a checkpoint. No-op for in-memory
    /// stores.
    pub fn sync(&self) -> Result<(), PersistError> {
        match self.persist.lock().as_mut() {
            Some(persist) => persist.sync(),
            None => Ok(()),
        }
    }

    /// Returns an immutable snapshot of the current store state.
    ///
    /// The lock is held only long enough to clone the `Arc`; all subsequent
    /// reads against the snapshot are lock-free and see a single consistent
    /// version of the dictionary and indexes, even while writers keep
    /// loading data concurrently.
    pub fn snapshot(&self) -> Arc<TripleStore> {
        self.inner.read().clone()
    }

    /// Number of stored triples.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Returns `true` if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// Bulk-loads a batch of triples into the default graph, returning how
    /// many were new: [`SharedStore::try_bulk_load`] over a source that
    /// cannot fail.
    ///
    /// # Panics
    /// Panics if the store is durable and the loaded version cannot be
    /// written as a snapshot — the in-memory and on-disk histories would
    /// otherwise diverge silently.
    pub fn bulk_load<'a>(&self, triples: impl IntoIterator<Item = &'a Triple>) -> usize {
        match self.try_bulk_load(triples.into_iter().map(Ok::<_, Infallible>)) {
            Ok(added) => added,
            Err(LoadError::Source(never)) => match never {},
            Err(e @ LoadError::Persist(_)) => panic!("{e}"),
        }
    }

    /// Loads a stream of triples into the default graph — typically a
    /// parser's, read straight from a file — and returns how many were new.
    ///
    /// The triples are interned one by one into the next store version,
    /// built beside the published one: into an empty store when nothing was
    /// ever interned (a fresh load, numbered in term order), else into a copy
    /// of the published store. Neither the batch nor its terms are held
    /// anywhere else. Only the finished version's publication takes the
    /// store's write lock, so readers keep querying the previous version
    /// throughout and never see part of a load.
    ///
    /// On a durable store the version is made durable *before* it is
    /// published, as the next snapshot generation through the checkpoint
    /// protocol (temp file, fsync, rename, directory fsync, log reset): the
    /// rename is the commit, and nothing is logged. A log that is not empty
    /// is first compacted by an ordinary checkpoint, so the loaded snapshot
    /// is only ever renamed in over an empty log — otherwise a crash between
    /// that rename and the log reset would replay old records (say, the
    /// remove of a triple this load re-adds) over the loaded data.
    ///
    /// A load that adds nothing writes nothing. On any error nothing is
    /// published and nothing of the load reaches the directory:
    /// [`LoadError::Source`] carries the source's first error,
    /// [`LoadError::Persist`] a failed snapshot write.
    pub fn try_bulk_load<T: Borrow<Triple>, E>(
        &self,
        triples: impl IntoIterator<Item = Result<T, E>>,
    ) -> Result<usize, LoadError<E>> {
        // Every writer serializes here, so the version built below is never
        // stale by the time it is published.
        let mut persist = self.persist.lock();
        let published = self.snapshot();
        let mut next = if published.term_count() == 0 {
            TripleStore::new()
        } else {
            TripleStore::clone(&published)
        };
        let added = next.try_insert_batch(triples).map_err(LoadError::Source)?;
        if added == 0 {
            return Ok(0);
        }
        if let Some(persist) = persist.as_mut() {
            if persist.wal_bytes() > 0 {
                persist.checkpoint(&published).map_err(LoadError::Persist)?;
            }
            persist.checkpoint(&next).map_err(LoadError::Persist)?;
        }
        *self.inner.write() = Arc::new(next);
        Ok(added)
    }

    /// Commits one atomic update step: `plan` inspects a snapshot of the
    /// current store and returns the quads to remove and the quads to
    /// insert; both are applied as a single store transition, so snapshot
    /// readers see either none or all of the update. No other write can
    /// come between the plan and its commit.
    ///
    /// The plan is normalized before committing — removes are filtered to
    /// quads actually present, inserts to quads actually absent after the
    /// removes, both to distinct quads — and the normalized delta is
    /// written to the write-ahead log as **one** record, which replays
    /// idempotently; a plan that changes nothing appends nothing. Returns
    /// `(removed, inserted)` counts.
    ///
    /// The plan runs without the store lock, so readers keep taking
    /// snapshots while it evaluates; only the apply takes the write lock.
    /// Auto-checkpoints afterwards when the log has outgrown its budget.
    ///
    /// This is the durability-correct entry point for SPARQL 1.1 Update:
    /// evaluating `DELETE`/`INSERT ... WHERE` against the same state it
    /// mutates, with crash-atomicity per update.
    ///
    /// # Errors
    /// A durable store returns the [`PersistError`] of a failed log append.
    /// The append is the commit point, so nothing has been applied then:
    /// the published store is unchanged, and the log is cut back to its
    /// last whole record, so the next update succeeds once the fault
    /// clears. (Should even that cut fail, the log refuses every later
    /// append until the directory is reopened.) Apart from `plan` itself,
    /// nothing here panics.
    pub fn apply_update(
        &self,
        plan: impl FnOnce(&TripleStore) -> (Vec<Quad>, Vec<Quad>),
    ) -> Result<(usize, usize), PersistError> {
        let mut persist = self.persist.lock();
        let op = {
            let view = self.snapshot();
            let (mut removes, mut inserts) = plan(&view);
            retain_distinct(&mut removes, |q| view.contains_quad(q));
            let removed: HashSet<&Quad> = removes.iter().collect();
            retain_distinct(&mut inserts, |q| {
                !view.contains_quad(q) || removed.contains(q)
            });
            WalOp { removes, inserts }
        }; // the view is gone: `make_mut` below clones only for other readers
        let counts = (op.removes.len(), op.inserts.len());
        if counts != (0, 0) {
            if let Some(persist) = persist.as_mut() {
                persist.log(&op)?;
            }
            op.apply(Arc::make_mut(&mut self.inner.write()));
        }
        if let Some(persist) = persist.as_mut().filter(|p| p.wants_checkpoint()) {
            // A failed compaction loses nothing — the operation is already
            // committed in the WAL, which simply keeps growing until a
            // later checkpoint succeeds. Warn (once per failure streak,
            // not once per write) and keep serving; embedders that need a
            // programmatic signal call [`SharedStore::checkpoint`]
            // themselves and get the error.
            match persist.checkpoint(&self.snapshot()) {
                Ok(_) => persist.checkpoint_failing = false,
                Err(e) => {
                    if !persist.checkpoint_failing {
                        eprintln!("hbold_triple_store: auto-checkpoint failed (will retry): {e}");
                    }
                    persist.checkpoint_failing = true;
                }
            }
        }
        Ok(counts)
    }
}

/// Keeps, in place and in order, the first occurrence of every quad that
/// `keep` accepts — by reference: the set borrows the quads it has seen and
/// nothing is cloned.
fn retain_distinct(quads: &mut Vec<Quad>, mut keep: impl FnMut(&Quad) -> bool) {
    let mut seen = HashSet::with_capacity(quads.len());
    let kept: Vec<bool> = quads.iter().map(|q| keep(q) && seen.insert(q)).collect();
    let mut kept = kept.into_iter();
    quads.retain(|_| kept.next() == Some(true));
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbold_rdf_model::vocab::{foaf, rdf};
    use hbold_rdf_model::{Iri, TriplePattern};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hbold-shared-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn t(n: u32) -> Triple {
        Triple::new(
            Iri::new(format!("http://e.org/{n}")).unwrap(),
            rdf::type_(),
            foaf::person(),
        )
    }

    /// One logged update inserting `triples` into the default graph.
    fn log_insert(shared: &SharedStore, triples: impl IntoIterator<Item = Triple>) -> usize {
        let quads = triples.into_iter().map(Quad::from).collect();
        shared.apply_update(|_| (Vec::new(), quads)).unwrap().1
    }

    #[test]
    fn shared_store_is_usable_across_threads() {
        let shared = SharedStore::new();
        let mut handles = Vec::new();
        for worker in 0..4 {
            let store = shared.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let subject = Iri::new(format!("http://e.org/w{worker}/i{i}")).unwrap();
                    log_insert(&store, [Triple::new(subject, rdf::type_(), foaf::person())]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.len(), 200);
        assert_eq!(
            shared
                .snapshot()
                .count_matching(&TriplePattern::any().with_predicate(rdf::type_())),
            200
        );
    }

    #[test]
    fn read_and_write_closures() {
        let shared = SharedStore::new();
        log_insert(&shared, [t(0)]);
        let classes = shared.snapshot().to_graph().classes();
        assert!(classes.contains(&foaf::person()));
        assert!(!shared.is_empty());
        assert!(!shared.is_durable());
        assert_eq!(shared.wal_bytes(), None);
        assert_eq!(shared.checkpoint().unwrap(), None);
    }

    #[test]
    fn snapshots_are_immune_to_later_writes() {
        let shared = SharedStore::new();
        log_insert(&shared, [t(0)]);
        let before = shared.snapshot();
        let batch: Vec<Triple> = (1..100).map(t).collect();
        assert_eq!(shared.bulk_load(batch.iter()), 99);
        assert_eq!(before.len(), 1, "old snapshot stays frozen");
        assert_eq!(shared.len(), 100);
        assert_eq!(shared.snapshot().len(), 100);
    }

    #[test]
    fn bulk_load_deduplicates() {
        let shared = SharedStore::new();
        assert_eq!(shared.bulk_load([&t(0), &t(0)]), 1);
        assert_eq!(shared.bulk_load([&t(0)]), 0);
        assert_eq!(shared.len(), 1);
    }

    /// One logged update removing `triple` from the default graph.
    fn log_remove(shared: &SharedStore, triple: Triple) -> usize {
        let quads = vec![Quad::from(triple)];
        shared.apply_update(|_| (quads, Vec::new())).unwrap().0
    }

    /// The snapshot and temp-snapshot files in `dir`, sorted.
    fn generations(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".hbs"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn durable_store_round_trips_without_checkpoint() {
        let dir = temp_dir("wal-only");
        {
            let (shared, report) = SharedStore::open(&dir).unwrap();
            assert_eq!(report, RecoveryReport::default());
            assert!(shared.is_durable());
            assert_eq!(shared.data_dir(), Some(dir.clone()));
            log_insert(&shared, [t(1)]);
            log_insert(&shared, (2..20).map(t));
            log_remove(&shared, t(5));
            assert!(shared.wal_bytes().unwrap() > 0);
        }
        let (reopened, report) = SharedStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 18);
        assert!(!reopened.snapshot().contains(&t(5)));
        assert_eq!(report.wal_ops_replayed, 3);
        assert_eq!(report.snapshot_generation, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_then_more_writes_then_recover() {
        let dir = temp_dir("checkpointed");
        {
            let (shared, _) = SharedStore::open(&dir).unwrap();
            log_insert(&shared, (0..50).map(t));
            assert_eq!(shared.checkpoint().unwrap(), Some(1));
            assert_eq!(shared.wal_bytes(), Some(0));
            log_insert(&shared, [t(100)]); // lands in the fresh WAL
        }
        let (reopened, report) = SharedStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 51);
        assert_eq!(report.snapshot_generation, Some(1));
        assert_eq!(report.wal_ops_replayed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_op_writes_leave_the_wal_untouched() {
        let dir = temp_dir("noop");
        let (shared, _) = SharedStore::open(&dir).unwrap();
        log_insert(&shared, [t(1)]);
        let after_insert = shared.wal_bytes().unwrap();
        assert_eq!(log_insert(&shared, [t(1)]), 0); // duplicate
        assert_eq!(log_remove(&shared, t(99)), 0); // absent
        assert_eq!(log_insert(&shared, [t(1), t(1)]), 0); // fully deduplicated
        assert_eq!(shared.wal_bytes().unwrap(), after_insert);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bulk_load_logs_nothing_and_a_reload_writes_nothing() {
        let dir = temp_dir("load-snapshot");
        let (shared, _) = SharedStore::open(&dir).unwrap();
        let batch: Vec<Triple> = (0..20).map(t).collect();
        assert_eq!(shared.bulk_load(batch.iter()), 20);
        // The load committed as the next snapshot generation, not a record.
        assert_eq!(shared.wal_bytes(), Some(0));
        assert_eq!(generations(&dir), ["snapshot-0000000000000001.hbs"]);
        let loaded = std::fs::read(dir.join("snapshot-0000000000000001.hbs")).unwrap();
        assert_eq!(loaded, crate::persist::snapshot::encode(&shared.snapshot()));
        // Re-loading what is already there writes nothing at all.
        assert_eq!(shared.bulk_load(batch.iter()), 0);
        assert_eq!(shared.wal_bytes(), Some(0));
        assert_eq!(generations(&dir), ["snapshot-0000000000000001.hbs"]);
        // One new triple is the next generation; the older one is gone.
        let mut grown = batch.clone();
        grown.push(t(100));
        assert_eq!(shared.bulk_load(grown.iter()), 1);
        assert_eq!(shared.wal_bytes(), Some(0));
        assert_eq!(generations(&dir), ["snapshot-0000000000000002.hbs"]);
        drop(shared); // release the directory lock before reopening
        let (reopened, report) = SharedStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 21);
        assert_eq!(report.snapshot_generation, Some(2));
        assert_eq!(report.wal_ops_replayed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_load_publishes_nothing_and_leaves_the_directory_alone() {
        let dir = temp_dir("failed-load");
        let (shared, _) = SharedStore::open(&dir).unwrap();
        log_insert(&shared, [t(1)]);
        let wal = std::fs::read(dir.join("wal.log")).unwrap();
        let before = shared.snapshot();
        let source = (2..10)
            .map(|n| Ok(t(n)))
            .chain([Err("line 9 is malformed")]);
        match shared.try_bulk_load(source) {
            Err(LoadError::Source(e)) => assert_eq!(e, "line 9 is malformed"),
            other => panic!("expected the source's error, got {other:?}"),
        }
        assert!(
            Arc::ptr_eq(&before, &shared.snapshot()),
            "a version was published"
        );
        assert_eq!(shared.snapshot().term_count(), 3, "the load's terms leaked");
        assert!(generations(&dir).is_empty(), "{:?}", generations(&dir));
        assert_eq!(std::fs::read(dir.join("wal.log")).unwrap(), wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_checkpoint_fires_when_wal_exceeds_budget() {
        let dir = temp_dir("auto");
        let options = PersistOptions {
            checkpoint_wal_bytes: Some(256),
            ..PersistOptions::default()
        };
        let (shared, _) = SharedStore::open_with(&dir, options).unwrap();
        for n in 0..64 {
            log_insert(&shared, [t(n)]);
        }
        // The WAL kept being compacted away, so it is far below 64 records.
        assert!(shared.wal_bytes().unwrap() <= 256 + 128);
        drop(shared); // release the directory lock before reopening
        let (reopened, report) = SharedStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 64);
        assert!(report.snapshot_generation.unwrap_or(0) >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quad_writes_recover_after_reopen() {
        let dir = temp_dir("quads");
        let g: hbold_rdf_model::Term = Iri::new("http://graphs.example/g1").unwrap().into();
        {
            let (shared, _) = SharedStore::open(&dir).unwrap();
            let one = || vec![Quad::new(t(1), Some(g.clone()))];
            let update = |removes, inserts| shared.apply_update(|_| (removes, inserts)).unwrap();
            assert_eq!(update(vec![], one()), (0, 1));
            assert_eq!(update(vec![], one()), (0, 0));
            let batch: Vec<Quad> = (2..10).map(|n| Quad::new(t(n), Some(g.clone()))).collect();
            assert_eq!(update(vec![], batch), (0, 8));
            let two = vec![Quad::new(t(2), Some(g.clone()))];
            assert_eq!(update(two, vec![]), (1, 0));
            let (removed, inserted) = update(
                vec![Quad::new(t(3), Some(g.clone()))],
                vec![Quad::new(t(3), None), Quad::new(t(3), Some(g.clone()))],
            );
            assert_eq!((removed, inserted), (1, 2));
        }
        let (reopened, report) = SharedStore::open(&dir).unwrap();
        assert_eq!(report.wal_ops_replayed, 4);
        let snap = reopened.snapshot();
        assert_eq!(snap.len(), 9, "8 named quads + 1 default-graph triple");
        assert_eq!(snap.default_graph_len(), 1);
        assert!(snap.contains_in_graph(&t(3), Some(&g)));
        assert!(!snap.contains_in_graph(&t(2), Some(&g)));
        assert!(snap.contains(&t(3)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn apply_update_normalizes_to_the_actual_delta() {
        let shared = SharedStore::new();
        let g: hbold_rdf_model::Term = Iri::new("http://graphs.example/g1").unwrap().into();
        shared
            .apply_update(|_| (vec![], vec![Quad::new(t(1), Some(g.clone()))]))
            .unwrap();
        // Removing an absent quad and inserting a present one are no-ops;
        // remove-then-reinsert of the same quad is a real (2-count) step.
        let counts = shared.apply_update(|_| {
            (
                vec![
                    Quad::new(t(9), Some(g.clone())), // absent
                    Quad::new(t(1), Some(g.clone())),
                ],
                vec![
                    Quad::new(t(1), Some(g.clone())), // reinserted after remove
                    Quad::new(t(1), Some(g.clone())), // duplicate in plan
                ],
            )
        });
        assert_eq!(counts.unwrap(), (1, 1));
        assert_eq!(shared.snapshot().len(), 1);
        assert_eq!(shared.apply_update(|_| (vec![], vec![])).unwrap(), (0, 0));
    }

    #[test]
    fn a_reader_does_not_wait_for_an_update_s_plan() {
        let shared = SharedStore::new();
        log_insert(&shared, [t(0)]);
        let (planning, started) = std::sync::mpsc::channel();
        let writer = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                shared.apply_update(|_| {
                    planning.send(()).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(500));
                    (Vec::new(), vec![Quad::from(t(1))])
                })
            })
        };
        started.recv().unwrap();
        let asked = std::time::Instant::now();
        let view = shared.snapshot();
        let waited = asked.elapsed();
        assert!(
            waited < std::time::Duration::from_millis(50),
            "snapshot() waited {waited:?} for the plan"
        );
        assert_eq!(view.len(), 1, "the plan's update is not yet published");
        drop(view);
        assert_eq!(writer.join().unwrap().unwrap(), (0, 1));
        assert_eq!(shared.len(), 2);
    }

    #[test]
    fn an_update_applies_in_place_unless_a_snapshot_is_held() {
        let shared = SharedStore::new();
        log_insert(&shared, (0..10).map(t));
        let published = Arc::as_ptr(&shared.snapshot());
        assert_eq!(log_insert(&shared, [t(10)]), 1);
        assert_eq!(
            Arc::as_ptr(&shared.snapshot()),
            published,
            "an update with no snapshot held cloned the store"
        );
        // A reader's snapshot stays frozen, so the update works on a copy.
        let held = shared.snapshot();
        assert_eq!(log_insert(&shared, [t(11)]), 1);
        assert_ne!(Arc::as_ptr(&shared.snapshot()), published);
        assert_eq!((held.len(), shared.len()), (11, 12));
    }

    #[test]
    fn readers_never_observe_a_partially_applied_update() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let shared = SharedStore::new();
        let ga: hbold_rdf_model::Term = Iri::new("http://graphs.example/a").unwrap().into();
        let gb: hbold_rdf_model::Term = Iri::new("http://graphs.example/b").unwrap().into();
        // Ten tokens start in graph A; every update moves all ten at once
        // to the other graph. Atomic visibility = every snapshot sees all
        // ten tokens in exactly one of the graphs, never split.
        let tokens: Vec<Triple> = (0..10).map(t).collect();
        let batch: Vec<Quad> = tokens
            .iter()
            .map(|tr| Quad::new(tr.clone(), Some(ga.clone())))
            .collect();
        shared.apply_update(|_| (vec![], batch)).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let shared = shared.clone();
            let (ga, gb) = (ga.clone(), gb.clone());
            let tokens = tokens.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut in_a = true;
                while !stop.load(Ordering::Relaxed) {
                    let (from, to) = if in_a {
                        (ga.clone(), gb.clone())
                    } else {
                        (gb.clone(), ga.clone())
                    };
                    let moved = shared.apply_update(|_| {
                        (
                            tokens
                                .iter()
                                .map(|tr| Quad::new(tr.clone(), Some(from.clone())))
                                .collect(),
                            tokens
                                .iter()
                                .map(|tr| Quad::new(tr.clone(), Some(to.clone())))
                                .collect(),
                        )
                    });
                    assert_eq!(moved.unwrap(), (10, 10));
                    in_a = !in_a;
                }
            })
        };
        let mut readers = Vec::new();
        for _ in 0..3 {
            let shared = shared.clone();
            let (ga, gb) = (ga.clone(), gb.clone());
            readers.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let snap = shared.snapshot();
                    let in_a = snap.graph_len(Some(&ga));
                    let in_b = snap.graph_len(Some(&gb));
                    assert!(
                        (in_a == 10 && in_b == 0) || (in_a == 0 && in_b == 10),
                        "partially applied update visible: a={in_a} b={in_b}"
                    );
                }
            }));
        }
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn durable_writes_from_many_threads_all_recover() {
        let dir = temp_dir("threads");
        {
            let (shared, _) = SharedStore::open(&dir).unwrap();
            let mut handles = Vec::new();
            for worker in 0..4 {
                let store = shared.clone();
                handles.push(std::thread::spawn(move || {
                    for i in 0..25 {
                        let s = Iri::new(format!("http://e.org/w{worker}/{i}")).unwrap();
                        log_insert(&store, [Triple::new(s, rdf::type_(), foaf::person())]);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(shared.len(), 100);
        }
        let (reopened, _) = SharedStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 100);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
