//! A thread-safe, snapshot-based handle around a [`TripleStore`], with
//! optional durability.
//!
//! The simulated endpoint fleet serves queries from many extraction worker
//! threads at once (`hbold::ExtractionPipeline::run_many` fans a crawl out
//! over endpoints, and the server's workers answer concurrent clients), so
//! the read path must never block behind a writer. [`SharedStore`] therefore keeps the current store behind an
//! `Arc`: readers grab a [`SharedStore::snapshot`] — a brief read-lock to
//! clone the `Arc`, after which they query the immutable snapshot entirely
//! lock-free — while updates mutate copy-on-write under a write lock
//! (`Arc::make_mut` clones the store only when snapshots are outstanding)
//! and loads take it only to swap in the version they built beside.
//!
//! The result is that a query never observes a half-applied write: either it
//! sees the store from before a commit or from after it, with dictionary
//! and quad indexes always mutually consistent.
//!
//! # Two write paths
//!
//! An *update* is a plan: it looks at the current state and names quads to
//! remove and quads to insert, and one private commit function normalises
//! that to the actual delta, logs it, applies it and publishes it as a
//! single transition. [`SharedStore::insert`] and [`SharedStore::remove`]
//! name one default-graph triple, and [`SharedStore::apply_update`] takes
//! the caller's own plan — the entry point of SPARQL Update executors.
//!
//! A *load* ([`SharedStore::bulk_load`], [`SharedStore::try_bulk_load`])
//! is a batch of triples, possibly streamed straight from a parser. It is
//! interned into the next store version, built beside the published one
//! (into an empty store when nothing was ever interned, so a first load is
//! a fresh load in term order), and that version is published whole — or,
//! on a source error, dropped with nothing published.
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
//! use hbold_rdf_model::{Iri, Triple, vocab::{foaf, rdf}};
//! use hbold_triple_store::SharedStore;
//!
//! let dir = std::env::temp_dir().join(format!("hbold-doc-shared-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! {
//!     let (store, _report) = SharedStore::open(&dir)?;
//!     store.insert(&Triple::new(
//!         Iri::new("http://example.org/alice")?,
//!         rdf::type_(),
//!         foaf::person(),
//!     ));
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

use hbold_rdf_model::{Graph, Quad, Triple, TriplePattern};
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
/// use hbold_rdf_model::{Iri, Triple, vocab::{foaf, rdf}};
/// use hbold_triple_store::SharedStore;
///
/// let store = SharedStore::new();
/// let snapshot = store.snapshot(); // frozen view, lock-free to query
/// store.insert(&Triple::new(
///     Iri::new("http://example.org/alice")?,
///     rdf::type_(),
///     foaf::person(),
/// ));
/// assert_eq!(snapshot.len(), 0, "snapshots never see later writes");
/// assert_eq!(store.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedStore {
    inner: Arc<RwLock<Arc<TripleStore>>>,
    // The writers' lock, and the persistence directory of a durable store.
    // Lock order: `persist` first, then the `inner` write lock. Every writer
    // holds the persist mutex across its whole write — WAL append + apply,
    // or a load's build + snapshot — so the log always reflects the
    // published store history and no write is built on a stale version;
    // checkpoints and loads hold only `persist` during their slow
    // build/encode/fsync phase, keeping readers (who take `inner` read
    // locks and never touch `persist`) unblocked.
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

    /// Inserts a triple into the default graph; returns `true` if it was
    /// not already present.
    ///
    /// # Panics
    /// Panics if the store is durable and the log append fails — the
    /// in-memory and on-disk histories would otherwise diverge silently.
    pub fn insert(&self, triple: &Triple) -> bool {
        let quad = Quad::from(triple.clone());
        self.commit(|_| (Vec::new(), vec![quad])).1 == 1
    }

    /// Removes a triple from the default graph; returns `true` if it was
    /// present. Panics like [`SharedStore::insert`] on log failure.
    pub fn remove(&self, triple: &Triple) -> bool {
        let quad = Quad::from(triple.clone());
        self.commit(|_| (vec![quad], Vec::new())).0 == 1
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

    /// Commits one atomic update step: `plan` inspects a consistent view
    /// of the current store (under the write lock, so no concurrent write
    /// can interleave) and returns the quads to remove and the quads to
    /// insert; both are applied as a single store transition, so snapshot
    /// readers see either none or all of the update.
    ///
    /// The plan is normalized before committing — removes are filtered to
    /// quads actually present, inserts to quads actually absent after the
    /// removes, both to distinct quads — and the normalized delta is
    /// written to the write-ahead log as **one** record, which replays
    /// idempotently; a plan that changes nothing appends nothing. Returns
    /// `(removed, inserted)` counts.
    ///
    /// This is the durability-correct entry point for SPARQL 1.1 Update:
    /// evaluating `DELETE`/`INSERT ... WHERE` against the same state it
    /// mutates, with crash-atomicity per update.
    ///
    /// # Panics
    /// Panics if the store is durable and the log append fails.
    pub fn apply_update(
        &self,
        plan: impl FnOnce(&TripleStore) -> (Vec<Quad>, Vec<Quad>),
    ) -> (usize, usize) {
        self.commit(plan)
    }

    /// Returns all triples matching the pattern.
    pub fn matching(&self, pattern: &TriplePattern) -> Vec<Triple> {
        self.snapshot().matching(pattern)
    }

    /// Counts triples matching the pattern.
    pub fn count_matching(&self, pattern: &TriplePattern) -> usize {
        self.snapshot().count_matching(pattern)
    }

    /// Runs `f` with shared (read) access to a consistent snapshot of the
    /// underlying store. The store lock is *not* held while `f` runs.
    pub fn read<R>(&self, f: impl FnOnce(&TripleStore) -> R) -> R {
        f(&self.snapshot())
    }

    /// The one way the store changes. Runs `plan` against the current
    /// store, normalises what it returns to the actual delta, and — if
    /// anything is left — **logs it first and applies it second** under the
    /// store write lock, so a failed append can never publish state the
    /// on-disk history lacks. An in-memory store takes the same steps minus
    /// the append. Auto-checkpoints afterwards when the WAL has outgrown its
    /// budget. Returns `(removed, inserted)`.
    fn commit(&self, plan: impl FnOnce(&TripleStore) -> (Vec<Quad>, Vec<Quad>)) -> (usize, usize) {
        // Persistence lock first (see the field's lock-order note), held
        // across plan + append + apply so the WAL order matches publish
        // order.
        let mut persist = self.persist.lock();
        let counts = {
            let mut guard = self.inner.write();
            let (mut removes, mut inserts) = plan(&guard);
            retain_distinct(&mut removes, |q| guard.contains_quad(q));
            let removed: HashSet<&Quad> = removes.iter().collect();
            retain_distinct(&mut inserts, |q| {
                !guard.contains_quad(q) || removed.contains(q)
            });
            let counts = (removes.len(), inserts.len());
            if counts != (0, 0) {
                let op = WalOp { removes, inserts };
                if let Some(persist) = persist.as_mut() {
                    // The append IS the commit point; nothing has been
                    // applied yet, so failing here leaves memory and disk
                    // consistent (both without the write).
                    persist
                        .log(&op)
                        .expect("write-ahead log append failed; cannot guarantee durability");
                }
                op.apply(Arc::make_mut(&mut guard));
            }
            counts
        }; // store lock released — readers proceed during any checkpoint
        if let Some(persist) = persist.as_mut().filter(|p| p.wants_checkpoint()) {
            let snapshot = self.inner.read().clone();
            // A failed compaction loses nothing — the operation is already
            // committed in the WAL, which simply keeps growing until a
            // later checkpoint succeeds. Warn (once per failure streak,
            // not once per write) and keep serving; embedders that need a
            // programmatic signal call [`SharedStore::checkpoint`]
            // themselves and get the error.
            match persist.checkpoint(&snapshot) {
                Ok(_) => persist.checkpoint_failing = false,
                Err(e) => {
                    if !persist.checkpoint_failing {
                        eprintln!("hbold_triple_store: auto-checkpoint failed (will retry): {e}");
                    }
                    persist.checkpoint_failing = true;
                }
            }
        }
        counts
    }
}

/// Keeps, in place and in order, the first occurrence of every quad that
/// `keep` accepts — by reference: the set borrows the quads it has seen and
/// nothing is cloned.
fn retain_distinct(quads: &mut Vec<Quad>, mut keep: impl FnMut(&Quad) -> bool) {
    let mut seen = HashSet::with_capacity(quads.len());
    let kept: Vec<bool> = quads.iter().map(|q| keep(q) && seen.insert(q)).collect();
    let mut kept = kept.into_iter();
    quads.retain(|_| kept.next().expect("one flag per quad"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbold_rdf_model::vocab::{foaf, rdf};
    use hbold_rdf_model::Iri;

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

    #[test]
    fn shared_store_is_usable_across_threads() {
        let shared = SharedStore::new();
        let mut handles = Vec::new();
        for worker in 0..4 {
            let store = shared.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let subject = Iri::new(format!("http://e.org/w{worker}/i{i}")).unwrap();
                    store.insert(&Triple::new(subject, rdf::type_(), foaf::person()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.len(), 200);
        assert_eq!(
            shared.count_matching(&TriplePattern::any().with_predicate(rdf::type_())),
            200
        );
    }

    #[test]
    fn read_and_write_closures() {
        let shared = SharedStore::new();
        shared.insert(&Triple::new(
            Iri::new("http://e.org/a").unwrap(),
            rdf::type_(),
            foaf::person(),
        ));
        let classes = shared.read(|store| store.to_graph().classes());
        assert!(classes.contains(&foaf::person()));
        assert!(!shared.is_empty());
        assert!(!shared.is_durable());
        assert_eq!(shared.wal_bytes(), None);
        assert_eq!(shared.checkpoint().unwrap(), None);
    }

    #[test]
    fn snapshots_are_immune_to_later_writes() {
        let shared = SharedStore::new();
        shared.insert(&t(0));
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

    /// One logged update inserting `triples` into the default graph.
    fn log_insert(shared: &SharedStore, triples: impl IntoIterator<Item = Triple>) -> usize {
        let quads = triples.into_iter().map(Quad::from).collect();
        shared.apply_update(|_| (Vec::new(), quads)).1
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
            shared.insert(&t(1));
            log_insert(&shared, (2..20).map(t));
            shared.remove(&t(5));
            assert!(shared.wal_bytes().unwrap() > 0);
        }
        let (reopened, report) = SharedStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 18);
        assert!(!reopened.matching(&TriplePattern::any()).contains(&t(5)));
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
            shared.insert(&t(100)); // lands in the fresh WAL
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
        shared.insert(&t(1));
        let after_insert = shared.wal_bytes().unwrap();
        shared.insert(&t(1)); // duplicate
        shared.remove(&t(99)); // absent
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
        shared.insert(&t(1));
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
            shared.insert(&t(n));
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
            assert_eq!(shared.apply_update(|_| (vec![], one())), (0, 1));
            assert_eq!(shared.apply_update(|_| (vec![], one())), (0, 0));
            let batch: Vec<Quad> = (2..10).map(|n| Quad::new(t(n), Some(g.clone()))).collect();
            assert_eq!(shared.apply_update(|_| (vec![], batch)), (0, 8));
            let two = vec![Quad::new(t(2), Some(g.clone()))];
            assert_eq!(shared.apply_update(|_| (two, vec![])), (1, 0));
            let (removed, inserted) = shared.apply_update(|_| {
                (
                    vec![Quad::new(t(3), Some(g.clone()))],
                    vec![Quad::new(t(3), None), Quad::new(t(3), Some(g.clone()))],
                )
            });
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
        shared.apply_update(|_| (vec![], vec![Quad::new(t(1), Some(g.clone()))]));
        // Removing an absent quad and inserting a present one are no-ops;
        // remove-then-reinsert of the same quad is a real (2-count) step.
        let (removed, inserted) = shared.apply_update(|_| {
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
        assert_eq!((removed, inserted), (1, 1));
        assert_eq!(shared.snapshot().len(), 1);
        let (removed, inserted) = shared.apply_update(|_| (vec![], vec![]));
        assert_eq!((removed, inserted), (0, 0));
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
        shared.apply_update(|_| (vec![], batch));

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
                    shared.apply_update(|_| {
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
                        store.insert(&Triple::new(s, rdf::type_(), foaf::person()));
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
