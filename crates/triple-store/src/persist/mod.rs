//! Durable storage for the triple store: binary snapshots plus a
//! write-ahead log, compacted by checkpoints.
//!
//! A persistence directory contains:
//!
//! * `snapshot-<generation>.hbs` — full, checksummed store images written
//!   by [`Persistence::checkpoint`] (format in [`snapshot`]); generations
//!   increase monotonically and only the newest valid one matters,
//! * `wal.log` — the append-only log of every update since the last
//!   checkpoint, one [`WalOp`] record each (format in [`wal`]).
//!
//! Recovery ([`Persistence::open`]) loads the newest snapshot that passes
//! its checksums, replays the WAL over it, and truncates a torn WAL tail
//! instead of failing — so a process killed at any instant restarts with
//! exactly the committed prefix of its writes. Each file has exactly one
//! format version; a directory written by a different one is refused with
//! a typed error, never reinterpreted or truncated. A checkpoint writes the
//! next-generation snapshot atomically (temp file + fsync + rename +
//! directory fsync), then empties the WAL and deletes older snapshots.
//!
//! A bulk load ([`crate::SharedStore::try_bulk_load`]) logs nothing: it
//! commits by checkpointing the *next* store version, so the rename is its
//! commit point. A checkpoint of the current version is harmless to crash
//! in anywhere, because WAL replay is idempotent and the log's records
//! replay as no-ops over the snapshot that already holds them. A loaded
//! snapshot holds more than the log knows about, so it is only ever
//! renamed in over an *empty* log: a load over a non-empty log first runs an
//! ordinary checkpoint. A crash between the load's rename and its log reset
//! then replays nothing over the loaded data.
//!
//! The module is deliberately low-level and single-threaded; the
//! thread-safe entry point is [`crate::SharedStore::open`], which owns a
//! [`Persistence`] behind its write lock.

pub mod codec;
pub mod snapshot;
pub mod wal;

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use hbold_telemetry::{Counter, Registry};

use crate::store::TripleStore;

pub use wal::{Wal, WalOp, WalRecovery};

/// Failure of a persistence operation.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying I/O error, with the file it concerned when known.
    Io {
        /// File the operation was touching, when known.
        path: Option<PathBuf>,
        /// The OS-level error.
        source: std::io::Error,
    },
    /// On-disk data failed validation (bad magic, checksum, or structure).
    Corrupt {
        /// File the corruption was found in, when known.
        path: Option<PathBuf>,
        /// What exactly failed to validate.
        reason: String,
    },
}

impl PersistError {
    pub(crate) fn corrupt(reason: impl Into<String>) -> Self {
        PersistError::Corrupt {
            path: None,
            reason: reason.into(),
        }
    }

    /// Attaches the file path the error occurred in (kept if already set).
    pub(crate) fn at_path(self, path: impl Into<PathBuf>) -> Self {
        match self {
            PersistError::Io { path: None, source } => PersistError::Io {
                path: Some(path.into()),
                source,
            },
            PersistError::Corrupt { path: None, reason } => PersistError::Corrupt {
                path: Some(path.into()),
                reason,
            },
            other => other,
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = |path: &Option<PathBuf>| {
            path.as_deref()
                .map(|p| format!(" ({})", p.display()))
                .unwrap_or_default()
        };
        match self {
            PersistError::Io { path, source } => write!(f, "i/o error{}: {source}", at(path)),
            PersistError::Corrupt { path, reason } => {
                write!(f, "corrupt data{}: {reason}", at(path))
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(source: std::io::Error) -> Self {
        PersistError::Io { path: None, source }
    }
}

/// Tunables for a persistence directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistOptions {
    /// Fsync the WAL after every append. Off by default: the data still
    /// survives a killed *process* (the OS holds the written pages), and
    /// [`Persistence::checkpoint`] / [`Persistence::sync`] fsync
    /// explicitly. Turn it on to also survive power loss per-write.
    pub sync_writes: bool,
    /// Automatically checkpoint once the WAL exceeds this many bytes
    /// (`None` disables auto-checkpointing). Checked after each append by
    /// [`crate::SharedStore`], not by the low-level [`Wal`].
    pub checkpoint_wal_bytes: Option<u64>,
}

impl Default for PersistOptions {
    fn default() -> Self {
        PersistOptions {
            sync_writes: false,
            checkpoint_wal_bytes: Some(64 * 1024 * 1024),
        }
    }
}

/// What [`Persistence::open`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Generation of the snapshot the store was restored from, if any.
    pub snapshot_generation: Option<u64>,
    /// Snapshot files that failed validation and were skipped.
    pub snapshots_skipped: usize,
    /// WAL operations replayed over the snapshot.
    pub wal_ops_replayed: usize,
    /// `true` when a torn WAL tail was truncated.
    pub wal_tail_truncated: bool,
}

/// A persistence directory: the latest snapshot generation plus the open
/// WAL. All methods take `&mut self`; in-process concurrency is the
/// caller's job (see [`crate::SharedStore`]), while cross-process access
/// is excluded by an advisory lock on `dir/lock` held for the lifetime of
/// this value (and released by the OS if the process dies).
#[derive(Debug)]
pub struct Persistence {
    dir: PathBuf,
    wal: Wal,
    generation: u64,
    options: PersistOptions,
    /// Whether the most recent checkpoint attempt failed (used by
    /// [`crate::SharedStore`] to log each failure streak once, not once
    /// per write).
    pub(crate) checkpoint_failing: bool,
    /// Holds the advisory directory lock; never read, only dropped.
    _dir_lock: std::fs::File,
}

fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation:016}.hbs"))
}

fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| PersistError::from(e).at_path(dir))? {
        let entry = entry.map_err(|e| PersistError::from(e).at_path(dir))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.ends_with(".hbs.tmp") {
            // A checkpoint died between creating its temp file and the
            // rename; the full-size leftover is garbage — reclaim it.
            let _ = std::fs::remove_file(&path);
            continue;
        }
        let Some(generation) = name
            .strip_prefix("snapshot-")
            .and_then(|rest| rest.strip_suffix(".hbs"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((generation, path));
    }
    found.sort();
    Ok(found)
}

impl Persistence {
    /// Opens (creating if needed) the persistence directory at `dir` and
    /// recovers the store it describes: newest valid snapshot + WAL replay,
    /// truncating a torn WAL tail.
    pub fn open(
        dir: impl AsRef<Path>,
        options: PersistOptions,
    ) -> Result<(TripleStore, Persistence, RecoveryReport), PersistError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| PersistError::from(e).at_path(&dir))?;

        // One process per data directory: two writers appending to the same
        // WAL (each tracking its own offset) or checkpointing over each
        // other would corrupt the history silently. The advisory lock turns
        // that into a clean startup error, and evaporates with the process
        // — a kill -9 never wedges the directory.
        let lock_path = dir.join("lock");
        let dir_lock =
            std::fs::File::create(&lock_path).map_err(|e| PersistError::from(e).at_path(&dir))?;
        dir_lock.try_lock().map_err(|e| PersistError::Io {
            path: Some(lock_path),
            source: match e {
                std::fs::TryLockError::Error(io) => io,
                std::fs::TryLockError::WouldBlock => std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "data directory is already locked by another process",
                ),
            },
        })?;

        let mut report = RecoveryReport::default();
        let mut store = TripleStore::new();
        let mut newest_failure = None;
        let snapshots = list_snapshots(&dir)?;
        for (gen, path) in snapshots.iter().rev() {
            match snapshot::read_file(path) {
                Ok(loaded) => {
                    store = loaded;
                    report.snapshot_generation = Some(*gen);
                    break;
                }
                // Only *corruption* falls back to an older generation. An
                // I/O error (EIO, EACCES, …) may be transient: silently
                // booting from an older snapshot — or empty — would serve
                // stale data and let a later checkpoint bury the newest
                // good image. Refuse to open instead.
                Err(PersistError::Corrupt { reason, .. }) => {
                    report.snapshots_skipped += 1;
                    newest_failure.get_or_insert(reason);
                }
                Err(io) => return Err(io),
            }
        }
        if let (None, Some(newest_failure)) = (report.snapshot_generation, newest_failure) {
            // Snapshots exist but none validated: booting empty would look
            // like a successful (near-empty) recovery and the first
            // checkpoint would delete the corrupt-but-maybe-salvageable
            // image for good. Refuse; the operator can move the file away
            // to explicitly accept the loss.
            return Err(PersistError::Corrupt {
                path: Some(dir),
                reason: format!(
                    "all {} snapshot file(s) failed validation (newest: {newest_failure}); \
                     refusing to boot empty (move them out of the directory to start fresh)",
                    report.snapshots_skipped
                ),
            });
        }
        // Resume numbering above every existing file, even ones that failed
        // validation: if recovery fell back past a corrupt generation, the
        // next checkpoint must not write *under* it, or a later open would
        // prefer the corrupt file's newer number and shadow fresh data.
        let generation = snapshots.last().map(|(gen, _)| *gen).unwrap_or(0);

        let (wal, recovery) = Wal::open(&dir.join("wal.log"), options.sync_writes)?;
        report.wal_ops_replayed = recovery.ops.len();
        report.wal_tail_truncated = recovery.truncated_tail;
        for op in &recovery.ops {
            op.apply(&mut store);
        }

        let persistence = Persistence {
            dir,
            wal,
            generation,
            options,
            checkpoint_failing: false,
            _dir_lock: dir_lock,
        };
        Ok((store, persistence, report))
    }

    /// The directory this persistence layer writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The generation of the snapshot the next checkpoint will supersede.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Bytes currently in the WAL.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }

    /// The options this directory was opened with.
    pub fn options(&self) -> &PersistOptions {
        &self.options
    }

    /// Appends one operation to the WAL. The operation counts as committed
    /// once this returns.
    pub fn log(&mut self, op: &WalOp) -> Result<(), PersistError> {
        // Chaos hook: an injected fault fails the append *before* any bytes
        // reach the log, so the error path matches a full-disk/EIO refusal
        // (nothing committed, nothing torn).
        if let Some(faults) = crate::fault::FaultInjector::active() {
            faults
                .wal_io_error()
                .map_err(|e| PersistError::from(e).at_path(self.dir.join("wal.log")))?;
        }
        self.wal.append(op)?;
        durability_counters().wal_appends.inc();
        Ok(())
    }

    /// `true` when the auto-checkpoint threshold is configured and the WAL
    /// has outgrown it.
    pub fn wants_checkpoint(&self) -> bool {
        self.options
            .checkpoint_wal_bytes
            .is_some_and(|limit| self.wal.len_bytes() >= limit)
    }

    /// Compacts the WAL into a fresh snapshot of `store`: writes
    /// `snapshot-<generation+1>.hbs` atomically, empties the WAL, and
    /// deletes older snapshot files. Returns the new generation. An error
    /// before the rename changes nothing: no new snapshot, no temp file,
    /// the WAL as it was.
    ///
    /// Crash-safe at every step when `store` is the state the snapshot and
    /// the WAL describe: the snapshot only becomes visible through an atomic
    /// rename, and until the WAL is emptied its records simply replay as
    /// no-ops over the new snapshot on the next open. A bulk load passes the
    /// version it built instead, which is safe only over an empty WAL (see
    /// the module docs).
    pub fn checkpoint(&mut self, store: &TripleStore) -> Result<u64, PersistError> {
        let next = self.generation + 1;
        let path = snapshot_path(&self.dir, next);
        // Chaos hook: fail before the temp file exists — the same shape as
        // the snapshot write itself failing, which the rename protocol
        // already survives.
        if let Some(faults) = crate::fault::FaultInjector::active() {
            faults
                .snapshot_io_error()
                .map_err(|e| PersistError::from(e).at_path(&path))?;
        }
        snapshot::write_file(store, &path).map_err(|e| e.at_path(&path))?;
        self.wal.reset()?;
        self.generation = next;
        // Old generations are now redundant; removal failures are harmless
        // (they lose only disk space, never data).
        if let Ok(snapshots) = list_snapshots(&self.dir) {
            for (gen, old) in snapshots {
                if gen < next {
                    let _ = std::fs::remove_file(old);
                }
            }
        }
        durability_counters().checkpoints.inc();
        Ok(next)
    }

    /// Fsyncs the WAL, making every logged operation power-loss durable
    /// without paying for a full checkpoint.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.wal.sync()?;
        durability_counters().wal_fsyncs.inc();
        Ok(())
    }
}

/// Process-wide write-path counters in the global telemetry registry.
/// Successful operations only: a failed append/checkpoint/fsync returns the
/// error without counting.
struct DurabilityCounters {
    wal_appends: Counter,
    checkpoints: Counter,
    wal_fsyncs: Counter,
    index_folds: Counter,
    index_fold_keys: Counter,
}

/// Forces registration of the write-path counter families
/// (`hbold_wal_appends_total`, `hbold_checkpoints_total`,
/// `hbold_wal_fsyncs_total`, `hbold_index_folds_total`,
/// `hbold_index_fold_keys_total`), so a metrics scrape of a process that has
/// not yet written anything still exposes them at zero.
pub fn register_metrics() {
    let _ = durability_counters();
}

/// Counts one merge of a store's three flat index tiers that left `keys` keys
/// in each. A merge is the write path's only `O(store)` step — the latency
/// spike a median hides — so the two counters are what an operator divides
/// to see how often it runs and how much it rewrites.
pub(crate) fn count_fold(keys: usize) {
    let counters = durability_counters();
    counters.index_folds.inc();
    counters.index_fold_keys.add(keys as u64);
}

/// `(hbold_index_folds_total, hbold_index_fold_keys_total)` as they stand:
/// merges of the flat index tiers in this process, and the keys they left in
/// each tier, summed.
pub fn fold_counts() -> (u64, u64) {
    let counters = durability_counters();
    (counters.index_folds.get(), counters.index_fold_keys.get())
}

fn durability_counters() -> &'static DurabilityCounters {
    static COUNTERS: OnceLock<DurabilityCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = Registry::global();
        DurabilityCounters {
            wal_appends: reg.counter(
                "hbold_wal_appends_total",
                "Operations appended to the write-ahead log.",
                &[],
            ),
            checkpoints: reg.counter(
                "hbold_checkpoints_total",
                "Snapshot checkpoints completed.",
                &[],
            ),
            wal_fsyncs: reg.counter(
                "hbold_wal_fsyncs_total",
                "Explicit WAL fsyncs completed.",
                &[],
            ),
            index_folds: reg.counter(
                "hbold_index_folds_total",
                "Merges of a store's three flat index tiers (bulk loads and folds of accumulated churn).",
                &[],
            ),
            index_fold_keys: reg.counter(
                "hbold_index_fold_keys_total",
                "Keys left in each flat index tier by those merges, summed (per index order).",
                &[],
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbold_rdf_model::vocab::{foaf, rdf};
    use hbold_rdf_model::{Iri, Quad, Triple};

    fn triple(n: u32) -> Triple {
        Triple::new(
            Iri::new(format!("http://e.org/{n}")).unwrap(),
            rdf::type_(),
            foaf::person(),
        )
    }

    fn insert(ns: impl IntoIterator<Item = u32>) -> WalOp {
        WalOp {
            removes: Vec::new(),
            inserts: ns.into_iter().map(|n| Quad::from(triple(n))).collect(),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hbold-persist-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn open_log_reopen_recovers_everything() {
        let dir = temp_dir("basic");
        {
            let (mut store, mut persist, report) =
                Persistence::open(&dir, PersistOptions::default()).unwrap();
            assert_eq!(report, RecoveryReport::default());
            for n in 0..10 {
                let op = insert([n]);
                persist.log(&op).unwrap();
                op.apply(&mut store);
            }
        }
        let (store, persist, report) = Persistence::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(store.len(), 10);
        assert_eq!(report.wal_ops_replayed, 10);
        assert_eq!(report.snapshot_generation, None);
        assert_eq!(persist.generation(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_compacts_and_later_opens_prefer_it() {
        let dir = temp_dir("checkpoint");
        {
            let (mut store, mut persist, _) =
                Persistence::open(&dir, PersistOptions::default()).unwrap();
            let op = insert(0..50);
            persist.log(&op).unwrap();
            op.apply(&mut store);
            assert!(persist.wal_bytes() > 0);
            assert_eq!(persist.checkpoint(&store).unwrap(), 1);
            assert_eq!(persist.wal_bytes(), 0);
            // Post-checkpoint writes land in the (fresh) WAL.
            let op = WalOp {
                removes: vec![Quad::from(triple(0))],
                inserts: Vec::new(),
            };
            persist.log(&op).unwrap();
            op.apply(&mut store);
        }
        let (store, persist, report) = Persistence::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(report.snapshot_generation, Some(1));
        assert_eq!(report.wal_ops_replayed, 1);
        assert_eq!(store.len(), 49);
        assert!(!store.contains(&triple(0)));
        assert_eq!(persist.generation(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_checkpoints_keep_only_the_newest_snapshot() {
        let dir = temp_dir("generations");
        let (mut store, mut persist, _) =
            Persistence::open(&dir, PersistOptions::default()).unwrap();
        for round in 0..3u32 {
            let op = insert([round]);
            persist.log(&op).unwrap();
            op.apply(&mut store);
            assert_eq!(persist.checkpoint(&store).unwrap(), (round + 1) as u64);
        }
        let snapshots = list_snapshots(&dir).unwrap();
        assert_eq!(snapshots.len(), 1);
        assert_eq!(snapshots[0].0, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_snapshots_corrupt_refuses_to_boot_empty() {
        let dir = temp_dir("all-corrupt");
        {
            let (mut store, mut persist, _) =
                Persistence::open(&dir, PersistOptions::default()).unwrap();
            let op = insert([1]);
            persist.log(&op).unwrap();
            op.apply(&mut store);
            persist.checkpoint(&store).unwrap();
        }
        // Corrupt the only snapshot: recovery must refuse, not silently
        // boot an empty store whose first checkpoint would destroy the
        // (possibly salvageable) image.
        let path = snapshot_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Persistence::open(&dir, PersistOptions::default()),
            Err(PersistError::Corrupt { .. })
        ));
        // Moving the corrupt file away is the explicit opt-in to start over.
        std::fs::rename(&path, dir.join("snapshot-1.quarantined")).unwrap();
        let (store, _, report) = Persistence::open(&dir, PersistOptions::default()).unwrap();
        assert!(store.is_empty());
        assert_eq!(report.snapshots_skipped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_open_of_a_live_directory_is_refused() {
        let dir = temp_dir("dir-lock");
        let first = Persistence::open(&dir, PersistOptions::default()).unwrap();
        let second = Persistence::open(&dir, PersistOptions::default());
        assert!(
            second.is_err(),
            "two processes on one data directory must not both open it"
        );
        drop(first);
        // Releasing the first handle frees the directory again.
        assert!(Persistence::open(&dir, PersistOptions::default()).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older_generation() {
        let dir = temp_dir("fallback");
        {
            let (mut store, mut persist, _) =
                Persistence::open(&dir, PersistOptions::default()).unwrap();
            let op = insert([1]);
            persist.log(&op).unwrap();
            op.apply(&mut store);
            persist.checkpoint(&store).unwrap();
            // Manufacture a newer snapshot with generation 2, then corrupt it,
            // simulating bit rot in the most recent image. (A *torn write*
            // cannot produce this: the temp-file + rename protocol never
            // exposes a partially written snapshot under its final name.)
            let op = insert([2]);
            persist.log(&op).unwrap();
            op.apply(&mut store);
            persist.checkpoint(&store).unwrap();
            let newest = snapshot_path(&dir, 2);
            let mut bytes = std::fs::read(&newest).unwrap();
            let at = bytes.len() / 2;
            bytes[at] ^= 0xFF;
            std::fs::write(&newest, &bytes).unwrap();
        }
        // Recreate the generation-1 image (checkpoint 2 deleted it) so the
        // fallback path has an older valid snapshot to land on.
        let mut one = TripleStore::new();
        one.insert(&triple(1));
        snapshot::write_file(&one, &snapshot_path(&dir, 1)).unwrap();

        let (store, _, report) = Persistence::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(report.snapshot_generation, Some(1));
        assert_eq!(report.snapshots_skipped, 1);
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
