//! The append-only write-ahead log.
//!
//! Every durable update is appended as one self-validating record *before*
//! it is applied to the in-memory store, so a crash at any instant loses at
//! most the record that was mid-write. A bulk load writes no record: it
//! commits as the next snapshot generation, renamed in over an empty log
//! (see [`super`]). There is one record shape — the normalised delta of one
//! update, removes first:
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC-32 of payload][payload]
//! payload: [u8 tag = 5][varint remove count][removes × quad]
//!                      [varint insert count][inserts × quad]
//! quad:    [u8 graph flag: 0 = default graph, 1 = named]
//!          [named only: graph term][subject][predicate][object]
//! ```
//!
//! Terms are stored by value (the codec of [`super::codec`]), not by
//! dictionary id: WAL records must stay meaningful across checkpoints,
//! which renumber nothing but make id assignment an implementation detail
//! of the snapshot they compact into.
//!
//! Recovery reads records until the first torn one — a short read or a
//! checksum mismatch — **truncates the file there**, and replays the valid
//! prefix. A record that *passes* its checksum but that this build cannot
//! read (any other tag, or a tag-5 body that does not parse) was written
//! whole by a different build: [`Wal::open`] refuses the log with
//! [`PersistError::Corrupt`] and leaves the file untouched, because
//! truncating there would destroy that record and every acknowledged
//! record after it. Replay is idempotent — inserting a present quad or
//! removing an absent one is a no-op — which is what makes the checkpoint
//! protocol crash-safe: a crash between "snapshot renamed into place" and
//! "WAL truncated" merely replays already-applied records onto the new
//! snapshot.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use hbold_rdf_model::{Quad, Triple};

use crate::store::TripleStore;

use super::codec::{crc32, read_len, read_term, write_term, write_varint};
use super::PersistError;

const RECORD_TAG: u8 = 5;
const GRAPH_DEFAULT: u8 = 0;
const GRAPH_NAMED: u8 = 1;
const RECORD_HEADER_LEN: usize = 8;

/// The delta of one update, as recorded in (and replayed from) the log:
/// apply all removes, then all inserts. One record per update, so a crash
/// can never expose the removes without the inserts (or vice versa) after
/// replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalOp {
    /// Quads removed by the commit (applied first).
    pub removes: Vec<Quad>,
    /// Quads inserted by the commit (applied second).
    pub inserts: Vec<Quad>,
}

impl WalOp {
    /// Applies the delta to `store` (idempotent per quad) in time
    /// proportional to the delta, not the store — the same call whether a
    /// commit publishes it or recovery replays it.
    pub fn apply(&self, store: &mut TripleStore) {
        store.apply_delta(&self.removes, &self.inserts);
    }
}

fn write_quad(out: &mut Vec<u8>, q: &Quad) {
    match &q.graph {
        None => out.push(GRAPH_DEFAULT),
        Some(g) => {
            out.push(GRAPH_NAMED);
            write_term(out, g);
        }
    }
    write_term(out, &q.subject);
    write_term(out, &q.predicate);
    write_term(out, &q.object);
}

fn read_quad(payload: &[u8], pos: &mut usize) -> Result<Quad, PersistError> {
    let Some(&flag) = payload.get(*pos) else {
        return Err(PersistError::corrupt("WAL quad truncated at graph flag"));
    };
    *pos += 1;
    let graph = match flag {
        GRAPH_DEFAULT => None,
        GRAPH_NAMED => Some(read_term(payload, pos)?),
        other => {
            return Err(PersistError::corrupt(format!(
                "unknown WAL quad graph flag {other}"
            )))
        }
    };
    let s = read_term(payload, pos)?;
    let p = read_term(payload, pos)?;
    let o = read_term(payload, pos)?;
    Ok(Quad::new(Triple::new(s, p, o), graph))
}

fn write_quads(out: &mut Vec<u8>, quads: &[Quad]) {
    write_varint(out, quads.len() as u64);
    for q in quads {
        write_quad(out, q);
    }
}

fn read_quads(payload: &[u8], pos: &mut usize) -> Result<Vec<Quad>, PersistError> {
    let count = read_len(payload, pos)?;
    let mut quads = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        quads.push(read_quad(payload, pos)?);
    }
    Ok(quads)
}

/// Serializes one operation into a complete record (header + payload), in
/// one buffer: the header is reserved first and patched once the payload
/// behind it is complete.
///
/// # Panics
/// Panics if the payload exceeds the 4 GiB a record's length field can
/// describe.
pub fn encode_record(op: &WalOp) -> Vec<u8> {
    let mut record = vec![0u8; RECORD_HEADER_LEN];
    record.push(RECORD_TAG);
    write_quads(&mut record, &op.removes);
    write_quads(&mut record, &op.inserts);
    let (header, payload) = record.split_at_mut(RECORD_HEADER_LEN);
    let len = u32::try_from(payload.len()).expect("WAL record payload exceeds 4 GiB");
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    record
}

/// Decodes a checksum-valid, non-empty payload.
fn decode_payload(payload: &[u8]) -> Result<WalOp, PersistError> {
    if payload[0] != RECORD_TAG {
        return Err(PersistError::corrupt(format!(
            "unknown record tag {} (this build writes and reads only tag {RECORD_TAG})",
            payload[0]
        )));
    }
    let mut pos = 1usize;
    let removes = read_quads(payload, &mut pos)?;
    let inserts = read_quads(payload, &mut pos)?;
    if pos != payload.len() {
        return Err(PersistError::corrupt("WAL record has trailing bytes"));
    }
    Ok(WalOp { removes, inserts })
}

/// What the recovery scan in [`Wal::open`] found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalRecovery {
    /// Complete, checksum-valid operations in log order.
    pub ops: Vec<WalOp>,
    /// Bytes of valid log data (the offset the file was truncated to).
    pub valid_bytes: u64,
    /// `true` when a torn or corrupt tail was found and cut off.
    pub truncated_tail: bool,
}

/// An open write-ahead log file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    len: u64,
    sync_writes: bool,
    /// Set when a failed append left bytes after `len` that could not be
    /// truncated away: appending more would write after a torn record,
    /// and recovery would silently drop everything from the tear on.
    poisoned: bool,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, first scanning it for
    /// valid records and truncating any torn tail. The returned recovery
    /// holds the surviving operations; the `Wal` is positioned to append.
    ///
    /// A checksum-valid record this build cannot read is an error, and the
    /// file is left exactly as found (see the module docs).
    pub fn open(path: &Path, sync_writes: bool) -> Result<(Wal, WalRecovery), PersistError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| PersistError::from(e).at_path(path))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| PersistError::from(e).at_path(path))?;

        let mut recovery = WalRecovery::default();
        let mut pos = 0usize;
        while pos + RECORD_HEADER_LEN <= bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
            let start = pos + RECORD_HEADER_LEN;
            let Some(payload) = bytes.get(start..start + len) else {
                break; // Torn mid-payload.
            };
            if crc32(payload) != crc {
                break; // Torn or corrupt payload.
            }
            if payload.is_empty() {
                break; // Zero-filled tail: eight zero bytes pass as an empty record.
            }
            // Written whole (the checksum holds) yet unreadable: another
            // build's record. Truncating here would destroy it and every
            // acknowledged record after it, so report and touch nothing.
            let op = decode_payload(payload).map_err(|e| match e {
                PersistError::Corrupt { reason, .. } => PersistError::corrupt(format!(
                    "checksum-valid WAL record at byte offset {pos} cannot be read: {reason}; \
                     the log was written by a different build and is left untouched"
                ))
                .at_path(path),
                io => io,
            })?;
            recovery.ops.push(op);
            pos = start + len;
        }
        recovery.valid_bytes = pos as u64;
        recovery.truncated_tail = pos != bytes.len();
        if recovery.truncated_tail {
            file.set_len(recovery.valid_bytes)
                .map_err(|e| PersistError::from(e).at_path(path))?;
            file.sync_all()
                .map_err(|e| PersistError::from(e).at_path(path))?;
        }
        file.seek(SeekFrom::Start(recovery.valid_bytes))
            .map_err(|e| PersistError::from(e).at_path(path))?;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                len: recovery.valid_bytes,
                sync_writes,
                poisoned: false,
            },
            recovery,
        ))
    }

    /// Appends one operation. The record is written with a single
    /// `write_all`, flushed, and (when `sync_writes` is on) fsynced before
    /// the call returns.
    ///
    /// On failure the file is truncated back to the last committed record,
    /// so a caller that handles the error (e.g. frees disk space) can keep
    /// appending; if even that truncation fails, the log is poisoned and
    /// every further append errors rather than writing after a torn
    /// record that recovery would silently cut away.
    pub fn append(&mut self, op: &WalOp) -> Result<(), PersistError> {
        if self.poisoned {
            return Err(PersistError::corrupt(
                "write-ahead log is poisoned by an earlier failed append; reopen to recover",
            )
            .at_path(&self.path));
        }
        let record = encode_record(op);
        if let Err(e) = self.try_append(&record) {
            let restored = self
                .file
                .set_len(self.len)
                .and_then(|()| self.file.seek(SeekFrom::Start(self.len)).map(|_| ()));
            if restored.is_err() {
                self.poisoned = true;
            }
            return Err(e);
        }
        self.len += record.len() as u64;
        Ok(())
    }

    fn try_append(&mut self, record: &[u8]) -> Result<(), PersistError> {
        self.file
            .write_all(record)
            .map_err(|e| PersistError::from(e).at_path(&self.path))?;
        self.file
            .flush()
            .map_err(|e| PersistError::from(e).at_path(&self.path))?;
        if self.sync_writes {
            self.file
                .sync_data()
                .map_err(|e| PersistError::from(e).at_path(&self.path))?;
        }
        Ok(())
    }

    /// Current log length in bytes (drives auto-checkpoint policies).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Empties the log (called after a checkpoint has made its contents
    /// redundant) and fsyncs the truncation.
    pub fn reset(&mut self) -> Result<(), PersistError> {
        self.file
            .set_len(0)
            .map_err(|e| PersistError::from(e).at_path(&self.path))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| PersistError::from(e).at_path(&self.path))?;
        self.file
            .sync_all()
            .map_err(|e| PersistError::from(e).at_path(&self.path))?;
        self.len = 0;
        // Truncation restored the "nothing after `len`" invariant.
        self.poisoned = false;
        Ok(())
    }

    /// Fsyncs any buffered log data.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.file
            .sync_data()
            .map_err(|e| PersistError::from(e).at_path(&self.path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbold_rdf_model::vocab::{foaf, rdf};
    use hbold_rdf_model::Iri;

    fn triple(n: u32) -> Triple {
        Triple::new(
            Iri::new(format!("http://e.org/{n}")).unwrap(),
            rdf::type_(),
            foaf::person(),
        )
    }

    fn quads(ns: &[u32]) -> Vec<Quad> {
        ns.iter().map(|&n| Quad::from(triple(n))).collect()
    }

    fn insert(ns: &[u32]) -> WalOp {
        WalOp {
            removes: Vec::new(),
            inserts: quads(ns),
        }
    }

    fn remove(ns: &[u32]) -> WalOp {
        WalOp {
            removes: quads(ns),
            inserts: Vec::new(),
        }
    }

    fn temp_wal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hbold-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let path = temp_wal("order");
        let ops = vec![insert(&[1, 2]), remove(&[1]), insert(&[3])];
        {
            let (mut wal, recovery) = Wal::open(&path, false).unwrap();
            assert!(recovery.ops.is_empty());
            for op in &ops {
                wal.append(op).unwrap();
            }
        }
        let (_, recovery) = Wal::open(&path, false).unwrap();
        assert_eq!(recovery.ops, ops);
        assert!(!recovery.truncated_tail);
        let mut store = TripleStore::new();
        for op in &recovery.ops {
            op.apply(&mut store);
        }
        assert_eq!(store.len(), 2);
        assert!(!store.contains(&triple(1)));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = temp_wal("torn");
        {
            let (mut wal, _) = Wal::open(&path, false).unwrap();
            wal.append(&insert(&[1])).unwrap();
            wal.append(&insert(&[2])).unwrap();
        }
        // Tear the last record in half.
        let full = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 5).unwrap();
        drop(file);

        let (mut wal, recovery) = Wal::open(&path, false).unwrap();
        assert_eq!(recovery.ops, vec![insert(&[1])]);
        assert!(recovery.truncated_tail);
        // The log keeps working after the cut.
        wal.append(&insert(&[9])).unwrap();
        drop(wal);
        let (_, recovery) = Wal::open(&path, false).unwrap();
        assert_eq!(recovery.ops.len(), 2);
        assert!(!recovery.truncated_tail);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn corrupt_record_cuts_everything_after_it() {
        let path = temp_wal("corrupt");
        {
            let (mut wal, _) = Wal::open(&path, false).unwrap();
            for n in 0..4 {
                wal.append(&insert(&[n])).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let record_len = bytes.len() / 4;
        // Flip one payload byte inside the second record.
        bytes[record_len + RECORD_HEADER_LEN + 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (_, recovery) = Wal::open(&path, false).unwrap();
        assert_eq!(recovery.ops, vec![insert(&[0])]);
        assert!(recovery.truncated_tail);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            recovery.valid_bytes
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn checksum_valid_records_of_another_build_are_refused_untouched() {
        // Tag 1 is the triple-batch record older builds wrote; tag 9 was
        // never assigned. Either way the record is whole (its checksum
        // holds) and unreadable, with an acknowledged record behind it.
        for tag in [1u8, 9] {
            let path = temp_wal(&format!("foreign-{tag}"));
            let mut payload = vec![tag];
            write_varint(&mut payload, 1);
            for term in [&triple(7).subject, &triple(7).predicate, &triple(7).object] {
                write_term(&mut payload, term);
            }
            let mut bytes = encode_record(&insert(&[1]));
            let foreign_at = bytes.len();
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
            bytes.extend_from_slice(&encode_record(&insert(&[2])));
            std::fs::write(&path, &bytes).unwrap();

            match Wal::open(&path, false) {
                Err(PersistError::Corrupt { reason, .. }) => {
                    assert!(reason.contains(&format!("tag {tag} ")), "{reason}");
                    assert!(
                        reason.contains(&format!("byte offset {foreign_at} ")),
                        "{reason}"
                    );
                }
                other => panic!("tag {tag}: expected a typed refusal, got {other:?}"),
            }
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes,
                "tag {tag}: log modified"
            );
            let _ = std::fs::remove_dir_all(path.parent().unwrap());
        }
    }

    #[test]
    fn quad_ops_round_trip_and_replay() {
        let path = temp_wal("quads");
        let g: hbold_rdf_model::Term = Iri::new("http://graphs.example/g1").unwrap().into();
        let ops = vec![
            WalOp {
                removes: Vec::new(),
                inserts: vec![
                    Quad::new(triple(1), Some(g.clone())),
                    Quad::new(triple(2), None),
                ],
            },
            WalOp {
                removes: vec![Quad::new(triple(2), None)],
                inserts: vec![Quad::new(triple(3), Some(g.clone()))],
            },
            WalOp {
                removes: vec![Quad::new(triple(1), Some(g.clone()))],
                inserts: Vec::new(),
            },
        ];
        {
            let (mut wal, _) = Wal::open(&path, false).unwrap();
            for op in &ops {
                wal.append(op).unwrap();
            }
        }
        let (_, recovery) = Wal::open(&path, false).unwrap();
        assert_eq!(recovery.ops, ops);
        let mut store = TripleStore::new();
        for op in &recovery.ops {
            op.apply(&mut store);
        }
        // Replay twice: quad ops must be idempotent.
        for op in &recovery.ops {
            op.apply(&mut store);
        }
        assert_eq!(store.len(), 1);
        assert!(store.contains_in_graph(&triple(3), Some(&g)));
        assert!(!store.contains(&triple(2)));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn update_record_is_atomic_under_truncation() {
        // Truncating an update record at *every* byte offset must yield
        // either "no update at all" or "the whole update" — never removes
        // without inserts.
        let path = temp_wal("atomic");
        let g: hbold_rdf_model::Term = Iri::new("http://graphs.example/g1").unwrap().into();
        {
            let (mut wal, _) = Wal::open(&path, false).unwrap();
            wal.append(&insert(&[1])).unwrap();
            wal.append(&WalOp {
                removes: vec![Quad::new(triple(1), None)],
                inserts: vec![Quad::new(triple(2), Some(g.clone()))],
            })
            .unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, recovery) = Wal::open(&path, false).unwrap();
            let mut store = TripleStore::new();
            for op in &recovery.ops {
                op.apply(&mut store);
            }
            let updated = store.contains_in_graph(&triple(2), Some(&g));
            let original = store.contains(&triple(1));
            assert!(
                (updated && !original) || (!updated && (original || store.is_empty())),
                "partially applied update visible after cut at byte {cut}"
            );
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn reset_empties_the_log() {
        let path = temp_wal("reset");
        let (mut wal, _) = Wal::open(&path, true).unwrap();
        wal.append(&insert(&[1])).unwrap();
        assert!(wal.len_bytes() > 0);
        wal.reset().unwrap();
        assert_eq!(wal.len_bytes(), 0);
        drop(wal);
        let (_, recovery) = Wal::open(&path, false).unwrap();
        assert!(recovery.ops.is_empty());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
