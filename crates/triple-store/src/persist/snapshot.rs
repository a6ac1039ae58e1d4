//! The binary snapshot format: one self-contained, checksummed file holding
//! a full [`TripleStore`].
//!
//! Layout (all fixed-width integers little-endian):
//!
//! ```text
//! header (44 bytes):
//!   [ 0.. 8)  magic  "HBLDSNAP"
//!   [ 8..12)  u32    format version (2; any other is refused, see below)
//!   [12..20)  u64    term count
//!   [20..28)  u64    quad count
//!   [28..36)  u64    payload length in bytes
//!   [36..40)  u32    CRC-32 of the payload
//!   [40..44)  u32    CRC-32 of header bytes [0..40)
//! payload:
//!   term table:  `term count` encoded terms; the i-th entry defines id i
//!   quad runs:   `quad count` delta-encoded (g, s, p, o) id quads in
//!                ascending GSPO order (see below). The default graph is
//!                the reserved id `u32::MAX`, so it sorts last.
//! ```
//!
//! Quads are sorted, so consecutive entries share long prefixes. Each quad
//! is encoded against its predecessor as:
//!
//! * `dg = g − prev_g` (varint). If `dg > 0` the graph changed and `s`,
//!   `p`, `o` follow as absolute varints.
//! * Otherwise `ds = s − prev_s` follows; if `ds > 0`, `p` and `o` are
//!   absolute.
//! * Otherwise `dp = p − prev_p` follows; if `dp > 0`, `o` is absolute.
//! * Otherwise only `do = o − prev_o` follows (strictly positive, because
//!   the sequence is strictly increasing).
//!
//! There is one format version. A file carrying any other number was
//! written by a different build: [`decode`] refuses it with a typed
//! "unsupported snapshot version" error and never reinterprets it.
//!
//! A snapshot is written to a temporary file, fsynced, then renamed into
//! place (and the directory fsynced), so readers only ever observe either
//! the old complete snapshot or the new complete snapshot.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use crate::dictionary::TermDictionary;
use crate::store::{TripleStore, DEFAULT_GRAPH};

use super::codec::{crc32, read_term, read_varint, write_term, write_varint};
use super::PersistError;

/// Magic bytes at the start of every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"HBLDSNAP";
/// The snapshot format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 2;
const HEADER_LEN: usize = 44;

/// Serializes `store` into the snapshot byte format (header + payload).
pub fn encode(store: &TripleStore) -> Vec<u8> {
    let mut payload = Vec::new();
    for (_, term) in store.dictionary().iter() {
        write_term(&mut payload, term);
    }
    let mut prev = (0u32, 0u32, 0u32, 0u32);
    let mut first = true;
    for &(g, s, p, o) in store.encoded_gspo_iter() {
        if first {
            // The first quad is encoded against a virtual (0, 0, 0, 0)
            // predecessor with every component treated as "changed".
            write_varint(&mut payload, g as u64);
            write_varint(&mut payload, s as u64);
            write_varint(&mut payload, p as u64);
            write_varint(&mut payload, o as u64);
            first = false;
        } else {
            let dg = g - prev.0;
            write_varint(&mut payload, dg as u64);
            if dg > 0 {
                write_varint(&mut payload, s as u64);
                write_varint(&mut payload, p as u64);
                write_varint(&mut payload, o as u64);
            } else {
                let ds = s - prev.1;
                write_varint(&mut payload, ds as u64);
                if ds > 0 {
                    write_varint(&mut payload, p as u64);
                    write_varint(&mut payload, o as u64);
                } else {
                    let dp = p - prev.2;
                    write_varint(&mut payload, dp as u64);
                    if dp > 0 {
                        write_varint(&mut payload, o as u64);
                    } else {
                        write_varint(&mut payload, (o - prev.3) as u64);
                    }
                }
            }
        }
        prev = (g, s, p, o);
    }

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(store.term_count() as u64).to_le_bytes());
    out.extend_from_slice(&(store.len() as u64).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    let header_crc = crc32(&out[..40]);
    out.extend_from_slice(&header_crc.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes a snapshot produced by [`encode`], validating both checksums.
pub fn decode(bytes: &[u8]) -> Result<TripleStore, PersistError> {
    if bytes.len() < HEADER_LEN {
        return Err(PersistError::corrupt("snapshot shorter than its header"));
    }
    if &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(PersistError::corrupt("bad snapshot magic"));
    }
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    if u32_at(40) != crc32(&bytes[..40]) {
        return Err(PersistError::corrupt("snapshot header checksum mismatch"));
    }
    let version = u32_at(8);
    if version != SNAPSHOT_VERSION {
        return Err(PersistError::corrupt(format!(
            "unsupported snapshot version {version} (this build reads version {SNAPSHOT_VERSION})"
        )));
    }
    let len_at = |at: usize| {
        usize::try_from(u64_at(at))
            .map_err(|_| PersistError::corrupt("snapshot header count does not fit in usize"))
    };
    let term_count = len_at(12)?;
    let quad_count = len_at(20)?;
    let payload_len = len_at(28)?;
    let payload = bytes
        .get(HEADER_LEN..)
        .filter(|payload| payload.len() == payload_len)
        .ok_or_else(|| PersistError::corrupt("snapshot payload length mismatch"))?;
    if u32_at(36) != crc32(payload) {
        return Err(PersistError::corrupt("snapshot payload checksum mismatch"));
    }

    // Counts come from the (CRC-guarded) header, but a maliciously crafted
    // header can carry a valid checksum over absurd counts — cap the
    // pre-allocation and let the per-item reads fail on the short payload.
    let mut pos = 0usize;
    let mut terms = Vec::with_capacity(term_count.min(1 << 16));
    for _ in 0..term_count {
        terms.push(read_term(payload, &mut pos)?);
    }
    // The term table defines a bijection id ↔ term; a duplicate entry
    // (only producible by a crafted file — the dictionary interns) would
    // make `by_term` lookups disagree with stored triples, turning later
    // contains/remove calls into silent no-ops.
    let distinct: std::collections::HashSet<&_> = terms.iter().collect();
    if distinct.len() != terms.len() {
        return Err(PersistError::corrupt("duplicate term in term table"));
    }
    let dict = TermDictionary::from_terms(terms);

    let read_id = |payload: &[u8], pos: &mut usize| -> Result<u32, PersistError> {
        let v = read_varint(payload, pos)?;
        u32::try_from(v).map_err(|_| PersistError::corrupt("term id exceeds 32 bits"))
    };
    let term_in_range = |id: u32| (id as usize) < dict.len();

    // GSPO-ordered quads; the graph component is either a term id or the
    // reserved default-graph sentinel.
    let mut quads = Vec::with_capacity(quad_count.min(1 << 16));
    let mut prev = (0u32, 0u32, 0u32, 0u32);
    for i in 0..quad_count {
        let quad = if i == 0 {
            (
                read_id(payload, &mut pos)?,
                read_id(payload, &mut pos)?,
                read_id(payload, &mut pos)?,
                read_id(payload, &mut pos)?,
            )
        } else {
            let dg = read_id(payload, &mut pos)?;
            if dg > 0 {
                (
                    prev.0
                        .checked_add(dg)
                        .ok_or_else(|| PersistError::corrupt("graph delta overflow"))?,
                    read_id(payload, &mut pos)?,
                    read_id(payload, &mut pos)?,
                    read_id(payload, &mut pos)?,
                )
            } else {
                let ds = read_id(payload, &mut pos)?;
                if ds > 0 {
                    (
                        prev.0,
                        prev.1
                            .checked_add(ds)
                            .ok_or_else(|| PersistError::corrupt("subject delta overflow"))?,
                        read_id(payload, &mut pos)?,
                        read_id(payload, &mut pos)?,
                    )
                } else {
                    let dp = read_id(payload, &mut pos)?;
                    if dp > 0 {
                        (
                            prev.0,
                            prev.1,
                            prev.2
                                .checked_add(dp)
                                .ok_or_else(|| PersistError::corrupt("predicate delta overflow"))?,
                            read_id(payload, &mut pos)?,
                        )
                    } else {
                        let dd = read_id(payload, &mut pos)?;
                        if dd == 0 {
                            return Err(PersistError::corrupt("duplicate quad in snapshot"));
                        }
                        (
                            prev.0,
                            prev.1,
                            prev.2,
                            prev.3
                                .checked_add(dd)
                                .ok_or_else(|| PersistError::corrupt("object delta overflow"))?,
                        )
                    }
                }
            }
        };
        if !(term_in_range(quad.0) || quad.0 == DEFAULT_GRAPH)
            || !term_in_range(quad.1)
            || !term_in_range(quad.2)
            || !term_in_range(quad.3)
        {
            return Err(PersistError::corrupt(
                "quad references a term id outside the term table",
            ));
        }
        quads.push(quad);
        prev = quad;
    }
    if pos != payload.len() {
        return Err(PersistError::corrupt("snapshot payload has trailing bytes"));
    }
    Ok(TripleStore::from_snapshot_quads(dict, quads))
}

/// Writes `store` as a snapshot at `path` atomically: the bytes go to
/// `path` + `.tmp` first, are fsynced, and the temp file is renamed over
/// `path` (followed by a directory fsync where the platform supports it).
pub fn write_file(store: &TripleStore, path: &Path) -> Result<(), PersistError> {
    let bytes = encode(store);
    let tmp = path.with_extension("hbs.tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Persist the rename itself; ignore platforms where directories
        // cannot be opened for sync.
        if let Ok(dir_file) = File::open(dir) {
            let _ = dir_file.sync_all();
        }
    }
    Ok(())
}

/// Reads and validates the snapshot at `path`.
pub fn read_file(path: &Path) -> Result<TripleStore, PersistError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    decode(&bytes).map_err(|e| e.at_path(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbold_rdf_model::vocab::{foaf, rdf};
    use hbold_rdf_model::{Iri, Literal, Term, Triple};

    fn sample(n: usize) -> TripleStore {
        let mut store = TripleStore::new();
        for i in 0..n {
            let s = Iri::new(format!("http://e.org/{i}")).unwrap();
            store.insert(&Triple::new(s.clone(), rdf::type_(), foaf::person()));
            store.insert(&Triple::new(
                s,
                foaf::name(),
                Literal::string(format!("p{i}")),
            ));
        }
        store
    }

    fn sample_with_graphs(n: usize) -> TripleStore {
        let mut store = sample(n);
        for i in 0..n {
            let g: Term = Iri::new(format!("http://graphs.example/g{}", i % 3))
                .unwrap()
                .into();
            let t = Triple::new(
                Iri::new(format!("http://e.org/{i}")).unwrap(),
                rdf::type_(),
                foaf::organization(),
            );
            store.insert_in_graph(&t, Some(&g));
        }
        store
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let store = sample(50);
        let decoded = decode(&encode(&store)).unwrap();
        assert_eq!(decoded.len(), store.len());
        assert_eq!(decoded.term_count(), store.term_count());
        assert_eq!(decoded.to_graph(), store.to_graph());
        // Term ids are preserved bit-for-bit, not just set-equal.
        for (id, term) in store.dictionary().iter() {
            assert_eq!(decoded.dictionary().get(id), Some(term));
        }
    }

    #[test]
    fn named_graphs_round_trip_exactly() {
        let store = sample_with_graphs(20);
        assert!(store.len() > store.default_graph_len());
        let decoded = decode(&encode(&store)).unwrap();
        assert_eq!(decoded.len(), store.len());
        assert_eq!(decoded.default_graph_len(), store.default_graph_len());
        let original: Vec<_> = store.iter_quads().collect();
        let restored: Vec<_> = decoded.iter_quads().collect();
        assert_eq!(original, restored);
        assert_eq!(decoded.graph_quad_counts(), store.graph_quad_counts());
    }

    #[test]
    fn version_1_snapshots_are_refused_by_name() {
        // A well-formed file of another format version — header and payload
        // checksums valid — is a typed refusal, not an attempt to read it.
        let mut bytes = encode(&sample(10));
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let header_crc = crc32(&bytes[..40]);
        bytes[40..44].copy_from_slice(&header_crc.to_le_bytes());
        match decode(&bytes) {
            Err(PersistError::Corrupt { reason, .. }) => {
                assert!(reason.contains("version 1"), "reason was {reason:?}")
            }
            other => panic!("expected a typed version refusal, got {other:?}"),
        }
    }

    #[test]
    fn empty_store_round_trips() {
        let decoded = decode(&encode(&TripleStore::new())).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(decoded.term_count(), 0);
    }

    #[test]
    fn every_single_byte_flip_in_header_is_detected() {
        let bytes = encode(&sample(3));
        for at in 0..HEADER_LEN {
            let mut copy = bytes.clone();
            copy[at] ^= 0x01;
            assert!(decode(&copy).is_err(), "flip at header byte {at}");
        }
    }

    #[test]
    fn payload_corruption_is_detected() {
        let bytes = encode(&sample_with_graphs(10));
        for at in [HEADER_LEN, bytes.len() - 1, (HEADER_LEN + bytes.len()) / 2] {
            let mut copy = bytes.clone();
            copy[at] ^= 0xFF;
            assert!(decode(&copy).is_err(), "flip at payload byte {at}");
        }
    }

    #[test]
    fn duplicate_term_table_entries_are_corruption() {
        // Craft a payload whose term table lists the same term twice, with
        // all checksums valid; decode must refuse it.
        use super::super::codec::{crc32, write_term};
        let term: hbold_rdf_model::Term = Iri::new("http://e.org/dup").unwrap().into();
        let mut payload = Vec::new();
        write_term(&mut payload, &term);
        write_term(&mut payload, &term);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes()); // term count
        bytes.extend_from_slice(&0u64.to_le_bytes()); // quad count
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        let header_crc = crc32(&bytes[..40]);
        bytes.extend_from_slice(&header_crc.to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn absurd_header_counts_fail_cleanly_instead_of_allocating() {
        // A malicious header can carry a *valid* CRC over absurd counts;
        // decode must reject it via parse failure, not attempt an
        // exabyte-scale pre-allocation.
        let mut bytes = encode(&sample(2));
        bytes[12..20].copy_from_slice(&(u64::MAX / 2).to_le_bytes()); // term count
        let crc = crate::persist::codec::crc32(&bytes[..40]);
        bytes[40..44].copy_from_slice(&crc.to_le_bytes());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn truncated_snapshot_is_detected() {
        let bytes = encode(&sample(10));
        for len in [0, 7, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            assert!(decode(&bytes[..len]).is_err(), "truncated to {len}");
        }
    }

    #[test]
    fn file_round_trip_is_atomic_and_valid() {
        let dir = std::env::temp_dir().join(format!("hbold-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot-1.hbs");
        let store = sample_with_graphs(20);
        write_file(&store, &path).unwrap();
        assert!(!path.with_extension("hbs.tmp").exists());
        let loaded = read_file(&path).unwrap();
        let original: Vec<_> = store.iter_quads().collect();
        let restored: Vec<_> = loaded.iter_quads().collect();
        assert_eq!(original, restored);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
