//! The binary snapshot format: one self-contained, checksummed file holding
//! a full [`TripleStore`].
//!
//! Layout (all fixed-width integers little-endian, every other integer an
//! LEB128 varint):
//!
//! ```text
//! header (44 bytes):
//!   [ 0.. 8)  magic  "HBLDSNAP"
//!   [ 8..12)  u32    format version (3; any other is refused, see below)
//!   [12..20)  u64    term count
//!   [20..28)  u64    quad count
//!   [28..36)  u64    payload length in bytes
//!   [36..40)  u32    CRC-32 of the payload
//!   [40..44)  u32    CRC-32 of header bytes [0..40)
//! payload:
//!   term table:  `term count` front-coded terms; the i-th entry defines id i
//!   quad runs:   `quad count` delta-encoded (g, s, p, o) id quads in
//!                ascending GSPO order (see below). The default graph is
//!                the reserved id `u32::MAX`, so it sorts last.
//! ```
//!
//! # The term table
//!
//! Terms are written in id order, and after a fresh load id order is term
//! order (see [`crate::dictionary`]), so neighbours share long prefixes —
//! IRIs of one namespace, numbers of one magnitude. Each term is front-coded
//! against the one before it, in the manner of HDT's dictionary (Fernández
//! et al. 2013):
//!
//! ```text
//! term:   [u8 tag][text]            IRI (0), blank node (1), plain string (2)
//!         [u8 tag][text][lang]      language-tagged literal (3)
//!         [u8 tag][text][datatype]  typed literal (4)
//! text:   [shared][suffix length][suffix bytes]
//! lang:   [length][bytes]
//! ```
//!
//! `text` is the IRI, the blank-node label or the lexical form: the first
//! `shared` bytes of the previous term's text (of whatever kind, the empty
//! text before the first term) followed by the suffix. A typed literal's
//! datatype IRI is front-coded the same way against the datatype of the
//! previous *typed* literal, so a run of one datatype costs two bytes a term.
//! A `shared` longer than the previous text, or one that splits a
//! character, is corruption.
//!
//! The file records nothing about order. [`decode`] recomputes the restored
//! dictionary's `sorted_len` as it reads — the longest prefix of the table
//! that increases under `Term::cmp` — at the price of one byte comparison per
//! IRI or blank node (the suffix against what it replaces: the shared prefix
//! is already equal) and one value key per typed literal. A run that does
//! not increase only ends that prefix early; it is never an error.
//!
//! # Restore validates, and does not build
//!
//! The increasing prefix becomes the dictionary's base, and [`decode`]
//! builds none of its terms but one *head* per block of 64 ids (see
//! [`crate::dictionary`]). It
//! keeps the base's bytes instead, and for each block where its second
//! entry starts and the datatype that entry is coded against; the first
//! read of a block builds it from there. So that a corrupt file is refused
//! at restore and never at that first read, one pass makes every check a
//! built term would: tags, UTF-8, front-coding bounds, datatype IRIs (parsed
//! when they change), IRI syntax, blank-node labels (as a blank node holds
//! them, since the next entry is coded against the head's text) and the
//! order. An IRI whose shared prefix runs past the scheme's colon of the
//! IRI before it — valid, so everything up to the suffix is — has only its
//! suffix scanned; any other is checked whole by `Iri::check` (`Iri::parse`
//! without its copy), which also names what is wrong. So a block's IRIs are
//! built later without a second check (`term_of`'s `validated`). Entries
//! past the base — the tail — are built and hashed as they are read, each
//! checked against the base by search.
//!
//! # The quad runs
//!
//! Quads are sorted, so consecutive entries share long prefixes. Each quad
//! is encoded against its predecessor as:
//!
//! * `dg = g − prev_g`. If `dg > 0` the graph changed and `s`, `p`, `o`
//!   follow as absolute values.
//! * Otherwise `ds = s − prev_s` follows; if `ds > 0`, `p` and `o` follow as
//!   zigzag-encoded signed deltas against `prev_p` and `prev_o`: in term
//!   order a subject's first predicate and object sit near the previous
//!   subject's last ones.
//! * Otherwise `dp = p − prev_p` follows; if `dp > 0`, `o` is absolute.
//! * Otherwise only `do = o − prev_o` follows (strictly positive, because
//!   the sequence is strictly increasing).
//!
//! The first quad is encoded against `(0, 0, 0, 0)` with every component
//! absolute.
//!
//! So the runs are strictly increasing by construction, whatever the bytes:
//! every quad after the first adds a positive delta to one component and
//! keeps the ones before it, and a `do` of zero is corruption. [`decode`]
//! hands them to the store's builder as they come, without a sort, and the
//! builder derives GPOS and GOSP from them by one counting pass each.
//!
//! There is one format version. A file carrying any other number — version
//! 2, before the front coding, included — was written by a different build:
//! [`decode`] refuses it with a typed "unsupported snapshot version" error
//! and never reinterprets it.
//!
//! A snapshot is written to a temporary file, fsynced, then renamed into
//! place (and the directory fsynced), so readers only ever observe either
//! the old complete snapshot or the new complete snapshot.

use std::cell::Cell;
use std::cmp::Ordering;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use hbold_rdf_model::vocab::{rdf, xsd};
use hbold_rdf_model::{Iri, Term, ValueKey};

use crate::dictionary::{TermDictionary, TermId, BLOCK_LEN};
use crate::index::{PositionalIndex, TierBuilder};
use crate::store::{TripleStore, DEFAULT_GRAPH};

use super::codec::{
    crc32, parse_datatype, read_len, read_str, read_varint, tag_of, term_of, text_of, write_str,
    write_varint, TAG_BLANK, TAG_IRI, TAG_LANG, TAG_STRING, TAG_TYPED,
};
use super::PersistError;

/// Magic bytes at the start of every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"HBLDSNAP";
/// The snapshot format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 3;
const HEADER_LEN: usize = 44;

/// Serializes `store` into the snapshot byte format (header + payload).
pub fn encode(store: &TripleStore) -> Vec<u8> {
    let mut payload = Vec::new();
    let (mut text, mut datatype) = ("", "");
    for (_, term) in store.dictionary().iter() {
        let tag = tag_of(term);
        payload.push(tag);
        write_front_coded(&mut payload, text, text_of(term));
        text = text_of(term);
        if let Term::Literal(literal) = term {
            match tag {
                TAG_LANG => write_str(&mut payload, literal.language().unwrap_or_default()),
                TAG_TYPED => {
                    write_front_coded(&mut payload, datatype, literal.datatype().as_str());
                    datatype = literal.datatype().as_str();
                }
                _ => {}
            }
        }
    }
    let mut prev = (0u32, 0u32, 0u32, 0u32);
    // Internal iteration: the scan walks its directory window by window.
    let quads = store.encoded_gspo_iter().enumerate();
    quads.for_each(|(i, (g, s, p, o))| {
        let mut varint = |value: u64| write_varint(&mut payload, value);
        if i == 0 || g != prev.0 {
            // The first quad is "changed" in every component.
            if i > 0 {
                varint((g - prev.0) as u64);
            } else {
                varint(g as u64);
            }
            varint(s as u64);
            varint(p as u64);
            varint(o as u64);
        } else if s != prev.1 {
            varint(0);
            varint((s - prev.1) as u64);
            varint(zigzag(p as i64 - prev.2 as i64));
            varint(zigzag(o as i64 - prev.3 as i64));
        } else if p != prev.2 {
            varint(0);
            varint(0);
            varint((p - prev.2) as u64);
            varint(o as u64);
        } else {
            varint(0);
            varint(0);
            varint(0);
            varint((o - prev.3) as u64);
        }
        prev = (g, s, p, o);
    });

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

/// Appends `text` front-coded against `prev`: the length of their longest
/// common prefix that ends on a character boundary, then the rest of `text`.
fn write_front_coded(out: &mut Vec<u8>, prev: &str, text: &str) {
    let mut shared = prev
        .bytes()
        .zip(text.bytes())
        .take_while(|(a, b)| a == b)
        .count();
    while !text.is_char_boundary(shared) {
        shared -= 1;
    }
    write_varint(out, shared as u64);
    write_str(out, &text[shared..]);
}

fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

fn unzigzag(value: u64) -> i64 {
    (value >> 1) as i64 ^ -((value & 1) as i64)
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

    let mut pos = 0usize;
    let dict = read_term_table(payload, &mut pos, term_count)?;
    let gspo = read_quads(payload, &mut pos, quad_count, dict.len())?;
    if pos != payload.len() {
        return Err(PersistError::corrupt("snapshot payload has trailing bytes"));
    }
    Ok(TripleStore::from_gspo(dict, gspo))
}

/// Reads a text [`write_front_coded`] wrote against `prev`, which becomes
/// it. Returns how many bytes it shares with the old text, and how it
/// orders against it: its first `shared` bytes are the old text's, so the
/// suffix against what it replaces decides — one byte, when the prefix was
/// the longest.
fn read_front_coded(
    bytes: &[u8],
    pos: &mut usize,
    prev: &mut String,
) -> Result<(usize, Ordering), PersistError> {
    let shared = read_len(bytes, pos)?;
    let suffix = read_str(bytes, pos)?;
    if shared > prev.len() {
        return Err(PersistError::corrupt(
            "front-coded prefix is longer than the previous term's text",
        ));
    }
    if !prev.is_char_boundary(shared) {
        return Err(PersistError::corrupt(
            "front-coded prefix splits a character",
        ));
    }
    let order = suffix.as_bytes().cmp(&prev.as_bytes()[shared..]);
    prev.truncate(shared);
    prev.push_str(suffix);
    Ok((shared, order))
}

/// A position in a front-coded term table, and what the next entry is coded
/// against: the previous entry's text, and the previous typed literal's
/// datatype, as text and as an IRI.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    text: String,
    datatype_text: String,
    datatype: Option<Iri>,
}

/// One entry of the table, beside the text it leaves in its [`Reader`].
struct Entry<'a> {
    tag: u8,
    /// How many bytes of its text the previous entry's text supplied.
    shared: usize,
    /// How its text orders against the previous entry's.
    text_order: Ordering,
    /// A language-tagged literal's tag, as written.
    lang: &'a str,
    /// How a typed literal's datatype orders against the previous typed
    /// literal's.
    datatype_order: Ordering,
}

impl<'a> Reader<'a> {
    /// Reads the next entry: its tag, its front-coded text and, by tag, its
    /// language tag or front-coded datatype IRI (parsed when it changes; an
    /// unchanged datatype is the previous one's `Arc`).
    fn entry(&mut self) -> Result<Entry<'a>, PersistError> {
        let Some(&tag) = self.bytes.get(self.pos) else {
            return Err(PersistError::corrupt("term tag runs past end of input"));
        };
        self.pos += 1;
        let (shared, text_order) = read_front_coded(self.bytes, &mut self.pos, &mut self.text)?;
        let (mut lang, mut datatype_order) = ("", Ordering::Equal);
        match tag {
            TAG_IRI | TAG_BLANK | TAG_STRING => {}
            TAG_LANG => lang = read_str(self.bytes, &mut self.pos)?,
            TAG_TYPED => {
                let datatype_text = &mut self.datatype_text;
                datatype_order = read_front_coded(self.bytes, &mut self.pos, datatype_text)?.1;
                if self.datatype.is_none() || datatype_order != Ordering::Equal {
                    self.datatype = Some(parse_datatype(datatype_text)?);
                }
            }
            other => return Err(PersistError::corrupt(format!("unknown term tag {other}"))),
        }
        Ok(Entry {
            tag,
            shared,
            text_order,
            lang,
            datatype_order,
        })
    }

    /// The term `entry`, the last one read, describes; `validated` as
    /// [`term_of`] takes it.
    fn term(&self, entry: &Entry<'_>, validated: bool) -> Result<Term, PersistError> {
        let datatype = match entry.tag {
            TAG_TYPED => self.datatype.clone(),
            _ => None,
        };
        term_of(entry.tag, &self.text, entry.lang, datatype, validated)
    }
}

/// A restored base's term table, kept front-coded (see the module docs):
/// its bytes, and where each block's second entry starts with the datatype
/// it is coded against — the first entry is the block's head, built at
/// restore, whose text the second one is coded against.
pub(crate) struct TermTable {
    bytes: Box<[u8]>,
    blocks: Vec<BlockStart>,
}

impl std::fmt::Debug for TermTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TermTable")
            .field("bytes", &self.bytes.len())
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

struct BlockStart {
    pos: usize,
    datatype: Option<Iri>,
}

thread_local! {
    /// The two texts a block is decoded in, kept between blocks so that
    /// building one allocates its terms and nothing else.
    static SCRATCH: Cell<(String, String)> = const { Cell::new((String::new(), String::new())) };
}

impl TermTable {
    /// The `len` terms of block `b`, whose head is `head`, decoded from
    /// bytes the restore validated: a corrupt file was refused then.
    pub(crate) fn block(&self, b: usize, head: &Term, len: usize) -> Box<[Term]> {
        let BlockStart { pos, datatype } = &self.blocks[b];
        let (mut text, mut datatype_text) = SCRATCH.take();
        text.clear();
        text.push_str(text_of(head));
        datatype_text.clear();
        datatype_text.push_str(datatype.as_ref().map_or("", Iri::as_str));
        let mut reader = Reader {
            bytes: &self.bytes,
            pos: *pos,
            text,
            datatype_text,
            datatype: datatype.clone(),
        };
        let mut terms = Vec::with_capacity(len);
        terms.push(head.clone());
        for _ in 1..len {
            let term = reader.entry().and_then(|entry| reader.term(&entry, true));
            terms.push(term.expect("the restore validated every entry of the table"));
        }
        SCRATCH.set((reader.text, reader.datatype_text));
        terms.into_boxed_slice()
    }
}

/// What the order check keeps of the previous entry.
#[derive(Clone, Copy)]
struct Ordered<'a> {
    tag: u8,
    /// A literal's value key; `None` for an IRI or a blank node.
    value: Option<ValueKey>,
    lang: &'a str,
}

/// Reads the term table into the restored dictionary, validating every
/// entry without building the base's terms (see the module docs).
fn read_term_table(
    payload: &[u8],
    pos: &mut usize,
    count: usize,
) -> Result<TermDictionary, PersistError> {
    let mut reader = Reader {
        bytes: &payload[*pos..],
        pos: 0,
        text: String::new(),
        datatype_text: String::new(),
        datatype: None,
    };
    // Counts come from the (CRC-guarded) header, but a maliciously crafted
    // header can carry a valid checksum over absurd counts — cap the
    // pre-allocation by what the rest of the payload can hold (a term takes
    // at least 3 bytes: tag, shared length, suffix length) and let the
    // per-item reads fail on the short payload.
    let blocks = count.min(reader.bytes.len() / 3).div_ceil(BLOCK_LEN);
    let (mut heads, mut starts) = (Vec::with_capacity(blocks), Vec::with_capacity(blocks));
    // The base's length and its table's, once an entry ends the run that
    // increases; the terms from there on.
    let mut base = None;
    let mut tail = Vec::new();
    let mut prev: Option<Ordered<'_>> = None;
    // The scheme's colon when the previous entry was an IRI.
    let mut iri_colon = None;
    for i in 0..count {
        let start = reader.pos;
        let entry = reader.entry()?;
        if entry.tag == TAG_BLANK && !is_written_label(&reader.text) {
            return Err(PersistError::corrupt(
                "blank node label is not one this format writes",
            ));
        }
        if base.is_none() {
            let value = match entry.tag {
                TAG_STRING | TAG_LANG => Some(ValueKey::Text),
                TAG_TYPED => reader
                    .datatype
                    .as_ref()
                    .map(|dt| ValueKey::of(&reader.text, dt)),
                _ => None,
            };
            let this = Ordered {
                tag: entry.tag,
                value,
                lang: entry.lang,
            };
            if prev.is_some_and(|prev| !increases(prev, this, &entry, &reader.datatype_text)) {
                base = Some((i, start));
            }
            prev = Some(this);
        }
        if base.is_some() {
            tail.push(reader.term(&entry, false)?);
        } else if i % BLOCK_LEN == 0 {
            let head = reader.term(&entry, false)?;
            iri_colon = head.as_iri().and_then(|iri| iri.as_str().find(':'));
            heads.push(head);
            starts.push(BlockStart {
                pos: reader.pos,
                datatype: reader.datatype.clone(),
            });
        } else if entry.tag == TAG_IRI {
            iri_colon = Some(check_iri(&reader.text, entry.shared, iri_colon)?);
        } else {
            iri_colon = None;
        }
    }
    let (sorted_len, table_len) = base.unwrap_or((count, reader.pos));
    *pos += reader.pos;
    let table = TermTable {
        bytes: reader.bytes[..table_len].into(),
        blocks: starts,
    };
    TermDictionary::restored(table, heads, sorted_len, tail)
        .ok_or_else(|| PersistError::corrupt("duplicate term in term table"))
}

/// Whether [`hbold_rdf_model::BlankNode::from_label`] keeps `label` as it
/// is: every label a blank node holds, and so every label [`encode`] writes.
/// A block's head is built from its label and the next entry is coded
/// against that text, so the two must not differ.
fn is_written_label(label: &str) -> bool {
    let allowed = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.');
    !label.is_empty() && label.bytes().all(allowed) && !label.ends_with('.')
}

/// Checks the IRI `text` as [`Iri::parse`] does, and returns where its
/// scheme's colon is. `colon` is the previous entry's when that was an IRI,
/// which is valid: when the `shared` prefix runs past it, the scheme and
/// everything up to the suffix are that IRI's, and only the suffix is
/// scanned. Otherwise, and to name what is wrong, [`Iri::check`] decides.
fn check_iri(text: &str, shared: usize, colon: Option<usize>) -> Result<usize, PersistError> {
    if let Some(colon) = colon.filter(|&colon| shared > colon) {
        if !text[shared..].contains(forbidden_in_iri) {
            return Ok(colon);
        }
    }
    Iri::check(text).map_err(|e| PersistError::corrupt(format!("invalid IRI in term: {e}")))?;
    Ok(text.find(':').expect("a valid IRI has a scheme"))
}

/// The characters [`Iri::parse`] refuses after the scheme: whitespace, and
/// those the N-Triples / SPARQL `IRIREF` production excludes.
fn forbidden_in_iri(c: char) -> bool {
    c.is_whitespace() || matches!(c, '<' | '>' | '"' | '{' | '}' | '|' | '^' | '`' | '\\')
}

/// Whether the entry `next` follows `prev` in the term order, given how its
/// text and (typed literals) datatype order against the ones before it, and
/// the last typed literal's datatype text: the order of [`Term::cmp`] over
/// kind, then an IRI's or a blank node's text, a literal's value key,
/// lexical form, datatype and language tag.
fn increases<'a>(
    prev: Ordered<'a>,
    next: Ordered<'a>,
    entry: &Entry<'_>,
    datatype_text: &str,
) -> bool {
    // Across kinds: blank nodes, then IRIs, then literals.
    let kind = |tag| match tag {
        TAG_BLANK => 0,
        TAG_IRI => 1,
        _ => 2,
    };
    match kind(next.tag).cmp(&kind(prev.tag)) {
        Ordering::Equal if next.value.is_none() => entry.text_order == Ordering::Greater,
        Ordering::Equal => {
            let datatype = |tag| match tag {
                TAG_STRING => xsd::text::string,
                TAG_LANG => rdf::text::lang_string,
                _ => datatype_text,
            };
            let datatypes = || match (prev.tag, next.tag) {
                (TAG_TYPED, TAG_TYPED) => entry.datatype_order,
                _ => datatype(next.tag).cmp(datatype(prev.tag)),
            };
            // A tag orders as the literal holds it: lower-cased.
            let language = |o: Ordered<'a>| (o.tag == TAG_LANG).then_some(o.lang);
            let languages = || match (language(next), language(prev)) {
                (Some(a), Some(b)) => lowered(a).cmp(lowered(b)),
                (a, b) => a.is_some().cmp(&b.is_some()),
            };
            let order = next.value.cmp(&prev.value).then(entry.text_order);
            order.then_with(datatypes).then_with(languages) == Ordering::Greater
        }
        order => order == Ordering::Greater,
    }
}

/// A language tag's bytes, lower-cased.
fn lowered(tag: &str) -> impl Iterator<Item = u8> + '_ {
    tag.bytes().map(|b| b.to_ascii_lowercase())
}

/// Reads the GSPO-ordered quad runs straight into GSPO's flat tier; every
/// term id must name an entry of the `terms`-long table, and a graph may
/// also be the default-graph sentinel. The keys come out strictly
/// increasing whatever the bytes — each adds a positive delta to one
/// component and keeps those before it (see the module docs) — as the
/// tier's builder requires.
fn read_quads(
    payload: &[u8],
    pos: &mut usize,
    count: usize,
    terms: usize,
) -> Result<PositionalIndex, PersistError> {
    let read = |pos: &mut usize| -> Result<TermId, PersistError> {
        let v = read_varint(payload, pos)?;
        TermId::try_from(v).map_err(|_| PersistError::corrupt("term id exceeds 32 bits"))
    };
    let add = |base: TermId, delta: TermId, what: &str| {
        base.checked_add(delta)
            .ok_or_else(|| PersistError::corrupt(format!("{what} delta overflow")))
    };
    let shift = |base: TermId, pos: &mut usize, what: &str| -> Result<TermId, PersistError> {
        let delta = unzigzag(read_varint(payload, pos)?);
        (base as i64)
            .checked_add(delta)
            .and_then(|id| TermId::try_from(id).ok())
            .ok_or_else(|| PersistError::corrupt(format!("{what} delta out of range")))
    };
    let in_table = |id: TermId| (id as usize) < terms;
    // A quad takes at least 4 bytes (four one-byte varints): exact for a
    // real file, bounded for a crafted header.
    let mut gspo = TierBuilder::with_capacity(count.min((payload.len() - *pos) / 4));
    let mut prev = (0, 0, 0, 0);
    for i in 0..count {
        let dg = read(pos)?;
        let quad = if i == 0 || dg > 0 {
            let g = if i == 0 {
                dg
            } else {
                add(prev.0, dg, "graph")?
            };
            (g, read(pos)?, read(pos)?, read(pos)?)
        } else {
            let ds = read(pos)?;
            if ds > 0 {
                let s = add(prev.1, ds, "subject")?;
                let p = shift(prev.2, pos, "predicate")?;
                (prev.0, s, p, shift(prev.3, pos, "object")?)
            } else {
                let dp = read(pos)?;
                if dp > 0 {
                    (prev.0, prev.1, add(prev.2, dp, "predicate")?, read(pos)?)
                } else {
                    let dd = read(pos)?;
                    if dd == 0 {
                        return Err(PersistError::corrupt("duplicate quad in snapshot"));
                    }
                    (prev.0, prev.1, prev.2, add(prev.3, dd, "object")?)
                }
            }
        };
        let (g, s, p, o) = quad;
        if !(in_table(g) || g == DEFAULT_GRAPH) || !in_table(s) || !in_table(p) || !in_table(o) {
            return Err(PersistError::corrupt(
                "quad references a term id outside the term table",
            ));
        }
        gspo.push(quad);
        prev = quad;
    }
    Ok(gspo.finish())
}

/// Writes `store` as a snapshot at `path` atomically: the bytes go to
/// `path` + `.tmp` first, are fsynced, and the temp file is renamed over
/// `path` (followed by a directory fsync where the platform supports it).
/// A failure before the rename removes the temp file again.
pub fn write_file(store: &TripleStore, path: &Path) -> Result<(), PersistError> {
    let bytes = encode(store);
    let tmp = path.with_extension("hbs.tmp");
    let written = File::create(&tmp).and_then(|mut file| {
        file.write_all(&bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    });
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
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
    use hbold_rdf_model::{Iri, Literal, Quad, Term, Triple};

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
        // checksums valid — is a typed refusal, not an attempt to read it:
        // version 2 (whole texts, absolute predicate and object) included.
        for version in [1u32, 2] {
            let mut bytes = encode(&sample(10));
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let header_crc = crc32(&bytes[..40]);
            bytes[40..44].copy_from_slice(&header_crc.to_le_bytes());
            match decode(&bytes) {
                Err(PersistError::Corrupt { reason, .. }) => assert!(
                    reason.contains(&format!("version {version} ")),
                    "reason was {reason:?}"
                ),
                other => panic!("expected a typed version refusal, got {other:?}"),
            }
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
    fn every_quad_run_byte_decodes_to_consistent_orders_or_fails() {
        // Decode hands the quad runs to the builder without sorting them.
        // Whatever a byte of the runs becomes — both checksums recomputed so
        // the decoder reads that far — the file is corrupt or its three
        // orders are sorted, unique and hold one quad set.
        type Key = (TermId, TermId, TermId, TermId);
        let mut store = sample_with_graphs(12);
        // Two objects per subject and predicate, so the runs hold every
        // record shape, a bare `do` included.
        for i in 0..12 {
            for j in [1, 2] {
                let person = |n: usize| Iri::new(format!("http://e.org/{}", n % 12)).unwrap();
                store.insert(&Triple::new(person(i), foaf::knows(), person(i + j)));
            }
        }
        let bytes = encode(&store);
        let mut runs_at = 0;
        read_term_table(&bytes[HEADER_LEN..], &mut runs_at, store.term_count()).unwrap();
        let quads = |idx: &PositionalIndex, to_gspo: fn(Key) -> Key| {
            idx.scan_all()
                .map(to_gspo)
                .collect::<std::collections::BTreeSet<Key>>()
        };
        let (mut refused, mut decoded) = (0, 0);
        for at in HEADER_LEN + runs_at..bytes.len() {
            for mask in [0x01, 0x02, 0x40, 0x80, 0xFF] {
                let mut copy = bytes.clone();
                copy[at] ^= mask;
                let crc = crc32(&copy[HEADER_LEN..]);
                copy[36..40].copy_from_slice(&crc.to_le_bytes());
                let crc = crc32(&copy[..40]);
                copy[40..44].copy_from_slice(&crc.to_le_bytes());
                match decode(&copy) {
                    Err(PersistError::Corrupt { .. }) => refused += 1,
                    Err(other) => panic!("byte {at} ^ {mask:#x}: {other:?}"),
                    Ok(store) => {
                        decoded += 1;
                        let [gspo, gpos, gosp] = store.orders();
                        for idx in [gspo, gpos, gosp] {
                            idx.check_invariants()
                                .unwrap_or_else(|e| panic!("byte {at} ^ {mask:#x}: {e}"));
                        }
                        let set = quads(gspo, |k| k);
                        assert_eq!(set.len(), store.len());
                        assert_eq!(quads(gpos, |(g, p, o, s)| (g, s, p, o)), set);
                        assert_eq!(quads(gosp, |(g, o, s, p)| (g, s, p, o)), set);
                    }
                }
            }
        }
        // Both outcomes occur, or the sweep proves nothing.
        assert!(
            refused > 0 && decoded > 0,
            "{refused} refused, {decoded} decoded"
        );
    }

    /// A well-formed file — both checksums valid — around a hand-made
    /// payload.
    fn crafted(terms: u64, quads: u64, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&terms.to_le_bytes());
        bytes.extend_from_slice(&quads.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        let header_crc = crc32(&bytes[..40]);
        bytes.extend_from_slice(&header_crc.to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    /// A term table of IRIs, each written whole (nothing shared).
    fn iri_table(iris: &[&str]) -> Vec<u8> {
        let mut payload = Vec::new();
        for iri in iris {
            payload.push(super::super::codec::TAG_IRI);
            write_varint(&mut payload, 0);
            write_str(&mut payload, iri);
        }
        payload
    }

    fn corruption(bytes: &[u8]) -> String {
        match decode(bytes) {
            Err(PersistError::Corrupt { reason, .. }) => reason,
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_term_table_entries_are_corruption() {
        // The same term twice, all checksums valid: decode must refuse it.
        let payload = iri_table(&["http://e.org/dup", "http://e.org/dup"]);
        let reason = corruption(&crafted(2, 0, &payload));
        assert!(reason.contains("duplicate term"), "{reason}");
    }

    #[test]
    fn a_tail_that_repeats_a_term_is_corruption() {
        // The table is sorted up to "d" and the tail begins at "b". The
        // sorted base is searched, not hashed, and a copy of one of its
        // terms in the tail must still be found; so must a copy inside the
        // tail.
        let table = [
            "http://e.org/a",
            "http://e.org/c",
            "http://e.org/d",
            "http://e.org/b",
        ];
        for repeated in ["http://e.org/c", "http://e.org/a", "http://e.org/b"] {
            let iris = [&table[..], &[repeated]].concat();
            let reason = corruption(&crafted(5, 0, &iri_table(&iris)));
            assert!(reason.contains("duplicate term"), "{repeated}: {reason}");
        }
    }

    #[test]
    fn a_restore_and_a_short_log_tail_hash_no_base_term() {
        // A fresh load's 20 003 terms: ⌈log₂⌉ = 15, so the base's index is
        // built at its 1 334th search. A restore and 100 logged records of
        // two quads each (three lookups a quad) search it 600 times.
        let loaded = TripleStore::from_graph(&sample(10_000).iter().collect());
        assert_eq!(loaded.dictionary().hashed_len(), loaded.term_count());
        let mut store = decode(&encode(&loaded)).unwrap();
        let terms = store.term_count();
        assert_eq!(terms, 20_003);
        assert_eq!(store.dictionary().hashed_len(), 0);
        let record = |i: usize| {
            let s = Iri::new(format!("http://e.org/new/{i}")).unwrap();
            let quads = [
                Triple::new(s.clone(), rdf::type_(), foaf::person()),
                Triple::new(s, foaf::name(), Literal::string(format!("new {i}"))),
            ];
            crate::persist::WalOp {
                removes: Vec::new(),
                inserts: quads.into_iter().map(|t| Quad::new(t, None)).collect(),
            }
        };
        for i in 0..100 {
            record(i).apply(&mut store);
        }
        assert_eq!(store.term_count(), terms + 200);
        assert_eq!(
            store.dictionary().hashed_len(),
            200,
            "only the tail is hashed"
        );
        // A store that keeps taking updates crosses the threshold, and its
        // ids do not move.
        let mut i = 100;
        while store.dictionary().hashed_len() < store.term_count() {
            record(i).apply(&mut store);
            i += 1;
        }
        assert_eq!(
            i, 223,
            "6 searches a record: the 1 334th falls in the 223rd"
        );
        for (id, term) in loaded.dictionary().iter() {
            assert_eq!(store.id_of(term), Some(id));
        }
        assert_eq!(store.len(), loaded.len() + 2 * i);
    }

    #[test]
    fn a_prefix_longer_than_the_previous_text_is_corruption() {
        let mut payload = iri_table(&["http://e.org/a"]);
        payload.push(super::super::codec::TAG_IRI);
        write_varint(&mut payload, 15); // "http://e.org/a" has 14 bytes
        write_str(&mut payload, "b");
        let reason = corruption(&crafted(2, 0, &payload));
        assert!(reason.contains("longer than the previous"), "{reason}");
        // A prefix that ends inside a character.
        let mut payload = iri_table(&["http://e.org/é"]);
        payload.push(super::super::codec::TAG_IRI);
        write_varint(&mut payload, 14);
        write_str(&mut payload, "x");
        let reason = corruption(&crafted(2, 0, &payload));
        assert!(reason.contains("splits a character"), "{reason}");
    }

    #[test]
    fn a_run_out_of_order_only_shortens_the_sorted_prefix() {
        // Nothing in the file claims an order: an IRI table whose third
        // entry steps back decodes whole, sorted up to there.
        let iris = [
            "http://e.org/a",
            "http://e.org/c",
            "http://e.org/b",
            "http://e.org/d",
        ];
        let decoded = decode(&crafted(4, 0, &iri_table(&iris))).unwrap();
        assert_eq!(decoded.term_count(), 4);
        assert_eq!(decoded.dictionary().sorted_len(), 2);
        for (id, iri) in iris.iter().enumerate() {
            let term: Term = Iri::new(*iri).unwrap().into();
            assert_eq!(decoded.id_of(&term), Some(id as TermId));
        }
        // Literals too: one value key each, against the literal before.
        let mut terms: Vec<Term> = vec![
            Iri::new("http://z.example/p").unwrap().into(),
            Literal::integer(9).into(),
            Literal::integer(10).into(),
            Literal::string("10").into(),
            Literal::string("9").into(),
            Literal::integer(2).into(),
        ];
        let mut store = TripleStore::new();
        for term in &terms {
            store.insert(&Triple::new(
                Iri::new("http://e.org/s").unwrap(),
                rdf::type_(),
                term.clone(),
            ));
        }
        let decoded = decode(&encode(&store)).unwrap();
        // Interned: s, rdf:type, then the six objects in the order above.
        terms.splice(
            0..0,
            [
                Iri::new("http://e.org/s").unwrap().into(),
                rdf::type_().into(),
            ],
        );
        let listed: Vec<Term> = decoded
            .dictionary()
            .iter()
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(listed, terms);
        assert_eq!(
            decoded.dictionary().sorted_len(),
            7,
            "ends before the integer 2"
        );
    }

    #[test]
    fn a_fresh_load_round_trips_with_its_whole_order() {
        // A fresh load is term-ordered throughout: the restore finds all of
        // it sorted, and what a later intern appended not.
        let triples: Vec<Triple> = sample(30).iter().collect();
        let mut store = TripleStore::from_graph(&triples.iter().cloned().collect());
        assert_eq!(store.dictionary().sorted_len(), store.term_count());
        let decoded = decode(&encode(&store)).unwrap();
        assert_eq!(decoded.dictionary().sorted_len(), store.term_count());
        assert_eq!(decoded.to_graph(), store.to_graph());
        let sorted = store.term_count();
        store.insert(&Triple::new(
            Iri::new("http://a.example/first").unwrap(),
            rdf::type_(),
            foaf::person(),
        ));
        let decoded = decode(&encode(&store)).unwrap();
        assert_eq!(decoded.dictionary().sorted_len(), sorted);
        for (id, term) in store.dictionary().iter() {
            assert_eq!(decoded.dictionary().get(id), Some(term));
        }
    }

    #[test]
    fn front_coding_shrinks_the_term_table() {
        // Sorted IRIs of one namespace share most of their bytes.
        let store = TripleStore::from_graph(&sample(200).iter().collect());
        let whole: usize = store
            .dictionary()
            .iter()
            .map(|(_, t)| {
                let mut one = Vec::new();
                super::super::codec::write_term(&mut one, t);
                one.len()
            })
            .sum();
        let bytes = encode(&store);
        assert!(
            bytes.len() - HEADER_LEN < whole,
            "the whole snapshot ({} bytes) outweighs its terms written whole ({whole})",
            bytes.len()
        );
    }

    #[test]
    fn absurd_header_counts_fail_cleanly_instead_of_allocating() {
        // A malicious header can carry a *valid* CRC over absurd counts;
        // decode must reject it via parse failure, not attempt an
        // exabyte-scale pre-allocation.
        for count_at in [12, 20] {
            // The term count, then the quad count.
            let mut bytes = encode(&sample(2));
            bytes[count_at..count_at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
            let crc = crate::persist::codec::crc32(&bytes[..40]);
            bytes[40..44].copy_from_slice(&crc.to_le_bytes());
            assert!(decode(&bytes).is_err());
        }
    }

    #[test]
    fn quad_runs_are_read_into_one_exact_allocation() {
        // 70 000 quads, more than any fixed cap on the reservation: the
        // first absolute, then each one object further.
        let count = 70_000;
        let mut payload = vec![0, 0, 0, 0];
        for _ in 1..count {
            payload.extend([0, 0, 0, 1]);
        }
        let gspo = read_quads(&payload, &mut 0, count, count).unwrap();
        assert_eq!(gspo.len(), count);
        let pairs = gspo.heap_bytes().pairs;
        assert_eq!(pairs, 8 * count, "the pair vector grew while reading");
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

    /// One entry of a hand-made term table: its tag, its text, and its
    /// language tag or datatype IRI.
    type Written = (u8, String, String);

    /// A term table of `entries`, each text (and datatype) front-coded
    /// against the one before it as [`encode`] codes it — except entry
    /// `raw.0`, written with `raw.1` shared bytes and the suffix `raw.2`.
    fn front_coded_table(entries: &[Written], raw: Option<(usize, usize, &str)>) -> Vec<u8> {
        let mut payload = Vec::new();
        let (mut text, mut datatype) = ("", "");
        for (i, (tag, t, extra)) in entries.iter().enumerate() {
            payload.push(*tag);
            match raw {
                Some((at, shared, suffix)) if at == i => {
                    write_varint(&mut payload, shared as u64);
                    write_str(&mut payload, suffix);
                }
                _ => write_front_coded(&mut payload, text, t),
            }
            text = t;
            match *tag {
                TAG_LANG => write_str(&mut payload, extra),
                TAG_TYPED => {
                    write_front_coded(&mut payload, datatype, extra);
                    datatype = extra;
                }
                _ => {}
            }
        }
        payload
    }

    #[test]
    fn a_bad_entry_in_the_last_block_is_refused_by_the_restore() {
        // 100 increasing entries: entry 90 sits in the second and last
        // block, past its head, where the restore validates it without
        // building it. Each case's table decodes whole, sorted as far as
        // `sorted`; with entry 90 made bad, `decode` itself refuses it.
        let entry = |tag: u8, text: String| (tag, text, String::new());
        let iris: Vec<Written> = (0..100)
            .map(|i| entry(TAG_IRI, format!("http://e.org/t/{i:03}")))
            .collect();
        let accented: Vec<Written> = (0..100)
            .map(|i| entry(TAG_IRI, format!("http://e.org/é/{i:03}")))
            .collect();
        let integers: Vec<Written> = (0..100)
            .map(|i| (TAG_TYPED, i.to_string(), xsd::text::integer.to_string()))
            .collect();
        let after_blanks: Vec<Written> = (0..100)
            .map(|i| match i {
                0..=89 => entry(TAG_BLANK, format!("{i:03}n")),
                _ => entry(TAG_IRI, format!("http://e.org/{i:03}")),
            })
            .collect();
        // Literals order after IRIs, so here entry 90 starts the tail.
        let after_literals: Vec<Written> = (0..100)
            .map(|i| match i {
                0..=89 => entry(TAG_STRING, format!("http://e.org/a b{i:03}")),
                _ => entry(TAG_IRI, format!("http://e.org/{i:03}")),
            })
            .collect();
        let at89 = |entries: &[Written], suffix: &str| format!("{}{suffix}", entries[89].1);
        let cases = [
            (
                "a forbidden IRI byte in a suffix",
                &iris,
                entry(TAG_IRI, at89(&iris, "<")),
                None,
                100,
                "invalid IRI",
            ),
            (
                "U+00A0 in a suffix",
                &iris,
                entry(TAG_IRI, at89(&iris, "\u{a0}")),
                None,
                100,
                "invalid IRI",
            ),
            (
                "a shared prefix that splits a character",
                &accented,
                accented[90].clone(),
                Some(("http://e.org/".len() + 1, "x")),
                100,
                "splits a character",
            ),
            (
                "a bad datatype IRI",
                &integers,
                (TAG_TYPED, "90".into(), "no scheme".into()),
                None,
                100,
                "invalid datatype IRI",
            ),
            (
                "an IRI coded against a blank node",
                &after_blanks,
                // The label is all a valid IRI could share, and its first
                // character cannot start a scheme.
                entry(TAG_IRI, at89(&after_blanks, ":x")),
                None,
                100,
                "invalid IRI",
            ),
            (
                "an IRI coded against a literal",
                &after_literals,
                // The space is in the shared prefix, not the suffix.
                entry(TAG_IRI, at89(&after_literals, "c")),
                None,
                90,
                "invalid IRI",
            ),
        ];
        for (what, entries, bad, raw, sorted, reason) in cases {
            let good = decode(&crafted(100, 0, &front_coded_table(entries, None)))
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let dictionary = good.dictionary();
            assert_eq!(dictionary.sorted_len(), sorted, "{what}");
            assert_eq!(dictionary.materialized_len(), 100 - sorted, "{what}");
            let mut entries = entries.clone();
            entries[90] = bad;
            let raw = raw.map(|(shared, suffix)| (90, shared, suffix));
            let refused = corruption(&crafted(100, 0, &front_coded_table(&entries, raw)));
            assert!(refused.contains(reason), "{what}: {refused}");
        }
    }

    #[test]
    fn the_suffix_check_agrees_with_iri_parse() {
        // Front-coded neighbours: a valid IRI, then a text sharing each of
        // its character-boundary prefixes and ending in each suffix. The
        // restore's verdict on the second, given the first's colon, is
        // `Iri::parse`'s, and so is the colon it reports.
        let firsts = [
            "http://e.org/a",
            "h:x",
            "urn:isbn:0451450523",
            "http://e.org/é/ü",
            "a+b-c.d:/p?q=1#f",
            "mailto:someone@e.org",
        ];
        let suffixes = [
            "",
            "a",
            "/x/y",
            ":",
            "::x",
            " ",
            "\t",
            "<",
            ">",
            "\"",
            "{",
            "}",
            "|",
            "^",
            "`",
            "\\",
            "\u{a0}",
            "\u{85}",
            "\u{2003}",
            "\u{3000}",
            "\u{2028}",
            "é",
            "x\u{a0}y",
            "ok<",
            "\u{1F600}",
            "%20",
            "#frag",
            "~:x",
            "+:x",
            "1:x",
        ];
        let mut checked = 0;
        for first in firsts {
            let colon = first.find(':');
            assert!(Iri::parse(first).is_ok());
            for shared in (0..=first.len()).filter(|&at| first.is_char_boundary(at)) {
                for suffix in suffixes {
                    let text = format!("{}{suffix}", &first[..shared]);
                    let restore = check_iri(&text, shared, colon).map_err(|_| ());
                    let parse = Iri::parse(&text).map(|_| text.find(':').unwrap());
                    assert_eq!(restore, parse.map_err(|_| ()), "{text:?} after {first:?}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 1_000, "{checked}");
    }

    #[test]
    fn a_restored_base_builds_a_block_on_its_first_read() {
        // A fresh load of 1 001 terms: blocks of 64, the last one of 41.
        let loaded = TripleStore::from_graph(&sample(499).iter().collect());
        let terms = loaded.term_count();
        assert_eq!(terms, 1_001);
        let restored = decode(&encode(&loaded)).unwrap();
        let dict = restored.dictionary();
        assert_eq!((dict.sorted_len(), dict.materialized_len()), (terms, 0));
        let term = |id: TermId| loaded.dictionary().term(id).clone();
        // A head answers a lookup without building its block.
        assert_eq!(dict.id_of(&term(128)), Some(128));
        assert_eq!(dict.materialized_len(), 0);
        // Any other id builds its one block, a miss at most one.
        assert_eq!(dict.id_of(&term(130)), Some(130));
        assert_eq!(dict.materialized_len(), 64);
        assert_eq!(
            dict.id_of(&Iri::new("http://e.org/1x").unwrap().into()),
            None
        );
        assert!(dict.materialized_len() <= 128);
        assert_eq!(dict.term(1_000), &term(1_000));
        assert_eq!(dict.get(960), Some(&term(960)));
        let built = dict.materialized_len();
        assert!(built <= 128 + 41, "{built}");
        // A clone shares what is built.
        let copy = restored.clone();
        assert_eq!(copy.dictionary().materialized_len(), built);
        // Every id reads back as the load numbered it, and the re-encoded
        // snapshot is the one it came from.
        for (id, t) in loaded.dictionary().iter() {
            assert_eq!(dict.term(id), t);
        }
        assert_eq!(dict.materialized_len(), terms);
        assert_eq!(encode(&restored), encode(&loaded));
    }

    #[test]
    fn a_snapshot_re_encoded_from_its_restore_is_byte_identical() {
        // A fresh load, then interns past it: a base and a tail.
        let mut store = TripleStore::from_graph(&sample(300).iter().collect());
        for i in 0..40 {
            store.insert(&Triple::new(
                Iri::new(format!("http://a.example/{i}")).unwrap(),
                foaf::name(),
                Literal::lang_string(format!("n{i}"), "EN"),
            ));
        }
        let bytes = encode(&store);
        let restored = decode(&bytes).unwrap();
        assert!(restored.dictionary().sorted_len() < restored.term_count());
        assert_eq!(encode(&restored), bytes);
    }
}
