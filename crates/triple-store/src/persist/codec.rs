//! Binary primitives shared by the snapshot and WAL formats: LEB128
//! varints, length-prefixed strings, the [`Term`] codec and the CRC-32
//! checksum that guards every on-disk payload.
//!
//! Everything here is std-only and deterministic: the same store state
//! always serializes to the same bytes, which keeps snapshot files
//! diffable and the recovery tests exact.

use hbold_rdf_model::vocab::{datatype_iri, xsd};
use hbold_rdf_model::{BlankNode, Iri, Literal, Term};

use super::PersistError;

/// Term tag bytes. A tag is the first byte of every encoded term.
pub(super) const TAG_IRI: u8 = 0;
pub(super) const TAG_BLANK: u8 = 1;
pub(super) const TAG_STRING: u8 = 2;
pub(super) const TAG_LANG: u8 = 3;
pub(super) const TAG_TYPED: u8 = 4;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8, tables built at
// compile time.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// `tables[0]` is the byte-at-a-time table; `tables[k][i]` is the CRC of
/// byte `i` followed by `k` zero bytes, so eight table loads advance the CRC
/// by eight bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [crc32_table(); 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `bytes`. Used to validate snapshot payloads and every
/// WAL record before it is trusted during recovery.
///
/// Slicing-by-8: eight bytes a step, each through its own table, then the
/// tail byte by byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32_TABLES;
    let at = |table: &[u32; 256], word: u32, shift: u32| table[((word >> shift) & 0xFF) as usize];
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = at(t7, lo, 0)
            ^ at(t6, lo, 8)
            ^ at(t5, lo, 16)
            ^ at(t4, lo, 24)
            ^ at(t3, hi, 0)
            ^ at(t2, hi, 8)
            ^ at(t1, hi, 16)
            ^ at(t0, hi, 24);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ at(t0, crc ^ b as u32, 0);
    }
    !crc
}

// ---------------------------------------------------------------------------
// Varints and strings.
// ---------------------------------------------------------------------------

/// Appends `value` as an LEB128 varint (7 bits per byte, high bit = more).
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `bytes` starting at `*pos`, advancing `*pos`.
#[inline]
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, PersistError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(PersistError::corrupt("varint runs past end of input"));
        };
        *pos += 1;
        if shift >= 64 {
            return Err(PersistError::corrupt("varint longer than 64 bits"));
        }
        let low = (byte & 0x7F) as u64;
        // At shift 63 only the lowest payload bit still fits in a u64; a
        // crafted file must fail as corrupt, not decode to a wrong value.
        if shift == 63 && low > 1 {
            return Err(PersistError::corrupt("varint overflows 64 bits"));
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Reads a `u64` that must fit in `usize` (a length or count); rejects
/// values that would wrap on 32-bit targets instead of truncating them.
#[inline]
pub fn read_len(bytes: &[u8], pos: &mut usize) -> Result<usize, PersistError> {
    usize::try_from(read_varint(bytes, pos)?)
        .map_err(|_| PersistError::corrupt("length does not fit in usize"))
}

/// Reads a length-prefixed UTF-8 string, borrowed from `bytes`.
#[inline]
pub fn read_str<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a str, PersistError> {
    let len = read_len(bytes, pos)?;
    let end = pos
        .checked_add(len)
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| PersistError::corrupt("string length runs past end of input"))?;
    let text = std::str::from_utf8(&bytes[*pos..end])
        .map_err(|_| PersistError::corrupt("string is not valid UTF-8"))?;
    *pos = end;
    Ok(text)
}

// ---------------------------------------------------------------------------
// Terms.
// ---------------------------------------------------------------------------

/// The tag a term is written under.
pub(super) fn tag_of(term: &Term) -> u8 {
    match term {
        Term::Iri(_) => TAG_IRI,
        Term::Blank(_) => TAG_BLANK,
        Term::Literal(literal) if literal.language().is_some() => TAG_LANG,
        Term::Literal(literal) if literal.datatype().as_str() == xsd::text::string => TAG_STRING,
        Term::Literal(_) => TAG_TYPED,
    }
}

/// The text every tag carries first: the IRI, the blank-node label or the
/// literal's lexical form.
pub(super) fn text_of(term: &Term) -> &str {
    match term {
        Term::Iri(iri) => iri.as_str(),
        Term::Blank(blank) => blank.label(),
        Term::Literal(literal) => literal.lexical_form(),
    }
}

/// Appends an encoded [`Term`]: a tag byte followed by the term's
/// length-prefixed text component(s) — the text, then a language-tagged
/// literal's tag or a typed literal's datatype IRI.
pub fn write_term(out: &mut Vec<u8>, term: &Term) {
    let tag = tag_of(term);
    out.push(tag);
    write_str(out, text_of(term));
    if let Term::Literal(literal) = term {
        match tag {
            TAG_LANG => write_str(out, literal.language().unwrap_or_default()),
            TAG_TYPED => write_str(out, literal.datatype().as_str()),
            _ => {}
        }
    }
}

/// Reads one encoded [`Term`]. Every text is copied exactly once, from
/// `bytes` into the term, and a typed literal of a well-known datatype
/// shares the vocabulary's IRI instead of a copy.
pub fn read_term(bytes: &[u8], pos: &mut usize) -> Result<Term, PersistError> {
    let tag = match bytes.get(*pos) {
        None => return Err(PersistError::corrupt("term tag runs past end of input")),
        Some(&tag) if tag > TAG_TYPED => {
            return Err(PersistError::corrupt(format!("unknown term tag {tag}")))
        }
        Some(&tag) => tag,
    };
    *pos += 1;
    let text = read_str(bytes, pos)?;
    let (lang, datatype) = match tag {
        TAG_LANG => (read_str(bytes, pos)?, None),
        TAG_TYPED => ("", Some(parse_datatype(read_str(bytes, pos)?)?)),
        _ => ("", None),
    };
    term_of(tag, text, lang, datatype, false)
}

/// Builds the term a tag and its fields describe (`lang` is read for
/// [`TAG_LANG`] only, `datatype` for [`TAG_TYPED`] only), copying each text
/// once. An IRI's text is checked by [`Iri::parse`] unless `validated` says
/// these bytes passed that check already: a restored term table's block,
/// whose every entry the restore validated.
pub(super) fn term_of(
    tag: u8,
    text: &str,
    lang: &str,
    datatype: Option<Iri>,
    validated: bool,
) -> Result<Term, PersistError> {
    Ok(match (tag, datatype) {
        (TAG_IRI, _) if validated => {
            debug_assert!(Iri::check(text).is_ok(), "the restore validated {text:?}");
            Iri::new_unchecked(text).into()
        }
        // Snapshot/WAL terms were validated when first constructed, so a
        // decode failure here means file corruption, not user input.
        (TAG_IRI, _) => Iri::parse(text)
            .map_err(|e| PersistError::corrupt(format!("invalid IRI in term: {e}")))?
            .into(),
        (TAG_BLANK, _) => BlankNode::from_label(text).into(),
        (TAG_STRING, _) => Literal::new_simple(text).into(),
        (TAG_LANG, _) => Literal::new_tagged(text, lang).into(),
        (TAG_TYPED, Some(datatype)) => Literal::new_typed(text, datatype).into(),
        (other, _) => return Err(PersistError::corrupt(format!("unknown term tag {other}"))),
    })
}

/// A typed literal's datatype IRI from its text: shared when well known.
pub(super) fn parse_datatype(text: &str) -> Result<Iri, PersistError> {
    datatype_iri(text).map_err(|e| PersistError::corrupt(format!("invalid datatype IRI: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC over the first table: the reference the
    /// slicing-by-8 kernel must reproduce bit for bit.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table = &CRC32_TABLES[0];
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_by_8_equals_the_bytewise_crc() {
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        let mut bytes = vec![0u8; 300 + 8];
        StdRng::seed_from_u64(0x5EED).fill_bytes(&mut bytes);
        // Every length up to 300 at every start alignment: each tail length
        // and each chunk phase against the slice's address.
        for start in 0..8 {
            for len in 0..=300 {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn varint_round_trips_across_widths() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &values {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos).is_err());
        // 11 continuation bytes exceed 64 bits.
        let overlong = vec![0x80u8; 11];
        let mut pos = 0;
        assert!(read_varint(&overlong, &mut pos).is_err());
        // A 10-byte varint whose final byte carries bits that cannot fit in
        // a u64 must fail as corrupt, not silently drop them.
        let mut crafted = vec![0x80u8; 9];
        crafted.push(0x7F);
        let mut pos = 0;
        assert!(read_varint(&crafted, &mut pos).is_err());
    }

    #[test]
    fn every_term_kind_round_trips() {
        let terms: Vec<Term> = vec![
            Iri::new("http://example.org/a").unwrap().into(),
            BlankNode::new("b42").into(),
            Literal::string("plain ✓ text").into(),
            Literal::lang_string("ciao", "it").into(),
            Literal::integer(-7).into(),
            Literal::double(2.5).into(),
            Literal::boolean(true).into(),
        ];
        let mut buf = Vec::new();
        for t in &terms {
            write_term(&mut buf, t);
        }
        let mut pos = 0;
        for t in &terms {
            assert_eq!(&read_term(&buf, &mut pos).unwrap(), t);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn unknown_tag_is_corruption() {
        let buf = vec![99u8, 0];
        let mut pos = 0;
        assert!(read_term(&buf, &mut pos).is_err());
    }
}
