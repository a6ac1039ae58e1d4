//! RDF terms: IRIs, blank nodes and the [`Term`] sum type.
//!
//! Terms are cheap to clone: the underlying text is stored in an
//! [`std::sync::Arc<str>`], so cloning a term is a reference-count bump.
//! RDF datasets mention the same IRIs over and over (every instance of a
//! class repeats the class IRI, every use of a property repeats the property
//! IRI), so shared ownership is the natural representation.

use std::fmt;
use std::sync::Arc;

use crate::literal::Literal;
use crate::value::ValueKey;

/// Error returned by [`Iri::new`] when the supplied text is not an
/// acceptable IRI.
///
/// The validation is deliberately pragmatic rather than a full RFC 3987
/// implementation: H-BOLD ingests IRIs from SPARQL endpoints and open-data
/// portals, and the properties that matter for the rest of the system are
/// that an IRI is non-empty, has a scheme, and contains no characters that
/// would corrupt N-Triples/SPARQL serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IriParseError {
    text: String,
    reason: &'static str,
}

impl IriParseError {
    /// The offending input text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// A short human-readable description of what was wrong.
    pub fn reason(&self) -> &'static str {
        self.reason
    }
}

impl fmt::Display for IriParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IRI `{}`: {}", self.text, self.reason)
    }
}

impl std::error::Error for IriParseError {}

/// An absolute IRI (Internationalized Resource Identifier).
///
/// `Iri` is an immutable, cheaply clonable wrapper around the IRI text.
/// Equality, ordering and hashing are all by the textual form, which is what
/// RDF semantics prescribe for IRI identity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Iri(Arc<str>);

impl Iri {
    /// Parses and validates `text` as an absolute IRI.
    ///
    /// Validation rules:
    /// * non-empty,
    /// * must contain a `:` separating a non-empty alphabetic scheme from the
    ///   rest (i.e. the IRI is absolute),
    /// * must not contain whitespace, `<`, `>`, `"`, `{`, `}`, `|`, `^`,
    ///   backtick or backslash (characters that are illegal in the
    ///   N-Triples / SPARQL `IRIREF` production).
    ///
    /// Whitespace is Unicode's: besides the ASCII space, tab and line
    /// breaks, `U+0085`, `U+00A0`, `U+2000`–`U+200A`, `U+3000` and the rest
    /// of the `White_Space` property are refused too. The check reads bytes
    /// and decodes characters only from the first non-ASCII one on, which
    /// changes its speed, not its verdicts.
    pub fn new(text: impl Into<String>) -> Result<Self, IriParseError> {
        let text = text.into();
        match invalid_iri(&text) {
            Some(reason) => Err(IriParseError { text, reason }),
            None => Ok(Iri(Arc::from(text))),
        }
    }

    /// [`Iri::new`] over borrowed text, which it copies exactly once —
    /// straight into the shared buffer — and only when it is valid. What
    /// decoders call: their text is a slice of the document.
    pub fn parse(text: &str) -> Result<Self, IriParseError> {
        Iri::check(text)?;
        Ok(Iri(Arc::from(text)))
    }

    /// [`Iri::parse`]'s verdict on `text`, without the copy: for a decoder
    /// that validates text now and builds the IRI later, or never.
    pub fn check(text: &str) -> Result<(), IriParseError> {
        match invalid_iri(text) {
            Some(reason) => Err(IriParseError {
                text: text.to_string(),
                reason,
            }),
            None => Ok(()),
        }
    }

    /// [`Iri::parse`] of `text` up to its first `>`, and that length; `None`
    /// when `text` has no `>`. What a reader of `<…>` calls past the `<`: an
    /// ASCII IRI is read once, by the scan that finds its `>`.
    pub fn parse_until_gt(text: &str) -> Option<(Result<Self, IriParseError>, usize)> {
        let bytes = text.as_bytes();
        let stop = bytes
            .iter()
            .position(|&b| b >= 0x80 || FORBIDDEN_ASCII[b as usize])?;
        if bytes[stop] != b'>' {
            let end = stop + text[stop..].find('>')?;
            return Some((Iri::parse(&text[..end]), end));
        }
        // Nothing before `stop` is forbidden: only the scheme can fail.
        let body = &text[..stop];
        let iri = match scheme_end(body) {
            Ok(_) => Ok(Iri(Arc::from(body))),
            Err(reason) => Err(IriParseError {
                text: body.to_string(),
                reason,
            }),
        };
        Some((iri, stop))
    }

    /// Creates an IRI without validation. Borrowed text is copied once,
    /// straight into the shared buffer, as [`Iri::parse`] copies it.
    ///
    /// Intended for compile-time-known vocabulary constants, for internal
    /// generators that construct IRIs from already-validated parts, and for
    /// decoders of bytes validated before. Prefer [`Iri::new`] for
    /// externally supplied text.
    pub fn new_unchecked(text: impl Into<Arc<str>>) -> Self {
        Iri(text.into())
    }

    /// The full IRI text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Returns the "local name": the part after the last `#`, or after the
    /// last `/` if there is no fragment.
    ///
    /// This is how H-BOLD labels classes and properties in its visualizations
    /// (e.g. `http://xmlns.com/foaf/0.1/Person` → `Person`).
    pub fn local_name(&self) -> &str {
        let s = self.as_str();
        if let Some(idx) = s.rfind('#') {
            let tail = &s[idx + 1..];
            if !tail.is_empty() {
                return tail;
            }
        }
        match s.rfind('/') {
            Some(idx) if idx + 1 < s.len() => &s[idx + 1..],
            _ => s,
        }
    }

    /// Returns the namespace part: everything up to and including the last
    /// `#` or `/`. The concatenation of [`Iri::namespace`] and
    /// [`Iri::local_name`] is the full IRI whenever a split exists.
    pub fn namespace(&self) -> &str {
        let s = self.as_str();
        let local = self.local_name();
        &s[..s.len() - local.len()]
    }

    /// Formats the IRI in N-Triples / SPARQL syntax: `<...>`.
    pub fn to_ntriples(&self) -> String {
        format!("<{}>", self.as_str())
    }
}

/// Whether `c` may not appear in an IRI: whitespace, or a character the
/// N-Triples / SPARQL `IRIREF` production excludes.
const fn forbidden_in_iri(c: char) -> bool {
    c.is_whitespace() || matches!(c, '<' | '>' | '"' | '{' | '}' | '|' | '^' | '`' | '\\')
}

/// [`forbidden_in_iri`] of every ASCII character, indexed by its byte.
const FORBIDDEN_ASCII: [bool; 128] = {
    let mut table = [false; 128];
    let mut b = 0;
    while b < 128 {
        table[b] = forbidden_in_iri(b as u8 as char);
        b += 1;
    }
    table
};

/// The rules of [`Iri::new`] for the scheme: where the `:` that ends it
/// is, or why `text` has no valid scheme.
fn scheme_end(text: &str) -> Result<usize, &'static str> {
    let Some(colon) = text.find(':') else {
        return Err(match text.is_empty() {
            true => "empty string",
            false => "missing scheme (IRI must be absolute)",
        });
    };
    if colon == 0 {
        return Err("empty scheme");
    }
    let bytes = text.as_bytes();
    if !bytes[0].is_ascii_alphabetic()
        || !bytes[..colon]
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || matches!(b, b'+' | b'-' | b'.'))
    {
        return Err("scheme must be alphanumeric and start with a letter");
    }
    Ok(colon)
}

/// Whether `text` holds a character [`forbidden_in_iri`]: by byte against
/// [`FORBIDDEN_ASCII`] up to its first non-ASCII byte, by `char` from there
/// on, so Unicode whitespace is refused too.
fn has_forbidden(text: &str) -> bool {
    let bytes = text.as_bytes();
    match bytes
        .iter()
        .position(|&b| b >= 0x80 || FORBIDDEN_ASCII[b as usize])
    {
        None => false,
        Some(i) if bytes[i] < 0x80 => true,
        // Every byte before `i` is ASCII, so `i` starts a character.
        Some(i) => text[i..].contains(forbidden_in_iri),
    }
}

/// Why `text` is not an acceptable IRI (the rules of [`Iri::new`]), or
/// `None` when it is one.
fn invalid_iri(text: &str) -> Option<&'static str> {
    match scheme_end(text) {
        Err(reason) => Some(reason),
        Ok(colon) => has_forbidden(&text[colon + 1..])
            .then_some("contains a character not allowed in IRIREF"),
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.as_str())
    }
}

impl AsRef<str> for Iri {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// A blank node, identified by a label that is only meaningful within a
/// single graph/document.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlankNode(Arc<str>);

impl BlankNode {
    /// Creates a blank node with the given label. Labels are restricted to
    /// ASCII alphanumerics, `_`, `-` and `.`, and do not end in `.`, so
    /// every reader of `_:label` reads them back as written; any other
    /// character, and a final `.`, becomes `_`, and an empty label becomes
    /// `b0`.
    pub fn new(label: impl Into<String>) -> Self {
        BlankNode::from_label(&label.into())
    }

    /// [`BlankNode::new`] over a borrowed label: a label that needs no
    /// sanitizing — every label this crate writes — is copied exactly once,
    /// straight into the shared buffer.
    pub fn from_label(label: &str) -> Self {
        // An ASCII-only test, so a byte at or above 0x80 is never allowed
        // and a label of allowed bytes is one of allowed characters.
        let allowed = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.');
        if label.is_empty() {
            BlankNode(Arc::from("b0"))
        } else if label.bytes().all(allowed) && !label.ends_with('.') {
            BlankNode(Arc::from(label))
        } else {
            let mut sanitized: String = label
                .chars()
                .map(|c| {
                    if c.is_ascii() && allowed(c as u8) {
                        c
                    } else {
                        '_'
                    }
                })
                .collect();
            if sanitized.ends_with('.') {
                sanitized.pop();
                sanitized.push('_');
            }
            BlankNode(Arc::from(sanitized))
        }
    }

    /// Creates a blank node with a numeric label, e.g. `b42`.
    pub fn numbered(n: u64) -> Self {
        BlankNode(Arc::from(format!("b{n}")))
    }

    /// The blank node label (without the leading `_:`).
    pub fn label(&self) -> &str {
        &self.0
    }

    /// Formats the node in N-Triples syntax: `_:label`.
    pub fn to_ntriples(&self) -> String {
        format!("_:{}", self.label())
    }
}

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.label())
    }
}

/// Discriminates the three kinds of RDF term without carrying the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TermKind {
    /// An IRI.
    Iri,
    /// A blank node.
    BlankNode,
    /// A literal.
    Literal,
}

/// Any RDF term: IRI, blank node or literal.
///
/// `Ord` is *the* term order — the one `ORDER BY`, `MIN`/`MAX`, the
/// whole-row tie-break of `hbold-sparql` and [`crate::Graph`]'s set all
/// stand on. Blank nodes sort before IRIs before literals; blank nodes and
/// IRIs by their text; literals by value class (numeric < boolean <
/// dateTime < everything else), by value within the class (`NaN` after
/// every number, `-0.0` = `0.0`, integers exact beyond 2^53), then by
/// lexical form, datatype and language. It is total, and `Equal` exactly
/// when `==`, so it agrees with `Eq` and `Hash`. Where it refines SPARQL:
/// value-equal literals (`"1"`, `"01"`, `"1.0"^^xsd:double`) do not tie,
/// they order by lexical form. The order is written once, as the derived
/// order of each term's [`OrderKey`]. The `<` and `=` *operators* of
/// `FILTER` are [`crate::LiteralValue`]'s partial order and are a different
/// thing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// An IRI term.
    Iri(Iri),
    /// A blank node term.
    Blank(BlankNode),
    /// A literal term.
    Literal(Literal),
}

impl Term {
    /// The kind of this term.
    pub fn kind(&self) -> TermKind {
        match self {
            Term::Iri(_) => TermKind::Iri,
            Term::Blank(_) => TermKind::BlankNode,
            Term::Literal(_) => TermKind::Literal,
        }
    }

    /// Returns `true` if this term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// Returns `true` if this term is a blank node.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// Returns `true` if this term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// Returns the IRI if this term is one.
    pub fn as_iri(&self) -> Option<&Iri> {
        match self {
            Term::Iri(iri) => Some(iri),
            _ => None,
        }
    }

    /// Returns the literal if this term is one.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(lit) => Some(lit),
            _ => None,
        }
    }

    /// Returns the blank node if this term is one.
    pub fn as_blank(&self) -> Option<&BlankNode> {
        match self {
            Term::Blank(b) => Some(b),
            _ => None,
        }
    }

    /// A short human-oriented label for the term: the local name for IRIs,
    /// the lexical form for literals, the label for blank nodes.
    pub fn label(&self) -> &str {
        match self {
            Term::Iri(iri) => iri.local_name(),
            Term::Blank(b) => b.label(),
            Term::Literal(l) => l.lexical_form(),
        }
    }

    /// Formats the term in N-Triples syntax.
    pub fn to_ntriples(&self) -> String {
        match self {
            Term::Iri(iri) => iri.to_ntriples(),
            Term::Blank(b) => b.to_ntriples(),
            Term::Literal(l) => l.to_ntriples(),
        }
    }

    /// Returns `true` if the term may appear in the subject position of a
    /// triple (IRIs and blank nodes; RDF 1.1 forbids literal subjects).
    pub fn is_valid_subject(&self) -> bool {
        !self.is_literal()
    }

    /// Returns `true` if the term may appear in the predicate position
    /// (only IRIs).
    pub fn is_valid_predicate(&self) -> bool {
        self.is_iri()
    }
}

/// A term's place in the term order, as one value: its derived `Ord` *is*
/// [`Term::cmp`] — the variants rank blank nodes before IRIs before
/// literals, and a literal's fields are its value key, lexical form,
/// datatype and language, in that order.
///
/// A key borrows the term's text, so computing one copies nothing; what it
/// costs is a literal's [`ValueKey`], which parses the lexical form. A sort
/// that computes each key once (`sort_by_cached_key`) therefore parses each
/// literal once, where a sort by [`Term::cmp`] parses one per comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OrderKey<'a> {
    /// A blank node, by its label.
    Blank(&'a str),
    /// An IRI, by its text.
    Iri(&'a str),
    /// A literal: value class and value, lexical form, datatype IRI,
    /// language tag.
    Literal(ValueKey, &'a str, &'a str, Option<&'a str>),
}

impl Term {
    /// The term's [`OrderKey`].
    pub fn order_key(&self) -> OrderKey<'_> {
        match self {
            Term::Blank(b) => OrderKey::Blank(b.label()),
            Term::Iri(iri) => OrderKey::Iri(iri.as_str()),
            Term::Literal(l) => {
                let (value, lexical, datatype, language) = l.order_key();
                OrderKey::Literal(value, lexical, datatype, language)
            }
        }
    }
}

impl PartialOrd for Term {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Term {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order_key().cmp(&other.order_key())
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_ntriples())
    }
}

impl From<Iri> for Term {
    fn from(value: Iri) -> Self {
        Term::Iri(value)
    }
}

impl From<BlankNode> for Term {
    fn from(value: BlankNode) -> Self {
        Term::Blank(value)
    }
}

impl From<Literal> for Term {
    fn from(value: Literal) -> Self {
        Term::Literal(value)
    }
}

impl From<&Iri> for Term {
    fn from(value: &Iri) -> Self {
        Term::Iri(value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::xsd;

    #[test]
    fn iri_accepts_http_and_urn() {
        assert!(Iri::new("http://example.org/x").is_ok());
        assert!(Iri::new("https://example.org/x#frag").is_ok());
        assert!(Iri::new("urn:uuid:1234").is_ok());
        assert!(Iri::new("mailto:someone@example.org").is_ok());
    }

    #[test]
    fn iri_rejects_garbage() {
        assert!(Iri::new("").is_err());
        assert!(Iri::new("no-scheme-here").is_err());
        assert!(Iri::new(":missing").is_err());
        assert!(Iri::new("http://exa mple.org/").is_err());
        assert!(Iri::new("http://example.org/<x>").is_err());
        assert!(Iri::new("1http://example.org/").is_err());
    }

    #[test]
    fn iri_local_name_and_namespace() {
        let i = Iri::new("http://xmlns.com/foaf/0.1/Person").unwrap();
        assert_eq!(i.local_name(), "Person");
        assert_eq!(i.namespace(), "http://xmlns.com/foaf/0.1/");

        let i = Iri::new("http://www.w3.org/1999/02/22-rdf-syntax-ns#type").unwrap();
        assert_eq!(i.local_name(), "type");
        assert_eq!(i.namespace(), "http://www.w3.org/1999/02/22-rdf-syntax-ns#");

        // No separators after the scheme: local name falls back to the whole text.
        let i = Iri::new("urn:thing").unwrap();
        assert_eq!(i.local_name(), "urn:thing");
    }

    #[test]
    fn iri_display_is_bracketed() {
        let i = Iri::new("http://example.org/a").unwrap();
        assert_eq!(i.to_string(), "<http://example.org/a>");
        assert_eq!(i.to_ntriples(), "<http://example.org/a>");
    }

    #[test]
    fn blank_node_labels_are_sanitized() {
        let b = BlankNode::new("node with spaces");
        assert!(!b.label().contains(' '));
        assert_eq!(BlankNode::numbered(7).label(), "b7");
        assert_eq!(BlankNode::new("").label(), "b0");
    }

    #[test]
    fn term_kind_and_accessors() {
        let iri = Iri::new("http://example.org/a").unwrap();
        let t: Term = iri.clone().into();
        assert_eq!(t.kind(), TermKind::Iri);
        assert!(t.is_iri() && !t.is_blank() && !t.is_literal());
        assert_eq!(t.as_iri(), Some(&iri));
        assert!(t.is_valid_subject());
        assert!(t.is_valid_predicate());

        let b: Term = BlankNode::numbered(1).into();
        assert_eq!(b.kind(), TermKind::BlankNode);
        assert!(b.is_valid_subject());
        assert!(!b.is_valid_predicate());

        let l: Term = Literal::string("hi").into();
        assert_eq!(l.kind(), TermKind::Literal);
        assert!(!l.is_valid_subject());
        assert!(!l.is_valid_predicate());
        assert_eq!(l.label(), "hi");
    }

    #[test]
    fn term_ordering_groups_by_kind() {
        let blank: Term = BlankNode::numbered(9).into();
        let iri: Term = Iri::new("http://a.example/z").unwrap().into();
        let lit: Term = Literal::string("a").into();
        let mut v = vec![lit.clone(), iri.clone(), blank.clone()];
        v.sort();
        assert_eq!(v, vec![blank, iri, lit]);
    }

    /// Every pair strictly ordered as listed, in both directions — which,
    /// over a list, is transitivity too.
    fn assert_strictly_ascending(terms: &[Term]) {
        for (i, a) in terms.iter().enumerate() {
            for (j, b) in terms.iter().enumerate() {
                assert_eq!(a.cmp(b), i.cmp(&j), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn numbers_and_numeric_looking_strings_do_not_cycle() {
        // Was `"10"^^integer > "9"^^integer > "5" > "10"^^integer`: value
        // comparison when both sides parsed, lexical otherwise.
        assert_strictly_ascending(&[
            Literal::integer(9).into(),
            Literal::integer(10).into(),
            Literal::string("5").into(),
        ]);
    }

    #[test]
    fn integers_past_2_pow_53_keep_their_exact_order_against_doubles() {
        // Through an `as f64` cast 2^53 + 1 ties the double 2^53 while it
        // does not tie the integer 2^53: "value, then lexical" cycles here.
        assert_strictly_ascending(&[
            Literal::typed("09007199254740992.0", xsd::double()).into(),
            Literal::typed("9007199254740992", xsd::integer()).into(),
            Literal::typed("+9007199254740993", xsd::integer()).into(),
        ]);
    }

    #[test]
    fn value_classes_and_their_edges_fall_where_documented() {
        let double = |s: &str| Term::from(Literal::typed(s, xsd::double()));
        assert_strictly_ascending(&[
            BlankNode::numbered(1).into(),
            Iri::new("http://a.example/z").unwrap().into(),
            double("-INF"),
            Literal::integer(i64::MIN).into(),
            // Value-equal forms order by lexical form, `-0.0` = `0.0`.
            double("-0.0"),
            Literal::integer(0).into(),
            double("0.0"),
            Literal::typed("00", xsd::integer()).into(),
            Literal::integer(i64::MAX).into(),
            double("INF"),
            double("NaN"),
            Literal::boolean(false).into(),
            Literal::boolean(true).into(),
            // One instant under two offsets: lexical form decides.
            Literal::typed("1970-01-01T00:00:00Z", xsd::date_time()).into(),
            Literal::typed("1970-01-01T01:00:00+01:00", xsd::date_time()).into(),
            Literal::date_time_from_unix(1).into(),
            // Text: plain, tagged and ill-typed literals by lexical form,
            // then datatype IRI (`rdf:langString` < `xsd:*`), then language.
            Literal::string("5").into(),
            Literal::lang_string("abc", "en").into(),
            Literal::lang_string("abc", "fr").into(),
            Literal::typed("abc", xsd::integer()).into(),
            Literal::string("abd").into(),
        ]);
    }

    #[test]
    fn borrowed_constructors_agree_with_the_owned_ones() {
        for text in [
            "http://example.org/x",
            "urn:uuid:1",
            "",
            "no-scheme",
            ":x",
            "1a:x",
            "http://a b",
        ] {
            assert_eq!(Iri::parse(text), Iri::new(text), "{text:?}");
        }
        for label in ["b1", "", "with space", "ünï", "a.b-c_d"] {
            assert_eq!(BlankNode::from_label(label), BlankNode::new(label));
        }
        assert_eq!(
            Literal::new_tagged("x", "EN-gb"),
            Literal::lang_string("x", "en-GB")
        );
        assert_eq!(Literal::new_simple("x"), Literal::string("x"));
        assert_eq!(
            Literal::new_typed("5", xsd::integer()),
            Literal::typed("5", xsd::integer())
        );
    }

    /// [`invalid_iri`] as it stood before it read bytes, one `char` at a
    /// time: the reference the byte-table validator must agree with.
    fn invalid_iri_by_char(text: &str) -> Option<&'static str> {
        let Some(colon) = text.find(':') else {
            return Some(match text.is_empty() {
                true => "empty string",
                false => "missing scheme (IRI must be absolute)",
            });
        };
        if colon == 0 {
            return Some("empty scheme");
        }
        let scheme = &text[..colon];
        if !scheme.starts_with(|c: char| c.is_ascii_alphabetic())
            || !scheme
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '+' || c == '-' || c == '.')
        {
            return Some("scheme must be alphanumeric and start with a letter");
        }
        let forbidden = |c: char| {
            c.is_whitespace() || matches!(c, '<' | '>' | '"' | '{' | '}' | '|' | '^' | '`' | '\\')
        };
        text.contains(forbidden)
            .then_some("contains a character not allowed in IRIREF")
    }

    /// [`BlankNode::from_label`]'s sanitizing as it stood before it read
    /// bytes: the reference for the label it keeps.
    fn label_by_char(label: &str) -> String {
        let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.');
        match label.is_empty() {
            true => "b0".into(),
            false => label
                .chars()
                .map(|c| if allowed(c) { c } else { '_' })
                .collect(),
        }
    }

    #[test]
    fn the_byte_validators_agree_with_the_char_ones_on_every_scalar_value() {
        let places: [(&str, &str); 5] = [
            ("http://e.org/a", "b"),
            ("h", ":x"),
            ("", ""),
            ("x:", ""),
            ("", ":y"),
        ];
        let mut text = String::new();
        let mut cases = 0;
        for c in (0..=char::MAX as u32).filter_map(char::from_u32) {
            for (before, after) in places {
                text.clear();
                text.push_str(before);
                text.push(c);
                text.push_str(after);
                let verdict = invalid_iri(&text);
                assert_eq!(verdict, invalid_iri_by_char(&text), "{text:?}");
                // As a reader of `<…>` meets it: the same verdict, read once.
                let whole = text.len();
                text.push_str("> .");
                let end = text.find('>').expect("a '>' was pushed");
                let verdict = match end == whole {
                    true => verdict,
                    false => invalid_iri(&text[..end]),
                };
                let (iri, len) = Iri::parse_until_gt(&text).expect("a '>' was pushed");
                assert_eq!(
                    (iri.err().map(|e| e.reason()), len),
                    (verdict, end),
                    "{text:?}"
                );
                cases += 1;
            }
            text.clear();
            text.push_str("a.");
            text.push(c);
            text.push('z');
            assert_eq!(BlankNode::from_label(&text).label(), label_by_char(&text));
        }
        assert_eq!(cases, 5 * 1_112_064);
        // A forbidden character on either side of the first non-ASCII one.
        for text in [
            "http://é.org/a b",
            "http://é.org/a\u{a0}b",
            "http://é.org/a\u{3000}",
            "http://e.org/<é",
            "http://e.org/é>",
            "urn:ü:\u{85}",
            "é:x",
            "h\u{2003}:x",
        ] {
            assert_eq!(invalid_iri(text), invalid_iri_by_char(text), "{text:?}");
            assert!(Iri::parse(text).is_err(), "{text:?}");
        }
        assert_eq!(invalid_iri("http://é.org/ü"), None);
        assert_eq!(Iri::parse_until_gt("http://e.org/a b"), None);
        assert_eq!(Iri::parse_until_gt("http://é.org/a b"), None);
        for label in ["", "b1", "ünï", "a\u{a0}b", "x.y-z_0", "😀"] {
            assert_eq!(BlankNode::from_label(label).label(), label_by_char(label));
        }
    }

    #[test]
    fn iri_clone_is_shallow() {
        let i = Iri::new("http://example.org/shared").unwrap();
        let j = i.clone();
        assert_eq!(i.as_str().as_ptr(), j.as_str().as_ptr());
    }
}
