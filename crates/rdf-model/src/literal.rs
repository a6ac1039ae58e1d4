//! RDF literals: a lexical form plus a datatype IRI or a language tag.

use std::fmt;
use std::sync::Arc;

use crate::term::Iri;
use crate::value::{LiteralValue, ValueKey};
use crate::vocab::{rdf, xsd};

/// An RDF 1.1 literal.
///
/// Every literal has a *lexical form* (the text) and exactly one of:
/// * a datatype IRI (`"5"^^xsd:integer`),
/// * a language tag, in which case the datatype is `rdf:langString`
///   (`"ciao"@it`),
/// * neither, in which case the datatype is `xsd:string` (a *simple literal*).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Literal {
    lexical: Arc<str>,
    datatype: Iri,
    language: Option<Arc<str>>,
}

impl Literal {
    /// A simple string literal (`xsd:string`).
    pub fn string(value: impl Into<String>) -> Self {
        Literal::new_simple(&value.into())
    }

    /// A language-tagged string. The tag is lower-cased per BCP 47 matching
    /// conventions so `"x"@EN` and `"x"@en` compare equal.
    pub fn lang_string(value: impl Into<String>, lang: impl Into<String>) -> Self {
        Literal::new_tagged(&value.into(), &lang.into())
    }

    /// A literal with an explicit datatype.
    pub fn typed(value: impl Into<String>, datatype: Iri) -> Self {
        Literal::new_typed(&value.into(), datatype)
    }

    /// [`Literal::string`] over a borrowed lexical form, which it copies
    /// exactly once, straight into the shared buffer. The `new_*`
    /// constructors are what decoders call: their text is a slice of the
    /// document.
    pub fn new_simple(lexical: &str) -> Self {
        Literal {
            lexical: Arc::from(lexical),
            datatype: xsd::string(),
            language: None,
        }
    }

    /// [`Literal::lang_string`] over borrowed text: the lexical form is
    /// copied once, and so is the tag — lower-cased on the way only when it
    /// is not already.
    pub fn new_tagged(lexical: &str, lang: &str) -> Self {
        let language = match lang.bytes().any(|b| b.is_ascii_uppercase()) {
            true => Arc::from(lang.to_ascii_lowercase()),
            false => Arc::from(lang),
        };
        Literal {
            lexical: Arc::from(lexical),
            datatype: rdf::lang_string(),
            language: Some(language),
        }
    }

    /// [`Literal::typed`] over a borrowed lexical form, copied once.
    pub fn new_typed(lexical: &str, datatype: Iri) -> Self {
        Literal {
            lexical: Arc::from(lexical),
            datatype,
            language: None,
        }
    }

    /// An `xsd:integer` literal.
    pub fn integer(value: i64) -> Self {
        Literal::typed(value.to_string(), xsd::integer())
    }

    /// An `xsd:double` literal.
    pub fn double(value: f64) -> Self {
        Literal::typed(format!("{value:?}"), xsd::double())
    }

    /// An `xsd:decimal` literal.
    pub fn decimal(value: f64) -> Self {
        Literal::typed(format!("{value}"), xsd::decimal())
    }

    /// An `xsd:boolean` literal.
    pub fn boolean(value: bool) -> Self {
        Literal::typed(if value { "true" } else { "false" }, xsd::boolean())
    }

    /// An `xsd:dateTime` literal from seconds since the Unix epoch (UTC).
    ///
    /// H-BOLD stores "last index extraction" timestamps; a second-resolution
    /// ISO 8601 rendering is all the system needs.
    pub fn date_time_from_unix(seconds: i64) -> Self {
        Literal::typed(format_iso8601(seconds), xsd::date_time())
    }

    /// The lexical form (the raw text of the literal).
    pub fn lexical_form(&self) -> &str {
        &self.lexical
    }

    /// The datatype IRI. Language-tagged strings report `rdf:langString`.
    pub fn datatype(&self) -> &Iri {
        &self.datatype
    }

    /// The language tag, if any (always lower-case).
    pub fn language(&self) -> Option<&str> {
        self.language.as_deref()
    }

    /// Returns `true` if the datatype is one of the XSD numeric types.
    pub fn is_numeric(&self) -> bool {
        crate::vocab::is_numeric_datatype(&self.datatype)
    }

    /// Interprets the literal as a typed [`LiteralValue`] for use in SPARQL
    /// filters and aggregate arithmetic. Ill-formed lexical forms fall back
    /// to [`LiteralValue::Text`]. Ordering does not go through this: see
    /// `Ord for Literal`.
    pub fn value(&self) -> LiteralValue {
        LiteralValue::parse(self.lexical_form(), &self.datatype)
    }

    /// Formats the literal in N-Triples syntax, escaping the lexical form.
    pub fn to_ntriples(&self) -> String {
        let escaped = escape_literal(self.lexical_form());
        if let Some(lang) = self.language() {
            format!("\"{escaped}\"@{lang}")
        } else if self.datatype.as_str() == xsd::text::string {
            format!("\"{escaped}\"")
        } else {
            format!("\"{escaped}\"^^{}", self.datatype.to_ntriples())
        }
    }

    /// The literal's fields of [`crate::term::OrderKey::Literal`].
    pub(crate) fn order_key(&self) -> (ValueKey, &str, &str, Option<&str>) {
        (
            ValueKey::of(&self.lexical, &self.datatype),
            &self.lexical,
            self.datatype.as_str(),
            self.language.as_deref(),
        )
    }
}

impl PartialOrd for Literal {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Literal {
    /// The literal part of the term order (see [`crate::Term`]): value
    /// class and value, then lexical form, datatype, language. Every
    /// component is read off one literal, so the order is total, and it
    /// ends in the three fields `Eq` compares, so `Equal` means `==`.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order_key().cmp(&other.order_key())
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_ntriples())
    }
}

/// Escapes a literal lexical form for N-Triples output.
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out
}

/// Renders `seconds` since the Unix epoch as an ISO 8601 `xsd:dateTime`
/// string in UTC, e.g. `2020-03-30T12:00:00Z`.
///
/// Implemented locally (proleptic Gregorian, civil-from-days algorithm) so the
/// model crate stays dependency-free.
pub fn format_iso8601(seconds: i64) -> String {
    let days = seconds.div_euclid(86_400);
    let secs_of_day = seconds.rem_euclid(86_400);
    let (year, month, day) = civil_from_days(days);
    let hour = secs_of_day / 3600;
    let minute = (secs_of_day % 3600) / 60;
    let second = secs_of_day % 60;
    format!("{year:04}-{month:02}-{day:02}T{hour:02}:{minute:02}:{second:02}Z")
}

/// Converts days since 1970-01-01 to a (year, month, day) civil date.
/// Algorithm from Howard Hinnant's `civil_from_days`.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_literal_defaults_to_xsd_string() {
        let l = Literal::string("hello");
        assert_eq!(l.lexical_form(), "hello");
        assert_eq!(l.datatype(), &xsd::string());
        assert_eq!(l.language(), None);
        assert_eq!(l.to_ntriples(), "\"hello\"");
    }

    #[test]
    fn lang_string_lowercases_tag() {
        let l = Literal::lang_string("ciao", "IT");
        assert_eq!(l.language(), Some("it"));
        assert_eq!(l.datatype(), &rdf::lang_string());
        assert_eq!(l.to_ntriples(), "\"ciao\"@it");
        assert_eq!(Literal::lang_string("ciao", "it"), l);
    }

    #[test]
    fn typed_literals_render_with_datatype() {
        let l = Literal::integer(42);
        assert_eq!(
            l.to_ntriples(),
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
        assert!(l.is_numeric());
        let b = Literal::boolean(true);
        assert_eq!(b.lexical_form(), "true");
        assert!(!b.is_numeric());
    }

    #[test]
    fn escaping_round_trip_characters() {
        let l = Literal::string("line1\nline2\t\"quoted\"\\slash");
        let nt = l.to_ntriples();
        assert!(nt.contains("\\n"));
        assert!(nt.contains("\\t"));
        assert!(nt.contains("\\\""));
        assert!(nt.contains("\\\\"));
        assert!(!nt.contains('\n'));
    }

    #[test]
    fn numeric_ordering_is_by_value() {
        let two = Literal::integer(2);
        let ten = Literal::integer(10);
        assert!(two < ten, "2 must sort before 10 numerically");
        let a = Literal::string("abc");
        let b = Literal::string("abd");
        assert!(a < b);
    }

    #[test]
    fn iso8601_formatting() {
        assert_eq!(format_iso8601(0), "1970-01-01T00:00:00Z");
        assert_eq!(format_iso8601(86_400), "1970-01-02T00:00:00Z");
        // 2020-03-30T00:00:00Z (EDBT 2020 workshop date) = 1585526400.
        assert_eq!(format_iso8601(1_585_526_400), "2020-03-30T00:00:00Z");
        // Negative values (before the epoch) still format sanely.
        assert_eq!(format_iso8601(-86_400), "1969-12-31T00:00:00Z");
    }

    #[test]
    fn date_time_literal_has_xsd_datetime_type() {
        let l = Literal::date_time_from_unix(1_585_526_400);
        assert_eq!(l.datatype(), &xsd::date_time());
        assert!(l.lexical_form().starts_with("2020-03-30"));
    }
}
