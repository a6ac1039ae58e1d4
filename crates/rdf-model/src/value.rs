//! Typed views of literal lexical forms.
//!
//! SPARQL filters, `ORDER BY` and aggregation need to treat `"5"^^xsd:integer`
//! as the number five, not as the string `"5"`. [`LiteralValue`] is the small
//! value model used for that purpose by `hbold-sparql` and by the statistics
//! code in `hbold-schema`.

use std::cmp::Ordering;

use crate::term::Iri;
use crate::vocab::xsd;

/// The interpreted value of a literal.
#[derive(Debug, Clone, PartialEq)]
pub enum LiteralValue {
    /// An integer (`xsd:integer`, `xsd:int`, `xsd:long`, ...).
    Integer(i64),
    /// A floating point number (`xsd:double`, `xsd:float`, `xsd:decimal`).
    Double(f64),
    /// A boolean (`xsd:boolean`).
    Boolean(bool),
    /// A dateTime, normalized to seconds since the Unix epoch (UTC).
    DateTime(i64),
    /// Anything else (including ill-formed numeric literals), kept as text.
    Text(String),
}

impl LiteralValue {
    /// Parses a lexical form according to its datatype IRI.
    ///
    /// Ill-formed values never fail: they degrade to [`LiteralValue::Text`],
    /// mirroring SPARQL's behaviour of treating ill-typed literals as plain
    /// terms rather than erroring out the whole query.
    pub fn parse(lexical: &str, datatype: &Iri) -> LiteralValue {
        parse_typed(lexical, datatype).unwrap_or_else(|| LiteralValue::Text(lexical.to_string()))
    }

    /// Returns the value as an `f64` if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            LiteralValue::Integer(v) => Some(*v as f64),
            LiteralValue::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the value as an `i64` if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            LiteralValue::Integer(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns `true` when the value is numeric (integer or double).
    pub fn is_numeric(&self) -> bool {
        matches!(self, LiteralValue::Integer(_) | LiteralValue::Double(_))
    }

    /// The SPARQL *effective boolean value* of this value, if defined.
    ///
    /// Numbers are true when non-zero, strings when non-empty, booleans are
    /// themselves; dateTimes have no effective boolean value.
    pub fn effective_boolean(&self) -> Option<bool> {
        match self {
            LiteralValue::Boolean(b) => Some(*b),
            LiteralValue::Integer(v) => Some(*v != 0),
            LiteralValue::Double(v) => Some(*v != 0.0 && !v.is_nan()),
            LiteralValue::Text(s) => Some(!s.is_empty()),
            LiteralValue::DateTime(_) => None,
        }
    }
}

impl PartialOrd for LiteralValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        use LiteralValue::*;
        match (self, other) {
            (Integer(a), Integer(b)) => a.partial_cmp(b),
            (Double(a), Double(b)) => a.partial_cmp(b),
            (Integer(a), Double(b)) => (*a as f64).partial_cmp(b),
            (Double(a), Integer(b)) => a.partial_cmp(&(*b as f64)),
            (Boolean(a), Boolean(b)) => a.partial_cmp(b),
            (DateTime(a), DateTime(b)) => a.partial_cmp(b),
            (Text(a), Text(b)) => a.partial_cmp(b),
            _ => None,
        }
    }
}

/// The typed (non-[`LiteralValue::Text`]) reading of a lexical form, `None`
/// when the datatype has none or the form is ill-typed. Allocates nothing.
fn parse_typed(lexical: &str, datatype: &Iri) -> Option<LiteralValue> {
    let lexical = lexical.trim();
    if crate::vocab::is_integer_datatype(datatype) {
        lexical.parse().ok().map(LiteralValue::Integer)
    } else if crate::vocab::is_floating_datatype(datatype) {
        lexical.parse().ok().map(LiteralValue::Double)
    } else if datatype.as_str() == xsd::text::boolean {
        match lexical {
            "true" | "1" => Some(LiteralValue::Boolean(true)),
            "false" | "0" => Some(LiteralValue::Boolean(false)),
            _ => None,
        }
    } else if matches!(datatype.as_str(), xsd::text::date_time | xsd::text::date) {
        parse_iso8601(lexical).map(LiteralValue::DateTime)
    } else {
        None
    }
}

/// The value part of a literal's key in the term order (see
/// [`crate::OrderKey`]): the variants are the value classes in their order,
/// the payload orders within a class. It is a function of *one* literal and
/// its `Ord` is derived, so the order is total by construction — nothing is
/// decided by comparing two parsed values pairwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ValueKey {
    /// Any number but `NaN`, `-INF` and `INF` included, as `(hi, lo)`: `hi`
    /// is the value rounded to the nearest `f64` (order-preserving bits,
    /// `-0.0` as `0.0`), `lo` what that rounding took off an integer (0 for
    /// the floating types). Rounding is monotone, so `hi` decides unless it
    /// ties, and then the values differ by exactly `lo` — integers beyond
    /// 2^53 keep their exact order among themselves and against doubles.
    Number(i64, i64),
    /// `NaN`: after every number.
    NaN,
    /// `false` before `true`.
    Boolean(bool),
    /// Seconds since the epoch, so equal instants tie whatever their offset.
    DateTime(i64),
    /// Strings, language-tagged strings, unknown datatypes and ill-typed
    /// literals of the known ones: ordered by what follows the key.
    Text,
}

impl ValueKey {
    /// The key of the literal with this lexical form and datatype.
    pub fn of(lexical: &str, datatype: &Iri) -> ValueKey {
        // A non-NaN f64 as an i64 of the same order (`f64::total_cmp`'s map).
        fn ordered(v: f64) -> i64 {
            let bits = (v + 0.0).to_bits() as i64;
            bits ^ (((bits >> 63) as u64) >> 1) as i64
        }
        match parse_typed(lexical, datatype) {
            Some(LiteralValue::Integer(v)) => {
                let hi = v as f64;
                ValueKey::Number(ordered(hi), (v as i128 - hi as i128) as i64)
            }
            Some(LiteralValue::Double(v)) if v.is_nan() => ValueKey::NaN,
            Some(LiteralValue::Double(v)) => ValueKey::Number(ordered(v), 0),
            Some(LiteralValue::Boolean(b)) => ValueKey::Boolean(b),
            Some(LiteralValue::DateTime(t)) => ValueKey::DateTime(t),
            Some(LiteralValue::Text(_)) | None => ValueKey::Text,
        }
    }
}

/// Parses a (UTC) ISO 8601 `xsd:dateTime` or `xsd:date` into seconds since the
/// Unix epoch. Time-zone offsets other than `Z` are accepted and applied.
pub fn parse_iso8601(s: &str) -> Option<i64> {
    let bytes = s.as_bytes();
    if bytes.len() < 10 {
        return None;
    }
    let year: i64 = s.get(0..4)?.parse().ok()?;
    if bytes[4] != b'-' || bytes[7] != b'-' {
        return None;
    }
    let month: u32 = s.get(5..7)?.parse().ok()?;
    let day: u32 = s.get(8..10)?.parse().ok()?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    let mut secs = days_from_civil(year, month, day) * 86_400;
    let rest = &s[10..];
    if rest.is_empty() {
        return Some(secs);
    }
    if !rest.starts_with('T') || rest.len() < 9 {
        return None;
    }
    let hour: i64 = rest.get(1..3)?.parse().ok()?;
    let minute: i64 = rest.get(4..6)?.parse().ok()?;
    let second: i64 = rest.get(7..9)?.parse().ok()?;
    secs += hour * 3600 + minute * 60 + second;
    let mut tail = &rest[9..];
    // Optional fractional seconds, ignored at second resolution.
    if tail.starts_with('.') {
        let digits = tail[1..].chars().take_while(|c| c.is_ascii_digit()).count();
        tail = &tail[1 + digits..];
    }
    match tail {
        "" | "Z" => Some(secs),
        _ if tail.starts_with('+') || tail.starts_with('-') => {
            let sign = if tail.starts_with('-') { -1 } else { 1 };
            let oh: i64 = tail.get(1..3)?.parse().ok()?;
            let om: i64 = tail.get(4..6)?.parse().ok()?;
            Some(secs - sign * (oh * 3600 + om * 60))
        }
        _ => None,
    }
}

/// Days from 1970-01-01 to the given civil date (proleptic Gregorian).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = y.div_euclid(400);
    let yoe = y.rem_euclid(400);
    let mp = if m > 2 { m - 3 } else { m + 9 } as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::format_iso8601;

    #[test]
    fn parse_integer_and_double() {
        assert_eq!(
            LiteralValue::parse("42", &xsd::integer()),
            LiteralValue::Integer(42)
        );
        assert_eq!(
            LiteralValue::parse(" -7 ", &xsd::int()),
            LiteralValue::Integer(-7)
        );
        assert_eq!(
            LiteralValue::parse("2.5", &xsd::double()),
            LiteralValue::Double(2.5)
        );
        assert_eq!(
            LiteralValue::parse("1e3", &xsd::float()),
            LiteralValue::Double(1000.0)
        );
        // Ill-formed numeric falls back to text rather than erroring.
        assert_eq!(
            LiteralValue::parse("forty-two", &xsd::integer()),
            LiteralValue::Text("forty-two".into())
        );
    }

    #[test]
    fn parse_boolean() {
        assert_eq!(
            LiteralValue::parse("true", &xsd::boolean()),
            LiteralValue::Boolean(true)
        );
        assert_eq!(
            LiteralValue::parse("0", &xsd::boolean()),
            LiteralValue::Boolean(false)
        );
        assert_eq!(
            LiteralValue::parse("maybe", &xsd::boolean()),
            LiteralValue::Text("maybe".into())
        );
    }

    #[test]
    fn parse_datetime_round_trips_with_formatter() {
        for ts in [0i64, 86_399, 1_585_526_400, 1_700_000_000] {
            let text = format_iso8601(ts);
            assert_eq!(parse_iso8601(&text), Some(ts), "round-trip of {text}");
        }
    }

    #[test]
    fn parse_datetime_with_offsets() {
        assert_eq!(parse_iso8601("1970-01-01T01:00:00+01:00"), Some(0));
        assert_eq!(parse_iso8601("1969-12-31T23:00:00-01:00"), Some(0));
        assert_eq!(parse_iso8601("1970-01-01T00:00:00.123Z"), Some(0));
        assert_eq!(parse_iso8601("1970-01-01"), Some(0));
        assert_eq!(parse_iso8601("not a date"), None);
        assert_eq!(parse_iso8601("1970-13-01"), None);
    }

    #[test]
    fn mixed_numeric_comparison() {
        let a = LiteralValue::Integer(2);
        let b = LiteralValue::Double(2.5);
        assert_eq!(a.partial_cmp(&b), Some(Ordering::Less));
        let c = LiteralValue::Text("2".into());
        assert_eq!(a.partial_cmp(&c), None, "numbers and text are incomparable");
    }

    #[test]
    fn effective_boolean_values() {
        assert_eq!(LiteralValue::Integer(0).effective_boolean(), Some(false));
        assert_eq!(LiteralValue::Integer(3).effective_boolean(), Some(true));
        assert_eq!(
            LiteralValue::Text(String::new()).effective_boolean(),
            Some(false)
        );
        assert_eq!(
            LiteralValue::Text("x".into()).effective_boolean(),
            Some(true)
        );
        assert_eq!(
            LiteralValue::Double(f64::NAN).effective_boolean(),
            Some(false)
        );
        assert_eq!(LiteralValue::DateTime(0).effective_boolean(), None);
    }
}
