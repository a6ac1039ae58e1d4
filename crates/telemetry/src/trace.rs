//! Per-query execution traces: a shareable span tree with atomic row and
//! time accumulators, rendered as an `EXPLAIN ANALYZE`-style JSON document.
//!
//! A [`Span`] is a cheap `Arc` clone, so an operator pipeline can hold a
//! handle to its node and bump counters without locks on the hot fields
//! (`rows`, `elapsed_ns` are atomics; attributes and children take a
//! mutex, but those are touched at construction time, not per row).
//! Tracing is strictly opt-in: when no span is supplied, nothing here is
//! even allocated.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::JsonValue;

/// An attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
    /// Homogeneous or mixed list.
    List(Vec<AttrValue>),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> AttrValue {
        AttrValue::U64(v as u64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> AttrValue {
        AttrValue::F64(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}

impl From<Vec<u64>> for AttrValue {
    fn from(v: Vec<u64>) -> AttrValue {
        AttrValue::List(v.into_iter().map(AttrValue::U64).collect())
    }
}

impl AttrValue {
    /// The value as a u64, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            AttrValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(v) => Some(v),
            _ => None,
        }
    }

    fn to_value(&self) -> JsonValue {
        match self {
            AttrValue::U64(v) => JsonValue::from(*v),
            AttrValue::F64(v) => JsonValue::from(*v),
            AttrValue::Str(v) => JsonValue::from(v.as_str()),
            AttrValue::List(items) => {
                JsonValue::Array(items.iter().map(AttrValue::to_value).collect())
            }
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v}"),
            AttrValue::Str(v) => f.write_str(v),
            AttrValue::List(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{}{item}", if i > 0 { ", " } else { "" })?;
                }
                f.write_str("]")
            }
        }
    }
}

#[derive(Debug)]
struct SpanInner {
    name: String,
    rows: AtomicU64,
    elapsed_ns: AtomicU64,
    attrs: Mutex<Vec<(String, AttrValue)>>,
    children: Mutex<Vec<Span>>,
}

/// One node in a query's span tree. Clones share the node.
#[derive(Debug, Clone)]
pub struct Span {
    inner: Arc<SpanInner>,
}

impl Span {
    /// Creates a root span.
    pub fn root(name: &str) -> Span {
        Span {
            inner: Arc::new(SpanInner {
                name: name.to_string(),
                rows: AtomicU64::new(0),
                elapsed_ns: AtomicU64::new(0),
                attrs: Mutex::new(Vec::new()),
                children: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Creates a child span attached under this one, returning its handle.
    pub fn child(&self, name: &str) -> Span {
        let child = Span::root(name);
        self.inner
            .children
            .lock()
            .expect("span lock poisoned")
            .push(child.clone());
        child
    }

    /// The span's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Adds output rows.
    pub fn add_rows(&self, n: u64) {
        self.inner.rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Accumulated output rows.
    pub fn rows(&self) -> u64 {
        self.inner.rows.load(Ordering::Relaxed)
    }

    /// Adds elapsed wall time.
    pub fn add_elapsed_ns(&self, ns: u64) {
        self.inner.elapsed_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Accumulated elapsed wall time in nanoseconds.
    pub fn elapsed_ns(&self) -> u64 {
        self.inner.elapsed_ns.load(Ordering::Relaxed)
    }

    /// Replaces the elapsed wall time: for a span whose time is settled
    /// from others' once they are done.
    pub fn set_elapsed_ns(&self, ns: u64) {
        self.inner.elapsed_ns.store(ns, Ordering::Relaxed);
    }

    /// Sets (or replaces) an attribute.
    pub fn set_attr(&self, key: &str, value: impl Into<AttrValue>) {
        let value = value.into();
        let mut attrs = self.inner.attrs.lock().expect("span lock poisoned");
        if let Some(slot) = attrs.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            attrs.push((key.to_string(), value));
        }
    }

    /// Reads an attribute.
    pub fn attr(&self, key: &str) -> Option<AttrValue> {
        self.inner
            .attrs
            .lock()
            .expect("span lock poisoned")
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    }

    /// Snapshot of the child spans.
    pub fn children(&self) -> Vec<Span> {
        self.inner
            .children
            .lock()
            .expect("span lock poisoned")
            .clone()
    }

    /// Runs `f`, adding its wall time to this span.
    pub fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_elapsed_ns(start.elapsed().as_nanos() as u64);
        out
    }

    /// Writes the subtree's names and attributes — no timings, no row
    /// counts — one line per span, children indented under their parent.
    fn write_outline(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        write!(f, "{:width$}{}", "", self.inner.name, width = depth * 2)?;
        for (key, value) in self.inner.attrs.lock().expect("span lock poisoned").iter() {
            write!(f, " {key}={value}")?;
        }
        writeln!(f)?;
        self.children()
            .iter()
            .try_for_each(|child| child.write_outline(f, depth + 1))
    }

    /// Renders the subtree as JSON:
    /// `{"name":..,"elapsed_ns":..,"rows":..,"attrs":{..},"children":[..]}`.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    /// The subtree as a JSON tree, for embedding in a larger document.
    /// `attrs` and `children` are always present, even when empty, so
    /// consumers can walk the tree without per-key existence checks.
    pub fn to_value(&self) -> JsonValue {
        let attrs = self.inner.attrs.lock().expect("span lock poisoned").clone();
        let attrs = JsonValue::object(attrs.into_iter().map(|(k, v)| (k, v.to_value())));
        let children = self.children().iter().map(Span::to_value).collect();
        JsonValue::object([
            ("name", self.name().into()),
            ("elapsed_ns", self.elapsed_ns().into()),
            ("rows", self.rows().into()),
            ("attrs", attrs),
            ("children", JsonValue::Array(children)),
        ])
    }
}

/// The subtree as an outline: what ran (or would run) and with which
/// attributes, without the measurements [`Span::to_json`] carries.
impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_outline(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_and_render() {
        let root = Span::root("query");
        root.set_attr("id", "c1-r1");
        let scan = root.child("scan");
        scan.set_attr("estimate", 10u64);
        scan.add_rows(7);
        scan.add_elapsed_ns(1500);
        let join = root.child("join");
        join.set_attr("order", vec![2u64, 0, 1]);
        let json = root.to_json();
        assert!(json.starts_with("{\"name\":\"query\""));
        assert!(json.contains("\"attrs\":{\"id\":\"c1-r1\"}"));
        assert!(json.contains("\"name\":\"scan\",\"elapsed_ns\":1500,\"rows\":7"));
        assert!(json.contains("\"estimate\":10"));
        assert!(json.contains("\"order\":[2,0,1]"));
        assert_eq!(root.children().len(), 2);
        assert_eq!(scan.rows(), 7);
    }

    #[test]
    fn timed_accumulates_elapsed() {
        let span = Span::root("work");
        let out = span.timed(|| 42);
        assert_eq!(out, 42);
        // Wall clocks can be coarse, but the call itself must not lose the
        // accumulator (two timed calls never decrease it).
        let before = span.elapsed_ns();
        span.timed(|| std::hint::black_box((0..1000).sum::<u64>()));
        assert!(span.elapsed_ns() >= before);
    }

    #[test]
    fn attrs_replace_and_escape() {
        let span = Span::root("s");
        span.set_attr("q", "line1\nline2\t\"x\"");
        span.set_attr("q", "replaced");
        assert_eq!(span.attr("q").unwrap().as_str(), Some("replaced"));
        span.set_attr("q", "a\"b\\c\nd");
        let json = span.to_json();
        assert!(json.contains("\"q\":\"a\\\"b\\\\c\\nd\""));
    }
}
