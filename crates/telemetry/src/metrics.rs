//! Metric families (counters, gauges, log2 histograms) behind a registry
//! that renders the Prometheus text exposition format.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones of
//! atomic cells; the registry's lock is only taken at registration and
//! render time, never on the record path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of power-of-two histogram buckets. Bucket `i` (for `i >= 1`)
/// holds values in `[2^(i-1), 2^i)`; bucket `BUCKETS - 1` saturates and
/// absorbs everything at or above `2^(BUCKETS-2)`. With microsecond
/// samples the top exact bucket is ~16.8 s.
pub const BUCKETS: usize = 26;

/// The three metric kinds the registry understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Value that can be set to arbitrary magnitudes (sizes, lags).
    Gauge,
    /// Log2-bucketed value distribution.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Handle to a monotonically increasing counter series.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Resets to zero. Benchmarks only: Prometheus counters are expected
    /// to be monotone, so production code must never call this.
    pub fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

/// Handle to a gauge series.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Lock-free log2 histogram over unitless `u64` samples.
///
/// The server's old `LatencyHistogram`, generalized: the same 26
/// power-of-two buckets plus count and sum, which is all the exposition
/// carries. Quantiles are the scraper's to read off the cumulative buckets
/// (accurate to a factor of two).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

#[derive(Debug, Default)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        let idx = (64 - u64::leading_zeros(value | 1) as usize).min(BUCKETS - 1);
        self.core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, exposed for the Prometheus renderer.
    fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(self.core.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }
}

#[derive(Debug, Clone)]
enum MetricValue {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Series keyed by their sorted label pairs.
    series: BTreeMap<Vec<(String, String)>, MetricValue>,
}

/// A set of metric families.
///
/// Use [`Registry::global`] for process-wide engine metrics and dedicated
/// instances for components that may be instantiated several times per
/// process (the HTTP server, for one — parallel tests boot several).
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// `true` when `name` is a valid Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `true` when `name` is a valid Prometheus label name:
/// `[a-zA-Z_][a-zA-Z0-9_]*` and not a reserved `__` name.
pub fn valid_label_name(name: &str) -> bool {
    if name.starts_with("__") {
        return false;
    }
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn escape_help(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn normalize_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

fn render_label_set(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{}=\"{}\"", k, escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry holding engine-level families (plan
    /// cache, optimizer, WAL/checkpoint, scheduler).
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
    ) -> MetricValue {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name {k:?} on {name}");
        }
        let key = normalize_labels(labels);
        let mut families = self.families.lock().expect("registry lock poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name} re-registered as {:?}, previously {:?}",
            kind,
            family.kind
        );
        family
            .series
            .entry(key)
            .or_insert_with(|| match kind {
                MetricKind::Counter => MetricValue::Counter(Counter::default()),
                MetricKind::Gauge => MetricValue::Gauge(Gauge::default()),
                MetricKind::Histogram => MetricValue::Histogram(Histogram::default()),
            })
            .clone()
    }

    /// Registers (idempotently) and returns a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, MetricKind::Counter, labels) {
            MetricValue::Counter(c) => c,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (idempotently) and returns a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, MetricKind::Gauge, labels) {
            MetricValue::Gauge(g) => g,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (idempotently) and returns a histogram series.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, help, MetricKind::Histogram, labels) {
            MetricValue::Histogram(h) => h,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Drops the series of family `name` whose sorted label pairs `keep`
    /// rejects — how a scrape-time gauge whose subject is gone leaves the
    /// exposition instead of repeating its last value for ever. A handle to
    /// a dropped series keeps working but is no longer rendered; registering
    /// the same labels again starts a fresh series.
    pub fn retain(&self, name: &str, keep: impl Fn(&[(String, String)]) -> bool) {
        let mut families = self.families.lock().expect("registry lock poisoned");
        if let Some(family) = families.get_mut(name) {
            family.series.retain(|labels, _| keep(labels));
        }
    }

    /// Renders every family in the Prometheus text exposition format
    /// (version 0.0.4). Families and series appear in sorted order so the
    /// output is deterministic.
    ///
    /// Histogram buckets are emitted with power-of-two `le` bounds; a
    /// sample exactly on a boundary lands in the next bucket (the bounds
    /// are exclusive), which is within the format's tolerance and the
    /// histogram's factor-of-two resolution.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let families = self.families.lock().expect("registry lock poisoned");
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {} {}", name, escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {} {}", name, family.kind.as_str());
            for (labels, value) in family.series.iter() {
                match value {
                    MetricValue::Counter(c) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            name,
                            render_label_set(labels, None),
                            c.get()
                        );
                    }
                    MetricValue::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            name,
                            render_label_set(labels, None),
                            g.get()
                        );
                    }
                    MetricValue::Histogram(h) => {
                        let counts = h.bucket_counts();
                        let mut cumulative = 0u64;
                        for (idx, bucket) in counts.iter().enumerate().take(BUCKETS - 1) {
                            cumulative += bucket;
                            let le = (1u64 << idx).to_string();
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                name,
                                render_label_set(labels, Some(("le", &le))),
                                cumulative
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            name,
                            render_label_set(labels, Some(("le", "+Inf"))),
                            h.count()
                        );
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            name,
                            render_label_set(labels, None),
                            h.sum()
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            name,
                            render_label_set(labels, None),
                            h.count()
                        );
                    }
                }
            }
        }
        out
    }
}

/// The `Content-Type` for the text exposition format.
pub const EXPOSITION_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_idempotently() {
        let reg = Registry::new();
        let a = reg.counter("t_total", "help", &[("route", "/x")]);
        let b = reg.counter("t_total", "help", &[("route", "/x")]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        let other = reg.counter("t_total", "help", &[("route", "/y")]);
        assert_eq!(other.get(), 0);
        let g = reg.gauge("t_size", "help", &[]);
        g.set(7);
        assert_eq!(reg.gauge("t_size", "help", &[]).get(), 7);
    }

    #[test]
    fn retain_drops_rejected_series_from_the_render() {
        let reg = Registry::new();
        reg.gauge("t_quads", "help", &[("graph", "a")]).set(2);
        reg.gauge("t_quads", "help", &[("graph", "b")]).set(3);
        reg.retain("t_quads", |labels| labels[0].1 == "b");
        reg.retain("t_absent", |_| false);
        let text = reg.render();
        assert!(!text.contains("t_quads{graph=\"a\"}"), "{text}");
        assert!(text.contains("t_quads{graph=\"b\"} 3\n"), "{text}");
        assert_eq!(reg.gauge("t_quads", "help", &[("graph", "a")]).get(), 0);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("t_total", "help", &[]);
        reg.gauge("t_total", "help", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        Registry::new().counter("1bad", "help", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid label name")]
    fn invalid_label_panics() {
        Registry::new().counter("ok_total", "help", &[("bad-label", "v")]);
    }

    #[test]
    fn name_and_label_validity() {
        assert!(valid_metric_name("hbold_requests_total"));
        assert!(valid_metric_name("ns:sub"));
        assert!(valid_metric_name("_x9"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("9x"));
        assert!(!valid_metric_name("has space"));
        assert!(valid_label_name("route"));
        assert!(!valid_label_name("le-le"));
        assert!(!valid_label_name("__reserved"));
        assert!(!valid_label_name("1route"));
    }

    #[test]
    fn histogram_matches_old_latency_histogram_semantics() {
        let h = Histogram::default();
        for us in [1u64, 2, 3, 100, 100, 100, 100, 100, 100, 8_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 8_606);
        // Bucket i holds [2^(i-1), 2^i): 1 | 2, 3 | 100 ×6 | 8 000.
        let counts = h.bucket_counts();
        assert_eq!((counts[1], counts[2], counts[7], counts[13]), (1, 2, 6, 1));
        assert_eq!(counts.iter().sum::<u64>(), 10);
        let saturated = Histogram::default();
        saturated.record(u64::MAX);
        assert_eq!(saturated.bucket_counts()[BUCKETS - 1], 1);
    }

    #[test]
    fn render_emits_help_type_and_escaped_labels() {
        let reg = Registry::new();
        reg.counter("t_total", "a \"quoted\"\nhelp", &[("q", "a\\b\"c\nd")])
            .add(2);
        let text = reg.render();
        assert!(text.contains("# HELP t_total a \"quoted\"\\nhelp\n"));
        assert!(text.contains("# TYPE t_total counter\n"));
        assert!(text.contains("t_total{q=\"a\\\\b\\\"c\\nd\"} 2\n"));
    }

    #[test]
    fn render_histogram_is_cumulative_with_inf() {
        let reg = Registry::new();
        let h = reg.histogram("t_us", "help", &[]);
        h.record(1);
        h.record(100);
        h.record(u64::MAX);
        let text = reg.render();
        assert!(text.contains("t_us_bucket{le=\"2\"} 1\n"));
        assert!(text.contains("t_us_bucket{le=\"128\"} 2\n"));
        assert!(text.contains("t_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("t_us_count 3\n"));
        assert!(text.contains(&format!("t_us_sum {}\n", 101u64.wrapping_add(u64::MAX))));
    }
}
