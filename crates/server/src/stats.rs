//! Server telemetry: request counters and per-route latency histograms,
//! backed by a per-instance [`Registry`].
//!
//! Every figure lives in exactly one place — a counter or histogram handle
//! registered in the server's own registry — and is rendered two ways: the
//! back-compatible `/stats` JSON document, and the Prometheus text
//! exposition served on `/metrics` (which appends the process-wide
//! [`Registry::global`] families: plan cache, optimizer, WAL/checkpoint,
//! scheduler). The registry is per-instance rather than global because
//! parallel tests boot several servers in one process; instance families
//! use the `hbold_http_*` namespace, disjoint from the global one, so the
//! concatenated exposition never repeats a family.
//!
//! The hot path stays lock-free: handles are `Arc`s over atomics, and the
//! registry lock is only taken at registration and render time.

use std::time::Instant;

use hbold_telemetry::json::JsonValue;
use hbold_telemetry::{Counter, Histogram, Registry};

/// Counters for one route.
#[derive(Debug, Clone)]
pub struct RouteStats {
    /// Request latency distribution, in microseconds.
    pub latency: Histogram,
}

/// Aggregate server telemetry, shared across workers.
#[derive(Debug)]
pub struct ServerStats {
    started: Instant,
    registry: Registry,
    /// Accepted TCP connections.
    pub connections_accepted: Counter,
    /// Total requests parsed (any route).
    pub requests_total: Counter,
    /// Responses by status class: index 0 → 1xx ... index 4 → 5xx.
    responses_by_class: [Counter; 5],
    /// Requests rejected before routing (malformed HTTP).
    pub malformed_requests: Counter,
    /// `/sparql` query route.
    pub sparql: RouteStats,
    /// `/update` SPARQL Update route.
    pub update: RouteStats,
    /// Every other served route (`/stats`, `/health`, ...).
    pub other: RouteStats,
    /// Update requests that committed (2xx).
    pub update_ok: Counter,
    /// Update requests rejected (parse or evaluation failure).
    pub update_error: Counter,
    /// Individual update operations committed (one request may carry a
    /// `;`-separated sequence; each operation is one WAL record).
    pub update_ops: Counter,
    /// Quads actually removed by update operations.
    pub update_quads_removed: Counter,
    /// Quads actually inserted by update operations.
    pub update_quads_inserted: Counter,
    /// Queries cancelled because their deadline (`--query-timeout-ms`)
    /// expired mid-evaluation → 504.
    pub query_timeouts: Counter,
    /// Queries cancelled for any other reason (graceful shutdown) → 503.
    pub query_cancelled: Counter,
    /// Requests refused by query-level admission control (the in-flight
    /// query limit, distinct from the connection-queue shed) → 503.
    pub admission_rejected: Counter,
    /// Slow clients reaped mid-request by the read timeout → 408.
    pub request_timeouts: Counter,
}

impl Default for ServerStats {
    fn default() -> Self {
        // The engine's process-global families register lazily on first use;
        // touch them now so a scrape of a freshly booted server that has not
        // served a query (or written to a WAL) already exposes every family
        // at zero instead of omitting it.
        let _ = hbold_sparql::plan::stats();
        let _ = hbold_sparql::plan_stats();
        hbold_triple_store::persist::register_metrics();
        let registry = Registry::new();
        let class_counter = |class: &str| {
            registry.counter(
                "hbold_http_responses_total",
                "HTTP responses by status class.",
                &[("class", class)],
            )
        };
        let route_hist = |route: &str| RouteStats {
            latency: registry.histogram(
                "hbold_http_request_duration_us",
                "Request service time in microseconds, by route.",
                &[("route", route)],
            ),
        };
        ServerStats {
            started: Instant::now(),
            connections_accepted: registry.counter(
                "hbold_http_connections_accepted_total",
                "TCP connections accepted.",
                &[],
            ),
            requests_total: registry.counter(
                "hbold_http_requests_total",
                "HTTP requests parsed, any route.",
                &[],
            ),
            responses_by_class: [
                class_counter("1xx"),
                class_counter("2xx"),
                class_counter("3xx"),
                class_counter("4xx"),
                class_counter("5xx"),
            ],
            malformed_requests: registry.counter(
                "hbold_http_malformed_requests_total",
                "Requests rejected before routing (malformed HTTP).",
                &[],
            ),
            sparql: route_hist("/sparql"),
            update: route_hist("/update"),
            other: route_hist("other"),
            update_ok: registry.counter(
                "hbold_update_requests_total",
                "SPARQL Update requests by result.",
                &[("result", "ok")],
            ),
            update_error: registry.counter(
                "hbold_update_requests_total",
                "SPARQL Update requests by result.",
                &[("result", "error")],
            ),
            update_ops: registry.counter(
                "hbold_update_ops_total",
                "Update operations committed (one WAL record each).",
                &[],
            ),
            update_quads_removed: registry.counter(
                "hbold_update_quads_removed_total",
                "Quads removed by update operations.",
                &[],
            ),
            update_quads_inserted: registry.counter(
                "hbold_update_quads_inserted_total",
                "Quads inserted by update operations.",
                &[],
            ),
            query_timeouts: registry.counter(
                "hbold_query_timeouts_total",
                "Queries cancelled by an expired deadline (504).",
                &[],
            ),
            query_cancelled: registry.counter(
                "hbold_query_cancelled_total",
                "Queries cancelled by shutdown or explicit cancel (503).",
                &[],
            ),
            admission_rejected: registry.counter(
                "hbold_admission_rejected_total",
                "Requests refused by the in-flight query limit (503).",
                &[],
            ),
            request_timeouts: registry.counter(
                "hbold_http_request_timeouts_total",
                "Slow clients reaped mid-request by the read timeout (408).",
                &[],
            ),
            registry,
        }
    }
}

impl ServerStats {
    /// The server instance's own metric registry. The `/metrics` handler
    /// also uses this to refresh scrape-time gauges (store size, index
    /// tiers, WAL bytes) before rendering.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records a response's status code.
    pub fn record_status(&self, status: u16) {
        let class = (status / 100).clamp(1, 5) as usize - 1;
        self.responses_by_class[class].inc();
    }

    /// Responses in the 2xx class so far.
    pub fn ok_responses(&self) -> u64 {
        self.responses_by_class[1].get()
    }

    /// Renders this instance's families followed by the process-wide ones
    /// as one Prometheus text exposition document.
    pub fn render_metrics(&self) -> String {
        let mut out = self.registry.render();
        out.push_str(&Registry::global().render());
        out
    }

    /// Renders the `/stats` JSON document.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    /// The `/stats` document as a tree its caller may add sections to:
    /// this instance's counters, and the process-wide plan cache and
    /// cost-based-optimizer counters from the SPARQL engine.
    pub fn to_value(&self) -> JsonValue {
        let plan = hbold_sparql::plan::stats();
        let optimizer = hbold_sparql::plan_stats();
        let classes = self.responses_by_class.iter().enumerate();
        JsonValue::object([
            (
                "uptime_ms",
                (self.started.elapsed().as_millis() as u64).into(),
            ),
            (
                "connections_accepted",
                self.connections_accepted.get().into(),
            ),
            ("requests_total", self.requests_total.get().into()),
            ("malformed_requests", self.malformed_requests.get().into()),
            (
                "responses",
                JsonValue::object(classes.map(|(i, c)| (format!("{}xx", i + 1), c.get().into()))),
            ),
            (
                "routes",
                JsonValue::object([
                    ("/sparql", hist_value(&self.sparql.latency)),
                    ("/update", hist_value(&self.update.latency)),
                    ("other", hist_value(&self.other.latency)),
                ]),
            ),
            (
                "updates",
                JsonValue::object([
                    ("requests_ok", self.update_ok.get().into()),
                    ("requests_error", self.update_error.get().into()),
                    ("ops", self.update_ops.get().into()),
                    ("quads_removed", self.update_quads_removed.get().into()),
                    ("quads_inserted", self.update_quads_inserted.get().into()),
                ]),
            ),
            (
                "armor",
                JsonValue::object([
                    ("query_timeouts", self.query_timeouts.get().into()),
                    ("query_cancelled", self.query_cancelled.get().into()),
                    ("admission_rejected", self.admission_rejected.get().into()),
                    ("request_timeouts", self.request_timeouts.get().into()),
                ]),
            ),
            (
                "plan_cache",
                JsonValue::object([
                    ("hits", plan.hits.into()),
                    ("misses", plan.misses.into()),
                    ("entries", plan.entries.into()),
                    // Four decimals, as the share always printed.
                    ("hit_rate", ((plan.hit_rate() * 1e4).round() / 1e4).into()),
                ]),
            ),
            (
                "optimizer",
                JsonValue::object([
                    ("bgps_planned", optimizer.bgps_planned.into()),
                    ("bgps_reordered", optimizer.bgps_reordered.into()),
                    ("filters_pushed", optimizer.filters_pushed.into()),
                ]),
            ),
        ])
    }
}

/// The `/stats` rendering of one latency histogram (microseconds).
fn hist_value(h: &Histogram) -> JsonValue {
    JsonValue::object([
        ("count", h.count().into()),
        ("mean_us", h.mean().into()),
        ("p50_us", h.quantile(0.50).into()),
        ("p95_us", h.quantile(0.95).into()),
        ("p99_us", h.quantile(0.99).into()),
        ("max_us", h.max().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_is_parseable() {
        let stats = ServerStats::default();
        stats.connections_accepted.add(3);
        stats.requests_total.add(5);
        stats.record_status(200);
        stats.record_status(200);
        stats.record_status(404);
        stats.sparql.latency.record(250);
        let json = stats.to_json();
        let doc = hbold_sparql::json::JsonValue::parse(&json).expect("stats JSON parses");
        assert_eq!(doc.get("connections_accepted").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            doc.get("responses").unwrap().get("2xx").unwrap().as_f64(),
            Some(2.0)
        );
        assert_eq!(
            doc.get("responses").unwrap().get("4xx").unwrap().as_f64(),
            Some(1.0)
        );
        assert!(doc.get("plan_cache").unwrap().get("hits").is_some());
        let updates = doc.get("updates").unwrap();
        for key in [
            "requests_ok",
            "requests_error",
            "ops",
            "quads_removed",
            "quads_inserted",
        ] {
            assert!(updates.get(key).is_some(), "updates JSON carries {key}");
        }
        let optimizer = doc.get("optimizer").unwrap();
        for key in ["bgps_planned", "bgps_reordered", "filters_pushed"] {
            assert!(optimizer.get(key).is_some(), "optimizer JSON carries {key}");
        }
        assert_eq!(stats.ok_responses(), 2);
    }

    #[test]
    fn armor_counters_flow_into_stats_and_metrics() {
        let stats = ServerStats::default();
        stats.query_timeouts.inc();
        stats.query_timeouts.inc();
        stats.admission_rejected.inc();
        let doc = hbold_sparql::json::JsonValue::parse(&stats.to_json()).unwrap();
        let armor = doc.get("armor").expect("armor section");
        assert_eq!(armor.get("query_timeouts").unwrap().as_f64(), Some(2.0));
        assert_eq!(armor.get("query_cancelled").unwrap().as_f64(), Some(0.0));
        assert_eq!(armor.get("admission_rejected").unwrap().as_f64(), Some(1.0));
        assert_eq!(armor.get("request_timeouts").unwrap().as_f64(), Some(0.0));
        // Registered eagerly: a fresh scrape exposes every family at zero or
        // its true value, never omits one.
        let expo =
            hbold_telemetry::expo::parse_exposition(&stats.render_metrics()).expect("exposition");
        assert_eq!(expo.value("hbold_query_timeouts_total", &[]), Some(2.0));
        assert_eq!(expo.value("hbold_query_cancelled_total", &[]), Some(0.0));
        assert_eq!(expo.value("hbold_admission_rejected_total", &[]), Some(1.0));
        assert_eq!(
            expo.value("hbold_http_request_timeouts_total", &[]),
            Some(0.0)
        );
    }

    #[test]
    fn stats_and_metrics_read_the_same_handles() {
        let stats = ServerStats::default();
        stats.requests_total.add(7);
        stats.record_status(200);
        stats.sparql.latency.record(100);
        stats.other.latency.record(3);
        let json = stats.to_json();
        let doc = hbold_sparql::json::JsonValue::parse(&json).unwrap();
        let text = stats.render_metrics();
        let expo = hbold_telemetry::expo::parse_exposition(&text).expect("valid exposition");
        assert!(expo.validate().is_empty(), "{:?}", expo.validate());
        assert_eq!(
            expo.value("hbold_http_requests_total", &[]),
            doc.get("requests_total").unwrap().as_f64()
        );
        assert_eq!(
            expo.value("hbold_http_responses_total", &[("class", "2xx")]),
            Some(1.0)
        );
        assert_eq!(
            expo.value(
                "hbold_http_request_duration_us_count",
                &[("route", "/sparql")]
            ),
            Some(1.0)
        );
        // The global engine families ride along in the same document.
        assert!(text.contains("# TYPE hbold_plan_cache_hits_total counter"));
        // Update families are registered eagerly, so a scrape of a server
        // that has never served an update still exposes them at zero.
        assert_eq!(
            expo.value("hbold_update_requests_total", &[("result", "ok")]),
            Some(0.0)
        );
        assert_eq!(expo.value("hbold_update_ops_total", &[]), Some(0.0));
        assert_eq!(
            expo.value("hbold_update_quads_removed_total", &[]),
            Some(0.0)
        );
        assert_eq!(
            expo.value("hbold_update_quads_inserted_total", &[]),
            Some(0.0)
        );
    }

    #[test]
    fn two_instances_do_not_share_counters() {
        let a = ServerStats::default();
        let b = ServerStats::default();
        a.requests_total.add(5);
        assert_eq!(b.requests_total.get(), 0);
    }
}
