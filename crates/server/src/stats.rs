//! Server telemetry: request counters and per-route latency histograms,
//! backed by a per-instance [`Registry`].
//!
//! Every figure lives in exactly one place — a counter or histogram handle
//! registered in the server's own registry — and is read in one place: the
//! Prometheus text exposition served on `/metrics`, which appends the
//! process-wide [`Registry::global`] families (plan cache, optimizer,
//! WAL/checkpoint). One query's own figures are in its trace (`?trace=1`).
//! The registry is per-instance rather than global because
//! parallel tests boot several servers in one process; instance families
//! use the `hbold_http_*` namespace, disjoint from the global one, so the
//! concatenated exposition never repeats a family.
//!
//! The hot path stays lock-free: handles are `Arc`s over atomics, and the
//! registry lock is only taken at registration and render time.

use hbold_telemetry::{Counter, Histogram, Registry};

/// Counters for one route.
#[derive(Debug, Clone)]
pub struct RouteStats {
    /// Request latency distribution, in microseconds.
    pub latency: Histogram,
}

/// Aggregate server telemetry, shared across connection threads.
#[derive(Debug)]
pub struct ServerStats {
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
    /// Every other served route (`/metrics`, `/health`, ...).
    pub other: RouteStats,
    /// Update requests that committed (2xx).
    pub update_ok: Counter,
    /// Update requests rejected (parse, evaluation or log failure).
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
    /// query limit, distinct from the connection shed) → 503.
    pub admission_rejected: Counter,
    /// Slow clients reaped mid-request by the read timeout → 408.
    pub request_timeouts: Counter,
    /// Requests whose handler panicked → 500; the connection closes and the
    /// server keeps serving.
    pub worker_panics: Counter,
}

impl Default for ServerStats {
    fn default() -> Self {
        // The engine's process-global families register lazily on first use;
        // touch them now so a scrape of a freshly booted server that has not
        // served a query (or written to a WAL) already exposes every family
        // at zero instead of omitting it.
        hbold_sparql::register_metrics();
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
            worker_panics: registry.counter(
                "hbold_worker_panics_total",
                "Requests whose handler panicked (500); the server kept serving.",
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armor_counters_flow_into_stats_and_metrics() {
        let stats = ServerStats::default();
        stats.query_timeouts.inc();
        stats.query_timeouts.inc();
        stats.admission_rejected.inc();
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
        stats.connections_accepted.add(3);
        stats.requests_total.add(7);
        stats.record_status(200);
        stats.record_status(200);
        stats.record_status(404);
        stats.sparql.latency.record(100);
        stats.other.latency.record(3);
        let text = stats.render_metrics();
        let expo = hbold_telemetry::expo::parse_exposition(&text).expect("valid exposition");
        assert!(expo.validate().is_empty(), "{:?}", expo.validate());
        let value = |name, labels: &[(&str, &str)]| expo.value(name, labels);
        assert_eq!(
            value("hbold_http_connections_accepted_total", &[]),
            Some(stats.connections_accepted.get() as f64)
        );
        assert_eq!(
            value("hbold_http_requests_total", &[]),
            Some(stats.requests_total.get() as f64)
        );
        assert_eq!(stats.ok_responses(), 2);
        assert_eq!(
            value("hbold_http_responses_total", &[("class", "2xx")]),
            Some(2.0)
        );
        assert_eq!(
            value("hbold_http_responses_total", &[("class", "4xx")]),
            Some(1.0)
        );
        assert_eq!(
            value(
                "hbold_http_request_duration_us_count",
                &[("route", "/sparql")]
            ),
            Some(stats.sparql.latency.count() as f64)
        );
        assert_eq!(
            value("hbold_http_request_duration_us_sum", &[("route", "other")]),
            Some(3.0)
        );
        // The global engine families ride along in the same document.
        for family in [
            "hbold_plan_cache_hits_total",
            "hbold_plan_cache_misses_total",
            "hbold_optimizer_bgps_planned_total",
            "hbold_optimizer_bgps_reordered_total",
            "hbold_optimizer_filters_pushed_total",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} counter")),
                "{family}"
            );
        }
        // Update families are registered eagerly, so a scrape of a server
        // that has never served an update still exposes them at zero.
        assert_eq!(
            value("hbold_update_requests_total", &[("result", "ok")]),
            Some(0.0)
        );
        assert_eq!(value("hbold_update_ops_total", &[]), Some(0.0));
        assert_eq!(value("hbold_update_quads_removed_total", &[]), Some(0.0));
        assert_eq!(value("hbold_update_quads_inserted_total", &[]), Some(0.0));
    }

    #[test]
    fn two_instances_do_not_share_counters() {
        let a = ServerStats::default();
        let b = ServerStats::default();
        a.requests_total.add(5);
        assert_eq!(b.requests_total.get(), 0);
    }
}
