//! The simulated SPARQL endpoint.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hbold_rdf_model::Graph;
use hbold_sparql::ast::{Expression, Projection, ProjectionItem, Query, QueryForm};
use hbold_sparql::{parse_traced, EvalHooks, QueryResults};
use hbold_telemetry::Span;
use hbold_triple_store::{SharedStore, TripleStore};
use parking_lot::Mutex;

use crate::error::EndpointError;
use crate::http_client::HttpSparqlClient;
use crate::profile::EndpointProfile;

/// The outcome of a successful query: the results plus the simulated cost.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The query results.
    pub results: QueryResults,
    /// Simulated round-trip latency for this query.
    pub simulated_latency: Duration,
}

/// A SPARQL endpoint the rest of the system queries.
///
/// Two backends hide behind one interface, so the crawler, the extraction
/// pipeline and the fleet never know (or care) where answers come from:
///
/// * **local** — an in-process stand-in over a [`SharedStore`], with a
///   behavioural [`EndpointProfile`] simulating a remote implementation's
///   quirks and latency;
/// * **remote** — a live HTTP SPARQL Protocol server (e.g. `hbold_server`
///   on a loopback port, or any other conforming endpoint), reached through
///   [`HttpSparqlClient`] with *measured* round-trip latency.
///
/// The endpoint also carries a notion of "current virtual day" used by its
/// availability model. Cloning an endpoint produces another handle to the
/// same underlying state.
#[derive(Debug, Clone)]
pub struct SparqlEndpoint {
    url: String,
    name: String,
    backend: Backend,
    profile: EndpointProfile,
    state: Arc<Mutex<EndpointState>>,
}

/// Where queries are answered.
#[derive(Debug, Clone)]
enum Backend {
    /// In-process evaluation over a lock-free store snapshot.
    Local(SharedStore),
    /// A live HTTP server across a socket.
    Http(HttpSparqlClient),
}

#[derive(Debug, Default)]
struct EndpointState {
    /// Current virtual day (advanced by the scheduler simulation).
    current_day: u64,
    /// Total number of queries received (including failed ones).
    queries_received: u64,
}

impl SparqlEndpoint {
    /// Creates an endpoint serving `graph` under the given URL.
    pub fn new(url: impl Into<String>, graph: &Graph, profile: EndpointProfile) -> Self {
        SparqlEndpoint::from_store(url, TripleStore::from_graph(graph), profile)
    }

    /// Creates an endpoint from an already-built store.
    pub fn from_store(
        url: impl Into<String>,
        store: TripleStore,
        profile: EndpointProfile,
    ) -> Self {
        let url = url.into();
        let name = url
            .trim_end_matches('/')
            .rsplit('/')
            .nth(1)
            .unwrap_or("endpoint")
            .to_string();
        SparqlEndpoint {
            url,
            name,
            backend: Backend::Local(SharedStore::from_store(store)),
            profile,
            state: Arc::new(Mutex::new(EndpointState::default())),
        }
    }

    /// Creates an endpoint backed by a live HTTP SPARQL Protocol server at
    /// `url` — this is the paper's actual remote-endpoint scenario.
    ///
    /// The profile defaults to [`EndpointProfile::full_featured`] (a remote
    /// server enforces its own limits; the simulated quirks stay out of the
    /// way), and latency is measured, not simulated. Use
    /// [`SparqlEndpoint::remote_with_profile`] to layer client-side
    /// capability checks on top of a real server.
    pub fn remote(url: impl Into<String>) -> Self {
        let url = url.into();
        SparqlEndpoint::remote_with_profile(
            HttpSparqlClient::new(url),
            EndpointProfile::full_featured(),
        )
    }

    /// Creates a remote endpoint from a configured client and profile.
    pub fn remote_with_profile(client: HttpSparqlClient, profile: EndpointProfile) -> Self {
        let url = client.url().to_string();
        let name = url
            .trim_end_matches('/')
            .rsplit('/')
            .nth(1)
            .unwrap_or("endpoint")
            .to_string();
        SparqlEndpoint {
            url,
            name,
            backend: Backend::Http(client),
            profile,
            state: Arc::new(Mutex::new(EndpointState::default())),
        }
    }

    /// Returns `self` unchanged: the query engine has no options. Kept only
    /// for the frozen `benchmark/` crate, which calls it.
    pub fn with_eval_options(self, _options: hbold_sparql::EvalOptions) -> Self {
        self
    }

    /// The endpoint URL (its identity throughout the system).
    pub fn url(&self) -> &str {
        &self.url
    }

    /// A short human-readable name derived from the URL.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The behavioural profile.
    pub fn profile(&self) -> &EndpointProfile {
        &self.profile
    }

    /// Returns `true` when this endpoint answers over a real socket.
    pub fn is_remote(&self) -> bool {
        matches!(self.backend, Backend::Http(_))
    }

    /// The number of triples served. Local endpoints read the store; remote
    /// endpoints ask the server with a `COUNT(*)` query (0 if unreachable).
    pub fn triple_count(&self) -> usize {
        match &self.backend {
            Backend::Local(store) => store.len(),
            Backend::Http(client) => client
                .query("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }")
                .ok()
                .and_then(|r| r.into_select())
                .and_then(|rows| rows.value(0, "n").and_then(|t| t.label().parse().ok()))
                .unwrap_or(0),
        }
    }

    /// Shared access to the underlying store (used by tests and generators;
    /// the H-BOLD pipeline itself only talks SPARQL). `None` for remote
    /// endpoints — their store lives on the other side of a socket.
    pub fn store(&self) -> Option<&SharedStore> {
        match &self.backend {
            Backend::Local(store) => Some(store),
            Backend::Http(_) => None,
        }
    }

    /// Total number of queries this endpoint has received.
    pub fn queries_received(&self) -> u64 {
        self.state.lock().queries_received
    }

    /// Sets the current virtual day (used by the refresh scheduler).
    pub fn set_day(&self, day: u64) {
        self.state.lock().current_day = day;
    }

    /// The current virtual day.
    pub fn current_day(&self) -> u64 {
        self.state.lock().current_day
    }

    /// Returns `true` if the endpoint is reachable today.
    pub fn is_available(&self) -> bool {
        let day = self.current_day();
        self.profile.availability.is_available(day)
    }

    /// Executes a SPARQL query, honouring the endpoint profile.
    pub fn query(&self, query_text: &str) -> Result<QueryOutcome, EndpointError> {
        self.query_with_trace(query_text, None)
    }

    /// Executes a SPARQL query like [`SparqlEndpoint::query`], additionally
    /// recording an execution trace: returns the outcome together with the
    /// root span of a tree covering parse → plan → execute, with one span
    /// per streaming operator (rows produced, cumulative wall time, join
    /// order and cardinality estimates). Render it with `Span::to_json`.
    ///
    /// Only local backends can trace (the operators run in this process);
    /// a remote endpoint returns [`EndpointError::QueryRejected`].
    pub fn trace_query(&self, query_text: &str) -> Result<(QueryOutcome, Span), EndpointError> {
        if self.is_remote() {
            return Err(EndpointError::QueryRejected(
                "query tracing requires a local endpoint (the remote server owns its operators)"
                    .into(),
            ));
        }
        let root = Span::root("query");
        root.set_attr("query", query_text);
        let outcome = root.timed(|| self.query_with_trace(query_text, Some(&root)))?;
        Ok((outcome, root))
    }

    fn query_with_trace(
        &self,
        query_text: &str,
        trace: Option<&Span>,
    ) -> Result<QueryOutcome, EndpointError> {
        {
            let mut state = self.state.lock();
            state.queries_received += 1;
        }
        if !self.is_available() {
            return Err(EndpointError::Unavailable);
        }
        // Plan-cached parse: the extraction pipeline re-issues the same
        // statistics query shapes against every endpoint. Remote queries are
        // parsed too, so capability checks (and parse errors) are settled
        // before anything crosses the wire.
        let parsed = parse_traced(query_text, trace)?;
        self.check_capabilities(&parsed)?;

        let (results, latency) = match &self.backend {
            Backend::Local(store) => {
                // Evaluate against a lock-free snapshot: concurrent writers
                // (and other queries) never block this query, and it never
                // observes a half-applied bulk-load.
                let snapshot = store.snapshot();
                let hooks = EvalHooks {
                    trace,
                    ..EvalHooks::default()
                };
                let results = hbold_sparql::evaluate_with_hooks(&snapshot, &parsed, &hooks)?;
                (results, None)
            }
            Backend::Http(client) => {
                let started = Instant::now();
                let results = client.query(query_text)?;
                (results, Some(started.elapsed()))
            }
        };

        let rows = match &results {
            QueryResults::Select(s) => s.len(),
            QueryResults::Ask(_) => 1,
        };
        if let Some(root) = trace {
            root.add_rows(rows as u64);
        }
        if let Some(limit) = self.profile.max_result_rows {
            if rows > limit {
                return Err(EndpointError::ResultLimitExceeded { limit });
            }
        }
        // Local backends simulate their profile's latency; remote backends
        // report the measured round trip.
        let simulated_latency =
            latency.unwrap_or_else(|| self.profile.latency.simulate(query_text, rows));
        if let Some(budget_ms) = self.profile.timeout_ms {
            if simulated_latency > Duration::from_millis(budget_ms) {
                return Err(EndpointError::Timeout { budget_ms });
            }
        }
        Ok(QueryOutcome {
            results,
            simulated_latency,
        })
    }

    /// Convenience wrapper returning only the SELECT rows.
    pub fn select(&self, query_text: &str) -> Result<hbold_sparql::SelectResults, EndpointError> {
        match self.query(query_text)?.results {
            QueryResults::Select(s) => Ok(s),
            QueryResults::Ask(_) => Err(EndpointError::QueryRejected(
                "expected a SELECT query".into(),
            )),
        }
    }

    fn check_capabilities(&self, query: &Query) -> Result<(), EndpointError> {
        let uses_aggregates = query.uses_aggregates() || !query.group_by.is_empty();
        if uses_aggregates && !self.profile.supports_aggregates {
            return Err(EndpointError::QueryRejected(
                "this endpoint implementation does not support aggregate queries".into(),
            ));
        }
        if uses_aggregates
            && !self.profile.supports_count_distinct
            && query_uses_count_distinct(query)
        {
            return Err(EndpointError::QueryRejected(
                "this endpoint implementation does not support COUNT(DISTINCT ...)".into(),
            ));
        }
        Ok(())
    }
}

fn query_uses_count_distinct(query: &Query) -> bool {
    let QueryForm::Select {
        projection: Projection::Items(items),
        ..
    } = &query.form
    else {
        return false;
    };
    items.iter().any(|item| match item {
        ProjectionItem::Expression { expr, .. } => expression_uses_count_distinct(expr),
        ProjectionItem::Variable(_) => false,
    })
}

fn expression_uses_count_distinct(expr: &Expression) -> bool {
    match expr {
        Expression::Aggregate { distinct, .. } => *distinct,
        Expression::And(a, b) | Expression::Or(a, b) => {
            expression_uses_count_distinct(a) || expression_uses_count_distinct(b)
        }
        Expression::Not(e) => expression_uses_count_distinct(e),
        Expression::Comparison { left, right, .. } => {
            expression_uses_count_distinct(left) || expression_uses_count_distinct(right)
        }
        Expression::Function { args, .. } => args.iter().any(expression_uses_count_distinct),
        Expression::Variable(_) | Expression::Constant(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::availability::AvailabilityModel;
    use hbold_rdf_model::vocab::{foaf, rdf};
    use hbold_rdf_model::{Iri, Triple};

    fn sample_graph(people: usize) -> Graph {
        let mut g = Graph::new();
        for i in 0..people {
            let s = Iri::new(format!("http://example.org/person/{i}")).unwrap();
            g.insert(Triple::new(s.clone(), rdf::type_(), foaf::person()));
            g.insert(Triple::new(
                s,
                foaf::name(),
                hbold_rdf_model::Literal::string(format!("Person {i}")),
            ));
        }
        g
    }

    #[test]
    fn answers_select_queries() {
        let ep = SparqlEndpoint::new(
            "http://example.org/sparql",
            &sample_graph(5),
            EndpointProfile::full_featured(),
        );
        let out = ep
            .select("SELECT (COUNT(?s) AS ?n) WHERE { ?s a <http://xmlns.com/foaf/0.1/Person> }")
            .unwrap();
        assert_eq!(out.value(0, "n").unwrap().label(), "5");
        assert_eq!(ep.queries_received(), 1);
        assert_eq!(ep.triple_count(), 10);
        assert_eq!(ep.name(), "example.org");
    }

    #[test]
    fn unavailable_endpoints_refuse_queries() {
        let ep = SparqlEndpoint::new(
            "http://down.example.org/sparql",
            &sample_graph(1),
            EndpointProfile::full_featured().with_availability(AvailabilityModel::always_down()),
        );
        assert!(!ep.is_available());
        assert_eq!(
            ep.query("ASK { ?s ?p ?o }"),
            Err(EndpointError::Unavailable)
        );
        // Queries are still counted (the client did attempt one).
        assert_eq!(ep.queries_received(), 1);
    }

    #[test]
    fn no_aggregate_endpoints_reject_group_by() {
        let ep = SparqlEndpoint::new(
            "http://weak.example.org/sparql",
            &sample_graph(3),
            EndpointProfile::no_aggregates(),
        );
        let err = ep
            .query("SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c")
            .unwrap_err();
        assert!(matches!(err, EndpointError::QueryRejected(_)));
        assert!(!err.is_transient());
        // Plain selects still work.
        assert!(ep.query("SELECT ?s WHERE { ?s a ?c }").is_ok());
    }

    #[test]
    fn count_distinct_capability_is_separate() {
        let ep = SparqlEndpoint::new(
            "http://capped.example.org/sparql",
            &sample_graph(3),
            EndpointProfile::result_capped(10_000),
        );
        assert!(ep
            .query("SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }")
            .is_ok());
        assert!(matches!(
            ep.query("SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o }"),
            Err(EndpointError::QueryRejected(_))
        ));
    }

    #[test]
    fn result_limits_are_enforced() {
        let ep = SparqlEndpoint::new(
            "http://tiny.example.org/sparql",
            &sample_graph(100),
            EndpointProfile::result_capped(50),
        );
        let err = ep.query("SELECT ?s ?p ?o WHERE { ?s ?p ?o }").unwrap_err();
        assert_eq!(err, EndpointError::ResultLimitExceeded { limit: 50 });
        // A LIMIT below the cap goes through.
        assert!(ep
            .query("SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 50")
            .is_ok());
    }

    #[test]
    fn timeouts_depend_on_latency_budget() {
        let mut profile = EndpointProfile::full_featured().with_latency(crate::LatencyModel {
            base_us: 2_000_000,
            per_row_us: 0,
            jitter_us: 0,
        });
        profile.timeout_ms = Some(1_000);
        let ep = SparqlEndpoint::new("http://slow.example.org/sparql", &sample_graph(2), profile);
        assert!(matches!(
            ep.query("SELECT ?s WHERE { ?s ?p ?o }"),
            Err(EndpointError::Timeout { .. })
        ));
    }

    #[test]
    fn malformed_queries_are_sparql_errors() {
        let ep = SparqlEndpoint::new(
            "http://example.org/sparql",
            &sample_graph(1),
            EndpointProfile::full_featured(),
        );
        assert!(matches!(
            ep.query("SELEKT ?s WHERE { ?s ?p ?o }"),
            Err(EndpointError::Sparql(_))
        ));
        assert!(matches!(
            ep.select("ASK { ?s ?p ?o }"),
            Err(EndpointError::QueryRejected(_))
        ));
    }

    #[test]
    fn plan_cache_counters_are_visible_through_the_endpoint() {
        let ep = SparqlEndpoint::new(
            "http://cache.example.org/sparql",
            &sample_graph(3),
            EndpointProfile::full_featured(),
        );
        // Each trace's `parse` span says whether its lookup hit the
        // process-wide plan cache. A query text no other test issues keeps
        // the sequence exact with the cache shared in parallel.
        let q = "SELECT ?endpoint_cache_probe WHERE { ?endpoint_cache_probe a ?c }";
        let cache_hit = |ep: &SparqlEndpoint| {
            let (_, trace) = ep.trace_query(q).unwrap();
            let parse = trace.children()[0].clone();
            assert_eq!(parse.name(), "parse");
            parse.attr("cache_hit").unwrap().as_u64().unwrap()
        };
        assert_eq!(cache_hit(&ep), 0, "first parse misses");
        for _ in 0..3 {
            assert_eq!(cache_hit(&ep), 1, "re-issues hit the cache");
        }
        // Untraced queries read the same cache.
        ep.query(q).unwrap();
        assert_eq!(cache_hit(&ep.clone()), 1);
    }

    #[test]
    fn optimizer_counters_are_visible_through_the_endpoint() {
        let ep = SparqlEndpoint::new(
            "http://optimizer.example.org/sparql",
            &sample_graph(4),
            EndpointProfile::full_featured(),
        );
        // The `plan` span carries this evaluation's decisions alone,
        // whatever other tests plan in parallel.
        let plan = |q: &str| {
            let (_, trace) = ep.trace_query(q).unwrap();
            let plan = trace.children()[1].clone();
            assert_eq!(plan.name(), "plan");
            let attr = |key| plan.attr(key).unwrap().as_u64().unwrap();
            (attr("bgps"), attr("pushed_filters"))
        };
        assert_eq!(
            plan(
                "SELECT ?s WHERE { ?s a <http://xmlns.com/foaf/0.1/Person> . \
                  ?s <http://xmlns.com/foaf/0.1/name> ?n }"
            ),
            (1, 0)
        );
        assert_eq!(
            plan(
                "SELECT ?s WHERE { ?s a ?c . ?s <http://xmlns.com/foaf/0.1/name> ?n \
                  FILTER(?c = <http://xmlns.com/foaf/0.1/Person>) }"
            ),
            (1, 1)
        );
    }

    #[test]
    fn trace_query_returns_a_span_tree() {
        let ep = SparqlEndpoint::new(
            "http://trace.example.org/sparql",
            &sample_graph(4),
            EndpointProfile::full_featured(),
        );
        let q = "SELECT ?s ?n WHERE { ?s a <http://xmlns.com/foaf/0.1/Person> . \
                 ?s <http://xmlns.com/foaf/0.1/name> ?n }";
        let (outcome, trace) = ep.trace_query(q).unwrap();
        assert_eq!(outcome.results.clone().into_select().unwrap().len(), 4);
        assert_eq!(trace.name(), "query");
        assert_eq!(trace.rows(), 4);
        assert_eq!(trace.attr("query").unwrap().as_str(), Some(q));
        let children = trace.children();
        let names: Vec<&str> = children.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["parse", "plan", "execute"]);
        // The root's time covers its phases.
        assert!(trace.elapsed_ns() >= children.iter().map(Span::elapsed_ns).sum::<u64>());
        assert!(trace.elapsed_ns() > 0);
        // The plan span counts the one BGP it planned.
        assert_eq!(children[1].attr("bgps").unwrap().as_u64(), Some(1));
        // The rendered document is self-describing JSON.
        let json = trace.to_json();
        assert!(json.starts_with("{\"name\":\"query\""));
        assert!(json.contains("\"name\":\"execute\""));
        assert!(json.contains("\"estimate\""));

        // Remote endpoints cannot trace.
        let remote = SparqlEndpoint::remote("http://127.0.0.1:1/sparql");
        assert!(matches!(
            remote.trace_query("ASK { ?s ?p ?o }"),
            Err(EndpointError::QueryRejected(_))
        ));
    }

    #[test]
    fn remote_endpoints_report_unavailable_when_nothing_listens() {
        // Port 1 on loopback is never served.
        let ep = SparqlEndpoint::remote("http://127.0.0.1:1/sparql");
        assert!(ep.is_remote());
        assert!(ep.store().is_none());
        assert_eq!(ep.name(), "127.0.0.1:1");
        let err = ep.query("ASK { ?s ?p ?o }").unwrap_err();
        assert_eq!(err, EndpointError::Unavailable);
        assert!(err.is_transient());
        assert_eq!(ep.triple_count(), 0);
        // Malformed queries fail at the local parse, before any socket work.
        assert!(matches!(
            ep.query("SELEKT nope"),
            Err(EndpointError::Sparql(_))
        ));
    }

    #[test]
    fn virtual_day_controls_availability() {
        let profile =
            EndpointProfile::full_featured().with_availability(AvailabilityModel::flaky(0.5, 11));
        let ep = SparqlEndpoint::new("http://flaky.example.org/sparql", &sample_graph(1), profile);
        let availability: Vec<bool> = (0..40)
            .map(|day| {
                ep.set_day(day);
                ep.is_available()
            })
            .collect();
        assert!(availability.iter().any(|&a| a));
        assert!(availability.iter().any(|&a| !a));
    }
}
