//! The SPARQL Protocol server: a thread per connection over a [`SharedStore`].
//!
//! Each thread serves its connection (HTTP/1.1 keep-alive) and answers each
//! query from a lock-free store snapshot with a plan-cached parse. The query
//! census is the one limit on work: at most [`ServerConfig::workers`]
//! evaluations run at once. Shutdown is graceful: the census drains, then
//! idle reads are ended and every thread is joined.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hbold_sparql::ast::QueryForm;
use hbold_sparql::{
    evaluate_with_hooks, parse_traced, parse_update, plan_update_op_with, CancellationToken,
    EvalHooks, QueryResults, SparqlError,
};
use hbold_telemetry::json::JsonValue;
use hbold_telemetry::{Span, EXPOSITION_CONTENT_TYPE};
use hbold_triple_store::SharedStore;

use crate::http::{Connection, HttpRequest, HttpResponse, Limits};
use crate::stats::ServerStats;

/// How many requests one keep-alive connection may issue before the server
/// closes it.
const KEEP_ALIVE_MAX_REQUESTS: usize = 1000;

/// Server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick a free loopback port.
    pub addr: String,
    /// Queries and updates evaluating at once; more wait for a slot, and
    /// their deadlines start when they get one.
    pub workers: usize,
    /// Byte budgets for request heads and bodies.
    pub limits: Limits,
    /// Socket read timeout (also bounds idle keep-alive connections).
    pub read_timeout: Duration,
    /// Connections open beyond `workers` plus this count are shed with a
    /// 503 instead of getting a thread.
    pub max_pending_connections: usize,
    /// Whether `POST /shutdown` remotely stops the server (used by the CLI
    /// binary and CI smoke test; off by default).
    pub enable_shutdown_route: bool,
    /// When set, every `/sparql` query is traced and queries slower than
    /// this many milliseconds emit one JSON line to stderr (query text, join
    /// order, estimates vs actuals, per-operator timings, trace id).
    pub slow_query_ms: Option<u64>,
    /// Per-query evaluation deadline. The engine polls a cancellation token
    /// at operator batch boundaries, so an expired deadline surfaces as a
    /// typed `504` within one batch — never a truncated result. `None`
    /// (default) lets queries run unbounded.
    pub query_timeout: Option<Duration>,
    /// Query-level admission control: at most this many queries/updates
    /// admitted at once, counted from admission to their answer — those
    /// evaluating and those waiting for one of the `workers` slots. Excess
    /// requests get an immediate `503` with `Retry-After`. Distinct from
    /// [`ServerConfig::max_pending_connections`], which bounds open
    /// *connections*. `0` (default) means unlimited.
    pub max_inflight_queries: usize,
    /// Graceful-shutdown drain window: in-flight queries get this long to
    /// finish before the remainder are cancelled.
    pub shutdown_drain: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            limits: Limits::default(),
            read_timeout: Duration::from_secs(10),
            max_pending_connections: 1024,
            enable_shutdown_route: false,
            slow_query_ms: None,
            query_timeout: None,
            max_inflight_queries: 0,
            shutdown_drain: Duration::from_secs(5),
        }
    }
}

struct Shared {
    store: SharedStore,
    config: ServerConfig,
    stats: ServerStats,
    shutdown: AtomicBool,
    /// Monotonic connection ids; the `c<conn>` half of every trace id.
    next_conn_id: AtomicU64,
    addr: SocketAddr,
    /// The queries admitted and not yet answered.
    census: Mutex<Census>,
    /// Signalled whenever a query leaves the census.
    census_changed: Condvar,
    next_query_id: AtomicU64,
}

/// The admission-control census.
#[derive(Default)]
struct Census {
    /// Queries admitted and not yet answered, waiting for a slot or
    /// evaluating; [`ServerConfig::max_inflight_queries`] bounds it.
    admitted: usize,
    /// Cancellation tokens of the queries evaluating, keyed by a monotonic
    /// query id; [`ServerConfig::workers`] bounds it.
    evaluating: HashMap<u64, CancellationToken>,
}

impl Shared {
    fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // Wake the acceptor out of its blocking accept().
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Admission + registration for one query/update evaluation. `Err` is
    /// the ready-to-send 503 when the in-flight limit is reached; `Ok`, once
    /// fewer than `workers` evaluations run, is an RAII guard whose token
    /// the evaluation must poll and whose drop deregisters the query.
    fn begin_query(&self) -> Result<QueryGuard<'_>, HttpResponse> {
        let mut census = self.census.lock().expect("query census poisoned");
        let limit = self.config.max_inflight_queries;
        if limit != 0 && census.admitted >= limit {
            self.stats.admission_rejected.inc();
            return Err(HttpResponse::error(
                503,
                "Service Unavailable",
                format!("server is evaluating {limit} queries already, retry later"),
            )
            .with_header("Retry-After", "1"));
        }
        census.admitted += 1;
        while census.evaluating.len() >= self.config.workers.max(1) {
            census = self
                .census_changed
                .wait(census)
                .expect("query census poisoned");
        }
        // Made after the wait, which is not the query's time; cancelled in a
        // shutdown, so nothing starts that the drain's sweep could miss.
        let token = match self.config.query_timeout {
            Some(timeout) => CancellationToken::with_timeout(timeout),
            None => CancellationToken::new(),
        };
        if self.shutdown.load(Ordering::SeqCst) {
            token.cancel();
        }
        let id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        census.evaluating.insert(id, token.clone());
        Ok(QueryGuard {
            shared: self,
            id,
            token,
        })
    }
}

/// A registered, cancellable evaluation (see [`Shared::begin_query`]).
struct QueryGuard<'a> {
    shared: &'a Shared,
    id: u64,
    token: CancellationToken,
}

impl Drop for QueryGuard<'_> {
    fn drop(&mut self) {
        let mut census = self.shared.census.lock().expect("query census poisoned");
        census.evaluating.remove(&self.id);
        census.admitted -= 1;
        drop(census);
        self.shared.census_changed.notify_all();
    }
}

/// A connection's thread, and a clone of its socket to end an idle read.
type OpenConnection = (TcpStream, JoinHandle<()>);

/// A running server; dropping the handle shuts it down.
pub struct SparqlServer {
    shared: Arc<Shared>,
    /// Returns the connections still open once a shutdown is requested.
    acceptor: Option<JoinHandle<Vec<OpenConnection>>>,
}

impl SparqlServer {
    /// Binds and starts serving `store` according to `config`.
    pub fn start(store: SharedStore, config: ServerConfig) -> io::Result<SparqlServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            store,
            config,
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(1),
            addr,
            census: Mutex::default(),
            census_changed: Condvar::new(),
            next_query_id: AtomicU64::new(1),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        Ok(SparqlServer {
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The query endpoint URL.
    pub fn url(&self) -> String {
        format!("http://{}/sparql", self.shared.addr)
    }

    /// Live telemetry.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Whether a shutdown has been requested (via [`SparqlServer::shutdown`]
    /// or the `/shutdown` route).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown and joins every thread; requests being answered
    /// get their responses first.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Blocks until a shutdown is requested (e.g. through the `/shutdown`
    /// route), then drains and joins. Used by the `hbold-server` binary.
    pub fn wait(mut self) {
        self.join();
    }

    /// Joins the acceptor (it returns once a shutdown is requested), drains
    /// the census, then ends every open connection and joins its thread.
    fn join(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        let open = acceptor.join().unwrap_or_default();
        // Drain: give in-flight queries a bounded window to finish on their
        // own, then cancel whatever is left so the joins below cannot block
        // on a pathological join. Cancelled queries answer a typed 503 —
        // their connections still get a response, not a reset.
        let deadline = Instant::now() + self.shared.config.shutdown_drain;
        let mut census = self.shared.census.lock().expect("query census poisoned");
        while !census.evaluating.is_empty() && Instant::now() < deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            census = self
                .shared
                .census_changed
                .wait_timeout(census, left)
                .expect("query census poisoned")
                .0;
        }
        for token in census.evaluating.values() {
            token.cancel();
        }
        drop(census);
        // An idle read ends at once; a request being answered still has its
        // write half, and closes after its response.
        for (stream, _) in &open {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (_, thread) in open {
            let _ = thread.join();
        }
    }
}

impl Drop for SparqlServer {
    fn drop(&mut self) {
        self.shared.request_shutdown();
        self.join();
    }
}

/// Accepts connections until a shutdown is requested, and returns the ones
/// still open then.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) -> Vec<OpenConnection> {
    let mut open: Vec<OpenConnection> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wake-up self-connect (or a late client) during shutdown:
            // drop it unserved.
            return open;
        }
        let Ok((stream, _)) = accepted else {
            // Transient accept failure (e.g. EMFILE): back off briefly.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        shared.stats.connections_accepted.inc();
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
        // A peer that stops reading must not pin its thread in write_all
        // forever either.
        let _ = stream.set_write_timeout(Some(shared.config.read_timeout));
        let _ = stream.set_nodelay(true);
        open.retain(|(_, thread)| !thread.is_finished());
        if open.len() < shared.config.workers.max(1) + shared.config.max_pending_connections {
            if let Ok(clone) = stream.try_clone() {
                let shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .spawn(move || serve_connection(&shared, conn_id, Connection::new(clone)));
                if let Ok(thread) = spawned {
                    open.push((stream, thread));
                    continue;
                }
            }
        }
        // Backpressure: a connection flood must not grow the threads (and
        // the process's FD table) without bound. Shed the newest connection,
        // or one that gets no thread, with a best-effort 503 — on a short
        // write timeout, so a peer that never reads cannot stall the
        // acceptor.
        let started = Instant::now();
        shared.stats.record_status(503);
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        let _ = Connection::new(stream).write_response(
            &HttpResponse::error(
                503,
                "Service Unavailable",
                "too many open connections, retry later",
            )
            .with_header("Retry-After", "1")
            .with_close(),
            false,
        );
        // Every recorded status gets a latency sample, shed responses
        // included, so the `/metrics` counts line up.
        shared
            .stats
            .other
            .latency
            .record(started.elapsed().as_micros() as u64);
    }
}

fn serve_connection(shared: &Shared, conn_id: u64, mut conn: Connection) {
    for served in 0.. {
        let request = match conn.read_request(&shared.config.limits) {
            Ok(request) => request,
            Err(error) => {
                match error.status() {
                    Some((status, reason)) => {
                        let started = Instant::now();
                        // A reaped slow client sent a well-formed prefix —
                        // it is counted as a timeout, not as malformed.
                        if error == crate::http::RequestError::Timeout {
                            shared.stats.request_timeouts.inc();
                        } else {
                            shared.stats.malformed_requests.inc();
                        }
                        shared.stats.record_status(status);
                        let response =
                            HttpResponse::error(status, reason, error.detail()).with_close();
                        let written = conn.write_response(&response, false).is_ok();
                        // Malformed requests record a status, so they record
                        // a latency sample too — otherwise the histogram
                        // count drifts below the response count. Recorded
                        // before drain_before_close, whose FIN lets the peer
                        // observe the response (and assert on the sample)
                        // while the drain is still in flight.
                        shared
                            .stats
                            .other
                            .latency
                            .record(started.elapsed().as_micros() as u64);
                        if written {
                            conn.drain_before_close();
                        }
                    }
                    // Clean close, idle timeout or transport failure:
                    // nothing to say, nothing malformed to count.
                    None => {}
                }
                return;
            }
        };
        shared.stats.requests_total.inc();
        let trace_id = TraceId {
            conn_id,
            seq: served as u64,
        };

        let started = Instant::now();
        let mut response = answer_or_500(&shared.stats, || route(shared, &request, &trace_id));
        let elapsed_us = started.elapsed().as_micros() as u64;
        if request.path == "/sparql" {
            shared.stats.sparql.latency.record(elapsed_us);
        } else if request.path == "/update" {
            shared.stats.update.latency.record(elapsed_us);
        } else {
            shared.stats.other.latency.record(elapsed_us);
        }
        shared.stats.record_status(response.status);

        let closing = response.close
            || !request.wants_keep_alive()
            || served + 1 >= KEEP_ALIVE_MAX_REQUESTS
            || shared.shutdown.load(Ordering::SeqCst);
        response.close = closing;
        let head_only = request.method == "HEAD";
        // Chaos hook: with `drop_response=N` armed, 1-in-N responses are
        // torn mid-write and the connection closed — the client sees exactly
        // what a server crash mid-response produces.
        if let Some(faults) = hbold_triple_store::FaultInjector::active() {
            if !head_only && faults.drop_response() {
                let _ = conn.write_response_truncated(&response);
                return;
            }
        }
        if conn.write_response(&response, head_only).is_err() || closing {
            return;
        }
    }
}

/// Runs a request's handler; a panic ends this request, not the server. It
/// answers a 500 that closes the connection and counts in
/// `hbold_worker_panics_total`. The census slot comes back through
/// `QueryGuard`'s drop as the stack unwinds.
fn answer_or_500(stats: &ServerStats, handler: impl FnOnce() -> HttpResponse) -> HttpResponse {
    catch_unwind(AssertUnwindSafe(handler)).unwrap_or_else(|_| {
        stats.worker_panics.inc();
        HttpResponse::error(500, "Internal Server Error", "the request handler panicked")
            .with_close()
    })
}

/// A request's identity for tracing and the slow-query log: connection
/// number (process-wide, from the accept loop) and the request's sequence
/// number on that keep-alive connection. Renders as `c<conn>-r<seq>`.
#[derive(Debug, Clone, Copy)]
struct TraceId {
    conn_id: u64,
    seq: u64,
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}-r{}", self.conn_id, self.seq)
    }
}

/// The negotiated result serialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResultFormat {
    Json,
    Csv,
    Tsv,
}

impl ResultFormat {
    fn content_type(self) -> &'static str {
        match self {
            ResultFormat::Json => "application/sparql-results+json",
            ResultFormat::Csv => "text/csv; charset=utf-8",
            ResultFormat::Tsv => "text/tab-separated-values; charset=utf-8",
        }
    }
}

/// Picks the best supported format from an `Accept` header (RFC 9110 §12.5.1
/// with q-values; specificity beyond media ranges is ignored). `None` means
/// nothing acceptable → 406.
fn negotiate(accept: Option<&str>) -> Option<ResultFormat> {
    let Some(accept) = accept else {
        return Some(ResultFormat::Json);
    };
    let mut best: Option<(f64, ResultFormat)> = None;
    for item in accept.split(',') {
        let mut parts = item.split(';');
        let media = parts.next().unwrap_or("").trim().to_ascii_lowercase();
        let mut q = 1.0f64;
        for param in parts {
            if let Some((k, v)) = param.split_once('=') {
                if k.trim().eq_ignore_ascii_case("q") {
                    q = v.trim().parse().unwrap_or(0.0);
                }
            }
        }
        let format = match media.as_str() {
            "application/sparql-results+json" | "application/json" | "application/*" => {
                Some(ResultFormat::Json)
            }
            "text/csv" => Some(ResultFormat::Csv),
            "text/tab-separated-values" => Some(ResultFormat::Tsv),
            "text/*" => Some(ResultFormat::Csv),
            "*/*" => Some(ResultFormat::Json),
            _ => None,
        };
        if let Some(format) = format {
            if q > 0.0 && best.map_or(true, |(bq, _)| q > bq) {
                best = Some((q, format));
            }
        }
    }
    best.map(|(_, f)| f)
}

fn route(shared: &Shared, request: &HttpRequest, trace_id: &TraceId) -> HttpResponse {
    let trace_wanted = request.query_param("trace") == Some("1");
    match (request.method.as_str(), request.path.as_str()) {
        ("GET" | "HEAD", "/health") => HttpResponse::ok("text/plain; charset=utf-8", "ok\n"),
        ("GET", "/metrics") => metrics(shared),
        ("GET", "/sparql") => match request.query_param("query") {
            Some(query) => execute(shared, query.to_string(), request, trace_wanted, trace_id),
            None => HttpResponse::error(400, "Bad Request", "missing required \"query\" parameter"),
        },
        ("POST", path @ ("/sparql" | "/update")) => match decode_body(request, path == "/update") {
            Ok(Body::Query(query, form_trace)) => {
                execute(shared, query, request, trace_wanted || form_trace, trace_id)
            }
            Ok(Body::Update(update)) => execute_update_request(shared, &update),
            Err(refused) => refused,
        },
        (_, "/sparql") => HttpResponse::error(
            405,
            "Method Not Allowed",
            "use GET ?query= or POST on /sparql",
        )
        .with_header("Allow", "GET, POST"),
        (_, "/update") => HttpResponse::error(405, "Method Not Allowed", "use POST on /update")
            .with_header("Allow", "POST"),
        ("POST", "/shutdown") if shared.config.enable_shutdown_route => {
            shared.request_shutdown();
            HttpResponse::ok("text/plain; charset=utf-8", "shutting down\n").with_close()
        }
        (_, "/health") | (_, "/metrics") => {
            HttpResponse::error(405, "Method Not Allowed", "use GET").with_header("Allow", "GET")
        }
        _ => HttpResponse::error(404, "Not Found", "no such route"),
    }
}

/// What a `POST` body to `/sparql` or `/update` carries.
enum Body {
    /// A query, and whether its form asked for a trace (`trace=1`).
    Query(String, bool),
    Update(String),
}

/// Decodes a `POST` body by its `Content-Type`: a direct query or update,
/// or a form's first `query` / `update` field. `/update` (`updates_only`)
/// takes an update and nothing else. `Err` is the ready-to-send 400 or 415.
fn decode_body(request: &HttpRequest, updates_only: bool) -> Result<Body, HttpResponse> {
    let bad = |detail: String| HttpResponse::error(400, "Bad Request", detail);
    let utf8 = |what: &str| {
        String::from_utf8(request.body.clone())
            .map_err(|_| bad(format!("{what} body is not UTF-8")))
    };
    let content_type = request
        .header("content-type")
        .unwrap_or("")
        .split(';')
        .next()
        .unwrap_or("")
        .trim()
        .to_ascii_lowercase();
    match content_type.as_str() {
        "application/sparql-query" if !updates_only => Ok(Body::Query(utf8("query")?, false)),
        "application/sparql-update" => Ok(Body::Update(utf8("update")?)),
        "application/x-www-form-urlencoded" => {
            let body = std::str::from_utf8(&request.body)
                .map_err(|_| bad("form body is not UTF-8".into()))?;
            let params = crate::http::parse_query_string(body)
                .map_err(|e| bad(format!("malformed form body: {e}")))?;
            let trace = params.iter().any(|(k, v)| k == "trace" && v == "1");
            let wanted = |key: &str| key == "update" || (key == "query" && !updates_only);
            match params.into_iter().find(|(key, _)| wanted(key)) {
                Some((key, query)) if key == "query" => Ok(Body::Query(query, trace)),
                Some((_, update)) => Ok(Body::Update(update)),
                None if updates_only => Err(bad("form body has no \"update\" field".into())),
                None => Err(bad("form body has no \"query\" or \"update\" field".into())),
            }
        }
        other => {
            let direct = match updates_only {
                true => "application/sparql-update",
                false => "application/sparql-query, application/sparql-update",
            };
            Err(HttpResponse::error(
                415,
                "Unsupported Media Type",
                format!(
                    "unsupported Content-Type {other:?}; use {direct} or application/x-www-form-urlencoded"
                ),
            ))
        }
    }
}

/// Refreshes the scrape-time gauges and renders the instance plus global
/// registries as one Prometheus exposition document.
fn metrics(shared: &Shared) -> HttpResponse {
    let registry = shared.stats.registry();
    let snapshot = shared.store.snapshot();
    registry
        .gauge("hbold_store_triples", "Triples in the store.", &[])
        .set(snapshot.len() as u64);
    registry
        .gauge(
            "hbold_store_terms",
            "Interned terms in the dictionary.",
            &[],
        )
        .set(snapshot.term_count() as u64);
    registry
        .gauge(
            "hbold_store_sorted_terms",
            "Leading dictionary ids numbered in term order; below hbold_store_terms, ORDER BY no longer streams.",
            &[],
        )
        .set(snapshot.dictionary().sorted_len() as u64);
    registry
        .gauge(
            "hbold_store_hashed_terms",
            "Dictionary ids a hash index covers; below hbold_store_terms, a restored base is still searched.",
            &[],
        )
        .set(snapshot.dictionary().hashed_len() as u64);
    registry
        .gauge(
            "hbold_store_materialized_terms",
            "Dictionary ids whose term is built; below hbold_store_terms, a restored base holds the rest front-coded.",
            &[],
        )
        .set(snapshot.dictionary().materialized_len() as u64);
    for (order, tiers) in snapshot.index_tier_sizes() {
        let order = order.label();
        for (tier, entries) in tiers.labeled() {
            registry
                .gauge(
                    "hbold_index_tier_entries",
                    "Entries per positional index tier (directory: offsets over the flat tier).",
                    &[("order", order), ("tier", tier)],
                )
                .set(entries as u64);
        }
    }
    for (order, tiers) in snapshot.index_bytes() {
        let order = order.label();
        for (tier, bytes) in tiers.labeled() {
            registry
                .gauge(
                    "hbold_index_bytes",
                    "Heap bytes per positional index tier (pairs: 8 per flat key; delta/dead: 16 per key).",
                    &[("order", order), ("tier", tier)],
                )
                .set(bytes as u64);
        }
    }
    registry
        .gauge(
            "hbold_store_named_graphs",
            "Named graphs holding at least one quad.",
            &[],
        )
        .set(snapshot.named_graph_ids().len() as u64);
    let graphs: Vec<(String, usize)> = snapshot
        .graph_quad_counts()
        .into_iter()
        .map(|(graph, quads)| {
            let label = graph.as_ref().map_or("default", graph_name);
            (label.to_string(), quads)
        })
        .collect();
    // A graph that no longer holds a quad has no series: the registry would
    // otherwise repeat its last count on every scrape.
    registry.retain("hbold_store_graph_quads", |labels| {
        labels
            .iter()
            .any(|(_, graph)| graphs.iter().any(|(label, _)| label == graph))
    });
    for (label, quads) in &graphs {
        registry
            .gauge(
                "hbold_store_graph_quads",
                "Quads per graph holding at least one (the default graph is labeled \"default\").",
                &[("graph", label)],
            )
            .set(*quads as u64);
    }
    registry
        .gauge(
            "hbold_plan_cache_entries",
            "Live entries in the query plan cache.",
            &[],
        )
        .set(hbold_sparql::plan::stats().entries as u64);
    HttpResponse::ok(EXPOSITION_CONTENT_TYPE, shared.stats.render_metrics())
}

/// A named graph's full IRI (graph names are always IRIs; `Term::label`
/// would shorten one to its local name).
fn graph_name(term: &hbold_rdf_model::Term) -> &str {
    match term {
        hbold_rdf_model::Term::Iri(iri) => iri.as_str(),
        other => other.label(),
    }
}

/// Maps an evaluation failure to its response. The cancellation family is
/// typed — a timed-out query is a `504`, a shutdown-cancelled one a `503`
/// with `Retry-After` — and counted; anything else is the client's 400.
fn eval_error_response(shared: &Shared, e: &SparqlError) -> HttpResponse {
    match e {
        SparqlError::DeadlineExceeded => {
            shared.stats.query_timeouts.inc();
            HttpResponse::error(
                504,
                "Gateway Timeout",
                "query exceeded the server's evaluation deadline and was cancelled",
            )
        }
        SparqlError::Cancelled => {
            shared.stats.query_cancelled.inc();
            HttpResponse::error(
                503,
                "Service Unavailable",
                "query was cancelled before completing (server shutting down)",
            )
            .with_header("Retry-After", "1")
        }
        e => HttpResponse::error(400, "Bad Request", e.to_string()),
    }
}

/// Parses and applies a SPARQL 1.1 Update request. Each operation in the
/// `;`-separated sequence commits as one atomic, WAL-logged store
/// transition through `SharedStore::apply_update`, planned against the
/// state the previous operations produced. Success is `204 No Content`;
/// a parse or evaluation failure is a 400, and a write-ahead log that
/// refuses the operation's record a 503 with `Retry-After` (operations
/// already committed before a mid-sequence failure stay committed, and the
/// error body says so).
fn execute_update_request(shared: &Shared, update: &str) -> HttpResponse {
    let guard = match shared.begin_query() {
        Ok(guard) => guard,
        Err(rejected) => return rejected,
    };
    let ops = match parse_update(update) {
        Ok(ops) => ops,
        Err(e) => {
            shared.stats.update_error.inc();
            return HttpResponse::error(400, "Bad Request", e.to_string());
        }
    };
    for (index, op) in ops.iter().enumerate() {
        // `apply_update`'s planning closure cannot return an error, so a
        // WHERE-evaluation failure is smuggled out through this slot (the
        // empty delta it leaves behind commits nothing, not even a WAL
        // record). Cancellation rides the same path: a deadline that expires
        // mid-WHERE aborts planning before any delta exists, so the store
        // and its WAL stay byte-identical — never a half-applied operation.
        let mut eval_error: Option<SparqlError> = None;
        let applied = shared.store.apply_update(|store| {
            match plan_update_op_with(store, op, Some(&guard.token)) {
                Ok(delta) => delta,
                Err(e) => {
                    eval_error = Some(e);
                    (Vec::new(), Vec::new())
                }
            }
        });
        let failed = |why: &dyn std::fmt::Display| {
            format!(
                "operation {} of {} failed: {why}{}",
                index + 1,
                ops.len(),
                if index > 0 {
                    " (earlier operations in this request were committed)"
                } else {
                    ""
                },
            )
        };
        if let Some(e) = eval_error {
            shared.stats.update_error.inc();
            if matches!(e, SparqlError::Cancelled | SparqlError::DeadlineExceeded) {
                return eval_error_response(shared, &e);
            }
            return HttpResponse::error(400, "Bad Request", failed(&e));
        }
        let (removed, inserted) = match applied {
            Ok(counts) => counts,
            // The log append is the commit point: nothing of this operation
            // was applied, and the store serves on unchanged.
            Err(e) => {
                shared.stats.update_error.inc();
                let why = format!("the write-ahead log refused it, nothing of it was applied: {e}");
                return HttpResponse::error(503, "Service Unavailable", failed(&why))
                    .with_header("Retry-After", "1");
            }
        };
        shared.stats.update_ops.inc();
        shared.stats.update_quads_removed.add(removed as u64);
        shared.stats.update_quads_inserted.add(inserted as u64);
    }
    shared.stats.update_ok.inc();
    HttpResponse {
        status: 204,
        reason: "No Content",
        content_type: "text/plain; charset=utf-8".into(),
        body: Vec::new(),
        extra_headers: Vec::new(),
        close: false,
    }
}

fn execute(
    shared: &Shared,
    query: String,
    request: &HttpRequest,
    trace_wanted: bool,
    trace_id: &TraceId,
) -> HttpResponse {
    // Negotiate before doing any work so an unacceptable Accept header costs
    // nothing. A trace response is always JSON, so negotiation is skipped.
    let format = if trace_wanted {
        ResultFormat::Json
    } else {
        match negotiate(request.header("accept")) {
            Some(format) => format,
            None => {
                return HttpResponse::error(
                    406,
                    "Not Acceptable",
                    "supported result formats: application/sparql-results+json, text/csv, text/tab-separated-values",
                )
            }
        }
    };
    // Admission before parsing: a rejected request must cost no engine work.
    let guard = match shared.begin_query() {
        Ok(guard) => guard,
        Err(rejected) => return rejected,
    };
    // The span tree is built when the client asks for it (`trace=1`) or the
    // slow-query log is armed; otherwise tracing costs nothing.
    let root = (trace_wanted || shared.config.slow_query_ms.is_some()).then(|| {
        let root = Span::root("query");
        root.set_attr("query", query.as_str());
        root.set_attr("trace_id", trace_id.to_string());
        root
    });
    let started = Instant::now();
    let plan = match parse_traced(&query, root.as_ref()) {
        Ok(plan) => plan,
        Err(e) => return HttpResponse::error(400, "Bad Request", e.to_string()),
    };
    // The form decides what the answer can be written as: refuse an
    // unwritable ASK before evaluating it.
    if plan.form == QueryForm::Ask && format != ResultFormat::Json {
        return HttpResponse::error(
            406,
            "Not Acceptable",
            "ASK results are only available as application/sparql-results+json",
        );
    }
    let snapshot = shared.store.snapshot();
    let hooks = EvalHooks {
        trace: root.as_ref(),
        cancel: Some(&guard.token),
        ..EvalHooks::default()
    };
    let results = match evaluate_with_hooks(&snapshot, &plan, &hooks) {
        Ok(results) => results,
        Err(e) => return eval_error_response(shared, &e),
    };
    if let Some(root) = &root {
        let rows = match &results {
            QueryResults::Select(s) => s.len(),
            QueryResults::Ask(_) => 1,
        };
        root.add_rows(rows as u64);
        let elapsed = started.elapsed();
        root.add_elapsed_ns(elapsed.as_nanos() as u64);
        if let Some(threshold) = shared.config.slow_query_ms {
            if elapsed.as_millis() as u64 >= threshold {
                // One line per slow query, machine-parseable: the span tree
                // carries the join order, per-scan estimates, and actual
                // rows/elapsed per operator.
                let line = JsonValue::object([
                    ("event", "slow_query".into()),
                    ("trace_id", trace_id.to_string().into()),
                    ("elapsed_us", (elapsed.as_micros() as u64).into()),
                    ("query", query.as_str().into()),
                    ("trace", root.to_value()),
                ]);
                eprintln!("{line}");
            }
        }
    }
    if trace_wanted {
        let root = root.expect("trace_wanted implies a root span");
        let body = JsonValue::object([
            ("trace_id", trace_id.to_string().into()),
            ("rows", root.rows().into()),
            ("trace", root.to_value()),
        ]);
        return HttpResponse::ok("application/json; charset=utf-8", body.to_string());
    }
    let body = match (&results, format) {
        (QueryResults::Select(s), ResultFormat::Csv) => s.to_csv(),
        (QueryResults::Select(s), ResultFormat::Tsv) => s.to_tsv(),
        // JSON, or an ASK, whose other formats were refused above.
        _ => results.to_sparql_json(),
    };
    HttpResponse::ok(format.content_type(), body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_handler_is_a_500_that_closes_the_connection() {
        let stats = ServerStats::default();
        let response = answer_or_500(&stats, || panic!("a handler bug"));
        assert_eq!(response.status, 500);
        assert!(response.close, "the connection stays open after a panic");
        let body = String::from_utf8(response.body).unwrap();
        assert!(body.contains("\"status\":500"), "JSON error body: {body}");
        assert_eq!(stats.worker_panics.get(), 1);
        let response = answer_or_500(&stats, || HttpResponse::ok("text/plain", "ok"));
        assert_eq!((response.status, response.close), (200, false));
        assert_eq!(stats.worker_panics.get(), 1);
    }

    #[test]
    fn accept_negotiation() {
        assert_eq!(negotiate(None), Some(ResultFormat::Json));
        assert_eq!(negotiate(Some("*/*")), Some(ResultFormat::Json));
        assert_eq!(
            negotiate(Some("application/sparql-results+json")),
            Some(ResultFormat::Json)
        );
        assert_eq!(negotiate(Some("text/csv")), Some(ResultFormat::Csv));
        assert_eq!(
            negotiate(Some("text/tab-separated-values")),
            Some(ResultFormat::Tsv)
        );
        // q-values order preferences.
        assert_eq!(
            negotiate(Some("text/csv;q=0.5, application/json;q=0.9")),
            Some(ResultFormat::Json)
        );
        assert_eq!(
            negotiate(Some("application/json;q=0.1, text/tab-separated-values")),
            Some(ResultFormat::Tsv)
        );
        // Wildcards and unknowns.
        assert_eq!(negotiate(Some("text/*")), Some(ResultFormat::Csv));
        assert_eq!(negotiate(Some("application/xml")), None);
        assert_eq!(
            negotiate(Some("application/xml, */*;q=0.1")),
            Some(ResultFormat::Json)
        );
        assert_eq!(negotiate(Some("text/csv;q=0")), None);
    }
}
