//! The four end-to-end workloads. Each is a closed loop of one client on one
//! keep-alive connection against a release `hbold-server`; one *op* is one
//! full, deterministic cycle of requests, so every op of a workload does the
//! same work and a median over ops is a median over one population.
//!
//! | workload | one op | stresses |
//! |---|---|---|
//! | `extract_pass` | the aggregate queries `IndexExtractor` sends | scan + join + aggregate; tiny results, warm plan cache |
//! | `browse_pages` | four sorted pages of one class | materialise, serialise, socket write, client decode |
//! | `update_stream` | 8 inserts, 1 delete, 1 confirming select | update plan, WAL append, apply, auto-checkpoint |
//! | `cold_restart` | boot on a prepared directory, first answer | snapshot load, WAL replay, dictionary rebuild |

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use hbold_rdf_model::{Iri, Term};
use hbold_schema::IndexExtractor;
use hbold_sparql::json::JsonValue;
use hbold_sparql::{QueryResults, SelectResults};
use hbold_telemetry::expo::parse_exposition;

use crate::calib::Interval;
use crate::fixture::{splitmix64, Fixture};
use crate::http::Client;
use crate::proc::{ScratchDir, Server, ServerArgs, Usage};
use crate::trace::Tracer;

const SPARQL_JSON: &str = "application/sparql-results+json";
const BENCH_NS: &str = "http://bench.hbold.example/";
const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";

/// `INSERT DATA` requests per `update_stream` op, two quads each.
const INSERTS_PER_BATCH: usize = 8;
/// Un-checkpointed update records `cold_restart` replays on every boot.
pub const COLD_TAIL_RECORDS: usize = 100;
/// `update_stream` servers checkpoint once their WAL passes this size, so a
/// run sees several checkpoints (a fixed number: op counts are fixed).
const UPDATE_CHECKPOINT_WAL_BYTES: u64 = 262_144;

/// What every workload needs from the run.
#[derive(Debug)]
pub struct Env<'a> {
    /// The release `hbold-server` binary.
    pub server_bin: PathBuf,
    /// Directory under which data directories are created.
    pub scratch: PathBuf,
    /// The dataset and its truth.
    pub fixture: &'a Fixture,
    /// `--seed`, for the update streams.
    pub seed: u64,
}

/// Per-pass accumulators the ops add to, plus the tracer of a traced pass.
#[derive(Debug, Default)]
pub struct Probe {
    /// `Some` during the traced pass: queries carry `?trace=1` and every
    /// request records spans.
    pub tracer: Option<Tracer>,
    /// Requests sent.
    pub requests: u64,
    /// Response body bytes received.
    pub response_bytes: u64,
    /// Σ (first request byte written → last body byte read), nanoseconds.
    /// The write is inside: client and server share one CPU, so the kernel
    /// often runs the server before the client's `write` call returns.
    pub wait_ns: u64,
    /// Σ client-side decoding of answers, nanoseconds.
    pub decode_ns: u64,
}

/// Cumulative server-side counters scraped from `/metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `hbold_plan_cache_hits_total`.
    pub plan_hits: f64,
    /// `hbold_plan_cache_misses_total`.
    pub plan_misses: f64,
    /// `hbold_wal_appends_total`.
    pub wal_appends: f64,
    /// `hbold_wal_fsyncs_total`.
    pub wal_fsyncs: f64,
    /// `hbold_checkpoints_total`.
    pub checkpoints: f64,
    /// Requests the `/sparql` route has served.
    pub sparql_requests: f64,
}

impl Counters {
    /// Adds `later − earlier` to `self`.
    pub fn add_delta(&mut self, earlier: &Counters, later: &Counters) {
        self.plan_hits += later.plan_hits - earlier.plan_hits;
        self.plan_misses += later.plan_misses - earlier.plan_misses;
        self.wal_appends += later.wal_appends - earlier.wal_appends;
        self.wal_fsyncs += later.wal_fsyncs - earlier.wal_fsyncs;
        self.checkpoints += later.checkpoints - earlier.checkpoints;
        self.sparql_requests += later.sparql_requests - earlier.sparql_requests;
    }
}

/// What is left on disk after the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Footprint {
    /// Bytes in the data directory.
    pub disk_bytes: u64,
    /// Quads the store holds.
    pub quads: usize,
}

/// One end-to-end workload.
pub trait Workload {
    /// Name as declared in `BENCHMARK.json`.
    fn name(&self) -> &'static str;

    /// Ops per second this workload sustains on the reference host; turns
    /// `--seconds` into a fixed op count.
    fn nominal_ops_per_s(&self) -> f64;

    /// One complete set-up on a fresh data directory, ending with a warm-up
    /// op whose answers are checked against the fixture's truth. The new
    /// instance replaces the previous one.
    fn set_up(&mut self, env: &Env<'_>) -> Result<(), String>;

    /// Runs one op, checks every answer, and returns the interval the op
    /// took. Connection upkeep happens before the clock starts.
    fn op(&mut self, env: &Env<'_>, probe: &mut Probe) -> Result<Interval, String>;

    /// CPU time and peak memory of the workload's server(s) so far.
    fn usage(&self) -> Result<Usage, String>;

    /// Cumulative `/metrics` counters of the workload's server(s).
    fn counters(&mut self) -> Result<Counters, String>;

    /// Address of a live server for the round-trip probes.
    fn probe_addr(&mut self, env: &Env<'_>) -> Result<String, String>;

    /// Spawn-to-listening intervals of the servers started so far.
    fn boots(&self) -> &[Interval];

    /// Checks that can only run once the timed phases are over, and the
    /// on-disk footprint. Stops the workload's servers.
    fn finish(&mut self, env: &Env<'_>) -> Result<Footprint, String>;
}

/// All workloads, in ledger order.
pub fn all() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(ReadWorkload::new(ReadKind::ExtractPass)),
        Box::new(ReadWorkload::new(ReadKind::BrowsePages)),
        Box::<UpdateStream>::default(),
        Box::<ColdRestart>::default(),
    ]
}

// --- shared plumbing -----------------------------------------------------------

/// A live server, its data directory and the client connection to it.
struct Live {
    client: Client,
    server: Server,
    dir: ScratchDir,
}

impl Live {
    /// Boots a server that bulk-loads the fixture into a fresh directory.
    fn boot_and_load(
        env: &Env<'_>,
        name: &str,
        checkpoint_wal_bytes: Option<u64>,
    ) -> Result<Live, String> {
        let dir = ScratchDir::create(env.scratch.join(name))?;
        let server = Server::spawn(
            &env.server_bin,
            &ServerArgs {
                data_dir: dir.path(),
                load: Some(&env.fixture.nt_path),
                checkpoint_wal_bytes,
            },
        )?;
        if server.quads != env.fixture.truth.quads {
            return Err(format!(
                "server loaded {} quads, the fixture has {}",
                server.quads, env.fixture.truth.quads
            ));
        }
        let client = connect(&server.addr)?;
        Ok(Live {
            client,
            server,
            dir,
        })
    }
}

/// The state of a workload that keeps one server through its timed phase:
/// the current instance, and the boots of all instances so far.
#[derive(Default)]
struct Served {
    live: Option<Live>,
    boots: Vec<Interval>,
}

impl Served {
    /// Stops the previous instance, then boots the next one on a fresh
    /// directory and loads the fixture into it.
    fn replace(
        &mut self,
        env: &Env<'_>,
        workload: &str,
        checkpoint_wal_bytes: Option<u64>,
    ) -> Result<&mut Live, String> {
        self.live = None;
        let name = format!("{workload}-{}", self.boots.len() + 1);
        let live = Live::boot_and_load(env, &name, checkpoint_wal_bytes)?;
        self.boots.push(live.server.boot);
        Ok(self.live.insert(live))
    }

    fn live(&self) -> Result<&Live, String> {
        self.live
            .as_ref()
            .ok_or_else(|| "workload is not set up".into())
    }

    fn live_mut(&mut self) -> Result<&mut Live, String> {
        self.live
            .as_mut()
            .ok_or_else(|| "workload is not set up".into())
    }

    fn take(&mut self) -> Result<Live, String> {
        self.live
            .take()
            .ok_or_else(|| "workload is not set up".into())
    }

    fn usage(&self) -> Result<Usage, String> {
        self.live()?.server.usage()
    }

    fn counters(&self) -> Result<Counters, String> {
        scrape(&self.live()?.server.addr)
    }

    fn addr(&self) -> Result<String, String> {
        Ok(self.live()?.server.addr.clone())
    }
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// Boots a server on an existing data directory, loading nothing.
fn boot_on(env: &Env<'_>, dir: &ScratchDir) -> Result<Server, String> {
    Server::spawn(
        &env.server_bin,
        &ServerArgs {
            data_dir: dir.path(),
            load: None,
            checkpoint_wal_bytes: None,
        },
    )
}

/// Scrapes `/metrics` over a connection of its own.
fn scrape(addr: &str) -> Result<Counters, String> {
    let mut client = connect(addr)?;
    let exchange = client
        .request("GET", "/metrics", "text/plain", None)
        .map_err(|e| format!("GET /metrics: {e}"))?;
    let text = String::from_utf8(exchange.body).map_err(|_| "metrics are not UTF-8")?;
    let expo = parse_exposition(&text)?;
    let get = |name: &str, labels: &[(&str, &str)]| {
        expo.value(name, labels)
            .ok_or_else(|| format!("/metrics has no {name}"))
    };
    Ok(Counters {
        plan_hits: get("hbold_plan_cache_hits_total", &[])?,
        plan_misses: get("hbold_plan_cache_misses_total", &[])?,
        wal_appends: get("hbold_wal_appends_total", &[])?,
        wal_fsyncs: get("hbold_wal_fsyncs_total", &[])?,
        checkpoints: get("hbold_checkpoints_total", &[])?,
        sparql_requests: get(
            "hbold_http_request_duration_us_count",
            &[("route", "/sparql")],
        )?,
    })
}

/// The answer every later execution of a query must reproduce.
#[derive(Debug, Clone, Default)]
struct Expected {
    /// The warm-up answer's bytes (compared directly: exact, and cheaper
    /// than hashing them).
    body: Vec<u8>,
    /// Its row count — all a traced answer (a span tree, not results) can
    /// be checked against.
    rows: u64,
}

/// A decoded answer.
struct Answer {
    body: Vec<u8>,
    /// `None` in the traced pass.
    results: Option<QueryResults>,
    rows: u64,
}

impl Answer {
    fn select(&self) -> Result<&SelectResults, String> {
        match &self.results {
            Some(QueryResults::Select(select)) => Ok(select),
            _ => Err("expected SELECT results".into()),
        }
    }

    fn check(&self, expected: &Expected) -> Result<(), String> {
        if self.results.is_some() && self.body != expected.body {
            return Err(format!(
                "answer differs from its warm-up answer ({} vs {} bytes)",
                self.body.len(),
                expected.body.len()
            ));
        }
        if self.rows != expected.rows {
            return Err(format!(
                "answer has {} rows, its warm-up answer had {}",
                self.rows, expected.rows
            ));
        }
        Ok(())
    }

    fn into_expected(self) -> Expected {
        Expected {
            body: self.body,
            rows: self.rows,
        }
    }
}

/// Sends one query and decodes the answer, recording where the time went.
fn query(client: &mut Client, probe: &mut Probe, text: &str) -> Result<Answer, String> {
    let traced = probe.tracer.is_some();
    let path = if traced { "/sparql?trace=1" } else { "/sparql" };
    let exchange = client
        .request(
            "POST",
            path,
            SPARQL_JSON,
            Some(("application/sparql-query", text.as_bytes())),
        )
        .map_err(|e| format!("query failed in transport: {e}"))?;
    if exchange.status != 200 {
        return Err(format!(
            "query answered {}: {}",
            exchange.status,
            String::from_utf8_lossy(&exchange.body)
        ));
    }
    let body_text = std::str::from_utf8(&exchange.body).map_err(|_| "answer is not UTF-8")?;
    let mut server_tree = None;
    let (results, rows) = if traced {
        let doc = JsonValue::parse(body_text).map_err(|e| format!("trace answer: {e:?}"))?;
        let rows = doc.get("rows").and_then(JsonValue::as_f64).unwrap_or(-1.0) as u64;
        server_tree = doc.get("trace").cloned();
        (None, rows)
    } else {
        let results = QueryResults::from_sparql_json(body_text).map_err(|e| e.to_string())?;
        let rows = match &results {
            QueryResults::Select(select) => select.len() as u64,
            QueryResults::Ask(_) => 1,
        };
        (Some(results), rows)
    };
    let decoded = Instant::now();

    probe.requests += 1;
    probe.response_bytes += exchange.body.len() as u64;
    probe.wait_ns += (exchange.done - exchange.started).as_nanos() as u64;
    probe.decode_ns += (decoded - exchange.done).as_nanos() as u64;
    if let Some(tracer) = &mut probe.tracer {
        tracer.open_at("request", exchange.started);
        tracer.leaf("write", exchange.started, exchange.written);
        tracer.leaf("wait", exchange.written, exchange.first_byte);
        if let Some(tree) = server_tree {
            tracer.attach_server_tree(tree);
        }
        tracer.leaf("read_body", exchange.first_byte, exchange.done);
        tracer.leaf("decode", exchange.done, decoded);
        tracer.close_at(decoded);
    }
    Ok(Answer {
        body: exchange.body,
        results,
        rows,
    })
}

/// Sends one SPARQL Update and requires the `204` that acknowledges it.
fn update(client: &mut Client, probe: &mut Probe, text: &str) -> Result<(), String> {
    let exchange = client
        .request(
            "POST",
            "/update",
            "*/*",
            Some(("application/sparql-update", text.as_bytes())),
        )
        .map_err(|e| format!("update failed in transport: {e}"))?;
    if exchange.status != 204 {
        return Err(format!(
            "update answered {}: {}",
            exchange.status,
            String::from_utf8_lossy(&exchange.body)
        ));
    }
    probe.requests += 1;
    probe.wait_ns += (exchange.done - exchange.started).as_nanos() as u64;
    if let Some(tracer) = &mut probe.tracer {
        tracer.open_at("request", exchange.started);
        tracer.leaf("write", exchange.started, exchange.written);
        tracer.leaf("wait", exchange.written, exchange.first_byte);
        tracer.leaf("read_body", exchange.first_byte, exchange.done);
        tracer.close_at(exchange.done);
    }
    Ok(())
}

/// Times one op, wrapping it in an `op` span when the pass is traced.
fn timed_op<T>(
    probe: &mut Probe,
    body: impl FnOnce(&mut Probe) -> Result<T, String>,
) -> Result<(T, Interval), String> {
    let start = Instant::now();
    if let Some(tracer) = &mut probe.tracer {
        tracer.open_at("op", start);
    }
    let outcome = body(probe);
    let took = Interval::since(start);
    if let Some(tracer) = &mut probe.tracer {
        tracer.close_at(took.end);
    }
    outcome.map(|value| (value, took))
}

fn count_of(term: Option<&Term>) -> Result<usize, String> {
    term.map(Term::label)
        .and_then(|label| label.parse().ok())
        .ok_or_else(|| "a count is missing or not a number".into())
}

fn iri_at(select: &SelectResults, row: usize, variable: &str) -> Result<Iri, String> {
    select
        .value(row, variable)
        .and_then(Term::as_iri)
        .cloned()
        .ok_or_else(|| format!("?{variable} of row {row} is not an IRI"))
}

/// Decodes the answer to [`CLASS_COUNT_QUERY`].
fn class_sizes_of(answer: &Answer) -> Result<BTreeMap<Iri, usize>, String> {
    let select = answer.select()?;
    let mut sizes = BTreeMap::new();
    for row in 0..select.len() {
        sizes.insert(
            iri_at(select, row, "class")?,
            count_of(select.value(row, "n"))?,
        );
    }
    Ok(sizes)
}

// --- extract_pass and browse_pages ---------------------------------------------

/// The two read workloads: both replay a fixed list of queries against a
/// server that bulk-loaded the fixture, and differ in which queries.
enum ReadKind {
    /// The paper's own workload: the schema-extraction statistics queries.
    /// Scans, joins and aggregates do the work; answers are tiny.
    ExtractPass,
    /// The same read path used the other way: few scans, thousands of
    /// result rows to materialise, serialise, ship and decode.
    BrowsePages,
}

struct ReadWorkload {
    kind: ReadKind,
    served: Served,
    queries: Vec<String>,
    expected: Vec<Expected>,
}

impl ReadWorkload {
    fn new(kind: ReadKind) -> ReadWorkload {
        ReadWorkload {
            kind,
            served: Served::default(),
            queries: Vec::new(),
            expected: Vec::new(),
        }
    }
}

/// Compares the decoded extraction answers with the fixture's truth.
fn verify_extraction(fixture: &Fixture, answers: &[Answer]) -> Result<(), String> {
    let truth = &fixture.truth;
    let single = |answer: &Answer| count_of(answer.select()?.value(0, "n"));
    if single(&answers[0])? != truth.quads {
        return Err("COUNT(*) differs from the fixture's quad count".into());
    }
    if single(&answers[answers.len() - 1])? != truth.typed_subjects {
        return Err("COUNT(DISTINCT ?s) differs from the fixture's typed subjects".into());
    }
    if class_sizes_of(&answers[1])? != truth.class_sizes {
        return Err("per-class instance counts differ from the fixture's".into());
    }
    for (index, class) in truth.class_sizes.keys().enumerate() {
        let properties = answers[2 + 2 * index].select()?;
        let mut got = BTreeMap::new();
        for row in 0..properties.len() {
            got.insert(
                iri_at(properties, row, "p")?,
                count_of(properties.value(row, "n"))?,
            );
        }
        if Some(&got) != truth.properties.get(class) {
            return Err(format!(
                "property counts of {class} differ from the fixture's"
            ));
        }
        let links = answers[3 + 2 * index].select()?;
        let mut got = BTreeMap::new();
        for row in 0..links.len() {
            got.insert(
                (iri_at(links, row, "p")?, iri_at(links, row, "target")?),
                count_of(links.value(row, "n"))?,
            );
        }
        if got != truth.links.get(class).cloned().unwrap_or_default() {
            return Err(format!("link counts of {class} differ from the fixture's"));
        }
    }
    Ok(())
}

/// The pages, concatenated, must be exactly the first rows of the class in
/// `ORDER BY ?s ?p ?o` order — which makes them sorted, disjoint and equal
/// to the graph's rows at once.
fn verify_pages(fixture: &Fixture, answers: &[Answer]) -> Result<(), String> {
    let mut rows = fixture.truth.browse_rows.iter();
    for (page, answer) in answers.iter().enumerate() {
        let select = answer.select()?;
        if select.variables != ["s", "p", "o"] || select.len() != fixture.sizes.page_rows {
            return Err(format!(
                "page {page} has {} rows of {:?}",
                select.len(),
                select.variables
            ));
        }
        for (index, row) in select.rows.iter().enumerate() {
            let expected = rows.next().ok_or("the fixture has too few browse rows")?;
            if !row.iter().map(Option::as_ref).eq(expected.iter().map(Some)) {
                return Err(format!(
                    "row {index} of page {page} differs from the fixture's"
                ));
            }
        }
    }
    Ok(())
}

/// Runs the real `IndexExtractor` against the live server: its indexes must
/// match the truth, the server must have seen exactly one op's worth of
/// queries, and none of them may be new to its plan cache — i.e. the op
/// replays precisely what the extractor sends.
fn verify_against_real_extractor(
    fixture: &Fixture,
    server: &Server,
    requests_per_op: usize,
) -> Result<(), String> {
    let before = scrape(&server.addr)?;
    let endpoint = hbold_endpoint::SparqlEndpoint::remote(server.url.clone());
    let (indexes, report) = IndexExtractor::aggregate_only()
        .extract(&endpoint, 0)
        .map_err(|e| format!("IndexExtractor failed against the live server: {e}"))?;
    let after = scrape(&server.addr)?;
    let truth = &fixture.truth;
    if indexes.triples != truth.quads
        || indexes.class_count() != truth.class_sizes.len()
        || indexes.instances != truth.typed_subjects
    {
        return Err("IndexExtractor's totals differ from the fixture's".into());
    }
    for class in &indexes.classes {
        if truth.class_sizes.get(&class.class) != Some(&class.instances) {
            return Err(format!(
                "IndexExtractor's size of {} differs from the fixture's",
                class.class
            ));
        }
    }
    let seen = after.sparql_requests - before.sparql_requests;
    if seen != requests_per_op as f64 || report.queries_issued != requests_per_op {
        return Err(format!(
            "IndexExtractor sent {seen} queries, one op sends {requests_per_op}"
        ));
    }
    if after.plan_misses != before.plan_misses {
        return Err("IndexExtractor sent a query the op does not send".into());
    }
    Ok(())
}

impl Workload for ReadWorkload {
    fn name(&self) -> &'static str {
        match self.kind {
            ReadKind::ExtractPass => "extract_pass",
            ReadKind::BrowsePages => "browse_pages",
        }
    }

    fn nominal_ops_per_s(&self) -> f64 {
        match self.kind {
            ReadKind::ExtractPass => 14.0,
            ReadKind::BrowsePages => 7.0,
        }
    }

    fn set_up(&mut self, env: &Env<'_>) -> Result<(), String> {
        self.queries = match self.kind {
            ReadKind::ExtractPass => env.fixture.extraction_queries(),
            ReadKind::BrowsePages => env.fixture.browse_queries(),
        };
        let name = self.name();
        let live = self.served.replace(env, name, None)?;
        let mut probe = Probe::default();
        let answers = self
            .queries
            .iter()
            .map(|q| query(&mut live.client, &mut probe, q))
            .collect::<Result<Vec<_>, _>>()?;
        match self.kind {
            ReadKind::ExtractPass => verify_extraction(env.fixture, &answers)?,
            ReadKind::BrowsePages => verify_pages(env.fixture, &answers)?,
        }
        self.expected = answers.into_iter().map(Answer::into_expected).collect();
        Ok(())
    }

    fn op(&mut self, _env: &Env<'_>, probe: &mut Probe) -> Result<Interval, String> {
        let live = self.served.live_mut()?;
        live.client
            .make_room_for(self.queries.len())
            .map_err(|e| format!("reconnect: {e}"))?;
        let (queries, expected) = (&self.queries, &self.expected);
        timed_op(probe, |probe| {
            for (text, expected) in queries.iter().zip(expected) {
                query(&mut live.client, probe, text)?.check(expected)?;
            }
            Ok(())
        })
        .map(|((), took)| took)
    }

    fn usage(&self) -> Result<Usage, String> {
        self.served.usage()
    }

    fn counters(&mut self) -> Result<Counters, String> {
        self.served.counters()
    }

    fn probe_addr(&mut self, _env: &Env<'_>) -> Result<String, String> {
        self.served.addr()
    }

    fn boots(&self) -> &[Interval] {
        &self.served.boots
    }

    fn finish(&mut self, env: &Env<'_>) -> Result<Footprint, String> {
        let live = self.served.take()?;
        if let ReadKind::ExtractPass = self.kind {
            verify_against_real_extractor(env.fixture, &live.server, self.queries.len())?;
        }
        Ok(Footprint {
            disk_bytes: live.dir.bytes(),
            quads: env.fixture.truth.quads,
        })
    }
}

// --- update_stream -------------------------------------------------------------------

/// Subject, batch and value of the `k`-th insert of batch `batch`.
fn update_subject(seed: u64, batch: usize, k: usize) -> (String, String) {
    let mut state = seed ^ ((batch as u64) << 20) ^ k as u64;
    (
        format!("{BENCH_NS}u/{seed}/b{batch}/s{k}"),
        format!("v-{:016x}", splitmix64(&mut state)),
    )
}

fn update_quads(seed: u64, batch: usize, k: usize) -> String {
    let (subject, value) = update_subject(seed, batch, k);
    format!(
        "<{subject}> <{BENCH_NS}batch> \"{batch}\"^^<{XSD_INTEGER}> . <{subject}> <{BENCH_NS}value> \"{value}\" ."
    )
}

/// Writes beside reads on one store: every statement is distinct (cold for
/// any cache) and the store's size is stationary.
#[derive(Default)]
struct UpdateStream {
    served: Served,
    /// The next batch to insert; batches `next − 1` and `next − 2` are live.
    next_batch: usize,
}

impl UpdateStream {
    /// One cycle for batch `i`: insert it, delete batch `i − 2`, confirm
    /// batch `i − 1` is entirely visible.
    fn cycle(
        client: &mut Client,
        probe: &mut Probe,
        seed: u64,
        batch: usize,
    ) -> Result<(), String> {
        for k in 0..INSERTS_PER_BATCH {
            let text = format!("INSERT DATA {{ {} }}", update_quads(seed, batch, k));
            update(client, probe, &text)?;
        }
        if batch >= 2 {
            let quads: Vec<String> = (0..INSERTS_PER_BATCH)
                .map(|k| update_quads(seed, batch - 2, k))
                .collect();
            update(
                client,
                probe,
                &format!("DELETE DATA {{ {} }}", quads.join(" ")),
            )?;
        }
        if batch >= 1 {
            let text = format!(
                "SELECT ?s ?v WHERE {{ ?s <{BENCH_NS}batch> \"{}\"^^<{XSD_INTEGER}> . ?s <{BENCH_NS}value> ?v }} ORDER BY ?s",
                batch - 1
            );
            let answer = query(client, probe, &text)?;
            if answer.rows != INSERTS_PER_BATCH as u64 {
                return Err(format!(
                    "batch {} shows {} of its {INSERTS_PER_BATCH} subjects",
                    batch - 1,
                    answer.rows
                ));
            }
            if answer.results.is_some() {
                let select = answer.select()?;
                for k in 0..INSERTS_PER_BATCH {
                    let (subject, value) = update_subject(seed, batch - 1, k);
                    let shown = (
                        select.value(k, "s").and_then(Term::as_iri).map(Iri::as_str),
                        select.value(k, "v").map(Term::label),
                    );
                    if shown != (Some(subject.as_str()), Some(value.as_str())) {
                        return Err(format!("batch {} is not visible as written", batch - 1));
                    }
                }
            }
        }
        Ok(())
    }
}

impl Workload for UpdateStream {
    fn name(&self) -> &'static str {
        "update_stream"
    }

    fn nominal_ops_per_s(&self) -> f64 {
        40.0
    }

    fn set_up(&mut self, env: &Env<'_>) -> Result<(), String> {
        let live = self
            .served
            .replace(env, "update_stream", Some(UPDATE_CHECKPOINT_WAL_BYTES))?;
        // The warm-up: batches 0 and 1, after which every cycle has all of
        // its three parts.
        let mut probe = Probe::default();
        for batch in 0..2 {
            UpdateStream::cycle(&mut live.client, &mut probe, env.seed, batch)?;
        }
        self.next_batch = 2;
        Ok(())
    }

    fn op(&mut self, env: &Env<'_>, probe: &mut Probe) -> Result<Interval, String> {
        let live = self.served.live_mut()?;
        live.client
            .make_room_for(INSERTS_PER_BATCH + 2)
            .map_err(|e| format!("reconnect: {e}"))?;
        let batch = self.next_batch;
        // The batch counts as sent even if the op fails midway: the next op
        // must not re-insert subjects that may already exist.
        self.next_batch += 1;
        timed_op(probe, |probe| {
            UpdateStream::cycle(&mut live.client, probe, env.seed, batch)
        })
        .map(|((), took)| took)
    }

    fn usage(&self) -> Result<Usage, String> {
        self.served.usage()
    }

    fn counters(&mut self) -> Result<Counters, String> {
        self.served.counters()
    }

    fn probe_addr(&mut self, _env: &Env<'_>) -> Result<String, String> {
        self.served.addr()
    }

    fn boots(&self) -> &[Interval] {
        &self.served.boots
    }

    /// Durability: kill the server, restart it on the same directory, and
    /// require every acknowledged insert not since deleted — and nothing
    /// else — to be there.
    fn finish(&mut self, env: &Env<'_>) -> Result<Footprint, String> {
        let Live { server, dir, .. } = self.served.take()?;
        drop(server); // SIGKILL
        let disk_bytes = dir.bytes();
        let server = boot_on(env, &dir)?;
        let live_batches = [self.next_batch - 2, self.next_batch - 1];
        let quads = env.fixture.truth.quads + live_batches.len() * INSERTS_PER_BATCH * 2;
        if server.quads != quads {
            return Err(format!(
                "after SIGKILL and restart the store holds {} quads, expected {quads}",
                server.quads
            ));
        }
        let mut client = connect(&server.addr)?;
        let answer = query(
            &mut client,
            &mut Probe::default(),
            &format!(
                "SELECT ?s ?b ?v WHERE {{ ?s <{BENCH_NS}batch> ?b . ?s <{BENCH_NS}value> ?v }} ORDER BY ?s"
            ),
        )?;
        let select = answer.select()?;
        let mut expected = Vec::new();
        for batch in live_batches {
            for k in 0..INSERTS_PER_BATCH {
                let (subject, value) = update_subject(env.seed, batch, k);
                expected.push((subject, batch.to_string(), value));
            }
        }
        expected.sort();
        let mut shown = Vec::new();
        for row in 0..select.len() {
            shown.push((
                iri_at(select, row, "s")?.as_str().to_string(),
                select
                    .value(row, "b")
                    .map(Term::label)
                    .unwrap_or("")
                    .to_string(),
                select
                    .value(row, "v")
                    .map(Term::label)
                    .unwrap_or("")
                    .to_string(),
            ));
        }
        shown.sort();
        if shown != expected {
            return Err(
                "after SIGKILL and restart the acknowledged updates are not exactly what is stored"
                    .into(),
            );
        }
        Ok(Footprint { disk_bytes, quads })
    }
}

// --- cold_restart ----------------------------------------------------------------------

const CLASS_COUNT_QUERY: &str =
    "SELECT ?class (COUNT(?s) AS ?n) WHERE { ?s a ?class } GROUP BY ?class ORDER BY ?class";

/// Nothing but recovery: snapshot load, WAL replay, dictionary rebuild and
/// the first query, everything cold. The server is killed after each op, so
/// the directory is byte-identical for the next one.
#[derive(Default)]
struct ColdRestart {
    dir: Option<ScratchDir>,
    expected: Expected,
    /// CPU of the servers killed so far, and the largest peak RSS.
    spent: Usage,
    /// `/metrics` of the servers killed so far, once someone asked for them
    /// (a scrape costs the server CPU that the end-to-end lane must not see).
    counted: Option<Counters>,
    boots: Vec<Interval>,
    probe_server: Option<Server>,
    setups: usize,
}

impl ColdRestart {
    /// Spawns a server on the prepared directory and waits for the first
    /// correct answer on a fresh connection. Returns the server, still
    /// running, and the interval from spawn to answer.
    fn restart(&self, env: &Env<'_>, probe: &mut Probe) -> Result<(Server, Interval), String> {
        let dir = self.dir.as_ref().ok_or("workload is not set up")?;
        timed_op(probe, |probe| {
            let server = boot_on(env, dir)?;
            let mut client = connect(&server.addr)?;
            query(&mut client, probe, CLASS_COUNT_QUERY)?.check(&self.expected)?;
            Ok(server)
        })
    }
}

impl Workload for ColdRestart {
    fn name(&self) -> &'static str {
        "cold_restart"
    }

    fn nominal_ops_per_s(&self) -> f64 {
        4.0
    }

    /// load → graceful shutdown (checkpoint) → boot → tail of updates →
    /// `SIGKILL`, then one verified restart.
    fn set_up(&mut self, env: &Env<'_>) -> Result<(), String> {
        self.dir = None;
        self.probe_server = None;
        self.setups += 1;
        let mut loaded = Live::boot_and_load(env, &format!("cold_restart-{}", self.setups), None)?;
        let exchange = loaded
            .client
            .request("POST", "/shutdown", "*/*", None)
            .map_err(|e| format!("POST /shutdown: {e}"))?;
        if exchange.status != 200 {
            return Err(format!("POST /shutdown answered {}", exchange.status));
        }
        let Live { server, dir, .. } = loaded;
        if !server.wait_for_exit() {
            return Err("the server did not shut down cleanly".into());
        }

        let server = boot_on(env, &dir)?;
        let mut client = connect(&server.addr)?;
        let mut probe = Probe::default();
        for record in 0..COLD_TAIL_RECORDS {
            let text = format!("INSERT DATA {{ {} }}", update_quads(env.seed, record, 0));
            update(&mut client, &mut probe, &text)?;
        }
        let answer = query(&mut client, &mut probe, CLASS_COUNT_QUERY)?;
        if class_sizes_of(&answer)? != env.fixture.truth.class_sizes {
            return Err("per-class instance counts differ from the fixture's".into());
        }
        self.expected = answer.into_expected();
        drop(server); // SIGKILL: the tail stays un-checkpointed
        self.dir = Some(dir);
        // The warm-up op; its server is killed when it drops.
        self.restart(env, &mut probe).map(|_| ())
    }

    fn op(&mut self, env: &Env<'_>, probe: &mut Probe) -> Result<Interval, String> {
        let (server, took) = self.restart(env, probe)?;
        self.boots.push(server.boot);
        if let Some(counted) = &mut self.counted {
            counted.add_delta(&Counters::default(), &scrape(&server.addr)?);
        }
        let usage = server.usage()?;
        self.spent.cpu_s += usage.cpu_s;
        self.spent.peak_rss_mb = self.spent.peak_rss_mb.max(usage.peak_rss_mb);
        Ok(took)
    }

    fn usage(&self) -> Result<Usage, String> {
        Ok(self.spent)
    }

    fn counters(&mut self) -> Result<Counters, String> {
        // From here on every restart is scraped before it is killed.
        Ok(*self.counted.get_or_insert_with(Counters::default))
    }

    fn probe_addr(&mut self, env: &Env<'_>) -> Result<String, String> {
        let dir = self.dir.as_ref().ok_or("workload is not set up")?;
        let server = boot_on(env, dir)?;
        let addr = server.addr.clone();
        self.probe_server = Some(server);
        Ok(addr)
    }

    fn boots(&self) -> &[Interval] {
        &self.boots
    }

    fn finish(&mut self, env: &Env<'_>) -> Result<Footprint, String> {
        self.probe_server = None;
        let dir = self.dir.take().ok_or("workload is not set up")?;
        Ok(Footprint {
            disk_bytes: dir.bytes(),
            quads: env.fixture.truth.quads + COLD_TAIL_RECORDS * 2,
        })
    }
}
