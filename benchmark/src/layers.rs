//! The in-process half of the per-layer lane: one cost number per component.
//!
//! Every crate's public entry points are timed from outside, on the same
//! fixture the servers load, after the end-to-end phases (so they cannot
//! disturb them). Each time is the median of [`REPS`] repetitions — of
//! [`HEAVY_REPS`] for the calls that take a tenth of a second or more — and
//! is reported at reference speed, with the raw reading beside it. Counts
//! (bytes, rows) are exact.
//!
//! Which end-to-end metric each number should move is the "moves" column of
//! the catalogue in `benchmark/README.md`.

use std::hint::black_box;
use std::time::Instant;

use hbold::ExtractionPipeline;
use hbold_cluster::{ClusterSchema, ClusteringAlgorithm};
use hbold_docstore::DocStore;
use hbold_endpoint::{EndpointProfile, HttpSparqlClient, SparqlEndpoint};
use hbold_rdf_model::vocab::rdf;
use hbold_rdf_model::{Iri, Literal, Quad, Triple, TriplePattern};
use hbold_schema::{IndexExtractor, SchemaSummary};
use hbold_sparql::{
    evaluate_with, parse_cached, parse_query, parse_update, plan_update_op_with, EvalOptions,
    QueryResults,
};
use hbold_telemetry::Span;
use hbold_triple_store::persist::snapshot;
use hbold_triple_store::{SharedStore, TripleStore};
use hbold_viz::{CirclePackLayout, SunburstLayout, TreemapLayout};

use crate::calib::{Interval, Reading, Sampler};
use crate::http::Client;
use crate::proc::{self, ScratchDir, Server, ServerArgs};
use crate::stats::Metric;
use crate::workloads::{Env, COLD_TAIL_RECORDS};

/// Repetitions behind every median.
const REPS: usize = 9;
/// Repetitions for calls of 0.1 s and more (loads, recoveries, parses): the
/// lane has to fit in a run.
const HEAVY_REPS: usize = 5;

/// Collects the lane's metrics.
struct Lane<'s> {
    sampler: &'s Sampler,
    metrics: Vec<Metric>,
}

impl Lane<'_> {
    /// Median wall time of `reps` calls of `f` in milliseconds, each call
    /// converted to reference speed with the factor of its own interval.
    fn time_ms<T>(&self, reps: usize, mut f: impl FnMut() -> T) -> Reading {
        let readings: Vec<Reading> = (0..reps)
            .map(|_| {
                let start = Instant::now();
                let out = f();
                let took = Interval::since(start);
                drop(black_box(out)); // freeing the result is not the call's cost
                self.sampler.reading(took.ms(), took)
            })
            .collect();
        Reading::median_of(&readings)
    }

    /// A time, reported at reference speed.
    fn record(&mut self, name: &'static str, timing: Reading, unit: &'static str) {
        self.metrics.push(timing.metric(name, unit));
    }

    /// `work` units per second of `timing` (milliseconds): a rate, so a
    /// faster host reads higher and the conversion runs the other way.
    fn record_rate(&mut self, name: &'static str, work: f64, timing: Reading, unit: &'static str) {
        self.metrics.push(
            Metric::new(name, work * 1e3 / timing.calibrated, unit)
                .note(format!("raw {:.4} {unit}", work * 1e3 / timing.raw)),
        );
    }

    fn count(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }
}

fn check(condition: bool, what: &str) -> Result<(), String> {
    if condition {
        Ok(())
    } else {
        Err(format!("layer lane: {what}"))
    }
}

fn bench_quad(record: usize, property: &str, value: Literal) -> Quad {
    let subject = Iri::new_unchecked(format!("http://bench.hbold.example/layer/s{record}"));
    let property = Iri::new_unchecked(format!("http://bench.hbold.example/{property}"));
    Quad::new(Triple::new(subject, property, value), None)
}

/// The two quads an update record of the workloads carries.
fn bench_update(record: usize) -> Vec<Quad> {
    vec![
        bench_quad(record, "batch", Literal::integer(record as i64)),
        bench_quad(record, "value", Literal::string(format!("v-{record:016x}"))),
    ]
}

fn scan_rows(span: &Span) -> u64 {
    let own = if span.name() == "scan" {
        span.rows()
    } else {
        0
    };
    own + span.children().iter().map(scan_rows).sum::<u64>()
}

/// Runs the lane and returns its metrics.
pub fn run(
    env: &Env<'_>,
    sampler: &Sampler,
    allowed_cpus: &[usize],
) -> Result<Vec<Metric>, String> {
    let fixture = env.fixture;
    let graph = &fixture.graph;
    let quads = fixture.truth.quads;
    let mut lane = Lane {
        sampler,
        metrics: Vec::new(),
    };

    // --- rdf-parser -----------------------------------------------------------------
    let text = std::fs::read_to_string(&fixture.nt_path)
        .map_err(|e| format!("cannot read the fixture back: {e}"))?;
    let mut parsed_len = 0;
    let ms = lane.time_ms(HEAVY_REPS, || {
        parsed_len = hbold_rdf_parser::parse_ntriples(&text).map_or(0, |g| g.len());
    });
    check(parsed_len == quads, "the parser lost quads")?;
    lane.record("rdf-parser.ntriples_parse_ms", ms, "ms");
    lane.record_rate(
        "rdf-parser.ntriples_mb_per_s",
        text.len() as f64 / 1e6,
        ms,
        "MB/s",
    );
    drop(text);

    // --- triple-store ---------------------------------------------------------------
    let ms = lane.time_ms(HEAVY_REPS, || TripleStore::from_graph(graph));
    lane.record("triple-store.from_graph_ms", ms, "ms");
    let store = TripleStore::from_graph(graph);
    check(store.len() == quads, "from_graph lost quads")?;

    let mut scanned = 0;
    let ms = lane.time_ms(REPS, || {
        scanned = store.matching_encoded_iter(None, None, None).count();
    });
    check(scanned == quads, "a full scan lost quads")?;
    lane.record_rate(
        "triple-store.scan_mrows_per_s",
        quads as f64 / 1e6,
        ms,
        "Mrows/s",
    );

    let typed = TriplePattern::any()
        .with_predicate(rdf::type_())
        .with_object(fixture.browse_class.clone());
    let mut counted = 0;
    let ms = lane.time_ms(REPS, || counted = store.count_matching(&typed));
    check(
        Some(&counted) == fixture.truth.class_sizes.get(&fixture.browse_class),
        "count_matching disagrees with the fixture",
    )?;
    lane.record("triple-store.count_matching_us", ms.scaled(1e3), "us");

    let shared = SharedStore::from_store(store.clone());
    let ms = lane.time_ms(REPS, || {
        for _ in 0..1000 {
            black_box(shared.snapshot());
        }
    });
    lane.record("triple-store.snapshot_us", ms, "us"); // ms per 1000 calls = µs per call

    // An update with no reader in the way, and the same update while a
    // reader holds a snapshot, which forces the copy-on-write clone.
    let mut record = 0;
    let mut apply_next = |shared: &SharedStore| {
        record += 1;
        let inserts = bench_update(record);
        shared.apply_update(|_| (Vec::new(), inserts))
    };
    let ms = lane.time_ms(REPS * 3, || apply_next(&shared));
    lane.record("triple-store.apply_update_ms", ms, "ms");
    let ms = lane.time_ms(REPS, || {
        let held = shared.snapshot();
        let applied = apply_next(&shared);
        drop(held);
        applied
    });
    lane.record("triple-store.apply_update_cow_ms", ms, "ms");
    drop(shared);

    // Durable paths, each repetition on a directory of its own.
    let dirs = ScratchDir::create(env.scratch.join("layers"))?;
    let mut fresh = 0;
    let mut fresh_dir = || {
        fresh += 1;
        dirs.path().join(format!("d{fresh}"))
    };
    let open = |dir: &std::path::Path| {
        SharedStore::open(dir).map_err(|e| format!("cannot open {}: {e}", dir.display()))
    };
    let ms = lane.time_ms(HEAVY_REPS, || {
        let (durable, _) = SharedStore::open(fresh_dir()).expect("fresh directory opens");
        let loaded = durable.bulk_load(graph.iter());
        (durable, loaded)
    });
    lane.record("triple-store.bulk_load_durable_ms", ms, "ms");

    let dir = fresh_dir();
    let (durable, _) = open(&dir)?;
    check(
        durable.bulk_load(graph.iter()) == quads,
        "bulk_load lost quads",
    )?;
    let wal_after_load = durable.wal_bytes().unwrap_or(0);
    lane.count(
        "triple-store.persist.wal_bulk_bytes_per_quad",
        wal_after_load as f64 / quads as f64,
        "bytes/quad",
    );
    let mut generation = 0;
    let ms = lane.time_ms(HEAVY_REPS, || {
        // A checkpoint with an empty log is skipped; keep one record in it.
        durable.apply_update(|_| (Vec::new(), bench_update(0)));
        generation = durable
            .checkpoint()
            .expect("checkpoint succeeds")
            .unwrap_or(0);
    });
    lane.record("triple-store.persist.checkpoint_ms", ms, "ms");
    let snapshot_path = dir.join(format!("snapshot-{generation:016}.hbs"));
    let snapshot_bytes = std::fs::metadata(&snapshot_path)
        .map_err(|e| format!("{}: {e}", snapshot_path.display()))?
        .len();
    lane.count(
        "triple-store.persist.snapshot_bytes_per_quad",
        snapshot_bytes as f64 / durable.len() as f64,
        "bytes/quad",
    );
    for record in 1..=COLD_TAIL_RECORDS {
        durable.apply_update(|_| (Vec::new(), bench_update(record)));
    }
    lane.count(
        "triple-store.persist.wal_bytes_per_update",
        durable.wal_bytes().unwrap_or(0) as f64 / COLD_TAIL_RECORDS as f64,
        "bytes",
    );
    let stored = durable.len();
    drop(durable); // releases the directory lock; the tail stays in the log

    let load_ms = lane.time_ms(HEAVY_REPS, || {
        snapshot::read_file(&snapshot_path).map_or(0, |s| s.len())
    });
    lane.record("triple-store.persist.snapshot_load_ms", load_ms, "ms");
    let mut recovered = (0, 0);
    let recover_ms = lane.time_ms(HEAVY_REPS, || {
        let (store, report) = SharedStore::open(&dir).expect("prepared directory recovers");
        recovered = (store.len(), report.wal_ops_replayed);
    });
    check(
        recovered == (stored, COLD_TAIL_RECORDS),
        "recovery lost quads or log records",
    )?;
    lane.record("triple-store.persist.recover_ms", recover_ms, "ms");
    lane.record(
        "triple-store.persist.wal_replay_ms_per_record",
        Reading {
            raw: (recover_ms.raw - load_ms.raw).max(0.0),
            calibrated: (recover_ms.calibrated - load_ms.calibrated).max(0.0),
        }
        .scaled(1.0 / COLD_TAIL_RECORDS as f64),
        "ms",
    );

    // --- sparql ---------------------------------------------------------------------
    let extraction = fixture.extraction_queries();
    let browse = fixture.browse_queries();
    let per_query = extraction.len() as f64;
    let ms = lane.time_ms(REPS, || {
        extraction.iter().filter(|q| parse_query(q).is_ok()).count()
    });
    lane.record(
        "sparql.parse_us_per_query",
        ms.scaled(1e3 / per_query),
        "us",
    );
    let plans = |queries: &[String]| {
        queries
            .iter()
            .map(|q| parse_cached(q).map_err(|e| format!("{q}: {e}")))
            .collect::<Result<Vec<_>, _>>()
    };
    let extraction_plans = plans(&extraction)?; // also warms the plan cache
    let browse_plans = plans(&browse)?;
    let ms = lane.time_ms(REPS, || {
        extraction
            .iter()
            .filter(|q| parse_cached(q).is_ok())
            .count()
    });
    lane.record("sparql.plan_cache_hit_us", ms.scaled(1e3 / per_query), "us");

    let evaluate_all = |plans: &[std::sync::Arc<hbold_sparql::ast::Query>],
                        options: &EvalOptions| {
        plans
            .iter()
            .map(|plan| evaluate_with(&store, plan, options).expect("fixture queries evaluate"))
            .collect::<Vec<QueryResults>>()
    };
    let sequential = EvalOptions::sequential();
    let ms = lane.time_ms(REPS, || evaluate_all(&extraction_plans, &sequential));
    lane.record("sparql.eval_seq_ms_per_pass", ms, "ms");
    // The only place the parallel evaluator is read: `auto()` sizes itself
    // from the CPUs the calling thread may use, so it needs a thread that is
    // not pinned.
    let ms = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                proc::set_affinity(allowed_cpus);
                let auto = EvalOptions::auto();
                lane.time_ms(REPS, || evaluate_all(&extraction_plans, &auto))
            })
            .join()
    })
    .map_err(|_| "the unpinned evaluation thread panicked")?;
    lane.record("sparql.eval_auto_ms_per_pass", ms, "ms");
    let ms = lane.time_ms(REPS, || evaluate_all(&browse_plans, &sequential));
    lane.record("sparql.eval_browse_ms_per_op", ms, "ms");

    let traced = SparqlEndpoint::from_store(
        "http://layers.bench/sparql",
        store.clone(),
        EndpointProfile::full_featured(),
    );
    let (mut scanned, mut returned) = (0u64, 0u64);
    for text in &extraction {
        let (_, span) = traced
            .trace_query(text)
            .map_err(|e| format!("{text}: {e}"))?;
        scanned += scan_rows(&span);
        returned += span.rows();
    }
    lane.count(
        "sparql.rows_scanned_per_result",
        scanned as f64 / returned.max(1) as f64,
        "count",
    );

    let pages: Vec<_> = evaluate_all(&browse_plans, &sequential)
        .into_iter()
        .filter_map(QueryResults::into_select)
        .collect();
    let page_rows: usize = pages.iter().map(|p| p.len()).sum();
    check(
        page_rows == fixture.truth.browse_rows.len(),
        "the browse pages are short",
    )?;
    let total_len = |texts: Vec<String>| texts.iter().map(String::len).sum::<usize>();
    let ms = lane.time_ms(REPS, || {
        total_len(pages.iter().map(|p| p.to_sparql_json()).collect())
    });
    lane.record("sparql.serialize_json_ms_per_op", ms, "ms");
    let ms = lane.time_ms(REPS, || {
        total_len(pages.iter().map(|p| p.to_csv()).collect())
    });
    lane.record("sparql.serialize_csv_ms_per_op", ms, "ms");
    let ms = lane.time_ms(REPS, || {
        total_len(pages.iter().map(|p| p.to_tsv()).collect())
    });
    lane.record("sparql.serialize_tsv_ms_per_op", ms, "ms");
    let bodies: Vec<String> = pages.iter().map(|p| p.to_sparql_json()).collect();
    lane.count(
        "sparql.json_bytes_per_row",
        total_len(bodies.clone()) as f64 / page_rows as f64,
        "bytes",
    );
    let ms = lane.time_ms(REPS, || {
        bodies
            .iter()
            .filter(|b| QueryResults::from_sparql_json(b).is_ok())
            .count()
    });
    lane.record("sparql.json_decode_ms_per_op", ms, "ms");

    let mut statement = 0;
    let ms = lane.time_ms(REPS, || {
        // 100 distinct statements per sample, as in the update stream.
        for _ in 0..100 {
            statement += 1;
            let text = format!(
                "INSERT DATA {{ <http://bench.hbold.example/layer/u{statement}> <http://bench.hbold.example/batch> \"{statement}\"^^<http://www.w3.org/2001/XMLSchema#integer> . <http://bench.hbold.example/layer/u{statement}> <http://bench.hbold.example/value> \"v-{statement:016x}\" . }}"
            );
            let ops = parse_update(&text).expect("update parses");
            black_box(plan_update_op_with(&store, &ops[0], None).expect("update plans"));
        }
    });
    lane.record("sparql.update_plan_us", ms.scaled(10.0), "us"); // per 100 statements

    // --- schema, cluster, viz -------------------------------------------------------
    let local = SparqlEndpoint::from_store(
        "http://local.bench/sparql",
        store,
        EndpointProfile::full_featured(),
    )
    .with_eval_options(EvalOptions::sequential());
    let extractor = IndexExtractor::aggregate_only();
    let ms = lane.time_ms(REPS, || {
        extractor.extract(&local, 0).map(|(indexes, _)| indexes)
    });
    lane.record("schema.extract_inproc_ms", ms, "ms");
    let (indexes, _) = extractor
        .extract(&local, 0)
        .map_err(|e| format!("in-process extraction: {e}"))?;
    check(
        indexes.triples == quads && indexes.class_count() == fixture.truth.class_sizes.len(),
        "in-process extraction disagrees with the fixture",
    )?;
    drop(local);
    let ms = lane.time_ms(REPS, || SchemaSummary::from_indexes(&indexes));
    lane.record("schema.summary_ms", ms, "ms");
    let summary = SchemaSummary::from_indexes(&indexes);
    let ms = lane.time_ms(REPS, || {
        ClusterSchema::build(&summary, ClusteringAlgorithm::Louvain, 0)
    });
    lane.record("cluster.louvain_ms", ms, "ms");
    let clusters = ClusterSchema::build(&summary, ClusteringAlgorithm::Louvain, 0);
    check(
        clusters.is_partition(summary.node_count()),
        "the clustering is not a partition",
    )?;
    let ms = lane.time_ms(REPS, || {
        TreemapLayout::compute(&summary, &clusters, 960.0, 600.0).to_svg()
    });
    lane.record("viz.treemap_ms", ms, "ms");
    let ms = lane.time_ms(REPS, || {
        SunburstLayout::compute(&summary, &clusters, 800.0).to_svg()
    });
    lane.record("viz.sunburst_ms", ms, "ms");
    let ms = lane.time_ms(REPS, || {
        CirclePackLayout::compute(&summary, &clusters, 800.0).to_svg()
    });
    lane.record("viz.circlepack_ms", ms, "ms");

    // --- through a socket: schema, endpoint, hbold, docstore, telemetry -------------
    let server_dir = ScratchDir::create(env.scratch.join("layers-server"))?;
    let server = Server::spawn(
        &env.server_bin,
        &ServerArgs {
            data_dir: server_dir.path(),
            load: Some(&fixture.nt_path),
            checkpoint_wal_bytes: None,
        },
    )?;
    let remote = SparqlEndpoint::remote(server.url.clone());
    let ms = lane.time_ms(HEAVY_REPS, || {
        extractor
            .extract(&remote, 0)
            .map(|(indexes, _)| indexes.triples)
    });
    lane.record("schema.extract_remote_ms", ms, "ms");

    let client = HttpSparqlClient::new(server.url.clone());
    let mut answered = 0;
    let ms = lane.time_ms(REPS, || {
        answered += (0..20)
            .filter(|_| client.query("ASK { ?s ?p ?o }") == Ok(QueryResults::Ask(true)))
            .count();
    });
    check(
        answered == REPS * 20,
        "an ASK through HttpSparqlClient failed",
    )?;
    lane.record("endpoint.client_query_us", ms.scaled(1e3 / 20.0), "us");

    let docs = DocStore::open(dirs.path().join("docstore")).map_err(|e| e.to_string())?;
    let pipeline = ExtractionPipeline::new(&docs).with_extractor(extractor.clone());
    let mut pipeline_ok = true;
    let ms = lane.time_ms(HEAVY_REPS, || {
        pipeline_ok &= pipeline
            .run(&remote, 0, None)
            .is_ok_and(|result| result.indexes.triples == quads);
    });
    check(
        pipeline_ok,
        "ExtractionPipeline::run disagrees with the fixture",
    )?;
    lane.record("hbold.pipeline_remote_ms", ms, "ms");
    let mut persisted = true;
    let ms = lane.time_ms(REPS, || persisted &= docs.persist().is_ok());
    check(persisted, "DocStore::persist failed")?;
    lane.record("docstore.persist_ms", ms, "ms");

    let mut scraper = Client::connect(&server.addr).map_err(|e| format!("scrape: {e}"))?;
    let mut scraped = true;
    let ms = lane.time_ms(REPS, || {
        scraped &= scraper
            .request("GET", "/metrics", "text/plain", None)
            .is_ok_and(|exchange| exchange.status == 200);
    });
    check(scraped, "GET /metrics failed")?;
    lane.record("telemetry.metrics_scrape_ms", ms, "ms");
    drop(server);

    Ok(lane.metrics)
}
