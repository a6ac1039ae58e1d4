//! Substrate microbenchmarks: the SPARQL queries Index Extraction issues most
//! often, measured directly against the store (supports the E8 analysis).

use criterion::{criterion_group, criterion_main, Criterion};
use hbold_endpoint::synth::{random_lod, RandomLodConfig};
use hbold_sparql::{evaluate_with_hooks, execute_query, CancellationToken, EvalHooks};
use hbold_triple_store::TripleStore;

fn bench(c: &mut Criterion) {
    let graph = random_lod(&RandomLodConfig::sized(40, 4_000, 11));
    let store = TripleStore::from_graph(&graph);
    let mut group = c.benchmark_group("sparql_engine");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("count_all_triples", |b| {
        b.iter(|| execute_query(&store, "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }").unwrap())
    });
    group.bench_function("classes_with_counts_group_by", |b| {
        b.iter(|| {
            execute_query(
                &store,
                "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c ORDER BY DESC(?n)",
            )
            .unwrap()
        })
    });
    group.bench_function("regex_filter_scan", |b| {
        b.iter(|| {
            execute_query(
                &store,
                "SELECT ?s WHERE { ?s ?p ?o FILTER(regex(?o, 'value-1')) } LIMIT 50",
            )
            .unwrap()
        })
    });
    group.bench_function("order_by_topk_limit", |b| {
        // Streams through the top-k heap instead of a full sort.
        b.iter(|| {
            execute_query(
                &store,
                "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?o LIMIT 10",
            )
            .unwrap()
        })
    });
    group.bench_function("extraction_bgp_join", |b| {
        // The headline perf-trajectory number (BENCH_*.json): an
        // extraction-style two-pattern join materializing every solution —
        // exactly the shape whose intermediate-row cost the encoded engine
        // attacks.
        b.iter(|| execute_query(&store, "SELECT ?s ?p ?o WHERE { ?s a ?c . ?s ?p ?o }").unwrap())
    });
    group.bench_function("extraction_class_properties_distinct", |b| {
        // H-BOLD's class/property table: join + DISTINCT dedup of a wide
        // intermediate result.
        b.iter(|| {
            execute_query(&store, "SELECT DISTINCT ?c ?p WHERE { ?s a ?c . ?s ?p ?o }").unwrap()
        })
    });
    group.finish();

    // Cancellation-token overhead on the headline join: no token vs an
    // armed deadline token that never trips (the server's steady state
    // under --query-timeout-ms). The poll is one relaxed atomic load per
    // 1024 rows, so the two must be within noise of each other.
    let mut group = c.benchmark_group("cancellation");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    let join_query = hbold_sparql::parse_query("SELECT ?s ?p ?o WHERE { ?s a ?c . ?s ?p ?o }")
        .expect("bench query parses");
    group.bench_function("extraction_bgp_join_no_token", |b| {
        b.iter(|| evaluate_with_hooks(&store, &join_query, &EvalHooks::default()).unwrap())
    });
    group.bench_function("extraction_bgp_join_armed_token", |b| {
        b.iter(|| {
            let token = CancellationToken::with_timeout(std::time::Duration::from_secs(3600));
            evaluate_with_hooks(
                &store,
                &join_query,
                &EvalHooks {
                    cancel: Some(&token),
                    ..EvalHooks::default()
                },
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
