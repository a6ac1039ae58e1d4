//! Cancellation soundness, fuzzed: for generated queries, tripping a
//! [`CancellationToken`] after *every possible number of checks* must yield
//! either the exact uncancelled result (the token tripped too late to
//! matter) or a typed `Cancelled` error — never a truncated result, a
//! panic, or a hang.
//!
//! * `HBOLD_FUZZ_CASES=<n>` scales the sweep (default 96 seeds here — each
//!   seed costs up to ~40 evaluations for the boundary sweep).
//! * `HBOLD_FUZZ_SEED=<seed>` reruns exactly one failing case.

use hbold_sparql::{evaluate_with_hooks, CancellationToken, EvalHooks, QueryResults, SparqlError};
use hbold_sparql_check::fuzz::{
    cases_from_env, generate_query, generate_store, seed_from_env, FuzzRng,
};
use hbold_sparql_check::pretty::print_query;
use hbold_triple_store::TripleStore;

/// Longest `cancel_after_checks` sweep per seed. Queries needing more
/// checks than this finish uncancelled earlier in the sweep and break out.
const MAX_BOUNDARY: u64 = 40;

/// Fingerprint of a result; rows compare as a multiset unless ORDER BY
/// pins their sequence.
fn fingerprint(results: &QueryResults, ordered: bool) -> String {
    match results {
        QueryResults::Ask(b) => format!("ask:{b}"),
        QueryResults::Select(rows) => {
            let mut lines: Vec<String> = rows.rows.iter().map(|row| format!("{row:?}")).collect();
            if !ordered {
                lines.sort();
            }
            format!("select:{}:{}", rows.variables.join(","), lines.join("|"))
        }
    }
}

fn eval(
    store: &TripleStore,
    query: &hbold_sparql::ast::Query,
    token: Option<&CancellationToken>,
) -> Result<QueryResults, SparqlError> {
    evaluate_with_hooks(
        store,
        query,
        &EvalHooks {
            cancel: token,
            ..EvalHooks::default()
        },
    )
}

/// One seed: sweep the token trip point across every batch boundary.
/// Returns the number of typed cancellations observed (so the caller can
/// assert the sweep exercised the cancel path at all), or a reproduction
/// report.
fn check_cancel_case(seed: u64) -> Result<u64, String> {
    let mut rng = FuzzRng::new(seed);
    let store = generate_store(&mut rng);
    let query = generate_query(&mut rng);
    let printed = print_query(&query);
    let fail = |msg: String| format!("seed {seed}: {msg}\n  query: {printed}");

    // The uncancelled run is the ground truth. The engine may legitimately
    // reject queries the grammar can generate; then every cancelled run
    // must reject or cancel too, never succeed.
    let reference = eval(&store, &query, None);
    let ordered = !query.order_by.is_empty();
    let expected = match &reference {
        Ok(results) => Some(fingerprint(results, ordered)),
        Err(_) => None,
    };

    let mut cancellations = 0;
    let mut finished_in_a_row = 0;
    for boundary in 1..=MAX_BOUNDARY {
        let token = CancellationToken::cancel_after_checks(boundary);
        match eval(&store, &query, Some(&token)) {
            Err(SparqlError::Cancelled) => {
                cancellations += 1;
                finished_in_a_row = 0;
            }
            Err(_) if expected.is_none() => finished_in_a_row += 1,
            Err(e) => {
                return Err(fail(format!(
                    "boundary {boundary}: expected the uncancelled result or \
                     Cancelled, got a different error: {e}"
                )))
            }
            Ok(results) => {
                let Some(expected) = &expected else {
                    return Err(fail(format!(
                        "boundary {boundary} succeeded, but the uncancelled run errored"
                    )));
                };
                let got = fingerprint(&results, ordered);
                if &got != expected {
                    return Err(fail(format!(
                        "boundary {boundary} returned a DIFFERENT result than the \
                         uncancelled run — truncation?\
                         \n  expected: {expected}\n  got:      {got}"
                    )));
                }
                finished_in_a_row += 1;
            }
        }
        // Once the evaluation finishes before the trip point twice in a
        // row, later boundaries only finish sooner; stop the sweep.
        if finished_in_a_row >= 2 {
            break;
        }
    }
    Ok(cancellations)
}

#[test]
fn cancelling_at_every_batch_boundary_never_truncates() {
    if let Some(seed) = seed_from_env() {
        if let Err(report) = check_cancel_case(seed) {
            panic!("HBOLD_FUZZ_SEED reproduction failed:\n{report}");
        }
        return;
    }
    let cases = cases_from_env(96);
    let mut failures = Vec::new();
    let mut total_cancellations = 0;
    for seed in 0..cases {
        match check_cancel_case(seed) {
            Ok(cancellations) => total_cancellations += cancellations,
            Err(report) => {
                eprintln!("cancellation fuzz failure: {report}");
                failures.push(seed);
                if failures.len() >= 5 {
                    break;
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} cancellation case(s) failed; rerun one with HBOLD_FUZZ_SEED={} \
         (see stderr for the full reports)",
        failures.len(),
        failures[0]
    );
    // The sweep must have actually exercised the cancel path — a token the
    // engine never polls would make every case pass vacuously.
    assert!(
        total_cancellations > 0,
        "no boundary in {cases} seeds produced a typed cancellation — is \
         the engine polling the token at all?"
    );
}

/// A deadline token against a pathologically large cross join: the typed
/// `DeadlineExceeded` must surface promptly — the engine checks the clock
/// at batch boundaries, not only between operators.
#[test]
fn deadlines_cut_off_a_cross_join_mid_operator() {
    let mut rng = FuzzRng::new(7);
    let store = generate_store(&mut rng);
    // Six patterns: on the ~22-triple fuzz store this is 22^6 ≈ 1.1e8
    // combinations — far past what a release build can count in 30 ms.
    let query = hbold_sparql::parse_query(
        "SELECT (COUNT(*) AS ?count) WHERE { \
         ?a ?b ?c . ?d ?e ?f . ?g ?h ?i . ?j ?k ?l . ?m ?n ?o . ?p ?q ?r }",
    )
    .expect("parses");
    let token = CancellationToken::with_timeout(std::time::Duration::from_millis(30));
    let started = std::time::Instant::now();
    let result = eval(&store, &query, Some(&token));
    let elapsed = started.elapsed();
    assert!(
        matches!(result, Err(SparqlError::DeadlineExceeded)),
        "expected DeadlineExceeded, got {result:?}"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "deadline took {elapsed:?} to fire — cancellation is not cooperative"
    );
}

/// A join that hands nothing downstream — every row of the cross product is
/// rejected by the filter — must still be cancellable: the token is polled
/// where the join does its work, not only where rows leave the pipeline.
/// (Polled at the root alone, this query passes its single check, runs the
/// whole product and returns `Ok(empty)` whatever the token says.)
#[test]
fn a_join_that_produces_no_rows_is_still_cancelled() {
    let mut rng = FuzzRng::new(7);
    let store = generate_store(&mut rng);
    let query = hbold_sparql::parse_query(
        "SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i FILTER(STR(?a) = \"nope\") }",
    )
    .expect("parses");
    match eval(&store, &query, None) {
        Ok(QueryResults::Select(rows)) => assert!(rows.rows.is_empty(), "not a zero-row join"),
        other => panic!("uncancelled run: {other:?}"),
    }
    // The product has len³ rows and every one of them is a check; trip the
    // token early, in the middle and late.
    let product = (store.len() as u64).pow(3);
    for checks in [1, 7, product / 2, product] {
        let token = CancellationToken::cancel_after_checks(checks);
        let result = eval(&store, &query, Some(&token));
        assert!(
            matches!(result, Err(SparqlError::Cancelled)),
            "tripping after {checks} checks: expected Cancelled, got {result:?}"
        );
    }
}

/// A count read off the index directory walks no rows: it passes its two
/// checks — one before the first row, one at its one group — and answers
/// exactly however large the store. The same count behind a filter walks
/// every quad, each a check under this token, and is cancelled.
#[test]
fn a_count_off_the_directory_walks_no_rows() {
    use hbold_rdf_model::{Iri, Literal, Triple};
    const QUADS: usize = 100_000;
    let triples: Vec<Triple> = (0..QUADS)
        .map(|i| {
            let s = Iri::new(format!("http://c.example/s{}", i / 4)).unwrap();
            let p = Iri::new(format!("http://c.example/p{}", i % 4)).unwrap();
            Triple::new(s, p, Literal::string(format!("{i}")))
        })
        .collect();
    let mut store = TripleStore::new();
    store.insert_batch(triples.iter());
    let counted = hbold_sparql::parse_query("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }").unwrap();
    let token = CancellationToken::cancel_after_checks(2);
    match eval(&store, &counted, Some(&token)) {
        Ok(QueryResults::Select(rows)) => {
            let count = rows.rows[0][0].as_ref().unwrap().label().to_string();
            assert_eq!(count, QUADS.to_string());
        }
        other => panic!("the counted query did not answer: {other:?}"),
    }
    let walked =
        hbold_sparql::parse_query("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o FILTER(BOUND(?s)) }")
            .unwrap();
    let token = CancellationToken::cancel_after_checks(2);
    let result = eval(&store, &walked, Some(&token));
    assert!(
        matches!(result, Err(SparqlError::Cancelled)),
        "expected Cancelled, got {result:?}"
    );
}
