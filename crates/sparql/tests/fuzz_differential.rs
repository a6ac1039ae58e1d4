//! Grammar-based fuzz sweep: every seeded case must pass the three-way
//! differential check, the parse → pretty-print → re-parse fixpoint, the
//! JSON/CSV/TSV serialization round-trips and the same answer from every
//! physical shape of its store (see `hbold_sparql_check::fuzz`).
//!
//! The three ways are the engine under its cost-based plan, the engine with
//! every BGP in a seeded random join order, and the naive reference, with
//! `GRAPH`/`FROM` dataset clauses and skewed graph modes; the engine's
//! variable→slot layout is checked on its own. The shapes are the same
//! quads inserted one by one in a shuffled order, restored from the store's
//! snapshot, replayed from a seeded log of WAL records into an empty store,
//! churned (flat, delta and tombstone tiers all non-empty) and sparse (junk
//! terms interned between the logical ones, so runs take the sparse
//! directory); each must give the reference's answer, sorted under
//! `ORDER BY`. A fixed share of seeds generates extraction-shaped queries
//! (`GROUP BY` over 0–2 keys with the six aggregates, with and without
//! `ORDER BY … LIMIT`, now and then a lone pattern under ungrouped counts,
//! which the planner counts off the index directory) and another share
//! browse pages (`?s a <C> . ?s ?p ?o ORDER BY ?s ?p ?o`, and orders beside
//! it that must not stream). Each store is loaded one quad at a time, in one
//! fresh bulk load (ids in term order, where `ORDER BY` streams), or by a
//! fresh load followed by single inserts. The sweep prints what it reached
//! and fails when any mode it counts reached zero cases, so the gate goes
//! red when the generator stops producing that mode.
//!
//! * `HBOLD_FUZZ_CASES=<n>` scales the sweep (default 2048, which both the
//!   debug gate — its engine crates optimised, see below — and the release
//!   run of the whole suite use; local deep sweeps use 10k+).
//! * `HBOLD_FUZZ_SEED=<seed>` reruns exactly one failing case.
//!
//! Seeds run sequentially from 0, so every run covers the same cases. On
//! failure the panic message embeds the seed and the generated query, so
//! any red run is reproducible with `HBOLD_FUZZ_SEED`.

use std::path::Path;

use hbold_sparql_check::fuzz::{
    cases_from_env, check_case, check_update_case, seed_from_env, Coverage,
};

/// `cargo test` builds the dev profile, whose engine crates the workspace
/// optimises (`opt-level = 1` per package in the root `Cargo.toml`) so that
/// the sweeps below run at a useful size. Its debug assertions must stay
/// on: the engine's and the store's `debug_assert!`s are part of what the
/// sweeps check. A test binary's directory names its profile
/// (`target/debug/deps`); a release run has no debug assertions to keep.
#[test]
fn the_debug_gate_keeps_its_debug_assertions() {
    let exe = std::env::current_exe().unwrap();
    let profile = exe.parent().and_then(Path::parent).map(Path::file_name);
    let dev = profile == Some(Some("debug".as_ref()));
    assert!(!dev || cfg!(debug_assertions), "{} has none", exe.display());
}

#[test]
fn generated_queries_agree_across_engines_and_serializations() {
    if let Some(seed) = seed_from_env() {
        if let Err(report) = check_case(seed) {
            panic!("HBOLD_FUZZ_SEED reproduction failed:\n{report}");
        }
        return;
    }
    let cases = cases_from_env(2048);
    let mut failures = Vec::new();
    let mut covered = Coverage::default();
    for seed in 0..cases {
        match check_case(seed) {
            Ok(coverage) => covered += coverage,
            Err(report) => {
                eprintln!("fuzz failure: {report}");
                failures.push(seed);
                if failures.len() >= 5 {
                    break;
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} fuzz case(s) failed; rerun one with HBOLD_FUZZ_SEED={} \
         (see stderr for the full reports)",
        failures.len(),
        failures[0]
    );
    eprintln!(
        "query sweep: {cases} cases; the shuffled leg ran {} multi-pattern BGPs in a \
         non-default order; {} cases ran a group stage, {} a top-k order stage ({} of \
         them over groups), {} a streamed order stage; {} ran on a churned store with all three tiers \
         non-empty, {} on a sparse store with a run whose directory lists its second ids; \
         {} ran group strategy=count, {} of them also on the churned store and {} on the \
         sparse one; {} scan probes read one window of the flat tier, {} merged churn; \
         {} ordered by a SELECT expression's alias, {} by a GROUP BY key they do not project",
        covered.reordered_bgps,
        covered.grouped,
        covered.topk,
        covered.grouped_topk,
        covered.streamed,
        covered.churned,
        covered.sparse,
        covered.counted,
        covered.counted_churned,
        covered.counted_sparse,
        covered.window_probes,
        covered.merged_probes,
        covered.alias_ordered,
        covered.hidden_key_ordered
    );
    // A shuffle that always reproduced the planner's order would make the
    // third leg a copy of the first.
    assert!(
        covered.reordered_bgps > 0,
        "the shuffled leg never left the planned order in {cases} cases"
    );
    // The accumulator, top-k and streamed sinks are where the extraction
    // and browse workloads live: a generator that stopped reaching them —
    // a store generator that stopped making fresh loads, for the last —
    // would leave them checked by nothing.
    assert!(
        covered.grouped > 0 && covered.topk > 0 && covered.streamed > 0,
        "no grouped ({}), top-k ({}) or streamed ({}) case in {cases} cases",
        covered.grouped,
        covered.topk,
        covered.streamed
    );
    // Group rows take the order stage pattern rows take: a sweep that
    // stopped cutting them through the top-k heap would leave that path
    // checked by nothing.
    assert!(
        covered.grouped_topk > 0,
        "no grouped top-k case in {cases} cases"
    );
    // A count read off the index directory answers without a walk, so
    // only the differential checks it; on the churned and sparse shapes it
    // must see through tombstones, delta keys and sparse directories.
    assert!(
        covered.counted > 0 && covered.counted_churned > 0 && covered.counted_sparse > 0,
        "no counted ({}), counted churned ({}) or counted sparse ({}) case in {cases} cases",
        covered.counted,
        covered.counted_churned,
        covered.counted_sparse
    );
    // A probe reads one window of the flat tier, or — where churn reaches
    // into its range — the merged scan: a sweep that stopped reaching either
    // would leave that half of the prepared probe checked by nothing.
    assert!(
        covered.window_probes > 0 && covered.merged_probes > 0,
        "no window ({}) or merged ({}) probe in {cases} cases",
        covered.window_probes,
        covered.merged_probes
    );
    // `ORDER BY` over a name the projection computes or leaves out: the
    // sort runs on rows the projection has not cut down yet.
    assert!(
        covered.alias_ordered > 0 && covered.hidden_key_ordered > 0,
        "no case ordered by an alias ({}) or by an unprojected key ({}) in {cases} cases",
        covered.alias_ordered,
        covered.hidden_key_ordered
    );
    // A shape that no longer reaches its tier state — a fold policy that
    // left no room for churn, a dictionary that stopped spreading ids —
    // would check the dense, flat-only store a second time.
    assert!(
        covered.churned > 0 && covered.sparse > 0,
        "no churned ({}) or sparse ({}) shape in {cases} cases",
        covered.churned,
        covered.sparse
    );
}

/// Interleaved update/query sequences: each seeded case plays a random
/// SPARQL Update sequence against two stores in lockstep — one through the
/// statistics-driven engine planner, one through the naive reference
/// planner — and requires identical outcomes, identical N-Quads
/// fingerprints after every step, the engine store's snapshot restoring to
/// the same quads, a `print_update` → `parse_update` fixpoint, and
/// agreement on follow-up probe queries. Reruns one case
/// with `HBOLD_FUZZ_SEED=<seed> cargo test --test fuzz_differential
/// generated_update_sequences`.
#[test]
fn generated_update_sequences_agree_with_naive_reference() {
    if let Some(seed) = seed_from_env() {
        if let Err(report) = check_update_case(seed) {
            panic!("HBOLD_FUZZ_SEED update reproduction failed:\n{report}");
        }
        return;
    }
    let cases = cases_from_env(2048);
    eprintln!("update-sequence sweep: {cases} cases, seeds 0..{cases}");
    let mut failures = Vec::new();
    for seed in 0..cases {
        if let Err(report) = check_update_case(seed) {
            eprintln!("update fuzz failure: {report}");
            failures.push(seed);
            if failures.len() >= 5 {
                break;
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} update fuzz case(s) failed; rerun one with HBOLD_FUZZ_SEED={} \
         (see stderr for the full reports)",
        failures.len(),
        failures[0]
    );
}
