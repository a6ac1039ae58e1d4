//! Grammar-based fuzz sweep: every seeded case must pass the three-way
//! differential check, the parse → pretty-print → re-parse fixpoint, the
//! JSON/CSV/TSV serialization round-trips and the same answer from every
//! physical shape of its store (see `hbold_sparql_check::fuzz`).
//!
//! * `HBOLD_FUZZ_CASES=<n>` scales the sweep (default 512; the CI smoke job
//!   uses the default, local deep sweeps use 10k+).
//! * `HBOLD_FUZZ_SEED=<seed>` reruns exactly one failing case.
//!
//! On failure the panic message embeds the seed and the generated query, so
//! any red run is reproducible with `HBOLD_FUZZ_SEED`.

use hbold_sparql_check::fuzz::{
    cases_from_env, check_case, check_update_case, seed_from_env, Coverage,
};

#[test]
fn generated_queries_agree_across_engines_and_serializations() {
    if let Some(seed) = seed_from_env() {
        if let Err(report) = check_case(seed) {
            panic!("HBOLD_FUZZ_SEED reproduction failed:\n{report}");
        }
        return;
    }
    let cases = cases_from_env(512);
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
         non-default order; {} cases ran a group stage, {} a top-k order stage, {} a \
         streamed order stage; {} ran on a churned store with all three tiers \
         non-empty, {} on a sparse store with a run whose directory lists its second ids; \
         {} ran group strategy=count, {} of them also on the churned store and {} on the \
         sparse one; {} scan probes read one window of the flat tier, {} merged churn",
        covered.reordered_bgps,
        covered.grouped,
        covered.topk,
        covered.streamed,
        covered.churned,
        covered.sparse,
        covered.counted,
        covered.counted_churned,
        covered.counted_sparse,
        covered.window_probes,
        covered.merged_probes
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
/// fingerprints after every step, a `print_update` → `parse_update`
/// fixpoint, and agreement on follow-up probe queries. Reruns one case
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
    let cases = cases_from_env(512);
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
