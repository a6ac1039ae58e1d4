//! The plan-cache claim behind the `pipeline_scaling` bench: repeated
//! extraction queries must come out of the cache.

use hbold_endpoint::synth::{random_lod, RandomLodConfig};

#[test]
fn repeated_extraction_queries_hit_the_plan_cache() {
    let endpoint = hbold_endpoint::SparqlEndpoint::new(
        "http://plancache.example/sparql",
        &random_lod(&RandomLodConfig::sized(10, 400, 77)),
        hbold_endpoint::EndpointProfile::full_featured(),
    );
    let docs = hbold_docstore::DocStore::in_memory();
    let pipeline = hbold::ExtractionPipeline::new(&docs);
    pipeline.run(&endpoint, 0, None).unwrap();
    let cold = hbold_sparql::plan::stats();
    // A repeat extraction issues the same statistics query shapes: every one
    // of them must come out of the plan cache.
    pipeline.run(&endpoint, 1, None).unwrap();
    let warm = hbold_sparql::plan::stats();
    let new_hits = warm.hits - cold.hits;
    let new_misses = warm.misses - cold.misses;
    println!(
        "plan cache across repeat extraction: +{new_hits} hits, +{new_misses} misses \
         (overall hit rate {:.1}%)",
        warm.hit_rate() * 100.0
    );
    assert!(
        new_hits > 0,
        "repeat extraction produced no plan-cache hits"
    );
    assert_eq!(
        new_misses, 0,
        "repeat extraction re-parsed queries it should have cached"
    );
}
