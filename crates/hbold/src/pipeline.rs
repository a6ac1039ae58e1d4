//! The extraction pipeline: endpoint → indexes → Schema Summary → Cluster
//! Schema → document store.
//!
//! Section 3.2 of the paper describes the architectural change this module
//! reproduces: the Cluster Schema used to be computed *on the fly* in the
//! presentation layer at every user click; the re-engineered tool computes it
//! once, right after index extraction, and stores it in MongoDB so the
//! presentation layer only performs a lookup. Both paths are implemented so
//! experiment E1 can compare them.

use std::fmt;
use std::time::{Duration, Instant};

use hbold_cluster::{ClusterSchema, ClusteringAlgorithm};
use hbold_docstore::{DocStore, Filter};
use hbold_endpoint::SparqlEndpoint;
use hbold_schema::{
    DatasetIndexes, ExtractionError, ExtractionReport, IndexExtractor, SchemaSummary,
};
use hbold_triple_store::SharedStore;

use crate::catalog::{EndpointCatalog, EndpointSource};
use crate::observations::record_observations;

/// Failure of the pipeline for one endpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Index extraction failed.
    Extraction(ExtractionError),
    /// No stored summary / cluster schema exists for the requested endpoint.
    NotStored(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Extraction(e) => write!(f, "{e}"),
            PipelineError::NotStored(url) => write!(f, "no stored summary for {url}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ExtractionError> for PipelineError {
    fn from(e: ExtractionError) -> Self {
        PipelineError::Extraction(e)
    }
}

/// What a successful pipeline run produced.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The extracted indexes.
    pub indexes: DatasetIndexes,
    /// The Schema Summary.
    pub summary: SchemaSummary,
    /// The Cluster Schema.
    pub cluster_schema: ClusterSchema,
    /// Extraction telemetry.
    pub report: ExtractionReport,
    /// Wall-clock time spent computing (excluding simulated network latency).
    pub compute_time: Duration,
}

/// The extraction pipeline.
#[derive(Debug, Clone)]
pub struct ExtractionPipeline {
    store: DocStore,
    extractor: IndexExtractor,
    algorithm: ClusteringAlgorithm,
    seed: u64,
    /// When set, every successful extraction also lands as VoID observation
    /// quads in this quad store, in a named graph per endpoint (the graph
    /// name is the endpoint URL); see [`crate::observations`].
    observation_store: Option<SharedStore>,
}

impl ExtractionPipeline {
    /// Creates a pipeline writing into `store`, clustering with Louvain.
    pub fn new(store: &DocStore) -> Self {
        ExtractionPipeline {
            store: store.clone(),
            extractor: IndexExtractor::new(),
            algorithm: ClusteringAlgorithm::Louvain,
            seed: 0,
            observation_store: None,
        }
    }

    /// Overrides the clustering algorithm (builder style).
    pub fn with_algorithm(mut self, algorithm: ClusteringAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Records every successful extraction's observations into `store`,
    /// one named graph per endpoint (builder style). Re-extracting an
    /// endpoint atomically replaces its graph. Should a durable store's log
    /// refuse the update, the run still succeeds, the graph keeps the
    /// previous extraction and a warning goes to stderr.
    pub fn with_observation_store(mut self, store: &SharedStore) -> Self {
        self.observation_store = Some(store.clone());
        self
    }

    /// The quad store observations are recorded into, when one was set.
    pub fn observation_store(&self) -> Option<&SharedStore> {
        self.observation_store.as_ref()
    }

    /// Overrides the index extractor (builder style).
    pub fn with_extractor(mut self, extractor: IndexExtractor) -> Self {
        self.extractor = extractor;
        self
    }

    /// Runs the full pipeline for one endpoint on virtual day `day` and
    /// stores every artefact; also updates `catalog` when one is supplied.
    pub fn run(
        &self,
        endpoint: &SparqlEndpoint,
        day: u64,
        catalog: Option<&EndpointCatalog>,
    ) -> Result<PipelineResult, PipelineError> {
        if let Some(catalog) = catalog {
            catalog.register(endpoint.url(), EndpointSource::LegacyList);
        }
        let started = Instant::now();
        let extraction = self.extractor.extract(endpoint, day);
        let (indexes, report) = match extraction {
            Ok(ok) => ok,
            Err(e) => {
                if let Some(catalog) = catalog {
                    catalog.record_failure(
                        endpoint.url(),
                        day,
                        matches!(e, ExtractionError::EndpointUnavailable),
                    );
                }
                return Err(e.into());
            }
        };
        let summary = SchemaSummary::from_indexes(&indexes);
        let cluster_schema = ClusterSchema::build(&summary, self.algorithm, self.seed);
        let compute_time = started.elapsed();

        // Store (upsert, keyed by endpoint URL) so repeated refreshes replace
        // the previous artefacts.
        let filter = Filter::eq("endpoint", endpoint.url());
        self.store
            .collection("indexes")
            .upsert(&filter, indexes.to_doc())
            .expect("indexes serialize to an object");
        self.store
            .collection("schema_summaries")
            .upsert(&filter, summary.to_doc())
            .expect("summary serializes to an object");
        self.store
            .collection("cluster_schemas")
            .upsert(&filter, cluster_schema.to_doc())
            .expect("cluster schema serializes to an object");
        if let Some(catalog) = catalog {
            catalog.record_success(endpoint.url(), day);
        }
        if let Some(observations) = &self.observation_store {
            if let Err(e) = record_observations(observations, &indexes) {
                eprintln!(
                    "hbold: observations of {} not recorded: {e}",
                    endpoint.url()
                );
            }
        }

        Ok(PipelineResult {
            indexes,
            summary,
            cluster_schema,
            report,
            compute_time,
        })
    }

    /// Runs the pipeline for many endpoints concurrently on `threads` scoped
    /// worker threads, returning per-endpoint results in input order.
    ///
    /// Every layer underneath is safe for this: endpoints serve queries from
    /// lock-free store snapshots, the document store and catalog are
    /// internally synchronized, and each endpoint's artefacts are keyed by
    /// its URL so concurrent upserts never collide.
    pub fn run_many(
        &self,
        endpoints: &[&SparqlEndpoint],
        day: u64,
        catalog: Option<&EndpointCatalog>,
        threads: usize,
    ) -> Vec<Result<PipelineResult, PipelineError>> {
        let threads = threads.clamp(1, endpoints.len().max(1));
        if threads <= 1 {
            return endpoints
                .iter()
                .map(|endpoint| self.run(endpoint, day, catalog))
                .collect();
        }
        let chunk_size = endpoints.len().div_ceil(threads).max(1);
        let outputs: Vec<Vec<Result<PipelineResult, PipelineError>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = endpoints
                    .chunks(chunk_size)
                    .map(|chunk| {
                        scope.spawn(move || {
                            chunk
                                .iter()
                                .map(|endpoint| self.run(endpoint, day, catalog))
                                .collect()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("pipeline worker panicked"))
                    .collect()
            });
        outputs.into_iter().flatten().collect()
    }

    /// Loads the stored Schema Summary of an endpoint (presentation-layer
    /// fast path).
    pub fn load_summary(&self, endpoint_url: &str) -> Result<SchemaSummary, PipelineError> {
        self.store
            .collection("schema_summaries")
            .find_one(&Filter::eq("endpoint", endpoint_url))
            .and_then(|d| SchemaSummary::from_doc(&d.value))
            .ok_or_else(|| PipelineError::NotStored(endpoint_url.to_string()))
    }

    /// Loads the stored Cluster Schema of an endpoint — the **new**
    /// architecture of §3.2 (one document-store lookup).
    pub fn load_cluster_schema(&self, endpoint_url: &str) -> Result<ClusterSchema, PipelineError> {
        self.store
            .collection("cluster_schemas")
            .find_one(&Filter::eq("endpoint", endpoint_url))
            .and_then(|d| ClusterSchema::from_doc(&d.value))
            .ok_or_else(|| PipelineError::NotStored(endpoint_url.to_string()))
    }

    /// Computes the Cluster Schema **on the fly** from the stored Schema
    /// Summary — the **old** architecture of §3.2, re-running community
    /// detection at every request.
    pub fn cluster_schema_on_the_fly(
        &self,
        endpoint_url: &str,
    ) -> Result<ClusterSchema, PipelineError> {
        let summary = self.load_summary(endpoint_url)?;
        Ok(ClusterSchema::build(&summary, self.algorithm, self.seed))
    }

    /// Loads the stored raw indexes of an endpoint.
    pub fn load_indexes(&self, endpoint_url: &str) -> Result<DatasetIndexes, PipelineError> {
        self.store
            .collection("indexes")
            .find_one(&Filter::eq("endpoint", endpoint_url))
            .and_then(|d| DatasetIndexes::from_doc(&d.value))
            .ok_or_else(|| PipelineError::NotStored(endpoint_url.to_string()))
    }

    /// The document store backing the pipeline.
    pub fn store(&self) -> &DocStore {
        &self.store
    }

    /// Persists every stored artefact (indexes, Schema Summaries, Cluster
    /// Schemas, the catalog) to the document store's backing directory, so
    /// extraction results survive a restart and the next run resumes from
    /// them. Returns an error when the store is in-memory only; use
    /// [`hbold_docstore::DocStore::open`] to create a durable store.
    pub fn persist(&self) -> Result<(), hbold_docstore::DocStoreError> {
        self.store.persist()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbold_endpoint::synth::{scholarly, ScholarlyConfig};
    use hbold_endpoint::{AvailabilityModel, EndpointProfile};

    fn endpoint() -> SparqlEndpoint {
        let graph = scholarly(&ScholarlyConfig {
            conferences: 2,
            papers_per_conference: 8,
            authors_per_paper: 2,
            seed: 9,
        });
        SparqlEndpoint::new(
            "http://scholarly.example/sparql",
            &graph,
            EndpointProfile::full_featured(),
        )
    }

    #[test]
    fn full_pipeline_stores_and_reloads_artifacts() {
        let store = DocStore::in_memory();
        let catalog = EndpointCatalog::new(&store);
        let pipeline = ExtractionPipeline::new(&store);
        let endpoint = endpoint();
        let result = pipeline.run(&endpoint, 4, Some(&catalog)).unwrap();

        assert!(result.summary.node_count() > 10);
        assert!(result.cluster_schema.cluster_count() >= 2);
        assert!(result
            .cluster_schema
            .is_partition(result.summary.node_count()));

        // Everything can be read back identically.
        assert_eq!(
            pipeline.load_summary(endpoint.url()).unwrap(),
            result.summary
        );
        assert_eq!(
            pipeline.load_cluster_schema(endpoint.url()).unwrap(),
            result.cluster_schema
        );
        assert_eq!(
            pipeline.load_indexes(endpoint.url()).unwrap(),
            result.indexes
        );

        // The on-the-fly path produces the same clustering (same seed), just slower.
        let on_the_fly = pipeline.cluster_schema_on_the_fly(endpoint.url()).unwrap();
        assert_eq!(on_the_fly, result.cluster_schema);

        // The catalog recorded the success.
        let entry = catalog.get(endpoint.url()).unwrap();
        assert_eq!(entry.last_extraction_day, Some(4));
        assert_eq!(catalog.indexed_count(), 1);
    }

    #[test]
    fn run_many_matches_sequential_runs() {
        let store = DocStore::in_memory();
        let catalog = EndpointCatalog::new(&store);
        let pipeline = ExtractionPipeline::new(&store);
        let endpoints: Vec<SparqlEndpoint> = (0..6)
            .map(|i| {
                let graph = scholarly(&ScholarlyConfig {
                    conferences: 1,
                    papers_per_conference: 4,
                    authors_per_paper: 2,
                    seed: 100 + i,
                });
                SparqlEndpoint::new(
                    format!("http://many{i}.example/sparql"),
                    &graph,
                    EndpointProfile::full_featured(),
                )
            })
            .collect();
        let refs: Vec<&SparqlEndpoint> = endpoints.iter().collect();
        let parallel = pipeline.run_many(&refs, 2, Some(&catalog), 4);
        assert_eq!(parallel.len(), 6);
        for (endpoint, result) in endpoints.iter().zip(&parallel) {
            let result = result.as_ref().expect("pipeline run failed");
            // Parallel runs store the same artefacts a sequential run would.
            let sequential = pipeline.run(endpoint, 2, None).unwrap();
            assert_eq!(result.summary, sequential.summary);
            assert_eq!(result.cluster_schema, sequential.cluster_schema);
        }
        assert_eq!(catalog.indexed_count(), 6);
        assert_eq!(store.collection("schema_summaries").len(), 6);
    }

    #[test]
    fn rerun_replaces_rather_than_duplicates() {
        let store = DocStore::in_memory();
        let pipeline = ExtractionPipeline::new(&store);
        let endpoint = endpoint();
        pipeline.run(&endpoint, 1, None).unwrap();
        pipeline.run(&endpoint, 8, None).unwrap();
        assert_eq!(store.collection("schema_summaries").len(), 1);
        assert_eq!(store.collection("cluster_schemas").len(), 1);
        assert_eq!(
            pipeline
                .load_indexes(endpoint.url())
                .unwrap()
                .extracted_on_day,
            8
        );
    }

    #[test]
    fn observation_store_gets_one_named_graph_per_endpoint() {
        let store = DocStore::in_memory();
        let observations = SharedStore::new();
        let pipeline = ExtractionPipeline::new(&store).with_observation_store(&observations);
        let endpoints: Vec<SparqlEndpoint> = (0..3)
            .map(|i| {
                let graph = scholarly(&ScholarlyConfig {
                    conferences: 1,
                    papers_per_conference: 4,
                    authors_per_paper: 2,
                    seed: 40 + i,
                });
                SparqlEndpoint::new(
                    format!("http://obs{i}.example/sparql"),
                    &graph,
                    EndpointProfile::full_featured(),
                )
            })
            .collect();
        for endpoint in &endpoints {
            pipeline.run(endpoint, 1, None).unwrap();
        }
        let snapshot = observations.snapshot();
        let counts = snapshot.graph_quad_counts();
        assert_eq!(counts.len(), 3, "one named graph per endpoint: {counts:?}");
        assert!(counts
            .iter()
            .all(|(graph, quads)| { graph.is_some() && *quads > 0 }));
        assert_eq!(snapshot.default_graph_len(), 0);

        // Re-running an endpoint replaces its graph instead of appending.
        let before = snapshot.len();
        pipeline.run(&endpoints[0], 2, None).unwrap();
        let after = observations.snapshot();
        // Only the extraction-day quad changes value, so the graph stays
        // the same size.
        assert_eq!(after.len(), before);
        assert_eq!(after.graph_quad_counts().len(), 3);
    }

    #[test]
    fn failures_are_reported_and_recorded() {
        let store = DocStore::in_memory();
        let catalog = EndpointCatalog::new(&store);
        let pipeline = ExtractionPipeline::new(&store);
        let graph = scholarly(&ScholarlyConfig::default());
        let down = SparqlEndpoint::new(
            "http://down.example/sparql",
            &graph,
            EndpointProfile::full_featured().with_availability(AvailabilityModel::always_down()),
        );
        let err = pipeline.run(&down, 0, Some(&catalog)).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Extraction(ExtractionError::EndpointUnavailable)
        ));
        let entry = catalog.get(down.url()).unwrap();
        assert_eq!(entry.consecutive_failures, 1);
        assert!(pipeline.load_summary(down.url()).is_err());
        assert!(matches!(
            pipeline.load_cluster_schema("http://never-seen.example/sparql"),
            Err(PipelineError::NotStored(_))
        ));
    }
}
