//! Named-graph provenance for extractions: each remote endpoint's extracted
//! indexes are rendered as VoID-style observation quads and written into a
//! named graph whose name **is** the endpoint URL.
//!
//! This closes the provenance gap the quad store opened up: a local H-BOLD
//! instance can answer "which endpoint produced this schema observation?"
//! with a plain `GRAPH ?endpoint { ... }` query, and a re-extraction
//! atomically replaces that endpoint's graph (one WAL-logged update through
//! [`SharedStore::apply_update`]) without touching any other endpoint's
//! observations or the default graph.

use hbold_rdf_model::vocab::{rdf, rdfs, void};
use hbold_rdf_model::{Iri, Literal, Quad, Term, Triple};
use hbold_schema::DatasetIndexes;
use hbold_triple_store::{PersistError, SharedStore};

/// Namespace for the observation predicates VoID has no term for.
const HBOLD_NS: &str = "http://hbold.example/ns#";

fn hbold_iri(local: &str) -> Iri {
    Iri::new_unchecked(format!("{HBOLD_NS}{local}"))
}

/// The named graph an endpoint's observations land in: the endpoint URL
/// itself. `None` when the URL is not a valid IRI (nothing can be recorded
/// for such an endpoint).
pub fn observation_graph(endpoint_url: &str) -> Option<Term> {
    Iri::new(endpoint_url).ok().map(Term::Iri)
}

/// Renders one extraction's indexes as quads in the endpoint's named graph:
/// a `void:Dataset` node carrying the dataset-level counts, one
/// `void:classPartition` per class (instances, label), and one
/// `void:propertyPartition` per attribute / object link (triple counts,
/// link targets). Returns an empty vector when the endpoint URL is not a
/// valid IRI.
pub fn observation_quads(indexes: &DatasetIndexes) -> Vec<Quad> {
    let Some(graph) = observation_graph(&indexes.endpoint_url) else {
        return Vec::new();
    };
    let dataset = match &graph {
        Term::Iri(iri) => iri.clone(),
        _ => unreachable!("observation_graph only produces IRIs"),
    };
    let mut quads = Vec::new();
    let mut push = |s: Iri, p: Iri, o: Term| {
        quads.push(Quad::new(Triple::new(s, p, o), Some(graph.clone())));
    };
    let int = |n: usize| Term::Literal(Literal::integer(n as i64));

    push(dataset.clone(), rdf::type_(), Term::Iri(void::dataset()));
    push(
        dataset.clone(),
        void::sparql_endpoint(),
        Term::Iri(dataset.clone()),
    );
    push(dataset.clone(), void::triples(), int(indexes.triples));
    push(dataset.clone(), void::entities(), int(indexes.instances));
    push(dataset.clone(), void::classes(), int(indexes.class_count()));
    push(
        dataset.clone(),
        hbold_iri("extractedOnDay"),
        int(indexes.extracted_on_day as usize),
    );

    for (i, class) in indexes.classes.iter().enumerate() {
        let cp = Iri::new_unchecked(format!("{}#class-{i}", indexes.endpoint_url));
        push(
            dataset.clone(),
            void::iri("classPartition"),
            Term::Iri(cp.clone()),
        );
        push(
            cp.clone(),
            void::iri("class"),
            Term::Iri(class.class.clone()),
        );
        push(
            cp.clone(),
            rdfs::label(),
            Term::Literal(Literal::string(class.label.clone())),
        );
        push(cp.clone(), void::entities(), int(class.instances));
        for (j, attr) in class.attributes.iter().enumerate() {
            let pp = Iri::new_unchecked(format!("{}#class-{i}-attr-{j}", indexes.endpoint_url));
            push(
                cp.clone(),
                void::iri("propertyPartition"),
                Term::Iri(pp.clone()),
            );
            push(
                pp.clone(),
                void::iri("property"),
                Term::Iri(attr.property.clone()),
            );
            push(pp, void::triples(), int(attr.count));
        }
        for (k, link) in class.links.iter().enumerate() {
            let pp = Iri::new_unchecked(format!("{}#class-{i}-link-{k}", indexes.endpoint_url));
            push(
                cp.clone(),
                void::iri("propertyPartition"),
                Term::Iri(pp.clone()),
            );
            push(
                pp.clone(),
                void::iri("property"),
                Term::Iri(link.property.clone()),
            );
            push(
                pp.clone(),
                hbold_iri("targetClass"),
                Term::Iri(link.target_class.clone()),
            );
            push(pp, void::triples(), int(link.count));
        }
    }
    quads
}

/// Replaces the endpoint's named graph with the observations from one
/// extraction, as a single atomic WAL-logged update: every quad currently
/// in the graph — read off that graph's own index range, not the whole
/// store — is removed and the fresh observation quads are inserted in the
/// same store transition. Returns the `(removed, inserted)` counts, or
/// `Ok(None)` when the endpoint URL is not a valid IRI. A durable store's
/// failed log append is the error, and leaves the previous observations in
/// place.
pub fn record_observations(
    store: &SharedStore,
    indexes: &DatasetIndexes,
) -> Result<Option<(usize, usize)>, PersistError> {
    let Some(graph) = observation_graph(&indexes.endpoint_url) else {
        return Ok(None);
    };
    let inserts = observation_quads(indexes);
    let counts = store.apply_update(|current| {
        let removes: Vec<Quad> = current
            .iter_graph(Some(&graph))
            .map(|triple| Quad::new(triple, Some(graph.clone())))
            .collect();
        (removes, inserts)
    })?;
    Ok(Some(counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbold_schema::{ClassIndex, ObjectLinkIndex, PropertyIndex};

    fn sample_indexes(day: u64, attr_count: usize) -> DatasetIndexes {
        DatasetIndexes {
            endpoint_url: "http://remote.example/sparql".into(),
            extracted_on_day: day,
            triples: 120,
            instances: 30,
            classes: vec![ClassIndex {
                class: Iri::new_unchecked("http://remote.example/Person"),
                label: "Person".into(),
                instances: 30,
                attributes: vec![PropertyIndex {
                    property: Iri::new_unchecked("http://remote.example/name"),
                    count: attr_count,
                }],
                links: vec![ObjectLinkIndex {
                    property: Iri::new_unchecked("http://remote.example/knows"),
                    target_class: Iri::new_unchecked("http://remote.example/Person"),
                    count: 12,
                }],
            }],
        }
    }

    #[test]
    fn quads_land_in_the_endpoint_graph() {
        let quads = observation_quads(&sample_indexes(3, 30));
        assert!(!quads.is_empty());
        let graph = observation_graph("http://remote.example/sparql").unwrap();
        assert!(quads.iter().all(|q| q.graph.as_ref() == Some(&graph)));
        // Dataset-level counts and the per-class partition are all present.
        let nquads: Vec<String> = quads.iter().map(Quad::to_nquads).collect();
        assert!(nquads
            .iter()
            .any(|q| q.contains("void#triples") && q.contains("\"120\"")));
        assert!(nquads.iter().any(|q| q.contains("classPartition")));
        assert!(nquads.iter().any(|q| q.contains("propertyPartition")));
        assert!(nquads.iter().any(|q| q.contains("targetClass")));
    }

    #[test]
    fn reextraction_replaces_the_graph_atomically() {
        let store = SharedStore::new();
        let first = sample_indexes(1, 30);
        let (removed, inserted) = record_observations(&store, &first).unwrap().unwrap();
        assert_eq!(removed, 0);
        assert_eq!(inserted, observation_quads(&first).len());

        // A second extraction with different numbers replaces, not appends.
        let second = sample_indexes(8, 31);
        let (removed, inserted) = record_observations(&store, &second).unwrap().unwrap();
        assert!(removed > 0, "stale observations are removed");
        assert!(inserted > 0, "changed observations are inserted");
        let snapshot = store.snapshot();
        let graph = observation_graph("http://remote.example/sparql").unwrap();
        let quads: Vec<Quad> = snapshot
            .iter_quads()
            .filter(|q| q.graph.as_ref() == Some(&graph))
            .collect();
        let mut expected = observation_quads(&second);
        let mut actual = quads;
        expected.sort();
        actual.sort();
        assert_eq!(actual, expected);
        // Nothing leaked into the default graph.
        assert_eq!(snapshot.default_graph_len(), 0);
    }

    #[test]
    fn invalid_endpoint_urls_record_nothing() {
        let store = SharedStore::new();
        let mut indexes = sample_indexes(1, 5);
        indexes.endpoint_url = "not an iri".into();
        assert_eq!(record_observations(&store, &indexes).unwrap(), None);
        assert!(store.snapshot().is_empty());
    }
}
