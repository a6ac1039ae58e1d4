//! Dataset-level statistics computed directly from the indexes.
//!
//! These are the numbers H-BOLD's *Index Extraction* ultimately needs
//! (number of instances, number of classes, class/property usage). The
//! extraction in `hbold-schema` obtains them through SPARQL — as the real
//! tool must — but the store-native computation here serves as ground truth
//! in tests and as a fast path for the synthetic-data generators.

use std::collections::{BTreeMap, BTreeSet};

use hbold_rdf_model::vocab::rdf;
use hbold_rdf_model::{Iri, Term, TriplePattern};

use crate::store::TripleStore;

/// Summary statistics of a store.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Total number of triples in the default graph (the graph the
    /// extraction pipeline queries).
    pub triples: usize,
    /// Number of distinct subjects.
    pub distinct_subjects: usize,
    /// Number of distinct predicates.
    pub distinct_predicates: usize,
    /// Number of distinct objects.
    pub distinct_objects: usize,
    /// Number of distinct instantiated classes (objects of `rdf:type`).
    pub classes: usize,
    /// Number of typed instances (distinct subjects of `rdf:type`).
    pub typed_instances: usize,
    /// Instance count per class IRI.
    pub class_sizes: BTreeMap<Iri, usize>,
}

impl StoreStats {
    /// Computes statistics for `store`.
    pub fn compute(store: &TripleStore) -> Self {
        let mut subjects: BTreeSet<&Term> = BTreeSet::new();
        let mut predicates: BTreeSet<&Term> = BTreeSet::new();
        let mut objects: BTreeSet<&Term> = BTreeSet::new();
        // Iterate encoded triples to avoid cloning terms.
        for enc in store.matching_encoded_iter(None, None, None) {
            subjects.insert(store.term(enc.subject));
            predicates.insert(store.term(enc.predicate));
            objects.insert(store.term(enc.object));
        }

        let mut class_sizes: BTreeMap<Iri, usize> = BTreeMap::new();
        let mut typed_instances: BTreeSet<Term> = BTreeSet::new();
        let type_triples = store.matching(&TriplePattern::any().with_predicate(rdf::type_()));
        for t in &type_triples {
            if let Some(class) = t.object.as_iri() {
                *class_sizes.entry(class.clone()).or_insert(0) += 1;
            }
            typed_instances.insert(t.subject.clone());
        }

        StoreStats {
            triples: store.default_graph_len(),
            distinct_subjects: subjects.len(),
            distinct_predicates: predicates.len(),
            distinct_objects: objects.len(),
            classes: class_sizes.len(),
            typed_instances: typed_instances.len(),
            class_sizes,
        }
    }

    /// The largest class and its size, if any class exists.
    pub fn largest_class(&self) -> Option<(&Iri, usize)> {
        self.class_sizes
            .iter()
            .max_by_key(|(iri, n)| (**n, std::cmp::Reverse(iri.as_str())))
            .map(|(iri, n)| (iri, *n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbold_rdf_model::vocab::foaf;
    use hbold_rdf_model::{Literal, Triple};

    fn iri(s: &str) -> Iri {
        Iri::new(s).unwrap()
    }

    fn sample() -> TripleStore {
        let mut store = TripleStore::new();
        for i in 0..5 {
            store.insert(&Triple::new(
                iri(&format!("http://e.org/p{i}")),
                rdf::type_(),
                foaf::person(),
            ));
        }
        for i in 0..2 {
            store.insert(&Triple::new(
                iri(&format!("http://e.org/o{i}")),
                rdf::type_(),
                foaf::organization(),
            ));
        }
        store.insert(&Triple::new(
            iri("http://e.org/p0"),
            foaf::name(),
            Literal::string("P0"),
        ));
        store.insert(&Triple::new(
            iri("http://e.org/p0"),
            foaf::member(),
            iri("http://e.org/o0"),
        ));
        store
    }

    #[test]
    fn counts_are_consistent() {
        let stats = StoreStats::compute(&sample());
        assert_eq!(stats.triples, 9);
        assert_eq!(stats.classes, 2);
        assert_eq!(stats.typed_instances, 7);
        assert_eq!(stats.class_sizes[&foaf::person()], 5);
        assert_eq!(stats.class_sizes[&foaf::organization()], 2);
        assert_eq!(stats.distinct_predicates, 3);
        assert_eq!(stats.distinct_subjects, 7);
        assert_eq!(stats.largest_class(), Some((&foaf::person(), 5)));
    }

    #[test]
    fn empty_store_stats() {
        let stats = StoreStats::compute(&TripleStore::new());
        assert_eq!(stats, StoreStats::default());
        assert_eq!(stats.largest_class(), None);
    }
}
