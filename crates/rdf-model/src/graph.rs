//! A simple in-memory set of triples.
//!
//! [`Graph`] is the convenience container used by generators, parsers and
//! tests; it keeps triples in a `BTreeSet` (deterministic iteration order)
//! and answers pattern queries by scanning. The production store with
//! dictionary encoding and positional indexes is `hbold-triple-store`, which
//! can be built from a `Graph` in one call.

use std::collections::BTreeSet;

use crate::term::{Iri, Term};
use crate::triple::{Triple, TriplePattern};
use crate::vocab::rdf;

/// An unindexed, deterministic set of triples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    triples: BTreeSet<Triple>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of triples in the graph.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Returns `true` if the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Inserts a triple; returns `true` if it was not already present.
    pub fn insert(&mut self, triple: Triple) -> bool {
        self.triples.insert(triple)
    }

    /// Removes a triple; returns `true` if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        self.triples.remove(triple)
    }

    /// Returns `true` if the graph contains the exact triple.
    pub fn contains(&self, triple: &Triple) -> bool {
        self.triples.contains(triple)
    }

    /// Iterates over all triples in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Triple> {
        self.triples.iter()
    }

    /// Iterates over the triples matching `pattern` (linear scan).
    pub fn matching<'a>(
        &'a self,
        pattern: &TriplePattern,
    ) -> impl Iterator<Item = &'a Triple> + 'a {
        let pattern = pattern.clone();
        self.triples.iter().filter(move |t| pattern.matches(t))
    }

    /// All distinct subjects that have an `rdf:type` of `class`.
    pub fn instances_of<'a>(&'a self, class: &'a Iri) -> impl Iterator<Item = &'a Term> + 'a {
        let type_pred: Term = rdf::type_().into();
        let class_term: Term = class.clone().into();
        self.triples
            .iter()
            .filter(move |t| t.predicate == type_pred && t.object == class_term)
            .map(|t| &t.subject)
    }

    /// All distinct class IRIs that appear as objects of `rdf:type`.
    pub fn classes(&self) -> BTreeSet<Iri> {
        let type_pred: Term = rdf::type_().into();
        self.triples
            .iter()
            .filter(|t| t.predicate == type_pred)
            .filter_map(|t| t.object.as_iri().cloned())
            .collect()
    }

    /// All distinct predicate IRIs used in the graph.
    pub fn predicates(&self) -> BTreeSet<Iri> {
        self.triples
            .iter()
            .filter_map(|t| t.predicate.as_iri().cloned())
            .collect()
    }

    /// Merges all triples of `other` into `self`, returning how many were new.
    pub fn extend_from(&mut self, other: &Graph) -> usize {
        let before = self.len();
        for t in other.iter() {
            self.triples.insert(t.clone());
        }
        self.len() - before
    }

    /// Serializes the whole graph as N-Triples text (one triple per line,
    /// sorted, ending with a newline when non-empty).
    pub fn to_ntriples(&self) -> String {
        let mut out = String::new();
        for t in self.iter() {
            out.push_str(&t.to_ntriples());
            out.push('\n');
        }
        out
    }
}

impl FromIterator<Triple> for Graph {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        Graph {
            triples: iter.into_iter().collect(),
        }
    }
}

impl Extend<Triple> for Graph {
    fn extend<I: IntoIterator<Item = Triple>>(&mut self, iter: I) {
        self.triples.extend(iter)
    }
}

impl<'a> IntoIterator for &'a Graph {
    type Item = &'a Triple;
    type IntoIter = std::collections::btree_set::Iter<'a, Triple>;

    fn into_iter(self) -> Self::IntoIter {
        self.triples.iter()
    }
}

impl IntoIterator for Graph {
    type Item = Triple;
    type IntoIter = std::collections::btree_set::IntoIter<Triple>;

    fn into_iter(self) -> Self::IntoIter {
        self.triples.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Literal;
    use crate::vocab::foaf;

    fn iri(s: &str) -> Iri {
        Iri::new(s).unwrap()
    }

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert(Triple::new(
            iri("http://e.org/alice"),
            rdf::type_(),
            foaf::person(),
        ));
        g.insert(Triple::new(
            iri("http://e.org/bob"),
            rdf::type_(),
            foaf::person(),
        ));
        g.insert(Triple::new(
            iri("http://e.org/acme"),
            rdf::type_(),
            foaf::organization(),
        ));
        g.insert(Triple::new(
            iri("http://e.org/alice"),
            foaf::name(),
            Literal::string("Alice"),
        ));
        g.insert(Triple::new(
            iri("http://e.org/alice"),
            foaf::knows(),
            iri("http://e.org/bob"),
        ));
        g
    }

    #[test]
    fn insert_is_set_semantics() {
        let mut g = Graph::new();
        let t = Triple::new(iri("http://e.org/a"), rdf::type_(), foaf::person());
        assert!(g.insert(t.clone()));
        assert!(!g.insert(t.clone()));
        assert_eq!(g.len(), 1);
        assert!(g.contains(&t));
        assert!(g.remove(&t));
        assert!(g.is_empty());
    }

    /// The cyclic `Ord for Literal` this pins the end of made the set lose
    /// its own members: re-inserting 400 such triples added duplicates and
    /// `contains` missed triples the graph held.
    #[test]
    fn set_semantics_hold_over_mixed_integer_and_string_objects() {
        let (s, p) = (iri("http://e.org/s"), iri("http://e.org/p"));
        let triples: Vec<Triple> = (0..200)
            .flat_map(|i| {
                let n = (i * 37) % 200;
                [Literal::integer(n), Literal::string((n * 3).to_string())]
            })
            .map(|o| Triple::new(s.clone(), p.clone(), o))
            .collect();
        let mut g = Graph::new();
        for t in &triples {
            g.insert(t.clone());
        }
        assert_eq!(g.len(), 400);
        let added = triples.iter().filter(|t| g.insert((*t).clone())).count();
        assert_eq!(added, 0, "re-inserting held triples must add nothing");
        let missed = triples.iter().filter(|t| !g.contains(t)).count();
        assert_eq!(missed, 0, "contains() must find every held triple");
        assert_eq!(g.len(), 400);
    }

    #[test]
    fn pattern_queries() {
        let g = sample();
        let people: Vec<_> = g
            .matching(
                &TriplePattern::any()
                    .with_predicate(rdf::type_())
                    .with_object(foaf::person()),
            )
            .collect();
        assert_eq!(people.len(), 2);
        assert_eq!(g.matching(&TriplePattern::any()).count(), 5);
    }

    #[test]
    fn classes_and_instances() {
        let g = sample();
        let classes = g.classes();
        assert!(classes.contains(&foaf::person()));
        assert!(classes.contains(&foaf::organization()));
        assert_eq!(classes.len(), 2);
        assert_eq!(g.instances_of(&foaf::person()).count(), 2);
        assert_eq!(g.instances_of(&foaf::organization()).count(), 1);
        assert!(g.predicates().contains(&foaf::knows()));
    }

    #[test]
    fn merge_counts_new_triples() {
        let mut g = sample();
        let mut h = Graph::new();
        h.insert(Triple::new(
            iri("http://e.org/alice"),
            foaf::name(),
            Literal::string("Alice"),
        ));
        h.insert(Triple::new(
            iri("http://e.org/carol"),
            rdf::type_(),
            foaf::person(),
        ));
        assert_eq!(g.extend_from(&h), 1, "only the carol triple is new");
        assert_eq!(g.len(), 6);
    }

    #[test]
    fn ntriples_serialization_is_sorted_and_terminated() {
        let g = sample();
        let text = g.to_ntriples();
        assert_eq!(text.lines().count(), 5);
        assert!(text.ends_with(".\n"));
        let mut lines: Vec<_> = text.lines().collect();
        let sorted = {
            lines.sort();
            lines
        };
        assert_eq!(
            text.lines().collect::<Vec<_>>(),
            sorted,
            "output must be deterministic"
        );
    }
}
