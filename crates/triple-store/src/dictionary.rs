//! Term interning: every distinct RDF term gets a dense `u32` identifier.
//!
//! # Ids in term order
//!
//! Interning numbers terms in the order they arrive, which says nothing about
//! the terms. A *fresh load* — a batch inserted into a store whose dictionary
//! is empty (`TripleStore::from_graph`, a first bulk load, streamed from a
//! parser or not, the replay of a log record into an empty store) — is the
//! one moment no id has been handed out yet, so the store interns the batch
//! and then renumbers it once — one
//! `sort_by_cached_key` over each term's [`hbold_rdf_model::OrderKey`]:
//! afterwards id order *is* `Term::cmp` order. A snapshot keeps the
//! numbering, and its restore recomputes how far the order holds.
//!
//! [`TermDictionary::sorted_len`] records that: every id below it is in term
//! order. It covers the whole dictionary after a fresh load and stops
//! growing at the first later intern, which appends at the end whatever the
//! term. Renumbering then would move ids that published store versions,
//! compiled plans and callers already hold, so nothing renumbers a
//! dictionary that is not empty — checkpoints included: the next fresh load
//! is where the whole order comes back.
//! Below `sorted_len` two ids compare as their terms do, so `ORDER BY`
//! compares integers and an index scan emits its rows in term order.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use hbold_rdf_model::Term;

/// Identifier of an interned term. Dense, starting at 0, unique per store.
pub type TermId = u32;

/// Ids sharing one 64-bit term hash. Collisions are vanishingly rare, so the
/// one-id case avoids a heap allocation.
#[derive(Debug, Clone)]
enum Bucket {
    One(TermId),
    Many(Vec<TermId>),
}

impl Bucket {
    fn find(&self, by_id: &[Term], term: &Term) -> Option<TermId> {
        match self {
            Bucket::One(id) => (by_id[*id as usize] == *term).then_some(*id),
            Bucket::Many(ids) => ids.iter().copied().find(|&id| by_id[id as usize] == *term),
        }
    }

    fn push(&mut self, id: TermId) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(vec![*first, id]),
            Bucket::Many(ids) => ids.push(id),
        }
    }
}

/// A bidirectional mapping between [`Term`]s and [`TermId`]s.
///
/// Interning is append-only: terms are never removed, even when the last
/// triple mentioning them is deleted. For H-BOLD's workload (load a dataset,
/// query it many times) this is the right trade-off, and it keeps all
/// existing identifiers stable.
///
/// The reverse map is keyed by the term's 64-bit hash rather than by the
/// term itself: each `intern` miss therefore pays exactly one hash
/// computation, one table probe and one `Term` clone (into the id-ordered
/// `by_id` table), instead of the two lookups and two clones a
/// `HashMap<Term, TermId>` would cost — and the table stores 12 bytes per
/// entry instead of a second copy of every term.
///
/// Ids below [`TermDictionary::sorted_len`] are numbered in `Term::cmp`
/// order (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct TermDictionary {
    by_hash: HashMap<u64, Bucket>,
    by_id: Vec<Term>,
    sorted_len: usize,
}

fn hash_term(term: &Term) -> u64 {
    let mut hasher = DefaultHasher::new();
    term.hash(&mut hasher);
    hasher.finish()
}

impl TermDictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        TermDictionary::default()
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Returns `true` if no terms have been interned yet.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Pre-reserves capacity for at least `additional` further terms; bulk
    /// load paths call this once up front instead of growing both tables
    /// incrementally.
    pub fn reserve(&mut self, additional: usize) {
        self.by_id.reserve(additional);
        self.by_hash.reserve(additional);
    }

    /// How many leading ids are numbered in `Term::cmp` order: for any two
    /// ids `a, b < sorted_len()`, `a < b` exactly when
    /// `term(a) < term(b)`.
    pub fn sorted_len(&self) -> usize {
        self.sorted_len
    }

    /// Rebuilds a dictionary from its id-ordered term list (the snapshot
    /// term table): entry `i` of `terms` becomes the term with id `i`, and
    /// the first `sorted_len` entries must be strictly increasing under
    /// `Term::cmp` (the caller's check). `None` when a term is listed twice:
    /// the table would not be a bijection, and lookups would disagree with
    /// the quads that name the other copy.
    pub(crate) fn from_terms(terms: Vec<Term>, sorted_len: usize) -> Option<Self> {
        let mut by_hash: HashMap<u64, Bucket> = HashMap::with_capacity(terms.len());
        for (i, term) in terms.iter().enumerate() {
            match by_hash.entry(hash_term(term)) {
                Entry::Occupied(mut e) => {
                    if e.get().find(&terms, term).is_some() {
                        return None;
                    }
                    e.get_mut().push(i as TermId)
                }
                Entry::Vacant(v) => {
                    v.insert(Bucket::One(i as TermId));
                }
            }
        }
        Some(TermDictionary {
            by_hash,
            by_id: terms,
            sorted_len,
        })
    }

    /// Renumbers every term in `Term::cmp` order and returns the map from
    /// old id to new (`old_to_new[old] == new`); afterwards
    /// [`TermDictionary::sorted_len`] covers the whole dictionary.
    ///
    /// One `sort_by_cached_key` over the terms' [`OrderKey`]s — each
    /// literal's value is parsed once, not once per comparison — then the
    /// term table is permuted and the hash buckets' ids are rewritten in
    /// place: no term is hashed again. Only a store's fresh load calls it,
    /// while no id of this dictionary can be held anywhere else.
    ///
    /// [`OrderKey`]: hbold_rdf_model::OrderKey
    pub(crate) fn renumber(&mut self) -> Vec<TermId> {
        let by_id = &self.by_id;
        let mut new_to_old: Vec<TermId> = (0..by_id.len() as TermId).collect();
        new_to_old.sort_by_cached_key(|&old| by_id[old as usize].order_key());
        let mut old_to_new = vec![0; new_to_old.len()];
        for (new, &old) in new_to_old.iter().enumerate() {
            old_to_new[old as usize] = new as TermId;
        }
        let mut old_terms: Vec<Option<Term>> = std::mem::take(&mut self.by_id)
            .into_iter()
            .map(Some)
            .collect();
        self.by_id = new_to_old
            .iter()
            .map(|&old| old_terms[old as usize].take().expect("a permutation"))
            .collect();
        for bucket in self.by_hash.values_mut() {
            match bucket {
                Bucket::One(id) => *id = old_to_new[*id as usize],
                Bucket::Many(ids) => ids.iter_mut().for_each(|id| *id = old_to_new[*id as usize]),
            }
        }
        self.sorted_len = self.by_id.len();
        old_to_new
    }

    /// Interns `term`, returning its identifier. Idempotent.
    ///
    /// A hit costs one hash + probe and no clone; a miss additionally clones
    /// the term once, into the id table, at the next id — past
    /// [`TermDictionary::sorted_len`], which it does not extend.
    pub fn intern(&mut self, term: &Term) -> TermId {
        let id = self.by_id.len() as TermId;
        match self.by_hash.entry(hash_term(term)) {
            Entry::Occupied(mut e) => {
                if let Some(existing) = e.get().find(&self.by_id, term) {
                    return existing;
                }
                e.get_mut().push(id);
            }
            Entry::Vacant(v) => {
                v.insert(Bucket::One(id));
            }
        }
        self.by_id.push(term.clone());
        id
    }

    /// Looks up the identifier of an already-interned term.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        self.by_hash
            .get(&hash_term(term))
            .and_then(|bucket| bucket.find(&self.by_id, term))
    }

    /// Returns the term with the given identifier.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this dictionary.
    pub fn term(&self, id: TermId) -> &Term {
        &self.by_id[id as usize]
    }

    /// Returns the term with the given identifier, or `None` if out of range.
    pub fn get(&self, id: TermId) -> Option<&Term> {
        self.by_id.get(id as usize)
    }

    /// Iterates over all `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.by_id.iter().enumerate().map(|(i, t)| (i as TermId, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbold_rdf_model::{Iri, Literal};

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut d = TermDictionary::new();
        let a: Term = Iri::new("http://e.org/a").unwrap().into();
        let b: Term = Literal::string("b").into();
        let ia = d.intern(&a);
        let ib = d.intern(&b);
        assert_ne!(ia, ib);
        assert_eq!(d.intern(&a), ia);
        assert_eq!(d.len(), 2);
        assert_eq!(ia, 0);
        assert_eq!(ib, 1);
    }

    #[test]
    fn lookup_round_trips() {
        let mut d = TermDictionary::new();
        let t: Term = Literal::lang_string("ciao", "it").into();
        let id = d.intern(&t);
        assert_eq!(d.term(id), &t);
        assert_eq!(d.get(id), Some(&t));
        assert_eq!(d.id_of(&t), Some(id));
        assert_eq!(d.get(99), None);
        assert_eq!(d.id_of(&Literal::string("missing").into()), None);
    }

    #[test]
    fn distinct_literals_with_same_text_are_distinct_terms() {
        let mut d = TermDictionary::new();
        let plain: Term = Literal::string("5").into();
        let typed: Term = Literal::integer(5).into();
        assert_ne!(d.intern(&plain), d.intern(&typed));
    }

    #[test]
    fn iteration_preserves_insertion_order() {
        let mut d = TermDictionary::new();
        let terms: Vec<Term> = (0..5)
            .map(|i| Iri::new(format!("http://e.org/{i}")).unwrap().into())
            .collect();
        for t in &terms {
            d.intern(t);
        }
        let collected: Vec<&Term> = d.iter().map(|(_, t)| t).collect();
        assert_eq!(collected, terms.iter().collect::<Vec<_>>());
    }

    #[test]
    fn from_terms_rebuild_matches_interning() {
        let terms: Vec<Term> = (0..20)
            .map(|i| Iri::new(format!("http://e.org/{i}")).unwrap().into())
            .collect();
        let rebuilt = TermDictionary::from_terms(terms.clone(), 0).unwrap();
        assert_eq!(rebuilt.len(), 20);
        for (i, t) in terms.iter().enumerate() {
            assert_eq!(rebuilt.id_of(t), Some(i as TermId));
            assert_eq!(rebuilt.term(i as TermId), t);
        }
        let mut twice = terms.clone();
        twice.push(terms[3].clone());
        assert!(TermDictionary::from_terms(twice, 0).is_none());
    }

    #[test]
    fn renumbering_puts_ids_in_term_order_and_keeps_every_lookup() {
        let terms: Vec<Term> = vec![
            Literal::integer(10).into(),
            Iri::new("http://e.org/b").unwrap().into(),
            Literal::string("5").into(),
            hbold_rdf_model::BlankNode::new("z").into(),
            Literal::integer(9).into(),
            Iri::new("http://e.org/a").unwrap().into(),
        ];
        let mut d = TermDictionary::new();
        let old: Vec<TermId> = terms.iter().map(|t| d.intern(t)).collect();
        assert_eq!(d.sorted_len(), 0);
        let old_to_new = d.renumber();
        assert_eq!(d.sorted_len(), terms.len());
        let mut sorted = terms.clone();
        sorted.sort();
        let in_id_order: Vec<Term> = d.iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(in_id_order, sorted);
        for (t, &id) in terms.iter().zip(&old) {
            assert_eq!(d.id_of(t), Some(old_to_new[id as usize]));
            assert_eq!(d.term(old_to_new[id as usize]), t);
        }
        // A later intern appends past the sorted run, whatever the term.
        let first: Term = hbold_rdf_model::BlankNode::new("a").into();
        assert_eq!(d.intern(&first), terms.len() as TermId);
        assert_eq!(d.sorted_len(), terms.len());
        assert_eq!(d.id_of(&first), Some(terms.len() as TermId));
    }

    #[test]
    fn reserve_does_not_disturb_contents() {
        let mut d = TermDictionary::new();
        let t: Term = Literal::string("x").into();
        let id = d.intern(&t);
        d.reserve(10_000);
        assert_eq!(d.id_of(&t), Some(id));
        assert_eq!(d.len(), 1);
    }

    /// Forced hash-bucket collisions must chain, not clobber. We can't force
    /// a `DefaultHasher` collision deterministically, so this exercises the
    /// bucket type directly.
    #[test]
    fn bucket_chains_on_collision() {
        let terms: Vec<Term> = vec![Literal::string("a").into(), Literal::string("b").into()];
        let mut bucket = Bucket::One(0);
        bucket.push(1);
        assert_eq!(bucket.find(&terms, &terms[0]), Some(0));
        assert_eq!(bucket.find(&terms, &terms[1]), Some(1));
        assert_eq!(bucket.find(&terms, &Literal::string("c").into()), None);
    }
}
