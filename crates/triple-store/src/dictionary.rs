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
//!
//! # A sorted base and a hashed tail
//!
//! The dictionary is two parts, split at `sorted_len`:
//!
//! * the **base**, the ids below `sorted_len`: immutable, behind an `Arc`,
//!   shared by every clone — so a copy-on-write clone of a store copies one
//!   pointer and the tail, never the base — with a hash index built at most
//!   once, in a `OnceLock`;
//! * the **tail**, the ids from `sorted_len` on: an owned term list and its
//!   own hash map. Every intern past the base lands here.
//!
//! A fresh load interns into the tail (the base is empty) and its renumbering
//! hands the tail's hash map, ids rewritten, to the new base as its index:
//! nothing is hashed twice. A restore builds no base index: the base is in
//! `Term::cmp` order, so a lookup can binary-search it instead, and only the
//! tail is hashed.
//!
//! A search costs ⌈log₂ n⌉ comparisons over a base of `n` terms, the index
//! `n` hashes once. So the base counts its searches, shared by every version
//! that holds it, and the search that brings `searches × ⌈log₂ n⌉` to at
//! least `n` builds the index instead of searching: the searches before it
//! cost about one build. A 41 241-term base builds at its 2 578th search. A
//! restore that replays a short log tail stays below that and never hashes
//! its base; a restored server taking updates crosses it after a few
//! thousand lookups.
//!
//! # Blocks and heads
//!
//! The base is cut into blocks of `BLOCK_LEN` ids, each a boxed slice of
//! terms built at most once, in a `OnceLock`, beside the block's *head*: its
//! first term, always built. A fresh load builds every block as it
//! renumbers, and keeps no bytes. A restore keeps the snapshot's front-coded
//! term table instead (see [`crate::persist::snapshot`]): it validated every
//! entry of it and built the heads, and nothing else. A block is built, from
//! its bytes, by the first `term`, `get`, `find` or `iter` that reaches it —
//! in the manner of HDT's dictionary, which decodes terms on demand
//! (Fernández et al. 2013).
//!
//! An unindexed lookup binary-searches the heads for the one block that can
//! hold the term, answers a head without building anything, and otherwise
//! builds that block and searches it: at most one block a lookup. Building
//! the index reads, and so builds, every block.
//! [`TermDictionary::materialized_len`] counts the ids whose term is built:
//! the tail's, and those of the built blocks.
//!
//! `BLOCK_LEN` is 64, by measurement on the ledger's seed-7 fixture
//! (41 241 terms, 84 096 quads): a restore, a 100-record log replay and the
//! first query took the same time, within noise, at every size from 16 to
//! 256, and built 6 of its 645 blocks at 64. Smaller blocks cost memory
//! before a term is read — the untouched restore holds 34.2 B/quad at 16,
//! 30.6 at 64, 29.7 at 256 — and larger ones make a lookup that misses a
//! head build more terms: 63 at 64.
//!
//! The hash is the standard library's SipHash: terms are outside bytes (a
//! dataset, an update request), and the table must not degrade on terms
//! crafted to collide.

use std::cell::OnceCell;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use hbold_rdf_model::Term;

use crate::persist::snapshot::TermTable;

/// Identifier of an interned term. Dense, starting at 0, unique per store.
pub type TermId = u32;

/// Ids per block of the base (see the module docs).
pub(crate) const BLOCK_LEN: usize = 64;

/// Ids sharing one 64-bit term hash. Collisions are vanishingly rare, so the
/// one-id case avoids a heap allocation, and the many-id case is a boxed
/// slice: 16 bytes a bucket, where a `Vec` would make it 24.
#[derive(Debug, Clone)]
enum Bucket {
    One(TermId),
    Many(Box<[TermId]>),
}

impl Bucket {
    /// The id in the bucket whose term, by `term_at`, is `term`.
    fn find<'a>(&self, term_at: impl Fn(TermId) -> &'a Term, term: &Term) -> Option<TermId> {
        match self {
            Bucket::One(id) => (term_at(*id) == term).then_some(*id),
            Bucket::Many(ids) => ids.iter().copied().find(|&id| term_at(id) == term),
        }
    }

    fn push(&mut self, id: TermId) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(Box::new([*first, id])),
            Bucket::Many(ids) => *ids = ids.iter().copied().chain([id]).collect(),
        }
    }
}

/// A hash index over a term list: term hash → positions in the list.
type Index = HashMap<u64, Bucket>;

/// Files position `at` under `hash`, unless a position already filed there
/// holds `term` (by `term_at`): then that position comes back and nothing is
/// filed.
fn file<'a>(
    index: &mut Index,
    term_at: impl Fn(TermId) -> &'a Term,
    term: &Term,
    hash: u64,
    at: TermId,
) -> Option<TermId> {
    match index.entry(hash) {
        Entry::Occupied(mut e) => {
            if let Some(existing) = e.get().find(term_at, term) {
                return Some(existing);
            }
            e.get_mut().push(at);
        }
        Entry::Vacant(v) => {
            v.insert(Bucket::One(at));
        }
    }
    None
}

fn hash_term(term: &Term) -> u64 {
    let mut hasher = DefaultHasher::new();
    term.hash(&mut hasher);
    hasher.finish()
}

/// The ids below `sorted_len`: strictly increasing under `Term::cmp`,
/// immutable, shared between store versions, cut into blocks of
/// [`BLOCK_LEN`] ids (see the module docs).
#[derive(Debug, Default)]
struct Base {
    len: usize,
    /// The first term of every block.
    heads: Vec<Term>,
    blocks: Vec<OnceLock<Box<[Term]>>>,
    /// A restore's front-coded term table, which builds a block the first
    /// time it is read; `None` when every block was built with the base.
    table: Option<TermTable>,
    index: OnceLock<Index>,
    /// Lookups answered by binary search so far, by every version sharing
    /// this base.
    searches: AtomicUsize,
}

impl Base {
    /// A base of built `blocks`, each [`BLOCK_LEN`] terms but the last.
    fn built(blocks: Vec<Box<[Term]>>, index: OnceLock<Index>) -> Self {
        Base {
            len: blocks.iter().map(|block| block.len()).sum(),
            heads: blocks.iter().map(|block| block[0].clone()).collect(),
            blocks: blocks.into_iter().map(OnceLock::from).collect(),
            table: None,
            index,
            searches: AtomicUsize::new(0),
        }
    }

    /// A restored base of `len` ids: the heads built, every block left in
    /// `table`.
    fn front_coded(table: TermTable, heads: Vec<Term>, len: usize) -> Self {
        debug_assert_eq!(heads.len(), len.div_ceil(BLOCK_LEN));
        Base {
            len,
            blocks: heads.iter().map(|_| OnceLock::new()).collect(),
            heads,
            table: Some(table),
            index: OnceLock::new(),
            searches: AtomicUsize::new(0),
        }
    }

    /// Block `b`'s terms, built now if no read has reached it before.
    fn block(&self, b: usize) -> &[Term] {
        self.blocks[b].get_or_init(|| {
            let table = self.table.as_ref().expect("a base without bytes is built");
            let len = BLOCK_LEN.min(self.len - b * BLOCK_LEN);
            table.block(b, &self.heads[b], len)
        })
    }

    /// The term of `id`, which must be below `len`.
    fn at(&self, id: usize) -> &Term {
        &self.block(id / BLOCK_LEN)[id % BLOCK_LEN]
    }

    fn get(&self, id: usize) -> Option<&Term> {
        (id < self.len).then(|| self.at(id))
    }

    fn iter(&self) -> impl Iterator<Item = &Term> {
        (0..self.blocks.len()).flat_map(|b| self.block(b))
    }

    /// How many ids sit in built blocks.
    fn built_len(&self) -> usize {
        self.blocks
            .iter()
            .filter_map(OnceLock::get)
            .map(|b| b.len())
            .sum()
    }

    /// The id of `term` if the base holds it. `hash` is the term's hash,
    /// computed only if the index answers.
    fn find(&self, term: &Term, hash: impl Fn() -> u64) -> Option<TermId> {
        if self.len == 0 {
            return None;
        }
        if let Some(index) = self.index_for_lookup() {
            let term_at = |id: TermId| self.at(id as usize);
            return index.get(&hash()).and_then(|b| b.find(term_at, term));
        }
        // The last block whose head is at most `term` is the one that can
        // hold it.
        let key = term.order_key();
        let b = self
            .heads
            .partition_point(|head| head.order_key() <= key)
            .checked_sub(1)?;
        let first = b * BLOCK_LEN;
        if self.heads[b] == *term {
            return Some(first as TermId);
        }
        self.block(b)[1..]
            .binary_search_by(|t| t.order_key().cmp(&key))
            .ok()
            .map(|i| (first + 1 + i) as TermId)
    }

    /// The index, if it exists or this lookup is the one that pays for it:
    /// otherwise the lookup is counted as a search (see the module docs).
    fn index_for_lookup(&self) -> Option<&Index> {
        if let Some(index) = self.index.get() {
            return Some(index);
        }
        // The count publishes nothing else: `OnceLock` orders the index.
        let searches = self.searches.fetch_add(1, Ordering::Relaxed) + 1;
        let comparisons = self.len.next_power_of_two().trailing_zeros() as usize;
        (searches.saturating_mul(comparisons) >= self.len).then(|| {
            self.index.get_or_init(|| {
                let mut index = Index::with_capacity(self.len);
                let term_at = |id: TermId| self.at(id as usize);
                for (i, term) in self.iter().enumerate() {
                    file(&mut index, term_at, term, hash_term(term), i as TermId);
                }
                index
            })
        })
    }
}

/// The ids from `sorted_len` on, hashed. Bucket entries are positions in
/// `terms`, not ids.
#[derive(Debug, Clone, Default)]
struct Tail {
    terms: Vec<Term>,
    by_hash: Index,
}

impl Tail {
    fn find(&self, term: &Term, hash: impl Fn() -> u64) -> Option<TermId> {
        if self.terms.is_empty() {
            return None;
        }
        let term_at = |at: TermId| &self.terms[at as usize];
        self.by_hash
            .get(&hash())
            .and_then(|b| b.find(term_at, term))
    }
}

/// A bidirectional mapping between [`Term`]s and [`TermId`]s.
///
/// Interning is append-only: terms are never removed, even when the last
/// triple mentioning them is deleted. For H-BOLD's workload (load a dataset,
/// query it many times) this is the right trade-off, and it keeps all
/// existing identifiers stable.
///
/// The hash maps are keyed by the term's 64-bit hash rather than by the
/// term itself: each `intern` miss therefore pays one hash computation, a
/// lookup in the base and a probe of the tail, and one `Term` clone (into
/// the tail's term list), instead of the two probes and two clones a
/// `HashMap<Term, TermId>` would cost per table — and a table stores 24
/// bytes per entry instead of a second copy of every term.
///
/// Ids below [`TermDictionary::sorted_len`] are numbered in `Term::cmp`
/// order and live in a base shared by every clone; the rest live in an owned,
/// hashed tail (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct TermDictionary {
    base: Arc<Base>,
    tail: Tail,
}

impl TermDictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        TermDictionary::default()
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.base.len + self.tail.terms.len()
    }

    /// Returns `true` if no terms have been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pre-reserves capacity for at least `additional` further terms; bulk
    /// load paths call this once up front instead of growing both tables
    /// incrementally.
    pub fn reserve(&mut self, additional: usize) {
        self.tail.terms.reserve(additional);
        self.tail.by_hash.reserve(additional);
    }

    /// How many leading ids are numbered in `Term::cmp` order: for any two
    /// ids `a, b < sorted_len()`, `a < b` exactly when
    /// `term(a) < term(b)`.
    pub fn sorted_len(&self) -> usize {
        self.base.len
    }

    /// How many ids a hash index covers: the tail's always, the base's once
    /// its index exists — all of them after a fresh load, the tail's alone
    /// after a restore until the base's searches pay for its index.
    pub fn hashed_len(&self) -> usize {
        let base = self.base.index.get().map_or(0, |_| self.base.len);
        base + self.tail.terms.len()
    }

    /// How many ids have their term built: the tail's always, the base's
    /// block by block — all of them after a fresh load, those of the blocks
    /// a read has reached after a restore (see the module docs).
    pub fn materialized_len(&self) -> usize {
        self.base.built_len() + self.tail.terms.len()
    }

    /// A restored dictionary: a front-coded base of `sorted_len` ids whose
    /// block heads are `heads` (the caller validated the table and checked
    /// that it increases under `Term::cmp`), then `tail`, each of its terms
    /// checked against the base by search and against the tail before it
    /// by hash. `None` when a term is listed twice: the table would not be
    /// a bijection, and lookups would disagree with the quads that name the
    /// other copy.
    pub(crate) fn restored(
        table: TermTable,
        heads: Vec<Term>,
        sorted_len: usize,
        tail: Vec<Term>,
    ) -> Option<Self> {
        Self::with_tail(Base::front_coded(table, heads, sorted_len), tail)
    }

    /// [`TermDictionary::restored`] from a built term list, whose first
    /// `sorted_len` entries increase.
    #[cfg(test)]
    pub(crate) fn from_terms(mut terms: Vec<Term>, sorted_len: usize) -> Option<Self> {
        let tail = terms.split_off(sorted_len);
        let blocks = terms.chunks(BLOCK_LEN).map(Box::from).collect();
        Self::with_tail(Base::built(blocks, OnceLock::new()), tail)
    }

    fn with_tail(base: Base, tail: Vec<Term>) -> Option<Self> {
        let mut by_hash = Index::with_capacity(tail.len());
        for (at, term) in tail.iter().enumerate() {
            let hash = hash_term(term);
            let term_at = |at: TermId| &tail[at as usize];
            if base.find(term, || hash).is_some()
                || file(&mut by_hash, term_at, term, hash, at as TermId).is_some()
            {
                return None;
            }
        }
        Some(TermDictionary {
            base: Arc::new(base),
            tail: Tail {
                terms: tail,
                by_hash,
            },
        })
    }

    /// Renumbers every term in `Term::cmp` order and returns the map from
    /// old id to new (`old_to_new[old] == new`); afterwards
    /// [`TermDictionary::sorted_len`] covers the whole dictionary.
    ///
    /// One `sort_by_cached_key` over the terms' [`OrderKey`]s — each
    /// literal's value is parsed once, not once per comparison — then the
    /// term list is permuted into the new base's blocks and the tail's hash
    /// buckets are rewritten in place into its index: no term is hashed
    /// again. Only a store's fresh load calls it, while the base is empty
    /// and no id of this dictionary can be held anywhere else.
    ///
    /// [`OrderKey`]: hbold_rdf_model::OrderKey
    pub(crate) fn renumber(&mut self) -> Vec<TermId> {
        debug_assert!(self.base.len == 0, "renumbering a restored base");
        let Tail { terms, mut by_hash } = std::mem::take(&mut self.tail);
        let mut new_to_old: Vec<TermId> = (0..terms.len() as TermId).collect();
        new_to_old.sort_by_cached_key(|&old| terms[old as usize].order_key());
        let mut old_to_new = vec![0; new_to_old.len()];
        for (new, &old) in new_to_old.iter().enumerate() {
            old_to_new[old as usize] = new as TermId;
        }
        let mut old_terms: Vec<Option<Term>> = terms.into_iter().map(Some).collect();
        let mut take = |old: &TermId| old_terms[*old as usize].take().expect("a permutation");
        let blocks = new_to_old
            .chunks(BLOCK_LEN)
            .map(|chunk| chunk.iter().map(&mut take).collect())
            .collect();
        for bucket in by_hash.values_mut() {
            match bucket {
                Bucket::One(id) => *id = old_to_new[*id as usize],
                Bucket::Many(ids) => ids.iter_mut().for_each(|id| *id = old_to_new[*id as usize]),
            }
        }
        self.base = Arc::new(Base::built(blocks, OnceLock::from(by_hash)));
        old_to_new
    }

    /// Interns `term`, returning its identifier. Idempotent.
    ///
    /// A hit costs one lookup (a hash + probe, or a search of an unindexed
    /// base) and no clone; a miss additionally clones the term once, into
    /// the tail, at the next id — past [`TermDictionary::sorted_len`], which
    /// it does not extend.
    pub fn intern(&mut self, term: &Term) -> TermId {
        let hash = OnceCell::new();
        let hash = || *hash.get_or_init(|| hash_term(term));
        if let Some(id) = self.base.find(term, hash) {
            return id;
        }
        let base_len = self.base.len as TermId;
        let Tail { terms, by_hash } = &mut self.tail;
        let at = terms.len() as TermId;
        let term_at = |at: TermId| &terms[at as usize];
        if let Some(existing) = file(by_hash, term_at, term, hash(), at) {
            return base_len + existing;
        }
        terms.push(term.clone());
        base_len + at
    }

    /// Looks up the identifier of an already-interned term.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        let hash = OnceCell::new();
        let hash = || *hash.get_or_init(|| hash_term(term));
        self.base.find(term, hash).or_else(|| {
            let base_len = self.base.len as TermId;
            self.tail.find(term, hash).map(|at| base_len + at)
        })
    }

    /// Returns the term with the given identifier.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this dictionary.
    pub fn term(&self, id: TermId) -> &Term {
        match self.base.get(id as usize) {
            Some(term) => term,
            None => &self.tail.terms[id as usize - self.base.len],
        }
    }

    /// Returns the term with the given identifier, or `None` if out of range.
    pub fn get(&self, id: TermId) -> Option<&Term> {
        let id = id as usize;
        match id.checked_sub(self.base.len) {
            None => self.base.get(id),
            Some(at) => self.tail.terms.get(at),
        }
    }

    /// Iterates over all `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.base
            .iter()
            .chain(&self.tail.terms)
            .enumerate()
            .map(|(i, t)| (i as TermId, t))
    }

    /// Whether `self` and `other` share one base.
    #[cfg(test)]
    pub(crate) fn shares_base_with(&self, other: &TermDictionary) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbold_rdf_model::{BlankNode, Iri, Literal};

    fn iri(text: &str) -> Term {
        Iri::new(text).unwrap().into()
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut d = TermDictionary::new();
        let a = iri("http://e.org/a");
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
        let terms: Vec<Term> = (0..5).map(|i| iri(&format!("http://e.org/{i}"))).collect();
        for t in &terms {
            d.intern(t);
        }
        let collected: Vec<&Term> = d.iter().map(|(_, t)| t).collect();
        assert_eq!(collected, terms.iter().collect::<Vec<_>>());
    }

    #[test]
    fn from_terms_rebuild_matches_interning() {
        let terms: Vec<Term> = (0..20).map(|i| iri(&format!("http://e.org/{i}"))).collect();
        // Unsorted, sorted up to 10, and all of it sorted: the same ids.
        let mut sorted = terms.clone();
        sorted.sort();
        for (terms, sorted_len) in [(&terms, 0), (&sorted, 10), (&sorted, 20)] {
            let rebuilt = TermDictionary::from_terms(terms.clone(), sorted_len).unwrap();
            assert_eq!(rebuilt.len(), 20);
            assert_eq!(rebuilt.sorted_len(), sorted_len);
            for (i, t) in terms.iter().enumerate() {
                assert_eq!(rebuilt.id_of(t), Some(i as TermId));
                assert_eq!(rebuilt.term(i as TermId), t);
            }
            assert_eq!(rebuilt.id_of(&iri("http://e.org/missing")), None);
        }
        let mut twice = terms.clone();
        twice.push(terms[3].clone());
        assert!(TermDictionary::from_terms(twice, 0).is_none());
    }

    /// 112 terms of every kind, strictly increasing under `Term::cmp`.
    fn sorted_mix() -> Vec<Term> {
        let mut terms: Vec<Term> = (0..28)
            .flat_map(|i| {
                [
                    BlankNode::new(format!("b{i}")).into(),
                    iri(&format!("http://e.org/{i}")),
                    Literal::integer(i).into(),
                    Literal::string(format!("{i}")).into(),
                ]
            })
            .collect();
        terms.sort();
        terms
    }

    #[test]
    fn a_restored_base_is_searched_until_its_searches_pay_for_the_index() {
        // ⌈log₂ 112⌉ = 7, so the 16th search builds the index: 16 × 7 = 112.
        let terms = sorted_mix();
        assert_eq!(terms.len(), 112);
        let mut d = TermDictionary::from_terms(terms.clone(), 112).unwrap();
        let missing: [Term; 2] = [iri("http://e.org/missing"), Literal::integer(99).into()];
        let new: Term = Literal::integer(1000).into();
        assert_eq!(d.hashed_len(), 0, "a restore hashes no base term");
        // Searches 1–15: six by `id_of`, two misses, six by `intern`, and
        // the intern of a new term, which searches the base before the tail.
        let probes: Vec<usize> = (0..12).map(|k| k * 37 % 112).collect();
        let mut before = Vec::new();
        for &at in &probes[..6] {
            before.push(d.id_of(&terms[at]));
        }
        assert_eq!(missing.each_ref().map(|t| d.id_of(t)), [None, None]);
        for &at in &probes[6..] {
            before.push(Some(d.intern(&terms[at])));
        }
        assert_eq!(d.intern(&new), 112);
        assert_eq!(d.len(), 113);
        assert_eq!(d.hashed_len(), 1, "15 searches: only the tail is hashed");
        // The 16th builds it, and answers through it.
        assert_eq!(d.id_of(&terms[111]), Some(111));
        assert_eq!(d.hashed_len(), 113, "the 16th search hashes the base");
        let after: Vec<_> = probes.iter().map(|&at| d.id_of(&terms[at])).collect();
        assert_eq!(before, after);
        let expected: Vec<_> = probes.iter().map(|&at| Some(at as TermId)).collect();
        assert_eq!(before, expected);
        for (i, t) in terms.iter().enumerate() {
            assert_eq!(d.id_of(t), Some(i as TermId));
            assert_eq!(d.intern(t), i as TermId);
        }
        assert_eq!(missing.each_ref().map(|t| d.id_of(t)), [None, None]);
        assert_eq!((d.id_of(&new), d.intern(&new)), (Some(112), 112));
        assert_eq!(d.len(), 113);
    }

    #[test]
    fn a_search_finds_every_id_around_block_boundaries() {
        // 200 ids: blocks of 64, 64, 64 and 8. ⌈log₂ 200⌉ = 8, so the
        // index is built at the 25th search; these are 22.
        let terms: Vec<Term> = (0..200)
            .map(|i| iri(&format!("http://e.org/{i:03}")))
            .collect();
        let d = TermDictionary::from_terms(terms.clone(), 200).unwrap();
        assert_eq!((d.sorted_len(), d.materialized_len()), (200, 200));
        for id in [0, 1, 62, 63, 64, 65, 127, 128, 129, 191, 192, 193, 198, 199] {
            assert_eq!(d.id_of(&terms[id]), Some(id as TermId), "{id}");
            assert_eq!(d.term(id as TermId), &terms[id]);
        }
        let missing: [Term; 8] = [
            BlankNode::new("first").into(),
            iri("http://e.org/"),
            iri("http://e.org/063a"),
            iri("http://e.org/064a"),
            iri("http://e.org/191a"),
            iri("http://e.org/199a"),
            iri("http://f.org/"),
            Literal::integer(1).into(),
        ];
        for term in &missing {
            assert_eq!(d.id_of(term), None, "{term}");
        }
        assert_eq!(d.hashed_len(), 0, "22 searches, no index");
        assert_eq!(d.get(200), None);
        assert_eq!(d.iter().map(|(_, t)| t.clone()).collect::<Vec<_>>(), terms);
    }

    #[test]
    fn clones_share_the_base_and_its_index() {
        let terms = sorted_mix();
        let original = TermDictionary::from_terms(terms.clone(), 112).unwrap();
        let mut copy = original.clone();
        assert!(copy.shares_base_with(&original));
        // An intern into the copy lands in its own tail.
        let new = iri("http://a.example/new");
        assert_eq!(copy.intern(&new), 112);
        assert!(copy.shares_base_with(&original));
        assert_eq!((original.len(), original.id_of(&new)), (112, None));
        // Searches through either version count toward one index, which
        // both then use: two above, and the 14th here is the 16th.
        for t in &terms[..14] {
            assert!(copy.id_of(t).is_some());
        }
        assert_eq!(copy.hashed_len(), 113);
        assert_eq!(original.hashed_len(), 112);
        // A restore of the same terms is a base of its own.
        let restored = TermDictionary::from_terms(terms, 112).unwrap();
        assert!(!restored.shares_base_with(&original));
        assert_eq!(restored.hashed_len(), 0);
    }

    #[test]
    fn renumbering_puts_ids_in_term_order_and_keeps_every_lookup() {
        let terms: Vec<Term> = vec![
            Literal::integer(10).into(),
            iri("http://e.org/b"),
            Literal::string("5").into(),
            BlankNode::new("z").into(),
            Literal::integer(9).into(),
            iri("http://e.org/a"),
        ];
        let mut d = TermDictionary::new();
        let old: Vec<TermId> = terms.iter().map(|t| d.intern(t)).collect();
        assert_eq!(d.sorted_len(), 0);
        let old_to_new = d.renumber();
        assert_eq!(d.sorted_len(), terms.len());
        // The load's hash map became the base's index.
        assert_eq!(d.hashed_len(), terms.len());
        let mut sorted = terms.clone();
        sorted.sort();
        let in_id_order: Vec<Term> = d.iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(in_id_order, sorted);
        for (t, &id) in terms.iter().zip(&old) {
            assert_eq!(d.id_of(t), Some(old_to_new[id as usize]));
            assert_eq!(d.term(old_to_new[id as usize]), t);
        }
        // A later intern appends past the sorted run, whatever the term.
        let first: Term = BlankNode::new("a").into();
        assert_eq!(d.intern(&first), terms.len() as TermId);
        assert_eq!(d.sorted_len(), terms.len());
        assert_eq!(d.id_of(&first), Some(terms.len() as TermId));
        assert_eq!(d.hashed_len(), terms.len() + 1);
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
        let terms: Vec<Term> = ["a", "b", "c"].map(|t| Literal::string(t).into()).into();
        let at = |id: TermId| &terms[id as usize];
        let mut bucket = Bucket::One(0);
        bucket.push(1);
        assert_eq!(bucket.find(at, &terms[0]), Some(0));
        assert_eq!(bucket.find(at, &terms[1]), Some(1));
        assert_eq!(bucket.find(at, &terms[2]), None);
        bucket.push(2);
        assert_eq!(bucket.find(at, &terms[2]), Some(2));
        assert_eq!(bucket.find(at, &Literal::string("d").into()), None);
        assert_eq!(std::mem::size_of::<Bucket>(), 16);
    }
}
