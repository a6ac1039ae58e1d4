//! The [`TripleStore`]: dictionary + three graph-first positional quad
//! indexes.

use hbold_rdf_model::{Graph, Quad, Term, Triple, TriplePattern};

use crate::dictionary::{TermDictionary, TermId};
use crate::index::{IndexOrder, PositionalIndex, PrefixScan, TierSizes};

/// The reserved identifier of the default graph.
///
/// It is `TermId::MAX`, which the dictionary can never hand out in practice
/// (interning 2³²−1 terms would exhaust memory first), so the graph
/// component of every encoded quad is always a valid `TermId` and the
/// graph-first indexes need no `Option`. Because index ranges are inclusive
/// on both bounds, the sentinel scans like any other identifier.
pub const DEFAULT_GRAPH: TermId = TermId::MAX;

/// The fold policy's one number: a store carries at most one churn key
/// (`delta` inserts + `dead` tombstones) per `FOLD_RATIO` keys of its flat
/// tiers; the change that would exceed that merges all three orders instead
/// (see [`TripleStore::absorb`]).
///
/// Both sides of the trade scale with it, which is why it is a constant and
/// not an option: a merge rewrites at most `FOLD_RATIO + 1` keys per key
/// changed since the last one, so writes cost `O(change · log n)` amortised,
/// and the churn tiers never hold more than `1 / FOLD_RATIO` (≈ 6 %) of the
/// store, which bounds what a scan pays to merge them in (measured in
/// ROADMAP.md, "O(delta) writes"). Nothing a caller knows — store size,
/// update size, read/write mix — moves the balance point, because the
/// threshold already scales with the store.
const FOLD_RATIO: usize = 16;

/// A triple with all three terms replaced by dictionary identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EncodedTriple {
    /// Subject identifier.
    pub subject: TermId,
    /// Predicate identifier.
    pub predicate: TermId,
    /// Object identifier.
    pub object: TermId,
}

/// An in-memory RDF quad store with dictionary encoding and three
/// graph-first indexes: GSPO, GPOS, GOSP.
///
/// Every scan reads inside one graph — the default graph is addressed by
/// the reserved [`DEFAULT_GRAPH`] identifier — so a graph prefix followed by
/// a triple prefix serves every pattern shape. Reading across graphs is the
/// caller's loop over [`TripleStore::named_graph_ids`]. The triple-level API
/// (insert/remove/matching/iter) operates on the default graph, so
/// triples-only callers see exactly the pre-quad behaviour; the
/// `*_in_graph` and quad APIs address named graphs.
///
/// ```
/// use hbold_rdf_model::{Iri, Triple, TriplePattern, vocab::{foaf, rdf}};
/// use hbold_triple_store::TripleStore;
///
/// let mut store = TripleStore::new();
/// let alice = Iri::new("http://example.org/alice")?;
/// let triple = Triple::new(alice.clone(), rdf::type_(), foaf::person());
/// assert!(store.insert(&triple));
/// assert!(!store.insert(&triple), "inserts are set-semantics");
///
/// // A pattern with bound positions becomes a range scan on the best index.
/// let people = store.matching(&TriplePattern::any().with_predicate(rdf::type_()));
/// assert_eq!(people.len(), 1);
///
/// // The same triple in a named graph is a distinct quad.
/// let g: hbold_rdf_model::Term = Iri::new("http://example.org/g")?.into();
/// assert!(store.insert_in_graph(&triple, Some(&g)));
/// assert_eq!(store.len(), 2, "two quads");
/// assert_eq!(store.default_graph_len(), 1, "one default-graph triple");
///
/// assert!(store.remove(&triple));
/// assert_eq!(store.default_graph_len(), 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TripleStore {
    dict: TermDictionary,
    gspo: PositionalIndex,
    gpos: PositionalIndex,
    gosp: PositionalIndex,
}

/// An encoded quad in GSPO order: `(graph, subject, predicate, object)`.
type QuadKey = (TermId, TermId, TermId, TermId);

/// One quad by reference — subject, predicate, object, graph (`None` = the
/// default graph) — borrowed from a [`Triple`] plus a graph name or from a
/// [`Quad`]. Every insert, remove and lookup is written once against this
/// form, so neither owned form is ever cloned into the other.
type QuadRef<'a> = (&'a Term, &'a Term, &'a Term, Option<&'a Term>);

fn triple_ref<'a>(triple: &'a Triple, graph: Option<&'a Term>) -> QuadRef<'a> {
    (&triple.subject, &triple.predicate, &triple.object, graph)
}

fn quad_ref(quad: &Quad) -> QuadRef<'_> {
    (
        &quad.subject,
        &quad.predicate,
        &quad.object,
        quad.graph.as_ref(),
    )
}

/// The GPOS key of a GSPO key.
#[inline]
fn gpos((g, s, p, o): QuadKey) -> QuadKey {
    (g, p, o, s)
}

/// The GOSP key of a GSPO key.
#[inline]
fn gosp((g, s, p, o): QuadKey) -> QuadKey {
    (g, o, s, p)
}

impl TripleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TripleStore::default()
    }

    /// Builds a store from a [`Graph`] using the batched bulk-load path
    /// (into the default graph): a fresh load, so its ids are numbered in
    /// `Term::cmp` order.
    pub fn from_graph(graph: &Graph) -> Self {
        let mut store = TripleStore::new();
        store.insert_batch(graph.iter());
        store
    }

    /// Rebuilds a store from a decoded snapshot: the id-ordered dictionary
    /// plus GSPO-ordered encoded quads. The other two permutations are
    /// derived here rather than stored, keeping the snapshot small.
    ///
    /// All three indexes are built as pure sorted flat vectors (see
    /// [`PositionalIndex`]), so a restored store starts on the contiguous
    /// scan fast path with zero B-tree nodes.
    pub(crate) fn from_snapshot_quads(dict: TermDictionary, mut keys: Vec<QuadKey>) -> Self {
        // The snapshot writer emits ascending GSPO order, but defend against
        // hand-crafted files: sort + dedup is cheap relative to decode.
        keys.sort_unstable();
        keys.dedup();
        let sorted = |f: fn(QuadKey) -> QuadKey| -> PositionalIndex {
            let mut permuted: Vec<QuadKey> = keys.iter().copied().map(f).collect();
            permuted.sort_unstable();
            PositionalIndex::from_sorted(permuted)
        };
        TripleStore {
            dict,
            gpos: sorted(gpos),
            gosp: sorted(gosp),
            gspo: PositionalIndex::from_sorted(keys),
        }
    }

    /// Iterates the encoded quads in ascending GSPO order (the order the
    /// snapshot writer delta-encodes them in; the default graph sorts
    /// last because its identifier is `TermId::MAX`).
    pub(crate) fn encoded_gspo_iter(&self) -> impl Iterator<Item = &QuadKey> {
        self.gspo.scan_all()
    }

    /// Number of quads stored (across the default and all named graphs).
    pub fn len(&self) -> usize {
        self.gspo.len()
    }

    /// Number of triples in the default graph.
    pub fn default_graph_len(&self) -> usize {
        self.gspo.count_prefix1(DEFAULT_GRAPH)
    }

    /// Number of quads in one graph (`None` = the default graph).
    pub fn graph_len(&self, graph: Option<&Term>) -> usize {
        match self.graph_id(graph) {
            Some(g) => self.gspo.count_prefix1(g),
            None => 0,
        }
    }

    /// Returns `true` if the store holds no quads.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct terms interned by the store.
    pub fn term_count(&self) -> usize {
        self.dict.len()
    }

    /// Per-tier sizes of the three positional indexes (flat / delta / dead;
    /// see [`crate::index`]) — the raw material for storage-tier gauges.
    pub fn index_tier_sizes(&self) -> [(IndexOrder, TierSizes); 3] {
        [
            (IndexOrder::Gspo, self.gspo.tier_sizes()),
            (IndexOrder::Gpos, self.gpos.tier_sizes()),
            (IndexOrder::Gosp, self.gosp.tier_sizes()),
        ]
    }

    /// Access to the term dictionary (read-only).
    pub fn dictionary(&self) -> &TermDictionary {
        &self.dict
    }

    /// The identifier of a graph name (`None` = [`DEFAULT_GRAPH`]), or
    /// `None` when a named graph's term was never interned.
    fn graph_id(&self, graph: Option<&Term>) -> Option<TermId> {
        match graph {
            None => Some(DEFAULT_GRAPH),
            Some(term) => self.dict.id_of(term),
        }
    }

    /// Puts one encoded quad into the churn tiers of all three orders.
    fn insert_churn(&mut self, key: QuadKey) -> bool {
        let inserted = self.gspo.insert(key);
        if inserted {
            self.gpos.insert(gpos(key));
            self.gosp.insert(gosp(key));
        }
        inserted
    }

    /// Takes one quad out through the churn tiers of all three orders.
    fn remove_churn(&mut self, quad: QuadRef<'_>) -> bool {
        let Some(key) = self.key_of(quad) else {
            return false;
        };
        let removed = self.gspo.remove(&key);
        if removed {
            self.gpos.remove(&gpos(key));
            self.gosp.remove(&gosp(key));
        }
        removed
    }

    /// The tier policy — every mutation ends here, and nothing else chooses
    /// between the churn tiers and a merge. Inserts `batch` (GSPO keys;
    /// empty after a removal, whose tombstones are already in place) and
    /// returns how many keys were new.
    ///
    /// While the churn the store would then carry stays within one key per
    /// [`FOLD_RATIO`] flat keys, the batch goes key by key into the churn
    /// tiers: `O(|batch| · log n)`, the flat tiers untouched. The change
    /// that would cross the line merges instead — batch, `delta` and `dead`
    /// into three fresh flat tiers in one linear pass each — so a bulk load
    /// is one sort-and-merge, accumulated churn folds on the mutation that
    /// crosses, and the three orders are always in the same tier state.
    fn absorb(&mut self, batch: &[QuadKey]) -> usize {
        let before = self.len();
        let TierSizes {
            flat, delta, dead, ..
        } = self.gspo.tier_sizes();
        if delta + dead + batch.len() <= flat / FOLD_RATIO {
            for &key in batch {
                self.insert_churn(key);
            }
        } else {
            self.gspo.insert_batch(batch.iter().copied());
            self.gpos.insert_batch(batch.iter().copied().map(gpos));
            self.gosp.insert_batch(batch.iter().copied().map(gosp));
            crate::persist::count_fold(self.len());
        }
        self.len() - before
    }

    /// Interns the four terms of a quad, cloning only those that are new.
    fn intern_ref(&mut self, (s, p, o, graph): QuadRef<'_>) -> QuadKey {
        let g = match graph {
            None => DEFAULT_GRAPH,
            Some(term) => self.dict.intern(term),
        };
        (
            g,
            self.dict.intern(s),
            self.dict.intern(p),
            self.dict.intern(o),
        )
    }

    /// The GSPO key of a quad, or `None` when one of its terms was never
    /// interned (so the quad cannot be stored): four dictionary probes.
    fn key_of(&self, (s, p, o, graph): QuadRef<'_>) -> Option<QuadKey> {
        Some((
            self.graph_id(graph)?,
            self.dict.id_of(s)?,
            self.dict.id_of(p)?,
            self.dict.id_of(o)?,
        ))
    }

    fn insert_ref(&mut self, quad: QuadRef<'_>) -> bool {
        let key = self.intern_ref(quad);
        self.absorb(&[key]) == 1
    }

    fn remove_ref(&mut self, quad: QuadRef<'_>) -> bool {
        let removed = self.remove_churn(quad);
        if removed {
            self.absorb(&[]);
        }
        removed
    }

    fn contains_ref(&self, quad: QuadRef<'_>) -> bool {
        self.key_of(quad)
            .is_some_and(|key| self.gspo.contains(&key))
    }

    /// Inserts a triple into the default graph; returns `true` if it was
    /// not already present there.
    pub fn insert(&mut self, triple: &Triple) -> bool {
        self.insert_in_graph(triple, None)
    }

    /// Inserts a triple into one graph (`None` = the default graph);
    /// returns `true` if the quad was new.
    pub fn insert_in_graph(&mut self, triple: &Triple, graph: Option<&Term>) -> bool {
        self.insert_ref(triple_ref(triple, graph))
    }

    /// Inserts a quad; returns `true` if it was new.
    pub fn insert_quad(&mut self, quad: &Quad) -> bool {
        self.insert_ref(quad_ref(quad))
    }

    /// Inserts a batch of triples into the default graph, returning how
    /// many were new.
    ///
    /// Terms are interned once per occurrence and the tier policy is decided
    /// once for the whole batch: a batch that is large against the store (a
    /// bulk load) is one sort-and-merge per index, a small one goes key by
    /// key into the churn tiers and leaves the flat tiers alone. A batch into
    /// a store that has never interned a term numbers its terms in
    /// `Term::cmp` order (see [`crate::dictionary`]).
    pub fn insert_batch<'a>(&mut self, triples: impl IntoIterator<Item = &'a Triple>) -> usize {
        self.insert_refs(triples.into_iter().map(|t| triple_ref(t, None)))
    }

    /// Inserts a batch of quads, returning how many were new (same tier
    /// policy as [`TripleStore::insert_batch`]).
    pub fn insert_quads_batch<'a>(&mut self, quads: impl IntoIterator<Item = &'a Quad>) -> usize {
        self.insert_refs(quads.into_iter().map(quad_ref))
    }

    /// The batch path. A batch into an empty dictionary is a *fresh load*:
    /// it interns as any batch does, then renumbers the dictionary into term
    /// order once and rewrites its own keys before they reach an index — no
    /// id of the store existed before the batch, so none held elsewhere can
    /// go stale (see [`crate::dictionary`]).
    fn insert_refs<'a>(&mut self, quads: impl Iterator<Item = QuadRef<'a>>) -> usize {
        let fresh = self.dict.is_empty();
        // Most batches repeat subjects/predicates heavily, so the quad
        // count itself is a reasonable (slightly generous) bound on new
        // dictionary entries — reserving it once beats rehashing mid-load.
        self.dict.reserve(quads.size_hint().0);
        let mut encoded: Vec<QuadKey> = quads.map(|quad| self.intern_ref(quad)).collect();
        if fresh {
            let old_to_new = self.dict.renumber();
            let id = |old: TermId| old_to_new[old as usize];
            for (g, s, p, o) in &mut encoded {
                if *g != DEFAULT_GRAPH {
                    *g = id(*g);
                }
                (*s, *p, *o) = (id(*s), id(*p), id(*o));
            }
        }
        self.absorb(&encoded)
    }

    /// Removes a triple from the default graph; returns `true` if it was
    /// present there.
    ///
    /// The dictionary entries of its terms are kept (interning is
    /// append-only; see [`TermDictionary`]).
    pub fn remove(&mut self, triple: &Triple) -> bool {
        self.remove_in_graph(triple, None)
    }

    /// Removes a triple from one graph (`None` = the default graph);
    /// returns `true` if the quad was present.
    pub fn remove_in_graph(&mut self, triple: &Triple, graph: Option<&Term>) -> bool {
        self.remove_ref(triple_ref(triple, graph))
    }

    /// Removes a quad; returns `true` if it was present.
    pub fn remove_quad(&mut self, quad: &Quad) -> bool {
        self.remove_ref(quad_ref(quad))
    }

    /// Applies one delta — every remove, then every insert — as a single
    /// change: the tier policy is decided once, with the tombstones and the
    /// inserts counted together, so a delta costs `O(|delta| · log n)` and
    /// at most one merge however it is split between the two lists.
    /// Idempotent per quad; returns `(removed, inserted)`.
    pub fn apply_delta(&mut self, removes: &[Quad], inserts: &[Quad]) -> (usize, usize) {
        let removed = removes
            .iter()
            .filter(|quad| self.remove_churn(quad_ref(quad)))
            .count();
        (removed, self.insert_quads_batch(inserts))
    }

    /// Returns `true` if the exact triple is present in the default graph.
    pub fn contains(&self, triple: &Triple) -> bool {
        self.contains_in_graph(triple, None)
    }

    /// Returns `true` if the triple is present in one graph (`None` = the
    /// default graph).
    pub fn contains_in_graph(&self, triple: &Triple, graph: Option<&Term>) -> bool {
        self.contains_ref(triple_ref(triple, graph))
    }

    /// Returns `true` if the exact quad is present.
    pub fn contains_quad(&self, quad: &Quad) -> bool {
        self.contains_ref(quad_ref(quad))
    }

    /// The identifier of a term, if it has been interned.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        self.dict.id_of(term)
    }

    /// The term behind an identifier.
    pub fn term(&self, id: TermId) -> &Term {
        self.dict.term(id)
    }

    /// Streams the encoded triples of the **default graph** matching the
    /// encoded pattern `(subject?, predicate?, object?)`, choosing the best
    /// index: [`TripleStore::matching_quads_encoded_iter`] on
    /// [`DEFAULT_GRAPH`].
    pub fn matching_encoded_iter(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> EncodedScan<'_> {
        self.matching_quads_encoded_iter(DEFAULT_GRAPH, subject, predicate, object)
    }

    /// Streams the encoded triples of one graph ([`DEFAULT_GRAPH`] for the
    /// default graph) matching the encoded pattern
    /// `(subject?, predicate?, object?)`, choosing the graph-first index
    /// whose order puts the bound positions right after the graph.
    ///
    /// This is the innermost loop of the SPARQL engine: it returns a
    /// concrete iterator (no boxing, no decoding) walking a contiguous index
    /// range, so a BGP join stays entirely in the `TermId` domain.
    pub fn matching_quads_encoded_iter(
        &self,
        graph: TermId,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> EncodedScan<'_> {
        let (order, index, [a, b, c], bound) = self.lookup([subject, predicate, object]);
        let scan = match bound {
            0 => index.scan_prefix1(graph),
            1 => index.scan_prefix2(graph, a),
            2 => index.scan_prefix3(graph, a, b),
            _ => index.scan_prefix4(graph, a, b, c),
        };
        EncodedScan { scan, order }
    }

    /// A pattern lookup's dispatch ([`IndexOrder::for_pattern`]): the order,
    /// its index, the pattern's ids in the index's key order (open positions
    /// as 0, all after the bound ones) and how many are bound.
    fn lookup(
        &self,
        spo: [Option<TermId>; 3],
    ) -> (IndexOrder, &PositionalIndex, [TermId; 3], usize) {
        let (order, open) = IndexOrder::for_pattern(spo.map(|id| id.is_some()));
        let index = match order {
            IndexOrder::Gspo => &self.gspo,
            IndexOrder::Gpos => &self.gpos,
            IndexOrder::Gosp => &self.gosp,
        };
        let key = order.positions().map(|position| spo[position].unwrap_or(0));
        (order, index, key, 3 - open.len())
    }

    /// Counts the default-graph triples matching the encoded pattern
    /// `(subject?, predicate?, object?)` without walking them
    /// ([`TripleStore::count_matching_quads_encoded`] on [`DEFAULT_GRAPH`]).
    pub fn count_matching_encoded(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> usize {
        self.count_matching_quads_encoded(DEFAULT_GRAPH, subject, predicate, object)
    }

    /// Counts the triples of one graph matching the encoded pattern
    /// `(subject?, predicate?, object?)` without walking them: the same
    /// index dispatch as [`TripleStore::matching_quads_encoded_iter`], but
    /// each prefix is resolved by the flat tier's directory (plus the churn
    /// tiers; see [`crate::index`]). This is the exact-cardinality
    /// primitive behind the SPARQL cost-based join optimizer.
    pub fn count_matching_quads_encoded(
        &self,
        graph: TermId,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> usize {
        let (_, index, [a, b, c], bound) = self.lookup([subject, predicate, object]);
        match bound {
            0 => index.count_prefix1(graph),
            1 => index.count_prefix2(graph, a),
            2 => index.count_prefix3(graph, a, b),
            _ => usize::from(index.contains(&(graph, a, b, c))),
        }
    }

    /// Identifiers of every named graph holding at least one quad, in
    /// ascending id order.
    pub fn named_graph_ids(&self) -> Vec<TermId> {
        let mut ids = self.gspo.first_components();
        ids.retain(|&g| g != DEFAULT_GRAPH);
        ids
    }

    /// Per-graph quad counts: each named graph (decoded, ascending id
    /// order) followed by the default graph as `None` when it is
    /// non-empty.
    pub fn graph_quad_counts(&self) -> Vec<(Option<Term>, usize)> {
        self.gspo
            .first_components()
            .into_iter()
            .map(|g| {
                let name = (g != DEFAULT_GRAPH).then(|| self.dict.term(g).clone());
                (name, self.gspo.count_prefix1(g))
            })
            .collect()
    }

    /// Estimated number of distinct subjects in one graph.
    pub fn distinct_subjects_estimate(&self, graph: TermId) -> usize {
        self.gspo.distinct_second_estimate(graph)
    }

    /// Estimated number of distinct predicates in one graph.
    pub fn distinct_predicates_estimate(&self, graph: TermId) -> usize {
        self.gpos.distinct_second_estimate(graph)
    }

    /// Estimated number of distinct objects in one graph.
    pub fn distinct_objects_estimate(&self, graph: TermId) -> usize {
        self.gosp.distinct_second_estimate(graph)
    }

    /// Estimated number of distinct predicates on one graph's triples with
    /// subject `s`.
    pub fn distinct_predicates_of_subject(&self, graph: TermId, s: TermId) -> usize {
        self.gspo.distinct_third_estimate(graph, s)
    }

    /// Estimated number of distinct objects on one graph's triples with
    /// predicate `p`.
    pub fn distinct_objects_of_predicate(&self, graph: TermId, p: TermId) -> usize {
        self.gpos.distinct_third_estimate(graph, p)
    }

    /// Estimated number of distinct subjects on one graph's triples with
    /// object `o`.
    pub fn distinct_subjects_of_object(&self, graph: TermId, o: TermId) -> usize {
        self.gosp.distinct_third_estimate(graph, o)
    }

    /// Resolves a [`TriplePattern`]'s bound positions to identifiers;
    /// `Err(())` means some bound term was never interned (nothing matches).
    fn encode_pattern(
        &self,
        pattern: &TriplePattern,
    ) -> Result<(Option<TermId>, Option<TermId>, Option<TermId>), ()> {
        let lookup = |term: &Option<Term>| -> Result<Option<TermId>, ()> {
            match term {
                None => Ok(None),
                Some(t) => self.dict.id_of(t).map(Some).ok_or(()),
            }
        };
        Ok((
            lookup(&pattern.subject)?,
            lookup(&pattern.predicate)?,
            lookup(&pattern.object)?,
        ))
    }

    /// Returns all default-graph triples (decoded) matching a
    /// [`TriplePattern`].
    ///
    /// A pattern mentioning a term that has never been interned matches
    /// nothing, without touching the indexes.
    pub fn matching(&self, pattern: &TriplePattern) -> Vec<Triple> {
        self.matching_iter(pattern).collect()
    }

    /// Streams the default-graph triples matching a [`TriplePattern`]
    /// without materializing them, decoding each on the way out. Callers
    /// that can work on identifiers should prefer
    /// [`TripleStore::matching_encoded_iter`] and decode only what they
    /// keep.
    pub fn matching_iter<'s>(
        &'s self,
        pattern: &TriplePattern,
    ) -> Box<dyn Iterator<Item = Triple> + 's> {
        match self.encode_pattern(pattern) {
            Err(()) => Box::new(std::iter::empty()),
            Ok((s, p, o)) => Box::new(self.matching_encoded_iter(s, p, o).map(|e| self.decode(e))),
        }
    }

    /// Counts the default-graph triples matching a pattern without walking
    /// them (see [`TripleStore::count_matching_encoded`]).
    pub fn count_matching(&self, pattern: &TriplePattern) -> usize {
        match self.encode_pattern(pattern) {
            Err(()) => 0,
            Ok((s, p, o)) => self.count_matching_encoded(s, p, o),
        }
    }

    /// Decodes an encoded triple back into terms.
    pub fn decode(&self, encoded: EncodedTriple) -> Triple {
        Triple::new(
            self.dict.term(encoded.subject).clone(),
            self.dict.term(encoded.predicate).clone(),
            self.dict.term(encoded.object).clone(),
        )
    }

    /// Iterates over every default-graph triple (decoded, in SPO id order).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.iter_graph(None)
    }

    /// Iterates over the triples of one graph (`None` = the default graph;
    /// decoded, in SPO id order), reading that graph's GSPO range only. A
    /// graph name the store never interned holds nothing.
    pub fn iter_graph(&self, graph: Option<&Term>) -> impl Iterator<Item = Triple> + '_ {
        self.graph_id(graph)
            .into_iter()
            .flat_map(|g| self.matching_quads_encoded_iter(g, None, None, None))
            .map(|e| self.decode(e))
    }

    /// Iterates over every stored quad (decoded, named graphs in ascending
    /// graph-id order first, the default graph last).
    pub fn iter_quads(&self) -> impl Iterator<Item = Quad> + '_ {
        self.gspo.scan_all().map(|&(g, s, p, o)| {
            Quad::new(
                Triple::new(
                    self.dict.term(s).clone(),
                    self.dict.term(p).clone(),
                    self.dict.term(o).clone(),
                ),
                (g != DEFAULT_GRAPH).then(|| self.dict.term(g).clone()),
            )
        })
    }

    /// Exports the default-graph contents as a [`Graph`].
    pub fn to_graph(&self) -> Graph {
        self.iter().collect()
    }
}

/// A streaming scan of the encoded triples of one graph from one positional
/// index, with the index's key permutation mapped back to
/// subject/predicate/object on the fly. Concrete (unboxed) so BGP join
/// inner loops monomorphize fully.
pub struct EncodedScan<'s> {
    scan: PrefixScan<'s>,
    order: IndexOrder,
}

impl Iterator for EncodedScan<'_> {
    type Item = EncodedTriple;

    #[inline]
    fn next(&mut self) -> Option<EncodedTriple> {
        let &(_, a, b, c) = self.scan.next()?;
        let (subject, predicate, object) = match self.order {
            IndexOrder::Gspo => (a, b, c),
            IndexOrder::Gpos => (c, a, b),
            IndexOrder::Gosp => (b, c, a),
        };
        Some(EncodedTriple {
            subject,
            predicate,
            object,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.scan.size_hint()
    }
}

impl FromIterator<Triple> for TripleStore {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        let mut store = TripleStore::new();
        store.extend(iter);
        store
    }
}

impl Extend<Triple> for TripleStore {
    fn extend<I: IntoIterator<Item = Triple>>(&mut self, iter: I) {
        let triples: Vec<Triple> = iter.into_iter().collect();
        self.insert_batch(triples.iter());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbold_rdf_model::vocab::{foaf, rdf};
    use hbold_rdf_model::{Iri, Literal};

    fn iri(s: &str) -> Iri {
        Iri::new(s).unwrap()
    }

    fn sample() -> TripleStore {
        let mut store = TripleStore::new();
        store.insert(&Triple::new(
            iri("http://e.org/alice"),
            rdf::type_(),
            foaf::person(),
        ));
        store.insert(&Triple::new(
            iri("http://e.org/bob"),
            rdf::type_(),
            foaf::person(),
        ));
        store.insert(&Triple::new(
            iri("http://e.org/acme"),
            rdf::type_(),
            foaf::organization(),
        ));
        store.insert(&Triple::new(
            iri("http://e.org/alice"),
            foaf::name(),
            Literal::string("Alice"),
        ));
        store.insert(&Triple::new(
            iri("http://e.org/alice"),
            foaf::knows(),
            iri("http://e.org/bob"),
        ));
        store.insert(&Triple::new(
            iri("http://e.org/bob"),
            foaf::member(),
            iri("http://e.org/acme"),
        ));
        store
    }

    #[test]
    fn insert_contains_remove() {
        let mut store = TripleStore::new();
        let t = Triple::new(iri("http://e.org/a"), rdf::type_(), foaf::person());
        assert!(store.insert(&t));
        assert!(!store.insert(&t), "duplicate insertion is a no-op");
        assert_eq!(store.len(), 1);
        assert!(store.contains(&t));
        assert!(store.remove(&t));
        assert!(!store.remove(&t));
        assert!(store.is_empty());
        // Terms stay interned after removal.
        assert!(store.term_count() >= 3);
    }

    #[test]
    fn named_graphs_are_disjoint_from_the_default_graph() {
        let mut store = TripleStore::new();
        let t = Triple::new(iri("http://e.org/a"), rdf::type_(), foaf::person());
        let g1: Term = iri("http://e.org/g1").into();
        let g2: Term = iri("http://e.org/g2").into();
        assert!(store.insert(&t));
        assert!(store.insert_in_graph(&t, Some(&g1)));
        assert!(!store.insert_in_graph(&t, Some(&g1)), "quad set semantics");
        assert!(store.insert_in_graph(&t, Some(&g2)));
        assert_eq!(store.len(), 3);
        assert_eq!(store.default_graph_len(), 1);
        assert_eq!(store.graph_len(Some(&g1)), 1);
        assert_eq!(store.graph_len(None), 1);
        assert!(store.contains_in_graph(&t, Some(&g2)));
        assert!(!store.contains_in_graph(&t, Some(&iri("http://e.org/g3").into())));

        // Removing from one graph leaves the others untouched.
        assert!(store.remove_in_graph(&t, Some(&g1)));
        assert!(!store.remove_in_graph(&t, Some(&g1)));
        assert!(store.contains(&t));
        assert!(store.contains_in_graph(&t, Some(&g2)));
        assert_eq!(store.len(), 2);

        // The triple-level read path only sees the default graph.
        assert_eq!(store.matching(&TriplePattern::any()).len(), 1);
        assert_eq!(store.iter().count(), 1);
        assert_eq!(store.iter_quads().count(), 2);
    }

    #[test]
    fn quad_api_round_trips() {
        let mut store = TripleStore::new();
        let t = Triple::new(iri("http://e.org/a"), foaf::name(), Literal::string("A"));
        let named = Quad::new(t.clone(), Some(iri("http://e.org/g").into()));
        let default = Quad::from(t);
        assert!(store.insert_quad(&named));
        assert!(store.insert_quad(&default));
        assert!(store.contains_quad(&named));
        assert!(store.contains_quad(&default));
        let mut all: Vec<Quad> = store.iter_quads().collect();
        all.sort();
        assert_eq!(all, vec![default.clone(), named.clone()]);
        assert!(store.remove_quad(&named));
        assert!(!store.contains_quad(&named));
        assert!(store.contains_quad(&default));
    }

    #[test]
    fn graph_quad_counts_and_ids() {
        let mut store = sample();
        let t = Triple::new(iri("http://e.org/x"), rdf::type_(), foaf::person());
        let g: Term = iri("http://e.org/g").into();
        store.insert_in_graph(&t, Some(&g));
        store.insert_in_graph(
            &Triple::new(iri("http://e.org/y"), rdf::type_(), foaf::person()),
            Some(&g),
        );
        assert_eq!(store.named_graph_ids().len(), 1);
        let counts = store.graph_quad_counts();
        assert_eq!(counts.len(), 2);
        assert_eq!(counts[0], (Some(g), 2));
        assert_eq!(counts[1], (None, 6));
        assert!(TripleStore::new().graph_quad_counts().is_empty());
    }

    #[test]
    fn all_pattern_shapes_agree_with_naive_scan() {
        let store = sample();
        let graph = store.to_graph();
        let alice: Term = iri("http://e.org/alice").into();
        let type_: Term = rdf::type_().into();
        let person: Term = foaf::person().into();
        let subjects = [None, Some(alice)];
        let predicates = [None, Some(type_)];
        let objects = [None, Some(person)];
        for s in &subjects {
            for p in &predicates {
                for o in &objects {
                    let pattern = TriplePattern {
                        subject: s.clone(),
                        predicate: p.clone(),
                        object: o.clone(),
                    };
                    let mut indexed = store.matching(&pattern);
                    indexed.sort();
                    let mut naive: Vec<Triple> = graph.matching(&pattern).cloned().collect();
                    naive.sort();
                    assert_eq!(indexed, naive, "pattern {pattern:?}");
                    assert_eq!(store.count_matching(&pattern), naive.len());
                }
            }
        }
    }

    #[test]
    fn encoded_counts_agree_with_scans_on_every_shape() {
        let mut store = sample();
        // A couple of named-graph quads so the scans see several graphs and
        // a non-trivial graph component.
        let g: Term = iri("http://e.org/g").into();
        store.insert_in_graph(
            &Triple::new(iri("http://e.org/alice"), rdf::type_(), foaf::person()),
            Some(&g),
        );
        store.insert_in_graph(
            &Triple::new(
                iri("http://e.org/zed"),
                foaf::knows(),
                iri("http://e.org/alice"),
            ),
            Some(&g),
        );
        let mut slots: Vec<Option<TermId>> = vec![None];
        slots.extend((0..store.term_count() as TermId).map(Some));
        let mut graphs = store.named_graph_ids();
        graphs.push(DEFAULT_GRAPH);
        // Every dispatch arm, for every interned id in every position.
        for &graph in &graphs {
            for &s in &slots {
                for &p in &slots {
                    for &o in &slots {
                        let scanned: Vec<EncodedTriple> =
                            store.matching_quads_encoded_iter(graph, s, p, o).collect();
                        assert_eq!(
                            store.count_matching_quads_encoded(graph, s, p, o),
                            scanned.len(),
                            "pattern ({graph:?}, {s:?}, {p:?}, {o:?})"
                        );
                        // Each arm maps its key permutation back correctly.
                        assert!(scanned.iter().all(|t| {
                            s.is_none_or(|s| t.subject == s)
                                && p.is_none_or(|p| t.predicate == p)
                                && o.is_none_or(|o| t.object == o)
                        }));
                    }
                }
            }
        }
        // The triple-level scan sees only the default graph.
        assert_eq!(
            store.count_matching_encoded(None, None, None),
            store.default_graph_len()
        );
        let in_graphs: usize = graphs
            .iter()
            .map(|&g| store.count_matching_quads_encoded(g, None, None, None))
            .sum();
        assert_eq!(in_graphs, store.len());
    }

    #[test]
    fn distinct_stats_match_sample_graph() {
        let store = sample();
        let g = DEFAULT_GRAPH;
        // alice, bob, acme are subjects; type/name/knows/member predicates.
        assert_eq!(store.distinct_subjects_estimate(g), 3);
        assert_eq!(store.distinct_predicates_estimate(g), 4);
        let alice = store.id_of(&iri("http://e.org/alice").into()).unwrap();
        assert_eq!(store.distinct_predicates_of_subject(g, alice), 3);
        let type_ = store.id_of(&rdf::type_().into()).unwrap();
        assert_eq!(store.distinct_objects_of_predicate(g, type_), 2);
        let bob = store.id_of(&iri("http://e.org/bob").into()).unwrap();
        assert_eq!(store.distinct_subjects_of_object(g, bob), 1);
    }

    #[test]
    fn distinct_stats_read_inside_one_graph() {
        let mut store = sample();
        let g: Term = iri("http://e.org/g").into();
        for name in ["x", "y"] {
            let t = Triple::new(
                iri(&format!("http://e.org/{name}")),
                foaf::name(),
                foaf::person(),
            );
            store.insert_in_graph(&t, Some(&g));
        }
        let named = store.id_of(&g).unwrap();
        // The default graph's numbers are untouched by the named graph's.
        assert_eq!(store.distinct_subjects_estimate(DEFAULT_GRAPH), 3);
        assert_eq!(store.distinct_predicates_estimate(DEFAULT_GRAPH), 4);
        assert_eq!(store.distinct_subjects_estimate(named), 2);
        assert_eq!(store.distinct_predicates_estimate(named), 1);
        assert_eq!(store.distinct_objects_estimate(named), 1);
        let person = store.id_of(&foaf::person().into()).unwrap();
        assert_eq!(store.distinct_subjects_of_object(named, person), 2);
        assert_eq!(store.distinct_subjects_of_object(DEFAULT_GRAPH, person), 2);
    }

    #[test]
    fn iter_graph_reads_one_graph() {
        let mut store = sample();
        let g: Term = iri("http://e.org/g").into();
        let t = Triple::new(iri("http://e.org/x"), rdf::type_(), foaf::person());
        store.insert_in_graph(&t, Some(&g));
        assert_eq!(store.iter_graph(Some(&g)).collect::<Vec<_>>(), vec![t]);
        assert_eq!(store.iter_graph(None).count(), store.default_graph_len());
        let unknown: Term = iri("http://e.org/never-interned").into();
        assert_eq!(store.iter_graph(Some(&unknown)).count(), 0);
    }

    #[test]
    fn unknown_terms_match_nothing() {
        let store = sample();
        let pattern = TriplePattern::any().with_subject(iri("http://e.org/nobody"));
        assert!(store.matching(&pattern).is_empty());
        assert_eq!(store.count_matching(&pattern), 0);
    }

    #[test]
    fn graph_round_trip() {
        let store = sample();
        let graph = store.to_graph();
        let rebuilt = TripleStore::from_graph(&graph);
        assert_eq!(rebuilt.len(), store.len());
        assert_eq!(rebuilt.to_graph(), graph);
    }

    #[test]
    fn from_iterator_and_extend() {
        let triples = vec![
            Triple::new(iri("http://e.org/a"), rdf::type_(), foaf::person()),
            Triple::new(iri("http://e.org/b"), rdf::type_(), foaf::person()),
        ];
        let mut store: TripleStore = triples.clone().into_iter().collect();
        assert_eq!(store.len(), 2);
        store.extend(triples);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn quads_batch_load_dedups_against_existing() {
        let mut store = TripleStore::new();
        let g: Term = iri("http://e.org/g").into();
        let t1 = Triple::new(iri("http://e.org/a"), rdf::type_(), foaf::person());
        let t2 = Triple::new(iri("http://e.org/b"), rdf::type_(), foaf::person());
        let quads = vec![
            Quad::new(t1.clone(), Some(g.clone())),
            Quad::new(t1.clone(), Some(g.clone())), // in-batch duplicate
            Quad::from(t1.clone()),
            Quad::new(t2.clone(), Some(g.clone())),
        ];
        assert_eq!(store.insert_quads_batch(&quads), 3);
        assert_eq!(store.insert_quads_batch(&quads), 0);
        assert_eq!(store.len(), 3);
        assert_eq!(store.graph_len(Some(&g)), 2);
        assert_eq!(store.default_graph_len(), 1);
    }
}
