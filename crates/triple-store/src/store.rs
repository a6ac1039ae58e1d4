//! The [`TripleStore`]: dictionary + six positional quad indexes.

use hbold_rdf_model::{Graph, Iri, Quad, Term, Triple, TriplePattern};

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
/// tiers; the change that would exceed that merges all six orders instead
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

/// A quad with all terms replaced by dictionary identifiers; the graph is
/// [`DEFAULT_GRAPH`] for default-graph quads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EncodedQuad {
    /// Subject identifier.
    pub subject: TermId,
    /// Predicate identifier.
    pub predicate: TermId,
    /// Object identifier.
    pub object: TermId,
    /// Graph identifier ([`DEFAULT_GRAPH`] = the default graph).
    pub graph: TermId,
}

impl EncodedQuad {
    /// The triple component (drops the graph).
    pub fn triple(self) -> EncodedTriple {
        EncodedTriple {
            subject: self.subject,
            predicate: self.predicate,
            object: self.object,
        }
    }
}

/// An in-memory RDF quad store with dictionary encoding and the six-index
/// SPOG/POSG/OSPG + GSPO/GPOS/GOSP layout.
///
/// The three graph-last orders serve any-graph lookups with a triple
/// prefix; the three graph-first orders serve lookups inside one graph —
/// including the default graph, addressed by the reserved [`DEFAULT_GRAPH`]
/// identifier. The triple-level API (insert/remove/matching/iter) operates
/// on the default graph, so triples-only callers see exactly the pre-quad
/// behaviour; the `*_in_graph` and quad APIs address named graphs.
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
    spog: PositionalIndex,
    posg: PositionalIndex,
    ospg: PositionalIndex,
    gspo: PositionalIndex,
    gpos: PositionalIndex,
    gosp: PositionalIndex,
    len: usize,
}

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

/// The six key permutations of one encoded quad `(s, p, o, g)`.
#[inline]
fn permutations(s: TermId, p: TermId, o: TermId, g: TermId) -> [QuadKey; 6] {
    [
        (s, p, o, g), // spog
        (p, o, s, g), // posg
        (o, s, p, g), // ospg
        (g, s, p, o), // gspo
        (g, p, o, s), // gpos
        (g, o, s, p), // gosp
    ]
}

impl TripleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TripleStore::default()
    }

    /// Builds a store from a [`Graph`] using the batched bulk-load path
    /// (into the default graph).
    pub fn from_graph(graph: &Graph) -> Self {
        let mut store = TripleStore::new();
        store.insert_batch(graph.iter());
        store
    }

    /// Rebuilds a store from a decoded snapshot: the id-ordered dictionary
    /// plus GSPO-ordered encoded quads. The other five permutations are
    /// derived here rather than stored, keeping the snapshot small.
    ///
    /// All six indexes are built as pure sorted flat vectors (see
    /// [`PositionalIndex`]), so a restored store starts on the contiguous
    /// scan fast path with zero B-tree nodes.
    pub(crate) fn from_snapshot_quads(
        dict: TermDictionary,
        mut gspo: Vec<(TermId, TermId, TermId, TermId)>,
    ) -> Self {
        // The snapshot writer emits ascending GSPO order, but defend against
        // hand-crafted files: sort + dedup is cheap relative to decode.
        gspo.sort_unstable();
        gspo.dedup();
        let sorted = |f: fn(&QuadKey) -> QuadKey| -> PositionalIndex {
            let mut keys: Vec<QuadKey> = gspo.iter().map(f).collect();
            keys.sort_unstable();
            PositionalIndex::from_sorted(keys)
        };
        let spog = sorted(|&(g, s, p, o)| (s, p, o, g));
        let posg = sorted(|&(g, s, p, o)| (p, o, s, g));
        let ospg = sorted(|&(g, s, p, o)| (o, s, p, g));
        let gpos = sorted(|&(g, s, p, o)| (g, p, o, s));
        let gosp = sorted(|&(g, s, p, o)| (g, o, s, p));
        let len = gspo.len();
        TripleStore {
            dict,
            spog,
            posg,
            ospg,
            gspo: PositionalIndex::from_sorted(gspo),
            gpos,
            gosp,
            len,
        }
    }

    /// Iterates the encoded quads in ascending GSPO order (the order the
    /// snapshot writer delta-encodes them in; the default graph sorts
    /// last because its identifier is `TermId::MAX`).
    pub(crate) fn encoded_gspo_iter(
        &self,
    ) -> impl Iterator<Item = &(TermId, TermId, TermId, TermId)> {
        self.gspo.scan_all()
    }

    /// Number of quads stored (across the default and all named graphs).
    pub fn len(&self) -> usize {
        self.len
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
        self.len == 0
    }

    /// Number of distinct terms interned by the store.
    pub fn term_count(&self) -> usize {
        self.dict.len()
    }

    /// Per-tier sizes of the six positional indexes (flat / delta / dead;
    /// see [`crate::index`]) — the raw material for storage-tier gauges.
    pub fn index_tier_sizes(&self) -> [(IndexOrder, TierSizes); 6] {
        [
            (IndexOrder::Spog, self.spog.tier_sizes()),
            (IndexOrder::Posg, self.posg.tier_sizes()),
            (IndexOrder::Ospg, self.ospg.tier_sizes()),
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

    /// Puts one encoded quad into the churn tiers of all six orders.
    fn insert_churn(&mut self, (s, p, o, g): QuadKey) -> bool {
        let [spog, posg, ospg, gspo, gpos, gosp] = permutations(s, p, o, g);
        let inserted = self.spog.insert(spog);
        if inserted {
            self.posg.insert(posg);
            self.ospg.insert(ospg);
            self.gspo.insert(gspo);
            self.gpos.insert(gpos);
            self.gosp.insert(gosp);
            self.len += 1;
        }
        inserted
    }

    /// Takes one quad out through the churn tiers of all six orders.
    fn remove_churn(&mut self, quad: QuadRef<'_>) -> bool {
        let Some((s, p, o, g)) = self.key_of(quad) else {
            return false;
        };
        let [spog, posg, ospg, gspo, gpos, gosp] = permutations(s, p, o, g);
        let removed = self.spog.remove(&spog);
        if removed {
            self.posg.remove(&posg);
            self.ospg.remove(&ospg);
            self.gspo.remove(&gspo);
            self.gpos.remove(&gpos);
            self.gosp.remove(&gosp);
            self.len -= 1;
        }
        removed
    }

    /// The tier policy — every mutation ends here, and nothing else chooses
    /// between the churn tiers and a merge. Inserts `batch` (SPOG keys;
    /// empty after a removal, whose tombstones are already in place) and
    /// returns how many keys were new.
    ///
    /// While the churn the store would then carry stays within one key per
    /// [`FOLD_RATIO`] flat keys, the batch goes key by key into the churn
    /// tiers: `O(|batch| · log n)`, the flat tiers untouched. The change
    /// that would cross the line merges instead — batch, `delta` and `dead`
    /// into six fresh flat tiers in one linear pass each — so a bulk load
    /// is one sort-and-merge, accumulated churn folds on the mutation that
    /// crosses, and the six orders are always in the same tier state.
    fn absorb(&mut self, batch: &[QuadKey]) -> usize {
        let before = self.len;
        let TierSizes { flat, delta, dead } = self.spog.tier_sizes();
        if delta + dead + batch.len() <= flat / FOLD_RATIO {
            for &key in batch {
                self.insert_churn(key);
            }
        } else {
            self.spog.insert_batch(batch.iter().copied());
            self.posg
                .insert_batch(batch.iter().map(|&(s, p, o, g)| (p, o, s, g)));
            self.ospg
                .insert_batch(batch.iter().map(|&(s, p, o, g)| (o, s, p, g)));
            self.gspo
                .insert_batch(batch.iter().map(|&(s, p, o, g)| (g, s, p, o)));
            self.gpos
                .insert_batch(batch.iter().map(|&(s, p, o, g)| (g, p, o, s)));
            self.gosp
                .insert_batch(batch.iter().map(|&(s, p, o, g)| (g, o, s, p)));
            self.len = self.spog.len();
            crate::persist::count_fold(self.len);
        }
        self.len - before
    }

    /// Interns the four terms of a quad, cloning only those that are new.
    fn intern_ref(&mut self, (s, p, o, graph): QuadRef<'_>) -> QuadKey {
        (
            self.dict.intern(s),
            self.dict.intern(p),
            self.dict.intern(o),
            match graph {
                None => DEFAULT_GRAPH,
                Some(term) => self.dict.intern(term),
            },
        )
    }

    /// The SPOG key of a quad, or `None` when one of its terms was never
    /// interned (so the quad cannot be stored): four dictionary probes.
    fn key_of(&self, (s, p, o, graph): QuadRef<'_>) -> Option<QuadKey> {
        Some((
            self.dict.id_of(s)?,
            self.dict.id_of(p)?,
            self.dict.id_of(o)?,
            self.graph_id(graph)?,
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
            .is_some_and(|key| self.spog.contains(&key))
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
    /// key into the churn tiers and leaves the flat tiers alone.
    pub fn insert_batch<'a>(&mut self, triples: impl IntoIterator<Item = &'a Triple>) -> usize {
        self.insert_refs(triples.into_iter().map(|t| triple_ref(t, None)))
    }

    /// Inserts a batch of quads, returning how many were new (same tier
    /// policy as [`TripleStore::insert_batch`]).
    pub fn insert_quads_batch<'a>(&mut self, quads: impl IntoIterator<Item = &'a Quad>) -> usize {
        self.insert_refs(quads.into_iter().map(quad_ref))
    }

    fn insert_refs<'a>(&mut self, quads: impl Iterator<Item = QuadRef<'a>>) -> usize {
        // Most batches repeat subjects/predicates heavily, so the quad
        // count itself is a reasonable (slightly generous) bound on new
        // dictionary entries — reserving it once beats rehashing mid-load.
        self.dict.reserve(quads.size_hint().0);
        let encoded: Vec<QuadKey> = quads.map(|quad| self.intern_ref(quad)).collect();
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
    /// index.
    ///
    /// This is the innermost loop of the SPARQL engine's encoded operator
    /// pipeline: it returns a concrete iterator (no boxing, no decoding)
    /// walking a contiguous index range, so a BGP join stays entirely in
    /// the `TermId` domain.
    pub fn matching_encoded_iter(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> EncodedScan<'_> {
        EncodedScan {
            inner: self.matching_quads_encoded_iter(
                Some(DEFAULT_GRAPH),
                subject,
                predicate,
                object,
            ),
        }
    }

    /// Streams the encoded quads matching the encoded pattern
    /// `(graph?, subject?, predicate?, object?)`, choosing the best of the
    /// six indexes. `graph = Some(g)` scans inside one graph (graph-first
    /// index, pass [`DEFAULT_GRAPH`] for the default graph); `graph = None`
    /// scans across **all** graphs (graph-last index) and yields each
    /// quad's graph identifier.
    pub fn matching_quads_encoded_iter(
        &self,
        graph: Option<TermId>,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> QuadScan<'_> {
        let (scan, order) = match graph {
            Some(g) => match (subject, predicate, object) {
                (Some(s), Some(p), Some(o)) => {
                    (self.gspo.scan_prefix4(g, s, p, o), IndexOrder::Gspo)
                }
                (Some(s), Some(p), None) => (self.gspo.scan_prefix3(g, s, p), IndexOrder::Gspo),
                (Some(s), None, None) => (self.gspo.scan_prefix2(g, s), IndexOrder::Gspo),
                (None, Some(p), Some(o)) => (self.gpos.scan_prefix3(g, p, o), IndexOrder::Gpos),
                (None, Some(p), None) => (self.gpos.scan_prefix2(g, p), IndexOrder::Gpos),
                (None, None, Some(o)) => (self.gosp.scan_prefix2(g, o), IndexOrder::Gosp),
                (Some(s), None, Some(o)) => (self.gosp.scan_prefix3(g, o, s), IndexOrder::Gosp),
                (None, None, None) => (self.gspo.scan_prefix1(g), IndexOrder::Gspo),
            },
            None => match (subject, predicate, object) {
                (Some(s), Some(p), Some(o)) => (self.spog.scan_prefix3(s, p, o), IndexOrder::Spog),
                (Some(s), Some(p), None) => (self.spog.scan_prefix2(s, p), IndexOrder::Spog),
                (Some(s), None, None) => (self.spog.scan_prefix1(s), IndexOrder::Spog),
                (None, Some(p), Some(o)) => (self.posg.scan_prefix2(p, o), IndexOrder::Posg),
                (None, Some(p), None) => (self.posg.scan_prefix1(p), IndexOrder::Posg),
                (None, None, Some(o)) => (self.ospg.scan_prefix1(o), IndexOrder::Ospg),
                (Some(s), None, Some(o)) => (self.ospg.scan_prefix2(o, s), IndexOrder::Ospg),
                (None, None, None) => (self.spog.scan_all(), IndexOrder::Spog),
            },
        };
        QuadScan { scan, order }
    }

    /// Returns all encoded default-graph triples matching the encoded
    /// pattern `(subject?, predicate?, object?)`, choosing the best index.
    pub fn matching_encoded(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> Vec<EncodedTriple> {
        self.matching_encoded_iter(subject, predicate, object)
            .collect()
    }

    /// Counts the default-graph triples matching the encoded pattern
    /// `(subject?, predicate?, object?)` without walking them: the same
    /// index dispatch as [`TripleStore::matching_encoded_iter`], but each
    /// prefix is resolved with one binary search and a gallop on the flat
    /// tier (plus the churn tiers). This is the exact-cardinality primitive behind the
    /// SPARQL cost-based join optimizer.
    pub fn count_matching_encoded(
        &self,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> usize {
        self.count_matching_quads_encoded(Some(DEFAULT_GRAPH), subject, predicate, object)
    }

    /// Counts the quads matching the encoded pattern
    /// `(graph?, subject?, predicate?, object?)` without walking them —
    /// the quad-level counterpart of
    /// [`TripleStore::count_matching_encoded`], with the same graph
    /// selection semantics as
    /// [`TripleStore::matching_quads_encoded_iter`].
    pub fn count_matching_quads_encoded(
        &self,
        graph: Option<TermId>,
        subject: Option<TermId>,
        predicate: Option<TermId>,
        object: Option<TermId>,
    ) -> usize {
        match graph {
            Some(g) => match (subject, predicate, object) {
                (Some(s), Some(p), Some(o)) => usize::from(self.gspo.contains(&(g, s, p, o))),
                (Some(s), Some(p), None) => self.gspo.count_prefix3(g, s, p),
                (Some(s), None, None) => self.gspo.count_prefix2(g, s),
                (None, Some(p), Some(o)) => self.gpos.count_prefix3(g, p, o),
                (None, Some(p), None) => self.gpos.count_prefix2(g, p),
                (None, None, Some(o)) => self.gosp.count_prefix2(g, o),
                (Some(s), None, Some(o)) => self.gosp.count_prefix3(g, o, s),
                (None, None, None) => self.gspo.count_prefix1(g),
            },
            None => match (subject, predicate, object) {
                (Some(s), Some(p), Some(o)) => self.spog.count_prefix3(s, p, o),
                (Some(s), Some(p), None) => self.spog.count_prefix2(s, p),
                (Some(s), None, None) => self.spog.count_prefix1(s),
                (None, Some(p), Some(o)) => self.posg.count_prefix2(p, o),
                (None, Some(p), None) => self.posg.count_prefix1(p),
                (None, None, Some(o)) => self.ospg.count_prefix1(o),
                (Some(s), None, Some(o)) => self.ospg.count_prefix2(o, s),
                (None, None, None) => self.len,
            },
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

    /// Estimated number of distinct subjects in the store (all graphs).
    pub fn distinct_subjects_estimate(&self) -> usize {
        self.spog.distinct_first_estimate()
    }

    /// Estimated number of distinct predicates in the store (all graphs).
    pub fn distinct_predicates_estimate(&self) -> usize {
        self.posg.distinct_first_estimate()
    }

    /// Estimated number of distinct objects in the store (all graphs).
    pub fn distinct_objects_estimate(&self) -> usize {
        self.ospg.distinct_first_estimate()
    }

    /// Estimated number of distinct predicates on quads with subject `s`.
    pub fn distinct_predicates_of_subject(&self, s: TermId) -> usize {
        self.spog.distinct_second_estimate(s)
    }

    /// Estimated number of distinct objects on quads with predicate `p`.
    pub fn distinct_objects_of_predicate(&self, p: TermId) -> usize {
        self.posg.distinct_second_estimate(p)
    }

    /// Estimated number of distinct subjects on quads with object `o`.
    pub fn distinct_subjects_of_object(&self, o: TermId) -> usize {
        self.ospg.distinct_second_estimate(o)
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

    /// Decodes an encoded quad back into terms.
    pub fn decode_quad(&self, encoded: EncodedQuad) -> Quad {
        Quad::new(
            self.decode(encoded.triple()),
            (encoded.graph != DEFAULT_GRAPH).then(|| self.dict.term(encoded.graph).clone()),
        )
    }

    /// Iterates over every default-graph triple (decoded, in SPO id order).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.gspo.scan_prefix1(DEFAULT_GRAPH).map(|&(_, s, p, o)| {
            Triple::new(
                self.dict.term(s).clone(),
                self.dict.term(p).clone(),
                self.dict.term(o).clone(),
            )
        })
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

    /// All distinct predicate IRIs in use (any graph), with the number of
    /// quads using each (sorted by IRI).
    pub fn predicate_usage(&self) -> Vec<(Iri, usize)> {
        let mut usage: Vec<(Iri, usize)> = Vec::new();
        let mut current: Option<(TermId, usize)> = None;
        for &(p, _, _, _) in self.posg.scan_all() {
            match current {
                Some((cur, n)) if cur == p => current = Some((cur, n + 1)),
                Some((cur, n)) => {
                    if let Some(iri) = self.dict.term(cur).as_iri() {
                        usage.push((iri.clone(), n));
                    }
                    current = Some((p, 1));
                }
                None => current = Some((p, 1)),
            }
        }
        if let Some((cur, n)) = current {
            if let Some(iri) = self.dict.term(cur).as_iri() {
                usage.push((iri.clone(), n));
            }
        }
        usage.sort_by(|a, b| a.0.cmp(&b.0));
        usage
    }
}

/// A streaming scan of encoded quads from one positional index, with the
/// index's key permutation mapped back to subject/predicate/object/graph
/// on the fly. Concrete (unboxed) so BGP join inner loops monomorphize
/// fully.
pub struct QuadScan<'s> {
    scan: PrefixScan<'s>,
    order: IndexOrder,
}

impl Iterator for QuadScan<'_> {
    type Item = EncodedQuad;

    #[inline]
    fn next(&mut self) -> Option<EncodedQuad> {
        let &(a, b, c, d) = self.scan.next()?;
        let (subject, predicate, object, graph) = match self.order {
            IndexOrder::Spog => (a, b, c, d),
            IndexOrder::Posg => (c, a, b, d),
            IndexOrder::Ospg => (b, c, a, d),
            IndexOrder::Gspo => (b, c, d, a),
            IndexOrder::Gpos => (d, b, c, a),
            IndexOrder::Gosp => (c, d, b, a),
        };
        Some(EncodedQuad {
            subject,
            predicate,
            object,
            graph,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.scan.size_hint()
    }
}

/// A [`QuadScan`] restricted to one graph, yielding bare encoded triples —
/// the shape the triple-level read path consumes.
pub struct EncodedScan<'s> {
    inner: QuadScan<'s>,
}

impl Iterator for EncodedScan<'_> {
    type Item = EncodedTriple;

    #[inline]
    fn next(&mut self) -> Option<EncodedTriple> {
        self.inner.next().map(EncodedQuad::triple)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
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
    use hbold_rdf_model::Literal;

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
        // A couple of named-graph quads so the any-graph arms see several
        // graphs and the in-graph arms see a non-trivial graph component.
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
        let mut graphs: Vec<Option<TermId>> = vec![None, Some(DEFAULT_GRAPH)];
        graphs.extend(store.named_graph_ids().into_iter().map(Some));
        // Every dispatch arm, for every interned id in every position.
        for &graph in &graphs {
            for &s in &slots {
                for &p in &slots {
                    for &o in &slots {
                        assert_eq!(
                            store.count_matching_quads_encoded(graph, s, p, o),
                            store.matching_quads_encoded_iter(graph, s, p, o).count(),
                            "pattern ({graph:?}, {s:?}, {p:?}, {o:?})"
                        );
                    }
                }
            }
        }
        // The triple-level scan sees only the default graph.
        assert_eq!(
            store.count_matching_encoded(None, None, None),
            store.default_graph_len()
        );
        assert!(store
            .matching_quads_encoded_iter(None, None, None, None)
            .all(|q| q.graph == DEFAULT_GRAPH || store.term(q.graph).is_iri()));
    }

    #[test]
    fn distinct_stats_match_sample_graph() {
        let store = sample();
        // alice, bob, acme are subjects; type/name/knows/member predicates.
        assert_eq!(store.distinct_subjects_estimate(), 3);
        assert_eq!(store.distinct_predicates_estimate(), 4);
        let alice = store.id_of(&iri("http://e.org/alice").into()).unwrap();
        assert_eq!(store.distinct_predicates_of_subject(alice), 3);
        let type_ = store.id_of(&rdf::type_().into()).unwrap();
        assert_eq!(store.distinct_objects_of_predicate(type_), 2);
        let bob = store.id_of(&iri("http://e.org/bob").into()).unwrap();
        assert_eq!(store.distinct_subjects_of_object(bob), 1);
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
    fn predicate_usage_counts() {
        let store = sample();
        let usage = store.predicate_usage();
        let get = |iri: &Iri| usage.iter().find(|(p, _)| p == iri).map(|(_, n)| *n);
        assert_eq!(get(&rdf::type_()), Some(3));
        assert_eq!(get(&foaf::name()), Some(1));
        assert_eq!(get(&foaf::knows()), Some(1));
        assert_eq!(get(&foaf::member()), Some(1));
        assert_eq!(usage.len(), 4);
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
