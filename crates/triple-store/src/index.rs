//! Positional quad indexes over encoded quads.
//!
//! An index stores `(a, b, c, d)` keys, where `(a, b, c, d)` is a
//! permutation of `(subject, predicate, object, graph)` identifiers. A
//! lookup that binds a prefix of the permutation becomes a range scan.
//!
//! Three permutations are kept, all graph-first — GSPO, GPOS, GOSP — because
//! every scan reads inside one graph: a triple prefix under a graph prefix
//! covers every pattern shape. The default graph is addressed by the
//! reserved `DEFAULT_GRAPH` identifier (`TermId::MAX`, never interned), and
//! because every range below is inclusive on both bounds, the sentinel needs
//! no special casing: `scan_prefix1(TermId::MAX)` is a well-formed range.
//!
//! # Hybrid layout: sorted flat vector + B-tree churn tiers
//!
//! The hot read path of the whole system is the SPARQL engine range-scanning
//! these indexes, and H-BOLD's workload is load-mostly with a trickle of
//! refreshes: a dataset arrives in bulk, is queried many times, and every
//! re-extraction lands as a small update. The index therefore keeps its keys
//! in two tiers:
//!
//! * **`flat`** — a sorted, deduplicated `Vec` of keys. A prefix lookup
//!   finds its range through the directory below, then walks *contiguous
//!   memory*: no pointer chasing, perfect cache locality, and the compiler
//!   can see through the iteration. Only
//!   [`PositionalIndex::insert_batch`] writes it, by one linear merge that
//!   also folds every outstanding churn key in, so a bulk-loaded or restored
//!   store scans at flat-vector speed.
//! * **churn** — a `delta` `BTreeSet` of keys inserted since the last merge
//!   ([`PositionalIndex::insert`]) and a `dead` `BTreeSet` of tombstones
//!   over `flat` ([`PositionalIndex::remove`]): a change costs
//!   `O(log n)` per key whatever the size of `flat`. A scan is a three-way
//!   merge of the sorted sources — `flat` and `delta` interleaved, `dead`
//!   walked alongside as a third stream, so it pays for the churn inside its
//!   own range and never probes a B-tree per key; when neither churn set
//!   reaches into the range (the common case) the scan is a bare slice
//!   iterator.
//!
//! The index holds the mechanism only. *When* a change goes key by key into
//! the churn tiers and when all three orders merge is decided in one place,
//! `TripleStore`'s fold policy (see `FOLD_RATIO` in `store.rs`), so the three
//! orders always sit in the same tier state.
//!
//! Invariants maintained by every mutation: `flat` is sorted and unique,
//! `delta` is disjoint from `flat`, `dead ⊆ flat`, and the directory
//! describes `flat`.
//!
//! # The directory: a probe jumps, it does not search
//!
//! Beside `flat` the index keeps one entry per run of equal first
//! components — on the graph-first orders, one per graph: the run's flat
//! bounds and, when the run is dense, an offsets array over its second
//! component (the subject directory of HDT's bitmap triples, Fernández et
//! al. 2013). `offsets[b − second_min]` is the flat position of the first
//! key `(graph, b, ..)` — of the next larger second id when `b` has no key
//! — and the array ends with the run's end: `span + 1` entries for a span of
//! `second_max − second_min + 1` ids. A probe then finds the graph's run by
//! a binary search over the runs (a handful), and a bound second component
//! by two loads, whatever the order the probes arrive in:
//!
//! * a prefix of just the graph is the run's bounds;
//! * a second id outside the span is the empty range at the span's edge;
//! * a two-component prefix is the window `offsets[b]..offsets[b + 1]`,
//!   unsearched;
//! * a longer prefix searches inside that window, a few keys wide.
//!
//! A run gets a directory only when its span is at most its key count, so
//! the directory costs at most 4 bytes per 16-byte key, and at most one
//! entry per flat key plus one per run overall. Dictionary ids are dense
//! and a fresh load numbers them in term order, so the subjects, predicates
//! and objects of one graph usually form such blocks. A run whose second ids
//! are scattered wider than its keys (a small named graph over a large
//! dictionary) keeps a plain binary search, inside the run, for each end
//! of a range.
//!
//! The directory is built in one linear pass wherever `flat` is written —
//! [`PositionalIndex::insert_batch`] and the snapshot restore — and the churn
//! tiers never touch it. Each run's offsets sit behind an `Arc`, so the
//! store's copy-on-write clone copies one pointer per run, not the arrays.

use std::collections::btree_set::{BTreeSet, Range};
use std::ops::Bound;
use std::sync::Arc;

use crate::dictionary::TermId;

/// The three index orderings kept by the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexOrder {
    /// graph, subject, predicate, object — (s ? ?), (s p ?), (s p o), (? ? ?).
    Gspo,
    /// graph, predicate, object, subject — (? p ?), (? p o).
    Gpos,
    /// graph, object, subject, predicate — (? ? o), (s ? o).
    Gosp,
}

impl IndexOrder {
    /// The lowercase label used in metrics (`hbold_index_tier_entries`).
    pub fn label(self) -> &'static str {
        match self {
            IndexOrder::Gspo => "gspo",
            IndexOrder::Gpos => "gpos",
            IndexOrder::Gosp => "gosp",
        }
    }

    /// The one dispatch table of pattern lookups: given which of a
    /// pattern's subject, predicate and object (positions 0, 1, 2) are
    /// bound, the index whose order puts them right after the graph, and the
    /// positions the lookup leaves open, in the order the index's key holds
    /// them.
    ///
    /// A lookup is one range of that index — one graph, one bound prefix —
    /// so its rows come out sorted by the open positions, lexicographically,
    /// in the order returned. The store's scans and counts dispatch through
    /// this, and so does the SPARQL planner when it asks in what order a
    /// scan emits its rows.
    pub fn for_pattern(bound: [bool; 3]) -> (IndexOrder, &'static [usize]) {
        match bound {
            [true, true, true] => (IndexOrder::Gspo, &[]),
            [true, true, false] => (IndexOrder::Gspo, &[2]),
            [true, false, false] => (IndexOrder::Gspo, &[1, 2]),
            [false, false, false] => (IndexOrder::Gspo, &[0, 1, 2]),
            [false, true, true] => (IndexOrder::Gpos, &[0]),
            [false, true, false] => (IndexOrder::Gpos, &[2, 0]),
            [true, false, true] => (IndexOrder::Gosp, &[1]),
            [false, false, true] => (IndexOrder::Gosp, &[0, 1]),
        }
    }

    /// The positions (subject 0, predicate 1, object 2) this order's keys
    /// hold after the graph, in key order.
    pub(crate) fn positions(self) -> [usize; 3] {
        match self {
            IndexOrder::Gspo => [0, 1, 2],
            IndexOrder::Gpos => [1, 2, 0],
            IndexOrder::Gosp => [2, 0, 1],
        }
    }
}

type Key = (TermId, TermId, TermId, TermId);

/// Sizes of one positional index's storage tiers (see the module docs for
/// the tier semantics). Surfaced per index order through
/// `TripleStore::index_tier_sizes` so the serving layer can export them as
/// gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierSizes {
    /// Keys in the sorted bulk tier (including tombstoned ones).
    pub flat: usize,
    /// Incremental inserts not yet merged into the flat tier.
    pub delta: usize,
    /// Tombstones over the flat tier.
    pub dead: usize,
    /// Offsets in the flat tier's directory (4 bytes each; at most one per
    /// flat key plus one per run — see the module docs).
    pub directory: usize,
}

impl TierSizes {
    /// Each tier's entries under its metric label (`tier="flat"`, …), in a
    /// fixed order.
    pub fn labeled(&self) -> [(&'static str, usize); 4] {
        [
            ("flat", self.flat),
            ("delta", self.delta),
            ("dead", self.dead),
            ("directory", self.directory),
        ]
    }
}

/// A single sorted index over one permutation of quad positions.
#[derive(Debug, Clone, Default)]
pub struct PositionalIndex {
    /// Sorted, deduplicated bulk tier — see the module docs.
    flat: Vec<Key>,
    /// One entry per run of equal first components in `flat`, ascending —
    /// the directory of the module docs. Rebuilt whenever `flat` is.
    runs: Vec<Run>,
    /// Incremental inserts not yet merged into `flat` (disjoint from it).
    delta: BTreeSet<Key>,
    /// Keys logically removed from `flat` (tombstones).
    dead: BTreeSet<Key>,
}

/// The keys of `flat` sharing one first component, `flat[start..end]`, and
/// their directory over the second component when the run is dense.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    first: TermId,
    start: usize,
    end: usize,
    second_min: TermId,
    /// `offsets[b - second_min]` is the flat position of the first key with
    /// a second component `≥ b`; the last entry is `end`. `None` when the
    /// run's span of second ids exceeds its key count.
    offsets: Option<Arc<[u32]>>,
}

impl Run {
    /// The runs of a sorted flat tier, each with its directory when dense:
    /// one linear pass.
    fn directory(flat: &[Key]) -> Vec<Run> {
        let mut runs = Vec::new();
        let mut start = 0;
        while let Some(&(first, second_min, _, _)) = flat.get(start) {
            let len = flat[start..].partition_point(|k| k.0 == first);
            let keys = &flat[start..start + len];
            let end = start + len;
            let span = (keys[len - 1].1 - second_min) as usize + 1;
            let offsets = (span <= len && u32::try_from(end).is_ok()).then(|| {
                let mut offsets = Vec::with_capacity(span + 1);
                for (at, key) in (start..).zip(keys) {
                    // Every second id up to this key's starts here.
                    offsets.resize((key.1 - second_min) as usize + 1, at as u32);
                }
                offsets.push(end as u32);
                Arc::from(offsets)
            });
            runs.push(Run {
                first,
                start,
                end,
                second_min,
                offsets,
            });
            start = end;
        }
        runs
    }

    /// The flat positions a search for a key `(first, second, ..)` of this
    /// run is confined to: the directory's window of `second` — empty at the
    /// span's edge when `second` lies outside it — or the whole run when the
    /// run has no directory.
    #[inline]
    fn window(&self, second: TermId) -> (usize, usize) {
        let Some(offsets) = &self.offsets else {
            return (self.start, self.end);
        };
        let Some(i) = second.checked_sub(self.second_min) else {
            return (self.start, self.start);
        };
        match offsets.get(i as usize..i as usize + 2) {
            Some(&[from, to]) => (from as usize, to as usize),
            _ => (self.end, self.end),
        }
    }

    /// The flat position of this run's first key above `key` (`upper`) or
    /// not below it; `key.0` is the run's first component.
    #[inline]
    fn position(&self, flat: &[Key], key: Key, upper: bool) -> usize {
        let (from, to) = self.window(key.1);
        if self.offsets.is_some() {
            // Every key of a directory window has `key.1` as its second
            // component, so a key at the bottom or the top of the last two
            // components lands on the window's edge without a search.
            match (upper, key.2, key.3) {
                (false, 0, 0) => return from,
                (true, TermId::MAX, TermId::MAX) => return to,
                _ => {}
            }
        }
        let bits = key_bits(key);
        from + flat[from..to].partition_point(|k| match upper {
            true => key_bits(*k) <= bits,
            false => key_bits(*k) < bits,
        })
    }
}

impl PositionalIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        PositionalIndex::default()
    }

    /// Builds an index directly from an already-sorted, deduplicated key
    /// vector (the snapshot-restore fast path). Debug builds verify the
    /// precondition.
    pub(crate) fn from_sorted(keys: Vec<Key>) -> Self {
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys must be sorted+unique"
        );
        PositionalIndex {
            runs: Run::directory(&keys),
            flat: keys,
            delta: BTreeSet::new(),
            dead: BTreeSet::new(),
        }
    }

    /// Number of keys in the index.
    pub fn len(&self) -> usize {
        self.flat.len() + self.delta.len() - self.dead.len()
    }

    /// Returns `true` if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current per-tier sizes.
    pub fn tier_sizes(&self) -> TierSizes {
        TierSizes {
            flat: self.flat.len(),
            delta: self.delta.len(),
            dead: self.dead.len(),
            directory: self
                .runs
                .iter()
                .filter_map(|run| run.offsets.as_ref())
                .map(|offsets| offsets.len())
                .sum(),
        }
    }

    /// Verifies the tier invariants of the module docs — `flat` sorted and
    /// unique, the directory describing `flat`, `delta` disjoint from
    /// `flat`, `dead ⊆ flat` — in `O(n)`, naming the first one that fails.
    /// For tests and debugging; nothing on a read or write path calls it.
    pub fn check_invariants(&self) -> Result<(), String> {
        if let Some(w) = self.flat.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!("flat is not sorted and unique at {:?}", w));
        }
        if self.runs != Run::directory(&self.flat) {
            return Err("the directory does not describe flat".into());
        }
        if let Some(key) = self.delta.iter().find(|k| self.flat_contains(k)) {
            return Err(format!("delta key {key:?} is also in flat"));
        }
        if let Some(key) = self.dead.iter().find(|k| !self.flat_contains(k)) {
            return Err(format!("tombstone {key:?} is not in flat"));
        }
        Ok(())
    }

    fn flat_contains(&self, key: &Key) -> bool {
        let (start, end) = self.flat_bounds(*key, *key);
        start < end
    }

    /// Inserts a key into the churn tiers; returns `true` if it was new.
    /// `O(log n)`, and `flat` is never touched.
    pub fn insert(&mut self, key: Key) -> bool {
        if self.flat_contains(&key) {
            // Present in the bulk tier: new only if it was tombstoned.
            self.dead.remove(&key)
        } else {
            self.delta.insert(key)
        }
    }

    /// Merges a batch of keys and every outstanding churn key into a fresh
    /// flat tier, leaving `delta` and `dead` empty. Duplicates — within the
    /// batch or with existing keys — are deduplicated; an empty batch is a
    /// pure fold of the churn tiers.
    ///
    /// One linear pass over the index's own merged scan against the sorted
    /// batch: `O(n + m log m)` for an index of `n` keys and a batch of `m`.
    /// Right for bulk loads and for folding accumulated churn, deliberately
    /// not for one small change (use [`PositionalIndex::insert`]).
    pub fn insert_batch(&mut self, keys: impl IntoIterator<Item = Key>) {
        let mut incoming: Vec<Key> = keys.into_iter().collect();
        if incoming.is_empty() && self.delta.is_empty() && self.dead.is_empty() {
            return;
        }
        incoming.sort_unstable();
        incoming.dedup();

        let mut merged = Vec::with_capacity(self.len() + incoming.len());
        let mut incoming = incoming.into_iter().peekable();
        for &key in self.scan_all() {
            while let Some(smaller) = incoming.next_if(|k| *k < key) {
                merged.push(smaller);
            }
            // A batch key already present is dropped, not duplicated.
            incoming.next_if_eq(&key);
            merged.push(key);
        }
        merged.extend(incoming);
        self.runs = Run::directory(&merged);
        self.flat = merged;
        self.delta.clear();
        self.dead.clear();
    }

    /// Removes a key; returns `true` if it was present.
    pub fn remove(&mut self, key: &Key) -> bool {
        if self.delta.remove(key) {
            return true;
        }
        if self.flat_contains(key) {
            self.dead.insert(*key)
        } else {
            false
        }
    }

    /// Returns `true` if the key is present.
    pub fn contains(&self, key: &Key) -> bool {
        if self.delta.contains(key) {
            return true;
        }
        self.flat_contains(key) && !self.dead.contains(key)
    }

    /// The run of `first`, or the flat position where its keys would start.
    #[inline]
    fn run(&self, first: TermId) -> Result<&Run, usize> {
        match self.runs.binary_search_by_key(&first, |run| run.first) {
            Ok(i) => Ok(&self.runs[i]),
            Err(i) => Err(self.runs.get(i).map_or(self.flat.len(), |run| run.start)),
        }
    }

    /// The flat position of the first key above `key` (`upper`) or not
    /// below it.
    fn position(&self, key: Key, upper: bool) -> usize {
        match self.run(key.0) {
            Ok(run) => run.position(&self.flat, key, upper),
            Err(at) => at,
        }
    }

    /// The bounds of the contiguous `flat` subrange covering `[lo, hi]`
    /// (inclusive), through the directory of the module docs.
    fn flat_bounds(&self, lo: Key, hi: Key) -> (usize, usize) {
        if lo.0 != hi.0 {
            // A range across runs (a cursor over graphs): each end alone.
            let start = self.position(lo, false);
            return (start, self.position(hi, true).max(start));
        }
        match self.run(lo.0) {
            Ok(run) => {
                let start = run.position(&self.flat, lo, false);
                (start, run.position(&self.flat, hi, true).max(start))
            }
            Err(at) => (at, at),
        }
    }

    fn scan_range(&self, lo: Key, hi: Key) -> PrefixScan<'_> {
        let (start, end) = self.flat_bounds(lo, hi);
        let bounds = (Bound::Included(lo), Bound::Included(hi));
        // An empty churn tier — the common case — is not descended at all.
        fn churn(tier: &BTreeSet<Key>, bounds: (Bound<Key>, Bound<Key>)) -> Range<'_, Key> {
            match tier.is_empty() {
                true => Range::default(),
                false => tier.range(bounds),
            }
        }
        PrefixScan::new(
            &self.flat[start..end],
            churn(&self.delta, bounds),
            churn(&self.dead, bounds),
        )
    }

    /// Scans keys whose first component equals `first`, in ascending order.
    pub fn scan_prefix1(&self, first: TermId) -> PrefixScan<'_> {
        self.scan_range(
            (first, 0, 0, 0),
            (first, TermId::MAX, TermId::MAX, TermId::MAX),
        )
    }

    /// Scans keys whose first two components equal `(first, second)`, in
    /// ascending order.
    pub fn scan_prefix2(&self, first: TermId, second: TermId) -> PrefixScan<'_> {
        self.scan_range(
            (first, second, 0, 0),
            (first, second, TermId::MAX, TermId::MAX),
        )
    }

    /// Scans keys whose first three components equal
    /// `(first, second, third)`, in ascending order.
    pub fn scan_prefix3(&self, first: TermId, second: TermId, third: TermId) -> PrefixScan<'_> {
        self.scan_range(
            (first, second, third, 0),
            (first, second, third, TermId::MAX),
        )
    }

    /// Scans the (at most one) key equal to `(first, second, third, fourth)`
    /// — the fully-bound pattern shape, expressed as a scan so every pattern
    /// lookup returns one iterator type.
    pub fn scan_prefix4(
        &self,
        first: TermId,
        second: TermId,
        third: TermId,
        fourth: TermId,
    ) -> PrefixScan<'_> {
        self.scan_range(
            (first, second, third, fourth),
            (first, second, third, fourth),
        )
    }

    /// Scans every key in ascending order.
    pub fn scan_all(&self) -> PrefixScan<'_> {
        PrefixScan::new(&self.flat, self.delta.range(..), self.dead.range(..))
    }

    /// Exact number of keys in `[lo, hi]`: the flat tier's bounds (a
    /// directory lookup, see [`PositionalIndex::flat_bounds`]), plus range
    /// counts over the churn tiers (the churn inside the range, bounded by
    /// the store's fold policy) — no key is materialized.
    fn count_range(&self, lo: Key, hi: Key) -> usize {
        let (start, end) = self.flat_bounds(lo, hi);
        let mut n = end - start;
        if !self.delta.is_empty() {
            n += self
                .delta
                .range((Bound::Included(lo), Bound::Included(hi)))
                .count();
        }
        if !self.dead.is_empty() {
            n -= self
                .dead
                .range((Bound::Included(lo), Bound::Included(hi)))
                .count();
        }
        n
    }

    /// Exact number of keys whose first component equals `first`, without
    /// walking them. This is the cardinality of a one-constant pattern
    /// lookup and costs one search over the runs.
    pub fn count_prefix1(&self, first: TermId) -> usize {
        self.count_range(
            (first, 0, 0, 0),
            (first, TermId::MAX, TermId::MAX, TermId::MAX),
        )
    }

    /// Exact number of keys whose first two components equal
    /// `(first, second)`, without walking them.
    pub fn count_prefix2(&self, first: TermId, second: TermId) -> usize {
        self.count_range(
            (first, second, 0, 0),
            (first, second, TermId::MAX, TermId::MAX),
        )
    }

    /// Exact number of keys whose first three components equal
    /// `(first, second, third)`, without walking them.
    pub fn count_prefix3(&self, first: TermId, second: TermId, third: TermId) -> usize {
        self.count_range(
            (first, second, third, 0),
            (first, second, third, TermId::MAX),
        )
    }

    /// Smallest live key in `[lo, hi]`: the head of the merged scan.
    fn first_in_range(&self, lo: Key, hi: Key) -> Option<Key> {
        self.scan_range(lo, hi).next().copied()
    }

    /// Every distinct first component, in ascending order, computed exactly
    /// by jumping from run to run (one search over the runs each). The store
    /// uses this on a graph-first index to enumerate graphs.
    pub fn first_components(&self) -> Vec<TermId> {
        let mut out = Vec::new();
        let mut cursor: Key = (0, 0, 0, 0);
        let hi: Key = (TermId::MAX, TermId::MAX, TermId::MAX, TermId::MAX);
        while let Some(key) = self.first_in_range(cursor, hi) {
            out.push(key.0);
            match key_successor((key.0, TermId::MAX, TermId::MAX, TermId::MAX)) {
                Some(next) => cursor = next,
                None => break,
            }
        }
        out
    }

    /// Estimated number of distinct second components among keys whose
    /// first component equals `first` — on a graph-first order, the
    /// distinct values of one position inside one graph.
    ///
    /// Exact when there are at most `DISTINCT_PROBES` (16) distinct values;
    /// beyond that the remainder is extrapolated from the average run length
    /// observed so far. Each probe is two range lookups through the
    /// directory (see the module docs), so the cost is `DISTINCT_PROBES`
    /// pairs of them.
    pub fn distinct_second_estimate(&self, first: TermId) -> usize {
        self.distinct_run_estimate(
            (first, 0, 0, 0),
            (first, TermId::MAX, TermId::MAX, TermId::MAX),
            |k| (k.0, k.1, TermId::MAX, TermId::MAX),
        )
    }

    /// Estimated number of distinct third components among keys whose
    /// first two components equal `(first, second)` (same probe budget and
    /// cost model as [`PositionalIndex::distinct_second_estimate`]).
    pub fn distinct_third_estimate(&self, first: TermId, second: TermId) -> usize {
        self.distinct_run_estimate(
            (first, second, 0, 0),
            (first, second, TermId::MAX, TermId::MAX),
            |k| (k.0, k.1, k.2, TermId::MAX),
        )
    }

    /// Counts runs of equal-prefix keys in `[lo, hi]`, where `run_hi` maps
    /// a key to the largest possible key of its run. Stops after
    /// [`DISTINCT_PROBES`] runs and extrapolates the tail.
    fn distinct_run_estimate(&self, lo: Key, hi: Key, run_hi: impl Fn(Key) -> Key) -> usize {
        let total = self.count_range(lo, hi);
        if total == 0 {
            return 0;
        }
        let mut distinct = 0usize;
        let mut covered = 0usize;
        let mut cursor = lo;
        while distinct < DISTINCT_PROBES {
            let Some(key) = self.first_in_range(cursor, hi) else {
                return distinct;
            };
            distinct += 1;
            let end = run_hi(key).min(hi);
            covered += self.count_range(key, end);
            let Some(next) = key_successor(end) else {
                return distinct;
            };
            if next > hi {
                return distinct;
            }
            cursor = next;
        }
        // Probe budget exhausted: assume the remaining keys form runs of
        // the average length seen so far.
        let avg = (covered / distinct).max(1);
        distinct + (total - covered).div_ceil(avg)
    }
}

/// The key as one integer whose order is the key's: one wide comparison per
/// step of a search instead of up to four narrow ones.
#[inline]
fn key_bits(k: Key) -> u128 {
    ((k.0 as u128) << 96) | ((k.1 as u128) << 64) | ((k.2 as u128) << 32) | k.3 as u128
}

/// Probe budget for the distinct-value estimators: after this many runs
/// have been counted exactly, the rest of the range is extrapolated.
const DISTINCT_PROBES: usize = 16;

/// The key immediately after `k` in lexicographic order, or `None` at the
/// top of the key space.
fn key_successor(k: Key) -> Option<Key> {
    let (a, b, c, d) = k;
    if d < TermId::MAX {
        Some((a, b, c, d + 1))
    } else if c < TermId::MAX {
        Some((a, b, c + 1, 0))
    } else if b < TermId::MAX {
        Some((a, b + 1, 0, 0))
    } else if a < TermId::MAX {
        Some((a + 1, 0, 0, 0))
    } else {
        None
    }
}

/// Ordered scan over a prefix range. With no churn inside the range — always,
/// on a store without churn — it is the flat tier's contiguous subslice and
/// nothing else: a bare slice iterator, small enough to move around for free.
/// Otherwise it is a (boxed) three-way `Merge`.
pub struct PrefixScan<'a>(Scan<'a>);

enum Scan<'a> {
    Flat(std::slice::Iter<'a, Key>),
    Merged(Box<Merge<'a>>),
}

/// A three-way merge of the flat tier's subslice, the delta tier's B-tree
/// range and the tombstone tier's B-tree range. Every tombstone in the range
/// shadows exactly one flat key of the range (`dead ⊆ flat`), so the
/// tombstones are consumed in step with the flat keys they hide — one sorted
/// stream, no lookup per key.
struct Merge<'a> {
    flat: std::slice::Iter<'a, Key>,
    flat_next: Option<&'a Key>,
    delta: Range<'a, Key>,
    delta_next: Option<&'a Key>,
    dead: Range<'a, Key>,
    dead_next: Option<&'a Key>,
}

impl<'a> PrefixScan<'a> {
    fn new(flat: &'a [Key], mut delta: Range<'a, Key>, mut dead: Range<'a, Key>) -> Self {
        let delta_next = delta.next();
        let dead_next = dead.next();
        if delta_next.is_none() && dead_next.is_none() {
            return PrefixScan(Scan::Flat(flat.iter()));
        }
        let mut merge = Merge {
            flat: flat.iter(),
            flat_next: None,
            delta,
            delta_next,
            dead,
            dead_next,
        };
        merge.flat_next = merge.pull();
        PrefixScan(Scan::Merged(Box::new(merge)))
    }
}

impl<'a> Merge<'a> {
    /// The next flat key that is not tombstoned.
    fn pull(&mut self) -> Option<&'a Key> {
        loop {
            let key = self.flat.next()?;
            match self.dead_next {
                None => return Some(key),
                // The pending tombstone is never behind the flat cursor
                // (`dead ⊆ flat`, both ascending over the same range), so
                // it names either this key or a later one.
                Some(dead) if dead != key => return Some(key),
                Some(_) => self.dead_next = self.dead.next(),
            }
        }
    }

    fn next(&mut self) -> Option<&'a Key> {
        match (self.flat_next, self.delta_next) {
            (None, None) => None,
            (Some(f), None) => {
                self.flat_next = self.pull();
                Some(f)
            }
            (None, Some(d)) => {
                self.delta_next = self.delta.next();
                Some(d)
            }
            (Some(f), Some(d)) => {
                // The tiers are disjoint by invariant; `<=` is defensive.
                if f <= d {
                    self.flat_next = self.pull();
                    Some(f)
                } else {
                    self.delta_next = self.delta.next();
                    Some(d)
                }
            }
        }
    }
}

impl<'a> Iterator for PrefixScan<'a> {
    type Item = &'a Key;

    #[inline]
    fn next(&mut self) -> Option<&'a Key> {
        match &mut self.0 {
            Scan::Flat(keys) => keys.next(),
            Scan::Merged(merge) => merge.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            Scan::Flat(keys) => keys.size_hint(),
            // The churn ranges' lengths are not known in O(1); give
            // collectors the flat tier's guaranteed minimum when nothing can
            // shadow it, and leave the upper bound open.
            Scan::Merged(merge) if merge.dead_next.is_none() => {
                let pending = usize::from(merge.flat_next.is_some())
                    + usize::from(merge.delta_next.is_some());
                (merge.flat.len() + pending, None)
            }
            Scan::Merged(_) => (0, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> PositionalIndex {
        let mut idx = PositionalIndex::new();
        for s in 0..3 {
            for p in 0..3 {
                for o in 0..3 {
                    idx.insert((s, p, o, 0));
                }
            }
        }
        idx
    }

    fn filled_flat() -> PositionalIndex {
        let mut keys = Vec::new();
        for s in 0..3 {
            for p in 0..3 {
                for o in 0..3 {
                    keys.push((s, p, o, 0));
                }
            }
        }
        let mut idx = PositionalIndex::new();
        idx.insert_batch(keys);
        idx
    }

    #[test]
    fn insert_remove_contains() {
        let mut idx = PositionalIndex::new();
        assert!(idx.insert((1, 2, 3, 4)));
        assert!(!idx.insert((1, 2, 3, 4)));
        assert!(idx.contains(&(1, 2, 3, 4)));
        assert!(idx.remove(&(1, 2, 3, 4)));
        assert!(!idx.remove(&(1, 2, 3, 4)));
        assert!(idx.is_empty());
    }

    #[test]
    fn prefix_scans_cover_exactly_the_prefix() {
        for idx in [filled(), filled_flat()] {
            assert_eq!(idx.len(), 27);
            assert_eq!(idx.scan_prefix1(1).count(), 9);
            assert_eq!(idx.scan_prefix2(1, 2).count(), 3);
            assert_eq!(idx.scan_prefix3(1, 2, 0).count(), 1);
            assert_eq!(idx.scan_all().count(), 27);
            assert!(idx.scan_prefix1(1).all(|k| k.0 == 1));
            assert!(idx.scan_prefix2(1, 2).all(|k| k.0 == 1 && k.1 == 2));
            assert_eq!(idx.scan_prefix1(7).count(), 0);
            assert_eq!(idx.scan_prefix4(1, 2, 0, 0).count(), 1);
            assert_eq!(idx.scan_prefix4(1, 2, 0, 9).count(), 0);
        }
    }

    #[test]
    fn prefix_scan_includes_extreme_ids() {
        // `TermId::MAX` doubles as the reserved default-graph identifier, so
        // ranges that start or end at the extremes must stay well-formed.
        let mut idx = PositionalIndex::new();
        idx.insert((5, 0, 0, TermId::MAX));
        idx.insert((5, TermId::MAX, TermId::MAX, TermId::MAX));
        idx.insert((6, 0, 0, 0));
        idx.insert((TermId::MAX, 1, 1, 1));
        assert_eq!(idx.scan_prefix1(5).count(), 2);
        assert_eq!(idx.scan_prefix2(5, TermId::MAX).count(), 1);
        assert_eq!(idx.scan_prefix1(TermId::MAX).count(), 1);
        assert_eq!(idx.scan_prefix3(5, 0, 0).count(), 1);
    }

    #[test]
    fn scans_merge_flat_and_delta_in_order() {
        let mut idx = PositionalIndex::new();
        idx.insert_batch([(1, 1, 1, 0), (1, 1, 3, 0), (2, 0, 0, 0)]);
        // Incremental churn interleaves with the flat tier.
        idx.insert((1, 1, 2, 0));
        idx.insert((1, 1, 0, 0));
        idx.insert((0, 9, 9, 0));
        let all: Vec<Key> = idx.scan_all().copied().collect();
        assert_eq!(
            all,
            vec![
                (0, 9, 9, 0),
                (1, 1, 0, 0),
                (1, 1, 1, 0),
                (1, 1, 2, 0),
                (1, 1, 3, 0),
                (2, 0, 0, 0)
            ]
        );
        let ones: Vec<Key> = idx.scan_prefix2(1, 1).copied().collect();
        assert_eq!(
            ones,
            vec![(1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 2, 0), (1, 1, 3, 0)]
        );
        assert_eq!(idx.len(), 6);
    }

    #[test]
    fn tombstones_hide_flat_keys_until_reinserted() {
        let mut idx = PositionalIndex::new();
        idx.insert_batch([(1, 1, 1, 0), (1, 1, 2, 0), (1, 1, 3, 0)]);
        assert!(idx.remove(&(1, 1, 2, 0)));
        assert!(!idx.contains(&(1, 1, 2, 0)));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.scan_prefix1(1).count(), 2);
        assert!(idx.scan_all().all(|k| *k != (1, 1, 2, 0)));
        // Re-inserting a tombstoned key resurrects it in place.
        assert!(idx.insert((1, 1, 2, 0)));
        assert!(!idx.insert((1, 1, 2, 0)));
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.scan_prefix1(1).count(), 3);
    }

    #[test]
    fn insert_batch_folds_delta_and_tombstones_away() {
        let mut idx = PositionalIndex::new();
        idx.insert_batch([(1, 0, 0, 0), (3, 0, 0, 0)]);
        idx.insert((2, 0, 0, 0)); // delta
        idx.remove(&(3, 0, 0, 0)); // tombstone
        idx.insert_batch([(4, 0, 0, 0), (1, 0, 0, 0)]); // dup with flat
        let all: Vec<Key> = idx.scan_all().copied().collect();
        assert_eq!(all, vec![(1, 0, 0, 0), (2, 0, 0, 0), (4, 0, 0, 0)]);
        assert_eq!(idx.len(), 3);
        assert!(!idx.contains(&(3, 0, 0, 0)));
    }

    #[test]
    fn remove_then_batch_reinsert_resurrects() {
        let mut idx = PositionalIndex::new();
        idx.insert_batch([(1, 0, 0, 0), (2, 0, 0, 0)]);
        idx.remove(&(2, 0, 0, 0));
        idx.insert_batch([(2, 0, 0, 0)]);
        assert!(idx.contains(&(2, 0, 0, 0)));
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn prefix_counts_match_scans_across_tiers() {
        // A mix of flat, delta, and tombstoned keys: counts must agree with
        // the merged scan on every prefix shape.
        let mut idx = PositionalIndex::new();
        idx.insert_batch([
            (1, 1, 1, 0),
            (1, 1, 3, 0),
            (1, 1, 3, 2),
            (1, 2, 0, 0),
            (2, 0, 0, 0),
            (3, 5, 5, 0),
        ]);
        idx.insert((1, 1, 2, 0)); // delta inside a flat run
        idx.insert((0, 9, 9, 0)); // delta before all flat keys
        idx.remove(&(1, 2, 0, 0)); // tombstone
        for first in 0..4 {
            assert_eq!(idx.count_prefix1(first), idx.scan_prefix1(first).count());
            for second in 0..3 {
                assert_eq!(
                    idx.count_prefix2(first, second),
                    idx.scan_prefix2(first, second).count()
                );
                for third in 0..4 {
                    assert_eq!(
                        idx.count_prefix3(first, second, third),
                        idx.scan_prefix3(first, second, third).count()
                    );
                }
            }
        }
        assert_eq!(idx.count_prefix1(7), 0);
        assert_eq!(idx.count_prefix2(1, 1), 4);
        assert_eq!(idx.count_prefix3(1, 1, 3), 2);
    }

    #[test]
    fn range_ends_agree_with_a_binary_search() {
        // Runs of every length from 0 to 40, the last run ending the tier.
        // Every other run also ends on a far second id, which leaves it
        // without a directory: its range ends are searched inside the run.
        let mut keys = Vec::new();
        for first in 0..=40u32 {
            keys.extend((0..first).map(|third| (2 * first, 7, third, 0)));
            if first % 2 == 1 {
                keys.push((2 * first, 9_000, 0, 0));
            }
        }
        let idx = PositionalIndex::from_sorted(keys.clone());
        assert!(idx.runs.iter().any(|run| run.offsets.is_none()));
        let max = TermId::MAX;
        for first in 0..=82u32 {
            for (lo, hi) in [
                ((first, 0, 0, 0), (first, max, max, max)),
                ((first, 7, 3, 0), (first, 7, 9, max)),
                ((first, 7, 3, 0), (first, 9_000, 0, 0)),
                ((first, 0, 0, 0), (first + 5, 7, 2, 0)),
                ((first, 0, 0, 0), (max, max, max, max)),
            ] {
                let start = keys.partition_point(|k| *k < lo);
                let end = keys.partition_point(|k| *k <= hi);
                assert_eq!(idx.flat_bounds(lo, hi), (start, end), "[{lo:?}, {hi:?}]");
                assert_eq!(idx.count_range(lo, hi), end - start);
            }
        }
        assert_eq!(
            PositionalIndex::new().flat_bounds((0, 0, 0, 0), (1, 0, 0, 0)),
            (0, 0)
        );
    }

    /// Three graphs: 3 dense with a hole at second id 14, 5 sparse (three
    /// second ids over a span of 50 001), 9 dense on the top second id.
    fn directory_keys() -> Vec<Key> {
        let max = TermId::MAX;
        let mut keys = Vec::new();
        for b in (10..=19).filter(|&b| b != 14) {
            keys.extend((0..2 + b % 2).map(|c| (3, b, c, 1)));
        }
        for b in [0, 1000, 50_000] {
            keys.extend([(5, b, 2, 0), (5, b, max, max)]);
        }
        keys.extend((0..4).map(|c| (9, max, c, 0)));
        keys
    }

    /// Bounds, scans, counts and membership of `idx`, whose live keys are
    /// `model`, against a reference: a `partition_point` over the flat tier
    /// and a range over the model. Every prefix shape and a range across
    /// runs, probed below, between, inside and above the runs and with
    /// second ids inside, outside and at the edges of each run's span.
    fn assert_probes_match_reference(idx: &PositionalIndex, model: &BTreeSet<Key>) {
        idx.check_invariants().unwrap();
        let sizes = idx.tier_sizes();
        assert!(sizes.directory <= sizes.flat + idx.runs.len(), "{sizes:?}");
        let max = TermId::MAX;
        let reference = |lo: Key, hi: Key| {
            let start = idx.flat.partition_point(|k| *k < lo);
            (start, idx.flat.partition_point(|k| *k <= hi).max(start))
        };
        let seconds = [0, 1, 9, 10, 12, 14, 19, 20, 999, 1000, 50_000, 50_001];
        for a in [0, 3, 4, 5, 7, 9, 12] {
            for b in seconds.into_iter().chain([max - 1, max]) {
                for c in [0, 1, 2, max] {
                    for d in [0, 1, max] {
                        for (lo, hi) in [
                            ((a, 0, 0, 0), (a, max, max, max)),
                            ((a, b, 0, 0), (a, b, max, max)),
                            ((a, b, c, 0), (a, b, c, max)),
                            ((a, b, c, d), (a, b, c, d)),
                            ((a, b, c, d), (max, max, max, max)),
                        ] {
                            let live: Vec<Key> = model.range(lo..=hi).copied().collect();
                            assert_eq!(idx.flat_bounds(lo, hi), reference(lo, hi), "{lo:?}");
                            assert_eq!(idx.count_range(lo, hi), live.len(), "{lo:?}");
                            let scanned: Vec<Key> = idx.scan_range(lo, hi).copied().collect();
                            assert_eq!(scanned, live, "[{lo:?}, {hi:?}]");
                        }
                        assert_eq!(idx.contains(&(a, b, c, d)), model.contains(&(a, b, c, d)));
                    }
                }
            }
        }
    }

    #[test]
    fn directory_probes_agree_with_a_reference_search() {
        let max = TermId::MAX;
        let keys = directory_keys();
        let mut model: BTreeSet<Key> = keys.iter().copied().collect();
        assert_probes_match_reference(&PositionalIndex::new(), &BTreeSet::new());

        let restored = PositionalIndex::from_sorted(keys.clone());
        let dense = |idx: &PositionalIndex, g| idx.run(g).unwrap().offsets.is_some();
        assert!(dense(&restored, 3) && !dense(&restored, 5) && dense(&restored, 9));
        // Graph 3 spans 10 second ids (11 offsets), graph 9 one (2 offsets).
        assert_eq!(restored.tier_sizes().directory, 13);
        assert_probes_match_reference(&restored, &model);

        // A fold builds the same directory from unsorted input.
        let mut idx = PositionalIndex::new();
        idx.insert_batch(keys.iter().rev().copied());
        assert_eq!(idx.runs, restored.runs);
        assert_probes_match_reference(&idx, &model);

        // Churn leaves the directory alone: graph 4 lives only in delta, the
        // hole at (3, 14) fills in delta, and every run loses a key.
        for key in [(4, 10, 0, 0), (4, 12, 1, 1), (3, 14, 0, 0)] {
            assert!(idx.insert(key) && model.insert(key));
        }
        for key in [(3, 10, 0, 1), (5, 1000, 2, 0), (9, max, 3, 0)] {
            assert!(idx.remove(&key) && model.remove(&key));
        }
        assert_eq!(idx.runs, restored.runs);
        assert_probes_match_reference(&idx, &model);

        // The next fold takes graph 4 into a run of its own — without a
        // directory, its span of 3 second ids being wider than its 2 keys —
        // and gives graph 3 a directory over the filled hole.
        idx.insert_batch([]);
        assert!(!dense(&idx, 4) && dense(&idx, 3));
        assert_eq!(idx.tier_sizes().directory, 13);
        assert_probes_match_reference(&idx, &model);
    }

    #[test]
    fn prefix_counts_include_extreme_ids() {
        let mut idx = PositionalIndex::new();
        idx.insert((5, 0, 0, 0));
        idx.insert((5, TermId::MAX, TermId::MAX, TermId::MAX));
        idx.insert((6, 0, 0, 0));
        assert_eq!(idx.count_prefix1(5), 2);
        assert_eq!(idx.count_prefix2(5, TermId::MAX), 1);
        assert_eq!(idx.count_prefix3(5, TermId::MAX, TermId::MAX), 1);
    }

    #[test]
    fn distinct_estimates_are_exact_under_probe_budget() {
        for idx in [filled(), filled_flat()] {
            // 3 distinct seconds per first, 3 distinct thirds per pair — all
            // under the probe budget, so the estimates are exact.
            for first in 0..3 {
                assert_eq!(idx.distinct_second_estimate(first), 3);
                for second in 0..3 {
                    assert_eq!(idx.distinct_third_estimate(first, second), 3);
                }
            }
            assert_eq!(idx.distinct_second_estimate(9), 0);
            assert_eq!(idx.distinct_third_estimate(1, 9), 0);
        }
        assert_eq!(PositionalIndex::new().distinct_second_estimate(0), 0);
    }

    #[test]
    fn distinct_estimate_extrapolates_past_probe_budget() {
        // 100 uniform runs of 10 keys inside one graph: the estimator probes
        // 16 and must extrapolate the rest to roughly the true count.
        let mut keys = Vec::new();
        for s in 0..100 {
            for o in 0..10 {
                keys.push((5, s, 0, o));
            }
        }
        let mut idx = PositionalIndex::new();
        idx.insert_batch(keys);
        let est = idx.distinct_second_estimate(5);
        assert!((90..=110).contains(&est), "estimate {est} not near 100");
    }

    #[test]
    fn distinct_estimates_respect_tombstones_and_delta() {
        let mut idx = PositionalIndex::new();
        idx.insert_batch([(0, 1, 0, 0), (0, 2, 0, 0), (0, 3, 0, 0)]);
        idx.remove(&(0, 2, 0, 0));
        idx.insert((0, 4, 7, 7));
        assert_eq!(idx.distinct_second_estimate(0), 3); // 1, 3, 4
        assert_eq!(idx.distinct_third_estimate(0, 4), 1);
        assert_eq!(idx.distinct_third_estimate(0, 2), 0);
    }

    #[test]
    fn first_components_enumerates_runs_exactly() {
        let mut idx = PositionalIndex::new();
        assert!(idx.first_components().is_empty());
        idx.insert_batch([
            (1, 0, 0, 0),
            (1, 5, 5, 5),
            (3, 0, 0, 0),
            (TermId::MAX, 2, 2, 2),
        ]);
        idx.insert((2, 9, 9, 9)); // delta tier participates
        idx.remove(&(3, 0, 0, 0)); // tombstoned runs disappear
        assert_eq!(idx.first_components(), vec![1, 2, TermId::MAX]);
    }

    #[test]
    fn from_sorted_round_trips() {
        let keys = vec![(0, 0, 1, 0), (0, 1, 0, 0), (5, 5, 5, 5)];
        let idx = PositionalIndex::from_sorted(keys.clone());
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.scan_all().copied().collect::<Vec<_>>(), keys);
        assert!(idx.contains(&(0, 1, 0, 0)));
    }
}
