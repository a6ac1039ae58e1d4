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
//! # Hybrid layout: a compact sorted tier + B-tree churn tiers
//!
//! The hot read path of the whole system is the SPARQL engine range-scanning
//! these indexes, and H-BOLD's workload is load-mostly with a trickle of
//! refreshes: a dataset arrives in bulk, is queried many times, and every
//! re-extraction lands as a small update. The index therefore keeps its keys
//! in two tiers:
//!
//! * **`flat`** — the sorted, deduplicated bulk tier, held the way HDT's
//!   BitmapTriples hold triples (Fernández et al., "Binary RDF
//!   representation for publication and exchange (HDT)", J. Web Semantics
//!   2013). The keys sharing a first component form a *run* (on the
//!   graph-first orders, one per graph), each run keeps a directory over
//!   its second components — the Y level, below — and of every key only its
//!   last two components are stored, as one `(c, d)` pair of 8 bytes in a
//!   single `Vec` — the Z level. The run implies the first component and the
//!   directory window a position falls in implies the second, so a key
//!   costs 8 bytes instead of 16. A prefix lookup finds its range through
//!   the directory, then walks *contiguous memory*: no pointer chasing,
//!   perfect cache locality. It is written in two places only:
//!   [`PositionalIndex::insert_batch`], by one linear merge that also folds
//!   every outstanding churn key in, and the store's builder from GSPO's
//!   tier (a restore's quad runs decode straight into it, or the first fold
//!   of an empty store builds it from sorted keys), which derives the other
//!   two orders by one counting pass each (`PositionalIndex::regrouped`). So
//!   a bulk-loaded or restored store scans at flat-vector speed.
//! * **churn** — a `delta` `BTreeSet` of full keys inserted since the last
//!   merge ([`PositionalIndex::insert`]) and a `dead` `BTreeSet` of
//!   tombstones over `flat` ([`PositionalIndex::remove`]): a change costs
//!   `O(log n)` per key whatever the size of `flat`. A scan is a three-way
//!   merge of the sorted sources — `flat` and `delta` interleaved, `dead`
//!   walked alongside as a third stream, so it pays for the churn inside its
//!   own range and never probes a B-tree per key; when neither churn set
//!   reaches into the range (the common case) the scan is a bare walk over
//!   the flat tier's pairs.
//!
//! The index holds the mechanism only. *When* a change goes key by key into
//! the churn tiers and when all three orders merge is decided in one place,
//! `TripleStore`'s fold policy (see `FOLD_RATIO` in `store.rs`), so the three
//! orders always sit in the same tier state.
//!
//! Invariants maintained by every mutation: `flat` is sorted and unique,
//! `delta` is disjoint from `flat`, `dead ⊆ flat`, and the directory with
//! the pairs is exactly what the builder makes of `flat`'s full keys.
//!
//! # The directory (Y level): a probe jumps, it does not search
//!
//! Each run's directory splits the run into *windows*, one per second
//! component, `offsets[i]..offsets[i + 1]` being the flat positions of the
//! keys `(a, b_i, ..)`; the offsets end with the run's end. It takes one of
//! two shapes, by the run's span of second ids (`b_max − b_min + 1`)
//! against its key count:
//!
//! * **dense** — the span is at most the key count: `b_i = b_min + i` for
//!   every id of the span, so `offsets[b − b_min]` is the flat position of
//!   the first key `(a, b, ..)` — of the next larger second id when `b` has
//!   no key, an empty window — and a second id is found by two loads.
//!   `span + 1` offsets: at most 4 bytes per key, plus 4 per run.
//!   Dictionary ids are dense and a fresh load numbers them in term order,
//!   so the subjects, predicates and objects of one graph usually form such
//!   blocks.
//! * **sparse** — the second ids are scattered wider than the run's keys (a
//!   small named graph over a large dictionary): the run's sorted distinct
//!   second ids beside their offsets, and a second id is found by a binary
//!   search among them. 8 bytes per distinct id, plus 4 per run.
//!
//! # Prepared probes
//!
//! A pattern's lookups are *prepared*: `PositionalIndex::prepare` finds the
//! first component's run once (a binary search over the runs, a handful)
//! and notes whether a churn tier holds a key of it, and each
//! `Prepared::probe` then binds the next components:
//!
//! * none: the run's bounds, walked window by window;
//! * the second: its window, two loads in a dense directory — or the empty
//!   window where its keys would sit;
//! * the second and more: a seek inside that window's pairs for the rest,
//!   linear in a window of at most eight pairs (a subject's or an object's
//!   keys, what a join probe seeks in), a binary search in a longer one.
//!
//! With no churn key of the run, a probe with the second component bound —
//! every join probe — is the window's pairs beside the components they
//! share, handed out as a slice ([`PrefixScan::window`]); a graph with churn
//! looks the probed range up in the churn tiers, and only a probe they reach
//! into pays for the merge. `scan_prefix1`..`scan_prefix4` are prepare then
//! probe, so the store has one lookup. Scans yield keys by value; a walk
//! across windows (an open second component, `scan_all`) advances the
//! second component as the position crosses the next offset (a dense
//! directory's empty windows are stepped over), a branch per window that a
//! vector of full keys did not pay, and its `fold` (`count`, `for_each`, a
//! merge, the snapshot writer) runs window by window over slices and pays
//! nothing per key.
//!
//! So a flat key costs 8 bytes plus its share of the directory: at most 4
//! more in a dense run and at most 8 in a sparse one, ≈ 9 on a fresh load
//! (measured in `tests/store_heap_bytes.rs`; [`PositionalIndex::heap_bytes`]
//! is the exact count, exported as `hbold_index_bytes`). Positions are
//! `u32`: one flat tier holds at most `u32::MAX` keys (4.29 billion quads
//! per store), which every build of a tier asserts.
//!
//! The directory is built in one linear pass wherever `flat` is written —
//! [`PositionalIndex::insert_batch`] and the store's builder — and the churn
//! tiers never touch it. Each run's arrays sit behind an `Arc`, so the
//! store's copy-on-write clone copies the pairs and one pointer per run.

use std::alloc::Layout;
use std::collections::btree_set::{BTreeSet, Range};
use std::mem::size_of;
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
    /// The lowercase label used in metrics (`hbold_index_tier_entries`,
    /// `hbold_index_bytes`).
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
    pub fn positions(self) -> [usize; 3] {
        match self {
            IndexOrder::Gspo => [0, 1, 2],
            IndexOrder::Gpos => [1, 2, 0],
            IndexOrder::Gosp => [2, 0, 1],
        }
    }
}

type Key = (TermId, TermId, TermId, TermId);

/// A flat key's last two components: all the flat tier stores per key.
type Pair = (TermId, TermId);

/// What a flat position must fit in (see the module docs).
const POSITION_LIMIT: &str = "a flat tier holds at most u32::MAX keys";

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
    /// Offsets in the flat tier's directory: one per second id of a dense
    /// run's span, one per distinct second id of a sparse run, plus one per
    /// run for its end — at most one per flat key plus one per run. A
    /// sparse run's offsets sit beside as many ids, so the directory's bytes
    /// are [`TierBytes::directory`], not four per offset.
    pub directory: usize,
    /// Runs whose directory lists their distinct second ids (the sparse
    /// shape of the module docs). Not a tier, so not in [`TierSizes::labeled`].
    pub sparse_runs: usize,
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

/// Heap bytes of one positional index, per tier: the one accounting of an
/// index's memory ([`PositionalIndex::heap_bytes`]), exported per order as
/// `hbold_index_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierBytes {
    /// The flat tier's `(c, d)` pairs: 8 bytes per key the vector has room
    /// for.
    pub pairs: usize,
    /// The flat tier's directory: the run table and each run's offsets and
    /// (sparse runs) ids, each array with the two reference counts ahead of
    /// it.
    pub directory: usize,
    /// The delta tier's keys, 16 bytes each; the B-tree's node slack is not
    /// counted.
    pub delta: usize,
    /// The tombstone tier's keys, counted as `delta`'s.
    pub dead: usize,
}

impl TierBytes {
    /// Each tier's bytes under its metric label (`tier="pairs"`, …), in a
    /// fixed order.
    pub fn labeled(&self) -> [(&'static str, usize); 4] {
        [
            ("pairs", self.pairs),
            ("directory", self.directory),
            ("delta", self.delta),
            ("dead", self.dead),
        ]
    }
}

/// A single sorted index over one permutation of quad positions.
#[derive(Debug, Clone, Default)]
#[cfg_attr(test, derive(PartialEq))]
pub struct PositionalIndex {
    /// The flat tier's Z level: the last two components of its keys, in key
    /// order — see the module docs.
    pairs: Vec<Pair>,
    /// The flat tier's Y level: one entry per run of equal first
    /// components, ascending, each with its directory. Rebuilt whenever
    /// `pairs` is.
    runs: Vec<Run>,
    /// Incremental inserts not yet merged into `flat` (disjoint from it).
    delta: BTreeSet<Key>,
    /// Keys logically removed from `flat` (tombstones).
    dead: BTreeSet<Key>,
}

/// The flat keys sharing one first component and their directory: window
/// `i` holds the keys `(first, second(i), ..)` at flat positions
/// `offsets[i]..offsets[i + 1]`, and the run ends at the last offset.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    first: TermId,
    seconds: Seconds,
    offsets: Arc<[u32]>,
}

/// The second ids of a run's windows — the directory's two shapes.
#[derive(Debug, Clone, PartialEq)]
enum Seconds {
    /// Window `i` is second id `min + i`, every id of the span.
    Dense(TermId),
    /// Window `i` is the `i`-th distinct second id, ascending.
    Sparse(Arc<[TermId]>),
}

impl Run {
    /// The run of `first` whose distinct second ids `seconds` (ascending,
    /// non-empty) start at flat positions `starts` and whose keys end at
    /// `end`, its directory dense when its span of second ids is at most its
    /// key count and sparse otherwise. The one place that chooses the shape.
    fn new(first: TermId, seconds: &[TermId], starts: &[u32], end: u32) -> Run {
        let min = seconds[0];
        let span = (seconds[seconds.len() - 1] - min) as usize + 1;
        let mut offsets;
        let seconds = if span <= (end - starts[0]) as usize {
            offsets = Vec::with_capacity(span + 1);
            for (&id, &at) in seconds.iter().zip(starts) {
                // Every second id up to this one starts here.
                offsets.resize((id - min) as usize + 1, at);
            }
            Seconds::Dense(min)
        } else {
            offsets = Vec::with_capacity(starts.len() + 1);
            offsets.extend_from_slice(starts);
            Seconds::Sparse(Arc::from(seconds))
        };
        offsets.push(end);
        Run {
            first,
            seconds,
            offsets: Arc::from(offsets),
        }
    }

    fn start(&self) -> usize {
        self.offsets[0] as usize
    }

    fn end(&self) -> usize {
        self.offsets[self.offsets.len() - 1] as usize
    }

    /// What a walk needs to enter this run at its first window: the first
    /// and second component of its keys, the offsets from the window's end
    /// on, the later windows' second ids when sparse, and the window's
    /// length. Out of line, and by value, so the walk never lends itself out
    /// and stays in registers.
    #[cold]
    #[inline(never)]
    fn entry(&self) -> (TermId, TermId, &[u32], Option<&[TermId]>, u32) {
        (
            self.first,
            self.second(0),
            &self.offsets[1..],
            self.sparse_ids().map(|ids| &ids[1..]),
            self.offsets[1] - self.offsets[0],
        )
    }

    /// The second ids of a sparse directory's windows.
    fn sparse_ids(&self) -> Option<&[TermId]> {
        match &self.seconds {
            Seconds::Dense(_) => None,
            Seconds::Sparse(ids) => Some(ids),
        }
    }

    /// The second id of window `i`.
    #[inline]
    fn second(&self, i: usize) -> TermId {
        match &self.seconds {
            Seconds::Dense(min) => min + i as TermId,
            Seconds::Sparse(ids) => ids[i],
        }
    }

    /// The flat positions of the keys `(first, second, ..)` of this run:
    /// its window, or the empty range where its keys would sit.
    #[inline(always)]
    fn window(&self, second: TermId) -> (usize, usize) {
        let i = match &self.seconds {
            Seconds::Dense(min) => match second.checked_sub(*min) {
                Some(i) => i as usize,
                None => return (self.start(), self.start()),
            },
            Seconds::Sparse(ids) => return self.sparse_window(ids, second),
        };
        match self.offsets.get(i..i + 2) {
            Some(&[from, to]) => (from as usize, to as usize),
            _ => (self.end(), self.end()),
        }
    }

    /// [`Run::window`] in a sparse directory: a search among its ids.
    #[inline(never)]
    fn sparse_window(&self, ids: &[TermId], second: TermId) -> (usize, usize) {
        match ids.binary_search(&second) {
            Ok(i) => (self.offsets[i] as usize, self.offsets[i + 1] as usize),
            Err(i) => (self.offsets[i] as usize, self.offsets[i] as usize),
        }
    }

    /// The flat position of this run's first key above `key` (`upper`) or
    /// not below it; `key.0` is the run's first component.
    #[inline(always)]
    fn position(&self, pairs: &[Pair], key: Key, upper: bool) -> usize {
        seek(pairs, self.window(key.1), (key.2, key.3), upper)
    }

    /// Calls `f` with each of the run's full keys, in order: each window's
    /// pairs beside its first and second component.
    #[inline(always)]
    fn each_key(&self, pairs: &[Pair], mut f: impl FnMut(Key)) {
        for (i, window) in self.offsets.windows(2).enumerate() {
            let second = self.second(i);
            for &(c, d) in &pairs[window[0] as usize..window[1] as usize] {
                f((self.first, second, c, d));
            }
        }
    }

    /// Heap bytes of the run's arrays.
    fn heap_bytes(&self) -> usize {
        let ids = match &self.seconds {
            Seconds::Dense(_) => 0,
            Seconds::Sparse(ids) => arc_bytes(ids),
        };
        ids + arc_bytes(&self.offsets)
    }
}

/// The flat position of the first key of the window `from..to` whose last
/// two components lie above `pair` (`upper`) or not below it. Every key of
/// a window shares its first two components, so a pair at the bottom or the
/// top of the pair space lands on the window's edge without a search.
#[inline(always)]
fn seek(pairs: &[Pair], (from, to): (usize, usize), pair: Pair, upper: bool) -> usize {
    match (upper, pair) {
        (false, (0, 0)) => return from,
        (true, (TermId::MAX, TermId::MAX)) => return to,
        _ => {}
    }
    let bits = pair_bits(pair);
    from + before(&pairs[from..to], |&pair| match upper {
        true => pair_bits(pair) <= bits,
        false => pair_bits(pair) < bits,
    })
}

/// How many pairs of the window lead it while `below` holds, which it does
/// for a prefix of them: a linear read in a window of at most
/// [`SHORT_WINDOW`] pairs — a subject's or an object's keys, what a join
/// probe seeks in —, a binary search in a longer one.
#[inline(always)]
fn before(window: &[Pair], below: impl Fn(&Pair) -> bool) -> usize {
    match window.len() <= SHORT_WINDOW {
        true => window.iter().take_while(|pair| below(pair)).count(),
        false => window.partition_point(below),
    }
}

/// The longest window [`before`] reads linearly.
const SHORT_WINDOW: usize = 8;

/// The pairs of a window whose `key` equals `target`; the window is sorted
/// by `key`.
#[inline(always)]
fn equal<K: Ord + Copy>(window: &[Pair], target: K, key: impl Fn(&Pair) -> K) -> &[Pair] {
    let start = before(window, |pair| key(pair) < target);
    let rest = &window[start..];
    &rest[..before(rest, |pair| key(pair) <= target)]
}

/// The allocation behind an `Arc<[T]>` of `items`: the strong and weak
/// counts, then the items, padded to the counts' alignment.
fn arc_bytes<T>(items: &[T]) -> usize {
    let counts = Layout::new::<[usize; 2]>();
    let items = Layout::array::<T>(items.len()).expect("an allocated array's layout");
    let (layout, _) = counts.extend(items).expect("an allocated Arc's layout");
    layout.pad_to_align().size()
}

/// Builds a flat tier — pairs and directory — from strictly increasing full
/// keys, one at a time: the linear pass behind every write of the tier but
/// the counting passes of [`PositionalIndex::regrouped`], and the snapshot
/// decoder's GSPO order.
pub(crate) struct TierBuilder {
    pairs: Vec<Pair>,
    runs: Vec<Run>,
    /// The first and second component of the last key pushed.
    last: Option<(TermId, TermId)>,
    /// The open run's distinct second ids and their first positions.
    seconds: Vec<TermId>,
    starts: Vec<u32>,
}

impl TierBuilder {
    /// A builder with room for `keys` pairs.
    pub(crate) fn with_capacity(keys: usize) -> Self {
        TierBuilder {
            pairs: Vec::with_capacity(keys),
            runs: Vec::new(),
            last: None,
            seconds: Vec::new(),
            starts: Vec::new(),
        }
    }

    /// Appends `key`, which must be above every key pushed before it.
    #[inline]
    pub(crate) fn push(&mut self, (first, second, c, d): Key) {
        if self.last != Some((first, second)) {
            self.open_window(first, second);
        }
        self.pairs.push((c, d));
    }

    /// Starts the window of `(first, second)` at the next position, and a
    /// run when `first` is new.
    fn open_window(&mut self, first: TermId, second: TermId) {
        if let Some((open, _)) = self.last.filter(|&(open, _)| open != first) {
            self.close_run(open);
        }
        self.last = Some((first, second));
        self.seconds.push(second);
        self.starts.push(self.position());
    }

    /// The next key's flat position.
    fn position(&self) -> u32 {
        u32::try_from(self.pairs.len()).expect(POSITION_LIMIT)
    }

    fn close_run(&mut self, first: TermId) {
        let end = self.position();
        self.runs
            .push(Run::new(first, &self.seconds, &self.starts, end));
        self.seconds.clear();
        self.starts.clear();
    }

    /// A churn-free index of the pushed keys.
    pub(crate) fn finish(mut self) -> PositionalIndex {
        if let Some((first, _)) = self.last {
            self.close_run(first);
        }
        PositionalIndex {
            pairs: self.pairs,
            runs: self.runs,
            delta: BTreeSet::new(),
            dead: BTreeSet::new(),
        }
    }
}

impl PositionalIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        PositionalIndex::default()
    }

    /// Builds an index directly from an already-sorted, deduplicated key
    /// vector (the store builder's path), which it drops once the keys are
    /// pairs. Debug builds verify the precondition.
    pub(crate) fn from_sorted(keys: Vec<Key>) -> Self {
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys must be sorted+unique"
        );
        let mut tier = TierBuilder::with_capacity(keys.len());
        for key in keys {
            tier.push(key);
        }
        tier.finish()
    }

    /// A flat-only index of this one's keys `(a, b, c, d)` regrouped as
    /// `(a, d, b, c)` — GOSP from GSPO and GPOS from GOSP are both this
    /// rotation. Inside one run the keys sharing `d` already sit in `(b, c)`
    /// order, so the whole sort is one stable counting pass per run by `d`,
    /// writing each `(b, c)` straight to its position: linear, and the counts
    /// are the new directory. Two of its three passes read the pairs alone,
    /// which hold `d`.
    ///
    /// A run that will be dense (see the module docs) counts into one
    /// counter per id of its span; one that will be sparse counts into one
    /// per distinct id, found by a binary search, so a small run over a large
    /// dictionary allocates no counter per id. Only the store's builder
    /// calls this, on an index without churn.
    pub(crate) fn regrouped(&self) -> Self {
        debug_assert!(self.delta.is_empty() && self.dead.is_empty());
        let mut pairs = vec![(0, 0); self.pairs.len()];
        let mut runs = Vec::with_capacity(self.runs.len());
        let (mut counts, mut seconds, mut starts) = (Vec::<u32>::new(), Vec::new(), Vec::new());
        for run in &self.runs {
            let lasts = || self.pairs[run.start()..run.end()].iter().map(|&(_, d)| d);
            let (min, max) =
                lasts().fold((TermId::MAX, 0), |(min, max), d| (min.min(d), max.max(d)));
            let span = (max - min) as usize + 1;
            let dense = span <= run.end() - run.start();
            seconds.clear();
            if !dense {
                seconds.extend(lasts());
                seconds.sort_unstable();
                seconds.dedup();
            }
            let slot = |seconds: &[TermId], second: TermId| match dense {
                true => (second - min) as usize,
                false => seconds.partition_point(|&id| id < second),
            };
            counts.clear();
            counts.resize(if dense { span } else { seconds.len() }, 0);
            lasts().for_each(|d| counts[slot(&seconds, d)] += 1);
            // Each slot's first position: the run's start plus the keys of
            // all smaller ones.
            starts.clear();
            let mut next = run.start() as u32;
            for (i, count) in counts.iter_mut().enumerate() {
                if dense && *count > 0 {
                    seconds.push(min + i as TermId);
                }
                if *count > 0 {
                    starts.push(next);
                }
                (*count, next) = (next, next + *count);
            }
            run.each_key(&self.pairs, |(_, b, c, d)| {
                let at = &mut counts[slot(&seconds, d)];
                pairs[*at as usize] = (b, c);
                *at += 1;
            });
            runs.push(Run::new(run.first, &seconds, &starts, next));
        }
        PositionalIndex {
            pairs,
            runs,
            delta: BTreeSet::new(),
            dead: BTreeSet::new(),
        }
    }

    /// Number of keys in the index.
    pub fn len(&self) -> usize {
        self.pairs.len() + self.delta.len() - self.dead.len()
    }

    /// Returns `true` if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current per-tier sizes.
    pub fn tier_sizes(&self) -> TierSizes {
        TierSizes {
            flat: self.pairs.len(),
            delta: self.delta.len(),
            dead: self.dead.len(),
            directory: self.runs.iter().map(|run| run.offsets.len()).sum(),
            sparse_runs: self
                .runs
                .iter()
                .filter(|run| matches!(run.seconds, Seconds::Sparse(_)))
                .count(),
        }
    }

    /// The heap bytes of each tier — exact for the flat tier's pairs and
    /// directory, the keys alone for the churn tiers (see [`TierBytes`]).
    pub fn heap_bytes(&self) -> TierBytes {
        TierBytes {
            pairs: self.pairs.capacity() * size_of::<Pair>(),
            directory: self.runs.capacity() * size_of::<Run>()
                + self.runs.iter().map(Run::heap_bytes).sum::<usize>(),
            delta: self.delta.len() * size_of::<Key>(),
            dead: self.dead.len() * size_of::<Key>(),
        }
    }

    /// The flat tier's full keys, in order.
    fn flat_keys(&self) -> Vec<Key> {
        let mut keys = Vec::with_capacity(self.pairs.len());
        for run in &self.runs {
            run.each_key(&self.pairs, |key| keys.push(key));
        }
        keys
    }

    /// Verifies the tier invariants of the module docs — `flat` sorted and
    /// unique, its pairs and directory those the builder makes of its full
    /// keys, `delta` disjoint from `flat`, `dead ⊆ flat` — in `O(n)`, naming
    /// the first one that fails. For tests and debugging; nothing on a read
    /// or write path calls it.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut at = 0;
        for run in &self.runs {
            if run.start() != at || run.offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("run {} does not continue at {at}", run.first));
            }
            at = run.end();
        }
        if at != self.pairs.len() {
            return Err(format!(
                "the runs end at {at} of {} pairs",
                self.pairs.len()
            ));
        }
        let keys = self.flat_keys();
        if let Some(w) = keys.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!("flat is not sorted and unique at {:?}", w));
        }
        let rebuilt = PositionalIndex::from_sorted(keys);
        if rebuilt.runs != self.runs || rebuilt.pairs != self.pairs {
            return Err("the pairs and directory are not a rebuild of their keys".into());
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
    /// batch, straight into the new pairs and directory: `O(n + m log m)`
    /// for an index of `n` keys and a batch of `m`. Right for bulk loads and
    /// for folding accumulated churn, deliberately not for one small change
    /// (use [`PositionalIndex::insert`]).
    pub fn insert_batch(&mut self, keys: impl IntoIterator<Item = Key>) {
        let mut incoming: Vec<Key> = keys.into_iter().collect();
        if incoming.is_empty() && self.delta.is_empty() && self.dead.is_empty() {
            return;
        }
        incoming.sort_unstable();
        incoming.dedup();

        let mut tier = TierBuilder::with_capacity(self.len() + incoming.len());
        let mut incoming = incoming.into_iter().peekable();
        self.scan_all().for_each(|key| {
            while let Some(smaller) = incoming.next_if(|k| *k < key) {
                tier.push(smaller);
            }
            // A batch key already present is dropped, not duplicated.
            incoming.next_if_eq(&key);
            tier.push(key);
        });
        incoming.for_each(|key| tier.push(key));
        *self = tier.finish();
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
            Err(i) => Err(self.runs.get(i).map_or(self.pairs.len(), Run::start)),
        }
    }

    /// The flat position of the first key above `key` (`upper`) or not
    /// below it.
    fn position(&self, key: Key, upper: bool) -> usize {
        match self.run(key.0) {
            Ok(run) => run.position(&self.pairs, key, upper),
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
            // Both ends in one window (a bound second component): one lookup.
            Ok(run) if lo.1 == hi.1 => {
                let window = run.window(lo.1);
                let start = seek(&self.pairs, window, (lo.2, lo.3), false);
                (
                    start,
                    seek(&self.pairs, window, (hi.2, hi.3), true).max(start),
                )
            }
            Ok(run) => {
                let start = run.position(&self.pairs, lo, false);
                (start, run.position(&self.pairs, hi, true).max(start))
            }
            Err(at) => (at, at),
        }
    }

    /// The merged scan of `[lo, hi]`: a walk of the flat tier's range and
    /// the churn inside it. Only the graph cursors (`first_in_range`) read
    /// a range that is not a pattern's; a pattern's is a [`Prepared`] probe.
    fn scan_range(&self, lo: Key, hi: Key) -> PrefixScan<'_> {
        let (start, end) = self.flat_bounds(lo, hi);
        let bounds = (Bound::Included(lo), Bound::Included(hi));
        PrefixScan::new(
            Walk::new(self, start, end),
            churn(&self.delta, bounds),
            churn(&self.dead, bounds),
        )
    }

    /// The probes of the keys whose first component is `first`, its run
    /// looked up once (see [`Prepared`]).
    pub(crate) fn prepare(&self, first: TermId) -> Prepared<'_> {
        let max = TermId::MAX;
        let keys = (first, 0, 0, 0)..=(first, max, max, max);
        let churn = |tier: &BTreeSet<Key>| tier.range(keys.clone()).next().is_some();
        Prepared {
            index: self,
            first,
            run: self.run(first).ok(),
            churn: churn(&self.delta) || churn(&self.dead),
        }
    }

    /// Scans keys whose first component equals `first`, in ascending order.
    pub fn scan_prefix1(&self, first: TermId) -> PrefixScan<'_> {
        self.prepare(first).probe(0, [0; 3])
    }

    /// Scans keys whose first two components equal `(first, second)`, in
    /// ascending order.
    pub fn scan_prefix2(&self, first: TermId, second: TermId) -> PrefixScan<'_> {
        self.prepare(first).probe(1, [second, 0, 0])
    }

    /// Scans keys whose first three components equal
    /// `(first, second, third)`, in ascending order.
    pub fn scan_prefix3(&self, first: TermId, second: TermId, third: TermId) -> PrefixScan<'_> {
        self.prepare(first).probe(2, [second, third, 0])
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
        self.prepare(first).probe(3, [second, third, fourth])
    }

    /// Scans every key in ascending order.
    pub fn scan_all(&self) -> PrefixScan<'_> {
        PrefixScan::new(
            Walk::new(self, 0, self.pairs.len()),
            self.delta.range(..),
            self.dead.range(..),
        )
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

    /// Smallest live key in `[lo, hi]`: the head of the merged scan — with
    /// no churn in the range, of a bare walk.
    fn first_in_range(&self, lo: Key, hi: Key) -> Option<Key> {
        self.scan_range(lo, hi).next()
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

/// The keys of a churn tier in `bounds`; an empty tier — the common case —
/// is not descended at all.
fn churn(tier: &BTreeSet<Key>, bounds: (Bound<Key>, Bound<Key>)) -> Range<'_, Key> {
    match tier.is_empty() {
        true => Range::default(),
        false => tier.range(bounds),
    }
}

/// The pair as one integer whose order is the pair's: one wide comparison
/// per step of a search instead of up to two narrow ones.
#[inline]
fn pair_bits((c, d): Pair) -> u64 {
    ((c as u64) << 32) | d as u64
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

/// The probes of one first component's keys — on the graph-first orders,
/// of one graph — with its run looked up once ([`PositionalIndex::prepare`]):
/// a probe with the next components bound is then a jump in the run's
/// directory, plus a seek in the window for a third bound component, and
/// never searches the runs again.
#[derive(Clone, Copy)]
pub(crate) struct Prepared<'a> {
    index: &'a PositionalIndex,
    first: TermId,
    /// `None` when no flat key has this first component.
    run: Option<&'a Run>,
    /// Whether a churn tier holds a key with this first component: only
    /// then does a probe look at the churn tiers.
    churn: bool,
}

impl<'a> Prepared<'a> {
    /// The keys `(first, key[0], .., key[bound - 1], ..)`, ascending: the
    /// first `bound` (0–3) of `key` are bound, the rest is ignored. With no
    /// churn in that range — always, on a store without churn — it reads
    /// the flat tier alone: one window, or a slice of one, when `bound` is 1
    /// or more ([`PrefixScan::window`]), else a walk of the run's windows.
    #[inline(always)]
    pub(crate) fn probe(&self, bound: usize, key: [TermId; 3]) -> PrefixScan<'a> {
        let Some(run) = self.run.filter(|_| !self.churn) else {
            let [a, b, c] = key;
            return self.merged(bound, a, b, c);
        };
        if bound == 0 {
            return PrefixScan(Walk::run(self.index, run).into_scan());
        }
        PrefixScan(Scan::Window(Window {
            first: self.first,
            second: key[0],
            pairs: self.pairs(run, bound, key).iter(),
        }))
    }

    /// The pairs of `run` a probe with a bound second component reads: its
    /// window, or the slice of it holding the bound third (and fourth)
    /// component.
    #[inline(always)]
    fn pairs(&self, run: &Run, bound: usize, key: [TermId; 3]) -> &'a [Pair] {
        let (from, to) = run.window(key[0]);
        let window = &self.index.pairs[from..to];
        match bound {
            1 => window,
            2 => equal(window, key[1], |&(c, _)| c),
            _ => equal(window, pair_bits((key[1], key[2])), |&pair| pair_bits(pair)),
        }
    }

    /// A probe of a graph without flat keys or with churn: the merged scan
    /// of the flat tier's range and the churn tiers' — a bare walk when no
    /// churn key lies in the range.
    #[inline(never)]
    fn merged(&self, bound: usize, a: TermId, b: TermId, c: TermId) -> PrefixScan<'a> {
        let (first, max) = (self.first, TermId::MAX);
        let (lo, hi) = match bound {
            0 => ((first, 0, 0, 0), (first, max, max, max)),
            1 => ((first, a, 0, 0), (first, a, max, max)),
            2 => ((first, a, b, 0), (first, a, b, max)),
            _ => ((first, a, b, c), (first, a, b, c)),
        };
        let flat = match (self.run, bound) {
            (None, _) => Walk::window((first, a), &[]),
            (Some(run), 0) => Walk::run(self.index, run),
            (Some(run), _) => Walk::window((first, a), self.pairs(run, bound, [a, b, c])),
        };
        let bounds = (Bound::Included(lo), Bound::Included(hi));
        PrefixScan::new(
            flat,
            churn(&self.index.delta, bounds),
            churn(&self.index.dead, bounds),
        )
    }
}

/// Ordered scan over a prefix range, yielding keys by value. With no churn
/// inside the range — always, on a store without churn — it reads the flat
/// tier's pairs and nothing else: inside one window (the second component
/// bound) a bare slice iterator beside a constant, across windows a walk of
/// the directory in step with the pairs. Otherwise it is a (boxed) three-way
/// `Merge`.
pub struct PrefixScan<'a>(Scan<'a>);

enum Scan<'a> {
    Window(Window<'a>),
    /// Boxed: carried inline, the walk's state makes every scan the size of
    /// a walk, and the window probes of a join measurably slower.
    Walk(Box<Walk<'a>>),
    Merged(Box<Merge<'a>>),
}

/// The pairs of one window beside the first and second component their
/// keys share.
struct Window<'a> {
    first: TermId,
    second: TermId,
    pairs: std::slice::Iter<'a, Pair>,
}

impl Window<'_> {
    #[inline]
    fn next(&mut self) -> Option<Key> {
        let &(c, d) = self.pairs.next()?;
        Some((self.first, self.second, c, d))
    }

    fn fold<B>(self, acc: B, mut f: impl FnMut(B, Key) -> B) -> B {
        let (first, second) = (self.first, self.second);
        self.pairs
            .fold(acc, |acc, &(c, d)| f(acc, (first, second, c, d)))
    }
}

/// A walk over a range of an index's flat tier: the range's pairs, and the
/// directory read in step with them — the current window's first and second
/// component and how many of its pairs are left, the offsets and ids of the
/// windows after it.
struct Walk<'a> {
    first: TermId,
    second: TermId,
    /// Pairs of the current window not yet returned.
    left: u32,
    /// The range's pairs not yet returned.
    pairs: std::slice::Iter<'a, Pair>,
    /// The current run's offsets from the current window's end on.
    ends: &'a [u32],
    /// The second ids of the current run's later windows when its directory
    /// is sparse; `None` when it is dense (a window's id is the last one's
    /// plus one).
    ids: Option<&'a [TermId]>,
    /// The runs after the current one.
    runs: &'a [Run],
}

impl<'a> Walk<'a> {
    /// The pairs of one window, whose keys all begin with `prefix`: nothing
    /// to walk.
    fn window(prefix: (TermId, TermId), pairs: &'a [Pair]) -> Self {
        Walk {
            first: prefix.0,
            second: prefix.1,
            left: pairs.len() as u32,
            pairs: pairs.iter(),
            ends: &[],
            ids: None,
            runs: &[],
        }
    }

    /// Every key of `run`, a run of `index`.
    fn run(index: &'a PositionalIndex, run: &'a Run) -> Self {
        let (first, second, ends, ids, left) = run.entry();
        Walk {
            first,
            second,
            left,
            pairs: index.pairs[run.start()..run.end()].iter(),
            ends,
            ids,
            runs: &[],
        }
    }

    /// The flat positions `start..end` of `index`, across windows and runs.
    fn new(index: &'a PositionalIndex, start: usize, end: usize) -> Self {
        if start >= end {
            return Walk::window((0, 0), &[]);
        }
        let run = index.runs.partition_point(|run| run.end() <= start);
        let directory = &index.runs[run];
        let i = directory
            .offsets
            .partition_point(|&at| at as usize <= start)
            - 1;
        Walk {
            first: directory.first,
            second: directory.second(i),
            left: directory.offsets[i + 1] - start as u32,
            pairs: index.pairs[start..end].iter(),
            ends: &directory.offsets[i + 1..],
            ids: directory.sparse_ids().map(|ids| &ids[i + 1..]),
            runs: &index.runs[run + 1..],
        }
    }

    /// A scan of the walk: a bare [`Window`] when its range lies in the
    /// current window.
    fn into_scan(self) -> Scan<'a> {
        match self.pairs.len() <= self.left as usize {
            true => Scan::Window(Window {
                first: self.first,
                second: self.second,
                pairs: self.pairs,
            }),
            false => Scan::Walk(Box::new(self)),
        }
    }

    #[inline]
    fn next(&mut self) -> Option<Key> {
        let &(c, d) = self.pairs.next()?;
        if self.left == 0 {
            self.cross();
        }
        self.left -= 1;
        Some((self.first, self.second, c, d))
    }

    /// [`Walk::step`] out of line, so that a scan's `next` stays small enough
    /// to inline into the loop that drives it.
    #[inline(never)]
    fn cross(&mut self) {
        self.step();
    }

    /// Moves to the next window that holds a key: over the empty windows of
    /// a dense directory, and into the next run at the end of this one. Only
    /// called while pairs are left, so there is one.
    #[inline(always)]
    fn step(&mut self) {
        loop {
            self.left = match *self.ends {
                [end, next, ..] => {
                    self.ends = &self.ends[1..];
                    self.second = match &mut self.ids {
                        None => self.second + 1,
                        Some(ids) => {
                            let id = ids[0];
                            *ids = &ids[1..];
                            id
                        }
                    };
                    next - end
                }
                _ => {
                    let (run, left);
                    (run, self.runs) = self.runs.split_first().expect("the range lies in runs");
                    (self.first, self.second, self.ends, self.ids, left) = run.entry();
                    left
                }
            };
            if self.left > 0 {
                return;
            }
        }
    }

    /// Keys left.
    fn len(&self) -> usize {
        self.pairs.len()
    }

    /// The rest of the walk, window by window: a slice fold each.
    fn fold<B>(mut self, mut acc: B, mut f: impl FnMut(B, Key) -> B) -> B {
        loop {
            let rest = self.pairs.as_slice();
            let (window, rest) = rest.split_at((self.left as usize).min(rest.len()));
            let (first, second) = (self.first, self.second);
            acc = window
                .iter()
                .fold(acc, |acc, &(c, d)| f(acc, (first, second, c, d)));
            if rest.is_empty() {
                return acc;
            }
            self.pairs = rest.iter();
            self.step();
        }
    }
}

/// A three-way merge of the flat tier's range, the delta tier's B-tree
/// range and the tombstone tier's B-tree range. Every tombstone in the range
/// shadows exactly one flat key of the range (`dead ⊆ flat`), so the
/// tombstones are consumed in step with the flat keys they hide — one sorted
/// stream, no lookup per key.
struct Merge<'a> {
    flat: Walk<'a>,
    flat_next: Option<Key>,
    delta: Range<'a, Key>,
    delta_next: Option<&'a Key>,
    dead: Range<'a, Key>,
    dead_next: Option<&'a Key>,
}

impl<'a> PrefixScan<'a> {
    /// The scan's keys when they lie in one window of the flat tier and no
    /// churn reaches them — every probe with a bound second component on a
    /// store without churn: the window's second component beside its pairs
    /// `(third, fourth)`, the first component being the probe's.
    #[inline]
    pub fn window(&self) -> Option<(TermId, &'a [(TermId, TermId)])> {
        match &self.0 {
            Scan::Window(window) => Some((window.second, window.pairs.as_slice())),
            _ => None,
        }
    }

    /// Whether churn reaches into the scan's range, so that it merges the
    /// flat tier with the churn tiers key by key.
    pub fn merges_churn(&self) -> bool {
        matches!(self.0, Scan::Merged(_))
    }

    fn new(flat: Walk<'a>, mut delta: Range<'a, Key>, mut dead: Range<'a, Key>) -> Self {
        let delta_next = delta.next();
        let dead_next = dead.next();
        if delta_next.is_none() && dead_next.is_none() {
            return PrefixScan(flat.into_scan());
        }
        let mut merge = Merge {
            flat,
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

impl Merge<'_> {
    /// The next flat key that is not tombstoned.
    fn pull(&mut self) -> Option<Key> {
        loop {
            let key = self.flat.next()?;
            match self.dead_next {
                None => return Some(key),
                // The pending tombstone is never behind the flat cursor
                // (`dead ⊆ flat`, both ascending over the same range), so
                // it names either this key or a later one.
                Some(dead) if *dead != key => return Some(key),
                Some(_) => self.dead_next = self.dead.next(),
            }
        }
    }

    fn next(&mut self) -> Option<Key> {
        match (self.flat_next, self.delta_next) {
            (None, None) => None,
            (Some(f), None) => {
                self.flat_next = self.pull();
                Some(f)
            }
            (None, Some(&d)) => {
                self.delta_next = self.delta.next();
                Some(d)
            }
            (Some(f), Some(&d)) => {
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

impl Iterator for PrefixScan<'_> {
    type Item = Key;

    #[inline]
    fn next(&mut self) -> Option<Key> {
        match &mut self.0 {
            Scan::Window(window) => window.next(),
            Scan::Walk(walk) => walk.next(),
            Scan::Merged(merge) => merge.next(),
        }
    }

    fn fold<B, F: FnMut(B, Key) -> B>(self, init: B, mut f: F) -> B {
        match self.0 {
            Scan::Window(window) => window.fold(init, f),
            Scan::Walk(walk) => walk.fold(init, f),
            Scan::Merged(mut merge) => {
                let mut acc = init;
                while let Some(key) = merge.next() {
                    acc = f(acc, key);
                }
                acc
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            Scan::Window(window) => window.pairs.size_hint(),
            Scan::Walk(walk) => (walk.len(), Some(walk.len())),
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
        let all: Vec<Key> = idx.scan_all().collect();
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
        let ones: Vec<Key> = idx.scan_prefix2(1, 1).collect();
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
        assert!(idx.scan_all().all(|k| k != (1, 1, 2, 0)));
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
        let all: Vec<Key> = idx.scan_all().collect();
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
        // Every other run also ends on a far second id, which makes its
        // directory sparse: its second ids are searched, not indexed.
        let mut keys = Vec::new();
        for first in 0..=40u32 {
            keys.extend((0..first).map(|third| (2 * first, 7, third, 0)));
            if first % 2 == 1 {
                keys.push((2 * first, 9_000, 0, 0));
            }
        }
        let idx = PositionalIndex::from_sorted(keys.clone());
        assert!(idx.tier_sizes().sparse_runs > 0);
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
        let flat = idx.flat_keys();
        let reference = |lo: Key, hi: Key| {
            let start = flat.partition_point(|k| *k < lo);
            (start, flat.partition_point(|k| *k <= hi).max(start))
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
                            let scanned: Vec<Key> = idx.scan_range(lo, hi).collect();
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
        let dense =
            |idx: &PositionalIndex, g| matches!(idx.run(g).unwrap().seconds, Seconds::Dense(_));
        assert!(dense(&restored, 3) && !dense(&restored, 5) && dense(&restored, 9));
        // Graph 3 spans 10 second ids (11 offsets), graph 5 lists its 3
        // (4 offsets), graph 9 spans one (2 offsets).
        assert_eq!(restored.tier_sizes().directory, 17);
        assert_eq!(restored.tier_sizes().sparse_runs, 1);
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

        // The next fold takes graph 4 into a run of its own — sparse, its
        // span of 3 second ids being wider than its 2 keys (3 offsets) —
        // and fills graph 3's window of the hole.
        idx.insert_batch([]);
        assert!(!dense(&idx, 4) && dense(&idx, 3));
        assert_eq!(idx.tier_sizes().directory, 20);
        assert_eq!(idx.tier_sizes().sparse_runs, 2);
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
    fn regrouping_sorts_dense_and_sparse_runs_alike() {
        // The store builder's chain, GSPO → GOSP → GPOS, over a dense run
        // (graph 1), a run whose objects and predicates span far more ids
        // than it has keys (graph 2: sparse, counted by rank) and a one-key
        // run (graph 3).
        let mut keys: Vec<Key> = (0..40).map(|i| (1, i / 4, i % 4, i * 3 % 8)).collect();
        keys.extend([(2, 5, 0, 9_999), (2, 6, 9_999, 0), (3, 1, 2, 3)]);
        let gspo = PositionalIndex::from_sorted(keys.clone());
        let gosp = gspo.regrouped();
        let gpos = gosp.regrouped();
        let sorted = |permute: fn(Key) -> Key| {
            let mut permuted: Vec<Key> = keys.iter().map(|&k| permute(k)).collect();
            permuted.sort_unstable();
            permuted
        };
        assert_eq!(gosp.flat_keys(), sorted(|(g, s, p, o)| (g, o, s, p)));
        assert_eq!(gpos.flat_keys(), sorted(|(g, s, p, o)| (g, p, o, s)));
        for idx in [&gosp, &gpos] {
            idx.check_invariants().unwrap();
            let dense = |g| matches!(idx.run(g).unwrap().seconds, Seconds::Dense(_));
            assert!(dense(1) && !dense(2) && dense(3));
        }
        assert_eq!(PositionalIndex::new().regrouped(), PositionalIndex::new());
    }

    #[test]
    fn from_sorted_round_trips() {
        let keys = vec![(0, 0, 1, 0), (0, 1, 0, 0), (5, 5, 5, 5)];
        let idx = PositionalIndex::from_sorted(keys.clone());
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.scan_all().collect::<Vec<_>>(), keys);
        assert!(idx.contains(&(0, 1, 0, 0)));
    }
}
