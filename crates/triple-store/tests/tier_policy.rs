//! The store's tier policy, pinned without a clock: a change costs what the
//! change weighs, not what the store weighs.
//!
//! What "O(change)" means is observable in the tier sizes and in the two
//! fold counters: a small update leaves every flat tier alone, the merge
//! happens on exactly the mutation that crosses the threshold, recovery
//! replays a log tail without merging once, and over a long run of commits
//! the keys rewritten by merges stay within a constant factor of the keys
//! changed.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use hbold_rdf_model::vocab::{foaf, rdf};
use hbold_rdf_model::{Iri, Quad, Term, Triple};
use hbold_triple_store::persist::fold_counts;
use hbold_triple_store::{SharedStore, TripleStore};

/// The store's fold ratio (`FOLD_RATIO` in `store.rs`, private there): at
/// most one churn key per this many flat keys.
const FOLD_RATIO: usize = 16;

/// The fold counters are process-global and every test here folds, so the
/// tests of this binary run one at a time.
fn counters_are_mine() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn t(n: usize) -> Triple {
    Triple::new(
        Iri::new(format!("http://e.org/{n}")).unwrap(),
        rdf::type_(),
        foaf::person(),
    )
}

fn quads(ns: impl IntoIterator<Item = usize>) -> Vec<Quad> {
    ns.into_iter().map(|n| Quad::from(t(n))).collect()
}

/// The one `(flat, delta, dead)` the three orders share; panics if they
/// differ. (Each order's directory over its flat tier is its own.)
fn tiers(store: &TripleStore) -> (usize, usize, usize) {
    let [gspo, gpos, gosp] = store
        .index_tier_sizes()
        .map(|(_, s)| (s.flat, s.delta, s.dead));
    assert!(
        gpos == gspo && gosp == gspo,
        "orders disagree: gspo {gspo:?}, gpos {gpos:?}, gosp {gosp:?}"
    );
    gspo
}

/// Requires the three orders to hold the same quads. Every quad of these
/// stores is `<n> rdf:type foaf:Person` in the default graph, so one scan per
/// order reads all of it: GSPO fully open, GPOS under the one predicate,
/// GOSP under the one object.
fn orders_hold_the_same_quads(store: &TripleStore) {
    let id = |term: Term| store.id_of(&term).expect("interned");
    let (p, o) = (id(rdf::type_().into()), id(foaf::person().into()));
    let scan = |p, o| -> BTreeSet<_> { store.matching_encoded_iter(None, p, o).collect() };
    let gspo = scan(None, None);
    assert_eq!(gspo.len(), store.len());
    assert!(
        scan(Some(p), None) == gspo && scan(None, Some(o)) == gspo,
        "the orders hold different quad sets"
    );
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbold-tier-policy-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn nquads_fingerprint(store: &TripleStore) -> BTreeSet<String> {
    store.iter_quads().map(|q| q.to_nquads()).collect()
}

/// A store built one `insert` at a time — or collected from an iterator —
/// used to stay in B-trees for ever (`flat = 0`, `delta = N`). Under the
/// policy it folds as it grows, so at least 15/16 of it scans as a slice.
#[test]
fn a_store_built_by_single_inserts_reaches_the_flat_tier() {
    let _guard = counters_are_mine();
    const N: usize = 10_000;
    let mut inserted = TripleStore::new();
    for n in 0..N {
        assert!(inserted.insert(&t(n)));
    }
    let collected: TripleStore = (0..N).map(t).collect();
    for store in [&inserted, &collected] {
        assert_eq!(store.len(), N);
        let (flat, delta, dead) = tiers(store);
        assert_eq!(flat + delta - dead, N);
        assert!(
            flat * FOLD_RATIO >= N * (FOLD_RATIO - 1),
            "only {flat} of {N} keys are in the flat tier ({delta} in delta)"
        );
        orders_hold_the_same_quads(store);
    }
}

/// Removes fold too: a delete-only workload keeps its tombstones under the
/// threshold instead of growing them without bound.
#[test]
fn tombstones_stay_under_the_threshold_without_any_insert() {
    let _guard = counters_are_mine();
    const N: usize = 8_000;
    let mut store = TripleStore::new();
    let triples: Vec<Triple> = (0..N).map(t).collect();
    store.insert_batch(&triples);
    assert_eq!(tiers(&store), (N, 0, 0));
    let mut folds = 0;
    for (removed, triple) in triples.iter().step_by(2).enumerate() {
        let flat_before = tiers(&store).0;
        assert!(store.remove(triple));
        let (flat, delta, dead) = tiers(&store);
        assert_eq!(delta, 0);
        assert_eq!(flat - dead, N - removed - 1);
        assert!(
            dead <= flat / FOLD_RATIO,
            "{dead} tombstones over a flat tier of {flat}"
        );
        if flat != flat_before {
            folds += 1;
            orders_hold_the_same_quads(&store);
        }
    }
    assert!(folds >= 3, "only {folds} folds");
    assert_eq!(store.len(), N / 2);
}

/// (a) A two-quad update on a bulk-loaded store touches no flat tier, and the
/// merge happens on exactly the update that would carry the churn past
/// `flat / FOLD_RATIO` — leaving nothing behind in the churn tiers.
#[test]
fn small_updates_leave_the_flat_tiers_alone_until_the_crossing_one() {
    let _guard = counters_are_mine();
    const N: usize = 6_000;
    let shared = SharedStore::new();
    let triples: Vec<Triple> = (0..N).map(t).collect();
    assert_eq!(shared.bulk_load(&triples), N);
    assert_eq!(tiers(&shared.snapshot()), (N, 0, 0));

    let limit = N / FOLD_RATIO;
    let (folds_before, _) = fold_counts();
    let mut next = N;
    let mut update = || {
        let inserts = quads([next, next + 1]);
        next += 2;
        let delta = shared.apply_update(|_| (Vec::new(), inserts));
        assert_eq!(delta.unwrap(), (0, 2));
        tiers(&shared.snapshot())
    };
    assert_eq!(update(), (N, 2, 0));
    for k in 2..=limit / 2 {
        assert_eq!(update(), (N, 2 * k, 0));
    }
    assert_eq!(fold_counts().0, folds_before, "a fold before the threshold");

    // `limit` keys of churn are allowed; two more are not.
    let merged = N + limit / 2 * 2 + 2;
    assert_eq!(update(), (merged, 0, 0));
    assert_eq!(fold_counts().0, folds_before + 1);
    orders_hold_the_same_quads(&shared.snapshot());
    assert_eq!(update(), (merged, 2, 0));
}

/// (b) Recovery is snapshot load plus O(record) per log record: reopening a
/// directory with a snapshot and a 100-record tail merges nothing, leaves
/// the tail in the churn tiers, and serves exactly what an in-memory store
/// that saw the same commits serves.
#[test]
fn reopening_a_snapshot_plus_a_log_tail_performs_no_fold() {
    let _guard = counters_are_mine();
    const N: usize = 8_000;
    const TAIL: usize = 100;
    let dir = temp_dir("reopen");
    let triples: Vec<Triple> = (0..N).map(t).collect();
    let in_memory = SharedStore::new();
    {
        let (durable, _) = SharedStore::open(&dir).unwrap();
        for store in [&durable, &in_memory] {
            store.bulk_load(&triples);
        }
        // The load is committed as snapshot generation 1, over an empty log.
        assert_eq!(durable.wal_bytes(), Some(0));
        // Each record inserts two fresh quads and removes one loaded one.
        for record in 0..TAIL {
            for store in [&durable, &in_memory] {
                let delta = store.apply_update(|_| {
                    (quads([record]), quads([N + 2 * record, N + 2 * record + 1]))
                });
                assert_eq!(delta.unwrap(), (1, 2));
            }
        }
    }

    let before = fold_counts();
    let (reopened, report) = SharedStore::open(&dir).unwrap();
    assert_eq!(fold_counts(), before, "recovery merged a flat tier");
    assert_eq!(report.snapshot_generation, Some(1));
    assert_eq!(report.wal_ops_replayed, TAIL);
    let recovered = reopened.snapshot();
    assert_eq!(tiers(&recovered), (N, 2 * TAIL, TAIL));
    assert_eq!(
        nquads_fingerprint(&recovered),
        nquads_fingerprint(&in_memory.snapshot())
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// (c) The amortised bound itself: over 10 000 single-quad commits on a store
/// ten times that size, merges rewrite at most `FOLD_RATIO + 1` keys (per
/// index order) for every key the commits changed.
#[test]
fn folds_copy_a_bounded_number_of_keys_per_key_changed() {
    let _guard = counters_are_mine();
    const COMMITS: usize = 10_000;
    const N: usize = 10 * COMMITS;
    let shared = SharedStore::new();
    let triples: Vec<Triple> = (0..N).map(t).collect();
    assert_eq!(shared.bulk_load(&triples), N);
    drop(triples);

    let (folds_before, keys_before) = fold_counts();
    for n in 0..COMMITS {
        // Two inserts for every remove, so both churn tiers fill.
        let delta = if n % 3 == 2 {
            (quads([n]), Vec::new())
        } else {
            (Vec::new(), quads([N + n]))
        };
        let (removed, inserted) = shared.apply_update(|_| delta).unwrap();
        assert_eq!(removed + inserted, 1);
    }
    let (folds, keys) = fold_counts();
    let (folds, copied) = (folds - folds_before, (keys - keys_before) as usize);
    assert!(folds >= 1, "10 % churn must have crossed the threshold");
    assert!(
        copied <= (FOLD_RATIO + 1) * COMMITS,
        "{folds} folds rewrote {copied} keys for {COMMITS} changed"
    );
    let snapshot = shared.snapshot();
    let (flat, delta, dead) = tiers(&snapshot);
    assert!(delta + dead <= flat / FOLD_RATIO);
    orders_hold_the_same_quads(&snapshot);
}
