//! Internals-focused tests: dictionary encode/decode round-trips, agreement
//! of the three index orderings on every pattern shape, and the storage tiers
//! (flat / delta / tombstones) against a plain set model.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hbold_rdf_model::{BlankNode, Iri, Literal, Term, Triple, TriplePattern};
use hbold_triple_store::index::PositionalIndex;
use hbold_triple_store::{EncodedTriple, TermId, TierSizes, TripleStore, DEFAULT_GRAPH};

/// A deterministic zoo of terms covering every [`Term`] variant, including
/// pairs that are textually close but must intern separately.
fn term_zoo() -> Vec<Term> {
    let mut terms: Vec<Term> = Vec::new();
    for i in 0..20 {
        terms.push(
            Iri::new(format!("http://zoo.example/resource/{i}"))
                .unwrap()
                .into(),
        );
    }
    terms.push(Iri::new("http://zoo.example/resource").unwrap().into());
    terms.push(Iri::new("http://zoo.example/resource/").unwrap().into());
    for i in 0..10 {
        terms.push(BlankNode::numbered(i).into());
    }
    terms.push(BlankNode::new("b0").into());
    terms.push(Literal::string("5").into());
    terms.push(Literal::integer(5).into());
    terms.push(Literal::double(5.0).into());
    terms.push(Literal::string("").into());
    terms.push(Literal::lang_string("chat", "fr").into());
    terms.push(Literal::lang_string("chat", "en").into());
    terms.push(Literal::string("chat").into());
    terms.push(Literal::boolean(true).into());
    terms.push(Literal::string("with \"quotes\" and \\slashes\\ and\nnewlines").into());
    terms
}

#[test]
fn dictionary_round_trips_every_term_variant() {
    let mut store = TripleStore::new();
    let p = Iri::new("http://zoo.example/p").unwrap();
    let subject = Iri::new("http://zoo.example/s").unwrap();
    let zoo = term_zoo();
    for term in &zoo {
        store.insert(&Triple::new(subject.clone(), p.clone(), term.clone()));
    }

    // Every term decodes back to itself through its id.
    for term in &zoo {
        let id = store.id_of(term).expect("term was interned on insert");
        assert_eq!(store.term(id), term, "id {id} does not decode back");
        // And the id is stable: re-resolving gives the same id.
        assert_eq!(store.id_of(term), Some(id));
    }

    // Ids are dense: every id below term_count resolves to a distinct term.
    let mut seen = std::collections::BTreeSet::new();
    for id in 0..store.term_count() as TermId {
        let term = store.term(id).clone();
        assert!(
            seen.insert(term.to_ntriples()),
            "id {id} duplicates an earlier term"
        );
    }

    // Near-miss terms interned separately.
    let ids = [
        store.id_of(&Literal::string("5").into()),
        store.id_of(&Literal::integer(5).into()),
        store.id_of(&Literal::string("chat").into()),
        store.id_of(&Literal::lang_string("chat", "fr").into()),
        store.id_of(&Literal::lang_string("chat", "en").into()),
    ];
    let distinct: std::collections::BTreeSet<_> = ids.iter().flatten().collect();
    assert_eq!(
        distinct.len(),
        ids.len(),
        "near-miss literals must not collide"
    );
}

#[test]
fn dictionary_survives_removal_and_reinsertion() {
    let mut store = TripleStore::new();
    let t = Triple::new(
        Iri::new("http://zoo.example/s").unwrap(),
        Iri::new("http://zoo.example/p").unwrap(),
        Literal::string("kept"),
    );
    store.insert(&t);
    let id = store.id_of(&t.object).unwrap();
    store.remove(&t);
    // Interning is append-only: the id survives triple removal...
    assert_eq!(store.id_of(&t.object), Some(id));
    assert!(store.is_empty());
    // ...and re-inserting reuses it rather than growing the dictionary.
    let terms_before = store.term_count();
    store.insert(&t);
    assert_eq!(store.term_count(), terms_before);
    assert_eq!(store.id_of(&t.object), Some(id));
}

/// Builds a random but deterministic store plus its triples as a plain list.
fn random_store(seed: u64, size: usize) -> (TripleStore, Vec<Triple>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let subjects: Vec<Iri> = (0..12)
        .map(|i| Iri::new(format!("http://r.example/s{i}")).unwrap())
        .collect();
    let predicates: Vec<Iri> = (0..6)
        .map(|i| Iri::new(format!("http://r.example/p{i}")).unwrap())
        .collect();
    let mut store = TripleStore::new();
    let mut triples = Vec::new();
    while store.len() < size {
        let s = subjects[rng.gen_range(0..subjects.len())].clone();
        let p = predicates[rng.gen_range(0..predicates.len())].clone();
        let o: Term = if rng.gen_bool(0.5) {
            subjects[rng.gen_range(0..subjects.len())].clone().into()
        } else {
            Literal::integer(rng.gen_range(0..30i64)).into()
        };
        let t = Triple::new(s, p, o);
        if store.insert(&t) {
            triples.push(t);
        }
    }
    (store, triples)
}

#[test]
fn index_orderings_agree_on_every_pattern_shape() {
    let (store, triples) = random_store(42, 300);

    // Probe terms: some present, some interned-but-differently-used, one
    // never interned.
    let some = |t: &Triple| (t.subject.clone(), t.predicate.clone(), t.object.clone());
    let (s0, p0, o0) = some(&triples[17]);
    let foreign: Term = Iri::new("http://r.example/never-seen").unwrap().into();

    let subjects = [None, Some(s0.clone()), Some(foreign.clone())];
    let predicates = [None, Some(p0.clone()), Some(foreign.clone())];
    let objects = [None, Some(o0.clone()), Some(s0.clone()), Some(foreign)];

    for s in &subjects {
        for p in &predicates {
            for o in &objects {
                let pattern = TriplePattern {
                    subject: s.clone(),
                    predicate: p.clone(),
                    object: o.clone(),
                };
                // Ground truth: a naive scan over the triple list.
                let mut expected: Vec<Triple> = triples
                    .iter()
                    .filter(|t| {
                        s.as_ref().map_or(true, |x| &t.subject == x)
                            && p.as_ref().map_or(true, |x| &t.predicate == x)
                            && o.as_ref().map_or(true, |x| &t.object == x)
                    })
                    .cloned()
                    .collect();
                expected.sort();
                // Indexed answer: whichever of GSPO/GPOS/GOSP the store picked.
                let mut actual = store.matching(&pattern);
                actual.sort();
                assert_eq!(actual, expected, "pattern {pattern:?}");
                assert_eq!(store.count_matching(&pattern), expected.len());
            }
        }
    }
}

/// One stored quad as the scans report it: its graph beside its triple.
type ScannedQuad = (TermId, EncodedTriple);

/// The quad set each of the three orders holds, read graph by graph through
/// the one pattern shape that dispatches to it (see
/// `matching_quads_encoded_iter`): a fully open scan for GSPO, and a scan
/// per predicate (GPOS) or per object (GOSP) identifier.
fn quad_set_per_order(store: &TripleStore) -> [BTreeSet<ScannedQuad>; 3] {
    let ids: Vec<TermId> = (0..store.term_count() as TermId).collect();
    let mut graphs = store.named_graph_ids();
    graphs.push(DEFAULT_GRAPH);
    let each_graph = |p: Option<TermId>, o: Option<TermId>| -> BTreeSet<ScannedQuad> {
        graphs
            .iter()
            .flat_map(|&g| {
                store
                    .matching_quads_encoded_iter(g, None, p, o)
                    .map(move |t| (g, t))
            })
            .collect()
    };
    [
        each_graph(None, None),
        ids.iter()
            .flat_map(|&p| each_graph(Some(p), None))
            .collect(),
        ids.iter()
            .flat_map(|&o| each_graph(None, Some(o)))
            .collect(),
    ]
}

#[test]
fn indexes_stay_consistent_under_interleaved_insert_remove() {
    let (mut store, triples) = random_store(7, 200);
    let named: Term = Iri::new("http://r.example/graph").unwrap().into();
    let graph_of = |in_named: bool| in_named.then_some(&named);
    let mut live: BTreeSet<(Triple, bool)> = triples.iter().map(|t| (t.clone(), false)).collect();
    let mut rng = StdRng::seed_from_u64(99);
    let mut folds = 0;

    for round in 0..300 {
        let flat_before = store.index_tier_sizes()[0].1.flat;
        if rng.gen_bool(0.5) && !live.is_empty() {
            let (victim, in_named) = live
                .iter()
                .nth(rng.gen_range(0..live.len()))
                .cloned()
                .unwrap();
            assert!(
                store.remove_in_graph(&victim, graph_of(in_named)),
                "round {round}: remove reported absent quad"
            );
            live.remove(&(victim, in_named));
        } else {
            let t = &triples[rng.gen_range(0..triples.len())];
            let in_named = rng.gen_bool(0.3);
            assert_eq!(
                store.insert_in_graph(t, graph_of(in_named)),
                live.insert((t.clone(), in_named)),
                "round {round}"
            );
        }

        // All three orders are always in the same tier state: one policy
        // decides for all of them, so their key tiers never differ (each
        // order's directory is its own) and a fold (the only thing that
        // changes `flat`) happens to all at once.
        let sizes = store.index_tier_sizes();
        let first: TierSizes = sizes[0].1;
        let keys = |s: &TierSizes| (s.flat, s.delta, s.dead);
        assert!(
            sizes.iter().all(|(_, s)| keys(s) == keys(&first)),
            "round {round}: orders disagree: {sizes:?}"
        );
        assert_eq!(first.flat + first.delta - first.dead, live.len());
        // The range count (two binary searches + delta − dead) equals a walk
        // of the same range, for every pattern shape, with keys in all three
        // tiers and named-graph quads beside the default graph's.
        let probe = &triples[round % triples.len()];
        for shape in 0..8u8 {
            let pick = |bit: u8, term: &Term| (shape & bit != 0).then(|| term.clone());
            let pattern = TriplePattern {
                subject: pick(1, &probe.subject),
                predicate: pick(2, &probe.predicate),
                object: pick(4, &probe.object),
            };
            assert_eq!(
                store.count_matching(&pattern),
                store.matching(&pattern).len(),
                "round {round}: {pattern:?}"
            );
        }
        if first.flat != flat_before {
            folds += 1;
            assert_eq!((first.delta, first.dead), (0, 0), "round {round}");
            let [gspo, gpos, gosp] = quad_set_per_order(&store);
            assert_eq!(gspo.len(), live.len(), "round {round}");
            assert!(
                gpos == gspo && gosp == gspo,
                "round {round}: the orders hold different quad sets after a fold"
            );
        }
    }
    assert!(
        folds >= 3,
        "the churn crossed only {folds} folds; the test no longer covers them"
    );

    assert_eq!(store.len(), live.len());
    // After the churn, every order decodes to the live set — mid-churn, with
    // keys in all three tiers — meaning all three were kept in lock-step.
    let [gspo, gpos, gosp] = quad_set_per_order(&store);
    assert!(gpos == gspo && gosp == gspo);
    let mut from_store: Vec<(Triple, bool)> = gspo
        .iter()
        .map(|&(g, t)| (store.decode(t), g != DEFAULT_GRAPH))
        .collect();
    from_store.sort();
    let expected: Vec<(Triple, bool)> = live.into_iter().collect();
    assert_eq!(from_store, expected);
    // And each surviving default-graph triple is reachable through each
    // triple-level access path.
    for (t, _) in expected.iter().filter(|(_, in_named)| !in_named) {
        assert!(store.contains(t));
        assert!(store
            .matching(&TriplePattern::any().with_subject(t.subject.as_iri().unwrap().clone()))
            .contains(t));
        assert_eq!(
            store.count_matching(&TriplePattern {
                subject: Some(t.subject.clone()),
                predicate: Some(t.predicate.clone()),
                object: Some(t.object.clone()),
            }),
            1
        );
    }
}

// ---- the tier machinery against a set model ----------------------------------

type Key = (TermId, TermId, TermId, TermId);

/// Identifier domain of the model test's first, third and fourth
/// components: small enough that keys collide and every prefix can be
/// enumerated, with `TermId::MAX` (the default-graph sentinel) in it so
/// ranges that end at the top of the key space are hit.
const IDS: [TermId; 4] = [0, 1, 2, TermId::MAX];

/// The second components: a dense block of ids, and `TermId::MAX` beside
/// it. A run whose keys reach only the block, in a span no wider than its
/// key count, gets a dense directory — with empty windows where its keys
/// skip an id of the block; a run that also reaches `TermId::MAX` gets a
/// sparse one.
const SECONDS: [TermId; 7] = [3, 4, 5, 6, 7, 8, TermId::MAX];

/// Second ids a probe tries: the block, its neighbours and both ends of the
/// id space.
const PROBED_SECONDS: [TermId; 11] = [0, 2, 3, 4, 5, 6, 7, 8, 9, TermId::MAX - 1, TermId::MAX];

/// The `n`-th key of the 336-key domain.
fn nth_key(n: u32) -> Key {
    let id = |v: u32| IDS[(v % 4) as usize];
    (
        id(n),
        SECONDS[(n / 4 % 7) as usize],
        id(n / 28),
        id(n / 112 % 3),
    )
}

/// `len` pseudo-random keys drawn from `seed`.
fn key_batch(seed: u32, len: usize) -> Vec<Key> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            nth_key(state >> 8)
        })
        .collect()
}

/// Every read the index offers, against the model.
fn assert_index_matches_model(idx: &PositionalIndex, model: &BTreeSet<Key>) {
    idx.check_invariants().expect("tier invariants");
    let max = TermId::MAX;
    let in_model = |lo: Key, hi: Key| -> Vec<Key> { model.range(lo..=hi).copied().collect() };
    assert_eq!(
        idx.scan_all().collect::<Vec<_>>(),
        in_model((0, 0, 0, 0), (max, max, max, max))
    );
    assert_eq!(idx.len(), model.len());
    assert_eq!(idx.is_empty(), model.is_empty());
    let sizes = idx.tier_sizes();
    assert_eq!(sizes.flat + sizes.delta - sizes.dead, model.len());

    let firsts: BTreeSet<TermId> = model.iter().map(|k| k.0).collect();
    assert_eq!(
        idx.first_components(),
        firsts.iter().copied().collect::<Vec<_>>()
    );
    for a in IDS {
        let expected = in_model((a, 0, 0, 0), (a, max, max, max));
        assert_eq!(idx.scan_prefix1(a).collect::<Vec<_>>(), expected);
        assert_eq!(idx.count_prefix1(a), expected.len());
        // Seven distinct values at most: under the estimators' probe budget,
        // so both are exact.
        let seconds: BTreeSet<TermId> = expected.iter().map(|k| k.1).collect();
        assert_eq!(idx.distinct_second_estimate(a), seconds.len());
        for b in PROBED_SECONDS {
            let expected = in_model((a, b, 0, 0), (a, b, max, max));
            let thirds: BTreeSet<TermId> = expected.iter().map(|k| k.2).collect();
            assert_eq!(idx.distinct_third_estimate(a, b), thirds.len());
            assert_eq!(idx.scan_prefix2(a, b).collect::<Vec<_>>(), expected);
            assert_eq!(idx.count_prefix2(a, b), expected.len());
            for c in IDS {
                let expected = in_model((a, b, c, 0), (a, b, c, max));
                assert_eq!(idx.scan_prefix3(a, b, c).collect::<Vec<_>>(), expected);
                assert_eq!(idx.count_prefix3(a, b, c), expected.len());
                for d in IDS {
                    let key = (a, b, c, d);
                    assert_eq!(idx.contains(&key), model.contains(&key));
                    assert_eq!(
                        idx.scan_prefix4(a, b, c, d).next().is_some(),
                        model.contains(&key)
                    );
                }
            }
        }
    }
}

/// The directory shapes a flat tier holding exactly `model` must have, as
/// the module docs of `index` define them, counted over its runs.
#[derive(Debug, Default, PartialEq)]
struct Shapes {
    /// Runs, one per first component.
    runs: usize,
    /// Dense runs with an empty window: an id of the span without keys.
    gapped: usize,
    /// Sparse runs.
    sparse: usize,
    /// Offsets of all directories.
    offsets: usize,
}

fn shapes_of(model: &BTreeSet<Key>) -> Shapes {
    let mut shapes = Shapes::default();
    let firsts: BTreeSet<TermId> = model.iter().map(|k| k.0).collect();
    for a in firsts {
        let max = TermId::MAX;
        let keys = model.range((a, 0, 0, 0)..=(a, max, max, max)).count();
        let seconds: BTreeSet<TermId> = model
            .range((a, 0, 0, 0)..=(a, max, max, max))
            .map(|k| k.1)
            .collect();
        let (low, high) = (*seconds.first().unwrap(), *seconds.last().unwrap());
        let span = (high - low) as usize + 1;
        shapes.runs += 1;
        if span <= keys {
            shapes.offsets += span + 1;
            shapes.gapped += usize::from(span > seconds.len());
        } else {
            shapes.offsets += seconds.len() + 1;
            shapes.sparse += 1;
        }
    }
    shapes
}

/// Plays random interleavings of single inserts, removes, small and large
/// batch merges and bare folds against an index and a `BTreeSet` of the
/// same keys. After every step the index answers every read exactly like
/// the set, and the tier invariants hold; after every merge its directory
/// has the shapes the set implies. Returns the runs seen after merges,
/// added up (offsets not counted).
fn play(ops: &[(u8, u32, usize)]) -> Shapes {
    let mut idx = PositionalIndex::new();
    let mut model: BTreeSet<Key> = BTreeSet::new();
    let mut seen = Shapes::default();
    for (step, &(kind, seed, len)) in ops.iter().enumerate() {
        let key = nth_key(seed);
        match kind {
            0..=3 => assert_eq!(idx.insert(key), model.insert(key), "step {step}"),
            4..=6 => assert_eq!(idx.remove(&key), model.remove(&key), "step {step}"),
            _ => {
                // 7: a handful of keys; 8: up to a seventh of the domain;
                // 9: a bare fold.
                let batch = key_batch(seed, [len % 4, len, 0][kind as usize - 7]);
                idx.insert_batch(batch.iter().copied());
                model.extend(batch);
                let sizes = idx.tier_sizes();
                assert_eq!(sizes.flat, model.len(), "step {step}");
                let shapes = shapes_of(&model);
                assert_eq!(
                    (sizes.directory, sizes.sparse_runs),
                    (shapes.offsets, shapes.sparse),
                    "step {step}: {shapes:?}"
                );
                seen.runs += shapes.runs;
                seen.gapped += shapes.gapped;
                seen.sparse += shapes.sparse;
            }
        }
        assert_index_matches_model(&idx, &model);
    }
    seen
}

fn ops() -> impl Strategy<Value = Vec<(u8, u32, usize)>> {
    proptest::collection::vec((0u8..10, 0u32..1_000_000, 0usize..48), 1..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// [`play`] on random interleavings. The index has no policy of its own
    /// (the store decides when to merge), so the interleaving is free to
    /// leave any mix of flat, delta and tombstoned keys behind, and any mix
    /// of run shapes.
    #[test]
    fn tiers_agree_with_a_set_model_under_any_interleaving(ops in ops()) {
        play(&ops);
    }
}

/// The interleavings [`play`] sees reach both directory shapes, dense runs
/// with empty windows among them, and tiers of several runs — so its
/// `scan_prefix1` and `scan_all` checks walk across empty windows and run
/// boundaries — or the model test proves nothing about them.
#[test]
fn the_model_interleavings_reach_every_run_shape() {
    let mut rng = StdRng::seed_from_u64(36);
    let mut seen = Shapes::default();
    for _ in 0..32 {
        let ops: Vec<(u8, u32, usize)> = (0..rng.gen_range(1..80))
            .map(|_| {
                (
                    rng.gen_range(0..10),
                    rng.gen_range(0..1_000_000),
                    rng.gen_range(0..48),
                )
            })
            .collect();
        let shapes = play(&ops);
        seen.runs += shapes.runs;
        seen.gapped += shapes.gapped;
        seen.sparse += shapes.sparse;
    }
    assert!(
        seen.gapped > 0 && seen.sparse > 0 && seen.runs > seen.gapped + seen.sparse,
        "{seen:?}"
    );
}
