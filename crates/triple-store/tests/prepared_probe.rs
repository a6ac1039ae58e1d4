//! The prepared probe (`TripleStore::prepare_scan` + `PreparedScan::probe`)
//! against a `BTreeSet` reference: every bound mask of subject, predicate
//! and object, every id a probe can carry — interned or not —, in each tier
//! state a store reads in: flat only, delta keys and tombstones inside the
//! probed ranges, a sparse directory, a named graph, and graphs and
//! constants the store never interned.

use std::collections::BTreeSet;

use hbold_rdf_model::{Iri, Quad, Term, Triple};
use hbold_triple_store::{IndexOrder, TermId, TripleStore, DEFAULT_GRAPH};

/// `(graph, subject, predicate, object)` ids.
type QuadIds = (TermId, TermId, TermId, TermId);

/// An id no store below interns.
const NEVER_INTERNED: TermId = 99_999;

fn iri(name: &str) -> Term {
    Iri::new(format!("http://pp.example/{name}"))
        .unwrap()
        .into()
}

/// Sixty subjects with two or three quads each in the default graph — a
/// dense run — and a named graph of five quads whose subjects lie far
/// apart in the dictionary: a run whose directory lists its second ids.
fn quads() -> Vec<Quad> {
    let mut quads = Vec::new();
    for s in 0..60 {
        for (p, o) in [(0, s % 7), (1, (s * 3) % 11), (2, s)] {
            if p == 2 && s % 3 == 0 {
                continue;
            }
            let triple = Triple::new(
                iri(&format!("s{s:02}")),
                iri(&format!("p{p}")),
                iri(&format!("o{o:02}")),
            );
            quads.push(Quad::new(triple, None));
        }
    }
    for s in [0, 13, 27, 39, 39] {
        let p = if s == 39 { "p2" } else { "p0" };
        let triple = Triple::new(
            iri(&format!("s{s:02}")),
            iri(p),
            iri(&format!("o{:02}", s % 5)),
        );
        quads.push(Quad::new(triple, Some(iri("g"))));
    }
    quads.push(Quad::new(
        Triple::new(iri("s39"), iri("p2"), iri("o01")),
        Some(iri("g")),
    ));
    quads
}

fn ids(store: &TripleStore, quad: &Quad) -> QuadIds {
    let id = |term: &Term| store.id_of(term).unwrap();
    let graph = quad.graph.as_ref().map_or(DEFAULT_GRAPH, id);
    (
        graph,
        id(&quad.subject),
        id(&quad.predicate),
        id(&quad.object),
    )
}

/// What the probes answered: windows, merged scans.
#[derive(Default)]
struct Seen {
    windows: usize,
    merged: usize,
}

/// Every probe of every bound mask inside `graphs` against `model`: each
/// bound position takes every id of `candidates`, and the probe must yield
/// exactly the model's matching quads, in the index's key order.
fn assert_probes_agree(
    store: &TripleStore,
    model: &BTreeSet<QuadIds>,
    graphs: &[TermId],
    candidates: &[TermId],
) -> Seen {
    let mut seen = Seen::default();
    for &graph in graphs {
        for mask in 0..8 {
            let bound = [0, 1, 2].map(|i| mask & 1 << i != 0);
            let scan = store.prepare_scan(graph, bound);
            let (order, _) = IndexOrder::for_pattern(bound);
            assert_eq!(scan.order(), order);
            let positions = order.positions();
            let values = |i: usize| if bound[i] { candidates } else { &[0][..] };
            for &s in values(0) {
                for &p in values(1) {
                    for &o in values(2) {
                        let spo = [s, p, o];
                        let key = positions.map(|position| spo[position]);
                        let probe = scan.probe(key);
                        seen.windows += usize::from(probe.window().is_some());
                        seen.merged += usize::from(probe.merges_churn());
                        if let Some((second, pairs)) = probe.window() {
                            assert!(mask == 0 || second == key[0], "{second} under {key:?}");
                            assert_eq!(pairs.len(), probe.size_hint().0);
                        }
                        let got: Vec<QuadIds> = probe.collect();
                        let want: BTreeSet<QuadIds> = model
                            .iter()
                            .filter(|&&(g, s, p, o)| {
                                let quad = [s, p, o];
                                g == graph && (0..3).all(|i| !bound[i] || quad[i] == spo[i])
                            })
                            .map(|&(g, s, p, o)| {
                                let quad = [s, p, o];
                                let [a, b, c] = positions.map(|position| quad[position]);
                                (g, a, b, c)
                            })
                            .collect();
                        let want: Vec<QuadIds> = want.into_iter().collect();
                        assert_eq!(got, want, "graph {graph}, bound {bound:?}, spo {spo:?}");
                    }
                }
            }
        }
    }
    seen
}

#[test]
fn prepared_probes_agree_with_a_set_model_in_every_tier_state() {
    let quads = quads();
    let mut store = TripleStore::new();
    store.insert_quads_batch(&quads);
    let mut model: BTreeSet<QuadIds> = quads.iter().map(|q| ids(&store, q)).collect();
    let named = store.id_of(&iri("g")).unwrap();
    let s13 = store.id_of(&iri("s13")).unwrap();
    // Every id a probe may carry: subjects, predicates, objects, the graph's
    // own name, and an id past the dictionary.
    let mut candidates: Vec<TermId> = ["s00", "s01", "s13", "s27", "s39", "p0", "p2"]
        .into_iter()
        .chain(["o00", "o01", "o03", "o13", "g"])
        .map(|name| store.id_of(&iri(name)).unwrap())
        .collect();
    candidates.push(NEVER_INTERNED);
    // The default graph, the named one, a subject that is no graph, and a
    // graph id never interned.
    let graphs = [DEFAULT_GRAPH, named, s13, NEVER_INTERNED];
    let tiers = |store: &TripleStore| store.index_tier_sizes().map(|(_, sizes)| sizes);

    // Flat only, one run of them with a sparse directory.
    assert!(tiers(&store).iter().all(|t| t.delta == 0 && t.dead == 0));
    assert!(tiers(&store).iter().any(|t| t.sparse_runs > 0));
    let flat = assert_probes_agree(&store, &model, &graphs, &candidates);
    assert!(flat.windows > 0 && flat.merged == 0);

    // Tombstones inside the probed ranges, in both graphs, and no delta key.
    for quad in [&quads[0], &quads[4], &quads[quads.len() - 2]] {
        assert!(store.remove_quad(quad));
        model.remove(&ids(&store, quad));
    }
    assert!(tiers(&store).iter().all(|t| t.delta == 0 && t.dead > 0));
    let dead = assert_probes_agree(&store, &model, &graphs, &candidates);
    assert!(dead.windows > 0 && dead.merged > 0);

    // Delta keys beside them, in both graphs.
    let fresh = [
        Quad::new(Triple::new(iri("s01"), iri("p0"), iri("o13")), None),
        Quad::new(Triple::new(iri("s13"), iri("p2"), iri("o00")), None),
        Quad::new(
            Triple::new(iri("s27"), iri("p2"), iri("o03")),
            Some(iri("g")),
        ),
    ];
    for quad in &fresh {
        assert!(store.insert_quad(quad));
        model.insert(ids(&store, quad));
    }
    assert!(tiers(&store).iter().all(|t| t.delta > 0 && t.dead > 0));
    let churned = assert_probes_agree(&store, &model, &graphs, &candidates);
    assert!(churned.windows > 0 && churned.merged > 0);

    // A graph held only in the delta tier.
    let only_delta = Quad::new(
        Triple::new(iri("s00"), iri("p0"), iri("o00")),
        Some(iri("h")),
    );
    assert!(store.insert_quad(&only_delta));
    model.insert(ids(&store, &only_delta));
    assert!(tiers(&store).iter().all(|t| t.delta > 0 && t.dead > 0));
    let h = store.id_of(&iri("h")).unwrap();
    assert_probes_agree(&store, &model, &[h], &candidates);
}

#[test]
fn the_store_s_scans_are_the_prepared_probe() {
    let quads = quads();
    let mut store = TripleStore::new();
    store.insert_quads_batch(&quads);
    let p0 = store.id_of(&iri("p0")).unwrap();
    let o01 = store.id_of(&iri("o01")).unwrap();
    for (s, p, o) in [
        (None, Some(p0), None),
        (None, Some(p0), Some(o01)),
        (None, None, None),
    ] {
        let bound = [s.is_some(), p.is_some(), o.is_some()];
        let scan = store.prepare_scan(DEFAULT_GRAPH, bound);
        let spo = [s, p, o].map(|id| id.unwrap_or(0));
        let key = scan.order().positions().map(|position| spo[position]);
        let probed = scan.probe(key).count();
        assert_eq!(store.matching_encoded_iter(s, p, o).count(), probed);
        assert_eq!(store.count_matching_encoded(s, p, o), probed);
    }
}
