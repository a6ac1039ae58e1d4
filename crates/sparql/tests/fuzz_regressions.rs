//! Minimized, pinned regressions for every bug the fuzzing sweep's bug-fix
//! pass covered, plus property tests over fuzz-generated regex patterns.
//!
//! Each test is the smallest graph + query that exercised the original
//! defect; they stay green forever regardless of the fuzz case count.

use hbold_rdf_model::vocab::xsd;
use hbold_rdf_model::{Iri, Literal, Quad, Term, Triple};
use hbold_sparql::expr::number_term;
use hbold_sparql::regex::Regex;
use hbold_sparql::{explain, QueryResults, SlotLayout, SparqlError};
use hbold_sparql_check::fuzz::{
    check_query, evaluate_shuffled, generate_store, random_regex_pattern, term_pool, FuzzRng,
};
use hbold_sparql_check::reference;
use hbold_triple_store::TripleStore;

fn iri(s: &str) -> Iri {
    Iri::new(s).unwrap()
}

/// Every leg of the fuzz check (`fuzz::check_query`: print → parse, the
/// planned and a shuffled join order against the reference, the
/// serializations, every physical shape of the store) on a query string,
/// panicking on the first failure; then three more shuffled join orders
/// against the reference, since one shuffle can leave a two-pattern BGP in
/// its planned order; then the reference's answer, for the caller's own
/// assertions.
fn checked(store: &TripleStore, query: &str) -> QueryResults {
    let parsed = hbold_sparql::parse_query(query).unwrap();
    let covered =
        check_query(store, &parsed, 0, "pinned").unwrap_or_else(|report| panic!("{report}"));
    let expected = reference::evaluate(store, &parsed).unwrap();
    let mut reordered = covered.reordered_bgps;
    for seed in 1..4 {
        let (shuffled, reordered_here) = evaluate_shuffled(store, &parsed, seed);
        reordered += reordered_here;
        assert_eq!(
            shuffled.unwrap(),
            expected,
            "shuffled join order (seed {seed}) diverged on {query}"
        );
    }
    let joins = explain(store, &parsed)
        .to_string()
        .lines()
        .any(|line| line.trim_start().starts_with("bgp order=[") && line.contains(','));
    assert!(
        !joins || reordered > 0,
        "no shuffle reordered a BGP of {query}"
    );
    expected
}

fn numeric_store() -> TripleStore {
    let mut store = TripleStore::new();
    let p = iri("http://r.example/p");
    for (label, term) in [
        ("a", Term::Literal(Literal::typed("NaN", xsd::double()))),
        ("b", Term::Literal(Literal::integer(1))),
        ("c", Term::Literal(Literal::integer(i64::MIN))),
        ("d", Term::Literal(Literal::double(2.5))),
    ] {
        store.insert(&Triple::new(
            iri(&format!("http://r.example/{label}")),
            p.clone(),
            term,
        ));
    }
    store
}

// ---- expr.rs: float→int narrowing at the i64 boundary ----------------------------

/// `number_term` used `value.fract() == 0.0 && value.abs() < i64::MAX as f64`,
/// which (a) excluded `-2^63` (exactly representable; its absolute value is
/// *not* strictly below `i64::MAX as f64 == 2^63`) and (b) leaned on the
/// rounded-up constant. The representable window is the half-open
/// `[-2^63, 2^63)`.
#[test]
fn number_term_handles_the_i64_boundary() {
    // i64::MIN is exactly representable and must narrow to an integer.
    assert_eq!(
        number_term(i64::MIN as f64),
        Term::Literal(Literal::integer(i64::MIN))
    );
    // 2^63 (`i64::MAX as f64` rounds up to it) is NOT representable as i64;
    // it must stay a double (whatever lexical form Rust's formatter picks).
    let two_63 = 9_223_372_036_854_775_808.0_f64;
    assert_eq!(
        number_term(two_63),
        Term::Literal(Literal::typed(format!("{two_63}"), xsd::double()))
    );
    // The largest f64 below 2^63 still narrows.
    assert_eq!(
        number_term(9_223_372_036_854_774_784.0),
        Term::Literal(Literal::integer(9_223_372_036_854_774_784))
    );
    // Just below -2^63 stays a double.
    let below_min = -9_223_372_036_854_777_856.0_f64;
    assert_eq!(
        number_term(below_min),
        Term::Literal(Literal::typed(format!("{below_min}"), xsd::double()))
    );
    // NaN/infinities must never enter the integer branch.
    assert_eq!(
        number_term(f64::NAN),
        Term::Literal(Literal::typed("NaN", xsd::double()))
    );
    assert_eq!(
        number_term(f64::INFINITY),
        Term::Literal(Literal::typed("inf", xsd::double()))
    );
}

/// SUM over a graph containing `i64::MIN` flows through `number_term`; the
/// engines must agree and keep it integral.
#[test]
fn aggregating_i64_min_stays_integral_everywhere() {
    let mut store = TripleStore::new();
    store.insert(&Triple::new(
        iri("http://r.example/c"),
        iri("http://r.example/p"),
        Term::Literal(Literal::integer(i64::MIN)),
    ));
    let results = checked(&store, "SELECT (SUM(?o) AS ?t) WHERE { ?s ?p ?o }");
    let rows = results.into_select().unwrap().rows;
    assert_eq!(
        rows[0][0].as_ref().unwrap(),
        &Term::Literal(Literal::integer(i64::MIN))
    );
}

// ---- expr.rs: NaN and mixed-type comparison semantics ----------------------------

/// `"NaN"^^xsd:double = <itself>` fell through to RDF term equality and came
/// out `true`; XPath numeric comparison says NaN is unequal to everything,
/// itself included. `!=` is the complement; the ordering operators are an
/// error (row filtered out) in every engine.
#[test]
fn nan_compares_unequal_to_itself_in_all_engines() {
    let store = numeric_store();
    // `?o = ?o` keeps every row except the NaN one.
    let eq = checked(
        &store,
        "SELECT ?o WHERE { ?s ?p ?o FILTER(?o = ?o) } ORDER BY ?o",
    );
    let eq_rows = eq.into_select().unwrap().rows;
    assert_eq!(eq_rows.len(), 3, "NaN row must fail ?o = ?o");
    assert!(eq_rows
        .iter()
        .all(|r| r[0].as_ref().unwrap().label() != "NaN"));

    // `?o != ?o` keeps exactly the NaN row.
    let ne = checked(&store, "SELECT ?o WHERE { ?s ?p ?o FILTER(?o != ?o) }");
    let ne_rows = ne.into_select().unwrap().rows;
    assert_eq!(ne_rows.len(), 1);
    assert_eq!(ne_rows[0][0].as_ref().unwrap().label(), "NaN");

    // Ordering comparisons on NaN are an evaluation error → row dropped.
    let lt = checked(
        &store,
        "SELECT ?o WHERE { ?s ?p ?o FILTER(?o <= ?o) } ORDER BY ?o",
    );
    assert_eq!(lt.into_select().unwrap().rows.len(), 3);
}

/// Mixed-type `=`/`!=` (number vs string) still falls back to RDF term
/// equality rather than erroring, and ORDER BY over a value set containing
/// NaN and mixed types produces the same deterministic order everywhere.
#[test]
fn mixed_type_equality_and_nan_ordering_agree() {
    let mut store = numeric_store();
    store.insert(&Triple::new(
        iri("http://r.example/e"),
        iri("http://r.example/p"),
        Term::Literal(Literal::string("1")),
    ));
    let eq = checked(
        &store,
        "SELECT ?o WHERE { ?s ?p ?o FILTER(?o = \"1\") } ORDER BY ?o",
    );
    // Only the plain string "1" is term-equal to "1"; the integer 1 is not.
    let rows = eq.into_select().unwrap().rows;
    assert_eq!(rows.len(), 1);
    assert_eq!(
        rows[0][0].as_ref().unwrap(),
        &Term::Literal(Literal::string("1"))
    );
    // Total order over NaN + integers + doubles + strings is consistent.
    checked(&store, "SELECT ?o WHERE { ?s ?p ?o } ORDER BY ?o ?s");
}

// ---- eval.rs / encoded.rs: LIMIT/OFFSET arithmetic at the extremes ---------------

/// `ORDER BY` + huge `LIMIT`/`OFFSET` drove the top-k heap into
/// `BinaryHeap::with_capacity(offset + limit + 1)` — a capacity-overflow
/// abort reachable straight from the parser. The capacity hint is now
/// clamped; the whole pipeline must survive and return the right rows.
#[test]
fn huge_limit_offset_under_order_by_does_not_panic() {
    let store = numeric_store();
    let q = "SELECT ?o WHERE { ?s ?p ?o } ORDER BY ?o \
             LIMIT 9223372036854775807 OFFSET 9223372036854775807";
    let results = checked(&store, q);
    assert!(results.into_select().unwrap().rows.is_empty());

    // Same extreme without the OFFSET: every row survives the cut.
    let q = "SELECT ?o WHERE { ?s ?p ?o } ORDER BY ?o LIMIT 9223372036854775807";
    let results = checked(&store, q);
    assert_eq!(results.into_select().unwrap().rows.len(), 4);

    // DISTINCT disables the top-k path; the plain sort path must cope too.
    let q = "SELECT DISTINCT ?o WHERE { ?s ?p ?o } ORDER BY ?o \
             LIMIT 9223372036854775806 OFFSET 1";
    let results = checked(&store, q);
    assert_eq!(results.into_select().unwrap().rows.len(), 3);
}

/// LIMIT 0 and OFFSET beyond the result size, ordered and unordered, grouped
/// and plain — all cut to empty without overflow or underflow.
#[test]
fn zero_limit_and_oversized_offset_cut_to_empty() {
    let store = numeric_store();
    for q in [
        "SELECT ?o WHERE { ?s ?p ?o } LIMIT 0",
        "SELECT ?o WHERE { ?s ?p ?o } ORDER BY ?o LIMIT 0",
        "SELECT ?o WHERE { ?s ?p ?o } OFFSET 1000",
        "SELECT ?o WHERE { ?s ?p ?o } ORDER BY ?o OFFSET 9223372036854775807",
        "SELECT DISTINCT ?o WHERE { ?s ?p ?o } LIMIT 0 OFFSET 2",
        "SELECT (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } LIMIT 0",
        "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s OFFSET 99",
    ] {
        let results = checked(&store, q);
        assert!(
            results.into_select().unwrap().rows.is_empty(),
            "expected an empty cut for {q}"
        );
    }
    // OFFSET mid-stream under ORDER BY: exact tail retained.
    let q = "SELECT ?o WHERE { ?s ?p ?o } ORDER BY ?o LIMIT 2 OFFSET 1";
    let results = checked(&store, q);
    assert_eq!(results.into_select().unwrap().rows.len(), 2);
}

// ---- regex.rs: flags and anchors on fuzz-generated patterns ----------------------

/// Property sweep over fuzz-generated patterns: flag and anchor behavior
/// must match SPARQL (XPath/XSD regex) semantics. Each property is checked
/// against several adversarial texts.
#[test]
fn fuzz_generated_patterns_obey_flag_and_anchor_semantics() {
    let texts = [
        "",
        "a",
        "b",
        "sab",
        "AB",
        "Sparql",
        "line\nbreak",
        "a\nb",
        "..",
        "ab|b",
    ];
    let mut rng = FuzzRng::new(0xF1A6);
    for _ in 0..600 {
        let pattern = random_regex_pattern(&mut rng);
        let plain = Regex::new(&pattern)
            .unwrap_or_else(|e| panic!("generator produced invalid pattern {pattern:?}: {e}"));
        let ci = Regex::with_flags(&pattern, "i").unwrap();
        let dotall = Regex::with_flags(&pattern, "s").unwrap();
        for text in texts {
            let hit = plain.is_match(text);
            // "i" on ASCII text: case of the *text* cannot matter.
            assert_eq!(
                ci.is_match(text),
                ci.is_match(&text.to_ascii_uppercase()),
                "i-flag case sensitivity leak: {pattern:?} on {text:?}"
            );
            // "i" only widens the plain match — except for negated classes,
            // where folding legitimately *excludes* more (`[^b]` under "i"
            // must reject `B` as well).
            if hit && !pattern.contains("[^") {
                assert!(ci.is_match(text), "i-flag narrowed {pattern:?} on {text:?}");
            }
            // "s" only widens (`.` additionally matches newline).
            if hit {
                assert!(
                    dotall.is_match(text),
                    "s-flag narrowed {pattern:?} on {text:?}"
                );
            }
            // "x" with spaces injected between pattern characters is a no-op
            // (only safe when no classes/escapes whose interior would split).
            if !pattern.contains('[') && !pattern.contains('\\') {
                let spaced: String = pattern.chars().flat_map(|c| [c, ' ']).collect();
                let x = Regex::with_flags(&spaced, "x").unwrap();
                assert_eq!(
                    x.is_match(text),
                    hit,
                    "x-flag changed semantics: {pattern:?} vs {spaced:?} on {text:?}"
                );
            }
            // Full anchoring only ever narrows the match set.
            if !pattern.starts_with('^') && !pattern.ends_with('$') {
                let anchored = Regex::new(&format!("^{pattern}$")).unwrap();
                if anchored.is_match(text) {
                    assert!(hit, "anchoring widened {pattern:?} on {text:?}");
                }
            }
        }
    }
}

/// The REGEX() filter plumbing (encoded engine included) agrees with the
/// reference evaluator on fuzz-generated patterns and flags.
#[test]
fn regex_filters_agree_across_engines_on_generated_patterns() {
    let mut store = TripleStore::new();
    let p = iri("http://r.example/p");
    for (i, s) in ["", "a", "sab", "AB", "Sparql", "line\nbreak", "a.b", "ab|b"]
        .iter()
        .enumerate()
    {
        store.insert(&Triple::new(
            iri(&format!("http://r.example/t{i}")),
            p.clone(),
            Term::Literal(Literal::string(*s)),
        ));
    }
    let mut rng = FuzzRng::new(0x5EED);
    for i in 0..300 {
        let pattern = random_regex_pattern(&mut rng);
        let flags = ["", "i", "s", "m", "is", "im"][i % 6];
        let escaped = pattern.replace('\\', "\\\\").replace('"', "\\\"");
        let query = if flags.is_empty() {
            format!("SELECT ?o WHERE {{ ?s ?p ?o FILTER(REGEX(?o, \"{escaped}\")) }} ORDER BY ?o")
        } else {
            format!(
                "SELECT ?o WHERE {{ ?s ?p ?o FILTER(REGEX(?o, \"{escaped}\", \"{flags}\")) }} ORDER BY ?o"
            )
        };
        checked(&store, &query);
    }
}

// ---- anchors through the full SPARQL pipeline ------------------------------------

/// The old engine stripped a leading `^`/trailing `$` from the *whole*
/// pattern, silently anchoring every alternative and mis-handling interior
/// anchors. Pin the corrected per-alternative semantics end to end.
#[test]
fn alternation_anchors_are_per_branch_in_queries() {
    let mut store = TripleStore::new();
    let p = iri("http://r.example/p");
    for (i, s) in ["applepie", "pie", "apple"].iter().enumerate() {
        store.insert(&Triple::new(
            iri(&format!("http://r.example/t{i}")),
            p.clone(),
            Term::Literal(Literal::string(*s)),
        ));
    }
    // `^apple$|pie`: full-string "apple" OR substring "pie".
    let results = checked(
        &store,
        "SELECT ?o WHERE { ?s ?p ?o FILTER(REGEX(?o, \"^apple$|pie\")) } ORDER BY ?o",
    );
    let rows = results.into_select().unwrap().rows;
    let values: Vec<&str> = rows
        .iter()
        .map(|r| r[0].as_ref().unwrap().label())
        .collect();
    assert_eq!(values, ["apple", "applepie", "pie"]);

    // An interior `$` makes the branch unmatchable rather than literal.
    let results = checked(
        &store,
        "SELECT ?o WHERE { ?s ?p ?o FILTER(REGEX(?o, \"apple$pie\")) }",
    );
    assert!(results.into_select().unwrap().rows.is_empty());
}

// ---- eval.rs: order-independent SUM/AVG folds at the f64 precision edge ----------

/// Found by the fuzz sweep at seed 7742 once skewed graph modes landed:
/// `SUM`/`AVG` folded f64 values in member-arrival order, and the engines
/// enumerate group members in different row orders — so a group containing
/// both `-2^63` and `~2^63` plus small values summed to *different* totals
/// per engine (adding 2.5 to ±2^63 is absorbed; adding it to their
/// cancelled remainder is not). The fold now sorts by `f64::total_cmp`
/// first, making the result a pure function of the value multiset.
#[test]
fn sum_and_avg_are_independent_of_member_enumeration_order() {
    let mut store = TripleStore::new();
    let p = iri("http://r.example/v");
    for (label, value) in [
        (
            "huge_pos",
            Literal::typed("9223372036854775807", xsd::double()),
        ),
        ("huge_neg", Literal::integer(i64::MIN)),
        ("small_a", Literal::double(2.5)),
        ("small_b", Literal::double(-1.0)),
        ("tiny", Literal::integer(-1)),
    ] {
        store.insert(&Triple::new(
            iri(&format!("http://r.example/{label}")),
            p.clone(),
            Term::Literal(value),
        ));
    }
    // The evaluators walk ?s ?p ?o in different orders (the reference scans
    // insertion order, the encoded engine index order), so before the
    // canonical fold these disagreed near 2^63.
    for agg in ["SUM", "AVG"] {
        for distinct in ["", "DISTINCT "] {
            let results = checked(
                &store,
                &format!("SELECT ({agg}({distinct}?o) AS ?n) WHERE {{ ?s ?p ?o }}"),
            );
            let rows = results.into_select().unwrap().rows;
            assert_eq!(rows.len(), 1);
            assert!(rows[0][0].is_some(), "{agg}({distinct}?o) produced a value");
        }
    }
}

// ---- optimize.rs: join-order pins on skewed-cardinality graphs -------------------

/// Heavy skew: one hub predicate (150 triples over 50 subjects), one rare
/// predicate (2 triples on hub subjects), and one disconnected "lone"
/// predicate (2 triples on island subjects no other pattern touches).
fn skewed_join_store() -> TripleStore {
    let mut store = TripleStore::new();
    let hub = iri("http://r.example/hub");
    let rare = iri("http://r.example/rare");
    let lone = iri("http://r.example/lone");
    for i in 0..50 {
        let s = iri(&format!("http://r.example/s{i}"));
        for j in 0..3 {
            store.insert(&Triple::new(
                s.clone(),
                hub.clone(),
                iri(&format!("http://r.example/o{i}_{j}")),
            ));
        }
    }
    for i in 0..2 {
        store.insert(&Triple::new(
            iri(&format!("http://r.example/s{i}")),
            rare.clone(),
            iri(&format!("http://r.example/r{i}")),
        ));
    }
    for i in 0..2 {
        store.insert(&Triple::new(
            iri(&format!("http://r.example/island{i}")),
            lone.clone(),
            iri("http://r.example/isle"),
        ));
    }
    store
}

/// The worst ordering the old shape heuristic could produce: with rare and
/// hub written after a pattern over disconnected variables, the score-based
/// order could interleave a cartesian product between two components while
/// a connected join was still available. Pin: the statistics optimizer
/// never picks a disconnected pattern while a connected one remains.
#[test]
fn optimizer_never_interleaves_a_cartesian_product() {
    let store = skewed_join_store();
    // rare(2) and lone(2) tie at the cold start; rare wins on the written
    // index. hub (150, connected via ?a) must then beat the cheap (2 rows)
    // but disconnected lone pattern.
    let plan = explain(
        &store,
        &hbold_sparql::parse_query(
            "SELECT * WHERE { ?a <http://r.example/rare> ?b . \
             ?a <http://r.example/hub> ?c . ?x <http://r.example/lone> ?y }",
        )
        .unwrap(),
    );
    assert_eq!(plan.bgps.len(), 1);
    assert_eq!(plan.bgps[0].order, vec![0, 1, 2]);
    // The rare pattern's constant-prefix cardinality is exact.
    assert_eq!(plan.bgps[0].estimates[0], 2);

    // Results stay identical across all engines on the same shape.
    let results = checked(
        &store,
        "SELECT ?a ?b ?c ?x ?y WHERE { ?a <http://r.example/rare> ?b . \
         ?a <http://r.example/hub> ?c . ?x <http://r.example/lone> ?y } ORDER BY ?a ?c ?x",
    );
    // 2 rare subjects × 3 hub objects each × 2 lone rows = 12.
    assert_eq!(results.into_select().unwrap().rows.len(), 12);
}

/// A fully-constant pattern (score +6 under the old heuristic, no cartesian
/// penalty since it binds nothing) must not disarm connectedness for the
/// rest of the plan: after it, the optimizer still joins the connected
/// component cheapest-first and defers the disconnected pattern.
#[test]
fn constant_pattern_does_not_disarm_connectedness() {
    let store = skewed_join_store();
    let plan = explain(
        &store,
        &hbold_sparql::parse_query(
            "SELECT * WHERE { <http://r.example/s0> <http://r.example/hub> <http://r.example/o0_0> . \
             ?x <http://r.example/lone> ?y . \
             ?a <http://r.example/hub> ?c . \
             ?a <http://r.example/rare> ?b }",
        )
        .unwrap(),
    );
    // Constant existence check first (connected by definition, est 1);
    // then nothing is bound, so lone(2) ties rare(2) and wins on index;
    // then rare before the 150-triple hub.
    assert_eq!(plan.bgps[0].order, vec![0, 1, 3, 2]);
}

/// The statistics order is written-order independent: the rare pattern
/// leads whichever side of the BGP it is written on (the old `max_by_key`
/// tie-break made this depend on pattern position), and the engines agree
/// on the results either way.
#[test]
fn rare_pattern_leads_regardless_of_writing_order() {
    let store = skewed_join_store();
    let forward = explain(
        &store,
        &hbold_sparql::parse_query(
            "SELECT * WHERE { ?s <http://r.example/rare> ?v . ?s <http://r.example/hub> ?h }",
        )
        .unwrap(),
    );
    assert_eq!(forward.bgps[0].order, vec![0, 1]);
    let reversed = explain(
        &store,
        &hbold_sparql::parse_query(
            "SELECT * WHERE { ?s <http://r.example/hub> ?h . ?s <http://r.example/rare> ?v }",
        )
        .unwrap(),
    );
    assert_eq!(reversed.bgps[0].order, vec![1, 0]);
    for q in [
        "SELECT ?s ?v ?h WHERE { ?s <http://r.example/rare> ?v . ?s <http://r.example/hub> ?h } ORDER BY ?s ?h",
        "SELECT ?s ?v ?h WHERE { ?s <http://r.example/hub> ?h . ?s <http://r.example/rare> ?v } ORDER BY ?s ?h",
    ] {
        let results = checked(&store, q);
        assert_eq!(results.into_select().unwrap().rows.len(), 6);
    }
}

// ---- encoded.rs / reference.rs: a static error that depended on the data ---------

/// Projecting a variable that is neither grouped nor aggregated was checked
/// once *per group*, so on a store yielding zero groups the same query text
/// succeeded with no rows. The check is static and runs before grouping.
#[test]
fn ungrouped_projection_is_rejected_whatever_the_data() {
    let query = "SELECT ?s (COUNT(?p) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?o";
    let parsed = hbold_sparql::parse_query(query).unwrap();
    let mut one_triple = TripleStore::new();
    one_triple.insert(&Triple::new(
        iri("http://r.example/s"),
        iri("http://r.example/p"),
        Term::Literal(Literal::integer(1)),
    ));
    for store in [TripleStore::new(), one_triple] {
        for outcome in [
            hbold_sparql::execute_query(&store, query),
            reference::evaluate(&store, &parsed),
        ] {
            match outcome {
                Err(SparqlError::Evaluation(message)) => assert_eq!(
                    message,
                    "variable ?s is projected but is neither grouped nor aggregated"
                ),
                other => panic!(
                    "expected the grouping error on {} triples, got {other:?}",
                    store.len()
                ),
            }
        }
    }
}

// ---- rdf-model: one total order for terms -----------------------------------------

/// `Ord for Term` is proved over the fuzz harness's whole term pool, not
/// sampled: every triple of terms is checked for reflexivity, antisymmetry,
/// transitivity and `Equal` ⇔ `==` (so `Ord` agrees with the derived
/// `Eq`/`Hash`), and every shuffle sorts to one sequence. The engine and the
/// reference share this order by design, so their agreeing cannot vouch for it.
#[test]
fn the_term_order_is_total_over_the_whole_fuzz_pool() {
    use std::cmp::Ordering::{Equal, Less};
    let pool = term_pool();
    for a in &pool {
        assert_eq!(a.cmp(a), Equal, "reflexivity: {a}");
        for b in &pool {
            let ab = a.cmp(b);
            assert_eq!(ab, b.cmp(a).reverse(), "antisymmetry: {a} vs {b}");
            assert_eq!(ab == Equal, a == b, "Equal must mean ==: {a} vs {b}");
            if ab != Less {
                continue;
            }
            for c in pool.iter().filter(|c| b.cmp(c) == Less) {
                assert_eq!(a.cmp(c), Less, "transitivity: {a} < {b} < {c}");
            }
        }
    }
    let mut sorted = pool.clone();
    sorted.sort();
    let mut rng = FuzzRng::new(0x07de7);
    for _ in 0..32 {
        let mut shuffled = pool.clone();
        rng.shuffle(&mut shuffled);
        shuffled.sort();
        assert_eq!(shuffled, sorted, "a shuffle sorted to another sequence");
    }
}

/// Under the cyclic order this panicked inside `slice::sort_by` ("does not
/// correctly implement a total order") — a dead server worker per request.
/// Full sort and top-k both return, sorted under `Term::cmp`, with the
/// reference's rows.
#[test]
fn order_by_over_mixed_integer_and_string_literals_sorts() {
    let mut store = TripleStore::new();
    let p = iri("http://r.example/p");
    for i in 0..5_000_i64 {
        let n = (i * 7_919) % 5_000;
        let o = if i % 2 == 0 {
            Literal::integer(n)
        } else {
            Literal::string(n.to_string())
        };
        store.insert(&Triple::new(
            iri(&format!("http://r.example/s{i}")),
            p.clone(),
            o,
        ));
    }
    for (query, expected_rows) in [
        ("SELECT ?o WHERE { ?s ?p ?o } ORDER BY ?o", 5_000),
        ("SELECT ?o WHERE { ?s ?p ?o } ORDER BY ?o LIMIT 10", 10),
    ] {
        let parsed = hbold_sparql::parse_query(query).unwrap();
        let rows = hbold_sparql::evaluate(&store, &parsed)
            .unwrap()
            .into_select()
            .unwrap()
            .rows;
        assert_eq!(rows.len(), expected_rows, "{query}");
        assert!(
            rows.windows(2).all(|pair| pair[0][0] <= pair[1][0]),
            "{query}: not sorted under Term::cmp"
        );
        let naive = reference::evaluate(&store, &parsed).unwrap();
        assert_eq!(rows, naive.into_select().unwrap().rows, "{query}");
    }
}

/// `MIN`/`MAX` ran on a comparator under which value-equal literals tied, so
/// `{0, "-0.0"^^xsd:double, "00"^^xsd:integer}` had three answers for three
/// insertion orders. Every permutation now gives one.
#[test]
fn min_max_and_order_by_do_not_depend_on_insertion_order() {
    let values = [
        Literal::integer(0),
        Literal::typed("-0.0", xsd::double()),
        Literal::typed("00", xsd::integer()),
    ];
    let p = iri("http://r.example/p");
    let mut answers = std::collections::BTreeSet::new();
    for permutation in [[0, 1, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
        let mut store = TripleStore::new();
        for i in permutation {
            store.insert(&Triple::new(
                iri("http://r.example/s"),
                p.clone(),
                Term::Literal(values[i].clone()),
            ));
        }
        let answer: Vec<_> = [
            "SELECT (MIN(?o) AS ?lo) (MAX(?o) AS ?hi) WHERE { ?s ?p ?o }",
            "SELECT ?o WHERE { ?s ?p ?o } ORDER BY ?o",
            "SELECT ?o WHERE { ?s ?p ?o } ORDER BY DESC(?o) LIMIT 1",
        ]
        .iter()
        .map(|query| checked(&store, query).into_select().unwrap().rows)
        .collect();
        answers.insert(answer);
    }
    assert_eq!(answers.len(), 1, "answers differ by insertion order");
    // The refinement of SPARQL's order: value-equal forms do not tie, they
    // order by lexical form — "-0.0" < "0" < "00".
    let [_, lowest, highest] = values.map(|literal| Some(Term::Literal(literal)));
    let answer = answers.pop_first().unwrap();
    assert_eq!(answer[0], [[lowest, highest.clone()]]);
    assert_eq!(answer[2], [[highest]]);
}

// ---- encoded.rs: one slot per variable, whatever the scopes -----------------------

/// Hand-built deep `OPTIONAL`/`UNION` nesting: a variable appearing in every
/// scope compiles to a single shared slot, and the query passes every leg
/// of the fuzz check on generated stores.
#[test]
fn nested_optional_union_scopes_share_slots() {
    let query = "SELECT ?a ?c ?d WHERE { ?a <http://f.example/p0> ?b \
                 OPTIONAL { { ?a <http://f.example/p1> ?c } UNION \
                 { ?b <http://f.example/p2> ?c OPTIONAL { ?c <http://f.example/p3> ?d } } } } \
                 ORDER BY ?c DESC(?a)";
    let layout = SlotLayout::of_query(&hbold_sparql::parse_query(query).unwrap());
    // ?c appears in both UNION branches and the inner OPTIONAL: one slot.
    assert_eq!(layout.names(), ["a", "b", "c", "d"]);
    for seed in 0..16 {
        checked(&generate_store(&mut FuzzRng::new(seed)), query);
    }
}

// ---- encoded.rs: one row, bound and un-bound around a callback -------------------
//
// The executor walks the plan over the query's single row buffer: a node
// binds its slots, emits, and un-binds on the way back. Each pin below is a
// defect that sharing the row invites — a binding that outlives the node
// that made it, or an error that reads as "nothing matched".

/// `x<i> <p> <o>` for every `(subject, predicate, object)` name triple, the
/// IRIs in `http://u.example/`. Ids follow first mention, so scan order is
/// the order written here.
fn undo_store(triples: &[(&str, &str, &str)]) -> TripleStore {
    let term = |name: &str| iri(&format!("http://u.example/{name}"));
    let mut store = TripleStore::new();
    for (s, p, o) in triples {
        store.insert(&Triple::new(term(s), term(p), term(o)));
    }
    store
}

/// The rows of a fully checked SELECT, cells by their local name.
fn undo_rows(store: &TripleStore, query: &str) -> Vec<Vec<Option<String>>> {
    let query = query.replace('<', "<http://u.example/");
    let rows = checked(store, &query).into_select().unwrap().rows;
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|cell| cell.as_ref().map(|term| term.label().to_string()))
                .collect()
        })
        .collect()
}

fn cells(row: &[&str]) -> Vec<Option<String>> {
    row.iter()
        .map(|cell| (!cell.is_empty()).then(|| cell.to_string()))
        .collect()
}

/// The right side of an `OPTIONAL` binds `?x` in its first stage and finds
/// nothing in its second: the left row survives with `?x` *unbound*, in
/// whichever order the two stages ran.
#[test]
fn an_optional_that_fails_in_its_second_stage_leaves_nothing_bound() {
    let store = undo_store(&[
        ("a", "p", "b"),
        ("a", "q", "x1"),
        ("a", "q", "x2"),
        ("elsewhere", "r", "y"),
        ("c", "p", "d"),
        ("c", "q", "x3"),
        ("x3", "r", "y3"),
    ]);
    let rows = undo_rows(
        &store,
        "SELECT ?s ?x ?y WHERE { ?s <p> ?o OPTIONAL { ?s <q> ?x . ?x <r> ?y } } ORDER BY ?s",
    );
    assert_eq!(rows, [cells(&["a", "", ""]), cells(&["c", "x3", "y3"])]);
    // The same under a join that runs after it: a stale `?x` would turn the
    // last pattern into a lookup of `x2`'s neighbours.
    let rows = undo_rows(
        &store,
        "SELECT ?s ?x ?z WHERE { ?s <p> ?o OPTIONAL { ?s <q> ?x . ?x <r> ?y } . ?z <r> ?w } \
         ORDER BY ?s ?z",
    );
    assert_eq!(
        rows,
        [
            cells(&["a", "", "elsewhere"]),
            cells(&["a", "", "x3"]),
            cells(&["c", "x3", "elsewhere"]),
            cells(&["c", "x3", "x3"]),
        ]
    );
}

/// What one `UNION` branch binds is gone before the other branch runs.
#[test]
fn union_branches_do_not_see_each_others_bindings() {
    let store = undo_store(&[("a", "p", "b"), ("c", "q", "d"), ("a", "q", "e")]);
    let rows = undo_rows(
        &store,
        "SELECT ?s ?x ?y WHERE { { ?s <p> ?x } UNION { ?s <q> ?y } } ORDER BY ?s ?x ?y",
    );
    // Were `?s = a` still bound when the second branch ran, `c q d` would be
    // missing; were `?x`, the `q` rows would carry it.
    assert_eq!(
        rows,
        [
            cells(&["a", "", "e"]),
            cells(&["a", "b", ""]),
            cells(&["c", "", "d"]),
        ]
    );
    // Per input row, too: the union runs once for each `?t`.
    let rows = undo_rows(
        &store,
        "SELECT ?t ?s WHERE { ?t <p> ?b { ?s <p> ?x } UNION { ?s <q> ?y } } ORDER BY ?t ?s ?y",
    );
    assert_eq!(rows.len(), 3);
}

/// A filter's pushed-down pre-bind (`?s = <a>` binds `?s` before the inner
/// scan) is undone when the filter is: the next branch scans every subject.
#[test]
fn a_pushed_prebind_is_restored_after_its_filter() {
    let store = undo_store(&[("a", "p", "b"), ("c", "p", "d"), ("c", "q", "e")]);
    let query = "SELECT ?s ?o WHERE { { ?s <p> ?o FILTER(?s = <a>) } UNION { ?s <q> ?o } } \
                 ORDER BY ?s";
    let parsed = hbold_sparql::parse_query(&query.replace('<', "<http://u.example/")).unwrap();
    assert_eq!(
        explain(&store, &parsed).pushed_filters,
        1,
        "not the pushed shape"
    );
    assert_eq!(
        undo_rows(&store, query),
        [cells(&["a", "b"]), cells(&["c", "e"])]
    );
    // Inside the right side of a left join, once per left row.
    let rows = undo_rows(
        &store,
        "SELECT ?l ?s WHERE { ?l <p> ?m OPTIONAL { ?s <p> ?o FILTER(?s = <a>) } . ?s <p> ?o2 } \
         ORDER BY ?l ?s",
    );
    assert_eq!(rows, [cells(&["a", "a"]), cells(&["c", "a"])]);
}

/// A repeated variable that meets conflicting ids in one quad is un-bound
/// before the next quad is tried — in a triple (`?x ?p ?x`) and across the
/// graph position (`GRAPH ?g { ?g ?p ?o }`).
#[test]
fn repeated_variable_conflicts_unbind_cleanly() {
    // Scanned first: `a r b`, which binds `?x = a` and then conflicts.
    let mut store = undo_store(&[("a", "r", "b"), ("c", "r", "c"), ("d", "r", "a")]);
    assert_eq!(
        undo_rows(&store, "SELECT ?x WHERE { ?x <r> ?x } ORDER BY ?x"),
        [cells(&["c"])]
    );
    assert_eq!(
        undo_rows(
            &store,
            "SELECT ?x ?y WHERE { ?y <r> ?z OPTIONAL { ?x ?p ?x } } ORDER BY ?y"
        ),
        [cells(&["c", "a"]), cells(&["c", "c"]), cells(&["c", "d"])]
    );
    let term = |name: &str| Term::Iri(iri(&format!("http://u.example/{name}")));
    for (s, g) in [("a", "g1"), ("g1", "g1"), ("g2", "g1"), ("g2", "g2")] {
        let triple = Triple::new(term(s), term("r"), term("o"));
        store.insert_quad(&hbold_rdf_model::Quad::new(triple, Some(term(g))));
    }
    assert_eq!(
        undo_rows(
            &store,
            "SELECT ?g WHERE { GRAPH ?g { ?g ?p ?o } } ORDER BY ?g"
        ),
        [cells(&["g1"]), cells(&["g2"])]
    );
}

// ---- encoded.rs: `GRAPH ?g` as a loop over the visible named graphs -------------

/// `GRAPH ?g` with `?g` unbound runs one in-graph scan per named graph the
/// query can see, `?g` bound to it meanwhile. Four shapes that loop must get
/// right, each against the planned, shuffled and reference engines.
#[test]
fn graph_variable_scans_read_each_visible_named_graph() {
    let term = |name: &str| Term::Iri(iri(&format!("http://u.example/{name}")));
    let mut store = undo_store(&[("a", "r", "o"), ("g1", "link", "g2"), ("g3", "link", "a")]);
    let named = |s: &str, g: &str| {
        hbold_rdf_model::Quad::new(Triple::new(term(s), term("r"), term("o")), Some(term(g)))
    };
    for (s, g) in [("a", "g1"), ("g1", "g1"), ("g2", "g2"), ("b", "g3")] {
        store.insert_quad(&named(s, g));
    }
    let ask = |store: &TripleStore, query: &str| {
        let query = query.replace('<', "<http://u.example/");
        checked(store, &query) == QueryResults::Ask(true)
    };

    // `?g` inside its own triple: the graph binds it first, so the subject
    // position reads it as a constant.
    assert_eq!(
        undo_rows(
            &store,
            "SELECT ?g ?o WHERE { GRAPH ?g { ?g ?p ?o } } ORDER BY ?g"
        ),
        [cells(&["g1", "o"]), cells(&["g2", "o"])]
    );
    // `?g` bound by an earlier pattern — in whichever order the scans run:
    // `g1 link g2` scopes the graph pattern to `g2`; `g3 link a` names no
    // graph at all.
    assert_eq!(
        undo_rows(
            &store,
            "SELECT ?x ?g ?s WHERE { ?x <link> ?g . GRAPH ?g { ?s <r> <o> } } ORDER BY ?x ?s"
        ),
        [cells(&["g1", "g2", "g2"])]
    );
    // `FROM NAMED` hides every graph it does not name, also from a constant
    // `GRAPH <g1>`.
    assert_eq!(
        undo_rows(
            &store,
            "SELECT ?g ?s FROM NAMED <g2> FROM NAMED <g3> WHERE { GRAPH ?g { ?s <r> <o> } } \
             ORDER BY ?g ?s"
        ),
        [cells(&["g2", "g2"]), cells(&["g3", "b"])]
    );
    assert!(!ask(
        &store,
        "ASK FROM NAMED <g2> { GRAPH <g1> { ?s ?p ?o } }"
    ));
    // A graph whose quads were all deleted is no graph: its name stays
    // interned, but neither `GRAPH ?g` nor `GRAPH <g3>` finds it.
    assert!(store.remove_quad(&named("b", "g3")));
    assert_eq!(
        undo_rows(
            &store,
            "SELECT ?g (COUNT(*) AS ?n) WHERE { GRAPH ?g { ?s ?p ?o } } GROUP BY ?g ORDER BY ?g"
        ),
        [cells(&["g1", "2"]), cells(&["g2", "1"])]
    );
    assert!(!ask(&store, "ASK { GRAPH <g3> { ?s ?p ?o } }"));
    assert!(ask(&store, "ASK { GRAPH <g2> { ?s ?p ?o } }"));
}

/// Inside the right side of a left join, a tripped token and a `FILTER` that
/// fails hard are the query's typed error — never "the right side did not
/// match", which would hand back the bare left row.
#[test]
fn errors_inside_an_optional_are_errors_not_no_match() {
    use hbold_sparql::{evaluate_with_hooks, CancellationToken, EvalHooks};
    let store = undo_store(&[("a", "p", "b"), ("a", "q", "x1"), ("a", "q", "x2")]);
    let parse =
        |query: &str| hbold_sparql::parse_query(&query.replace('<', "<http://u.example/")).unwrap();
    let query = parse("SELECT ?s ?x WHERE { ?s <p> ?o OPTIONAL { ?s <q> ?x } }");
    let full = hbold_sparql::evaluate(&store, &query).unwrap();
    assert_eq!(full.clone().into_select().unwrap().rows.len(), 2);
    // One check at the root, one for the left quad, one per right quad:
    // tripping after 2 lands inside the right side.
    let mut cancelled = 0;
    for checks in 0..6 {
        let token = CancellationToken::cancel_after_checks(checks);
        let hooks = EvalHooks {
            cancel: Some(&token),
            ..EvalHooks::default()
        };
        match evaluate_with_hooks(&store, &query, &hooks) {
            Err(SparqlError::Cancelled) => cancelled += 1,
            other => assert_eq!(other.unwrap(), full, "tripped after {checks} checks"),
        }
    }
    assert!(cancelled >= 4, "the right side was never cancelled");

    let failing = parse(
        "SELECT ?s ?x WHERE { ?s <p> ?o OPTIONAL { ?s <q> ?x FILTER(regex(STR(?x), \"(\")) } }",
    );
    assert!(reference::evaluate(&store, &failing).is_err());
    assert!(hbold_sparql::evaluate(&store, &failing).is_err());
}

// ---- optimize.rs / encoded.rs: `ORDER BY` that streams in id order -------------
//
// A fresh bulk load numbers the dictionary in term order, so a BGP's nested
// scans emit their variables sorted by `Term::cmp` and an `ORDER BY` over
// exactly those variables, ascending, is planned as `strategy=stream`: no
// sort, a stop after `OFFSET + LIMIT` rows. Each pin checks the plan and the
// answer against the reference and the shuffled orders (which never stream).

/// The `order …` line of the plan, or `""` when it has none.
fn order_line(store: &TripleStore, query: &str) -> String {
    let plan = explain(store, &hbold_sparql::parse_query(query).unwrap()).to_string();
    let line = plan.lines().find(|line| line.starts_with("order "));
    line.unwrap_or_default().to_string()
}

/// `x0 … x5 a <C>`, each with a `v` literal and a link to the next: one
/// fresh bulk load, ids in term order.
fn browse_store() -> TripleStore {
    let term = |name: &str| iri(&format!("http://b.example/{name}"));
    let mut triples = Vec::new();
    for i in 0..6 {
        let s = term(&format!("x{i}"));
        triples.push(Triple::new(
            s.clone(),
            hbold_rdf_model::vocab::rdf::type_(),
            term("C"),
        ));
        triples.push(Triple::new(s.clone(), term("v"), Literal::integer(10 - i)));
        triples.push(Triple::new(
            s,
            term("next"),
            term(&format!("x{}", (i + 1) % 6)),
        ));
    }
    let mut store = TripleStore::new();
    store.insert_batch(triples.iter());
    assert_eq!(store.dictionary().sorted_len(), store.term_count());
    store
}

const BROWSE: &str = "{ ?s a <http://b.example/C> . ?s ?p ?o }";

#[test]
fn only_ascending_keys_equal_to_the_emitted_variables_stream() {
    let store = browse_store();
    for (modifiers, strategy) in [
        (
            "ORDER BY ?s ?p ?o LIMIT 4 OFFSET 3",
            "order strategy=stream",
        ),
        ("ORDER BY ?s ?p ?o", "order strategy=stream"),
        // A descending key reads the order backwards: top-k or sort.
        ("ORDER BY DESC(?s) ?p ?o LIMIT 4", "order strategy=topk k=4"),
        ("ORDER BY ?s ?p DESC(?o)", "order strategy=sort"),
        // A strict prefix ties rows the whole-row tie-break must order.
        ("ORDER BY ?s LIMIT 5", "order strategy=topk k=5"),
        ("ORDER BY ?s ?p LIMIT 5", "order strategy=topk k=5"),
        // Another order of the same variables, or an expression key.
        ("ORDER BY ?p ?s ?o LIMIT 5", "order strategy=topk k=5"),
        (
            "ORDER BY ?s ?p ASC(STR(?o)) LIMIT 5",
            "order strategy=topk k=5",
        ),
    ] {
        let query = format!("SELECT ?s ?p ?o WHERE {BROWSE} {modifiers}");
        assert_eq!(order_line(&store, &query), strategy, "{query}");
        checked(&store, &query);
    }
    // The page is the reference's page.
    let page = checked(
        &store,
        &format!("SELECT * WHERE {BROWSE} ORDER BY ?s ?p ?o LIMIT 4 OFFSET 3"),
    );
    assert_eq!(page.into_select().unwrap().rows.len(), 4);
}

#[test]
fn distinct_order_by_limit_streams_and_cuts_after_dedup() {
    let store = browse_store();
    // DISTINCT on a projection narrower than the keys: the stream dedups
    // in term order, then cuts — a top-k over raw rows would come up short.
    let query = format!("SELECT DISTINCT ?s WHERE {BROWSE} ORDER BY ?s ?p ?o LIMIT 3 OFFSET 1");
    assert_eq!(order_line(&store, &query), "order strategy=stream");
    let rows = checked(&store, &query).into_select().unwrap().rows;
    let labels: Vec<&str> = rows
        .iter()
        .map(|r| r[0].as_ref().unwrap().label())
        .collect();
    assert_eq!(labels, ["x1", "x2", "x3"]);
    let query = "SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o LIMIT 2";
    assert_eq!(order_line(&store, query), "order strategy=stream");
    checked(&store, query);
}

#[test]
fn a_streamed_page_past_the_end_or_of_no_rows_is_empty() {
    let store = browse_store();
    for modifiers in [
        "LIMIT 0",
        "LIMIT 0 OFFSET 2",
        "OFFSET 18",
        "OFFSET 1000 LIMIT 5",
        "OFFSET 9223372036854775807 LIMIT 9223372036854775807",
    ] {
        let query = format!("SELECT * WHERE {BROWSE} ORDER BY ?s ?p ?o {modifiers}");
        assert_eq!(
            order_line(&store, &query),
            "order strategy=stream",
            "{query}"
        );
        let rows = checked(&store, &query).into_select().unwrap().rows;
        assert!(rows.is_empty(), "{query}");
    }
    // The last row, exactly: 6 subjects × 3 triples.
    let query = format!("SELECT * WHERE {BROWSE} ORDER BY ?s ?p ?o OFFSET 17");
    assert_eq!(checked(&store, &query).into_select().unwrap().rows.len(), 1);
}

#[test]
fn ids_of_a_fresh_load_order_mixed_literals_as_the_term_order_does() {
    // Numbers of three types, numeric-looking and plain strings, language
    // tags and ill-typed literals: ids follow `Term::cmp`, so comparing ids
    // is comparing terms.
    let mut objects: Vec<Term> = hbold_sparql_check::fuzz::literal_pool()
        .into_iter()
        .map(Term::Literal)
        .collect();
    objects.push(Term::Literal(Literal::typed("abc", xsd::integer())));
    objects.push(Term::Literal(Literal::lang_string("abc", "en")));
    let p = iri("http://r.example/p");
    let triples: Vec<Triple> = objects
        .iter()
        .enumerate()
        .map(|(i, o)| Triple::new(iri(&format!("http://r.example/s{i}")), p.clone(), o.clone()))
        .collect();
    let mut store = TripleStore::new();
    store.insert_batch(triples.iter());
    let dict = store.dictionary();
    assert_eq!(dict.sorted_len(), dict.len());
    for (a, ta) in dict.iter() {
        for (b, tb) in dict.iter() {
            assert_eq!(a.cmp(&b), ta.cmp(tb), "{ta} vs {tb}");
        }
    }
    for query in [
        "SELECT ?o WHERE { ?s <http://r.example/p> ?o } ORDER BY ?o",
        "SELECT ?o WHERE { ?s <http://r.example/p> ?o } ORDER BY ?o LIMIT 7",
        "SELECT ?o WHERE { ?s <http://r.example/p> ?o } ORDER BY DESC(?o) LIMIT 7",
        "SELECT (MIN(?o) AS ?lo) (MAX(?o) AS ?hi) WHERE { ?s ?p ?o }",
    ] {
        checked(&store, query);
    }
    // `?s <p> ?o` scans GPOS: rows arrive by object, so ordering by it streams.
    let query = "SELECT ?o ?s WHERE { ?s <http://r.example/p> ?o } ORDER BY ?o ?s LIMIT 9";
    assert_eq!(order_line(&store, query), "order strategy=stream");
    let rows = checked(&store, query).into_select().unwrap().rows;
    assert!(rows.windows(2).all(|pair| pair[0][0] <= pair[1][0]));
}

#[test]
fn graph_scopes_and_from_merges_do_not_stream() {
    let term = |name: &str| Term::Iri(iri(&format!("http://b.example/{name}")));
    let mut quads = Vec::new();
    for (g, s) in [("g1", "a"), ("g1", "b"), ("g2", "a"), ("g2", "c")] {
        let triple = Triple::new(term(s), term("p"), term(&format!("{s}-{g}")));
        quads.push(hbold_rdf_model::Quad::new(triple.clone(), Some(term(g))));
        quads.push(hbold_rdf_model::Quad::new(triple, None));
    }
    let mut store = TripleStore::new();
    store.insert_quads_batch(&quads);
    assert_eq!(store.dictionary().sorted_len(), store.term_count());
    for (query, strategy) in [
        (
            "SELECT * WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o LIMIT 3",
            "order strategy=stream",
        ),
        // One `FROM` graph is the default graph, read like it.
        (
            "SELECT * FROM <http://b.example/g1> WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o LIMIT 3",
            "order strategy=stream",
        ),
        // A merge dedups through a set: no scan order survives it.
        (
            "SELECT * FROM <http://b.example/g1> FROM <http://b.example/g2> WHERE { ?s ?p ?o } \
             ORDER BY ?s ?p ?o LIMIT 3",
            "order strategy=topk k=3",
        ),
        (
            "SELECT * WHERE { GRAPH <http://b.example/g2> { ?s ?p ?o } } ORDER BY ?s ?p ?o LIMIT 3",
            "order strategy=topk k=3",
        ),
        (
            "SELECT * WHERE { GRAPH ?g { ?s ?p ?o } } ORDER BY ?g ?s ?p ?o LIMIT 3",
            "order strategy=topk k=3",
        ),
    ] {
        assert_eq!(order_line(&store, query), strategy, "{query}");
        checked(&store, query);
    }
}

/// Interning after the load ends the sorted run: the same page plans as a
/// top-k and answers identically — in memory, and after a restore from a
/// snapshot plus the log's tail.
#[test]
fn an_intern_after_the_load_falls_back_to_topk_with_the_same_answers() {
    use hbold_triple_store::SharedStore;
    let page = format!("SELECT * WHERE {BROWSE} ORDER BY ?s ?p ?o LIMIT 5 OFFSET 2");
    let rows = |store: &TripleStore| checked(store, &page).into_select().unwrap().rows;
    let loaded = browse_store();
    assert_eq!(order_line(&loaded, &page), "order strategy=stream");
    let expected = rows(&loaded);

    let mut grown = loaded.clone();
    grown.insert(&Triple::new(
        iri("http://b.example/fresh"),
        iri("http://b.example/unrelated"),
        Literal::string("fresh"),
    ));
    assert!(grown.dictionary().sorted_len() < grown.term_count());
    assert_eq!(order_line(&grown, &page), "order strategy=topk k=7");
    assert_eq!(rows(&grown), expected);

    let dir = std::env::temp_dir().join(format!("hbold-stream-fallback-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (shared, _) = SharedStore::open(&dir).unwrap();
        shared.bulk_load(loaded.iter().collect::<Vec<_>>().iter());
        assert_eq!(
            order_line(&shared.snapshot(), &page),
            "order strategy=stream"
        );
        // The load is snapshot generation 1; the insert is the log's tail.
        let fresh = Quad::from(Triple::new(
            iri("http://b.example/fresh"),
            iri("http://b.example/unrelated"),
            Literal::string("fresh"),
        ));
        shared.apply_update(|_| (Vec::new(), vec![fresh])).unwrap();
    }
    let (restored, report) = SharedStore::open(&dir).unwrap();
    assert_eq!(
        (report.snapshot_generation, report.wal_ops_replayed),
        (Some(1), 1)
    );
    let snapshot = restored.snapshot();
    assert_eq!(snapshot.dictionary().sorted_len(), loaded.term_count());
    assert_eq!(order_line(&snapshot, &page), "order strategy=topk k=7");
    assert_eq!(rows(&snapshot), expected);
    drop(restored);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- encoded.rs: what ORDER BY can see ---------------------------------------------
//
// SPARQL groups and extends each solution by the SELECT expressions before
// it orders (§18.2.4–18.2.5), so ORDER BY sees every GROUP BY key, projected
// or not, and every alias. Both sorted as unbound, and the rows fell to the
// tie-break; the reference shared that code, so the fuzz check agreed.

/// The one column of `query`'s answer over a store with predicate `a` on
/// three subjects, `b` on one and `c` on two, after every leg of the check.
fn column(query: &str) -> Vec<String> {
    let mut store = TripleStore::new();
    for (p, n) in [("a", 3), ("b", 1), ("c", 2)] {
        for i in 0..n {
            let s = iri(&format!("http://e.org/s{i}"));
            store.insert(&Triple::new(
                s,
                iri(&format!("http://e.org/{p}")),
                iri("http://e.org/o"),
            ));
        }
    }
    let rows = checked(&store, query).into_select().unwrap().rows;
    rows.iter()
        .map(|row| row[0].as_ref().unwrap().label().to_string())
        .collect()
}

#[test]
fn order_by_an_unprojected_group_key_descending() {
    let query = "SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY DESC(?p)";
    assert_eq!(column(query), ["2", "1", "3"]);
}

#[test]
fn order_by_an_unprojected_group_key_ascending() {
    let query = "SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY ?p";
    assert_eq!(column(query), ["3", "1", "2"]);
}

#[test]
fn order_by_an_expression_of_an_unprojected_group_key_under_limit() {
    let query = "SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p \
                 ORDER BY DESC(STR(?p)) LIMIT 2";
    assert_eq!(column(query), ["2", "1"]);
}

#[test]
fn order_by_a_select_alias() {
    let query = "SELECT (STR(?p) AS ?x) WHERE { ?s ?p ?o } ORDER BY DESC(?x) LIMIT 3";
    let c = "http://e.org/c";
    assert_eq!(column(query), [c, c, "http://e.org/b"]);
}
