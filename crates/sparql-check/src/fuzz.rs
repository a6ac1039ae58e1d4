//! Grammar-based SPARQL fuzzing: generators plus differential harnesses for
//! queries and updates.
//!
//! Every case is derived from a single `u64` seed through a self-contained
//! SplitMix64 generator, so any failure reproduces exactly from its seed —
//! no corpus files, no global state. A case builds a small adversarial
//! dataset (default graph plus a scatter of named-graph quads) and a random
//! query AST covering the full implemented surface (nested
//! `OPTIONAL`/`UNION`, `GRAPH` groups over constants and variables,
//! `FROM`/`FROM NAMED` dataset clauses, every `FILTER` operator and
//! function, `DISTINCT`, `ORDER BY`, `LIMIT`/`OFFSET` in all combinations,
//! `GROUP BY` with aggregates, and every literal shape: typed numerics at
//! the `i64`/`f64` boundary, `NaN`, language tags, strings needing
//! CSV/TSV/JSON escaping) — or, for a fixed share of seeds, a query in the
//! shape of schema extraction (a short `?s a <C> . ?s ?p ?o . ?o a ?t` chain,
//! grouped and aggregated, with and without `ORDER BY … LIMIT`, or one
//! pattern under ungrouped counts, the triple count's shape) or of a
//! browse page (`?s a <C> . ?s ?p ?o ORDER BY ?s ?p ?o`, and orders next to
//! it that must not stream). The store is loaded one quad at a time, in one
//! fresh bulk load (its ids then in term order, where `ORDER BY` can stream)
//! or a fresh load followed by single inserts. Then it checks, via
//! [`check_case`]:
//!
//! 1. **Syntax round-trip** — the query survives pretty-print → parse →
//!    pretty-print → parse with a stable AST ([`crate::pretty`] is a
//!    fixpoint on parser output), and the plan cache answers the printed
//!    text with that AST.
//! 2. **Differential evaluation** — the engine under its cost-based plan,
//!    the engine with every BGP's patterns in a seeded random permutation
//!    ([`evaluate_shuffled`]; filter pushdown stays on, an `ORDER BY` never
//!    streams), and the naive [`crate::reference`] evaluator all agree:
//!    exact row sequences under
//!    `ORDER BY`, identical multisets otherwise, and a sub-multiset + count
//!    check for the implementation-defined unordered `LIMIT`/`OFFSET` cut.
//!    If the reference rejects the query, the engine must too. The planner
//!    may change plans, never results — over arbitrary join orders, on
//!    graphs with heavy cardinality skew (hub predicates, star subjects).
//!    The slot layout the engine compiles is checked on its own: a dense
//!    bijection of slots and names, the pattern variables first in
//!    first-appearance order, every projected, grouped and ordered variable
//!    resolving to the slot of its name.
//! 3. **Serialization round-trip** — the result survives SPARQL-JSON and
//!    TSV encode/decode losslessly, and the CSV output parses back (via
//!    [`CsvTable`]) to exactly the term string values. On the JSON document
//!    the codec itself is checked too: the tree parsed from it renders the
//!    encoder's bytes and re-parses to itself, the document with every
//!    object's members in a seeded shuffled order decodes to the same
//!    result, and no proper prefix of it decodes at all.
//! 4. **Every physical shape** — the store's quads held the other ways the
//!    server can hold them give the same answer, the exact sequence under
//!    `ORDER BY`, and an ordered answer is non-decreasing under `Term::cmp`:
//!    re-inserted one by one in a seeded shuffle (other ids, other scan
//!    orders); restored from the store's snapshot; replayed from a seeded
//!    log of deltas into an empty store; with flat, delta and tombstone
//!    tiers all non-empty; and with junk terms interned between the
//!    logical ones, so that runs take the sparse directory, which lists
//!    their sorted second ids (HDT's Y level). The engine and the
//!    reference share the term order by design, so this — with the
//!    exhaustive order test in `tests/fuzz_regressions.rs` — is what checks
//!    the order itself. [`Coverage`] counts the cases whose churned and
//!    sparse shapes reached their tier states.
//!
//! [`check_update_case`] is the update-side counterpart: it generates a
//! random sequence of SPARQL 1.1 Update requests (`INSERT DATA` / `DELETE
//! DATA` / `DELETE WHERE` / `DELETE ... INSERT ... WHERE`, with `GRAPH`
//! scoping throughout) interleaved with probe queries. Each request must
//! survive the print → parse fixpoint, and is applied to *two* stores in
//! lockstep — one through the engine-planned path
//! ([`hbold_sparql::apply_updates`]), one through the naive-reference path
//! ([`reference::apply_updates`]) — after which the stores'
//! full quad sets and mutation counts must be identical, the engine
//! store's snapshot must restore to the same quads (the next request is
//! applied to that restore), and every probe query must pass the complete
//! differential check above.
//!
//! Reproducing a failure: the harness in `tests/fuzz_differential.rs` prints
//! the offending seed; re-run just that case with
//! `HBOLD_FUZZ_SEED=<seed> cargo test -p hbold_sparql --test fuzz_differential`,
//! then shrink by hand — the failure message embeds the generated query text,
//! which is usually a few clauses and minimizes quickly by deleting parts.
//! `HBOLD_FUZZ_CASES` scales the sweep (default 2048; CI smoke uses the same).

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

use hbold_rdf_model::vocab::{rdf, xsd};
use hbold_rdf_model::{BlankNode, Iri, Literal, Quad, Term, Triple};
use hbold_telemetry::json::JsonValue;
use hbold_triple_store::persist::{snapshot, WalOp};
use hbold_triple_store::TripleStore;

use hbold_sparql::ast::*;
use hbold_sparql::expr::term_string_value;
use hbold_sparql::{
    apply_updates, evaluate_with_hooks, explain, parse_cached, parse_query, parse_update, CsvTable,
    EvalHooks, QueryResults, SelectResults, SlotLayout, SparqlError,
};

use crate::pretty::{print_query, print_update};
use crate::reference;

/// A tiny deterministic RNG (SplitMix64) so the fuzzer needs no external
/// crates and every case is a pure function of its seed.
#[derive(Debug, Clone)]
pub struct FuzzRng(u64);

impl FuzzRng {
    /// Creates a generator from a seed; equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        FuzzRng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` must be non-zero). The modulo
    /// bias is irrelevant for fuzzing purposes.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// `true` with probability `percent / 100`.
    pub fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// A second stream derived from this one's state, which stays as it
    /// is: a choice added to a generator draws from a fork, so every draw
    /// the generator made before keeps its value.
    pub fn fork(&self) -> FuzzRng {
        FuzzRng(self.0 ^ 0xD1B5_4A32_D192_ED03)
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn iri(s: &str) -> Iri {
    Iri::new(s).expect("generator IRIs are valid")
}

fn subject_iris() -> Vec<Iri> {
    (0..6)
        .map(|i| iri(&format!("http://f.example/s{i}")))
        .collect()
}

fn predicate_iris() -> Vec<Iri> {
    let mut p: Vec<Iri> = (0..4)
        .map(|i| iri(&format!("http://f.example/p{i}")))
        .collect();
    p.push(rdf::type_());
    p
}

fn class_iris() -> Vec<Iri> {
    (0..3)
        .map(|i| iri(&format!("http://f.example/C{i}")))
        .collect()
}

fn graph_iris() -> Vec<Iri> {
    (0..3)
        .map(|i| iri(&format!("http://f.example/g{i}")))
        .collect()
}

/// The adversarial literal pool: numeric boundary values, `NaN`, ill-formed
/// typed literals, language tags, and strings exercising every escape path
/// of the CSV/TSV/JSON encoders.
pub fn literal_pool() -> Vec<Literal> {
    let mut pool = vec![
        Literal::integer(0),
        Literal::integer(1),
        Literal::integer(-1),
        Literal::integer(5),
        Literal::integer(i64::MAX),
        Literal::integer(i64::MIN),
        Literal::double(2.5),
        Literal::double(-0.0),
        Literal::double(1e300),
        // Largest f64 strictly below 2^63: the float→int narrowing boundary.
        Literal::double(9_223_372_036_854_774_784.0),
        Literal::typed("NaN", xsd::double()),
        // Ill-formed: lexical form does not match the datatype.
        Literal::typed("abc", xsd::integer()),
        Literal::boolean(true),
        Literal::boolean(false),
        Literal::date_time_from_unix(0),
        Literal::date_time_from_unix(86_400),
        Literal::lang_string("hello", "en"),
        Literal::lang_string("hello", "en-GB"),
        Literal::lang_string("bonjour", "fr"),
    ];
    for s in [
        "",
        "a",
        "plain value",
        "comma,separated",
        "quo\"ted",
        "line\nbreak",
        "tab\there",
        "carriage\rreturn",
        "back\\slash",
        "mixed,\"\n\t\r\\end",
        "uni – ö",
        "\u{1}control",
    ] {
        pool.push(Literal::string(s));
    }
    // What a term order has to survive: numeric-looking plain strings,
    // value-equal forms of one number / boolean / instant, integers that
    // only an exact comparison tells apart from the double 2^53, the
    // infinities and a second `NaN`.
    for s in ["5", "10", "-1"] {
        pool.push(Literal::string(s));
    }
    for (lexical, datatype) in [
        ("01", xsd::integer()),
        ("+1", xsd::integer()),
        ("1.0", xsd::double()),
        ("1", xsd::decimal()),
        ("1", xsd::boolean()),
        ("+9007199254740993", xsd::integer()),
        ("9007199254740992", xsd::integer()),
        ("09007199254740992.0", xsd::double()),
        ("INF", xsd::double()),
        ("-INF", xsd::double()),
        ("NaN", xsd::float()),
        // The instant of `date_time_from_unix(0)` under another offset.
        ("1970-01-01T01:00:00+01:00", xsd::date_time()),
    ] {
        pool.push(Literal::typed(lexical, datatype));
    }
    pool
}

/// How many distinct blank nodes the generated stores draw from.
const BLANKS: u64 = 3;

/// Every term a generated store or query can hold: the literal pool, the
/// IRI pools and the blank nodes — what the exhaustive term-order test
/// walks.
pub fn term_pool() -> Vec<Term> {
    let iris = [subject_iris(), predicate_iris(), class_iris(), graph_iris()];
    let mut pool: Vec<Term> = literal_pool().into_iter().map(Term::Literal).collect();
    pool.extend(iris.into_iter().flatten().map(Term::Iri));
    pool.extend((0..BLANKS).map(|n| Term::Blank(BlankNode::numbered(n))));
    pool
}

/// Builds a small random graph over the fixed IRI pools, blank nodes and the
/// adversarial literal pool.
///
/// Four shape modes: uniform (the original distribution, half the cases),
/// **hub-predicate** skew (~80% of a larger triple count share one
/// predicate) and **star-subject** skew (~75% share one subject). The
/// skewed modes give the cost-based optimizer real cardinality spreads to
/// exploit — and the differential harness a chance to catch it changing
/// results rather than just plans.
///
/// The quads then go in one of three ways, which decide the store's ids: one
/// at a time (ids in arrival order), in one fresh bulk load (ids in term
/// order throughout, so `ORDER BY` may stream) or a fresh load of a prefix
/// followed by the rest one at a time (a sorted run, then interns past it —
/// the live store after an update).
pub fn generate_store(rng: &mut FuzzRng) -> TripleStore {
    let subjects = subject_iris();
    let predicates = predicate_iris();
    let classes = class_iris();
    let literals = literal_pool();
    let mut quads: Vec<Quad> = Vec::new();
    let mode = rng.below(4);
    let triples = match mode {
        0 | 1 => 6 + rng.below(24),
        _ => 20 + rng.below(40),
    };
    let hub_predicate = rng.pick(&predicates).clone();
    let star_subject = rng.pick(&subjects).clone();
    let random_object = |rng: &mut FuzzRng| match rng.below(10) {
        0..=3 => Term::Literal(rng.pick(&literals).clone()),
        4..=5 => Term::Iri(rng.pick(&subjects).clone()),
        6..=7 => Term::Iri(rng.pick(&classes).clone()),
        8 => Term::Blank(BlankNode::numbered(rng.below(BLANKS as usize) as u64)),
        _ => Term::Iri(rng.pick(&predicates).clone()),
    };
    for _ in 0..triples {
        let s = if mode == 3 && rng.chance(75) {
            star_subject.clone()
        } else {
            rng.pick(&subjects).clone()
        };
        let p = if mode == 2 && rng.chance(80) {
            hub_predicate.clone()
        } else {
            rng.pick(&predicates).clone()
        };
        let o = random_object(rng);
        quads.push(Quad::from(Triple::new(s, p, o)));
    }
    // A scatter of named-graph quads (over the same term pools, so graph
    // scopes overlap the default graph's data): `GRAPH` patterns, dataset
    // clauses and update templates all need named graphs to bite on.
    let graphs = graph_iris();
    for _ in 0..rng.below(12) {
        let g = rng.pick(&graphs).clone();
        let s = rng.pick(&subjects).clone();
        let p = rng.pick(&predicates).clone();
        let o = random_object(rng);
        quads.push(Quad::new(Triple::new(s, p, o), Some(g.into())));
    }
    let loaded = match rng.below(3) {
        0 => 0,
        1 => quads.len(),
        _ => rng.below(quads.len() + 1),
    };
    let mut store = TripleStore::new();
    store.insert_quads_batch(&quads[..loaded]);
    for quad in &quads[loaded..] {
        store.insert_quad(quad);
    }
    store
}

const VARS: [&str; 6] = ["s", "p", "o", "x", "y", "z"];

fn random_var(rng: &mut FuzzRng) -> String {
    rng.pick(&VARS).to_string()
}

/// A query-safe constant: any term except blank nodes (which have no query
/// syntax in this subset and would break the print → parse round-trip).
fn random_constant(rng: &mut FuzzRng) -> Term {
    match rng.below(10) {
        0..=5 => Term::Literal(rng.pick(&literal_pool()).clone()),
        6..=7 => Term::Iri(rng.pick(&subject_iris()).clone()),
        8 => Term::Iri(rng.pick(&class_iris()).clone()),
        _ => Term::Iri(rng.pick(&predicate_iris()).clone()),
    }
}

fn random_triple_pattern(rng: &mut FuzzRng) -> TriplePatternAst {
    let subject = if rng.chance(60) {
        TermOrVariable::Variable(random_var(rng))
    } else {
        TermOrVariable::Term(Term::Iri(rng.pick(&subject_iris()).clone()))
    };
    let predicate = if rng.chance(40) {
        TermOrVariable::Variable(random_var(rng))
    } else {
        TermOrVariable::Term(Term::Iri(rng.pick(&predicate_iris()).clone()))
    };
    let object = if rng.chance(50) {
        TermOrVariable::Variable(random_var(rng))
    } else {
        TermOrVariable::Term(random_constant(rng))
    };
    TriplePatternAst {
        subject,
        predicate,
        object,
    }
}

fn random_bgp(rng: &mut FuzzRng) -> GraphPattern {
    let n = 1 + rng.below(3);
    GraphPattern::Bgp((0..n).map(|_| random_triple_pattern(rng)).collect())
}

/// A valid pattern for the built-in regex engine: concatenated simple atoms,
/// optional anchors, optional top-level alternation and grouping.
pub fn random_regex_pattern(rng: &mut FuzzRng) -> String {
    fn concat(rng: &mut FuzzRng) -> String {
        const ATOMS: [&str; 12] = [
            "a", "b", "s", "l", ".", "[ab]", "[^b]", "a*", "b+", "e?", "(a|l)", "\\.",
        ];
        let n = 1 + rng.below(3);
        (0..n).map(|_| *rng.pick(&ATOMS)).collect()
    }
    let mut pattern = concat(rng);
    if rng.chance(25) {
        pattern = format!("{pattern}|{}", concat(rng));
    }
    if rng.chance(30) {
        pattern = format!("^{pattern}");
    }
    if rng.chance(30) {
        pattern = format!("{pattern}$");
    }
    pattern
}

/// A string-valued operand over a variable: `?v`, `STR(?v)` or `LANG(?v)`.
fn string_operand(rng: &mut FuzzRng) -> Expression {
    let var = Expression::Variable(random_var(rng));
    match rng.below(3) {
        0 => var,
        1 => Expression::Function {
            func: Function::Str,
            args: vec![var],
        },
        _ => Expression::Function {
            func: Function::Lang,
            args: vec![var],
        },
    }
}

/// A random filter condition covering every supported operator and function.
pub fn random_condition(rng: &mut FuzzRng, depth: usize) -> Expression {
    if depth > 0 && rng.chance(35) {
        let a = Box::new(random_condition(rng, depth - 1));
        let b = Box::new(random_condition(rng, depth - 1));
        return match rng.below(3) {
            0 => Expression::Or(a, b),
            1 => Expression::And(a, b),
            _ => Expression::Not(a),
        };
    }
    match rng.below(10) {
        0 => Expression::Function {
            func: Function::Bound,
            args: vec![Expression::Variable(random_var(rng))],
        },
        1 => {
            let func = *rng.pick(&[Function::IsIri, Function::IsLiteral, Function::IsBlank]);
            Expression::Function {
                func,
                args: vec![Expression::Variable(random_var(rng))],
            }
        }
        2 => {
            let func = *rng.pick(&[Function::Contains, Function::StrStarts, Function::StrEnds]);
            let needle = *rng.pick(&["", "a", "s", "val", ",", "\""]);
            Expression::Function {
                func,
                args: vec![
                    string_operand(rng),
                    Expression::Constant(Term::Literal(Literal::string(needle))),
                ],
            }
        }
        3 => {
            let mut args = vec![
                string_operand(rng),
                Expression::Constant(Term::Literal(Literal::string(random_regex_pattern(rng)))),
            ];
            if rng.chance(50) {
                let flags = *rng.pick(&["i", "s", "m", "x", "im", "is", ""]);
                args.push(Expression::Constant(Term::Literal(Literal::string(flags))));
            }
            Expression::Function {
                func: Function::Regex,
                args,
            }
        }
        4 => Expression::Comparison {
            op: random_comparison_op(rng),
            left: Box::new(Expression::Function {
                func: *rng.pick(&[Function::Str, Function::Datatype, Function::Lang]),
                args: vec![Expression::Variable(random_var(rng))],
            }),
            right: Box::new(Expression::Constant(random_constant(rng))),
        },
        5 => Expression::Comparison {
            op: random_comparison_op(rng),
            left: Box::new(Expression::Variable(random_var(rng))),
            right: Box::new(Expression::Variable(random_var(rng))),
        },
        _ => Expression::Comparison {
            op: random_comparison_op(rng),
            left: Box::new(Expression::Variable(random_var(rng))),
            right: Box::new(Expression::Constant(random_constant(rng))),
        },
    }
}

fn random_comparison_op(rng: &mut FuzzRng) -> ComparisonOp {
    *rng.pick(&[
        ComparisonOp::Eq,
        ComparisonOp::Ne,
        ComparisonOp::Lt,
        ComparisonOp::Le,
        ComparisonOp::Gt,
        ComparisonOp::Ge,
    ])
}

/// A random `GRAPH` group name: a variable, a graph IRI the generated
/// stores actually populate, or (rarely) one they never do.
fn random_graph_name(rng: &mut FuzzRng) -> TermOrVariable {
    if rng.chance(50) {
        TermOrVariable::Variable(random_var(rng))
    } else if rng.chance(85) {
        TermOrVariable::Term(Term::Iri(rng.pick(&graph_iris()).clone()))
    } else {
        TermOrVariable::Term(Term::Iri(iri("http://f.example/absent-graph")))
    }
}

/// `allow_graph` is `false` inside a `GRAPH` group: the parser rejects
/// nested `GRAPH`, so the generator must never print one.
fn random_pattern(rng: &mut FuzzRng, depth: usize, allow_graph: bool) -> GraphPattern {
    if depth == 0 {
        return random_bgp(rng);
    }
    match rng.below(if allow_graph { 10 } else { 8 }) {
        0 | 1 => random_bgp(rng),
        2 => GraphPattern::Join(vec![
            random_pattern(rng, depth - 1, allow_graph),
            random_pattern(rng, depth - 1, allow_graph),
        ]),
        3 => GraphPattern::Optional {
            left: Box::new(random_pattern(rng, depth - 1, allow_graph)),
            right: Box::new(random_pattern(rng, depth - 1, allow_graph)),
        },
        4 => GraphPattern::Optional {
            left: Box::new(GraphPattern::empty()),
            right: Box::new(random_pattern(rng, depth - 1, allow_graph)),
        },
        5 => GraphPattern::Union(
            Box::new(random_pattern(rng, depth - 1, allow_graph)),
            Box::new(random_pattern(rng, depth - 1, allow_graph)),
        ),
        8 | 9 => GraphPattern::Graph {
            name: random_graph_name(rng),
            inner: Box::new(random_pattern(rng, depth - 1, false)),
        },
        _ => GraphPattern::Filter {
            inner: Box::new(random_pattern(rng, depth - 1, allow_graph)),
            condition: random_condition(rng, 2),
        },
    }
}

/// Interesting LIMIT/OFFSET values: zero, small, larger than any result set,
/// and the `i64::MAX` extreme that once overflowed top-k heap sizing.
fn random_cut_value(rng: &mut FuzzRng) -> usize {
    *rng.pick(&[
        0,
        1,
        2,
        3,
        5,
        8,
        1_000,
        i64::MAX as usize - 1,
        i64::MAX as usize,
    ])
}

/// Random `FROM` / `FROM NAMED` clauses (usually none — the store dataset
/// stays in effect for most cases).
fn random_dataset(rng: &mut FuzzRng) -> Dataset {
    if !rng.chance(15) {
        return Dataset::default();
    }
    let graphs = graph_iris();
    let pick = |rng: &mut FuzzRng| -> Vec<Term> {
        (0..rng.below(3))
            .map(|_| Term::Iri(rng.pick(&graphs).clone()))
            .collect()
    };
    Dataset {
        default_graphs: pick(rng),
        named_graphs: pick(rng),
    }
}

/// The `i`-th aggregate column of a generated projection, `(... AS ?agg<i>)`:
/// any of the five functions, `DISTINCT` or not, over `arg` — or, for some
/// `COUNT`s, over `*`.
fn random_aggregate(rng: &mut FuzzRng, i: usize, arg: String) -> ProjectionItem {
    let func = *rng.pick(&[
        AggregateFunction::Count,
        AggregateFunction::Sum,
        AggregateFunction::Avg,
        AggregateFunction::Min,
        AggregateFunction::Max,
    ]);
    let arg = if func == AggregateFunction::Count && rng.chance(30) {
        None // COUNT(*)
    } else {
        Some(Box::new(Expression::Variable(arg)))
    };
    ProjectionItem::Expression {
        expr: Expression::Aggregate {
            func,
            distinct: rng.chance(30),
            arg,
        },
        alias: format!("agg{i}"),
    }
}

/// A query in the shape of H-BOLD's schema extraction: one to three patterns
/// of the link-count chain `?s <p> <C> . ?s ?p ?o . ?o <q> ?x` — the last one
/// sometimes under `OPTIONAL`, so that a group key can be unbound — grouped by
/// zero to two of its variables, with one or two aggregates of any function,
/// with and without `ORDER BY … LIMIT` — or, for some seeds, one pattern
/// of it (or a random one) counted ([`generate_lone_count_query`]). The
/// general generator reaches these shapes only by accident; the grouped tail
/// is where the extraction workload lives.
fn generate_extraction_query(rng: &mut FuzzRng) -> Query {
    let var = |name: &str| TermOrVariable::Variable(name.to_string());
    let predicate =
        |rng: &mut FuzzRng| TermOrVariable::Term(Term::Iri(rng.pick(&predicate_iris()).clone()));
    let mut chain = vec![
        TriplePatternAst {
            subject: var("s"),
            predicate: predicate(rng),
            object: if rng.chance(50) {
                TermOrVariable::Term(Term::Iri(rng.pick(&class_iris()).clone()))
            } else {
                var("y")
            },
        },
        TriplePatternAst {
            subject: var("s"),
            predicate: var("p"),
            object: var("o"),
        },
        TriplePatternAst {
            subject: var("o"),
            predicate: predicate(rng),
            object: var("x"),
        },
    ];
    if rng.chance(30) {
        let lone = match rng.chance(30) {
            true => random_triple_pattern(rng),
            false => chain.swap_remove(rng.below(3)),
        };
        return generate_lone_count_query(rng, lone);
    }
    // One pattern is the plain `?s ?p ?o` scan.
    match rng.below(3) {
        0 => chain = vec![chain.swap_remove(1)],
        1 => chain.truncate(2),
        _ => {}
    }
    let pattern = if chain.len() > 1 && rng.chance(40) {
        let last = chain.pop().expect("the chain has two patterns or more");
        GraphPattern::Optional {
            left: Box::new(GraphPattern::Bgp(chain)),
            right: Box::new(GraphPattern::Bgp(vec![last])),
        }
    } else {
        GraphPattern::Bgp(chain)
    };

    let pattern_vars = pattern.variables();
    let mut group_by: Vec<String> = Vec::new();
    for _ in 0..rng.below(3) {
        let key = rng.pick(&pattern_vars);
        if !group_by.contains(key) {
            group_by.push(key.clone());
        }
    }
    let mut items: Vec<ProjectionItem> = group_by
        .iter()
        .map(|v| ProjectionItem::Variable(v.clone()))
        .collect();
    let mut orderable = group_by.clone();
    for i in 0..1 + rng.below(2) {
        let arg = rng.pick(&pattern_vars).clone();
        items.push(random_aggregate(rng, i, arg));
        orderable.push(format!("agg{i}"));
    }
    let ordered = rng.chance(50);
    let order_by = (0..if ordered { 1 + rng.below(2) } else { 0 })
        .map(|_| OrderCondition {
            expr: Expression::Variable(rng.pick(&orderable).clone()),
            descending: rng.chance(50),
        })
        .collect();
    Query {
        form: QueryForm::Select {
            distinct: rng.chance(10),
            projection: Projection::Items(items),
        },
        dataset: Dataset::default(),
        pattern,
        group_by,
        order_by,
        limit: rng
            .chance(if ordered { 60 } else { 15 })
            .then(|| random_cut_value(rng)),
        offset: rng.chance(15).then(|| random_cut_value(rng)),
    }
}

/// A query in the shape of the extraction's triple count: `lone`, sometimes
/// scoped to a graph and sometimes under dataset clauses, with one or two
/// counts of `*` or of its variables and no `GROUP BY` — the tail the
/// planner reads off the index directory — or, now and then, a count next to
/// them that it cannot read there (`DISTINCT`, or of a variable the pattern
/// does not bind). Ordered, cut, `DISTINCT` at random.
fn generate_lone_count_query(rng: &mut FuzzRng, lone: TriplePatternAst) -> Query {
    let mut pattern = GraphPattern::Bgp(vec![lone]);
    let pattern_vars = pattern.variables();
    if rng.chance(20) {
        pattern = GraphPattern::Graph {
            name: random_graph_name(rng),
            inner: Box::new(pattern),
        };
    }
    let mut items = Vec::new();
    for i in 0..1 + rng.below(2) {
        let arg = match rng.below(10) {
            0 => Some("w".to_string()),
            1..=4 => None,
            _ => pattern_vars
                .get(rng.below(pattern_vars.len().max(1)))
                .cloned(),
        };
        items.push(ProjectionItem::Expression {
            expr: Expression::Aggregate {
                func: AggregateFunction::Count,
                distinct: rng.chance(10),
                arg: arg.map(|v| Box::new(Expression::Variable(v))),
            },
            alias: format!("agg{i}"),
        });
    }
    let order_by = match rng.chance(30) {
        true => vec![OrderCondition {
            expr: Expression::Variable("agg0".to_string()),
            descending: rng.chance(50),
        }],
        false => Vec::new(),
    };
    Query {
        form: QueryForm::Select {
            distinct: rng.chance(10),
            projection: Projection::Items(items),
        },
        dataset: random_dataset(rng),
        pattern,
        group_by: vec![],
        order_by,
        limit: rng.chance(20).then(|| random_cut_value(rng)),
        offset: rng.chance(15).then(|| random_cut_value(rng)),
    }
}

/// A query in the shape of a browse page: `?s <p> <C> . ?s ?p ?o` (or the
/// bare `?s ?p ?o` scan), sometimes under a `FILTER`, ordered by `?s ?p ?o`
/// — the order its scans bind them in, which streams on a store whose ids
/// are term order — or by a variation that must not stream: a `DESC` key, a
/// strict prefix of the three (rows then tie), another order. `DISTINCT`,
/// `LIMIT` and `OFFSET` at random.
fn generate_browse_query(rng: &mut FuzzRng) -> Query {
    let var = |name: &str| TermOrVariable::Variable(name.to_string());
    let mut patterns = vec![TriplePatternAst {
        subject: var("s"),
        predicate: var("p"),
        object: var("o"),
    }];
    if rng.chance(70) {
        let class = TermOrVariable::Term(Term::Iri(rng.pick(&class_iris()).clone()));
        let predicate = TermOrVariable::Term(Term::Iri(rng.pick(&predicate_iris()).clone()));
        patterns.insert(
            rng.below(2),
            TriplePatternAst {
                subject: var("s"),
                predicate,
                object: class,
            },
        );
    }
    let mut pattern = GraphPattern::Bgp(patterns);
    if rng.chance(25) {
        pattern = GraphPattern::Filter {
            inner: Box::new(pattern),
            condition: random_condition(rng, 1),
        };
    }
    let mut keys = vec!["s", "p", "o"];
    match rng.below(5) {
        0 => keys.truncate(1 + rng.below(2)),
        1 => rng.shuffle(&mut keys),
        _ => {}
    }
    let order_by = keys
        .into_iter()
        .map(|key| OrderCondition {
            expr: Expression::Variable(key.to_string()),
            descending: rng.chance(10),
        })
        .collect();
    let items: Vec<ProjectionItem> = ["s", "p", "o"]
        .into_iter()
        .filter(|_| rng.chance(70))
        .map(|v| ProjectionItem::Variable(v.to_string()))
        .collect();
    let projection = match items.is_empty() || rng.chance(30) {
        true => Projection::Star,
        false => Projection::Items(items),
    };
    Query {
        form: QueryForm::Select {
            distinct: rng.chance(25),
            projection,
        },
        dataset: random_dataset(rng),
        pattern,
        group_by: vec![],
        order_by,
        limit: rng.chance(80).then(|| random_cut_value(rng)),
        offset: rng.chance(50).then(|| random_cut_value(rng)),
    }
}

/// Share of generated queries, in percent, that take the extraction shape
/// ([`generate_extraction_query`]) instead of the general grammar.
const EXTRACTION_SHARE: usize = 20;

/// Share of generated queries, in percent, that take the browse shape
/// ([`generate_browse_query`]).
const BROWSE_SHARE: usize = 10;

/// Generates a random query over the full supported surface.
pub fn generate_query(rng: &mut FuzzRng) -> Query {
    if rng.chance(EXTRACTION_SHARE) {
        return generate_extraction_query(rng);
    }
    if rng.chance(BROWSE_SHARE) {
        return generate_browse_query(rng);
    }
    let pattern = random_pattern(rng, 2, true);
    let dataset = random_dataset(rng);
    if rng.chance(10) {
        return Query {
            form: QueryForm::Ask,
            dataset,
            pattern,
            group_by: vec![],
            order_by: vec![],
            limit: None,
            offset: None,
        };
    }

    let pattern_vars = pattern.variables();
    let distinct = rng.chance(25);
    let aggregated = rng.chance(25);
    // The choices below that the main stream never made — an unprojected
    // `GROUP BY` key, an `ORDER BY` on an alias or on that key — draw from
    // a fork, so the queries the main stream draws are what they were.
    let mut side = rng.fork();
    let mut side_order: Option<String> = None;

    // `orderable` lists the names ORDER BY may reference: for grouped queries
    // only grouped variables and aggregate aliases are in scope; for plain
    // queries any pattern variable is (ordering happens before projection).
    let (projection, group_by, orderable): (Projection, Vec<String>, Vec<String>) = if aggregated {
        let mut group_by: Vec<String> = Vec::new();
        for var in &pattern_vars {
            if group_by.len() < 2 && rng.chance(40) {
                group_by.push(var.clone());
            }
        }
        // A key may stay out of the projection, still in scope to order by.
        let hidden = (!group_by.is_empty() && side.chance(30))
            .then(|| group_by[side.below(group_by.len())].clone());
        if side.chance(60) {
            side_order = hidden.clone();
        }
        let mut items: Vec<ProjectionItem> = group_by
            .iter()
            .filter(|v| Some(*v) != hidden.as_ref())
            .map(|v| ProjectionItem::Variable(v.clone()))
            .collect();
        let mut orderable = group_by.clone();
        for i in 0..1 + rng.below(2) {
            let arg = random_var(rng);
            items.push(random_aggregate(rng, i, arg));
            orderable.push(format!("agg{i}"));
        }
        (Projection::Items(items), group_by.clone(), orderable)
    } else if rng.chance(25) || pattern_vars.is_empty() {
        (Projection::Star, vec![], pattern_vars.clone())
    } else {
        let mut projected: Vec<String> = pattern_vars
            .iter()
            .filter(|_| rng.chance(60))
            .cloned()
            .collect();
        if projected.is_empty() {
            projected.push(pattern_vars[0].clone());
        }
        let mut items: Vec<ProjectionItem> = projected
            .iter()
            .map(|v| ProjectionItem::Variable(v.clone()))
            .collect();
        if rng.chance(20) {
            items.push(ProjectionItem::Expression {
                expr: Expression::Function {
                    func: *rng.pick(&[Function::Str, Function::Datatype, Function::Lang]),
                    args: vec![Expression::Variable(random_var(rng))],
                },
                alias: "e0".to_string(),
            });
            // The alias is in scope for ORDER BY too.
            if side.chance(50) {
                side_order = Some("e0".to_string());
            }
        }
        (Projection::Items(items), vec![], pattern_vars.clone())
    };

    let mut order_by: Vec<OrderCondition> = if !orderable.is_empty() && rng.chance(40) {
        (0..1 + rng.below(2))
            .map(|_| {
                let name = rng.pick(&orderable).clone();
                let expr = if group_by.is_empty() && rng.chance(25) {
                    Expression::Function {
                        func: Function::Str,
                        args: vec![Expression::Variable(name)],
                    }
                } else {
                    Expression::Variable(name)
                };
                OrderCondition {
                    expr,
                    descending: rng.chance(50),
                }
            })
            .collect()
    } else {
        vec![]
    };
    if let Some(name) = side_order {
        let at = side.below(order_by.len() + 1);
        let descending = side.chance(50);
        order_by.insert(
            at,
            OrderCondition {
                expr: Expression::Variable(name),
                descending,
            },
        );
    }

    // LIMIT/OFFSET are generated with and without ORDER BY: the unordered
    // cut is implementation-defined row-wise but still pinned down by a
    // sub-multiset + count check.
    let limit = rng.chance(35).then(|| random_cut_value(rng));
    let offset = rng.chance(25).then(|| random_cut_value(rng));

    Query {
        form: QueryForm::Select {
            distinct,
            projection,
        },
        dataset,
        pattern,
        group_by,
        order_by,
        limit,
        offset,
    }
}

// ---- update generation ------------------------------------------------------

/// Ground quads for `INSERT DATA` / `DELETE DATA`, drawn from the same term
/// pools as the store generator so deletes have data to hit.
fn random_quad_data(rng: &mut FuzzRng) -> Vec<QuadData> {
    (0..1 + rng.below(3))
        .map(|_| QuadData {
            graph: rng
                .chance(50)
                .then(|| Term::Iri(rng.pick(&graph_iris()).clone())),
            subject: Term::Iri(rng.pick(&subject_iris()).clone()),
            predicate: Term::Iri(rng.pick(&predicate_iris()).clone()),
            object: random_constant(rng),
        })
        .collect()
}

/// Quad patterns for `DELETE WHERE`: default-graph, constant-graph and
/// graph-variable scopes all appear.
fn random_quad_patterns(rng: &mut FuzzRng) -> Vec<QuadPatternAst> {
    (0..1 + rng.below(2))
        .map(|_| QuadPatternAst {
            graph: match rng.below(4) {
                0 => None,
                1 => Some(TermOrVariable::Variable(random_var(rng))),
                _ => Some(TermOrVariable::Term(Term::Iri(
                    rng.pick(&graph_iris()).clone(),
                ))),
            },
            triple: random_triple_pattern(rng),
        })
        .collect()
}

/// A `DELETE`/`INSERT` template over the WHERE clause's variables. A small
/// share of positions use a variable *not* bound by the WHERE clause,
/// exercising the silent-skip rule for unbound template variables.
fn random_template(rng: &mut FuzzRng, vars: &[String]) -> Vec<QuadPatternAst> {
    let node = |rng: &mut FuzzRng, ground: Term| -> TermOrVariable {
        if !vars.is_empty() && rng.chance(55) {
            TermOrVariable::Variable(rng.pick(vars).clone())
        } else if rng.chance(15) {
            TermOrVariable::Variable(random_var(rng))
        } else {
            TermOrVariable::Term(ground)
        }
    };
    (0..1 + rng.below(2))
        .map(|_| {
            let subject = {
                let ground = Term::Iri(rng.pick(&subject_iris()).clone());
                node(rng, ground)
            };
            let predicate = {
                let ground = Term::Iri(rng.pick(&predicate_iris()).clone());
                node(rng, ground)
            };
            let object = {
                let ground = random_constant(rng);
                node(rng, ground)
            };
            let graph = match rng.below(4) {
                0 | 1 => None,
                2 => Some(TermOrVariable::Term(Term::Iri(
                    rng.pick(&graph_iris()).clone(),
                ))),
                _ => {
                    let ground = Term::Iri(rng.pick(&graph_iris()).clone());
                    Some(node(rng, ground))
                }
            };
            QuadPatternAst {
                graph,
                triple: TriplePatternAst {
                    subject,
                    predicate,
                    object,
                },
            }
        })
        .collect()
}

/// Generates one random SPARQL 1.1 Update operation.
pub fn generate_update_op(rng: &mut FuzzRng) -> Update {
    match rng.below(10) {
        0..=3 => Update::InsertData(random_quad_data(rng)),
        4..=5 => Update::DeleteData(random_quad_data(rng)),
        6..=7 => Update::DeleteWhere(random_quad_patterns(rng)),
        _ => {
            let pattern = random_pattern(rng, 1, true);
            let vars = pattern.variables();
            let delete = if rng.chance(70) {
                random_template(rng, &vars)
            } else {
                Vec::new()
            };
            let insert = if delete.is_empty() || rng.chance(60) {
                random_template(rng, &vars)
            } else {
                Vec::new()
            };
            Update::Modify {
                delete,
                insert,
                pattern,
            }
        }
    }
}

// ---- the differential + round-trip checker ---------------------------------

type RenderedRow = Vec<Option<String>>;

fn rendered_rows(results: &SelectResults) -> Vec<RenderedRow> {
    results
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|cell| cell.as_ref().map(|t| t.to_ntriples()))
                .collect()
        })
        .collect()
}

fn check_select_equivalent(
    query: &Query,
    expected: &SelectResults,
    actual: &SelectResults,
    uncut_reference: Option<&SelectResults>,
    label: &str,
) -> Result<(), String> {
    if expected.variables != actual.variables {
        return Err(format!(
            "{label}: projected variables differ: {:?} vs {:?}",
            expected.variables, actual.variables
        ));
    }
    if !query.order_by.is_empty() {
        // ORDER BY pins the exact sequence (ties broken deterministically by
        // the shared comparator).
        let ea = rendered_rows(expected);
        let aa = rendered_rows(actual);
        if ea != aa {
            return Err(format!("{label}: ordered rows differ:\n  {ea:?}\n  {aa:?}"));
        }
        return Ok(());
    }
    if let Some(full) = uncut_reference {
        // Unordered LIMIT/OFFSET: each engine may keep different rows, but
        // must keep the right *number* of rows and only rows the uncut query
        // produces (with multiplicity).
        let mut remaining: HashMap<RenderedRow, isize> = HashMap::new();
        for row in rendered_rows(full) {
            *remaining.entry(row).or_insert(0) += 1;
        }
        let total = full.rows.len();
        let after_offset = total.saturating_sub(query.offset.unwrap_or(0));
        let expected_count = after_offset.min(query.limit.unwrap_or(usize::MAX));
        if actual.rows.len() != expected_count {
            return Err(format!(
                "{label}: unordered cut kept {} rows, expected {expected_count} (total {total})",
                actual.rows.len()
            ));
        }
        for row in rendered_rows(actual) {
            let n = remaining.entry(row.clone()).or_insert(0);
            *n -= 1;
            if *n < 0 {
                return Err(format!(
                    "{label}: row {row:?} not in (or over-represented vs) the uncut reference result"
                ));
            }
        }
        return Ok(());
    }
    let mut ea = rendered_rows(expected);
    let mut aa = rendered_rows(actual);
    ea.sort();
    aa.sort();
    if ea != aa {
        return Err(format!(
            "{label}: row multisets differ:\n  {ea:?}\n  {aa:?}"
        ));
    }
    Ok(())
}

fn check_equivalent(
    query: &Query,
    expected: &QueryResults,
    actual: &QueryResults,
    uncut_reference: Option<&SelectResults>,
    label: &str,
) -> Result<(), String> {
    match (expected, actual) {
        (QueryResults::Ask(a), QueryResults::Ask(b)) => {
            if a != b {
                return Err(format!("{label}: ASK disagreement ({a} vs {b})"));
            }
            Ok(())
        }
        (QueryResults::Select(e), QueryResults::Select(a)) => {
            check_select_equivalent(query, e, a, uncut_reference, label)
        }
        _ => Err(format!("{label}: result kinds differ")),
    }
}

/// An ordered answer is non-decreasing under `Term::cmp` on its `ORDER BY`
/// keys — read off the leading conditions that are projected variables,
/// since rows sorted on all keys are sorted on any prefix of them.
fn check_sorted(query: &Query, results: &QueryResults) -> Result<(), String> {
    let QueryResults::Select(select) = results else {
        return Ok(());
    };
    let columns: Vec<(usize, bool)> = query
        .order_by
        .iter()
        .map_while(|cond| match &cond.expr {
            Expression::Variable(v) => select.variables.iter().position(|name| name == v),
            _ => None,
        })
        .zip(query.order_by.iter().map(|cond| cond.descending))
        .collect();
    for pair in select.rows.windows(2) {
        for &(column, descending) in &columns {
            let (a, b) = (&pair[0][column], &pair[1][column]);
            match if descending { b.cmp(a) } else { a.cmp(b) } {
                Ordering::Less => break,
                Ordering::Equal => {}
                Ordering::Greater => {
                    return Err(format!(
                        "ordered rows decrease under Term::cmp on ?{}: {a:?} before {b:?}",
                        select.variables[column]
                    ))
                }
            }
        }
    }
    Ok(())
}

/// The slot layout compiled for `query` is a dense bijection between slots
/// and names, puts the pattern variables first in first-appearance order,
/// and resolves every variable the query projects, groups or orders by, and
/// every `SELECT` alias, to the slot carrying that name.
fn check_slots(query: &Query) -> Result<(), String> {
    fn variables(expr: &Expression, out: &mut Vec<String>) {
        match expr {
            Expression::Variable(v) => out.push(v.clone()),
            Expression::Constant(_) | Expression::Aggregate { arg: None, .. } => {}
            Expression::Not(inner)
            | Expression::Aggregate {
                arg: Some(inner), ..
            } => variables(inner, out),
            Expression::Or(a, b)
            | Expression::And(a, b)
            | Expression::Comparison {
                left: a, right: b, ..
            } => {
                variables(a, out);
                variables(b, out);
            }
            Expression::Function { args, .. } => args.iter().for_each(|a| variables(a, out)),
        }
    }
    let layout = SlotLayout::of_query(query);
    let pattern_vars = query.pattern.variables();
    let leading: Vec<&str> = (0..layout.pattern_vars() as u32)
        .map(|slot| layout.name_of(slot))
        .collect();
    if leading != pattern_vars {
        return Err(format!(
            "slot layout: leading slots {leading:?}, pattern variables {pattern_vars:?}"
        ));
    }
    for slot in 0..layout.len() as u32 {
        let name = layout.name_of(slot);
        if layout.slot_of(name) != Some(slot) {
            return Err(format!(
                "slot layout: slot {slot} holds ?{name}, which resolves elsewhere"
            ));
        }
    }
    let mut referenced = query.group_by.clone();
    if let QueryForm::Select {
        projection: Projection::Items(items),
        ..
    } = &query.form
    {
        for item in items {
            match item {
                ProjectionItem::Variable(v) => referenced.push(v.clone()),
                ProjectionItem::Expression { expr, alias } => {
                    variables(expr, &mut referenced);
                    referenced.push(alias.clone());
                }
            }
        }
    }
    for cond in &query.order_by {
        variables(&cond.expr, &mut referenced);
    }
    match referenced
        .iter()
        .find(|v| layout.slot_of(v).map(|slot| layout.name_of(slot)) != Some(v.as_str()))
    {
        Some(v) => Err(format!(
            "slot layout: ?{v} does not resolve to its own slot"
        )),
        None => Ok(()),
    }
}

/// JSON, TSV and CSV round-trip checks on a concrete result.
fn check_serialization(results: &QueryResults, seed: u64) -> Result<(), String> {
    let json = results.to_sparql_json();
    let back = QueryResults::from_sparql_json(&json)
        .map_err(|e| format!("JSON round-trip: decoder rejected own output: {e}\n{json}"))?;
    match (results, &back) {
        (QueryResults::Ask(a), QueryResults::Ask(b)) if a == b => {}
        (QueryResults::Select(a), QueryResults::Select(b))
            if a.variables == b.variables && a.rows == b.rows => {}
        _ => return Err(format!("JSON round-trip changed the result:\n{json}")),
    }
    check_json_codec(&json, &back, seed)?;

    let select = match results {
        QueryResults::Select(s) => s,
        QueryResults::Ask(_) => return Ok(()),
    };

    let tsv = select.to_tsv();
    let back = SelectResults::from_tsv(&tsv)
        .map_err(|e| format!("TSV round-trip: decoder rejected own output: {e}\n{tsv:?}"))?;
    if back.variables != select.variables || back.rows != select.rows {
        return Err(format!("TSV round-trip changed the result:\n{tsv:?}"));
    }

    let csv = select.to_csv();
    let table = CsvTable::parse(&csv)
        .map_err(|e| format!("CSV parse of own output failed: {e}\n{csv:?}"))?;
    // CSV is lossy by design (string values only), so the check is against
    // the expected *strings*. A zero-variable table serializes as blank
    // lines, which read back as a single empty field per record.
    let expected_header: Vec<String> = if select.variables.is_empty() {
        vec![String::new()]
    } else {
        select.variables.clone()
    };
    if table.header != expected_header {
        return Err(format!(
            "CSV header mismatch: {:?} vs {:?}",
            table.header, expected_header
        ));
    }
    if table.rows.len() != select.rows.len() {
        return Err(format!(
            "CSV row count mismatch: {} vs {}",
            table.rows.len(),
            select.rows.len()
        ));
    }
    for (parsed, row) in table.rows.iter().zip(&select.rows) {
        let expected: Vec<String> = if select.variables.is_empty() {
            vec![String::new()]
        } else {
            row.iter()
                .map(|cell| cell.as_ref().map(term_string_value).unwrap_or_default())
                .collect()
        };
        if *parsed != expected {
            return Err(format!("CSV cell mismatch: {parsed:?} vs {expected:?}"));
        }
    }
    Ok(())
}

/// What the JSON codec owes the wire, on one results document that decodes
/// to `decoded`: the tree and the encoder write the same bytes, a document
/// with its members in any other order decodes to the same result, and so
/// does one whose strings are spelled with other escapes, and no truncation
/// of it decodes at all.
fn check_json_codec(json: &str, decoded: &QueryResults, seed: u64) -> Result<(), String> {
    let mut tree = JsonValue::parse(json).map_err(|e| format!("tree rejected {json}: {e}"))?;
    // No numbers in a results document, so the tree's rendering is not just
    // a document that re-parses to an equal tree: it is this document.
    let rendered = tree.to_string();
    if rendered != json {
        return Err(format!("tree and encoder disagree:\n{rendered}\n{json}"));
    }

    fn shuffle_members(value: &mut JsonValue, rng: &mut FuzzRng) {
        match value {
            JsonValue::Object(members) => {
                rng.shuffle(members);
                members
                    .iter_mut()
                    .for_each(|(_, v)| shuffle_members(v, rng));
            }
            JsonValue::Array(items) => items.iter_mut().for_each(|v| shuffle_members(v, rng)),
            _ => {}
        }
    }
    shuffle_members(&mut tree, &mut FuzzRng::new(seed));
    let shuffled = tree.to_string();
    if QueryResults::from_sparql_json(&shuffled).as_ref() != Ok(decoded) {
        return Err(format!(
            "member order changed the decoded result:\n{shuffled}"
        ));
    }

    let escaped = re_escaped(json, &mut FuzzRng::new(!seed));
    if QueryResults::from_sparql_json(&escaped).as_ref() != Ok(decoded) {
        return Err(format!(
            "re-escaping (seed {seed}) changed the decoded result:\n{escaped}"
        ));
    }

    // Every cut of a short document. A long one is cut one byte in `stride`
    // (which byte, the seed says) and everywhere in its closing brackets, so
    // that the work stays linear in its length.
    let stride = (json.len() / 2048 + 1) as u64;
    let offset = seed % stride;
    let sampled = |i: usize| (i as u64 + offset).is_multiple_of(stride) || i + 16 > json.len();
    for cut in (0..json.len()).filter(|&i| sampled(i) && json.is_char_boundary(i)) {
        if let Ok(accepted) = QueryResults::from_sparql_json(&json[..cut]) {
            return Err(format!(
                "decoder accepted a document cut at byte {cut}: {accepted:?}\n{json}"
            ));
        }
    }
    Ok(())
}

/// `json` with a quarter of its strings' characters, drawn by `rng`, spelled
/// as escapes the encoder never writes: `\/` for half of the `/`s, `\u00XX`
/// for ASCII, `\uXXXX` for the rest of the BMP and a surrogate pair for an
/// astral character. The encoder's own escapes are copied as they are.
fn re_escaped(json: &str, rng: &mut FuzzRng) -> String {
    let mut out = String::with_capacity(2 * json.len());
    let mut in_string = false;
    let mut chars = json.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => in_string = !in_string,
            '\\' if in_string => {
                out.push(c);
                let escaped = chars.next().expect("an escape has a character");
                out.push(escaped);
                if escaped == 'u' {
                    out.extend(chars.by_ref().take(4));
                }
                continue;
            }
            _ if !in_string || !rng.chance(25) => {}
            '/' if rng.chance(50) => {
                out.push_str("\\/");
                continue;
            }
            _ => {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
                continue;
            }
        }
        out.push(c);
    }
    out
}

/// Evaluates `query` with every BGP's triple patterns executed in a random
/// permutation drawn from `seed` instead of the cost-based order (filter
/// pushdown unchanged), through [`EvalHooks::join_order`]. Also returns how
/// many BGPs thereby ran in an order other than the one the planner would
/// have picked.
pub fn evaluate_shuffled(
    store: &TripleStore,
    query: &Query,
    seed: u64,
) -> (Result<QueryResults, SparqlError>, usize) {
    let rng = RefCell::new(FuzzRng::new(seed));
    let non_default = Cell::new(0);
    let shuffle = |planned: Vec<usize>| {
        let mut order = planned.clone();
        rng.borrow_mut().shuffle(&mut order);
        non_default.set(non_default.get() + usize::from(order != planned));
        order
    };
    let hooks = EvalHooks {
        join_order: Some(&shuffle),
        ..EvalHooks::default()
    };
    let result = evaluate_with_hooks(store, query, &hooks);
    (result, non_default.get())
}

/// Evaluates `query` under its planned join order, adding the run's scan
/// probes to `coverage`: one window of the flat tier, merged.
fn evaluate_counted(
    store: &TripleStore,
    query: &Query,
    coverage: &mut Coverage,
) -> Result<QueryResults, SparqlError> {
    let probes = Cell::new([0; 2]);
    let hooks = EvalHooks {
        scan_probes: Some(&probes),
        ..EvalHooks::default()
    };
    let result = evaluate_with_hooks(store, query, &hooks);
    let [windows, merged] = probes.get();
    coverage.window_probes += windows as usize;
    coverage.merged_probes += merged as usize;
    result
}

/// What one fuzz case exercised — the sweep sums these and fails when a kind
/// of case it exists to cover stopped being generated.
#[derive(Debug, Clone, Copy, Default)]
pub struct Coverage {
    /// BGPs the shuffled leg ran in a non-default order.
    pub reordered_bgps: usize,
    /// Cases whose plan has a group stage (aggregates and/or `GROUP BY`).
    pub grouped: usize,
    /// Cases whose plan orders through the bounded top-k heap.
    pub topk: usize,
    /// Grouped cases whose plan orders the group stage's rows through the
    /// top-k heap.
    pub grouped_topk: usize,
    /// Cases whose plan streams its `ORDER BY` (rows in term order off a
    /// store whose ids are term order).
    pub streamed: usize,
    /// Cases whose plan reads its counts off the index directory.
    pub counted: usize,
    /// Counted cases whose churned shape reached its tier state and was
    /// counted too.
    pub counted_churned: usize,
    /// Counted cases whose sparse shape reached its tier state and was
    /// counted too.
    pub counted_sparse: usize,
    /// Cases whose churned shape had its flat, delta and tombstone tiers
    /// all non-empty at query time.
    pub churned: usize,
    /// Cases whose sparse shape had a run with a sparse directory (its
    /// sorted distinct second ids beside their offsets), read off the
    /// store's tier sizes.
    pub sparse: usize,
    /// Scan probes, over the planned run and every physical shape's, that
    /// one window of the flat tier answered.
    pub window_probes: usize,
    /// Scan probes, likewise, that churn reached into: the merged scan.
    pub merged_probes: usize,
    /// Cases that order by a `SELECT` expression's alias.
    pub alias_ordered: usize,
    /// Grouped cases that order by a `GROUP BY` key they do not project.
    pub hidden_key_ordered: usize,
}

impl std::ops::AddAssign for Coverage {
    fn add_assign(&mut self, other: Coverage) {
        self.reordered_bgps += other.reordered_bgps;
        self.grouped += other.grouped;
        self.topk += other.topk;
        self.grouped_topk += other.grouped_topk;
        self.streamed += other.streamed;
        self.counted += other.counted;
        self.counted_churned += other.counted_churned;
        self.counted_sparse += other.counted_sparse;
        self.churned += other.churned;
        self.sparse += other.sparse;
        self.window_probes += other.window_probes;
        self.merged_probes += other.merged_probes;
        self.alias_ordered += other.alias_ordered;
        self.hidden_key_ordered += other.hidden_key_ordered;
    }
}

/// The variables `query`'s `ORDER BY` conditions name bare.
fn ordered_variables(query: &Query) -> impl Iterator<Item = &String> {
    query.order_by.iter().filter_map(|c| match &c.expr {
        Expression::Variable(v) => Some(v),
        _ => None,
    })
}

/// Whether `query` orders by the alias of one of its `SELECT` expressions.
fn orders_by_alias(query: &Query) -> bool {
    let QueryForm::Select {
        projection: Projection::Items(items),
        ..
    } = &query.form
    else {
        return false;
    };
    ordered_variables(query).any(|v| {
        items.iter().any(|item| {
            matches!(item, ProjectionItem::Expression { expr, alias }
                if alias == v && !matches!(expr, Expression::Aggregate { .. }))
        })
    })
}

/// Whether `query` orders by a `GROUP BY` key it does not project.
fn orders_by_hidden_key(query: &Query) -> bool {
    let QueryForm::Select {
        projection: Projection::Items(items),
        ..
    } = &query.form
    else {
        return false;
    };
    let projected = |v: &String| {
        items
            .iter()
            .any(|item| matches!(item, ProjectionItem::Variable(p) if p == v))
    };
    ordered_variables(query).any(|v| query.group_by.contains(v) && !projected(v))
}

/// Runs one full fuzz case for `seed`; `Err` carries a reproduction report
/// (seed + generated query + what diverged), `Ok` what the case covered.
pub fn check_case(seed: u64) -> Result<Coverage, String> {
    let mut rng = FuzzRng::new(seed);
    let store = generate_store(&mut rng);
    let query = generate_query(&mut rng);
    check_query(&store, &query, rng.next_u64(), &format!("seed {seed}"))
}

/// All four legs (syntax round-trip, three-way differential evaluation,
/// serialization round-trips, every physical shape) for one query against
/// one store. Shared by the query cases, the probe queries of the update
/// cases and the pinned regressions. Returns what the case covered, read
/// off the plan the engine actually ran and the shapes it was run on.
pub fn check_query(
    store: &TripleStore,
    query: &Query,
    shuffle_seed: u64,
    context: &str,
) -> Result<Coverage, String> {
    let printed = print_query(query);
    let fail = |msg: String| format!("{context}: {msg}\n  query: {printed}");

    // Leg 1: parse → pretty-print → re-parse fixpoint, and the plan cache
    // serves the printed text's own plan.
    let ast =
        parse_query(&printed).map_err(|e| fail(format!("printed query does not parse: {e}")))?;
    let cached = parse_cached(&printed)
        .map_err(|e| fail(format!("the plan cache rejects the printed query: {e}")))?;
    if *cached != ast {
        return Err(fail(format!(
            "the plan cache serves another plan:\n  cached: {}",
            print_query(&cached)
        )));
    }
    let reprinted = print_query(&ast);
    let ast2 = parse_query(&reprinted).map_err(|e| {
        fail(format!(
            "re-printed query does not parse: {e}\n  reprint: {reprinted}"
        ))
    })?;
    if ast != ast2 {
        return Err(fail(format!(
            "print → parse is not a fixpoint:\n  first:  {printed}\n  second: {reprinted}"
        )));
    }

    // Leg 2: differential evaluation — the cost-based plan and a shuffled
    // join order, both against the naive reference, on the slot layout the
    // engine compiles. The planner can change plans, never results.
    check_slots(&ast).map_err(&fail)?;
    let naive = reference::evaluate(store, &ast);
    let (shuffled, reordered_bgps) = evaluate_shuffled(store, &ast, shuffle_seed);
    let tail = explain(store, &ast).to_string();
    let (grouped, topk) = (
        tail.contains("\ngroup strategy="),
        tail.contains("\norder strategy=topk"),
    );
    let mut coverage = Coverage {
        reordered_bgps,
        grouped: usize::from(grouped),
        topk: usize::from(topk),
        grouped_topk: usize::from(grouped && topk),
        streamed: usize::from(tail.contains("\norder strategy=stream")),
        counted: usize::from(tail.contains("\ngroup strategy=count")),
        alias_ordered: usize::from(orders_by_alias(&ast)),
        hidden_key_ordered: usize::from(orders_by_hidden_key(&ast)),
        ..Coverage::default()
    };
    let planned = evaluate_counted(store, &ast, &mut coverage);

    let expected = match naive {
        Err(e) => {
            if planned.is_ok() || shuffled.is_ok() {
                return Err(fail(format!(
                    "reference rejected the query ({e}) but the engine accepted it \
                     (planned ok: {}, shuffled ok: {})",
                    planned.is_ok(),
                    shuffled.is_ok()
                )));
            }
            return Ok(coverage);
        }
        Ok(results) => results,
    };
    let planned = planned.map_err(|e| fail(format!("engine failed, reference succeeded: {e}")))?;
    let shuffled = shuffled.map_err(|e| {
        fail(format!(
            "engine under a shuffled join order failed, reference succeeded: {e}"
        ))
    })?;

    // For an unordered cut we additionally need the uncut reference rows.
    let uncut = if ast.order_by.is_empty()
        && (ast.limit.is_some() || ast.offset.is_some())
        && matches!(expected, QueryResults::Select(_))
    {
        let mut uncut_query = ast.clone();
        uncut_query.limit = None;
        uncut_query.offset = None;
        let full = reference::evaluate(store, &uncut_query)
            .map_err(|e| fail(format!("uncut reference evaluation failed: {e}")))?;
        full.into_select()
    } else {
        None
    };

    check_equivalent(&ast, &expected, &planned, uncut.as_ref(), "planned").map_err(&fail)?;
    check_equivalent(&ast, &expected, &shuffled, uncut.as_ref(), "shuffled").map_err(&fail)?;
    // The reference result itself must satisfy the cut-count invariant too.
    if let (Some(full), QueryResults::Select(exp)) = (&uncut, &expected) {
        check_select_equivalent(&ast, exp, exp, Some(full), "reference").map_err(&fail)?;
    }

    // Leg 3: serialization round-trips on the engine's result.
    check_serialization(&planned, shuffle_seed).map_err(&fail)?;

    // Leg 4: every physical shape. Engine and oracle share `Ord for Term`
    // on purpose, so their agreeing says nothing about the order itself,
    // and they read one store, so it says nothing about the others the
    // server can hold the same quads in; this leg does. Each shape has
    // other ids, tiers or directories, and must still give the reference's
    // answer — the exact sequence under ORDER BY, the same MIN/MAX — and an
    // ordered answer must be sorted under `Term::cmp`.
    let (shapes, reached) = physical_shapes(store, !shuffle_seed).map_err(&fail)?;
    coverage += reached;
    for (shape, reshaped) in shapes {
        let answer = evaluate_counted(&reshaped, &ast, &mut coverage);
        let answer =
            answer.map_err(|e| fail(format!("engine failed on the {shape} store: {e}")))?;
        check_equivalent(&ast, &expected, &answer, uncut.as_ref(), shape).map_err(&fail)?;
        check_sorted(&ast, &answer).map_err(|e| fail(format!("{shape}: {e}")))?;
        let counted = || {
            let plan = explain(&reshaped, &ast).to_string();
            usize::from(plan.contains("\ngroup strategy=count"))
        };
        match shape {
            "churned" if coverage.counted > 0 => {
                coverage.counted_churned = reached.churned * counted()
            }
            "sparse" if coverage.counted > 0 => {
                coverage.counted_sparse = reached.sparse * counted()
            }
            _ => {}
        }
    }
    Ok(coverage)
}

/// The fewest quads that leave room for the churned shape: the churn tiers
/// may hold one key per 16 flat keys (the store's `FOLD_RATIO`), and that
/// shape keeps two there, a tombstone and a delta key.
const CHURN_ROOM: usize = 32;

/// One row of leg 4's table: the name a failure report gives the shape, and
/// the store in it.
type Shape = (&'static str, TripleStore);

/// Leg 4's table: the quads of `store` in every physical shape the server
/// can hold them in, each under the name a failure report gives it, and
/// whether the churned and sparse rows reached the tier state they exist
/// for. Every row holds the same logical quad set.
///
/// * `permuted` — inserted one by one in a seeded shuffle: other ids, other
///   scan orders.
/// * `restored` — `store` through a snapshot and back, as a restart loads
///   it: `from_gspo`'s counting passes and a rebuilt directory.
/// * `replayed` — committed as a seeded log of deltas and replayed into an
///   empty store, as recovery does: the first record a fresh load, the rest
///   a few quads each through the churn tiers and their folds, some
///   removing a quad a later record adds back.
/// * `churned` — flat, delta and tombstone tiers all non-empty at query
///   time (only from [`CHURN_ROOM`] quads up).
/// * `sparse` — junk terms interned between the logical ones, so that a
///   run's id span outgrows its key count and its directory lists its
///   sorted second ids instead of spanning them.
fn physical_shapes(store: &TripleStore, seed: u64) -> Result<(Vec<Shape>, Coverage), String> {
    let mut rng = FuzzRng::new(seed);
    let mut quads: Vec<Quad> = store.iter_quads().collect();
    rng.shuffle(&mut quads);

    let mut permuted = TripleStore::new();
    for quad in &quads {
        permuted.insert_quad(quad);
    }
    let restored = snapshot::decode(&snapshot::encode(store))
        .map_err(|e| format!("the store's snapshot does not decode: {e}"))?;
    let mut replayed = TripleStore::new();
    for record in wal_records(&quads, &mut rng) {
        record.apply(&mut replayed);
    }
    let sparse = sparse(&quads);
    let tiers = |store: &TripleStore| store.index_tier_sizes().map(|(_, sizes)| sizes);
    let mut reached = Coverage {
        sparse: usize::from(tiers(&sparse).iter().any(|t| t.sparse_runs > 0)),
        ..Coverage::default()
    };
    let mut shapes = vec![
        ("permuted", permuted),
        ("restored", restored),
        ("replayed", replayed),
        ("sparse", sparse),
    ];
    if let Some(churned) = churned(&quads) {
        reached.churned = usize::from(
            tiers(&churned)
                .iter()
                .all(|t| t.flat > 0 && t.delta > 0 && t.dead > 0),
        );
        shapes.push(("churned", churned));
    }
    Ok((shapes, reached))
}

/// `quads` as the log records of a seeded run of commits: chunks of random
/// size, the first one half the set or more but not all of it. Now and then
/// a record also removes a quad an earlier one inserted and puts it back on
/// the pile, so a later record adds it again; a quarter of the set at most,
/// so the log ends.
fn wal_records(quads: &[Quad], rng: &mut FuzzRng) -> Vec<WalOp> {
    let mut pending = quads.to_vec();
    let mut present: Vec<Quad> = Vec::new();
    let mut removals = quads.len() / 4;
    let mut records = Vec::new();
    let mut chunk = quads.len().div_ceil(2) + rng.below((quads.len() / 2).max(1));
    while !pending.is_empty() {
        let inserts: Vec<Quad> = pending.drain(..chunk.min(pending.len())).collect();
        let mut removes = Vec::new();
        if removals > 0 && !present.is_empty() && rng.chance(30) {
            removals -= 1;
            let quad = present.swap_remove(rng.below(present.len()));
            pending.push(quad.clone());
            removes.push(quad);
        }
        present.extend(inserts.iter().cloned());
        records.push(WalOp { removes, inserts });
        chunk = 1 + rng.below(4);
    }
    records
}

/// A fresh load of every quad but the last plus one extra — a quad the set
/// lacks, sharing its graph, subject and predicate with a quad it holds, so
/// scans walk past it — then the extra removed (a tombstone over a flat
/// key) and the last quad inserted (a delta key). `None` below
/// [`CHURN_ROOM`] quads, where either change would fold.
fn churned(quads: &[Quad]) -> Option<TripleStore> {
    let (last, rest) = quads.split_last().filter(|_| quads.len() >= CHURN_ROOM)?;
    let extra = Quad {
        object: Term::Iri(iri("http://f.example/churned")),
        ..rest[0].clone()
    };
    if quads.contains(&extra) {
        return None;
    }
    let mut store = TripleStore::new();
    store.insert_quads_batch(rest.iter().chain([&extra]));
    store.remove_quad(&extra);
    store.insert_quad(last);
    Some(store)
}

/// The quads one by one, each followed by a junk quad of three fresh terms
/// that is inserted and removed again. The dictionary keeps the junk
/// (interning is append-only), so the logical ids lie apart throughout and
/// a run's span outgrows its keys. A junk block before the load would not
/// do: a run's directory starts at its own smallest id.
fn sparse(quads: &[Quad]) -> TripleStore {
    let mut store = TripleStore::new();
    for (i, quad) in quads.iter().enumerate() {
        store.insert_quad(quad);
        let junk = |part: &str| iri(&format!("http://f.example/junk{i}{part}"));
        let junk = Quad::from(Triple::new(junk("s"), junk("p"), junk("o")));
        if store.insert_quad(&junk) {
            store.remove_quad(&junk);
        }
    }
    store
}

/// The full quad set of a store as N-Quads lines, for whole-store diffing.
fn store_fingerprint(store: &TripleStore) -> BTreeSet<String> {
    store.iter_quads().map(|q| q.to_nquads()).collect()
}

/// Runs one update-sequence fuzz case for `seed`: a random interleaving of
/// SPARQL 1.1 Update requests and probe queries, applied in lockstep to an
/// engine-planned store and a naive-reference store.
///
/// Checks per request: the print → parse fixpoint holds, both planners
/// agree on whether the request evaluates at all, the applied mutation
/// counts match, the two stores end byte-identical (as N-Quads sets), and
/// the engine store's snapshot restores to that same set. Checks per
/// probe: the complete query-side differential suite ([`check_case`]'s
/// legs) against the updated store. The next request then goes to the
/// restored engine store, whose dictionary base is searched, not hashed,
/// until its lookups pay for an index.
pub fn check_update_case(seed: u64) -> Result<(), String> {
    let mut rng = FuzzRng::new(seed);
    let mut engine_store = generate_store(&mut rng);
    let mut naive_store = TripleStore::new();
    let initial: Vec<Quad> = engine_store.iter_quads().collect();
    naive_store.insert_quads_batch(initial.iter());

    // A separate stream for the probes' shuffle seeds, so the generated
    // update sequence is a function of `seed` alone.
    let mut shuffle_seeds = FuzzRng::new(!seed);
    let steps = 3 + rng.below(4);
    for step in 0..steps {
        let ops: Vec<Update> = (0..1 + rng.below(2))
            .map(|_| generate_update_op(&mut rng))
            .collect();
        let printed = print_update(&ops);
        let fail = |msg: String| format!("seed {seed} step {step}: {msg}\n  update: {printed}");

        // Leg 1: the update request survives print → parse → print → parse.
        let parsed = parse_update(&printed)
            .map_err(|e| fail(format!("printed update does not parse: {e}")))?;
        let reprinted = print_update(&parsed);
        let parsed2 = parse_update(&reprinted).map_err(|e| {
            fail(format!(
                "re-printed update does not parse: {e}\n  reprint: {reprinted}"
            ))
        })?;
        if parsed != parsed2 {
            return Err(fail(format!(
                "print → parse is not a fixpoint:\n  first:  {printed}\n  second: {reprinted}"
            )));
        }

        // Leg 2: engine-planned and naive-planned application agree — on
        // acceptance, on the mutation counts, and on the resulting store.
        let engine_outcome = apply_updates(&mut engine_store, &parsed);
        let naive_outcome = reference::apply_updates(&mut naive_store, &parsed);
        match (&engine_outcome, &naive_outcome) {
            (Ok(_), Err(e)) => {
                return Err(fail(format!(
                    "engine applied the update but the naive planner rejected it: {e}"
                )))
            }
            (Err(e), Ok(_)) => {
                return Err(fail(format!(
                    "naive planner applied the update but the engine rejected it: {e}"
                )))
            }
            (Ok(engine), Ok(naive)) if engine != naive => {
                return Err(fail(format!(
                    "mutation counts diverge: engine {engine:?} vs naive {naive:?}"
                )))
            }
            _ => {}
        }
        let engine_quads = store_fingerprint(&engine_store);
        let naive_quads = store_fingerprint(&naive_store);
        if engine_quads != naive_quads {
            let only_engine: Vec<&String> = engine_quads.difference(&naive_quads).collect();
            let only_naive: Vec<&String> = naive_quads.difference(&engine_quads).collect();
            return Err(fail(format!(
                "stores diverge after the update:\n  engine-only: {only_engine:?}\n  naive-only: {only_naive:?}"
            )));
        }

        // Leg 3: the updated store survives a checkpoint — its snapshot
        // restores to the same quads — and the next step updates the
        // restored store, so interning goes through a base that is searched
        // until its searches pay for its index.
        let restored = snapshot::decode(&snapshot::encode(&engine_store))
            .map_err(|e| fail(format!("the updated store's snapshot does not decode: {e}")))?;
        if store_fingerprint(&restored) != engine_quads {
            return Err(fail(
                "the updated store's snapshot restores other quads".into(),
            ));
        }

        // Leg 4: a probe query over the updated store passes the full
        // query-side differential suite.
        let probe = generate_query(&mut rng);
        check_query(
            &engine_store,
            &probe,
            shuffle_seeds.next_u64(),
            &format!("seed {seed} step {step} (probe after update)"),
        )?;
        engine_store = restored;
    }
    Ok(())
}

/// Number of cases to run, from `HBOLD_FUZZ_CASES` (default `default`).
pub fn cases_from_env(default: u64) -> u64 {
    std::env::var("HBOLD_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Single-case reproduction seed, from `HBOLD_FUZZ_SEED`.
pub fn seed_from_env() -> Option<u64> {
    std::env::var("HBOLD_FUZZ_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn re_escaped_documents_spell_every_character_another_way() {
        let results = QueryResults::Select(SelectResults {
            variables: vec!["v".into()],
            rows: ["a/b", "é\"\\\n\u{1}\u{7f}", "😀 and 😀", "http://e.org/x"]
                .into_iter()
                .map(|s| vec![Some(Term::Literal(Literal::string(s)))])
                .collect(),
        });
        let json = results.to_sparql_json();
        let mut spellings = BTreeSet::new();
        for seed in 0..64 {
            let escaped = re_escaped(&json, &mut FuzzRng::new(seed));
            assert_eq!(QueryResults::from_sparql_json(&escaped).unwrap(), results);
            for needle in ["\\/", "\\u0061", "\\u00e9", "\\ud83d\\ude00", "\\u0076"] {
                if escaped.contains(needle) {
                    spellings.insert(needle);
                }
            }
            check_json_codec(&json, &results, seed).unwrap();
        }
        assert_eq!(spellings.len(), 5, "{spellings:?}");
    }

    #[test]
    fn rng_is_deterministic_and_spread_out() {
        let mut a = FuzzRng::new(42);
        let mut b = FuzzRng::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let distinct: std::collections::HashSet<&u64> = xs.iter().collect();
        assert_eq!(distinct.len(), xs.len(), "degenerate RNG stream: {xs:?}");
        let mut c = FuzzRng::new(43);
        assert_ne!(c.next_u64(), xs[0]);
    }

    #[test]
    fn generators_cover_the_grammar_quickly() {
        // Within a modest seed range the generator must produce all the
        // constructs the tentpole calls for — otherwise the fuzzer silently
        // stops covering part of the surface.
        let mut saw_ask = false;
        let mut saw_group = false;
        let mut saw_order = false;
        let mut saw_cut_without_order = false;
        let mut saw_optional = false;
        let mut saw_union = false;
        let mut saw_filter = false;
        let mut saw_distinct = false;
        let mut saw_graph_const = false;
        let mut saw_graph_var = false;
        let mut saw_from = false;
        let mut saw_from_named = false;
        let mut saw_named_quads = false;
        let mut saw_alias_order = false;
        let mut saw_hidden_key_order = false;
        let mut saw_grouped_topk = false;
        for seed in 0..400 {
            let mut rng = FuzzRng::new(seed);
            let store = generate_store(&mut rng);
            saw_named_quads |= !store.named_graph_ids().is_empty();
            let q = generate_query(&mut rng);
            saw_ask |= matches!(q.form, QueryForm::Ask);
            saw_group |= !q.group_by.is_empty();
            saw_order |= !q.order_by.is_empty();
            saw_cut_without_order |=
                q.order_by.is_empty() && (q.limit.is_some() || q.offset.is_some());
            saw_distinct |= matches!(q.form, QueryForm::Select { distinct: true, .. });
            saw_from |= !q.dataset.default_graphs.is_empty();
            saw_from_named |= !q.dataset.named_graphs.is_empty();
            let printed = print_query(&q);
            saw_optional |= printed.contains("OPTIONAL");
            saw_union |= printed.contains("UNION");
            saw_filter |= printed.contains("FILTER");
            saw_graph_const |= printed.contains("GRAPH <");
            saw_graph_var |= printed.contains("GRAPH ?");
            saw_alias_order |= orders_by_alias(&q);
            saw_hidden_key_order |= orders_by_hidden_key(&q);
            let plan = explain(&store, &q).to_string();
            saw_grouped_topk |=
                plan.contains("\ngroup strategy=") && plan.contains("\norder strategy=topk");
        }
        assert!(
            saw_alias_order && saw_hidden_key_order && saw_grouped_topk,
            "coverage gap: alias order={saw_alias_order} unprojected key order={saw_hidden_key_order} \
             grouped top-k={saw_grouped_topk}"
        );
        assert!(
            saw_ask && saw_group && saw_order && saw_cut_without_order,
            "coverage gap: ask={saw_ask} group={saw_group} order={saw_order} cut={saw_cut_without_order}"
        );
        assert!(
            saw_optional && saw_union && saw_filter && saw_distinct,
            "coverage gap: optional={saw_optional} union={saw_union} filter={saw_filter} distinct={saw_distinct}"
        );
        assert!(
            saw_graph_const && saw_graph_var && saw_from && saw_from_named && saw_named_quads,
            "coverage gap: graph_const={saw_graph_const} graph_var={saw_graph_var} \
             from={saw_from} from_named={saw_from_named} named_quads={saw_named_quads}"
        );
    }

    #[test]
    fn update_generator_covers_every_operation_shape() {
        let mut saw_insert_data = false;
        let mut saw_delete_data = false;
        let mut saw_delete_where = false;
        let mut saw_modify = false;
        let mut saw_graph_scoped_data = false;
        let mut saw_graph_var_pattern = false;
        for seed in 0..400 {
            let mut rng = FuzzRng::new(seed);
            let op = generate_update_op(&mut rng);
            let printed = print_update(std::slice::from_ref(&op));
            // Every generated op must parse back (the harness relies on it).
            parse_update(&printed).unwrap_or_else(|e| panic!("unparseable op: {e}\n  {printed}"));
            match &op {
                Update::InsertData(quads) => {
                    saw_insert_data = true;
                    saw_graph_scoped_data |= quads.iter().any(|q| q.graph.is_some());
                }
                Update::DeleteData(_) => saw_delete_data = true,
                Update::DeleteWhere(patterns) => {
                    saw_delete_where = true;
                    saw_graph_var_pattern |= patterns
                        .iter()
                        .any(|p| matches!(&p.graph, Some(TermOrVariable::Variable(_))));
                }
                Update::Modify { .. } => saw_modify = true,
            }
        }
        assert!(
            saw_insert_data && saw_delete_data && saw_delete_where && saw_modify,
            "coverage gap: insert={saw_insert_data} delete={saw_delete_data} \
             delete_where={saw_delete_where} modify={saw_modify}"
        );
        assert!(
            saw_graph_scoped_data && saw_graph_var_pattern,
            "coverage gap: graph_data={saw_graph_scoped_data} graph_var={saw_graph_var_pattern}"
        );
    }

    #[test]
    fn skewed_store_modes_appear() {
        // The skew modes must actually produce hub predicates and star
        // subjects within a modest seed range, or the join-order
        // differential silently runs on uniform graphs only.
        let dominant_share = |store: &TripleStore, query: &str| -> f64 {
            let top = hbold_sparql::execute_query(store, query)
                .unwrap()
                .into_select()
                .unwrap();
            let n: f64 = top.value(0, "n").unwrap().label().parse().unwrap();
            // The skew lives in the default graph; the probe query scans
            // only it, so normalize by the default-graph size.
            n / store.default_graph_len() as f64
        };
        let mut saw_hub = false;
        let mut saw_star = false;
        for seed in 0..200 {
            let mut rng = FuzzRng::new(seed);
            let store = generate_store(&mut rng);
            if store.default_graph_len() < 20 {
                continue;
            }
            saw_hub |= dominant_share(
                &store,
                "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY DESC(?n) LIMIT 1",
            ) >= 0.6;
            saw_star |= dominant_share(
                &store,
                "SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s ORDER BY DESC(?n) LIMIT 1",
            ) >= 0.55;
        }
        assert!(saw_hub, "no hub-predicate graph within 200 seeds");
        assert!(saw_star, "no star-subject graph within 200 seeds");
    }

    #[test]
    fn a_smoke_batch_of_cases_passes() {
        let mut covered = Coverage::default();
        for seed in 0..64 {
            match check_case(seed) {
                Ok(coverage) => covered += coverage,
                Err(report) => panic!("{report}"),
            }
        }
        assert!(
            covered.reordered_bgps > 0
                && covered.grouped > 0
                && covered.topk > 0
                && covered.streamed > 0
                && covered.churned > 0
                && covered.sparse > 0,
            "coverage gap in 64 cases: {covered:?}"
        );
    }

    #[test]
    fn a_smoke_batch_of_update_cases_passes() {
        for seed in 0..24 {
            if let Err(report) = check_update_case(seed) {
                panic!("{report}");
            }
        }
    }
}
