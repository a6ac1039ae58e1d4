//! Differential test oracle: the streaming engine versus the naive
//! reference evaluator on randomly generated queries over random stores.
//!
//! Every case builds a small random store and a random query AST (BGPs,
//! OPTIONAL, UNION, FILTER, aggregates with GROUP BY, ORDER BY, DISTINCT,
//! LIMIT/OFFSET), evaluates it with the engine and with the deliberately
//! naive `reference` evaluator, and asserts identical results: exact row
//! sequences when ORDER BY pins an order, identical row multisets otherwise.
//!
//! The vendored proptest stand-in derandomizes generation from the test name
//! and case index, so runs are reproducible by construction; the case count
//! is raised in CI through `HBOLD_ORACLE_CASES` (default 256).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hbold_rdf_model::{Iri, Literal, Term, Triple};
use hbold_sparql::ast::*;
use hbold_sparql::{evaluate, reference, QueryResults, SlotLayout};
use hbold_triple_store::TripleStore;

const VARS: [&str; 4] = ["a", "b", "c", "d"];

fn iri(s: &str) -> Term {
    Term::Iri(Iri::new(s).unwrap())
}

fn subject_pool() -> Vec<Term> {
    (0..6)
        .map(|i| iri(&format!("http://o.example/s{i}")))
        .collect()
}

fn predicate_pool() -> Vec<Term> {
    (0..4)
        .map(|i| iri(&format!("http://o.example/p{i}")))
        .collect()
}

fn object_pool() -> Vec<Term> {
    let mut pool = subject_pool();
    pool.extend((0..6).map(|i| Term::Literal(Literal::integer(i))));
    pool.extend((0..3).map(|i| Term::Literal(Literal::string(format!("v{i}")))));
    pool
}

fn pick<'a>(rng: &mut StdRng, pool: &'a [Term]) -> &'a Term {
    &pool[rng.gen_range(0..pool.len())]
}

fn random_store(rng: &mut StdRng) -> TripleStore {
    let subjects = subject_pool();
    let predicates = predicate_pool();
    let objects = object_pool();
    let mut store = TripleStore::new();
    for _ in 0..rng.gen_range(0..24) {
        store.insert(&Triple::new(
            pick(rng, &subjects).as_iri().unwrap().clone(),
            pick(rng, &predicates).as_iri().unwrap().clone(),
            pick(rng, &objects).clone(),
        ));
    }
    store
}

fn random_var(rng: &mut StdRng) -> String {
    VARS[rng.gen_range(0..VARS.len())].to_string()
}

fn random_triple_pattern(rng: &mut StdRng) -> TriplePatternAst {
    let subject = if rng.gen_bool(0.6) {
        TermOrVariable::Variable(random_var(rng))
    } else {
        TermOrVariable::Term(pick(rng, &subject_pool()).clone())
    };
    let predicate = if rng.gen_bool(0.4) {
        TermOrVariable::Variable(random_var(rng))
    } else {
        TermOrVariable::Term(pick(rng, &predicate_pool()).clone())
    };
    let object = if rng.gen_bool(0.5) {
        TermOrVariable::Variable(random_var(rng))
    } else {
        TermOrVariable::Term(pick(rng, &object_pool()).clone())
    };
    TriplePatternAst {
        subject,
        predicate,
        object,
    }
}

fn random_bgp(rng: &mut StdRng) -> GraphPattern {
    let n = rng.gen_range(1..=3);
    GraphPattern::Bgp((0..n).map(|_| random_triple_pattern(rng)).collect())
}

fn random_condition(rng: &mut StdRng) -> Expression {
    match rng.gen_range(0..5) {
        0 => Expression::Function {
            func: Function::Bound,
            args: vec![Expression::Variable(random_var(rng))],
        },
        1 => Expression::Function {
            func: Function::IsIri,
            args: vec![Expression::Variable(random_var(rng))],
        },
        2 => Expression::Not(Box::new(Expression::Function {
            func: Function::Bound,
            args: vec![Expression::Variable(random_var(rng))],
        })),
        _ => {
            let op = [
                ComparisonOp::Eq,
                ComparisonOp::Ne,
                ComparisonOp::Lt,
                ComparisonOp::Le,
                ComparisonOp::Gt,
                ComparisonOp::Ge,
            ][rng.gen_range(0..6usize)];
            Expression::Comparison {
                op,
                left: Box::new(Expression::Variable(random_var(rng))),
                right: Box::new(Expression::Constant(Term::Literal(Literal::integer(
                    rng.gen_range(0..6),
                )))),
            }
        }
    }
}

fn random_pattern(rng: &mut StdRng, depth: usize) -> GraphPattern {
    if depth == 0 {
        return random_bgp(rng);
    }
    match rng.gen_range(0..7) {
        0 | 1 => random_bgp(rng),
        2 => GraphPattern::Join(vec![
            random_pattern(rng, depth - 1),
            random_pattern(rng, depth - 1),
        ]),
        3 => GraphPattern::Optional {
            left: Box::new(random_pattern(rng, depth - 1)),
            right: Box::new(random_pattern(rng, depth - 1)),
        },
        4 => GraphPattern::Union(
            Box::new(random_pattern(rng, depth - 1)),
            Box::new(random_pattern(rng, depth - 1)),
        ),
        _ => GraphPattern::Filter {
            inner: Box::new(random_pattern(rng, depth - 1)),
            condition: random_condition(rng),
        },
    }
}

fn random_query(rng: &mut StdRng) -> Query {
    let pattern = random_pattern(rng, 2);
    if rng.gen_bool(0.1) {
        return Query {
            form: QueryForm::Ask,
            dataset: Dataset::default(),
            pattern,
            group_by: vec![],
            order_by: vec![],
            limit: None,
            offset: None,
        };
    }

    let pattern_vars = pattern.variables();
    let distinct = rng.gen_bool(0.2);
    let aggregated = rng.gen_bool(0.3);

    let (projection, group_by, orderable): (Projection, Vec<String>, Vec<String>) = if aggregated {
        let mut group_by: Vec<String> = Vec::new();
        for var in &pattern_vars {
            if group_by.len() < 2 && rng.gen_bool(0.4) {
                group_by.push(var.clone());
            }
        }
        let mut items: Vec<ProjectionItem> = group_by
            .iter()
            .map(|v| ProjectionItem::Variable(v.clone()))
            .collect();
        let mut aliases: Vec<String> = group_by.clone();
        for i in 0..rng.gen_range(1..=2) {
            let func = [
                AggregateFunction::Count,
                AggregateFunction::Sum,
                AggregateFunction::Avg,
                AggregateFunction::Min,
                AggregateFunction::Max,
            ][rng.gen_range(0..5usize)];
            let arg = if func == AggregateFunction::Count && rng.gen_bool(0.3) {
                None // COUNT(*)
            } else {
                Some(Box::new(Expression::Variable(random_var(rng))))
            };
            let alias = format!("agg{i}");
            aliases.push(alias.clone());
            items.push(ProjectionItem::Expression {
                expr: Expression::Aggregate {
                    func,
                    distinct: rng.gen_bool(0.3),
                    arg,
                },
                alias,
            });
        }
        (Projection::Items(items), group_by.clone(), aliases)
    } else if rng.gen_bool(0.3) || pattern_vars.is_empty() {
        (Projection::Star, vec![], pattern_vars.clone())
    } else {
        let mut projected: Vec<String> = pattern_vars
            .iter()
            .filter(|_| rng.gen_bool(0.6))
            .cloned()
            .collect();
        if projected.is_empty() {
            projected.push(pattern_vars[0].clone());
        }
        let items = projected
            .iter()
            .map(|v| ProjectionItem::Variable(v.clone()))
            .collect();
        // ORDER BY may reference unprojected pattern variables too.
        (Projection::Items(items), vec![], pattern_vars.clone())
    };

    let order_by: Vec<OrderCondition> = if !orderable.is_empty() && rng.gen_bool(0.5) {
        (0..rng.gen_range(1..=2))
            .map(|_| OrderCondition {
                expr: Expression::Variable(orderable[rng.gen_range(0..orderable.len())].clone()),
                descending: rng.gen_bool(0.5),
            })
            .collect()
    } else {
        vec![]
    };

    // LIMIT/OFFSET only under ORDER BY: an unordered cut is explicitly
    // implementation-defined in SPARQL, so the engines may legally disagree.
    let (limit, offset) = if order_by.is_empty() {
        (None, None)
    } else {
        (
            rng.gen_bool(0.4).then(|| rng.gen_range(0..=8usize)),
            rng.gen_bool(0.3).then(|| rng.gen_range(0..=5usize)),
        )
    };

    Query {
        form: QueryForm::Select {
            distinct,
            projection,
        },
        dataset: Dataset::default(),
        pattern,
        group_by,
        order_by,
        limit,
        offset,
    }
}

/// Renders rows into comparable string tuples.
fn rendered_rows(results: &QueryResults) -> Vec<Vec<Option<String>>> {
    match results {
        QueryResults::Ask(_) => vec![],
        QueryResults::Select(s) => s
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|cell| cell.as_ref().map(|t| t.to_ntriples()))
                    .collect()
            })
            .collect(),
    }
}

fn assert_equivalent(query: &Query, left: &QueryResults, right: &QueryResults, label: &str) {
    match (left, right) {
        (QueryResults::Ask(a), QueryResults::Ask(b)) => {
            assert_eq!(a, b, "{label}: ASK disagreement on {query:?}")
        }
        (QueryResults::Select(a), QueryResults::Select(b)) => {
            assert_eq!(
                a.variables, b.variables,
                "{label}: projected variables differ on {query:?}"
            );
            let mut ra = rendered_rows(left);
            let mut rb = rendered_rows(right);
            if query.order_by.is_empty() {
                ra.sort();
                rb.sort();
            }
            assert_eq!(ra, rb, "{label}: rows differ on {query:?}");
        }
        _ => panic!("{label}: result kinds differ on {query:?}"),
    }
}

fn run_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let store = random_store(&mut rng);
    let query = random_query(&mut rng);

    let naive = reference::evaluate(&store, &query);
    let engine = evaluate(&store, &query);

    match naive {
        Err(_) => {
            assert!(
                engine.is_err(),
                "engine accepted a query the reference rejects: {query:?}"
            );
        }
        Ok(expected) => {
            let engine = engine.expect("streaming engine failed where reference succeeded");
            assert_equivalent(&query, &expected, &engine, "engine");
        }
    }
}

fn oracle_cases() -> u32 {
    std::env::var("HBOLD_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    #[test]
    fn streaming_engine_matches_naive_reference(seed in 0u64..1_000_000_000_000) {
        run_case(seed)
    }

    #[test]
    fn slot_compilation_resolves_every_variable(seed in 0u64..1_000_000_000_000) {
        run_slot_case(seed)
    }
}

/// A handful of pinned regression seeds that exercised every operator during
/// development; they stay fixed regardless of the proptest case count.
#[test]
fn pinned_seeds_stay_green() {
    for seed in [0, 1, 7, 42, 1234, 99999, 424242, 31337421] {
        run_case(seed);
        run_slot_case(seed);
    }
}

// ---- variable→slot compilation ---------------------------------------------------

fn expression_variables(expr: &Expression, out: &mut Vec<String>) {
    match expr {
        Expression::Variable(v) => out.push(v.clone()),
        Expression::Constant(_) => {}
        Expression::Or(a, b) | Expression::And(a, b) => {
            expression_variables(a, out);
            expression_variables(b, out);
        }
        Expression::Not(inner) => expression_variables(inner, out),
        Expression::Comparison { left, right, .. } => {
            expression_variables(left, out);
            expression_variables(right, out);
        }
        Expression::Function { args, .. } => {
            for a in args {
                expression_variables(a, out);
            }
        }
        Expression::Aggregate { arg, .. } => {
            if let Some(arg) = arg {
                expression_variables(arg, out);
            }
        }
    }
}

/// Property: the compiled [`SlotLayout`] of a random query (with nested
/// OPTIONAL/UNION scopes) is a bijection between slots and names, puts the
/// pattern variables first in first-appearance order, and resolves every
/// projected, grouped and ordered variable to the slot carrying its name.
fn run_slot_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let _store = random_store(&mut rng); // keep rng in lockstep with run_case
    let query = random_query(&mut rng);
    let layout = SlotLayout::of_query(&query);

    // Pattern variables occupy the leading slots in first-appearance order.
    let pattern_vars = query.pattern.variables();
    assert_eq!(layout.pattern_vars(), pattern_vars.len(), "query {query:?}");
    for (i, v) in pattern_vars.iter().enumerate() {
        assert_eq!(layout.slot_of(v), Some(i as u32), "pattern var ?{v}");
        assert_eq!(layout.name_of(i as u32), v, "slot {i}");
    }

    // Every variable the query projects, groups or orders by resolves, and
    // the slot it resolves to carries exactly that name back.
    let mut referenced: Vec<String> = Vec::new();
    if let QueryForm::Select {
        projection: Projection::Items(items),
        ..
    } = &query.form
    {
        for item in items {
            match item {
                ProjectionItem::Variable(v) => referenced.push(v.clone()),
                ProjectionItem::Expression { expr, .. } => {
                    expression_variables(expr, &mut referenced)
                }
            }
        }
    }
    referenced.extend(query.group_by.iter().cloned());
    for cond in &query.order_by {
        expression_variables(&cond.expr, &mut referenced);
    }
    for v in &referenced {
        let slot = layout
            .slot_of(v)
            .unwrap_or_else(|| panic!("?{v} has no slot in {query:?}"));
        assert_eq!(layout.name_of(slot), v, "slot round-trip for ?{v}");
    }

    // The layout is a dense bijection: every slot's name maps back to it.
    let mut seen = std::collections::HashSet::new();
    for slot in 0..layout.len() as u32 {
        let name = layout.name_of(slot);
        assert!(seen.insert(name.to_string()), "duplicate slot name {name}");
        assert_eq!(layout.slot_of(name), Some(slot));
    }
    assert_eq!(layout.names().len(), layout.len());
}

/// Hand-built deep OPTIONAL/UNION nesting: one variable appearing in every
/// scope must compile to a single shared slot, and execution through that
/// layout must agree with the reference evaluator.
#[test]
fn nested_optional_union_scopes_share_slots() {
    let tp = |s: &str, p: usize, o: &str| TriplePatternAst {
        subject: TermOrVariable::Variable(s.into()),
        predicate: TermOrVariable::Term(iri(&format!("http://o.example/p{p}"))),
        object: TermOrVariable::Variable(o.into()),
    };
    // { ?a p0 ?b OPTIONAL { { ?a p1 ?c } UNION { ?b p2 ?c OPTIONAL { ?c p3 ?d } } } }
    let pattern = GraphPattern::Optional {
        left: Box::new(GraphPattern::Bgp(vec![tp("a", 0, "b")])),
        right: Box::new(GraphPattern::Union(
            Box::new(GraphPattern::Bgp(vec![tp("a", 1, "c")])),
            Box::new(GraphPattern::Optional {
                left: Box::new(GraphPattern::Bgp(vec![tp("b", 2, "c")])),
                right: Box::new(GraphPattern::Bgp(vec![tp("c", 3, "d")])),
            }),
        )),
    };
    let query = Query {
        dataset: Dataset::default(),
        form: QueryForm::Select {
            distinct: false,
            projection: Projection::Items(vec![
                ProjectionItem::Variable("a".into()),
                ProjectionItem::Variable("c".into()),
                ProjectionItem::Variable("d".into()),
            ]),
        },
        pattern,
        group_by: vec![],
        order_by: vec![
            OrderCondition {
                expr: Expression::Variable("c".into()),
                descending: false,
            },
            OrderCondition {
                expr: Expression::Variable("a".into()),
                descending: true,
            },
        ],
        limit: None,
        offset: None,
    };
    let layout = SlotLayout::of_query(&query);
    // ?c appears in both UNION branches and the inner OPTIONAL: one slot.
    assert_eq!(layout.len(), 4, "a, b, c, d — each exactly once");
    for v in ["a", "b", "c", "d"] {
        assert_eq!(layout.name_of(layout.slot_of(v).unwrap()), v);
    }

    // And engine and reference agree on a store exercising all scopes.
    let mut rng = StdRng::seed_from_u64(20260726);
    for _ in 0..16 {
        let store = random_store(&mut rng);
        let naive = reference::evaluate(&store, &query).unwrap();
        let engine = evaluate(&store, &query).unwrap();
        assert_equivalent(&query, &naive, &engine, "engine");
    }
}
