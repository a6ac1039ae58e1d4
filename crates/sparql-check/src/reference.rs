//! A deliberately naive reference evaluator and update planner — the
//! differential test oracle.
//!
//! This module re-implements query evaluation with none of the engine's
//! machinery: no indexes (every triple pattern is a full scan over
//! [`TripleStore::iter`]), no join reordering (patterns evaluate in written
//! order), no streaming, no top-k, no plan cache. Everything is
//! materialized `Vec`s and full sorts.
//!
//! It shares with the engine only what defines the language: the parser,
//! expression evaluation ([`hbold_sparql::expr`]) and the term order (`Ord
//! for Term`), which the fuzz harness's physical shapes check. Its `ORDER
//! BY`, `SUM`/`AVG` and update templates are its own.

use std::collections::BTreeSet;

use hbold_rdf_model::{Literal, Quad, Term, Triple};
use hbold_sparql::ast::*;
use hbold_sparql::expr::{
    evaluate_scoped, filter_passes_scoped, number_term, numeric_value, Binding, EvalValue,
};
use hbold_sparql::{parse_query, QueryResults, SelectResults, SparqlError, UpdateOutcome};
use hbold_triple_store::TripleStore;

/// Parses and evaluates a query string with the naive reference evaluator.
pub fn execute_query(store: &TripleStore, query: &str) -> Result<QueryResults, SparqlError> {
    evaluate(store, &parse_query(query)?)
}

/// Evaluates a parsed [`Query`] naively.
pub fn evaluate(store: &TripleStore, query: &Query) -> Result<QueryResults, SparqlError> {
    let solutions = solve(store, &query.dataset, &query.pattern)?;
    let QueryForm::Select {
        distinct,
        projection,
    } = &query.form
    else {
        return Ok(QueryResults::Ask(!solutions.is_empty()));
    };
    let mut results = if query.uses_aggregates() || !query.group_by.is_empty() {
        project_grouped(query, projection, solutions)?
    } else {
        // ORDER BY sees the SELECT expressions' aliases; ties fall to the
        // solutions themselves.
        let ordered = order(&query.order_by, solutions, |s| extend(projection, s));
        project_plain(&query.pattern, projection, ordered)?
    };
    if *distinct {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        results.rows.retain(|row| seen.insert(row_key(row)));
    }
    let offset = query.offset.unwrap_or(0);
    if offset > 0 {
        results.rows.drain(..offset.min(results.rows.len()));
    }
    if let Some(limit) = query.limit {
        results.rows.truncate(limit);
    }
    Ok(QueryResults::Select(results))
}

/// Every solution of `pattern` over the store's dataset as `dataset` scopes
/// it.
fn solve(
    store: &TripleStore,
    dataset: &Dataset,
    pattern: &GraphPattern,
) -> Result<Vec<Binding>, SparqlError> {
    eval_pattern(
        store,
        dataset,
        GraphScope::Default,
        pattern,
        vec![Binding::new()],
    )
}

/// `solution` extended by every `SELECT` expression of `projection`, each
/// evaluated over `solution` alone: an alias is bound to its value, or
/// unbound where the expression errs — also when the solution binds it.
fn extend(projection: &Projection, solution: &Binding) -> Binding {
    let mut extended = solution.clone();
    if let Projection::Items(items) = projection {
        for item in items {
            if let ProjectionItem::Expression { expr, alias } = item {
                let value = evaluate_scoped(expr, solution).ok();
                bind(&mut extended, alias, value.and_then(EvalValue::into_term));
            }
        }
    }
    extended
}

/// Binds `name` to `value`, or unbinds it when `value` is `None`.
fn bind(binding: &mut Binding, name: &str, value: Option<Term>) {
    match value {
        Some(term) => binding.insert(name.to_string(), term),
        None => binding.remove(name),
    };
}

/// `ORDER BY`: each condition evaluates over the solution's `scope` (an
/// error is unbound) and compares ascending under `Option<Term>`'s order —
/// unbound first, then the term order — reversed under `DESC`; equal keys
/// fall to the solutions' own order (variable names, then terms), which
/// makes the order total.
fn order(
    order_by: &[OrderCondition],
    solutions: Vec<Binding>,
    scope: impl Fn(&Binding) -> Binding,
) -> Vec<Binding> {
    if order_by.is_empty() {
        return solutions;
    }
    let keys = |scope: Binding| -> Vec<Option<Term>> {
        let key = |cond: &OrderCondition| evaluate_scoped(&cond.expr, &scope).ok();
        order_by
            .iter()
            .map(|c| key(c).and_then(EvalValue::into_term))
            .collect()
    };
    let mut keyed: Vec<(Vec<Option<Term>>, Binding)> = solutions
        .into_iter()
        .map(|solution| (keys(scope(&solution)), solution))
        .collect();
    keyed.sort_by(|(ka, a), (kb, b)| {
        let keys = order_by.iter().zip(ka.iter().zip(kb));
        keys.map(|(cond, (x, y))| if cond.descending { y.cmp(x) } else { x.cmp(y) })
            .find(|ord| ord.is_ne())
            .unwrap_or_else(|| a.cmp(b))
    });
    keyed.into_iter().map(|(_, solution)| solution).collect()
}

fn row_key(row: &[Option<Term>]) -> String {
    row.iter()
        .map(|t| t.as_ref().map(|t| t.to_ntriples()).unwrap_or_default())
        .collect::<Vec<_>>()
        .join("\u{1}")
}

/// The graph scope a pattern evaluates under. Like the encoded engine, the
/// reference threads the scope *per pattern*: a `GRAPH g { ... }` group
/// merely switches the scope its inner patterns scan (and bind their graph
/// variable from) — the group itself contributes nothing.
#[derive(Clone, Copy)]
enum GraphScope<'a> {
    /// The query's default graph: the store default graph, or the `FROM`
    /// merge when the query has dataset clauses.
    Default,
    /// Inside `GRAPH g { ... }`: a concrete IRI or a graph variable.
    Named(&'a TermOrVariable),
}

/// Materializes every (triple, graph-to-bind) candidate the scope exposes.
/// The graph component is `Some` only under a `GRAPH ?var` scope, where
/// each matched triple also binds the variable to its graph.
fn scope_candidates(
    store: &TripleStore,
    dataset: &Dataset,
    scope: GraphScope<'_>,
) -> Vec<(Triple, Option<Term>)> {
    // Any FROM/FROM NAMED clause replaces the store dataset wholesale.
    let has_dataset = !dataset.is_empty();
    match scope {
        GraphScope::Default => {
            if !has_dataset {
                return store.iter().map(|t| (t, None)).collect();
            }
            // The FROM merge is a *set* union: a triple present in several
            // FROM graphs contributes one candidate.
            let mut merged: BTreeSet<Triple> = BTreeSet::new();
            for quad in store.iter_quads() {
                let Some(g) = &quad.graph else { continue };
                if dataset.default_graphs.contains(g) {
                    merged.insert(quad.triple());
                }
            }
            merged.into_iter().map(|t| (t, None)).collect()
        }
        GraphScope::Named(TermOrVariable::Term(g)) => {
            if has_dataset && !dataset.named_graphs.contains(g) {
                return Vec::new();
            }
            store
                .iter_quads()
                .filter(|quad| quad.graph.as_ref() == Some(g))
                .map(|quad| (quad.triple(), None))
                .collect()
        }
        GraphScope::Named(TermOrVariable::Variable(_)) => store
            .iter_quads()
            .filter_map(|quad| {
                let g = quad.graph.clone()?;
                if has_dataset && !dataset.named_graphs.contains(&g) {
                    return None;
                }
                Some((quad.triple(), Some(g)))
            })
            .collect(),
    }
}

fn eval_pattern(
    store: &TripleStore,
    dataset: &Dataset,
    scope: GraphScope<'_>,
    pattern: &GraphPattern,
    input: Vec<Binding>,
) -> Result<Vec<Binding>, SparqlError> {
    match pattern {
        // No reordering, no index selection: written order, full scans.
        GraphPattern::Bgp(triple_patterns) => {
            let candidates = scope_candidates(store, dataset, scope);
            let mut solutions = input;
            for tp in triple_patterns {
                let mut next = Vec::new();
                for binding in &solutions {
                    for (triple, graph) in &candidates {
                        let Some(mut extended) = unify(tp, triple, binding) else {
                            continue;
                        };
                        if let Some(g) = graph {
                            // `GRAPH ?var` scope: bind the graph variable,
                            // conflict-checked like any other position.
                            let GraphScope::Named(TermOrVariable::Variable(v)) = scope else {
                                unreachable!("graph candidates only arise under GRAPH ?var")
                            };
                            match extended.get(v) {
                                Some(existing) if existing != g => continue,
                                Some(_) => {}
                                None => {
                                    extended.insert(v.clone(), g.clone());
                                }
                            }
                        }
                        next.push(extended);
                    }
                }
                solutions = next;
            }
            Ok(solutions)
        }
        GraphPattern::Graph { name, inner } => {
            eval_pattern(store, dataset, GraphScope::Named(name), inner, input)
        }
        GraphPattern::Join(parts) => {
            let mut current = input;
            for part in parts {
                current = eval_pattern(store, dataset, scope, part, current)?;
            }
            Ok(current)
        }
        GraphPattern::Optional { left, right } => {
            let left_solutions = eval_pattern(store, dataset, scope, left, input)?;
            let mut out = Vec::new();
            for binding in left_solutions {
                let extended = eval_pattern(store, dataset, scope, right, vec![binding.clone()])?;
                if extended.is_empty() {
                    out.push(binding);
                } else {
                    out.extend(extended);
                }
            }
            Ok(out)
        }
        GraphPattern::Union(a, b) => {
            let mut out = eval_pattern(store, dataset, scope, a, input.clone())?;
            out.extend(eval_pattern(store, dataset, scope, b, input)?);
            Ok(out)
        }
        GraphPattern::Filter { inner, condition } => {
            let solutions = eval_pattern(store, dataset, scope, inner, input)?;
            let mut out = Vec::new();
            for binding in solutions {
                if filter_passes_scoped(condition, &binding)? {
                    out.push(binding);
                }
            }
            Ok(out)
        }
    }
}

fn unify(
    tp: &TriplePatternAst,
    triple: &hbold_rdf_model::Triple,
    binding: &Binding,
) -> Option<Binding> {
    let mut extended = binding.clone();
    for (node, term) in [
        (&tp.subject, &triple.subject),
        (&tp.predicate, &triple.predicate),
        (&tp.object, &triple.object),
    ] {
        match node {
            TermOrVariable::Term(t) => {
                if t != term {
                    return None;
                }
            }
            TermOrVariable::Variable(v) => match extended.get(v) {
                Some(existing) if existing != term => return None,
                Some(_) => {}
                None => {
                    extended.insert(v.clone(), term.clone());
                }
            },
        }
    }
    Some(extended)
}

fn project_plain(
    pattern: &GraphPattern,
    projection: &Projection,
    solutions: Vec<Binding>,
) -> Result<SelectResults, SparqlError> {
    let variables: Vec<String> = match projection {
        Projection::Star => pattern.variables(),
        Projection::Items(items) => items
            .iter()
            .map(|item| match item {
                ProjectionItem::Variable(v) => v.clone(),
                ProjectionItem::Expression { alias, .. } => alias.clone(),
            })
            .collect(),
    };
    let mut rows = Vec::new();
    for binding in &solutions {
        let row = match projection {
            Projection::Star => variables.iter().map(|v| binding.get(v).cloned()).collect(),
            Projection::Items(items) => {
                let mut row = Vec::new();
                for item in items {
                    match item {
                        ProjectionItem::Variable(v) => row.push(binding.get(v).cloned()),
                        ProjectionItem::Expression { expr, .. } => {
                            row.push(evaluate_scoped(expr, binding)?.into_term())
                        }
                    }
                }
                row
            }
        };
        rows.push(row);
    }
    Ok(SelectResults { variables, rows })
}

fn project_grouped(
    query: &Query,
    projection: &Projection,
    solutions: Vec<Binding>,
) -> Result<SelectResults, SparqlError> {
    let Projection::Items(items) = projection else {
        return Err(SparqlError::Unsupported(
            "SELECT * cannot be combined with GROUP BY or aggregates".into(),
        ));
    };
    // Checked before grouping: whether the query is well-formed must not
    // depend on whether the data produced a group.
    for item in items {
        if let ProjectionItem::Variable(v) = item {
            if !query.group_by.contains(v) {
                return Err(SparqlError::Evaluation(format!(
                    "variable ?{v} is projected but is neither grouped nor aggregated"
                )));
            }
        }
    }

    // Naive grouping: a Vec of (key, members), linear-scanned per solution,
    // kept sorted by a deterministic key order at the end.
    let mut groups: Vec<(Binding, Vec<Binding>)> = Vec::new();
    for binding in solutions {
        let mut key = Binding::new();
        for var in &query.group_by {
            if let Some(term) = binding.get(var) {
                key.insert(var.clone(), term.clone());
            }
        }
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(binding),
            None => groups.push((key, vec![binding])),
        }
    }
    if query.group_by.is_empty() && groups.is_empty() {
        groups.push((Binding::new(), Vec::new()));
    }
    groups.sort_by(|(a, _), (b, _)| a.cmp(b));

    let variables: Vec<String> = items
        .iter()
        .map(|item| match item {
            ProjectionItem::Variable(v) => v.clone(),
            ProjectionItem::Expression { alias, .. } => alias.clone(),
        })
        .collect();

    // A group's solution: its key, then each SELECT expression's alias —
    // what ORDER BY sees, unprojected keys included.
    let mut grouped_bindings: Vec<Binding> = Vec::new();
    for (key_binding, members) in groups {
        let mut out = key_binding.clone();
        for item in items {
            let (name, value) = match item {
                // A grouped variable, so already bound.
                ProjectionItem::Variable(_) => continue,
                ProjectionItem::Expression {
                    expr:
                        Expression::Aggregate {
                            func,
                            distinct,
                            arg,
                        },
                    alias,
                } => (
                    alias,
                    evaluate_aggregate(*func, *distinct, arg.as_deref(), &members)?,
                ),
                ProjectionItem::Expression { expr, alias } => {
                    (alias, evaluate_scoped(expr, &key_binding)?.into_term())
                }
            };
            bind(&mut out, name, value);
        }
        grouped_bindings.push(out);
    }

    let ordered = order(&query.order_by, grouped_bindings, Binding::clone);
    let rows = ordered
        .iter()
        .map(|b| variables.iter().map(|v| b.get(v).cloned()).collect())
        .collect();
    Ok(SelectResults { variables, rows })
}

/// Evaluates one aggregate over a group's members.
fn evaluate_aggregate(
    func: AggregateFunction,
    distinct: bool,
    arg: Option<&Expression>,
    members: &[Binding],
) -> Result<Option<Term>, SparqlError> {
    // Collect the argument values over the group (for COUNT(*) every member
    // counts, bound or not).
    let mut values: Vec<Term> = Vec::new();
    for member in members {
        match arg {
            None => values.push(Term::Literal(Literal::integer(1))),
            Some(expr) => {
                if let Some(t) = evaluate_scoped(expr, member)?.into_term() {
                    values.push(t);
                }
            }
        }
    }
    if distinct {
        let mut seen = BTreeSet::new();
        values.retain(|t| seen.insert(t.to_ntriples()));
    }
    Ok(match func {
        AggregateFunction::Count => Some(number_term(values.len() as f64)),
        AggregateFunction::Sum | AggregateFunction::Avg => {
            // Summed in total order, so the sum is a function of the value
            // multiset: float addition is not associative, and the engine
            // meets a group's members in another order.
            let mut numbers: Vec<f64> = values.iter().filter_map(numeric_value).collect();
            numbers.sort_by(f64::total_cmp);
            let sum: f64 = numbers.iter().sum();
            match func {
                AggregateFunction::Avg if !numbers.is_empty() => {
                    Some(number_term(sum / numbers.len() as f64))
                }
                _ => Some(number_term(sum)),
            }
        }
        AggregateFunction::Min => values.into_iter().min(),
        AggregateFunction::Max => values.into_iter().max(),
    })
}

/// Plans one update operation naively against the current store state: the
/// `(removes, inserts)` delta, each sorted and deduplicated. Every solution
/// of the `WHERE` clause (a `DELETE WHERE` block is its own) instantiates
/// the templates; an entry with an unbound variable, or a term its position
/// does not allow, gives no quad.
pub fn plan_update(
    store: &TripleStore,
    op: &Update,
) -> Result<(Vec<Quad>, Vec<Quad>), SparqlError> {
    let ground = |quads: &[QuadData]| -> Vec<Quad> {
        let triple =
            |q: &QuadData| Triple::new(q.subject.clone(), q.predicate.clone(), q.object.clone());
        let quads = quads.iter().map(|q| Quad::new(triple(q), q.graph.clone()));
        quads.collect::<BTreeSet<_>>().into_iter().collect()
    };
    let (delete, insert, pattern) = match op {
        Update::InsertData(quads) => return Ok((Vec::new(), ground(quads))),
        Update::DeleteData(quads) => return Ok((ground(quads), Vec::new())),
        Update::DeleteWhere(patterns) => {
            let parts = patterns.iter().map(|qp| match &qp.graph {
                None => GraphPattern::Bgp(vec![qp.triple.clone()]),
                Some(name) => GraphPattern::Graph {
                    name: name.clone(),
                    inner: Box::new(GraphPattern::Bgp(vec![qp.triple.clone()])),
                },
            });
            (patterns, &[][..], GraphPattern::Join(parts.collect()))
        }
        Update::Modify {
            delete,
            insert,
            pattern,
        } => (delete, insert.as_slice(), pattern.clone()),
    };
    let solutions = solve(store, &Dataset::default(), &pattern)?;
    let instantiate = |template: &[QuadPatternAst]| -> Vec<Quad> {
        let quads = solutions.iter().flat_map(|solution| {
            let term = |node: &TermOrVariable| match node {
                TermOrVariable::Term(t) => Some(t.clone()),
                TermOrVariable::Variable(v) => solution.get(v).cloned(),
            };
            template.iter().filter_map(move |qp| {
                let graph = match &qp.graph {
                    None => None,
                    Some(node) => Some(term(node)?),
                };
                let [s, p, o] = [&qp.triple.subject, &qp.triple.predicate, &qp.triple.object];
                Quad::try_new(Triple::new(term(s)?, term(p)?, term(o)?), graph).ok()
            })
        });
        quads.collect::<BTreeSet<_>>().into_iter().collect()
    };
    Ok((instantiate(delete), instantiate(insert)))
}

/// Applies update operations to `store` in order, each planned by
/// [`plan_update`] against the state the ones before it left.
pub fn apply_updates(
    store: &mut TripleStore,
    ops: &[Update],
) -> Result<UpdateOutcome, SparqlError> {
    let mut outcome = UpdateOutcome::default();
    for op in ops {
        let (removes, inserts) = plan_update(store, op)?;
        let (removed, inserted) = store.apply_delta(&removes, &inserts);
        outcome.removed += removed;
        outcome.inserted += inserted;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbold_rdf_model::vocab::{foaf, rdf};
    use hbold_rdf_model::{Iri, Literal, Triple};

    fn store() -> TripleStore {
        let mut store = TripleStore::new();
        for (name, age) in [("alice", 42), ("bob", 31), ("carol", 77)] {
            let s = Iri::new(format!("http://e.org/{name}")).unwrap();
            store.insert(&Triple::new(s.clone(), rdf::type_(), foaf::person()));
            store.insert(&Triple::new(
                s,
                Iri::new("http://e.org/age").unwrap(),
                Literal::integer(age),
            ));
        }
        store
    }

    #[test]
    fn reference_agrees_with_engine_on_basics() {
        let store = store();
        for q in [
            "SELECT ?s WHERE { ?s a <http://xmlns.com/foaf/0.1/Person> } ORDER BY ?s",
            "SELECT ?s (COUNT(?p) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s ORDER BY ?s",
            "SELECT ?s WHERE { ?s <http://e.org/age> ?a FILTER(?a > 40) } ORDER BY ?s",
            "ASK { ?s a <http://xmlns.com/foaf/0.1/Person> }",
        ] {
            let naive = execute_query(&store, q).unwrap();
            let engine = hbold_sparql::execute_query(&store, q).unwrap();
            assert_eq!(naive, engine, "query {q}");
        }
    }

    #[test]
    fn written_order_bgp_matches_reordered_engine() {
        // The engine reorders this BGP (the filter-friendly pattern first);
        // the reference does not. Results must still agree.
        let store = store();
        let q = "SELECT ?s ?o WHERE { ?s ?p ?o . ?s a <http://xmlns.com/foaf/0.1/Person> } ORDER BY ?s ?o";
        assert_eq!(
            execute_query(&store, q).unwrap(),
            hbold_sparql::execute_query(&store, q).unwrap()
        );
    }
}
