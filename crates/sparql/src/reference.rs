//! A deliberately naive reference evaluator — the differential test oracle.
//!
//! This module re-implements query evaluation with none of the engine's
//! machinery: no indexes (every triple pattern is a full scan over
//! [`TripleStore::iter`]), no join reordering (patterns evaluate in written
//! order), no streaming, no top-k, no plan cache, no threads. Everything is
//! materialized `Vec`s and full sorts. It exists so that property tests can
//! assert the optimized streaming engine returns exactly the same
//! multiset of rows on randomly generated queries — the "check every
//! optimization against a naive implementation" discipline.
//!
//! The only pieces shared with the real engine are the *semantic* primitives
//! (expression evaluation in [`crate::expr`], the term order — `Ord for
//! Term` — and the `ORDER BY` sort over it), which both sides must agree on
//! by definition; the fuzz harness's permutation leg and the exhaustive
//! order test check the order itself.

use std::collections::BTreeSet;

use hbold_rdf_model::{Term, Triple};
use hbold_triple_store::TripleStore;

use crate::ast::*;
use crate::error::SparqlError;
use crate::eval::{aggregate_numbers, order_bindings};
use crate::expr::{evaluate_expression, filter_passes, number_term, numeric_value, Binding};
use crate::parser::parse_query;
use crate::results::{QueryResults, SelectResults};

/// Parses and evaluates a query string with the naive reference evaluator.
pub fn execute_query(store: &TripleStore, query: &str) -> Result<QueryResults, SparqlError> {
    evaluate(store, &parse_query(query)?)
}

/// Evaluates a parsed [`Query`] naively.
pub fn evaluate(store: &TripleStore, query: &Query) -> Result<QueryResults, SparqlError> {
    let solutions = eval_pattern(
        store,
        &query.dataset,
        GraphScope::Default,
        &query.pattern,
        vec![Binding::new()],
    )?;

    match &query.form {
        QueryForm::Ask => Ok(QueryResults::Ask(!solutions.is_empty())),
        QueryForm::Select {
            distinct,
            projection,
        } => {
            let mut results = if query.uses_aggregates() || !query.group_by.is_empty() {
                project_grouped(query, projection, solutions)?
            } else {
                let ordered = order_bindings(&query.order_by, solutions)?;
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
    }
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
                if filter_passes(condition, &binding)? {
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
                            row.push(evaluate_expression(expr, binding)?.into_term())
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

    let mut grouped_bindings: Vec<Binding> = Vec::new();
    for (key_binding, members) in groups {
        let mut out = Binding::new();
        for item in items {
            match item {
                ProjectionItem::Variable(v) => {
                    if let Some(term) = key_binding.get(v) {
                        out.insert(v.clone(), term.clone());
                    }
                }
                ProjectionItem::Expression { expr, alias } => {
                    let value = match expr {
                        Expression::Aggregate {
                            func,
                            distinct,
                            arg,
                        } => evaluate_aggregate(*func, *distinct, arg.as_deref(), &members)?,
                        other => evaluate_expression(other, &key_binding)?.into_term(),
                    };
                    if let Some(term) = value {
                        out.insert(alias.clone(), term);
                    }
                }
            }
        }
        grouped_bindings.push(out);
    }

    let ordered = order_bindings(&query.order_by, grouped_bindings)?;
    let rows = ordered
        .iter()
        .map(|b| variables.iter().map(|v| b.get(v).cloned()).collect())
        .collect();
    Ok(SelectResults { variables, rows })
}

/// Evaluates one aggregate over a group's members (the engine's encoded
/// equivalent lives in `crate::encoded`; only the `SUM`/`AVG` arithmetic,
/// [`aggregate_numbers`], is shared).
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
            None => values.push(Term::Literal(hbold_rdf_model::Literal::integer(1))),
            Some(expr) => {
                if let Some(t) = evaluate_expression(expr, member)?.into_term() {
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
        AggregateFunction::Sum | AggregateFunction::Avg => Some(aggregate_numbers(
            func,
            values.iter().filter_map(numeric_value).collect(),
        )),
        AggregateFunction::Min => values.into_iter().min(),
        AggregateFunction::Max => values.into_iter().max(),
    })
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
            let engine = crate::execute_query(&store, q).unwrap();
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
            crate::execute_query(&store, q).unwrap()
        );
    }
}
