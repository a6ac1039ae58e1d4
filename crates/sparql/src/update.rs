//! SPARQL 1.1 Update evaluation: planning parsed [`Update`] operations into
//! quad deltas and applying them to a store.
//!
//! Every operation reduces to the same two-phase shape the storage layer's
//! write-ahead log records atomically: a set of quads to **remove** followed
//! by a set of quads to **insert**, both planned against the store state
//! *before* the operation applies (so `DELETE`/`INSERT WHERE` templates all
//! instantiate from one consistent snapshot, per the SPARQL 1.1 Update
//! semantics). [`plan_update_op`] produces that delta, and one call applies
//! it, `TripleStore::apply_delta`: [`apply_updates`] on a plain
//! [`TripleStore`] in place, and the server through
//! `SharedStore::apply_update`, whose commit (and WAL replay) makes the same
//! call under WAL-backed atomicity.
//!
//! Template instantiation follows the spec's silent-skip rule: a solution
//! that leaves a template variable unbound, or binds a term invalid for its
//! position (a literal subject, a non-IRI predicate or graph), produces no
//! quad for that template entry — it never fails the whole operation.
//!
//! `WHERE` clauses evaluate through the streaming engine.

use hbold_rdf_model::{Quad, Term, Triple};
use hbold_triple_store::TripleStore;

use crate::ast::{
    Dataset, GraphPattern, Projection, QuadData, QuadPatternAst, Query, QueryForm, TermOrVariable,
    Update,
};
use crate::cancel::CancellationToken;
use crate::error::SparqlError;
use crate::eval::{evaluate_with_hooks, EvalHooks};
use crate::parser::parse_update;
use crate::results::QueryResults;

/// Counts of the store mutations an update request actually performed
/// (quads removed that were present, quads inserted that were absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateOutcome {
    /// Quads removed from the store.
    pub removed: usize,
    /// Quads added to the store.
    pub inserted: usize,
}

/// Plans one update operation against the current store state, returning
/// the `(removes, inserts)` quad delta. Nothing is mutated; both sets are
/// deduplicated. `WHERE` clauses evaluate through the streaming engine.
pub fn plan_update_op(
    store: &TripleStore,
    op: &Update,
) -> Result<(Vec<Quad>, Vec<Quad>), SparqlError> {
    plan_update_op_with(store, op, None)
}

/// [`plan_update_op`] with a cooperative [`CancellationToken`] polled while
/// the `WHERE` clause evaluates. A trip fails planning with the typed
/// cancellation error *before* any delta exists — the store and WAL are
/// untouched, so a timed-out `INSERT ... WHERE` leaves persistent state
/// byte-identical to before the request.
pub fn plan_update_op_with(
    store: &TripleStore,
    op: &Update,
    cancel: Option<&CancellationToken>,
) -> Result<(Vec<Quad>, Vec<Quad>), SparqlError> {
    match op {
        Update::InsertData(quads) => Ok((Vec::new(), dedup(quads.iter().map(ground_quad)))),
        Update::DeleteData(quads) => Ok((dedup(quads.iter().map(ground_quad)), Vec::new())),
        Update::DeleteWhere(patterns) => {
            // The pattern doubles as the delete template.
            let (vars, rows) = solve_where(store, quads_pattern(patterns), cancel)?;
            let removes = rows
                .iter()
                .flat_map(|row| instantiate(patterns, &vars, row))
                .collect::<Vec<_>>();
            Ok((dedup(removes), Vec::new()))
        }
        Update::Modify {
            delete,
            insert,
            pattern,
        } => {
            let (vars, rows) = solve_where(store, pattern.clone(), cancel)?;
            let removes = rows
                .iter()
                .flat_map(|row| instantiate(delete, &vars, row))
                .collect::<Vec<_>>();
            let inserts = rows
                .iter()
                .flat_map(|row| instantiate(insert, &vars, row))
                .collect::<Vec<_>>();
            Ok((dedup(removes), dedup(inserts)))
        }
    }
}

/// Parses and applies an update request (a `;`-separated operation
/// sequence) to a plain in-memory store. Each operation plans against the
/// state the previous operations produced, mirroring the sequential
/// semantics of a SPARQL 1.1 Update request.
pub fn execute_update(
    store: &mut TripleStore,
    request: &str,
) -> Result<UpdateOutcome, SparqlError> {
    let ops = parse_update(request)?;
    apply_updates(store, &ops)
}

/// Applies parsed update operations to a plain in-memory store in order.
pub fn apply_updates(
    store: &mut TripleStore,
    ops: &[Update],
) -> Result<UpdateOutcome, SparqlError> {
    let mut outcome = UpdateOutcome::default();
    for op in ops {
        let (removes, inserts) = plan_update_op(store, op)?;
        let (removed, inserted) = store.apply_delta(&removes, &inserts);
        outcome.removed += removed;
        outcome.inserted += inserted;
    }
    Ok(outcome)
}

fn ground_quad(data: &QuadData) -> Quad {
    Quad {
        graph: data.graph.clone(),
        subject: data.subject.clone(),
        predicate: data.predicate.clone(),
        object: data.object.clone(),
    }
}

fn dedup(quads: impl IntoIterator<Item = Quad>) -> Vec<Quad> {
    let mut quads: Vec<Quad> = quads.into_iter().collect();
    quads.sort_unstable();
    quads.dedup();
    quads
}

/// Lowers a `DELETE WHERE` quad-pattern block to the [`GraphPattern`] the
/// engine understands: default-graph patterns stay bare triple patterns,
/// graph-scoped ones wrap in a `GRAPH` group, all joined conjunctively.
fn quads_pattern(patterns: &[QuadPatternAst]) -> GraphPattern {
    let parts: Vec<GraphPattern> = patterns
        .iter()
        .map(|qp| {
            let bgp = GraphPattern::Bgp(vec![qp.triple.clone()]);
            match &qp.graph {
                None => bgp,
                Some(name) => GraphPattern::Graph {
                    name: name.clone(),
                    inner: Box::new(bgp),
                },
            }
        })
        .collect();
    match parts.len() {
        0 => GraphPattern::empty(),
        1 => parts.into_iter().next().expect("one part"),
        _ => GraphPattern::Join(parts),
    }
}

/// Evaluates a `WHERE` clause as a bare `SELECT *` and returns the variable
/// names with the solution rows.
fn solve_where(
    store: &TripleStore,
    pattern: GraphPattern,
    cancel: Option<&CancellationToken>,
) -> Result<(Vec<String>, Vec<Vec<Option<Term>>>), SparqlError> {
    let query = Query {
        form: QueryForm::Select {
            distinct: false,
            projection: Projection::Star,
        },
        dataset: Dataset::default(),
        pattern,
        group_by: Vec::new(),
        order_by: Vec::new(),
        limit: None,
        offset: None,
    };
    let hooks = EvalHooks {
        cancel,
        ..EvalHooks::default()
    };
    match evaluate_with_hooks(store, &query, &hooks)? {
        QueryResults::Select(select) => Ok((select.variables, select.rows)),
        QueryResults::Ask(_) => unreachable!("WHERE solutions always evaluate as SELECT"),
    }
}

/// Instantiates a quad template against one solution row. Entries with an
/// unbound variable or a term invalid for its position are skipped
/// silently, per the SPARQL 1.1 Update template semantics.
fn instantiate(
    template: &[QuadPatternAst],
    variables: &[String],
    row: &[Option<Term>],
) -> Vec<Quad> {
    let lookup = |node: &TermOrVariable| -> Option<Term> {
        match node {
            TermOrVariable::Term(t) => Some(t.clone()),
            TermOrVariable::Variable(v) => variables
                .iter()
                .position(|name| name == v)
                .and_then(|i| row.get(i).cloned().flatten()),
        }
    };
    let mut out = Vec::new();
    for qp in template {
        let graph = match &qp.graph {
            None => None,
            Some(node) => match lookup(node) {
                Some(term) => Some(term),
                None => continue,
            },
        };
        let (Some(s), Some(p), Some(o)) = (
            lookup(&qp.triple.subject),
            lookup(&qp.triple.predicate),
            lookup(&qp.triple.object),
        ) else {
            continue;
        };
        // try_new enforces the positional rules (non-literal subject,
        // IRI predicate, IRI graph); violations skip the entry.
        if let Ok(quad) = Quad::try_new(Triple::new(s, p, o), graph) {
            out.push(quad);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbold_rdf_model::{Iri, Literal};

    fn iri(s: &str) -> Term {
        Term::Iri(Iri::new(s).unwrap())
    }

    fn quad(s: &str, p: &str, o: &str, g: Option<&str>) -> Quad {
        Quad {
            graph: g.map(iri),
            subject: iri(s),
            predicate: iri(p),
            object: iri(o),
        }
    }

    #[test]
    fn insert_and_delete_data_round_trip() {
        let mut store = TripleStore::new();
        let outcome = execute_update(
            &mut store,
            "INSERT DATA { <http://e.org/a> <http://e.org/p> <http://e.org/b> . \
             GRAPH <http://e.org/g> { <http://e.org/a> <http://e.org/p> <http://e.org/c> } }",
        )
        .unwrap();
        assert_eq!(
            outcome,
            UpdateOutcome {
                removed: 0,
                inserted: 2
            }
        );
        assert!(store.contains_quad(&quad(
            "http://e.org/a",
            "http://e.org/p",
            "http://e.org/b",
            None
        )));
        assert!(store.contains_quad(&quad(
            "http://e.org/a",
            "http://e.org/p",
            "http://e.org/c",
            Some("http://e.org/g")
        )));

        // Re-inserting the same data is a no-op; deleting removes exactly it.
        let outcome = execute_update(
            &mut store,
            "INSERT DATA { <http://e.org/a> <http://e.org/p> <http://e.org/b> }",
        )
        .unwrap();
        assert_eq!(
            outcome,
            UpdateOutcome {
                removed: 0,
                inserted: 0
            }
        );
        let outcome = execute_update(
            &mut store,
            "DELETE DATA { GRAPH <http://e.org/g> { <http://e.org/a> <http://e.org/p> <http://e.org/c> } }",
        )
        .unwrap();
        assert_eq!(
            outcome,
            UpdateOutcome {
                removed: 1,
                inserted: 0
            }
        );
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn delete_where_spans_graphs_with_a_variable() {
        let mut store = TripleStore::new();
        store.insert_quad(&quad(
            "http://e.org/a",
            "http://e.org/p",
            "http://e.org/b",
            None,
        ));
        store.insert_quad(&quad(
            "http://e.org/a",
            "http://e.org/p",
            "http://e.org/b",
            Some("http://e.org/g1"),
        ));
        store.insert_quad(&quad(
            "http://e.org/a",
            "http://e.org/p",
            "http://e.org/b",
            Some("http://e.org/g2"),
        ));
        // The default-graph copy is out of scope for GRAPH ?g.
        let outcome = execute_update(
            &mut store,
            "DELETE WHERE { GRAPH ?g { <http://e.org/a> <http://e.org/p> ?o } }",
        )
        .unwrap();
        assert_eq!(
            outcome,
            UpdateOutcome {
                removed: 2,
                inserted: 0
            }
        );
        assert_eq!(store.len(), 1);
        assert!(store.contains_quad(&quad(
            "http://e.org/a",
            "http://e.org/p",
            "http://e.org/b",
            None
        )));
    }

    #[test]
    fn modify_moves_matches_between_graphs() {
        let mut store = TripleStore::new();
        store.insert_quad(&quad(
            "http://e.org/a",
            "http://e.org/p",
            "http://e.org/b",
            None,
        ));
        store.insert_quad(&quad(
            "http://e.org/c",
            "http://e.org/p",
            "http://e.org/d",
            None,
        ));
        let outcome = execute_update(
            &mut store,
            "DELETE { ?s <http://e.org/p> ?o } \
             INSERT { GRAPH <http://e.org/archive> { ?s <http://e.org/p> ?o } } \
             WHERE { ?s <http://e.org/p> ?o }",
        )
        .unwrap();
        assert_eq!(
            outcome,
            UpdateOutcome {
                removed: 2,
                inserted: 2
            }
        );
        assert_eq!(store.default_graph_len(), 0);
        assert!(store.contains_quad(&quad(
            "http://e.org/a",
            "http://e.org/p",
            "http://e.org/b",
            Some("http://e.org/archive")
        )));
    }

    #[test]
    fn templates_skip_unbound_and_invalid_positions_silently() {
        let mut store = TripleStore::new();
        store.insert(&Triple::new(
            Iri::new("http://e.org/a").unwrap(),
            Iri::new("http://e.org/p").unwrap(),
            Literal::string("lit"),
        ));
        // ?o is a literal: inserting it in subject position must skip, not fail.
        let outcome = execute_update(
            &mut store,
            "INSERT { ?o <http://e.org/p> ?s . ?s <http://e.org/q> ?o } \
             WHERE { ?s <http://e.org/p> ?o }",
        )
        .unwrap();
        assert_eq!(
            outcome,
            UpdateOutcome {
                removed: 0,
                inserted: 1
            }
        );
        // An OPTIONAL-unbound template variable skips its entry too.
        let outcome = execute_update(
            &mut store,
            "INSERT { ?s <http://e.org/r> ?missing } \
             WHERE { ?s <http://e.org/p> ?o OPTIONAL { ?s <http://e.org/none> ?missing } }",
        )
        .unwrap();
        assert_eq!(
            outcome,
            UpdateOutcome {
                removed: 0,
                inserted: 0
            }
        );
    }
}
