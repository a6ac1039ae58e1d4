//! Query evaluation over a [`TripleStore`].
//!
//! The engine is a *push-driven walk of the plan* running in the
//! **dictionary-encoded domain** (see [`crate::encoded`]): at evaluation
//! start the query's variables are compiled to a dense slot layout, and
//! every operator — BGP index-scan joins, `FILTER`, `OPTIONAL`, `UNION`,
//! `DISTINCT`, `GROUP BY` accumulators, `ORDER BY` on plain variables and
//! its tie-break — binds and compares raw `TermId`s in one shared row
//! buffer. The dictionary is consulted lazily, only where lexical values are
//! genuinely needed (expression evaluation, aggregate arithmetic), and full
//! [`Term`] rows materialize exactly once, at the [`QueryResults`]
//! boundary.
//!
//! `ASK` stops at the first solution, un-ordered `LIMIT` queries stop as
//! soon as enough rows exist, `ORDER BY ... LIMIT k` keeps a bounded top-k
//! heap instead of sorting the full solution set, and an aggregate folds
//! each solution into its group as it arrives instead of keeping it.
//!
//! There is exactly one way to plan and one way to run a query, and one
//! pattern tree per evaluation: every entry point below lays the query's
//! variables out in slots, has [`crate::optimize`] plan the parsed pattern
//! in one walk into the nodes the executor runs, and hands that plan to the
//! one executor (`crate::encoded::execute`), a single-threaded walk.
//! Parallelism lives *between* queries (server workers, extraction
//! pipelines), never inside one. Rows of a grouped query leave in an
//! unspecified order unless `ORDER BY` pins one.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use hbold_rdf_model::Term;
use hbold_telemetry::Span;
use hbold_triple_store::TripleStore;

use crate::ast::*;
use crate::encoded::{execute, timed, EncContext, SlotLayout};
use crate::error::SparqlError;
use crate::expr::{evaluate_scoped, number_term, Binding, EvalValue, Scope};
use crate::optimize::plan_pattern;
use crate::plan::parse_cached;
use crate::results::QueryResults;

/// Parses (through the plan cache) and evaluates a query string.
///
/// This is the front door of the engine: one call from query text to
/// [`QueryResults`].
///
/// ```
/// use hbold_rdf_model::{Iri, Triple, vocab::{foaf, rdf}};
/// use hbold_sparql::execute_query;
/// use hbold_triple_store::TripleStore;
///
/// let mut store = TripleStore::new();
/// store.insert(&Triple::new(
///     Iri::new("http://example.org/alice")?,
///     rdf::type_(),
///     foaf::person(),
/// ));
///
/// let results = execute_query(&store, "SELECT ?s WHERE { ?s a ?c }")?;
/// let rows = results.into_select().unwrap();
/// assert_eq!(rows.rows.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn execute_query(store: &TripleStore, query: &str) -> Result<QueryResults, SparqlError> {
    let plan = parse_cached(query)?;
    evaluate(store, &plan)
}

/// Evaluates a parsed [`Query`] against a store.
pub fn evaluate(store: &TripleStore, query: &Query) -> Result<QueryResults, SparqlError> {
    evaluate_with_hooks(store, query, &EvalHooks::default())
}

/// Caller-supplied observation hooks for one evaluation
/// (see [`evaluate_with_hooks`]). The default observes nothing and changes
/// nothing.
#[derive(Default)]
pub struct EvalHooks<'a> {
    /// Parent span for an execution trace. When set, the evaluation adds
    /// `plan` and `execute` children under it, with one span per plan node
    /// and tail stage below `execute` recording rows produced and wall
    /// time (a node's own and its subtree's; a tail stage's whole drive).
    pub trace: Option<&'a Span>,
    /// Cooperative cancellation token, polled by every scan stage (one
    /// relaxed atomic load per [`crate::cancel::DEFAULT_CHECK_INTERVAL`]
    /// quads examined). A tripped token fails the whole evaluation with the typed
    /// [`SparqlError::Cancelled`] / [`SparqlError::DeadlineExceeded`] —
    /// never a truncated result.
    pub cancel: Option<&'a crate::cancel::CancellationToken>,
    /// Join-order override: given each BGP's cost-based order (indexes into
    /// its written patterns), returns the order to run instead — a
    /// permutation of it. A plan under an imposed order neither streams its
    /// `ORDER BY` nor counts off the index directory. For checking that
    /// every join order gives the same answer.
    pub join_order: Option<&'a dyn Fn(Vec<usize>) -> Vec<usize>>,
    /// Set after the run to how many of its scan probes one window of the
    /// flat tier answered, and how many the merged scan (churn inside the
    /// probed range).
    pub scan_probes: Option<&'a Cell<[u64; 2]>>,
}

/// Evaluates a parsed [`Query`] with hooks attached: the one evaluation
/// path. [`evaluate`] delegates here with none, and the hooks add no
/// per-row work when absent.
pub fn evaluate_with_hooks(
    store: &TripleStore,
    query: &Query,
    hooks: &EvalHooks<'_>,
) -> Result<QueryResults, SparqlError> {
    let layout = SlotLayout::of_query(query);
    let mut ctx = EncContext::new(store, &layout, &query.dataset);
    ctx.cancel = hooks.cancel;
    // The single planning pass, before any operator runs; with tracing on
    // it makes every node's span under `execute`.
    let plan_span = hooks.trace.map(|root| root.child("plan"));
    let exec_span = hooks.trace.map(|root| root.child("execute"));
    let plan = timed(plan_span.as_ref(), || {
        plan_pattern(&ctx, query, hooks.join_order, exec_span.as_ref())
    });
    if let Some(span) = &plan_span {
        span.set_attr("bgps", plan.bgps.len());
        span.set_attr("pushed_filters", plan.pushed_filters);
    }

    // Chaos hook (inert unless HBOLD_FAULTS is set): artificial latency at
    // pipeline construction, so chaos soaks can turn any query into
    // deadline fodder without touching per-row paths.
    if let Some(faults) = hbold_triple_store::FaultInjector::active() {
        faults.operator_latency();
    }

    let results = execute(&ctx, &plan, exec_span.as_ref());
    if let Some(probes) = hooks.scan_probes {
        probes.set(plan.root.probes());
    }
    results
}

// ---- compile-compat shim for the frozen `benchmark/` crate -------------------------

/// Field-less stand-in for the engine options this crate no longer has.
/// Kept only for the frozen `benchmark/` crate, which names it; nothing in
/// the workspace does.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions;

impl EvalOptions {
    /// Kept only for the frozen `benchmark/` crate.
    pub fn sequential() -> Self {
        EvalOptions
    }

    /// Kept only for the frozen `benchmark/` crate.
    pub fn auto() -> Self {
        EvalOptions
    }
}

/// [`evaluate`], ignoring `_options`. Kept only for the frozen `benchmark/`
/// crate.
pub fn evaluate_with(
    store: &TripleStore,
    query: &Query,
    _options: &EvalOptions,
) -> Result<QueryResults, SparqlError> {
    evaluate(store, query)
}

// ---- what stands on the term order ------------------------------------------------
//
// `Ord for Term` (in `hbold-rdf-model`) is the one order. `MIN`/`MAX`, the
// `ORDER BY` keys and the whole-row tie-break below *are* it — the engine's
// id rows and grouped output bindings both sort through the one
// `order_solutions`.

/// `SUM` (or, for [`AggregateFunction::Avg`], the mean) of an aggregate's
/// numeric values.
///
/// The fold runs in *canonical* (total-order sorted) sequence, not in the
/// order the values arrived: float addition is non-associative, and two
/// plans of one query meet a group's members in different row orders. Near
/// the f64 precision edge — e.g. a group containing both 2^63 and -2^63
/// plus small values — the arrival-order sum visibly differs between them;
/// sorting first makes the fold a pure function of the value multiset.
pub(crate) fn aggregate_numbers(func: AggregateFunction, mut numbers: Vec<f64>) -> Term {
    numbers.sort_unstable_by(f64::total_cmp);
    let sum: f64 = numbers.iter().sum();
    match func {
        AggregateFunction::Avg if !numbers.is_empty() => number_term(sum / numbers.len() as f64),
        _ => number_term(sum),
    }
}

/// The `ORDER BY` keys of one solution; a condition that errors is unbound.
pub(crate) fn order_keys(order_by: &[OrderCondition], scope: &impl Scope) -> Vec<Option<Term>> {
    order_by
        .iter()
        .map(|cond| {
            evaluate_scoped(&cond.expr, scope)
                .ok()
                .and_then(EvalValue::into_term)
        })
        .collect()
}

/// The `ORDER BY` comparator: `key(i)` compares two solutions' `i`-th keys
/// ascending — under `Option<Term>`'s own order, unbound first, then the
/// term order — and is reversed under `DESC`; equal keys fall to `tiebreak`
/// over the whole rows, which makes the order total, so every caller cuts
/// `LIMIT` boundaries identically.
pub(crate) fn compare_ordered(
    order_by: &[OrderCondition],
    key: impl Fn(usize) -> Ordering,
    tiebreak: impl FnOnce() -> Ordering,
) -> Ordering {
    for (i, cond) in order_by.iter().enumerate() {
        let ord = key(i);
        let ord = if cond.descending { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    tiebreak()
}

/// A total order over solutions.
type Compare<'c, R> = &'c dyn Fn(&R, &R) -> Ordering;

/// A solution in the top-k heap, ordered by the sorter's comparator.
struct Entry<'c, R>(R, Compare<'c, R>);

impl<R> PartialEq for Entry<'_, R> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<R> Eq for Entry<'_, R> {}
impl<R> PartialOrd for Entry<'_, R> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<R> Ord for Entry<'_, R> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.1)(&self.0, &other.0)
    }
}

/// What [`order_solutions`] hands its driver: the solutions kept so far —
/// all of them, or with `k` the `k` smallest in a bounded max-heap.
pub(crate) struct Sorter<'c, R> {
    compare: Compare<'c, R>,
    k: Option<usize>,
    all: Vec<R>,
    heap: BinaryHeap<Entry<'c, R>>,
}

impl<R: Default> Sorter<'_, R> {
    /// Whether a candidate (possibly still borrowed) gets in: there is
    /// room, or it orders before the greatest solution kept — `below(worst)`.
    pub(crate) fn admits(&self, below: impl FnOnce(&R) -> bool) -> bool {
        match self.k {
            Some(k) if self.heap.len() >= k => self.heap.peek().is_some_and(|w| below(&w.0)),
            _ => true,
        }
    }

    /// Keeps a candidate [`Sorter::admits`] let in: `fill` writes it into a
    /// fresh solution while there is room, and over the evicted greatest one
    /// (whose buffers it can reuse) afterwards.
    pub(crate) fn keep(&mut self, fill: impl FnOnce(&mut R)) {
        match self.k {
            // Sifted back into place when the guard drops.
            Some(k) if self.heap.len() >= k => {
                if let Some(mut worst) = self.heap.peek_mut() {
                    fill(&mut worst.0);
                }
            }
            _ => {
                let mut solution = R::default();
                fill(&mut solution);
                match self.k {
                    Some(_) => self.heap.push(Entry(solution, self.compare)),
                    None => self.all.push(solution),
                }
            }
        }
    }
}

/// Sorts the solutions `drive` offers to the [`Sorter`] under `compare`, a
/// total order — all of them, or with `k` the first `k` through a bounded
/// max-heap, so `ORDER BY ... LIMIT` never materializes or fully sorts the
/// solution set. This is the one sort, for id rows and bindings alike.
pub(crate) fn order_solutions<R: Default>(
    k: Option<usize>,
    compare: Compare<'_, R>,
    drive: impl FnOnce(&mut Sorter<'_, R>) -> Result<(), SparqlError>,
) -> Result<Vec<R>, SparqlError> {
    let mut sorter = Sorter {
        compare,
        k,
        all: Vec::new(),
        // `k` comes from `offset + limit` and may be astronomically large
        // (e.g. `LIMIT 9223372036854775807 OFFSET 9223372036854775807`), so
        // it only bounds the heap's *size*, never pre-sizes its allocation.
        heap: BinaryHeap::with_capacity(k.map_or(0, |k| k.min(1024))),
    };
    drive(&mut sorter)?;
    let Sorter { mut all, heap, .. } = sorter;
    Ok(match k {
        None => {
            all.sort_by(compare);
            all
        }
        Some(_) => {
            let sorted = heap.into_sorted_vec();
            sorted.into_iter().map(|Entry(row, _)| row).collect()
        }
    })
}

/// [`order_solutions`] over Term-domain bindings (grouped output rows):
/// keys evaluate once per solution, and the tie-break is `Binding`'s own
/// order — variable names, then the term order.
pub(crate) fn order_bindings(
    order_by: &[OrderCondition],
    solutions: Vec<Binding>,
) -> Result<Vec<Binding>, SparqlError> {
    if order_by.is_empty() {
        return Ok(solutions);
    }
    type Keyed = (Vec<Option<Term>>, Binding);
    let compare =
        |a: &Keyed, b: &Keyed| compare_ordered(order_by, |i| a.0[i].cmp(&b.0[i]), || a.1.cmp(&b.1));
    let sorted = order_solutions(None, &compare, |sorter| {
        for solution in solutions {
            sorter.keep(|kept| *kept = (order_keys(order_by, &solution), solution));
        }
        Ok(())
    })?;
    Ok(sorted.into_iter().map(|(_, solution)| solution).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::SelectResults;
    use hbold_rdf_model::vocab::{foaf, rdf, xsd};
    use hbold_rdf_model::{Iri, Literal, Triple};

    fn iri(s: &str) -> Iri {
        Iri::new(s).unwrap()
    }

    /// Builds a small "scholarly" store: 3 people (2 with names), 2 papers,
    /// 1 organization, authorship and affiliation links.
    fn sample_store() -> TripleStore {
        let mut store = TripleStore::new();
        let person = iri("http://e.org/Person");
        let paper = iri("http://e.org/Paper");
        let org = iri("http://e.org/Organization");
        let author_of = iri("http://e.org/authorOf");
        let affiliated = iri("http://e.org/affiliatedWith");
        let age = iri("http://e.org/age");

        for (name, years) in [("alice", 42), ("bob", 31), ("carol", 77)] {
            let s = iri(&format!("http://e.org/{name}"));
            store.insert(&Triple::new(s.clone(), rdf::type_(), person.clone()));
            store.insert(&Triple::new(
                s.clone(),
                age.clone(),
                Literal::integer(years),
            ));
            if name != "carol" {
                store.insert(&Triple::new(s.clone(), foaf::name(), Literal::string(name)));
            }
        }
        for p in ["p1", "p2"] {
            let s = iri(&format!("http://e.org/{p}"));
            store.insert(&Triple::new(s.clone(), rdf::type_(), paper.clone()));
            store.insert(&Triple::new(
                iri("http://e.org/alice"),
                author_of.clone(),
                s.clone(),
            ));
        }
        store.insert(&Triple::new(
            iri("http://e.org/bob"),
            author_of.clone(),
            iri("http://e.org/p1"),
        ));
        store.insert(&Triple::new(
            iri("http://e.org/unimore"),
            rdf::type_(),
            org.clone(),
        ));
        store.insert(&Triple::new(
            iri("http://e.org/alice"),
            affiliated,
            iri("http://e.org/unimore"),
        ));
        store
    }

    fn select(store: &TripleStore, q: &str) -> SelectResults {
        execute_query(store, q).unwrap().into_select().unwrap()
    }

    #[test]
    fn simple_bgp_select() {
        let store = sample_store();
        let r = select(&store, "SELECT ?s WHERE { ?s a <http://e.org/Person> }");
        assert_eq!(r.len(), 3);
        assert_eq!(r.variables, vec!["s"]);
    }

    #[test]
    fn join_across_patterns() {
        let store = sample_store();
        let r = select(
            &store,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT ?name WHERE { ?s a <http://e.org/Person> . ?s foaf:name ?name . ?s <http://e.org/authorOf> ?p }",
        );
        // alice authored 2 papers, bob 1 → 3 rows.
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn select_star_and_distinct() {
        let store = sample_store();
        let r = select(&store, "SELECT * WHERE { ?s <http://e.org/authorOf> ?p }");
        assert_eq!(r.variables, vec!["s", "p"]);
        assert_eq!(r.len(), 3);
        let r = select(
            &store,
            "SELECT DISTINCT ?s WHERE { ?s <http://e.org/authorOf> ?p }",
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn filter_with_comparison() {
        let store = sample_store();
        let r = select(
            &store,
            "SELECT ?s WHERE { ?s <http://e.org/age> ?age FILTER(?age > 40) }",
        );
        assert_eq!(r.len(), 2, "alice (42) and carol (77)");
    }

    #[test]
    fn filter_with_regex() {
        let store = sample_store();
        let r = select(
            &store,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT ?s WHERE { ?s foaf:name ?n FILTER(regex(?n, '^ali')) }",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "s").unwrap().label(), "alice");
    }

    #[test]
    fn optional_keeps_unmatched_rows() {
        let store = sample_store();
        let r = select(
            &store,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT ?s ?name WHERE { ?s a <http://e.org/Person> OPTIONAL { ?s foaf:name ?name } }",
        );
        assert_eq!(r.len(), 3);
        let unbound = r.rows.iter().filter(|row| row[1].is_none()).count();
        assert_eq!(unbound, 1, "carol has no name");
    }

    #[test]
    fn union_combines_branches() {
        let store = sample_store();
        let r = select(
            &store,
            "SELECT ?x WHERE { { ?x a <http://e.org/Paper> } UNION { ?x a <http://e.org/Organization> } }",
        );
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn count_group_by_class_ordered() {
        let store = sample_store();
        let r = select(
            &store,
            "SELECT ?class (COUNT(?s) AS ?n) WHERE { ?s a ?class } GROUP BY ?class ORDER BY DESC(?n)",
        );
        assert_eq!(r.variables, vec!["class", "n"]);
        assert_eq!(r.len(), 3);
        // Person (3) first, then Paper (2), then Organization (1).
        assert_eq!(r.value(0, "class").unwrap().label(), "Person");
        assert_eq!(r.value(0, "n").unwrap().label(), "3");
        assert_eq!(r.value(2, "n").unwrap().label(), "1");
    }

    #[test]
    fn count_distinct() {
        let store = sample_store();
        let r = select(
            &store,
            "SELECT (COUNT(DISTINCT ?s) AS ?authors) WHERE { ?s <http://e.org/authorOf> ?p }",
        );
        assert_eq!(r.value(0, "authors").unwrap().label(), "2");
    }

    #[test]
    fn count_star_without_group() {
        let store = sample_store();
        let r = select(&store, "SELECT (COUNT(*) AS ?triples) WHERE { ?s ?p ?o }");
        assert_eq!(
            r.value(0, "triples").unwrap().label(),
            &store.len().to_string()
        );
    }

    #[test]
    fn aggregate_sum_avg_min_max() {
        let store = sample_store();
        let r = select(
            &store,
            "SELECT (SUM(?age) AS ?total) (AVG(?age) AS ?mean) (MIN(?age) AS ?lo) (MAX(?age) AS ?hi) \
             WHERE { ?s <http://e.org/age> ?age }",
        );
        assert_eq!(r.value(0, "total").unwrap().label(), "150");
        assert_eq!(r.value(0, "mean").unwrap().label(), "50");
        assert_eq!(r.value(0, "lo").unwrap().label(), "31");
        assert_eq!(r.value(0, "hi").unwrap().label(), "77");
    }

    #[test]
    fn order_limit_offset() {
        let store = sample_store();
        let r = select(
            &store,
            "SELECT ?s ?age WHERE { ?s <http://e.org/age> ?age } ORDER BY DESC(?age) LIMIT 2",
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.value(0, "s").unwrap().label(), "carol");
        let r = select(
            &store,
            "SELECT ?s ?age WHERE { ?s <http://e.org/age> ?age } ORDER BY ?age OFFSET 1 LIMIT 1",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "s").unwrap().label(), "alice");
    }

    #[test]
    fn ask_queries() {
        let store = sample_store();
        assert_eq!(
            execute_query(&store, "ASK { ?s a <http://e.org/Person> }")
                .unwrap()
                .as_ask(),
            Some(true)
        );
        assert_eq!(
            execute_query(&store, "ASK { ?s a <http://e.org/Spaceship> }")
                .unwrap()
                .as_ask(),
            Some(false)
        );
    }

    #[test]
    fn empty_group_count_is_zero() {
        let store = sample_store();
        let r = select(
            &store,
            "SELECT (COUNT(?s) AS ?n) WHERE { ?s a <http://e.org/Spaceship> }",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "n").unwrap().label(), "0");
    }

    #[test]
    fn typed_literal_objects_match() {
        let store = sample_store();
        let r = select(
            &store,
            "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\
             SELECT ?s WHERE { ?s <http://e.org/age> \"42\"^^xsd:integer }",
        );
        assert_eq!(r.len(), 1);
        let _ = xsd::integer();
    }

    #[test]
    fn projecting_ungrouped_variable_is_an_error() {
        let store = sample_store();
        let err = execute_query(
            &store,
            "SELECT ?s (COUNT(?p) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?o",
        )
        .unwrap_err();
        assert!(matches!(err, SparqlError::Evaluation(_)));
    }

    #[test]
    fn index_extraction_style_query() {
        // The shape of query H-BOLD's index extraction uses: classes with
        // their instance counts and, per class, the properties used.
        let store = sample_store();
        let classes = select(
            &store,
            "SELECT ?class (COUNT(?s) AS ?instances) WHERE { ?s a ?class } GROUP BY ?class ORDER BY ?class",
        );
        assert_eq!(classes.len(), 3);
        let props = select(
            &store,
            "SELECT DISTINCT ?p WHERE { ?s a <http://e.org/Person> . ?s ?p ?o } ORDER BY ?p",
        );
        // rdf:type, age, name, authorOf, affiliatedWith
        assert_eq!(props.len(), 5);
    }

    #[test]
    fn topk_matches_full_sort_with_ties() {
        let mut store = TripleStore::new();
        let p = iri("http://e.org/score");
        for i in 0..50 {
            store.insert(&Triple::new(
                iri(&format!("http://e.org/item{i:02}")),
                p.clone(),
                Literal::integer(i % 7), // plenty of ties
            ));
        }
        for q in [
            "SELECT ?s ?v WHERE { ?s <http://e.org/score> ?v } ORDER BY ?v LIMIT 5",
            "SELECT ?s ?v WHERE { ?s <http://e.org/score> ?v } ORDER BY DESC(?v) ?s LIMIT 9 OFFSET 3",
        ] {
            let plan = crate::parse_query(q).unwrap();
            let topk = evaluate(&store, &plan).unwrap();
            // Full-sort reference: same query without LIMIT/OFFSET, cut by hand.
            let mut unlimited = plan.clone();
            let offset = unlimited.offset.take().unwrap_or(0);
            let limit = unlimited.limit.take().unwrap();
            let mut full = evaluate(&store, &unlimited)
                .unwrap()
                .into_select()
                .unwrap();
            full.rows.drain(..offset.min(full.rows.len()));
            full.rows.truncate(limit);
            assert_eq!(topk.into_select().unwrap(), full, "query {q}");
        }
    }

    #[test]
    fn streaming_limit_short_circuits_without_order() {
        let store = sample_store();
        let r = select(&store, "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 4");
        assert_eq!(r.len(), 4);
        let r = select(&store, "SELECT ?s WHERE { ?s ?p ?o } OFFSET 1000");
        assert!(r.is_empty());
    }

    #[test]
    fn unmentioned_projection_variable_is_unbound() {
        // ?ghost never appears in the pattern: it gets a slot past the
        // pattern variables and stays unbound in every row.
        let store = sample_store();
        let r = select(
            &store,
            "SELECT ?s ?ghost WHERE { ?s a <http://e.org/Person> }",
        );
        assert_eq!(r.variables, vec!["s", "ghost"]);
        assert_eq!(r.len(), 3);
        assert!(r.rows.iter().all(|row| row[1].is_none()));
    }

    #[test]
    fn constant_absent_from_store_matches_nothing() {
        // The constant compiles to `Const(None)`: a statically-empty scan,
        // decided without touching an index.
        let store = sample_store();
        let r = select(&store, "SELECT ?s WHERE { ?s a <http://e.org/Ghost> }");
        assert!(r.is_empty());
        let r = select(
            &store,
            "SELECT ?s ?name WHERE { ?s a <http://e.org/Person> OPTIONAL { ?s <http://e.org/Ghost> ?name } }",
        );
        assert_eq!(r.len(), 3, "OPTIONAL over an empty scan keeps left rows");
        assert!(r.rows.iter().all(|row| row[1].is_none()));
    }

    #[test]
    fn repeated_variable_in_one_pattern_constrains() {
        let mut store = TripleStore::new();
        let p = iri("http://e.org/rel");
        store.insert(&Triple::new(
            iri("http://e.org/a"),
            p.clone(),
            iri("http://e.org/a"),
        ));
        store.insert(&Triple::new(
            iri("http://e.org/a"),
            p.clone(),
            iri("http://e.org/b"),
        ));
        let r = select(&store, "SELECT ?x WHERE { ?x <http://e.org/rel> ?x }");
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "x").unwrap().label(), "a");
    }

    /// Finds every span named `name` in the subtree under `span`.
    fn find_spans(span: &Span, name: &str, out: &mut Vec<Span>) {
        if span.name() == name {
            out.push(span.clone());
        }
        for child in span.children() {
            find_spans(&child, name, out);
        }
    }

    #[test]
    fn traced_evaluation_builds_span_tree() {
        let store = sample_store();
        let query = parse_cached(
            "SELECT ?s ?n WHERE { ?s a <http://e.org/Person> . ?s <http://xmlns.com/foaf/0.1/name> ?n }",
        )
        .unwrap();
        let root = Span::root("query");
        let hooks = EvalHooks {
            trace: Some(&root),
            ..EvalHooks::default()
        };
        let results = evaluate_with_hooks(&store, &query, &hooks).unwrap();
        assert_eq!(results.into_select().unwrap().len(), 2);

        let children = root.children();
        let names: Vec<&str> = children.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["plan", "execute"]);
        let plan = &children[0];
        assert_eq!(plan.attr("bgps").unwrap().as_u64(), Some(1));

        // One bgp with two scan stages in execution order, each annotated
        // with the pattern text, its written position and the estimate the
        // optimizer used — the same figures `explain` reports.
        let mut scans = Vec::new();
        find_spans(&root, "scan", &mut scans);
        assert_eq!(scans.len(), 2);
        let explanation = crate::optimize::explain(&store, &query);
        assert_eq!(explanation.bgps.len(), 1);
        for (i, scan) in scans.iter().enumerate() {
            assert_eq!(
                scan.attr("estimate").unwrap().as_u64(),
                Some(explanation.bgps[0].estimates[i]),
                "scan {i} estimate matches explain()"
            );
            assert_eq!(
                scan.attr("written_index").unwrap().as_u64(),
                Some(explanation.bgps[0].order[i] as u64),
            );
            assert!(scan.attr("pattern").unwrap().as_str().is_some());
        }
        // The last scan stage emits the final joined rows.
        assert_eq!(scans.last().unwrap().rows(), 2);
    }

    #[test]
    fn traced_evaluation_matches_untraced_results() {
        let store = sample_store();
        let q = "SELECT ?s ?o WHERE { { ?s <http://e.org/authorOf> ?o } UNION \
                 { ?s <http://e.org/affiliatedWith> ?o } \
                 OPTIONAL { ?s <http://xmlns.com/foaf/0.1/name> ?n } \
                 FILTER(BOUND(?s)) } ORDER BY ?s ?o";
        let query = parse_cached(q).unwrap();
        let plain = evaluate(&store, &query).unwrap().to_sparql_json();
        let root = Span::root("query");
        let hooks = EvalHooks {
            trace: Some(&root),
            ..EvalHooks::default()
        };
        // Tracing must not change results.
        let traced = evaluate_with_hooks(&store, &query, &hooks)
            .unwrap()
            .to_sparql_json();
        assert_eq!(plain, traced);
        let mut unions = Vec::new();
        find_spans(&root, "union", &mut unions);
        assert_eq!(unions.len(), 1);
        let mut filters = Vec::new();
        find_spans(&root, "filter", &mut filters);
        assert_eq!(filters.len(), 1);
        // The trace renders as a JSON document.
        let json = root.to_json();
        assert!(json.starts_with("{\"name\":\"query\""));
        assert!(json.contains("\"children\""));
    }

    #[test]
    fn tail_stages_report_under_execute() {
        let store = sample_store();
        let trace_on = |store: &TripleStore, q: &str| {
            let root = Span::root("query");
            let hooks = EvalHooks {
                trace: Some(&root),
                ..EvalHooks::default()
            };
            evaluate_with_hooks(store, &parse_cached(q).unwrap(), &hooks).unwrap();
            root.children()[1].clone()
        };
        let trace = |q: &str| trace_on(&store, q);
        let names = |span: &Span| -> Vec<String> {
            let children = span.children();
            children.iter().map(|c| c.name().to_string()).collect()
        };

        // A browse page: the pattern, then top-k, then the page's decode.
        let execute = trace(
            "SELECT ?s ?age WHERE { ?s a <http://e.org/Person> . ?s <http://e.org/age> ?age } \
             ORDER BY ?age LIMIT 2 OFFSET 1",
        );
        assert_eq!(names(&execute), ["bgp", "order", "project"]);
        let (bgp, order, project) = (
            &execute.children()[0],
            &execute.children()[1],
            &execute.children()[2],
        );
        assert_eq!(order.attr("strategy").unwrap().as_str(), Some("topk"));
        assert_eq!(order.attr("k").unwrap().as_u64(), Some(3));
        // `bgp` is a label carrying its scans' sum; `order` drove the
        // pattern but keeps only its own time, so the pattern and the
        // stages add up inside `execute`.
        let scans: u64 = bgp.children().iter().map(Span::elapsed_ns).sum();
        assert_eq!(bgp.elapsed_ns(), scans);
        let last_scan = bgp.children().last().unwrap().clone();
        assert_eq!(last_scan.rows(), 3);
        assert!(
            bgp.elapsed_ns() + order.elapsed_ns() + project.elapsed_ns() <= execute.elapsed_ns()
        );
        assert!(order.elapsed_ns() + project.elapsed_ns() <= execute.elapsed_ns());
        // The tail says what it threw away: 3 rows in, 3 kept (k = 3), and
        // the page is the 2 past the offset.
        assert_eq!(order.attr("rows_in").unwrap().as_u64(), Some(3));
        assert_eq!((order.rows(), project.rows()), (3, 2));
        let narrower = "SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o LIMIT 4";
        let order = &trace(narrower).children()[1];
        assert_eq!(
            order.attr("rows_in").unwrap().as_u64(),
            Some(store.len() as u64)
        );
        assert_eq!(order.rows(), 4);
        // The same page over a fresh load of the same data — ids in term
        // order — streams: the stage passes the page's rows and the walk
        // stops there.
        let fresh = TripleStore::from_graph(&store.to_graph());
        let order = &trace_on(&fresh, narrower).children()[1];
        assert_eq!(order.attr("strategy").unwrap().as_str(), Some("stream"));
        assert_eq!(order.attr("rows_in").unwrap().as_u64(), Some(4));
        assert_eq!(order.rows(), 4);

        // An extraction count: hash groups, sorted, projected.
        let execute =
            trace("SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c ORDER BY DESC(?n)");
        assert_eq!(names(&execute), ["bgp", "group", "order", "project"]);
        let group = &execute.children()[1];
        assert_eq!(group.attr("strategy").unwrap().as_str(), Some("hash"));
        assert_eq!(group.attr("groups").unwrap().as_u64(), Some(3));
        let (order, project) = (&execute.children()[2], &execute.children()[3]);
        assert_eq!(order.attr("strategy").unwrap().as_str(), Some("sort"));
        assert_eq!((group.rows(), order.rows(), project.rows()), (3, 3, 3));

        // A count read off the directory: the same stages, and the scan
        // reports the rows the count stands for.
        let execute = trace("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }");
        assert_eq!(names(&execute), ["bgp", "group", "project"]);
        let group = &execute.children()[1];
        assert_eq!(group.attr("strategy").unwrap().as_str(), Some("count"));
        let scan = &execute.children()[0].children()[0];
        assert_eq!(scan.rows(), store.len() as u64);
        assert_eq!(names(&trace("ASK { ?s ?p ?o }")), ["bgp", "ask"]);
    }
}
