//! The dictionary-encoded execution domain: slot layouts, `TermId` rows and
//! the executor.
//!
//! The one thing this module runs is a `Plan` (see [`crate::optimize`]):
//! `execute` opens the plan's pattern pipeline in a single walk — the one
//! site where a node's trace span and cancellation poll are attached — and
//! hands the stream to the plan's tail (ask, count, group, top-k, sort,
//! project). A compiled `EncPattern` cannot be run; only the planner takes
//! one.
//!
//! The operators carry solutions between them as **slot-addressed encoded
//! rows** instead of `BTreeMap<String, Term>` bindings:
//!
//! * At evaluation start each query's variables are compiled into a dense
//!   [`SlotLayout`]: every variable the query mentions anywhere (graph
//!   pattern, projection, GROUP BY, ORDER BY, filter and aggregate
//!   expressions) gets one fixed slot index.
//! * A solution is then a fixed-width `Vec<TermId>` ([`EncRow`]) with the
//!   sentinel [`UNBOUND`] marking unbound slots. Extending a solution
//!   through a triple pattern binds and compares raw `u32`s; cloning a row
//!   is a flat `memcpy` instead of a tree rebuild with per-term `Arc`
//!   traffic.
//! * Joins, `FILTER`, `OPTIONAL`, `UNION`, `DISTINCT`, `GROUP BY`
//!   partitioning and the `ORDER BY` tie-break all operate on identifiers
//!   (the tie-break decodes the two terms where ids differ, to compare
//!   them by the term order); the dictionary is consulted lazily — only
//!   where lexical values are genuinely needed (expression evaluation,
//!   ORDER BY sort keys, aggregate arithmetic) — and full [`Term`] rows
//!   materialize exactly once, at the [`SelectResults`] boundary.
//!
//! The naive reference evaluator ([`crate::reference`]) deliberately stays
//! in the Term domain, so the differential oracle keeps checking this whole
//! module against an implementation that shares none of it.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::Instant;

use hbold_rdf_model::Term;
use hbold_telemetry::Span;
use hbold_triple_store::{QuadScan, TermDictionary, TermId, TripleStore, DEFAULT_GRAPH};

use crate::ast::*;
use crate::error::SparqlError;
use crate::eval::{aggregate_values, order_bindings, order_keys, order_solutions};
use crate::expr::{evaluate_scoped, filter_passes_scoped, Binding, Scope};
use crate::optimize::{Group, Node, Order, Plan, PlanCounters, Select, Tail};
use crate::results::{QueryResults, SelectResults};

/// Sentinel marking an unbound slot in an [`EncRow`].
///
/// `TermId`s are dense indexes starting at 0, so `u32::MAX` can never be a
/// real identifier unless a store interns four billion terms — at which
/// point the dictionary's `Vec<Term>` backing would have failed long before.
pub const UNBOUND: TermId = TermId::MAX;

/// A fixed-width encoded solution row: `row[slot]` is the [`TermId`] bound
/// to the variable occupying `slot` in the query's [`SlotLayout`], or
/// [`UNBOUND`].
pub type EncRow = Vec<TermId>;

/// A lazy stream of encoded solutions; errors are carried in-band and
/// surface at the first pull that encounters them.
pub(crate) type EncStream<'a> = Box<dyn Iterator<Item = Result<EncRow, SparqlError>> + 'a>;

// ---- slot layout -----------------------------------------------------------------

/// The dense variable → slot mapping compiled from one query.
///
/// Slots are assigned in two groups: graph-pattern variables first, in
/// first-appearance order (so a `SELECT *` projection is simply slots
/// `0..pattern_vars()`), then variables referenced only by projection,
/// GROUP BY or ORDER BY expressions (those slots exist so lookups are
/// total, and stay [`UNBOUND`] in every row).
#[derive(Debug, Clone, Default)]
pub struct SlotLayout {
    names: Vec<String>,
    index: HashMap<String, u32>,
    /// Slots reordered by variable name — the ORDER BY tie-break walks
    /// bindings in name order, exactly like a `BTreeMap` iteration would.
    name_sorted: Vec<u32>,
    /// How many leading slots are graph-pattern variables.
    pattern_vars: usize,
}

impl SlotLayout {
    /// Compiles the layout for `query`.
    pub fn of_query(query: &Query) -> SlotLayout {
        let mut layout = SlotLayout::default();
        for v in query.pattern.variables() {
            layout.add(&v);
        }
        layout.pattern_vars = layout.names.len();
        // FILTER conditions may mention variables no triple pattern binds
        // (always unbound, e.g. `FILTER(BOUND(?x))` with no ?x pattern);
        // they still get slots so lookups stay total.
        layout.add_filter_vars(&query.pattern);
        if let QueryForm::Select {
            projection: Projection::Items(items),
            ..
        } = &query.form
        {
            for item in items {
                match item {
                    ProjectionItem::Variable(v) => layout.add(v),
                    ProjectionItem::Expression { expr, .. } => layout.add_expression_vars(expr),
                }
            }
        }
        for v in &query.group_by {
            layout.add(v);
        }
        for cond in &query.order_by {
            layout.add_expression_vars(&cond.expr);
        }
        let mut sorted: Vec<u32> = (0..layout.names.len() as u32).collect();
        sorted.sort_by(|a, b| layout.names[*a as usize].cmp(&layout.names[*b as usize]));
        layout.name_sorted = sorted;
        layout
    }

    fn add(&mut self, name: &str) {
        if !self.index.contains_key(name) {
            let slot = self.names.len() as u32;
            self.names.push(name.to_string());
            self.index.insert(name.to_string(), slot);
        }
    }

    fn add_filter_vars(&mut self, pattern: &GraphPattern) {
        match pattern {
            GraphPattern::Bgp(_) => {}
            GraphPattern::Join(parts) => {
                for p in parts {
                    self.add_filter_vars(p);
                }
            }
            GraphPattern::Optional { left, right } => {
                self.add_filter_vars(left);
                self.add_filter_vars(right);
            }
            GraphPattern::Union(a, b) => {
                self.add_filter_vars(a);
                self.add_filter_vars(b);
            }
            GraphPattern::Filter { inner, condition } => {
                self.add_expression_vars(condition);
                self.add_filter_vars(inner);
            }
            GraphPattern::Graph { inner, .. } => self.add_filter_vars(inner),
        }
    }

    fn add_expression_vars(&mut self, expr: &Expression) {
        match expr {
            Expression::Variable(v) => self.add(v),
            Expression::Constant(_) => {}
            Expression::Or(a, b) | Expression::And(a, b) => {
                self.add_expression_vars(a);
                self.add_expression_vars(b);
            }
            Expression::Not(inner) => self.add_expression_vars(inner),
            Expression::Comparison { left, right, .. } => {
                self.add_expression_vars(left);
                self.add_expression_vars(right);
            }
            Expression::Function { args, .. } => {
                for a in args {
                    self.add_expression_vars(a);
                }
            }
            Expression::Aggregate { arg, .. } => {
                if let Some(arg) = arg {
                    self.add_expression_vars(arg);
                }
            }
        }
    }

    /// The slot of a variable, if the query mentions it anywhere.
    pub fn slot_of(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// The variable name occupying `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn name_of(&self, slot: u32) -> &str {
        &self.names[slot as usize]
    }

    /// Number of slots (row width).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when the query mentions no variables at all.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Number of leading slots holding graph-pattern variables (the
    /// `SELECT *` projection).
    pub fn pattern_vars(&self) -> usize {
        self.pattern_vars
    }

    /// All slot names, in slot order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// A fresh all-unbound row of this layout's width.
    pub fn empty_row(&self) -> EncRow {
        vec![UNBOUND; self.names.len()]
    }
}

// ---- encoded scope (lazy decode for expressions) ---------------------------------

/// A [`Scope`] view over one encoded row: variable lookups resolve through
/// the slot layout and decode through the dictionary only when an
/// expression actually needs the term.
pub(crate) struct EncScope<'a> {
    pub row: &'a [TermId],
    pub layout: &'a SlotLayout,
    pub dict: &'a TermDictionary,
}

impl Scope for EncScope<'_> {
    fn term(&self, name: &str) -> Option<Term> {
        let slot = self.layout.slot_of(name)?;
        let id = self.row[slot as usize];
        (id != UNBOUND).then(|| self.dict.term(id).clone())
    }

    fn is_bound(&self, name: &str) -> bool {
        self.layout
            .slot_of(name)
            .is_some_and(|slot| self.row[slot as usize] != UNBOUND)
    }
}

// ---- compiled pattern ------------------------------------------------------------

/// One position of an encoded triple pattern.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EncNode {
    /// A constant term, pre-resolved against the store dictionary.
    /// `None` means the term was never interned: the pattern matches
    /// nothing, decided at compile time without touching an index.
    Const(Option<TermId>),
    /// A variable, addressed by its slot.
    Var(u32),
}

/// The graph a triple pattern is scoped to, in the encoded domain. `GRAPH`
/// groups compile *away*: every triple pattern inside a `GRAPH g { ... }`
/// carries `Named(g)` here, everything else carries `Default`, and the
/// pattern tree itself has no graph node.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EncGraph {
    /// The query's default graph (the store default graph, or the `FROM`
    /// merge when the query has dataset clauses).
    Default,
    /// A named graph: an IRI constant or a graph variable.
    Named(EncNode),
}

/// A triple pattern in the encoded domain, scoped to a graph.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EncTriplePattern {
    pub subject: EncNode,
    pub predicate: EncNode,
    pub object: EncNode,
    pub graph: EncGraph,
}

impl EncTriplePattern {
    pub(crate) fn nodes(&self) -> [EncNode; 3] {
        [self.subject, self.predicate, self.object]
    }

    /// The graph variable's slot, when the pattern is scoped to `GRAPH ?g`.
    pub(crate) fn graph_var(&self) -> Option<u32> {
        match self.graph {
            EncGraph::Named(EncNode::Var(slot)) => Some(slot),
            _ => None,
        }
    }
}

/// The query dataset resolved to graph identifiers.
///
/// `None` in either field means the query had **no** dataset clauses at all
/// and the store's own dataset applies; when any `FROM`/`FROM NAMED` clause
/// is present both fields are `Some` (possibly-empty — per SPARQL, dataset
/// clauses *replace* the store dataset rather than extend it). Graphs never
/// interned by the store resolve to nothing and simply drop out.
#[derive(Debug, Clone, Default)]
pub(crate) struct EncDataset {
    /// `FROM` graphs merged into the query's default graph.
    pub default_graphs: Option<Vec<TermId>>,
    /// `FROM NAMED` graphs visible to `GRAPH`.
    pub named_graphs: Option<Vec<TermId>>,
}

impl EncDataset {
    /// Resolves a parsed [`Dataset`] against the store dictionary.
    pub(crate) fn compile(dataset: &Dataset, dict: &TermDictionary) -> EncDataset {
        if dataset.is_empty() {
            return EncDataset::default();
        }
        let resolve = |graphs: &[Term]| -> Vec<TermId> {
            let mut ids: Vec<TermId> = graphs.iter().filter_map(|t| dict.id_of(t)).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        EncDataset {
            default_graphs: Some(resolve(&dataset.default_graphs)),
            named_graphs: Some(resolve(&dataset.named_graphs)),
        }
    }
}

/// A graph pattern compiled to the encoded domain, triple patterns in
/// written order. Filter conditions keep their AST form and evaluate through
/// [`EncScope`] (decoding lazily).
///
/// This is the planner's *input*, not something the operators can run:
/// [`crate::optimize::plan_pattern`] consumes it and returns the
/// [`Plan`] that [`execute`] walks.
#[derive(Debug, Clone)]
pub(crate) enum EncPattern {
    Bgp(Vec<EncTriplePattern>),
    Join(Vec<EncPattern>),
    Optional {
        left: Box<EncPattern>,
        right: Box<EncPattern>,
    },
    Union(Box<EncPattern>, Box<EncPattern>),
    Filter {
        inner: Box<EncPattern>,
        condition: Expression,
    },
}

/// Compiles a parsed graph pattern against a store dictionary and layout.
pub(crate) fn compile_pattern(
    pattern: &GraphPattern,
    layout: &SlotLayout,
    dict: &TermDictionary,
) -> EncPattern {
    compile_pattern_in(pattern, layout, dict, EncGraph::Default)
}

/// The recursive compiler, threading the enclosing graph scope: a `GRAPH`
/// node disappears here, stamping its graph onto every triple pattern of the
/// scoped subtree.
fn compile_pattern_in(
    pattern: &GraphPattern,
    layout: &SlotLayout,
    dict: &TermDictionary,
    graph: EncGraph,
) -> EncPattern {
    let node = |n: &TermOrVariable| -> EncNode {
        match n {
            TermOrVariable::Term(t) => EncNode::Const(dict.id_of(t)),
            TermOrVariable::Variable(v) => EncNode::Var(
                layout
                    .slot_of(v)
                    .expect("layout covers all pattern variables"),
            ),
        }
    };
    match pattern {
        GraphPattern::Bgp(tps) => EncPattern::Bgp(
            tps.iter()
                .map(|tp| EncTriplePattern {
                    subject: node(&tp.subject),
                    predicate: node(&tp.predicate),
                    object: node(&tp.object),
                    graph,
                })
                .collect(),
        ),
        GraphPattern::Join(parts) => EncPattern::Join(
            parts
                .iter()
                .map(|p| compile_pattern_in(p, layout, dict, graph))
                .collect(),
        ),
        GraphPattern::Optional { left, right } => EncPattern::Optional {
            left: Box::new(compile_pattern_in(left, layout, dict, graph)),
            right: Box::new(compile_pattern_in(right, layout, dict, graph)),
        },
        GraphPattern::Union(a, b) => EncPattern::Union(
            Box::new(compile_pattern_in(a, layout, dict, graph)),
            Box::new(compile_pattern_in(b, layout, dict, graph)),
        ),
        GraphPattern::Filter { inner, condition } => EncPattern::Filter {
            inner: Box::new(compile_pattern_in(inner, layout, dict, graph)),
            condition: condition.clone(),
        },
        GraphPattern::Graph { name, inner } => {
            let g = EncGraph::Named(node(name));
            compile_pattern_in(inner, layout, dict, g)
        }
    }
}

/// Everything an encoded operator needs, bundled for cheap threading through
/// the pipeline.
pub(crate) struct EncContext<'a> {
    pub store: &'a TripleStore,
    pub dict: &'a TermDictionary,
    pub layout: &'a SlotLayout,
    /// The query dataset (`FROM`/`FROM NAMED`), resolved to graph ids.
    pub dataset: EncDataset,
    /// Caller-private optimizer counters; the planning pass bumps these in
    /// addition to the process-wide registry when present.
    pub counters: Option<&'a PlanCounters>,
    /// Cooperative cancellation token for this evaluation, polled at batch
    /// boundaries by the streams [`attach`] wraps and at group boundaries by
    /// the grouped tail. `None` (the default) adds no per-row work.
    pub cancel: Option<&'a crate::cancel::CancellationToken>,
}

impl<'a> EncContext<'a> {
    /// A context with neither private counters nor a token attached.
    pub(crate) fn new(
        store: &'a TripleStore,
        dict: &'a TermDictionary,
        layout: &'a SlotLayout,
    ) -> EncContext<'a> {
        EncContext {
            store,
            dict,
            layout,
            dataset: EncDataset::default(),
            counters: None,
            cancel: None,
        }
    }
}

// ---- observation: spans and cancellation polls -----------------------------------

/// Runs `f`, adding its wall time to `span` when tracing is on.
pub(crate) fn timed<T>(span: Option<&Span>, f: impl FnOnce() -> T) -> T {
    match span {
        Some(span) => span.timed(f),
        None => f(),
    }
}

/// Renders an encoded triple pattern back to readable text for trace spans:
/// variables through the layout, constants through the dictionary.
fn render_triple_pattern(ctx: &EncContext<'_>, tp: &EncTriplePattern) -> String {
    let node = |n: EncNode| -> String {
        match n {
            EncNode::Var(slot) => format!("?{}", ctx.layout.name_of(slot)),
            EncNode::Const(Some(id)) => ctx.dict.term(id).to_ntriples(),
            // A constant the store never interned: the scan is statically
            // empty, and there is no term to decode.
            EncNode::Const(None) => "(not interned)".to_string(),
        }
    };
    let triple = format!(
        "{} {} {}",
        node(tp.subject),
        node(tp.predicate),
        node(tp.object)
    );
    match tp.graph {
        EncGraph::Default => triple,
        EncGraph::Named(g) => format!("GRAPH {} {{ {triple} }}", node(g)),
    }
}

/// An [`EncStream`] under observation. With a span, every pull's wall time
/// is added to it (inclusive of upstream work — a span's elapsed is
/// cumulative, not self time) and every yielded row counts. With a token,
/// it is polled once every `check_interval` pulls, the very first included
/// (so an already-tripped token fails before any row is produced): a tripped
/// token turns into an in-band `Err`, which the downstream collectors treat
/// as fatal — a cancelled query can never yield a truncated result, only
/// the typed error. Between checks the cost is one integer decrement per row.
struct Observed<'a> {
    inner: EncStream<'a>,
    span: Option<Span>,
    token: Option<&'a crate::cancel::CancellationToken>,
    countdown: u32,
}

impl Observed<'_> {
    fn pull(&mut self) -> Option<Result<EncRow, SparqlError>> {
        if let Some(token) = self.token {
            if self.countdown == 0 {
                self.countdown = token.check_interval();
                if let Err(e) = token.check() {
                    return Some(Err(e));
                }
            }
            self.countdown -= 1;
        }
        self.inner.next()
    }
}

impl Iterator for Observed<'_> {
    type Item = Result<EncRow, SparqlError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.span.is_none() {
            return self.pull();
        }
        let start = Instant::now();
        let item = self.pull();
        if let Some(span) = &self.span {
            span.add_elapsed_ns(start.elapsed().as_nanos() as u64);
            if let Some(Ok(_)) = &item {
                span.add_rows(1);
            }
        }
        item
    }
}

/// An opened plan node: feeds an input stream through the node's operator.
/// The pipeline itself is applied once, to the root row; the right side of
/// a left join and the branches of a union once per input row.
type Opened<'a> = Rc<dyn Fn(EncStream<'a>) -> EncStream<'a> + 'a>;

/// The one place a node's output comes under observation: `span` (when
/// tracing is on and the node is timed) and, if `poll`, the evaluation's
/// cancellation token. With neither, `op`'s stream is returned untouched —
/// nothing per row.
fn attach<'a>(
    ctx: &'a EncContext<'a>,
    span: Option<Span>,
    poll: bool,
    op: impl Fn(EncStream<'a>) -> EncStream<'a> + 'a,
) -> Opened<'a> {
    let token = ctx.cancel.filter(|_| poll);
    if span.is_none() && token.is_none() {
        return Rc::new(op);
    }
    Rc::new(move |input| {
        Box::new(Observed {
            inner: op(input),
            span: span.clone(),
            token,
            countdown: 0,
        })
    })
}

// ---- triple-pattern scans --------------------------------------------------------

/// How one triple pattern's candidate quads are produced, decided once per
/// input row from the pattern's graph scope and the query dataset.
enum ScanMode<'a> {
    /// A constant (or the scoped graph) is absent / excluded: no matches.
    Empty,
    /// One concrete graph (the store default graph, a single `FROM` graph,
    /// a constant `GRAPH <g>`, or `GRAPH ?g` with `?g` already bound): one
    /// graph-first index range scan. The graph id is fixed, so nothing
    /// graph-related needs binding per quad.
    Single(QuadScan<'a>),
    /// `GRAPH ?g` with `?g` unbound: a graph-last index scan across every
    /// graph, skipping default-graph quads, optionally restricted to the
    /// `FROM NAMED` set, binding the graph slot per quad.
    AnyNamed {
        scan: QuadScan<'a>,
        allowed: Option<&'a [TermId]>,
        slot: u32,
    },
    /// A `FROM` merge of two or more graphs: the default graph is their
    /// *set* union, so matches materialize into a dedup set first.
    Merged(std::vec::IntoIter<[TermId; 3]>),
}

/// Lazily extends one encoded row through one triple pattern via an encoded
/// index scan. Concrete type so BGP stages avoid a heap allocation per
/// input row.
pub(crate) struct ScanRows<'a> {
    mode: ScanMode<'a>,
    tp: &'a EncTriplePattern,
    row: EncRow,
}

impl<'a> ScanRows<'a> {
    pub(crate) fn new(
        ctx: &'a EncContext<'a>,
        tp: &'a EncTriplePattern,
        row: EncRow,
    ) -> ScanRows<'a> {
        // Resolve each position: a constant uses its pre-compiled id, a
        // variable already bound in the row acts as a constant, and an
        // unbound variable leaves the position open for the range scan.
        let resolve = |node: EncNode| -> Result<Option<TermId>, ()> {
            match node {
                EncNode::Const(Some(id)) => Ok(Some(id)),
                EncNode::Const(None) => Err(()),
                EncNode::Var(slot) => match row[slot as usize] {
                    UNBOUND => Ok(None),
                    id => Ok(Some(id)),
                },
            }
        };
        let (s, p, o) = match (
            resolve(tp.subject),
            resolve(tp.predicate),
            resolve(tp.object),
        ) {
            (Ok(s), Ok(p), Ok(o)) => (s, p, o),
            _ => {
                return ScanRows {
                    mode: ScanMode::Empty,
                    tp,
                    row,
                }
            }
        };
        let mode = match tp.graph {
            EncGraph::Default => match &ctx.dataset.default_graphs {
                // No FROM clause: the store's own default graph.
                None => ScanMode::Single(ctx.store.matching_quads_encoded_iter(
                    Some(DEFAULT_GRAPH),
                    s,
                    p,
                    o,
                )),
                Some(graphs) => match graphs.as_slice() {
                    [] => ScanMode::Empty,
                    &[g] => {
                        ScanMode::Single(ctx.store.matching_quads_encoded_iter(Some(g), s, p, o))
                    }
                    graphs => {
                        let mut set: std::collections::BTreeSet<[TermId; 3]> =
                            std::collections::BTreeSet::new();
                        for &g in graphs {
                            for quad in ctx.store.matching_quads_encoded_iter(Some(g), s, p, o) {
                                set.insert([quad.subject, quad.predicate, quad.object]);
                            }
                        }
                        ScanMode::Merged(set.into_iter().collect::<Vec<_>>().into_iter())
                    }
                },
            },
            EncGraph::Named(node) => match resolve(node) {
                Err(()) => ScanMode::Empty,
                Ok(Some(g)) => {
                    // A concrete named graph must be visible in the dataset.
                    let visible = match &ctx.dataset.named_graphs {
                        None => true,
                        Some(named) => named.contains(&g),
                    };
                    if visible {
                        ScanMode::Single(ctx.store.matching_quads_encoded_iter(Some(g), s, p, o))
                    } else {
                        ScanMode::Empty
                    }
                }
                Ok(None) => {
                    let EncGraph::Named(EncNode::Var(slot)) = tp.graph else {
                        unreachable!("unbound named graph is always a variable")
                    };
                    ScanMode::AnyNamed {
                        scan: ctx.store.matching_quads_encoded_iter(None, s, p, o),
                        allowed: ctx.dataset.named_graphs.as_deref(),
                        slot,
                    }
                }
            },
        };
        ScanRows { mode, tp, row }
    }
}

/// Binds the triple positions of one matched quad into a clone of the input
/// row; `None` when a repeated variable matches conflicting ids.
fn extend_triple(
    tp: &EncTriplePattern,
    row: &EncRow,
    s: TermId,
    p: TermId,
    o: TermId,
) -> Option<EncRow> {
    let mut extended = row.clone();
    for (node, id) in [(tp.subject, s), (tp.predicate, p), (tp.object, o)] {
        if let EncNode::Var(slot) = node {
            let cell = &mut extended[slot as usize];
            if *cell == UNBOUND {
                *cell = id;
            } else if *cell != id {
                // Same variable twice in one pattern with a conflicting
                // match (e.g. `?x ?p ?x`).
                return None;
            }
        }
    }
    Some(extended)
}

impl Iterator for ScanRows<'_> {
    type Item = Result<EncRow, SparqlError>;

    fn next(&mut self) -> Option<Self::Item> {
        let ScanRows { mode, tp, row } = self;
        match mode {
            ScanMode::Empty => None,
            ScanMode::Single(scan) => {
                for quad in scan {
                    if let Some(extended) =
                        extend_triple(tp, row, quad.subject, quad.predicate, quad.object)
                    {
                        return Some(Ok(extended));
                    }
                }
                None
            }
            ScanMode::Merged(triples) => {
                for [s, p, o] in triples.by_ref() {
                    if let Some(extended) = extend_triple(tp, row, s, p, o) {
                        return Some(Ok(extended));
                    }
                }
                None
            }
            ScanMode::AnyNamed {
                scan,
                allowed,
                slot,
            } => {
                for quad in scan {
                    if quad.graph == DEFAULT_GRAPH {
                        continue;
                    }
                    if let Some(allowed) = allowed {
                        if !allowed.contains(&quad.graph) {
                            continue;
                        }
                    }
                    let Some(mut extended) =
                        extend_triple(tp, row, quad.subject, quad.predicate, quad.object)
                    else {
                        continue;
                    };
                    // Bind the graph variable (conflict-checked like any
                    // other position: `GRAPH ?g { ?g ?p ?o }` is legal).
                    let cell = &mut extended[*slot as usize];
                    if *cell == UNBOUND {
                        *cell = quad.graph;
                    } else if *cell != quad.graph {
                        continue;
                    }
                    return Some(Ok(extended));
                }
                None
            }
        }
    }
}

/// Per-input-row stage output: either the input's error passed through, or
/// a scan of its extensions. Lets a BGP stage `flat_map` without boxing an
/// iterator per row.
pub(crate) enum RowScan<'a> {
    Failed(Option<SparqlError>),
    Scan(ScanRows<'a>),
}

impl Iterator for RowScan<'_> {
    type Item = Result<EncRow, SparqlError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            RowScan::Failed(e) => e.take().map(Err),
            RowScan::Scan(scan) => scan.next(),
        }
    }
}

// ---- the executor walk -----------------------------------------------------------

/// Opens `node` under the `parent` span: the one walk over the planned
/// pattern, visiting every node exactly once. It makes no ordering decision
/// of its own — BGP stages run in their planned order, pushed pre-binds are
/// applied as recorded — and every operator's output passes through
/// [`attach`].
fn open<'a>(ctx: &'a EncContext<'a>, node: &'a Node, parent: Option<&Span>) -> Opened<'a> {
    let child = |name: &str| parent.map(|p| p.child(name));
    match node {
        // `bgp` and `join` are label spans: they group their children and
        // carry no time of their own.
        Node::Bgp(stages) => {
            let bgp = child("bgp");
            if let Some(bgp) = &bgp {
                let order: Vec<u64> = stages.iter().map(|s| s.written_index as u64).collect();
                bgp.set_attr("order", order);
            }
            // Each stage is a nested index scan, and each polls the token:
            // a join can run for ever while handing nothing downstream (a
            // cross product under a filter that rejects every row), so a
            // poll that counts only the rows leaving the pipeline would
            // never fire; counted per stage, the work between two polls is
            // bounded by `check_interval` rows plus one index scan.
            let stages: Vec<Opened<'a>> = stages
                .iter()
                .map(|stage| {
                    let span = bgp.as_ref().map(|bgp| {
                        let scan = bgp.child("scan");
                        scan.set_attr("pattern", render_triple_pattern(ctx, &stage.tp));
                        scan.set_attr("written_index", stage.written_index);
                        scan.set_attr("estimate", stage.estimate);
                        scan
                    });
                    attach(ctx, span, true, move |input| {
                        Box::new(input.flat_map(move |solution| match solution {
                            Err(e) => RowScan::Failed(Some(e)),
                            Ok(row) => RowScan::Scan(ScanRows::new(ctx, &stage.tp, row)),
                        }))
                    })
                })
                .collect();
            Rc::new(move |input| stages.iter().fold(input, |stream, stage| stage(stream)))
        }
        Node::Join(parts) => {
            let span = child("join");
            let parts: Vec<Opened<'a>> = parts
                .iter()
                .map(|part| open(ctx, part, span.as_ref()))
                .collect();
            Rc::new(move |input| parts.iter().fold(input, |stream, part| part(stream)))
        }
        Node::LeftJoin { left, right } => {
            let span = child("optional");
            let left = open(ctx, left, span.as_ref());
            let right = open(ctx, right, span.as_ref());
            attach(ctx, span, false, move |input| {
                let right = Rc::clone(&right);
                Box::new(left(input).flat_map(move |solution| -> EncStream<'a> {
                    match solution {
                        Err(e) => Box::new(std::iter::once(Err(e))),
                        Ok(row) => {
                            let mut extended = right(Box::new(std::iter::once(Ok(row.clone()))));
                            match extended.next() {
                                // Left join: an unmatched left solution survives.
                                None => Box::new(std::iter::once(Ok(row))),
                                Some(first) => Box::new(std::iter::once(first).chain(extended)),
                            }
                        }
                    }
                }))
            })
        }
        Node::Union(a, b) => {
            let span = child("union");
            let a = open(ctx, a, span.as_ref());
            let b = open(ctx, b, span.as_ref());
            // Feed each input row through branch a then branch b; same
            // multiset as materialized `eval(a) ++ eval(b)`, and sequencing
            // is only observable under ORDER BY where the deterministic
            // sort makes both forms identical.
            attach(ctx, span, false, move |input| {
                let (a, b) = (Rc::clone(&a), Rc::clone(&b));
                Box::new(input.flat_map(move |solution| -> EncStream<'a> {
                    match solution {
                        Err(e) => Box::new(std::iter::once(Err(e))),
                        Ok(row) => Box::new(
                            a(Box::new(std::iter::once(Ok(row.clone()))))
                                .chain(b(Box::new(std::iter::once(Ok(row))))),
                        ),
                    }
                }))
            })
        }
        Node::Filter {
            prebind,
            inner,
            condition,
        } => {
            let span = child("filter");
            if let Some(span) = &span {
                span.set_attr("pushed_prebinds", prebind.len());
            }
            let inner = open(ctx, inner, span.as_ref());
            attach(ctx, span, false, move |input| {
                // Pushed-down equality conjuncts pre-bind their slots on
                // every input row, so the inner scans treat them as
                // constants; the residual condition still evaluates in full
                // on each survivor.
                let input: EncStream<'a> = if prebind.is_empty() {
                    input
                } else {
                    Box::new(input.filter_map(move |solution| match solution {
                        Ok(mut row) => {
                            crate::optimize::apply_prebind(prebind, &mut row).then_some(Ok(row))
                        }
                        Err(e) => Some(Err(e)),
                    }))
                };
                Box::new(inner(input).filter_map(move |solution| match solution {
                    Ok(row) => {
                        let scope = EncScope {
                            row: &row,
                            layout: ctx.layout,
                            dict: ctx.dict,
                        };
                        match filter_passes_scoped(condition, &scope) {
                            Ok(true) => Some(Ok(row)),
                            Ok(false) => None,
                            Err(e) => Some(Err(e)),
                        }
                    }
                    Err(e) => Some(Err(e)),
                }))
            })
        }
    }
}

/// The spans of the tail's stages, siblings of the pattern's root span in
/// pipeline order. A stage the plan does not have has no span.
#[derive(Default)]
pub(crate) struct TailSpans {
    ask: Option<Span>,
    group: Option<Span>,
    order: Option<Span>,
    project: Option<Span>,
}

/// Opens the whole plan under `parent` without pulling a row: the pattern
/// pipeline over the single empty row, and the tail's spans. This is the
/// only place the pipeline is opened — [`execute`] runs what it returns,
/// [`crate::optimize::explain`] renders the spans it leaves under `parent`.
pub(crate) fn open_plan<'a>(
    ctx: &'a EncContext<'a>,
    plan: &'a Plan<'_>,
    parent: Option<&Span>,
) -> (EncStream<'a>, TailSpans) {
    let pipeline = open(ctx, &plan.root, parent);
    // The root poll fails an already-tripped token before the first row,
    // whatever the pattern; the scan stages poll for themselves, since rows
    // a filter drops never reach this one.
    let root = attach(ctx, None, true, move |input| pipeline(input));
    let stream = root(Box::new(std::iter::once(Ok(ctx.layout.empty_row()))));
    let spans = match (parent, &plan.tail) {
        (None, _) => TailSpans::default(),
        (Some(parent), Tail::Ask) => TailSpans {
            ask: Some(parent.child("ask")),
            ..TailSpans::default()
        },
        (Some(parent), Tail::Select(select)) => TailSpans {
            ask: None,
            group: select.group.as_ref().map(|group| {
                let span = parent.child("group");
                let strategy = match group {
                    Group::Count(_) => "count",
                    Group::Hash(_) => "hash",
                };
                span.set_attr("strategy", strategy);
                span
            }),
            order: select.order.as_ref().map(|order| {
                let span = parent.child("order");
                match order {
                    Order::TopK(k) => {
                        span.set_attr("strategy", "topk");
                        span.set_attr("k", *k);
                    }
                    Order::Sort => span.set_attr("strategy", "sort"),
                }
                span
            }),
            project: Some(parent.child("project")),
        },
    };
    (stream, spans)
}

/// Runs a plan: opens it once and hands the stream to the plan's tail. With
/// `span` set (tracing on) every timed node and tail stage reports under it,
/// and it times the run itself — the pulls, not the opening.
pub(crate) fn execute(
    ctx: &EncContext<'_>,
    plan: &Plan<'_>,
    span: Option<&Span>,
) -> Result<QueryResults, SparqlError> {
    let (mut stream, spans) = open_plan(ctx, plan, span);
    let select = match &plan.tail {
        // Streaming pays off immediately: the first solution settles it.
        Tail::Ask => {
            return timed(span, || timed(spans.ask.as_ref(), || stream.next()))
                .transpose()
                .map(|row| QueryResults::Ask(row.is_some()))
        }
        Tail::Select(select) => select,
    };
    let query = select.query;
    let offset = query.offset.unwrap_or(0);
    let project = spans.project.as_ref();
    let results = timed(span, || match (&select.group, &select.order) {
        (Some(group), _) => {
            let mut results = match group {
                Group::Count(counters) => {
                    timed(spans.group.as_ref(), || count_rows(counters, stream))?
                }
                Group::Hash(slots) => project_grouped(ctx, select, slots, stream, &spans)?,
            };
            // Post-aggregation row counts are small; DISTINCT/OFFSET/LIMIT
            // run in the Term domain here.
            timed(project, || {
                distinct_cut(&mut results.rows, select.distinct, offset, query.limit)
            });
            Ok(results)
        }
        (None, Some(order)) => {
            let k = match order {
                Order::TopK(k) => Some(*k),
                Order::Sort => None,
            };
            let ordered = timed(spans.order.as_ref(), || {
                order_solutions(
                    &query.order_by,
                    stream,
                    k,
                    // Keys evaluate with lazy decode.
                    |row| {
                        let scope = EncScope {
                            row,
                            layout: ctx.layout,
                            dict: ctx.dict,
                        };
                        order_keys(&query.order_by, &scope)
                    },
                    |a, b| compare_rows_tiebreak(ctx, a, b),
                )
            })?;
            let ordered = Box::new(ordered.into_iter().map(Ok));
            timed(project, || project_rows(ctx, select, ordered))
        }
        (None, None) => timed(project, || project_rows(ctx, select, stream)),
    })?;
    Ok(QueryResults::Select(results))
}

// ---- projection (the decode boundary) --------------------------------------------

/// The columns of a projection compiled against the slot layout.
enum Columns<'q> {
    /// Every column is a plain variable (or `SELECT *`): column `i` reads
    /// slot `slots[i]`, and DISTINCT can dedup on raw identifiers.
    Slots(Vec<u32>),
    /// At least one column is a computed expression; rows materialize into
    /// the Term domain at projection time.
    Mixed(&'q [ProjectionItem]),
}

/// Compiles a projection into its variable names and [`Columns`].
fn compile_projection<'q>(
    projection: &'q Projection,
    layout: &SlotLayout,
) -> (Vec<String>, Columns<'q>) {
    let Projection::Items(items) = projection else {
        let width = layout.pattern_vars();
        let slots = (0..width as u32).collect();
        return (layout.names()[..width].to_vec(), Columns::Slots(slots));
    };
    let variables = items
        .iter()
        .map(|item| match item {
            ProjectionItem::Variable(v) => v.clone(),
            ProjectionItem::Expression { alias, .. } => alias.clone(),
        })
        .collect();
    let all_slots: Option<Vec<u32>> = items
        .iter()
        .map(|item| match item {
            ProjectionItem::Variable(v) => layout.slot_of(v),
            ProjectionItem::Expression { .. } => None,
        })
        .collect();
    (
        variables,
        all_slots.map_or(Columns::Mixed(items), Columns::Slots),
    )
}

/// Projects one row into slot-id space (Slots projections only).
fn project_slots(slots: &[u32], row: &[TermId]) -> Vec<TermId> {
    slots.iter().map(|&s| row[s as usize]).collect()
}

/// Decodes projected slot ids into terms — the single point where variable
/// columns materialize.
fn decode(dict: &TermDictionary, ids: impl Iterator<Item = TermId>) -> Vec<Option<Term>> {
    ids.map(|id| (id != UNBOUND).then(|| dict.term(id).clone()))
        .collect()
}

/// Projects one row through a Mixed projection (expressions evaluate with
/// lazy decode; results land directly in the Term domain).
fn project_mixed(
    ctx: &EncContext<'_>,
    items: &[ProjectionItem],
    row: &[TermId],
) -> Result<Vec<Option<Term>>, SparqlError> {
    let scope = EncScope {
        row,
        layout: ctx.layout,
        dict: ctx.dict,
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            ProjectionItem::Variable(v) => out.push(scope.term(v)),
            ProjectionItem::Expression { expr, .. } => {
                out.push(evaluate_scoped(expr, &scope)?.into_term())
            }
        }
    }
    Ok(out)
}

/// DISTINCT (in row order), OFFSET and LIMIT over Term-domain rows.
fn distinct_cut(
    rows: &mut Vec<Vec<Option<Term>>>,
    distinct: bool,
    offset: usize,
    limit: Option<usize>,
) {
    if distinct {
        let mut seen: HashSet<Vec<Option<Term>>> = HashSet::with_capacity(rows.len());
        rows.retain(|r| seen.insert(r.clone()));
    }
    cut(rows, offset, limit);
}

fn cut<T>(rows: &mut Vec<T>, offset: usize, limit: Option<usize>) {
    if offset > 0 {
        rows.drain(..offset.min(rows.len()));
    }
    if let Some(limit) = limit {
        rows.truncate(limit);
    }
}

// ---- SELECT tails ----------------------------------------------------------------

/// The project stage: streams encoded rows — the pattern's own, or the order
/// stage's — straight into projected rows, stopping once `OFFSET + LIMIT`
/// (distinct) rows exist and decoding only the rows of the page.
fn project_rows(
    ctx: &EncContext<'_>,
    select: &Select<'_>,
    stream: EncStream<'_>,
) -> Result<SelectResults, SparqlError> {
    let (variables, columns) = compile_projection(select.projection, ctx.layout);
    let (offset, limit) = (select.query.offset.unwrap_or(0), select.query.limit);
    // The stream is dropped after the row that completes the page, and
    // never pulled at all for an empty page (`LIMIT 0`).
    let target = limit.map_or(usize::MAX, |limit| offset.saturating_add(limit));
    let stream: EncStream<'_> = match target {
        0 => Box::new(std::iter::empty()),
        _ => stream,
    };
    let rows = match columns {
        // No dedup needed: decode straight off the stream, one output row
        // allocation per solution of the page and nothing else.
        Columns::Slots(slots) if !select.distinct => stream
            .take(target)
            .enumerate()
            .filter_map(|(i, solution)| match solution {
                Ok(_) if i < offset => None,
                Ok(row) => Some(Ok(decode(ctx.dict, slots.iter().map(|&s| row[s as usize])))),
                Err(e) => Some(Err(e)),
            })
            .collect::<Result<Vec<_>, SparqlError>>()?,
        Columns::Slots(slots) => {
            let mut seen: HashSet<Vec<TermId>> = HashSet::new();
            let mut kept = first_rows(stream, target, |row| {
                let projected = project_slots(&slots, row);
                Ok(seen.insert(projected.clone()).then_some(projected))
            })?;
            cut(&mut kept, offset, limit);
            kept.iter()
                .map(|p| decode(ctx.dict, p.iter().copied()))
                .collect()
        }
        Columns::Mixed(items) => {
            let mut seen: HashSet<Vec<Option<Term>>> = HashSet::new();
            let mut kept = first_rows(stream, target, |row| {
                let projected = project_mixed(ctx, items, row)?;
                let fresh = !select.distinct || seen.insert(projected.clone());
                Ok(fresh.then_some(projected))
            })?;
            cut(&mut kept, offset, limit);
            kept
        }
    };
    Ok(SelectResults { variables, rows })
}

/// The first `target` rows `keep` lets through, pulling no further.
fn first_rows<R>(
    stream: EncStream<'_>,
    target: usize,
    mut keep: impl FnMut(&EncRow) -> Result<Option<R>, SparqlError>,
) -> Result<Vec<R>, SparqlError> {
    let mut kept = Vec::new();
    for solution in stream {
        if let Some(row) = keep(&solution?)? {
            kept.push(row);
            if kept.len() == target {
                break;
            }
        }
    }
    Ok(kept)
}

// ---- ordering --------------------------------------------------------------------

/// The whole-row tie-break of `ORDER BY` over encoded rows: `Binding`'s own
/// order (variable names, then the term order — what
/// [`crate::eval::order_bindings`] breaks ties by) without building the
/// map. Slots are walked in variable-name order, unbound ones skipped, ids
/// compared first and terms decoded only where they differ.
fn compare_rows_tiebreak(ctx: &EncContext<'_>, a: &[TermId], b: &[TermId]) -> Ordering {
    let mut ia = ctx
        .layout
        .name_sorted
        .iter()
        .filter(|&&slot| a[slot as usize] != UNBOUND);
    let mut ib = ctx
        .layout
        .name_sorted
        .iter()
        .filter(|&&slot| b[slot as usize] != UNBOUND);
    loop {
        match (ia.next(), ib.next()) {
            (None, None) => return Ordering::Equal,
            (None, Some(_)) => return Ordering::Less,
            (Some(_), None) => return Ordering::Greater,
            (Some(&sa), Some(&sb)) => {
                let ord = ctx.layout.name_of(sa).cmp(ctx.layout.name_of(sb));
                if ord != Ordering::Equal {
                    return ord;
                }
                let (ida, idb) = (a[sa as usize], b[sb as usize]);
                if ida != idb {
                    // Interning is injective, and the term order ties only
                    // equal terms: distinct ids never compare `Equal`.
                    return ctx.dict.term(ida).cmp(ctx.dict.term(idb));
                }
            }
        }
    }
}

// ---- grouped evaluation ----------------------------------------------------------

/// The group stage of an ungrouped pure-count projection
/// (`SELECT (COUNT(*) AS ?n) (COUNT(?v) AS ?m) ... WHERE ...`, see
/// [`Group::Count`]): counts the encoded stream without materializing a
/// single row.
fn count_rows(
    counters: &[(String, Option<u32>)],
    stream: EncStream<'_>,
) -> Result<SelectResults, SparqlError> {
    let mut counts = vec![0usize; counters.len()];
    for solution in stream {
        let row = solution?;
        for (count, (_, slot)) in counts.iter_mut().zip(counters) {
            // `None` counts every solution, `Some(slot)` those binding it.
            if slot.is_none_or(|slot| row[slot as usize] != UNBOUND) {
                *count += 1;
            }
        }
    }
    Ok(SelectResults {
        variables: counters.iter().map(|(alias, _)| alias.clone()).collect(),
        rows: vec![counts
            .iter()
            .map(|&n| aggregate_values(AggregateFunction::Count, Vec::new(), n))
            .collect()],
    })
}

/// The group and order stages of a grouped/aggregated projection
/// ([`Group::Hash`]) over the pattern's solutions.
///
/// Partitioning hashes raw slot-id key vectors (the hot part — one hash of
/// a few `u32`s per solution instead of a formatted string); group *output*
/// evaluation decodes into Term-domain bindings, since ORDER BY over
/// aggregate aliases and the tiny post-aggregation row count live naturally
/// there. Groups leave in first-encounter order; only `ORDER BY` pins one.
fn project_grouped(
    ctx: &EncContext<'_>,
    select: &Select<'_>,
    group_slots: &[u32],
    stream: EncStream<'_>,
    spans: &TailSpans,
) -> Result<SelectResults, SparqlError> {
    let Projection::Items(items) = select.projection else {
        return Err(SparqlError::Unsupported(
            "SELECT * cannot be combined with GROUP BY or aggregates".into(),
        ));
    };
    // A static property of the query text, so it is checked before any row
    // is scanned: the answer must not depend on whether a group exists.
    for item in items {
        if let ProjectionItem::Variable(v) = item {
            if !select.query.group_by.contains(v) {
                return Err(SparqlError::Evaluation(format!(
                    "variable ?{v} is projected but is neither grouped nor aggregated"
                )));
            }
        }
    }

    let grouped_bindings = timed(spans.group.as_ref(), || {
        let mut groups = group_solutions(group_slots, stream)?;
        // With no GROUP BY (pure aggregate query) there is exactly one
        // group, even if it is empty.
        if group_slots.is_empty() && groups.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        }
        // Evaluate each group into an output binding so ORDER BY can see
        // aliases. Group boundaries are this path's batch boundaries: one
        // token poll per group.
        groups
            .iter()
            .map(|(key, members)| {
                if let Some(token) = ctx.cancel {
                    token.check()?;
                }
                evaluate_group(ctx, items, group_slots, key, members)
            })
            .collect::<Result<Vec<Binding>, SparqlError>>()
    })?;
    if let Some(span) = &spans.group {
        span.set_attr("groups", grouped_bindings.len());
    }

    let ordered = timed(spans.order.as_ref(), || {
        order_bindings(&select.query.order_by, grouped_bindings)
    })?;
    let (variables, _) = compile_projection(select.projection, ctx.layout);
    let rows = ordered
        .iter()
        .map(|b| variables.iter().map(|v| b.get(v).cloned()).collect())
        .collect();
    Ok(SelectResults { variables, rows })
}

/// One group: its key (the GROUP BY slot values) and its member rows.
type Partition = (Vec<TermId>, Vec<EncRow>);

/// Partitions an encoded solution stream into groups keyed by the GROUP BY
/// slots, in first-encounter order.
fn group_solutions(
    group_slots: &[u32],
    solutions: EncStream<'_>,
) -> Result<Vec<Partition>, SparqlError> {
    let mut index: HashMap<Vec<TermId>, usize> = HashMap::new();
    let mut groups: Vec<Partition> = Vec::new();
    for solution in solutions {
        let row = solution?;
        let key: Vec<TermId> = group_slots.iter().map(|&s| row[s as usize]).collect();
        match index.entry(key) {
            Entry::Occupied(e) => groups[*e.get()].1.push(row),
            Entry::Vacant(v) => {
                groups.push((v.key().clone(), vec![row]));
                v.insert(groups.len() - 1);
            }
        }
    }
    Ok(groups)
}

/// Evaluates one group into its Term-domain output binding.
fn evaluate_group(
    ctx: &EncContext<'_>,
    items: &[ProjectionItem],
    group_slots: &[u32],
    key: &[TermId],
    members: &[EncRow],
) -> Result<Binding, SparqlError> {
    // A synthetic row binding exactly the group-key slots: non-aggregate
    // expressions in the projection see the key (and nothing else), the
    // same visibility the Term-domain key binding used to give them.
    let mut key_row = ctx.layout.empty_row();
    for (i, &slot) in group_slots.iter().enumerate() {
        key_row[slot as usize] = key[i];
    }
    let key_scope = EncScope {
        row: &key_row,
        layout: ctx.layout,
        dict: ctx.dict,
    };

    let mut out = Binding::new();
    for item in items {
        match item {
            // Grouped by construction: `project_grouped` checked up front.
            ProjectionItem::Variable(v) => {
                if let Some(term) = key_scope.term(v) {
                    out.insert(v.clone(), term);
                }
            }
            ProjectionItem::Expression { expr, alias } => {
                let value = match expr {
                    Expression::Aggregate {
                        func,
                        distinct,
                        arg,
                    } => evaluate_aggregate(ctx, *func, *distinct, arg.as_deref(), members)?,
                    other => evaluate_scoped(other, &key_scope)?.into_term(),
                };
                if let Some(term) = value {
                    out.insert(alias.clone(), term);
                }
            }
        }
    }
    Ok(out)
}

/// Evaluates one aggregate over a group's encoded members.
///
/// The common `agg(?var)` shape stays in the id domain until the arithmetic:
/// `COUNT` never decodes at all, and `COUNT(DISTINCT ?v)` dedups raw ids.
fn evaluate_aggregate(
    ctx: &EncContext<'_>,
    func: AggregateFunction,
    distinct: bool,
    arg: Option<&Expression>,
    members: &[EncRow],
) -> Result<Option<Term>, SparqlError> {
    // Fast path: plain variable argument.
    if let Some(Expression::Variable(name)) = arg {
        if let Some(slot) = ctx.layout.slot_of(name) {
            let mut ids: Vec<TermId> = members
                .iter()
                .map(|row| row[slot as usize])
                .filter(|&id| id != UNBOUND)
                .collect();
            if distinct {
                let mut seen: HashSet<TermId> = HashSet::with_capacity(ids.len());
                ids.retain(|&id| seen.insert(id));
            }
            if func == AggregateFunction::Count {
                return Ok(aggregate_values(func, Vec::new(), ids.len()));
            }
            let values: Vec<Term> = ids.iter().map(|&id| ctx.dict.term(id).clone()).collect();
            let count = values.len();
            return Ok(aggregate_values(func, values, count));
        }
    }
    // General path: evaluate the argument expression per member (or count
    // every member for COUNT(*)).
    let mut values: Vec<Term> = Vec::new();
    for member in members {
        match arg {
            None => values.push(Term::Literal(hbold_rdf_model::Literal::integer(1))),
            Some(expr) => {
                let scope = EncScope {
                    row: member,
                    layout: ctx.layout,
                    dict: ctx.dict,
                };
                if let Some(t) = evaluate_scoped(expr, &scope)?.into_term() {
                    values.push(t);
                }
            }
        }
    }
    if distinct {
        let mut seen: HashSet<Term> = HashSet::with_capacity(values.len());
        values.retain(|t| seen.insert(t.clone()));
    }
    let count = values.len();
    Ok(aggregate_values(func, values, count))
}
