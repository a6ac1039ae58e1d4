//! The dictionary-encoded execution domain: slot layouts and `TermId` rows.
//!
//! The streaming engine in [`crate::eval`] carries solutions between
//! operators as **slot-addressed encoded rows** instead of
//! `BTreeMap<String, Term>` bindings:
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
//!   partitioning and the `ORDER BY` tie-break all operate on identifiers;
//!   the dictionary is consulted lazily — only where lexical values are
//!   genuinely needed (expression evaluation, ORDER BY sort keys, aggregate
//!   arithmetic) — and full [`Term`] rows materialize exactly once, at the
//!   [`SelectResults`] boundary.
//!
//! The naive reference evaluator ([`crate::reference`]) deliberately stays
//! in the Term domain, so the differential oracle keeps checking this whole
//! module against an implementation that shares none of it.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::time::Instant;

use hbold_rdf_model::Term;
use hbold_telemetry::Span;
use hbold_triple_store::{QuadScan, TermDictionary, TermId, TripleStore, DEFAULT_GRAPH};

use crate::ast::*;
use crate::error::SparqlError;
use crate::eval::{aggregate_values, compare_optional_terms, order_solutions};
use crate::expr::{evaluate_scoped, filter_passes_scoped, Binding, EvalValue, Scope};
use crate::optimize::{BgpPlan, PlanCounters};
use crate::results::SelectResults;

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

/// A graph pattern compiled to the encoded domain. Filter conditions keep
/// their AST form and evaluate through [`EncScope`] (decoding lazily).
///
/// BGPs carry their triple patterns in **execution order**: the single
/// pre-execution planning pass ([`crate::optimize::plan_pattern`]) permutes
/// them in place, so the operators just walk the stored order.
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
        /// Equality conjuncts the optimizer pushed down: `(slot, id)`
        /// pre-binds the slot before `inner` scans (`None` id means the
        /// constant was never interned — no row can match). Sound only
        /// under the conditions `crate::optimize` checks; empty until the
        /// planning pass has run.
        prebind: Vec<(u32, Option<TermId>)>,
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
            prebind: Vec::new(),
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
    /// Per-operator trace spans for this evaluation. `None` (the default)
    /// keeps the operators exactly as before — the lookups below happen at
    /// stream-construction time only, never per row.
    pub trace: Option<&'a ExecTrace>,
    /// Cooperative cancellation token for this evaluation, polled at batch
    /// boundaries by [`maybe_cancelled`] streams and at group boundaries by
    /// the aggregation paths. `None` (the default) adds no per-row work.
    pub cancel: Option<&'a crate::cancel::CancellationToken>,
}

impl<'a> EncContext<'a> {
    /// A context with neither private counters nor tracing attached.
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
            trace: None,
            cancel: None,
        }
    }
}

// ---- execution tracing -----------------------------------------------------------

/// Trace spans for one evaluation, keyed by the address of each node in the
/// planned [`EncPattern`] tree (and of each [`EncTriplePattern`] scan stage
/// within its BGP). Addresses stay stable because the pattern is owned by
/// the evaluating frame for the whole execution and never moved after the
/// trace is built.
pub(crate) struct ExecTrace {
    spans: HashMap<usize, Span>,
}

impl ExecTrace {
    /// Builds the span tree under `parent` by walking the planned pattern
    /// in the same order as `crate::optimize::plan_rec`, so `plans` (one
    /// entry per BGP, in planning order) pairs up with the Bgp nodes.
    pub(crate) fn build(
        ctx: &EncContext<'_>,
        pattern: &EncPattern,
        plans: &[BgpPlan],
        parent: &Span,
    ) -> ExecTrace {
        let mut trace = ExecTrace {
            spans: HashMap::new(),
        };
        let mut next_plan = 0;
        trace.walk(ctx, pattern, plans, &mut next_plan, parent);
        trace
    }

    fn walk(
        &mut self,
        ctx: &EncContext<'_>,
        pattern: &EncPattern,
        plans: &[BgpPlan],
        next_plan: &mut usize,
        parent: &Span,
    ) {
        match pattern {
            EncPattern::Bgp(tps) => {
                let span = parent.child("bgp");
                let plan = plans.get(*next_plan);
                *next_plan += 1;
                if let Some(plan) = plan {
                    span.set_attr(
                        "order",
                        plan.order.iter().map(|&i| i as u64).collect::<Vec<u64>>(),
                    );
                }
                // The tps are already permuted into execution order, so the
                // scan children read top-to-bottom as the pipeline runs;
                // `estimates` is parallel to that order.
                for (i, tp) in tps.iter().enumerate() {
                    let scan = span.child("scan");
                    scan.set_attr("pattern", render_triple_pattern(ctx, tp));
                    if let Some(plan) = plan {
                        if let Some(&written) = plan.order.get(i) {
                            scan.set_attr("written_index", written);
                        }
                        if let Some(&estimate) = plan.estimates.get(i) {
                            scan.set_attr("estimate", estimate);
                        }
                    }
                    self.spans.insert(tp as *const _ as usize, scan);
                }
            }
            EncPattern::Join(parts) => {
                let span = parent.child("join");
                for part in parts {
                    self.walk(ctx, part, plans, next_plan, &span);
                }
            }
            EncPattern::Optional { left, right } => {
                let span = parent.child("optional");
                self.spans
                    .insert(pattern as *const _ as usize, span.clone());
                self.walk(ctx, left, plans, next_plan, &span);
                self.walk(ctx, right, plans, next_plan, &span);
            }
            EncPattern::Union(a, b) => {
                let span = parent.child("union");
                self.spans
                    .insert(pattern as *const _ as usize, span.clone());
                self.walk(ctx, a, plans, next_plan, &span);
                self.walk(ctx, b, plans, next_plan, &span);
            }
            EncPattern::Filter { inner, prebind, .. } => {
                let span = parent.child("filter");
                span.set_attr("pushed_prebinds", prebind.len());
                self.spans
                    .insert(pattern as *const _ as usize, span.clone());
                self.walk(ctx, inner, plans, next_plan, &span);
            }
        }
    }

    fn span_of<T>(&self, node: &T) -> Option<&Span> {
        self.spans.get(&(node as *const T as usize))
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

/// An [`EncStream`] wrapper feeding a trace span: every pull's wall time is
/// added to the span (inclusive of upstream work — a child span's elapsed
/// is therefore cumulative, not self time) and every yielded row counts.
struct TracedStream<'a> {
    inner: EncStream<'a>,
    span: Span,
}

impl Iterator for TracedStream<'_> {
    type Item = Result<EncRow, SparqlError>;

    fn next(&mut self) -> Option<Self::Item> {
        let start = Instant::now();
        let item = self.inner.next();
        self.span.add_elapsed_ns(start.elapsed().as_nanos() as u64);
        if let Some(Ok(_)) = &item {
            self.span.add_rows(1);
        }
        item
    }
}

/// Wraps `stream` in a [`TracedStream`] when tracing is on and a span was
/// registered for `node`; the untraced path pays one `Option` check at
/// construction and nothing per row.
fn maybe_traced<'a, T>(ctx: &EncContext<'a>, node: &T, stream: EncStream<'a>) -> EncStream<'a> {
    match ctx.trace.and_then(|trace| trace.span_of(node)) {
        Some(span) => Box::new(TracedStream {
            inner: stream,
            span: span.clone(),
        }),
        None => stream,
    }
}

/// An [`EncStream`] wrapper that polls a
/// [`CancellationToken`](crate::cancel::CancellationToken) once every
/// `interval` pulls: a tripped token turns into an in-band `Err`, which the
/// downstream collectors treat as fatal — so a cancelled query can never
/// yield a truncated result, only the typed error. Between checks the cost
/// is one integer decrement per row.
struct CancelledStream<'a> {
    inner: EncStream<'a>,
    token: &'a crate::cancel::CancellationToken,
    interval: u32,
    countdown: u32,
}

impl Iterator for CancelledStream<'_> {
    type Item = Result<EncRow, SparqlError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.countdown == 0 {
            self.countdown = self.interval;
            if let Err(e) = self.token.check() {
                return Some(Err(e));
            }
        }
        self.countdown -= 1;
        self.inner.next()
    }
}

/// Wraps `stream` in a [`CancelledStream`] when a token is attached; with
/// no token (the default) the stream is returned untouched — zero per-row
/// cost, exactly like [`maybe_traced`]. The very first pull checks the
/// token, so an already-tripped token fails before any row is produced.
fn maybe_cancelled<'b>(
    cancel: Option<&'b crate::cancel::CancellationToken>,
    stream: EncStream<'b>,
) -> EncStream<'b> {
    match cancel {
        Some(token) => Box::new(CancelledStream {
            inner: stream,
            token,
            interval: token.check_interval(),
            countdown: 0,
        }),
        None => stream,
    }
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

// ---- streaming operators ---------------------------------------------------------

/// The stream of all solutions of `pattern` starting from the empty row.
///
/// `pattern` must already be planned ([`crate::optimize::plan_pattern`]):
/// the operators here execute BGPs in their stored order and apply pushed
/// filter pre-binds, making no ordering decisions of their own.
pub(crate) fn root_stream<'a>(ctx: &'a EncContext<'a>, pattern: &'a EncPattern) -> EncStream<'a> {
    // The root poll fails an already-tripped token before the first row,
    // whatever the pattern; the scan stages below poll for themselves
    // (see `stream_bgp`), since rows a filter drops never reach this one.
    maybe_cancelled(
        ctx.cancel,
        stream_pattern(
            ctx,
            pattern,
            Box::new(std::iter::once(Ok(ctx.layout.empty_row()))),
        ),
    )
}

/// Compiles a planned `pattern` over `input` into a lazy encoded solution
/// stream.
pub(crate) fn stream_pattern<'a>(
    ctx: &'a EncContext<'a>,
    pattern: &'a EncPattern,
    input: EncStream<'a>,
) -> EncStream<'a> {
    match pattern {
        EncPattern::Bgp(tps) => stream_bgp(ctx, tps, input),
        EncPattern::Join(parts) => {
            let mut stream = input;
            for part in parts {
                stream = stream_pattern(ctx, part, stream);
            }
            stream
        }
        EncPattern::Optional { left, right } => {
            let left_stream = stream_pattern(ctx, left, input);
            let stream: EncStream<'a> =
                Box::new(left_stream.flat_map(move |solution| -> EncStream<'a> {
                    match solution {
                        Err(e) => Box::new(std::iter::once(Err(e))),
                        Ok(row) => {
                            let seed: EncStream<'a> = Box::new(std::iter::once(Ok(row.clone())));
                            let mut extended = stream_pattern(ctx, right, seed);
                            match extended.next() {
                                // Left join: an unmatched left solution survives.
                                None => Box::new(std::iter::once(Ok(row))),
                                Some(first) => Box::new(std::iter::once(first).chain(extended)),
                            }
                        }
                    }
                }));
            maybe_traced(ctx, pattern, stream)
        }
        EncPattern::Union(a, b) => {
            // Feed each input row through branch a then branch b; same
            // multiset as materialized `eval(a) ++ eval(b)`, and sequencing
            // is only observable under ORDER BY where the deterministic
            // sort makes both forms identical.
            let stream: EncStream<'a> =
                Box::new(input.flat_map(move |solution| -> EncStream<'a> {
                    match solution {
                        Err(e) => Box::new(std::iter::once(Err(e))),
                        Ok(row) => {
                            let left =
                                stream_pattern(ctx, a, Box::new(std::iter::once(Ok(row.clone()))));
                            let right = stream_pattern(ctx, b, Box::new(std::iter::once(Ok(row))));
                            Box::new(left.chain(right))
                        }
                    }
                }));
            maybe_traced(ctx, pattern, stream)
        }
        EncPattern::Filter {
            inner,
            condition,
            prebind,
        } => {
            // Pushed-down equality conjuncts pre-bind their slots on every
            // input row, so the inner scans treat them as constants; the
            // residual condition still evaluates in full on each survivor.
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
            let stream = stream_pattern(ctx, inner, input);
            let stream: EncStream<'a> =
                Box::new(stream.filter_map(move |solution| match solution {
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
                }));
            maybe_traced(ctx, pattern, stream)
        }
    }
}

/// Streams a basic graph pattern: each triple pattern — already permuted
/// into execution order by the planning pass — becomes a nested index-scan
/// stage of the pipeline.
///
/// Every stage's output polls the cancellation token. A join can run for
/// ever while handing nothing downstream (a cross product under a filter
/// that rejects every row), so a poll that counts only the rows leaving the
/// pipeline would never fire; counted per stage, the work between two polls
/// is bounded by `check_interval` rows plus one index scan.
fn stream_bgp<'a>(
    ctx: &'a EncContext<'a>,
    patterns: &'a [EncTriplePattern],
    input: EncStream<'a>,
) -> EncStream<'a> {
    let mut stream = input;
    for tp in patterns {
        stream = Box::new(stream.flat_map(move |solution| match solution {
            Err(e) => RowScan::Failed(Some(e)),
            Ok(row) => RowScan::Scan(ScanRows::new(ctx, tp, row)),
        }));
        stream = maybe_cancelled(ctx.cancel, stream);
        stream = maybe_traced(ctx, tp, stream);
    }
    stream
}

// ---- projection (the decode boundary) --------------------------------------------

/// A projection compiled against the slot layout.
pub(crate) enum EncProjection<'q> {
    /// Every column is a plain variable (or `SELECT *`): column `i` reads
    /// slot `slots[i]`, and DISTINCT can dedup on raw identifiers.
    Slots {
        variables: Vec<String>,
        slots: Vec<u32>,
    },
    /// At least one column is a computed expression; rows materialize into
    /// the Term domain at projection time.
    Mixed {
        variables: Vec<String>,
        items: &'q [ProjectionItem],
    },
}

pub(crate) fn compile_projection<'q>(
    projection: &'q Projection,
    layout: &SlotLayout,
) -> EncProjection<'q> {
    match projection {
        Projection::Star => {
            let slots: Vec<u32> = (0..layout.pattern_vars() as u32).collect();
            EncProjection::Slots {
                variables: layout.names()[..layout.pattern_vars()].to_vec(),
                slots,
            }
        }
        Projection::Items(items) => {
            let variables: Vec<String> = items
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
            match all_slots {
                Some(slots) => EncProjection::Slots { variables, slots },
                None => EncProjection::Mixed { variables, items },
            }
        }
    }
}

impl EncProjection<'_> {
    pub(crate) fn variables(&self) -> &[String] {
        match self {
            EncProjection::Slots { variables, .. } | EncProjection::Mixed { variables, .. } => {
                variables
            }
        }
    }
}

/// Projects one row into slot-id space (Slots projections only).
fn project_slots(slots: &[u32], row: &[TermId]) -> Vec<TermId> {
    slots.iter().map(|&s| row[s as usize]).collect()
}

/// Decodes a projected slot-id row into terms — the single point where
/// variable columns materialize.
fn decode_projected(dict: &TermDictionary, projected: &[TermId]) -> Vec<Option<Term>> {
    projected
        .iter()
        .map(|&id| (id != UNBOUND).then(|| dict.term(id).clone()))
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

/// N-Triples-rendered dedup key for a Term-domain row (Mixed DISTINCT).
pub(crate) fn term_row_key(row: &[Option<Term>]) -> String {
    row.iter()
        .map(|t| t.as_ref().map(|t| t.to_ntriples()).unwrap_or_default())
        .collect::<Vec<_>>()
        .join("\u{1}")
}

/// Applies DISTINCT (in row order), OFFSET and LIMIT to fully-materialized
/// encoded solutions, decoding only the surviving rows.
pub(crate) fn finalize_rows(
    ctx: &EncContext<'_>,
    projection: &EncProjection<'_>,
    solutions: Vec<EncRow>,
    distinct: bool,
    offset: usize,
    limit: Option<usize>,
) -> Result<SelectResults, SparqlError> {
    let variables = projection.variables().to_vec();
    let rows = match projection {
        EncProjection::Slots { slots, .. } => {
            let mut projected: Vec<Vec<TermId>> = solutions
                .iter()
                .map(|row| project_slots(slots, row))
                .collect();
            if distinct {
                let mut seen: HashSet<Vec<TermId>> = HashSet::with_capacity(projected.len());
                projected.retain(|p| seen.insert(p.clone()));
            }
            cut(&mut projected, offset, limit);
            projected
                .iter()
                .map(|p| decode_projected(ctx.dict, p))
                .collect()
        }
        EncProjection::Mixed { items, .. } => {
            let mut rows: Vec<Vec<Option<Term>>> = Vec::with_capacity(solutions.len());
            for row in &solutions {
                rows.push(project_mixed(ctx, items, row)?);
            }
            if distinct {
                let mut seen: HashSet<String> = HashSet::with_capacity(rows.len());
                rows.retain(|r| seen.insert(term_row_key(r)));
            }
            cut(&mut rows, offset, limit);
            rows
        }
    };
    Ok(SelectResults { variables, rows })
}

fn cut<T>(rows: &mut Vec<T>, offset: usize, limit: Option<usize>) {
    if offset > 0 {
        rows.drain(..offset.min(rows.len()));
    }
    if let Some(limit) = limit {
        rows.truncate(limit);
    }
}

// ---- SELECT strategies -----------------------------------------------------------

/// Un-ordered SELECT: stream encoded rows straight into projected rows,
/// stopping early once `OFFSET + LIMIT` (distinct) rows exist.
pub(crate) fn select_streaming(
    ctx: &EncContext<'_>,
    pattern: &EncPattern,
    query: &Query,
    projection: &Projection,
    distinct: bool,
) -> Result<SelectResults, SparqlError> {
    let proj = compile_projection(projection, ctx.layout);
    let offset = query.offset.unwrap_or(0);
    let target = query.limit.map(|limit| offset.saturating_add(limit));
    let variables = proj.variables().to_vec();
    let rows = match &proj {
        EncProjection::Slots { slots, .. } if !distinct => {
            // No dedup needed: decode straight off the stream, one output
            // row allocation per solution and nothing else.
            let mut kept: Vec<Vec<Option<Term>>> = Vec::new();
            if target != Some(0) {
                for solution in root_stream(ctx, pattern) {
                    let row = solution?;
                    kept.push(
                        slots
                            .iter()
                            .map(|&s| {
                                let id = row[s as usize];
                                (id != UNBOUND).then(|| ctx.dict.term(id).clone())
                            })
                            .collect(),
                    );
                    if Some(kept.len()) == target {
                        break;
                    }
                }
            }
            cut(&mut kept, offset, query.limit);
            kept
        }
        EncProjection::Slots { slots, .. } => {
            let mut kept: Vec<Vec<TermId>> = Vec::new();
            let mut seen: HashSet<Vec<TermId>> = HashSet::new();
            if target != Some(0) {
                for solution in root_stream(ctx, pattern) {
                    let row = solution?;
                    let projected = project_slots(slots, &row);
                    if !seen.insert(projected.clone()) {
                        continue;
                    }
                    kept.push(projected);
                    if Some(kept.len()) == target {
                        break;
                    }
                }
            }
            cut(&mut kept, offset, query.limit);
            kept.iter().map(|p| decode_projected(ctx.dict, p)).collect()
        }
        EncProjection::Mixed { items, .. } => {
            let mut kept: Vec<Vec<Option<Term>>> = Vec::new();
            let mut seen: HashSet<String> = HashSet::new();
            if target != Some(0) {
                for solution in root_stream(ctx, pattern) {
                    let row = solution?;
                    let projected = project_mixed(ctx, items, &row)?;
                    if distinct && !seen.insert(term_row_key(&projected)) {
                        continue;
                    }
                    kept.push(projected);
                    if Some(kept.len()) == target {
                        break;
                    }
                }
            }
            cut(&mut kept, offset, query.limit);
            kept
        }
    };
    Ok(SelectResults { variables, rows })
}

/// Ordered SELECT: `LIMIT` without `DISTINCT` runs a bounded top-k heap over
/// the encoded stream; everything else materializes and fully sorts.
pub(crate) fn select_ordered(
    ctx: &EncContext<'_>,
    pattern: &EncPattern,
    query: &Query,
    projection: &Projection,
    distinct: bool,
) -> Result<SelectResults, SparqlError> {
    let proj = compile_projection(projection, ctx.layout);
    let offset = query.offset.unwrap_or(0);
    let ordered = match query.limit {
        // DISTINCT dedupes *projected rows* before LIMIT applies, so top-k
        // over raw solutions could come up short — full sort in that case.
        Some(limit) if !distinct => {
            let k = offset.saturating_add(limit);
            order_solutions_topk(ctx, &query.order_by, root_stream(ctx, pattern), k)?
        }
        _ => {
            let solutions = root_stream(ctx, pattern).collect::<Result<_, _>>()?;
            order_encoded_solutions(ctx, &query.order_by, solutions)
        }
    };
    finalize_rows(ctx, &proj, ordered, distinct, offset, query.limit)
}

// ---- ordering --------------------------------------------------------------------

/// ORDER BY sort keys for one row: expression evaluation with lazy decode.
fn order_keys(
    ctx: &EncContext<'_>,
    order_by: &[OrderCondition],
    row: &[TermId],
) -> Vec<Option<Term>> {
    let scope = EncScope {
        row,
        layout: ctx.layout,
        dict: ctx.dict,
    };
    order_by
        .iter()
        .map(|cond| {
            evaluate_scoped(&cond.expr, &scope)
                .ok()
                .and_then(EvalValue::into_term)
        })
        .collect()
}

/// Total deterministic order over whole encoded rows: slots walked in
/// variable-name order, unbound slots skipped, terms compared by their
/// N-Triples form — byte-for-byte the `compare_bindings` order the
/// Term-domain engine and the reference oracle use, reproduced without
/// building a `BTreeMap`.
pub(crate) fn compare_rows_tiebreak(ctx: &EncContext<'_>, a: &[TermId], b: &[TermId]) -> Ordering {
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
                    // Distinct ids are distinct terms with distinct
                    // N-Triples forms (interning is injective).
                    let ord = ctx
                        .dict
                        .term(ida)
                        .to_ntriples()
                        .cmp(&ctx.dict.term(idb).to_ntriples());
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
            }
        }
    }
}

fn compare_keyed(
    ctx: &EncContext<'_>,
    order_by: &[OrderCondition],
    ka: &[Option<Term>],
    ra: &[TermId],
    kb: &[Option<Term>],
    rb: &[TermId],
) -> Ordering {
    for (i, cond) in order_by.iter().enumerate() {
        let ord = compare_optional_terms(&ka[i], &kb[i]);
        let ord = if cond.descending { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    compare_rows_tiebreak(ctx, ra, rb)
}

/// Sorts materialized encoded solutions under ORDER BY.
pub(crate) fn order_encoded_solutions(
    ctx: &EncContext<'_>,
    order_by: &[OrderCondition],
    mut solutions: Vec<EncRow>,
) -> Vec<EncRow> {
    if order_by.is_empty() {
        return solutions;
    }
    // Precompute sort keys to avoid re-evaluating expressions in the
    // comparator.
    let mut keyed: Vec<(Vec<Option<Term>>, EncRow)> = solutions
        .drain(..)
        .map(|row| (order_keys(ctx, order_by, &row), row))
        .collect();
    keyed.sort_by(|(ka, ra), (kb, rb)| compare_keyed(ctx, order_by, ka, ra, kb, rb));
    keyed.into_iter().map(|(_, row)| row).collect()
}

/// Bounded top-k ordering over an encoded stream: a max-heap of size `k`
/// keeps the k smallest rows (under the ORDER BY comparator) while the
/// stream is consumed, so `ORDER BY ... LIMIT k` never materializes or
/// fully sorts the solution set.
fn order_solutions_topk(
    ctx: &EncContext<'_>,
    order_by: &[OrderCondition],
    stream: EncStream<'_>,
    k: usize,
) -> Result<Vec<EncRow>, SparqlError> {
    if k == 0 {
        return Ok(Vec::new());
    }
    struct Entry<'e> {
        keys: Vec<Option<Term>>,
        row: EncRow,
        ctx: &'e EncContext<'e>,
        order_by: &'e [OrderCondition],
    }
    impl PartialEq for Entry<'_> {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Entry<'_> {}
    impl PartialOrd for Entry<'_> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry<'_> {
        fn cmp(&self, other: &Self) -> Ordering {
            compare_keyed(
                self.ctx,
                self.order_by,
                &self.keys,
                &self.row,
                &other.keys,
                &other.row,
            )
        }
    }
    // `k` comes from `offset + limit` and may be astronomically large (e.g.
    // `LIMIT 9223372036854775807 OFFSET 9223372036854775807`), so it must
    // only bound the heap's *size*, never pre-size its allocation: the
    // capacity hint is clamped and `k + 1` style arithmetic avoided.
    let mut heap: BinaryHeap<Entry<'_>> = BinaryHeap::with_capacity(k.saturating_add(1).min(1024));
    for solution in stream {
        let row = solution?;
        let entry = Entry {
            keys: order_keys(ctx, order_by, &row),
            row,
            ctx,
            order_by,
        };
        heap.push(entry);
        if heap.len() > k {
            heap.pop(); // drop the current worst
        }
    }
    Ok(heap.into_sorted_vec().into_iter().map(|e| e.row).collect())
}

// ---- grouped evaluation ----------------------------------------------------------

/// Streaming fast path for ungrouped pure-count projections
/// (`SELECT (COUNT(*) AS ?n) (COUNT(?v) AS ?m) ... WHERE ...`): counts the
/// encoded stream without materializing a single row. Returns `None` when
/// the projection has any other shape (DISTINCT counts included — those
/// need the values).
pub(crate) fn count_only_streaming(
    ctx: &EncContext<'_>,
    pattern: &EncPattern,
    query: &Query,
    items: &[ProjectionItem],
) -> Option<Result<SelectResults, SparqlError>> {
    if !query.group_by.is_empty() || items.is_empty() {
        return None;
    }
    // (alias, counted slot): `None` counts every solution (COUNT(*)),
    // `Some(slot)` counts solutions where the variable is bound.
    let mut counters: Vec<(String, Option<u32>)> = Vec::with_capacity(items.len());
    for item in items {
        match item {
            ProjectionItem::Expression {
                expr:
                    Expression::Aggregate {
                        func: AggregateFunction::Count,
                        distinct: false,
                        arg,
                    },
                alias,
            } => match arg.as_deref() {
                None => counters.push((alias.clone(), None)),
                Some(Expression::Variable(v)) => {
                    counters.push((alias.clone(), Some(ctx.layout.slot_of(v)?)))
                }
                Some(_) => return None,
            },
            _ => return None,
        }
    }
    let mut counts = vec![0usize; counters.len()];
    for solution in root_stream(ctx, pattern) {
        let row = match solution {
            Ok(row) => row,
            Err(e) => return Some(Err(e)),
        };
        for (i, (_, slot)) in counters.iter().enumerate() {
            match slot {
                None => counts[i] += 1,
                Some(slot) => {
                    if row[*slot as usize] != UNBOUND {
                        counts[i] += 1;
                    }
                }
            }
        }
    }
    Some(Ok(SelectResults {
        variables: counters.iter().map(|(alias, _)| alias.clone()).collect(),
        rows: vec![counts
            .iter()
            .map(|&n| aggregate_values(AggregateFunction::Count, Vec::new(), n))
            .collect()],
    }))
}

/// Evaluates a grouped/aggregated projection over the solutions of
/// `pattern`.
///
/// Partitioning hashes raw slot-id key vectors (the hot part — one hash of
/// a few `u32`s per solution instead of a formatted string); group *output*
/// evaluation decodes into Term-domain bindings, since ORDER BY over
/// aggregate aliases and the tiny post-aggregation row count live naturally
/// there. Groups leave in first-encounter order; only `ORDER BY` pins one.
pub(crate) fn project_grouped(
    ctx: &EncContext<'_>,
    pattern: &EncPattern,
    query: &Query,
    projection: &Projection,
) -> Result<SelectResults, SparqlError> {
    let Projection::Items(items) = projection else {
        return Err(SparqlError::Unsupported(
            "SELECT * cannot be combined with GROUP BY or aggregates".into(),
        ));
    };
    // A static property of the query text, so it is checked before any row
    // is scanned: the answer must not depend on whether a group exists.
    for item in items {
        if let ProjectionItem::Variable(v) = item {
            if !query.group_by.contains(v) {
                return Err(SparqlError::Evaluation(format!(
                    "variable ?{v} is projected but is neither grouped nor aggregated"
                )));
            }
        }
    }

    let group_slots: Vec<u32> = query
        .group_by
        .iter()
        .map(|v| {
            ctx.layout
                .slot_of(v)
                .expect("layout covers group variables")
        })
        .collect();
    let mut groups = group_solutions(&group_slots, root_stream(ctx, pattern))?;
    // With no GROUP BY (pure aggregate query) there is exactly one group,
    // even if it is empty.
    if query.group_by.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    let variables: Vec<String> = items
        .iter()
        .map(|item| match item {
            ProjectionItem::Variable(v) => v.clone(),
            ProjectionItem::Expression { alias, .. } => alias.clone(),
        })
        .collect();

    // Evaluate each group into an output binding so ORDER BY can see
    // aliases. Group boundaries are this path's batch boundaries: one
    // token poll per group.
    let grouped_bindings = groups
        .iter()
        .map(|(key, members)| {
            if let Some(token) = ctx.cancel {
                token.check()?;
            }
            evaluate_group(ctx, items, &group_slots, key, members)
        })
        .collect::<Result<Vec<Binding>, SparqlError>>()?;

    let ordered = order_solutions(&query.order_by, grouped_bindings)?;
    let rows = ordered
        .iter()
        .map(|b| variables.iter().map(|v| b.get(v).cloned()).collect())
        .collect();
    Ok(SelectResults { variables, rows })
}

/// One group: its key (the GROUP BY slot values) and its member rows.
type Group = (Vec<TermId>, Vec<EncRow>);

/// Partitions an encoded solution stream into groups keyed by the GROUP BY
/// slots, in first-encounter order.
fn group_solutions(
    group_slots: &[u32],
    solutions: EncStream<'_>,
) -> Result<Vec<Group>, SparqlError> {
    let mut index: HashMap<Vec<TermId>, usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
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
        let mut seen: HashSet<String> = HashSet::with_capacity(values.len());
        values.retain(|t| seen.insert(t.to_ntriples()));
    }
    let count = values.len();
    Ok(aggregate_values(func, values, count))
}
